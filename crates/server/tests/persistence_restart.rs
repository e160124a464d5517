//! Restart-durability acceptance test for `serve --data-dir`: models
//! fitted over the wire survive a full server shutdown + restart on the
//! same directory — same checksums, bit-identical scores, no refitting —
//! and keep working when the engine's registry, the only model cache,
//! holds fewer models than the store.

use std::path::PathBuf;
use std::thread;

use s2g_engine::EngineConfig;
use s2g_server::{Client, Json, Server, ServerConfig, ShutdownHandle};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s2g_serve_persist_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn start(config: ServerConfig) -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    let server = Server::bind(config.with_addr("127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run().unwrap());
    (addr, handle, thread)
}

fn sine_csv(n: usize, period: f64) -> String {
    (0..n)
        .map(|i| format!("{}\n", (std::f64::consts::TAU * i as f64 / period).sin()))
        .collect()
}

fn probe(n: usize, period: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (std::f64::consts::TAU * i as f64 / period).sin())
        .collect()
}

fn checksum_of(info: &Json) -> String {
    info.get("checksum").unwrap().as_str().unwrap().to_string()
}

#[test]
fn models_survive_restart_with_equal_checksums_and_bit_identical_scores() {
    let dir = test_dir("roundtrip");
    let periods = [80.0, 64.0, 48.0];
    let probe_series = probe(700, 70.0);

    // ---- First server life: fit three models over the wire. ----
    let (addr, handle, server_thread) = start(ServerConfig::default().with_data_dir(&dir));
    let client = Client::new(addr);
    let mut checksums = Vec::new();
    let mut expected_scores = Vec::new();
    for (i, period) in periods.iter().enumerate() {
        let info = client
            .fit_model(
                &format!("m{i}"),
                "pattern_length=40",
                &sine_csv(2200, *period),
            )
            .unwrap();
        checksums.push(checksum_of(&info));
        let scores = client
            .score(&format!("m{i}"), 150, std::slice::from_ref(&probe_series))
            .unwrap()
            .remove(0)
            .unwrap();
        expected_scores.push(scores);
    }
    let health = client.health().unwrap();
    assert_eq!(health.get("persistent"), Some(&Json::Bool(true)));
    assert_eq!(health.get("stored_models").unwrap().as_usize(), Some(3));
    assert!(health.get("uptime_secs").unwrap().as_usize().is_some());
    // Compatibility: the original liveness fields are still present.
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert!(health.get("workers").unwrap().as_usize().is_some());
    handle.shutdown();
    server_thread.join().unwrap();

    // ---- Second life: same directory, nothing refitted. ----
    let (addr, handle, server_thread) = start(ServerConfig::default().with_data_dir(&dir));
    let client = Client::new(addr);

    // The listing is served from the store manifest before any model is
    // loaded; fitted_at == 0 marks "persisted, not loaded this process".
    let listed = client.list_models().unwrap();
    assert_eq!(listed.len(), 3);
    for model in &listed {
        assert_eq!(model.get("fitted_at").unwrap().as_usize(), Some(0));
    }
    let health = client.health().unwrap();
    assert_eq!(health.get("models").unwrap().as_usize(), Some(0));
    assert_eq!(health.get("stored_models").unwrap().as_usize(), Some(3));

    for (i, (checksum, expected)) in checksums.iter().zip(&expected_scores).enumerate() {
        let name = format!("m{i}");
        // Checksums equal across the restart: bit-for-bit the same model.
        let info = client.model_info(&name).unwrap();
        assert_eq!(&checksum_of(&info), checksum, "checksum of {name}");
        // Scores equal to the last f64 bit: load-through, not refit.
        let scores = client
            .score(&name, 150, std::slice::from_ref(&probe_series))
            .unwrap()
            .remove(0)
            .unwrap();
        assert_eq!(scores.len(), expected.len());
        for (j, (e, g)) in expected.iter().zip(&scores).enumerate() {
            assert_eq!(
                e.to_bits(),
                g.to_bits(),
                "{name} score {j} differs after restart"
            );
        }
    }
    // Scoring loaded the models through into the registry.
    let health = client.health().unwrap();
    assert_eq!(health.get("models").unwrap().as_usize(), Some(3));

    // Streaming sessions load through the store too.
    let session = client.open_session("m1", 160).unwrap();
    let emitted = client.push_session(&session, &probe(400, 64.0)).unwrap();
    assert_eq!(emitted.len(), 400 - 160 + 1);
    client.close_session(&session).unwrap();

    // Delete-through: the model is gone from the store as well.
    client.delete_model("m2").unwrap();
    handle.shutdown();
    server_thread.join().unwrap();

    // ---- Third life: the delete survived the restart. ----
    let (addr, handle, server_thread) = start(ServerConfig::default().with_data_dir(&dir));
    let client = Client::new(addr);
    let names: Vec<String> = client
        .list_models()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, vec!["m0".to_string(), "m1".to_string()]);
    handle.shutdown();
    server_thread.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The value of the `/metrics` line that starts with `name `.
fn metric(client: &Client, name: &str) -> u64 {
    let lines = client.metrics().unwrap();
    let line = lines
        .iter()
        .find(|line| line.starts_with(&format!("{name} ")))
        .unwrap_or_else(|| panic!("/metrics lacks {name}"));
    line.split(' ').nth(1).unwrap().parse().unwrap()
}

#[test]
fn restart_scores_with_a_registry_smaller_than_the_store() {
    let dir = test_dir("budget");
    let probe_series = probe(600, 60.0);

    let (addr, handle, server_thread) = start(ServerConfig::default().with_data_dir(&dir));
    let client = Client::new(addr);
    let mut expected = Vec::new();
    for (i, period) in [75.0, 54.0].iter().enumerate() {
        client
            .fit_model(
                &format!("b{i}"),
                "pattern_length=40",
                &sine_csv(2000, *period),
            )
            .unwrap();
        expected.push(
            client
                .score(&format!("b{i}"), 140, std::slice::from_ref(&probe_series))
                .unwrap()
                .remove(0)
                .unwrap(),
        );
    }
    handle.shutdown();
    server_thread.join().unwrap();

    // A one-model registry: scoring the two models alternately evicts the
    // other each time, so every score reloads its model from the store.
    let (addr, handle, server_thread) = start(
        ServerConfig::default()
            .with_data_dir(&dir)
            .with_engine(EngineConfig::default().with_registry_capacity(1)),
    );
    let client = Client::new(addr);
    for round in 0..2 {
        for (i, expected) in expected.iter().enumerate() {
            let scores = client
                .score(&format!("b{i}"), 140, std::slice::from_ref(&probe_series))
                .unwrap()
                .remove(0)
                .unwrap();
            for (e, g) in expected.iter().zip(&scores) {
                assert_eq!(e.to_bits(), g.to_bits(), "b{i} round {round}");
            }
            let registered = metric(&client, "s2g_models_registered");
            assert!(registered <= 1, "{registered} models registered");
        }
    }
    assert_eq!(
        metric(&client, "s2g_store_fault_ns_count"),
        4,
        "each of the four scores reloads its model"
    );
    handle.shutdown();
    server_thread.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
