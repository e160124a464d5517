//! End-to-end wire acceptance of the adaptation subsystem (ISSUE 4):
//!
//! * a session streaming a drifting baseline **with adaptation on** keeps
//!   anomaly contrast while the frozen model's scores degrade;
//! * **with adaptation off**, session scores remain bit-identical to the
//!   in-process frozen scorer (the pre-adaptation serving behaviour);
//! * the adapted model **survives a server restart** with its lineage
//!   intact and the exact published checksum;
//! * `GET /metrics` reports request, fit, score, session and adaptation
//!   counters.

use std::path::PathBuf;
use std::thread;

use s2g_core::{S2gConfig, Series2Graph, StreamingScorer};
use s2g_server::{Client, Json, Server, ServerConfig, ShutdownHandle};
use s2g_timeseries::io as ts_io;

fn start_server(config: ServerConfig) -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    let server = Server::bind(config.with_addr("127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run().unwrap());
    (addr, handle, thread)
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s2g_adapt_wire_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

// -- the mode-shift drift scenario (validated in s2g-adapt's tests) --------

const SEG: usize = 200;

fn pattern_a(i: usize) -> f64 {
    (std::f64::consts::TAU * i as f64 / 100.0).sin()
}

fn pattern_b(i: usize) -> f64 {
    let phi = std::f64::consts::TAU * i as f64 / 100.0;
    0.6 * phi.sin() + 0.55 * (2.0 * phi).sin()
}

fn mode_mix(n: usize, b_share: impl Fn(usize) -> f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let seg = i / SEG;
            let h = (seg as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            let u = (h % 1000) as f64 / 1000.0;
            if u < b_share(seg) {
                pattern_b(i)
            } else {
                pattern_a(i)
            }
        })
        .collect()
}

fn to_csv(values: &[f64]) -> String {
    values.iter().map(|v| format!("{v}\n")).collect()
}

fn grade(scores: &[(usize, f64)], anomaly: usize) -> (f64, f64) {
    let norm: Vec<f64> = scores
        .iter()
        .filter(|(s, _)| *s >= 7400 && (*s + 200 < anomaly || *s > anomaly + 150))
        .map(|&(_, v)| v)
        .collect();
    let anom: Vec<f64> = scores
        .iter()
        .filter(|(s, _)| *s >= anomaly - 20 && *s < anomaly + 50)
        .map(|&(_, v)| v)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&norm), mean(&anom))
}

#[test]
fn adaptive_session_tracks_drift_frozen_stays_bit_identical_and_restart_keeps_lineage() {
    let dir = test_dir("lifecycle");
    let train = mode_mix(8000, |_| 0.08);
    let train_csv = to_csv(&train);

    let n = 9000;
    let segs = n / SEG;
    let mut stream = mode_mix(n, |seg| (seg as f64 / segs as f64).min(1.0));
    let anomaly = 8300usize;
    for (k, v) in stream[anomaly..anomaly + 100].iter_mut().enumerate() {
        *v = 0.8 * (std::f64::consts::TAU * k as f64 / 17.0).sin();
    }

    // In-process reference: the frozen scorer all comparisons anchor on.
    // parse(to_csv(x)) is bit-exact, so the server sees these very values.
    let parsed_train = ts_io::parse_series(&train_csv).unwrap();
    let reference = Series2Graph::fit(&parsed_train, &S2gConfig::new(50)).unwrap();
    let baseline = s2g_core::scoring::normality_profile(reference.train_contributions(), 50, 150);
    let baseline_mean = baseline.iter().sum::<f64>() / baseline.len() as f64;
    let mut frozen_reference = StreamingScorer::new(reference.clone(), 150).unwrap();
    let frozen_scores = frozen_reference.push_batch(&stream).unwrap();

    // ---- life 1: fit, stream frozen + adaptive over the wire ----
    let (published_checksum, parent_checksum) = {
        let (addr, handle, server_thread) =
            start_server(ServerConfig::default().with_data_dir(&dir));
        let client = Client::new(addr);

        let info = client
            .fit_model("live", "pattern_length=50", &train_csv)
            .unwrap();
        let parent_checksum = info
            .get("checksum")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert!(
            info.get("lineage").is_none(),
            "a pristine fit must not report lineage"
        );

        // Adaptation OFF: wire scores are bit-identical to the in-process
        // frozen scorer — the pre-adaptation behaviour, untouched.
        let session = client.open_session("live", 150).unwrap();
        let mut emitted = Vec::new();
        for block in stream.chunks(1000) {
            let (pairs, adapt) = client.push_session_detailed(&session, block).unwrap();
            assert!(adapt.is_none(), "frozen sessions report no adapt status");
            emitted.extend(pairs);
        }
        client.close_session(&session).unwrap();
        assert_eq!(emitted.len(), frozen_scores.len());
        for (wire, local) in emitted.iter().zip(&frozen_scores) {
            assert_eq!(wire.0, local.0);
            assert_eq!(
                wire.1.to_bits(),
                local.1.to_bits(),
                "adaptation off must stay bit-identical to the frozen scorer"
            );
        }

        // Adaptation ON: same stream through an adaptive session.
        let adapt_options = Json::obj([
            ("lambda", Json::from(0.1)),
            ("drift_window", Json::from(128usize)),
            ("drift_threshold", Json::from(1.0)),
            ("refit_buffer", Json::from(2000usize)),
            ("refit_cooldown", Json::from(1500usize)),
            ("publish_interval", Json::from(256usize)),
        ]);
        let session = client
            .open_session_with("live", 150, Some(adapt_options))
            .unwrap();
        let mut adapted = Vec::new();
        let mut last_status = None;
        let mut published = None;
        for block in stream.chunks(1000) {
            let (pairs, adapt) = client.push_session_detailed(&session, block).unwrap();
            adapted.extend(pairs);
            let status = adapt.expect("adaptive sessions report adapt status");
            if let Some(checksum) = status.get("published_checksum").and_then(Json::as_str) {
                published = Some(checksum.to_string());
            }
            last_status = Some(status);
        }
        client.close_session(&session).unwrap();

        let status = last_status.unwrap();
        let updates = status.get("updates").and_then(Json::as_usize).unwrap();
        assert!(updates > 1000, "the shifting mode keeps being accepted");
        assert!(
            status.get("drift").and_then(|d| d.get("shift")).is_some(),
            "push responses carry drift stats"
        );
        let published = published.expect("publish interval elapsed repeatedly");

        // Acceptance: adaptation keeps the anomaly clearly below the new
        // normal, while the frozen model's scores degrade and lose
        // contrast.
        let (frozen_normal, frozen_anomaly) = grade(&frozen_scores, anomaly);
        let (adaptive_normal, adaptive_anomaly) = grade(&adapted, anomaly);
        assert!(
            frozen_normal < 0.5 * baseline_mean,
            "frozen scores must degrade: {frozen_normal} vs baseline {baseline_mean}"
        );
        assert!(
            frozen_normal / frozen_anomaly.max(1e-9) < 1.3,
            "frozen contrast lost: {frozen_normal} vs {frozen_anomaly}"
        );
        assert!(
            adaptive_normal / adaptive_anomaly.max(1e-9) > 1.8,
            "adaptive contrast kept: {adaptive_normal} vs {adaptive_anomaly}"
        );

        // The registry now serves an adapted snapshot with lineage.
        let info = client.model_info("live").unwrap();
        let lineage = info.get("lineage").expect("adapted model exposes lineage");
        assert_eq!(
            lineage.get("parent_checksum").and_then(Json::as_str),
            Some(parent_checksum.as_str())
        );
        assert!(lineage.get("updates").and_then(Json::as_usize).unwrap() > 0);

        // Metrics: the satellite endpoint reports everything the ISSUE
        // asks for.
        let metrics = client.metrics().unwrap().join("\n");
        for needle in [
            "s2g_requests_total{route=\"PUT /models/{name}\",status=\"200\"} 1",
            "s2g_requests_total{route=\"POST /sessions/{id}/push\"",
            "s2g_fits_total 1",
            "s2g_sessions_opened_total 2",
            "s2g_sessions_open 0",
            "s2g_models_registered 1",
            "s2g_models_stored 1",
            "s2g_adapt_refits_total",
            "s2g_adapt_published_total",
        ] {
            assert!(
                metrics.contains(needle),
                "metrics lack {needle}:\n{metrics}"
            );
        }
        let updates_line = metrics
            .lines()
            .find(|l| l.starts_with("s2g_adapt_updates_total"))
            .unwrap();
        let total: u64 = updates_line.split(' ').nth(1).unwrap().parse().unwrap();
        assert_eq!(
            total as usize, updates,
            "metrics aggregate the session's updates"
        );

        handle.shutdown();
        server_thread.join().unwrap();
        (published, parent_checksum)
    };

    // ---- life 2: restart on the same data dir ----
    let (addr, handle, server_thread) = start_server(ServerConfig::default().with_data_dir(&dir));
    let client = Client::new(addr);
    let info = client.model_info("live").unwrap();
    // The restarted server serves exactly the last published snapshot
    // (equal checksum = bit-identical encoded model), lineage intact.
    assert_eq!(
        info.get("checksum").and_then(Json::as_str),
        Some(published_checksum.as_str()),
        "restart must serve the last published adapted snapshot"
    );
    let lineage = info
        .get("lineage")
        .expect("lineage survives the restart from the store");
    assert_eq!(
        lineage.get("parent_checksum").and_then(Json::as_str),
        Some(parent_checksum.as_str())
    );
    assert!(lineage.get("updates").and_then(Json::as_usize).unwrap() > 0);
    assert_eq!(
        lineage.get("lambda").and_then(Json::as_f64),
        Some(0.1),
        "lineage records the decay λ"
    );

    handle.shutdown();
    server_thread.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_endpoint_is_plain_text_and_counts_errors_too() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let client = Client::new(addr);

    // A 404 and a healthz probe, then scrape.
    assert!(client.model_info("ghost").is_err());
    client.health().unwrap();
    let response = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(response.status, 200);
    let text = response.lines.join("\n");
    assert!(text.contains("s2g_requests_total{route=\"GET /models/{name}\",status=\"404\"} 1"));
    assert!(text.contains("s2g_requests_total{route=\"GET /healthz\",status=\"200\"} 1"));
    assert!(text.contains("s2g_fits_total 0"));
    assert!(text.contains("s2g_scored_series_total 0"));
    assert!(text.contains("s2g_workers"));
    assert!(text.contains("s2g_uptime_seconds"));
    // Wrong method on /metrics is a 405 like every other endpoint.
    let response = client.request("POST", "/metrics", b"").unwrap();
    assert_eq!(response.status, 405);

    handle.shutdown();
    server_thread.join().unwrap();
}
