//! Degraded-mode acceptance tests: an injected disk fault (ENOSPC mid-save,
//! EIO on a load) must flip the store read-only without tearing any
//! on-disk state, models the engine has registered must keep scoring
//! bit-identically, and the background probe must re-arm writes once the
//! disk recovers.
//!
//! Failpoint state is process-global, so every test runs under one mutex
//! and disarms everything on entry.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use s2g_core::{S2gConfig, Series2Graph};
use s2g_engine::{codec, Engine, EngineConfig, Error};
use s2g_failpoints::{Action, Settings};
use s2g_store::{ModelStore, StoreMode};
use s2g_timeseries::TimeSeries;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    s2g_failpoints::disarm_all();
    guard
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s2g_degraded_test_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sine(n: usize, period: f64) -> TimeSeries {
    TimeSeries::from(
        (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / period).sin())
            .collect::<Vec<f64>>(),
    )
}

fn fitted(period: f64) -> Arc<Series2Graph> {
    Arc::new(Series2Graph::fit(&sine(2200, period), &S2gConfig::new(40)).unwrap())
}

fn temp_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|name| name.ends_with(".tmp"))
                .collect()
        })
        .unwrap_or_default()
}

fn arm_write_fault() {
    s2g_failpoints::arm("store.write.enospc", Settings::new(Action::Error)).unwrap();
}

fn wait_for_mode(store: &ModelStore, want: StoreMode) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while store.mode() != want {
        assert!(
            Instant::now() < deadline,
            "store never reached {want:?} (still {:?})",
            store.mode()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn enospc_mid_save_degrades_without_torn_state_and_probe_recovers() {
    let _guard = lock();
    let dir = test_dir("enospc_midsave");
    let probe_series = sine(900, 63.0);
    let (alpha, beta) = (fitted(70.0), fitted(55.0));
    let expected_alpha = alpha.anomaly_scores(&probe_series, 150).unwrap();
    let expected_beta = beta.anomaly_scores(&probe_series, 150).unwrap();

    let store = ModelStore::open(&dir).unwrap();
    store.put("alpha", &alpha).unwrap();
    let manifest_before = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();

    // The save of beta hits injected ENOSPC after the payload was written
    // to the temp file: the put must fail with the disk error, leave no
    // temp debris, leave the manifest exactly as it was, and flip the
    // store read-only.
    arm_write_fault();
    match store.put("beta", &beta) {
        Err(Error::Io(e)) => assert_eq!(e.raw_os_error(), Some(28), "expected ENOSPC"),
        other => panic!("expected Err(Io(ENOSPC)), got {other:?}"),
    }
    assert_eq!(store.mode(), StoreMode::Degraded);
    assert_eq!(store.degradations(), 1);
    assert!(temp_files(&dir).is_empty(), "mid-save failure left debris");
    assert_eq!(
        std::fs::read_to_string(dir.join("MANIFEST")).unwrap(),
        manifest_before,
        "failed save must not move the manifest"
    );

    // Degraded contract: further writes are refused with the typed error
    // (no disk I/O attempted), loads keep scoring bit-identically.
    assert!(matches!(
        store.put("beta", &beta),
        Err(Error::StoreDegraded)
    ));
    assert!(matches!(store.remove("alpha"), Err(Error::StoreDegraded)));
    let loaded = store.get("alpha").unwrap();
    let during = loaded.anomaly_scores(&probe_series, 150).unwrap();
    assert_eq!(during, expected_alpha, "degraded scoring diverged");

    // Disarm the fault: the probe re-arms writes, after which the blocked
    // save goes through and a fresh mount reads it back bit-identically.
    s2g_failpoints::disarm_all();
    wait_for_mode(&store, StoreMode::ReadWrite);
    assert_eq!(store.recoveries(), 1);
    store.put("beta", &beta).unwrap();
    drop(store);

    let reopened = ModelStore::open(&dir).unwrap();
    assert!(reopened.unreadable().is_empty());
    assert!(temp_files(&dir).is_empty(), "probe left its file behind");
    let after = reopened
        .get("beta")
        .unwrap()
        .anomaly_scores(&probe_series, 150)
        .unwrap();
    assert_eq!(after, expected_beta, "post-recovery scores diverged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_faults_fail_under_read_fault_but_reads_never_degrade_writes() {
    let _guard = lock();
    let dir = test_dir("read_eio");
    let model = fitted(64.0);
    {
        let store = ModelStore::open(&dir).unwrap();
        store.put("gamma", &model).unwrap();
    }

    // Every get reads the disk, so the first one hits the injected EIO. A
    // read fault must NOT flip degraded mode — only writes do.
    let store = ModelStore::open(&dir).unwrap();
    let mut settings = Settings::new(Action::Error);
    settings.budget = Some(1);
    s2g_failpoints::arm("store.read.eio", settings).unwrap();
    match store.get("gamma") {
        Err(Error::Io(e)) => assert_eq!(e.raw_os_error(), Some(5), "expected EIO"),
        other => panic!("expected Err(Io(EIO)), got {other:?}"),
    }
    assert_eq!(store.mode(), StoreMode::ReadWrite);

    // Budget exhausted: the next get reads the disk normally.
    let loaded = store.get("gamma").unwrap();
    assert_eq!(loaded.node_count(), model.node_count());
    s2g_failpoints::disarm_all();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registered_models_score_through_a_read_fault_and_misses_fail_with_eio() {
    let _guard = lock();
    let dir = test_dir("engine_read_eio");
    let probe_series = sine(900, 63.0);
    let (hot, cold) = (fitted(70.0), fitted(55.0));
    let expected = hot.anomaly_scores(&probe_series, 150).unwrap();
    {
        let store = ModelStore::open(&dir).unwrap();
        store.put("hot", &hot).unwrap();
        store.put("cold", &cold).unwrap();
    }

    // The store caches nothing; the engine's registry is the model cache.
    // Load "hot" through it, then let the disk fail every read.
    let store = Arc::new(ModelStore::open(&dir).unwrap());
    let mut engine = Engine::new(EngineConfig::default().with_workers(2));
    engine.attach_storage(store.clone());
    engine.model_handle("hot").unwrap();
    s2g_failpoints::arm("store.read.eio", Settings::new(Action::Error)).unwrap();

    // A registered model never reaches the disk: it keeps scoring
    // bit-identically.
    for _ in 0..2 {
        let scores = engine
            .score_many("hot", vec![probe_series.clone()], 150)
            .unwrap()
            .pop()
            .unwrap()
            .unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&expected), "registered model diverged");
    }
    // A registry miss loads through the store and gets the EIO, which
    // neither registers anything nor degrades the store.
    match engine.model_handle("cold") {
        Err(Error::Io(e)) => assert_eq!(e.raw_os_error(), Some(5), "expected EIO"),
        other => panic!("expected Err(Io(EIO)), got {other:?}"),
    }
    assert_eq!(engine.registry().len(), 1);
    assert_eq!(store.mode(), StoreMode::ReadWrite);

    // Once the disk reads again, the miss loads.
    s2g_failpoints::disarm_all();
    let loaded = engine.model_handle("cold").unwrap();
    assert_eq!(codec::model_checksum(&loaded), codec::model_checksum(&cold));
    assert_eq!(engine.registry().len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_store_still_serves_cold_loads() {
    let _guard = lock();
    let dir = test_dir("degraded_cold_load");
    let probe_series = sine(800, 59.0);
    let model = fitted(62.0);
    let expected = model.anomaly_scores(&probe_series, 140).unwrap();
    {
        let store = ModelStore::open(&dir).unwrap();
        store.put("delta", &model).unwrap();
    }

    // Degrade a fresh mount via a failed write; serving "delta" then
    // requires a load from disk — which must still work: only *writes*
    // are refused in degraded mode.
    let store = ModelStore::open(&dir).unwrap();
    arm_write_fault();
    assert!(store.put("extra", &fitted(48.0)).is_err());
    assert_eq!(store.mode(), StoreMode::Degraded);
    let scores = store
        .get("delta")
        .unwrap()
        .anomaly_scores(&probe_series, 140)
        .unwrap();
    assert_eq!(scores, expected, "cold load under degraded mode diverged");
    s2g_failpoints::disarm_all();
    wait_for_mode(&store, StoreMode::ReadWrite);
    std::fs::remove_dir_all(&dir).ok();
}
