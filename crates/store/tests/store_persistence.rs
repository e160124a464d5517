//! Acceptance tests for the durable model store: restart durability,
//! whole-file loads that keep nothing cached, adoption and migration of
//! the files older builds wrote, and crash safety around the atomic write
//! protocol.

use std::path::PathBuf;
use std::sync::Arc;

use s2g_core::embedding::Embedding;
use s2g_core::{AdaptationLineage, S2gConfig, Series2Graph};
use s2g_engine::codec;
use s2g_store::ModelStore;
use s2g_timeseries::TimeSeries;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s2g_store_test_{}_{name}", std::process::id()));
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

/// The fitted embedding of [`fitted`]`(period)`: its `points` are the
/// training trajectory older builds stored in every model file.
fn embedding(period: f64) -> Embedding {
    Embedding::fit(&sine(2200, period), &S2gConfig::new(40)).unwrap()
}

fn assert_bit_identical(expected: &[f64], got: &[f64], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: length mismatch");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        assert_eq!(e.to_bits(), g.to_bits(), "{what}: score {i} differs");
    }
}

#[test]
fn reopen_lists_from_manifest_and_scores_bit_identically() {
    let dir = test_dir("reopen");
    let probe = sine(900, 63.0);
    let (a, b) = (fitted(70.0), fitted(55.0));
    let expected_a = a.anomaly_scores(&probe, 150).unwrap();
    let expected_b = b.anomaly_scores(&probe, 150).unwrap();

    {
        let store = ModelStore::open(&dir).unwrap();
        let meta = store.put("alpha", &a).unwrap();
        assert_eq!(meta.checksum, codec::model_checksum(&a));
        store.put("beta", &b).unwrap();
        assert_eq!(store.len(), 2);
    }

    // A fresh mount of the same directory: listing comes from the
    // manifest (no file reads), scores after the load are bit-identical,
    // and checksums prove it is the same encoded model.
    let store = ModelStore::open(&dir).unwrap();
    assert!(store.unreadable().is_empty());
    let names: Vec<String> = store.list().into_iter().map(|m| m.name).collect();
    assert_eq!(names, vec!["alpha".to_string(), "beta".to_string()]);
    assert_eq!(
        store.meta("alpha").unwrap().checksum,
        codec::model_checksum(&a)
    );
    let got_a = store
        .get("alpha")
        .unwrap()
        .anomaly_scores(&probe, 150)
        .unwrap();
    let got_b = store
        .get("beta")
        .unwrap()
        .anomaly_scores(&probe, 150)
        .unwrap();
    assert_bit_identical(&expected_a, &got_a, "alpha after restart");
    assert_bit_identical(&expected_b, &got_b, "beta after restart");
    assert!(store.verify().unwrap().failed.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_get_reads_the_file_and_scores_bit_identically() {
    let dir = test_dir("cold_gets");
    let probe = sine(800, 64.0);
    let models = [fitted(80.0), fitted(66.0), fitted(52.0)];
    let expected: Vec<Vec<f64>> = models
        .iter()
        .map(|m| m.anomaly_scores(&probe, 150).unwrap())
        .collect();
    {
        let store = ModelStore::open(&dir).unwrap();
        for (i, model) in models.iter().enumerate() {
            store.put(&format!("m{i}"), model).unwrap();
        }
    }

    // The store caches nothing: every get is a fresh whole-file load, and
    // each one scores bit-identically.
    let store = ModelStore::open(&dir).unwrap();
    for round in 0..2 {
        for (i, expected) in expected.iter().enumerate() {
            let name = format!("m{i}");
            let first = store.get(&name).unwrap();
            let second = store.get(&name).unwrap();
            assert!(!Arc::ptr_eq(&first, &second), "the store kept {name}");
            for model in [first, second] {
                let got = model.anomaly_scores(&probe, 150).unwrap();
                assert_bit_identical(expected, &got, &format!("{name} round {round}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One model as an older build left it: the in-memory model and the
/// legacy file bytes it wrote.
struct LegacyFile {
    name: &'static str,
    model: Arc<Series2Graph>,
    bytes: Vec<u8>,
}

#[test]
fn v1_files_are_adopted_and_migrated_bit_identically() {
    let dir = test_dir("migrate");
    std::fs::create_dir_all(&dir).unwrap();
    let probe = sine(700, 72.0);

    // What an older build leaves behind: a v1 file, a v2 fit, a v2 adapted
    // snapshot and a 10-column version-1 manifest listing them.
    let snapshot = {
        let mut snapshot = (*fitted(61.0)).clone();
        snapshot.reweight_transition(0, 0, 0.25).unwrap();
        snapshot.set_lineage(Some(AdaptationLineage {
            parent_checksum: 0x1234_5678_9abc_def0,
            update_count: 7,
            decay_lambda: 0.25,
        }));
        Arc::new(snapshot)
    };
    let legacy = [
        LegacyFile {
            name: "legacy",
            model: fitted(72.0),
            bytes: codec::encode_legacy_model(&fitted(72.0), &embedding(72.0).points, 1),
        },
        LegacyFile {
            name: "fit",
            model: fitted(55.0),
            bytes: codec::encode_legacy_model(&fitted(55.0), &embedding(55.0).points, 2),
        },
        LegacyFile {
            name: "snapshot",
            bytes: codec::encode_legacy_model(&snapshot, &embedding(61.0).points, 2),
            model: snapshot,
        },
    ];
    let mut manifest = String::from("s2g-store-manifest 1\n");
    for file in &legacy {
        std::fs::write(dir.join(format!("{}.s2g", file.name)), &file.bytes).unwrap();
        let points = 2200 - 40 + 1;
        manifest.push_str(&format!(
            "{}\t{}\t{}\t{:016x}\t40\t{}\t{}\t2200\t{points}\t{}\n",
            file.name,
            file.bytes[8],
            file.bytes.len(),
            codec::checksum_trailer(&file.bytes),
            file.model.node_count(),
            file.model.graph().edge_count(),
            8 + 16 * points,
        ));
    }
    std::fs::write(dir.join("MANIFEST"), manifest).unwrap();
    let expected: Vec<Vec<f64>> = legacy
        .iter()
        .map(|file| file.model.anomaly_scores(&probe, 120).unwrap())
        .collect();
    let lineage = legacy[2].model.lineage().copied();

    // Adoption: the older manifest is rescanned, nothing is quarantined,
    // every file reads bit-identically and keeps its version and trailer.
    let store = ModelStore::open(&dir).unwrap();
    assert!(store.unreadable().is_empty(), "{:?}", store.unreadable());
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    assert!(manifest.starts_with("s2g-store-manifest 2\n"), "{manifest}");
    for (file, expected) in legacy.iter().zip(&expected) {
        let meta = store.meta(file.name).unwrap();
        assert_eq!(meta.version, u32::from(file.bytes[8]));
        assert_eq!(meta.checksum, codec::checksum_trailer(&file.bytes));
        assert_eq!(meta.file_len, file.bytes.len() as u64);
        let got = store.get(file.name).unwrap();
        assert_bit_identical(
            expected,
            &got.anomaly_scores(&probe, 120).unwrap(),
            &format!("adopted {}", file.name),
        );
        assert_eq!(
            codec::model_checksum(&got),
            codec::model_checksum(&file.model)
        );
    }
    assert_eq!(store.lineage("snapshot"), lineage);
    assert!(store.lineage("fit").is_none());

    // Migration rewrites v1 and v2 files in the current format, atomically;
    // a file already current is counted and left alone.
    store.put("fresh", &fitted(48.0)).unwrap();
    let report = store.migrate().unwrap();
    assert_eq!(
        report.migrated,
        vec![
            "fit".to_string(),
            "legacy".to_string(),
            "snapshot".to_string()
        ]
    );
    assert_eq!(report.already_current, 1);
    for file in &legacy {
        let meta = store.meta(file.name).unwrap();
        assert_eq!(meta.version, codec::FORMAT_VERSION);
        assert!(
            meta.file_len < file.bytes.len() as u64,
            "{} did not shrink",
            file.name
        );
        assert_eq!(
            meta.checksum,
            codec::model_checksum(&file.model),
            "migrated trailer equals the canonical checksum"
        );
    }
    let second = store.migrate().unwrap();
    assert!(second.migrated.is_empty());
    assert_eq!(second.already_current, 4);

    // Across a restart the migrated files still score bit-identically, and
    // the snapshot keeps its lineage.
    let store = ModelStore::open(&dir).unwrap();
    for (file, expected) in legacy.iter().zip(&expected) {
        assert_eq!(
            store.meta(file.name).unwrap().version,
            codec::FORMAT_VERSION
        );
        let got = store
            .get(file.name)
            .unwrap()
            .anomaly_scores(&probe, 120)
            .unwrap();
        assert_bit_identical(expected, &got, &format!("migrated {}", file.name));
    }
    assert_eq!(store.lineage("snapshot"), lineage);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn temp_and_unreadable_files_are_ignored_on_startup() {
    let dir = test_dir("debris");
    let model = fitted(77.0);
    {
        let store = ModelStore::open(&dir).unwrap();
        store.put("good", &model).unwrap();
    }
    // Crash debris: a partial temp file and a truncated model file.
    std::fs::write(dir.join("good.s2g.123-0.tmp"), b"partial write").unwrap();
    std::fs::write(dir.join("other.s2g.99-1.tmp"), b"").unwrap();
    let bytes = codec::encode_model(&model);
    std::fs::write(dir.join("broken.s2g"), &bytes[..bytes.len() / 2]).unwrap();

    let store = ModelStore::open(&dir).unwrap();
    assert_eq!(store.len(), 1, "only the intact model is served");
    let unreadable = store.unreadable();
    assert_eq!(unreadable.len(), 1);
    assert_eq!(unreadable[0].0, "broken.s2g");
    let verify = store.verify().unwrap();
    assert_eq!(verify.ok, vec!["good".to_string()]);
    assert_eq!(verify.failed.len(), 1);

    // gc reaps the temp files but never deletes quarantined models.
    let report = store.gc().unwrap();
    assert_eq!(
        report.removed_temp_files,
        vec![
            "good.s2g.123-0.tmp".to_string(),
            "other.s2g.99-1.tmp".to_string()
        ]
    );
    assert!(dir.join("broken.s2g").exists());
    assert!(!dir.join("good.s2g.123-0.tmp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_between_write_and_rename_leaves_the_old_model_intact() {
    let dir = test_dir("crash");
    let (old, new) = (fitted(90.0), fitted(45.0));
    let probe = sine(600, 90.0);
    let expected = old.anomaly_scores(&probe, 120).unwrap();
    {
        let store = ModelStore::open(&dir).unwrap();
        store.put("m", &old).unwrap();
    }
    // A re-put that died after writing its temp file but before the
    // rename: the temp content is a complete, valid model — only the
    // rename publishes it, so it must NOT replace the old version.
    std::fs::write(dir.join("m.s2g.777-3.tmp"), codec::encode_model(&new)).unwrap();

    let store = ModelStore::open(&dir).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(
        store.meta("m").unwrap().checksum,
        codec::model_checksum(&old),
        "the published version is still the old model"
    );
    let got = store.get("m").unwrap().anomaly_scores(&probe, 120).unwrap();
    assert_bit_identical(&expected, &got, "old model after crashed replace");
    store.gc().unwrap();
    assert!(!dir.join("m.s2g.777-3.tmp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_refits_and_cold_faults_never_report_spurious_corruption() {
    let dir = test_dir("race");
    let (a, b) = (fitted(70.0), fitted(55.0));
    // The store caches nothing, so every get is a cold load hitting the
    // disk — racing the writer's atomic replaces of the same files.
    let store = Arc::new(ModelStore::open(&dir).unwrap());
    store.put("m0", &a).unwrap();
    store.put("m1", &a).unwrap();

    let writer = {
        let store = Arc::clone(&store);
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            for i in 0..25 {
                let model = if i % 2 == 0 { &b } else { &a };
                store.put("m0", model).unwrap();
                store.put("m1", model).unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..60 {
                    // A load racing a replace reads one whole file, old or
                    // new, never a spurious checksum error.
                    let model = store.get(if i % 2 == 0 { "m0" } else { "m1" }).unwrap();
                    assert!(model.node_count() > 0);
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for reader in readers {
        reader.join().unwrap();
    }
    // Quiesced: both names decode cleanly and equal the final write
    // (the writer's last iteration, i = 24, wrote model `b`).
    assert_eq!(
        store.meta("m0").unwrap().checksum,
        codec::model_checksum(&b)
    );
    assert_eq!(
        store.meta("m1").unwrap().checksum,
        codec::model_checksum(&b)
    );
    assert!(store.verify().unwrap().failed.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remove_deletes_file_and_survives_restart() {
    let dir = test_dir("remove");
    let model = fitted(58.0);
    let store = ModelStore::open(&dir).unwrap();
    store.put("gone", &model).unwrap();
    store.put("kept", &model).unwrap();
    assert!(store.remove("gone").unwrap());
    assert!(!store.remove("gone").unwrap());
    assert!(!dir.join("gone.s2g").exists());
    drop(store);

    let store = ModelStore::open(&dir).unwrap();
    let names: Vec<String> = store.list().into_iter().map(|m| m.name).collect();
    assert_eq!(names, vec!["kept".to_string()]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_manifest_degrades_to_a_rescan() {
    let dir = test_dir("manifest");
    let model = fitted(61.0);
    {
        let store = ModelStore::open(&dir).unwrap();
        store.put("m", &model).unwrap();
    }
    std::fs::write(dir.join("MANIFEST"), "not a manifest at all\n").unwrap();
    let store = ModelStore::open(&dir).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(
        store.meta("m").unwrap().checksum,
        codec::model_checksum(&model)
    );
    // The manifest was re-sealed at open.
    let text = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    assert!(text.starts_with("s2g-store-manifest"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn adapted_snapshot_round_trips_with_lineage_and_equal_checksum() {
    let dir = test_dir("adapted_lineage");
    let parent = fitted(70.0);
    let parent_checksum = codec::model_checksum(&parent);

    // An adapted snapshot: same structure, lineage stamped (as the
    // adaptation layer publishes them).
    let mut snapshot = (*parent).clone();
    snapshot
        .reweight_transition(0, 0, 0.0)
        .expect("λ=0 reweight is a no-op sanity call");
    snapshot.set_lineage(Some(s2g_core::AdaptationLineage {
        parent_checksum,
        update_count: 1234,
        decay_lambda: 0.0625,
    }));
    let snapshot = Arc::new(snapshot);
    let snapshot_checksum = codec::model_checksum(&snapshot);
    assert_ne!(snapshot_checksum, parent_checksum);

    {
        let store = ModelStore::open(&dir).unwrap();
        let meta = store.put("live", &snapshot).unwrap();
        assert_eq!(meta.checksum, snapshot_checksum);
        // Lineage is a metadata read of the train section.
        let lineage = store.lineage("live").unwrap();
        assert_eq!(lineage.parent_checksum, parent_checksum);
        assert_eq!(lineage.update_count, 1234);
        assert_eq!(lineage.decay_lambda.to_bits(), 0.0625f64.to_bits());
        // A pristine fit alongside it reports no lineage.
        store.put("pristine", &parent).unwrap();
        assert!(store.lineage("pristine").is_none());
        assert!(store.lineage("missing").is_none());
    }

    // Restart: the snapshot reloads with lineage intact and the *same*
    // checksum — the round trip is bit-exact.
    let store = ModelStore::open(&dir).unwrap();
    assert_eq!(store.meta("live").unwrap().checksum, snapshot_checksum);
    let lineage = store.lineage("live").expect("lineage survives restart");
    assert_eq!(lineage.parent_checksum, parent_checksum);
    assert_eq!(lineage.update_count, 1234);
    assert_eq!(lineage.decay_lambda.to_bits(), 0.0625f64.to_bits());
    let reloaded = store.get("live").unwrap();
    assert_eq!(codec::model_checksum(&reloaded), snapshot_checksum);
    assert_eq!(reloaded.lineage().copied(), Some(lineage));
    std::fs::remove_dir_all(&dir).ok();
}
