//! # s2g-store — durable model store
//!
//! The persistence layer under the Series2Graph serving stack: where
//! [`s2g_engine`] keeps fitted models in memory, this crate keeps them in a
//! **directory**, crash-safely, and reads one back whole when the engine
//! asks for it.
//!
//! * [`ModelStore`] — a directory of `S2GMDL` files plus a `MANIFEST` for
//!   O(1) startup listing. Writes are atomic (temp file + fsync + rename +
//!   directory fsync); a crash at any instant leaves the previous version
//!   intact, and leftover temp files are ignored on startup.
//! * **No second cache** — [`ModelStore::get`] reads and decodes the whole
//!   file (see [`s2g_engine::codec`]) and keeps nothing; the engine's
//!   registry, bounded by its capacity, is the only model cache. Metadata
//!   reads ([`ModelStore::lineage`]) use the section index to read one
//!   section.
//! * **Engine mount** — [`ModelStore`] implements
//!   [`s2g_engine::ModelStorage`], so an [`s2g_engine::Engine`] (and the
//!   `s2g serve --data-dir` server above it) gets save-on-fit,
//!   load-through and delete-through by attaching the store at startup.
//! * **Operations** — [`ModelStore::verify`] (full checksums),
//!   [`ModelStore::gc`] (reap crash debris), [`ModelStore::migrate`]
//!   (rewrite legacy v1 and v2 files in the current format), surfaced as
//!   the `s2g store {ls,verify,gc,migrate}` subcommands.
//!
//! The on-disk contract is specified in `docs/STORAGE.md`.
//!
//! ## Example: survive a restart without refitting
//!
//! ```
//! use std::sync::Arc;
//! use s2g_core::{S2gConfig, Series2Graph};
//! use s2g_store::ModelStore;
//! use s2g_timeseries::TimeSeries;
//!
//! let dir = std::env::temp_dir().join(format!("s2g_store_doc_{}", std::process::id()));
//! let series = TimeSeries::from(
//!     (0..1500)
//!         .map(|i| (std::f64::consts::TAU * i as f64 / 75.0).sin())
//!         .collect::<Vec<f64>>(),
//! );
//! let model = Arc::new(Series2Graph::fit(&series, &S2gConfig::new(25)).unwrap());
//! let expected = model.anomaly_scores(&series, 100).unwrap();
//!
//! // First process: persist on fit.
//! let store = ModelStore::open(&dir).unwrap();
//! store.put("line-7", &model).unwrap();
//! drop(store);
//!
//! // Second process: mount the same directory; the model is listed from
//! // the manifest and read back on first use.
//! let store = ModelStore::open(&dir).unwrap();
//! assert_eq!(store.list()[0].name, "line-7");
//! let restored = store.get("line-7").unwrap();
//! let scores = restored.anomaly_scores(&series, 100).unwrap();
//! assert!(expected.iter().zip(&scores).all(|(a, b)| a.to_bits() == b.to_bits()));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod store;

pub use store::{GcReport, MigrateReport, ModelStore, VerifyReport};

// Re-exported so store embedders see the trait the engine mounts it by.
pub use s2g_engine::storage::{ModelStorage, StoreMode, StoredModelMeta};
