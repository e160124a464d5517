//! The engine ↔ durable-store boundary.
//!
//! The engine cannot depend on a concrete store implementation (the
//! `s2g-store` crate depends on this crate for the codec), so durability is
//! injected through the [`ModelStorage`] trait: an attached storage backend
//! receives every successful fit (*save-on-fit*), answers registry misses
//! (*load-through*) and mirrors removals (*delete-through*). The `s2g-store`
//! crate provides the production implementation — a directory-backed,
//! crash-safe store that holds no models in memory (the engine's registry
//! is the model cache); tests can plug in anything that satisfies the
//! trait.

use std::sync::Arc;

use s2g_core::{AdaptationLineage, Series2Graph};

use crate::error::Result;

/// Metadata of one persisted model, as reported by [`ModelStorage::list`]
/// and [`ModelStorage::meta`]. Everything here is readable from a model
/// file's header and its config, graph and train sections, without a full
/// decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredModelMeta {
    /// Model name (also the store file stem).
    pub name: String,
    /// `S2GMDL` format version of the file (1, 2 or 3).
    pub version: u32,
    /// Total file length in bytes.
    pub file_len: u64,
    /// The file's trailing FNV-1a checksum — identical to
    /// [`crate::codec::model_checksum`] of the model it encodes (for the
    /// current format version), so stored and in-registry fingerprints are
    /// directly comparable.
    pub checksum: u64,
    /// Pattern length `ℓ` of the stored model.
    pub pattern_length: usize,
    /// Number of nodes in the transition graph.
    pub node_count: usize,
    /// Number of edges in the transition graph.
    pub edge_count: usize,
    /// Length of the series the model was fitted on.
    pub train_len: usize,
}

/// Write-availability mode of a durable store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Normal operation: reads and writes accepted.
    ReadWrite,
    /// Read-only after a persistent disk fault (ENOSPC/EIO): loads and
    /// registered models keep serving, saves and removals answer
    /// [`crate::Error::StoreDegraded`] until the backend's recovery probe
    /// re-arms writes.
    Degraded,
}

impl StoreMode {
    /// Stable lowercase label (`read_write` / `degraded`) for healthz and
    /// metrics surfaces.
    pub fn as_str(self) -> &'static str {
        match self {
            StoreMode::ReadWrite => "read_write",
            StoreMode::Degraded => "degraded",
        }
    }
}

/// A durable model store the [`crate::Engine`] mounts at startup.
///
/// Implementations must be thread-safe: the engine calls these methods
/// concurrently from request handlers.
pub trait ModelStorage: Send + Sync + std::fmt::Debug {
    /// Persists a fitted model under `name`, replacing any previous file
    /// atomically (a crash mid-save must leave the old version intact).
    /// Returns the content checksum of the written encoding (the file
    /// trailer), so callers can register the model without re-encoding it.
    ///
    /// # Errors
    /// Name validation, encoding or filesystem failures.
    fn save(&self, name: &str, model: &Arc<Series2Graph>) -> Result<u64>;

    /// Loads the model stored under `name`, or `Ok(None)` when the store
    /// has no such model.
    ///
    /// # Errors
    /// Filesystem or decode failures for a model that *is* present.
    fn load(&self, name: &str) -> Result<Option<Arc<Series2Graph>>>;

    /// Metadata of the model stored under `name`, without loading any
    /// payload.
    fn meta(&self, name: &str) -> Option<StoredModelMeta>;

    /// Adaptation lineage of the model stored under `name`: `Some` when
    /// the stored file is an adapted snapshot, `None` for a pristine fit,
    /// an unknown name, or a backend that does not track lineage (the
    /// default). Implementations should answer this from the train section
    /// without decoding the whole model.
    fn lineage(&self, name: &str) -> Option<AdaptationLineage> {
        let _ = name;
        None
    }

    /// Deletes the model stored under `name`; `Ok(false)` when it was not
    /// present.
    ///
    /// # Errors
    /// Filesystem failures.
    fn remove(&self, name: &str) -> Result<bool>;

    /// Metadata of every stored model, ordered by name.
    fn list(&self) -> Vec<StoredModelMeta>;

    /// Number of models currently persisted.
    fn stored(&self) -> usize;

    /// Current write-availability mode. Backends without degraded-mode
    /// handling are always [`StoreMode::ReadWrite`] (the default).
    fn mode(&self) -> StoreMode {
        StoreMode::ReadWrite
    }

    /// Cumulative times the backend entered degraded mode. `0` for
    /// backends without degraded-mode handling (the default).
    fn degradations(&self) -> u64 {
        0
    }

    /// Cumulative times the backend's recovery probe re-armed writes.
    /// `0` for backends without degraded-mode handling (the default).
    fn recoveries(&self) -> u64 {
        0
    }
}
