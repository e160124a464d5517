//! The directory-backed, crash-safe model store.
//!
//! One [`ModelStore`] owns one directory of `S2GMDL` model files plus a
//! [`MANIFEST`](crate::manifest) listing. Three disciplines make it safe
//! to mount under a serving process:
//!
//! * **Atomic writes** — every file (model or manifest) is written to a
//!   `*.tmp` sibling, fsync'd, then renamed over the target, and the
//!   directory is fsync'd after the rename. A crash at any instant leaves
//!   either the old file or the new one, never a torn mix; leftover temp
//!   files are ignored on startup and reaped by [`ModelStore::gc`].
//! * **No model cache** — opening the store reads only metadata, and
//!   [`ModelStore::get`] is one whole-file read plus
//!   [`codec::decode_model`]: the store keeps no model in memory. The
//!   engine's registry above it (bounded by `serve --registry-capacity`)
//!   is the one model cache.
//! * **Self-healing startup** — the manifest is trusted only where it
//!   matches the files on disk; everything else is re-derived from the
//!   files themselves, unreadable files are quarantined (reported, never
//!   deleted), and the manifest is rewritten to match reality.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use s2g_core::{AdaptationLineage, Series2Graph};
use s2g_engine::codec::{self, SectionIndex, SectionKind};
use s2g_engine::error::{Error, Result};
use s2g_engine::storage::{ModelStorage, StoreMode, StoredModelMeta};
use s2g_engine::validate_model_name;
use s2g_obs::Obs;

use crate::manifest::{self, MANIFEST_FILE};

/// File extension of model files inside a store directory.
pub const MODEL_EXT: &str = "s2g";

/// File extension of in-flight temp files (ignored on startup, removed by
/// [`ModelStore::gc`]).
pub const TEMP_EXT: &str = "tmp";

/// Monotonic nonce distinguishing concurrent temp files of one process.
static TEMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// How often the recovery probe re-tests the disk while degraded.
const PROBE_INTERVAL: Duration = Duration::from_millis(100);

/// `true` for the I/O errors that flip the store into degraded mode: the
/// disk itself refused the write (full or failing), as opposed to a bad
/// path or permissions, which retrying will not fix either but which are
/// operator errors rather than a dying disk.
fn is_disk_fault(e: &std::io::Error) -> bool {
    matches!(e.raw_os_error(), Some(28) | Some(5)) // ENOSPC, EIO
}

/// Disk-health state shared between the store and its background recovery
/// probe. Lives in its own `Arc` so the probe thread needs no reference to
/// the store itself (and thus cannot keep entries alive).
struct DiskHealth {
    dir: PathBuf,
    /// `true` while writes are refused ([`StoreMode::Degraded`]).
    degraded: AtomicBool,
    /// Guards against spawning more than one probe thread.
    probe_running: AtomicBool,
    /// Set when the owning store drops, so the probe exits instead of
    /// retrying forever against a directory nobody serves from anymore.
    closed: AtomicBool,
    /// Cumulative entries into degraded mode.
    degradations: AtomicU64,
    /// Cumulative successful probe recoveries.
    recoveries: AtomicU64,
}

impl DiskHealth {
    fn new(dir: PathBuf) -> Arc<DiskHealth> {
        Arc::new(DiskHealth {
            dir,
            degraded: AtomicBool::new(false),
            probe_running: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            degradations: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        })
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Flips into degraded mode (idempotent) and ensures exactly one
    /// recovery probe is running.
    fn degrade(self: &Arc<Self>) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            self.degradations.fetch_add(1, Ordering::Relaxed);
        }
        if !self.probe_running.swap(true, Ordering::SeqCst) {
            let health = Arc::clone(self);
            // Spawn failure leaves probe_running=true with no probe — the
            // store would stay degraded forever — so undo the claim.
            if std::thread::Builder::new()
                .name("s2g-store-probe".into())
                .spawn(move || health.probe_loop())
                .is_err()
            {
                self.probe_running.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Retries a small probe write until it succeeds (re-arming writes) or
    /// the store is dropped. The probe passes through the
    /// `store.write.enospc` failpoint, so an injected disk fault holds the
    /// store degraded exactly until the failpoint is disarmed — the same
    /// contract as a real disk staying full.
    fn probe_loop(&self) {
        while !self.closed.load(Ordering::SeqCst) {
            std::thread::sleep(PROBE_INTERVAL);
            if self.probe_once().is_ok() {
                self.degraded.store(false, Ordering::SeqCst);
                self.recoveries.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        self.probe_running.store(false, Ordering::SeqCst);
    }

    /// One full write-fsync-delete round trip on a `*.tmp` sibling (so a
    /// probe file that survives a crash is ordinary temp debris for
    /// [`ModelStore::gc`]).
    fn probe_once(&self) -> std::io::Result<()> {
        if let Some(e) = s2g_failpoints::hit("store.write.enospc") {
            return Err(e);
        }
        let path = self
            .dir
            .join(format!(".probe-{}.{TEMP_EXT}", std::process::id()));
        let mut file = File::create(&path)?;
        file.write_all(b"s2g disk probe")?;
        file.sync_all()?;
        drop(file);
        fs::remove_file(&path)?;
        Ok(())
    }
}

struct Inner {
    entries: BTreeMap<String, StoredModelMeta>,
    /// Files in the directory that failed validation at open
    /// (quarantined: listed, never deleted).
    unreadable: Vec<(String, String)>,
}

/// A directory-backed, crash-safe store of fitted models. See the
/// [module docs](self) for the guarantees.
pub struct ModelStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    /// Late-bound observability hook: once attached, loads and writes
    /// record their latency histograms. Never affects store behaviour.
    obs: OnceLock<Arc<Obs>>,
    /// Degraded-mode state, shared with the background recovery probe.
    health: Arc<DiskHealth>,
}

/// Outcome of [`ModelStore::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Models whose files decoded fully with matching checksums.
    pub ok: Vec<String>,
    /// `(file, error)` pairs for everything that failed.
    pub failed: Vec<(String, String)>,
}

/// Outcome of [`ModelStore::gc`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Temp files that were deleted.
    pub removed_temp_files: Vec<String>,
    /// Quarantined files left in place (`(file, error)`).
    pub unreadable: Vec<(String, String)>,
}

/// Outcome of [`ModelStore::migrate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrateReport {
    /// Models rewritten from a legacy format (v1 or v2) to the current
    /// one.
    pub migrated: Vec<String>,
    /// Models already stored in the current format.
    pub already_current: usize,
}

impl ModelStore {
    /// Opens (creating if needed) the store at `dir`: loads the manifest,
    /// reconciles it against the files actually present, quarantines
    /// unreadable files and ignores `*.tmp` leftovers. No model file is
    /// read for files the manifest already describes accurately.
    ///
    /// # Errors
    /// Filesystem errors on the directory itself; individual bad model
    /// files never fail the open (see [`ModelStore::unreadable`]).
    pub fn open(dir: impl Into<PathBuf>) -> Result<ModelStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        let manifest_entries: BTreeMap<String, StoredModelMeta> =
            match fs::read_to_string(dir.join(MANIFEST_FILE)) {
                Ok(text) => manifest::decode(&text)
                    .map(|entries| entries.into_iter().map(|m| (m.name.clone(), m)).collect())
                    .unwrap_or_default(),
                Err(_) => BTreeMap::new(),
            };

        let mut entries = BTreeMap::new();
        let mut unreadable = Vec::new();
        for dirent in fs::read_dir(&dir)? {
            let path = dirent?.path();
            let (Some(stem), Some(ext)) = (
                path.file_stem().and_then(|s| s.to_str()),
                path.extension().and_then(|s| s.to_str()),
            ) else {
                continue;
            };
            if ext != MODEL_EXT {
                continue; // manifest, temp files, foreign files
            }
            let file_name = path
                .file_name()
                .and_then(|s| s.to_str())
                .unwrap_or(stem)
                .to_string();
            if let Err(e) = validate_model_name(stem) {
                unreadable.push((file_name, e.to_string()));
                continue;
            }
            let file_len = match fs::metadata(&path) {
                Ok(meta) => meta.len(),
                Err(e) => {
                    unreadable.push((file_name, e.to_string()));
                    continue;
                }
            };
            let meta = match manifest_entries.get(stem) {
                // The manifest line matches the file on disk: trust it and
                // skip the file read — this is the O(1)-per-model path.
                Some(meta) if meta.file_len == file_len => meta.clone(),
                _ => match derive_meta(&path, stem) {
                    Ok(meta) => meta,
                    Err(e) => {
                        unreadable.push((file_name, e.to_string()));
                        continue;
                    }
                },
            };
            entries.insert(stem.to_string(), meta);
        }

        let health = DiskHealth::new(dir.clone());
        let store = ModelStore {
            dir,
            inner: Mutex::new(Inner {
                entries,
                unreadable,
            }),
            obs: OnceLock::new(),
            health,
        };
        // Re-seal the manifest so the next open trusts every line — but
        // only when reconciliation actually changed something, and only
        // best-effort: the manifest is a cache, and read-only inspection
        // (`store ls` / `verify` on a directory the operator cannot write)
        // must still work.
        let metas = collect_metas(&store.lock());
        let manifest_was: Vec<StoredModelMeta> = manifest_entries.into_values().collect();
        if metas != manifest_was {
            let _ = store.write_manifest(&metas);
        }
        Ok(store)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attaches the observability registry: from here on, loads record
    /// `store_fault` latency and writes `store_write` latency. Idempotent
    /// (the first attach wins); never changes store behaviour.
    pub fn attach_obs(&self, obs: Arc<Obs>) {
        let _ = self.obs.set(obs);
    }

    /// Current write-availability mode: [`StoreMode::Degraded`] after a
    /// persistent disk fault (writes refused, reads keep serving),
    /// [`StoreMode::ReadWrite`] otherwise. The background
    /// probe flips the mode back once the disk accepts writes again.
    pub fn mode(&self) -> StoreMode {
        if self.health.is_degraded() {
            StoreMode::Degraded
        } else {
            StoreMode::ReadWrite
        }
    }

    /// Cumulative times this store entered degraded mode.
    pub fn degradations(&self) -> u64 {
        self.health.degradations.load(Ordering::Relaxed)
    }

    /// Cumulative times the recovery probe re-armed writes.
    pub fn recoveries(&self) -> u64 {
        self.health.recoveries.load(Ordering::Relaxed)
    }

    fn model_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{MODEL_EXT}"))
    }

    fn temp_path(&self, target: &str) -> PathBuf {
        let nonce = TEMP_NONCE.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!(
            "{target}.{}-{nonce}.{TEMP_EXT}",
            std::process::id()
        ))
    }

    /// Writes `bytes` to `final_name` inside the store directory via the
    /// atomic temp + fsync + rename + dir-fsync sequence. This is the
    /// single chokepoint every store write funnels through, so it is also
    /// where a disk fault (ENOSPC/EIO, real or injected through the
    /// `store.write.enospc` failpoint) flips the store into degraded mode.
    fn atomic_write(&self, final_name: &str, bytes: &[u8]) -> Result<()> {
        let result = self.atomic_write_inner(final_name, bytes);
        if let Err(Error::Io(e)) = &result {
            if is_disk_fault(e) {
                self.health.degrade();
            }
        }
        result
    }

    fn atomic_write_inner(&self, final_name: &str, bytes: &[u8]) -> Result<()> {
        let temp = self.temp_path(final_name);
        let write = (|| -> Result<()> {
            let mut file = File::create(&temp)?;
            file.write_all(bytes)?;
            // Mid-save, after the payload landed in the temp file but
            // before it is durable — the worst instant for a disk to die,
            // and exactly what the cleanup below must survive.
            if let Some(e) = s2g_failpoints::hit("store.write.enospc") {
                return Err(e.into());
            }
            file.sync_all()?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = fs::remove_file(&temp);
            return Err(e);
        }
        if let Err(e) = fs::rename(&temp, self.dir.join(final_name)) {
            let _ = fs::remove_file(&temp);
            return Err(e.into());
        }
        sync_dir(&self.dir)
    }

    fn write_manifest(&self, metas: &[StoredModelMeta]) -> Result<()> {
        self.atomic_write(MANIFEST_FILE, manifest::encode(metas).as_bytes())
    }

    /// Persists a fitted model under `name`, replacing any previous version
    /// atomically. Returns the stored metadata, whose `checksum` is the
    /// file trailer (identical to [`codec::model_checksum`]).
    ///
    /// # Errors
    /// [`Error::InvalidName`] for names unusable as file names;
    /// [`Error::StoreDegraded`] while the store is in read-only degraded
    /// mode; filesystem errors otherwise (the previous version, if any, is
    /// untouched on failure).
    pub fn put(&self, name: &str, model: &Series2Graph) -> Result<StoredModelMeta> {
        validate_model_name(name)?;
        if self.health.is_degraded() {
            return Err(Error::StoreDegraded);
        }
        let write_started = Instant::now();
        let bytes = codec::encode_model(model);
        let meta = meta_of(name, &bytes, model);
        self.atomic_write(&format!("{name}.{MODEL_EXT}"), &bytes)?;
        // Write latency covers encode + the crash-safe file write; the
        // manifest rewrite below is shared bookkeeping, not this model's
        // payload cost.
        if let Some(obs) = self.obs.get() {
            obs.store_write.record_duration(write_started.elapsed());
        }

        let mut inner = self.lock();
        inner.entries.insert(name.to_string(), meta.clone());
        let metas = collect_metas(&inner);
        drop(inner);
        self.write_manifest(&metas)?;
        Ok(meta)
    }

    /// The model stored under `name`: one whole-file read plus
    /// [`codec::decode_model`], which verifies the file's checksum. The
    /// store keeps nothing in memory, so every call reads the disk; the
    /// engine registers what it loads, and its registry is the cache.
    ///
    /// A concurrent [`ModelStore::put`] of the same name cannot tear the
    /// read: one open file handle sees one consistent file, the previous
    /// version or its replacement.
    ///
    /// # Errors
    /// [`Error::UnknownModel`] when the store has no such model; I/O or
    /// decode errors when its file went bad since open.
    pub fn get(&self, name: &str) -> Result<Arc<Series2Graph>> {
        if !self.lock().entries.contains_key(name) {
            return Err(Error::UnknownModel(name.to_string()));
        }
        // A dying disk fails every load; models already registered with
        // the engine never come back here, so they keep serving.
        if let Some(e) = s2g_failpoints::hit("store.read.eio") {
            return Err(e.into());
        }
        let load_started = Instant::now();
        let model = codec::load_model(self.model_path(name))?;
        if let Some(obs) = self.obs.get() {
            obs.store_fault.record_duration(load_started.elapsed());
        }
        Ok(Arc::new(model))
    }

    /// Deletes the model stored under `name` (file and manifest line).
    /// `Ok(false)` when it was not present.
    ///
    /// # Errors
    /// [`Error::StoreDegraded`] while the store is in read-only degraded
    /// mode; filesystem failures otherwise.
    pub fn remove(&self, name: &str) -> Result<bool> {
        if self.health.is_degraded() {
            return Err(Error::StoreDegraded);
        }
        let mut inner = self.lock();
        if inner.entries.remove(name).is_none() {
            return Ok(false);
        }
        let metas = collect_metas(&inner);
        drop(inner);
        match fs::remove_file(self.model_path(name)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        sync_dir(&self.dir)?;
        self.write_manifest(&metas)?;
        Ok(true)
    }

    /// Metadata of the model stored under `name`, if any — header data
    /// only, no payload read.
    pub fn meta(&self, name: &str) -> Option<StoredModelMeta> {
        self.lock().entries.get(name).cloned()
    }

    /// Adaptation lineage of the stored model under `name`: `Some` for an
    /// adapted snapshot, `None` for a pristine fit or unknown name.
    /// A metadata read: the file's header, then its train section alone,
    /// verified by the section's own checksum.
    ///
    /// Adopted **v1** files always answer `None`: they have no section
    /// index, and surfacing a hand-placed v1 adapted file's lineage would
    /// cost a whole-file decode per metadata read. Run
    /// [`ModelStore::migrate`] to rewrite such files in the current
    /// format, after which their lineage (if any) is visible here.
    pub fn lineage(&self, name: &str) -> Option<AdaptationLineage> {
        self.lock().entries.get(name)?;
        let mut file = File::open(self.model_path(name)).ok()?;
        // A v1 file reads as `None` here: it has no index.
        let index = read_index(&mut file).ok()??;
        let train = read_section(&mut file, &index, SectionKind::Train).ok()?;
        codec::peek_train_lineage(&train).ok().flatten()
    }

    /// Metadata of every stored model, ordered by name.
    pub fn list(&self) -> Vec<StoredModelMeta> {
        collect_metas(&self.lock())
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when the store holds no models.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Files quarantined at open: present in the directory but unreadable
    /// as models (`(file, error)`). They are never deleted automatically.
    pub fn unreadable(&self) -> Vec<(String, String)> {
        self.lock().unreadable.clone()
    }

    /// Fully verifies every stored file: reads it whole, checks the
    /// trailing checksum and decodes every section. Quarantined files are
    /// reported as failures.
    ///
    /// # Errors
    /// Never fails as a whole; per-file problems land in
    /// [`VerifyReport::failed`].
    pub fn verify(&self) -> Result<VerifyReport> {
        let (names, mut failed) = {
            let inner = self.lock();
            (
                inner.entries.keys().cloned().collect::<Vec<_>>(),
                inner.unreadable.clone(),
            )
        };
        let mut ok = Vec::new();
        for name in names {
            match codec::load_model(self.model_path(&name)) {
                Ok(_) => ok.push(name),
                Err(e) => failed.push((format!("{name}.{MODEL_EXT}"), e.to_string())),
            }
        }
        Ok(VerifyReport { ok, failed })
    }

    /// Removes leftover `*.tmp` files (crash debris) and reports — without
    /// deleting — any quarantined model files.
    ///
    /// # Errors
    /// Filesystem failures while scanning or deleting.
    pub fn gc(&self) -> Result<GcReport> {
        let mut removed = Vec::new();
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            if path.extension().and_then(|s| s.to_str()) == Some(TEMP_EXT) {
                fs::remove_file(&path)?;
                if let Some(file) = path.file_name().and_then(|s| s.to_str()) {
                    removed.push(file.to_string());
                }
            }
        }
        if !removed.is_empty() {
            sync_dir(&self.dir)?;
        }
        removed.sort();
        Ok(GcReport {
            removed_temp_files: removed,
            unreadable: self.lock().unreadable.clone(),
        })
    }

    /// Rewrites every legacy (v1 or v2) file in the current format,
    /// atomically, leaving scores bit-identical. Already-current files are
    /// untouched.
    ///
    /// # Errors
    /// Decode or filesystem failures (the first failing model aborts the
    /// migration; already-migrated models stay migrated).
    pub fn migrate(&self) -> Result<MigrateReport> {
        let mut report = MigrateReport::default();
        for meta in self.list() {
            if meta.version == codec::FORMAT_VERSION {
                report.already_current += 1;
                continue;
            }
            let model = codec::load_model(self.model_path(&meta.name))?;
            self.put(&meta.name, &model)?;
            report.migrated.push(meta.name);
        }
        Ok(report)
    }
}

impl Drop for ModelStore {
    fn drop(&mut self) {
        // Let a still-running recovery probe exit at its next wake-up
        // instead of retrying forever against an unmounted directory.
        self.health.closed.store(true, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for ModelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelStore")
            .field("dir", &self.dir)
            .field("models", &self.len())
            .finish()
    }
}

impl ModelStorage for ModelStore {
    fn save(&self, name: &str, model: &Arc<Series2Graph>) -> Result<u64> {
        Ok(self.put(name, model)?.checksum)
    }

    fn load(&self, name: &str) -> Result<Option<Arc<Series2Graph>>> {
        match self.get(name) {
            Ok(model) => Ok(Some(model)),
            Err(Error::UnknownModel(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn meta(&self, name: &str) -> Option<StoredModelMeta> {
        ModelStore::meta(self, name)
    }

    fn lineage(&self, name: &str) -> Option<AdaptationLineage> {
        ModelStore::lineage(self, name)
    }

    fn remove(&self, name: &str) -> Result<bool> {
        ModelStore::remove(self, name)
    }

    fn list(&self) -> Vec<StoredModelMeta> {
        ModelStore::list(self)
    }

    fn stored(&self) -> usize {
        self.len()
    }

    fn mode(&self) -> StoreMode {
        ModelStore::mode(self)
    }

    fn degradations(&self) -> u64 {
        ModelStore::degradations(self)
    }

    fn recoveries(&self) -> u64 {
        ModelStore::recoveries(self)
    }
}

// ---------------------------------------------------------------------------
// File-level helpers
// ---------------------------------------------------------------------------

/// fsync on the directory so a rename is durable, not just ordered.
fn sync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// Reads a model file's section index (`None` for a v1 file), checked
/// against the file's length so no entry can send a reader past its end.
fn read_index(file: &mut File) -> Result<Option<SectionIndex>> {
    let file_len = file.metadata()?.len();
    let (_, index) = codec::read_header(file)?;
    if let Some(index) = &index {
        index.validate_bounds(file_len)?;
    }
    Ok(index)
}

/// Reads one section payload out of a model file by offset, verifying its
/// independent checksum.
fn read_section(file: &mut File, index: &SectionIndex, kind: SectionKind) -> Result<Vec<u8>> {
    let entry = *index.require(kind)?;
    let len = usize::try_from(entry.len)
        .map_err(|_| Error::Format(format!("{kind} length exceeds the platform word size")))?;
    file.seek(SeekFrom::Start(entry.offset))?;
    let mut payload = vec![0u8; len];
    file.read_exact(&mut payload)?;
    codec::verify_section(&entry, &payload)?;
    Ok(payload)
}

/// The metadata of `model`, stored as the encoded file `bytes`.
fn meta_of(name: &str, bytes: &[u8], model: &Series2Graph) -> StoredModelMeta {
    StoredModelMeta {
        name: name.to_string(),
        version: u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte version")),
        file_len: bytes.len() as u64,
        checksum: codec::checksum_trailer(bytes),
        pattern_length: model.pattern_length(),
        node_count: model.node_count(),
        edge_count: model.graph().edge_count(),
        train_len: model.train_len(),
    }
}

/// Derives a model's metadata from its file alone (manifest miss): the
/// file is read and decoded whole, so a file that fails its checksum is
/// quarantined at open rather than on first use.
fn derive_meta(path: &Path, name: &str) -> Result<StoredModelMeta> {
    let bytes = fs::read(path)?;
    let model = codec::decode_model(&bytes)?;
    Ok(meta_of(name, &bytes, &model))
}

fn collect_metas(inner: &Inner) -> Vec<StoredModelMeta> {
    inner.entries.values().cloned().collect()
}
