//! Versioned binary persistence for fitted [`Series2Graph`] models.
//!
//! Training a Series2Graph model is the expensive step of the pipeline;
//! scoring against a fitted model is cheap. This codec makes *train once,
//! score many times across processes* possible: it round-trips every part of
//! a fitted model — configuration, PCA + rotation embedding basis, node set,
//! transition graph and the cached training contributions — so a loaded model
//! produces **bit-identical** scores to the in-memory one it was saved from.
//! A model is the graph plus the embedding basis: the projected training
//! trajectory only feeds node and edge extraction, and no model carries it.
//!
//! ## Format (`S2GMDL`, version 3)
//!
//! Little-endian throughout; every `f64` is stored as its IEEE-754 bit
//! pattern (`to_bits`), which is what guarantees bit-identical round-trips.
//! After the fixed header comes a section index, so a reader can locate and
//! verify one section (say, the train section for lineage) without reading
//! the others.
//!
//! ```text
//! magic      8 bytes  b"S2GMDL\xF0\x9F"
//! version    u32 = 3
//! count      u32      number of index entries (5)
//! index      count × { kind u32, offset u64, len u64, checksum u64 }
//!                     offset is absolute from the file start; checksum is
//!                     FNV-1a over exactly the section's payload bytes, so
//!                     each section verifies independently of the others
//! payloads   the section payloads, contiguous, in index order
//! trailer    u64      FNV-1a over all preceding bytes (whole-file integrity)
//! ```
//!
//! Section kinds and payloads (all arrays length-prefixed with a `u64`):
//!
//! | kind | payload |
//! |---|---|
//! | 1 `config` | pattern_length, lambda, rate, kde_grid_points: u64; smooth_scores u8; bandwidth tag u8 (0 = Scott \| 1 = SigmaRatio + f64); pca_solver tag u8 (0 = Covariance \| 1 = RandomizedSvd + oversample u64 + power_iterations u64 + seed u64); seed u64 |
//! | 2 `embedding` | explained_variance_ratio f64; pca: input_dim u64, n_components u64, mean f64[], components (row-major) f64[], explained_variance f64[], total_variance f64; rotation 9 × f64 (row-major 3×3) |
//! | 4 `nodes` | rate u64, then per ray an f64[] of node radii |
//! | 5 `graph` | node_count u64, edge_count u64, then per edge from u64, to u64, weight f64 |
//! | 6 `train` | train_len u64, contributions f64[], then *optionally* the adaptation lineage: parent_checksum u64, update_count u64, decay_lambda f64 |
//!
//! The lineage tail is written only for adapted models (those carrying an
//! [`AdaptationLineage`]); pristine fits encode without it. Readers detect
//! the tail by the bytes remaining after the contributions array.
//!
//! ## Versions 1 and 2 (legacy, read-only)
//!
//! Both legacy versions also stored the training trajectory as a
//! `points` section (kind 3, between `embedding` and `nodes`: `n u64`, then
//! `n × (y f64, z f64)`). Version 2 is the version-3 layout with that sixth
//! section; version 1 has no index and concatenates the six payloads
//! directly after `magic + version`, followed by the same trailer.
//! [`decode_model`] reads every version, checks that a legacy points section
//! is well-formed (the trailer covers its bytes), skips it, and produces the
//! same model as the version-3 encoding of the same fit.
//! [`encode_legacy_model`] writes either legacy layout from a model plus the
//! trajectory [`Embedding::fit`] returns, for fixtures and for the
//! version-2 golden checksums.
//!
//! Any truncation, bit flip or unknown version is rejected with a precise
//! [`Error`] instead of yielding a silently wrong model.

use std::io::Read;
use std::path::Path;

use s2g_core::config::BandwidthRule;
use s2g_core::embedding::Embedding;
use s2g_core::nodes::NodeSet;
use s2g_core::{AdaptationLineage, S2gConfig, Series2Graph};
use s2g_graph::DiGraph;
use s2g_linalg::matrix::DMatrix;
use s2g_linalg::pca::{Pca, PcaSolver};
use s2g_linalg::rotation::Rotation3;
use s2g_linalg::vector::Vec2;

use crate::error::{Error, Result};
use crate::util::fnv1a;

/// File magic: `S2GMDL` plus two non-ASCII bytes so text tools don't
/// misdetect the format.
pub const MAGIC: [u8; 8] = *b"S2GMDL\xF0\x9F";

/// Highest format version this build reads and the version it writes.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest format version this build still reads.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Byte length of the fixed header (magic + version + section count).
pub const FIXED_HEADER_LEN: usize = MAGIC.len() + 4 + 4;

/// Byte length of one section-index entry (kind + offset + len + checksum).
pub const INDEX_ENTRY_LEN: usize = 4 + 8 + 8 + 8;

// ---------------------------------------------------------------------------
// Section index
// ---------------------------------------------------------------------------

/// The sections of a model file. Version 3 writes [`SectionKind::CURRENT`];
/// legacy files also carry [`SectionKind::Points`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Fit configuration ([`S2gConfig`]).
    Config,
    /// Embedding basis: explained variance, PCA, rotation.
    Embedding,
    /// The projected `(y, z)` trajectory of the training series, present
    /// only in legacy (v1 and v2) files; readers verify and skip it.
    Points,
    /// The extracted pattern node set.
    Nodes,
    /// The transition graph `G_ℓ(N, E)`.
    Graph,
    /// Cached per-gap training contributions.
    Train,
}

impl SectionKind {
    /// Every section kind, in the order a version-2 file lays them out.
    pub const ALL: [SectionKind; 6] = [
        SectionKind::Config,
        SectionKind::Embedding,
        SectionKind::Points,
        SectionKind::Nodes,
        SectionKind::Graph,
        SectionKind::Train,
    ];

    /// The sections of a version-3 file, in file order: version 2's
    /// without `points`.
    pub const CURRENT: [SectionKind; 5] = [
        SectionKind::Config,
        SectionKind::Embedding,
        SectionKind::Nodes,
        SectionKind::Graph,
        SectionKind::Train,
    ];

    /// The sections an indexed file of `version` (2 or 3) carries.
    fn layout(version: u32) -> &'static [SectionKind] {
        if version == 2 {
            &SectionKind::ALL
        } else {
            &SectionKind::CURRENT
        }
    }

    /// The on-disk tag of this kind.
    pub fn tag(self) -> u32 {
        match self {
            SectionKind::Config => 1,
            SectionKind::Embedding => 2,
            SectionKind::Points => 3,
            SectionKind::Nodes => 4,
            SectionKind::Graph => 5,
            SectionKind::Train => 6,
        }
    }

    /// The kind encoded by an on-disk tag, if known.
    pub fn from_tag(tag: u32) -> Option<SectionKind> {
        SectionKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Human-readable section name (used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Config => "config",
            SectionKind::Embedding => "embedding",
            SectionKind::Points => "points",
            SectionKind::Nodes => "nodes",
            SectionKind::Graph => "graph",
            SectionKind::Train => "train",
        }
    }
}

impl std::fmt::Display for SectionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One entry of a section index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Which section this entry locates.
    pub kind: SectionKind,
    /// Absolute byte offset of the section payload from the file start.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a checksum of exactly the payload bytes, so the section can be
    /// verified without reading any other part of the file.
    pub checksum: u64,
}

/// The parsed section index of a version-2 or version-3 model file: where
/// each section lives, how long it is, and its independent checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionIndex {
    entries: Vec<SectionEntry>,
}

impl SectionIndex {
    /// The index entries, in file order.
    pub fn entries(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// Total byte length of header + index (the file offset where the first
    /// payload starts).
    pub fn header_len(&self) -> usize {
        FIXED_HEADER_LEN + self.entries.len() * INDEX_ENTRY_LEN
    }

    /// The entry for `kind`, if present.
    pub fn get(&self, kind: SectionKind) -> Option<&SectionEntry> {
        self.entries.iter().find(|e| e.kind == kind)
    }

    /// The entry for `kind`, as a format error when absent.
    ///
    /// # Errors
    /// [`Error::Format`] naming the missing section.
    pub fn require(&self, kind: SectionKind) -> Result<&SectionEntry> {
        self.get(kind)
            .ok_or_else(|| Error::Format(format!("section index lacks the {kind} section")))
    }

    /// Checks that every entry lies within a file of `file_len` bytes
    /// (between the index and the 8-byte trailer), so a reader can trust
    /// the offsets before seeking.
    ///
    /// # Errors
    /// [`Error::Format`] for any out-of-bounds entry.
    pub fn validate_bounds(&self, file_len: u64) -> Result<()> {
        let header_len = self.header_len() as u64;
        let payload_end = file_len
            .checked_sub(8)
            .ok_or_else(|| Error::Format("file shorter than its trailer".to_string()))?;
        for entry in &self.entries {
            let end = entry.offset.checked_add(entry.len);
            if entry.offset < header_len || end.is_none_or(|end| end > payload_end) {
                return Err(Error::Format(format!(
                    "{} section [{}, +{}) escapes the file's {} payload bytes",
                    entry.kind, entry.offset, entry.len, payload_end
                )));
            }
        }
        Ok(())
    }

    /// Slices the payload of `kind` out of the complete file bytes.
    ///
    /// # Errors
    /// [`Error::Format`] when the section is missing or out of bounds.
    pub fn slice<'a>(&self, file_bytes: &'a [u8], kind: SectionKind) -> Result<&'a [u8]> {
        let entry = self.require(kind)?;
        let start = usize::try_from(entry.offset)
            .map_err(|_| Error::Format(format!("{kind} offset exceeds the platform word size")))?;
        let len = usize::try_from(entry.len)
            .map_err(|_| Error::Format(format!("{kind} length exceeds the platform word size")))?;
        start
            .checked_add(len)
            .and_then(|end| file_bytes.get(start..end))
            .ok_or_else(|| {
                Error::Format(format!(
                    "{kind} section [{start}, +{len}) escapes the {}-byte file",
                    file_bytes.len()
                ))
            })
    }
}

/// Parses the section index from the head of a version-2 or version-3
/// file. `prefix` must start at file offset 0 and be long enough to cover
/// header + index (`FIXED_HEADER_LEN + count × INDEX_ENTRY_LEN` bytes).
///
/// # Errors
/// [`Error::Format`] on bad magic, truncation, or an index that is
/// malformed or does not list exactly its version's sections;
/// [`Error::UnsupportedVersion`] when the version field is not 2 or 3.
pub fn parse_section_index(prefix: &[u8]) -> Result<SectionIndex> {
    let mut r = Reader::new(prefix);
    let magic = r.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(Error::Format(
            "bad magic: not a Series2Graph model file".to_string(),
        ));
    }
    let version = r.get_u32("version")?;
    if !matches!(version, 2 | 3) {
        return Err(Error::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = r.get_u32("section count")? as usize;
    if count == 0 || count > 32 {
        return Err(Error::Format(format!(
            "implausible section count {count} (expected 1..=32)"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let section = format!("section index entry {i}");
        let tag = r.get_u32(&section)?;
        let kind = SectionKind::from_tag(tag)
            .ok_or_else(|| Error::Format(format!("{section}: unknown section kind tag {tag}")))?;
        let entry = SectionEntry {
            kind,
            offset: r.get_u64(&section)?,
            len: r.get_u64(&section)?,
            checksum: r.get_u64(&section)?,
        };
        if entries.iter().any(|e: &SectionEntry| e.kind == kind) {
            return Err(Error::Format(format!("duplicate {kind} section in index")));
        }
        entries.push(entry);
    }
    let layout = SectionKind::layout(version);
    if let Some(extra) = entries.iter().find(|e| !layout.contains(&e.kind)) {
        return Err(Error::Format(format!(
            "a version-{version} file has no {} section",
            extra.kind
        )));
    }
    let index = SectionIndex { entries };
    for &kind in layout {
        index.require(kind)?;
    }
    Ok(index)
}

/// Reads the format version and, for indexed (v2 and v3) files, the section
/// index from the head of a model file — without reading any payload bytes.
/// Returns `(version, None)` for version-1 files (which have no index).
///
/// This is the entry point of a metadata read: open the file, read the
/// header, then fetch exactly the sections it needs by offset.
///
/// # Errors
/// [`Error::Io`] on read failures, [`Error::Format`] /
/// [`Error::UnsupportedVersion`] on malformed or unreadable headers.
pub fn read_header<R: Read>(reader: &mut R) -> Result<(u32, Option<SectionIndex>)> {
    let mut fixed = [0u8; FIXED_HEADER_LEN];
    reader
        .read_exact(&mut fixed)
        .map_err(|_| truncated("fixed header"))?;
    if fixed[..MAGIC.len()] != MAGIC {
        return Err(Error::Format(
            "bad magic: not a Series2Graph model file".to_string(),
        ));
    }
    let version = u32::from_le_bytes(fixed[8..12].try_into().expect("4-byte slice"));
    match version {
        1 => Ok((1, None)),
        2 | 3 => {
            let count =
                u32::from_le_bytes(fixed[12..16].try_into().expect("4-byte slice")) as usize;
            if count == 0 || count > 32 {
                return Err(Error::Format(format!(
                    "implausible section count {count} (expected 1..=32)"
                )));
            }
            let mut rest = vec![0u8; count * INDEX_ENTRY_LEN];
            reader
                .read_exact(&mut rest)
                .map_err(|_| truncated("section index"))?;
            let mut prefix = fixed.to_vec();
            prefix.extend_from_slice(&rest);
            Ok((version, Some(parse_section_index(&prefix)?)))
        }
        v => Err(Error::UnsupportedVersion {
            found: v,
            supported: FORMAT_VERSION,
        }),
    }
}

/// Verifies a section payload against its index entry: exact length and
/// independent FNV-1a checksum. This is what makes partial reads safe —
/// a section read on its own is checked without touching the rest of the
/// file.
///
/// # Errors
/// [`Error::Format`] on a length mismatch, [`Error::ChecksumMismatch`] on
/// corrupted payload bytes.
pub fn verify_section(entry: &SectionEntry, payload: &[u8]) -> Result<()> {
    if payload.len() as u64 != entry.len {
        return Err(Error::Format(format!(
            "{} section: expected {} bytes, read {}",
            entry.kind,
            entry.len,
            payload.len()
        )));
    }
    let computed = fnv1a(payload);
    if computed != entry.checksum {
        return Err(Error::ChecksumMismatch {
            stored: entry.checksum,
            computed,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(4096),
        }
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_f64_array(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, section: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| truncated(section))?;
        if end > self.bytes.len() {
            return Err(truncated(section));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn get_u8(&mut self, section: &str) -> Result<u8> {
        Ok(self.take(1, section)?[0])
    }

    fn get_u32(&mut self, section: &str) -> Result<u32> {
        let b = self.take(4, section)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn get_u64(&mut self, section: &str) -> Result<u64> {
        let b = self.take(8, section)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn get_usize(&mut self, section: &str) -> Result<usize> {
        let v = self.get_u64(section)?;
        usize::try_from(v).map_err(|_| {
            Error::Format(format!(
                "{section}: value {v} exceeds the platform word size"
            ))
        })
    }

    /// Reads a length prefix that the remaining bytes must plausibly cover
    /// (each element occupying at least `elem_bytes`), so a corrupted length
    /// fails fast instead of attempting a huge allocation.
    fn get_len(&mut self, elem_bytes: usize, section: &str) -> Result<usize> {
        let n = self.get_usize(section)?;
        let remaining = self.bytes.len() - self.pos;
        if n.checked_mul(elem_bytes)
            .is_none_or(|total| total > remaining)
        {
            return Err(Error::Format(format!(
                "{section}: declared length {n} exceeds the {remaining} bytes left in the file"
            )));
        }
        Ok(n)
    }

    fn get_f64(&mut self, section: &str) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64(section)?))
    }

    fn get_f64_array(&mut self, section: &str) -> Result<Vec<f64>> {
        let n = self.get_len(8, section)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64(section)?);
        }
        Ok(out)
    }

    fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn expect_exhausted(&self, section: &str) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(Error::Format(format!(
                "{} trailing bytes after the {section} payload",
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn truncated(section: &str) -> Error {
    Error::Format(format!("truncated while reading {section}"))
}

// ---------------------------------------------------------------------------
// Section payload writers
// ---------------------------------------------------------------------------

fn write_config_section(w: &mut Writer, config: &S2gConfig) {
    w.put_usize(config.pattern_length);
    w.put_usize(config.lambda);
    w.put_usize(config.rate);
    w.put_usize(config.kde_grid_points);
    w.put_u8(config.smooth_scores as u8);
    match config.bandwidth {
        BandwidthRule::Scott => w.put_u8(0),
        BandwidthRule::SigmaRatio(ratio) => {
            w.put_u8(1);
            w.put_f64(ratio);
        }
    }
    match config.pca_solver {
        PcaSolver::Covariance => w.put_u8(0),
        PcaSolver::RandomizedSvd {
            oversample,
            power_iterations,
            seed,
        } => {
            w.put_u8(1);
            w.put_usize(oversample);
            w.put_usize(power_iterations);
            w.put_u64(seed);
        }
    }
    w.put_u64(config.seed);
}

fn write_embedding_section(w: &mut Writer, embedding: &Embedding) {
    w.put_f64(embedding.explained_variance_ratio);
    let pca = embedding.pca();
    w.put_usize(pca.input_dim());
    w.put_usize(pca.n_components());
    w.put_f64_array(pca.mean());
    w.put_f64_array(pca.components().as_slice());
    w.put_f64_array(pca.explained_variance());
    w.put_f64(pca.total_variance());
    for row in embedding.rotation().rows() {
        for v in row {
            w.put_f64(v);
        }
    }
}

fn write_points_section(w: &mut Writer, points: &[Vec2]) {
    w.put_usize(points.len());
    for p in points {
        w.put_f64(p.x);
        w.put_f64(p.y);
    }
}

fn write_nodes_section(w: &mut Writer, nodes: &NodeSet) {
    w.put_usize(nodes.rate());
    for ray in 0..nodes.rate() {
        w.put_f64_array(nodes.ray_nodes(ray));
    }
}

fn write_graph_section(w: &mut Writer, graph: &DiGraph) {
    w.put_usize(graph.node_count());
    w.put_usize(graph.edge_count());
    for edge in graph.edges() {
        w.put_usize(edge.from);
        w.put_usize(edge.to);
        w.put_f64(edge.weight);
    }
}

fn write_train_section(w: &mut Writer, model: &Series2Graph) {
    w.put_usize(model.train_len());
    w.put_f64_array(model.train_contributions());
    // The lineage tail is only present for adapted models, so pristine
    // fits keep their pre-adaptation encoding (and checksum) exactly.
    if let Some(lineage) = model.lineage() {
        w.put_u64(lineage.parent_checksum);
        w.put_u64(lineage.update_count);
        w.put_f64(lineage.decay_lambda);
    }
}

/// The payload of `model`'s `kind` section; a points section holds
/// `points`.
fn section_payload(model: &Series2Graph, points: &[Vec2], kind: SectionKind) -> Vec<u8> {
    let mut w = Writer::new();
    match kind {
        SectionKind::Config => write_config_section(&mut w, model.config()),
        SectionKind::Embedding => write_embedding_section(&mut w, model.embedding()),
        SectionKind::Points => write_points_section(&mut w, points),
        SectionKind::Nodes => write_nodes_section(&mut w, model.node_set()),
        SectionKind::Graph => write_graph_section(&mut w, model.graph()),
        SectionKind::Train => write_train_section(&mut w, model),
    }
    w.buf
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Frames the `kinds` sections of `model` as a file of `version`: an index
/// of per-section checksums for versions ≥ 2, bare concatenation for
/// version 1, and the whole-file trailer either way.
fn encode_sections(
    version: u32,
    model: &Series2Graph,
    points: &[Vec2],
    kinds: &[SectionKind],
) -> Vec<u8> {
    let payloads: Vec<Vec<u8>> = kinds
        .iter()
        .map(|&kind| section_payload(model, points, kind))
        .collect();
    let header_len = match version {
        1 => MAGIC.len() + 4,
        _ => FIXED_HEADER_LEN + kinds.len() * INDEX_ENTRY_LEN,
    };
    let total: usize = payloads.iter().map(Vec::len).sum();

    let mut w = Writer::new();
    w.buf.reserve(header_len + total + 8);
    w.buf.extend_from_slice(&MAGIC);
    w.put_u32(version);
    if version > 1 {
        w.put_u32(kinds.len() as u32);
        let mut offset = header_len as u64;
        for (kind, payload) in kinds.iter().zip(&payloads) {
            w.put_u32(kind.tag());
            w.put_u64(offset);
            w.put_u64(payload.len() as u64);
            w.put_u64(fnv1a(payload));
            offset += payload.len() as u64;
        }
    }
    for payload in &payloads {
        w.buf.extend_from_slice(payload);
    }
    let checksum = fnv1a(&w.buf);
    w.put_u64(checksum);
    w.buf
}

/// Serialises a fitted model into the current (version 3) binary format.
pub fn encode_model(model: &Series2Graph) -> Vec<u8> {
    encode_sections(FORMAT_VERSION, model, &[], &SectionKind::CURRENT)
}

/// Serialises a fitted model plus its training trajectory (the `points`
/// of [`Embedding::fit`] on the training series) into a legacy layout:
/// version 1 (no index) or version 2 (indexed, with a points section).
/// Kept for fixtures of files older builds wrote and for the version-2
/// golden checksums; [`decode_model`] reads the output back to the same
/// model as [`encode_model`]'s.
///
/// # Panics
/// When `version` is neither 1 nor 2.
pub fn encode_legacy_model(model: &Series2Graph, points: &[Vec2], version: u32) -> Vec<u8> {
    assert!(
        matches!(version, 1 | 2),
        "legacy model formats are versions 1 and 2, not {version}"
    );
    encode_sections(version, model, points, &SectionKind::ALL)
}

/// Content checksum of a fitted model: the FNV-1a checksum its encoded form
/// carries as trailer (the same value a model file on disk ends with).
///
/// Two models have equal checksums iff their encoded bytes are identical,
/// making this a cheap *bit-for-bit* equality fingerprint: a model fitted
/// remotely from posted values can be compared against a local fit without
/// shipping either model over the wire.
///
/// # Example
///
/// ```
/// use s2g_core::{S2gConfig, Series2Graph};
/// use s2g_engine::codec;
/// use s2g_timeseries::TimeSeries;
///
/// let series = TimeSeries::from(
///     (0..2000)
///         .map(|i| (std::f64::consts::TAU * i as f64 / 90.0).sin())
///         .collect::<Vec<f64>>(),
/// );
/// let a = Series2Graph::fit(&series, &S2gConfig::new(45)).unwrap();
/// let b = Series2Graph::fit(&series, &S2gConfig::new(45)).unwrap();
/// // Fitting is deterministic, so two fits of the same series agree.
/// assert_eq!(codec::model_checksum(&a), codec::model_checksum(&b));
/// // The checksum is exactly the file trailer.
/// let encoded = codec::encode_model(&a);
/// let trailer = u64::from_le_bytes(encoded[encoded.len() - 8..].try_into().unwrap());
/// assert_eq!(codec::model_checksum(&a), trailer);
/// ```
pub fn model_checksum(model: &Series2Graph) -> u64 {
    let encoded = encode_model(model);
    checksum_trailer(&encoded)
}

/// The trailing 8-byte checksum of an encoded model file.
pub fn checksum_trailer(encoded: &[u8]) -> u64 {
    let trailer = &encoded[encoded.len() - 8..];
    u64::from_le_bytes(trailer.try_into().expect("8-byte checksum trailer"))
}

// ---------------------------------------------------------------------------
// Section payload readers
// ---------------------------------------------------------------------------

fn read_config_section(r: &mut Reader<'_>) -> Result<S2gConfig> {
    let pattern_length = r.get_usize("config.pattern_length")?;
    let lambda = r.get_usize("config.lambda")?;
    let rate = r.get_usize("config.rate")?;
    let kde_grid_points = r.get_usize("config.kde_grid_points")?;
    let smooth_scores = match r.get_u8("config.smooth_scores")? {
        0 => false,
        1 => true,
        v => {
            return Err(Error::Format(format!(
                "config.smooth_scores: invalid bool byte {v}"
            )))
        }
    };
    let bandwidth = match r.get_u8("config.bandwidth")? {
        0 => BandwidthRule::Scott,
        1 => BandwidthRule::SigmaRatio(r.get_f64("config.bandwidth.ratio")?),
        v => return Err(Error::Format(format!("config.bandwidth: unknown tag {v}"))),
    };
    let pca_solver = match r.get_u8("config.pca_solver")? {
        0 => PcaSolver::Covariance,
        1 => PcaSolver::RandomizedSvd {
            oversample: r.get_usize("config.pca_solver.oversample")?,
            power_iterations: r.get_usize("config.pca_solver.power_iterations")?,
            seed: r.get_u64("config.pca_solver.seed")?,
        },
        v => return Err(Error::Format(format!("config.pca_solver: unknown tag {v}"))),
    };
    let seed = r.get_u64("config.seed")?;
    let config = S2gConfig {
        pattern_length,
        lambda,
        rate,
        bandwidth,
        kde_grid_points,
        smooth_scores,
        pca_solver,
        seed,
    };
    config.validate()?;
    Ok(config)
}

/// The contents of an embedding section.
struct EmbeddingParts {
    explained_variance_ratio: f64,
    pca: Pca,
    rotation: Rotation3,
}

fn read_embedding_section(r: &mut Reader<'_>) -> Result<EmbeddingParts> {
    let explained_variance_ratio = r.get_f64("embedding.explained_variance_ratio")?;
    let input_dim = r.get_usize("embedding.pca.input_dim")?;
    let n_components = r.get_usize("embedding.pca.n_components")?;
    let mean = r.get_f64_array("embedding.pca.mean")?;
    let components_data = r.get_f64_array("embedding.pca.components")?;
    let explained_variance = r.get_f64_array("embedding.pca.explained_variance")?;
    let total_variance = r.get_f64("embedding.pca.total_variance")?;
    let components = DMatrix::from_vec(input_dim, n_components, components_data)
        .map_err(|e| Error::Format(format!("embedding.pca.components: {e}")))?;
    let pca = Pca::from_parts(mean, components, explained_variance, total_variance)
        .map_err(|e| Error::Format(format!("embedding.pca: {e}")))?;
    let mut rows = [[0.0f64; 3]; 3];
    for row in rows.iter_mut() {
        for v in row.iter_mut() {
            *v = r.get_f64("embedding.rotation")?;
        }
    }
    Ok(EmbeddingParts {
        explained_variance_ratio,
        pca,
        rotation: Rotation3::from_rows(rows),
    })
}

/// Checks that a legacy points payload is well-formed (a count, then
/// exactly that many `(y, z)` pairs) and moves past it without
/// materialising the trajectory.
fn skip_points_section(r: &mut Reader<'_>) -> Result<()> {
    let n_points = r.get_len(16, "points")?;
    r.take(n_points * 16, "points")?;
    Ok(())
}

fn read_nodes_section(r: &mut Reader<'_>, expected_rate: usize) -> Result<NodeSet> {
    let node_rate = r.get_usize("nodes.rate")?;
    if node_rate != expected_rate {
        return Err(Error::Format(format!(
            "nodes.rate {node_rate} disagrees with config.rate {expected_rate}"
        )));
    }
    let mut radii = Vec::with_capacity(node_rate);
    for ray in 0..node_rate {
        radii.push(r.get_f64_array(&format!("nodes.ray[{ray}]"))?);
    }
    NodeSet::from_parts(node_rate, radii).map_err(|e| Error::Format(format!("nodes: {e}")))
}

fn read_graph_section(r: &mut Reader<'_>, expected_nodes: usize) -> Result<DiGraph> {
    let node_count = r.get_usize("graph.node_count")?;
    if node_count != expected_nodes {
        return Err(Error::Format(format!(
            "graph.node_count {node_count} disagrees with the node set's {expected_nodes}"
        )));
    }
    let edge_count = r.get_len(24, "graph.edge_count")?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let from = r.get_usize("graph.edge.from")?;
        let to = r.get_usize("graph.edge.to")?;
        let weight = r.get_f64("graph.edge.weight")?;
        edges.push((from, to, weight));
    }
    DiGraph::from_edges(node_count, edges).map_err(|e| Error::Format(format!("graph.edge: {e}")))
}

fn read_train_section(r: &mut Reader<'_>) -> Result<(usize, Vec<f64>, Option<AdaptationLineage>)> {
    let train_len = r.get_usize("train.len")?;
    let train_contributions = r.get_f64_array("train.contributions")?;
    // Adapted models append their lineage; pristine fits end here.
    let lineage = if r.is_exhausted() {
        None
    } else {
        Some(AdaptationLineage {
            parent_checksum: r.get_u64("train.lineage.parent_checksum")?,
            update_count: r.get_u64("train.lineage.update_count")?,
            decay_lambda: r.get_f64("train.lineage.decay_lambda")?,
        })
    };
    Ok((train_len, train_contributions, lineage))
}

/// Where a decoder finds each section: one reader over the concatenated
/// payloads of a version-1 body, or the section index of an indexed file.
enum Sections<'a> {
    Sequential(Reader<'a>),
    Indexed(SectionIndex, &'a [u8]),
}

impl<'a> Sections<'a> {
    /// Reads the `kind` section with `read`. An indexed section must be
    /// consumed exactly.
    fn read<T>(
        &mut self,
        kind: SectionKind,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T>,
    ) -> Result<T> {
        match self {
            Sections::Sequential(r) => read(r),
            Sections::Indexed(index, body) => {
                let mut r = Reader::new(index.slice(body, kind)?);
                let value = read(&mut r)?;
                r.expect_exhausted(kind.name())?;
                Ok(value)
            }
        }
    }

    /// Rejects bytes left after the last section of a version-1 body.
    fn finish(&self) -> Result<()> {
        match self {
            Sections::Sequential(r) if !r.is_exhausted() => Err(Error::Format(format!(
                "{} trailing bytes after the last section",
                r.bytes.len() - r.pos
            ))),
            _ => Ok(()),
        }
    }
}

/// Decodes a model from its sections, verifying and skipping a legacy
/// points section when `legacy` is set.
fn decode_sections(mut sections: Sections<'_>, legacy: bool) -> Result<Series2Graph> {
    let config = sections.read(SectionKind::Config, read_config_section)?;
    let parts = sections.read(SectionKind::Embedding, read_embedding_section)?;
    if legacy {
        sections.read(SectionKind::Points, skip_points_section)?;
    }
    let nodes = sections.read(SectionKind::Nodes, |r| read_nodes_section(r, config.rate))?;
    let graph = sections.read(SectionKind::Graph, |r| {
        read_graph_section(r, nodes.node_count())
    })?;
    let (train_len, train_contributions, lineage) =
        sections.read(SectionKind::Train, read_train_section)?;
    sections.finish()?;

    let embedding = Embedding::from_parts(
        config.pattern_length,
        config.lambda,
        parts.pca,
        parts.rotation,
        Vec::new(),
        parts.explained_variance_ratio,
    );
    let mut model = Series2Graph::from_parts(
        config,
        embedding,
        nodes,
        graph,
        train_contributions,
        train_len,
    )?;
    model.set_lineage(lineage);
    Ok(model)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Deserialises a model from the versioned binary format (version 1, 2 or
/// 3), verifying magic, version and the whole-file checksum before
/// reconstructing any part.
pub fn decode_model(bytes: &[u8]) -> Result<Series2Graph> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(Error::Format(
            "file shorter than the fixed header".to_string(),
        ));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(Error::Format(
            "bad magic: not a Series2Graph model file".to_string(),
        ));
    }

    // Verify integrity before trusting any length field.
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte slice"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(Error::ChecksumMismatch { stored, computed });
    }

    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    match version {
        1 => decode_sections(
            Sections::Sequential(Reader::new(&body[MAGIC.len() + 4..])),
            true,
        ),
        2 | 3 => {
            let index = parse_section_index(body)?;
            index.validate_bounds(bytes.len() as u64)?;
            decode_sections(Sections::Indexed(index, body), version == 2)
        }
        v => Err(Error::UnsupportedVersion {
            found: v,
            supported: FORMAT_VERSION,
        }),
    }
}

// ---------------------------------------------------------------------------
// Section peeks (metadata without a full decode)
// ---------------------------------------------------------------------------

/// Reads the adaptation lineage from a train section payload without
/// materialising the contributions array: `Ok(None)` for a pristine fit
/// (no lineage tail), the lineage for an adapted snapshot. This is how a
/// store answers "is this file adapted, and from what?" from the train
/// section alone.
///
/// # Errors
/// [`Error::Format`] on a malformed payload.
pub fn peek_train_lineage(payload: &[u8]) -> Result<Option<AdaptationLineage>> {
    let mut r = Reader::new(payload);
    let _train_len = r.get_usize("train.len")?;
    let n = r.get_len(8, "train.contributions")?;
    r.take(n * 8, "train.contributions")?;
    if r.is_exhausted() {
        return Ok(None);
    }
    let lineage = AdaptationLineage {
        parent_checksum: r.get_u64("train.lineage.parent_checksum")?,
        update_count: r.get_u64("train.lineage.update_count")?,
        decay_lambda: r.get_f64("train.lineage.decay_lambda")?,
    };
    r.expect_exhausted("train")?;
    Ok(Some(lineage))
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

/// Writes a fitted model to `path` in the versioned binary format.
pub fn save_model<P: AsRef<Path>>(path: P, model: &Series2Graph) -> Result<()> {
    std::fs::write(path, encode_model(model))?;
    Ok(())
}

/// Reads a fitted model from `path`, verifying magic, version and checksum.
pub fn load_model<P: AsRef<Path>>(path: P) -> Result<Series2Graph> {
    let bytes = std::fs::read(path)?;
    decode_model(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_timeseries::TimeSeries;

    fn series() -> TimeSeries {
        let values: Vec<f64> = (0..3000)
            .map(|i| (std::f64::consts::TAU * i as f64 / 80.0).sin())
            .collect();
        TimeSeries::from(values)
    }

    fn fitted() -> Series2Graph {
        Series2Graph::fit(&series(), &S2gConfig::new(40)).unwrap()
    }

    /// The training trajectory of [`fitted`], as older builds stored it.
    fn trajectory() -> Vec<Vec2> {
        Embedding::fit(&series(), &S2gConfig::new(40))
            .unwrap()
            .points
    }

    /// Flips one bit of `kind`'s payload and checks that exactly that
    /// section fails its independent verification.
    fn assert_corruption_is_localised(bytes: &[u8], kind: SectionKind) {
        let index = parse_section_index(bytes).unwrap();
        let entry = *index.require(kind).unwrap();
        let mut corrupted = bytes.to_vec();
        corrupted[entry.offset as usize + entry.len as usize / 2] ^= 0x40;
        for other in index.entries() {
            let payload = index.slice(&corrupted, other.kind).unwrap();
            if other.kind == kind {
                assert!(
                    matches!(
                        verify_section(other, payload),
                        Err(Error::ChecksumMismatch { .. })
                    ),
                    "corrupted {kind} section verified"
                );
            } else {
                verify_section(other, payload).unwrap();
            }
        }
        assert!(matches!(
            decode_model(&corrupted),
            Err(Error::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn encode_decode_preserves_structure() {
        let model = fitted();
        assert!(model.embedding().points.is_empty());
        let bytes = encode_model(&model);
        let back = decode_model(&bytes).unwrap();
        assert_eq!(back.config().pattern_length, model.config().pattern_length);
        assert_eq!(back.node_count(), model.node_count());
        assert_eq!(back.graph().edge_count(), model.graph().edge_count());
        assert_eq!(back.train_len(), model.train_len());
        assert_eq!(back.train_contributions(), model.train_contributions());
        assert!(back.embedding().points.is_empty());
        assert_eq!(encode_model(&back), bytes);
    }

    #[test]
    fn legacy_encodings_decode_to_the_current_model() {
        let model = fitted();
        let points = trajectory();
        let v1 = encode_legacy_model(&model, &points, 1);
        let v2 = encode_legacy_model(&model, &points, 2);
        let v3 = encode_model(&model);
        assert_ne!(v1, v2, "the layouts must differ on the wire");
        assert_ne!(v2, v3, "the layouts must differ on the wire");
        // The trajectory was most of a legacy file.
        assert!(v3.len() + 16 * points.len() < v2.len());
        // Every decode path agrees bit for bit: re-encoding yields the same
        // canonical v3 bytes.
        for legacy in [&v1, &v2] {
            let back = decode_model(legacy).unwrap();
            assert!(back.embedding().points.is_empty());
            assert_eq!(encode_model(&back), v3);
        }
    }

    #[test]
    #[should_panic(expected = "legacy model formats are versions 1 and 2")]
    fn legacy_writer_refuses_the_current_version() {
        encode_legacy_model(&fitted(), &trajectory(), FORMAT_VERSION);
    }

    #[test]
    fn section_index_locates_and_verifies_every_section() {
        let model = fitted();
        let points = trajectory();
        for (bytes, kinds) in [
            (encode_model(&model), &SectionKind::CURRENT[..]),
            (
                encode_legacy_model(&model, &points, 2),
                &SectionKind::ALL[..],
            ),
        ] {
            let index = parse_section_index(&bytes).unwrap();
            assert_eq!(index.entries().len(), kinds.len());
            index.validate_bounds(bytes.len() as u64).unwrap();
            let mut end = index.header_len() as u64;
            for (entry, &kind) in index.entries().iter().zip(kinds) {
                assert_eq!(entry.kind, kind);
                assert_eq!(entry.offset, end, "sections must be contiguous");
                end += entry.len;
                let payload = index.slice(&bytes, kind).unwrap();
                verify_section(entry, payload).unwrap();
            }
            assert_eq!(end as usize, bytes.len() - 8, "payloads end at the trailer");
        }
        // A v3 file has no points section; a v2 file's holds the trajectory.
        let v3 = parse_section_index(&encode_model(&model)).unwrap();
        assert!(v3.get(SectionKind::Points).is_none());
        let v2 = parse_section_index(&encode_legacy_model(&model, &points, 2)).unwrap();
        assert_eq!(
            v2.require(SectionKind::Points).unwrap().len,
            8 + 16 * points.len() as u64
        );
    }

    #[test]
    fn indexes_must_list_exactly_their_versions_sections() {
        let model = fitted();
        let v2 = encode_legacy_model(&model, &trajectory(), 2);
        // A v2 index relabelled as v3 carries a points section v3 lacks.
        let mut relabelled = v2[..FIXED_HEADER_LEN + 6 * INDEX_ENTRY_LEN].to_vec();
        relabelled[8] = 3;
        assert!(matches!(
            parse_section_index(&relabelled),
            Err(Error::Format(m)) if m.contains("points")
        ));
        // A v3 index relabelled as v2 lacks the points section.
        let v3 = encode_model(&model);
        let mut relabelled = v3[..FIXED_HEADER_LEN + 5 * INDEX_ENTRY_LEN].to_vec();
        relabelled[8] = 2;
        assert!(matches!(
            parse_section_index(&relabelled),
            Err(Error::Format(m)) if m.contains("points")
        ));
    }

    #[test]
    fn legacy_points_sections_are_verified_then_skipped() {
        let model = fitted();
        let points = trajectory();
        let v2 = encode_legacy_model(&model, &points, 2);
        let index = parse_section_index(&v2).unwrap();
        let entry = *index.require(SectionKind::Points).unwrap();
        // Overstate the point count and re-seal the trailer, so only the
        // structural check on the skipped section can fire.
        let mut bad = v2.clone();
        let at = entry.offset as usize;
        bad[at..at + 8].copy_from_slice(&(points.len() as u64 + 1).to_le_bytes());
        let body_len = bad.len() - 8;
        let checksum = fnv1a(&bad[..body_len]);
        bad[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(decode_model(&bad), Err(Error::Format(_))));
        // The same in a v1 body.
        let v1 = encode_legacy_model(&model, &points, 1);
        let mut bad = v1.clone();
        let at = MAGIC.len()
            + 4
            + index.require(SectionKind::Config).unwrap().len as usize
            + index.require(SectionKind::Embedding).unwrap().len as usize;
        assert_eq!(
            bad[at..at + 8],
            (points.len() as u64).to_le_bytes(),
            "v1 points count located"
        );
        bad[at..at + 8].copy_from_slice(&(points.len() as u64 - 1).to_le_bytes());
        let body_len = bad.len() - 8;
        let checksum = fnv1a(&bad[..body_len]);
        bad[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(decode_model(&bad).is_err());
    }

    #[test]
    fn read_header_reads_only_the_header() {
        let model = fitted();
        let points = trajectory();
        for (bytes, version) in [
            (encode_model(&model), FORMAT_VERSION),
            (encode_legacy_model(&model, &points, 2), 2),
        ] {
            let index = parse_section_index(&bytes).unwrap();
            // A reader over *only* the header bytes suffices.
            let mut head = &bytes[..index.header_len()];
            let (read_version, parsed) = read_header(&mut head).unwrap();
            assert_eq!(read_version, version);
            assert_eq!(parsed.unwrap(), index);
        }
        // v1 files report no index.
        let v1 = encode_legacy_model(&model, &points, 1);
        let (version, parsed) = read_header(&mut &v1[..]).unwrap();
        assert_eq!(version, 1);
        assert!(parsed.is_none());
    }

    #[test]
    fn corrupted_sections_fail_independent_verification() {
        let model = fitted();
        let v3 = encode_model(&model);
        for kind in SectionKind::CURRENT {
            assert_corruption_is_localised(&v3, kind);
        }
        // A v2 file's points section verifies on its own as well.
        let v2 = encode_legacy_model(&model, &trajectory(), 2);
        assert_corruption_is_localised(&v2, SectionKind::Points);
    }

    #[test]
    fn lineage_round_trips_and_leaves_pristine_checksums_untouched() {
        let pristine = fitted();
        let pristine_bytes = encode_model(&pristine);

        let mut adapted = pristine.clone();
        adapted.set_lineage(Some(AdaptationLineage {
            parent_checksum: checksum_trailer(&pristine_bytes),
            update_count: 42,
            decay_lambda: 0.05,
        }));
        let adapted_bytes = encode_model(&adapted);
        // Adapted and pristine encodings differ only by the lineage tail.
        assert_eq!(adapted_bytes.len(), pristine_bytes.len() + 24);
        assert_ne!(
            checksum_trailer(&adapted_bytes),
            checksum_trailer(&pristine_bytes)
        );

        // Full decode restores the lineage bit-for-bit…
        let back = decode_model(&adapted_bytes).unwrap();
        let lineage = back.lineage().unwrap();
        assert_eq!(lineage.parent_checksum, checksum_trailer(&pristine_bytes));
        assert_eq!(lineage.update_count, 42);
        assert_eq!(lineage.decay_lambda.to_bits(), 0.05f64.to_bits());
        assert_eq!(encode_model(&back), adapted_bytes);
        // …and a pristine decode carries no lineage.
        assert!(decode_model(&pristine_bytes).unwrap().lineage().is_none());

        // The peek reads the lineage from the train payload alone.
        let index = parse_section_index(&adapted_bytes).unwrap();
        let train = index.slice(&adapted_bytes, SectionKind::Train).unwrap();
        let peeked = peek_train_lineage(train).unwrap().unwrap();
        assert_eq!(peeked, *back.lineage().unwrap());
        let pristine_index = parse_section_index(&pristine_bytes).unwrap();
        let pristine_train = pristine_index
            .slice(&pristine_bytes, SectionKind::Train)
            .unwrap();
        assert!(peek_train_lineage(pristine_train).unwrap().is_none());

        // The legacy layouts carry the lineage too.
        for version in [1, 2] {
            let legacy = encode_legacy_model(&adapted, &trajectory(), version);
            assert_eq!(
                decode_model(&legacy).unwrap().lineage(),
                back.lineage(),
                "v{version} round-trip must preserve lineage"
            );
        }
    }

    #[test]
    fn sigma_ratio_and_randomized_solver_round_trip() {
        let values: Vec<f64> = (0..2500)
            .map(|i| (std::f64::consts::TAU * i as f64 / 70.0).sin())
            .collect();
        let config = S2gConfig::new(35)
            .with_bandwidth(BandwidthRule::SigmaRatio(0.4))
            .with_pca_solver(PcaSolver::RandomizedSvd {
                oversample: 6,
                power_iterations: 2,
                seed: 99,
            })
            .with_smoothing(false);
        let model = Series2Graph::fit(&TimeSeries::from(values), &config).unwrap();
        let back = decode_model(&encode_model(&model)).unwrap();
        assert_eq!(back.config().bandwidth, BandwidthRule::SigmaRatio(0.4));
        assert_eq!(
            back.config().pca_solver,
            PcaSolver::RandomizedSvd {
                oversample: 6,
                power_iterations: 2,
                seed: 99
            }
        );
        assert!(!back.config().smooth_scores);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let model = fitted();
        let mut bytes = encode_model(&model);
        bytes[0] = b'X';
        assert!(matches!(decode_model(&bytes), Err(Error::Format(_))));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let model = fitted();
        let mut bytes = encode_model(&model);
        // Bump the version field and re-seal the checksum so only the version
        // check can fire.
        bytes[8] = 0xFF;
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_model(&bytes),
            Err(Error::UnsupportedVersion {
                found: 0xFF,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn flipped_bit_is_caught_by_checksum() {
        let model = fitted();
        let mut bytes = encode_model(&model);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            decode_model(&bytes),
            Err(Error::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let model = fitted();
        let points = trajectory();
        for bytes in [
            encode_model(&model),
            encode_legacy_model(&model, &points, 2),
            encode_legacy_model(&model, &points, 1),
        ] {
            // Every prefix must fail cleanly — never panic, never succeed.
            for cut in [
                0,
                4,
                MAGIC.len(),
                MAGIC.len() + 4,
                FIXED_HEADER_LEN + 13,
                bytes.len() / 3,
                bytes.len() - 1,
            ] {
                assert!(
                    decode_model(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes accepted"
                );
            }
        }
    }
}
