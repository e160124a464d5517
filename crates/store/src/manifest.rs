//! The store manifest: an O(1)-startup listing of every persisted model.
//!
//! The manifest is a *cache*, never the source of truth — the model files
//! are. `MANIFEST` is a small tab-separated text file (one line per model,
//! preceded by a format header) holding exactly the per-model metadata of
//! [`StoredModelMeta`]. On startup the store trusts a manifest line only
//! when the named file exists with the recorded length; anything else is
//! re-derived from the file itself, and a missing, corrupt or older-format
//! manifest degrades to a full rescan instead of an error. The manifest itself is
//! rewritten atomically (temp file + fsync + rename) after every mutation,
//! so a crash can never leave a torn listing.

use s2g_engine::error::{Error, Result};
use s2g_engine::storage::StoredModelMeta;

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// First line of every manifest; bump the trailing number to change the
/// line format. Version 1 lines had two more columns (the size of the
/// training trajectory, which models no longer carry); such a manifest
/// fails to decode and the store rescans.
const HEADER: &str = "s2g-store-manifest 2";

/// Serialises metadata into manifest text (header + one line per model).
pub fn encode(entries: &[StoredModelMeta]) -> String {
    let mut out = String::with_capacity(64 + entries.len() * 96);
    out.push_str(HEADER);
    out.push('\n');
    for m in entries {
        out.push_str(&format!(
            "{}\t{}\t{}\t{:016x}\t{}\t{}\t{}\t{}\n",
            m.name,
            m.version,
            m.file_len,
            m.checksum,
            m.pattern_length,
            m.node_count,
            m.edge_count,
            m.train_len,
        ));
    }
    out
}

/// Parses manifest text back into metadata.
///
/// # Errors
/// [`Error::Storage`] on an unknown header or a malformed line — callers
/// treat this as "no manifest" and rescan.
pub fn decode(text: &str) -> Result<Vec<StoredModelMeta>> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == HEADER => {}
        other => {
            return Err(Error::Storage(format!(
                "unknown manifest header {other:?} (expected {HEADER:?})"
            )))
        }
    }
    let mut entries = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [name, version, file_len, checksum, pattern_length, node_count, edge_count, train_len] =
            fields.as_slice()
        else {
            return Err(malformed(lineno, "expected 8 tab-separated fields"));
        };
        let parse_u64 = |field: &str, what: &str| -> Result<u64> {
            field
                .parse()
                .map_err(|_| malformed(lineno, &format!("unparseable {what} {field:?}")))
        };
        entries.push(StoredModelMeta {
            name: name.to_string(),
            version: parse_u64(version, "version")? as u32,
            file_len: parse_u64(file_len, "file length")?,
            checksum: u64::from_str_radix(checksum, 16)
                .map_err(|_| malformed(lineno, &format!("unparseable checksum {checksum:?}")))?,
            pattern_length: parse_u64(pattern_length, "pattern length")? as usize,
            node_count: parse_u64(node_count, "node count")? as usize,
            edge_count: parse_u64(edge_count, "edge count")? as usize,
            train_len: parse_u64(train_len, "train length")? as usize,
        });
    }
    Ok(entries)
}

fn malformed(lineno: usize, what: &str) -> Error {
    Error::Storage(format!("manifest line {}: {what}", lineno + 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str) -> StoredModelMeta {
        StoredModelMeta {
            name: name.to_string(),
            version: 3,
            file_len: 12345,
            checksum: 0xdead_beef_cafe_f00d,
            pattern_length: 50,
            node_count: 120,
            edge_count: 300,
            train_len: 6000,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let entries = vec![meta("a"), meta("b.v2_final")];
        let text = encode(&entries);
        assert_eq!(decode(&text).unwrap(), entries);
        assert_eq!(decode(HEADER).unwrap(), Vec::new());
    }

    #[test]
    fn corrupt_manifests_are_rejected_not_misread() {
        assert!(decode("").is_err());
        assert!(decode("some other file\n").is_err());
        let text = encode(&[meta("a")]);
        let truncated: String = text.chars().take(text.len() - 10).collect();
        assert!(decode(&truncated).is_err());
        assert!(decode(&text.replace("12345", "xx")).is_err());
        // A version-1 manifest (two more columns) sends the store to a rescan.
        assert!(decode(
            "s2g-store-manifest 1\n\
             a\t2\t12345\tdeadbeefcafef00d\t50\t120\t300\t6000\t5951\t95224\n"
        )
        .is_err());
    }
}
