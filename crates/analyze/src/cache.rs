//! The analyzer's result cache: one entry per cache directory, one record
//! per analyzed file.
//!
//! Summary propagation depends on every file, but a file's own analysis
//! does not: [`analyze_file_with`](crate::analyze_file_with) reads the
//! summary set only through `callgraph::Lookups`, the per-file pass's one
//! view of it, which records every name resolved. So
//! the analysis is a pure function of the file's path, its source, and what
//! [`Summaries::lookup`](crate::Summaries::lookup) returned for each
//! recorded name — including "nothing" and "ambiguous", so a same-named fn
//! added elsewhere changes the answer. The digest is of the *closed*
//! (propagated) summary, so a change reached through any number of call
//! hops changes it too. That is what a [`FileRecord`] carries: path,
//! [`content_hash`], `fns` (the names its file defines), `deps` (each
//! recorded name with its `Summaries::dep_digest`), `support` (the names
//! those digests were derived from) and the analysis.
//!
//! A run reuses a stored record when the file's path and hash match and
//! its deps cannot have moved ("early cutoff"); every other file is
//! analyzed afresh, with its lookups recorded. Summaries are cut off the
//! same way: the records' `fns` index the tree without a parse, the names
//! an edit touched are *dirty*, a record whose `support` holds no dirty
//! name is moved over without a digest, and the rest are re-digested
//! against a summary set parsed and propagated only for the names they
//! and the changed files need. With no usable entry every file is
//! changed, and the same steps are the whole-tree pass. DESIGN.md
//! ("Parallel engine and result cache") gives the round and why the
//! partial set is exact. The per-file tiers that came before this entry
//! keyed every file's analysis on the whole-tree digest, so any edit
//! invalidated all of them and they could not reuse an analysis across an
//! edit; they were removed for measuring slower than no cache.
//!
//! The entry ([`ENTRY_FILE`]) is a header line `{schema}` and then one
//! record per line, in analysis order. When the stored `(path, hash)`
//! sequence equals this tree's — same files, same bytes, same order — the
//! stored records *are* the answer: they are merged and nothing is derived
//! or written. Any other run writes the entry anew, but serializes only the
//! records it changed. A loaded record keeps the line it was parsed from
//! (an [`EntryRecord`]) until a field of it is written; a record moved over
//! as it was — one no dirty name reaches, or a suspect whose refreshed
//! `support` equals the stored one — goes back in as that line. Re-analyzed
//! records and suspects whose `support` moved are serialized. The writer is
//! deterministic, so the entry is a function of the tree: a spliced entry
//! is byte for byte the one a cold run writes. Any read anomaly —
//! missing file, stale schema, truncated write, corruption, valid JSON of
//! the wrong shape — is a silent miss with nothing to reuse: the caller
//! analyzes afresh and overwrites the entry. The cache can never panic the
//! analyzer and never serves stale output.

use std::hash::Hasher;
use std::ops::{Deref, DerefMut, Range};
use std::path::PathBuf;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::analysis::FileAnalysis;

/// Entry layout version. Bump on any change to what the entry holds, how
/// the digests are derived, or what the analysis means; old entries then
/// miss and are overwritten.
pub const SCHEMA_VERSION: u32 = 4;

/// File name of the one entry inside the cache directory.
pub const ENTRY_FILE: &str = "entry.jsonl";

/// FNV-1a 64-bit over raw bytes: cheap, dependency-free, and stable across
/// platforms and runs (unlike `DefaultHasher`, which is seeded).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a`] as a [`Hasher`], for digesting `Hash` values.
pub(crate) struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The content key of one source file: its bytes, hashed eight at a time.
pub fn content_hash(src: &str) -> String {
    format!("{:016x}", word_hash(src.as_bytes()))
}

/// A 64-bit hash over little-endian words: four independent lanes over
/// 32-byte stripes (xxHash64's round, so the lanes' multiplies overlap),
/// then the tail, the length, and a final avalanche. Stable across
/// platforms and runs.
fn word_hash(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    fn round(acc: u64, word: u64) -> u64 {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn word(b: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w[..b.len()].copy_from_slice(b);
        u64::from_le_bytes(w)
    }
    let mut lanes = [P1, P2, P3, P1 ^ P2];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    let mut h = (bytes.len() as u64).wrapping_mul(P3);
    for lane in lanes {
        h = round(h, lane);
    }
    // A short last word is zero-padded; the length above tells it apart
    // from real zero bytes.
    for w in stripes.remainder().chunks(8) {
        h = round(h, word(w));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// First line of the entry.
#[derive(Serialize, Deserialize)]
struct Header {
    schema: u32,
}

/// One analyzed file, as stored: reusable while its path and
/// [`content_hash`] match and every dep resolves to the same digest.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct FileRecord {
    /// Analysis-root-relative path.
    pub path: String,
    /// [`content_hash`] of the source the analysis was made from.
    pub hash: String,
    /// The names of the `fn` items the file defines, sorted, each once:
    /// with every other record's, the tree's name index, read without a
    /// parse.
    pub fns: Vec<String>,
    /// Every summary name the analysis looked up, sorted, with its
    /// `Summaries::dep_digest` at the time.
    pub deps: Vec<(String, u64)>,
    /// The names the deps' closed summaries were derived from, sorted:
    /// each dep and every name reachable through the call edges of its
    /// definitions. While no edit touches a definition of any of them,
    /// the deps cannot have moved.
    pub support: Vec<String>,
    /// The file's analysis.
    pub analysis: FileAnalysis,
}

/// A [`FileRecord`] as it goes into and comes out of the entry: the record
/// and, while none of its fields has changed since [`Cache::load`] parsed
/// it, the entry line it was parsed from. [`Cache::store`] writes a record
/// that still holds its line as those bytes and serializes only the rest.
/// Reading goes through [`Deref`]; any mutable access
/// ([`DerefMut`]) drops the line, so a record can never be written from
/// bytes that no longer describe it.
pub struct EntryRecord {
    record: FileRecord,
    line: Option<StoredLine>,
}

/// One line of a loaded entry: a byte range into the entry text, which
/// every record of the load shares (one copy, not a `String` per line).
struct StoredLine {
    text: Arc<String>,
    range: Range<usize>,
}

impl EntryRecord {
    /// The record, without its line.
    pub fn into_record(self) -> FileRecord {
        self.record
    }

    /// The stored line this record is written back as, if it still has one.
    fn line(&self) -> Option<&str> {
        let line = self.line.as_ref()?;
        Some(&line.text[line.range.clone()])
    }
}

/// A record made this run: it has no stored line, so a store serializes it.
impl From<FileRecord> for EntryRecord {
    fn from(record: FileRecord) -> Self {
        EntryRecord { record, line: None }
    }
}

impl Deref for EntryRecord {
    type Target = FileRecord;

    fn deref(&self) -> &FileRecord {
        &self.record
    }
}

impl DerefMut for EntryRecord {
    fn deref_mut(&mut self) -> &mut FileRecord {
        self.line = None;
        &mut self.record
    }
}

#[cfg(test)]
thread_local! {
    /// Records the stores on this thread serialized.
    pub(crate) static RECORDS_SERIALIZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Parses an entry, its records on up to `threads` workers, each keeping
/// its line of `text`; `None` on any anomaly.
fn parse_entry(text: String, threads: usize) -> Option<Vec<EntryRecord>> {
    let text = Arc::new(text);
    let mut lines = text.lines();
    let header: Header = serde_json::from_str(lines.next()?).ok()?;
    if header.schema != SCHEMA_VERSION {
        return None;
    }
    let ranges: Vec<Range<usize>> = lines
        .map(|line| {
            let at = line.as_ptr() as usize - text.as_ptr() as usize;
            at..at + line.len()
        })
        .collect();
    crate::fan_out(&ranges, threads, |range| {
        let record = serde_json::from_str(&text[range.clone()]).ok()?;
        let line = StoredLine {
            text: Arc::clone(&text),
            range: range.clone(),
        };
        Some(EntryRecord {
            record,
            line: Some(line),
        })
    })
    .into_iter()
    .collect()
}

/// The on-disk cache. `dir: None` disables it: every load misses, every
/// store is a no-op — the `--no-cache` path with zero branches elsewhere.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    dir: Option<PathBuf>,
}

impl Cache {
    /// A cache rooted at `dir` (`None` = disabled).
    pub fn new(dir: Option<PathBuf>) -> Self {
        Cache { dir }
    }

    /// Where the entry lives (`None` when disabled).
    pub fn entry_path(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(ENTRY_FILE))
    }

    /// The stored records, if there is an entry this schema can read,
    /// parsed on up to `threads` workers (`0` or `1` parses inline). Each
    /// keeps the line it was parsed from.
    pub fn load(&self, threads: usize) -> Option<Vec<EntryRecord>> {
        parse_entry(std::fs::read_to_string(self.entry_path()?).ok()?, threads)
    }

    /// Stores `records` as the entry, crash-safely (see
    /// [`tsvd_core::save_atomic`]). A record that still holds its stored
    /// line is written as those bytes; the rest — records made this run,
    /// and loaded ones whose fields changed — are serialized on up to
    /// `threads` workers. The writer is deterministic (keys in `BTreeMap`
    /// order), so a spliced line is the bytes serializing it would give.
    /// Best-effort: IO errors are swallowed (a cache that cannot write is
    /// just a slow cache).
    pub fn store(&self, records: &[EntryRecord], threads: usize) {
        let Some(dir) = &self.dir else {
            return;
        };
        let changed: Vec<&FileRecord> = (records.iter())
            .filter(|r| r.line.is_none())
            .map(|r| &r.record)
            .collect();
        #[cfg(test)]
        RECORDS_SERIALIZED.with(|n| n.set(n.get() + changed.len()));
        let mut serialized = crate::fan_out(&changed, threads, |r| serde_json::to_string(*r))
            .into_iter()
            .map(Result::unwrap_or_default);
        let header = Header {
            schema: SCHEMA_VERSION,
        };
        let mut entry = serde_json::to_string(&header).unwrap_or_default();
        entry.push('\n');
        for record in records {
            match record.line() {
                Some(line) => {
                    debug_assert_eq!(
                        Some(line),
                        serde_json::to_string(&record.record).ok().as_deref(),
                        "a stored line must be its record's serialization"
                    );
                    entry.push_str(line);
                }
                None => entry.push_str(&serialized.next().unwrap_or_default()),
            }
            entry.push('\n');
        }
        let _ = std::fs::create_dir_all(dir);
        let _ = tsvd_core::save_atomic(&dir.join(ENTRY_FILE), entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> (PathBuf, Cache) {
        let dir = std::env::temp_dir().join(format!("tsvd_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        (dir.clone(), Cache::new(Some(dir)))
    }

    /// A record whose analysis populates every list: one unguarded spawn
    /// pair, one join-ordered (pruned) pair, a raw-collection escape, an
    /// await — and a dep.
    fn sample_record() -> FileRecord {
        let src = "use std::collections::HashMap;\n\
                   use tsvd_collections::Dictionary;\n\
                   async fn f(pool: &Pool) {\n\
                       let raw = HashMap::new();\n\
                       let d = Dictionary::new();\n\
                       let d1 = d.clone();\n\
                       pool.spawn(move || d1.set(1, 1));\n\
                       d.set(2, 2);\n\
                       let e = Dictionary::new();\n\
                       let e1 = e.clone();\n\
                       let worker = pool.spawn(move || e1.set(3, 3));\n\
                       let _ = worker.join();\n\
                       e.set(4, 4);\n\
                       tick().await;\n\
                   }\n";
        let summaries = crate::Summaries::build(&[("x.rs".to_string(), src.to_string())]);
        let (analysis, deps) = crate::analysis::analyze_file_recorded("x.rs", src, &summaries);
        let fa = &analysis;
        assert!(
            !(fa.escapes.is_empty()
                || fa.sites.is_empty()
                || fa.pairs.is_empty()
                || fa.pruned_pairs.is_empty()
                || fa.awaits.is_empty()
                || deps.is_empty()),
            "fixture must populate every list: {fa:?} {deps:?}"
        );
        FileRecord {
            path: "x.rs".to_string(),
            hash: content_hash(src),
            fns: vec!["f".to_string()],
            support: deps.iter().map(|(name, _)| name.clone()).collect(),
            deps,
            analysis,
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn content_hash_is_stable_and_sees_every_byte() {
        // Pinned: a change to the hash must bump SCHEMA_VERSION.
        assert_eq!(content_hash(""), "c0770020619cf140");
        assert_eq!(content_hash("fn main() {}\n"), "956aba48a70a9a95");
        // Every length through two stripes and a tail, every byte position
        // flipped, and zero bytes appended: all distinct.
        let base: Vec<u8> = (0..80u8).map(|b| b.wrapping_mul(37)).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=base.len() {
            assert!(seen.insert(word_hash(&base[..len])), "length {len}");
            for at in 0..len {
                for bit in [0x01, 0x80] {
                    let mut flipped = base[..len].to_vec();
                    flipped[at] ^= bit;
                    assert!(seen.insert(word_hash(&flipped)), "{len}: byte {at}");
                }
            }
            let mut padded = base[..len].to_vec();
            padded.push(0);
            assert_ne!(word_hash(&padded), word_hash(&base[..len]), "{len} + 0");
        }
    }

    #[test]
    fn records_round_trip_and_a_store_replaces_the_entry() {
        let (dir, cache) = tmp_cache("roundtrip");
        assert!(cache.load(1).is_none(), "cold");
        cache.store(&[sample_record().into(), sample_record().into()], 1);
        let loaded: Vec<FileRecord> = (cache.load(1).expect("warm").into_iter())
            .map(EntryRecord::into_record)
            .collect();
        assert_eq!(loaded, [sample_record(), sample_record()]);
        // A store for another workspace replaces the entry, never adds one.
        cache.store(&[], 1);
        assert!(cache.load(1).expect("replaced").is_empty());
        assert_eq!(std::fs::read_dir(&dir).expect("read_dir").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_store_splices_unchanged_lines_and_serializes_changed_records() {
        let (dir, cache) = tmp_cache("splice");
        let serialized = || RECORDS_SERIALIZED.with(|n| n.get());
        let before = serialized();
        cache.store(&[sample_record().into(), sample_record().into()], 1);
        assert_eq!(serialized() - before, 2, "records made this run");
        let path = cache.entry_path().expect("path");
        let mut stored = cache.load(2).expect("warm");
        assert!(stored.iter().all(|r| r.line().is_some()));
        // Reading a field keeps the line; writing one drops it.
        assert_eq!(stored[0].path, "x.rs");
        assert!(stored[0].line().is_some());
        stored[1].support.push("added".to_string());
        assert!(stored[1].line().is_none());
        let before = serialized();
        cache.store(&stored, 2);
        assert_eq!(serialized() - before, 1, "only the changed record");
        let loaded: Vec<FileRecord> = (cache.load(1).expect("spliced").into_iter())
            .map(EntryRecord::into_record)
            .collect();
        let mut changed = sample_record();
        changed.support.push("added".to_string());
        assert_eq!(loaded, [sample_record(), changed]);
        // An unchanged round trip writes back the entry it loaded, byte for
        // byte.
        let spliced = std::fs::read_to_string(&path).expect("read");
        let before = serialized();
        cache.store(&cache.load(1).expect("again"), 1);
        assert_eq!(serialized(), before, "nothing changed, nothing serialized");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), spliced);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = Cache::new(None);
        assert!(cache.entry_path().is_none());
        cache.store(&[sample_record().into()], 1);
        assert!(cache.load(1).is_none());
    }

    #[test]
    fn stale_schema_entries_are_rejected() {
        // Every record matches; only the schema version differs — exactly
        // what another build's entry looks like after an upgrade. It must
        // miss, not load.
        let (dir, cache) = tmp_cache("schema");
        cache.store(&[sample_record().into()], 1);
        let path = cache.entry_path().expect("path");
        let text = std::fs::read_to_string(&path).expect("read");
        let bumped = text.replace(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            &format!("\"schema\":{}", SCHEMA_VERSION + 1),
        );
        assert_ne!(text, bumped, "fixture must actually change the schema");
        std::fs::write(&path, bumped).expect("write");
        assert!(cache.load(1).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_truncated_entries_miss_without_panicking() {
        let (dir, cache) = tmp_cache("corrupt");
        cache.store(&[sample_record().into(), sample_record().into()], 1);
        let path = cache.entry_path().expect("path");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(cache.load(1).is_some(), "intact entry loads");
        // Truncated mid-record (the header survives), inside the header,
        // and to nothing.
        let header_len = text.find('\n').expect("header line");
        for cut in [text.len() / 2, text.len() - 2, header_len / 2, 0] {
            std::fs::write(&path, &text[..cut]).expect("write");
            assert!(cache.load(1).is_none(), "cut at {cut}");
        }
        // Outright garbage, as the whole file and as a record.
        std::fs::write(&path, b"\x00\xff not json at all").expect("write");
        assert!(cache.load(1).is_none());
        let header = &text[..=header_len];
        std::fs::write(&path, format!("{header}not json at all\n")).expect("write");
        assert!(cache.load(1).is_none());
        // Valid JSON, wrong shape: whole file, header, record.
        for wrong in [
            "[1, 2, 3]".to_string(),
            format!("[1, 2, 3]\n{}", &text[header_len + 1..]),
            format!("{header}[1, 2, 3]\n"),
            format!("{header}{{\"path\":\"x.rs\",\"hash\":7}}\n"),
        ] {
            std::fs::write(&path, &wrong).expect("write");
            assert!(cache.load(1).is_none(), "{wrong:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
