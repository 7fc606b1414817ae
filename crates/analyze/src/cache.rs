//! The analyzer's result cache: one entry per cache directory.
//!
//! Everything interprocedural in the analysis (summary propagation) depends
//! on every file, so the only state of the tree whose result can be reused
//! without re-deriving anything is *exactly the same tree*. The cache
//! therefore holds one entry — the merged [`AnalysisReport`] of the last
//! analyzed tree — keyed by the **workspace digest**: a hash over every
//! analyzed file's `(relative path, content hash)`, in analysis order. An
//! unchanged tree replays the entry; any edit, addition, deletion, rename or
//! reordering changes the digest, misses, and overwrites it.
//!
//! The entry ([`ENTRY_FILE`]) is two lines: a header `{schema, ws_digest}`,
//! then the report as compact JSON. The header is compared, byte for byte,
//! with the one this build would write *before* the payload is read, so a
//! stale entry costs one short line. Any read
//! anomaly — missing file, stale schema, foreign digest, truncated write,
//! corruption, valid JSON of the wrong shape — is a silent miss: the caller
//! analyzes afresh and overwrites the entry. The cache can never panic the
//! analyzer and never serves stale output.

use std::io::Read;
use std::path::PathBuf;

use serde::Serialize;

use crate::report::AnalysisReport;

/// Entry layout version. Bump on any change to what the entry holds, how
/// the digest is derived, or what the analysis means; old entries then miss
/// and are overwritten.
pub const SCHEMA_VERSION: u32 = 2;

/// File name of the one entry inside the cache directory.
pub const ENTRY_FILE: &str = "entry.jsonl";

/// FNV-1a 64-bit over raw bytes: cheap, dependency-free, and stable across
/// platforms and runs (unlike `DefaultHasher`, which is seeded).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The content key of one source file: its bytes, hashed.
pub fn content_hash(src: &str) -> String {
    format!("{:016x}", fnv1a(src.as_bytes()))
}

/// The whole-workspace digest over `(relative path, source)` pairs. It is
/// order-sensitive on purpose: the report lists findings in input-file
/// order, so the same files in another order are a different result.
pub fn workspace_digest<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut acc = String::new();
    for (rel, src) in files {
        acc.push_str(rel);
        acc.push('\0');
        acc.push_str(&content_hash(src));
        acc.push('\n');
    }
    format!("{:016x}", fnv1a(acc.as_bytes()))
}

/// First line of the entry: everything needed to accept or reject it.
#[derive(Serialize)]
struct Header {
    schema: u32,
    ws_digest: String,
}

/// The header line, newline included, of this build's entry for `ws_digest`.
fn header_line(ws_digest: &str) -> Option<String> {
    let mut line = serde_json::to_string(&Header {
        schema: SCHEMA_VERSION,
        ws_digest: ws_digest.to_string(),
    })
    .ok()?;
    line.push('\n');
    Some(line)
}

/// Reads an entry: as many bytes as the expected header line has, and the
/// payload only when they are that line.
fn read_entry(mut entry: impl Read, ws_digest: &str) -> Option<AnalysisReport> {
    let expected = header_line(ws_digest)?;
    let mut header = vec![0; expected.len()];
    entry.read_exact(&mut header).ok()?;
    if header != expected.as_bytes() {
        return None;
    }
    let mut payload = String::new();
    entry.read_to_string(&mut payload).ok()?;
    serde_json::from_str(&payload).ok()
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

    /// The stored report, if the entry was written by this schema for
    /// exactly the workspace `ws_digest` names.
    pub fn load(&self, ws_digest: &str) -> Option<AnalysisReport> {
        read_entry(std::fs::File::open(self.entry_path()?).ok()?, ws_digest)
    }

    /// Stores `report` as the entry for `ws_digest`, crash-safely (see
    /// [`tsvd_core::save_atomic`]). Best-effort: IO errors are swallowed (a
    /// cache that cannot write is just a slow cache).
    pub fn store(&self, ws_digest: &str, report: &AnalysisReport) {
        let Some(dir) = &self.dir else {
            return;
        };
        // One buffer: the payload is serialized once and the header line
        // moved in front of it in place.
        let (Some(header), Ok(mut entry)) = (header_line(ws_digest), serde_json::to_string(report))
        else {
            return;
        };
        entry.insert_str(0, &header);
        entry.push('\n');
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

    /// A report with every record list populated: one unguarded spawn pair,
    /// one join-ordered (pruned) pair, a raw-collection escape, an await.
    fn sample_report() -> AnalysisReport {
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
        let fa = crate::analysis::analyze_file("x.rs", src);
        let report = AnalysisReport {
            files_scanned: 1,
            escapes: fa.escapes,
            sites: fa.sites,
            pairs: fa.pairs,
            pruned_pairs: fa.pruned_pairs,
            awaits: fa.awaits,
            ..AnalysisReport::default()
        };
        assert!(
            !(report.escapes.is_empty()
                || report.sites.is_empty()
                || report.pairs.is_empty()
                || report.pruned_pairs.is_empty()
                || report.awaits.is_empty()),
            "fixture must populate every record list: {}",
            report.to_jsonl()
        );
        report
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn workspace_digest_covers_content_path_membership_and_order() {
        let base = workspace_digest([("a.rs", "fn a() {}"), ("b.rs", "fn b() {}")]);
        assert_eq!(
            base,
            workspace_digest([("a.rs", "fn a() {}"), ("b.rs", "fn b() {}")]),
            "a pure function of its input"
        );
        for (what, other) in [
            (
                "content",
                vec![("a.rs", "fn a() {}"), ("b.rs", "fn c() {}")],
            ),
            ("rename", vec![("a.rs", "fn a() {}"), ("c.rs", "fn b() {}")]),
            ("removal", vec![("a.rs", "fn a() {}")]),
            (
                "addition",
                vec![("a.rs", "fn a() {}"), ("b.rs", "fn b() {}"), ("c.rs", "")],
            ),
            ("order", vec![("b.rs", "fn b() {}"), ("a.rs", "fn a() {}")]),
        ] {
            assert_ne!(base, workspace_digest(other), "{what} must change it");
        }
    }

    #[test]
    fn report_round_trips_and_gates_on_workspace_digest() {
        let (dir, cache) = tmp_cache("roundtrip");
        let report = sample_report();
        assert!(cache.load("digest-1").is_none(), "cold");
        cache.store("digest-1", &report);
        let back = cache.load("digest-1").expect("warm hit");
        assert_eq!(back.to_jsonl(), report.to_jsonl());
        assert_eq!(back.pairs, report.pairs);
        assert_eq!(back.sites, report.sites);
        assert_eq!(back.escapes, report.escapes);
        assert_eq!(back.pruned_pairs, report.pruned_pairs);
        assert_eq!(back.awaits, report.awaits);
        // Same entry, different workspace: any file's edit could have
        // changed the summaries every file's analysis depends on.
        assert!(cache.load("digest-2").is_none());
        // A store for another workspace replaces the entry, never adds one.
        cache.store("digest-2", &AnalysisReport::default());
        assert!(cache.load("digest-1").is_none());
        assert!(cache.load("digest-2").is_some());
        assert_eq!(std::fs::read_dir(&dir).expect("read_dir").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Counts the bytes handed out by the reader it wraps.
    struct Counted<R> {
        inner: R,
        bytes: usize,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes += n;
            Ok(n)
        }
    }

    #[test]
    fn a_miss_reads_the_header_line_and_nothing_else() {
        let (dir, cache) = tmp_cache("header_only");
        let report = sample_report();
        cache.store("digest-1", &report);
        let text = std::fs::read(cache.entry_path().expect("path")).expect("read");
        let header_len = text.iter().position(|&b| b == b'\n').expect("two lines") + 1;
        assert!(
            text.len() > 10 * header_len,
            "the payload dwarfs the header"
        );
        // Same-length digest (the real case: digests are 16 hex digits),
        // a longer one, a shorter one, and the entry of another schema.
        let other_schema = String::from_utf8(text.clone())
            .expect("utf-8")
            .replace(
                &format!("\"schema\":{SCHEMA_VERSION}"),
                &format!("\"schema\":{}", SCHEMA_VERSION + 1),
            )
            .into_bytes();
        for (entry, digest) in [
            (&text, "digest-2"),
            (&text, "digest-10"),
            (&text, "digest"),
            (&other_schema, "digest-1"),
        ] {
            let mut counted = Counted {
                inner: entry.as_slice(),
                bytes: 0,
            };
            assert!(read_entry(&mut counted, digest).is_none(), "{digest}");
            let expected = header_line(digest).expect("header").len();
            assert_eq!(counted.bytes, expected, "{digest}: header bytes only");
        }
        // The hit reads everything and returns what was stored.
        let mut counted = Counted {
            inner: text.as_slice(),
            bytes: 0,
        };
        let back = read_entry(&mut counted, "digest-1").expect("hit");
        assert_eq!(counted.bytes, text.len());
        assert_eq!(back.to_jsonl(), report.to_jsonl());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = Cache::new(None);
        assert!(cache.entry_path().is_none());
        cache.store("1234", &AnalysisReport::default());
        assert!(cache.load("1234").is_none());
    }

    #[test]
    fn stale_schema_entries_are_rejected() {
        // Every header field matches except the schema version — exactly
        // what another build's entry looks like after an upgrade. It must
        // miss, not load.
        let (dir, cache) = tmp_cache("schema");
        cache.store("1234", &sample_report());
        let path = cache.entry_path().expect("path");
        let text = std::fs::read_to_string(&path).expect("read");
        let bumped = text.replace(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            &format!("\"schema\":{}", SCHEMA_VERSION + 1),
        );
        assert_ne!(text, bumped, "fixture must actually change the schema");
        std::fs::write(&path, bumped).expect("write");
        assert!(cache.load("1234").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_truncated_entries_miss_without_panicking() {
        let (dir, cache) = tmp_cache("corrupt");
        cache.store("1234", &sample_report());
        let path = cache.entry_path().expect("path");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(cache.load("1234").is_some(), "intact entry hits");
        // Truncated mid-payload (the header survives and matches), inside
        // the header, and to nothing.
        let header_len = text.find('\n').expect("two lines");
        for cut in [text.len() / 2, text.len() - 2, header_len / 2, 0] {
            std::fs::write(&path, &text[..cut]).expect("write");
            assert!(cache.load("1234").is_none(), "cut at {cut}");
        }
        // Outright garbage, as the whole file and as the payload.
        std::fs::write(&path, b"\x00\xff not json at all").expect("write");
        assert!(cache.load("1234").is_none());
        let header = &text[..=header_len];
        std::fs::write(&path, format!("{header}not json at all\n")).expect("write");
        assert!(cache.load("1234").is_none());
        // Valid JSON, wrong shape: whole file, header, payload.
        for wrong in [
            "[1, 2, 3]".to_string(),
            format!("[1, 2, 3]\n{}", &text[header_len + 1..]),
            format!("{header}[1, 2, 3]\n"),
            format!("{header}{{\"files_scanned\":\"many\"}}\n"),
        ] {
            std::fs::write(&path, &wrong).expect("write");
            assert!(cache.load("1234").is_none(), "{wrong:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
