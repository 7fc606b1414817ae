//! Trap-set persistence across test runs (§3.4.6).
//!
//! During the first run TSVD records its trap set in a persistent trap file;
//! at the start of the second run the trap set is initialized from the file,
//! allowing delays to be injected at dangerous pairs even on their *first*
//! occurrence — which is how TSVD catches bugs whose TSVD point executes
//! only once per test (11 of the 53 Table-2 bugs).
//!
//! The file also carries the pairs at which a violation was already found
//! (§3.4.1): the next run settles them before it arms anything, so a
//! reported bug is not paid for with delays again, run after run.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::near_miss::SitePair;
use crate::sink::normalize_pair;
use crate::site::SiteId;

/// Where a persisted dangerous pair came from.
///
/// The dynamic detector discovers pairs through near misses at run time;
/// the static front end (`tsvd-analyze`) predicts them from source before
/// any run. Tagging the origin keeps statically seeded priors
/// distinguishable in reports and lets a later run measure how much each
/// source contributed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PairOrigin {
    /// Discovered by the runtime (near-miss tracking). The default: trap
    /// files written before the tag existed deserialize as dynamic.
    #[default]
    Dynamic,
    /// Predicted by the static analyzer.
    Static,
}

impl PairOrigin {
    /// Stable textual form used in the file format.
    pub fn as_str(self) -> &'static str {
        match self {
            PairOrigin::Dynamic => "dynamic",
            PairOrigin::Static => "static",
        }
    }
}

// The vendored serde derive covers named-field structs only, so the enum
// carries hand-written impls (string-valued; unknown text degrades to the
// back-compat default rather than poisoning the whole file).
impl Serialize for PairOrigin {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for PairOrigin {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(match value {
            serde::Value::Str(s) if s == "static" => PairOrigin::Static,
            _ => PairOrigin::Dynamic,
        })
    }
}

/// Serializable snapshot of a trap set.
#[derive(Debug, Clone, Default, Deserialize, PartialEq)]
pub struct TrapFileData {
    /// Dangerous pairs, as textual site locations (`file:line:column`).
    pub pairs: Vec<(String, String)>,
    /// Per-pair origin, parallel to `pairs`. May be shorter than `pairs`
    /// (files written by older builds have no origins at all); missing
    /// entries are [`PairOrigin::Dynamic`].
    #[serde(default)]
    pub origins: Vec<PairOrigin>,
    /// Per-pair analysis confidence in (0, 1], parallel to `pairs`. May be
    /// shorter than `pairs` (files written before the field existed carry
    /// none); missing entries are `1.0` — a pair with no recorded evidence
    /// grade is trusted fully, which is exactly the pre-confidence
    /// behaviour. Confidence orders trap arming under budget pressure; it
    /// never gates membership by itself.
    #[serde(default)]
    pub confidences: Vec<f64>,
    /// Per-pair happens-before evidence label from the static analyzer
    /// (`window-join:<h>`, `window-scope`, `channel-partial`, ...),
    /// parallel to `pairs`. May be shorter than `pairs` (files written
    /// before the field existed carry none); missing entries are `"none"`.
    /// Purely descriptive today — its confidence effect is already baked
    /// into `confidences` — but repair classification reads it to name the
    /// join handle a fix should use.
    #[serde(default)]
    pub hb_evidence: Vec<String>,
    /// Pairs at which a violation was already found, as textual site
    /// locations. Never armed again: an import settles them before it arms
    /// `pairs`, so neither a carried pair nor a static prior re-arms a
    /// reported bug. Files written before the field existed carry none.
    #[serde(default)]
    pub found: Vec<(String, String)>,
}

// Hand-written rather than derived: `found` is left out of the JSON when it
// is empty, so a file with no found pair is byte-identical to one written
// before the field existed.
impl Serialize for TrapFileData {
    fn to_value(&self) -> serde::Value {
        let mut map = BTreeMap::new();
        map.insert("pairs".to_string(), self.pairs.to_value());
        map.insert("origins".to_string(), self.origins.to_value());
        map.insert("confidences".to_string(), self.confidences.to_value());
        map.insert("hb_evidence".to_string(), self.hb_evidence.to_value());
        if !self.found.is_empty() {
            map.insert("found".to_string(), self.found.to_value());
        }
        serde::Value::Object(map)
    }
}

/// A pair's two sites as text, in text order: the spelling does not depend
/// on the order the exporting process happened to intern the sites in.
fn pair_text(pair: &SitePair) -> (String, String) {
    normalize_pair(&pair.first.to_string(), &pair.second.to_string())
}

/// Re-interns a textual pair, or `None` if its text is corrupt.
fn parse_pair((a, b): &(String, String)) -> Option<SitePair> {
    Some(SitePair::new(SiteId::parse(a)?, SiteId::parse(b)?))
}

/// `pairs` as sorted text, each pair's halves in text order.
fn sorted_texts(pairs: &[SitePair]) -> Vec<(String, String)> {
    let mut texts: Vec<(String, String)> = pairs.iter().map(pair_text).collect();
    texts.sort();
    texts
}

impl TrapFileData {
    /// Builds a snapshot from in-memory pairs (dynamic origin).
    pub fn from_pairs(pairs: &[SitePair]) -> Self {
        Self::from_pairs_with_origin(pairs, PairOrigin::Dynamic)
    }

    /// Builds a snapshot from in-memory pairs with an explicit origin. The
    /// pairs are written sorted, each one's halves in text order, so two
    /// processes holding the same set write the same file.
    pub fn from_pairs_with_origin(pairs: &[SitePair], origin: PairOrigin) -> Self {
        TrapFileData {
            pairs: sorted_texts(pairs),
            origins: vec![origin; pairs.len()],
            confidences: Vec::new(),
            hb_evidence: Vec::new(),
            found: Vec::new(),
        }
    }

    /// Records `found` as the pairs at which a violation was already found,
    /// spelled like [`from_pairs`](Self::from_pairs) spells armed pairs.
    pub fn with_found(mut self, found: &[SitePair]) -> Self {
        self.found = sorted_texts(found);
        self
    }

    /// The origin of pair `index`; pairs beyond the recorded origins are
    /// dynamic (back-compat with files written before the tag existed).
    pub fn origin(&self, index: usize) -> PairOrigin {
        self.origins.get(index).copied().unwrap_or_default()
    }

    /// The confidence of pair `index`; pairs beyond the recorded
    /// confidences are `1.0` (back-compat with files written before the
    /// field existed).
    pub fn confidence(&self, index: usize) -> f64 {
        self.confidences.get(index).copied().unwrap_or(1.0)
    }

    /// The happens-before evidence label of pair `index`; pairs beyond the
    /// recorded labels are `"none"` (back-compat with files written before
    /// the field existed).
    pub fn hb_evidence(&self, index: usize) -> &str {
        self.hb_evidence.get(index).map_or("none", String::as_str)
    }

    /// Appends a pair in textual form with its origin.
    pub fn push(&mut self, pair: (String, String), origin: PairOrigin) {
        self.push_with_confidence(pair, origin, 1.0);
    }

    /// Appends a pair with an explicit origin and confidence.
    pub fn push_with_confidence(
        &mut self,
        pair: (String, String),
        origin: PairOrigin,
        confidence: f64,
    ) {
        self.push_full(pair, origin, confidence, "none");
    }

    /// Appends a pair with origin, confidence, and happens-before evidence.
    pub fn push_full(
        &mut self,
        pair: (String, String),
        origin: PairOrigin,
        confidence: f64,
        hb: &str,
    ) {
        // Materialize implicit defaults first so the parallel vectors stay
        // aligned once a non-default entry appears. Confidences and HB
        // labels stay lazy until the first non-default value so purely
        // dynamic files keep their pre-confidence shape on disk.
        while self.origins.len() < self.pairs.len() {
            self.origins.push(PairOrigin::Dynamic);
        }
        if confidence != 1.0 || !self.confidences.is_empty() {
            while self.confidences.len() < self.pairs.len() {
                self.confidences.push(1.0);
            }
            self.confidences.push(confidence);
        }
        if hb != "none" || !self.hb_evidence.is_empty() {
            while self.hb_evidence.len() < self.pairs.len() {
                self.hb_evidence.push("none".to_string());
            }
            self.hb_evidence.push(hb.to_string());
        }
        self.pairs.push(pair);
        self.origins.push(origin);
    }

    /// Merges `other` into `self`, deduplicating textual pairs, and returns
    /// how many pairs it added — `0` means `self` is unchanged, so a caller
    /// that persists `self` has nothing to write. A pair present in both
    /// keeps `self`'s origin, confidence, and evidence.
    /// `(a, b)` and `(b, a)` are one pair (files written before halves
    /// were exported in text order spell them in intern order); an added
    /// pair keeps `other`'s orientation.
    ///
    /// `self.found` is left alone and `other.found` is not taken: a merged
    /// file is a union of what to arm, across modules, while a found pair
    /// is a bug of the one module that reported it.
    pub fn merge(&mut self, other: &TrapFileData) -> usize {
        let key = |(a, b): &(String, String)| normalize_pair(a, b);
        let mut known: HashSet<(String, String)> = self.pairs.iter().map(key).collect();
        let fresh: Vec<usize> = (0..other.pairs.len())
            .filter(|&i| known.insert(key(&other.pairs[i])))
            .collect();
        for &i in &fresh {
            self.push_full(
                other.pairs[i].clone(),
                other.origin(i),
                other.confidence(i),
                other.hb_evidence(i),
            );
        }
        fresh.len()
    }

    /// Re-interns the pair at `index`, or `None` if its text is corrupt.
    pub fn pair_at(&self, index: usize) -> Option<SitePair> {
        parse_pair(self.pairs.get(index)?)
    }

    /// Pair indices ordered for arming: highest confidence first. Ties are
    /// broken by content, not position — origin first (a near miss actually
    /// observed at run time outranks a static prediction graded equally),
    /// then the lexicographic site-pair text. Merged trap files are
    /// assembled from per-worker maps whose iteration order varies run to
    /// run; a positional tie-break would arm *different* equal-confidence
    /// pairs under a finite `trap_import_budget` depending on merge order.
    /// Content tie-breaks make the armed set a pure function of the file's
    /// pair set.
    pub fn arming_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.pairs.len()).collect();
        order.sort_by(|&a, &b| {
            self.confidence(b)
                .partial_cmp(&self.confidence(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    let rank = |o: PairOrigin| match o {
                        PairOrigin::Dynamic => 0u8,
                        PairOrigin::Static => 1u8,
                    };
                    rank(self.origin(a)).cmp(&rank(self.origin(b)))
                })
                .then_with(|| self.pairs[a].cmp(&self.pairs[b]))
        });
        order
    }

    /// Number of pairs tagged with `origin`.
    pub fn count_origin(&self, origin: PairOrigin) -> usize {
        (0..self.pairs.len())
            .filter(|&i| self.origin(i) == origin)
            .count()
    }

    /// Re-interns the stored pairs. Pairs whose text cannot be parsed are
    /// skipped — a corrupt line must not poison the whole run.
    pub fn to_pairs(&self) -> Vec<SitePair> {
        self.pairs.iter().filter_map(parse_pair).collect()
    }

    /// Re-interns the found pairs, skipping corrupt text like
    /// [`to_pairs`](Self::to_pairs).
    pub fn found_pairs(&self) -> Vec<SitePair> {
        self.found.iter().filter_map(parse_pair).collect()
    }

    /// Writes the snapshot as JSON, crash-safely (see
    /// [`save_atomic`](crate::record::save_atomic)): a crash mid-save leaves
    /// either the old trap file or the new one — never a truncated hybrid.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        crate::record::save_atomic(path, json)
    }

    /// Loads a snapshot from JSON. A *missing* file is an error (callers
    /// distinguish first runs from later ones), but an unreadable or
    /// corrupt file — a crash mid-write by an older, non-atomic saver, a
    /// truncated copy — degrades to an empty trap set with a warning:
    /// losing one run's head start must not fail the whole test suite.
    pub fn load(path: &Path) -> io::Result<TrapFileData> {
        let text = std::fs::read_to_string(path)?;
        match serde_json::from_str(&text) {
            Ok(data) => Ok(data),
            Err(e) => {
                eprintln!(
                    "tsvd: trap file {} is corrupt ({e}); starting with an empty trap set",
                    path.display()
                );
                Ok(TrapFileData::default())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteData;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "trap_file_test.rs",
            line: n,
            column: 1,
        })
    }

    #[test]
    fn pairs_round_trip_in_memory() {
        let pairs = vec![
            SitePair::new(site(1), site(2)),
            SitePair::new(site(3), site(3)),
        ];
        let data = TrapFileData::from_pairs(&pairs);
        let mut back = data.to_pairs();
        back.sort();
        let mut want = pairs.clone();
        want.sort();
        assert_eq!(back, want);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        let pairs = vec![SitePair::new(site(10), site(11))];
        let data = TrapFileData::from_pairs(&pairs);
        data.save(&path).expect("save");
        let loaded = TrapFileData::load(&path).expect("load");
        assert_eq!(loaded, data);
        assert_eq!(loaded.to_pairs(), pairs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_are_skipped() {
        let data = TrapFileData {
            pairs: vec![
                ("not-a-site".into(), "also:bad".into()),
                (site(20).to_string(), site(21).to_string()),
            ],
            origins: Vec::new(),
            confidences: Vec::new(),
            hb_evidence: Vec::new(),
            found: Vec::new(),
        };
        let pairs = data.to_pairs();
        assert_eq!(pairs, vec![SitePair::new(site(20), site(21))]);
    }

    #[test]
    fn origins_round_trip_through_save_and_load() {
        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_origin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        let mut data = TrapFileData::from_pairs_with_origin(
            &[SitePair::new(site(40), site(41))],
            PairOrigin::Static,
        );
        data.push(
            (site(42).to_string(), site(43).to_string()),
            PairOrigin::Dynamic,
        );
        data.save(&path).expect("save");
        let loaded = TrapFileData::load(&path).expect("load");
        assert_eq!(loaded, data);
        assert_eq!(loaded.origin(0), PairOrigin::Static);
        assert_eq!(loaded.origin(1), PairOrigin::Dynamic);
        assert_eq!(loaded.count_origin(PairOrigin::Static), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_origin_field_defaults_to_dynamic() {
        // A file written before the origin tag existed: pairs only.
        let dir =
            std::env::temp_dir().join(format!("tsvd_trapfile_backcompat_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        std::fs::write(&path, r#"{"pairs": [["a.rs:1:1", "b.rs:2:2"]]}"#).expect("write");
        let loaded = TrapFileData::load(&path).expect("load");
        assert_eq!(loaded.pairs.len(), 1);
        assert!(loaded.origins.is_empty());
        assert_eq!(loaded.origin(0), PairOrigin::Dynamic);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Exactly what a dynamic trap set with one pair was written as before
    /// the `found` field existed.
    const PRE_FOUND_FILE: &str = r#"{
  "confidences": [],
  "hb_evidence": [],
  "origins": [
    "dynamic"
  ],
  "pairs": [
    [
      "a.rs:1:1",
      "b.rs:2:2"
    ]
  ]
}"#;

    #[test]
    fn a_file_with_no_found_pair_is_written_as_before_the_field_existed() {
        let mut data = TrapFileData::default();
        data.push(("a.rs:1:1".into(), "b.rs:2:2".into()), PairOrigin::Dynamic);
        assert_eq!(
            serde_json::to_string_pretty(&data).expect("json"),
            PRE_FOUND_FILE
        );
    }

    #[test]
    fn a_pre_found_file_loads_with_no_found_pairs() {
        let data: TrapFileData = serde_json::from_str(PRE_FOUND_FILE).expect("parse");
        assert!(data.found.is_empty());
        assert_eq!(data.pairs.len(), 1);
    }

    #[test]
    fn found_pairs_round_trip_through_save_and_load() {
        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_found_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        let data = TrapFileData::from_pairs(&[SitePair::new(site(94), site(95))])
            .with_found(&[SitePair::new(site(96), site(97))]);
        data.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains("\"found\""), "{text}");
        let loaded = TrapFileData::load(&path).expect("load");
        assert_eq!(loaded, data);
        assert_eq!(
            loaded.found_pairs(),
            vec![SitePair::new(site(96), site(97))]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_leaves_found_pairs_alone() {
        let mut merged = TrapFileData::default().with_found(&[SitePair::new(site(98), site(99))]);
        let other = TrapFileData::from_pairs(&[SitePair::new(site(100), site(101))])
            .with_found(&[SitePair::new(site(102), site(103))]);
        assert_eq!(merged.merge(&other), 1);
        assert_eq!(
            merged.found_pairs(),
            vec![SitePair::new(site(98), site(99))]
        );
    }

    #[test]
    fn merge_dedupes_and_keeps_origins() {
        let mut a = TrapFileData::from_pairs_with_origin(
            &[SitePair::new(site(50), site(51))],
            PairOrigin::Static,
        );
        let mut b = TrapFileData::from_pairs(&[SitePair::new(site(50), site(51))]);
        b.push(
            (site(52).to_string(), site(53).to_string()),
            PairOrigin::Dynamic,
        );
        assert_eq!(a.merge(&b), 1, "one pair was new");
        assert_eq!(a.pairs.len(), 2, "shared pair must not duplicate");
        assert_eq!(a.origin(0), PairOrigin::Static, "self's origin wins");
        assert_eq!(a.origin(1), PairOrigin::Dynamic);
        let merged = a.clone();
        assert_eq!(a.merge(&b), 0, "a subset adds nothing");
        assert_eq!(a.merge(&TrapFileData::default()), 0);
        assert_eq!(a, merged, "and changes nothing");
    }

    #[test]
    fn merge_dedupes_a_pair_in_either_orientation_and_keeps_what_was_written() {
        let pair = |a: u32, b: u32| (format!("m.rs:{a}:1"), format!("m.rs:{b}:1"));
        let mut merged = TrapFileData::default();
        merged.push(pair(2, 1), PairOrigin::Dynamic);
        let mut delta = TrapFileData::default();
        delta.push(pair(1, 2), PairOrigin::Dynamic);
        delta.push(pair(3, 1), PairOrigin::Dynamic);
        assert_eq!(
            merged.merge(&delta),
            1,
            "(1, 2) is (2, 1) seen the other way"
        );
        assert_eq!(merged.pairs, [pair(2, 1), pair(3, 1)]);
        assert_eq!(merged.merge(&delta), 0, "nothing new, nothing to rewrite");
    }

    /// `merge` as a linear scan per pair: a pair is known if `into` holds
    /// it in either orientation.
    fn merge_by_scan(into: &mut TrapFileData, other: &TrapFileData) {
        for (i, pair) in other.pairs.iter().enumerate() {
            let swapped = (pair.1.clone(), pair.0.clone());
            if !into.pairs.contains(pair) && !into.pairs.contains(&swapped) {
                into.push_full(
                    pair.clone(),
                    other.origin(i),
                    other.confidence(i),
                    other.hb_evidence(i),
                );
            }
        }
    }

    #[test]
    fn merge_matches_the_linear_scan_it_replaced_on_random_pair_sets() {
        let mut rng = crate::rng::SplitMix64::new(0x7AA9_F11E);
        // Few distinct sites, so sets overlap, repeat a pair within one
        // file and across files in both orientations, and mix default with
        // explicit metadata.
        let random_file = |rng: &mut crate::rng::SplitMix64| {
            let mut data = TrapFileData::default();
            for _ in 0..rng.next() % 12 {
                let pair = (
                    format!("m.rs:{}:1", rng.next() % 4),
                    format!("m.rs:{}:1", rng.next() % 4),
                );
                match rng.next() % 3 {
                    0 => data.push(pair, PairOrigin::Dynamic),
                    1 => data.push_with_confidence(pair, PairOrigin::Static, 0.5),
                    _ => data.push_full(pair, PairOrigin::Static, 0.25, "window-scope"),
                }
            }
            data
        };
        for round in 0..1_000 {
            let (base, delta) = (random_file(&mut rng), random_file(&mut rng));
            let (mut fast, mut scan) = (base.clone(), base.clone());
            let added = fast.merge(&delta);
            merge_by_scan(&mut scan, &delta);
            assert_eq!(fast, scan, "round {round}");
            assert_eq!(added, fast.pairs.len() - base.pairs.len(), "round {round}");
            assert_eq!(
                serde_json::to_string_pretty(&fast).expect("json"),
                serde_json::to_string_pretty(&scan).expect("json"),
                "round {round}: identical files"
            );
        }
    }

    #[test]
    fn confidences_round_trip_through_save_and_load() {
        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_conf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        let mut data = TrapFileData::default();
        data.push_with_confidence(
            (site(60).to_string(), site(61).to_string()),
            PairOrigin::Static,
            0.75,
        );
        data.push(
            (site(62).to_string(), site(63).to_string()),
            PairOrigin::Dynamic,
        );
        data.save(&path).expect("save");
        let loaded = TrapFileData::load(&path).expect("load");
        assert_eq!(loaded, data);
        assert!((loaded.confidence(0) - 0.75).abs() < 1e-9);
        assert!((loaded.confidence(1) - 1.0).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dynamic_only_files_keep_the_pre_confidence_shape() {
        // Pairs pushed with no explicit confidence must not materialize the
        // confidences vector: the on-disk JSON stays byte-compatible with
        // what PR-3 builds wrote for dynamic trap sets.
        let data = TrapFileData::from_pairs(&[SitePair::new(site(64), site(65))]);
        assert!(data.confidences.is_empty());
        let mut pushed = TrapFileData::default();
        pushed.push(
            (site(66).to_string(), site(67).to_string()),
            PairOrigin::Dynamic,
        );
        assert!(pushed.confidences.is_empty());
        assert!((pushed.confidence(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pre_confidence_file_loads_and_merges() {
        // Acceptance: a trap file written by PR 3 (origins, no confidence
        // field) still loads, defaults every pair to 1.0, and merges into a
        // confidence-carrying set without misaligning the parallel vectors.
        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_pr3_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        std::fs::write(
            &path,
            r#"{"pairs": [["a.rs:1:1", "b.rs:2:2"]], "origins": ["static"]}"#,
        )
        .expect("write");
        let loaded = TrapFileData::load(&path).expect("load");
        assert!(loaded.confidences.is_empty());
        assert!((loaded.confidence(0) - 1.0).abs() < 1e-9);

        let mut target = TrapFileData::default();
        target.push_with_confidence(
            ("c.rs:3:3".to_string(), "d.rs:4:4".to_string()),
            PairOrigin::Static,
            0.5,
        );
        target.merge(&loaded);
        assert_eq!(target.pairs.len(), 2);
        assert!((target.confidence(0) - 0.5).abs() < 1e-9);
        assert!(
            (target.confidence(1) - 1.0).abs() < 1e-9,
            "merged pre-confidence pair defaults to full trust"
        );
        assert_eq!(target.origin(1), PairOrigin::Static);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hb_evidence_stays_lazy_and_round_trips() {
        // Default labels never materialize the vector (pre-HB on-disk shape
        // preserved); the first real label backfills and round-trips.
        let mut data = TrapFileData::default();
        data.push_with_confidence(
            (site(90).to_string(), site(91).to_string()),
            PairOrigin::Static,
            0.8,
        );
        assert!(data.hb_evidence.is_empty());
        assert_eq!(data.hb_evidence(0), "none");
        data.push_full(
            (site(92).to_string(), site(93).to_string()),
            PairOrigin::Static,
            0.6,
            "window-join:h",
        );
        assert_eq!(data.hb_evidence.len(), 2, "backfilled then appended");
        assert_eq!(data.hb_evidence(0), "none");
        assert_eq!(data.hb_evidence(1), "window-join:h");

        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_hb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        data.save(&path).expect("save");
        let loaded = TrapFileData::load(&path).expect("load");
        assert_eq!(loaded, data);
        assert_eq!(loaded.hb_evidence(1), "window-join:h");

        // A pre-HB file (no hb_evidence key) loads with "none" everywhere.
        std::fs::write(
            &path,
            r#"{"pairs": [["a.rs:1:1", "b.rs:2:2"]], "origins": ["static"]}"#,
        )
        .expect("write");
        let old = TrapFileData::load(&path).expect("load");
        assert!(old.hb_evidence.is_empty());
        assert_eq!(old.hb_evidence(0), "none");

        // Merging carries the label across.
        let mut target = old.clone();
        target.merge(&data);
        assert_eq!(target.pairs.len(), 3);
        assert_eq!(target.hb_evidence(2), "window-join:h");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_keeps_self_confidence_for_shared_pairs() {
        let pair = (site(70).to_string(), site(71).to_string());
        let mut a = TrapFileData::default();
        a.push_full(pair.clone(), PairOrigin::Static, 0.9, "window-scope");
        let mut b = TrapFileData::default();
        b.push_full(pair, PairOrigin::Dynamic, 0.2, "channel-partial");
        b.push_with_confidence(
            (site(72).to_string(), site(73).to_string()),
            PairOrigin::Static,
            0.4,
        );
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.pairs.len(), 2);
        assert!((a.confidence(0) - 0.9).abs() < 1e-9, "self's grade wins");
        assert_eq!(a.origin(0), PairOrigin::Static, "and self's origin");
        assert_eq!(a.hb_evidence(0), "window-scope", "and self's evidence");
        assert!(
            (a.confidence(1) - 0.4).abs() < 1e-9,
            "new pair keeps other's"
        );
    }

    #[test]
    fn arming_order_ranks_confidence_then_origin_then_pair_text() {
        let mut data = TrapFileData::default();
        // Two equal-confidence static pairs pushed in reverse textual
        // order, one equal-confidence dynamic pair, one lower-confidence
        // pair pushed first.
        data.push_with_confidence(
            ("z.rs:9:1".to_string(), "z.rs:9:2".to_string()),
            PairOrigin::Static,
            0.5,
        );
        data.push_with_confidence(
            ("b.rs:2:1".to_string(), "b.rs:2:2".to_string()),
            PairOrigin::Static,
            0.8,
        );
        data.push_with_confidence(
            ("a.rs:1:1".to_string(), "a.rs:1:2".to_string()),
            PairOrigin::Static,
            0.8,
        );
        data.push_with_confidence(
            ("y.rs:8:1".to_string(), "y.rs:8:2".to_string()),
            PairOrigin::Dynamic,
            0.8,
        );
        let order = data.arming_order();
        let ranked: Vec<&str> = order.iter().map(|&i| data.pairs[i].0.as_str()).collect();
        // 0.8 ties: the dynamic pair first, then statics by pair text;
        // the 0.5 pair last despite being pushed first.
        assert_eq!(ranked, vec!["y.rs:8:1", "a.rs:1:1", "b.rs:2:1", "z.rs:9:1"]);
    }

    #[test]
    fn arming_order_is_invariant_under_merge_order() {
        // Satellite regression: the same pair set assembled in different
        // orders (as a fleet merge over hash-map iteration would) must
        // produce the identical arming order, so a finite import budget
        // arms the identical set.
        let mk = |n: u32, conf: f64, origin: PairOrigin| {
            let mut d = TrapFileData::default();
            d.push_with_confidence(
                (format!("m{n}.rs:{n}:1"), format!("m{n}.rs:{n}:2")),
                origin,
                conf,
            );
            d
        };
        let parts = [
            mk(1, 0.7, PairOrigin::Static),
            mk(2, 0.7, PairOrigin::Static),
            mk(3, 0.7, PairOrigin::Dynamic),
            mk(4, 0.9, PairOrigin::Static),
            mk(5, 0.7, PairOrigin::Static),
        ];
        let armed_texts = |merge_order: &[usize]| -> Vec<(String, String)> {
            let mut merged = TrapFileData::default();
            for &i in merge_order {
                merged.merge(&parts[i]);
            }
            merged
                .arming_order()
                .into_iter()
                .map(|i| merged.pairs[i].clone())
                .collect()
        };
        let forward = armed_texts(&[0, 1, 2, 3, 4]);
        let reverse = armed_texts(&[4, 3, 2, 1, 0]);
        let shuffled = armed_texts(&[2, 4, 0, 3, 1]);
        assert_eq!(forward, reverse);
        assert_eq!(forward, shuffled);
    }

    #[test]
    fn pair_at_reinterns_and_skips_corrupt_text() {
        let mut data = TrapFileData::default();
        data.push(
            (site(80).to_string(), site(81).to_string()),
            PairOrigin::Dynamic,
        );
        data.push(
            ("garbage".to_string(), "x:y:z".to_string()),
            PairOrigin::Dynamic,
        );
        assert_eq!(data.pair_at(0), Some(SitePair::new(site(80), site(81))));
        assert_eq!(data.pair_at(1), None);
        assert_eq!(data.pair_at(2), None);
    }

    #[test]
    fn unknown_origin_text_degrades_to_dynamic() {
        use serde::Deserialize;
        let v = serde::Value::Str("martian".to_string());
        assert_eq!(PairOrigin::from_value(&v).unwrap(), PairOrigin::Dynamic);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(TrapFileData::load(Path::new("/nonexistent/tsvd.json")).is_err());
    }

    #[test]
    fn load_corrupt_file_degrades_to_empty() {
        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        // A truncated save from a crashed, non-atomic writer.
        std::fs::write(&path, "{\"pairs\": [[\"a:1:1\", \"b:2").expect("write");
        let loaded = TrapFileData::load(&path).expect("corrupt file must not error");
        assert!(loaded.pairs.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        TrapFileData::from_pairs(&[SitePair::new(site(30), site(31))])
            .save(&path)
            .expect("first save");
        // Overwrite with different content: the rename path.
        let second = TrapFileData::from_pairs(&[SitePair::new(site(32), site(33))]);
        second.save(&path).expect("second save");
        assert_eq!(TrapFileData::load(&path).expect("load"), second);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read_dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive a save");
        std::fs::remove_dir_all(&dir).ok();
    }
}
