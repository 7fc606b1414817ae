//! Trap-set persistence across test runs (§3.4.6).
//!
//! During the first run TSVD records its trap set in a persistent trap file;
//! at the start of the second run the trap set is initialized from the file,
//! allowing delays to be injected at dangerous pairs even on their *first*
//! occurrence — which is how TSVD catches bugs whose TSVD point executes
//! only once per test (11 of the 53 Table-2 bugs).
//!
//! The file carries exactly what the next run reads: the dangerous pairs,
//! each pair's origin, the pairs at which a violation was already found
//! (§3.4.1), the fork-ordered pairs whose one delay already caught
//! nothing, and the HB edges TSVD inferred (§3.4.4). The next run seeds its
//! HB inference with those edges, settles the found pairs and then the
//! ordered ones before it arms anything, so neither a reported bug nor a
//! pair run 1 found fruitless or ordered is paid for with delays again, run
//! after run, and then arms every other pair in file order. An unordered
//! near miss still lifts an ordered settlement in the next run, as it does
//! within a run; an inferred edge keeps every near miss of its pair out.
//!
//! Readers skip keys they do not know and default the ones that are
//! missing, so files written with extra per-pair columns (`confidences`,
//! `hb_evidence`) still load; those columns are not read.

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
    /// entries are [`PairOrigin::Dynamic`]. Read by the precision score and
    /// by [`merge`](Self::merge), never by arming: every pair arms alike.
    #[serde(default)]
    pub origins: Vec<PairOrigin>,
    /// Pairs at which a violation was already found, as textual site
    /// locations. Never armed again: an import settles them before it arms
    /// `pairs`, so neither a carried pair nor a static prior re-arms a
    /// reported bug. Files written before the field existed carry none.
    #[serde(default)]
    pub found: Vec<(String, String)>,
    /// Fork-ordered pairs whose one delay caught nothing, as textual site
    /// locations. An import settles them as ordered before it arms `pairs`
    /// (a found pair stays found), so an ordered near miss of one arms
    /// nothing in the next run, and an unordered one lifts it. Files
    /// written before the field existed carry none.
    #[serde(default)]
    pub ordered: Vec<(String, String)>,
    /// HB edges TSVD's delay propagation inferred (§3.4.4), as textual site
    /// locations. TSVD's import seeds its inference with them, so a near
    /// miss of one arms nothing in the next run; a pair `pairs` also lists
    /// still arms. TSVD-HB ignores them. Files written before the field
    /// existed carry none.
    #[serde(default)]
    pub inferred: Vec<(String, String)>,
}

// Hand-written rather than derived: the vendored derive cannot leave a
// field out, and `found`, `ordered` and `inferred` are left out of the JSON
// when empty.
impl Serialize for TrapFileData {
    fn to_value(&self) -> serde::Value {
        let mut map = BTreeMap::new();
        map.insert("pairs".to_string(), self.pairs.to_value());
        map.insert("origins".to_string(), self.origins.to_value());
        for (key, pairs) in [
            ("found", &self.found),
            ("ordered", &self.ordered),
            ("inferred", &self.inferred),
        ] {
            if !pairs.is_empty() {
                map.insert(key.to_string(), pairs.to_value());
            }
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
    /// Builds a snapshot from in-memory pairs, all of dynamic origin. The
    /// pairs are written sorted, each one's halves in text order, so two
    /// processes holding the same set write the same file.
    pub fn from_pairs(pairs: &[SitePair]) -> Self {
        Self::from_lists(pairs, &[], &[], &[])
    }

    /// [`from_pairs`](Self::from_pairs) of `pairs`, with `found`, `ordered`
    /// and `inferred` as the found pairs, the ordered settlements and the
    /// inferred HB edges, each spelled like the armed pairs.
    pub fn from_lists(
        pairs: &[SitePair],
        found: &[SitePair],
        ordered: &[SitePair],
        inferred: &[SitePair],
    ) -> Self {
        TrapFileData {
            pairs: sorted_texts(pairs),
            origins: vec![PairOrigin::Dynamic; pairs.len()],
            found: sorted_texts(found),
            ordered: sorted_texts(ordered),
            inferred: sorted_texts(inferred),
        }
    }

    /// The origin of pair `index`; pairs beyond the recorded origins are
    /// dynamic (back-compat with files written before the tag existed).
    pub fn origin(&self, index: usize) -> PairOrigin {
        self.origins.get(index).copied().unwrap_or_default()
    }

    /// Appends a pair in textual form with its origin.
    pub fn push(&mut self, pair: (String, String), origin: PairOrigin) {
        // A file with fewer origins than pairs leaves the missing ones
        // dynamic; spell them out so the new origin lines up with its pair.
        self.origins.resize(self.pairs.len(), PairOrigin::Dynamic);
        self.pairs.push(pair);
        self.origins.push(origin);
    }

    /// Merges `other` into `self`, deduplicating textual pairs, and returns
    /// how many pairs it added — `0` means `self` is unchanged. A pair
    /// present in both keeps `self`'s origin.
    /// `(a, b)` and `(b, a)` are one pair (files written before halves
    /// were exported in text order spell them in intern order); an added
    /// pair keeps `other`'s orientation.
    ///
    /// Its one caller is `run_module_once` in `tsvd-fleet`, which merges
    /// static priors into the trap file a module carries. `self.found`,
    /// `self.ordered` and `self.inferred` are left alone, and `other`'s are
    /// not taken: priors are what to arm, while a found pair is a bug of
    /// the one module that reported it, and an ordered settlement or an
    /// inferred edge is that one module's evidence.
    pub fn merge(&mut self, other: &TrapFileData) -> usize {
        let key = |(a, b): &(String, String)| normalize_pair(a, b);
        let mut known: HashSet<(String, String)> = self.pairs.iter().map(key).collect();
        let fresh: Vec<usize> = (0..other.pairs.len())
            .filter(|&i| known.insert(key(&other.pairs[i])))
            .collect();
        for &i in &fresh {
            self.push(other.pairs[i].clone(), other.origin(i));
        }
        fresh.len()
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

    /// Re-interns the ordered settlements, skipping corrupt text like
    /// [`to_pairs`](Self::to_pairs).
    pub fn ordered_pairs(&self) -> Vec<SitePair> {
        self.ordered.iter().filter_map(parse_pair).collect()
    }

    /// Re-interns the inferred HB edges, skipping corrupt text like
    /// [`to_pairs`](Self::to_pairs).
    pub fn inferred_pairs(&self) -> Vec<SitePair> {
        self.inferred.iter().filter_map(parse_pair).collect()
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
        let round_trips = |pairs: Vec<SitePair>, what: &str| {
            let data = TrapFileData::from_pairs(&pairs);
            let mut back = data.to_pairs();
            back.sort();
            let mut want = pairs;
            want.sort();
            assert_eq!(back, want, "{what}");
        };
        round_trips(
            vec![
                SitePair::new(site(1), site(2)),
                SitePair::new(site(3), site(3)),
            ],
            "two pairs",
        );
        // Up to 39 pairs over 30 sites, repeats and self-pairs included.
        for seed in 0..256 {
            let mut rng = crate::rng::SplitMix64::new(seed);
            let pairs = (0..rng.below(40))
                .map(|_| SitePair::new(site(rng.below(30) as u32), site(rng.below(30) as u32)))
                .collect();
            round_trips(pairs, &format!("seed {seed}"));
        }
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
            found: Vec::new(),
            ordered: Vec::new(),
            inferred: Vec::new(),
        };
        let pairs = data.to_pairs();
        assert_eq!(pairs, vec![SitePair::new(site(20), site(21))]);
    }

    #[test]
    fn origins_round_trip_through_save_and_load() {
        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_origin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        let mut data = TrapFileData::default();
        data.push(
            (site(40).to_string(), site(41).to_string()),
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
    /// the `found` field existed, when every file also carried the
    /// (always empty here) `confidences` and `hb_evidence` columns.
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
    fn a_file_with_no_found_pair_is_written_with_pairs_and_origins_only() {
        let mut data = TrapFileData::default();
        data.push(("a.rs:1:1".into(), "b.rs:2:2".into()), PairOrigin::Dynamic);
        assert_eq!(
            serde_json::to_string_pretty(&data).expect("json"),
            r#"{
  "origins": [
    "dynamic"
  ],
  "pairs": [
    [
      "a.rs:1:1",
      "b.rs:2:2"
    ]
  ]
}"#
        );
    }

    #[test]
    fn a_pre_found_file_loads_with_no_found_pairs() {
        let data: TrapFileData = serde_json::from_str(PRE_FOUND_FILE).expect("parse");
        assert!(data.found.is_empty());
        assert_eq!(data.pairs.len(), 1);
    }

    /// Byte for byte what a fleet run wrote before the trap file lost its
    /// `confidences` and `hb_evidence` columns: a carried file (one
    /// dynamic pair, one found pair) merged with three static priors, one
    /// of them for the found pair.
    const FILE_WITH_CONFIDENCE_COLUMNS: &str = r#"{
  "confidences": [
    1.0,
    0.6477,
    0.8182,
    0.6136
  ],
  "found": [
    [
      "lib.rs:20:5",
      "lib.rs:22:9"
    ]
  ],
  "hb_evidence": [
    "none",
    "window-join:worker",
    "none",
    "channel-partial"
  ],
  "origins": [
    "dynamic",
    "static",
    "static",
    "static"
  ],
  "pairs": [
    [
      "lib.rs:10:5",
      "lib.rs:12:9"
    ],
    [
      "lib.rs:30:5",
      "lib.rs:31:9"
    ],
    [
      "lib.rs:20:5",
      "lib.rs:22:9"
    ],
    [
      "lib.rs:40:5",
      "lib.rs:41:9"
    ]
  ]
}"#;

    #[test]
    fn a_file_with_confidence_columns_loads_and_arms_as_before() {
        let text = |a: &str, b: &str| (a.to_string(), b.to_string());
        let data: TrapFileData = serde_json::from_str(FILE_WITH_CONFIDENCE_COLUMNS).expect("parse");
        assert_eq!(
            data.pairs,
            [
                text("lib.rs:10:5", "lib.rs:12:9"),
                text("lib.rs:30:5", "lib.rs:31:9"),
                text("lib.rs:20:5", "lib.rs:22:9"),
                text("lib.rs:40:5", "lib.rs:41:9"),
            ]
        );
        assert_eq!(
            data.origins,
            [
                PairOrigin::Dynamic,
                PairOrigin::Static,
                PairOrigin::Static,
                PairOrigin::Static
            ]
        );
        assert_eq!(data.found, [text("lib.rs:20:5", "lib.rs:22:9")]);

        // What the runtime exported after importing this file before the
        // columns went: every pair but the found one armed, the found one
        // still found.
        let runtime = crate::Runtime::tsvd(crate::TsvdConfig::for_testing());
        runtime.import_trap_file(&data);
        let exported = runtime.export_trap_file().expect("Tsvd persists");
        assert_eq!(
            exported.pairs,
            [
                text("lib.rs:10:5", "lib.rs:12:9"),
                text("lib.rs:30:5", "lib.rs:31:9"),
                text("lib.rs:40:5", "lib.rs:41:9"),
            ]
        );
        assert_eq!(exported.found, data.found);
    }

    #[test]
    fn found_pairs_round_trip_through_save_and_load() {
        let dir = std::env::temp_dir().join(format!("tsvd_trapfile_found_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        let data = TrapFileData::from_lists(
            &[SitePair::new(site(94), site(95))],
            &[SitePair::new(site(96), site(97))],
            &[],
            &[],
        );
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
    fn merging_priors_leaves_the_carried_found_pairs_alone() {
        let mut merged =
            TrapFileData::from_lists(&[], &[SitePair::new(site(98), site(99))], &[], &[]);
        let other = TrapFileData::from_lists(
            &[SitePair::new(site(100), site(101))],
            &[SitePair::new(site(102), site(103))],
            &[],
            &[],
        );
        assert_eq!(merged.merge(&other), 1);
        assert_eq!(
            merged.found_pairs(),
            vec![SitePair::new(site(98), site(99))]
        );
    }

    #[test]
    fn merging_priors_leaves_the_carried_ordered_settlements_alone() {
        let mut merged =
            TrapFileData::from_lists(&[], &[], &[SitePair::new(site(104), site(105))], &[]);
        let other = TrapFileData::from_lists(
            &[SitePair::new(site(106), site(107))],
            &[],
            &[SitePair::new(site(108), site(109))],
            &[],
        );
        assert_eq!(merged.merge(&other), 1);
        assert_eq!(
            merged.ordered_pairs(),
            vec![SitePair::new(site(104), site(105))],
            "the priors' settlement is not the module's"
        );
        let mut priors_only = TrapFileData::default();
        priors_only.merge(&other);
        assert!(priors_only.ordered.is_empty());
    }

    #[test]
    fn carried_ordered_settlements_round_trip_through_save_and_load() {
        let dir =
            std::env::temp_dir().join(format!("tsvd_trapfile_ordered_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        let data = TrapFileData::from_lists(
            &[SitePair::new(site(110), site(111))],
            &[],
            &[SitePair::new(site(112), site(113))],
            &[],
        );
        data.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(
            text.contains("\"ordered\"") && !text.contains("\"found\""),
            "{text}"
        );
        let loaded = TrapFileData::load(&path).expect("load");
        assert_eq!(loaded, data);
        assert_eq!(
            loaded.ordered_pairs(),
            vec![SitePair::new(site(112), site(113))]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inferred_edges_round_trip_through_save_and_load_and_priors_bring_none() {
        let dir =
            std::env::temp_dir().join(format!("tsvd_trapfile_inferred_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");
        let edges = [
            SitePair::new(site(116), site(117)),
            SitePair::new(site(114), site(115)),
        ];
        let data =
            TrapFileData::from_lists(&[SitePair::new(site(110), site(111))], &[], &[], &edges);
        assert_eq!(
            data.inferred,
            [
                (site(114).to_string(), site(115).to_string()),
                (site(116).to_string(), site(117).to_string()),
            ],
            "sorted text pairs"
        );
        data.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(
            text.contains("\"inferred\"") && !text.contains("\"ordered\""),
            "{text}"
        );
        let loaded = TrapFileData::load(&path).expect("load");
        assert_eq!(loaded, data);
        let mut back = loaded.inferred_pairs();
        back.sort();
        let mut want = edges.to_vec();
        want.sort();
        assert_eq!(back, want);
        std::fs::remove_dir_all(&dir).ok();

        let mut carried = TrapFileData::from_lists(&[], &[], &[], &edges[..1]);
        assert_eq!(carried.merge(&data), 1);
        assert_eq!(
            carried.inferred_pairs(),
            edges[..1],
            "the priors' inference is not the module's"
        );
    }

    /// Byte for byte what a module's trap file was written as before
    /// ordered settlements were carried: one armed pair and one found pair.
    const PRE_ORDERED_FILE: &str = r#"{
  "found": [
    [
      "lib.rs:20:5",
      "lib.rs:22:9"
    ]
  ],
  "origins": [
    "dynamic"
  ],
  "pairs": [
    [
      "lib.rs:10:5",
      "lib.rs:12:9"
    ]
  ]
}"#;

    #[test]
    fn a_file_written_before_ordered_settlements_were_carried_loads_unchanged() {
        let data: TrapFileData = serde_json::from_str(PRE_ORDERED_FILE).expect("parse");
        assert!(data.ordered.is_empty() && data.inferred.is_empty());
        assert_eq!(data.pairs.len(), 1);
        assert_eq!(data.found.len(), 1);
        assert_eq!(
            serde_json::to_string_pretty(&data).expect("json"),
            PRE_ORDERED_FILE,
            "and is written back byte for byte"
        );
        let runtime = crate::Runtime::tsvd(crate::TsvdConfig::for_testing());
        runtime.import_trap_file(&data);
        let exported = runtime.export_trap_file().expect("Tsvd persists");
        assert_eq!((exported.pairs, exported.found), (data.pairs, data.found));
        assert!(exported.ordered.is_empty() && exported.inferred.is_empty());
    }

    #[test]
    fn merge_dedupes_and_keeps_origins() {
        let mut a = TrapFileData::default();
        a.push(
            (site(50).to_string(), site(51).to_string()),
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
                into.push(pair.clone(), other.origin(i));
            }
        }
    }

    #[test]
    fn merge_matches_the_linear_scan_it_replaced_on_random_pair_sets() {
        let mut rng = crate::rng::SplitMix64::new(0x7AA9_F11E);
        // Few distinct sites, so sets overlap, repeat a pair within one
        // file and across files in both orientations, and mix origins.
        let random_file = |rng: &mut crate::rng::SplitMix64| {
            let mut data = TrapFileData::default();
            for _ in 0..rng.next() % 12 {
                let pair = (
                    format!("m.rs:{}:1", rng.next() % 4),
                    format!("m.rs:{}:1", rng.next() % 4),
                );
                let origin = if rng.below(2) == 0 {
                    PairOrigin::Dynamic
                } else {
                    PairOrigin::Static
                };
                data.push(pair, origin);
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
