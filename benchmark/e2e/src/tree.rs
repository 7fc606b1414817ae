//! The generated source tree the analyzer workloads run on.
//!
//! `crates/c<k>/src/m<nnn>.rs`, every file the same mix: one helper chain
//! that crosses into the next two files of its crate, one region each of
//! the kinds the analyzer treats differently (unguarded race, consistently
//! guarded, join-ordered, channel-ordered), and a slab of inert guarded
//! helpers that make the file as long as a real one. The mix is fixed, so
//! the work does not depend on the seed; the seed picks the order of the
//! regions in each file and every constant in them. Because each file
//! plants the same regions, the generator knows how many sites, pairs and
//! pruned pairs the analyzer must report, and the workloads check that.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::rng::{sub_seed, SplitMix64};

/// Shape of a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSpec {
    /// `crates/c*/src/` directories.
    pub crates: usize,
    /// Files in each.
    pub files_per_crate: usize,
    /// Inert guarded helpers per file.
    pub slabs_per_file: usize,
}

impl TreeSpec {
    /// Number of source files.
    pub fn files(&self) -> usize {
        self.crates * self.files_per_crate
    }
}

/// What a tree contains, as the analyzer must report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Planted {
    /// Source files.
    pub files: usize,
    /// Source bytes.
    pub bytes: u64,
    /// Instrumented-collection call sites.
    pub sites: usize,
    /// Dangerous pairs that survive pruning.
    pub pairs: usize,
    /// Pairs pruned by lockset or happens-before evidence.
    pub pruned_pairs: usize,
}

/// Sites the analyzer lists per file: unguarded 4, guarded 3, join-ordered
/// 3, channel-ordered 3, and the fan-out's three accesses, which materialize
/// at the helpers' positions in the next two files. Accesses through a
/// parameter (the helpers' own bodies, the slab) are summarized for callers
/// but are not sites themselves.
const FILE_SITES: usize = 4 + 3 + 3 + 3 + 3;

/// Surviving pairs per file: unguarded 4, join window 1, channel tail 1,
/// fan-out 2 (the relayed write and the relay's read, each against the
/// direct write).
const FILE_PAIRS: usize = 4 + 1 + 1 + 2;

/// Pruned pairs per file: guarded 2, join-ordered 1, channel-ordered 1.
const FILE_PRUNED: usize = 2 + 1 + 1;

/// Root-relative path of file `file` of crate `krate`.
pub fn rel_path(krate: usize, file: usize) -> String {
    format!("crates/c{krate}/src/m{file:03}.rs")
}

// Source templates. `@id` names this file, `@next` the next file of the
// crate, and every `@k` becomes a fresh seeded constant.

const HEADER: &str = "\
use std::sync::mpsc;
use tsvd_collections::Dictionary;
use tsvd_tasks::sync::TsvdMutex;
use tsvd_tasks::Pool;

";

/// Exported helpers: `bump` touches its parameter, `relay` reads it and
/// passes it one file further. The previous file's fan-out reaches both.
const HELPERS: &str = "\
pub fn bump_@id(d: &Dictionary<u64, u64>, key: u64) {
    d.set(key, @k);
}

pub fn relay_@id(d: &Dictionary<u64, u64>, key: u64) {
    d.get(&key);
    bump_@next(d, key + @k);
}

";

/// Cross-file helper flow: one clone goes two hops, the other one.
const FAN_OUT: &str = "\
fn fan_out_@id(pool: &Pool) {
    let counts = Dictionary::new();
    let c1 = counts.clone();
    let c2 = counts.clone();
    pool.spawn(move || relay_@next(&c1, @k));
    pool.spawn(move || bump_@next(&c2, @k));
}

";

const UNGUARDED: &str = "\
fn unguarded_@id(pool: &Pool) {
    let shared = Dictionary::new();
    let a = shared.clone();
    let b = shared.clone();
    pool.spawn(move || a.set(@k, @k));
    pool.spawn(move || {
        b.set(@k, @k);
        b.get(&@k);
    });
    shared.len();
}

";

const GUARDED: &str = "\
fn guarded_@id(pool: &Pool) {
    let table = Dictionary::new();
    let lock = TsvdMutex::new(0u32);
    let t1 = table.clone();
    let l1 = lock.clone();
    let t2 = table.clone();
    let l2 = lock.clone();
    pool.spawn(move || {
        let g = l1.lock();
        t1.set(@k, @k);
    });
    pool.spawn(move || {
        let g = l2.lock();
        t2.set(@k, @k);
        t2.get(&@k);
    });
}

";

const JOINED: &str = "\
fn joined_@id(pool: &Pool) {
    let ledger = Dictionary::new();
    let l1 = ledger.clone();
    let worker = pool.spawn(move || l1.set(@k, @k));
    ledger.set(@k, @k);
    let _ = worker.join();
    ledger.set(@k, @k);
}

";

const HANDOFF: &str = "\
fn handoff_@id(pool: &Pool) {
    let stats = Dictionary::new();
    let s1 = stats.clone();
    let (tx, rx) = mpsc::channel();
    pool.spawn(move || {
        s1.set(@k, @k);
        tx.send(1);
        s1.set(@k, @k);
    });
    rx.recv();
    stats.set(@k, @k);
}

";

/// Inert filler: a guarded single access through a parameter, which the
/// analyzer lexes and summarizes and then has no use for.
const SLAB: &str = "\
/// Records one sample of unit @id; the mutex keeps the slot private,
/// so the analyzer summarizes the function and then discards it.
pub fn sample_@id_@k(d: &Dictionary<u64, u64>, m: &TsvdMutex<u32>) {
    let guard = m.lock();
    let bucket = (@ku64).wrapping_mul(31).wrapping_add(@k);
    let weight = bucket ^ (bucket >> 7) ^ 0x9e37;
    let label = \"unit @id sample @k checkpoint\";
    let _ = label.len() + weight as usize;
    d.set(bucket, weight);
}

";

/// Instantiates a template (see the marker list above).
fn fill(template: &str, id: &str, next: &str, rng: &mut SplitMix64) -> String {
    let named = template.replace("@id", id).replace("@next", next);
    let mut out = String::with_capacity(named.len() + 64);
    let mut parts = named.split("@k");
    out.push_str(parts.next().unwrap_or_default());
    for part in parts {
        let _ = write!(out, "{}", rng.below(1_000_000));
        out.push_str(part);
    }
    out
}

/// Renders one source file. The helper chain of file `f` calls into files
/// `f+1` and `f+2` of the same crate (wrapping), so every crate needs at
/// least three files for the chain to cross files at both hops.
pub fn render_file(spec: &TreeSpec, seed: u64, krate: usize, file: usize) -> String {
    let mut rng = SplitMix64::new(sub_seed(
        seed,
        (krate * spec.files_per_crate + file) as u64 + 1,
    ));
    let id = format!("c{krate}_m{file:03}");
    let next = format!("c{krate}_m{:03}", (file + 1) % spec.files_per_crate);
    let mut regions = [FAN_OUT, UNGUARDED, GUARDED, JOINED, HANDOFF];
    rng.shuffle(&mut regions);
    let mut src = String::from(HEADER);
    src.push_str(&fill(HELPERS, &id, &next, &mut rng));
    for region in regions {
        src.push_str(&fill(region, &id, &next, &mut rng));
    }
    for j in 0..spec.slabs_per_file {
        // The slab's first `@k` is its name; make that one unique.
        let slab = SLAB.replacen("@k", &j.to_string(), 1);
        src.push_str(&fill(&slab, &id, &next, &mut rng));
    }
    src
}

/// Writes the whole tree under `root` (created if missing) and returns
/// what it plants.
pub fn generate(root: &Path, spec: &TreeSpec, seed: u64) -> std::io::Result<Planted> {
    assert!(
        spec.files_per_crate >= 3,
        "helper chains need three files per crate"
    );
    let mut planted = Planted::default();
    for krate in 0..spec.crates {
        std::fs::create_dir_all(root.join(format!("crates/c{krate}/src")))?;
        for file in 0..spec.files_per_crate {
            let src = render_file(spec, seed, krate, file);
            planted.bytes += src.len() as u64;
            std::fs::write(root.join(rel_path(krate, file)), src)?;
        }
    }
    planted.files = spec.files();
    planted.sites = spec.files() * FILE_SITES;
    planted.pairs = spec.files() * FILE_PAIRS;
    planted.pruned_pairs = spec.files() * FILE_PRUNED;
    Ok(planted)
}

/// The files edit round `round` touches: a different 1 % of the tree each
/// round (at least one file), walking a seed-shuffled order of all files.
pub fn edit_targets(spec: &TreeSpec, seed: u64, round: usize) -> Vec<PathBuf> {
    let mut order: Vec<(usize, usize)> = (0..spec.crates)
        .flat_map(|c| (0..spec.files_per_crate).map(move |f| (c, f)))
        .collect();
    SplitMix64::new(sub_seed(seed, 0xED17)).shuffle(&mut order);
    let per_round = (spec.files() / 100).max(1);
    (0..per_round)
        .map(|i| {
            let (c, f) = order[(round * per_round + i) % order.len()];
            PathBuf::from(rel_path(c, f))
        })
        .collect()
}

/// Applies edit round `round`: appends one inert function (no collection
/// access, so no site, pair or summary op changes) to each target file.
/// Returns the bytes added.
pub fn apply_edit(root: &Path, spec: &TreeSpec, seed: u64, round: usize) -> std::io::Result<u64> {
    let mut added = 0;
    for (i, rel) in edit_targets(spec, seed, round).iter().enumerate() {
        let path = root.join(rel);
        let mut src = std::fs::read_to_string(&path)?;
        let text = format!(
            "pub fn edit_r{round}_{i}(x: u64) -> u64 {{\n    x.wrapping_mul({}).rotate_left(7)\n}}\n\n",
            sub_seed(seed, round as u64) | 1
        );
        added += text.len() as u64;
        src.push_str(&text);
        std::fs::write(&path, src)?;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: TreeSpec = TreeSpec {
        crates: 2,
        files_per_crate: 3,
        slabs_per_file: 4,
    };

    fn read_tree(root: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files = Vec::new();
        for krate in 0..SPEC.crates {
            for file in 0..SPEC.files_per_crate {
                let rel = rel_path(krate, file);
                let bytes = std::fs::read(root.join(&rel)).expect("generated file");
                files.push((rel, bytes));
            }
        }
        files
    }

    #[test]
    fn same_seed_gives_a_byte_identical_tree_and_edits() {
        let base = std::env::temp_dir().join(format!("tsvd_bench_tree_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (a, b, c) = (base.join("a"), base.join("b"), base.join("c"));
        let pa = generate(&a, &SPEC, 11).expect("generate a");
        let pb = generate(&b, &SPEC, 11).expect("generate b");
        generate(&c, &SPEC, 12).expect("generate c");
        assert_eq!(pa, pb);
        assert_eq!(read_tree(&a), read_tree(&b));
        assert_ne!(
            read_tree(&a),
            read_tree(&c),
            "the seed must reach the sources"
        );
        for round in 0..3 {
            assert_eq!(
                apply_edit(&a, &SPEC, 11, round).expect("edit a"),
                apply_edit(&b, &SPEC, 11, round).expect("edit b")
            );
        }
        assert_eq!(read_tree(&a), read_tree(&b));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn edit_rounds_walk_different_files() {
        let spec = TreeSpec {
            crates: 8,
            files_per_crate: 25,
            slabs_per_file: 1,
        };
        let mut seen: Vec<PathBuf> = Vec::new();
        for round in 0..20 {
            let targets = edit_targets(&spec, 5, round);
            assert_eq!(targets.len(), 2, "1 % of 200 files");
            for t in targets {
                assert!(!seen.contains(&t), "a file edited twice within 20 rounds");
                seen.push(t);
            }
        }
    }

    #[test]
    fn planted_counts_scale_with_the_file_count() {
        let base = std::env::temp_dir().join(format!("tsvd_bench_plant_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let p = generate(&base, &SPEC, 3).expect("generate");
        assert_eq!(p.files, 6);
        assert_eq!(p.sites, 6 * FILE_SITES);
        assert_eq!((p.pairs, p.pruned_pairs), (6 * FILE_PAIRS, 6 * FILE_PRUNED));
        assert_eq!(
            p.bytes,
            read_tree(&base)
                .iter()
                .map(|(_, b)| b.len() as u64)
                .sum::<u64>()
        );
        let _ = std::fs::remove_dir_all(&base);
    }
}
