//! Seeded property tests for the vector-clock substrate.
//!
//! Each property runs over [`CASES`] inputs, every one a pure function of
//! its seed. The generator is `rand`'s `SmallRng`: `tsvd-core`'s SplitMix64
//! is out of reach, since core depends on this crate. A failure names the
//! seed and, where the property is checked as it goes, the step.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tsvd_vc::{AvlMap, ClockOrder, ImmutableVc, MutableVc};

/// Inputs per property.
const CASES: u64 = 256;

/// Up to 19 increments over ids `0..6`, as one clock.
fn clock(rng: &mut SmallRng) -> ImmutableVc {
    let mut vc = ImmutableVc::new();
    for _ in 0..rng.gen_range(0..20) {
        vc = vc.increment(rng.gen_range(0u64..6));
    }
    vc
}

/// The persistent AVL map behaves exactly like `BTreeMap` and keeps its
/// balance invariants under arbitrary insert/remove sequences.
#[test]
fn avl_matches_btreemap_model() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut avl: AvlMap<u16, u32> = AvlMap::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for step in 0..rng.gen_range(0..200) {
            if rng.gen() {
                let (k, v) = (rng.gen::<u32>() as u16, rng.gen::<u32>());
                avl = avl.insert(k, v);
                model.insert(k, v);
            } else {
                let k = rng.gen::<u32>() as u16;
                let (next, removed) = avl.remove(&k);
                assert_eq!(
                    removed,
                    model.remove(&k).is_some(),
                    "seed {seed} step {step}: remove {k}"
                );
                avl = next;
            }
            assert!(avl.check_invariants(), "seed {seed} step {step}");
            assert_eq!(avl.len(), model.len(), "seed {seed} step {step}");
        }
        let got: Vec<(u16, u32)> = avl.iter().map(|(&k, &v)| (k, v)).collect();
        let want: Vec<(u16, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "seed {seed}");
    }
}

/// Earlier versions of a persistent map are unaffected by later updates.
#[test]
fn avl_persistence() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut versions: Vec<(AvlMap<u16, u32>, BTreeMap<u16, u32>)> = Vec::new();
        let mut avl = AvlMap::new();
        let mut model = BTreeMap::new();
        for _ in 0..rng.gen_range(1..50) {
            let (k, v) = (rng.gen::<u32>() as u16, rng.gen::<u32>());
            avl = avl.insert(k, v);
            model.insert(k, v);
            versions.push((avl.clone(), model.clone()));
        }
        for (version, (snap, model)) in versions.iter().enumerate() {
            for (k, v) in model {
                assert_eq!(
                    snap.get(k),
                    Some(v),
                    "seed {seed} version {version}: key {k}"
                );
            }
            assert_eq!(snap.len(), model.len(), "seed {seed} version {version}");
        }
    }
}

/// The immutable AVL-backed clocks and the traditional mutable clocks
/// compute identical component values and identical orderings under any
/// interleaving of increments and joins.
#[test]
fn immutable_equals_mutable() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut imm: Vec<ImmutableVc> = (0..4).map(|_| ImmutableVc::new()).collect();
        let mut mutv: Vec<MutableVc> = (0..4).map(|_| MutableVc::new()).collect();
        for _ in 0..rng.gen_range(0..120) {
            let i = rng.gen_range(0..4);
            if rng.gen() {
                let id = rng.gen_range(0u64..8);
                imm[i] = imm[i].increment(id);
                mutv[i].increment(id);
            } else {
                let j = rng.gen_range(0..4);
                let other = imm[j].clone();
                imm[i] = imm[i].join(&other);
                let other = mutv[j].clone();
                mutv[i].join_from(&other);
            }
        }
        for (i, (a, b)) in imm.iter().zip(&mutv).enumerate() {
            for id in 0..8u64 {
                assert_eq!(a.get(id), b.get(id), "seed {seed}: clock {i} id {id}");
            }
        }
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    imm[i].compare(&imm[j]),
                    mutv[i].compare(&mutv[j]),
                    "seed {seed}: clocks {i} and {j}"
                );
            }
        }
    }
}

/// `compare` is antisymmetric and consistent with `le`.
#[test]
fn compare_consistency() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (va, vb) = (clock(&mut rng), clock(&mut rng));
        let ab = va.compare(&vb);
        let ba = vb.compare(&va);
        let expected = match ab {
            ClockOrder::Equal => ClockOrder::Equal,
            ClockOrder::Before => ClockOrder::After,
            ClockOrder::After => ClockOrder::Before,
            ClockOrder::Concurrent => ClockOrder::Concurrent,
        };
        assert_eq!(ba, expected, "seed {seed}");
        assert_eq!(va.le(&vb), ab.is_before_or_equal(), "seed {seed}");
    }
}

/// Join produces the least upper bound: both inputs are `<=` the join, and
/// the join of a clock with itself is itself.
#[test]
fn join_is_lub() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (va, vb) = (clock(&mut rng), clock(&mut rng));
        let j = va.join(&vb);
        assert!(va.le(&j), "seed {seed}");
        assert!(vb.le(&j), "seed {seed}");
        for id in 0..6u64 {
            assert_eq!(
                j.get(id),
                va.get(id).max(vb.get(id)),
                "seed {seed}: id {id}"
            );
        }
        let jj = j.join(&j.clone());
        assert!(jj.ptr_eq(&j), "seed {seed}");
    }
}
