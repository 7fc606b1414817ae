//! Seeded property tests for the task substrate: random task DAGs compute
//! the same values as their sequential model, and the sync-event stream
//! stays consistent.
//!
//! Every input is a pure function of its seed ([`SplitMix64`]); a failure
//! names the seed.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use tsvd_core::rng::SplitMix64;
use tsvd_core::{Runtime, TsvdConfig};
use tsvd_tasks::Pool;

/// Inputs per cheap property.
const CASES: u64 = 256;

/// Task DAGs: each builds and drops its own pool.
const DAG_CASES: u64 = 24;

/// How long one DAG may take: each finishes in milliseconds.
const DAG_DEADLINE: Duration = Duration::from_secs(60);

/// A little expression language evaluated both sequentially and as a task
/// DAG: every node spawns its children and combines their results.
#[derive(Debug, Clone)]
enum Expr {
    Leaf(u8),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

/// A random expression at most `depth` levels deep with at most `*inner`
/// more operator nodes: depth 4 and 11 operators keep a tree within 24
/// nodes.
fn expr(rng: &mut SplitMix64, depth: u32, inner: &mut u32) -> Expr {
    if depth == 0 || *inner == 0 || rng.below(3) == 0 {
        return Expr::Leaf(rng.below(256) as u8);
    }
    *inner -= 1;
    let add = rng.below(2) == 0;
    let a = Box::new(expr(rng, depth - 1, inner));
    let b = Box::new(expr(rng, depth - 1, inner));
    if add {
        Expr::Add(a, b)
    } else {
        Expr::Mul(a, b)
    }
}

fn eval_seq(e: &Expr) -> u64 {
    match e {
        Expr::Leaf(v) => u64::from(*v),
        Expr::Add(a, b) => eval_seq(a).wrapping_add(eval_seq(b)),
        Expr::Mul(a, b) => eval_seq(a).wrapping_mul(eval_seq(b)),
    }
}

fn eval_tasks(pool: &Arc<Pool>, e: Expr) -> u64 {
    let (a, b, combine): (_, _, fn(u64, u64) -> u64) = match e {
        Expr::Leaf(v) => return u64::from(v),
        Expr::Add(a, b) => (a, b, u64::wrapping_add),
        Expr::Mul(a, b) => (a, b, u64::wrapping_mul),
    };
    let pa = pool.clone();
    let ta = pool.spawn(move || eval_tasks(&pa, *a));
    let pb = pool.clone();
    let tb = pool.spawn(move || eval_tasks(&pb, *b));
    combine(ta.join(), tb.join())
}

/// Random task DAGs (nested spawns joined across levels) compute the
/// sequential result, even on a single-worker pool: a join that blocks
/// every worker injects a relief worker, so deep joins cannot deadlock.
/// A DAG that has not finished after [`DAG_DEADLINE`] fails its seed
/// instead of hanging the run.
#[test]
fn task_dag_matches_sequential_eval() {
    for seed in 0..DAG_CASES {
        let mut rng = SplitMix64::new(seed);
        let e = expr(&mut rng, 4, &mut 11);
        let threads = 1 + rng.below(3) as usize;
        let expected = eval_seq(&e);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let pool = Arc::new(Pool::new(threads));
            let _ = tx.send(eval_tasks(&pool, e));
        });
        let got = match rx.recv_timeout(DAG_DEADLINE) {
            Ok(got) => got,
            Err(e) => panic!("seed {seed}: {threads} worker(s): {e}"),
        };
        assert_eq!(got, expected, "seed {seed}: {threads} worker(s)");
    }
}

/// Fork/end/join events stay balanced: every spawned-and-joined task
/// contributes exactly one fork, one end, and one join.
#[test]
fn sync_event_stream_is_balanced() {
    for seed in 0..CASES {
        let n = 1 + SplitMix64::new(seed).below(23) as usize;
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let pool = Pool::with_runtime(2, rt.clone());
        let handles: Vec<_> = (0..n).map(|i| pool.spawn(move || i)).collect();
        let sum: usize = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, n * (n - 1) / 2, "seed {seed}: {n} tasks");
        // Fork + TaskEnd + Join per task = exactly 3n events.
        assert_eq!(
            rt.stats().sync_events(),
            3 * n as u64,
            "seed {seed}: {n} tasks"
        );
    }
}

/// `then` chains compute left-to-right function composition.
#[test]
fn then_chain_composes() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let start = rng.below(256);
        let deltas: Vec<u64> = (0..rng.below(6)).map(|_| rng.below(256)).collect();
        let pool = Pool::new(2);
        let mut handle = pool.spawn(move || start);
        for &d in &deltas {
            handle = handle.then(&pool, move |x| x.wrapping_add(d));
        }
        let expected = deltas.iter().fold(start, |a, &d| a.wrapping_add(d));
        assert_eq!(handle.join(), expected, "seed {seed}: {deltas:?}");
    }
}
