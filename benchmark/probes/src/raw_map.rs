//! The bottom rung of the wrapper ladder: the hot workloads' stream on
//! plain `std::collections::HashMap`s, with no wrapper, contract sentinel
//! or runtime. This file deliberately has no concurrency in it — raw
//! collections in concurrent code are what the repository's escape lint
//! (`repro analyze --deny-escapes`) exists to flag.

use std::collections::HashMap;
use std::time::Instant;

use tsvd_benchmark::rng::SplitMix64;
use tsvd_benchmark::workloads::hot::{decode, stream_seed, value_of, BATCH};

/// Issues `batches` batches of thread 0's stream for repetition `rep` on
/// `maps` pre-filled maps; returns nanoseconds per call and the checksum.
pub fn run(maps: usize, keys: u64, seed: u64, rep: usize, batches: usize) -> (f64, u64) {
    let mut dicts: Vec<HashMap<u64, u64>> = (0..maps)
        .map(|_| (0..keys).step_by(2).map(|k| (k, value_of(k))).collect())
        .collect();
    let mut rng = SplitMix64::new(stream_seed(seed, rep, 0));
    let mut checksum = 0u64;
    let calls = batches * BATCH;
    let start = Instant::now();
    for _ in 0..calls {
        let op = decode(rng.next_u64(), maps, keys);
        let map = &mut dicts[op.dict];
        // The same split as `hot::apply`: 16 set, 24 get, 16 contains, 8 len.
        checksum = checksum.wrapping_add(match op.site {
            0..=15 => {
                map.insert(op.key, value_of(op.key));
                0
            }
            16..=39 => map.get(&op.key).copied().unwrap_or(1),
            40..=55 => u64::from(map.contains_key(&op.key)),
            _ => map.len() as u64,
        });
    }
    let ns = start.elapsed().as_nanos() as f64 / calls as f64;
    (ns, std::hint::black_box(checksum))
}
