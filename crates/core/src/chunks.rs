//! Building blocks for tables a hot call indexes without a table-wide lock:
//! [`Stripe`], a mutex alone on its cache line; [`ChunkTable`], a grow-only
//! array allocated 64 elements at a time; and [`IdHasher`], the hasher of
//! every map keyed by an id (`IdMap`, `IdSet`).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use parking_lot::{Mutex, MutexGuard};

/// FxHash's multiplier: odd, so multiplying by it loses nothing.
const ID_MUL: u64 = 0xF135_7AEA_2E62_A9C5;

/// Hasher for keys made of integers the process counted out itself —
/// `SiteId`, `SitePair`, `ContextId`, `ObjId`, lock ids: one add and one
/// multiply per word, and a rotate at the end that brings the product's
/// best-mixed middle bits down to the low bits hashbrown picks a bucket
/// with (its control byte reads the top seven). The std hasher's defence
/// against chosen keys is wasted here: these keys are never input.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(ID_MUL);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by ids, hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` of ids, hashed by [`IdHasher`].
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Which of `stripes` stripes holds `id`.
pub(crate) fn stripe_of(id: u64, stripes: usize) -> usize {
    let mut hasher = IdHasher::default();
    hasher.write_u64(id);
    (hasher.finish() % stripes as u64) as usize
}

/// A mutex and what it guards on a cache line of their own: locking one
/// element of an array of these never takes a neighbour's line from the
/// thread using it.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Stripe<T>(Mutex<T>);

impl<T> Stripe<T> {
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock()
    }
}

/// Elements per chunk.
pub(crate) const CHUNK: usize = 64;
/// Directory rows: enough for every `u32` index.
const ROWS: usize = 27;
/// A directory slot: one lazily allocated chunk.
type Chunk<T> = OnceLock<Box<[T; CHUNK]>>;

/// Chunk `c` holds elements `64c .. 64c + 64` and sits in directory row
/// `⌊log2(c + 1)⌋`; row `r` has `2^r` slots, so the directory doubles row by
/// row. Rows and chunks are allocated when first touched and never move,
/// which is what lets elements be reached without any lock, and a table
/// pays for the indices it is asked for, not for its index space (a suite
/// builds a runtime per module).
#[derive(Default)]
pub(crate) struct ChunkTable<T> {
    rows: [OnceLock<Box<[Chunk<T>]>>; ROWS],
}

impl<T: Default> ChunkTable<T> {
    /// Element `index` (below `2^32`), default-initialised with the rest of
    /// its chunk on first touch.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> &T {
        let n = index / CHUNK + 1;
        let row = n.ilog2() as usize;
        let slots = self.rows[row].get();
        match slots.and_then(|slots| slots[n - (1 << row)].get()) {
            Some(chunk) => &chunk[index % CHUNK],
            None => self.first_touch(index),
        }
    }

    /// [`get`](Self::get) of an element whose row or chunk is not yet
    /// allocated: out of line, so the common call stays small.
    #[cold]
    fn first_touch(&self, index: usize) -> &T {
        let n = index / CHUNK + 1;
        let row = n.ilog2() as usize;
        let slots =
            self.rows[row].get_or_init(|| (0..1usize << row).map(|_| OnceLock::new()).collect());
        let chunk =
            slots[n - (1 << row)].get_or_init(|| Box::new(std::array::from_fn(|_| T::default())));
        &chunk[index % CHUNK]
    }

    /// Every element of every allocated chunk with its index, in index order.
    pub(crate) fn allocated(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        let chunks = self.rows.iter().enumerate().flat_map(|(row, slots)| {
            let slots = slots.get().into_iter().flat_map(|s| s.iter());
            slots
                .enumerate()
                .map(move |(slot, chunk)| ((1 << row) - 1 + slot, chunk))
        });
        chunks.flat_map(|(c, chunk)| {
            let cells = chunk.get().into_iter().flat_map(|cells| cells.iter());
            cells
                .enumerate()
                .map(move |(i, cell)| (c * CHUNK + i, cell))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn a_fresh_table_owns_no_heap_and_grows_a_chunk_at_a_time() {
        let t: ChunkTable<AtomicU64> = ChunkTable::default();
        assert!(t.rows.iter().all(|row| row.get().is_none()));
        assert_eq!(t.allocated().count(), 0);
        // Far-apart indices land in different rows; touching the highest
        // first must not disturb the lower ones.
        for index in [70_000, 64, 63, 0] {
            t.get(index).fetch_add(index as u64 + 1, Ordering::Relaxed);
        }
        assert_eq!(t.allocated().count(), 3 * CHUNK, "chunks 0, 1 and 1093");
        let touched: Vec<(usize, u64)> = t
            .allocated()
            .map(|(i, v)| (i, v.load(Ordering::Relaxed)))
            .filter(|(_, v)| *v > 0)
            .collect();
        assert_eq!(touched, vec![(0, 1), (63, 64), (64, 65), (70_000, 70_001)]);
    }

    /// Every hash distinct, and the bits hashbrown reads flat within ±25 %:
    /// the low eight (the bucket of a 256-bucket table) and the top seven
    /// (the control byte). A hasher that clusters either turns probing
    /// linear.
    fn assert_spread(mut hashes: Vec<u64>, what: &str) {
        let flat = |bins: usize, bin: &dyn Fn(u64) -> usize| {
            let mut counts = vec![0usize; bins];
            for &h in &hashes {
                counts[bin(h)] += 1;
            }
            let mean = hashes.len() as f64 / bins as f64;
            let (lo, hi) = (counts.iter().min(), counts.iter().max());
            let (lo, hi) = (*lo.expect("bins") as f64, *hi.expect("bins") as f64);
            assert!(
                lo >= 0.75 * mean && hi <= 1.25 * mean,
                "{what}: {bins} bins of mean {mean} hold {lo}..{hi}"
            );
        };
        flat(256, &|h| (h & 0xFF) as usize);
        flat(128, &|h| (h >> 57) as usize);
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "{what}: colliding hashes");
    }

    #[test]
    fn id_hashes_are_distinct_and_spread_over_the_bits_hashbrown_reads() {
        use crate::access::ObjId;
        use crate::near_miss::SitePair;
        use crate::site::SiteId;
        use std::hash::BuildHasher;
        let ids = BuildHasherDefault::<IdHasher>::default();
        let sites: Vec<SiteId> = (0..1 << 16).map(SiteId::from_index).collect();
        assert_spread(sites.iter().map(|s| ids.hash_one(s)).collect(), "sites");
        // i <= j < 362: 65 703 pairs.
        let pairs = (0..362).flat_map(|i| (i..362).map(move |j| (i, j)));
        let pairs = pairs.map(|(i, j)| ids.hash_one(SitePair::new(sites[i], sites[j])));
        assert_spread(pairs.collect(), "site pairs");
        let contexts = (0..1u64 << 16).map(|c| ids.hash_one(crate::context::ContextId(c)));
        assert_spread(contexts.collect(), "contexts");
        // Object ids are addresses: aligned, so their low bits never vary.
        let objects = (0..1u64 << 16).map(|i| ids.hash_one(ObjId(0x7F3A_0000_0000 + 64 * i)));
        assert_spread(objects.collect(), "objects 64 bytes apart");
    }

    #[test]
    fn stripes_of_dense_ids_are_even() {
        let mut counts = [0usize; 16];
        for id in 0..1_600 {
            counts[stripe_of(id, 16)] += 1;
        }
        assert!(
            counts.iter().all(|&n| (75..=125).contains(&n)),
            "{counts:?}"
        );
    }

    #[test]
    fn a_stripe_is_a_multiple_of_the_cache_line() {
        assert_eq!(std::mem::align_of::<Stripe<u8>>(), 64);
        assert_eq!(std::mem::size_of::<Stripe<u8>>(), 64);
        assert_eq!(std::mem::size_of::<Stripe<[u64; 9]>>(), 128);
    }
}
