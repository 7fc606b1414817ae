//! Building blocks for tables a hot call indexes without a table-wide lock:
//! [`Stripe`], a mutex alone on its cache line, and [`ChunkTable`], a
//! grow-only array allocated 64 elements at a time.

use std::sync::OnceLock;

use parking_lot::{Mutex, MutexGuard};

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
    pub(crate) fn get(&self, index: usize) -> &T {
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

    #[test]
    fn a_stripe_is_a_multiple_of_the_cache_line() {
        assert_eq!(std::mem::align_of::<Stripe<u8>>(), 64);
        assert_eq!(std::mem::size_of::<Stripe<u8>>(), 64);
        assert_eq!(std::mem::size_of::<Stripe<[u64; 9]>>(), 128);
    }
}
