//! Model tests: every instrumented collection behaves exactly like its std
//! model under seeded single-threaded operation sequences (the
//! instrumentation must be semantically invisible), and single-threaded
//! use never trips the corruption sentinel.
//!
//! Each model runs over [`CASES`] operation sequences, every one a pure
//! function of its seed ([`SplitMix64`]); a failure names the seed and the
//! step.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};

use tsvd_collections::{
    BitArray, Cache, Dictionary, HashSet, LinkedDeque, List, MultiMap, PriorityQueue, Queue,
    SortedList, SortedSet, Stack, StringBuilder,
};
use tsvd_core::rng::SplitMix64;
use tsvd_core::{Runtime, TsvdConfig};

/// Operation sequences per model.
const CASES: u64 = 256;

fn rt() -> std::sync::Arc<Runtime> {
    Runtime::noop(TsvdConfig::for_testing())
}

/// Where a model failed: the seed and the step.
struct At(u64, u64);

impl std::fmt::Display for At {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} step {}", self.0, self.1)
    }
}

/// Runs `case` on each seed's generator, passing the seed for messages.
fn each_case(mut case: impl FnMut(u64, &mut SplitMix64)) {
    for seed in 0..CASES {
        case(seed, &mut SplitMix64::new(seed));
    }
}

fn byte(rng: &mut SplitMix64) -> u8 {
    rng.below(256) as u8
}

fn word(rng: &mut SplitMix64) -> u16 {
    rng.below(1 << 16) as u16
}

#[test]
fn dictionary_matches_hashmap() {
    each_case(|seed, rng| {
        let dict: Dictionary<u8, u16> = Dictionary::new(&rt());
        let mut model = HashMap::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let (k, v) = (byte(rng), word(rng));
            match rng.below(6) {
                0 => {
                    let expect = !model.contains_key(&k);
                    if expect {
                        model.insert(k, v);
                    }
                    assert_eq!(dict.add(k, v), expect, "{at}");
                }
                1 => {
                    model.insert(k, v);
                    dict.set(k, v);
                }
                2 => assert_eq!(dict.remove(&k), model.remove(&k), "{at}"),
                3 => assert_eq!(dict.get(&k), model.get(&k).copied(), "{at}"),
                4 => assert_eq!(dict.contains_key(&k), model.contains_key(&k), "{at}"),
                _ => {
                    model.clear();
                    dict.clear();
                }
            }
            assert_eq!(dict.len(), model.len(), "{at}");
        }
        assert!(!dict.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn list_matches_vec() {
    each_case(|seed, rng| {
        let list: List<u16> = List::new(&rt());
        let mut model: Vec<u16> = Vec::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let (op, v, idx) = (rng.below(6), word(rng), byte(rng));
            let i = if model.is_empty() {
                0
            } else {
                usize::from(idx) % (model.len() + 1)
            };
            match op {
                0 => {
                    list.add(v);
                    model.push(v);
                }
                1 => {
                    list.insert(i, v);
                    model.insert(i, v);
                }
                2 => {
                    let expect = (i < model.len()).then(|| model.remove(i));
                    assert_eq!(list.remove_at(i), expect, "{at}");
                }
                3 => {
                    let expect = i < model.len();
                    if expect {
                        model[i] = v;
                    }
                    assert_eq!(list.set(i, v), expect, "{at}");
                }
                4 => {
                    list.sort();
                    model.sort();
                }
                _ => assert_eq!(list.get(i), model.get(i).copied(), "{at}"),
            }
            assert_eq!(list.len(), model.len(), "{at}");
        }
        assert_eq!(list.to_vec(), model, "seed {seed}");
        assert!(!list.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn queue_matches_vecdeque() {
    each_case(|seed, rng| {
        let queue: Queue<u16> = Queue::new(&rt());
        let mut model = VecDeque::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let (op, v) = (rng.below(3), word(rng));
            match op {
                0 => {
                    queue.enqueue(v);
                    model.push_back(v);
                }
                1 => assert_eq!(queue.dequeue(), model.pop_front(), "{at}"),
                _ => assert_eq!(queue.peek(), model.front().copied(), "{at}"),
            }
            assert_eq!(queue.len(), model.len(), "{at}");
        }
        assert!(!queue.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn stack_matches_vec() {
    each_case(|seed, rng| {
        let stack: Stack<u16> = Stack::new(&rt());
        let mut model: Vec<u16> = Vec::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let (op, v) = (rng.below(3), word(rng));
            match op {
                0 => {
                    stack.push(v);
                    model.push(v);
                }
                1 => assert_eq!(stack.pop(), model.pop(), "{at}"),
                _ => assert_eq!(stack.peek(), model.last().copied(), "{at}"),
            }
            assert_eq!(stack.len(), model.len(), "{at}");
        }
        assert!(!stack.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn bit_array_matches_set_model() {
    each_case(|seed, rng| {
        let bits = BitArray::new(&rt());
        let mut model = std::collections::HashSet::new();
        for step in 0..rng.below(150) {
            let at = At(seed, step);
            let (op, i) = (rng.below(3), rng.below(512) as usize);
            match op {
                0 => {
                    bits.set(i, true);
                    model.insert(i);
                }
                1 => {
                    bits.set(i, false);
                    model.remove(&i);
                }
                _ => {
                    if !model.remove(&i) {
                        model.insert(i);
                    }
                    bits.flip(i);
                }
            }
            assert_eq!(bits.count_ones(), model.len(), "{at}");
        }
        for i in 0..512 {
            assert_eq!(bits.get(i), model.contains(&i), "seed {seed}: bit {i}");
        }
        assert!(!bits.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn hash_set_matches_hash_set() {
    each_case(|seed, rng| {
        let set: HashSet<u8> = HashSet::new(&rt());
        let mut model = std::collections::HashSet::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let v = rng.below(64) as u8;
            match rng.below(8) {
                0..=2 => assert_eq!(set.add(v), model.insert(v), "{at}"),
                3 | 4 => assert_eq!(set.remove(&v), model.remove(&v), "{at}"),
                5 | 6 => assert_eq!(set.contains(&v), model.contains(&v), "{at}"),
                _ => {
                    set.clear();
                    model.clear();
                }
            }
            assert_eq!(set.len(), model.len(), "{at}");
            assert_eq!(set.is_empty(), model.is_empty(), "{at}");
        }
        let mut got = set.to_vec();
        got.sort();
        let mut want: Vec<u8> = model.into_iter().collect();
        want.sort();
        assert_eq!(got, want, "seed {seed}");
        assert!(!set.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn sorted_list_matches_btreemap() {
    each_case(|seed, rng| {
        let list: SortedList<u8, u16> = SortedList::new(&rt());
        let mut model = BTreeMap::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let (k, v) = (rng.below(64) as u8, word(rng));
            match rng.below(8) {
                0 => {
                    let expect = !model.contains_key(&k);
                    if expect {
                        model.insert(k, v);
                    }
                    assert_eq!(list.add(k, v), expect, "{at}");
                }
                1 => {
                    list.set(k, v);
                    model.insert(k, v);
                }
                2 => assert_eq!(list.remove(&k), model.remove(&k), "{at}"),
                3 => assert_eq!(list.get(&k), model.get(&k).copied(), "{at}"),
                4 => assert_eq!(list.contains_key(&k), model.contains_key(&k), "{at}"),
                5 => assert_eq!(
                    list.first(),
                    model.first_key_value().map(|(&k, &v)| (k, v)),
                    "{at}"
                ),
                6 => assert_eq!(
                    list.last(),
                    model.last_key_value().map(|(&k, &v)| (k, v)),
                    "{at}"
                ),
                _ => {
                    list.clear();
                    model.clear();
                }
            }
            assert_eq!(list.len(), model.len(), "{at}");
            assert_eq!(list.is_empty(), model.is_empty(), "{at}");
        }
        assert!(!list.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn sorted_set_matches_btreeset() {
    each_case(|seed, rng| {
        let set: SortedSet<u8> = SortedSet::new(&rt());
        let mut model = BTreeSet::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let v = rng.below(64) as u8;
            match rng.below(8) {
                0 | 1 => assert_eq!(set.add(v), model.insert(v), "{at}"),
                2 => assert_eq!(set.remove(&v), model.remove(&v), "{at}"),
                3 => assert_eq!(set.contains(&v), model.contains(&v), "{at}"),
                4 => assert_eq!(set.min(), model.first().copied(), "{at}"),
                5 => assert_eq!(set.max(), model.last().copied(), "{at}"),
                6 => assert_eq!(
                    set.to_vec(),
                    model.iter().copied().collect::<Vec<_>>(),
                    "{at}"
                ),
                _ => {
                    set.clear();
                    model.clear();
                }
            }
            assert_eq!(set.len(), model.len(), "{at}");
            assert_eq!(set.is_empty(), model.is_empty(), "{at}");
        }
        assert_eq!(
            set.to_vec(),
            model.into_iter().collect::<Vec<_>>(),
            "seed {seed}"
        );
        assert!(!set.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn linked_deque_matches_vecdeque() {
    each_case(|seed, rng| {
        let deque: LinkedDeque<u16> = LinkedDeque::new(&rt());
        let mut model = VecDeque::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let v = word(rng);
            match rng.below(8) {
                0 | 1 => {
                    deque.push_front(v);
                    model.push_front(v);
                }
                2 => {
                    deque.push_back(v);
                    model.push_back(v);
                }
                3 => assert_eq!(deque.pop_front(), model.pop_front(), "{at}"),
                4 => assert_eq!(deque.pop_back(), model.pop_back(), "{at}"),
                5 => assert_eq!(deque.front(), model.front().copied(), "{at}"),
                6 => assert_eq!(deque.back(), model.back().copied(), "{at}"),
                _ => {
                    deque.clear();
                    model.clear();
                }
            }
            assert_eq!(deque.len(), model.len(), "{at}");
            assert_eq!(deque.is_empty(), model.is_empty(), "{at}");
        }
        while let Some(want) = model.pop_front() {
            assert_eq!(deque.pop_front(), Some(want), "seed {seed}: drain");
        }
        assert_eq!(deque.pop_front(), None, "seed {seed}: drain");
        assert!(!deque.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn priority_queue_matches_binary_heap() {
    each_case(|seed, rng| {
        let queue: PriorityQueue<u16> = PriorityQueue::new(&rt());
        let mut model = BinaryHeap::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let v = rng.below(64) as u16;
            match rng.below(8) {
                0..=3 => {
                    queue.push(v);
                    model.push(v);
                }
                4 | 5 => assert_eq!(queue.pop(), model.pop(), "{at}"),
                6 => assert_eq!(queue.peek(), model.peek().copied(), "{at}"),
                _ => {
                    queue.clear();
                    model.clear();
                }
            }
            assert_eq!(queue.len(), model.len(), "{at}");
            assert_eq!(queue.is_empty(), model.is_empty(), "{at}");
        }
        while let Some(want) = model.pop() {
            assert_eq!(queue.pop(), Some(want), "seed {seed}: drain");
        }
        assert_eq!(queue.pop(), None, "seed {seed}: drain");
        assert!(!queue.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn multi_map_matches_map_of_vecs() {
    each_case(|seed, rng| {
        let map: MultiMap<u8, u8> = MultiMap::new(&rt());
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let (k, v) = (rng.below(8) as u8, rng.below(4) as u8);
            match rng.below(8) {
                0..=2 => {
                    map.add(k, v);
                    model.entry(k).or_default().push(v);
                }
                3 => {
                    // One occurrence goes; a key left with no values goes too.
                    let values = model.get_mut(&k);
                    let found = values
                        .as_ref()
                        .and_then(|vs| vs.iter().position(|&x| x == v));
                    if let (Some(values), Some(i)) = (values, found) {
                        values.remove(i);
                        if values.is_empty() {
                            model.remove(&k);
                        }
                    }
                    assert_eq!(map.remove_value(&k, &v), found.is_some(), "{at}");
                }
                4 => assert_eq!(
                    map.remove_key(&k),
                    model.remove(&k).unwrap_or_default(),
                    "{at}"
                ),
                5 => assert_eq!(
                    map.get(&k),
                    model.get(&k).cloned().unwrap_or_default(),
                    "{at}"
                ),
                6 => assert_eq!(map.contains_key(&k), model.contains_key(&k), "{at}"),
                _ => {
                    map.clear();
                    model.clear();
                }
            }
            assert_eq!(map.key_count(), model.len(), "{at}");
            assert_eq!(
                map.value_count(),
                model.values().map(Vec::len).sum::<usize>(),
                "{at}"
            );
        }
        assert!(!map.is_corrupted(), "seed {seed}");
    });
}

/// The cache's contract, written plainly: entries in insertion order, the
/// oldest evicted first once over capacity; overwriting a key keeps its
/// place.
struct FifoCache {
    entries: VecDeque<(u8, u16)>,
    capacity: usize,
}

impl FifoCache {
    fn evict(&mut self) {
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
    }

    fn get(&self, k: u8) -> Option<u16> {
        self.entries.iter().find(|e| e.0 == k).map(|e| e.1)
    }

    fn put(&mut self, k: u8, v: u16) {
        match self.entries.iter_mut().find(|e| e.0 == k) {
            Some(e) => e.1 = v,
            None => self.entries.push_back((k, v)),
        }
        self.evict();
    }

    fn invalidate(&mut self, k: u8) -> bool {
        let found = self.entries.iter().position(|e| e.0 == k);
        found.and_then(|i| self.entries.remove(i)).is_some()
    }
}

#[test]
fn cache_matches_fifo_map_with_capacity() {
    each_case(|seed, rng| {
        let cache: Cache<u8, u16> = Cache::new(&rt());
        let mut model = FifoCache {
            entries: VecDeque::new(),
            capacity: usize::MAX,
        };
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let (k, v) = (rng.below(16) as u8, word(rng));
            match rng.below(12) {
                0..=3 => {
                    cache.put(k, v);
                    model.put(k, v);
                }
                4 | 5 => assert_eq!(cache.get(&k), model.get(k), "{at}"),
                6 | 7 => assert_eq!(cache.contains_key(&k), model.get(k).is_some(), "{at}"),
                8 | 9 => assert_eq!(cache.invalidate(&k), model.invalidate(k), "{at}"),
                10 => {
                    // 0 included: a capacity is at least one.
                    let capacity = rng.below(8) as usize;
                    cache.set_capacity(capacity);
                    model.capacity = capacity.max(1);
                    model.evict();
                }
                _ => {
                    cache.clear();
                    model.entries.clear();
                }
            }
            assert_eq!(cache.len(), model.entries.len(), "{at}");
            assert_eq!(cache.is_empty(), model.entries.is_empty(), "{at}");
        }
        for k in 0..16 {
            assert_eq!(cache.get(&k), model.get(k), "seed {seed}: key {k}");
        }
        assert!(!cache.is_corrupted(), "seed {seed}");
    });
}

#[test]
fn string_builder_matches_string() {
    const PIECES: &[&str] = &["", "a", "bc", "é", "λx", "\n", "  ", "日本"];
    const CHARS: &[char] = &['z', 'ß', '€', '🦀'];
    each_case(|seed, rng| {
        let sb = StringBuilder::new(&rt());
        let mut model = String::new();
        for step in 0..rng.below(120) {
            let at = At(seed, step);
            let piece = PIECES[rng.below(PIECES.len() as u64) as usize];
            match rng.below(8) {
                0 | 1 => {
                    sb.append(piece);
                    model.push_str(piece);
                }
                2 => {
                    let c = CHARS[rng.below(CHARS.len() as u64) as usize];
                    sb.append_char(c);
                    model.push(c);
                }
                3 | 4 => {
                    // Any char boundary, the end included.
                    let mut bounds: Vec<usize> = model.char_indices().map(|(i, _)| i).collect();
                    bounds.push(model.len());
                    let offset = bounds[rng.below(bounds.len() as u64) as usize];
                    sb.insert(offset, piece);
                    model.insert_str(offset, piece);
                }
                5 | 6 => assert_eq!(sb.to_string(), model, "{at}"),
                _ => {
                    sb.clear();
                    model.clear();
                }
            }
            assert_eq!(sb.len(), model.len(), "{at}");
            assert_eq!(sb.is_empty(), model.is_empty(), "{at}");
        }
        assert_eq!(sb.to_string(), model, "seed {seed}");
        assert!(!sb.is_corrupted(), "seed {seed}");
    });
}
