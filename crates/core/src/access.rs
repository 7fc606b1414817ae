//! Access triples: the only thing the detector observes about the program.
//!
//! The paper's `OnCall(thread_id, obj_id, op_id)` interface (Fig. 5) carries
//! exactly this data. `op_id` is the static program location ([`SiteId`]),
//! and each operation is classified as a read or a write by the thread-safety
//! contract of the instrumented API (§2.2).

use std::sync::OnceLock;

use crate::context::ContextId;
use crate::site::SiteId;

/// Identity of the object being accessed.
///
/// Instrumented collections use the address of their interior storage, which
/// plays the role of the paper's `GetHashCode()` object identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u64);

/// Read/write classification of an operation under the thread-safety
/// contract.
///
/// Two concurrent operations violate the contract iff they target the same
/// object from different threads and at least one of them is a [`Write`]
/// (§2.2).
///
/// [`Write`]: OpKind::Write
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// An operation the contract allows concurrently with other reads.
    Read,
    /// An operation requiring exclusive access.
    Write,
}

impl OpKind {
    /// Returns `true` if operations of kind `self` and `other` conflict.
    pub fn conflicts_with(self, other: OpKind) -> bool {
        matches!(self, OpKind::Write) || matches!(other, OpKind::Write)
    }
}

/// One dynamic access: a thread-unsafe API call observed by the runtime.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// The execution context (thread or task) making the call.
    pub context: ContextId,
    /// The object being accessed.
    pub obj: ObjId,
    /// The static program location of the call (the TSVD point).
    pub site: SiteId,
    /// Human-readable operation name, e.g. `"Dictionary.add"`.
    pub op_name: &'static str,
    /// Read/write classification of the operation.
    pub kind: OpKind,
    /// Monotonic timestamp of the call, in nanoseconds.
    pub time_ns: u64,
}

impl Access {
    /// Returns `true` if `self` and `other` form a thread-safety violation
    /// candidate: different contexts, same object, conflicting kinds.
    ///
    /// This is the paper's conflict predicate: `tid1 != tid2`,
    /// `obj1 == obj2`, and at least one operation is a write.
    pub fn conflicts_with(&self, other: &Access) -> bool {
        self.context != other.context
            && self.obj == other.obj
            && self.kind.conflicts_with(other.kind)
    }
}

/// One classified thread-unsafe API.
///
/// The paper ships TSVD with a list of thread-unsafe .NET classes and the
/// read/write classification of every method, "so a developer can use TSVD
/// without additional configuration" (§4). This registry is that list for
/// the instrumented collection classes: it is the *single source of truth*
/// consumed by the dynamic side (the `tsvd-collections` wrappers assert
/// their reported operations against it) and the static side (the
/// `tsvd-analyze` front end classifies call sites with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApiEntry {
    /// Fully qualified operation name, e.g. `"Dictionary.add"`.
    pub name: &'static str,
    /// Read/write classification under the thread-safety contract.
    pub kind: OpKind,
}

macro_rules! api_table {
    ($($class:literal => { W: [$($w:literal),* $(,)?], R: [$($r:literal),* $(,)?] }),* $(,)?) => {
        /// Every classified API, grouped write-then-read per class.
        pub const API_TABLE: &[ApiEntry] = &[
            $(
                $(ApiEntry { name: concat!($class, ".", $w), kind: OpKind::Write },)*
                $(ApiEntry { name: concat!($class, ".", $r), kind: OpKind::Read },)*
            )*
        ];
    };
}

api_table! {
    "Dictionary" => {
        W: ["add", "set", "remove", "clear"],
        R: ["get", "contains_key", "len", "is_empty", "keys", "values"]
    },
    "List" => {
        W: ["add", "insert", "remove_at", "set", "clear", "sort"],
        R: ["get", "len", "is_empty", "to_vec", "contains"]
    },
    "HashSet" => {
        W: ["add", "remove", "clear"],
        R: ["contains", "len", "is_empty", "to_vec"]
    },
    "Queue" => {
        W: ["enqueue", "dequeue", "clear"],
        R: ["peek", "len", "is_empty"]
    },
    "Stack" => {
        W: ["push", "pop", "clear"],
        R: ["peek", "len", "is_empty"]
    },
    "SortedList" => {
        W: ["add", "set", "remove", "clear"],
        R: ["get", "contains_key", "first", "last", "len", "is_empty"]
    },
    "LinkedDeque" => {
        W: ["push_front", "push_back", "pop_front", "pop_back", "clear"],
        R: ["front", "back", "len", "is_empty"]
    },
    "StringBuilder" => {
        W: ["append", "append_char", "insert", "clear"],
        R: ["to_string", "len", "is_empty"]
    },
    "Cache" => {
        W: ["set_capacity", "put", "invalidate", "clear"],
        R: ["get", "contains_key", "len", "is_empty"]
    },
    "BitArray" => {
        W: ["resize", "set", "flip", "clear_all"],
        R: ["get", "count_ones", "capacity"]
    },
    "SortedSet" => {
        W: ["add", "remove", "clear"],
        R: ["contains", "min", "max", "len", "is_empty", "to_vec"]
    },
    "MultiMap" => {
        W: ["add", "remove_value", "remove_key", "clear"],
        R: ["get", "contains_key", "key_count", "value_count"]
    },
    "PriorityQueue" => {
        W: ["push", "pop", "clear"],
        R: ["peek", "len", "is_empty"]
    },
}

/// Looks up the classification of `op_name`, or `None` if the API is not in
/// the thread-unsafe list.
pub fn classify_op(op_name: &str) -> Option<OpKind> {
    API_TABLE.iter().find(|e| e.name == op_name).map(|e| e.kind)
}

/// Splits an operation name into `(class, method)`, e.g. `"Dictionary.add"`
/// into `("Dictionary", "add")`.
pub fn split_op(op_name: &str) -> Option<(&str, &str)> {
    op_name.split_once('.')
}

/// Number of write-classified APIs.
pub fn write_api_count() -> usize {
    API_TABLE.iter().filter(|e| e.kind == OpKind::Write).count()
}

/// Number of read-classified APIs.
pub fn read_api_count() -> usize {
    API_TABLE.iter().filter(|e| e.kind == OpKind::Read).count()
}

/// The distinct instrumented class names, sorted: derived from
/// [`API_TABLE`] once per process.
fn class_table() -> &'static [&'static str] {
    static CLASSES: OnceLock<Vec<&'static str>> = OnceLock::new();
    CLASSES.get_or_init(|| {
        let mut classes: Vec<&str> = API_TABLE
            .iter()
            .filter_map(|e| e.name.split('.').next())
            .collect();
        classes.sort_unstable();
        classes.dedup();
        classes
    })
}

/// The distinct instrumented class names, sorted.
pub fn api_classes() -> Vec<&'static str> {
    class_table().to_vec()
}

/// The instrumented class called exactly `name`, as the table spells it.
pub fn api_class(name: &str) -> Option<&'static str> {
    let classes = class_table();
    classes.binary_search(&name).ok().map(|i| classes[i])
}

/// Number of distinct instrumented classes.
pub fn class_count() -> usize {
    class_table().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(ctx: u64, obj: u64, kind: OpKind) -> Access {
        Access {
            context: ContextId(ctx),
            obj: ObjId(obj),
            site: crate::site!(),
            op_name: "test.op",
            kind,
            time_ns: 0,
        }
    }

    #[test]
    fn write_write_conflicts() {
        assert!(acc(1, 7, OpKind::Write).conflicts_with(&acc(2, 7, OpKind::Write)));
    }

    #[test]
    fn read_write_conflicts_both_ways() {
        assert!(acc(1, 7, OpKind::Read).conflicts_with(&acc(2, 7, OpKind::Write)));
        assert!(acc(1, 7, OpKind::Write).conflicts_with(&acc(2, 7, OpKind::Read)));
    }

    #[test]
    fn read_read_does_not_conflict() {
        assert!(!acc(1, 7, OpKind::Read).conflicts_with(&acc(2, 7, OpKind::Read)));
    }

    #[test]
    fn same_context_never_conflicts() {
        assert!(!acc(1, 7, OpKind::Write).conflicts_with(&acc(1, 7, OpKind::Write)));
    }

    #[test]
    fn different_objects_never_conflict() {
        assert!(!acc(1, 7, OpKind::Write).conflicts_with(&acc(2, 8, OpKind::Write)));
    }

    #[test]
    fn api_table_shape() {
        assert_eq!(class_count(), 13);
        assert_eq!(write_api_count(), 50);
        assert_eq!(read_api_count(), 54);
        assert_eq!(API_TABLE.len(), 104);
    }

    /// What `api_class` replaced: a linear scan of the table itself.
    fn api_class_by_scan(name: &str) -> Option<&'static str> {
        API_TABLE
            .iter()
            .filter_map(|e| e.name.split('.').next())
            .find(|c| *c == name)
    }

    #[test]
    fn api_class_agrees_with_a_scan_of_the_table() {
        let classes = api_classes();
        assert!(classes.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        for class in &classes {
            assert_eq!(api_class(class), Some(*class));
            // Every proper prefix and suffix, and a one-character extension:
            // near misses on both sides of each table entry.
            for cut in 0..class.len() {
                for probe in [&class[..cut], &class[cut + 1..]] {
                    assert_eq!(api_class(probe), api_class_by_scan(probe), "{probe:?}");
                }
            }
            let longer = format!("{class}s");
            assert_eq!(api_class(&longer), api_class_by_scan(&longer));
        }
        // 1 000 identifiers from a fixed-seed generator, a quarter of them
        // real class names so both outcomes are exercised.
        let mut rng = crate::rng::SplitMix64::new(0x6170_695f_636c_6173);
        let mut below = move |n: usize| rng.below(n as u64) as usize;
        let alphabet = b"ABDLQSabcdeikrtuy_0";
        let mut hits = 0;
        for _ in 0..1000 {
            let ident = if below(4) == 0 {
                classes[below(classes.len())].to_string()
            } else {
                (0..1 + below(12))
                    .map(|_| char::from(alphabet[below(alphabet.len())]))
                    .collect()
            };
            assert_eq!(api_class(&ident), api_class_by_scan(&ident), "{ident:?}");
            hits += usize::from(api_class(&ident).is_some());
        }
        assert!((150..400).contains(&hits), "{hits} hits of 1000");
    }

    #[test]
    fn classify_known_apis() {
        assert_eq!(classify_op("Dictionary.add"), Some(OpKind::Write));
        assert_eq!(classify_op("Dictionary.contains_key"), Some(OpKind::Read));
        assert_eq!(classify_op("List.sort"), Some(OpKind::Write));
        assert_eq!(classify_op("Cache.get"), Some(OpKind::Read));
    }

    #[test]
    fn classify_unknown_api() {
        assert_eq!(classify_op("ConcurrentDictionary.add"), None);
        assert_eq!(classify_op(""), None);
    }

    #[test]
    fn no_duplicate_entries() {
        let mut names: Vec<&str> = API_TABLE.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn split_op_splits_at_first_dot() {
        assert_eq!(split_op("Dictionary.add"), Some(("Dictionary", "add")));
        assert_eq!(split_op("nodot"), None);
    }
}
