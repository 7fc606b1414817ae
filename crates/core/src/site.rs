//! Static program locations ("TSVD points") and their interner.
//!
//! The paper identifies a bug by the *unordered pair of static program
//! locations* making the conflicting calls. A location here is a source
//! position captured with `#[track_caller]` at the instrumented call site,
//! interned into a small copyable [`SiteId`]. Interning gives three things
//! the algorithm needs:
//!
//! - cheap hashing/equality on the hot `OnCall` path,
//! - a stable textual form for the persistent trap file (§3.4.6),
//! - the ability to re-materialize sites *imported* from a previous run's
//!   trap file before they are executed in this run.

use std::collections::HashMap;
use std::fmt;
use std::panic::Location;
use std::sync::OnceLock;

use parking_lot::RwLock;

/// An interned static program location (a TSVD point).
///
/// `SiteId`s are process-global: the same source location always interns to
/// the same id, including locations imported from a trap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(u32);

/// The source data backing a [`SiteId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteData {
    /// Source file of the call site.
    pub file: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub column: u32,
}

impl fmt::Display for SiteData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

struct Interner {
    by_data: HashMap<SiteData, SiteId>,
    data: Vec<SiteData>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            by_data: HashMap::new(),
            data: Vec::new(),
        })
    })
}

impl SiteId {
    /// Interns the caller's source location.
    ///
    /// Instrumented wrappers mark themselves `#[track_caller]` so that the
    /// *caller's* position — the TSVD point — is captured, mirroring the
    /// paper's binary-rewriting proxies that record the original call site.
    #[track_caller]
    pub fn here() -> SiteId {
        let loc = Location::caller();
        SiteId::from_location(loc)
    }

    /// Interns an explicit [`Location`].
    pub fn from_location(loc: &'static Location<'static>) -> SiteId {
        Self::intern(SiteData {
            file: loc.file(),
            line: loc.line(),
            column: loc.column(),
        })
    }

    /// Interns explicit site data.
    pub fn intern(data: SiteData) -> SiteId {
        {
            let guard = interner().read();
            if let Some(&id) = guard.by_data.get(&data) {
                return id;
            }
        }
        let mut guard = interner().write();
        if let Some(&id) = guard.by_data.get(&data) {
            return id;
        }
        let id = SiteId(
            u32::try_from(guard.data.len()).expect("more than u32::MAX distinct TSVD points"),
        );
        guard.data.push(data);
        guard.by_data.insert(data, id);
        id
    }

    /// Parses and interns the textual form produced by [`fmt::Display`]
    /// (`file:line:column`). Used when loading a trap file.
    ///
    /// Returns `None` if `text` is not of the expected shape.
    pub fn parse(text: &str) -> Option<SiteId> {
        let (rest, column) = text.rsplit_once(':')?;
        let (file, line) = rest.rsplit_once(':')?;
        let line: u32 = line.parse().ok()?;
        let column: u32 = column.parse().ok()?;
        // Imported file names were not compiled into this binary; leak them
        // once per distinct site (bounded by the trap-file size).
        let file: &'static str = leak_str(file);
        Some(Self::intern(SiteData { file, line, column }))
    }

    /// Returns the source data for this site.
    pub fn data(self) -> SiteData {
        interner().read().data[self.0 as usize]
    }

    /// Raw index (useful for dense per-site tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The site whose [`index`](SiteId::index) is `index`.
    pub(crate) fn from_index(index: usize) -> SiteId {
        SiteId(u32::try_from(index).expect("a site index fits u32"))
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.data())
    }
}

/// Interns a string as `&'static str`, deduplicating so repeated trap-file
/// loads do not grow memory.
fn leak_str(s: &str) -> &'static str {
    static STRINGS: OnceLock<RwLock<HashMap<String, &'static str>>> = OnceLock::new();
    let strings = STRINGS.get_or_init(|| RwLock::new(HashMap::new()));
    {
        let guard = strings.read();
        if let Some(&v) = guard.get(s) {
            return v;
        }
    }
    let mut guard = strings.write();
    if let Some(&v) = guard.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(s.to_owned(), leaked);
    leaked
}

/// Interns the current source position as a [`SiteId`].
///
/// # Examples
///
/// ```
/// let a = tsvd_core::site!();
/// let b = tsvd_core::site!();
/// assert_ne!(a, b, "distinct source positions intern to distinct sites");
/// ```
#[macro_export]
macro_rules! site {
    () => {
        $crate::site::SiteId::here()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_location_interns_once() {
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(SiteId::here()); // Same source position each iteration.
        }
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
    }

    #[test]
    fn different_locations_differ() {
        let a = SiteId::here();
        let b = SiteId::here();
        assert_ne!(a, b);
        assert_ne!(a.data().line, b.data().line);
    }

    #[test]
    fn display_round_trips_through_parse() {
        let a = SiteId::here();
        let text = a.to_string();
        let parsed = SiteId::parse(&text).expect("well-formed");
        assert_eq!(a, parsed, "parse of our own display must re-intern to us");
    }

    #[test]
    fn parse_foreign_site_is_stable() {
        let x = SiteId::parse("some/other/file.rs:10:5").expect("well-formed");
        let y = SiteId::parse("some/other/file.rs:10:5").expect("well-formed");
        assert_eq!(x, y);
        assert_eq!(x.data().line, 10);
        assert_eq!(x.data().column, 5);
        assert_eq!(x.data().file, "some/other/file.rs");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SiteId::parse("nocolons").is_none());
        assert!(SiteId::parse("file.rs:notanumber:3").is_none());
        assert!(SiteId::parse("file.rs:3:notanumber").is_none());
    }

    #[test]
    fn windows_style_paths_survive() {
        // Files may contain colons; rsplit keeps line/column parsing correct.
        let s = SiteId::parse("C:/src/lib.rs:7:9").expect("well-formed");
        assert_eq!(s.data().file, "C:/src/lib.rs");
        assert_eq!(s.data().line, 7);
    }
}
