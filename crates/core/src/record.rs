//! The one way this workspace persists a record.
//!
//! Whole-file snapshots (trap files, suggestion files, the analyzer's cache
//! entry, the bench gates' baselines) are replaced by [`save_atomic`], so a
//! crash never tears them. Append-only JSONL logs (the durable violation
//! sink, the fleet ledger) are appended by a [`JsonlFile`], one record per
//! `\n`-terminated line, and read back, like suggestion files, by
//! [`read_jsonl`], which skips the one line a crash mid-append can tear.

use std::ffi::OsString;
use std::fmt::Display;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

/// Replaces `path` with `contents` atomically: the bytes go to a temporary
/// file next to the target and are renamed over it, so a concurrent reader
/// or a crash mid-save sees either the old file or the new one — never a
/// truncated hybrid. The temporary is removed if either step fails.
///
/// The temporary lives in the target's own directory because `rename(2)`
/// is only atomic within a filesystem; its pid suffix keeps concurrent
/// saver *processes* from clobbering each other's temporaries.
pub fn save_atomic(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "save target has no name"))?;
    let mut tmp_name = OsString::from(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// An append-only JSONL file. The first [`append`](JsonlFile::append) opens
/// (or reopens) it, so a log that never receives a record leaves no file;
/// each line goes out in one `write_all`, so a crash can tear only the
/// line being written.
pub struct JsonlFile {
    path: PathBuf,
    fsync: bool,
    state: Mutex<Appender>,
}

#[derive(Default)]
struct Appender {
    /// `None` until the first append.
    file: Option<File>,
    /// A line was written since the last successful sync.
    unsynced: bool,
}

impl JsonlFile {
    /// Prepares a log at `path`, making any missing parent directory. With
    /// `fsync`, every append syncs its own data before it returns.
    pub fn create(path: &Path, fsync: bool) -> io::Result<JsonlFile> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(JsonlFile {
            path: path.to_path_buf(),
            fsync,
            state: Mutex::default(),
        })
    }

    /// Appends `line` (one JSON object, no newline) as one line. A path
    /// that cannot be opened fails here, at every append that tries.
    pub fn append(&self, mut line: String) -> io::Result<()> {
        line.push('\n');
        let mut state = self.state.lock();
        let Appender { file, unsynced } = &mut *state;
        let file = match file {
            Some(file) => file,
            None => file.insert(open_for_append(&self.path)?),
        };
        file.write_all(line.as_bytes())?;
        *unsynced = true;
        if self.fsync {
            sync_data(file)?;
            *unsynced = false;
        }
        Ok(())
    }

    /// Syncs what was appended since the last sync; free when nothing is
    /// owed. Best effort: a failed sync (in a panic hook, say) stays owed.
    pub fn sync(&self) {
        let mut state = self.state.lock();
        if state.unsynced && state.file.as_ref().is_some_and(|f| sync_data(f).is_ok()) {
            state.unsynced = false;
        }
    }
}

/// Opens `path` for appending. A file a crash left ending in a torn line
/// gets its missing `\n` first, or the next record would be glued onto the
/// fragment and skipped with it.
fn open_for_append(path: &Path) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    if file.seek(SeekFrom::End(0))? > 0 {
        let mut last = [0u8];
        file.seek(SeekFrom::End(-1))?;
        file.read_exact(&mut last)?;
        if last != *b"\n" {
            file.write_all(b"\n")?;
        }
    }
    Ok(file)
}

#[cfg(test)]
thread_local! {
    /// `sync_data` calls made by this thread — the current test, that is.
    pub(crate) static SYNCS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn sync_data(file: &File) -> io::Result<()> {
    #[cfg(test)]
    SYNCS.with(|n| n.set(n.get() + 1));
    file.sync_data()
}

/// Reads every record of a JSONL file in order, split into lines as
/// [`str::lines`] splits text. Each line is decoded and parsed alone, so a
/// torn line (even one torn inside a multi-byte character) or a corrupt one
/// costs only itself; the file gets one warning for all of them. A read
/// error names the file; whether a missing file is empty is the caller's.
pub fn read_jsonl<T, E: Display>(
    path: &Path,
    mut parse: impl FnMut(&str) -> Result<T, E>,
) -> io::Result<Vec<T>> {
    let bytes = std::fs::read(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    let (mut records, mut skipped, mut first_skip) = (Vec::new(), 0, String::new());
    for (idx, line) in bytes.split(|&b| b == b'\n').enumerate() {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.trim_ascii().is_empty() {
            continue;
        }
        match std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(text).map_err(|e| e.to_string()))
        {
            Ok(record) => records.push(record),
            Err(e) => {
                skipped += 1;
                if skipped == 1 {
                    first_skip = format!("line {}: {e}", idx + 1);
                }
            }
        }
    }
    if skipped > 0 {
        eprintln!(
            "tsvd: {}: skipped {skipped} unreadable line(s), the first at {first_skip}",
            path.display()
        );
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tsvd_record_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("read_dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_creates_then_replaces_and_leaves_only_the_target() {
        let dir = scratch("replace");
        let path = dir.join("data.json");
        save_atomic(&path, "first").expect("create");
        save_atomic(&path, b"second").expect("replace");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "second");
        assert_eq!(names(&dir), ["data.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_reports_the_error_and_removes_the_temporary() {
        // A non-empty directory squatting on the target name: the write to
        // the temporary succeeds, the rename cannot.
        let dir = scratch("fail");
        let path = dir.join("data.json");
        std::fs::create_dir_all(path.join("occupied")).expect("mkdir target");
        assert!(save_atomic(&path, "x").is_err());
        assert_eq!(names(&dir), ["data.json"], "no temporary left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_and_nameless_target_are_errors() {
        let dir = scratch("missing");
        assert!(save_atomic(&dir.join("no/such/dir/data.json"), "x").is_err());
        assert!(save_atomic(Path::new("/"), "x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn numbers(path: &Path) -> Vec<u32> {
        read_jsonl(path, str::parse::<u32>).expect("read")
    }

    #[test]
    fn read_splits_like_str_lines_and_skips_each_bad_line_alone() {
        let dir = scratch("read");
        let path = dir.join("log.jsonl");
        std::fs::write(&path, b"1\n\n  \n2\r\nx\n\xff\xfe\n3\n4").expect("write");
        assert_eq!(numbers(&path), [1, 2, 3, 4]);
        std::fs::write(&path, b"").expect("write");
        assert!(numbers(&path).is_empty());
        assert_eq!(
            read_jsonl(&dir.join("nope.jsonl"), str::parse::<u32>)
                .expect_err("missing")
                .kind(),
            io::ErrorKind::NotFound,
            "what a missing file means is the caller's to say"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_tear_inside_a_multi_byte_character_costs_only_its_line() {
        let dir = scratch("utf8");
        let path = dir.join("log.jsonl");
        // `é` is 0xC3 0xA9; the writer died between the two bytes.
        std::fs::write(&path, b"1\n2\n\"caf\xc3").expect("write");
        assert_eq!(numbers(&path), [1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_open_late_and_a_reopen_ends_a_torn_tail_first() {
        let dir = scratch("append");
        let path = dir.join("deep/log.jsonl");
        let log = JsonlFile::create(&path, false).expect("create");
        assert!(dir.join("deep").is_dir() && !path.exists());
        log.append("1".into()).expect("append");
        log.append("2".into()).expect("append");
        drop(log);
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(b"\"caf\xc3"))
            .expect("tear");
        let log = JsonlFile::create(&path, false).expect("reopen");
        log.append("3".into()).expect("append");
        assert_eq!(numbers(&path), [1, 2, 3]);
        assert_eq!(
            std::fs::read(&path).expect("read"),
            b"1\n2\n\"caf\xc3\n3\n",
            "one newline ends the fragment; intact files gain nothing"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
