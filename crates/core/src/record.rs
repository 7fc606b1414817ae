//! The one way this workspace replaces a file on disk.
//!
//! Trap files, suggestion files, the analyzer's cache entry, and the bench
//! gates' baselines are all whole-file snapshots that a reader may open at
//! any moment and that a crash must not tear. They all go through
//! [`save_atomic`].

use std::ffi::OsString;
use std::io;
use std::path::Path;

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
}
