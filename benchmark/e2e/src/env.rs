//! The machine and the process: thread count, memory high-water mark,
//! scratch space inside the build directory, and the fingerprint every
//! results file carries.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Value};

/// `T`: the thread / worker count every workload uses.
pub fn threads() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the `slot`-th CPU this process may run on
/// (wrapping). The hot workloads' threads hand locks to each other all the
/// time, and the scheduler likes to put a thread next to whoever woke it:
/// unpinned, two such threads spend seconds at a time sharing one CPU,
/// where they never contend and run several times faster than in parallel.
/// Pinning makes "`T` threads" mean `T` CPUs on every run. Best effort: if
/// the kernel refuses, the thread stays where it was.
pub fn pin_current_thread(slot: usize) {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed, the
    // layout `sched_getaffinity` documents for `cpu_set_t`; pid 0 names the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..CPU_SET_WORDS * 64)
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[slot % cpus.len()];
    let mut only = [0u64; CPU_SET_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of exactly the size passed, in the
    // `cpu_set_t` layout, naming one CPU the kernel just reported as allowed.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
}

/// `VmHWM` of this process in MiB — the peak resident set. Each workload
/// runs in a process of its own, so this is per workload.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The directory the benchmark's binaries were built into
/// (`<target>/release/benchmark` → `<target>`).
pub fn target_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?.canonicalize()?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| std::io::Error::other("benchmark binary has no target directory"))
}

/// `<target>/benchmark`: where results, traces and scratch trees go.
pub fn output_dir() -> std::io::Result<PathBuf> {
    let dir = target_dir()?.join("benchmark");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A sibling binary the one build command built next to this one.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let path = target_dir()
        .map_err(|e| e.to_string())?
        .join("release")
        .join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build it with benchmark/run.sh",
            path.display()
        ))
    }
}

/// A per-process scratch directory, removed on drop. The process changes
/// into it, so fleet ledgers and sockets get short relative paths whatever
/// the checkout is called (a Unix socket path is capped near 100 bytes).
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<target>/benchmark/run-<pid>` and makes it the working
    /// directory.
    pub fn enter() -> std::io::Result<Scratch> {
        let dir = output_dir()?.join(format!("run-{}", std::process::id()));
        // A stale directory can only be a dead process's with a recycled pid.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        std::env::set_current_dir(&dir)?;
        Ok(Scratch { dir })
    }

    /// Absolute path of the scratch directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(parent) = self.dir.parent() {
            let _ = std::env::set_current_dir(parent);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn command_line(program: &str, args: &[&str], cwd: Option<&Path>) -> String {
    let mut command = Command::new(program);
    command.args(args);
    if let Some(dir) = cwd {
        command.current_dir(dir);
    }
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were taken on. `repo` is where `git rev-parse` runs
/// (the driver's checkouts are not repositories; they record `unknown`).
pub fn fingerprint(repo: &Path) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cpu_max = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    json::obj([
        ("nproc", Value::UInt(nproc() as u64)),
        ("threads", Value::UInt(threads() as u64)),
        ("cpu_model", json::text(cpu_model)),
        ("cgroup_cpu_max", json::text(cpu_max)),
        ("rustc", json::text(command_line("rustc", &["-V"], None))),
        (
            "git_rev",
            json::text(command_line("git", &["rev-parse", "HEAD"], Some(repo))),
        ),
    ])
}
