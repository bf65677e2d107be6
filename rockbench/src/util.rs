//! Process-level helpers: the set-up clock, scratch directories under the
//! checkout, peak memory, and run provenance.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Fewest times a run sets up its workload; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// A run keeps setting up until this many seconds of set-up have passed,
/// so a workload whose set-up takes tens of milliseconds still reports
/// the median of many repetitions.
pub const SETUP_MIN_S: f64 = 2.0;

/// Where the benchmark keeps its stores and trace files: `out/` in this
/// package, inside the checkout it was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Records the process start; call first thing in `main`.
pub fn mark_process_start() {
    PROCESS_START.get_or_init(Instant::now);
}

/// Runs `setup` at least [`SETUP_REPS`] times and until [`SETUP_MIN_S`]
/// seconds of set-up have passed, and returns the last result with the
/// median set-up time in seconds. The first repetition is timed from
/// process start, so it carries everything a single run would pay before
/// its first timed operation. `setup` is deterministic, so every
/// repetition builds the same inputs.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        // Drop the previous repetition, untimed, so its memory and stores
        // do not overlap the next one, and hand its freed memory back so
        // that repetitions do not raise the run's peak resident memory.
        if let Some(previous) = last.take() {
            drop(previous);
            release_free_memory();
        }
        let start = if times.is_empty() {
            *PROCESS_START.get_or_init(Instant::now)
        } else {
            Instant::now()
        };
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), crate::stats::median(&times)))
}

/// Returns the allocator's free memory to the system. Without it, each
/// set-up repetition left its freed memory resident, and the peak grew by
/// a varying amount with every repetition.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A directory under [`out_dir`], emptied on creation and removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<out_dir>/<tag>-<pid>` afresh.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Files and bytes under `dir`, recursively.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    (files, bytes)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` without running git;
/// `"none"` when the checkout is not a repository.
pub fn git_rev() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else { return "none".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources (`crates/**/*.rs`, manifests and
/// the lock file) in sorted path order: identifies the code measured even
/// where the checkout carries no git metadata.
pub fn source_fingerprint() -> String {
    let mut paths = Vec::new();
    let root = repo_root();
    let mut stack = vec![root.join("crates")];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
                paths.push(p);
            }
        }
    }
    paths.extend([root.join("Cargo.toml"), root.join("Cargo.lock")]);
    paths.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in &paths {
        let bytes = fs::read(p).unwrap_or_default();
        let name = p.strip_prefix(&root).unwrap_or(p).to_string_lossy().into_owned();
        for b in name.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
