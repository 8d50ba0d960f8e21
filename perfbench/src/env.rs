//! The environment stamp printed with every result, and small helpers that
//! read the host: core count, CPU model, peak RSS, the source fingerprint.

use std::path::Path;

/// Everything a reader needs to compare two results: the host, the knobs the
/// program sees, the build and the inputs.
pub struct Stamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rll_threads: String,
    pub rll_kernel: String,
    pub profile: &'static str,
    pub commit: String,
    pub source_fnv: String,
    pub seed: u64,
    pub workload: String,
    pub trace: bool,
}

/// Hardware threads the host reports (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn env_or_unset(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD` when the checkout is a git repository.
fn commit(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("rev-parse")
        .arg("HEAD")
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

fn fnv_update(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

/// FNV-1a over the program's sources (`crates/`, `vendor/`, the root
/// manifest and lock file), in sorted path order. Identifies the code under
/// test when the checkout carries no git metadata.
fn source_fnv(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    collect_sources(&root.join("vendor"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            fnv_update(&mut hash, rel.to_string_lossy().as_bytes());
            fnv_update(&mut hash, &bytes);
        }
    }
    format!("{hash:016x}")
}

impl Stamp {
    pub fn collect(root: &Path, workload: &str, seed: u64, trace: bool) -> Stamp {
        Stamp {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rll_threads: env_or_unset("RLL_THREADS"),
            rll_kernel: env_or_unset("RLL_KERNEL"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: commit(root),
            source_fnv: source_fnv(root),
            seed,
            workload: workload.to_string(),
            trace,
        }
    }

    /// One JSON line (printed before the result line).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"env\":{{\"nproc\":{},\"cpu_model\":{},\"RLL_THREADS\":{},\"RLL_KERNEL\":{},\
             \"profile\":{},\"commit\":{},\"source_fnv\":{},\"seed\":{},\"workload\":{},\
             \"trace\":{},\"cores\":{}}}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rll_threads),
            json_str(&self.rll_kernel),
            json_str(self.profile),
            json_str(&self.commit),
            json_str(&self.source_fnv),
            self.seed,
            json_str(&self.workload),
            self.trace,
            json_str("benchmark process, load generator and server share the same cores"),
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `VmHWM` (peak resident set) of a process in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
