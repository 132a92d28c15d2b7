//! The host side of a measurement: the wall clock, peak memory, and the
//! fingerprint that says which machine and build produced a result.

use std::time::Instant;

/// Reads the wall clock. The workspace lint bans clock reads from
/// simulation code; the benchmark measures the simulator from outside,
/// and no reading ever reaches a simulated report or digest.
pub fn now() -> Instant {
    // lint: allow(no-wallclock) — host timing is the benchmark's output; it never feeds a simulated report
    Instant::now()
}

/// Seconds elapsed since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or 0 where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The revision the sources came from: `git rev-parse HEAD` inside a
/// clone, else the `source_fnv` digest of the simulator sources (an
/// exported checkout is not a git repository).
fn revision() -> String {
    if std::path::Path::new(".git").exists() {
        let rev = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
        if rev != "unknown" {
            return rev;
        }
    }
    format!("source_fnv:{:016x}", source_digest())
}

/// FNV-1a over every `.rs` and `Cargo.toml` file under `crates/` and
/// `src/`, in sorted path order: identifies the simulator sources of a
/// checkout that carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
    }
    crate::stats::fnv1a(&bytes)
}

/// Whether the build targets the host CPU. `.cargo/config.toml` at the
/// repository root sets `-C target-cpu=native`; this reads back the
/// effect (AVX2 is on for every x86-64 host the benchmark has run on and
/// off in a portable x86-64 build).
fn target_cpu_native() -> bool {
    cfg!(target_feature = "avx2") || cfg!(not(target_arch = "x86_64"))
}

/// The host fingerprint carried by every result, as a JSON object.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"target_cpu_native\": {}, \"revision\": {}}}",
        json_str(&command_line("rustc", &["-V"])),
        target_cpu_native(),
        json_str(&revision()),
    )
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
