//! Host and provenance facts, and process resource counters from `/proc`.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn cpuinfo_field(info: &str, key: &str) -> Option<String> {
    info.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// The widest SIMD instruction set the CPU reports.
fn simd_isa(info: &str) -> &'static str {
    let flags = cpuinfo_field(info, "flags").unwrap_or_default();
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    if has("avx512f") {
        "avx512"
    } else if has("avx2") {
        "avx2"
    } else if has("sse4_2") {
        "sse4.2"
    } else if has("asimd") {
        "neon"
    } else {
        "unknown"
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the sources the benchmark builds from, so a result can be
/// tied to its code even where no git metadata exists.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

pub fn provenance(workload: &str, seed: u64, seconds: u64, traced: bool) -> Json {
    let info = read("/proc/cpuinfo");
    let mem_kb: f64 = cpuinfo_field(&read("/proc/meminfo"), "MemTotal")
        .and_then(|v| v.split_whitespace().next().and_then(|n| n.parse().ok()))
        .unwrap_or(0.0);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "cpu_model",
            Json::from(cpuinfo_field(&info, "model name").unwrap_or_else(|| "unknown".into())),
        ),
        ("cores", Json::from(cores)),
        ("ram_gb", Json::from(mem_kb / (1024.0 * 1024.0))),
        ("simd_isa", Json::from(simd_isa(&info))),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("source_hash", Json::from(source_hash())),
        (
            "mode",
            Json::from(if traced { "traced" } else { "untraced" }.to_string() + ", release build"),
        ),
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
    ])
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    cpuinfo_field(&read("/proc/self/status"), "VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|n| n.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // Linux reports these in USER_HZ, which is 100 on every mainstream
    // configuration.
    (ticks(11) + ticks(12)) / 100.0
}

/// Cumulative (steal, total) jiffies of all CPUs from `/proc/stat`: time
/// the hypervisor ran something else while this machine wanted the CPU.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}
