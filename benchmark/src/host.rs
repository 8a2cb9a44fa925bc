//! What the benchmark records about the machine it ran on.

use serde_json::Value;
use std::process::Command;

/// A `VmHWM:` / `VmRSS:` line of `/proc/self/status`, in bytes; 0 when
/// the field cannot be read (not Linux).
pub fn proc_status_bytes(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn load_average_1m() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// First line of a command's standard output, or `"unknown"` (a
/// checkout that is not a git repository has no HEAD; git is told not
/// to look for one above the checkout).
fn first_line_of(program: &str, args: &[&str]) -> String {
    let above_checkout = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above_checkout)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host facts recorded in every output file. Warns, without failing,
/// when the machine is already busy: host-time metrics taken then are
/// not comparable.
pub fn host_info() -> Value {
    let cpus = host_cpus();
    let load = load_average_1m();
    if let Some(load) = load.filter(|&l| l > cpus.saturating_sub(1) as f64) {
        eprintln!(
            "warning: 1-minute load average {load:.2} exceeds host_cpus - 1 = {}; \
             host-time metrics will be noisy",
            cpus.saturating_sub(1)
        );
    }
    crate::object([
        ("host_cpus", Value::UInt(cpus as u64)),
        ("rustc", Value::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_head",
            Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("load_average_1m", load.map_or(Value::Null, Value::Float)),
    ])
}
