//! Host and provenance record, and the process's peak memory.

use osn_serde::Value;

use crate::Options;

/// Peak resident set (`VmHWM` of `/proc/self/status`) in MiB; 0 where the
/// file is unavailable.
pub fn peak_rss_mib() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0);
    kib as f64 / 1024.0
}

/// Keep the core busy for about half a second. A core that was idle runs
/// the first few hundred milliseconds of work markedly slower, which
/// would land entirely on the set-ups of the quick workloads.
pub fn warm_up() {
    let started = std::time::Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    while started.elapsed() < std::time::Duration::from_millis(500) {
        for _ in 0..100_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
    }
    std::hint::black_box(x);
}

/// The record every result carries: what ran, on which inputs, on what
/// host and toolchain. Wall-clock figures compare only between records
/// with matching `nproc`, `cpu_model` and `l3`; counts compare anywhere.
pub fn record(opts: &Options) -> Value {
    Value::obj([
        ("workload", Value::Str(opts.workload.clone())),
        ("seed", Value::Uint(opts.seed)),
        ("seconds", Value::Num(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        (
            "nproc",
            Value::Uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", Value::Str(cpu_model())),
        ("l3", Value::Str(l3_size())),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("git_commit", Value::Str(git_commit())),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn l3_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// First line of a command's standard output, or `unknown` when it cannot
/// run. `output` waits for the child to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit being measured: `git rev-parse HEAD` when the working
/// directory is a git checkout, else `unknown` (an exported source tree
/// carries no commit).
fn git_commit() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    }
}
