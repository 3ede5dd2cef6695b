//! The host and configuration every result is recorded with: numbers from
//! different hosts are not a trajectory.

use std::path::Path;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of cpu0's cache at `level` (unified or data), as sysfs prints it.
fn cache_size(level: &str) -> String {
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(l), Some(kind)) = (
            read(&format!("{base}/level")),
            read(&format!("{base}/type")),
        ) else {
            continue;
        };
        if l == level && kind != "Instruction" {
            return read(&format!("{base}/size")).unwrap_or_else(|| "unknown".into());
        }
    }
    "unknown".into()
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix of its canonical form in `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(canon) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = read("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            canon
                .starts_with(mnt)
                .then(|| (mnt.len(), format!("{fs} on {mnt}")))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Cpus the machine has online (the load generator itself is pinned to one
/// of them, so this is not its own available parallelism).
fn nproc() -> String {
    read("/proc/cpuinfo")
        .map(|s| {
            s.lines()
                .filter(|l| l.starts_with("processor"))
                .count()
                .to_string()
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The last cpu this process may run on (`Cpus_allowed_list`).
fn last_allowed_cpu() -> Option<u32> {
    let status = read("/proc/self/status")?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let last = list.trim().rsplit(',').next()?;
    last.rsplit('-').next()?.trim().parse().ok()
}

/// Pin this process to its last allowed cpu, so the load generator's
/// threads (which inherit the mask) run on the same core in every run
/// instead of wherever the scheduler puts them. Instance processes set
/// their own mask when spawned. Uses `taskset`, like the deployment layer;
/// returns the cpu, or `None` when pinning was not possible.
pub fn pin_load_generator() -> Option<u32> {
    let cpu = last_allowed_cpu()?;
    let ok = std::process::Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    ok.then_some(cpu)
}

/// Cpu time of the whole machine so far, in clock ticks, as `(steal,
/// total)` from the aggregate `cpu` line of `/proc/stat`. Steal is time a
/// virtual cpu was ready to run while the hypervisor ran another guest.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = read("/proc/stat")?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user and nice).
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*f.get(7)?, f.iter().sum()))
}

/// One `key=value` line per fact, for the run's text report.
pub fn describe(run_dir: &Path) -> Vec<(String, String)> {
    vec![
        ("nproc".into(), nproc()),
        ("cpu".into(), cpu_model()),
        ("l2".into(), cache_size("2")),
        ("l3".into(), cache_size("3")),
        (
            "kernel".into(),
            read("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        ),
        ("wal_fs".into(), filesystem_of(run_dir)),
    ]
}
