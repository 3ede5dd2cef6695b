//! Standing a workload's deployment up and taking it down: spawn timing,
//! the clean-drain and in-doubt checks, and what `/proc` says about the
//! instance processes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_server::deploy::{DeployConfig, Deployment, SpawnMode, Transport};

use crate::workload::{Workload, MICRO_ROW_SIZE};

/// Everything a run writes lives under this directory of the checkout:
/// socket files, the replays' log files and the written-out spans.
pub const RUN_ROOT: &str = "perfbench/.run";

/// This process's scratch directory under [`RUN_ROOT`]. Relative, so the
/// socket paths inside stay well under the `sun_path` limit wherever the
/// checkout lives; instance processes inherit the working directory.
pub fn run_dir() -> PathBuf {
    Path::new(RUN_ROOT).join(std::process::id().to_string())
}

/// Contention aborts a request may retry before it counts as failed (the
/// deployment's `retry_limit`, used server-side and by the coordinator).
/// The shipped default of 64 is not enough for `tpcc-shared`: wait-die
/// gives each retry a fresh (younger) transaction id, so a victim can die
/// again and again while the other client holds the hot warehouse and
/// district rows. There a request averages about two retries, the worst
/// of a 20 s run takes about 30, and about one request in half a million
/// used up all 64 (some 14 ms of back-to-back deaths; the backoff caps at
/// 256 us per retry). With 4096 a request fails only after about a second
/// of them. Retries stay measured: `retries` and `max_retries` in the
/// report, `deploy.retries_per_txn` in the ledger.
pub const RETRY_LIMIT: u32 = 4096;

/// Spawn the workload's deployment once, every WAL on the memory log
/// device. Returns the deployment and the time from spawn to every
/// instance READY with its data loaded.
pub fn spawn(wl: &Workload, dir: &Path) -> Result<(Deployment, Duration), String> {
    let cfg = DeployConfig {
        instances: wl.instances,
        transport: Transport::Uds,
        total_rows: wl.total_rows(),
        row_size: MICRO_ROW_SIZE,
        engine: wl.engine,
        workload: wl.deploy_workload(),
        pin: true,
        obs: true,
        spawn: SpawnMode::SelfExec,
        socket_dir: Some(dir.to_path_buf()),
        wal_dir: None,
        retry_limit: RETRY_LIMIT,
        ..DeployConfig::default()
    };
    let started = Instant::now();
    let dep = Deployment::spawn(&cfg).map_err(|e| format!("spawn {}: {e}", wl.name))?;
    Ok((dep, started.elapsed()))
}

/// Drain every instance and check how each ended. `Err` names the failed
/// check: an instance that did not drain cleanly, or one that still held
/// in-doubt transactions.
pub fn shutdown_checked(dep: Arc<Deployment>) -> Result<(), String> {
    let dep = Arc::try_unwrap(dep)
        .map_err(|_| "clean-drain: deployment still shared at shutdown".to_string())?;
    let exits = dep.shutdown();
    let leaks: u64 = exits
        .iter()
        .map(|e| e.stats.map_or(0, |s| s.in_doubt))
        .sum();
    if leaks > 0 {
        return Err(format!(
            "in-doubt-leaks: {leaks} in-doubt transaction(s) at drain"
        ));
    }
    let unclean: Vec<String> = exits
        .iter()
        .filter(|e| !e.clean)
        .map(|e| e.detail.clone())
        .collect();
    if !unclean.is_empty() {
        return Err(format!("clean-drain: {}", unclean.join("; ")));
    }
    Ok(())
}

/// Summed peak resident set (`VmHWM`) of this process's instance children,
/// in MiB, and how many were found.
pub fn instances_peak_rss_mb() -> (f64, usize) {
    let me = std::process::id().to_string();
    let mut kb = 0u64;
    let mut found = 0usize;
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return (0.0, 0);
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .filter(|s| s.bytes().all(|b| b.is_ascii_digit()))
        else {
            continue;
        };
        let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
        };
        if field("PPid:").as_deref() != Some(me.as_str()) {
            continue;
        }
        if let Some(hwm) = field("VmHWM:") {
            let v: u64 = hwm.trim_end_matches("kB").trim().parse().unwrap_or(0);
            kb += v;
            found += 1;
        }
    }
    (kb as f64 / 1024.0, found)
}
