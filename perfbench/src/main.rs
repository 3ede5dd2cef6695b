//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcc-shared --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Each run spawns the workload's real
//! multi-process deployment (`islands_server::deploy::Deployment`), drives
//! it closed loop through `DeployClient` from this one process, checks the
//! outputs, and prints a text report followed by one JSON result line.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ledger. Workloads, metrics and what each layer metric should move are
//! described in `perfbench/README.md`.

mod cluster;
mod drive;
mod host;
mod json;
mod replay;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use run::Failure;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace 0|1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}; {USAGE}")),
        }
    }
    let missing = |f: &str| format!("missing {f}; {USAGE}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() -> ExitCode {
    // Instance processes are re-executions of this binary.
    islands_server::deploy::run_instance_child_if_requested();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {:?})",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    if let Err(e) =
        report::read_benchmark_json().and_then(|text| report::check_declared(&text, wl.name))
    {
        eprintln!("perfbench: CHECK FAILED {e}");
        return ExitCode::from(1);
    }
    let load_cpu = host::pin_load_generator();
    println!(
        "config load_generator_cpu={}",
        load_cpu.map_or("unpinned".to_string(), |c| c.to_string())
    );
    let dir = cluster::run_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        let spans = Path::new(cluster::RUN_ROOT).join(format!("spans-{}.jsonl", wl.name));
        run::traced(&wl, args.seed, args.seconds, &dir, &spans)
    } else {
        run::end_to_end(&wl, args.seed, args.seconds, &dir)
    };
    // Every deployment has been shut down or dropped (killing its
    // processes) by now; the run's sockets and WAL files go with the dir.
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(o) => {
            println!(
                "{}",
                report::result_line(true, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(Failure::Check(e)) => {
            // A failed check names itself and never becomes a number.
            eprintln!("perfbench: CHECK FAILED {e}");
            ExitCode::from(1)
        }
        Err(Failure::Fatal(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
