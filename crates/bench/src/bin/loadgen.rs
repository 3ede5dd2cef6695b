//! Open/closed-loop load generator for served islands deployments.
//!
//! Two deployment modes:
//!
//! * `--deploy proc` (default): the paper's topology for real — N separate
//!   OS processes, one per shared-nothing instance, each pinned to its
//!   island's cores, with single-site requests routed to the owner and
//!   multisite requests running presumed-abort 2PC **over the wire**
//!   (`PreparePlan`/`Vote`/`Decision`/`Ack` frames). One invocation stands the
//!   deployment up, drives it, tears it down, and verifies no process
//!   leaked an in-doubt transaction.
//! * `--deploy inproc`: one server process fronting an in-process
//!   `NativeCluster` (2PC by function call), as served by PR 2 — the
//!   baseline the multi-process numbers are compared against.
//!
//! ```sh
//! cargo run --release -p islands-bench --bin loadgen -- \
//!     --instances 4 --multisite 20 --clients 8 --secs 2 --json BENCH_loadgen.json
//! ```
//!
//! The driving engine itself (closed/open loop, per-class tallies, teardown
//! verification) lives in `islands_bench::drive`, shared with the
//! `islands-sweep` experiment driver; this binary adds the CLI, the
//! single-configuration reporting, and the `islands-loadgen/1` JSON shape.
//!
//! Statistics are reported **per transaction class** (local vs multisite),
//! because the paper's served-deployment comparisons (Fig. 9 style) hinge
//! on how the multisite class degrades while the local class holds.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use islands_bench::drive::{
    class_json, drive, instance_json, percentile, shutdown_deployment, ClassTally, DriveConfig,
    DriveTarget, DriveWorkload,
};
use islands_core::native::{EngineMode, NativeCluster, NativeClusterConfig};
use islands_server::deploy::{
    self, DeployConfig, DeployWorkload, Deployment, SpawnMode, Transport,
};
use islands_server::{Client, Endpoint, InstanceExit, Server, ServerConfig, ServerHandle};
use islands_workload::{MicroSpec, OpKind, TpccSpec};

const USAGE: &str = "loadgen - drive a served islands deployment

USAGE:
  loadgen [OPTIONS]

OPTIONS:
  --deploy proc|inproc  proc (default): N pinned server processes, one per
                        instance, wire-level 2PC for multisite txns;
                        inproc: one server process around a NativeCluster
  --engine locked|serial
                        how spawned instance processes execute (proc mode):
                        locked (default) runs sessions inline under 2PL;
                        serial runs one transaction at a time per
                        partition with no lock-table acquisition
  --transport uds|tcp   transport for the spawned server(s) (default uds)
  --uds-path PATH       socket path for inproc uds (default: temp dir)
  --connect EP          drive an existing single server instead of spawning;
                        EP is uds:/path/to.sock or tcp:HOST:PORT
                        (requires --rows and --instances matching the
                        external server's dataset and partition count; the
                        server is NOT drained afterwards)
  --workload micro|tpcc micro (default): single-shot read/update batches;
                        tpcc: NewOrder/Payment multi-step plans partitioned
                        by warehouse (requires --deploy proc; remote
                        payments run wire-level 2PC; --multisite PCT is the
                        remote-payment probability; --kind/--rows-per-txn/
                        --sites/--skew/--rows are micro-only)
  --warehouses N        tpcc scale factor (default: 2 x instances; must be
                        >= instances so every instance owns a warehouse)
  --clients N           concurrent client connections (default 8)
  --secs S              measured duration in seconds (default 2)
  --open RATE           open-loop arrival rate, txn/s aggregate
                        (default: closed loop)
  --kind read|update    transaction kind (default update)
  --rows-per-txn N      rows touched per transaction (default 4)
  --multisite PCT       multisite transaction percentage 0-100 (default 20)
  --sites K             spread each multisite txn across exactly K distinct
                        logical sites (Fig. 9's transaction size; default:
                        unconstrained draw over the whole range)
  --skew Z              Zipfian skew for row selection (default 0)
  --rows N              total rows loaded/partitioned (default 40000)
  --instances N         shared-nothing instances: processes under proc,
                        storage instances under inproc (default 4)
  --retry-limit N       server-side retry budget per txn (default 64)
  --pin on|off          pin instance processes to island core sets via
                        taskset (proc mode; default on)
  --no-obs              disable the observability registry in every server
                        process (A/B baseline for measuring obs overhead;
                        wire counters and final stats stay on)
  --json PATH           write machine-readable results (throughput and
                        latency percentiles per class) to PATH
  -h, --help            print this help
";

#[derive(Debug, Clone)]
struct Args {
    deploy: String,
    engine: EngineMode,
    workload: String,
    warehouses: u64,
    transport: String,
    uds_path: Option<String>,
    connect: Option<String>,
    clients: usize,
    secs: f64,
    open_rate: Option<f64>,
    kind: OpKind,
    rows_per_txn: usize,
    multisite_pct: f64,
    sites: Option<usize>,
    skew: f64,
    rows: u64,
    instances: usize,
    retry_limit: u32,
    pin: bool,
    obs: bool,
    json: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            deploy: "proc".into(),
            engine: EngineMode::Locked,
            workload: "micro".into(),
            warehouses: 0,
            transport: "uds".into(),
            uds_path: None,
            connect: None,
            clients: 8,
            secs: 2.0,
            open_rate: None,
            kind: OpKind::Update,
            rows_per_txn: 4,
            multisite_pct: 20.0,
            sites: None,
            skew: 0.0,
            rows: 40_000,
            instances: 4,
            retry_limit: 64,
            pin: true,
            obs: true,
            json: None,
        }
    }
}

impl Args {
    /// The workload these arguments describe (one construction point, so
    /// validation and the drive loop cannot diverge).
    fn spec(&self) -> MicroSpec {
        MicroSpec {
            kind: self.kind,
            rows_per_txn: self.rows_per_txn,
            multisite_pct: self.multisite_pct / 100.0,
            skew: self.skew,
            multisite_sites: self.sites,
            total_rows: self.rows,
            row_size: 64,
        }
    }

    /// Effective TPC-C scale: explicit `--warehouses`, else two per
    /// instance (enough that remote payments always have somewhere to go).
    fn tpcc_warehouses(&self) -> u64 {
        if self.warehouses > 0 {
            self.warehouses
        } else {
            (self.instances as u64) * 2
        }
    }

    fn tpcc_spec(&self) -> TpccSpec {
        TpccSpec {
            warehouses: self.tpcc_warehouses(),
            remote_pct: self.multisite_pct / 100.0,
        }
    }

    fn drive_workload(&self) -> DriveWorkload {
        if self.workload == "tpcc" {
            DriveWorkload::Tpcc(self.tpcc_spec())
        } else {
            DriveWorkload::Micro(self.spec())
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--deploy" => args.deploy = value("--deploy")?,
            "--engine" => args.engine = EngineMode::parse(&value("--engine")?)?,
            "--workload" => args.workload = value("--workload")?,
            "--warehouses" => args.warehouses = num(&value("--warehouses")?)?,
            "--transport" => args.transport = value("--transport")?,
            "--uds-path" => args.uds_path = Some(value("--uds-path")?),
            "--connect" => args.connect = Some(value("--connect")?),
            "--clients" => args.clients = num(&value("--clients")?)?,
            "--secs" => args.secs = num(&value("--secs")?)?,
            "--open" => args.open_rate = Some(num(&value("--open")?)?),
            "--kind" => {
                args.kind = match value("--kind")?.as_str() {
                    "read" => OpKind::Read,
                    "update" => OpKind::Update,
                    other => return Err(format!("--kind read|update, got {other}")),
                }
            }
            "--rows-per-txn" => args.rows_per_txn = num(&value("--rows-per-txn")?)?,
            "--multisite" => args.multisite_pct = num(&value("--multisite")?)?,
            "--sites" => args.sites = Some(num(&value("--sites")?)?),
            "--skew" => args.skew = num(&value("--skew")?)?,
            "--rows" => args.rows = num(&value("--rows")?)?,
            "--instances" => args.instances = num(&value("--instances")?)?,
            "--retry-limit" => args.retry_limit = num(&value("--retry-limit")?)?,
            "--pin" => {
                args.pin = match value("--pin")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--pin on|off, got {other}")),
                }
            }
            "--no-obs" => args.obs = false,
            "--json" => args.json = Some(value("--json")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    if args.deploy != "proc" && args.deploy != "inproc" {
        return Err(format!("--deploy proc|inproc, got {}", args.deploy));
    }
    if args.workload != "micro" && args.workload != "tpcc" {
        return Err(format!("--workload micro|tpcc, got {}", args.workload));
    }
    if args.workload == "tpcc" {
        if args.deploy != "proc" || args.connect.is_some() {
            return Err(
                "--workload tpcc needs a spawned multi-process deployment (--deploy proc, \
                 no --connect): warehouse routing lives in the coordinator"
                    .into(),
            );
        }
        if args.sites.is_some() {
            return Err("--sites is micro-only; tpcc's multisite class is remote payments".into());
        }
        if args.skew != 0.0 {
            return Err("--skew is micro-only (tpcc draws warehouses uniformly)".into());
        }
    } else if args.warehouses != 0 {
        return Err("--warehouses applies only with --workload tpcc".into());
    }
    if args.engine == EngineMode::Serial && (args.deploy != "proc" || args.connect.is_some()) {
        return Err(
            "--engine serial applies to spawned instance processes (--deploy proc, no --connect)"
                .into(),
        );
    }
    if args.clients == 0 {
        return Err("--clients must be >= 1".into());
    }
    if args.instances == 0 {
        return Err("--instances must be >= 1".into());
    }
    if args.rows < args.instances as u64 {
        return Err(format!(
            "--rows {} cannot partition across {} instances (need rows >= instances)",
            args.rows, args.instances
        ));
    }
    if !(0.0..=100.0).contains(&args.multisite_pct) {
        return Err("--multisite must be 0-100".into());
    }
    if let Some(k) = args.sites {
        if k < 2 {
            return Err("--sites must be >= 2 (a multisite txn spans sites)".into());
        }
        if k > args.instances {
            return Err(format!(
                "--sites {k} exceeds --instances {} (a txn cannot touch more \
                 sites than exist; with --connect, set --instances to the \
                 external server's partition count)",
                args.instances
            ));
        }
    }
    // The generator's logical-site count is --instances (for --connect too:
    // it must describe the external server's partition count, like --rows
    // must match its dataset). The spec's own check is the single source of
    // truth for whether the shape is satisfiable; failing here keeps it a
    // clean CLI error instead of a worker panic.
    if args.workload == "tpcc" {
        args.tpcc_spec()
            .check(args.instances)
            .map_err(|e| format!("workload shape: {e}"))?;
    } else {
        args.spec()
            .check(args.instances.max(1) as u64)
            .map_err(|e| format!("workload shape: {e}"))?;
    }
    if !args.secs.is_finite() || args.secs < 0.0 {
        return Err("--secs must be a nonnegative number".into());
    }
    if let Some(rate) = args.open_rate {
        if !rate.is_finite() || rate <= 0.0 {
            return Err("--open must be a positive rate in txn/s".into());
        }
    }
    if args.transport != "uds" && args.transport != "tcp" {
        return Err(format!("--transport uds|tcp, got {}", args.transport));
    }
    Ok(args)
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

fn spawn_inproc_server(args: &Args) -> std::io::Result<(ServerHandle, Endpoint)> {
    let cluster = Arc::new(
        NativeCluster::build_micro(&NativeClusterConfig {
            n_instances: args.instances,
            total_rows: args.rows,
            row_size: 64,
            workers_per_instance: args.clients.div_ceil(args.instances.max(1)).max(2),
            ..Default::default()
        })
        .map_err(|e| std::io::Error::other(format!("cluster build failed: {e}")))?,
    );
    let endpoint = if args.transport == "tcp" {
        Endpoint::Tcp("127.0.0.1:0".parse().expect("loopback addr"))
    } else {
        let path = match &args.uds_path {
            Some(p) => p.into(),
            None => {
                let mut p = std::env::temp_dir();
                p.push(format!("islands-loadgen-{}.sock", std::process::id()));
                p
            }
        };
        Endpoint::Uds(path)
    };
    let handle = Server::spawn(
        cluster,
        endpoint,
        ServerConfig {
            retry_limit: args.retry_limit,
            ..Default::default()
        },
    )?;
    let resolved = handle.endpoint().clone();
    Ok((handle, resolved))
}

/// What the run drove, so teardown knows what to drain.
enum Target {
    /// A multi-process deployment we own.
    Deployment(Arc<Deployment>),
    /// A single server we spawned in-process.
    Inproc(ServerHandle, Endpoint),
    /// Someone else's server (not drained).
    External(Endpoint),
}

fn class_report(name: &str, tally: &mut ClassTally, elapsed: Duration) {
    tally.latencies_us.sort_unstable();
    let n = tally.latencies_us.len();
    let tput = tally.committed as f64 / elapsed.as_secs_f64();
    print!(
        "class {name}: committed={} aborted={} errors={} distributed={} tput={tput:.0}/s",
        tally.committed, tally.aborted, tally.errors, tally.distributed,
    );
    if n > 0 {
        let mean = tally.latencies_us.iter().sum::<u64>() as f64 / n as f64;
        println!(
            " p50={}us p95={}us p99={}us max={}us mean={mean:.0}us ({n} samples)",
            percentile(&tally.latencies_us, 50.0),
            percentile(&tally.latencies_us, 95.0),
            percentile(&tally.latencies_us, 99.0),
            tally.latencies_us[n - 1],
        );
    } else {
        println!(" (no samples)");
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    args: &Args,
    elapsed: Duration,
    local: &ClassTally,
    multi: &ClassTally,
    tpcc: Option<[&ClassTally; 3]>,
    coordinator_presumed_aborts: u64,
    pinned: bool,
    instances: &[InstanceExit],
) -> std::io::Result<()> {
    let committed = local.committed + multi.committed;
    let mode = match args.open_rate {
        Some(rate) => format!("\"open@{rate:.0}\""),
        None => "\"closed\"".to_string(),
    };
    let sites = match args.sites {
        Some(k) => k.to_string(),
        None => "null".to_string(),
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"islands-loadgen/1\",\n");
    let warehouses = if args.workload == "tpcc" {
        args.tpcc_warehouses()
    } else {
        0
    };
    out.push_str(&format!(
        "  \"config\": {{\"deploy\":\"{}\",\"engine\":\"{}\",\"workload\":\"{}\",\
         \"warehouses\":{warehouses},\"transport\":\"{}\",\
         \"instances\":{},\
         \"clients\":{},\"secs\":{},\"mode\":{mode},\"kind\":\"{}\",\"rows_per_txn\":{},\
         \"multisite_pct\":{},\"sites\":{sites},\"skew\":{},\"rows\":{},\"pinned\":{},\
         \"obs\":{}}},\n",
        args.deploy,
        args.engine,
        args.workload,
        args.transport,
        args.instances,
        args.clients,
        args.secs,
        args.kind.label(),
        args.rows_per_txn,
        args.multisite_pct,
        args.skew,
        args.rows,
        pinned,
        args.obs,
    ));
    out.push_str(&format!(
        "  \"totals\": {{\"committed\":{},\"throughput_tps\":{:.1},\
         \"coordinator_presumed_aborts\":{},\"elapsed_secs\":{:.3}}},\n",
        committed,
        committed as f64 / elapsed.as_secs_f64(),
        coordinator_presumed_aborts,
        elapsed.as_secs_f64(),
    ));
    out.push_str(&format!(
        "  \"classes\": {{\n    \"local\": {},\n    \"multisite\": {}",
        class_json(local, elapsed),
        class_json(multi, elapsed),
    ));
    if let Some([neworder, payment_local, payment_multisite]) = tpcc {
        out.push_str(&format!(
            ",\n    \"neworder\": {},\n    \"payment_local\": {},\n    \
             \"payment_multisite\": {}",
            class_json(neworder, elapsed),
            class_json(payment_local, elapsed),
            class_json(payment_multisite, elapsed),
        ));
    }
    out.push_str("\n  },\n");
    out.push_str("  \"instances\": [");
    out.push_str(
        &instances
            .iter()
            .map(instance_json)
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push_str("]\n}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    // Gate this process's own registry too: inproc mode serves from here,
    // and proc mode's coordinator records 2PC phase latencies here.
    islands_obs::set_enabled(args.obs);

    let target = match (&args.connect, args.deploy.as_str()) {
        (Some(ep), _) => Target::External(Endpoint::parse(ep)?),
        (None, "proc") => {
            let transport = if args.transport == "tcp" {
                Transport::Tcp
            } else {
                Transport::Uds
            };
            let deployment = Deployment::spawn(&DeployConfig {
                instances: args.instances,
                transport,
                total_rows: args.rows,
                row_size: 64,
                retry_limit: args.retry_limit,
                engine: args.engine,
                workload: if args.workload == "tpcc" {
                    DeployWorkload::Tpcc {
                        warehouses: args.tpcc_warehouses(),
                    }
                } else {
                    DeployWorkload::Micro
                },
                pin: args.pin,
                obs: args.obs,
                spawn: SpawnMode::SelfExec,
                ..Default::default()
            })
            .map_err(|e| format!("spawn deployment: {e}"))?;
            Target::Deployment(Arc::new(deployment))
        }
        (None, _) => {
            let (h, ep) = spawn_inproc_server(&args).map_err(|e| format!("spawn server: {e}"))?;
            Target::Inproc(h, ep)
        }
    };

    let mode = match args.open_rate {
        Some(rate) => format!("open @ {rate:.0} txn/s"),
        None => "closed".into(),
    };
    let where_ = match &target {
        Target::Deployment(d) => format!(
            "{} processes ({}, {}, {} engine)",
            d.instances(),
            args.transport,
            if d.pinned() { "pinned" } else { "unpinned" },
            args.engine,
        ),
        Target::Inproc(_, ep) => format!("{ep} (inproc)"),
        Target::External(ep) => format!("{ep} (external)"),
    };
    if args.workload == "tpcc" {
        println!(
            "loadgen: {where_} clients={} secs={} mode={mode} workload=tpcc warehouses={} \
             remote-payment={}% instances={}",
            args.clients,
            args.secs,
            args.tpcc_warehouses(),
            args.multisite_pct,
            args.instances,
        );
    } else {
        println!(
            "loadgen: {where_} clients={} secs={} mode={mode} kind={} rows/txn={} \
             multisite={}% sites={} skew={} rows={} instances={}",
            args.clients,
            args.secs,
            args.kind.label(),
            args.rows_per_txn,
            args.multisite_pct,
            args.sites
                .map(|k| k.to_string())
                .unwrap_or_else(|| "any".into()),
            args.skew,
            args.rows,
            args.instances,
        );
    }
    if let Target::Deployment(d) = &target {
        for i in 0..d.instances() {
            let (lo, hi) = d.range(i);
            let kind = if args.workload == "tpcc" {
                "warehouses"
            } else {
                "keys"
            };
            println!(
                "  instance {i}: {kind} {lo}..{hi} at {}{}",
                d.endpoint(i),
                d.cpus_of(i)
                    .map(|c| format!(" cpus {c}"))
                    .unwrap_or_default(),
            );
        }
    }

    let cfg = DriveConfig {
        open_rate: args.open_rate,
        ..DriveConfig::closed(
            args.clients,
            args.secs,
            args.drive_workload(),
            args.instances.max(1) as u64,
        )
    };
    let result = match &target {
        Target::Deployment(d) => drive(&DriveTarget::Deployment(d), &cfg)?,
        Target::Inproc(_, ep) | Target::External(ep) => drive(&DriveTarget::Endpoint(ep), &cfg)?,
    };
    let elapsed = result.elapsed;
    let client_failures = result.client_failures;
    let (mut local, mut multi) = (result.local, result.multi);
    let (mut neworder, mut payment_local, mut payment_multisite) = (
        result.neworder,
        result.payment_local,
        result.payment_multisite,
    );

    // Report.
    let committed = local.committed + multi.committed;
    let coordinator_presumed_aborts = match &target {
        Target::Deployment(d) => d.presumed_aborts(),
        _ => 0,
    };
    println!(
        "completed: committed={committed} aborted={} errors={} presumed_aborts={} in {:.2}s",
        local.aborted + multi.aborted,
        local.errors + multi.errors,
        coordinator_presumed_aborts,
        elapsed.as_secs_f64(),
    );
    println!(
        "throughput: {:.0} committed txn/s",
        committed as f64 / elapsed.as_secs_f64()
    );
    class_report("local", &mut local, elapsed);
    class_report("multisite", &mut multi, elapsed);
    if args.workload == "tpcc" {
        class_report("neworder", &mut neworder, elapsed);
        class_report("payment_local", &mut payment_local, elapsed);
        class_report("payment_multisite", &mut payment_multisite, elapsed);
    }

    // Tear down and verify.
    let mut instance_reports: Vec<InstanceExit> = Vec::new();
    let mut pinned = false;
    match target {
        Target::External(_) => {}
        Target::Inproc(handle, endpoint) => {
            let mut closer =
                Client::connect(&endpoint).map_err(|e| format!("drain connect failed: {e}"))?;
            closer
                .drain_server()
                .map_err(|e| format!("drain request failed: {e}"))?;
            let stats = handle
                .join()
                .map_err(|e| format!("server join failed: {e}"))?;
            println!(
                "server drained cleanly: connections={} requests={} commits={} aborts={} errors={}",
                stats.connections, stats.requests, stats.commits, stats.aborts, stats.errors,
            );
            if stats.commits != committed {
                return Err(format!(
                    "server counted {} commits but clients saw {committed}",
                    stats.commits
                ));
            }
        }
        Target::Deployment(deployment) => {
            pinned = deployment.pinned();
            let deployment = Arc::try_unwrap(deployment)
                .ok()
                .expect("all clients joined");
            let teardown = shutdown_deployment(deployment);
            for r in &teardown.instances {
                let s = r.stats.unwrap_or_default();
                println!(
                    "  instance {} {}: commits={} aborts={} errors={} prepares={} \
                     decisions={} presumed_aborts={} in_doubt={}{}",
                    r.index,
                    if r.clean { "clean" } else { "UNCLEAN" },
                    s.commits,
                    s.aborts,
                    s.errors,
                    s.prepares,
                    s.decisions,
                    s.presumed_aborts,
                    s.in_doubt,
                    if r.clean {
                        String::new()
                    } else {
                        format!(" ({})", r.detail)
                    },
                );
            }
            if teardown.unclean > 0 {
                return Err(format!("{} instance(s) exited unclean", teardown.unclean));
            }
            if teardown.in_doubt_leaks > 0 {
                return Err(format!(
                    "{} in-doubt transaction(s) leaked",
                    teardown.in_doubt_leaks
                ));
            }
            println!(
                "deployment drained cleanly: instances={} in_doubt_leaks=0",
                teardown.instances.len()
            );
            instance_reports = teardown.instances;
        }
    }

    if let Some(path) = &args.json {
        let tpcc =
            (args.workload == "tpcc").then_some([&neworder, &payment_local, &payment_multisite]);
        write_json(
            path,
            &args,
            elapsed,
            &local,
            &multi,
            tpcc,
            coordinator_presumed_aborts,
            pinned,
            &instance_reports,
        )
        .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }

    if client_failures > 0 {
        return Err(format!("{client_failures} client(s) failed"));
    }
    Ok(committed > 0)
}

fn main() -> ExitCode {
    // A `--instance-child` first argument means we were spawned as one of a
    // deployment's instance processes: serve the partition and exit.
    deploy::run_instance_child_if_requested();
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("loadgen: FAILED - zero committed transactions");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
