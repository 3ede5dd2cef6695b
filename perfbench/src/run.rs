//! The two kinds of run. The untraced run measures the end-to-end metrics;
//! the traced run measures the per-layer ledger. Both stand up the
//! workload's real multi-process deployment, warm it up outside the timed
//! window, drive it closed loop, and end with the same correctness checks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_obs::{BreakdownCategory, Snapshot, TxnClass};
use islands_server::{Client, Deployment, ServerStats};

use crate::cluster;
use crate::drive::{run_phase, Tally};
use crate::stats::{self, hist_p50_us, percentile, snapshot_delta, tail};
use crate::trace::{write_spans, Recorder};
use crate::workload::{Req, Workload};
use crate::{host, replay};

/// Deployments spawned per untraced run.
const SETUPS: usize = 5;
/// Longest slice of the measured window, in seconds: long enough that a
/// slice's local p99 has at least ten samples beyond it on every workload.
const SLICE_S: f64 = 2.0;
/// Warm-up is cut into slices this long; it ends when the signal of two
/// consecutive slices differs by at most [`WARMUP_TOLERANCE`].
const WARMUP_SLICE_S: f64 = 0.5;
const WARMUP_MIN_SLICES: usize = 3;
const WARMUP_MAX_SLICES: usize = 12;
const WARMUP_TOLERANCE: f64 = 0.05;
/// Requests of client 0's stream the traced run replays in-process.
const REPLAY_REQUESTS: usize = 30_000;
/// Round trips timed on an idle instance for `client.ping_us`.
const PINGS: usize = 300;
/// Untraced/traced window pairs of the traced run; `trace.overhead_pct` is
/// the median over pairs, so a burst of host interference in one window
/// does not pass for tracing cost.
const TRACE_PAIRS: usize = 6;
/// Period of the traced run's queue-depth sampler.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// How a run ended, short of printing its metrics.
pub enum Failure {
    /// A correctness check failed; the name says which.
    Check(String),
    /// The run could not be carried out (spawn, I/O).
    Fatal(String),
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Values of the metrics the result line carries.
    pub metrics: Vec<(&'static str, f64)>,
}

/// A deployment under load plus everything the end-of-run checks need.
struct Live {
    dep: Arc<Deployment>,
    streams: Vec<crate::workload::Stream>,
    /// Deployment-wide audit sum before any load.
    audit0: u64,
    /// Row writes committed since `audit0`.
    writes: u64,
    client_failures: Vec<String>,
}

impl Live {
    fn start(wl: &Workload, seed: u64, dep: Deployment) -> Result<Self, Failure> {
        let dep = Arc::new(dep);
        let audit0 = audit_total(&dep)?;
        Ok(Live {
            dep,
            streams: (0..wl.clients).map(|i| wl.client_stream(seed, i)).collect(),
            audit0,
            writes: 0,
            client_failures: Vec::new(),
        })
    }

    fn phase(&mut self, secs: f64, trace: Option<Instant>) -> (Tally, Vec<Recorder>) {
        let (t, recs) = run_phase(&self.dep, &mut self.streams, secs, trace);
        self.writes += t.write_rows;
        self.client_failures
            .extend(t.client_failures.iter().cloned());
        (t, recs)
    }

    /// Warm up until committed throughput levels off (on a pool-overflowing
    /// read workload the buffer hit rate drives it). Prints the throughput
    /// of each slice.
    fn warm_up(&mut self) {
        let mut signal = Vec::new();
        while signal.len() < WARMUP_MAX_SLICES {
            signal.push(self.phase(WARMUP_SLICE_S, None).0.tps());
            if let [.., a, b] = signal[..] {
                if signal.len() >= WARMUP_MIN_SLICES && (b - a).abs() <= WARMUP_TOLERANCE * a.abs()
                {
                    break;
                }
            }
        }
        println!("warmup slices={} tps={:?}", signal.len(), rounded(&signal));
    }

    /// The end-of-run checks: no client thread failed, the audit sum moved
    /// by exactly the committed row writes, and every instance drained
    /// cleanly with no in-doubt transaction left.
    fn finish(self) -> Result<(), Failure> {
        if !self.client_failures.is_empty() {
            return Err(Failure::Check(format!(
                "client-failures: {}",
                self.client_failures.join("; ")
            )));
        }
        let audit1 = audit_total(&self.dep)?;
        if audit1.wrapping_sub(self.audit0) != self.writes {
            return Err(Failure::Check(format!(
                "audit: deployment audit sum moved by {} but clients committed {} row writes",
                audit1.wrapping_sub(self.audit0),
                self.writes
            )));
        }
        cluster::shutdown_checked(self.dep).map_err(Failure::Check)
    }
}

fn audit_total(dep: &Arc<Deployment>) -> Result<u64, Failure> {
    dep.client()
        .and_then(|mut c| c.audit_total())
        .map_err(|e| Failure::Check(format!("audit: audit scrape failed: {e}")))
}

fn fatal(e: impl std::fmt::Display) -> Failure {
    Failure::Fatal(e.to_string())
}

/// The run's configuration and host, one `key=value` per line.
fn print_config(
    wl: &Workload,
    seed: u64,
    secs: u64,
    trace: bool,
    dep: &Deployment,
    dir: &std::path::Path,
) {
    let window = match wl.engine {
        islands_server::EngineMode::Serial => "0 us (serial executor: one committer)".to_string(),
        islands_server::EngineMode::Locked => format!(
            "{} us (engine default)",
            islands_storage::InstanceOptions::default()
                .group_window
                .as_micros()
        ),
    };
    let pins: Vec<String> = (0..dep.instances())
        .map(|i| format!("{i}:{}", dep.cpus_of(i).unwrap_or("-")))
        .collect();
    println!(
        "config workload={} seed={seed} run_s={secs} trace={}",
        wl.name, trace as u8
    );
    println!(
        "config instances={} engine={} clients={} (closed loop, one process) log_device=memory group_window={window} retry_limit={}",
        wl.instances,
        wl.engine,
        wl.clients,
        crate::cluster::RETRY_LIMIT
    );
    println!("config pinned={} cpus={}", dep.pinned(), pins.join(","));
    for (k, v) in host::describe(dir) {
        println!("host {k}={v}");
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Print one end-to-end metric line; `Err` says why it does not apply.
fn print_metric(name: &str, value: Result<f64, &str>, detail: String) {
    let unit = crate::report::unit_of(name);
    match value {
        Ok(v) => println!("metric {name} = {v:.3} {unit} {detail}"),
        Err(why) => println!("metric {name} = n/a ({why})"),
    }
}

/// Median and p99 of one class over a whole window, with the sample
/// counts behind them (text report only).
fn class_line(prefix: &str, lat: &mut [u64], absent: &str) {
    lat.sort_unstable();
    if lat.is_empty() {
        print_metric(&format!("{prefix}_p50_us"), Err(absent), String::new());
        print_metric(&format!("{prefix}_p99_us"), Err(absent), String::new());
        return;
    }
    print_metric(
        &format!("{prefix}_p50_us"),
        Ok(us(percentile(lat, 50.0))),
        format!("(whole window, n={})", lat.len()),
    );
    let t = tail(lat, 99.0);
    print_metric(
        &format!("{prefix}_p99_us"),
        Ok(us(t.value)),
        format!(
            "(whole window, n={}, {} beyond){}",
            t.samples,
            t.beyond,
            flag(&t, lat)
        ),
    );
}

/// The flag a p99 carries when fewer than [`stats::MIN_BEYOND`] samples lie
/// beyond it.
fn flag(t: &stats::Tail, sorted: &[u64]) -> String {
    if t.supported() {
        return String::new();
    }
    let best = stats::highest_supported(sorted)
        .map(|b| format!("; highest supported is p{} = {:.3} us", b.pct, us(b.value)))
        .unwrap_or_default();
    format!(
        " FLAGGED: fewer than {} samples beyond p99{best}",
        stats::MIN_BEYOND
    )
}

/// The per-slice figures: each statistic is taken per slice of the
/// measured window and the median over slices is reported, so a slice in
/// which a neighbour takes the cores moves it little. Slices in which the
/// hypervisor stole more than [`stats::STEAL_MAX`] of the cpu time are left
/// out (see [`stats::unstolen`]); `steal` holds each slice's stolen share.
struct Sliced {
    tps: f64,
    local_p50_us: f64,
}

fn sliced(slices: &mut [Tally], steal: &[f64]) -> Sliced {
    let kept = stats::unstolen(steal);
    println!(
        "slices kept={} of {} (stolen cpu share per slice: {:?}, limit {})",
        kept.len(),
        slices.len(),
        rounded(steal),
        stats::STEAL_MAX
    );
    let (mut tps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fewest_beyond, mut flagged, mut samples) = (usize::MAX, 0usize, 0usize);
    for &i in &kept {
        let t = &mut slices[i];
        tps.push(t.tps());
        let lat = &mut t.lat_local_ns;
        lat.sort_unstable();
        samples += lat.len();
        p50.push(us(percentile(lat, 50.0)));
        let tail99 = tail(lat, 99.0);
        p99.push(us(tail99.value));
        fewest_beyond = fewest_beyond.min(tail99.beyond);
        if !tail99.supported() {
            flagged += 1;
            println!("slice local p99{}", flag(&tail99, lat));
        }
    }
    let out = Sliced {
        tps: stats::median(&tps),
        local_p50_us: stats::median(&p50),
    };
    let n = kept.len();
    print_metric(
        "throughput_tps",
        Ok(out.tps),
        format!("(median of {n} slices: {:?})", rounded(&tps)),
    );
    print_metric(
        "local_p50_us",
        Ok(out.local_p50_us),
        format!("(median of {n} slice medians, n={samples})"),
    );
    print_metric(
        "local_p99_us",
        Ok(stats::median(&p99)),
        format!(
            "(median of {n} slice p99s, n={samples}, fewest beyond in a slice {fewest_beyond}{})",
            if flagged > 0 {
                format!(", {flagged} slices FLAGGED")
            } else {
                String::new()
            }
        ),
    );
    out
}

/// The input seed of deployment `k` of a run: each deployment sees its own
/// requests, all fixed by the run's seed.
fn deployment_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The untraced run. It spawns [`SETUPS`] deployments one after another
/// and measures an equal share of the window on each, after its own
/// warm-up, so a deployment that settles into a slow or fast mode (the
/// locked engine's group commit has both) weighs one share, not the run.
/// `setup_s` is the median spawn time, `rss_mb` the median peak RSS.
pub fn end_to_end(
    wl: &Workload,
    seed: u64,
    secs: u64,
    dir: &std::path::Path,
) -> Result<Outcome, Failure> {
    let per_dep = ((secs as f64 / SLICE_S).ceil() as usize).div_ceil(SETUPS);
    let slice_s = secs as f64 / (per_dep * SETUPS) as f64;
    let (mut setups, mut rss, mut slices, mut steal) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..SETUPS {
        let (dep, took) = cluster::spawn(wl, dir).map_err(fatal)?;
        setups.push(took.as_secs_f64());
        if k == 0 {
            print_config(wl, seed, secs, false, &dep, dir);
        }
        let mut live = Live::start(wl, deployment_seed(seed, k), dep)?;
        live.warm_up();
        for _ in 0..per_dep {
            let before = host::cpu_ticks();
            slices.push(live.phase(slice_s, None).0);
            steal.push(stolen_share(before, host::cpu_ticks()));
        }
        let (mb, found) = cluster::instances_peak_rss_mb();
        if found != wl.instances {
            return Err(Failure::Fatal(format!(
                "rss: found {found} of {} instance processes in /proc",
                wl.instances
            )));
        }
        rss.push(mb);
        live.finish()?;
    }

    let setup_s = stats::median(&setups);
    let mut t = Tally::default();
    slices.iter().for_each(|s| t.absorb(s.clone()));
    println!(
        "measured {:.3} s: attempted={} committed={} aborted={} errors={} refused={} retries={} max_retries={}",
        t.elapsed.as_secs_f64(),
        t.attempted,
        t.committed(),
        t.aborted,
        t.errors,
        t.refused,
        t.retries,
        t.max_retries
    );
    let gated = sliced(&mut slices, &steal);
    class_line(
        "multisite",
        &mut t.lat_multi_ns,
        "no multisite class on this workload",
    );
    print_metric(
        "failed_pct",
        Ok(stats::failed_pct(
            t.attempted,
            t.aborted,
            t.errors,
            t.refused,
        )),
        format!("({} of {} attempted)", t.failed(), t.attempted),
    );
    print_metric(
        "setup_s",
        Ok(setup_s),
        format!("(median of {SETUPS} spawns: {:?})", rounded(&setups)),
    );
    let rss_mb = stats::median(&rss);
    print_metric(
        "rss_mb",
        Ok(rss_mb),
        format!(
            "(VmHWM summed over {} instances; median of {SETUPS} deployments: {:?})",
            wl.instances,
            rounded(&rss)
        ),
    );
    print_metric(
        "log_bytes_per_txn",
        Err("every workload logs to the memory log device: nothing on disk"),
        String::new(),
    );
    println!("checks passed: audit, clean-drain, in-doubt-leaks, client-failures");
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed(),
        metrics: vec![
            ("throughput_tps", gated.tps),
            ("local_p50_us", gated.local_p50_us),
            ("rss_mb", rss_mb),
            ("setup_s", setup_s),
        ],
    })
}

/// Share of the machine's cpu time stolen between two [`host::cpu_ticks`]
/// readings (0 when `/proc/stat` could not be read).
fn stolen_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

fn rounded(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}

/// Every instance's wire counters and observability snapshot, summed.
fn scrape(dep: &Deployment) -> Result<(ServerStats, Snapshot), Failure> {
    let mut server = ServerStats::default();
    let mut obs = Snapshot::default();
    for i in 0..dep.instances() {
        let (s, o) = Client::connect(&dep.endpoint(i))
            .and_then(|mut c| c.stats())
            .map_err(|e| fatal(format!("stats scrape of instance {i}: {e}")))?;
        server.absorb(&s);
        obs.merge(&o);
    }
    Ok((server, obs))
}

/// A traced window with the queue-depth sampler beside it. The sampler
/// holds at most one short-lived observer connection at a time. Returns
/// the window's tally and spans, the sampled depths and how many Stats
/// requests the sampler sent.
fn traced_window(
    live: &mut Live,
    secs: f64,
    epoch: Instant,
) -> Result<(Tally, Vec<Recorder>, Vec<u64>, u64), Failure> {
    let stop = AtomicBool::new(false);
    let dep = Arc::clone(&live.dep);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let (mut depths, mut sent, mut i) = (Vec::new(), 0u64, 0usize);
            while !stop.load(Ordering::Relaxed) {
                let inst = i % dep.instances();
                i += 1;
                if let Ok(mut c) = Client::connect(&dep.endpoint(inst)) {
                    sent += 1;
                    if let Ok((_, o)) = c.stats() {
                        depths.push(o.queue_depth);
                    }
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            (depths, sent)
        });
        let (t, recs) = live.phase(secs, Some(epoch));
        stop.store(true, Ordering::Relaxed);
        let (depths, sent) = sampler
            .join()
            .map_err(|_| fatal("queue-depth sampler thread panicked"))?;
        Ok((t, recs, depths, sent))
    })
}

/// The traced run: one deployment, warm-up, alternating untraced and traced
/// windows (their throughput difference is the tracing overhead), a Stats
/// scrape before and after, pings on the idle deployment, the end-of-run
/// checks, then the in-process replays. Spans go to `spans_path`.
pub fn traced(
    wl: &Workload,
    seed: u64,
    secs: u64,
    dir: &std::path::Path,
    spans_path: &std::path::Path,
) -> Result<Outcome, Failure> {
    let (dep, took) = cluster::spawn(wl, dir).map_err(fatal)?;
    print_config(wl, seed, secs, true, &dep, dir);
    println!("setup {:.3} s", took.as_secs_f64());
    let mut live = Live::start(wl, seed, dep)?;
    live.warm_up();

    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let (s0, obs0) = scrape(&live.dep)?;
    let local0 = islands_obs::metrics().snapshot();
    let window = secs as f64 / (2 * TRACE_PAIRS) as f64;
    let (mut plain, mut traced, mut depths, mut observer_requests) =
        (Tally::default(), Tally::default(), Vec::new(), 0u64);
    let mut overheads = Vec::with_capacity(TRACE_PAIRS);
    for _ in 0..TRACE_PAIRS {
        let (u, _) = live.phase(window, None);
        let (t, recs, d, sent) = traced_window(&mut live, window, epoch)?;
        overheads.push(stats::ratio(u.tps() - t.tps(), u.tps()) * 100.0);
        plain.absorb(u);
        traced.absorb(t);
        recs.into_iter().for_each(|r| rec.absorb(r));
        depths.extend(d);
        observer_requests += sent;
    }
    let (s1, obs1) = scrape(&live.dep)?;
    let local1 = islands_obs::metrics().snapshot();
    // The closing scrape's own Stats frames are counted in `s1`.
    observer_requests += live.dep.instances() as u64;

    let ping_us = {
        let mut c = Client::connect(&live.dep.endpoint(0)).map_err(fatal)?;
        for _ in 0..PINGS {
            let start = rec.now_ns();
            c.ping().map_err(fatal)?;
            rec.record("client.ping", 0, 0, start, rec.now_ns());
        }
        rec.median_ns("client.ping") / 1e3
    };
    live.finish()?;

    let mut all = plain.clone();
    all.absorb(traced.clone());
    let obs = snapshot_delta(&obs1, &obs0);
    let coord = snapshot_delta(&local1, &local0);
    let committed = all.committed() as f64;
    let mut m: Vec<(&'static str, f64)> = vec![
        ("workload.gen_ns", rec.per_op_ns("workload.next")),
        (
            "wire.frames_per_txn",
            stats::ratio(
                (s1.requests - s0.requests).saturating_sub(observer_requests) as f64,
                committed,
            ),
        ),
        ("client.ping_us", ping_us),
        (
            "deploy.retries_per_txn",
            stats::ratio(all.retries as f64, committed),
        ),
        (
            "deploy.commit_ratio",
            stats::ratio(committed, all.attempted as f64),
        ),
    ];
    let mut phase_sum = [0.0f64; 2];
    for (class, n) in [
        (TxnClass::Local, all.committed_local),
        (TxnClass::Multisite, all.committed_multi),
    ] {
        for cat in BreakdownCategory::ALL {
            let v = stats::ratio(obs.phase_ns[class.index()][cat.index()] as f64, n as f64) / 1e3;
            phase_sum[class.index()] += v;
            m.push((phase_name(class, cat), v));
        }
    }
    m.push(("twopc.prepare_us", hist_p50_us(&coord.prepare_us)));
    m.push(("twopc.decision_us", hist_p50_us(&coord.decision_us)));
    m.push(("executor.parked_us", hist_p50_us(&obs.parked_us)));
    m.push((
        "executor.queue_depth",
        stats::ratio(depths.iter().sum::<u64>() as f64, depths.len() as f64),
    ));
    let unexplained = |lat: &[u64], phases: f64| {
        if lat.is_empty() {
            0.0
        } else {
            Tally::mean_us(lat) - phases - ping_us
        }
    };
    m.push((
        "ledger.local_unexplained_us",
        unexplained(&all.lat_local_ns, phase_sum[0]),
    ));
    m.push((
        "ledger.multisite_unexplained_us",
        unexplained(&all.lat_multi_ns, phase_sum[1]),
    ));
    m.push(("trace.overhead_pct", stats::median(&overheads)));
    println!(
        "windows: untraced {:.1} tps, traced {:.1} tps over {:.3} s each; queue-depth samples={}",
        plain.tps(),
        traced.tps(),
        plain.elapsed.as_secs_f64(),
        depths.len()
    );

    let reqs: Vec<Req> = {
        let mut s = wl.client_stream(seed, 0);
        (0..REPLAY_REQUESTS).map(|_| s.next_req()).collect()
    };
    m.extend(replay::run_all(wl, &reqs, dir, &mut rec).map_err(Failure::Check)?);

    write_spans(spans_path, &rec.spans).map_err(fatal)?;
    println!(
        "spans: {} written to {}",
        rec.spans.len(),
        spans_path.display()
    );
    for (name, v) in &m {
        let note = if crate::report::on_path(name, wl.name) {
            ""
        } else if *v == 0.0 {
            " (not on this workload's path)"
        } else {
            " (replayed; not on this workload's served path)"
        };
        println!(
            "layer {name} = {v:.3} {}{note}",
            crate::report::unit_of(name)
        );
    }
    println!("checks passed: audit, clean-drain, in-doubt-leaks, client-failures, replay");
    Ok(Outcome {
        attempted: all.attempted,
        failed: all.failed(),
        metrics: m,
    })
}

fn phase_name(class: TxnClass, cat: BreakdownCategory) -> &'static str {
    match (class, cat) {
        (TxnClass::Local, BreakdownCategory::XctExecution) => "phase.local.execution_us",
        (TxnClass::Local, BreakdownCategory::Locking) => "phase.local.locking_us",
        (TxnClass::Local, BreakdownCategory::Logging) => "phase.local.logging_us",
        (TxnClass::Local, BreakdownCategory::Communication) => "phase.local.communication_us",
        (TxnClass::Local, BreakdownCategory::XctManagement) => "phase.local.management_us",
        (TxnClass::Multisite, BreakdownCategory::XctExecution) => "phase.multisite.execution_us",
        (TxnClass::Multisite, BreakdownCategory::Locking) => "phase.multisite.locking_us",
        (TxnClass::Multisite, BreakdownCategory::Logging) => "phase.multisite.logging_us",
        (TxnClass::Multisite, BreakdownCategory::Communication) => {
            "phase.multisite.communication_us"
        }
        (TxnClass::Multisite, BreakdownCategory::XctManagement) => "phase.multisite.management_us",
    }
}
