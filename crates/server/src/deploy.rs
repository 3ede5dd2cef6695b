//! Multi-process shared-nothing deployments.
//!
//! The paper's central comparison is between deployments of *separate OS
//! processes*: shared-everything (one instance spanning the machine),
//! island-sized shared-nothing, and fine-grained shared-nothing, where
//! multisite transactions pay real distributed-commit and IPC costs
//! (Porobic et al., §3, Figs. 9–12). [`Deployment::spawn`] stands such a
//! topology up for real:
//!
//! * **One process per instance.** Each child runs a
//!   [`PartitionEngine`] owning a
//!   contiguous key range, served over the wire protocol
//!   ([`Backend::Partition`]). Children are re-executions of the host
//!   binary ([`SpawnMode::SelfExec`]) or a dedicated `islands-instance`
//!   binary ([`SpawnMode::Binary`]).
//! * **Topology-pinned.** Instance `i` is pinned (via `taskset`, when
//!   available) to the cores `hwtopo`'s island placement assigns it on the
//!   *detected host* topology — the paper's "N islands" layout, not a
//!   simulated one.
//! * **Wire-level 2PC.** Every request travels as a plan: a micro batch is
//!   lowered to its [`PlanRequest`] once, at [`DeployClient::submit`], and
//!   routed step by step. Single-site requests go straight to the owning
//!   instance as `SubmitPlan` frames. Multisite requests run presumed-abort
//!   two-phase commit: the [`DeployClient`] coordinator splits the request
//!   into per-instance branches, fans out `PreparePlan` frames, collects
//!   `Vote`s, forces commit decisions to the coordinator log, delivers
//!   `Decision`s, and collects `Ack`s — driving the pure
//!   [`islands_dtxn::Coordinator`] state machine with bytes on sockets
//!   instead of function calls.
//! * **Presumed abort under failure.** A participant that cannot be
//!   reached (connection refused/reset, vote or ack timeout) is reported
//!   to the state machine as a failure: an undecided transaction aborts,
//!   and surviving participants receive abort decisions. On the instance
//!   side, a coordinator connection that dies leaving prepared branches
//!   behind triggers the same rule (see `server.rs`): the branches roll
//!   back, locks release, and the instance stays serviceable.
//!
//! The coordinator's forced decision log lives in the coordinator process
//! (`Deployment::decided`); `islands_dtxn::recovery` holds the rule a
//! restarted participant applies against it, tested in that crate. What
//! this module adds is the *live* half: no process exits with in-doubt
//! transactions still holding locks, which the instance processes verify
//! themselves at drain (nonzero exit + `in_doubt` count in their final
//! stats line).

use std::collections::HashMap;
use std::convert::Infallible;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use islands_core::native::{
    EngineMode, ExecutorConfig, PartitionConfig, PartitionEngine, PartitionExecutor, TpccPartition,
};
use islands_core::partition::{warehouse_range, WarehouseSites};
use islands_core::plan::MICRO_TABLE;
use islands_dtxn::{Action, Coordinator, DecisionLog, Vote};
use islands_hwtopo::{island_cpu_lists, HostTopology};
use islands_workload::{PlanBranch, PlanRequest, TxnRequest};

use crate::client::Client;
use crate::server::{Backend, Conn, Endpoint, Server, ServerConfig};
use crate::wire::{FrameReader, Reply, Request, WireMessage};

/// First argument that turns a host binary into an instance child (see
/// [`run_instance_child_if_requested`]).
pub const INSTANCE_CHILD_FLAG: &str = "--instance-child";

/// How instance processes are started.
#[derive(Debug, Clone)]
pub enum SpawnMode {
    /// Re-execute the current binary with [`INSTANCE_CHILD_FLAG`]; the host
    /// binary must call [`run_instance_child_if_requested`] first thing in
    /// `main`. One binary, zero path discovery.
    SelfExec,
    /// Run this binary (e.g. a built `islands-instance`). It is passed
    /// [`INSTANCE_CHILD_FLAG`] too, so the same arg parser serves both.
    Binary(PathBuf),
}

/// Where the deployment's endpoints live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Unix domain sockets in [`DeployConfig::socket_dir`].
    Uds,
    /// Loopback TCP on ephemeral ports.
    Tcp,
}

/// What data the instance processes load and serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployWorkload {
    /// The single-table microbenchmark: `total_rows` keys range-partitioned
    /// evenly across instances.
    Micro,
    /// TPC-C-lite: warehouses (with their districts, customers, and stock)
    /// partitioned contiguously across instances via
    /// [`warehouse_range`]; NewOrder runs local, remote-warehouse Payments
    /// run wire-level 2PC.
    Tpcc {
        /// Scale factor: number of warehouses across the whole deployment.
        warehouses: u64,
    },
}

/// Configuration for a multi-process deployment.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Number of instance processes (1 = "1ISL", machine-count = islands,
    /// core-count = fine-grained).
    pub instances: usize,
    pub transport: Transport,
    /// Total rows, range-partitioned evenly across instances.
    pub total_rows: u64,
    /// Payload bytes per row.
    pub row_size: usize,
    /// Server-side retry budget for local submissions, and the
    /// coordinator's retry budget for multisite 2PC aborts.
    pub retry_limit: u32,
    /// Per-instance lock wait budget (also breaks distributed deadlocks).
    pub lock_timeout: Duration,
    /// Run instances without locking (only sound for one client).
    pub single_threaded: bool,
    /// How each instance executes: [`EngineMode::Locked`] (sessions execute
    /// concurrently under 2PL) or [`EngineMode::Serial`] (one transaction at
    /// a time per partition, no lock table on the local fast path).
    pub engine: EngineMode,
    /// Pin instance processes to island core sets via `taskset`.
    pub pin: bool,
    pub spawn: SpawnMode,
    /// How long the coordinator waits for a vote or ack before presuming
    /// the participant failed. Must comfortably exceed `lock_timeout`.
    pub vote_timeout: Duration,
    /// Directory for UDS socket files (default: the OS temp dir).
    pub socket_dir: Option<PathBuf>,
    /// Period of the `STATS` heartbeat each instance prints on stdout
    /// (0 disables). The parent only drains child stdout at shutdown, so
    /// the pipe's capacity bounds how long a run can heartbeat before the
    /// child would block on a full pipe — at the 500 ms default and ~100
    /// bytes a line, comfortably over five minutes.
    pub stats_every_ms: u64,
    /// Run instances with the observability registry enabled. Disabling it
    /// (`loadgen --no-obs`) turns every counter/span into a load-and-branch
    /// for overhead A/B measurements; heartbeats and final stats still
    /// print (wire counters are always on).
    pub obs: bool,
    /// What the instances load and serve (micro table or TPC-C-lite).
    pub workload: DeployWorkload,
    /// Directory for durable state, or `None` for a volatile deployment.
    /// When set, each instance writes a WAL (`instance-<i>.wal`) it replays
    /// on restart, the coordinator forces commit decisions to
    /// `coordinator.decisions` before any `Decision` frame leaves, and a
    /// resolver socket answers a recovering instance's
    /// [`Request::ResolveGtid`] queries from that log (unknown gtid ⇒
    /// presumed abort).
    pub wal_dir: Option<PathBuf>,
}

impl DeployConfig {
    /// Check that the configuration describes a spawnable deployment.
    ///
    /// In particular `total_rows >= instances`: with fewer rows than
    /// instances the even range partitioning degenerates (instances whose
    /// range is empty), which is exactly the shape under which ownership
    /// arithmetic divergence bugs hide. Reject it before any process spawns.
    pub fn validate(&self) -> Result<(), String> {
        if self.instances == 0 {
            return Err("a deployment needs at least one instance".into());
        }
        if self.total_rows < self.instances as u64 {
            return Err(format!(
                "{} rows cannot partition across {} instances (need rows >= instances)",
                self.total_rows, self.instances
            ));
        }
        if self.row_size == 0 {
            return Err("row_size must be nonzero".into());
        }
        if self.vote_timeout <= self.lock_timeout {
            return Err(format!(
                "vote_timeout ({:?}) must exceed lock_timeout ({:?}) or every \
                 lock-contended vote is presumed dead",
                self.vote_timeout, self.lock_timeout
            ));
        }
        if let DeployWorkload::Tpcc { warehouses } = self.workload {
            if warehouses < self.instances as u64 {
                return Err(format!(
                    "{warehouses} warehouses cannot partition across {} instances \
                     (need warehouses >= instances)",
                    self.instances
                ));
            }
        }
        Ok(())
    }
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            instances: 4,
            transport: Transport::Uds,
            total_rows: 40_000,
            row_size: 64,
            retry_limit: 64,
            lock_timeout: Duration::from_millis(200),
            single_threaded: false,
            engine: EngineMode::Locked,
            pin: true,
            spawn: SpawnMode::SelfExec,
            vote_timeout: Duration::from_secs(5),
            socket_dir: None,
            stats_every_ms: 500,
            obs: true,
            workload: DeployWorkload::Micro,
            wal_dir: None,
        }
    }
}

/// Rows per instance under the even range partitioning — the **single**
/// source of truth both [`range_of`] and [`owner_of`] divide by. The two
/// used to clamp differently (`owner_of` had a `.max(1)` that `range_of`
/// lacked), so with `rows < instances` keys routed to instances whose
/// loaded range was the empty `[0, 0)`; [`DeployConfig::validate`] now
/// rejects that shape outright and the clamp is gone.
fn rows_per_instance(rows: u64, instances: usize) -> u64 {
    debug_assert!(instances >= 1);
    debug_assert!(
        rows >= instances as u64,
        "{rows} rows cannot partition across {instances} instances"
    );
    rows / instances as u64
}

/// Key range `[lo, hi)` of instance `i` among `n` over `rows` (the same
/// arithmetic as the generator's logical sites).
fn range_of(i: usize, n: usize, rows: u64) -> (u64, u64) {
    let per = rows_per_instance(rows, n);
    let lo = i as u64 * per;
    let hi = if i + 1 == n { rows } else { lo + per };
    (lo, hi)
}

/// The instance owning `key` under the even range partitioning of
/// [`range_of`].
fn owner_of(key: u64, instances: usize, total_rows: u64) -> usize {
    let per = rows_per_instance(total_rows, instances);
    ((key / per) as usize).min(instances - 1)
}

/// Split a multisite request into per-instance branches, preserving key
/// order within each branch. Returns `(participants-in-first-touch-order,
/// branch-per-participant)`.
pub fn split_by_owner(
    req: &TxnRequest,
    instances: usize,
    total_rows: u64,
) -> (Vec<usize>, HashMap<usize, TxnRequest>) {
    let mut order = Vec::new();
    let mut branches: HashMap<usize, TxnRequest> = HashMap::new();
    for &key in &req.keys {
        let owner = owner_of(key, instances, total_rows);
        let branch = branches.entry(owner).or_insert_with(|| {
            order.push(owner);
            TxnRequest {
                kind: req.kind,
                keys: Vec::new(),
                multisite: true,
            }
        });
        branch.keys.push(key);
    }
    (order, branches)
}

/// Split a multi-step plan into per-instance branches, preserving step
/// order within each branch (`owner` maps `(table, key)` to an instance).
/// Branches keep the plan's class and are marked multisite, so a parked
/// remote-Payment branch records its class in each participant's stats.
pub fn split_plan_by_owner<F: Fn(u32, u64) -> usize>(
    plan: &PlanRequest,
    owner: F,
) -> (Vec<usize>, HashMap<usize, PlanRequest>) {
    let Ok(split) = try_split_plan_by_owner(plan, |t, k| Ok::<_, Infallible>(owner(t, k)));
    split
}

/// [`split_plan_by_owner`] with a fallible `owner` (see
/// [`Deployment::owner_of_step`]): the first step no instance owns stops
/// the split with its error.
fn try_split_plan_by_owner<E, F: Fn(u32, u64) -> Result<usize, E>>(
    plan: &PlanRequest,
    owner: F,
) -> Result<(Vec<usize>, HashMap<usize, PlanRequest>), E> {
    let mut order = Vec::new();
    let mut branches: HashMap<usize, PlanRequest> = HashMap::new();
    for step in &plan.steps {
        let inst = owner(step.table, step.key)?;
        let branch = branches.entry(inst).or_insert_with(|| {
            order.push(inst);
            PlanRequest {
                class: plan.class,
                multisite: true,
                steps: Vec::new(),
            }
        });
        branch.steps.push(*step);
    }
    Ok((order, branches))
}

/// Final counters one instance printed at drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstanceStats {
    pub commits: u64,
    pub aborts: u64,
    pub errors: u64,
    pub prepares: u64,
    pub decisions: u64,
    pub presumed_aborts: u64,
    pub in_doubt: u64,
}

fn parse_stats(line: &str) -> Option<InstanceStats> {
    let rest = line.strip_prefix("STATS ")?;
    let mut s = InstanceStats::default();
    for pair in rest.split_whitespace() {
        let (k, v) = pair.split_once('=')?;
        let v: u64 = v.parse().ok()?;
        match k {
            "commits" => s.commits = v,
            "aborts" => s.aborts = v,
            "errors" => s.errors = v,
            "prepares" => s.prepares = v,
            "decisions" => s.decisions = v,
            "presumed_aborts" => s.presumed_aborts = v,
            "in_doubt" => s.in_doubt = v,
            // Unknown keys are skipped, not fatal: a newer child may
            // heartbeat fields an older parent has no slot for.
            _ => {}
        }
    }
    Some(s)
}

fn format_stats(s: &crate::server::ServerStats) -> String {
    format!(
        "STATS commits={} aborts={} errors={} prepares={} decisions={} \
         presumed_aborts={} in_doubt={}",
        s.commits, s.aborts, s.errors, s.prepares, s.decisions, s.presumed_aborts, s.in_doubt,
    )
}

/// How one instance process ended.
#[derive(Debug)]
pub struct InstanceExit {
    pub index: usize,
    /// Drained on request, exited zero, and reported zero in-doubt
    /// transactions.
    pub clean: bool,
    /// Final counters, when the instance lived long enough to print them.
    pub stats: Option<InstanceStats>,
    /// Human-readable detail for unclean exits.
    pub detail: String,
}

/// The coordinator's decision verdicts: an in-memory gtid → commit map,
/// optionally written through a durable [`DecisionLog`] *before* any
/// `Decision` frame leaves the coordinator. Resolution queries apply the
/// presumed-abort rule: no record means abort.
struct DecisionStore {
    decided: Mutex<HashMap<u64, bool>>,
    log: Option<DecisionLog>,
}

impl DecisionStore {
    /// Volatile store, or (with a wal dir) one backed by
    /// `<wal_dir>/coordinator.decisions` — reopening over an existing log
    /// resumes its verdicts, which is what lets a restarted deployment keep
    /// answering for transactions it decided in a previous life.
    fn open(wal_dir: Option<&Path>) -> io::Result<DecisionStore> {
        match wal_dir {
            None => Ok(DecisionStore {
                decided: Mutex::new(HashMap::new()),
                log: None,
            }),
            Some(dir) => {
                let log = DecisionLog::open(&dir.join("coordinator.decisions"))?;
                Ok(DecisionStore {
                    decided: Mutex::new(log.decisions()),
                    log: Some(log),
                })
            }
        }
    }

    /// Durably record a decision. Fail-stop on a log write error: acting on
    /// an unforced commit would let a coordinator crash contradict it, which
    /// is the one thing presumed abort must never allow.
    fn force(&self, gtid: u64, commit: bool) {
        if let Some(log) = &self.log {
            if let Err(e) = log.force(gtid, commit) {
                panic!("coordinator decision log write failed: {e}");
            }
        }
        lock_clean(&self.decided).insert(gtid, commit);
    }

    /// The presumed-abort verdict for one gtid: commit only if a commit
    /// decision was forced.
    fn commit_verdict(&self, gtid: u64) -> bool {
        lock_clean(&self.decided)
            .get(&gtid)
            .copied()
            .unwrap_or(false)
    }

    fn decided_count(&self) -> u64 {
        lock_clean(&self.decided).len() as u64
    }
}

/// The coordinator-side resolver: a UDS listener answering
/// [`Request::ResolveGtid`] frames from the decision store, so a restarted
/// instance can settle the in-doubt branches its WAL replay parked. One
/// thread per connection; connections are rare (instance startups only).
struct Resolver {
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Resolver {
    fn spawn(socket: PathBuf, store: Arc<DecisionStore>) -> io::Result<Resolver> {
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket)?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("islands-resolver".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let store = Arc::clone(&store);
                                let shutdown = Arc::clone(&shutdown);
                                let _ = std::thread::Builder::new()
                                    .name("islands-resolver-conn".into())
                                    .spawn(move || {
                                        let _ = resolver_session(stream, &store, &shutdown);
                                    });
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => break,
                        }
                    }
                })?
        };
        Ok(Resolver {
            endpoint: Endpoint::Uds(socket),
            shutdown,
            acceptor: Some(acceptor),
        })
    }
}

impl Drop for Resolver {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        remove_uds_file(&self.endpoint);
    }
}

/// Serve one resolver connection until EOF: `ResolveGtid` frames answered
/// with `Resolved` verdicts, `Ping` with `Pong`; anything else is an error
/// reply (the resolver is not an instance server).
fn resolver_session(
    stream: std::os::unix::net::UnixStream,
    store: &DecisionStore,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut conn = Conn::Uds(stream);
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    loop {
        out.clear();
        loop {
            match reader.next_message::<Request>() {
                Ok(Some(Request::ResolveGtid { gtid })) => Reply::Resolved {
                    gtid,
                    commit: store.commit_verdict(gtid),
                }
                .encode_frame(&mut out),
                Ok(Some(Request::Ping)) => Reply::Pong.encode_frame(&mut out),
                Ok(Some(other)) => Reply::Error {
                    message: format!("resolver answers only ResolveGtid, got {other:?}"),
                }
                .encode_frame(&mut out),
                Ok(None) => break,
                Err(e) => {
                    Reply::Error {
                        message: format!("protocol error: {e}"),
                    }
                    .encode_frame(&mut out);
                    conn.write_all(&out)?;
                    return Ok(());
                }
            }
        }
        if !out.is_empty() {
            conn.write_all(&out)?;
            conn.flush()?;
        }
        match reader.fill_from(&mut conn) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Where in the 2PC exchange a scripted fault kills its victim (always
/// relative to the victim's own frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Before the victim's `PreparePlan` frame is sent: nothing durable exists
    /// on the victim; the transaction presumed-aborts.
    PrePrepare,
    /// After the victim voted Yes (its prepared branch is durable in its
    /// WAL), before its `Decision` frame is sent — the canonical in-doubt
    /// window.
    PostPreparePreDecision,
    /// After the victim's `Decision` frame was written, before its ack is
    /// read.
    PostDecisionPreAck,
}

impl FaultPoint {
    /// Parse the CLI spelling (`pre-prepare`, `post-prepare`,
    /// `post-decision`).
    pub fn parse(s: &str) -> Result<FaultPoint, String> {
        match s {
            "pre-prepare" => Ok(FaultPoint::PrePrepare),
            "post-prepare" => Ok(FaultPoint::PostPreparePreDecision),
            "post-decision" => Ok(FaultPoint::PostDecisionPreAck),
            other => Err(format!(
                "fault point must be pre-prepare, post-prepare, or post-decision; got {other}"
            )),
        }
    }

    /// The CLI spelling back (round-trips with [`parse`](Self::parse)).
    pub fn label(&self) -> &'static str {
        match self {
            FaultPoint::PrePrepare => "pre-prepare",
            FaultPoint::PostPreparePreDecision => "post-prepare",
            FaultPoint::PostDecisionPreAck => "post-decision",
        }
    }
}

/// One scripted fault: SIGKILL `victim` the next time the coordinator
/// reaches `point` in a 2PC exchange involving it. Armed once via
/// [`Deployment::arm_fault`]; fires at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub point: FaultPoint,
    pub victim: usize,
}

struct Member {
    endpoint: Mutex<Endpoint>,
    range: (u64, u64),
    cpus: Option<String>,
    /// Child argv (after the executable), kept verbatim so
    /// [`Deployment::restart_instance`] respawns the same instance — same
    /// key range, same WAL path, same pins.
    args: Vec<String>,
    child: Mutex<Child>,
    stdout: Mutex<BufReader<ChildStdout>>,
}

/// A running multi-process deployment. Dropping it kills every child that
/// [`shutdown`](Self::shutdown) has not already reaped.
pub struct Deployment {
    members: Vec<Member>,
    exe: PathBuf,
    total_rows: u64,
    workload: DeployWorkload,
    retry_limit: u32,
    vote_timeout: Duration,
    /// Reply deadline for plain submissions: unlike a vote (one execution
    /// attempt), a submit may legitimately burn the instance's whole
    /// retry × lock-wait budget before answering, so "wedged" starts after
    /// that budget plus the vote timeout.
    submit_timeout: Duration,
    pinned: bool,
    next_gtid: AtomicU64,
    /// Coordinator-observed presumed aborts (participant unreachable or
    /// timed out mid-protocol).
    presumed_aborts: AtomicU64,
    /// The coordinator's forced decision log: gtid → commit. Presumed abort
    /// forces commits only, so this holds every committed gtid and nothing
    /// else. With [`DeployConfig::wal_dir`] set it is written through a
    /// durable [`DecisionLog`]; `islands_dtxn::recovery::resolve_in_doubt`
    /// is the rule participants apply against it.
    decisions: Arc<DecisionStore>,
    /// The resolver socket answering recovering instances (wal deployments
    /// only). Dropped last-ish: children are killed first in both shutdown
    /// paths, so nothing is left asking.
    resolver: Option<Resolver>,
    /// A scripted fault waiting to fire (see [`FaultPlan`]).
    fault: Mutex<Option<FaultPlan>>,
    faults_fired: AtomicU64,
}

impl Deployment {
    /// Spawn `cfg.instances` pinned instance processes and wait for each to
    /// report readiness. On any failure the already-spawned children are
    /// killed before the error returns.
    pub fn spawn(cfg: &DeployConfig) -> io::Result<Deployment> {
        cfg.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let exe = match &cfg.spawn {
            SpawnMode::SelfExec => std::env::current_exe()?,
            SpawnMode::Binary(p) => p.clone(),
        };
        // Pinning needs both the request and the tool; when either is
        // missing, report no cpu sets at all rather than a plan that was
        // never applied.
        let taskset = cfg.pin && taskset_available();
        let pins = if taskset {
            island_pin_sets(cfg.instances)
        } else {
            vec![None; cfg.instances]
        };
        let socket_dir = cfg.socket_dir.clone().unwrap_or_else(std::env::temp_dir);
        // Socket names carry a per-process sequence number on top of the
        // pid: concurrent Deployments in one process (parallel tests) must
        // not race for the same paths.
        static DEPLOY_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = DEPLOY_SEQ.fetch_add(1, Ordering::Relaxed);

        // Durable half: the coordinator's decision log and its resolver
        // socket come up before any child spawns, so a child that restarts
        // into recovery always finds someone to ask.
        if let Some(dir) = &cfg.wal_dir {
            std::fs::create_dir_all(dir)?;
        }
        let decisions = Arc::new(DecisionStore::open(cfg.wal_dir.as_deref())?);
        let resolver = match &cfg.wal_dir {
            Some(_) => Some(Resolver::spawn(
                socket_dir.join(format!("islands-coord-{}-{seq}.sock", std::process::id())),
                Arc::clone(&decisions),
            )?),
            None => None,
        };

        let child_args = |i: usize, range: (u64, u64)| -> Vec<String> {
            let endpoint_spec = match cfg.transport {
                Transport::Uds => format!(
                    "uds:{}",
                    socket_dir
                        .join(format!(
                            "islands-inst-{}-{seq}-{i}.sock",
                            std::process::id()
                        ))
                        .display()
                ),
                Transport::Tcp => "tcp:127.0.0.1:0".to_string(),
            };
            let mut args = vec![
                INSTANCE_CHILD_FLAG.to_string(),
                "--endpoint".into(),
                endpoint_spec,
                "--row-size".into(),
                cfg.row_size.to_string(),
                "--retry-limit".into(),
                cfg.retry_limit.to_string(),
                "--lock-ms".into(),
                cfg.lock_timeout.as_millis().to_string(),
                "--stats-every-ms".into(),
                cfg.stats_every_ms.to_string(),
            ];
            match cfg.workload {
                DeployWorkload::Micro => {
                    args.extend(["--lo".into(), range.0.to_string()]);
                    args.extend(["--hi".into(), range.1.to_string()]);
                }
                DeployWorkload::Tpcc { warehouses } => {
                    args.extend(["--warehouses".into(), warehouses.to_string()]);
                    args.extend(["--w-lo".into(), range.0.to_string()]);
                    args.extend(["--w-hi".into(), range.1.to_string()]);
                }
            }
            if let Some(dir) = &cfg.wal_dir {
                args.extend([
                    "--wal".into(),
                    dir.join(format!("instance-{i}.wal")).display().to_string(),
                ]);
            }
            if let Some(r) = &resolver {
                args.extend(["--coord".into(), r.endpoint.to_string()]);
            }
            if cfg.single_threaded {
                args.push("--single-threaded".into());
            }
            if !cfg.obs {
                args.push("--no-obs".into());
            }
            if cfg.engine == EngineMode::Serial {
                args.extend(["--engine".into(), EngineMode::Serial.label().into()]);
            }
            args
        };

        let mut spawned: Vec<Member> = Vec::new();
        for (i, pin) in pins.iter().enumerate().take(cfg.instances) {
            // In TPC-C mode the "range" a member reports is its warehouse
            // range; the micro row range flags are still passed (the child
            // ignores them once --warehouses is set).
            let range = match cfg.workload {
                DeployWorkload::Micro => range_of(i, cfg.instances, cfg.total_rows),
                DeployWorkload::Tpcc { warehouses } => {
                    warehouse_range(warehouses, cfg.instances, i)
                }
            };
            let args = child_args(i, range);
            let cpus = if taskset { pin.clone() } else { None };
            match spawn_child(&exe, cpus.as_deref(), &args) {
                Ok((child, stdout)) => spawned.push(Member {
                    endpoint: Mutex::new(Endpoint::Uds(PathBuf::new())), // patched after READY
                    range,
                    cpus: pin.clone(),
                    args,
                    child: Mutex::new(child),
                    stdout: Mutex::new(stdout),
                }),
                Err(e) => {
                    for m in &spawned {
                        let mut c = lock_clean(&m.child);
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return Err(io::Error::other(format!("spawn instance {i}: {e}")));
                }
            }
        }

        // Collect READY lines (children bind and load in parallel above).
        let mut members = Vec::with_capacity(spawned.len());
        let mut failure: Option<String> = None;
        for (i, member) in spawned.drain(..).enumerate() {
            if failure.is_none() {
                let ready = {
                    let mut stdout = lock_clean(&member.stdout);
                    let mut child = lock_clean(&member.child);
                    read_ready(&mut stdout, &mut child)
                };
                match ready {
                    Ok(endpoint) => {
                        *lock_clean(&member.endpoint) = endpoint;
                        members.push(member);
                        continue;
                    }
                    Err(e) => failure = Some(format!("instance {i} never became ready: {e}")),
                }
            }
            let mut c = lock_clean(&member.child);
            let _ = c.kill();
            let _ = c.wait();
        }
        if let Some(msg) = failure {
            for m in &members {
                let mut c = lock_clean(&m.child);
                let _ = c.kill();
                let _ = c.wait();
            }
            return Err(io::Error::other(msg));
        }
        Ok(Deployment {
            members,
            exe,
            total_rows: cfg.total_rows,
            workload: cfg.workload,
            retry_limit: cfg.retry_limit,
            vote_timeout: cfg.vote_timeout,
            submit_timeout: cfg.vote_timeout + cfg.lock_timeout * (cfg.retry_limit + 1),
            pinned: taskset,
            next_gtid: AtomicU64::new(1),
            presumed_aborts: AtomicU64::new(0),
            decisions,
            resolver,
            fault: Mutex::new(None),
            faults_fired: AtomicU64::new(0),
        })
    }

    pub fn instances(&self) -> usize {
        self.members.len()
    }

    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Whether children were actually wrapped in `taskset`.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// The cpu list instance `i` was pinned to, if any.
    pub fn cpus_of(&self, i: usize) -> Option<&str> {
        self.members[i].cpus.as_deref()
    }

    /// The endpoint instance `i` listens on. A clone, not a reference: a
    /// concurrent [`restart_instance`](Self::restart_instance) may swap the
    /// live endpoint (TCP children re-bind an ephemeral port).
    pub fn endpoint(&self, i: usize) -> Endpoint {
        lock_clean(&self.members[i].endpoint).clone()
    }

    /// The resolver socket recovering instances query, when this deployment
    /// has one ([`DeployConfig::wal_dir`] set).
    pub fn resolver_endpoint(&self) -> Option<Endpoint> {
        self.resolver.as_ref().map(|r| r.endpoint.clone())
    }

    /// The key range instance `i` owns.
    pub fn range(&self, i: usize) -> (u64, u64) {
        self.members[i].range
    }

    /// The instance owning `key`.
    pub fn owner_of(&self, key: u64) -> usize {
        owner_of(key, self.members.len(), self.total_rows)
    }

    /// What the instances are loaded with.
    pub fn workload(&self) -> DeployWorkload {
        self.workload
    }

    /// The instance owning `(table, key)` under the deployment's workload:
    /// micro keys by row range, TPC-C keys by their warehouse (via the same
    /// proportional map [`warehouse_range`] inverts for loading). A table
    /// the deployment does not serve, a micro key past `total_rows` or a
    /// warehouse past the scale factor has no owner: `Err` names it.
    pub fn owner_of_step(&self, table: u32, key: u64) -> Result<usize, String> {
        match self.workload {
            DeployWorkload::Micro if table != MICRO_TABLE => {
                Err(format!("table {table} is not served by a micro deployment"))
            }
            DeployWorkload::Micro if key >= self.total_rows => {
                Err(format!("key {key} out of range ({} rows)", self.total_rows))
            }
            DeployWorkload::Micro => Ok(self.owner_of(key)),
            DeployWorkload::Tpcc { warehouses } => WarehouseSites {
                warehouses,
                n_sites: self.members.len(),
            }
            .checked_site_of(table, key),
        }
    }

    fn next_gtid(&self) -> u64 {
        self.next_gtid.fetch_add(1, Ordering::Relaxed)
    }

    /// Coordinator-observed presumed aborts so far.
    pub fn presumed_aborts(&self) -> u64 {
        self.presumed_aborts.load(Ordering::Relaxed)
    }

    /// Number of commit decisions forced to the coordinator log.
    pub fn decided_commits(&self) -> u64 {
        self.decisions.decided_count()
    }

    /// Arm a scripted fault: the next 2PC exchange that reaches
    /// `plan.point` with `plan.victim` as a participant SIGKILLs the victim
    /// at exactly that point. One-shot; re-arm for another fault.
    pub fn arm_fault(&self, plan: FaultPlan) {
        *lock_clean(&self.fault) = Some(plan);
    }

    /// How many scripted faults have fired.
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired.load(Ordering::Relaxed)
    }

    fn maybe_fire_fault(&self, point: FaultPoint, to: usize) {
        let fire = {
            let mut armed = lock_clean(&self.fault);
            match *armed {
                Some(plan) if plan.point == point && plan.victim == to => {
                    *armed = None;
                    true
                }
                _ => false,
            }
        };
        if fire {
            let _ = self.kill_instance(to);
            self.faults_fired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Open one coordinator connection set (one socket per instance).
    /// Each client thread should hold its own.
    pub fn client(self: &Arc<Self>) -> io::Result<DeployClient> {
        let mut conns = Vec::with_capacity(self.members.len());
        for m in &self.members {
            let endpoint = lock_clean(&m.endpoint).clone();
            conns.push(Some(Client::connect_with_retry(
                &endpoint,
                Duration::from_secs(2),
            )?));
        }
        Ok(DeployClient {
            deploy: Arc::clone(self),
            conns,
        })
    }

    /// SIGKILL instance `i` (no drain, no cleanup) — the fault injector's
    /// hammer, also usable directly from tests to exercise the
    /// presumed-abort paths.
    pub fn kill_instance(&self, i: usize) -> io::Result<()> {
        let mut child = lock_clean(&self.members[i].child);
        child.kill()?;
        child.wait()?;
        Ok(())
    }

    /// Respawn instance `i` on its original key range, WAL path, and pins,
    /// and wait for it to report READY. The stale socket file a killed
    /// child leaves behind is removed first — the replacement must bind
    /// fresh, not inherit a path some client still holds a dead connection
    /// to. On a WAL deployment the child replays its log before READY, so
    /// when this returns, its surviving in-doubt branches are already
    /// resolved against the coordinator's decision log.
    pub fn restart_instance(&self, i: usize) -> io::Result<()> {
        let m = &self.members[i];
        {
            // Make sure the old incarnation is dead and reaped before its
            // replacement binds (idempotent after kill_instance).
            let mut child = lock_clean(&m.child);
            let _ = child.kill();
            let _ = child.wait();
        }
        remove_uds_file(&lock_clean(&m.endpoint).clone());
        let cpus = if self.pinned { m.cpus.as_deref() } else { None };
        let (mut child, mut stdout) = spawn_child(&self.exe, cpus, &m.args)?;
        match read_ready(&mut stdout, &mut child) {
            Ok(endpoint) => {
                *lock_clean(&m.endpoint) = endpoint;
                *lock_clean(&m.child) = child;
                *lock_clean(&m.stdout) = stdout;
                Ok(())
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "instance {i} never became ready after restart: {e}"
                )))
            }
        }
    }

    /// Drain every instance, wait for the processes to exit, and report how
    /// each ended. An instance is `clean` iff it acknowledged the drain,
    /// exited zero, and reported zero in-doubt transactions.
    pub fn shutdown(mut self) -> Vec<InstanceExit> {
        let members = std::mem::take(&mut self.members);
        let mut reports = Vec::with_capacity(members.len());
        for (i, member) in members.into_iter().enumerate() {
            let mut detail = String::new();
            let endpoint = unwrap_clean(member.endpoint);
            let drained = match Client::connect(&endpoint).and_then(|mut c| c.drain_server()) {
                Ok(()) => true,
                Err(e) => {
                    detail = format!("drain failed: {e}");
                    false
                }
            };
            let mut child = unwrap_clean(member.child);
            let status = match wait_with_timeout(&mut child, Duration::from_secs(10)) {
                Ok(status) => Some(status),
                Err(e) => {
                    detail = format!("{detail}; wait failed: {e}");
                    let _ = child.kill();
                    let _ = child.wait();
                    None
                }
            };
            // The child has exited (or been killed): its stdout is at EOF,
            // so drain the remaining lines and keep the *last* STATS record.
            // With heartbeats on, many STATS lines precede it; the final one
            // (printed after the server joins) carries the drained totals,
            // and a killed child's newest heartbeat is the best estimate.
            let mut stats = None;
            let mut stdout = unwrap_clean(member.stdout);
            let mut line = String::new();
            while let Ok(n) = stdout.read_line(&mut line) {
                if n == 0 {
                    break;
                }
                if let Some(s) = parse_stats(line.trim_end()) {
                    stats = Some(s);
                }
                line.clear();
            }
            let exited_zero = status.map(|s| s.success()).unwrap_or(false);
            let no_leak = stats.map(|s| s.in_doubt == 0).unwrap_or(false);
            if !exited_zero {
                detail = format!("{detail}; exit status {status:?}");
            }
            if stats.is_none() {
                detail = format!("{detail}; no STATS line");
            } else if !no_leak {
                detail = format!("{detail}; leaked in-doubt transactions");
            }
            let clean = drained && exited_zero && no_leak;
            // Unclean exits name the instance in the detail itself: callers
            // routinely collect `detail`s from every member into one error
            // string, where "drain failed" without an index is useless.
            if !clean {
                detail = format!("instance {i}: {}", detail.trim_start_matches("; "));
            }
            // A cleanly drained child unlinks its own socket file; a killed
            // one cannot, so the parent (which chose the path) sweeps up.
            remove_uds_file(&endpoint);
            reports.push(InstanceExit {
                index: i,
                clean,
                stats,
                detail: detail.trim_start_matches("; ").to_string(),
            });
        }
        reports
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // Anything shutdown() did not reap dies here: no orphan processes,
        // no stale socket files.
        for m in &self.members {
            let mut c = lock_clean(&m.child);
            let _ = c.kill();
            let _ = c.wait();
            remove_uds_file(&lock_clean(&m.endpoint));
        }
        // The resolver field drops after this body: children are dead by
        // then, so nothing is left mid-query.
    }
}

/// The mutexes in this module guard a `Child`, a `BufReader`, or the
/// decision map — state that stays consistent across a holder's panic
/// (kill/wait/read/insert are self-contained) — so recover the guard from
/// poisoning instead of cascading the panic into cleanup paths like `Drop`.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Same recovery for consuming the mutex at shutdown.
fn unwrap_clean<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

fn remove_uds_file(endpoint: &Endpoint) {
    if let Endpoint::Uds(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
}

fn wait_with_timeout(child: &mut Child, timeout: Duration) -> io::Result<std::process::ExitStatus> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "instance did not exit after drain",
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Start one instance child (optionally wrapped in `taskset -c cpus`) with
/// its stdout piped for the READY/STATS protocol.
fn spawn_child(
    exe: &Path,
    cpus: Option<&str>,
    args: &[String],
) -> io::Result<(Child, BufReader<ChildStdout>)> {
    let mut cmd = match cpus {
        Some(cpus) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(cpus).arg(exe);
            c
        }
        None => Command::new(exe),
    };
    cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped());
    let mut child = cmd.spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::other("child stdout was not piped"))?;
    Ok((child, BufReader::new(stdout)))
}

/// Block until the child prints its `READY <endpoint>` handshake line (or
/// dies, which surfaces its exit status).
fn read_ready(stdout: &mut BufReader<ChildStdout>, child: &mut Child) -> io::Result<Endpoint> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            let status = child
                .try_wait()?
                .map(|s| format!("exited {s}"))
                .unwrap_or_else(|| "stdout closed".into());
            return Err(io::Error::other(status));
        }
        if let Some(spec) = line.trim_end().strip_prefix("READY ") {
            return Endpoint::parse(spec).map_err(io::Error::other);
        }
    }
}

fn taskset_available() -> bool {
    Command::new("taskset")
        .arg("-V")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Island-style cpu lists for `n` instances on the detected host (see
/// [`islands_hwtopo::island_cpu_lists`], which the granularity sweep shares).
fn island_pin_sets(n: usize) -> Vec<Option<String>> {
    let topo = HostTopology::detect();
    island_cpu_lists(&topo, n).into_iter().map(Some).collect()
}

/// Outcome of one request submitted through a [`DeployClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployOutcome {
    pub committed: bool,
    /// Whether the request ran wire-level 2PC across instances.
    pub distributed: bool,
    /// Coordinator-side retry rounds (2PC aborts re-attempted).
    pub retries: u32,
    /// The abort was presumed after a participant failure rather than
    /// decided by votes.
    pub presumed_abort: bool,
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployReply {
    Outcome(DeployOutcome),
    /// A participant rejected the request as malformed/unsatisfiable.
    ServerError(String),
    /// The single owning instance is unreachable.
    InstanceDown(usize),
}

enum TwoPc {
    Commit,
    Abort,
    PresumedAbort,
    Error(String),
}

/// One coordinator: a connection to every instance plus the 2PC driver.
pub struct DeployClient {
    deploy: Arc<Deployment>,
    conns: Vec<Option<Client>>,
}

/// First pause of the reconnect backoff ladder.
const RECONNECT_BACKOFF_START: Duration = Duration::from_millis(1);
/// Per-attempt pause cap: the ladder doubles 1 → 2 → … → 64 ms, then stays.
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_millis(64);
/// Default total reconnect budget per [`DeployClient::conn`] call — long
/// enough to ride out an instance respawn, short enough that a permanently
/// dead instance still surfaces as [`DeployReply::InstanceDown`] promptly.
const RECONNECT_BUDGET: Duration = Duration::from_secs(1);

/// Connect with capped exponential backoff: immediate first attempt, then
/// doubling pauses up to [`RECONNECT_BACKOFF_CAP`], giving up (with the
/// last error) once `budget` is spent.
fn connect_backoff(endpoint: &Endpoint, budget: Duration) -> io::Result<Client> {
    let deadline = Instant::now() + budget;
    let mut pause = RECONNECT_BACKOFF_START;
    loop {
        match Client::connect(endpoint) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(RECONNECT_BACKOFF_CAP);
            }
        }
    }
}

impl DeployClient {
    fn conn(&mut self, i: usize) -> io::Result<&mut Client> {
        if self.conns[i].is_none() {
            // Reconnect with backoff: a raced submit that lands while
            // instance `i` restarts rides out the respawn instead of
            // failing on the first refused connect.
            self.conns[i] = Some(connect_backoff(&self.deploy.endpoint(i), RECONNECT_BUDGET)?);
        }
        self.conns[i]
            .as_mut()
            .ok_or_else(|| io::Error::other("connection slot empty after connect"))
    }

    fn mark_dead(&mut self, i: usize) {
        self.conns[i] = None;
    }

    /// Route one micro batch: its plan lowering through
    /// [`submit_plan`](Self::submit_plan).
    pub fn submit(&mut self, req: &TxnRequest) -> io::Result<DeployReply> {
        self.submit_plan(&req.into())
    }

    /// Read a reply with the vote/ack deadline armed; any failure poisons
    /// the connection (a timed-out reply would desynchronize the stream).
    fn recv_timed(&mut self, i: usize) -> io::Result<Reply> {
        self.recv_deadline(i, self.deploy.vote_timeout)
    }

    fn recv_deadline(&mut self, i: usize, timeout: Duration) -> io::Result<Reply> {
        let conn = self.conns[i]
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "participant dead"))?;
        conn.set_read_timeout(Some(timeout))?;
        let reply = conn.recv_reply();
        if reply.is_ok() {
            conn.set_read_timeout(None)?;
        }
        reply
    }

    /// Route one multi-step plan: single-instance plans go straight to the
    /// owner as a `SubmitPlan` frame; plans spanning instances (multisite
    /// batches, remote-warehouse Payments) run wire-level 2PC with
    /// `PreparePlan` branches, retried on abort up to the retry limit. A
    /// step no instance owns is a [`DeployReply::ServerError`] before any
    /// frame leaves.
    pub fn submit_plan(&mut self, plan: &PlanRequest) -> io::Result<DeployReply> {
        let deploy = Arc::clone(&self.deploy);
        let (order, branches) =
            match try_split_plan_by_owner(plan, |t, k| deploy.owner_of_step(t, k)) {
                Ok(split) => split,
                Err(message) => return Ok(DeployReply::ServerError(message)),
            };
        if order.len() <= 1 {
            let target = order.first().copied().unwrap_or(0);
            return self.submit_plan_single(target, plan);
        }

        let mut retries = 0u32;
        loop {
            let gtid = self.deploy.next_gtid();
            match drive_2pc(self, gtid, &order, &branches)? {
                TwoPc::Commit => {
                    return Ok(DeployReply::Outcome(DeployOutcome {
                        committed: true,
                        distributed: true,
                        retries,
                        presumed_abort: false,
                    }))
                }
                TwoPc::Abort => {
                    if retries >= self.deploy.retry_limit {
                        return Ok(DeployReply::Outcome(DeployOutcome {
                            committed: false,
                            distributed: true,
                            retries,
                            presumed_abort: false,
                        }));
                    }
                    retries += 1;
                    std::thread::yield_now();
                }
                TwoPc::PresumedAbort => {
                    self.deploy.presumed_aborts.fetch_add(1, Ordering::Relaxed);
                    return Ok(DeployReply::Outcome(DeployOutcome {
                        committed: false,
                        distributed: true,
                        retries,
                        presumed_abort: true,
                    }));
                }
                TwoPc::Error(message) => return Ok(DeployReply::ServerError(message)),
            }
        }
    }

    fn submit_plan_single(&mut self, target: usize, plan: &PlanRequest) -> io::Result<DeployReply> {
        let Ok(conn) = self.conn(target) else {
            return Ok(DeployReply::InstanceDown(target));
        };
        if conn
            .send_request(&Request::SubmitPlan(plan.clone()))
            .is_err()
        {
            self.mark_dead(target);
            return Ok(DeployReply::InstanceDown(target));
        }
        let deadline = self.deploy.submit_timeout;
        match self.recv_deadline(target, deadline) {
            Ok(Reply::Committed {
                distributed,
                retries,
                ..
            }) => Ok(DeployReply::Outcome(DeployOutcome {
                committed: true,
                distributed,
                retries,
                presumed_abort: false,
            })),
            Ok(Reply::Aborted { retries }) => Ok(DeployReply::Outcome(DeployOutcome {
                committed: false,
                distributed: false,
                retries,
                presumed_abort: false,
            })),
            Ok(Reply::Error { message }) => Ok(DeployReply::ServerError(message)),
            Ok(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply to submit_plan: {other:?}"),
            )),
            Err(_) => {
                self.mark_dead(target);
                Ok(DeployReply::InstanceDown(target))
            }
        }
    }

    /// Deployment-wide audit sum: every instance's committed-row-write total
    /// added up. The consistency check a TPC-C run ends with — the total
    /// must equal the sum of `write_rows()` over every committed plan (both
    /// branches of a committed remote Payment included).
    pub fn audit_total(&mut self) -> io::Result<u64> {
        let mut sum = 0u64;
        for i in 0..self.deploy.instances() {
            let conn = self.conn(i)?;
            sum += conn.audit()?;
        }
        Ok(sum)
    }
}

/// The transport seam the 2PC driver runs against. The live implementation
/// is [`DeployClient`]'s per-instance connections; tests substitute a
/// scripted mock to pin driver invariants that need injected failures (a
/// decision written without its ack read leaves a stale frame that
/// desynchronizes the connection for the next round).
trait TwoPcLink {
    /// Ship one frame to participant `to`.
    fn send(&mut self, to: usize, frame: &Request) -> io::Result<()>;
    /// Read the next reply from `to` with the vote/ack deadline armed.
    fn recv(&mut self, from: usize) -> io::Result<Reply>;
    /// Poison `to`'s connection (unreachable or desynchronized).
    fn mark_dead(&mut self, to: usize);
    /// Force a commit decision record for `gtid` to the coordinator log.
    fn force_commit(&mut self, gtid: u64);
}

impl TwoPcLink for DeployClient {
    fn send(&mut self, to: usize, frame: &Request) -> io::Result<()> {
        // Scripted fault injection hooks: the kill lands exactly between
        // protocol steps, so the drill hits the same in-doubt windows every
        // run instead of whenever a signal happens to land.
        match frame {
            Request::PreparePlan(_) => {
                self.deploy.maybe_fire_fault(FaultPoint::PrePrepare, to);
            }
            Request::Decision { .. } => {
                self.deploy
                    .maybe_fire_fault(FaultPoint::PostPreparePreDecision, to);
            }
            _ => {}
        }
        let sent = self.conn(to).and_then(|c| c.send_request(frame));
        if sent.is_ok() && matches!(frame, Request::Decision { .. }) {
            self.deploy
                .maybe_fire_fault(FaultPoint::PostDecisionPreAck, to);
        }
        sent
    }

    fn recv(&mut self, from: usize) -> io::Result<Reply> {
        self.recv_timed(from)
    }

    fn mark_dead(&mut self, to: usize) {
        DeployClient::mark_dead(self, to);
    }

    fn force_commit(&mut self, gtid: u64) {
        // Write-through BEFORE any Decision frame leaves: recovery must
        // reach the same verdict the live protocol acted on.
        self.deploy.decisions.force(gtid, true);
    }
}

/// Carry out coordinator actions in FIFO order (`ForceCommitDecision` must
/// hit the log before any decision message leaves). Every decision sent
/// pushes its participant onto `ack_wait` — **always** the live wait list,
/// so acks owed for follow-up decisions are collected no matter which phase
/// emitted them.
fn process_actions<L: TwoPcLink>(
    link: &mut L,
    coord: &mut Coordinator,
    gtid: u64,
    actions: Vec<Action>,
    ack_wait: &mut Vec<usize>,
    outcome: &mut Option<bool>,
) {
    let mut queue: std::collections::VecDeque<Action> = actions.into();
    while let Some(action) = queue.pop_front() {
        match action {
            Action::SendPrepare { .. } => unreachable!("prepares already sent"),
            Action::ForceCommitDecision { gtid } => link.force_commit(gtid),
            Action::SendDecision { to, commit } => {
                let frame = Request::Decision { gtid, commit };
                match link.send(to, &frame) {
                    Ok(()) => ack_wait.push(to),
                    Err(_) => {
                        link.mark_dead(to);
                        queue.extend(coord.on_participant_failure(to));
                    }
                }
            }
            Action::Finish { commit } => *outcome = Some(commit),
        }
    }
}

/// Phase 2: collect an ack for every decision sent. `ack_wait` is a live
/// worklist, not a snapshot — handling one participant's failure can emit a
/// follow-up decision, and that decision's ack must be read too (it used to
/// be pushed into a throwaway `Vec`, leaving the ack unread: the stale frame
/// desynchronized the connection and the next 2PC round misread it as a
/// vote, turning into a spurious presumed abort). Returns whether any
/// participant failed during the phase.
fn collect_acks<L: TwoPcLink>(
    link: &mut L,
    coord: &mut Coordinator,
    gtid: u64,
    ack_wait: &mut Vec<usize>,
    outcome: &mut Option<bool>,
) -> bool {
    let mut ack_failure = false;
    let mut next = 0;
    while next < ack_wait.len() {
        let to = ack_wait[next];
        next += 1;
        match link.recv(to) {
            Ok(Reply::Ack { gtid: g }) if g == gtid => {
                let actions = coord.on_ack(to);
                process_actions(link, coord, gtid, actions, ack_wait, outcome);
            }
            _ => {
                link.mark_dead(to);
                ack_failure = true;
                let actions = coord.on_participant_failure(to);
                process_actions(link, coord, gtid, actions, ack_wait, outcome);
            }
        }
    }
    ack_failure
}

/// One full round of 2PC over `link`: prepare fan-out, vote collection,
/// decision fan-out, ack collection, with participant failures reported to
/// the [`Coordinator`] state machine as they surface. Participant `to`'s
/// phase-1 frame is a [`Request::PreparePlan`] carrying `branches[&to]`.
fn drive_2pc<L: TwoPcLink>(
    link: &mut L,
    gtid: u64,
    parts: &[usize],
    branches: &HashMap<usize, PlanRequest>,
) -> io::Result<TwoPc> {
    let (mut coord, prepares) = Coordinator::new(gtid, parts.to_vec());

    // Phase 1 fan-out, exactly as the state machine instructs. The phase
    // timers feed the *coordinator process's* registry: where the instance
    // side records handler durations, this side records what the paper's
    // multisite client actually waits — prepare fan-out to last vote, and
    // decision fan-out to last ack, wire time included.
    let prepare_started = Instant::now();
    let mut sent: Vec<usize> = Vec::new();
    let mut unreachable: Vec<usize> = Vec::new();
    for action in prepares {
        let Action::SendPrepare { to } = action else {
            unreachable!("prepare fan-out yields only SendPrepare");
        };
        if unreachable.is_empty() {
            let frame = Request::PreparePlan(PlanBranch {
                gtid,
                plan: branches[&to].clone(),
            });
            match link.send(to, &frame) {
                Ok(()) => {
                    sent.push(to);
                    continue;
                }
                Err(_) => link.mark_dead(to),
            }
        }
        // After the first unreachable participant the transaction is
        // doomed; don't spend prepares on the rest.
        unreachable.push(to);
    }

    // Collect votes from everyone actually prepared.
    let mut votes: Vec<(usize, Vote)> = Vec::new();
    let mut failed: Vec<usize> = unreachable;
    let mut server_error: Option<String> = None;
    for &p in &sent {
        match link.recv(p) {
            Ok(Reply::Vote { gtid: g, vote }) if g == gtid => votes.push((p, vote)),
            Ok(Reply::Error { message }) => {
                // Misrouted/malformed branch: the participant rolled
                // nothing back and holds nothing; treat as a No vote and
                // surface the message.
                server_error.get_or_insert(message);
                votes.push((p, Vote::No));
            }
            Ok(_) | Err(_) => {
                link.mark_dead(p);
                failed.push(p);
            }
        }
    }

    if !sent.is_empty() {
        islands_obs::metrics().record_prepare(prepare_started.elapsed().as_nanos() as u64);
    }

    // Drive the state machine: votes first, then failures; carry out every
    // action it emits. Decisions are sent immediately; their acks are
    // collected afterwards (phase 2 is pipelined like phase 1).
    let decision_started = Instant::now();
    let mut ack_wait: Vec<usize> = Vec::new();
    let mut outcome: Option<bool> = None;
    for (p, vote) in votes {
        let actions = coord.on_vote(p, vote);
        process_actions(link, &mut coord, gtid, actions, &mut ack_wait, &mut outcome);
    }
    let any_failure = !failed.is_empty();
    for p in failed {
        let actions = coord.on_participant_failure(p);
        process_actions(link, &mut coord, gtid, actions, &mut ack_wait, &mut outcome);
    }

    let ack_failure = collect_acks(link, &mut coord, gtid, &mut ack_wait, &mut outcome);
    if !ack_wait.is_empty() {
        islands_obs::metrics().record_decision(decision_started.elapsed().as_nanos() as u64);
    }

    match outcome {
        // A forced commit stays a commit even if an ack never arrived:
        // the decision record is what counts (the participant resolves
        // itself from it on recovery).
        Some(true) => Ok(TwoPc::Commit),
        Some(false) => {
            if let Some(message) = server_error {
                Ok(TwoPc::Error(message))
            } else if any_failure || ack_failure {
                Ok(TwoPc::PresumedAbort)
            } else {
                Ok(TwoPc::Abort)
            }
        }
        None => Err(io::Error::other("2PC finished without an outcome")),
    }
}

/// Instance-child entry point: call this first thing in any binary that may
/// serve as a [`SpawnMode::SelfExec`] host. When the process was started
/// with [`INSTANCE_CHILD_FLAG`], it runs the instance server to completion
/// and exits; otherwise it returns immediately.
pub fn run_instance_child_if_requested() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some(INSTANCE_CHILD_FLAG) {
        std::process::exit(instance_child_main(args.collect()));
    }
}

/// Run one instance process from parsed-out child arguments; returns the
/// process exit code (0 clean, 2 = in-doubt leak, 1 = setup failure).
pub fn instance_child_main(args: Vec<String>) -> i32 {
    match run_instance(&args) {
        Ok(false) => 0,
        Ok(true) => {
            eprintln!("islands-instance: drained with in-doubt transactions leaked");
            2
        }
        Err(e) => {
            eprintln!("islands-instance: {e}");
            1
        }
    }
}

fn run_instance(args: &[String]) -> io::Result<bool> {
    let mut endpoint: Option<Endpoint> = None;
    let mut lo = 0u64;
    let mut hi = 0u64;
    let mut warehouses = 0u64;
    let mut w_lo = 0u64;
    let mut w_hi = 0u64;
    let mut row_size = 64usize;
    let mut retry_limit = 64u32;
    let mut lock_ms = 200u64;
    let mut single_threaded = false;
    let mut engine_mode = EngineMode::Locked;
    let mut stats_every_ms = 500u64;
    let mut obs = true;
    let mut wal: Option<PathBuf> = None;
    let mut coord: Option<Endpoint> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| io::Error::other(format!("{name} requires a value")))
        };
        let parse_err = |name: &str, v: &str| io::Error::other(format!("bad {name}: {v}"));
        match flag.as_str() {
            "--endpoint" => {
                let v = value("--endpoint")?;
                endpoint = Some(Endpoint::parse(v).map_err(io::Error::other)?);
            }
            "--lo" => {
                let v = value("--lo")?;
                lo = v.parse().map_err(|_| parse_err("--lo", v))?;
            }
            "--hi" => {
                let v = value("--hi")?;
                hi = v.parse().map_err(|_| parse_err("--hi", v))?;
            }
            "--warehouses" => {
                let v = value("--warehouses")?;
                warehouses = v.parse().map_err(|_| parse_err("--warehouses", v))?;
            }
            "--w-lo" => {
                let v = value("--w-lo")?;
                w_lo = v.parse().map_err(|_| parse_err("--w-lo", v))?;
            }
            "--w-hi" => {
                let v = value("--w-hi")?;
                w_hi = v.parse().map_err(|_| parse_err("--w-hi", v))?;
            }
            "--row-size" => {
                let v = value("--row-size")?;
                row_size = v.parse().map_err(|_| parse_err("--row-size", v))?;
            }
            "--retry-limit" => {
                let v = value("--retry-limit")?;
                retry_limit = v.parse().map_err(|_| parse_err("--retry-limit", v))?;
            }
            "--lock-ms" => {
                let v = value("--lock-ms")?;
                lock_ms = v.parse().map_err(|_| parse_err("--lock-ms", v))?;
            }
            "--single-threaded" => single_threaded = true,
            "--engine" => {
                let v = value("--engine")?;
                engine_mode = EngineMode::parse(v).map_err(io::Error::other)?;
            }
            "--wal" => wal = Some(PathBuf::from(value("--wal")?)),
            "--coord" => {
                let v = value("--coord")?;
                coord = Some(Endpoint::parse(v).map_err(io::Error::other)?);
            }
            "--stats-every-ms" => {
                let v = value("--stats-every-ms")?;
                stats_every_ms = v.parse().map_err(|_| parse_err("--stats-every-ms", v))?;
            }
            "--no-obs" => obs = false,
            other => return Err(io::Error::other(format!("unknown instance flag {other}"))),
        }
    }
    let endpoint = endpoint.ok_or_else(|| io::Error::other("--endpoint is required"))?;
    // The registry is process-global and this process *is* one instance, so
    // the gate is per-instance by construction.
    islands_obs::set_enabled(obs);

    // `--warehouses` switches the instance to TPC-C-lite mode: it loads
    // warehouses `[w_lo, w_hi)` (districts, customers, stock included) and
    // serves multi-step plans against them; `--lo/--hi` are the micro-table
    // row range otherwise.
    let tpcc = (warehouses > 0).then_some(TpccPartition {
        warehouses,
        w_lo,
        w_hi,
    });
    let partition = PartitionConfig {
        lo,
        hi,
        row_size,
        lock_timeout: Duration::from_millis(lock_ms),
        single_threaded,
        tpcc,
        wal,
        ..Default::default()
    };
    // Keep a handle to whichever engine the backend serves for recovery
    // resolution and leak accounting.
    let mut executor: Option<Arc<PartitionExecutor>> = None;
    let mut engine: Option<Arc<PartitionEngine>> = None;
    let backend = match engine_mode {
        EngineMode::Locked => {
            let built = PartitionEngine::build(&partition)
                .map_err(|e| io::Error::other(format!("partition build failed: {e}")))?;
            let built = Arc::new(built);
            engine = Some(Arc::clone(&built));
            Backend::Partition(built)
        }
        EngineMode::Serial => {
            let exec = PartitionExecutor::spawn(ExecutorConfig { partition })
                .map_err(|e| io::Error::other(format!("executor build failed: {e}")))?;
            let exec = Arc::new(exec);
            executor = Some(Arc::clone(&exec));
            Backend::Executor(exec)
        }
    };

    // Crash recovery rejoin, before READY: WAL replay parked any branch
    // that was prepared-but-undecided when the previous incarnation died.
    // Ask the coordinator's resolver for each verdict (presumed abort: an
    // unknown gtid answers abort). Without a reachable coordinator the
    // branches stay parked — never presume abort unilaterally; the leak is
    // then visible in the drain accounting below.
    let recovered = recovered_gtids(&engine, &executor)?;
    if !recovered.is_empty() {
        match &coord {
            Some(coord) => {
                if let Err(e) = resolve_with_coordinator(coord, &recovered, &engine, &executor) {
                    eprintln!(
                        "islands-instance: in-doubt resolution failed \
                         ({} branch(es) stay parked): {e}",
                        recovered_gtids(&engine, &executor)?.len()
                    );
                }
            }
            None => eprintln!(
                "islands-instance: {} recovered in-doubt branch(es) but no \
                 --coord to resolve against; leaving them parked",
                recovered.len()
            ),
        }
    }

    let handle = Server::spawn_backend(
        backend,
        endpoint,
        ServerConfig {
            retry_limit,
            ..Default::default()
        },
    )?;

    // Readiness handshake: the parent parses this for the resolved endpoint
    // (TCP port 0 becomes a real port here).
    {
        let mut out = io::stdout().lock();
        writeln!(out, "READY {}", handle.endpoint())?;
        out.flush()?;
    }
    // Heartbeat printer: a mid-run observer (tail, a scraper that lost its
    // socket, the parent after a SIGKILL) gets counters without asking the
    // server anything. The probe is minted before `join` consumes the
    // handle; the channel doubles as the stop signal (dropping the sender
    // ends the recv_timeout loop).
    let heartbeat = (stats_every_ms > 0).then(|| {
        let probe = handle.probe();
        let period = Duration::from_millis(stats_every_ms);
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let printer = std::thread::spawn(move || {
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(period)
            {
                let mut out = io::stdout().lock();
                let _ = writeln!(out, "{}", format_stats(&probe.stats()));
                let _ = out.flush();
            }
        });
        (stop_tx, printer)
    });
    let mut stats = handle.join()?;
    if let Some((stop_tx, printer)) = heartbeat {
        drop(stop_tx);
        let _ = printer.join();
    }
    // Recovered branches the resolver never settled are in-doubt leaks just
    // like session-parked ones: fold them into the drain accounting.
    stats.in_doubt += recovered_gtids(&engine, &executor)?.len() as u64;
    let mut out = io::stdout().lock();
    writeln!(out, "{}", format_stats(&stats))?;
    out.flush()?;
    Ok(stats.in_doubt != 0)
}

/// The gtids of in-doubt branches WAL replay parked on this instance's
/// engine (whichever mode owns it).
fn recovered_gtids(
    engine: &Option<Arc<PartitionEngine>>,
    executor: &Option<Arc<PartitionExecutor>>,
) -> io::Result<Vec<u64>> {
    match (engine, executor) {
        (Some(e), _) => Ok(e.recovered_gtids()),
        (_, Some(x)) => x
            .recovered_gtids()
            .map_err(|e| io::Error::other(e.to_string())),
        _ => Ok(Vec::new()),
    }
}

/// Ask the coordinator's resolver for each parked gtid's verdict and apply
/// it. Stops at the first failure, leaving the remaining branches parked
/// for a later attempt (or the drain leak check).
fn resolve_with_coordinator(
    coord: &Endpoint,
    gtids: &[u64],
    engine: &Option<Arc<PartitionEngine>>,
    executor: &Option<Arc<PartitionExecutor>>,
) -> io::Result<()> {
    let mut conn = Client::connect_with_retry(coord, Duration::from_secs(5))?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    for &gtid in gtids {
        conn.send_request(&Request::ResolveGtid { gtid })?;
        let commit = match conn.recv_reply()? {
            Reply::Resolved { gtid: g, commit } if g == gtid => commit,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("resolver answered {other:?} for gtid {gtid}"),
                ))
            }
        };
        apply_verdict(gtid, commit, engine, executor)?;
    }
    Ok(())
}

/// Apply one resolved verdict to the parked branch.
fn apply_verdict(
    gtid: u64,
    commit: bool,
    engine: &Option<Arc<PartitionEngine>>,
    executor: &Option<Arc<PartitionExecutor>>,
) -> io::Result<()> {
    match (engine, executor) {
        (Some(e), _) => {
            e.resolve_recovered(gtid, commit)
                .map_err(|e| io::Error::other(format!("resolving gtid {gtid}: {e}")))?;
            Ok(())
        }
        (_, Some(x)) => {
            // A throwaway session: Decide falls through to the engine's
            // recovered map. The session prepared nothing, so closing it
            // on drop rolls back nothing.
            use islands_core::native::DecideOutcome;
            let session = x.session();
            match session.decide(gtid, commit) {
                Ok(DecideOutcome::Applied | DecideOutcome::AbortNoop) => Ok(()),
                Ok(DecideOutcome::UnknownCommit) => Err(io::Error::other(format!(
                    "commit verdict for gtid {gtid} found no parked branch"
                ))),
                Ok(DecideOutcome::Failed(m)) => {
                    Err(io::Error::other(format!("resolving gtid {gtid}: {m}")))
                }
                Err(e) => Err(io::Error::other(format!("resolving gtid {gtid}: {e}"))),
            }
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::OpKind;

    #[test]
    fn rows_fewer_than_instances_is_rejected_not_misrouted() {
        // Regression: owner_of used to clamp `per` with `.max(1)` while
        // range_of did not, so rows < instances routed keys to instances
        // whose loaded range was empty. The shape is now rejected up front.
        let cfg = DeployConfig {
            instances: 8,
            total_rows: 4,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let err = match Deployment::spawn(&cfg) {
            Err(e) => e,
            Ok(_) => panic!("spawn must reject rows < instances"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn validate_accepts_the_default_and_rejects_degenerate_shapes() {
        assert!(DeployConfig::default().validate().is_ok());
        for cfg in [
            DeployConfig {
                instances: 0,
                ..Default::default()
            },
            DeployConfig {
                row_size: 0,
                ..Default::default()
            },
            DeployConfig {
                vote_timeout: Duration::from_millis(1),
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} must not validate");
        }
    }

    proptest::proptest! {
        /// For every partitionable shape (rows >= instances), the range map
        /// and the ownership map are the same function: every key of
        /// instance i's loaded range is owned by i, and the ranges tile the
        /// keyspace with no instance left empty.
        #[test]
        fn range_of_and_owner_of_agree(n in 1usize..24, extra in 0u64..2_000) {
            let rows = n as u64 + extra; // rows >= n by construction
            let mut covered = 0u64;
            for i in 0..n {
                let (lo, hi) = range_of(i, n, rows);
                proptest::prop_assert_eq!(lo, covered, "ranges must tile");
                proptest::prop_assert!(hi > lo, "instance {} loads an empty range", i);
                // Endpoints and a sample of interior keys all route home.
                for key in [lo, (lo + hi) / 2, hi - 1] {
                    proptest::prop_assert_eq!(
                        owner_of(key, n, rows), i,
                        "key {} with {} instances over {} rows", key, n, rows
                    );
                }
                covered = hi;
            }
            proptest::prop_assert_eq!(covered, rows);
        }
    }

    #[test]
    fn ranges_tile_the_keyspace() {
        let n = 4;
        let rows = 403; // deliberately not divisible
        let mut covered = 0u64;
        for i in 0..n {
            let (lo, hi) = range_of(i, n, rows);
            assert_eq!(lo, covered);
            covered = hi;
        }
        assert_eq!(covered, rows);
    }

    #[test]
    fn owner_of_agrees_with_range_of_for_every_key() {
        for (n, rows) in [(1usize, 10u64), (4, 403), (7, 100), (3, 3)] {
            for i in 0..n {
                let (lo, hi) = range_of(i, n, rows);
                for key in lo..hi {
                    assert_eq!(
                        owner_of(key, n, rows),
                        i,
                        "key {key} with {n} instances over {rows} rows"
                    );
                }
            }
        }
    }

    #[test]
    fn split_preserves_first_touch_order_and_key_order() {
        let req = TxnRequest {
            kind: OpKind::Update,
            keys: vec![350, 10, 360, 120],
            multisite: true,
        };
        let (order, branches) = split_by_owner(&req, 4, 400);
        assert_eq!(order, vec![3, 0, 1]);
        assert_eq!(branches[&3].keys, vec![350, 360]);
        assert_eq!(branches[&0].keys, vec![10]);
        assert_eq!(branches[&1].keys, vec![120]);
        assert!(branches.values().all(|b| b.multisite));
        assert!(branches.values().all(|b| b.kind == OpKind::Update));
    }

    #[test]
    fn split_plan_follows_warehouses_not_raw_keys() {
        use islands_core::partition::SiteMap;
        use islands_core::plan::{TPCC_CUSTOMER, TPCC_DISTRICT, TPCC_HISTORY, TPCC_WAREHOUSE};
        use islands_workload::plan::{PlanClass, PlanStep, StepOp};
        use islands_workload::tpcc;
        // 4 warehouses over 2 instances: w 0..2 -> 0, w 2..4 -> 1. A remote
        // Payment homed at w1 paying a w3 customer splits exactly at the
        // customer + history steps.
        let sites = WarehouseSites {
            warehouses: 4,
            n_sites: 2,
        };
        let plan = PlanRequest {
            class: PlanClass::Payment,
            multisite: true,
            steps: vec![
                PlanStep::point(TPCC_WAREHOUSE, 1, StepOp::Update),
                PlanStep::point(TPCC_DISTRICT, tpcc::district_key(1, 4), StepOp::Update),
                PlanStep::range(TPCC_CUSTOMER, tpcc::customer_key(3, 2, 16), 4),
                PlanStep::point(TPCC_CUSTOMER, tpcc::customer_key(3, 2, 17), StepOp::Update),
                PlanStep::point(TPCC_HISTORY, 1 << 32, StepOp::Insert),
            ],
        };
        let (order, branches) = split_plan_by_owner(&plan, |t, k| sites.site_of(t, k));
        assert_eq!(order, vec![0, 1], "home instance first");
        assert_eq!(branches[&0].steps.len(), 3, "W + D + history insert");
        assert_eq!(branches[&1].steps.len(), 2, "customer scan + update");
        assert!(branches.values().all(|b| b.multisite));
        assert!(branches.values().all(|b| b.class == PlanClass::Payment));
        // Step order within each branch is the plan's order.
        assert_eq!(branches[&1].steps[0].op, StepOp::RangeRead);
        assert_eq!(branches[&1].steps[1].op, StepOp::Update);
    }

    #[test]
    fn scripted_plan_2pc_sends_prepare_plan_frames_and_commits() {
        use islands_workload::plan::{PlanClass, PlanStep, StepOp};
        let gtid = 23;
        let parts = [0usize, 1];
        let branches: HashMap<usize, PlanRequest> = parts
            .iter()
            .map(|&p| {
                (
                    p,
                    PlanRequest {
                        class: PlanClass::Payment,
                        multisite: true,
                        steps: vec![PlanStep::point(
                            islands_core::plan::TPCC_WAREHOUSE,
                            p as u64,
                            StepOp::Update,
                        )],
                    },
                )
            })
            .collect();
        let mut link = ScriptedLink::new(2);
        for p in parts {
            link.script(
                p,
                Ok(Reply::Vote {
                    gtid,
                    vote: Vote::Yes,
                }),
            );
            link.script(p, Ok(Reply::Ack { gtid }));
        }
        let out = drive_2pc(&mut link, gtid, &parts, &branches).unwrap();
        assert!(matches!(out, TwoPc::Commit));
        assert_eq!(link.forced, vec![gtid]);
        for p in parts {
            assert!(
                matches!(&link.sent[p][0], Request::PreparePlan(b) if b.gtid == gtid),
                "phase 1 to {p} must be a PreparePlan frame"
            );
            assert_eq!(
                link.sent[p][1],
                Request::Decision { gtid, commit: true },
                "phase 2 is the shared Decision frame"
            );
        }
    }

    #[test]
    fn tpcc_deploy_config_validates_warehouse_shapes() {
        let ok = DeployConfig {
            instances: 2,
            workload: DeployWorkload::Tpcc { warehouses: 4 },
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        let too_few = DeployConfig {
            instances: 8,
            workload: DeployWorkload::Tpcc { warehouses: 4 },
            ..Default::default()
        };
        assert!(too_few.validate().is_err());
    }

    #[test]
    fn stats_line_round_trips() {
        let stats = crate::server::ServerStats {
            connections: 0,
            requests: 0,
            commits: 10,
            aborts: 2,
            errors: 1,
            prepares: 7,
            decisions: 6,
            presumed_aborts: 1,
            in_doubt: 0,
        };
        let parsed = parse_stats(&format_stats(&stats)).unwrap();
        assert_eq!(
            parsed,
            InstanceStats {
                commits: 10,
                aborts: 2,
                errors: 1,
                prepares: 7,
                decisions: 6,
                presumed_aborts: 1,
                in_doubt: 0,
            }
        );
        assert_eq!(parse_stats("STATS commits=nope"), None);
        assert_eq!(parse_stats("nonsense"), None);
        // Heartbeats from a newer child may carry keys this parent has no
        // slot for; they are skipped, not fatal.
        let tolerant = parse_stats("STATS commits=3 p99_us=412 in_doubt=1").unwrap();
        assert_eq!(tolerant.commits, 3);
        assert_eq!(tolerant.in_doubt, 1);
    }

    /// Scripted [`TwoPcLink`]: per-participant reply queues plus a full log
    /// of sends/recvs, for driving [`drive_2pc`]/[`collect_acks`] through
    /// failure interleavings a live deployment cannot produce on demand.
    struct ScriptedLink {
        replies: Vec<std::collections::VecDeque<io::Result<Reply>>>,
        sent: Vec<Vec<Request>>,
        recvs: Vec<usize>,
        dead: Vec<bool>,
        forced: Vec<u64>,
    }

    impl ScriptedLink {
        fn new(participants: usize) -> Self {
            ScriptedLink {
                replies: (0..participants).map(|_| Default::default()).collect(),
                sent: vec![Vec::new(); participants],
                recvs: vec![0; participants],
                dead: vec![false; participants],
                forced: Vec::new(),
            }
        }

        fn script(&mut self, from: usize, reply: io::Result<Reply>) {
            self.replies[from].push_back(reply);
        }

        fn timeout() -> io::Error {
            io::Error::new(io::ErrorKind::TimedOut, "scripted timeout")
        }
    }

    impl TwoPcLink for ScriptedLink {
        fn send(&mut self, to: usize, frame: &Request) -> io::Result<()> {
            if self.dead[to] {
                return Err(io::Error::new(io::ErrorKind::NotConnected, "dead"));
            }
            self.sent[to].push(frame.clone());
            Ok(())
        }

        fn recv(&mut self, from: usize) -> io::Result<Reply> {
            if self.dead[from] {
                return Err(io::Error::new(io::ErrorKind::NotConnected, "dead"));
            }
            self.recvs[from] += 1;
            self.replies[from].pop_front().unwrap_or_else(|| {
                panic!("recv from {from} with nothing scripted");
            })
        }

        fn mark_dead(&mut self, to: usize) {
            self.dead[to] = true;
        }

        fn force_commit(&mut self, gtid: u64) {
            self.forced.push(gtid);
        }
    }

    /// One micro update branch per participant, lowered to the plan each
    /// `PreparePlan` frame carries.
    fn branch_map(parts: &[usize]) -> HashMap<usize, PlanRequest> {
        parts
            .iter()
            .map(|&p| {
                let batch = TxnRequest {
                    kind: OpKind::Update,
                    keys: vec![p as u64],
                    multisite: true,
                };
                (p, PlanRequest::from(&batch))
            })
            .collect()
    }

    #[test]
    fn ack_phase_follow_up_decision_gets_its_ack_collected() {
        // Regression: the ack loop used to hand `process` a throwaway
        // `&mut Vec::new()`, so a decision emitted while handling an
        // ack-phase participant failure was written but its ack never read,
        // leaving a stale frame on that connection. The wait list is now a
        // live worklist.
        //
        // Construct the coordinator mid-flight: participant 1 voted Yes;
        // participant 0 is still owed a reply the driver is waiting on.
        let gtid = 7;
        let (mut coord, _) = Coordinator::new(gtid, vec![0, 1]);
        assert!(coord.on_vote(1, Vote::Yes).is_empty());
        let mut link = ScriptedLink::new(2);
        // Participant 0 times out during ack collection -> its failure
        // counts as a No vote -> the coordinator emits the abort decision
        // for participant 1 *inside the ack phase*.
        link.script(0, Err(ScriptedLink::timeout()));
        link.script(1, Ok(Reply::Ack { gtid }));

        let mut ack_wait = vec![0];
        let mut outcome = None;
        let failed = collect_acks(&mut link, &mut coord, gtid, &mut ack_wait, &mut outcome);

        assert!(failed, "participant 0's timeout must be reported");
        assert_eq!(
            link.sent[1],
            vec![Request::Decision {
                gtid,
                commit: false
            }],
            "the follow-up abort decision must reach participant 1"
        );
        // The heart of the regression: participant 1's ack must be *read*,
        // not left rotting on the connection for the next round to misread.
        assert_eq!(
            link.recvs[1], 1,
            "the follow-up decision's ack was never collected"
        );
        assert!(!link.dead[1], "participant 1 stays healthy");
        assert_eq!(outcome, Some(false));
        assert_eq!(ack_wait, vec![0, 1], "wait list is live, not a snapshot");
    }

    #[test]
    fn scripted_unanimous_yes_commits_and_reads_every_ack() {
        let gtid = 11;
        let parts = [0usize, 1, 2];
        let mut link = ScriptedLink::new(3);
        for p in parts {
            link.script(
                p,
                Ok(Reply::Vote {
                    gtid,
                    vote: Vote::Yes,
                }),
            );
            link.script(p, Ok(Reply::Ack { gtid }));
        }
        let branches = branch_map(&parts);
        let out = drive_2pc(&mut link, gtid, &parts, &branches).unwrap();
        assert!(matches!(out, TwoPc::Commit));
        assert_eq!(link.forced, vec![gtid], "commit decision must be forced");
        for p in parts {
            assert_eq!(link.recvs[p], 2, "vote + ack read from {p}");
            assert_eq!(link.sent[p].len(), 2, "prepare + decision sent to {p}");
            assert_eq!(
                link.sent[p][0],
                Request::PreparePlan(PlanBranch {
                    gtid,
                    plan: branches[&p].clone(),
                }),
                "phase 1 to {p} carries its own branch"
            );
            assert!(!link.dead[p]);
        }
    }

    #[test]
    fn scripted_vote_timeout_presumes_abort_and_settles_survivors() {
        let gtid = 13;
        let parts = [0usize, 1];
        let mut link = ScriptedLink::new(2);
        link.script(
            0,
            Ok(Reply::Vote {
                gtid,
                vote: Vote::Yes,
            }),
        );
        link.script(0, Ok(Reply::Ack { gtid }));
        link.script(1, Err(ScriptedLink::timeout()));
        let branches = branch_map(&parts);
        let out = drive_2pc(&mut link, gtid, &parts, &branches).unwrap();
        assert!(matches!(out, TwoPc::PresumedAbort));
        assert!(link.forced.is_empty(), "presumed abort forces nothing");
        assert_eq!(
            link.sent[0].last(),
            Some(&Request::Decision {
                gtid,
                commit: false
            }),
            "survivor must receive the abort decision"
        );
        assert_eq!(link.recvs[0], 2, "survivor's abort ack must be read");
        assert!(link.dead[1]);
    }

    #[test]
    fn pin_sets_cover_every_instance() {
        for n in [1, 2, 3, 8, 64] {
            let pins = island_pin_sets(n);
            assert_eq!(pins.len(), n);
            assert!(pins
                .iter()
                .all(|p| p.as_deref().is_some_and(|s| !s.is_empty())));
        }
    }

    #[test]
    fn fault_point_parse_round_trips_and_rejects_junk() {
        for point in [
            FaultPoint::PrePrepare,
            FaultPoint::PostPreparePreDecision,
            FaultPoint::PostDecisionPreAck,
        ] {
            assert_eq!(FaultPoint::parse(point.label()), Ok(point));
        }
        assert!(FaultPoint::parse("mid-prepare").is_err());
        assert!(FaultPoint::parse("").is_err());
    }

    #[test]
    fn decision_store_reopen_resumes_verdicts() {
        let dir = std::env::temp_dir().join(format!(
            "islands-decision-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let store = DecisionStore::open(Some(&dir)).unwrap();
        store.force(7, true);
        store.force(8, false);
        assert!(store.commit_verdict(7));
        assert!(!store.commit_verdict(8));
        drop(store);

        // A second coordinator life over the same directory keeps answering
        // for decisions from the first, and still presumes abort for gtids
        // nobody ever decided.
        let reopened = DecisionStore::open(Some(&dir)).unwrap();
        assert_eq!(reopened.decided_count(), 2);
        assert!(reopened.commit_verdict(7));
        assert!(!reopened.commit_verdict(8));
        assert!(
            !reopened.commit_verdict(9),
            "unknown gtid must presume abort"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connect_backoff_waits_out_a_late_binding_listener() {
        let sock = std::env::temp_dir().join(format!(
            "islands-backoff-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&sock);

        // Nothing listens and nothing will: the budget must bound the wait.
        let endpoint = Endpoint::Uds(sock.clone());
        assert!(connect_backoff(&endpoint, Duration::from_millis(50)).is_err());

        // A listener that binds late — the restart window — must be reached
        // by a connect that starts before the bind.
        let binder = {
            let sock = sock.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                let listener = UnixListener::bind(&sock).unwrap();
                let _ = listener.accept();
            })
        };
        assert!(
            connect_backoff(&endpoint, Duration::from_secs(5)).is_ok(),
            "backoff must outlast a 100ms bind delay"
        );
        binder.join().unwrap();
        let _ = std::fs::remove_file(&sock);
    }
}
