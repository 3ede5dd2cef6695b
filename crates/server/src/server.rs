//! The served deployment: acceptor, per-connection sessions, drain.
//!
//! [`Server::spawn`] binds a Unix-domain-socket or TCP endpoint in front of
//! an [`Arc<NativeCluster>`] and returns a handle. An acceptor thread hands
//! each connection to its own session thread — the paper's shared-nothing
//! processes talk over exactly these transports, so a served `NativeCluster`
//! is the in-process deployment plus a real IPC boundary.
//!
//! Sessions implement **request pipelining with a group-commit batch
//! window**: every complete frame already buffered on the socket is decoded
//! into one batch, and when a batch is still smaller than
//! [`ServerConfig::max_batch`], the session waits up to
//! [`ServerConfig::batch_window`] for more pipelined frames before
//! executing. The whole batch then runs back-to-back and all replies are
//! flushed in a single write — one syscall amortized over the group, the
//! socket-level analogue of group commit.
//!
//! **Drain**: a [`Request::Drain`] (or [`ServerHandle::initiate_shutdown`])
//! flips the shared shutdown flag. The acceptor stops accepting, sessions
//! finish the batch in flight, flush, and exit at their next poll tick, and
//! [`ServerHandle::join`] returns the final counters once every thread is
//! gone.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_core::native::{
    BranchOutcome, DecideOutcome, ExecutorSession, NativeCluster, PartitionEngine,
    PartitionExecutor, SubmitOutcome,
};
use islands_core::plan::{plan_from_request, MICRO_TABLE};
use islands_dtxn::{Participant, ParticipantEvent, Vote};
use islands_obs::{BreakdownCategory, TxnClass};
use islands_storage::TxnHandle;
use islands_workload::{PlanBranch, PlanRequest};

use crate::wire::{FrameReader, Reply, Request, WireMessage};

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix domain socket at this path.
    Uds(PathBuf),
    /// TCP socket (use port 0 to bind an ephemeral port; the handle reports
    /// the resolved address).
    Tcp(SocketAddr),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Uds(p) => write!(f, "uds:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Endpoint {
    /// Parse the [`Display`](std::fmt::Display) form back: `uds:PATH` or
    /// `tcp:HOST:PORT`. Deployment orchestrators round-trip endpoints
    /// through child process command lines and `READY` hand-shake lines.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("uds:") {
            Ok(Endpoint::Uds(path.into()))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Ok(Endpoint::Tcp(
                addr.parse()
                    .map_err(|e| format!("bad address {addr}: {e}"))?,
            ))
        } else {
            Err(format!("endpoint must be uds:PATH or tcp:ADDR, got {s}"))
        }
    }
}

/// Tuning knobs for a served deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server-side retry budget per submitted transaction.
    pub retry_limit: u32,
    /// Largest request batch one session executes between flushes.
    pub max_batch: usize,
    /// How long a session waits for more pipelined requests before executing
    /// a non-full batch. Zero executes immediately.
    pub batch_window: Duration,
    /// Poll granularity for noticing shutdown while idle; also the upper
    /// bound on how long a drain waits for idle sessions.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            retry_limit: 64,
            max_batch: 64,
            batch_window: Duration::from_micros(50),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// What a server fronts: a whole in-process cluster, or one partition of a
/// multi-process shared-nothing deployment.
#[derive(Clone)]
pub enum Backend {
    /// The embeddable deployment: routing and 2PC happen inside this
    /// process; the wire carries only submissions.
    Cluster(Arc<NativeCluster>),
    /// One shared-nothing instance. Local submissions commit here;
    /// [`Request::PreparePlan`]/[`Request::Decision`] frames drive
    /// participant-side 2PC, with presumed abort when a coordinator
    /// connection dies.
    Partition(Arc<PartitionEngine>),
    /// One shared-nothing instance in **serial executor** mode: each session
    /// runs its requests with exclusive access to the partition, one
    /// transaction at a time, so the local fast path runs with no
    /// lock-table acquisition however many connections are open.
    Executor(Arc<PartitionExecutor>),
}

/// Monotonic counters, updated by sessions, readable any time.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    errors: AtomicU64,
    prepares: AtomicU64,
    decisions: AtomicU64,
    presumed_aborts: AtomicU64,
    /// Gauge: prepared branches currently awaiting a decision.
    in_doubt: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            prepares: self.prepares.load(Ordering::Relaxed),
            decisions: self.decisions.load(Ordering::Relaxed),
            presumed_aborts: self.presumed_aborts.load(Ordering::Relaxed),
            in_doubt: self.in_doubt.load(Ordering::Relaxed),
        }
    }
}

/// Cloneable, read-only view of a running server's counters.
///
/// [`ServerHandle::join`] consumes the handle, so anything that wants to
/// keep reporting stats while another thread blocks in `join` — the
/// deployment children's `STATS` heartbeat printer, for one — mints a probe
/// first and reads through it.
#[derive(Clone)]
pub struct StatsProbe {
    counters: Arc<Counters>,
}

impl StatsProbe {
    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot()
    }
}

/// Snapshot of a server's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests of any kind decoded.
    pub requests: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions that exhausted their retry budget.
    pub aborts: u64,
    /// Malformed or unsatisfiable requests answered with an error reply.
    pub errors: u64,
    /// 2PC prepare frames processed (partition backends).
    pub prepares: u64,
    /// 2PC decision frames processed (partition backends).
    pub decisions: u64,
    /// In-doubt branches rolled back because their coordinator's connection
    /// died without a decision (the presumed-abort rule, applied live).
    pub presumed_aborts: u64,
    /// Gauge: branches currently prepared and awaiting a decision. Must be
    /// zero after a clean drain — anything else is a leaked in-doubt
    /// transaction still holding locks.
    pub in_doubt: u64,
}

impl ServerStats {
    /// Add another instance's counters into this one — the deployment-wide
    /// totals a scraper's `SUM` row shows (`in_doubt` is a gauge, but the
    /// sum of gauges is the deployment-wide backlog, so plain addition is
    /// the right aggregation for every field).
    pub fn absorb(&mut self, other: &ServerStats) {
        self.connections += other.connections;
        self.requests += other.requests;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.errors += other.errors;
        self.prepares += other.prepares;
        self.decisions += other.decisions;
        self.presumed_aborts += other.presumed_aborts;
        self.in_doubt += other.in_doubt;
    }
}

enum Listener {
    Uds(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Uds(path) => {
                // A stale socket file from a dead server would make bind
                // fail; remove it only if nothing is listening there.
                if path.exists() && UnixStream::connect(path).is_err() {
                    let _ = std::fs::remove_file(path);
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Uds(l, path.clone()))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Uds(_, path) => Ok(Endpoint::Uds(path.clone())),
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?)),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Uds(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Conn::Uds(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accepted connection, transport-erased.
pub(crate) enum Conn {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Uds(path) => Ok(Conn::Uds(UnixStream::connect(path)?)),
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
        }
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.set_read_timeout(t),
            Conn::Tcp(s) => s.set_read_timeout(t),
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.set_nonblocking(nb),
            Conn::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Handle to a running server. Dropping the handle does **not** stop the
/// server; call [`initiate_shutdown`](Self::initiate_shutdown) +
/// [`join`](Self::join) (or have a client send [`Request::Drain`]).
pub struct ServerHandle {
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    acceptor: Option<std::thread::JoinHandle<io::Result<()>>>,
}

/// Namespace for [`Server::spawn`].
pub struct Server;

impl Server {
    /// Bind `endpoint` and serve `cluster` until drained.
    pub fn spawn(
        cluster: Arc<NativeCluster>,
        endpoint: Endpoint,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Self::spawn_backend(Backend::Cluster(cluster), endpoint, config)
    }

    /// Bind `endpoint` and serve `backend` until drained.
    pub fn spawn_backend(
        backend: Backend,
        endpoint: Endpoint,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = Listener::bind(&endpoint)?;
        let resolved = listener.local_endpoint()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let config = config.clone();
            std::thread::Builder::new()
                .name("islands-acceptor".into())
                .spawn(move || accept_loop(listener, backend, config, shutdown, counters))?
        };
        Ok(ServerHandle {
            endpoint: resolved,
            shutdown,
            counters,
            acceptor: Some(acceptor),
        })
    }
}

impl ServerHandle {
    /// The resolved endpoint (actual TCP port when bound to port 0).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot()
    }

    /// Mint a [`StatsProbe`] that outlives this handle (usable while a
    /// sibling thread blocks in [`join`](Self::join)).
    pub fn probe(&self) -> StatsProbe {
        StatsProbe {
            counters: Arc::clone(&self.counters),
        }
    }

    /// Whether a drain/shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begin a drain, as if a client had sent [`Request::Drain`].
    pub fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Wait for the acceptor and every session to exit; returns the final
    /// counters. Call after a drain was initiated (by a client or
    /// [`initiate_shutdown`](Self::initiate_shutdown)) or this blocks until
    /// one happens.
    pub fn join(mut self) -> io::Result<ServerStats> {
        if let Some(h) = self.acceptor.take() {
            h.join()
                .map_err(|_| io::Error::other("acceptor thread panicked"))??;
        }
        Ok(self.stats())
    }
}

/// How many session handles may accumulate before a push forces a prune.
/// Small enough that the handle list stays O(live sessions), large enough
/// that a busy accept loop is not scanning the list on every connection.
const SESSION_PRUNE_WATERMARK: usize = 64;

/// Bookkeeping for spawned session threads.
///
/// Finished handles are pruned whenever a push finds the list at the
/// watermark — not only on the accept loop's idle tick. Under sustained
/// connection churn `accept` may never return `WouldBlock`, and the old
/// idle-tick-only pruning let the list grow by one `JoinHandle` per
/// connection ever accepted, without bound.
struct SessionSet {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SessionSet {
    fn new() -> Self {
        SessionSet {
            handles: Vec::new(),
        }
    }

    fn push(&mut self, handle: std::thread::JoinHandle<()>) {
        if self.handles.len() >= SESSION_PRUNE_WATERMARK {
            self.prune();
        }
        self.handles.push(handle);
    }

    fn prune(&mut self) {
        self.handles.retain(|h| !h.is_finished());
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.handles.len()
    }

    fn join_all(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// `WouldBlock` streak length the acceptor spends just yielding before it
/// starts sleeping: a connection arriving moments after the last one is
/// accepted with sub-scheduler-tick latency.
const ACCEPT_SPIN_YIELDS: u32 = 64;

/// Ceiling on the adaptive accept sleep. The old fixed
/// `poll_interval.min(5ms)` nap added up to 5 ms of connect latency per
/// accept; capping the park at 250 µs keeps a fresh connection's accept
/// wait well under a millisecond while an idle acceptor still wakes only a
/// few thousand times per second.
const ACCEPT_PARK_CAP: Duration = Duration::from_micros(250);

/// Adaptive idle wait for the accept loop: spin (yield) through short gaps,
/// then escalate a 1 µs sleep exponentially up to [`ACCEPT_PARK_CAP`]
/// (never past `poll_interval`, which stays the shutdown-notice bound).
/// `None` means yield without sleeping.
fn accept_idle_wait(streak: u32, poll_interval: Duration) -> Option<Duration> {
    if streak <= ACCEPT_SPIN_YIELDS {
        return None;
    }
    let exp = (streak - ACCEPT_SPIN_YIELDS - 1).min(8);
    Some(
        Duration::from_micros(1 << exp)
            .min(ACCEPT_PARK_CAP)
            .min(poll_interval),
    )
}

fn accept_loop(
    listener: Listener,
    backend: Backend,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
) -> io::Result<()> {
    let mut sessions = SessionSet::new();
    let mut idle_streak = 0u32;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                idle_streak = 0;
                counters.connections.fetch_add(1, Ordering::Relaxed);
                let backend = backend.clone();
                let config = config.clone();
                let shutdown = Arc::clone(&shutdown);
                let counters = Arc::clone(&counters);
                sessions.push(
                    std::thread::Builder::new()
                        .name("islands-session".into())
                        .spawn(move || {
                            // Per-connection errors end that session only.
                            let _ = session(conn, backend, config, shutdown, counters);
                        })?,
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                idle_streak = idle_streak.saturating_add(1);
                match accept_idle_wait(idle_streak, config.poll_interval) {
                    None => std::thread::yield_now(),
                    Some(park) => {
                        // Genuinely idle: housekeeping is free here.
                        sessions.prune();
                        std::thread::sleep(park);
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    // Drain: stop accepting (listener drops below), let sessions finish.
    drop(listener);
    sessions.join_all();
    Ok(())
}

/// Prepared 2PC branches held by one session, keyed by gtid.
///
/// A branch's coordinator speaks on this session's connection, so the map is
/// session-local: no cross-session locking, and the presumed-abort rule has
/// a precise trigger — when the session ends (clean close, protocol error,
/// drain) every branch still here is in-doubt with its coordinator gone,
/// and is rolled back.
type InDoubtBranches = HashMap<u64, (Participant, TxnHandle)>;

/// Serve one connection until it closes, errors fatally, or a drain lands.
fn session(
    conn: Conn,
    backend: Backend,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
) -> io::Result<()> {
    let mut in_doubt = InDoubtBranches::new();
    // Executor backends: this session's executor handle; the session id
    // scopes the presumed-abort rule for
    // branches prepared over this connection.
    let mut exec = match &backend {
        Backend::Executor(e) => Some(e.session()),
        _ => None,
    };
    let result = session_loop(
        conn,
        &backend,
        exec.as_ref(),
        &config,
        &shutdown,
        &counters,
        &mut in_doubt,
    );
    // Presumed abort: the coordinator's connection is gone without a
    // decision, so absence of evidence is evidence of abort. Rolling the
    // branches back releases their locks and keeps this instance
    // serviceable for everyone else.
    for (_, (_, handle)) in in_doubt.drain() {
        let _ = handle.decide(false);
        counters.presumed_aborts.fetch_add(1, Ordering::Relaxed);
        counters.in_doubt.fetch_sub(1, Ordering::Relaxed);
    }
    // Same rule on the executor: closing the producer session rolls back
    // every branch it prepared that nobody decided (the executor owns the
    // parked branches, so the count comes back from there).
    if let Some(mut s) = exec.take() {
        let aborted = s.close();
        if aborted > 0 {
            counters
                .presumed_aborts
                .fetch_add(aborted, Ordering::Relaxed);
            counters.in_doubt.fetch_sub(aborted, Ordering::Relaxed);
        }
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn session_loop(
    mut conn: Conn,
    backend: &Backend,
    exec: Option<&ExecutorSession>,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    counters: &Counters,
    in_doubt: &mut InDoubtBranches,
) -> io::Result<()> {
    let mut reader = FrameReader::new();
    let mut batch: Vec<Request> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    conn.set_read_timeout(Some(config.poll_interval))?;
    'conn: loop {
        // Gather a batch: everything already buffered, up to max_batch. A
        // wire error anywhere is fatal for the connection, but only after
        // the requests decoded before it have been executed and answered —
        // otherwise a pipelining client would hang waiting for replies the
        // server silently dropped.
        batch.clear();
        let mut pending_err: Option<crate::wire::WireError> = None;
        {
            // Frame decode is wire work (Fig. 11 "communication"); the
            // blocking/polling *waits* for bytes below stay unattributed so
            // an idle connection does not inflate the category.
            let _wire = islands_obs::enter(BreakdownCategory::Communication);
            loop {
                match reader.next_message::<Request>() {
                    Ok(Some(req)) => {
                        batch.push(req);
                        if batch.len() >= config.max_batch {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        pending_err = Some(e);
                        break;
                    }
                }
            }
        }

        if batch.is_empty() && pending_err.is_none() {
            // Idle: block (bounded by the poll timeout) for more bytes.
            match reader.fill_from(&mut conn) {
                Ok(0) => return Ok(()), // client hung up
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if shutdown.load(Ordering::SeqCst) {
                        return Ok(()); // drained while idle
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            continue;
        }

        // Group-commit window: a non-full batch waits briefly for more
        // pipelined requests so their replies share one flush. Socket read
        // timeouts round up to scheduler-tick granularity (milliseconds), so
        // a microsecond window must poll nonblocking reads instead.
        if !config.batch_window.is_zero() && batch.len() < config.max_batch && pending_err.is_none()
        {
            let window_ends = Instant::now() + config.batch_window;
            conn.set_nonblocking(true)?;
            'window: loop {
                match reader.fill_from(&mut conn) {
                    Ok(0) => break, // EOF; the final batch still executes
                    Ok(_) => {
                        while batch.len() < config.max_batch {
                            match reader.next_message::<Request>() {
                                Ok(Some(req)) => batch.push(req),
                                Ok(None) => break,
                                Err(e) => {
                                    // The frame was already consumed from the
                                    // stream; remember the error so it is
                                    // answered after this batch, not dropped.
                                    pending_err = Some(e);
                                    break 'window;
                                }
                            }
                        }
                        if batch.len() >= config.max_batch {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if Instant::now() >= window_ends {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        conn.set_nonblocking(false)?;
                        return Err(e);
                    }
                }
            }
            conn.set_nonblocking(false)?;
        }

        // Execute the batch back-to-back, then flush all replies at once.
        out.clear();
        let mut drain_after_flush = false;
        for req in &batch {
            counters.requests.fetch_add(1, Ordering::Relaxed);
            match req {
                Request::Ping => Reply::Pong.encode_frame(&mut out),
                Request::Drain => {
                    drain_after_flush = true;
                    Reply::Draining.encode_frame(&mut out);
                }
                Request::Stats => Reply::Stats {
                    server: counters.snapshot(),
                    obs: Box::new(islands_obs::metrics().snapshot()),
                }
                .encode_frame(&mut out),
                Request::Decision { gtid, commit } => {
                    counters.decisions.fetch_add(1, Ordering::Relaxed);
                    islands_obs::set_txn_class(TxnClass::Multisite);
                    let started = Instant::now();
                    let _span = exec
                        .is_none()
                        .then(|| islands_obs::enter(BreakdownCategory::XctManagement));
                    let reply = match exec {
                        Some(s) => handle_decision_exec(s, *gtid, *commit, counters),
                        None => handle_decision(backend, *gtid, *commit, in_doubt, counters),
                    };
                    islands_obs::metrics().record_decision(started.elapsed().as_nanos() as u64);
                    if matches!(reply, Reply::Error { .. }) {
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    reply.encode_frame(&mut out);
                }
                // A micro batch is the compact form of a single-table plan:
                // lowered once here, it runs exactly as a submitted plan.
                Request::Submit(txn) => handle_submit(
                    &PlanRequest::from(txn),
                    backend,
                    exec,
                    config.retry_limit,
                    counters,
                    &mut out,
                ),
                Request::SubmitPlan(plan) => {
                    handle_submit(plan, backend, exec, config.retry_limit, counters, &mut out)
                }
                Request::PreparePlan(branch) => {
                    counters.prepares.fetch_add(1, Ordering::Relaxed);
                    islands_obs::set_txn_class(TxnClass::Multisite);
                    let started = Instant::now();
                    let _span = exec
                        .is_none()
                        .then(|| islands_obs::enter(BreakdownCategory::XctManagement));
                    let reply = match exec {
                        Some(s) => handle_prepare_plan_exec(s, branch, counters),
                        None => handle_prepare_plan(backend, branch, in_doubt, counters),
                    };
                    islands_obs::metrics().record_prepare(started.elapsed().as_nanos() as u64);
                    if matches!(reply, Reply::Error { .. }) {
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    reply.encode_frame(&mut out);
                }
                Request::ResolveGtid { gtid } => {
                    // Outcome resolution is the coordinator's job (it owns
                    // the decision log); an instance server has no authority
                    // to answer, and presuming abort here would let a
                    // misdirected query contradict a forced commit.
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                    Reply::Error {
                        message: format!(
                            "gtid {gtid} resolution is answered by the coordinator, \
                             not an instance server"
                        ),
                    }
                    .encode_frame(&mut out);
                }
                Request::Audit => {
                    let sum = match backend {
                        Backend::Cluster(c) => c.audit_sum().map_err(|e| e.to_string()),
                        Backend::Partition(p) => p.audit_sum().map_err(|e| e.to_string()),
                        Backend::Executor(e) => e.audit_sum().map_err(|e| e.to_string()),
                    };
                    match sum {
                        Ok(sum) => Reply::AuditSum { sum }.encode_frame(&mut out),
                        Err(message) => {
                            counters.errors.fetch_add(1, Ordering::Relaxed);
                            Reply::Error { message }.encode_frame(&mut out);
                        }
                    }
                }
            }
        }
        {
            let _wire = islands_obs::enter(BreakdownCategory::Communication);
            conn.write_all(&out)?;
            conn.flush()?;
        }
        if let Some(e) = pending_err {
            // Framing is broken past this point: report and hang up.
            out.clear();
            Reply::Error {
                message: format!("protocol error: {e}"),
            }
            .encode_frame(&mut out);
            counters.errors.fetch_add(1, Ordering::Relaxed);
            let _ = conn.write_all(&out);
            return Ok(());
        }
        if drain_after_flush {
            shutdown.store(true, Ordering::SeqCst);
            break 'conn;
        }
        if shutdown.load(Ordering::SeqCst) {
            // A drain landed elsewhere while this batch ran: the in-flight
            // work is answered, so this session exits even though its client
            // may still be sending.
            break 'conn;
        }
    }
    Ok(())
}

/// Run one submitted plan to completion on this session's backend and
/// encode the reply: committed/aborted with retry counts, or the typed
/// storage error's message for requests the engine can never satisfy.
fn handle_submit(
    plan: &PlanRequest,
    backend: &Backend,
    exec: Option<&ExecutorSession>,
    retry_limit: u32,
    counters: &Counters,
    out: &mut Vec<u8>,
) {
    let class = if plan.multisite {
        TxnClass::Multisite
    } else {
        TxnClass::Local
    };
    islands_obs::set_txn_class(class);
    let started = Instant::now();
    let _span = exec
        .is_none()
        .then(|| islands_obs::enter(BreakdownCategory::XctManagement));
    let outcome: Result<SubmitOutcome, String> = match (backend, exec) {
        (Backend::Cluster(cluster), _) => {
            // The in-process cluster range-partitions only the micro table;
            // TPC-C plans belong on partition/executor instances.
            if plan.steps.iter().all(|s| s.table == MICRO_TABLE) {
                cluster
                    .submit_plan(&plan_from_request(plan), retry_limit)
                    .map_err(|e| e.to_string())
            } else {
                Err("cluster backend serves only micro-table plans".into())
            }
        }
        (Backend::Partition(engine), _) => engine
            .submit_plan_local(plan, retry_limit)
            .map_err(|e| e.to_string()),
        (Backend::Executor(_), Some(s)) => s.submit_plan(plan).map_err(|e| e.to_string()),
        (Backend::Executor(_), None) => {
            unreachable!("executor backend always has a session")
        }
    };
    let reply = match outcome {
        Ok(outcome) if outcome.committed => {
            counters.commits.fetch_add(1, Ordering::Relaxed);
            Reply::Committed {
                distributed: outcome.distributed,
                retries: outcome.retries,
                server_micros: started.elapsed().as_micros() as u64,
            }
        }
        Ok(outcome) => {
            counters.aborts.fetch_add(1, Ordering::Relaxed);
            Reply::Aborted {
                retries: outcome.retries,
            }
        }
        Err(message) => {
            counters.errors.fetch_add(1, Ordering::Relaxed);
            Reply::Error { message }
        }
    };
    reply.encode_frame(out);
    islands_obs::metrics().record_txn(class, started.elapsed().as_nanos() as u64);
}

/// 2PC phase 1: execute the plan branch, force the prepare record, vote.
/// The storage layer does the work; the [`Participant`] state machine
/// enforces protocol order and rides along in the in-doubt map so phase 2
/// can only happen on a genuinely prepared branch. A parked branch holds
/// the locks guarding its dependent reads (range scans included) until the
/// decision frame arrives on this connection.
fn handle_prepare_plan(
    backend: &Backend,
    branch: &PlanBranch,
    in_doubt: &mut InDoubtBranches,
    counters: &Counters,
) -> Reply {
    let Backend::Partition(engine) = backend else {
        return Reply::Error {
            message: "2PC prepare requires a partition instance backend".into(),
        };
    };
    let gtid = branch.gtid;
    if in_doubt.contains_key(&gtid) {
        return Reply::Error {
            message: format!("gtid {gtid} is already prepared on this connection"),
        };
    }
    let mut participant = Participant::new(gtid);
    match engine.prepare_plan_branch(gtid, &branch.plan) {
        Ok(BranchOutcome::Prepared(handle)) => {
            let ev = participant.on_prepare(true, true);
            debug_assert!(matches!(
                ev,
                ParticipantEvent::ForcePrepareAndVote {
                    vote: Vote::Yes,
                    ..
                }
            ));
            in_doubt.insert(gtid, (participant, handle));
            counters.in_doubt.fetch_add(1, Ordering::Relaxed);
            Reply::Vote {
                gtid,
                vote: Vote::Yes,
            }
        }
        Ok(BranchOutcome::ReadOnly) => {
            let ev = participant.on_prepare(false, true);
            debug_assert!(matches!(
                ev,
                ParticipantEvent::SendVote {
                    vote: Vote::ReadOnly,
                    ..
                }
            ));
            Reply::Vote {
                gtid,
                vote: Vote::ReadOnly,
            }
        }
        Ok(BranchOutcome::No) => {
            let ev = participant.on_prepare(true, false);
            debug_assert!(matches!(
                ev,
                ParticipantEvent::SendVote { vote: Vote::No, .. }
            ));
            Reply::Vote {
                gtid,
                vote: Vote::No,
            }
        }
        // Misrouted branch (key outside this partition): the coordinator
        // has a routing bug; answer with the typed error instead of a vote.
        Err(e) => Reply::Error {
            message: e.to_string(),
        },
    }
}

/// 2PC phase 2: apply the coordinator's decision to the in-doubt branch.
/// Abort decisions for unknown gtids are acknowledged — under presumed
/// abort the branch may already have been rolled back (or never prepared
/// here at all), and aborting nothing is the decreed outcome.
fn handle_decision(
    backend: &Backend,
    gtid: u64,
    commit: bool,
    in_doubt: &mut InDoubtBranches,
    counters: &Counters,
) -> Reply {
    if !matches!(backend, Backend::Partition(_)) {
        return Reply::Error {
            message: "2PC decision requires a partition instance backend".into(),
        };
    }
    match in_doubt.remove(&gtid) {
        Some((mut participant, handle)) => {
            counters.in_doubt.fetch_sub(1, Ordering::Relaxed);
            let ev = participant.on_decision(commit);
            debug_assert!(matches!(ev, ParticipantEvent::ApplyDecisionAndAck { .. }));
            match handle.decide(commit) {
                Ok(()) => {
                    if commit {
                        counters.commits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        counters.aborts.fetch_add(1, Ordering::Relaxed);
                    }
                    Reply::Ack { gtid }
                }
                Err(e) => Reply::Error {
                    message: format!("decision for gtid {gtid} failed: {e}"),
                },
            }
        }
        None if !commit => Reply::Ack { gtid },
        None => Reply::Error {
            message: format!("commit decision for unknown gtid {gtid}"),
        },
    }
}

/// 2PC phase 1 on a serial-executor backend: the branch (dependent reads
/// and all) executes and prepares on the serial partition; a Yes
/// vote parks it there (keyed by this session for the presumed-abort rule),
/// so the session only relays the vote and keeps the gauges.
fn handle_prepare_plan_exec(
    exec: &ExecutorSession,
    branch: &PlanBranch,
    counters: &Counters,
) -> Reply {
    match exec.prepare_plan(branch.gtid, &branch.plan) {
        Ok(vote) => {
            if vote == Vote::Yes {
                counters.in_doubt.fetch_add(1, Ordering::Relaxed);
            }
            Reply::Vote {
                gtid: branch.gtid,
                vote,
            }
        }
        Err(e) => Reply::Error {
            message: e.to_string(),
        },
    }
}

/// 2PC phase 2 on a serial-executor backend. The executor owns the in-doubt
/// branches (they are instance-global there, so a coordinator that
/// reconnected can still decide); this session applies the counter deltas.
fn handle_decision_exec(
    exec: &ExecutorSession,
    gtid: u64,
    commit: bool,
    counters: &Counters,
) -> Reply {
    match exec.decide(gtid, commit) {
        Ok(DecideOutcome::Applied) => {
            counters.in_doubt.fetch_sub(1, Ordering::Relaxed);
            if commit {
                counters.commits.fetch_add(1, Ordering::Relaxed);
            } else {
                counters.aborts.fetch_add(1, Ordering::Relaxed);
            }
            Reply::Ack { gtid }
        }
        Ok(DecideOutcome::AbortNoop) => Reply::Ack { gtid },
        Ok(DecideOutcome::UnknownCommit) => Reply::Error {
            message: format!("commit decision for unknown gtid {gtid}"),
        },
        Ok(DecideOutcome::Failed(message)) => {
            // The executor removed the branch before the decision failed
            // (mirroring the locked path, which un-maps before deciding),
            // so it is no longer in-doubt — without this decrement the
            // gauge would report a phantom leak forever.
            counters.in_doubt.fetch_sub(1, Ordering::Relaxed);
            Reply::Error {
                message: format!("decision for gtid {gtid} failed: {message}"),
            }
        }
        Err(e) => Reply::Error {
            message: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_idle_wait_spins_then_parks_capped() {
        let poll = Duration::from_millis(25);
        // Short gaps: pure yields, zero added latency.
        for streak in 0..=ACCEPT_SPIN_YIELDS {
            assert_eq!(accept_idle_wait(streak, poll), None, "streak {streak}");
        }
        // Escalation starts at 1 us and doubles...
        assert_eq!(
            accept_idle_wait(ACCEPT_SPIN_YIELDS + 1, poll),
            Some(Duration::from_micros(1))
        );
        assert_eq!(
            accept_idle_wait(ACCEPT_SPIN_YIELDS + 2, poll),
            Some(Duration::from_micros(2))
        );
        // ...and is capped sub-millisecond no matter how long the idle
        // stretch: the old fixed 5 ms nap is the regression under test.
        let mut prev = Duration::ZERO;
        for streak in ACCEPT_SPIN_YIELDS + 1..ACCEPT_SPIN_YIELDS + 10_000 {
            let park = accept_idle_wait(streak, poll).unwrap();
            assert!(park >= prev, "park regressed at streak {streak}");
            assert!(park <= ACCEPT_PARK_CAP, "park over cap at streak {streak}");
            assert!(park < Duration::from_millis(1));
            prev = park;
        }
        // A tighter poll_interval wins over the cap (shutdown notice bound).
        assert_eq!(
            accept_idle_wait(u32::MAX, Duration::from_micros(10)),
            Some(Duration::from_micros(10))
        );
    }

    #[test]
    fn session_set_stays_bounded_under_sustained_churn() {
        // Regression: handles used to be pruned only on the accept loop's
        // WouldBlock idle tick, so a server accepting connections
        // back-to-back accumulated one JoinHandle per connection forever.
        // Pushing past the watermark must prune finished handles itself.
        let mut set = SessionSet::new();
        for i in 0..1_000 {
            let h = std::thread::Builder::new()
                .spawn(|| {})
                .expect("spawn trivial session");
            // The session "finishes" before the next accept, as in
            // connect/close churn; wait so the prune sees it finished.
            while !h.is_finished() {
                std::thread::yield_now();
            }
            set.push(h);
            assert!(
                set.len() <= SESSION_PRUNE_WATERMARK + 1,
                "handle list grew to {} after {} churned sessions",
                set.len(),
                i + 1,
            );
        }
        set.join_all();
    }
}
