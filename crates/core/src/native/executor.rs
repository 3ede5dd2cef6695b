//! Serial partition executors: a partition executes one transaction at a
//! time, start to finish, with **no lock-table acquisition**.
//!
//! The paper's fine-grained shared-nothing configurations win on local-only
//! workloads precisely because a partition owned by a single worker needs no
//! latching or lock-manager traffic (§6.2, §7.1.1; the H-Store-style design
//! it benchmarks against makes serial per-partition execution the fast
//! path). What that needs is *exclusive access* to the partition, not a
//! thread of its own. A [`PartitionExecutor`] builds a [`PartitionEngine`]
//! with locking elided (`single_threaded: true`) and puts it, with the map
//! of parked 2PC branches, behind one partition mutex. Each
//! [`ExecutorSession`] call takes the mutex and runs the request on the
//! calling session's thread: no request is handed to another thread and
//! back, nothing is copied into a queue, and the number of client
//! connections stays decoupled from the partition's single execution slot.
//! Sessions waiting for the mutex are the partition's backlog (the
//! `queue_depth` gauge counts them).
//!
//! ## Why serial execution is correct without 2PL
//!
//! Exclusive execution makes two-phase locking vacuous for the local fast
//! path: every transaction runs start-to-finish while holding the
//! partition, so there is no interleaving for locks to order. The one place
//! concurrency re-enters is **two-phase commit**: a prepared multisite
//! branch must stay in-doubt across Prepare→Decision while the partition
//! keeps serving other requests. The locked engine holds the branch's row
//! locks for that window; the executor instead remembers the branch's key
//! set and answers any conflicting request the way wait-die would have —
//! the newcomer aborts immediately (a local submit reports
//! `committed: false`, a conflicting prepare votes No). The coordinator's
//! decision (or the presumed-abort rule when its connection dies) clears
//! the key set. This mirrors the locked engine exactly: there the in-doubt
//! branch is the *oldest* lock holder, so wait-die kills every conflicting
//! newcomer on first contact, too — which is what makes the two engines
//! trace-equivalent (see `tests/engine_differential.rs`).
//!
//! A panic while executing (a `lockcheck` finding, say) is caught at the
//! partition boundary: the partition's state is then unknown, so it is
//! discarded and the offending call and every later one report
//! [`ExecError::Gone`], while the session thread that made the call lives
//! on to answer its other requests.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use islands_dtxn::Vote;
use islands_obs::{metrics, BreakdownCategory, TxnClass};
use islands_storage::{StorageError, TxnHandle};
use islands_workload::plan::PlanRequest;
use islands_workload::TxnRequest;

use super::engine::{BranchOutcome, PartitionConfig, PartitionEngine};
use super::SubmitOutcome;

/// How a partition instance executes its transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Shared-everything style: sessions execute concurrently, 2PL via the
    /// instance's lock manager.
    #[default]
    Locked,
    /// H-Store style: one transaction at a time per partition, serial
    /// execution, no lock-table acquisition on the local fast path.
    Serial,
}

impl EngineMode {
    /// Stable CLI/report label.
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Locked => "locked",
            EngineMode::Serial => "serial",
        }
    }

    /// Parse the [`label`](Self::label) form back.
    pub fn parse(s: &str) -> Result<EngineMode, String> {
        match s {
            "locked" => Ok(EngineMode::Locked),
            "serial" => Ok(EngineMode::Serial),
            other => Err(format!("engine must be locked|serial, got {other}")),
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Construction knobs for a [`PartitionExecutor`].
#[derive(Debug, Clone, Default)]
pub struct ExecutorConfig {
    /// The partition the executor owns. `single_threaded` is forced on —
    /// serial ownership is the whole point.
    pub partition: PartitionConfig,
}

/// Why an executor call failed (distinct from a well-formed transaction
/// merely aborting, which is a [`SubmitOutcome`] / [`Vote::No`]).
#[derive(Debug)]
pub enum ExecError {
    /// The request is one this partition can never satisfy (key outside its
    /// range, unknown table).
    Storage(StorageError),
    /// A branch with this gtid is already prepared here.
    DuplicateGtid(u64),
    /// The partition is gone (shut down, or discarded after a panic).
    Gone,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "{e}"),
            ExecError::DuplicateGtid(g) => write!(f, "gtid {g} is already prepared here"),
            ExecError::Gone => write!(f, "partition executor is shut down"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

/// Outcome of applying a coordinator decision on the executor.
#[derive(Debug)]
pub enum DecideOutcome {
    /// The in-doubt branch was found and the decision applied.
    Applied,
    /// Abort for an unknown gtid: under presumed abort the branch may
    /// already be gone (or never prepared here); aborting nothing is the
    /// decreed outcome.
    AbortNoop,
    /// Commit for an unknown gtid — a protocol error.
    UnknownCommit,
    /// The branch existed but applying the decision failed.
    Failed(String),
}

/// One prepared, in-doubt 2PC branch parked on the executor.
struct Branch {
    handle: TxnHandle,
    /// Producer session that prepared it (the presumed-abort scope).
    session: u64,
    /// `(table, key)` pairs the branch wrote/read (range reads expanded):
    /// the executor's stand-in for the locks the branch would hold under
    /// 2PL.
    keys: Vec<(u32, u64)>,
    /// When the branch went in-doubt (Prepare→Decision parked time).
    parked_at: Instant,
}

/// Retire an in-doubt branch for observability: drop the gauge and record
/// how long it sat parked between Prepare and the decision.
fn retire_branch(b: &Branch) {
    metrics().in_doubt().dec();
    metrics().record_parked(b.parked_at.elapsed().as_nanos() as u64);
}

/// Everything the partition mutex guards.
struct Serial {
    engine: PartitionEngine,
    /// In-doubt branches, keyed by gtid.
    branches: HashMap<u64, Branch>,
}

/// The partition mutex; `None` once the executor has shut down.
type Partition = Mutex<Option<Serial>>;

/// Run `f` with exclusive access to the partition. Time spent waiting for
/// the mutex shows in the `queue_depth` gauge.
///
/// A panic inside `f` kills the partition, not the caller: the partition's
/// state is then unknown, so it is discarded and this and every later call
/// report [`ExecError::Gone`]. The calling session keeps running and still
/// answers the rest of its batch.
fn exclusive<R>(partition: &Partition, f: impl FnOnce(&mut Serial) -> R) -> Result<R, ExecError> {
    metrics().queue_depth().inc();
    let guard = partition.lock();
    metrics().queue_depth().dec();
    let Ok(mut guard) = guard else {
        return Err(ExecError::Gone);
    };
    let serial = guard.as_mut().ok_or(ExecError::Gone)?;
    match panic::catch_unwind(AssertUnwindSafe(|| f(serial))) {
        Ok(r) => Ok(r),
        Err(_) => {
            // Dropping the dead partition presume-aborts its parked
            // branches, which may panic in turn; either way it is gone.
            let dead = guard.take();
            let _ = panic::catch_unwind(AssertUnwindSafe(move || drop(dead)));
            Err(ExecError::Gone)
        }
    }
}

impl Serial {
    /// Whether `plan` touches any in-doubt branch's `(table, key)` set.
    /// Branch counts are small (one per outstanding 2PC transaction on this
    /// partition), so a linear scan beats maintaining an index; the steps
    /// are walked in place, so nothing is allocated and an empty parked set
    /// answers at once.
    fn conflicts(&self, plan: &PlanRequest) -> bool {
        self.branches
            .values()
            .any(|b| b.keys.iter().any(|&(t, k)| plan.touches(t, k)))
    }

    fn submit_plan(&self, plan: &PlanRequest) -> Result<SubmitOutcome, StorageError> {
        islands_obs::set_txn_class(if plan.multisite {
            TxnClass::Multisite
        } else {
            TxnClass::Local
        });
        let _span = islands_obs::enter(BreakdownCategory::XctManagement);
        if self.conflicts(plan) {
            // Rows held by an in-doubt branch: abort now, exactly as
            // wait-die would kill the younger conflicting txn.
            self.engine.check_plan(plan).map(|()| SubmitOutcome {
                committed: false,
                distributed: false,
                retries: 0,
            })
        } else {
            // Lock-free engine: contention errors cannot occur, so the
            // retry budget is moot.
            self.engine.submit_plan_local(plan, 0)
        }
    }

    fn prepare_plan(
        &mut self,
        session: u64,
        gtid: u64,
        plan: &PlanRequest,
    ) -> Result<Vote, ExecError> {
        islands_obs::set_txn_class(TxnClass::Multisite);
        let _span = islands_obs::enter(BreakdownCategory::XctManagement);
        if self.branches.contains_key(&gtid) {
            return Err(ExecError::DuplicateGtid(gtid));
        }
        if self.conflicts(plan) {
            return self
                .engine
                .check_plan(plan)
                .map(|()| Vote::No)
                .map_err(ExecError::Storage);
        }
        match self.engine.prepare_plan_branch(gtid, plan)? {
            BranchOutcome::Prepared(handle) => {
                metrics().in_doubt().inc();
                self.branches.insert(
                    gtid,
                    Branch {
                        handle,
                        session,
                        keys: plan.conflict_keys(),
                        parked_at: Instant::now(),
                    },
                );
                Ok(Vote::Yes)
            }
            BranchOutcome::ReadOnly => Ok(Vote::ReadOnly),
            BranchOutcome::No => Ok(Vote::No),
        }
    }

    fn decide(&mut self, gtid: u64, commit: bool) -> DecideOutcome {
        islands_obs::set_txn_class(TxnClass::Multisite);
        let _span = islands_obs::enter(BreakdownCategory::XctManagement);
        match self.branches.remove(&gtid) {
            Some(b) => {
                retire_branch(&b);
                match b.handle.decide(commit) {
                    Ok(()) => DecideOutcome::Applied,
                    Err(e) => DecideOutcome::Failed(e.to_string()),
                }
            }
            // No live branch: the gtid may belong to an in-doubt branch
            // re-parked by restart replay.
            None => match self.engine.resolve_recovered(gtid, commit) {
                Ok(true) => DecideOutcome::Applied,
                Ok(false) if !commit => DecideOutcome::AbortNoop,
                Ok(false) => DecideOutcome::UnknownCommit,
                Err(e) => DecideOutcome::Failed(e.to_string()),
            },
        }
    }

    /// Presume-abort every branch `session` prepared; returns how many.
    fn close_session(&mut self, session: u64) -> u64 {
        let doomed: Vec<u64> = self
            .branches
            .iter()
            .filter(|(_, b)| b.session == session)
            .map(|(&g, _)| g)
            .collect();
        for gtid in &doomed {
            if let Some(b) = self.branches.remove(gtid) {
                retire_branch(&b);
                let _ = b.handle.decide(false);
            }
        }
        doomed.len() as u64
    }
}

impl Drop for Serial {
    /// Anything still in-doubt at shutdown has no coordinator left to
    /// decide it: presumed abort releases the partition's state cleanly.
    fn drop(&mut self) {
        for (_, b) in self.branches.drain() {
            retire_branch(&b);
            let _ = b.handle.decide(false);
        }
    }
}

/// Handle to one partition's serial executor. Clone-free by design: share
/// it behind an [`Arc`] and mint one [`ExecutorSession`] per producer.
pub struct PartitionExecutor {
    partition: Arc<Partition>,
    next_session: AtomicU64,
    range: (u64, u64),
}

impl PartitionExecutor {
    /// Build the partition's engine (loading its data, or replaying its
    /// WAL on restart) and start serving. Nothing is spawned: requests run
    /// on the threads of the sessions that submit them.
    pub fn spawn(cfg: ExecutorConfig) -> Result<PartitionExecutor, StorageError> {
        let range = (cfg.partition.lo, cfg.partition.hi);
        let engine = PartitionEngine::build(&PartitionConfig {
            single_threaded: true,
            ..cfg.partition
        })?;
        Ok(PartitionExecutor {
            partition: Arc::new(Mutex::new(Some(Serial {
                engine,
                branches: HashMap::new(),
            }))),
            next_session: AtomicU64::new(1),
            range,
        })
    }

    /// The key range `[lo, hi)` this executor's partition owns.
    pub fn range(&self) -> (u64, u64) {
        self.range
    }

    /// Mint a producer session. Each connection/producer holds its own; the
    /// session id scopes the presumed-abort rule for branches it prepares.
    pub fn session(&self) -> ExecutorSession {
        ExecutorSession {
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            partition: Arc::clone(&self.partition),
            closed: false,
        }
    }

    /// Register the executor's partition into a deployment-wide `lockcheck`
    /// ownership scope (debug builds with `--features lockcheck` only).
    #[cfg(feature = "lockcheck")]
    pub fn set_lockcheck_scope(
        &self,
        scope: std::sync::Arc<islands_storage::lockcheck::Scope>,
    ) -> Result<(), ExecError> {
        exclusive(&self.partition, |p| p.engine.set_lockcheck_scope(scope))
    }

    /// Sum of the audit counters across the partition's rows (taken with
    /// the partition held, so it observes a consistent point).
    pub fn audit_sum(&self) -> Result<u64, ExecError> {
        exclusive(&self.partition, |p| p.engine.audit_sum())?.map_err(ExecError::Storage)
    }

    /// Gtids of in-doubt branches restart replay re-parked on the engine,
    /// still awaiting a coordinator decision. Resolve each with
    /// [`ExecutorSession::decide`] — the decision falls through to the
    /// recovered branch when no live branch holds the gtid.
    pub fn recovered_gtids(&self) -> Result<Vec<u64>, ExecError> {
        exclusive(&self.partition, |p| p.engine.recovered_gtids())
    }

    /// Stop serving: presume-abort any branch still in-doubt and drop the
    /// engine (what dropping the executor does). Sessions that outlive this
    /// see [`ExecError::Gone`].
    pub fn shutdown(self) {}
}

impl Drop for PartitionExecutor {
    fn drop(&mut self) {
        // A poisoned partition is being discarded either way.
        let mut serial = self.partition.lock().unwrap_or_else(|e| e.into_inner());
        *serial = None;
    }
}

/// One producer's handle on a [`PartitionExecutor`]. Each call waits for
/// the partition, runs the request on the calling thread, and returns its
/// answer.
pub struct ExecutorSession {
    id: u64,
    partition: Arc<Partition>,
    closed: bool,
}

impl ExecutorSession {
    /// Execute one fully-local micro batch serially: its plan lowering
    /// through [`submit_plan`](Self::submit_plan).
    pub fn submit(&self, req: &TxnRequest) -> Result<SubmitOutcome, ExecError> {
        self.submit_plan(&req.into())
    }

    /// Execute one micro 2PC branch and run participant phase 1: its plan
    /// lowering through [`prepare_plan`](Self::prepare_plan).
    pub fn prepare(&self, gtid: u64, req: &TxnRequest) -> Result<Vote, ExecError> {
        self.prepare_plan(gtid, &req.into())
    }

    /// Execute one fully-local multi-step plan serially.
    ///
    /// A plan touching a row of an in-doubt branch (range reads included)
    /// reports `committed: false` immediately — the same outcome wait-die
    /// hands a conflicting newcomer under the locked engine.
    pub fn submit_plan(&self, plan: &PlanRequest) -> Result<SubmitOutcome, ExecError> {
        exclusive(&self.partition, |p| p.submit_plan(plan))?.map_err(ExecError::Storage)
    }

    /// Execute one plan branch and run participant phase 1. A `Vote::Yes`
    /// parks the branch with its full `(table, key)` footprint, dependent
    /// reads included, so conflicting work aborts until
    /// [`decide`](Self::decide) (from any session) or this session's close
    /// presumed-aborts it.
    pub fn prepare_plan(&self, gtid: u64, plan: &PlanRequest) -> Result<Vote, ExecError> {
        exclusive(&self.partition, |p| p.prepare_plan(self.id, gtid, plan))?
    }

    /// Apply a coordinator decision to the in-doubt branch with this gtid.
    pub fn decide(&self, gtid: u64, commit: bool) -> Result<DecideOutcome, ExecError> {
        exclusive(&self.partition, |p| p.decide(gtid, commit))
    }

    /// End the session: every branch it prepared that is still in-doubt is
    /// rolled back (presumed abort — the coordinator's connection is gone).
    /// Returns how many branches were rolled back. Idempotent.
    pub fn close(&mut self) -> u64 {
        if std::mem::replace(&mut self.closed, true) {
            return 0;
        }
        exclusive(&self.partition, |p| p.close_session(self.id)).unwrap_or(0)
    }
}

impl Drop for ExecutorSession {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::OpKind;

    fn executor() -> PartitionExecutor {
        PartitionExecutor::spawn(ExecutorConfig {
            partition: PartitionConfig {
                lo: 100,
                hi: 200,
                row_size: 16,
                buffer_frames: 256,
                ..Default::default()
            },
        })
        .unwrap()
    }

    fn update(keys: &[u64]) -> TxnRequest {
        TxnRequest {
            kind: OpKind::Update,
            keys: keys.to_vec(),
            multisite: false,
        }
    }

    #[test]
    fn serial_submit_commits_without_locks() {
        let e = executor();
        let s = e.session();
        let out = s.submit(&update(&[100, 150, 199])).unwrap();
        assert!(out.committed);
        assert_eq!(out.retries, 0);
        assert_eq!(e.audit_sum().unwrap(), 3);
    }

    #[test]
    fn misrouted_keys_are_errors_not_writes() {
        let e = executor();
        let s = e.session();
        assert!(matches!(
            s.submit(&update(&[99])),
            Err(ExecError::Storage(StorageError::KeyNotFound(99)))
        ));
        assert!(matches!(
            s.prepare(1, &update(&[200])),
            Err(ExecError::Storage(StorageError::KeyNotFound(200)))
        ));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn in_doubt_branch_aborts_conflicting_work_until_decided() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.prepare(7, &update(&[110])), Ok(Vote::Yes)));
        // Conflicting local submit: immediate abort, like wait-die.
        let blocked = s.submit(&update(&[110, 111])).unwrap();
        assert!(!blocked.committed);
        // Conflicting prepare of another gtid: votes No.
        assert!(matches!(s.prepare(8, &update(&[110])), Ok(Vote::No)));
        // Non-conflicting work flows freely.
        assert!(s.submit(&update(&[150])).unwrap().committed);
        // Decision releases the keys.
        assert!(matches!(s.decide(7, true), Ok(DecideOutcome::Applied)));
        assert!(s.submit(&update(&[110])).unwrap().committed);
        assert_eq!(e.audit_sum().unwrap(), 3);
    }

    #[test]
    fn abort_decision_undoes_the_branch() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.prepare(9, &update(&[120])), Ok(Vote::Yes)));
        assert!(matches!(s.decide(9, false), Ok(DecideOutcome::Applied)));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn decisions_for_unknown_gtids_follow_presumed_abort() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.decide(42, false), Ok(DecideOutcome::AbortNoop)));
        assert!(matches!(
            s.decide(42, true),
            Ok(DecideOutcome::UnknownCommit)
        ));
    }

    #[test]
    fn duplicate_gtid_prepare_is_rejected() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.prepare(5, &update(&[130])), Ok(Vote::Yes)));
        assert!(matches!(
            s.prepare(5, &update(&[131])),
            Err(ExecError::DuplicateGtid(5))
        ));
        assert!(matches!(s.decide(5, false), Ok(DecideOutcome::Applied)));
    }

    #[test]
    fn session_close_presumed_aborts_its_branches_only() {
        let e = executor();
        let mut dying = e.session();
        let surviving = e.session();
        assert!(matches!(dying.prepare(1, &update(&[110])), Ok(Vote::Yes)));
        assert!(matches!(dying.prepare(2, &update(&[111])), Ok(Vote::Yes)));
        assert!(matches!(
            surviving.prepare(3, &update(&[112])),
            Ok(Vote::Yes)
        ));
        assert_eq!(dying.close(), 2, "both of the dying session's branches");
        assert_eq!(dying.close(), 0, "close is idempotent");
        // The dying session's writes were rolled back; the survivor's
        // branch is still in-doubt and still guards its key.
        assert!(!e.session().submit(&update(&[112])).unwrap().committed);
        assert!(matches!(
            surviving.decide(3, true),
            Ok(DecideOutcome::Applied)
        ));
        assert_eq!(e.audit_sum().unwrap(), 1);
    }

    #[test]
    fn decisions_apply_across_sessions() {
        // A coordinator that reconnects decides on a fresh connection; the
        // branch is executor-global, so the decision still lands.
        let e = executor();
        let mut preparer = e.session();
        assert!(matches!(
            preparer.prepare(6, &update(&[140])),
            Ok(Vote::Yes)
        ));
        let decider = e.session();
        assert!(matches!(
            decider.decide(6, true),
            Ok(DecideOutcome::Applied)
        ));
        assert_eq!(preparer.close(), 0, "branch already decided elsewhere");
        assert_eq!(e.audit_sum().unwrap(), 1);
    }

    #[test]
    fn sessions_on_two_threads_commit_serially() {
        let e = executor();
        let per_thread = 200u64;
        std::thread::scope(|scope| {
            for base in [100u64, 150] {
                let s = e.session();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // Both threads also hammer one shared row.
                        let keys = [base + i % 49, 199];
                        assert!(s.submit(&update(&keys)).unwrap().committed);
                    }
                });
            }
        });
        assert_eq!(e.audit_sum().unwrap(), 2 * per_thread * 2);
    }

    #[test]
    fn sessions_that_outlive_the_executor_see_it_gone() {
        let e = executor();
        let s = e.session();
        assert!(s.submit(&update(&[150])).unwrap().committed);
        e.shutdown();
        assert!(matches!(s.submit(&update(&[150])), Err(ExecError::Gone)));
        assert!(matches!(s.decide(1, false), Err(ExecError::Gone)));
    }

    #[test]
    fn a_panic_inside_the_partition_kills_it_not_the_caller() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.prepare(3, &update(&[170])), Ok(Vote::Yes)));
        let caught = exclusive::<()>(&e.partition, |_| panic!("engine bug"));
        assert!(matches!(caught, Err(ExecError::Gone)));
        assert!(matches!(s.submit(&update(&[150])), Err(ExecError::Gone)));
        assert!(matches!(e.audit_sum(), Err(ExecError::Gone)));
    }

    #[test]
    fn no_executor_thread_is_spawned() {
        let e = executor();
        assert!(e.session().submit(&update(&[150])).unwrap().committed);
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return; // not Linux: nothing to inspect
        };
        for task in tasks.flatten() {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            assert_ne!(comm.trim(), "islands-exec", "an executor thread exists");
        }
    }

    #[test]
    fn engine_mode_round_trips_its_labels() {
        for mode in [EngineMode::Locked, EngineMode::Serial] {
            assert_eq!(EngineMode::parse(mode.label()), Ok(mode));
        }
        assert!(EngineMode::parse("turbo").is_err());
        assert_eq!(EngineMode::default(), EngineMode::Locked);
    }

    #[test]
    fn shutdown_rolls_back_orphaned_branches() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.prepare(11, &update(&[160])), Ok(Vote::Yes)));
        // Leak the session (no close) and shut the executor down: the
        // branch must not survive as a committed write.
        std::mem::forget(s);
        e.shutdown();
    }

    fn tpcc_executor() -> PartitionExecutor {
        use super::super::engine::TpccPartition;
        PartitionExecutor::spawn(ExecutorConfig {
            partition: PartitionConfig {
                buffer_frames: 8192,
                tpcc: Some(TpccPartition {
                    warehouses: 2,
                    w_lo: 0,
                    w_hi: 1,
                }),
                ..Default::default()
            },
        })
        .unwrap()
    }

    #[test]
    fn serial_executor_runs_tpcc_plans() {
        use islands_workload::tpcc;
        let e = tpcc_executor();
        let s = e.session();
        let order = tpcc::NewOrder {
            w_id: 0,
            d_id: 2,
            c_id: 5,
            items: vec![10, 20],
        };
        let out = s.submit_plan(&order.plan(3)).unwrap();
        assert!(out.committed);
        // District + 2 stock updates + order insert.
        assert_eq!(e.audit_sum().unwrap(), 4);
    }

    #[test]
    fn parked_plan_branch_guards_its_dependent_reads_per_table() {
        use islands_workload::plan::{PlanClass, PlanRequest, PlanStep, StepOp, TPCC_CUSTOMER};
        use islands_workload::tpcc;
        let e = tpcc_executor();
        let s = e.session();
        // Remote-payment customer-side branch: dependent scan of customers
        // 16..20 plus the customer update, parked in-doubt.
        let branch = PlanRequest {
            class: PlanClass::Payment,
            multisite: true,
            steps: vec![
                PlanStep::range(TPCC_CUSTOMER, tpcc::customer_key(0, 1, 16), 4),
                PlanStep::point(TPCC_CUSTOMER, tpcc::customer_key(0, 1, 17), StepOp::Update),
            ],
        };
        assert!(matches!(s.prepare_plan(21, &branch), Ok(Vote::Yes)));
        // A plan touching a *scanned* row conflicts and aborts immediately.
        let scanned = PlanRequest {
            class: PlanClass::Generic,
            multisite: false,
            steps: vec![PlanStep::point(
                TPCC_CUSTOMER,
                tpcc::customer_key(0, 1, 19),
                StepOp::Update,
            )],
        };
        assert!(!s.submit_plan(&scanned).unwrap().committed);
        // The same row number in a *different table* does not conflict.
        let other_table = tpcc::NewOrder {
            w_id: 0,
            d_id: 1,
            c_id: 40,
            items: vec![19],
        };
        assert!(s.submit_plan(&other_table.plan(8)).unwrap().committed);
        // Decision releases the footprint.
        assert!(matches!(s.decide(21, true), Ok(DecideOutcome::Applied)));
        assert!(s.submit_plan(&scanned).unwrap().committed);
    }

    #[test]
    fn restart_replay_parks_branches_resolvable_through_decide() {
        let path = std::env::temp_dir().join(format!(
            "islands-exec-wal-{}-restart.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let partition = PartitionConfig {
            lo: 100,
            hi: 200,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        // First incarnation prepares a branch and "crashes" (the forgotten
        // handle never logs a decision, like kill -9 after Prepare-ack).
        {
            let eng = PartitionEngine::build(&PartitionConfig {
                single_threaded: true,
                ..partition.clone()
            })
            .unwrap();
            let BranchOutcome::Prepared(handle) = eng.prepare_branch(77, &update(&[150])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            std::mem::forget(handle);
        }
        let e2 = PartitionExecutor::spawn(ExecutorConfig { partition }).unwrap();
        assert_eq!(e2.recovered_gtids().unwrap(), vec![77]);
        let s = e2.session();
        // The recovered branch guards its key against new work.
        assert!(!s.submit(&update(&[150])).unwrap().committed);
        assert!(matches!(s.prepare(78, &update(&[150])), Ok(Vote::No)));
        // A normal decision resolves it through the executor.
        assert!(matches!(s.decide(77, true), Ok(DecideOutcome::Applied)));
        assert!(e2.recovered_gtids().unwrap().is_empty());
        assert_eq!(e2.audit_sum().unwrap(), 1);
        assert!(s.submit(&update(&[150])).unwrap().committed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn misrouted_plans_are_typed_errors_on_the_executor() {
        use islands_workload::tpcc;
        let e = tpcc_executor();
        let s = e.session();
        // Warehouse 1 belongs to the other instance.
        let foreign = tpcc::NewOrder {
            w_id: 1,
            d_id: 0,
            c_id: 0,
            items: vec![1],
        };
        assert!(matches!(
            s.submit_plan(&foreign.plan(1 << 32)),
            Err(ExecError::Storage(StorageError::KeyNotFound(_)))
        ));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }
}
