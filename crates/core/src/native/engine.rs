//! Single-partition engine: one OS process's share of a shared-nothing
//! deployment.
//!
//! A [`PartitionEngine`] is one [`StorageInstance`] owning a contiguous key
//! sub-range `[lo, hi)` of the globally partitioned microbenchmark table.
//! The multi-process deployment (`islands-server`'s `deploy` module) spawns
//! one process per partition; each process serves its engine over the wire:
//!
//! * **Local transactions** (all keys inside the range) commit entirely here
//!   via [`submit_plan_local`](PartitionEngine::submit_plan_local), retrying
//!   contention aborts like [`NativeCluster::submit`](super::NativeCluster::submit).
//! * **Distributed branches** arrive as 2PC `PreparePlan` frames: the engine
//!   executes the branch's steps and runs participant-side phase 1
//!   ([`prepare_plan_branch`](PartitionEngine::prepare_plan_branch)), handing
//!   the prepared [`TxnHandle`] back to the session, which holds it in-doubt
//!   until the coordinator's decision (or presumes abort on connection
//!   loss).
//!
//! Plans are the only shape the engine executes: a micro batch
//! ([`TxnRequest`]) is lowered to its [`PlanRequest`] first.
//!
//! Keys stay **global**: the engine checks range membership instead of
//! translating, so a request routed to the wrong process is a typed error,
//! never a silent write to the wrong row.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use islands_storage::instance::{InDoubt, PrepareVote};
use islands_storage::store::MemStore;
use islands_storage::wal::{FileLogDevice, LogDevice, MemLogDevice};
use islands_storage::{InstanceOptions, StorageError, StorageInstance, TxnHandle};
use islands_workload::plan::{PlanRequest, PlanStep, StepOp};
use islands_workload::{tpcc, TxnRequest};

use super::{SubmitOutcome, MICRO_TABLE_NAME};

/// TPC-C mode for a partition: which warehouse sub-range `[w_lo, w_hi)` of
/// the `warehouses`-warehouse deployment this instance loads and owns.
#[derive(Debug, Clone)]
pub struct TpccPartition {
    /// Total warehouses across the whole deployment.
    pub warehouses: u64,
    /// First warehouse this partition owns (inclusive).
    pub w_lo: u64,
    /// One past the last warehouse this partition owns (exclusive).
    pub w_hi: u64,
}

/// Construction knobs for one partition's engine.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// First key this partition owns (inclusive).
    pub lo: u64,
    /// One past the last key this partition owns (exclusive).
    pub hi: u64,
    /// Payload bytes per row (first 8 bytes hold the audit counter).
    pub row_size: usize,
    /// Buffer-pool frames for the instance.
    pub buffer_frames: usize,
    /// 2PL lock-wait timeout.
    pub lock_timeout: Duration,
    /// One worker ⇒ skip locking (the paper's fine-grained optimization).
    pub single_threaded: bool,
    /// `Some` switches the partition from the microbenchmark table to the
    /// TPC-C tables (warehouse/district/customer/stock loaded for the
    /// warehouse range; history/order created empty). `lo`/`hi`/`row_size`
    /// are ignored in that mode.
    pub tpcc: Option<TpccPartition>,
    /// `Some(path)` puts the instance's WAL on a file instead of memory.
    /// When the file already holds log records from a previous incarnation,
    /// [`PartitionEngine::build`] replays them: committed work is redone,
    /// losers are undone, and prepared-but-undecided 2PC branches are parked
    /// back on the engine awaiting coordinator resolution.
    pub wal: Option<PathBuf>,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            lo: 0,
            hi: 10_000,
            row_size: 64,
            buffer_frames: 4096,
            lock_timeout: Duration::from_millis(200),
            single_threaded: false,
            tpcc: None,
            wal: None,
        }
    }
}

/// Participant-side outcome of executing and preparing one branch.
pub enum BranchOutcome {
    /// Executed, prepare record forced; the handle holds locks until the
    /// coordinator's decision arrives (pass it to [`TxnHandle::decide`]).
    Prepared(TxnHandle),
    /// Read-only branch: voted, released, excluded from phase 2.
    ReadOnly,
    /// Local execution or validation failed (lock timeout, deadlock); the
    /// branch rolled back and the participant votes No.
    No,
}

/// A 2PC branch surfaced by restart replay: prepared by the previous
/// incarnation, parked here until the coordinator's decision arrives (over
/// the wire or via startup resolution). Its key footprint blocks new
/// conflicting work exactly as the old incarnation's X locks did.
struct RecoveredBranch {
    branch: InDoubt,
    /// Footprint in plan-table-id space, comparable against
    /// [`PlanRequest::touches`].
    keys: Vec<(u32, u64)>,
    parked_at: Instant,
}

/// One shared-nothing partition: a storage instance plus its key range
/// (microbenchmark mode) or warehouse range (TPC-C mode).
pub struct PartitionEngine {
    inst: Arc<StorageInstance>,
    lo: u64,
    hi: u64,
    row_size: usize,
    tpcc: Option<TpccPartition>,
    /// In-doubt branches re-parked by restart replay, keyed by gtid.
    recovered: Mutex<HashMap<u64, RecoveredBranch>>,
}

impl PartitionEngine {
    /// Create the instance and load its share of the data: rows `lo..hi` of
    /// the micro table, or — in TPC-C mode — every table of warehouses
    /// `w_lo..w_hi` (keys are global in both modes).
    ///
    /// With [`PartitionConfig::wal`] set and prior log records on the file,
    /// this is a **restart**: the page store is volatile, so the partition
    /// is rebuilt fresh (the table-creation order below is deterministic,
    /// giving the same table ids the old incarnation logged under) and the
    /// old WAL is replayed over it — committed transactions redone, losers
    /// undone, surviving in-doubt branches parked for resolution via
    /// [`resolve_recovered`](Self::resolve_recovered).
    pub fn build(cfg: &PartitionConfig) -> Result<Self, StorageError> {
        // Capture the previous incarnation's log *before* the new instance
        // starts appending to the same device.
        let (device, prior): (Arc<dyn LogDevice>, Vec<u8>) = match &cfg.wal {
            None => (MemLogDevice::new(), Vec::new()),
            Some(path) => {
                let dev = FileLogDevice::open(path)?;
                let prior = dev.read_all()?;
                (dev, prior)
            }
        };
        let inst = StorageInstance::create(
            Arc::new(MemStore::new()),
            device,
            InstanceOptions {
                buffer_frames: cfg.buffer_frames,
                single_threaded: cfg.single_threaded,
                lock_timeout: cfg.lock_timeout,
                ..Default::default()
            },
        );
        match &cfg.tpcc {
            None => {
                assert!(cfg.lo < cfg.hi, "empty partition {}..{}", cfg.lo, cfg.hi);
                assert!(cfg.row_size >= 8, "rows hold an 8-byte audit counter");
                let table = inst.create_table(MICRO_TABLE_NAME, cfg.row_size)?;
                let payload = vec![0u8; cfg.row_size];
                for key in cfg.lo..cfg.hi {
                    inst.load_row(&table, key, &payload)?;
                }
            }
            Some(t) => {
                assert!(
                    t.w_lo < t.w_hi && t.w_hi <= t.warehouses,
                    "bad warehouse range {}..{} of {}",
                    t.w_lo,
                    t.w_hi,
                    t.warehouses
                );
                let warehouse = inst.create_table(tpcc::T_WAREHOUSE, tpcc::WAREHOUSE_ROW)?;
                let district = inst.create_table(tpcc::T_DISTRICT, tpcc::DISTRICT_ROW)?;
                let customer = inst.create_table(tpcc::T_CUSTOMER, tpcc::CUSTOMER_ROW)?;
                let stock = inst.create_table(tpcc::T_STOCK, tpcc::STOCK_ROW)?;
                // Append-only tables start empty; inserts create their rows.
                inst.create_table(tpcc::T_HISTORY, tpcc::HISTORY_ROW)?;
                inst.create_table(tpcc::T_ORDER, tpcc::ORDER_ROW)?;
                let w_row = vec![0u8; tpcc::WAREHOUSE_ROW];
                let d_row = vec![0u8; tpcc::DISTRICT_ROW];
                let c_row = vec![0u8; tpcc::CUSTOMER_ROW];
                let s_row = vec![0u8; tpcc::STOCK_ROW];
                for w in t.w_lo..t.w_hi {
                    inst.load_row(&warehouse, w, &w_row)?;
                    for d in 0..tpcc::DISTRICTS_PER_WAREHOUSE {
                        inst.load_row(&district, tpcc::district_key(w, d), &d_row)?;
                        for c in 0..tpcc::CUSTOMERS_PER_DISTRICT {
                            inst.load_row(&customer, tpcc::customer_key(w, d, c), &c_row)?;
                        }
                    }
                    for s in 0..tpcc::STOCK_PER_WAREHOUSE {
                        inst.load_row(&stock, tpcc::stock_key(w, s), &s_row)?;
                    }
                }
            }
        }
        let engine = PartitionEngine {
            inst,
            lo: cfg.lo,
            hi: cfg.hi,
            row_size: cfg.row_size,
            tpcc: cfg.tpcc.clone(),
            recovered: Mutex::new(HashMap::new()),
        };
        if prior.is_empty() {
            engine.inst.checkpoint()?;
        } else {
            // Restart path: replay instead of checkpointing, so a crash
            // during this build leaves the old log intact for the next try.
            let started = Instant::now();
            let in_doubt = engine.inst.replay_log(&prior)?;
            let metrics = islands_obs::metrics();
            let mut map = engine.recovered_map();
            for branch in in_doubt {
                let keys = engine.plan_space_keys(&branch);
                metrics.in_doubt().inc();
                map.insert(
                    branch.gtid,
                    RecoveredBranch {
                        branch,
                        keys,
                        parked_at: started,
                    },
                );
            }
            drop(map);
            metrics.record_recovery(started.elapsed().as_nanos() as u64);
        }
        Ok(engine)
    }

    /// Poison-tolerant access to the recovered-branch map (a panicked
    /// session thread must not wedge recovery resolution).
    fn recovered_map(&self) -> MutexGuard<'_, HashMap<u64, RecoveredBranch>> {
        self.recovered.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Translate a recovered branch's catalog-table-id footprint into
    /// plan-table-id space so it compares against incoming requests. An
    /// unknown catalog id keeps its raw value — at worst a false conflict,
    /// never a missed one.
    fn plan_space_keys(&self, branch: &InDoubt) -> Vec<(u32, u64)> {
        use islands_workload::plan as p;
        branch
            .keys()
            .into_iter()
            .map(|(cat_id, key)| {
                let plan_id = match self.inst.table_by_id(cat_id) {
                    Some(t) => match t.name.as_str() {
                        MICRO_TABLE_NAME => p::MICRO_TABLE,
                        tpcc::T_WAREHOUSE => p::TPCC_WAREHOUSE,
                        tpcc::T_DISTRICT => p::TPCC_DISTRICT,
                        tpcc::T_CUSTOMER => p::TPCC_CUSTOMER,
                        tpcc::T_HISTORY => p::TPCC_HISTORY,
                        tpcc::T_ORDER => p::TPCC_ORDER,
                        tpcc::T_STOCK => p::TPCC_STOCK,
                        _ => cat_id,
                    },
                    None => cat_id,
                };
                (plan_id, key)
            })
            .collect()
    }

    /// Gtids of in-doubt branches parked by restart replay, still awaiting
    /// a decision (sorted for deterministic resolution order).
    pub fn recovered_gtids(&self) -> Vec<u64> {
        let mut gtids: Vec<u64> = self.recovered_map().keys().copied().collect();
        gtids.sort_unstable();
        gtids
    }

    /// Whether any parked recovered branch's footprint intersects `plan`'s
    /// rows. Nothing is allocated, and an empty parked set answers at once.
    fn recovered_conflict(&self, plan: &PlanRequest) -> bool {
        let map = self.recovered_map();
        map.values()
            .any(|rb| rb.keys.iter().any(|&(t, k)| plan.touches(t, k)))
    }

    /// Apply the coordinator's decision to a branch parked by restart
    /// replay: redo its operations on commit, its undo images on abort.
    /// Returns `Ok(false)` when no recovered branch holds `gtid` (the
    /// normal case once resolution has drained).
    pub fn resolve_recovered(&self, gtid: u64, commit: bool) -> Result<bool, StorageError> {
        let Some(rb) = self.recovered_map().remove(&gtid) else {
            return Ok(false);
        };
        if let Err(e) = self.inst.resolve_in_doubt(&rb.branch, commit) {
            // Leave the branch parked so a later retry can still decide it.
            self.recovered_map().insert(gtid, rb);
            return Err(e);
        }
        let metrics = islands_obs::metrics();
        metrics.in_doubt().dec();
        metrics.record_parked(rb.parked_at.elapsed().as_nanos() as u64);
        metrics.record_in_doubt_resolved(commit);
        Ok(true)
    }

    /// The key range `[lo, hi)` this partition owns.
    pub fn range(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// Whether `key` belongs to this partition.
    pub fn owns(&self, key: u64) -> bool {
        (self.lo..self.hi).contains(&key)
    }

    /// The underlying storage instance (tests, stats).
    pub fn instance(&self) -> &Arc<StorageInstance> {
        &self.inst
    }

    /// Register this partition into a deployment-wide `lockcheck` ownership
    /// scope (debug builds with `--features lockcheck` only).
    #[cfg(feature = "lockcheck")]
    pub fn set_lockcheck_scope(&self, scope: Arc<islands_storage::lockcheck::Scope>) {
        self.inst.set_lockcheck_scope(scope);
    }

    /// Execute a fully-local micro batch: its plan lowering through
    /// [`submit_plan_local`](Self::submit_plan_local).
    pub fn submit_local(
        &self,
        req: &TxnRequest,
        retry_limit: u32,
    ) -> Result<SubmitOutcome, StorageError> {
        self.submit_plan_local(&req.into(), retry_limit)
    }

    /// Execute one micro 2PC branch and run participant phase 1: its plan
    /// lowering through [`prepare_plan_branch`](Self::prepare_plan_branch).
    pub fn prepare_branch(
        &self,
        gtid: u64,
        req: &TxnRequest,
    ) -> Result<BranchOutcome, StorageError> {
        self.prepare_plan_branch(gtid, &req.into())
    }

    /// Catalog name and row width for a plan table id under this engine's
    /// mode; table ids from the other mode (or unknown ids) are typed
    /// errors, so a plan routed at the wrong kind of deployment can never
    /// touch a row.
    fn plan_table(&self, table: u32) -> Result<(&'static str, usize), StorageError> {
        use islands_workload::plan as p;
        match (&self.tpcc, table) {
            (None, p::MICRO_TABLE) => Ok((MICRO_TABLE_NAME, self.row_size)),
            (Some(_), p::TPCC_WAREHOUSE) => Ok((tpcc::T_WAREHOUSE, tpcc::WAREHOUSE_ROW)),
            (Some(_), p::TPCC_DISTRICT) => Ok((tpcc::T_DISTRICT, tpcc::DISTRICT_ROW)),
            (Some(_), p::TPCC_CUSTOMER) => Ok((tpcc::T_CUSTOMER, tpcc::CUSTOMER_ROW)),
            (Some(_), p::TPCC_HISTORY) => Ok((tpcc::T_HISTORY, tpcc::HISTORY_ROW)),
            (Some(_), p::TPCC_ORDER) => Ok((tpcc::T_ORDER, tpcc::ORDER_ROW)),
            (Some(_), p::TPCC_STOCK) => Ok((tpcc::T_STOCK, tpcc::STOCK_ROW)),
            (_, t) => Err(StorageError::NoSuchTable(format!(
                "plan table id {t} not served by this partition"
            ))),
        }
    }

    /// Whether every row `step` covers belongs to this partition.
    fn owns_step(&self, step: &PlanStep) -> bool {
        (0..step.rows()).all(|i| {
            let key = step.key.wrapping_add(i);
            match &self.tpcc {
                None => step.table == islands_workload::plan::MICRO_TABLE && self.owns(key),
                Some(t) => matches!(
                    tpcc::warehouse_of_table(step.table, key),
                    Some(w) if (t.w_lo..t.w_hi).contains(&w)
                ),
            }
        })
    }

    /// Reject plans this partition can never satisfy: an unknown/foreign
    /// table id or any row outside the owned range — typed errors before a
    /// single operation runs, so a misrouted request never touches a row.
    pub(crate) fn check_plan(&self, plan: &PlanRequest) -> Result<(), StorageError> {
        for step in &plan.steps {
            self.plan_table(step.table)?;
            if !self.owns_step(step) {
                return Err(StorageError::KeyNotFound(step.key));
            }
        }
        Ok(())
    }

    /// Run a plan's steps inside `txn`: reads fetch, updates bump the audit
    /// counter, inserts create a fresh audited row, range reads fetch each
    /// covered row in order (the dependent-read shape).
    fn run_plan(&self, txn: &mut TxnHandle, plan: &PlanRequest) -> Result<(), StorageError> {
        for step in &plan.steps {
            let (name, width) = self.plan_table(step.table)?;
            match step.op {
                StepOp::Read => {
                    txn.read(name, step.key)?
                        .ok_or(StorageError::KeyNotFound(step.key))?;
                }
                StepOp::Update => {
                    let mut row = txn
                        .read(name, step.key)?
                        .ok_or(StorageError::KeyNotFound(step.key))?;
                    let v = super::audit_counter(&row) + 1;
                    row[..8].copy_from_slice(&v.to_le_bytes());
                    txn.update(name, step.key, &row)?;
                }
                StepOp::Insert => {
                    // A freshly inserted row counts itself: audit_sum equals
                    // committed row writes (updates + inserts) either way.
                    let mut row = vec![0u8; width];
                    row[..8].copy_from_slice(&1u64.to_le_bytes());
                    txn.insert(name, step.key, &row)?;
                }
                StepOp::RangeRead => {
                    for i in 0..step.span as u64 {
                        let key = step.key.wrapping_add(i);
                        txn.read(name, key)?.ok_or(StorageError::KeyNotFound(key))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Execute a fully-local multi-step plan to completion, retrying
    /// contention aborts up to `retry_limit` times. `Err` only for plans
    /// this partition can never satisfy (see `check_plan`).
    pub fn submit_plan_local(
        &self,
        plan: &PlanRequest,
        retry_limit: u32,
    ) -> Result<SubmitOutcome, StorageError> {
        self.check_plan(plan)?;
        let mut retries = 0u32;
        loop {
            // A recovered in-doubt branch covering one of our rows is a
            // contention abort, not an error: the branch resolves soon, so
            // raced submits retry under the normal backoff.
            if self.recovered_conflict(plan) {
                if retries >= retry_limit {
                    return Ok(SubmitOutcome {
                        committed: false,
                        distributed: false,
                        retries,
                    });
                }
                retries += 1;
                super::contention_backoff(retries);
                continue;
            }
            let mut txn = self.inst.begin();
            let attempt = self.run_plan(&mut txn, plan).and_then(|()| txn.commit());
            match attempt {
                Ok(()) => {
                    return Ok(SubmitOutcome {
                        committed: true,
                        distributed: false,
                        retries,
                    })
                }
                Err(StorageError::Deadlock(_))
                | Err(StorageError::LockTimeout(_))
                | Err(StorageError::MustAbort(_)) => {
                    if retries >= retry_limit {
                        return Ok(SubmitOutcome {
                            committed: false,
                            distributed: false,
                            retries,
                        });
                    }
                    retries += 1;
                    super::contention_backoff(retries);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Execute one plan branch and run participant phase 1: force the
    /// prepare record and vote. Contention failures abort the branch locally
    /// and vote No (the coordinator retries the whole global transaction);
    /// `Err` is reserved for misrouted branches. Dependent reads (range
    /// scans) run *before* the prepare record is forced, so a parked branch
    /// holds their S locks alongside its write locks until the decision.
    pub fn prepare_plan_branch(
        &self,
        gtid: u64,
        plan: &PlanRequest,
    ) -> Result<BranchOutcome, StorageError> {
        self.check_plan(plan)?;
        // Rows claimed by a recovered in-doubt branch are as locked as the
        // old incarnation left them: vote No, the coordinator retries.
        if self.recovered_conflict(plan) {
            return Ok(BranchOutcome::No);
        }
        let mut txn = self.inst.begin();
        if self.run_plan(&mut txn, plan).is_err() {
            let _ = txn.abort();
            return Ok(BranchOutcome::No);
        }
        match txn.prepare(gtid) {
            Ok(PrepareVote::Yes) => Ok(BranchOutcome::Prepared(txn)),
            Ok(PrepareVote::ReadOnly) => Ok(BranchOutcome::ReadOnly),
            Err(_) => {
                let _ = txn.abort();
                Ok(BranchOutcome::No)
            }
        }
    }

    /// Sum of the audit counters across this partition's rows — every table
    /// in TPC-C mode — equal to the number of committed row writes (updates
    /// plus inserts) applied here.
    pub fn audit_sum(&self) -> Result<u64, StorageError> {
        let names: &[&str] = match &self.tpcc {
            None => &[MICRO_TABLE_NAME],
            Some(_) => &[
                tpcc::T_WAREHOUSE,
                tpcc::T_DISTRICT,
                tpcc::T_CUSTOMER,
                tpcc::T_STOCK,
                tpcc::T_HISTORY,
                tpcc::T_ORDER,
            ],
        };
        let mut sum = 0u64;
        for name in names {
            let table = self.inst.table(name)?;
            for (_, payload) in table.range(0, u64::MAX)? {
                sum += super::audit_counter(&payload);
            }
        }
        Ok(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::OpKind;

    fn engine() -> PartitionEngine {
        PartitionEngine::build(&PartitionConfig {
            lo: 100,
            hi: 200,
            row_size: 16,
            buffer_frames: 256,
            ..Default::default()
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
    fn local_submit_commits_inside_the_range() {
        let e = engine();
        let out = e.submit_local(&update(&[100, 150, 199]), 4).unwrap();
        assert!(out.committed);
        assert!(!out.distributed);
        assert_eq!(e.audit_sum().unwrap(), 3);
    }

    #[test]
    fn keys_outside_the_range_are_errors_not_writes() {
        let e = engine();
        assert!(matches!(
            e.submit_local(&update(&[99]), 4),
            Err(StorageError::KeyNotFound(99))
        ));
        assert!(matches!(
            e.prepare_branch(1, &update(&[200])),
            Err(StorageError::KeyNotFound(200))
        ));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn prepared_branch_holds_locks_until_decision() {
        let e = engine();
        let BranchOutcome::Prepared(handle) = e.prepare_branch(7, &update(&[110])).unwrap() else {
            panic!("writer branch must prepare");
        };
        // The prepared branch holds an X lock: a conflicting local submit
        // exhausts its (zero) retry budget and reports not-committed.
        let blocked = e.submit_local(&update(&[110]), 0).unwrap();
        assert!(!blocked.committed);
        handle.decide(true).unwrap();
        assert_eq!(e.audit_sum().unwrap(), 1);
        // Locks released: the same submit now commits.
        assert!(e.submit_local(&update(&[110]), 0).unwrap().committed);
    }

    #[test]
    fn abort_decision_undoes_the_branch() {
        let e = engine();
        let BranchOutcome::Prepared(handle) = e.prepare_branch(8, &update(&[120])).unwrap() else {
            panic!("writer branch must prepare");
        };
        handle.decide(false).unwrap();
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn read_only_branch_skips_phase_two() {
        let e = engine();
        let req = TxnRequest {
            kind: OpKind::Read,
            keys: vec![150],
            multisite: true,
        };
        assert!(matches!(
            e.prepare_branch(9, &req).unwrap(),
            BranchOutcome::ReadOnly
        ));
    }

    fn tpcc_engine() -> PartitionEngine {
        // Instance owning warehouse 2 of a 4-warehouse deployment.
        PartitionEngine::build(&PartitionConfig {
            buffer_frames: 8192,
            tpcc: Some(TpccPartition {
                warehouses: 4,
                w_lo: 2,
                w_hi: 3,
            }),
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn tpcc_local_payment_plan_commits_and_audits() {
        let e = tpcc_engine();
        let p = tpcc::Payment {
            w_id: 2,
            d_id: 5,
            c_w_id: 2,
            c_d_id: 5,
            c_id: 17,
            amount: 9,
        };
        let plan = p.plan((2 << 32) | 1, true);
        let out = e.submit_plan_local(&plan, 4).unwrap();
        assert!(out.committed);
        // W + D + C updates + history insert, scan reads add nothing.
        assert_eq!(e.audit_sum().unwrap(), 4);
        // Same history key again: a typed duplicate, not a retry loop.
        assert!(matches!(
            e.submit_plan_local(&plan, 4),
            Err(StorageError::DuplicateKey(_))
        ));
    }

    #[test]
    fn tpcc_neworder_plan_commits_and_audits() {
        let e = tpcc_engine();
        let o = tpcc::NewOrder {
            w_id: 2,
            d_id: 0,
            c_id: 100,
            items: vec![1, 2, 3, 4, 5],
        };
        let out = e.submit_plan_local(&o.plan((2 << 32) | 7), 4).unwrap();
        assert!(out.committed);
        // District + 5 stock updates + order insert.
        assert_eq!(e.audit_sum().unwrap(), 7);
    }

    #[test]
    fn misrouted_and_foreign_plans_are_typed_errors() {
        let e = tpcc_engine();
        // Warehouse 1 lives elsewhere.
        let foreign = tpcc::Payment {
            w_id: 1,
            d_id: 0,
            c_w_id: 1,
            c_d_id: 0,
            c_id: 0,
            amount: 1,
        }
        .plan(1 << 32, false);
        assert!(matches!(
            e.submit_plan_local(&foreign, 0),
            Err(StorageError::KeyNotFound(_))
        ));
        // A micro-table plan against a TPC-C partition (and vice versa) is a
        // catalog error before any row is touched.
        let micro_plan = islands_workload::plan::PlanRequest {
            class: islands_workload::plan::PlanClass::Generic,
            multisite: false,
            steps: vec![PlanStep::point(
                islands_workload::plan::MICRO_TABLE,
                0,
                StepOp::Update,
            )],
        };
        assert!(matches!(
            e.submit_plan_local(&micro_plan, 0),
            Err(StorageError::NoSuchTable(_))
        ));
        let micro_engine = engine();
        let tpcc_plan = tpcc::NewOrder {
            w_id: 0,
            d_id: 0,
            c_id: 0,
            items: vec![1],
        }
        .plan(0);
        assert!(matches!(
            micro_engine.submit_plan_local(&tpcc_plan, 0),
            Err(StorageError::NoSuchTable(_))
        ));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn prepared_plan_branch_parks_with_its_dependent_reads() {
        let e = tpcc_engine();
        // Remote-payment branch at the customer side: dependent range read
        // plus the customer update, prepared and parked.
        let branch_plan = islands_workload::plan::PlanRequest {
            class: islands_workload::plan::PlanClass::Payment,
            multisite: true,
            steps: vec![
                PlanStep::range(
                    islands_workload::plan::TPCC_CUSTOMER,
                    tpcc::customer_key(2, 3, 16),
                    4,
                ),
                PlanStep::point(
                    islands_workload::plan::TPCC_CUSTOMER,
                    tpcc::customer_key(2, 3, 17),
                    StepOp::Update,
                ),
            ],
        };
        let BranchOutcome::Prepared(handle) = e.prepare_plan_branch(11, &branch_plan).unwrap()
        else {
            panic!("writer branch must prepare");
        };
        // The parked branch holds locks over the scanned rows too: a
        // conflicting update on a row the scan merely *read* cannot commit.
        let conflicting = islands_workload::plan::PlanRequest {
            class: islands_workload::plan::PlanClass::Generic,
            multisite: false,
            steps: vec![PlanStep::point(
                islands_workload::plan::TPCC_CUSTOMER,
                tpcc::customer_key(2, 3, 16),
                StepOp::Update,
            )],
        };
        let blocked = e.submit_plan_local(&conflicting, 0).unwrap();
        assert!(!blocked.committed, "scan lock must block the writer");
        handle.decide(true).unwrap();
        assert_eq!(e.audit_sum().unwrap(), 1);
        assert!(e.submit_plan_local(&conflicting, 0).unwrap().committed);
    }

    /// Unique scratch WAL path for one test (fresh per run).
    fn temp_wal(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "islands-engine-wal-{}-{}.log",
            std::process::id(),
            name
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn rebuild_over_the_wal_replays_and_parks_in_doubt_branches() {
        let path = temp_wal("rebuild");
        let cfg = PartitionConfig {
            lo: 100,
            hi: 200,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        {
            let e = PartitionEngine::build(&cfg).unwrap();
            assert!(e.recovered_gtids().is_empty());
            // Committed work that must survive the crash.
            assert!(e.submit_local(&update(&[110]), 0).unwrap().committed);
            // A prepared branch whose decision never arrives: forget the
            // handle so no abort is logged — exactly what kill -9 leaves.
            let BranchOutcome::Prepared(handle) = e.prepare_branch(42, &update(&[120])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            std::mem::forget(handle);
        }
        // "Restart": same config, same WAL file, fresh volatile store.
        let e2 = PartitionEngine::build(&cfg).unwrap();
        assert_eq!(e2.recovered_gtids(), vec![42]);
        // Committed update redone; the in-doubt write is withheld.
        assert_eq!(e2.audit_sum().unwrap(), 1);
        // The parked branch's footprint blocks new work on its row...
        assert!(!e2.submit_local(&update(&[120]), 0).unwrap().committed);
        assert!(matches!(
            e2.prepare_branch(43, &update(&[120])).unwrap(),
            BranchOutcome::No
        ));
        // ...but not elsewhere.
        assert!(e2.submit_local(&update(&[150]), 0).unwrap().committed);
        // Commit decision applies the branch; unknown gtids report false.
        assert!(e2.resolve_recovered(42, true).unwrap());
        assert!(!e2.resolve_recovered(42, true).unwrap());
        assert!(!e2.resolve_recovered(999, false).unwrap());
        assert_eq!(e2.audit_sum().unwrap(), 3);
        assert!(e2.submit_local(&update(&[120]), 0).unwrap().committed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn abort_resolution_discards_the_recovered_branch() {
        let path = temp_wal("abort");
        let cfg = PartitionConfig {
            lo: 0,
            hi: 50,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        {
            let e = PartitionEngine::build(&cfg).unwrap();
            let BranchOutcome::Prepared(handle) = e.prepare_branch(7, &update(&[10])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            std::mem::forget(handle);
        }
        let e2 = PartitionEngine::build(&cfg).unwrap();
        assert_eq!(e2.recovered_gtids(), vec![7]);
        assert!(e2.resolve_recovered(7, false).unwrap());
        assert_eq!(e2.audit_sum().unwrap(), 0);
        assert!(e2.recovered_gtids().is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
