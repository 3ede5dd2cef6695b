//! In-process replays of a workload's own request stream (same seed, same
//! data size) through one layer at a time: codec, wire framing, routing,
//! B+-tree, the locked engine and its buffer pool, the serial executor, the
//! lock table, the WAL and the decision log. A single caller drives each,
//! so a layer's cost is measured without the others queueing in front of
//! it. Every timed call is recorded as a span; each metric is computed from
//! its spans.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_core::native::{
    DecideOutcome, ExecutorConfig, PartitionConfig, PartitionEngine, PartitionExecutor,
    TpccPartition,
};
use islands_dtxn::{DecisionLog, Vote};
use islands_server::{FrameReader, Request, WireMessage};
use islands_storage::btree::BTree;
use islands_storage::buffer::BufferPool;
use islands_storage::lock::{Acquire, LockId, LockMode, LockTable};
use islands_storage::store::MemStore;
use islands_storage::wal::{FileLogDevice, LogDevice, LogManager, LogPayload, MemLogDevice};
use islands_storage::{InstanceOptions, TxnId};
use islands_workload::plan::{
    MICRO_TABLE, TPCC_CUSTOMER, TPCC_DISTRICT, TPCC_HISTORY, TPCC_ORDER, TPCC_STOCK, TPCC_WAREHOUSE,
};
use islands_workload::{tpcc, StepOp};

use crate::trace::Recorder;
use crate::workload::{Req, Spec, Workload, MICRO_ROW_SIZE};

/// How long each replay measures (sub-microsecond layers repeat passes over
/// the stream until it is spent).
const BUDGET: Duration = Duration::from_millis(300);
/// Unmeasured lead-in of the engine replay, so the buffer pool holds the
/// stream's working set before hits are counted.
const ENGINE_WARMUP: Duration = Duration::from_millis(300);
/// Retry budget of the replayed engine calls (the deployment default).
const RETRY_LIMIT: u32 = 64;

type Metrics = Vec<(&'static str, f64)>;

/// Replay `reqs` through every layer. `dir` holds the replay's files and
/// sits on the same filesystem as the deployment's WALs.
pub fn run_all(
    wl: &Workload,
    reqs: &[Req],
    dir: &Path,
    rec: &mut Recorder,
) -> Result<Metrics, String> {
    let root = {
        let now = rec.now_ns();
        rec.record("replay", 0, 0, now, now)
    };
    let mut m = Metrics::new();
    m.extend(codec(reqs, rec, root)?);
    m.extend(wire_frame(reqs, rec, root)?);
    m.push(("deploy.route_ns", route(wl, reqs, rec, root)));
    m.push(("btree.get_ns", btree(wl, reqs, rec, root)?));
    m.extend(engine(wl, reqs, rec, root)?);
    m.extend(executor(wl, reqs, rec, root)?);
    m.push(("lock.acquire_release_ns", lock(reqs, rec, root)?));
    m.extend(wal(reqs, dir, rec, root)?);
    m.push((
        "dtxn.decision_force_us",
        decision_force(reqs, dir, rec, root)?,
    ));
    Ok(m)
}

/// Repeat `pass` (which returns the operations it performed) as spans named
/// `name` until [`BUDGET`] is spent.
fn passes(rec: &mut Recorder, name: &'static str, root: u64, mut pass: impl FnMut() -> u64) {
    let until = Instant::now() + BUDGET;
    loop {
        rec.time_ops(name, root, &mut pass);
        if Instant::now() >= until {
            break;
        }
    }
}

/// Encode and decode each request (`workload::codec` / `workload::plan`).
fn codec(reqs: &[Req], rec: &mut Recorder, root: u64) -> Result<Metrics, String> {
    let mut buf = Vec::with_capacity(4096);
    for r in reqs {
        buf.clear();
        r.encode_into(&mut buf);
        if r.decode_like(&buf)? != *r {
            return Err("replay-codec: a request did not survive encode/decode".into());
        }
    }
    passes(rec, "replay.codec", root, || {
        for r in reqs {
            buf.clear();
            r.encode_into(&mut buf);
            let _ = black_box(r.decode_like(black_box(&buf)));
        }
        reqs.len() as u64
    });
    let bytes = reqs.iter().map(|r| r.encoded_len() as f64).sum::<f64>() / reqs.len().max(1) as f64;
    Ok(vec![
        ("workload.req_bytes", bytes),
        ("workload.codec_ns", rec.per_op_ns("replay.codec")),
    ])
}

/// Frame each request as the client sends it and reassemble it the way the
/// server's `FrameReader` does (`server::wire`).
fn wire_frame(reqs: &[Req], rec: &mut Recorder, root: u64) -> Result<Metrics, String> {
    let frames: Vec<Request> = reqs
        .iter()
        .map(|r| match r {
            Req::Micro(t) => Request::Submit(t.clone()),
            Req::Plan(p) => Request::SubmitPlan(p.clone()),
        })
        .collect();
    let mut reader = FrameReader::new();
    let mut buf = Vec::with_capacity(4096);
    let mut bad = false;
    passes(rec, "replay.wire.frame", root, || {
        for f in &frames {
            buf.clear();
            f.encode_frame(&mut buf);
            reader.extend(&buf);
            match reader.next_message::<Request>() {
                Ok(Some(m)) => {
                    black_box(m);
                }
                _ => bad = true,
            }
        }
        frames.len() as u64
    });
    if bad || reader.buffered() != 0 {
        return Err("replay-wire: a frame did not reassemble".into());
    }
    Ok(vec![("wire.frame_ns", rec.per_op_ns("replay.wire.frame"))])
}

/// Split each request by owning instance (`server::deploy`).
fn route(wl: &Workload, reqs: &[Req], rec: &mut Recorder, root: u64) -> f64 {
    passes(rec, "replay.deploy.route", root, || {
        for r in reqs {
            black_box(wl.route(black_box(r)));
        }
        reqs.len() as u64
    });
    rec.per_op_ns("replay.deploy.route")
}

/// Tables the TPC-C loader fills (history and order start empty).
const TPCC_LOADED: [u32; 4] = [TPCC_WAREHOUSE, TPCC_DISTRICT, TPCC_CUSTOMER, TPCC_STOCK];

/// One B+-tree key space for every loaded table: the table id above the
/// 40 bits TPC-C's packed keys need.
fn tagged(table: u32, key: u64) -> u64 {
    ((table as u64) << 40) | key
}

/// Every key the deployment loads, tagged, in ascending order.
fn loaded_keys(wl: &Workload) -> Vec<u64> {
    match &wl.spec {
        Spec::Micro { spec, .. } => (0..spec.total_rows)
            .map(|k| tagged(MICRO_TABLE, k))
            .collect(),
        Spec::Tpcc(t) => {
            let w_all = 0..t.warehouses;
            let mut keys: Vec<u64> = w_all.clone().map(|w| tagged(TPCC_WAREHOUSE, w)).collect();
            for w in w_all.clone() {
                for d in 0..tpcc::DISTRICTS_PER_WAREHOUSE {
                    keys.push(tagged(TPCC_DISTRICT, tpcc::district_key(w, d)));
                }
            }
            for w in w_all.clone() {
                for d in 0..tpcc::DISTRICTS_PER_WAREHOUSE {
                    for c in 0..tpcc::CUSTOMERS_PER_DISTRICT {
                        keys.push(tagged(TPCC_CUSTOMER, tpcc::customer_key(w, d, c)));
                    }
                }
            }
            for w in w_all {
                for s in 0..tpcc::STOCK_PER_WAREHOUSE {
                    keys.push(tagged(TPCC_STOCK, tpcc::stock_key(w, s)));
                }
            }
            keys
        }
    }
}

/// Look up the stream's keys in a B+-tree holding the workload's row count
/// (`storage::btree`).
fn btree(wl: &Workload, reqs: &[Req], rec: &mut Recorder, root: u64) -> Result<f64, String> {
    let pool = BufferPool::new(
        Arc::new(MemStore::new()),
        InstanceOptions::default().buffer_frames,
    );
    let tree = BTree::create(pool).map_err(|e| format!("replay-btree: {e}"))?;
    for k in loaded_keys(wl) {
        tree.insert(k, k)
            .map_err(|e| format!("replay-btree: {e}"))?;
    }
    let lookups: Vec<u64> = reqs
        .iter()
        .flat_map(Req::accesses)
        .filter(|a| a.table == MICRO_TABLE || TPCC_LOADED.contains(&a.table))
        .map(|a| tagged(a.table, a.key))
        .collect();
    let mut bad = false;
    passes(rec, "replay.btree.get", root, || {
        for &k in &lookups {
            if !matches!(tree.get(black_box(k)), Ok(Some(v)) if v == k) {
                bad = true;
            }
        }
        lookups.len() as u64
    });
    if bad {
        return Err("replay-btree: a loaded key was not found".into());
    }
    Ok(rec.per_op_ns("replay.btree.get"))
}

/// The deployment's partition shape over the workload's whole data set.
fn partition_cfg(wl: &Workload, wal: Option<PathBuf>) -> PartitionConfig {
    PartitionConfig {
        lo: 0,
        hi: wl.total_rows(),
        row_size: MICRO_ROW_SIZE,
        tpcc: match &wl.spec {
            Spec::Tpcc(t) => Some(TpccPartition {
                warehouses: t.warehouses,
                w_lo: 0,
                w_hi: t.warehouses,
            }),
            Spec::Micro { .. } => None,
        },
        wal,
        ..PartitionConfig::default()
    }
}

/// A fresh path under `dir` (an earlier file there would be replayed as a
/// previous incarnation's log).
fn fresh(dir: &Path, name: &str) -> Result<PathBuf, String> {
    let path = dir.join(name);
    match std::fs::remove_file(&path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("remove {}: {e}", path.display())),
    }
    Ok(path)
}

fn check_audit(layer: &str, before: u64, after: u64, writes: u64) -> Result<(), String> {
    if after.wrapping_sub(before) != writes {
        return Err(format!(
            "replay-audit: {layer} audit sum moved by {} for {writes} committed row writes",
            after.wrapping_sub(before)
        ));
    }
    Ok(())
}

/// Submit the stream to the locked engine, with the deployment's memory
/// log device and group-commit window (`core::native::engine`), and read
/// its buffer pool's counters (`storage::buffer`).
fn engine(wl: &Workload, reqs: &[Req], rec: &mut Recorder, root: u64) -> Result<Metrics, String> {
    let engine = PartitionEngine::build(&partition_cfg(wl, None))
        .map_err(|e| format!("replay-engine: {e}"))?;
    let audit0 = engine
        .audit_sum()
        .map_err(|e| format!("replay-engine: {e}"))?;
    let submit = |r: &Req| -> Result<(), String> {
        let out = match r {
            Req::Micro(t) => engine.submit_local(t, RETRY_LIMIT),
            Req::Plan(p) => engine.submit_plan_local(p, RETRY_LIMIT),
        };
        match out {
            Ok(o) if o.committed => Ok(()),
            Ok(_) => Err("replay-engine: a single caller's transaction aborted".into()),
            Err(e) => Err(format!("replay-engine: {e}")),
        }
    };
    let mut writes = 0u64;
    let mut rest = reqs.iter();
    let warm_until = Instant::now() + ENGINE_WARMUP;
    for r in rest.by_ref() {
        submit(r)?;
        writes += r.write_rows();
        if Instant::now() >= warm_until {
            break;
        }
    }
    let stats = &engine.instance().pool().stats;
    let counters = || {
        (
            stats.hits.load(Relaxed),
            stats.misses.load(Relaxed),
            stats.evictions.load(Relaxed),
        )
    };
    let (h0, m0, e0) = counters();
    let until = Instant::now() + BUDGET;
    for r in rest {
        let start = rec.now_ns();
        submit(r)?;
        let end = rec.now_ns();
        rec.record("replay.engine.txn", root, 0, start, end);
        writes += r.write_rows();
        if Instant::now() >= until {
            break;
        }
    }
    let (h1, m1, e1) = counters();
    let audit1 = engine
        .audit_sum()
        .map_err(|e| format!("replay-engine: {e}"))?;
    check_audit("engine", audit0, audit1, writes)?;
    let txns = rec.ops("replay.engine.txn").max(1) as f64;
    let (hits, misses) = ((h1 - h0) as f64, (m1 - m0) as f64);
    Ok(vec![
        ("engine.txn_us", rec.per_op_ns("replay.engine.txn") / 1e3),
        ("buffer.hit_pct", 100.0 * hits / (hits + misses).max(1.0)),
        ("buffer.evictions_per_txn", (e1 - e0) as f64 / txns),
    ])
}

/// Drive the serial executor through its session: local requests as
/// submits, multisite requests as a prepare and a commit decision
/// (`core::native::executor`), on the deployments' memory log device.
fn executor(wl: &Workload, reqs: &[Req], rec: &mut Recorder, root: u64) -> Result<Metrics, String> {
    let err = |e: &dyn std::fmt::Display| format!("replay-executor: {e}");
    let exec = PartitionExecutor::spawn(ExecutorConfig {
        partition: partition_cfg(wl, None),
        ..ExecutorConfig::default()
    })
    .map_err(|e| err(&e))?;
    let session = exec.session();
    let audit0 = exec.audit_sum().map_err(|e| err(&e))?;
    let mut writes = 0u64;
    let mut gtid = 0u64;
    let until = Instant::now() + BUDGET;
    for r in reqs {
        if r.multisite() {
            gtid += 1;
            let start = rec.now_ns();
            let vote = match r {
                Req::Micro(t) => session.prepare(gtid, t),
                Req::Plan(p) => session.prepare_plan(gtid, p),
            }
            .map_err(|e| err(&e))?;
            let mid = rec.now_ns();
            rec.record("replay.executor.prepare", root, 0, start, mid);
            match vote {
                Vote::Yes => {
                    let outcome = session.decide(gtid, true).map_err(|e| err(&e))?;
                    rec.record("replay.executor.decide", root, 0, mid, rec.now_ns());
                    if !matches!(outcome, DecideOutcome::Applied) {
                        return Err(err(&format!("commit decision not applied: {outcome:?}")));
                    }
                }
                Vote::ReadOnly => {}
                Vote::No => return Err(err(&"a single caller's branch voted no")),
            }
        } else {
            let start = rec.now_ns();
            let out = match r {
                Req::Micro(t) => session.submit(t),
                Req::Plan(p) => session.submit_plan(p),
            }
            .map_err(|e| err(&e))?;
            rec.record("replay.executor.txn", root, 0, start, rec.now_ns());
            if !out.committed {
                return Err(err(&"a single caller's transaction aborted"));
            }
        }
        writes += r.write_rows();
        if Instant::now() >= until {
            break;
        }
    }
    let audit1 = exec.audit_sum().map_err(|e| err(&e))?;
    check_audit("executor", audit0, audit1, writes)?;
    drop(session);
    exec.shutdown();
    Ok(vec![
        (
            "executor.txn_us",
            rec.per_op_ns("replay.executor.txn") / 1e3,
        ),
        (
            "executor.prepare_us",
            rec.per_op_ns("replay.executor.prepare") / 1e3,
        ),
        (
            "executor.decide_us",
            rec.per_op_ns("replay.executor.decide") / 1e3,
        ),
    ])
}

/// Acquire each request's locks the way a transaction does (intention lock
/// on the table, then the row) and release them all (`storage::lock`).
fn lock(reqs: &[Req], rec: &mut Recorder, root: u64) -> Result<f64, String> {
    let wanted: Vec<Vec<(LockId, LockMode)>> = reqs
        .iter()
        .map(|r| {
            r.accesses()
                .iter()
                .flat_map(|a| {
                    let write = matches!(a.op, StepOp::Update | StepOp::Insert);
                    let (table_mode, row_mode) = if write {
                        (LockMode::IX, LockMode::X)
                    } else {
                        (LockMode::IS, LockMode::S)
                    };
                    [
                        (LockId::Table(a.table), table_mode),
                        (LockId::Key(a.table, a.key), row_mode),
                    ]
                })
                .collect()
        })
        .collect();
    let mut table = LockTable::new();
    let mut txn = 0u64;
    let mut bad = false;
    passes(rec, "replay.lock", root, || {
        for locks in &wanted {
            txn += 1;
            for &(id, mode) in locks {
                bad |= table.acquire(TxnId(txn), id, mode) != Acquire::Granted;
            }
            black_box(table.release_all(TxnId(txn)));
        }
        wanted.len() as u64
    });
    if bad || table.active_locks() != 0 {
        return Err("replay-lock: an uncontended lock was not granted or not released".into());
    }
    Ok(rec.per_op_ns("replay.lock"))
}

/// Payload bytes of a row of `table`.
fn row_size(table: u32) -> usize {
    match table {
        TPCC_WAREHOUSE => tpcc::WAREHOUSE_ROW,
        TPCC_DISTRICT => tpcc::DISTRICT_ROW,
        TPCC_CUSTOMER => tpcc::CUSTOMER_ROW,
        TPCC_HISTORY => tpcc::HISTORY_ROW,
        TPCC_ORDER => tpcc::ORDER_ROW,
        TPCC_STOCK => tpcc::STOCK_ROW,
        _ => MICRO_ROW_SIZE,
    }
}

/// The log records a committing request appends: one per written row, then
/// the commit record. Read-only requests log nothing.
fn log_records(r: &Req) -> Vec<LogPayload> {
    let mut recs: Vec<LogPayload> = r
        .accesses()
        .iter()
        .filter_map(|a| {
            let n = row_size(a.table);
            match a.op {
                StepOp::Update => Some(LogPayload::Update {
                    table: a.table,
                    key: a.key,
                    before: vec![0; n],
                    after: vec![1; n],
                }),
                StepOp::Insert => Some(LogPayload::Insert {
                    table: a.table,
                    key: a.key,
                    data: vec![1; n],
                }),
                _ => None,
            }
        })
        .collect();
    if !recs.is_empty() {
        recs.push(LogPayload::Commit);
    }
    recs
}

/// Append the stream's log records, then commit them durably on the memory
/// and on the file device, with the engine's flush threshold and group
/// window (`storage::wal`).
fn wal(reqs: &[Req], dir: &Path, rec: &mut Recorder, root: u64) -> Result<Metrics, String> {
    let txns: Vec<Vec<LogPayload>> = reqs
        .iter()
        .map(log_records)
        .filter(|t| !t.is_empty())
        .collect();
    let opts = InstanceOptions::default();
    let manager = |device: Arc<dyn LogDevice>| {
        LogManager::new(device, opts.flush_threshold, opts.group_window)
    };

    let log = manager(MemLogDevice::new());
    let until = Instant::now() + BUDGET;
    for (i, t) in txns.iter().enumerate() {
        let start = rec.now_ns();
        for p in t {
            black_box(log.append(TxnId(i as u64 + 1), p));
        }
        rec.record_ops(
            "replay.wal.append",
            root,
            0,
            start,
            rec.now_ns(),
            t.len() as u64,
        );
        if Instant::now() >= until {
            break;
        }
    }
    log.shutdown();

    let mut commit = |name: &'static str, log: Arc<LogManager>| -> (u64, u64, u64) {
        let (b0, f0) = log.stats();
        let until = Instant::now() + BUDGET;
        let mut n = 0u64;
        for (i, t) in txns.iter().enumerate() {
            let start = rec.now_ns();
            let mut lsn = 0;
            for p in t {
                lsn = log.append(TxnId(i as u64 + 1), p);
            }
            log.commit_durable(lsn);
            rec.record(name, root, 0, start, rec.now_ns());
            n += 1;
            if Instant::now() >= until {
                break;
            }
        }
        let (b1, f1) = log.stats();
        log.shutdown();
        (n, b1 - b0, f1 - f0)
    };
    commit("replay.wal.commit.mem", manager(MemLogDevice::new()));
    let file =
        FileLogDevice::open(&fresh(dir, "replay.wal")?).map_err(|e| format!("replay-wal: {e}"))?;
    let (n, bytes, flushes) = commit("replay.wal.commit.file", manager(file));
    let per_txn = |x: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    Ok(vec![
        ("wal.append_ns", rec.per_op_ns("replay.wal.append")),
        (
            "wal.commit_us.mem",
            rec.per_op_ns("replay.wal.commit.mem") / 1e3,
        ),
        (
            "wal.commit_us.file",
            rec.per_op_ns("replay.wal.commit.file") / 1e3,
        ),
        ("wal.bytes_per_txn", per_txn(bytes)),
        ("wal.flushes_per_txn", per_txn(flushes)),
    ])
}

/// Force one commit decision per multisite request to a decision log in
/// `dir` (`dtxn::DecisionLog`).
fn decision_force(reqs: &[Req], dir: &Path, rec: &mut Recorder, root: u64) -> Result<f64, String> {
    let log = DecisionLog::open(&fresh(dir, "replay.decisions")?)
        .map_err(|e| format!("replay-dtxn: {e}"))?;
    let until = Instant::now() + BUDGET;
    for (gtid, _) in reqs.iter().filter(|r| r.multisite()).enumerate() {
        let start = rec.now_ns();
        log.force(gtid as u64 + 1, true)
            .map_err(|e| format!("replay-dtxn: {e}"))?;
        rec.record("replay.dtxn.force", root, 0, start, rec.now_ns());
        if Instant::now() >= until {
            break;
        }
    }
    Ok(rec.per_op_ns("replay.dtxn.force") / 1e3)
}
