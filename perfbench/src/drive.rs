//! Closed-loop load: each client is a caller that waits for its reply
//! before it sends the next request, like a TPC-C terminal. Clients keep
//! their request streams across phases (warm-up, measured windows), so one
//! seed yields one request sequence however the run is cut into phases.

use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_server::{DeployReply, Deployment};

use crate::trace::Recorder;
use crate::workload::{Req, Stream};

/// Outcomes of one phase, summed over its clients.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub committed_local: u64,
    pub committed_multi: u64,
    pub aborted: u64,
    /// Requests a participant rejected (`ServerError`).
    pub errors: u64,
    /// Requests refused because the owning instance was down.
    pub refused: u64,
    /// Audit-sum increments the committed requests applied.
    pub write_rows: u64,
    /// Coordinator- and server-side retry rounds (`DeployOutcome::retries`).
    pub retries: u64,
    /// Most retry rounds any one request took.
    pub max_retries: u32,
    /// Reply latency of committed requests, nanoseconds, per class.
    pub lat_local_ns: Vec<u64>,
    pub lat_multi_ns: Vec<u64>,
    /// Client threads that died (I/O error or panic), with the reason.
    pub client_failures: Vec<String>,
    pub elapsed: Duration,
}

impl Tally {
    pub fn committed(&self) -> u64 {
        self.committed_local + self.committed_multi
    }

    pub fn failed(&self) -> u64 {
        self.aborted + self.errors + self.refused
    }

    pub fn tps(&self) -> f64 {
        self.committed() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Fold another phase in (elapsed times add).
    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.committed_local += o.committed_local;
        self.committed_multi += o.committed_multi;
        self.aborted += o.aborted;
        self.errors += o.errors;
        self.refused += o.refused;
        self.write_rows += o.write_rows;
        self.retries += o.retries;
        self.max_retries = self.max_retries.max(o.max_retries);
        self.lat_local_ns.extend(o.lat_local_ns);
        self.lat_multi_ns.extend(o.lat_multi_ns);
        self.client_failures.extend(o.client_failures);
        self.elapsed += o.elapsed;
    }

    /// Mean reply latency of committed requests of one class, in µs.
    pub fn mean_us(lat_ns: &[u64]) -> f64 {
        if lat_ns.is_empty() {
            0.0
        } else {
            lat_ns.iter().sum::<u64>() as f64 / lat_ns.len() as f64 / 1_000.0
        }
    }
}

/// Run every client for `secs` against `dep`. Each client opens its own
/// coordinator connection set for the phase and closes it at the end, so
/// between phases no load connection stays open. With `trace` set, each
/// request records spans (`txn` ⊃ `workload.next`, `deploy.submit`) into
/// a per-client [`Recorder`] that is returned alongside the tally.
pub fn run_phase(
    dep: &Arc<Deployment>,
    streams: &mut [Stream],
    secs: f64,
    trace: Option<Instant>,
) -> (Tally, Vec<Recorder>) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let results: Vec<(Tally, Option<Recorder>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(i, stream)| {
                let dep = Arc::clone(dep);
                let rec = trace.map(|epoch| Recorder::new(epoch, i as u64 + 1));
                scope.spawn(move || client_loop(&dep, stream, deadline, rec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let t = Tally {
                        client_failures: vec!["client thread panicked".into()],
                        ..Tally::default()
                    };
                    (t, None)
                })
            })
            .collect()
    });
    let mut total = Tally::default();
    let mut recorders = Vec::new();
    for (t, rec) in results {
        total.absorb(t);
        recorders.extend(rec);
    }
    total.elapsed = started.elapsed();
    (total, recorders)
}

fn client_loop(
    dep: &Arc<Deployment>,
    stream: &mut Stream,
    deadline: Instant,
    mut rec: Option<Recorder>,
) -> (Tally, Option<Recorder>) {
    let mut t = Tally::default();
    let mut client = match dep.client() {
        Ok(c) => c,
        Err(e) => {
            t.client_failures.push(format!("connect: {e}"));
            return (t, rec);
        }
    };
    while Instant::now() < deadline {
        let gen_start = rec.as_ref().map(Recorder::now_ns);
        let req = stream.next_req();
        let gen_end = rec.as_ref().map(Recorder::now_ns);
        let sent = Instant::now();
        let reply = match &req {
            Req::Micro(r) => client.submit(r),
            Req::Plan(p) => client.submit_plan(p),
        };
        let latency = sent.elapsed();
        if let (Some(r), Some(g0), Some(g1)) = (rec.as_mut(), gen_start, gen_end) {
            let end = r.now_ns();
            let req_id = r.fresh_id();
            let root = r.record("txn", 0, req_id, g0, end);
            r.record("workload.next", root, req_id, g0, g1);
            r.record("deploy.submit", root, req_id, g1, end);
        }
        t.attempted += 1;
        match reply {
            Err(e) => {
                t.client_failures.push(format!("submit: {e}"));
                break;
            }
            Ok(DeployReply::Outcome(o)) => {
                t.retries += o.retries as u64;
                t.max_retries = t.max_retries.max(o.retries);
                if o.committed {
                    t.write_rows += req.write_rows();
                    let ns = latency.as_nanos() as u64;
                    if req.multisite() {
                        t.committed_multi += 1;
                        t.lat_multi_ns.push(ns);
                    } else {
                        t.committed_local += 1;
                        t.lat_local_ns.push(ns);
                    }
                } else {
                    t.aborted += 1;
                }
            }
            Ok(DeployReply::ServerError(_)) => t.errors += 1,
            Ok(DeployReply::InstanceDown(_)) => t.refused += 1,
        }
    }
    (t, rec)
}
