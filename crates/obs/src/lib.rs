//! Lock-free observability for running islands deployments.
//!
//! The paper's core diagnostic instrument is the per-transaction time
//! breakdown of Figure 11 (xct execution / locking / logging /
//! communication / xct management). This crate makes that breakdown — plus
//! latency histograms and queue/2PC gauges — available *online*, from a
//! live serving process, at a cost low enough for the serial-executor hot
//! loop:
//!
//! * [`Counter`] — a sharded relaxed-atomic counter: each thread increments
//!   its own cache-line-padded shard, reads sum all shards.
//! * [`Gauge`] — a single relaxed-atomic level (queue depths, in-flight).
//! * [`hist::Hist`] — a log-bucketed (HDR-style, 2 buckets per octave over
//!   1 µs – 10 s) latency histogram with mergeable snapshots.
//! * [`phase`] — scoped phase spans that partition wall time across the
//!   five Figure 11 categories per transaction class (local / multisite),
//!   with nesting: entering an inner phase pauses attribution to the outer
//!   one, so the categories sum to measured time instead of overlapping.
//! * [`Snapshot`] — a point-in-time copy of the whole registry: mergeable
//!   across instances, encodable for the `StatsReply` wire frame, and
//!   printable as `islands-obs/1` JSON.
//!
//! Everything hangs off one process-global [`Metrics`] registry
//! ([`metrics()`]) so instrumentation points need no plumbing. The whole
//! registry sits behind a relaxed [`enabled`] flag: when disabled
//! (`--no-obs`), every instrumentation site reduces to one relaxed load —
//! no clock reads, no atomic RMWs.
//!
//! There are intentionally **no locks anywhere in this crate** (enforced by
//! `islands-check lint`): a metrics layer that can block is a metrics layer
//! that perturbs the system it observes.

#![forbid(unsafe_code)]

pub mod hist;
pub mod phase;
pub mod snapshot;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

pub use hist::{Hist, HistSnapshot, BUCKETS};
pub use phase::{enter, set_txn_class, txn_class, PhaseGuard};
pub use snapshot::Snapshot;

/// The five cost categories of the paper's Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownCategory {
    /// Row access work: index probes, reads, writes.
    XctExecution,
    /// Lock manager work and lock waits.
    Locking,
    /// Log inserts and commit-durability waits.
    Logging,
    /// Message send/receive and in-flight time.
    Communication,
    /// Begin/finish bookkeeping, 2PC state machines, dispatch.
    XctManagement,
}

impl BreakdownCategory {
    pub const ALL: [BreakdownCategory; 5] = [
        BreakdownCategory::XctExecution,
        BreakdownCategory::Locking,
        BreakdownCategory::Logging,
        BreakdownCategory::Communication,
        BreakdownCategory::XctManagement,
    ];

    pub fn label(self) -> &'static str {
        match self {
            BreakdownCategory::XctExecution => "xct execution",
            BreakdownCategory::Locking => "locking",
            BreakdownCategory::Logging => "logging",
            BreakdownCategory::Communication => "communication",
            BreakdownCategory::XctManagement => "xct management",
        }
    }

    /// Stable index into per-category arrays (and the snapshot codec).
    pub fn index(self) -> usize {
        match self {
            BreakdownCategory::XctExecution => 0,
            BreakdownCategory::Locking => 1,
            BreakdownCategory::Logging => 2,
            BreakdownCategory::Communication => 3,
            BreakdownCategory::XctManagement => 4,
        }
    }

    /// Short machine-readable key (JSON field stems).
    pub fn key(self) -> &'static str {
        match self {
            BreakdownCategory::XctExecution => "execution",
            BreakdownCategory::Locking => "locking",
            BreakdownCategory::Logging => "logging",
            BreakdownCategory::Communication => "communication",
            BreakdownCategory::XctManagement => "management",
        }
    }
}

/// Number of breakdown categories.
pub const NCATS: usize = 5;

/// Accumulated **picoseconds** per category: the shared accumulator behind
/// `core::metrics` — the simulator runtime bills virtual time here, real
/// runtimes bill wall time (×1000 from ns). Relaxed atomics, so one
/// breakdown can be shared across executor threads (the `Cell` version it
/// replaces could not leave its thread).
#[derive(Debug, Default)]
pub struct Breakdown {
    cats: [AtomicU64; NCATS],
}

impl Breakdown {
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Breakdown {
            cats: [ZERO; NCATS],
        }
    }

    #[inline]
    pub fn add(&self, cat: BreakdownCategory, ps: u64) {
        self.cats[cat.index()].fetch_add(ps, Relaxed);
    }

    pub fn get(&self, cat: BreakdownCategory) -> u64 {
        self.cats[cat.index()].load(Relaxed)
    }

    pub fn total_ps(&self) -> u64 {
        BreakdownCategory::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Per-transaction microseconds for each category.
    pub fn per_txn_us(&self, txns: u64) -> Vec<(BreakdownCategory, f64)> {
        let n = txns.max(1) as f64;
        BreakdownCategory::ALL
            .iter()
            .map(|&c| (c, self.get(c) as f64 / n / 1e6))
            .collect()
    }
}

impl Clone for Breakdown {
    fn clone(&self) -> Self {
        let b = Breakdown::new();
        for cat in BreakdownCategory::ALL {
            b.cats[cat.index()].store(self.get(cat), Relaxed);
        }
        b
    }
}

/// The transaction classes the paper's served comparisons split on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnClass {
    /// Single-site: executes entirely on one instance.
    Local,
    /// Multisite: spans instances, coordinated by 2PC.
    Multisite,
}

impl TxnClass {
    pub const ALL: [TxnClass; 2] = [TxnClass::Local, TxnClass::Multisite];

    pub fn index(self) -> usize {
        match self {
            TxnClass::Local => 0,
            TxnClass::Multisite => 1,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            TxnClass::Local => "local",
            TxnClass::Multisite => "multisite",
        }
    }
}

/// Number of transaction classes.
pub const NCLASSES: usize = 2;

/// Shards per counter. Eight covers the thread counts a single instance
/// runs (session threads plus a few helpers) without false sharing mattering.
pub const NSHARDS: usize = 8;

/// One cache line so two shards never share one.
#[repr(align(64))]
struct Pad(AtomicU64);

impl Pad {
    const fn new() -> Self {
        Pad(AtomicU64::new(0))
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// This thread's home shard (assigned round-robin at first use).
#[inline]
fn shard() -> usize {
    thread_local! {
        static SHARD: usize = NEXT_SHARD.fetch_add(1, Relaxed) % NSHARDS;
    }
    SHARD.with(|s| *s)
}

/// A sharded relaxed-atomic counter: increments touch only the calling
/// thread's cache-line-padded shard, so the hot path never bounces a line
/// between executor threads. Reads sum all shards (approximate under
/// concurrent increments, exact once writers quiesce — fine for metrics).
pub struct Counter {
    shards: [Pad; NSHARDS],
}

impl Counter {
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // template for array init
        const ZERO: Pad = Pad::new();
        Counter {
            shards: [ZERO; NSHARDS],
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard()].0.fetch_add(n, Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Relaxed)).sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A level that moves both ways (queue depth, in-flight branches). Single
/// atomic: gauges are updated once per wait or branch, not per row.
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Saturating: a stray extra `dec` reads as zero, not u64::MAX.
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)));
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// The process-global registry: every instrument the serving stack records
/// into, all const-initialized atomics (no lazy-init branch on the hot
/// path).
pub struct Metrics {
    enabled: AtomicBool,
    /// Nanoseconds attributed per `[class][category]` by phase spans.
    phase_ns: [[Counter; NCATS]; NCLASSES],
    /// Completed transactions per class (the breakdown's denominator).
    txns: [Counter; NCLASSES],
    /// End-to-end server-side handling latency per class.
    txn_us: [Hist; NCLASSES],
    /// Participant-side Prepare→Vote handling latency (2PC phase 1). In
    /// the coordinator process the same histogram records the full
    /// Prepare→Vote round trip.
    prepare_us: Hist,
    /// Participant-side Decision→Ack handling latency (2PC phase 2);
    /// coordinator side records the round trip.
    decision_us: Hist,
    /// How long prepared branches sat parked awaiting the decision.
    parked_us: Hist,
    /// Sessions waiting for a serial partition (0 for the locked engine).
    queue_depth: Gauge,
    /// Prepared-but-undecided branches right now.
    in_doubt: Gauge,
    /// Completed restart replays (one per recovered instance incarnation).
    recoveries: Counter,
    /// Recovered in-doubt branches resolved to commit.
    in_doubt_commit: Counter,
    /// Recovered in-doubt branches resolved to abort (including presumed
    /// abort on unknown gtid).
    in_doubt_abort: Counter,
    /// Wall time of each restart replay (WAL scan + redo/undo + re-park).
    recovery_us: Hist,
}

impl Metrics {
    const fn new() -> Self {
        // Templates for array init (each use is a fresh copy, not a shared
        // atomic), hence the allow.
        #[allow(clippy::declare_interior_mutable_const)]
        const CTR: Counter = Counter::new();
        #[allow(clippy::declare_interior_mutable_const)]
        const ROW: [Counter; NCATS] = [CTR; NCATS];
        #[allow(clippy::declare_interior_mutable_const)]
        const H: Hist = Hist::new();
        Metrics {
            enabled: AtomicBool::new(true),
            phase_ns: [ROW; NCLASSES],
            txns: [CTR; NCLASSES],
            txn_us: [H; NCLASSES],
            prepare_us: H,
            decision_us: H,
            parked_us: H,
            queue_depth: Gauge::new(),
            in_doubt: Gauge::new(),
            recoveries: CTR,
            in_doubt_commit: CTR,
            in_doubt_abort: CTR,
            recovery_us: H,
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Master switch (`--no-obs`). Disabling stops *recording*; already
    /// accumulated values remain readable.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Attribute `ns` of phase time directly (the span guards call this;
    /// use it yourself only for time measured out-of-band).
    #[inline]
    pub fn record_phase_ns(&self, class: TxnClass, cat: BreakdownCategory, ns: u64) {
        self.phase_ns[class.index()][cat.index()].add(ns);
    }

    /// One transaction of `class` finished after `ns` of server-side
    /// handling.
    #[inline]
    pub fn record_txn(&self, class: TxnClass, ns: u64) {
        if !self.enabled() {
            return;
        }
        self.txns[class.index()].inc();
        self.txn_us[class.index()].record_ns(ns);
    }

    /// Prepare→Vote latency (participant handling or coordinator RTT).
    #[inline]
    pub fn record_prepare(&self, ns: u64) {
        if self.enabled() {
            self.prepare_us.record_ns(ns);
        }
    }

    /// Decision→Ack latency (participant handling or coordinator RTT).
    #[inline]
    pub fn record_decision(&self, ns: u64) {
        if self.enabled() {
            self.decision_us.record_ns(ns);
        }
    }

    /// A parked 2PC branch was decided after waiting `ns`.
    #[inline]
    pub fn record_parked(&self, ns: u64) {
        if self.enabled() {
            self.parked_us.record_ns(ns);
        }
    }

    pub fn queue_depth(&self) -> &Gauge {
        &self.queue_depth
    }

    pub fn in_doubt(&self) -> &Gauge {
        &self.in_doubt
    }

    /// One instance finished its restart replay after `ns` of wall time.
    /// Recoveries are rare and always worth counting, so this records even
    /// when the registry is disabled.
    pub fn record_recovery(&self, ns: u64) {
        self.recoveries.inc();
        self.recovery_us.record_ns(ns);
    }

    /// A recovered in-doubt branch reached its outcome.
    pub fn record_in_doubt_resolved(&self, commit: bool) {
        if commit {
            self.in_doubt_commit.inc();
        } else {
            self.in_doubt_abort.inc();
        }
    }

    /// Point-in-time copy of everything (torn across concurrent writers by
    /// at most one in-flight transaction — fine for scraping).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot {
            enabled: self.enabled(),
            queue_depth: self.queue_depth.get(),
            in_doubt: self.in_doubt.get(),
            ..Snapshot::default()
        };
        for class in TxnClass::ALL {
            let ci = class.index();
            snap.txns[ci] = self.txns[ci].get();
            snap.txn_us[ci] = self.txn_us[ci].snapshot();
            for cat in BreakdownCategory::ALL {
                snap.phase_ns[ci][cat.index()] = self.phase_ns[ci][cat.index()].get();
            }
        }
        snap.prepare_us = self.prepare_us.snapshot();
        snap.decision_us = self.decision_us.snapshot();
        snap.parked_us = self.parked_us.snapshot();
        snap.recoveries = self.recoveries.get();
        snap.in_doubt_commit = self.in_doubt_commit.get();
        snap.in_doubt_abort = self.in_doubt_abort.get();
        snap.recovery_us = self.recovery_us.snapshot();
        snap
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-global registry.
#[inline]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

/// Whether recording is on (one relaxed load; every hot path checks this
/// first and does nothing else when off).
#[inline]
pub fn enabled() -> bool {
    METRICS.enabled()
}

/// Master switch for the process (`--no-obs` plumbs to this).
pub fn set_enabled(on: bool) {
    METRICS.set_enabled(on);
}

/// The registry is process-global, so tests that toggle `enabled` or assert
/// on deltas serialize through this (libtest runs tests concurrently).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // extra dec must not wrap
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn registry_snapshot_reflects_recordings() {
        // The registry is process-global and other tests in this binary
        // record into it too, so assert on deltas.
        let _serial = crate::test_lock();
        let m = metrics();
        let before = m.snapshot();
        m.record_txn(TxnClass::Multisite, 5_000_000); // 5 ms
        m.record_phase_ns(TxnClass::Multisite, BreakdownCategory::Logging, 1_000);
        m.record_prepare(2_000_000);
        m.record_decision(3_000_000);
        m.record_parked(10_000_000);
        let after = m.snapshot();
        let mi = TxnClass::Multisite.index();
        assert_eq!(after.txns[mi] - before.txns[mi], 1);
        assert!(
            after.phase_ns[mi][BreakdownCategory::Logging.index()]
                >= before.phase_ns[mi][BreakdownCategory::Logging.index()] + 1_000
        );
        assert_eq!(after.prepare_us.count - before.prepare_us.count, 1);
        assert_eq!(after.decision_us.count - before.decision_us.count, 1);
        assert_eq!(after.parked_us.count - before.parked_us.count, 1);
    }

    #[test]
    fn disabled_registry_drops_recordings() {
        let _serial = crate::test_lock();
        let m = metrics();
        m.set_enabled(false);
        let before = m.snapshot();
        m.record_txn(TxnClass::Local, 1_000);
        m.record_prepare(1_000);
        let after = m.snapshot();
        m.set_enabled(true);
        assert_eq!(after.txns[0], before.txns[0]);
        assert_eq!(after.prepare_us.count, before.prepare_us.count);
    }

    #[test]
    fn category_indices_are_a_bijection() {
        for (i, cat) in BreakdownCategory::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i);
        }
        for (i, class) in TxnClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }
}
