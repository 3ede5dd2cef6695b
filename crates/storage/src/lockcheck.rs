//! `lockcheck` — a dynamic race detector for partitioned execution
//! (compiled only with `--features lockcheck`; zero cost otherwise).
//!
//! The serial engine's safety argument is *exclusive access*: one partition
//! is inside at most one thread at a time (the executor's partition mutex),
//! and one key lives in exactly one partition. Both halves are conventions
//! the type system cannot see — a routing bug that lands a key on two
//! instances, or a thread calling into a `single_threaded` instance without
//! holding the partition, silently corrupts data instead of failing. This
//! module turns those conventions into checked invariants:
//!
//! * **Exclusive access** — a transaction's first key access to a
//!   `single_threaded` instance makes its thread the instance's occupant
//!   until that transaction finishes or prepares (a parked 2PC branch holds
//!   no thread). A key access from any other thread while the instance is
//!   occupied panics. Threads may take turns: sequential transactions from
//!   different threads are clean.
//! * **Partition ownership** — instances registered into a shared [`Scope`]
//!   record the first instance to touch each key; a different instance
//!   touching the same key panics (a mis-routed request).
//! * **Lock-order inversions** (locked mode) — the lock manager records
//!   *acquired-before* edges between **table-level** locks ("requested B
//!   while holding A") and panics when a request would close a cycle. Row
//!   level is intentionally excluded: wait-die resolves arbitrary key
//!   orders by killing the younger transaction, so key-order cycles are by
//!   design survivable, while table-order cycles indicate structural
//!   misuse.
//!
//! All panics carry a `lockcheck:` prefix so CI logs are greppable.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};

use parking_lot::Mutex;

use crate::lock::LockId;
use crate::TxnId;

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// A deployment-wide key-ownership registry. Create one per cluster/test
/// and register every instance that is supposed to partition one key space;
/// instances without a scope skip the cross-partition check (separate
/// clusters in one process must not see each other's keys).
#[derive(Debug, Default)]
pub struct Scope {
    /// key → id of the instance that first touched it.
    owners: Mutex<HashMap<u64, u64>>,
}

impl Scope {
    pub fn new() -> Arc<Scope> {
        Arc::new(Scope::default())
    }
}

/// Per-instance detector state, embedded in `StorageInstance`.
#[derive(Debug)]
pub(crate) struct InstanceCheck {
    id: u64,
    /// The thread inside the instance and the transaction that entered it.
    occupant: Mutex<Option<(ThreadId, TxnId)>>,
    scope: Mutex<Option<Arc<Scope>>>,
}

impl InstanceCheck {
    pub(crate) fn new() -> InstanceCheck {
        InstanceCheck {
            id: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            occupant: Mutex::new(None),
            scope: Mutex::new(None),
        }
    }

    pub(crate) fn set_scope(&self, scope: Arc<Scope>) {
        *self.scope.lock() = Some(scope);
    }

    /// Called on every transactional key access (read/update/insert).
    pub(crate) fn on_access(&self, single_threaded: bool, txn: TxnId, key: u64) {
        if single_threaded {
            let me = thread::current().id();
            let mut occupant = self.occupant.lock();
            match *occupant {
                None => *occupant = Some((me, txn)),
                Some((t, _)) if t == me => {}
                Some((t, inside)) => panic!(
                    "lockcheck: concurrent access to single-threaded instance {}: \
                     {txn} touched key {key} from {me:?} while {inside} is inside on {t:?}",
                    self.id
                ),
            }
        }
        let scope = self.scope.lock().clone();
        if let Some(scope) = scope {
            let mut owners = scope.owners.lock();
            let owner = *owners.entry(key).or_insert(self.id);
            if owner != self.id {
                panic!(
                    "lockcheck: cross-partition access: key {key} is owned by instance \
                     {owner} but was accessed via instance {} — a request was mis-routed",
                    self.id
                );
            }
        }
    }

    /// `txn` finished or prepared: if it made its thread the occupant, the
    /// instance is free for the next thread.
    pub(crate) fn on_leave(&self, txn: TxnId) {
        let mut occupant = self.occupant.lock();
        if matches!(*occupant, Some((_, inside)) if inside == txn) {
            *occupant = None;
        }
    }
}

/// Acquired-before tracking for the lock manager, embedded in
/// `NativeLockManager`.
#[derive(Debug, Default)]
pub(crate) struct LockOrderCheck {
    /// Table-level acquired-before edges: `a → b` means some transaction
    /// requested table `b` while holding table `a`.
    edges: Mutex<HashMap<u32, HashSet<u32>>>,
    /// Locks currently held, per transaction.
    held: Mutex<HashMap<TxnId, Vec<LockId>>>,
}

impl LockOrderCheck {
    /// Record a request and panic if it closes an acquired-before cycle.
    pub(crate) fn on_request(&self, txn: TxnId, id: LockId) {
        let LockId::Table(want) = id else {
            return;
        };
        let held_tables: Vec<u32> = self
            .held
            .lock()
            .get(&txn)
            .map(|held| {
                held.iter()
                    .filter_map(|h| match h {
                        LockId::Table(t) if *t != want => Some(*t),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        if held_tables.is_empty() {
            return;
        }
        let mut edges = self.edges.lock();
        for &h in &held_tables {
            // About to add h → want; an existing path want ⇝ h is a cycle.
            if Self::reachable(&edges, want, h) {
                panic!(
                    "lockcheck: lock-order inversion: {txn} requests table {want} while \
                     holding table {h}, but table {h} has previously been requested while \
                     holding table {want} (acquired-before cycle)"
                );
            }
            edges.entry(h).or_default().insert(want);
        }
    }

    fn reachable(edges: &HashMap<u32, HashSet<u32>>, from: u32, to: u32) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = edges.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Record a granted lock (not called for wait-die kills/timeouts).
    pub(crate) fn on_granted(&self, txn: TxnId, id: LockId) {
        let mut held = self.held.lock();
        let locks = held.entry(txn).or_default();
        if !locks.contains(&id) {
            locks.push(id);
        }
    }

    pub(crate) fn on_release_all(&self, txn: TxnId) {
        self.held.lock().remove(&txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_tracks_first_owner() {
        let a = InstanceCheck::new();
        let scope = Scope::new();
        a.set_scope(Arc::clone(&scope));
        a.on_access(false, TxnId(1), 42);
        a.on_access(false, TxnId(1), 42); // same instance: fine
        assert_eq!(scope.owners.lock().len(), 1);
    }

    #[test]
    #[should_panic(expected = "lockcheck: cross-partition access")]
    fn second_instance_touching_same_key_panics() {
        let a = InstanceCheck::new();
        let b = InstanceCheck::new();
        let scope = Scope::new();
        a.set_scope(Arc::clone(&scope));
        b.set_scope(Arc::clone(&scope));
        a.on_access(false, TxnId(1), 42);
        b.on_access(false, TxnId(2), 42);
    }

    #[test]
    fn unscoped_instances_skip_partition_checks() {
        let a = InstanceCheck::new();
        let b = InstanceCheck::new();
        a.on_access(false, TxnId(1), 42);
        b.on_access(false, TxnId(2), 42); // no shared scope: not an error
    }

    #[test]
    fn threads_taking_turns_are_clean() {
        let a = InstanceCheck::new();
        a.on_access(true, TxnId(1), 1);
        a.on_leave(TxnId(1));
        std::thread::scope(|s| {
            s.spawn(|| {
                a.on_access(true, TxnId(2), 1);
                a.on_leave(TxnId(2));
            });
        });
        a.on_access(true, TxnId(3), 1);
    }

    #[test]
    #[should_panic(expected = "lockcheck: concurrent access")]
    fn a_second_thread_inside_panics() {
        let a = InstanceCheck::new();
        a.on_access(true, TxnId(1), 1);
        std::thread::scope(|s| {
            if let Err(panic) = s.spawn(|| a.on_access(true, TxnId(2), 2)).join() {
                std::panic::resume_unwind(panic);
            }
        });
    }

    #[test]
    #[should_panic(expected = "lockcheck: lock-order inversion")]
    fn opposite_table_orders_panic() {
        let c = LockOrderCheck::default();
        // txn 1: table 1 then table 2.
        c.on_request(TxnId(1), LockId::Table(1));
        c.on_granted(TxnId(1), LockId::Table(1));
        c.on_request(TxnId(1), LockId::Table(2));
        c.on_granted(TxnId(1), LockId::Table(2));
        c.on_release_all(TxnId(1));
        // txn 2: table 2 then table 1 — closes the cycle.
        c.on_request(TxnId(2), LockId::Table(2));
        c.on_granted(TxnId(2), LockId::Table(2));
        c.on_request(TxnId(2), LockId::Table(1));
    }

    #[test]
    fn consistent_table_order_is_clean() {
        let c = LockOrderCheck::default();
        for t in [TxnId(1), TxnId(2), TxnId(3)] {
            c.on_request(t, LockId::Table(1));
            c.on_granted(t, LockId::Table(1));
            c.on_request(t, LockId::Table(2));
            c.on_granted(t, LockId::Table(2));
            c.on_release_all(t);
        }
    }

    #[test]
    fn key_locks_are_exempt_from_order_tracking() {
        // Wait-die handles arbitrary key orders; they must not trip the
        // detector.
        let c = LockOrderCheck::default();
        c.on_granted(TxnId(1), LockId::Key(1, 5));
        c.on_request(TxnId(1), LockId::Key(1, 7));
        c.on_granted(TxnId(2), LockId::Key(1, 7));
        c.on_request(TxnId(2), LockId::Key(1, 5));
    }
}
