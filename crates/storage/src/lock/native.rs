//! Blocking lock manager for native (real-thread) execution.
//!
//! Thin driver over the pure [`LockTable`]: `Wait` outcomes park the calling
//! thread on a per-transaction condition variable; releases wake the
//! transactions the table reports as newly granted. A waiter's cell is
//! registered before the table mutex drops, so no grant can miss it; a
//! configurable timeout backstops wait-die (which already prevents true
//! deadlocks) against runaway holders.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, StorageError};
use crate::lock::table::{Acquire, LockId, LockMode, LockTable};
use crate::TxnId;

#[derive(Default)]
struct WaitCell {
    state: Mutex<WaitState>,
    cv: Condvar,
}

#[derive(Default, Clone, Copy, PartialEq)]
enum WaitState {
    #[default]
    Waiting,
    Granted,
}

/// What the table said to a lock request.
enum Request {
    Granted,
    Die,
    /// Queued; the registered cell is woken on grant.
    Wait(Arc<WaitCell>),
}

/// The blocking lock manager.
pub struct NativeLockManager {
    table: Mutex<LockTable>,
    cells: Mutex<HashMap<TxnId, Arc<WaitCell>>>,
    timeout: Duration,
    #[cfg(feature = "lockcheck")]
    order: crate::lockcheck::LockOrderCheck,
}

impl NativeLockManager {
    pub fn new(timeout: Duration) -> Self {
        NativeLockManager {
            table: Mutex::new(LockTable::new()),
            cells: Mutex::new(HashMap::new()),
            timeout,
            #[cfg(feature = "lockcheck")]
            order: crate::lockcheck::LockOrderCheck::default(),
        }
    }

    /// Acquire `id` in `mode`, blocking as needed.
    ///
    /// Errors: [`StorageError::Deadlock`] if wait-die kills the requester,
    /// [`StorageError::LockTimeout`] if the wait exceeds the timeout.
    pub fn lock(&self, txn: TxnId, id: LockId, mode: LockMode) -> Result<()> {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Locking);
        #[cfg(feature = "lockcheck")]
        self.order.on_request(txn, id);
        let granted = match self.request(txn, id, mode) {
            Request::Granted => Ok(()),
            Request::Die => Err(StorageError::Deadlock(txn)),
            Request::Wait(cell) => self.wait(txn, id, &cell),
        };
        #[cfg(feature = "lockcheck")]
        if granted.is_ok() {
            self.order.on_granted(txn, id);
        }
        granted
    }

    /// Ask the table for `id`. A `Wait` registers the waiter's cell while
    /// the table mutex is still held: a holder releasing right after the
    /// mutex drops promotes the waiter in the table, and its wakeup must
    /// find the cell, or the waiter sleeps out the whole timeout for a lock
    /// the table says it holds.
    fn request(&self, txn: TxnId, id: LockId, mode: LockMode) -> Request {
        let mut t = self.table.lock();
        match t.acquire(txn, id, mode) {
            Acquire::Granted => Request::Granted,
            Acquire::Die => Request::Die,
            Acquire::Wait => {
                let cell = Arc::new(WaitCell::default());
                self.cells.lock().insert(txn, Arc::clone(&cell));
                Request::Wait(cell)
            }
        }
    }

    /// Park on `cell` until a release grants the lock or the timeout fires.
    fn wait(&self, txn: TxnId, id: LockId, cell: &WaitCell) -> Result<()> {
        let mut st = cell.state.lock();
        let granted = loop {
            if *st == WaitState::Granted {
                drop(st); // never hold a cell's state while taking `cells`
                break true;
            }
            if self.cv_wait(cell, &mut st) {
                continue; // woken (or spurious); loop re-checks
            }
            // Timed out: settle the race against a concurrent grant under
            // the table lock. A request no longer queued was granted.
            drop(st);
            let mut t = self.table.lock();
            let still_waiting = t.cancel_wait(txn, id);
            let woken = t.take_deferred_wakeups();
            drop(t);
            self.wake(&woken);
            break !still_waiting;
        };
        self.cells.lock().remove(&txn);
        if granted {
            Ok(())
        } else {
            Err(StorageError::LockTimeout(txn))
        }
    }

    /// Returns `true` if woken before the timeout.
    fn cv_wait(&self, cell: &WaitCell, st: &mut parking_lot::MutexGuard<'_, WaitState>) -> bool {
        !cell.cv.wait_for(st, self.timeout).timed_out()
    }

    /// Release everything `txn` holds and wake newly granted waiters.
    pub fn unlock_all(&self, txn: TxnId) {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Locking);
        #[cfg(feature = "lockcheck")]
        self.order.on_release_all(txn);
        let woken = {
            let mut t = self.table.lock();
            t.release_all(txn)
        };
        self.wake(&woken);
    }

    fn wake(&self, txns: &[TxnId]) {
        if txns.is_empty() {
            return;
        }
        let cells = self.cells.lock();
        for t in txns {
            if let Some(cell) = cells.get(t) {
                let mut st = cell.state.lock();
                *st = WaitState::Granted;
                cell.cv.notify_all();
            }
        }
    }

    pub fn holds(&self, txn: TxnId, id: LockId, mode: LockMode) -> bool {
        self.table.lock().holds(txn, id, mode)
    }

    /// `(acquires, waits, deadlock-kills)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        let t = self.table.lock();
        (t.acquires, t.waits, t.dies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const T: u32 = 1;

    fn mgr() -> Arc<NativeLockManager> {
        Arc::new(NativeLockManager::new(Duration::from_secs(5)))
    }

    #[test]
    fn uncontended_lock_unlock() {
        let m = mgr();
        m.lock(TxnId(1), LockId::Key(T, 5), LockMode::X).unwrap();
        assert!(m.holds(TxnId(1), LockId::Key(T, 5), LockMode::X));
        m.unlock_all(TxnId(1));
        assert!(!m.holds(TxnId(1), LockId::Key(T, 5), LockMode::X));
    }

    #[test]
    fn blocked_thread_resumes_on_release() {
        let m = mgr();
        let id = LockId::Key(T, 1);
        m.lock(TxnId(10), id, LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            // Older transaction: allowed to wait.
            m2.lock(TxnId(1), id, LockMode::X).unwrap();
            m2.unlock_all(TxnId(1));
        });
        thread::sleep(Duration::from_millis(50));
        m.unlock_all(TxnId(10));
        h.join().unwrap();
    }

    #[test]
    fn younger_requester_dies() {
        let m = mgr();
        let id = LockId::Key(T, 1);
        m.lock(TxnId(1), id, LockMode::X).unwrap();
        assert!(matches!(
            m.lock(TxnId(2), id, LockMode::X),
            Err(StorageError::Deadlock(TxnId(2)))
        ));
    }

    #[test]
    fn timeout_fires_when_holder_never_releases() {
        let m = Arc::new(NativeLockManager::new(Duration::from_millis(50)));
        let id = LockId::Key(T, 1);
        m.lock(TxnId(10), id, LockMode::X).unwrap();
        let start = std::time::Instant::now();
        let r = m.lock(TxnId(1), id, LockMode::X);
        assert!(matches!(r, Err(StorageError::LockTimeout(TxnId(1)))));
        assert!(start.elapsed() >= Duration::from_millis(50));
        // The cancelled wait must not corrupt the queue.
        m.unlock_all(TxnId(10));
        m.lock(TxnId(2), id, LockMode::X).unwrap();
    }

    #[test]
    fn release_between_queueing_and_parking_still_wakes_the_waiter() {
        // The interleaving that used to lose the wakeup, forced step by
        // step: the waiter is queued, the holder releases before the
        // waiter parks, and only then does the waiter park.
        let m = Arc::new(NativeLockManager::new(Duration::from_secs(10)));
        let id = LockId::Key(T, 7);
        m.lock(TxnId(10), id, LockMode::X).unwrap();
        let Request::Wait(cell) = m.request(TxnId(1), id, LockMode::X) else {
            panic!("the older requester must queue behind the holder");
        };
        m.unlock_all(TxnId(10));
        assert!(m.holds(TxnId(1), id, LockMode::X), "the table granted it");
        let start = std::time::Instant::now();
        m.wait(TxnId(1), id, &cell).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "the grant's wakeup was lost: the waiter slept out its timeout"
        );
        m.unlock_all(TxnId(1));
        m.lock(TxnId(2), id, LockMode::X).unwrap();
    }

    #[test]
    fn contended_counter_increments_are_serialized() {
        let m = mgr();
        let id = LockId::Key(T, 42);
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        // Descending ids: later (older-numbered) threads may need to wait.
        for i in 0..8u64 {
            let m = Arc::clone(&m);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                let mut done = 0;
                let mut attempt = 0u64;
                while done < 50 {
                    // Unique, increasing txn ids per attempt; retries on Die.
                    let txn = TxnId(1 + i + 8 * attempt);
                    attempt += 1;
                    match m.lock(txn, id, LockMode::X) {
                        Ok(()) => {
                            let mut c = counter.lock();
                            *c += 1;
                            drop(c);
                            m.unlock_all(txn);
                            done += 1;
                        }
                        Err(StorageError::Deadlock(_)) => {
                            m.unlock_all(txn);
                        }
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 8 * 50);
    }
}
