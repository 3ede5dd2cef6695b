//! End-to-end `lockcheck` behavior through the public storage API
//! (compiled only with `--features lockcheck`).

#![cfg(feature = "lockcheck")]

use std::sync::Arc;
use std::time::Duration;

use islands_storage::lock::{LockId, LockMode};
use islands_storage::lockcheck::Scope;
use islands_storage::store::MemStore;
use islands_storage::wal::MemLogDevice;
use islands_storage::{InstanceOptions, StorageInstance, TxnId};

fn fresh(single_threaded: bool) -> Arc<StorageInstance> {
    let inst = StorageInstance::create(
        Arc::new(MemStore::new()),
        MemLogDevice::new(),
        InstanceOptions {
            buffer_frames: 256,
            single_threaded,
            ..Default::default()
        },
    );
    let t = inst.create_table("a", 16).unwrap();
    for k in 0..100u64 {
        inst.load_row(&t, k, &[0u8; 16]).unwrap();
    }
    inst
}

#[test]
fn single_owner_flows_are_clean() {
    let inst = fresh(true);
    let mut txn = inst.begin();
    txn.update("a", 1, &[1u8; 16]).unwrap();
    assert!(txn.read("a", 1).unwrap().is_some());
    txn.commit().unwrap();
}

#[test]
fn threads_taking_turns_on_a_single_threaded_instance_are_clean() {
    // The serial engine runs each call on the calling session's thread
    // under the partition mutex: many threads, one at a time.
    let inst = fresh(true);
    let other = Arc::clone(&inst);
    std::thread::spawn(move || {
        let mut txn = other.begin();
        txn.update("a", 1, &[1u8; 16]).unwrap();
        txn.commit().unwrap();
    })
    .join()
    .unwrap();
    let mut txn = inst.begin();
    assert!(txn.read("a", 1).unwrap().is_some());
    txn.commit().unwrap();
}

#[test]
#[should_panic(expected = "lockcheck: concurrent access")]
fn concurrent_access_to_single_threaded_instance_panics() {
    let inst = fresh(true);
    std::thread::scope(|scope| {
        let (entered_tx, entered) = std::sync::mpsc::channel::<()>();
        let (release_tx, release) = std::sync::mpsc::channel::<()>();
        // A helper thread is inside the instance, mid-transaction...
        let helper = &inst;
        scope.spawn(move || {
            let mut txn = helper.begin();
            txn.update("a", 1, &[1u8; 16]).unwrap();
            entered_tx.send(()).unwrap();
            // Held open until the test thread is done; its panic drops the
            // sender, which ends this wait.
            let _ = release.recv();
        });
        entered.recv().unwrap();
        // ...so this access from the test thread is the race.
        let mut txn = inst.begin();
        let _ = txn.read("a", 2);
        drop(release_tx);
    });
}

#[test]
fn disjoint_partitions_in_one_scope_are_clean() {
    let a = fresh(false);
    let b = fresh(false);
    let scope = Scope::new();
    a.set_lockcheck_scope(Arc::clone(&scope));
    b.set_lockcheck_scope(Arc::clone(&scope));
    let mut ta = a.begin();
    ta.update("a", 10, &[1u8; 16]).unwrap();
    ta.commit().unwrap();
    let mut tb = b.begin();
    tb.update("a", 20, &[1u8; 16]).unwrap();
    tb.commit().unwrap();
}

#[test]
#[should_panic(expected = "lockcheck: cross-partition access")]
fn mis_routed_key_across_instances_panics() {
    // Both instances hold key 30 (the mis-route: one key, two owners).
    let a = fresh(false);
    let b = fresh(false);
    let scope = Scope::new();
    a.set_lockcheck_scope(Arc::clone(&scope));
    b.set_lockcheck_scope(Arc::clone(&scope));
    let mut ta = a.begin();
    ta.update("a", 30, &[1u8; 16]).unwrap();
    ta.commit().unwrap();
    let mut tb = b.begin();
    let _ = tb.read("a", 30);
}

#[test]
#[should_panic(expected = "lockcheck: lock-order inversion")]
fn opposite_table_lock_orders_panic() {
    let inst = fresh(false);
    let locks = inst.locks();
    // txn 1: table 1 before table 2; txn 2: the reverse.
    locks
        .lock(TxnId(901), LockId::Table(1), LockMode::IX)
        .unwrap();
    locks
        .lock(TxnId(901), LockId::Table(2), LockMode::IX)
        .unwrap();
    locks.unlock_all(TxnId(901));
    locks
        .lock(TxnId(902), LockId::Table(2), LockMode::IX)
        .unwrap();
    let _ = locks.lock(TxnId(902), LockId::Table(1), LockMode::IX);
}

#[test]
fn wait_die_key_contention_does_not_trip_the_detector() {
    // Two transactions touching the same keys in opposite orders is the
    // normal wait-die case, not an inversion.
    let inst = fresh(false);
    let mut t1 = inst.begin();
    t1.update("a", 5, &[1u8; 16]).unwrap();
    let mut t2 = inst.begin();
    match t2.update("a", 5, &[2u8; 16]) {
        Ok(()) | Err(islands_storage::StorageError::Deadlock(_)) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
    let _ = t2.abort();
    t1.commit().unwrap();
}

#[test]
fn lock_timeout_still_reported_with_lockcheck_on() {
    let inst = StorageInstance::create(
        Arc::new(MemStore::new()),
        MemLogDevice::new(),
        InstanceOptions {
            buffer_frames: 256,
            lock_timeout: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let locks = inst.locks();
    locks
        .lock(TxnId(10), LockId::Table(1), LockMode::X)
        .unwrap();
    assert!(locks.lock(TxnId(1), LockId::Table(1), LockMode::X).is_err());
}
