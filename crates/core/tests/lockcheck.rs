//! The serial engine under the `lockcheck` race detector: a deliberately
//! mis-routed key is caught, clean partitioned execution is not.
//! (Compiled only with `--features lockcheck`.)

#![cfg(feature = "lockcheck")]

use std::sync::Arc;

use islands_core::native::{EngineMode, ExecutorConfig, PartitionConfig, PartitionExecutor};
use islands_storage::lockcheck::Scope;
use islands_workload::{OpKind, TxnRequest};

fn executor(lo: u64, hi: u64) -> PartitionExecutor {
    PartitionExecutor::spawn(ExecutorConfig {
        partition: PartitionConfig {
            lo,
            hi,
            row_size: 16,
            buffer_frames: 256,
            ..Default::default()
        },
    })
    .expect("spawn executor")
}

fn update(keys: &[u64]) -> TxnRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: keys.to_vec(),
        multisite: false,
    }
}

#[test]
fn disjoint_serial_partitions_run_clean_under_lockcheck() {
    let a = executor(0, 100);
    let b = executor(100, 200);
    let scope = Scope::new();
    a.set_lockcheck_scope(Arc::clone(&scope)).unwrap();
    b.set_lockcheck_scope(Arc::clone(&scope)).unwrap();
    let sa = a.session();
    let sb = b.session();
    for k in [5u64, 50, 99] {
        assert!(sa.submit(&update(&[k])).unwrap().committed);
    }
    for k in [100u64, 150, 199] {
        assert!(sb.submit(&update(&[k])).unwrap().committed);
    }
    assert_eq!(a.audit_sum().unwrap(), 3);
    assert_eq!(b.audit_sum().unwrap(), 3);
}

#[test]
fn mis_routed_key_in_the_serial_engine_is_caught() {
    // The deliberate routing bug: two "partitions" whose ranges overlap on
    // [50, 100), registered into one ownership scope. Key 60 exists on
    // both, so a request for it can be routed to either — exactly the bug
    // class lockcheck exists to catch.
    let a = executor(0, 100);
    let b = executor(50, 150);
    let scope = Scope::new();
    a.set_lockcheck_scope(Arc::clone(&scope)).unwrap();
    b.set_lockcheck_scope(Arc::clone(&scope)).unwrap();

    let sa = a.session();
    let sb = b.session();
    assert!(sa.submit(&update(&[60])).unwrap().committed, "first owner");

    // The mis-route: the same key reaches partition B. The detector panics
    // inside B's transaction; B catches it at its partition boundary,
    // discards its state and answers Gone, to the offending call and to
    // every later one, while the calling thread lives on.
    assert!(
        matches!(
            sb.submit(&update(&[60])),
            Err(islands_core::native::ExecError::Gone)
        ),
        "lockcheck must kill the partition that accepted a mis-routed key"
    );
    assert!(matches!(
        sb.submit(&update(&[70])),
        Err(islands_core::native::ExecError::Gone)
    ));

    // Partition A is untouched and keeps serving.
    assert!(sa.submit(&update(&[10])).unwrap().committed);
    assert_eq!(a.audit_sum().unwrap(), 2);
}

#[test]
fn serial_mode_label_still_round_trips() {
    // Keep a non-panicking engine-mode check in this binary so a lockcheck
    // CI run exercises the serial-mode vocabulary too.
    assert_eq!(EngineMode::parse("serial"), Ok(EngineMode::Serial));
}
