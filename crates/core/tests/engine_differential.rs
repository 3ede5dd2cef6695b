//! Differential test: the locked engine and the serial executor are
//! result-equivalent.
//!
//! One `MicroSpec`-generated trace is replayed through both engine modes:
//! the locked [`PartitionEngine`] (2PL, wait-die) driven directly, and the
//! [`PartitionExecutor`] (serial, no lock table) driven through a session.
//! The trace interleaves local submissions *inside* the in-doubt window of
//! prepared 2PC branches — including branches later decided **abort** and
//! deliberately conflicting locals — and the claim under test is exact
//! per-step outcome equality, equal commit counts, and equal `audit_sum()`.
//!
//! Why equality holds: under the locked engine an in-doubt branch is the
//! *oldest* holder of its row locks, so wait-die kills every conflicting
//! newcomer immediately; the executor answers a conflicting request with an
//! immediate abort off its in-doubt key set. Same observable behavior, no
//! locks on the serial side.

use islands_core::native::{
    BranchOutcome, DecideOutcome, EngineMode, ExecutorConfig, PartitionConfig, PartitionEngine,
    PartitionExecutor,
};
use islands_dtxn::Vote;
use islands_workload::{MicroGenerator, MicroSpec, OpKind, TxnRequest};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const ROWS: u64 = 240;
const SITES: u64 = 4;

/// One step of the replay script.
enum Step {
    /// A fully-local submission.
    Local(TxnRequest),
    /// A 2PC branch: prepare, interleave the locals while in-doubt, then
    /// decide.
    Branch {
        gtid: u64,
        req: TxnRequest,
        /// Local submissions executed while the branch is in-doubt. Some
        /// deliberately reuse the branch's home key to force conflicts.
        interleave: Vec<TxnRequest>,
        commit: bool,
    },
}

/// Outcomes of one step, in the same shape for both engines. A branch step
/// records the vote-equivalent plus each interleaved local's fate.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Local {
        committed: bool,
    },
    Branch {
        prepared: bool,
        interleaved: Vec<bool>,
        committed: bool,
    },
}

fn partition_config() -> PartitionConfig {
    PartitionConfig {
        lo: 0,
        hi: ROWS,
        row_size: 16,
        buffer_frames: 512,
        ..Default::default()
    }
}

/// Build the script from a generated request stream. Multisite requests
/// become branches; the locals that follow are pulled inside their in-doubt
/// window; every third branch additionally gets a synthesized conflicting
/// local (its own home key plus fresh fillers), and every third branch is
/// decided abort.
fn build_script(kind: OpKind) -> Vec<Step> {
    let spec = MicroSpec {
        kind,
        rows_per_txn: 3,
        multisite_pct: 0.4,
        skew: 0.0,
        multisite_sites: None,
        total_rows: ROWS,
        row_size: 16,
    };
    let gen = MicroGenerator::new(spec, SITES);
    let mut rng = SmallRng::seed_from_u64(0xd1ff);
    let reqs: Vec<TxnRequest> = (0..240).map(|_| gen.next(&mut rng)).collect();

    let mut steps = Vec::new();
    let mut gtid = 1u64;
    let mut it = reqs.into_iter().peekable();
    while let Some(req) = it.next() {
        if !req.multisite {
            steps.push(Step::Local(req));
            continue;
        }
        let mut interleave = Vec::new();
        // Pull the next few locals inside the in-doubt window.
        while interleave.len() < 2 && it.peek().is_some_and(|r| !r.multisite) {
            interleave.push(it.next().expect("peeked"));
        }
        if gtid.is_multiple_of(3) {
            // Force a conflict: a local touching the branch's home key.
            let home = req.keys[0];
            interleave.push(TxnRequest {
                kind,
                keys: vec![home, (home + 1) % ROWS, (home + 2) % ROWS],
                multisite: false,
            });
        }
        steps.push(Step::Branch {
            gtid,
            req,
            interleave,
            commit: !gtid.is_multiple_of(3),
        });
        gtid += 1;
    }
    steps
}

/// Replay through the locked engine, driven directly (2PL does the work).
fn replay_locked(steps: &[Step]) -> (Vec<Outcome>, u64) {
    let engine = PartitionEngine::build(&partition_config()).unwrap();
    let mut outcomes = Vec::new();
    for step in steps {
        match step {
            Step::Local(req) => outcomes.push(Outcome::Local {
                committed: engine.submit_local(req, 4).unwrap().committed,
            }),
            Step::Branch {
                gtid,
                req,
                interleave,
                commit,
            } => {
                let branch = engine.prepare_branch(*gtid, req).unwrap();
                let prepared = matches!(branch, BranchOutcome::Prepared(_));
                let mut interleaved = Vec::new();
                for il in interleave {
                    interleaved.push(engine.submit_local(il, 4).unwrap().committed);
                }
                let committed = match branch {
                    BranchOutcome::Prepared(handle) => {
                        handle.decide(*commit).unwrap();
                        *commit
                    }
                    // Read-only branches committed at prepare; No-voting
                    // branches rolled back (neither occurs with conflicts
                    // scripted only against already-prepared branches).
                    BranchOutcome::ReadOnly => true,
                    BranchOutcome::No => false,
                };
                outcomes.push(Outcome::Branch {
                    prepared,
                    interleaved,
                    committed,
                });
            }
        }
    }
    let audit = engine.audit_sum().unwrap();
    (outcomes, audit)
}

/// Replay through the serial executor, driven through one producer session.
fn replay_serial(steps: &[Step]) -> (Vec<Outcome>, u64) {
    let exec = PartitionExecutor::spawn(ExecutorConfig {
        partition: partition_config(),
    })
    .unwrap();
    let session = exec.session();
    let mut outcomes = Vec::new();
    for step in steps {
        match step {
            Step::Local(req) => outcomes.push(Outcome::Local {
                committed: session.submit(req).unwrap().committed,
            }),
            Step::Branch {
                gtid,
                req,
                interleave,
                commit,
            } => {
                let vote = session.prepare(*gtid, req).unwrap();
                let prepared = vote == Vote::Yes;
                let mut interleaved = Vec::new();
                for il in interleave {
                    interleaved.push(session.submit(il).unwrap().committed);
                }
                let committed = match vote {
                    Vote::Yes => {
                        assert!(matches!(
                            session.decide(*gtid, *commit).unwrap(),
                            DecideOutcome::Applied
                        ));
                        *commit
                    }
                    Vote::ReadOnly => true,
                    Vote::No => false,
                };
                outcomes.push(Outcome::Branch {
                    prepared,
                    interleaved,
                    committed,
                });
            }
        }
    }
    drop(session);
    let audit = exec.audit_sum().unwrap();
    (outcomes, audit)
}

fn committed_count(outcomes: &[Outcome]) -> u64 {
    outcomes
        .iter()
        .map(|o| match o {
            Outcome::Local { committed } => *committed as u64,
            Outcome::Branch {
                interleaved,
                committed,
                ..
            } => *committed as u64 + interleaved.iter().filter(|c| **c).count() as u64,
        })
        .sum()
}

fn run_differential(kind: OpKind) {
    let steps = build_script(kind);
    let branches = steps
        .iter()
        .filter(|s| matches!(s, Step::Branch { .. }))
        .count();
    assert!(
        branches >= 20,
        "script must exercise 2PC ({branches} branches)"
    );
    let aborted_branches = steps
        .iter()
        .filter(|s| matches!(s, Step::Branch { commit: false, .. }))
        .count();
    assert!(aborted_branches >= 5, "script must abort branches");

    let (locked, locked_audit) = replay_locked(&steps);
    let (serial, serial_audit) = replay_serial(&steps);

    assert_eq!(locked.len(), serial.len(), "both engines replay every step");
    for (i, (l, s)) in locked.iter().zip(&serial).enumerate() {
        assert_eq!(l, s, "step {i} diverged between locked and serial");
    }
    assert_eq!(
        committed_count(&locked),
        committed_count(&serial),
        "{} vs {}: commit counts must agree",
        EngineMode::Locked,
        EngineMode::Serial,
    );
    assert_eq!(
        locked_audit, serial_audit,
        "audit sums must agree after the full trace"
    );
}

#[test]
fn update_trace_is_engine_equivalent() {
    run_differential(OpKind::Update);
}

#[test]
fn read_trace_is_engine_equivalent() {
    // Read-only branches take the ReadOnly-vote path (no in-doubt window)
    // in both engines; the audit sums are trivially zero but the per-step
    // outcome equality is still load-bearing.
    run_differential(OpKind::Read);
}

#[test]
fn conflicting_locals_abort_identically_in_both_engines() {
    // The sharpest corner, pinned explicitly: while a branch is in-doubt,
    // a conflicting local must fail in *both* engines (wait-die kills the
    // younger txn under 2PL; the executor's in-doubt key set answers the
    // same way), and succeed in both once the branch aborts.
    let req = TxnRequest {
        kind: OpKind::Update,
        keys: vec![10, 11],
        multisite: true,
    };
    let conflicting = TxnRequest {
        kind: OpKind::Update,
        keys: vec![11, 12],
        multisite: false,
    };

    let engine = PartitionEngine::build(&partition_config()).unwrap();
    let BranchOutcome::Prepared(handle) = engine.prepare_branch(1, &req).unwrap() else {
        panic!("writer branch must prepare");
    };
    let locked_blocked = engine.submit_local(&conflicting, 4).unwrap().committed;
    handle.decide(false).unwrap();
    let locked_after = engine.submit_local(&conflicting, 4).unwrap().committed;

    let exec = PartitionExecutor::spawn(ExecutorConfig {
        partition: partition_config(),
    })
    .unwrap();
    let session = exec.session();
    assert_eq!(session.prepare(1, &req).unwrap(), Vote::Yes);
    let serial_blocked = session.submit(&conflicting).unwrap().committed;
    assert!(matches!(
        session.decide(1, false).unwrap(),
        DecideOutcome::Applied
    ));
    let serial_after = session.submit(&conflicting).unwrap().committed;

    assert_eq!(locked_blocked, serial_blocked);
    assert!(!locked_blocked, "in-doubt keys must block the local txn");
    assert_eq!(locked_after, serial_after);
    assert!(locked_after, "aborted branch must release the keys");
    drop(session);
    assert_eq!(
        engine.audit_sum().unwrap(),
        exec.audit_sum().unwrap(),
        "conflict corner leaves identical state"
    );
}
