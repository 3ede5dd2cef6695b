//! Property tests for the wire protocol: arbitrary messages survive an
//! encode/decode round trip, every truncation of a valid stream is either
//! "wait for more bytes" or a typed error (never a panic, never a wrong
//! message), and hostile length fields are rejected.

use islands_dtxn::Vote;
use islands_obs::{HistSnapshot, Snapshot, BUCKETS, NCATS, NCLASSES};
use islands_server::wire::{FrameReader, Reply, Request, WireError, WireMessage, FRAME_HEADER};
use islands_server::{ServerStats, MAX_FRAME};
use islands_workload::{OpKind, PlanBranch, PlanClass, PlanRequest, PlanStep, StepOp, TxnRequest};
use proptest::prelude::*;

fn txn_request() -> impl Strategy<Value = TxnRequest> {
    (
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(any::<u64>(), 0..40),
    )
        .prop_map(|(update, multisite, keys)| TxnRequest {
            kind: if update { OpKind::Update } else { OpKind::Read },
            keys,
            multisite,
        })
}

fn plan_step() -> impl Strategy<Value = PlanStep> {
    prop_oneof![
        (
            0u32..8,
            any::<u64>(),
            prop_oneof![
                Just(StepOp::Read),
                Just(StepOp::Update),
                Just(StepOp::Insert)
            ],
        )
            .prop_map(|(table, key, op)| PlanStep::point(table, key, op)),
        (0u32..8, any::<u64>(), 1u8..=255)
            .prop_map(|(table, key, span)| PlanStep::range(table, key, span)),
    ]
}

fn plan_request() -> impl Strategy<Value = PlanRequest> {
    (
        prop_oneof![
            Just(PlanClass::Generic),
            Just(PlanClass::NewOrder),
            Just(PlanClass::Payment)
        ],
        any::<bool>(),
        prop::collection::vec(plan_step(), 0..24),
    )
        .prop_map(|(class, multisite, steps)| PlanRequest {
            class,
            multisite,
            steps,
        })
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        txn_request().prop_map(Request::Submit),
        Just(Request::Ping),
        Just(Request::Drain),
        Just(Request::Stats),
        Just(Request::Audit),
        (any::<u64>(), txn_request()).prop_map(|(gtid, req)| Request::PreparePlan(PlanBranch {
            gtid,
            plan: PlanRequest::from(&req)
        })),
        (any::<u64>(), any::<bool>()).prop_map(|(gtid, commit)| Request::Decision { gtid, commit }),
        plan_request().prop_map(Request::SubmitPlan),
        (any::<u64>(), plan_request())
            .prop_map(|(gtid, plan)| Request::PreparePlan(PlanBranch { gtid, plan })),
    ]
}

fn hist_snapshot() -> impl Strategy<Value = HistSnapshot> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<u64>(), BUCKETS..BUCKETS + 1),
    )
        .prop_map(|(count, sum_ns, buckets)| {
            let mut h = HistSnapshot {
                count,
                sum_ns,
                ..HistSnapshot::default()
            };
            h.buckets.copy_from_slice(&buckets);
            h
        })
}

fn server_stats() -> impl Strategy<Value = ServerStats> {
    prop::collection::vec(any::<u64>(), 9..10).prop_map(|v| ServerStats {
        connections: v[0],
        requests: v[1],
        commits: v[2],
        aborts: v[3],
        errors: v[4],
        prepares: v[5],
        decisions: v[6],
        presumed_aborts: v[7],
        in_doubt: v[8],
    })
}

fn obs_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<u64>(), NCLASSES * NCATS..NCLASSES * NCATS + 1),
        prop::collection::vec(any::<u64>(), NCLASSES..NCLASSES + 1),
        prop::collection::vec(hist_snapshot(), NCLASSES + 3..NCLASSES + 4),
    )
        .prop_map(|(enabled, queue_depth, in_doubt, phases, txns, hists)| {
            let mut s = Snapshot {
                enabled,
                queue_depth,
                in_doubt,
                ..Snapshot::default()
            };
            for (i, v) in phases.iter().enumerate() {
                s.phase_ns[i / NCATS][i % NCATS] = *v;
            }
            s.txns.copy_from_slice(&txns);
            s.txn_us.copy_from_slice(&hists[..NCLASSES]);
            s.prepare_us = hists[NCLASSES];
            s.decision_us = hists[NCLASSES + 1];
            s.parked_us = hists[NCLASSES + 2];
            s
        })
}

fn vote() -> impl Strategy<Value = Vote> {
    prop_oneof![Just(Vote::Yes), Just(Vote::No), Just(Vote::ReadOnly)]
}

fn reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        (any::<bool>(), any::<u32>(), any::<u64>()).prop_map(|(d, r, us)| Reply::Committed {
            distributed: d,
            retries: r,
            server_micros: us,
        }),
        any::<u32>().prop_map(|retries| Reply::Aborted { retries }),
        prop::collection::vec(any::<u8>(), 0..200).prop_map(|bytes| Reply::Error {
            message: String::from_utf8_lossy(&bytes).into_owned(),
        }),
        Just(Reply::Pong),
        Just(Reply::Draining),
        (any::<u64>(), vote()).prop_map(|(gtid, vote)| Reply::Vote { gtid, vote }),
        any::<u64>().prop_map(|gtid| Reply::Ack { gtid }),
        (server_stats(), obs_snapshot()).prop_map(|(server, obs)| Reply::Stats {
            server,
            obs: Box::new(obs),
        }),
        any::<u64>().prop_map(|sum| Reply::AuditSum { sum }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_round_trip(req in request()) {
        let mut frame = Vec::new();
        req.encode_frame(&mut frame);
        let mut rd = FrameReader::new();
        rd.extend(&frame);
        prop_assert_eq!(rd.next_message::<Request>().unwrap(), Some(req));
        prop_assert_eq!(rd.next_message::<Request>().unwrap(), None);
        prop_assert_eq!(rd.buffered(), 0);
    }

    #[test]
    fn replies_round_trip(rep in reply()) {
        let mut frame = Vec::new();
        rep.encode_frame(&mut frame);
        let mut rd = FrameReader::new();
        rd.extend(&frame);
        prop_assert_eq!(rd.next_message::<Reply>().unwrap(), Some(rep));
    }

    #[test]
    fn pipelined_streams_reassemble_from_any_chunking(
        reqs in prop::collection::vec(request(), 1..20),
        chunk in 1usize..64,
    ) {
        let mut bytes = Vec::new();
        for r in &reqs {
            r.encode_frame(&mut bytes);
        }
        let mut rd = FrameReader::new();
        let mut decoded = Vec::new();
        for piece in bytes.chunks(chunk) {
            rd.extend(piece);
            while let Some(r) = rd.next_message::<Request>().unwrap() {
                decoded.push(r);
            }
        }
        prop_assert_eq!(decoded, reqs);
    }

    /// Cutting a valid frame anywhere yields `None` (incomplete) from the
    /// stream layer, and a typed `BadBody`/`Truncated` error from the body
    /// layer if the cut landed inside the payload — never a panic.
    #[test]
    fn truncated_frames_never_panic_and_never_decode(req in request(), cut_seed in any::<u64>()) {
        let mut frame = Vec::new();
        req.encode_frame(&mut frame);
        let cut = (cut_seed % frame.len() as u64) as usize; // 0 <= cut < len
        let mut rd = FrameReader::new();
        rd.extend(&frame[..cut]);
        // The stream layer must ask for more bytes, not hallucinate a frame.
        prop_assert_eq!(rd.next_payload().unwrap(), None);
        // Decoding the truncated *payload* directly must be a typed error.
        if cut > FRAME_HEADER {
            let body = &frame[FRAME_HEADER..cut];
            match Request::decode_payload(body) {
                Ok(got) => prop_assert!(
                    false,
                    "truncated payload decoded as {got:?} (cut={cut})"
                ),
                Err(
                    WireError::BadBody { .. }
                    | WireError::Request(_)
                    | WireError::EmptyFrame
                    | WireError::UnknownTag(_),
                ) => {}
                Err(e) => prop_assert!(false, "unexpected error class {e:?}"),
            }
        }
    }

    /// The stats reply gets its own truncation guarantee: it is by far the
    /// largest frame (fixed ~2 KiB body: server counters + obs snapshot) and
    /// its body length is exact, so *every* strict prefix must be a typed
    /// error — never a panic, never a half-read snapshot. (The generic reply
    /// strategy can't be used here: an Error reply's body is raw UTF-8 with
    /// no length prefix, so its truncations legitimately decode.)
    #[test]
    fn truncated_stats_replies_never_panic_and_never_decode(
        server in server_stats(),
        obs in obs_snapshot(),
        cut_seed in any::<u64>(),
    ) {
        let rep = Reply::Stats { server, obs: Box::new(obs) };
        let mut frame = Vec::new();
        rep.encode_frame(&mut frame);
        let cut = (cut_seed % frame.len() as u64) as usize;
        let mut rd = FrameReader::new();
        rd.extend(&frame[..cut]);
        prop_assert_eq!(rd.next_payload().unwrap(), None);
        if cut > FRAME_HEADER {
            let body = &frame[FRAME_HEADER..cut];
            match Reply::decode_payload(body) {
                Ok(got) => prop_assert!(
                    false,
                    "truncated stats reply decoded as {got:?} (cut={cut})"
                ),
                Err(WireError::BadBody { .. } | WireError::EmptyFrame) => {}
                Err(e) => prop_assert!(false, "unexpected error class {e:?}"),
            }
        }
    }

    /// Any header declaring more than MAX_FRAME bytes is rejected before a
    /// single payload byte is buffered or allocated.
    #[test]
    fn oversized_frames_rejected(extra in 1u32..u32::MAX - MAX_FRAME as u32) {
        let len = MAX_FRAME as u32 + extra;
        let mut rd = FrameReader::new();
        rd.extend(&len.to_le_bytes());
        prop_assert_eq!(
            rd.next_payload(),
            Err(WireError::Oversized { len: len as usize })
        );
    }
}
