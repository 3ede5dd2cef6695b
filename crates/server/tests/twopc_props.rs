//! Property tests dedicated to the 2PC wire frames (`PreparePlan`, `Decision`,
//! `Vote`, `Ack`): exact round trips, byte-level corruption of the decision
//! and vote fields, truncation, size-field abuse, and direction confusion —
//! a coordinator frame fed to a client-side decoder must be a typed error.
//!
//! `wire_props.rs` covers the framing layer generically; this file attacks
//! the 2PC bodies specifically, because a mis-decoded decision bit is a
//! split-brain commit, not a connection reset.

use islands_dtxn::Vote;
use islands_server::wire::{FrameReader, Reply, Request, WireError, WireMessage, FRAME_HEADER};
use islands_server::MAX_FRAME;
use islands_workload::{OpKind, PlanBranch, PlanRequest, TxnRequest};
use proptest::prelude::*;

/// A micro-batch 2PC branch as the coordinator ships it: the batch's plan
/// lowering under a gtid.
fn branch() -> impl Strategy<Value = PlanBranch> {
    (
        any::<u64>(),
        any::<bool>(),
        prop::collection::vec(any::<u64>(), 1..40),
    )
        .prop_map(|(gtid, update, keys)| PlanBranch {
            gtid,
            plan: PlanRequest::from(&TxnRequest {
                kind: if update { OpKind::Update } else { OpKind::Read },
                keys,
                multisite: true,
            }),
        })
}

fn vote() -> impl Strategy<Value = Vote> {
    prop_oneof![Just(Vote::Yes), Just(Vote::No), Just(Vote::ReadOnly)]
}

/// Encode a message and strip the length header, leaving `[tag][body]`.
fn payload_of<M: WireMessage>(m: &M) -> Vec<u8> {
    let mut frame = Vec::new();
    m.encode_frame(&mut frame);
    frame.split_off(FRAME_HEADER)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prepare_branches_round_trip(b in branch()) {
        let payload = payload_of(&Request::PreparePlan(b.clone()));
        prop_assert_eq!(Request::decode_payload(&payload), Ok(Request::PreparePlan(b)));
    }

    #[test]
    fn decisions_round_trip(gtid in any::<u64>(), commit in any::<bool>()) {
        let payload = payload_of(&Request::Decision { gtid, commit });
        prop_assert_eq!(
            Request::decode_payload(&payload),
            Ok(Request::Decision { gtid, commit })
        );
    }

    #[test]
    fn votes_and_acks_round_trip(gtid in any::<u64>(), v in vote()) {
        let vote_payload = payload_of(&Reply::Vote { gtid, vote: v });
        prop_assert_eq!(Reply::decode_payload(&vote_payload), Ok(Reply::Vote { gtid, vote: v }));
        let ack_payload = payload_of(&Reply::Ack { gtid });
        prop_assert_eq!(Reply::decode_payload(&ack_payload), Ok(Reply::Ack { gtid }));
    }

    /// The commit byte admits exactly 0 and 1. Any other value must be a
    /// typed error — decoding 0x02 as "commit" would be a protocol hole.
    #[test]
    fn corrupt_decision_byte_is_rejected(gtid in any::<u64>(), raw in any::<u8>()) {
        let bad = 2 + raw % 254; // 2..=255
        let mut payload = payload_of(&Request::Decision { gtid, commit: true });
        *payload.last_mut().unwrap() = bad;
        prop_assert_eq!(
            Request::decode_payload(&payload),
            Err(WireError::BadBody { tag: payload[0], needed: 9, had: 9 })
        );
    }

    /// Same for the vote byte: only Yes/No/ReadOnly (0/1/2) exist.
    #[test]
    fn corrupt_vote_byte_is_rejected(gtid in any::<u64>(), raw in any::<u8>()) {
        let bad = 3 + raw % 253; // 3..=255
        let mut payload = payload_of(&Reply::Vote { gtid, vote: Vote::Yes });
        *payload.last_mut().unwrap() = bad;
        prop_assert_eq!(
            Reply::decode_payload(&payload),
            Err(WireError::BadBody { tag: payload[0], needed: 9, had: 9 })
        );
    }

    /// Truncating any 2PC frame mid-body: the stream layer waits for more
    /// bytes; the body layer reports a typed error. Never a panic, never a
    /// shorter message that happens to parse.
    #[test]
    fn truncated_twopc_frames_never_decode(b in branch(), cut_seed in any::<u64>()) {
        let mut frame = Vec::new();
        Request::PreparePlan(b).encode_frame(&mut frame);
        let cut = (cut_seed % (frame.len() - 1) as u64) as usize + 1; // 1..len
        let mut rd = FrameReader::new();
        rd.extend(&frame[..cut]);
        prop_assert_eq!(rd.next_payload().unwrap(), None);
        if cut > FRAME_HEADER + 1 {
            prop_assert!(Request::decode_payload(&frame[FRAME_HEADER..cut]).is_err());
        }
    }

    /// Appending trailing garbage to an exact-size 2PC body is an error,
    /// not silently ignored bytes (`exactly`, not `need`).
    #[test]
    fn trailing_garbage_after_twopc_bodies_is_rejected(
        gtid in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        for payload in [
            payload_of(&Request::Decision { gtid, commit: false }),
            payload_of(&Reply::Ack { gtid }),
            payload_of(&Reply::Vote { gtid, vote: Vote::No }),
        ] {
            let mut extended = payload;
            extended.extend_from_slice(&garbage);
            let as_req = Request::decode_payload(&extended);
            let as_rep = Reply::decode_payload(&extended);
            prop_assert!(as_req.is_err() && as_rep.is_err(), "garbage accepted");
        }
    }

    /// Direction confusion: participant->coordinator frames (Vote/Ack) fed
    /// to the request decoder — and vice versa — are unknown tags, so a
    /// confused peer fails loudly instead of misreading a gtid.
    #[test]
    fn twopc_frames_do_not_cross_directions(b in branch(), gtid in any::<u64>(), v in vote()) {
        let prep = payload_of(&Request::PreparePlan(b));
        prop_assert_eq!(Reply::decode_payload(&prep), Err(WireError::UnknownTag(prep[0])));
        let vote = payload_of(&Reply::Vote { gtid, vote: v });
        prop_assert_eq!(Request::decode_payload(&vote), Err(WireError::UnknownTag(vote[0])));
        let ack = payload_of(&Reply::Ack { gtid });
        prop_assert_eq!(Request::decode_payload(&ack), Err(WireError::UnknownTag(ack[0])));
    }

    /// Arbitrary byte soup through both decoders: typed error or a valid
    /// message, never a panic (the decoders are the attack surface of every
    /// listening socket).
    #[test]
    fn arbitrary_payloads_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode_payload(&bytes);
        let _ = Reply::decode_payload(&bytes);
        let mut rd = FrameReader::new();
        rd.extend(&bytes);
        while let Ok(Some(_)) = rd.next_payload() {}
    }

    /// A length header one past MAX_FRAME is rejected even when the declared
    /// body would contain a well-formed 2PC message.
    #[test]
    fn oversized_header_rejected_before_body_inspection(gtid in any::<u64>()) {
        let payload = payload_of(&Request::Decision { gtid, commit: true });
        let mut frame = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let mut rd = FrameReader::new();
        rd.extend(&frame);
        prop_assert_eq!(rd.next_payload(), Err(WireError::Oversized { len: MAX_FRAME + 1 }));
    }
}
