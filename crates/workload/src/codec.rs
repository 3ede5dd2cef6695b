//! Byte codec for request specs.
//!
//! [`TxnRequest`] is the unit a client ships to a served deployment, so it
//! needs a stable, allocation-light byte form. The encoding is hand-rolled
//! little-endian (no serde in this workspace):
//!
//! ```text
//! kind      u8   0 = Read, 1 = Update
//! multisite u8   0 = local, 1 = multisite
//! n_keys    u32  number of keys (bounded by MAX_KEYS_PER_REQUEST)
//! keys      n_keys × u64
//! ```
//!
//! Decoding is total: every byte slice either yields a request plus the
//! number of bytes consumed, or a typed [`CodecError`] — truncated input is
//! an error, never a panic, so a server can feed it frames straight off a
//! socket.

use crate::spec::{OpKind, TxnRequest};

/// Upper bound on keys per request: a decoder-side guard against a
/// hostile/corrupt length field causing a giant allocation. The paper's
/// microbenchmarks touch at most tens of rows per transaction.
pub const MAX_KEYS_PER_REQUEST: u32 = 4096;

/// Why a byte slice failed to decode as a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    Truncated {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes actually available.
        had: usize,
    },
    /// Unknown [`OpKind`] discriminant.
    BadKind(u8),
    /// Multisite flag was neither 0 nor 1.
    BadFlag(u8),
    /// Key count exceeds [`MAX_KEYS_PER_REQUEST`].
    TooManyKeys(u32),
    /// Unknown [`StepOp`](crate::plan::StepOp) discriminant in a plan step.
    BadOp(u8),
    /// Unknown [`PlanClass`](crate::plan::PlanClass) discriminant.
    BadClass(u8),
    /// Span byte inconsistent with the step op: nonzero on a point op, or
    /// zero on a range read.
    BadSpan(u8),
    /// Step count exceeds [`MAX_STEPS_PER_PLAN`](crate::plan::MAX_STEPS_PER_PLAN).
    TooManySteps(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, had } => {
                write!(f, "truncated request: needed {needed} bytes, had {had}")
            }
            CodecError::BadKind(k) => write!(f, "unknown op kind discriminant {k}"),
            CodecError::BadFlag(v) => write!(f, "multisite flag must be 0/1, got {v}"),
            CodecError::TooManyKeys(n) => {
                write!(f, "{n} keys exceeds limit {MAX_KEYS_PER_REQUEST}")
            }
            CodecError::BadOp(b) => write!(f, "unknown plan step op discriminant {b}"),
            CodecError::BadClass(b) => write!(f, "unknown plan class discriminant {b}"),
            CodecError::BadSpan(s) => {
                write!(f, "span {s} inconsistent with step op (range reads only)")
            }
            CodecError::TooManySteps(n) => {
                write!(
                    f,
                    "{n} steps exceeds limit {}",
                    crate::plan::MAX_STEPS_PER_PLAN
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl OpKind {
    fn to_byte(self) -> u8 {
        match self {
            OpKind::Read => 0,
            OpKind::Update => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, CodecError> {
        match b {
            0 => Ok(OpKind::Read),
            1 => Ok(OpKind::Update),
            other => Err(CodecError::BadKind(other)),
        }
    }
}

impl TxnRequest {
    /// Exact encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        1 + 1 + 4 + 8 * self.keys.len()
    }

    /// Append the byte form to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.keys.len() <= MAX_KEYS_PER_REQUEST as usize);
        buf.reserve(self.encoded_len());
        buf.push(self.kind.to_byte());
        buf.push(self.multisite as u8);
        buf.extend_from_slice(&(self.keys.len() as u32).to_le_bytes());
        for &k in &self.keys {
            buf.extend_from_slice(&k.to_le_bytes());
        }
    }

    /// Decode a request from the front of `bytes`; returns the request and
    /// the number of bytes consumed.
    pub fn decode_from(bytes: &[u8]) -> Result<(Self, usize), CodecError> {
        const HEADER: usize = 6;
        if bytes.len() < HEADER {
            return Err(CodecError::Truncated {
                needed: HEADER,
                had: bytes.len(),
            });
        }
        let kind = OpKind::from_byte(bytes[0])?;
        let multisite = match bytes[1] {
            0 => false,
            1 => true,
            other => return Err(CodecError::BadFlag(other)),
        };
        let n = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes"));
        if n > MAX_KEYS_PER_REQUEST {
            return Err(CodecError::TooManyKeys(n));
        }
        let total = HEADER + 8 * n as usize;
        if bytes.len() < total {
            return Err(CodecError::Truncated {
                needed: total,
                had: bytes.len(),
            });
        }
        let keys = bytes[HEADER..total]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Ok((
            TxnRequest {
                kind,
                keys,
                multisite,
            },
            total,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: OpKind, keys: &[u64], multisite: bool) -> TxnRequest {
        TxnRequest {
            kind,
            keys: keys.to_vec(),
            multisite,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        for r in [
            req(OpKind::Read, &[0], false),
            req(OpKind::Update, &[u64::MAX, 0, 7, 1 << 40], true),
            req(OpKind::Read, &[], false),
        ] {
            let mut buf = Vec::new();
            r.encode_into(&mut buf);
            assert_eq!(buf.len(), r.encoded_len());
            let (back, used) = TxnRequest::decode_from(&buf).unwrap();
            assert_eq!(back, r);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn trailing_bytes_are_left_alone() {
        let r = req(OpKind::Update, &[1, 2], true);
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        let used = buf.len();
        buf.extend_from_slice(&[0xAA; 13]);
        let (back, consumed) = TxnRequest::decode_from(&buf).unwrap();
        assert_eq!(back, r);
        assert_eq!(consumed, used);
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let r = req(OpKind::Update, &[5, 6, 7], true);
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        for cut in 0..buf.len() {
            match TxnRequest::decode_from(&buf[..cut]) {
                Err(CodecError::Truncated { needed, had }) => {
                    assert_eq!(had, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_discriminants_are_rejected() {
        let mut buf = Vec::new();
        req(OpKind::Read, &[1], false).encode_into(&mut buf);
        let mut bad_kind = buf.clone();
        bad_kind[0] = 9;
        assert_eq!(
            TxnRequest::decode_from(&bad_kind),
            Err(CodecError::BadKind(9))
        );
        let mut bad_flag = buf.clone();
        bad_flag[1] = 2;
        assert_eq!(
            TxnRequest::decode_from(&bad_flag),
            Err(CodecError::BadFlag(2))
        );
    }

    #[test]
    fn hostile_key_count_is_rejected_before_allocation() {
        let mut buf = vec![0u8, 0u8];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            TxnRequest::decode_from(&buf),
            Err(CodecError::TooManyKeys(u32::MAX))
        );
    }
}
