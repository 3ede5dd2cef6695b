//! The pure group-commit log buffer.
//!
//! Appends return LSNs; a flush cuts everything pending into one batch for
//! the device and durability advances when the write completes. When a
//! flush happens is up to the log manager (the native
//! [`LogManager`](crate::wal::LogManager) flushes when a committer needs
//! durability or the buffer crosses `flush_threshold`). The buffer keeps
//! two allocations and swaps them: the spent batch handed back through
//! [`LogBuffer::recycle`] becomes the next fill buffer, so steady-state
//! flushing allocates nothing.

use crate::wal::record::{self, LogPayload};
use crate::{Lsn, TxnId};

/// In-memory unflushed log tail.
#[derive(Debug)]
pub struct LogBuffer {
    buf: Vec<u8>,
    /// The spent batch allocation, reused as the next `buf`.
    spare: Vec<u8>,
    /// LSN of `buf[0]`.
    base_lsn: Lsn,
    durable_lsn: Lsn,
    flush_threshold: usize,
    /// Bytes appended over all time (equals end LSN).
    appended: u64,
    flushes: u64,
}

impl LogBuffer {
    pub fn new(flush_threshold: usize) -> Self {
        Self::new_at(flush_threshold, 0)
    }

    /// A buffer whose stream continues at `base_lsn` — reopening a log
    /// device that already holds `base_lsn` durable bytes (restart over an
    /// existing WAL file). Everything up to `base_lsn` is already on the
    /// device, so it starts durable.
    pub fn new_at(flush_threshold: usize, base_lsn: Lsn) -> Self {
        LogBuffer {
            buf: Vec::with_capacity(flush_threshold * 2),
            spare: Vec::new(),
            base_lsn,
            durable_lsn: base_lsn,
            flush_threshold,
            appended: base_lsn,
            flushes: 0,
        }
    }

    /// Append a record; returns the LSN that must become durable for the
    /// record to be durable (its end LSN).
    pub fn append(&mut self, txn: TxnId, payload: &LogPayload) -> Lsn {
        record::encode(txn, payload, &mut self.buf);
        self.appended = self.base_lsn + self.buf.len() as u64;
        self.appended
    }

    /// Current end of the log stream.
    pub fn end_lsn(&self) -> Lsn {
        self.base_lsn + self.buf.len() as u64
    }

    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    pub fn is_durable(&self, lsn: Lsn) -> bool {
        self.durable_lsn >= lsn
    }

    /// Unflushed bytes currently buffered.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Size-based flush trigger.
    pub fn should_flush(&self) -> bool {
        self.buf.len() >= self.flush_threshold
    }

    /// Cut a batch for the device: returns `(batch_base_lsn, bytes)`, or
    /// `None` if nothing is pending. New appends continue at the correct
    /// LSN immediately; call [`LogBuffer::mark_durable`] once the device
    /// write completes, then hand the batch back to [`LogBuffer::recycle`].
    pub fn take_batch(&mut self) -> Option<(Lsn, Vec<u8>)> {
        if self.buf.is_empty() {
            return None;
        }
        let base = self.base_lsn;
        let bytes = std::mem::replace(&mut self.buf, std::mem::take(&mut self.spare));
        self.base_lsn = base + bytes.len() as u64;
        self.flushes += 1;
        Some((base, bytes))
    }

    /// Device write up to `upto` completed.
    pub fn mark_durable(&mut self, upto: Lsn) {
        debug_assert!(upto <= self.base_lsn, "durable beyond taken batches");
        self.durable_lsn = self.durable_lsn.max(upto);
    }

    /// Return a written batch's allocation for reuse by a later
    /// [`take_batch`](Self::take_batch).
    pub fn recycle(&mut self, mut batch: Vec<u8>) {
        batch.clear();
        if batch.capacity() > self.spare.capacity() {
            self.spare = batch;
        }
    }

    /// `(bytes appended, flush batches cut)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.appended, self.flushes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_advances_lsn_by_encoded_len() {
        let mut lb = LogBuffer::new(1024);
        let l1 = lb.append(TxnId(1), &LogPayload::Begin);
        let l2 = lb.append(TxnId(1), &LogPayload::Commit);
        assert_eq!(l1, record::encoded_len(&LogPayload::Begin) as u64);
        assert_eq!(l2, l1 + record::encoded_len(&LogPayload::Commit) as u64);
        assert_eq!(lb.end_lsn(), l2);
    }

    #[test]
    fn durability_ratchets_through_batches() {
        let mut lb = LogBuffer::new(16);
        let l1 = lb.append(TxnId(1), &LogPayload::Commit);
        assert!(!lb.is_durable(l1));
        let (base, bytes) = lb.take_batch().unwrap();
        assert_eq!(base, 0);
        lb.mark_durable(base + bytes.len() as u64);
        assert!(lb.is_durable(l1));

        // Appends during an in-flight batch keep correct LSNs.
        let l2 = lb.append(TxnId(2), &LogPayload::Commit);
        assert_eq!(l2, l1 + bytes.len() as u64); // the batch was one Begin record, so l2 == l1*2
        let (base2, bytes2) = lb.take_batch().unwrap();
        assert_eq!(base2, l1);
        lb.mark_durable(base2 + bytes2.len() as u64);
        assert!(lb.is_durable(l2));
    }

    #[test]
    fn threshold_triggers_flush_hint() {
        let mut lb = LogBuffer::new(32);
        assert!(!lb.should_flush());
        lb.append(TxnId(1), &LogPayload::Begin); // 13 bytes
        assert!(!lb.should_flush());
        lb.append(TxnId(1), &LogPayload::Begin);
        lb.append(TxnId(1), &LogPayload::Begin);
        assert!(lb.should_flush());
    }

    #[test]
    fn recycled_batches_keep_their_capacity() {
        let mut lb = LogBuffer::new(64);
        lb.append(TxnId(1), &LogPayload::Commit);
        let (_, first) = lb.take_batch().unwrap();
        let (ptr, cap) = (first.as_ptr(), first.capacity());
        assert!(cap >= 128, "the first batch is the preallocated buffer");
        lb.recycle(first);
        // The next fill buffer is the spare (empty); the one after that is
        // the recycled allocation itself.
        lb.append(TxnId(2), &LogPayload::Commit);
        let (_, second) = lb.take_batch().unwrap();
        lb.recycle(second);
        lb.append(TxnId(3), &LogPayload::Commit);
        let (_, third) = lb.take_batch().unwrap();
        assert_eq!(third.as_ptr(), ptr, "the spent batch was reused");
        assert_eq!(third.capacity(), cap);
        assert_eq!(
            lb.end_lsn(),
            3 * record::encoded_len(&LogPayload::Commit) as u64
        );
    }

    #[test]
    fn batches_concatenate_to_full_stream() {
        let mut lb = LogBuffer::new(8);
        let mut expect = Vec::new();
        for i in 0..10u64 {
            record::encode(TxnId(i), &LogPayload::Commit, &mut expect);
            lb.append(TxnId(i), &LogPayload::Commit);
            if i % 3 == 0 {
                if let Some((_, b)) = lb.take_batch() {
                    lb.mark_durable(lb.base_lsn());
                    drop(b);
                }
            }
        }
        // Not comparing bytes here (batches were dropped); but the stream
        // position must match the reference encoding length.
        assert_eq!(lb.end_lsn() as usize, expect.len());
    }

    impl LogBuffer {
        fn base_lsn(&self) -> Lsn {
            self.base_lsn
        }
    }
}
