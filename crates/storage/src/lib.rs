//! A Shore-MT-style multi-threaded storage manager.
//!
//! The paper builds its prototype on Shore-MT [Johnson et al., EDBT 2009], a
//! scalable shared-everything storage manager. This crate is our from-scratch
//! Rust equivalent, providing the substrate that both the native (real
//! threads) and simulated (virtual time) deployments execute on:
//!
//! * [`page`] — 8 KB slotted pages with an LSN header.
//! * [`store`] — page stores: in-memory and file-backed.
//! * [`buffer`] — a pinning buffer pool with clock eviction (no-steal:
//!   dirty pages are never evicted; see `wal::recovery` for why).
//! * [`btree`] — a page-based B+tree with latch-coupled traversal and
//!   preemptive splits.
//! * [`heap`] — heap files of records addressed by RID.
//! * [`lock`] — hierarchical two-phase locking (IS/IX/S/X, table → row) as a
//!   pure state machine plus a blocking native driver with wait-die deadlock
//!   avoidance.
//! * [`wal`] — write-ahead log: records, a group-commit buffer (pure policy
//!   object), a native log manager whose committers flush as leader and
//!   followers, and logical
//!   snapshot-plus-redo recovery (including 2PC prepare/decision records).
//! * [`table`] — key → payload tables combining a heap file and a B+tree.
//! * [`instance`] — a database instance: catalog + buffer pool + lock
//!   manager + log, with full transaction begin/read/update/insert/commit/
//!   abort and participant-side prepare for distributed transactions.
//!
//! The fine-grained shared-nothing optimization from the paper (one worker
//! per instance ⇒ locking and latching skipped, Sections 6.2 and 7.1.1) is
//! the [`instance::InstanceOptions`] `single_threaded` flag.

#![forbid(unsafe_code)]

pub mod btree;
pub mod buffer;
pub mod error;
pub mod heap;
pub mod instance;
pub mod lock;
#[cfg(feature = "lockcheck")]
pub mod lockcheck;
pub mod page;
pub mod store;
pub mod table;
pub mod wal;

pub use error::{Result, StorageError};
pub use instance::{InstanceOptions, StorageInstance, TxnHandle};
pub use page::{Page, PageId, Rid, PAGE_SIZE};

/// Transaction identifier; allocation order doubles as age for wait-die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Log sequence number: byte offset into the log stream.
pub type Lsn = u64;
