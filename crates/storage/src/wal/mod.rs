//! Write-ahead logging with group commit.
//!
//! The paper identifies logging as one of the three dominant overheads of
//! distributed update transactions (Figure 11), and its shared-everything
//! baseline relies on Shore-MT's Aether-style group commit for short
//! read-write transactions (Section 7.3, [19]). This module provides:
//!
//! * [`record`] — log record encoding, including the 2PC `Prepare` /
//!   `Decision` records distributed transactions force to disk.
//! * [`buffer`] — the pure group-commit buffer: appends return LSNs,
//!   batches are cut for a flush, durability advances on completion.
//! * [`native`] — [`native::LogManager`]: leader/follower flushing over a
//!   [`native::LogDevice`], on the committers' own threads.
//! * [`recovery`] — log analysis and logical redo, including in-doubt
//!   (prepared) transaction reporting for 2PC recovery.

pub mod buffer;
pub mod native;
pub mod record;
pub mod recovery;

pub use buffer::LogBuffer;
pub use native::{FileLogDevice, LogDevice, LogManager, MemLogDevice};
pub use record::{LogPayload, LogRecord};
pub use recovery::{analyze, LogAnalysis, RedoOp};
