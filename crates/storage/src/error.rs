//! Error type shared across the storage manager.

use std::fmt;
use std::io;

use crate::TxnId;

/// Storage-level result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

/// All failure modes of the storage manager.
#[derive(Debug)]
pub enum StorageError {
    Io(io::Error),
    /// Page id out of range or never written.
    NoSuchPage(u64),
    /// All buffer frames pinned or dirty (no-steal policy refuses eviction).
    BufferFull,
    /// Key already present in a unique index.
    DuplicateKey(u64),
    KeyNotFound(u64),
    NoSuchTable(String),
    /// A record did not fit into a page.
    RecordTooLarge(usize),
    /// Wait-die decided the requester must abort.
    Deadlock(TxnId),
    /// Lock wait exceeded the configured timeout.
    LockTimeout(TxnId),
    /// Transaction was already finished (committed/aborted).
    TxnFinished(TxnId),
    /// Transaction must abort (e.g. failed prepare).
    MustAbort(TxnId),
    /// Log corruption detected during recovery.
    CorruptLog(String),
    /// Catalog page corrupt or of wrong version.
    CorruptCatalog(String),
    /// A bounded log device overwrote its oldest bytes, so the full log can
    /// no longer be read back.
    LogWrapped {
        appended: u64,
        capacity: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::NoSuchPage(p) => write!(f, "no such page: {p}"),
            StorageError::BufferFull => write!(f, "buffer pool exhausted"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate key: {k}"),
            StorageError::KeyNotFound(k) => write!(f, "key not found: {k}"),
            StorageError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StorageError::RecordTooLarge(n) => write!(f, "record too large: {n} bytes"),
            StorageError::Deadlock(t) => write!(f, "deadlock: {t} must abort (wait-die)"),
            StorageError::LockTimeout(t) => write!(f, "lock timeout for {t}"),
            StorageError::TxnFinished(t) => write!(f, "transaction already finished: {t}"),
            StorageError::MustAbort(t) => write!(f, "transaction must abort: {t}"),
            StorageError::CorruptLog(m) => write!(f, "corrupt log: {m}"),
            StorageError::CorruptCatalog(m) => write!(f, "corrupt catalog: {m}"),
            StorageError::LogWrapped { appended, capacity } => write!(
                f,
                "log wrapped: {appended} bytes appended to a {capacity}-byte ring"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::Deadlock(TxnId(9));
        assert!(e.to_string().contains("txn9"));
        let e = StorageError::Io(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error;
        let e = StorageError::from(io::Error::other("x"));
        assert!(e.source().is_some());
        assert!(StorageError::BufferFull.source().is_none());
    }
}
