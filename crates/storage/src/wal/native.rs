//! Native log manager: leader/follower flushing over a log device.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{Result, StorageError};
use crate::wal::buffer::LogBuffer;
use crate::wal::record::LogPayload;
use crate::{Lsn, TxnId};

/// Where log batches go.
pub trait LogDevice: Send + Sync {
    fn append(&self, bytes: &[u8]) -> Result<()>;
    fn sync(&self) -> Result<()>;
    /// Entire log contents (recovery).
    fn read_all(&self) -> Result<Vec<u8>>;
    /// Bytes appended over the device's lifetime (the end LSN a reopened
    /// log continues from).
    fn len(&self) -> u64;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bytes a [`MemLogDevice`] retains before it wraps.
pub const MEM_LOG_CAPACITY: usize = 8 << 20;

/// Memory-backed log device (the paper's memory-mapped log disk): a ring of
/// the last [`MEM_LOG_CAPACITY`] bytes. Served deployments never read a
/// memory log back (restart replays file WALs only), so keeping every byte
/// would only grow the process; tests that do recover from memory stay far
/// below the capacity, and a wrapped log refuses to be read rather than
/// handing recovery a truncated stream.
#[derive(Default)]
pub struct MemLogDevice {
    ring: Mutex<Ring>,
}

#[derive(Default)]
struct Ring {
    /// Grows to [`MEM_LOG_CAPACITY`], then is overwritten in place.
    bytes: Vec<u8>,
    /// Bytes ever appended.
    total: u64,
}

impl MemLogDevice {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl LogDevice for MemLogDevice {
    fn append(&self, mut bytes: &[u8]) -> Result<()> {
        let mut ring = self.ring.lock();
        while !bytes.is_empty() {
            let pos = (ring.total % MEM_LOG_CAPACITY as u64) as usize;
            let n = bytes.len().min(MEM_LOG_CAPACITY - pos);
            if pos == ring.bytes.len() {
                ring.bytes.extend_from_slice(&bytes[..n]);
            } else {
                ring.bytes[pos..pos + n].copy_from_slice(&bytes[..n]);
            }
            ring.total += n as u64;
            bytes = &bytes[n..];
        }
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        Ok(())
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        let ring = self.ring.lock();
        if ring.total > MEM_LOG_CAPACITY as u64 {
            return Err(StorageError::LogWrapped {
                appended: ring.total,
                capacity: MEM_LOG_CAPACITY as u64,
            });
        }
        Ok(ring.bytes.clone())
    }
    fn len(&self) -> u64 {
        self.ring.lock().total
    }
}

/// File-backed log device.
pub struct FileLogDevice {
    file: Mutex<File>,
    path: std::path::PathBuf,
}

impl FileLogDevice {
    pub fn open(path: &Path) -> Result<Arc<Self>> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        Ok(Arc::new(FileLogDevice {
            file: Mutex::new(file),
            path: path.to_path_buf(),
        }))
    }
}

impl LogDevice for FileLogDevice {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.file.lock().write_all(bytes)?;
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(std::fs::read(&self.path)?)
    }
    fn len(&self) -> u64 {
        self.file.lock().metadata().map(|m| m.len()).unwrap_or(0)
    }
}

struct LogState {
    buffer: LogBuffer,
    /// A leader is writing a batch to the device (outside this lock).
    flushing: bool,
    /// Committers parked on `flushed` (a flush with none skips the wake,
    /// which is a syscall even with nobody to wake).
    followers: usize,
}

/// Group-commit log manager with leader/follower flushing (cf. Aether,
/// Johnson et al., VLDB 2010).
///
/// `append` is cheap (memcpy into the buffer). `commit_durable` makes the
/// caller's LSN durable on the caller's own thread: a committer that finds
/// no flush in progress becomes the *leader*, cuts everything pending into
/// one batch, and writes and syncs it with the buffer lock released.
/// Committers arriving meanwhile append and wait as *followers*; the first
/// of them to wake after the flush leads the next one, carrying every
/// record that piled up during the device write. Batching therefore comes
/// from device latency alone: a fast device flushes one commit at a time,
/// a slow one groups as many as arrive during a sync, and no thread is
/// ever handed the work.
pub struct LogManager {
    state: Mutex<LogState>,
    /// Wakes followers when a flush completes.
    flushed: Condvar,
    device: Arc<dyn LogDevice>,
}

impl LogManager {
    /// `_group_window` is accepted and ignored: leaders never wait for
    /// followers. It remains only for callers that still pass
    /// `InstanceOptions::group_window`.
    pub fn new(
        device: Arc<dyn LogDevice>,
        flush_threshold: usize,
        _group_window: Duration,
    ) -> Arc<Self> {
        // Continue the LSN stream where the device left off: reopening a
        // non-empty WAL file (restart) appends at its current length, so
        // byte-offset LSNs stay aligned with record positions. A fresh
        // device starts at 0 as before.
        let base_lsn = device.len();
        Arc::new(LogManager {
            state: Mutex::new(LogState {
                buffer: LogBuffer::new_at(flush_threshold, base_lsn),
                flushing: false,
                followers: 0,
            }),
            flushed: Condvar::new(),
            device,
        })
    }

    /// Append a record; returns the LSN to pass to
    /// [`LogManager::commit_durable`] for a forced write. An append that
    /// fills the buffer past its flush threshold leads a flush itself
    /// unless one is already running.
    pub fn append(&self, txn: TxnId, payload: &LogPayload) -> Lsn {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Logging);
        let mut st = self.state.lock();
        let lsn = st.buffer.append(txn, payload);
        if st.buffer.should_flush() && !st.flushing {
            drop(self.lead_flush(st));
        }
        lsn
    }

    /// Block until `lsn` is durable on the device, leading flushes as
    /// needed.
    pub fn commit_durable(&self, lsn: Lsn) {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Logging);
        let mut st = self.state.lock();
        while !st.buffer.is_durable(lsn) {
            if st.flushing {
                st.followers += 1;
                self.flushed.wait(&mut st);
                st.followers -= 1;
            } else {
                st = self.lead_flush(st);
            }
        }
    }

    /// Lead one flush: cut everything pending, write and sync it with the
    /// buffer lock released, then publish the new durable LSN and wake the
    /// followers. Takes the lock from a caller that saw no flush running
    /// and hands it back reacquired.
    fn lead_flush<'a>(&'a self, mut st: MutexGuard<'a, LogState>) -> MutexGuard<'a, LogState> {
        debug_assert!(!st.flushing, "one leader at a time");
        st.flushing = true;
        if let Some((base, batch)) = st.buffer.take_batch() {
            drop(st);
            let _ = self.device.append(&batch);
            let _ = self.device.sync();
            st = self.state.lock();
            st.buffer.mark_durable(base + batch.len() as u64);
            st.buffer.recycle(batch);
        }
        st.flushing = false;
        if st.followers > 0 {
            self.flushed.notify_all();
        }
        st
    }

    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().buffer.durable_lsn()
    }

    pub fn end_lsn(&self) -> Lsn {
        self.state.lock().buffer.end_lsn()
    }

    /// `(bytes appended, flush batches)`.
    pub fn stats(&self) -> (u64, u64) {
        self.state.lock().buffer.stats()
    }

    pub fn device(&self) -> &Arc<dyn LogDevice> {
        &self.device
    }

    /// Make everything appended so far durable (also done on drop).
    pub fn shutdown(&self) {
        let end = self.end_lsn();
        self.commit_durable(end);
    }
}

impl Drop for LogManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committers_flush_on_their_own_thread() {
        let dev = MemLogDevice::new();
        let lm = LogManager::new(dev.clone(), 1 << 16, Duration::ZERO);
        for i in 1..=50u64 {
            let lsn = lm.append(TxnId(i), &LogPayload::Commit);
            lm.commit_durable(lsn);
            assert!(lm.durable_lsn() >= lsn, "commit {i} must be durable");
        }
        assert_eq!(lm.stats().1, 50, "a lone committer flushes once per commit");
        // The tail written after the last force still lands via shutdown.
        let tail = lm.append(TxnId(99), &LogPayload::Abort);
        lm.shutdown();
        assert!(lm.durable_lsn() >= tail);
        assert_eq!(dev.len(), tail);
    }

    #[test]
    fn commit_durable_round_trip() {
        let dev = MemLogDevice::new();
        let lm = LogManager::new(dev.clone(), 1 << 16, Duration::ZERO);
        let lsn = lm.append(TxnId(1), &LogPayload::Commit);
        lm.commit_durable(lsn);
        assert!(lm.durable_lsn() >= lsn);
        assert_eq!(dev.len(), lsn);
    }

    /// A memory device whose `sync` takes a millisecond, like a real disk.
    #[derive(Default)]
    struct SlowSyncDevice {
        inner: MemLogDevice,
        syncs: std::sync::atomic::AtomicU64,
    }

    impl LogDevice for SlowSyncDevice {
        fn append(&self, bytes: &[u8]) -> Result<()> {
            self.inner.append(bytes)
        }
        fn sync(&self) -> Result<()> {
            self.syncs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(1));
            Ok(())
        }
        fn read_all(&self) -> Result<Vec<u8>> {
            self.inner.read_all()
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    #[test]
    fn followers_ride_the_next_flush_of_a_slow_device() {
        let dev = Arc::new(SlowSyncDevice::default());
        let lm = LogManager::new(dev.clone(), 1 << 20, Duration::ZERO);
        let (threads, per_thread) = (8u64, 25u64);
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let lm = Arc::clone(&lm);
                std::thread::spawn(move || {
                    for j in 0..per_thread {
                        let lsn = lm.append(TxnId(i * 1000 + j), &LogPayload::Commit);
                        lm.commit_durable(lsn);
                        assert!(lm.durable_lsn() >= lsn, "returned before durable");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let commits = threads * per_thread;
        let (bytes, flushes) = lm.stats();
        assert_eq!(dev.len(), bytes, "every appended byte reached the device");
        assert_eq!(
            dev.syncs.load(std::sync::atomic::Ordering::Relaxed),
            flushes
        );
        // Committers that arrive during a 1 ms sync share the next one, so
        // the flush count tracks elapsed syncs, not commits.
        assert!(
            flushes * 2 <= commits,
            "{flushes} flushes for {commits} commits: followers did not batch"
        );
    }

    #[test]
    fn no_flusher_thread_is_spawned() {
        let lm = LogManager::new(MemLogDevice::new(), 64, Duration::ZERO);
        for i in 0..10u64 {
            let lsn = lm.append(TxnId(i), &LogPayload::Commit);
            lm.commit_durable(lsn);
        }
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return; // not Linux: nothing to inspect
        };
        for task in tasks.flatten() {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            assert_ne!(comm.trim(), "wal-flusher", "a flusher thread exists");
        }
    }

    #[test]
    fn append_past_the_threshold_flushes_without_a_committer() {
        let dev = MemLogDevice::new();
        let lm = LogManager::new(dev.clone(), 32, Duration::ZERO);
        let mut lsn = 0;
        for i in 0..4u64 {
            lsn = lm.append(TxnId(i), &LogPayload::Begin);
        }
        assert!(lm.stats().1 >= 1, "crossing the threshold leads a flush");
        assert!(dev.len() >= 32);
        lm.commit_durable(lsn);
        assert_eq!(dev.len(), lsn);
    }

    #[test]
    fn memory_ring_wraps_and_refuses_to_read_back() {
        let dev = MemLogDevice::new();
        dev.append(b"head").unwrap();
        assert_eq!(dev.read_all().unwrap(), b"head");
        // Fill the ring exactly: still readable, nothing lost yet.
        let fill = vec![7u8; MEM_LOG_CAPACITY - 4];
        dev.append(&fill).unwrap();
        assert_eq!(dev.len(), MEM_LOG_CAPACITY as u64);
        assert_eq!(dev.read_all().unwrap().len(), MEM_LOG_CAPACITY);
        // One more append overwrites the head in place.
        dev.append(b"tail!").unwrap();
        assert_eq!(
            dev.len(),
            MEM_LOG_CAPACITY as u64 + 5,
            "len counts every byte"
        );
        assert_eq!(dev.ring.lock().bytes.len(), MEM_LOG_CAPACITY, "bounded");
        assert_eq!(&dev.ring.lock().bytes[..5], b"tail!");
        assert!(matches!(
            dev.read_all(),
            Err(StorageError::LogWrapped { appended, capacity })
                if appended == MEM_LOG_CAPACITY as u64 + 5
                    && capacity == MEM_LOG_CAPACITY as u64
        ));
        // A manager reopened over the wrapped device continues its LSNs.
        let lm = LogManager::new(dev.clone(), 64, Duration::ZERO);
        assert_eq!(lm.end_lsn(), dev.len());
        let lsn = lm.append(TxnId(1), &LogPayload::Commit);
        lm.commit_durable(lsn);
        assert_eq!(dev.len(), lsn);
    }

    #[test]
    fn shutdown_flushes_residue() {
        let dev = MemLogDevice::new();
        {
            let lm = LogManager::new(dev.clone(), 1 << 20, Duration::ZERO);
            lm.append(TxnId(1), &LogPayload::Begin);
            lm.append(TxnId(1), &LogPayload::Commit);
            // Dropped without commit_durable.
        }
        assert!(dev.len() > 0, "drop must flush buffered records");
    }

    #[test]
    fn reopened_device_continues_lsns() {
        let dir = std::env::temp_dir().join(format!("islands-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-reopen.log");
        let _ = std::fs::remove_file(&path);
        let lsn1;
        {
            let dev = FileLogDevice::open(&path).unwrap();
            let lm = LogManager::new(dev, 64, Duration::ZERO);
            lsn1 = lm.append(TxnId(1), &LogPayload::Prepare { gtid: 5 });
            lm.commit_durable(lsn1);
        }
        // A second manager over the same file must continue the byte-offset
        // LSN stream, not restart at 0 (which would desync LSNs from record
        // positions and break `mark_durable`'s monotonicity).
        let dev = FileLogDevice::open(&path).unwrap();
        let lm = LogManager::new(dev.clone(), 64, Duration::ZERO);
        assert_eq!(lm.end_lsn(), lsn1);
        assert_eq!(lm.durable_lsn(), lsn1);
        let lsn2 = lm.append(TxnId(2), &LogPayload::Commit);
        assert!(lsn2 > lsn1);
        lm.commit_durable(lsn2);
        let bytes = dev.read_all().unwrap();
        assert_eq!(bytes.len() as u64, lsn2);
        let (first, used) = crate::wal::record::decode(&bytes, 0).unwrap();
        assert_eq!(first.payload, LogPayload::Prepare { gtid: 5 });
        let (second, _) = crate::wal::record::decode(&bytes[used..], used as u64).unwrap();
        assert_eq!(second.payload, LogPayload::Commit);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_device_persists() {
        let dir = std::env::temp_dir().join(format!("islands-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let lsn;
        {
            let dev = FileLogDevice::open(&path).unwrap();
            let lm = LogManager::new(dev, 64, Duration::ZERO);
            lsn = lm.append(TxnId(3), &LogPayload::Prepare { gtid: 9 });
            lm.commit_durable(lsn);
        }
        let dev = FileLogDevice::open(&path).unwrap();
        let bytes = dev.read_all().unwrap();
        assert_eq!(bytes.len() as u64, lsn);
        let (rec, _) = crate::wal::record::decode(&bytes, 0).unwrap();
        assert_eq!(rec.payload, LogPayload::Prepare { gtid: 9 });
        std::fs::remove_file(&path).unwrap();
    }
}
