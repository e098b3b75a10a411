//! A timing wrapper around the real filesystem, handed to the live
//! server through `WalConfig::with_vfs` in the traced run: it counts
//! every write and `fdatasync` the WAL issues and the time spent in
//! each sync.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpd_server::{RealVfs, Vfs, VfsFile};

/// Totals since the wrapper was made. Plain statistics: `Relaxed`
/// suffices, nothing else is published through them.
#[derive(Debug, Default)]
pub struct VfsTotals {
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
    /// Start and end of every sync, for the span log.
    pub sync_log: Mutex<Vec<(Instant, Instant)>>,
}

/// A snapshot of [`VfsTotals`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VfsCounts {
    pub writes: u64,
    pub syncs: u64,
    pub sync_ns: u64,
}

impl VfsCounts {
    pub fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        VfsCounts {
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

#[derive(Debug, Default, Clone)]
pub struct TimingVfs {
    totals: Arc<VfsTotals>,
}

impl TimingVfs {
    pub fn counts(&self) -> VfsCounts {
        let t = &self.totals;
        VfsCounts {
            writes: t.writes.load(Ordering::Relaxed),
            syncs: t.syncs.load(Ordering::Relaxed),
            sync_ns: t.sync_ns.load(Ordering::Relaxed),
        }
    }

    /// Every sync so far, as `(start, end)`.
    pub fn sync_intervals(&self) -> Vec<(Instant, Instant)> {
        self.totals
            .sync_log
            .lock()
            .expect("sync log poisoned")
            .clone()
    }
}

#[derive(Debug)]
struct TimingFile {
    inner: Box<dyn VfsFile>,
    totals: Arc<VfsTotals>,
}

impl VfsFile for TimingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.totals.writes.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.sync_data();
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        self.totals
            .sync_log
            .lock()
            .expect("sync log poisoned")
            .push((start, end));
        self.totals.syncs.fetch_add(1, Ordering::Relaxed);
        self.totals.sync_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl Vfs for TimingVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealVfs.create_dir_all(dir)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        RealVfs.list(dir)
    }
    fn list_dirs(&self, dir: &Path) -> io::Result<Vec<String>> {
        RealVfs.list_dirs(dir)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealVfs.read(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        RealVfs.file_len(path)
    }
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        RealVfs.set_len(path, len)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealVfs.rename(from, to)
    }
    fn open_append(&self, path: &Path, create_new: bool) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(TimingFile {
            inner: RealVfs.open_append(path, create_new)?,
            totals: Arc::clone(&self.totals),
        }))
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        RealVfs.sync_dir(dir)
    }
}
