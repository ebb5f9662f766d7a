//! File-backed devices for the benchmark, built only from public traits.
//!
//! [`FilePool`] is a [`DevicePool`] that creates one [`FileWormDevice`]
//! per volume in a fresh directory and removes the directory when dropped.
//! Every device is wrapped in a [`BenchDevice`] decorator that times calls
//! (as child spans during the traced run, and their on-CPU time inside
//! [`trace::own_cpu`]), captures a sample of written block images for the
//! format timings, and tracks the file's *synced prefix*: `append_blocks`
//! (one write plus `sync_data`) and `sync` make everything written so far
//! durable, `append_block` does not. [`FilePool::power_loss`] truncates
//! every file to that prefix. Write and read counts come from the
//! service's own device statistics.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use clio_device::{FileWormDevice, LogDevice, SharedDevice};
use clio_format::VolumeLabel;
use clio_testkit::sync::atomic::{AtomicU64, Ordering};
use clio_testkit::sync::Mutex;
use clio_types::{BlockNo, Result, VolumeId};
use clio_volume::DevicePool;

use crate::trace::{self, Kind};

/// Block images kept for the format timings.
const CAPTURE_BLOCKS: usize = 256;

/// Blocks per volume: large enough that no run fills a volume.
const CAPACITY_BLOCKS: u64 = 1 << 24;

/// Data-block images written while tracing, shared by a pool's devices.
type Captured = Arc<Mutex<Vec<Vec<u8>>>>;

/// The timing, capturing, durability-tracking decorator.
pub struct BenchDevice {
    inner: FileWormDevice,
    path: PathBuf,
    block_size: u64,
    captured: Captured,
    /// Bytes of the file known to be on stable storage.
    synced: AtomicU64,
}

impl BenchDevice {
    fn written_bytes(&self) -> u64 {
        self.inner.query_end().map_or(0, |b| b.0) * self.block_size
    }

    fn mark_synced(&self, bytes: u64) {
        self.synced.fetch_max(bytes, Ordering::SeqCst);
    }

    /// Whether data block `db` (device block `db + 1`, after the label)
    /// is wholly on stable storage.
    pub fn is_synced(&self, db: u64) -> bool {
        self.synced.load(Ordering::SeqCst) >= (db + 2) * self.block_size
    }

    /// The volume whose label this device holds, if it has one.
    fn volume(&self) -> Option<VolumeId> {
        let mut label = vec![0u8; self.block_size as usize];
        self.inner.read_block(BlockNo(0), &mut label).ok()?;
        VolumeLabel::decode(&label).ok().map(|l| l.volume)
    }

    fn capture(&self, first: BlockNo, blocks: &[&[u8]]) {
        if !trace::enabled() {
            return;
        }
        let mut cap = self.captured.lock();
        for (i, b) in blocks.iter().enumerate() {
            // Block 0 of every volume is its label, not a log block.
            if cap.len() < CAPTURE_BLOCKS && first.0 + i as u64 > 0 {
                cap.push(b.to_vec());
            }
        }
    }
}

impl LogDevice for BenchDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn query_end(&self) -> Option<BlockNo> {
        self.inner.query_end()
    }

    fn is_written(&self, block: BlockNo) -> Result<bool> {
        self.inner.is_written(block)
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        trace::child(Kind::DevAppendBlock, || {
            self.inner.append_block(expected, data)
        })?;
        self.capture(expected, &[data]);
        Ok(())
    }

    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        trace::child(Kind::DevAppendBlocks, || {
            self.inner.append_blocks(expected, blocks)
        })?;
        self.capture(expected, blocks);
        self.mark_synced((expected.0 + blocks.len() as u64) * self.block_size);
        Ok(())
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        trace::child(Kind::DevReadBlock, || self.inner.read_block(block, buf))
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        self.inner.invalidate_block(block)
    }

    fn sync(&self) -> Result<()> {
        let end = self.written_bytes();
        trace::child(Kind::DevSync, || self.inner.sync())?;
        self.mark_synced(end);
        Ok(())
    }
}

/// Makes the file system commit its pending work now — above all the
/// freeing (and, on a `discard` mount, trimming) of deleted device files —
/// so that the next timed sync does not pay for it.
pub fn settle(dir: &Path) -> Result<()> {
    fs::create_dir_all(dir)?;
    let path = dir.join(".settle");
    fs::File::create(&path)?.sync_all()?;
    fs::remove_file(&path)?;
    Ok(())
}

/// A pool of file-backed devices in a private directory.
pub struct FilePool {
    dir: PathBuf,
    block_size: usize,
    captured: Captured,
    devices: Mutex<Vec<Arc<BenchDevice>>>,
}

impl FilePool {
    /// A pool whose volumes live in the fresh directory `dir`.
    pub fn create(dir: &Path, block_size: usize) -> Result<Arc<FilePool>> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;
        Ok(Arc::new(FilePool {
            dir: dir.to_path_buf(),
            block_size,
            captured: Arc::new(Mutex::with_class(Vec::new(), "perfbench.capture")),
            devices: Mutex::with_class(Vec::new(), "perfbench.pool"),
        }))
    }

    /// The data-block images captured while tracing was on.
    pub fn captured(&self) -> Vec<Vec<u8>> {
        self.captured.lock().clone()
    }

    /// The device formatted as `volume`.
    pub fn device_of(&self, volume: VolumeId) -> Option<Arc<BenchDevice>> {
        self.devices
            .lock()
            .iter()
            .find(|d| d.volume() == Some(volume))
            .cloned()
    }

    /// Every device handed out so far — what survives a crash.
    pub fn devices(&self) -> Vec<SharedDevice> {
        self.devices
            .lock()
            .iter()
            .map(|d| d.clone() as SharedDevice)
            .collect()
    }

    /// Simulates a power loss: every device file loses whatever was
    /// written after its last sync.
    pub fn power_loss(&self) -> Result<()> {
        for d in self.devices.lock().iter() {
            let synced = d.synced.load(Ordering::SeqCst);
            fs::OpenOptions::new()
                .write(true)
                .open(&d.path)?
                .set_len(synced)?;
        }
        Ok(())
    }
}

impl DevicePool for FilePool {
    fn next_device(&self) -> Result<SharedDevice> {
        let mut devices = self.devices.lock();
        let path = self.dir.join(format!("vol{:04}.worm", devices.len()));
        let inner = FileWormDevice::create(&path, self.block_size, CAPACITY_BLOCKS)?;
        let dev = Arc::new(BenchDevice {
            inner,
            path,
            block_size: self.block_size as u64,
            captured: self.captured.clone(),
            synced: AtomicU64::new(0),
        });
        devices.push(dev.clone());
        Ok(dev)
    }
}

impl Drop for FilePool {
    fn drop(&mut self) {
        // Best effort: a failure leaves files under the scratch directory,
        // which the run removes as a whole at exit.
        let _ = fs::remove_dir_all(&self.dir);
    }
}
