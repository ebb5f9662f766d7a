//! Byte-for-byte conformance of every `append_blocks` implementation with
//! a loop of `append_block`, driven by the shared schedules in
//! `clio_testkit::devcheck`, plus targeted tests for the behaviours that
//! only exist on the vectored path (mid-batch tears, replica catch-up,
//! batch accounting, staged-tail sealing).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clio_device::traits::locate_end;
use clio_device::{
    DeviceStats, FaultPlan, FaultyDevice, FileWormDevice, InstrumentedDevice, LogDevice,
    MemWormDevice, MirroredDevice, RamTailDevice, SharedDevice,
};
use clio_obs::MetricsRegistry;
use clio_testkit::devcheck::{check_batch_append_conformance, BatchDevice};
use clio_types::{BlockNo, ClioError, Result};

const BLOCK: usize = 32;
const CAPACITY: u64 = 64;

/// Adapts any `LogDevice` to the harness's closure interface.
fn adapt(dev: SharedDevice) -> BatchDevice {
    let (d1, d2, d3, d4) = (dev.clone(), dev.clone(), dev.clone(), dev);
    BatchDevice {
        append_batch: Box::new(move |expected, imgs| {
            let refs: Vec<&[u8]> = imgs.iter().map(Vec::as_slice).collect();
            d1.append_blocks(BlockNo(expected), &refs)
                .map_err(|e| e.to_string())
        }),
        append_one: Box::new(move |expected, img| {
            d2.append_block(BlockNo(expected), img)
                .map_err(|e| e.to_string())
        }),
        read: Box::new(move |b| {
            let mut buf = vec![0u8; d3.block_size()];
            d3.read_block(BlockNo(b), &mut buf)
                .map(|()| buf)
                .map_err(|e| e.to_string())
        }),
        end: Box::new(move || match d4.query_end() {
            Some(e) => e.0,
            None => locate_end(&*d4).expect("locate end").0 .0,
        }),
    }
}

/// A wrapper that deliberately does NOT override `append_blocks`, so the
/// trait's default loop fallback is what the harness exercises.
struct DefaultFallbackOnly(SharedDevice);

impl LogDevice for DefaultFallbackOnly {
    fn block_size(&self) -> usize {
        self.0.block_size()
    }
    fn capacity_blocks(&self) -> u64 {
        self.0.capacity_blocks()
    }
    fn query_end(&self) -> Option<BlockNo> {
        self.0.query_end()
    }
    fn is_written(&self, block: BlockNo) -> Result<bool> {
        self.0.is_written(block)
    }
    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        self.0.append_block(expected, data)
    }
    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        self.0.read_block(block, buf)
    }
    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        self.0.invalidate_block(block)
    }
}

fn tmp_path() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "clio-batch-conf-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

#[test]
fn default_fallback_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(DefaultFallbackOnly(Arc::new(MemWormDevice::new(
            BLOCK, CAPACITY,
        )))))
    });
}

#[test]
fn mem_device_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(MemWormDevice::new(BLOCK, CAPACITY)))
    });
}

#[test]
fn file_device_conforms() {
    let mut paths = Vec::new();
    {
        let paths = std::cell::RefCell::new(&mut paths);
        check_batch_append_conformance(BLOCK, || {
            let p = tmp_path();
            let dev = FileWormDevice::create(&p, BLOCK, CAPACITY).expect("create device file");
            paths.borrow_mut().push(p);
            adapt(Arc::new(dev))
        });
    }
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn ram_tail_device_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(RamTailDevice::new(Arc::new(MemWormDevice::new(
            BLOCK, CAPACITY,
        )))))
    });
}

#[test]
fn mirror_device_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(MirroredDevice::new(vec![
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)) as SharedDevice,
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)) as SharedDevice,
        ])))
    });
}

#[test]
fn fault_device_with_quiet_plan_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(FaultyDevice::new(
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)),
            FaultPlan::default(),
        )))
    });
}

#[test]
fn instrumented_device_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(InstrumentedDevice::new(
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)),
            DeviceStats::new(&MetricsRegistry::new()),
        )))
    });
}

#[test]
fn fault_tear_leaves_exactly_k_blocks() {
    for k in 0..=4usize {
        let dev = FaultyDevice::new(
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)),
            FaultPlan::default(),
        );
        let images: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; BLOCK]).collect();
        let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        dev.tear_next_batch_after(k);
        let r = dev.append_blocks(BlockNo(0), &refs);
        if k < images.len() {
            assert!(matches!(r, Err(ClioError::Io(_))), "k={k}: {r:?}");
        } else {
            // The whole batch fits under the tear point: no fault fires.
            r.unwrap_or_else(|e| panic!("k={k}: {e}"));
        }
        let end = dev.query_end().unwrap().0;
        assert_eq!(end, k.min(images.len()) as u64, "k={k}");
        let mut buf = vec![0u8; BLOCK];
        for b in 0..end {
            dev.read_block(BlockNo(b), &mut buf).unwrap();
            assert_eq!(buf, images[b as usize], "k={k}: block {b}");
        }
        // The trigger is one-shot: the next batch goes through untorn.
        let rest: Vec<&[u8]> = images[end as usize..].iter().map(Vec::as_slice).collect();
        dev.append_blocks(BlockNo(end), &rest).unwrap();
        assert_eq!(dev.query_end().unwrap().0, images.len() as u64, "k={k}");
    }
}

#[test]
fn mirror_batch_completes_a_lagging_replica() {
    let a = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let b = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    // Replica `a` already has the first block of the batch from a previous
    // partially-failed attempt.
    a.append_block(BlockNo(0), &[7u8; BLOCK]).unwrap();
    let m = MirroredDevice::new(vec![a.clone() as SharedDevice, b.clone() as SharedDevice]);
    let images = [vec![7u8; BLOCK], vec![8u8; BLOCK], vec![9u8; BLOCK]];
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    m.append_blocks(BlockNo(0), &refs).unwrap();
    assert_eq!(m.query_end(), Some(BlockNo(3)));
    let mut buf = vec![0u8; BLOCK];
    for (i, img) in images.iter().enumerate() {
        for r in [&a, &b] {
            r.read_block(BlockNo(i as u64), &mut buf).unwrap();
            assert_eq!(&buf, img, "replica copy of block {i}");
        }
    }
}

#[test]
fn mirror_batch_skips_a_replica_that_has_it_all() {
    let a = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let b = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let images = [vec![1u8; BLOCK], vec![2u8; BLOCK]];
    for (i, img) in images.iter().enumerate() {
        a.append_block(BlockNo(i as u64), img).unwrap();
    }
    let m = MirroredDevice::new(vec![a as SharedDevice, b.clone() as SharedDevice]);
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    m.append_blocks(BlockNo(0), &refs).unwrap();
    assert_eq!(m.query_end(), Some(BlockNo(2)));
    let mut buf = vec![0u8; BLOCK];
    b.read_block(BlockNo(1), &mut buf).unwrap();
    assert_eq!(buf, images[1]);
}

#[test]
fn instrumented_batches_count_once_per_physical_write() {
    let stats = DeviceStats::new(&MetricsRegistry::new());
    let dev = InstrumentedDevice::new(Arc::new(MemWormDevice::new(BLOCK, CAPACITY)), stats.clone());
    let images: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; BLOCK]).collect();
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    dev.append_blocks(BlockNo(0), &refs).unwrap();
    dev.append_block(BlockNo(5), &[9u8; BLOCK]).unwrap();
    let s = stats.snapshot();
    assert_eq!(s.appends, 6, "logical appends: 5 batched + 1 single");
    assert_eq!(s.batch_appends, 1);
    assert_eq!(s.batch_blocks, 5);
    assert_eq!(s.write_ops(), 2, "one batch write + one single write");
    assert_eq!(stats.append_batch_blocks.snapshot().count, 1);
    assert_eq!(stats.append_batch_latency_ns.snapshot().count, 1);
    // An empty batch is a no-op, not a device write.
    dev.append_blocks(BlockNo(6), &[]).unwrap();
    assert_eq!(stats.snapshot().batch_appends, 1);
    // A failed batch counts one append error and no writes.
    assert!(dev.append_blocks(BlockNo(9), &refs).is_err());
    let s = stats.snapshot();
    assert_eq!(s.append_errors, 1);
    assert_eq!(s.write_ops(), 2);
}

#[test]
fn ram_tail_batch_seals_the_staged_block() {
    let worm = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let dev = RamTailDevice::new(worm.clone());
    dev.rewrite_tail(BlockNo(0), &[1u8; BLOCK]).unwrap();
    dev.rewrite_tail(BlockNo(0), &[2u8; BLOCK]).unwrap();
    // The batch's first block is the sealed contents of the staged tail.
    let images = [vec![3u8; BLOCK], vec![4u8; BLOCK]];
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    dev.append_blocks(BlockNo(0), &refs).unwrap();
    assert!(!dev.has_tail(), "tail buffer retired by the sealing batch");
    assert_eq!(worm.query_end(), Some(BlockNo(2)));
    let mut buf = vec![0u8; BLOCK];
    worm.read_block(BlockNo(0), &mut buf).unwrap();
    assert_eq!(buf, images[0], "batch contents supersede the staged tail");
    worm.read_block(BlockNo(1), &mut buf).unwrap();
    assert_eq!(buf, images[1]);
}

#[test]
fn ram_tail_batch_past_a_staged_tail_drains_it_first() {
    let worm = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let dev = RamTailDevice::new(worm.clone());
    dev.rewrite_tail(BlockNo(0), &[1u8; BLOCK]).unwrap();
    let images = [vec![2u8; BLOCK], vec![3u8; BLOCK]];
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    dev.append_blocks(BlockNo(1), &refs).unwrap();
    assert!(!dev.has_tail());
    assert_eq!(worm.query_end(), Some(BlockNo(3)));
    let mut buf = vec![0u8; BLOCK];
    worm.read_block(BlockNo(0), &mut buf).unwrap();
    assert_eq!(buf, vec![1u8; BLOCK], "staged tail drained to the medium");
}
