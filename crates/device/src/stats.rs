//! Device instrumentation.
//!
//! Every evaluation number in the paper reduces to counts of physical device
//! operations (block reads, appends) times per-operation costs.
//! [`InstrumentedDevice`] wraps any [`LogDevice`] and counts those operations
//! so that the benchmark harness can report both raw counts and modelled
//! latencies (see `clio-sim`, whose `TimedDevice` models head seeks per
//! device). Successful and failed operations are counted separately —
//! fault-injection runs assert on the error counters — and each op kind
//! feeds a wall-clock latency [`Histogram`]. Every counter and histogram is
//! a `clio_device_*` handle taken from the service's [`MetricsRegistry`],
//! so `/metrics` and [`DeviceStats::snapshot`] read the same values.

use std::sync::{Arc, OnceLock};

use clio_obs::{Counter, Histogram, MetricsRegistry, TraceRing};
use clio_types::{BlockNo, Result};

use crate::traits::{LogDevice, SharedDevice};

/// Shared operation counters for every device of one service.
#[derive(Debug)]
pub struct DeviceStats {
    /// When attached, device writes (single-block and vectored) record
    /// `device_write` spans here, nesting under whatever operation span is
    /// open on the writing thread. Write-once only; reads are traced at
    /// the service layer (per-block read spans would flood the ring).
    trace: OnceLock<Arc<TraceRing>>,
    reads: Arc<Counter>,
    appends: Arc<Counter>,
    invalidations: Arc<Counter>,
    tail_rewrites: Arc<Counter>,
    end_probes: Arc<Counter>,
    read_errors: Arc<Counter>,
    append_errors: Arc<Counter>,
    invalidate_errors: Arc<Counter>,
    tail_rewrite_errors: Arc<Counter>,
    probe_errors: Arc<Counter>,
    /// Vectored `append_blocks` batches issued (each is one physical device
    /// write regardless of how many blocks it carries).
    batch_appends: Arc<Counter>,
    /// Wall-clock latency of successful block reads, in nanoseconds.
    pub read_latency_ns: Arc<Histogram>,
    /// Wall-clock latency of successful block appends, in nanoseconds.
    pub append_latency_ns: Arc<Histogram>,
    /// Wall-clock latency of `is_written` probes, in nanoseconds.
    pub probe_latency_ns: Arc<Histogram>,
    /// Blocks per successful vectored batch; its sum is every block
    /// written through a batch.
    pub append_batch_blocks: Arc<Histogram>,
    /// Wall-clock latency of successful vectored batches, in nanoseconds.
    pub append_batch_latency_ns: Arc<Histogram>,
}

/// A point-in-time copy of [`DeviceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Block reads served by the device.
    pub reads: u64,
    /// Blocks appended.
    pub appends: u64,
    /// Blocks invalidated.
    pub invalidations: u64,
    /// Tail-buffer rewrites.
    pub tail_rewrites: u64,
    /// `is_written` probes (binary-search end location).
    pub end_probes: u64,
    /// Failed block reads.
    pub read_errors: u64,
    /// Failed block appends.
    pub append_errors: u64,
    /// Failed invalidations.
    pub invalidate_errors: u64,
    /// Failed tail rewrites.
    pub tail_rewrite_errors: u64,
    /// Failed `is_written` probes.
    pub probe_errors: u64,
    /// Vectored batches issued.
    pub batch_appends: u64,
    /// Blocks written through vectored batches.
    pub batch_blocks: u64,
}

impl StatsSnapshot {
    /// Physical write operations to the device: single-block appends plus
    /// one per vectored batch, however many blocks the batch carried. The
    /// group-commit benchmark's appends-per-device-write ratio divides
    /// logical appends by the delta of this.
    #[must_use]
    pub fn write_ops(&self) -> u64 {
        self.appends - self.batch_blocks + self.batch_appends
    }

    /// Total failed operations of any kind.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.read_errors
            + self.append_errors
            + self.invalidate_errors
            + self.tail_rewrite_errors
            + self.probe_errors
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} appends={} probes={} invalidations={} tail_rewrites={} errors={}",
            self.reads,
            self.appends,
            self.end_probes,
            self.invalidations,
            self.tail_rewrites,
            self.errors()
        )
    }
}

impl DeviceStats {
    /// Takes the `clio_device_*` counters and histograms from `reg`.
    #[must_use]
    pub fn new(reg: &MetricsRegistry) -> Arc<DeviceStats> {
        let counter = |name: &str| reg.counter(&format!("clio_device_{name}"));
        let histogram = |name: &str| reg.histogram(&format!("clio_device_{name}"));
        Arc::new(DeviceStats {
            trace: OnceLock::new(),
            reads: counter("reads_total"),
            appends: counter("appends_total"),
            invalidations: counter("invalidations_total"),
            tail_rewrites: counter("tail_rewrites_total"),
            end_probes: counter("end_probes_total"),
            read_errors: counter("read_errors_total"),
            append_errors: counter("append_errors_total"),
            invalidate_errors: counter("invalidate_errors_total"),
            tail_rewrite_errors: counter("tail_rewrite_errors_total"),
            probe_errors: counter("probe_errors_total"),
            batch_appends: counter("batch_appends_total"),
            read_latency_ns: histogram("read_latency_ns"),
            append_latency_ns: histogram("append_latency_ns"),
            probe_latency_ns: histogram("probe_latency_ns"),
            append_batch_blocks: histogram("append_batch_blocks"),
            append_batch_latency_ns: histogram("append_batch_latency_ns"),
        })
    }

    /// Attaches the service's trace ring so device writes record
    /// `device_write` spans. First attach wins; later calls are ignored
    /// (the stats block is shared across every device of one service).
    pub fn attach_trace(&self, ring: Arc<TraceRing>) {
        let _ = self.trace.set(ring);
    }

    /// Opens a `device_write` span when a trace ring is attached.
    fn write_span(&self, blocks: u64) -> Option<clio_obs::SpanGuard<'_>> {
        let ring = self.trace.get()?;
        let mut span = ring.span("device_write");
        span.attr("blocks", blocks);
        Some(span)
    }

    /// Copies the counters.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.get(),
            appends: self.appends.get(),
            invalidations: self.invalidations.get(),
            tail_rewrites: self.tail_rewrites.get(),
            end_probes: self.end_probes.get(),
            read_errors: self.read_errors.get(),
            append_errors: self.append_errors.get(),
            invalidate_errors: self.invalidate_errors.get(),
            tail_rewrite_errors: self.tail_rewrite_errors.get(),
            probe_errors: self.probe_errors.get(),
            batch_appends: self.batch_appends.get(),
            batch_blocks: self.append_batch_blocks.snapshot().sum,
        }
    }
}
/// A [`LogDevice`] wrapper that records operation counts, error counts and
/// per-op latency in a shared [`DeviceStats`].
pub struct InstrumentedDevice {
    inner: SharedDevice,
    stats: Arc<DeviceStats>,
}

impl InstrumentedDevice {
    /// Wraps `inner`; callers keep a clone of `stats` to read the counters.
    #[must_use]
    pub fn new(inner: SharedDevice, stats: Arc<DeviceStats>) -> InstrumentedDevice {
        InstrumentedDevice { inner, stats }
    }

    /// The shared counters.
    #[must_use]
    pub fn stats(&self) -> Arc<DeviceStats> {
        self.stats.clone()
    }
}

impl LogDevice for InstrumentedDevice {
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
        let start = clio_obs::clock::now();
        let r = self.inner.is_written(block);
        if r.is_ok() {
            self.stats.probe_latency_ns.record_duration(start.elapsed());
            self.stats.end_probes.inc();
        } else {
            self.stats.probe_errors.inc();
        }
        r
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        let mut span = self.stats.write_span(1);
        let start = clio_obs::clock::now();
        let r = self.inner.append_block(expected, data);
        if r.is_ok() {
            self.stats
                .append_latency_ns
                .record_duration(start.elapsed());
            self.stats.appends.inc();
        } else {
            if let Some(s) = &mut span {
                s.fail("io_error");
            }
            self.stats.append_errors.inc();
        }
        r
    }

    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        let n = blocks.len() as u64;
        let mut span = self.stats.write_span(n);
        let start = clio_obs::clock::now();
        let r = self.inner.append_blocks(expected, blocks);
        if r.is_ok() {
            // `appends` first: `write_ops` subtracts the batch blocks from it.
            self.stats.appends.add(n);
            self.stats.batch_appends.inc();
            self.stats.append_batch_blocks.record(n);
            self.stats
                .append_batch_latency_ns
                .record_duration(start.elapsed());
        } else {
            if let Some(s) = &mut span {
                s.fail("io_error");
            }
            self.stats.append_errors.inc();
        }
        r
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        let start = clio_obs::clock::now();
        let r = self.inner.read_block(block, buf);
        if r.is_ok() {
            self.stats.read_latency_ns.record_duration(start.elapsed());
            self.stats.reads.inc();
        } else {
            self.stats.read_errors.inc();
        }
        r
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        let r = self.inner.invalidate_block(block);
        if r.is_ok() {
            self.stats.invalidations.inc();
        } else {
            self.stats.invalidate_errors.inc();
        }
        r
    }

    fn rewrite_tail(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        let r = self.inner.rewrite_tail(block, data);
        if r.is_ok() {
            self.stats.tail_rewrites.inc();
        } else {
            self.stats.tail_rewrite_errors.inc();
        }
        r
    }

    fn supports_tail_rewrite(&self) -> bool {
        self.inner.supports_tail_rewrite()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemWormDevice;

    fn instrumented() -> (InstrumentedDevice, Arc<DeviceStats>, MetricsRegistry) {
        let reg = MetricsRegistry::new();
        let stats = DeviceStats::new(&reg);
        let dev = InstrumentedDevice::new(Arc::new(MemWormDevice::new(32, 64)), stats.clone());
        (dev, stats, reg)
    }

    #[test]
    fn counts_reads_and_appends() {
        let (dev, stats, _reg) = instrumented();
        let blk = vec![0u8; 32];
        for i in 0..4 {
            dev.append_block(BlockNo(i), &blk).unwrap();
        }
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(2), &mut buf).unwrap();
        dev.read_block(BlockNo(3), &mut buf).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.appends, 4);
        assert_eq!(s.reads, 2);
        assert_eq!(s.errors(), 0);
        // Every successful op also recorded a latency sample.
        assert_eq!(stats.append_latency_ns.snapshot().count, 4);
        assert_eq!(stats.read_latency_ns.snapshot().count, 2);
    }

    #[test]
    fn failed_ops_count_as_errors_not_successes() {
        let (dev, stats, _reg) = instrumented();
        let mut buf = vec![0u8; 32];
        assert!(dev.read_block(BlockNo(0), &mut buf).is_err());
        assert!(dev.append_block(BlockNo(5), &[0u8; 32]).is_err());
        let s = stats.snapshot();
        assert_eq!(s.reads, 0);
        assert_eq!(s.appends, 0);
        assert_eq!(s.read_errors, 1);
        assert_eq!(s.append_errors, 1);
        assert_eq!(s.errors(), 2);
        // Failures do not pollute the latency distributions.
        assert!(stats.read_latency_ns.snapshot().is_empty());
        assert!(stats.append_latency_ns.snapshot().is_empty());
    }

    #[test]
    fn registers_into_a_registry() {
        let (dev, _stats, reg) = instrumented();
        dev.append_block(BlockNo(0), &[0u8; 32]).unwrap();
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        let text = clio_obs::expo::render_prometheus(&reg);
        assert!(text.contains("clio_device_reads_total 1"));
        assert!(text.contains("clio_device_appends_total 1"));
        assert!(text.contains("clio_device_read_latency_ns_count 1"));
    }

    #[test]
    fn attached_trace_records_device_write_spans() {
        let (dev, stats, _reg) = instrumented();
        let ring = Arc::new(TraceRing::new(8));
        stats.attach_trace(ring.clone());
        dev.append_block(BlockNo(0), &[0u8; 32]).unwrap();
        dev.append_blocks(BlockNo(1), &[&[0u8; 32], &[0u8; 32]])
            .unwrap();
        assert!(dev.append_block(BlockNo(9), &[0u8; 32]).is_err());
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.name == "device_write"));
        assert_eq!(
            spans[1].attrs,
            vec![("blocks", clio_obs::AttrValue::U64(2))]
        );
        assert_eq!(spans[2].outcome, "io_error");
    }

    #[test]
    fn snapshot_display_is_one_line() {
        let (dev, stats, _reg) = instrumented();
        dev.append_block(BlockNo(0), &[0u8; 32]).unwrap();
        let line = format!("{}", stats.snapshot());
        assert!(line.contains("appends=1"));
        assert!(line.contains("errors=0"));
        assert!(!line.contains('\n'));
    }
}
