//! Service-level observability: the unified registry, op tracing, and the
//! instrumented device plumbing.
//!
//! Every [`crate::LogService`] owns a [`ServiceObs`]: one
//! [`MetricsRegistry`] into which the device layer, the block cache, the
//! space accountant and the service's own op histograms all register, plus
//! a [`TraceRing`] recording one event per logical operation. The service
//! exposes the whole thing via [`crate::LogService::metrics_text`] /
//! [`crate::LogService::metrics_json`] / [`crate::LogService::trace_dump`],
//! and over the client/server channel via the `Stats` request.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use clio_device::{DeviceStats, InstrumentedDevice, SharedDevice};
use clio_entrymap::LocateStats;
use clio_obs::{Counter, Gauge, Histogram, MetricsRegistry, SpanGuard, TraceRing};
use clio_testkit::sync::Mutex;
use clio_types::{LogFileId, Result};
use clio_volume::DevicePool;

use crate::recovery::RecoveryReport;
use crate::stats::SpaceReport;

/// Per-log-file metric series (labeled `{log="<id>"}` in the registry):
/// groundwork for sharding, where per-log traffic shapes placement.
struct PerLog {
    appends: Arc<Counter>,
    reads: Arc<Counter>,
    append_ns: Arc<Histogram>,
    read_ns: Arc<Histogram>,
}

/// Per-shard metric series (labeled `{shard="<i>"}`): one set per append
/// domain, cached in the owning shard so the hot path never takes the
/// lazy-creation map lock.
pub(crate) struct PerShard {
    /// Successful appends routed to this shard.
    pub appends: Arc<Counter>,
    /// Commit batches this shard's gate wrote.
    pub commits: Arc<Counter>,
    /// Times a forced appender on this shard became the commit leader.
    pub leader_elections: Arc<Counter>,
    /// Blocks written per commit batch on this shard.
    pub commit_batch_blocks: Arc<Histogram>,
    /// Sealed blocks waiting in memory for a device write as of the last
    /// snapshot publish: with the open block, what a crash would lose.
    pub sealed_queue_blocks: Arc<Gauge>,
}

/// The observability state of one service instance.
pub struct ServiceObs {
    registry: Arc<MetricsRegistry>,
    trace: Arc<TraceRing>,
    /// Per-log-file series, created lazily at first touch of each log id.
    per_log: Mutex<BTreeMap<u16, Arc<PerLog>>>,
    /// Per-shard series, created lazily at shard construction.
    per_shard: Mutex<BTreeMap<u32, Arc<PerShard>>>,
    /// Counters shared by every device the service touches (the volume
    /// sequence wraps each pool device in an [`InstrumentedDevice`]).
    pub device_stats: Arc<DeviceStats>,
    /// Wall-clock latency of `append` calls, ns.
    pub append_latency: Arc<Histogram>,
    /// Wall-clock latency of `read_entry` calls, ns.
    pub read_latency: Arc<Histogram>,
    /// Wall-clock latency of entrymap locate searches, ns.
    pub locate_latency: Arc<Histogram>,
    /// Blocks read per locate search.
    pub locate_blocks: Arc<Histogram>,
    /// Tree-descent depth (highest level climbed) per locate search.
    pub locate_depth: Arc<Histogram>,
    appends: Arc<Counter>,
    append_errors: Arc<Counter>,
    reads: Arc<Counter>,
    read_errors: Arc<Counter>,
    locates: Arc<Counter>,
    creates: Arc<Counter>,
    view_publishes: Arc<Counter>,
    forced_writes_saved: Arc<Counter>,
}

impl ServiceObs {
    /// Builds the registry, registers the shared device counters, and sizes
    /// the trace ring to `trace_events`.
    #[must_use]
    pub fn new(trace_events: usize) -> Arc<ServiceObs> {
        let registry = Arc::new(MetricsRegistry::new());
        let device_stats = DeviceStats::new(&registry);
        let trace = Arc::new(TraceRing::new(trace_events));
        if trace.capacity() > 0 {
            device_stats.attach_trace(trace.clone());
        }
        Arc::new(ServiceObs {
            trace,
            per_log: Mutex::new(BTreeMap::new()),
            per_shard: Mutex::new(BTreeMap::new()),
            device_stats,
            append_latency: registry.histogram("clio_core_append_latency_ns"),
            read_latency: registry.histogram("clio_core_read_latency_ns"),
            locate_latency: registry.histogram("clio_core_locate_latency_ns"),
            locate_blocks: registry.histogram("clio_core_locate_blocks"),
            locate_depth: registry.histogram("clio_core_locate_depth"),
            appends: registry.counter("clio_core_appends_total"),
            append_errors: registry.counter("clio_core_append_errors_total"),
            reads: registry.counter("clio_core_reads_total"),
            read_errors: registry.counter("clio_core_read_errors_total"),
            locates: registry.counter("clio_core_locates_total"),
            creates: registry.counter("clio_core_creates_total"),
            view_publishes: registry.counter("clio_core_view_publishes_total"),
            forced_writes_saved: registry.counter("clio_core_forced_writes_saved_total"),
            registry,
        })
    }

    /// The unified registry.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The op trace ring (shared with the device layer and block cache).
    #[must_use]
    pub fn trace(&self) -> &Arc<TraceRing> {
        &self.trace
    }

    /// Opens a causal span in the service's trace ring. The span becomes a
    /// child of whatever span is already open on the calling thread, and
    /// records itself when dropped.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.trace.span(name)
    }

    /// The per-log metric series for `id`, created on first touch. The
    /// series mutex is a leaf: held only for the map lookup, never across
    /// I/O or other locks.
    fn per_log(&self, id: LogFileId) -> Arc<PerLog> {
        let mut map = self.per_log.lock();
        map.entry(id.0)
            .or_insert_with(|| {
                let label = id.0.to_string();
                let labels: &[(&str, &str)] = &[("log", &label)];
                Arc::new(PerLog {
                    appends: self.registry.counter_with("clio_log_appends_total", labels),
                    reads: self.registry.counter_with("clio_log_reads_total", labels),
                    append_ns: self
                        .registry
                        .histogram_with("clio_log_append_latency_ns", labels),
                    read_ns: self
                        .registry
                        .histogram_with("clio_log_read_latency_ns", labels),
                })
            })
            .clone()
    }

    /// The per-shard metric series for append domain `idx`, created on
    /// first touch. Shards fetch this once at construction and cache the
    /// `Arc`, so the map mutex stays off the append path.
    pub(crate) fn per_shard(&self, idx: u32) -> Arc<PerShard> {
        let mut map = self.per_shard.lock();
        map.entry(idx)
            .or_insert_with(|| {
                let label = idx.to_string();
                let labels: &[(&str, &str)] = &[("shard", &label)];
                Arc::new(PerShard {
                    appends: self
                        .registry
                        .counter_with("clio_shard_appends_total", labels),
                    commits: self
                        .registry
                        .counter_with("clio_shard_commits_total", labels),
                    leader_elections: self
                        .registry
                        .counter_with("clio_shard_leader_elections_total", labels),
                    commit_batch_blocks: self
                        .registry
                        .histogram_with("clio_shard_commit_batch_blocks", labels),
                    sealed_queue_blocks: self
                        .registry
                        .gauge_with("clio_core_sealed_queue_blocks", labels),
                })
            })
            .clone()
    }

    /// Records an `append`'s latency and counters (service-wide and
    /// per-log). The trace side is the caller's root `append` span — see
    /// [`crate::LogService::append`] — so phases nest under one tree
    /// instead of landing as a second flat event.
    pub fn note_append(&self, id: LogFileId, dur: Duration, ok: bool) {
        if ok {
            self.appends.inc();
            self.append_latency.record_duration(dur);
            let per_log = self.per_log(id);
            per_log.appends.inc();
            per_log.append_ns.record_duration(dur);
        } else {
            self.append_errors.inc();
        }
    }

    /// Records a read that returned an entry of `id`: its latency and
    /// counters. The trace side is the caller's root `read` span.
    pub fn note_read(&self, id: LogFileId, dur: Duration) {
        self.reads.inc();
        self.read_latency.record_duration(dur);
        let per_log = self.per_log(id);
        per_log.reads.inc();
        per_log.read_ns.record_duration(dur);
    }

    /// Counts a failed read.
    pub fn note_read_error(&self) {
        self.read_errors.inc();
    }

    /// Records one entrymap locate search from its [`LocateStats`].
    pub fn note_locate(&self, target: Option<LogFileId>, stats: &LocateStats, dur: Duration) {
        self.locates.inc();
        self.locate_latency.record_duration(dur);
        self.locate_blocks.record(stats.blocks_read);
        self.locate_depth.record(stats.max_level);
        self.trace.record(
            "locate",
            target.map(|id| u64::from(id.0)),
            stats.blocks_read,
            dur,
            "ok",
        );
    }

    /// Records a `create_log` span.
    pub fn note_create(&self, id: Option<LogFileId>, dur: Duration, ok: bool) {
        if ok {
            self.creates.inc();
        }
        self.trace.record(
            "create_log",
            id.map(|i| u64::from(i.0)),
            0,
            dur,
            if ok { "ok" } else { "error" },
        );
    }

    /// Counts one republication of the immutable read snapshot (every
    /// mutating op republishes, so this tracks snapshot churn).
    pub fn note_view_publish(&self) {
        self.view_publishes.inc();
    }

    /// Counts the device writes one commit saved: the staged forced
    /// appends it covered beyond the physical writes it issued (a lone
    /// forced append commits with one write and saves nothing). The
    /// commit itself is counted per shard, in `clio_shard_commits_total`.
    pub fn note_writes_saved(&self, forced_covered: u64, device_writes: u64) {
        let saved = forced_covered.saturating_sub(device_writes.max(1));
        if saved > 0 {
            self.forced_writes_saved.add(saved);
        }
    }

    /// Registers the shared block cache's counters and, when tracing is
    /// enabled, hooks the cache's single-flight loads into the trace ring.
    pub fn attach_cache(&self, cache: &Arc<clio_cache::BlockCache>) {
        cache.register_into(&self.registry);
        if self.trace.capacity() > 0 {
            cache.attach_trace(self.trace.clone());
        }
    }

    /// Publishes the space-overhead report as gauges (called at exposition
    /// time — `SpaceStats` lives inside the service's state lock, so it is
    /// sampled rather than registered).
    pub fn publish_space(&self, r: &SpaceReport) {
        let set = |name: &str, v: u64| {
            self.registry
                .gauge(name)
                .set(i64::try_from(v).unwrap_or(i64::MAX));
        };
        set("clio_space_entries", r.entries);
        set("clio_space_client_bytes", r.client_bytes);
        set("clio_space_device_bytes", r.device_bytes);
        set("clio_space_blocks_sealed", r.blocks_sealed);
        set("clio_space_padding_bytes", r.padding_bytes);
        set("clio_space_entrymap_entries", r.entrymap_entries);
    }

    /// Publishes the per-phase recovery timings and totals as gauges, and
    /// traces one `recover` event.
    pub fn publish_recovery(&self, r: &RecoveryReport) {
        let set = |name: &str, v: u64| {
            self.registry
                .gauge(name)
                .set(i64::try_from(v).unwrap_or(i64::MAX));
        };
        set("clio_recovery_volumes", u64::from(r.volumes));
        set("clio_recovery_end_probes_total", r.end_probes);
        set("clio_recovery_rebuild_blocks_read", r.rebuild_blocks_read);
        set("clio_recovery_catalog_records", r.catalog_records);
        set("clio_recovery_end_locate_us", r.end_locate_us);
        set("clio_recovery_rebuild_us", r.rebuild_us);
        set("clio_recovery_catalog_us", r.catalog_us);
        set("clio_recovery_total_us", r.total_us);
    }

    /// Wraps a device so its ops land in this service's shared counters.
    #[must_use]
    pub fn instrument_device(&self, dev: SharedDevice) -> SharedDevice {
        Arc::new(InstrumentedDevice::new(dev, self.device_stats.clone()))
    }
}

/// A [`DevicePool`] decorator wrapping every handed-out device in an
/// [`InstrumentedDevice`] that shares the service's [`DeviceStats`]. It
/// sits *outside* any recording pool the caller supplied, so crash/recover
/// tests still get the raw (non-volatile) devices back from their pool.
pub struct InstrumentingPool {
    inner: Arc<dyn DevicePool>,
    obs: Arc<ServiceObs>,
}

impl InstrumentingPool {
    /// Wraps `inner` so new devices report into `obs`.
    #[must_use]
    pub fn new(inner: Arc<dyn DevicePool>, obs: Arc<ServiceObs>) -> InstrumentingPool {
        InstrumentingPool { inner, obs }
    }
}

impl DevicePool for InstrumentingPool {
    fn next_device(&self) -> Result<SharedDevice> {
        Ok(self.obs.instrument_device(self.inner.next_device()?))
    }

    fn capacity_hint(&self) -> Option<u64> {
        self.inner.capacity_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_feed_counters_histograms_and_trace() {
        let obs = ServiceObs::new(16);
        obs.note_append(LogFileId(8), Duration::from_micros(10), true);
        obs.note_append(LogFileId(8), Duration::from_micros(5), false);
        obs.note_read(LogFileId(8), Duration::from_micros(3));
        let stats = LocateStats {
            blocks_read: 4,
            map_entries_examined: 3,
            fallbacks: 0,
            max_level: 2,
        };
        obs.note_locate(Some(LogFileId(8)), &stats, Duration::from_micros(7));
        let text = clio_obs::expo::render_prometheus(obs.registry());
        assert!(text.contains("clio_core_appends_total 1"));
        assert!(text.contains("clio_core_append_errors_total 1"));
        assert!(text.contains("clio_core_reads_total 1"));
        assert!(text.contains("clio_core_locates_total 1"));
        assert!(text.contains("clio_core_locate_blocks_count 1"));
        // Per-log labeled series appear alongside the service-wide ones.
        assert!(text.contains("clio_log_appends_total{log=\"8\"} 1"));
        assert!(text.contains("clio_log_reads_total{log=\"8\"} 1"));
        assert!(text.contains("clio_log_append_latency_ns_count{log=\"8\"} 1"));
        let dump = obs.trace().dump();
        assert!(dump.contains("locate"));
    }

    #[test]
    fn spans_nest_through_the_service_helper() {
        let obs = ServiceObs::new(16);
        {
            let mut root = obs.span("append");
            root.set_target(3);
            let _stage = obs.span("stage");
        }
        let trees = obs.trace().traces();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].roots[0].span.name, "append");
        assert_eq!(trees[0].roots[0].children[0].span.name, "stage");
    }

    #[test]
    fn instrumenting_pool_counts_device_ops() {
        use clio_types::BlockNo;
        use clio_volume::MemDevicePool;
        let obs = ServiceObs::new(0);
        let pool = InstrumentingPool::new(Arc::new(MemDevicePool::new(64, 8)), obs.clone());
        let dev = pool.next_device().unwrap();
        dev.append_block(BlockNo(0), &[0u8; 64]).unwrap();
        assert_eq!(obs.registry().counter("clio_device_appends_total").get(), 1);
    }
}
