//! End-to-end test of the unified observability layer: one service driven
//! through appends, reads, a cold-start locate and a crash recovery must
//! leave a registry whose exposition shows every layer's activity.

use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_obs::{MetricValue, MetricsRegistry};
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)))
}

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    for s in reg.gather() {
        if s.name == name {
            if let MetricValue::Counter(v) = s.value {
                return v;
            }
            panic!("{name} is not a counter");
        }
    }
    panic!("no metric named {name}");
}

fn gauge(reg: &MetricsRegistry, name: &str) -> i64 {
    for s in reg.gather() {
        if s.name == name {
            if let MetricValue::Gauge(v) = s.value {
                return v;
            }
            panic!("{name} is not a gauge");
        }
    }
    panic!("no metric named {name}");
}

fn histogram(reg: &MetricsRegistry, name: &str) -> clio_obs::HistSnapshot {
    for s in reg.gather() {
        if s.name == name {
            if let MetricValue::Histogram(h) = s.value {
                return *h;
            }
            panic!("{name} is not a histogram");
        }
    }
    panic!("no metric named {name}");
}

#[test]
fn one_service_lifetime_populates_every_layer() {
    let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(256, 4096))));
    let clock = clock();
    let cfg = ServiceConfig::small();
    let svc = LogService::create(VolumeSeqId(1), pool.clone(), cfg.clone(), clock.clone()).unwrap();

    // Appends (mixed buffered/forced) and forward reads.
    svc.create_log("/obs").unwrap();
    for i in 0..60u32 {
        let opts = if i % 10 == 0 {
            AppendOpts::forced()
        } else {
            AppendOpts::standard()
        };
        svc.append_path("/obs", format!("event-{i}").as_bytes(), opts)
            .unwrap();
    }
    svc.flush().unwrap();
    let mut cur = svc.cursor("/obs").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 60);

    // Cold-start locate: drop the cache, then search backwards from the
    // end — the locator must descend the entrymap tree from the device.
    svc.cache().clear();
    let mut cur = svc.cursor_from_end("/obs").unwrap();
    assert!(cur.prev().unwrap().is_some());

    let reg = svc.metrics().clone();
    // Device layer: op counts flowed through the instrumented pool.
    assert!(counter(&reg, "clio_device_appends_total") > 0);
    assert!(counter(&reg, "clio_device_reads_total") > 0);
    // Cache layer: warm reads hit, the post-clear read missed.
    assert!(counter(&reg, "clio_cache_hits_total") > 0);
    assert!(counter(&reg, "clio_cache_misses_total") > 0);
    // Core spans: appends and reads counted, none failed.
    assert_eq!(counter(&reg, "clio_core_appends_total"), 60);
    assert_eq!(counter(&reg, "clio_core_append_errors_total"), 0);
    assert!(counter(&reg, "clio_core_reads_total") > 0);
    assert!(counter(&reg, "clio_core_locates_total") > 0);

    // Latency histograms have plausible shapes.
    for name in [
        "clio_core_append_latency_ns",
        "clio_core_read_latency_ns",
        "clio_device_append_latency_ns",
    ] {
        let h = histogram(&reg, name);
        assert!(h.count > 0, "{name} recorded nothing");
        assert!(h.min <= h.p50() && h.p50() <= h.p90(), "{name} p50/p90");
        assert!(h.p90() <= h.p99() && h.p99() <= h.max, "{name} p99/max");
        assert!(
            h.sum >= h.count * h.min && h.sum <= h.count * h.max,
            "{name} sum"
        );
    }
    // The locate-depth histogram saw real tree descents.
    assert!(histogram(&reg, "clio_core_locate_depth").count > 0);

    // Text exposition carries all of it; space gauges are refreshed.
    let text = svc.metrics_text();
    assert!(text.contains("# TYPE clio_device_appends_total counter"));
    assert!(text.contains("clio_core_append_latency_ns_bucket"));
    assert!(text.contains("clio_space_entries"));
    assert!(gauge(&reg, "clio_space_entries") == 60);

    // The op trace saw appends, reads and locates.
    let dump = svc.trace_dump();
    assert!(dump.contains("append"), "trace dump:\n{dump}");
    assert!(dump.contains("read"), "trace dump:\n{dump}");
    assert!(dump.contains("locate"), "trace dump:\n{dump}");

    // Crash: recover from the raw devices and check the recovery metrics.
    drop(svc);
    let (svc, report) = LogService::recover(pool.devices(), pool.clone(), cfg, clock).unwrap();
    assert!(report.end_locate_us >= 1 && report.rebuild_us >= 1 && report.catalog_us >= 1);
    assert!(report.end_locate_us + report.rebuild_us + report.catalog_us <= report.total_us);

    let reg = svc.metrics().clone();
    assert_eq!(gauge(&reg, "clio_recovery_volumes"), 1);
    assert!(gauge(&reg, "clio_recovery_rebuild_blocks_read") >= 0);
    assert!(gauge(&reg, "clio_recovery_total_us") >= 1);
    assert_eq!(
        gauge(&reg, "clio_recovery_catalog_records"),
        i64::try_from(report.catalog_records).unwrap()
    );
    // The recovered service read blocks through its own instrumented pool.
    assert!(counter(&reg, "clio_device_reads_total") > 0);

    // Data survived; reads on the recovered service feed its registry.
    let mut cur = svc.cursor("/obs").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 60);
    assert!(counter(&reg, "clio_core_reads_total") > 0);

    // JSON exposition parses with the in-tree decoder and exposes the
    // recovery gauges and a histogram object.
    let json = svc.metrics_json();
    let v = clio_obs::json::parse(&json).expect("metrics JSON parses");
    let total = v
        .get("clio_recovery_total_us")
        .and_then(clio_obs::json::Value::as_i64)
        .expect("recovery total gauge in JSON");
    assert!(total >= 1);
    let h = v
        .get("clio_device_read_latency_ns")
        .expect("device read histogram in JSON");
    assert!(h.get("count").and_then(clio_obs::json::Value::as_i64) > Some(0));
    assert!(h.get("p50").is_some() && h.get("p99").is_some());
}

#[test]
fn server_answers_stats_requests() {
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(256, 4096)),
        ServiceConfig::small(),
        clock(),
    )
    .unwrap();
    svc.create_log("/s").unwrap();
    let server = clio_core::server::LogServer::spawn(svc);
    let client = server.client();
    client.append_sync("/s", b"one entry").unwrap();

    let text = client.stats_text().unwrap();
    assert!(text.contains("clio_device_appends_total"));
    assert!(text.contains("# TYPE"));

    let json = client.stats_json().unwrap();
    let v = clio_obs::json::parse(&json).expect("stats JSON parses");
    assert!(
        v.get("clio_core_appends_total")
            .and_then(clio_obs::json::Value::as_i64)
            >= Some(1)
    );
    server.shutdown();
}

#[test]
fn tracing_can_be_disabled_by_config() {
    let cfg = ServiceConfig {
        trace_events: 0,
        ..ServiceConfig::small()
    };
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(256, 4096)),
        cfg,
        clock(),
    )
    .unwrap();
    svc.create_log("/quiet").unwrap();
    svc.append_path("/quiet", b"x", AppendOpts::standard())
        .unwrap();
    // Metrics still flow; only the trace ring is off.
    assert!(counter(svc.metrics(), "clio_core_appends_total") == 1);
    assert!(svc.obs().trace().is_empty());
}

#[test]
fn flush_republishes_when_only_the_sealed_queue_advanced() {
    let cfg = ServiceConfig::small();
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(256, 4096)),
        cfg,
        clock(),
    )
    .unwrap();
    svc.create_log("/q").unwrap();
    // Fill whole blocks with buffered entries: they seal into the
    // in-memory queue, the device end does not move.
    for i in 0..12u32 {
        let mut p = format!("q{i}:").into_bytes();
        p.resize(64, b'q');
        svc.append_path("/q", &p, AppendOpts::standard()).unwrap();
    }
    let dev_end_before = svc.volumes().active().data_end();
    let publishes_before = counter(svc.metrics(), "clio_core_view_publishes_total");
    let device_appends_before = counter(svc.metrics(), "clio_device_appends_total");
    // Read-your-writes from the in-memory queue, before any device write.
    let mut cur = svc.cursor("/q").unwrap();
    assert_eq!(
        cur.collect_remaining().unwrap().len(),
        12,
        "queued sealed blocks must be readable before the flush"
    );

    svc.flush().unwrap();

    // The flush drained queued sealed blocks onto the device and
    // republished the snapshot — even though nothing else changed.
    assert!(
        svc.volumes().active().data_end() > dev_end_before,
        "flush did not advance the device watermark"
    );
    assert!(
        counter(svc.metrics(), "clio_core_view_publishes_total") > publishes_before,
        "flush did not republish the read snapshot"
    );
    assert!(counter(svc.metrics(), "clio_device_appends_total") > device_appends_before);
    // The shard's commit series saw the batch.
    let shard = svc.shard_of(svc.resolve("/q").unwrap()).to_string();
    let labels: &[(&str, &str)] = &[("shard", &shard)];
    assert!(
        svc.metrics()
            .counter_with("clio_shard_commits_total", labels)
            .get()
            >= 1
    );
    assert!(
        svc.metrics()
            .histogram_with("clio_shard_commit_batch_blocks", labels)
            .snapshot()
            .count
            >= 1
    );

    // An idempotent flush still republishes (watermark already current).
    let publishes = counter(svc.metrics(), "clio_core_view_publishes_total");
    svc.flush().unwrap();
    assert!(counter(svc.metrics(), "clio_core_view_publishes_total") > publishes);

    // Everything reads back after the flush.
    let mut cur = svc.cursor("/q").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 12);
}

#[test]
fn only_cursor_steps_that_return_an_entry_count_as_reads() {
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(256, 4096)),
        ServiceConfig::small(),
        clock(),
    )
    .unwrap();
    let id = svc.create_log("/r").unwrap();
    for i in 0..3u8 {
        svc.append(id, &[i; 8], AppendOpts::forced()).unwrap();
    }
    let reads = || counter(svc.metrics(), "clio_core_reads_total");
    let per_log = || {
        svc.metrics()
            .counter_with("clio_log_reads_total", &[("log", &id.0.to_string())])
            .get()
    };

    // Three entries, then one exhausted step: three reads.
    let mut cur = svc.cursor("/r").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 3);
    assert_eq!(reads(), 3);
    assert!(cur.next().unwrap().is_none());
    assert_eq!(reads(), 3, "an exhausted forward step is not a read");
    assert_eq!(
        histogram(svc.metrics(), "clio_core_read_latency_ns").count,
        3
    );

    // Backward to the start, then one step past it.
    let mut cur = svc.cursor_from_end("/r").unwrap();
    while cur.prev().unwrap().is_some() {}
    assert_eq!(reads(), 6, "an exhausted backward step is not a read");
    assert_eq!(per_log(), 6);
    assert_eq!(counter(svc.metrics(), "clio_core_read_errors_total"), 0);
}

/// Every `clio_device_*`, `clio_core_*` and `clio_shard_*` family on
/// `/metrics`, with its kind, after forced appends on every shard of the
/// default configuration plus reads. Changing this set changes what
/// dashboards and benches can scrape.
const GOLDEN_FAMILIES: &[(&str, &str)] = &[
    ("clio_core_append_errors_total", "counter"),
    ("clio_core_append_latency_ns", "histogram"),
    ("clio_core_appends_total", "counter"),
    ("clio_core_creates_total", "counter"),
    ("clio_core_forced_writes_saved_total", "counter"),
    ("clio_core_locate_blocks", "histogram"),
    ("clio_core_locate_depth", "histogram"),
    ("clio_core_locate_latency_ns", "histogram"),
    ("clio_core_locates_total", "counter"),
    ("clio_core_read_errors_total", "counter"),
    ("clio_core_read_latency_ns", "histogram"),
    ("clio_core_reads_total", "counter"),
    ("clio_core_sealed_queue_blocks", "gauge"),
    ("clio_core_view_publishes_total", "counter"),
    ("clio_device_append_batch_blocks", "histogram"),
    ("clio_device_append_batch_latency_ns", "histogram"),
    ("clio_device_append_errors_total", "counter"),
    ("clio_device_append_latency_ns", "histogram"),
    ("clio_device_appends_total", "counter"),
    ("clio_device_batch_appends_total", "counter"),
    ("clio_device_end_probes_total", "counter"),
    ("clio_device_invalidate_errors_total", "counter"),
    ("clio_device_invalidations_total", "counter"),
    ("clio_device_probe_errors_total", "counter"),
    ("clio_device_probe_latency_ns", "histogram"),
    ("clio_device_read_errors_total", "counter"),
    ("clio_device_read_latency_ns", "histogram"),
    ("clio_device_reads_total", "counter"),
    ("clio_device_tail_rewrite_errors_total", "counter"),
    ("clio_device_tail_rewrites_total", "counter"),
    ("clio_shard_appends_total", "counter"),
    ("clio_shard_commit_batch_blocks", "histogram"),
    ("clio_shard_commits_total", "counter"),
    ("clio_shard_leader_elections_total", "counter"),
];

#[test]
fn default_service_exposes_the_golden_metric_families() {
    let cfg = ServiceConfig::default();
    let shards = cfg.shards;
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(cfg.block_size, 4096)),
        cfg,
        clock(),
    )
    .unwrap();
    // Create logs until every shard owns one, then force an append to each.
    let mut owned = vec![None; shards];
    for i in 0.. {
        if owned.iter().all(Option::is_some) {
            break;
        }
        let path = format!("/g{i}");
        let id = svc.create_log(&path).unwrap();
        owned[svc.shard_of(id) as usize].get_or_insert((id, path));
    }
    for (id, path) in owned.into_iter().flatten() {
        let r = svc.append(id, b"golden", AppendOpts::forced()).unwrap();
        assert_eq!(svc.read_entry(r.addr).unwrap().data, b"golden");
        assert_eq!(
            svc.cursor(&path)
                .unwrap()
                .collect_remaining()
                .unwrap()
                .len(),
            1
        );
    }

    let text = svc.metrics_text();
    let mut families: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_once(' '))
        .filter(|(name, _)| {
            ["clio_device_", "clio_core_", "clio_shard_"]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .collect();
    families.sort_unstable();
    assert_eq!(families, GOLDEN_FAMILIES);

    // Every shard's forced append reached the device, and `/metrics`
    // reads the same counter as the device stats snapshot.
    let appends = svc.obs().device_stats.snapshot().appends;
    assert!(appends >= shards as u64);
    assert_eq!(counter(svc.metrics(), "clio_device_appends_total"), appends);
}
