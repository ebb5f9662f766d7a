//! Group-commit coalescing: forced-append cost under 1/2/4/8 concurrent
//! appender threads.
//!
//! Forced appends are the expensive operation of §2.3.1: each one must
//! reach stable storage before it is acknowledged. The append pipeline
//! stages entries under a short lock and lets the first forced waiter
//! become a *leader* that drains every sealed block staged meanwhile in
//! one vectored device write and wakes the covered followers. The table
//! reports **appends per device write** (a lone appender pays one write
//! per forced append, ratio ~= 1.0; concurrent appenders can share
//! writes) beside the elapsed wall-clock time of each round.
//!
//! Flags: `--json` writes `BENCH_group_commit.json`; `--quick` shrinks
//! the workload for CI smoke runs.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use clio_bench::report::Report;
use clio_bench::table;
use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

struct RoundResult {
    appends: u64,
    device_writes: u64,
    secs: f64,
    writes_saved: u64,
    batches: u64,
}

/// One measured round: `threads` appenders each issue `ops` forced
/// appends to their own log file on a fresh in-memory service.
fn run_round(threads: usize, ops: u64) -> RoundResult {
    let cfg = ServiceConfig {
        trace_events: 0, // the trace ring is a mutex; keep the hot path atomic-only
        shards: 1,
        ..ServiceConfig::default()
    };
    let svc = Arc::new(
        LogService::create(
            VolumeSeqId(1),
            Arc::new(MemDevicePool::new(cfg.block_size, 1 << 16)),
            cfg,
            Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
        )
        .expect("create service"),
    );
    for t in 0..threads {
        svc.create_log(&format!("/gc{t}")).expect("create log");
    }
    svc.flush().expect("flush setup");

    let saved = svc.metrics().counter("clio_core_forced_writes_saved_total");
    let commits: Vec<_> = (0..svc.shard_count())
        .map(|s| {
            svc.metrics()
                .counter_with("clio_shard_commits_total", &[("shard", &s.to_string())])
        })
        .collect();
    let batches = || commits.iter().map(|c| c.get()).sum::<u64>();
    let before = svc.obs().device_stats.snapshot();
    let (saved_before, batches_before) = (saved.get(), batches());
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let svc = svc.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let id = svc.resolve(&format!("/gc{t}")).expect("resolve");
            let payload = [t as u8; 48];
            barrier.wait();
            for _ in 0..ops {
                svc.append(id, &payload, AppendOpts::forced())
                    .expect("forced append");
            }
        }));
    }
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("appender thread");
    }
    let secs = start.elapsed().as_secs_f64();
    let after = svc.obs().device_stats.snapshot();
    RoundResult {
        appends: threads as u64 * ops,
        device_writes: after.write_ops().saturating_sub(before.write_ops()),
        secs,
        writes_saved: saved.get() - saved_before,
        batches: batches() - batches_before,
    }
}

fn main() {
    let mut report = Report::new(
        "group_commit",
        "Group commit — forced appends coalesced into vectored device writes",
    );
    let quick = report.quick();

    let ops: u64 = if quick { 200 } else { 2_000 };
    let thread_counts: &[usize] = &[1, 2, 4, 8];
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("Group-commit coalescing — {ops} forced appends/thread");
    println!("(in-memory device pool: the ratio isolates write *count*, not media latency)");
    println!("host parallelism: {cores} core(s) — batching needs appenders overlapping in time\n");

    let header = [
        "threads",
        "appends",
        "device writes",
        "appends/write",
        "saved",
        "batches",
        "elapsed (ms)",
    ];
    let mut rows = Vec::new();
    for &t in thread_counts {
        let r = run_round(t, ops);
        let ratio = r.appends as f64 / r.device_writes.max(1) as f64;
        let elapsed_ms = r.secs * 1e3;
        report.scalar(&format!("appends_per_device_write_{t}t"), ratio);
        report.scalar(&format!("forced_writes_saved_{t}t"), r.writes_saved);
        report.scalar(&format!("elapsed_ms_{t}t"), elapsed_ms);
        rows.push(vec![
            format!("{t}"),
            format!("{}", r.appends),
            format!("{}", r.device_writes),
            format!("{ratio:.2}"),
            format!("{}", r.writes_saved),
            format!("{}", r.batches),
            format!("{elapsed_ms:.1}"),
        ]);
    }
    print!("{}", table::render(&header, &rows));

    report.scalar("ops_per_thread", ops);
    report.scalar("host_cores", cores as u64);
    report.table("coalescing", &header, &rows);
    report.note(
        "appends/write counts forced appends per device write: a lone appender pays one \
         write per forced append; concurrent forced appenders that stage while a leader \
         writes share its next vectored write, so the ratio can only grow with threads.",
    );
    report.note(
        "elapsed is wall-clock time per round on an in-memory device, so it measures the \
         pipeline's CPU and lock cost, not media latency.",
    );
    report.emit();
}
