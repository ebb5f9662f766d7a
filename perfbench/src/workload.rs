//! The three workloads, driven through the public `LogService` API.
//!
//! Each workload runs the shipped `ServiceConfig::default()` on a fresh
//! [`FilePool`], measures for the requested time, then checks its output:
//! it simulates a process crash (the service is dropped without a flush;
//! the device files, like the OS page cache, survive), recovers, and reads
//! back every acknowledged entry. Finally it simulates a power loss (every
//! file cut back to its synced prefix) and counts the acknowledged durable
//! entries that can no longer be read. Every forced append is also checked
//! as it returns: its block must already be within its device's synced
//! prefix.
//!
//! The benchmark's own bookkeeping does not grow with throughput (beyond
//! 4 bytes per latency sample), so `mem_peak_mib` follows the service.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use clio_cache::CacheSnapshot;
use clio_core::{AppendOpts, LogService, ServiceConfig};
use clio_device::StatsSnapshot;
use clio_obs::clock;
use clio_testkit::rng::StdRng;
use clio_testkit::sync::atomic::{AtomicBool, Ordering};
use clio_types::{ClioError, LogFileId, Result, SystemClock, VolumeSeqId};
use clio_volume::{DevicePool, Volume};

use crate::check::{self, Ack, Logs};
use crate::device::{settle, BenchDevice, FilePool};
use crate::host;
use crate::series::Series;
use crate::trace::{self, Kind, Span};

/// Rounds the measured time of `forced_log` and `history_read` is cut
/// into. After each round the service is crashed and recovered, and the
/// other metrics are sampled, so that every metric samples the whole run
/// rather than one stretch of it: the host's speed drifts by up to 1.5×
/// over tens of seconds.
const ROUNDS: usize = 20;
/// Runs of the host's reference kernel after each round.
const REF_RUNS: usize = 8;
/// Crash/recover cycles after each round; `recover_ms` is their median.
const RECOVER_CYCLES: usize = 31;

/// `forced_log`: payload bytes per forced append.
const FORCED_LEN: usize = 128;
/// `forced_log`: acknowledged appends each client keeps (a uniform
/// reservoir sample) for the timed read-back and the seeks; every ack is
/// still checked, by scanning the logs.
const FORCED_SAMPLE: usize = 16_384;
/// `forced_log`: timed reads of sampled acks after each recovery.
const FORCED_READS: usize = 8_192;
/// `forced_log`: time seeks after each recovery.
const FORCED_SEEKS: usize = 103;

/// `buffered_ingest`: payload bytes per buffered append.
const BUFFERED_LEN: usize = 512;
/// `buffered_ingest`: top-level logs (two per shard at the default four).
const INGEST_TOPS: usize = 8;
/// `buffered_ingest`: sublogs under each top-level log.
const INGEST_SUBS: usize = 8;
/// `buffered_ingest`: buffered appends before the final flush of a round
/// — ≈8k blocks, far above `max_batch_blocks` (64).
const INGEST_APPENDS: u32 = 16_384;
/// `buffered_ingest`: time seeks per round after recovery.
const INGEST_SEEKS: usize = 128;
/// `buffered_ingest`: crash/recover cycles per round.
const INGEST_RECOVERS: usize = 5;

/// `history_read`: sublogs of the history log.
const HIST_SUBS: usize = 16;
/// `history_read`: entries in the prebuilt history (512 B each, about two
/// per 1 KiB block: ≈12k blocks, 12× the default 1024-block cache).
const HIST_ENTRIES: u32 = 24_576;
/// `history_read`: the most recent entries, whose blocks fit the cache.
const HIST_RECENT: usize = 1_024;
/// `history_read`: the history is built with a flush every this many
/// appends.
const HIST_FLUSH_EVERY: u32 = 1_024;
/// `history_read`: the reader's mix, in percent of its operations: time
/// seeks, recent reads, and (the rest) old reads. An assumption, not a
/// measured trace: reads of the tail are taken to dominate. The recent
/// reads are two thirds of the point reads, so the median read is a
/// cache hit, away from the boundary with the misses.
const SEEK_PCT: u32 = 10;
const RECENT_PCT: u32 = 60;
/// `history_read`: the writer's fixed rate, in forced appends per second.
/// An assumption: a seventh to a fifteenth of what `forced_log`'s two
/// clients sustain on the reference host, so the writer is background
/// load.
const WRITER_RATE: u64 = 1_000;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ForcedLog,
    BufferedIngest,
    HistoryRead,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "forced_log" => Some(Workload::ForcedLog),
            "buffered_ingest" => Some(Workload::BufferedIngest),
            "history_read" => Some(Workload::HistoryRead),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ForcedLog => "forced_log",
            Workload::BufferedIngest => "buffered_ingest",
            Workload::HistoryRead => "history_read",
        }
    }

    /// Whether the workload's appends are forced.
    pub fn forced(self) -> bool {
        self != Workload::BufferedIngest
    }

    /// Throwaway set-ups timed after round `round`, besides the one each
    /// run (and each `buffered_ingest` round) keeps: as many as stay cheap
    /// next to the measured time. `setup_s` is the median of them all.
    fn extra_setups(self, round: usize) -> usize {
        match self {
            Workload::ForcedLog => 3,
            Workload::BufferedIngest => 0,
            Workload::HistoryRead => usize::from(round % 2 == 1),
        }
    }
}

/// Everything one measured run observed.
#[derive(Default)]
pub struct Sample {
    /// On-CPU seconds of each set-up (its wall time waits on the host's
    /// `fsync`).
    pub setup_s: Vec<f64>,
    /// Wall-clock seconds of each set-up.
    pub setup_wall_s: Vec<f64>,
    /// Appends acknowledged in the measured window.
    pub appends: u64,

    /// Appends per second in each round (for `buffered_ingest`, with the
    /// final flush included).
    pub ops_s: Vec<f64>,
    pub append: Series,
    /// Each append's on-CPU time outside its device calls: the service's
    /// own share. Forced appends wait on the host's `fsync`, whose latency
    /// (and the kernel's CPU time for it) swings between runs far more
    /// than the service's code does, and the two `forced_log` clients
    /// contend for shared locks in patterns that differ from run to run.
    pub append_cpu: Series,
    pub user_bytes: u64,
    /// Device write calls and bytes over the measured appends (final
    /// flushes included).
    pub write_calls: u64,
    pub write_bytes: u64,
    /// Device bytes written by the appends themselves, before any final
    /// flush, per round.
    pub run_write_bytes: Vec<u64>,
    /// Acknowledged user bytes not yet on the device, per round.
    pub loss_window_bytes: Vec<u64>,
    pub read: Series,
    pub read_recent: Series,
    pub read_old: Series,
    pub seek: Series,
    /// Entrymap locates and blocks they examined, during the seeks.
    pub seek_locates: u64,
    pub seek_locate_blocks: u64,
    /// Cache counters over the phases that served the reads.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub recover_ms: Vec<f64>,
    pub recovery_blocks: Vec<u64>,
    /// Acknowledged durable entries checked after the power loss.
    pub durable_acks: u64,
    pub lost_acks: u64,
    pub loss_cause: Option<String>,
    /// Forced appends acknowledged before their block was on stable
    /// storage (each also counts as a failed op).
    pub unsynced_acks: u64,
    pub writer_late: Series,
    /// On-CPU nanoseconds of each run of the host's reference kernel,
    /// sampled between rounds.
    pub ref_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub captured: Vec<Vec<u8>>,
    pub spans: Vec<Span>,
}

impl Sample {
    /// Counts one checked operation.
    fn check(&mut self, ok: bool, what: &dyn Fn() -> String) {
        self.attempted += 1;
        if !ok {
            if self.failed < 10 {
                eprintln!("check failed: {}", what());
            }
            self.failed += 1;
        }
    }

    /// Counts one operation's result, returning its value if it succeeded.
    fn op<T>(&mut self, r: Result<T>, what: &str) -> Option<T> {
        let err = r.as_ref().err().map(ToString::to_string);
        self.check(err.is_none(), &|| {
            format!("{what}: {}", err.clone().unwrap_or_default())
        });
        r.ok()
    }

    /// Ends the current window of every latency series (see [`Series`]).
    fn close_windows(&mut self) {
        for series in [
            &mut self.append,
            &mut self.append_cpu,
            &mut self.read,
            &mut self.read_recent,
            &mut self.read_old,
            &mut self.seek,
            &mut self.writer_late,
        ] {
            series.close();
        }
    }

    /// Times the host's reference kernel [`REF_RUNS`] times.
    fn sample_host(&mut self) {
        for _ in 0..REF_RUNS {
            self.ref_ns.push(host::reference_ns() as f64);
        }
    }

    /// Adds the cache counters' growth from `before` to `after`.
    fn add_cache(&mut self, after: CacheSnapshot, before: CacheSnapshot) {
        self.cache_hits += after.hits - before.hits;
        self.cache_misses += after.misses - before.misses;
        self.cache_evictions += after.evictions - before.evictions;
    }

    /// Adds the device writes from `before` to `after`, taken from the
    /// service's own device statistics.
    fn add_writes(&mut self, after: StatsSnapshot, before: StatsSnapshot) {
        self.write_calls += after.write_ops() - before.write_ops();
        self.write_bytes += written_bytes(after, before);
    }

    /// Counts `n` operations of which `failed` failed.
    fn checked(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        if failed > 0 {
            eprintln!("check failed: {what}: {failed} of {n}");
            self.failed += failed;
        }
    }

    /// Counts the durability check of `n` forced acks, of which
    /// `unsynced` returned before their block was on stable storage.
    fn unsynced(&mut self, n: u64, unsynced: u64) {
        self.checked(
            n,
            unsynced,
            "forced ack returned before its block was synced",
        );
        self.unsynced_acks += unsynced;
    }
}

/// One workload run's parameters.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Private scratch directory for device files.
    pub dir: PathBuf,
}

/// Runs the append `f` as an op span and returns its result with its
/// duration and its on-CPU time outside device calls, in ns.
fn timed_append<R>(f: impl FnOnce() -> R) -> (R, u32, u32) {
    let t = clock::now();
    let (r, cpu) = trace::own_cpu(|| trace::op(Kind::Append, f));
    (r, elapsed_ns(t), u32::try_from(cpu).unwrap_or(u32::MAX))
}

fn elapsed_ns(t: clock::Instant) -> u32 {
    u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Device bytes written from `before` to `after` (every write is of
/// whole blocks).
fn written_bytes(after: StatsSnapshot, before: StatsSnapshot) -> u64 {
    (after.appends - before.appends) * config().block_size as u64
}

/// The shipped configuration. The device pool is the only thing swapped.
pub fn config() -> ServiceConfig {
    ServiceConfig::default()
}

/// A fresh service on a fresh pool in `dir`.
fn start(dir: &Path) -> Result<(Arc<FilePool>, LogService)> {
    let cfg = config();
    let pool = FilePool::create(dir, cfg.block_size)?;
    let svc = LogService::create(VolumeSeqId(1), pool.clone(), cfg, Arc::new(SystemClock))?;
    Ok((pool, svc))
}

fn create_logs(svc: &LogService, paths: Vec<String>, len: usize) -> Result<Logs> {
    let ids = paths
        .iter()
        .map(|p| svc.create_log(p))
        .collect::<Result<Vec<_>>>()?;
    let lens = vec![len; paths.len()];
    Ok(Logs { paths, ids, lens })
}

fn setup_err(msg: String) -> ClioError {
    ClioError::Internal(msg)
}

/// Times one set-up by `make` in the directory `tag`.
fn set_up<T>(run: &Run, s: &mut Sample, tag: &str, make: impl Fn(&Path) -> Result<T>) -> Result<T> {
    // Pay for earlier deletions before the clock starts.
    settle(&run.dir)?;
    let (t, cpu0) = (clock::now(), host::cpu_ns());
    let made = make(&run.dir.join(tag))?;
    s.setup_s.push((host::cpu_ns() - cpu0) as f64 / 1e9);
    s.setup_wall_s.push(t.elapsed().as_secs_f64());
    Ok(made)
}

/// Times the workload's throwaway set-ups after round `round`; dropping
/// each removes its directory.
fn extra_setups<T>(
    run: &Run,
    s: &mut Sample,
    round: usize,
    make: impl Fn(&Path) -> Result<T>,
) -> Result<()> {
    for i in 0..run.workload.extra_setups(round) {
        drop(set_up(run, s, &format!("extra{round}-{i}"), &make)?);
    }
    Ok(())
}

fn recover(pool: &Arc<FilePool>) -> Result<(LogService, clio_core::recovery::RecoveryReport)> {
    LogService::recover(
        pool.devices(),
        pool.clone() as Arc<dyn DevicePool>,
        config(),
        Arc::new(SystemClock),
    )
}

/// Drops `svc` without a flush and recovers from the surviving devices
/// `cycles` times, timing each; returns the last service.
fn crash_and_recover(
    pool: &Arc<FilePool>,
    svc: LogService,
    cycles: usize,
    s: &mut Sample,
) -> Result<LogService> {
    drop(svc);
    let mut last = None;
    for _ in 0..cycles {
        drop(last.take());
        let t = clock::now();
        let r = trace::op(Kind::Recover, || recover(pool));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (svc, report) = s
            .op(r, "recover")
            .ok_or_else(|| setup_err("recovery failed".into()))?;
        s.recover_ms.push(ms);
        s.recovery_blocks.push(report.rebuild_blocks_read);
        last = Some(svc);
    }
    last.ok_or_else(|| setup_err("no recovery ran".into()))
}

/// Reads every ack in `acks` back through `svc`, timing each read.
fn read_back(svc: &LogService, seed: u64, logs: &Logs, acks: &[Ack], s: &mut Sample) {
    for a in acks {
        let t = clock::now();
        let r = trace::op(Kind::Read, || svc.read_entry(a.addr));
        s.read.push(elapsed_ns(t));
        let ok = r.is_ok_and(|e| logs.matches(seed, a, &e));
        s.check(ok, &|| format!("read back {a:?}"));
    }
}

/// One timed, checked time seek to `target` in a log of `acked` entries.
fn timed_seek(svc: &LogService, seed: u64, logs: &Logs, target: &Ack, acked: u32, s: &mut Sample) {
    let path = &logs.paths[usize::from(target.log)];
    let t = clock::now();
    let r = trace::op(Kind::Seek, || check::seek(svc, path, target.ts));
    s.seek.push(elapsed_ns(t));
    let ok = r.is_ok_and(|got| logs.seek_ok(seed, target, acked, &got));
    s.check(ok, &|| format!("seek {path} to {target:?}"));
}

/// `n` seeks to acks drawn uniformly from `targets`, with the entrymap
/// counters they moved. `acked[log]` is the number of entries in `log`.
#[allow(clippy::too_many_arguments)]
fn seek_phase(
    svc: &LogService,
    seed: u64,
    logs: &Logs,
    targets: &[Ack],
    acked: &[u32],
    n: usize,
    rng: &mut StdRng,
    s: &mut Sample,
) {
    let locates = svc.metrics().counter("clio_core_locates_total");
    let (l0, b0) = (locates.get(), svc.obs().locate_blocks.snapshot().sum);
    for _ in 0..n {
        let target = &targets[rng.gen_range(0..targets.len())];
        timed_seek(svc, seed, logs, target, acked[usize::from(target.log)], s);
    }
    s.seek_locates += locates.get() - l0;
    s.seek_locate_blocks += svc.obs().locate_blocks.snapshot().sum - b0;
}

/// The volume holding log `id`'s entries. No run fills a volume, so
/// each shard has exactly one; this checks that it does.
fn log_volume(svc: &LogService, id: LogFileId) -> Result<Arc<Volume>> {
    let shard = svc.shard_of(id);
    let seq = svc
        .shard_volumes(shard as usize)
        .ok_or_else(|| setup_err(format!("no shard {shard}")))?;
    if seq.volume_count() != 1 {
        return Err(setup_err(format!(
            "shard {shard} has {} volumes; every run expects one",
            seq.volume_count()
        )));
    }
    Ok(seq.active())
}

/// The device holding log `id`'s entries.
fn log_device(pool: &FilePool, svc: &LogService, id: LogFileId) -> Result<Arc<BenchDevice>> {
    let volume = log_volume(svc, id)?.label().volume;
    pool.device_of(volume)
        .ok_or_else(|| setup_err(format!("no device holds volume {volume}")))
}

/// The acknowledged user bytes whose entries are not yet wholly on the
/// device. `acks` must be in append order within each volume. An entry
/// ends at or before the block where the next entry on its volume starts,
/// so it is on the device once that block is; the last entry on a volume
/// is on the device once its own block is when it was forced (a forced
/// append seals its block), or once the block after it is when it was
/// buffered (it may continue there).
fn loss_window(svc: &LogService, logs: &Logs, acks: &[Ack], forced: bool) -> Result<u64> {
    let mut next_start: HashMap<u32, u64> = HashMap::new();
    let mut bytes = 0;
    for a in acks.iter().rev() {
        let log = usize::from(a.log);
        let must_be_written = match next_start.insert(a.addr.volume_index, a.addr.block.0) {
            Some(next) => next,
            None if forced => a.addr.block.0,
            None => a.addr.block.0 + 1,
        };
        if must_be_written >= log_volume(svc, logs.ids[log])?.data_end() {
            bytes += logs.lens[log] as u64;
        }
    }
    Ok(bytes)
}

/// Scans every log without sublogs, where log `i` should hold exactly
/// its `acked[i]` entries, in order. Returns the acknowledged entries
/// found intact and the entries found beyond them.
fn scan_all(svc: &LogService, seed: u64, logs: &Logs, acked: &[u32]) -> Result<(u64, u64)> {
    let (mut good, mut extra) = (0, 0);
    for (log, &n) in acked.iter().enumerate() {
        if !logs.is_leaf(log) {
            continue;
        }
        let (ok, total) = logs.scan(svc, seed, log as u16)?;
        good += u64::from(ok.min(n));
        extra += u64::from(total.saturating_sub(n));
    }
    Ok((good, extra))
}

/// Cuts every device back to its synced prefix, recovers, and counts the
/// durable acks that cannot be read back (`acked[i]` entries of log `i`).
/// A failed recovery loses all of them. This is a measurement, not a
/// check.
fn power_loss(
    pool: &Arc<FilePool>,
    svc: LogService,
    seed: u64,
    logs: &Logs,
    acked: &[u32],
    s: &mut Sample,
) {
    drop(svc);
    s.durable_acks = acked.iter().map(|&n| u64::from(n)).sum();
    let intact = pool
        .power_loss()
        .and_then(|()| recover(pool))
        .and_then(|(svc, _)| scan_all(&svc, seed, logs, acked));
    match intact {
        Err(e) => {
            s.lost_acks = s.durable_acks;
            s.loss_cause = Some(format!("recovery after power loss failed: {e}"));
        }
        Ok((good, _)) => {
            s.lost_acks = s.durable_acks - good;
            if s.lost_acks > 0 {
                s.loss_cause = Some("acknowledged entries unreadable after recovery".into());
            }
        }
    }
}

/// Runs `run`'s workload.
pub fn execute(run: &Run) -> Result<Sample> {
    if host::thread_cpu_ns().is_none() {
        return Err(setup_err("cannot read the thread's CPU-time clock".into()));
    }
    let mut s = Sample::default();
    settle(&run.dir)?;
    trace::set_enabled(run.traced);
    let r = match run.workload {
        Workload::ForcedLog => forced_log(run, &mut s),
        Workload::BufferedIngest => buffered_ingest(run, &mut s),
        Workload::HistoryRead => history_read(run, &mut s),
    };
    trace::set_enabled(false);
    r?;
    s.spans = trace::take();
    Ok(s)
}

// ----------------------------------------------------------------------
// forced_log
// ----------------------------------------------------------------------

/// One `forced_log` client, carried from round to round.
struct Client {
    log: u16,
    acked: u32,
    /// The newest ack.
    last: Option<Ack>,
    /// A uniform (reservoir) sample of the acks.
    sample: Vec<Ack>,
    rng: StdRng,
    /// This round's latencies.
    lat_ns: Vec<u32>,
    cpu_ns: Vec<u32>,
    failed: u64,
    /// Acks whose block was not yet synced when the append returned.
    unsynced: u64,
}

impl Client {
    fn new(seed: u64, log: u16) -> Client {
        Client {
            log,
            acked: 0,
            last: None,
            sample: Vec::with_capacity(FORCED_SAMPLE),
            rng: StdRng::seed_from_u64(seed ^ u64::from(log)),
            lat_ns: Vec::new(),
            cpu_ns: Vec::new(),
            failed: 0,
            unsynced: 0,
        }
    }

    /// Issues forced appends to `id`, whose entries `dev` holds, closed
    /// loop, for `len`.
    fn run(
        &mut self,
        svc: &LogService,
        dev: &BenchDevice,
        seed: u64,
        id: LogFileId,
        len: Duration,
    ) {
        let t0 = clock::now();
        while t0.elapsed() < len {
            let seq = self.acked;
            let data = check::payload(seed, self.log, seq, FORCED_LEN);
            let (r, ns, cpu) = timed_append(|| svc.append(id, &data, AppendOpts::forced()));
            match r {
                Ok(rc) => {
                    self.lat_ns.push(ns);
                    self.cpu_ns.push(cpu);
                    if !dev.is_synced(rc.addr.block.0) {
                        self.unsynced += 1;
                    }
                    let a = Ack {
                        log: self.log,
                        seq,
                        addr: rc.addr,
                        ts: rc.timestamp,
                    };
                    if self.sample.len() < FORCED_SAMPLE {
                        self.sample.push(a);
                    } else {
                        let j = self.rng.gen_range(0..=seq as usize);
                        if j < FORCED_SAMPLE {
                            self.sample[j] = a;
                        }
                    }
                    self.last = Some(a);
                    self.acked += 1;
                }
                Err(e) => {
                    if self.failed == 0 {
                        eprintln!("forced append failed: {e}");
                    }
                    self.failed += 1;
                }
            }
        }
    }
}

/// A fresh service with one top-level log per client, on distinct shards.
fn forced_setup(dir: &Path) -> Result<(Arc<FilePool>, LogService, Logs)> {
    let (pool, svc) = start(dir)?;
    let logs = create_logs(&svc, vec!["/client0".into(), "/client1".into()], FORCED_LEN)?;
    let shards = (svc.shard_of(logs.ids[0]), svc.shard_of(logs.ids[1]));
    if shards.0 == shards.1 {
        return Err(setup_err(format!(
            "both clients route to shard {}",
            shards.0
        )));
    }
    Ok((pool, svc, logs))
}

/// Two clients, each issuing forced appends to its own top-level log on
/// its own shard, closed loop. Between rounds: crash and recovery, timed
/// reads of sampled acks, and seeks.
fn forced_log(run: &Run, s: &mut Sample) -> Result<()> {
    let (pool, mut svc, logs) = set_up(run, s, "setup", forced_setup)?;
    println!(
        "forced_log: {} on shard {}, {} on shard {}",
        logs.paths[0],
        svc.shard_of(logs.ids[0]),
        logs.paths[1],
        svc.shard_of(logs.ids[1])
    );
    let mut clients = [Client::new(run.seed, 0), Client::new(run.seed, 1)];
    let round_len = Duration::from_secs_f64(run.seconds / ROUNDS as f64);
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x5eec);
    for round in 0..ROUNDS {
        let devs = logs
            .ids
            .iter()
            .map(|&id| log_device(&pool, &svc, id))
            .collect::<Result<Vec<_>>>()?;
        let dev0 = svc.obs().device_stats.snapshot();
        let before: u32 = clients.iter().map(|c| c.acked).sum();
        let t = clock::now();
        std::thread::scope(|sc| {
            for ((c, &id), dev) in clients.iter_mut().zip(&logs.ids).zip(&devs) {
                let svc = &svc;
                sc.spawn(move || c.run(svc, dev, run.seed, id, round_len));
            }
        });
        let appended = clients.iter().map(|c| c.acked).sum::<u32>() - before;
        for c in &mut clients {
            for ns in c.lat_ns.drain(..) {
                s.append.push(ns);
            }
            for ns in c.cpu_ns.drain(..) {
                s.append_cpu.push(ns);
            }
        }
        s.ops_s
            .push(f64::from(appended) / t.elapsed().as_secs_f64());
        s.add_writes(svc.obs().device_stats.snapshot(), dev0);
        // The durability check above assumes the logs stayed on one
        // volume each.
        for &id in &logs.ids {
            log_volume(&svc, id)?;
        }
        if round + 1 == ROUNDS {
            let lasts: Vec<Ack> = clients.iter().filter_map(|c| c.last).collect();
            s.loss_window_bytes
                .push(loss_window(&svc, &logs, &lasts, true)?);
        }

        svc = crash_and_recover(&pool, svc, RECOVER_CYCLES, s)?;
        let sample: Vec<Ack> = clients
            .iter()
            .flat_map(|c| c.sample.iter().copied())
            .collect();
        let picks: Vec<Ack> = (0..FORCED_READS)
            .map(|_| sample[rng.gen_range(0..sample.len())])
            .collect();
        let acked: Vec<u32> = clients.iter().map(|c| c.acked).collect();
        let c0 = svc.cache().stats();
        read_back(&svc, run.seed, &logs, &picks, s);
        seek_phase(
            &svc,
            run.seed,
            &logs,
            &sample,
            &acked,
            FORCED_SEEKS,
            &mut rng,
            s,
        );
        s.add_cache(svc.cache().stats(), c0);
        s.close_windows();
        s.sample_host();
        extra_setups(run, s, round, forced_setup)?;
    }
    s.run_write_bytes.push(s.write_bytes);
    for c in &mut clients {
        s.checked(u64::from(c.acked) + c.failed, c.failed, "forced append");
        s.unsynced(u64::from(c.acked), c.unsynced);
        s.appends += u64::from(c.acked);
    }
    s.user_bytes = s.appends * FORCED_LEN as u64;

    // Every ack, not just the sample: each log must hold exactly its
    // acknowledged entries, and the newest must sit where its receipt
    // said.
    let acked: Vec<u32> = clients.iter().map(|c| c.acked).collect();
    let (good, extra) = scan_all(&svc, run.seed, &logs, &acked)?;
    let total: u64 = acked.iter().map(|&n| u64::from(n)).sum();
    s.checked(total + extra, total - good + extra, "scan after recovery");
    for a in clients.iter().filter_map(|c| c.last.as_ref()) {
        s.check(logs.read_ok(&svc, run.seed, a), &|| {
            format!("newest ack {a:?}")
        });
    }
    s.captured = pool.captured();
    power_loss(&pool, svc, run.seed, &logs, &acked, s);
    Ok(())
}

// ----------------------------------------------------------------------
// buffered_ingest
// ----------------------------------------------------------------------

/// A fresh service with the ingest logs (top-level logs first, then their
/// sublogs), every shard holding at least one top-level log.
fn ingest_setup(dir: &Path) -> Result<(Arc<FilePool>, LogService, Logs)> {
    let (pool, svc) = start(dir)?;
    let mut paths: Vec<String> = (0..INGEST_TOPS).map(|t| format!("/ingest{t}")).collect();
    for t in 0..INGEST_TOPS {
        paths.extend((0..INGEST_SUBS).map(|j| format!("/ingest{t}/s{j}")));
    }
    let logs = create_logs(&svc, paths, BUFFERED_LEN)?;
    let mut used = vec![false; svc.shard_count()];
    for id in &logs.ids[..INGEST_TOPS] {
        used[svc.shard_of(*id) as usize] = true;
    }
    if used.contains(&false) {
        return Err(setup_err(format!(
            "ingest logs leave a shard unused: {used:?}"
        )));
    }
    Ok((pool, svc, logs))
}

/// Rounds of one client's buffered appends to 64 sublogs, each round
/// ending with one flush, process crashes and recoveries, read-back and
/// seeks. Every round starts on a fresh service so rounds are alike.
fn buffered_ingest(run: &Run, s: &mut Sample) -> Result<()> {
    let mut spare = Some(set_up(run, s, "setup", ingest_setup)?);
    let mut rng = StdRng::seed_from_u64(run.seed);
    let t0 = clock::now();
    let mut round = 0u32;
    let mut last = None;
    while round == 0 || t0.elapsed().as_secs_f64() < run.seconds {
        drop(last.take());
        let (pool, svc, logs) = match spare.take() {
            Some(made) => made,
            None => set_up(run, s, &format!("round{round}"), ingest_setup)?,
        };
        let (svc, acked) = ingest_round(run, s, &pool, svc, &logs, &mut rng)?;
        last = Some((pool, svc, logs, acked));
        round += 1;
    }
    if let Some((pool, svc, logs, acked)) = last {
        s.captured = pool.captured();
        power_loss(&pool, svc, run.seed, &logs, &acked, s);
    }
    Ok(())
}

/// One round; returns the recovered service and each log's entry count.
fn ingest_round(
    run: &Run,
    s: &mut Sample,
    pool: &Arc<FilePool>,
    svc: LogService,
    logs: &Logs,
    rng: &mut StdRng,
) -> Result<(LogService, Vec<u32>)> {
    let mut acked = vec![0u32; logs.ids.len()];
    let mut acks = Vec::with_capacity(INGEST_APPENDS as usize);
    let dev0 = svc.obs().device_stats.snapshot();
    let mut busy_ns = 0u64;
    for _ in 0..INGEST_APPENDS {
        let log = rng.gen_range(INGEST_TOPS..logs.ids.len());
        let seq = acked[log];
        let data = check::payload(run.seed, log as u16, seq, BUFFERED_LEN);
        let (r, ns, cpu) =
            timed_append(|| svc.append(logs.ids[log], &data, AppendOpts::standard()));
        busy_ns += u64::from(ns);
        if let Some(rc) = s.op(r, "buffered append") {
            s.append.push(ns);
            s.append_cpu.push(cpu);
            acks.push(Ack {
                log: log as u16,
                seq,
                addr: rc.addr,
                ts: rc.timestamp,
            });
            acked[log] += 1;
        }
    }
    s.run_write_bytes
        .push(written_bytes(svc.obs().device_stats.snapshot(), dev0));
    s.loss_window_bytes
        .push(loss_window(&svc, logs, &acks, false)?);

    let t = clock::now();
    let r = trace::op(Kind::Flush, || svc.flush());
    busy_ns += u64::from(elapsed_ns(t));
    s.op(r, "final flush");
    s.add_writes(svc.obs().device_stats.snapshot(), dev0);
    s.appends += acks.len() as u64;
    s.user_bytes += acks.len() as u64 * BUFFERED_LEN as u64;
    s.ops_s.push(acks.len() as f64 / (busy_ns as f64 / 1e9));

    let svc = crash_and_recover(pool, svc, INGEST_RECOVERS, s)?;
    let c0 = svc.cache().stats();
    read_back(&svc, run.seed, logs, &acks, s);
    seek_phase(&svc, run.seed, logs, &acks, &acked, INGEST_SEEKS, rng, s);
    s.add_cache(svc.cache().stats(), c0);
    s.close_windows();
    s.sample_host();
    Ok((svc, acked))
}

// ----------------------------------------------------------------------
// history_read
// ----------------------------------------------------------------------

/// Index of the writer's log; the history sublogs follow it.
const WRITER_LOG: usize = 1;

struct History {
    pool: Arc<FilePool>,
    svc: LogService,
    logs: Logs,
    /// The history's acks, in append order.
    acks: Vec<Ack>,
    /// Entries per log.
    acked: Vec<u32>,
}

/// A fresh service with the history built, flushed and the recent
/// entries warmed into the cache. The writer's log goes on another shard.
fn history_setup(dir: &Path, seed: u64) -> Result<History> {
    let (pool, svc) = start(dir)?;
    let mut paths = vec!["/history".to_string(), "/writer".to_string()];
    paths.extend((0..HIST_SUBS).map(|j| format!("/history/s{j}")));
    let mut logs = create_logs(&svc, paths, BUFFERED_LEN)?;
    logs.lens[WRITER_LOG] = FORCED_LEN;
    if svc.shard_of(logs.ids[0]) == svc.shard_of(logs.ids[WRITER_LOG]) {
        return Err(setup_err("writer shares the history's shard".into()));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4157);
    let mut acked = vec![0u32; logs.ids.len()];
    let mut acks = Vec::with_capacity(HIST_ENTRIES as usize);
    for i in 0..HIST_ENTRIES {
        let log = rng.gen_range(WRITER_LOG + 1..logs.ids.len());
        let seq = acked[log];
        let data = check::payload(seed, log as u16, seq, BUFFERED_LEN);
        let rc = svc.append(logs.ids[log], &data, AppendOpts::standard())?;
        acks.push(Ack {
            log: log as u16,
            seq,
            addr: rc.addr,
            ts: rc.timestamp,
        });
        acked[log] += 1;
        if (i + 1) % HIST_FLUSH_EVERY == 0 {
            svc.flush()?;
        }
    }
    svc.flush()?;
    for a in &acks[acks.len() - HIST_RECENT..] {
        svc.read_entry(a.addr)?;
    }
    Ok(History {
        pool,
        svc,
        logs,
        acks,
        acked,
    })
}

/// What the open-loop writer observed, carried from round to round.
#[derive(Default)]
struct WriterOut {
    acks: Vec<Ack>,
    /// This round's latencies and lateness.
    lat_ns: Vec<u32>,
    late_ns: Vec<u32>,
    cpu_ns: Vec<u32>,
    failed: u64,
    /// Acks whose block was not yet synced when the append returned.
    unsynced: u64,
}

/// Forced appends to `id`, whose entries `dev` holds, at [`WRITER_RATE`]
/// until `stop`, each timed from when it was due.
fn writer(
    svc: &LogService,
    dev: &BenchDevice,
    seed: u64,
    id: LogFileId,
    stop: &AtomicBool,
    out: &mut WriterOut,
) {
    let since = |due: clock::Instant| {
        u32::try_from(clock::now().saturating_duration_since(due).as_nanos()).unwrap_or(u32::MAX)
    };
    let period = Duration::from_nanos(1_000_000_000 / WRITER_RATE);
    let start = clock::now();
    let mut k = 0u32;
    while !stop.load(Ordering::Acquire) {
        let due = start + period * k;
        k += 1;
        let now = clock::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.late_ns.push(since(due));
        let seq = out.acks.len() as u32;
        let data = check::payload(seed, WRITER_LOG as u16, seq, FORCED_LEN);
        let (r, _, cpu) = timed_append(|| svc.append(id, &data, AppendOpts::forced()));
        let ns = since(due);
        match r {
            Ok(rc) => {
                out.lat_ns.push(ns);
                out.cpu_ns.push(cpu);
                if !dev.is_synced(rc.addr.block.0) {
                    out.unsynced += 1;
                }
                out.acks.push(Ack {
                    log: WRITER_LOG as u16,
                    seq,
                    addr: rc.addr,
                    ts: rc.timestamp,
                });
            }
            Err(e) => {
                if out.failed == 0 {
                    eprintln!("writer append failed: {e}");
                }
                out.failed += 1;
            }
        }
    }
}

/// One reader over a prebuilt history — recent reads that hit the cache,
/// uniform old reads that miss, and time seeks — beside an open-loop
/// forced writer. Between rounds: crash and recovery, then the recent
/// working set is warmed again.
fn history_read(run: &Run, s: &mut Sample) -> Result<()> {
    let make = |dir: &Path| history_setup(dir, run.seed);
    let History {
        pool,
        mut svc,
        logs,
        acks,
        mut acked,
    } = set_up(run, s, "setup", make)?;
    let recent_from = acks.len() - HIST_RECENT;
    let mut rng = StdRng::seed_from_u64(run.seed);
    let mut w = WriterOut::default();
    let round_len = Duration::from_secs_f64(run.seconds / ROUNDS as f64);
    for round in 0..ROUNDS {
        if round > 0 {
            for a in &acks[recent_from..] {
                svc.read_entry(a.addr)?;
            }
        }
        let dev = log_device(&pool, &svc, logs.ids[WRITER_LOG])?;
        let dev0 = svc.obs().device_stats.snapshot();
        let c0 = svc.cache().stats();
        let locates = svc.metrics().counter("clio_core_locates_total");
        let (l0, b0) = (locates.get(), svc.obs().locate_blocks.snapshot().sum);
        let written = w.acks.len();
        let stop = AtomicBool::new(false);
        let t0 = clock::now();
        std::thread::scope(|sc| {
            let (svc, dev, stop, w) = (&svc, &dev, &stop, &mut w);
            let id = logs.ids[WRITER_LOG];
            sc.spawn(move || writer(svc, dev, run.seed, id, stop, w));
            while t0.elapsed() < round_len {
                let pick = rng.gen_range(0..100u32);
                if pick < SEEK_PCT {
                    let target = &acks[rng.gen_range(0..acks.len())];
                    timed_seek(
                        svc,
                        run.seed,
                        &logs,
                        target,
                        acked[usize::from(target.log)],
                        s,
                    );
                    continue;
                }
                let recent = pick < SEEK_PCT + RECENT_PCT;
                let a = if recent {
                    &acks[rng.gen_range(recent_from..acks.len())]
                } else {
                    &acks[rng.gen_range(0..recent_from)]
                };
                let t = clock::now();
                let r = trace::op(Kind::Read, || svc.read_entry(a.addr));
                let ns = elapsed_ns(t);
                s.read.push(ns);
                if recent {
                    s.read_recent.push(ns);
                } else {
                    s.read_old.push(ns);
                }
                let ok = r.is_ok_and(|e| logs.matches(run.seed, a, &e));
                s.check(ok, &|| format!("read {a:?}"));
            }
            stop.store(true, Ordering::Release);
        });
        s.ops_s
            .push((w.acks.len() - written) as f64 / t0.elapsed().as_secs_f64());
        s.seek_locates += locates.get() - l0;
        s.seek_locate_blocks += svc.obs().locate_blocks.snapshot().sum - b0;
        s.add_cache(svc.cache().stats(), c0);
        s.add_writes(svc.obs().device_stats.snapshot(), dev0);
        for ns in w.lat_ns.drain(..) {
            s.append.push(ns);
        }
        for ns in w.late_ns.drain(..) {
            s.writer_late.push(ns);
        }
        for ns in w.cpu_ns.drain(..) {
            s.append_cpu.push(ns);
        }
        s.close_windows();
        s.sample_host();
        // The durability check above assumes the writer's log stayed on
        // one volume.
        log_volume(&svc, logs.ids[WRITER_LOG])?;
        if round + 1 == ROUNDS {
            s.loss_window_bytes
                .push(loss_window(&svc, &logs, &w.acks, true)?);
        }
        svc = crash_and_recover(&pool, svc, RECOVER_CYCLES, s)?;
        extra_setups(run, s, round, make)?;
    }
    s.run_write_bytes.push(s.write_bytes);
    s.checked(w.acks.len() as u64 + w.failed, w.failed, "writer append");
    s.unsynced(w.acks.len() as u64, w.unsynced);
    s.appends = w.acks.len() as u64;
    s.user_bytes = s.appends * FORCED_LEN as u64;
    acked[WRITER_LOG] = w.acks.len() as u32;

    // The read-back is the output check, not part of the read mix: keep
    // it out of the read latencies and the read spans.
    let mix_reads = std::mem::take(&mut s.read);
    trace::set_enabled(false);
    read_back(&svc, run.seed, &logs, &acks, s);
    read_back(&svc, run.seed, &logs, &w.acks, s);
    trace::set_enabled(run.traced);
    s.read = mix_reads;
    s.captured = pool.captured();
    power_loss(&pool, svc, run.seed, &logs, &acked, s);
    Ok(())
}
