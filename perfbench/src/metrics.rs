//! Turns measured samples into the reported metrics.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;

use clio_format::{BlockBuilder, BlockView};
use clio_obs::clock;
use clio_types::crc::crc32;

use crate::host;
use crate::series::{median, quantile, Series};
use crate::trace::{Kind, Span};
use crate::workload::{Sample, Workload};

/// Repetitions of each format timing over the captured blocks.
const FORMAT_REPS: usize = 64;

fn median_u(v: &[u64]) -> Option<f64> {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

fn us(ns: Option<f64>) -> Option<f64> {
    ns.map(|n| n / 1e3)
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Peak resident set size of this process, in MiB.
fn mem_peak_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One reported value.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
    /// Whether it goes into the JSON result line.
    json: bool,
    note: String,
}

/// Whether a JSON metric that could not be measured fails the run. The
/// bounded end-to-end metrics must: written as 0, a "lower is better"
/// figure would read as a perfect result. A per-layer metric that a
/// workload does not exercise (the writer's lateness on `forced_log`,
/// say) is written as 0.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Missing {
    Fails,
    IsZero,
}

/// A finished report: the table and the JSON line.
pub struct Report {
    pub correct: bool,
    attempted: u64,
    failed: u64,
    missing: Missing,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn new(attempted: u64, failed: u64, missing: Missing) -> Report {
        Report {
            correct: failed == 0,
            attempted,
            failed,
            missing,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn put(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: Option<f64>,
        json: bool,
        note: String,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value: value.filter(|v| v.is_finite()),
            json,
            note,
        });
    }

    /// Adds a JSON metric with no note.
    fn add(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        self.put(name, unit, value, true, String::new());
    }

    /// Prints the table, then the JSON result as the last line. A JSON
    /// metric that could not be measured is left out of the line and
    /// fails the run when `missing` says so.
    pub fn print(&mut self) {
        if self.missing == Missing::Fails {
            for m in self.metrics.iter().filter(|m| m.json && m.value.is_none()) {
                self.notes.push(format!("{} could not be measured", m.name));
                self.correct = false;
            }
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        for m in &self.metrics {
            let v = m
                .value
                .map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"));
            println!("  {:<30} {:>16} {:<6} {}", m.name, v, m.unit, m.note);
        }
        let fields: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.json && (m.value.is_some() || self.missing == Missing::IsZero))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value.unwrap_or(0.0),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

fn n(v: &Series) -> String {
    format!("(n={})", v.count())
}

/// The end-to-end metrics of an untraced run: those with a bound go into
/// the JSON line, the client's wall-clock append figures and the
/// durability figures are printed with them.
pub fn end_to_end(w: Workload, s: &Sample) -> Report {
    let mut r = Report::new(s.attempted, s.failed, Missing::Fails);
    r.notes.push(format!(
        "appends are {}; read_* and seek_* are {}",
        if w.forced() { "forced" } else { "buffered" },
        if w == Workload::HistoryRead {
            "the reader's mix during the window"
        } else {
            "the read-back and seeks after crash recovery"
        }
    ));
    // The bounded times are scaled to the reference host's speed (see
    // `host`); the notes give them as measured.
    let scale = median(&s.ref_ns).map(|ns| host::REF_NOMINAL_NS / ns);
    let mut scaled = |name, unit, raw: Option<f64>, note: String| {
        let v = raw.zip(scale).map(|(v, k)| v * k);
        let raw = raw.map_or_else(|| "n/a".into(), |v| format!("{v:.3}"));
        r.put(name, unit, v, true, format!("(as measured {raw}) {note}"));
    };
    scaled(
        "setup_s",
        "s",
        median(&s.setup_s),
        format!("(on-CPU; median of {})", s.setup_s.len()),
    );
    scaled(
        "append_cpu_us",
        "us",
        s.append_cpu.p50_us(),
        format!("(on-CPU, outside device calls) {}", n(&s.append_cpu)),
    );
    scaled("read_p50_us", "us", s.read.p50_us(), n(&s.read));
    scaled("seek_p50_us", "us", s.seek.p50_us(), n(&s.seek));
    scaled(
        "recover_ms",
        "ms",
        median(&s.recover_ms),
        format!("(median of {})", s.recover_ms.len()),
    );
    r.add(
        "bytes_per_user_byte",
        "ratio",
        ratio(s.write_bytes as f64, s.user_bytes as f64),
    );
    r.add("mem_peak_mib", "MiB", mem_peak_mib());
    r.put(
        "host.ref_us",
        "us",
        median(&s.ref_ns).map(|ns| ns / 1e3),
        false,
        format!("(reference kernel, on-CPU; median of {})", s.ref_ns.len()),
    );
    client(&mut r, w, s, false);
    r
}

/// The client's wall-clock append figures, its p99 read and seek
/// latencies, and the durability figures. They carry no bound: forced
/// appends wait on the host's `fsync`, and p99s of the reference host
/// swing with its CPU steal, both far more between runs than any bound
/// allows; the durability figures are zero when the system is right.
fn client(r: &mut Report, w: Workload, s: &Sample, json: bool) {
    let kind = if w.forced() { "forced" } else { "buffered" };
    if !json {
        r.put(
            "setup_wall_s",
            "s",
            median(&s.setup_wall_s),
            false,
            String::new(),
        );
    }
    r.put(
        "client.append_ops_s",
        "1/s",
        median(&s.ops_s),
        json,
        format!("(median of {} rounds)", s.ops_s.len()),
    );
    r.put(
        "client.append_p50_us",
        "us",
        s.append.p50_us(),
        json,
        format!("({kind}) {}", n(&s.append)),
    );
    r.put(
        "client.append_p99_us",
        "us",
        s.append.p99_us(),
        json,
        format!("({kind})"),
    );
    r.put(
        "client.read_p99_us",
        "us",
        s.read.p99_us(),
        json,
        n(&s.read),
    );
    r.put(
        "client.seek_p99_us",
        "us",
        s.seek.p99_us(),
        json,
        n(&s.seek),
    );
    if w == Workload::HistoryRead && !json {
        r.put(
            "read_recent_p50_us",
            "us",
            s.read_recent.p50_us(),
            false,
            n(&s.read_recent),
        );
        r.put(
            "read_old_p50_us",
            "us",
            s.read_old.p50_us(),
            false,
            n(&s.read_old),
        );
    }
    r.put(
        "client.loss_window_bytes",
        "bytes",
        median_u(&s.loss_window_bytes),
        json,
        format!("(median of {})", s.loss_window_bytes.len()),
    );
    r.put(
        "client.lost_acks",
        "count",
        Some(s.lost_acks as f64),
        json,
        format!("(of {} durable acks)", s.durable_acks),
    );
    if let Some(cause) = &s.loss_cause {
        r.notes.push(format!("power-loss check: {cause}"));
    }
    if !json && w.forced() {
        r.put(
            "unsynced_acks",
            "count",
            Some(s.unsynced_acks as f64),
            false,
            "(forced acks returned before their block was synced; each fails the run)".into(),
        );
    }
    r.put(
        "client.error_rate",
        "ratio",
        ratio(r.failed as f64, r.attempted as f64),
        json,
        format!("({} failed of {})", r.failed, r.attempted),
    );
}

/// Device spans' total duration per op span id.
fn child_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for sp in spans.iter().filter(|s| s.kind.is_device() && s.parent != 0) {
        *m.entry(sp.parent).or_insert(0) += u64::from(sp.dur_ns);
    }
    m
}

/// Median self time (duration minus device children) of `kind` ops, µs.
fn self_us(spans: &[Span], children: &HashMap<u64, u64>, kind: Kind) -> Option<f64> {
    let v: Vec<u32> = spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| {
            let own = u64::from(s.dur_ns).saturating_sub(children.get(&s.id).copied().unwrap_or(0));
            u32::try_from(own).unwrap_or(u32::MAX)
        })
        .collect();
    us(quantile(&v, 0.5))
}

/// Times `BlockBuilder::finish`, `BlockView::parse` and `crc32` on the
/// captured block images: (finish µs/block, parse µs/block, crc MB/s,
/// blocks whose rebuilt image differs).
fn format_timings(images: &[Vec<u8>]) -> (Option<f64>, Option<f64>, Option<f64>, u64) {
    let mut builders = Vec::new();
    let mut mismatched = 0;
    for img in images {
        let Ok(view) = BlockView::parse(img) else {
            continue;
        };
        let mut b = BlockBuilder::new(img.len(), view.first_ts());
        *b.flags_mut() = view.flags();
        for e in view.entries().flatten() {
            b.push(&e.header, e.payload);
        }
        if b.finish() != *img {
            mismatched += 1;
        }
        builders.push((img, b));
    }
    if builders.is_empty() {
        return (None, None, None, mismatched);
    }
    let per_block = |total: std::time::Duration| {
        Some(total.as_secs_f64() * 1e6 / (builders.len() * FORMAT_REPS) as f64)
    };
    let t = clock::now();
    for _ in 0..FORMAT_REPS {
        for (_, b) in &builders {
            black_box(b.finish());
        }
    }
    let finish = per_block(t.elapsed());
    let t = clock::now();
    for _ in 0..FORMAT_REPS {
        for (img, _) in &builders {
            let _ = black_box(BlockView::parse(black_box(img)));
        }
    }
    let parse = per_block(t.elapsed());
    let bytes: usize = builders.iter().map(|(img, _)| img.len()).sum();
    let t = clock::now();
    for _ in 0..FORMAT_REPS {
        for (img, _) in &builders {
            black_box(crc32(black_box(img)));
        }
    }
    let crc = ratio(
        (bytes * FORMAT_REPS) as f64 / 1e6,
        t.elapsed().as_secs_f64(),
    );
    (finish, parse, crc, mismatched)
}

/// The per-layer metrics of a traced run, with the tracing overhead
/// against the untraced run `plain` of the same length.
pub fn per_layer(w: Workload, plain: &Sample, s: &Sample) -> Report {
    let (fin, parse, crc, mismatched) = format_timings(&s.captured);
    let captured = s.captured.len() as u64;
    let mut r = Report::new(
        plain.attempted + s.attempted + captured,
        plain.failed + s.failed + mismatched,
        Missing::IsZero,
    );
    if mismatched > 0 {
        r.notes.push(format!(
            "{mismatched} captured blocks did not rebuild byte-identically"
        ));
    }
    let children = child_ns(&s.spans);
    let kinds: HashMap<u64, Kind> = s
        .spans
        .iter()
        .filter(|sp| !sp.kind.is_device())
        .map(|sp| (sp.id, sp.kind))
        .collect();
    let under = |parents: &[Kind], dev: &[Kind]| -> Vec<u32> {
        s.spans
            .iter()
            .filter(|sp| dev.contains(&sp.kind))
            .filter(|sp| kinds.get(&sp.parent).is_some_and(|k| parents.contains(k)))
            .map(|sp| sp.dur_ns)
            .collect()
    };
    let reads = under(&[Kind::Read, Kind::Seek], &[Kind::DevReadBlock]);
    let seek_reads = under(&[Kind::Seek], &[Kind::DevReadBlock]).len() as f64;
    let writes: Vec<u32> = s
        .spans
        .iter()
        .filter(|sp| matches!(sp.kind, Kind::DevAppendBlock | Kind::DevAppendBlocks))
        .map(|sp| sp.dur_ns)
        .collect();
    let seeks = s.seek.count() as f64;
    let lookups = s.cache_hits + s.cache_misses;

    r.add(
        "core.append_self_us",
        "us",
        self_us(&s.spans, &children, Kind::Append),
    );
    r.add(
        "core.read_self_us",
        "us",
        self_us(&s.spans, &children, Kind::Read),
    );
    r.add(
        "core.seek_self_us",
        "us",
        self_us(&s.spans, &children, Kind::Seek),
    );
    r.add("device.write_calls", "count", Some(s.write_calls as f64));
    r.add("device.write_bytes", "bytes", Some(s.write_bytes as f64));
    r.put(
        "device.write_us_p50",
        "us",
        us(quantile(&writes, 0.5)),
        true,
        format!("(n={})", writes.len()),
    );
    r.put(
        "device.appends_per_write",
        "ratio",
        ratio(s.appends as f64, s.write_calls as f64),
        true,
        format!("({} appends)", s.appends),
    );
    r.add(
        "device.run_write_bytes",
        "bytes",
        median_u(&s.run_write_bytes),
    );
    r.add("device.read_calls", "count", Some(reads.len() as f64));
    r.add("device.read_us_p50", "us", us(quantile(&reads, 0.5)));
    r.put(
        "cache.hit_ratio",
        "ratio",
        ratio(s.cache_hits as f64, lookups as f64),
        true,
        format!("({lookups} lookups)"),
    );
    r.add("cache.misses", "count", Some(s.cache_misses as f64));
    r.add("cache.evictions", "count", Some(s.cache_evictions as f64));
    r.put(
        "entrymap.lookups_per_seek",
        "count",
        ratio(s.seek_locates as f64, seeks),
        true,
        format!("({seeks} seeks)"),
    );
    r.add(
        "entrymap.blocks_per_seek",
        "count",
        ratio(s.seek_locate_blocks as f64, seeks),
    );
    r.add(
        "entrymap.device_reads_per_seek",
        "count",
        ratio(seek_reads, seeks),
    );
    r.put(
        "format.finish_us",
        "us",
        fin,
        true,
        format!("({captured} blocks)"),
    );
    r.add("format.parse_us", "us", parse);
    r.add("format.crc_mb_s", "MB/s", crc);
    r.add(
        "recovery.blocks_read",
        "count",
        median_u(&s.recovery_blocks),
    );
    let primary = |x: &Sample| {
        if w == Workload::HistoryRead {
            x.read.p50_us()
        } else {
            x.append.p50_us()
        }
    };
    let overhead = primary(s)
        .zip(primary(plain))
        .and_then(|(t, p)| ratio(t - p, p))
        .map(|f| f * 100.0);
    r.add("bench.trace_overhead_pct", "%", overhead);
    r.put(
        "bench.writer_late_us",
        "us",
        plain.writer_late.p99_us(),
        true,
        n(&plain.writer_late),
    );
    client(&mut r, w, plain, true);
    r
}

/// Writes the spans as tab-separated `id parent kind start_ns dur_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "id\tparent\tkind\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.kind.name(),
            s.start_ns,
            s.dur_ns
        )?;
    }
    out.flush()
}
