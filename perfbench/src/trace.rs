//! In-memory span recording for the traced run.
//!
//! Spans are recorded only from the benchmark's own code: one *op* span
//! around each client call into `LogService`, and *device* child spans
//! from the [`crate::device::BenchDevice`] decorator, linked to the op
//! span running on the same thread through a thread-local parent id. Each
//! thread appends to its own buffer (registered once), so recording never
//! contends across client threads. Spans stay in memory until
//! [`take`] drains them at the end of the run.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, OnceLock};

use clio_obs::clock::{self, Instant};
use clio_testkit::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use clio_testkit::sync::Mutex;

use crate::host;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `LogService::append` (forced or buffered).
    Append,
    /// `LogService::flush`.
    Flush,
    /// `LogService::read_entry`.
    Read,
    /// `LogService::cursor_from_time` plus the cursor's `next()` calls.
    Seek,
    /// `LogService::recover`.
    Recover,
    /// `LogDevice::append_block` (no sync).
    DevAppendBlock,
    /// `LogDevice::append_blocks` (one write plus `sync_data`).
    DevAppendBlocks,
    /// `LogDevice::read_block`.
    DevReadBlock,
    /// `LogDevice::sync`.
    DevSync,
}

impl Kind {
    /// The name written to the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Append => "append",
            Kind::Flush => "flush",
            Kind::Read => "read",
            Kind::Seek => "seek",
            Kind::Recover => "recover",
            Kind::DevAppendBlock => "device.append_block",
            Kind::DevAppendBlocks => "device.append_blocks",
            Kind::DevReadBlock => "device.read_block",
            Kind::DevSync => "device.sync",
        }
    }

    /// Whether this is a device-layer (child) span.
    pub fn is_device(self) -> bool {
        matches!(
            self,
            Kind::DevAppendBlock | Kind::DevAppendBlocks | Kind::DevReadBlock | Kind::DevSync
        )
    }
}

/// One recorded span. `parent` is 0 for op spans and for device calls
/// made outside any op span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub kind: Kind,
    pub start_ns: u64,
    /// Saturated at `u32::MAX` (4.3 s), like the latency samples.
    pub dur_ns: u32,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

struct Tracer {
    on: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    buffers: Mutex<Vec<Buffer>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        epoch: clock::now(),
        buffers: Mutex::with_class(Vec::new(), "perfbench.trace.buffers"),
    })
}

thread_local! {
    static PARENT: Cell<u64> = const { Cell::new(0) };
    /// On-CPU ns of device calls inside the current [`own_cpu`] call, or
    /// `None` outside one.
    static DEVICE_CPU_NS: Cell<Option<u64>> = const { Cell::new(None) };
    static BUFFER: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    tracer().on.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    tracer().on.load(Ordering::Relaxed)
}

fn record(span: Span) {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        let buf = b.get_or_insert_with(|| {
            let buf: Buffer = Arc::new(Mutex::with_class(Vec::new(), "perfbench.trace.thread"));
            tracer().buffers.lock().push(buf.clone());
            buf
        });
        buf.lock().push(span);
    });
}

fn since_epoch_ns(t: Instant) -> u64 {
    u64::try_from(t.duration_since(tracer().epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` inside an op span of `kind` when tracing is on; device calls
/// it makes on this thread become the span's children.
pub fn op<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
    let outer = PARENT.with(|p| p.replace(id));
    let start = clock::now();
    let r = f();
    let dur = start.elapsed();
    PARENT.with(|p| p.set(outer));
    record(Span {
        id,
        parent: outer,
        kind,
        start_ns: since_epoch_ns(start),
        dur_ns: u32::try_from(dur.as_nanos()).unwrap_or(u32::MAX),
    });
    r
}

/// Runs `f` and returns its result with the on-CPU nanoseconds it spent
/// outside device calls: the service's own CPU time, without the host's
/// `write` and `fsync` work or time spent blocked.
pub fn own_cpu<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let outer = DEVICE_CPU_NS.with(|d| d.replace(Some(0)));
    let cpu0 = host::cpu_ns();
    let r = f();
    let total = host::cpu_ns() - cpu0;
    let dev = DEVICE_CPU_NS.with(|d| d.replace(outer)).unwrap_or(0);
    (r, total.saturating_sub(dev))
}

/// Runs the device call `f` as a child span of the current op span when
/// tracing is on, and counts its on-CPU time inside [`own_cpu`].
pub fn child<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if DEVICE_CPU_NS.with(Cell::get).is_none() {
        return span_child(kind, f);
    }
    let cpu0 = host::cpu_ns();
    let r = span_child(kind, f);
    let ns = host::cpu_ns() - cpu0;
    DEVICE_CPU_NS.with(|d| d.set(d.get().map(|n| n + ns)));
    r
}

fn span_child<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = clock::now();
    let r = f();
    let dur = start.elapsed();
    record(Span {
        id: 0,
        parent: PARENT.with(Cell::get),
        kind,
        start_ns: since_epoch_ns(start),
        dur_ns: u32::try_from(dur.as_nanos()).unwrap_or(u32::MAX),
    });
    r
}

/// Drains every span recorded so far, from every thread.
pub fn take() -> Vec<Span> {
    let buffers = tracer().buffers.lock().clone();
    let mut out = Vec::new();
    for b in buffers {
        out.append(&mut b.lock());
    }
    out.sort_by_key(|s| s.start_ns);
    out
}
