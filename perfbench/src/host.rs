//! The host: the calling thread's CPU time, and a fixed reference kernel
//! that shows how fast the host runs at the moment.
//!
//! The reference host's speed swings by up to 1.5× between runs a few
//! minutes apart. The bounded time metrics are therefore scaled by
//! [`REF_NOMINAL_NS`] over the reference kernel's median on-CPU time in the
//! same run. The kernel is the benchmark's own code and calls nothing of
//! the service, and it runs between rounds with the service idle, so no
//! change to the service can move it.

use std::hint::black_box;

// The clock bindings below spell out 64-bit Linux's C types.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads thread CPU clocks through 64-bit Linux's C ABI");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's id of the calling thread's CPU-time clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU nanoseconds of the calling thread so far, or `None` when the
/// clock cannot be read.
pub fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// On-CPU nanoseconds of the calling thread; 0 if unreadable, which
/// [`crate::workload::execute`] rules out up front.
pub fn cpu_ns() -> u64 {
    thread_cpu_ns().unwrap_or(0)
}

/// The reference kernel's on-CPU time on the reference host (2-vCPU
/// Xeon VM): scaled metrics read as if measured at that speed.
pub const REF_NOMINAL_NS: f64 = 5e5;

/// Words the reference kernel walks: 512 KiB, beyond the L2 cache of
/// common server cores, like the service's block cache and indexes, yet
/// small next to the service's own memory (it adds to `mem_peak_mib`).
const REF_WORDS: usize = 1 << 17;
/// Dependent loads per kernel run.
const REF_STEPS: usize = 1 << 16;

/// Runs the reference kernel once — fill a buffer, then walk it with
/// dependent loads — and returns its on-CPU nanoseconds.
pub fn reference_ns() -> u64 {
    let cpu0 = cpu_ns();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let buf: Vec<u32> = (0..REF_WORDS)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        })
        .collect();
    let buf = black_box(buf);
    let mut at = 0usize;
    for _ in 0..REF_STEPS {
        at = (buf[at] as usize ^ at) % REF_WORDS;
    }
    black_box(at);
    cpu_ns() - cpu0
}
