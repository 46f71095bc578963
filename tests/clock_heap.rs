//! Heap peak of the clock pipeline, under a byte-counting global
//! allocator.
//!
//! `compile_clock` at `jobs = 1` runs both arms on the calling thread:
//! each compiles, then packs. The packed stack holds its candidates flat
//! (one move list and one round-end list per candidate, the greedy repack
//! borrowing the input's operations), turns only the winner into a
//! `TransportSchedule`, and drops the compile's timeline while it packs.
//! This test pins the resulting peak of live bytes requested on the
//! thread, 10% above the measured value, so a change that brings back a
//! per-round vector per candidate, or a timeline nobody reads, fails it.
//!
//! Counts are per thread, so the harness's other test threads do not
//! leak into the measurement.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::machine::{MachineSpec, TrapTopology};
use muzzle_shuttle::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes live on this thread: requested minus freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The largest `LIVE` seen since the last [`peak_above_start`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is thread-local arithmetic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The peak of live bytes `f` reaches on this thread above the bytes live
/// when it starts.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (PEAK.with(Cell::get) - start, out)
}

/// The peak measured on this input, in bytes (6.38 MiB; holding a
/// `TransportSchedule` per candidate and the compile's timeline through the
/// pack, the pipeline peaked at 10.51 MiB).
const MEASURED_PEAK: i64 = 6_693_480;

#[test]
fn clock_pipeline_heap_peak_stays_pinned() {
    let spec = MachineSpec::new(TrapTopology::grid(4, 4), 12, 2).expect("valid spec");
    let circuit = random_circuit(120, 8000, 3);
    let config = CompilerConfig::optimized()
        .with_timing(TimingModel::realistic())
        .with_jobs(1);
    let (peak, result) = peak_above_start(|| compile_clock(&circuit, &spec, &config));
    let (compiled, _) = result.expect("compiles");
    assert!(compiled.stats.shuttles > 0);
    let bound = MEASURED_PEAK + MEASURED_PEAK / 10;
    eprintln!(
        "compile_clock heap peak: {peak} bytes ({:.2} MiB), bound {bound} bytes",
        peak as f64 / (1 << 20) as f64
    );
    assert!(
        peak <= bound,
        "compile_clock peaked at {peak} bytes above its start, over the pinned {bound}"
    );
}
