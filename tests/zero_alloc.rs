//! Proof that the engine's steady-state loop is allocation-free.
//!
//! A counting global allocator measures the number of heap allocations a
//! full engine run performs. Running the *same* cyclic workload for N and
//! 2N laps must allocate (nearly) the same number of times: everything the
//! engine allocates — caches, scratch buffers, predictor tables, queues —
//! is set up during construction and the first laps, after which the
//! per-retirement path runs out of fixed-capacity storage. The v2 trace
//! reader that feeds sampled runs is held to the same standard.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use pif_baselines::{NextLinePrefetcher, PerfectICache};
use pif_core::{Pif, PifConfig};
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};
use pif_trace::{encode_v2, TraceReader, DEFAULT_CHUNK_RECORDS};
use pif_types::{Address, RetiredInstr, TrapLevel};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Counting per thread keeps the
    /// harness's and concurrently running tests' allocations out of a
    /// test's measurement window. Const-initialized and without a
    /// destructor, so the allocator can read it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread (the engine runs on the
/// caller's thread).
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A thrashing sweep (footprint 2× the L1-I) repeated `laps` times.
fn sweep_trace(laps: u64) -> Vec<RetiredInstr> {
    let mut v = Vec::new();
    for _ in 0..laps {
        for blk in 0..2048u64 {
            for i in 0..16 {
                v.push(RetiredInstr::simple(
                    Address::new(blk * 64 + i * 4),
                    TrapLevel::Tl0,
                ));
            }
        }
    }
    v
}

#[test]
fn engine_steady_state_is_allocation_free_without_prefetcher() {
    let engine = Engine::new(EngineConfig::paper_default());
    let short = sweep_trace(4);
    let long = sweep_trace(8);
    let a_short = allocs_during(|| {
        engine.run(short.iter().copied(), NoPrefetcher, RunOptions::new());
    });
    let a_long = allocs_during(|| {
        engine.run(long.iter().copied(), NoPrefetcher, RunOptions::new());
    });
    assert_eq!(
        a_short, a_long,
        "engine allocations must not scale with trace length \
         ({a_short} for 4 laps vs {a_long} for 8 laps)"
    );
}

#[test]
fn engine_steady_state_is_allocation_free_with_pif() {
    let engine = Engine::new(EngineConfig::paper_default());
    let short = sweep_trace(4);
    let long = sweep_trace(8);
    let a_short = allocs_during(|| {
        engine.run(
            short.iter().copied(),
            Pif::new(PifConfig::paper_default()),
            RunOptions::new(),
        );
    });
    let a_long = allocs_during(|| {
        engine.run(
            long.iter().copied(),
            Pif::new(PifConfig::paper_default()),
            RunOptions::new(),
        );
    });
    // PIF's end-of-run stream-lifetime log (`completed`) legitimately
    // grows amortized with the number of replaced streams; everything on
    // the per-retirement path is allocation-free. 131k extra instructions
    // may therefore add at most a handful of amortized Vec doublings.
    let extra = a_long.saturating_sub(a_short);
    assert!(
        extra <= 8,
        "steady-state PIF run allocated {extra} times over 4 extra laps \
         ({a_short} vs {a_long})"
    );
}

/// A multi-lane run (one shared front end feeding several engine
/// states through a bounded event batch) is as allocation-free in steady
/// state as a single run: lane boxes, the batch buffer and the report
/// vector are allocated once, whatever the trace length.
#[test]
fn multi_lane_steady_state_is_allocation_free() {
    let engine = Engine::new(EngineConfig::paper_default());
    let run_lanes = |trace: &[RetiredInstr]| {
        let mut lanes = engine.lanes();
        lanes.add(NoPrefetcher);
        lanes.add(NextLinePrefetcher::aggressive());
        lanes.add(PerfectICache);
        let reports = engine
            .start(lanes, RunOptions::new())
            .run(trace.iter().copied());
        assert_eq!(reports.len(), 3);
    };
    let short = sweep_trace(4);
    let long = sweep_trace(8);
    let a_short = allocs_during(|| run_lanes(&short));
    let a_long = allocs_during(|| run_lanes(&long));
    assert_eq!(
        a_short, a_long,
        "multi-lane allocations must not scale with trace length \
         ({a_short} for 4 laps vs {a_long} for 8 laps)"
    );
}

/// Once a v2 reader has loaded its first chunk, draining it through
/// `instrs_mut()` and re-seeking it (the loop sampled simulation runs
/// once per window) reuse the reader's payload and record buffers and
/// allocate nothing. Every chunk here encodes the same 8 Ki-record lap,
/// so the first chunk sizes both buffers; a chunk whose payload is
/// longer than any before it would grow the payload buffer once.
#[test]
fn v2_decode_steady_state_is_allocation_free() {
    let chunk = DEFAULT_CHUNK_RECORDS as u64;
    let lap = (0..chunk).map(|i| RetiredInstr::simple(Address::new(i * 4), TrapLevel::Tl0));
    let trace: Vec<RetiredInstr> = (0..6).flat_map(|_| lap.clone()).collect();
    let total = trace.len() as u64;
    let bytes = encode_v2("sweep", &trace);
    let mut reader = TraceReader::open_indexed(Cursor::new(bytes.as_slice())).unwrap();
    assert_eq!(reader.next().unwrap().unwrap(), trace[0]);
    let allocs = allocs_during(|| {
        let mut instrs = reader.instrs_mut();
        assert_eq!(instrs.by_ref().count() as u64, total - 1);
        assert!(instrs.error().is_none());
        for n in [0, 100, chunk - 1, chunk, 3 * chunk + 7, total - 1, total] {
            reader.seek_to_record(n).unwrap();
            let mut instrs = reader.instrs_mut();
            assert_eq!(instrs.by_ref().count() as u64, total - n);
            assert!(instrs.error().is_none());
        }
    });
    assert_eq!(
        allocs, 0,
        "v2 drain and re-seek allocated {allocs} times after the first chunk"
    );
}
