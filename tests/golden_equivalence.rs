//! Golden-equivalence guard for the engine's zero-allocation refactor.
//!
//! The flat (structure-of-arrays) `SetAssocCache` layout, the packed
//! per-set replacement state, and the sink-style prefetcher interfaces are
//! pure performance refactors: every `RunReport` counter must be
//! bit-identical to the pre-refactor engine. The constants below were
//! captured from the original implementation (PR 2 tree, commit
//! `7b07f0d`) on two deterministic traces — a synthetic OLTP profile and a
//! thrashing sweep — for every prefetcher. Any behavioural drift in the
//! cache, replacement, prefetch-queue, SAB, or event-dispatch paths shows
//! up here as a counter mismatch — for single runs and for the same
//! prefetchers run as lanes of one shared front end.

use pif_baselines::{DiscontinuityPrefetcher, NextLinePrefetcher, PerfectICache, Tifs};
use pif_core::{Pif, PifConfig};
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions, RunReport};
use pif_types::{Address, RetiredInstr, TrapLevel};
use pif_workloads::WorkloadProfile;

/// Canonical one-line rendering of every counter in a [`RunReport`].
fn fingerprint(r: &RunReport) -> String {
    format!(
        "{}|fetch:{},{},{},{},{},{}|pf:{},{},{},{}|fe:{},{},{},{}|t:{},{},{},{},{}|l2:{},{}",
        r.prefetcher,
        r.fetch.demand_accesses,
        r.fetch.wrong_path_accesses,
        r.fetch.demand_misses,
        r.fetch.wrong_path_misses,
        r.fetch.covered_by_prefetch,
        r.fetch.partial_covered,
        r.prefetch.issued,
        r.prefetch.dropped_resident,
        r.prefetch.useful,
        r.prefetch.unused_evicted,
        r.frontend.instructions,
        r.frontend.branches,
        r.frontend.mispredicts,
        r.frontend.wrong_path_accesses,
        r.timing.instructions,
        r.timing.cycles,
        r.timing.base_cycles,
        r.timing.fetch_stall_cycles,
        r.timing.mispredict_cycles,
        r.l2_hits,
        r.l2_misses,
    )
}

fn sweep_trace(blocks: u64, reps: u64) -> Vec<RetiredInstr> {
    let mut v = Vec::new();
    for _ in 0..reps {
        for blk in 0..blocks {
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

fn check(trace: &[RetiredInstr], warmup: usize, golden: &[&str]) {
    let engine = Engine::new(EngineConfig::paper_default());
    let runs: Vec<RunReport> = vec![
        engine.run(
            trace.iter().copied(),
            NoPrefetcher,
            RunOptions::new().warmup(warmup),
        ),
        engine.run(
            trace.iter().copied(),
            Pif::new(PifConfig::paper_default()),
            RunOptions::new().warmup(warmup),
        ),
        engine.run(
            trace.iter().copied(),
            NextLinePrefetcher::aggressive(),
            RunOptions::new().warmup(warmup),
        ),
        engine.run(
            trace.iter().copied(),
            Tifs::new(Default::default()),
            RunOptions::new().warmup(warmup),
        ),
        engine.run(
            trace.iter().copied(),
            DiscontinuityPrefetcher::paper_scale(),
            RunOptions::new().warmup(warmup),
        ),
        engine.run(
            trace.iter().copied(),
            PerfectICache,
            RunOptions::new().warmup(warmup),
        ),
    ];
    assert_eq!(runs.len(), golden.len());
    for (run, expected) in runs.iter().zip(golden) {
        assert_eq!(
            fingerprint(run),
            *expected,
            "RunReport drifted from the pre-refactor engine for {}",
            run.prefetcher
        );
    }

    // The same six prefetchers as lanes of one shared front end must
    // reproduce the same counters.
    let mut lanes = engine.lanes();
    lanes.add(NoPrefetcher);
    lanes.add(Pif::new(PifConfig::paper_default()));
    lanes.add(NextLinePrefetcher::aggressive());
    lanes.add(Tifs::new(Default::default()));
    lanes.add(DiscontinuityPrefetcher::paper_scale());
    lanes.add(PerfectICache);
    let lane_reports = engine
        .start(lanes, RunOptions::new().warmup(warmup))
        .run(trace.iter().copied());
    assert_eq!(lane_reports.len(), golden.len());
    for (lane, expected) in lane_reports.iter().zip(golden) {
        assert_eq!(
            fingerprint(lane),
            *expected,
            "multi-lane run drifted from the pre-refactor engine for {}",
            lane.prefetcher
        );
    }
}

/// OLTP-style workload, warmed: the paper's steady-state methodology.
#[test]
fn golden_counters_oltp_trace() {
    let trace = WorkloadProfile::oltp_db2().scaled(0.05).generate(120_000);
    check(
        trace.instrs(),
        36_000,
        &[
            "None|fetch:11575,1408,457,244,0,0|pf:0,0,0,0|fe:120000,8645,762,2716|t:84096,86798,65875,16159,4764|l2:469,1123",
            "PIF|fetch:11575,1408,172,182,355,10|pf:607,3909,365,242|fe:120000,8645,762,2716|t:84096,83040,65875,12401,4764|l2:852,1123",
            "Next-Line|fetch:11575,1408,94,79,441,81|pf:1180,6060,522,658|fe:120000,8645,762,2716|t:84096,74830,65875,4191,4764|l2:1389,1552",
            "TIFS|fetch:11575,1408,200,182,321,22|pf:584,961,343,241|fe:120000,8645,762,2716|t:84096,83458,65875,12819,4764|l2:774,1123",
            "Discontinuity|fetch:11575,1408,47,189,350,125|pf:879,50239,475,404|fe:120000,8645,762,2716|t:84096,76298,65875,5659,4764|l2:1282,1240",
            "Perfect|fetch:11575,1408,0,0,0,0|pf:0,0,0,0|fe:120000,8645,762,2716|t:84096,70639,65875,0,4764|l2:0,0",
        ],
    );
}

/// Branch-free thrashing sweep (2048 blocks > 1024-block L1-I), cold.
#[test]
fn golden_counters_sweep_trace() {
    let trace = sweep_trace(2048, 3);
    check(
        &trace,
        0,
        &[
            "None|fetch:6144,0,6144,0,0,0|pf:0,0,0,0|fe:98304,0,0,0|t:98304,298188,77004,221184,0|l2:4096,2048",
            "PIF|fetch:6144,0,2049,0,4094,1|pf:4131,1,4095,30|fe:98304,0,0,0|t:98304,242908,77004,165903,0|l2:4132,2048",
            "Next-Line|fetch:6144,0,3,0,6132,9|pf:6165,42987,6141,22|fe:98304,0,0,0|t:98304,77246,77004,242,0|l2:4112,2056",
            "TIFS|fetch:6144,0,2049,0,4094,1|pf:4107,0,4095,10|fe:98304,0,0,0|t:98304,242908,77004,165903,0|l2:4108,2048",
            "Discontinuity|fetch:6144,0,2,0,4090,2052|pf:6151,6143,6142,4|fe:98304,0,0,0|t:98304,140242,77004,63237,0|l2:4103,2050",
            "Perfect|fetch:6144,0,0,0,0,0|pf:0,0,0,0|fe:98304,0,0,0|t:98304,77004,77004,0,0|l2:0,0",
        ],
    );
}
