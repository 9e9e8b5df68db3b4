//! A multi-lane run is N separate runs sharing one front end.
//!
//! `Engine::lanes` + `Engine::start` step each retired instruction
//! through one front end and hand its events to N independent engine
//! states. Lane `i`'s report must equal, field for field, the report of
//! a separate `Engine::run` of the same trace, options and prefetcher —
//! for any trace, any subset of prefetchers, and a warm-up boundary at
//! 0, inside an event batch, or at (or past) the end of the trace.

use pif_sim::cache::AccessOutcome;
use pif_sim::{
    Engine, EngineConfig, ICacheConfig, NoPrefetcher, PrefetchContext, Prefetcher, RunOptions,
    RunReport,
};
use pif_types::{Address, BlockAddr, BranchInfo, BranchKind, FetchAccess, RetiredInstr, TrapLevel};
use proptest::prelude::*;

/// Prefetches the next two blocks after every miss.
struct NextTwoOnMiss;

impl Prefetcher for NextTwoOnMiss {
    fn name(&self) -> &'static str {
        "NextTwoOnMiss"
    }

    fn on_access_outcome(
        &mut self,
        _access: &FetchAccess,
        block: BlockAddr,
        outcome: AccessOutcome,
        ctx: &mut PrefetchContext<'_>,
    ) {
        if outcome == AccessOutcome::Miss {
            ctx.prefetch(block.offset(1));
            ctx.prefetch(block.offset(2));
        }
    }

    fn uses_retire_provenance(&self) -> bool {
        false
    }
}

/// Prefetches on every fetch, wrong path included.
struct NextOnFetch;

impl Prefetcher for NextOnFetch {
    fn name(&self) -> &'static str {
        "NextOnFetch"
    }

    fn on_fetch(&mut self, _access: &FetchAccess, block: BlockAddr, ctx: &mut PrefetchContext<'_>) {
        ctx.prefetch(block.next());
    }
}

/// Trains on retirement and reads the retire-provenance flag.
struct RetireTrainer {
    last: Option<BlockAddr>,
}

impl Prefetcher for RetireTrainer {
    fn name(&self) -> &'static str {
        "RetireTrainer"
    }

    fn on_retire(&mut self, instr: &RetiredInstr, prefetched: bool, ctx: &mut PrefetchContext<'_>) {
        let block = instr.pc.block();
        if self.last != Some(block) && !prefetched {
            ctx.prefetch(block.offset(3));
        }
        self.last = Some(block);
    }
}

/// A perfect L1-I.
struct Perfect;

impl Prefetcher for Perfect {
    fn name(&self) -> &'static str {
        "Perfect"
    }

    fn is_perfect(&self) -> bool {
        true
    }
}

const KINDS: usize = 5;

/// Adds prefetcher `kind` to `add`'s target — a lane bank or a single run.
fn with_kind<R>(kind: usize, add: &mut dyn FnMut(Box<dyn Prefetcher>) -> R) -> R {
    match kind {
        0 => add(Box::new(NoPrefetcher)),
        1 => add(Box::new(NextTwoOnMiss)),
        2 => add(Box::new(NextOnFetch)),
        3 => add(Box::new(RetireTrainer { last: None })),
        _ => add(Box::new(Perfect)),
    }
}

/// A small L1-I (4 KB, 64 blocks) so short traces miss, evict and
/// mispredict in every lane.
fn engine() -> Engine {
    Engine::new(EngineConfig {
        icache: ICacheConfig {
            capacity_bytes: 4096,
            ..ICacheConfig::paper_default()
        },
        ..EngineConfig::paper_default()
    })
}

/// Builds a control-flow-consistent trace from random ops: every
/// instruction's successor is its actual target, with conditional,
/// call, return and indirect branches and occasional trap-level flips.
fn trace_from(ops: &[(u8, u16)]) -> Vec<RetiredInstr> {
    let mut pc = 0u64;
    let mut tl = TrapLevel::Tl0;
    let mut out = Vec::with_capacity(ops.len());
    for &(op, arg) in ops {
        let here = Address::new(pc);
        let fall_through = Address::new(pc + 4);
        let target = Address::new(u64::from(arg % 1024) * 16);
        let kind = match op % 10 {
            0..=4 => None,
            5 | 6 => Some(BranchKind::Conditional),
            7 => Some(BranchKind::Call),
            8 => Some(BranchKind::Return),
            _ => Some(BranchKind::IndirectCall),
        };
        let instr = match kind {
            None => RetiredInstr::simple(here, tl),
            Some(kind) => RetiredInstr::branch(
                here,
                tl,
                BranchInfo {
                    kind,
                    taken: kind != BranchKind::Conditional || op & 0x80 != 0,
                    taken_target: target,
                    fall_through,
                },
            ),
        };
        out.push(instr);
        pc = match instr.branch {
            Some(info) => info.actual_target().raw(),
            None => pc + 4,
        };
        if arg % 97 == 0 {
            tl = match tl {
                TrapLevel::Tl0 => TrapLevel::Tl1,
                TrapLevel::Tl1 => TrapLevel::Tl0,
            };
        }
    }
    out
}

/// The reports of one multi-lane run over `kinds`.
fn lane_run(trace: &[RetiredInstr], kinds: &[usize], warmup: usize) -> Vec<RunReport> {
    let engine = engine();
    let mut lanes = engine.lanes();
    for &kind in kinds {
        with_kind(kind, &mut |p| lanes.add(p));
    }
    let mut run = engine.start(lanes, RunOptions::new().warmup(warmup));
    for &instr in trace {
        run.push(instr);
    }
    run.finish()
}

/// One separate `Engine::run` per kind.
fn separate_runs(trace: &[RetiredInstr], kinds: &[usize], warmup: usize) -> Vec<RunReport> {
    let engine = engine();
    kinds
        .iter()
        .map(|&kind| {
            with_kind(kind, &mut |p| {
                engine.run(trace.iter().copied(), p, RunOptions::new().warmup(warmup))
            })
        })
        .collect()
}

proptest! {
    #[test]
    fn multi_lane_equals_separate_runs(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..3000),
        mask in 1u8..(1 << KINDS),
        warm_sel in 0u8..4,
        warm_at in any::<u16>(),
    ) {
        let trace = trace_from(&ops);
        let kinds: Vec<usize> = (0..KINDS).filter(|k| mask & (1 << k) != 0).collect();
        let warmup = match warm_sel {
            0 => 0,
            // Anywhere in the trace, usually inside an event batch.
            1 => usize::from(warm_at) % (trace.len() + 1),
            2 => trace.len(),
            _ => trace.len() + 1,
        };
        let lanes = lane_run(&trace, &kinds, warmup);
        let separate = separate_runs(&trace, &kinds, warmup);
        prop_assert_eq!(lanes, separate);
    }
}

#[test]
fn empty_trace_gives_every_lane_an_empty_report() {
    let all: Vec<usize> = (0..KINDS).collect();
    for warmup in [0, 1] {
        let lanes = lane_run(&[], &all, warmup);
        assert_eq!(lanes, separate_runs(&[], &all, warmup));
        assert!(lanes.iter().all(|r| r.frontend.instructions == 0));
    }
}
