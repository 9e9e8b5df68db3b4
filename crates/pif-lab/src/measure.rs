//! Per-cell measurement drivers: run one job of a sweep grid and emit its
//! metrics.
//!
//! Every driver derives its trace from the job's workload via
//! [`WorkloadProfile::generate_with_execution_seed_into`] /
//! `generate_with_execution_seed`, so a cell's result depends only on
//! (spec, scale, seed) — never on which worker thread ran it or when.
//!
//! Engine cells run one job per (workload, axis point): the workload is
//! generated inline on the job's own thread, and every retired
//! instruction is pushed once through one shared front end into one
//! engine lane per prefetcher of the group that still needs simulating
//! (see [`pif_sim::LaneBank`]). The trace is never materialized, sent
//! through a channel, or regenerated per prefetcher. Analysis and
//! sampled cells need random access into a slice, so the generated
//! trace is memoized per workload and shared across the parameter axis
//! instead of regenerated per cell.
//!
//! Recorded workloads ([`crate::recorded`]) have no generator at all:
//! `run_spec_impl` pre-seeds the per-workload memo with the loaded trace,
//! and every measure consumes the memo — an engine group replays it once
//! for all of its lanes.

use pif_baselines::{DiscontinuityPrefetcher, NextLinePrefetcher, PerfectICache, Tifs};
use pif_core::analysis::{analyze_regions, PifAnalyzer};
use pif_core::Pif;
use pif_sim::predictor_eval::{evaluate_stream_coverage_warmup, TemporalPredictorConfig};
use pif_sim::prefetch::Prefetcher;
use pif_sim::sampling::{SampledRunReport, SamplingPlan, WarmStrategy};
use pif_sim::{
    Engine, EngineConfig, EngineRun, EventSink, LaneBank, NoPrefetcher, RunOptions, RunReport,
};
use pif_types::{RegionGeometry, TrapLevel};
use pif_workloads::{Trace, WorkloadProfile};

use std::sync::OnceLock;

use crate::registry::{
    DENSITY_BUCKETS, JUMP_CDF_BUCKETS, LENGTH_CDF_BUCKETS, REGION_OFFSETS, RUN_BUCKETS,
};
use crate::report::{Cell, Metric};
use crate::sampled::run_sampled_parallel;
use crate::scale::Scale;
use crate::service::Pool;
use crate::spec::{CdfKind, JobCoord, Measure, ParamAxis, PrefetcherKind, SweepSpec};

/// Metric name for a jump-distance CDF point (`jump_cdf_le_2p07` = the
/// cumulative fraction of prediction-weighted jumps of length <= 2^7).
pub fn jump_cdf_metric(log2: usize) -> String {
    format!("jump_cdf_le_2p{log2:02}")
}

/// Metric name for a stream-length CDF point.
pub fn len_cdf_metric(log2: usize) -> String {
    format!("len_cdf_le_2p{log2:02}")
}

/// Metric name for a trigger-relative offset frequency (`offset_m2`,
/// `offset_p1`, …).
pub fn offset_metric(offset: i64) -> String {
    if offset < 0 {
        format!("offset_m{}", -offset)
    } else {
        format!("offset_p{offset}")
    }
}

/// Metric name for a region-density bucket.
pub fn density_metric(lo: u32, hi: u32) -> String {
    format!("density_{lo}_{hi}")
}

/// Metric name for a discontinuous-runs bucket.
pub fn runs_metric(lo: u32, hi: u32) -> String {
    format!("runs_{lo}_{hi}")
}

/// One workload of the expanded grid: its stable report name plus, for
/// synthetic workloads, the generating profile. Recorded workloads carry
/// no profile — their traces are pre-seeded into the per-workload memo
/// by `run_spec_impl` before any job runs.
#[derive(Debug, Clone)]
pub(crate) struct JobWorkload {
    pub name: String,
    pub profile: Option<WorkloadProfile>,
}

/// Splits a sweep's missing cells into pool jobs: one per (workload,
/// axis point) for [`Measure::Engine`], whose cells share a trace and a
/// front end, and one per cell for every other measure. Cells keep grid
/// order within a job, and jobs are ordered by their first cell.
pub(crate) fn group_jobs(spec: &SweepSpec, missing: &[JobCoord]) -> Vec<Vec<JobCoord>> {
    if !matches!(spec.measure, Measure::Engine) {
        return missing.iter().map(|&c| vec![c]).collect();
    }
    let mut groups: Vec<Vec<JobCoord>> = Vec::new();
    for &coord in missing {
        match groups
            .iter_mut()
            .find(|g| (g[0].workload, g[0].point) == (coord.workload, coord.point))
        {
            Some(group) => group.push(coord),
            None => groups.push(vec![coord]),
        }
    }
    groups
}

/// The per-run inputs every driver shares.
pub(crate) struct JobContext<'a> {
    pub spec: &'a SweepSpec,
    pub scale: &'a Scale,
    pub workloads: &'a [JobWorkload],
    pub traces: &'a [OnceLock<Trace>],
    pub pool: &'a Pool,
}

impl JobContext<'_> {
    /// Memoized per-workload trace for the slice-consuming measures:
    /// generated once per (workload, seed), shared across axis points.
    /// `get_or_init` blocks concurrent initializers, so exactly one job
    /// pays the generation cost. Recorded workloads arrive pre-seeded,
    /// so the generating closure never runs for them.
    fn trace(&self, workload: usize) -> &Trace {
        self.traces[workload].get_or_init(|| {
            self.workloads[workload]
                .profile
                .as_ref()
                .expect("recorded traces are pre-seeded by run_spec_impl")
                .generate_with_execution_seed(self.scale.instructions, self.spec.seed_offset)
        })
    }

    /// The (PIF, engine) configuration at axis point `point`.
    fn configs(&self, point: usize) -> (pif_core::PifConfig, EngineConfig) {
        let mut pif = self.spec.pif_base;
        let mut engine_cfg = self.spec.engine_base;
        self.spec.axis.apply(point, &mut pif, &mut engine_cfg);
        (pif, engine_cfg)
    }

    /// An empty cell for `coord`.
    fn cell(&self, coord: JobCoord) -> Cell {
        Cell {
            index: coord.index,
            workload: self.workloads[coord.workload].name.clone(),
            prefetcher: coord.prefetcher.map(PrefetcherKind::label),
            point: self.spec.axis.label(coord.point),
            metrics: Vec::new(),
        }
    }

    /// Pushes `workload`'s trace through `run` once and finishes it:
    /// synthetic workloads are generated inline on this thread, recorded
    /// ones replay the pre-seeded memo.
    fn drive<K: EventSink>(&self, workload: usize, mut run: EngineRun<'_, K>) -> K::Report {
        match &self.workloads[workload].profile {
            Some(profile) => profile.generate_with_execution_seed_into(
                self.scale.instructions,
                self.spec.seed_offset,
                |instr| run.push(instr),
            ),
            None => {
                for &instr in self.trace(workload).instrs() {
                    run.push(instr);
                }
            }
        }
        run.finish()
    }
}

/// Runs one pool job from [`group_jobs`] and returns its cells in job
/// order (without cross-cell derived metrics — see [`crate::run_spec`]
/// for the merge pass).
pub(crate) fn run_job(ctx: &JobContext<'_>, job: &[JobCoord]) -> Vec<Cell> {
    match ctx.spec.measure {
        Measure::Engine => run_engine_group(ctx, job),
        _ => job.iter().map(|&coord| run_cell(ctx, coord)).collect(),
    }
}

/// Simulates one (workload, axis point) group of engine cells: one
/// generation and one front end feed every cell's prefetcher. A group of
/// one runs its prefetcher directly, without the lanes' event batches.
fn run_engine_group(ctx: &JobContext<'_>, group: &[JobCoord]) -> Vec<Cell> {
    let first = group[0];
    let (pif, engine_cfg) = ctx.configs(first.point);
    let engine = Engine::new(engine_cfg);
    let options = || RunOptions::new().warmup(ctx.scale.warmup_instrs());
    let kind = |coord: &JobCoord| coord.prefetcher.unwrap_or(PrefetcherKind::None);
    let reports = if let [coord] = group {
        vec![with_prefetcher(
            kind(coord),
            pif,
            SingleRun {
                ctx,
                engine: &engine,
                workload: first.workload,
                options: options(),
            },
        )]
    } else {
        let mut lanes = engine.lanes();
        for coord in group {
            with_prefetcher(kind(coord), pif, AddLane(&mut lanes));
        }
        ctx.drive(first.workload, engine.start(lanes, options()))
    };
    group
        .iter()
        .zip(&reports)
        .map(|(&coord, report)| {
            let mut cell = ctx.cell(coord);
            engine_metrics(&mut cell, report);
            cell
        })
        .collect()
}

/// Code generic over the prefetcher a [`PrefetcherKind`] names — the
/// one place kinds map to types (see [`with_prefetcher`]).
trait WithPrefetcher {
    type Out;
    /// Runs with `mk` constructing fresh instances of the prefetcher.
    fn call<P: Prefetcher + 'static>(self, mk: impl Fn() -> P + Sync) -> Self::Out;
}

fn with_prefetcher<W: WithPrefetcher>(
    kind: PrefetcherKind,
    pif: pif_core::PifConfig,
    w: W,
) -> W::Out {
    match kind {
        PrefetcherKind::None => w.call(|| NoPrefetcher),
        PrefetcherKind::NextLine => w.call(NextLinePrefetcher::aggressive),
        PrefetcherKind::Tifs => w.call(|| Tifs::new(Default::default())),
        PrefetcherKind::TifsUnbounded => w.call(Tifs::unbounded),
        PrefetcherKind::Discontinuity => w.call(DiscontinuityPrefetcher::paper_scale),
        PrefetcherKind::Pif => w.call(move || Pif::new(pif)),
        PrefetcherKind::Perfect => w.call(|| PerfectICache),
    }
}

/// Adds one lane to an engine group's [`LaneBank`].
struct AddLane<'b, 'a>(&'b mut LaneBank<'a>);

impl WithPrefetcher for AddLane<'_, '_> {
    type Out = ();
    fn call<P: Prefetcher + 'static>(self, mk: impl Fn() -> P + Sync) {
        self.0.add(mk());
    }
}

/// An engine group of one cell: direct dispatch, no lane batches.
struct SingleRun<'c, 'a> {
    ctx: &'c JobContext<'a>,
    engine: &'c Engine,
    workload: usize,
    options: RunOptions<'static>,
}

impl WithPrefetcher for SingleRun<'_, '_> {
    type Out = RunReport;
    fn call<P: Prefetcher + 'static>(self, mk: impl Fn() -> P + Sync) -> RunReport {
        let run = self.engine.start(self.engine.state(mk()), self.options);
        self.ctx.drive(self.workload, run)
    }
}

/// One sampled cell run: windows over the memoized workload trace, fanned
/// out on `pool`. The cell's plan uses per-window warming, so `mk` builds
/// one fresh prefetcher per window and the merged report is byte-identical
/// for every worker count (see [`crate::sampled`]).
struct SampledRun<'c> {
    engine_cfg: &'c EngineConfig,
    plan: &'c SamplingPlan,
    trace: &'c Trace,
    pool: &'c Pool,
}

impl WithPrefetcher for SampledRun<'_> {
    type Out = SampledRunReport;
    fn call<P: Prefetcher + 'static>(self, mk: impl Fn() -> P + Sync) -> SampledRunReport {
        let trace = self.trace;
        run_sampled_parallel(
            self.engine_cfg,
            self.plan,
            trace.len() as u64,
            |w| trace.instrs()[w.warmup_start as usize..].iter().copied(),
            |_| mk(),
            self.pool,
        )
    }
}

/// Runs one non-engine grid cell.
fn run_cell(ctx: &JobContext<'_>, coord: JobCoord) -> Cell {
    let (spec, scale) = (ctx.spec, ctx.scale);
    let workload = &ctx.workloads[coord.workload];
    let trace = || ctx.trace(coord.workload);
    let (pif, engine_cfg) = ctx.configs(coord.point);
    let warmup = scale.warmup_instrs();
    let mut cell = ctx.cell(coord);

    match spec.measure {
        Measure::Engine => unreachable!("engine cells run as groups"),
        Measure::PifAnalysis(cdf) => {
            let report = PifAnalyzer::new(pif, engine_cfg.icache).analyze(trace().instrs(), warmup);
            cell.push("miss_coverage", Metric::F64(report.overall_miss_coverage()));
            cell.push(
                "predictor_coverage",
                Metric::F64(report.overall_predictor_coverage()),
            );
            cell.push(
                "miss_coverage_tl0",
                Metric::F64(report.miss_coverage(TrapLevel::Tl0)),
            );
            cell.push(
                "miss_coverage_tl1",
                Metric::F64(report.miss_coverage(TrapLevel::Tl1)),
            );
            match cdf {
                CdfKind::None => {}
                CdfKind::JumpDistance => {
                    let mut cdf = report.jump_distance.cdf();
                    cdf.resize(JUMP_CDF_BUCKETS, 1.0);
                    for (i, v) in cdf.iter().enumerate() {
                        cell.push(jump_cdf_metric(i), Metric::F64(*v));
                    }
                }
                CdfKind::StreamLength => {
                    let mut cdf = report.stream_length.cdf();
                    cdf.resize(LENGTH_CDF_BUCKETS, 1.0);
                    for (i, v) in cdf.iter().enumerate() {
                        cell.push(len_cdf_metric(i), Metric::F64(*v));
                    }
                }
            }
        }
        Measure::Regions {
            preceding,
            succeeding,
        } => {
            let geometry =
                RegionGeometry::new(preceding, succeeding).expect("spec carries valid geometry");
            let report = analyze_regions(trace().instrs(), geometry);
            cell.push("total_regions", Metric::U64(report.total_regions));
            for &(lo, hi) in &DENSITY_BUCKETS {
                cell.push(
                    density_metric(lo, hi),
                    Metric::F64(report.density_fraction(lo, hi)),
                );
            }
            for &(lo, hi) in &RUN_BUCKETS {
                cell.push(
                    runs_metric(lo, hi),
                    Metric::F64(report.runs_fraction(lo, hi)),
                );
            }
            for &o in &REGION_OFFSETS {
                cell.push(offset_metric(o), Metric::F64(report.offset_frequency(o)));
            }
        }
        Measure::StreamCoverage => {
            let report = evaluate_stream_coverage_warmup(
                &engine_cfg,
                TemporalPredictorConfig::default(),
                trace().instrs(),
                warmup,
            );
            cell.push(
                "correct_path_misses",
                Metric::U64(report.correct_path_misses),
            );
            cell.push("miss", Metric::F64(report.miss));
            cell.push("access", Metric::F64(report.access));
            cell.push("retire", Metric::F64(report.retire));
            cell.push("retire_sep", Metric::F64(report.retire_sep));
        }
        Measure::Sampled { samples } => {
            let samples = match &spec.axis {
                ParamAxis::SampleCount(v) => v[coord.point],
                _ => samples,
            } as usize;
            // Window lengths scale with the run so smoke and paper runs
            // keep the same shape: 0.1% of the trace measured per sample
            // (SMARTS-style many-small-windows; floored so smoke windows
            // still exercise steady state), twice that as warmup.
            let measure_instrs = (scale.instructions as u64 / 1_000).max(1_000);
            let warmup_instrs = 2 * measure_instrs;
            // The seed is a pure function of (spec, job index): reports
            // stay byte-identical across thread counts and runs.
            let seed = spec.seed_offset.wrapping_add(coord.index as u64);
            // Per-window warming with an extra warmup's worth of burn-in
            // prepended: windows become independent units of work (the
            // precondition for the parallel fan-out below), and the
            // doubled warm-up prefix rebuilds the predictor state that
            // continuous warming used to carry across windows.
            let plan = SamplingPlan::random(samples, seed, warmup_instrs, measure_instrs)
                .with_warm_strategy(WarmStrategy::PerWindow {
                    extra_warmup_instrs: warmup_instrs,
                });
            let kind = coord.prefetcher.unwrap_or(PrefetcherKind::None);
            let report = with_prefetcher(
                kind,
                pif,
                SampledRun {
                    engine_cfg: &engine_cfg,
                    plan: &plan,
                    trace: trace(),
                    pool: ctx.pool,
                },
            );
            sampled_metrics(&mut cell, &plan, &report);
        }
        Measure::Static => {
            // Table I reports workload identity parameters, which do not
            // depend on the run scale: use the unscaled profile.
            let profile = workload.profile.as_ref().unwrap_or_else(|| {
                panic!(
                    "spec {}: Measure::Static needs synthetic workloads",
                    spec.name
                )
            });
            let unscaled = WorkloadProfile::all()
                .into_iter()
                .find(|w| w.name() == profile.name());
            let params = unscaled.as_ref().unwrap_or(profile).params().clone();
            cell.push(
                "footprint_mb",
                Metric::F64(params.approx_footprint_bytes() as f64 / (1024.0 * 1024.0)),
            );
            cell.push("num_functions", Metric::U64(params.num_functions as u64));
            cell.push(
                "num_transaction_types",
                Metric::U64(params.num_transaction_types as u64),
            );
        }
    }
    cell
}

fn sampled_metrics(cell: &mut Cell, plan: &SamplingPlan, report: &SampledRunReport) {
    cell.push("samples", Metric::U64(report.samples.len() as u64));
    cell.push("warmup_instrs", Metric::U64(plan.warmup_instrs));
    cell.push("measure_instrs", Metric::U64(plan.measure_instrs));
    cell.push(
        "measured_instructions",
        Metric::U64(report.measured_instructions()),
    );
    cell.push("sampled_fraction", Metric::F64(report.sampled_fraction()));
    let uipc = report.uipc();
    cell.push("uipc_mean", Metric::F64(uipc.mean));
    cell.push("uipc_stderr", Metric::F64(uipc.stderr));
    cell.push("uipc_ci95", Metric::F64(uipc.ci95));
    cell.push("uipc_rel_err", Metric::F64(uipc.relative_error()));
    let mpki = report.mpki();
    cell.push("mpki_mean", Metric::F64(mpki.mean));
    cell.push("mpki_ci95", Metric::F64(mpki.ci95));
    let coverage = report.miss_coverage();
    cell.push("miss_coverage_mean", Metric::F64(coverage.mean));
}

fn engine_metrics(cell: &mut Cell, report: &RunReport) {
    cell.push("instructions", Metric::U64(report.frontend.instructions));
    cell.push("cycles", Metric::U64(report.timing.cycles));
    cell.push("demand_accesses", Metric::U64(report.fetch.demand_accesses));
    cell.push("demand_misses", Metric::U64(report.fetch.demand_misses));
    cell.push(
        "wrong_path_accesses",
        Metric::U64(report.fetch.wrong_path_accesses),
    );
    cell.push(
        "covered_by_prefetch",
        Metric::U64(report.fetch.covered_by_prefetch),
    );
    cell.push("partial_covered", Metric::U64(report.fetch.partial_covered));
    cell.push("prefetch_issued", Metric::U64(report.prefetch.issued));
    cell.push("prefetch_useful", Metric::U64(report.prefetch.useful));
    cell.push("l2_hits", Metric::U64(report.l2_hits));
    cell.push("l2_misses", Metric::U64(report.l2_misses));
    cell.push("hit_rate", Metric::F64(report.fetch.hit_rate()));
    cell.push("miss_coverage", Metric::F64(report.miss_coverage()));
    let mpki = report.fetch.demand_misses as f64 / (report.frontend.instructions as f64 / 1000.0);
    cell.push("mpki", Metric::F64(mpki));
    cell.push("prefetch_accuracy", Metric::F64(report.prefetch.accuracy()));
    cell.push("uipc", Metric::F64(report.timing.uipc()));
}
