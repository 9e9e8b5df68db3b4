//! `trace-replay`: the trace codec, the seek path and the sampled
//! fan-out, on two generated workloads.
//!
//! The set-up generates OLTP-DB2 and Web-Apache. Each timed pass encodes
//! both to v2 files (write path), replays each exhaustively for None and
//! PIF by decoding the file (read path), and samples each with a
//! per-window plan through `sample_trace_file_parallel` (seek and
//! fan-out path).

use pif_core::{Pif, PifConfig};
use pif_lab::{run_spec, Measure, PrefetcherKind, RunOptions, Scale, SweepSpec};
use std::path::{Path, PathBuf};

use pif_sim::prefetch::Prefetcher;
use pif_sim::sampling::SampledRunReport;
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunReport};
use pif_workloads::Trace;

use crate::layers::{self, Input};
use crate::stats::Checks;
use crate::tracer::Tracer;
use crate::{timed_passes, timed_setup, Ctx, Outcome, Value};

/// Instructions generated per replayed workload.
pub const REPLAY_INSTRUCTIONS: usize = 2_000_000;

/// The replayed workloads.
pub const REPLAYED: [&str; 2] = ["OLTP-DB2", "Web-Apache"];

/// Full-footprint scale of the replayed traces.
pub fn replay_scale() -> Scale {
    Scale {
        instructions: REPLAY_INSTRUCTIONS,
        footprint: 1.0,
        warmup_fraction: 0.3,
    }
}

/// The replayed workloads as generator inputs at `seed`.
pub fn inputs(seed: u64) -> Vec<Input> {
    let mut inputs = layers::inputs(replay_scale(), seed);
    inputs.retain(|i| REPLAYED.contains(&i.profile.name()));
    inputs
}

/// The replay as a sweep spec (None and PIF on both workloads), for the
/// `lab` probes of a traced run.
fn lab_spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new("trace-replay", "trace-replay engine grid", Measure::Engine)
        .with_workloads(REPLAYED.to_vec())
        .with_prefetchers(vec![PrefetcherKind::None, PrefetcherKind::Pif]);
    spec.seed_offset = seed;
    spec
}

/// What one prefetcher produced on one trace: the exhaustive replay and
/// the sampled estimate.
struct Replayed {
    exhaustive: Result<RunReport, String>,
    sampled: Result<SampledRunReport, String>,
}

/// Everything a pass needs besides the trace: engines, plan, pool and
/// the exhaustive warm-up.
struct Replayer<'a> {
    engine_cfg: EngineConfig,
    engine: Engine,
    plan: pif_sim::sampling::SamplingPlan,
    pool: &'a pif_lab::Pool,
    warmup: usize,
}

impl Replayer<'_> {
    /// The in-memory references: what a replay and a sample from the
    /// file must reproduce exactly.
    fn in_memory<P: Prefetcher>(&self, trace: &Trace, mk: impl Fn() -> P + Sync) -> Replayed {
        let instrs = trace.instrs();
        Replayed {
            exhaustive: Ok(self.engine.run(
                instrs.iter().copied(),
                mk(),
                pif_sim::RunOptions::new().warmup(self.warmup),
            )),
            sampled: Ok(pif_lab::sampled::run_sampled_parallel(
                &self.engine_cfg,
                &self.plan,
                instrs.len() as u64,
                |w| instrs[w.warmup_start as usize..].iter().copied(),
                |_| mk(),
                self.pool,
            )),
        }
    }

    /// Replays the file exhaustively, then samples it by seeking.
    fn replay_and_sample_file<P: Prefetcher>(
        &self,
        t: &mut Tracer,
        path: &Path,
        n: u64,
        mk: impl Fn() -> P + Sync,
    ) -> Replayed {
        let exhaustive = t.span("trace.replay", n, |_| {
            layers::replay_file(&self.engine, path, mk(), self.warmup)
        });
        let simulated: u64 = self.plan.windows(n).iter().map(|w| w.len()).sum();
        let sampled = t.span("lab.sampled_fanout", simulated, |_| {
            pif_lab::sampled::sample_trace_file_parallel(
                &self.engine_cfg,
                &self.plan,
                path,
                |_| mk(),
                self.pool,
            )
            .map_err(|e| format!("sample {}: {e}", path.display()))
        });
        Replayed {
            exhaustive,
            sampled,
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(ctx.seed);
    let engine_cfg = EngineConfig::paper_default();
    let plan = layers::sampling_plan(ctx.seed);
    let pool = pif_lab::Pool::new(ctx.threads);
    // The exhaustive replay runs the engine configuration the sampled
    // runs use (the plan's checkpoint-warmed L2), so the two differ only
    // by sampling.
    let replayer = Replayer {
        engine_cfg,
        engine: Engine::new(plan.engine_config(&engine_cfg)),
        plan,
        pool: &pool,
        warmup: (REPLAY_INSTRUCTIONS as f64 * replay_scale().warmup_fraction) as usize,
    };
    let pif = PifConfig::paper_default();
    out.notes.push(format!(
        "{} at {REPLAY_INSTRUCTIONS} instructions each, footprint 1.0, generation seed {} (= --seed); \
         None and PIF (paper design point); {} sampled windows of {} + {} warm-up instructions; {} pool threads",
        REPLAYED.join(" + "),
        ctx.seed,
        plan.samples,
        plan.measure_instrs,
        plan.effective_warmup_instrs(),
        ctx.threads
    ));

    out.pass_name = "pass".into();
    let (setup_s, traces) = timed_setup(|| {
        inputs
            .iter()
            .map(|i| {
                i.profile
                    .generate_with_execution_seed(i.instructions, i.seed)
            })
            .collect::<Vec<Trace>>()
    });
    out.setup_s = setup_s;
    let reference: Vec<[Replayed; 2]> = traces
        .iter()
        .map(|t| {
            [
                replayer.in_memory(t, || NoPrefetcher),
                replayer.in_memory(t, || Pif::new(pif)),
            ]
        })
        .collect();
    let printed: Vec<String> = reference
        .iter()
        .flatten()
        .map(|r| format!("{:?} {:?}", r.exhaustive, r.sampled))
        .collect();
    out.identity = crate::identity(printed.iter().map(|p| p.as_bytes()));
    let paths: Vec<PathBuf> = traces
        .iter()
        .map(|t| ctx.scratch.join(format!("{}.pift", t.name())))
        .collect();

    let mut failures = std::mem::take(&mut out.failures);
    let t = &mut out.tracer;
    out.passes = timed_passes(ctx, |traced| {
        t.pause(!traced);
        let mut checks = Checks::default();
        for ((trace, path), reference) in traces.iter().zip(&paths).zip(&reference) {
            let n = trace.len() as u64;
            let encoded = t.span("trace.encode", n, |_| {
                layers::encode(path, trace.name(), trace.instrs())
            });
            checks.ok(encoded.map_err(|e| format!("encode {}: {e}", trace.name())));
            let got = [
                replayer.replay_and_sample_file(t, path, n, || NoPrefetcher),
                replayer.replay_and_sample_file(t, path, n, || Pif::new(pif)),
            ];
            for (got, want) in got.iter().zip(reference) {
                checks.expect(got.exhaustive == want.exhaustive, || {
                    format!(
                        "{}: exhaustive replay from the file differs from memory",
                        trace.name()
                    )
                });
                checks.expect(got.sampled == want.sampled, || {
                    format!(
                        "{}: sampled run from the file differs from memory",
                        trace.name()
                    )
                });
            }
        }
        failures.op("timed pass", checks.into_errors());
    });
    t.pause(false);
    out.failures = failures;
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }

    // Sampling accuracy, from the (deterministic) references.
    let (mut rel_err_max, mut within, mut estimates) = (0.0f64, 0, 0);
    for r in reference.iter().flatten() {
        if let (Ok(exhaustive), Ok(sampled)) = (&r.exhaustive, &r.sampled) {
            let (u, exact) = (sampled.uipc(), exhaustive.timing.uipc());
            rel_err_max = rel_err_max.max((u.mean - exact).abs() / exact);
            within += usize::from((u.mean - exact).abs() <= u.ci95);
            estimates += 1;
        }
    }
    out.detail = vec![
        Value::new(
            "sampled_uipc_rel_err_max",
            rel_err_max,
            "ratio",
            "simulated, max over 2 workloads x {None, PIF} of |sampled - exhaustive| / exhaustive UIPC",
        ),
        Value::new(
            "sampled_within_ci95",
            within as f64,
            "count",
            format!("simulated, sampled UIPC estimates within their own ci95 of the exhaustive UIPC, of {estimates}"),
        ),
    ];
    if ctx.probe {
        let mut failures = std::mem::take(&mut out.failures);
        let spec = lab_spec(ctx.seed);
        let opts = RunOptions::new().scale(replay_scale()).threads(ctx.threads);
        let mut checks = Checks::default();
        let reference = checks.ok(run_spec(&spec, &opts).to_json());
        failures.op("lab reference", checks.into_errors());
        let mut layer = layers::probe(ctx, &inputs, &mut out.tracer, &mut failures);
        if let Some(reference) = reference {
            layer.extend(layers::probe_lab(
                ctx,
                &[spec],
                replay_scale(),
                &[reference],
                &mut out.tracer,
                &mut failures,
            ));
        }
        out.failures = failures;
        out.per_layer.extend(layer);
    }
    out
}
