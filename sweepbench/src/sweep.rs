//! `sweep-engine` and `sweep-analysis`: whole `run_spec` sweeps.
//!
//! The set-up runs the sweep once as the reference; every timed pass
//! must reproduce the reference reports byte for byte.

use pif_core::PifConfig;
use pif_lab::{registry, run_spec, run_spec_profiled, RunOptions, SweepSpec};

use crate::fidelity::{self, PAPER_PIF_HIT_RATE};
use crate::layers;
use crate::stats::Checks;
use crate::{sweep_scale, timed_passes, timed_setup, Ctx, Outcome, Value};

/// Which sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fig10`: engine cells for every prefetcher.
    Engine,
    /// `fig9-history` then `fig3`: analysis cells, no engine.
    Analysis,
}

/// The workload's specs, their seed offset set to `seed`.
pub fn specs(kind: Kind, seed: u64) -> Vec<SweepSpec> {
    let specs = match kind {
        Kind::Engine => vec![registry::fig10()],
        Kind::Analysis => vec![registry::fig9_history(), registry::fig3()],
    };
    specs
        .into_iter()
        .map(|mut s| {
            s.seed_offset = seed;
            s
        })
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let scale = sweep_scale();
    let specs = specs(kind, ctx.seed);
    let opts = RunOptions::new().scale(scale).threads(ctx.threads);
    out.notes.push(format!(
        "specs {} at {} instructions, footprint {}, seed_offset {} (= --seed), {} pool threads",
        specs.iter().map(|s| s.name).collect::<Vec<_>>().join(" + "),
        scale.instructions,
        scale.footprint,
        ctx.seed,
        ctx.threads
    ));

    out.pass_name = "pass".into();
    let mut checks = Checks::default();
    let (setup_s, reference) = timed_setup(|| {
        specs
            .iter()
            .filter_map(|s| checks.ok(run_spec(s, &opts).to_json()))
            .collect::<Vec<String>>()
    });
    out.setup_s = setup_s;
    for r in &reference {
        checks.ok(layers::validate(r));
    }
    out.identity = crate::identity(reference.iter().map(|r| r.as_bytes()));
    let complete = reference.len() == specs.len();
    out.failures.op("set-up", checks.into_errors());
    if !complete {
        // A reference failed to serialize: the failure is recorded and
        // there is nothing to compare passes against.
        return out;
    }

    let mut failures = std::mem::take(&mut out.failures);
    let tracer = &mut out.tracer;
    out.passes = timed_passes(ctx, |traced| {
        let mut checks = Checks::default();
        for (spec, reference) in specs.iter().zip(&reference) {
            let report = if traced {
                tracer.span("lab.run_spec_profiled", spec.grid_len() as u64, |_| {
                    run_spec_profiled(spec, &opts).0
                })
            } else {
                run_spec(spec, &opts)
            };
            layers::same_report(&mut checks, &report, reference, "timed pass");
        }
        failures.op("timed pass", checks.into_errors());
    });
    out.failures = failures;

    let mut checks = Checks::default();
    match kind {
        Kind::Engine => {
            if let Some(f) = checks
                .ok(layers::validate(&reference[0]).and_then(|j| fidelity::engine_fidelity(&j)))
            {
                checks.expect(f.vacuous_workloads.is_empty(), || {
                    format!("Perfect does not beat None on {:?}", f.vacuous_workloads)
                });
                out.detail = vec![
                    Value::new(
                        "pif_speedup_geomean",
                        f.pif_speedup_geomean,
                        "x",
                        "simulated UIPC, PIF over None, geomean of 6 workloads",
                    ),
                    Value::new(
                        "pif_frac_of_perfect_min",
                        f.pif_frac_of_perfect_min,
                        "ratio",
                        "simulated, min over workloads of PIF speedup / Perfect speedup",
                    ),
                    Value::new(
                        "pif_l1i_hit_rate_min",
                        f.pif_l1i_hit_rate_min,
                        "ratio",
                        format!(
                            "simulated, min over workloads; paper quotes > {PAPER_PIF_HIT_RATE}"
                        ),
                    ),
                ];
            }
        }
        Kind::Analysis => {
            let point = PifConfig::paper_default().history_capacity.to_string();
            let coverage = layers::validate(&reference[0])
                .and_then(|j| fidelity::miss_coverage_mean(&j, &point));
            if let Some(c) = checks.ok(coverage) {
                out.detail = vec![Value::new(
                    "pif_miss_coverage_mean",
                    c,
                    "ratio",
                    format!("simulated PifAnalyzer, mean of 6 workloads at history {point}"),
                )];
            }
        }
    }
    out.failures.op("simulated results", checks.into_errors());

    if ctx.probe {
        let mut failures = std::mem::take(&mut out.failures);
        let mut layer = layers::probe(
            ctx,
            &layers::inputs(scale, ctx.seed),
            &mut out.tracer,
            &mut failures,
        );
        layer.extend(layers::probe_lab(
            ctx,
            &specs,
            scale,
            &reference,
            &mut out.tracer,
            &mut failures,
        ));
        out.failures = failures;
        out.per_layer.extend(layer);
    }
    out
}
