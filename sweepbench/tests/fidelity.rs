//! The benchmark's simulated numbers are the numbers `piflab run`
//! writes: scoring a committed golden report and a fresh `run_spec` of
//! the same spec, scale and seed gives identical results.

use std::path::PathBuf;

use pif_core::PifConfig;
use pif_lab::json::Json;
use pif_lab::{registry, run_spec, RunOptions, Scale, SweepSpec};
use sweepbench::fidelity::{engine_fidelity, miss_coverage_mean};

fn golden(spec: &str) -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/pif-lab/goldens")
        .join(format!("{spec}.smoke.json"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).unwrap()
}

/// A fresh run at the golden's own scale and seed.
fn rerun(spec: &SweepSpec, golden: &Json) -> Json {
    let s = golden.get("scale").unwrap();
    let field = |k| s.get(k).and_then(Json::as_f64).unwrap();
    let scale = Scale {
        instructions: field("instructions") as usize,
        footprint: field("footprint"),
        warmup_fraction: field("warmup_fraction"),
    };
    let report = run_spec(spec, &RunOptions::new().scale(scale).threads(2).smoke(true));
    Json::parse(&report.to_json().unwrap()).unwrap()
}

#[test]
fn fig10_fidelity_matches_the_golden() {
    let g = golden("fig10");
    let from_golden = engine_fidelity(&g).unwrap();
    assert_eq!(
        engine_fidelity(&rerun(&registry::fig10(), &g)).unwrap(),
        from_golden
    );
    assert!(
        from_golden.vacuous_workloads.is_empty(),
        "Perfect must beat None"
    );
    assert!(from_golden.pif_speedup_geomean > 1.0);
    assert!(
        from_golden.pif_frac_of_perfect_min > 0.0 && from_golden.pif_frac_of_perfect_min <= 1.0
    );
    assert!(from_golden.pif_l1i_hit_rate_min > 0.0 && from_golden.pif_l1i_hit_rate_min <= 1.0);
}

#[test]
fn fig9_history_coverage_matches_the_golden() {
    let g = golden("fig9-history");
    let point = PifConfig::paper_default().history_capacity.to_string();
    let from_golden = miss_coverage_mean(&g, &point).unwrap();
    assert_eq!(
        miss_coverage_mean(&rerun(&registry::fig9_history(), &g), &point).unwrap(),
        from_golden
    );
    assert!(from_golden > 0.0 && from_golden <= 1.0);
    assert!(miss_coverage_mean(&g, "no-such-point").is_err());
}
