//! fig-sampling (extension): the §5 measurement methodology itself —
//! how the 95% confidence half-width of sampled UIPC shrinks as the
//! sample count grows, per workload and prefetcher.
//!
//! The paper reports UIPC "at a 95% confidence level with less than ±5%
//! error" from SimFlex-style sampling; this figure shows what buying
//! that confidence costs in samples on the reproduction's workloads.

use crate::{pct, Scale, Table};

/// One (workload, sample-count) point of the sampling study.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingRow {
    /// Workload name.
    pub workload: String,
    /// Measurement windows taken.
    pub samples: u32,
    /// Sampled no-prefetch UIPC estimate.
    pub none_uipc: f64,
    /// 95% confidence half-width of the no-prefetch estimate.
    pub none_ci95: f64,
    /// Sampled PIF UIPC estimate.
    pub pif_uipc: f64,
    /// 95% confidence half-width of the PIF estimate.
    pub pif_ci95: f64,
    /// PIF relative error (ci95 / mean — the paper targets < 5%).
    pub pif_rel_err: f64,
    /// PIF speedup over the sampled no-prefetch baseline.
    pub pif_speedup: f64,
    /// Simulated-to-total work ratio of the PIF sampled run (exceeds 1
    /// when windows overlap, i.e. at small scales).
    pub sampled_fraction: f64,
}

/// Runs the `fig-sampling` sweep and rebuilds its typed rows.
pub fn run(scale: &Scale) -> Vec<SamplingRow> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::fig_sampling(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    let mut rows = Vec::new();
    for w in &report.workloads {
        for point in &report.points {
            let none = report
                .cell(w, Some("None"), point)
                .unwrap_or_else(|| panic!("fig-sampling grid missing {w}/None/{point}"));
            let pif = report
                .cell(w, Some("PIF"), point)
                .unwrap_or_else(|| panic!("fig-sampling grid missing {w}/PIF/{point}"));
            rows.push(SamplingRow {
                workload: w.clone(),
                samples: point.parse().expect("sample-count point label"),
                none_uipc: none.expect_metric("uipc_mean"),
                none_ci95: none.expect_metric("uipc_ci95"),
                pif_uipc: pif.expect_metric("uipc_mean"),
                pif_ci95: pif.expect_metric("uipc_ci95"),
                pif_rel_err: pif.expect_metric("uipc_rel_err"),
                pif_speedup: pif.expect_metric("uipc_speedup_vs_none"),
                sampled_fraction: pif.expect_metric("sampled_fraction"),
            });
        }
    }
    rows
}

/// The CI-half-width-vs-samples chart as a table.
pub fn table(rows: &[SamplingRow]) -> Table {
    let mut t = Table::new(vec![
        "Workload",
        "Samples",
        "None UIPC",
        "±ci95",
        "PIF UIPC",
        "±ci95",
        "rel err",
        "PIF speedup",
        "sim/total work",
    ]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            r.samples.to_string(),
            format!("{:.4}", r.none_uipc),
            format!("{:.4}", r.none_ci95),
            format!("{:.4}", r.pif_uipc),
            format!("{:.4}", r.pif_ci95),
            pct(r.pif_rel_err),
            format!("{:.2}x", r.pif_speedup),
            pct(r.sampled_fraction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_rows_cover_the_grid() {
        let rows = run(&Scale::tiny());
        // 2 workloads × 5 sample counts.
        assert_eq!(rows.len(), 2 * pif_lab::registry::FIG_SAMPLING_COUNTS.len());
        for r in &rows {
            assert!(r.samples >= 2);
            assert!(r.none_uipc > 0.0 && r.pif_uipc > 0.0);
            assert!(r.none_ci95 >= 0.0 && r.pif_ci95 >= 0.0);
            assert!(r.pif_speedup > 0.0);
        }
        assert!(!table(&rows).is_empty());
    }
}
