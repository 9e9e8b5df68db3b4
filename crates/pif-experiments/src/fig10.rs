//! Figure 10: competitive comparison — L1 miss coverage (left) and UIPC
//! speedup over the no-prefetch baseline (right) for Next-Line, TIFS, PIF
//! and a perfect L1-I.

use crate::{pct, speedup, Scale, Table};

/// One workload's competitive results.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Workload name.
    pub workload: String,
    /// Next-line miss coverage.
    pub next_line_coverage: f64,
    /// TIFS miss coverage.
    pub tifs_coverage: f64,
    /// PIF miss coverage.
    pub pif_coverage: f64,
    /// Next-line speedup over no-prefetch.
    pub next_line_speedup: f64,
    /// TIFS speedup over no-prefetch.
    pub tifs_speedup: f64,
    /// PIF speedup over no-prefetch.
    pub pif_speedup: f64,
    /// Perfect-latency cache speedup over no-prefetch.
    pub perfect_speedup: f64,
    /// Baseline L1-I hit rate (context).
    pub baseline_hit_rate: f64,
    /// PIF L1-I hit rate (the paper reports > 99.5%).
    pub pif_hit_rate: f64,
}

/// Runs the Figure 10 comparison through the `fig10` pif-lab sweep. As
/// in §5.5, TIFS and PIF run without history storage limitations to
/// expose the fundamental predictor gap, and measurements cover the
/// post-warmup steady state (§5's warmed checkpoints).
pub fn run(scale: &Scale) -> Vec<Fig10Row> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::fig10(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    report
        .workloads
        .iter()
        .map(|w| {
            let cell = |p: &str| {
                report
                    .cell(w, Some(p), "-")
                    .unwrap_or_else(|| panic!("fig10 grid missing {w}/{p}"))
            };
            let (base, nl, tifs, pif, perfect) = (
                cell("None"),
                cell("Next-Line"),
                cell("TIFS-unbounded"),
                cell("PIF"),
                cell("Perfect"),
            );
            let speedup = |c: &pif_lab::Cell| c.expect_metric("uipc_speedup_vs_none");
            Fig10Row {
                workload: w.clone(),
                next_line_coverage: nl.expect_metric("miss_coverage"),
                tifs_coverage: tifs.expect_metric("miss_coverage"),
                pif_coverage: pif.expect_metric("miss_coverage"),
                next_line_speedup: speedup(nl),
                tifs_speedup: speedup(tifs),
                pif_speedup: speedup(pif),
                perfect_speedup: speedup(perfect),
                baseline_hit_rate: base.expect_metric("hit_rate"),
                pif_hit_rate: pif.expect_metric("hit_rate"),
            }
        })
        .collect()
}

/// Left chart: coverage comparison.
pub fn coverage_table(rows: &[Fig10Row]) -> Table {
    let mut t = Table::new(vec!["Workload", "Next-Line", "TIFS", "PIF"]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            pct(r.next_line_coverage),
            pct(r.tifs_coverage),
            pct(r.pif_coverage),
        ]);
    }
    t
}

/// Right chart: speedup comparison.
pub fn speedup_table(rows: &[Fig10Row]) -> Table {
    let mut t = Table::new(vec![
        "Workload",
        "Next-Line",
        "TIFS",
        "PIF",
        "Perfect",
        "PIF hit rate",
    ]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            speedup(r.next_line_speedup),
            speedup(r.tifs_speedup),
            speedup(r.pif_speedup),
            speedup(r.perfect_speedup),
            pct(r.pif_hit_rate),
        ]);
    }
    t
}

/// Geometric-mean speedups across workloads (the paper reports averages:
/// PIF 27%, Perfect 29%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupSummary {
    /// Next-line mean speedup.
    pub next_line: f64,
    /// TIFS mean speedup.
    pub tifs: f64,
    /// PIF mean speedup.
    pub pif: f64,
    /// Perfect-cache mean speedup.
    pub perfect: f64,
}

/// Computes geometric-mean speedups.
pub fn summary(rows: &[Fig10Row]) -> SpeedupSummary {
    fn gmean(values: impl Iterator<Item = f64>, n: usize) -> f64 {
        (values.map(|v| v.ln()).sum::<f64>() / n as f64).exp()
    }
    let n = rows.len().max(1);
    SpeedupSummary {
        next_line: gmean(rows.iter().map(|r| r.next_line_speedup), n),
        tifs: gmean(rows.iter().map(|r| r.tifs_speedup), n),
        pif: gmean(rows.iter().map(|r| r.pif_speedup), n),
        perfect: gmean(rows.iter().map(|r| r.perfect_speedup), n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_sane_rows() {
        let rows = run(&Scale::tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            for c in [r.next_line_coverage, r.tifs_coverage, r.pif_coverage] {
                assert!((0.0..=1.0).contains(&c), "{}: coverage {c}", r.workload);
            }
            for s in [
                r.next_line_speedup,
                r.tifs_speedup,
                r.pif_speedup,
                r.perfect_speedup,
            ] {
                assert!(s > 0.5 && s < 5.0, "{}: speedup {s}", r.workload);
            }
        }
        let s = summary(&rows);
        assert!(s.perfect >= 1.0);
        assert!(!coverage_table(&rows).is_empty());
        assert!(!speedup_table(&rows).is_empty());
    }
}
