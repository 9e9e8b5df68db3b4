//! Figure 3: spatial region density (left) and discontinuous accesses
//! within spatial regions (right).
//!
//! The characterization uses wide regions (up to 32 blocks, per the
//! figure's 17-32 bucket) over the application (TL0) retire stream.

use crate::{pct, Scale, Table};

pub use pif_lab::registry::{DENSITY_BUCKETS, RUN_BUCKETS};

/// One workload's spatial-region characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Workload name.
    pub workload: String,
    /// Fraction of regions per density bucket (aligned with
    /// [`DENSITY_BUCKETS`]).
    pub density: Vec<f64>,
    /// Fraction of regions per discontinuous-run bucket (aligned with
    /// [`RUN_BUCKETS`]).
    pub runs: Vec<f64>,
    /// Total regions observed.
    pub regions: u64,
}

impl Fig3Row {
    /// Fraction of regions with more than one accessed block (the paper
    /// reports >50%).
    pub fn multi_block_fraction(&self) -> f64 {
        1.0 - self.density.first().copied().unwrap_or(0.0)
    }

    /// Fraction of regions with discontinuous accesses (~1/5 in the
    /// paper).
    pub fn discontinuous_fraction(&self) -> f64 {
        1.0 - self.runs.first().copied().unwrap_or(0.0)
    }
}

/// Runs the Figure 3 characterization (32-block regions, trigger-anchored
/// with the paper's 8-preceding skew scaled up) through the `fig3`
/// pif-lab sweep.
pub fn run(scale: &Scale) -> Vec<Fig3Row> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::fig3(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    report
        .cells
        .iter()
        .map(|c| Fig3Row {
            workload: c.workload.clone(),
            density: DENSITY_BUCKETS
                .iter()
                .map(|&(lo, hi)| c.expect_metric(&pif_lab::density_metric(lo, hi)))
                .collect(),
            runs: RUN_BUCKETS
                .iter()
                .map(|&(lo, hi)| c.expect_metric(&pif_lab::runs_metric(lo, hi)))
                .collect(),
            regions: c.expect_metric_u64("total_regions"),
        })
        .collect()
}

/// Left chart: density distribution.
pub fn density_table(rows: &[Fig3Row]) -> Table {
    let mut headers = vec!["Workload".to_string()];
    headers.extend(DENSITY_BUCKETS.iter().map(|&(lo, hi)| {
        if lo == hi {
            lo.to_string()
        } else {
            format!("{lo}-{hi}")
        }
    }));
    let mut t = Table::new(headers);
    for r in rows {
        let mut cells = vec![r.workload.clone()];
        cells.extend(r.density.iter().map(|&v| pct(v)));
        t.row(cells);
    }
    t
}

/// Right chart: discontinuous runs distribution.
pub fn runs_table(rows: &[Fig3Row]) -> Table {
    let mut headers = vec!["Workload".to_string()];
    headers.extend(RUN_BUCKETS.iter().map(|&(lo, hi)| {
        if lo == hi {
            lo.to_string()
        } else {
            format!("{lo}-{hi}")
        }
    }));
    let mut t = Table::new(headers);
    for r in rows {
        let mut cells = vec![r.workload.clone()];
        cells.extend(r.runs.iter().map(|&v| pct(v)));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_form_distributions() {
        let rows = run(&Scale::tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            let dsum: f64 = r.density.iter().sum();
            assert!(
                dsum > 0.95 && dsum < 1.01,
                "{}: density sums to {dsum}",
                r.workload
            );
            let rsum: f64 = r.runs.iter().sum();
            assert!(
                rsum > 0.95 && rsum < 1.01,
                "{}: runs sum to {rsum}",
                r.workload
            );
            assert!(r.regions > 0);
        }
        assert_eq!(density_table(&rows).len(), 6);
        assert_eq!(runs_table(&rows).len(), 6);
    }
}
