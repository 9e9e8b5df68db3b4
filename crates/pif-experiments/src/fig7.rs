//! Figure 7: jump distance in history (log2 buckets), weighted by the
//! number of correct predictions made by the corresponding stream —
//! demonstrating the need for deep history storage (§5.1).

use crate::{pct, Scale, Table};

pub use pif_lab::registry::JUMP_CDF_BUCKETS as BUCKETS;

/// One workload's weighted jump-distance CDF.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Workload name.
    pub workload: String,
    /// Cumulative fraction of prediction-weighted jumps per log2 bucket.
    pub cdf: Vec<f64>,
}

impl Fig7Row {
    /// Fraction of predictions attributable to jumps longer than
    /// `2^log2_distance` — the paper's argument for deep history.
    pub fn tail_beyond(&self, log2_distance: usize) -> f64 {
        1.0 - self.cdf.get(log2_distance).copied().unwrap_or(1.0)
    }
}

/// Runs the Figure 7 study through the `fig7` pif-lab sweep (unbounded
/// history so jump distances are not truncated by capacity).
pub fn run(scale: &Scale) -> Vec<Fig7Row> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::fig7(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    report
        .cells
        .iter()
        .map(|c| Fig7Row {
            workload: c.workload.clone(),
            cdf: (0..BUCKETS)
                .map(|i| c.expect_metric(&pif_lab::jump_cdf_metric(i)))
                .collect(),
        })
        .collect()
}

/// Renders selected CDF points (log2 distances 5, 10, 15, 20, 25).
pub fn table(rows: &[Fig7Row]) -> Table {
    let points = [5usize, 10, 15, 20, 25];
    let mut headers = vec!["Workload".to_string()];
    headers.extend(points.iter().map(|p| format!("<=2^{p}")));
    let mut t = Table::new(headers);
    for r in rows {
        let mut cells = vec![r.workload.clone()];
        cells.extend(
            points
                .iter()
                .map(|&p| pct(r.cdf.get(p).copied().unwrap_or(1.0))),
        );
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdfs_are_monotone_reaching_one() {
        let rows = run(&Scale::tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.cdf.len(), BUCKETS);
            for w in r.cdf.windows(2) {
                assert!(w[0] <= w[1] + 1e-9, "{}: non-monotone CDF", r.workload);
            }
            let last = *r.cdf.last().unwrap();
            assert!(
                (last - 1.0).abs() < 1e-6,
                "{}: CDF ends at {last}",
                r.workload
            );
        }
        assert_eq!(table(&rows).len(), 6);
    }
}
