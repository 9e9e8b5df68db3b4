//! Figure 9: temporal stream length contribution to prediction (left) and
//! history size sensitivity (right).

use crate::{pct, Scale, Table};

pub use pif_lab::registry::FIG9_HISTORY_SIZES as HISTORY_SIZES;
pub use pif_lab::registry::LENGTH_CDF_BUCKETS as LENGTH_BUCKETS;

/// Left chart: correct predictions by stream length.
#[derive(Debug, Clone, PartialEq)]
pub struct LengthRow {
    /// Workload name.
    pub workload: String,
    /// CDF of prediction-weighted stream lengths per log2 bucket.
    pub cdf: Vec<f64>,
}

impl LengthRow {
    /// Fraction of predictions from streams longer than `2^log2_regions`.
    pub fn tail_beyond(&self, log2_regions: usize) -> f64 {
        1.0 - self.cdf.get(log2_regions).copied().unwrap_or(1.0)
    }
}

/// Right chart: predictor coverage at one history size.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// Workload name.
    pub workload: String,
    /// History capacity in regions.
    pub history_regions: usize,
    /// Predictor coverage (§5.4 plots predictor coverage, not miss
    /// coverage, to remove cache ambiguity).
    pub coverage: f64,
}

/// Runs the left chart (unbounded history, as stream lengths are a
/// property of the workload) through the `fig9-lengths` pif-lab sweep.
pub fn run_lengths(scale: &Scale) -> Vec<LengthRow> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::fig9_lengths(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    report
        .cells
        .iter()
        .map(|c| LengthRow {
            workload: c.workload.clone(),
            cdf: (0..LENGTH_BUCKETS)
                .map(|i| c.expect_metric(&pif_lab::len_cdf_metric(i)))
                .collect(),
        })
        .collect()
}

/// Runs the right chart (coverage as history capacity sweeps
/// [`HISTORY_SIZES`]) through the `fig9-history` pif-lab sweep.
pub fn run_history_sweep(scale: &Scale) -> Vec<HistoryRow> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::fig9_history(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    report
        .cells
        .iter()
        .map(|c| HistoryRow {
            workload: c.workload.clone(),
            history_regions: c.point.parse().expect("history-capacity point label"),
            coverage: c.expect_metric("predictor_coverage"),
        })
        .collect()
}

/// Renders selected stream-length CDF points.
pub fn lengths_table(rows: &[LengthRow]) -> Table {
    let points = [3usize, 7, 11, 15, 19];
    let mut headers = vec!["Workload".to_string()];
    headers.extend(points.iter().map(|p| format!("<=2^{p} regions")));
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

/// Renders the history sweep as workload x capacity coverage.
pub fn history_table(rows: &[HistoryRow]) -> Table {
    let mut headers = vec!["Workload".to_string()];
    headers.extend(HISTORY_SIZES.iter().map(|s| format!("{}K", s / 1024)));
    let mut t = Table::new(headers);
    let workloads: Vec<String> = {
        let mut names: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
        names.dedup();
        names
    };
    for w in workloads {
        let mut cells = vec![w.clone()];
        for &cap in &HISTORY_SIZES {
            let cov = rows
                .iter()
                .find(|r| r.workload == w && r.history_regions == cap)
                .map(|r| r.coverage)
                .unwrap_or(0.0);
            cells.push(pct(cov));
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_cdfs_valid() {
        let rows = run_lengths(&Scale::tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.cdf.len(), LENGTH_BUCKETS);
            for w in r.cdf.windows(2) {
                assert!(w[0] <= w[1] + 1e-9);
            }
        }
        assert_eq!(lengths_table(&rows).len(), 6);
    }

    #[test]
    fn history_sweep_is_monotonic_in_capacity() {
        let rows = run_history_sweep(&Scale::tiny());
        assert_eq!(rows.len(), 6 * HISTORY_SIZES.len());
        for w in Scale::tiny().workloads() {
            let series: Vec<f64> = HISTORY_SIZES
                .iter()
                .map(|&cap| {
                    rows.iter()
                        .find(|r| r.workload == w.name() && r.history_regions == cap)
                        .unwrap()
                        .coverage
                })
                .collect();
            // Coverage should not *decrease* meaningfully with capacity.
            for pair in series.windows(2) {
                assert!(
                    pair[1] >= pair[0] - 0.02,
                    "{}: coverage dropped with capacity: {series:?}",
                    w.name()
                );
            }
        }
        assert_eq!(history_table(&rows).len(), 6);
    }
}
