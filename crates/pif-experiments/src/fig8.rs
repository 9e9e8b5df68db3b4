//! Figure 8: distribution of accesses around the trigger block (left) and
//! spatial region size sensitivity at trap levels 0 and 1 (right).

use crate::{pct, Scale, Table};

pub use pif_lab::registry::FIG8_REGION_SIZES as REGION_SIZES;
pub use pif_lab::registry::REGION_OFFSETS as OFFSETS;

/// Left chart: one workload class's access-frequency-by-offset profile.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetRow {
    /// Workload name.
    pub workload: String,
    /// Access frequency at each offset in [`OFFSETS`].
    pub frequency: Vec<f64>,
}

/// Right chart: coverage by region size and trap level.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeRow {
    /// Workload name.
    pub workload: String,
    /// Region size (total blocks).
    pub size: u8,
    /// TL0 (application) miss coverage.
    pub tl0: f64,
    /// TL1 (interrupt) miss coverage.
    pub tl1: f64,
}

/// Runs the left chart (trigger-offset distribution, (4, 12) probe
/// geometry) through the `fig8-offsets` pif-lab sweep.
pub fn run_offsets(scale: &Scale) -> Vec<OffsetRow> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::fig8_offsets(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    report
        .cells
        .iter()
        .map(|c| OffsetRow {
            workload: c.workload.clone(),
            frequency: OFFSETS
                .iter()
                .map(|&o| c.expect_metric(&pif_lab::offset_metric(o)))
                .collect(),
        })
        .collect()
}

/// Runs the right chart (TL0/TL1 coverage as region size sweeps
/// [`REGION_SIZES`]) through the `fig8-sizes` pif-lab sweep.
pub fn run_sizes(scale: &Scale) -> Vec<SizeRow> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::fig8_sizes(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    report
        .cells
        .iter()
        .map(|c| SizeRow {
            workload: c.workload.clone(),
            size: c.point.parse().expect("region-size point label"),
            tl0: c.expect_metric("miss_coverage_tl0"),
            tl1: c.expect_metric("miss_coverage_tl1"),
        })
        .collect()
}

/// Renders the offset distribution.
pub fn offsets_table(rows: &[OffsetRow]) -> Table {
    let mut headers = vec!["Workload".to_string()];
    headers.extend(OFFSETS.iter().map(|o| o.to_string()));
    let mut t = Table::new(headers);
    for r in rows {
        let mut cells = vec![r.workload.clone()];
        cells.extend(r.frequency.iter().map(|&v| pct(v)));
        t.row(cells);
    }
    t
}

/// Renders the size sweep.
pub fn sizes_table(rows: &[SizeRow]) -> Table {
    let mut t = Table::new(vec!["Workload", "Region size", "TL0", "TL1"]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            r.size.to_string(),
            pct(r.tl0),
            pct(r.tl1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_profile_shapes() {
        let rows = run_offsets(&Scale::tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.frequency.len(), OFFSETS.len());
            // +1 should be the most frequent neighbour (sequential flow).
            let plus1 = r.frequency[4];
            let plus12 = r.frequency[15];
            assert!(
                plus1 >= plus12,
                "{}: +1 ({plus1}) should dominate +12 ({plus12})",
                r.workload
            );
        }
    }

    #[test]
    fn size_sweep_covers_all_sizes() {
        let rows = run_sizes(&Scale::tiny());
        assert_eq!(rows.len(), 6 * REGION_SIZES.len());
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.tl0));
            assert!((0.0..=1.0).contains(&r.tl1));
        }
        assert!(!sizes_table(&rows).is_empty());
    }
}
