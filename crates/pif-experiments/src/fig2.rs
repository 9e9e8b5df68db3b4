//! Figure 2: percentage of correctly predicted correct-path L1-I misses
//! when recording temporal streams at each observation point (Miss,
//! Access, Retire, RetireSep).

use crate::{pct, Scale, Table};

/// One workload's coverage at the four observation points.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Workload name.
    pub workload: String,
    /// Coverage predicting the miss stream.
    pub miss: f64,
    /// Coverage predicting the access stream.
    pub access: f64,
    /// Coverage predicting the retire stream.
    pub retire: f64,
    /// Coverage predicting per-trap-level retire streams.
    pub retire_sep: f64,
    /// Correct-path misses measured.
    pub misses: u64,
}

/// Runs the Figure 2 study for all six workloads (through the `fig2`
/// pif-lab sweep).
pub fn run(scale: &Scale) -> Vec<Fig2Row> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::fig2(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    report
        .cells
        .iter()
        .map(|c| Fig2Row {
            workload: c.workload.clone(),
            miss: c.expect_metric("miss"),
            access: c.expect_metric("access"),
            retire: c.expect_metric("retire"),
            retire_sep: c.expect_metric("retire_sep"),
            misses: c.expect_metric_u64("correct_path_misses"),
        })
        .collect()
}

/// Renders the rows as the paper's Figure 2 bar values.
pub fn table(rows: &[Fig2Row]) -> Table {
    let mut t = Table::new(vec![
        "Workload",
        "Miss",
        "Access",
        "Retire",
        "RetireSep",
        "L1-I misses",
    ]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            pct(r.miss),
            pct(r.access),
            pct(r.retire),
            pct(r.retire_sep),
            r.misses.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_six_ordered_rows() {
        let rows = run(&Scale::tiny());
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].workload, "OLTP-DB2");
        for r in &rows {
            for v in [r.miss, r.access, r.retire, r.retire_sep] {
                assert!((0.0..=1.0).contains(&v), "{}: {v}", r.workload);
            }
        }
        let t = table(&rows);
        assert_eq!(t.len(), 6);
    }
}
