//! Ablation study: remove each PIF design element in turn and measure the
//! coverage cost. Not a paper figure, but each row quantifies a design
//! choice the paper argues for:
//!
//! * **spatial regions** (§3.1) — single-block records instead of 8-block
//!   trigger+bit-vector regions;
//! * **temporal compactor** (§3.2 / §4.1) — record every loop iteration;
//! * **trap-level separation** (§2.3) — record interrupts inline;
//! * **deep history** (§5.4) — 1K regions instead of 32K;
//! * **multiple SABs** (§4.3) — a single prediction stream;
//! * **preceding blocks** (§5.2) — regions skewed strictly forward.

use crate::{pct, Scale, Table};

pub use pif_lab::registry::AblationVariant as Variant;

/// Coverage of each variant on each workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Workload name.
    pub workload: String,
    /// Miss coverage per variant, aligned with [`Variant::ALL`].
    pub coverage: Vec<f64>,
}

/// Runs the ablation grid through the `ablation` pif-lab sweep.
pub fn run(scale: &Scale) -> Vec<AblationRow> {
    let report = pif_lab::run_spec(
        &pif_lab::registry::ablation(),
        &pif_lab::RunOptions::new().scale(*scale),
    );
    report
        .workloads
        .iter()
        .map(|w| AblationRow {
            workload: w.clone(),
            coverage: Variant::ALL
                .iter()
                .map(|v| {
                    report
                        .cell(w, Some("PIF"), v.label())
                        .unwrap_or_else(|| panic!("ablation grid missing {w}/{}", v.label()))
                        .expect_metric("miss_coverage")
                })
                .collect(),
        })
        .collect()
}

/// Renders the ablation grid.
pub fn table(rows: &[AblationRow]) -> Table {
    let mut headers = vec!["Workload".to_string()];
    headers.extend(Variant::ALL.iter().map(|v| v.label().to_string()));
    let mut t = Table::new(headers);
    for r in rows {
        let mut cells = vec![r.workload.clone()];
        cells.extend(r.coverage.iter().map(|&v| pct(v)));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::PifConfig;

    #[test]
    fn variants_produce_valid_configs() {
        for v in Variant::ALL {
            assert!(v.config().validate().is_ok(), "{} invalid", v.label());
        }
        assert_eq!(Variant::Paper.config(), PifConfig::paper_default());
        assert!(!Variant::NoTrapSeparation.config().separate_trap_levels);
        assert_eq!(
            Variant::NoSpatialRegions.config().geometry.total_blocks(),
            1
        );
    }

    #[test]
    fn ablation_grid_runs_and_paper_design_is_competitive() {
        let rows = run(&Scale::tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.coverage.len(), Variant::ALL.len());
            let paper = r.coverage[0];
            for (v, &c) in Variant::ALL.iter().zip(&r.coverage) {
                assert!(
                    (0.0..=1.0).contains(&c),
                    "{}: {} = {c}",
                    r.workload,
                    v.label()
                );
            }
            // The full design should roughly dominate the single-block
            // ablation (spatial regions are the big win).
            assert!(
                paper >= r.coverage[1] - 0.10,
                "{}: paper {paper} vs no-regions {}",
                r.workload,
                r.coverage[1]
            );
        }
        assert_eq!(table(&rows).len(), 6);
    }
}
