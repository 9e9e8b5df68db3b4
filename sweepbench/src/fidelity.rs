//! Simulated results read back from `pif-lab-sweep/v1` report documents.
//!
//! Reading the serialized report (rather than the in-memory struct)
//! lets the same code score a live run and a committed golden, so the
//! benchmark's simulated numbers are the numbers `piflab run` writes.

use pif_lab::json::Json;

/// Paper-quoted PIF L1-I hit rate (Fig. 10 discussion: "> 99.5%").
pub const PAPER_PIF_HIT_RATE: f64 = 0.995;

/// Fig. 10 figures of merit over the report's workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineFidelity {
    /// Geometric mean over workloads of PIF's UIPC over None's.
    pub pif_speedup_geomean: f64,
    /// Smallest per-workload ratio of PIF's speedup to Perfect's.
    pub pif_frac_of_perfect_min: f64,
    /// Smallest per-workload PIF L1-I hit rate.
    pub pif_l1i_hit_rate_min: f64,
    /// Workloads where Perfect's UIPC does not exceed None's.
    pub vacuous_workloads: Vec<String>,
}

fn cells(report: &Json) -> Result<&[Json], String> {
    report
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| "report has no cells".to_string())
}

fn workloads(report: &Json) -> Result<Vec<String>, String> {
    report
        .get("grid")
        .and_then(|g| g.get("workloads"))
        .and_then(Json::as_arr)
        .ok_or("report has no workload axis")?
        .iter()
        .map(|w| {
            w.as_str()
                .map(str::to_string)
                .ok_or("workload is not a string".into())
        })
        .collect()
}

/// Metric `name` of the cell at (`workload`, `prefetcher`, `point`).
fn metric(
    report: &Json,
    workload: &str,
    prefetcher: Option<&str>,
    point: &str,
    name: &str,
) -> Result<f64, String> {
    cells(report)?
        .iter()
        .find(|c| {
            c.get("workload").and_then(Json::as_str) == Some(workload)
                && c.get("prefetcher").and_then(Json::as_str) == prefetcher
                && c.get("point").and_then(Json::as_str) == Some(point)
        })
        .and_then(|c| c.get("metrics"))
        .and_then(|m| m.get(name))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no {name} for {workload}/{prefetcher:?}/{point}"))
}

/// Scores a `fig10`-shaped engine report (None, PIF and Perfect cells on
/// the unit axis).
///
/// # Errors
///
/// A missing cell or metric.
pub fn engine_fidelity(report: &Json) -> Result<EngineFidelity, String> {
    let names = workloads(report)?;
    let mut log_sum = 0.0;
    let mut frac_min = f64::INFINITY;
    let mut hit_min = f64::INFINITY;
    let mut vacuous = Vec::new();
    for w in &names {
        let uipc = |p| metric(report, w, Some(p), "-", "uipc");
        let (none, pif, perfect) = (uipc("None")?, uipc("PIF")?, uipc("Perfect")?);
        if perfect <= none {
            vacuous.push(w.clone());
        }
        log_sum += (pif / none).ln();
        frac_min = frac_min.min((pif / none) / (perfect / none));
        hit_min = hit_min.min(metric(report, w, Some("PIF"), "-", "hit_rate")?);
    }
    Ok(EngineFidelity {
        pif_speedup_geomean: (log_sum / names.len() as f64).exp(),
        pif_frac_of_perfect_min: frac_min,
        pif_l1i_hit_rate_min: hit_min,
        vacuous_workloads: vacuous,
    })
}

/// Mean PIF miss coverage over the workloads of a `fig9-history`-shaped
/// report, at history capacity `point`.
///
/// # Errors
///
/// A missing cell or metric.
pub fn miss_coverage_mean(report: &Json, point: &str) -> Result<f64, String> {
    let names = workloads(report)?;
    let mut sum = 0.0;
    for w in &names {
        sum += metric(report, w, None, point, "miss_coverage")?;
    }
    Ok(sum / names.len() as f64)
}
