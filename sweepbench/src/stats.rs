//! Sample statistics and failure accounting.

/// The median of `samples` (mean of the middle pair for even counts);
/// `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles the tail rule may report, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_PERCENTILES`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond it, with its
/// nearest-rank value. `None` when no listed percentile qualifies
/// (fewer than 40 samples).
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        // Nearest rank: the smallest value with at least p% of the
        // samples at or below it.
        // (The epsilon keeps 99.9% of 10000 at rank 9990 despite
        // rounding in the product.)
        let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (p, v[rank - 1]))
    })
}

/// Operations attempted and failed, with the reason for each failure.
///
/// An operation is one user-visible unit of work: a set-up, a timed
/// pass, a pifd submission or a traced-run check. It fails if any check
/// made on it fails; `fail_frac` is failed operations over attempted.
#[derive(Debug, Default)]
pub struct Failures {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Failures {
    /// Records one operation whose failed checks are `errors` (empty on
    /// success).
    pub fn op(&mut self, what: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.reasons.push(format!("{what}: {}", errors.join("; ")));
        }
    }

    /// Operations recorded.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// One line per failed operation.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }

    /// Adds `other`'s operations, prefixing its reasons with `prefix`.
    pub fn merge(&mut self, other: &Failures, prefix: &str) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons
            .extend(other.reasons.iter().map(|r| format!("{prefix}: {r}")));
    }

    /// `{"attempted": n, "failed": m, "reasons": [...]}`.
    pub fn to_json(&self) -> String {
        let reasons: Vec<String> = self
            .reasons
            .iter()
            .map(|r| format!("\"{}\"", pif_lab::json::escape(r)))
            .collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"reasons\": [{}]}}",
            self.attempted,
            self.failed,
            reasons.join(", ")
        )
    }

    /// Parses [`Failures::to_json`] output.
    ///
    /// # Errors
    ///
    /// A missing or ill-typed field, or counts that disagree with the
    /// reasons.
    pub fn from_json(j: &pif_lab::json::Json) -> Result<Failures, String> {
        let count = |k: &str| {
            j.get(k)
                .and_then(pif_lab::json::Json::as_f64)
                .map(|v| v as u64)
                .ok_or(format!("failures: no {k}"))
        };
        let reasons: Vec<String> = j
            .get("reasons")
            .and_then(pif_lab::json::Json::as_arr)
            .ok_or("failures: no reasons")?
            .iter()
            .map(|r| {
                r.as_str()
                    .map(str::to_string)
                    .ok_or("failures: reason".to_string())
            })
            .collect::<Result<_, _>>()?;
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        if failed > attempted || reasons.len() as u64 != failed {
            return Err("failures: counts disagree with reasons".into());
        }
        Ok(Failures {
            attempted,
            failed,
            reasons,
        })
    }
}

/// Collects the failed checks of one operation.
#[derive(Debug, Default)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Fails the operation with `msg` unless `ok`.
    pub fn expect(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.0.push(msg());
        }
    }

    /// Fails the operation with the error of `result`, if any.
    pub fn ok<T>(&mut self, result: Result<T, String>) -> Option<T> {
        result.map_err(|e| self.0.push(e)).ok()
    }

    /// The failed checks.
    pub fn into_errors(self) -> Vec<String> {
        self.0
    }
}
