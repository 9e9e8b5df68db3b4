//! # sweepbench — the benchmark of the pif-lab sweep stack
//!
//! Four workloads (see `README.md` in this directory for why each was
//! chosen and what every metric means):
//!
//! * `sweep-engine` — `run_spec(fig10)`;
//! * `sweep-analysis` — `run_spec(fig9-history)` then `run_spec(fig3)`;
//! * `trace-replay` — v2 trace encode, exhaustive replay and sampled
//!   fan-out over two generated workloads;
//! * `pifd-warm` — an in-process pifd daemon answering a closed-loop
//!   client from a warm result cache.
//!
//! A run splits its time over [`PROCESSES`] fresh processes, each of
//! which sets the workload up once and runs timed passes; the parent
//! pools their samples ([`merge`]), scaling host times to the reference
//! host's speed by calibration rounds timed between the passes
//! ([`host::Calibrator`]). An untraced run reports the bounded
//! end-to-end metrics of [`catalog::END_TO_END`] plus per-workload
//! detail; a traced run records spans around calls into each layer and
//! reports [`catalog::PER_LAYER`].

pub mod catalog;
pub mod fidelity;
pub mod host;
pub mod layers;
pub mod manifest;
pub mod pifd;
pub mod replay;
pub mod stats;
pub mod sweep;
pub mod tracer;

use std::path::PathBuf;
use std::time::Instant;

use pif_lab::json::{escape, fmt_f64, Json};
use pif_lab::Scale;

use crate::stats::{median, Failures};
use crate::tracer::Tracer;

/// Instructions per synthetic workload in the sweep workloads.
pub const SWEEP_INSTRUCTIONS: usize = 1_000_000;

/// Fresh processes a run is split over. Pass times differ by several
/// percent from one process to the next for identical work (memory
/// layout), while staying steady within a process; pooling the passes
/// of four processes halves that noise in the reported medians.
pub const PROCESSES: usize = 4;

/// Fewest timed passes of each process, however long each takes.
pub const MIN_PASSES: usize = 3;

/// The synthetic-workload scale of the sweeps: full footprint, so every
/// workload's instruction working set exceeds the 64 KB L1-I.
pub fn sweep_scale() -> Scale {
    Scale {
        instructions: SWEEP_INSTRUCTIONS,
        footprint: 1.0,
        warmup_fraction: 0.3,
    }
}

/// What one process of a run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes in this process.
    pub seconds: f64,
    /// Trace every other pass (for the tracing overhead).
    pub trace: bool,
    /// Also run the per-layer probes (one process of a traced run).
    pub probe: bool,
    /// Pool threads of every sweep (the host's core count).
    pub threads: usize,
    /// Scratch directory of this process (trace files, caches), removed
    /// at exit.
    pub scratch: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit token.
    pub unit: String,
    /// How it was obtained (printed, never parsed).
    pub note: String,
}

impl Value {
    /// A value with a note.
    pub fn new(name: &str, value: f64, unit: &str, note: impl Into<String>) -> Value {
        Value {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            note: note.into(),
        }
    }
}

/// Everything one process measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation outcomes.
    pub failures: Failures,
    /// Host seconds of the set-up.
    pub setup_s: f64,
    /// The timed passes.
    pub passes: Passes,
    /// What one pass is ("pass", "round").
    pub pass_name: String,
    /// Host seconds of each request of a closed-loop client.
    pub latencies: Vec<f64>,
    /// Digest of the reference outputs; equal across the processes of a
    /// run.
    pub identity: u64,
    /// Workload-specific deterministic results, printed by name and
    /// unit; equal across the processes of a run.
    pub detail: Vec<Value>,
    /// Per-layer metrics (the probing process of a traced run).
    pub per_layer: Vec<Value>,
    /// Header lines describing the inputs.
    pub notes: Vec<String>,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
    /// Spans of a traced run.
    pub tracer: Tracer,
}

/// Host time of the timed passes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Passes {
    /// Wall seconds of each pass.
    pub wall: Vec<f64>,
    /// Process CPU seconds (user + system, all threads) of each pass.
    pub cpu: Vec<f64>,
    /// Whether each pass was traced.
    pub traced: Vec<bool>,
    /// CPU seconds per thread of each calibration round (one before the
    /// first pass and one after every pass).
    pub calib: Vec<f64>,
}

impl Passes {
    fn median_wall(&self, traced: bool) -> f64 {
        let picked: Vec<f64> = self
            .wall
            .iter()
            .zip(&self.traced)
            .filter(|(_, t)| **t == traced)
            .map(|(x, _)| *x)
            .collect();
        median(&picked)
    }

    /// Traced over untraced median wall time, minus one.
    pub fn tracing_overhead(&self) -> f64 {
        self.median_wall(true) / self.median_wall(false) - 1.0
    }

    /// How much slower than the reference host this process's cores
    /// ran: the median calibration round over
    /// [`host::CALIBRATION_REF_S`].
    pub fn slowdown(&self) -> f64 {
        median(&self.calib) / host::CALIBRATION_REF_S
    }
}

/// Runs `pass` repeatedly for `ctx.seconds` (and at least
/// [`MIN_PASSES`] times), timing each, with a calibration round on
/// `ctx.threads` threads before the first pass and after every pass.
/// On traced runs every other pass is traced, so the two halves give
/// the tracing overhead.
pub fn timed_passes(ctx: &Ctx, mut pass: impl FnMut(bool)) -> Passes {
    let mut calibrator = host::Calibrator::new(ctx.threads);
    let mut p = Passes::default();
    let start = Instant::now();
    p.calib.push(calibrator.round());
    while p.wall.len() < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && p.wall.len() % 2 == 1;
        let (t0, c0) = (Instant::now(), host::cpu_seconds());
        pass(traced);
        p.cpu.push(host::cpu_seconds() - c0);
        p.wall.push(t0.elapsed().as_secs_f64());
        p.traced.push(traced);
        p.calib.push(calibrator.round());
    }
    p
}

/// Runs `setup` once, returning its host seconds and its product.
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = setup();
    (t0.elapsed().as_secs_f64(), out)
}

/// FNV-1a digest of `parts`, for comparing reference outputs across
/// processes.
pub fn identity<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    parts.into_iter().fold(
        pif_trace::hash::fnv1a_64_once(b""),
        pif_trace::hash::fnv1a_64,
    )
}

/// "tail pXX = v (n=N)" under the ten-beyond rule, or why there is none.
pub fn tail_note(samples: &[f64], scale: f64, unit: &str) -> String {
    match stats::tail(samples) {
        Some((p, v)) => format!("tail p{p} = {:.4} {unit} (n={})", v * scale, samples.len()),
        None => format!(
            "no tail: n={} leaves fewer than {} samples beyond p75",
            samples.len(),
            stats::TAIL_MIN_BEYOND
        ),
    }
}

/// Runs the named workload.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "sweep-engine" => Ok(sweep::run(ctx, sweep::Kind::Engine)),
        "sweep-analysis" => Ok(sweep::run(ctx, sweep::Kind::Analysis)),
        "trace-replay" => Ok(replay::run(ctx)),
        "pifd-warm" => Ok(pifd::run(ctx)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            catalog::WORKLOADS.map(|w| w.0).join(", ")
        )),
    }
}

/// A whole run: the outcomes of its processes, pooled.
#[derive(Debug, Default)]
pub struct Report {
    /// Operation outcomes of every process, plus the cross-process
    /// checks.
    pub failures: Failures,
    /// The bounded end-to-end metrics.
    pub end_to_end: Vec<Value>,
    /// Workload-specific results, printed by name and unit.
    pub detail: Vec<Value>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Value>,
    /// Header lines describing the inputs.
    pub notes: Vec<String>,
}

/// Pools the outcomes of a run's processes: medians over every pass,
/// set-up and peak RSS; request latencies pooled; deterministic results
/// checked equal across processes.
pub fn merge(parts: &[Outcome], traced: bool) -> Report {
    let mut report = Report::default();
    for (k, part) in parts.iter().enumerate() {
        report
            .failures
            .merge(&part.failures, &format!("process {k}"));
    }
    let Some(first) = parts.first() else {
        return report;
    };
    let mut differ = Vec::new();
    for (k, part) in parts.iter().enumerate().skip(1) {
        if part.identity != first.identity || part.detail != first.detail {
            differ.push(format!(
                "process {k}'s reference outputs differ from process 0's"
            ));
        }
    }
    report.failures.op("cross-process identity", differ);

    // Host times, raw and scaled to the reference host's speed by each
    // process's own calibration rounds.
    let mut passes = Passes::default();
    let (mut wall, mut cpu, mut setups, mut raw_setups) = (vec![], vec![], vec![], vec![]);
    let mut slowdowns = Vec::new();
    for part in parts {
        let p = &part.passes;
        passes.wall.extend(&p.wall);
        passes.cpu.extend(&p.cpu);
        passes.traced.extend(&p.traced);
        let slowdown = p.slowdown();
        wall.extend(p.wall.iter().map(|w| w / slowdown));
        cpu.extend(p.cpu.iter().map(|c| c / slowdown));
        setups.push(part.setup_s / slowdown);
        raw_setups.push(part.setup_s);
        slowdowns.push(slowdown);
    }
    let peaks: Vec<f64> = parts.iter().map(|p| p.peak_rss_mb).collect();
    let (n, what) = (passes.wall.len(), &first.pass_name);
    let scaled = "host, scaled to the reference host's speed";
    report.end_to_end = vec![
        Value::new(
            "setup_s",
            median(&setups),
            "s",
            format!("{scaled}, median of {} set-ups", setups.len()),
        ),
        Value::new(
            "wall_s",
            median(&wall),
            "s",
            format!(
                "{scaled}, median {what} of {n}; {}",
                tail_note(&wall, 1.0, "s")
            ),
        ),
        Value::new(
            "cpu_s",
            median(&cpu),
            "s",
            format!("{scaled}, user+sys, median per {what} of {n}"),
        ),
        Value::new(
            "peak_rss_mb",
            median(&peaks),
            "MB",
            format!("host VmHWM, median of {} processes", peaks.len()),
        ),
    ];

    report.detail = first.detail.clone();
    report.detail.extend([
        Value::new(
            "host_slowdown",
            median(&slowdowns),
            "x",
            format!(
                "host, calibration round CPU time over the reference host's {} s, median of {} processes",
                host::CALIBRATION_REF_S,
                slowdowns.len()
            ),
        ),
        Value::new(
            "host_setup_s",
            median(&raw_setups),
            "s",
            "host, unscaled, median of set-ups",
        ),
        Value::new(
            "host_wall_s",
            median(&passes.wall),
            "s",
            format!("host, unscaled, median {what} of {n}"),
        ),
        Value::new(
            "host_cpu_s",
            median(&passes.cpu),
            "s",
            format!("host, unscaled, user+sys, median per {what} of {n}"),
        ),
    ]);
    let latencies: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    if !latencies.is_empty() {
        let n = latencies.len();
        report.detail.push(Value::new(
            "submit_p50_ms",
            median(&latencies) * 1e3,
            "ms",
            format!("host, closed loop, n={n}"),
        ));
        let (tail, note) = match stats::tail(&latencies) {
            Some((p, v)) => (
                v * 1e3,
                format!("host, p{p}, the highest with >= 10 samples beyond it, n={n}"),
            ),
            None => (f64::NAN, tail_note(&latencies, 1e3, "ms")),
        };
        report
            .detail
            .push(Value::new("submit_tail_ms", tail, "ms", note));
    }
    if traced {
        report.per_layer = parts
            .iter()
            .flat_map(|p| p.per_layer.iter().cloned())
            .collect();
        report.per_layer.push(Value::new(
            "bench.tracing_overhead_frac",
            passes.tracing_overhead(),
            "ratio",
            "traced over untraced median pass wall, minus 1",
        ));
    }
    for note in parts.iter().flat_map(|p| &p.notes) {
        if !report.notes.contains(note) {
            report.notes.push(note.clone());
        }
    }
    report.notes.push(format!(
        "{} processes, each with one set-up and its own timed passes (seconds split evenly); medians pool them all",
        parts.len()
    ));
    report
}

fn values_json(values: &[Value]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "[\"{}\", {}, \"{}\", \"{}\"]",
                escape(&v.name),
                fmt_f64(v.value),
                escape(&v.unit),
                escape(&v.note)
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn nums_json(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| fmt_f64(*x)).collect();
    format!("[{}]", items.join(", "))
}

impl Outcome {
    /// One JSON line carrying everything [`merge`] needs (spans stay in
    /// the process that recorded them).
    pub fn to_part_line(&self) -> String {
        let traced: Vec<String> = self.passes.traced.iter().map(bool::to_string).collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        format!(
            "{{\"setup_s\": {}, \"pass_name\": \"{}\", \"wall\": {}, \"cpu\": {}, \"traced\": [{}], \
             \"calib\": {}, \"latencies\": {}, \"identity\": \"{:016x}\", \"peak_rss_mb\": {}, \"failures\": {}, \
             \"detail\": {}, \"per_layer\": {}, \"notes\": [{}]}}",
            fmt_f64(self.setup_s),
            escape(&self.pass_name),
            nums_json(&self.passes.wall),
            nums_json(&self.passes.cpu),
            traced.join(", "),
            nums_json(&self.passes.calib),
            nums_json(&self.latencies),
            self.identity,
            fmt_f64(self.peak_rss_mb),
            self.failures.to_json(),
            values_json(&self.detail),
            values_json(&self.per_layer),
            notes.join(", ")
        )
    }

    /// Parses a [`Outcome::to_part_line`] line.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing or ill-typed field.
    pub fn from_part_line(line: &str) -> Result<Outcome, String> {
        let j = Json::parse(line)?;
        let field = |k: &str| j.get(k).ok_or(format!("part line has no {k}"));
        let num = |v: &Json| v.as_f64().ok_or("not a number".to_string());
        let nums = |k: &str| -> Result<Vec<f64>, String> {
            field(k)?
                .as_arr()
                .ok_or(format!("{k}: not an array"))?
                .iter()
                .map(num)
                .collect()
        };
        let strings = |v: &Json| -> Result<Vec<String>, String> {
            v.as_arr()
                .ok_or("not an array")?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or("not a string".to_string())
                })
                .collect()
        };
        let values = |k: &str| -> Result<Vec<Value>, String> {
            field(k)?
                .as_arr()
                .ok_or(format!("{k}: not an array"))?
                .iter()
                .map(|v| match v.as_arr() {
                    Some([name, value, unit, note]) => Ok(Value::new(
                        name.as_str().ok_or("value name")?,
                        num(value)?,
                        unit.as_str().ok_or("value unit")?,
                        note.as_str().ok_or("value note")?,
                    )),
                    _ => Err(format!("{k}: malformed value {v:?}")),
                })
                .collect()
        };
        let traced = field("traced")?
            .as_arr()
            .ok_or("traced: not an array")?
            .iter()
            .map(|b| b.as_bool().ok_or("traced: not a bool".to_string()))
            .collect::<Result<_, _>>()?;
        let identity = field("identity")?
            .as_str()
            .ok_or("identity: not a string")?;
        Ok(Outcome {
            failures: Failures::from_json(field("failures")?)?,
            setup_s: num(field("setup_s")?)?,
            passes: Passes {
                wall: nums("wall")?,
                cpu: nums("cpu")?,
                traced,
                calib: nums("calib")?,
            },
            pass_name: field("pass_name")?.as_str().ok_or("pass_name")?.to_string(),
            latencies: nums("latencies")?,
            identity: u64::from_str_radix(identity, 16).map_err(|e| format!("identity: {e}"))?,
            detail: values("detail")?,
            per_layer: values("per_layer")?,
            notes: strings(field("notes")?)?,
            peak_rss_mb: num(field("peak_rss_mb")?)?,
            tracer: Tracer::default(),
        })
    }
}

/// The result line: `correct`, `attempted`, `failed` and the run's
/// metrics (end-to-end when untraced, per-layer when traced).
pub fn result_line(report: &Report, traced: bool) -> String {
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name,
                fmt_f64(v.value),
                v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.failed() == 0,
        report.failures.attempted(),
        report.failures.failed(),
        body.join(", ")
    )
}

/// Puts `values` in declared order, checking that they are exactly the
/// declared metrics, each finite and in its declared unit.
///
/// # Errors
///
/// The first missing, extra, mis-unit or non-finite metric.
pub fn check_declared(
    values: &mut Vec<Value>,
    declared: &[catalog::MetricDecl],
) -> Result<(), String> {
    let mut ordered = Vec::with_capacity(declared.len());
    for d in declared {
        let at = values
            .iter()
            .position(|v| v.name == d.name)
            .ok_or_else(|| format!("{} was not measured", d.name))?;
        ordered.push(values.remove(at));
    }
    if let Some(extra) = values.first() {
        return Err(format!("{} is not declared", extra.name));
    }
    *values = ordered;
    for (v, d) in values.iter().zip(declared) {
        if v.unit != d.unit {
            return Err(format!(
                "{}: unit {} but declared {}",
                v.name, v.unit, d.unit
            ));
        }
        if !v.value.is_finite() {
            return Err(format!("{}: non-finite value {}", v.name, v.value));
        }
    }
    Ok(())
}
