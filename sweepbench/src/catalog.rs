//! The benchmark's declared surface: workload names, end-to-end metrics
//! with their regression bounds, and per-layer metrics.
//!
//! `BENCHMARK.json` is generated from these tables (`sweepbench
//! --manifest`) and a test asserts the committed file still matches, so
//! the metrics a run emits and the metrics the manifest declares cannot
//! drift apart.

/// Whether a larger or a smaller value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughputs, hit rates).
    Higher,
    /// Smaller is better (times, sizes, miss rates).
    Lower,
}

impl Better {
    /// The manifest token.
    pub fn token(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Parses a manifest token.
    pub fn parse(token: &str) -> Option<Better> {
        match token {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDecl {
    /// Metric name as printed and as keyed in the result line.
    pub name: &'static str,
    /// Unit token.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The four workloads and why each was chosen (one line each).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sweep-engine",
        "fig10 sweep, 6 workloads x 5 prefetchers: generator, engine and every prefetcher do the work",
    ),
    (
        "sweep-analysis",
        "fig9-history then fig3: PIF analyzer and region analysis on memoized traces, no engine",
    ),
    (
        "trace-replay",
        "OLTP-DB2 and Web-Apache encoded to v2 files, replayed exhaustively and sampled by seeking",
    ),
    (
        "pifd-warm",
        "in-process pifd, one closed-loop client replaying fig10, fig9-history and table1 from a warm cache",
    ),
];

/// End-to-end metrics every workload reports on an untraced run.
///
/// Host time only: the simulated results differ by workload and seed,
/// so they are printed per workload (see [`crate::Report::detail`])
/// and checked for byte identity instead of bounded here.
///
/// The times are scaled to the reference host's speed by calibration
/// rounds run between passes (see [`crate::host::Calibrator`]). Every
/// bound is the largest the manifest allows, 0.25: the shared 2-core
/// host's speed drifts by up to 2x over minutes, and what scaling does
/// not remove (time spent waiting for a core) would make a tighter
/// bound reject changes for the host's noise.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", 0.25),
    e2e("wall_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// Per-layer metrics every workload reports on a traced run.
pub const PER_LAYER: [MetricDecl; 43] = {
    use Better::{Higher, Lower};
    [
        layer("workloads.generate_s", "s", Lower),
        layer("workloads.stream_drain_s", "s", Lower),
        layer("trace.encode_minstr_per_s", "Minstr/s", Higher),
        layer("trace.decode_minstr_per_s", "Minstr/s", Higher),
        layer("trace.seek_us", "us", Lower),
        layer("trace.bytes_per_instr", "B/instr", Lower),
        layer("trace.hash_minstr_per_s", "Minstr/s", Higher),
        layer("sim.frontend_minstr_per_s", "Minstr/s", Higher),
        layer("sim.engine_none_minstr_per_s", "Minstr/s", Higher),
        layer("sim.engine_perfect_minstr_per_s", "Minstr/s", Higher),
        layer("sim.base_cpi", "cycles/instr", Lower),
        layer("sim.fetch_stall_cpi.none", "cycles/instr", Lower),
        layer("sim.fetch_stall_cpi.next-line", "cycles/instr", Lower),
        layer("sim.fetch_stall_cpi.tifs-unbounded", "cycles/instr", Lower),
        layer("sim.fetch_stall_cpi.pif", "cycles/instr", Lower),
        layer("sim.fetch_stall_cpi.perfect", "cycles/instr", Lower),
        layer("sim.mispredict_cpi", "cycles/instr", Lower),
        layer("sim.l1i_misses_per_kinstr", "misses/kinstr", Lower),
        layer("core.engine_pif_minstr_per_s", "Minstr/s", Higher),
        layer("core.history_append_ns", "ns", Lower),
        layer("core.index_lookup_ns", "ns", Lower),
        layer("core.sab_advance_ns", "ns", Lower),
        layer("core.analyze_minstr_per_s", "Minstr/s", Higher),
        layer("core.regions_minstr_per_s", "Minstr/s", Higher),
        layer("core.index_hit_rate", "ratio", Higher),
        layer("core.pif_prefetch_accuracy", "ratio", Higher),
        layer("core.pif_miss_coverage", "ratio", Higher),
        layer("baselines.engine_tifs_minstr_per_s", "Minstr/s", Higher),
        layer("baselines.engine_nextline_minstr_per_s", "Minstr/s", Higher),
        layer("baselines.tifs_prefetch_accuracy", "ratio", Higher),
        layer("lab.cell_exec_ms_p50", "ms", Lower),
        layer("lab.cell_exec_ms_max", "ms", Lower),
        layer("lab.pool_busy_frac", "ratio", Higher),
        layer("lab.stolen_jobs", "count", Lower),
        layer("lab.sampled_fanout_minstr_per_s", "Minstr/s", Higher),
        layer("lab.cache_lookup_us", "us", Lower),
        layer("lab.cache_store_us", "us", Lower),
        layer("lab.cached_cells", "count", Higher),
        layer("lab.executed_cells", "count", Lower),
        layer("lab.queue_wait_ms", "ms", Lower),
        layer("lab.service_exec_ms", "ms", Lower),
        layer("lab.protocol_parse_us", "us", Lower),
        layer("bench.tracing_overhead_frac", "ratio", Lower),
    ]
};

/// Seconds one run measures (the default `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The benchmark's directories (`paths` in the manifest).
pub const PATHS: [&str; 1] = ["sweepbench"];

/// How to invoke the benchmark from the repository root.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "sweepbench/Cargo.toml",
    "--bin",
    "sweepbench",
    "--",
];
