//! Engine instrumentation: the [`Probe`] trait, the free [`NoProbe`]
//! default, and the metrics-backed [`EngineProbe`].
//!
//! A probe is a *passive observer* threaded through
//! [`Engine::run_probed`](crate::Engine::run_probed): the engine calls
//! its hooks at fixed points on the hot path, and the probe records
//! whatever it likes — but it can never feed anything back. Probes see
//! only host-side diagnostics (stall magnitudes, queue depths,
//! prefetcher gauges); they hold no simulated state and receive no
//! mutable access to any, so a probed run and an unprobed run of the
//! same trace produce identical [`RunReport`](crate::RunReport)s. That
//! equivalence is enforced by `tests/probe_equivalence.rs`.
//!
//! # Cost contract
//!
//! Every hook call in the engine is guarded by `if Pr::ENABLED`, where
//! [`Probe::ENABLED`] is an associated *constant*. For [`NoProbe`]
//! (`ENABLED = false`) the branch folds away at monomorphization time:
//! the unprobed engine compiles to the same loop it had before probes
//! existed. `tests/zero_alloc.rs` proves the default path allocation-
//! free, and perfbench's `probe_overhead_pct` row tracks the measured
//! throughput delta.
//!
//! Implementations must uphold the other half of the contract: hooks
//! are called per fetch/stall on the hottest loop in the repository, so
//! they must not allocate, lock, or block in steady state.
//! [`EngineProbe`] records into preallocated `pif-obs` histograms
//! (relaxed atomics only, after the first sample of each prefetcher
//! gauge name).

use pif_obs::{Histogram, Registry};

/// Why the fetch stage stalled: the miss classification at the point
/// the timing model is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// A demand miss with no prefetch in flight: the full L2/memory
    /// latency is exposed.
    DemandMiss,
    /// A demand access overtook an in-flight prefetch (a *late*
    /// prefetch): only the remaining latency is exposed.
    LatePrefetch,
}

/// How often (in retirements) the engine samples prefetcher gauges via
/// [`crate::Prefetcher::gauges`] when a probe is enabled.
pub const GAUGE_SAMPLE_PERIOD: u64 = 1024;

/// Observer hooks on the engine's run path.
///
/// # Contract
///
/// * Hooks observe; they must not affect simulation. The engine
///   guarantees probes identical inputs for identical traces, so any
///   probe-vs-[`NoProbe`] divergence in a `RunReport` is an engine bug.
/// * Hooks run per fetch event; implementations must be allocation-free
///   and lock-free in steady state (amortized growth on first use is
///   acceptable, as elsewhere in the engine).
/// * When [`Probe::ENABLED`] is `false` no hook is ever called, and the
///   engine's instrumentation compiles to nothing.
pub trait Probe {
    /// Whether the engine should call this probe's hooks at all. A
    /// `const` so the `if Pr::ENABLED` guards fold at compile time.
    const ENABLED: bool;

    /// A fetch stalled for `cycles` (the amount charged to the timing
    /// model), broken down by [`StallKind`].
    fn fetch_stall(&mut self, kind: StallKind, cycles: u64);

    /// Prefetch-queue occupancy, sampled once per fetch access (before
    /// the demand lookup).
    fn queue_depth(&mut self, depth: usize);

    /// A named prefetcher gauge (e.g. SAB residency), sampled every
    /// [`GAUGE_SAMPLE_PERIOD`] retirements from
    /// [`crate::Prefetcher::gauges`]. `name` is a static identifier
    /// (`[a-z0-9_]+`); one call may emit the same name several times
    /// (e.g. once per SAB), each an independent sample.
    fn prefetcher_gauge(&mut self, name: &'static str, value: u64);
}

/// A borrowed probe observes for its owner (how [`crate::Engine::run_probed`]
/// attaches a caller's probe).
impl<T: Probe + ?Sized> Probe for &mut T {
    const ENABLED: bool = T::ENABLED;

    #[inline]
    fn fetch_stall(&mut self, kind: StallKind, cycles: u64) {
        (**self).fetch_stall(kind, cycles);
    }

    #[inline]
    fn queue_depth(&mut self, depth: usize) {
        (**self).queue_depth(depth);
    }

    #[inline]
    fn prefetcher_gauge(&mut self, name: &'static str, value: u64) {
        (**self).prefetcher_gauge(name, value);
    }
}

/// The default probe: compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn fetch_stall(&mut self, _kind: StallKind, _cycles: u64) {}

    #[inline(always)]
    fn queue_depth(&mut self, _depth: usize) {}

    #[inline(always)]
    fn prefetcher_gauge(&mut self, _name: &'static str, _value: u64) {}
}

/// A [`Probe`] recording into `pif-obs` histograms:
///
/// * `pif_engine_demand_stall_cycles` — full-latency demand-miss stalls
/// * `pif_engine_late_prefetch_stall_cycles` — residual stalls behind
///   late prefetches
/// * `pif_engine_prefetch_queue_depth` — queue occupancy per fetch
/// * `pif_engine_<gauge>` — one histogram per prefetcher gauge name
///   (e.g. `pif_engine_sab_active_streams`, `pif_engine_sab_window_regions`)
///
/// The registry is shared (cloneable), so a caller can hand in the
/// daemon's registry or read [`EngineProbe::registry`] after the run.
#[derive(Debug)]
pub struct EngineProbe {
    registry: Registry,
    demand_stall: Histogram,
    late_stall: Histogram,
    queue_depth: Histogram,
    /// Lazily-registered per-name gauge histograms. A short linear scan
    /// keyed on `&'static str` identity-or-equality — gauge name sets
    /// are tiny (a handful per prefetcher).
    gauges: Vec<(&'static str, Histogram)>,
}

impl EngineProbe {
    /// Creates a probe with a fresh registry.
    pub fn new() -> Self {
        Self::with_registry(Registry::new())
    }

    /// Creates a probe registering its metrics in `registry`.
    pub fn with_registry(registry: Registry) -> Self {
        let demand_stall = registry.histogram(
            "pif_engine_demand_stall_cycles",
            "Fetch stall cycles charged for demand misses (full latency).",
        );
        let late_stall = registry.histogram(
            "pif_engine_late_prefetch_stall_cycles",
            "Residual fetch stall cycles behind late (in-flight) prefetches.",
        );
        let queue_depth = registry.histogram(
            "pif_engine_prefetch_queue_depth",
            "Prefetch-queue occupancy sampled at each fetch access.",
        );
        EngineProbe {
            registry,
            demand_stall,
            late_stall,
            queue_depth,
            gauges: Vec::new(),
        }
    }

    /// The registry this probe records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl Default for EngineProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe for EngineProbe {
    const ENABLED: bool = true;

    #[inline]
    fn fetch_stall(&mut self, kind: StallKind, cycles: u64) {
        match kind {
            StallKind::DemandMiss => self.demand_stall.record(cycles),
            StallKind::LatePrefetch => self.late_stall.record(cycles),
        }
    }

    #[inline]
    fn queue_depth(&mut self, depth: usize) {
        self.queue_depth.record(depth as u64);
    }

    fn prefetcher_gauge(&mut self, name: &'static str, value: u64) {
        if let Some((_, h)) = self.gauges.iter().find(|(n, _)| *n == name) {
            h.record(value);
            return;
        }
        let mut metric = String::with_capacity("pif_engine_".len() + name.len());
        metric.push_str("pif_engine_");
        metric.push_str(name);
        let h = self
            .registry
            .histogram(&metric, "Prefetcher gauge sampled during the run.");
        h.record(value);
        self.gauges.push((name, h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_disabled_at_compile_time() {
        const { assert!(!NoProbe::ENABLED) };
        const { assert!(EngineProbe::ENABLED) };
    }

    #[test]
    fn engine_probe_routes_stall_kinds() {
        let mut p = EngineProbe::new();
        p.fetch_stall(StallKind::DemandMiss, 20);
        p.fetch_stall(StallKind::DemandMiss, 20);
        p.fetch_stall(StallKind::LatePrefetch, 3);
        p.queue_depth(5);
        let snaps = p.registry().snapshot();
        let find = |name: &str| {
            snaps
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        match &find("pif_engine_demand_stall_cycles").value {
            pif_obs::MetricValue::Histogram(h) => assert_eq!(h.count(), 2),
            other => panic!("unexpected {other:?}"),
        }
        match &find("pif_engine_late_prefetch_stall_cycles").value {
            pif_obs::MetricValue::Histogram(h) => {
                assert_eq!(h.count(), 1);
                assert_eq!(h.sum, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prefetcher_gauges_register_lazily_and_reuse() {
        let mut p = EngineProbe::new();
        p.prefetcher_gauge("sab_active_streams", 4);
        p.prefetcher_gauge("sab_active_streams", 6);
        p.prefetcher_gauge("sab_window_regions", 1);
        let snaps = p.registry().snapshot();
        let names: Vec<_> = snaps.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"pif_engine_sab_active_streams"));
        assert!(names.contains(&"pif_engine_sab_window_regions"));
        let active = snaps
            .iter()
            .find(|m| m.name == "pif_engine_sab_active_streams")
            .unwrap();
        match &active.value {
            pif_obs::MetricValue::Histogram(h) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.sum, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
