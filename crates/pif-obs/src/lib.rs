//! Observability primitives for the PIF reproduction: metrics, logging,
//! and exposition — with zero dependencies.
//!
//! Three pieces, all hand-rolled (like `pif_lab::json`) so nothing new
//! has to build offline:
//!
//! * [`metrics`] — an atomic metric registry. [`Counter`], [`Gauge`],
//!   and [`Histogram`] are cloneable handles over shared atomics;
//!   recording a sample is one or two relaxed atomic ops with no locks
//!   and no allocation. Histograms use fixed power-of-two (log2)
//!   buckets, preallocated at registration, mirroring
//!   `pif_sim::stats::Log2Histogram` bucketing so engine-side and
//!   service-side distributions line up.
//! * [`expose`] — renders a [`Registry`] snapshot as Prometheus text
//!   exposition or as a `pif-obs/v1` JSON document, and validates
//!   exposition text (used by CI when scraping the daemon).
//! * [`log`] — a leveled structured logger writing `key=value` lines to
//!   stderr, filtered by the `PIF_LOG` environment variable
//!   (`PIF_LOG=debug` or `PIF_LOG=warn,pifd=trace`). Disabled targets
//!   cost one relaxed atomic load and a short scan.
//!
//! Nothing in this crate touches simulated state: metrics and logs are
//! about the *host* (wall-clock latencies, queue depths, cache traffic),
//! and must never leak into a `SweepReport` or any other byte-identical
//! artifact. Callers that honor that contract (the engine's `Probe`
//! layer, `pif_lab::service`) keep every golden stable with
//! observability enabled.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expose;
pub mod log;
pub mod metrics;

pub use expose::{escape_json, render_json, render_prometheus, validate_prometheus};
pub use log::Level;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricSnapshot, MetricValue,
    Registry, HIST_BUCKETS,
};
