//! Simulator configuration, defaulting to the paper's Table I parameters.

use pif_types::ConfigError;

/// L1 instruction cache geometry and latency (Table I: 64 KB, 2-way, 64 B
/// blocks, 2-cycle load-to-use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ICacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Load-to-use latency in cycles.
    pub latency_cycles: u64,
}

impl ICacheConfig {
    /// Table I configuration: 64 KB, 2-way, 2-cycle.
    pub const fn paper_default() -> Self {
        ICacheConfig {
            capacity_bytes: 64 * 1024,
            ways: 2,
            latency_cycles: 2,
        }
    }

    /// Returns the configuration with a new total capacity — a
    /// config-sweep setter for cache-geometry axes.
    #[must_use]
    pub const fn with_capacity_bytes(mut self, capacity_bytes: usize) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }

    /// Returns the configuration with a new associativity.
    #[must_use]
    pub const fn with_ways(mut self, ways: usize) -> Self {
        self.ways = ways;
        self
    }

    /// Number of blocks the cache holds.
    pub const fn blocks(&self) -> usize {
        self.capacity_bytes / pif_types::BLOCK_SIZE
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        self.blocks() / self.ways
    }

    /// Validates that the geometry is a power-of-two set count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if capacity/ways are zero or the set count is
    /// not a power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ways == 0 || self.capacity_bytes == 0 {
            return Err(ConfigError::new("cache capacity and ways must be non-zero"));
        }
        if !self.blocks().is_multiple_of(self.ways) {
            return Err(ConfigError::new(
                "cache blocks must divide evenly into ways",
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(ConfigError::new(format!(
                "cache set count {} is not a power of two",
                self.sets()
            )));
        }
        Ok(())
    }
}

impl Default for ICacheConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Unified L2 model for instruction blocks (Table I: 512 KB per core × 16
/// cores NUCA, 16-way, 15-cycle hit). We model the aggregate NUCA capacity
/// reachable by one core's instruction blocks, since the server workloads'
/// multi-megabyte code working sets largely reside on-chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Capacity in bytes devoted to instruction blocks.
    pub capacity_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles (load-to-use from L1 miss).
    pub hit_latency_cycles: u64,
    /// Main-memory latency in cycles for L2 misses (45 ns at 2 GHz = 90).
    pub memory_latency_cycles: u64,
    /// Treat the L2 as checkpoint-warmed: the first touch of a block not
    /// yet seen in this run installs it at **hit** latency instead of
    /// memory latency. This emulates the paper's SimFlex methodology
    /// (§5), where measurement resumes from checkpoints that store warmed
    /// cache state — an 8 MB NUCA cannot be re-warmed inside a sample's
    /// warmup window, while the steady-state exhaustive L2 instruction
    /// miss ratio is a few percent, so the assumption is near-exact.
    /// Used by `sampling`; exhaustive runs keep the cold default.
    pub assume_warm: bool,
}

impl L2Config {
    /// Table I-derived configuration: 8 MB aggregate NUCA, 16-way, 15-cycle
    /// hit, 90-cycle memory.
    pub const fn paper_default() -> Self {
        L2Config {
            capacity_bytes: 8 * 1024 * 1024,
            ways: 16,
            hit_latency_cycles: 15,
            memory_latency_cycles: 90,
            assume_warm: false,
        }
    }

    /// Returns the configuration with checkpoint-warmed semantics (see
    /// [`L2Config::assume_warm`]).
    #[must_use]
    pub const fn with_assume_warm(mut self, assume_warm: bool) -> Self {
        self.assume_warm = assume_warm;
        self
    }
}

impl Default for L2Config {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Front-end (fetch + branch prediction) model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// gshare table entries (Table I: 16K).
    pub gshare_entries: usize,
    /// bimodal table entries (Table I: 16K).
    pub bimodal_entries: usize,
    /// chooser table entries.
    pub chooser_entries: usize,
    /// BTB entries for indirect-branch target prediction.
    pub btb_entries: usize,
    /// Return address stack depth.
    pub ras_depth: usize,
    /// Maximum number of *blocks* fetched down a wrong path before the
    /// misprediction resolves and the pipeline squashes (paper §2.2: the
    /// wrong-path depth is data-dependent and effectively arbitrary; we
    /// draw uniformly from `1..=wrong_path_max_blocks`).
    pub wrong_path_max_blocks: usize,
    /// Number of instructions between an instruction's fetch and its
    /// retirement as seen by the stream observation points (ROB depth,
    /// Table I: 96 entries).
    pub retire_delay_instrs: usize,
    /// Seed for the deterministic wrong-path depth generator.
    pub seed: u64,
}

impl FrontendConfig {
    /// Table I-derived configuration.
    pub const fn paper_default() -> Self {
        FrontendConfig {
            gshare_entries: 16 * 1024,
            bimodal_entries: 16 * 1024,
            chooser_entries: 16 * 1024,
            btb_entries: 4 * 1024,
            ras_depth: 32,
            wrong_path_max_blocks: 6,
            retire_delay_instrs: 96,
            seed: 0x5eed_f00d,
        }
    }
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Fetch-stall timing model parameters (see [`crate::timing`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Dispatch/retire width (Table I: 3-wide).
    pub dispatch_width: u64,
    /// Fraction of an instruction-fetch miss's latency that is exposed as a
    /// stall (the ROB hides a little of it; front-end stalls are mostly
    /// exposed for server workloads — paper §1 reports >40% of time).
    pub fetch_stall_exposure: f64,
    /// Branch misprediction pipeline-refill penalty in cycles.
    pub mispredict_penalty_cycles: u64,
    /// Base CPI contribution per instruction from back-end (data) stalls,
    /// identical across prefetcher configurations.
    pub backend_cpi: f64,
}

impl TimingConfig {
    /// Defaults calibrated so that, on the synthetic server workloads, the
    /// no-prefetch baseline spends roughly 40% of its cycles on
    /// instruction-fetch stalls, matching the server-workload
    /// characterizations the paper cites.
    pub const fn paper_default() -> Self {
        TimingConfig {
            dispatch_width: 3,
            fetch_stall_exposure: 0.9,
            mispredict_penalty_cycles: 12,
            backend_cpi: 0.45,
        }
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Complete engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineConfig {
    /// L1 instruction cache.
    pub icache: ICacheConfig,
    /// L2/memory backing model.
    pub l2: L2Config,
    /// Front-end model.
    pub frontend: FrontendConfig,
    /// Timing model.
    pub timing: TimingConfig,
    /// Latency, in fetch-block events, for an issued prefetch to land in the
    /// L1-I (models L2 round-trip while the core keeps fetching).
    pub prefetch_latency_events: u64,
}

impl EngineConfig {
    /// The paper's Table I configuration.
    pub fn paper_default() -> Self {
        EngineConfig {
            icache: ICacheConfig::paper_default(),
            l2: L2Config::paper_default(),
            frontend: FrontendConfig::paper_default(),
            timing: TimingConfig::paper_default(),
            prefetch_latency_events: 8,
        }
    }

    /// Returns the configuration with a new L1-I geometry — a config-sweep
    /// setter used by parameter-sweep axes.
    #[must_use]
    pub const fn with_icache(mut self, icache: ICacheConfig) -> Self {
        self.icache = icache;
        self
    }

    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any component is invalid.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.icache.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_icache_geometry() {
        let c = ICacheConfig::paper_default();
        assert_eq!(c.blocks(), 1024);
        assert_eq!(c.sets(), 512);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bad_geometry_rejected() {
        let c = ICacheConfig {
            capacity_bytes: 0,
            ways: 2,
            latency_cycles: 2,
        };
        assert!(c.validate().is_err());
        let c = ICacheConfig {
            capacity_bytes: 48 * 1024,
            ways: 2,
            latency_cycles: 2,
        };
        assert!(c.validate().is_err(), "384 sets is not a power of two");
    }

    #[test]
    fn engine_default_is_paper_default() {
        assert_eq!(
            EngineConfig::default().icache,
            ICacheConfig::paper_default()
        );
        assert!(EngineConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn timing_defaults_sane() {
        let t = TimingConfig::paper_default();
        assert!(t.fetch_stall_exposure > 0.0 && t.fetch_stall_exposure <= 1.0);
        assert!(t.dispatch_width >= 1);
    }
}
