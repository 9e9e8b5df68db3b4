//! PIF configuration.

use pif_types::{ConfigError, RegionGeometry};

/// Configuration of the PIF hardware structures, defaulting to the paper's
/// chosen design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PifConfig {
    /// Spatial region geometry (paper default: 2 preceding, 5 succeeding —
    /// 8 blocks, Fig. 8).
    pub geometry: RegionGeometry,
    /// Temporal compactor capacity: how many most-recent region records
    /// are checked for loop-repetition filtering (§4.1, "a small number").
    pub temporal_entries: usize,
    /// History buffer capacity in region records per trap level (§5.4:
    /// "little justification for growing temporal stream storage beyond
    /// 32K regions").
    pub history_capacity: usize,
    /// Index table entries (trigger block → history position).
    pub index_entries: usize,
    /// Index table associativity.
    pub index_ways: usize,
    /// Number of stream address buffers (§4.3 footnote: four SABs).
    pub sab_count: usize,
    /// SAB window: consecutive regions tracked per stream (§4.3 footnote:
    /// seven regions).
    pub sab_window: usize,
    /// Record streams separately per processor trap level (§2.3). The
    /// paper's design; disable to quantify how much interrupt handlers
    /// fragment a unified stream (the Fig. 2 Retire-vs-RetireSep gap).
    pub separate_trap_levels: bool,
}

impl PifConfig {
    /// The paper's design point.
    pub fn paper_default() -> Self {
        PifConfig {
            geometry: RegionGeometry::paper_default(),
            temporal_entries: 4,
            history_capacity: 32 * 1024,
            index_entries: 8 * 1024,
            index_ways: 4,
            sab_count: 4,
            sab_window: 7,
            separate_trap_levels: true,
        }
    }

    /// Returns the configuration with a new history-buffer capacity (in
    /// region records per trap level) — a config-sweep setter for the
    /// Fig. 9 history axis.
    #[must_use]
    pub const fn with_history_capacity(mut self, history_capacity: usize) -> Self {
        self.history_capacity = history_capacity;
        self
    }

    /// Returns the configuration with a new index-table entry count.
    #[must_use]
    pub const fn with_index_entries(mut self, index_entries: usize) -> Self {
        self.index_entries = index_entries;
        self
    }

    /// Returns the configuration with a new SAB-pool size (stream depth).
    #[must_use]
    pub const fn with_sab_count(mut self, sab_count: usize) -> Self {
        self.sab_count = sab_count;
        self
    }

    /// Returns the configuration with a new SAB stream-window length
    /// (consecutive regions tracked per stream).
    #[must_use]
    pub const fn with_sab_window(mut self, sab_window: usize) -> Self {
        self.sab_window = sab_window;
        self
    }

    /// Returns the configuration with a new spatial-region geometry.
    #[must_use]
    pub const fn with_geometry(mut self, geometry: RegionGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on zero-sized structures or an index
    /// geometry whose set count is not a power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.temporal_entries == 0 {
            return Err(ConfigError::new("temporal compactor needs >= 1 entry"));
        }
        if self.history_capacity == 0 {
            return Err(ConfigError::new("history buffer needs >= 1 record"));
        }
        if self.sab_count == 0 || self.sab_window == 0 {
            return Err(ConfigError::new("SAB pool and window must be non-zero"));
        }
        if self.index_ways == 0
            || !self.index_entries.is_multiple_of(self.index_ways)
            || !(self.index_entries / self.index_ways).is_power_of_two()
        {
            return Err(ConfigError::new("index table geometry invalid"));
        }
        Ok(())
    }

    /// Approximate storage cost in bytes: history records (~5 B each:
    /// 33-bit trigger + 7-bit vector) plus index entries (~7 B each), per
    /// trap level — matching the paper's storage discussion (§5.4).
    pub fn approx_storage_bytes(&self) -> usize {
        let per_level = self.history_capacity * 5 + self.index_entries * 7;
        per_level * pif_types::TrapLevel::COUNT
    }
}

impl Default for PifConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        assert!(PifConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn paper_default_matches_published_design_point() {
        let c = PifConfig::paper_default();
        assert_eq!(c.geometry.total_blocks(), 8);
        assert_eq!(c.history_capacity, 32 * 1024);
        assert_eq!(c.sab_count, 4);
        assert_eq!(c.sab_window, 7);
        assert!(c.separate_trap_levels);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = PifConfig::paper_default();
        c.temporal_entries = 0;
        assert!(c.validate().is_err());

        let mut c = PifConfig::paper_default();
        c.history_capacity = 0;
        assert!(c.validate().is_err());

        let mut c = PifConfig::paper_default();
        c.sab_window = 0;
        assert!(c.validate().is_err());

        let mut c = PifConfig::paper_default();
        c.index_entries = 3000; // 750 sets: not a power of two
        assert!(c.validate().is_err());
    }

    #[test]
    fn storage_estimate_is_plausible() {
        // 32K regions x ~5B x 2 levels + index: a few hundred KB, in line
        // with the paper's "considerable chip real-estate" discussion.
        let bytes = PifConfig::paper_default().approx_storage_bytes();
        assert!(bytes > 100 * 1024 && bytes < 2 * 1024 * 1024);
    }
}
