//! Generator parameters: the statistical knobs behind a workload profile.

use pif_types::ConfigError;

/// Parameters for synthesizing a server-workload instruction trace.
///
/// The defaults describe a generic mid-sized server workload; the
/// [`crate::WorkloadProfile`]s override them per workload class.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorParams {
    /// Deterministic seed: the same parameters always yield the same trace.
    pub seed: u64,

    // --- Code image -----------------------------------------------------
    /// Number of application functions in the binary.
    pub num_functions: usize,
    /// Minimum function body size in instructions.
    pub fn_min_instrs: u32,
    /// Maximum function body size in instructions.
    pub fn_max_instrs: u32,
    /// Zipf skew for callee popularity (higher = hotter hot set).
    pub zipf_s: f64,

    // --- Control flow ---------------------------------------------------
    /// Probability per instruction slot of a call site.
    pub call_density: f64,
    /// Fraction of call sites that are indirect (data-dependent callee).
    pub indirect_fraction: f64,
    /// Maximum dynamic call depth.
    pub max_call_depth: usize,
    /// Probability per instruction slot of a conditional forward skip.
    pub skip_density: f64,
    /// Probability that a conditional skip is taken on a given execution
    /// (the *bias*; rare-path probability is `1 - skip_bias` when biased
    /// toward taken).
    pub skip_bias: f64,
    /// Fraction of skips that are *data-dependent* (outcome near 50/50,
    /// defeating the branch predictor — the paper's §2.2 noise source).
    pub noisy_skip_fraction: f64,
    /// Probability per instruction slot of a loop back-edge.
    pub loop_density: f64,
    /// Probability that a loop invocation's trip count deviates from the
    /// site's stable base count (data-dependent scans).
    pub loop_trip_jitter: f64,
    /// Probability that an indirect call takes an alternate (non-primary)
    /// target on a given execution.
    pub indirect_alt_prob: f64,
    /// Mean loop trip count (geometric distribution).
    pub loop_mean_iters: f64,
    /// Maximum loop body length in instructions.
    pub loop_max_body: u32,

    // --- Transactions ---------------------------------------------------
    /// Number of distinct transaction types (deterministic call scripts).
    pub num_transaction_types: usize,
    /// Root function calls per transaction script.
    pub transaction_length: usize,

    // --- Interrupts (trap level 1) ---------------------------------------
    /// Mean instructions between spontaneous hardware interrupts
    /// (0 disables interrupts).
    pub interrupt_mean_interval: u64,
    /// Number of distinct interrupt handler routines.
    pub num_handlers: usize,
    /// Handler body size range in instructions.
    pub handler_min_instrs: u32,
    /// Maximum handler body size.
    pub handler_max_instrs: u32,
}

impl Default for GeneratorParams {
    fn default() -> Self {
        GeneratorParams {
            seed: 0xc0ffee,
            num_functions: 1200,
            fn_min_instrs: 24,
            fn_max_instrs: 640,
            zipf_s: 0.9,
            call_density: 0.02,
            indirect_fraction: 0.08,
            max_call_depth: 8,
            skip_density: 0.03,
            skip_bias: 0.9,
            noisy_skip_fraction: 0.08,
            loop_density: 0.008,
            loop_trip_jitter: 0.10,
            indirect_alt_prob: 0.10,
            loop_mean_iters: 6.0,
            loop_max_body: 48,
            num_transaction_types: 8,
            transaction_length: 24,
            interrupt_mean_interval: 4_000,
            num_handlers: 6,
            handler_min_instrs: 24,
            handler_max_instrs: 160,
        }
    }
}

impl GeneratorParams {
    /// Approximate code footprint in bytes (4-byte instructions).
    pub fn approx_footprint_bytes(&self) -> u64 {
        let avg = u64::from(self.fn_min_instrs + self.fn_max_instrs) / 2;
        self.num_functions as u64 * avg * 4
    }

    /// Scales the footprint (function count) by `factor`, keeping all
    /// behavioural knobs. Used to produce laptop-scale test traces with
    /// the same character as the full profile.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.num_functions = ((self.num_functions as f64 * factor) as usize).max(16);
        self.num_transaction_types = self.num_transaction_types.clamp(1, self.num_functions);
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_functions == 0 {
            return Err(ConfigError::new("num_functions must be non-zero"));
        }
        if self.fn_min_instrs == 0 || self.fn_min_instrs > self.fn_max_instrs {
            return Err(ConfigError::new("invalid function size range"));
        }
        for (name, p) in [
            ("call_density", self.call_density),
            ("indirect_fraction", self.indirect_fraction),
            ("skip_density", self.skip_density),
            ("skip_bias", self.skip_bias),
            ("noisy_skip_fraction", self.noisy_skip_fraction),
            ("loop_density", self.loop_density),
            ("loop_trip_jitter", self.loop_trip_jitter),
            ("indirect_alt_prob", self.indirect_alt_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::new(format!(
                    "{name} must be in [0,1], got {p}"
                )));
            }
        }
        if self.num_transaction_types == 0 || self.transaction_length == 0 {
            return Err(ConfigError::new("transactions must be non-empty"));
        }
        if self.loop_mean_iters < 1.0 {
            return Err(ConfigError::new("loop_mean_iters must be >= 1"));
        }
        if self.num_handlers == 0 && self.interrupt_mean_interval > 0 {
            return Err(ConfigError::new("interrupts enabled but no handlers"));
        }
        if self.handler_min_instrs == 0 || self.handler_min_instrs > self.handler_max_instrs {
            return Err(ConfigError::new("invalid handler size range"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(GeneratorParams::default().validate().is_ok());
    }

    #[test]
    fn footprint_is_multi_megabyte_by_default() {
        let p = GeneratorParams::default();
        assert!(p.approx_footprint_bytes() > 1024 * 1024);
    }

    #[test]
    fn scaled_shrinks_function_count() {
        let p = GeneratorParams::default().scaled(0.1);
        assert_eq!(p.num_functions, 120);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn scaled_never_underflows() {
        let p = GeneratorParams::default().scaled(0.000_001);
        assert!(p.num_functions >= 16);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn invalid_ranges_rejected() {
        let p = GeneratorParams {
            skip_bias: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        let p = GeneratorParams {
            fn_min_instrs: 100,
            fn_max_instrs: 10,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        let p = GeneratorParams {
            num_functions: 0,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        let p = GeneratorParams {
            loop_mean_iters: 0.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }
}
