//! Trace container and summary statistics.

use pif_types::{RetiredInstr, TrapLevel};

/// A named retire-order instruction trace.
///
/// Implements `AsRef<[RetiredInstr]>`, so it plugs directly into
/// `pif_sim::Engine::run`.
///
/// # Example
///
/// ```
/// use pif_workloads::WorkloadProfile;
///
/// let trace = WorkloadProfile::dss_qry2().scaled(0.05).generate(10_000);
/// assert_eq!(trace.name(), "DSS-Qry2");
/// assert_eq!(trace.len(), 10_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    instrs: Vec<RetiredInstr>,
}

impl Trace {
    /// Wraps a record vector as a named trace.
    pub fn new(name: impl Into<String>, instrs: Vec<RetiredInstr>) -> Self {
        Trace {
            name: name.into(),
            instrs,
        }
    }

    /// Workload name (e.g. `"OLTP-DB2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The retired instructions.
    pub fn instrs(&self) -> &[RetiredInstr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the trace contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Computes summary statistics (O(n), allocates a block set).
    pub fn stats(&self) -> TraceStats {
        let mut blocks: Vec<u64> = self.instrs.iter().map(|i| i.pc.block().number()).collect();
        blocks.sort_unstable();
        blocks.dedup();
        let branches = self.instrs.iter().filter(|i| i.is_branch()).count() as u64;
        let tl1 = self
            .instrs
            .iter()
            .filter(|i| i.trap_level == TrapLevel::Tl1)
            .count() as u64;
        TraceStats {
            instructions: self.instrs.len() as u64,
            branches,
            tl1_instructions: tl1,
            footprint_blocks: blocks.len() as u64,
        }
    }
}

impl AsRef<[RetiredInstr]> for Trace {
    fn as_ref(&self) -> &[RetiredInstr] {
        &self.instrs
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a RetiredInstr;
    type IntoIter = std::slice::Iter<'a, RetiredInstr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total retired instructions.
    pub instructions: u64,
    /// Retired branch instructions.
    pub branches: u64,
    /// Instructions retired at trap level 1 (interrupt handlers).
    pub tl1_instructions: u64,
    /// Distinct 64 B instruction blocks touched.
    pub footprint_blocks: u64,
}

impl TraceStats {
    /// Code footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_blocks * pif_types::BLOCK_SIZE as u64
    }

    /// Fraction of instructions executed in interrupt handlers.
    pub fn tl1_fraction(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.tl1_instructions as f64 / self.instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_types::Address;

    #[test]
    fn stats_count_blocks_and_branches() {
        let instrs = vec![
            RetiredInstr::simple(Address::new(0), TrapLevel::Tl0),
            RetiredInstr::simple(Address::new(4), TrapLevel::Tl0),
            RetiredInstr::simple(Address::new(64), TrapLevel::Tl1),
        ];
        let t = Trace::new("test", instrs);
        let s = t.stats();
        assert_eq!(s.instructions, 3);
        assert_eq!(s.footprint_blocks, 2);
        assert_eq!(s.tl1_instructions, 1);
        assert!((s.tl1_fraction() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.footprint_bytes(), 128);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("empty", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.stats().tl1_fraction(), 0.0);
    }

    #[test]
    fn as_ref_and_iter() {
        let instrs = vec![RetiredInstr::simple(Address::new(0), TrapLevel::Tl0)];
        let t = Trace::new("x", instrs.clone());
        assert_eq!(t.as_ref(), &instrs[..]);
        assert_eq!((&t).into_iter().count(), 1);
    }
}
