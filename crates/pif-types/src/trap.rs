//! Processor trap levels.

use std::fmt;

/// SPARC-style processor trap level of a retired instruction.
///
/// The paper (§2.3) separates instruction streams by trap level so that
/// spontaneous hardware interrupt handlers do not fragment the application's
/// temporal streams. We model two levels, which is all the evaluation uses:
/// `Tl0` for ordinary application/OS execution and `Tl1` for hardware
/// interrupt handlers (e.g. network card interrupts, TLB misses).
///
/// # Example
///
/// ```
/// use pif_types::TrapLevel;
///
/// assert!(TrapLevel::Tl0.is_application());
/// assert!(TrapLevel::Tl1.is_interrupt());
/// assert_eq!(TrapLevel::Tl1.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TrapLevel {
    /// Trap level 0: ordinary application and system-call execution.
    #[default]
    Tl0,
    /// Trap level 1: hardware interrupt handler execution.
    Tl1,
}

impl TrapLevel {
    /// Number of distinct trap levels modeled.
    pub const COUNT: usize = 2;

    /// All trap levels, in ascending order.
    pub const ALL: [TrapLevel; Self::COUNT] = [TrapLevel::Tl0, TrapLevel::Tl1];

    /// Returns a dense index in `0..TrapLevel::COUNT`, suitable for array
    /// indexing (e.g. per-trap-level history buffers).
    pub const fn index(self) -> usize {
        match self {
            TrapLevel::Tl0 => 0,
            TrapLevel::Tl1 => 1,
        }
    }

    /// Returns the trap level with the given dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= TrapLevel::COUNT`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// True for ordinary application/OS execution (trap level 0).
    pub const fn is_application(self) -> bool {
        matches!(self, TrapLevel::Tl0)
    }

    /// True for hardware interrupt handler execution (trap level 1).
    pub const fn is_interrupt(self) -> bool {
        matches!(self, TrapLevel::Tl1)
    }
}

impl fmt::Display for TrapLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapLevel::Tl0 => f.write_str("TL0"),
            TrapLevel::Tl1 => f.write_str("TL1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_round_trip() {
        for (i, tl) in TrapLevel::ALL.iter().enumerate() {
            assert_eq!(tl.index(), i);
            assert_eq!(TrapLevel::from_index(i), *tl);
        }
    }

    #[test]
    #[should_panic]
    fn from_index_rejects_out_of_range() {
        let _ = TrapLevel::from_index(TrapLevel::COUNT);
    }

    #[test]
    fn classification_is_exclusive() {
        for tl in TrapLevel::ALL {
            assert_ne!(tl.is_application(), tl.is_interrupt());
        }
    }

    #[test]
    fn default_is_application_level() {
        assert_eq!(TrapLevel::default(), TrapLevel::Tl0);
    }

    #[test]
    fn display_names() {
        assert_eq!(TrapLevel::Tl0.to_string(), "TL0");
        assert_eq!(TrapLevel::Tl1.to_string(), "TL1");
    }
}
