//! Trace records: retired instructions and front-end fetch accesses.

use crate::{Address, TrapLevel};

/// Kind of control-flow instruction, for the front-end/branch-predictor
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional branch; the direction predictor guesses taken/not-taken.
    Conditional,
    /// Unconditional direct jump (target known at decode; no RAS effect).
    Direct,
    /// Direct call (target known at decode; pushes the return address).
    Call,
    /// Indirect call/jump through a register (target predicted by the BTB;
    /// pushes the return address).
    IndirectCall,
    /// Return from a function (target predicted by the return address
    /// stack).
    Return,
}

impl BranchKind {
    /// True if this branch pushes a return address onto the RAS.
    pub const fn pushes_return(self) -> bool {
        matches!(self, BranchKind::Call | BranchKind::IndirectCall)
    }
}

/// Control-flow metadata attached to a retired branch instruction.
///
/// The front-end model (`pif-sim`'s `frontend` module) replays the
/// retire-order trace and uses this metadata to decide, at every branch,
/// whether its branch predictor would have speculated down the wrong path —
/// which is what injects wrong-path noise into the fetch-access stream
/// (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// What kind of branch this is.
    pub kind: BranchKind,
    /// Whether the branch was actually taken on the correct path.
    /// Non-conditional kinds are always taken.
    pub taken: bool,
    /// The branch's taken-path target. For conditional/direct branches this
    /// is the static target; for indirect branches and returns it is the
    /// dynamic target actually taken this time.
    pub taken_target: Address,
    /// The fall-through address (PC + instruction size); where execution
    /// continues when the branch is not taken, and the return address
    /// pushed by calls. Used to synthesize wrong-path fetch sequences.
    pub fall_through: Address,
}

impl BranchInfo {
    /// The address control actually transferred to on the correct path.
    pub const fn actual_target(&self) -> Address {
        if self.taken {
            self.taken_target
        } else {
            self.fall_through
        }
    }
}

/// One record of the correct-path, retire-order instruction stream.
///
/// This is the stream PIF's compactor observes at the back-end of the core
/// (paper §4.1) and the ground truth from which the front-end model derives
/// the speculative fetch-access stream.
///
/// # Example
///
/// ```
/// use pif_types::{Address, RetiredInstr, TrapLevel};
///
/// let instr = RetiredInstr::simple(Address::new(0x400), TrapLevel::Tl0);
/// assert!(instr.branch.is_none());
/// assert_eq!(instr.pc.block().number(), 0x10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredInstr {
    /// Program counter of the retired instruction.
    pub pc: Address,
    /// Trap level at which the instruction retired.
    pub trap_level: TrapLevel,
    /// Branch metadata if this instruction is a control transfer.
    pub branch: Option<BranchInfo>,
}

impl RetiredInstr {
    /// Creates a non-branch retired instruction.
    pub const fn simple(pc: Address, trap_level: TrapLevel) -> Self {
        RetiredInstr {
            pc,
            trap_level,
            branch: None,
        }
    }

    /// Creates a retired branch instruction.
    pub const fn branch(pc: Address, trap_level: TrapLevel, info: BranchInfo) -> Self {
        RetiredInstr {
            pc,
            trap_level,
            branch: Some(info),
        }
    }

    /// True if this instruction is any kind of control transfer.
    pub const fn is_branch(&self) -> bool {
        self.branch.is_some()
    }
}

/// Why the front end issued a fetch access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchKind {
    /// Fetch on the correct (eventually retired) path.
    CorrectPath,
    /// Fetch on a speculative wrong path that was later squashed.
    WrongPath,
}

/// One front-end instruction-cache access.
///
/// The sequence of `FetchAccess`es is what the L1-I cache, and any
/// access/miss-stream prefetcher (e.g. TIFS), actually observes. It differs
/// from the retire-order stream by the injected wrong-path accesses and by
/// fetch happening at block granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchAccess {
    /// Address fetched (the front end fetches block-aligned groups; we keep
    /// the instruction address for trigger-PC bookkeeping).
    pub pc: Address,
    /// Correct-path or wrong-path.
    pub kind: FetchKind,
    /// Trap level of the fetching context.
    pub trap_level: TrapLevel,
}

impl FetchAccess {
    /// Creates a correct-path fetch access.
    pub const fn correct(pc: Address, trap_level: TrapLevel) -> Self {
        FetchAccess {
            pc,
            kind: FetchKind::CorrectPath,
            trap_level,
        }
    }

    /// Creates a wrong-path fetch access.
    pub const fn wrong(pc: Address, trap_level: TrapLevel) -> Self {
        FetchAccess {
            pc,
            kind: FetchKind::WrongPath,
            trap_level,
        }
    }

    /// True if the access is on the correct path.
    pub const fn is_correct_path(&self) -> bool {
        matches!(self.kind, FetchKind::CorrectPath)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_instruction_is_not_a_branch() {
        let i = RetiredInstr::simple(Address::new(4), TrapLevel::Tl0);
        assert!(!i.is_branch());
    }

    #[test]
    fn branch_instruction_carries_metadata() {
        let info = BranchInfo {
            kind: BranchKind::Conditional,
            taken: true,
            taken_target: Address::new(0x100),
            fall_through: Address::new(0x44),
        };
        let i = RetiredInstr::branch(Address::new(0x40), TrapLevel::Tl0, info);
        assert!(i.is_branch());
        assert_eq!(i.branch.unwrap().actual_target(), Address::new(0x100));
    }

    #[test]
    fn actual_target_follows_direction() {
        let mut info = BranchInfo {
            kind: BranchKind::Conditional,
            taken: true,
            taken_target: Address::new(0x100),
            fall_through: Address::new(0x44),
        };
        assert_eq!(info.actual_target(), Address::new(0x100));
        info.taken = false;
        assert_eq!(info.actual_target(), Address::new(0x44));
    }

    #[test]
    fn fetch_access_path_classification() {
        let c = FetchAccess::correct(Address::new(0), TrapLevel::Tl0);
        let w = FetchAccess::wrong(Address::new(0), TrapLevel::Tl0);
        assert!(c.is_correct_path());
        assert!(!w.is_correct_path());
    }

    #[test]
    fn ras_pushing_kinds() {
        assert!(BranchKind::Call.pushes_return());
        assert!(BranchKind::IndirectCall.pushes_return());
        assert!(!BranchKind::Conditional.pushes_return());
        assert!(!BranchKind::Direct.pushes_return());
        assert!(!BranchKind::Return.pushes_return());
    }
}
