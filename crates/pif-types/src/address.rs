//! Byte addresses and cache-block addresses.

use std::fmt;

/// Log2 of the instruction-cache block size in bytes (64 B blocks, Table I).
pub const BLOCK_SHIFT: u32 = 6;

/// Instruction-cache block size in bytes (Table I: 64 B blocks).
pub const BLOCK_SIZE: usize = 1 << BLOCK_SHIFT;

/// A byte address in the simulated instruction memory.
///
/// Addresses are opaque 64-bit values; arithmetic helpers are provided for
/// the handful of operations the simulator needs (sequential advance and
/// block extraction).
///
/// # Example
///
/// ```
/// use pif_types::Address;
///
/// let a = Address::new(0x1000);
/// assert_eq!(a.offset(16).raw(), 0x1010);
/// assert_eq!(a.block().base(), Address::new(0x1000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes` bytes (wrapping).
    #[must_use]
    #[inline]
    pub const fn offset(self, bytes: u64) -> Self {
        Address(self.0.wrapping_add(bytes))
    }

    /// Returns the cache block containing this address.
    #[inline]
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// Returns the byte offset of this address within its cache block.
    #[inline]
    pub const fn block_offset(self) -> usize {
        (self.0 & (BLOCK_SIZE as u64 - 1)) as usize
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl From<Address> for u64 {
    fn from(a: Address) -> Self {
        a.0
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-block address: a byte address divided by [`BLOCK_SIZE`].
///
/// Caches, prefetchers, and all recorded history operate at this
/// granularity. The inner value is the *block number*, not the byte
/// address; use [`BlockAddr::base`] to recover the byte address of the
/// block's first byte.
///
/// # Example
///
/// ```
/// use pif_types::{Address, BlockAddr};
///
/// let b = BlockAddr::containing(Address::new(0x1040));
/// assert_eq!(b.number(), 0x41);
/// assert_eq!(b.next().number(), 0x42);
/// assert_eq!(b.signed_distance(b.next()), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a raw block *number*.
    #[inline]
    pub const fn from_number(number: u64) -> Self {
        BlockAddr(number)
    }

    /// Returns the block containing the given byte address.
    #[inline]
    pub const fn containing(addr: Address) -> Self {
        addr.block()
    }

    /// Returns the block number (byte address >> [`BLOCK_SHIFT`]).
    #[inline]
    pub const fn number(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of this block.
    #[inline]
    pub const fn base(self) -> Address {
        Address(self.0 << BLOCK_SHIFT)
    }

    /// Returns the immediately following block.
    #[must_use]
    #[inline]
    pub const fn next(self) -> Self {
        BlockAddr(self.0.wrapping_add(1))
    }

    /// Returns the immediately preceding block.
    #[must_use]
    #[inline]
    pub const fn prev(self) -> Self {
        BlockAddr(self.0.wrapping_sub(1))
    }

    /// Returns the block `delta` blocks away (negative = preceding blocks).
    #[must_use]
    #[inline]
    pub const fn offset(self, delta: i64) -> Self {
        BlockAddr(self.0.wrapping_add(delta as u64))
    }

    /// Returns `other - self` in blocks as a signed distance.
    ///
    /// Saturates at `i64::MIN`/`i64::MAX` in the (absurd for our traces)
    /// case of distances exceeding the signed range.
    #[inline]
    pub const fn signed_distance(self, other: BlockAddr) -> i64 {
        other.0.wrapping_sub(self.0) as i64
    }
}

impl From<Address> for BlockAddr {
    fn from(a: Address) -> Self {
        a.block()
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_extraction_masks_low_bits() {
        let a = Address::new(0x1234);
        assert_eq!(a.block().base().raw(), 0x1200);
        assert_eq!(a.block_offset(), 0x34);
    }

    #[test]
    fn block_numbering_matches_shift() {
        assert_eq!(Address::new(0).block().number(), 0);
        assert_eq!(Address::new(63).block().number(), 0);
        assert_eq!(Address::new(64).block().number(), 1);
        assert_eq!(Address::new(128).block().number(), 2);
    }

    #[test]
    fn next_prev_are_inverses() {
        let b = BlockAddr::from_number(100);
        assert_eq!(b.next().prev(), b);
        assert_eq!(b.prev().next(), b);
    }

    #[test]
    fn signed_distance_is_antisymmetric() {
        let a = BlockAddr::from_number(10);
        let b = BlockAddr::from_number(14);
        assert_eq!(a.signed_distance(b), 4);
        assert_eq!(b.signed_distance(a), -4);
        assert_eq!(a.signed_distance(a), 0);
    }

    #[test]
    fn offset_moves_by_signed_blocks() {
        let b = BlockAddr::from_number(10);
        assert_eq!(b.offset(3).number(), 13);
        assert_eq!(b.offset(-3).number(), 7);
        assert_eq!(b.offset(0), b);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(format!("{}", Address::new(0xff)), "0xff");
        assert_eq!(format!("{}", BlockAddr::from_number(0x2)), "B0x2");
    }

    #[test]
    fn conversions_round_trip() {
        let a = Address::from(0xdead_beefu64);
        let raw: u64 = a.into();
        assert_eq!(raw, 0xdead_beef);
        let b: BlockAddr = a.into();
        assert_eq!(b, a.block());
    }
}
