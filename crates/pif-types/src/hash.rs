//! The workspace's shared hash and seed primitives.
//!
//! * FNV-1a 64: trace content hashes, result-cache keys and failpoint
//!   site seeds.
//! * SplitMix64: small deterministic streams (sample-window placement,
//!   failpoint probabilities) and, through [`mix64`], a stateless 64-bit
//!   mixer (per-branch bias in the binary-trace walker).
//!
//! Every user hashes through here, so a digest or a seeded stream cannot
//! drift between crates.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64's state increment (the golden-ratio gamma).
pub const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds `bytes` into an FNV-1a 64 accumulator.
#[inline]
pub fn fnv1a_64(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

/// One-shot FNV-1a 64 of a byte string, from the standard offset basis.
#[inline]
pub fn fnv1a_64_once(bytes: &[u8]) -> u64 {
    fnv1a_64(FNV_OFFSET, bytes)
}

/// The SplitMix64 output for state `x`, without advancing anything.
///
/// `mix64(s)` equals what [`splitmix64`] returns from state `s`.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: returns the next output of the stream at `state` and
/// advances `state`.
///
/// # Example
///
/// ```
/// use pif_types::hash::splitmix64;
///
/// let mut state = 0;
/// assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
/// ```
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_64_known_answers() {
        assert_eq!(fnv1a_64_once(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64_once(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64_once(b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces equals hashing the whole.
        assert_eq!(
            fnv1a_64(fnv1a_64_once(b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn splitmix64_known_answers() {
        let mut state = 0;
        let outputs = [(); 3].map(|()| splitmix64(&mut state));
        assert_eq!(
            outputs,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    #[test]
    fn mix64_is_splitmix64_without_the_step() {
        for s in [0, 1, 42, 0xb1a5, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            let mut state = s;
            assert_eq!(mix64(s), splitmix64(&mut state));
        }
    }
}
