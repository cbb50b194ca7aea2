//! Deterministic seed spreading.
//!
//! Every experiment cell (topology × size × repetition) derives its RNG seed
//! from a master seed with SplitMix64, so cells are independent,
//! reproducible in isolation, and stable when the sweep grid changes shape.

/// One SplitMix64 step: a high-quality 64-bit mixer (Steele et al., "Fast
/// splittable pseudorandom number generators"). The workspace's one copy:
/// seeds, fault and adversary fates, and SMM's `Hashed` choice all use it.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derive a child seed from a master seed and a list of coordinates
/// (e.g. `[family_index, n, repetition]`).
pub fn derive(master: u64, coords: &[u64]) -> u64 {
    let mut s = splitmix64(master);
    for &c in coords {
        s = splitmix64(s ^ c.wrapping_mul(0xff51_afd7_ed55_8ccd));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(derive(1, &[2, 3]), derive(1, &[2, 3]));
    }

    #[test]
    fn sensitive_to_every_coordinate() {
        let base = derive(1, &[2, 3]);
        assert_ne!(base, derive(2, &[2, 3]));
        assert_ne!(base, derive(1, &[3, 3]));
        assert_ne!(base, derive(1, &[2, 4]));
        assert_ne!(base, derive(1, &[2]));
    }

    #[test]
    fn spreads_consecutive_inputs() {
        // Weak avalanche check: consecutive masters give wildly different
        // outputs (hamming distance well above 10 of 64 bits).
        for m in 0..50u64 {
            let d = (splitmix64(m) ^ splitmix64(m + 1)).count_ones();
            assert!(d > 10, "poor diffusion at {m}: {d} bits");
        }
    }
}
