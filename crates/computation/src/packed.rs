//! Packed frontier vectors: compact, pre-hashed visited-set keys.
//!
//! The lattice enumerators probe visited sets with `Cut`s, which hash a
//! heap-allocated `Vec<u32>` word by word on every probe. For one fixed
//! computation a frontier entry for process `p` only ranges over
//! `0..=events_on(p)`, so the whole frontier packs into a few `u64`
//! words at a uniform bit width (the same word-packing trick as
//! `gpd_order::BitSet`, generalized from 1 bit to ⌈log₂(mₚ+1)⌉ bits per
//! entry). A [`FrontierPacker`] is built once per computation;
//! [`PackedFrontier`]s carry their FNV-1a hash precomputed, so set
//! probes hash a single `u64` and compare a short word slice.

use crate::computation::Computation;
use crate::cut::Cut;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a stream of `u64` words — the one hash shared by
/// [`PackedFrontier`] and the `gpd` crate's checkpoint fingerprints.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Packs the frontier vectors of one computation into dense `u64` words.
///
/// The packing is injective over that computation's valid frontiers
/// (every entry fits its uniform bit width), so packed equality is
/// frontier equality.
///
/// # Example
///
/// ```
/// use gpd_computation::{ComputationBuilder, FrontierPacker};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let packer = FrontierPacker::new(&comp);
/// let a = packer.pack(&[2, 1]);
/// let b2 = packer.pack(&[2, 1]);
/// assert_eq!(a, b2);
/// assert_eq!(a.hash_value(), b2.hash_value());
/// assert_ne!(a, packer.pack(&[1, 1]));
/// ```
#[derive(Debug, Clone)]
pub struct FrontierPacker {
    /// Bits per frontier entry (enough for the largest `events_on`).
    bits: usize,
    /// Frontier length (process count).
    len: usize,
    /// Packed words per frontier.
    words: usize,
}

impl FrontierPacker {
    /// Sizes the packing for `comp`'s frontiers.
    pub fn new(comp: &Computation) -> Self {
        let max = (0..comp.process_count())
            .map(|p| comp.events_on(p) as u32)
            .max()
            .unwrap_or(0);
        // Even all-zero frontiers take one bit per entry, keeping the
        // packing injective by construction rather than by accident.
        let bits = (32 - max.leading_zeros()).max(1) as usize;
        let len = comp.process_count();
        FrontierPacker {
            bits,
            len,
            words: (len * bits).div_ceil(64),
        }
    }

    /// Packs a frontier vector.
    ///
    /// # Panics
    ///
    /// Panics if the frontier's length differs from the packer's, or if
    /// an entry exceeds the packer's bit width. The width check is a hard
    /// assert (not debug-only): a truncated entry would collide with a
    /// different frontier, silently corrupting any visited set keyed on
    /// the packing.
    pub fn pack(&self, frontier: &[u32]) -> PackedFrontier {
        assert_eq!(frontier.len(), self.len, "frontier shape mismatch");
        let mut words = vec![0u64; self.words];
        for (i, &f) in frontier.iter().enumerate() {
            assert!(
                (f as u64) < (1u64 << self.bits),
                "frontier entry {f} exceeds {} bits",
                self.bits
            );
            let bit = i * self.bits;
            let (w, off) = (bit / 64, bit % 64);
            words[w] |= (f as u64) << off;
            if off + self.bits > 64 {
                words[w + 1] |= (f as u64) >> (64 - off);
            }
        }
        let hash = fnv1a(words.iter().copied());
        PackedFrontier { words, hash }
    }

    /// Packs a [`Cut`]'s frontier.
    pub fn pack_cut(&self, cut: &Cut) -> PackedFrontier {
        self.pack(cut.frontier())
    }
}

/// A packed frontier with its FNV-1a hash precomputed at pack time:
/// `HashSet` probes hash one `u64` instead of re-walking the vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedFrontier {
    words: Vec<u64>,
    hash: u64,
}

impl PackedFrontier {
    /// The precomputed FNV-1a hash of the packed words. Stable across
    /// processes and hasher seeds — usable for sharding.
    pub fn hash_value(&self) -> u64 {
        self.hash
    }
}

impl std::hash::Hash for PackedFrontier {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ComputationBuilder;
    use std::collections::HashSet;

    fn comp_with(lens: &[usize]) -> Computation {
        let mut b = ComputationBuilder::new(lens.len());
        for (p, &len) in lens.iter().enumerate() {
            for _ in 0..len {
                b.append(p);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn packing_is_injective_over_all_frontiers() {
        // 3 processes with different event counts, bits sized by the max.
        let comp = comp_with(&[2, 5, 1]);
        let packer = FrontierPacker::new(&comp);
        let mut seen = HashSet::new();
        for a in 0..=2u32 {
            for b in 0..=5u32 {
                for c in 0..=1u32 {
                    assert!(
                        seen.insert(packer.pack(&[a, b, c])),
                        "collision at {a},{b},{c}"
                    );
                }
            }
        }
        assert_eq!(seen.len(), 3 * 6 * 2);
    }

    #[test]
    fn entries_straddling_word_boundaries_round_trip_distinctly() {
        // 23 processes × 7 events → 3 bits/entry, 69 bits > one word.
        let comp = comp_with(&[7; 23]);
        let packer = FrontierPacker::new(&comp);
        let mut frontiers: Vec<Vec<u32>> = vec![vec![0; 23], vec![7; 23]];
        for i in 0..23 {
            let mut f = vec![0u32; 23];
            f[i] = 5;
            frontiers.push(f);
        }
        let packed: HashSet<PackedFrontier> = frontiers.iter().map(|f| packer.pack(f)).collect();
        assert_eq!(packed.len(), frontiers.len());
    }

    #[test]
    fn zero_process_computation_packs_the_empty_frontier() {
        let comp = comp_with(&[]);
        let packer = FrontierPacker::new(&comp);
        assert_eq!(packer.pack(&[]), packer.pack(&[]));
    }

    #[test]
    fn all_zero_event_processes_pack_injectively() {
        // Every process has zero events: only the all-zero frontier is
        // valid, bits = 1 by construction, and the packing still works.
        let comp = comp_with(&[0, 0, 0]);
        let packer = FrontierPacker::new(&comp);
        assert_eq!(packer.pack(&[0, 0, 0]), packer.pack(&[0, 0, 0]));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_entry_panics_instead_of_colliding() {
        // events_on = 1 everywhere → 1 bit per entry; entry 2 would
        // truncate to 0 and collide with a distinct frontier. The packer
        // must refuse it even in release builds.
        let comp = comp_with(&[1, 1]);
        FrontierPacker::new(&comp).pack(&[2, 0]);
    }

    #[test]
    fn equal_frontiers_share_hash_and_differ_otherwise() {
        let comp = comp_with(&[4, 4]);
        let packer = FrontierPacker::new(&comp);
        let a = packer.pack(&[1, 2]);
        let b = packer.pack(&[1, 2]);
        let c = packer.pack(&[2, 1]);
        assert_eq!(a, b);
        assert_eq!(a.hash_value(), b.hash_value());
        assert_ne!(a, c);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};

        /// A frontier valid for `lens` (each entry in `0..=events_on(p)`).
        fn random_frontier<R: Rng>(rng: &mut R, lens: &[usize]) -> Vec<u32> {
            lens.iter().map(|&m| rng.gen_range(0..=m as u32)).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Packing is injective: packed equality ⇔ frontier equality,
            /// and equal frontiers agree on the cached hash. Shapes mix
            /// zero-event processes with widths where `len * bits`
            /// regularly exceeds one 64-bit word.
            #[test]
            fn packed_equality_is_frontier_equality(
                seed in any::<u64>(),
                n in 1usize..40,
                equal in any::<bool>(),
            ) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let lens: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=9)).collect();
                let a = random_frontier(&mut rng, &lens);
                let b = if equal { a.clone() } else { random_frontier(&mut rng, &lens) };
                let comp = comp_with(&lens);
                let packer = FrontierPacker::new(&comp);
                let pa = packer.pack(&a);
                let pb = packer.pack(&b);
                prop_assert_eq!(pa == pb, a == b);
                if a == b {
                    prop_assert_eq!(pa.hash_value(), pb.hash_value());
                }
            }
        }
    }
}
