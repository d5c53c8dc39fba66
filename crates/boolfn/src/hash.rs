//! The keyed fast hasher of the engines' hot hash tables.
//!
//! The structural-hashing table of every `Aig`, the rewrite pass's
//! library-lookup memo and the mapper's match memo are probed once or
//! more per costed candidate, where the standard library's SipHash
//! costs more than the work around the probe. Their keys are a few
//! small integers, so folding each written word in with one multiply
//! and finishing with the splitmix64 finalizer hashes them well.
//!
//! The hasher stays keyed: its seed is drawn once per process from the
//! standard library's [`RandomState`]. Circuits arrive from outside the
//! program (AIGER requests), and under a fixed seed a crafted file
//! could choose fanin pairs that share one bucket and make structural
//! hashing quadratic. No result depends on the seed: the engines probe
//! these tables but never let their iteration order reach an output.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A `HashMap` under [`FastHash`].
pub type FastMap<K, V> = HashMap<K, V, FastHash>;

/// Builds [`FastHasher`]s keyed with one seed; [`Default`] uses the
/// process's seed.
#[derive(Debug, Clone, Copy)]
pub struct FastHash {
    seed: u64,
}

impl FastHash {
    /// A builder keyed with an explicit seed, so a test can show that
    /// nothing depends on the process's seed.
    pub fn with_seed(seed: u64) -> FastHash {
        FastHash { seed }
    }
}

impl Default for FastHash {
    fn default() -> FastHash {
        static SEED: OnceLock<u64> = OnceLock::new();
        FastHash::with_seed(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.seed)
    }
}

/// The hasher [`FastHash`] builds: each written word is xored into the
/// state, which is then multiplied by an odd constant; [`Hasher::finish`]
/// applies the splitmix64 finalizer.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(x.into());
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(x.into());
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_keys_the_hash() {
        let (a, b) = (FastHash::with_seed(1), FastHash::with_seed(2));
        assert_eq!(a.hash_one((3u32, 5u32)), a.hash_one((3u32, 5u32)));
        assert_ne!(a.hash_one((3u32, 5u32)), b.hash_one((3u32, 5u32)));
        assert_ne!(a.hash_one((3u32, 5u32)), a.hash_one((5u32, 3u32)));
        let process = FastHash::default();
        assert_eq!(process.hash_one(7u16), FastHash::default().hash_one(7u16));
    }
}
