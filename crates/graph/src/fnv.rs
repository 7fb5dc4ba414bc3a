//! FNV-1a hashing.
//!
//! Three uses across the workspace (the module lives here, at the bottom of
//! the dependency graph, so every crate above it can share it):
//!
//! * a fast, deterministic `BuildHasher` for the walkers' history hash maps
//!   keyed by directed edges (the paper's `b(u,v)` and `S(u,v)` structures,
//!   which are hit on every step of CNRW/GNRW — `std`'s SipHash is needlessly
//!   slow and randomly seeded, which would break run reproducibility);
//! * the stand-in for the paper's `GNRW_By_MD5` grouping: the paper hashes
//!   user ids with MD5 purely to obtain an attribute-independent pseudorandom
//!   group assignment; FNV-1a provides the same property without a crypto
//!   dependency;
//! * the stripe selector of the shared frontier pool in `osn-walks`
//!   (`stripe = fnv(node) % N`), where the same determinism guarantees that a
//!   node maps to the same stripe in every run and on every platform.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit FNV-1a offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a streaming hasher.
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 {
            state: OFFSET_BASIS,
        }
    }
}

impl Hasher for Fnv64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }
}

/// Deterministic `BuildHasher` for history maps.
pub type FnvBuildHasher = BuildHasherDefault<Fnv64>;

/// A `HashMap` with FNV hashing.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` with FNV hashing.
pub type FnvHashSet<T> = std::collections::HashSet<T, FnvBuildHasher>;

/// Hash an arbitrary byte string with FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// Hash a node id — the `GNRW_By_MD5` substitute. Deterministic across runs
/// and platforms, uncorrelated with any node attribute.
pub fn hash_node_id(id: u32) -> u64 {
    fnv1a(&id.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn node_hash_spreads() {
        // Consecutive ids must land in different buckets most of the time.
        let m = 7u64;
        let mut counts = vec![0usize; m as usize];
        for id in 0..700u32 {
            counts[(hash_node_id(id) % m) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 50 && c < 150, "bucket count {c} badly skewed");
        }
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_node_id(12345), hash_node_id(12345));
        assert_ne!(hash_node_id(1), hash_node_id(2));
    }

    #[test]
    fn map_type_usable() {
        let mut m: FnvHashMap<(u32, u32), u32> = FnvHashMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        let mut s: FnvHashSet<u32> = FnvHashSet::default();
        s.insert(9);
        assert!(s.contains(&9));
    }
}
