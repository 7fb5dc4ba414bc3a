//! SplitMix64 seed mixing — the workspace's single source of derived
//! deterministic streams.
//!
//! Like [`crate::fnv`], this lives at the bottom of the dependency graph so
//! every crate derives streams the same way: walker RNG streams
//! (`osn_walks::WalkOrchestrator::walker_seed`), trial seeds
//! (`osn_experiments::trial_seed`) and the batch endpoint's latency-jitter
//! stream in `osn-client`. One implementation,
//! one set of constants — a tweak here moves every derived stream together
//! instead of silently desynchronizing copies.

/// SplitMix64-derived seed for stream `stream` of base seed `seed` —
/// well-spread and stable across platforms and thread schedules.
pub fn splitmix64_stream(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_spread_and_stable() {
        let a = splitmix64_stream(1, 0);
        assert_eq!(a, splitmix64_stream(1, 0));
        assert_ne!(a, splitmix64_stream(1, 1));
        assert_ne!(a, splitmix64_stream(2, 0));
    }
}
