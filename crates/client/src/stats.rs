//! Query accounting.

/// Running counters of interface usage.
///
/// The paper's cost model (§2.3): *"query cost here is defined as the number
/// of unique queries required, as any duplicate query can be immediately
/// retrieved from local cache without consuming the query rate limit."*
/// [`QueryStats::unique`] is therefore the number every experiment reports on
/// its x-axis; `issued` and `cache_hits` are kept for diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total neighbor-list calls made by the sampler.
    pub issued: u64,
    /// Calls that hit a never-before-queried node — the *charged* cost.
    pub unique: u64,
    /// Calls served from the local cache (free).
    pub cache_hits: u64,
}

impl QueryStats {
    /// Record one call; `was_unique` says whether it was charged. Public so
    /// external drivers (e.g. the reactor in `osn-walks`) can keep
    /// walker-side accounting in the same shape.
    pub fn record(&mut self, was_unique: bool) {
        self.issued += 1;
        if was_unique {
            self.unique += 1;
        } else {
            self.cache_hits += 1;
        }
    }

    /// The calls made since `base` was taken from the same counters — the
    /// accounting one run added to a long-lived client.
    pub fn since(&self, base: &QueryStats) -> QueryStats {
        QueryStats {
            issued: self.issued - base.issued,
            unique: self.unique - base.unique,
            cache_hits: self.cache_hits - base.cache_hits,
        }
    }

    /// Fraction of calls served from cache (0 when none issued).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.issued as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_both_kinds() {
        let mut s = QueryStats::default();
        s.record(true);
        s.record(false);
        s.record(false);
        assert_eq!(s.issued, 3);
        assert_eq!(s.unique, 1);
        assert_eq!(s.cache_hits, 2);
        assert!((s.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts_a_base_snapshot() {
        let mut s = QueryStats::default();
        s.record(true);
        let base = s;
        s.record(true);
        s.record(false);
        let delta = s.since(&base);
        assert_eq!((delta.issued, delta.unique, delta.cache_hits), (2, 1, 1));
    }

    #[test]
    fn empty_stats_hit_rate_zero() {
        assert_eq!(QueryStats::default().cache_hit_rate(), 0.0);
    }
}
