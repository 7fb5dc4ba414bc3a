//! Query-rate-limit simulation over a virtual clock.
//!
//! Real platforms throttle third parties hard — the paper cites Twitter's
//! "15 calls every 15 minutes" and Yelp's 25,000 calls/day. Experiments
//! cannot wait real minutes per query, so this module advances a *virtual*
//! clock: every charged query consumes a token from a token bucket; when the
//! bucket is empty the clock jumps to the next refill. The resulting
//! [`VirtualClock::elapsed_secs`] is the wall-clock time the same walk would
//! have taken against the live platform — the quantity that makes "CNRW
//! needs 447 queries instead of 800" legible as hours of crawling saved.

use osn_graph::NodeId;

use crate::budget::BudgetExhausted;
use crate::client::OsnClient;
use crate::stats::QueryStats;

/// A token-bucket rate-limit description.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateLimitConfig {
    /// Queries allowed per window.
    pub calls_per_window: u64,
    /// Window length in (virtual) seconds.
    pub window_secs: f64,
}

impl RateLimitConfig {
    /// Twitter's published limit at the time of the paper: 15 calls / 15 min.
    pub fn twitter() -> Self {
        RateLimitConfig {
            calls_per_window: 15,
            window_secs: 15.0 * 60.0,
        }
    }

    /// Yelp's published limit: 25,000 calls / day.
    pub fn yelp() -> Self {
        RateLimitConfig {
            calls_per_window: 25_000,
            window_secs: 24.0 * 3600.0,
        }
    }

    /// Seconds per query when saturating the limit.
    pub fn secs_per_call(&self) -> f64 {
        self.window_secs / self.calls_per_window as f64
    }

    /// Take one token from a bucket of `tokens` that refills to
    /// [`Self::calls_per_window`] once per window. An empty bucket jumps
    /// `clock` to the start of the next window. [`RateLimitedOsn`] charges
    /// one token per unique query, the batch endpoint one per request
    /// attempt.
    pub(crate) fn charge_token(
        &self,
        clock: &mut VirtualClock,
        tokens: &mut u64,
        window_started: &mut f64,
    ) {
        if *tokens == 0 {
            let next_window = *window_started + self.window_secs;
            if next_window > clock.elapsed_secs() {
                let wait = next_window - clock.elapsed_secs();
                clock.advance(wait);
            }
            *window_started = clock.elapsed_secs();
            *tokens = self.calls_per_window;
        }
        *tokens -= 1;
    }
}

/// Discrete virtual clock advanced by the rate limiter.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// Seconds elapsed since the walk started.
    pub fn elapsed_secs(&self) -> f64 {
        self.now
    }

    /// Elapsed time formatted as `h:mm:ss` for reports.
    pub fn display(&self) -> String {
        let total = self.now.round() as u64;
        format!(
            "{}:{:02}:{:02}",
            total / 3600,
            (total % 3600) / 60,
            total % 60
        )
    }

    pub(crate) fn advance(&mut self, secs: f64) {
        self.now += secs;
    }
}

/// Decorator simulating a platform rate limit on top of any [`OsnClient`].
///
/// Only *charged* (unique) queries consume tokens — cached repeats are local
/// and instantaneous, exactly the reason the paper counts unique queries.
pub struct RateLimitedOsn<C> {
    inner: C,
    config: RateLimitConfig,
    clock: VirtualClock,
    tokens: u64,
    window_started: f64,
    seen: Vec<bool>,
}

impl<C: OsnClient> RateLimitedOsn<C> {
    /// Wrap `inner` with the given rate limit.
    pub fn new(inner: C, config: RateLimitConfig) -> Self {
        RateLimitedOsn {
            tokens: config.calls_per_window,
            window_started: 0.0,
            clock: VirtualClock::default(),
            seen: Vec::new(),
            inner,
            config,
        }
    }

    /// The virtual clock (how long the walk "took" against the platform).
    pub fn clock(&self) -> VirtualClock {
        self.clock
    }

    /// Unwrap the inner client.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: OsnClient> OsnClient for RateLimitedOsn<C> {
    fn neighbors(&mut self, u: NodeId) -> Result<&[NodeId], BudgetExhausted> {
        // Track uniqueness in our own bitmap (mirrors the cache semantics of
        // the inner client) so we know *before* the call whether it is
        // charged, keeping this a single pass-through query.
        let idx = u.index();
        if idx >= self.seen.len() {
            self.seen.resize(idx + 1, false);
        }
        if !self.seen[idx] {
            self.seen[idx] = true;
            self.config
                .charge_token(&mut self.clock, &mut self.tokens, &mut self.window_started);
        }
        self.inner.neighbors(u)
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        self.inner.peek_degree(u)
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.inner.peek_attribute(u, name)
    }

    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }

    fn is_cached(&self, u: NodeId) -> bool {
        self.inner.is_cached(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SimulatedOsn;
    use osn_graph::GraphBuilder;

    fn star_client() -> SimulatedOsn {
        let mut b = GraphBuilder::new();
        for i in 1..=30 {
            b.push_edge(0, i);
        }
        SimulatedOsn::from_graph(b.build().unwrap())
    }

    fn tiny_limit() -> RateLimitConfig {
        RateLimitConfig {
            calls_per_window: 2,
            window_secs: 10.0,
        }
    }

    #[test]
    fn clock_advances_on_window_exhaustion() {
        let mut c = RateLimitedOsn::new(star_client(), tiny_limit());
        // 2 tokens free; third unique query waits until t=10.
        c.neighbors(NodeId(1)).unwrap();
        c.neighbors(NodeId(2)).unwrap();
        assert_eq!(c.clock().elapsed_secs(), 0.0);
        c.neighbors(NodeId(3)).unwrap();
        assert_eq!(c.clock().elapsed_secs(), 10.0);
        c.neighbors(NodeId(4)).unwrap();
        assert_eq!(c.clock().elapsed_secs(), 10.0);
        c.neighbors(NodeId(5)).unwrap();
        assert_eq!(c.clock().elapsed_secs(), 20.0);
    }

    #[test]
    fn cached_queries_cost_no_tokens() {
        let mut c = RateLimitedOsn::new(star_client(), tiny_limit());
        c.neighbors(NodeId(1)).unwrap();
        for _ in 0..100 {
            c.neighbors(NodeId(1)).unwrap();
        }
        assert_eq!(c.clock().elapsed_secs(), 0.0);
    }

    #[test]
    fn twitter_preset_is_one_per_minute() {
        assert!((RateLimitConfig::twitter().secs_per_call() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn clock_display() {
        let mut clock = VirtualClock::default();
        clock.advance(3_723.0);
        assert_eq!(clock.display(), "1:02:03");
    }

    #[test]
    fn stats_pass_through() {
        let mut c = RateLimitedOsn::new(star_client(), tiny_limit());
        c.neighbors(NodeId(1)).unwrap();
        c.neighbors(NodeId(1)).unwrap();
        assert_eq!(c.stats().issued, 2);
        assert_eq!(c.stats().unique, 1);
    }

    #[test]
    fn yelp_preset() {
        let y = RateLimitConfig::yelp();
        assert!((y.secs_per_call() - 3.456).abs() < 1e-9);
    }
}
