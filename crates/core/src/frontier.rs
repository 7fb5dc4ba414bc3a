//! Frontier sampling (Ribeiro & Towsley, SIGCOMM 2010 — the paper's \[17\])
//! and the shared frontier pool built on its idea.
//!
//! [`FrontierSampler`] is the original `m`-dimensional random walk: keep `m`
//! walker positions; at each step choose one position with probability
//! proportional to its degree, move it to a uniform neighbor, and emit the
//! traversed edge. The emitted edge sequence converges to
//! uniform-over-edges, so emitted *endpoints* are degree-proportional — the
//! same target distribution as SRW — while the multiple dimensions make the
//! sampler far less sensitive to where it started (the property the paper's
//! related work credits it for).
//!
//! [`SharedFrontier`] transplants that insight into the multi-walker
//! orchestrator (`crate::orchestrator`): cooperating walkers **publish** the
//! high-degree nodes they walk through into a lock-striped pool, and a
//! walker whose own neighborhood has gone sterile **steals** a position
//! discovered by another walker instead of burning budget where coverage is
//! saturated. Degree-biased retention mirrors the frontier sampler's
//! degree-proportional position choice; the stripes decide which
//! candidates survive, so the pool's contents are a deterministic function
//! of the publish sequence.

use std::sync::{Arc, Mutex, PoisonError};

use osn_client::{BudgetExhausted, OsnClient, QueryStats};
use osn_graph::NodeId;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Frontier sampler state: `m` walker positions.
#[derive(Clone, Debug)]
pub struct FrontierSampler {
    positions: Vec<NodeId>,
}

impl FrontierSampler {
    /// Start with the given positions (their number is the sampler's
    /// dimension `m`; Ribeiro & Towsley recommend tens).
    ///
    /// # Panics
    /// Panics if `positions` is empty.
    pub fn new(positions: Vec<NodeId>) -> Self {
        assert!(!positions.is_empty(), "frontier needs at least one walker");
        FrontierSampler { positions }
    }

    /// Spread `m` walkers over the first `n` node ids deterministically
    /// (stand-in for the uniform seed nodes the original paper assumes).
    pub fn spread(m: usize, n: usize) -> Self {
        assert!(m > 0 && n > 0);
        let positions = (0..m).map(|i| NodeId(((i * n) / m) as u32)).collect();
        FrontierSampler { positions }
    }

    /// Current walker positions.
    pub fn positions(&self) -> &[NodeId] {
        &self.positions
    }

    /// One frontier step: pick a position degree-proportionally, move it to
    /// a uniform neighbor, return the node arrived at.
    ///
    /// # Errors
    /// [`BudgetExhausted`] if the neighbor query is refused; positions are
    /// unchanged in that case.
    pub fn step(
        &mut self,
        client: &mut dyn OsnClient,
        rng: &mut dyn RngCore,
    ) -> Result<NodeId, BudgetExhausted> {
        // Degree-proportional choice of which walker advances (degrees are
        // listing metadata — free, see osn-client's access model).
        let total: usize = self
            .positions
            .iter()
            .map(|&p| client.peek_degree(p).max(1))
            .sum();
        let mut pick = (*rng).gen_range(0..total);
        let mut chosen = 0usize;
        for (i, &p) in self.positions.iter().enumerate() {
            let w = client.peek_degree(p).max(1);
            if pick < w {
                chosen = i;
                break;
            }
            pick -= w;
        }
        let at = self.positions[chosen];
        let neighbors = client.neighbors(at)?;
        if neighbors.is_empty() {
            return Ok(at);
        }
        let next = neighbors[(*rng).gen_range(0..neighbors.len())];
        self.positions[chosen] = next;
        Ok(next)
    }

    /// Run for up to `max_steps`, collecting emitted nodes; stops early on
    /// budget exhaustion. Deterministic per seed.
    pub fn run<C: OsnClient>(
        &mut self,
        client: &mut C,
        max_steps: usize,
        seed: u64,
    ) -> (Vec<NodeId>, QueryStats) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(max_steps.min(1 << 20));
        for _ in 0..max_steps {
            match self.step(&mut *client, &mut rng) {
                Ok(v) => out.push(v),
                Err(_) => break,
            }
        }
        (out, client.stats())
    }
}

/// One restart candidate in a [`SharedFrontier`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontierEntry {
    /// The published node. Its neighbor list was fetched by the owner when
    /// it departed, so restarting here re-queries nothing.
    pub node: NodeId,
    /// The node's degree (free listing metadata) — the retention and steal
    /// priority.
    pub degree: usize,
    /// Index of the walker that published it.
    pub owner: usize,
}

/// A lock-striped stripe of the frontier pool: a small degree-ordered set
/// of candidates, deduplicated by node.
#[derive(Debug, Default)]
struct FrontierStripe {
    entries: Vec<FrontierEntry>,
}

/// Lock-striped pool of restart candidates shared by cooperating walkers.
///
/// Walkers [`publish`](SharedFrontier::publish) every node they depart from;
/// each stripe (`fnv(node) % stripes`) retains its
/// `per_stripe_cap` highest-degree candidates, so the pool as a whole keeps
/// the fleet's best-connected discovered territory in `O(stripes × cap)`
/// memory. [`steal`](SharedFrontier::steal) removes and returns the best
/// candidate published by *another* walker — max degree first, smallest node
/// id on ties, cached candidates preferred — which is fully deterministic
/// given the pool contents.
///
/// Clones share the pool (the handle is an `Arc`).
#[derive(Clone, Debug)]
pub struct SharedFrontier {
    stripes: Arc<Vec<Mutex<FrontierStripe>>>,
    per_stripe_cap: usize,
}

impl Default for SharedFrontier {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedFrontier {
    /// Default pool: 16 stripes of up to 32 candidates each.
    pub fn new() -> Self {
        Self::with_stripes(16, 32)
    }

    /// Pool with an explicit stripe count and per-stripe capacity (both
    /// clamped to at least 1).
    pub fn with_stripes(stripes: usize, per_stripe_cap: usize) -> Self {
        SharedFrontier {
            stripes: Arc::new((0..stripes.max(1)).map(|_| Mutex::default()).collect()),
            per_stripe_cap: per_stripe_cap.max(1),
        }
    }

    /// Number of lock stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe_of(&self, u: NodeId) -> &Mutex<FrontierStripe> {
        let i = (osn_graph::fnv::hash_node_id(u.0) % self.stripes.len() as u64) as usize;
        &self.stripes[i]
    }

    /// Lock a stripe, recovering from poisoning: the pool holds plain
    /// copyable data, so a panicked publisher cannot leave it inconsistent.
    fn lock(m: &Mutex<FrontierStripe>) -> std::sync::MutexGuard<'_, FrontierStripe> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offer `(node, degree)` discovered by walker `owner` to the pool.
    /// Kept if its stripe has room or `degree` beats the stripe's weakest
    /// retained candidate; re-publishing an already-pooled node refreshes
    /// nothing (first discoverer keeps ownership).
    pub fn publish(&self, node: NodeId, degree: usize, owner: usize) {
        let mut stripe = Self::lock(self.stripe_of(node));
        if stripe.entries.iter().any(|e| e.node == node) {
            return;
        }
        if stripe.entries.len() < self.per_stripe_cap {
            stripe.entries.push(FrontierEntry {
                node,
                degree,
                owner,
            });
            return;
        }
        // Full: replace the weakest entry if strictly weaker than the
        // newcomer (ties keep the incumbent — older discoveries win).
        if let Some(weakest) = stripe
            .entries
            .iter_mut()
            .min_by_key(|e| (e.degree, std::cmp::Reverse(e.node.0)))
        {
            if weakest.degree < degree {
                *weakest = FrontierEntry {
                    node,
                    degree,
                    owner,
                };
            }
        }
    }

    /// Remove and return the best candidate for walker `thief`: published by
    /// a *different* walker, of degree at least `min_degree` (degree-biased
    /// steering, in the spirit of the frontier sampler's
    /// degree-proportional position choice — pass the thief's current
    /// degree plus one to demand strictly better-connected territory, or 0
    /// to accept anything), not rejected by `reject` (the thief's own
    /// visited set), preferring candidates for which `cached` holds (their
    /// neighbor list is free to re-fetch), then maximum degree, then
    /// smallest node id. `None` when no other walker has published anything
    /// the thief could use.
    pub fn steal(
        &self,
        thief: usize,
        min_degree: usize,
        mut reject: impl FnMut(NodeId) -> bool,
        mut cached: impl FnMut(NodeId) -> bool,
    ) -> Option<FrontierEntry> {
        let mut best: Option<(bool, usize, std::cmp::Reverse<u32>)> = None;
        let mut best_entry: Option<FrontierEntry> = None;
        for stripe in self.stripes.iter() {
            let stripe = Self::lock(stripe);
            for e in &stripe.entries {
                if e.owner == thief || e.degree < min_degree || reject(e.node) {
                    continue;
                }
                let key = (cached(e.node), e.degree, std::cmp::Reverse(e.node.0));
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                    best_entry = Some(*e);
                }
            }
        }
        let entry = best_entry?;
        let mut stripe = Self::lock(self.stripe_of(entry.node));
        // Under concurrent theft the pool may have changed between the scan
        // and this re-lock: the candidate may be gone, or its slot may hold
        // a *republished* entry (same node, different owner) the filters
        // above never vetted. Only remove the exact entry that was chosen;
        // stealing nothing is the safe outcome.
        let idx = stripe.entries.iter().position(|e| *e == entry)?;
        Some(stripe.entries.swap_remove(idx))
    }

    /// Non-destructive variant of [`steal`](Self::steal): pick — without
    /// removing — a candidate for `thief` under the same filters, rotating
    /// by `rotation` through the (cached-first, degree-ranked) matches so
    /// repeated calls spread over the pool instead of piling onto one hub.
    /// Used for budget-rescue relocations, where the pool must keep serving
    /// every dying walker for the rest of the run.
    pub fn borrow_target(
        &self,
        thief: usize,
        min_degree: usize,
        rotation: u64,
        mut reject: impl FnMut(NodeId) -> bool,
        mut cached: impl FnMut(NodeId) -> bool,
    ) -> Option<FrontierEntry> {
        let mut matches: Vec<(bool, FrontierEntry)> = Vec::new();
        for stripe in self.stripes.iter() {
            let stripe = Self::lock(stripe);
            for e in &stripe.entries {
                if e.owner == thief || e.degree < min_degree || reject(e.node) {
                    continue;
                }
                matches.push((cached(e.node), *e));
            }
        }
        if matches.is_empty() {
            return None;
        }
        matches.sort_by_key(|(is_cached, e)| (!*is_cached, std::cmp::Reverse(e.degree), e.node.0));
        Some(matches[(rotation % matches.len() as u64) as usize].1)
    }

    /// Snapshot of every pooled candidate (diagnostics and tests).
    pub fn entries(&self) -> Vec<FrontierEntry> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            out.extend(Self::lock(stripe).entries.iter().copied());
        }
        out
    }

    /// Total pooled candidates.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| Self::lock(s).entries.len())
            .sum()
    }

    /// Whether the pool holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_client::{BudgetedClient, SimulatedOsn};
    use osn_graph::generators::{barbell, erdos_renyi};

    #[test]
    fn emitted_nodes_are_degree_proportional() {
        let g = erdos_renyi(60, 0.15, 1).unwrap();
        let pi = g.degree_stationary_distribution();
        let mut client = SimulatedOsn::from_graph(g);
        let mut fs = FrontierSampler::spread(10, 60);
        let (nodes, _) = fs.run(&mut client, 300_000, 2);
        let mut counts = vec![0usize; 60];
        for v in &nodes {
            counts[v.index()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / nodes.len() as f64;
            assert!(
                (freq - pi[i]).abs() < 0.01,
                "node {i}: freq {freq} vs pi {}",
                pi[i]
            );
        }
    }

    #[test]
    fn respects_budget() {
        let g = barbell(10, 10).unwrap();
        let n = g.node_count();
        let client = SimulatedOsn::from_graph(g);
        let mut client = BudgetedClient::new(client, 8, n);
        let mut fs = FrontierSampler::spread(4, n);
        let (nodes, stats) = fs.run(&mut client, 100_000, 3);
        assert!(stats.unique <= 8);
        assert!(!nodes.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = barbell(8, 8).unwrap();
        let run = |seed| {
            let mut client = SimulatedOsn::from_graph(g.clone());
            let mut fs = FrontierSampler::spread(3, 16);
            fs.run(&mut client, 500, seed).0
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn multiple_dimensions_reduce_start_sensitivity() {
        // All walkers start in the left bell vs spread across both bells:
        // the spread frontier covers the right bell sooner.
        let g = barbell(25, 25).unwrap();
        let first_right_visit = |positions: Vec<NodeId>| {
            let mut client = SimulatedOsn::from_graph(g.clone());
            let mut fs = FrontierSampler::new(positions);
            let (nodes, _) = fs.run(&mut client, 50_000, 5);
            nodes.iter().position(|v| v.index() >= 25).unwrap_or(50_000)
        };
        let clumped = first_right_visit(vec![NodeId(0); 8]);
        let spread = first_right_visit((0..8).map(|i| NodeId(i * 6)).collect());
        assert!(
            spread <= clumped,
            "spread {spread} should reach the right bell no later than clumped {clumped}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn empty_frontier_panics() {
        let _ = FrontierSampler::new(vec![]);
    }

    #[test]
    fn spread_positions_cover_range() {
        let fs = FrontierSampler::spread(4, 100);
        let ids: Vec<u32> = fs.positions().iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 25, 50, 75]);
    }

    #[test]
    fn shared_frontier_dedupes_and_steals_best_other_walker() {
        let pool = SharedFrontier::with_stripes(4, 8);
        pool.publish(NodeId(1), 10, 0);
        pool.publish(NodeId(1), 99, 1); // duplicate node: first owner kept
        pool.publish(NodeId(2), 50, 0);
        pool.publish(NodeId(3), 50, 1);
        assert_eq!(pool.len(), 3);

        // Thief 1 cannot take its own entry (node 3); best of the rest is
        // node 2 (degree 50 beats node 1's 10).
        let stolen = pool.steal(1, 0, |_| false, |_| false).unwrap();
        assert_eq!(stolen.node, NodeId(2));
        assert_eq!(stolen.owner, 0);
        // Stolen entries are gone.
        assert_eq!(pool.len(), 2);

        // Rejection filter skips visited nodes.
        let stolen = pool.steal(1, 0, |u| u == NodeId(1), |_| false);
        assert!(stolen.is_none(), "only node 1 remains for thief 1");
        // Thief 0 can take walker 1's node 3.
        assert_eq!(
            pool.steal(0, 0, |_| false, |_| false).unwrap().node,
            NodeId(3)
        );
    }

    #[test]
    fn shared_frontier_prefers_cached_then_degree_then_smallest_id() {
        let pool = SharedFrontier::with_stripes(1, 8);
        pool.publish(NodeId(5), 100, 0);
        pool.publish(NodeId(6), 20, 0);
        pool.publish(NodeId(7), 20, 0);
        // A cached low-degree candidate beats an uncached high-degree one.
        let stolen = pool.steal(3, 0, |_| false, |u| u.0 >= 6).unwrap();
        assert_eq!(stolen.node, NodeId(6), "cached first, then smallest id");
        // With no cached candidates the highest degree wins.
        let stolen = pool.steal(3, 0, |_| false, |_| false).unwrap();
        assert_eq!(stolen.node, NodeId(5));
    }

    #[test]
    fn shared_frontier_capped_stripe_keeps_highest_degree() {
        let pool = SharedFrontier::with_stripes(1, 2);
        pool.publish(NodeId(1), 5, 0);
        pool.publish(NodeId(2), 9, 0);
        pool.publish(NodeId(3), 7, 0); // evicts degree-5 node 1
        pool.publish(NodeId(4), 1, 0); // too weak: dropped
        let mut degrees: Vec<usize> = pool.entries().iter().map(|e| e.degree).collect();
        degrees.sort_unstable();
        assert_eq!(degrees, vec![7, 9]);
    }

    #[test]
    fn shared_frontier_clones_share_the_pool() {
        let pool = SharedFrontier::new();
        let handle = pool.clone();
        handle.publish(NodeId(8), 3, 2);
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
        assert_eq!(pool.stripe_count(), 16);
        assert_eq!(
            pool.steal(0, 0, |_| false, |_| true).unwrap().node,
            NodeId(8)
        );
        assert!(handle.is_empty());
    }
}
