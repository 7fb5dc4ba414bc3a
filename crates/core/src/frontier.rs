//! The shared frontier pool, built on the idea of frontier sampling
//! (Ribeiro & Towsley, SIGCOMM 2010 — the paper's \[17\]).
//!
//! A frontier sampler keeps `m` walker positions and advances one chosen
//! with probability proportional to its degree, which makes it far less
//! sensitive to where it started. [`SharedFrontier`] transplants that
//! insight into the multi-walker orchestrator (`crate::orchestrator`):
//! cooperating walkers **publish** the high-degree nodes they walk through
//! into a striped pool, and a walker whose own neighborhood has gone
//! sterile **steals** a position discovered by another walker instead of
//! burning budget where coverage is saturated. Degree-biased retention
//! mirrors the frontier sampler's degree-proportional position choice. The
//! stripes are a retention rule, not locks: each keeps its own
//! highest-degree candidates, so the pool's contents are a deterministic
//! function of the publish sequence.

use std::cell::RefCell;
use std::rc::Rc;

use osn_graph::NodeId;

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

/// One stripe of the frontier pool: a small degree-ordered set of
/// candidates, deduplicated by node.
#[derive(Clone, Debug, Default)]
struct FrontierStripe {
    entries: Vec<FrontierEntry>,
}

/// Striped pool of restart candidates shared by cooperating walkers.
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
/// Clones share one pool (the handle is an `Rc`).
#[derive(Clone, Debug)]
pub struct SharedFrontier {
    stripes: Rc<RefCell<Vec<FrontierStripe>>>,
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
        let pool = vec![FrontierStripe::default(); stripes.max(1)];
        SharedFrontier {
            stripes: Rc::new(RefCell::new(pool)),
            per_stripe_cap: per_stripe_cap.max(1),
        }
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.borrow().len()
    }

    /// Offer `(node, degree)` discovered by walker `owner` to the pool.
    /// Kept if its stripe has room or `degree` beats the stripe's weakest
    /// retained candidate; re-publishing an already-pooled node refreshes
    /// nothing (first discoverer keeps ownership).
    pub fn publish(&self, node: NodeId, degree: usize, owner: usize) {
        let mut stripes = self.stripes.borrow_mut();
        let count = stripes.len() as u64;
        let stripe = &mut stripes[(osn_graph::fnv::hash_node_id(node.0) % count) as usize];
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
        let mut stripes = self.stripes.borrow_mut();
        let mut best: Option<(bool, usize, std::cmp::Reverse<u32>)> = None;
        let mut at = (0, 0);
        for (s, stripe) in stripes.iter().enumerate() {
            for (i, e) in stripe.entries.iter().enumerate() {
                if e.owner == thief || e.degree < min_degree || reject(e.node) {
                    continue;
                }
                let key = (cached(e.node), e.degree, std::cmp::Reverse(e.node.0));
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                    at = (s, i);
                }
            }
        }
        best?;
        Some(stripes[at.0].entries.swap_remove(at.1))
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
        for stripe in self.stripes.borrow().iter() {
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
        let stripes = self.stripes.borrow();
        stripes
            .iter()
            .flat_map(|s| s.entries.iter().copied())
            .collect()
    }

    /// Total pooled candidates.
    pub fn len(&self) -> usize {
        self.stripes.borrow().iter().map(|s| s.entries.len()).sum()
    }

    /// Whether the pool holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
