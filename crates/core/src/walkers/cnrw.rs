//! Circulated Neighbors Random Walk (CNRW) — paper §3.

use osn_client::{BudgetExhausted, OsnClient};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::RngCore;

use crate::circulation::HistoryBackend;
use crate::history::{EdgeHistory, TouchedNodes};
use crate::walker::{prev_from_value, prev_to_value, uniform_pick, RandomWalk};

/// Circulated Neighbors Random Walk (paper §3, Algorithm 1).
///
/// Identical to SRW except that, given the incoming transition `u → v`, the
/// next node is sampled from `N(v)` **without replacement**: per directed
/// edge `(u, v)` the walker remembers the set `b(u, v)` of neighbors already
/// chosen and excludes them until every neighbor of `v` has been attempted
/// once, at which point the memory resets and the circulation starts over.
///
/// Properties proved in the paper:
///
/// * **Theorem 1** — same stationary distribution as SRW, `k_v / 2|E|`,
///   regardless of topology (so CNRW is a drop-in replacement);
/// * **Theorem 2** — asymptotic variance never larger than SRW's, for any
///   measurement function `f` and any topology;
/// * **Theorem 3** — on a barbell graph the probability of escaping a bell
///   improves over SRW by a factor exceeding `(|G1|/(|G1|-1)) ln |G1|`.
///
/// The first step of a walk has no incoming edge; it is performed as a plain
/// SRW step (the paper assumes `x0 = u, x1 = v` are given).
///
/// Space: `O(K)` after `K` steps. Per-step cost is exactly `O(1)` on a
/// promoted edge and `O(1)` expected on a cold one (see
/// [`crate::circulation`]).
#[derive(Clone, Debug)]
pub struct Cnrw {
    prev: Option<NodeId>,
    current: NodeId,
    history: EdgeHistory,
}

impl Cnrw {
    /// Start a walk at `start`.
    pub fn new(start: NodeId) -> Self {
        Cnrw {
            prev: None,
            current: start,
            history: EdgeHistory::new(),
        }
    }

    /// [`Self::new`], for callers that still pass the [`HistoryBackend`]
    /// shim; the value is ignored.
    pub fn with_backend(start: NodeId, _backend: HistoryBackend) -> Self {
        Self::new(start)
    }

    /// The live history size (number of recorded outgoing choices) — the
    /// `O(K)` quantity of §3.3, exposed for the memory-profile experiments.
    pub fn history_entries(&self) -> usize {
        self.history.total_entries()
    }

    /// Number of directed edges with live circulation state.
    pub fn tracked_edges(&self) -> usize {
        self.history.tracked_edges()
    }

    /// Allocated history-arena capacity in entries. [`RandomWalk::restart`]
    /// keeps this unchanged — the slab is reused, not re-allocated.
    pub fn arena_capacity(&self) -> usize {
        self.history.arena_capacity()
    }
}

impl RandomWalk for Cnrw {
    fn name(&self) -> &str {
        "CNRW"
    }

    fn current(&self) -> NodeId {
        self.current
    }

    fn step(
        &mut self,
        client: &mut dyn OsnClient,
        rng: &mut dyn RngCore,
    ) -> Result<NodeId, BudgetExhausted> {
        let v = self.current;
        let neighbors = client.neighbors(v)?;
        if neighbors.is_empty() {
            return Ok(v);
        }
        let next = match self.prev {
            // No incoming edge yet: plain SRW choice.
            None => uniform_pick(neighbors, rng),
            Some(u) => self
                .history
                .draw(u, v, neighbors, rng)
                .expect("non-empty neighbor list"),
        };
        self.prev = Some(v);
        self.current = next;
        Ok(next)
    }

    fn restart(&mut self, start: NodeId) {
        self.prev = None;
        self.current = start;
        self.history.clear();
    }

    fn export_state(&self) -> Value {
        Value::obj([
            ("prev", prev_to_value(self.prev)),
            ("current", Value::Uint(u64::from(self.current.0))),
            ("history", self.history.export_state()),
        ])
    }

    fn import_state(&mut self, state: &Value) -> Result<(), String> {
        let prev = prev_from_value(state.field("prev")?)?;
        let current = NodeId(state.field("current")?.decode()?);
        let history = EdgeHistory::import_state(state.field("history")?)?;
        self.prev = prev;
        self.current = current;
        self.history = history;
        Ok(())
    }

    fn invalidate_node(&mut self, node: NodeId) -> usize {
        self.history.invalidate_targets(|v| v == node)
    }

    fn invalidate_nodes(&mut self, nodes: &TouchedNodes) -> usize {
        self.history.invalidate_targets(|v| nodes.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_client::SimulatedOsn;
    use osn_graph::generators::barbell;
    use osn_graph::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn star_plus_ring() -> SimulatedOsn {
        // Hub 0 connected to 1..=5, plus ring closing 1-2-3-4-5-1.
        let mut b = GraphBuilder::new();
        for i in 1..=5 {
            b.push_edge(0, i);
            b.push_edge(i, if i == 5 { 1 } else { i + 1 });
        }
        SimulatedOsn::from_graph(b.build().unwrap())
    }

    #[test]
    fn circulation_covers_all_neighbors_before_repeat() {
        // Force repeated transits of the same directed edge and check the
        // outgoing choices circulate.
        let g = GraphBuilder::new()
            .add_edge(0, 1) // edge to circulate: 0 -> 1
            .add_edge(1, 2)
            .add_edge(1, 3)
            .add_edge(1, 4)
            .add_edge(2, 0)
            .add_edge(3, 0)
            .add_edge(4, 0)
            .build()
            .unwrap();
        let mut client = SimulatedOsn::from_graph(g);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut w = Cnrw::new(NodeId(0));

        // Walk long enough to transit 0->1 many times; collect the node
        // chosen immediately after each 0->1 transit.
        let mut after: Vec<NodeId> = Vec::new();
        let mut prev = w.current();
        for _ in 0..4000 {
            let curr = w.step(&mut client, &mut rng).unwrap();
            if prev == NodeId(0) && curr == NodeId(1) {
                let nxt = w.step(&mut client, &mut rng).unwrap();
                after.push(nxt);
                prev = nxt;
                continue;
            }
            prev = curr;
        }
        assert!(after.len() >= 12, "too few transits: {}", after.len());
        // Every consecutive window of 4 choices must cover all of N(1) =
        // {0, 2, 3, 4} exactly once (alternating path blocks, Fig. 3).
        for chunk in after.chunks_exact(4) {
            let mut set: Vec<u32> = chunk.iter().map(|n| n.0).collect();
            set.sort_unstable();
            assert_eq!(set, vec![0, 2, 3, 4], "window not a permutation: {chunk:?}");
        }
    }

    #[test]
    fn traces_are_seed_stable() {
        let run = || {
            let mut client = star_plus_ring();
            let mut rng = ChaCha12Rng::seed_from_u64(17);
            let mut w = Cnrw::new(NodeId(0));
            (0..500)
                .map(|_| w.step(&mut client, &mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stationary_matches_srw_target() {
        let mut client = star_plus_ring();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut w = Cnrw::new(NodeId(0));
        let steps = 120_000;
        let mut visits = vec![0usize; client.graph().node_count()];
        for _ in 0..steps {
            visits[w.step(&mut client, &mut rng).unwrap().index()] += 1;
        }
        let pi = client.graph().degree_stationary_distribution();
        for (i, &c) in visits.iter().enumerate() {
            let freq = c as f64 / steps as f64;
            assert!(
                (freq - pi[i]).abs() < 0.015,
                "node {i}: freq {freq} vs pi {}",
                pi[i]
            );
        }
    }

    #[test]
    fn escapes_barbell_faster_than_srw() {
        // Theorem 3's phenomenon: starting inside one bell, CNRW reaches the
        // other bell sooner than SRW (the long-run bridge-crossing *rate* is
        // identical by stationarity — the gain is in the hitting time).
        let g = barbell(12, 12).unwrap();
        let trials = 1200;
        let cap = 20_000;

        let mean_escape = |make: &dyn Fn() -> Box<dyn RandomWalk>| -> f64 {
            let mut total = 0usize;
            for t in 0..trials {
                let mut walker = make();
                let mut client = SimulatedOsn::from_graph(g.clone());
                let mut rng = ChaCha12Rng::seed_from_u64(1000 + t as u64);
                let mut steps = cap;
                for s in 1..=cap {
                    let v = walker.step(&mut client, &mut rng).unwrap();
                    if v.index() >= 12 {
                        steps = s;
                        break;
                    }
                }
                total += steps;
            }
            total as f64 / trials as f64
        };

        let srw_t = mean_escape(&|| Box::new(crate::walkers::Srw::new(NodeId(0))));
        let cnrw_t = mean_escape(&|| Box::new(Cnrw::new(NodeId(0))));
        // The hitting-time gain at this scale is modest (the circulated
        // exclusion only bites on repeat transits of the same directed
        // edge); what must hold is a statistically clear improvement.
        assert!(
            cnrw_t < srw_t * 0.95,
            "CNRW mean escape {cnrw_t:.1} not clearly below SRW {srw_t:.1}"
        );
    }

    #[test]
    fn history_grows_linearly_with_steps() {
        let mut client = star_plus_ring();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut w = Cnrw::new(NodeId(0));
        for _ in 0..100 {
            w.step(&mut client, &mut rng).unwrap();
        }
        // Each step records at most one entry (minus resets and the first).
        assert!(w.history_entries() <= 100);
        assert!(w.tracked_edges() > 0);
    }

    #[test]
    fn restart_clears_history() {
        let mut client = star_plus_ring();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut w = Cnrw::new(NodeId(0));
        for _ in 0..50 {
            w.step(&mut client, &mut rng).unwrap();
        }
        w.restart(NodeId(2));
        assert_eq!(w.history_entries(), 0);
        assert_eq!(w.tracked_edges(), 0);
        assert_eq!(w.current(), NodeId(2));
    }

    #[test]
    fn budget_error_leaves_walker_unchanged() {
        let g = star_plus_ring();
        let mut client = osn_client::BudgetedClient::new(g, 1, 6);
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut w = Cnrw::new(NodeId(0));
        w.step(&mut client, &mut rng).unwrap(); // consumes the only budget
        let at = w.current();
        // Next step needs a new node's neighbors -> budget error.
        let r = w.step(&mut client, &mut rng);
        if r.is_err() {
            assert_eq!(w.current(), at);
        }
    }
}
