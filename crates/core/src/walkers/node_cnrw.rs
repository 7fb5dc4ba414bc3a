//! Node-keyed circulated walk — the §3.2 ablation.
//!
//! The paper chooses **edge-based** recurrence (`b(u, v)` keyed by the
//! incoming directed edge) over **node-based** recurrence (`b(v)` keyed by
//! the current node only) and argues the choice matters: edge-rooted path
//! blocks are longer, so their contents are closer to identically
//! distributed, and the stratification lemma then cuts more variance. The
//! supporting experiments were "not included in this paper due to space
//! limitations" — this walker exists so we can run them (see the
//! `ablation_circulation` experiment and bench).
//!
//! Node-based circulation still preserves the stationary distribution (each
//! full cycle through `b(v)` emits every neighbor of `v` exactly once, so
//! the per-visit marginal stays uniform), but mixes the circulation state of
//! *all* incoming directions, making consecutive same-context choices less
//! evenly spread.

use osn_client::{BudgetExhausted, OsnClient};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::RngCore;

use crate::history::{EdgeHistory, TouchedNodes};
use crate::walker::RandomWalk;

/// CNRW variant with **node-keyed** history `b(v)` (ablation of §3.2's
/// edge-based design decision).
///
/// Storage reuses [`EdgeHistory`] with the degenerate key `(v, v)`, so the
/// ablation walker runs on the same circulation engine as CNRW proper.
#[derive(Clone, Debug, Default)]
pub struct NodeCnrw {
    current: NodeId,
    history: EdgeHistory,
}

impl NodeCnrw {
    /// Start a walk at `start`.
    pub fn new(start: NodeId) -> Self {
        NodeCnrw {
            current: start,
            history: EdgeHistory::new(),
        }
    }

    /// Total recorded history entries.
    pub fn history_entries(&self) -> usize {
        self.history.total_entries()
    }
}

impl RandomWalk for NodeCnrw {
    fn name(&self) -> &str {
        "CNRW-node"
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
        let next = self
            .history
            .draw(v, v, neighbors, rng)
            .expect("non-empty neighbor list");
        self.current = next;
        Ok(next)
    }

    fn restart(&mut self, start: NodeId) {
        self.current = start;
        self.history.clear();
    }

    fn export_state(&self) -> Value {
        Value::obj([
            ("current", Value::Uint(u64::from(self.current.0))),
            ("history", self.history.export_state()),
        ])
    }

    fn import_state(&mut self, state: &Value) -> Result<(), String> {
        let current = NodeId(state.field("current")?.decode()?);
        let history = EdgeHistory::import_state(state.field("history")?)?;
        self.current = current;
        self.history = history;
        Ok(())
    }

    fn invalidate_node(&mut self, node: NodeId) -> usize {
        self.history.invalidate_targets(|v| v == node)
    }

    fn invalidate_nodes(&mut self, nodes: &TouchedNodes) -> usize {
        // Node-keyed history packs `(v, v)`, so the low-word rule matches.
        self.history.invalidate_targets(|v| nodes.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_client::SimulatedOsn;
    use osn_graph::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn ring_with_hub() -> SimulatedOsn {
        // 5-ring plus hub 5 connected to all.
        let mut b = GraphBuilder::new();
        for i in 0..5u32 {
            b.push_edge(i, (i + 1) % 5);
            b.push_edge(i, 5);
        }
        SimulatedOsn::from_graph(b.build().unwrap())
    }

    #[test]
    fn per_node_circulation_covers_neighbors() {
        // Every visit to the hub draws without replacement from its 5
        // neighbors regardless of where the walk came from.
        let mut client = ring_with_hub();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut w = NodeCnrw::new(NodeId(5));
        let mut after_hub = Vec::new();
        for _ in 0..6000 {
            let before = w.current();
            let v = w.step(&mut client, &mut rng).unwrap();
            if before == NodeId(5) {
                after_hub.push(v);
            }
        }
        assert!(after_hub.len() > 25);
        for win in after_hub.chunks_exact(5) {
            let mut ids: Vec<u32> = win.iter().map(|n| n.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3, 4], "hub cycle {win:?}");
        }
    }

    #[test]
    fn stationary_matches_degree_distribution() {
        let mut client = ring_with_hub();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut w = NodeCnrw::new(NodeId(0));
        let steps = 120_000;
        let mut visits = [0usize; 6];
        for _ in 0..steps {
            visits[w.step(&mut client, &mut rng).unwrap().index()] += 1;
        }
        let pi = client.graph().degree_stationary_distribution();
        for (i, &c) in visits.iter().enumerate() {
            let freq = c as f64 / steps as f64;
            assert!(
                (freq - pi[i]).abs() < 0.015,
                "node {i}: {freq} vs {}",
                pi[i]
            );
        }
    }

    #[test]
    fn restart_clears() {
        let mut client = ring_with_hub();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut w = NodeCnrw::new(NodeId(0));
        // Circulation sets reset whenever a cycle completes, so a fixed
        // step count can coincidentally land on all-empty; walk until some
        // history is live.
        let mut saw_history = false;
        for _ in 0..200 {
            w.step(&mut client, &mut rng).unwrap();
            if w.history_entries() > 0 {
                saw_history = true;
                break;
            }
        }
        assert!(saw_history);
        w.restart(NodeId(3));
        assert_eq!(w.history_entries(), 0);
        assert_eq!(w.current(), NodeId(3));
        assert_eq!(w.name(), "CNRW-node");
    }
}
