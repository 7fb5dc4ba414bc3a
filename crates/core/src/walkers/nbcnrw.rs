//! Non-backtracking circulated walk (NB-CNRW) — paper §5 extension.

use osn_client::{BudgetExhausted, OsnClient};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::RngCore;

use crate::history::{EdgeHistory, HistoryBackend, TouchedNodes};
use crate::walker::{check_backend, prev_from_value, prev_to_value, uniform_pick, RandomWalk};

/// Non-backtracking CNRW — the §5 discussion's composition of the circulated
/// transition rule with NB-SRW \[11\]:
///
/// > "Upon visiting `u → v`, instead of sampling the next node with
/// > replacement from `N(v) \ u` (like in NB-SRW), we would sample it
/// > without replacement from `N(v) \ u`."
///
/// The circulation therefore runs over the non-backtracking candidate set;
/// at degree-1 dead ends the forced backtrack applies as in NB-SRW.
pub struct NbCnrw {
    prev: Option<NodeId>,
    current: NodeId,
    history: EdgeHistory,
    scratch: Vec<NodeId>,
}

impl NbCnrw {
    /// Start a walk at `start` on the default (arena) history backend.
    pub fn new(start: NodeId) -> Self {
        Self::with_backend(start, HistoryBackend::default())
    }

    /// Start a walk at `start` with an explicit history backend.
    pub fn with_backend(start: NodeId, backend: HistoryBackend) -> Self {
        NbCnrw {
            prev: None,
            current: start,
            history: EdgeHistory::with_backend(backend),
            scratch: Vec::new(),
        }
    }

    /// Which history backend this walker runs on.
    pub fn backend(&self) -> HistoryBackend {
        self.history.backend()
    }

    /// Total recorded history entries (memory-profile metric).
    pub fn history_entries(&self) -> usize {
        self.history.total_entries()
    }
}

impl RandomWalk for NbCnrw {
    fn name(&self) -> &str {
        "NB-CNRW"
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
        {
            let neighbors = client.neighbors(v)?;
            if neighbors.is_empty() {
                return Ok(v);
            }
            self.scratch.clear();
            self.scratch.extend_from_slice(neighbors);
        }
        let next = match self.prev {
            None => uniform_pick(&self.scratch, rng),
            Some(u) => {
                if self.scratch.len() == 1 {
                    self.scratch[0] // dead end: forced backtrack
                } else {
                    // Candidate population N(v) \ {u}, circulated per (u,v).
                    self.scratch.retain(|&w| w != u);
                    self.history
                        .draw(u, v, &self.scratch, rng)
                        .expect("non-empty candidate set")
                }
            }
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
        // `scratch` is per-step transient state, rebuilt from the neighbor
        // list at the top of every step — not part of the snapshot.
        Value::obj([
            ("prev", prev_to_value(self.prev)),
            ("current", Value::Uint(u64::from(self.current.0))),
            ("history", self.history.export_state()),
        ])
    }

    fn import_state(&mut self, state: &Value) -> Result<(), String> {
        let history_state = state.field("history")?;
        check_backend(history_state, self.backend())?;
        let prev = prev_from_value(state.field("prev")?)?;
        let current = NodeId(state.field("current")?.decode()?);
        let history = EdgeHistory::import_state(history_state)?;
        self.prev = prev;
        self.current = current;
        self.history = history;
        Ok(())
    }

    fn invalidate_node(&mut self, node: NodeId) -> usize {
        self.history.invalidate_targets(|v| v == node)
    }

    fn invalidate_nodes(&mut self, nodes: &TouchedNodes) -> usize {
        // The circulated population for `(u, v)` is `N(v) \ {u}` — a
        // function of `N(v)`, so the same target rule applies.
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

    fn dense_client() -> SimulatedOsn {
        // 6-node graph, min degree 2.
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .add_edge(4, 5)
            .add_edge(5, 0)
            .add_edge(0, 3)
            .add_edge(1, 4)
            .build()
            .unwrap();
        SimulatedOsn::from_graph(g)
    }

    #[test]
    fn never_backtracks_on_min_degree_two() {
        let mut client = dense_client();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut w = NbCnrw::new(NodeId(0));
        let mut prev = w.current();
        let mut curr = w.step(&mut client, &mut rng).unwrap();
        for _ in 0..1000 {
            let next = w.step(&mut client, &mut rng).unwrap();
            assert_ne!(next, prev);
            prev = curr;
            curr = next;
        }
    }

    #[test]
    fn dead_end_backtracks() {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build()
            .unwrap();
        let mut client = SimulatedOsn::from_graph(g);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut w = NbCnrw::new(NodeId(1));
        let end = w.step(&mut client, &mut rng).unwrap();
        let back = w.step(&mut client, &mut rng).unwrap();
        assert_eq!(back, NodeId(1));
        assert!(end == NodeId(0) || end == NodeId(2));
    }

    #[test]
    fn circulates_over_non_backtracking_set() {
        // From 0->1, candidates are N(1) \ {0} = {2,3,4}; consecutive
        // choices after repeated 0->1 transits must be permutations of
        // {2,3,4} in windows of 3 — on both history backends.
        for backend in [HistoryBackend::Legacy, HistoryBackend::Arena] {
            let mut b = GraphBuilder::new();
            b.push_edge(0, 1);
            b.push_edge(1, 2);
            b.push_edge(1, 3);
            b.push_edge(1, 4);
            b.push_edge(2, 0);
            b.push_edge(3, 0);
            b.push_edge(4, 0);
            // Extra edges so the walk can reach 0->1 without backtracking.
            b.push_edge(2, 3);
            b.push_edge(3, 4);
            let mut client = SimulatedOsn::from_graph(b.build().unwrap());
            let mut rng = ChaCha12Rng::seed_from_u64(2);
            let mut w = NbCnrw::with_backend(NodeId(0), backend);
            assert_eq!(w.backend(), backend);
            let mut after = Vec::new();
            let mut prev = w.current();
            for _ in 0..8000 {
                let curr = w.step(&mut client, &mut rng).unwrap();
                if prev == NodeId(0) && curr == NodeId(1) {
                    let nxt = w.step(&mut client, &mut rng).unwrap();
                    after.push(nxt);
                    prev = nxt;
                    continue;
                }
                prev = curr;
            }
            assert!(after.len() >= 6, "transits ({backend}): {}", after.len());
            for win in after.chunks_exact(3) {
                let mut ids: Vec<u32> = win.iter().map(|n| n.0).collect();
                ids.sort_unstable();
                assert_eq!(ids, vec![2, 3, 4], "window ({backend}) {win:?}");
            }
        }
    }

    #[test]
    fn stationary_matches_degree_distribution() {
        let mut client = dense_client();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut w = NbCnrw::new(NodeId(0));
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
        let mut w = NbCnrw::new(NodeId(0));
        w.restart(NodeId(5));
        assert_eq!(w.current(), NodeId(5));
        assert_eq!(w.history_entries(), 0);
        assert_eq!(w.name(), "NB-CNRW");
    }
}
