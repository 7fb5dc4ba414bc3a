//! The object-safe walker trait.

use osn_client::{BudgetExhausted, OsnClient};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::RngCore;

use crate::history::TouchedNodes;

/// A random walk over an online social network accessed through the
/// restricted interface.
///
/// The trait is object-safe on purpose: experiment harnesses hold a
/// `Vec<Box<dyn RandomWalk>>` and treat every algorithm identically — the
/// concrete embodiment of the paper's claim that CNRW/GNRW are *drop-in
/// replacements* for SRW.
///
/// A step may issue any number of interface queries (one for all walkers in
/// this crate; MHRW additionally peeks the proposal's metadata). When a
/// budget wrapper cuts the walk off, [`step`](Self::step) returns
/// [`BudgetExhausted`] and the walker is left at its pre-step position, so
/// the collected trace stays valid.
pub trait RandomWalk {
    /// Short algorithm name for reports and plots (e.g. `"CNRW"`).
    fn name(&self) -> &str;

    /// The node the walk currently occupies.
    fn current(&self) -> NodeId;

    /// Perform one transition, returning the node arrived at.
    ///
    /// # Errors
    /// [`BudgetExhausted`] if the underlying client refuses the neighbor
    /// query; the walker state is unchanged in that case.
    fn step(
        &mut self,
        client: &mut dyn OsnClient,
        rng: &mut dyn RngCore,
    ) -> Result<NodeId, BudgetExhausted>;

    /// Restart the walk at `start`, clearing **all** history (for CNRW/GNRW
    /// this resets every `b(u,v)` / `S(u,v)` map — a fresh walk).
    fn restart(&mut self, start: NodeId);

    /// Serialize the walker's resumable state (position, predecessor,
    /// circulation history) to a [`Value`] tree.
    ///
    /// Construction-time configuration — the algorithm, the grouping
    /// strategy or plan — is **not** part of the state: the
    /// [`import_state`](Self::import_state) contract is that the receiver
    /// was constructed from the same spec. Given that, a snapshot taken
    /// after `k` steps and restored into a fresh walker continues
    /// **bit-identically** with the original on the same RNG stream.
    fn export_state(&self) -> Value;

    /// Restore state captured by [`export_state`](Self::export_state) into
    /// this walker (which must have been constructed from the same spec —
    /// same algorithm, same grouping).
    ///
    /// # Errors
    /// Returns a message when the tree is malformed or does not match this
    /// walker's configuration (e.g. buffered draws offered to a walker that
    /// never buffers). The walker is left unchanged on error.
    fn import_state(&mut self, state: &Value) -> Result<(), String>;

    /// Notify the walker that `node`'s neighbor list changed (an edge
    /// incident to it was inserted or deleted through a
    /// [`osn_graph::DeltaOverlay`]). History-keeping walkers drop the
    /// circulation state of every edge that draws from `N(node)`, so
    /// Theorem 4's exactly-once coverage restarts on the post-mutation
    /// neighborhood; memoryless walkers (SRW, MHRW, NB-SRW) need no action
    /// — the default is a no-op. Returns the number of per-edge histories
    /// dropped.
    ///
    /// This is the one-node case of [`invalidate_nodes`](Self::invalidate_nodes),
    /// which is what fleets call: a walker that keeps history overrides
    /// both, as the same sweep over its state. A wrapper (a tracing or
    /// budget decorator) may override only this method — the default
    /// `invalidate_nodes` forwards here, node by node.
    fn invalidate_node(&mut self, _node: NodeId) -> usize {
        0
    }

    /// Batched [`invalidate_node`](Self::invalidate_node): drop the history
    /// drawn from `N(v)` for every `v` in `nodes`, returning the total
    /// dropped — always equal to calling `invalidate_node` once per member,
    /// and leaving the same state.
    ///
    /// The default forwards to `invalidate_node` for each member, which
    /// costs one pass over the walker's history per node. History-keeping
    /// walkers (CNRW, NB-CNRW, node-keyed CNRW, GNRW) override it to make a
    /// single pass whatever `nodes` holds; a new history-keeping walker
    /// should override both methods the same way.
    fn invalidate_nodes(&mut self, nodes: &TouchedNodes) -> usize {
        nodes.iter().map(|v| self.invalidate_node(v)).sum()
    }
}

/// Shared helper: uniform choice from a non-empty slice.
#[inline]
pub(crate) fn uniform_pick<R: rand::Rng + ?Sized>(items: &[NodeId], rng: &mut R) -> NodeId {
    debug_assert!(!items.is_empty());
    items[rng.gen_range(0..items.len())]
}

/// Encode an optional predecessor node (`prev` of order-2 walkers): the
/// node id, or [`Value::Null`] before the first step.
pub(crate) fn prev_to_value(prev: Option<NodeId>) -> Value {
    match prev {
        Some(n) => Value::Uint(u64::from(n.0)),
        None => Value::Null,
    }
}

/// Decode [`prev_to_value`] output.
pub(crate) fn prev_from_value(value: &Value) -> Result<Option<NodeId>, String> {
    match value {
        Value::Null => Ok(None),
        other => Ok(Some(NodeId(other.decode::<u32>()?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_pick_is_uniform() {
        let items: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            counts[uniform_pick(&items, &mut rng).index()] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "count {c}");
        }
    }
}
