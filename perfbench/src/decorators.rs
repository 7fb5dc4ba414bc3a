//! Timing decorators around the layers' public seams, installed only in
//! traced passes. Each forwards every trait method unchanged, so a traced
//! run takes exactly the decisions an untraced one does; the workloads
//! check that by comparing trace fingerprints.

use osn_client::batch::{BatchLimits, BatchOsnClient, BatchOutcome, SubmitError, TicketId};
use osn_client::{BudgetExhausted, OsnClient, QueryStats};
use osn_graph::NodeId;
use osn_serde::Value;
use osn_walks::RandomWalk;
use rand::RngCore;

use crate::trace;

/// A [`BatchOsnClient`] whose `submit` and `poll` calls are timed.
pub struct TracedBatch<B> {
    inner: B,
}

impl<B> TracedBatch<B> {
    /// Wrap `inner`.
    pub fn new(inner: B) -> Self {
        TracedBatch { inner }
    }

    /// The wrapped endpoint, mutably (mutations bypass the timing).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Unwrap the endpoint.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: BatchOsnClient> BatchOsnClient for TracedBatch<B> {
    fn limits(&self) -> BatchLimits {
        self.inner.limits()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn submit(&mut self, ids: &[NodeId]) -> Result<TicketId, SubmitError> {
        trace::call("client.submit", || self.inner.submit(ids))
    }

    fn poll(&mut self) -> Option<BatchOutcome> {
        trace::call("client.poll", || self.inner.poll())
    }

    fn next_ready_at(&self) -> Option<f64> {
        self.inner.next_ready_at()
    }

    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        self.inner.peek_degree(u)
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.inner.peek_attribute(u, name)
    }

    fn is_cached(&self, u: NodeId) -> bool {
        self.inner.is_cached(u)
    }
}

/// A walker whose `step` and `invalidate_node` calls are timed; `step` is
/// recorded under `walks.step.<label>`.
pub struct TracedWalk {
    inner: Box<dyn RandomWalk + Send>,
    step_name: &'static str,
}

impl TracedWalk {
    /// Wrap `inner`, recording its steps under `step_name`.
    pub fn new(inner: Box<dyn RandomWalk + Send>, step_name: &'static str) -> Self {
        TracedWalk { inner, step_name }
    }
}

impl RandomWalk for TracedWalk {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn current(&self) -> NodeId {
        self.inner.current()
    }

    fn step(
        &mut self,
        client: &mut dyn OsnClient,
        rng: &mut dyn RngCore,
    ) -> Result<NodeId, BudgetExhausted> {
        trace::call(self.step_name, || self.inner.step(client, rng))
    }

    fn restart(&mut self, start: NodeId) {
        self.inner.restart(start);
    }

    fn export_state(&self) -> Value {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &Value) -> Result<(), String> {
        self.inner.import_state(state)
    }

    fn invalidate_node(&mut self, node: NodeId) -> usize {
        trace::call("walks.invalidate_node", || self.inner.invalidate_node(node))
    }
}
