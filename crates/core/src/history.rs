//! History state for circulated (without-replacement) transitions.
//!
//! CNRW's entire memory is the map `b(u, v)` (paper Algorithm 1): for every
//! directed edge `(u, v)` the walk has traversed, the neighbors of `v`
//! already chosen as outgoing transitions since the last reset. GNRW extends
//! this with a per-edge set of *groups* already attempted, `S(u, v)`
//! (Algorithm 2). This module exposes both behind a storage choice,
//! [`HistoryBackend`]:
//!
//! * **Legacy** — the layout the paper suggests ("a HashMap with initial
//!   value ∅"): one `FnvHashSet` of used neighbors per directed edge. Draws
//!   rejection-sample against the set (bounded by
//!   [`crate::circulation::MAX_REJECTION_ITERS`], falling back to an exact
//!   rank scan) and hash-probe once per candidate.
//! * **Arena** (default) — the [`crate::circulation`] engine: every hot
//!   edge owns a slice of one shared arena holding a permutation of its
//!   candidate population plus a cursor; a draw is one partial-Fisher–Yates
//!   step (one `gen_range`, one swap) and a reset is a cursor rewind. Cold
//!   edges stage through heap-free inline then spill states (`O(draws)`
//!   memory each) and promote only once the slice would cost at most
//!   [`crate::circulation::PROMOTION_SPAN`]` ×` their recorded draws — so
//!   arena memory stays `O(K)` (within that constant) even on heavy-tailed
//!   graphs.
//!
//! Both backends implement the same circulation semantics — each cycle
//! covers the population exactly once, the first pick of each cycle is
//! uniform — so Theorems 1–4 apply to either; they differ only in cost:
//!
//! Per-draw cost, on top of the one edge-key map lookup both layouts pay:
//!
//! | Operation | Legacy (hash set) | Arena (partial Fisher–Yates) |
//! |---|---|---|
//! | draw, pre-promotion (cold edge) | `O(1)` **expected** (rejection + hash probes) | `O(1)` **expected** (bounded rejection; inline probes are hash-free) |
//! | draw, promoted (hot edge) | — (never promotes) | `O(1)` **exact**, no membership hashing |
//! | draw, `≥ ½` population used | `O(deg)` rank scan | `O(1)` **exact** (half-used always promotes) |
//! | cycle reset | `O(deg)` set clear | `O(1)` cursor rewind |
//! | GNRW membership probe | hash lookup | hash lookup pre-promotion, array compare after |
//! | per-edge memory after `k` draws | `O(k)` set entries | `O(k)` inline/spill → slice `≤ PROMOTION_SPAN·k` once promoted |
//!
//! In both cases space grows by at most one entry per walk step between
//! resets, giving the `O(K)` bound of §3.3; the walker-facing accounting
//! ([`EdgeHistory::total_entries`], [`EdgeHistory::tracked_edges`]) is
//! backend-independent.

use osn_graph::NodeId;
use osn_serde::Value;
use rand::Rng;

use crate::circulation::{drop_targets, CirculationEngine, GroupEngine, MAX_REJECTION_ITERS};
pub use crate::circulation::{HistoryBackend, PlanEdgeView, INLINE_CAP};
use crate::fnv::{FnvHashMap, FnvHashSet};
use crate::groupplan::DrawBatch;

/// A without-replacement "circulation" over a fixed candidate population —
/// the **legacy** per-edge state (one hash set of used items).
///
/// Holds the set of already-used items; [`CirculationSet::draw`] picks
/// uniformly among the unused ones and records the pick, resetting
/// automatically once the whole population has been used. The population is
/// supplied at each draw (it is the neighbor list, owned by the graph) and
/// must be stable between resets — true for static snapshots.
#[derive(Clone, Debug, Default)]
pub struct CirculationSet {
    used: FnvHashSet<NodeId>,
}

impl CirculationSet {
    /// Number of items used since the last reset.
    pub fn used_len(&self) -> usize {
        self.used.len()
    }

    /// Whether `w` has been used since the last reset.
    pub fn contains(&self, w: NodeId) -> bool {
        self.used.contains(&w)
    }

    /// Draw uniformly at random from `population \ used`, record the draw,
    /// and reset once the population is exhausted (the draw completing the
    /// circulation triggers the reset, so the *next* draw sees a full
    /// population again).
    ///
    /// Returns `None` only for an empty population.
    pub fn draw<R: Rng + ?Sized>(&mut self, population: &[NodeId], rng: &mut R) -> Option<NodeId> {
        if population.is_empty() {
            return None;
        }
        debug_assert!(
            self.used.len() < population.len(),
            "invariant: used set resets before filling the population"
        );
        let remaining = population.len() - self.used.len();
        // Mostly-unused population: rejection sampling, O(1) expected —
        // acceptance is > 1/2, so the iteration cap (guarding against
        // adversarial RNG streams) is hit with probability
        // <= 2^-MAX_REJECTION_ITERS. Mostly-used: straight to the exact
        // O(len) rank scan (zero rejection proposals).
        let max_rejections = if self.used.len() * 2 < population.len() {
            MAX_REJECTION_ITERS
        } else {
            0
        };
        let pick = crate::circulation::draw_excluding(
            population,
            remaining,
            max_rejections,
            |w| self.used.contains(w),
            rng,
        );
        if self.used.len() + 1 == population.len() {
            self.used.clear(); // circulation complete -> reset (paper step 2)
        } else {
            self.used.insert(pick);
        }
        Some(pick)
    }
}

#[inline]
pub(crate) fn edge_key(u: NodeId, v: NodeId) -> u64 {
    (u64::from(u.0) << 32) | u64::from(v.0)
}

/// The nodes whose neighbor lists one batch of mutations changed, as a set
/// every history can probe — the argument of
/// [`RandomWalk::invalidate_nodes`](crate::RandomWalk::invalidate_nodes).
///
/// Built once per batch and shared by every walker of a fleet, so the
/// fleet pays one sweep per walker history (one probe per slot) instead of
/// one sweep per touched node. The constructor accepts any order and
/// duplicates; it sorts and deduplicates, which is what makes
/// [`contains`](Self::contains) exact — no caller-side precondition.
#[derive(Clone, Debug)]
pub struct TouchedNodes {
    /// Ascending, no duplicates.
    sorted: Vec<NodeId>,
    /// One bit per [`filter_bit`] value, set for every member: about 16
    /// bits per member, so one load rejects almost every non-member —
    /// which is almost every slot a sweep probes — before the binary
    /// search.
    filter: Vec<u64>,
    /// `32 − log2(filter bits)`.
    shift: u32,
}

/// Filter bit of `v`: the top bits of a multiplicative hash, so ids that
/// share low bits still spread.
#[inline]
fn filter_bit(v: NodeId, shift: u32) -> usize {
    (v.0.wrapping_mul(0x9E37_79B9) >> shift) as usize
}

impl TouchedNodes {
    /// The set of `nodes`, in any order, duplicates allowed.
    pub fn new(nodes: &[NodeId]) -> Self {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let log2_bits = sorted
            .len()
            .saturating_mul(16)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(6, 31);
        let shift = 32 - log2_bits;
        let mut filter = vec![0u64; 1 << (log2_bits - 6)];
        for &v in &sorted {
            let b = filter_bit(v, shift);
            filter[b / 64] |= 1 << (b % 64);
        }
        TouchedNodes {
            sorted,
            filter,
            shift,
        }
    }

    /// Whether `node` is in the set: one filter load, then a binary search
    /// for the few that pass it.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let b = filter_bit(node, self.shift);
        self.filter[b / 64] & (1 << (b % 64)) != 0 && self.sorted.binary_search(&node).is_ok()
    }

    /// The members, ascending, each once.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.sorted.iter().copied()
    }
}

/// CNRW's full history: `(u, v) -> b(u, v)`, behind a [`HistoryBackend`].
///
/// Keys are directed edges packed into a `u64`; the node-keyed ablation
/// walker reuses the same structure with `u = v`.
#[derive(Clone, Debug)]
pub struct EdgeHistory {
    backend: EdgeBackend,
}

#[derive(Clone, Debug)]
enum EdgeBackend {
    Legacy(FnvHashMap<u64, CirculationSet>),
    Arena(CirculationEngine),
}

impl Default for EdgeHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeHistory {
    /// New empty history on the default (arena) backend.
    pub fn new() -> Self {
        Self::with_backend(HistoryBackend::default())
    }

    /// New empty history on the chosen backend.
    pub fn with_backend(backend: HistoryBackend) -> Self {
        let backend = match backend {
            HistoryBackend::Legacy => EdgeBackend::Legacy(FnvHashMap::default()),
            HistoryBackend::Arena => EdgeBackend::Arena(CirculationEngine::new()),
        };
        EdgeHistory { backend }
    }

    /// Which backend this history runs on.
    pub fn backend(&self) -> HistoryBackend {
        match &self.backend {
            EdgeBackend::Legacy(_) => HistoryBackend::Legacy,
            EdgeBackend::Arena(_) => HistoryBackend::Arena,
        }
    }

    /// Draw the next transition for directed edge `(u, v)` uniformly from
    /// the unused part of `population`, creating the edge's circulation
    /// state on first touch. Returns `None` only for an empty population.
    ///
    /// `population` must be identical across draws of the same edge (true
    /// for static snapshots).
    pub fn draw<R: Rng + ?Sized>(
        &mut self,
        u: NodeId,
        v: NodeId,
        population: &[NodeId],
        rng: &mut R,
    ) -> Option<NodeId> {
        if population.is_empty() {
            return None; // never create state for a dead-end probe
        }
        let key = edge_key(u, v);
        match &mut self.backend {
            EdgeBackend::Legacy(map) => map.entry(key).or_default().draw(population, rng),
            EdgeBackend::Arena(engine) => engine.draw(key, population, rng),
        }
    }

    /// Used-item count of edge `(u, v)`'s current cycle, or `None` if the
    /// edge has no live state. Never creates state (read-only probe).
    pub fn get_used_len(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let key = edge_key(u, v);
        match &self.backend {
            EdgeBackend::Legacy(map) => map.get(&key).map(CirculationSet::used_len),
            EdgeBackend::Arena(engine) => engine.used_len(key),
        }
    }

    /// Number of directed edges with live history.
    pub fn tracked_edges(&self) -> usize {
        match &self.backend {
            EdgeBackend::Legacy(map) => map.len(),
            EdgeBackend::Arena(engine) => engine.tracked(),
        }
    }

    /// Total number of recorded used-entries across all edges (the `O(K)`
    /// quantity of §3.3).
    pub fn total_entries(&self) -> usize {
        match &self.backend {
            EdgeBackend::Legacy(map) => map.values().map(CirculationSet::used_len).sum(),
            EdgeBackend::Arena(engine) => engine.total_entries(),
        }
    }

    /// Drop all history (the walker becomes memoryless again). Slab
    /// allocations are kept for reuse: on the arena backend the arena
    /// buffer survives at full capacity (see
    /// [`CirculationEngine::clear`](crate::circulation::CirculationEngine::clear)),
    /// so a restarted walk re-promotes without re-allocating.
    pub fn clear(&mut self) {
        match &mut self.backend {
            EdgeBackend::Legacy(map) => map.clear(),
            EdgeBackend::Arena(engine) => engine.clear(),
        }
    }

    /// Allocated arena capacity in entries (`None` on the legacy backend,
    /// which has no arena). Unchanged by [`Self::clear`] — the observable
    /// of the restart slab-reuse contract.
    pub fn arena_capacity(&self) -> Option<usize> {
        match &self.backend {
            EdgeBackend::Legacy(_) => None,
            EdgeBackend::Arena(engine) => Some(engine.arena_capacity()),
        }
    }

    /// Drop the circulation state of every directed edge `(*, v)` with `v`
    /// accepted by `is_touched` — every key whose population is such an
    /// `N(v)`. The evolving-graph invalidation rule: after a mutation at
    /// `v`, the old circulations tracked subsets of a population that no
    /// longer exists, so they are dropped and Theorem 4's exactly-once
    /// coverage restarts on the post-mutation neighborhood. One pass over
    /// the history, however many nodes the predicate accepts. Returns the
    /// number of edges dropped.
    pub fn invalidate_targets(&mut self, is_touched: impl Fn(NodeId) -> bool) -> usize {
        let is_touched = |v: u32| is_touched(NodeId(v));
        match &mut self.backend {
            EdgeBackend::Legacy(map) => drop_targets(map, is_touched),
            EdgeBackend::Arena(engine) => engine.invalidate_targets(is_touched),
        }
    }

    /// Serialize the full history (backend tag + per-edge state) to a
    /// [`Value`] tree. [`import_state`](Self::import_state) restores it
    /// exactly, so a resumed walker continues **bit-identically** on the
    /// same RNG stream. Edges are sorted by key; legacy used-sets are
    /// membership-only and serialize sorted.
    pub fn export_state(&self) -> Value {
        match &self.backend {
            EdgeBackend::Legacy(map) => {
                let mut edges: Vec<(u64, &CirculationSet)> =
                    map.iter().map(|(&k, s)| (k, s)).collect();
                edges.sort_unstable_by_key(|&(k, _)| k);
                let edges: Vec<Value> = edges
                    .into_iter()
                    .map(|(key, set)| {
                        let mut used: Vec<u64> = set.used.iter().map(|n| u64::from(n.0)).collect();
                        used.sort_unstable();
                        Value::obj([
                            ("key", Value::Uint(key)),
                            (
                                "used",
                                Value::Arr(used.into_iter().map(Value::Uint).collect()),
                            ),
                        ])
                    })
                    .collect();
                Value::obj([
                    ("backend", Value::Str("legacy".into())),
                    ("edges", Value::Arr(edges)),
                ])
            }
            EdgeBackend::Arena(engine) => Value::obj([
                ("backend", Value::Str("arena".into())),
                ("engine", engine.export_state()),
            ]),
        }
    }

    /// Rebuild a history from [`export_state`](Self::export_state) output.
    ///
    /// # Errors
    /// Returns a message when the tree is malformed, names an unknown
    /// backend, or fails the engine's consistency checks.
    pub fn import_state(state: &Value) -> Result<Self, String> {
        let backend = match state.field("backend")?.as_str()? {
            "legacy" => {
                let mut map: FnvHashMap<u64, CirculationSet> = FnvHashMap::default();
                for entry in state.field("edges")?.as_array()? {
                    let key: u64 = entry.field("key")?.decode()?;
                    let used: FnvHashSet<NodeId> = entry
                        .field("used")?
                        .decode::<Vec<u32>>()?
                        .into_iter()
                        .map(NodeId)
                        .collect();
                    if map.insert(key, CirculationSet { used }).is_some() {
                        return Err(format!("duplicate edge key {key}"));
                    }
                }
                EdgeBackend::Legacy(map)
            }
            "arena" => EdgeBackend::Arena(CirculationEngine::import_state(state.field("engine")?)?),
            other => return Err(format!("unknown history backend `{other}`")),
        };
        Ok(EdgeHistory { backend })
    }
}

/// Per-edge GNRW state on the **legacy** backend (paper Algorithm 2 / §4.1
/// steps 1–4).
///
/// * `used_nodes` is the **global** `b(u, v)`: every neighbor chosen in the
///   current super-cycle; it resets when it reaches `N(v)`. This global
///   circulation is what guarantees every neighbor is chosen exactly once
///   per super-cycle and hence preserves the stationary distribution
///   (Theorem 4) for *any* group sizes.
/// * `used_groups` is `S(u, v)`: the groups attempted in the current group
///   sub-cycle; it resets whenever no un-attempted group still has unvisited
///   members (and along with `used_nodes` at super-cycle end). The group
///   circulation only shapes the *order* in which the super-cycle covers
///   `N(v)` — the stratified alternation of Figure 5.
#[derive(Clone, Debug, Default)]
pub struct GnrwEdgeState {
    /// Global without-replacement set `b(u, v)` over `N(v)`.
    pub used_nodes: FnvHashSet<NodeId>,
    /// Groups attempted in the current sub-cycle, `S(u, v)`.
    pub used_groups: FnvHashSet<u64>,
}

/// Read-only summary of one edge's GNRW state (what a non-creating probe
/// can tell without exposing backend internals).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupEdgeSnapshot {
    /// Neighbors chosen in the current super-cycle (`|b(u, v)|`).
    pub used_nodes: usize,
    /// Groups attempted in the current sub-cycle (`|S(u, v)|`).
    pub attempted_groups: usize,
}

/// GNRW's full history: `(u, v) -> (b(u, v), S(u, v))`, behind a
/// [`HistoryBackend`].
#[derive(Clone, Debug)]
pub struct GroupHistory {
    backend: GroupBackend,
}

#[derive(Clone, Debug)]
enum GroupBackend {
    Legacy(FnvHashMap<u64, GnrwEdgeState>),
    Arena(GroupEngine),
}

impl Default for GroupHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl GroupHistory {
    /// New empty history on the default (arena) backend.
    pub fn new() -> Self {
        Self::with_backend(HistoryBackend::default())
    }

    /// New empty history on the chosen backend.
    pub fn with_backend(backend: HistoryBackend) -> Self {
        let backend = match backend {
            HistoryBackend::Legacy => GroupBackend::Legacy(FnvHashMap::default()),
            HistoryBackend::Arena => GroupBackend::Arena(GroupEngine::default()),
        };
        GroupHistory { backend }
    }

    /// Which backend this history runs on.
    pub fn backend(&self) -> HistoryBackend {
        match &self.backend {
            GroupBackend::Legacy(_) => HistoryBackend::Legacy,
            GroupBackend::Arena(_) => HistoryBackend::Arena,
        }
    }

    /// Mutable view of directed edge `(u, v)`'s state, created on first
    /// touch. `population_len` (`|N(v)|`) must be stable across visits.
    pub fn edge_view(&mut self, u: NodeId, v: NodeId, population_len: usize) -> GroupEdgeView<'_> {
        let key = edge_key(u, v);
        match &mut self.backend {
            GroupBackend::Legacy(map) => GroupEdgeView::Legacy {
                state: map.entry(key).or_default(),
                population_len,
            },
            GroupBackend::Arena(engine) => GroupEdgeView::Arena(engine.view(key, population_len)),
        }
    }

    /// Mutable plan-path view of directed edge `(u, v)`'s state (the GNRW
    /// fast path over a [`GroupPlan`](crate::groupplan::GroupPlan) —
    /// see [`PlanEdgeView`]). `groups` must be the plan slice of `v`,
    /// identical across visits.
    ///
    /// # Panics
    /// Panics on the legacy backend (plan slots are an arena-engine
    /// representation; the walker enforces Arena for alias mode) and if the
    /// edge already holds scratch-path state.
    pub fn plan_view(
        &mut self,
        u: NodeId,
        v: NodeId,
        groups: &crate::groupplan::NodeGroups<'_>,
    ) -> PlanEdgeView<'_> {
        let key = edge_key(u, v);
        match &mut self.backend {
            GroupBackend::Legacy(_) => {
                panic!("plan-path GNRW state requires the arena backend")
            }
            GroupBackend::Arena(engine) => engine.plan_view(key, groups),
        }
    }

    /// The state of `(u, v)` if it exists. Never creates state — use this
    /// (not [`edge_view`](Self::edge_view)) for read-only probes.
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<GroupEdgeSnapshot> {
        let key = edge_key(u, v);
        match &self.backend {
            GroupBackend::Legacy(map) => map.get(&key).map(|s| GroupEdgeSnapshot {
                used_nodes: s.used_nodes.len(),
                attempted_groups: s.used_groups.len(),
            }),
            GroupBackend::Arena(engine) => {
                engine
                    .probe(key)
                    .map(|(used_nodes, attempted_groups)| GroupEdgeSnapshot {
                        used_nodes,
                        attempted_groups,
                    })
            }
        }
    }

    /// Number of directed edges with live state.
    pub fn tracked_edges(&self) -> usize {
        match &self.backend {
            GroupBackend::Legacy(map) => map.len(),
            GroupBackend::Arena(engine) => engine.tracked(),
        }
    }

    /// Total recorded node entries across all edges (the `O(K)` quantity).
    pub fn total_entries(&self) -> usize {
        match &self.backend {
            GroupBackend::Legacy(map) => map.values().map(|s| s.used_nodes.len()).sum(),
            GroupBackend::Arena(engine) => engine.total_entries(),
        }
    }

    /// Drop all history, keeping slab allocations for reuse (see
    /// [`EdgeHistory::clear`]).
    pub fn clear(&mut self) {
        match &mut self.backend {
            GroupBackend::Legacy(map) => map.clear(),
            GroupBackend::Arena(engine) => engine.clear(),
        }
    }

    /// Allocated arena capacity in entries (`None` on the legacy backend).
    /// Unchanged by [`Self::clear`].
    pub fn arena_capacity(&self) -> Option<usize> {
        match &self.backend {
            GroupBackend::Legacy(_) => None,
            GroupBackend::Arena(engine) => Some(engine.arena_capacity()),
        }
    }

    /// Drop the state of every directed edge `(*, v)` with `v` accepted by
    /// `is_touched`, in one pass — the evolving-graph invalidation rule,
    /// mirroring [`EdgeHistory::invalidate_targets`]. Plan-backed slots for
    /// a touched `v` are dropped here and lazily rebuilt from the plan on
    /// the next visit. Returns the number of edges dropped.
    pub fn invalidate_targets(&mut self, is_touched: impl Fn(NodeId) -> bool) -> usize {
        let is_touched = |v: u32| is_touched(NodeId(v));
        match &mut self.backend {
            GroupBackend::Legacy(map) => drop_targets(map, is_touched),
            GroupBackend::Arena(engine) => engine.invalidate_targets(is_touched),
        }
    }

    /// Serialize the full history (backend tag + per-edge state) to a
    /// [`Value`] tree; the [`EdgeHistory::export_state`] contract (sorted
    /// keys, bit-identical resume) applies.
    pub fn export_state(&self) -> Value {
        match &self.backend {
            GroupBackend::Legacy(map) => {
                let mut edges: Vec<(u64, &GnrwEdgeState)> =
                    map.iter().map(|(&k, s)| (k, s)).collect();
                edges.sort_unstable_by_key(|&(k, _)| k);
                let edges: Vec<Value> = edges
                    .into_iter()
                    .map(|(key, state)| {
                        let mut nodes: Vec<u64> =
                            state.used_nodes.iter().map(|n| u64::from(n.0)).collect();
                        nodes.sort_unstable();
                        let mut groups: Vec<u64> = state.used_groups.iter().copied().collect();
                        groups.sort_unstable();
                        Value::obj([
                            ("key", Value::Uint(key)),
                            (
                                "nodes",
                                Value::Arr(nodes.into_iter().map(Value::Uint).collect()),
                            ),
                            (
                                "groups",
                                Value::Arr(groups.into_iter().map(Value::Uint).collect()),
                            ),
                        ])
                    })
                    .collect();
                Value::obj([
                    ("backend", Value::Str("legacy".into())),
                    ("edges", Value::Arr(edges)),
                ])
            }
            GroupBackend::Arena(engine) => Value::obj([
                ("backend", Value::Str("arena".into())),
                ("engine", engine.export_state()),
            ]),
        }
    }

    /// Rebuild a history from [`export_state`](Self::export_state) output.
    ///
    /// # Errors
    /// Returns a message when the tree is malformed, names an unknown
    /// backend, or fails the engine's consistency checks.
    pub fn import_state(state: &Value) -> Result<Self, String> {
        let backend = match state.field("backend")?.as_str()? {
            "legacy" => {
                let mut map: FnvHashMap<u64, GnrwEdgeState> = FnvHashMap::default();
                for entry in state.field("edges")?.as_array()? {
                    let key: u64 = entry.field("key")?.decode()?;
                    let used_nodes: FnvHashSet<NodeId> = entry
                        .field("nodes")?
                        .decode::<Vec<u32>>()?
                        .into_iter()
                        .map(NodeId)
                        .collect();
                    let used_groups: FnvHashSet<u64> = entry
                        .field("groups")?
                        .decode::<Vec<u64>>()?
                        .into_iter()
                        .collect();
                    let state = GnrwEdgeState {
                        used_nodes,
                        used_groups,
                    };
                    if map.insert(key, state).is_some() {
                        return Err(format!("duplicate edge key {key}"));
                    }
                }
                GroupBackend::Legacy(map)
            }
            "arena" => GroupBackend::Arena(GroupEngine::import_state(state.field("engine")?)?),
            other => return Err(format!("unknown history backend `{other}`")),
        };
        Ok(GroupHistory { backend })
    }
}

/// Backend-agnostic mutable view of one edge's GNRW state: the probes and
/// updates `Gnrw::step` needs, dispatched without exposing storage.
pub enum GroupEdgeView<'a> {
    /// Borrowed legacy hash-set state.
    Legacy {
        /// The per-edge `(b(u, v), S(u, v))` sets.
        state: &'a mut GnrwEdgeState,
        /// `|N(v)|`, needed to detect super-cycle completion on record.
        population_len: usize,
    },
    /// Borrowed arena slice state.
    Arena(crate::circulation::ArenaGroupView<'a>),
}

impl GroupEdgeView<'_> {
    /// Has the neighbor at population index `idx` (node `node`) been chosen
    /// in the current super-cycle?
    #[inline]
    pub fn is_used(&self, idx: usize, node: NodeId) -> bool {
        match self {
            GroupEdgeView::Legacy { state, .. } => state.used_nodes.contains(&node),
            GroupEdgeView::Arena(view) => view.is_used(idx),
        }
    }

    /// Nodes chosen so far in the current super-cycle.
    pub fn used_count(&self) -> usize {
        match self {
            GroupEdgeView::Legacy { state, .. } => state.used_nodes.len(),
            GroupEdgeView::Arena(view) => view.used_count(),
        }
    }

    /// Has `group` been attempted in the current group sub-cycle?
    pub fn group_attempted(&self, group: u64) -> bool {
        match self {
            GroupEdgeView::Legacy { state, .. } => state.used_groups.contains(&group),
            GroupEdgeView::Arena(view) => view.group_attempted(group),
        }
    }

    /// Reset the group sub-cycle (`S(u, v) <- ∅`).
    pub fn clear_attempted(&mut self) {
        match self {
            GroupEdgeView::Legacy { state, .. } => state.used_groups.clear(),
            GroupEdgeView::Arena(view) => view.clear_attempted(),
        }
    }

    /// Pick the `rank`-th unvisited member of a group, where `members` are
    /// local population indices and `nodes` the full `N(v)` slice, drawing
    /// `rank` from `batch` over `remaining` candidates. Returns
    /// `(local index, node)`.
    ///
    /// This is the member-selection step of plan-backed
    /// [`PlanMode::Exact`](crate::groupplan::PlanMode::Exact) GNRW, shared
    /// by both backends: each call consumes exactly one `u64` under the
    /// same `gen_range` reduction as the scratch path's rank draw, so both
    /// backends — and the scratch walker — see identical RNG streams.
    pub fn pick_member(
        &self,
        members: &[u32],
        nodes: &[NodeId],
        remaining: usize,
        batch: &mut DrawBatch,
        rng: &mut dyn rand::RngCore,
    ) -> (usize, NodeId) {
        debug_assert!(remaining > 0);
        let mut rank = batch.range(remaining, rng);
        members
            .iter()
            .map(|&m| (m as usize, nodes[m as usize]))
            .filter(|&(idx, node)| !self.is_used(idx, node))
            .find(|_| {
                if rank == 0 {
                    true
                } else {
                    rank -= 1;
                    false
                }
            })
            .expect("rank < remaining unvisited members")
    }

    /// Record the choice of the neighbor at population index `idx` (node
    /// `node`) from `group`, resetting the super-cycle once `N(v)` is
    /// covered.
    pub fn record(&mut self, idx: usize, node: NodeId, group: u64) {
        match self {
            GroupEdgeView::Legacy {
                state,
                population_len,
            } => {
                state.used_groups.insert(group);
                state.used_nodes.insert(node);
                if state.used_nodes.len() == *population_len {
                    state.used_nodes.clear();
                    state.used_groups.clear();
                }
            }
            GroupEdgeView::Arena(view) => view.record(idx, group),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn pop(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    const BOTH: [HistoryBackend; 2] = [HistoryBackend::Legacy, HistoryBackend::Arena];

    #[test]
    fn touched_nodes_membership_is_exact_for_any_input() {
        // Unsorted input with repeats, at sizes on both sides of the
        // filter's 64-bit floor.
        for len in [0u32, 1, 3, 50, 5_000] {
            let mut rng = ChaCha12Rng::seed_from_u64(u64::from(len));
            let nodes: Vec<NodeId> = (0..2 * len)
                .map(|_| NodeId(rng.gen_range(0..=4 * len)))
                .collect();
            let set = TouchedNodes::new(&nodes);
            let want: std::collections::BTreeSet<NodeId> = nodes.iter().copied().collect();
            assert!(set.iter().eq(want.iter().copied()), "len {len}");
            for v in (0..8 * len + 64).map(NodeId) {
                assert_eq!(set.contains(v), want.contains(&v), "len {len}, node {v:?}");
            }
        }
        let ends = TouchedNodes::new(&[NodeId(u32::MAX), NodeId(0), NodeId(u32::MAX)]);
        assert!(ends.iter().eq([NodeId(0), NodeId(u32::MAX)]));
        assert!(ends.contains(NodeId(u32::MAX)) && !ends.contains(NodeId(1)));
    }

    #[test]
    fn draw_covers_population_each_cycle() {
        for backend in BOTH {
            let mut rng = ChaCha12Rng::seed_from_u64(1);
            let population = pop(7);
            let mut h = EdgeHistory::with_backend(backend);
            for cycle in 0..5 {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..population.len() {
                    let d = h.draw(NodeId(0), NodeId(1), &population, &mut rng).unwrap();
                    assert!(seen.insert(d), "duplicate within cycle {cycle} ({backend})");
                }
                assert_eq!(seen.len(), 7);
            }
        }
    }

    #[test]
    fn reset_happens_on_completion() {
        for backend in BOTH {
            let mut rng = ChaCha12Rng::seed_from_u64(2);
            let population = pop(3);
            let mut h = EdgeHistory::with_backend(backend);
            for _ in 0..3 {
                h.draw(NodeId(0), NodeId(1), &population, &mut rng).unwrap();
            }
            // After a full cycle the state must be reset, not full.
            assert_eq!(h.total_entries(), 0, "{backend}");
            assert_eq!(h.get_used_len(NodeId(0), NodeId(1)), Some(0));
        }
    }

    #[test]
    fn empty_population_returns_none() {
        for backend in BOTH {
            let mut rng = ChaCha12Rng::seed_from_u64(3);
            let mut h = EdgeHistory::with_backend(backend);
            assert_eq!(h.draw(NodeId(0), NodeId(1), &[], &mut rng), None);
            assert_eq!(h.tracked_edges(), 0, "{backend}");
        }
    }

    #[test]
    fn singleton_population_always_draws_it() {
        for backend in BOTH {
            let mut rng = ChaCha12Rng::seed_from_u64(4);
            let population = pop(1);
            let mut h = EdgeHistory::with_backend(backend);
            for _ in 0..10 {
                assert_eq!(
                    h.draw(NodeId(0), NodeId(1), &population, &mut rng),
                    Some(NodeId(0))
                );
            }
        }
    }

    #[test]
    fn draws_are_uniform_over_first_pick() {
        // The first draw of each cycle must be uniform over the population.
        for backend in BOTH {
            let population = pop(4);
            let mut counts = [0usize; 4];
            for seed in 0..4000u64 {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let mut h = EdgeHistory::with_backend(backend);
                let d = h.draw(NodeId(0), NodeId(1), &population, &mut rng).unwrap();
                counts[d.index()] += 1;
            }
            for &c in &counts {
                assert!(c > 850 && c < 1150, "count {c} not uniform ({backend})");
            }
        }
    }

    #[test]
    fn edge_history_separates_directed_edges() {
        for backend in BOTH {
            let mut rng = ChaCha12Rng::seed_from_u64(5);
            let mut h = EdgeHistory::with_backend(backend);
            let population = pop(5);
            let a = h.draw(NodeId(0), NodeId(1), &population, &mut rng);
            assert!(a.is_some());
            // The reverse edge has independent, empty history; probing it
            // must not create state.
            assert_eq!(h.get_used_len(NodeId(1), NodeId(0)), None);
            assert_eq!(h.tracked_edges(), 1, "{backend}");
            assert_eq!(h.total_entries(), 1);
            h.clear();
            assert_eq!(h.tracked_edges(), 0);
        }
    }

    #[test]
    fn group_history_separates_directed_edges() {
        for backend in BOTH {
            let mut h = GroupHistory::with_backend(backend);
            {
                let mut view = h.edge_view(NodeId(0), NodeId(1), 4);
                view.record(2, NodeId(5), 42);
                assert!(view.group_attempted(42));
                assert!(view.is_used(2, NodeId(5)));
            }
            // Read-only probe of the reverse edge: no state is created.
            assert_eq!(h.get(NodeId(1), NodeId(0)), None);
            assert_eq!(h.tracked_edges(), 1, "{backend}");
            assert_eq!(h.total_entries(), 1);
            assert_eq!(
                h.get(NodeId(0), NodeId(1)),
                Some(GroupEdgeSnapshot {
                    used_nodes: 1,
                    attempted_groups: 1
                })
            );
            h.clear();
            assert_eq!(h.tracked_edges(), 0);
        }
    }

    #[test]
    fn rank_scan_path_exercised() {
        // Force the used set above half to hit the legacy rank-scan branch
        // (and the promoted fast path on the arena backend).
        for backend in BOTH {
            let mut rng = ChaCha12Rng::seed_from_u64(7);
            let population = pop(10);
            let mut h = EdgeHistory::with_backend(backend);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..10 {
                seen.insert(h.draw(NodeId(0), NodeId(1), &population, &mut rng).unwrap());
            }
            assert_eq!(seen.len(), 10, "{backend}");
        }
    }

    #[test]
    fn backends_agree_on_accounting() {
        // Identical draw schedules on both backends must report identical
        // tracked-edge and total-entry accounting at every step (the O(K)
        // bookkeeping is storage-independent).
        let populations: Vec<Vec<NodeId>> = vec![pop(1), pop(3), pop(6), pop(17)];
        let mut legacy = EdgeHistory::with_backend(HistoryBackend::Legacy);
        let mut arena = EdgeHistory::with_backend(HistoryBackend::Arena);
        let mut rng_l = ChaCha12Rng::seed_from_u64(8);
        let mut rng_a = ChaCha12Rng::seed_from_u64(8);
        let mut schedule = ChaCha12Rng::seed_from_u64(9);
        for _ in 0..400 {
            let e = schedule.gen_range(0..populations.len());
            let (u, v) = (NodeId(e as u32), NodeId(e as u32 + 1));
            legacy.draw(u, v, &populations[e], &mut rng_l).unwrap();
            arena.draw(u, v, &populations[e], &mut rng_a).unwrap();
            assert_eq!(legacy.tracked_edges(), arena.tracked_edges());
            assert_eq!(legacy.total_entries(), arena.total_entries());
            assert_eq!(legacy.get_used_len(u, v), arena.get_used_len(u, v));
        }
    }

    #[test]
    fn legacy_rejection_cap_falls_back_to_exact_scan() {
        // An adversarial RNG that always proposes the same candidate: the
        // bounded rejection loop must cap out and the rank-scan fallback
        // still produce a valid unused item.
        struct StuckRng;
        impl rand::RngCore for StuckRng {
            fn next_u32(&mut self) -> u32 {
                0
            }
            fn next_u64(&mut self) -> u64 {
                // Every proposal is index 0; the rejection loop must cap
                // out, and the rank scan (rank 0) then picks the first
                // *unused* item deterministically.
                0
            }
        }
        let population = pop(9);
        let mut c = CirculationSet::default();
        // Mark index 0 used so every proposal of the stuck RNG is rejected.
        c.used.insert(NodeId(0));
        let got = c.draw(&population, &mut StuckRng).unwrap();
        assert_ne!(got, NodeId(0), "fallback must skip the used item");
    }
}
