//! Arena-backed partial-Fisher–Yates circulation engine.
//!
//! This is the storage layer behind [`crate::history`]: the per-edge
//! without-replacement "circulation" state of CNRW (Algorithm 1) and GNRW
//! (Algorithm 2), reworked from one-hash-set-per-edge into compact,
//! index-based layouts that make the steady-state per-draw hot path
//! **exactly `O(1)`** — no rejection loop, no rank scan, and zero hashing
//! *inside* a promoted circulation. (Locating the edge's state still costs
//! the one packed-edge-key map lookup per draw that every layout pays; what
//! the arena removes is the per-candidate membership hashing within it.)
//!
//! ## Layout
//!
//! All touched edges of one walker share a single arena (`Vec<NodeId>` for
//! the node engine, two `Vec<u32>` for the group engine). Each promoted edge
//! owns a contiguous slice of it holding a permutation of the edge's
//! candidate population, plus a cursor:
//!
//! ```text
//! arena:  [ .. | d  a  c  b | .. ]      slice of edge (u, v), len = 4
//!                      ^cursor = 2      a, d used this cycle; c, b unused
//! ```
//!
//! A draw is one *partial Fisher–Yates* step: pick a uniform position in the
//! unused suffix `[cursor, len)`, swap it to `cursor`, advance the cursor —
//! one `gen_range`, one swap, no membership test. When the cursor reaches
//! `len` the circulation is complete and reset is a cursor rewind to `0`
//! (the slice already holds a permutation of the population, so the next
//! cycle draws from the full population again).
//!
//! ## Staged states and the `O(K)` space bound
//!
//! Most directed edges of a long walk are transited only a handful of
//! times, and a promoted slice costs `O(deg)` regardless of how few draws
//! it served — so promoting eagerly would break the paper's `O(K)` history
//! bound (§3.3) on heavy-tailed graphs. Per-edge state therefore moves
//! through three stages, each `O(draws recorded)`:
//!
//! 1. **Inline** — up to [`INLINE_CAP`] used node ids in a fixed array
//!    stored directly in the map slot (no heap allocation at all); draws
//!    use bounded rejection sampling against the tiny array.
//! 2. **Spill** — a hash set of used ids, one entry per draw (the legacy
//!    layout, `O(1)` expected draws), entered only when the inline array
//!    fills before the edge qualifies for promotion.
//! 3. **Promoted** — the arena slice. An edge is promoted once it has at
//!    least `promotion_threshold` recorded draws (tunable, see
//!    [`CirculationEngine::with_threshold`]) **and** the slice would cost
//!    at most [`PROMOTION_SPAN`]` × draws` — or unconditionally once half
//!    its population is used, where the slice costs `≤ 2 × draws` and the
//!    legacy layout would start degrading to rank scans.
//!
//! Promotion preserves the already-used set, so the drawn coverage of a
//! cycle is independent of the threshold; and since a slice never exceeds
//! `PROMOTION_SPAN ×` the draws recorded on its edge, total memory stays
//! `O(K)` after `K` steps (within that constant), matching the legacy
//! backend's bound.
//!
//! The [`GroupEngine`] used by GNRW applies the same staging: a small
//! hash-set stage (exactly the legacy probes GNRW would otherwise do)
//! until the edge earns its slices, then `O(1)` array-compare membership —
//! the probe GNRW issues `deg` times per step — via the inverse
//! permutation.

use osn_graph::NodeId;
use osn_serde::Value;
use rand::{Rng, RngCore};

use crate::fnv::{FnvHashMap, FnvHashSet};
use crate::groupplan::{AliasTable, DrawBatch, NodeGroups};

/// Which storage backs the per-edge circulation history of a walker.
///
/// Both backends realize the same without-replacement semantics (same
/// per-cycle coverage, same uniform marginals, same stationary distribution)
/// but consume RNG differently, so traces are seed-stable *per backend*, not
/// bit-identical across backends. The `walker_throughput` and
/// `history_backends` benches ablate one against the other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HistoryBackend {
    /// The paper's suggested layout: a `HashMap` keyed by the directed edge
    /// whose values are hash *sets* of used neighbors. Draws rejection-sample
    /// (bounded, falling back to a rank scan) and probe the set per
    /// candidate.
    Legacy,
    /// Arena-backed partial Fisher–Yates (the default): each hot edge owns
    /// a slice of a shared arena plus a cursor; a draw is one `gen_range`
    /// and one swap — exactly `O(1)`, with no hashing beyond the edge-key
    /// lookup — while cold edges stay in `O(draws)` inline/spill states.
    #[default]
    Arena,
}

impl HistoryBackend {
    /// Both backends, in ablation order — the single definition every
    /// backend-comparison matrix (benches, `repro perf`, tests) iterates.
    pub const ALL: [HistoryBackend; 2] = [HistoryBackend::Legacy, HistoryBackend::Arena];

    /// Short lowercase label for bench/series names (`"legacy"`/`"arena"`).
    pub fn label(&self) -> &'static str {
        match self {
            HistoryBackend::Legacy => "legacy",
            HistoryBackend::Arena => "arena",
        }
    }
}

impl std::fmt::Display for HistoryBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Capacity of the inline (pre-spill) used-item array, and therefore the
/// hard upper bound on [`CirculationEngine`] promotion thresholds.
pub const INLINE_CAP: usize = 8;

/// Maximum ratio between a promoted slice's length and the draws recorded
/// on its edge at promotion time. This is what keeps arena memory `O(K)`:
/// every promoted `deg`-sized slice is backed by at least `deg / SPAN`
/// recorded draws, so the arena never exceeds `SPAN × steps` entries.
pub const PROMOTION_SPAN: usize = 8;

/// Iteration cap for every rejection-sampling draw loop in this crate.
///
/// Acceptance is kept at ≥ ½ by the half-used promotion/scan rules, so 32
/// failed candidates has probability ≤ 2⁻³²; the cap exists to bound the
/// worst case on adversarial RNG streams, falling back to an exact
/// `O(population)` rank scan.
pub const MAX_REJECTION_ITERS: usize = 32;

/// Uniform draw from the items of `population` not matched by `is_used`
/// (`remaining` of them): up to `max_rejections` rejection-sampling
/// proposals, then an exact rank scan. The single implementation behind
/// every pre-promotion draw path — inline, spill, and the legacy
/// [`crate::history::CirculationSet`] (which passes `max_rejections = 0`
/// on half-used populations to go straight to the scan).
pub(crate) fn draw_excluding<R: Rng + ?Sized>(
    population: &[NodeId],
    remaining: usize,
    max_rejections: usize,
    is_used: impl Fn(&NodeId) -> bool,
    rng: &mut R,
) -> NodeId {
    debug_assert!(remaining > 0 && remaining <= population.len());
    for _ in 0..max_rejections {
        let cand = population[rng.gen_range(0..population.len())];
        if !is_used(&cand) {
            return cand;
        }
    }
    let mut rank = rng.gen_range(0..remaining);
    *population
        .iter()
        .filter(|w| !is_used(w))
        .find(|_| {
            if rank == 0 {
                true
            } else {
                rank -= 1;
                false
            }
        })
        .expect("rank < remaining unused items")
}

/// Does an edge with `used` recorded draws out of a `plen`-item population
/// qualify for promotion (given a configured minimum of `threshold` draws)?
///
/// Promotion requires the slice to cost at most [`PROMOTION_SPAN`]` × used`
/// — the `O(K)` guard — except at the half-used point (`slice ≤ 2 × used`),
/// where it is always worthwhile: that is exactly where hash-set layouts
/// start degrading. The completing draw of a cycle never promotes (the
/// state resets instead).
#[inline]
fn promotable(used: usize, plen: usize, threshold: usize) -> bool {
    used + 1 < plen && (2 * used >= plen || (used >= threshold && plen <= PROMOTION_SPAN * used))
}

/// Remove every entry of a per-edge state map whose circulated node — the
/// key's low 32 bits — `is_touched` accepts, in one pass; returns how many
/// were removed. The single invalidation sweep behind both engines and the
/// legacy history maps.
pub(crate) fn drop_targets<S>(
    slots: &mut FnvHashMap<u64, S>,
    is_touched: impl Fn(u32) -> bool,
) -> usize {
    let before = slots.len();
    slots.retain(|&key, _| !is_touched(key as u32));
    before - slots.len()
}

/// Per-edge state of the node engine: staged from inline through spill to
/// an owned arena slice (see the module docs).
#[derive(Clone, Debug)]
enum Slot {
    /// Up to `INLINE_CAP` used node ids, stored in place.
    Inline { used: [NodeId; INLINE_CAP], len: u8 },
    /// Used ids in a hash set — `O(draws)` memory for edges whose
    /// population is too large to promote yet.
    Spill(FnvHashSet<NodeId>),
    /// `arena[start..start + len]` is a permutation of the population;
    /// positions `< cursor` are used this cycle.
    Promoted { start: u32, len: u32, cursor: u32 },
}

impl Slot {
    fn used_len(&self) -> usize {
        match self {
            Slot::Inline { len, .. } => usize::from(*len),
            Slot::Spill(set) => set.len(),
            Slot::Promoted { cursor, .. } => *cursor as usize,
        }
    }
}

/// The arena-backed circulation engine for node circulations (`b(u, v)` of
/// Algorithm 1), shared by every edge one walker has touched.
///
/// Keys are opaque `u64`s (packed directed edges for CNRW/NB-CNRW, node ids
/// for the node-keyed ablation). The population for a key is supplied at
/// each draw — it is the neighbor list, owned by the graph — and must be
/// identical across draws of the same key (true for static snapshots).
#[derive(Clone, Debug)]
pub struct CirculationEngine {
    slots: FnvHashMap<u64, Slot>,
    arena: Vec<NodeId>,
    promotion_threshold: usize,
}

impl Default for CirculationEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CirculationEngine {
    /// Engine with the default promotion threshold ([`INLINE_CAP`] draws).
    pub fn new() -> Self {
        Self::with_threshold(INLINE_CAP)
    }

    /// Engine with a custom minimum draw count before an edge may be
    /// promoted to an arena slice (clamped to `1..=INLINE_CAP`). Lower
    /// thresholds reach the `O(1)`-exact draw path earlier; the drawn
    /// coverage per cycle is the same for every threshold, and the
    /// [`PROMOTION_SPAN`] memory guard applies regardless.
    pub fn with_threshold(threshold: usize) -> Self {
        CirculationEngine {
            slots: FnvHashMap::default(),
            arena: Vec::new(),
            promotion_threshold: threshold.clamp(1, INLINE_CAP),
        }
    }

    /// The configured promotion threshold.
    pub fn promotion_threshold(&self) -> usize {
        self.promotion_threshold
    }

    /// Number of keys with live circulation state.
    pub fn tracked(&self) -> usize {
        self.slots.len()
    }

    /// Total used-items across all keys (the `O(K)` accounting quantity of
    /// §3.3 — identical to the legacy backend's set-size sum).
    pub fn total_entries(&self) -> usize {
        self.slots.values().map(Slot::used_len).sum()
    }

    /// Used-item count for `key`, or `None` if the key has no state. Never
    /// creates state (read-only probe).
    pub fn used_len(&self, key: u64) -> Option<usize> {
        self.slots.get(&key).map(Slot::used_len)
    }

    /// Drop all state, **keeping the slab allocations**: the arena's
    /// backing buffer and the slot map's buckets are retained at their
    /// current capacity so the next walk re-promotes into already-owned
    /// memory. This is the contract `RandomWalk::restart` relies on — a
    /// restarted walker must not re-allocate its history from scratch
    /// (pinned by `arena_slab_is_reused_across_restarts` in
    /// `tests/circulation_props.rs`, via [`Self::arena_capacity`]).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.arena.clear();
    }

    /// Allocated capacity of the shared arena, in entries. Survives
    /// [`Self::clear`] unchanged — the no-re-allocation observable of the
    /// slab-reuse contract.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Drop every slot whose circulation population is the neighbor list of
    /// a node `is_touched` accepts — the evolving-graph invalidation hook.
    /// Keys pack the circulated node in the **low 32 bits** (`edge_key(u,
    /// v)` draws from `N(v)`; the node-keyed ablation packs `(v, v)`), so a
    /// mutation at `v` invalidates exactly the keys with low word `v`.
    /// Dropping (rather than rewinding) is required for correctness: a
    /// promoted slot's arena permutation materializes the *old* population,
    /// and both its length and contents are stale after the mutation.
    ///
    /// One pass over the slot map, whatever the number of touched nodes:
    /// `O(slots)` predicate probes. Returns the number of slots dropped.
    /// Arena slices of dropped promoted slots leak until the next
    /// [`Self::clear`] — bounded by [`PROMOTION_SPAN`], same as
    /// re-promotion churn.
    pub fn invalidate_targets(&mut self, is_touched: impl Fn(u32) -> bool) -> usize {
        drop_targets(&mut self.slots, is_touched)
    }

    /// Serialize the engine's full state to a [`Value`] tree for
    /// snapshot/resume.
    ///
    /// Arena contents and promoted cursors are exported **verbatim** — the
    /// slice permutation determines every future draw, so a resumed engine
    /// continues bit-identically on the same RNG stream. Spill sets are
    /// membership-only and serialize sorted; slots are sorted by key, making
    /// the export a deterministic function of the engine state.
    pub fn export_state(&self) -> Value {
        let mut slots: Vec<(u64, &Slot)> = self.slots.iter().map(|(&k, s)| (k, s)).collect();
        slots.sort_unstable_by_key(|&(k, _)| k);
        let slots: Vec<Value> = slots
            .into_iter()
            .map(|(key, slot)| match slot {
                Slot::Inline { used, len } => Value::obj([
                    ("key", Value::Uint(key)),
                    ("kind", Value::Str("inline".into())),
                    (
                        "used",
                        Value::Arr(
                            used[..usize::from(*len)]
                                .iter()
                                .map(|n| Value::Uint(u64::from(n.0)))
                                .collect(),
                        ),
                    ),
                ]),
                Slot::Spill(set) => {
                    let mut used: Vec<u64> = set.iter().map(|n| u64::from(n.0)).collect();
                    used.sort_unstable();
                    Value::obj([
                        ("key", Value::Uint(key)),
                        ("kind", Value::Str("spill".into())),
                        (
                            "used",
                            Value::Arr(used.into_iter().map(Value::Uint).collect()),
                        ),
                    ])
                }
                Slot::Promoted { start, len, cursor } => Value::obj([
                    ("key", Value::Uint(key)),
                    ("kind", Value::Str("promoted".into())),
                    ("start", Value::Uint(u64::from(*start))),
                    ("len", Value::Uint(u64::from(*len))),
                    ("cursor", Value::Uint(u64::from(*cursor))),
                ]),
            })
            .collect();
        Value::obj([
            ("threshold", Value::Uint(self.promotion_threshold as u64)),
            (
                "arena",
                Value::Arr(
                    self.arena
                        .iter()
                        .map(|n| Value::Uint(u64::from(n.0)))
                        .collect(),
                ),
            ),
            ("slots", Value::Arr(slots)),
        ])
    }

    /// Rebuild an engine from [`export_state`](Self::export_state) output.
    ///
    /// # Errors
    /// Returns a message when the tree is malformed or internally
    /// inconsistent (slice out of arena bounds, oversized inline set, …).
    pub fn import_state(state: &Value) -> Result<Self, String> {
        let threshold: usize = state.field("threshold")?.decode()?;
        if !(1..=INLINE_CAP).contains(&threshold) {
            return Err(format!("promotion threshold {threshold} out of range"));
        }
        let arena: Vec<NodeId> = state
            .field("arena")?
            .decode::<Vec<u32>>()?
            .into_iter()
            .map(NodeId)
            .collect();
        let mut slots = FnvHashMap::default();
        for entry in state.field("slots")?.as_array()? {
            let key: u64 = entry.field("key")?.decode()?;
            let kind: String = entry.field("kind")?.decode()?;
            let slot = match kind.as_str() {
                "inline" => {
                    let ids: Vec<u32> = entry.field("used")?.decode()?;
                    if ids.len() > INLINE_CAP {
                        return Err(format!("inline slot holds {} > {INLINE_CAP}", ids.len()));
                    }
                    let mut used = [NodeId(0); INLINE_CAP];
                    for (dst, id) in used.iter_mut().zip(&ids) {
                        *dst = NodeId(*id);
                    }
                    Slot::Inline {
                        used,
                        len: ids.len() as u8,
                    }
                }
                "spill" => Slot::Spill(
                    entry
                        .field("used")?
                        .decode::<Vec<u32>>()?
                        .into_iter()
                        .map(NodeId)
                        .collect(),
                ),
                "promoted" => {
                    let start: u32 = entry.field("start")?.decode()?;
                    let len: u32 = entry.field("len")?.decode()?;
                    let cursor: u32 = entry.field("cursor")?.decode()?;
                    if (start as usize) + (len as usize) > arena.len() {
                        return Err(format!(
                            "promoted slice {start}+{len} exceeds arena of {}",
                            arena.len()
                        ));
                    }
                    if len == 0 || cursor >= len {
                        return Err(format!("promoted cursor {cursor} out of slice of {len}"));
                    }
                    Slot::Promoted { start, len, cursor }
                }
                other => return Err(format!("unknown slot kind `{other}`")),
            };
            if slots.insert(key, slot).is_some() {
                return Err(format!("duplicate slot key {key}"));
            }
        }
        Ok(CirculationEngine {
            slots,
            arena,
            promotion_threshold: threshold,
        })
    }

    /// Draw uniformly at random from `population \ used(key)`, record the
    /// draw, and reset the cycle once the population is exhausted (the
    /// completing draw triggers the reset, so the *next* draw sees the full
    /// population again). Returns `None` only for an empty population.
    pub fn draw<R: Rng + ?Sized>(
        &mut self,
        key: u64,
        population: &[NodeId],
        rng: &mut R,
    ) -> Option<NodeId> {
        let plen = population.len();
        if plen == 0 {
            return None;
        }
        let threshold = self.promotion_threshold;
        let slot = self.slots.entry(key).or_insert(Slot::Inline {
            used: [NodeId(0); INLINE_CAP],
            len: 0,
        });
        // Stage transitions first (no RNG consumed). Promotion preserves
        // the used set, so a cycle's coverage never depends on when (or
        // whether) it happens.
        if !matches!(slot, Slot::Promoted { .. }) && promotable(slot.used_len(), plen, threshold) {
            let start = self.arena.len();
            self.arena.extend_from_slice(population);
            // Partition the fresh slice: swap every already-used item into
            // the prefix. One pass; the membership probes are over the
            // O(draws)-sized pre-promotion state.
            let slice = &mut self.arena[start..];
            let mut cursor = 0usize;
            match &*slot {
                Slot::Inline { used, len } => {
                    let used = &used[..usize::from(*len)];
                    for i in 0..plen {
                        if used.contains(&slice[i]) {
                            slice.swap(cursor, i);
                            cursor += 1;
                        }
                    }
                }
                Slot::Spill(set) => {
                    for i in 0..plen {
                        if set.contains(&slice[i]) {
                            slice.swap(cursor, i);
                            cursor += 1;
                        }
                    }
                }
                Slot::Promoted { .. } => unreachable!("guarded by the !Promoted check above"),
            }
            debug_assert_eq!(cursor, slot.used_len(), "used set ⊆ population");
            // Fail loudly rather than silently aliasing slices if a
            // pathological walk ever grows the arena past u32 offsets.
            let start = u32::try_from(start).expect("arena exceeds u32::MAX entries");
            *slot = Slot::Promoted {
                start,
                len: plen as u32,
                cursor: cursor as u32,
            };
        } else if let Slot::Inline { used, len } = slot {
            // Inline full but the population is too large for the span
            // guard: spill to a hash set that grows one entry per draw.
            if usize::from(*len) == INLINE_CAP {
                *slot = Slot::Spill(used.iter().copied().collect());
            }
        }
        match slot {
            Slot::Inline { used, len } => {
                let used_len = usize::from(*len);
                debug_assert!(used_len < plen && used_len < INLINE_CAP);
                // Bounded rejection against the tiny inline array (probes
                // are hash-free). Acceptance is > 1/2 below the half-used
                // promotion point; only the cycle-completing draw of a
                // small population can sit lower (≥ 1/plen), and the cap
                // bounds that too.
                let pick = draw_excluding(
                    population,
                    plen - used_len,
                    MAX_REJECTION_ITERS,
                    |w| used[..used_len].contains(w),
                    rng,
                );
                if used_len + 1 == plen {
                    *len = 0; // circulation complete -> reset
                } else {
                    used[used_len] = pick;
                    *len += 1;
                }
                Some(pick)
            }
            Slot::Spill(set) => {
                // Spill implies 2*used < plen (the half-used rule would
                // have promoted otherwise): acceptance > 1/2, and the
                // cycle cannot complete in this stage.
                debug_assert!(2 * set.len() < plen);
                let pick = draw_excluding(
                    population,
                    plen - set.len(),
                    MAX_REJECTION_ITERS,
                    |w| set.contains(w),
                    rng,
                );
                set.insert(pick);
                Some(pick)
            }
            Slot::Promoted { start, len, cursor } => {
                let (start, slen) = (*start as usize, *len as usize);
                debug_assert_eq!(slen, plen, "population changed between draws");
                let c = *cursor as usize;
                // Partial Fisher–Yates: uniform position in the unused
                // suffix, swapped to the cursor. Exactly O(1).
                let j = rng.gen_range(c..slen);
                self.arena.swap(start + c, start + j);
                let pick = self.arena[start + c];
                *cursor += 1;
                if *cursor as usize == slen {
                    *cursor = 0; // reset is a cursor rewind
                }
                Some(pick)
            }
        }
    }
}

/// Per-edge state of the [`GroupEngine`]: a small hash-backed stage
/// (`O(draws)` memory, legacy-style probes) until the edge earns its arena
/// slices.
#[derive(Clone, Debug)]
enum GroupSlot {
    /// Pre-promotion: used population indices + attempted groups.
    Small {
        /// Indices into `N(v)` chosen this super-cycle (`b(u, v)`).
        used: FnvHashSet<u32>,
        /// Groups attempted in the current sub-cycle (`S(u, v)`).
        used_groups: Vec<u64>,
    },
    /// Promoted: `items`/`pos` slices in the shared arenas.
    Sliced {
        start: u32,
        len: u32,
        cursor: u32,
        /// Groups attempted in the current sub-cycle; group counts are a
        /// handful, so a linear-scan vec beats a hash set.
        used_groups: Vec<u64>,
    },
    /// Plan-path pre-promotion stage: up to [`INLINE_CAP`] used member
    /// indices in place — heap-free for the short-lived edges that dominate
    /// a walk — plus the attempted-group bitmask (plan group ordinals are
    /// dense `0..G`, `G ≤ 64`, so `S(u, v)` is one `u64`).
    PlanInline {
        used: [u32; INLINE_CAP],
        len: u8,
        attempted: u64,
    },
    /// Plan-path spill stage: used member indices in a hash set,
    /// `O(draws)` memory for big populations that cannot promote yet.
    PlanSpill {
        used: FnvHashSet<u32>,
        attempted: u64,
    },
    /// Plan-path promoted stage: `items[start..start+len]` holds the
    /// node's plan permutation re-permuted in place, **group-major** — each
    /// group's span has its used members in a prefix tracked by that
    /// group's cursor. A member draw is one partial-Fisher–Yates step
    /// inside the group span; remaining counts are `group_len − cursor`,
    /// `O(1)` per group. (The `pos` arena is not used by plan slots: plan
    /// draws never membership-test an arbitrary index.)
    PlanSliced {
        start: u32,
        len: u32,
        used_total: u32,
        cursors: GroupCursors,
        attempted: u64,
    },
}

/// Per-group used-prefix cursors of a [`GroupSlot::PlanSliced`] edge:
/// inline for the common ≤ [`INLINE_CAP`]-group nodes, heap otherwise.
#[derive(Clone, Debug)]
pub(crate) enum GroupCursors {
    /// Cursor per group, in place (group count ≤ [`INLINE_CAP`]).
    Inline([u32; INLINE_CAP]),
    /// Cursor per group, heap-allocated.
    Heap(Vec<u32>),
}

impl GroupCursors {
    fn zeroed(group_count: usize) -> Self {
        if group_count <= INLINE_CAP {
            GroupCursors::Inline([0; INLINE_CAP])
        } else {
            GroupCursors::Heap(vec![0; group_count])
        }
    }

    #[inline]
    fn as_slice(&self, group_count: usize) -> &[u32] {
        match self {
            GroupCursors::Inline(c) => &c[..group_count],
            GroupCursors::Heap(c) => c,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self, group_count: usize) -> &mut [u32] {
        match self {
            GroupCursors::Inline(c) => &mut c[..group_count],
            GroupCursors::Heap(c) => c,
        }
    }
}

impl GroupSlot {
    fn used_len(&self) -> usize {
        match self {
            GroupSlot::Small { used, .. } => used.len(),
            GroupSlot::Sliced { cursor, .. } => *cursor as usize,
            GroupSlot::PlanInline { len, .. } => usize::from(*len),
            GroupSlot::PlanSpill { used, .. } => used.len(),
            GroupSlot::PlanSliced { used_total, .. } => *used_total as usize,
        }
    }

    fn attempted_groups(&self) -> usize {
        match self {
            GroupSlot::Small { used_groups, .. } | GroupSlot::Sliced { used_groups, .. } => {
                used_groups.len()
            }
            GroupSlot::PlanInline { attempted, .. }
            | GroupSlot::PlanSpill { attempted, .. }
            | GroupSlot::PlanSliced { attempted, .. } => attempted.count_ones() as usize,
        }
    }
}

/// The arena-backed engine for GNRW's per-edge state (Algorithm 2).
///
/// Promoted edges own slices of two parallel arenas: `items` holds a
/// permutation of the population indices `0..len` (used prefix / unused
/// suffix around a cursor, exactly like [`CirculationEngine`]); `pos` is
/// the inverse permutation, making "has neighbor *i* been chosen this
/// super-cycle?" a single array compare — the probe GNRW issues `deg`
/// times per step. Cold edges stay in an `O(draws)` hash-set stage and are
/// promoted under the same [`PROMOTION_SPAN`] rule as the node engine, so
/// group-history memory is `O(K)` too.
#[derive(Clone, Debug, Default)]
pub struct GroupEngine {
    slots: FnvHashMap<u64, GroupSlot>,
    items: Vec<u32>,
    pos: Vec<u32>,
    /// Arena for [`GroupSlot::PlanSliced`] slices (group-major member
    /// permutations). Separate from `items`/`pos` — plan slices have no
    /// inverse permutation, so sharing the paired arenas would desync
    /// their offsets.
    plan_items: Vec<u32>,
}

impl GroupEngine {
    /// Number of keys with live state.
    pub fn tracked(&self) -> usize {
        self.slots.len()
    }

    /// Total used-node entries across all keys (the `O(K)` quantity).
    pub fn total_entries(&self) -> usize {
        self.slots.values().map(GroupSlot::used_len).sum()
    }

    /// `(used nodes, attempted groups)` for `key` without creating state.
    pub fn probe(&self, key: u64) -> Option<(usize, usize)> {
        self.slots
            .get(&key)
            .map(|s| (s.used_len(), s.attempted_groups()))
    }

    /// Drop all state, **keeping the slab allocations** (both arenas and
    /// the slot-map buckets) — same restart-reuse contract as
    /// [`CirculationEngine::clear`].
    pub fn clear(&mut self) {
        self.slots.clear();
        self.items.clear();
        self.pos.clear();
        self.plan_items.clear();
    }

    /// Allocated capacity of the `items` arena, in entries (`pos` always
    /// mirrors it). Survives [`Self::clear`] unchanged.
    pub fn arena_capacity(&self) -> usize {
        self.items.capacity()
    }

    /// Allocated capacity of the plan-slice arena, in entries. Survives
    /// [`Self::clear`] unchanged — the plan path honors the same
    /// restart-reuse contract as the scratch path.
    pub fn plan_arena_capacity(&self) -> usize {
        self.plan_items.capacity()
    }

    /// Drop every slot whose circulated node (low 32 bits of the packed
    /// edge key) `is_touched` accepts — the evolving-graph invalidation
    /// hook, mirroring [`CirculationEngine::invalidate_targets`]: one pass
    /// over the slot map. This is how "`GroupPlan` slots for `v` rebuild
    /// lazily": the per-edge plan state (`GroupSlot::PlanInline`/
    /// `GroupSlot::PlanSpill`/`GroupSlot::PlanSliced`) is dropped here and
    /// re-created from the plan on the next visit. Arena slices of dropped
    /// sliced slots leak until the next [`Self::clear`] — bounded, same as
    /// re-promotion churn. Returns the number of slots dropped.
    pub fn invalidate_targets(&mut self, is_touched: impl Fn(u32) -> bool) -> usize {
        drop_targets(&mut self.slots, is_touched)
    }

    /// Serialize the engine's full state to a [`Value`] tree for
    /// snapshot/resume. Arena slices, inverse permutations, cursors, and
    /// group-attempt *order* are exported verbatim (they shape future
    /// behavior); the small-stage used sets are membership-only and
    /// serialize sorted. Slots are sorted by key.
    pub fn export_state(&self) -> Value {
        let mut slots: Vec<(u64, &GroupSlot)> = self.slots.iter().map(|(&k, s)| (k, s)).collect();
        slots.sort_unstable_by_key(|&(k, _)| k);
        let groups_value =
            |groups: &[u64]| Value::Arr(groups.iter().map(|&g| Value::Uint(g)).collect());
        let slots: Vec<Value> = slots
            .into_iter()
            .map(|(key, slot)| match slot {
                GroupSlot::Small { used, used_groups } => {
                    let mut used: Vec<u32> = used.iter().copied().collect();
                    used.sort_unstable();
                    Value::obj([
                        ("key", Value::Uint(key)),
                        ("kind", Value::Str("small".into())),
                        (
                            "used",
                            Value::Arr(
                                used.into_iter()
                                    .map(|i| Value::Uint(u64::from(i)))
                                    .collect(),
                            ),
                        ),
                        ("groups", groups_value(used_groups)),
                    ])
                }
                GroupSlot::Sliced {
                    start,
                    len,
                    cursor,
                    used_groups,
                } => Value::obj([
                    ("key", Value::Uint(key)),
                    ("kind", Value::Str("sliced".into())),
                    ("start", Value::Uint(u64::from(*start))),
                    ("len", Value::Uint(u64::from(*len))),
                    ("cursor", Value::Uint(u64::from(*cursor))),
                    ("groups", groups_value(used_groups)),
                ]),
                GroupSlot::PlanInline {
                    used,
                    len,
                    attempted,
                } => {
                    let mut used: Vec<u32> = used[..usize::from(*len)].to_vec();
                    used.sort_unstable();
                    Value::obj([
                        ("key", Value::Uint(key)),
                        ("kind", Value::Str("plan_inline".into())),
                        ("used", Value::arr(&used)),
                        ("attempted", Value::Uint(*attempted)),
                    ])
                }
                GroupSlot::PlanSpill { used, attempted } => {
                    let mut used: Vec<u32> = used.iter().copied().collect();
                    used.sort_unstable();
                    Value::obj([
                        ("key", Value::Uint(key)),
                        ("kind", Value::Str("plan_spill".into())),
                        ("used", Value::arr(&used)),
                        ("attempted", Value::Uint(*attempted)),
                    ])
                }
                GroupSlot::PlanSliced {
                    start,
                    len,
                    used_total,
                    cursors,
                    attempted,
                } => {
                    // Inline cursor arrays don't record their group count
                    // (the plan owns it); exporting all INLINE_CAP entries
                    // is lossless — trailing zeros are vacuous cursors.
                    let cursors = match cursors {
                        GroupCursors::Inline(c) => &c[..],
                        GroupCursors::Heap(c) => &c[..],
                    };
                    Value::obj([
                        ("key", Value::Uint(key)),
                        ("kind", Value::Str("plan_sliced".into())),
                        ("start", Value::Uint(u64::from(*start))),
                        ("len", Value::Uint(u64::from(*len))),
                        ("used_total", Value::Uint(u64::from(*used_total))),
                        ("cursors", Value::arr(cursors)),
                        ("attempted", Value::Uint(*attempted)),
                    ])
                }
            })
            .collect();
        Value::obj([
            ("items", Value::arr(&self.items)),
            ("pos", Value::arr(&self.pos)),
            ("plan_items", Value::arr(&self.plan_items)),
            ("slots", Value::Arr(slots)),
        ])
    }

    /// Rebuild an engine from [`export_state`](Self::export_state) output.
    ///
    /// # Errors
    /// Returns a message when the tree is malformed or internally
    /// inconsistent (mismatched arenas, slice out of bounds, …).
    pub fn import_state(state: &Value) -> Result<Self, String> {
        let items: Vec<u32> = state.field("items")?.decode()?;
        let pos: Vec<u32> = state.field("pos")?.decode()?;
        if items.len() != pos.len() {
            return Err(format!(
                "items/pos arena length mismatch: {} vs {}",
                items.len(),
                pos.len()
            ));
        }
        // Absent in exports predating the plan path: read as empty.
        let plan_items: Vec<u32> = match state.field("plan_items") {
            Ok(v) => v.decode()?,
            Err(_) => Vec::new(),
        };
        let mut slots = FnvHashMap::default();
        for entry in state.field("slots")?.as_array()? {
            let key: u64 = entry.field("key")?.decode()?;
            let kind: String = entry.field("kind")?.decode()?;
            let slot = match kind.as_str() {
                "small" => GroupSlot::Small {
                    used: entry
                        .field("used")?
                        .decode::<Vec<u32>>()?
                        .into_iter()
                        .collect(),
                    used_groups: entry.field("groups")?.decode()?,
                },
                "sliced" => {
                    let start: u32 = entry.field("start")?.decode()?;
                    let len: u32 = entry.field("len")?.decode()?;
                    let cursor: u32 = entry.field("cursor")?.decode()?;
                    if (start as usize) + (len as usize) > items.len() {
                        return Err(format!(
                            "sliced state {start}+{len} exceeds arena of {}",
                            items.len()
                        ));
                    }
                    if len == 0 || cursor >= len {
                        return Err(format!("sliced cursor {cursor} out of slice of {len}"));
                    }
                    GroupSlot::Sliced {
                        start,
                        len,
                        cursor,
                        used_groups: entry.field("groups")?.decode()?,
                    }
                }
                "plan_inline" => {
                    let ids: Vec<u32> = entry.field("used")?.decode()?;
                    if ids.len() > INLINE_CAP {
                        return Err(format!(
                            "plan_inline slot holds {} > {INLINE_CAP}",
                            ids.len()
                        ));
                    }
                    let mut used = [0u32; INLINE_CAP];
                    used[..ids.len()].copy_from_slice(&ids);
                    GroupSlot::PlanInline {
                        used,
                        len: ids.len() as u8,
                        attempted: entry.field("attempted")?.decode()?,
                    }
                }
                "plan_spill" => GroupSlot::PlanSpill {
                    used: entry
                        .field("used")?
                        .decode::<Vec<u32>>()?
                        .into_iter()
                        .collect(),
                    attempted: entry.field("attempted")?.decode()?,
                },
                "plan_sliced" => {
                    let start: u32 = entry.field("start")?.decode()?;
                    let len: u32 = entry.field("len")?.decode()?;
                    let used_total: u32 = entry.field("used_total")?.decode()?;
                    let cursor_vals: Vec<u32> = entry.field("cursors")?.decode()?;
                    if (start as usize) + (len as usize) > plan_items.len() {
                        return Err(format!(
                            "plan_sliced state {start}+{len} exceeds plan arena of {}",
                            plan_items.len()
                        ));
                    }
                    let sum: u64 = cursor_vals.iter().map(|&c| u64::from(c)).sum();
                    if sum != u64::from(used_total) {
                        return Err(format!(
                            "plan_sliced cursors sum to {sum}, used_total is {used_total}"
                        ));
                    }
                    if len == 0 || used_total >= len {
                        return Err(format!(
                            "plan_sliced used_total {used_total} out of slice of {len}"
                        ));
                    }
                    // ≤ INLINE_CAP cursors pack inline; per-group bounds are
                    // validated against the plan on first use.
                    let cursors = if cursor_vals.len() <= INLINE_CAP {
                        let mut c = [0u32; INLINE_CAP];
                        c[..cursor_vals.len()].copy_from_slice(&cursor_vals);
                        GroupCursors::Inline(c)
                    } else {
                        GroupCursors::Heap(cursor_vals)
                    };
                    GroupSlot::PlanSliced {
                        start,
                        len,
                        used_total,
                        cursors,
                        attempted: entry.field("attempted")?.decode()?,
                    }
                }
                other => return Err(format!("unknown slot kind `{other}`")),
            };
            if slots.insert(key, slot).is_some() {
                return Err(format!("duplicate slot key {key}"));
            }
        }
        Ok(GroupEngine {
            slots,
            items,
            pos,
            plan_items,
        })
    }

    /// Mutable view of `key`'s state, created on first touch and promoted
    /// to arena slices once it qualifies. `population_len` must be stable
    /// across visits.
    pub fn view(&mut self, key: u64, population_len: usize) -> ArenaGroupView<'_> {
        let slot = self.slots.entry(key).or_insert_with(|| GroupSlot::Small {
            used: FnvHashSet::default(),
            used_groups: Vec::new(),
        });
        if let GroupSlot::Small { used, used_groups } = slot {
            if promotable(used.len(), population_len, INLINE_CAP) {
                let start = self.items.len();
                self.items.extend(0..population_len as u32);
                self.pos.extend(0..population_len as u32);
                let items = &mut self.items[start..];
                let pos = &mut self.pos[start..];
                // Partition used indices into the prefix, maintaining the
                // inverse permutation through the same swap discipline the
                // steady state uses.
                let mut cursor = 0usize;
                for i in 0..population_len {
                    let idx = items[i] as usize;
                    if used.contains(&(idx as u32)) {
                        let other = items[cursor] as usize;
                        items.swap(cursor, i);
                        pos[idx] = cursor as u32;
                        pos[other] = i as u32;
                        cursor += 1;
                    }
                }
                debug_assert_eq!(cursor, used.len(), "used indices ⊆ population");
                let start = u32::try_from(start).expect("arena exceeds u32::MAX entries");
                *slot = GroupSlot::Sliced {
                    start,
                    len: population_len as u32,
                    cursor: cursor as u32,
                    used_groups: std::mem::take(used_groups),
                };
            }
        }
        match slot {
            GroupSlot::Small { used, used_groups } => ArenaGroupView(ViewRepr::Small {
                used,
                used_groups,
                population_len,
            }),
            GroupSlot::Sliced {
                start,
                len,
                cursor,
                used_groups,
            } => {
                debug_assert_eq!(
                    *len as usize, population_len,
                    "population changed between visits"
                );
                let range = *start as usize..(*start + *len) as usize;
                ArenaGroupView(ViewRepr::Sliced {
                    len: *len,
                    cursor,
                    used_groups,
                    items: &mut self.items[range.clone()],
                    pos: &mut self.pos[range],
                })
            }
            GroupSlot::PlanInline { .. }
            | GroupSlot::PlanSpill { .. }
            | GroupSlot::PlanSliced { .. } => {
                panic!("group-engine key {key} holds plan-path state; use plan_view")
            }
        }
    }

    /// Mutable plan-path view of `key`'s state (see [`PlanEdgeView`]),
    /// created on first touch and promoted to a group-major arena slice
    /// once it qualifies under the same [`PROMOTION_SPAN`] rule as the
    /// scratch path. `groups` must be the plan slice of the edge's head
    /// node, identical across visits.
    ///
    /// # Panics
    /// Panics if `key` already holds scratch-path (non-plan) state — one
    /// edge's history must be driven by exactly one of the two paths.
    pub fn plan_view(&mut self, key: u64, groups: &NodeGroups<'_>) -> PlanEdgeView<'_> {
        let plen = groups.len();
        let group_count = groups.group_count();
        debug_assert!(
            group_count <= 64,
            "plan path requires ≤ 64 groups per node (attempted-set bitmask)"
        );
        let slot = self.slots.entry(key).or_insert(GroupSlot::PlanInline {
            used: [0; INLINE_CAP],
            len: 0,
            attempted: 0,
        });
        // Stage transitions first, exactly mirroring the scratch path: no
        // RNG consumed, used set preserved, so per-cycle coverage never
        // depends on when promotion happens.
        let promote = match &*slot {
            GroupSlot::PlanInline { len, .. } => promotable(usize::from(*len), plen, INLINE_CAP),
            GroupSlot::PlanSpill { used, .. } => promotable(used.len(), plen, INLINE_CAP),
            GroupSlot::PlanSliced { .. } => false,
            GroupSlot::Small { .. } | GroupSlot::Sliced { .. } => {
                panic!("group-engine key {key} holds scratch-path state; use view")
            }
        };
        if promote {
            let is_used = |idx: u32| match &*slot {
                GroupSlot::PlanInline { used, len, .. } => used[..usize::from(*len)].contains(&idx),
                GroupSlot::PlanSpill { used, .. } => used.contains(&idx),
                _ => unreachable!("only pre-promotion slots promote"),
            };
            let start = self.plan_items.len();
            self.plan_items.extend_from_slice(groups.members);
            let slice = &mut self.plan_items[start..];
            // Partition each group's used members into its prefix; the
            // per-group cursor is the prefix length.
            let mut cursors = GroupCursors::zeroed(group_count);
            let mut used_total = 0u32;
            for (g, cursor) in cursors.as_mut_slice(group_count).iter_mut().enumerate() {
                let (gs, ge) = groups.bounds(g);
                let mut c = 0usize;
                for i in gs..ge {
                    if is_used(slice[i]) {
                        slice.swap(gs + c, i);
                        c += 1;
                    }
                }
                *cursor = c as u32;
                used_total += c as u32;
            }
            let attempted = match &*slot {
                GroupSlot::PlanInline { attempted, .. }
                | GroupSlot::PlanSpill { attempted, .. } => *attempted,
                _ => unreachable!("only pre-promotion slots promote"),
            };
            debug_assert_eq!(
                used_total as usize,
                slot.used_len(),
                "used set ⊆ population"
            );
            let start = u32::try_from(start).expect("plan arena exceeds u32::MAX entries");
            *slot = GroupSlot::PlanSliced {
                start,
                len: plen as u32,
                used_total,
                cursors,
                attempted,
            };
        } else if let GroupSlot::PlanInline {
            used,
            len,
            attempted,
        } = slot
        {
            // Inline full but the population too large for the span guard:
            // spill to a hash set that grows one entry per draw.
            if usize::from(*len) == INLINE_CAP {
                *slot = GroupSlot::PlanSpill {
                    used: used.iter().copied().collect(),
                    attempted: *attempted,
                };
            }
        }
        match slot {
            GroupSlot::PlanInline {
                used,
                len,
                attempted,
            } => PlanEdgeView(PlanViewRepr::Inline {
                used,
                len,
                attempted,
            }),
            GroupSlot::PlanSpill { used, attempted } => {
                PlanEdgeView(PlanViewRepr::Spill { used, attempted })
            }
            GroupSlot::PlanSliced {
                start,
                len,
                used_total,
                cursors,
                attempted,
            } => {
                debug_assert_eq!(*len as usize, plen, "population changed between visits");
                let range = *start as usize..(*start + *len) as usize;
                PlanEdgeView(PlanViewRepr::Sliced {
                    used_total,
                    cursors,
                    attempted,
                    items: &mut self.plan_items[range],
                })
            }
            GroupSlot::Small { .. } | GroupSlot::Sliced { .. } => {
                unreachable!("rejected before the stage transition")
            }
        }
    }
}

/// Borrowed view of one edge's [`GroupEngine`] state.
pub struct ArenaGroupView<'a>(ViewRepr<'a>);

enum ViewRepr<'a> {
    Small {
        used: &'a mut FnvHashSet<u32>,
        used_groups: &'a mut Vec<u64>,
        population_len: usize,
    },
    Sliced {
        len: u32,
        cursor: &'a mut u32,
        used_groups: &'a mut Vec<u64>,
        items: &'a mut [u32],
        pos: &'a mut [u32],
    },
}

impl ArenaGroupView<'_> {
    /// Has population index `idx` been chosen in the current super-cycle?
    #[inline]
    pub fn is_used(&self, idx: usize) -> bool {
        match &self.0 {
            ViewRepr::Small { used, .. } => used.contains(&(idx as u32)),
            ViewRepr::Sliced { pos, cursor, .. } => pos[idx] < **cursor,
        }
    }

    /// Nodes chosen so far in the current super-cycle.
    pub fn used_count(&self) -> usize {
        match &self.0 {
            ViewRepr::Small { used, .. } => used.len(),
            ViewRepr::Sliced { cursor, .. } => **cursor as usize,
        }
    }

    /// Has `group` been attempted in the current group sub-cycle?
    pub fn group_attempted(&self, group: u64) -> bool {
        match &self.0 {
            ViewRepr::Small { used_groups, .. } | ViewRepr::Sliced { used_groups, .. } => {
                used_groups.contains(&group)
            }
        }
    }

    /// Reset the group sub-cycle (`S(u, v) <- ∅`).
    pub fn clear_attempted(&mut self) {
        match &mut self.0 {
            ViewRepr::Small { used_groups, .. } | ViewRepr::Sliced { used_groups, .. } => {
                used_groups.clear()
            }
        }
    }

    /// Record the choice of population index `idx` from `group`: mark the
    /// node used, mark the group attempted, and reset the whole super-cycle
    /// once every node is covered.
    pub fn record(&mut self, idx: usize, group: u64) {
        match &mut self.0 {
            ViewRepr::Small {
                used,
                used_groups,
                population_len,
            } => {
                let inserted = used.insert(idx as u32);
                debug_assert!(inserted, "index already used this super-cycle");
                if !used_groups.contains(&group) {
                    used_groups.push(group);
                }
                if used.len() == *population_len {
                    used.clear(); // super-cycle complete (Algorithm 2 step 4)
                    used_groups.clear();
                }
            }
            ViewRepr::Sliced {
                len,
                cursor,
                used_groups,
                items,
                pos,
            } => {
                let c = **cursor as usize;
                let p = pos[idx] as usize;
                debug_assert!(p >= c, "index already used this super-cycle");
                let other = items[c] as usize;
                items.swap(c, p);
                pos[idx] = c as u32;
                pos[other] = p as u32;
                **cursor += 1;
                if !used_groups.contains(&group) {
                    used_groups.push(group);
                }
                if **cursor == *len {
                    **cursor = 0; // super-cycle complete (Algorithm 2 step 4)
                    used_groups.clear();
                }
            }
        }
    }
}

/// Borrowed plan-path view of one edge's [`GroupEngine`] state: the GNRW
/// fast path. A [`draw`](Self::draw) performs the whole Algorithm-2 step —
/// group sub-cycle bookkeeping, alias-table group proposal, within-group
/// partial-Fisher–Yates member pick, super-cycle reset — against the
/// immutable [`NodeGroups`] slice of a
/// [`GroupPlan`](crate::groupplan::GroupPlan), consuming RNG only through a
/// [`DrawBatch`].
///
/// Group selection proposes from the alias table (∝ **full** group size)
/// and rejects attempted/exhausted groups, falling back to an exact
/// remaining-weighted scan after [`MAX_REJECTION_ITERS`]. That reorders and
/// re-weights draws relative to the scratch path (which scans un-attempted
/// transitions) — equivalent in stationary distribution by the paper's
/// Theorem 4 (per-super-cycle exact coverage is preserved verbatim), not in
/// trace.
pub struct PlanEdgeView<'a>(PlanViewRepr<'a>);

enum PlanViewRepr<'a> {
    Inline {
        used: &'a mut [u32; INLINE_CAP],
        len: &'a mut u8,
        attempted: &'a mut u64,
    },
    Spill {
        used: &'a mut FnvHashSet<u32>,
        attempted: &'a mut u64,
    },
    Sliced {
        used_total: &'a mut u32,
        cursors: &'a mut GroupCursors,
        attempted: &'a mut u64,
        items: &'a mut [u32],
    },
}

impl PlanEdgeView<'_> {
    /// Nodes chosen so far in the current super-cycle.
    pub fn used_count(&self) -> usize {
        match &self.0 {
            PlanViewRepr::Inline { len, .. } => usize::from(**len),
            PlanViewRepr::Spill { used, .. } => used.len(),
            PlanViewRepr::Sliced { used_total, .. } => **used_total as usize,
        }
    }

    /// Has population index `idx` been chosen in the current super-cycle?
    /// (`groups` locates `idx`'s group for the promoted representation.)
    pub fn is_used(&self, idx: usize, groups: &NodeGroups<'_>) -> bool {
        match &self.0 {
            PlanViewRepr::Inline { used, len, .. } => {
                used[..usize::from(**len)].contains(&(idx as u32))
            }
            PlanViewRepr::Spill { used, .. } => used.contains(&(idx as u32)),
            PlanViewRepr::Sliced { cursors, items, .. } => {
                // Promoted slices keep used members in each group's prefix;
                // scan only idx's group span (draws never call this — it
                // exists for tests and invariant checks).
                let g = (0..groups.group_count())
                    .find(|&g| groups.members_of(g).contains(&(idx as u32)))
                    .expect("index belongs to some group");
                let (gs, _) = groups.bounds(g);
                let c = cursors.as_slice(groups.group_count())[g] as usize;
                items[gs..gs + c].contains(&(idx as u32))
            }
        }
    }

    /// Groups attempted in the current sub-cycle, as a bitmask.
    pub fn attempted_mask(&self) -> u64 {
        match &self.0 {
            PlanViewRepr::Inline { attempted, .. }
            | PlanViewRepr::Spill { attempted, .. }
            | PlanViewRepr::Sliced { attempted, .. } => **attempted,
        }
    }

    /// Per-group not-yet-chosen counts for the current super-cycle, written
    /// into `rem` (cleared first). `O(groups)` when promoted, `O(deg)`
    /// before.
    pub fn remaining_per_group(&self, groups: &NodeGroups<'_>, rem: &mut Vec<u32>) {
        rem.clear();
        let group_count = groups.group_count();
        match &self.0 {
            PlanViewRepr::Inline { used, len, .. } => {
                let used = &used[..usize::from(**len)];
                rem.extend((0..group_count).map(|g| {
                    groups
                        .members_of(g)
                        .iter()
                        .filter(|m| !used.contains(m))
                        .count() as u32
                }));
            }
            PlanViewRepr::Spill { used, .. } => {
                rem.extend((0..group_count).map(|g| {
                    groups
                        .members_of(g)
                        .iter()
                        .filter(|m| !used.contains(m))
                        .count() as u32
                }));
            }
            PlanViewRepr::Sliced { cursors, .. } => {
                let cursors = cursors.as_slice(group_count);
                rem.extend((0..group_count).map(|g| groups.group_len(g) as u32 - cursors[g]));
            }
        }
    }

    /// One full GNRW transition on this edge: choose a group (un-attempted,
    /// non-exhausted — resetting the sub-cycle when none qualifies), choose
    /// an unvisited member uniformly within it, record both, and reset the
    /// super-cycle when `N(v)` is covered. Returns the chosen **local
    /// neighbor index**.
    ///
    /// `alias` is the node's table over full group sizes (`None` means a
    /// single group). `rem` is caller-owned scratch for per-group remaining
    /// counts.
    pub fn draw(
        &mut self,
        groups: &NodeGroups<'_>,
        alias: Option<&AliasTable>,
        batch: &mut DrawBatch,
        rng: &mut dyn RngCore,
        rem: &mut Vec<u32>,
    ) -> usize {
        let group_count = groups.group_count();
        debug_assert!((1..=64).contains(&group_count));
        self.remaining_per_group(groups, rem);
        debug_assert!(
            rem.iter().map(|&r| u64::from(r)).sum::<u64>() > 0,
            "draw on an exhausted super-cycle (reset happens at record time)"
        );
        let mut attempted = self.attempted_mask();
        // Sub-cycle reset (Algorithm 2 step 2): no un-attempted group has
        // unvisited members left.
        let candidate =
            |attempted: u64, g: usize, rem: &[u32]| rem[g] > 0 && attempted & (1 << g) == 0;
        if !(0..group_count).any(|g| candidate(attempted, g, rem)) {
            attempted = 0;
            self.set_attempted(0);
        }
        // Group choice. A single candidate consumes no RNG; otherwise alias
        // proposals ∝ full group size with rejection, then the exact
        // remaining-weighted scan as a bounded fallback.
        let mut candidates = (0..group_count).filter(|&g| candidate(attempted, g, rem));
        let first = candidates.next().expect("some group has members left");
        let chosen = if candidates.next().is_none() {
            first
        } else {
            let mut pick = None;
            if let Some(alias) = alias {
                for _ in 0..MAX_REJECTION_ITERS {
                    let g = alias.sample(batch.next_u64(rng));
                    if candidate(attempted, g, rem) {
                        pick = Some(g);
                        break;
                    }
                }
            }
            pick.unwrap_or_else(|| {
                let total: u64 = (0..group_count)
                    .filter(|&g| candidate(attempted, g, rem))
                    .map(|g| u64::from(rem[g]))
                    .sum();
                let mut target = batch.range(total as usize, rng) as u64;
                (0..group_count)
                    .filter(|&g| candidate(attempted, g, rem))
                    .find(|&g| {
                        if target < u64::from(rem[g]) {
                            true
                        } else {
                            target -= u64::from(rem[g]);
                            false
                        }
                    })
                    .expect("target < total remaining")
            })
        };
        // Member choice within the chosen group, then record + resets.
        let remaining = rem[chosen] as usize;
        let (gs, ge) = groups.bounds(chosen);
        let population_len = groups.len();
        match &mut self.0 {
            PlanViewRepr::Sliced {
                used_total,
                cursors,
                attempted,
                items,
            } => {
                // Partial Fisher–Yates inside the group span: one draw, one
                // swap, exactly O(1).
                let c = cursors.as_slice(group_count)[chosen] as usize;
                let j = if remaining == 1 {
                    0
                } else {
                    batch.range(remaining, rng)
                };
                items.swap(gs + c, gs + c + j);
                let pick = items[gs + c] as usize;
                cursors.as_mut_slice(group_count)[chosen] += 1;
                **used_total += 1;
                **attempted |= 1 << chosen;
                if **used_total as usize == population_len {
                    // Super-cycle complete (Algorithm 2 step 4): cursor
                    // rewind per group, groups forgotten.
                    **used_total = 0;
                    cursors.as_mut_slice(group_count).fill(0);
                    **attempted = 0;
                }
                pick
            }
            PlanViewRepr::Inline {
                used,
                len,
                attempted,
            } => {
                let members = &groups.members[gs..ge];
                let used_slice = &used[..usize::from(**len)];
                let pick =
                    plan_member_pick(members, remaining, |m| used_slice.contains(&m), batch, rng);
                **attempted |= 1 << chosen;
                if usize::from(**len) + 1 == population_len {
                    **len = 0; // super-cycle complete -> reset
                    **attempted = 0;
                } else {
                    used[usize::from(**len)] = pick;
                    **len += 1;
                }
                pick as usize
            }
            PlanViewRepr::Spill { used, attempted } => {
                let members = &groups.members[gs..ge];
                let pick = plan_member_pick(members, remaining, |m| used.contains(&m), batch, rng);
                **attempted |= 1 << chosen;
                if used.len() + 1 == population_len {
                    used.clear();
                    **attempted = 0;
                } else {
                    used.insert(pick);
                }
                pick as usize
            }
        }
    }

    fn set_attempted(&mut self, mask: u64) {
        match &mut self.0 {
            PlanViewRepr::Inline { attempted, .. }
            | PlanViewRepr::Spill { attempted, .. }
            | PlanViewRepr::Sliced { attempted, .. } => **attempted = mask,
        }
    }
}

/// Uniform pick among the unvisited `remaining` members of a group slice
/// (pre-promotion stages): bounded rejection sampling over the group, then
/// an exact rank scan — the plan-path twin of [`draw_excluding`], consuming
/// RNG through the batch.
fn plan_member_pick(
    members: &[u32],
    remaining: usize,
    is_used: impl Fn(u32) -> bool,
    batch: &mut DrawBatch,
    rng: &mut dyn RngCore,
) -> u32 {
    debug_assert!(remaining > 0 && remaining <= members.len());
    if remaining == 1 {
        return *members
            .iter()
            .find(|&&m| !is_used(m))
            .expect("one member remaining");
    }
    if remaining == members.len() {
        // Untouched group: every member is valid, one direct draw.
        return members[batch.range(members.len(), rng)];
    }
    for _ in 0..MAX_REJECTION_ITERS {
        let cand = members[batch.range(members.len(), rng)];
        if !is_used(cand) {
            return cand;
        }
    }
    let mut rank = batch.range(remaining, rng);
    *members
        .iter()
        .filter(|&&m| !is_used(m))
        .find(|_| {
            if rank == 0 {
                true
            } else {
                rank -= 1;
                false
            }
        })
        .expect("rank < remaining unused members")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn pop(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn every_cycle_is_a_permutation_across_promotion() {
        // Degree 20 with threshold 4: the first cycle crosses the
        // inline -> promoted boundary mid-way and must still cover the
        // population exactly once, as must every later (fully promoted)
        // cycle.
        let population = pop(20);
        for threshold in [1usize, 2, 4, 8] {
            let mut engine = CirculationEngine::with_threshold(threshold);
            let mut rng = ChaCha12Rng::seed_from_u64(9);
            for cycle in 0..4 {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..population.len() {
                    let d = engine.draw(7, &population, &mut rng).unwrap();
                    assert!(seen.insert(d), "repeat in cycle {cycle} (t={threshold})");
                }
                assert_eq!(seen.len(), population.len());
            }
        }
    }

    #[test]
    fn small_populations_never_promote() {
        // A population completing its cycles inside the inline capacity
        // stays inline forever: zero arena growth.
        let population = pop(3);
        let mut engine = CirculationEngine::new();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for _ in 0..30 {
            engine.draw(1, &population, &mut rng).unwrap();
        }
        assert!(engine.arena.is_empty());
        assert_eq!(engine.tracked(), 1);
    }

    #[test]
    fn large_populations_spill_then_promote_within_the_span_bound() {
        // Degree 200 > PROMOTION_SPAN * INLINE_CAP: the edge must pass
        // through the spill stage and only promote once the slice costs at
        // most PROMOTION_SPAN times the recorded draws — the O(K) memory
        // guard.
        let plen = 200usize;
        let population = pop(plen as u32);
        let mut engine = CirculationEngine::new();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for draws in 1..=plen {
            seen.insert(engine.draw(0, &population, &mut rng).unwrap());
            if !engine.arena.is_empty() {
                // Promotion just happened (or already had): the O(K) bound.
                assert!(
                    engine.arena.len() <= PROMOTION_SPAN * draws,
                    "slice of {} after {draws} draws breaks the span bound",
                    engine.arena.len()
                );
            } else {
                // Still inline/spilled: memory is exactly the used set, and
                // the state seen at the start of this draw was legitimately
                // not yet promotable.
                assert_eq!(engine.used_len(0), Some(draws));
                assert!(!promotable(draws - 1, plen, INLINE_CAP));
            }
        }
        // Promotion must have happened well before the cycle completed,
        // and the cycle still covered everything exactly once.
        assert_eq!(engine.arena.len(), plen);
        assert_eq!(seen.len(), plen);
        assert_eq!(engine.total_entries(), 0); // cursor rewound
    }

    #[test]
    fn promoted_reset_is_a_cursor_rewind() {
        let population = pop(12);
        let mut engine = CirculationEngine::with_threshold(2);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        for _ in 0..12 {
            engine.draw(0, &population, &mut rng).unwrap();
        }
        // Cycle complete: accounting shows zero used, arena still owns the
        // (single) slice.
        assert_eq!(engine.total_entries(), 0);
        assert_eq!(engine.arena.len(), 12);
        // Second full cycle re-covers everything.
        let seen: std::collections::HashSet<NodeId> = (0..12)
            .map(|_| engine.draw(0, &population, &mut rng).unwrap())
            .collect();
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn used_len_probe_never_creates_state() {
        let mut engine = CirculationEngine::new();
        assert_eq!(engine.used_len(3), None);
        assert_eq!(engine.tracked(), 0);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        engine.draw(3, &pop(5), &mut rng).unwrap();
        assert_eq!(engine.used_len(3), Some(1));
        assert_eq!(engine.used_len(4), None);
        assert_eq!(engine.tracked(), 1);
    }

    #[test]
    fn empty_population_draws_none() {
        let mut engine = CirculationEngine::new();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        assert_eq!(engine.draw(0, &[], &mut rng), None);
        assert_eq!(engine.tracked(), 0);
    }

    #[test]
    fn singleton_population_always_draws_it() {
        let mut engine = CirculationEngine::new();
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        for _ in 0..10 {
            assert_eq!(engine.draw(0, &pop(1), &mut rng), Some(NodeId(0)));
        }
        assert_eq!(engine.total_entries(), 0);
    }

    #[test]
    fn clear_empties_arena_but_keeps_capacity() {
        let mut engine = CirculationEngine::with_threshold(1);
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        for _ in 0..5 {
            engine.draw(0, &pop(30), &mut rng).unwrap();
        }
        assert!(!engine.arena.is_empty());
        let capacity = engine.arena_capacity();
        engine.clear();
        assert_eq!(engine.tracked(), 0);
        assert!(engine.arena.is_empty());
        // The slab itself is retained for the next walk (restart reuse).
        assert_eq!(engine.arena_capacity(), capacity);
    }

    #[test]
    fn group_engine_membership_and_reset() {
        let mut engine = GroupEngine::default();
        {
            let mut view = engine.view(42, 4);
            assert_eq!(view.used_count(), 0);
            assert!(!view.is_used(2));
            view.record(2, 100);
            assert!(view.is_used(2));
            assert!(view.group_attempted(100));
            assert!(!view.group_attempted(200));
            view.record(0, 200);
            view.record(3, 100);
            assert_eq!(view.used_count(), 3);
            // Completing the super-cycle resets nodes and groups.
            view.record(1, 200);
            assert_eq!(view.used_count(), 0);
            assert!(!view.group_attempted(100));
            for i in 0..4 {
                assert!(!view.is_used(i), "index {i} leaked across super-cycles");
            }
        }
        assert_eq!(engine.tracked(), 1);
        assert_eq!(engine.total_entries(), 0);
        assert_eq!(engine.probe(42), Some((0, 0)));
        assert_eq!(engine.probe(43), None);
    }

    #[test]
    fn group_engine_promotes_at_half_used_and_stays_consistent() {
        // Population 6: records through fresh views (as the walker does,
        // one view per step) promote the edge at the half-used point; the
        // membership answers must be identical across the transition.
        let mut engine = GroupEngine::default();
        engine.view(9, 6).record(4, 1);
        engine.view(9, 6).record(1, 2);
        assert!(engine.items.is_empty(), "too early to promote");
        // Third record leaves 3 of 6 used; the next view creation crosses
        // the half-used point and must promote without changing any answer.
        engine.view(9, 6).record(5, 1);
        {
            let view = engine.view(9, 6);
            assert_eq!(view.used_count(), 3);
            for idx in [1usize, 4, 5] {
                assert!(view.is_used(idx), "index {idx} lost in promotion");
            }
            for idx in [0usize, 2, 3] {
                assert!(!view.is_used(idx), "index {idx} wrongly used");
            }
            assert!(view.group_attempted(1) && view.group_attempted(2));
        }
        assert!(!engine.items.is_empty(), "half-used edge must be promoted");
        // Finish the super-cycle through the sliced path.
        let mut view = engine.view(9, 6);
        view.record(0, 3);
        view.record(2, 1);
        view.record(3, 2);
        assert_eq!(engine.total_entries(), 0); // rewound
        assert_eq!(engine.probe(9), Some((0, 0)));
    }

    #[test]
    fn group_engine_keeps_large_cold_edges_compact() {
        // One draw on a degree-500 edge must not materialize slices: the
        // small stage is O(draws), the O(K) guard for GNRW.
        let mut engine = GroupEngine::default();
        engine.view(1, 500).record(123, 7);
        assert!(engine.items.is_empty() && engine.pos.is_empty());
        assert_eq!(engine.total_entries(), 1);
        assert!(engine.view(1, 500).is_used(123));
        assert!(!engine.view(1, 500).is_used(124));
    }

    #[test]
    fn group_engine_separate_keys_have_separate_slices() {
        let mut engine = GroupEngine::default();
        engine.view(1, 3).record(0, 7);
        engine.view(2, 5).record(4, 9);
        assert_eq!(engine.tracked(), 2);
        assert_eq!(engine.total_entries(), 2);
        assert!(engine.view(1, 3).is_used(0));
        assert!(!engine.view(1, 3).is_used(1));
        assert!(engine.view(2, 5).is_used(4));
        assert!(!engine.view(2, 5).is_used(0));
    }

    // --- plan-path slots ---

    use crate::groupplan::{AliasTable, DrawBatch, NodeGroups};

    /// Three groups of sizes 5/4/3 over population 12 (indices in order).
    fn plan_fixture() -> (Vec<u32>, Vec<u32>, Vec<u64>) {
        ((0..12).collect(), vec![5, 9, 12], vec![10, 20, 30])
    }

    #[test]
    fn plan_draws_cover_population_each_super_cycle() {
        // Population 12 > INLINE_CAP: the first cycle crosses the
        // PlanInline -> PlanSliced boundary mid-way; every cycle must still
        // be a permutation of the population (Theorem 4's invariant).
        let (members, ends, keys) = plan_fixture();
        let groups = NodeGroups {
            members: &members,
            ends: &ends,
            keys: &keys,
        };
        let alias = AliasTable::new(&[5, 4, 3]);
        let mut engine = GroupEngine::default();
        let mut batch = DrawBatch::new();
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut rem = Vec::new();
        for cycle in 0..5 {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..12 {
                let idx = engine.plan_view(5, &groups).draw(
                    &groups,
                    Some(&alias),
                    &mut batch,
                    &mut rng,
                    &mut rem,
                );
                assert!(seen.insert(idx), "repeat of {idx} in cycle {cycle}");
            }
            assert_eq!(seen.len(), 12, "cycle {cycle} incomplete");
        }
        // The slot must have promoted into the plan arena by now, and the
        // completed super-cycle leaves zero recorded entries.
        assert!(engine.plan_arena_capacity() >= 12);
        assert_eq!(engine.total_entries(), 0);
    }

    #[test]
    fn plan_draws_without_alias_fall_back_to_weighted_scan() {
        // `alias: None` (single-group nodes or alias construction skipped)
        // must preserve the same coverage invariant through the linear
        // remaining-weighted fallback.
        let (members, ends, keys) = plan_fixture();
        let groups = NodeGroups {
            members: &members,
            ends: &ends,
            keys: &keys,
        };
        let mut engine = GroupEngine::default();
        let mut batch = DrawBatch::new();
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        let mut rem = Vec::new();
        for _ in 0..3 {
            let seen: std::collections::HashSet<usize> = (0..12)
                .map(|_| {
                    engine
                        .plan_view(5, &groups)
                        .draw(&groups, None, &mut batch, &mut rng, &mut rem)
                })
                .collect();
            assert_eq!(seen.len(), 12);
        }
    }

    #[test]
    fn plan_promotion_preserves_used_and_attempted_sets() {
        // Drive a slot just past the promotion point and check membership
        // and the attempted mask survive the inline -> sliced transition.
        let (members, ends, keys) = plan_fixture();
        let groups = NodeGroups {
            members: &members,
            ends: &ends,
            keys: &keys,
        };
        let alias = AliasTable::new(&[5, 4, 3]);
        let mut engine = GroupEngine::default();
        let mut batch = DrawBatch::new();
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let mut rem = Vec::new();
        let mut drawn = Vec::new();
        for _ in 0..7 {
            drawn.push(engine.plan_view(5, &groups).draw(
                &groups,
                Some(&alias),
                &mut batch,
                &mut rng,
                &mut rem,
            ));
        }
        assert!(
            engine.plan_arena_capacity() >= 12,
            "7 of 12 used must have promoted"
        );
        let view = engine.plan_view(5, &groups);
        assert_eq!(view.used_count(), 7);
        for idx in 0..12usize {
            assert_eq!(
                view.is_used(idx, &groups),
                drawn.contains(&idx),
                "membership for {idx} changed across promotion"
            );
        }
    }

    #[test]
    fn plan_slots_roundtrip_through_export_import() {
        // One slot per stage (inline, spill, sliced); the re-imported
        // engine must agree on counts and membership, and continue to a
        // full cover.
        let (members, ends, keys) = plan_fixture();
        let sliced_groups = NodeGroups {
            members: &members,
            ends: &ends,
            keys: &keys,
        };
        let alias = AliasTable::new(&[5, 4, 3]);
        // A wide population keeps its slot in the spill stage: the inline
        // cap is exceeded but the slice would break the span bound.
        let wide_members: Vec<u32> = (0..200).collect();
        let wide_ends = vec![100, 160, 200];
        let wide_keys = vec![1, 2, 3];
        let wide_groups = NodeGroups {
            members: &wide_members,
            ends: &wide_ends,
            keys: &wide_keys,
        };
        let wide_alias = AliasTable::new(&[100, 60, 40]);
        let mut engine = GroupEngine::default();
        let mut batch = DrawBatch::new();
        let mut rng = ChaCha12Rng::seed_from_u64(10);
        let mut rem = Vec::new();
        let mut draw = |engine: &mut GroupEngine,
                        key: u64,
                        groups: &NodeGroups<'_>,
                        alias: &AliasTable,
                        n: usize| {
            for _ in 0..n {
                engine.plan_view(key, groups).draw(
                    groups,
                    Some(alias),
                    &mut batch,
                    &mut rng,
                    &mut rem,
                );
            }
        };
        draw(&mut engine, 1, &sliced_groups, &alias, 3); // inline
        draw(&mut engine, 2, &sliced_groups, &alias, 9); // sliced
        draw(&mut engine, 3, &wide_groups, &wide_alias, 10); // spill
        let state = engine.export_state();
        let mut imported = GroupEngine::import_state(&state).unwrap();
        assert_eq!(imported.tracked(), engine.tracked());
        assert_eq!(imported.total_entries(), engine.total_entries());
        for key in [1u64, 2] {
            let snapshot: Vec<bool> = {
                let a = engine.plan_view(key, &sliced_groups);
                (0..12).map(|idx| a.is_used(idx, &sliced_groups)).collect()
            };
            let b = imported.plan_view(key, &sliced_groups);
            let original = engine.plan_view(key, &sliced_groups);
            assert_eq!(original.used_count(), b.used_count(), "key {key}");
            assert_eq!(original.attempted_mask(), b.attempted_mask(), "key {key}");
            for (idx, &was) in snapshot.iter().enumerate() {
                assert_eq!(b.is_used(idx, &sliced_groups), was, "key {key}/{idx}");
            }
        }
        {
            let spill = imported.plan_view(3, &wide_groups);
            assert_eq!(spill.used_count(), 10);
        }
        // The imported sliced slot must finish its super-cycle cleanly: 3
        // draws cover the remaining 3 members and rewind the cycle.
        let mut batch2 = DrawBatch::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let idx = imported.plan_view(2, &sliced_groups).draw(
                &sliced_groups,
                Some(&alias),
                &mut batch2,
                &mut rng,
                &mut rem,
            );
            assert!(seen.insert(idx), "repeat of {idx} closing the cycle");
        }
        assert_eq!(imported.plan_view(2, &sliced_groups).used_count(), 0);
    }

    #[test]
    #[should_panic(expected = "plan-path state")]
    fn scratch_view_rejects_plan_slots() {
        let (members, ends, keys) = plan_fixture();
        let groups = NodeGroups {
            members: &members,
            ends: &ends,
            keys: &keys,
        };
        let mut engine = GroupEngine::default();
        let _ = engine.plan_view(5, &groups);
        let _ = engine.view(5, 12);
    }

    #[test]
    #[should_panic(expected = "scratch-path state")]
    fn plan_view_rejects_scratch_slots() {
        let (members, ends, keys) = plan_fixture();
        let groups = NodeGroups {
            members: &members,
            ends: &ends,
            keys: &keys,
        };
        let mut engine = GroupEngine::default();
        let _ = engine.view(5, 12);
        let _ = engine.plan_view(5, &groups);
    }
}
