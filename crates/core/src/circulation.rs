//! Arena-backed partial-Fisher–Yates circulation engine.
//!
//! This is the one storage layer behind [`crate::history`]: the per-edge
//! without-replacement "circulation" state of CNRW (Algorithm 1) and GNRW
//! (Algorithm 2). The paper suggests one hash set per edge (§3.3); the
//! engine replaces it with compact, index-based layouts that make the
//! steady-state per-draw hot path
//! **exactly `O(1)`** — no rejection loop, no rank scan, and zero hashing
//! *inside* a promoted circulation. (Locating the edge's state still costs
//! the one packed-edge-key map lookup per draw that every layout pays; what
//! the arena removes is the per-candidate membership hashing within it.)
//!
//! ## Layout
//!
//! Each walker's engine keeps its per-edge state in one hash map from the
//! packed edge key to a small slot: 24 bytes an entry for the node engine,
//! 32 for the group engine, pinned by compile-time asserts. The map is the
//! largest thing a walker holds — most of its edges are transited once —
//! and every draw, invalidation sweep and rehash moves whole entries, so a
//! slot holds only what a cold edge's first few draws need, and the rest
//! lives beside the map.
//!
//! All touched edges of one walker share a single arena (`Vec<NodeId>` for
//! the node engine; the group engine's is laid out below). Each promoted
//! edge owns a contiguous slice of it holding a permutation of the edge's
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
//! 1. **Inline** — up to [`INLINE_CAP`] used node ids in pick order. The
//!    first 3 (a GNRW edge's first 4) sit in the map slot itself; the pick
//!    after those moves them all into a chunk of `INLINE_CAP` items from
//!    the engine's pool, which grows by doubling and takes back the chunks
//!    of edges that promote, spill or are invalidated. No edge allocates
//!    in this stage. Draws use bounded rejection sampling against the few
//!    picks.
//! 2. **Spill** — a boxed hash set of used ids, one entry per draw (the
//!    paper's layout, `O(1)` expected draws), entered only when the inline
//!    stage fills before the edge qualifies for promotion.
//! 3. **Promoted** — the arena slice. An edge is promoted once it has at
//!    least `promotion_threshold` recorded draws (tunable, see
//!    [`CirculationEngine::with_threshold`]) **and** the slice would cost
//!    at most [`PROMOTION_SPAN`]` × draws` — or unconditionally once half
//!    its population is used, where the slice costs `≤ 2 × draws` and a
//!    hash set would start degrading to rank scans.
//!
//! Promotion preserves the already-used set, so the drawn coverage of a
//! cycle is independent of the threshold; and since a slice never exceeds
//! `PROMOTION_SPAN ×` the draws recorded on its edge, total memory stays
//! `O(K)` after `K` steps (within that constant), the paper's bound.
//!
//! ## The group engine
//!
//! The [`GroupEngine`] holds GNRW's state — `b(u, v)` and the attempted
//! groups `S(u, v)` — in the same three stages and under the same promotion
//! rule, and runs the one GNRW step, Algorithm 2, on all of them (see
//! [`GroupEdgeView::step`]). A cold edge keeps its picks inline — in its
//! slot, then in a pool chunk — and then in a hash set. Its exact step
//! takes `N(v)`'s partition from the caller. Under a grouping whose key of
//! a member depends on that member alone, the caller first tries
//! [`GroupEdgeView::step_by_rejection`], which needs no
//! partition: Algorithm 2's pick is a uniform draw from the unvisited
//! members whose group is not in `S(u, v)`, so the step proposes uniform
//! members of `N(v)` and keys only those it must test — none while
//! `S(u, v)` is empty, as on an edge's first visit. After
//! `min(`[`MAX_REJECTION_ITERS`]`, deg(v))` misses it declines, and the
//! exact step draws from the same set (or resets the sub-cycle), so the
//! law is Algorithm 2's either way. Promotion freezes the partition into
//! the arena, group-major, with a cursor per group:
//!
//! ```text
//! members: [ .. | 4  0  8 | 5  1  3 | .. ]   groups {0,4,8} {1,3,5};
//!                    ^next     ^next         4, 5 picked this super-cycle
//! ```
//!
//! Each group's unvisited members stay in index order after its cursor,
//! so the `rank`-th one is read directly; a step costs `O(groups)` and no
//! membership probe, and the edge never needs the partition again until
//! invalidation drops it. Because the sub-cycle only ever picks from a
//! group not yet attempted, `S(u, v)` is the set of groups of the current
//! sub-cycle's picks, which cold stages keep with their picks.
//!
//! ## Snapshot columns
//!
//! Both engines export their per-edge state column-wise, as a few flat
//! arrays of integers with one row per edge in ascending key order, not
//! one object per edge: `keys`, and a `stages` code per edge (0 inline,
//! 1 spill, 2 promoted). A variable-length part of a row is a count in one
//! column and a run in the next — a cold edge's `pick_counts` entry and
//! its `picks`, say — and a promoted row's fixed-width part is a triple.
//! Import reads every column front to back, runs every per-edge check on
//! the rows, and refuses a snapshot whose column lengths disagree. The
//! text of a long walk is then a few long scalar arrays, which the writers
//! print on one line each and the parser reads without a per-edge object.

use std::borrow::Cow;
use std::marker::PhantomData;

use osn_graph::NodeId;
use osn_serde::Value;
use rand::{Rng, RngCore};

use crate::fnv::{FnvHashMap, FnvHashSet};

/// Source-compatibility shim, kept only for the benchmark harness: it still
/// passes a history backend to `Cnrw::with_backend`, `Gnrw::with_backend`
/// and the walker factories of the two engines. There is one circulation
/// engine, so the value carries nothing and no code reads it. The next
/// change to the benchmark deletes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct HistoryBackend;

/// Capacity of the inline stage — the picks an edge records before it
/// spills to a hash set, unless it promotes first — and therefore the hard
/// upper bound on [`CirculationEngine`] promotion thresholds. Only the
/// first few picks sit in the edge's map entry; an edge with more keeps
/// them in a pool chunk of this many items (see the module docs).
pub const INLINE_CAP: usize = 8;

/// Maximum ratio between a promoted slice's length and the draws recorded
/// on its edge at promotion time. This is what keeps arena memory `O(K)`:
/// every promoted `deg`-sized slice is backed by at least `deg / SPAN`
/// recorded draws, so the arena never exceeds `SPAN × steps` entries.
pub const PROMOTION_SPAN: usize = 8;

/// Iteration cap for every rejection-sampling draw loop in this crate.
/// Past it, each loop falls back to an exact draw over the same set, so the
/// cap bounds a draw's cost and never changes its law: the draw is uniform
/// over the accepted set whether a proposal or the fallback makes it.
///
/// * CNRW's cold draws accept an unused neighbor. The half-used promotion
///   rule keeps acceptance at ≥ ½, so 32 failed proposals have probability
///   ≤ 2⁻³²; the cap bounds the worst case on adversarial RNG streams, and
///   the fallback is an `O(deg)` rank scan.
/// * GNRW's cold step by rejection
///   ([`GroupEdgeView::step_by_rejection`]) accepts an unvisited neighbor
///   whose group is not in `S(u, v)`. Its acceptance is `|U| / deg(v)` for
///   that set `U`, which can be small — `2/42` with two singleton groups
///   left beside an attempted group of 40 — and is 0 when the sub-cycle
///   must reset. It makes at most `min(32, deg(v))` proposals, so its
///   proposals never key more members than one partition of `N(v)` keys,
///   and then it declines to the exact partition step
///   ([`GroupEdgeView::step`]).
pub const MAX_REJECTION_ITERS: usize = 32;

/// Up to `tries` uniform proposals from `0..len`: the first that `accept`
/// takes, or `None`. The proposal loop of every rejection-sampling draw in
/// this crate.
fn propose<R: Rng + ?Sized>(
    len: usize,
    tries: usize,
    mut accept: impl FnMut(usize) -> bool,
    rng: &mut R,
) -> Option<usize> {
    (0..tries)
        .map(|_| rng.gen_range(0..len))
        .find(|&i| accept(i))
}

/// Uniform draw from the items of `population` not matched by `is_used`
/// (`remaining` of them): up to `max_rejections` rejection-sampling
/// proposals, then an exact rank scan. The single implementation behind
/// both pre-promotion draw paths, inline and spill.
pub(crate) fn draw_excluding<R: Rng + ?Sized>(
    population: &[NodeId],
    remaining: usize,
    max_rejections: usize,
    is_used: impl Fn(&NodeId) -> bool,
    rng: &mut R,
) -> NodeId {
    debug_assert!(remaining > 0 && remaining <= population.len());
    let accept = |i: usize| !is_used(&population[i]);
    if let Some(i) = propose(population.len(), max_rejections, accept, rng) {
        return population[i];
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
/// key's low 32 bits — `is_touched` accepts, in one pass, handing each
/// removed slot to `clear` first; returns how many were removed. The single
/// invalidation sweep behind both engines.
fn drop_targets<S>(
    slots: &mut FnvHashMap<u64, S>,
    mut clear: impl FnMut(&mut S),
    is_touched: impl Fn(u32) -> bool,
) -> usize {
    let before = slots.len();
    slots.retain(|&key, slot| {
        let touched = is_touched(key as u32);
        if touched {
            clear(slot);
        }
        !touched
    });
    before - slots.len()
}

/// The chunks of [`INLINE_CAP`] items that hold the picks of inline edges
/// past their map entry's room, one pool per engine. Chunks are carved
/// from one `Vec`, which grows by doubling, and a chunk released by
/// promotion, spill or invalidation goes on a free list for the next edge
/// that needs one, so no edge allocates.
#[derive(Clone, Debug, Default)]
struct ChunkPool {
    chunks: Vec<[u32; INLINE_CAP]>,
    free: Vec<u32>,
}

impl ChunkPool {
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.chunks.push([0; INLINE_CAP]);
            arena_offset(self.chunks.len() - 1)
        })
    }

    /// Release every chunk, keeping both buffers' capacity.
    fn clear(&mut self) {
        self.chunks.clear();
        self.free.clear();
    }
}

/// An inline-stage edge's picks, in pick order: up to `N` in the edge's
/// map entry, and from the `N + 1`-th on all of them in one pool chunk,
/// so that they are always one slice.
#[derive(Clone, Copy, Debug)]
enum Picks<const N: usize> {
    Entry { ids: [u32; N], len: u8 },
    Chunk { chunk: u32, len: u8 },
}

impl<const N: usize> Picks<N> {
    const EMPTY: Self = Picks::Entry {
        ids: [0; N],
        len: 0,
    };

    fn len(&self) -> usize {
        match *self {
            Picks::Entry { len, .. } | Picks::Chunk { len, .. } => usize::from(len),
        }
    }

    /// The picks: the one read of an inline edge's state.
    #[inline]
    fn get<'a>(&'a self, pool: &'a ChunkPool) -> &'a [u32] {
        match self {
            Picks::Entry { ids, len } => &ids[..usize::from(*len)],
            Picks::Chunk { chunk, len } => &pool.chunks[*chunk as usize][..usize::from(*len)],
        }
    }

    /// Append a pick to fewer than [`INLINE_CAP`], moving them all into a
    /// chunk when the entry is full.
    fn push(&mut self, pick: u32, pool: &mut ChunkPool) {
        match self {
            Picks::Entry { ids, len } if usize::from(*len) < N => {
                ids[usize::from(*len)] = pick;
                *len += 1;
            }
            Picks::Entry { ids, .. } => {
                let chunk = pool.take();
                let items = &mut pool.chunks[chunk as usize];
                items[..N].copy_from_slice(ids);
                items[N] = pick;
                *self = Picks::Chunk {
                    chunk,
                    len: N as u8 + 1,
                };
            }
            Picks::Chunk { chunk, len } => {
                pool.chunks[*chunk as usize][usize::from(*len)] = pick;
                *len += 1;
            }
        }
    }

    /// Forget the picks, returning their chunk to the pool.
    fn clear(&mut self, pool: &mut ChunkPool) {
        if let Picks::Chunk { chunk, .. } = *self {
            pool.free.push(chunk);
        }
        *self = Self::EMPTY;
    }
}

/// Swap the items `is_used` accepts to the front of a fresh arena slice,
/// in one pass; returns how many there were — the promoted cursor.
fn partition_used(slice: &mut [NodeId], is_used: impl Fn(&NodeId) -> bool) -> usize {
    let mut cursor = 0;
    for i in 0..slice.len() {
        if is_used(&slice[i]) {
            slice.swap(cursor, i);
            cursor += 1;
        }
    }
    cursor
}

/// Codes of the snapshot's `stages` column, one per edge.
const INLINE: u8 = 0;
const SPILL: u8 = 1;
const PROMOTED: u8 = 2;

/// A slot map's entries sorted by key: the row order of every snapshot
/// column, which makes an export a function of the state alone.
fn sorted_by_key<S>(slots: &FnvHashMap<u64, S>) -> Vec<(u64, &S)> {
    let mut edges: Vec<(u64, &S)> = slots.iter().map(|(&k, s)| (k, s)).collect();
    edges.sort_unstable_by_key(|&(k, _)| k);
    edges
}

/// The `keys` column of sorted entries.
fn keys_value<S>(edges: &[(u64, &S)]) -> Value {
    Value::uints(edges.iter().map(|&(k, _)| k))
}

/// Edge keys ascend strictly: the export's order, and no edge twice.
fn check_keys(keys: &[u64]) -> Result<(), String> {
    match keys.windows(2).find(|w| w[0] >= w[1]) {
        Some(w) if w[0] == w[1] => Err(format!("duplicate edge key {}", w[0])),
        Some(w) => Err(format!("edge keys do not ascend: {} before {}", w[0], w[1])),
        None => Ok(()),
    }
}

fn unknown_stage(key: u64, code: u8) -> String {
    format!("unknown stage code {code} of edge {key}")
}

/// One imported column, read in place front to back: per-edge scalars
/// with [`one`](Self::one), concatenated runs with [`take`](Self::take).
/// A snapshot without it — one in an older layout — gives an error naming
/// it, and so does an item that does not fit `T`: every item is checked
/// once, at [`read`](Self::read), so the runs `take` lends narrow to `T`
/// losslessly. Reading past the end, or leaving items over
/// ([`finish`](Self::finish)), is an error naming the column — which is
/// how import checks that the column lengths agree.
struct Column<'a, T> {
    name: &'static str,
    items: Cow<'a, [u64]>,
    at: usize,
    item: PhantomData<T>,
}

impl<'a, T: TryFrom<u64>> Column<'a, T> {
    fn read(state: &'a Value, name: &'static str) -> Result<Self, String> {
        let items = state
            .field(name)?
            .as_uints()
            .map_err(|e| format!("column `{name}`: {e}"))?;
        let column = Column {
            name,
            items,
            at: 0,
            item: PhantomData,
        };
        match column.items.iter().find(|&&u| T::try_from(u).is_err()) {
            Some(&u) => Err(column.out_of_range(u)),
            None => Ok(column),
        }
    }

    fn out_of_range(&self, u: u64) -> String {
        format!(
            "column `{}`: integer {u} out of {} range",
            self.name,
            std::any::type_name::<T>()
        )
    }

    fn take(&mut self, n: usize) -> Result<&[u64], String> {
        let left = self.items.len() - self.at;
        if n > left {
            return Err(format!("column `{}` is short by {}", self.name, n - left));
        }
        self.at += n;
        Ok(&self.items[self.at - n..self.at])
    }

    fn one(&mut self) -> Result<T, String> {
        let u = self.take(1)?[0];
        T::try_from(u).map_err(|_| self.out_of_range(u))
    }

    fn finish(&self) -> Result<(), String> {
        match self.items.len() - self.at {
            0 => Ok(()),
            n => Err(format!("column `{}` has {n} items left over", self.name)),
        }
    }
}

/// Per-edge state of the node engine, 16 bytes beside its key: staged from
/// inline through spill to an owned arena slice (see the module docs).
#[derive(Clone, Debug)]
enum Slot {
    /// Up to `INLINE_CAP` used node ids, the first 3 in place.
    Inline(Picks<3>),
    /// Used ids in a boxed hash set — `O(draws)` memory for edges whose
    /// population is too large to promote yet.
    Spill(Box<FnvHashSet<NodeId>>),
    /// `arena[start..start + len]` is a permutation of the population;
    /// positions `< cursor` are used this cycle.
    Promoted { start: u32, len: u32, cursor: u32 },
}

const _: () = assert!(std::mem::size_of::<(u64, Slot)>() == 24);

impl Slot {
    const EMPTY: Slot = Slot::Inline(Picks::EMPTY);

    fn used_len(&self) -> usize {
        match self {
            Slot::Inline(picks) => picks.len(),
            Slot::Spill(set) => set.len(),
            Slot::Promoted { cursor, .. } => *cursor as usize,
        }
    }

    /// Whether a draw on `plen` items can continue this state: a cold
    /// cycle resets before its picks cover the population — a spill edge
    /// promotes first — and a promoted slice is a permutation of it. Only
    /// state imported from elsewhere fails this.
    fn fits(&self, plen: usize) -> bool {
        match self {
            Slot::Inline(picks) => picks.len() < plen,
            Slot::Spill(set) => set.len() + 1 < plen,
            Slot::Promoted { len, .. } => *len as usize == plen,
        }
    }

    /// Drop the state, returning its chunk to the pool.
    fn clear(&mut self, pool: &mut ChunkPool) {
        match self {
            Slot::Inline(picks) => picks.clear(pool),
            _ => *self = Slot::EMPTY,
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
    pool: ChunkPool,
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
            pool: ChunkPool::default(),
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
    /// §3.3 — the summed sizes of the paper's per-edge sets).
    pub fn total_entries(&self) -> usize {
        self.slots.values().map(Slot::used_len).sum()
    }

    /// Used-item count for `key`, or `None` if the key has no state. Never
    /// creates state (read-only probe).
    pub fn used_len(&self, key: u64) -> Option<usize> {
        self.slots.get(&key).map(Slot::used_len)
    }

    /// Drop all state, **keeping the slab allocations**: the arena's
    /// backing buffer, the chunk pool's and the slot map's buckets are
    /// retained at their current capacity so the next walk re-promotes
    /// into already-owned memory. This is the contract `RandomWalk::restart`
    /// relies on — a restarted walker must not re-allocate its history from
    /// scratch (pinned by `arena_slab_is_reused_across_restarts` in
    /// `tests/circulation_props.rs`, via [`Self::arena_capacity`]).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.arena.clear();
        self.pool.clear();
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
    /// Their pool chunks are reused; arena slices of dropped promoted slots
    /// leak until the next [`Self::clear`] — bounded by [`PROMOTION_SPAN`],
    /// same as re-promotion churn.
    pub fn invalidate_targets(&mut self, is_touched: impl Fn(u32) -> bool) -> usize {
        drop_targets(
            &mut self.slots,
            |slot| slot.clear(&mut self.pool),
            is_touched,
        )
    }

    /// Serialize the engine's full state to a [`Value`] tree for
    /// snapshot/resume, column-wise (see the module docs' "Snapshot
    /// columns"): `keys` ascending, a `stages` code per edge, a cold edge's
    /// `pick_counts` entry and its run of `picks`, a promoted edge's
    /// `[start, len, cursor]` triple in `promoted`.
    ///
    /// Arena contents and promoted cursors are exported **verbatim** — the
    /// slice permutation determines every future draw, so a resumed engine
    /// continues bit-identically on the same RNG stream. Spill sets are
    /// membership-only and serialize sorted, making the export a
    /// deterministic function of the engine state.
    pub fn export_state(&self) -> Value {
        let edges = sorted_by_key(&self.slots);
        let mut stages = Vec::with_capacity(edges.len());
        let (mut counts, mut picks, mut promoted) = (Vec::new(), Vec::new(), Vec::new());
        for (_, slot) in &edges {
            match slot {
                Slot::Inline(used) => {
                    stages.push(INLINE);
                    counts.push(used.len() as u32);
                    picks.extend_from_slice(used.get(&self.pool));
                }
                Slot::Spill(set) => {
                    stages.push(SPILL);
                    counts.push(set.len() as u32);
                    let at = picks.len();
                    picks.extend(set.iter().map(|n| n.0));
                    picks[at..].sort_unstable();
                }
                Slot::Promoted { start, len, cursor } => {
                    stages.push(PROMOTED);
                    promoted.extend([*start, *len, *cursor]);
                }
            }
        }
        Value::obj([
            ("threshold", Value::Uint(self.promotion_threshold as u64)),
            (
                "arena",
                Value::uints(self.arena.iter().map(|n| u64::from(n.0))),
            ),
            ("keys", keys_value(&edges)),
            ("stages", Value::arr(&stages)),
            ("pick_counts", Value::arr(&counts)),
            ("picks", Value::arr(&picks)),
            ("promoted", Value::arr(&promoted)),
        ])
    }

    /// Rebuild an engine from [`export_state`](Self::export_state) output.
    ///
    /// # Errors
    /// Returns a message when the tree is malformed or internally
    /// inconsistent: a missing column (named), columns whose lengths
    /// disagree, keys not strictly ascending, an unknown stage code, an
    /// oversized inline set, a promoted slice out of arena bounds or a
    /// cursor outside its slice.
    pub fn import_state(state: &Value) -> Result<Self, String> {
        let threshold: usize = state.field("threshold")?.decode()?;
        if !(1..=INLINE_CAP).contains(&threshold) {
            return Err(format!("promotion threshold {threshold} out of range"));
        }
        let arena = Column::<u32>::read(state, "arena")?;
        let arena: Vec<NodeId> = arena.items.iter().map(|&n| NodeId(n as u32)).collect();
        let keys = Column::<u64>::read(state, "keys")?;
        check_keys(&keys.items)?;
        let mut stages = Column::<u8>::read(state, "stages")?;
        let mut counts = Column::<u32>::read(state, "pick_counts")?;
        let mut picks = Column::<u32>::read(state, "picks")?;
        let mut promoted = Column::<u32>::read(state, "promoted")?;
        let mut slots = FnvHashMap::with_capacity_and_hasher(keys.items.len(), Default::default());
        let mut pool = ChunkPool::default();
        for &key in keys.items.iter() {
            let slot = match stages.one()? {
                INLINE => {
                    let ids = picks.take(counts.one()? as usize)?;
                    if ids.len() > INLINE_CAP {
                        return Err(format!(
                            "inline edge {key} holds {} > {INLINE_CAP}",
                            ids.len()
                        ));
                    }
                    let mut used = Picks::EMPTY;
                    for &id in ids {
                        used.push(id as u32, &mut pool);
                    }
                    Slot::Inline(used)
                }
                SPILL => {
                    let ids = picks.take(counts.one()? as usize)?;
                    Slot::Spill(Box::new(ids.iter().map(|&id| NodeId(id as u32)).collect()))
                }
                PROMOTED => {
                    let (start, len, cursor) = (promoted.one()?, promoted.one()?, promoted.one()?);
                    if (start as usize) + (len as usize) > arena.len() {
                        return Err(format!(
                            "promoted edge {key}: slice {start}+{len} exceeds arena of {}",
                            arena.len()
                        ));
                    }
                    if len == 0 || cursor >= len {
                        return Err(format!(
                            "promoted edge {key}: cursor {cursor} out of slice of {len}"
                        ));
                    }
                    Slot::Promoted { start, len, cursor }
                }
                other => return Err(unknown_stage(key, other)),
            };
            slots.insert(key, slot);
        }
        stages.finish()?;
        counts.finish()?;
        picks.finish()?;
        promoted.finish()?;
        Ok(CirculationEngine {
            slots,
            arena,
            pool,
            promotion_threshold: threshold,
        })
    }

    /// Draw uniformly at random from `population \ used(key)`, record the
    /// draw, and reset the cycle once the population is exhausted (the
    /// completing draw triggers the reset, so the *next* draw sees the full
    /// population again). Returns `None` only for an empty population.
    ///
    /// State that cannot have been recorded on `population` — a promoted
    /// slice of another length, or a cold cycle that should have reset,
    /// as an imported snapshot can hold — is dropped first, as
    /// [`invalidate_targets`](Self::invalidate_targets) drops it after a
    /// mutation, and the draw starts a fresh cycle.
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
        let slot = self.slots.entry(key).or_insert(Slot::EMPTY);
        // State that no draw on this population can have left is of
        // another population: drop it, as invalidation does after a
        // mutation, and draw afresh.
        if !slot.fits(plen) {
            slot.clear(&mut self.pool);
        }
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
            let cursor = match &*slot {
                Slot::Inline(used) => {
                    let used = used.get(&self.pool);
                    partition_used(slice, |w| used.contains(&w.0))
                }
                Slot::Spill(set) => partition_used(slice, |w| set.contains(w)),
                Slot::Promoted { .. } => unreachable!("guarded by the !Promoted check above"),
            };
            debug_assert_eq!(cursor, slot.used_len(), "used set ⊆ population");
            slot.clear(&mut self.pool);
            *slot = Slot::Promoted {
                start: arena_offset(start),
                len: plen as u32,
                cursor: cursor as u32,
            };
        } else if let Slot::Inline(used) = slot {
            // Inline full but the population is too large for the span
            // guard: spill to a hash set that grows one entry per draw.
            if used.len() == INLINE_CAP {
                let set = used.get(&self.pool).iter().map(|&id| NodeId(id)).collect();
                slot.clear(&mut self.pool);
                *slot = Slot::Spill(Box::new(set));
            }
        }
        match slot {
            Slot::Inline(picks) => {
                let used = picks.get(&self.pool);
                let used_len = used.len();
                debug_assert!(used_len < plen && used_len < INLINE_CAP);
                // Bounded rejection against the few inline picks (probes
                // are hash-free). Acceptance is > 1/2 below the half-used
                // promotion point; only the cycle-completing draw of a
                // small population can sit lower (≥ 1/plen), and the cap
                // bounds that too.
                let pick = draw_excluding(
                    population,
                    plen - used_len,
                    MAX_REJECTION_ITERS,
                    |w| used.contains(&w.0),
                    rng,
                );
                if used_len + 1 == plen {
                    picks.clear(&mut self.pool); // circulation complete -> reset
                } else {
                    picks.push(pick.0, &mut self.pool);
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

/// The partition of one node's neighbor list in flat form, as a cold GNRW
/// step reads it. `members` holds **local neighbor indices** (positions
/// in `N(v)`), grouped contiguously in ascending key order; `ends` closes
/// each group.
#[derive(Clone, Copy, Debug)]
pub struct NodeGroups<'a> {
    /// Local neighbor indices, group-major; a permutation of `0..deg(v)`.
    pub members: &'a [u32],
    /// Per-group end offset (exclusive) into `members`.
    pub ends: &'a [u32],
}

impl NodeGroups<'_> {
    /// `deg(v)`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the node has no neighbors.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.ends.len()
    }

    /// Half-open `members` range of group `g`.
    #[inline]
    pub fn bounds(&self, g: usize) -> (usize, usize) {
        let start = if g == 0 { 0 } else { self.ends[g - 1] as usize };
        (start, self.ends[g] as usize)
    }

    /// The local neighbor indices of group `g`, ascending.
    #[inline]
    pub fn members_of(&self, g: usize) -> &[u32] {
        let (start, end) = self.bounds(g);
        &self.members[start..end]
    }
}

/// One group of a promoted edge's frozen partition. Its members occupy
/// positions `begin..end` of the edge's member slice, where `begin` is the
/// previous group's `end` (0 for the first group): the members picked this
/// super-cycle before `next`, the unvisited ones from `next` on in
/// ascending index order.
#[derive(Clone, Copy, Debug)]
struct GroupSpan {
    /// Position of the group's first unvisited member.
    next: u32,
    /// End (exclusive) of the group's members.
    end: u32,
    /// Whether the group is in `S(u, v)`.
    attempted: bool,
}

/// Per-edge state of the [`GroupEngine`], 24 bytes beside its key, staged
/// like the node engine's (see the module docs). `S(u, v)` needs no
/// storage of its own before promotion: a sub-cycle picks from a group not
/// yet attempted, so the groups of the current sub-cycle's picks are
/// exactly `S(u, v)`.
#[derive(Clone, Debug)]
enum GroupSlot {
    /// Up to [`INLINE_CAP`] used population indices in pick order, the
    /// first 4 in place; those from `sub` on were picked in the current
    /// sub-cycle.
    Inline { picks: Picks<4>, sub: u8 },
    /// The used indices, and the current sub-cycle's picks among them.
    Spill(Box<GroupSpill>),
    /// The partition the edge promoted under, frozen: its members,
    /// group-major, at `members[start..start + len]`, and one span per
    /// group at `spans[spans..spans + groups]`. `used` counts the members
    /// picked this super-cycle.
    Promoted {
        start: u32,
        len: u32,
        spans: u32,
        groups: u32,
        used: u32,
    },
}

const _: () = assert!(std::mem::size_of::<(u64, GroupSlot)>() == 32);

/// A spilled GNRW edge's picks of this super-cycle, and those of the
/// current sub-cycle.
#[derive(Clone, Debug)]
struct GroupSpill {
    used: FnvHashSet<u32>,
    current: Vec<u32>,
}

impl GroupSlot {
    const EMPTY: GroupSlot = GroupSlot::Inline {
        picks: Picks::EMPTY,
        sub: 0,
    };

    fn used_len(&self) -> usize {
        match self {
            GroupSlot::Inline { picks, .. } => picks.len(),
            GroupSlot::Spill(spill) => spill.used.len(),
            GroupSlot::Promoted { used, .. } => *used as usize,
        }
    }

    /// A cold slot's picks of the current sub-cycle.
    fn current<'a>(&'a self, pool: &'a ChunkPool) -> &'a [u32] {
        match self {
            GroupSlot::Inline { picks, sub } => &picks.get(pool)[usize::from(*sub)..],
            GroupSlot::Spill(spill) => &spill.current,
            GroupSlot::Promoted { .. } => unreachable!("a promoted slot is not cold"),
        }
    }

    /// Whether a cold slot's super-cycle has picked `m`.
    #[inline]
    fn is_used(&self, m: u32, pool: &ChunkPool) -> bool {
        match self {
            GroupSlot::Inline { picks, .. } => picks.get(pool).contains(&m),
            GroupSlot::Spill(spill) => spill.used.contains(&m),
            GroupSlot::Promoted { .. } => unreachable!("a promoted slot is not cold"),
        }
    }

    /// Whether a step on `plen` members can continue this state, as
    /// [`Slot::fits`] asks of the node engine's.
    fn fits(&self, plen: usize) -> bool {
        match self {
            GroupSlot::Inline { picks, .. } => picks.len() < plen,
            GroupSlot::Spill(spill) => spill.used.len() + 1 < plen,
            GroupSlot::Promoted { len, .. } => *len as usize == plen,
        }
    }

    /// Drop the state, returning its chunk to the pool.
    fn clear(&mut self, pool: &mut ChunkPool) {
        if let GroupSlot::Inline { picks, .. } = self {
            picks.clear(pool);
        }
        *self = GroupSlot::EMPTY;
    }

    /// Spill a full inline edge to a hash set, which grows one entry per
    /// pick.
    fn spill_if_full(&mut self, pool: &mut ChunkPool) {
        if let GroupSlot::Inline { picks, .. } = &*self {
            if picks.len() == INLINE_CAP {
                let spill = GroupSpill {
                    used: picks.get(pool).iter().copied().collect(),
                    current: self.current(pool).to_vec(),
                };
                self.clear(pool);
                *self = GroupSlot::Spill(Box::new(spill));
            }
        }
    }

    /// Record a cold slot's `pick` out of `plen` members: it starts a new
    /// sub-cycle when `reset`, and the super-cycle it completes starts over
    /// (Algorithm 2 step 4).
    fn record(&mut self, pick: u32, reset: bool, plen: usize, pool: &mut ChunkPool) {
        match self {
            GroupSlot::Inline { picks, sub } => {
                if picks.len() + 1 == plen {
                    self.clear(pool);
                } else {
                    if reset {
                        *sub = picks.len() as u8;
                    }
                    picks.push(pick, pool);
                }
            }
            GroupSlot::Spill(spill) => {
                // Spill implies 2·used < |N(v)| (the half-used rule would
                // have promoted otherwise): the super-cycle cannot complete
                // in this stage.
                debug_assert!(2 * spill.used.len() < plen);
                if reset {
                    spill.current.clear();
                }
                spill.used.insert(pick);
                spill.current.push(pick);
            }
            GroupSlot::Promoted { .. } => unreachable!("a promoted slot is not cold"),
        }
    }
}

/// The arena-backed engine for GNRW's per-edge state (Algorithm 2): the
/// set `b(u, v)` of neighbors picked this super-cycle and the set `S(u, v)`
/// of groups attempted this sub-cycle.
///
/// A cold edge holds only its picks — inline, then in a hash set — and
/// steps by rejection on its members' keys or exactly on `N(v)`'s
/// partition, both from the caller. Once it qualifies under the
/// [`PROMOTION_SPAN`] rule of the node engine, it freezes the partition
/// into the arenas: its members group-major in
/// `members`, one `GroupSpan` per group in `spans`. From then on a step
/// reads no partition and probes no set: a group's unvisited count is
/// `end − next`, and its `rank`-th unvisited member is `members[next +
/// rank]`. So group-history memory is `O(K)` too.
#[derive(Clone, Debug, Default)]
pub struct GroupEngine {
    slots: FnvHashMap<u64, GroupSlot>,
    members: Vec<u32>,
    spans: Vec<GroupSpan>,
    pool: ChunkPool,
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
        self.slots.get(&key).map(|slot| {
            let attempted = match slot {
                GroupSlot::Inline { .. } | GroupSlot::Spill(_) => slot.current(&self.pool).len(),
                GroupSlot::Promoted { spans, groups, .. } => {
                    let at = *spans as usize;
                    self.spans[at..at + *groups as usize]
                        .iter()
                        .filter(|s| s.attempted)
                        .count()
                }
            };
            (slot.used_len(), attempted)
        })
    }

    /// Drop all state, **keeping the slab allocations** (both arenas, the
    /// chunk pool and the slot-map buckets) — same restart-reuse contract
    /// as [`CirculationEngine::clear`].
    pub fn clear(&mut self) {
        self.slots.clear();
        self.members.clear();
        self.spans.clear();
        self.pool.clear();
    }

    /// Allocated capacity of the member arena, in entries. Survives
    /// [`Self::clear`] unchanged.
    pub fn arena_capacity(&self) -> usize {
        self.members.capacity()
    }

    /// Drop every slot whose circulated node (low 32 bits of the packed
    /// edge key) `is_touched` accepts — the evolving-graph invalidation
    /// hook, mirroring [`CirculationEngine::invalidate_targets`]: one pass
    /// over the slot map. A dropped edge starts cold again and takes the
    /// partition of the live `N(v)` until it promotes anew. Pool chunks of
    /// dropped slots are reused; their arena slices leak until the next
    /// [`Self::clear`] — bounded, same as re-promotion churn. Returns the
    /// number of slots dropped.
    pub fn invalidate_targets(&mut self, is_touched: impl Fn(u32) -> bool) -> usize {
        drop_targets(
            &mut self.slots,
            |slot| slot.clear(&mut self.pool),
            is_touched,
        )
    }

    /// Serialize the engine's full state to a [`Value`] tree for
    /// snapshot/resume, column-wise (see "Snapshot columns" in the module
    /// docs), rows sorted by key. A cold edge has a `pick_counts` entry and
    /// its run of `picks` of this super-cycle, and a `sub_counts` entry and
    /// its run of `sub_picks` of the current sub-cycle, both ascending. A
    /// promoted edge lists its frozen partition and where each group
    /// stands: a `member_counts` entry and its member slice verbatim in
    /// `members`, a `group_counts` entry and one `[end, cursor, attempted]`
    /// triple per group in `groups` — the cursor is the group's used-prefix
    /// length, `attempted` is 1 for a group in `S(u, v)` — and a
    /// `used_counts` entry. Arena offsets are not exported, so the tree is a
    /// function of the walk alone.
    pub fn export_state(&self) -> Value {
        let edges = sorted_by_key(&self.slots);
        let mut stages = Vec::with_capacity(edges.len());
        let (mut pick_counts, mut picks) = (Vec::new(), Vec::new());
        let (mut sub_counts, mut sub_picks) = (Vec::new(), Vec::new());
        let (mut member_counts, mut members) = (Vec::new(), Vec::new());
        let (mut group_counts, mut groups) = (Vec::new(), Vec::new());
        let mut used_counts = Vec::new();
        for &(_, slot) in &edges {
            if let GroupSlot::Promoted {
                start,
                len,
                spans,
                groups: count,
                used,
            } = *slot
            {
                stages.push(PROMOTED);
                member_counts.push(len);
                let start = start as usize;
                members.extend_from_slice(&self.members[start..start + len as usize]);
                group_counts.push(count);
                let at = spans as usize;
                let mut begin = 0;
                for span in &self.spans[at..at + count as usize] {
                    groups.extend([span.end, span.next - begin, u32::from(span.attempted)]);
                    begin = span.end;
                }
                used_counts.push(used);
            } else {
                let at = picks.len();
                match slot {
                    GroupSlot::Inline { picks: used, .. } => {
                        stages.push(INLINE);
                        picks.extend_from_slice(used.get(&self.pool));
                    }
                    GroupSlot::Spill(spill) => {
                        stages.push(SPILL);
                        picks.extend(spill.used.iter().copied());
                    }
                    GroupSlot::Promoted { .. } => unreachable!("handled above"),
                }
                picks[at..].sort_unstable();
                pick_counts.push((picks.len() - at) as u32);
                let at = sub_picks.len();
                sub_picks.extend_from_slice(slot.current(&self.pool));
                sub_picks[at..].sort_unstable();
                sub_counts.push((sub_picks.len() - at) as u32);
            }
        }
        Value::obj([
            ("keys", keys_value(&edges)),
            ("stages", Value::arr(&stages)),
            ("pick_counts", Value::arr(&pick_counts)),
            ("picks", Value::arr(&picks)),
            ("sub_counts", Value::arr(&sub_counts)),
            ("sub_picks", Value::arr(&sub_picks)),
            ("member_counts", Value::arr(&member_counts)),
            ("members", Value::arr(&members)),
            ("group_counts", Value::arr(&group_counts)),
            ("groups", Value::arr(&groups)),
            ("used_counts", Value::arr(&used_counts)),
        ])
    }

    /// Rebuild an engine from [`export_state`](Self::export_state) output.
    ///
    /// # Errors
    /// Returns a message when the tree is malformed or internally
    /// inconsistent: a missing column (named), columns whose lengths
    /// disagree, keys not strictly ascending, an unknown stage code,
    /// repeated or misplaced picks, or a promoted edge whose members are
    /// not a permutation, whose group ends do not ascend to its length,
    /// whose cursors overrun their groups or do not sum to its used count,
    /// or whose attempted flags are not 0 or 1.
    pub fn import_state(state: &Value) -> Result<Self, String> {
        let keys = Column::<u64>::read(state, "keys")?;
        check_keys(&keys.items)?;
        let mut stages = Column::<u8>::read(state, "stages")?;
        let mut pick_counts = Column::<u32>::read(state, "pick_counts")?;
        let mut picks = Column::<u32>::read(state, "picks")?;
        let mut sub_counts = Column::<u32>::read(state, "sub_counts")?;
        let mut sub_picks = Column::<u32>::read(state, "sub_picks")?;
        let mut member_counts = Column::<u32>::read(state, "member_counts")?;
        let mut members = Column::<u32>::read(state, "members")?;
        let mut group_counts = Column::<u32>::read(state, "group_counts")?;
        let mut groups = Column::<u32>::read(state, "groups")?;
        let mut used_counts = Column::<u32>::read(state, "used_counts")?;
        let mut engine = GroupEngine {
            slots: FnvHashMap::with_capacity_and_hasher(keys.items.len(), Default::default()),
            members: Vec::with_capacity(members.items.len()),
            spans: Vec::with_capacity(groups.items.len() / 3),
            pool: ChunkPool::default(),
        };
        for &key in keys.items.iter() {
            let slot = match stages.one()? {
                stage @ (INLINE | SPILL) => {
                    let used = picks.take(pick_counts.one()? as usize)?;
                    let current = sub_picks.take(sub_counts.one()? as usize)?;
                    cold_slot(stage == INLINE, used, current, &mut engine.pool)
                        .map_err(|e| format!("edge {key}: {e}"))?
                }
                PROMOTED => {
                    let members = members.take(member_counts.one()? as usize)?;
                    let groups = groups.take(3 * group_counts.one()? as usize)?;
                    engine
                        .import_promoted(members, groups, used_counts.one()?)
                        .map_err(|e| format!("promoted edge {key}: {e}"))?
                }
                other => return Err(unknown_stage(key, other)),
            };
            engine.slots.insert(key, slot);
        }
        stages.finish()?;
        pick_counts.finish()?;
        picks.finish()?;
        sub_counts.finish()?;
        sub_picks.finish()?;
        member_counts.finish()?;
        members.finish()?;
        group_counts.finish()?;
        groups.finish()?;
        used_counts.finish()?;
        Ok(engine)
    }

    /// Validate one exported promoted edge — its `members` and its `groups`
    /// triples, `u32` items read from their columns — and append it to the
    /// arenas.
    fn import_promoted(
        &mut self,
        members: &[u64],
        groups: &[u64],
        used: u32,
    ) -> Result<GroupSlot, String> {
        let len = members.len();
        let mut seen = vec![false; len];
        for &m in members {
            if m as usize >= len || std::mem::replace(&mut seen[m as usize], true) {
                return Err(format!("members are not a permutation of 0..{len}"));
            }
        }
        if groups.is_empty() {
            return Err("a promoted edge has no groups".into());
        }
        let (start, at) = (self.members.len(), self.spans.len());
        let (mut begin, mut sum) = (0u32, 0u64);
        for (g, group) in groups.chunks_exact(3).enumerate() {
            let [end, cursor, attempted] = [group[0], group[1], group[2]].map(|u| u as u32);
            if end <= begin || end as usize > len {
                return Err(format!("group ends do not ascend to {len} at group {g}"));
            }
            if cursor > end - begin {
                return Err(format!(
                    "cursor {cursor} of group {g} exceeds its {} members",
                    end - begin
                ));
            }
            if attempted > 1 {
                return Err(format!(
                    "attempted flag {attempted} of group {g} is not 0 or 1"
                ));
            }
            let unvisited = &members[(begin + cursor) as usize..end as usize];
            if unvisited.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("unvisited members of group {g} are not ascending"));
            }
            self.spans.push(GroupSpan {
                next: begin + cursor,
                end,
                attempted: attempted == 1,
            });
            (begin, sum) = (end, sum + u64::from(cursor));
        }
        if begin as usize != len {
            return Err(format!("group ends stop at {begin}, short of {len}"));
        }
        if sum != u64::from(used) || used as usize >= len {
            return Err(format!(
                "cursors sum to {sum}, used count is {used} of {len}"
            ));
        }
        self.members.extend(members.iter().map(|&m| m as u32));
        Ok(GroupSlot::Promoted {
            start: arena_offset(start),
            len: len as u32,
            spans: arena_offset(at),
            groups: (groups.len() / 3) as u32,
            used,
        })
    }

    /// Mutable view of `key`'s state, created cold on first touch.
    /// `population_len` (`|N(v)|`) must be stable across visits. State
    /// that cannot have been recorded on `population_len` members — a
    /// frozen partition of another size, or a cold super-cycle that should
    /// have reset, as an imported snapshot can hold — is dropped, as
    /// [`invalidate_targets`](Self::invalidate_targets) drops it after a
    /// mutation, and the edge starts cold.
    pub fn view(&mut self, key: u64, population_len: usize) -> GroupEdgeView<'_> {
        let slot = self.slots.entry(key).or_insert(GroupSlot::EMPTY);
        if !slot.fits(population_len) {
            slot.clear(&mut self.pool);
        }
        GroupEdgeView {
            slot,
            members: &mut self.members,
            spans: &mut self.spans,
            pool: &mut self.pool,
        }
    }
}

/// A cold GNRW edge rebuilt from its imported picks: `used`, this
/// super-cycle's, and `current`, the current sub-cycle's — both strictly
/// ascending, `current ⊆ used` — inline (at most [`INLINE_CAP`] picks, the
/// sub-cycle's last) or spilled.
fn cold_slot(
    inline: bool,
    used: &[u64],
    current: &[u64],
    pool: &mut ChunkPool,
) -> Result<GroupSlot, String> {
    let ascending = |ids: &[u64]| ids.windows(2).all(|w| w[0] < w[1]);
    if !ascending(used) || !ascending(current) {
        return Err("picks are not strictly ascending".into());
    }
    if let Some(m) = current.iter().find(|m| used.binary_search(m).is_err()) {
        return Err(format!("sub-cycle pick {m} is not used"));
    }
    if !inline {
        return Ok(GroupSlot::Spill(Box::new(GroupSpill {
            used: used.iter().map(|&m| m as u32).collect(),
            current: current.iter().map(|&m| m as u32).collect(),
        })));
    }
    if used.len() > INLINE_CAP {
        return Err(format!("inline edge holds {} > {INLINE_CAP}", used.len()));
    }
    let earlier = used.iter().filter(|m| current.binary_search(m).is_err());
    let mut picks = Picks::EMPTY;
    for &m in earlier.chain(current) {
        picks.push(m as u32, pool);
    }
    Ok(GroupSlot::Inline {
        picks,
        sub: (used.len() - current.len()) as u8,
    })
}

/// An arena offset as stored in a slot. Fails loudly rather than silently
/// aliasing slices if a pathological walk ever grows an arena past `u32`
/// offsets.
fn arena_offset(at: usize) -> u32 {
    u32::try_from(at).expect("arena exceeds u32::MAX entries")
}

/// Algorithm 2's group choice over per-group `(unvisited, attempted)`
/// counts: weight each group not in `S(u, v)` by its unvisited members —
/// every group, when none of those has any left (the sub-cycle reset) —
/// and draw one with a single `gen_range`. Returns the group and whether
/// the sub-cycle reset.
fn choose_group<I>(counts: I, rng: &mut dyn RngCore) -> (usize, bool)
where
    I: Iterator<Item = (u32, bool)> + Clone,
{
    let open = |(left, attempted): (u32, bool)| if attempted { 0 } else { left as usize };
    let mut total: usize = counts.clone().map(open).sum();
    let reset = total == 0;
    if reset {
        total = counts.clone().map(|(left, _)| left as usize).sum();
    }
    debug_assert!(total > 0, "b(u, v) resets before covering N(v)");
    let mut pick = rng.gen_range(0..total);
    let group = counts
        .map(|c| if reset { c.0 as usize } else { open(c) })
        .position(|weight| {
            if pick < weight {
                true
            } else {
                pick -= weight;
                false
            }
        })
        .expect("pick < total unvisited");
    (group, reset)
}

/// Algorithm 2's pick on a cold edge, given `N(v)`'s partition (members
/// ascending within a group), the current sub-cycle's picks `current` and
/// the test for a pick of this super-cycle: count the unvisited members of
/// each group not in `S(u, v)` into `counts` — every group's, on a
/// sub-cycle reset — choose a group, and take its `rank`-th unvisited
/// member in index order. Returns the pick and whether the sub-cycle reset.
fn cold_pick(
    groups: &NodeGroups<'_>,
    current: &[u32],
    is_used: impl Fn(u32) -> bool,
    counts: &mut Vec<(u32, bool)>,
    rng: &mut dyn RngCore,
) -> (u32, bool) {
    let unvisited = |g: usize| {
        let members = groups.members_of(g).iter();
        members.filter(|&&m| !is_used(m)).count() as u32
    };
    counts.clear();
    counts.resize(groups.group_count(), (0, false));
    // S(u, v) is the groups of the current sub-cycle's picks.
    for m in current {
        if let Some(g) = (0..counts.len()).find(|&g| groups.members_of(g).binary_search(m).is_ok())
        {
            counts[g].1 = true;
        }
    }
    for (g, (left, attempted)) in counts.iter_mut().enumerate() {
        if !*attempted {
            *left = unvisited(g);
        }
    }
    if counts
        .iter()
        .all(|&(left, attempted)| attempted || left == 0)
    {
        for (g, (left, attempted)) in counts.iter_mut().enumerate() {
            if *attempted {
                *left = unvisited(g);
            }
        }
    }
    let (group, reset) = choose_group(counts.iter().copied(), rng);
    let rank = rng.gen_range(0..counts[group].0 as usize);
    let pick = groups
        .members_of(group)
        .iter()
        .copied()
        .filter(|&m| !is_used(m))
        .nth(rank)
        .expect("rank < unvisited");
    (pick, reset)
}

/// Borrowed view of one edge's GNRW state in the [`GroupEngine`], through
/// which the walker runs Algorithm 2's step. Neighbors are named by their
/// index in `N(v)`.
pub struct GroupEdgeView<'a> {
    slot: &'a mut GroupSlot,
    members: &'a mut Vec<u32>,
    spans: &'a mut Vec<GroupSpan>,
    pool: &'a mut ChunkPool,
}

impl GroupEdgeView<'_> {
    /// Whether the edge has promoted, freezing its partition: its
    /// [`step`](Self::step) then needs none.
    #[inline]
    pub fn is_frozen(&self) -> bool {
        matches!(self.slot, GroupSlot::Promoted { .. })
    }

    /// One step of Algorithm 2 on this edge: count the unvisited members
    /// of each group not in `S(u, v)`, reset the sub-cycle when none has
    /// any, pick a group in proportion to its unvisited members, take the
    /// rank-th unvisited member in index order — two `gen_range` draws —
    /// and record it, resetting the super-cycle once `N(v)` is covered.
    /// Returns the pick's index into `N(v)`.
    ///
    /// `groups` is `N(v)`'s partition (members ascending by index within a
    /// group); it is read only while the edge is cold, and may be `None`
    /// once [`is_frozen`](Self::is_frozen). `counts` is caller-owned
    /// scratch. A cold edge first moves on if it qualifies: it promotes
    /// under [`PROMOTION_SPAN`], freezing `groups`, or spills a full inline
    /// array. Promotion keeps both sets, so it never changes a pick.
    ///
    /// This is the exact step every edge can take. A cold edge under a
    /// grouping that keys each member alone tries
    /// [`step_by_rejection`](Self::step_by_rejection) first, which needs no
    /// partition, and takes this step only when that one declines.
    ///
    /// # Panics
    /// Panics if the edge is cold and `groups` is `None`.
    pub fn step(
        &mut self,
        groups: Option<&NodeGroups<'_>>,
        counts: &mut Vec<(u32, bool)>,
        rng: &mut dyn RngCore,
    ) -> usize {
        if let GroupSlot::Promoted {
            start,
            len,
            spans,
            groups,
            used,
        } = self.slot
        {
            let (start, at) = (*start as usize, *spans as usize);
            let members = &mut self.members[start..start + *len as usize];
            let spans = &mut self.spans[at..at + *groups as usize];
            return promoted_step(members, spans, used, rng);
        }
        let groups = groups.expect("a cold edge steps on N(v)'s partition");
        let plen = groups.len();
        if promotable(self.slot.used_len(), plen, INLINE_CAP) {
            self.freeze(groups);
            return self.step(None, counts, rng);
        }
        self.slot.spill_if_full(self.pool);
        let (slot, pool) = (&*self.slot, &*self.pool);
        let is_used = |m| slot.is_used(m, pool);
        let (pick, reset) = cold_pick(groups, slot.current(pool), is_used, counts, rng);
        self.slot.record(pick, reset, plen, self.pool);
        pick as usize
    }

    /// Algorithm 2's step on a cold edge by exact rejection, for a grouping
    /// whose key of a member depends on that member alone: `key(i)` is the
    /// group key of `N(v)`'s `i`-th member, of `plen`. Algorithm 2 picks a
    /// group outside `S(u, v)` in proportion to its unvisited members, then
    /// a uniform unvisited member of it — a uniform draw from the set `U` of
    /// unvisited members whose group is not in `S(u, v)`. So this step
    /// proposes uniform indices of `N(v)` and accepts the first one in `U`:
    /// not in `b(u, v)`, and with a key outside those of the current
    /// sub-cycle's picks. Those keys are read into `keys` once, at the
    /// first proposal that needs them; while `S(u, v)` is empty, as on an
    /// edge's first visit, no key is read at all. An accepted pick is
    /// recorded as [`step`](Self::step) records one, and returned.
    ///
    /// The step makes at most `min(`[`MAX_REJECTION_ITERS`]`, plen)`
    /// proposals and declines — `None`, with nothing recorded — when all
    /// fail, which is certain when `U` is empty and the sub-cycle must
    /// reset. It also declines on a frozen edge and on one that qualifies
    /// for promotion, after spilling a full inline array as `step` would.
    /// The caller then takes `step`, an exact draw from the same `U` (or
    /// the reset), so the mixture walks Algorithm 2's law exactly. Each
    /// proposal is one `gen_range` draw.
    pub fn step_by_rejection(
        &mut self,
        plen: usize,
        mut key: impl FnMut(usize) -> u64,
        keys: &mut Vec<u64>,
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        if self.is_frozen() || promotable(self.slot.used_len(), plen, INLINE_CAP) {
            return None;
        }
        self.slot.spill_if_full(self.pool);
        let (slot, pool) = (&*self.slot, &*self.pool);
        let current = slot.current(pool);
        keys.clear();
        let in_u = |i: usize| {
            if slot.is_used(i as u32, pool) {
                return false;
            }
            if current.is_empty() {
                return true;
            }
            if keys.is_empty() {
                keys.extend(current.iter().map(|&m| key(m as usize)));
            }
            !keys.contains(&key(i))
        };
        let pick = propose(plen, MAX_REJECTION_ITERS.min(plen), in_u, rng)?;
        self.slot.record(pick as u32, false, plen, self.pool);
        Some(pick)
    }

    /// Promote a cold edge: freeze `groups` into the arenas, each group's
    /// picks first and its unvisited members after them in index order, and
    /// mark the groups of the current sub-cycle's picks attempted.
    fn freeze(&mut self, groups: &NodeGroups<'_>) {
        let (start, at) = (self.members.len(), self.spans.len());
        let (slot, pool) = (&*self.slot, &*self.pool);
        let used = |m: &&u32| slot.is_used(**m, pool);
        for g in 0..groups.group_count() {
            let group = groups.members_of(g);
            self.members.extend(group.iter().filter(used));
            let next = (self.members.len() - start) as u32;
            self.members.extend(group.iter().filter(|m| !used(m)));
            self.spans.push(GroupSpan {
                next,
                end: groups.ends[g],
                attempted: slot
                    .current(pool)
                    .iter()
                    .any(|m| group.binary_search(m).is_ok()),
            });
        }
        debug_assert_eq!(
            self.members.len() - start,
            groups.len(),
            "used set ⊆ population"
        );
        let used = self.slot.used_len() as u32;
        self.slot.clear(self.pool);
        *self.slot = GroupSlot::Promoted {
            start: arena_offset(start),
            len: groups.len() as u32,
            spans: arena_offset(at),
            groups: groups.group_count() as u32,
            used,
        };
    }
}

/// Algorithm 2's step on a promoted edge's frozen partition: `O(groups)`
/// to choose the group, then the member at its `rank`-th unvisited
/// position, rotated to the front of the unvisited members so the rest
/// stay in index order.
fn promoted_step(
    members: &mut [u32],
    spans: &mut [GroupSpan],
    used: &mut u32,
    rng: &mut dyn RngCore,
) -> usize {
    let (group, reset) = choose_group(spans.iter().map(|s| (s.end - s.next, s.attempted)), rng);
    if reset {
        spans.iter_mut().for_each(|s| s.attempted = false);
    }
    let span = &mut spans[group];
    let next = span.next as usize;
    let rank = rng.gen_range(0..(span.end - span.next) as usize);
    members[next..=next + rank].rotate_right(1);
    let pick = members[next];
    span.next += 1;
    span.attempted = true;
    *used += 1;
    if *used as usize == members.len() {
        // Super-cycle complete (Algorithm 2 step 4): every group's members
        // back in index order, none picked, none attempted.
        *used = 0;
        let mut begin = 0;
        for span in spans {
            members[begin as usize..span.end as usize].sort_unstable();
            (span.next, span.attempted) = (begin, false);
            begin = span.end;
        }
    }
    pick as usize
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
    fn released_chunks_are_reused_and_clear_keeps_the_pool() {
        // An edge's 4th pick moves its picks into a chunk. Promotion, spill
        // and invalidation each give the chunk back, and the next edge that
        // needs one takes the same chunk.
        let mut engine = CirculationEngine::new();
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        let mut draws = |engine: &mut CirculationEngine, key: u64, plen: u32, n: usize| {
            for _ in 0..n {
                engine.draw(key, &pop(plen), &mut rng).unwrap();
            }
        };
        let chunks =
            |engine: &CirculationEngine| (engine.pool.chunks.len(), engine.pool.free.clone());
        draws(&mut engine, 1, 12, 4);
        assert_eq!(chunks(&engine), (1, vec![]));
        // 6 of 12 picked: the 7th draw promotes.
        draws(&mut engine, 1, 12, 3);
        assert!(matches!(engine.slots[&1], Slot::Promoted { .. }));
        assert_eq!(chunks(&engine), (1, vec![0]));
        // 8 of 200 picked: the 9th draw spills.
        draws(&mut engine, 2, 200, 4);
        assert_eq!(chunks(&engine), (1, vec![]));
        draws(&mut engine, 2, 200, 5);
        assert!(matches!(engine.slots[&2], Slot::Spill(_)));
        assert_eq!(chunks(&engine), (1, vec![0]));
        draws(&mut engine, 3, 200, 4);
        assert_eq!(chunks(&engine), (1, vec![]));
        assert_eq!(engine.invalidate_targets(|v| v == 3), 1);
        assert_eq!(chunks(&engine), (1, vec![0]));
        draws(&mut engine, 4, 200, 4);
        assert_eq!(chunks(&engine), (1, vec![]));
        let capacity = (engine.pool.chunks.capacity(), engine.pool.free.capacity());
        engine.clear();
        assert_eq!(chunks(&engine), (0, vec![]));
        assert_eq!(
            (engine.pool.chunks.capacity(), engine.pool.free.capacity()),
            capacity
        );
    }

    /// A one-edge engine, key 7, imported from its exported text.
    fn import_text(text: &str) -> CirculationEngine {
        CirculationEngine::import_state(&Value::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn a_draw_on_state_that_does_not_fit_the_population_starts_afresh() {
        // Picks that already cover N(v), a spill one pick short of it and
        // a promoted slice of another length: no draw on N(v) leaves any
        // of them, so each is dropped as invalidation drops it, and the
        // draw starts a new cycle on N(v).
        let columns = |stage: u8, picks: &str, arena: &str, promoted: &str| {
            let counts = if picks.is_empty() {
                String::new()
            } else {
                picks.split(',').count().to_string()
            };
            format!(
                r#"{{"threshold":8,"arena":[{arena}],"keys":[7],"stages":[{stage}],"pick_counts":[{counts}],"picks":[{picks}],"promoted":[{promoted}]}}"#
            )
        };
        let population = [NodeId(1), NodeId(2)];
        let mut rng = ChaCha12Rng::seed_from_u64(12);
        for (text, population) in [
            (columns(INLINE, "1,2", "", ""), &population[..]),
            (columns(SPILL, "1,2", "", ""), &pop(3)[..]),
            (columns(PROMOTED, "", "5,6,7", "0,3,1"), &population[..]),
        ] {
            let mut engine = import_text(&text);
            let first = engine.draw(7, population, &mut rng).unwrap();
            assert!(population.contains(&first), "{text}: drew {first:?}");
            assert_eq!(engine.used_len(7), Some(1), "{text}");
            if population.len() == 2 {
                let second = engine.draw(7, population, &mut rng).unwrap();
                assert!(population.contains(&second) && second != first, "{text}");
            }
        }
    }

    #[test]
    fn inline_rejection_cap_falls_back_to_exact_scan() {
        // An adversarial RNG that always proposes the same candidate: the
        // bounded rejection loop must cap out and the rank-scan fallback
        // still produce a valid unused item.
        struct StuckRng;
        impl RngCore for StuckRng {
            fn next_u32(&mut self) -> u32 {
                0
            }
            fn next_u64(&mut self) -> u64 {
                // Every proposal is index 0, and so is every rank.
                0
            }
        }
        let population = pop(9);
        let mut engine = CirculationEngine::new();
        // The first draw takes index 0, so every later proposal of the
        // stuck RNG is rejected.
        assert_eq!(engine.draw(0, &population, &mut StuckRng), Some(NodeId(0)));
        let got = engine.draw(0, &population, &mut StuckRng).unwrap();
        assert_eq!(got, NodeId(1), "fallback must pick the first unused item");
        assert!(
            engine.arena.is_empty(),
            "both draws ran on the inline stage"
        );
    }

    // --- group engine ---

    use std::collections::HashSet;

    /// `0..n` split into `k` groups by `m % k`: members ascending within a
    /// group and interleaved across groups, like a real partition.
    fn modulo_groups(n: u32, k: u32) -> (Vec<u32>, Vec<u32>) {
        let mut members = Vec::new();
        let mut ends = Vec::new();
        for g in 0..k.min(n) {
            members.extend((0..n).filter(|m| m % k == g));
            ends.push(members.len() as u32);
        }
        (members, ends)
    }

    fn node_groups<'a>(parts: &'a (Vec<u32>, Vec<u32>)) -> NodeGroups<'a> {
        NodeGroups {
            members: &parts.0,
            ends: &parts.1,
        }
    }

    /// `steps` engine picks on edge `key`.
    fn group_picks(
        engine: &mut GroupEngine,
        key: u64,
        groups: &NodeGroups<'_>,
        steps: usize,
        rng: &mut ChaCha12Rng,
    ) -> Vec<usize> {
        let mut counts = Vec::new();
        (0..steps)
            .map(|_| {
                engine
                    .view(key, groups.len())
                    .step(Some(groups), &mut counts, rng)
            })
            .collect()
    }

    /// Algorithm 2 over `groups` with `b(u, v)` and `S(u, v)` as hash sets,
    /// drawing as the engine does: the reference for its picks.
    fn reference_picks(groups: &NodeGroups<'_>, steps: usize, rng: &mut ChaCha12Rng) -> Vec<usize> {
        let mut used = HashSet::new();
        let mut attempted = HashSet::new();
        let mut picks = Vec::new();
        for _ in 0..steps {
            let weights = |used: &HashSet<u32>, attempted: &HashSet<usize>| -> Vec<usize> {
                (0..groups.group_count())
                    .map(|g| {
                        if attempted.contains(&g) {
                            0
                        } else {
                            groups
                                .members_of(g)
                                .iter()
                                .filter(|m| !used.contains(m))
                                .count()
                        }
                    })
                    .collect()
            };
            let mut open = weights(&used, &attempted);
            if open.iter().sum::<usize>() == 0 {
                attempted.clear();
                open = weights(&used, &attempted);
            }
            let mut pick = rng.gen_range(0..open.iter().sum::<usize>());
            let g = open
                .iter()
                .position(|&w| {
                    let hit = pick < w;
                    if !hit {
                        pick -= w;
                    }
                    hit
                })
                .unwrap();
            let rank = rng.gen_range(0..open[g]);
            let m = *groups
                .members_of(g)
                .iter()
                .filter(|m| !used.contains(m))
                .nth(rank)
                .unwrap();
            attempted.insert(g);
            used.insert(m);
            if used.len() == groups.len() {
                used.clear();
                attempted.clear();
            }
            picks.push(m as usize);
        }
        picks
    }

    #[test]
    fn group_steps_equal_algorithm2_at_every_stage() {
        // Small populations stay inline, 12 promotes at its half-used
        // point, and 200 passes inline -> spill -> promoted: the picks are
        // Algorithm 2's in every stage and across every transition, with
        // one group, a few, or more than 64.
        for n in [1u32, 3, 12, 40, 200] {
            for k in [1u32, 3, 7, 70] {
                let parts = modulo_groups(n, k);
                let groups = node_groups(&parts);
                for seed in 0..3 {
                    let steps = 3 * n as usize + 5;
                    let mut rng = ChaCha12Rng::seed_from_u64(seed);
                    let want = reference_picks(&groups, steps, &mut rng);
                    let mut engine = GroupEngine::default();
                    let mut rng = ChaCha12Rng::seed_from_u64(seed);
                    let got = group_picks(&mut engine, 9, &groups, steps, &mut rng);
                    assert_eq!(got, want, "n {n}, k {k}, seed {seed}");
                    assert_eq!(engine.members.is_empty(), n <= 3, "n {n}: promotion");
                }
            }
        }
    }

    #[test]
    fn group_steps_cover_the_population_each_super_cycle() {
        let parts = modulo_groups(200, 5);
        let groups = node_groups(&parts);
        let mut engine = GroupEngine::default();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        for cycle in 0..4 {
            let picks = group_picks(&mut engine, 1, &groups, 200, &mut rng);
            let seen: HashSet<usize> = picks.into_iter().collect();
            assert_eq!(seen.len(), 200, "super-cycle {cycle} repeats a pick");
            assert_eq!(engine.total_entries(), 0, "super-cycle {cycle} not rewound");
        }
        assert_eq!(engine.members.len(), 200, "one frozen partition");
    }

    #[test]
    fn large_cold_group_edges_stay_compact() {
        // A degree-500 edge holds its picks, not a slice, until the slice
        // costs at most PROMOTION_SPAN times the picks — the O(K) guard.
        let parts = modulo_groups(500, 4);
        let groups = node_groups(&parts);
        let mut engine = GroupEngine::default();
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        group_picks(&mut engine, 1, &groups, 1, &mut rng);
        assert_eq!(engine.probe(1), Some((1, 1)));
        assert!(matches!(engine.slots[&1], GroupSlot::Inline { .. }));
        group_picks(&mut engine, 1, &groups, 9, &mut rng);
        assert!(matches!(engine.slots[&1], GroupSlot::Spill { .. }));
        assert!(engine.members.is_empty() && engine.spans.is_empty());
        assert_eq!(engine.total_entries(), 10);
        group_picks(&mut engine, 1, &groups, 60, &mut rng);
        assert!(matches!(engine.slots[&1], GroupSlot::Promoted { .. }));
        assert!(engine.members.len() <= PROMOTION_SPAN * 70);
        assert_eq!(engine.probe(2), None);
        assert_eq!(engine.tracked(), 1);
    }

    #[test]
    fn group_state_roundtrips_at_every_stage() {
        // One edge per stage: inline (3 of 12 picked), promoted (9 of 12),
        // spill (10 of 200). Export -> import -> export is the identity,
        // and the imported engine steps on as the original does.
        let small = modulo_groups(12, 3);
        let wide = modulo_groups(200, 3);
        let edges = [
            (1u64, node_groups(&small), 3),
            (2, node_groups(&small), 9),
            (3, node_groups(&wide), 10),
        ];
        let mut engine = GroupEngine::default();
        let mut rng = ChaCha12Rng::seed_from_u64(10);
        for (key, groups, steps) in &edges {
            group_picks(&mut engine, *key, groups, *steps, &mut rng);
        }
        let state = engine.export_state();
        let stages: Vec<u8> = state.field("stages").unwrap().decode().unwrap();
        assert_eq!(stages, [INLINE, PROMOTED, SPILL]);
        let mut imported = GroupEngine::import_state(&state).unwrap();
        assert_eq!(imported.export_state().to_pretty(), state.to_pretty());
        assert_eq!(imported.probe(2), engine.probe(2));
        for (key, groups, _) in &edges {
            let mut twin = rng.clone();
            let want = group_picks(&mut engine, *key, groups, 30, &mut rng);
            assert_eq!(
                group_picks(&mut imported, *key, groups, 30, &mut twin),
                want,
                "edge {key}"
            );
        }
    }

    /// A one-edge GNRW snapshot, key 1, with the given columns, imported.
    fn import_edge(columns: &[(&str, Value)]) -> Result<GroupEngine, String> {
        let mut state = GroupEngine::default().export_state();
        let Value::Obj(fields) = &mut state else {
            unreachable!("an export is an object")
        };
        for (name, value) in fields.iter_mut() {
            if let Some((_, column)) = columns.iter().find(|(n, _)| n == name) {
                *value = column.clone();
            }
        }
        GroupEngine::import_state(&state)
    }

    /// A one-edge GNRW snapshot of a cold edge of `stage` with the given
    /// picks, imported.
    fn import_cold(stage: u8, used: &[u32], sub_cycle: &[u32]) -> Result<GroupEngine, String> {
        import_edge(&[
            ("keys", Value::arr(&[1u64])),
            ("stages", Value::arr(&[stage])),
            ("pick_counts", Value::arr(&[used.len() as u32])),
            ("picks", Value::arr(used)),
            ("sub_counts", Value::arr(&[sub_cycle.len() as u32])),
            ("sub_picks", Value::arr(sub_cycle)),
        ])
    }

    #[test]
    fn rejection_steps_draw_uniformly_from_the_open_members() {
        // N(v) of 42: a group of 40 (key 0) beside two singletons (keys 40
        // and 41). From each cold state, 100k steps — by rejection, then
        // by the exact step when it declines — must each pick a uniform
        // member of U, the unvisited members whose group is not in S(u, v),
        // and nothing else; the exact step takes over with the probability
        // that 32 proposals all miss U, and the state moves on as under the
        // exact step alone.
        let parts = ((0..42).collect::<Vec<u32>>(), vec![40, 41, 42]);
        let groups = node_groups(&parts);
        let key_reads = std::cell::Cell::new(0usize);
        let key = |i: usize| {
            key_reads.set(key_reads.get() + 1);
            if i < 40 {
                0
            } else {
                i as u64
            }
        };
        let miss_all = (40.0f64 / 42.0).powi(32);
        // This super-cycle's picks, the current sub-cycle's among them, U,
        // the probability that the step by rejection declines, and the
        // edge's (picks, attempted groups) after one step.
        let states = [
            // S(u, v) empty: every member, and no key read.
            (vec![], vec![], (0..42).collect(), 0.0, (1, 1)),
            // S(u, v) holds the big group: the two singletons, accepted
            // 2/42 of the time, so about 21% of steps fall back.
            (vec![5], vec![5], vec![40, 41], miss_all, (2, 2)),
            // A sub-cycle picked 3, 40 and 41, one per group, and reset;
            // the next picked 5. S(u, v) holds every unvisited member's
            // group, though not those of 40 and 41: every step falls
            // back, and the sub-cycle restarts with its pick.
            (
                vec![3, 5, 40, 41],
                vec![5],
                (0..40).filter(|&i| i != 3 && i != 5).collect(),
                1.0,
                (5, 1),
            ),
        ];
        const STEPS: usize = 100_000;
        let within = |count: usize, p: f64| {
            let (mean, se) = (STEPS as f64 * p, (STEPS as f64 * p * (1.0 - p)).sqrt());
            (count as f64 - mean).abs() <= 6.0 * se
        };
        let mut rng = ChaCha12Rng::seed_from_u64(23);
        let (mut counts, mut keys) = (Vec::new(), Vec::new());
        for (picks, sub_cycle, open, decline, moved_on) in states {
            let cold = import_cold(INLINE, &picks, &sub_cycle).unwrap();
            let mut exact = cold.clone();
            exact.view(1, 42).step(Some(&groups), &mut counts, &mut rng);
            assert_eq!(exact.probe(1), Some(moved_on), "picks {picks:?}");
            key_reads.set(0);
            let (mut hits, mut declined) = (vec![0usize; 42], 0usize);
            for _ in 0..STEPS {
                let mut engine = cold.clone();
                let mut view = engine.view(1, 42);
                let pick = view
                    .step_by_rejection(42, key, &mut keys, &mut rng)
                    .unwrap_or_else(|| {
                        declined += 1;
                        view.step(Some(&groups), &mut counts, &mut rng)
                    });
                hits[pick] += 1;
                assert_eq!(engine.probe(1), Some(moved_on), "picks {picks:?}");
            }
            assert!(
                within(declined, decline),
                "picks {picks:?}: {declined} fell back"
            );
            for (m, &count) in hits.iter().enumerate() {
                if open.contains(&m) {
                    let p = 1.0 / open.len() as f64;
                    assert!(
                        within(count, p),
                        "picks {picks:?}: member {m} came {count} times"
                    );
                } else {
                    assert_eq!(count, 0, "picks {picks:?}: member {m} is not open");
                }
            }
            if picks.is_empty() {
                assert_eq!(key_reads.get(), 0, "a step with S(u, v) empty read a key");
            }
        }
    }

    #[test]
    fn released_group_chunks_are_reused_and_clear_keeps_the_pool() {
        // A GNRW edge's 5th pick moves its picks into a chunk; promotion,
        // spill and invalidation give it back for the next edge.
        let (small, wide) = (modulo_groups(12, 3), modulo_groups(200, 3));
        let (small, wide) = (node_groups(&small), node_groups(&wide));
        let mut engine = GroupEngine::default();
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let chunks = |engine: &GroupEngine| (engine.pool.chunks.len(), engine.pool.free.clone());
        group_picks(&mut engine, 1, &small, 5, &mut rng);
        assert_eq!(chunks(&engine), (1, vec![]));
        group_picks(&mut engine, 1, &small, 2, &mut rng);
        assert!(engine.view(1, 12).is_frozen());
        assert_eq!(chunks(&engine), (1, vec![0]));
        group_picks(&mut engine, 2, &wide, 9, &mut rng);
        assert!(matches!(engine.slots[&2], GroupSlot::Spill(_)));
        assert_eq!(chunks(&engine), (1, vec![0]));
        group_picks(&mut engine, 3, &wide, 5, &mut rng);
        assert_eq!(chunks(&engine), (1, vec![]));
        assert_eq!(engine.invalidate_targets(|v| v == 3), 1);
        assert_eq!(chunks(&engine), (1, vec![0]));
        group_picks(&mut engine, 4, &wide, 5, &mut rng);
        assert_eq!(chunks(&engine), (1, vec![]));
        let capacity = engine.pool.chunks.capacity();
        engine.clear();
        assert_eq!(chunks(&engine), (0, vec![]));
        assert_eq!(engine.pool.chunks.capacity(), capacity);
    }

    #[test]
    fn a_group_step_on_state_that_does_not_fit_the_population_starts_afresh() {
        // N(v) of 2 in one group. A cold edge whose picks cover it and a
        // frozen partition of 3 members are of another population: each is
        // dropped, and the steps cycle over N(v).
        let parts = modulo_groups(2, 1);
        let groups = node_groups(&parts);
        let frozen = import_edge(&[
            ("keys", Value::arr(&[1u64])),
            ("stages", Value::arr(&[PROMOTED])),
            ("member_counts", Value::arr(&[3u32])),
            ("members", Value::arr(&[0u32, 1, 2])),
            ("group_counts", Value::arr(&[1u32])),
            ("groups", Value::arr(&[3u32, 0, 0])),
            ("used_counts", Value::arr(&[0u32])),
        ]);
        let mut rng = ChaCha12Rng::seed_from_u64(14);
        for engine in [import_cold(INLINE, &[0, 1], &[1]), frozen] {
            let mut engine = engine.unwrap();
            let picks = group_picks(&mut engine, 1, &groups, 4, &mut rng);
            for cycle in picks.chunks(2) {
                let mut cycle = cycle.to_vec();
                cycle.sort_unstable();
                assert_eq!(cycle, [0, 1], "picks {picks:?}");
            }
        }
    }

    #[test]
    fn group_import_refuses_inconsistent_cold_edges() {
        assert!(import_cold(INLINE, &[1, 4], &[4]).is_ok());
        assert!(import_cold(SPILL, &(0..12).collect::<Vec<_>>(), &[3]).is_ok());
        assert!(import_cold(INLINE, &[4, 1], &[]).is_err(), "unsorted");
        assert!(import_cold(INLINE, &[1, 1], &[]).is_err(), "repeated");
        assert!(
            import_cold(INLINE, &[1, 4], &[2]).is_err(),
            "sub-cycle pick not used"
        );
        assert!(
            import_cold(INLINE, &(0..9).collect::<Vec<_>>(), &[]).is_err(),
            "over the inline cap"
        );
        let err = import_cold(3, &[1], &[]).unwrap_err();
        assert!(err.contains("unknown stage code 3"), "{err}");
        let err =
            GroupEngine::import_state(&Value::obj([("edges", Value::Arr(vec![]))])).unwrap_err();
        assert!(err.contains("missing field `keys`"), "{err}");
    }
}
