//! Exact optimal solver for small instances of the MPP game and of its
//! three-level extension.
//!
//! A\* search over configurations `(R^1..R^k, B)` packed into `u64`
//! masks, built on the shared [`crate::search`] engine. Transitions are
//! whole rule applications: all non-empty batched selections of a single
//! rule type are enumerated (each processor independently acts or
//! idles), so the solver exploits the paper's one-cost-per-parallel-step
//! semantics exactly.
//!
//! The same domain serves the three-level game (`rbp-hier`): given a
//! [`GreenTier`], configurations become `(R^1..R^k, G, B)` with a shared
//! green set of bounded capacity, and one store/load pair (red → green,
//! green → red, both at the tier's cost) joins the four MPP rules. The
//! packed key carries the green field only when a tier exists, and a
//! zero-capacity tier builds none, so without a tier the explored state
//! space is literally the two-level one.
//!
//! State-space reductions, all correctness-preserving:
//!
//! - **Processor symmetry.** Processors are interchangeable (equal
//!   capacity `r`, shared green and blue memory), so configurations
//!   differing only by a relabeling of shades are equivalent. Keys are
//!   canonicalized by sorting the per-processor red masks, collapsing up
//!   to `k!` states into one; witness reconstruction re-applies the
//!   permutation trail so the returned witness uses consistent concrete
//!   labels.
//! - **Admissible heuristic.** `ceil(|needed| / k) · compute`, raised
//!   to the needed set's critical-path step count, where `needed` is
//!   the set of nodes that provably must still be computed (see
//!   [`crate::search::AdmissibleHeuristic`]), evaluated with
//!   `G ∪ B` in the role of the blue set: a green pebble, like a blue
//!   one, certifies the value exists outside fast memory. With a tier,
//!   re-entry is priced at `min(g, green cost)`, since a green reload
//!   may undercut a blue one. With the heuristic disabled the solver
//!   degenerates to the original uniform-cost search.
//! - The classic normalizations: blue pebbles are never deleted, and
//!   red (green) deletions are generated lazily, only on a processor
//!   (the tier) at capacity (`≥ r`, so a capacity-1 processor still
//!   makes progress).
//!
//! Complexity is brutal by design (the problem is NP-hard even for
//! 2-layer DAGs, Lemma 2): intended for `n ≤ ~10`, `k ≤ 4`.

use rbp_dag::NodeId;
use rbp_util::Json;

use crate::arena::{pack_fields, unpack_fields, words_for};
use crate::driver::{self, Domain, EmitFn};
use crate::partition::Partition;
use crate::search::{
    trace_shards, PackedMove, PhaseProf, PhaseStats, SearchConfig, SearchOutcome, StopReason,
    MAX_THREADS,
};
use crate::{
    AdmissibleHeuristic, Cost, MppInstance, MppMove, MppStrategy, Pebble, ProcId, SolveLimits,
};

const MAX_K: usize = 4;

/// An optimal solution found by [`solve`].
#[derive(Debug, Clone)]
pub struct MppSolution {
    /// The optimal total cost under the instance's cost model.
    pub total: u64,
    /// Tally of the optimal strategy's rule applications.
    pub cost: Cost,
    /// A witness strategy achieving `total`.
    pub strategy: MppStrategy,
}

/// The optional shared mid tier of the three-level game: `cap` green
/// pebbles shared by all processors, each green store or load batch
/// costing `cost`. A zero capacity is no tier at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreenTier {
    /// Capacity of the shared green set.
    pub cap: usize,
    /// Cost of one green store or load rule application.
    pub cost: u64,
}

/// One rule application of an exact witness, under concrete processor
/// labels. The green variants only occur when the solve had a tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactStep {
    /// Batched compute (costs `compute`).
    Compute(Vec<(ProcId, NodeId)>),
    /// Batched blue → red load (costs `g`).
    Load(Vec<(ProcId, NodeId)>),
    /// Batched red → blue store (costs `g`).
    Store(Vec<(ProcId, NodeId)>),
    /// Batched green → red load (costs the tier's cost).
    LoadGreen(Vec<(ProcId, NodeId)>),
    /// Batched red → green store (costs the tier's cost).
    StoreGreen(Vec<(ProcId, NodeId)>),
    /// Deletion of one red pebble (free).
    RemoveRed(ProcId, NodeId),
    /// Deletion of one green pebble (free).
    RemoveGreen(NodeId),
}

/// A proven optimum and the witness reaching it, as found by
/// [`solve_exact`]. The caller maps the steps to its own move type and
/// replays them through its validator.
#[derive(Debug, Clone)]
pub struct ExactWitness {
    /// The optimal total cost.
    pub total: u64,
    /// The optimal rule applications, in order.
    pub steps: Vec<ExactStep>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    reds: [u64; MAX_K],
    /// Always zero without a green tier.
    green: u64,
    blue: u64,
}

impl Key {
    #[inline]
    fn red_all(&self) -> u64 {
        self.reds.iter().fold(0, |a, &b| a | b)
    }

    /// The values held outside fast memory (green or blue).
    #[inline]
    fn outer(&self) -> u64 {
        self.green | self.blue
    }
}

// Packed move layout (see `crate::search::PackedMove`): bits 28..=30
// hold the tag; batch moves store one 7-bit slot per processor
// (bit 6 = active, bits 0..=5 = node) in bits 0..=27; removals store
// the node in bits 0..=5 and, for red removals, the processor in bits
// 6..=7.
const TAG_COMPUTE: u32 = 0;
const TAG_LOAD: u32 = 1;
const TAG_STORE: u32 = 2;
const TAG_LOAD_GREEN: u32 = 3;
const TAG_STORE_GREEN: u32 = 4;
const TAG_REMOVE_RED: u32 = 5;
const TAG_REMOVE_GREEN: u32 = 6;

#[inline]
fn encode_batch(tag: u32, batch: &[(usize, u32)]) -> PackedMove {
    let mut w = tag << 28;
    for &(j, i) in batch {
        w |= (0x40 | i) << (7 * j as u32);
    }
    w
}

#[inline]
fn encode_remove(tag: u32, proc: usize, node: u32) -> PackedMove {
    (tag << 28) | ((proc as u32) << 6) | node
}

fn decode(w: PackedMove, k: usize) -> (u32, Vec<(usize, u32)>) {
    let tag = w >> 28;
    if tag >= TAG_REMOVE_RED {
        return (tag, vec![(((w >> 6) & 0x3) as usize, w & 0x3f)]);
    }
    let mut pairs = Vec::new();
    for j in 0..k {
        let slot = (w >> (7 * j as u32)) & 0x7f;
        if slot & 0x40 != 0 {
            pairs.push((j, slot & 0x3f));
        }
    }
    (tag, pairs)
}

#[inline]
fn apply(key: &mut Key, tag: u32, pairs: &[(usize, u32)]) {
    match tag {
        TAG_COMPUTE | TAG_LOAD | TAG_LOAD_GREEN => {
            for &(j, i) in pairs {
                key.reds[j] |= 1 << i;
            }
        }
        TAG_STORE => {
            for &(_, i) in pairs {
                key.blue |= 1 << i;
            }
        }
        TAG_STORE_GREEN => {
            for &(_, i) in pairs {
                key.green |= 1 << i;
            }
        }
        TAG_REMOVE_RED => {
            let (j, i) = pairs[0];
            key.reds[j] &= !(1 << i);
        }
        _ => key.green &= !(1 << pairs[0].1),
    }
}

/// Sorts the first `len` masks descending (insertion sort; `len ≤ 4`).
#[inline]
fn sort_desc(xs: &mut [u64]) {
    for i in 1..xs.len() {
        let mut j = i;
        while j > 0 && xs[j] > xs[j - 1] {
            xs.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// Whether the masks are already in canonical (descending) order — the
/// memo check that lets most successors skip the sort: the parent is
/// canonical, and a move that leaves the relative order of the red
/// masks intact (every store, most single-processor acquires) produces
/// an already-sorted child.
#[inline]
fn is_sorted_desc(xs: &[u64]) -> bool {
    xs.windows(2).all(|w| w[0] >= w[1])
}

/// Canonicalizes `raw` and returns the gather permutation `pi` such that
/// `canonical.reds[q] == raw.reds[pi[q]]`. The shared green and blue
/// sets are invariant under shade relabeling.
fn canon_with_perm(raw: Key, k: usize, symmetry: bool) -> (Key, [usize; MAX_K]) {
    let mut idx = [0usize, 1, 2, 3];
    if !symmetry {
        return (raw, idx);
    }
    idx[..k].sort_by(|&a, &b| raw.reds[b].cmp(&raw.reds[a]));
    let mut out = raw;
    for (q, &i) in idx[..k].iter().enumerate() {
        out.reds[q] = raw.reds[i];
    }
    (out, idx)
}

/// Finds a minimum-total-cost MPP pebbling with the default (fully
/// optimized) configuration, or `None` if infeasible (`r ≤ Δ_in`), too
/// large (`n > 64` or `k > 4`), or out of budget.
#[must_use]
pub fn solve(instance: &MppInstance, limits: SolveLimits) -> Option<MppSolution> {
    solve_with(instance, &SearchConfig::default().with_limits(limits)).solution
}

/// [`solve`] with explicit optimization switches, also reporting search
/// statistics (settled/pushed state counts) for benchmarking. Each call
/// opens a `solve.mpp` trace span and reports the search counters and
/// heuristic tightness through `rbp-trace` (no-ops unless a sink is
/// installed).
#[must_use]
pub fn solve_with(instance: &MppInstance, config: &SearchConfig) -> SearchOutcome<MppSolution> {
    let _span = rbp_trace::span_with(
        "solve.mpp",
        vec![
            ("n", Json::from(instance.dag.n())),
            ("k", Json::from(instance.k)),
            ("r", Json::from(instance.r)),
            ("g", Json::from(instance.model.g)),
            ("heuristic", Json::from(config.heuristic)),
            ("symmetry", Json::from(config.symmetry)),
            ("threads", Json::from(config.threads.max(1))),
            ("partition", Json::from(config.partition.as_str())),
        ],
    );
    solve_exact(instance, None, config, "mpp").map(|witness| {
        let moves = witness.steps.into_iter().map(|step| match step {
            ExactStep::Compute(b) => MppMove::Compute(b),
            ExactStep::Load(b) => MppMove::Load(b),
            ExactStep::Store(b) => MppMove::Store(b),
            ExactStep::RemoveRed(p, v) => MppMove::Remove(Pebble::Red(p, v)),
            green => unreachable!("green step {green:?} without a green tier"),
        });
        let strategy = MppStrategy::from_moves(moves.collect());
        let cost = strategy
            .validate(instance)
            .expect("solver produced an invalid strategy");
        debug_assert_eq!(cost.total(instance.model), witness.total);
        MppSolution {
            total: witness.total,
            cost,
            strategy,
        }
    })
}

/// The exact search behind [`solve_with`] and `rbp-hier`'s three-level
/// solver: proves the optimum of `instance`, extended by `tier` when one
/// is given, and returns it with its witness steps. The search counters
/// are traced under `solver.<which>.*` (no-ops unless a sink is
/// installed); the caller opens the enclosing span.
///
/// The solution is `None` when the instance is infeasible
/// (`r ≤ Δ_in`), too large (`n > 64`, `k > 4` or a tier capacity above
/// 64), or out of budget; [`SearchOutcome::reason`] tells which.
#[must_use]
pub fn solve_exact(
    instance: &MppInstance,
    tier: Option<GreenTier>,
    config: &SearchConfig,
    which: &str,
) -> SearchOutcome<ExactWitness> {
    let out = if instance.dag.n() == 0
        && (1..=MAX_K).contains(&instance.k)
        && tier.is_none_or(|t| t.cap <= 64)
    {
        let empty = ExactWitness {
            total: 0,
            steps: Vec::new(),
        };
        SearchOutcome::unsearched(Some(empty), StopReason::Solved)
    } else if let Some(domain) = build_domain(instance, tier, config) {
        let out = driver::search(&domain, config);
        SearchOutcome {
            solution: out.best.map(|(total, path)| ExactWitness {
                total,
                steps: reconstruct(path, instance.k, config.symmetry),
            }),
            stats: out.stats,
            reason: out.reason,
            shards: out.shards,
            phases: out.phases,
        }
    } else {
        SearchOutcome::unsearched(None, StopReason::Unsupported)
    };
    out.stats
        .trace(which, out.solution.as_ref().map(|w| w.total));
    trace_shards(which, &out.shards);
    out.phases.trace(which);
    out
}

/// The MPP state space, with an optional green tier, described for the
/// shared search drivers: keys are `(R^1..R^k[, G], B)` masks
/// bit-packed to `(k+1) · n` bits, or `(k+2) · n` with a tier;
/// successors are whole batched rule applications (canonicalized under
/// processor symmetry before emission).
struct MppDomain {
    n: usize,
    k: usize,
    r: usize,
    compute: u64,
    g: u64,
    /// Present only with a non-zero capacity.
    tier: Option<GreenTier>,
    preds_mask: Vec<u64>,
    sinks_mask: u64,
    heur: AdmissibleHeuristic,
    use_heuristic: bool,
    symmetry: bool,
    dominance: bool,
    max_priority: u64,
    partition: Partition,
}

impl MppDomain {
    /// Number of packed `n`-bit fields: `k` red masks, the green mask
    /// with a tier, and the blue mask.
    fn fields(&self) -> usize {
        self.k + 1 + usize::from(self.tier.is_some())
    }
}

/// Reused per-worker expansion buffers (allocation-free inner loop) and
/// the embedded phase profiler the driver drains via `take_phases`.
struct MppScratch {
    batch: Vec<(usize, u32)>,
    prof: PhaseProf,
}

impl Default for MppScratch {
    fn default() -> Self {
        MppScratch {
            batch: Vec::with_capacity(MAX_K),
            prof: PhaseProf::default(),
        }
    }
}

impl Domain for MppDomain {
    type Key = Key;
    type Scratch = MppScratch;

    fn key_words(&self) -> usize {
        words_for(self.fields(), self.n)
    }

    fn pack(&self, key: &Key, out: &mut [u64]) {
        let mut fields = [0u64; MAX_K + 2];
        fields[..self.k].copy_from_slice(&key.reds[..self.k]);
        fields[self.k] = key.green;
        let last = self.fields() - 1;
        fields[last] = key.blue;
        pack_fields(&fields[..=last], self.n, out);
    }

    fn unpack(&self, words: &[u64]) -> Key {
        let mut fields = [0u64; MAX_K + 2];
        let last = self.fields() - 1;
        unpack_fields(words, self.n, &mut fields[..=last]);
        let mut reds = [0u64; MAX_K];
        reds[..self.k].copy_from_slice(&fields[..self.k]);
        Key {
            reds,
            green: if self.tier.is_some() {
                fields[self.k]
            } else {
                0
            },
            blue: fields[last],
        }
    }

    fn root(&self) -> Key {
        Key {
            reds: [0; MAX_K],
            green: 0,
            blue: 0,
        }
    }

    fn is_goal(&self, key: &Key) -> bool {
        self.sinks_mask & !(key.red_all() | key.outer()) == 0
    }

    fn heuristic(&self, key: &Key) -> Option<u64> {
        if self.use_heuristic {
            self.heur.eval(key.red_all(), key.outer(), 0)
        } else {
            Some(0)
        }
    }

    fn max_priority(&self) -> u64 {
        self.max_priority
    }

    fn owner(&self, key: &Key, hash: u64, shards: usize) -> usize {
        // Green pebbles are fast-memory-adjacent for locality purposes:
        // they fold into the red side of the partition signature.
        self.partition
            .owner(key.red_all() | key.green, key.blue, hash, shards)
    }

    fn expand(&self, key: &Key, scratch: &mut MppScratch, emit: EmitFn<'_, Key>) {
        let (k, r, n) = (self.k, self.r, self.n);
        let key = *key;
        let full = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let MppScratch { batch, prof } = scratch;

        let mut emit_raw = |mut raw: Key, cost: u64, mv: PackedMove| {
            if self.symmetry {
                let t0 = prof.start();
                if is_sorted_desc(&raw.reds[..k]) {
                    prof.stats.canon_memo_hits += 1;
                } else {
                    sort_desc(&mut raw.reds[..k]);
                    prof.stats.canon_sorts += 1;
                }
                prof.stop_canon(t0);
            }
            emit(raw, cost, mv);
        };

        // --- R4: lazy red eviction on full processors (cost 0). ---
        for j in 0..k {
            if key.reds[j].count_ones() as usize >= r {
                for i in iter_bits(key.reds[j]) {
                    let mut nk = key;
                    nk.reds[j] &= !(1u64 << i);
                    emit_raw(nk, 0, encode_remove(TAG_REMOVE_RED, j, i));
                }
            }
        }

        // --- R4-H: lazy green eviction when the tier is full (cost 0). ---
        if let Some(tier) = self.tier {
            if key.green.count_ones() as usize >= tier.cap {
                for i in iter_bits(key.green) {
                    let mut nk = key;
                    nk.green &= !(1u64 << i);
                    emit_raw(nk, 0, encode_remove(TAG_REMOVE_GREEN, 0, i));
                }
            }
        }

        let mut suppressed = 0u64;
        // Emits every batch over the per-processor option masks `opts`
        // as one rule application of `tag` at `cost`.
        let mut batches = |opts: &[u64], distinct: bool, budget: usize, cost: u64, tag: u32| {
            for_each_batch(
                opts,
                distinct,
                self.dominance,
                budget,
                batch,
                &mut suppressed,
                &mut |batch| {
                    let mut nk = key;
                    apply(&mut nk, tag, batch);
                    emit_raw(nk, cost, encode_batch(tag, batch));
                },
            );
        };
        let has_room = |j: usize| (key.reds[j].count_ones() as usize) < r;
        // Loads of `src` values not yet red on a processor with room.
        let load_opts = |src: u64| -> [u64; MAX_K] {
            std::array::from_fn(|j| {
                if j < k && has_room(j) {
                    src & !key.reds[j]
                } else {
                    0
                }
            })
        };

        // --- R3: batched computes. ---
        // Option masks per processor: eligible nodes (not yet red here,
        // all predecessors red here), empty at capacity.
        let mut opts = [0u64; MAX_K];
        for (j, opt) in opts.iter_mut().enumerate().take(k) {
            if has_room(j) {
                for i in iter_bits(full & !key.reds[j]) {
                    if self.preds_mask[i as usize] & !key.reds[j] == 0 {
                        *opt |= 1u64 << i;
                    }
                }
            }
        }
        batches(&opts[..k], false, usize::MAX, self.compute, TAG_COMPUTE);

        // --- R2: batched blue loads (distinct vertices). ---
        let blue_loads = load_opts(key.blue);
        batches(&blue_loads[..k], true, usize::MAX, self.g, TAG_LOAD);

        // --- R1: batched blue stores (distinct vertices). ---
        // Storing an already-blue node is structurally excluded by the
        // option mask — the other half of the dominance story.
        for (j, opt) in opts.iter_mut().enumerate().take(k) {
            *opt = key.reds[j] & !key.blue;
        }
        batches(&opts[..k], true, usize::MAX, self.g, TAG_STORE);

        if let Some(tier) = self.tier {
            // --- R6-H: batched green loads (distinct vertices). ---
            let green_loads = load_opts(key.green);
            batches(
                &green_loads[..k],
                true,
                usize::MAX,
                tier.cost,
                TAG_LOAD_GREEN,
            );

            // --- R5-H: batched green stores (distinct vertices, bounded
            // by the shared capacity — the enumerator's `budget`
            // enforces the free-slot cap, and maximality is judged
            // against it, so a batch filling every free slot is maximal
            // even when idle processors still hold storable values). ---
            let free = tier.cap - (key.green.count_ones() as usize).min(tier.cap);
            if free > 0 {
                for (j, opt) in opts.iter_mut().enumerate().take(k) {
                    *opt = key.reds[j] & !key.green;
                }
                batches(&opts[..k], true, free, tier.cost, TAG_STORE_GREEN);
            }
        }

        prof.stats.idle_suppressed += suppressed;
    }

    fn take_phases(&self, scratch: &mut MppScratch) -> PhaseStats {
        scratch.prof.take()
    }
}

/// Builds the search domain for a supported, non-empty, feasible
/// instance; `None` otherwise (the caller distinguishes the trivial
/// `n == 0` case itself). A zero-capacity tier builds no tier.
fn build_domain(
    instance: &MppInstance,
    tier: Option<GreenTier>,
    config: &SearchConfig,
) -> Option<MppDomain> {
    let tier = tier.filter(|t| t.cap > 0);
    let dag = instance.dag;
    let n = dag.n();
    let k = instance.k;
    if n == 0
        || n > 64
        || k > MAX_K
        || k == 0
        || tier.is_some_and(|t| t.cap > 64)
        || !instance.is_feasible()
    {
        return None;
    }
    let model = instance.model;

    let preds_mask: Vec<u64> = dag
        .nodes()
        .map(|v| {
            dag.preds(v)
                .iter()
                .fold(0u64, |m, p| m | (1u64 << p.index()))
        })
        .collect();
    let sinks_mask: u64 = dag
        .sinks()
        .iter()
        .fold(0u64, |m, s| m | (1u64 << s.index()));

    // Priority ceiling for the bucket representation: the game can
    // always ignore the green tier, so twice the two-level Lemma 1
    // trivial upper bound covers every f-value the search can push.
    let ub = (model.g * (dag.max_in_degree() as u64 + 1))
        .saturating_add(model.compute)
        .saturating_mul(n as u64);
    let max_priority = ub.saturating_mul(2).saturating_add(
        model
            .g
            .saturating_add(model.compute)
            .saturating_add(tier.map_or(0, |t| t.cost)),
    );

    let mut heur = AdmissibleHeuristic::for_mpp(instance);
    if let Some(t) = tier {
        heur = heur.with_load_cost(model.g.min(t.cost));
    }

    Some(MppDomain {
        n,
        k,
        r: instance.r,
        compute: model.compute,
        g: model.g,
        tier,
        preds_mask,
        sinks_mask,
        heur,
        use_heuristic: config.heuristic,
        symmetry: config.symmetry,
        dominance: config.dominance,
        max_priority,
        partition: Partition::build(config.partition, dag, config.threads.clamp(1, MAX_THREADS)),
    })
}

/// Enumerates non-empty batches over per-processor option bitmasks:
/// each processor picks one set bit of its mask or idles. With
/// `distinct_vertices`, no vertex may repeat across the batch
/// (R1-M/R2-M set semantics; for stores a repeated vertex would be a
/// redundant double-write anyway). `budget` caps the total number of
/// acting processors (the green-store free-slot budget; `usize::MAX`
/// otherwise). The caller provides the scratch `batch` buffer so the
/// enumeration allocates nothing.
///
/// With `maximal` (dominance pruning), only **inclusion-maximal**
/// batches survive: a batch where some idle processor could still be
/// assigned an option (unused, under the budget) is rejected, because
/// the extended batch keeps the same flat batch cost and reaches a
/// configuration that is a pointwise superset — any completion from the
/// partial state is simulated from the extended one (free lazy
/// evictions shed the extra red pebble whenever a slot is needed; extra
/// blue never hurts; the goal test is monotone coverage). Maximality is
/// checked at the leaf against the *final* used-vertex set, never
/// greedily per processor: with distinct vertices, forcing an early
/// processor to take a contended vertex would wrongly prune the batch
/// that gives it to a later processor, which no emitted batch
/// dominates. Pruned branches/leaves are counted into `suppressed`.
fn for_each_batch(
    options: &[u64],
    distinct_vertices: bool,
    maximal: bool,
    budget: usize,
    batch: &mut Vec<(usize, u32)>,
    suppressed: &mut u64,
    f: &mut impl FnMut(&[(usize, u32)]),
) {
    #[allow(clippy::too_many_arguments)]
    fn rec(
        options: &[u64],
        j: usize,
        distinct: bool,
        maximal: bool,
        budget: usize,
        used: u64,
        batch: &mut Vec<(usize, u32)>,
        suppressed: &mut u64,
        f: &mut impl FnMut(&[(usize, u32)]),
    ) {
        if j == options.len() {
            if batch.is_empty() {
                return;
            }
            if maximal && batch.len() < budget {
                for (jj, &opt) in options.iter().enumerate() {
                    if batch.iter().any(|&(b, _)| b == jj) {
                        continue;
                    }
                    let ext = if distinct { opt & !used } else { opt };
                    if ext != 0 {
                        // Idle processor jj could still act: this batch
                        // is dominated by the one that also assigns it.
                        *suppressed += 1;
                        return;
                    }
                }
            }
            f(batch);
            return;
        }
        let avail = if distinct {
            options[j] & !used
        } else {
            options[j]
        };
        let can_act = avail != 0 && batch.len() < budget;
        // Idle branch. Without distinct vertices an option can never be
        // consumed by another processor, so an idling processor that
        // could act now could still act at the leaf — cut the whole
        // subtree early instead of rejecting every leaf. Only valid
        // when the budget can never bind (a leaf that hits the budget
        // without this processor is maximal and must survive).
        if maximal && !distinct && can_act && budget >= options.len() {
            *suppressed += 1;
        } else {
            rec(
                options,
                j + 1,
                distinct,
                maximal,
                budget,
                used,
                batch,
                suppressed,
                f,
            );
        }
        if !can_act {
            return;
        }
        let mut m = avail;
        while m != 0 {
            let i = m.trailing_zeros();
            m &= m - 1;
            batch.push((j, i));
            rec(
                options,
                j + 1,
                distinct,
                maximal,
                budget,
                used | (1u64 << i),
                batch,
                suppressed,
                f,
            );
            batch.pop();
        }
    }
    batch.clear();
    rec(
        options,
        0,
        distinct_vertices,
        maximal,
        budget,
        0,
        batch,
        suppressed,
        f,
    );
}

/// Rebuilds the witness from the canonical-state parent chain.
///
/// With symmetry reduction each stored move is expressed in the frame of
/// its parent's canonical representative, while the canonical successor
/// is a *sorted* relabeling of the raw successor. Replaying forward, we
/// maintain the composed permutation `perm` (canonical index → concrete
/// processor id) and emit every step under concrete labels, so the
/// witness validates against the ordinary rules.
fn reconstruct(path: Vec<(Key, PackedMove)>, k: usize, symmetry: bool) -> Vec<ExactStep> {
    let mut perm = [0usize, 1, 2, 3];
    let mut cur = path.first().map(|&(p, _)| p);
    let mut steps = Vec::with_capacity(path.len());
    for (parent, mv) in path {
        debug_assert_eq!(Some(parent), cur);
        let (tag, pairs) = decode(mv, k);
        let concrete: Vec<(ProcId, NodeId)> = pairs
            .iter()
            .map(|&(j, i)| (perm[j], NodeId::new(i as usize)))
            .collect();
        steps.push(match tag {
            TAG_COMPUTE => ExactStep::Compute(concrete),
            TAG_LOAD => ExactStep::Load(concrete),
            TAG_STORE => ExactStep::Store(concrete),
            TAG_LOAD_GREEN => ExactStep::LoadGreen(concrete),
            TAG_STORE_GREEN => ExactStep::StoreGreen(concrete),
            TAG_REMOVE_RED => ExactStep::RemoveRed(concrete[0].0, concrete[0].1),
            _ => ExactStep::RemoveGreen(concrete[0].1),
        });
        let mut raw = parent;
        apply(&mut raw, tag, &pairs);
        let (next, pi) = canon_with_perm(raw, k, symmetry);
        let prev_perm = perm;
        for q in 0..k {
            perm[q] = prev_perm[pi[q]];
        }
        cur = Some(next);
    }
    steps
}

fn iter_bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let i = mask.trailing_zeros();
            mask &= mask - 1;
            Some(i)
        }
    })
}

#[doc(hidden)]
pub mod probe {
    //! Test and benchmark hooks into the successor-generation kernel.
    //!
    //! Exposes the raw (symmetry-off) naive vs dominance-pruned
    //! successor sets along deterministic pseudo-random walks — the
    //! substrate of the successor-set equivalence property tests, for
    //! the two-level game and (with a [`GreenTier`]) the three-level
    //! one — and the micro-kernels (`canonicalize`, heuristic
    //! evaluation, per-expansion successor generation) timed by the
    //! `solver_kernel` bench group. Not a public API.

    use super::*;
    use rbp_util::Rng;

    /// A raw successor snapshot: per-processor red masks, the shared
    /// green and blue masks, and edge cost. Produced with symmetry
    /// canonicalization off so set comparisons see concrete processor
    /// labels.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Succ {
        /// Per-processor red masks (entries `k..` are zero).
        pub reds: [u64; MAX_K],
        /// Green mask (zero without a tier).
        pub green: u64,
        /// Blue mask.
        pub blue: u64,
        /// Edge cost of the generating move.
        pub cost: u64,
    }

    impl Succ {
        fn key(&self) -> Key {
            Key {
                reds: self.reds,
                green: self.green,
                blue: self.blue,
            }
        }
    }

    fn expand_into(domain: &MppDomain, key: &Key, scratch: &mut MppScratch) -> Vec<Succ> {
        let mut out = Vec::new();
        domain.expand(key, scratch, &mut |k2, c, _mv| {
            out.push(Succ {
                reds: k2.reds,
                green: k2.green,
                blue: k2.blue,
                cost: c,
            })
        });
        out
    }

    fn raw_config(dominance: bool) -> SearchConfig {
        SearchConfig {
            heuristic: false,
            symmetry: false,
            dominance,
            ..SearchConfig::default()
        }
    }

    fn domain(instance: &MppInstance, tier: Option<GreenTier>, config: &SearchConfig) -> MppDomain {
        build_domain(instance, tier, config).expect("unsupported instance")
    }

    /// Walks `steps` states from the root along a seeded random path
    /// (always stepping through a *naive* successor), returning the
    /// `(naive, pruned)` successor sets of every visited state.
    /// Panics on unsupported instances.
    #[must_use]
    pub fn successor_walk(
        instance: &MppInstance,
        tier: Option<GreenTier>,
        seed: u64,
        steps: usize,
    ) -> Vec<(Vec<Succ>, Vec<Succ>)> {
        let naive = domain(instance, tier, &raw_config(false));
        let pruned = domain(instance, tier, &raw_config(true));
        let mut rng = Rng::new(seed);
        let mut scratch = MppScratch::default();
        let mut key = naive.root();
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let ns = expand_into(&naive, &key, &mut scratch);
            let ps = expand_into(&pruned, &key, &mut scratch);
            if ns.is_empty() {
                break;
            }
            let next = ns[rng.index(ns.len())].key();
            out.push((ns, ps));
            key = next;
        }
        out
    }

    /// Walks `steps` states from the root along a seeded random path
    /// through *naive* successors and returns, for every visited state,
    /// its admissible bound and the `(edge cost, bound)` pair of each
    /// naive successor — the substrate of the heuristic-consistency
    /// property tests. Panics on unsupported instances.
    #[must_use]
    pub fn heuristic_walk(
        instance: &MppInstance,
        tier: Option<GreenTier>,
        seed: u64,
        steps: usize,
    ) -> Vec<(u64, Vec<(u64, u64)>)> {
        let naive = domain(instance, tier, &raw_config(false));
        let h = |key: &Key| {
            naive
                .heur
                .eval(key.red_all(), key.outer(), 0)
                .expect("MPP states are never dead")
        };
        let mut rng = Rng::new(seed);
        let mut scratch = MppScratch::default();
        let mut key = naive.root();
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let ns = expand_into(&naive, &key, &mut scratch);
            if ns.is_empty() {
                break;
            }
            let edges = ns.iter().map(|s| (s.cost, h(&s.key()))).collect();
            out.push((h(&key), edges));
            key = ns[rng.index(ns.len())].key();
        }
        out
    }

    /// Canonicalization micro-kernel: sorts `iters` pseudo-random
    /// 4-mask keys through the memoized path; returns a checksum so the
    /// work cannot be optimized away.
    #[must_use]
    pub fn canon_kernel(iters: u64, seed: u64) -> u64 {
        let mut rng = Rng::new(seed);
        let mut acc = 0u64;
        for _ in 0..iters {
            let mut reds = [
                rng.next_u64() & 0xff,
                rng.next_u64() & 0xff,
                rng.next_u64() & 0xff,
                rng.next_u64() & 0xff,
            ];
            if !is_sorted_desc(&reds) {
                sort_desc(&mut reds);
            }
            acc = acc.wrapping_add(reds[0]).rotate_left(7) ^ reds[3];
        }
        acc
    }

    /// Heuristic micro-kernel: evaluates the admissible bound for every
    /// successor along a seeded walk until `iters` evaluations have
    /// run. Returns a checksum of the bounds.
    #[must_use]
    pub fn heur_kernel(instance: &MppInstance, iters: u64, seed: u64) -> u64 {
        let domain = domain(instance, None, &raw_config(true));
        let mut rng = Rng::new(seed);
        let mut scratch = MppScratch::default();
        let mut key = domain.root();
        let mut acc = 0u64;
        let mut done = 0u64;
        while done < iters {
            let succs = expand_into(&domain, &key, &mut scratch);
            if succs.is_empty() {
                key = domain.root();
                continue;
            }
            for s in &succs {
                let hv = domain.heur.eval(s.key().red_all(), s.key().outer(), 0);
                acc = acc.rotate_left(5) ^ hv.unwrap_or(u64::MAX);
                done += 1;
                if done >= iters {
                    break;
                }
            }
            key = succs[rng.index(succs.len())].key();
        }
        acc
    }

    /// Successor-generation micro-kernel: expands states along a seeded
    /// walk (canonicalization included, as in the real hot loop) until
    /// `iters` expansions have run; returns the total number of emitted
    /// successors.
    #[must_use]
    pub fn expand_kernel(instance: &MppInstance, iters: u64, dominance: bool, seed: u64) -> u64 {
        let config = SearchConfig {
            dominance,
            ..SearchConfig::default()
        };
        let domain = domain(instance, None, &config);
        let mut rng = Rng::new(seed);
        let mut scratch = MppScratch::default();
        let mut key = domain.root();
        let mut emitted = 0u64;
        for _ in 0..iters {
            let succs = expand_into(&domain, &key, &mut scratch);
            emitted += succs.len() as u64;
            if succs.is_empty() {
                key = domain.root();
                continue;
            }
            key = succs[rng.index(succs.len())].key();
        }
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_dag::{dag_from_edges, generators};

    fn limits() -> SolveLimits {
        SolveLimits::states(500_000)
    }

    #[test]
    fn single_node_costs_one_compute() {
        let d = dag_from_edges(1, &[]);
        let sol = solve(&MppInstance::new(&d, 2, 1, 3), limits()).unwrap();
        assert_eq!(sol.total, 1);
        assert_eq!(sol.cost.computes, 1);
    }

    #[test]
    fn two_independent_chains_parallelize_perfectly() {
        // Lemma 7 tightness shape: k=2 halves the chain cost exactly.
        // r=3 so the finished chain's sink can stay resident while the
        // other chain is computed (r=2 would force a store or recompute).
        let d = generators::independent_chains(2, 4);
        let k1 = solve(&MppInstance::new(&d, 1, 3, 2), limits()).unwrap();
        let k2 = solve(&MppInstance::new(&d, 2, 3, 2), limits()).unwrap();
        assert_eq!(k1.total, 8, "8 sequential computes");
        assert_eq!(k2.total, 4, "4 parallel compute steps");
    }

    #[test]
    fn communication_chain_needs_two_io_or_restart() {
        // 0 -> 1 with k=2: optimal is to do it all on one processor
        // (cost 2), never paying 2g to communicate.
        let d = dag_from_edges(2, &[(0, 1)]);
        let sol = solve(&MppInstance::new(&d, 2, 2, 5), limits()).unwrap();
        assert_eq!(sol.total, 2);
        assert_eq!(sol.cost.io_steps(), 0);
    }

    #[test]
    fn k1_matches_spp_with_compute_costs() {
        use crate::{solve_spp, SppInstance};
        let d = generators::binary_in_tree(4);
        for r in 3..=4 {
            let mpp = solve(&MppInstance::new(&d, 1, r, 2), limits()).unwrap();
            let spp =
                solve_spp(&SppInstance::with_compute(&d, r, 2), SolveLimits::default()).unwrap();
            assert_eq!(mpp.total, spp.total, "r={r}");
        }
    }

    #[test]
    fn more_processors_never_hurt_in_practical_comparison() {
        // Same r, larger k: OPT can only decrease (§5 practical case).
        let d = generators::binary_in_tree(4);
        let k1 = solve(&MppInstance::new(&d, 1, 3, 2), limits()).unwrap();
        let k2 = solve(&MppInstance::new(&d, 2, 3, 2), limits()).unwrap();
        assert!(k2.total <= k1.total);
    }

    #[test]
    fn witness_validates_and_batches() {
        let d = generators::independent_chains(2, 3);
        let inst = MppInstance::new(&d, 2, 3, 1);
        let sol = solve(&inst, limits()).unwrap();
        let cost = sol.strategy.validate(&inst).unwrap();
        assert_eq!(cost.total(inst.model), sol.total);
        assert_eq!(sol.total, 3);
        // The witness must use full batches to reach cost 3.
        assert!(sol
            .strategy
            .moves
            .iter()
            .all(|m| m.batch_size() == 2 || matches!(m, MppMove::Remove(_))));
    }

    #[test]
    fn infeasible_and_oversized_rejected() {
        let d = dag_from_edges(3, &[(0, 2), (1, 2)]);
        assert!(solve(&MppInstance::new(&d, 2, 2, 1), limits()).is_none());
        assert!(solve(&MppInstance::new(&d, 5, 3, 1), limits()).is_none());
        let big = generators::chain(65);
        assert!(solve(&MppInstance::new(&big, 2, 2, 1), limits()).is_none());
    }

    #[test]
    fn empty_dag_is_free() {
        let d = dag_from_edges(0, &[]);
        let sol = solve(&MppInstance::new(&d, 2, 1, 1), limits()).unwrap();
        assert_eq!(sol.total, 0);
    }

    #[test]
    fn state_budget_aborts() {
        let d = generators::grid(3, 3);
        let out = solve_with(
            &MppInstance::new(&d, 2, 3, 1),
            &SearchConfig::default().with_limits(SolveLimits::states(5)),
        );
        assert!(out.solution.is_none());
        assert_eq!(out.reason, StopReason::StateLimit);
    }

    #[test]
    fn critical_path_heuristic_settles_fewer_states_on_grid3x3() {
        // The engine settled 27,375 states here before entries of equal
        // f popped deepest first, and 23,021 before the heuristic
        // counted the needed set's critical path.
        let d = generators::grid(3, 3);
        let out = solve_with(&MppInstance::new(&d, 2, 3, 2), &SearchConfig::default());
        assert_eq!(out.solution.map(|s| s.total), Some(11));
        assert!(
            out.stats.settled < 23_021,
            "settled {} states",
            out.stats.settled
        );
    }

    #[test]
    fn sequential_search_on_grid3x3_is_pinned() {
        // The exact t=1 counts of the scripts/ci.sh perf guard instance.
        // They depend only on the domain, the heuristic and the frontier
        // order: a change to the drivers alone (batching, prefetching,
        // buffering) must never move them.
        let d = generators::grid(3, 3);
        let out = solve_with(&MppInstance::new(&d, 2, 3, 2), &SearchConfig::default());
        assert_eq!(out.solution.map(|s| s.total), Some(11));
        assert_eq!(out.stats.settled, 13_946);
        assert_eq!(out.stats.pushed, 51_372);
    }

    #[test]
    fn deadline_aborts_with_distinct_reason() {
        let d = generators::grid(3, 3);
        let limits = SolveLimits::states(500_000).with_deadline(std::time::Duration::from_nanos(0));
        let out = solve_with(
            &MppInstance::new(&d, 2, 3, 1),
            &SearchConfig::default().with_limits(limits),
        );
        assert!(out.solution.is_none());
        assert_eq!(out.reason, StopReason::Deadline);
    }

    #[test]
    fn stop_reasons_for_trivial_and_unsupported() {
        let d = dag_from_edges(1, &[]);
        let out = solve_with(&MppInstance::new(&d, 2, 1, 3), &SearchConfig::default());
        assert_eq!(out.reason, StopReason::Solved);
        let big = generators::chain(65);
        let out = solve_with(&MppInstance::new(&big, 2, 2, 1), &SearchConfig::default());
        assert_eq!(out.reason, StopReason::Unsupported);
    }

    #[test]
    fn parallel_matches_sequential_cost() {
        for (d, k, r, g) in [
            (generators::grid(2, 3), 2, 3, 2),
            (generators::binary_in_tree(4), 2, 3, 1),
            (generators::independent_chains(2, 4), 2, 3, 2),
        ] {
            let inst = MppInstance::new(&d, k, r, g);
            let seq = solve_with(&inst, &SearchConfig::default());
            for threads in [2usize, 4] {
                let par = solve_with(&inst, &SearchConfig::default().with_threads(threads));
                let (s, p) = (seq.solution.as_ref().unwrap(), par.solution.unwrap());
                assert_eq!(s.total, p.total, "{} threads={threads}", d.name());
                p.strategy.validate(&inst).unwrap();
                assert_eq!(par.reason, StopReason::Solved);
                assert_eq!(par.shards.len(), threads);
                assert_eq!(par.stats.threads, threads as u64);
            }
        }
    }

    #[test]
    fn capacity_one_processors_make_progress() {
        // Regression for the R4-M guard: with r = 1 every processor is
        // at capacity after one compute; lazy eviction (generated at
        // `count >= r`, not `== r` only) must free the slot so the
        // sweep continues — including under symmetry canonicalization.
        let d = dag_from_edges(3, &[]);
        for symmetry in [false, true] {
            let cfg = SearchConfig {
                symmetry,
                ..SearchConfig::default()
            };
            let sol = solve_with(&MppInstance::new(&d, 2, 1, 1), &cfg)
                .solution
                .unwrap();
            // ceil(3/2) = 2 compute batches; only 2 red pebbles exist
            // in total, so the third sink must be stored blue: + g.
            assert_eq!(sol.total, 3, "symmetry={symmetry}");
            assert_eq!(sol.cost.computes, 2);
            assert_eq!(sol.cost.io_steps(), 1);
            sol.strategy
                .validate(&MppInstance::new(&d, 2, 1, 1))
                .unwrap();
        }
    }

    #[test]
    fn optimized_and_baseline_agree() {
        for (d, k, r, g) in [
            (generators::binary_in_tree(4), 2, 3, 2),
            (generators::diamond(2), 2, 3, 1),
            (generators::grid(2, 3), 3, 3, 2),
            (generators::independent_chains(3, 2), 3, 2, 3),
        ] {
            let inst = MppInstance::new(&d, k, r, g);
            let base = solve_with(&inst, &SearchConfig::baseline());
            let opt = solve_with(&inst, &SearchConfig::default());
            let (b, o) = (base.solution.unwrap(), opt.solution.unwrap());
            assert_eq!(b.total, o.total, "{} k={k} r={r} g={g}", d.name());
            o.strategy.validate(&inst).unwrap();
        }
    }

    #[test]
    fn symmetry_and_heuristic_shrink_the_search() {
        let d = generators::binary_in_tree(4);
        let inst = MppInstance::new(&d, 2, 3, 2);
        let base = solve_with(&inst, &SearchConfig::baseline());
        let opt = solve_with(&inst, &SearchConfig::default());
        assert_eq!(
            base.solution.unwrap().total,
            opt.solution.as_ref().unwrap().total
        );
        assert!(
            opt.stats.settled * 2 < base.stats.settled,
            "optimized settled {} vs baseline {}",
            opt.stats.settled,
            base.stats.settled
        );
    }

    #[test]
    fn packed_key_carries_green_only_with_a_tier() {
        // n = 20, k = 2: three fields fit one word, four need two.
        let d = generators::chain(20);
        let inst = MppInstance::new(&d, 2, 2, 1);
        let cfg = SearchConfig::default();
        let width = |tier| build_domain(&inst, tier, &cfg).unwrap().key_words();
        assert_eq!(width(None), words_for(3, 20));
        let tier = GreenTier { cap: 2, cost: 1 };
        assert_eq!(width(Some(tier)), words_for(4, 20));
        assert_ne!(words_for(3, 20), words_for(4, 20));

        // A tier's green field survives the packed round trip.
        let domain = build_domain(&inst, Some(tier), &cfg).unwrap();
        let key = Key {
            reds: [0b101, 0b10, 0, 0],
            green: 1 << 19,
            blue: 0b1000,
        };
        let mut words = [0u64; 2];
        domain.pack(&key, &mut words);
        assert_eq!(domain.unpack(&words), key);
        // A zero-capacity tier is no tier.
        let out = solve_exact(&inst, Some(GreenTier { cap: 0, cost: 1 }), &cfg, "mpp");
        let vanilla = solve_exact(&inst, None, &cfg, "mpp");
        assert_eq!(out.stats.settled, vanilla.stats.settled);
        assert_eq!(out.solution.unwrap().steps, vanilla.solution.unwrap().steps);
    }

    #[test]
    fn witness_unpermutes_correctly_under_symmetry() {
        // A DAG forcing cross-processor traffic: the witness must remain
        // valid (consistent shade labels) after canonical reconstruction.
        let d = generators::grid(2, 2);
        let inst = MppInstance::new(&d, 2, 3, 1);
        let sol = solve(&inst, limits()).unwrap();
        let cost = sol.strategy.validate(&inst).unwrap();
        assert_eq!(cost.total(inst.model), sol.total);
    }
}
