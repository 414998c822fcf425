//! Sequential and hash-sharded parallel A\* drivers over the [`Domain`]
//! abstraction.
//!
//! Both exact solvers (MPP and SPP) describe their state space through
//! [`Domain`] — packing/unpacking of bit-packed keys, goal test,
//! admissible heuristic, successor enumeration — and the drivers here
//! own the search loop, the packed interning arenas, and the frontier.
//!
//! `threads = 1` runs [`sequential`]: the classic A\* loop, stopping at
//! the first goal pop (optimal under the admissible heuristic, whatever
//! order the frontier pops entries of equal `f` in).
//!
//! `threads ≥ 2` runs [`parallel`], an HDA\*-style search (Kishimoto et
//! al.): every canonical state is **owned** by a shard chosen through
//! [`Domain::owner`] — by default the hash partition ([`shard_of`]),
//! or a structure-aware projection when the solver installs a
//! [`crate::partition::Partition`]; each worker keeps a private arena +
//! frontier for its shard and forwards successors it does not own over
//! bounded SPSC rings, packed into [`BLOCK_CAP`]-message [`MsgBlock`]s
//! that flush on fill or on local-frontier exhaustion. A shared atomic
//! **incumbent** (best goal distance so far) prunes pushes and pops;
//! goals are not expanded but recorded, and the search continues until
//! global quiescence — at which point every frontier's minimum `f` is
//! at least the incumbent, which (with the admissible heuristic) proves
//! the incumbent optimal. Quiescence is detected with monotone
//! sent/received **block** counters plus an idle bitmask, double-read
//! so a racing message cannot be missed: `sent` is incremented *before*
//! a ring push and `received` *after* the block is fully processed, and
//! a worker flushes every out-buffer before advertising idle, so "all
//! workers idle and `sent == received`" observed twice with no send in
//! between implies no work exists anywhere.
//!
//! The hot path is priced per cross-shard message (about five per
//! settled state under the hash partition), so it is kept lean: a send
//! is one copy into the destination's out-buffer, a ring operation
//! moves [`BLOCK_CAP`] messages, and every atomic that a worker writes
//! often ([`Shared`]'s `settled` and block counters, each ring's `head`
//! and `tail`) sits on a cache line of its own, away from the
//! `incumbent` and `status` words that every worker reads on every
//! pop. A worker whose frontier runs dry idles until work arrives; it
//! does not expand other shards' states (measured: that bought no
//! balance and cost a scan and a copy on every send).
//!
//! Resource limits are **global** at any thread count: a shared settled
//! counter and the shared deadline abort every worker through a status
//! word, and the distinct abort causes surface as
//! [`StopReason::StateLimit`] vs [`StopReason::Deadline`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::arena::{gid, gid_idx, gid_shard, hash_words, shard_of, StateArena, MAX_KEY_WORDS};
use crate::search::{
    phase_timing_enabled, Frontier, PackedMove, PhaseStats, SearchConfig, SearchStats, ShardStats,
    StopReason, MAX_THREADS,
};
use crate::spsc::{CachePadded, Spsc};

/// Lazily evaluated admissible bound for an emitted successor: `None`
/// marks the state provably dead. See [`Domain::expand`].
pub type HeurThunk<'a> = &'a mut dyn FnMut() -> Option<u64>;

/// Successor sink passed to [`Domain::expand`]: receives
/// `(key, edge_cost, move, heuristic_thunk)` per canonical successor.
pub type EmitFn<'a, K> = &'a mut dyn FnMut(K, u64, PackedMove, HeurThunk<'_>);

/// A solver-specific description of an implicit shortest-path space.
///
/// Implementations canonicalize inside [`Domain::expand`] (the driver
/// never sees raw states) and must keep the emission order
/// deterministic — the sequential engine's tie-breaking, and therefore
/// its exact witness, depends on it.
pub trait Domain: Sync {
    /// Unpacked state (solver-native masks).
    type Key: Copy;
    /// Reusable per-worker expansion scratch.
    type Scratch: Default;

    /// Packed-key width in 64-bit words (at most [`MAX_KEY_WORDS`]).
    fn key_words(&self) -> usize;
    /// Packs `key` into exactly [`Domain::key_words`] words.
    fn pack(&self, key: &Self::Key, out: &mut [u64]);
    /// Inverse of [`Domain::pack`].
    fn unpack(&self, words: &[u64]) -> Self::Key;
    /// The (already canonical) start state.
    fn root(&self) -> Self::Key;
    /// Goal test.
    fn is_goal(&self, key: &Self::Key) -> bool;
    /// Admissible lower bound on remaining cost; `None` marks the state
    /// provably dead (never enqueued). Must return `Some(0)`-style
    /// constants when the heuristic is disabled in config so baselines
    /// stay comparable. The drivers call this for the root and for
    /// states arriving over cross-shard channels; locally generated
    /// successors carry the (incrementally evaluated) bound emitted by
    /// [`Domain::expand`] instead.
    fn heuristic(&self, key: &Self::Key) -> Option<u64>;
    /// Emits every canonical successor as `(key, edge_cost, move,
    /// heuristic_thunk)`. The last component evaluates the successor's
    /// own admissible bound on demand — `None` for provably dead
    /// successors (interned but never enqueued), `Some(0)` when the
    /// heuristic is disabled — so implementations can evaluate it
    /// incrementally from the parent instead of having the driver
    /// recompute it from scratch. The thunk is only invoked when the
    /// relax actually improved a locally owned distance: most emitted
    /// successors are duplicates (or ship to a foreign shard, which
    /// re-evaluates on arrival), and their bound is never needed.
    fn expand(&self, key: &Self::Key, scratch: &mut Self::Scratch, emit: EmitFn<'_, Self::Key>);
    /// Drains the phase counters [`Domain::expand`] accumulated into
    /// `scratch` since the last call. The default reports nothing;
    /// domains that embed a `PhaseProf` in their scratch
    /// override it so the drivers can aggregate hot-path accounting.
    fn take_phases(&self, _scratch: &mut Self::Scratch) -> PhaseStats {
        PhaseStats::default()
    }
    /// Upper bound on every `f` value (selects the frontier
    /// representation).
    fn max_priority(&self) -> u64;
    /// Owning shard of the canonical `key` whose packed-key hash is
    /// `hash`. Must be a pure, total function of the canonical state
    /// (same key → same shard on every call and every worker) — the
    /// distributed termination proof and duplicate detection rely on
    /// it. Defaults to the hash partition; solvers override it to
    /// route through a [`crate::partition::Partition`].
    #[inline]
    fn owner(&self, _key: &Self::Key, hash: u64, shards: usize) -> usize {
        shard_of(hash, shards)
    }
}

/// What a driver run produced: the optimal cost plus the root-to-goal
/// `(state, move)` path when solved, and the counters either way.
pub struct DriverOutcome<K> {
    /// `(optimal_cost, path)` where `path[i] = (state_before_move_i,
    /// move_i)` from the root to the goal.
    pub best: Option<(u64, Vec<(K, PackedMove)>)>,
    /// Aggregated search counters for this run.
    pub stats: SearchStats,
    /// Per-shard counters (empty for sequential runs).
    pub shards: Vec<ShardStats>,
    /// Why the search stopped.
    pub reason: StopReason,
    /// Phase-level hot-path accounting (summed across shards).
    pub phases: PhaseStats,
}

impl<K> DriverOutcome<K> {
    fn stopped(
        stats: SearchStats,
        shards: Vec<ShardStats>,
        reason: StopReason,
        phases: PhaseStats,
    ) -> Self {
        DriverOutcome {
            best: None,
            stats,
            shards,
            reason,
            phases,
        }
    }
}

/// Entry point: dispatches on `config.threads` (clamped to
/// `1..=MAX_THREADS`).
pub fn search<D: Domain>(domain: &D, config: &SearchConfig) -> DriverOutcome<D::Key> {
    let threads = config.threads.clamp(1, MAX_THREADS);
    if threads == 1 {
        sequential(domain, config)
    } else {
        parallel(domain, config, threads)
    }
}

// ---------------------------------------------------------------------
// Sequential driver
// ---------------------------------------------------------------------

fn sequential<D: Domain>(domain: &D, config: &SearchConfig) -> DriverOutcome<D::Key> {
    let start = Instant::now();
    let kw = domain.key_words();
    let root = domain.root();
    let mut stats = SearchStats {
        threads: 1,
        ..SearchStats::default()
    };
    let Some(h0) = domain.heuristic(&root) else {
        // The start state is already dead: unsolvable.
        return DriverOutcome::stopped(
            stats,
            Vec::new(),
            StopReason::Exhausted,
            PhaseStats::default(),
        );
    };
    stats.h_root = h0;

    let mut arena = StateArena::new(kw);
    let mut frontier: Frontier<u32> = Frontier::new(domain.max_priority());
    stats.heap_fallback = frontier.is_heap();

    let mut wbuf = [0u64; MAX_KEY_WORDS];
    domain.pack(&root, &mut wbuf[..kw]);
    let (ridx, _) = arena.relax(&wbuf[..kw], hash_words(&wbuf[..kw]), 0, gid(0, 0), 0);
    debug_assert_eq!(ridx, 0, "root interns at index 0");
    frontier.push(h0, 0, 0);
    stats.pushed = 1;
    stats.frontier_peak = 1;

    let timing = phase_timing_enabled();
    let mut phases = PhaseStats::default();
    let mut expand_ns = 0u64;
    let mut scratch = D::Scratch::default();
    // The hot loop is allocation-free: successors are relaxed inline as
    // the domain emits them from its scratch buffers, with no
    // intermediate Vec.
    let mut best: Option<(u64, u64)> = None;
    let reason = loop {
        let Some((_, idx, d)) = frontier.pop() else {
            break StopReason::Exhausted;
        };
        if arena.meta(idx).dist != d {
            stats.stale += 1;
            continue;
        }
        let key = domain.unpack(arena.key_words(idx));
        if domain.is_goal(&key) {
            best = Some((d, gid(0, idx)));
            break StopReason::Solved;
        }
        stats.settled += 1;
        if stats.settled > config.limits.max_states as u64 {
            break StopReason::StateLimit;
        }
        if let Some(dl) = config.limits.deadline {
            if start.elapsed() >= dl {
                break StopReason::Deadline;
            }
        }
        let t_exp = if timing { Some(Instant::now()) } else { None };
        domain.expand(&key, &mut scratch, &mut |k2, c, mv, hv| {
            phases.emitted += 1;
            let nd = d + c;
            let ti = if timing { Some(Instant::now()) } else { None };
            domain.pack(&k2, &mut wbuf[..kw]);
            let h = hash_words(&wbuf[..kw]);
            let (idx2, improved) = arena.relax(&wbuf[..kw], h, nd, gid(0, idx), mv);
            if let Some(t0) = ti {
                phases.hash_intern_ns += t0.elapsed().as_nanos() as u64;
            }
            if improved {
                if let Some(hv) = hv() {
                    let tq = if timing { Some(Instant::now()) } else { None };
                    frontier.push(nd + hv, idx2, nd);
                    stats.pushed += 1;
                    stats.frontier_peak = stats.frontier_peak.max(frontier.len() as u64);
                    if let Some(t0) = tq {
                        phases.queue_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
        });
        if let Some(t0) = t_exp {
            expand_ns += t0.elapsed().as_nanos() as u64;
        }
    };
    stats.arena_states = arena.len() as u64;
    stats.arena_peak_bytes = arena.bytes();
    phases.merge(&domain.take_phases(&mut scratch));
    // Successor generation is the in-expand remainder: expand wall-clock
    // minus the phases timed individually (all of which run inside
    // expand or its emit callback).
    phases.succ_gen_ns = expand_ns.saturating_sub(phases.timed_ns());
    if let Some((d, goal_gid)) = best {
        let path = reconstruct_path(domain, &[&arena], goal_gid);
        return DriverOutcome {
            best: Some((d, path)),
            stats,
            shards: Vec::new(),
            reason: StopReason::Solved,
            phases,
        };
    }
    DriverOutcome::stopped(stats, Vec::new(), reason, phases)
}

/// Walks the parent chain from `goal_gid` back to the root (marked by a
/// self-loop parent) across the given shard arenas and returns the
/// forward `(state, move)` path.
fn reconstruct_path<D: Domain>(
    domain: &D,
    arenas: &[&StateArena],
    goal_gid: u64,
) -> Vec<(D::Key, PackedMove)> {
    let mut rev = Vec::new();
    let mut cur = goal_gid;
    loop {
        let m = arenas[gid_shard(cur)].meta(gid_idx(cur));
        if m.parent == cur {
            break; // root self-loop
        }
        let p = m.parent;
        rev.push((
            domain.unpack(arenas[gid_shard(p)].key_words(gid_idx(p))),
            m.mv,
        ));
        cur = p;
    }
    rev.reverse();
    rev
}

// ---------------------------------------------------------------------
// Parallel (hash-sharded) driver
// ---------------------------------------------------------------------

/// Frontier pops per worker iteration between inbox drains.
const POP_BATCH: usize = 32;
/// Capacity of each cross-shard SPSC ring in blocks: with
/// [`BLOCK_CAP`] messages per block a ring holds 1,024 messages, about
/// 74 KB, which bounds ring memory at 4,096 rings for
/// [`MAX_THREADS`] = 64.
pub(crate) const CHAN_CAP: usize = 1 << 5;
/// Messages per ring block. One ring push and one pop (two atomic
/// hand-offs of a contended line, plus the `sent`/`received` counter
/// updates) are amortized over this many states.
pub(crate) const BLOCK_CAP: usize = 32;

const _: () = assert!(CHAN_CAP * BLOCK_CAP == 1 << 10);

const STATUS_RUNNING: u64 = 0;
const STATUS_DONE: u64 = 1;
const STATUS_STATE_LIMIT: u64 = 2;
const STATUS_DEADLINE: u64 = 3;

/// A cross-shard successor hand-off: the packed key plus its tentative
/// relaxation. `Copy`, fixed-size, so the SPSC ring can move it by
/// bitwise read.
#[derive(Clone, Copy)]
pub(crate) struct Msg {
    pub(crate) words: [u64; MAX_KEY_WORDS],
    pub(crate) dist: u64,
    pub(crate) parent: u64,
    pub(crate) mv: PackedMove,
}

const EMPTY_MSG: Msg = Msg {
    words: [0; MAX_KEY_WORDS],
    dist: 0,
    parent: 0,
    mv: 0,
};

/// A batch of [`Msg`]s moved through the ring as one slot: senders fill
/// blocks in per-destination out-buffers and flush on fill or frontier
/// exhaustion, so the quiescence counters count blocks, not messages.
#[derive(Clone, Copy)]
pub(crate) struct MsgBlock {
    pub(crate) len: u32,
    pub(crate) msgs: [Msg; BLOCK_CAP],
}

pub(crate) const EMPTY_BLOCK: MsgBlock = MsgBlock {
    len: 0,
    msgs: [EMPTY_MSG; BLOCK_CAP],
};

/// State shared by every worker of one parallel solve, laid out by
/// access pattern. The first line holds the words every worker reads
/// on every pop and every emitted successor but that rarely change
/// (`incumbent`, `status`), plus the rarely touched `idle` mask and
/// `goal` lock. `settled`, written on every settled state, and the
/// block counters, written once per block, each get a cache line of
/// their own so their writes never invalidate the read-mostly line.
#[repr(C)]
struct Shared {
    /// Best goal distance found so far (`u64::MAX` until the first
    /// goal); updated only under the `goal` lock, so it decreases
    /// monotonically.
    incumbent: AtomicU64,
    /// `STATUS_*` word; leaves `STATUS_RUNNING` exactly once.
    status: AtomicU64,
    /// Bitmask of workers currently idle.
    idle: AtomicU64,
    /// `(dist, gid)` of the best goal state.
    goal: Mutex<Option<(u64, u64)>>,
    /// Global settled-state counter (the `max_states` budget).
    settled: CachePadded<AtomicU64>,
    /// Quiescence counters.
    blocks: CachePadded<BlockCounters>,
}

/// The monotone block counters of the quiescence check.
struct BlockCounters {
    /// Blocks pushed to any ring (incremented *before* the push).
    sent: AtomicU64,
    /// Blocks fully processed (incremented *after* every message in the
    /// block has been relaxed).
    received: AtomicU64,
}

impl Shared {
    fn new() -> Self {
        Shared {
            incumbent: AtomicU64::new(u64::MAX),
            status: AtomicU64::new(STATUS_RUNNING),
            idle: AtomicU64::new(0),
            goal: Mutex::new(None),
            settled: CachePadded(AtomicU64::new(0)),
            blocks: CachePadded(BlockCounters {
                sent: AtomicU64::new(0),
                received: AtomicU64::new(0),
            }),
        }
    }

    /// First abort cause wins; later ones are ignored.
    fn abort(&self, status: u64) {
        let _ = self.status.compare_exchange(
            STATUS_RUNNING,
            status,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }
}

/// What each worker hands back after the join.
struct WorkerResult {
    arena: StateArena,
    shard: ShardStats,
    stale: u64,
    frontier_peak: u64,
    heap_fallback: bool,
    phases: PhaseStats,
}

/// One shard's search: a private arena and frontier, the out-buffers
/// of its ring row, and plain (unshared) counters that become its
/// [`ShardStats`]. It settles only states it owns; every successor it
/// does not own is copied into `out[owner]` and shipped when that block
/// fills or the frontier runs dry.
struct Worker<'a, D: Domain> {
    me: usize,
    threads: usize,
    kw: usize,
    domain: &'a D,
    shared: &'a Shared,
    /// Full `threads x threads` ring matrix, indexed `from * threads +
    /// to`; this worker consumes column `me` and produces row `me`.
    chans: &'a [Spsc<MsgBlock>],
    start: Instant,
    max_states: u64,
    deadline: Option<std::time::Duration>,
    arena: StateArena,
    frontier: Frontier<u32>,
    scratch: D::Scratch,
    timing: bool,
    phases: PhaseStats,
    expand_ns: u64,
    /// Per-destination out-buffers; `out[to]` fills until [`BLOCK_CAP`]
    /// then flushes into the ring (`out[me]` stays unused).
    out: Vec<MsgBlock>,
    settled: u64,
    pushed: u64,
    stale: u64,
    sent: u64,
    send_blocks: u64,
    local_succs: u64,
    received: u64,
    dup_msgs: u64,
    frontier_peak: u64,
}

impl<'a, D: Domain> Worker<'a, D> {
    /// Relaxes an owned state given its packed words and hash; enqueues
    /// it when the distance improved, the heuristic finds it alive, and
    /// its `f` still beats the incumbent. Returns whether the distance
    /// was created or improved. Used for states arriving over channels,
    /// where no parent heuristic context exists — the bound is
    /// evaluated from scratch (and lazily, only on improvement). Runs
    /// outside `expand`, so it is deliberately
    /// untimed: the phase profile accounts the expansion path.
    #[inline]
    fn relax_owned(
        &mut self,
        words: &[u64],
        hash: u64,
        dist: u64,
        parent: u64,
        mv: PackedMove,
    ) -> bool {
        let (idx, improved) = self.arena.relax(words, hash, dist, parent, mv);
        if improved {
            let key = self.domain.unpack(words);
            if let Some(hv) = self.domain.heuristic(&key) {
                let f = dist + hv;
                if f < self.shared.incumbent.load(Ordering::Relaxed) {
                    self.frontier.push(f, idx, dist);
                    self.pushed += 1;
                    self.frontier_peak = self.frontier_peak.max(self.frontier.len() as u64);
                }
            }
        }
        improved
    }

    /// [`Worker::relax_owned`] for locally generated successors, whose
    /// admissible bound is evaluated lazily — the domain's incremental
    /// thunk `hv` runs only when the distance actually improved.
    #[inline]
    fn relax_owned_h(
        &mut self,
        words: &[u64],
        hash: u64,
        dist: u64,
        parent: u64,
        mv: PackedMove,
        hv: &mut dyn FnMut() -> Option<u64>,
    ) {
        let ti = if self.timing {
            Some(Instant::now())
        } else {
            None
        };
        let (idx, improved) = self.arena.relax(words, hash, dist, parent, mv);
        if let Some(t0) = ti {
            self.phases.hash_intern_ns += t0.elapsed().as_nanos() as u64;
        }
        if improved {
            if let Some(hv) = hv() {
                let f = dist + hv;
                if f < self.shared.incumbent.load(Ordering::Relaxed) {
                    let tq = if self.timing {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    self.frontier.push(f, idx, dist);
                    self.pushed += 1;
                    self.frontier_peak = self.frontier_peak.max(self.frontier.len() as u64);
                    if let Some(t0) = tq {
                        self.phases.queue_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
        }
    }

    /// Drains every inbox once; returns whether any block arrived.
    fn drain_inboxes(&mut self) -> bool {
        let mut any = false;
        for from in 0..self.threads {
            if from == self.me {
                continue;
            }
            while let Some(blk) = self.chans[from * self.threads + self.me].try_pop() {
                for j in 0..blk.len as usize {
                    let m = blk.msgs[j];
                    let h = hash_words(&m.words[..self.kw]);
                    if !self.relax_owned(&m.words[..self.kw], h, m.dist, m.parent, m.mv) {
                        self.dup_msgs += 1;
                    }
                    self.received += 1;
                }
                self.shared.blocks.received.fetch_add(1, Ordering::SeqCst);
                any = true;
            }
        }
        any
    }

    /// Whether any inbox currently holds a block.
    fn has_inbox_msgs(&self) -> bool {
        (0..self.threads)
            .any(|from| from != self.me && !self.chans[from * self.threads + self.me].is_empty())
    }

    /// Buffers a successor for its owning shard, flushing the block
    /// when full.
    #[inline]
    fn buffer_send(&mut self, to: usize, msg: Msg) {
        self.sent += 1;
        let blk = &mut self.out[to];
        blk.msgs[blk.len as usize] = msg;
        blk.len += 1;
        if blk.len as usize == BLOCK_CAP {
            self.flush(to);
        }
    }

    /// Pushes `out[to]` into the ring, draining our own inboxes while
    /// the target ring is full (receiving only relaxes locally and
    /// never sends, so this cannot deadlock).
    fn flush(&mut self, to: usize) {
        if self.out[to].len == 0 {
            return;
        }
        // Slots past `len` are never read, so emptying the buffer only
        // resets its length.
        let blk = self.out[to];
        self.out[to].len = 0;
        self.send_blocks += 1;
        self.shared.blocks.sent.fetch_add(1, Ordering::SeqCst);
        loop {
            if self.chans[self.me * self.threads + to].try_push(blk) {
                return;
            }
            if self.shared.status.load(Ordering::Acquire) != STATUS_RUNNING {
                // Aborting: the block may be dropped, nobody will
                // look at the counters again.
                return;
            }
            if !self.drain_inboxes() {
                std::hint::spin_loop();
            }
        }
    }

    /// Flushes every non-empty out-buffer. Must run before advertising
    /// idle: the quiescence counters only see flushed blocks.
    fn flush_all(&mut self) {
        for to in 0..self.threads {
            if to != self.me {
                self.flush(to);
            }
        }
    }

    /// Records a popped goal state, lowering the shared incumbent.
    fn offer_goal(&self, dist: u64, g: u64) {
        let mut best = self.shared.goal.lock().unwrap();
        if best.is_none_or(|(bd, _)| dist < bd) {
            *best = Some((dist, g));
            self.shared.incumbent.store(dist, Ordering::SeqCst);
        }
    }

    /// Idle protocol: advertise idleness, watch for new work, and
    /// attempt quiescence detection. Returns `true` to terminate.
    fn idle_protocol(&mut self) -> bool {
        let my_bit = 1u64 << self.me;
        let full_mask = if self.threads == 64 {
            u64::MAX
        } else {
            (1u64 << self.threads) - 1
        };
        self.shared.idle.fetch_or(my_bit, Ordering::SeqCst);
        loop {
            if self.shared.status.load(Ordering::Acquire) != STATUS_RUNNING {
                return true;
            }
            let inc = self.shared.incumbent.load(Ordering::SeqCst);
            let has_local = self.frontier.peek_priority().is_some_and(|f| f < inc);
            if self.has_inbox_msgs() || has_local {
                self.shared.idle.fetch_and(!my_bit, Ordering::SeqCst);
                return false;
            }
            // Double-read quiescence check: no message can be in flight
            // between two observations of equal monotone counters with
            // every worker idle throughout.
            let s1 = self.shared.blocks.sent.load(Ordering::SeqCst);
            let r1 = self.shared.blocks.received.load(Ordering::SeqCst);
            if s1 == r1 && self.shared.idle.load(Ordering::SeqCst) == full_mask {
                let s2 = self.shared.blocks.sent.load(Ordering::SeqCst);
                if s2 == s1 && self.shared.idle.load(Ordering::SeqCst) == full_mask {
                    self.shared.abort(STATUS_DONE);
                    return true;
                }
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }

    fn run(mut self) -> WorkerResult {
        let domain = self.domain;
        let kw = self.kw;
        'outer: while self.shared.status.load(Ordering::Acquire) == STATUS_RUNNING {
            let mut progress = self.drain_inboxes();
            for _ in 0..POP_BATCH {
                let inc = self.shared.incumbent.load(Ordering::Relaxed);
                let Some((f, idx, d)) = self.frontier.pop() else {
                    break;
                };
                progress = true;
                if self.arena.meta(idx).dist != d {
                    self.stale += 1;
                    continue;
                }
                if f >= inc {
                    // Can no longer beat the incumbent; with the
                    // monotone incumbent this holds forever. Discard.
                    continue;
                }
                let key = domain.unpack(self.arena.key_words(idx));
                if domain.is_goal(&key) {
                    self.offer_goal(d, gid(self.me, idx));
                    continue;
                }
                self.settled += 1;
                let g = self.shared.settled.fetch_add(1, Ordering::Relaxed) + 1;
                if g > self.max_states {
                    self.shared.abort(STATUS_STATE_LIMIT);
                    break 'outer;
                }
                if let Some(dl) = self.deadline {
                    if self.start.elapsed() >= dl {
                        self.shared.abort(STATUS_DEADLINE);
                        break 'outer;
                    }
                }
                let parent = gid(self.me, idx);
                // Take the scratch out of `self` so the emit closure can
                // borrow the rest of the worker mutably; successors are
                // relaxed or shipped inline, with no intermediate Vec.
                let mut scratch = std::mem::take(&mut self.scratch);
                let t_exp = if self.timing {
                    Some(Instant::now())
                } else {
                    None
                };
                domain.expand(&key, &mut scratch, &mut |k2, c, mv, hv| {
                    self.phases.emitted += 1;
                    let nd = d + c;
                    if nd >= self.shared.incumbent.load(Ordering::Relaxed) {
                        return;
                    }
                    let ti = if self.timing {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    let mut wbuf = [0u64; MAX_KEY_WORDS];
                    domain.pack(&k2, &mut wbuf[..kw]);
                    let h = hash_words(&wbuf[..kw]);
                    let owner = domain.owner(&k2, h, self.threads);
                    if let Some(t0) = ti {
                        self.phases.hash_intern_ns += t0.elapsed().as_nanos() as u64;
                    }
                    if owner == self.me {
                        self.local_succs += 1;
                        self.relax_owned_h(&wbuf[..kw], h, nd, parent, mv, hv);
                    } else {
                        self.buffer_send(
                            owner,
                            Msg {
                                words: wbuf,
                                dist: nd,
                                parent,
                                mv,
                            },
                        );
                    }
                });
                if let Some(t0) = t_exp {
                    self.expand_ns += t0.elapsed().as_nanos() as u64;
                }
                self.scratch = scratch;
            }
            if !progress {
                // Local frontier exhausted: ship partial blocks so no
                // work hides in an out-buffer, then look for incoming
                // work before attempting quiescence.
                self.flush_all();
                if self.drain_inboxes() {
                    continue;
                }
                if self.idle_protocol() {
                    break;
                }
            }
        }
        self.phases.merge(&domain.take_phases(&mut self.scratch));
        self.phases.succ_gen_ns = self.expand_ns.saturating_sub(self.phases.timed_ns());
        WorkerResult {
            shard: ShardStats {
                shard: self.me as u64,
                settled: self.settled,
                pushed: self.pushed,
                sent: self.sent,
                send_blocks: self.send_blocks,
                local_succs: self.local_succs,
                received: self.received,
                dup_msgs: self.dup_msgs,
                arena_states: self.arena.len() as u64,
                arena_bytes: self.arena.bytes(),
            },
            stale: self.stale,
            frontier_peak: self.frontier_peak,
            heap_fallback: self.frontier.is_heap(),
            phases: self.phases,
            arena: self.arena,
        }
    }
}

fn parallel<D: Domain>(domain: &D, config: &SearchConfig, threads: usize) -> DriverOutcome<D::Key> {
    let start = Instant::now();
    let kw = domain.key_words();
    let root = domain.root();
    let mut stats = SearchStats {
        threads: threads as u64,
        ..SearchStats::default()
    };
    let Some(h0) = domain.heuristic(&root) else {
        return DriverOutcome::stopped(
            stats,
            Vec::new(),
            StopReason::Exhausted,
            PhaseStats::default(),
        );
    };
    stats.h_root = h0;

    let mut root_words = [0u64; MAX_KEY_WORDS];
    domain.pack(&root, &mut root_words[..kw]);
    let root_hash = hash_words(&root_words[..kw]);
    let root_owner = domain.owner(&root, root_hash, threads);

    let shared = Shared::new();
    let chans: Vec<Spsc<MsgBlock>> = (0..threads * threads)
        .map(|_| Spsc::new(CHAN_CAP))
        .collect();
    let max_states = config.limits.max_states as u64;
    let deadline = config.limits.deadline;
    let max_priority = domain.max_priority();

    let results: Vec<WorkerResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let shared = &shared;
                let chans = &chans[..];
                s.spawn(move || {
                    let mut w = Worker {
                        me,
                        threads,
                        kw,
                        domain,
                        shared,
                        chans,
                        start,
                        max_states,
                        deadline,
                        arena: StateArena::new(kw),
                        frontier: Frontier::new(max_priority),
                        scratch: D::Scratch::default(),
                        timing: phase_timing_enabled(),
                        phases: PhaseStats::default(),
                        expand_ns: 0,
                        out: vec![EMPTY_BLOCK; threads],
                        settled: 0,
                        pushed: 0,
                        stale: 0,
                        sent: 0,
                        send_blocks: 0,
                        local_succs: 0,
                        received: 0,
                        dup_msgs: 0,
                        frontier_peak: 0,
                    };
                    if me == root_owner {
                        let (ridx, _) =
                            w.arena
                                .relax(&root_words[..kw], root_hash, 0, gid(me, 0), 0);
                        debug_assert_eq!(ridx, 0);
                        w.frontier.push(h0, 0, 0);
                        w.pushed = 1;
                        w.frontier_peak = 1;
                    }
                    w.run()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver worker panicked"))
            .collect()
    });

    let mut shards = Vec::with_capacity(threads);
    let mut phases = PhaseStats::default();
    for r in &results {
        phases.merge(&r.phases);
        stats.settled += r.shard.settled;
        stats.pushed += r.shard.pushed;
        stats.stale += r.stale;
        stats.frontier_peak += r.frontier_peak;
        stats.heap_fallback |= r.heap_fallback;
        stats.cross_sends += r.shard.sent;
        stats.send_blocks += r.shard.send_blocks;
        stats.local_succs += r.shard.local_succs;
        stats.arena_states += r.shard.arena_states;
        stats.arena_peak_bytes += r.shard.arena_bytes;
        shards.push(r.shard);
    }

    match shared.status.load(Ordering::SeqCst) {
        STATUS_STATE_LIMIT => DriverOutcome::stopped(stats, shards, StopReason::StateLimit, phases),
        STATUS_DEADLINE => DriverOutcome::stopped(stats, shards, StopReason::Deadline, phases),
        _ => {
            let goal = *shared.goal.lock().unwrap();
            if let Some((dist, ggid)) = goal {
                let arenas: Vec<&StateArena> = results.iter().map(|r| &r.arena).collect();
                let path = reconstruct_path(domain, &arenas, ggid);
                DriverOutcome {
                    best: Some((dist, path)),
                    stats,
                    shards,
                    reason: StopReason::Solved,
                    phases,
                }
            } else {
                DriverOutcome::stopped(stats, shards, StopReason::Exhausted, phases)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::offset_of;

    #[test]
    fn contended_counters_sit_on_their_own_cache_lines() {
        let incumbent = offset_of!(Shared, incumbent);
        let settled = offset_of!(Shared, settled);
        let blocks = offset_of!(Shared, blocks);
        let sent = blocks + offset_of!(BlockCounters, sent);
        let received = blocks + offset_of!(BlockCounters, received);
        for (a, b) in [(incumbent, settled), (incumbent, sent), (settled, sent)] {
            assert!(a.abs_diff(b) >= 128, "fields at {a} and {b}");
        }
        // `status` shares the read-mostly line with `incumbent`. `Shared`
        // is 128-byte aligned, so two fields share no 128-byte line
        // exactly when `offset / 128` differs.
        assert_eq!(std::mem::align_of::<Shared>(), 128);
        let line = |offset: usize| offset / 128;
        assert_eq!(line(offset_of!(Shared, status)), line(incumbent));
        assert_eq!(line(received), line(sent));
        assert_ne!(line(received), line(settled));
        assert_ne!(line(received), line(incumbent));
    }
}
