//! Benchmark hooks for the arena relax path (internal).
//!
//! `rbp-bench` times the two ways the drivers have relaxed successors
//! into the packed state arena — one at a time as each is emitted, and in
//! per-expansion batches whose arena memory is prefetched before the
//! first relax — without reaching into the private arena. Both walks use
//! the arena's own hash, prefetch and relax, so the measured per-relax
//! cost is the real one and cannot drift from it. The arena is large
//! enough (about 40 MB at a million states) that its table slots, keys
//! and metadata miss the caches, as they do in the exact solves the
//! batching targets. Every successor is a duplicate of an interned state
//! at a worse distance: that is the common case (78% of the successors
//! pyramid(3) emits are never pushed), and it leaves the arena unchanged,
//! so every call times identical work. Hidden from docs: this is not
//! part of the public API and may change with the arena.

use crate::arena::{hash_words, StateArena};
use rbp_util::Rng;

/// Successors per batch: the mean number pyramid(3) emits per
/// expansion at k = 2, r = 3 (2,947,710 over 264,071 settled states).
pub const BATCH: usize = 11;

/// A one-word-key arena prefilled with random states, plus a fixed
/// sequence of successors drawn from them.
pub struct RelaxBench {
    arena: StateArena,
    succs: Vec<u64>,
}

impl RelaxBench {
    /// Interns `states` distinct seeded random keys at distance 0 and
    /// draws `succs` successors uniformly from them.
    #[must_use]
    pub fn new(states: usize, succs: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut arena = StateArena::new(1);
        let mut keys = Vec::with_capacity(states);
        while arena.len() < states {
            let key = [rng.next_u64()];
            if arena.relax(&key, hash_words(&key), 0, 0, 0).1 {
                keys.push(key[0]);
            }
        }
        let succs = (0..succs).map(|_| keys[rng.index(states)]).collect();
        RelaxBench { arena, succs }
    }

    /// Relaxes every successor as it comes: hash, then relax. Returns a
    /// checksum of the resulting arena indices.
    #[must_use]
    pub fn relax_inline(&mut self) -> u64 {
        let mut sum = 0u64;
        for key in self.succs.chunks(1) {
            let (idx, improved) = self.arena.relax(key, hash_words(key), 1, 0, 0);
            sum = sum.wrapping_add(u64::from(idx) + u64::from(improved));
        }
        sum
    }

    /// Relaxes the same successors in [`BATCH`]-sized batches the way
    /// the drivers do: hash the batch, prefetch its arena memory, then
    /// relax in order. Returns the same checksum as
    /// [`RelaxBench::relax_inline`].
    #[must_use]
    pub fn relax_batched(&mut self) -> u64 {
        let mut sum = 0u64;
        let mut hashes = [0u64; BATCH];
        for batch in self.succs.chunks(BATCH) {
            for (h, key) in hashes.iter_mut().zip(batch.chunks(1)) {
                *h = hash_words(key);
            }
            let hashes = &hashes[..batch.len()];
            self.arena.prefetch(hashes.iter().copied());
            for (key, &h) in batch.chunks(1).zip(hashes) {
                let (idx, improved) = self.arena.relax(key, h, 1, 0, 0);
                sum = sum.wrapping_add(u64::from(idx) + u64::from(improved));
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_agree_and_leave_the_arena_unchanged() {
        let mut b = RelaxBench::new(5_000, 1_000, 7);
        let want = b.relax_inline();
        assert_eq!(want, b.relax_batched());
        assert_eq!(want, b.relax_inline());
        assert_eq!(b.arena.len(), 5_000);
    }
}
