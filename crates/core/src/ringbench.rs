//! Benchmark hooks for the cross-shard send path (internal).
//!
//! `rbp-bench` times the message-transport shapes the parallel solver
//! has used — one ring slot per state vs. [`BLOCK_CAP`]-state blocks —
//! without reaching into the private driver internals. The payload,
//! block and ring sizes are the driver's own (`Msg`, `MsgBlock`,
//! `BLOCK_CAP`, `CHAN_CAP`), so the measured per-state hand-off cost is
//! the real one and cannot drift from it. The single-thread walks run
//! producer and consumer *interleaved on the calling thread* (push
//! until full, drain until empty), which isolates what batching changes
//! per message — ring atomics and slot copies — and is deterministic
//! across hosts. [`transfer_batched_cross_thread`] runs them on two
//! threads, so the ring's cache lines really move between cores; on a
//! single-core host it measures the OS scheduler instead. Hidden from
//! docs: this is not part of the public API and may change with the
//! driver.

use crate::driver::{Msg, MsgBlock, CHAN_CAP, EMPTY_BLOCK};
use crate::spsc::Spsc;

/// Messages per block: the driver's own batching factor.
pub const BLOCK_CAP: usize = crate::driver::BLOCK_CAP;

fn msg(i: u64) -> Msg {
    Msg {
        words: [
            i,
            i ^ 0xdead_beef,
            i.rotate_left(17),
            !i,
            i.wrapping_mul(3),
            i.rotate_right(9),
        ],
        dist: i & 0xffff,
        parent: i,
        mv: i as u32,
    }
}

fn fold(sum: u64, m: &Msg) -> u64 {
    sum.wrapping_add(m.dist).wrapping_add(m.words[0])
}

fn fold_block(sum: u64, b: &MsgBlock) -> u64 {
    b.msgs[..b.len as usize].iter().fold(sum, fold)
}

/// Transfers `count` messages through a ring one slot per state (the
/// pre-batching send path), producer and consumer interleaved on the
/// calling thread, and returns a checksum of the received payloads.
#[must_use]
pub fn transfer_per_state(count: u64) -> u64 {
    let ring: Spsc<Msg> = Spsc::new(CHAN_CAP * BLOCK_CAP);
    let mut sum = 0u64;
    let (mut sent, mut got) = (0u64, 0u64);
    while got < count {
        while sent < count && ring.try_push(msg(sent)) {
            sent += 1;
        }
        while let Some(m) = ring.try_pop() {
            sum = fold(sum, &m);
            got += 1;
        }
    }
    sum
}

/// Transfers the same `count` messages packed into [`BLOCK_CAP`]-state
/// blocks (the driver's batched send path) and returns the same
/// checksum as [`transfer_per_state`].
#[must_use]
pub fn transfer_batched(count: u64) -> u64 {
    let ring: Spsc<MsgBlock> = Spsc::new(CHAN_CAP);
    let mut sum = 0u64;
    let (mut sent, mut got) = (0u64, 0u64);
    let mut blk = EMPTY_BLOCK;
    while got < count {
        while sent < count {
            blk.msgs[blk.len as usize] = msg(sent);
            blk.len += 1;
            sent += 1;
            if blk.len as usize == BLOCK_CAP || sent == count {
                if ring.try_push(blk) {
                    blk.len = 0;
                } else {
                    // Ring full: roll back the seal and let the drain
                    // below make room before continuing.
                    blk.len -= 1;
                    sent -= 1;
                    break;
                }
            }
        }
        while let Some(b) = ring.try_pop() {
            sum = fold_block(sum, &b);
            got += u64::from(b.len);
        }
    }
    sum
}

/// [`transfer_batched`] with the producer and the consumer on two
/// threads, each spinning while the ring is full or empty; returns the
/// same checksum.
#[must_use]
pub fn transfer_batched_cross_thread(count: u64) -> u64 {
    let ring: Spsc<MsgBlock> = Spsc::new(CHAN_CAP);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut blk = EMPTY_BLOCK;
            for i in 0..count {
                blk.msgs[blk.len as usize] = msg(i);
                blk.len += 1;
                if blk.len as usize == BLOCK_CAP || i + 1 == count {
                    while !ring.try_push(blk) {
                        std::hint::spin_loop();
                    }
                    blk.len = 0;
                }
            }
        });
        let (mut sum, mut got) = (0u64, 0u64);
        while got < count {
            match ring.try_pop() {
                Some(b) => {
                    sum = fold_block(sum, &b);
                    got += u64::from(b.len);
                }
                None => std::hint::spin_loop(),
            }
        }
        sum
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_deliver_identical_payloads() {
        for count in [1u64, 7, 8, 9, 31, 32, 33, 1000, 100_000] {
            let want = transfer_per_state(count);
            assert_eq!(want, transfer_batched(count), "count={count}");
            assert_eq!(want, transfer_batched_cross_thread(count), "count={count}");
        }
    }
}
