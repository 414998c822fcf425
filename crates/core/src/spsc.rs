//! Bounded lock-free single-producer single-consumer ring buffer.
//!
//! The parallel solver wires a full `T x T` matrix of these channels so
//! every (sender, receiver) shard pair has exactly one producer and one
//! consumer — the only shape under which this ring is sound. Payloads
//! are `Copy`, so slots never need dropping and a popped value is a
//! plain bitwise read.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Aligns `T` to 128 bytes, so it shares no cache line with any other
/// field: a store to it invalidates no line another thread is reading.
/// 128 rather than 64 because x86 prefetches cache lines in adjacent
/// pairs and recent ARM cores use 128-byte lines.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Bounded SPSC ring over `Copy` payloads.
///
/// `head` is owned by the consumer, `tail` by the producer; both are
/// free-running counters (wrapping subtraction gives the fill level),
/// masked into the power-of-two buffer on access. Each sits on its own
/// cache line, so a push does not evict the line the consumer polls
/// `head` from, and vice versa.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct Spsc<T> {
    /// Next slot to read; written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot to write; written only by the producer.
    tail: CachePadded<AtomicUsize>,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// SAFETY: the ring hands each slot to at most one thread at a time —
// the producer writes a slot strictly before publishing it via the
// `tail` release store, and the consumer reads it strictly after the
// matching acquire load — so sharing the ring between one producer and
// one consumer thread is sound for any `T: Send`.
unsafe impl<T: Send> Sync for Spsc<T> {}
unsafe impl<T: Send> Send for Spsc<T> {}

impl<T: Copy> Spsc<T> {
    /// Ring with capacity `cap` (must be a power of two).
    pub fn new(cap: usize) -> Self {
        assert!(cap.is_power_of_two());
        let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Spsc {
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            buf,
        }
    }

    /// Producer side: enqueues `v`, or returns `false` when full.
    #[inline]
    pub fn try_push(&self, v: T) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.buf.len() {
            return false;
        }
        // SAFETY: only the producer writes slots, and `tail` has not
        // been published yet, so the consumer cannot be reading it.
        unsafe {
            (*self.buf[tail & (self.buf.len() - 1)].get()).write(v);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: dequeues the oldest value, if any.
    #[inline]
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail` under the acquire load, so the producer
        // initialized this slot before its release store to `tail`, and
        // it will not overwrite it until `head` advances past it.
        let v = unsafe { (*self.buf[head & (self.buf.len() - 1)].get()).assume_init() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }

    /// Whether the ring currently holds no values (consumer-side view).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) == self.tail.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_and_tail_sit_on_separate_cache_lines() {
        let (head, tail) = (
            std::mem::offset_of!(Spsc<u64>, head),
            std::mem::offset_of!(Spsc<u64>, tail),
        );
        assert!(head.abs_diff(tail) >= 128, "head@{head} tail@{tail}");
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicUsize>>(), 128);
    }

    #[test]
    fn fills_and_drains_in_order() {
        let q: Spsc<u64> = Spsc::new(4);
        assert!(q.is_empty());
        assert!(q.try_pop().is_none());
        for i in 0..4 {
            assert!(q.try_push(i));
        }
        assert!(!q.try_push(99), "ring must report full at capacity");
        for i in 0..4 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert!(q.is_empty());
        // Wrap around several times.
        for round in 0..10u64 {
            assert!(q.try_push(round));
            assert_eq!(q.try_pop(), Some(round));
        }
    }

    /// Mirrors the driver's batched-block protocol over this ring:
    /// fixed-capacity blocks, `sent` counted *before* the push and
    /// `received` *after* the whole block is processed, partial blocks
    /// flushed on frontier exhaustion. 10 000 seeded interleavings of
    /// produce / flush / drain steps over a tiny (4-block) ring check
    /// that no block is ever lost or drained twice, delivery stays in
    /// order, and the quiescence predicate (`sent == received` ∧ ring
    /// empty ∧ nothing buffered) never holds while a message is still
    /// in flight.
    #[test]
    fn seeded_block_interleavings_preserve_protocol() {
        #[derive(Clone, Copy)]
        struct Block {
            len: u32,
            msgs: [u64; 4],
        }
        const EMPTY: Block = Block {
            len: 0,
            msgs: [0; 4],
        };
        const BCAP: usize = 4;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for iter in 0..10_000u64 {
            let q: Spsc<Block> = Spsc::new(4);
            let total = 1 + rng() % 48;
            let mut produced = 0u64;
            let mut out = EMPTY;
            // A block whose send was already counted but whose push has
            // not landed yet (the driver spins here; the schedule may
            // interleave arbitrary consumer steps instead).
            let mut pending: Option<Block> = None;
            let (mut sent, mut received) = (0u64, 0u64);
            let mut got: Vec<u64> = Vec::new();
            loop {
                if sent == received && q.is_empty() && pending.is_none() && out.len == 0 {
                    assert_eq!(
                        got.len() as u64,
                        produced,
                        "iter {iter}: counters quiesced with messages in flight"
                    );
                    if produced == total {
                        break;
                    }
                }
                match rng() % 4 {
                    // Producer: one message into the out-buffer (the
                    // driver never fills past an unflushed block).
                    0 | 1 => {
                        if produced < total && pending.is_none() {
                            out.msgs[out.len as usize] = (iter << 16) | produced;
                            out.len += 1;
                            produced += 1;
                            if out.len as usize == BCAP {
                                sent += 1;
                                pending = Some(std::mem::replace(&mut out, EMPTY));
                            }
                        }
                    }
                    // Flush: seal a partial block and/or retry the push.
                    2 => {
                        if pending.is_none() && out.len > 0 {
                            sent += 1;
                            pending = Some(std::mem::replace(&mut out, EMPTY));
                        }
                        if let Some(b) = pending {
                            if q.try_push(b) {
                                pending = None;
                            }
                        }
                    }
                    // Consumer: drain one block, counting it only after
                    // every message in it has been processed.
                    _ => {
                        if let Some(b) = q.try_pop() {
                            got.extend_from_slice(&b.msgs[..b.len as usize]);
                            received += 1;
                        }
                    }
                }
            }
            assert_eq!(sent, received, "iter {iter}: block counters disagree");
            assert_eq!(
                got.len() as u64,
                total,
                "iter {iter}: lost or duplicated messages"
            );
            for (i, v) in got.iter().enumerate() {
                assert_eq!(
                    *v,
                    (iter << 16) | i as u64,
                    "iter {iter}: out-of-order or corrupted delivery"
                );
            }
        }
    }

    #[test]
    fn cross_thread_transfer_preserves_order() {
        let q: Spsc<u64> = Spsc::new(8);
        const N: u64 = 100_000;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    while !q.try_push(i) {
                        std::hint::spin_loop();
                    }
                }
            });
            s.spawn(|| {
                let mut expect = 0;
                while expect < N {
                    if let Some(v) = q.try_pop() {
                        assert_eq!(v, expect);
                        expect += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        });
        assert!(q.is_empty());
    }
}
