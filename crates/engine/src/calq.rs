//! A calendar (bucket) queue for near-future timed events.
//!
//! The simulator's RAM-release queue holds events scheduled at most a few
//! hundred cycles ahead (packet serialization times), but under congestion
//! it churns thousands of push/pop pairs per simulated microsecond.
//! A binary heap pays `O(log n)` plus comparator-tuple shuffling per
//! operation; a calendar queue indexed by `(cycle - now)` pays `O(1)`
//! amortized: events land in a circular wheel of FIFO buckets, one bucket
//! per future cycle, and popping scans an occupancy bitset.
//!
//! Ordering contract: [`CalendarQueue::pop_due`] yields events in
//! ascending cycle order, FIFO within a cycle — exactly the order a
//! `BinaryHeap<Reverse<(Cycle, seq, T)>>` with a monotonically increasing
//! `seq` would produce (a proptest in `tests/` pins this equivalence).
//! Events scheduled beyond the wheel horizon, or behind the wheel cursor,
//! overflow into a `BTreeMap` that is checked first on every pop; an
//! overflow entry for cycle `c` was necessarily pushed before any wheel
//! entry for `c` (the cursor only moves forward), so overflow-first
//! preserves FIFO order between the two stores.

use crate::units::Cycle;
use std::collections::{BTreeMap, VecDeque};

/// Wheel horizon in cycles; must be a power of two. Events further than
/// this ahead of the cursor overflow into the `BTreeMap`.
const WHEEL: usize = 1024;
const MASK: u64 = (WHEEL as u64) - 1;
const WORDS: usize = WHEEL / 64;

/// Capacity a bucket shrinks back to once it drains. A fault purge or a
/// congestion spike can pile thousands of releases into one cycle's
/// bucket; without a shrink the `VecDeque` keeps that peak allocation
/// for the rest of the run — multiplied by up to `WHEEL` buckets over a
/// long fault storm. 32 entries covers steady-state occupancy without
/// re-allocation.
const BUCKET_KEEP_CAP: usize = 32;

/// Return a drained bucket's spike allocation to the allocator.
fn shrink_drained<E>(bucket: &mut VecDeque<E>) {
    if bucket.is_empty() && bucket.capacity() > BUCKET_KEEP_CAP {
        bucket.shrink_to(BUCKET_KEEP_CAP);
    }
}

/// A timed FIFO event queue optimized for near-future scheduling.
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// `WHEEL` buckets; bucket `at & MASK` holds events for the unique
    /// cycle `at` in `[cursor, cursor + WHEEL)` mapping to it.
    wheel: Vec<VecDeque<(Cycle, T)>>,
    /// One bit per bucket: non-empty.
    occ: [u64; WORDS],
    /// Lower bound of the wheel window. Only ever moves forward, and never
    /// past the earliest wheel entry.
    cursor: Cycle,
    /// Far-future (or, defensively, past-cursor) events.
    overflow: BTreeMap<Cycle, VecDeque<T>>,
    wheel_len: usize,
    overflow_len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with its window starting at cycle 0.
    pub fn new() -> Self {
        Self {
            wheel: (0..WHEEL).map(|_| VecDeque::new()).collect(),
            occ: [0; WORDS],
            cursor: 0,
            overflow: BTreeMap::new(),
            wheel_len: 0,
            overflow_len: 0,
        }
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow_len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `value` for cycle `at`.
    pub fn push(&mut self, at: Cycle, value: T) {
        if at >= self.cursor && at - self.cursor < WHEEL as Cycle {
            let slot = (at & MASK) as usize;
            debug_assert!(self.wheel[slot].back().is_none_or(|&(c, _)| c == at));
            self.wheel[slot].push_back((at, value));
            self.occ[slot / 64] |= 1 << (slot % 64);
            self.wheel_len += 1;
        } else {
            self.overflow.entry(at).or_default().push_back(value);
            self.overflow_len += 1;
        }
    }

    /// Earliest cycle in the wheel, or `None` if the wheel is empty.
    fn wheel_earliest(&self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cursor & MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        // Ring scan from `start`: the first occupied slot in ring order is
        // the earliest cycle, because slot distance == cycle distance
        // within the window.
        let probe = |word: usize, mask: u64| -> Option<usize> {
            let bits = self.occ[word] & mask;
            (bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize)
        };
        let slot = probe(sw, !0u64 << sb)
            .or_else(|| (1..WORDS).find_map(|i| probe((sw + i) % WORDS, !0u64)))
            .or_else(|| probe(sw, !(!0u64 << sb)));
        slot.map(|s| self.cursor + ((s as u64).wrapping_sub(start as u64) & MASK))
    }

    /// Earliest scheduled cycle over both stores, or `None` when empty.
    /// (The simulator's quiet-cycle fast-forward peeks this.)
    pub fn next_at(&self) -> Option<Cycle> {
        let o = self.overflow.keys().next().copied();
        let w = self.wheel_earliest();
        match (o, w) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pop the earliest event scheduled at or before `now` (FIFO within a
    /// cycle), or `None` if nothing is due. Advances the wheel window
    /// opportunistically.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.is_empty() {
            self.cursor = self.cursor.max(now.saturating_add(1));
            return None;
        }
        let o_at = self.overflow.keys().next().copied();
        let w_at = self.wheel_earliest();
        // Slide the window forward as far as the earliest wheel entry (or
        // freely, if the wheel is empty) so future pushes stay on-wheel.
        self.cursor = match w_at {
            Some(w) => self.cursor.max(now.saturating_add(1)).min(w),
            None => self.cursor.max(now.saturating_add(1)),
        };
        // Overflow wins ties: its entries were pushed first (see module
        // docs).
        if let Some(o) = o_at {
            if o <= now && w_at.is_none_or(|w| o <= w) {
                let mut entry = self.overflow.first_entry().expect("non-empty");
                let v = entry.get_mut().pop_front().expect("non-empty bucket");
                if entry.get().is_empty() {
                    entry.remove();
                }
                self.overflow_len -= 1;
                return Some((o, v));
            }
        }
        if let Some(w) = w_at {
            if w <= now {
                let slot = (w & MASK) as usize;
                let (at, v) = self.wheel[slot].pop_front().expect("occupied slot");
                debug_assert_eq!(at, w);
                if self.wheel[slot].is_empty() {
                    self.occ[slot / 64] &= !(1 << (slot % 64));
                    shrink_drained(&mut self.wheel[slot]);
                }
                self.wheel_len -= 1;
                return Some((at, v));
            }
        }
        None
    }

    /// Allocated capacity of the wheel bucket cycle `at` maps to
    /// (tests pin the post-drain shrink heuristic with this).
    #[cfg(test)]
    fn bucket_capacity(&self, at: Cycle) -> usize {
        self.wheel[(at & MASK) as usize].capacity()
    }

    /// Keep only events for which `f` returns true (used when a fault
    /// event invalidates scheduled releases). Preserves order.
    pub fn retain(&mut self, mut f: impl FnMut(&T) -> bool) {
        for slot in 0..WHEEL {
            let before = self.wheel[slot].len();
            if before == 0 {
                continue;
            }
            self.wheel[slot].retain(|(_, v)| f(v));
            self.wheel_len -= before - self.wheel[slot].len();
            if self.wheel[slot].is_empty() {
                self.occ[slot / 64] &= !(1 << (slot % 64));
                shrink_drained(&mut self.wheel[slot]);
            }
        }
        self.overflow.retain(|_, bucket| {
            let before = bucket.len();
            bucket.retain(|v| f(v));
            self.overflow_len -= before - bucket.len();
            !bucket.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_order_fifo_within_cycle() {
        let mut q = CalendarQueue::new();
        q.push(5, "a");
        q.push(3, "b");
        q.push(5, "c");
        q.push(3, "d");
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_at(), Some(3));
        assert_eq!(q.pop_due(10), Some((3, "b")));
        assert_eq!(q.pop_due(10), Some((3, "d")));
        assert_eq!(q.pop_due(10), Some((5, "a")));
        assert_eq!(q.pop_due(10), Some((5, "c")));
        assert_eq!(q.pop_due(10), None);
        assert!(q.is_empty());
    }

    #[test]
    fn nothing_due_before_schedule() {
        let mut q = CalendarQueue::new();
        q.push(7, 1u32);
        assert_eq!(q.pop_due(6), None);
        assert_eq!(q.pop_due(7), Some((7, 1)));
    }

    #[test]
    fn far_future_events_overflow_and_still_pop() {
        let mut q = CalendarQueue::new();
        q.push(5_000_000, "far");
        q.push(10, "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(100), Some((10, "near")));
        assert_eq!(q.pop_due(100), None);
        assert_eq!(q.next_at(), Some(5_000_000));
        assert_eq!(q.pop_due(5_000_000), Some((5_000_000, "far")));
    }

    #[test]
    fn window_advances_and_reuses_slots() {
        let mut q = CalendarQueue::new();
        // Same wheel slot (at & MASK == 1) across three windows.
        for round in 0u64..3 {
            let at = round * WHEEL as u64 + 1;
            q.push(at, round);
            assert_eq!(q.pop_due(at), Some((at, round)));
            assert_eq!(q.pop_due(at), None);
        }
    }

    #[test]
    fn overflow_pops_before_wheel_at_same_cycle() {
        let mut q = CalendarQueue::new();
        let at = 2 * WHEEL as u64; // beyond the initial window -> overflow
        q.push(at, "first(overflow)");
        // Advance the window past the horizon so the same cycle now lands
        // on the wheel.
        assert_eq!(q.pop_due(WHEEL as u64 + 10), None);
        q.push(at, "second(wheel)");
        assert_eq!(q.pop_due(at), Some((at, "first(overflow)")));
        assert_eq!(q.pop_due(at), Some((at, "second(wheel)")));
    }

    #[test]
    fn past_cursor_push_is_defensively_accepted() {
        let mut q = CalendarQueue::<u32>::new();
        assert_eq!(q.pop_due(500), None); // cursor -> 501
        q.push(100, 7); // behind the cursor: overflows
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(500), Some((100, 7)));
    }

    #[test]
    fn retain_filters_both_stores() {
        let mut q = CalendarQueue::new();
        q.push(1, 1u32);
        q.push(2, 2);
        q.push(1_000_000, 3);
        q.push(1_000_000, 4);
        q.retain(|&v| v % 2 == 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(u64::MAX), Some((2, 2)));
        assert_eq!(q.pop_due(u64::MAX), Some((1_000_000, 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn drained_buckets_shed_spike_capacity() {
        let mut q = CalendarQueue::new();
        // A fault-purge-sized spike into a single cycle's bucket…
        for i in 0..10_000u32 {
            q.push(5, i);
        }
        assert!(q.bucket_capacity(5) >= 10_000);
        // …fully drained: the bucket must give the allocation back.
        while q.pop_due(5).is_some() {}
        assert!(q.is_empty());
        assert!(
            q.bucket_capacity(5) <= BUCKET_KEEP_CAP,
            "bucket kept {} slots after draining",
            q.bucket_capacity(5)
        );
        // The slot keeps working after the shrink.
        let at = 5 + WHEEL as u64; // same slot, next window
        q.push(at, 1);
        assert_eq!(q.pop_due(at), Some((at, 1)));
    }

    #[test]
    fn retain_wipe_sheds_spike_capacity() {
        let mut q = CalendarQueue::new();
        for i in 0..10_000u32 {
            q.push(9, i);
        }
        q.retain(|_| false);
        assert!(q.is_empty());
        assert!(q.bucket_capacity(9) <= BUCKET_KEEP_CAP);
    }

    #[test]
    fn next_at_sees_both_stores() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.next_at(), None);
        q.push(9_999_999, 'o');
        assert_eq!(q.next_at(), Some(9_999_999));
        q.push(3, 'w');
        assert_eq!(q.next_at(), Some(3));
    }
}
