//! The iSLIP crossbar scheduler (McKeown, paper ref. \[31\]).
//!
//! iSLIP matches input ports to output ports with rotating round-robin
//! *grant* pointers at the outputs and *accept* pointers at the inputs.
//! Its desynchronization property gives 100 % throughput under uniform
//! admissible traffic and — crucial for the paper's fairness study
//! (§IV-C, ref. \[12\]) — serves competing input ports of a hot output in
//! strict round-robin, so every input port of a congested switch gets an
//! equal share of the bottleneck link.
//!
//! The scheduler is packet-granular: a matched pair stays busy for the
//! packet's serialization time (virtual cut-through), and only idle
//! inputs/outputs participate in a cycle's matching.

use crate::bitset::{BitSet, RoundRobin};

/// iSLIP state for one switch.
#[derive(Debug, Clone)]
pub struct Islip {
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    iterations: usize,
    // Per-call scratch, kept across calls so the per-cycle hot path does
    // not allocate. Holds no state between calls (reset on entry).
    /// Free inputs / outputs not matched yet in this call.
    in_avail: BitSet,
    out_avail: BitSet,
    /// Inputs holding a grant in the current iteration, and the granted
    /// output each prefers.
    granted: BitSet,
    grants: Vec<usize>,
}

impl Islip {
    /// Create state for `ports` ports and the given number of matching
    /// iterations per cycle (the classic hardware choice is 1–4; more
    /// iterations fill the crossbar more completely).
    pub fn new(ports: usize, iterations: usize) -> Self {
        assert!(iterations >= 1);
        Self {
            grant_ptr: vec![0; ports],
            accept_ptr: vec![0; ports],
            iterations,
            in_avail: BitSet::new(ports),
            out_avail: BitSet::new(ports),
            granted: BitSet::new(ports),
            grants: vec![0; ports],
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.grant_ptr.len()
    }

    /// Compute a matching.
    ///
    /// * `requesters[o]` — the inputs requesting output `o` this cycle,
    /// * `in_free` / `out_free` — availability (an input or output
    ///   mid-transmission is not free).
    ///
    /// Returns `(input, output)` pairs. Pointers advance only for matches
    /// made in the first iteration, per the iSLIP specification — this is
    /// what guarantees round-robin fairness among persistent contenders.
    pub fn schedule(
        &mut self,
        requesters: &[BitSet],
        in_free: &BitSet,
        out_free: &BitSet,
    ) -> Vec<(usize, usize)> {
        let mut matches = Vec::new();
        self.schedule_into(requesters, in_free, out_free, &mut matches);
        matches
    }

    /// Allocation-free `schedule`: append the `(input, output)` pairs to
    /// `matches`, reusing scratch kept inside the scheduler. Each
    /// iteration costs one set walk per free output and one per granted
    /// input, whatever the number of requests.
    pub fn schedule_into(
        &mut self,
        requesters: &[BitSet],
        in_free: &BitSet,
        out_free: &BitSet,
        matches: &mut Vec<(usize, usize)>,
    ) {
        let n = self.ports();
        debug_assert_eq!(requesters.len(), n);
        self.in_avail.copy_from(in_free);
        self.out_avail.copy_from(out_free);
        // Rank of `x` in the round-robin order starting at `ptr`.
        let rank = |x: usize, ptr: usize| if x >= ptr { x - ptr } else { x + n - ptr };

        for iter in 0..self.iterations {
            // Grant phase: each unmatched free output grants the
            // requesting unmatched free input closest to its grant
            // pointer. An input can receive several grants; it keeps the
            // one closest to its accept pointer.
            for out in self.out_avail.iter() {
                let mut walk = RoundRobin::new(self.grant_ptr[out], n);
                let chosen = std::iter::from_fn(|| walk.next(&requesters[out]))
                    .find(|&inp| self.in_avail.contains(inp));
                if let Some(inp) = chosen {
                    let ptr = self.accept_ptr[inp];
                    if !self.granted.contains(inp) || rank(out, ptr) < rank(self.grants[inp], ptr) {
                        self.grants[inp] = out;
                    }
                    self.granted.insert(inp);
                }
            }
            // Accept phase, in ascending input order.
            if self.granted.is_empty() {
                break;
            }
            let mut next = 0;
            while let Some(inp) = self.granted.next_in(next, n) {
                next = inp + 1;
                self.granted.remove(inp);
                let out = self.grants[inp];
                self.in_avail.remove(inp);
                self.out_avail.remove(out);
                matches.push((inp, out));
                if iter == 0 {
                    self.grant_ptr[out] = (inp + 1) % n;
                    self.accept_ptr[inp] = (out + 1) % n;
                }
            }
        }
    }

    /// `(grant, accept)` pointers, for the differential tests.
    #[cfg(test)]
    pub(crate) fn pointers(&self) -> (&[usize], &[usize]) {
        (&self.grant_ptr, &self.accept_ptr)
    }

    /// The pre-bitset scheduler, kept as the oracle `schedule_into` is
    /// tested against: request lists per input, an O(ports²) grant loop.
    #[cfg(test)]
    fn schedule_reference(
        &mut self,
        requests: &[Vec<usize>],
        in_free: &[bool],
        out_free: &[bool],
        matches: &mut Vec<(usize, usize)>,
    ) {
        let n = self.ports();
        debug_assert_eq!(requests.len(), n);
        let mut in_matched = vec![false; n];
        let mut out_matched = vec![false; n];
        let mut grants: Vec<Option<usize>> = vec![None; n];

        for iter in 0..self.iterations {
            // Grant phase: per output, collect requesting inputs and
            // grant the one closest to the grant pointer.
            grants.iter_mut().for_each(|g| *g = None); // per input: granted output
            for (out, &ofree) in out_free.iter().enumerate() {
                if !ofree || out_matched[out] {
                    continue;
                }
                let mut chosen: Option<usize> = None;
                let mut best_rank = usize::MAX;
                for (inp, reqs) in requests.iter().enumerate() {
                    if !in_free[inp] || in_matched[inp] {
                        continue;
                    }
                    if !reqs.contains(&out) {
                        continue;
                    }
                    let rank = (inp + n - self.grant_ptr[out]) % n;
                    if rank < best_rank {
                        best_rank = rank;
                        chosen = Some(inp);
                    }
                }
                if let Some(inp) = chosen {
                    // An input can receive several grants; keep the one
                    // it will prefer in the accept phase.
                    grants[inp] = match grants[inp] {
                        None => Some(out),
                        Some(prev) => {
                            let rp = (prev + n - self.accept_ptr[inp]) % n;
                            let ro = (out + n - self.accept_ptr[inp]) % n;
                            Some(if ro < rp { out } else { prev })
                        }
                    };
                }
            }
            // Accept phase: each input accepts the grant closest to its
            // accept pointer (already reduced above).
            let mut any = false;
            for inp in 0..n {
                if let Some(out) = grants[inp] {
                    in_matched[inp] = true;
                    out_matched[out] = true;
                    matches.push((inp, out));
                    any = true;
                    if iter == 0 {
                        self.grant_ptr[out] = (inp + 1) % n;
                        self.accept_ptr[inp] = (out + 1) % n;
                    }
                }
            }
            if !any {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The set of `i` with `bits[i]`.
    fn set_of(bits: &[bool]) -> BitSet {
        let mut set = BitSet::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            set.set(i, b);
        }
        set
    }

    fn free(n: usize) -> BitSet {
        set_of(&vec![true; n])
    }

    /// Per-output requester sets from per-input request lists.
    fn requesters(requests: &[Vec<usize>]) -> Vec<BitSet> {
        let n = requests.len();
        let mut sets = vec![BitSet::new(n); n];
        for (inp, reqs) in requests.iter().enumerate() {
            for &out in reqs {
                sets[out].insert(inp);
            }
        }
        sets
    }

    #[test]
    fn no_requests_no_matches() {
        let mut s = Islip::new(4, 2);
        let m = s.schedule(
            &requesters(&[vec![], vec![], vec![], vec![]]),
            &free(4),
            &free(4),
        );
        assert!(m.is_empty());
    }

    #[test]
    fn matching_is_conflict_free() {
        let mut s = Islip::new(4, 4);
        // Every input wants every output.
        let reqs = requesters(&vec![(0..4).collect(); 4]);
        for _ in 0..10 {
            let m = s.schedule(&reqs, &free(4), &free(4));
            let mut ins: Vec<usize> = m.iter().map(|&(i, _)| i).collect();
            let mut outs: Vec<usize> = m.iter().map(|&(_, o)| o).collect();
            ins.sort();
            outs.sort();
            ins.dedup();
            outs.dedup();
            assert_eq!(ins.len(), m.len(), "no input matched twice");
            assert_eq!(outs.len(), m.len(), "no output matched twice");
        }
    }

    #[test]
    fn full_contention_saturates_with_enough_iterations() {
        let mut s = Islip::new(4, 4);
        let reqs = requesters(&vec![(0..4).collect(); 4]);
        // After desynchronization, every cycle should produce a perfect
        // matching.
        let mut sizes = Vec::new();
        for _ in 0..8 {
            sizes.push(s.schedule(&reqs, &free(4), &free(4)).len());
        }
        assert!(sizes[4..].iter().all(|&l| l == 4), "{sizes:?}");
    }

    #[test]
    fn hot_output_is_served_round_robin() {
        // Three inputs permanently requesting output 0: over 3k cycles
        // each must get exactly k grants (±1) — the fairness property the
        // paper leans on.
        let mut s = Islip::new(4, 1);
        let reqs = requesters(&[vec![0], vec![0], vec![0], vec![]]);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for _ in 0..300 {
            for &(i, o) in &s.schedule(&reqs, &free(4), &free(4)) {
                assert_eq!(o, 0);
                *counts.entry(i).or_default() += 1;
            }
        }
        assert_eq!(counts.len(), 3);
        let max = counts.values().max().unwrap();
        let min = counts.values().min().unwrap();
        assert!(max - min <= 1, "round robin is exact: {counts:?}");
    }

    #[test]
    fn busy_ports_are_excluded() {
        let mut s = Islip::new(3, 2);
        let reqs = requesters(&[vec![0, 1], vec![0], vec![2]]);
        let mut in_free = free(3);
        in_free.remove(1);
        let mut out_free = free(3);
        out_free.remove(2);
        let m = s.schedule(&reqs, &in_free, &out_free);
        assert!(m.iter().all(|&(i, _)| i != 1));
        assert!(m.iter().all(|&(_, o)| o != 2));
        // Input 0 still matched somewhere.
        assert!(m.iter().any(|&(i, _)| i == 0));
    }

    #[test]
    fn permutation_requests_match_perfectly() {
        let mut s = Islip::new(5, 1);
        let reqs = requesters(&(0..5).map(|i| vec![(i + 2) % 5]).collect::<Vec<_>>());
        let m = s.schedule(&reqs, &free(5), &free(5));
        assert_eq!(
            m.len(),
            5,
            "non-conflicting requests all granted in one iteration"
        );
    }

    #[test]
    fn pointer_desynchronization_reaches_the_full_matching() {
        // Input 0 requests outputs {0,1}; input 1 requests {0}. Greedy
        // grant may give out0 to input 0 in the first cycle (leaving
        // input 1 hungry), but once the pointers desynchronize the
        // schedule must settle on the perfect matching (0->1, 1->0).
        let mut s = Islip::new(2, 2);
        let reqs = requesters(&[vec![0, 1], vec![0]]);
        let mut input1_served = 0;
        let mut total = 0;
        for _ in 0..20 {
            let m = s.schedule(&reqs, &free(2), &free(2));
            assert!(!m.is_empty(), "work conservation: something matches");
            total += m.len();
            if m.iter().any(|&(i, _)| i == 1) {
                input1_served += 1;
            }
        }
        // Input 1 is never starved of its only output...
        assert!(input1_served >= 7, "input 1 served {input1_served}/20");
        // ...and the crossbar does better than a single match per cycle
        // on average (the second iteration / desynchronization pays off).
        assert!(total > 25, "total matches {total}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bitset scheduler against the request-list scheduler it
        /// replaced, over sizes around the word boundary, 1–4 iterations
        /// and several calls in a row so the pointers evolve: same
        /// `(input, output)` pairs in the same order, same pointers.
        #[test]
        fn bitset_schedule_matches_the_reference(
            size in 0usize..8,
            iterations in 1usize..=4,
            calls in prop::collection::vec((any::<u64>(), 0u32..=100, 0u32..=100), 1..10),
        ) {
            let n = [1, 2, 4, 8, 32, 33, 64, 65][size];
            let mut new = Islip::new(n, iterations);
            let mut old = Islip::new(n, iterations);
            for (seed, request_pct, free_pct) in calls {
                let mut rng = SmallRng::seed_from_u64(seed);
                let requests: Vec<Vec<usize>> = (0..n)
                    .map(|_| (0..n).filter(|_| rng.random_range(0u32..100) < request_pct).collect())
                    .collect();
                let in_free: Vec<bool> = (0..n).map(|_| rng.random_range(0u32..100) < free_pct).collect();
                let out_free: Vec<bool> = (0..n).map(|_| rng.random_range(0u32..100) < free_pct).collect();
                let got = new.schedule(&requesters(&requests), &set_of(&in_free), &set_of(&out_free));
                let mut expect = Vec::new();
                old.schedule_reference(&requests, &in_free, &out_free, &mut expect);
                prop_assert_eq!(got, expect);
                prop_assert_eq!(&new.grant_ptr, &old.grant_ptr);
                prop_assert_eq!(&new.accept_ptr, &old.accept_ptr);
            }
        }
    }
}
