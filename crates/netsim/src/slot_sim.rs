//! Literal slot-by-slot execution: each ingress sends and each egress
//! receives at most one unit per slot (constraints (2)–(3) of the paper).
//! [`SlotSim`] shares no code with [`crate::FaultSim`] and is the reference
//! its run-length arithmetic is tested against.

use coflow_matching::IntMatrix;

/// Literal slot-by-slot executor used for cross-validation in tests.
#[derive(Clone, Debug)]
pub struct SlotSim {
    m: usize,
    remaining: Vec<IntMatrix>,
    remaining_total: Vec<u64>,
    releases: Vec<u64>,
    completion: Vec<Option<u64>>,
    now: u64,
}

impl SlotSim {
    /// Creates a slot-level simulator.
    pub fn new(m: usize, demands: &[IntMatrix], releases: &[u64]) -> Self {
        let remaining_total: Vec<u64> = demands.iter().map(IntMatrix::total).collect();
        let completion = remaining_total
            .iter()
            .zip(releases)
            .map(|(&tot, &r)| if tot == 0 { Some(r) } else { None })
            .collect();
        SlotSim {
            m,
            remaining: demands.to_vec(),
            remaining_total,
            releases: releases.to_vec(),
            completion,
            now: 0,
        }
    }

    /// Executes one slot: each `(i, j, k)` moves one unit of coflow `k`
    /// from `i` to `j`. Ports must not repeat; demands must exist; `k` must
    /// be released.
    pub fn step(&mut self, moves: &[(usize, usize, usize)]) {
        let t = self.now + 1;
        let mut src_used = vec![false; self.m];
        let mut dst_used = vec![false; self.m];
        for &(i, j, k) in moves {
            assert!(!src_used[i] && !dst_used[j], "port reused in slot");
            src_used[i] = true;
            dst_used[j] = true;
            assert!(self.releases[k] < t, "coflow served before release");
            assert!(self.remaining[k][(i, j)] > 0, "no demand to serve");
            self.remaining[k][(i, j)] -= 1;
            self.remaining_total[k] -= 1;
            if self.remaining_total[k] == 0 {
                self.completion[k] = Some(t);
            }
        }
        self.now = t;
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Completion slots so far.
    pub fn completion_times(&self) -> &[Option<u64>] {
        &self.completion
    }

    /// True when everything has been delivered.
    pub fn all_done(&self) -> bool {
        self.completion.iter().all(Option::is_some)
    }
}
