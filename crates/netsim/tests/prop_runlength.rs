//! Differential properties of run-length execution.
//!
//! The run-length executors must be *indistinguishable* from unit-slot
//! execution:
//!
//! * [`FaultSim::execute_trace`] (windowed, epoch-splitting) against
//!   [`FaultSim::execute_trace_slotwise`] (the literal per-slot reference):
//!   identical outcomes, executed trace, blocked log, completions, and
//!   remaining state — under arbitrary fault plans, stop boundaries, and
//!   multi-epoch resumption;
//! * [`ScheduleTrace::for_each_slot`] (reused-buffer expansion) against
//!   [`Run::slot_moves`] (allocating reference);
//! * [`FaultSim::apply_run`] on the empty plan (the clean run-length path)
//!   against [`SlotSim`] replaying the recorded trace slot by slot;
//! * [`FaultSim::apply_run`] under arbitrary fault plans against
//!   [`FaultSim::step`]s of the moves it stands for — each slot, the first
//!   listed coflow with demand on each pair: identical completions, blocked
//!   log, remaining state and slot-expanded executed trace.

use coflow_matching::IntMatrix;
use coflow_netsim::{
    trace_stats, validate_trace, FaultPlan, FaultSim, Run, ScheduleTrace, SlotSim, Transfer,
};
use proptest::prelude::*;

/// Tiny deterministic generator so cases are built from one shrinkable seed.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Builds a valid planned trace (runs of partial matchings, serialized
/// multi-coflow transfers per pair, idle gaps) plus demands and releases.
/// Demands deliberately under- and over-cover the planned units so the
/// executor's "already delivered" skip path is exercised; occasional
/// positive releases and duplicated ingress ports push runs onto the
/// slot-wise fallback so both paths are compared there too.
fn build_case(
    m: usize,
    n: usize,
    nruns: usize,
    seed: u64,
) -> (ScheduleTrace, Vec<IntMatrix>, Vec<u64>) {
    let mut rng = Lcg(seed.wrapping_add(0x9e3779b97f4a7c15));
    let mut trace = ScheduleTrace::new(m);
    let mut planned = vec![IntMatrix::zeros(m); n];
    let mut next_start = 1 + rng.below(3);
    for _ in 0..nruns {
        let duration = 1 + rng.below(6);
        let mut transfers = Vec::new();
        // A random partial matching: j = (i + shift) mod m over a subset.
        let shift = rng.below(m as u64) as usize;
        for i in 0..m {
            if rng.below(4) == 0 {
                continue;
            }
            let j = (i + shift) % m;
            let mut budget = duration;
            for _ in 0..=rng.below(2) {
                if budget == 0 {
                    break;
                }
                let k = rng.below(n as u64) as usize;
                let units = 1 + rng.below(budget);
                budget -= units;
                planned[k][(i, j)] += units;
                transfers.push(Transfer { src: i, dst: j, coflow: k, units });
            }
        }
        // Rarely duplicate an ingress onto another egress: a structural
        // PortMatchedTwice candidate that forces the slot-wise fallback.
        if m >= 3 && rng.below(8) == 0 {
            if let Some(t) = transfers.first().copied() {
                transfers.push(Transfer {
                    src: t.src,
                    dst: (t.dst + 1) % m,
                    coflow: t.coflow,
                    units: 1,
                });
            }
        }
        trace.push_run(Run { start: next_start, duration, transfers });
        next_start += duration + rng.below(4);
    }
    let demands: Vec<IntMatrix> = planned
        .iter()
        .map(|p| {
            let mut d = IntMatrix::zeros(m);
            for (i, j, v) in p.nonzero_entries() {
                d[(i, j)] = match rng.below(4) {
                    0 => v / 2,     // under-covered: skips happen
                    1 => v + 1,     // over-covered: demand strands
                    _ => v,
                };
            }
            d
        })
        .collect();
    let releases: Vec<u64> = (0..n)
        .map(|_| if rng.below(4) == 0 { 1 + rng.below(4) } else { 0 })
        .collect();
    (trace, demands, releases)
}

/// Runs one executor call on both sims and asserts every observable piece
/// of state agrees. Returns `false` when both errored (no further calls).
fn step_both(
    a: &mut FaultSim,
    b: &mut FaultSim,
    trace: &ScheduleTrace,
    stop: Option<u64>,
) -> bool {
    let ra = a.execute_trace(trace, stop);
    let rb = b.execute_trace_slotwise(trace, stop);
    let live = match (&ra, &rb) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x, y, "per-slot outcomes diverged (stop {:?})", stop);
            true
        }
        (Err(x), Err(y)) => {
            assert_eq!(x, y, "errors diverged (stop {:?})", stop);
            false
        }
        (x, y) => panic!("result kinds diverged (stop {:?}): {:?} vs {:?}", stop, x, y),
    };
    assert_eq!(a.now(), b.now());
    assert_eq!(a.completion_times(), b.completion_times());
    assert_eq!(a.blocked_units(), b.blocked_units());
    assert_eq!(a.blocked_log(), b.blocked_log());
    for k in 0..a.completion_times().len() {
        assert_eq!(a.remaining_matrix(k), b.remaining_matrix(k), "coflow {}", k);
        assert_eq!(a.is_cancelled(k), b.is_cancelled(k), "coflow {}", k);
    }
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Windowed execution is byte-identical to slot-wise execution: same
    /// outcomes, same executed `ScheduleTrace`, same `TraceStats`, same
    /// blocked log and completion/cancellation state — for any plan,
    /// whether run whole, to a single stop boundary, or epoch by epoch
    /// (the recovery loop's access pattern).
    #[test]
    fn runlength_matches_slotwise(
        m in 2usize..5,
        n in 1usize..5,
        nruns in 1usize..6,
        seed in 0u64..1 << 32,
        rate in 0.0f64..0.8,
        fseed in 0u64..1 << 32,
        mode in 0usize..3,
    ) {
        let (trace, demands, releases) = build_case(m, n, nruns, seed);
        let horizon = trace.makespan().max(1);
        let plan = FaultPlan::generate(m, n, horizon, rate, fseed);
        let mut a = FaultSim::new(m, demands.clone(), &releases, plan.clone());
        let mut b = FaultSim::new(m, demands.clone(), &releases, plan.clone());
        match mode {
            0 => {
                step_both(&mut a, &mut b, &trace, None);
            }
            1 => {
                let stop = plan.boundaries().first().copied().unwrap_or(horizon / 2 + 1);
                if step_both(&mut a, &mut b, &trace, Some(stop)) {
                    step_both(&mut a, &mut b, &trace, None);
                }
            }
            _ => {
                // Epoch-by-epoch, exactly like the recovery loop.
                for boundary in plan.boundaries() {
                    if boundary <= a.now() + 1 {
                        continue;
                    }
                    if !step_both(&mut a, &mut b, &trace, Some(boundary)) {
                        return;
                    }
                }
                step_both(&mut a, &mut b, &trace, None);
            }
        }
        let (ta, ca, ba) = a.finish();
        let (tb, cb, bb) = b.finish();
        prop_assert_eq!(&ta, &tb, "executed traces diverged");
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(ba, bb);
        prop_assert_eq!(trace_stats(&ta), trace_stats(&tb));
    }

    /// The reused-buffer slot expansion visits exactly the slots and moves
    /// that the allocating `slot_moves` reference produces.
    #[test]
    fn for_each_slot_matches_slot_moves(
        m in 2usize..5,
        n in 1usize..5,
        nruns in 1usize..6,
        seed in 0u64..1 << 32,
    ) {
        let (trace, _, _) = build_case(m, n, nruns, seed);
        let mut expected: Vec<(u64, Vec<(usize, usize, usize)>)> = Vec::new();
        for run in &trace.runs {
            for (o, moves) in run.slot_moves().iter().enumerate() {
                expected.push((run.start + o as u64, moves.clone()));
            }
        }
        let mut seen: Vec<(u64, Vec<(usize, usize, usize)>)> = Vec::new();
        trace.for_each_slot(|slot, moves| seen.push((slot, moves.to_vec())));
        prop_assert_eq!(seen, expected);
    }

    /// Clean-path equivalence: completion times from run-length holds on
    /// the empty plan agree with a literal `SlotSim` replay of its trace.
    #[test]
    fn clean_holds_match_unit_slot_replay(
        m in 2usize..5,
        n in 1usize..5,
        nruns in 1usize..6,
        seed in 0u64..1 << 32,
    ) {
        let (planned, demands, _) = build_case(m, n, nruns, seed);
        let releases = vec![0u64; n];
        let mut fabric = FaultSim::new(m, demands.clone(), &releases, FaultPlan::default());
        for run in &planned.runs {
            if run.start > fabric.now() + 1 {
                fabric.advance_to(run.start - 1);
            }
            // Regroup the run into per-pair priority lists.
            let mut pairs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
            for t in &run.transfers {
                match pairs.iter_mut().find(|p| p.0 == t.src && p.1 == t.dst) {
                    Some(p) => p.2.push(t.coflow),
                    None => pairs.push((t.src, t.dst, vec![t.coflow])),
                }
            }
            // Skip runs that would violate the matching precondition.
            let mut src = vec![false; m];
            let mut dst = vec![false; m];
            if !pairs.iter().all(|&(i, j, _)| {
                let ok = !src[i] && !dst[j];
                src[i] = true;
                dst[j] = true;
                ok
            }) {
                continue;
            }
            fabric.apply_run(&pairs, run.duration).expect("valid matching");
        }
        let (trace, completions, _) = fabric.finish();
        let mut slots = SlotSim::new(m, &demands, &releases);
        trace.for_each_slot(|slot, moves| {
            if slot > slots.now() + 1 {
                // Idle gap between runs.
                while slots.now() + 1 < slot {
                    slots.step(&[]);
                }
            }
            slots.step(moves);
        });
        prop_assert_eq!(completions, slots.completion_times().to_vec());
        prop_assert_eq!(trace_stats(&trace).total_units, trace.total_units());
    }

    /// Fault-path equivalence: a held matching is the per-slot service it
    /// stands for. Each slot the reference steps the first listed coflow
    /// with demand on every pair; `apply_run` must leave the same state,
    /// blocked log and slot-by-slot delivery under any plan.
    #[test]
    fn held_matchings_match_stepped_moves(
        m in 2usize..5,
        n in 1usize..5,
        nruns in 1usize..6,
        seed in 0u64..1 << 32,
        rate in 0.0f64..0.8,
        fseed in 0u64..1 << 32,
    ) {
        let (planned, demands, _) = build_case(m, n, nruns, seed);
        let releases = vec![0u64; n];
        let plan = FaultPlan::generate(m, n, planned.makespan().max(1), rate, fseed);
        let mut held = FaultSim::new(m, demands.clone(), &releases, plan.clone());
        let mut stepped = FaultSim::new(m, demands.clone(), &releases, plan.clone());
        for run in &planned.runs {
            let mut pairs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
            for t in &run.transfers {
                match pairs.iter_mut().find(|p| p.0 == t.src && p.1 == t.dst) {
                    Some(p) => p.2.push(t.coflow),
                    None => pairs.push((t.src, t.dst, vec![t.coflow])),
                }
            }
            let mut src = vec![false; m];
            let mut dst = vec![false; m];
            if !pairs.iter().all(|&(i, j, _)| {
                let ok = !src[i] && !dst[j];
                src[i] = true;
                dst[j] = true;
                ok
            }) {
                continue;
            }
            held.apply_run(&pairs, run.duration).expect("valid matching");
            for _ in 0..run.duration {
                let moves: Vec<(usize, usize, usize)> = pairs
                    .iter()
                    .filter_map(|(i, j, prio)| {
                        prio.iter()
                            .find(|&&k| stepped.remaining(k, *i, *j) > 0)
                            .map(|&k| (*i, *j, k))
                    })
                    .collect();
                stepped.step(&moves).expect("valid moves");
            }
            prop_assert_eq!(held.now(), stepped.now());
            prop_assert_eq!(held.completion_times(), stepped.completion_times());
            prop_assert_eq!(held.blocked_log(), stepped.blocked_log());
            for k in 0..n {
                prop_assert_eq!(held.remaining_matrix(k), stepped.remaining_matrix(k));
                prop_assert_eq!(held.is_cancelled(k), stepped.is_cancelled(k));
            }
        }
        prop_assert_eq!(held.all_settled(), stepped.all_settled());
        if held.all_settled() {
            // The plan-aware validator re-derives the executor's completions.
            let (trace, completions, _) = held.clone().finish();
            let replayed = validate_trace(&demands, &releases, &plan, &trace);
            prop_assert_eq!(replayed, Ok(completions));
        }
        let slots = |sim: FaultSim| {
            let (trace, _, blocked) = sim.finish();
            let mut busy: Vec<(u64, Vec<(usize, usize, usize)>)> = Vec::new();
            trace.for_each_slot(|slot, moves| {
                if !moves.is_empty() {
                    busy.push((slot, moves.to_vec()));
                }
            });
            (busy, blocked)
        };
        prop_assert_eq!(slots(held), slots(stepped));
    }
}
