//! Differential verification of the PR-5 engine refactor: the engine-backed
//! shims must reproduce the four legacy slot-execution loops *byte for
//! byte* — identical `ScheduleTrace`, completions, and bit-equal objective.
//!
//! The `legacy` module below holds frozen, verbatim copies of the loops as
//! they stood before the refactor (batch executor with backfill/rematch/
//! maxmin, arrival-only-resort online scheduler, priority greedy, and the
//! fault/recovery epoch loop). They are the reference; the public API is
//! the system under test. Seeded random grids keep the comparison
//! reproducible.
//!
//! The `per_slot` module freezes the greedy-family policies as they stood
//! before event-driven service: one `Decision::Run` of `duration: 1` per
//! busy slot. The event-driven dispatcher holds each matching until the
//! next event, so its run-length traces differ; the contract is that the
//! *slot-expanded* schedules (`ScheduleTrace::for_each_slot`), completions,
//! order and objective bits are identical, clean and under faults (where
//! `replans`, `tiers` and the blocked accounting must match too).
//!
//! `ResilientPolicy` plans each fault epoch only up to the slot where the
//! engine stops executing it (`EpochState::execute_until`), while the
//! frozen recovery loop plans the whole residual horizon every time. The
//! contract is that nothing observable changes: executed trace,
//! completions, objective bits, replans, tiers and blocked accounting are
//! byte-identical, on the registry spec, starved solvers, a 32-port
//! synthetic trace and generated instances. The horizon tests pin the two
//! halves of that argument: a bounded plan is the prefix of the full plan,
//! and the horizon is the first boundary *after* `now + 1`.
//!
//! A proptest at the end covers the newly composable combinations: the
//! online and greedy policies under fault injection must settle every
//! non-cancelled unit of demand (replay-verified by
//! [`verify_faulty_outcome`]).

use coflow::sched::{AlgorithmSpec, ExecOptions, ScheduleOutcome};
use coflow::{
    compute_order, plan_resilient, plan_with_order, run_policy, run_policy_with_faults, run_resilient,
    run_with_order, run_with_order_opts, verify_faulty_outcome, Coflow, Engine, FaultyOutcome,
    GreedyPolicy, ImPurohitPolicy, Instance, OnlineOptions, OnlineRhoPolicy, OrderRule, Policy,
    PolicyRegistry, ResilientPolicy, ShafieeGhaderiPolicy,
};
use coflow_lp::SimplexOptions;
use coflow_matching::IntMatrix;
use coflow_netsim::{FaultEvent, FaultPlan, Run, ScheduleTrace};
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frozen pre-refactor implementations. Do not edit: any divergence from
/// these is a behavior change in the engine port.
mod legacy {
    use coflow::sched::{ExecOptions, ScheduleOutcome};
    use coflow::{run_resilient, AlgorithmSpec, Coflow, FaultyOutcome, Instance};
    use coflow_lp::SimplexOptions;
    use coflow_matching::{bvn_decompose, IntMatrix};
    use coflow_netsim::{FaultPlan, FaultSim, Run, ScheduleTrace, SimError, Transfer};

    /// The pre-refactor `execute_batches` (sched/mod.rs), verbatim minus
    /// obs calls and the parallel-precompute fan-out it once had (the
    /// in-loop decomposition, now the only path, is the semantic reference).
    pub fn execute_batches(
        instance: &Instance,
        order: Vec<usize>,
        batches: &[Vec<usize>],
        opts: ExecOptions,
    ) -> ScheduleOutcome {
        let ExecOptions {
            backfill,
            rematch,
            maxmin_decomposition,
            ..
        } = opts;
        let n = instance.len();
        let m = instance.ports();
        let demands = instance.demand_matrices();
        let releases = instance.releases();
        let mut fabric =
            FaultSim::new(instance.ports(), demands.clone(), &releases, FaultPlan::default());

        let mut pos = vec![usize::MAX; n];
        for (p, &k) in order.iter().enumerate() {
            pos[k] = p;
        }
        let mut pair_queue: Vec<Vec<usize>> = vec![Vec::new(); m * m];
        let mut pair_head: Vec<usize> = vec![0; m * m];
        for &k in &order {
            for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                pair_queue[i * m + j].push(k);
            }
        }

        let mut pairs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        let mut spare: Vec<Vec<usize>> = Vec::new();
        let mut src_used = vec![false; m];
        let mut dst_used = vec![false; m];

        for batch in batches.iter() {
            if batch.is_empty() {
                continue;
            }
            let batch_release = batch
                .iter()
                .filter(|&&k| fabric.remaining_total(k) > 0)
                .map(|&k| instance.coflow(k).release)
                .max();
            let Some(batch_release) = batch_release else {
                continue;
            };
            if batch_release > fabric.now() {
                fabric.advance_to(batch_release);
            }
            let batch_end_pos = batch.iter().map(|&k| pos[k]).max().unwrap();

            let dec = {
                let mut agg = IntMatrix::zeros(m);
                for &k in batch {
                    for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                        agg[(i, j)] += fabric.remaining(k, i, j);
                    }
                }
                if agg.is_zero() {
                    continue;
                }
                if maxmin_decomposition {
                    coflow_matching::bvn_decompose_maxmin(&agg)
                } else {
                    bvn_decompose(&agg)
                }
            };

            let mut slot_sequence: Vec<usize> = Vec::with_capacity(dec.slots.len());
            {
                let mut pending: Vec<usize> = (0..dec.slots.len()).collect();
                let mut rem: Vec<IntMatrix> = batch
                    .iter()
                    .map(|&k| {
                        let mut r = IntMatrix::zeros(instance.ports());
                        for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                            r[(i, j)] = fabric.remaining(k, i, j);
                        }
                        r
                    })
                    .collect();
                for (b_idx, _k) in batch.iter().enumerate() {
                    while !rem[b_idx].is_zero() {
                        let found = pending.iter().position(|&s| {
                            dec.slots[s]
                                .perm
                                .pairs()
                                .any(|(i, j)| rem[b_idx][(i, j)] > 0)
                        });
                        let Some(p_idx) = found else {
                            unreachable!("BvN coverage must clear every group coflow")
                        };
                        let s = pending.remove(p_idx);
                        let q = dec.slots[s].count;
                        for (i, j) in dec.slots[s].perm.pairs() {
                            let mut budget = q;
                            for r in rem.iter_mut() {
                                if budget == 0 {
                                    break;
                                }
                                let take = r[(i, j)].min(budget);
                                r[(i, j)] -= take;
                                budget -= take;
                            }
                        }
                        slot_sequence.push(s);
                    }
                }
                slot_sequence.extend(pending);
            }

            const REMATCH_CHUNK: u64 = 4;
            let chunked: Vec<(usize, u64)> = slot_sequence
                .into_iter()
                .flat_map(|slot_idx| {
                    let q = dec.slots[slot_idx].count;
                    if rematch && q > REMATCH_CHUNK {
                        let chunks = q.div_ceil(REMATCH_CHUNK);
                        (0..chunks)
                            .map(|c| {
                                let len = REMATCH_CHUNK.min(q - c * REMATCH_CHUNK);
                                (slot_idx, len)
                            })
                            .collect::<Vec<_>>()
                    } else {
                        vec![(slot_idx, q)]
                    }
                })
                .collect();

            for (slot_idx, chunk_len) in chunked {
                let slot = &dec.slots[slot_idx];
                let now = fabric.now();
                let eligible = |k: usize| {
                    instance.coflow(k).release <= now && (pos[k] <= batch_end_pos || backfill)
                };
                for (_, _, mut buf) in pairs.drain(..) {
                    buf.clear();
                    spare.push(buf);
                }
                if rematch {
                    src_used.fill(false);
                    dst_used.fill(false);
                }
                for (i, j) in slot.perm.pairs() {
                    let head = &mut pair_head[i * m + j];
                    let queue = &pair_queue[i * m + j];
                    while *head < queue.len() && fabric.remaining(queue[*head], i, j) == 0 {
                        *head += 1;
                    }
                    if *head == queue.len() {
                        continue;
                    }
                    let mut candidates = spare.pop().unwrap_or_default();
                    candidates.extend(
                        queue[*head..]
                            .iter()
                            .copied()
                            .filter(|&k| eligible(k) && fabric.remaining(k, i, j) > 0),
                    );
                    if candidates.is_empty() {
                        spare.push(candidates);
                    } else {
                        if rematch {
                            src_used[i] = true;
                            dst_used[j] = true;
                        }
                        pairs.push((i, j, candidates));
                    }
                }
                if rematch {
                    for &k in &order {
                        if !eligible(k) || fabric.remaining_total(k) == 0 {
                            continue;
                        }
                        for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                            if !src_used[i] && !dst_used[j] && fabric.remaining(k, i, j) > 0 {
                                src_used[i] = true;
                                dst_used[j] = true;
                                let mut candidates = spare.pop().unwrap_or_default();
                                candidates.extend(
                                    pair_queue[i * m + j]
                                        .iter()
                                        .copied()
                                        .filter(|&c| eligible(c) && fabric.remaining(c, i, j) > 0),
                                );
                                pairs.push((i, j, candidates));
                            }
                        }
                    }
                }
                if pairs.is_empty() {
                    fabric.advance_to(now + chunk_len);
                } else {
                    fabric.apply_run(&pairs, chunk_len).unwrap();
                }
            }
        }

        assert!(fabric.all_settled(), "legacy batch execution must deliver all demand");
        let (trace, completions, _) = fabric.finish();
        let completions: Vec<u64> = completions.into_iter().map(Option::unwrap).collect();
        let objective = instance.objective(&completions);
        ScheduleOutcome {
            order,
            completions,
            objective,
            trace,
        }
    }

    /// The pre-refactor online ρ/w loop (the former `sched/online.rs`),
    /// verbatim:
    /// arrival-only priority re-sort.
    pub fn online_loop(instance: &Instance) -> ScheduleOutcome {
        let n = instance.len();
        let m = instance.ports();
        let mut remaining: Vec<IntMatrix> = instance.demand_matrices();
        let mut remaining_total: Vec<u64> = remaining.iter().map(IntMatrix::total).collect();
        let releases = instance.releases();
        let weights = instance.weights();
        let mut completions: Vec<u64> = releases.clone();
        let mut unfinished: usize = remaining_total.iter().filter(|&&t| t > 0).count();

        let mut events: Vec<(u64, usize)> = releases.iter().copied().zip(0..n).collect();
        events.sort_unstable();
        let mut next_event = 0usize;

        let mut active: Vec<usize> = Vec::new();
        let mut trace = ScheduleTrace::new(m);
        let mut t: u64 = 0;
        let mut src_used = vec![false; m];
        let mut dst_used = vec![false; m];

        while unfinished > 0 {
            let mut admitted = false;
            while next_event < events.len() && events[next_event].0 <= t {
                let k = events[next_event].1;
                next_event += 1;
                if remaining_total[k] > 0 {
                    active.push(k);
                    admitted = true;
                }
            }
            if admitted {
                active.sort_by(|&a, &b| {
                    let ka = remaining[a].load() as f64 / weights[a];
                    let kb = remaining[b].load() as f64 / weights[b];
                    ka.total_cmp(&kb).then(a.cmp(&b))
                });
            }
            if active.is_empty() {
                t = events[next_event].0;
                continue;
            }

            let slot = t + 1;
            src_used.iter_mut().for_each(|b| *b = false);
            dst_used.iter_mut().for_each(|b| *b = false);
            let mut transfers: Vec<Transfer> = Vec::new();
            for &k in &active {
                for (i, j, _) in remaining[k].nonzero_entries() {
                    if !src_used[i] && !dst_used[j] {
                        src_used[i] = true;
                        dst_used[j] = true;
                        transfers.push(Transfer {
                            src: i,
                            dst: j,
                            coflow: k,
                            units: 1,
                        });
                    }
                }
            }
            debug_assert!(!transfers.is_empty(), "active coflows must be servable");
            for tr in &transfers {
                remaining[tr.coflow][(tr.src, tr.dst)] -= 1;
                remaining_total[tr.coflow] -= 1;
                if remaining_total[tr.coflow] == 0 {
                    completions[tr.coflow] = slot;
                    unfinished -= 1;
                }
            }
            trace.push_run(Run {
                start: slot,
                duration: 1,
                transfers,
            });
            active.retain(|&k| remaining_total[k] > 0);
            t = slot;
        }

        let objective = instance.objective(&completions);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&k| (completions[k], k));
        ScheduleOutcome {
            order,
            completions,
            objective,
            trace,
        }
    }

    /// The pre-refactor greedy loop (the former `sched/greedy.rs`), verbatim.
    pub fn greedy_loop(instance: &Instance, order: Vec<usize>) -> ScheduleOutcome {
        let m = instance.ports();
        let mut remaining: Vec<IntMatrix> = instance.demand_matrices();
        let mut remaining_total: Vec<u64> = remaining.iter().map(IntMatrix::total).collect();
        let releases = instance.releases();
        let mut completions: Vec<u64> = releases.clone();
        let mut unfinished: usize = remaining_total.iter().filter(|&&t| t > 0).count();

        let mut trace = ScheduleTrace::new(m);
        let mut t: u64 = 0;
        let mut src_used = vec![false; m];
        let mut dst_used = vec![false; m];

        while unfinished > 0 {
            let slot = t + 1;
            src_used.iter_mut().for_each(|b| *b = false);
            dst_used.iter_mut().for_each(|b| *b = false);
            let mut transfers: Vec<Transfer> = Vec::new();
            let mut matched = 0usize;
            for &k in &order {
                if remaining_total[k] == 0 || releases[k] >= slot {
                    continue;
                }
                if matched == m {
                    break;
                }
                for (i, j, _) in remaining[k].nonzero_entries() {
                    if !src_used[i] && !dst_used[j] {
                        src_used[i] = true;
                        dst_used[j] = true;
                        matched += 1;
                        transfers.push(Transfer {
                            src: i,
                            dst: j,
                            coflow: k,
                            units: 1,
                        });
                    }
                }
            }
            if transfers.is_empty() {
                let next_release = releases
                    .iter()
                    .enumerate()
                    .filter(|&(k, &r)| remaining_total[k] > 0 && r >= slot)
                    .map(|(_, &r)| r)
                    .min()
                    .unwrap();
                t = next_release;
                continue;
            }
            for tr in &transfers {
                remaining[tr.coflow][(tr.src, tr.dst)] -= 1;
                remaining_total[tr.coflow] -= 1;
                if remaining_total[tr.coflow] == 0 {
                    completions[tr.coflow] = slot;
                    unfinished -= 1;
                }
            }
            trace.push_run(Run {
                start: slot,
                duration: 1,
                transfers,
            });
            t = slot;
        }

        let objective = instance.objective(&completions);
        ScheduleOutcome {
            order,
            completions,
            objective,
            trace,
        }
    }

    /// The pre-refactor fault-recovery epoch loop (sched/recovery.rs),
    /// verbatim.
    pub fn fault_loop(
        instance: &Instance,
        spec: &AlgorithmSpec,
        lp_opts: &SimplexOptions,
        plan: &FaultPlan,
    ) -> Result<FaultyOutcome, SimError> {
        let m = instance.ports();
        let mut sim = FaultSim::new(
            m,
            instance.demand_matrices(),
            &instance.releases(),
            plan.clone(),
        );
        let boundaries = plan.boundaries();
        let mut replans = 0usize;
        let mut tiers = Vec::new();

        while !sim.all_settled() {
            let now = sim.now();
            let mut residual_to_orig = Vec::new();
            let mut residual = Vec::new();
            for k in 0..instance.len() {
                if sim.is_cancelled(k) || sim.remaining_total(k) == 0 {
                    continue;
                }
                let c = instance.coflow(k);
                residual_to_orig.push(k);
                residual.push(
                    Coflow::new(c.id, sim.remaining_matrix(k).clone())
                        .with_weight(c.weight)
                        .with_release(c.release.max(now)),
                );
            }
            if residual.is_empty() {
                sim.advance_to(now + 1);
                continue;
            }
            let residual_instance = Instance::new(m, residual);
            let planned = run_resilient(&residual_instance, spec, lp_opts);
            replans += 1;
            tiers.push(planned.tier);

            let mut trace = planned.outcome.trace;
            for run in &mut trace.runs {
                for t in &mut run.transfers {
                    t.coflow = residual_to_orig[t.coflow];
                }
            }

            let stop = boundaries.iter().copied().find(|&b| b > now + 1);
            sim.execute_trace(&trace, stop)?;
        }

        let blocked = sim.blocked_log().to_vec();
        let (executed, completions, blocked_units) = sim.finish();
        let objective = completions
            .iter()
            .zip(instance.coflows())
            .filter_map(|(c, cf)| c.map(|t| cf.weight * t as f64))
            .sum();
        Ok(FaultyOutcome {
            completions,
            executed,
            objective,
            replans,
            tiers,
            blocked_units,
            blocked,
        })
    }
}

/// Frozen per-slot greedy-family policies, verbatim from before the
/// event-driven dispatcher (one decision per busy slot, dense residual
/// scans). Do not edit: they are the reference the dispatcher must match
/// slot for slot.
mod per_slot {
    use coflow::{Decision, EpochState, Instance, OnlineOptions, Policy, SchedError};
    use coflow_matching::IntMatrix;

    /// The pre-change `engine::greedy_match`.
    fn greedy_match<'a, I, F>(
        m: usize,
        candidates: I,
        remaining: F,
        src_used: &mut [bool],
        dst_used: &mut [bool],
    ) -> Vec<(usize, usize, usize)>
    where
        I: IntoIterator<Item = usize>,
        F: Fn(usize) -> &'a IntMatrix,
    {
        src_used.iter_mut().for_each(|b| *b = false);
        dst_used.iter_mut().for_each(|b| *b = false);
        let mut moves: Vec<(usize, usize, usize)> = Vec::new();
        let mut matched = 0usize;
        for k in candidates {
            if matched == m {
                break;
            }
            for (i, j, _) in remaining(k).nonzero_entries() {
                if !src_used[i] && !dst_used[j] {
                    src_used[i] = true;
                    dst_used[j] = true;
                    matched += 1;
                    moves.push((i, j, k));
                }
            }
        }
        moves
    }

    /// The pre-change `GreedyPolicy` / `OrderedDispatch` (the two were
    /// verbatim copies): a fixed permutation served one slot at a time.
    pub struct SlotGreedy {
        order: Vec<usize>,
        releases: Vec<u64>,
        src_used: Vec<bool>,
        dst_used: Vec<bool>,
    }

    impl SlotGreedy {
        pub fn new(instance: &Instance, order: Vec<usize>) -> Self {
            let m = instance.ports();
            SlotGreedy {
                releases: instance.releases(),
                order,
                src_used: vec![false; m],
                dst_used: vec![false; m],
            }
        }
    }

    impl Policy for SlotGreedy {
        fn name(&self) -> &'static str {
            "per-slot-greedy"
        }

        fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
            let slot = state.now + 1;
            let releases = &self.releases;
            let candidates = self
                .order
                .iter()
                .copied()
                .filter(|&k| state.remaining_total(k) > 0 && releases[k] < slot);
            let moves = greedy_match(
                state.instance.ports(),
                candidates,
                |k| state.remaining_matrix(k),
                &mut self.src_used,
                &mut self.dst_used,
            );
            if moves.is_empty() {
                let next_release = releases
                    .iter()
                    .enumerate()
                    .filter(|&(k, &r)| state.remaining_total(k) > 0 && r >= slot)
                    .map(|(_, &r)| r)
                    .min()
                    .unwrap_or_else(|| unreachable!("unfinished demand must have a future release"));
                return Ok(Decision::Advance(next_release));
            }
            Ok(Decision::Run {
                pairs: moves.into_iter().map(|(i, j, k)| (i, j, vec![k])).collect(),
                duration: 1,
            })
        }

        fn final_order(&self, _completions: &[u64]) -> Vec<usize> {
            self.order.clone()
        }
    }

    /// The pre-change `OnlineRhoPolicy`.
    pub struct SlotOnline {
        opts: OnlineOptions,
        weights: Vec<f64>,
        events: Vec<(u64, usize)>,
        next_event: usize,
        active: Vec<usize>,
        src_used: Vec<bool>,
        dst_used: Vec<bool>,
    }

    impl SlotOnline {
        pub fn new(instance: &Instance, opts: OnlineOptions) -> Self {
            let n = instance.len();
            let m = instance.ports();
            let mut events: Vec<(u64, usize)> =
                instance.releases().iter().copied().zip(0..n).collect();
            events.sort_unstable();
            SlotOnline {
                opts,
                weights: instance.weights(),
                events,
                next_event: 0,
                active: Vec::new(),
                src_used: vec![false; m],
                dst_used: vec![false; m],
            }
        }
    }

    impl Policy for SlotOnline {
        fn name(&self) -> &'static str {
            "per-slot-online"
        }

        fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
            let now = state.now;
            let before = self.active.len();
            self.active.retain(|&k| state.remaining_total(k) > 0);
            let completed = self.active.len() != before;
            let mut admitted = false;
            while self.next_event < self.events.len() && self.events[self.next_event].0 <= now {
                let k = self.events[self.next_event].1;
                self.next_event += 1;
                if state.remaining_total(k) > 0 {
                    self.active.push(k);
                    admitted = true;
                }
            }
            if admitted || (self.opts.resort_on_completion && completed) {
                let weights = &self.weights;
                self.active.sort_by(|&a, &b| {
                    let ka = state.remaining_matrix(a).load() as f64 / weights[a];
                    let kb = state.remaining_matrix(b).load() as f64 / weights[b];
                    ka.total_cmp(&kb).then(a.cmp(&b))
                });
            }
            if self.active.is_empty() {
                if self.next_event == self.events.len() {
                    return Ok(Decision::Finished);
                }
                return Ok(Decision::Advance(self.events[self.next_event].0));
            }
            let moves = greedy_match(
                state.instance.ports(),
                self.active.iter().copied(),
                |k| state.remaining_matrix(k),
                &mut self.src_used,
                &mut self.dst_used,
            );
            debug_assert!(!moves.is_empty(), "active coflows must be servable");
            Ok(Decision::Run {
                pairs: moves.into_iter().map(|(i, j, k)| (i, j, vec![k])).collect(),
                duration: 1,
            })
        }
    }
}

/// Seeded random instance: `m` ports, `n` coflows, entries `0..6`,
/// releases `0..=max_release`, weights drawn from `{0.5, 1.0, …, 4.0}`.
fn seeded_instance(m: usize, n: usize, max_release: u64, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let coflows = (0..n)
        .map(|id| {
            let data: Vec<u64> = (0..m * m).map(|_| rng.gen_range(0..6)).collect();
            let release = rng.gen_range(0..=max_release);
            let weight = rng.gen_range(1..=8) as f64 / 2.0;
            Coflow::new(id, IntMatrix::from_rows(m, data))
                .with_release(release)
                .with_weight(weight)
        })
        .collect();
    Instance::new(m, coflows)
}

fn assert_outcomes_identical(label: &str, new: &ScheduleOutcome, old: &ScheduleOutcome) {
    assert_eq!(new.trace, old.trace, "{}: trace diverged", label);
    assert_eq!(new.completions, old.completions, "{}: completions diverged", label);
    assert_eq!(new.order, old.order, "{}: order diverged", label);
    assert_eq!(
        new.objective.to_bits(),
        old.objective.to_bits(),
        "{}: objective not bit-identical ({} vs {})",
        label,
        new.objective,
        old.objective
    );
}

/// Slot-by-slot expansion of a trace: `(slot, unit moves)` for every
/// scheduled slot, in time order.
type SlotSchedule = Vec<(u64, Vec<(usize, usize, usize)>)>;

fn slot_schedule(trace: &ScheduleTrace) -> SlotSchedule {
    let mut slots = Vec::new();
    trace.for_each_slot(|slot, moves| slots.push((slot, moves.to_vec())));
    slots
}

/// Like [`assert_outcomes_identical`], but compares the slot-expanded
/// schedule instead of the run-length encoding, which event-driven holds
/// legitimately coarsen.
fn assert_slot_schedules_identical(label: &str, new: &ScheduleOutcome, old: &ScheduleOutcome) {
    assert_eq!(
        slot_schedule(&new.trace),
        slot_schedule(&old.trace),
        "{}: slot schedule diverged",
        label
    );
    assert_eq!(new.completions, old.completions, "{}: completions diverged", label);
    assert_eq!(new.order, old.order, "{}: order diverged", label);
    assert_eq!(
        new.objective.to_bits(),
        old.objective.to_bits(),
        "{}: objective not bit-identical ({} vs {})",
        label,
        new.objective,
        old.objective
    );
}

/// The fault-run counterpart of [`assert_slot_schedules_identical`]: also
/// requires equal epoch accounting and blocked-unit forensics.
fn assert_faulty_identical(label: &str, new: &FaultyOutcome, old: &FaultyOutcome) {
    assert_eq!(
        slot_schedule(&new.executed),
        slot_schedule(&old.executed),
        "{}: executed slot schedule diverged",
        label
    );
    assert_eq!(new.completions, old.completions, "{}: completions", label);
    assert_eq!(new.objective.to_bits(), old.objective.to_bits(), "{}: objective bits", label);
    assert_eq!(new.replans, old.replans, "{}: replans", label);
    assert_eq!(new.tiers, old.tiers, "{}: tiers", label);
    assert_eq!(new.blocked_units, old.blocked_units, "{}: blocked units", label);
    assert_eq!(new.blocked, old.blocked, "{}: blocked log", label);
}

/// One greedy-family policy, event-driven and frozen per-slot, over the
/// same priority source.
fn greedy_family(instance: &Instance, which: usize) -> (&'static str, Box<dyn Policy>, Box<dyn Policy>) {
    let fixed = |rule| compute_order(instance, rule);
    match which {
        0 => (
            "online",
            Box::new(OnlineRhoPolicy::new(instance, OnlineOptions::default())),
            Box::new(per_slot::SlotOnline::new(instance, OnlineOptions::default())),
        ),
        1 => (
            "online-stale",
            Box::new(OnlineRhoPolicy::new(instance, OnlineOptions::legacy())),
            Box::new(per_slot::SlotOnline::new(instance, OnlineOptions::legacy())),
        ),
        2 => (
            "greedy",
            Box::new(GreedyPolicy::new(instance, fixed(OrderRule::LoadOverWeight))),
            Box::new(per_slot::SlotGreedy::new(instance, fixed(OrderRule::LoadOverWeight))),
        ),
        3 => (
            "shafiee-ghaderi",
            Box::new(ShafieeGhaderiPolicy::new(instance)),
            Box::new(per_slot::SlotGreedy::new(instance, fixed(OrderRule::PortPrimalDual))),
        ),
        _ => {
            let order = fixed(OrderRule::LpBased);
            (
                "im-purohit",
                Box::new(ImPurohitPolicy::with_order(instance, order.clone())),
                Box::new(per_slot::SlotGreedy::new(instance, order)),
            )
        }
    }
}

const GREEDY_FAMILY: usize = 5;

/// Runs every greedy-family policy event-driven and per-slot on `instance`
/// (clean, and under `plan` when given) and requires identical schedules.
fn check_greedy_family(label: &str, instance: &Instance, plan: Option<&FaultPlan>) {
    for which in 0..GREEDY_FAMILY {
        let (name, mut new, mut old) = greedy_family(instance, which);
        let label = format!("{} {}", label, name);
        match plan {
            None => {
                let new = run_policy(instance, new.as_mut()).expect("event-driven run");
                let old = run_policy(instance, old.as_mut()).expect("per-slot run");
                assert_slot_schedules_identical(&label, &new, &old);
            }
            Some(plan) => {
                let new = run_policy_with_faults(instance, new.as_mut(), plan)
                    .expect("event-driven fault run");
                let old = run_policy_with_faults(instance, old.as_mut(), plan)
                    .expect("per-slot fault run");
                assert_faulty_identical(&label, &new, &old);
            }
        }
    }
}

/// A cancellation effective in slot `now + 1` must end the hold there:
/// the per-slot online policy re-sorts at that slot. Coflow 0 (ratio 1)
/// holds pair (0,0) ahead of U (ratio 2) while S drains (1,1); 0 is
/// cancelled at slot 5, after which S's remaining ratio (1) beats U's. A
/// hold that ran through slot 5 would idle (0,0) in slot 6 instead of
/// serving S there.
#[test]
fn cancellation_in_the_next_slot_ends_the_hold() {
    let x = Coflow::new(0, IntMatrix::from_nested(&[[8, 0], [0, 0]])).with_weight(8.0);
    let u = Coflow::new(1, IntMatrix::from_nested(&[[3, 0], [0, 0]])).with_weight(1.5);
    let s = Coflow::new(2, IntMatrix::from_nested(&[[1, 0], [0, 6]]));
    let inst = Instance::new(2, vec![x, u, s]);
    let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 0, at: 5 }]);
    check_greedy_family("cancel@5", &inst, Some(&plan));
    let mut online = OnlineRhoPolicy::new(&inst, OnlineOptions::default());
    let out = run_policy_with_faults(&inst, &mut online, &plan).unwrap();
    assert_eq!(out.completions, vec![None, Some(9), Some(6)]);
}

/// Seeded grid: every greedy-family policy, event-driven, matches its
/// frozen per-slot loop clean and under generated fault plans.
#[test]
fn greedy_family_matches_per_slot_loops() {
    for (seed, m, n, max_release) in
        [(51u64, 2, 5, 0), (52, 3, 8, 12), (53, 4, 10, 25), (54, 5, 14, 8)]
    {
        let inst = seeded_instance(m, n, max_release, seed);
        check_greedy_family(&format!("seed {}", seed), &inst, None);
        for rate in [0.2, 0.5] {
            let plan = FaultPlan::generate(m, n, 60, rate, seed.wrapping_mul(17));
            check_greedy_family(&format!("seed {} rate {}", seed, rate), &inst, Some(&plan));
        }
    }
}

/// Tentpole gate: `BvnBatchPolicy` through the engine reproduces the frozen
/// batch executor on every ordering rule × grouping × exec-option cell of a
/// seeded grid — including the rematch and maxmin extensions that take the
/// chunked code paths.
#[test]
fn bvn_policy_matches_frozen_batch_loop() {
    for (seed, m, n, max_release) in
        [(11u64, 2, 4, 0), (12, 3, 6, 6), (13, 4, 8, 10), (14, 5, 12, 4)]
    {
        let inst = seeded_instance(m, n, max_release, seed);
        for rule in [OrderRule::Arrival, OrderRule::LoadOverWeight] {
            let order = compute_order(&inst, rule);
            for grouping in [false, true] {
                for (backfill, rematch, maxmin) in [
                    (false, false, false),
                    (true, false, false),
                    (false, false, true),
                    (true, true, false),
                    (false, true, true),
                ] {
                    let opts = ExecOptions {
                        backfill,
                        rematch,
                        maxmin_decomposition: maxmin,
                    };
                    let new = run_with_order_opts(&inst, order.clone(), grouping, opts);
                    let batches: Vec<Vec<usize>> = if grouping {
                        coflow::group_by_doubling(&inst, &order).groups
                    } else {
                        order.iter().map(|&k| vec![k]).collect()
                    };
                    let old = legacy::execute_batches(&inst, order.clone(), &batches, opts);
                    let label = format!(
                        "seed {} {:?} g={} bf={} rm={} mm={}",
                        seed, rule, grouping, backfill, rematch, maxmin
                    );
                    assert_outcomes_identical(&label, &new, &old);
                }
            }
        }
    }
}

/// `OnlineRhoPolicy` in legacy mode (arrival-only re-sort) reproduces the
/// frozen online loop exactly, including arrival-heavy traces.
#[test]
fn online_policy_matches_frozen_loop_in_legacy_mode() {
    for (seed, m, n, max_release) in [
        (21u64, 2, 5, 0),
        (22, 3, 8, 12),
        (23, 4, 10, 25),
        (24, 5, 14, 8),
        (25, 3, 1, 40),
    ] {
        let inst = seeded_instance(m, n, max_release, seed);
        let mut online = OnlineRhoPolicy::new(&inst, OnlineOptions::legacy());
        let new = run_policy(&inst, &mut online).expect("online run");
        let old = legacy::online_loop(&inst);
        assert_slot_schedules_identical(&format!("online seed {}", seed), &new, &old);
    }
}

/// `GreedyPolicy` reproduces the frozen greedy loop exactly.
#[test]
fn greedy_policy_matches_frozen_loop() {
    for (seed, m, n, max_release) in
        [(31u64, 2, 5, 0), (32, 3, 8, 12), (33, 4, 10, 25), (34, 5, 14, 8)]
    {
        let inst = seeded_instance(m, n, max_release, seed);
        for rule in [OrderRule::Arrival, OrderRule::LoadOverWeight] {
            let order = compute_order(&inst, rule);
            let mut greedy = GreedyPolicy::new(&inst, order.clone());
            let new = run_policy(&inst, &mut greedy).expect("greedy run");
            let old = legacy::greedy_loop(&inst, order);
            assert_slot_schedules_identical(&format!("greedy seed {} {:?}", seed, rule), &new, &old);
        }
    }
}

/// The spec of the registry's `resilient` entry: Algorithm 2's H_LP order
/// and doubling groups, plus backfilling.
const REGISTRY_SPEC: AlgorithmSpec = AlgorithmSpec {
    order: OrderRule::LpBased,
    grouping: true,
    backfill: true,
};

/// Drives `policy` under `plan` one epoch at a time. Every epoch of the
/// recovery policy must advance the clock — an epoch that plans nothing
/// it can execute would otherwise repeat forever — so a stalled epoch
/// fails the test instead of hanging it.
fn run_stepwise(
    label: &str,
    inst: &Instance,
    policy: &mut dyn Policy,
    plan: &FaultPlan,
) -> FaultyOutcome {
    let mut engine = Engine::new(inst, plan);
    loop {
        let before = engine.now();
        if !engine.step(policy).expect("engine step") {
            break;
        }
        assert!(engine.now() > before, "{}: the epoch at slot {} made no progress", label, before);
    }
    engine.into_outcome(policy)
}

/// The horizon-bounded `ResilientPolicy` against the frozen full-plan
/// recovery loop: every observable must be byte-identical — executed runs
/// (not just the slot expansion), completions, objective bits, replans,
/// tiers, blocked units and the blocked log. Returns the engine's outcome
/// for further checks.
fn check_resilient(
    label: &str,
    inst: &Instance,
    spec: &AlgorithmSpec,
    lp_opts: &SimplexOptions,
    plan: &FaultPlan,
) -> FaultyOutcome {
    let mut policy = ResilientPolicy::new(*spec, lp_opts.clone());
    let new = run_stepwise(label, inst, &mut policy, plan);
    let old = legacy::fault_loop(inst, spec, lp_opts, plan).expect("legacy run");
    assert_eq!(new.executed, old.executed, "{}: trace diverged", label);
    assert_faulty_identical(label, &new, &old);
    new
}

/// `ResilientPolicy` through the fault-aware engine reproduces the frozen
/// recovery epoch loop on every observable, for the H_ρ chain and for the
/// registry spec (H_LP, grouping, backfill).
#[test]
fn resilient_policy_matches_frozen_recovery_loop() {
    let h_rho = AlgorithmSpec {
        order: OrderRule::LoadOverWeight,
        grouping: true,
        backfill: true,
    };
    let lp_opts = SimplexOptions::default();
    for (seed, m, n, max_release) in
        [(41u64, 2, 4, 0), (42, 3, 6, 6), (43, 4, 8, 10), (44, 6, 12, 30)]
    {
        let inst = seeded_instance(m, n, max_release, seed);
        for rate in [0.0, 0.3, 0.6] {
            let plan = FaultPlan::generate(m, n, 40, rate, seed.wrapping_mul(31));
            for (name, spec) in [("H_rho", h_rho), ("registry", REGISTRY_SPEC)] {
                let label = format!("faults seed {} rate {} {}", seed, rate, name);
                check_resilient(&label, &inst, &spec, &lp_opts, &plan);
            }
        }
    }
}

/// The registry's `resilient` entry is the spec the differential covers.
#[test]
fn registry_resilient_entry_matches_the_frozen_loop() {
    let inst = seeded_instance(4, 8, 10, 45);
    let plan = FaultPlan::generate(4, 8, 40, 0.4, 45);
    let entry = PolicyRegistry::builtin().resolve("resilient").expect("registry entry");
    let mut policy = entry.build(&inst);
    let new = run_stepwise("registry", &inst, policy.as_mut(), &plan);
    let old = legacy::fault_loop(&inst, &REGISTRY_SPEC, &SimplexOptions::default(), &plan)
        .expect("legacy run");
    assert_eq!(new.executed, old.executed, "registry: trace diverged");
    assert_faulty_identical("registry", &new, &old);
}

/// A starved solver (`max_iterations: 0`) fails H_LP at every epoch, so
/// each replan runs the tier-1 (H_ρ) leg of the chain; the bounded plan
/// must still match the frozen loop.
#[test]
fn starved_chain_matches_frozen_recovery_loop() {
    let starved = SimplexOptions {
        max_iterations: 0,
        ..SimplexOptions::default()
    };
    for (seed, m, n, max_release) in [(46u64, 3, 6, 6), (47, 5, 10, 20)] {
        let inst = seeded_instance(m, n, max_release, seed);
        let plan = FaultPlan::generate(m, n, 40, 0.5, seed);
        let out = check_resilient(
            &format!("starved seed {}", seed),
            &inst,
            &REGISTRY_SPEC,
            &starved,
            &plan,
        );
        assert!(out.replans >= 2, "seed {}: the plan should force replans", seed);
        assert!(out.tiers.iter().all(|&t| t == 1), "seed {}: tiers {:?}", seed, out.tiers);
    }
}

/// The benchmark's fault workload shape: a 32-port synthetic trace with
/// Poisson arrivals under a rate-0.2 fault plan over its busy horizon.
#[test]
fn resilient_matches_frozen_loop_on_a_32_port_trace() {
    for seed in [1u64, 2] {
        let trace = generate_trace(&TraceConfig {
            seed,
            ports: 32,
            num_coflows: 32,
            max_flow_size: 128,
            zero_release: false,
            mean_interarrival: 40.0,
            ..TraceConfig::default()
        });
        let inst = assign_weights(&trace, WeightScheme::RandomPermutation { seed });
        let last_release = inst.coflows().iter().map(|c| c.release).max().unwrap_or(0);
        let busiest = inst
            .ingress_loads()
            .into_iter()
            .chain(inst.egress_loads())
            .max()
            .unwrap_or(1);
        let plan = FaultPlan::generate(32, inst.len(), last_release + busiest, 0.2, seed);
        let out = check_resilient(
            &format!("32-port seed {}", seed),
            &inst,
            &REGISTRY_SPEC,
            &SimplexOptions::default(),
            &plan,
        );
        assert!(out.replans > 1, "seed {}: the plan should force replans", seed);
    }
}

/// The runs of `trace` that start before `horizon`.
fn runs_before(trace: &ScheduleTrace, horizon: u64) -> Vec<Run> {
    trace.runs.iter().filter(|r| r.start < horizon).cloned().collect()
}

/// Prefix property: a plan bounded at `h` holds exactly the full plan's
/// runs that start before `h` — for the batch pipeline in every grouping ×
/// backfill cell and for the resilient chain (healthy and starved), at
/// horizons before, inside and past the schedule.
#[test]
fn horizon_bounded_plan_is_the_prefix_of_the_full_plan() {
    let starved = SimplexOptions {
        max_iterations: 0,
        ..SimplexOptions::default()
    };
    for (seed, m, n, max_release) in [(61u64, 2, 4, 0), (62, 3, 7, 9), (63, 5, 10, 20)] {
        let inst = seeded_instance(m, n, max_release, seed);
        let order = compute_order(&inst, OrderRule::LoadOverWeight);
        for grouping in [false, true] {
            for backfill in [false, true] {
                let full = run_with_order(&inst, order.clone(), grouping, backfill).trace;
                let end = full.makespan() + 2;
                for h in (0..=end).step_by(((end / 9) as usize).max(1)).chain([end]) {
                    let bounded =
                        plan_with_order(&inst, order.clone(), grouping, backfill, Some(h));
                    assert_eq!(
                        bounded.runs,
                        runs_before(&full, h),
                        "seed {} g={} bf={} h={}",
                        seed,
                        grouping,
                        backfill,
                        h
                    );
                }
                let unbounded = plan_with_order(&inst, order.clone(), grouping, backfill, None);
                assert_eq!(unbounded, full, "seed {}: unbounded plan is the full plan", seed);
            }
        }
        for lp_opts in [SimplexOptions::default(), starved.clone()] {
            let full = run_resilient(&inst, &REGISTRY_SPEC, &lp_opts);
            let end = full.outcome.trace.makespan() + 1;
            for h in [1, 2, end / 3, end / 2, end] {
                let bounded = plan_resilient(&inst, &REGISTRY_SPEC, &lp_opts, Some(h));
                assert_eq!(bounded.tier, full.tier, "seed {} h={}: tier", seed, h);
                assert_eq!(
                    bounded.outcome.runs,
                    runs_before(&full.outcome.trace, h),
                    "seed {} h={}: resilient prefix",
                    seed,
                    h
                );
            }
        }
    }
}

/// Off-by-one guard: with a boundary at `now + 1` (an outage opening in
/// slot 1 while `now = 0`), the `Execute` stop — and so the planning
/// horizon — is the *following* boundary. Planning only to
/// `EpochState::next_boundary` (slot 1) would plan nothing and idle the
/// unaffected ports through slots 1..4.
#[test]
fn boundary_in_the_next_slot_plans_through_the_following_one() {
    let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 0, 0], [0, 2, 0], [0, 0, 4]]));
    let c1 = Coflow::new(1, IntMatrix::from_nested(&[[0, 2, 0], [0, 0, 3], [1, 0, 0]]))
        .with_weight(2.0);
    let inst = Instance::new(3, vec![c0, c1]);
    let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 0, start: 1, end: 4 }]);
    assert_eq!(plan.boundaries(), vec![1, 5]);
    for spec in [REGISTRY_SPEC, AlgorithmSpec { order: OrderRule::Arrival, ..REGISTRY_SPEC }] {
        let out = check_resilient("outage@1", &inst, &spec, &SimplexOptions::default(), &plan);
        assert!(
            out.executed.runs.first().is_some_and(|r| r.start == 1),
            "{:?}: ports 1 and 2 must be served from slot 1",
            spec.order
        );
    }
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..4, 1usize..5).prop_flat_map(|(m, n)| {
        let coflows = proptest::collection::vec(
            (
                proptest::collection::vec(0u64..5, m * m),
                0u64..6,
                1u64..4,
            ),
            n,
        );
        coflows.prop_map(move |specs| {
            let coflows = specs
                .into_iter()
                .enumerate()
                .map(|(id, (data, release, weight))| {
                    Coflow::new(id, IntMatrix::from_rows(m, data))
                        .with_release(release)
                        .with_weight(weight as f64)
                })
                .collect();
            Instance::new(m, coflows)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Event-driven greedy-family service is slot-for-slot the per-slot
    /// loop it replaced, on generated instances with releases, clean and
    /// under generated fault plans (outages, degraded links, cancellations).
    #[test]
    fn greedy_family_matches_per_slot_under_generated_plans(
        inst in instance_strategy(),
        rate in 0.0f64..0.7,
        horizon in 4u64..48,
        seed in 0u64..1u64 << 32,
    ) {
        check_greedy_family("clean", &inst, None);
        let plan = FaultPlan::generate(inst.ports(), inst.len(), horizon, rate, seed);
        check_greedy_family(&format!("plan seed {}", seed), &inst, Some(&plan));
    }

    /// Horizon-bounded resilient replanning is the frozen full-plan loop,
    /// byte for byte, on generated instances and fault plans.
    #[test]
    fn resilient_matches_frozen_loop_under_generated_plans(
        inst in instance_strategy(),
        rate in 0.0f64..0.7,
        horizon in 4u64..48,
        seed in 0u64..1u64 << 32,
    ) {
        let plan = FaultPlan::generate(inst.ports(), inst.len(), horizon, rate, seed);
        check_resilient(
            &format!("plan seed {}", seed),
            &inst,
            &REGISTRY_SPEC,
            &SimplexOptions::default(),
            &plan,
        );
    }

    /// The newly composable cells: online-under-faults and
    /// greedy-under-faults settle every non-cancelled unit of demand under
    /// arbitrary generated fault plans, and their executed traces replay
    /// cleanly against the plan (matching constraints, link availability,
    /// release dates, exact delivery).
    #[test]
    fn online_and_greedy_under_faults_complete_surviving_demand(
        inst in instance_strategy(),
        rate in 0.0f64..0.7,
        horizon in 4u64..48,
        seed in 0u64..1u64 << 32,
    ) {
        let plan = FaultPlan::generate(inst.ports(), inst.len(), horizon, rate, seed);
        // Exercise both resort modes, deterministically split by seed.
        let opts = if seed % 2 == 0 { OnlineOptions::default() } else { OnlineOptions::legacy() };
        let online =
            run_policy_with_faults(&inst, &mut OnlineRhoPolicy::new(&inst, opts), &plan);
        prop_assert!(online.is_ok(), "online structural error: {:?}", online.err());
        let online = online.unwrap();
        let verdict = verify_faulty_outcome(&inst, &plan, &online);
        prop_assert!(verdict.is_ok(), "online: {}", verdict.err().unwrap_or_default());

        let order = compute_order(&inst, OrderRule::LoadOverWeight);
        let greedy = run_policy_with_faults(&inst, &mut GreedyPolicy::new(&inst, order), &plan);
        prop_assert!(greedy.is_ok(), "greedy structural error: {:?}", greedy.err());
        let greedy = greedy.unwrap();
        let verdict = verify_faulty_outcome(&inst, &plan, &greedy);
        prop_assert!(verdict.is_ok(), "greedy: {}", verdict.err().unwrap_or_default());

        let any_survivor = (0..inst.len()).any(|k| {
            plan.cancellation(k).is_none() && inst.coflow(k).demand.total() > 0
        });
        for out in [&online, &greedy] {
            for (k, completion) in out.completions.iter().enumerate() {
                let cancelled = plan.cancellation(k).is_some();
                if !cancelled && inst.coflow(k).demand.total() > 0 {
                    prop_assert!(completion.is_some(), "surviving coflow {} never completed", k);
                }
            }
            // Epoch accounting is uniform across policies: whenever any
            // demand was actually served, at least one planning epoch is
            // charged, and tiers line up one-to-one with epochs.
            if any_survivor {
                prop_assert!(out.replans >= 1);
            }
            prop_assert_eq!(out.tiers.len(), out.replans);
        }
    }
}
