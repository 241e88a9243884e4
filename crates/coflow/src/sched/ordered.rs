//! The greedy family: four policies, one event-driven dispatcher.
//!
//! Four registry policies serve a priority order greedily: scan released,
//! unfinished coflows in order and claim every free (ingress, egress) pair
//! with remaining demand. Only the order source differs:
//!
//! * [`OnlineRhoPolicy`] — the online analogue of `H_ρ`: released coflows
//!   ranked by `ρ(remaining) / weight`, re-sorted on every arrival (and, by
//!   default, every completion); never looks at an unreleased coflow.
//! * [`GreedyPolicy`] — a caller-supplied permutation (the Varys-style
//!   baseline: no augmentation waste, no worst-case guarantee).
//! * [`ShafieeGhaderiPolicy`] — the LP-free primal-dual permutation of
//!   Shafiee & Ghaderi (arXiv:1704.08357, 5-approx; `H_pd`).
//! * [`ImPurohitPolicy`] — the interval-LP fractional-completion-time
//!   order of Im & Purohit (arXiv:1707.04331, 4-approx; `H_LP`).
//!
//! All four run on one `OrderedDispatch`, which decides once per *event*:
//! a greedy matching only changes when a served entry drains, a coflow is
//! released, or the fault state changes, so each [`Decision::Run`] holds
//! for `min(remaining units on every served pair, next release − now,
//! fault cap)` slots. The fault cap ends the hold before the next
//! [`EpochState::next_boundary`] `b`; a decision taken at `b − 1` holds
//! for slot `b` alone, because a cancellation effective in slot `b` is
//! first visible to the decision after it. Scans are sparse: each coflow's
//! flow list holds the nonzero `(i, j)` of its demand in row-major order
//! (a dense residual scan's order), and entries with no live remaining
//! demand are skipped, so a scan costs `O(nnz)`, not `O(m²)`.
//!
//! The slot-expanded schedule equals re-matching every slot (tested against
//! frozen per-slot loops, clean and under faults, in
//! `tests/engine_differential.rs`). Remaining demand is reread live from
//! [`EpochState`], so the policies replan under faults with
//! [`run_policy_with_faults`](crate::sched::engine::run_policy_with_faults);
//! planning state is the permutation (online:
//! the admission cursor and active set), captured in [`PolicyState`] for
//! checkpoints. The 5 and 4 bounds (vs the interval-LP lower bound) are
//! asserted empirically by the bench crate's tournament tests.

use crate::error::SchedError;
use crate::instance::Instance;
use crate::ordering::{compute_order, OrderRule};
use crate::sched::engine::{Decision, EpochState, Policy};
use crate::sched::snapshot::PolicyState;

/// Behavior knobs of [`OnlineRhoPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnlineOptions {
    /// Re-sort the ρ(remaining)/w priority order at completion epochs too,
    /// not just on arrivals. The legacy scheduler re-sorted only when a
    /// coflow arrived, so between arrivals it kept serving an order
    /// computed against *stale* remaining loads even though every slot
    /// drains them; completions are exactly the moments the head of the
    /// order changes. `true` (the default) fixes that;
    /// [`OnlineOptions::legacy`] keeps the old behavior bit-for-bit for
    /// comparisons (the objective delta is tabulated in EXPERIMENTS.md).
    pub resort_on_completion: bool,
}

impl Default for OnlineOptions {
    fn default() -> Self {
        OnlineOptions {
            resort_on_completion: true,
        }
    }
}

impl OnlineOptions {
    /// The legacy arrival-only re-sort behavior (stale priorities between
    /// arrivals).
    pub fn legacy() -> Self {
        OnlineOptions {
            resort_on_completion: false,
        }
    }
}

/// Where a dispatcher's priority order comes from.
enum Priority {
    /// A committed permutation; `rank[k]` is coflow `k`'s position in it.
    Fixed { order: Vec<usize>, rank: Vec<usize> },
    /// `ρ(remaining) / weight`, re-sorted on arrival (and on completion
    /// when the options ask for it).
    Online {
        opts: OnlineOptions,
        weights: Vec<f64>,
    },
}

/// The shared event-driven dispatcher behind the four greedy-family
/// policies (module docs for the hold and the sparse scan).
struct OrderedDispatch {
    priority: Priority,
    /// Release events `(release, coflow)` in time order. Events before the
    /// cursor have been admitted, or skipped because nothing remained.
    events: Vec<(u64, usize)>,
    next_event: usize,
    /// Released coflows with remaining demand, in priority order.
    active: Vec<usize>,
    /// Flow lists: coflow `k`'s nonzero demand pairs, row-major, are
    /// `flows[flow_start[k]..flow_start[k + 1]]`.
    flow_start: Vec<usize>,
    flows: Vec<(usize, usize)>,
    /// Scratch: matcher port masks, per-port sums for ρ (kept zeroed), and
    /// the re-sort keys.
    src_used: Vec<bool>,
    dst_used: Vec<bool>,
    row_load: Vec<u64>,
    col_load: Vec<u64>,
    keys: Vec<(f64, usize)>,
    /// Run buffers handed back through [`Policy::recycle`].
    pairs_pool: Vec<(usize, usize, Vec<usize>)>,
    spare: Vec<Vec<usize>>,
}

impl OrderedDispatch {
    fn new(instance: &Instance, priority: Priority) -> Self {
        let m = instance.ports();
        let mut events: Vec<(u64, usize)> = instance.releases().into_iter().zip(0..).collect();
        events.sort_unstable();
        let mut flow_start = vec![0];
        let mut flows = Vec::new();
        for c in instance.coflows() {
            flows.extend(c.demand.nonzero_entries().map(|(i, j, _)| (i, j)));
            flow_start.push(flows.len());
        }
        OrderedDispatch {
            priority,
            events,
            next_event: 0,
            active: Vec::new(),
            flow_start,
            flows,
            src_used: vec![false; m],
            dst_used: vec![false; m],
            row_load: vec![0; m],
            col_load: vec![0; m],
            keys: Vec::new(),
            pairs_pool: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn fixed(instance: &Instance, order: Vec<usize>) -> Self {
        let mut rank = vec![usize::MAX; instance.len()];
        for (p, &k) in order.iter().enumerate() {
            rank[k] = p;
        }
        Self::new(instance, Priority::Fixed { order, rank })
    }

    /// The order reported on the outcome: the committed permutation, or
    /// the completion order for the reactive online policy.
    fn final_order(&self, completions: &[u64]) -> Vec<usize> {
        match &self.priority {
            Priority::Fixed { order, .. } => order.clone(),
            Priority::Online { .. } => {
                let mut order: Vec<usize> = (0..completions.len()).collect();
                order.sort_by_key(|&k| (completions[k], k));
                order
            }
        }
    }

    /// The committed permutation of a fixed-order dispatcher.
    fn order(&self) -> Vec<usize> {
        self.final_order(&[])
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Decision {
        let now = state.now;
        // Coflows drained (or cancelled) since the previous decision leave
        // the active set; arrivals with release <= now (servable from slot
        // now+1 on) join it.
        let before = self.active.len();
        self.active.retain(|&k| state.remaining_total(k) > 0);
        let completed = self.active.len() != before;
        let mut admitted = false;
        while let Some(&(r, k)) = self.events.get(self.next_event) {
            if r > now {
                break;
            }
            self.next_event += 1;
            if state.remaining_total(k) > 0 {
                self.active.push(k);
                admitted = true;
            }
        }
        match &self.priority {
            Priority::Fixed { rank, .. } if admitted => {
                self.active.sort_unstable_by_key(|&k| rank[k]);
            }
            Priority::Online { opts, weights }
                if admitted || (opts.resort_on_completion && completed) =>
            {
                // One ρ/w key per coflow per re-sort; ties break by index.
                self.keys.clear();
                for &k in &self.active {
                    let flows = &self.flows[self.flow_start[k]..self.flow_start[k + 1]];
                    let rho =
                        residual_load(state, k, flows, &mut self.row_load, &mut self.col_load);
                    self.keys.push((rho as f64 / weights[k], k));
                }
                self.keys
                    .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                self.active.clear();
                self.active.extend(self.keys.iter().map(|&(_, k)| k));
            }
            _ => {}
        }
        let next_release = self.events[self.next_event..]
            .iter()
            .find(|&&(_, k)| state.remaining_total(k) > 0)
            .map(|&(r, _)| r);
        if self.active.is_empty() {
            // Idle until the next arrival; with none left, every coflow is
            // drained (complete or cancelled).
            return next_release.map_or(Decision::Finished, Decision::Advance);
        }
        // Hold until the next event: a served pair drains, a coflow is
        // released, or (under faults) the fault state changes.
        let mut hold = next_release.map_or(u64::MAX, |r| r - now);
        if let Some(b) = state.next_boundary() {
            hold = hold.min((b - now - 1).max(1));
        }
        self.src_used.fill(false);
        self.dst_used.fill(false);
        let mut pairs = std::mem::take(&mut self.pairs_pool);
        for &k in &self.active {
            if pairs.len() == self.src_used.len() {
                break; // every ingress is matched
            }
            for &(i, j) in &self.flows[self.flow_start[k]..self.flow_start[k + 1]] {
                let rem = state.remaining(k, i, j);
                if self.src_used[i] || self.dst_used[j] || rem == 0 {
                    continue;
                }
                self.src_used[i] = true;
                self.dst_used[j] = true;
                hold = hold.min(rem);
                let mut prio = self.spare.pop().unwrap_or_default();
                prio.push(k);
                pairs.push((i, j, prio));
            }
        }
        debug_assert!(!pairs.is_empty(), "released demand is servable");
        Decision::Run {
            pairs,
            duration: hold,
        }
    }

    fn recycle(&mut self, mut pairs: Vec<(usize, usize, Vec<usize>)>) {
        for (_, _, mut prio) in pairs.drain(..) {
            prio.clear();
            self.spare.push(prio);
        }
        self.pairs_pool = pairs;
    }
}

/// `ρ` of coflow `k`'s remaining demand (its largest port sum), in
/// `O(nnz)` over its flow list. `row`/`col` must be zero and are left zero.
fn residual_load(
    state: &EpochState<'_>,
    k: usize,
    flows: &[(usize, usize)],
    row: &mut [u64],
    col: &mut [u64],
) -> u64 {
    for &(i, j) in flows {
        let r = state.remaining(k, i, j);
        row[i] += r;
        col[j] += r;
    }
    let mut load = 0;
    for &(i, j) in flows {
        load = load.max(row[i]).max(col[j]);
        row[i] = 0;
        col[j] = 0;
    }
    load
}

/// Implements [`Policy`] for a greedy-family policy: everything goes to
/// its `core` dispatcher except the name and the snapshot variant, built
/// by `$state` from the policy bound as `$this`.
macro_rules! greedy_family_policy {
    ($policy:ty, $name:literal, |$this:ident| $state:expr) => {
        impl Policy for $policy {
            fn name(&self) -> &'static str {
                $name
            }

            fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
                Ok(self.core.decide(state))
            }

            fn final_order(&self, completions: &[u64]) -> Vec<usize> {
                self.core.final_order(completions)
            }

            fn recycle(&mut self, pairs: Vec<(usize, usize, Vec<usize>)>) {
                self.core.recycle(pairs);
            }

            fn capture_state(&self) -> Option<PolicyState> {
                let $this = self;
                Some($state)
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Online ρ/w (the online analogue of H_ρ) and the priority-greedy baseline.
// ---------------------------------------------------------------------------

/// The online scheduler: released, unfinished coflows ranked by the
/// Smith-style ratio `ρ(remaining) / weight`, served greedily in that
/// order. Replans from live state, so it is safe under fault injection.
pub struct OnlineRhoPolicy {
    core: OrderedDispatch,
}

impl OnlineRhoPolicy {
    /// Builds the policy over the instance's arrival events.
    pub fn new(instance: &Instance, opts: OnlineOptions) -> Self {
        let weights = instance.weights();
        let core = OrderedDispatch::new(instance, Priority::Online { opts, weights });
        OnlineRhoPolicy { core }
    }

    /// Rebuilds a checkpointed policy: the event list is recomputed from
    /// the instance (it is a pure function of the release dates); the
    /// admission cursor and the active set — in their current priority
    /// order, which a rebuild could not reproduce from drained loads — come
    /// from the snapshot.
    pub(crate) fn restore(
        instance: &Instance,
        opts: OnlineOptions,
        next_event: usize,
        active: Vec<usize>,
    ) -> Result<Self, coflow_netsim::SnapshotError> {
        let bad = coflow_netsim::SnapshotError::new;
        if next_event > instance.len() {
            return Err(bad("online-rho: admission cursor past the last event"));
        }
        if active.iter().any(|&k| k >= instance.len()) {
            return Err(bad("online-rho: active set references a missing coflow"));
        }
        let mut policy = OnlineRhoPolicy::new(instance, opts);
        policy.core.next_event = next_event;
        policy.core.active = active;
        Ok(policy)
    }
}

greedy_family_policy!(OnlineRhoPolicy, "online-rho", |p| {
    let Priority::Online { opts, .. } = &p.core.priority else {
        unreachable!("the online policy owns an online dispatcher")
    };
    PolicyState::OnlineRho {
        resort_on_completion: opts.resort_on_completion,
        next_event: p.core.next_event,
        active: p.core.active.clone(),
    }
});

/// The work-conserving greedy baseline (in the spirit of Varys): coflows
/// served greedily in a committed order.
pub struct GreedyPolicy {
    core: OrderedDispatch,
}

impl GreedyPolicy {
    /// Builds the policy with the given committed coflow order.
    pub fn new(instance: &Instance, order: Vec<usize>) -> Self {
        GreedyPolicy {
            core: OrderedDispatch::fixed(instance, order),
        }
    }
}

greedy_family_policy!(GreedyPolicy, "greedy", |p| PolicyState::Greedy {
    order: p.core.order()
});

// ---------------------------------------------------------------------------
// Shafiee–Ghaderi: LP-free primal-dual permutation (5-approx).
// ---------------------------------------------------------------------------

/// The Shafiee–Ghaderi combinatorial scheduler: `H_pd` primal-dual
/// permutation over port loads, served work-conservingly. No LP solve —
/// ordering is `O(n·m + n²)` over the port-load table.
pub struct ShafieeGhaderiPolicy {
    core: OrderedDispatch,
}

impl ShafieeGhaderiPolicy {
    /// Builds the policy, computing the primal-dual permutation.
    pub fn new(instance: &Instance) -> Self {
        Self::with_order(instance, compute_order(instance, OrderRule::PortPrimalDual))
    }

    /// Builds the policy around an externally supplied (e.g. checkpointed)
    /// permutation, skipping the primal-dual sweep.
    pub fn with_order(instance: &Instance, order: Vec<usize>) -> Self {
        ShafieeGhaderiPolicy {
            core: OrderedDispatch::fixed(instance, order),
        }
    }
}

greedy_family_policy!(ShafieeGhaderiPolicy, "shafiee-ghaderi", |p| {
    PolicyState::ShafieeGhaderi {
        order: p.core.order(),
    }
});

// ---------------------------------------------------------------------------
// Im–Purohit: LP-completion-time permutation (4-approx).
// ---------------------------------------------------------------------------

/// The Im–Purohit scheduler: coflows ordered by fractional completion
/// times of the interval-indexed LP relaxation, served work-conservingly
/// in that fixed priority order.
pub struct ImPurohitPolicy {
    core: OrderedDispatch,
}

impl ImPurohitPolicy {
    /// Builds the policy, solving the interval-indexed LP for the order.
    pub fn new(instance: &Instance) -> Self {
        Self::with_order(instance, compute_order(instance, OrderRule::LpBased))
    }

    /// Builds the policy around an externally supplied (e.g. checkpointed
    /// or pre-solved) permutation, skipping the LP solve.
    pub fn with_order(instance: &Instance, order: Vec<usize>) -> Self {
        ImPurohitPolicy {
            core: OrderedDispatch::fixed(instance, order),
        }
    }
}

greedy_family_policy!(ImPurohitPolicy, "im-purohit", |p| PolicyState::ImPurohit {
    order: p.core.order()
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::sched::engine::{run_policy, run_policy_with_faults};
    use crate::sched::recovery::{verify_faulty_outcome, FaultyOutcome};
    use crate::sched::ScheduleOutcome;
    use coflow_matching::IntMatrix;
    use coflow_netsim::{validate_trace, FaultPlan};

    fn clean(inst: &Instance, mut policy: impl Policy) -> ScheduleOutcome {
        run_policy(inst, &mut policy).unwrap()
    }

    fn faulty(inst: &Instance, mut policy: impl Policy, plan: &FaultPlan) -> FaultyOutcome {
        run_policy_with_faults(inst, &mut policy, plan).unwrap()
    }

    fn greedy(inst: &Instance, order: Vec<usize>) -> ScheduleOutcome {
        clean(inst, GreedyPolicy::new(inst, order))
    }

    fn online(inst: &Instance, opts: OnlineOptions) -> ScheduleOutcome {
        clean(inst, OnlineRhoPolicy::new(inst, opts))
    }

    fn validate(inst: &Instance, out: &ScheduleOutcome) {
        let times =
            validate_trace(&inst.demand_matrices(), &inst.releases(), &out.trace).unwrap();
        assert_eq!(times, out.completions);
        assert!((inst.objective(&times) - out.objective).abs() < 1e-9);
    }

    fn fig1_instance() -> Instance {
        Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]]))],
        )
    }

    fn dense_instance() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]])).with_release(3);
        Instance::new(2, vec![c0, c1, c2])
    }

    #[test]
    fn greedy_clears_fig1_in_three_slots() {
        let inst = fig1_instance();
        let out = greedy(&inst, vec![0]);
        assert_eq!(out.completions, vec![3]);
        validate(&inst, &out);
    }

    #[test]
    fn greedy_is_work_conserving_across_coflows() {
        // c0 on pair (0,0), c1 on pair (1,1): both served in slot 1.
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[0, 0], [0, 1]]));
        let inst = Instance::new(2, vec![c0, c1]);
        let out = greedy(&inst, vec![0, 1]);
        assert_eq!(out.completions, vec![1, 1]);
    }

    #[test]
    fn greedy_respects_releases_and_skips_idle_gaps() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_release(100);
        let inst = Instance::new(2, vec![c0, c1]);
        let out = greedy(&inst, vec![0, 1]);
        assert_eq!(out.completions, vec![1, 101]);
        validate(&inst, &out);
    }

    #[test]
    fn greedy_validates_on_dense_instance() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]])).with_weight(2.0);
        let inst = Instance::new(2, vec![c0, c1]);
        let order = compute_order(&inst, OrderRule::LoadOverWeight);
        validate(&inst, &greedy(&inst, order));
    }

    #[test]
    fn online_clears_a_single_coflow_optimally() {
        let inst = fig1_instance();
        let out = online(&inst, OnlineOptions::default());
        assert_eq!(out.completions, vec![3]);
        validate(&inst, &out);
    }

    #[test]
    fn online_prioritizes_heavy_small_coflows() {
        let big = Coflow::new(0, IntMatrix::from_nested(&[[6, 0], [0, 0]]));
        let small = Coflow::new(1, IntMatrix::from_nested(&[[2, 0], [0, 0]])).with_weight(10.0);
        let inst = Instance::new(2, vec![big, small]);
        let out = online(&inst, OnlineOptions::default());
        validate(&inst, &out);
        assert!(out.completions[1] < out.completions[0]);
        assert_eq!(out.completions[1], 2);
    }

    #[test]
    fn online_reacts_to_late_arrivals() {
        // A big coflow starts alone; a tiny urgent one arrives at t = 2 and
        // preempts it on the shared pair.
        let big = Coflow::new(0, IntMatrix::from_nested(&[[10, 0], [0, 0]]));
        let urgent = Coflow::new(1, IntMatrix::from_nested(&[[1, 0], [0, 0]]))
            .with_weight(100.0)
            .with_release(2);
        let inst = Instance::new(2, vec![big, urgent]);
        let out = online(&inst, OnlineOptions::default());
        validate(&inst, &out);
        assert_eq!(out.completions[1], 3, "urgent coflow served right after arrival");
        assert_eq!(out.completions[0], 11);
    }

    #[test]
    fn online_never_schedules_before_release() {
        let c = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]])).with_release(5);
        let inst = Instance::new(2, vec![c]);
        let out = online(&inst, OnlineOptions::default());
        validate(&inst, &out);
        assert_eq!(out.completions, vec![6]);
    }

    #[test]
    fn completion_resort_fixes_stale_priorities() {
        // X hogs pair (0,0) for 8 slots (ratio 1, always head). U (ratio 2)
        // wants only (0,0): fully blocked behind X. S (initial ratio 6)
        // drains its bottleneck (1,1) in slots 1-6, leaving one unit on
        // (0,0) and a *remaining* ratio of 1 — but the legacy scheduler
        // never re-ranks it because no coflow arrives. When X completes at
        // slot 8, legacy hands (0,0) to U (stale order U < S) while the
        // completion re-sort correctly hands it to S, whose remaining
        // ratio 1 now beats U's 2.
        let x = Coflow::new(0, IntMatrix::from_nested(&[[8, 0], [0, 0]])).with_weight(8.0);
        let u = Coflow::new(1, IntMatrix::from_nested(&[[3, 0], [0, 0]])).with_weight(1.5);
        let s = Coflow::new(2, IntMatrix::from_nested(&[[1, 0], [0, 6]]));
        let inst = Instance::new(2, vec![x, u, s]);
        let legacy = online(&inst, OnlineOptions::legacy());
        let fixed = online(&inst, OnlineOptions::default());
        validate(&inst, &legacy);
        validate(&inst, &fixed);
        // Legacy: U gets slots 9-11, S's last unit waits until 12.
        assert_eq!(legacy.completions, vec![8, 11, 12]);
        // Fixed: S's single remaining unit goes first (ratio 1 < 2), then U.
        assert_eq!(fixed.completions, vec![8, 12, 9]);
        assert!(
            fixed.objective < legacy.objective,
            "completion re-sort must win on this instance: {} vs {}",
            fixed.objective,
            legacy.objective
        );
    }

    #[test]
    fn shafiee_ghaderi_validates_and_is_work_conserving() {
        let inst = dense_instance();
        let out = clean(&inst, ShafieeGhaderiPolicy::new(&inst));
        validate(&inst, &out);
        // The committed order is the primal-dual permutation.
        assert_eq!(out.order, compute_order(&inst, OrderRule::PortPrimalDual));
    }

    #[test]
    fn im_purohit_validates_and_uses_the_lp_order() {
        let inst = dense_instance();
        let out = clean(&inst, ImPurohitPolicy::new(&inst));
        validate(&inst, &out);
        assert_eq!(out.order, compute_order(&inst, OrderRule::LpBased));
    }

    #[test]
    fn lone_coflow_completes_at_its_load_under_both() {
        // Lemma-4 analog: a lone coflow finishes in exactly rho slots.
        let inst = fig1_instance();
        let sg = clean(&inst, ShafieeGhaderiPolicy::new(&inst));
        assert_eq!(sg.completions, vec![3]);
        let ip = clean(&inst, ImPurohitPolicy::new(&inst));
        assert_eq!(ip.completions, vec![3]);
    }

    #[test]
    fn both_policies_survive_fault_injection() {
        let inst = dense_instance();
        let horizon = clean(&inst, ShafieeGhaderiPolicy::new(&inst)).makespan().max(8);
        let plan = FaultPlan::generate(inst.ports(), inst.len(), horizon, 0.4, 13);
        let sg = faulty(&inst, ShafieeGhaderiPolicy::new(&inst), &plan);
        verify_faulty_outcome(&inst, &plan, &sg).unwrap();
        let ip = faulty(&inst, ImPurohitPolicy::new(&inst), &plan);
        verify_faulty_outcome(&inst, &plan, &ip).unwrap();
    }

    #[test]
    fn checkpoint_state_round_trips_through_rebuild() {
        let inst = dense_instance();
        let policy = ShafieeGhaderiPolicy::new(&inst);
        let state = policy.capture_state().unwrap();
        let rebuilt = state.rebuild(&inst).unwrap();
        assert_eq!(rebuilt.name(), "shafiee-ghaderi");
        let policy = ImPurohitPolicy::new(&inst);
        let state = policy.capture_state().unwrap();
        let rebuilt = state.rebuild(&inst).unwrap();
        assert_eq!(rebuilt.name(), "im-purohit");
    }
}
