//! Deterministic fault injection for the switch fabric.
//!
//! A [`FaultPlan`] is a seedable, reproducible set of [`FaultEvent`]s —
//! port outages over slot windows, degraded links that serve only every
//! `stride`-th slot, and coflow cancellations; the empty plan is a clean
//! fabric. [`FaultSim`] is the fabric's one executor: it holds matchings
//! ([`FaultSim::apply_run`]) and replays planned [`ScheduleTrace`]s
//! ([`FaultSim::execute_trace`]) against the plan. Units whose port or
//! link is down are *stranded* (left in the remaining demand for a later
//! replan), cancelled coflows stop being served, and structural violations
//! of the problem's constraints — which indicate a scheduler bug, not a
//! fault — surface as [`SimError`].

use crate::trace::{Run, ScheduleTrace, Transfer};
use coflow_matching::IntMatrix;
use std::fmt;

/// A structural violation found while executing a schedule under faults.
///
/// These are *scheduler* bugs (or corrupted traces), distinct from the
/// injected faults, which are absorbed by stranding demand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// An ingress or egress port was matched twice within one slot.
    PortMatchedTwice {
        /// The offending slot.
        slot: u64,
        /// The reused port.
        port: usize,
        /// True for an ingress port, false for an egress port.
        ingress: bool,
    },
    /// A move references a coflow index outside the instance.
    UnknownCoflow {
        /// The offending index.
        coflow: usize,
    },
    /// A move references a port outside the fabric.
    PortOutOfRange {
        /// The offending port index.
        port: usize,
        /// Fabric size.
        ports: usize,
    },
    /// A coflow was served in a slot its release date forbids.
    ReleaseViolated {
        /// The offending slot.
        slot: u64,
        /// The coflow.
        coflow: usize,
        /// Its release date.
        release: u64,
    },
    /// A trace run starts at or before the simulator's current time.
    TimeReversed {
        /// The run's start slot.
        start: u64,
        /// The simulator clock it would rewind.
        now: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PortMatchedTwice { slot, port, ingress } => write!(
                f,
                "slot {}: {} port {} matched twice",
                slot,
                if *ingress { "ingress" } else { "egress" },
                port
            ),
            SimError::UnknownCoflow { coflow } => {
                write!(f, "move references unknown coflow {}", coflow)
            }
            SimError::PortOutOfRange { port, ports } => {
                write!(f, "port {} outside fabric of {} ports", port, ports)
            }
            SimError::ReleaseViolated { slot, coflow, release } => write!(
                f,
                "slot {}: coflow {} served before its release date {}",
                slot, coflow, release
            ),
            SimError::TimeReversed { start, now } => {
                write!(f, "run starts at slot {} but the clock is already at {}", start, now)
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One injected fault. Slot windows are inclusive on both ends and use the
/// paper's 1-indexed slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Ingress `port` sends nothing during `[start, end]`.
    IngressOutage {
        /// The downed ingress.
        port: usize,
        /// First affected slot.
        start: u64,
        /// Last affected slot.
        end: u64,
    },
    /// Egress `port` receives nothing during `[start, end]`.
    EgressOutage {
        /// The downed egress.
        port: usize,
        /// First affected slot.
        start: u64,
        /// Last affected slot.
        end: u64,
    },
    /// Link `(src, dst)` is degraded during `[start, end]`: it carries a
    /// unit only in slots where `(slot - start) % stride == 0`.
    LinkDegraded {
        /// Ingress of the degraded link.
        src: usize,
        /// Egress of the degraded link.
        dst: usize,
        /// First affected slot.
        start: u64,
        /// Last affected slot.
        end: u64,
        /// Serve-every-`stride` period (`≥ 2` to have any effect).
        stride: u64,
    },
    /// Coflow `coflow` is cancelled at slot `at`: from that slot on its
    /// remaining demand no longer needs (or is allowed) to be served. A
    /// coflow that already completed is unaffected.
    CoflowCancelled {
        /// The cancelled coflow.
        coflow: usize,
        /// First slot at which it is gone.
        at: u64,
    },
}

/// A deterministic, replayable set of fault events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected events, in no particular order.
    pub events: Vec<FaultEvent>,
}

/// Knobs for [`FaultPlan::adversarial`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdversarialConfig {
    /// Correlated ports to take down on *each* side (ingress and egress).
    pub ports: usize,
    /// Outage window length in slots.
    pub window: u64,
    /// First affected slot (1-indexed, like all fault windows).
    pub start: u64,
}

/// SplitMix64 — tiny deterministic generator so plans are seedable without
/// pulling an RNG dependency into the simulator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]` (inclusive); `lo ≤ hi`.
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

impl FaultPlan {
    /// A plan with the given events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Generates a reproducible plan for an `m`-port fabric with `n`
    /// coflows over `horizon` slots. Each ingress and each egress goes down
    /// with probability `rate` for a window of up to a quarter of the
    /// horizon; each port pair drawn for degradation trials is degraded
    /// with probability `rate`; each coflow is cancelled with probability
    /// `rate / 2`. The same `(m, n, horizon, rate, seed)` always yields the
    /// same plan.
    pub fn generate(m: usize, n: usize, horizon: u64, rate: f64, seed: u64) -> Self {
        let horizon = horizon.max(1);
        let max_len = (horizon / 4).max(1);
        let mut rng = SplitMix64(seed);
        let mut events = Vec::new();
        let window = |rng: &mut SplitMix64| {
            let start = rng.range_u64(1, horizon);
            let end = (start + rng.range_u64(1, max_len) - 1).min(horizon);
            (start, end)
        };
        for port in 0..m {
            if rng.next_f64() < rate {
                let (start, end) = window(&mut rng);
                events.push(FaultEvent::IngressOutage { port, start, end });
            }
            if rng.next_f64() < rate {
                let (start, end) = window(&mut rng);
                events.push(FaultEvent::EgressOutage { port, start, end });
            }
        }
        for _ in 0..m {
            if rng.next_f64() < rate {
                let src = rng.range_u64(0, m as u64 - 1) as usize;
                let dst = rng.range_u64(0, m as u64 - 1) as usize;
                let (start, end) = window(&mut rng);
                let stride = rng.range_u64(2, 4);
                events.push(FaultEvent::LinkDegraded { src, dst, start, end, stride });
            }
        }
        for coflow in 0..n {
            if rng.next_f64() < rate / 2.0 {
                let at = rng.range_u64(1, horizon);
                events.push(FaultEvent::CoflowCancelled { coflow, at });
            }
        }
        FaultPlan { events }
    }

    /// Generates an *adversarial* plan for the chaos harness: instead of
    /// seeded-random outages, it takes down exactly the ports the schedule
    /// can least afford to lose. The target is the heaviest coflow by
    /// weighted bottleneck load `w_k · ρ(D^{(k)})` (ties to the lowest id);
    /// the plan is a correlated outage of its `cfg.ports` busiest ingress
    /// and egress ports for the window `[cfg.start, cfg.start + cfg.window
    /// - 1]`, so the victim loses its whole bottleneck at once rather than
    /// one link at a time. Deterministic — no RNG; the worst-window search
    /// in the harness sweeps `cfg.start` over candidate boundaries.
    pub fn adversarial(demands: &[IntMatrix], weights: &[f64], cfg: &AdversarialConfig) -> Self {
        assert_eq!(demands.len(), weights.len());
        let Some(victim) = (0..demands.len()).max_by(|&a, &b| {
            let score = |k: usize| {
                let d = &demands[k];
                let rho = d
                    .row_sums()
                    .into_iter()
                    .chain(d.col_sums())
                    .max()
                    .unwrap_or(0);
                weights[k] * rho as f64
            };
            score(a).total_cmp(&score(b)).then(b.cmp(&a))
        }) else {
            return FaultPlan::default();
        };
        let end = cfg.start + cfg.window.max(1) - 1;
        let top_ports = |loads: Vec<u64>| -> Vec<usize> {
            let mut ranked: Vec<usize> = (0..loads.len()).filter(|&p| loads[p] > 0).collect();
            ranked.sort_by(|&a, &b| loads[b].cmp(&loads[a]).then(a.cmp(&b)));
            ranked.truncate(cfg.ports.max(1));
            ranked
        };
        let mut events = Vec::new();
        for port in top_ports(demands[victim].row_sums()) {
            events.push(FaultEvent::IngressOutage { port, start: cfg.start, end });
        }
        for port in top_ports(demands[victim].col_sums()) {
            events.push(FaultEvent::EgressOutage { port, start: cfg.start, end });
        }
        FaultPlan { events }
    }

    /// Slots at which the fault state changes (window starts, the slot
    /// after window ends, cancellation slots), sorted and deduplicated.
    /// Between two consecutive boundaries the fault state is constant, so
    /// these are the natural replanning epochs.
    pub fn boundaries(&self) -> Vec<u64> {
        let mut b: Vec<u64> = self
            .events
            .iter()
            .flat_map(|e| match *e {
                FaultEvent::IngressOutage { start, end, .. }
                | FaultEvent::EgressOutage { start, end, .. }
                | FaultEvent::LinkDegraded { start, end, .. } => vec![start, end + 1],
                FaultEvent::CoflowCancelled { at, .. } => vec![at],
            })
            .collect();
        b.sort_unstable();
        b.dedup();
        b
    }

    /// True when ingress `port` can send in `slot`.
    pub fn ingress_up(&self, port: usize, slot: u64) -> bool {
        !self.events.iter().any(|e| matches!(
            *e,
            FaultEvent::IngressOutage { port: p, start, end } if p == port && (start..=end).contains(&slot)
        ))
    }

    /// True when egress `port` can receive in `slot`.
    pub fn egress_up(&self, port: usize, slot: u64) -> bool {
        !self.events.iter().any(|e| matches!(
            *e,
            FaultEvent::EgressOutage { port: p, start, end } if p == port && (start..=end).contains(&slot)
        ))
    }

    /// True when link `(src, dst)` can carry a unit in `slot`: both ports
    /// up and every degradation window covering the slot permits it.
    pub fn pair_open(&self, src: usize, dst: usize, slot: u64) -> bool {
        if !self.ingress_up(src, slot) || !self.egress_up(dst, slot) {
            return false;
        }
        self.events.iter().all(|e| match *e {
            FaultEvent::LinkDegraded { src: s, dst: d, start, end, stride } => {
                s != src || d != dst || !(start..=end).contains(&slot) || (slot - start).is_multiple_of(stride.max(1))
            }
            _ => true,
        })
    }

    /// The cancellation slot of `coflow`, if the plan cancels it.
    pub fn cancellation(&self, coflow: usize) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::CoflowCancelled { coflow: k, at } if k == coflow => Some(at),
                _ => None,
            })
            .min()
    }
}

/// What happened in one executed slot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotOutcome {
    /// The slot number.
    pub slot: u64,
    /// Units actually delivered (one entry per unit move).
    pub delivered: Vec<(usize, usize, usize)>,
    /// Planned units stranded by an outage or degradation.
    pub blocked: Vec<(usize, usize, usize)>,
    /// Planned units dropped because their coflow was cancelled.
    pub dropped: Vec<(usize, usize, usize)>,
}

/// One planned unit denied by a fault: the forensic record behind the
/// flight recorder's `FaultBlocked` events and the starvation detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedSlot {
    /// The slot in which service was denied.
    pub slot: u64,
    /// Ingress of the blocked pair.
    pub src: usize,
    /// Egress of the blocked pair.
    pub dst: usize,
    /// The coflow whose planned unit was stranded.
    pub coflow: usize,
}

/// Cap on the retained blocked log; [`FaultSim::blocked_units`] keeps
/// counting past it, so aggregate accounting stays exact.
const MAX_BLOCKED_LOG: usize = 1 << 16;

/// Fault state of one port pair over one epoch window. Outages are
/// constant within a window by construction of [`FaultPlan::boundaries`];
/// degraded links keep their `(start, stride)` phase so only the stride
/// test remains per slot.
enum PairState {
    Open,
    Closed,
    Strided(Vec<(u64, u64)>),
}

impl PairState {
    /// Classifies link `(i, j)` for the fault window that contains `slot`.
    fn of(plan: &FaultPlan, i: usize, j: usize, slot: u64) -> PairState {
        if !plan.ingress_up(i, slot) || !plan.egress_up(j, slot) {
            return PairState::Closed;
        }
        let degs: Vec<(u64, u64)> = plan
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::LinkDegraded { src, dst, start, end, stride }
                    if src == i && dst == j && (start..=end).contains(&slot) =>
                {
                    Some((start, stride.max(1)))
                }
                _ => None,
            })
            .collect();
        if degs.is_empty() {
            PairState::Open
        } else {
            PairState::Strided(degs)
        }
    }

    /// True when the link carries a unit in `slot` of its window.
    fn open(&self, slot: u64) -> bool {
        match self {
            PairState::Open => true,
            PairState::Closed => false,
            PairState::Strided(degs) => degs
                .iter()
                .all(|&(start, stride)| (slot - start).is_multiple_of(stride)),
        }
    }
}

/// The fabric's executor: runs schedules on the `m × m` switch under a
/// [`FaultPlan`], where the empty plan is a clean fabric. Matchings held
/// for several slots ([`FaultSim::apply_run`]) and planned traces
/// ([`FaultSim::execute_trace`]) both leave units whose port or link is
/// down in the remaining demand for a later replan.
#[derive(Clone, Debug)]
pub struct FaultSim {
    m: usize,
    remaining: Vec<IntMatrix>,
    remaining_total: Vec<u64>,
    releases: Vec<u64>,
    completion: Vec<Option<u64>>,
    last_activity: Vec<u64>,
    cancelled: Vec<bool>,
    /// Coflows neither complete nor cancelled, kept in sync with
    /// `completion` and `cancelled` so [`FaultSim::all_settled`] is O(1).
    unsettled: usize,
    now: u64,
    plan: FaultPlan,
    /// `plan.boundaries()`, computed once: every replay splits runs at
    /// these epochs and the engine derives its stop slots from them.
    boundaries: Vec<u64>,
    /// The plan's cancellations as sorted `(slot, coflow)` pairs, and the
    /// cursor past those already applied, so a step between cancellations
    /// scans nothing.
    cancellations: Vec<(u64, usize)>,
    next_cancellation: usize,
    executed: ScheduleTrace,
    blocked_units: u64,
    blocked_log: Vec<BlockedSlot>,
    blocked_log_dropped: u64,
    /// Scratch port-occupancy masks reused across calls.
    src_used: Vec<bool>,
    dst_used: Vec<bool>,
}

impl FaultSim {
    /// Creates a simulator over the instance data; `demands` (all `m × m`)
    /// becomes the residual state without a copy. Coflows with no demand
    /// complete at their release date.
    pub fn new(m: usize, demands: Vec<IntMatrix>, releases: &[u64], plan: FaultPlan) -> Self {
        assert_eq!(demands.len(), releases.len());
        for d in &demands {
            assert_eq!(d.dim(), m, "demand matrix dimension mismatch");
        }
        let remaining_total: Vec<u64> = demands.iter().map(IntMatrix::total).collect();
        let completion = remaining_total
            .iter()
            .zip(releases)
            .map(|(&tot, &r)| if tot == 0 { Some(r) } else { None })
            .collect();
        let n = demands.len();
        FaultSim::assemble(crate::snapshot::FaultSimState {
            m,
            remaining: demands,
            remaining_total,
            releases: releases.to_vec(),
            completion,
            last_activity: vec![0; n],
            cancelled: vec![false; n],
            now: 0,
            plan,
            executed: ScheduleTrace::new(m),
            blocked_units: 0,
            blocked_log: Vec::new(),
            blocked_log_dropped: 0,
        })
    }

    /// Builds the simulator around consistent plain state, deriving the
    /// cached fields. The cancellation cursor restarts at zero: a
    /// cancellation already applied finds its coflow cancelled (or
    /// complete) and is skipped again.
    fn assemble(state: crate::snapshot::FaultSimState) -> FaultSim {
        let n = state.releases.len();
        let unsettled = state
            .completion
            .iter()
            .zip(&state.cancelled)
            .filter(|(c, &x)| c.is_none() && !x)
            .count();
        let mut cancellations: Vec<(u64, usize)> = state
            .plan
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::CoflowCancelled { coflow, at } if coflow < n => Some((at, coflow)),
                _ => None,
            })
            .collect();
        cancellations.sort_unstable();
        FaultSim {
            m: state.m,
            remaining: state.remaining,
            remaining_total: state.remaining_total,
            releases: state.releases,
            completion: state.completion,
            last_activity: state.last_activity,
            cancelled: state.cancelled,
            unsettled,
            now: state.now,
            boundaries: state.plan.boundaries(),
            plan: state.plan,
            cancellations,
            next_cancellation: 0,
            executed: state.executed,
            blocked_units: state.blocked_units,
            blocked_log: state.blocked_log,
            blocked_log_dropped: state.blocked_log_dropped,
            src_used: vec![false; state.m],
            dst_used: vec![false; state.m],
        }
    }

    /// Current time (end of the last processed slot).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The fault plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The plan's [`FaultPlan::boundaries`] (sorted, deduplicated), cached
    /// at construction.
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// Remaining demand of coflow `k` on pair `(i, j)`.
    pub fn remaining(&self, k: usize, i: usize, j: usize) -> u64 {
        self.remaining[k][(i, j)]
    }

    /// Remaining demand matrix of coflow `k`.
    pub fn remaining_matrix(&self, k: usize) -> &IntMatrix {
        &self.remaining[k]
    }

    /// Remaining total units of coflow `k`.
    pub fn remaining_total(&self, k: usize) -> u64 {
        self.remaining_total[k]
    }

    /// Completion slots (`None` while unfinished or cancelled).
    pub fn completion_times(&self) -> &[Option<u64>] {
        &self.completion
    }

    /// True when coflow `k` has been cancelled.
    pub fn is_cancelled(&self, k: usize) -> bool {
        self.cancelled[k]
    }

    /// Total planned units stranded by faults so far.
    pub fn blocked_units(&self) -> u64 {
        self.blocked_units
    }

    /// Per-unit forensic log of fault-denied service, in slot order
    /// (bounded; see [`FaultSim::blocked_log_dropped`]).
    pub fn blocked_log(&self) -> &[BlockedSlot] {
        &self.blocked_log
    }

    /// Blocked-log entries discarded past the retention cap.
    pub fn blocked_log_dropped(&self) -> u64 {
        self.blocked_log_dropped
    }

    /// True when every coflow is either complete or cancelled.
    pub fn all_settled(&self) -> bool {
        self.unsettled == 0
    }

    /// Advances the clock to `t ≥ now` without serving anything, applying
    /// any cancellations that take effect in the skipped slots.
    pub fn advance_to(&mut self, t: u64) {
        assert!(t >= self.now, "cannot move time backwards");
        self.now = t;
        self.apply_cancellations_at(self.now + 1);
    }

    /// Applies every cancellation effective at or before `slot` (a coflow
    /// cancelled `at` is gone from slot `at` on).
    fn apply_cancellations_at(&mut self, slot: u64) {
        while let Some(&(at, k)) = self.cancellations.get(self.next_cancellation) {
            if at > slot {
                break;
            }
            self.next_cancellation += 1;
            if !self.cancelled[k] && self.completion[k].is_none() {
                self.cancelled[k] = true;
                self.unsettled -= 1;
                self.remaining_total[k] = 0;
                self.remaining[k] = IntMatrix::zeros(self.m);
            }
        }
    }

    /// True when a cancellation effective at or before `slot` would still
    /// cancel a live coflow. Cancellations that would be no-ops (the coflow
    /// already completed or was cancelled) are skipped on the way, so the
    /// answer depends only on the simulator's state, not on whether it was
    /// restored from a snapshot.
    fn cancellation_due(&mut self, slot: u64) -> bool {
        while let Some(&(at, k)) = self.cancellations.get(self.next_cancellation) {
            if at > slot {
                return false;
            }
            if !self.cancelled[k] && self.completion[k].is_none() {
                return true;
            }
            self.next_cancellation += 1;
        }
        false
    }

    /// Moves `units` of coflow `k` over `(i, j)`, the last of them in
    /// `slot`. Pairs run in parallel, so a coflow completes at the latest
    /// such slot over its transfers.
    fn deliver(&mut self, slot: u64, i: usize, j: usize, k: usize, units: u64) {
        self.remaining[k][(i, j)] -= units;
        self.remaining_total[k] -= units;
        self.last_activity[k] = self.last_activity[k].max(slot);
        if self.remaining_total[k] == 0 {
            self.completion[k] = Some(self.last_activity[k]);
            self.unsettled -= 1;
        }
    }

    /// Records coflow `k`'s planned unit on `(i, j)` as stranded in `slot`.
    fn strand(&mut self, slot: u64, i: usize, j: usize, k: usize) {
        self.blocked_units += 1;
        if self.blocked_log.len() < MAX_BLOCKED_LOG {
            self.blocked_log.push(BlockedSlot { slot, src: i, dst: j, coflow: k });
        } else {
            self.blocked_log_dropped += 1;
        }
    }

    /// Serves slot `slot`'s planned moves `(i, j, k, link open)`: a
    /// cancelled coflow's unit is dropped, one with no demand left is
    /// skipped, one over a closed link is stranded, and the rest are
    /// delivered and recorded as a 1-slot run.
    fn serve_slot(
        &mut self,
        slot: u64,
        moves: &[(usize, usize, usize, bool)],
    ) -> Result<SlotOutcome, SimError> {
        let mut out = SlotOutcome { slot, ..SlotOutcome::default() };
        for &(i, j, k, open) in moves {
            if self.cancelled[k] {
                out.dropped.push((i, j, k));
            } else if self.releases[k] >= slot {
                let release = self.releases[k];
                return Err(SimError::ReleaseViolated { slot, coflow: k, release });
            } else if self.remaining[k][(i, j)] == 0 {
                // already delivered by an earlier replan
            } else if open {
                self.deliver(slot, i, j, k, 1);
                out.delivered.push((i, j, k));
            } else {
                self.strand(slot, i, j, k);
                out.blocked.push((i, j, k));
            }
        }
        obs::counter_add("netsim.fault.blocked_units", out.blocked.len() as u64);
        obs::counter_add("netsim.fault.dropped_units", out.dropped.len() as u64);
        self.record_slot(slot, &out.delivered);
        self.now = slot;
        Ok(out)
    }

    /// The last slot, at most `last`, of the fault window that contains
    /// `slot`: the slot before the first plan boundary after it.
    fn window_end(&self, slot: u64, last: u64) -> u64 {
        let next = self.boundaries.partition_point(|&b| b <= slot);
        self.boundaries.get(next).map_or(last, |&b| (b - 1).min(last))
    }

    /// Appends a 1-slot run of the units delivered in `slot`, if any.
    fn record_slot(&mut self, slot: u64, delivered: &[(usize, usize, usize)]) {
        if delivered.is_empty() {
            return;
        }
        let transfers = delivered
            .iter()
            .map(|&(src, dst, coflow)| Transfer { src, dst, coflow, units: 1 })
            .collect();
        self.executed.push_run(Run { start: slot, duration: 1, transfers });
    }

    /// Executes one slot of planned unit moves under the fault plan.
    ///
    /// Blocked and cancelled units are absorbed (stranded / dropped); only
    /// structural violations — port reuse, unknown coflows, release
    /// violations — error. Moves whose demand is already gone (delivered by
    /// an earlier replan or backfill) are skipped silently.
    pub fn step(&mut self, moves: &[(usize, usize, usize)]) -> Result<SlotOutcome, SimError> {
        let slot = self.now + 1;
        self.src_used.fill(false);
        self.dst_used.fill(false);
        let mut planned = Vec::with_capacity(moves.len());
        for &(i, j, k) in moves {
            if let Some(&port) = [i, j].iter().find(|&&p| p >= self.m) {
                return Err(SimError::PortOutOfRange { port, ports: self.m });
            }
            if k >= self.remaining.len() {
                return Err(SimError::UnknownCoflow { coflow: k });
            }
            if self.src_used[i] {
                return Err(SimError::PortMatchedTwice { slot, port: i, ingress: true });
            }
            if self.dst_used[j] {
                return Err(SimError::PortMatchedTwice { slot, port: j, ingress: false });
            }
            self.src_used[i] = true;
            self.dst_used[j] = true;
            planned.push((i, j, k, self.plan.pair_open(i, j, slot)));
        }
        // Cancellations effective at this slot fire before service.
        self.apply_cancellations_at(slot);
        self.serve_slot(slot, &planned)
    }

    /// Holds a matching for `duration` consecutive slots from `now + 1`.
    ///
    /// `pairs` assigns each used port pair a priority-ordered list of
    /// coflows; the pair serves them in order, exhausting each one's
    /// remaining demand on the pair before moving on (the paper's in-group
    /// priority + backfilling rule). Each port may appear in at most one
    /// pair, and a coflow is served only after its release date.
    ///
    /// The hold splits into fault windows at the plan's boundaries, and
    /// each pair is classified once per window as open, closed or
    /// stride-degraded. A window in which every pair is open is served by
    /// run-length arithmetic and recorded as one run of the window's length
    /// — on the empty plan, the whole hold. In any other window each slot
    /// serves the first listed coflow with demand on each pair, strands it
    /// when the link is down, and records a 1-slot run of what was
    /// delivered, exactly as slot-by-slot [`FaultSim::step`]s of those
    /// moves would. A non-empty matching counts its slots in the
    /// `netsim.fabric.slots` obs counter.
    pub fn apply_run(
        &mut self,
        pairs: &[(usize, usize, Vec<usize>)],
        duration: u64,
    ) -> Result<(), SimError> {
        let first = self.now + 1;
        self.src_used.fill(false);
        self.dst_used.fill(false);
        for &(i, j, _) in pairs {
            if let Some(&port) = [i, j].iter().find(|&&p| p >= self.m) {
                return Err(SimError::PortOutOfRange { port, ports: self.m });
            }
            if self.src_used[i] {
                return Err(SimError::PortMatchedTwice { slot: first, port: i, ingress: true });
            }
            if self.dst_used[j] {
                return Err(SimError::PortMatchedTwice { slot: first, port: j, ingress: false });
            }
            self.src_used[i] = true;
            self.dst_used[j] = true;
        }
        if !pairs.is_empty() {
            obs::counter_add("netsim.fabric.slots", duration);
        }
        let last = self.now + duration;
        let mut states = Vec::new();
        let mut served = Ok(());
        let mut w0 = first;
        while w0 <= last && served.is_ok() {
            let w1 = self.window_end(w0, last);
            states.clear();
            if !self.plan.events.is_empty() {
                states.extend(pairs.iter().map(|&(i, j, _)| PairState::of(&self.plan, i, j, w0)));
            }
            // Cancellations fire only on boundaries. One due in the window's
            // first slot fires after that slot's moves are chosen, so a
            // cancelled coflow's unit is dropped rather than backfilled, and
            // that slot is served slot-wise.
            let due = self.cancellation_due(w0);
            let rest = if due { w0 + 1 } else { w0 };
            if due {
                served = self.hold_slotwise(pairs, &states, w0, w0);
            }
            if served.is_ok() && rest <= w1 {
                served = if states.iter().all(|s| matches!(s, PairState::Open)) {
                    self.hold_open(pairs, rest, w1)
                } else {
                    self.hold_slotwise(pairs, &states, rest, w1)
                };
            }
            w0 = w1 + 1;
        }
        served?;
        self.now = last;
        Ok(())
    }

    /// Serves `pairs` over the all-open window `[w0, w1]` in run-length
    /// arithmetic: each pair moves up to the window's length in units, in
    /// priority order, and the window becomes one recorded run.
    fn hold_open(
        &mut self,
        pairs: &[(usize, usize, Vec<usize>)],
        w0: u64,
        w1: u64,
    ) -> Result<(), SimError> {
        let len = w1 - w0 + 1;
        let mut transfers = Vec::new();
        for (i, j, prio) in pairs {
            let (i, j) = (*i, *j);
            let mut used: u64 = 0;
            for &k in prio {
                if used == len {
                    break;
                }
                if k >= self.remaining.len() {
                    return Err(SimError::UnknownCoflow { coflow: k });
                }
                let take = self.remaining[k][(i, j)].min(len - used);
                if take == 0 {
                    continue;
                }
                if self.releases[k] >= w0 + used {
                    return Err(SimError::ReleaseViolated {
                        slot: w0 + used,
                        coflow: k,
                        release: self.releases[k],
                    });
                }
                used += take;
                self.deliver(w0 - 1 + used, i, j, k, take);
                transfers.push(Transfer { src: i, dst: j, coflow: k, units: take });
            }
        }
        if !transfers.is_empty() {
            self.executed.push_run(Run { start: w0, duration: len, transfers });
        }
        Ok(())
    }

    /// Serves `pairs` slot by slot over `[w0, w1]`, where `states` holds
    /// each pair's fault state for the window. Each slot's moves — the
    /// first listed coflow with demand on each pair — are chosen before the
    /// slot's cancellations fire, as in [`FaultSim::step`].
    fn hold_slotwise(
        &mut self,
        pairs: &[(usize, usize, Vec<usize>)],
        states: &[PairState],
        w0: u64,
        w1: u64,
    ) -> Result<(), SimError> {
        let n = self.remaining.len();
        let mut moves: Vec<(usize, usize, usize, bool)> = Vec::new();
        for slot in w0..=w1 {
            moves.clear();
            for ((i, j, prio), state) in pairs.iter().zip(states) {
                let live = |&&k: &&usize| k >= n || self.remaining[k][(*i, *j)] > 0;
                if let Some(&k) = prio.iter().find(live) {
                    if k >= n {
                        return Err(SimError::UnknownCoflow { coflow: k });
                    }
                    moves.push((*i, *j, k, state.open(slot)));
                }
            }
            self.apply_cancellations_at(slot);
            self.serve_slot(slot, &moves)?;
        }
        Ok(())
    }

    /// Replays `trace` from the current time, stopping before slot
    /// `stop_before` (exclusive) when given. Slots the trace leaves idle
    /// are skipped by advancing the clock. Returns the per-slot outcomes of
    /// the executed prefix.
    ///
    /// Runs are advanced run-length: each run is split into windows at the
    /// plan's fault epochs ([`FaultPlan::boundaries`]), each port pair is
    /// classified once per window (open / closed / stride-degraded), and
    /// the per-slot work drops to O(active transfers) with no per-slot
    /// allocation or fault-plan scan. The executed trace (1-slot runs of
    /// delivered units), outcomes, blocked log, and counters are identical
    /// to slot-by-slot execution ([`FaultSim::execute_trace_slotwise`]);
    /// runs that could trip a structural [`SimError`] fall back to the
    /// slot-wise path so error slots and partial state match exactly.
    ///
    /// With `stop_before = Some(b)` the clock always ends at `b - 1` (or
    /// later, if it already was); with `None` it ends at the trace's
    /// makespan — so callers make progress even when every planned unit is
    /// blocked.
    pub fn execute_trace(
        &mut self,
        trace: &ScheduleTrace,
        stop_before: Option<u64>,
    ) -> Result<Vec<SlotOutcome>, SimError> {
        self.execute_trace_impl(trace, stop_before, false)
    }

    /// Literal slot-by-slot replay — the reference executor the run-length
    /// path is differentially tested against. Byte-identical outputs to
    /// [`FaultSim::execute_trace`], just slower.
    pub fn execute_trace_slotwise(
        &mut self,
        trace: &ScheduleTrace,
        stop_before: Option<u64>,
    ) -> Result<Vec<SlotOutcome>, SimError> {
        self.execute_trace_impl(trace, stop_before, true)
    }

    fn execute_trace_impl(
        &mut self,
        trace: &ScheduleTrace,
        stop_before: Option<u64>,
        force_slotwise: bool,
    ) -> Result<Vec<SlotOutcome>, SimError> {
        let mut outcomes = Vec::new();
        'runs: for run in &trace.runs {
            if let Some(b) = stop_before {
                if run.start >= b {
                    break;
                }
            }
            if run.start + run.duration <= self.now + 1 {
                continue; // entirely in the past (already executed)
            }
            if run.start > self.now + 1 {
                self.advance_to(run.start - 1);
            }
            if run.start <= self.now && run.start + run.duration <= self.now + 1 {
                return Err(SimError::TimeReversed { start: run.start, now: self.now });
            }
            let first = self.now + 1; // done prefixes of partial runs skipped
            if force_slotwise || !self.run_fast(run, first, stop_before, &mut outcomes)? {
                if self.run_slotwise(run, stop_before, &mut outcomes)? {
                    break 'runs;
                }
                continue;
            }
            if let Some(b) = stop_before {
                if run.start + run.duration > b {
                    break 'runs; // the stop boundary fell inside this run
                }
            }
        }
        // Land exactly on the epoch boundary (or the trace end) so the
        // caller's clock advances even if everything was blocked or idle.
        let target = match stop_before {
            Some(b) => (b - 1).max(self.now),
            None => trace.makespan().max(self.now),
        };
        if target > self.now {
            self.advance_to(target);
        }
        Ok(outcomes)
    }

    /// The original per-slot replay of one run. Returns `Ok(true)` when the
    /// `stop_before` boundary was reached (caller stops consuming runs).
    fn run_slotwise(
        &mut self,
        run: &Run,
        stop_before: Option<u64>,
        outcomes: &mut Vec<SlotOutcome>,
    ) -> Result<bool, SimError> {
        let slots = run.slot_moves();
        for (o, moves) in slots.iter().enumerate() {
            let slot = run.start + o as u64;
            if slot <= self.now {
                continue; // partially executed run: skip the done prefix
            }
            if let Some(b) = stop_before {
                if slot >= b {
                    return Ok(true);
                }
            }
            outcomes.push(self.step(moves)?);
        }
        Ok(false)
    }

    /// Run-length replay of one run. Returns `false` (having executed
    /// nothing) when the run is not eligible for the fast path — a
    /// structural violation is possible and the slot-wise path must
    /// reproduce its exact error slot — and `true` after executing the
    /// run's slots in `[first, stop_before)`.
    fn run_fast(
        &mut self,
        run: &Run,
        first: u64,
        stop_before: Option<u64>,
        outcomes: &mut Vec<SlotOutcome>,
    ) -> Result<bool, SimError> {
        let n = self.remaining.len();
        // Per-pair serialized transfer segments: transfer `t` on pair `p`
        // owns the contiguous within-run offsets [a, b) after the units of
        // earlier transfers on the same pair (exactly `Run::slot_moves`).
        let mut pairs: Vec<(usize, usize, u64)> = Vec::new(); // (src, dst, cum units)
        let mut segs: Vec<(usize, u64, u64, usize)> = Vec::new(); // (pair, a, b, coflow)
        for t in &run.transfers {
            if t.src >= self.m || t.dst >= self.m || t.coflow >= n {
                return Ok(false); // PortOutOfRange / UnknownCoflow possible
            }
            if self.releases[t.coflow] >= first {
                return Ok(false); // ReleaseViolated possible in early slots
            }
            let p = match pairs.iter().position(|&(i, j, _)| i == t.src && j == t.dst) {
                Some(p) => p,
                None => {
                    pairs.push((t.src, t.dst, 0));
                    pairs.len() - 1
                }
            };
            let a = pairs[p].2;
            pairs[p].2 += t.units;
            segs.push((p, a, a + t.units, t.coflow));
        }
        // Distinct pairs sharing a port co-occur in the run's first slot:
        // PortMatchedTwice is possible, so leave the run to the reference.
        let mut src_owner = vec![usize::MAX; self.m];
        let mut dst_owner = vec![usize::MAX; self.m];
        for (p, &(i, j, _)) in pairs.iter().enumerate() {
            if src_owner[i] != usize::MAX || dst_owner[j] != usize::MAX {
                return Ok(false);
            }
            src_owner[i] = p;
            dst_owner[j] = p;
        }

        let mut last = run.start + run.duration - 1;
        if let Some(b) = stop_before {
            last = last.min(b - 1);
        }
        if first > last {
            return Ok(true); // nothing left of the run before the boundary
        }

        // Fault state is constant between consecutive plan boundaries
        // (except stride-degraded links, which are re-checked per slot), so
        // the run splits into windows at the epochs that intersect it.
        let mut w0 = first;
        let mut pair_state: Vec<PairState> = Vec::with_capacity(pairs.len());
        let mut moves: Vec<(usize, usize, usize, bool)> = Vec::new();
        while w0 <= last {
            let w1 = self.window_end(w0, last);
            // Cancellations fire on boundaries, so applying them at the
            // window start covers every slot of the window.
            self.apply_cancellations_at(w0);
            pair_state.clear();
            pair_state.extend(pairs.iter().map(|&(i, j, _)| PairState::of(&self.plan, i, j, w0)));
            // Only segments whose offsets intersect the window matter; they
            // keep the listed transfer order, so each slot's moves come out
            // exactly as `Run::slot_moves` lists them.
            let lo = w0 - run.start;
            let hi = w1 - run.start;
            let active: Vec<&(usize, u64, u64, usize)> =
                segs.iter().filter(|&&(_, a, b, _)| a <= hi && b > lo).collect();
            for slot in w0..=w1 {
                let o = slot - run.start;
                moves.clear();
                moves.extend(active.iter().filter(|&&&(_, a, b, _)| a <= o && o < b).map(
                    |&&(p, _, _, k)| (pairs[p].0, pairs[p].1, k, pair_state[p].open(slot)),
                ));
                outcomes.push(self.serve_slot(slot, &moves)?);
            }
            w0 = w1 + 1;
        }
        Ok(true)
    }

    /// Captures the complete simulator state as plain data (see
    /// [`crate::snapshot::FaultSimState`]). `capture` + [`FaultSim::from_state`]
    /// round-trips bit-identically: the restored simulator produces the
    /// same [`SlotOutcome`]s, completions, and executed trace as the
    /// original for any subsequent move sequence.
    pub fn capture(&self) -> crate::snapshot::FaultSimState {
        crate::snapshot::FaultSimState {
            m: self.m,
            remaining: self.remaining.clone(),
            remaining_total: self.remaining_total.clone(),
            releases: self.releases.clone(),
            completion: self.completion.clone(),
            last_activity: self.last_activity.clone(),
            cancelled: self.cancelled.clone(),
            now: self.now,
            plan: self.plan.clone(),
            executed: self.executed.clone(),
            blocked_units: self.blocked_units,
            blocked_log: self.blocked_log.clone(),
            blocked_log_dropped: self.blocked_log_dropped,
        }
    }

    /// Rebuilds a simulator from captured state, validating dimensions.
    pub fn from_state(
        state: crate::snapshot::FaultSimState,
    ) -> Result<FaultSim, crate::snapshot::SnapshotError> {
        let n = state.releases.len();
        let bad = |msg: &str| Err(crate::snapshot::SnapshotError::new(msg.to_string()));
        if state.remaining.len() != n
            || state.remaining_total.len() != n
            || state.completion.len() != n
            || state.last_activity.len() != n
            || state.cancelled.len() != n
        {
            return bad("per-coflow vectors disagree on coflow count");
        }
        if state.remaining.iter().any(|d| d.dim() != state.m) {
            return bad("residual demand matrix width disagrees with 'm'");
        }
        if state.executed.m != state.m {
            return bad("executed trace fabric width disagrees with 'm'");
        }
        Ok(FaultSim::assemble(state))
    }

    /// Finishes execution, returning the executed trace, completion slots
    /// (`None` = unfinished, or cancelled before completion), and the count
    /// of fault-stranded planned units. The trace holds the runs of
    /// [`FaultSim::apply_run`] windows in which every pair was open, and
    /// 1-slot runs of the units delivered in every other slot.
    pub fn finish(self) -> (ScheduleTrace, Vec<Option<u64>>, u64) {
        (self.executed, self.completion, self.blocked_units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(units: u64) -> IntMatrix {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = units;
        d
    }

    /// A simulator on the empty plan: a clean fabric.
    fn clean(m: usize, demands: Vec<IntMatrix>, releases: &[u64]) -> FaultSim {
        FaultSim::new(m, demands, releases, FaultPlan::default())
    }

    #[test]
    fn fig1_completes_in_three_slots() {
        // Matchings from the paper: identity, then anti-diagonal twice.
        let fig1 = vec![IntMatrix::from_nested(&[[1, 2], [2, 1]])];
        let mut f = clean(2, fig1, &[0]);
        f.apply_run(&[(0, 0, vec![0]), (1, 1, vec![0])], 1).unwrap();
        f.apply_run(&[(0, 1, vec![0]), (1, 0, vec![0])], 2).unwrap();
        assert!(f.all_settled());
        let (trace, times, _) = f.finish();
        assert_eq!(times, vec![Some(3)]);
        assert_eq!(trace.makespan(), 3);
        assert_eq!(trace.total_units(), 6);
        assert_eq!(trace.runs.len(), 2, "one record per held matching");
    }

    #[test]
    fn completion_at_exact_offset_within_run() {
        // One pair, demand 2, run of 5 slots: completes at slot 2.
        let mut f = clean(2, vec![demand(2)], &[0]);
        f.apply_run(&[(0, 1, vec![0])], 5).unwrap();
        assert_eq!(f.completion_times(), &[Some(2)]);
        assert_eq!(f.now(), 5);
    }

    #[test]
    fn backfill_order_determines_completions() {
        // Two coflows share pair (0,1): priority [0, 1], demands 3 and 2.
        let mut f = clean(2, vec![demand(3), demand(2)], &[0, 0]);
        f.apply_run(&[(0, 1, vec![0, 1])], 10).unwrap();
        assert_eq!(f.completion_times(), &[Some(3), Some(5)]);
    }

    #[test]
    fn zero_demand_coflow_completes_at_release() {
        let f = clean(2, vec![IntMatrix::zeros(2)], &[7]);
        assert_eq!(f.completion_times(), &[Some(7)]);
        assert!(f.all_settled());
    }

    #[test]
    fn advance_to_models_idle_waiting() {
        let mut d = IntMatrix::zeros(2);
        d[(1, 0)] = 1;
        let mut f = clean(2, vec![d], &[4]);
        f.advance_to(4);
        f.apply_run(&[(1, 0, vec![0])], 1).unwrap();
        assert_eq!(f.completion_times(), &[Some(5)]);
    }

    #[test]
    fn release_dates_enforced() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 0)] = 1;
        let mut f = clean(2, vec![d], &[3]);
        assert_eq!(
            f.apply_run(&[(0, 0, vec![0])], 1).unwrap_err(),
            SimError::ReleaseViolated { slot: 1, coflow: 0, release: 3 }
        );
    }

    #[test]
    fn duplicate_src_rejected() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 0)] = 1;
        d[(0, 1)] = 1;
        let mut f = clean(2, vec![d], &[0]);
        assert_eq!(
            f.apply_run(&[(0, 0, vec![0]), (0, 1, vec![0])], 1).unwrap_err(),
            SimError::PortMatchedTwice { slot: 1, port: 0, ingress: true }
        );
    }

    #[test]
    fn unknown_coflow_in_a_hold_is_an_error() {
        let mut f = clean(2, vec![demand(1)], &[0]);
        assert_eq!(
            f.apply_run(&[(0, 1, vec![5])], 1).unwrap_err(),
            SimError::UnknownCoflow { coflow: 5 }
        );
    }

    #[test]
    fn slot_sim_matches_run_length_hold_on_shared_pair() {
        let demands = [demand(2), demand(1)];
        let mut f = clean(2, demands.to_vec(), &[0, 0]);
        f.apply_run(&[(0, 1, vec![0, 1])], 3).unwrap();

        let mut s = crate::SlotSim::new(2, &demands, &[0, 0]);
        s.step(&[(0, 1, 0)]);
        s.step(&[(0, 1, 0)]);
        s.step(&[(0, 1, 1)]);

        assert_eq!(f.completion_times(), s.completion_times());
    }

    #[test]
    fn budget_caps_transfers() {
        let mut f = clean(2, vec![demand(10)], &[0]);
        f.apply_run(&[(0, 1, vec![0])], 4).unwrap();
        assert_eq!(f.remaining(0, 0, 1), 6);
        assert!(!f.all_settled());
        let (_, c, _) = f.finish();
        assert_eq!(c, vec![None]);
    }

    #[test]
    fn held_matching_strands_only_closed_slots() {
        // Ingress 0 is down for slots 2..=3 of a 5-slot hold: slots 1, 4
        // and 5 deliver, each as a 1-slot run; the open tail window after
        // the outage is a run of its own.
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 0, start: 2, end: 3 }]);
        let mut sim = FaultSim::new(2, vec![demand(3)], &[0], plan);
        sim.apply_run(&[(0, 1, vec![0])], 5).unwrap();
        assert_eq!(sim.completion_times(), &[Some(5)]);
        assert_eq!(sim.blocked_units(), 2);
        assert_eq!(
            sim.blocked_log().iter().map(|b| b.slot).collect::<Vec<_>>(),
            vec![2, 3]
        );
        let (trace, _, _) = sim.finish();
        let runs: Vec<(u64, u64)> = trace.runs.iter().map(|r| (r.start, r.duration)).collect();
        assert_eq!(runs, vec![(1, 1), (4, 2)]);
    }

    #[test]
    fn degraded_hold_matches_stepping_the_same_moves() {
        let plan = FaultPlan::new(vec![FaultEvent::LinkDegraded {
            src: 0,
            dst: 1,
            start: 1,
            end: 6,
            stride: 2,
        }]);
        let mut held = FaultSim::new(2, vec![demand(4)], &[0], plan.clone());
        held.apply_run(&[(0, 1, vec![0])], 6).unwrap();
        let mut stepped = FaultSim::new(2, vec![demand(4)], &[0], plan);
        for _ in 0..6 {
            stepped.step(&[(0, 1, 0)]).unwrap();
        }
        assert_eq!(held.completion_times(), stepped.completion_times());
        assert_eq!(held.blocked_log(), stepped.blocked_log());
        assert_eq!(held.finish(), stepped.finish());
    }

    #[test]
    fn settles_through_cancellations_in_slot_order() {
        // Cancellations listed out of order still fire by slot, once each.
        let plan = FaultPlan::new(vec![
            FaultEvent::CoflowCancelled { coflow: 1, at: 9 },
            FaultEvent::CoflowCancelled { coflow: 0, at: 4 },
            FaultEvent::CoflowCancelled { coflow: 0, at: 2 },
            FaultEvent::CoflowCancelled { coflow: 7, at: 1 },
        ]);
        let mut sim = FaultSim::new(2, vec![demand(5), demand(5)], &[0, 0], plan);
        sim.advance_to(1);
        assert!(sim.is_cancelled(0), "the earliest cancellation wins");
        assert!(!sim.is_cancelled(1));
        assert!(!sim.all_settled());
        let restored = FaultSim::from_state(sim.capture()).unwrap();
        for mut s in [sim, restored] {
            s.advance_to(8);
            assert!(s.is_cancelled(1));
            assert!(s.all_settled());
        }
    }

    #[test]
    fn restored_simulator_records_holds_like_the_original() {
        // A cancellation applied before the snapshot must not make the
        // restored simulator serve its next hold slot-wise.
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 1, at: 2 }]);
        let mut sim = FaultSim::new(2, vec![demand(6), demand(6)], &[0, 0], plan);
        sim.apply_run(&[(0, 1, vec![0])], 3).unwrap();
        let mut restored = FaultSim::from_state(sim.capture()).unwrap();
        for s in [&mut sim, &mut restored] {
            s.apply_run(&[(0, 1, vec![0])], 3).unwrap();
        }
        let (trace, ..) = restored.finish();
        assert_eq!(trace, sim.finish().0);
        let last = trace.runs.last().map(|r| (r.start, r.duration));
        assert_eq!(last, Some((4, 3)), "the second hold is one run");
    }

    #[test]
    fn plan_generation_is_deterministic() {
        let a = FaultPlan::generate(8, 10, 100, 0.5, 42);
        let b = FaultPlan::generate(8, 10, 100, 0.5, 42);
        assert_eq!(a, b);
        let c = FaultPlan::generate(8, 10, 100, 0.5, 43);
        assert_ne!(a, c, "different seeds should give different plans");
        assert!(!a.events.is_empty(), "rate 0.5 over 8 ports should fire");
    }

    #[test]
    fn outage_windows_gate_pairs() {
        let plan = FaultPlan::new(vec![
            FaultEvent::IngressOutage { port: 0, start: 3, end: 5 },
            FaultEvent::EgressOutage { port: 1, start: 10, end: 10 },
        ]);
        assert!(plan.pair_open(0, 1, 2));
        assert!(!plan.pair_open(0, 1, 3));
        assert!(!plan.pair_open(0, 1, 5));
        assert!(plan.pair_open(0, 1, 6));
        assert!(!plan.pair_open(0, 1, 10));
        assert!(plan.pair_open(1, 0, 4), "other ingress unaffected");
        assert_eq!(plan.boundaries(), vec![3, 6, 10, 11]);
    }

    #[test]
    fn degraded_link_serves_every_stride() {
        let plan = FaultPlan::new(vec![FaultEvent::LinkDegraded {
            src: 0,
            dst: 1,
            start: 4,
            end: 9,
            stride: 3,
        }]);
        let open: Vec<u64> = (1..=11).filter(|&s| plan.pair_open(0, 1, s)).collect();
        assert_eq!(open, vec![1, 2, 3, 4, 7, 10, 11]);
    }

    #[test]
    fn blocked_units_are_stranded_not_lost() {
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 0, start: 1, end: 2 }]);
        let mut sim = FaultSim::new(2, vec![demand(3)], &[0], plan);
        // Slots 1 and 2 blocked, 3..5 deliver.
        for _ in 0..5 {
            sim.step(&[(0, 1, 0)]).unwrap();
        }
        assert_eq!(sim.blocked_units(), 2);
        assert_eq!(sim.completion_times(), &[Some(5)]);
        let (trace, times, blocked) = sim.finish();
        assert_eq!(times, vec![Some(5)]);
        assert_eq!(blocked, 2);
        assert_eq!(trace.total_units(), 3);
        assert_eq!(trace.runs.len(), 3, "only delivering slots are recorded");
    }

    #[test]
    fn blocked_log_records_each_denied_unit() {
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 0, start: 1, end: 2 }]);
        let mut sim = FaultSim::new(2, vec![demand(3)], &[0], plan);
        for _ in 0..5 {
            sim.step(&[(0, 1, 0)]).unwrap();
        }
        assert_eq!(
            sim.blocked_log(),
            &[
                BlockedSlot { slot: 1, src: 0, dst: 1, coflow: 0 },
                BlockedSlot { slot: 2, src: 0, dst: 1, coflow: 0 },
            ]
        );
        assert_eq!(sim.blocked_log_dropped(), 0);
    }

    #[test]
    fn cancellation_drops_remaining_demand() {
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 0, at: 3 }]);
        let mut sim = FaultSim::new(2, vec![demand(5), demand(0)], &[0, 0], plan);
        sim.step(&[(0, 1, 0)]).unwrap();
        sim.step(&[(0, 1, 0)]).unwrap();
        assert!(!sim.is_cancelled(0));
        let out = sim.step(&[(0, 1, 0)]).unwrap();
        assert!(sim.is_cancelled(0));
        assert_eq!(out.dropped, vec![(0, 1, 0)]);
        assert_eq!(sim.remaining_total(0), 0);
        assert_eq!(sim.completion_times()[0], None, "cancelled, not completed");
        assert!(sim.all_settled());
    }

    #[test]
    fn cancellation_after_completion_is_a_noop() {
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 0, at: 9 }]);
        let mut sim = FaultSim::new(2, vec![demand(1)], &[0], plan);
        sim.step(&[(0, 1, 0)]).unwrap();
        sim.advance_to(20);
        assert_eq!(sim.completion_times(), &[Some(1)]);
        assert!(!sim.is_cancelled(0));
    }

    #[test]
    fn structural_violations_error() {
        let mut sim = FaultSim::new(2, vec![demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.step(&[(0, 1, 0), (0, 0, 1)]).unwrap_err(),
            SimError::PortMatchedTwice { slot: 1, port: 0, ingress: true }
        );
        let mut sim = FaultSim::new(2, vec![demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.step(&[(0, 1, 7)]).unwrap_err(),
            SimError::UnknownCoflow { coflow: 7 }
        );
        let mut sim = FaultSim::new(2, vec![demand(2), demand(2)], &[0, 5], FaultPlan::default());
        assert_eq!(
            sim.step(&[(0, 1, 1)]).unwrap_err(),
            SimError::ReleaseViolated { slot: 1, coflow: 1, release: 5 }
        );
    }

    #[test]
    fn execute_trace_respects_stop_boundary() {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 4,
            transfers: vec![Transfer { src: 0, dst: 1, coflow: 0, units: 4 }],
        });
        let mut sim = FaultSim::new(2, vec![demand(4)], &[0], FaultPlan::default());
        let outcomes = sim.execute_trace(&trace, Some(3)).unwrap();
        assert_eq!(outcomes.len(), 2, "slots 1 and 2 only");
        assert_eq!(sim.now(), 2);
        assert_eq!(sim.remaining_total(0), 2);
        // Resume the same trace: the done prefix is skipped.
        let outcomes = sim.execute_trace(&trace, None).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(sim.completion_times(), &[Some(4)]);
    }

    #[test]
    fn fully_blocked_epoch_still_advances_the_clock() {
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 0, start: 1, end: 9 }]);
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 2,
            transfers: vec![Transfer { src: 0, dst: 1, coflow: 0, units: 2 }],
        });
        let mut sim = FaultSim::new(2, vec![demand(2)], &[0], plan);
        sim.execute_trace(&trace, Some(5)).unwrap();
        assert_eq!(sim.now(), 4, "clock lands on the epoch boundary");
        assert_eq!(sim.remaining_total(0), 2, "demand stranded");
        assert_eq!(sim.blocked_units(), 2);
    }

    #[test]
    fn boundaries_are_cached_and_survive_a_snapshot() {
        let plan = FaultPlan::new(vec![
            FaultEvent::EgressOutage { port: 1, start: 6, end: 9 },
            FaultEvent::IngressOutage { port: 0, start: 2, end: 5 },
            FaultEvent::CoflowCancelled { coflow: 0, at: 6 },
        ]);
        let sim = FaultSim::new(2, vec![demand(3)], &[0], plan.clone());
        assert_eq!(sim.boundaries(), plan.boundaries().as_slice());
        assert_eq!(sim.boundaries(), &[2, 6, 10]);
        let restored = FaultSim::from_state(sim.capture()).unwrap();
        assert_eq!(restored.boundaries(), sim.boundaries());
    }
}
