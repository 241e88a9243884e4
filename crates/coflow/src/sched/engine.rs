//! The event-driven scheduling engine with pluggable policies.
//!
//! Historically the crate grew four independent time loops — the batch
//! executor (`execute_batches`), the online ρ/w scheduler, the priority
//! greedy baseline, and the fault/recovery epoch loop — each re-implementing
//! arrival admission, port-conflict matching, trace emission, and completion
//! tracking. This module unifies them: one [`Engine`] owns the clock and
//! the one executor, a [`FaultSim`] (whose empty [`FaultPlan`] is a clean
//! fabric); a [`Policy`] owns the scheduling brain and is consulted at
//! *decision epochs* (whenever the previous decision has been carried out).
//!
//! The contract is deliberately small:
//!
//! * the engine calls [`Policy::decide`] with a read-only [`EpochState`]
//!   snapshot (current time, the instance, live remaining demand);
//! * the policy answers with a [`Decision`]: advance the clock, run a
//!   matching for some slots, execute a planned trace up to the next
//!   fault boundary, or declare itself finished;
//! * the engine applies the decision, updates completions/trace/obs, and
//!   asks again.
//!
//! [`Engine::step`] is the only loop body: [`run_policy`] steps an engine
//! over the empty plan, `plan_policy` does the same up to a horizon, and
//! [`run_policy_with_faults`] steps one over the caller's plan. Because the
//! loop is shared, every policy×environment combination composes for free:
//! the online and greedy schedulers run under fault injection (and hence
//! under the flight recorder and the diagnostics detectors) exactly like
//! the BvN pipeline does, and the recovery policy runs on a clean fabric.
//!
//! Determinism: the batch and recovery policies reproduce their legacy
//! loops *bit-identically* (same `ScheduleTrace`, completions, objective).
//! The greedy-family policies (`sched::ordered`) decide once per event —
//! a [`Decision::Run`] holds its matching for `duration` slots — and
//! reproduce their per-slot loops slot for slot. Both contracts are
//! differential-tested against frozen copies of the old loops and pinned
//! in CI via `experiments pin` / `scripts/check-perf.sh`.

use super::recovery::FaultyOutcome;
use super::resilient::plan_resilient;
use super::{AlgorithmSpec, ExecOptions, ScheduleOutcome};
use crate::coflow::Coflow;
use crate::error::SchedError;
use crate::instance::Instance;
use coflow_lp::SimplexOptions;
use coflow_matching::{bvn_decompose, BvnDecomposition, IntMatrix, MatchingSlot, Permutation};
use coflow_netsim::{FaultPlan, FaultSim, ScheduleTrace, SimError};
use std::fmt;
use std::time::Instant;

/// A failure inside an engine run: either the policy could not produce a
/// decision ([`SchedError`]) or the fault simulator rejected one as
/// structurally invalid ([`SimError`], always a scheduler bug).
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The policy failed to decide.
    Sched(SchedError),
    /// The executor rejected a decision.
    Sim(SimError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sched(e) => write!(f, "policy failed: {}", e),
            EngineError::Sim(e) => write!(f, "executor rejected decision: {}", e),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SchedError> for EngineError {
    fn from(e: SchedError) -> Self {
        EngineError::Sched(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

/// Read-only snapshot of execution state at a decision epoch.
pub struct EpochState<'a> {
    /// Current time (end of the last executed slot). The next schedulable
    /// slot is `now + 1`; a coflow with release date `r` is servable when
    /// `r <= now`.
    pub now: u64,
    /// The instance being scheduled (full demands, releases, weights).
    pub instance: &'a Instance,
    sim: &'a FaultSim,
    next_boundary: Option<u64>,
    execute_until: Option<u64>,
}

impl<'a> EpochState<'a> {
    /// Remaining demand of coflow `k` on pair `(i, j)`.
    #[inline]
    pub fn remaining(&self, k: usize, i: usize, j: usize) -> u64 {
        self.sim.remaining(k, i, j)
    }

    /// Remaining demand matrix of coflow `k`.
    #[inline]
    pub fn remaining_matrix(&self, k: usize) -> &'a IntMatrix {
        self.sim.remaining_matrix(k)
    }

    /// Remaining total units of coflow `k`.
    #[inline]
    pub fn remaining_total(&self, k: usize) -> u64 {
        self.sim.remaining_total(k)
    }

    /// True when the fault plan has cancelled coflow `k`; never on a clean
    /// run, whose plan is empty.
    #[inline]
    pub fn is_cancelled(&self, k: usize) -> bool {
        self.sim.is_cancelled(k)
    }

    /// The first [`FaultPlan::boundaries`] slot after `now`, where the
    /// fault state next changes; `None` on a clean fabric and past the
    /// last boundary. Policies that hold a matching stop there.
    pub fn next_boundary(&self) -> Option<u64> {
        self.next_boundary
    }

    /// The slot before which the engine executes a [`Decision::Execute`]
    /// trace: the first boundary after `now + 1`, so every epoch makes at
    /// least one slot of progress. `None` on a clean fabric and past the
    /// last boundary (the trace then runs to its end). A planner that
    /// stops at this slot loses nothing: runs starting at or after it are
    /// never executed.
    pub fn execute_until(&self) -> Option<u64> {
        self.execute_until
    }
}

/// One policy decision, applied by the engine before the next epoch.
#[derive(Clone, Debug)]
pub enum Decision {
    /// Advance the clock to the given slot without serving anything (idle
    /// until an arrival, a batch release, or a pending cancellation).
    Advance(u64),
    /// Run a matching for `duration` consecutive slots starting at
    /// `now + 1`. Each used port pair carries a priority-ordered candidate
    /// list; the executor serves candidates in order, exhausting each one's
    /// remaining demand on the pair (the in-group priority + backfilling
    /// rule) in every slot the pair's link is open. Empty `pairs` idles for
    /// `duration` slots.
    Run {
        /// `(ingress, egress, priority-ordered coflows)`, each port used at
        /// most once.
        pairs: Vec<(usize, usize, Vec<usize>)>,
        /// Number of consecutive slots to hold the matching.
        duration: u64,
    },
    /// Execute a planned schedule trace until the fault state next changes
    /// (before [`EpochState::execute_until`]; on a clean fabric, to the
    /// trace's end). Runs starting at or after that slot are dropped, so
    /// the plan need not reach past it.
    Execute(ScheduleTrace),
    /// Nothing left to schedule; the engine stops consulting the policy.
    Finished,
}

/// A scheduling brain the engine consults at decision epochs.
///
/// To add a policy: decide, from the [`EpochState`] snapshot, what the
/// fabric should do next and return it as a [`Decision`]. The engine owns
/// all bookkeeping (clock, completions, trace, blocked demand); policies
/// own only their planning state. See `DESIGN.md` §7 for the epoch model
/// and the porting notes for the four built-in policies.
pub trait Policy {
    /// Short stable name, used in diagnostics and panic messages.
    fn name(&self) -> &'static str;

    /// Produces the next decision for the current epoch.
    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError>;

    /// Fallback tier of the most recent planning decision (0 = requested
    /// rule). Recorded per planning epoch into [`FaultyOutcome::tiers`].
    fn tier(&self) -> usize {
        0
    }

    /// The committed coflow order reported on the outcome. Defaults to the
    /// completion order, which is the natural answer for reactive policies;
    /// order-driven policies return their input order.
    fn final_order(&self, completions: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..completions.len()).collect();
        order.sort_by_key(|&k| (completions[k], k));
        order
    }

    /// Hands the buffers of an applied [`Decision::Run`] back to the policy
    /// for reuse (hot-path allocation recycling). Default: drop them.
    fn recycle(&mut self, _pairs: Vec<(usize, usize, Vec<usize>)>) {}

    /// Called once after the engine loop ends (all demand delivered or the
    /// policy declared [`Decision::Finished`]); releases any per-run
    /// resources the policy holds, e.g. obs span guards.
    fn finish(&mut self) {}

    /// Captures the policy's planning state for [`Engine::checkpoint`].
    /// The captured state must be *complete*: rebuilding via
    /// [`super::snapshot::PolicyState::rebuild`] and continuing the run
    /// must be bit-identical to never having stopped. Policies return
    /// `None` (the default) to opt out of checkpointing.
    fn capture_state(&self) -> Option<super::snapshot::PolicyState> {
        None
    }
}

/// Aggregated progress of a run at one decision epoch, feeding the bounded
/// `obs` time series and the NDJSON telemetry stream.
struct Progress {
    residual_units: u64,
    active_coflows: u64,
    completed_coflows: u64,
}

/// Progress over the executor, O(n); cancelled coflows are neither active
/// nor completed and their stranded demand is excluded from the residual.
fn progress(sim: &FaultSim, releases: &[u64]) -> Progress {
    let now = sim.now();
    let mut p = Progress { residual_units: 0, active_coflows: 0, completed_coflows: 0 };
    for (k, c) in sim.completion_times().iter().enumerate() {
        if sim.is_cancelled(k) {
            continue;
        }
        let rem = sim.remaining_total(k);
        p.residual_units += rem;
        if c.is_some() {
            p.completed_coflows += 1;
        } else if rem > 0 && releases.get(k).copied().unwrap_or(0) <= now {
            p.active_coflows += 1;
        }
    }
    p
}

/// True when per-epoch progress should be sampled at all; one or two
/// relaxed loads, safe to evaluate every decision.
#[inline]
fn progress_wanted() -> bool {
    obs::enabled() || obs::telemetry::active()
}

/// Records one progress sample: the five bounded per-epoch series
/// (residual demand, active coflows, replans, allocator live bytes, epoch
/// wall-clock) plus one NDJSON heartbeat when a telemetry sink is
/// installed. `epoch_ms` is the wall-clock since the caller's previous
/// sample.
fn emit_progress(
    source: &'static str,
    label: &str,
    now: u64,
    progress: &Progress,
    replans: u64,
    decisions: u64,
    epoch_ms: f64,
) {
    obs::series_record("engine.residual_units", now, progress.residual_units as f64);
    obs::series_record("engine.active_coflows", now, progress.active_coflows as f64);
    obs::series_record("engine.replans", now, replans as f64);
    obs::series_record("engine.live_bytes", now, obs::alloc::stats().live_bytes as f64);
    obs::series_record("engine.epoch_ms", now, epoch_ms);
    obs::telemetry::emit(&obs::telemetry::Sample {
        source,
        label,
        epoch: now,
        residual_units: progress.residual_units,
        active_coflows: progress.active_coflows,
        completed_coflows: progress.completed_coflows,
        replans,
        decisions,
    });
}

/// Initial decision cadence for progress samples on the clean engine (see
/// [`HeartbeatPacer`]).
const CLEAN_SAMPLE_EVERY: u64 = 128;

/// Adaptive heartbeat cadence for engines with no planning epochs to hook.
///
/// A fixed every-128-decisions sample floods the NDJSON sink on
/// million-epoch runs (thousands of lines per second when decisions are
/// cheap) while under-sampling runs with expensive decisions. The pacer
/// targets a human-scale wall-clock rhythm instead: after each emitted
/// beat, the decision stride doubles when beats arrive faster than
/// [`Self::FAST_MS`] and halves when they lag past [`Self::SLOW_MS`],
/// bounded to `[MIN_STRIDE, MAX_STRIDE]`. The first decision always beats
/// (matching the old `% == 1` phase), so short runs still emit a sample.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatPacer {
    stride: u64,
    next_at: u64,
}

impl HeartbeatPacer {
    /// Beats closer together than this double the stride.
    pub const FAST_MS: f64 = 100.0;
    /// Beats farther apart than this halve the stride.
    pub const SLOW_MS: f64 = 2000.0;
    /// Stride floor: never sample more often than every 16 decisions.
    pub const MIN_STRIDE: u64 = 16;
    /// Stride ceiling: even on microsecond decisions, 64Ki decisions per
    /// heartbeat keeps multi-million-epoch runs to a few hundred lines.
    pub const MAX_STRIDE: u64 = 65_536;

    /// A pacer starting at `stride` decisions per beat.
    pub fn new(stride: u64) -> Self {
        let stride = stride.clamp(Self::MIN_STRIDE, Self::MAX_STRIDE);
        HeartbeatPacer { stride, next_at: 1 }
    }

    /// True when the `decisions`-th decision should emit a heartbeat.
    /// `decisions` counts from 1; the first decision always beats.
    pub fn due(&self, decisions: u64) -> bool {
        decisions >= self.next_at
    }

    /// Records an emitted beat that took `epoch_ms` of wall clock since the
    /// previous one and schedules the next.
    pub fn beat(&mut self, decisions: u64, epoch_ms: f64) {
        if epoch_ms < Self::FAST_MS {
            self.stride = (self.stride * 2).min(Self::MAX_STRIDE);
        } else if epoch_ms > Self::SLOW_MS {
            self.stride = (self.stride / 2).max(Self::MIN_STRIDE);
        }
        self.next_at = decisions + self.stride;
    }

    /// Skips a due beat without adapting the stride (sampling disabled).
    pub fn skip(&mut self, decisions: u64) {
        self.next_at = decisions + self.stride;
    }

    /// Current stride (diagnostics/tests).
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

impl Default for HeartbeatPacer {
    fn default() -> Self {
        HeartbeatPacer::new(CLEAN_SAMPLE_EVERY)
    }
}

/// Runs `policy` to completion on a clean fabric: an [`Engine`] over the
/// empty [`FaultPlan`].
///
/// Returns [`EngineError`] when the policy fails or the executor rejects a
/// decision as structurally invalid (a reused port, an unreleased coflow).
/// Panics if the policy declares itself finished while demand is
/// undelivered — that is a policy bug, not an input error.
pub fn run_policy<P: Policy + ?Sized>(
    instance: &Instance,
    policy: &mut P,
) -> Result<ScheduleOutcome, EngineError> {
    let (trace, completions, _) = run_clean(instance, policy, None)?.finish();
    let completions: Vec<u64> = completions
        .into_iter()
        .enumerate()
        .map(|(k, c)| c.unwrap_or_else(|| panic!("coflow {} unfinished", k)))
        .collect();
    let objective = instance.objective(&completions);
    let order = policy.final_order(&completions);
    Ok(ScheduleOutcome {
        order,
        completions,
        objective,
        trace,
    })
}

/// Plans `policy` on a clean fabric up to `horizon`: the returned trace
/// holds every run that starts before `horizon` — exactly those runs of
/// the [`run_policy`] trace, since a decision depends only on the fabric
/// state when it is taken — and none after. The last run may reach past
/// `horizon`. `None` plans the whole schedule. This is how a replanning
/// policy avoids planning slots that [`Decision::Execute`] will never run.
pub(crate) fn plan_policy<P: Policy + ?Sized>(
    instance: &Instance,
    policy: &mut P,
    horizon: Option<u64>,
) -> Result<ScheduleTrace, EngineError> {
    Ok(run_clean(instance, policy, horizon)?.finish().0)
}

/// Steps a clean engine until all demand is delivered, the policy
/// finishes, or the next schedulable slot `now + 1` reaches `horizon`, and
/// returns its executor.
fn run_clean<P: Policy + ?Sized>(
    instance: &Instance,
    policy: &mut P,
    horizon: Option<u64>,
) -> Result<FaultSim, EngineError> {
    let _span = obs::span("sched.engine");
    let mut engine = Engine::clean(instance);
    engine.run_until(policy, horizon)?;
    engine.wind_down(policy);
    assert!(
        engine.done() || horizon.is_some_and(|h| engine.now() + 1 >= h),
        "engine: policy '{}' finished with undelivered demand (scheduler bug)",
        policy.name()
    );
    Ok(engine.sim)
}

/// Runs `policy` to quiescence under `plan` on a fault-injecting simulator.
///
/// Planning epochs are counted uniformly for every policy (satisfying
/// [`FaultyOutcome::replans`]/[`FaultyOutcome::tiers`]): a
/// [`Decision::Execute`] is one epoch, exactly like the legacy recovery
/// loop; matching policies ([`Decision::Run`]) are charged one epoch per
/// fault window entered — each entry is where such a policy re-derives its
/// plan from post-fault state, and a quiet plan yields exactly one epoch on
/// both paths. Runs never straddle a boundary (policies cap their holds at
/// [`EpochState::next_boundary`]), so the charge does not depend on how
/// many slots a decision holds.
pub fn run_policy_with_faults<P: Policy + ?Sized>(
    instance: &Instance,
    policy: &mut P,
    plan: &FaultPlan,
) -> Result<FaultyOutcome, EngineError> {
    let _span = obs::span("sched.engine.faulty");
    let mut engine = Engine::new(instance, plan);
    engine.run_until(policy, None)?;
    Ok(engine.into_outcome(policy))
}

/// How an engine paces its progress samples and charges planning epochs.
#[derive(Clone, Copy)]
enum Cadence {
    /// A clean run ([`run_policy`]): samples on the pacer's decision-count
    /// cadence as source `engine`, and charges no planning epochs.
    Paced(HeartbeatPacer),
    /// A fault run: charges planning epochs and samples at each one as
    /// source `engine.faults`.
    Epochs,
}

/// The engine as a steppable object: the loop body of every entry point,
/// exposed so harnesses can interleave decision epochs with
/// [`Engine::checkpoint`] / [`Engine::restore`] (crash-safe long runs, the
/// chaos harness, the SIGINT path). Driving [`Engine::step`] to quiescence
/// and calling [`Engine::into_outcome`] is *bit-identical* to
/// [`run_policy_with_faults`] — same `FaultyOutcome`, same obs counters.
pub struct Engine<'a> {
    instance: &'a Instance,
    sim: FaultSim,
    replans: usize,
    tiers: Vec<usize>,
    last_window: Option<usize>,
    decisions: u64,
    /// Release dates, cached for progress sampling.
    releases: Vec<u64>,
    /// Wall-clock of the previous progress sample. Not part of snapshots:
    /// telemetry timing restarts at restore, the schedule does not care.
    last_beat: Instant,
    cadence: Cadence,
}

impl<'a> Engine<'a> {
    /// Builds a fresh engine over `instance` under `plan`.
    pub fn new(instance: &'a Instance, plan: &FaultPlan) -> Self {
        Engine::build(instance, plan.clone(), Cadence::Epochs)
    }

    /// A clean engine: the empty plan, paced heartbeats, no epochs.
    fn clean(instance: &'a Instance) -> Self {
        Engine::build(instance, FaultPlan::default(), Cadence::Paced(HeartbeatPacer::default()))
    }

    fn build(instance: &'a Instance, plan: FaultPlan, cadence: Cadence) -> Self {
        let releases = instance.releases();
        let sim = FaultSim::new(instance.ports(), instance.demand_matrices(), &releases, plan);
        Engine {
            instance,
            sim,
            replans: 0,
            tiers: Vec::new(),
            last_window: None,
            decisions: 0,
            releases,
            last_beat: Instant::now(),
            cadence,
        }
    }

    /// Current time (end of the last executed slot).
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// True when every coflow is settled (complete or cancelled).
    pub fn done(&self) -> bool {
        self.sim.all_settled()
    }

    /// Planning epochs so far (the eventual [`FaultyOutcome::replans`]).
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Fallback tiers recorded so far, one per planning epoch.
    pub fn tiers(&self) -> &[usize] {
        &self.tiers
    }

    /// Read-only view of the underlying fault simulator.
    pub fn sim(&self) -> &FaultSim {
        &self.sim
    }

    /// Records one progress sample (when anyone listens): the bounded
    /// per-epoch series plus one NDJSON heartbeat. A fault run samples at
    /// every planning epoch — the "≥ 1 line per decision-epoch window"
    /// guarantee of the telemetry schema. Returns the wall-clock since the
    /// previous sample, or `None` when nothing was sampled.
    fn sample_progress(&mut self, label: &str) -> Option<f64> {
        if !progress_wanted() {
            return None;
        }
        let beat = Instant::now();
        let epoch_ms = beat.saturating_duration_since(self.last_beat).as_secs_f64() * 1e3;
        self.last_beat = beat;
        let (source, replans) = match self.cadence {
            Cadence::Paced(_) => ("engine", 0),
            Cadence::Epochs => ("engine.faults", self.replans as u64),
        };
        emit_progress(
            source,
            label,
            self.sim.now(),
            &progress(&self.sim, &self.releases),
            replans,
            self.decisions,
            epoch_ms,
        );
        Some(epoch_ms)
    }

    /// Charges a planning epoch on a fault run (a clean run has none).
    fn charge_epoch<P: Policy + ?Sized>(&mut self, policy: &P) {
        if let Cadence::Epochs = self.cadence {
            self.replans += 1;
            self.tiers.push(policy.tier());
            obs::counter_add("coflow.recovery.epochs", 1);
            self.sample_progress(policy.name());
        }
    }

    /// Runs one decision epoch: consults the policy and applies its
    /// decision. Returns `Ok(false)` when the run is over (all demand
    /// settled, or the policy declared [`Decision::Finished`]) and
    /// `Ok(true)` when there is more to do.
    pub fn step<P: Policy + ?Sized>(&mut self, policy: &mut P) -> Result<bool, EngineError> {
        if self.sim.all_settled() {
            return Ok(false);
        }
        let now = self.sim.now();
        let boundaries = self.sim.boundaries();
        // The fault window of slot now+1 is the count of boundaries at or
        // before it; the boundary that closes it is where an `Execute`
        // stops (≥ 1 slot of progress), or nowhere past the last one.
        let window = boundaries.partition_point(|&b| b <= now + 1);
        let execute_until = boundaries.get(window).copied();
        let next_boundary = boundaries
            .get(boundaries.partition_point(|&b| b <= now))
            .copied();
        let decision = policy.decide(&EpochState {
            now,
            instance: self.instance,
            sim: &self.sim,
            next_boundary,
            execute_until,
        })?;
        self.decisions += 1;
        if let Cadence::Paced(mut pacer) = self.cadence {
            if pacer.due(self.decisions) {
                // Advance the pacer even when nobody is listening, so the
                // cadence (and per-decision cost) stays the same whether
                // or not telemetry is on.
                match self.sample_progress(policy.name()) {
                    Some(epoch_ms) => pacer.beat(self.decisions, epoch_ms),
                    None => pacer.skip(self.decisions),
                }
                self.cadence = Cadence::Paced(pacer);
            }
        }
        match decision {
            Decision::Execute(trace) => {
                self.charge_epoch(policy);
                self.sim.execute_trace(&trace, execute_until)?;
            }
            Decision::Run { pairs, duration } => {
                // One planning epoch per fault window entered.
                if self.last_window != Some(window) {
                    self.last_window = Some(window);
                    self.charge_epoch(policy);
                }
                self.sim.apply_run(&pairs, duration)?;
                policy.recycle(pairs);
            }
            Decision::Advance(t) => self.sim.advance_to(t),
            Decision::Finished => return Ok(false),
        }
        Ok(true)
    }

    /// Steps until the run is over or the next schedulable slot `now + 1`
    /// reaches `horizon`. On an error the run is wound down first.
    fn run_until<P: Policy + ?Sized>(
        &mut self,
        policy: &mut P,
        horizon: Option<u64>,
    ) -> Result<(), EngineError> {
        while horizon.is_none_or(|h| self.now() + 1 < h) {
            match self.step(policy) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    self.wind_down(policy);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Ends a run, once: releases policy resources, flushes the decision
    /// counter, and takes the final progress sample.
    fn wind_down<P: Policy + ?Sized>(&mut self, policy: &mut P) {
        policy.finish();
        obs::counter_add("coflow.engine.decisions", self.decisions);
        self.sample_progress(policy.name());
    }

    /// Finalizes the run: releases policy resources, flushes the decision
    /// counter, and assembles the [`FaultyOutcome`] exactly as
    /// [`run_policy_with_faults`] does.
    pub fn into_outcome<P: Policy + ?Sized>(mut self, policy: &mut P) -> FaultyOutcome {
        self.wind_down(policy);
        debug_assert!(
            self.sim.all_settled(),
            "engine: policy '{}' finished with unsettled coflows",
            policy.name()
        );
        let blocked = self.sim.blocked_log().to_vec();
        let (executed, completions, blocked_units) = self.sim.finish();
        let objective = completions
            .iter()
            .zip(self.instance.coflows())
            .filter_map(|(c, cf)| c.map(|t| cf.weight * t as f64))
            .sum();
        FaultyOutcome {
            completions,
            executed,
            objective,
            replans: self.replans,
            tiers: self.tiers,
            blocked_units,
            blocked,
        }
    }

    /// Captures the full engine + policy state as a versioned snapshot.
    /// Fails with [`SchedError::Unsupported`] for policies that do not
    /// implement [`Policy::capture_state`].
    pub fn checkpoint<P: Policy + ?Sized>(
        &self,
        policy: &P,
    ) -> Result<super::snapshot::EngineSnapshot, SchedError> {
        let Some(policy_state) = policy.capture_state() else {
            return Err(SchedError::Unsupported {
                what: "policy does not support checkpointing",
            });
        };
        Ok(super::snapshot::EngineSnapshot {
            replans: self.replans,
            tiers: self.tiers.clone(),
            last_window: self.last_window,
            decisions: self.decisions,
            sim: self.sim.capture(),
            policy: policy_state,
        })
    }

    /// Rebuilds an engine and its policy from a snapshot, validating the
    /// snapshot against `instance` (fabric width, coflow count, releases).
    /// The restored pair continues bit-identically to the checkpointed run.
    pub fn restore(
        instance: &'a Instance,
        snapshot: super::snapshot::EngineSnapshot,
    ) -> Result<(Engine<'a>, Box<dyn Policy>), coflow_netsim::SnapshotError> {
        let bad = coflow_netsim::SnapshotError::new;
        if snapshot.sim.m != instance.ports() {
            return Err(bad("snapshot fabric width disagrees with instance"));
        }
        if snapshot.sim.releases != instance.releases() {
            return Err(bad("snapshot release dates disagree with instance"));
        }
        let policy = snapshot.policy.rebuild(instance)?;
        let sim = FaultSim::from_state(snapshot.sim)?;
        Ok((
            Engine {
                instance,
                sim,
                replans: snapshot.replans,
                tiers: snapshot.tiers,
                last_window: snapshot.last_window,
                decisions: snapshot.decisions,
                releases: instance.releases(),
                last_beat: Instant::now(),
                cadence: Cadence::Epochs,
            },
            policy,
        ))
    }
}

// ---------------------------------------------------------------------------
// BvnBatchPolicy: the paper's batch pipeline (grouping × backfill × rematch
// × maxmin), ported decision-for-decision from the legacy `execute_batches`.
// ---------------------------------------------------------------------------

/// With rematching, long runs are split into short chunks so freshly
/// drained pairs are re-matched promptly; chunking only re-plans the same
/// matching, so the paper-mode schedule is untouched.
const REMATCH_CHUNK: u64 = 4;

/// The batch currently being executed: its decomposition, the pending
/// chunk queue, and the batch's eligibility horizon.
struct ActiveBatch {
    dec: BvnDecomposition,
    chunks: std::vec::IntoIter<(usize, u64)>,
    batch_end_pos: usize,
}

/// The batch-pipeline policy: partitions the committed order into batches,
/// waits for each batch's releases, clears its aggregated remaining demand
/// with a Birkhoff–von Neumann schedule, and (per [`ExecOptions`]) donates
/// idle capacity via same-pair backfilling or work-conserving rematching.
///
/// Scheduling state (order positions, per-pair queues with permanent
/// prefix trims, spare candidate buffers) lives here; the engine owns the
/// clock and the fabric.
pub struct BvnBatchPolicy {
    order: Vec<usize>,
    batches: Vec<Vec<usize>>,
    opts: ExecOptions,
    /// Position of each coflow in the global order.
    pos: Vec<usize>,
    /// Per-pair coflow queues in global order: candidates for service on a
    /// pair, indexed by `i * m + j` and scanned front to back. `pair_head`
    /// remembers how far each queue's prefix of pair-finished coflows
    /// reaches — `remaining(k, i, j)` only ever decreases, so the trim is
    /// permanent and the skipped prefix can never become a candidate again.
    pair_queue: Vec<Vec<usize>>,
    pair_head: Vec<usize>,
    b_idx: usize,
    current: Option<ActiveBatch>,
    /// Reused across chunks: the outer run buffer and a spare-buffer pool
    /// for the per-pair candidate lists (returned via [`Policy::recycle`]).
    pairs_pool: Vec<(usize, usize, Vec<usize>)>,
    spare: Vec<Vec<usize>>,
    src_used: Vec<bool>,
    dst_used: Vec<bool>,
    /// Per-batch `sched.simulate` span, held across decisions while the
    /// batch's chunks execute (kept so the obs stage taxonomy matches the
    /// legacy loop). Must be `None` before a new span is assigned.
    sim_span: Option<obs::SpanGuard>,
}

impl BvnBatchPolicy {
    /// Builds the policy for `order` partitioned into `batches`
    /// (consecutive runs of the order; every caller in this crate
    /// guarantees this).
    pub fn new(
        instance: &Instance,
        order: Vec<usize>,
        batches: Vec<Vec<usize>>,
        opts: ExecOptions,
    ) -> Self {
        let n = instance.len();
        let m = instance.ports();
        let mut pos = vec![usize::MAX; n];
        for (p, &k) in order.iter().enumerate() {
            pos[k] = p;
        }
        debug_assert!(
            pos.iter().all(|&p| p != usize::MAX),
            "order must be a permutation"
        );
        let mut pair_queue: Vec<Vec<usize>> = vec![Vec::new(); m * m];
        for &k in &order {
            for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                pair_queue[i * m + j].push(k);
            }
        }
        BvnBatchPolicy {
            order,
            batches,
            opts,
            pos,
            pair_queue,
            pair_head: vec![0; m * m],
            b_idx: 0,
            current: None,
            pairs_pool: Vec::new(),
            spare: Vec::new(),
            src_used: vec![false; m],
            dst_used: vec![false; m],
            sim_span: None,
        }
    }

    /// Rebuilds a checkpointed policy. Derived state (order positions and
    /// pair queues) is recomputed from the instance — it depends only on
    /// full demands and the order, both of which the snapshot carries.
    /// `pair_head` trims restart at zero: they are a pure scan optimization
    /// (trimmed prefixes have zero remaining demand and are filtered out
    /// either way), so decisions are unaffected. The per-batch obs span is
    /// reopened when a batch is in flight so the stage taxonomy matches an
    /// uninterrupted run.
    pub(crate) fn restore(
        instance: &Instance,
        order: Vec<usize>,
        batches: Vec<Vec<usize>>,
        opts: ExecOptions,
        b_idx: usize,
        current: Option<&super::snapshot::ActiveBatchState>,
    ) -> Result<Self, coflow_netsim::SnapshotError> {
        let bad = coflow_netsim::SnapshotError::new;
        if b_idx > batches.len() {
            return Err(bad("bvn-batch: b_idx past the last batch"));
        }
        let mut policy = BvnBatchPolicy::new(instance, order, batches, opts);
        policy.b_idx = b_idx;
        if let Some(cs) = current {
            let m = instance.ports();
            if cs.augmented.len() != m * m {
                return Err(bad("bvn-batch: augmented matrix width mismatch"));
            }
            let slots = cs
                .slots
                .iter()
                .map(|(map, count)| {
                    if map.len() != m {
                        return Err(bad("bvn-batch: permutation length mismatch"));
                    }
                    let mut seen = vec![false; m];
                    for &j in map {
                        if j >= m || seen[j] {
                            return Err(bad("bvn-batch: slot is not a permutation"));
                        }
                        seen[j] = true;
                    }
                    Ok(MatchingSlot {
                        perm: Permutation::new(map.clone()),
                        count: *count,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            if cs.chunks.iter().any(|&(idx, _)| idx >= slots.len()) {
                return Err(bad("bvn-batch: chunk references a missing slot"));
            }
            policy.sim_span = Some(obs::span("sched.simulate"));
            policy.current = Some(ActiveBatch {
                dec: BvnDecomposition {
                    augmented: IntMatrix::from_rows(m, cs.augmented.clone()),
                    slots,
                    load: cs.load,
                },
                chunks: cs.chunks.clone().into_iter(),
                batch_end_pos: cs.batch_end_pos,
            });
        }
        Ok(policy)
    }

    /// Plans the candidate lists for one chunk of the active batch,
    /// identically to the legacy chunk loop: per-pair queue scan with
    /// permanent head trims, eligibility gate
    /// `release <= now && (pos <= batch_end_pos || backfill)`, and — with
    /// rematching — re-matching of unused ports to pending demand in
    /// priority order.
    fn plan_chunk(
        &mut self,
        state: &EpochState<'_>,
        cur: &ActiveBatch,
        slot_idx: usize,
    ) -> Vec<(usize, usize, Vec<usize>)> {
        let instance = state.instance;
        let m = instance.ports();
        let now = state.now;
        let backfill = self.opts.backfill;
        let rematch = self.opts.rematch;
        let batch_end_pos = cur.batch_end_pos;
        let slot = &cur.dec.slots[slot_idx];
        let Self {
            order,
            pos,
            pair_queue,
            pair_head,
            pairs_pool,
            spare,
            src_used,
            dst_used,
            ..
        } = self;
        let eligible =
            |k: usize| instance.coflow(k).release <= now && (pos[k] <= batch_end_pos || backfill);
        let mut pairs = std::mem::take(pairs_pool);
        debug_assert!(pairs.is_empty(), "recycle must drain the run buffer");
        if rematch {
            src_used.fill(false);
            dst_used.fill(false);
        }
        for (i, j) in slot.perm.pairs() {
            let head = &mut pair_head[i * m + j];
            let queue = &pair_queue[i * m + j];
            while *head < queue.len() && state.remaining(queue[*head], i, j) == 0 {
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
                    .filter(|&k| eligible(k) && state.remaining(k, i, j) > 0),
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
            // Work-conserving extension: ports whose matched pair has
            // nothing to send are re-matched to pending demand, scanning
            // coflows in priority order.
            for &k in order.iter() {
                if !eligible(k) || state.remaining_total(k) == 0 {
                    continue;
                }
                for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                    if !src_used[i] && !dst_used[j] && state.remaining(k, i, j) > 0 {
                        src_used[i] = true;
                        dst_used[j] = true;
                        let mut candidates = spare.pop().unwrap_or_default();
                        candidates.extend(
                            pair_queue[i * m + j]
                                .iter()
                                .copied()
                                .filter(|&c| eligible(c) && state.remaining(c, i, j) > 0),
                        );
                        pairs.push((i, j, candidates));
                    }
                }
            }
        }
        pairs
    }

    /// Orders the decomposition's matchings so the group's coflows complete
    /// in priority order. Algorithm 1 admits any slot order (the group
    /// still clears in exactly ρ slots, so Lemma 4 and Proposition 1 are
    /// untouched), but applying, for each group coflow in order, the slots
    /// that still serve it lets that coflow finish as early as the
    /// decomposition allows instead of at the group's end. Leftover slots
    /// (serving only backfill demand) run last.
    fn order_slots(
        &self,
        state: &EpochState<'_>,
        dec: &BvnDecomposition,
        b_idx: usize,
    ) -> Vec<usize> {
        let instance = state.instance;
        let batch = &self.batches[b_idx];
        let mut slot_sequence: Vec<usize> = Vec::with_capacity(dec.slots.len());
        let mut pending: Vec<usize> = (0..dec.slots.len()).collect();
        let mut rem: Vec<IntMatrix> = batch
            .iter()
            .map(|&k| {
                let mut r = IntMatrix::zeros(instance.ports());
                for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                    r[(i, j)] = state.remaining(k, i, j);
                }
                r
            })
            .collect();
        for (member, _k) in batch.iter().enumerate() {
            while !rem[member].is_zero() {
                // First pending slot that serves this coflow: within a
                // group, pairs serve members in order, so any slot covering
                // a pair with remaining demand serves it.
                let found = pending.iter().position(|&s| {
                    dec.slots[s]
                        .perm
                        .pairs()
                        .any(|(i, j)| rem[member][(i, j)] > 0)
                });
                let Some(p_idx) = found else {
                    unreachable!("BvN coverage must clear every group coflow")
                };
                let s = pending.remove(p_idx);
                let q = dec.slots[s].count;
                // Account the service this slot gives each group member
                // (pairs serve members in order).
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
        slot_sequence
    }
}

/// Splits a slot sequence into `(slot index, length)` chunks; without
/// rematching every slot is one chunk of its full count.
fn chunk_slots(
    slot_sequence: Vec<usize>,
    dec: &BvnDecomposition,
    rematch: bool,
) -> Vec<(usize, u64)> {
    slot_sequence
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
        .collect()
}

impl Policy for BvnBatchPolicy {
    fn name(&self) -> &'static str {
        "bvn-batch"
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        let instance = state.instance;
        let m = instance.ports();
        loop {
            // Emit the next chunk of the batch in flight, if any.
            if let Some(mut cur) = self.current.take() {
                if let Some((slot_idx, chunk_len)) = cur.chunks.next() {
                    let pairs = self.plan_chunk(state, &cur, slot_idx);
                    self.current = Some(cur);
                    return Ok(Decision::Run {
                        pairs,
                        duration: chunk_len,
                    });
                }
                // Batch done: close its simulate span before planning the
                // next one.
                self.sim_span = None;
                continue;
            }

            // Plan the next batch.
            if self.b_idx >= self.batches.len() {
                return Ok(Decision::Finished);
            }
            let b_idx = self.b_idx;
            let batch = &self.batches[b_idx];
            if batch.is_empty() {
                self.b_idx += 1;
                continue;
            }
            // Algorithm 2: schedule the group only after all members'
            // releases. Members with no remaining demand (zero-demand
            // coflows, or demand already cleared by backfilling) cannot
            // gate the group: they are complete regardless, and waiting
            // for them could only delay others.
            let batch_release = batch
                .iter()
                .filter(|&&k| state.remaining_total(k) > 0)
                .map(|&k| instance.coflow(k).release)
                .max();
            let Some(batch_release) = batch_release else {
                // Everything in this batch is already done.
                self.b_idx += 1;
                continue;
            };
            if batch_release > state.now {
                // Re-entered after the engine advances the clock; the
                // recomputation above is idempotent (no service happens
                // while idling).
                return Ok(Decision::Advance(batch_release));
            }
            let batch_end_pos = batch
                .iter()
                .map(|&k| self.pos[k])
                .max()
                .unwrap_or_else(|| unreachable!("batch checked non-empty above"));

            // Aggregate the *remaining* demand of the batch (earlier
            // backfilling may have partially cleared it).
            let mut agg = IntMatrix::zeros(m);
            for &k in batch {
                for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                    agg[(i, j)] += state.remaining(k, i, j);
                }
            }
            if agg.is_zero() {
                self.b_idx += 1;
                continue;
            }
            let dec = if self.opts.maxmin_decomposition {
                coflow_matching::bvn_decompose_maxmin(&agg)
            } else {
                bvn_decompose(&agg)
            };

            let slot_sequence = self.order_slots(state, &dec, b_idx);
            let chunked = chunk_slots(slot_sequence, &dec, self.opts.rematch);

            obs::counter_add("coflow.sched.batches", 1);
            debug_assert!(
                self.sim_span.is_none(),
                "simulate span must be closed between batches"
            );
            self.sim_span = Some(obs::span("sched.simulate"));
            self.current = Some(ActiveBatch {
                dec,
                chunks: chunked.into_iter(),
                batch_end_pos,
            });
            self.b_idx += 1;
        }
    }

    fn final_order(&self, _completions: &[u64]) -> Vec<usize> {
        self.order.clone()
    }

    fn recycle(&mut self, mut pairs: Vec<(usize, usize, Vec<usize>)>) {
        // Recycle the chunk's candidate buffers and the outer run buffer
        // instead of reallocating them per pair per chunk.
        for (_, _, mut buf) in pairs.drain(..) {
            buf.clear();
            self.spare.push(buf);
        }
        self.pairs_pool = pairs;
    }

    fn finish(&mut self) {
        self.sim_span = None;
    }

    fn capture_state(&self) -> Option<super::snapshot::PolicyState> {
        let current = self.current.as_ref().map(|cur| super::snapshot::ActiveBatchState {
            augmented: cur.dec.augmented.as_slice().to_vec(),
            slots: cur
                .dec
                .slots
                .iter()
                .map(|s| (s.perm.as_slice().to_vec(), s.count))
                .collect(),
            load: cur.dec.load,
            chunks: cur.chunks.as_slice().to_vec(),
            batch_end_pos: cur.batch_end_pos,
        });
        Some(super::snapshot::PolicyState::BvnBatch {
            order: self.order.clone(),
            batches: self.batches.clone(),
            opts: self.opts,
            b_idx: self.b_idx,
            current,
        })
    }
}

// ---------------------------------------------------------------------------
// ResilientPolicy: plan-ahead recovery via the H_LP → H_ρ → H_A chain.
// ---------------------------------------------------------------------------

/// The recovery policy: at each planning epoch, builds the residual
/// instance (live coflows, remaining demand, releases clamped to now) and
/// plans it with [`plan_resilient`] — degrading `H_LP → H_ρ → H_A` under
/// the configured solver budgets — then hands the planned trace to the
/// engine to execute until the fault state next changes. Planning stops at
/// [`EpochState::execute_until`], where that execution ends: the order and
/// groups still cover the whole residual, and the planned runs are the
/// prefix of the full plan, so the executed schedule is the one a
/// full-horizon plan would give. This is the legacy fault-recovery epoch
/// loop, expressed as a policy; it requires the fault-aware engine
/// ([`run_policy_with_faults`]).
pub struct ResilientPolicy {
    spec: AlgorithmSpec,
    lp_opts: SimplexOptions,
    last_tier: usize,
}

impl ResilientPolicy {
    /// Builds the policy for the given grid cell and solver budgets.
    pub fn new(spec: AlgorithmSpec, lp_opts: SimplexOptions) -> Self {
        ResilientPolicy {
            spec,
            lp_opts,
            last_tier: 0,
        }
    }

    /// Shrinks the solver budgets by `factor` (watchdog retry path). The
    /// scaled budgets persist — and are checkpointed — so a restored run
    /// retries under the same pressure it was under when interrupted.
    pub fn scale_budgets(&mut self, factor: f64) {
        self.lp_opts = self.lp_opts.with_scaled_budgets(factor);
    }

    /// Rebuilds a checkpointed policy (planning is stateless beyond the
    /// last reported tier).
    pub(crate) fn restore(spec: AlgorithmSpec, lp_opts: SimplexOptions, last_tier: usize) -> Self {
        ResilientPolicy {
            spec,
            lp_opts,
            last_tier,
        }
    }
}

impl Policy for ResilientPolicy {
    fn name(&self) -> &'static str {
        "resilient"
    }

    fn tier(&self) -> usize {
        self.last_tier
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        let instance = state.instance;
        let now = state.now;
        // Residual instance: live coflows with their remaining demand,
        // released no earlier than the current slot so the planned trace
        // lands strictly in the future. Coflow ids are preserved so H_A
        // stays the trace arrival order across replans.
        let mut residual_to_orig = Vec::new();
        let mut residual = Vec::new();
        for k in 0..instance.len() {
            if state.is_cancelled(k) || state.remaining_total(k) == 0 {
                continue;
            }
            let c = instance.coflow(k);
            residual_to_orig.push(k);
            residual.push(
                Coflow::new(c.id, state.remaining_matrix(k).clone())
                    .with_weight(c.weight)
                    .with_release(c.release.max(now)),
            );
        }
        if residual.is_empty() {
            // Nothing left to serve, but some coflow is still pending a
            // future cancellation — step the clock to settle it.
            return Ok(Decision::Advance(now + 1));
        }
        let residual_instance = Instance::new(instance.ports(), residual);
        let planned = plan_resilient(
            &residual_instance,
            &self.spec,
            &self.lp_opts,
            state.execute_until(),
        );
        self.last_tier = planned.tier;

        // The planner numbers coflows by residual index; map back.
        let mut trace = planned.outcome;
        for run in &mut trace.runs {
            for t in &mut run.transfers {
                t.coflow = residual_to_orig[t.coflow];
            }
        }
        Ok(Decision::Execute(trace))
    }

    fn capture_state(&self) -> Option<super::snapshot::PolicyState> {
        Some(super::snapshot::PolicyState::Resilient {
            spec: self.spec,
            lp_opts: self.lp_opts.clone(),
            last_tier: self.last_tier,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use coflow_matching::IntMatrix;

    fn inst() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]]))
            .with_weight(0.5)
            .with_release(3);
        Instance::new(2, vec![c0, c1, c2])
    }

    #[test]
    fn clean_engine_runs_every_registry_policy() {
        // `resilient` answers with `Decision::Execute`; on the empty plan
        // the engine replays its whole plan, which is exactly bvn-batch's.
        let instance = inst();
        let mut objectives = std::collections::HashMap::new();
        for entry in super::super::registry::PolicyRegistry::builtin().entries() {
            let mut policy = entry.build(&instance);
            let out = run_policy(&instance, policy.as_mut())
                .unwrap_or_else(|e| panic!("{}: {}", entry.name, e));
            crate::verify::verify_outcome(&instance, &out)
                .unwrap_or_else(|e| panic!("{}: {}", entry.name, e));
            objectives.insert(entry.name, out.objective.to_bits());
        }
        assert_eq!(objectives["resilient"], objectives["bvn-batch"]);
    }

    #[test]
    fn port_reusing_policy_is_an_error_not_a_panic() {
        struct Reuse;
        impl Policy for Reuse {
            fn name(&self) -> &'static str {
                "reuse"
            }
            fn decide(&mut self, _: &EpochState<'_>) -> Result<Decision, SchedError> {
                Ok(Decision::Run {
                    pairs: vec![(0, 0, vec![0]), (0, 1, vec![0])],
                    duration: 1,
                })
            }
        }
        let err = run_policy(&inst(), &mut Reuse).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Sim(SimError::PortMatchedTwice { slot: 1, port: 0, ingress: true })
            ),
            "{}",
            err
        );
    }

    #[test]
    fn epoch_state_reports_environment() {
        let instance = inst();
        struct Probe {
            first_boundary: Option<Option<u64>>,
        }
        impl Policy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
                if self.first_boundary.is_none() {
                    self.first_boundary = Some(state.next_boundary());
                }
                // Serve one unit of the first servable pair per slot.
                let servable = (0..state.instance.len())
                    .filter(|&k| state.instance.coflow(k).release <= state.now)
                    .find_map(|k| {
                        let (i, j, _) = state.remaining_matrix(k).nonzero_entries().next()?;
                        Some((i, j, vec![k]))
                    });
                Ok(match servable {
                    Some(pair) => Decision::Run { pairs: vec![pair], duration: 1 },
                    None => Decision::Advance(state.now + 1),
                })
            }
        }
        let mut probe = Probe { first_boundary: None };
        let out = run_policy(&instance, &mut probe).expect("probe policy runs clean");
        assert_eq!(probe.first_boundary, Some(None), "a clean fabric has no boundary");
        assert!(out.completions.iter().all(|&c| c > 0));

        let mut probe = Probe { first_boundary: None };
        let fault_out =
            run_policy_with_faults(&instance, &mut probe, &FaultPlan::default())
                .expect("probe policy runs under the (empty) fault plan");
        assert_eq!(probe.first_boundary, Some(None));
        assert_eq!(fault_out.replans, 1, "quiet plan charges exactly one epoch");
        assert!(fault_out.completions.iter().all(Option::is_some));

        let plan = FaultPlan::new(vec![coflow_netsim::FaultEvent::IngressOutage {
            port: 1,
            start: 4,
            end: 5,
        }]);
        let mut probe = Probe { first_boundary: None };
        let fault_out = run_policy_with_faults(&instance, &mut probe, &plan).expect("faulted run");
        assert_eq!(probe.first_boundary, Some(Some(4)));
        crate::verify::verify_faulty_outcome(&instance, &plan, &fault_out).unwrap();
    }

    #[test]
    fn pacer_first_decision_always_beats() {
        let pacer = HeartbeatPacer::default();
        assert!(pacer.due(1));
    }

    #[test]
    fn pacer_backs_off_on_fast_beats() {
        let mut pacer = HeartbeatPacer::default();
        assert_eq!(pacer.stride(), 128);
        pacer.beat(1, 1.0); // far below FAST_MS
        assert_eq!(pacer.stride(), 256);
        assert!(!pacer.due(128));
        assert!(pacer.due(257));
        // Repeated fast beats saturate at the ceiling.
        let mut d = 257;
        for _ in 0..20 {
            pacer.beat(d, 1.0);
            d += pacer.stride();
        }
        assert_eq!(pacer.stride(), HeartbeatPacer::MAX_STRIDE);
    }

    #[test]
    fn pacer_speeds_up_on_slow_beats() {
        let mut pacer = HeartbeatPacer::default();
        pacer.beat(1, 5000.0); // past SLOW_MS
        assert_eq!(pacer.stride(), 64);
        for i in 0..20 {
            pacer.beat(i, 5000.0);
        }
        assert_eq!(pacer.stride(), HeartbeatPacer::MIN_STRIDE);
    }

    #[test]
    fn pacer_holds_stride_in_the_target_band() {
        let mut pacer = HeartbeatPacer::default();
        pacer.beat(1, 500.0); // between FAST_MS and SLOW_MS
        assert_eq!(pacer.stride(), 128);
        assert!(pacer.due(129));
    }

    #[test]
    fn pacer_skip_advances_without_adapting() {
        let mut pacer = HeartbeatPacer::default();
        pacer.skip(1);
        assert_eq!(pacer.stride(), 128);
        assert!(!pacer.due(2));
        assert!(pacer.due(129));
    }
}
