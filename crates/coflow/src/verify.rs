//! End-to-end verification of schedule outcomes.
//!
//! Both outcome types are checked by one replay: the recorded trace goes
//! through the independent, plan-aware `coflow-netsim` validator
//! ([`validate_trace`]), which must accept every slot under the constraints
//! of problem (O) and the fault plan and reproduce the claimed completion
//! times; the objective is then recomputed from them. A clean outcome is
//! replayed under the empty plan.

use crate::instance::Instance;
use crate::sched::recovery::FaultyOutcome;
use crate::sched::ScheduleOutcome;
use coflow_netsim::{validate_trace, FaultPlan, ScheduleTrace, ValidationError};

/// Why an outcome failed verification.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// The trace violates a constraint of problem (O) or the fault plan.
    InvalidTrace(ValidationError),
    /// The outcome reports completions for a different number of coflows.
    CoflowCount {
        /// Completions reported.
        reported: usize,
        /// Coflows in the instance.
        coflows: usize,
    },
    /// The trace is valid but yields different completion times.
    CompletionMismatch {
        /// Coflow with the discrepancy.
        coflow: usize,
        /// Completion claimed by the scheduler (`None` = not completed).
        claimed: Option<u64>,
        /// Completion recomputed from the trace (`None` = cancelled before
        /// its demand was delivered).
        replayed: Option<u64>,
    },
    /// The objective does not match `Σ w_k C_k` of the completed coflows.
    ObjectiveMismatch {
        /// Claimed objective.
        claimed: f64,
        /// Recomputed objective.
        recomputed: f64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::InvalidTrace(e) => write!(f, "invalid trace: {}", e),
            VerifyError::CoflowCount { reported, coflows } => {
                write!(f, "{} completions for {} coflows", reported, coflows)
            }
            VerifyError::CompletionMismatch { coflow, claimed, replayed } => write!(
                f,
                "coflow {}: completion {:?}, but the replay gives {:?} (its last unit once \
                 fully delivered, None if cancelled first)",
                coflow, claimed, replayed
            ),
            VerifyError::ObjectiveMismatch { claimed, recomputed } => {
                write!(f, "objective {} but the completions give {}", claimed, recomputed)
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Evidence produced by a successful verification: the independently
/// replayed quantities plus the ordering the scheduler committed to, so
/// downstream consumers (diagnostics, CLIs) can report them without
/// re-deriving anything.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyReport {
    /// The scheduler's coflow permutation (indices into the instance).
    pub order: Vec<usize>,
    /// Completion slots re-derived by the independent netsim replay.
    pub replayed_completions: Vec<u64>,
    /// `Σ w_k C_k` recomputed from the replayed completions.
    pub objective: f64,
}

/// The one verifier: replays `trace` against `instance` under `plan`,
/// requires the replayed completions to equal `claimed` exactly, and
/// recomputes `Σ w_k C_k` over the completed coflows, which must match
/// `objective` up to a relative `1e-6`. Returns the replayed completions
/// and objective.
fn replay(
    instance: &Instance,
    plan: &FaultPlan,
    trace: &ScheduleTrace,
    claimed: &[Option<u64>],
    objective: f64,
) -> Result<(Vec<Option<u64>>, f64), VerifyError> {
    if claimed.len() != instance.len() {
        return Err(VerifyError::CoflowCount {
            reported: claimed.len(),
            coflows: instance.len(),
        });
    }
    let replayed = validate_trace(&instance.demand_matrices(), &instance.releases(), plan, trace)
        .map_err(VerifyError::InvalidTrace)?;
    if let Some(k) = (0..claimed.len()).find(|&k| claimed[k] != replayed[k]) {
        return Err(VerifyError::CompletionMismatch {
            coflow: k,
            claimed: claimed[k],
            replayed: replayed[k],
        });
    }
    let recomputed: f64 = replayed
        .iter()
        .zip(instance.coflows())
        .filter_map(|(c, cf)| c.map(|t| cf.weight * t as f64))
        .sum();
    if (recomputed - objective).abs() > 1e-6 * (1.0 + recomputed.abs()) {
        return Err(VerifyError::ObjectiveMismatch {
            claimed: objective,
            recomputed,
        });
    }
    Ok((replayed, recomputed))
}

/// Fully verifies a clean `outcome` against `instance` by replaying its
/// trace under the empty plan. On success returns the replay evidence
/// ([`VerifyReport`]).
pub fn verify_outcome(
    instance: &Instance,
    outcome: &ScheduleOutcome,
) -> Result<VerifyReport, VerifyError> {
    let claimed: Vec<Option<u64>> = outcome.completions.iter().copied().map(Some).collect();
    let (replayed, objective) = replay(
        instance,
        &FaultPlan::default(),
        &outcome.trace,
        &claimed,
        outcome.objective,
    )?;
    Ok(VerifyReport {
        order: outcome.order.clone(),
        // The empty plan cancels nothing: every replayed coflow completed.
        replayed_completions: replayed.into_iter().flatten().collect(),
        objective,
    })
}

/// Verifies a [`FaultyOutcome`] against the instance and `plan` with the
/// same replay as [`verify_outcome`]: every executed slot satisfies the
/// `2m` matching constraints and moves only real, released demand over
/// open links before its coflow's cancellation; every coflow the plan does
/// not cancel is delivered exactly; the completions (`None` for a coflow
/// cancelled before completing) are the replay's, and `objective` is
/// `Σ w_k C_k` over the completed coflows. Returns the first violation.
pub fn verify_faulty_outcome(
    instance: &Instance,
    plan: &FaultPlan,
    out: &FaultyOutcome,
) -> Result<(), String> {
    replay(instance, plan, &out.executed, &out.completions, out.objective)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::ordering::OrderRule;
    use crate::sched::{run, AlgorithmSpec};
    use coflow_matching::IntMatrix;

    #[test]
    fn verifies_a_correct_outcome() {
        let inst = Instance::new(
            2,
            vec![
                Coflow::new(0, IntMatrix::from_nested(&[[1, 2], [2, 1]])),
                Coflow::new(1, IntMatrix::from_nested(&[[0, 3], [1, 0]])),
            ],
        );
        let out = run(
            &inst,
            &AlgorithmSpec {
                order: OrderRule::LoadOverWeight,
                grouping: true,
                backfill: true,
            },
        );
        let report = verify_outcome(&inst, &out).expect("outcome must verify");
        assert_eq!(report.order, out.order);
        assert_eq!(report.replayed_completions, out.completions);
        assert!((report.objective - out.objective).abs() < 1e-9);
    }

    #[test]
    fn detects_tampered_completions() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 1]]))],
        );
        let mut out = run(&inst, &AlgorithmSpec::algorithm2());
        out.completions[0] += 1;
        assert!(matches!(
            verify_outcome(&inst, &out),
            Err(VerifyError::CompletionMismatch { .. })
        ));
    }

    #[test]
    fn detects_tampered_objective() {
        let inst = Instance::new(
            2,
            vec![Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 1]]))],
        );
        let mut out = run(&inst, &AlgorithmSpec::algorithm2());
        out.objective += 100.0;
        assert!(matches!(
            verify_outcome(&inst, &out),
            Err(VerifyError::ObjectiveMismatch { .. })
        ));
    }

    /// PR-15's doctored outcomes, pointed at both verifiers: a moved
    /// completion, a halved objective and a dropped completion are each
    /// rejected, clean and under faults, with the same replay.
    #[test]
    fn doctored_outcomes_are_rejected_by_both_verifiers() {
        use crate::sched::engine::{run_policy, run_policy_with_faults};
        use crate::sched::ordered::{OnlineOptions, OnlineRhoPolicy};
        use coflow_netsim::{FaultEvent, FaultPlan};

        let inst = Instance::new(
            2,
            vec![
                Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0),
                Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]])),
                Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]])).with_weight(0.5),
            ],
        );
        let plan = FaultPlan::new(vec![
            FaultEvent::IngressOutage { port: 0, start: 2, end: 5 },
            FaultEvent::CoflowCancelled { coflow: 2, at: 3 },
        ]);
        let online = || OnlineRhoPolicy::new(&inst, OnlineOptions::default());
        let clean = run_policy(&inst, &mut online()).unwrap();
        let faulty = run_policy_with_faults(&inst, &mut online(), &plan).unwrap();
        verify_outcome(&inst, &clean).unwrap();
        verify_faulty_outcome(&inst, &plan, &faulty).unwrap();
        assert_eq!(faulty.completions[2], None, "coflow 2 is cancelled");

        let k = 0;
        let mut moved = clean.clone();
        moved.completions[k] += 1000;
        let err = verify_outcome(&inst, &moved).unwrap_err();
        assert!(err.to_string().contains("last unit"), "{}", err);
        let mut moved = faulty.clone();
        moved.completions[k] = moved.completions[k].map(|t| t + 1000);
        let err = verify_faulty_outcome(&inst, &plan, &moved).unwrap_err();
        assert!(err.contains("last unit"), "{}", err);

        let mut halved = clean.clone();
        halved.objective /= 2.0;
        let err = verify_outcome(&inst, &halved).unwrap_err();
        assert!(err.to_string().contains("objective"), "{}", err);
        let mut halved = faulty.clone();
        halved.objective /= 2.0;
        let err = verify_faulty_outcome(&inst, &plan, &halved).unwrap_err();
        assert!(err.contains("objective"), "{}", err);

        // A clean outcome cannot drop a completion (its type has none to
        // drop) but can drop a coflow; a faulty one can report a delivered
        // coflow as incomplete.
        let mut short = clean.clone();
        short.completions.pop();
        assert!(matches!(
            verify_outcome(&inst, &short),
            Err(VerifyError::CoflowCount { reported: 2, coflows: 3 })
        ));
        let mut dropped = faulty.clone();
        dropped.completions[k] = None;
        let err = verify_faulty_outcome(&inst, &plan, &dropped).unwrap_err();
        assert!(err.contains("fully delivered"), "{}", err);

        // A clean trace replayed under the plan breaks it; the fault
        // outcome's executed trace misses the cancelled demand cleanly.
        let mut as_faulty = faulty.clone();
        as_faulty.executed = clean.trace.clone();
        assert!(verify_faulty_outcome(&inst, &plan, &as_faulty).is_err());
        let mut as_clean = clean.clone();
        as_clean.trace = faulty.executed.clone();
        assert!(matches!(
            verify_outcome(&inst, &as_clean),
            Err(VerifyError::InvalidTrace(ValidationError::UnderDelivery { .. }))
        ));
    }
}
