//! Fault-aware scheduling with epoch-based rescheduling.
//!
//! A [`ResilientPolicy`](super::engine::ResilientPolicy) run by
//! [`run_policy_with_faults`](super::engine::run_policy_with_faults) closes
//! the loop between the resilient planner
//! ([`super::resilient`]) and the fault-injecting executor
//! ([`coflow_netsim::FaultSim`]): a schedule is planned for the current
//! residual demand, executed under the [`coflow_netsim::FaultPlan`] until the
//! fault state changes (an outage or degradation window opens or closes, or
//! a coflow is cancelled), and then — if any demand was stranded or the
//! plan was invalidated — replanned from the failure slot. Because every
//! fault window is finite, the final epoch runs fault-free, so all
//! surviving (non-cancelled) demand is guaranteed to complete.
//!
//! Each epoch is planned only as far as it executes: the replan orders and
//! groups the whole residual instance but runs the clean engine only up to
//! the epoch's stop boundary ([`super::engine::EpochState::execute_until`],
//! the first boundary after `now + 1`), because runs starting at or after
//! it are never executed. A batch decision at slot `t` depends only on the
//! fabric state at `t`, so the planned runs are exactly the prefix of a
//! full-horizon plan and the executed schedule is unchanged.
//!
//! The epoch loop itself is the engine's one loop,
//! [`Engine::step`](super::engine::Engine::step); it also hosts the
//! greedy-family policies (`sched::ordered`) with uniformly populated
//! [`FaultyOutcome::replans`]/[`FaultyOutcome::tiers`]. This module holds
//! the outcome type; [`crate::verify::verify_faulty_outcome`] checks it
//! with the same plan-aware replay as clean outcomes.

use coflow_netsim::{BlockedSlot, ScheduleTrace};

/// The result of executing an instance to quiescence under a fault plan.
#[derive(Clone, Debug)]
pub struct FaultyOutcome {
    /// Completion slot per coflow; `None` means the coflow was cancelled
    /// before completing.
    pub completions: Vec<Option<u64>>,
    /// The slots actually executed: a matching held through a fault window
    /// in which all its pairs were open is one run, as on a clean fabric;
    /// every other slot is a 1-slot run of the units it delivered.
    pub executed: ScheduleTrace,
    /// `Σ w_k C_k` over the surviving (completed) coflows.
    pub objective: f64,
    /// Number of planning epochs (1 = no replanning was needed).
    pub replans: usize,
    /// Fallback tier used at each planning epoch (0 = requested rule).
    pub tiers: Vec<usize>,
    /// Planned units stranded by outages or degradations.
    pub blocked_units: u64,
    /// Chronological log of individual blocked unit-slots (capped inside
    /// [`coflow_netsim::FaultSim`]; `blocked_units` above stays exact past
    /// the cap). The diagnostics layer joins this with the flight recorder
    /// to attribute fault-induced delay per coflow.
    pub blocked: Vec<BlockedSlot>,
}

impl FaultyOutcome {
    /// True when any planning epoch degraded below the requested rule.
    pub fn degraded(&self) -> bool {
        self.tiers.iter().any(|&t| t > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use crate::instance::Instance;
    use crate::verify::verify_faulty_outcome;
    use crate::ordering::OrderRule;
    use crate::sched::engine::{run_policy_with_faults, ResilientPolicy};
    use crate::sched::AlgorithmSpec;
    use coflow_lp::SimplexOptions;
    use coflow_matching::IntMatrix;
    use coflow_netsim::{FaultEvent, FaultPlan};

    fn resilient_under_faults(
        instance: &Instance,
        spec: &AlgorithmSpec,
        lp_opts: &SimplexOptions,
        plan: &FaultPlan,
    ) -> FaultyOutcome {
        let mut policy = ResilientPolicy::new(*spec, lp_opts.clone());
        run_policy_with_faults(instance, &mut policy, plan).unwrap()
    }

    fn inst() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]])).with_weight(0.5);
        Instance::new(2, vec![c0, c1, c2])
    }

    #[test]
    fn no_faults_matches_plain_scheduling() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let out = resilient_under_faults(
            &instance,
            &spec,
            &SimplexOptions::default(),
            &FaultPlan::default(),
        );
        assert_eq!(out.replans, 1);
        assert_eq!(out.blocked_units, 0);
        assert!(out.completions.iter().all(Option::is_some));
        let plain = super::super::run(&instance, &spec);
        let faulty: Vec<u64> = out.completions.iter().map(|c| c.unwrap()).collect();
        assert_eq!(faulty, plain.completions);
        assert!((out.objective - plain.objective).abs() < 1e-9);
        verify_faulty_outcome(&instance, &FaultPlan::default(), &out).unwrap();
    }

    #[test]
    fn outage_strands_then_recovery_completes_everything() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let plan = FaultPlan::new(vec![FaultEvent::IngressOutage { port: 1, start: 1, end: 4 }]);
        let out = resilient_under_faults(&instance, &spec, &SimplexOptions::default(), &plan);
        assert!(out.completions.iter().all(Option::is_some));
        assert!(out.replans >= 2, "stranded demand must force a replan");
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
        // Faults can only delay the objective.
        let plain = super::super::run(&instance, &spec);
        assert!(out.objective >= plain.objective - 1e-9);
    }

    #[test]
    fn cancellation_drops_a_coflow_from_the_objective() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let plan = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 1, at: 1 }]);
        let out = resilient_under_faults(&instance, &spec, &SimplexOptions::default(), &plan);
        assert_eq!(out.completions[1], None);
        assert!(out.completions[0].is_some() && out.completions[2].is_some());
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
    }

    #[test]
    fn starved_lp_degrades_but_still_recovers() {
        let instance = inst();
        let spec = AlgorithmSpec::algorithm2();
        let starved = SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        };
        let plan = FaultPlan::new(vec![
            FaultEvent::EgressOutage { port: 0, start: 2, end: 3 },
            FaultEvent::CoflowCancelled { coflow: 2, at: 5 },
        ]);
        let out = resilient_under_faults(&instance, &spec, &starved, &plan);
        assert!(out.degraded(), "0-pivot budget must force the fallback tier");
        assert!(out.tiers.iter().all(|&t| t == 1));
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
    }

    #[test]
    fn generated_plans_always_settle() {
        let instance = inst();
        let spec = AlgorithmSpec {
            order: OrderRule::LoadOverWeight,
            grouping: true,
            backfill: true,
        };
        for seed in 0..20 {
            let plan = FaultPlan::generate(2, instance.len(), 12, 0.6, seed);
            let out = resilient_under_faults(&instance, &spec, &SimplexOptions::default(), &plan);
            verify_faulty_outcome(&instance, &plan, &out)
                .unwrap_or_else(|e| panic!("seed {}: {}", seed, e));
        }
    }

    #[test]
    fn zero_demand_coflow_completes_at_its_release() {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[1, 0], [0, 0]]));
        let c1 = Coflow::new(1, IntMatrix::zeros(2)).with_release(4);
        let instance = Instance::new(2, vec![c0, c1]);
        let plan = FaultPlan::default();
        let spec = AlgorithmSpec::algorithm2();
        let out = resilient_under_faults(&instance, &spec, &SimplexOptions::default(), &plan);
        assert_eq!(out.completions, vec![Some(1), Some(4)]);
        verify_faulty_outcome(&instance, &plan, &out).unwrap();
        let mut doctored = out.clone();
        doctored.completions[1] = Some(1);
        doctored.objective = 2.0;
        assert!(verify_faulty_outcome(&instance, &plan, &doctored).is_err());
    }
}
