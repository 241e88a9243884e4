//! Independent validation of schedule traces.
//!
//! Every scheduler in this project is checked end-to-end: the trace it
//! produces is replayed here against the *original* instance data, the
//! fault plan it ran under, and the formal constraints of problem (O) —
//! matching constraints per slot, release dates, and exact demand delivery
//! — and completion times are recomputed from scratch. The replay shares
//! no code with the executor ([`crate::FaultSim`]); tests and both outcome
//! verifiers compare its completions against the scheduler's own
//! accounting.

use crate::fault::FaultPlan;
use crate::trace::ScheduleTrace;
use coflow_matching::IntMatrix;

/// A violation found while validating a trace.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// An ingress or egress port was matched twice within one run.
    PortReused {
        /// Index of the offending run.
        run: usize,
        /// The reused port.
        port: usize,
        /// True for an ingress port, false for an egress port.
        ingress: bool,
    },
    /// A pair moved more units than the run duration allows.
    PairOverCapacity {
        /// Index of the offending run.
        run: usize,
        /// Ingress of the pair.
        src: usize,
        /// Egress of the pair.
        dst: usize,
        /// Units attempted.
        units: u64,
        /// Slots available.
        capacity: u64,
    },
    /// A coflow's unit was moved in a slot before its release allows.
    ReleaseViolated {
        /// Index of the offending run.
        run: usize,
        /// The coflow.
        coflow: usize,
        /// Slot of the first offending unit.
        slot: u64,
        /// The coflow's release date.
        release: u64,
    },
    /// More units moved on a pair than the coflow demands there.
    OverDelivery {
        /// The coflow.
        coflow: usize,
        /// Ingress of the pair.
        src: usize,
        /// Egress of the pair.
        dst: usize,
    },
    /// Demand left undelivered at the end of the trace.
    UnderDelivery {
        /// The coflow.
        coflow: usize,
        /// Units never delivered.
        missing: u64,
    },
    /// A transfer references a coflow index outside the instance.
    UnknownCoflow {
        /// The offending index.
        coflow: usize,
    },
    /// A transfer references a port outside the trace's fabric.
    PortOutOfRange {
        /// Index of the offending run.
        run: usize,
        /// The offending port index.
        port: usize,
        /// Fabric size (`trace.m`).
        ports: usize,
    },
    /// A demand matrix's width differs from the trace's fabric size.
    WidthMismatch {
        /// The coflow whose demand has the wrong width.
        coflow: usize,
        /// Its demand matrix width.
        width: usize,
        /// Fabric size (`trace.m`).
        ports: usize,
    },
    /// The instance gives a different number of demands and releases.
    LengthMismatch {
        /// Number of demand matrices.
        demands: usize,
        /// Number of release dates.
        releases: usize,
    },
    /// A run starts before the previous run ends.
    RunsOverlap {
        /// Index of the offending run.
        run: usize,
    },
    /// A unit moved in a slot where the plan closes its link.
    ClosedLink {
        /// Index of the offending run.
        run: usize,
        /// Ingress of the link.
        src: usize,
        /// Egress of the link.
        dst: usize,
        /// The closed slot.
        slot: u64,
    },
    /// A unit of a coflow moved at or after the slot the plan cancels it.
    ServedAfterCancellation {
        /// Index of the offending run.
        run: usize,
        /// The coflow.
        coflow: usize,
        /// Slot of the last unit of the offending transfer.
        slot: u64,
        /// The cancellation slot.
        at: u64,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self)
    }
}

impl std::error::Error for ValidationError {}

/// Replays `trace` against the instance (`demands`, `releases`) under
/// `plan` and returns the recomputed completion time of every coflow.
///
/// Runs may hold a matching for many slots. Each unit must move in a slot
/// the plan leaves open for its link, and before the slot the plan cancels
/// its coflow. A coflow with undelivered demand is `None` when the plan
/// cancels it and an [`ValidationError::UnderDelivery`] otherwise; coflows
/// with zero demand complete at their release date, as in
/// [`crate::FaultSim`].
pub fn validate_trace(
    demands: &[IntMatrix],
    releases: &[u64],
    plan: &FaultPlan,
    trace: &ScheduleTrace,
) -> Result<Vec<Option<u64>>, ValidationError> {
    let _span = obs::span("netsim.validate");
    let n = demands.len();
    let m = trace.m;
    if releases.len() != n {
        return Err(ValidationError::LengthMismatch { demands: n, releases: releases.len() });
    }
    if let Some(k) = demands.iter().position(|d| d.dim() != m) {
        return Err(ValidationError::WidthMismatch { coflow: k, width: demands[k].dim(), ports: m });
    }
    let faulty = !plan.events.is_empty();
    let cancel_at: Vec<Option<u64>> = if faulty {
        (0..n).map(|k| plan.cancellation(k)).collect()
    } else {
        Vec::new()
    };
    let mut delivered: Vec<IntMatrix> = demands.iter().map(|d| IntMatrix::zeros(d.dim())).collect();
    let mut remaining_total: Vec<u64> = demands.iter().map(IntMatrix::total).collect();
    let mut completion: Vec<Option<u64>> = releases.iter().map(|&r| Some(r)).collect();
    let mut last_activity: Vec<u64> = vec![0; n];
    let mut run_end: u64 = 0;

    let mut src_used = vec![false; m];
    let mut dst_used = vec![false; m];
    let mut pair_dst = vec![usize::MAX; m];
    let mut pair_units = vec![0u64; m];
    let mut touched_src: Vec<usize> = Vec::new();
    let mut touched_dst: Vec<usize> = Vec::new();

    for (ridx, run) in trace.runs.iter().enumerate() {
        if run.start < run_end {
            return Err(ValidationError::RunsOverlap { run: ridx });
        }
        run_end = run.start + run.duration;
        for &s in &touched_src {
            src_used[s] = false;
            pair_dst[s] = usize::MAX;
            pair_units[s] = 0;
        }
        for &d in &touched_dst {
            dst_used[d] = false;
        }
        touched_src.clear();
        touched_dst.clear();

        for t in &run.transfers {
            if t.coflow >= n {
                return Err(ValidationError::UnknownCoflow { coflow: t.coflow });
            }
            if let Some(&port) = [t.src, t.dst].iter().find(|&&p| p >= m) {
                return Err(ValidationError::PortOutOfRange { run: ridx, port, ports: m });
            }
            if pair_dst[t.src] != t.dst {
                if src_used[t.src] {
                    return Err(ValidationError::PortReused {
                        run: ridx,
                        port: t.src,
                        ingress: true,
                    });
                }
                if dst_used[t.dst] {
                    return Err(ValidationError::PortReused {
                        run: ridx,
                        port: t.dst,
                        ingress: false,
                    });
                }
                src_used[t.src] = true;
                dst_used[t.dst] = true;
                pair_dst[t.src] = t.dst;
                touched_src.push(t.src);
                touched_dst.push(t.dst);
            }
            let used = &mut pair_units[t.src];
            if *used + t.units > run.duration {
                return Err(ValidationError::PairOverCapacity {
                    run: ridx,
                    src: t.src,
                    dst: t.dst,
                    units: *used + t.units,
                    capacity: run.duration,
                });
            }
            // Slots occupied by this transfer: run.start + used .. + units - 1.
            let first_slot = run.start + *used;
            if first_slot <= releases[t.coflow] {
                return Err(ValidationError::ReleaseViolated {
                    run: ridx,
                    coflow: t.coflow,
                    slot: first_slot,
                    release: releases[t.coflow],
                });
            }
            let last_slot = first_slot + t.units - 1;
            *used += t.units;
            if faulty {
                if let Some(slot) =
                    (first_slot..=last_slot).find(|&s| !plan.pair_open(t.src, t.dst, s))
                {
                    return Err(ValidationError::ClosedLink {
                        run: ridx,
                        src: t.src,
                        dst: t.dst,
                        slot,
                    });
                }
                if let Some(at) = cancel_at[t.coflow].filter(|&at| last_slot >= at) {
                    return Err(ValidationError::ServedAfterCancellation {
                        run: ridx,
                        coflow: t.coflow,
                        slot: last_slot,
                        at,
                    });
                }
            }

            let cell = &mut delivered[t.coflow][(t.src, t.dst)];
            *cell += t.units;
            if *cell > demands[t.coflow][(t.src, t.dst)] {
                return Err(ValidationError::OverDelivery {
                    coflow: t.coflow,
                    src: t.src,
                    dst: t.dst,
                });
            }
            remaining_total[t.coflow] -= t.units;
            // Pairs run in parallel within a run: a coflow completes at the
            // latest last-slot over all of its transfers.
            last_activity[t.coflow] = last_activity[t.coflow].max(last_slot);
            if remaining_total[t.coflow] == 0 {
                completion[t.coflow] = Some(last_activity[t.coflow]);
            }
        }
    }

    for (k, &rem) in remaining_total.iter().enumerate() {
        if rem == 0 {
            continue;
        }
        if faulty && cancel_at[k].is_some() {
            completion[k] = None;
        } else {
            return Err(ValidationError::UnderDelivery {
                coflow: k,
                missing: rem,
            });
        }
    }
    Ok(completion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultSim};
    use crate::trace::{Run, Transfer};

    fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    #[test]
    fn executor_trace_validates_and_times_agree() {
        let d0 = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
        let demands = vec![d0];
        let mut f = FaultSim::new(2, demands.clone(), &[0], clean());
        f.apply_run(&[(0, 0, vec![0]), (1, 1, vec![0])], 1).unwrap();
        f.apply_run(&[(0, 1, vec![0]), (1, 0, vec![0])], 2).unwrap();
        let (trace, times, _) = f.finish();
        let validated = validate_trace(&demands, &[0], &clean(), &trace).expect("valid");
        assert_eq!(validated, times);
    }

    fn one_pair_run(start: u64, duration: u64, units: u64) -> ScheduleTrace {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start,
            duration,
            transfers: vec![Transfer { src: 0, dst: 1, coflow: 0, units }],
        });
        trace
    }

    #[test]
    fn plan_closes_links_and_cancels_coflows() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 3;
        let outage = FaultPlan::new(vec![FaultEvent::EgressOutage { port: 1, start: 2, end: 2 }]);
        let trace = one_pair_run(1, 3, 3);
        let err = validate_trace(&[d.clone()], &[0], &outage, &trace).unwrap_err();
        assert_eq!(err, ValidationError::ClosedLink { run: 0, src: 0, dst: 1, slot: 2 });

        // Delivering two of three units before a cancellation at slot 3
        // leaves the coflow cancelled, not under-delivered.
        let cancel = FaultPlan::new(vec![FaultEvent::CoflowCancelled { coflow: 0, at: 3 }]);
        let partial = one_pair_run(1, 2, 2);
        assert_eq!(validate_trace(&[d.clone()], &[0], &cancel, &partial), Ok(vec![None]));
        let err = validate_trace(&[d.clone()], &[0], &cancel, &trace).unwrap_err();
        assert_eq!(
            err,
            ValidationError::ServedAfterCancellation { run: 0, coflow: 0, slot: 3, at: 3 }
        );
        // Without the cancellation the same prefix is under-delivery.
        assert!(matches!(
            validate_trace(&[d], &[0], &clean(), &partial),
            Err(ValidationError::UnderDelivery { missing: 1, .. })
        ));
    }

    #[test]
    fn rejects_shape_mismatches_without_panicking() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 1;
        let mut trace = one_pair_run(1, 1, 1);
        trace.runs[0].transfers[0].dst = 5;
        assert_eq!(
            validate_trace(&[d.clone()], &[0], &clean(), &trace).unwrap_err(),
            ValidationError::PortOutOfRange { run: 0, port: 5, ports: 2 }
        );
        let ok = one_pair_run(1, 1, 1);
        assert_eq!(
            validate_trace(&[IntMatrix::zeros(3)], &[0], &clean(), &ok).unwrap_err(),
            ValidationError::WidthMismatch { coflow: 0, width: 3, ports: 2 }
        );
        assert_eq!(
            validate_trace(&[d], &[0, 0], &clean(), &ok).unwrap_err(),
            ValidationError::LengthMismatch { demands: 1, releases: 2 }
        );
    }

    #[test]
    fn detects_overlapping_runs() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 2;
        let mut trace = one_pair_run(1, 2, 1);
        trace.runs.push(Run {
            start: 2,
            duration: 1,
            transfers: vec![Transfer { src: 0, dst: 1, coflow: 0, units: 1 }],
        });
        assert_eq!(
            validate_trace(&[d], &[0], &clean(), &trace).unwrap_err(),
            ValidationError::RunsOverlap { run: 1 }
        );
    }

    #[test]
    fn detects_port_reuse() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 0)] = 1;
        d[(0, 1)] = 1;
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 1,
            transfers: vec![
                Transfer { src: 0, dst: 0, coflow: 0, units: 1 },
                Transfer { src: 0, dst: 1, coflow: 0, units: 1 },
            ],
        });
        let err = validate_trace(&[d], &[0], &clean(), &trace).unwrap_err();
        assert!(matches!(err, ValidationError::PortReused { ingress: true, .. }));
    }

    #[test]
    fn detects_over_capacity() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 5;
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 3,
            transfers: vec![Transfer { src: 0, dst: 1, coflow: 0, units: 5 }],
        });
        let err = validate_trace(&[d], &[0], &clean(), &trace).unwrap_err();
        assert!(matches!(err, ValidationError::PairOverCapacity { .. }));
    }

    #[test]
    fn detects_release_violation() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 1;
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 1,
            transfers: vec![Transfer { src: 0, dst: 1, coflow: 0, units: 1 }],
        });
        let err = validate_trace(&[d.clone()], &[5], &clean(), &trace).unwrap_err();
        assert!(matches!(err, ValidationError::ReleaseViolated { .. }));
        // Released at 0: slot 1 is fine.
        assert!(validate_trace(&[d], &[0], &clean(), &trace).is_ok());
    }

    #[test]
    fn detects_under_and_over_delivery() {
        let mut d = IntMatrix::zeros(2);
        d[(0, 1)] = 2;
        let empty = ScheduleTrace::new(2);
        let err = validate_trace(&[d.clone()], &[0], &clean(), &empty).unwrap_err();
        assert!(matches!(err, ValidationError::UnderDelivery { missing: 2, .. }));

        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 3,
            transfers: vec![Transfer { src: 0, dst: 1, coflow: 0, units: 3 }],
        });
        let err = validate_trace(&[d], &[0], &clean(), &trace).unwrap_err();
        assert!(matches!(err, ValidationError::OverDelivery { .. }));
    }

    #[test]
    fn mid_run_release_offsets_allowed() {
        // Run starts at slot 1 but coflow 1's units begin at offset 2
        // (slot 3), which is legal with release date 2.
        let mut d0 = IntMatrix::zeros(2);
        d0[(0, 1)] = 2;
        let mut d1 = IntMatrix::zeros(2);
        d1[(0, 1)] = 1;
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 3,
            transfers: vec![
                Transfer { src: 0, dst: 1, coflow: 0, units: 2 },
                Transfer { src: 0, dst: 1, coflow: 1, units: 1 },
            ],
        });
        let times = validate_trace(&[d0, d1], &[0, 2], &clean(), &trace).expect("valid");
        assert_eq!(times, vec![Some(2), Some(3)]);
    }
}
