//! Failure injection: corrupt valid traces in targeted ways and check the
//! validator rejects each corruption with the *right* error. A validator
//! that silently accepts corrupted schedules would quietly void every other
//! guarantee in this repository, so each rejection path is exercised.

use coflow_matching::IntMatrix;
use coflow_netsim::{
    validate_trace, FaultPlan, FaultSim, Run, ScheduleTrace, Transfer, ValidationError,
};

/// A valid two-coflow instance and its trace.
fn valid_setup() -> (Vec<IntMatrix>, Vec<u64>, ScheduleTrace) {
    let mut d0 = IntMatrix::zeros(3);
    d0[(0, 1)] = 2;
    d0[(1, 2)] = 1;
    let mut d1 = IntMatrix::zeros(3);
    d1[(0, 1)] = 1;
    d1[(2, 0)] = 2;
    let demands = vec![d0, d1];
    let releases = vec![0, 1];
    let mut fabric = FaultSim::new(3, demands.clone(), &releases, FaultPlan::default());
    fabric.advance_to(1);
    fabric
        .apply_run(&[(0, 1, vec![0, 1]), (1, 2, vec![0]), (2, 0, vec![1])], 3)
        .expect("valid matching");
    let (trace, _, _) = fabric.finish();
    (demands, releases, trace)
}

#[test]
fn baseline_trace_is_valid() {
    let (demands, releases, trace) = valid_setup();
    let times = validate_trace(&demands, &releases, &FaultPlan::default(), &trace).expect("valid baseline");
    assert_eq!(times.len(), 2);
}

#[test]
fn dropping_a_transfer_is_under_delivery() {
    let (demands, releases, mut trace) = valid_setup();
    trace.runs[0].transfers.pop();
    let err = validate_trace(&demands, &releases, &FaultPlan::default(), &trace).unwrap_err();
    assert!(matches!(err, ValidationError::UnderDelivery { .. }), "{:?}", err);
}

#[test]
fn inflating_units_is_caught() {
    let (demands, releases, mut trace) = valid_setup();
    trace.runs[0].transfers[0].units += 5;
    let err = validate_trace(&demands, &releases, &FaultPlan::default(), &trace).unwrap_err();
    assert!(
        matches!(
            err,
            ValidationError::PairOverCapacity { .. } | ValidationError::OverDelivery { .. }
        ),
        "{:?}",
        err
    );
}

#[test]
fn duplicating_a_pair_on_another_source_is_port_reuse() {
    let (demands, releases, mut trace) = valid_setup();
    // Egress 1 is already used by pair (0,1); add (1,1) to clash.
    trace.runs[0].transfers.push(Transfer {
        src: 2,
        dst: 1,
        coflow: 0,
        units: 1,
    });
    let err = validate_trace(&demands, &releases, &FaultPlan::default(), &trace).unwrap_err();
    assert!(
        matches!(err, ValidationError::PortReused { ingress: false, .. })
            || matches!(err, ValidationError::PortReused { ingress: true, .. }),
        "{:?}",
        err
    );
}

#[test]
fn rewriting_coflow_attribution_is_over_delivery() {
    let (demands, releases, mut trace) = valid_setup();
    // Attribute coflow 1's (2,0) units to coflow 0, which has no demand
    // there.
    for t in &mut trace.runs[0].transfers {
        if t.src == 2 {
            t.coflow = 0;
        }
    }
    let err = validate_trace(&demands, &releases, &FaultPlan::default(), &trace).unwrap_err();
    assert!(
        matches!(
            err,
            ValidationError::OverDelivery { .. } | ValidationError::UnderDelivery { .. }
        ),
        "{:?}",
        err
    );
}

#[test]
fn shifting_a_run_before_release_is_caught() {
    let (demands, releases, trace) = valid_setup();
    // Rebuild the same transfers in a run starting at slot 1 — coflow 1 is
    // released at 1, so its first allowed slot is 2.
    let mut early = ScheduleTrace::new(3);
    early.push_run(Run {
        start: 1,
        duration: 3,
        transfers: trace.runs[0].transfers.clone(),
    });
    let err = validate_trace(&demands, &releases, &FaultPlan::default(), &early).unwrap_err();
    assert!(matches!(err, ValidationError::ReleaseViolated { coflow: 1, .. }), "{:?}", err);
}

#[test]
fn unknown_coflow_index_is_caught() {
    let (demands, releases, mut trace) = valid_setup();
    trace.runs[0].transfers[0].coflow = 99;
    let err = validate_trace(&demands, &releases, &FaultPlan::default(), &trace).unwrap_err();
    assert!(matches!(err, ValidationError::UnknownCoflow { coflow: 99 }), "{:?}", err);
}

#[test]
fn moving_units_across_pairs_is_caught() {
    let (demands, releases, mut trace) = valid_setup();
    // Divert coflow 0's (1,2) unit onto (1,0): no demand there.
    for t in &mut trace.runs[0].transfers {
        if t.src == 1 {
            t.dst = 0;
        }
    }
    let err = validate_trace(&demands, &releases, &FaultPlan::default(), &trace).unwrap_err();
    // Either the diverted pair over-delivers (no demand there) or the
    // original pair under-delivers — or the diverted pair collides with an
    // existing egress assignment.
    assert!(
        matches!(
            err,
            ValidationError::OverDelivery { .. }
                | ValidationError::UnderDelivery { .. }
                | ValidationError::PortReused { .. }
        ),
        "{:?}",
        err
    );
}

#[test]
fn out_of_range_ports_and_shapes_are_errors_not_panics() {
    let (demands, releases, mut trace) = valid_setup();
    let clean = FaultPlan::default();
    // A transfer naming a port past the fabric indexed out of bounds.
    let mut far = trace.clone();
    far.runs[0].transfers[0].src = 7;
    let err = validate_trace(&demands, &releases, &clean, &far).unwrap_err();
    assert_eq!(err, ValidationError::PortOutOfRange { run: 0, port: 7, ports: 3 });
    // A trace for a wider or narrower fabric than the demands.
    trace.m = 2;
    let err = validate_trace(&demands, &releases, &clean, &trace).unwrap_err();
    assert!(matches!(err, ValidationError::WidthMismatch { ports: 2, .. }), "{:?}", err);
    trace.m = 3;
    let err = validate_trace(&demands, &releases[..1], &clean, &trace).unwrap_err();
    assert_eq!(err, ValidationError::LengthMismatch { demands: 2, releases: 1 });
}

#[test]
fn delivery_over_a_downed_port_is_caught() {
    let (demands, releases, trace) = valid_setup();
    // The baseline moves (0,1) in slots 2..=4; take ingress 0 down in 3.
    let plan = FaultPlan::new(vec![coflow_netsim::FaultEvent::IngressOutage {
        port: 0,
        start: 3,
        end: 3,
    }]);
    let err = validate_trace(&demands, &releases, &plan, &trace).unwrap_err();
    assert_eq!(err, ValidationError::ClosedLink { run: 0, src: 0, dst: 1, slot: 3 });
}
