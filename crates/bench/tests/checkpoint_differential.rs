//! Differential proof of the checkpoint/resume contract: interrupting a
//! run at **every** decision epoch — checkpoint, serialize to the
//! `coflow-snapshot/1` document, re-parse, restore, continue — must land on
//! exactly the schedule an uninterrupted run produces, for every one of the
//! 22 pinned cells (12 grid cells, online fixed/stale, greedy, the
//! successor policies shafiee-ghaderi/im-purohit, the three rate-0.3 fault
//! combinations, and the two rate-0.2 `faults20/*` successor cells).
//!
//! Two granularities:
//!
//! * [`every_epoch_checkpoint_matches_fresh_pins_tiny`] runs in the normal
//!   test tier on a small instance, against freshly computed pins;
//! * [`every_epoch_checkpoint_matches_committed_pins`] (ignored by
//!   default; `scripts/check-perf.sh` runs it in release) replays the
//!   committed `BENCH_pins.json` cells at full pin scale — the same bit
//!   patterns the pin gate enforces must survive interruption at every
//!   single epoch.
//!
//! The clean cells (grid/online/greedy) are driven through the fault
//! engine with an **empty** fault plan; their bit-equality with the
//! committed pins doubles as a proof that the steppable engine and the
//! clean pipeline execute identically.

use coflow::{
    compute_order, group_by_doubling, run_policy, run_policy_with_faults, verify_faulty_outcome,
    AlgorithmSpec, BvnBatchPolicy, Engine, EngineSnapshot, ExecOptions, FaultyOutcome, GreedyPolicy,
    ImPurohitPolicy, Instance, OnlineOptions, OnlineRhoPolicy, OrderRule, Policy, ResilientPolicy,
    ScheduleOutcome, ShafieeGhaderiPolicy,
};
use coflow_bench::arrivals::arrivals_instance;
use coflow_bench::pins::{collect_pins_on, parse_pins, pin_fault_plan_20, Pin, FAULT_RATE};
use coflow_lp::SimplexOptions;
use coflow_netsim::FaultPlan;

/// Builds the policy a pin label names, exactly as the pin run builds it.
fn policy_for(instance: &Instance, label: &str) -> Box<dyn Policy> {
    if let Some(rest) = label.strip_prefix("grid/") {
        let (rule_name, case) = rest.split_once('/').expect("grid label");
        let rule = match rule_name {
            "H_A" => OrderRule::Arrival,
            "H_rho" => OrderRule::LoadOverWeight,
            "H_LP" => OrderRule::LpBased,
            other => panic!("unknown grid rule {}", other),
        };
        let (grouping, backfill) = match case {
            "a" => (false, false),
            "b" => (false, true),
            "c" => (true, false),
            "d" => (true, true),
            other => panic!("unknown grid case {}", other),
        };
        let order = compute_order(instance, rule);
        let batches: Vec<Vec<usize>> = if grouping {
            group_by_doubling(instance, &order).groups
        } else {
            order.iter().map(|&k| vec![k]).collect()
        };
        let opts = ExecOptions {
            backfill,
            ..ExecOptions::default()
        };
        return Box::new(BvnBatchPolicy::new(instance, order, batches, opts));
    }
    match label {
        "online/fixed" => Box::new(OnlineRhoPolicy::new(instance, OnlineOptions::default())),
        "online/stale" => Box::new(OnlineRhoPolicy::new(instance, OnlineOptions::legacy())),
        "greedy" => {
            let order = compute_order(instance, OrderRule::LoadOverWeight);
            Box::new(GreedyPolicy::new(instance, order))
        }
        "faults/resilient" => Box::new(ResilientPolicy::new(
            AlgorithmSpec {
                order: OrderRule::LoadOverWeight,
                grouping: true,
                backfill: true,
            },
            SimplexOptions::default(),
        )),
        "faults/online" => Box::new(OnlineRhoPolicy::new(instance, OnlineOptions::default())),
        "faults/greedy" => {
            let order = compute_order(instance, OrderRule::LoadOverWeight);
            Box::new(GreedyPolicy::new(instance, order))
        }
        "shafiee-ghaderi" | "faults20/shafiee-ghaderi" => {
            Box::new(ShafieeGhaderiPolicy::new(instance))
        }
        "im-purohit" | "faults20/im-purohit" => Box::new(ImPurohitPolicy::with_order(
            instance,
            compute_order(instance, OrderRule::LpBased),
        )),
        other => panic!("unknown pin label {}", other),
    }
}

fn clean(instance: &Instance, mut policy: impl Policy) -> ScheduleOutcome {
    run_policy(instance, &mut policy).expect("clean engine run")
}

/// The clean `online/fixed`, `online/stale` and `greedy` pin cells.
fn engine_cells(instance: &Instance) -> [ScheduleOutcome; 3] {
    [
        clean(instance, OnlineRhoPolicy::new(instance, OnlineOptions::default())),
        clean(instance, OnlineRhoPolicy::new(instance, OnlineOptions::legacy())),
        clean(
            instance,
            GreedyPolicy::new(instance, compute_order(instance, OrderRule::LoadOverWeight)),
        ),
    ]
}

/// The fault plan of the pin run: clean cells get the empty plan, fault
/// cells the seeded plan over the clean-makespan horizon (same derivation
/// as `collect_pins_on`).
fn pin_fault_plan(instance: &Instance, seed: u64) -> FaultPlan {
    let [online_fixed, online_stale, greedy] = engine_cells(instance);
    let horizon = online_fixed
        .makespan()
        .max(online_stale.makespan())
        .max(greedy.makespan())
        .max(1);
    FaultPlan::generate(instance.ports(), instance.len(), horizon, FAULT_RATE, seed)
}

/// The `faults20/*` plan of the pin run: rate 0.2 over the max clean
/// makespan of the five engine policies, on the offset seed stream (same
/// derivation as `collect_pins_on`).
fn faults20_plan(instance: &Instance, seed: u64) -> FaultPlan {
    let [online_fixed, online_stale, greedy] = engine_cells(instance);
    let sg = clean(instance, ShafieeGhaderiPolicy::new(instance));
    let ip = clean(
        instance,
        ImPurohitPolicy::with_order(instance, compute_order(instance, OrderRule::LpBased)),
    );
    pin_fault_plan_20(instance, seed, &[&online_fixed, &online_stale, &greedy, &sg, &ip])
}

/// Drives one cell, checkpointing after **every** decision epoch and
/// resuming from the checkpoint; every `json_stride`-th checkpoint (plus
/// the first three) additionally round-trips through the serialized
/// `coflow-snapshot/1` document before the restore. Returns the final
/// outcome and the epoch count.
fn run_with_checkpoint_every_epoch(
    instance: &Instance,
    mut policy: Box<dyn Policy>,
    plan: &FaultPlan,
    json_stride: u64,
) -> (FaultyOutcome, u64) {
    let mut engine = Engine::new(instance, plan);
    let mut epochs = 0u64;
    loop {
        let more = engine.step(policy.as_mut()).expect("engine step");
        epochs += 1;
        if !more {
            break;
        }
        let snapshot = engine.checkpoint(policy.as_ref()).expect("checkpoint");
        let snapshot = if epochs <= 3 || epochs % json_stride.max(1) == 0 {
            EngineSnapshot::from_json(&snapshot.to_json()).expect("snapshot round trip")
        } else {
            snapshot
        };
        let (restored_engine, restored_policy) =
            Engine::restore(instance, snapshot).expect("restore");
        engine = restored_engine;
        policy = restored_policy;
    }
    (engine.into_outcome(policy.as_mut()), epochs)
}

/// Checks one pinned cell: the every-epoch-interrupted run must equal the
/// uninterrupted reference bit for bit, and both must equal the pin.
fn check_cell(instance: &Instance, plan: &FaultPlan, pin: &Pin, json_stride: u64) {
    let mut reference_policy = policy_for(instance, &pin.label);
    let reference = run_policy_with_faults(instance, reference_policy.as_mut(), plan)
        .unwrap_or_else(|e| panic!("{}: reference run failed: {}", pin.label, e));
    verify_faulty_outcome(instance, plan, &reference)
        .unwrap_or_else(|e| panic!("{}: reference schedule invalid: {}", pin.label, e));

    let (interrupted, epochs) = run_with_checkpoint_every_epoch(
        instance,
        policy_for(instance, &pin.label),
        plan,
        json_stride,
    );
    assert!(epochs >= 1, "{}: no epochs ran", pin.label);

    assert_eq!(
        interrupted.objective.to_bits(),
        reference.objective.to_bits(),
        "{}: interrupted objective {} != reference {}",
        pin.label,
        interrupted.objective,
        reference.objective
    );
    assert_eq!(interrupted.replans, reference.replans, "{}: replans", pin.label);
    assert_eq!(interrupted.tiers, reference.tiers, "{}: tiers", pin.label);
    assert_eq!(interrupted.executed, reference.executed, "{}: executed trace", pin.label);
    assert_eq!(
        interrupted.completions, reference.completions,
        "{}: completions",
        pin.label
    );

    assert_eq!(
        interrupted.objective.to_bits(),
        pin.objective.to_bits(),
        "{}: objective {} (bits {:#x}) drifted from pin {} (bits {:#x})",
        pin.label,
        interrupted.objective,
        interrupted.objective.to_bits(),
        pin.objective,
        pin.objective.to_bits()
    );
    assert_eq!(
        interrupted.executed.makespan(),
        pin.makespan,
        "{}: makespan",
        pin.label
    );
}

fn check_all_pins(instance: &Instance, seed: u64, pins: &[Pin], json_stride: u64) {
    let empty = FaultPlan::new(vec![]);
    let faulted = pin_fault_plan(instance, seed);
    let faulted20 = faults20_plan(instance, seed);
    for pin in pins {
        let plan = if pin.label.starts_with("faults/") {
            &faulted
        } else if pin.label.starts_with("faults20/") {
            &faulted20
        } else {
            &empty
        };
        check_cell(instance, plan, pin, json_stride);
    }
}

/// Tier-1 scale: every cell, every epoch interrupted, every checkpoint
/// through the JSON document, against freshly computed pins.
#[test]
fn every_epoch_checkpoint_matches_fresh_pins_tiny() {
    let seed = 3;
    let instance = arrivals_instance(8, 10, seed);
    let report = collect_pins_on(&instance, seed);
    assert_eq!(report.pins.len(), 22);
    check_all_pins(&instance, seed, &report.pins, 1);
}

/// Full pin scale against the committed `BENCH_pins.json` bits. Heavy:
/// run with `cargo test --release -p coflow-bench --test
/// checkpoint_differential -- --ignored` (scripts/check-perf.sh does).
#[test]
#[ignore = "full pin scale; run in release via scripts/check-perf.sh"]
fn every_epoch_checkpoint_matches_committed_pins() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_pins.json"
    ))
    .expect("committed BENCH_pins.json (regenerate: experiments -- pin --out BENCH_pins.json)");
    let report = parse_pins(&text).expect("parse committed pins");
    assert_eq!(report.pins.len(), 22);
    let instance = arrivals_instance(24, 36, report.seed);
    // The serialized round trip is exercised on a stride: the snapshot
    // document grows with the executed trace, so rendering it at all of
    // the several thousand online epochs would dominate the run without
    // adding coverage (restore itself still happens at every epoch).
    check_all_pins(&instance, report.seed, &report.pins, 17);
}
