//! Pinned-objective regression gate for the scheduling engine.
//!
//! The engine refactor promised bit-identical schedules: every grid cell,
//! the online ρ/w scheduler (fresh and stale priorities), the greedy
//! baseline, and the fault-injected combinations must keep producing the
//! exact objectives they produced when the pins were written. This module
//! computes those objectives on a deterministic arrivals instance, renders
//! them as `coflow-pins/1` JSON (`BENCH_pins.json`), and compares a fresh
//! run against the committed file — objectives are matched on their f64
//! **bit patterns**, so even a last-ulp drift fails the gate.
//!
//! The report also records the wall-clock of the engine-driven section
//! (online + greedy + fault combos, the paths the old hand loops served);
//! `scripts/check-perf.sh` uses it as a no-slower-than-baseline overhead
//! gate with a generous tolerance, mirroring the per-stage profile gate.

use crate::arrivals::arrivals_instance;
use crate::grid::{case_label, run_grid};
use crate::table1::ORDERS;
use coflow::{
    compute_order, run_policy, run_policy_with_faults, verify_faulty_outcome, AlgorithmSpec,
    FaultyOutcome, GreedyPolicy, ImPurohitPolicy, Instance, OnlineOptions, OnlineRhoPolicy,
    OrderRule, Policy, ResilientPolicy, ScheduleOutcome, ShafieeGhaderiPolicy,
};
use coflow_lp::SimplexOptions;
use coflow_netsim::FaultPlan;
use coflow_workloads::json::{self, fmt_f64, JsonValue};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag of the pin file; bump on layout changes.
pub const SCHEMA: &str = "coflow-pins/1";

/// Fault rate of the pinned fault-injected cells.
pub const FAULT_RATE: f64 = 0.3;

/// Fault rate of the successor-policy fault cells (`faults20/*`) — the
/// tournament's shared rate. The plan stream is decoupled from the 0.3
/// plan by [`FAULT20_SEED_OFFSET`].
pub const FAULT_RATE_20: f64 = 0.2;

/// Seed offset of the `faults20/*` plan stream relative to the pin seed.
pub const FAULT20_SEED_OFFSET: u64 = 20;

/// Absolute wall-clock slack of the engine-overhead gate: differences
/// below this never fail, whatever the ratio (same reasoning as the
/// profile gate's noise floor, but the engine section is much shorter).
pub const ENGINE_FLOOR_MS: f64 = 50.0;

/// One pinned measurement.
#[derive(Clone, Debug)]
pub struct Pin {
    /// Stable label, e.g. `grid/H_LP/d`, `online/fixed`, `faults/greedy`.
    pub label: String,
    /// Total weighted completion time (over survivors for fault cells).
    pub objective: f64,
    /// Schedule makespan (executed-trace makespan for fault cells).
    pub makespan: u64,
}

/// A full pin run.
#[derive(Clone, Debug)]
pub struct PinReport {
    /// Instance seed.
    pub seed: u64,
    /// Wall-clock of the engine-driven section (online/greedy/faults), ms.
    pub engine_ms: f64,
    /// Every pinned cell, in a stable order.
    pub pins: Vec<Pin>,
}

/// Computes every pin on `instance` (must have release dates for the
/// online cells to be meaningful). Fault-injected outcomes are verified
/// before pinning; an invalid schedule panics — that is an engine bug.
pub fn collect_pins_on(instance: &Instance, seed: u64) -> PinReport {
    let mut pins = Vec::new();

    // The 12-cell grid (orders × cases), all executed by the engine's
    // BvN batch policy.
    let grid = run_grid(instance, &ORDERS);
    for &rule in &ORDERS {
        for &(grouping, backfill) in &crate::grid::CASES {
            let cell = &grid[&(rule, grouping, backfill)];
            pins.push(Pin {
                label: format!("grid/{}/{}", rule.name(), case_label(grouping, backfill)),
                objective: cell.objective,
                makespan: cell.makespan,
            });
        }
    }

    // Engine-only section: the policies the old hand loops used to serve,
    // plus the fault combinations that did not exist before the engine.
    let start = Instant::now();
    let order = compute_order(instance, OrderRule::LoadOverWeight);
    let online_fixed = clean(instance, OnlineRhoPolicy::new(instance, OnlineOptions::default()));
    let online_stale = clean(instance, OnlineRhoPolicy::new(instance, OnlineOptions::legacy()));
    let greedy = clean(instance, GreedyPolicy::new(instance, order.clone()));
    pins.push(Pin {
        label: "online/fixed".to_string(),
        objective: online_fixed.objective,
        makespan: online_fixed.makespan(),
    });
    pins.push(Pin {
        label: "online/stale".to_string(),
        objective: online_stale.objective,
        makespan: online_stale.makespan(),
    });
    pins.push(Pin {
        label: "greedy".to_string(),
        objective: greedy.objective,
        makespan: greedy.makespan(),
    });

    // Successor-paper policies (registry names): Shafiee–Ghaderi on the
    // H_pd primal-dual permutation, Im–Purohit on the LP order. The LP
    // order is solved once and shared with the fault cell below.
    let sg = clean(instance, ShafieeGhaderiPolicy::new(instance));
    let ip_order = compute_order(instance, OrderRule::LpBased);
    let ip = clean(instance, ImPurohitPolicy::with_order(instance, ip_order.clone()));
    pins.push(Pin {
        label: "shafiee-ghaderi".to_string(),
        objective: sg.objective,
        makespan: sg.makespan(),
    });
    pins.push(Pin {
        label: "im-purohit".to_string(),
        objective: ip.objective,
        makespan: ip.makespan(),
    });

    let horizon = online_fixed
        .makespan()
        .max(online_stale.makespan())
        .max(greedy.makespan())
        .max(1);
    let plan = FaultPlan::generate(instance.ports(), instance.len(), horizon, FAULT_RATE, seed);
    let spec = AlgorithmSpec {
        order: OrderRule::LoadOverWeight,
        grouping: true,
        backfill: true,
    };
    let resilient = faulty(
        instance,
        ResilientPolicy::new(spec, SimplexOptions::default()),
        &plan,
    );
    let online_faulty = faulty(
        instance,
        OnlineRhoPolicy::new(instance, OnlineOptions::default()),
        &plan,
    );
    let greedy_faulty = faulty(instance, GreedyPolicy::new(instance, order), &plan);
    for (label, out) in [
        ("faults/resilient", &resilient),
        ("faults/online", &online_faulty),
        ("faults/greedy", &greedy_faulty),
    ] {
        if let Err(e) = verify_faulty_outcome(instance, &plan, out) {
            panic!("pins: {} produced an invalid schedule: {}", label, e);
        }
        pins.push(Pin {
            label: label.to_string(),
            objective: out.objective,
            makespan: out.executed.makespan(),
        });
    }

    // The tournament's shared fault rate (0.20) for the successor
    // policies, on its own deterministic plan stream.
    let plan20 = pin_fault_plan_20(instance, seed, &[&online_fixed, &online_stale, &greedy, &sg, &ip]);
    let sg_faulty = faulty(instance, ShafieeGhaderiPolicy::new(instance), &plan20);
    let ip_faulty = faulty(instance, ImPurohitPolicy::with_order(instance, ip_order), &plan20);
    for (label, out) in [
        ("faults20/shafiee-ghaderi", &sg_faulty),
        ("faults20/im-purohit", &ip_faulty),
    ] {
        if let Err(e) = verify_faulty_outcome(instance, &plan20, out) {
            panic!("pins: {} produced an invalid schedule: {}", label, e);
        }
        pins.push(Pin {
            label: label.to_string(),
            objective: out.objective,
            makespan: out.executed.makespan(),
        });
    }
    let engine_ms = start.elapsed().as_secs_f64() * 1e3;

    PinReport { seed, engine_ms, pins }
}

/// Runs `policy` on the clean engine; an engine error is a bug.
fn clean(instance: &Instance, mut policy: impl Policy) -> ScheduleOutcome {
    run_policy(instance, &mut policy)
        .unwrap_or_else(|e| panic!("pins: {} hit an engine bug: {}", policy.name(), e))
}

/// Runs `policy` under `plan`; an engine error is a bug.
fn faulty(instance: &Instance, mut policy: impl Policy, plan: &FaultPlan) -> FaultyOutcome {
    run_policy_with_faults(instance, &mut policy, plan)
        .unwrap_or_else(|e| panic!("pins: {} under faults hit an engine bug: {}", policy.name(), e))
}

/// Computes the pins on the canonical arrivals instance (24 ports, 36
/// coflows, Poisson arrivals) — the configuration `BENCH_pins.json` was
/// written from.
pub fn collect_pins(seed: u64) -> PinReport {
    collect_pins_on(&arrivals_instance(24, 36, seed), seed)
}

/// Derives the `faults20/*` plan: rate [`FAULT_RATE_20`], horizon the max
/// clean makespan over the engine policies pinned before it, seed offset
/// [`FAULT20_SEED_OFFSET`]. Public so the checkpoint differential tests
/// reconstruct the exact plan a pin was measured under.
pub fn pin_fault_plan_20(
    instance: &Instance,
    seed: u64,
    clean: &[&coflow::ScheduleOutcome],
) -> FaultPlan {
    let horizon = clean.iter().map(|o| o.makespan()).max().unwrap_or(1).max(1);
    FaultPlan::generate(
        instance.ports(),
        instance.len(),
        horizon,
        FAULT_RATE_20,
        seed.wrapping_add(FAULT20_SEED_OFFSET),
    )
}

/// Serializes a pin run as `coflow-pins/1` JSON. Objectives are written
/// both as shortest-round-trip decimals and as raw bit patterns; the
/// comparison uses the bits.
pub fn render_pins_json(report: &PinReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", json::quote(SCHEMA));
    let _ = writeln!(out, "  \"seed\": {},", report.seed);
    let _ = writeln!(out, "  \"engine_ms\": {},", fmt_f64(report.engine_ms));
    out.push_str("  \"pins\": [\n");
    for (i, pin) in report.pins.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"label\": {}, \"objective\": {}, \"objective_bits\": {}, \"makespan\": {}}}",
            json::quote(&pin.label),
            fmt_f64(pin.objective),
            pin.objective.to_bits(),
            pin.makespan,
        );
        out.push_str(if i + 1 < report.pins.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn num_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Num(s) => s.parse().ok(),
        _ => None,
    }
}

fn num_u64(v: &JsonValue) -> Option<u64> {
    match v {
        JsonValue::Num(s) => s.parse().ok(),
        _ => None,
    }
}

/// Parses a serialized pin file back into a [`PinReport`] (objectives are
/// reconstructed from the bit patterns, so the round trip is exact).
pub fn parse_pins(text: &str) -> Result<PinReport, String> {
    let doc = json::parse(text).map_err(|e| format!("parse: {}", e))?;
    match doc.get("schema") {
        Some(JsonValue::Str(s)) if s == SCHEMA => {}
        other => {
            return Err(format!("unsupported schema {:?} (expected {})", other, SCHEMA))
        }
    }
    let seed = doc.get("seed").and_then(num_u64).ok_or("missing 'seed'")?;
    let engine_ms = doc
        .get("engine_ms")
        .and_then(num_f64)
        .ok_or("missing 'engine_ms'")?;
    let Some(JsonValue::Arr(rows)) = doc.get("pins") else {
        return Err("missing 'pins' array".to_string());
    };
    let mut pins = Vec::with_capacity(rows.len());
    for row in rows {
        let label = match row.get("label") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => return Err("pin missing 'label'".to_string()),
        };
        let bits = row
            .get("objective_bits")
            .and_then(num_u64)
            .ok_or_else(|| format!("pin {} missing 'objective_bits'", label))?;
        let makespan = row
            .get("makespan")
            .and_then(num_u64)
            .ok_or_else(|| format!("pin {} missing 'makespan'", label))?;
        pins.push(Pin {
            label,
            objective: f64::from_bits(bits),
            makespan,
        });
    }
    if pins.is_empty() {
        return Err("pin file has no pins".to_string());
    }
    Ok(PinReport { seed, engine_ms, pins })
}

/// Compares a fresh run against a committed pin file.
///
/// * every baseline pin must exist in the current run (and vice versa);
/// * objectives must match **bit for bit** and makespans exactly — the
///   engine promised bit-identical schedules, so any drift is a bug;
/// * the engine section must not be slower than the baseline by more than
///   `time_tolerance` (fractional) past [`ENGINE_FLOOR_MS`].
///
/// Returns a one-line summary on success, the first violation otherwise.
pub fn compare_pins(
    baseline: &PinReport,
    current: &PinReport,
    time_tolerance: f64,
) -> Result<String, String> {
    if baseline.seed != current.seed {
        return Err(format!(
            "seed mismatch: baseline {} vs current {}",
            baseline.seed, current.seed
        ));
    }
    for pin in &baseline.pins {
        let Some(cur) = current.pins.iter().find(|p| p.label == pin.label) else {
            return Err(format!("pin '{}' missing from current run", pin.label));
        };
        if cur.objective.to_bits() != pin.objective.to_bits() {
            return Err(format!(
                "pin '{}': objective drifted from {} (bits {:#x}) to {} (bits {:#x})",
                pin.label,
                pin.objective,
                pin.objective.to_bits(),
                cur.objective,
                cur.objective.to_bits(),
            ));
        }
        if cur.makespan != pin.makespan {
            return Err(format!(
                "pin '{}': makespan drifted from {} to {}",
                pin.label, pin.makespan, cur.makespan
            ));
        }
    }
    for pin in &current.pins {
        if !baseline.pins.iter().any(|p| p.label == pin.label) {
            return Err(format!("pin '{}' not present in baseline", pin.label));
        }
    }
    let budget = baseline.engine_ms * (1.0 + time_tolerance) + ENGINE_FLOOR_MS;
    if current.engine_ms > budget {
        return Err(format!(
            "engine section regressed: {:.1} ms vs baseline {:.1} ms (budget {:.1} ms)",
            current.engine_ms, baseline.engine_ms, budget
        ));
    }
    Ok(format!(
        "{} pins bit-identical, engine section {:.1} ms (baseline {:.1} ms)",
        baseline.pins.len(),
        current.engine_ms,
        baseline.engine_ms
    ))
}

/// Plain-text table of a pin run.
pub fn render_pins(report: &PinReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== pins: seed {}, engine section {:.1} ms ==",
        report.seed, report.engine_ms
    );
    let _ = writeln!(out, "{:<22} {:>14} {:>9}", "cell", "objective", "makespan");
    for pin in &report.pins {
        let _ = writeln!(
            out,
            "{:<22} {:>14.1} {:>9}",
            pin.label, pin.objective, pin.makespan
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PinReport {
        collect_pins_on(&arrivals_instance(8, 10, 3), 3)
    }

    #[test]
    fn pins_cover_grid_policies_and_fault_combos() {
        let report = tiny_report();
        let labels: Vec<&str> = report.pins.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            report.pins.len(),
            22,
            "12 grid + 5 policies + 3 fault cells + 2 faults20 cells"
        );
        for required in [
            "grid/H_LP/d",
            "grid/H_A/a",
            "online/fixed",
            "online/stale",
            "greedy",
            "shafiee-ghaderi",
            "im-purohit",
            "faults/resilient",
            "faults/online",
            "faults/greedy",
            "faults20/shafiee-ghaderi",
            "faults20/im-purohit",
        ] {
            assert!(labels.contains(&required), "missing pin {}", required);
        }
        assert!(report.engine_ms > 0.0);
    }

    #[test]
    fn pin_json_round_trips_exactly_and_self_compares_clean() {
        let report = tiny_report();
        let parsed = parse_pins(&render_pins_json(&report)).expect("round trip");
        assert_eq!(parsed.pins.len(), report.pins.len());
        for (a, b) in report.pins.iter().zip(&parsed.pins) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.makespan, b.makespan);
        }
        let summary = compare_pins(&parsed, &report, 1.0).expect("self-compare");
        assert!(summary.contains("bit-identical"));
    }

    #[test]
    fn comparison_catches_last_ulp_drift_and_slow_engines() {
        let report = tiny_report();
        let mut drifted = report.clone();
        drifted.pins[0].objective =
            f64::from_bits(drifted.pins[0].objective.to_bits() + 1);
        assert!(compare_pins(&report, &drifted, 1.0).is_err(), "1-ulp drift must fail");

        let mut slow = report.clone();
        slow.engine_ms = report.engine_ms * 3.0 + ENGINE_FLOOR_MS * 2.0;
        assert!(compare_pins(&report, &slow, 1.0).is_err(), "slow engine must fail");

        let mut renamed = report.clone();
        renamed.pins[0].label = "grid/H_X/z".to_string();
        assert!(compare_pins(&report, &renamed, 1.0).is_err(), "label drift must fail");
    }

    #[test]
    fn parser_rejects_foreign_schemas() {
        assert!(parse_pins("{\"schema\": \"other/9\", \"pins\": []}").is_err());
    }
}
