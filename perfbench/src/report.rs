//! Turns the timed loop's observations into the named metrics.

use crate::measure::{Run, BUILD_SPAN, RUN_SPAN};
use crate::stats::{median, quartiles, tail_percentile};
use crate::workload::SetupTimes;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median_or_nan(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

fn peak_rss_mb() -> f64 {
    obs::alloc::peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The end-to-end metrics, from untraced schedules.
pub fn end_to_end(setup: &SetupTimes, run: &Run) -> Vec<Metric> {
    let schedule_ms: Vec<f64> = run.timings.iter().map(|t| t.schedule_ms()).collect();
    let timed_s: f64 = schedule_ms.iter().sum::<f64>() / 1e3;
    if let Some((q1, q3)) = quartiles(&schedule_ms) {
        eprintln!(
            "perfbench: schedule_ms n={} q1={q1:.3} q3={q3:.3}; {} set-ups",
            schedule_ms.len(),
            setup.total_s.len()
        );
    }
    vec![
        metric("setup_s", median_or_nan(&setup.total_s), "s"),
        metric("coflows_per_s", run.coflows as f64 / timed_s, "1/s"),
        metric("schedule_ms_p50", median_or_nan(&schedule_ms), "ms"),
        metric(
            "schedule_ms_p90",
            tail_percentile(&schedule_ms, 0.9).unwrap_or(f64::NAN),
            "ms",
        ),
        metric("twct_ratio", mean(&run.ratios), "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Span names inside the engine that the split separates out.
const BVN_SPANS: [&str; 2] = ["matching.bvn_decompose", "matching.bvn_decompose_maxmin"];
const SIMULATE_SPAN: &str = "sched.simulate";

/// Time (ms) of spans under `root` whose leaf is in `names`, counting only
/// the outermost such span on each path so nested ones are not counted
/// twice, minus the time of `exclude`-leaf spans nested inside them.
fn time_under(snap: &obs::Snapshot, root: &str, names: &[&str], exclude: &[&str]) -> f64 {
    let mut total = 0.0;
    for (path, stat) in &snap.spans {
        let segs: Vec<&str> = path.split('/').collect();
        if segs.first() != Some(&root) {
            continue;
        }
        let (leaf, ancestors) = segs.split_last().unwrap_or((&"", &[]));
        let nested_in_named = ancestors.iter().any(|s| names.contains(s));
        if names.contains(leaf) && !nested_in_named {
            total += stat.total_ms();
        }
        let counted_exclude = exclude.contains(leaf)
            && !ancestors.iter().any(|s| exclude.contains(s))
            && nested_in_named;
        if counted_exclude {
            total -= stat.total_ms();
        }
    }
    total
}

/// The per-layer metrics, from traced schedules, the set-up timings and the
/// untraced schedules of the same run.
pub fn per_layer(setup: &SetupTimes, run: &Run) -> Vec<Metric> {
    let traced = &run.traced;
    let n = traced.len() as f64;
    let counter = |name: &str| -> f64 {
        traced
            .iter()
            .map(|t| t.snapshot.counter(name) as f64)
            .sum::<f64>()
    };
    let per_schedule = |name: &str| counter(name) / n;

    let build_ms: Vec<f64> = traced.iter().map(|t| t.timing.build_ms).collect();
    let run_ms: Vec<f64> = traced.iter().map(|t| t.timing.run_ms).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|t| t.timing.schedule_ms()).collect();
    let untraced_ms: Vec<f64> = run.timings.iter().map(|t| t.schedule_ms()).collect();
    let build_p50 = median_or_nan(&build_ms);
    let run_p50 = median_or_nan(&run_ms);
    let untraced_p50 = median_or_nan(&untraced_ms);
    let overhead = median_or_nan(&traced_ms) / untraced_p50;

    // Split the engine's median into BvN, simulation and the rest, in the
    // proportions the traced engine time as a whole shows.
    let run_total: f64 = run_ms.iter().sum();
    let bvn_total: f64 = traced
        .iter()
        .map(|t| t.scale * time_under(&t.snapshot, RUN_SPAN, &BVN_SPANS, &[]))
        .sum();
    let sim_total: f64 = traced
        .iter()
        .map(|t| t.scale * time_under(&t.snapshot, RUN_SPAN, &[SIMULATE_SPAN], &BVN_SPANS))
        .sum();
    let share = |part: f64| {
        if run_total > 0.0 {
            run_p50 * part / run_total
        } else {
            0.0
        }
    };
    let bvn_ms = share(bvn_total);
    let sim_ms = share(sim_total);

    let lp_solve_ms: f64 = traced
        .iter()
        .map(|t| t.scale * t.snapshot.span_total_ms("lp.solve"))
        .sum();
    let cache_hits = counter("lp.basis_cache.exact_hits");
    let cache_lookups =
        cache_hits + counter("lp.basis_cache.shape_hits") + counter("lp.basis_cache.misses");
    let decisions = counter("coflow.engine.decisions");
    let untraced_n = run.timings.len() as f64;

    let split = build_p50 + run_p50;
    eprintln!(
        "perfbench: traced split {:.3} ms (build {:.3} + engine {:.3} = bvn {:.3} + simulate {:.3} + other {:.3}) \
         vs untraced p50 {:.3} ms; trace overhead {:.4}; build spans {}",
        split,
        build_p50,
        run_p50,
        bvn_ms,
        sim_ms,
        run_p50 - bvn_ms - sim_ms,
        untraced_p50,
        overhead,
        traced.iter().map(|t| t.snapshot.span_count(BUILD_SPAN)).sum::<u64>(),
    );

    vec![
        metric(
            "workloads.generate_ms",
            median_or_nan(&setup.generate_s) * 1e3,
            "ms",
        ),
        metric("lp.bound_ms", median_or_nan(&setup.bound_s) * 1e3, "ms"),
        metric("lp.solve_ms", lp_solve_ms / n, "ms"),
        metric(
            "lp.simplex.pivots",
            per_schedule("lp.simplex.pivots"),
            "count",
        ),
        metric(
            "lp.cache_hit_ratio",
            if cache_lookups > 0.0 {
                cache_hits / cache_lookups
            } else {
                0.0
            },
            "ratio",
        ),
        metric("ordering.build_ms_p50", build_p50, "ms"),
        metric("engine.run_ms_p50", run_p50, "ms"),
        metric("engine.decisions", decisions / n, "count"),
        metric(
            "engine.us_per_decision",
            if decisions > 0.0 {
                run_total * 1e3 / decisions
            } else {
                0.0
            },
            "us",
        ),
        metric(
            "engine.replans",
            per_schedule("coflow.recovery.epochs"),
            "count",
        ),
        metric("engine.other_ms", run_p50 - bvn_ms - sim_ms, "ms"),
        metric("matching.bvn_ms", bvn_ms, "ms"),
        metric(
            "matching.bvn.permutations",
            per_schedule("matching.bvn.permutations"),
            "count",
        ),
        metric(
            "matching.hk.augmenting_paths",
            per_schedule("matching.hk.augmenting_paths"),
            "count",
        ),
        metric("netsim.simulate_ms", sim_ms, "ms"),
        metric(
            "netsim.fabric.slots",
            per_schedule("netsim.fabric.slots"),
            "count",
        ),
        metric(
            "netsim.fault.blocked_units",
            per_schedule("netsim.fault.blocked_units"),
            "count",
        ),
        metric(
            "verify.validate_ms_p50",
            median_or_nan(&run.verify_ms),
            "ms",
        ),
        metric(
            "alloc.calls_per_schedule",
            run.alloc_calls as f64 / untraced_n,
            "count",
        ),
        metric(
            "alloc.bytes_per_schedule",
            run.alloc_bytes as f64 / untraced_n,
            "bytes",
        ),
        metric("trace.overhead", overhead, "ratio"),
        metric("trace.untraced_ms_p50", untraced_p50, "ms"),
        metric("host.kernel_us", median_or_nan(&run.kernel_us), "us"),
    ]
}
