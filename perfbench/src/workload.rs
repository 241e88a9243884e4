//! The three workloads and their seeded set-up: an instance pool, each
//! instance's interval-LP lower bound, and (on `fault-replan`) its fault
//! plan. The program under test sees only the generated instances.

use crate::calibrate;
use crate::stats::median;
use coflow::bounds::interval_lp_bound;
use coflow::{Coflow, Instance};
use coflow_netsim::FaultPlan;
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};
use std::time::Instant;

/// One benchmark workload: how its instances are shaped and which
/// registry policies serve them, in rotation.
pub struct Spec {
    pub name: &'static str,
    /// Instances in the pool; every timed pass schedules each of them once
    /// per policy.
    pub pool: usize,
    pub ports: usize,
    pub coflows: usize,
    /// `None` for the paper's zero-release batch setting, else the mean
    /// Poisson inter-arrival gap in slots.
    pub mean_gap: Option<f64>,
    pub max_flow_size: u64,
    pub policies: &'static [&'static str],
    /// Fault rate for `FaultPlan::generate`; `None` runs on a clean fabric.
    pub fault_rate: Option<f64>,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "offline-batch",
        pool: 128,
        ports: 40,
        coflows: 60,
        mean_gap: None,
        max_flow_size: 2048,
        policies: &["bvn-batch"],
        fault_rate: None,
    },
    Spec {
        name: "online-arrivals",
        pool: 128,
        ports: 40,
        coflows: 40,
        mean_gap: Some(40.0),
        max_flow_size: 128,
        policies: &["online", "greedy", "shafiee-ghaderi", "im-purohit"],
        fault_rate: None,
    },
    Spec {
        name: "fault-replan",
        pool: 128,
        ports: 32,
        coflows: 32,
        mean_gap: Some(40.0),
        max_flow_size: 128,
        policies: &["resilient", "online"],
        fault_rate: Some(0.2),
    },
];

impl Spec {
    pub fn named(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }

    fn trace_config(&self, seed: u64) -> TraceConfig {
        TraceConfig {
            seed,
            ports: self.ports,
            num_coflows: self.coflows,
            max_flow_size: self.max_flow_size,
            zero_release: self.mean_gap.is_none(),
            mean_interarrival: self.mean_gap.unwrap_or(0.0),
            ..TraceConfig::default()
        }
    }
}

/// One pool entry, with everything its schedules are checked against.
pub struct Case {
    pub instance: Instance,
    pub plan: Option<FaultPlan>,
    /// Coflows the quality ratio covers: all of them on a clean fabric,
    /// the ones the plan never cancels under faults (they always finish).
    pub scored: Vec<bool>,
    /// Interval-LP lower bound on `Σ w·C` over the scored coflows alone.
    pub bound: f64,
}

impl Case {
    /// `Σ w·C` over the scored coflows, given per-coflow completions.
    pub fn scored_objective(&self, completions: impl Iterator<Item = Option<u64>>) -> f64 {
        completions
            .zip(self.instance.coflows())
            .zip(&self.scored)
            .filter(|(_, &scored)| scored)
            .map(|((c, coflow), _)| coflow.weight * c.unwrap_or(0) as f64)
            .sum()
    }
}

/// Host-scaled timings of the set-up repetitions, in seconds.
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub bound_s: Vec<f64>,
}

/// SplitMix64 finaliser: independent per-instance seeds from one workload
/// seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Slots a schedule needs at least: the last release plus the busiest
/// port's total load. Fault windows are drawn over this horizon so they
/// land while the fabric is busy.
fn busy_horizon(instance: &Instance) -> u64 {
    let last_release = instance
        .coflows()
        .iter()
        .map(|c| c.release)
        .max()
        .unwrap_or(0);
    let busiest = instance
        .ingress_loads()
        .into_iter()
        .chain(instance.egress_loads())
        .max()
        .unwrap_or(1);
    last_release + busiest.max(1)
}

/// Generates the pool and each instance's bound; returns the cases with the
/// generation and bound times in seconds.
fn build_pool(spec: &Spec, seed: u64) -> (Vec<Case>, f64, f64) {
    let started = Instant::now();
    let instances: Vec<Instance> = (0..spec.pool as u64)
        .map(|i| {
            let s = mix(seed, i);
            let trace = generate_trace(&spec.trace_config(s));
            assign_weights(&trace, WeightScheme::RandomPermutation { seed: mix(s, 1) })
        })
        .collect();
    let generated = Instant::now();
    let cases = instances
        .into_iter()
        .enumerate()
        .map(|(i, instance)| {
            let plan = spec.fault_rate.map(|rate| {
                let s = mix(mix(seed, i as u64), 2);
                FaultPlan::generate(
                    instance.ports(),
                    instance.len(),
                    busy_horizon(&instance),
                    rate,
                    s,
                )
            });
            let scored: Vec<bool> = (0..instance.len())
                .map(|k| plan.as_ref().is_none_or(|p| p.cancellation(k).is_none()))
                .collect();
            let bound = if scored.iter().all(|&s| s) {
                interval_lp_bound(&instance)
            } else {
                let kept: Vec<Coflow> = instance
                    .coflows()
                    .iter()
                    .zip(&scored)
                    .filter(|(_, &s)| s)
                    .map(|(c, _)| c.clone())
                    .collect();
                interval_lp_bound(&Instance::new(instance.ports(), kept))
            };
            Case {
                instance,
                plan,
                scored,
                bound,
            }
        })
        .collect();
    let done = Instant::now();
    (
        cases,
        (generated - started).as_secs_f64(),
        (done - generated).as_secs_f64(),
    )
}

/// Kernel runs on each side of a set-up repetition (see [`calibrate`]).
const SETUP_KERNEL_RUNS: u64 = 8;

fn kernel_timings() -> Vec<f64> {
    (0..SETUP_KERNEL_RUNS).map(calibrate::time_kernel).collect()
}

/// Set-up repetitions: at least `MIN_SETUP_REPS`, and more while the
/// repetitions so far took less than `SETUP_BUDGET_S`, so small set-ups
/// still give a steady median.
const MIN_SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 3.0;

/// Builds the pool several times from scratch, each time after clearing
/// the LP cache so no repetition reuses an earlier one's solves, and
/// returns the last pool with every repetition's host-scaled timings.
pub fn setup(spec: &Spec, seed: u64) -> (Vec<Case>, SetupTimes) {
    let mut times = SetupTimes {
        total_s: Vec::new(),
        generate_s: Vec::new(),
        bound_s: Vec::new(),
    };
    let mut pool = Vec::new();
    let started = Instant::now();
    while times.total_s.len() < MIN_SETUP_REPS
        || (times.total_s.len() < MAX_SETUP_REPS
            && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        // Drop the previous pool first so peak RSS holds one pool.
        drop(std::mem::take(&mut pool));
        coflow_lp::global_cache().clear();
        let mut kernel_us = kernel_timings();
        let (cases, generate_s, bound_s) = build_pool(spec, seed);
        kernel_us.extend(kernel_timings());
        let scale = calibrate::NOMINAL_US / median(&kernel_us).unwrap_or(calibrate::NOMINAL_US);
        times.generate_s.push(generate_s * scale);
        times.bound_s.push(bound_s * scale);
        times.total_s.push((generate_s + bound_s) * scale);
        pool = cases;
    }
    (pool, times)
}
