//! The closed-loop client: requests the pool's instances one at a time,
//! each as soon as the previous request returns, times every schedule, and
//! checks every schedule outside the timing.

use crate::calibrate;
use crate::stats::{median, samples_for_tail};
use crate::workload::{Case, Spec};
use coflow::{
    run_policy, run_policy_with_faults, verify_faulty_outcome, verify_outcome, FaultyOutcome,
    PolicyEntry, PolicyRegistry, ScheduleOutcome,
};
use std::time::{Duration, Instant};

/// Wall-clock cap on the timed loop. Past it the run stops even when the
/// tail percentile still lacks samples, so a run always ends in time.
const HARD_STOP: Duration = Duration::from_secs(120);

/// Passes every run makes, so each schedule is repeated at least once.
const MIN_PASSES: usize = 2;

/// Span names the harness wraps around the two timed calls.
pub const BUILD_SPAN: &str = "bench.build";
pub const RUN_SPAN: &str = "bench.run";

enum Outcome {
    Clean(ScheduleOutcome),
    Faulty(FaultyOutcome),
}

/// Timing of one schedule, or summed over a request's schedules, in ms.
#[derive(Clone, Copy)]
pub struct Timing {
    pub build_ms: f64,
    pub run_ms: f64,
}

impl Timing {
    pub fn schedule_ms(&self) -> f64 {
        self.build_ms + self.run_ms
    }
}

/// Builds the policy and runs it to completion: the timed unit of work.
fn schedule(entry: &PolicyEntry, case: &Case) -> Result<(Outcome, Timing), String> {
    let t0 = Instant::now();
    let mut policy = {
        let _span = obs::span(BUILD_SPAN);
        entry.build(&case.instance)
    };
    let t1 = Instant::now();
    let out = {
        let _span = obs::span(RUN_SPAN);
        match &case.plan {
            None => run_policy(&case.instance, policy.as_mut())
                .map(Outcome::Clean)
                .map_err(|e| e.to_string()),
            Some(plan) => run_policy_with_faults(&case.instance, policy.as_mut(), plan)
                .map(Outcome::Faulty)
                .map_err(|e| e.to_string()),
        }
    };
    let t2 = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    out.map(|o| {
        (
            o,
            Timing {
                build_ms: ms(t1 - t0),
                run_ms: ms(t2 - t1),
            },
        )
    })
}

/// Verifies a schedule and returns `(objective bits, quality ratio)`.
fn check(entry: &PolicyEntry, case: &Case, out: &Outcome) -> Result<(u64, f64), String> {
    let (objective, scored) = match (out, &case.plan) {
        (Outcome::Clean(o), _) => {
            verify_outcome(&case.instance, o).map_err(|e| e.to_string())?;
            (
                o.objective,
                case.scored_objective(o.completions.iter().map(|&c| Some(c))),
            )
        }
        (Outcome::Faulty(o), Some(plan)) => {
            verify_faulty_outcome(&case.instance, plan, o)?;
            let unfinished = o
                .completions
                .iter()
                .zip(&case.scored)
                .any(|(c, &s)| s && c.is_none());
            if unfinished {
                return Err("a coflow the plan never cancels did not finish".into());
            }
            (
                o.objective,
                case.scored_objective(o.completions.iter().copied()),
            )
        }
        (Outcome::Faulty(_), None) => unreachable!("faulty outcomes come only from a plan"),
    };
    if case.bound.is_nan() || case.bound <= 0.0 {
        return Err(format!("lower bound {} is not positive", case.bound));
    }
    let ratio = scored / case.bound;
    // The LP bound is a float optimum; allow only its rounding noise.
    if ratio < 1.0 - 1e-9 {
        return Err(format!("ratio {ratio} is below 1"));
    }
    // Advertised bounds are proven for clean fabrics only.
    if let (None, Some(b)) = (&case.plan, entry.bound) {
        if ratio > b {
            return Err(format!("ratio {ratio} exceeds the advertised bound {b}"));
        }
    }
    Ok((objective.to_bits(), ratio))
}

/// Per-request observations of a traced request.
pub struct Traced {
    pub timing: Timing,
    pub snapshot: obs::Snapshot,
    /// Host scale applied to `timing`; span times in `snapshot` are raw.
    pub scale: f64,
}

/// Everything the timed loop observed. A request is one instance,
/// scheduled by each of the workload's policies in turn; its timing is the
/// sum of those schedules' timings. Times are host-scaled (see
/// [`calibrate`]).
#[derive(Default)]
pub struct Run {
    /// Schedules attempted and failed (a request makes one per policy).
    pub attempted: u64,
    pub failed: u64,
    /// Untraced requests.
    pub timings: Vec<Timing>,
    /// Coflows scheduled by the untraced requests.
    pub coflows: u64,
    /// Quality ratio of every (instance, policy) pair, from the first pass.
    pub ratios: Vec<f64>,
    /// Verification time per untraced request.
    pub verify_ms: Vec<f64>,
    /// Allocator deltas summed over untraced requests.
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    /// Traced requests (trace mode only).
    pub traced: Vec<Traced>,
    /// Raw reference-kernel time before every request, µs.
    pub kernel_us: Vec<f64>,
}

/// A successful request, before host scaling.
struct Call {
    attempt: usize,
    timing: Timing,
    /// Schedule time per policy, in the workload's policy order.
    policy_ms: Vec<f64>,
    verify_ms: f64,
    snapshot: Option<obs::Snapshot>,
}

fn record_failure(run: &mut Run, what: &str, entry: &PolicyEntry, case_idx: usize, err: &str) {
    run.failed += 1;
    eprintln!(
        "perfbench: {what} failed: policy {} on instance {case_idx}: {err}",
        entry.name
    );
}

/// Runs passes over the pool until `seconds` have passed and the p90 has
/// enough samples. Every instance is requested once per pass; in trace
/// mode twice, untraced and traced, in alternating order, so both see the
/// same host phases. A request with any failed schedule is not timed.
pub fn run(spec: &Spec, pool: &[Case], seconds: f64, trace: bool) -> Result<Run, String> {
    let registry = PolicyRegistry::builtin();
    let entries: Vec<&PolicyEntry> = spec
        .policies
        .iter()
        .map(|p| registry.resolve(p))
        .collect::<Result<_, _>>()?;
    let mut first_bits: Vec<Option<u64>> = vec![None; pool.len() * entries.len()];
    let mut out = Run::default();
    let mut calls: Vec<Call> = Vec::new();
    let min_samples = samples_for_tail(0.9);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut pass = 0usize;
    let mut pass_time = Duration::ZERO;
    loop {
        // Stop at the pass boundary nearest the budget, after at least two
        // passes (the repeat check needs them) and enough samples for the
        // p90; whole passes keep every instance equally represented.
        let elapsed = started.elapsed();
        let untraced = calls.iter().filter(|c| c.snapshot.is_none()).count();
        let at_budget = elapsed + pass_time / 2 >= budget;
        if (pass >= MIN_PASSES && at_budget && untraced >= min_samples) || elapsed >= HARD_STOP {
            break;
        }
        let pass_started = Instant::now();
        let modes: &[bool] = match (trace, pass % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for (ci, case) in pool.iter().enumerate() {
            for &traced in modes {
                let attempt = out.kernel_us.len();
                out.kernel_us.push(calibrate::time_kernel(attempt as u64));
                if traced {
                    obs::reset();
                }
                let mut call = Call {
                    attempt,
                    timing: Timing {
                        build_ms: 0.0,
                        run_ms: 0.0,
                    },
                    policy_ms: Vec::with_capacity(entries.len()),
                    verify_ms: 0.0,
                    snapshot: None,
                };
                let (mut alloc_calls, mut alloc_bytes) = (0, 0);
                let mut ok = true;
                for (pi, entry) in entries.iter().enumerate() {
                    out.attempted += 1;
                    // A cached LP solve from an earlier call (or from the
                    // set-up's bound) would turn this call's solve into a
                    // lookup; hits within the call are real work and stay.
                    coflow_lp::global_cache().clear();
                    obs::set_enabled(traced);
                    let alloc0 = obs::alloc::stats();
                    let result = schedule(entry, case);
                    let alloc1 = obs::alloc::stats();
                    obs::set_enabled(false);
                    alloc_calls += alloc1.alloc_calls - alloc0.alloc_calls;
                    alloc_bytes += alloc1.alloc_bytes - alloc0.alloc_bytes;
                    let (outcome, timing) = match result {
                        Ok(r) => r,
                        Err(e) => {
                            record_failure(&mut out, "schedule", entry, ci, &e);
                            ok = false;
                            continue;
                        }
                    };
                    let v0 = Instant::now();
                    let checked = check(entry, case, &outcome);
                    call.verify_ms += v0.elapsed().as_secs_f64() * 1e3;
                    let (bits, ratio) = match checked {
                        Ok(c) => c,
                        Err(e) => {
                            record_failure(&mut out, "check", entry, ci, &e);
                            ok = false;
                            continue;
                        }
                    };
                    let slot = ci * entries.len() + pi;
                    match first_bits[slot] {
                        None => {
                            first_bits[slot] = Some(bits);
                            out.ratios.push(ratio);
                        }
                        Some(b) if b != bits => {
                            let e = "objective differs from the first pass";
                            record_failure(&mut out, "repeat", entry, ci, e);
                            ok = false;
                            continue;
                        }
                        Some(_) => {}
                    }
                    call.timing.build_ms += timing.build_ms;
                    call.timing.run_ms += timing.run_ms;
                    call.policy_ms.push(timing.schedule_ms());
                }
                if !ok {
                    continue;
                }
                if traced {
                    call.snapshot = Some(obs::snapshot());
                } else {
                    out.coflows += (case.instance.len() * entries.len()) as u64;
                    out.alloc_calls += alloc_calls;
                    out.alloc_bytes += alloc_bytes;
                }
                calls.push(call);
            }
        }
        pass += 1;
        pass_time = pass_started.elapsed();
    }
    let scales = calibrate::scales(&out.kernel_us);
    let mut by_policy: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    for call in calls {
        let scale = scales[call.attempt];
        let timing = Timing {
            build_ms: call.timing.build_ms * scale,
            run_ms: call.timing.run_ms * scale,
        };
        match call.snapshot {
            Some(snapshot) => out.traced.push(Traced {
                timing,
                snapshot,
                scale,
            }),
            None => {
                for (acc, ms) in by_policy.iter_mut().zip(&call.policy_ms) {
                    acc.push(ms * scale);
                }
                out.timings.push(timing);
                out.verify_ms.push(call.verify_ms * scale);
            }
        }
    }
    let p50s: Vec<String> = entries
        .iter()
        .zip(&by_policy)
        .map(|(e, ms)| format!("{} {:.3} ms", e.name, median(ms).unwrap_or(f64::NAN)))
        .collect();
    eprintln!(
        "perfbench: {} passes, {} timed requests, {:.1} s; schedule p50 by policy: {}",
        pass,
        out.timings.len(),
        started.elapsed().as_secs_f64(),
        p50s.join(", ")
    );
    Ok(out)
}
