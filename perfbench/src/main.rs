//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <offline-batch|online-arrivals|fault-replan>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it builds a seeded instance pool (the
//! timed set-up), then schedules the pool in a closed loop for `--seconds`,
//! verifying every schedule outside the timing. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See `perfbench/NOTES.md` for the workloads and bounds.

mod calibrate;
mod measure;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;
use workload::Spec;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::named(&value).ok_or_else(|| {
                    let known: Vec<&str> = workload::WORKLOADS.iter().map(|s| s.name).collect();
                    format!("unknown workload '{value}' (known: {})", known.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (pool, setup) = workload::setup(args.spec, args.seed);
    let run = match measure::run(args.spec, &pool, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = if args.trace {
        report::per_layer(&setup, &run)
    } else {
        report::end_to_end(&setup, &run)
    };
    // A metric that could not be measured (too few samples) is a failure,
    // never a silently missing number.
    let measured = metrics.iter().all(|m| m.value.is_finite());
    if !measured {
        eprintln!("perfbench: some metrics could not be measured");
    }
    let correct = run.failed == 0 && run.attempted > 0 && measured;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
