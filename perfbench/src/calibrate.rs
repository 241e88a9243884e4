//! Host-speed calibration.
//!
//! The benchmark host is shared: a fixed CPU loop runs 20–40% slower in
//! some phases than in others, and a phase lasts from seconds to many
//! minutes, so two runs of identical code disagree by more than any useful
//! regression bound. Every timed call is therefore preceded by a fixed
//! reference kernel that belongs to the benchmark, not to the program, and
//! each timing is scaled by how fast the kernel ran around it:
//!
//! `reported = measured × NOMINAL_US / median(kernel µs of nearby calls)`
//!
//! A change to the program moves `measured` and leaves the kernel alone, so
//! it shows in full; a slow host phase moves both and cancels.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time taken as the host's reference speed: the kernel's typical
/// time on a 2-core x86-64 cloud VM. Reported times are "ms on a host
/// where the kernel takes this long".
pub const NOMINAL_US: f64 = 250.0;

/// Calls on either side of a call whose kernel timings set its scale.
pub const HALF_WINDOW: usize = 16;

/// A fixed mix of the work the schedulers do: fill and sort an integer
/// array (branchy, allocating) and multiply two small dense integer
/// matrices (the demand-matrix loops).
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut v: Vec<u64> = (0..8192)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1000
        })
        .collect();
    v.sort_unstable();
    const M: usize = 48;
    let a = &v[..M * M];
    let mut acc = 0u64;
    for i in 0..M {
        for j in 0..M {
            let mut s = 0u64;
            for k in 0..M {
                s = s.wrapping_add(a[i * M + k].wrapping_mul(a[k * M + j]));
            }
            acc = acc.wrapping_add(s);
        }
    }
    acc
}

/// Runs the kernel once and returns its wall time in microseconds.
pub fn time_kernel(seed: u64) -> f64 {
    let started = Instant::now();
    black_box(kernel(black_box(seed)));
    started.elapsed().as_secs_f64() * 1e6
}

/// Per-call scale factors `NOMINAL_US / median(window)`, the window being
/// the kernel timings of the calls within [`HALF_WINDOW`] of each call.
pub fn scales(kernel_us: &[f64]) -> Vec<f64> {
    (0..kernel_us.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(kernel_us.len());
            let med = crate::stats::median(&kernel_us[lo..hi]).unwrap_or(NOMINAL_US);
            NOMINAL_US / med
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
    }

    #[test]
    fn scales_use_the_local_median() {
        // A slow phase (600 µs) after a nominal one: calls deep in each
        // phase get exactly that phase's scale.
        let mut us = vec![NOMINAL_US; 40];
        us.extend(vec![2.0 * NOMINAL_US; 40]);
        let s = scales(&us);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[79], 0.5);
        // A single outlier does not move its neighbours' scale.
        let mut us = vec![NOMINAL_US; 40];
        us[20] = 100.0 * NOMINAL_US;
        assert!(scales(&us).iter().all(|&f| f == 1.0));
    }
}
