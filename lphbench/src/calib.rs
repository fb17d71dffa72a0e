//! Host-speed reference for the end-to-end `lint_corpus` run.
//!
//! On a shared host the speed of a vCPU drifts by up to 1.8x over
//! seconds to minutes (a fixed Python loop measured 255–465 ms within one
//! minute on the 2-vCPU VM this benchmark was written on), and every
//! phase of a lint walk slows by the same factor. No statistic taken
//! within one 30-second run removes a drift that spans several runs. The
//! walk loop therefore times a fixed reference kernel after every walk
//! and reports each walk at the reference speed:
//! `walk_ms × REF_MS / kernel_ms`, where `kernel_ms` is the median of the
//! kernel times around it. The kernel is benchmark code, so a change to
//! the program moves the walk and not the kernel.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in ms, on the reference host; reported times
/// are in ms at this speed. The 2-vCPU x86-64 VM the benchmark was written
/// on measures 1.1–1.7 ms.
pub const REF_MS: f64 = 1.5;

/// Kernel samples on each side of a walk that its host speed is read
/// from (the median of 9 samples, about 0.15 s of walks).
pub const WALK_SPAN: usize = 4;

/// The reference kernel: seeded integers pushed, sorted and folded into
/// an ordered map, a mix of allocation, branches and memory traffic like
/// the walk's. Returns a checksum so that no step is optimised away.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = Vec::with_capacity(4096);
    let mut sum = 0u64;
    for _ in 0..8 {
        v.clear();
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.push(x % 100_000);
        }
        v.sort_unstable();
        let mut m = std::collections::BTreeMap::new();
        for &k in v.iter().step_by(4) {
            *m.entry(k % 977).or_insert(0u64) += k;
        }
        sum = sum.wrapping_add(m.values().sum::<u64>());
    }
    sum
}

/// Runs the kernel once and returns its time in ms.
pub fn time_kernel() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the kernel a few times so that its first, cold run is not taken
/// as a host-speed reading.
pub fn warm() {
    for _ in 0..3 {
        black_box(kernel());
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The host-speed factor `REF_MS / kernel_ms` for each of `kernel_ms`,
/// from the median of the samples within `half_span` of it.
pub fn factors(kernel_ms: &[f64], half_span: usize) -> Vec<f64> {
    (0..kernel_ms.len())
        .map(|i| {
            let lo = i.saturating_sub(half_span);
            let hi = (i + half_span + 1).min(kernel_ms.len());
            REF_MS / median(kernel_ms[lo..hi].to_vec())
        })
        .collect()
}

/// The host-speed factor of a whole stretch: `REF_MS` over the median
/// of its kernel times.
pub fn factor(kernel_ms: &[f64]) -> f64 {
    REF_MS / median(kernel_ms.to_vec())
}

/// Prints the host speed a run saw on stderr.
pub fn report_host(kernel_ms: &[f64]) {
    let mut v = kernel_ms.to_vec();
    v.sort_by(f64::total_cmp);
    eprintln!(
        "lph-e2ebench: reference kernel {:.3} ms (median; range {:.3}–{:.3}, {} readings); times are reported at {REF_MS} ms",
        v[v.len() / 2],
        v[0],
        v[v.len() - 1],
        v.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_follow_the_local_median() {
        let ms = [1.5, 1.5, 30.0, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0];
        let f = factors(&ms, WALK_SPAN);
        assert_eq!(f.len(), ms.len());
        // One outlier does not move the reading.
        assert_eq!(f[2], 1.0);
        // A lasting slowdown does.
        assert_eq!(f[11], 0.5);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
