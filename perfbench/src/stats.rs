//! Order statistics over repetition samples, and the host clock they are
//! taken with.

/// Host CPU time this process has used so far, all threads, in ms.
///
/// `host_ms` and `setup_s` read this clock rather than the wall clock: on a
/// host shared with other jobs the wall time of one repetition swung 2-3x
/// between runs of identical code, while its CPU time held within a few
/// percent (see README.md).
pub fn process_cpu_ms() -> f64 {
    /// Linux's id of the calling process's CPU-time clock.
    const CLOCK_PROCESS_CPUTIME_ID: libc::clockid_t = 2;
    let mut ts = libc::timespec::default();
    // SAFETY: `ts` is a valid, writable `timespec` that outlives the call,
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { libc::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is unavailable");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// The `q`-quantile (0..=1) of `xs`, by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest quantile of `n` samples with at least ten samples above it,
/// if there is one above the median.
pub fn tail_quantile(n: usize) -> Option<f64> {
    let q = 1.0 - 10.0 / n as f64;
    (q > 0.5).then_some(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn tail_quantile_leaves_ten_samples_above() {
        assert_eq!(tail_quantile(15), None);
        assert_eq!(tail_quantile(100), Some(0.9));
    }
}
