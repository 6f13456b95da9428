//! Order statistics and the latency-share rule.

use dpi_core::LatencyHistogram;

/// Median, as Python's `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld > 0, "quartiles of no values");
    if ld == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// How many recorded latencies lie below `limit_ns`, a power of two.
///
/// The histogram answers quantiles only, at bucket granularity: the
/// rank-`r` sample reads as its bucket's upper bound, and a bucket's
/// upper bound is at most `limit_ns` exactly when all of the bucket lies
/// below it. Bisecting on the integer rank (asked as the midpoint
/// quantile `(r - 0.5) / n`, which the histogram's `ceil` maps back to
/// `r` with no rounding doubt) finds the last such rank.
pub fn samples_within(h: &LatencyHistogram, limit_ns: u64) -> u64 {
    let n = h.count();
    let below = |rank: u64| h.quantile((rank as f64 - 0.5) / n as f64) <= limit_ns;
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if below(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Values from `statistics.quantiles(range(1, 11), n=4)`.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // `statistics.quantiles([1, 2, 3, 4], n=4)` -> [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        // Two values extrapolate: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_share_is_exact_at_bucket_edges() {
        let limit = 1u64 << 20;
        let mut h = LatencyHistogram::new();
        assert_eq!(samples_within(&h, limit), 0);
        // The last value inside the limit's bucket and the first one past it.
        for _ in 0..3 {
            h.record(limit - 1);
        }
        for _ in 0..5 {
            h.record(limit);
        }
        assert_eq!(samples_within(&h, limit), 3);
        h.record(0);
        h.record(1);
        assert_eq!(samples_within(&h, limit), 5);
        // Against a brute-force count over a spread of values.
        let mut h = LatencyHistogram::new();
        let values: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % (3 << 20)).collect();
        for &v in &values {
            h.record(v);
        }
        let expect = values.iter().filter(|&&v| v < limit).count() as u64;
        assert!(0 < expect && expect < values.len() as u64);
        assert_eq!(samples_within(&h, limit), expect);
        // Every value is below 3 << 20 < 1 << 22.
        assert_eq!(samples_within(&h, 1 << 22), values.len() as u64);
    }
}
