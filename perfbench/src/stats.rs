//! Summary statistics: medians and the tail-percentile rule.

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Percentiles considered for the tail, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the highest candidate percentile that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile `p` (in percent) of a sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail of a sample under the ≥10-samples-beyond rule, or `None` when
/// even the median leaves fewer than ten samples above it.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| n >= rank(n, p) + TAIL_MIN_BEYOND)
        .map(|&p| Tail {
            percentile: p,
            value: percentile(v, p),
            samples: n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has rank 990 and leaves exactly 10 beyond;
        // p99.9 would leave 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 has rank 990 and leaves only 9, so p95 wins.
        assert_eq!(tail(&ramp(999)).unwrap().percentile, 95.0);
        // 200 samples: p95 has rank 190, exactly 10 beyond.
        assert_eq!(tail(&ramp(200)).unwrap().percentile, 95.0);
        assert_eq!(tail(&ramp(199)).unwrap().percentile, 90.0);
        // 20 samples: only the median leaves 10 beyond.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(400);
        v.reverse();
        assert_eq!(tail(&v).unwrap().value, 380.0);
    }
}
