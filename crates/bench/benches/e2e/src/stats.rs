//! Order statistics and digests used by every metric the benchmark
//! reports.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile (at most 99) that still has at least ten
/// samples strictly beyond it, for `n` samples; `None` when even the
/// median has fewer than ten samples beyond it (`n < 20`).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| (n as f64) * f64::from(100 - p) / 100.0 >= 10.0)
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((f64::from(p) / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A timing distribution reduced by the reporting rule: the median, and
/// the highest percentile with at least ten samples beyond it (p99 once
/// there are 1000 samples), with the sample count that qualifies it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    /// The tail value, at percentile `tail_pct`.
    pub tail: f64,
    /// 0 when there are too few samples for any tail.
    pub tail_pct: u32,
    pub samples: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let tail_pct = tail_percentile(values.len()).unwrap_or(0);
    Summary {
        p50: percentile(values, 50),
        tail: if tail_pct == 0 {
            0.0
        } else {
            percentile(values, tail_pct)
        },
        tail_pct,
        samples: values.len(),
    }
}

/// FNV-1a 64 over `bytes`, the digest recorded for canonical outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(256), Some(96));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(18_533), Some(99));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let beyond = n as f64 * f64::from(100 - p) / 100.0;
            assert!(beyond >= 10.0, "n={n} p={p}");
            if p < 99 {
                let next = n as f64 * f64::from(100 - p - 1) / 100.0;
                assert!(next < 10.0, "n={n}: p{} would also qualify", p + 1);
            }
        }
    }

    #[test]
    fn summary_reports_rule_percentile_and_count() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(
            (s.p50, s.tail, s.tail_pct, s.samples),
            (500.0, 990.0, 99, 1000)
        );
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&small);
        assert_eq!((s.tail, s.tail_pct, s.samples), (90.0, 90, 100));
        let s = summarize(&[3.0; 5]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (3.0, 0.0, 0));
        assert_eq!(summarize(&[]).samples, 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
