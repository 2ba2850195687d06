//! The benchmark's own statistics: medians, tail percentiles that
//! refuse to extrapolate, and the success fraction.

/// Timed queries a run needs before it may report a p90 latency: the
/// nearest-rank p90 of 100 samples has exactly ten samples beyond it.
pub const MIN_QUERIES_FOR_P90: usize = 100;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// How one timed query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The result matched the oracle.
    Ok,
    /// A result came back but its checksum differed from the oracle's.
    Mismatch,
    /// The program returned an error.
    Error,
    /// The program refused the query (admission, cost budget, lint).
    Refused,
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `samples`, reported only
/// when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} outside (0, 1]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = (p * n as f64).ceil() as usize;
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The p90 latency of a run, refused below [`MIN_QUERIES_FOR_P90`]
/// timed queries.
pub fn latency_p90(samples: &[f64]) -> Result<f64, String> {
    if samples.len() < MIN_QUERIES_FOR_P90 {
        return Err(format!(
            "latency_p90_ms needs at least {MIN_QUERIES_FOR_P90} timed queries, the run had {}",
            samples.len()
        ));
    }
    percentile(samples, 0.9).ok_or_else(|| "too few samples beyond p90".to_string())
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Queries whose result matched the oracle, over queries attempted.
/// Mismatches, errors and refusals all count against it.
pub fn success_frac(outcomes: &[Outcome]) -> f64 {
    let ok = outcomes.iter().filter(|o| **o == Outcome::Ok).count();
    ratio(ok as f64, outcomes.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples: rank 90, ten samples (91..=100) beyond.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // 99 samples leave only nine beyond the nearest-rank p90.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p50 of 20 samples leaves ten beyond; 19 leave nine.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs = ramp(200);
        xs.reverse();
        assert_eq!(percentile(&xs, 0.9), Some(180.0));
    }

    #[test]
    fn p90_refused_below_one_hundred_queries() {
        assert!(latency_p90(&ramp(99)).is_err());
        assert!(latency_p90(&[]).is_err());
        assert_eq!(latency_p90(&ramp(100)), Ok(90.0));
        assert_eq!(latency_p90(&ramp(1000)), Ok(900.0));
    }

    #[test]
    fn failures_and_refusals_count_against_success() {
        use Outcome::*;
        assert_eq!(success_frac(&[Ok, Ok, Ok, Ok]), 1.0);
        assert_eq!(success_frac(&[Ok, Mismatch, Ok, Ok]), 0.75);
        assert_eq!(success_frac(&[Ok, Error, Refused, Ok]), 0.5);
        assert_eq!(success_frac(&[Refused]), 0.0);
        assert_eq!(success_frac(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
