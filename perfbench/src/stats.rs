//! The benchmark's metric arithmetic: medians and quartiles of host
//! timings, percentiles that carry their sample count, and the
//! load-level ratios of the paper (failure rate, SLO attainment).

/// The repo's `plt-p95` SLO (`sc_metrics::default_slos`): a load meets
/// it when it succeeds within 6 s.
pub const SLO_PLT_S: f64 = 6.0;

/// A percentile needs at least this many samples beyond it to be
/// reported (choosing-metrics §1).
const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A percentile with the sample count it was taken over and how many
/// samples lie strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `xs`, refused when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: a tail percentile
/// over too few samples is a single sample, not a distribution.
pub fn percentile(xs: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} refused: {beyond} of {n} samples beyond it, need {MIN_BEYOND}",
            q * 100.0
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: v[rank - 1],
        samples: n,
        beyond,
    })
}

/// The page loads of one run, reduced to what the paper's metrics need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadTally {
    /// Loads the browsers started.
    pub attempted: usize,
    /// Page-load times (s) of the loads that succeeded.
    pub ok_plts: Vec<f64>,
}

impl LoadTally {
    /// Tallies `(failed, plt_s)` pairs; a load without a PLT failed.
    pub fn from_loads(loads: impl IntoIterator<Item = (bool, Option<f64>)>) -> Self {
        let mut t = LoadTally::default();
        for (failed, plt) in loads {
            t.attempted += 1;
            if let (false, Some(plt)) = (failed, plt) {
                t.ok_plts.push(plt);
            }
        }
        t
    }

    /// Adds another run's loads to this tally.
    pub fn merge(&mut self, other: &LoadTally) {
        self.attempted += other.attempted;
        self.ok_plts.extend_from_slice(&other.ok_plts);
    }

    /// Loads that succeeded.
    pub fn succeeded(&self) -> usize {
        self.ok_plts.len()
    }

    /// Loads that failed (timed out, reset, refused …).
    pub fn failed(&self) -> usize {
        self.attempted - self.succeeded()
    }

    /// Failed loads over attempted loads.
    pub fn failure_rate(&self) -> f64 {
        ratio(self.failed(), self.attempted)
    }

    /// Succeeded loads over attempted loads.
    pub fn success_rate(&self) -> f64 {
        ratio(self.succeeded(), self.attempted)
    }

    /// Share of attempted loads that succeeded within [`SLO_PLT_S`]; a
    /// failed load counts as a miss.
    pub fn slo_attainment(&self) -> f64 {
        let met = self.ok_plts.iter().filter(|&&p| p <= SLO_PLT_S).count();
        ratio(met, self.attempted)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_reports_its_sample_count() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&xs, 0.95).unwrap();
        assert_eq!(
            p95,
            Percentile {
                value: 190.0,
                samples: 200,
                beyond: 10
            }
        );
        let p50 = percentile(&xs, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (100.0, 200, 100));
    }

    #[test]
    fn percentile_refused_with_fewer_than_ten_beyond() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        let err = percentile(&xs, 0.95).unwrap_err();
        assert!(err.contains("9 of 199"), "{err}");
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&[1.0; 10], 1.0).is_err());
    }

    #[test]
    fn failed_loads_count_against_attempted() {
        let t = LoadTally::from_loads([
            (false, Some(1.0)),
            (false, Some(7.0)),
            (true, None),
            (true, Some(2.0)), // a PLT on a failed load is still a failure
        ]);
        assert_eq!((t.attempted, t.succeeded(), t.failed()), (4, 2, 2));
        assert_eq!(t.failure_rate(), 0.5);
        assert_eq!(t.success_rate(), 0.5);
        assert_eq!(t.ok_plts, vec![1.0, 7.0]);
    }

    #[test]
    fn failed_loads_miss_the_slo() {
        let t = LoadTally::from_loads([
            (false, Some(SLO_PLT_S)),
            (false, Some(6.5)),
            (true, None),
            (true, Some(0.5)),
        ]);
        // Only the first load is both successful and within 6 s.
        assert_eq!(t.slo_attainment(), 0.25);
    }

    #[test]
    fn merged_tallies_pool_their_loads() {
        let mut t = LoadTally::from_loads([(false, Some(1.0)), (true, None)]);
        t.merge(&LoadTally::from_loads([
            (false, Some(3.0)),
            (false, Some(9.0)),
        ]));
        assert_eq!((t.attempted, t.failed()), (4, 1));
        assert_eq!(t.ok_plts, vec![1.0, 3.0, 9.0]);
        assert_eq!(t.slo_attainment(), 0.5);
    }

    #[test]
    fn empty_tally_is_all_zero() {
        let t = LoadTally::default();
        assert_eq!((t.failure_rate(), t.slo_attainment()), (0.0, 0.0));
    }
}
