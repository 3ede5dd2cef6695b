//! Order statistics and ratios the benchmark reports.

use islands_obs::hist::bucket_lower_ns;
use islands_obs::{HistSnapshot, Snapshot, BUCKETS};

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported as measured rather than flagged.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` ascending samples.
fn rank(n: usize, p: f64) -> usize {
    debug_assert!(n > 0);
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of ascending-sorted `sorted` (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p)]
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: u64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    pub samples: usize,
}

impl Tail {
    /// Whether enough samples lie beyond the percentile to report it.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Percentile `p` of `sorted`, with how many samples lie beyond it.
pub fn tail(sorted: &[u64], p: f64) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            pct: p,
            value: 0,
            beyond: 0,
            samples: 0,
        };
    }
    let r = rank(n, p);
    Tail {
        pct: p,
        value: sorted[r],
        beyond: n - 1 - r,
        samples: n,
    }
}

/// The highest of the usual reporting percentiles that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when not even the median
/// does.
pub fn highest_supported(sorted: &[u64]) -> Option<Tail> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .map(|p| tail(sorted, p))
        .find(Tail::supported)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Share of the machine's cpu time the hypervisor may steal during a
/// slice of the measured window before the slice is left out of the
/// per-slice statistics. On a shared host a neighbour can take the vcpus
/// for tens of seconds. On the 2-vcpu host this benchmark was defined on,
/// quiet 20 s runs of `micro-2pc` saw under 1% of the cpu time stolen; in
/// one such period a run saw 17% stolen and its slices lost up to 60% of
/// their throughput.
pub const STEAL_MAX: f64 = 0.05;
/// Fewest slices the per-slice statistics are taken over. When fewer than
/// this many stay under [`STEAL_MAX`], the least stolen ones are taken.
pub const MIN_KEPT: usize = 3;

/// Indices, in order, of the slices whose stolen share is at most
/// [`STEAL_MAX`], or of the [`MIN_KEPT`] least stolen slices when fewer
/// are.
pub fn unstolen(steal: &[f64]) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..steal.len())
        .filter(|&i| steal[i] <= STEAL_MAX)
        .collect();
    if kept.len() < MIN_KEPT {
        kept = (0..steal.len()).collect();
        kept.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        kept.truncate(MIN_KEPT);
        kept.sort_unstable();
    }
    kept
}

/// Failed requests — aborted, errored and refused (`InstanceDown`) — as a
/// percentage of attempted requests.
pub fn failed_pct(attempted: u64, aborted: u64, errors: u64, refused: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    (aborted + errors + refused) as f64 * 100.0 / attempted as f64
}

/// `later - earlier` of one histogram (both cumulative snapshots of the
/// same registry).
pub fn hist_delta(later: &HistSnapshot, earlier: &HistSnapshot) -> HistSnapshot {
    let mut d = HistSnapshot::default();
    for i in 0..BUCKETS {
        d.buckets[i] = later.buckets[i].saturating_sub(earlier.buckets[i]);
    }
    d.count = later.count.saturating_sub(earlier.count);
    d.sum_ns = later.sum_ns.saturating_sub(earlier.sum_ns);
    d
}

/// Median of a log-bucketed histogram in microseconds, linearly
/// interpolated inside the bucket that holds it (a bucket midpoint alone
/// would read the same on every run). 0 when empty.
pub fn hist_p50_us(h: &HistSnapshot) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = h.count as f64 / 2.0;
    let mut seen = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (seen + n) as f64 >= target {
            let lo = bucket_lower_ns(i) as f64;
            let hi = if i + 1 < BUCKETS {
                bucket_lower_ns(i + 1) as f64
            } else {
                2.0 * lo
            };
            let frac = (target - seen as f64) / n as f64;
            return (lo + frac * (hi - lo)) / 1_000.0;
        }
        seen += n;
    }
    bucket_lower_ns(BUCKETS - 1) as f64 / 1_000.0
}

/// `later - earlier` of a whole observability snapshot: counters and
/// histograms subtract, gauges keep the later reading.
pub fn snapshot_delta(later: &Snapshot, earlier: &Snapshot) -> Snapshot {
    let mut d = later.clone();
    for c in 0..d.phase_ns.len() {
        for k in 0..d.phase_ns[c].len() {
            d.phase_ns[c][k] = later.phase_ns[c][k].saturating_sub(earlier.phase_ns[c][k]);
        }
        d.txns[c] = later.txns[c].saturating_sub(earlier.txns[c]);
        d.txn_us[c] = hist_delta(&later.txn_us[c], &earlier.txn_us[c]);
    }
    d.prepare_us = hist_delta(&later.prepare_us, &earlier.prepare_us);
    d.decision_us = hist_delta(&later.decision_us, &earlier.decision_us);
    d.parked_us = hist_delta(&later.parked_us, &earlier.parked_us);
    d.recovery_us = hist_delta(&later.recovery_us, &earlier.recovery_us);
    d
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_slices_are_left_out_and_the_least_stolen_fill_in() {
        let steal = [0.01, 0.30, 0.0, 0.05, 0.06, 0.02];
        assert_eq!(unstolen(&steal), vec![0, 2, 3, 5]);
        let mostly_stolen = [0.2, 0.01, 0.3, 0.02, 0.4, 0.1];
        assert_eq!(unstolen(&mostly_stolen), vec![1, 3, 5]);
        assert_eq!(unstolen(&[0.5, 0.6]), vec![0, 1]);
    }

    #[test]
    fn p99_is_reported_only_with_ten_samples_beyond_it() {
        // 1000 samples: rank of p99 is 989, leaving exactly 10 beyond.
        let many: Vec<u64> = (1..=1000).collect();
        let t = tail(&many, 99.0);
        assert_eq!(t.value, 990);
        assert_eq!(t.beyond, 10);
        assert!(t.supported());

        // 999 samples leave only 9 beyond p99: flagged, and the highest
        // percentile that is supported is the next one down.
        let few: Vec<u64> = (1..=999).collect();
        let t = tail(&few, 99.0);
        assert_eq!(t.beyond, 9);
        assert!(!t.supported());
        let best = highest_supported(&few).unwrap();
        assert_eq!(best.pct, 95.0);
        assert!(best.beyond >= MIN_BEYOND);

        // Too few samples for anything.
        assert!(highest_supported(&[1, 2, 3]).is_none());
        assert!(!tail(&[], 99.0).supported());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 50.0), 20);
        assert_eq!(percentile(&v, 100.0), 40);
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn failed_pct_counts_refusals_against_attempts() {
        // 200 attempted: 3 aborts, 1 error and 4 refused (instance down).
        assert_eq!(failed_pct(200, 3, 1, 4), 4.0);
        // Refusals alone count as failures.
        assert_eq!(failed_pct(50, 0, 0, 5), 10.0);
        assert_eq!(failed_pct(10, 0, 0, 0), 0.0);
        assert_eq!(failed_pct(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn hist_median_interpolates_inside_its_bucket() {
        let mut h = HistSnapshot::default();
        let i = islands_obs::hist::bucket_of(700_000);
        h.buckets[i] = 4;
        h.count = 4;
        let p50 = hist_p50_us(&h);
        let lo = bucket_lower_ns(i) as f64 / 1e3;
        let hi = bucket_lower_ns(i + 1) as f64 / 1e3;
        assert!(p50 > lo && p50 < hi, "{lo} < {p50} < {hi}");
        assert_eq!(hist_p50_us(&HistSnapshot::default()), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
