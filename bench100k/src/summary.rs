//! Latency summaries and failure accounting.
//!
//! A failed request (an error, or rows that differ from the reference)
//! ranks as slower than every success: its latency is taken as the wall
//! time of the whole sequence, which no success can reach. Fixing a
//! failing request can therefore only improve the latency figures.

/// One request's outcome for the summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Latency in milliseconds (ignored for failures).
    pub ms: f64,
    pub ok: bool,
}

/// Successes that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A latency distribution's median and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50_ms: f64,
    /// The tail percentile (integer percent) and its value.
    pub tail_pct: u32,
    pub tail_ms: f64,
    /// Successful samples ranked beyond the tail percentile.
    pub tail_beyond: usize,
    /// Samples in the distribution (successes and failures).
    pub samples: usize,
}

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)` (1-based).
fn rank_of(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).clamp(1, n)
}

/// Median and tail of `samples`. Failures are ranked slowest with
/// latency `failed_ms`. The tail is the highest integer percentile
/// from 50 to 99 that keeps at least [`TAIL_BEYOND`] successful samples
/// beyond it; when even p50 keeps fewer, the tail is p50.
pub fn latency(samples: &[Sample], failed_ms: f64) -> Latency {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut ok: Vec<f64> = samples.iter().filter(|s| s.ok).map(|s| s.ms).collect();
    ok.sort_by(f64::total_cmp);
    let n = samples.len();
    let successes = ok.len();
    let at = |rank: usize| {
        if rank <= successes {
            ok[rank - 1]
        } else {
            failed_ms
        }
    };
    let beyond = |p: u32| successes.saturating_sub(rank_of(p, n));
    let tail_pct = (50..=99)
        .rev()
        .find(|&p| beyond(p) >= TAIL_BEYOND)
        .unwrap_or(50);
    Latency {
        p50_ms: at(rank_of(50, n)),
        tail_pct,
        tail_ms: at(rank_of(tail_pct, n)),
        tail_beyond: beyond(tail_pct),
        samples: n,
    }
}

/// Median of a non-empty list (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Requests attempted and failed, for `failed_share` and `ok_share`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Requests answered with an error.
    pub errored: u64,
    /// Requests answered with rows that differ from the reference.
    pub wrong: u64,
}

impl Tally {
    pub fn record(&mut self, errored: bool, wrong: bool) {
        self.attempted += 1;
        if errored {
            self.errored += 1;
        } else if wrong {
            self.wrong += 1;
        }
    }

    pub fn failed(&self) -> u64 {
        self.errored + self.wrong
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed_share()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oks(ms: impl IntoIterator<Item = f64>) -> Vec<Sample> {
        ms.into_iter().map(|ms| Sample { ms, ok: true }).collect()
    }

    #[test]
    fn tail_keeps_ten_successes_beyond_it() {
        // 100 successes 1..=100 ms: p90 is rank 90, ten beyond it.
        let l = latency(&oks((1..=100).map(f64::from)), 1e9);
        assert_eq!((l.tail_pct, l.tail_ms, l.tail_beyond), (90, 90.0, 10));
        assert_eq!(l.p50_ms, 50.0);
        // 200 successes: p95 is rank 190, ten beyond.
        let l = latency(&oks((1..=200).map(f64::from)), 1e9);
        assert_eq!((l.tail_pct, l.tail_ms, l.tail_beyond), (95, 190.0, 10));
        // 1000 successes: p99 is rank 990.
        let l = latency(&oks((1..=1000).map(f64::from)), 1e9);
        assert_eq!((l.tail_pct, l.tail_ms), (99, 990.0));
    }

    #[test]
    fn failures_rank_slowest_and_do_not_count_beyond() {
        // 90 successes of 1..=90 ms plus 10 failures, one of them fast:
        // the failures take the top ranks, so p80 (rank 80) is the
        // highest percentile with ten *successes* beyond it.
        let mut s = oks((1..=90).map(f64::from));
        s.extend((0..10).map(|i| Sample {
            ms: i as f64,
            ok: false,
        }));
        let l = latency(&s, 5_000.0);
        assert_eq!((l.tail_pct, l.tail_ms, l.tail_beyond), (80, 80.0, 10));
        assert_eq!(l.p50_ms, 50.0);
        assert_eq!(l.samples, 100);
        // A majority of failures puts the median on the failure value.
        let mut s = oks([1.0, 2.0]);
        s.extend((0..3).map(|_| Sample { ms: 0.0, ok: false }));
        assert_eq!(latency(&s, 5_000.0).p50_ms, 5_000.0);
    }

    #[test]
    fn fixing_a_failure_never_worsens_latency() {
        let mut s = oks((1..=60).map(f64::from));
        s.push(Sample { ms: 7.0, ok: false });
        let before = latency(&s, 1_000.0);
        s.last_mut().unwrap().ok = true;
        let after = latency(&s, 1_000.0);
        assert!(after.p50_ms <= before.p50_ms);
        assert!(after.tail_ms <= before.tail_ms || after.tail_pct > before.tail_pct);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let l = latency(&oks((1..=12).map(f64::from)), 1e9);
        assert_eq!((l.tail_pct, l.tail_ms), (50, 6.0));
        assert_eq!(l.tail_beyond, 6);
    }

    #[test]
    fn tally_counts_errors_and_wrong_rows_once() {
        let mut t = Tally::default();
        t.record(false, false);
        t.record(true, false);
        t.record(false, true);
        t.record(true, true);
        assert_eq!((t.attempted, t.errored, t.wrong, t.failed()), (4, 2, 1, 3));
        assert_eq!(t.failed_share(), 0.75);
        assert_eq!(t.ok_share(), 0.25);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
