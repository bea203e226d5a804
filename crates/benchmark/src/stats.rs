//! Estimators: the best-round rule, the tail-percentile rule and the
//! bound check.
//!
//! The host this benchmark was designed on slows everything by 20–70 % in
//! bursts that last seconds (see the crate README). Interference only
//! ever *adds* time, so when the same block of operations (a **round**) is
//! repeated across the whole run, the fastest round estimates the program
//! and the median round estimates the neighbours. A gated timing is
//! therefore the **best round**: each round's median, then the minimum
//! over rounds (the maximum for a rate).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, set-up time, memory).
    Lower,
    /// Larger is better (rates, recall).
    Higher,
}

impl Better {
    /// The manifest spelling (`"lower"` / `"higher"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty. Sorts a copy, so callers keep their sample order.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let hi = *v.get(mid)?;
    if v.len() % 2 == 1 {
        Some(hi)
    } else {
        let lo = *v.get(mid.checked_sub(1)?)?;
        Some((lo + hi) / 2.0)
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in percent (e.g. `99.0`).
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile, capped at p99, that still has at least ten
/// samples beyond it. `None` below twenty samples, where even the p50 has
/// fewer than ten beyond.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Index of the largest sample that leaves ten samples above it,
    // lowered to the p99 position when the run is long enough to have one.
    let by_evidence = n.checked_sub(11)?;
    let p99 = (n as f64 * 0.99).ceil() as usize;
    let idx = by_evidence.min(p99.saturating_sub(1));
    Some(Tail {
        percentile: (idx + 1) as f64 * 100.0 / n as f64,
        value: *v.get(idx)?,
        samples: n,
    })
}

/// Samples of one operation type, grouped into identically built rounds.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    rounds: Vec<Vec<f64>>,
}

impl Rounds {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one finished round; empty rounds are ignored.
    pub fn push(&mut self, samples: Vec<f64>) {
        if !samples.is_empty() {
            self.rounds.push(samples);
        }
    }

    /// Adds a round that consists of a single sample (a rate over the
    /// round, or one cold build).
    pub fn push_one(&mut self, sample: f64) {
        self.rounds.push(vec![sample]);
    }

    /// Number of rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no round was recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Total number of samples over all rounds.
    pub fn samples(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// The per-round medians, in recording order.
    pub fn round_medians(&self) -> Vec<f64> {
        self.rounds.iter().filter_map(|r| median(r)).collect()
    }

    /// The best round: minimum (or maximum, for `Better::Higher`) over
    /// the per-round medians. `0.0` when nothing was recorded, so a
    /// bypassed layer reads as zero work.
    pub fn best(&self, better: Better) -> f64 {
        let medians = self.round_medians();
        let pick = match better {
            Better::Lower => medians.iter().copied().min_by(f64::total_cmp),
            Better::Higher => medians.iter().copied().max_by(f64::total_cmp),
        };
        pick.unwrap_or(0.0)
    }

    /// The best round taken position by position. When every round ran
    /// the same operations in the same order (the cycle design guarantees
    /// it), sample `i` of every round timed the same work, so its minimum
    /// over rounds is that operation undisturbed; the median of those
    /// minima is the p50 of the undisturbed operations. It needs each
    /// *operation* to meet one quiet moment, where [`Rounds::best`] needs
    /// half a round to be quiet at once. Falls back to [`Rounds::best`]
    /// when the rounds do not line up.
    pub fn floor(&self, better: Better) -> f64 {
        let Some(width) = self.rounds.first().map(Vec::len) else {
            return 0.0;
        };
        if self.rounds.iter().any(|r| r.len() != width) {
            return self.best(better);
        }
        let per_position: Vec<f64> = (0..width)
            .filter_map(|i| {
                let column = self.rounds.iter().filter_map(|r| r.get(i).copied());
                match better {
                    Better::Lower => column.min_by(f64::total_cmp),
                    Better::Higher => column.max_by(f64::total_cmp),
                }
            })
            .collect();
        median(&per_position).unwrap_or(0.0)
    }

    /// The typical round: the median over the per-round medians. On a
    /// quiet host it equals [`Rounds::best`]; the ratio of the two is the
    /// host-noise reading.
    pub fn typical(&self) -> f64 {
        median(&self.round_medians()).unwrap_or(0.0)
    }

    /// The all-sample tail percentile (see [`tail`]).
    pub fn tail(&self) -> Option<Tail> {
        let all: Vec<f64> = self.rounds.iter().flatten().copied().collect();
        tail(&all)
    }
}

/// Relative worsening of `new` against `base`: positive means worse, in
/// shares of `base` (`0.1` = ten per cent worse). Zero when `base` is zero
/// (nothing to be relative to).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// The outcome of comparing one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the bound allows.
    WorseThanBound,
    /// Within the bound (or better).
    Within,
    /// A side's own run-to-run spread is wider than the bound, or a value
    /// is missing: the comparison decides nothing.
    Unresolved,
}

impl Verdict {
    /// The row label printed by `compare`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WorseThanBound => "worse-than-bound",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the bound rule: `spread` is the larger of the two sides' own
/// run-to-run spreads (share of the median; zero for single runs).
pub fn verdict(better: Better, bound: f64, base: f64, new: f64, spread: f64) -> Verdict {
    if !(base.is_finite() && new.is_finite()) || spread > bound {
        Verdict::Unresolved
    } else if worsening(better, base, new) > bound {
        Verdict::WorseThanBound
    } else {
        Verdict::Within
    }
}

/// `(max − min) / median` of `values`: the spread `aa` holds against a
/// metric's bound. Zero for fewer than two values or a zero median.
pub fn range_share(values: &[f64]) -> f64 {
    let lo = values.iter().copied().min_by(f64::total_cmp);
    let hi = values.iter().copied().max_by(f64::total_cmp);
    match (lo, hi, median(values)) {
        (Some(lo), Some(hi), Some(m)) if values.len() > 1 && m != 0.0 => (hi - lo) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forty rounds of 200 samples around 80 µs; rounds 10..30 (half the
    /// run) sit in a 50 % slow burst.
    fn synthetic(burst: bool) -> Rounds {
        let mut rounds = Rounds::new();
        for r in 0..40u32 {
            let slow = burst && (10..30).contains(&r);
            let scale = if slow { 1.5 } else { 1.0 };
            let samples = (0..200u32)
                .map(|i| scale * (80.0 + f64::from((i * 7 + r) % 5) * 0.1))
                .collect();
            rounds.push(samples);
        }
        rounds
    }

    #[test]
    fn best_round_ignores_a_slow_burst_and_typical_does_not() {
        let quiet = synthetic(false);
        let loud = synthetic(true);
        let (b0, b1) = (quiet.best(Better::Lower), loud.best(Better::Lower));
        assert!((b0 - b1).abs() / b0 < 0.005, "best moved: {b0} -> {b1}");
        let (t0, t1) = (quiet.typical(), loud.typical());
        assert!(t1 / t0 > 1.2, "typical must see the burst: {t0} -> {t1}");
        assert!(loud.typical() / loud.best(Better::Lower) > 1.2);
    }

    #[test]
    fn floor_survives_noise_that_covers_most_of_every_round() {
        // Every round has 60 % of its samples disturbed (a different 60 %
        // each time): no round's median is clean, every position is clean
        // in some round.
        let mut rounds = Rounds::new();
        for r in 0..20usize {
            let samples = (0..50usize)
                .map(|i| {
                    let base = 100.0 + (i % 7) as f64;
                    if (i * 3 + r * 7) % 10 < 6 {
                        base * 1.5
                    } else {
                        base
                    }
                })
                .collect();
            rounds.push(samples);
        }
        assert_eq!(rounds.floor(Better::Lower), 103.0);
        assert!(rounds.best(Better::Lower) > 120.0);
        // Rounds that do not line up fall back to the best round.
        rounds.push(vec![1.0]);
        assert_eq!(rounds.floor(Better::Lower), rounds.best(Better::Lower));
        // A rate has one sample per round: floor is the best round.
        let mut rate = Rounds::new();
        for v in [10.0, 12.0, 11.0] {
            rate.push_one(v);
        }
        assert_eq!(rate.floor(Better::Higher), 12.0);
    }

    #[test]
    fn best_of_a_rate_is_the_maximum() {
        let mut r = Rounds::new();
        for v in [15.0, 16.5, 11.0] {
            r.push_one(v);
        }
        assert_eq!(r.best(Better::Higher), 16.5);
        assert_eq!(r.best(Better::Lower), 11.0);
        assert_eq!(r.typical(), 15.0);
        assert_eq!((r.len(), r.samples()), (3, 3));
    }

    #[test]
    fn empty_rounds_read_as_zero() {
        let r = Rounds::new();
        assert!(r.is_empty());
        assert_eq!(r.best(Better::Lower), 0.0);
        assert_eq!(r.typical(), 0.0);
        assert!(r.tail().is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p99 would leave one beyond, so the rule falls back
        // to the 89th of 100 (ten beyond it).
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        // 5000 samples: p99 itself has fifty beyond.
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 4950.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
        assert!(tail(&[1.0; 19]).is_none());
    }

    #[test]
    fn bound_check_directions() {
        assert!((worsening(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert_eq!(
            verdict(Better::Lower, 0.1, 100.0, 112.0, 0.0),
            Verdict::WorseThanBound
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, 100.0, 105.0, 0.0),
            Verdict::Within
        );
        assert_eq!(
            verdict(Better::Higher, 0.1, 100.0, 140.0, 0.0),
            Verdict::Within
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, 100.0, 105.0, 0.2),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, f64::NAN, 1.0, 0.0),
            Verdict::Unresolved
        );
    }

    #[test]
    fn range_share_is_relative_to_the_median() {
        assert!((range_share(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(range_share(&[5.0]), 0.0);
    }
}
