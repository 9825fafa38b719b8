//! Percentiles by the nearest-rank method, and latency summaries.

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by the nearest-rank
/// method: the value at 1-based rank `⌈p/100 · N⌉` of the sorted samples.
/// `None` for an empty sample.
#[must_use]
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The nearest-rank median.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

/// Number of samples ranked above the nearest-rank `p`-th percentile.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n - rank.min(n)
}

/// Tail percentiles considered for a latency, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// A latency distribution as reported: its median, plus the highest
/// percentile that leaves at least 10 samples beyond it — only from 40
/// samples on, since with fewer that percentile would be no tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// `(percentile, value)` of the reported tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples`; `None` when empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        let p50 = median(samples)?;
        let n = samples.len();
        let tail = if n < 40 {
            None
        } else {
            TAILS
                .iter()
                .find(|&&p| beyond(n, p) >= 10)
                .map(|&p| (p, nearest_rank(samples, p).expect("non-empty")))
        };
        Some(Self { n, p50, tail })
    }

    /// The summary as a JSON object, each percentile with its count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"n\":{},\"p50\":{}", self.n, crate::json::num(self.p50));
        if let Some((p, v)) = self.tail {
            s.push_str(&format!(
                ",\"tail_percentile\":{p},\"tail\":{},\"beyond_tail\":{}",
                crate::json::num(v),
                beyond(self.n, p)
            ));
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_hand_computed() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&v, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&v, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(50.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_and_forty_in_all() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().tail, None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (100, 50.0, Some((90.0, 90.0))));
        assert_eq!(beyond(100, 90.0), 10);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().tail, Some((99.0, 990.0)));
        // p90 of 99 leaves only 9 beyond, so the tail falls back to p75.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().tail, Some((75.0, 75.0)));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().tail, Some((75.0, 30.0)));
    }
}
