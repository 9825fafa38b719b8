//! Independent reference arithmetic the answer checks are built on.
//!
//! Nothing in this module calls the engines it checks: the distances,
//! rolling statistics and nearest neighbours below are the harness's own
//! code, written from the definitions and unit-tested on hand-computed
//! cases.
//!
//! * z-normalized distance: `d(i, j, ℓ) = sqrt(2ℓ(1 − ρ))`, with `ρ` the
//!   Pearson correlation of the two windows;
//! * rolling mean and standard deviation from prefix sums of the
//!   globally centred series;
//! * a row's nearest neighbour carried across lengths with
//!   `QT_{ℓ+1}(i, j) = QT_ℓ(i, j) + t[i+ℓ]·t[j+ℓ]`.

/// Windows whose standard deviation falls below this are flat: their
/// z-normalization is undefined, so the checks skip them.
pub const FLAT_STD: f64 = 1e-8;

/// Correlation tolerance of every distance comparison. Two distances at
/// length `ℓ` agree when their squares differ by at most `2ℓ·RHO_TOL`.
pub const RHO_TOL: f64 = 1e-6;

/// The trivial-match exclusion half-width at length `l`: offsets `i`, `j`
/// with `|i − j| ≤ exclusion(l)` never match (the quarter-window rule).
#[must_use]
pub fn exclusion(l: usize) -> usize {
    l.div_ceil(4).max(1)
}

/// Number of admissible cells `(i, j)`, `j > i + exclusion(l)`, of the
/// self-join of a length-`n` series at window `l`.
#[must_use]
pub fn admissible_cells(n: usize, l: usize) -> u64 {
    let m = (n + 1).saturating_sub(l) as u64;
    let first = exclusion(l) as u64 + 1;
    if first >= m {
        return 0;
    }
    let rows = m - first;
    rows * (rows + 1) / 2
}

/// Whether two distances at length `l` agree within [`RHO_TOL`].
#[must_use]
pub fn same_distance(a: f64, b: f64, l: usize) -> bool {
    (a * a - b * b).abs() <= 2.0 * l as f64 * RHO_TOL
}

/// Whether distance `a` is at most `b` within [`RHO_TOL`].
#[must_use]
pub fn not_above(a: f64, b: f64, l: usize) -> bool {
    a * a <= b * b + 2.0 * l as f64 * RHO_TOL
}

/// Direct z-normalized Euclidean distance of two equal-length windows
/// (normalize each, then sum squared differences). `None` when either
/// window is flat.
#[must_use]
pub fn zdist_direct(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "windows of different lengths");
    let norm = |w: &[f64]| -> Option<Vec<f64>> {
        let l = w.len() as f64;
        let mean = w.iter().sum::<f64>() / l;
        let std = (w.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / l).sqrt();
        (std >= FLAT_STD).then(|| w.iter().map(|v| (v - mean) / std).collect())
    };
    let (za, zb) = (norm(a)?, norm(b)?);
    Some(za.iter().zip(&zb).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt())
}

/// A series prepared for the checks: centred on its global mean (so the
/// dot products stay well-conditioned) with prefix sums for the rolling
/// window statistics.
pub struct Reference {
    x: Vec<f64>,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
}

impl Reference {
    /// Prepares `raw` (the samples exactly as the program received them).
    #[must_use]
    pub fn new(raw: &[f64]) -> Self {
        let mean = raw.iter().sum::<f64>() / raw.len().max(1) as f64;
        let x: Vec<f64> = raw.iter().map(|v| v - mean).collect();
        let mut sum = Vec::with_capacity(x.len() + 1);
        let mut sum_sq = Vec::with_capacity(x.len() + 1);
        let (mut s, mut q) = (0.0, 0.0);
        sum.push(0.0);
        sum_sq.push(0.0);
        for v in &x {
            s += v;
            q += v * v;
            sum.push(s);
            sum_sq.push(q);
        }
        Self { x, sum, sum_sq }
    }

    /// Series length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Mean of window `[i, i + l)` (of the centred series).
    #[must_use]
    pub fn mean(&self, i: usize, l: usize) -> f64 {
        (self.sum[i + l] - self.sum[i]) / l as f64
    }

    /// Population standard deviation of window `[i, i + l)`.
    #[must_use]
    pub fn std(&self, i: usize, l: usize) -> f64 {
        let mean = self.mean(i, l);
        ((self.sum_sq[i + l] - self.sum_sq[i]) / l as f64 - mean * mean).max(0.0).sqrt()
    }

    /// Pearson correlation of windows `i` and `j` at length `l` from
    /// their dot product `qt`. `None` when either window is flat.
    fn rho(&self, qt: f64, i: usize, j: usize, l: usize) -> Option<f64> {
        let (si, sj) = (self.std(i, l), self.std(j, l));
        if si < FLAT_STD || sj < FLAT_STD {
            return None;
        }
        let lf = l as f64;
        Some((qt - lf * self.mean(i, l) * self.mean(j, l)) / (lf * si * sj))
    }

    /// z-normalized distance of windows `i` and `j` at length `l`, from a
    /// fresh dot product. `None` when a window is flat or out of range.
    #[must_use]
    pub fn distance(&self, i: usize, j: usize, l: usize) -> Option<f64> {
        if l == 0 || i.max(j) + l > self.x.len() {
            return None;
        }
        let qt: f64 = self.x[i..i + l].iter().zip(&self.x[j..j + l]).map(|(a, b)| a * b).sum();
        let rho = self.rho(qt, i, j, l)?;
        Some((2.0 * l as f64 * (1.0 - rho.clamp(-1.0, 1.0))).max(0.0).sqrt())
    }

    /// Nearest admissible neighbour `(offset, distance)` of row `i` at
    /// every length in `l_min..=l_max` (index `ℓ − l_min`), carrying the
    /// row's dot products from one length to the next with
    /// `QT_{ℓ+1}(i, j) = QT_ℓ(i, j) + t[i+ℓ]·t[j+ℓ]`. An entry is `None`
    /// where the row does not exist at that length, the row is flat, or no
    /// admissible neighbour exists. Ties go to the smallest offset.
    #[must_use]
    pub fn nn_across(&self, i: usize, l_min: usize, l_max: usize) -> Vec<Option<(usize, f64)>> {
        let n = self.x.len();
        let mut out = vec![None; l_max + 1 - l_min];
        if l_min == 0 || i + l_min > n {
            return out;
        }
        let m0 = n + 1 - l_min;
        let row = &self.x[i..i + l_min];
        let mut qt: Vec<f64> = (0..m0)
            .map(|j| row.iter().zip(&self.x[j..j + l_min]).map(|(a, b)| a * b).sum())
            .collect();
        for (slot, l) in out.iter_mut().zip(l_min..=l_max) {
            let m = n + 1 - l;
            if i >= m {
                break;
            }
            let excl = exclusion(l);
            let mut best: Option<(usize, f64)> = None;
            for (j, &q) in qt.iter().enumerate().take(m) {
                if i.abs_diff(j) <= excl {
                    continue;
                }
                if let Some(rho) = self.rho(q, i, j, l) {
                    if best.is_none_or(|(_, r)| rho > r) {
                        best = Some((j, rho));
                    }
                }
            }
            *slot = best.map(|(j, rho)| {
                (j, (2.0 * l as f64 * (1.0 - rho.clamp(-1.0, 1.0))).max(0.0).sqrt())
            });
            if l == l_max || i + 1 >= m {
                break;
            }
            // Advance every still-valid dot product to length l + 1.
            let head = self.x[i + l];
            for (j, q) in qt.iter_mut().enumerate().take(m - 1) {
                *q += head * self.x[j + l];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusion_is_the_quarter_rule() {
        assert_eq!(exclusion(1), 1);
        assert_eq!(exclusion(4), 1);
        assert_eq!(exclusion(5), 2);
        assert_eq!(exclusion(64), 16);
        assert_eq!(exclusion(65), 17);
    }

    #[test]
    fn admissible_cells_hand_counted() {
        // n = 10, l = 4: windows 0..=6 (m = 7), exclusion 1, so pairs with
        // j - i >= 2: 5 + 4 + 3 + 2 + 1 = 15.
        assert_eq!(admissible_cells(10, 4), 15);
        // Too short for any admissible pair.
        assert_eq!(admissible_cells(5, 4), 0);
    }

    #[test]
    fn rolling_stats_hand_computed() {
        // Centred on the global mean 2.5: [-1.5, -0.5, 0.5, 1.5].
        let r = Reference::new(&[1.0, 2.0, 3.0, 4.0]);
        assert!((r.mean(0, 2) - -1.0).abs() < 1e-15);
        assert!((r.mean(1, 3) - 0.5).abs() < 1e-15);
        // Window [1, 2]: population std 0.5; window [2, 3, 4]: sqrt(2/3).
        assert!((r.std(0, 2) - 0.5).abs() < 1e-15);
        assert!((r.std(1, 3) - (2.0f64 / 3.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn distance_hand_computed() {
        // [0, 1] and [1, 0] z-normalize to [-1, 1] and [1, -1]: distance
        // sqrt(4 + 4) = sqrt(8); rho = -1 gives sqrt(2·2·2) too.
        let r = Reference::new(&[0.0, 1.0, 0.0]);
        assert!((r.distance(0, 1, 2).unwrap() - 8f64.sqrt()).abs() < 1e-12);
        // Identical shapes at different offset and scale are at distance 0.
        let r = Reference::new(&[1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        assert!(r.distance(0, 3, 3).unwrap().abs() < 1e-6);
        // A flat window has no z-normalized distance.
        let r = Reference::new(&[5.0, 5.0, 5.0, 1.0, 2.0, 3.0]);
        assert!(r.distance(0, 3, 3).is_none());
    }

    #[test]
    fn dot_form_matches_direct_form() {
        let x: Vec<f64> =
            (0..200).map(|i| (i as f64 * 0.37).sin() + 0.01 * (i % 7) as f64).collect();
        let r = Reference::new(&x);
        for (i, j, l) in [(0, 50, 16), (3, 120, 40), (77, 10, 25)] {
            let a = r.distance(i, j, l).unwrap();
            let b = zdist_direct(&x[i..i + l], &x[j..j + l]).unwrap();
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn nn_across_matches_brute_force_at_every_length() {
        let x: Vec<f64> = (0..160)
            .map(|i| {
                (i as f64 * 0.21).sin()
                    + 0.3 * (i as f64 * 0.05).cos()
                    + 0.02 * ((i * 7919) % 13) as f64
            })
            .collect();
        let r = Reference::new(&x);
        for i in [0, 17, 90, 140] {
            let carried = r.nn_across(i, 8, 20);
            for (k, l) in (8..=20).enumerate() {
                let m = x.len() + 1 - l;
                let brute = (0..m)
                    .filter(|&j| i < m && i.abs_diff(j) > exclusion(l))
                    .filter_map(|j| zdist_direct(&x[i..i + l], &x[j..j + l]).map(|d| (j, d)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
                match (carried[k], brute) {
                    (None, None) => {}
                    (Some((_, d)), Some((_, e))) => assert!(same_distance(d, e, l), "{d} vs {e}"),
                    other => panic!("row {i} length {l}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn tolerance_helpers() {
        assert!(same_distance(1.0, 1.0 + 1e-9, 64));
        assert!(!same_distance(1.0, 1.01, 64));
        assert!(not_above(1.0, 1.0, 64));
        assert!(not_above(0.5, 1.0, 64));
        assert!(!not_above(1.1, 1.0, 64));
    }
}
