//! Answer checks: the program's outputs against [`crate::reference`].
//!
//! The checks take plain answer records (copied out of the program's
//! structures or parsed off the wire), so the tests can hand them wrong
//! answers without touching an engine.

use std::collections::BTreeMap;

use crate::reference::{exclusion, not_above, same_distance, Reference};

/// One reported motif pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair {
    /// Subsequence length.
    pub length: usize,
    /// Left offset.
    pub a: usize,
    /// Right offset.
    pub b: usize,
    /// Reported z-normalized distance.
    pub distance: f64,
}

/// A fixed-length matrix profile as reported.
pub struct Profile<'a> {
    /// Window length.
    pub length: usize,
    /// Nearest-neighbour distance per offset.
    pub values: &'a [f64],
    /// Nearest-neighbour offset per offset.
    pub indices: &'a [Option<usize>],
}

/// A VALMAP `⟨MPn, IP, LP⟩` as reported.
pub struct Valmap<'a> {
    /// Length-normalized distance per offset.
    pub mpn: &'a [f64],
    /// Match offset per offset.
    pub ip: &'a [Option<usize>],
    /// Length of the match per offset.
    pub lp: &'a [usize],
}

/// Checks answers about one series.
pub struct Checker {
    reference: Reference,
    l_min: usize,
    l_max: usize,
    nn: BTreeMap<usize, Vec<Option<(usize, f64)>>>,
}

impl Checker {
    /// A checker for `raw` over the length range `l_min..=l_max`.
    #[must_use]
    pub fn new(raw: &[f64], l_min: usize, l_max: usize) -> Self {
        Self { reference: Reference::new(raw), l_min, l_max, nn: BTreeMap::new() }
    }

    /// The reference nearest neighbour of row `i` at length `l`, computed
    /// once per row for the whole range and cached.
    fn nn(&mut self, i: usize, l: usize) -> Option<(usize, f64)> {
        let (r, lo, hi) = (&self.reference, self.l_min, self.l_max);
        self.nn.entry(i).or_insert_with(|| r.nn_across(i, lo, hi))[l - lo]
    }

    /// One pair: members outside each other's exclusion zone, and the
    /// reported distance equal to the reference distance.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn pair(&self, p: &Pair) -> Result<(), String> {
        if p.a.abs_diff(p.b) <= exclusion(p.length) {
            return Err(format!("pair {p:?} lies inside the exclusion zone"));
        }
        match self.reference.distance(p.a, p.b, p.length) {
            Some(d) if same_distance(d, p.distance, p.length) => Ok(()),
            Some(d) => Err(format!("pair {p:?}: reference distance {d}")),
            None => Err(format!("pair {p:?}: no reference distance (flat or out of range)")),
        }
    }

    /// Per-length answers (`lengths[k]` are length `l_min + k`'s pairs in
    /// ascending distance): every pair is checked, and each length's best
    /// pair must be no farther than the nearest neighbour of every sample
    /// row and of every reported pair member, and equal to its own left
    /// member's nearest neighbour.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn lengths(&mut self, lengths: &[Vec<Pair>], rows: &[usize]) -> Result<(), String> {
        if lengths.len() != self.l_max + 1 - self.l_min {
            return Err(format!(
                "{} lengths reported for a range of {}",
                lengths.len(),
                self.l_max + 1 - self.l_min
            ));
        }
        for (pairs, l) in lengths.iter().zip(self.l_min..) {
            for w in pairs.windows(2) {
                if w[1].distance < w[0].distance {
                    return Err(format!("length {l}: pairs out of order: {w:?}"));
                }
            }
            for p in pairs {
                if p.length != l {
                    return Err(format!("length {l}: pair {p:?} carries another length"));
                }
                self.pair(p)?;
            }
            let Some(best) = pairs.first() else {
                return Err(format!("length {l}: no pair reported"));
            };
            match self.nn(best.a, l) {
                Some((_, d)) if same_distance(d, best.distance, l) => {}
                other => {
                    return Err(format!(
                        "length {l}: best pair {best:?} but row {} has nearest neighbour {other:?}",
                        best.a
                    ));
                }
            }
            let members = pairs.iter().flat_map(|p| [p.a, p.b]);
            for i in rows.iter().copied().chain(members) {
                if let Some((j, d)) = self.nn(i, l) {
                    if !not_above(best.distance, d, l) {
                        return Err(format!("length {l}: best pair {best:?} is not optimal: row {i} matches {j} at {d}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// A fixed-length profile: on every sample row the entry equals the
    /// reference nearest neighbour, and the reported neighbour is
    /// admissible and at the reported distance.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn profile(&mut self, p: &Profile<'_>, rows: &[usize]) -> Result<(), String> {
        let l = p.length;
        let m = (self.reference.len() + 1).saturating_sub(l);
        if p.values.len() != m || p.indices.len() != m {
            return Err(format!("profile at {l} has {} entries, expected {m}", p.values.len()));
        }
        for &i in rows.iter().filter(|&&i| i < m) {
            let reported = p.values[i];
            match (self.nn(i, l), p.indices[i]) {
                (None, _) => {}
                (Some((_, d)), Some(j)) => {
                    if !same_distance(d, reported, l) {
                        return Err(format!(
                            "profile at {l}, row {i}: {reported} but nearest neighbour at {d}"
                        ));
                    }
                    self.pair(&Pair { length: l, a: i, b: j, distance: reported })?;
                }
                (Some(nn), None) => {
                    return Err(format!(
                        "profile at {l}, row {i}: no neighbour reported, reference {nn:?}"
                    ))
                }
            }
        }
        Ok(())
    }

    /// A VALMAP: every finite entry is the length-normalized distance of
    /// its own `(offset, match, length)` triple; on sample rows no entry
    /// is worse than the base-length nearest neighbour (and equals it
    /// where the entry stayed at the base length); no entry is worse than
    /// any reported pair it belongs to.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn valmap(&mut self, v: &Valmap<'_>, pairs: &[Pair], rows: &[usize]) -> Result<(), String> {
        let m = (self.reference.len() + 1).saturating_sub(self.l_min);
        if v.mpn.len() != m || v.ip.len() != m || v.lp.len() != m {
            return Err(format!("VALMAP has {} entries, expected {m}", v.mpn.len()));
        }
        let norm = |d: f64, l: usize| d / (l as f64).sqrt();
        for i in 0..m {
            let (mpn, l) = (v.mpn[i], v.lp[i]);
            if !mpn.is_finite() {
                continue;
            }
            let Some(j) = v.ip[i] else {
                return Err(format!("VALMAP entry {i}: finite distance without a match"));
            };
            if !(self.l_min..=self.l_max).contains(&l) {
                return Err(format!("VALMAP entry {i}: length {l} outside the range"));
            }
            self.pair(&Pair { length: l, a: i, b: j, distance: mpn * (l as f64).sqrt() })
                .map_err(|e| format!("VALMAP entry {i}: {e}"))?;
        }
        let l0 = self.l_min;
        for &i in rows.iter().filter(|&&i| i < m) {
            let Some((_, d)) = self.nn(i, l0) else { continue };
            let base = norm(d, l0);
            let (mpn, l) = (v.mpn[i], v.lp[i]);
            let ok = if l == l0 { same_distance(mpn, base, 1) } else { not_above(mpn, base, 1) };
            if !ok {
                return Err(format!(
                    "VALMAP entry {i}: {mpn} at length {l}, base nearest neighbour {base}"
                ));
            }
        }
        for p in pairs {
            let bound = norm(p.distance, p.length);
            for i in [p.a, p.b] {
                if i < m && !not_above(v.mpn[i], bound, 1) {
                    return Err(format!("VALMAP entry {i}: {} worse than pair {p:?}", v.mpn[i]));
                }
            }
        }
        Ok(())
    }
}

/// `count` distinct sample rows in `0..m`, drawn from `seed`
/// (splitmix64), in ascending order.
#[must_use]
pub fn sample_rows(seed: u64, m: usize, count: usize) -> Vec<usize> {
    let mut state = seed ^ 0x5151_5eed_0000_0001;
    let mut rows = std::collections::BTreeSet::new();
    while rows.len() < count.min(m) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        rows.insert((z % m as u64) as usize);
    }
    rows.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A series with one planted repeat: a distinct bump at 20 and again
    /// at 70, on an otherwise slowly varying background.
    fn series() -> Vec<f64> {
        (0..120)
            .map(|i| {
                let bump = |c: usize| {
                    let t = i as f64 - c as f64;
                    if (0.0..10.0).contains(&t) {
                        (t * 0.7).sin() * 3.0
                    } else {
                        0.0
                    }
                };
                (i as f64 * 0.11).sin() + 0.05 * ((i * 37) % 11) as f64 + bump(20) + bump(70)
            })
            .collect()
    }

    /// The exact answer by brute force over all rows, from the reference.
    fn truth(x: &[f64], l_min: usize, l_max: usize) -> Vec<Vec<Pair>> {
        let r = Reference::new(x);
        (l_min..=l_max)
            .map(|l| {
                let m = x.len() + 1 - l;
                let best = (0..m)
                    .filter_map(|i| r.nn_across(i, l, l)[0].map(|(j, d)| (i, j, d)))
                    .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
                    .unwrap();
                let (a, b) = (best.0.min(best.1), best.0.max(best.1));
                vec![Pair { length: l, a, b, distance: best.2 }]
            })
            .collect()
    }

    #[test]
    fn exact_answer_passes() {
        let x = series();
        let answer = truth(&x, 8, 12);
        let rows: Vec<usize> = (0..x.len() - 8).collect();
        Checker::new(&x, 8, 12).lengths(&answer, &rows).unwrap();
    }

    #[test]
    fn rejects_a_perturbed_distance() {
        let x = series();
        let mut answer = truth(&x, 8, 12);
        answer[2][0].distance *= 1.01;
        let err = Checker::new(&x, 8, 12).lengths(&answer, &[]).unwrap_err();
        assert!(err.contains("reference distance"), "{err}");
    }

    #[test]
    fn rejects_a_pair_inside_the_exclusion_zone() {
        let x = series();
        let r = Reference::new(&x);
        // Offsets 2 apart at length 8 (exclusion 2), with its true distance.
        let d = r.distance(40, 42, 8).unwrap();
        let p = Pair { length: 8, a: 40, b: 42, distance: d };
        let err = Checker::new(&x, 8, 8).pair(&p).unwrap_err();
        assert!(err.contains("exclusion"), "{err}");
    }

    #[test]
    fn rejects_a_non_optimal_pair() {
        let x = series();
        let mut answer = truth(&x, 8, 8);
        // A correctly measured, admissible, but worse pair.
        let r = Reference::new(&x);
        let best = answer[0][0];
        let (a, b) = (5, 100);
        let d = r.distance(a, b, 8).unwrap();
        assert!(d > best.distance + 0.1);
        answer[0][0] = Pair { length: 8, a, b, distance: d };
        let rows: Vec<usize> = (0..x.len() - 8).collect();
        let err = Checker::new(&x, 8, 8).lengths(&answer, &rows).unwrap_err();
        assert!(err.contains("not optimal") || err.contains("nearest neighbour"), "{err}");
    }

    #[test]
    fn profile_and_valmap_checks() {
        let x = series();
        let r = Reference::new(&x);
        let l = 8;
        let m = x.len() + 1 - l;
        let (mut values, mut indices) = (Vec::new(), Vec::new());
        for i in 0..m {
            let (j, d) = r.nn_across(i, l, l)[0].unwrap();
            values.push(d);
            indices.push(Some(j));
        }
        let rows: Vec<usize> = (0..m).collect();
        let mut c = Checker::new(&x, l, l);
        c.profile(&Profile { length: l, values: &values, indices: &indices }, &rows).unwrap();
        let mpn: Vec<f64> = values.iter().map(|d| d / (l as f64).sqrt()).collect();
        let lp = vec![l; m];
        c.valmap(&Valmap { mpn: &mpn, ip: &indices, lp: &lp }, &[], &rows).unwrap();

        let mut bad = values.clone();
        bad[33] *= 1.05;
        assert!(c.profile(&Profile { length: l, values: &bad, indices: &indices }, &rows).is_err());
        let mut bad_mpn = mpn.clone();
        bad_mpn[33] *= 0.9;
        assert!(c.valmap(&Valmap { mpn: &bad_mpn, ip: &indices, lp: &lp }, &[], &rows).is_err());
    }

    #[test]
    fn sample_rows_are_seeded_distinct_and_sorted() {
        let a = sample_rows(7, 1000, 20);
        assert_eq!(a, sample_rows(7, 1000, 20));
        assert_ne!(a, sample_rows(8, 1000, 20));
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a.iter().all(|&r| r < 1000));
        assert_eq!(sample_rows(1, 3, 10), vec![0, 1, 2]);
    }
}
