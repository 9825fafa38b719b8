//! Property tests for VALMOD's core invariants: lower-bound admissibility
//! and rank invariance on arbitrary inputs, and end-to-end exactness
//! against the brute force on random series.

use proptest::prelude::*;
use valmod_core::{run_valmod, LbRowContext, ValmodConfig};
use valmod_series::znorm::{pearson_from_dist, zdist};
use valmod_series::{gen, RollingStats};

fn series(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, min_len..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Admissibility: LB(i, j, L) ≤ d(T_{i,L}, T_{j,L}) for arbitrary
    /// series, rows, candidates, and extensions.
    #[test]
    fn lower_bound_is_admissible(values in series(40, 120), seed in 0usize..100_000) {
        let n = values.len();
        let base = 6 + seed % 10;
        let target = base + (seed / 10) % 12;
        if target >= n {
            return Ok(());
        }
        let i = (seed / 120) % (n - target + 1);
        let j = (seed / 7) % (n - target + 1);
        let stats = RollingStats::new(&values);
        let rho = pearson_from_dist(
            zdist(&values[i..i + base], &values[j..j + base]),
            base,
        );
        let ctx = LbRowContext::new(&stats, i, base, target);
        let lb = ctx.bound(rho);
        let true_d = zdist(&values[i..i + target], &values[j..j + target]);
        prop_assert!(
            lb <= true_d + 1e-5,
            "LB {} > true {} (i={}, j={}, base={}, target={})",
            lb, true_d, i, j, base, target
        );
    }

    /// Rank invariance: the bound is non-increasing in the base
    /// correlation for any row/extension.
    #[test]
    fn lower_bound_is_monotone(values in series(40, 100), seed in 0usize..10_000) {
        let n = values.len();
        let base = 6 + seed % 8;
        let target = base + seed % 16;
        if target >= n {
            return Ok(());
        }
        let i = seed % (n - target + 1);
        let stats = RollingStats::new(&values);
        let ctx = LbRowContext::new(&stats, i, base, target);
        let mut prev = f64::INFINITY;
        for step in 0..=40 {
            let rho = -1.0 + f64::from(step) * 0.05;
            let lb = ctx.bound(rho);
            prop_assert!(lb <= prev + 1e-12, "bound increased at rho {}", rho);
            prev = lb;
        }
    }

    /// End-to-end exactness on random series: VALMOD's best distance per
    /// length equals the matrix-profile minimum computed independently.
    #[test]
    fn valmod_is_exact_on_random_series(values in series(80, 160), seed in 0usize..1000) {
        let l_min = 6 + seed % 6;
        let width = 1 + seed % 6;
        let config = ValmodConfig::new(l_min, l_min + width).with_k(1).with_profile_size(2);
        if config.validate(values.len()).is_err() {
            return Ok(());
        }
        let out = run_valmod(&values, &config).unwrap();
        for r in &out.per_length {
            let mp = valmod_mp::stomp::stomp(&values, r.length, config.exclusion(r.length))
                .unwrap();
            match (r.pairs.first(), mp.min_entry()) {
                (Some(got), Some((_, _, want))) => prop_assert!(
                    (got.distance - want).abs() < 1e-6,
                    "length {}: {} vs {}", r.length, got.distance, want
                ),
                (None, None) => {}
                other => prop_assert!(false, "presence mismatch at {}: {:?}", r.length, other),
            }
        }
    }

    /// Thread-count invariance: the parallel engine's merges are
    /// partition-independent, so every thread count must produce
    /// *byte-identical* per-length distances, pair offsets, pruning
    /// statistics, and VALMAP entries — not merely close ones.
    /// `profile_size` is drawn small so the MASS fallback fires in most
    /// cases, and the plateau series drives the STOMP fallback, so both
    /// recomputation paths are covered, not just the happy path.
    #[test]
    fn thread_count_never_changes_results(
        seed in 0u64..100_000,
        kind in 0usize..4,
        p in 1usize..5,
    ) {
        let series = match kind {
            0 => gen::random_walk(700, seed),
            1 => gen::ecg(700, &gen::EcgConfig::default(), seed),
            2 => {
                let pattern: Vec<f64> = (0..32)
                    .map(|i| (i as f64 / 32.0 * std::f64::consts::TAU * 2.0).sin())
                    .collect();
                gen::planted_pair(700, &pattern, &[100, 460], 0.02, seed).0
            }
            _ => {
                let mut s = gen::white_noise(700, seed, 1.0);
                for v in &mut s[250..330] {
                    *v = 1.0; // plateau: every length takes the STOMP fallback
                }
                s
            }
        };
        let config = ValmodConfig::new(18, 30).with_k(3).with_profile_size(p).with_threads(1);
        let base = run_valmod(&series, &config).unwrap();
        for threads in [2usize, 3, 8] {
            let out = run_valmod(&series, &config.clone().with_threads(threads)).unwrap();
            prop_assert_eq!(out.per_length.len(), base.per_length.len());
            for (a, b) in out.per_length.iter().zip(&base.per_length) {
                prop_assert_eq!(a.length, b.length);
                prop_assert_eq!(
                    a.pairs.len(), b.pairs.len(),
                    "pair count at length {} with {} threads", a.length, threads
                );
                for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
                    prop_assert_eq!(
                        (pa.a, pa.b, pa.distance.to_bits()),
                        (pb.a, pb.b, pb.distance.to_bits()),
                        "pair differs at length {} with {} threads", a.length, threads
                    );
                }
                let (sa, sb) = (&a.stats, &b.stats);
                prop_assert_eq!(
                    (
                        sa.valid_rows,
                        sa.invalid_rows,
                        sa.recomputed_rows,
                        sa.min_lb_abs.to_bits(),
                        sa.stomp_fallback,
                    ),
                    (
                        sb.valid_rows,
                        sb.invalid_rows,
                        sb.recomputed_rows,
                        sb.min_lb_abs.to_bits(),
                        sb.stomp_fallback,
                    ),
                    "pruning stats differ at length {} with {} threads", a.length, threads
                );
            }
            // VALMAP entries must also match bit for bit.
            prop_assert_eq!(out.valmap.ip, base.valmap.ip.clone());
            prop_assert_eq!(out.valmap.lp, base.valmap.lp.clone());
            let mpn_bits: Vec<u64> = out.valmap.mpn.iter().map(|v| v.to_bits()).collect();
            let base_bits: Vec<u64> = base.valmap.mpn.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(mpn_bits, base_bits, "VALMAP mpn differs with {} threads", threads);
        }
    }

    /// Stage-2 exactness: the per-length step that derives length ℓ+1
    /// from ℓ (dot advance, lower-bound classification, MASS recompute
    /// and re-seed, STOMP fallback at flat lengths) must never change
    /// results — at every thread count its top-k pairs equal a plain
    /// STOMP run at that length. `profile_size` is drawn small so the
    /// MASS fallback fires in most cases, and the plateau series drives
    /// the STOMP fallback, not just the happy path.
    #[test]
    fn stage2_pipeline_never_changes_results(
        seed in 0u64..100_000,
        kind in 0usize..3,
        p in 1usize..5,
    ) {
        let series = match kind {
            0 => gen::random_walk(700, seed),
            1 => gen::ecg(700, &gen::EcgConfig::default(), seed),
            _ => {
                let mut s = gen::white_noise(700, seed, 1.0);
                for v in &mut s[250..330] {
                    *v = 1.0; // plateau: every length takes the STOMP fallback
                }
                s
            }
        };
        let config = ValmodConfig::new(18, 30).with_k(3).with_profile_size(p);
        let reference: Vec<_> = (config.l_min..=config.l_max)
            .map(|l| {
                let mp = valmod_mp::stomp::stomp(&series, l, config.exclusion(l)).unwrap();
                valmod_mp::motif::top_k_pairs(&mp, config.k)
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let out = run_valmod(&series, &config.clone().with_threads(threads)).unwrap();
            prop_assert_eq!(out.per_length.len(), reference.len());
            for (r, want) in out.per_length.iter().zip(&reference) {
                prop_assert_eq!(
                    r.pairs.len(), want.len(),
                    "pair count at length {} with {} threads", r.length, threads
                );
                for (got, exp) in r.pairs.iter().zip(want) {
                    // Offsets can differ between ties; distances must agree.
                    prop_assert!(
                        (got.distance - exp.distance).abs() < 1e-6,
                        "length {} with {} threads: {:?} vs {:?}", r.length, threads, got, exp
                    );
                }
            }
        }
    }

    /// Discord thread-count invariance: stage 1 reuses the diagonal walk
    /// and the per-length loops chunk over rows, so every thread count
    /// must produce *byte-identical* discord offsets, distances, and
    /// resolve counts.
    #[test]
    fn discord_thread_count_never_changes_results(seed in 0u64..100_000, kind in 0usize..3) {
        let series = match kind {
            0 => gen::random_walk(500, seed),
            1 => gen::ecg(500, &gen::EcgConfig::default(), seed),
            _ => {
                let mut s = gen::white_noise(500, seed, 1.0);
                for v in &mut s[200..260] {
                    *v = 1.0; // plateau: exercise the flat fallback
                }
                s
            }
        };
        let config = ValmodConfig::new(16, 26).with_k(3).with_profile_size(4).with_threads(1);
        let base = valmod_core::variable_length_discords(&series, &config).unwrap();
        for threads in [2usize, 3, 8] {
            let out = valmod_core::variable_length_discords(
                &series,
                &config.clone().with_threads(threads),
            )
            .unwrap();
            prop_assert_eq!(out.len(), base.len());
            for (a, b) in out.iter().zip(&base) {
                prop_assert_eq!(a.length, b.length);
                prop_assert_eq!(
                    a.resolved_rows, b.resolved_rows,
                    "resolve count at length {} with {} threads", a.length, threads
                );
                prop_assert_eq!(a.discords.len(), b.discords.len());
                for (da, db) in a.discords.iter().zip(&b.discords) {
                    prop_assert_eq!(
                        (da.offset, da.nn_distance.to_bits()),
                        (db.offset, db.nn_distance.to_bits()),
                        "discord differs at length {} with {} threads", a.length, threads
                    );
                }
            }
        }
    }

    /// VALMAP structural invariants hold for arbitrary runs.
    #[test]
    fn valmap_structure_is_sound(values in series(80, 140), seed in 0usize..1000) {
        let l_min = 6 + seed % 5;
        let config = ValmodConfig::new(l_min, l_min + 4).with_k(2);
        if config.validate(values.len()).is_err() {
            return Ok(());
        }
        let out = run_valmod(&values, &config).unwrap();
        let v = &out.valmap;
        prop_assert_eq!(v.len(), values.len() - l_min + 1);
        prop_assert_eq!(v.checkpoints.len(), 4);
        for i in 0..v.len() {
            prop_assert!(!v.mpn[i].is_nan());
            prop_assert!(v.lp[i] >= l_min && v.lp[i] <= l_min + 4);
            if v.lp[i] > l_min {
                // An updated entry must appear in exactly the checkpoints
                // that touched it, the last one at its recorded length.
                let last = v
                    .checkpoints
                    .iter().rfind(|c| c.updates.iter().any(|u| u.offset == i));
                prop_assert_eq!(last.map(|c| c.length), Some(v.lp[i]));
            }
        }
        // Replaying the full log reproduces the live state.
        let (mpn, ip, lp) = v.as_of_length(usize::MAX).unwrap();
        prop_assert_eq!(&mpn, &v.mpn);
        prop_assert_eq!(&ip, &v.ip);
        prop_assert_eq!(&lp, &v.lp);
    }
}
