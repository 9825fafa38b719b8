//! Worker-pool reuse coverage: one persistent [`WorkerPool`] shared by
//! interleaved batch, streaming, and discord runs must be byte-identical
//! to cold runs (a fresh pool per call), for every thread count.
//!
//! This exercises the pool's *work-queue reuse* — jobs from stage 1,
//! stage 2, discord classification, and streaming appends all flowing
//! through the same parked threads, batch after batch — not merely its
//! first use. The pool only carries threads, never math, so any
//! divergence here would be a dispatch bug (lost job, wrong index, stale
//! slot), exactly the failure modes a queue-reuse bug would produce.
//!
//! The second property stresses stage 2 on a shared pool: batch runs at
//! a tiny partial-profile size (so the MASS fallback re-seeds rows at
//! most lengths) alternate with streaming appends on the same reused
//! pool, and every thread count must stay byte-identical to a serial
//! run on a fresh pool.

use proptest::prelude::*;
use std::sync::Arc;
use valmod_core::{run_valmod, variable_length_discords, ValmodConfig, ValmodOutput};
use valmod_mp::WorkerPool;
use valmod_series::gen;
use valmod_stream::StreamingValmod;

/// Byte-level digest of everything a batch run decides: per-length pairs
/// as (a, b, distance bits, length), plus the VALMAP `MPn` bits.
type BatchBits = (Vec<(usize, usize, u64, usize)>, Vec<u64>);

fn batch_bits(out: &ValmodOutput) -> BatchBits {
    let pairs = out
        .per_length
        .iter()
        .flat_map(|r| r.pairs.iter().map(|p| (p.a, p.b, p.distance.to_bits(), p.length)))
        .collect();
    let mpn = out.valmap.mpn.iter().map(|v| v.to_bits()).collect();
    (pairs, mpn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn reused_pool_is_byte_identical_to_cold_runs(seed in 0u64..100_000, kind in 0usize..3) {
        let series = match kind {
            0 => gen::random_walk(560, seed),
            1 => gen::ecg(560, &gen::EcgConfig::default(), seed),
            _ => gen::sine_mix(560, &[(40.0, 1.0), (90.0, 0.4)], 0.05, seed),
        };
        // ONE pool for every "shared" call below — reused across thread
        // counts and across engine kinds, interleaved.
        let shared = Arc::new(WorkerPool::new());
        let config = |pool: Arc<WorkerPool>, threads: usize| {
            ValmodConfig::new(16, 24)
                .with_k(2)
                .with_profile_size(4)
                .with_threads(threads)
                .with_pool(pool)
        };
        for threads in [1usize, 2, 3, 8] {
            let shared_cfg = config(Arc::clone(&shared), threads);
            // Interleave the three engines on the shared pool: batch,
            // then streaming (bootstrap + chunked extends + appends),
            // then discords, then the streaming live view.
            let batch_shared = run_valmod(&series, &shared_cfg).unwrap();
            let mut stream_shared =
                StreamingValmod::new(&series[..400], shared_cfg.clone()).unwrap();
            for chunk in series[400..].chunks(37) {
                stream_shared.extend(chunk);
            }
            let discords_shared = variable_length_discords(&series, &shared_cfg).unwrap();
            let live_shared: Vec<u64> =
                stream_shared.valmap().mpn.iter().map(|v| v.to_bits()).collect();

            // Cold: a fresh single-use pool per call.
            let batch_cold = run_valmod(&series, &config(Arc::new(WorkerPool::new()), threads))
                .unwrap();
            let mut stream_cold = StreamingValmod::new(
                &series[..400],
                config(Arc::new(WorkerPool::new()), threads),
            )
            .unwrap();
            for chunk in series[400..].chunks(37) {
                stream_cold.extend(chunk);
            }
            let discords_cold =
                variable_length_discords(&series, &config(Arc::new(WorkerPool::new()), threads))
                    .unwrap();
            let live_cold: Vec<u64> =
                stream_cold.valmap().mpn.iter().map(|v| v.to_bits()).collect();

            prop_assert_eq!(
                batch_bits(&batch_shared),
                batch_bits(&batch_cold),
                "batch diverged on the reused pool at {} threads",
                threads
            );
            prop_assert_eq!(
                live_shared,
                live_cold,
                "streaming live VALMAP diverged on the reused pool at {} threads",
                threads
            );
            for (a, b) in discords_shared.iter().zip(&discords_cold) {
                prop_assert_eq!(a.length, b.length);
                prop_assert_eq!(a.resolved_rows, b.resolved_rows);
                for (da, db) in a.discords.iter().zip(&b.discords) {
                    prop_assert_eq!(
                        (da.offset, da.nn_distance.to_bits()),
                        (db.offset, db.nn_distance.to_bits()),
                        "discord diverged on the reused pool at {} threads",
                        threads
                    );
                }
            }
            // Per-length streaming profiles, bit for bit.
            for length in 16..=24 {
                let a = stream_shared.profile(length).unwrap();
                let b = stream_cold.profile(length).unwrap();
                prop_assert_eq!(&a.indices, &b.indices);
                let av: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
                let bv: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(av, bv, "profile diverged at length {}", length);
            }
        }
    }

    #[test]
    fn stage2_on_a_pool_shared_with_appends_is_byte_identical(
        seed in 0u64..100_000,
        p in 1usize..4,
    ) {
        // ECG with a tiny partial-profile size: the lower bounds give out
        // within a few lengths, so most runs hit the MASS fallback, while
        // the shared pool's queue also carries streaming-append jobs
        // between the batch runs.
        let series = gen::ecg(640, &gen::EcgConfig::default(), seed);
        let shared = Arc::new(WorkerPool::new());
        let config = |pool: Arc<WorkerPool>, threads: usize| {
            ValmodConfig::new(20, 32)
                .with_k(2)
                .with_profile_size(p)
                .with_threads(threads)
                .with_pool(pool)
        };
        let base = run_valmod(&series, &config(Arc::new(WorkerPool::new()), 1)).unwrap();
        let recomputed: usize = base.per_length.iter().map(|r| r.stats.recomputed_rows).sum();
        let mut stream =
            StreamingValmod::new(&series[..500], config(Arc::clone(&shared), 2)).unwrap();
        for threads in [1usize, 2, 8] {
            let out = run_valmod(&series, &config(Arc::clone(&shared), threads)).unwrap();
            prop_assert_eq!(
                batch_bits(&out),
                batch_bits(&base),
                "threads={} diverged (recomputed rows in base: {})",
                threads, recomputed
            );
            for (a, b) in out.per_length.iter().zip(&base.per_length) {
                prop_assert_eq!(
                    (a.stats.valid_rows, a.stats.recomputed_rows),
                    (b.stats.valid_rows, b.stats.recomputed_rows),
                    "pruning stats diverged at length {} (threads={})",
                    a.length, threads
                );
            }
            // Keep streaming jobs flowing through the same queue the
            // stage-2 batches use.
            if stream.len() < series.len() {
                let at = stream.len();
                let end = (at + 23).min(series.len());
                stream.extend(&series[at..end]);
            }
        }
        // The streaming engine's canonical snapshot still matches a batch
        // run bit for bit after sharing its pool with stage 2.
        let snap = stream.snapshot().unwrap();
        let direct =
            run_valmod(stream.series(), &config(Arc::new(WorkerPool::new()), 2)).unwrap();
        prop_assert_eq!(batch_bits(&snap), batch_bits(&direct));
    }
}
