//! Per-layer figures for the traced run: each layer's public function
//! called from the harness at the workload's size, plus the counts the
//! program reports in its output.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use valmod_core::{Query, QueryOutcome, ValmodOutput};
use valmod_fft::{naive_is_faster, sliding_dot_product_naive, SlidingDotPlan};
use valmod_mp::{DistanceProfiler, WorkerPool};
use valmod_series::io::read_series;
use valmod_stream::{CheckpointStore, StreamingValmod, TenantPolicy, TenantRegistry};

use crate::check::sample_rows;
use crate::inputs::{ServeShape, K, THREADS};
use crate::reference::admissible_cells;
use crate::stats::median;
use crate::{json, serve, trace, Metric, Tally};

/// What the traced pass measured end to end, for the derived figures.
pub struct Observed<'a> {
    /// The series the layers are timed on.
    pub series: &'a [f64],
    /// That series as an input file.
    pub path: &'a Path,
    /// Its length range.
    pub l_min: usize,
    /// See `l_min`.
    pub l_max: usize,
    /// An exact output over it and the run's seconds.
    pub output: &'a ValmodOutput,
    /// See `output`.
    pub valmod_s: f64,
    /// Seconds of a fixed-length profile at `l_min` over it.
    pub profile_s: f64,
    /// The daemon phase.
    pub serve: &'a serve::Measured,
    /// The daemon phase's shape (warm-up, batch, checkpoint cadence).
    pub shape: &'a ServeShape,
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// `len` samples of `series` from `start` on, wrapping past its end, so
/// short series still feed every batch.
fn samples(series: &[f64], start: usize, len: usize) -> Vec<f64> {
    series.iter().cycle().skip(start).take(len).copied().collect()
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// Times `reps` calls of `f`; the median in ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t)
        })
        .collect();
    med(&v)
}

/// Measures every per-layer metric. `record` collects figures that are
/// not metrics (the sliding-dot paths, the certified/uncertified counts).
#[allow(clippy::too_many_lines)]
pub fn measure(
    o: &Observed<'_>,
    dir: &Path,
    pool: &Arc<WorkerPool>,
    seed: u64,
    tally: &mut Tally,
    record: &mut Vec<(String, String)>,
) -> Vec<Metric> {
    let (l_min, l_max, series) = (o.l_min, o.l_max, o.series);
    let n = series.len();
    let mut out = Vec::new();
    let mut put =
        |name: &'static str, unit: &'static str, value: f64| out.push(Metric { name, unit, value });

    // series: the program's reader on this input.
    put(
        "series.read_ms",
        "ms",
        time_ms(5, || {
            let _span = trace::span("series", "io::read_series");
            tally.attempted += 1;
            tally.record(read_series(o.path).map_err(|e| format!("read_series: {e}")));
        }),
    );

    // valmod: stage 1 alone (an exact run over l_min..l_min), serial.
    let single = Query::new(l_min, l_min).k(K).threads(THREADS).pool(Arc::clone(pool));
    let stage1_s = time_ms(3, || {
        let _span = trace::span("valmod", "Query::run");
        tally.attempted += 1;
        tally.record(single.run(series).map_err(|e| format!("stage-1 run: {e}")));
    }) / 1e3;
    put("valmod.stage1_s", "s", stage1_s);
    put("valmod.stage1_cells_per_s", "1/s", admissible_cells(n, l_min) as f64 / stage1_s);
    put("valmod.stage2_s", "s", o.valmod_s - stage1_s);
    let recomputed: Vec<usize> =
        o.output.per_length.iter().map(|r| r.stats.recomputed_rows).collect();
    put("valmod.recomputed_rows", "count", recomputed.iter().sum::<usize>() as f64);
    let certified: usize = o.output.per_length.iter().map(|r| r.stats.valid_rows).sum();
    let uncertified: usize = o.output.per_length.iter().map(|r| r.stats.invalid_rows).sum();
    record.push(("certified_rows".into(), certified.to_string()));
    record.push(("uncertified_rows".into(), uncertified.to_string()));
    put(
        "valmod.certified_ratio",
        "ratio",
        certified as f64 / (certified + uncertified).max(1) as f64,
    );

    // mp: one MASS distance profile per length, median over the range.
    let profiler = {
        let _span = trace::span("mp", "DistanceProfiler::new");
        DistanceProfiler::new(series)
    };
    let mut per_length_ms = Vec::new();
    if let Some(profiler) =
        tally.record(profiler.map_err(|e| format!("DistanceProfiler::new: {e}")))
    {
        let mut scratch = profiler.scratch();
        let offsets = sample_rows(seed ^ 0xa55a, n + 1 - l_max, 3);
        for l in l_min..=l_max {
            let v: Vec<f64> = offsets
                .iter()
                .map(|&i| {
                    let _span = trace::span("mp", "DistanceProfiler::self_profile_into");
                    let t = Instant::now();
                    tally.attempted += 1;
                    tally.record(
                        profiler
                            .self_profile_into(i, l, &mut scratch)
                            .map(|_| ())
                            .map_err(|e| format!("self_profile_into: {e}")),
                    );
                    ms(t)
                })
                .collect();
            per_length_ms.push(med(&v));
        }
    }
    put("mp.mass_row_ms", "ms", med(&per_length_ms));
    let est: f64 =
        recomputed.iter().zip(&per_length_ms).map(|(&r, &t)| r as f64 * t / 1e3).sum::<f64>()
            / THREADS as f64;
    put("valmod.recompute_est_s", "s", est);

    // fft: the sliding dot product on the path a MASS row takes at
    // (n, l_max) (`naive_is_faster(l, n, 2)`, the FFT side through the
    // series' prebuilt plan), and both paths beside the cost model's pick
    // at a few lengths.
    let plan = SlidingDotPlan::new(series);
    let query = &series[..l_max];
    let mass_naive = naive_is_faster(l_max, n, 2);
    put(
        "fft.dot_ms",
        "ms",
        time_ms(11, || {
            if mass_naive {
                let _span = trace::span("fft", "sliding_dot_product_naive");
                std::hint::black_box(sliding_dot_product_naive(
                    std::hint::black_box(query),
                    series,
                ));
            } else {
                let _span = trace::span("fft", "SlidingDotPlan::dot");
                std::hint::black_box(plan.dot(std::hint::black_box(query)));
            }
        }),
    );
    record.push(("fft_dot_path".into(), json::string(if mass_naive { "naive" } else { "fft" })));
    let mut paths = Vec::new();
    for l in [l_min, 80.clamp(l_min, l_max), l_max] {
        let q = &series[..l];
        let naive = time_ms(5, || {
            std::hint::black_box(sliding_dot_product_naive(std::hint::black_box(q), series));
        });
        let fft = time_ms(5, || {
            std::hint::black_box(plan.dot(std::hint::black_box(q)));
        });
        let pick = if naive_is_faster(l, n, 2) { "naive" } else { "fft" };
        paths.push(format!("{{\"n\":{n},\"l\":{l},\"naive_ms\":{naive:.4},\"fft_ms\":{fft:.4},\"model_picks\":\"{pick}\"}}"));
    }
    record.push(("sliding_dot_paths".into(), format!("[{}]", paths.join(","))));

    // The same exact run at one thread.
    let serial = Query::new(l_min, l_max).k(K).threads(1).pool(Arc::clone(pool));
    let t = Instant::now();
    let serial_out = {
        let _span = trace::span("valmod", "Query::run");
        serial.run(series)
    };
    let serial_s = t.elapsed().as_secs_f64();
    tally.attempted += 1;
    tally.record(match serial_out {
        Ok(QueryOutcome::Exact(s)) if crate::batch::same_output(&s, o.output) => Ok(()),
        Ok(_) => Err("the one-thread run answered differently".to_string()),
        Err(e) => Err(format!("one-thread run: {e}")),
    });
    put("valmod.serial_s", "s", serial_s);
    put("mp.pool_speedup", "ratio", serial_s / o.valmod_s);
    put("mp.profile_cells_per_s", "1/s", admissible_cells(n, l_min) as f64 / o.profile_s);

    // stream: the engine on a warm-up prefix, then 16-sample batches.
    let config =
        Query::new(l_min, l_max).k(K).threads(THREADS).pool(Arc::clone(pool)).into_config();
    let (warmup, batch) = (o.shape.warmup, o.shape.batch);
    let t = Instant::now();
    let engine = {
        let _span = trace::span("stream", "StreamingValmod::new");
        StreamingValmod::new(&series[..warmup], config.clone())
    };
    put("stream.bootstrap_s", "s", t.elapsed().as_secs_f64());
    tally.attempted += 1;
    let (mut append_ms, mut valmap_ms) = (Vec::new(), Vec::new());
    let mut checkpoint_ms = Vec::new();
    let mut journal_ms = Vec::new();
    if let Some(mut engine) = tally.record(engine.map_err(|e| format!("bootstrap: {e}"))) {
        for round in 0..40 {
            let chunk = samples(series, warmup + round * batch, batch);
            let t = Instant::now();
            tally.attempted += 1;
            let r: Result<(), String> = (|| {
                for &v in &chunk {
                    let _span = trace::span("stream", "StreamingValmod::try_append");
                    engine.try_append(v).map_err(|e| format!("try_append: {e}"))?;
                }
                if round % 2 == 0 {
                    let _span = trace::span("stream", "StreamingValmod::poll_deltas");
                    engine.poll_deltas();
                }
                Ok(())
            })();
            let elapsed = ms(t);
            tally.record(r);
            if round % 2 == 0 {
                append_ms.push(elapsed);
            } else {
                // A fresh batch without a poll, so the read rebuilds.
                let t = Instant::now();
                let _span = trace::span("stream", "StreamingValmod::valmap");
                std::hint::black_box(engine.valmap());
                valmap_ms.push(ms(t));
            }
        }
        // Durability, without the registry or a socket.
        tally.attempted += 1;
        let store = CheckpointStore::open(dir.join("layer-store"));
        if let Some(mut store) =
            tally.record(store.map_err(|e| format!("CheckpointStore::open: {e}")))
        {
            for _ in 0..5 {
                let t = Instant::now();
                tally.attempted += 1;
                let _span = trace::span("stream", "CheckpointStore::checkpoint");
                tally.record(store.checkpoint(&engine).map_err(|e| format!("checkpoint: {e}")));
                checkpoint_ms.push(ms(t));
            }
            for k in 0..10 {
                let t = Instant::now();
                tally.attempted += 1;
                let r: Result<(), String> = (|| {
                    for v in samples(series, k * batch, batch) {
                        let _span = trace::span("stream", "CheckpointStore::journal_sample");
                        store.journal_sample(v).map_err(|e| format!("journal_sample: {e}"))?;
                    }
                    let _span = trace::span("stream", "CheckpointStore::sync_journal");
                    store.sync_journal().map_err(|e| format!("sync_journal: {e}"))
                })();
                tally.record(r);
                journal_ms.push(ms(t));
            }
        }
        let _ = std::fs::remove_dir_all(dir.join("layer-store"));
    }
    put("stream.append_batch_ms", "ms", med(&append_ms));
    put("stream.valmap_ms", "ms", med(&valmap_ms));

    // The registry with durability on, no socket.
    let root = dir.join("layer-registry");
    let policy = TenantPolicy {
        warmup: Some(warmup),
        checkpoint_root: Some(root.clone()),
        checkpoint_every: o.shape.checkpoint_every,
        ..TenantPolicy::default()
    };
    let registry = TenantRegistry::new(Arc::new(WorkerPool::new()), config, policy);
    let mut registry_ms = Vec::new();
    tally.attempted += 2;
    let opened = tally.record(registry.open("layers").map_err(|e| format!("registry open: {e}")));
    let warmed = opened.and_then(|_| {
        let _span = trace::span("stream", "TenantRegistry::append");
        tally.record(
            registry
                .append("layers", &series[..warmup])
                .map_err(|e| format!("registry append: {e}")),
        )
    });
    if warmed.is_some() {
        for k in 0..20 {
            let chunk = samples(series, warmup + k * batch, batch);
            let t = Instant::now();
            tally.attempted += 1;
            let _span = trace::span("stream", "TenantRegistry::append");
            tally.record(
                registry.append("layers", &chunk).map_err(|e| format!("registry append: {e}")),
            );
            registry_ms.push(ms(t));
        }
    }
    drop(registry);
    let _ = std::fs::remove_dir_all(&root);
    put("stream.registry_append_ms", "ms", med(&registry_ms));
    put("stream.checkpoint_ms", "ms", med(&checkpoint_ms));
    put("stream.journal_sync_ms", "ms", med(&journal_ms));

    // serve and the load generator, from the traced daemon phase.
    put("serve.rtt_ms", "ms", med(&o.serve.rtt_ms));
    put("serve.append_response_bytes", "bytes", med(&o.serve.append_bytes));
    put("serve.valmap_response_bytes", "bytes", med(&o.serve.valmap_bytes));
    put("bench.generator_late_ms", "ms", med(&o.serve.late_ms));
    out
}
