//! Perf snapshot: times VALMOD's stage 1, stage 2, and end-to-end wall
//! clock on the Figure-3 workloads at 1 thread and at full hardware
//! parallelism, plus the streaming engine's per-append cost against a
//! batch re-run, and writes the measurements to a JSON file — the
//! reproducible baseline every future perf PR is measured against.
//!
//! Usage:
//!
//! ```text
//! perfsnap [--smoke] [--n N] [--threads N] [--out FILE]
//!          [--assert-speedup X] [--assert-stage1-cells N]
//!          [--assert-anytime]
//! ```
//!
//! `--smoke` shrinks the workloads for CI (seconds, not minutes);
//! `--threads` overrides the parallel thread count (default: hardware);
//! `--out` sets the JSON path (default `BENCH_valmod.json`).
//!
//! The `--assert-*` flags turn the snapshot into a CI gate: the process
//! exits non-zero when the measured end-to-end multi-thread speedup of
//! any workload falls below `X` (requires a multi-core run — the serial
//! and parallel configurations are both measured in one invocation), or
//! when the best stage-1 kernel throughput falls below `N` QT cells per
//! second. Thresholds are meant to be *generous* (catching an
//! order-of-magnitude regression or a dead dispatch path, not run-to-run
//! noise); the uploaded snapshot artifact carries the precise numbers.
//!
//! The `anytime` row (schema 6) measures the anytime tier's convergence
//! at a fixed acceptance workload — ECG n = 30 000, ℓ = 64, k = 3,
//! budget 4, seed 42, always at this size even under `--smoke` because
//! the row *is* the acceptance gate: the fraction of stage-1 cells the
//! first streamed preview had retired, and the fraction of VALMAP
//! entries on which that preview already agrees with the exact base
//! VALMAP (within 15% relative on the length-normalized distance, both
//! non-finite counting as agreement). `--assert-anytime` fails the run
//! unless the first preview reaches ≥ 90% agreement at ≤ 30% of cells.

use std::hint::black_box;
use std::time::Instant;

use valmod_bench::{stage1_cells, Dataset};
use valmod_core::{run_valmod, run_valmod_observed, Quality, Valmap, ValmodConfig};
use valmod_stream::StreamingValmod;

/// One measured configuration.
struct Run {
    dataset: &'static str,
    n: usize,
    l_min: usize,
    l_max: usize,
    threads: usize,
    stage1_secs: f64,
    stage2_secs: f64,
    /// Stage-2 phase split (schema 3; schema 5 splits the window
    /// statistics out of classification): the incremental dot-advance,
    /// the per-window means/stds, the per-row classification + top-k
    /// selection, and the MASS/STOMP recomputation fallback. The phases
    /// run one after another, so they sum to `stage2_secs` up to the
    /// per-step bookkeeping, and each phase's share shows where a
    /// snapshot's stage-2 time went.
    stage2_advance_secs: f64,
    stage2_stats_secs: f64,
    stage2_classify_secs: f64,
    stage2_recompute_secs: f64,
    /// Per-length stage-2 phase split (schema 5): one row per stepped
    /// length, from [`valmod_core::StageTimings::per_length`].
    per_length: Vec<StepRow>,
    /// Engine counter deltas over this run (schema 5), read from the
    /// `valmod-obs` registry: the pruning accounting the paper's Fig. 2
    /// narrates, now visible per snapshot. All zero under `obs-off`.
    obs: ObsRow,
    total_secs: f64,
    /// Stage-1 QT-cell throughput — the kernel's headline number: the
    /// walk visits one cell per admissible (i, j) pair at `l_min`, so
    /// cells/sec isolates the diagonal kernel from workload size
    /// (counted by [`valmod_bench::stage1_cells`]).
    stage1_cells_per_sec: f64,
    checksum: u64,
}

/// One per-length stage-2 timing row (schema 5).
struct StepRow {
    length: usize,
    advance_secs: f64,
    stats_secs: f64,
    classify_secs: f64,
    recompute_secs: f64,
}

/// Observability counter deltas over one measured run (schema 5).
#[derive(Default)]
struct ObsRow {
    stage1_cells: u64,
    stage1_offers: u64,
    stage1_prefilter_rejected: u64,
    stage2_dot_advances: u64,
    stage2_valid_rows: u64,
    stage2_invalid_rows: u64,
    stage2_recomputed_rows: u64,
}

/// Snapshot of the registry counters the perf rows report.
fn obs_counters() -> ObsRow {
    let m = valmod_obs::metrics();
    ObsRow {
        stage1_cells: m.stage1_cells.get(),
        stage1_offers: m.stage1_offers.get(),
        stage1_prefilter_rejected: m.stage1_prefilter_rejected.get(),
        stage2_dot_advances: m.stage2_dot_advances.get(),
        stage2_valid_rows: m.stage2_valid_rows.get(),
        stage2_invalid_rows: m.stage2_invalid_rows.get(),
        stage2_recomputed_rows: m.stage2_recomputed_rows.get(),
    }
}

fn obs_delta(before: &ObsRow, after: &ObsRow) -> ObsRow {
    ObsRow {
        stage1_cells: after.stage1_cells - before.stage1_cells,
        stage1_offers: after.stage1_offers - before.stage1_offers,
        stage1_prefilter_rejected: after.stage1_prefilter_rejected
            - before.stage1_prefilter_rejected,
        stage2_dot_advances: after.stage2_dot_advances - before.stage2_dot_advances,
        stage2_valid_rows: after.stage2_valid_rows - before.stage2_valid_rows,
        stage2_invalid_rows: after.stage2_invalid_rows - before.stage2_invalid_rows,
        stage2_recomputed_rows: after.stage2_recomputed_rows - before.stage2_recomputed_rows,
    }
}

/// The streaming row: incremental appends vs a batch re-run per append.
struct StreamingRow {
    dataset: &'static str,
    n: usize,
    l_min: usize,
    l_max: usize,
    appends: usize,
    per_append_secs: f64,
    batch_secs: f64,
    speedup_per_append: f64,
}

/// The anytime row (schema 6): first-preview convergence at the fixed
/// acceptance workload — how much of the exact base VALMAP the first
/// streamed preview already carried, and how early it arrived.
struct AnytimeRow {
    dataset: &'static str,
    n: usize,
    length: usize,
    k: usize,
    budget: usize,
    seed: u64,
    threads: usize,
    /// Rounds the budget actually split into.
    rounds: usize,
    /// Fraction of stage-1 QT cells retired when the first preview fired.
    first_preview_cells: f64,
    /// Fraction of VALMAP entries where the first preview's `MPn` is
    /// within 15% relative of the exact base VALMAP's (both non-finite
    /// counts as agreement).
    first_preview_agreement: f64,
    total_secs: f64,
}

/// Fraction of entries where preview and exact agree: both non-finite,
/// or within 15% relative (plus an absolute epsilon for exact zeros) on
/// the length-normalized distance.
fn valmap_agreement(preview: &Valmap, exact: &Valmap) -> f64 {
    let m = exact.mpn.len();
    if m == 0 {
        return 1.0;
    }
    let agreeing = (0..m)
        .filter(|&i| {
            let (a, b) = (preview.mpn[i], exact.mpn[i]);
            (!a.is_finite() && !b.is_finite()) || (a - b).abs() <= 0.15 * b + 1e-12
        })
        .count();
    #[allow(clippy::cast_precision_loss)]
    {
        agreeing as f64 / m as f64
    }
}

/// Runs the anytime tier once at the acceptance workload and compares
/// the *first* preview against the settled (exact) base VALMAP of the
/// same run — the settled output is bit-identical to the eager walk, so
/// one run yields both sides of the comparison.
fn measure_anytime(threads: usize) -> AnytimeRow {
    let (n, length, k, budget, seed) = (30_000usize, 64usize, 3usize, 4usize, 42u64);
    let dataset = Dataset::Ecg;
    let series = dataset.generate(n);
    let config = ValmodConfig::new(length, length)
        .with_k(k)
        .with_threads(threads)
        .with_quality(Quality::Anytime { budget })
        .with_seed(seed);
    let mut first: Option<(u64, u64, Valmap)> = None;
    let mut rounds = 0usize;
    let started = Instant::now();
    let out = run_valmod_observed(&series, &config, &mut |p| {
        rounds = p.rounds;
        if first.is_none() {
            first = Some((p.cells_retired, p.cells_total, p.valmap.clone()));
        }
    })
    .expect("valid workload");
    let total_secs = started.elapsed().as_secs_f64();
    let (retired, total, preview) = first.expect("anytime runs emit at least one preview");
    let exact = Valmap::from_base_profile(&out.base_profile);
    #[allow(clippy::cast_precision_loss)]
    let first_preview_cells = retired as f64 / (total.max(1)) as f64;
    let row = AnytimeRow {
        dataset: dataset.name(),
        n,
        length,
        k,
        budget,
        seed,
        threads,
        rounds,
        first_preview_cells,
        first_preview_agreement: valmap_agreement(&preview, &exact),
        total_secs,
    };
    eprintln!(
        "{} n={n} l={length} k={k} budget={budget} seed={seed} threads={threads} anytime: \
         first preview at {:.1}% of cells, {:.1}% VALMAP agreement, {rounds} rounds, {:.3}s",
        row.dataset,
        row.first_preview_cells * 100.0,
        row.first_preview_agreement * 100.0,
        row.total_secs,
    );
    row
}

/// The durability row: serializing and restoring one checkpoint image of
/// the streaming engine at the acceptance workload.
struct CheckpointRow {
    n: usize,
    image_bytes: usize,
    write_secs: f64,
    restore_secs: f64,
}

/// Times [`StreamingValmod::checkpoint_to`] (into memory — fsync policy
/// is the store's, the snapshot isolates serialization) and
/// [`StreamingValmod::restore_from_bytes`], and asserts the round trip
/// is bit-identical: the restored engine must re-serialize to the exact
/// same image.
fn measure_checkpoint(smoke: bool, threads: usize) -> CheckpointRow {
    let n = if smoke { 2_048 } else { 4_096 };
    let l_min = if smoke { 32 } else { 64 };
    let l_max = l_min + 19; // R = 20
    let series = Dataset::Ecg.generate(n);
    let config = ValmodConfig::new(l_min, l_max).with_k(1).with_threads(threads);
    let engine = StreamingValmod::new(&series, config.clone()).expect("valid workload");

    let reps = 8usize;
    let mut image: Vec<u8> = Vec::new();
    let started = Instant::now();
    for _ in 0..reps {
        image.clear();
        engine.checkpoint_to(&mut image).expect("in-memory sink");
    }
    let write_secs = started.elapsed().as_secs_f64() / reps as f64;

    let started = Instant::now();
    let mut restored = None;
    for _ in 0..reps {
        restored =
            Some(StreamingValmod::restore_from_bytes(&image, &config).expect("own image restores"));
    }
    let restore_secs = started.elapsed().as_secs_f64() / reps as f64;

    let mut reimage: Vec<u8> = Vec::new();
    restored.expect("reps > 0").checkpoint_to(&mut reimage).expect("in-memory sink");
    assert_eq!(image, reimage, "checkpoint round trip is not bit-identical");

    let row = CheckpointRow { n, image_bytes: image.len(), write_secs, restore_secs };
    eprintln!(
        "checkpoint n={n} l=[{l_min},{l_max}]: {:.0} KiB image, write {:.2} ms, restore {:.2} ms",
        row.image_bytes as f64 / 1024.0,
        row.write_secs * 1e3,
        row.restore_secs * 1e3,
    );
    row
}

/// Measures the streaming engine at the acceptance workload (n = 4096,
/// R = 20 lengths; scaled down under `--smoke`): bootstrap on the
/// prefix, time `appends` single-point appends, and compare the mean
/// per-append cost with one full batch run — what a non-incremental
/// deployment would pay per appended point.
fn measure_streaming(smoke: bool, threads: usize) -> StreamingRow {
    let n = if smoke { 2_048 } else { 4_096 };
    let appends = if smoke { 64 } else { 256 };
    let l_min = if smoke { 32 } else { 64 };
    let l_max = l_min + 19; // R = 20
    let dataset = Dataset::Ecg;
    let series = dataset.generate(n);
    let config = ValmodConfig::new(l_min, l_max).with_k(1).with_threads(threads);

    let mut engine =
        StreamingValmod::new(&series[..n - appends], config.clone()).expect("valid workload");
    let started = Instant::now();
    for &v in &series[n - appends..] {
        engine.append(v);
    }
    let per_append_secs = started.elapsed().as_secs_f64() / appends as f64;

    let started = Instant::now();
    let out = run_valmod(&series, &config).expect("valid workload");
    let batch_secs = started.elapsed().as_secs_f64();
    black_box(&out);
    // Appends must have reassembled the exact series (snapshot()'s
    // bit-identity to batch follows, since it runs the batch pipeline
    // over this buffer; the full property is tested in valmod-stream).
    assert_eq!(engine.series(), &series[..], "streaming buffer diverged from the input");

    let row = StreamingRow {
        dataset: dataset.name(),
        n,
        l_min,
        l_max,
        appends,
        per_append_secs,
        batch_secs,
        speedup_per_append: batch_secs / per_append_secs,
    };
    eprintln!(
        "{} n={n} l=[{l_min},{l_max}] threads={threads} streaming: {:.1} µs/append vs \
         {:.3}s batch re-run ({:.0}x)",
        row.dataset,
        row.per_append_secs * 1e6,
        row.batch_secs,
        row.speedup_per_append,
    );
    row
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut smoke = false;
    let mut n_override: Option<usize> = None;
    let mut threads_override: Option<usize> = None;
    let mut out_path = String::from("BENCH_valmod.json");
    let mut assert_speedup: Option<f64> = None;
    let mut assert_stage1_cells: Option<f64> = None;
    let mut assert_anytime = false;
    let mut it = refs.iter().copied();
    while let Some(flag) = it.next() {
        match flag {
            "--smoke" => smoke = true,
            "--n" => n_override = Some(expect_num(&mut it, "--n")),
            "--threads" => threads_override = Some(expect_num(&mut it, "--threads")),
            "--out" => {
                out_path = it.next().unwrap_or_else(|| usage("--out requires a value")).into();
            }
            "--assert-speedup" => assert_speedup = Some(expect_float(&mut it, "--assert-speedup")),
            "--assert-stage1-cells" => {
                assert_stage1_cells = Some(expect_float(&mut it, "--assert-stage1-cells"));
            }
            "--assert-anytime" => assert_anytime = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let max_threads = threads_override.unwrap_or(hardware).max(1);
    // Figure-3 shape: ECG at paper scale (the headline workload), ASTRO at
    // a lighter size so the snapshot stays affordable; both use the
    // Fig. 3 `l_min` = 64 and a 16-wide range.
    let l_min = if smoke { 32 } else { 64 };
    let width = if smoke { 4 } else { 16 };
    let workloads: Vec<(Dataset, usize)> = if smoke {
        vec![(Dataset::Ecg, n_override.unwrap_or(4_000))]
    } else {
        vec![
            (Dataset::Ecg, n_override.unwrap_or(100_000)),
            (Dataset::Astro, n_override.unwrap_or(40_000)),
        ]
    };
    let thread_counts: Vec<usize> = if max_threads == 1 { vec![1] } else { vec![1, max_threads] };

    let mut runs: Vec<Run> = Vec::new();
    for &(dataset, n) in &workloads {
        let series = dataset.generate(n);
        for &threads in &thread_counts {
            let config = ValmodConfig::new(l_min, l_min + width).with_k(1).with_threads(threads);
            let obs_before = obs_counters();
            let started = Instant::now();
            let out = run_valmod(&series, &config).expect("valid workload");
            let total = started.elapsed().as_secs_f64();
            let obs = obs_delta(&obs_before, &obs_counters());
            let checksum = out.best_per_length().into_iter().flatten().fold(
                0xcbf2_9ce4_8422_2325u64,
                |acc, p| {
                    [p.a as u64, p.b as u64, p.length as u64]
                        .into_iter()
                        .fold(acc, |a, v| (a ^ v).wrapping_mul(0x1000_0000_01b3))
                },
            );
            eprintln!(
                "{} n={n} l=[{l_min},{}] threads={threads}: stage1 {:.3}s \
                 ({:.1}M cells/s) stage2 {:.3}s (advance {:.3}s stats {:.3}s \
                 classify {:.3}s recompute {:.3}s) total {total:.3}s",
                dataset.name(),
                l_min + width,
                out.timings.stage1.as_secs_f64(),
                stage1_cells(n, l_min) as f64 / out.timings.stage1.as_secs_f64().max(1e-12) / 1e6,
                out.timings.stage2.as_secs_f64(),
                out.timings.stage2_advance.as_secs_f64(),
                out.timings.stage2_stats.as_secs_f64(),
                out.timings.stage2_classify.as_secs_f64(),
                out.timings.stage2_recompute.as_secs_f64(),
            );
            let stage1_secs = out.timings.stage1.as_secs_f64();
            runs.push(Run {
                dataset: dataset.name(),
                n,
                l_min,
                l_max: l_min + width,
                threads,
                stage1_secs,
                stage2_secs: out.timings.stage2.as_secs_f64(),
                stage2_advance_secs: out.timings.stage2_advance.as_secs_f64(),
                stage2_stats_secs: out.timings.stage2_stats.as_secs_f64(),
                stage2_classify_secs: out.timings.stage2_classify.as_secs_f64(),
                stage2_recompute_secs: out.timings.stage2_recompute.as_secs_f64(),
                per_length: out
                    .timings
                    .per_length
                    .iter()
                    .map(|t| StepRow {
                        length: t.length,
                        advance_secs: t.advance.as_secs_f64(),
                        stats_secs: t.stats.as_secs_f64(),
                        classify_secs: t.classify.as_secs_f64(),
                        recompute_secs: t.recompute.as_secs_f64(),
                    })
                    .collect(),
                obs,
                total_secs: total,
                stage1_cells_per_sec: stage1_cells(n, l_min) as f64 / stage1_secs.max(1e-12),
                checksum,
            });
        }
    }

    // End-to-end speedup per workload against the 1-thread baseline of the
    // same snapshot (fastest run / serial run; exactly 1.0 on single-CPU
    // hardware, where the serial run is the only run), plus a cross-thread
    // result check: identical checksums are the engine's bit-identity
    // promise showing up end to end. Always populated — schema 2 replaced
    // the schema-1 field that silently stayed `{}` whenever the snapshot
    // machine had one CPU.
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for &(dataset, n) in &workloads {
        let of = |threads: usize| {
            runs.iter().find(|r| r.dataset == dataset.name() && r.n == n && r.threads == threads)
        };
        if let (Some(serial), Some(parallel)) =
            (of(1), of(*thread_counts.last().expect("non-empty")))
        {
            assert_eq!(
                serial.checksum,
                parallel.checksum,
                "thread counts disagree on {} motifs",
                dataset.name()
            );
            speedups.push((dataset.name().to_string(), serial.total_secs / parallel.total_secs));
        }
    }

    let streaming = measure_streaming(smoke, max_threads);
    let checkpoint = measure_checkpoint(smoke, max_threads);
    let anytime = measure_anytime(max_threads);

    let json = render_json(
        hardware,
        max_threads,
        smoke,
        &runs,
        &streaming,
        &checkpoint,
        &anytime,
        &speedups,
    );
    std::fs::write(&out_path, json).expect("write snapshot");
    eprintln!("snapshot written to {out_path}");
    for (name, s) in &speedups {
        eprintln!("{name} end-to-end speedup at {max_threads} threads: {s:.2}x");
    }

    // CI gates (see the module docs): fail loudly, after the snapshot was
    // written, so the artifact survives for diagnosis.
    let mut gate_failed = false;
    if let Some(min) = assert_speedup {
        if speedups.is_empty() {
            eprintln!("GATE: --assert-speedup needs a multi-thread run (got max_threads=1)");
            gate_failed = true;
        }
        for (name, s) in &speedups {
            if *s < min {
                eprintln!("GATE: {name} end-to-end speedup {s:.2}x below the {min:.2}x floor");
                gate_failed = true;
            }
        }
    }
    if let Some(min) = assert_stage1_cells {
        let best = runs.iter().map(|r| r.stage1_cells_per_sec).fold(0.0f64, f64::max);
        if best < min {
            eprintln!(
                "GATE: best stage-1 throughput {:.1}M cells/s below the {:.1}M floor",
                best / 1e6,
                min / 1e6
            );
            gate_failed = true;
        }
    }
    if assert_anytime {
        if anytime.first_preview_agreement < 0.9 {
            eprintln!(
                "GATE: first anytime preview agreement {:.1}% below the 90% floor",
                anytime.first_preview_agreement * 100.0
            );
            gate_failed = true;
        }
        if anytime.first_preview_cells > 0.3 {
            eprintln!(
                "GATE: first anytime preview retired {:.1}% of cells, above the 30% ceiling",
                anytime.first_preview_cells * 100.0
            );
            gate_failed = true;
        }
    }
    if gate_failed {
        std::process::exit(1);
    }
}

fn expect_num<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> usize {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} requires a numeric value")))
}

fn expect_float<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> f64 {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} requires a numeric value")))
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfsnap [--smoke] [--n N] [--threads N] [--out FILE] \
         [--assert-speedup X] [--assert-stage1-cells N] [--assert-anytime]"
    );
    std::process::exit(2);
}

/// Hand-rolled JSON (the workspace carries no JSON dependency).
#[allow(clippy::too_many_arguments)]
fn render_json(
    hardware: usize,
    max_threads: usize,
    smoke: bool,
    runs: &[Run],
    streaming: &StreamingRow,
    checkpoint: &CheckpointRow,
    anytime: &AnytimeRow,
    speedups: &[(String, f64)],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 6,\n");
    out.push_str(&format!("  \"hardware_threads\": {hardware},\n"));
    out.push_str(&format!("  \"max_threads\": {max_threads},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"runs\": [\n");
    for (idx, r) in runs.iter().enumerate() {
        let per_length: Vec<String> = r
            .per_length
            .iter()
            .map(|t| {
                format!(
                    "{{\"length\": {}, \"advance_secs\": {:.6}, \"stats_secs\": {:.6}, \
                     \"classify_secs\": {:.6}, \"recompute_secs\": {:.6}}}",
                    t.length, t.advance_secs, t.stats_secs, t.classify_secs, t.recompute_secs,
                )
            })
            .collect();
        let obs = format!(
            "{{\"stage1_cells\": {}, \"stage1_offers\": {}, \"stage1_prefilter_rejected\": {}, \
             \"stage2_dot_advances\": {}, \"stage2_valid_rows\": {}, \
             \"stage2_invalid_rows\": {}, \"stage2_recomputed_rows\": {}}}",
            r.obs.stage1_cells,
            r.obs.stage1_offers,
            r.obs.stage1_prefilter_rejected,
            r.obs.stage2_dot_advances,
            r.obs.stage2_valid_rows,
            r.obs.stage2_invalid_rows,
            r.obs.stage2_recomputed_rows,
        );
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"n\": {}, \"l_min\": {}, \"l_max\": {}, \
             \"threads\": {}, \"stage1_secs\": {:.6}, \"stage2_secs\": {:.6}, \
             \"stage2_advance_secs\": {:.6}, \"stage2_stats_secs\": {:.6}, \
             \"stage2_classify_secs\": {:.6}, \"stage2_recompute_secs\": {:.6}, \
             \"per_length\": [{}], \"obs\": {}, \
             \"total_secs\": {:.6}, \"stage1_cells_per_sec\": {:.0}, \
             \"checksum\": \"{:#018x}\"}}{}\n",
            r.dataset,
            r.n,
            r.l_min,
            r.l_max,
            r.threads,
            r.stage1_secs,
            r.stage2_secs,
            r.stage2_advance_secs,
            r.stage2_stats_secs,
            r.stage2_classify_secs,
            r.stage2_recompute_secs,
            per_length.join(", "),
            obs,
            r.total_secs,
            r.stage1_cells_per_sec,
            r.checksum,
            if idx + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"streaming\": {{\"dataset\": \"{}\", \"n\": {}, \"l_min\": {}, \"l_max\": {}, \
         \"appends\": {}, \"per_append_secs\": {:.9}, \"batch_secs\": {:.6}, \
         \"speedup_per_append\": {:.1}}},\n",
        streaming.dataset,
        streaming.n,
        streaming.l_min,
        streaming.l_max,
        streaming.appends,
        streaming.per_append_secs,
        streaming.batch_secs,
        streaming.speedup_per_append,
    ));
    out.push_str(&format!(
        "  \"checkpoint\": {{\"n\": {}, \"image_bytes\": {}, \"write_secs\": {:.6}, \
         \"restore_secs\": {:.6}}},\n",
        checkpoint.n, checkpoint.image_bytes, checkpoint.write_secs, checkpoint.restore_secs,
    ));
    out.push_str(&format!(
        "  \"anytime\": {{\"dataset\": \"{}\", \"n\": {}, \"length\": {}, \"k\": {}, \
         \"budget\": {}, \"seed\": {}, \"threads\": {}, \"rounds\": {}, \
         \"first_preview_cells\": {:.4}, \"first_preview_agreement\": {:.4}, \
         \"total_secs\": {:.6}}},\n",
        anytime.dataset,
        anytime.n,
        anytime.length,
        anytime.k,
        anytime.budget,
        anytime.seed,
        anytime.threads,
        anytime.rounds,
        anytime.first_preview_cells,
        anytime.first_preview_agreement,
        anytime.total_secs,
    ));
    out.push_str("  \"speedup_end_to_end\": {");
    for (idx, (name, s)) in speedups.iter().enumerate() {
        out.push_str(&format!(
            "\"{name}\": {s:.3}{}",
            if idx + 1 < speedups.len() { ", " } else { "" }
        ));
    }
    out.push_str("}\n}\n");
    out
}
