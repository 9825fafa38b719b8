//! The VALMOD algorithm.
//!
//! Stage 1 computes the full matrix profile at `ℓmin` with a STOMP row
//! stream, harvesting for every row the `p` candidates with the largest
//! correlation — the *partial distance profiles* (see [`crate::partial`]).
//!
//! Stage 2 walks the lengths `ℓmin+1 ..= ℓmax`. For each length it updates
//! every stored dot product with one fused multiply-add, recomputes the
//! stored candidates' true distances, and classifies each row:
//!
//! * **valid** — the smallest stored distance does not exceed `maxLB`, the
//!   lower bound covering everything the row did *not* store; the stored
//!   minimum is then provably the row's true minimum;
//! * **non-valid** — the bound cannot certify the row; its true minimum is
//!   only known to be `≥ maxLB`.
//!
//! The smallest `maxLB` over non-valid rows (`minLBAbs`) certifies results:
//! every valid-row minimum below it is a true top motif distance. If the
//! top-k cannot be certified from valid rows alone, the affected rows'
//! distance profiles are recomputed exactly with MASS (and their partial
//! profiles re-seeded at the current length), which restores exactness —
//! this is the paper's fallback path.
//!
//! Degenerate (flat, σ ≈ 0) windows break correlation ranking; lengths at
//! which they occur are computed with diagonal-parallel STOMP instead
//! (exact, slower, and rare in practice). Everything stays exact either
//! way.
//!
//! # Parallelism
//!
//! Both stages scale across [`ValmodConfig::threads`] workers — parked
//! threads of the configuration's persistent [`valmod_mp::WorkerPool`]
//! ([`ValmodConfig::pool`]), dispatched per phase instead of spawned —
//! and produce **bit-identical results for every thread count and every
//! pool**:
//!
//! * Stage 1 partitions the QT matrix's diagonals across workers (blocks
//!   of lane-width-many adjacent diagonals, walked by the register-tiled
//!   SIMD kernel of `crate::kernel` at the lane width the dispatch
//!   resolves once per stage; series with flat windows take the scalar
//!   [`StompEngine::walk_diagonals`] distance-space walk instead —
//!   per-cell arithmetic is independent of the partitioning either way).
//!   Each worker keeps a per-row [`TopRhoSelector`] and per-row best;
//!   selectors merge row-wise with [`TopRhoSelector::absorb`], which is
//!   exact because the global top-p is contained in the union of
//!   per-partition top-p sets, so `worst_rho` and `maxLB` come out the
//!   same as a single pass.
//! * Stage 2 chunks the independent per-row work (dot-product advance,
//!   statistics, classification, MASS recomputation) across the same
//!   pool; each row's math never depends on the chunking, and the MASS
//!   fallback reuses one [`ProfileScratch`] per worker so the hot loop
//!   allocates nothing per row. Each length step runs its phases in
//!   order: the stored dots advance by one point through the SIMD lanes
//!   of [`crate::kernel::advance_entry_dots`] over a flattened
//!   [`crate::scratch::DotTable`], then the window statistics, the row
//!   classification and the recomputation of uncertified rows follow.

use valmod_mp::mass::{DistanceProfiler, ProfileScratch};
use valmod_mp::motif::top_k_pairs;
use valmod_mp::stomp::{stomp_parallel_in, StompEngine};
use valmod_mp::{MatrixProfile, MotifPair};
use valmod_obs as obs;
use valmod_series::stats::FLAT_EPS;
use valmod_series::znorm::{pearson_from_dist, zdist_from_dot};
use valmod_series::{Result, RollingStats};

use crate::config::ValmodConfig;
use crate::kernel::{self, Stage1Part};
use crate::lb::LbRowContext;
use crate::partial::{PartialRow, TopRhoSelector};
use crate::query::Quality;
use crate::scratch::{RowOutcome, StepScratch};
use crate::valmap::Valmap;

/// Minimum rows per worker before stage 2 spawns another thread — below
/// this, O(p)-per-row loops are cheaper than the spawn.
pub(crate) const MIN_ROWS_PER_WORKER: usize = 4096;

/// Minimum QT cells per stage-1 worker: below this, the per-worker state
/// (m selectors + m bests) and the row-wise merge cost rival the walk
/// itself, so extra threads stop paying off.
const STAGE1_MIN_CELLS_PER_WORKER: usize = 1 << 17;

/// Budget for transient stage-1 worker state (each worker holds
/// `m · p` selector slots plus an `m`-sized best vector). Caps the worker
/// count on huge series so memory stays bounded at a few GiB even at
/// paper scale (m ≈ 10⁶) with many hardware threads.
const STAGE1_STATE_BYTES_BUDGET: usize = 2 << 30;

/// Pruning statistics of one length step — the observability the paper's
/// Figure 2 narrates (valid vs non-valid profiles, `minLBAbs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthStats {
    /// Rows whose partial profile certified the row minimum.
    pub valid_rows: usize,
    /// Rows whose bound could not certify the minimum.
    pub invalid_rows: usize,
    /// Rows recomputed exactly via MASS at this length.
    pub recomputed_rows: usize,
    /// The certification threshold `minLBAbs` (∞ when every row is valid).
    pub min_lb_abs: f64,
    /// Whether this length fell back to a full STOMP run (degenerate
    /// windows present).
    pub stomp_fallback: bool,
}

/// The per-length output: the exact top-k motif pairs and pruning stats.
#[derive(Debug, Clone, PartialEq)]
pub struct LengthResult {
    /// Subsequence length.
    pub length: usize,
    /// Exact top-k motif pairs at this length, ascending distance.
    pub pairs: Vec<MotifPair>,
    /// Pruning statistics.
    pub stats: LengthStats,
}

/// Wall-clock timings of the two stages, for perf snapshots and benches.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    /// Stage 1: base matrix profile + partial profiles at `ℓmin`.
    pub stage1: std::time::Duration,
    /// Stage 2: all length steps `ℓmin+1 ..= ℓmax`.
    pub stage2: std::time::Duration,
    /// Stage-2 phase: advancing the stored dot products by one point per
    /// length (the incremental recurrence).
    pub stage2_advance: std::time::Duration,
    /// Stage-2 phase: per-window means and standard deviations at the
    /// step's length.
    pub stage2_stats: std::time::Duration,
    /// Stage-2 phase: per-row classification and top-k selection.
    pub stage2_classify: std::time::Duration,
    /// Stage-2 phase: exact MASS recomputation of uncertified rows (or
    /// the full STOMP fallback at degenerate lengths).
    pub stage2_recompute: std::time::Duration,
    /// Per-length breakdown of the stage-2 phases, one entry per length
    /// step `ℓmin+1 ..= ℓmax` in ascending order. The aggregate phase
    /// fields above are the column sums of this table.
    pub per_length: Vec<StepTimings>,
}

/// Wall-clock phase breakdown of one stage-2 length step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimings {
    /// Subsequence length of this step.
    pub length: usize,
    /// Dot-product advance (the incremental recurrence).
    pub advance: std::time::Duration,
    /// Per-window means/standard deviations.
    pub stats: std::time::Duration,
    /// Per-row classification and top-k selection.
    pub classify: std::time::Duration,
    /// Exact MASS recomputation of uncertified rows (or the full STOMP
    /// fallback at degenerate lengths).
    pub recompute: std::time::Duration,
}

/// Everything a VALMOD run produces.
#[derive(Debug, Clone)]
pub struct ValmodOutput {
    /// The configuration that produced this output.
    pub config: ValmodConfig,
    /// Exact per-length results for every length in `[ℓmin, ℓmax]`.
    pub per_length: Vec<LengthResult>,
    /// The VALMAP meta-data structure.
    pub valmap: Valmap,
    /// The full matrix profile at `ℓmin` (stage 1's by-product).
    pub base_profile: MatrixProfile,
    /// Stage wall-clock timings of this run.
    pub timings: StageTimings,
}

impl ValmodOutput {
    /// The best motif pair of each length (first of each top-k), for
    /// MOEN-style per-length reporting.
    #[must_use]
    pub fn best_per_length(&self) -> Vec<Option<MotifPair>> {
        self.per_length.iter().map(|r| r.pairs.first().copied()).collect()
    }

    /// Global ranking of all discovered pairs by length-normalized
    /// distance (see [`crate::rank`]).
    #[must_use]
    pub fn ranking(&self) -> Vec<crate::rank::RankedMotif> {
        crate::rank::rank_pairs(self)
    }
}

/// Runs VALMOD over `series` for the configured length range.
///
/// # Errors
///
/// Returns a [`valmod_series::SeriesError`] when the configuration is
/// invalid for this series (range malformed or series too short).
///
/// # Example
///
/// ```
/// use valmod_core::{run_valmod, ValmodConfig};
/// use valmod_series::gen;
///
/// let series = gen::sine_mix(800, &[(60.0, 1.0)], 0.05, 1);
/// let out = run_valmod(&series, &ValmodConfig::new(32, 40).with_k(3)).unwrap();
/// assert_eq!(out.per_length.len(), 9);
/// // A periodic series has close motifs at every length.
/// assert!(out.per_length.iter().all(|r| !r.pairs.is_empty()));
/// ```
pub fn run_valmod(series: &[f64], config: &ValmodConfig) -> Result<ValmodOutput> {
    run_valmod_observed(series, config, &mut |_| {})
}

/// [`run_valmod`] with an anytime-preview observer: when
/// [`ValmodConfig::quality`] is [`Quality::Anytime`], stage 1 walks the
/// diagonal blocks in the seeded shuffled order and invokes `on_preview`
/// after every round with the interim VALMAP and convergence estimate
/// (see [`crate::anytime::AnytimePreview`]); the run then **settles to
/// the byte-identical exact output** — same VALMAP, pairs, and checksums
/// as the eager walk. `Exact` (and `Screen`, which only short-circuits
/// through [`crate::Query::run`]) never invoke the observer.
///
/// # Errors
///
/// Returns a [`valmod_series::SeriesError`] when the configuration is
/// invalid for this series (range malformed or series too short).
pub fn run_valmod_observed(
    series: &[f64],
    config: &ValmodConfig,
    on_preview: &mut dyn FnMut(&crate::anytime::AnytimePreview),
) -> Result<ValmodOutput> {
    config.validate(series.len())?;
    let l0 = config.l_min;

    let engine = StompEngine::new(series, l0)?;
    // All downstream math uses the engine's globally centered values, so
    // dot products, statistics and lower bounds share one unit system.
    let values: Vec<f64> = engine.values().to_vec();
    let stats = RollingStats::new(&values);
    let profiler = DistanceProfiler::new(&values)?;

    // ---- Stage 1: full matrix profile at l0 + partial profiles. ----
    let stage1_started = std::time::Instant::now();
    let (base_profile, mut rows) = match config.quality {
        Quality::Anytime { budget } => {
            crate::anytime::stage_one_anytime(&engine, config, budget, on_preview)
        }
        _ => stage_one(&engine, config),
    };
    let stage1 = stage1_started.elapsed();
    let base_pairs = top_k_pairs(&base_profile, config.k);
    let mut valmap = Valmap::from_base_profile(&base_profile);
    let mut per_length = Vec::with_capacity(config.l_max - l0 + 1);
    per_length.push(LengthResult {
        length: l0,
        pairs: base_pairs,
        stats: LengthStats {
            valid_rows: base_profile.len(),
            invalid_rows: 0,
            recomputed_rows: 0,
            min_lb_abs: f64::INFINITY,
            stomp_fallback: false,
        },
    });

    // ---- Stage 2: lengths l0+1 ..= l_max. ----
    let stage2_started = std::time::Instant::now();
    let mut timings = StageTimings { stage1, ..StageTimings::default() };
    let mut scratch = StepScratch::default();
    scratch.dots.build(&rows);
    for length in l0 + 1..=config.l_max {
        let result = step_length(
            &values,
            &stats,
            &profiler,
            &mut rows,
            config,
            length,
            &mut scratch,
            &mut timings,
        )?;
        valmap.apply_length(length, &result.pairs);
        per_length.push(result);
    }
    timings.stage2 = stage2_started.elapsed();

    Ok(ValmodOutput { config: config.clone(), per_length, valmap, base_profile, timings })
}

/// Picks a worker count for `items` units of parallel work, requiring at
/// least `min_per_worker` units each before another thread pays off.
pub(crate) fn worker_count(threads: usize, items: usize, min_per_worker: usize) -> usize {
    if threads <= 1 || items == 0 {
        return 1;
    }
    threads.min(items.div_ceil(min_per_worker.max(1)))
}

/// Stage 1: walk the QT matrix's diagonals at `ℓmin` across workers,
/// building the base matrix profile and the per-row partial profiles.
///
/// Each unordered pair `(i, j)` is visited exactly once (the self-join
/// matrix is symmetric); the cell contributes candidate `j` to row `i`
/// and candidate `i` to row `j`. Worker-local selectors and bests merge
/// under total orders, so the output never depends on the worker count.
/// Shared with the discord search, whose stage 1 is the same computation.
pub(crate) fn stage_one(
    engine: &StompEngine,
    config: &ValmodConfig,
) -> (MatrixProfile, Vec<PartialRow>) {
    let l0 = config.l_min;
    let m = engine.num_windows();
    let excl = config.exclusion(l0);
    let mut mp = MatrixProfile::unfilled(l0, excl, m);
    let first_diag = excl + 1;
    if first_diag >= m {
        // No admissible pair at all: empty partial profiles, unfilled MP.
        let rows = (0..m).map(|_| TopRhoSelector::new(config.profile_size).into_row(l0)).collect();
        return (mp, rows);
    }

    let num_workers = stage1_worker_count(config, m, first_diag);
    // The hot path is the SIMD kernel (crate::kernel); series with flat
    // windows at ℓmin take the scalar distance-space walk instead, whose
    // per-cell conventions the kernel does not model. Both produce the
    // same SoA worker state and merge identically.
    let has_flat = engine.has_flat_windows();
    // Resolve the SIMD dispatch once for the whole stage and hand the
    // decision to every worker: the blocked partitioning depends on the
    // lane width, so a mid-stage env/override flip must never leave
    // workers disagreeing on the blocking.
    let level = valmod_fft::simd::simd_level();
    let mut parts = config.pool().run(num_workers, |w| {
        if has_flat {
            stage_one_flat_worker(engine, config, first_diag, w, num_workers)
        } else {
            kernel::stage1_walk(engine, first_diag, w, num_workers, config.profile_size, level)
        }
    });

    // Row-wise merge of the worker partitions under the total orders
    // (see [`Stage1Part::absorb`]): any grouping yields the same state.
    let rest = parts.split_off(1);
    let mut merged = parts.pop().expect("at least one worker");
    for part in &rest {
        merged.absorb(part);
    }
    let rows = rows_from_part(merged, &mut mp, l0);
    (mp, rows)
}

/// Stage 1's worker-count policy: scale to the actual cell work and keep
/// the per-worker state within the memory budget. Any count produces
/// identical results, so both caps are pure performance knobs. Shared
/// with the anytime scheduler so both walks size their fan-out the same
/// way.
pub(crate) fn stage1_worker_count(config: &ValmodConfig, m: usize, first_diag: usize) -> usize {
    let cells = (m - first_diag).saturating_mul(m - first_diag) / 2;
    let per_worker_bytes = m
        * (config.profile_size * std::mem::size_of::<crate::partial::PartialEntry>()
            + std::mem::size_of::<(f64, usize)>());
    let state_cap = (STAGE1_STATE_BYTES_BUDGET / per_worker_bytes.max(1)).max(1);
    worker_count(config.threads, cells, STAGE1_MIN_CELLS_PER_WORKER)
        .min(state_cap)
        .min(m - first_diag)
}

/// Finalizes a fully merged stage-1 part: per-row best → matrix-profile
/// offer, selector → sorted [`PartialRow`]. The tail both the eager and
/// the anytime stage 1 funnel through, so their outputs are bitwise the
/// same function of the merged state.
pub(crate) fn rows_from_part(
    part: Stage1Part,
    mp: &mut MatrixProfile,
    l0: usize,
) -> Vec<PartialRow> {
    let mut rows: Vec<PartialRow> = Vec::with_capacity(part.best_d.len());
    for (i, (selector, (best_d, best_j))) in
        part.selectors.into_iter().zip(part.best_d.into_iter().zip(part.best_j)).enumerate()
    {
        if best_j != u32::MAX {
            mp.offer(i, best_d, best_j as usize);
        }
        rows.push(selector.into_row(l0));
    }
    rows
}

/// The scalar stage-1 worker for series with flat (σ ≈ 0) windows at the
/// base length: per-cell distance conventions, interleaved-diagonal
/// partitioning — the pre-kernel walk, verbatim, writing into the same
/// SoA worker state as the kernel.
fn stage_one_flat_worker(
    engine: &StompEngine,
    config: &ValmodConfig,
    first_diag: usize,
    w: usize,
    num_workers: usize,
) -> Stage1Part {
    let l0 = config.l_min;
    let m = engine.num_windows();
    let means = engine.means();
    let stds = engine.stds();
    let mut part = Stage1Part::new(m, config.profile_size);
    engine.walk_diagonals(first_diag + w, num_workers, |i, j, qt| {
        flat_stage1_cell(&mut part, l0, means, stds, i, j, qt);
    });
    part
}

/// One cell of the scalar flat-path walk — the per-cell body shared by
/// the eager interleaved worker above and the anytime tier's listed
/// walk, so the two paths can never drift on the degenerate-pair
/// conventions.
pub(crate) fn flat_stage1_cell(
    part: &mut Stage1Part,
    l0: usize,
    means: &[f64],
    stds: &[f64],
    i: usize,
    j: usize,
    qt: f64,
) {
    let lf = l0 as f64;
    let (d, rho) = if stds[i] < FLAT_EPS || stds[j] < FLAT_EPS {
        // Degenerate pair: contribute the conventional distance to
        // the profile and enter the partial profile with the worst
        // correlation. The lower bound evaluated at ρ = −1 (its
        // plateau) remains admissible for flat candidates, so
        // pruning stays exact.
        (zdist_from_dot(qt, l0, means[i], stds[i], means[j], stds[j]), -1.0)
    } else {
        let rho = ((qt - lf * means[i] * means[j]) / (lf * stds[i] * stds[j])).clamp(-1.0, 1.0);
        ((2.0 * lf * (1.0 - rho)).max(0.0).sqrt(), rho)
    };
    part.selectors[i].offer(j, rho, qt);
    part.selectors[j].offer(i, rho, qt);
    let ju = kernel::idx32(j);
    if d < part.best_d[i] || (d == part.best_d[i] && ju < part.best_j[i]) {
        part.best_d[i] = d;
        part.best_j[i] = ju;
    }
    let iu = kernel::idx32(i);
    if d < part.best_d[j] || (d == part.best_d[j] && iu < part.best_j[j]) {
        part.best_d[j] = d;
        part.best_j[j] = iu;
    }
}

/// One row re-seeded by the MASS fallback, produced by a worker and
/// applied serially in row order, with its exact profile minimum.
struct RecomputedRow {
    i: usize,
    row: PartialRow,
    min_dist: f64,
    min_j: usize,
}

/// Splits the dot table's rows `0..row_count` into `workers` contiguous
/// chunks balanced by entry count, pairing each with its exclusive slice
/// of `dst`. Any chunking yields identical results (entries are advanced
/// independently), so the split is purely a load-balancing choice.
fn split_dot_chunks<'a>(
    offsets: &[usize],
    mut dst: &'a mut [f64],
    row_count: usize,
    workers: usize,
) -> Vec<std::sync::Mutex<(std::ops::Range<usize>, &'a mut [f64])>> {
    let total = offsets[row_count];
    let per_worker = total.div_ceil(workers.max(1)).max(1);
    let mut chunks = Vec::with_capacity(workers);
    let mut row = 0;
    let mut taken = 0;
    while row < row_count {
        let target = taken + per_worker;
        let mut end_row = row + 1;
        if target >= total {
            // Last chunk absorbs the remainder (including trailing
            // entry-less rows), so the chunk count never exceeds `workers`.
            end_row = row_count;
        } else {
            while end_row < row_count && offsets[end_row] < target {
                end_row += 1;
            }
        }
        let len = offsets[end_row] - offsets[row];
        let (head, tail) = dst.split_at_mut(len);
        dst = tail;
        chunks.push(std::sync::Mutex::new((row..end_row, head)));
        taken = offsets[end_row];
        row = end_row;
    }
    chunks
}

/// Advances one contiguous chunk of table rows to `target_len`: rows still
/// alive at that length go through the SIMD entry advance
/// ([`kernel::advance_entry_dots`]); rows whose window no longer exists
/// carry their dots forward verbatim, exactly as the per-entry guard left
/// them in the pre-table code.
fn advance_dot_chunk(
    offsets: &[usize],
    j_flat: &[u32],
    qt: &[f64],
    values: &[f64],
    target_len: usize,
    rows: std::ops::Range<usize>,
    dst: &mut [f64],
) {
    let n = values.len();
    let target_m = n - target_len + 1;
    let limit = u32::try_from(target_m).expect("window count exceeds the u32 profile index space");
    let t_next = &values[target_len - 1..];
    let base = offsets[rows.start];
    for i in rows {
        let (s, e) = (offsets[i], offsets[i + 1]);
        let dst_seg = &mut dst[s - base..e - base];
        if i < target_m {
            kernel::advance_entry_dots(
                values[i + target_len - 1],
                t_next,
                &j_flat[s..e],
                limit,
                &qt[s..e],
                dst_seg,
            );
        } else {
            dst_seg.copy_from_slice(&qt[s..e]);
        }
    }
}

/// Minimum table entries per advance worker; below this the dispatch
/// overhead rivals the fused multiply-adds themselves.
const MIN_ENTRIES_PER_ADVANCE_WORKER: usize = 1 << 15;

/// One stage-2 length step. Mutates `rows` (incremental dot products and
/// possible re-seeding) and returns the exact per-length result.
///
/// The phases run in order, each chunked across the configuration's
/// worker pool:
///
/// 1. **advance** every stored dot product from `length − 1` to `length`;
/// 2. compute the window **statistics** at `length`;
/// 3. **classify** each row against its lower bound and select the
///    tentative top-k from the certified rows;
/// 4. **recompute** with MASS the rows the bound could not certify below
///    the k-th distance, re-seeding their partial profiles at `length`.
///
/// A length with flat windows replaces phases 3 and 4 by one full STOMP
/// pass.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn step_length(
    values: &[f64],
    stats: &RollingStats,
    profiler: &DistanceProfiler,
    rows: &mut [PartialRow],
    config: &ValmodConfig,
    length: usize,
    scratch: &mut StepScratch,
    timings: &mut StageTimings,
) -> Result<LengthResult> {
    let _step_span = obs::span("stage2_step", obs::Layer::Stage2);
    let n = values.len();
    debug_assert!(length <= n);
    let m = n - length + 1;
    let excl = config.exclusion(length);
    let threads = config.threads;
    let pool = config.pool();
    let row_workers = worker_count(threads, m, MIN_ROWS_PER_WORKER);
    let StepScratch { means, stds, outcomes, mass, dots } = scratch;
    let mut step = StepTimings { length, ..StepTimings::default() };

    // ---- Advance the dots to `length`. ----
    let advance_started = std::time::Instant::now();
    let dot_advances = dots.j.len() as u64;
    {
        let adv_workers = worker_count(threads, dots.j.len(), MIN_ENTRIES_PER_ADVANCE_WORKER);
        let chunks = split_dot_chunks(&dots.offsets, &mut dots.qt_next, rows.len(), adv_workers);
        let (offsets, j_flat, qt) = (&dots.offsets, &dots.j, &dots.qt);
        pool.run(chunks.len(), |w| {
            let mut guard = chunks[w].lock().expect("advance chunk lock poisoned");
            let (rows_range, dst) = &mut *guard;
            advance_dot_chunk(offsets, j_flat, qt, values, length, rows_range.clone(), dst);
        });
    }
    std::mem::swap(&mut dots.qt, &mut dots.qt_next);
    step.advance = advance_started.elapsed();

    // ---- Window statistics of `length`. ----
    let stats_started = std::time::Instant::now();
    means.resize(m, 0.0);
    stds.resize(m, 0.0);
    pool.for_each_mut(means, row_workers, |i, v| *v = stats.centered_mean(i, length));
    pool.for_each_mut(stds, row_workers, |i, v| *v = stats.std(i, length));
    step.stats = stats_started.elapsed();

    if stds.iter().any(|&s| s < FLAT_EPS) {
        // Degenerate windows break the correlation-rank machinery:
        // compute this length exactly with (diagonal-parallel) STOMP and
        // re-seed nothing (stored profiles remain correct for later
        // lengths, whose dots keep advancing).
        let recompute_started = std::time::Instant::now();
        let mp = stomp_parallel_in(values, length, excl, threads, pool)?;
        let pairs = top_k_pairs(&mp, config.k);
        step.recompute = recompute_started.elapsed();
        let result = LengthResult {
            length,
            pairs,
            stats: LengthStats {
                valid_rows: m,
                invalid_rows: 0,
                recomputed_rows: m,
                min_lb_abs: f64::INFINITY,
                stomp_fallback: true,
            },
        };
        finish_step(timings, step, dot_advances, &result.stats);
        return Ok(result);
    }

    // ---- Classify rows: pure per-row reads, chunked across workers. ----
    let classify_started = std::time::Instant::now();
    let (offsets, j_flat, qt) = (&dots.offsets[..], &dots.j[..], &dots.qt[..]);
    let (means, stds) = (&means[..], &stds[..]);
    let rows_ref: &[PartialRow] = rows;
    outcomes.resize(m, RowOutcome::EMPTY);
    pool.for_each_mut(outcomes, row_workers, |i, out| {
        let mut min_dist = f64::INFINITY;
        let mut min_j = usize::MAX;
        for e in offsets[i]..offsets[i + 1] {
            let j = j_flat[e] as usize;
            if j >= m || i.abs_diff(j) <= excl {
                continue;
            }
            let d = zdist_from_dot(qt[e], length, means[i], stds[i], means[j], stds[j]);
            if d < min_dist {
                min_dist = d;
                min_j = j;
            }
        }
        let row = &rows_ref[i];
        let max_lb = match row.worst_rho() {
            Some(rho) => LbRowContext::new(stats, i, row.base_len, length).bound(rho),
            // Untruncated profile: nothing was left unstored, the stored
            // minimum is the row minimum by construction.
            None => f64::INFINITY,
        };
        let valid = min_dist <= max_lb;
        *out = RowOutcome { min_dist, min_j, max_lb, valid };
    });

    let min_lb_abs =
        outcomes.iter().filter(|o| !o.valid).map(|o| o.max_lb).fold(f64::INFINITY, f64::min);
    let valid_rows = outcomes.iter().filter(|o| o.valid).count();
    let invalid_rows = m - valid_rows;

    // Tentative top-k from certified rows.
    let mut candidates: Vec<MotifPair> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.valid && o.min_dist.is_finite())
        .map(|(i, o)| MotifPair::new(i, o.min_j, o.min_dist, length))
        .collect();
    let selection = select_top_k(&candidates, config.k, excl);

    // Certification threshold: with k certified pairs, only rows whose
    // bound undercuts the k-th distance could still contribute; with
    // fewer, any non-valid row could.
    let threshold = if selection.len() == config.k {
        selection.last().map_or(f64::INFINITY, |p| p.distance)
    } else {
        f64::INFINITY
    };
    step.classify = classify_started.elapsed();

    // ---- Recompute what the bound could not certify. ----
    // Exact MASS recomputation of every row the bound could not certify
    // below the threshold, then re-seed those partial profiles at the
    // current length.
    let recompute_started = std::time::Instant::now();
    let todo: Vec<usize> = if threshold >= min_lb_abs {
        (0..m).filter(|&i| !outcomes[i].valid && outcomes[i].max_lb < threshold).collect()
    } else {
        Vec::new()
    };
    let recomputed_rows = todo.len();
    let pairs = if todo.is_empty() {
        selection
    } else {
        let workers = worker_count(threads, todo.len(), 1);
        while mass.len() < workers {
            mass.push(profiler.scratch());
        }
        let chunk_len = todo.len().div_ceil(workers);
        let recompute_chunk = |chunk: &[usize], ms: &mut ProfileScratch| {
            chunk
                .iter()
                .map(|&i| {
                    let profile = profiler.self_profile_into(i, length, ms)?;
                    // A row that needed recomputation is a *competitive*
                    // row (its neighborhood keeps improving); give it a
                    // progressively larger partial profile so it stops
                    // defeating the bound. Capacity doubles per
                    // recomputation, capped to bound memory.
                    let capacity = (rows_ref[i].entries.len() * 2)
                        .clamp(config.profile_size, config.profile_size.max(256));
                    let (row, min_dist, min_j) =
                        reseed_row_from_profile(i, excl, length, profile, means, stds, capacity);
                    Ok(RecomputedRow { i, row, min_dist, min_j })
                })
                .collect::<Result<Vec<RecomputedRow>>>()
        };
        let results: Vec<Result<Vec<RecomputedRow>>> = if workers <= 1 {
            vec![recompute_chunk(&todo, &mut mass[0])]
        } else {
            // Pool workers take their chunk's scratch through a Mutex (one
            // uncontended acquisition per chunk per length step).
            let chunks: Vec<&[usize]> = todo.chunks(chunk_len).collect();
            let scratches: Vec<std::sync::Mutex<&mut ProfileScratch>> =
                mass.iter_mut().take(chunks.len()).map(std::sync::Mutex::new).collect();
            pool.run(chunks.len(), |w| {
                let mut ms = scratches[w].lock().expect("scratch lock poisoned");
                recompute_chunk(chunks[w], &mut ms)
            })
        };
        // The untouched rows' entries must carry the current dots before
        // the table is rebuilt from the re-seeded rows.
        dots.write_back(rows);
        // Contiguous chunks of an ascending `todo` concatenate back in
        // ascending row order — the same order the serial loop used.
        for chunk in results {
            for r in chunk? {
                rows[r.i] = r.row;
                if r.min_j != usize::MAX {
                    candidates.push(MotifPair::new(r.i, r.min_j, r.min_dist, length));
                }
            }
        }
        dots.build(rows);
        select_top_k(&candidates, config.k, excl)
    };
    step.recompute = recompute_started.elapsed();

    let result = LengthResult {
        length,
        pairs,
        stats: LengthStats {
            valid_rows,
            invalid_rows,
            recomputed_rows,
            min_lb_abs,
            stomp_fallback: false,
        },
    };
    finish_step(timings, step, dot_advances, &result.stats);
    Ok(result)
}

/// Closes one length step: adds its phase timings to the run's totals and
/// per-length table, and flushes its metrics (one relaxed add per counter
/// per length step).
fn finish_step(timings: &mut StageTimings, step: StepTimings, dot_advances: u64, s: &LengthStats) {
    timings.stage2_advance += step.advance;
    timings.stage2_stats += step.stats;
    timings.stage2_classify += step.classify;
    timings.stage2_recompute += step.recompute;
    timings.per_length.push(step);
    obs::count!(stage2_lengths, 1);
    obs::count!(stage2_dot_advances, dot_advances);
    obs::count!(stage2_valid_rows, s.valid_rows as u64);
    obs::count!(stage2_invalid_rows, s.invalid_rows as u64);
    obs::count!(stage2_recomputed_rows, s.recomputed_rows as u64);
    if s.stomp_fallback {
        obs::count!(stage2_stomp_fallback, 1);
    }
}

/// Re-seeds one recomputed row's partial profile from its exact MASS
/// distance profile at `length`: every admissible candidate is offered to
/// a fresh selector of `capacity`, prefiltered by the selector's running
/// rejection threshold exactly like the stage-1 kernel — a candidate with
/// `ρ < threshold` is provably rejected, so its dot-product recovery and
/// offer are skipped and the selector is credited instead
/// ([`TopRhoSelector::count_rejected`]), keeping the offered count (and
/// hence the row's truncation flag) exact. Returns the re-seeded row plus
/// the profile minimum `(min_dist, min_j)`.
///
/// The kept set is a pure function of the offered multiset under
/// "(ρ desc, offset asc)" (see [`crate::partial`]), so the prefiltered
/// row is byte-identical to offering every candidate — pinned by
/// `reseed_prefilter_is_byte_identical_to_offering_all` below.
pub(crate) fn reseed_row_from_profile(
    i: usize,
    excl: usize,
    length: usize,
    profile: &[f64],
    means: &[f64],
    stds: &[f64],
    capacity: usize,
) -> (PartialRow, f64, usize) {
    let lf = length as f64;
    let mut selector = TopRhoSelector::new(capacity);
    let mut thresh = f64::NEG_INFINITY;
    let mut min_dist = f64::INFINITY;
    let mut min_j = usize::MAX;
    for (j, &d) in profile.iter().enumerate() {
        if i.abs_diff(j) <= excl {
            continue;
        }
        if d < min_dist {
            min_dist = d;
            min_j = j;
        }
        let rho = pearson_from_dist(d, length);
        if rho < thresh {
            selector.count_rejected(1);
        } else {
            // Recover the dot product so the incremental updates can
            // continue from the new base length — only for candidates
            // that actually reach the selector.
            let qt = lf * (rho * stds[i] * stds[j] + means[i] * means[j]);
            selector.offer(j, rho, qt);
            thresh = selector.threshold();
        }
    }
    (selector.into_row(length), min_dist, min_j)
}

/// Greedy top-k selection with pair deduplication (same policy as
/// `valmod_mp::motif::top_k_pairs`). Shared with the screening tier,
/// which ranks by lower bound instead of exact distance.
pub(crate) fn select_top_k(candidates: &[MotifPair], k: usize, exclusion: usize) -> Vec<MotifPair> {
    let mut sorted: Vec<MotifPair> = candidates.to_vec();
    sorted.sort_by(|x, y| {
        x.distance
            .partial_cmp(&y.distance)
            .expect("distances are never NaN")
            .then(x.a.cmp(&y.a))
            .then(x.b.cmp(&y.b))
    });
    let mut selected: Vec<MotifPair> = Vec::with_capacity(k);
    for cand in sorted {
        if selected.len() == k {
            break;
        }
        if selected.iter().any(|s| cand.overlaps(s, exclusion)) {
            continue;
        }
        selected.push(cand);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_mp::stomp::stomp;
    use valmod_series::gen;

    /// Exact reference: top-k pairs per length via plain STOMP.
    fn brute_per_length(series: &[f64], config: &ValmodConfig) -> Vec<(usize, Vec<MotifPair>)> {
        (config.l_min..=config.l_max)
            .map(|l| {
                let mp = stomp(series, l, config.exclusion(l)).unwrap();
                (l, top_k_pairs(&mp, config.k))
            })
            .collect()
    }

    fn assert_matches_brute(series: &[f64], config: &ValmodConfig) {
        let out = run_valmod(series, config).unwrap();
        let brute = brute_per_length(series, config);
        assert_eq!(out.per_length.len(), brute.len());
        for (res, (l, expect)) in out.per_length.iter().zip(&brute) {
            assert_eq!(res.length, *l);
            assert_eq!(
                res.pairs.len(),
                expect.len(),
                "pair count differs at length {l}: {:?} vs {:?}",
                res.pairs,
                expect
            );
            for (got, want) in res.pairs.iter().zip(expect) {
                // Offsets can differ between ties; distances must agree.
                assert!(
                    (got.distance - want.distance).abs() < 1e-6,
                    "distance mismatch at length {l}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_walk() {
        let series = gen::random_walk(400, 42);
        assert_matches_brute(&series, &ValmodConfig::new(16, 32).with_k(3));
    }

    #[test]
    fn matches_brute_force_on_ecg() {
        let series = gen::ecg(500, &gen::EcgConfig::default(), 11);
        assert_matches_brute(&series, &ValmodConfig::new(24, 40).with_k(5));
    }

    #[test]
    fn matches_brute_force_on_astro() {
        let series = gen::astro(450, &gen::AstroConfig::default(), 23);
        assert_matches_brute(&series, &ValmodConfig::new(12, 28).with_k(4));
    }

    #[test]
    fn matches_brute_force_with_tiny_profile_size() {
        // p = 1 maximizes pruning failures, stressing the MASS fallback.
        let series = gen::random_walk(300, 77);
        assert_matches_brute(&series, &ValmodConfig::new(10, 24).with_k(3).with_profile_size(1));
    }

    #[test]
    fn matches_brute_force_with_flat_regions() {
        let mut series = gen::white_noise(300, 5, 1.0);
        for v in &mut series[100..160] {
            *v = 1.5; // forces the STOMP fallback at every length
        }
        let config = ValmodConfig::new(8, 16).with_k(2);
        let out = run_valmod(&series, &config).unwrap();
        assert!(out.per_length.iter().skip(1).all(|r| r.stats.stomp_fallback));
        assert_matches_brute(&series, &config);
    }

    #[test]
    fn planted_motif_dominates_valmap() {
        let pattern: Vec<f64> =
            (0..48).map(|i| (i as f64 / 48.0 * std::f64::consts::TAU * 2.0).sin()).collect();
        let (series, truth) = gen::planted_pair(2500, &pattern, &[400, 1700], 0.01, 3);
        let config = ValmodConfig::new(32, 56).with_k(3);
        let out = run_valmod(&series, &config).unwrap();
        let (i, j, l, _dn) = out.valmap.best_entry().unwrap();
        let (lo, hi) = (i.min(j), i.max(j));
        assert!(lo.abs_diff(truth.offsets[0]) <= l, "found offset {lo}");
        assert!(hi.abs_diff(truth.offsets[1]) <= l, "found offset {hi}");
    }

    #[test]
    fn valmap_checkpoints_cover_every_length() {
        let series = gen::sine_mix(600, &[(45.0, 1.0)], 0.1, 9);
        let config = ValmodConfig::new(16, 24);
        let out = run_valmod(&series, &config).unwrap();
        assert_eq!(out.valmap.checkpoints.len(), 24 - 16);
        for (cp, l) in out.valmap.checkpoints.iter().zip(17..=24) {
            assert_eq!(cp.length, l);
        }
    }

    #[test]
    fn pruning_actually_prunes_on_friendly_data() {
        // On a strongly periodic series the base motifs stay motifs as the
        // length grows, so most rows should be certified without
        // recomputation at most lengths.
        let series = gen::sine_mix(2000, &[(80.0, 1.0), (160.0, 0.5)], 0.02, 4);
        let config = ValmodConfig::new(64, 96).with_k(1);
        let out = run_valmod(&series, &config).unwrap();
        let total_rows: usize =
            out.per_length.iter().skip(1).map(|r| r.stats.valid_rows + r.stats.invalid_rows).sum();
        let recomputed: usize =
            out.per_length.iter().skip(1).map(|r| r.stats.recomputed_rows).sum();
        assert!(
            recomputed * 4 < total_rows,
            "expected <25% recomputation, got {recomputed}/{total_rows}"
        );
    }

    #[test]
    fn rejects_invalid_configurations() {
        let series = gen::random_walk(100, 1);
        assert!(run_valmod(&series, &ValmodConfig::new(64, 32)).is_err());
        assert!(run_valmod(&series, &ValmodConfig::new(90, 99)).is_err());
    }

    #[test]
    fn best_per_length_aligns_with_results() {
        let series = gen::ecg(400, &gen::EcgConfig::default(), 2);
        let out = run_valmod(&series, &ValmodConfig::new(16, 20)).unwrap();
        let best = out.best_per_length();
        assert_eq!(best.len(), 5);
        for (b, r) in best.iter().zip(&out.per_length) {
            assert_eq!(*b, r.pairs.first().copied());
        }
    }

    /// The stage-2 re-seed prefilter against offering every candidate:
    /// byte-identical rows (entries, qt dots, truncation flag — the flag
    /// is a function of the exact offered count, so this also pins the
    /// `count_rejected` bookkeeping) and identical profile minima, across
    /// capacities small enough to reject most of the profile.
    #[test]
    fn reseed_prefilter_is_byte_identical_to_offering_all() {
        let length = 16usize;
        let lf = length as f64;
        let m = 300usize;
        let hash = |x: usize, s: u64| {
            (((x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(s)) % 1000) as f64
        };
        // Distances in the valid z-normalized range [0, 2√ℓ], with ties.
        let profile: Vec<f64> = (0..m).map(|j| 2.0 * lf.sqrt() * hash(j, 7) / 1000.0).collect();
        let means: Vec<f64> = (0..m).map(|j| hash(j, 13) / 100.0 - 5.0).collect();
        let stds: Vec<f64> = (0..m).map(|j| hash(j, 29) / 1000.0 + 0.05).collect();
        for (i, excl, capacity) in [(0usize, 4usize, 2usize), (150, 8, 4), (299, 4, 64), (17, 0, 1)]
        {
            let (row, min_dist, min_j) =
                reseed_row_from_profile(i, excl, length, &profile, &means, &stds, capacity);

            // Reference: offer everything, no prefilter.
            let mut selector = TopRhoSelector::new(capacity);
            let mut want_min = f64::INFINITY;
            let mut want_j = usize::MAX;
            for (j, &d) in profile.iter().enumerate() {
                if i.abs_diff(j) <= excl {
                    continue;
                }
                if d < want_min {
                    want_min = d;
                    want_j = j;
                }
                let rho = pearson_from_dist(d, length);
                let qt = lf * (rho * stds[i] * stds[j] + means[i] * means[j]);
                selector.offer(j, rho, qt);
            }
            let want = selector.into_row(length);

            assert_eq!(min_dist.to_bits(), want_min.to_bits(), "min at i={i}");
            assert_eq!(min_j, want_j, "min_j at i={i}");
            assert_eq!(row.truncated, want.truncated, "truncation flag at i={i}");
            assert_eq!(row.entries.len(), want.entries.len(), "kept count at i={i}");
            for (a, b) in row.entries.iter().zip(&want.entries) {
                assert_eq!(a.j, b.j, "entry offset at i={i}");
                assert_eq!(a.rho_base.to_bits(), b.rho_base.to_bits(), "entry rho at i={i}");
                assert_eq!(a.qt.to_bits(), b.qt.to_bits(), "entry qt at i={i}");
            }
        }
    }
}
