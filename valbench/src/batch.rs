//! The batch side of a workload: the exact `Query` run `valmod run`
//! makes and the fixed-length profile `valmod profile` computes, each
//! checked against the reference code.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use valmod_core::{Query, QueryOutcome, ValmodOutput};
use valmod_mp::{stomp::stomp_parallel_in, MatrixProfile, WorkerPool};
use valmod_series::io::read_series;

use crate::check::{sample_rows, Checker, Pair, Profile, Valmap};
use crate::inputs::{BatchShape, K, THREADS};
use crate::reference::exclusion;
use crate::trace;
use crate::Tally;

/// Everything the batch side measured.
pub struct Measured {
    /// Seconds per exact VALMOD run.
    pub valmod_s: Vec<f64>,
    /// Seconds per fixed-length profile at `l_min`.
    pub profile_s: Vec<f64>,
    /// Rounds run.
    pub rounds: usize,
    /// The first run's output.
    pub output: Option<ValmodOutput>,
}

/// Writes `values` one per line, each with all its digits.
///
/// # Errors
///
/// File-system errors.
pub fn write_input(path: &Path, values: &[f64]) -> std::io::Result<()> {
    let mut text = String::with_capacity(values.len() * 20);
    for v in values {
        text.push_str(&format!("{v}\n"));
    }
    std::fs::write(path, text)
}

/// `reps` set-ups, each timed: read the input through the program's
/// reader and build the pool. Every read must return the written values
/// bit for bit. Returns the seconds per set-up and the last pool built.
pub fn set_up(
    path: &Path,
    values: &[f64],
    reps: usize,
    tally: &mut Tally,
) -> (Vec<f64>, Arc<WorkerPool>) {
    let mut setup_s = Vec::with_capacity(reps);
    let mut pool = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let series = {
            let _span = trace::span("series", "io::read_series");
            read_series(path)
        };
        let built = {
            let _span = trace::span("mp", "WorkerPool::new");
            Arc::new(WorkerPool::new())
        };
        setup_s.push(started.elapsed().as_secs_f64());
        tally.attempted += 1;
        tally.record(series.map_err(|e| format!("read_series: {e}")).and_then(|series| {
            let read = series.values();
            (read.len() == values.len()
                && read.iter().zip(values).all(|(a, b)| a.to_bits() == b.to_bits()))
            .then_some(())
            .ok_or_else(|| "read_series returned other values than were written".into())
        }));
        pool = Some(built);
    }
    (setup_s, pool.expect("at least one set-up"))
}

/// Rounds a batch run makes at least, whatever its budget.
pub const MIN_ROUNDS: usize = 2;

/// Whole rounds of (exact run, profile) on `pool` until `seconds` have
/// passed (at least `MIN_ROUNDS`), calling `between` after every exact
/// run and every profile with their running index. The first round's
/// answers are checked against the reference code; every later round
/// must reproduce them bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn run(
    shape: &BatchShape,
    pool: &Arc<WorkerPool>,
    values: &[f64],
    seconds: f64,
    seed: u64,
    tally: &mut Tally,
    between: &mut dyn FnMut(usize, &mut Tally),
) -> Measured {
    let query = Query::new(shape.l_min, shape.l_max).k(K).threads(THREADS).pool(Arc::clone(pool));
    let rows = sample_rows(seed, values.len() + 1 - shape.l_max, 16);
    let mut checker = Checker::new(values, shape.l_min, shape.l_max);
    let (mut valmod_s, mut profile_s) = (Vec::new(), Vec::new());
    let mut first: Option<ValmodOutput> = None;
    let mut first_profile: Option<MatrixProfile> = None;
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        tally.attempted += 1;
        let t = Instant::now();
        let out = {
            let _span = trace::span("valmod", "Query::run");
            query.run(values)
        };
        let secs = t.elapsed().as_secs_f64();
        let r = match out {
            Ok(QueryOutcome::Exact(out)) => {
                valmod_s.push(secs);
                match &first {
                    None => {
                        let r = check_output(&mut checker, &out, &rows);
                        first = Some(out);
                        r
                    }
                    Some(f) => same_output(f, &out)
                        .then_some(())
                        .ok_or_else(|| "a repeated run changed its answer".into()),
                }
            }
            Ok(QueryOutcome::Screen(_)) => Err("exact query answered with a screen".into()),
            Err(e) => Err(format!("exact run: {e}")),
        };
        tally.record(r);
        between(2 * rounds - 2, tally);

        tally.attempted += 1;
        let t = Instant::now();
        let mp = {
            let _span = trace::span("mp", "stomp::stomp_parallel_in");
            stomp_parallel_in(values, shape.l_min, exclusion(shape.l_min), THREADS, pool)
        };
        let secs = t.elapsed().as_secs_f64();
        let r = match mp {
            Ok(mp) => {
                profile_s.push(secs);
                match &first_profile {
                    None => {
                        let r = checker.profile(
                            &Profile {
                                length: shape.l_min,
                                values: &mp.values,
                                indices: &mp.indices,
                            },
                            &rows,
                        );
                        first_profile = Some(mp);
                        r
                    }
                    Some(f) => same_profile(f, &mp)
                        .then_some(())
                        .ok_or_else(|| "a repeated profile changed its answer".into()),
                }
            }
            Err(e) => Err(format!("profile: {e}")),
        };
        tally.record(r);
        between(2 * rounds - 1, tally);
    }
    Measured { valmod_s, profile_s, rounds, output: first }
}

/// The exact output against the reference: every pair, per-length
/// optimality on the sample rows, the base profile, the VALMAP.
///
/// # Errors
///
/// The first violation.
pub fn check_output(
    checker: &mut Checker,
    out: &ValmodOutput,
    rows: &[usize],
) -> Result<(), String> {
    let lengths: Vec<Vec<Pair>> = out
        .per_length
        .iter()
        .map(|r| {
            r.pairs
                .iter()
                .map(|p| Pair { length: p.length, a: p.a, b: p.b, distance: p.distance })
                .collect()
        })
        .collect();
    checker.lengths(&lengths, rows)?;
    let base = &out.base_profile;
    checker.profile(
        &Profile { length: base.window, values: &base.values, indices: &base.indices },
        rows,
    )?;
    let v = &out.valmap;
    let pairs: Vec<Pair> = lengths.into_iter().flatten().collect();
    checker.valmap(&Valmap { mpn: &v.mpn, ip: &v.ip, lp: &v.lp }, &pairs, rows)
}

fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// Bit-for-bit equality of two exact outputs' answers.
#[must_use]
pub fn same_output(a: &ValmodOutput, b: &ValmodOutput) -> bool {
    bits(&a.valmap.mpn).eq(bits(&b.valmap.mpn))
        && a.valmap.ip == b.valmap.ip
        && a.valmap.lp == b.valmap.lp
        && same_profile(&a.base_profile, &b.base_profile)
        && a.per_length.len() == b.per_length.len()
        && a.per_length.iter().zip(&b.per_length).all(|(x, y)| {
            x.pairs.len() == y.pairs.len()
                && x.pairs.iter().zip(&y.pairs).all(|(p, q)| {
                    (p.a, p.b, p.length, p.distance.to_bits())
                        == (q.a, q.b, q.length, q.distance.to_bits())
                })
        })
}

/// Bit-for-bit equality of two profiles.
#[must_use]
pub fn same_profile(a: &MatrixProfile, b: &MatrixProfile) -> bool {
    a.window == b.window && bits(&a.values).eq(bits(&b.values)) && a.indices == b.indices
}
