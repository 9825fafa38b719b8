//! `valbench` — the VALMOD suite's end-to-end and per-layer benchmark.
//!
//! One command runs one workload for a given seed and time budget,
//! checks every answer the program gave against the harness's own
//! reference code, and prints one JSON result line. See `README.md` in
//! this directory for the workloads, the metrics and how to read them.

pub mod batch;
pub mod check;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod reference;
pub mod serve;
pub mod stats;
pub mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use valmod_core::ValmodOutput;
use valmod_mp::{stomp::stomp_parallel_in, MatrixProfile, WorkerPool};

use crate::check::{sample_rows, Checker, Profile};
use crate::inputs::{Scale, Workload, THREADS};
use crate::stats::{median, nearest_rank};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Unit as declared.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Operations attempted and failed in a run. Every request, run and
/// answer check is one operation; a failed check fails its operation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts `r` as failed if it is an error; passes the value through.
    pub fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 16 {
                    self.errors.push(e);
                }
                None
            }
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, attempted: u64, errors: Vec<String>) {
        self.attempted += attempted;
        for e in errors {
            self.record::<()>(Err(e));
        }
    }
}

/// How one run is asked to go.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input and sample row.
    pub seed: u64,
    /// Measurement budget in seconds (whole rounds; at least
    /// `batch::MIN_ROUNDS` on the batch side).
    pub seconds: f64,
    /// Declared or reduced sizes.
    pub scale: Scale,
    /// Scratch directory for inputs, sockets and checkpoints.
    pub work: PathBuf,
}

/// What one pass over a workload produced.
pub struct Pass {
    /// The end-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Latency distributions for the run record.
    pub latencies: Vec<(&'static str, Vec<f64>)>,
    /// Rounds of the batch side.
    pub rounds: usize,
    /// Every timing behind the median metrics, for the run record.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Figures for the per-layer measurements.
    layer_input: LayerInput,
}

struct LayerInput {
    series: Vec<f64>,
    path: PathBuf,
    l_min: usize,
    l_max: usize,
    output: Option<ValmodOutput>,
    valmod_s: f64,
    profile_s: f64,
    serve: serve::Measured,
    shape: inputs::ServeShape,
    pool: Arc<WorkerPool>,
}

/// Peak resident set of this process, in MB (`VmHWM`), for the run
/// record. It is no metric: allocator arenas make it move by ±20%
/// between runs of the same shape.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The system allocator, counting live and peak heap bytes of the whole
/// process (program and harness).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only read
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed on as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (so by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are passed on.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap of this process since it started or since the last
/// [`reset_peak_heap`], in MB.
#[must_use]
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Restarts the peak at the heap live now, so a later pass reports its
/// own peak.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Daemon set-ups per serve-tcp run; `setup_s` reports their median.
pub const SERVE_SETUPS: usize = 2;

/// `certify` requests per tenant on serve-tcp, each followed by a
/// profile of the tenant's samples; `valmod_s` and `profile_s` report
/// the medians.
pub const SERVE_CERTIFY_REPS: usize = 4;

/// Chunks the batch workloads' daemon phase and their later set-ups are
/// cut into; one chunk runs after each of the first timed operations.
pub const CHUNKS: usize = 4;

/// Set-ups per block on the batch workloads: one block before the first
/// round and two in each chunk, `BATCH_SETUPS · (2 · CHUNKS + 1)` in all
/// (about 1 s), so the `setup_s` median samples the whole run.
pub const BATCH_SETUPS: usize = 16;

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// Runs one pass of the workload over `inputs`: the batch side, if any,
/// and the daemon phase.
pub fn run_pass(o: &Options, inputs: &[Vec<f64>], tally: &mut Tally) -> Pass {
    let sshape = o.workload.serve(o.scale);
    let bshape = o.workload.batch(o.scale);
    let (
        setup_s,
        valmod_s,
        profile_s,
        rounds,
        layer_series,
        layer_path,
        output,
        pool,
        serve_m,
        samples,
    );
    if o.workload == Workload::ServeTcp {
        let harness_pool = Arc::new(WorkerPool::new());
        let mut tenants: Vec<serve::Tenant> = inputs
            .iter()
            .enumerate()
            .map(|(j, s)| serve::Tenant { name: format!("sensor-{j}"), stream: s.clone(), fed: 0 })
            .collect();
        // The fixed-length profile `valmod profile` computes, over each
        // tenant's samples, checked like the batch profiles; one after
        // each `certify`, so both sample the same stretch of the run.
        let mut profiles = Vec::new();
        let mut first: Vec<Option<MatrixProfile>> = vec![None; tenants.len()];
        let mut profile = |j: usize, t: &serve::Tenant, tally: &mut Tally| {
            let samples = &t.stream[..t.fed];
            tally.attempted += 1;
            let started = Instant::now();
            let mp = {
                let _span = trace::span("mp", "stomp::stomp_parallel_in");
                stomp_parallel_in(
                    samples,
                    bshape.l_min,
                    reference::exclusion(bshape.l_min),
                    THREADS,
                    &harness_pool,
                )
            };
            profiles.push(started.elapsed().as_secs_f64());
            let r = mp.map_err(|e| format!("profile: {e}")).and_then(|mp| match &first[j] {
                None => {
                    let rows = sample_rows(
                        o.seed ^ (j as u64 + 100),
                        samples.len() + 1 - bshape.l_min,
                        12,
                    );
                    let r = Checker::new(samples, bshape.l_min, bshape.l_min).profile(
                        &Profile { length: bshape.l_min, values: &mp.values, indices: &mp.indices },
                        &rows,
                    );
                    first[j] = Some(mp);
                    r
                }
                Some(f) => batch::same_profile(f, &mp)
                    .then_some(())
                    .ok_or_else(|| "a repeated profile changed its answer".into()),
            });
            tally.record(r);
        };
        let m = match serve::Session::start(&sshape, &o.work, &mut tenants, SERVE_SETUPS, tally) {
            Some(mut session) => {
                session.load(&mut tenants, o.seconds, sshape.min_appends, tally);
                session.burst(&mut tenants, sshape.burst_per_connection, tally);
                session.finish(
                    &tenants,
                    o.seed,
                    &harness_pool,
                    SERVE_CERTIFY_REPS,
                    tally,
                    &mut profile,
                )
            }
            None => serve::Measured::default(),
        };
        setup_s = med(&m.setup_s);
        valmod_s = med(&m.certify_s);
        profile_s = med(&profiles);
        samples = vec![
            ("setup_s", m.setup_s.clone()),
            ("valmod_s", m.certify_s.clone()),
            ("profile_s", profiles),
        ];
        rounds = 1;
        let t0 = &tenants[0];
        layer_series = t0.stream[..t0.fed].to_vec();
        layer_path = o.work.join("tenant-0.txt");
        if let Err(e) = batch::write_input(&layer_path, &layer_series) {
            tally.record::<()>(Err(format!("writing tenant input: {e}")));
        }
        output = m.reference.clone();
        serve_m = m;
        pool = harness_pool;
    } else {
        let path = o.work.join("input.txt");
        if let Err(e) = batch::write_input(&path, &inputs[0]) {
            tally.record::<()>(Err(format!("writing input: {e}")));
        }
        let (mut setups, batch_pool) = batch::set_up(&path, &inputs[0], BATCH_SETUPS, tally);
        // The daemon phase and the later set-ups run in CHUNKS equal
        // chunks, one after each of the first exact runs and profiles, so
        // their samples span the run.
        let needed =
            sshape.warmup + sshape.min_appends * sshape.batch + sshape.burst_per_connection;
        let mut tenants = vec![serve::Tenant {
            name: "series".into(),
            stream: inputs[0][..needed].to_vec(),
            fed: 0,
        }];
        let mut session = serve::Session::start(&sshape, &o.work, &mut tenants, 1, tally);
        let mut chunk = |tally: &mut Tally| {
            setups.extend(batch::set_up(&path, &inputs[0], BATCH_SETUPS, tally).0);
            if let Some(s) = session.as_mut() {
                s.load(&mut tenants, 0.0, sshape.min_appends / CHUNKS, tally);
            }
            setups.extend(batch::set_up(&path, &inputs[0], BATCH_SETUPS, tally).0);
            if let Some(s) = session.as_mut() {
                s.burst(&mut tenants, sshape.burst_per_connection / CHUNKS, tally);
            }
        };
        let b = batch::run(
            &bshape,
            &batch_pool,
            &inputs[0],
            o.seconds,
            o.seed,
            tally,
            &mut |k, tally| {
                if k < CHUNKS {
                    chunk(tally);
                }
            },
        );
        for _ in 2 * b.rounds..CHUNKS {
            chunk(tally);
        }
        let m = session.map_or_else(serve::Measured::default, |s| {
            s.finish(&tenants, o.seed, &batch_pool, 1, tally, &mut |_, _, _| {})
        });
        setup_s = med(&setups);
        valmod_s = med(&b.valmod_s);
        profile_s = med(&b.profile_s);
        samples = vec![
            ("setup_s", setups),
            ("valmod_s", b.valmod_s.clone()),
            ("profile_s", b.profile_s.clone()),
        ];
        rounds = b.rounds;
        layer_series = inputs[0].clone();
        layer_path = path;
        output = b.output;
        pool = batch_pool;
        serve_m = m;
    }
    let e2e = vec![
        Metric { name: "setup_s", unit: "s", value: setup_s },
        Metric { name: "valmod_s", unit: "s", value: valmod_s },
        Metric { name: "profile_s", unit: "s", value: profile_s },
        Metric {
            name: "append_p50_ms",
            unit: "ms",
            value: nearest_rank(&serve_m.append_ms, 50.0).unwrap_or(f64::NAN),
        },
        Metric {
            name: "append_p90_ms",
            unit: "ms",
            value: nearest_rank(&serve_m.append_ms, 90.0).unwrap_or(f64::NAN),
        },
        Metric { name: "valmap_p50_ms", unit: "ms", value: med(&serve_m.valmap_ms) },
        Metric { name: "ingest_samples_per_s", unit: "samples/s", value: serve_m.ingest_per_s },
        Metric { name: "peak_heap_mb", unit: "MB", value: peak_heap_mb() },
    ];
    let latencies = vec![
        ("append_ms", serve_m.append_ms.clone()),
        ("valmap_ms", serve_m.valmap_ms.clone()),
        ("generator_late_ms", serve_m.late_ms.clone()),
    ];
    let layer_valmod_s = if o.workload == Workload::ServeTcp {
        serve_m.reference_s.first().copied().unwrap_or(f64::NAN)
    } else {
        valmod_s
    };
    Pass {
        e2e,
        latencies,
        rounds,
        samples,
        layer_input: LayerInput {
            series: layer_series,
            path: layer_path,
            l_min: bshape.l_min,
            l_max: bshape.l_max,
            output,
            valmod_s: layer_valmod_s,
            profile_s,
            serve: serve_m,
            shape: sshape,
            pool,
        },
    }
}

/// The per-layer metrics, measured after a (traced) pass.
pub fn layer_metrics(
    o: &Options,
    pass: &Pass,
    tally: &mut Tally,
    record: &mut Vec<(String, String)>,
) -> Vec<Metric> {
    let li = &pass.layer_input;
    let Some(output) = &li.output else {
        tally.record::<()>(Err("no exact output to derive the per-layer figures from".into()));
        return Vec::new();
    };
    let observed = layers::Observed {
        series: &li.series,
        path: &li.path,
        l_min: li.l_min,
        l_max: li.l_max,
        output,
        valmod_s: li.valmod_s,
        profile_s: li.profile_s,
        serve: &li.serve,
        shape: &li.shape,
    };
    layers::measure(&observed, &o.work, &li.pool, o.seed, tally, record)
}

/// Creates (or empties) the run's scratch directory.
///
/// # Errors
///
/// File-system errors.
pub fn prepare_work(path: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path)
}
