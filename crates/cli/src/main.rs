//! `valmod` — command-line driver for the VALMOD suite.
//!
//! This binary plays the role of the paper's C back-end: it reads a data
//! series, runs VALMOD (or a fixed-length matrix profile), and emits the
//! VALMAP analysis as text (and optionally JSON for downstream tooling —
//! the demo's Python front-end equivalent).

mod args;

use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;

use args::{Command, GenerateArgs, MotifSetArgs, ProfileArgs, RunArgs, ServeArgs, StreamArgs};
use valmod_core::render::{render_valmap, sparkline};
use valmod_core::{expand_motif_set, Query, QueryOutcome, ScreenReport};
use valmod_mp::motif::{top_k_discords, top_k_pairs};
use valmod_mp::stomp::stomp_parallel_in;
use valmod_mp::{default_exclusion, MotifPair, WorkerPool};
use valmod_obs as obs;
use valmod_series::{gen, io};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = raw.iter().map(String::as_str).collect();
    let command = match args::parse(&refs) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Help => {
            println!("{}", args::USAGE);
            Ok(())
        }
        Command::Run(a) => cmd_run(&a),
        Command::Profile(a) => cmd_profile(&a),
        Command::Generate(a) => cmd_generate(&a),
        Command::MotifSet(a) => cmd_motif_set(&a),
        Command::Stream(a) => cmd_stream(&a),
        Command::Serve(a) => cmd_serve(&a),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the observability dumps a subcommand was asked for: the
/// Prometheus-style text exposition to `metrics` (`-` for stdout) and the
/// Chrome trace-event JSON to `trace_out`.
fn write_obs_outputs(
    metrics: Option<&str>,
    trace_out: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = metrics {
        let dump = obs::render_prometheus();
        if path == "-" {
            let mut stdout = std::io::stdout().lock();
            stdout.write_all(dump.as_bytes())?;
            stdout.flush()?;
        } else {
            std::fs::write(path, dump)?;
        }
    }
    if let Some(path) = trace_out {
        std::fs::write(path, obs::render_chrome_trace())?;
    }
    Ok(())
}

/// The input-side health stats the stream summary line carries, read
/// back from the session's observability counters.
fn summary_io() -> valmod_stream::SummaryIo {
    let m = obs::metrics();
    valmod_stream::SummaryIo {
        read_retries: m.stream_read_retries.get(),
        max_backoff_ms: u64::try_from(m.stream_max_backoff_ms.get()).unwrap_or(0),
    }
}

fn print_pairs_table(pairs: &[MotifPair]) {
    println!(
        "{:>4} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "#", "offset a", "offset b", "length", "distance", "dist/sqrt(l)"
    );
    for (rank, p) in pairs.iter().enumerate() {
        println!(
            "{:>4} {:>10} {:>10} {:>8} {:>12.4} {:>12.4}",
            rank + 1,
            p.a,
            p.b,
            p.length,
            p.distance,
            p.distance / (p.length as f64).sqrt()
        );
    }
}

fn cmd_run(a: &RunArgs) -> Result<(), Box<dyn std::error::Error>> {
    let series = io::read_series(&a.input)?;
    // The command owns one persistent pool for its whole run: threads are
    // spawned once, parked between phases, joined when the command ends.
    let mut query = Query::new(a.l_min, a.l_max)
        .k(a.k)
        .profile_size(a.p)
        .quality(a.quality)
        .seed(a.seed)
        .pool(Arc::new(WorkerPool::new()));
    if let Some(threads) = a.threads {
        query = query.threads(threads);
    }
    let started = std::time::Instant::now();
    // Anytime preview rounds emit NDJSON progress lines ahead of the
    // human-readable report (the same event shape `valmod stream` uses).
    let n = series.len();
    let outcome = query.run_with_preview(series.values(), |p| {
        println!("{}", valmod_stream::preview_line(n, p));
    })?;
    let elapsed = started.elapsed();
    let output = match outcome {
        QueryOutcome::Screen(report) => {
            print_screen_report(&a.input, series.values(), &report, elapsed);
            return write_obs_outputs(a.metrics.as_deref(), a.trace_out.as_deref());
        }
        QueryOutcome::Exact(output) => output,
    };
    let config = query.config();

    println!("series: {} ({} points)", a.input, series.len());
    println!("data |{}|\n", sparkline(series.values(), 72));
    println!("{}", render_valmap(&output.valmap, 72));

    println!("top motif pairs across lengths (length-normalized ranking):");
    let ranking = output.ranking();
    let pairs: Vec<MotifPair> = ranking.iter().take(a.k).map(|r| r.pair).collect();
    print_pairs_table(&pairs);

    let recomputed: usize = output.per_length.iter().map(|r| r.stats.recomputed_rows).sum();
    println!(
        "\ncompleted in {elapsed:.2?} on {} thread(s) — stage 1 {:.2?}, stage 2 {:.2?} \
         ({recomputed} rows recomputed across all lengths)",
        config.threads, output.timings.stage1, output.timings.stage2
    );

    if let Some(path) = &a.valmap_out {
        let json = valmap_to_json(&output.valmap);
        std::fs::write(path, json)?;
        println!("VALMAP written to {path}");
    }
    write_obs_outputs(a.metrics.as_deref(), a.trace_out.as_deref())?;
    Ok(())
}

/// Renders the screening tier's lower-bound ranking: the exact base
/// length, then the top candidates per extended length with their
/// admissible bounds (never exceeding the true distances).
fn print_screen_report(
    input: &str,
    series: &[f64],
    report: &ScreenReport,
    elapsed: std::time::Duration,
) {
    println!("series: {input} ({} points) — screening tier (lower bounds only)", series.len());
    println!("data |{}|\n", sparkline(series, 72));
    println!("exact base length {}:", report.base.length);
    print_pairs_table(&report.base.pairs);
    println!("\nscreened candidates by admissible lower bound (no exact recomputation):");
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>14}",
        "length", "offset", "match", "lower bound", "lb/sqrt(l)"
    );
    for sl in &report.lengths {
        for c in &sl.candidates {
            println!(
                "{:>8} {:>10} {:>12} {:>14.4} {:>14.4}",
                c.length,
                c.offset,
                c.match_offset,
                c.lower_bound,
                c.lower_bound / (c.length as f64).sqrt()
            );
        }
    }
    if let Some(best) = report.best_candidate() {
        println!(
            "\nbest screened candidate: offsets ({}, {}), length {}, bound {:.4}",
            best.offset, best.match_offset, best.length, best.lower_bound
        );
    }
    println!("screened in {elapsed:.2?}");
}

/// Minimal hand-rolled JSON dump of VALMAP (front-end hand-off format).
fn valmap_to_json(valmap: &valmod_core::Valmap) -> String {
    let join = |it: Vec<String>| it.join(", ");
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"l_min\": {},\n", valmap.l_min));
    out.push_str(&format!(
        "  \"mpn\": [{}],\n",
        join(
            valmap
                .mpn
                .iter()
                .map(|v| if v.is_finite() { format!("{v:.6}") } else { "null".into() })
                .collect()
        )
    ));
    out.push_str(&format!(
        "  \"ip\": [{}],\n",
        join(valmap.ip.iter().map(|v| v.map_or("null".into(), |j| j.to_string())).collect())
    ));
    out.push_str(&format!(
        "  \"lp\": [{}],\n",
        join(valmap.lp.iter().map(ToString::to_string).collect())
    ));
    out.push_str(&format!(
        "  \"checkpoints\": [{}]\n",
        join(
            valmap
                .checkpoints
                .iter()
                .map(|c| {
                    format!("{{\"length\": {}, \"updates\": {}}}", c.length, c.updates.len())
                })
                .collect()
        )
    ));
    out.push('}');
    out
}

fn cmd_profile(a: &ProfileArgs) -> Result<(), Box<dyn std::error::Error>> {
    let series = io::read_series(&a.input)?;
    let threads = a.threads.map_or_else(
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        |t| t.max(1),
    );
    let pool = WorkerPool::new();
    let mp =
        stomp_parallel_in(series.values(), a.length, default_exclusion(a.length), threads, &pool)?;
    println!("series: {} ({} points), window {}", a.input, series.len(), a.length);
    println!("data |{}|", sparkline(series.values(), 72));
    println!("MP   |{}|\n", sparkline(&mp.values, 72));
    println!("top-{} motif pairs:", a.k);
    print_pairs_table(&top_k_pairs(&mp, a.k));
    println!("\ntop-{} discords:", a.k);
    for (rank, (offset, d)) in top_k_discords(&mp, a.k).iter().enumerate() {
        println!("{:>4} offset {:>10} distance {:>12.4}", rank + 1, offset, d);
    }
    write_obs_outputs(a.metrics.as_deref(), a.trace_out.as_deref())?;
    Ok(())
}

fn cmd_generate(a: &GenerateArgs) -> Result<(), Box<dyn std::error::Error>> {
    let values = match a.kind.as_str() {
        "ecg" => gen::ecg(a.n, &gen::EcgConfig::default(), a.seed),
        "astro" => gen::astro(a.n, &gen::AstroConfig::default(), a.seed),
        "walk" => gen::random_walk(a.n, a.seed),
        "seismic" => gen::seismic(a.n, &gen::SeismicConfig::default(), a.seed),
        "epg" => gen::epg(a.n, &gen::EpgConfig::default(), a.seed),
        "noise" => gen::white_noise(a.n, a.seed, 1.0),
        other => unreachable!("parser rejects kind {other:?}"),
    };
    io::write_series(&a.output, &values)?;
    println!("wrote {} points of {} (seed {}) to {}", values.len(), a.kind, a.seed, a.output);
    Ok(())
}

/// Mutable state of one `valmod stream` session: the warmup/engine state
/// machine ([`valmod_stream::SessionCore`]) plus the NDJSON cadence, the
/// durability layer, and the resume fast-forward.
struct StreamSession {
    core: valmod_stream::SessionCore,
    l_min: usize,
    l_max: usize,
    every: usize,
    since_poll: usize,
    /// Cadence of the `metrics` NDJSON event (0 = off).
    metrics_every: usize,
    since_metrics: usize,
    line_values: Vec<f64>,
    /// Durability: checkpoints + per-sample journal (absent without
    /// `--checkpoint-dir`).
    store: Option<valmod_stream::CheckpointStore>,
    checkpoint_every: usize,
    since_checkpoint: usize,
}

impl StreamSession {
    /// Feeds one complete input line: tokenize, bootstrap or append each
    /// value, emit due NDJSON events.
    fn feed_line(
        &mut self,
        line: &str,
        line_no: usize,
        out: &mut impl Write,
    ) -> Result<(), Box<dyn std::error::Error>> {
        self.line_values.clear();
        // The same tokenizer `run`/`profile` read files with, so every
        // subcommand accepts the exact same format.
        let mut line_values = std::mem::take(&mut self.line_values);
        valmod_series::io::parse_series_line(line, line_no, &mut line_values)?;
        for &value in &line_values {
            self.feed_value(value, line_no, out)?;
        }
        self.line_values = line_values;
        Ok(())
    }

    fn feed_value(
        &mut self,
        value: f64,
        line_no: usize,
        out: &mut impl Write,
    ) -> Result<(), Box<dyn std::error::Error>> {
        let outcome = match self.core.feed(value) {
            Ok(outcome) => outcome,
            // A full bounded buffer is back-pressure, not a skippable
            // sample: emit what we know, then fail loudly instead of
            // silently dropping the rest of the feed.
            Err(e) => {
                let skipped = self.core.skipped();
                return match self.core.engine_mut() {
                    Some(engine) => {
                        let n = engine.len();
                        for delta in engine.poll_deltas() {
                            writeln!(out, "{}", valmod_stream::update_line(n, &delta))?;
                        }
                        writeln!(
                            out,
                            "{}",
                            valmod_stream::summary_line(
                                n,
                                skipped,
                                summary_io(),
                                engine.valmap().best_entry(),
                            )
                        )?;
                        out.flush()?;
                        Err(format!("stream stopped at line {line_no} after {n} points: {e}")
                            .into())
                    }
                    None => Err(e.into()),
                };
            }
        };
        match outcome {
            // The resume fast-forward consumed a re-read prefix sample
            // the recovered engine already holds.
            valmod_stream::FeedOutcome::Replayed => {}
            valmod_stream::FeedOutcome::Buffered => {}
            valmod_stream::FeedOutcome::Skipped { warn } => {
                // A bad sample is skippable; the feed goes on — but at
                // sensor rates a broken feed must not drown stderr, so
                // the warning is rate-limited (first 10, then every
                // 1000th) while the count keeps exact.
                if warn {
                    eprintln!(
                        "skipping non-finite point on line {line_no} ({} skipped so far)",
                        self.core.skipped()
                    );
                }
            }
            valmod_stream::FeedOutcome::Bootstrapped => {
                let engine = self.core.engine().expect("just bootstrapped");
                let n = engine.len();
                writeln!(
                    out,
                    "{}",
                    valmod_stream::bootstrap_line(n, self.l_min, self.l_max, n - self.l_min + 1)
                )?;
                out.flush()?;
                // Generation 0 captures the bootstrap, so the journal
                // always has a checkpoint to replay onto.
                self.checkpoint_now(out)?;
            }
            valmod_stream::FeedOutcome::Appended => {
                if let Some(store) = &mut self.store {
                    store.journal_sample(value)?;
                }
                self.since_checkpoint += 1;
                if self.store.is_some() && self.since_checkpoint >= self.checkpoint_every {
                    self.since_checkpoint = 0;
                    self.checkpoint_now(out)?;
                }
                self.since_poll += 1;
                if self.since_poll >= self.every {
                    self.since_poll = 0;
                    let engine = self.core.engine_mut().expect("appended to a live engine");
                    let n = engine.len();
                    for delta in engine.poll_deltas() {
                        writeln!(out, "{}", valmod_stream::update_line(n, &delta))?;
                    }
                    out.flush()?;
                    // The journal durability batch boundary rides the
                    // emission cadence: what a consumer has seen, a
                    // restart can reconstruct.
                    if let Some(store) = &mut self.store {
                        store.sync_journal()?;
                    }
                }
                if self.metrics_every > 0 {
                    self.since_metrics += 1;
                    if self.since_metrics >= self.metrics_every {
                        self.since_metrics = 0;
                        let n = self.core.engine().expect("appended to a live engine").len();
                        writeln!(out, "{}", obs::metrics_line(n))?;
                        out.flush()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Writes a checkpoint generation (if durability is on) and emits
    /// its NDJSON event.
    fn checkpoint_now(&mut self, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
        let Some(store) = &mut self.store else { return Ok(()) };
        let engine = self.core.engine().expect("checkpointing requires a live engine");
        let generation = store.checkpoint(engine)?;
        writeln!(out, "{}", valmod_stream::checkpoint_line(engine.len(), generation))?;
        out.flush()?;
        Ok(())
    }

    /// Emits the pending deltas plus the closing summary line.
    fn finish(&mut self, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
        if !self.core.is_live() {
            return Err(format!(
                "stream ended after {} points, before the {}-point bootstrap",
                self.core.buffered(),
                self.core.warmup()
            )
            .into());
        }
        if let Some(store) = &mut self.store {
            store.sync_journal()?;
        }
        let skipped = self.core.skipped();
        let engine = self.core.engine_mut().expect("live");
        let n = engine.len();
        for delta in engine.poll_deltas() {
            writeln!(out, "{}", valmod_stream::update_line(n, &delta))?;
        }
        // Under the anytime tier, certify the session at end-of-stream:
        // the batch-grade snapshot streams one `preview` event per round
        // (convergence, churn) before settling to the exact answer.
        if matches!(engine.config().quality, valmod_core::Quality::Anytime { .. }) {
            let mut lines = Vec::new();
            engine.snapshot_with_preview(&mut |p| {
                lines.push(valmod_stream::preview_line(n, p));
            })?;
            for line in lines {
                writeln!(out, "{line}")?;
            }
        }
        if self.metrics_every > 0 {
            // A final metrics event so a consumer always sees the
            // end-of-session state, whatever the cadence remainder.
            writeln!(out, "{}", obs::metrics_line(n))?;
        }
        writeln!(
            out,
            "{}",
            valmod_stream::summary_line(n, skipped, summary_io(), engine.valmap().best_entry())
        )?;
        out.flush()?;
        Ok(())
    }

    /// The summary line for an interrupted stream (closed output).
    fn summary_text(&mut self) -> Option<String> {
        let skipped = self.core.skipped();
        self.core.engine_mut().map(|e| {
            valmod_stream::summary_line(e.len(), skipped, summary_io(), e.valmap().best_entry())
        })
    }
}

/// Read-error kinds worth retrying: the feed is momentarily unready, not
/// gone.
fn is_transient_read(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Bounded retries before a transient read error is treated as
/// persistent (with exponential backoff, the window is ~64× the cap).
const MAX_READ_RETRIES: u32 = 64;

/// `read_line` with bounded retry + exponential backoff for transient
/// errors (`Interrupted`/`WouldBlock`/`TimedOut`): 1 ms doubling up to
/// `cap_ms` (the `--poll-ms` scale — a reader that polls its feed every
/// `cap_ms` has no reason to spin faster on a hiccup). Only persistent
/// errors propagate. Bytes read before a mid-line hiccup stay in `buf`,
/// so a retried line is never parsed in halves.
fn read_line_retry(
    reader: &mut dyn BufRead,
    buf: &mut String,
    cap_ms: u64,
) -> std::io::Result<usize> {
    let cap = std::time::Duration::from_millis(cap_ms.max(1));
    let mut delay = std::time::Duration::from_millis(1).min(cap);
    let mut attempts = 0u32;
    loop {
        match reader.read_line(buf) {
            Ok(n) => return Ok(n),
            Err(e) if is_transient_read(e.kind()) && attempts < MAX_READ_RETRIES => {
                attempts += 1;
                obs::count!(stream_read_retries, 1);
                obs::metrics()
                    .stream_max_backoff_ms
                    .record_max(i64::try_from(delay.as_millis()).unwrap_or(i64::MAX));
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2).min(cap);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Whether an error chain bottoms out in a broken pipe (the NDJSON
/// consumer closed our stdout).
fn is_broken_pipe(err: &(dyn std::error::Error + 'static)) -> bool {
    let mut cur = Some(err);
    while let Some(e) = cur {
        if let Some(io_err) = e.downcast_ref::<std::io::Error>() {
            if io_err.kind() == std::io::ErrorKind::BrokenPipe {
                return true;
            }
        }
        cur = e.source();
    }
    false
}

/// `valmod stream`: tail a file or stdin, bootstrap the incremental
/// engine on the first points, then append each subsequent point and
/// emit the VALMAP entries that changed as NDJSON on stdout.
///
/// Non-finite points from the feed are reported on stderr and skipped —
/// the engine's `try_append` contract means a bad sample can never kill
/// the stream or corrupt the profiles. With `--follow`, end-of-file
/// parks the reader (sleep-retry) instead of finishing, so a live feed
/// that pauses keeps the service alive; a closed output (SIGPIPE /
/// broken pipe) ends the run cleanly with the summary on stderr.
fn cmd_stream(a: &StreamArgs) -> Result<(), Box<dyn std::error::Error>> {
    let mut query = Query::new(a.l_min, a.l_max)
        .k(a.k)
        .profile_size(a.p)
        .quality(a.quality)
        .seed(a.seed)
        .pool(Arc::new(WorkerPool::new()));
    if let Some(threads) = a.threads {
        query = query.threads(threads);
    }
    let config = query.into_config();
    // The warmup floor and the capacity-vs-warmup check live in
    // SessionCore (shared with the serve daemon's tenants); only the
    // resumed path needs the effective target separately.
    let warmup = valmod_stream::SessionCore::effective_warmup(&config, a.warmup);

    let from_stdin = a.input == "-";
    // The failpoint wrapper is a single relaxed atomic load per read
    // when nothing is armed; armed (tests only), it injects the
    // transient/persistent read errors the retry loop is built for.
    let mut reader: Box<dyn BufRead> = if from_stdin {
        Box::new(BufReader::new(valmod_series::faults::ChaosRead::new(
            "stream.read",
            std::io::stdin(),
        )))
    } else {
        Box::new(BufReader::new(valmod_series::faults::ChaosRead::new(
            "stream.read",
            std::fs::File::open(&a.input)?,
        )))
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());

    // Durability: open the store, then recover (--resume) or refuse to
    // clobber a previous session's state.
    let mut store =
        a.checkpoint_dir.as_ref().map(valmod_stream::CheckpointStore::open).transpose()?;
    let mut recovered: Option<valmod_stream::Recovery> = None;
    if let Some(store) = &mut store {
        if a.resume {
            recovered = store.recover(&config)?;
        } else if store.has_state() {
            return Err(format!(
                "checkpoint directory {:?} already holds session state; pass --resume to \
                 recover it, or point --checkpoint-dir at an empty directory",
                store.dir().display()
            )
            .into());
        }
    }
    let mut fast_forward = 0u64;
    let mut recovered_event = None;
    let mut core = match recovered {
        Some(rec) => {
            let ckpt_cap = rec.engine.buffer().capacity();
            if a.capacity.is_some() && a.capacity != ckpt_cap {
                return Err(format!(
                    "checkpoint was written with capacity {:?}, which conflicts with \
                     --capacity {:?}",
                    ckpt_cap, a.capacity
                )
                .into());
            }
            recovered_event = Some(valmod_stream::recovered_line(
                rec.engine.len(),
                rec.generation,
                rec.replayed,
                rec.fell_back,
            ));
            // A file input replays from its start: silently skip the
            // prefix the recovered engine already holds. Stdin cannot
            // seek back — new samples append directly.
            if !from_stdin {
                fast_forward = rec.engine.len() as u64;
            }
            valmod_stream::SessionCore::resumed(rec.engine, warmup)
        }
        None => valmod_stream::SessionCore::with_options(config, a.warmup, a.capacity)?,
    };
    core.set_fast_forward(fast_forward);

    let mut session = StreamSession {
        core,
        l_min: a.l_min,
        l_max: a.l_max,
        every: a.every,
        since_poll: 0,
        metrics_every: a.metrics_every,
        since_metrics: 0,
        line_values: Vec::new(),
        store,
        checkpoint_every: a.checkpoint_every,
        since_checkpoint: 0,
    };
    if let Some(line) = recovered_event {
        writeln!(out, "{line}")?;
        out.flush()?;
        // Seal the recovered state into a fresh generation immediately:
        // from here on the session appends to a clean journal, never to
        // a possibly-torn tail.
        session.checkpoint_now(&mut out)?;
    }
    let result = stream_loop(a, &mut session, &mut reader, &mut out);
    let result = match result {
        Err(e) if is_broken_pipe(&*e) => {
            // The consumer closed our stdout mid-stream. That is a normal
            // way for a pipeline to end: report the closing summary on
            // stderr (stdout is gone) and exit cleanly. stderr may be
            // closed too — `eprintln!` would panic, so a failed write is
            // simply dropped: there is nowhere left to report to.
            if let Some(summary) = session.summary_text() {
                let _ = writeln!(std::io::stderr(), "{summary}");
            }
            Ok(())
        }
        other => other,
    };
    let _ = out.flush();
    drop(out);
    // The end-of-session dumps go to their own paths, so they are written
    // even when the NDJSON consumer hung up; with nothing left to report
    // to after an error, a failed dump is dropped rather than masking it.
    match result {
        Ok(()) => write_obs_outputs(a.metrics.as_deref(), a.trace_out.as_deref()),
        Err(e) => {
            let _ = write_obs_outputs(a.metrics.as_deref(), a.trace_out.as_deref());
            Err(e)
        }
    }
}

/// `valmod serve` — the multi-tenant streaming daemon. Binds the
/// requested socket, prints a `serving` NDJSON line with the actual
/// address (port 0 resolves to a free port), then blocks until a client
/// issues the `shutdown` protocol command; shutdown checkpoints every
/// tenant before the accept loop drains. The exit-time `--metrics` dump
/// carries the per-tenant label dimension.
fn cmd_serve(a: &ServeArgs) -> Result<(), Box<dyn std::error::Error>> {
    let mut query = Query::new(a.l_min, a.l_max).k(a.k).profile_size(a.p);
    if let Some(threads) = a.threads {
        query = query.threads(threads);
    }
    let config = query.into_config();
    let policy = valmod_stream::TenantPolicy {
        warmup: a.warmup,
        capacity: a.capacity,
        mem_budget: a.mem_budget,
        lane_depth: a.lane_depth,
        checkpoint_root: a.checkpoint_dir.as_ref().map(std::path::PathBuf::from),
        checkpoint_every: a.checkpoint_every,
    };
    let bind = match (&a.unix, &a.bind) {
        (Some(path), _) => valmod_serve::Bind::Unix(path.into()),
        (None, Some(addr)) => valmod_serve::Bind::Tcp(addr.clone()),
        (None, None) => valmod_serve::Bind::Tcp("127.0.0.1:0".into()),
    };
    let handle = valmod_serve::serve(&bind, Arc::new(WorkerPool::new()), config, policy)?;
    {
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "{{\"event\":\"serving\",\"addr\":\"{}\"}}", handle.local_addr())?;
        stdout.flush()?;
    }
    handle.join();
    // After join the daemon has fully drained; the metrics registry
    // still holds every tenant's final values.
    write_obs_outputs(a.metrics.as_deref(), None)?;
    println!("{{\"event\":\"stopped\"}}");
    Ok(())
}

/// The read loop behind [`cmd_stream`]: line-at-a-time with explicit
/// end-of-file handling.
///
/// * Without `--follow`, end-of-file finishes the stream — including a
///   final line missing its trailing newline, whose samples are fed
///   before the summary (nothing is silently dropped).
/// * With `--follow`, end-of-file on a *file* parks for `--poll-ms` and
///   retries (`tail -f` semantics); a partial trailing line stays
///   buffered until its newline arrives, so a sample split across writes
///   is never parsed in halves. End-of-file on stdin is final even under
///   `--follow` — a closed pipe can never produce more data.
/// * Transient read errors ([`is_transient_read`]) are retried with
///   bounded exponential backoff ([`read_line_retry`]) instead of
///   killing the session; only persistent errors are fatal.
fn stream_loop(
    a: &StreamArgs,
    session: &mut StreamSession,
    reader: &mut dyn BufRead,
    out: &mut impl Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let follow_retries = a.follow && a.input != "-";
    let mut buf = String::new();
    let mut line_no = 0usize;
    loop {
        let n = read_line_retry(reader, &mut buf, a.poll_ms)?;
        if n == 0 {
            if follow_retries {
                std::thread::sleep(std::time::Duration::from_millis(a.poll_ms));
                continue;
            }
            // Final EOF: a trailing line without '\n' still counts.
            if !buf.is_empty() {
                line_no += 1;
                session.feed_line(&buf, line_no, out)?;
            }
            break;
        }
        if buf.ends_with('\n') {
            line_no += 1;
            session.feed_line(&buf, line_no, out)?;
            buf.clear();
        }
        // No newline yet: mid-line EOF. The next read_line call appends
        // the rest of the line to `buf`.
    }
    session.finish(out)
}

fn cmd_motif_set(a: &MotifSetArgs) -> Result<(), Box<dyn std::error::Error>> {
    let series = io::read_series(&a.input)?;
    let d = valmod_series::znorm::zdist(
        series.subsequence(a.a, a.length)?,
        series.subsequence(a.b, a.length)?,
    );
    let pair = MotifPair::new(a.a, a.b, d, a.length);
    let set = expand_motif_set(series.values(), &pair, a.radius, default_exclusion(a.length))?;
    println!(
        "motif set of pair ({}, {}) at length {} — radius {:.4}: {} occurrences",
        a.a,
        a.b,
        a.length,
        set.radius,
        set.len()
    );
    for o in &set.occurrences {
        println!("  offset {:>10} distance {:>12.4}", o.offset, o.distance);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{is_transient_read, read_line_retry, MAX_READ_RETRIES};
    use std::io::{BufReader, ErrorKind};
    use valmod_series::faults::{self, ChaosRead, FaultKind, FaultPlan};

    const SITE: &str = "cli.test.read";

    fn plan(times: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan { site: Some(SITE.into()), after: 0, times, kind }
    }

    #[test]
    fn transient_read_errors_retry_until_data_arrives() {
        let mut reader = BufReader::new(ChaosRead::new(SITE, &b"1.5\n2.5\n"[..]));
        let _g = faults::arm(plan(3, FaultKind::Err(ErrorKind::WouldBlock)));
        let mut buf = String::new();
        assert_eq!(read_line_retry(&mut reader, &mut buf, 2).unwrap(), 4);
        assert_eq!(buf, "1.5\n");
        // The fault window has passed: the next line reads clean.
        buf.clear();
        assert_eq!(read_line_retry(&mut reader, &mut buf, 2).unwrap(), 4);
        assert_eq!(buf, "2.5\n");
    }

    #[test]
    fn persistent_transient_errors_exhaust_the_retry_budget() {
        let mut reader = BufReader::new(ChaosRead::new(SITE, &b"1.5\n"[..]));
        let g = faults::arm(plan(u64::MAX, FaultKind::Err(ErrorKind::TimedOut)));
        let mut buf = String::new();
        let err = read_line_retry(&mut reader, &mut buf, 1).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(buf.is_empty());
        // Bounded: exactly the budget plus the final failing attempt.
        assert_eq!(g.hits(), u64::from(MAX_READ_RETRIES) + 1);
    }

    #[test]
    fn non_transient_errors_fail_immediately() {
        let mut reader = BufReader::new(ChaosRead::new(SITE, &b"1.5\n"[..]));
        let g = faults::arm(plan(u64::MAX, FaultKind::Err(ErrorKind::NotFound)));
        let mut buf = String::new();
        let err = read_line_retry(&mut reader, &mut buf, 1).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        assert_eq!(g.hits(), 1, "no retry for a persistent error");
        assert!(!is_transient_read(ErrorKind::NotFound));
    }
}
