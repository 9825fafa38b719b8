//! Hand-rolled argument parsing (no external dependencies), structured so
//! the parser is unit-testable apart from `main`.

use std::fmt;

use valmod_core::{parse_quality, Quality};

/// Parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run VALMOD over a series file and report VALMAP + motifs.
    Run(RunArgs),
    /// Compute a fixed-length matrix profile and report motifs/discords.
    Profile(ProfileArgs),
    /// Generate a synthetic dataset to a file.
    Generate(GenerateArgs),
    /// Expand a motif pair into its motif set.
    MotifSet(MotifSetArgs),
    /// Tail a file or stdin and emit VALMAP deltas as NDJSON.
    Stream(StreamArgs),
    /// Run the multi-tenant streaming daemon.
    Serve(ServeArgs),
    /// Print usage.
    Help,
}

/// Arguments of `valmod run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Input series file.
    pub input: String,
    /// Minimum subsequence length.
    pub l_min: usize,
    /// Maximum subsequence length.
    pub l_max: usize,
    /// Motif pairs per length.
    pub k: usize,
    /// Partial-profile size `p`.
    pub p: usize,
    /// Worker threads (defaults to the hardware parallelism).
    pub threads: Option<usize>,
    /// Optional path for a VALMAP JSON dump.
    pub valmap_out: Option<String>,
    /// Quality tier: `exact` (default), `anytime[:budget]` (improving
    /// previews settling to the exact result), or `screen` (lower-bound
    /// ranking only).
    pub quality: Quality,
    /// Seed of the anytime tier's diagonal visiting order.
    pub seed: u64,
    /// Optional path for the end-of-run Prometheus-style metrics dump
    /// (`-` for stdout).
    pub metrics: Option<String>,
    /// Optional path for the Chrome trace-event JSON dump.
    pub trace_out: Option<String>,
}

/// Arguments of `valmod profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArgs {
    /// Input series file.
    pub input: String,
    /// Subsequence length.
    pub length: usize,
    /// Motif pairs to report.
    pub k: usize,
    /// Worker threads (defaults to the hardware parallelism).
    pub threads: Option<usize>,
    /// Optional path for the end-of-run Prometheus-style metrics dump
    /// (`-` for stdout).
    pub metrics: Option<String>,
    /// Optional path for the Chrome trace-event JSON dump.
    pub trace_out: Option<String>,
}

/// Arguments of `valmod generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Dataset kind: `ecg`, `astro`, `walk`, or `noise`.
    pub kind: String,
    /// Number of points.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output file.
    pub output: String,
}

/// Arguments of `valmod motif-set`.
#[derive(Debug, Clone, PartialEq)]
pub struct MotifSetArgs {
    /// Input series file.
    pub input: String,
    /// Left member offset.
    pub a: usize,
    /// Right member offset.
    pub b: usize,
    /// Subsequence length.
    pub length: usize,
    /// Expansion radius (defaults to 2× the pair distance).
    pub radius: Option<f64>,
}

/// Arguments of `valmod stream`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamArgs {
    /// Input series file, or `-` for stdin.
    pub input: String,
    /// Minimum subsequence length.
    pub l_min: usize,
    /// Maximum subsequence length.
    pub l_max: usize,
    /// Motif pairs per length.
    pub k: usize,
    /// Partial-profile size `p` (used by the batch-grade snapshot).
    pub p: usize,
    /// Worker threads (defaults to the hardware parallelism).
    pub threads: Option<usize>,
    /// Points consumed before the engine bootstraps (defaults to the
    /// minimum the length range requires).
    pub warmup: Option<usize>,
    /// Emit deltas every N appended points.
    pub every: usize,
    /// Fixed storage capacity in points (unbounded when absent).
    pub capacity: Option<usize>,
    /// Keep waiting for more input at end-of-file (`tail -f` semantics)
    /// instead of finishing — a paused live feed no longer ends the run.
    pub follow: bool,
    /// Sleep between end-of-file re-reads under `--follow`, milliseconds.
    pub poll_ms: u64,
    /// Directory for crash-safe checkpoints + sample journal (durability
    /// off when absent).
    pub checkpoint_dir: Option<String>,
    /// Appended samples between checkpoint generations.
    pub checkpoint_every: usize,
    /// Recover from the newest valid checkpoint (+ journal replay) in
    /// `--checkpoint-dir` before consuming input.
    pub resume: bool,
    /// Quality tier of the batch-grade snapshot taken at end-of-stream
    /// (`anytime` additionally emits per-round `preview` events).
    pub quality: Quality,
    /// Seed of the anytime tier's diagonal visiting order.
    pub seed: u64,
    /// Emit a `metrics` NDJSON event every N appended points (0 = off).
    pub metrics_every: usize,
    /// Optional path for the end-of-session Prometheus-style metrics dump
    /// (`-` for stdout; NDJSON keeps stdout, so `-` interleaves).
    pub metrics: Option<String>,
    /// Optional path for the Chrome trace-event JSON dump.
    pub trace_out: Option<String>,
}

/// Arguments of `valmod serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// TCP bind address (`host:port`; port 0 picks a free port, which the
    /// `serving` NDJSON line reports). Mutually exclusive with `unix`.
    pub bind: Option<String>,
    /// Unix domain socket path. Mutually exclusive with `bind`.
    pub unix: Option<String>,
    /// Minimum subsequence length.
    pub l_min: usize,
    /// Maximum subsequence length.
    pub l_max: usize,
    /// Motif pairs per length.
    pub k: usize,
    /// Partial-profile size `p`.
    pub p: usize,
    /// Worker threads of the one shared pool (defaults to the hardware
    /// parallelism).
    pub threads: Option<usize>,
    /// Per-tenant warmup target (defaults to the minimum the length
    /// range requires).
    pub warmup: Option<usize>,
    /// Per-tenant storage capacity in points (unbounded when absent).
    pub capacity: Option<usize>,
    /// Global memory budget across all tenants, bytes (unbounded when
    /// absent).
    pub mem_budget: Option<u64>,
    /// Per-tenant lane depth (queued operations before backpressure).
    pub lane_depth: usize,
    /// Durability root; each tenant checkpoints under
    /// `DIR/tenants/<name>/` (durability off when absent).
    pub checkpoint_dir: Option<String>,
    /// Accepted samples between a tenant's periodic checkpoints
    /// (staggered across tenants; 0 = checkpoint only at bootstrap and
    /// shutdown).
    pub checkpoint_every: u64,
    /// Optional path for the exit-time tenant-labeled Prometheus dump
    /// (`-` for stdout).
    pub metrics: Option<String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text shared by `--help` and parse errors.
pub const USAGE: &str = "\
valmod — variable-length motif discovery (VALMOD, SIGMOD 2018)

USAGE:
  valmod run --input FILE --lmin N --lmax N [--k N] [--p N] [--threads N]
             [--quality exact|anytime[:N]|screen] [--seed N]
             [--valmap-out FILE] [--metrics PATH|-] [--trace-out FILE]
  valmod profile --input FILE --length N [--k N] [--threads N] [--quality exact]
                 [--metrics PATH|-] [--trace-out FILE]
  valmod generate --kind ecg|astro|walk|noise|seismic|epg --n N [--seed N] --output FILE
  valmod motif-set --input FILE --a N --b N --length N [--radius X]
  valmod stream --input FILE|- --lmin N --lmax N [--k N] [--p N] [--threads N]
                [--warmup N] [--every N] [--capacity N] [--follow] [--poll-ms N]
                [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
                [--quality exact|anytime[:N]] [--seed N]
                [--metrics-every N] [--metrics PATH|-] [--trace-out FILE]
  valmod serve --lmin N --lmax N [--bind HOST:PORT | --unix PATH] [--k N] [--p N]
               [--threads N] [--warmup N] [--capacity N] [--mem-budget BYTES]
               [--lane-depth N] [--checkpoint-dir DIR] [--checkpoint-every N]
               [--metrics PATH|-]
  valmod help

`--quality` picks the answer tier. `exact` (the default) is the eager
VALMOD run. `anytime[:BUDGET]` walks stage 1 in a seeded shuffled order
(`--seed`) over BUDGET rounds (default 4), emitting one NDJSON `preview`
event per round (convergence = fraction of cells retired, VALMAP churn)
before settling to the byte-identical exact result. `screen` ranks
candidate lengths and offsets by the admissible lower bound without
exact recomputation — a cheap pre-pass whose bounds never exceed the
true distances. On `stream`, the tier shapes the end-of-stream
batch-grade snapshot (`anytime` emits its preview events on the delta
channel).

`--metrics` writes an end-of-run Prometheus-style text dump of every
engine counter/gauge/histogram to PATH (`-` for stdout); `--trace-out`
writes the recorded spans as Chrome trace-event JSON, loadable in
chrome://tracing or Perfetto. On `stream`, `--metrics-every N`
additionally emits a `{\"event\":\"metrics\",...}` NDJSON line every N
appended points on the delta channel.

`stream` tails the input (use `-` for stdin), bootstraps on the first
points, then appends each subsequent point incrementally and emits the
VALMAP entries that changed as NDJSON, one JSON object per line. With
`--follow` it keeps waiting at end-of-file (sleep-retry, `--poll-ms`
between attempts) so a paused live feed does not end the run; without it,
end-of-file finishes the stream as before. With `--checkpoint-dir` the
session is crash-safe: atomic checkpoints every `--checkpoint-every`
samples plus a per-sample journal, and `--resume` recovers the newest
valid generation (journal replayed, bit-identical state) after a crash.

`serve` hosts many independent tenant streams over one shared worker
pool behind a framed socket protocol (length-prefixed frames, NDJSON
responses): clients `open` named tenants, `append` samples, query
`valmap`/`motifs`/`discords`/`snapshot`, and `shutdown` checkpoints
every tenant before the daemon exits. Defaults to `--bind 127.0.0.1:0`
(a free port, reported on the `serving` line). Each tenant gets a fair
scheduler lane (`--lane-depth` pending operations before a typed
`saturated` error) and, with `--checkpoint-dir`, its own crash-safe
store under `DIR/tenants/<name>/` with checkpoint generations staggered
across tenants.
";

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, ParseError> {
    it.next().ok_or_else(|| ParseError(format!("flag {flag} requires a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, ParseError> {
    raw.parse().map_err(|_| ParseError(format!("cannot parse {raw:?} for {flag}")))
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// [`ParseError`] with a user-facing message for unknown commands, unknown
/// flags, missing values, or missing required flags.
pub fn parse(args: &[&str]) -> Result<Command, ParseError> {
    let Some((&cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => parse_run(rest),
        "profile" => parse_profile(rest),
        "generate" => parse_generate(rest),
        "motif-set" => parse_motif_set(rest),
        "stream" => parse_stream(rest),
        "serve" => parse_serve(rest),
        other => Err(ParseError(format!("unknown command {other:?}"))),
    }
}

fn parse_run(rest: &[&str]) -> Result<Command, ParseError> {
    let (mut input, mut l_min, mut l_max) = (None, None, None);
    let (mut k, mut p, mut threads, mut valmap_out) = (10usize, 8usize, None, None);
    let (mut quality, mut seed) = (Quality::Exact, 0u64);
    let (mut metrics, mut trace_out) = (None, None);
    let mut it = rest.iter().copied();
    while let Some(flag) = it.next() {
        match flag {
            "--input" => input = Some(take_value(flag, &mut it)?.to_string()),
            "--lmin" => l_min = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--lmax" => l_max = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--k" => k = parse_num(flag, take_value(flag, &mut it)?)?,
            "--p" => p = parse_num(flag, take_value(flag, &mut it)?)?,
            "--threads" => threads = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--quality" => {
                quality = parse_quality(take_value(flag, &mut it)?).map_err(ParseError)?
            }
            "--seed" => seed = parse_num(flag, take_value(flag, &mut it)?)?,
            "--valmap-out" => valmap_out = Some(take_value(flag, &mut it)?.to_string()),
            "--metrics" => metrics = Some(take_value(flag, &mut it)?.to_string()),
            "--trace-out" => trace_out = Some(take_value(flag, &mut it)?.to_string()),
            other => return Err(ParseError(format!("unknown flag {other:?} for run"))),
        }
    }
    Ok(Command::Run(RunArgs {
        input: input.ok_or_else(|| ParseError("run requires --input".into()))?,
        l_min: l_min.ok_or_else(|| ParseError("run requires --lmin".into()))?,
        l_max: l_max.ok_or_else(|| ParseError("run requires --lmax".into()))?,
        k,
        p,
        threads,
        valmap_out,
        quality,
        seed,
        metrics,
        trace_out,
    }))
}

fn parse_profile(rest: &[&str]) -> Result<Command, ParseError> {
    let (mut input, mut length, mut k, mut threads) = (None, None, 5usize, None);
    let (mut metrics, mut trace_out) = (None, None);
    let mut it = rest.iter().copied();
    while let Some(flag) = it.next() {
        match flag {
            "--input" => input = Some(take_value(flag, &mut it)?.to_string()),
            "--length" => length = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--k" => k = parse_num(flag, take_value(flag, &mut it)?)?,
            "--threads" => threads = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            // `profile` is a single fixed-length pass with no stage-1/2
            // split, so only the exact tier applies; the flag exists for a
            // uniform command line and rejects the other tiers loudly.
            "--quality" => {
                if parse_quality(take_value(flag, &mut it)?).map_err(ParseError)? != Quality::Exact
                {
                    return Err(ParseError(
                        "profile is exact-only; anytime/screen tiers apply to run and stream"
                            .into(),
                    ));
                }
            }
            "--metrics" => metrics = Some(take_value(flag, &mut it)?.to_string()),
            "--trace-out" => trace_out = Some(take_value(flag, &mut it)?.to_string()),
            other => return Err(ParseError(format!("unknown flag {other:?} for profile"))),
        }
    }
    Ok(Command::Profile(ProfileArgs {
        input: input.ok_or_else(|| ParseError("profile requires --input".into()))?,
        length: length.ok_or_else(|| ParseError("profile requires --length".into()))?,
        k,
        threads,
        metrics,
        trace_out,
    }))
}

fn parse_generate(rest: &[&str]) -> Result<Command, ParseError> {
    let (mut kind, mut n, mut seed, mut output) = (None, None, 42u64, None);
    let mut it = rest.iter().copied();
    while let Some(flag) = it.next() {
        match flag {
            "--kind" => kind = Some(take_value(flag, &mut it)?.to_string()),
            "--n" => n = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--seed" => seed = parse_num(flag, take_value(flag, &mut it)?)?,
            "--output" => output = Some(take_value(flag, &mut it)?.to_string()),
            other => return Err(ParseError(format!("unknown flag {other:?} for generate"))),
        }
    }
    let kind = kind.ok_or_else(|| ParseError("generate requires --kind".into()))?;
    if !matches!(kind.as_str(), "ecg" | "astro" | "walk" | "noise" | "seismic" | "epg") {
        return Err(ParseError(format!(
            "unknown dataset kind {kind:?} (expected ecg|astro|walk|noise|seismic|epg)"
        )));
    }
    Ok(Command::Generate(GenerateArgs {
        kind,
        n: n.ok_or_else(|| ParseError("generate requires --n".into()))?,
        seed,
        output: output.ok_or_else(|| ParseError("generate requires --output".into()))?,
    }))
}

fn parse_motif_set(rest: &[&str]) -> Result<Command, ParseError> {
    let (mut input, mut a, mut b, mut length, mut radius) = (None, None, None, None, None);
    let mut it = rest.iter().copied();
    while let Some(flag) = it.next() {
        match flag {
            "--input" => input = Some(take_value(flag, &mut it)?.to_string()),
            "--a" => a = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--b" => b = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--length" => length = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--radius" => radius = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            other => return Err(ParseError(format!("unknown flag {other:?} for motif-set"))),
        }
    }
    Ok(Command::MotifSet(MotifSetArgs {
        input: input.ok_or_else(|| ParseError("motif-set requires --input".into()))?,
        a: a.ok_or_else(|| ParseError("motif-set requires --a".into()))?,
        b: b.ok_or_else(|| ParseError("motif-set requires --b".into()))?,
        length: length.ok_or_else(|| ParseError("motif-set requires --length".into()))?,
        radius,
    }))
}

fn parse_stream(rest: &[&str]) -> Result<Command, ParseError> {
    let (mut input, mut l_min, mut l_max) = (None, None, None);
    let (mut k, mut p, mut threads) = (10usize, 8usize, None);
    let (mut warmup, mut every, mut capacity) = (None, 1usize, None);
    let (mut follow, mut poll_ms) = (false, 200u64);
    let (mut checkpoint_dir, mut checkpoint_every, mut resume) = (None, 256usize, false);
    let (mut quality, mut seed) = (Quality::Exact, 0u64);
    let (mut metrics_every, mut metrics, mut trace_out) = (0usize, None, None);
    let mut it = rest.iter().copied();
    while let Some(flag) = it.next() {
        match flag {
            "--input" => input = Some(take_value(flag, &mut it)?.to_string()),
            "--lmin" => l_min = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--lmax" => l_max = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--k" => k = parse_num(flag, take_value(flag, &mut it)?)?,
            "--p" => p = parse_num(flag, take_value(flag, &mut it)?)?,
            "--threads" => threads = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--warmup" => warmup = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--every" => every = parse_num(flag, take_value(flag, &mut it)?)?,
            "--capacity" => capacity = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--follow" => follow = true,
            "--poll-ms" => poll_ms = parse_num(flag, take_value(flag, &mut it)?)?,
            "--checkpoint-dir" => checkpoint_dir = Some(take_value(flag, &mut it)?.to_string()),
            "--checkpoint-every" => checkpoint_every = parse_num(flag, take_value(flag, &mut it)?)?,
            "--resume" => resume = true,
            "--quality" => {
                quality = parse_quality(take_value(flag, &mut it)?).map_err(ParseError)?
            }
            "--seed" => seed = parse_num(flag, take_value(flag, &mut it)?)?,
            "--metrics-every" => metrics_every = parse_num(flag, take_value(flag, &mut it)?)?,
            "--metrics" => metrics = Some(take_value(flag, &mut it)?.to_string()),
            "--trace-out" => trace_out = Some(take_value(flag, &mut it)?.to_string()),
            other => return Err(ParseError(format!("unknown flag {other:?} for stream"))),
        }
    }
    if every == 0 {
        return Err(ParseError("--every must be at least 1".into()));
    }
    if poll_ms == 0 {
        return Err(ParseError("--poll-ms must be at least 1".into()));
    }
    if checkpoint_every == 0 {
        return Err(ParseError("--checkpoint-every must be at least 1".into()));
    }
    if resume && checkpoint_dir.is_none() {
        return Err(ParseError("--resume requires --checkpoint-dir".into()));
    }
    if quality == Quality::Screen {
        return Err(ParseError(
            "stream snapshots are exact or anytime; the screen tier applies to run".into(),
        ));
    }
    Ok(Command::Stream(StreamArgs {
        input: input.ok_or_else(|| ParseError("stream requires --input".into()))?,
        l_min: l_min.ok_or_else(|| ParseError("stream requires --lmin".into()))?,
        l_max: l_max.ok_or_else(|| ParseError("stream requires --lmax".into()))?,
        k,
        p,
        threads,
        warmup,
        every,
        capacity,
        follow,
        poll_ms,
        checkpoint_dir,
        checkpoint_every,
        resume,
        quality,
        seed,
        metrics_every,
        metrics,
        trace_out,
    }))
}

fn parse_serve(rest: &[&str]) -> Result<Command, ParseError> {
    let (mut bind, mut unix, mut l_min, mut l_max) = (None, None, None, None);
    let (mut k, mut p, mut threads) = (10usize, 8usize, None);
    let (mut warmup, mut capacity, mut mem_budget) = (None, None, None);
    let mut lane_depth = 64usize;
    let (mut checkpoint_dir, mut checkpoint_every) = (None, 256u64);
    let mut metrics = None;
    let mut it = rest.iter().copied();
    while let Some(flag) = it.next() {
        match flag {
            "--bind" => bind = Some(take_value(flag, &mut it)?.to_string()),
            "--unix" => unix = Some(take_value(flag, &mut it)?.to_string()),
            "--lmin" => l_min = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--lmax" => l_max = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--k" => k = parse_num(flag, take_value(flag, &mut it)?)?,
            "--p" => p = parse_num(flag, take_value(flag, &mut it)?)?,
            "--threads" => threads = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--warmup" => warmup = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--capacity" => capacity = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--mem-budget" => mem_budget = Some(parse_num(flag, take_value(flag, &mut it)?)?),
            "--lane-depth" => lane_depth = parse_num(flag, take_value(flag, &mut it)?)?,
            "--checkpoint-dir" => checkpoint_dir = Some(take_value(flag, &mut it)?.to_string()),
            "--checkpoint-every" => checkpoint_every = parse_num(flag, take_value(flag, &mut it)?)?,
            "--metrics" => metrics = Some(take_value(flag, &mut it)?.to_string()),
            other => return Err(ParseError(format!("unknown flag {other:?} for serve"))),
        }
    }
    if bind.is_some() && unix.is_some() {
        return Err(ParseError("--bind and --unix are mutually exclusive".into()));
    }
    if lane_depth == 0 {
        return Err(ParseError("--lane-depth must be at least 1".into()));
    }
    Ok(Command::Serve(ServeArgs {
        bind,
        unix,
        l_min: l_min.ok_or_else(|| ParseError("serve requires --lmin".into()))?,
        l_max: l_max.ok_or_else(|| ParseError("serve requires --lmax".into()))?,
        k,
        p,
        threads,
        warmup,
        capacity,
        mem_budget,
        lane_depth,
        checkpoint_dir,
        checkpoint_every,
        metrics,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn run_with_defaults_and_overrides() {
        let cmd = parse(&["run", "--input", "x.txt", "--lmin", "50", "--lmax", "400"]).unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.input, "x.txt");
                assert_eq!((a.l_min, a.l_max, a.k, a.p), (50, 400, 10, 8));
                assert!(a.valmap_out.is_none());
                assert!(a.threads.is_none());
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "run",
            "--input",
            "x",
            "--lmin",
            "8",
            "--lmax",
            "16",
            "--k",
            "3",
            "--p",
            "4",
            "--valmap-out",
            "v.json",
        ])
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!((a.k, a.p), (3, 4));
                assert_eq!(a.valmap_out.as_deref(), Some("v.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn threads_flag_parses_on_run_and_profile() {
        let cmd = parse(&["run", "--input", "x", "--lmin", "8", "--lmax", "16", "--threads", "4"])
            .unwrap();
        match cmd {
            Command::Run(a) => assert_eq!(a.threads, Some(4)),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["profile", "--input", "x", "--length", "32", "--threads", "2"]).unwrap();
        match cmd {
            Command::Profile(a) => assert_eq!(a.threads, Some(2)),
            other => panic!("{other:?}"),
        }
        assert!(parse(&["run", "--input", "x", "--lmin", "8", "--lmax", "16", "--threads", "x"])
            .is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&["run", "--input", "x"]).is_err());
        assert!(parse(&["profile", "--length", "5"]).is_err());
        assert!(parse(&["generate", "--kind", "ecg", "--n", "10"]).is_err());
    }

    #[test]
    fn unknown_flags_and_commands_error() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["run", "--bogus", "1"]).is_err());
        assert!(parse(&["generate", "--kind", "mystery", "--n", "5", "--output", "o"]).is_err());
    }

    #[test]
    fn values_must_parse() {
        assert!(parse(&["run", "--input", "x", "--lmin", "abc", "--lmax", "5"]).is_err());
        assert!(parse(&["motif-set", "--input", "x", "--a", "-3", "--b", "5", "--length", "8"])
            .is_err());
    }

    #[test]
    fn stream_defaults_and_overrides() {
        let cmd = parse(&["stream", "--input", "-", "--lmin", "16", "--lmax", "24"]).unwrap();
        match cmd {
            Command::Stream(a) => {
                assert_eq!(a.input, "-");
                assert_eq!((a.l_min, a.l_max, a.k, a.p, a.every), (16, 24, 10, 8, 1));
                assert!(a.warmup.is_none() && a.capacity.is_none() && a.threads.is_none());
                assert!(!a.follow);
                assert_eq!(a.poll_ms, 200);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "stream",
            "--input",
            "x.txt",
            "--lmin",
            "8",
            "--lmax",
            "12",
            "--k",
            "2",
            "--warmup",
            "100",
            "--every",
            "16",
            "--capacity",
            "4096",
            "--threads",
            "2",
        ])
        .unwrap();
        match cmd {
            Command::Stream(a) => {
                assert_eq!((a.k, a.warmup, a.every), (2, Some(100), 16));
                assert_eq!((a.capacity, a.threads), (Some(4096), Some(2)));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["stream", "--input", "x", "--lmin", "8"]).is_err());
        assert!(parse(&["stream", "--input", "x", "--lmin", "8", "--lmax", "12", "--every", "0"])
            .is_err());
        assert!(parse(&["stream", "--bogus", "1"]).is_err());
    }

    #[test]
    fn stream_follow_flag_and_poll_interval() {
        let cmd = parse(&[
            "stream",
            "--input",
            "x",
            "--lmin",
            "8",
            "--lmax",
            "12",
            "--follow",
            "--poll-ms",
            "50",
        ])
        .unwrap();
        match cmd {
            Command::Stream(a) => {
                assert!(a.follow);
                assert_eq!(a.poll_ms, 50);
            }
            other => panic!("{other:?}"),
        }
        // --follow takes no value: the next token parses as its own flag.
        assert!(parse(&[
            "stream", "--input", "x", "--lmin", "8", "--lmax", "12", "--follow", "yes"
        ])
        .is_err());
        assert!(parse(&[
            "stream",
            "--input",
            "x",
            "--lmin",
            "8",
            "--lmax",
            "12",
            "--poll-ms",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn stream_checkpoint_flags() {
        let cmd = parse(&["stream", "--input", "-", "--lmin", "8", "--lmax", "12"]).unwrap();
        match cmd {
            Command::Stream(a) => {
                assert!(a.checkpoint_dir.is_none() && !a.resume);
                assert_eq!(a.checkpoint_every, 256, "durability default cadence");
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "stream",
            "--input",
            "x",
            "--lmin",
            "8",
            "--lmax",
            "12",
            "--checkpoint-dir",
            "/tmp/ckpt",
            "--checkpoint-every",
            "64",
            "--resume",
        ])
        .unwrap();
        match cmd {
            Command::Stream(a) => {
                assert_eq!(a.checkpoint_dir.as_deref(), Some("/tmp/ckpt"));
                assert_eq!(a.checkpoint_every, 64);
                assert!(a.resume);
            }
            other => panic!("{other:?}"),
        }
        // --resume without a directory to resume from is a user error.
        assert!(
            parse(&["stream", "--input", "x", "--lmin", "8", "--lmax", "12", "--resume"]).is_err()
        );
        // A zero cadence would never checkpoint.
        assert!(parse(&[
            "stream",
            "--input",
            "x",
            "--lmin",
            "8",
            "--lmax",
            "12",
            "--checkpoint-dir",
            "d",
            "--checkpoint-every",
            "0",
        ])
        .is_err());
    }

    #[test]
    fn observability_flags_parse_on_run_profile_and_stream() {
        let cmd = parse(&["run", "--input", "x", "--lmin", "8", "--lmax", "16"]).unwrap();
        match cmd {
            Command::Run(a) => assert!(a.metrics.is_none() && a.trace_out.is_none()),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "run",
            "--input",
            "x",
            "--lmin",
            "8",
            "--lmax",
            "16",
            "--metrics",
            "-",
            "--trace-out",
            "t.json",
        ])
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.metrics.as_deref(), Some("-"));
                assert_eq!(a.trace_out.as_deref(), Some("t.json"));
            }
            other => panic!("{other:?}"),
        }
        let cmd =
            parse(&["profile", "--input", "x", "--length", "32", "--metrics", "m.prom"]).unwrap();
        match cmd {
            Command::Profile(a) => {
                assert_eq!(a.metrics.as_deref(), Some("m.prom"));
                assert!(a.trace_out.is_none());
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "stream",
            "--input",
            "-",
            "--lmin",
            "8",
            "--lmax",
            "12",
            "--metrics-every",
            "64",
            "--trace-out",
            "trace.json",
        ])
        .unwrap();
        match cmd {
            Command::Stream(a) => {
                assert_eq!(a.metrics_every, 64);
                assert_eq!(a.trace_out.as_deref(), Some("trace.json"));
                assert!(a.metrics.is_none());
            }
            other => panic!("{other:?}"),
        }
        // metrics_every defaults to off (0) and the flags require values.
        let cmd = parse(&["stream", "--input", "-", "--lmin", "8", "--lmax", "12"]).unwrap();
        match cmd {
            Command::Stream(a) => assert_eq!(a.metrics_every, 0),
            other => panic!("{other:?}"),
        }
        assert!(
            parse(&["run", "--input", "x", "--lmin", "8", "--lmax", "16", "--metrics"]).is_err()
        );
    }

    #[test]
    fn serve_defaults_and_overrides() {
        let cmd = parse(&["serve", "--lmin", "16", "--lmax", "24"]).unwrap();
        match cmd {
            Command::Serve(a) => {
                assert!(a.bind.is_none() && a.unix.is_none());
                assert_eq!((a.l_min, a.l_max, a.k, a.p), (16, 24, 10, 8));
                assert_eq!(a.lane_depth, 64);
                assert_eq!(a.checkpoint_every, 256);
                assert!(a.mem_budget.is_none() && a.checkpoint_dir.is_none());
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "serve",
            "--lmin",
            "8",
            "--lmax",
            "12",
            "--bind",
            "127.0.0.1:4980",
            "--mem-budget",
            "1048576",
            "--lane-depth",
            "8",
            "--checkpoint-dir",
            "/tmp/serve",
            "--checkpoint-every",
            "64",
            "--metrics",
            "-",
        ])
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.bind.as_deref(), Some("127.0.0.1:4980"));
                assert_eq!(a.mem_budget, Some(1_048_576));
                assert_eq!((a.lane_depth, a.checkpoint_every), (8, 64));
                assert_eq!(a.checkpoint_dir.as_deref(), Some("/tmp/serve"));
                assert_eq!(a.metrics.as_deref(), Some("-"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["serve", "--lmin", "8"]).is_err());
        assert!(parse(&["serve", "--lmin", "8", "--lmax", "12", "--bind", "a:1", "--unix", "/s"])
            .is_err());
        assert!(parse(&["serve", "--lmin", "8", "--lmax", "12", "--lane-depth", "0"]).is_err());
    }

    #[test]
    fn quality_flags_parse_per_command() {
        let cmd = parse(&["run", "--input", "x", "--lmin", "8", "--lmax", "16"]).unwrap();
        match cmd {
            Command::Run(a) => assert_eq!((a.quality, a.seed), (Quality::Exact, 0)),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "run",
            "--input",
            "x",
            "--lmin",
            "8",
            "--lmax",
            "16",
            "--quality",
            "anytime:6",
            "--seed",
            "42",
        ])
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.quality, Quality::Anytime { budget: 6 });
                assert_eq!(a.seed, 42);
            }
            other => panic!("{other:?}"),
        }
        let cmd =
            parse(&["run", "--input", "x", "--lmin", "8", "--lmax", "16", "--quality", "screen"])
                .unwrap();
        match cmd {
            Command::Run(a) => assert_eq!(a.quality, Quality::Screen),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "stream",
            "--input",
            "-",
            "--lmin",
            "8",
            "--lmax",
            "12",
            "--quality",
            "anytime",
        ])
        .unwrap();
        match cmd {
            Command::Stream(a) => {
                assert_eq!(
                    a.quality,
                    Quality::Anytime { budget: valmod_core::DEFAULT_ANYTIME_BUDGET }
                );
            }
            other => panic!("{other:?}"),
        }
        // Profile accepts only the exact tier; stream has no screen tier;
        // bad tier names fail everywhere with the shared grammar.
        assert!(parse(&["profile", "--input", "x", "--length", "32", "--quality", "exact"]).is_ok());
        assert!(
            parse(&["profile", "--input", "x", "--length", "32", "--quality", "anytime"]).is_err()
        );
        assert!(parse(&[
            "stream",
            "--input",
            "-",
            "--lmin",
            "8",
            "--lmax",
            "12",
            "--quality",
            "screen"
        ])
        .is_err());
        assert!(parse(&[
            "run",
            "--input",
            "x",
            "--lmin",
            "8",
            "--lmax",
            "16",
            "--quality",
            "sloppy"
        ])
        .is_err());
        assert!(parse(&[
            "run",
            "--input",
            "x",
            "--lmin",
            "8",
            "--lmax",
            "16",
            "--quality",
            "anytime:0"
        ])
        .is_err());
    }

    #[test]
    fn motif_set_radius_is_optional() {
        let cmd = parse(&["motif-set", "--input", "x", "--a", "3", "--b", "50", "--length", "8"])
            .unwrap();
        match cmd {
            Command::MotifSet(a) => assert!(a.radius.is_none()),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "motif-set",
            "--input",
            "x",
            "--a",
            "3",
            "--b",
            "50",
            "--length",
            "8",
            "--radius",
            "1.5",
        ])
        .unwrap();
        match cmd {
            Command::MotifSet(a) => assert_eq!(a.radius, Some(1.5)),
            other => panic!("{other:?}"),
        }
    }
}
