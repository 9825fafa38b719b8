//! `valbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). The line before it is the run record: commit, CPU
//! count, worker threads, SIMD level, input fingerprint, sample counts.
//!
//! `--scale small` runs a reduced copy of the workload (the harness's own
//! self-check); `--fingerprints` prints the input fingerprints of seeds
//! 1 to 20 for the table in `inputs.rs`.

use std::path::PathBuf;
use std::process::ExitCode;

use valbench::inputs::{self, Scale, Workload, CANARY_SEED, THREADS};
use valbench::stats::Summary;
use valbench::{
    json, layer_metrics, prepare_work, reset_peak_heap, run_pass, trace, Metric, Options, Pass,
    Tally,
};

/// Environment knobs that change kernel dispatch or inject I/O faults:
/// a run under any of them would not be comparable.
const REFUSED_ENV: [&str; 3] = ["VALMOD_FORCE_PORTABLE", "VALMOD_FORCE_WIDTH", "VALMOD_FAULT"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, None, None, false, Scale::Full);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    other => return Err(format!("--scale takes full or small, not {other:?}")),
                }
            }
            "--fingerprints" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        scale,
    }))
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(m.name),
                json::num(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn values_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}:{}", json::string(m.name), json::num(m.value)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn samples_json(pass: &Pass) -> String {
    let body: Vec<String> = pass
        .samples
        .iter()
        .map(|(name, v)| {
            format!(
                "{}:[{}]",
                json::string(name),
                v.iter().map(|x| json::num(*x)).collect::<Vec<_>>().join(",")
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn latencies_json(pass: &Pass) -> String {
    let body: Vec<String> = pass
        .latencies
        .iter()
        .map(|(name, v)| {
            format!(
                "{}:{}",
                json::string(name),
                Summary::of(v).map_or_else(|| "null".into(), |s| s.to_json())
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            for w in Workload::ALL {
                for seed in 1..=20 {
                    let fp = inputs::fingerprint(&inputs::inputs(w, Scale::Full, seed));
                    println!("    (\"{}\", {seed}, 0x{fp:016x}),", w.name());
                }
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("valbench: {e}");
            eprintln!("usage: valbench --workload <batch-narrow|batch-wide|serve-tcp> --seed <n> --seconds <s> --trace <0|1> [--scale small]");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("valbench: refusing to run with {var} set: it changes kernel dispatch or injects I/O faults");
        return ExitCode::from(2);
    }

    // Inputs: generated from the seed, fingerprinted, and checked against
    // the recorded fingerprints (the run's seed if recorded, and always
    // the canary seed).
    let generated = inputs::inputs(args.workload, args.scale, args.seed);
    let fingerprint = inputs::fingerprint(&generated);
    let canary = inputs::recorded(args.workload, CANARY_SEED).map(|fp| {
        (fp, inputs::fingerprint(&inputs::inputs(args.workload, Scale::Full, CANARY_SEED)))
    });
    let own =
        if args.scale == Scale::Full { inputs::recorded(args.workload, args.seed) } else { None };
    for (expected, actual, what) in
        [canary.map(|(e, a)| (e, a, "canary seed")), own.map(|e| (e, fingerprint, "run seed"))]
            .into_iter()
            .flatten()
    {
        if expected != actual {
            eprintln!(
                "valbench: the {what} inputs of {} changed (fingerprint 0x{actual:016x}, recorded 0x{expected:016x}); \
                 the generators no longer produce the benchmark's inputs",
                args.workload.name()
            );
            return ExitCode::from(3);
        }
    }

    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = prepare_work(&work) {
        eprintln!("valbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let options = Options {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        work: work.clone(),
    };
    let mut tally = Tally::default();
    let mut extra: Vec<(String, String)> = Vec::new();
    let (pass, metrics) = if args.trace {
        // The untraced pass `--trace 0` makes, then the same pass traced,
        // each on the full budget, so the two passes' medians differ by
        // the tracing overhead (and the run-to-run noise); then the
        // per-layer measurements. The heap peak restarts between passes.
        let plain = run_pass(&options, &generated, &mut tally).e2e;
        reset_peak_heap();
        trace::enable();
        let traced = run_pass(&options, &generated, &mut tally);
        let layers = layer_metrics(&options, &traced, &mut tally, &mut extra);
        trace::disable();
        let spans = trace::take();
        let trace_path = PathBuf::from(".bench_work").join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::write(&trace_path, trace::chrome_json(&spans)) {
            tally.record::<()>(Err(format!("writing the trace: {e}")));
        }
        let overhead: Vec<Metric> = plain
            .iter()
            .zip(&traced.e2e)
            .map(|(u, t)| Metric { name: u.name, unit: "ratio", value: t.value / u.value - 1.0 })
            .collect();
        extra.push(("untraced".into(), values_json(&plain)));
        extra.push(("traced".into(), values_json(&traced.e2e)));
        extra.push(("tracing_overhead".into(), values_json(&overhead)));
        extra.push(("spans".into(), spans.len().to_string()));
        extra.push(("trace_file".into(), json::string(&trace_path.display().to_string())));
        (traced, layers)
    } else {
        let pass = run_pass(&options, &generated, &mut tally);
        let e2e = pass.e2e.clone();
        (pass, e2e)
    };
    let _ = std::fs::remove_dir_all(&work);

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fp_status = match own {
        Some(_) => "recorded",
        None => "unrecorded",
    };
    let mut record = format!(
        "{{\"run\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"scale\":\"{:?}\",\"commit\":{},\"nproc\":{nproc},\
         \"threads\":{THREADS},\"simd\":\"{:?}\",\"fingerprint\":\"0x{fingerprint:016x}\",\"fingerprint_status\":\"{fp_status}\",\
         \"rounds\":{},\"vm_hwm_mb\":{},\"samples\":{},\"latency\":{},\"end_to_end\":{},\"errors\":[{}]",
        json::string(args.workload.name()),
        args.seed,
        args.seconds,
        args.scale,
        json::string(&commit()),
        valmod_fft::simd::simd_level(),
        pass.rounds,
        json::num(valbench::peak_rss_mb()),
        samples_json(&pass),
        latencies_json(&pass),
        values_json(&pass.e2e),
        tally.errors.iter().map(|e| json::string(e)).collect::<Vec<_>>().join(","),
    );
    for (k, v) in &extra {
        record.push_str(&format!(",{}:{v}", json::string(k)));
    }
    record.push_str("}}");
    println!("{record}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
