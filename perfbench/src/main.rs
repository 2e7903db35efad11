//! Seeded benchmark of the MoSConS pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload profile|attack|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the metrics by name with their units, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Writes the run fingerprint, the report digest and, traced,
//! every span to `perfbench/results/`. Exits 1 when an output check fails
//! and 2 on bad arguments. See `perfbench/README.md` for the workloads and
//! what each metric should move.

mod calib;
mod inputs;
mod layers;
mod stats;
mod tracer;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use workloads::{Metric, Run};

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    run: Run,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "profile" | "attack" | "fleet") {
        return Err(format!(
            "unknown workload {workload} (profile, attack, fleet)"
        ));
    }
    Ok(Args {
        workload,
        run: Run {
            seed,
            seconds,
            traced,
        },
    })
}

/// The commit being measured, read from `.git` when there is one.
fn git_head() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a number depends on besides the code: compare two results
/// only when their fingerprints match. `stolen_s` is how much CPU time other
/// guests took from this one during the run; it runs high when the host is
/// busy and the run is slow.
fn fingerprint(
    args: &Args,
    nproc: usize,
    workers: usize,
    calibration: &str,
    stolen: f64,
) -> String {
    let cache = match moscons::CacheMode::from_env() {
        moscons::CacheMode::Off => "off",
        moscons::CacheMode::Mem => "mem",
        moscons::CacheMode::Disk => "disk",
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"pool_workers\": {}, \"calibration\": {}, \"simd\": {}, \"scale\": \"quick\", \
         \"cache\": \"{}\", \"stream_chunk\": {}, \"git_head\": \"{}\", \"stolen_s\": {:.2}}}",
        args.workload,
        args.run.seed,
        args.run.seconds,
        u8::from(args.run.traced),
        nproc,
        workers,
        calibration,
        ml::simd::enabled(),
        cache,
        moscons::stream::DEFAULT_STREAM_CHUNK,
        git_head(),
        stolen
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value fails the run (see `main`); `null` keeps the
        // line valid JSON.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin every knob the library reads from the environment: each attack
    // simulates a fresh trace, as a real adversary's would, and streams use
    // the default classification chunk. Pool workers are pinned per workload.
    std::env::set_var("LEAKY_DNN_CACHE", "off");
    std::env::remove_var(moscons::stream::STREAM_CHUNK_ENV);
    let stolen_at_start = calib::stolen_s(None);
    // Read before the calibrator pins the process to fewer CPUs.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let outcome = match args.workload.as_str() {
        "profile" => workloads::profile(&args.run),
        "attack" => workloads::attack(&args.run),
        _ => workloads::fleet(&args.run),
    };
    let stolen = calib::stolen_s(None) - stolen_at_start;
    let fingerprint = fingerprint(&args, nproc, outcome.workers, &outcome.calibration, stolen);
    let finite = outcome.metrics.iter().all(|m| m.1.is_finite());
    let correct = outcome.check_failures.is_empty() && finite && !outcome.metrics.is_empty();

    println!("fingerprint {fingerprint}");
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    for (name, value, unit) in &outcome.raw {
        println!("{:<40} {value:>16.6} {unit}", format!("{name} (unscaled)"));
    }
    for (i, (raw, scaled)) in outcome.passes.iter().enumerate() {
        println!("pass {i}: {raw:.4} s, scaled {scaled:.4} s");
    }
    for failure in &outcome.check_failures {
        println!("check failed: {failure}");
    }
    println!(
        "fail_ratio {}/{} = {:.4}, report digest {:016x}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.digest
    );

    let metrics = metrics_json(&outcome.metrics);
    let dir = Path::new("perfbench").join("results");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.run.seed,
        u8::from(args.run.traced)
    ));
    let spans = outcome
        .tracer
        .as_ref()
        .map_or("null".into(), |t| t.to_json());
    let record = format!(
        "{{\"fingerprint\": {fingerprint}, \"digest\": \"{:016x}\", \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}, \"unscaled\": {}, \
         \"trace\": {spans}}}\n",
        outcome.digest,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.raw)
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, record)) {
        Ok(()) => println!("wrote {}", file.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", file.display()),
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
