//! `tc-perfledger` — the workspace's benchmark.
//!
//! ```text
//! tc-perfledger --workload <cold-skewed|serve-warm|checked> [--seed N]
//!               [--seconds S] [--trace 0|1] [--scale bench|smoke]
//! ```
//!
//! Generates the workload's graphs from the seed, measures the workload's
//! fixed request sequence for `--seconds`, checks every count against the
//! CPU oracle, and prints one JSON result line last: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. The
//! traced run also writes its spans to `out/` beside this package's
//! manifest. See README.md.

mod report;
mod spans;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use tc_gen::suite::SUITE_SEED;
use tc_gen::{Scale, Seed};

use report::{median, result_line, Checks, END_TO_END, PER_LAYER};
use spans::Tracer;
use workload::{Setup, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: tc-perfledger --workload <cold-skewed|serve-warm|checked> \
[--seed N] [--seconds S] [--trace 0|1] [--scale bench|smoke]";

struct Args {
    workload: Workload,
    seed: Seed,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = SUITE_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Bench;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Seed(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "bench" => Scale::Bench,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("unknown scale {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = env!("PERFLEDGER_RUSTC");
    println!(
        "perfledger: workload={} seed={} scale={:?} trace={} nproc={nproc} rustc=\"{rustc}\"",
        args.workload.name(),
        args.seed.0,
        args.scale,
        args.trace as u8
    );

    let mut checks = Checks::default();
    let mut tr = Tracer::new(args.trace);
    let setup = Setup::build(
        args.workload,
        args.scale,
        args.seed,
        SETUP_REPS,
        &mut tr,
        &mut checks,
    );

    // End-to-end numbers are always measured with tracing off.
    tr.set_on(false);
    let window = workload::measure(&setup, args.seconds, &mut checks);
    tr.set_on(args.trace);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let catalogue: &[(&str, &str)] = if args.trace {
        values = traced::run(&setup, &window, args.seconds, &mut tr, &mut checks);
        match peak_rss_mb() {
            Some(mb) => values.insert("peak_rss_mb", mb),
            None => {
                checks.violate("cannot read VmHWM from /proc/self/status".into());
                None
            }
        };
        &PER_LAYER
    } else {
        values.insert("counts_per_host_s", window.timing.counts_per_host_s());
        values.insert("modeled_ms.mean", window.modeled.mean());
        values.insert("modeled_ms.max", window.modeled.max());
        values.insert("setup_s", median(&setup.setup_s));
        &END_TO_END
    };
    println!(
        "perfledger: attempted={} failed={} failed_frac={}",
        checks.attempted,
        checks.failed,
        report::ratio(checks.failed as f64, checks.attempted as f64)
    );
    if args.trace {
        write_trace(&args, nproc, rustc, &tr, &values);
    }
    println!("{}", result_line(&checks, catalogue, &values));
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write the traced run's spans, stamped with the machine, once at the end.
fn write_trace(
    args: &Args,
    nproc: usize,
    rustc: &str,
    tr: &Tracer,
    values: &BTreeMap<&'static str, f64>,
) {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!(
        "trace-{}-{}.json",
        args.workload.name(),
        args.seed.0
    ));
    let metrics: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    let body = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"nproc\": {nproc},\n  \"rustc\": \"{rustc}\",\n  \"metrics\": {{\n{}\n  }},\n  \"spans\": {}\n}}\n",
        args.workload.name(),
        args.seed.0,
        metrics.join(",\n"),
        tr.to_json()
    );
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("perfledger: trace written to {}", path.display()),
        Err(e) => eprintln!("perfledger: cannot write {}: {e}", path.display()),
    }
}
