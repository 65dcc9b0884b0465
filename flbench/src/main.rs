//! `flbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload as a closed loop of synchronous rounds, checks its
//! outputs, and prints every metric by name with its unit. The last line of
//! standard output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`; a run that fails its checks prints why, reports
//! `"correct": false` with no metrics, and exits with code 1.

use std::path::PathBuf;
use std::process::ExitCode;

use flbench::modes::{traced, untraced};
use flbench::workload::{DataSpec, Workload, ALL};

const USAGE: &str = "usage: flbench --workload <name> --seed <n> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = raw
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        raw.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds = value("--seconds")?
        .parse()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .ok_or_else(|| "--seconds must be an integer in 1..=600".to_string())?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where checkpoint files go: next to the benchmark binary, inside the
/// build directory of the checkout.
fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("flbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Rayon workers: one per core the host exposes.
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    let workload = args.workload;
    let rounds = workload.horizon(args.seconds);
    println!(
        "# flbench workload={} seed={} seconds={} rounds={} trace={} nproc={} RAYON_NUM_THREADS={} data={}",
        workload.name,
        args.seed,
        args.seconds,
        rounds,
        u8::from(args.trace),
        nproc,
        rayon::current_num_threads(),
        match workload.data {
            DataSpec::Eager { .. } => "eager",
            DataSpec::Lazy { .. } => "lazy",
        }
    );
    let scratch = scratch_dir();
    let report = if args.trace {
        traced(&workload, args.seed, rounds, &scratch)
    } else {
        untraced(&workload, args.seed, rounds, &scratch)
    };
    for failure in &report.failures {
        println!("FAIL {}: {failure}", workload.name);
    }
    for m in report.metrics.iter().chain(&report.info) {
        println!("# {:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
