//! `perfbench` — the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload train_oral|serve_embed|serve_label --seed N --seconds S
//!           --trace 0|1 --serve-bin PATH [--latency-limit-ms MS]
//! ```
//!
//! Runs from the root of a checkout. Normally started by
//! `perfbench/run.py`, which builds `serve` and this binary first. Prints a
//! human-readable table, an environment stamp and, as the last line, the
//! JSON result. Exits 3 on an oracle mismatch and 1 on
//! any other failure, without a result line.

mod client;
mod env;
mod oracle;
mod report;
mod serve;
mod stats;
mod train;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// `serve_label` is runnable by hand but not listed in `BENCHMARK.json`:
/// see README.md.
pub const WORKLOADS: &[&str] = &["train_oral", "serve_embed", "serve_label"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub latency_limit_ms: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        serve_bin: PathBuf::new(),
        latency_limit_ms: 10.0,
    };
    let mut seen_seed = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("invalid {flag} {value:?} ({what})");
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("u64"))?;
                seen_seed = true;
            }
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(&value),
            "--latency-limit-ms" => {
                args.latency_limit_ms = value.parse().map_err(|_| bad("milliseconds"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !seen_seed {
        return Err("--seed is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if args.workload != "train_oral" {
        // Servers run in their own directories: the path must be absolute.
        args.serve_bin = std::fs::canonicalize(&args.serve_bin)
            .map_err(|e| format!("--serve-bin {:?}: {e}", args.serve_bin))?;
    }
    Ok(args)
}

/// The run's private working directory under the checkout (absolute: the
/// servers run inside it); removed on every exit path, after the servers in
/// it were stopped.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> std::io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = std::env::current_dir()?
            .join(".perfbench_tmp")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

type BoxError = Box<dyn std::error::Error + Send + Sync>;

fn run(args: &Args, report: &mut Report) -> Result<(), BoxError> {
    let tmp = TempDir::create()?;
    let label = args.workload == "serve_label";
    match (args.workload.as_str(), args.trace) {
        ("train_oral", false) => train::run(args, report),
        ("train_oral", true) => train::run_traced(args, report),
        (_, false) => serve::run(args, label, &tmp.0, report),
        (_, true) => serve::run_traced(args, label, &tmp.0, report),
    }
}

/// Metrics each workload must have measured itself (the rest of the
/// declared names are layers it does not load, reported as 0).
fn required(workload: &str, trace: bool) -> Vec<String> {
    use report::*;
    let names = match (workload, trace) {
        (_, false) => END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect(),
        ("train_oral", true) => layer_metrics(&[TRAIN_LAYERS], &[TRAIN_VALUES]),
        _ => layer_metrics(&[SERVE_LAYERS, LABEL_LAYERS], &[SERVE_VALUES, LABEL_VALUES]),
    };
    names.into_iter().map(|(n, _)| n).collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = env::Stamp::collect(
        std::path::Path::new("."),
        &args.workload,
        args.seed,
        args.trace,
    );
    let mut report = Report::new();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(if e.is::<oracle::OracleError>() { 3 } else { 1 });
    }
    match report.result_line(args.trace, &required(&args.workload, args.trace)) {
        Ok(line) => {
            println!(
                "perfbench {} (seed {}, {} s, trace {})",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            for row in &report.table {
                println!("  {row}");
            }
            println!("{}", stamp.to_json());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
