//! Calibration utility: quick per-method timings, a compact Table-I-lite
//! (representative methods only) at full dataset size, and a
//! serial-vs-parallel trainer benchmark (`--bench-train`). Used while tuning
//! the dataset simulators; not part of the documented reproduction flow.

use std::time::Instant;

use rll_core::{RllConfig, RllTrainer, RllVariant};
use rll_eval::experiments::{table1, ExperimentScale};
use rll_eval::method::{EmbedKind, MethodSpec, TrainBudget, TwoStageAgg};
use serde::{Deserialize, Serialize};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--timings") {
        timings();
        return;
    }
    if let Some(i) = args.iter().position(|a| a == CHILD_FLAG) {
        let threads: usize = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--bench-train-child <threads>");
        bench_train_child(threads);
        return;
    }
    if args.iter().any(|a| a == "--bench-train") {
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("results/bench_train.json");
        bench_train(out);
        return;
    }
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let methods = [
        MethodSpec::SoftProb,
        MethodSpec::Em,
        MethodSpec::Glad,
        MethodSpec::Embed(EmbedKind::Triplet),
        MethodSpec::TwoStage(EmbedKind::Triplet, TwoStageAgg::Em),
        MethodSpec::Rll(RllVariant::Plain),
        MethodSpec::Rll(RllVariant::Mle),
        MethodSpec::Rll(RllVariant::Bayesian),
    ];
    let t = Instant::now();
    let result = table1::run(ExperimentScale::Full, seed, Some(&methods)).expect("table1 subset");
    println!("{}", result.render());
    println!("elapsed: {:?}", t.elapsed());
}

/// Child-process flag: run one `fit` with the kernel variant taken from the
/// `RLL_KERNEL` environment (which is read once per process — hence the
/// subprocess design) and print a [`ChildRun`] JSON line.
const CHILD_FLAG: &str = "--bench-train-child";

/// How many times each (kernel, threads) cell is re-run. The best rep is
/// the cell's time; the median and every rep are recorded as its spread.
const REPS_PER_VARIANT: usize = 5;

/// One timed `fit` in a child process.
#[derive(Serialize, Deserialize)]
struct ChildRun {
    kernel: String,
    threads: usize,
    secs: f64,
    /// FNV-1a over the final embedding matrix bits — byte-equality across
    /// variants is the determinism contract.
    embed_hash: String,
    /// FNV-1a over epoch losses ++ pre-clip gradient norms.
    trace_hash: String,
}

/// One kernel × thread-count cell: its reps, their spread and the hashes
/// every rep agreed on.
#[derive(Serialize)]
struct Cell {
    kernel: String,
    threads: usize,
    /// Fastest rep (the number speedups are computed from).
    best_secs: f64,
    median_secs: f64,
    /// Every rep, fastest first.
    rep_secs: Vec<f64>,
    embed_hash: String,
    trace_hash: String,
}

#[derive(Serialize)]
struct BenchTrainV3 {
    schema: String,
    workload: String,
    seed: u64,
    epochs: usize,
    groups_per_epoch: usize,
    nproc: usize,
    cpu_model: String,
    reps_per_variant: usize,
    /// The cell every speedup divides: measured in this run, on this box.
    baseline: String,
    cells: Vec<Cell>,
    tiled_speedup_vs_scalar_serial: f64,
    /// Tiled at 4 threads vs tiled serial.
    tiled_parallel_speedup: f64,
    outputs_identical: bool,
}

/// Runs one `RllTrainer::fit` at the given thread count with the
/// process-wide configured kernel and prints the timing + output hashes.
fn bench_train_child(threads: usize) {
    let seed = 42;
    let ds = rll_data::presets::oral(seed).expect("oral preset");
    let trainer = RllTrainer::new(RllConfig::default())
        .expect("valid config")
        .with_threads(threads);
    let t = Instant::now();
    let (model, trace) = trainer
        .fit(&ds.features, &ds.annotations, seed)
        .expect("training succeeds");
    let secs = t.elapsed().as_secs_f64();
    let embed = model.embed(&ds.features).expect("embed");
    let mut trace_values = trace.epoch_losses.clone();
    trace_values.extend_from_slice(&trace.grad_norms_pre_clip);
    let run = ChildRun {
        kernel: rll_tensor::kernels::configured_kernel().as_str().into(),
        threads,
        secs,
        embed_hash: format!("{:#018x}", rll_tensor::hash::fnv1a_f64s(embed.as_slice())),
        trace_hash: format!("{:#018x}", rll_tensor::hash::fnv1a_f64s(&trace_values)),
    };
    println!("{}", serde_json::to_string(&run).expect("serialize"));
}

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Benchmarks the full trainer across kernel variants (scalar vs tiled) and
/// thread counts (1 vs 4), checks every rep of every cell produces
/// bitwise-identical models, and writes the measurements as
/// `bench_train/v3` JSON.
///
/// Each rep runs in a child process because `RLL_KERNEL` is latched on
/// first read. Speedups divide cells of this same run — the scalar serial
/// cell is the baseline — and are reported as measured, alongside `nproc`
/// and the CPU model: with fewer cores than threads the 4-thread runs
/// cannot beat the serial ones, and that is the honest number — the point
/// of `rll-par` is that the *results* never depend on the thread count.
fn bench_train(out: &str) {
    let exe = std::env::current_exe().expect("current exe");
    let seed = 42;
    let ds = rll_data::presets::oral(seed).expect("oral preset");
    let config = RllConfig::default();

    let mut cells: Vec<Cell> = Vec::new();
    let mut outputs_identical = true;
    for kernel in ["scalar", "tiled"] {
        for threads in [1usize, 4] {
            let mut runs: Vec<ChildRun> = Vec::new();
            for _ in 0..REPS_PER_VARIANT {
                let output = std::process::Command::new(&exe)
                    .arg(CHILD_FLAG)
                    .arg(threads.to_string())
                    .env(rll_tensor::kernels::KERNEL_ENV_VAR, kernel)
                    .output()
                    .expect("spawn bench child");
                assert!(
                    output.status.success(),
                    "bench child (kernel={kernel}, threads={threads}) failed:\n{}",
                    String::from_utf8_lossy(&output.stderr)
                );
                let stdout = String::from_utf8_lossy(&output.stdout);
                let run: ChildRun = serde_json::from_str(stdout.trim()).expect("child JSON");
                assert_eq!(run.kernel, kernel, "child ran the wrong kernel variant");
                runs.push(run);
            }
            runs.sort_by(|a, b| a.secs.total_cmp(&b.secs));
            let first = &runs[0];
            // Every rep must hash like the first cell's fastest rep.
            let (embed, trace) = cells
                .first()
                .map_or((&first.embed_hash, &first.trace_hash), |c| {
                    (&c.embed_hash, &c.trace_hash)
                });
            outputs_identical &= runs
                .iter()
                .all(|r| &r.embed_hash == embed && &r.trace_hash == trace);
            let rep_secs: Vec<f64> = runs.iter().map(|r| r.secs).collect();
            cells.push(Cell {
                kernel: kernel.into(),
                threads,
                best_secs: rep_secs[0],
                median_secs: rep_secs[rep_secs.len() / 2],
                embed_hash: first.embed_hash.clone(),
                trace_hash: first.trace_hash.clone(),
                rep_secs,
            });
        }
    }

    let secs_of = |kernel: &str, threads: usize| {
        cells
            .iter()
            .find(|c| c.kernel == kernel && c.threads == threads)
            .expect("cell present")
            .best_secs
    };
    let scalar_serial = secs_of("scalar", 1);
    let tiled_serial = secs_of("tiled", 1);
    let tiled_parallel = secs_of("tiled", 4);

    let report = BenchTrainV3 {
        schema: "bench_train/v3".into(),
        workload: format!(
            "RllTrainer::fit on presets::oral ({} items, {} workers)",
            ds.features.rows(),
            ds.annotations.num_workers()
        ),
        seed,
        epochs: config.epochs,
        groups_per_epoch: config.groups_per_epoch,
        nproc: rll_par::available_threads(),
        cpu_model: cpu_model(),
        reps_per_variant: REPS_PER_VARIANT,
        baseline: "scalar kernel, 1 thread, best rep of this run".into(),
        tiled_speedup_vs_scalar_serial: scalar_serial / tiled_serial,
        tiled_parallel_speedup: tiled_serial / tiled_parallel,
        cells,
        outputs_identical,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    if let Some(parent) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    std::fs::write(out, format!("{json}\n")).expect("write bench json");
    println!("{json}");
    assert!(
        outputs_identical,
        "kernel variants / thread counts disagree: determinism regression"
    );
}

fn timings() {
    let ds = rll_data::presets::oral(42).unwrap();
    let folds = rll_data::StratifiedKFold::new(&ds.expert_labels, 5, 42).unwrap();
    let split = folds.split(0).unwrap();
    let train = ds.select(&split.train).unwrap();
    let test = ds.select(&split.test).unwrap();
    for (name, spec) in [
        ("rll", MethodSpec::Rll(RllVariant::Bayesian)),
        ("triplet", MethodSpec::Embed(EmbedKind::Triplet)),
        ("relation", MethodSpec::Embed(EmbedKind::Relation)),
        ("glad", MethodSpec::Glad),
    ] {
        let t = Instant::now();
        let _ = rll_eval::method::fit_predict(
            spec,
            TrainBudget::full(),
            &train.features,
            &train.annotations,
            &test.features,
            7,
        )
        .unwrap();
        println!("{name}: {:?}", t.elapsed());
    }
}
