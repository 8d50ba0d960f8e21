//! `serve` — load a checkpoint and answer embedding queries over HTTP.
//!
//! Two modes:
//!
//! ```text
//! serve train-demo [--out PATH] [--preset oral|class] [--n N] [--epochs N] [--seed N] [--profile]
//! serve --checkpoint PATH [--addr HOST:PORT] [--cache N] [--port-file PATH]
//!       [--trace-out PATH]
//!       [--labels-dir DIR] [--labels-shards N] [--labels-segment N]
//!       [--labels-estimator mle|bayesian] [--live-preset oral|class]
//!       [--live-n N] [--live-seed N] [--live-workers N]
//!       [--retrain-votes N] [--retrain-epochs N]
//!       [--retrain-trigger votes|drift] [--retrain-drift F]
//!       [--retrain-disagreement F] [--retrain-weighting on|off]
//!       [--retrain-spam-threshold F] [--retrain-spam-min-votes N]
//!       [--compact on|off]
//! ```
//!
//! `train-demo` trains a small RLL pipeline on a simulated preset and writes
//! a checkpoint — the train→checkpoint handoff in miniature, stamping the
//! rll-obs run id of the training run into the checkpoint header; `--profile`
//! turns on the per-epoch self-time profiler (EpochProfile events in the run
//! JSONL, checkpoint bytes unaffected). The serving mode loads any checkpoint
//! and listens until killed; `POST /reload` re-reads the `--checkpoint` file
//! to hot-swap a newer model without a restart. `--addr` with port 0 binds an
//! ephemeral port; `--port-file` writes the resolved `host:port` so scripts
//! (e.g. the CI smoke test) can find it. `--trace-out` enables request
//! tracing: every request appends one `trace/v1` JSON line to the given file
//! (readable by `profile --trace`/`--validate`).
//!
//! `--labels-dir` turns on **live labeling**: crowd votes posted to
//! `POST /label` are appended to a sharded WAL in that directory (replayed on
//! restart) and exposed as online confidences under `GET /labels`. The live
//! dataset is the `--live-preset`/`--live-n`/`--live-seed` simulation — the
//! same generator `train-demo` trains from, so the served checkpoint and the
//! vote stream agree on example ids. With `--retrain-votes N` a background
//! retrainer additionally watches the vote stream, folds new votes into the
//! dataset, retrains, writes the checkpoint atomically, and hot-swaps it
//! through its own `POST /reload` — the full ingest → retrain → reload loop
//! in one process. `N` is the new-vote floor; by default the round only
//! fires when the confidence field actually moved (`--retrain-trigger
//! drift`, tuned by `--retrain-drift`/`--retrain-disagreement`), and
//! `--retrain-trigger votes` restores the fixed every-N behaviour. The fold
//! weights annotators by live Dawid–Skene quality and drops probable
//! spammers (`--retrain-weighting off` folds everyone); after each
//! completed round the WAL history below the published `folded_seq` is
//! compacted into a checksummed confidence snapshot (`--compact off`
//! disables the automatic pass; `POST /compact` always works).

use rll_core::{RllConfig, RllPipeline};
use rll_serve::{
    Checkpoint, EmbedServer, EngineConfig, InferenceEngine, ServerConfig, ServingModel,
};
use std::process::ExitCode;

struct TrainDemoArgs {
    out: String,
    preset: String,
    n: usize,
    epochs: usize,
    seed: u64,
    profile: bool,
}

struct ServeArgs {
    checkpoint: String,
    addr: String,
    cache: usize,
    port_file: Option<String>,
    trace_out: Option<String>,
    labels_dir: Option<String>,
    labels_shards: u32,
    labels_segment: u64,
    labels_estimator: String,
    live_preset: String,
    live_n: usize,
    live_seed: u64,
    live_workers: u32,
    retrain_votes: u64,
    retrain_epochs: usize,
    retrain_trigger: String,
    retrain_drift: f64,
    retrain_disagreement: f64,
    retrain_weighting: String,
    retrain_spam_threshold: f64,
    retrain_spam_min_votes: u64,
    compact: String,
}

const USAGE: &str = "usage:
  serve train-demo [--out PATH] [--preset oral|class] [--n N] [--epochs N] [--seed N] [--profile]
  serve --checkpoint PATH [--addr HOST:PORT] [--cache N] [--port-file PATH] [--trace-out PATH]
        [--labels-dir DIR] [--labels-shards N] [--labels-segment N] [--labels-estimator mle|bayesian]
        [--live-preset oral|class] [--live-n N] [--live-seed N] [--live-workers N]
        [--retrain-votes N] [--retrain-epochs N] [--retrain-trigger votes|drift]
        [--retrain-drift F] [--retrain-disagreement F] [--retrain-weighting on|off]
        [--retrain-spam-threshold F] [--retrain-spam-min-votes N] [--compact on|off]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("train-demo") {
        parse_train_demo(&args[1..]).map(|a| train_demo(&a))
    } else {
        parse_serve(&args).map(|a| run_server(&a))
    };
    match result {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
        Err(usage_error) => {
            eprintln!("serve: {usage_error}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_train_demo(args: &[String]) -> Result<TrainDemoArgs, String> {
    let mut out = TrainDemoArgs {
        out: "results/demo.rllckpt".to_string(),
        preset: "oral".to_string(),
        n: 240,
        epochs: 20,
        seed: 42,
        profile: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out.out = take_value(args, &mut i, "--out")?,
            "--profile" => out.profile = true,
            "--preset" => out.preset = take_value(args, &mut i, "--preset")?,
            "--n" => {
                out.n = take_value(args, &mut i, "--n")?
                    .parse()
                    .map_err(|_| "invalid --n".to_string())?
            }
            "--epochs" => {
                out.epochs = take_value(args, &mut i, "--epochs")?
                    .parse()
                    .map_err(|_| "invalid --epochs".to_string())?
            }
            "--seed" => {
                out.seed = take_value(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed".to_string())?
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok(out)
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs {
        checkpoint: String::new(),
        addr: "127.0.0.1:7878".to_string(),
        cache: EngineConfig::default().cache_capacity,
        port_file: None,
        trace_out: None,
        labels_dir: None,
        labels_shards: 4,
        labels_segment: 256,
        labels_estimator: "bayesian".to_string(),
        live_preset: "oral".to_string(),
        live_n: 240,
        live_seed: 42,
        live_workers: 8,
        retrain_votes: 0,
        retrain_epochs: 10,
        retrain_trigger: "drift".to_string(),
        retrain_drift: 4.0,
        retrain_disagreement: 0.35,
        retrain_weighting: "on".to_string(),
        retrain_spam_threshold: 0.2,
        retrain_spam_min_votes: 3,
        compact: "on".to_string(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--checkpoint" => out.checkpoint = take_value(args, &mut i, "--checkpoint")?,
            "--addr" => out.addr = take_value(args, &mut i, "--addr")?,
            "--cache" => {
                out.cache = take_value(args, &mut i, "--cache")?
                    .parse()
                    .map_err(|_| "invalid --cache".to_string())?
            }
            "--port-file" => out.port_file = Some(take_value(args, &mut i, "--port-file")?),
            "--trace-out" => out.trace_out = Some(take_value(args, &mut i, "--trace-out")?),
            "--labels-dir" => out.labels_dir = Some(take_value(args, &mut i, "--labels-dir")?),
            "--labels-shards" => {
                out.labels_shards = take_value(args, &mut i, "--labels-shards")?
                    .parse()
                    .map_err(|_| "invalid --labels-shards".to_string())?
            }
            "--labels-segment" => {
                out.labels_segment = take_value(args, &mut i, "--labels-segment")?
                    .parse()
                    .map_err(|_| "invalid --labels-segment".to_string())?
            }
            "--labels-estimator" => {
                out.labels_estimator = take_value(args, &mut i, "--labels-estimator")?
            }
            "--live-preset" => out.live_preset = take_value(args, &mut i, "--live-preset")?,
            "--live-n" => {
                out.live_n = take_value(args, &mut i, "--live-n")?
                    .parse()
                    .map_err(|_| "invalid --live-n".to_string())?
            }
            "--live-seed" => {
                out.live_seed = take_value(args, &mut i, "--live-seed")?
                    .parse()
                    .map_err(|_| "invalid --live-seed".to_string())?
            }
            "--live-workers" => {
                out.live_workers = take_value(args, &mut i, "--live-workers")?
                    .parse()
                    .map_err(|_| "invalid --live-workers".to_string())?
            }
            "--retrain-votes" => {
                out.retrain_votes = take_value(args, &mut i, "--retrain-votes")?
                    .parse()
                    .map_err(|_| "invalid --retrain-votes".to_string())?
            }
            "--retrain-epochs" => {
                out.retrain_epochs = take_value(args, &mut i, "--retrain-epochs")?
                    .parse()
                    .map_err(|_| "invalid --retrain-epochs".to_string())?
            }
            "--retrain-trigger" => {
                out.retrain_trigger = take_value(args, &mut i, "--retrain-trigger")?
            }
            "--retrain-drift" => {
                out.retrain_drift = take_value(args, &mut i, "--retrain-drift")?
                    .parse()
                    .map_err(|_| "invalid --retrain-drift".to_string())?
            }
            "--retrain-disagreement" => {
                out.retrain_disagreement = take_value(args, &mut i, "--retrain-disagreement")?
                    .parse()
                    .map_err(|_| "invalid --retrain-disagreement".to_string())?
            }
            "--retrain-weighting" => {
                out.retrain_weighting = take_value(args, &mut i, "--retrain-weighting")?
            }
            "--retrain-spam-threshold" => {
                out.retrain_spam_threshold = take_value(args, &mut i, "--retrain-spam-threshold")?
                    .parse()
                    .map_err(|_| "invalid --retrain-spam-threshold".to_string())?
            }
            "--retrain-spam-min-votes" => {
                out.retrain_spam_min_votes = take_value(args, &mut i, "--retrain-spam-min-votes")?
                    .parse()
                    .map_err(|_| "invalid --retrain-spam-min-votes".to_string())?
            }
            "--compact" => out.compact = take_value(args, &mut i, "--compact")?,
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if out.checkpoint.is_empty() {
        return Err("--checkpoint is required".to_string());
    }
    if !matches!(out.retrain_trigger.as_str(), "votes" | "drift") {
        return Err(format!(
            "--retrain-trigger must be votes|drift, got {:?}",
            out.retrain_trigger
        ));
    }
    for (flag, value) in [
        ("--retrain-weighting", out.retrain_weighting.as_str()),
        ("--compact", out.compact.as_str()),
    ] {
        if !matches!(value, "on" | "off") {
            return Err(format!("{flag} must be on|off, got {value:?}"));
        }
    }
    Ok(out)
}

fn train_demo(args: &TrainDemoArgs) -> Result<(), Box<dyn std::error::Error>> {
    let ds = match args.preset.as_str() {
        "oral" => rll_data::presets::oral_scaled(args.n, args.seed)?,
        "class" => rll_data::presets::class_scaled(args.n, args.seed)?,
        other => return Err(format!("unknown preset {other:?} (use oral|class)").into()),
    };
    let recorder = rll_obs::Recorder::for_experiment("serve-train-demo", args.seed);
    recorder.run_start("serve-train-demo", &args.preset, args.seed);
    let config = RllConfig {
        epochs: args.epochs,
        groups_per_epoch: 128,
        ..RllConfig::default()
    };
    let mut pipeline = RllPipeline::new(config)
        .with_recorder(recorder.clone())
        .with_profiling(args.profile);
    pipeline.fit(&ds.features, &ds.annotations, args.seed)?;
    let checkpoint = Checkpoint::from_pipeline(&pipeline, recorder.run_id())?;
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    checkpoint.save(&args.out)?;
    recorder.note(format!(
        "checkpoint {} (input_dim {}, embedding_dim {}, run {})",
        args.out,
        checkpoint.meta.input_dim,
        checkpoint.meta.embedding_dim,
        checkpoint.meta.train_run_id,
    ));
    recorder.finish();
    println!("wrote {}", args.out);
    Ok(())
}

/// Publishes a retrain round by writing the checkpoint atomically and
/// hot-swapping it through the server's own `POST /reload`.
struct ReloadSink {
    checkpoint: std::path::PathBuf,
    addr: std::net::SocketAddr,
}

impl rll_label::PublishSink for ReloadSink {
    fn publish(&mut self, pipeline: &RllPipeline, round: u64) -> Result<(), String> {
        let run_id = format!("retrain-round-{round}");
        let checkpoint = Checkpoint::from_pipeline(pipeline, &run_id).map_err(|e| e.to_string())?;
        checkpoint
            .save(&self.checkpoint)
            .map_err(|e| format!("checkpoint write: {e}"))?;
        post_reload(self.addr)
    }
}

/// One loopback `POST /reload`, expecting a `200`.
fn post_reload(addr: std::net::SocketAddr) -> Result<(), String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(
            b"POST /reload HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let status = response.lines().next().unwrap_or("");
    if status.contains(" 200 ") {
        Ok(())
    } else {
        Err(format!("reload answered {status:?}"))
    }
}

fn live_dataset(args: &ServeArgs) -> Result<rll_data::Dataset, Box<dyn std::error::Error>> {
    match args.live_preset.as_str() {
        "oral" => Ok(rll_data::presets::oral_scaled(args.live_n, args.live_seed)?),
        "class" => Ok(rll_data::presets::class_scaled(
            args.live_n,
            args.live_seed,
        )?),
        other => Err(format!("unknown preset {other:?} (use oral|class)").into()),
    }
}

fn run_server(args: &ServeArgs) -> Result<(), Box<dyn std::error::Error>> {
    let checkpoint = Checkpoint::load(&args.checkpoint)?;
    let meta = checkpoint.meta.clone();
    println!(
        "loaded {} (v{}, input_dim {}, embedding_dim {}, trained by run {})",
        args.checkpoint, meta.version, meta.input_dim, meta.embedding_dim, meta.train_run_id
    );
    // Metrics-only recorder by default: the server's signal surface is
    // GET /metrics, not a stdout event stream. `--trace-out` adds a JSONL
    // sink that receives one `trace/v1` line per request.
    let mut sinks: Vec<Box<dyn rll_obs::Sink>> = Vec::new();
    if let Some(path) = &args.trace_out {
        sinks.push(Box::new(rll_obs::JsonlSink::open(path)?));
        println!("tracing requests to {path}");
    }
    let recorder = rll_obs::Recorder::new("serve", sinks);
    let engine = InferenceEngine::start(
        ServingModel::from_checkpoint(checkpoint),
        EngineConfig {
            cache_capacity: args.cache,
        },
        recorder.clone(),
    )?;

    // Live labeling: the label store replays its WAL before the listener
    // opens, so the first request already sees the recovered state.
    let labels = match &args.labels_dir {
        Some(dir) => {
            let ds = live_dataset(args)?;
            let estimator = match args.labels_estimator.as_str() {
                "mle" => rll_crowd::ConfidenceEstimator::Mle,
                "bayesian" => rll_crowd::ConfidenceEstimator::Bayesian(rll_crowd::BetaPrior {
                    alpha: 1.0,
                    beta: 1.0,
                }),
                other => {
                    return Err(format!("unknown estimator {other:?} (use mle|bayesian)").into())
                }
            };
            let store = rll_label::LabelStore::open(
                rll_label::LabelStoreConfig {
                    dir: dir.clone().into(),
                    shards: args.labels_shards,
                    segment_records: args.labels_segment,
                    estimator,
                    num_examples: ds.features.rows() as u64,
                    max_workers: args.live_workers,
                    dedup_capacity: rll_label::DEFAULT_DEDUP_CAPACITY,
                    manifest_path: Some(std::path::Path::new(dir).join("retrain.manifest.json")),
                },
                recorder.clone(),
            )?;
            println!(
                "live labeling in {dir} ({} examples, high water {})",
                ds.features.rows(),
                store.high_water()
            );
            Some(std::sync::Arc::new(store))
        }
        None => None,
    };

    let server = EmbedServer::start_with_labels(
        engine,
        ServerConfig {
            addr: args.addr.clone(),
            checkpoint_path: Some(args.checkpoint.clone().into()),
            trace: args.trace_out.is_some(),
            ..ServerConfig::default()
        },
        recorder.clone(),
        &meta.train_run_id,
        labels.clone(),
    )?;
    let addr = server.local_addr();
    println!("rll-serve listening on {addr}");
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{addr}\n"))?;
    }

    // The retrain → hot-reload loop, once the listener is up (its publish
    // sink reloads through the server's own socket).
    let _retrainer = match &labels {
        Some(store) if args.retrain_votes > 0 => {
            let dir = std::path::PathBuf::from(args.labels_dir.as_deref().unwrap_or_default());
            let ds = live_dataset(args)?;
            let base = rll_label::RetrainBase {
                features: ds.features,
                annotations: ds.annotations,
                expert_labels: Some(ds.expert_labels),
            };
            let trigger = match args.retrain_trigger.as_str() {
                "votes" => rll_label::RetrainTrigger::Votes {
                    min_new_votes: args.retrain_votes,
                },
                _ => rll_label::RetrainTrigger::Drift {
                    min_new_votes: args.retrain_votes,
                    drift_threshold: args.retrain_drift,
                    disagreement_threshold: args.retrain_disagreement,
                },
            };
            let weighting = match args.retrain_weighting.as_str() {
                "off" => None,
                _ => Some(rll_label::WorkerWeighting {
                    spam_threshold: args.retrain_spam_threshold,
                    min_votes: args.retrain_spam_min_votes,
                }),
            };
            let config = rll_label::RetrainConfig {
                train: RllConfig {
                    epochs: args.retrain_epochs,
                    groups_per_epoch: 128,
                    ..RllConfig::default()
                },
                base_seed: args.live_seed,
                trigger,
                weighting,
                auto_compact: args.compact == "on",
                poll_interval: std::time::Duration::from_millis(200),
                state_path: dir.join("retrain.rllstate"),
                manifest_path: dir.join("retrain.manifest.json"),
                snapshot_every_epochs: 1,
                threads: None,
            };
            let retrainer = rll_label::Retrainer::start(
                std::sync::Arc::clone(store),
                base,
                config,
                recorder.clone(),
                Box::new(ReloadSink {
                    checkpoint: args.checkpoint.clone().into(),
                    addr,
                }),
            )?;
            println!(
                "retrain loop armed: trigger {} (floor {} votes), {} epochs, weighting {}, compact {}",
                args.retrain_trigger,
                args.retrain_votes,
                args.retrain_epochs,
                args.retrain_weighting,
                args.compact
            );
            Some(retrainer)
        }
        _ => None,
    };

    // Serve until killed; the acceptor and workers own all the activity.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
