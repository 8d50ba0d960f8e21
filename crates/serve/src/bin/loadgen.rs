//! `loadgen` — seeded, deterministic load generator for `serve`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--requests N] [--concurrency C] [--seed S]
//!         [--pool P] [--repeat-frac F] [--score-frac F] [--out PATH]
//!         [--labels] [--label-frac F] [--label-preset oral|class]
//!         [--label-n N] [--label-seed S] [--label-workers N] [--label-flip F]
//!         [--label-dup-frac F] [--churn-every N] [--expect-reloads N]
//!         [--expect-compactions N] [--reload-wait SECS]
//!         [--labels-out PATH] [--strict]
//! ```
//!
//! Workers hold keep-alive connections and issue a mixed `/embed` + `/score`
//! workload. A fraction `--repeat-frac` of requests re-sends a vector from a
//! fixed `--pool` of seeded queries, which is what exercises the server's LRU
//! cache; the rest are fresh vectors. The request *sequence* is fully
//! determined by `--seed` (latencies of course are not), so runs are
//! comparable across commits. A summary JSON lands on stdout and in `--out`
//! (default `results/serve_bench.json`) — the schema is documented in
//! EXPERIMENTS.md and pinned by the `schema` field.
//!
//! `--labels` turns the run into a **live-labeling soak**: a `--label-frac`
//! slice of each worker's requests becomes `POST /label` votes, interleaved
//! with the embed/score reads on the same keep-alive connections, and every
//! `--churn-every` requests the worker drops its connection and reconnects
//! (exercising accept-path churn during ingestion). Votes are *truthful with
//! noise*: the generator regenerates the server's `--live-preset` dataset
//! from `--label-preset`/`--label-n`/`--label-seed` and votes each example's
//! expert label, flipped with probability `--label-flip` — so a server
//! running the retrain loop genuinely learns from the stream. Every vote
//! carries a deterministic `(session, request)` idempotency key, and a
//! `--label-dup-frac` slice of acked votes is immediately re-sent with the
//! same key — the duplicate must answer the *original* receipt verbatim or
//! the run counts a failure. After the load, the generator polls `/metrics`
//! (up to `--reload-wait` seconds) until it has seen `--expect-reloads` hot
//! swaps and `--expect-compactions` WAL compactions, then writes a
//! `label_soak/v2` summary to `--labels-out`. `--strict` fails the run on
//! ANY dropped or failed request — the zero-drop bar the CI soak gate holds
//! the loop to.
//!
//! Exit status: non-zero when no request succeeded, when the server is
//! unreachable, when `--strict` saw a failure, or when `--expect-reloads`
//! or `--expect-compactions` was not reached in time.

use rll_obs::Stopwatch;
use rll_serve::http;
use rll_serve::{EmbedRequest, EmbedResponse, HealthResponse, ScoreRequest, ScoreResponse};
use rll_tensor::Rng64;
use serde::{Deserialize, Serialize};
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;

#[derive(Clone)]
struct Args {
    addr: String,
    requests: usize,
    concurrency: usize,
    seed: u64,
    pool: usize,
    repeat_frac: f64,
    score_frac: f64,
    out: String,
    labels: bool,
    label_frac: f64,
    label_preset: String,
    label_n: usize,
    label_seed: u64,
    label_workers: u32,
    label_flip: f64,
    label_dup_frac: f64,
    churn_every: usize,
    expect_reloads: u64,
    expect_compactions: u64,
    reload_wait_secs: u64,
    labels_out: String,
    strict: bool,
}

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--requests N] [--concurrency C] \
[--seed S] [--pool P] [--repeat-frac F] [--score-frac F] [--out PATH] \
[--labels] [--label-frac F] [--label-preset oral|class] [--label-n N] [--label-seed S] \
[--label-workers N] [--label-flip F] [--label-dup-frac F] [--churn-every N] \
[--expect-reloads N] [--expect-compactions N] [--reload-wait SECS] [--labels-out PATH] [--strict]";

#[derive(Debug, Serialize, Deserialize)]
struct LatencySummary {
    p50: f64,
    p90: f64,
    p99: f64,
    p999: f64,
    mean: f64,
    max: f64,
}

/// Server-side compute, from the engine's `serve.phase.forward` histogram:
/// total seconds spent in forward passes over the run.
#[derive(Debug, Serialize, Deserialize)]
struct PhaseBreakdown {
    compute_secs: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct CacheSummary {
    hits: u64,
    misses: u64,
    hit_rate: f64,
}

/// Rows per forward pass (`serve.batch.size`): the cache misses of one
/// request.
#[derive(Debug, Serialize, Deserialize)]
struct BatchSummary {
    mean_size: f64,
    max_size: f64,
}

/// The `results/label_soak.json` artifact (`--labels` mode), version-pinned
/// by `schema` (`label_soak/v2`). `zero_dropped` is the soak gate's headline
/// bit: every read and every vote got a well-formed success response, across
/// connection churn, duplicate retries, and any hot swaps that happened
/// mid-run.
#[derive(Debug, Serialize, Deserialize)]
struct LabelSoakSummary {
    schema: String,
    addr: String,
    seed: u64,
    votes_sent: usize,
    votes_acked: usize,
    vote_failures: usize,
    /// Deliberate duplicate re-sends of an already-acked idempotency key.
    dup_retries_sent: usize,
    /// Duplicates whose response matched the original receipt exactly.
    dup_receipts_matched: usize,
    reads_sent: usize,
    reads_succeeded: usize,
    read_failures: usize,
    reconnects: usize,
    zero_dropped: bool,
    /// Largest durable vote sequence the server reported after the run.
    high_water_seq: u64,
    /// `serve.model.reloads` observed after waiting.
    reloads_observed: u64,
    /// `label.retrain.rounds` observed after waiting.
    retrain_rounds: u64,
    /// Last `label.retrain.accuracy` gauge (−1 when no round evaluated).
    retrain_accuracy: f64,
    /// `label.compact.runs` observed after waiting.
    compactions: u64,
    /// `label.compact.segments_deleted` observed after waiting.
    segments_deleted: u64,
    /// `label.compact.bytes_reclaimed` observed after waiting.
    bytes_reclaimed: u64,
    /// Live `.rllwal` bytes on disk (`label.wal.bytes` gauge) after waiting.
    wal_bytes: u64,
    /// `label.votes.deduped` — duplicate submissions answered from the
    /// receipt table instead of re-appended.
    votes_deduped: u64,
    /// Workers the last retrain round excluded as probable spammers
    /// (`label.retrain.excluded_workers` gauge; −1 before any round).
    excluded_workers: f64,
    wall_secs: f64,
}

/// The `results/serve_bench.json` artifact, version-pinned by `schema`.
#[derive(Debug, Serialize, Deserialize)]
struct BenchSummary {
    schema: String,
    addr: String,
    seed: u64,
    requests: usize,
    concurrency: usize,
    succeeded: usize,
    failed: usize,
    wall_secs: f64,
    throughput_rps: f64,
    latency_secs: LatencySummary,
    cache: CacheSummary,
    batch: BatchSummary,
    phases: PhaseBreakdown,
}

/// One keep-alive connection speaking the minimal client side of HTTP/1.1.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: String,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            addr: addr.to_string(),
        })
    }

    fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> Option<http::Response> {
        let request = match body {
            Some(b) => format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                self.addr,
                b.len()
            ),
            None => format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n\r\n", self.addr),
        };
        if self.writer.write_all(request.as_bytes()).is_err() {
            return None;
        }
        if self.writer.flush().is_err() {
            return None;
        }
        http::read_response(&mut self.reader).ok()
    }
}

fn main() -> ExitCode {
    let args = match parse(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((summary, soak)) => {
            let json = match serde_json::to_string_pretty(&summary) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("loadgen: cannot serialize summary: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{json}");
            if let Err(e) = write_artifact(&args.out, &json) {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
            if summary.succeeded == 0 {
                eprintln!("loadgen: no request succeeded");
                return ExitCode::FAILURE;
            }
            if let Some(soak) = soak {
                let soak_json = match serde_json::to_string_pretty(&soak) {
                    Ok(j) => j,
                    Err(e) => {
                        eprintln!("loadgen: cannot serialize soak summary: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                println!("{soak_json}");
                if let Err(e) = write_artifact(&args.labels_out, &soak_json) {
                    eprintln!("loadgen: {e}");
                    return ExitCode::FAILURE;
                }
                if args.strict && !soak.zero_dropped {
                    eprintln!(
                        "loadgen: --strict and requests were dropped ({} votes, {} reads)",
                        soak.vote_failures, soak.read_failures
                    );
                    return ExitCode::FAILURE;
                }
                if soak.reloads_observed < args.expect_reloads {
                    eprintln!(
                        "loadgen: expected {} hot reloads, observed {}",
                        args.expect_reloads, soak.reloads_observed
                    );
                    return ExitCode::FAILURE;
                }
                if soak.compactions < args.expect_compactions {
                    eprintln!(
                        "loadgen: expected {} compactions, observed {}",
                        args.expect_compactions, soak.compactions
                    );
                    return ExitCode::FAILURE;
                }
                if soak.dup_receipts_matched < soak.dup_retries_sent {
                    eprintln!(
                        "loadgen: {} of {} duplicate retries did not echo the original receipt",
                        soak.dup_retries_sent - soak.dup_receipts_matched,
                        soak.dup_retries_sent
                    );
                    return ExitCode::FAILURE;
                }
            }
            if args.strict && summary.failed > 0 {
                eprintln!("loadgen: --strict and {} requests failed", summary.failed);
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_artifact(path: &str, json: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("cannot write {path}: {e}"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        addr: String::new(),
        requests: 200,
        concurrency: 4,
        seed: 42,
        pool: 16,
        repeat_frac: 0.5,
        score_frac: 0.2,
        out: "results/serve_bench.json".to_string(),
        labels: false,
        label_frac: 0.35,
        label_preset: "oral".to_string(),
        label_n: 240,
        label_seed: 42,
        label_workers: 4,
        label_flip: 0.1,
        label_dup_frac: 0.0,
        churn_every: 0,
        expect_reloads: 0,
        expect_compactions: 0,
        reload_wait_secs: 90,
        labels_out: "results/label_soak.json".to_string(),
        strict: false,
    };
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => out.addr = take(args, &mut i, "--addr")?,
            "--requests" => {
                out.requests = take(args, &mut i, "--requests")?
                    .parse()
                    .map_err(|_| "invalid --requests".to_string())?
            }
            "--concurrency" => {
                out.concurrency = take(args, &mut i, "--concurrency")?
                    .parse()
                    .map_err(|_| "invalid --concurrency".to_string())?
            }
            "--seed" => {
                out.seed = take(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed".to_string())?
            }
            "--pool" => {
                out.pool = take(args, &mut i, "--pool")?
                    .parse()
                    .map_err(|_| "invalid --pool".to_string())?
            }
            "--repeat-frac" => {
                out.repeat_frac = take(args, &mut i, "--repeat-frac")?
                    .parse()
                    .map_err(|_| "invalid --repeat-frac".to_string())?
            }
            "--score-frac" => {
                out.score_frac = take(args, &mut i, "--score-frac")?
                    .parse()
                    .map_err(|_| "invalid --score-frac".to_string())?
            }
            "--out" => out.out = take(args, &mut i, "--out")?,
            "--labels" => out.labels = true,
            "--label-frac" => {
                out.label_frac = take(args, &mut i, "--label-frac")?
                    .parse()
                    .map_err(|_| "invalid --label-frac".to_string())?
            }
            "--label-preset" => out.label_preset = take(args, &mut i, "--label-preset")?,
            "--label-n" => {
                out.label_n = take(args, &mut i, "--label-n")?
                    .parse()
                    .map_err(|_| "invalid --label-n".to_string())?
            }
            "--label-seed" => {
                out.label_seed = take(args, &mut i, "--label-seed")?
                    .parse()
                    .map_err(|_| "invalid --label-seed".to_string())?
            }
            "--label-workers" => {
                out.label_workers = take(args, &mut i, "--label-workers")?
                    .parse()
                    .map_err(|_| "invalid --label-workers".to_string())?
            }
            "--label-flip" => {
                out.label_flip = take(args, &mut i, "--label-flip")?
                    .parse()
                    .map_err(|_| "invalid --label-flip".to_string())?
            }
            "--label-dup-frac" => {
                out.label_dup_frac = take(args, &mut i, "--label-dup-frac")?
                    .parse()
                    .map_err(|_| "invalid --label-dup-frac".to_string())?
            }
            "--churn-every" => {
                out.churn_every = take(args, &mut i, "--churn-every")?
                    .parse()
                    .map_err(|_| "invalid --churn-every".to_string())?
            }
            "--expect-reloads" => {
                out.expect_reloads = take(args, &mut i, "--expect-reloads")?
                    .parse()
                    .map_err(|_| "invalid --expect-reloads".to_string())?
            }
            "--expect-compactions" => {
                out.expect_compactions = take(args, &mut i, "--expect-compactions")?
                    .parse()
                    .map_err(|_| "invalid --expect-compactions".to_string())?
            }
            "--reload-wait" => {
                out.reload_wait_secs = take(args, &mut i, "--reload-wait")?
                    .parse()
                    .map_err(|_| "invalid --reload-wait".to_string())?
            }
            "--labels-out" => out.labels_out = take(args, &mut i, "--labels-out")?,
            "--strict" => out.strict = true,
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if out.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if out.requests == 0 || out.concurrency == 0 || out.pool == 0 {
        return Err("--requests, --concurrency and --pool must be positive".to_string());
    }
    if !(0.0..=1.0).contains(&out.repeat_frac) || !(0.0..=1.0).contains(&out.score_frac) {
        return Err("--repeat-frac and --score-frac must be in [0, 1]".to_string());
    }
    if !(0.0..=1.0).contains(&out.label_frac) || !(0.0..=1.0).contains(&out.label_flip) {
        return Err("--label-frac and --label-flip must be in [0, 1]".to_string());
    }
    if !(0.0..=1.0).contains(&out.label_dup_frac) {
        return Err("--label-dup-frac must be in [0, 1]".to_string());
    }
    if out.labels {
        if out.label_n == 0 || out.label_workers == 0 {
            return Err("--label-n and --label-workers must be positive".to_string());
        }
        // Churn is the point of the soak: default it on.
        if out.churn_every == 0 {
            out.churn_every = 25;
        }
    }
    Ok(out)
}

/// Per-worker outcome counts.
#[derive(Debug, Default)]
struct WorkerStats {
    succeeded: usize,
    failed: usize,
    latencies: Vec<f64>,
    votes_sent: usize,
    votes_acked: usize,
    vote_failures: usize,
    dup_retries_sent: usize,
    dup_receipts_matched: usize,
    reconnects: usize,
}

fn run(args: &Args) -> Result<(BenchSummary, Option<LabelSoakSummary>), String> {
    // Discover the model's input dimension from the server itself.
    let mut probe =
        Client::connect(&args.addr).map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    let health = probe
        .call("GET", "/healthz", None)
        .ok_or_else(|| "healthz request failed".to_string())?;
    if health.status != 200 {
        return Err(format!("healthz returned {}", health.status));
    }
    let health: HealthResponse = parse_body(&health.body)?;
    let dim = health.input_dim;

    // Truthful vote stream: the same preset the live server folds and
    // retrains on, so the soak's votes carry real signal.
    let truth: std::sync::Arc<Vec<u8>> = std::sync::Arc::new(if args.labels {
        let ds = match args.label_preset.as_str() {
            "oral" => rll_data::presets::oral_scaled(args.label_n, args.label_seed),
            "class" => rll_data::presets::class_scaled(args.label_n, args.label_seed),
            other => return Err(format!("unknown preset {other:?} (use oral|class)")),
        }
        .map_err(|e| format!("cannot generate {} preset: {e}", args.label_preset))?;
        ds.expert_labels
    } else {
        Vec::new()
    });

    // Seeded query pool shared by all workers: the repeated fraction of the
    // workload draws from here, which is what produces cache hits.
    let mut pool_rng = Rng64::seed_from_u64(args.seed);
    let pool: Vec<Vec<f64>> = (0..args.pool)
        .map(|_| {
            let mut v = vec![0.0; dim];
            pool_rng.fill_standard_normal(&mut v);
            v
        })
        .collect();

    let clock = Stopwatch::start();
    let mut handles = Vec::new();
    for worker in 0..args.concurrency {
        let share = args.requests / args.concurrency
            + usize::from(worker < args.requests % args.concurrency);
        let args = args.clone();
        let pool = pool.clone();
        let truth = std::sync::Arc::clone(&truth);
        handles.push(std::thread::spawn(move || {
            worker_loop(&args, worker as u64, share, dim, &pool, &truth)
        }));
    }
    let mut stats = WorkerStats::default();
    for handle in handles {
        let mut w = handle.join().unwrap_or_default();
        stats.succeeded += w.succeeded;
        stats.failed += w.failed;
        stats.votes_sent += w.votes_sent;
        stats.votes_acked += w.votes_acked;
        stats.vote_failures += w.vote_failures;
        stats.dup_retries_sent += w.dup_retries_sent;
        stats.dup_receipts_matched += w.dup_receipts_matched;
        stats.reconnects += w.reconnects;
        stats.latencies.append(&mut w.latencies);
    }
    let wall_secs = clock.elapsed_secs();
    let mut latencies = stats.latencies;
    let (succeeded, failed) = (stats.succeeded, stats.failed);

    // Server-side counters for cache and forward-pass behaviour.
    let metrics = probe
        .call("GET", "/metrics", None)
        .ok_or_else(|| "metrics request failed".to_string())?;
    let metrics: rll_obs::MetricsSnapshot = parse_body(&metrics.body)?;
    let hits = metrics
        .counters
        .get("serve.cache.hits")
        .copied()
        .unwrap_or(0);
    let misses = metrics
        .counters
        .get("serve.cache.misses")
        .copied()
        .unwrap_or(0);
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let (mean_size, max_size) = metrics
        .histograms
        .get("serve.batch.size")
        .map_or((0.0, 0.0), |h| (h.mean, h.max));
    let compute_secs = metrics
        .histograms
        .get("serve.phase.forward")
        .map_or(0.0, |h| h.sum);

    latencies.sort_by(f64::total_cmp);
    let summary = BenchSummary {
        schema: "serve_bench/v3".to_string(),
        addr: args.addr.clone(),
        seed: args.seed,
        requests: args.requests,
        concurrency: args.concurrency,
        succeeded,
        failed,
        wall_secs,
        throughput_rps: if wall_secs > 0.0 {
            succeeded as f64 / wall_secs
        } else {
            0.0
        },
        latency_secs: LatencySummary {
            p50: percentile(&latencies, 0.50),
            p90: percentile(&latencies, 0.90),
            p99: percentile(&latencies, 0.99),
            p999: percentile(&latencies, 0.999),
            mean: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            },
            max: latencies.last().copied().unwrap_or(0.0),
        },
        cache: CacheSummary {
            hits,
            misses,
            hit_rate,
        },
        batch: BatchSummary {
            mean_size,
            max_size,
        },
        phases: PhaseBreakdown { compute_secs },
    };

    let soak = if args.labels {
        // The retrain → hot-reload → compact loop is asynchronous: keep
        // polling /metrics until the expected number of swaps *and*
        // compactions has landed (or the wait budget runs out — the
        // caller's --expect-reloads / --expect-compactions checks will
        // then fail the run).
        let wait = Stopwatch::start();
        let (mut reloads, mut rounds, mut accuracy) = (0u64, 0u64, -1.0f64);
        let (mut compactions, mut segments_deleted, mut bytes_reclaimed) = (0u64, 0u64, 0u64);
        let (mut wal_bytes, mut votes_deduped, mut excluded_workers) = (0u64, 0u64, -1.0f64);
        loop {
            if let Some(m) = fetch_json::<rll_obs::MetricsSnapshot>(&args.addr, "/metrics") {
                let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
                reloads = counter("serve.model.reloads");
                rounds = counter("label.retrain.rounds");
                compactions = counter("label.compact.runs");
                segments_deleted = counter("label.compact.segments_deleted");
                bytes_reclaimed = counter("label.compact.bytes_reclaimed");
                votes_deduped = counter("label.votes.deduped");
                accuracy = m
                    .gauges
                    .get("label.retrain.accuracy")
                    .copied()
                    .unwrap_or(-1.0);
                wal_bytes = m.gauges.get("label.wal.bytes").copied().unwrap_or(0.0) as u64;
                excluded_workers = m
                    .gauges
                    .get("label.retrain.excluded_workers")
                    .copied()
                    .unwrap_or(-1.0);
            }
            if (reloads >= args.expect_reloads && compactions >= args.expect_compactions)
                || wait.elapsed_secs() >= args.reload_wait_secs as f64
            {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
        let high_water_seq = fetch_json::<rll_label::LabelsSnapshot>(&args.addr, "/labels")
            .map_or(0, |s| s.high_water_seq);
        Some(LabelSoakSummary {
            schema: "label_soak/v2".to_string(),
            addr: args.addr.clone(),
            seed: args.seed,
            votes_sent: stats.votes_sent,
            votes_acked: stats.votes_acked,
            vote_failures: stats.vote_failures,
            dup_retries_sent: stats.dup_retries_sent,
            dup_receipts_matched: stats.dup_receipts_matched,
            reads_sent: succeeded + failed,
            reads_succeeded: succeeded,
            read_failures: failed,
            reconnects: stats.reconnects,
            zero_dropped: stats.vote_failures == 0
                && failed == 0
                && stats.dup_receipts_matched == stats.dup_retries_sent,
            high_water_seq,
            reloads_observed: reloads,
            retrain_rounds: rounds,
            retrain_accuracy: accuracy,
            compactions,
            segments_deleted,
            bytes_reclaimed,
            wal_bytes,
            votes_deduped,
            excluded_workers,
            wall_secs: clock.elapsed_secs(),
        })
    } else {
        None
    };
    Ok((summary, soak))
}

/// GET `path` on a fresh connection and parse the JSON body. Fresh because
/// the soak polls across a window where the server may be mid-hot-swap and
/// old keep-alive connections may have been idle-closed.
fn fetch_json<T: serde::Deserialize>(addr: &str, path: &str) -> Option<T> {
    let mut client = Client::connect(addr).ok()?;
    let response = client.call("GET", path, None)?;
    if response.status != 200 {
        return None;
    }
    parse_body(&response.body).ok()
}

/// One worker: a keep-alive connection issuing its share of the workload.
/// In `--labels` mode a `--label-frac` slice of the share becomes votes and
/// the connection is dropped/reopened every `--churn-every` requests.
fn worker_loop(
    args: &Args,
    worker: u64,
    share: usize,
    dim: usize,
    pool: &[Vec<f64>],
    truth: &[u8],
) -> WorkerStats {
    let mut rng =
        Rng64::seed_from_u64(args.seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(worker + 1)));
    let mut stats = WorkerStats::default();
    // Idempotency-key halves: one client session per load worker, one
    // strictly increasing request counter per session. Deterministic, so a
    // re-run of the same seed replays the same keys.
    let session = args.seed ^ (worker + 1);
    let mut request_no: u64 = 0;
    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(_) => {
            stats.failed = share;
            return stats;
        }
    };
    for sent in 0..share {
        // Deliberate connection churn: ingestion must survive clients that
        // come and go mid-stream.
        if args.labels && sent > 0 && sent % args.churn_every == 0 {
            if let Ok(fresh) = Client::connect(&args.addr) {
                client = fresh;
                stats.reconnects += 1;
            }
        }
        if args.labels && rng.bernoulli(args.label_frac) {
            let example = rng.below(truth.len()).unwrap_or(0);
            let mut label = truth[example];
            if rng.bernoulli(args.label_flip) {
                label = 1 - label;
            }
            let vote = rll_label::Vote::new(
                example as u64,
                rng.below(args.label_workers as usize).unwrap_or(0) as u32,
                label,
            )
            .with_key(session, request_no);
            request_no += 1;
            stats.votes_sent += 1;
            let body = match serde_json::to_string(&vote) {
                Ok(b) => b,
                Err(_) => {
                    stats.vote_failures += 1;
                    continue;
                }
            };
            match client.call("POST", "/label", Some(&body)) {
                Some(r) if r.status == 200 && vote_ack_is_sane(&r.body, &vote) => {
                    stats.votes_acked += 1;
                    // Simulated client retry: re-send the identical keyed
                    // body and require the byte-level receipt fields to
                    // match the original ack (idempotent ingest).
                    if rng.bernoulli(args.label_dup_frac) {
                        stats.dup_retries_sent += 1;
                        if let Some(dup) = client.call("POST", "/label", Some(&body)) {
                            if dup.status == 200 && receipts_match(&r.body, &dup.body) {
                                stats.dup_receipts_matched += 1;
                            }
                        }
                    }
                }
                Some(_) => stats.vote_failures += 1,
                None => {
                    stats.vote_failures += 1;
                    match Client::connect(&args.addr) {
                        Ok(fresh) => {
                            client = fresh;
                            stats.reconnects += 1;
                        }
                        Err(_) => {
                            stats.failed += share - sent - 1;
                            break;
                        }
                    }
                }
            }
            continue;
        }
        let pick_pool = rng.bernoulli(args.repeat_frac);
        let vector = |rng: &mut Rng64, pool: &[Vec<f64>], pick_pool: bool| -> Vec<f64> {
            if pick_pool {
                let idx = rng.below(pool.len()).unwrap_or(0);
                pool[idx].clone()
            } else {
                let mut v = vec![0.0; dim];
                rng.fill_standard_normal(&mut v);
                v
            }
        };
        let (path, body) = if rng.bernoulli(args.score_frac) {
            let a = vector(&mut rng, pool, pick_pool);
            let b = vector(&mut rng, pool, pick_pool);
            match serde_json::to_string(&ScoreRequest { a, b }) {
                Ok(b) => ("/score", b),
                Err(_) => {
                    stats.failed += 1;
                    continue;
                }
            }
        } else {
            let features = vec![vector(&mut rng, pool, pick_pool)];
            match serde_json::to_string(&EmbedRequest { features }) {
                Ok(b) => ("/embed", b),
                Err(_) => {
                    stats.failed += 1;
                    continue;
                }
            }
        };
        let timer = Stopwatch::start();
        let response = client.call("POST", path, Some(&body));
        let elapsed = timer.elapsed_secs();
        match response {
            Some(r) if r.status == 200 && response_is_sane(path, &r.body) => {
                stats.succeeded += 1;
                stats.latencies.push(elapsed);
            }
            Some(_) => stats.failed += 1,
            None => {
                stats.failed += 1;
                // The connection is dead (timeout, server restart): reconnect
                // once and keep going.
                match Client::connect(&args.addr) {
                    Ok(c) => {
                        client = c;
                        stats.reconnects += 1;
                    }
                    Err(_) => {
                        stats.failed += share - sent - 1;
                        break;
                    }
                }
            }
        }
    }
    stats
}

/// A vote ack is sane when it echoes the vote and carries a durable, finite
/// receipt: positive sequence number, a vote count that includes this vote,
/// and a finite confidence.
fn vote_ack_is_sane(body: &[u8], vote: &rll_label::Vote) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    serde_json::from_str::<rll_label::IngestReceipt>(text)
        .map(|r| {
            r.seq >= 1
                && r.example == vote.example
                && r.worker == vote.worker
                && r.label == vote.label
                && r.votes >= 1
                && r.confidence.is_finite()
        })
        .unwrap_or(false)
}

/// Two `/label` ack bodies carry the same durable receipt. Parsed (rather
/// than byte-compared) so header/whitespace differences can never matter;
/// `IngestReceipt` equality covers seq, echo fields, counts, and confidence.
fn receipts_match(original: &[u8], duplicate: &[u8]) -> bool {
    let parse = |body: &[u8]| -> Option<rll_label::IngestReceipt> {
        let text = std::str::from_utf8(body).ok()?;
        serde_json::from_str(text).ok()
    };
    match (parse(original), parse(duplicate)) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// Cheap response validation so "succeeded" means a well-formed payload, not
/// just a 200 status line.
fn response_is_sane(path: &str, body: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    match path {
        "/embed" => serde_json::from_str::<EmbedResponse>(text)
            .map(|r| !r.embeddings.is_empty() && r.embeddings.iter().all(|e| e.len() == r.dim))
            .unwrap_or(false),
        // Cosine of a vector with itself can land an ulp above 1.0, so the
        // bound is float-tolerant rather than exact.
        "/score" => serde_json::from_str::<ScoreResponse>(text)
            .map(|r| r.score.is_finite() && r.score.abs() <= 1.0 + 1e-9)
            .unwrap_or(false),
        _ => false,
    }
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 response body".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("unparseable response body: {e}"))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
