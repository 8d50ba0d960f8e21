//! `serve_embed` and `serve_label`: a `serve` process on a checkpoint
//! trained in preparation, driven by the benchmark's own load generator.

use crate::client::{closed_loop, encode, one_shot, open_loop, Conn, Kind, Rec, Req};
use crate::env::{nproc, peak_rss_mb};
use crate::oracle::{self, mix, OracleError, SplitMix};
use crate::report::{Report, Span};
use crate::stats::{fail_frac, goodput, summarize, Outcome};
use crate::Args;
use rll_crowd::{BetaPrior, ConfidenceEstimator};
use rll_label::{ConfidenceTracker, Vote, VoteRecord};
use rll_serve::{EmbedRequest, ScoreRequest, ServingModel};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Rows repeated on `serve_embed` come from a pool this large, well under
/// the server's default LRU capacity (1024).
const POOL_ROWS: usize = 256;
/// Live dataset of `serve_label`: `--live-n` examples × `--live-workers`
/// annotators, so there are enough (example, worker) cells to vote each
/// one at most once.
const LIVE_N: u64 = 20_000;
const LIVE_WORKERS: u32 = 8;
/// The server's default WAL layout (`--labels-shards`, `--labels-segment`).
const WAL_SHARDS: u32 = 4;
const WAL_SEGMENT: u64 = 256;
/// Server spawns per run for the `setup_s` median.
const SETUP_SPAWNS: usize = 5;
/// Open-loop rates (requests/s), well under the parent's capacity on a
/// 2-core box, so the schedule measures latency rather than overload.
const EMBED_RATE: f64 = 400.0;
const LABEL_RATE: f64 = 300.0;
/// Share of the measured time spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.5;
/// Closed-loop requests per connection at most: bounds the memory the
/// stored responses take. A lane that reaches it stops early, which ends
/// the phase (goodput counts only the seconds it ran).
const CLOSED_CAP: usize = 150_000;

fn estimator() -> ConfidenceEstimator {
    // The server's default `--labels-estimator bayesian`.
    ConfidenceEstimator::Bayesian(BetaPrior {
        alpha: 1.0,
        beta: 1.0,
    })
}

/// Everything a serve run shares: paths, the checkpoint and its model.
pub struct Ctx<'a> {
    args: &'a Args,
    label: bool,
    dir: PathBuf,
    checkpoint: PathBuf,
    model: ServingModel,
    spawned: usize,
}

/// A running `serve` process; killed and reaped when dropped.
pub struct Server {
    child: Child,
    pub addr: std::net::SocketAddr,
    pub setup_s: f64,
}

impl Server {
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl<'a> Ctx<'a> {
    /// Trains the checkpoint the server will load (preparation, untimed).
    pub fn prepare(args: &'a Args, label: bool, dir: &Path) -> Result<Ctx<'a>, BoxError> {
        let ds = rll_data::presets::oral(args.seed)?;
        let mut pipeline = rll_core::RllPipeline::new(rll_core::RllConfig {
            epochs: 10,
            groups_per_epoch: 128,
            ..rll_core::RllConfig::default()
        });
        pipeline.fit(&ds.features, &ds.annotations, args.seed)?;
        let checkpoint = rll_serve::Checkpoint::from_pipeline(&pipeline, "perfbench")?;
        let path = dir.join("model.rllckpt");
        checkpoint.save(&path)?;
        // The oracle model is read back from the file the server loads.
        let model = ServingModel::from_checkpoint(rll_serve::Checkpoint::load(&path)?);
        Ok(Ctx {
            args,
            label,
            dir: dir.to_path_buf(),
            checkpoint: path,
            model,
            spawned: 0,
        })
    }

    /// Spawns `serve` in a fresh directory (fresh `--labels-dir` too) and
    /// waits for the first `200` on `/healthz`.
    pub fn spawn(&mut self, trace_out: Option<&Path>) -> Result<Server, BoxError> {
        self.spawned += 1;
        let dir = self.dir.join(format!("server-{}", self.spawned));
        std::fs::create_dir_all(&dir)?;
        let port_file = dir.join("port");
        let mut cmd = Command::new(&self.args.serve_bin);
        cmd.arg("--checkpoint")
            .arg(&self.checkpoint)
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .current_dir(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(dir.join("stderr.log"))?)
            .env_remove("RLL_THREADS")
            .env_remove("RLL_KERNEL");
        if self.label {
            cmd.arg("--labels-dir")
                .arg(dir.join("labels"))
                .args(["--live-n", &LIVE_N.to_string()])
                .args(["--live-seed", &self.args.seed.to_string()])
                .args(["--live-workers", &LIVE_WORKERS.to_string()])
                .args(["--compact", "off"]);
        }
        if let Some(path) = trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        let start = Instant::now();
        let child = cmd.spawn()?;
        let mut server = Server {
            child,
            addr: "127.0.0.1:0".parse()?,
            setup_s: 0.0,
        };
        let deadline = start + Duration::from_secs(60);
        loop {
            if let Some(status) = server.child.try_wait()? {
                let log = std::fs::read_to_string(dir.join("stderr.log")).unwrap_or_default();
                return Err(format!("serve exited with {status}: {log}").into());
            }
            if Instant::now() > deadline {
                return Err("serve did not become healthy within 60 s".into());
            }
            if server.addr.port() == 0 {
                if let Ok(text) = std::fs::read_to_string(&port_file) {
                    if let Some(addr) = text.strip_suffix('\n') {
                        server.addr = addr.parse()?;
                    }
                }
            }
            if server.addr.port() != 0 {
                if let Ok(r) = one_shot(server.addr, "GET", "/healthz") {
                    if r.status == 200 {
                        server.setup_s = start.elapsed().as_secs_f64();
                        return Ok(server);
                    }
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Seeded request generator. Rows are perturbed oral feature rows: each
/// fresh row is new with probability 1, pool rows repeat. A clone replays
/// the same requests (the oracles use that instead of storing them).
#[derive(Clone)]
struct Gen {
    rng: SplitMix,
    base: Vec<Vec<f64>>,
    pool: Vec<Vec<f64>>,
    label: bool,
    /// (example, worker) cells this generator may vote, each once.
    cells: std::vec::IntoIter<(u64, u32)>,
    session: u64,
    votes: u64,
}

impl Gen {
    fn new(seed: u64, base: &[Vec<f64>], label: bool, cells: Vec<(u64, u32)>) -> Gen {
        let mut pool_rng = SplitMix::new(mix(seed ^ 0x9001));
        let pool = (0..POOL_ROWS)
            .map(|_| perturb(&mut pool_rng, base))
            .collect();
        Gen {
            rng: SplitMix::new(seed),
            base: base.to_vec(),
            pool,
            label,
            cells: cells.into_iter(),
            session: seed,
            votes: 0,
        }
    }

    fn fresh(&mut self) -> Vec<f64> {
        perturb(&mut self.rng, &self.base)
    }

    /// About half the `serve_embed` rows repeat the pool; `serve_label`
    /// reads only fresh rows.
    fn row(&mut self) -> Vec<f64> {
        if !self.label && self.rng.next_f64() < 0.5 {
            self.pool[self.rng.below(POOL_ROWS as u64) as usize].clone()
        } else {
            self.fresh()
        }
    }

    fn next(&mut self) -> Req {
        let u = self.rng.next_f64();
        if self.label && u < 0.3 {
            if let Some((example, worker)) = self.cells.next() {
                let label = u8::from(self.rng.next_f64() < 0.6);
                self.votes += 1;
                let vote = Vote::new(example, worker, label).with_key(self.session, self.votes);
                let body = serde_json::to_string(&vote).expect("votes serialize");
                return Req {
                    kind: Kind::Vote,
                    bytes: encode("POST", "/label", &body),
                    rows: Vec::new(),
                    vote: Some(vote),
                };
            }
        }
        let multi_share = if self.label { 0.0 } else { 0.2 };
        if u < multi_share {
            let n = 2 + self.rng.below(7) as usize;
            let rows: Vec<Vec<f64>> = (0..n).map(|_| self.row()).collect();
            return embed_req(Kind::EmbedMulti, rows);
        }
        if self.rng.next_f64() < 0.3 {
            let (a, b) = (self.row(), self.row());
            let body = serde_json::to_string(&ScoreRequest {
                a: a.clone(),
                b: b.clone(),
            })
            .expect("requests serialize");
            return Req {
                kind: Kind::Score,
                bytes: encode("POST", "/score", &body),
                rows: vec![a, b],
                vote: None,
            };
        }
        let row = self.row();
        embed_req(Kind::Embed1, vec![row])
    }
}

fn embed_req(kind: Kind, rows: Vec<Vec<f64>>) -> Req {
    let body = serde_json::to_string(&EmbedRequest {
        features: rows.clone(),
    })
    .expect("requests serialize");
    Req {
        kind,
        bytes: encode("POST", "/embed", &body),
        rows,
        vote: None,
    }
}

fn perturb(rng: &mut SplitMix, base: &[Vec<f64>]) -> Vec<f64> {
    let row = &base[rng.below(base.len() as u64) as usize];
    row.iter()
        .map(|v| v * (0.9 + 0.2 * rng.next_f64()) + 0.01 * (rng.next_f64() - 0.5))
        .collect()
}

/// Every (example, worker) cell of the live dataset in seeded order, cut
/// into `parts` disjoint slices (one per generator).
fn cell_slices(seed: u64, parts: usize) -> Vec<Vec<(u64, u32)>> {
    let mut cells: Vec<(u64, u32)> = (0..LIVE_N)
        .flat_map(|e| (0..LIVE_WORKERS).map(move |w| (e, w)))
        .collect();
    let mut rng = SplitMix::new(mix(seed ^ 0xce11));
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let per = cells.len() / parts;
    (0..parts)
        .map(|p| cells[p * per..(p + 1) * per].to_vec())
        .collect()
}

/// The generators of one run: index 0 makes the open-loop plan, index
/// `1 + lane` a closed-loop lane's requests.
fn generators(seed: u64, label: bool, lanes: usize) -> Result<Vec<Gen>, BoxError> {
    let base: Vec<Vec<f64>> = {
        let ds = rll_data::presets::oral(seed)?;
        (0..ds.features.rows())
            .map(|r| ds.features.row(r).map(<[f64]>::to_vec))
            .collect::<Result<_, _>>()?
    };
    let slices = cell_slices(seed, lanes + 1);
    Ok(slices
        .into_iter()
        .enumerate()
        .map(|(i, cells)| Gen::new(mix(seed ^ ((i as u64 + 1) << 40)), &base, label, cells))
        .collect())
}

/// Checks a 2xx answer against its oracle and collects acked votes. A
/// wrong body aborts the run.
fn verify_one(
    model: &ServingModel,
    req: &Req,
    rec: &Rec,
    acked: &mut Vec<Vote>,
) -> Result<(), OracleError> {
    if !rec.is_2xx() {
        return Ok(());
    }
    let body = std::str::from_utf8(&rec.body)
        .map_err(|_| OracleError("response body is not UTF-8".into()))?;
    match req.kind {
        Kind::Embed1 | Kind::EmbedMulti => oracle::check_embed(model, &req.rows, body),
        Kind::Score => oracle::check_score(model, &req.rows[0], &req.rows[1], body),
        Kind::Vote => {
            let vote = req.vote.expect("vote requests carry their vote");
            oracle::check_receipt(&vote, &estimator(), u64::from(LIVE_WORKERS), body)?;
            acked.push(vote);
            Ok(())
        }
    }
}

/// Verifies an open-loop phase against its plan.
fn verify(
    model: &ServingModel,
    plan: &[Req],
    recs: &[Rec],
    acked: &mut Vec<Vote>,
) -> Result<(), OracleError> {
    plan.iter()
        .zip(recs)
        .try_for_each(|(req, rec)| verify_one(model, req, rec, acked))
}

/// The final `GET /labels` must equal a tracker fed the acked votes. Only
/// decidable when no vote was lost in flight.
fn verify_labels(server: &Server, acked: &[Vote], lost_votes: usize) -> Result<(), BoxError> {
    if lost_votes > 0 {
        return Ok(());
    }
    let mut tracker = ConfidenceTracker::new(estimator())?;
    for (i, v) in acked.iter().enumerate() {
        tracker.apply(&VoteRecord {
            seq: i as u64 + 1,
            example: v.example,
            worker: v.worker,
            label: v.label,
            session: v.session,
            request: v.request,
        })?;
    }
    let response = one_shot(server.addr, "GET", "/labels")?;
    if response.status != 200 {
        return Err(format!("GET /labels answered {}", response.status).into());
    }
    oracle::check_labels(&tracker.snapshot()?, std::str::from_utf8(&response.body)?)?;
    Ok(())
}

fn lost_votes(recs: &[Rec]) -> usize {
    recs.iter()
        .filter(|r| r.kind == Kind::Vote && !r.is_2xx())
        .count()
}

fn latencies(recs: &[Rec], side: bool) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.is_2xx() && r.kind.is_side() == side)
        .map(|r| r.latency() * 1e3)
        .collect()
}

/// Goodput of each whole second of the closed loop (by completion time).
fn goodput_windows(outcomes: &[(f64, Outcome)], limit_s: f64, phase_s: f64) -> Vec<f64> {
    let seconds = (phase_s.floor() as usize).max(1);
    let mut windows = vec![Vec::new(); seconds];
    for &(done, outcome) in outcomes {
        if let Some(w) = windows.get_mut(done as usize) {
            w.push(outcome);
        }
    }
    windows.iter().map(|w| goodput(w, limit_s, 1.0)).collect()
}

fn tally(report: &mut Report, recs: &[Rec]) -> usize {
    let failed = recs.iter().filter(|r| !r.is_2xx()).count();
    report.attempted += recs.len() as u64;
    report.failed += failed as u64;
    failed
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, label: bool, dir: &Path, report: &mut Report) -> Result<(), BoxError> {
    let mut ctx = Ctx::prepare(args, label, dir)?;
    let lanes = nproc();
    let rate = if label { LABEL_RATE } else { EMBED_RATE };
    let open_s = args.seconds * OPEN_SHARE;
    let closed_s = args.seconds - open_s;
    let mut gens = generators(args.seed, label, lanes)?;
    let plan: Vec<Req> = (0..(rate * open_s) as usize)
        .map(|_| gens[0].next())
        .collect();

    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_SPAWNS {
        // Earlier servers are killed and reaped before the next one starts;
        // only the last one takes traffic.
        drop(server.take());
        let s = ctx.spawn(None)?;
        setups.push(s.setup_s);
        server = Some(s);
    }
    let server = server.expect("at least one spawn");

    let mut conns: Vec<Conn> = (0..lanes).map(|_| Conn::new(server.addr)).collect();
    let open = open_loop(&mut conns, &plan, rate);
    let replay: Vec<Gen> = gens[1..].to_vec();
    let closed_gens: Vec<std::sync::Mutex<Gen>> =
        gens.drain(1..).map(std::sync::Mutex::new).collect();
    let (lanes_recs, closed_phase) = closed_loop(&mut conns, closed_s, CLOSED_CAP, |lane| {
        closed_gens[lane].lock().expect("lane generator").next()
    });
    drop(conns);

    let mut acked = Vec::new();
    verify(&ctx.model, &plan, &open, &mut acked)?;
    for (mut gen, recs) in replay.into_iter().zip(&lanes_recs) {
        for rec in recs {
            verify_one(&ctx.model, &gen.next(), rec, &mut acked)?;
        }
    }
    let closed: Vec<Rec> = lanes_recs.into_iter().flatten().collect();
    if label {
        let lost = lost_votes(&open) + lost_votes(&closed);
        verify_labels(&server, &acked, lost)?;
        report.attempted += 1;
    }
    let rss = server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    drop(server);

    let failed = tally(report, &open) + tally(report, &closed);
    let attempted = open.len() + closed.len();
    let limit_s = args.latency_limit_ms / 1e3;
    let outcomes: Vec<(f64, Outcome)> = closed
        .iter()
        .map(|r| {
            let outcome = Outcome {
                latency_s: r.latency(),
                ok: r.is_2xx(),
            };
            (r.done, outcome)
        })
        .collect();
    let windows = goodput_windows(&outcomes, limit_s, closed_phase);
    let good = crate::stats::sustained(&windows);
    let reads = summarize(&latencies(&open, false));
    let side = summarize(&latencies(&open, true));
    let loaded_reads = summarize(&latencies(&closed, false));
    let loaded_side = summarize(&latencies(&closed, true));
    let setup = crate::stats::median(&setups);
    let late: Vec<f64> = open.iter().map(|r| (r.sent - r.due) * 1e3).collect();
    let late = summarize(&late);

    report.set("setup_s", setup);
    report.set("peak_rss_mb", rss);
    report.set("throughput_per_s", good);

    let side_name = if label { "vote" } else { "multi_embed" };
    report.row("setup_s", setup, "s", setups.len(), "setup_s");
    report.row("peak_rss_mb", rss, "MB", 1, "peak_rss_mb");
    report.row("read.p50_ms", reads.median, "ms", reads.n, "");
    report.row(
        &format!("read.p{}_ms", reads.tail_pct),
        reads.tail,
        "ms",
        reads.n,
        "",
    );
    report.row(
        &format!("{side_name}.p50_ms"),
        side.median,
        "ms",
        side.n,
        "",
    );
    report.row(
        &format!("{side_name}.p{}_ms", side.tail_pct),
        side.tail,
        "ms",
        side.n,
        "",
    );
    report.row(
        "read.loaded_p50_ms",
        loaded_reads.median,
        "ms",
        loaded_reads.n,
        "",
    );
    report.row(
        &format!("{side_name}.loaded_p50_ms"),
        loaded_side.median,
        "ms",
        loaded_side.n,
        "",
    );
    report.row(
        "goodput_rps",
        good,
        "1/s",
        windows.len(),
        "throughput_per_s",
    );
    report.row(
        "fail_frac",
        fail_frac(attempted, failed),
        "fraction",
        attempted,
        "failed/attempted",
    );
    report.row(
        &format!("gen.late_p{}_ms", late.tail_pct),
        late.tail,
        "ms",
        late.n,
        "",
    );
    let own = peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    report.row("generator.peak_rss_mb", own, "MB", 1, "");
    report.table.push(format!(
        "open loop: {rate} req/s for {open_s:.1} s on {lanes} connections; closed loop: \
         {lanes} connections for {closed_s:.1} s; latency limit {} ms",
        args.latency_limit_ms
    ));
    Ok(())
}

/// `/metrics` deltas: engine queue wait, micro-batch size, LRU hits.
struct EngineStats {
    wait_sum: f64,
    wait_count: f64,
    batch_sum: f64,
    batch_count: f64,
    hits: f64,
    misses: f64,
}

fn engine_stats(server: &Server) -> Result<EngineStats, BoxError> {
    let response = one_shot(server.addr, "GET", "/metrics")?;
    let snap: rll_obs::MetricsSnapshot =
        serde_json::from_str(std::str::from_utf8(&response.body)?)?;
    let hist = |name: &str| {
        snap.histograms
            .get(name)
            .map_or((0.0, 0.0), |h| (h.sum, h.count as f64))
    };
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let (wait_sum, wait_count) = hist("serve.queue.wait_ms");
    let (batch_sum, batch_count) = hist("serve.batch.size");
    Ok(EngineStats {
        wait_sum,
        wait_count,
        batch_sum,
        batch_count,
        hits: counter("serve.cache.hits"),
        misses: counter("serve.cache.misses"),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Handler seconds per trace id from the server's `--trace-out` file: the
/// record's total minus its parse phase (which, on a keep-alive connection,
/// includes the idle wait for the request).
fn handler_secs(path: &Path) -> Result<std::collections::HashMap<String, f64>, BoxError> {
    let mut out = std::collections::HashMap::new();
    for line in std::fs::read_to_string(path)?.lines() {
        let event: serde_json::JsonValue = serde_json::from_str(line)?;
        let Some(trace) = event.field("kind").and_then(|k| k.field("Trace")) else {
            continue;
        };
        let record: rll_obs::TraceRecord = serde::Deserialize::from_value(trace)?;
        let parse: f64 = record
            .phases
            .iter()
            .filter(|p| p.phase == "parse")
            .map(|p| p.secs)
            .sum();
        out.insert(record.trace_id, record.total_secs - parse);
    }
    Ok(out)
}

/// In-process layer timings on the workload's own requests.
fn layer_spans(
    ctx: &Ctx<'_>,
    plan: &[Req],
    dir: &Path,
    report: &mut Report,
) -> Result<(), BoxError> {
    let (mut parse, mut decode, mut forward, mut encode_span) = (
        Span::default(),
        Span::default(),
        Span::default(),
        Span::default(),
    );
    for req in plan {
        let t = Instant::now();
        let parsed =
            rll_serve::http::read_request(&mut std::io::BufReader::new(&req.bytes[..]), 1 << 20)?;
        parse.record(t.elapsed().as_secs_f64());
        let rll_serve::http::ReadOutcome::Request(request) = parsed else {
            return Err("request bytes did not parse".into());
        };
        let body = std::str::from_utf8(&request.body)?;
        let t = Instant::now();
        let rows = match req.kind {
            Kind::Embed1 | Kind::EmbedMulti => serde_json::from_str::<EmbedRequest>(body)?.features,
            Kind::Score => {
                let s: ScoreRequest = serde_json::from_str(body)?;
                vec![s.a, s.b]
            }
            Kind::Vote => {
                let _: Vote = serde_json::from_str(body)?;
                Vec::new()
            }
        };
        decode.record(t.elapsed().as_secs_f64());
        if req.kind == Kind::Vote {
            continue;
        }
        let t = Instant::now();
        let embedded = oracle::expected_embeddings(&ctx.model, &rows)?;
        forward.record(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let json = match req.kind {
            Kind::Score => serde_json::to_string(&rll_serve::ScoreResponse {
                score: rll_tensor::ops::cosine_similarity(embedded.row(0)?, embedded.row(1)?)?,
            })?,
            _ => serde_json::to_string(&rll_serve::EmbedResponse {
                embeddings: (0..embedded.rows())
                    .map(|i| embedded.row(i).map(<[f64]>::to_vec))
                    .collect::<Result<_, _>>()?,
                dim: embedded.cols(),
            })?,
        };
        let mut wire = Vec::with_capacity(json.len() + 128);
        rll_serve::http::write_response(
            &mut wire,
            200,
            "OK",
            "application/json",
            json.as_bytes(),
            true,
        )?;
        encode_span.record(t.elapsed().as_secs_f64());
    }
    report.set_span("http.parse", &parse, 1.0);
    report.set_span("serve.decode", &decode, 1.0);
    report.set_span("serve.forward", &forward, 1.0);
    report.set_span("serve.encode", &encode_span, 1.0);

    // The engine in-process, called from nproc threads.
    let engine = rll_serve::InferenceEngine::start(
        ctx.model.clone(),
        rll_serve::EngineConfig::default(),
        rll_obs::Recorder::disabled(),
    )?;
    let lanes = nproc();
    let reads: Vec<&Req> = plan.iter().filter(|r| r.kind != Kind::Vote).collect();
    let calls: Vec<Span> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let engine = &engine;
                let reads = &reads;
                scope.spawn(move || {
                    let mut span = Span::default();
                    for req in reads.iter().skip(lane).step_by(lanes) {
                        let t = Instant::now();
                        let ok = match req.kind {
                            Kind::Embed1 => engine.embed(req.rows[0].clone()).is_ok(),
                            Kind::EmbedMulti => engine.embed_many(req.rows.clone()).is_ok(),
                            _ => engine
                                .score(req.rows[0].clone(), req.rows[1].clone())
                                .is_ok(),
                        };
                        span.record(t.elapsed().as_secs_f64());
                        assert!(ok, "in-process engine call failed");
                    }
                    span
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine caller panicked"))
            .collect()
    });
    engine.shutdown();
    let mut call = Span::default();
    for span in &calls {
        call.extend(span);
    }
    report.set_span("engine.call", &call, 1.0);
    report.set(
        "engine.overhead_us",
        (crate::stats::median(&call.calls) - crate::stats::median(&forward.calls)) * 1e6,
    );

    // The write path in-process on every serve workload, on votes drawn as
    // `serve_label` draws them (one per cell).
    {
        let mut rng = SplitMix::new(mix(ctx.args.seed ^ 0x1abe1));
        let votes: Vec<Vote> = cell_slices(ctx.args.seed, 1)[0]
            .iter()
            .take(300)
            .enumerate()
            .map(|(i, &(example, worker))| {
                let label = u8::from(rng.next_f64() < 0.6);
                Vote::new(example, worker, label).with_key(ctx.args.seed, i as u64 + 1)
            })
            .collect();
        let store_dir = dir.join("ingest");
        let store = rll_label::LabelStore::open(
            rll_label::LabelStoreConfig {
                dir: store_dir.clone(),
                shards: WAL_SHARDS,
                segment_records: WAL_SEGMENT,
                estimator: estimator(),
                num_examples: LIVE_N,
                max_workers: LIVE_WORKERS,
                dedup_capacity: rll_label::DEFAULT_DEDUP_CAPACITY,
                manifest_path: None,
            },
            rll_obs::Recorder::disabled(),
        )?;
        let mut ingest = Span::default();
        for v in &votes {
            let t = Instant::now();
            store.ingest(*v)?;
            ingest.record(t.elapsed().as_secs_f64());
        }
        drop(store);
        let bytes = rll_label::wal_dir_bytes(&rll_label::WalConfig::new(
            store_dir,
            WAL_SHARDS,
            WAL_SEGMENT,
        )?)?;
        report.set(
            "label.wal_bytes_per_vote",
            ratio(bytes as f64, votes.len() as f64),
        );
        let (mut wal, _) = rll_label::ShardedWal::open(rll_label::WalConfig::new(
            dir.join("wal"),
            WAL_SHARDS,
            WAL_SEGMENT,
        )?)?;
        let mut append = Span::default();
        let mut records = Vec::with_capacity(votes.len());
        for v in &votes {
            let t = Instant::now();
            records.push(wal.append(*v)?);
            append.record(t.elapsed().as_secs_f64());
        }
        let mut tracker = ConfidenceTracker::new(estimator())?;
        let mut apply = Span::default();
        for r in &records {
            let t = Instant::now();
            tracker.apply(r)?;
            apply.record(t.elapsed().as_secs_f64());
        }
        report.set_span("label.ingest", &ingest, 1.0);
        report.set_span("wal.append", &append, 1.0);
        report.set_span("label.tracker_apply", &apply, 1.0);
    }
    Ok(())
}

/// The traced run: an untraced and a traced server on the same open-loop
/// plan, the server's own traces joined on `x-rll-trace`, `/metrics`
/// deltas, then in-process timings of each layer on the same requests.
pub fn run_traced(
    args: &Args,
    label: bool,
    dir: &Path,
    report: &mut Report,
) -> Result<(), BoxError> {
    let mut ctx = Ctx::prepare(args, label, dir)?;
    let lanes = nproc();
    let rate = if label { LABEL_RATE } else { EMBED_RATE };
    let open_s = args.seconds / 2.0;
    let mut gens = generators(args.seed, label, lanes)?;
    let plan: Vec<Req> = (0..(rate * open_s) as usize)
        .map(|_| gens[0].next())
        .collect();

    // Untraced reference: open-loop latencies as a user sees them.
    let untraced_reads = {
        let server = ctx.spawn(None)?;
        let mut conns: Vec<Conn> = (0..lanes).map(|_| Conn::new(server.addr)).collect();
        let recs = open_loop(&mut conns, &plan, rate);
        verify(&ctx.model, &plan, &recs, &mut Vec::new())?;
        tally(report, &recs);
        let side = summarize(&latencies(&recs, true));
        report.set("side.p50_ms", side.median);
        report.set("side.tail_ms", side.tail);
        summarize(&latencies(&recs, false))
    };
    report.set("read.p50_ms", untraced_reads.median);
    report.set("read.tail_ms", untraced_reads.tail);

    let trace_path = dir.join("trace.jsonl");
    let server = ctx.spawn(Some(&trace_path))?;
    let before = engine_stats(&server)?;
    let mut conns: Vec<Conn> = (0..lanes).map(|_| Conn::new(server.addr)).collect();
    let recs = open_loop(&mut conns, &plan, rate);
    drop(conns);
    let after = engine_stats(&server)?;
    let mut acked = Vec::new();
    verify(&ctx.model, &plan, &recs, &mut acked)?;
    tally(report, &recs);
    if label {
        verify_labels(&server, &acked, lost_votes(&recs))?;
    }
    // Trace lines are flushed after the response is written; give the last
    // ones a moment before the server is stopped.
    std::thread::sleep(Duration::from_millis(200));
    drop(server);

    let traced_reads = summarize(&latencies(&recs, false));
    report.set(
        "serve.trace_overhead_ms",
        traced_reads.median - untraced_reads.median,
    );
    let handlers = handler_secs(&trace_path)?;
    let mut handler = Span::default();
    let mut unattributed = Vec::new();
    for rec in recs.iter().filter(|r| r.is_2xx()) {
        if let Some(secs) = rec.trace_id.as_ref().and_then(|id| handlers.get(id)) {
            handler.record(*secs);
            unattributed.push((rec.done - rec.sent - secs) * 1e3);
        }
    }
    report.set_span("server.handler", &handler, 1.0);
    report.set("serve.unattributed_ms", crate::stats::median(&unattributed));
    report.set(
        "engine.queue_wait_ms",
        ratio(
            after.wait_sum - before.wait_sum,
            after.wait_count - before.wait_count,
        ),
    );
    report.set(
        "engine.batch_mean_size",
        ratio(
            after.batch_sum - before.batch_sum,
            after.batch_count - before.batch_count,
        ),
    );
    let hits = after.hits - before.hits;
    report.set(
        "lru.hit_ratio",
        ratio(hits, hits + after.misses - before.misses),
    );
    let late: Vec<f64> = recs.iter().map(|r| (r.sent - r.due) * 1e3).collect();
    report.set("gen.late_ms", summarize(&late).tail);

    let sample = &plan[..plan.len().min(2000)];
    layer_spans(&ctx, sample, dir, report)?;
    report.row(
        "read.p50_ms untraced",
        untraced_reads.median,
        "ms",
        untraced_reads.n,
        "",
    );
    report.row(
        "read.p50_ms traced",
        traced_reads.median,
        "ms",
        traced_reads.n,
        "",
    );
    report.row(
        "server.handler joined",
        handler.calls.len() as f64,
        "count",
        recs.len(),
        "",
    );
    Ok(())
}
