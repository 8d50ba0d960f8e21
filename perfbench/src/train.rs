//! `train_oral`: back-to-back `RllTrainer::fit` runs on the oral preset with
//! the default config, at `threads = nproc` and serial, each dataset scored
//! on its held-out fold as `RllPipeline::fit_evaluate` does.
//!
//! The traced run times the layers from a replica of the trainer's epoch
//! loop built from public calls (see [`replica_fit`]).

use crate::env::{nproc, peak_rss_mb};
use crate::oracle::{fnv_f64s, OracleError};
use crate::report::{Report, Span};
use crate::stats::summarize;
use crate::Args;
use rll_baselines::LogisticRegression;
use rll_core::pipeline::score_predictions;
use rll_core::{GroupSampler, RllConfig, RllModel, RllModelConfig, RllPipeline, RllTrainer};
use rll_crowd::aggregate::{Aggregator, MajorityVote};
use rll_crowd::AnnotationMatrix;
use rll_data::{Normalizer, StratifiedKFold};
use rll_nn::{Adam, GradClip, Mlp, Optimizer};
use rll_tensor::{Matrix, Rng64};
use std::time::Instant;

type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Oral datasets per run (distinct seeds derived from `--seed`).
const DATASETS: usize = 4;

/// Groups per gradient shard in `RllTrainer::fit` (its private
/// `SHARD_GROUPS`); the replica must shard identically.
const SHARD_GROUPS: usize = 16;

/// One oral dataset, split and normalized as `fit_evaluate` does.
struct Prepared {
    seed: u64,
    features: Matrix,
    annotations: AnnotationMatrix,
    expert: Vec<u8>,
    normalizer: Normalizer,
    train_x: Matrix,
    train_ann: AnnotationMatrix,
    test_x: Matrix,
    test_expert: Vec<u8>,
}

/// What one fit produced, reduced to what the oracles compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FitHashes {
    embedding: u64,
    losses: u64,
}

fn dataset_seed(seed: u64, index: usize) -> u64 {
    crate::oracle::mix(seed ^ ((index as u64 + 1) << 32))
}

fn prepare(ds: rll_data::Dataset, seed: u64) -> Result<Prepared, BoxError> {
    let crowd = MajorityVote::positive_ties().hard_labels(&ds.annotations)?;
    let split = StratifiedKFold::new(&crowd, 5, seed)?.split(0)?;
    let train_raw = ds.features.select_rows(&split.train)?;
    let normalizer = Normalizer::fit(&train_raw)?;
    let train_x = normalizer.transform(&train_raw)?;
    Ok(Prepared {
        seed,
        train_ann: ds.annotations.select_items(&split.train)?,
        test_x: ds.features.select_rows(&split.test)?,
        test_expert: split.test.iter().map(|&i| ds.expert_labels[i]).collect(),
        features: ds.features,
        annotations: ds.annotations,
        expert: ds.expert_labels,
        normalizer,
        train_x,
    })
}

/// Times the generation of the run's datasets; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Generates the run's datasets [`SETUP_REPS`] times, timing each pass over
/// all of them as one call (the generator is deterministic, so every pass
/// builds the same datasets).
fn generate(seed: u64, count: usize) -> Result<(Vec<Prepared>, Span), BoxError> {
    let seeds: Vec<u64> = (0..count).map(|i| dataset_seed(seed, i)).collect();
    let mut span = Span::default();
    let mut datasets = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        datasets = seeds
            .iter()
            .map(|&s| rll_data::presets::oral(s))
            .collect::<Result<Vec<_>, _>>()?;
        span.record(start.elapsed().as_secs_f64());
    }
    let prepared = datasets
        .into_iter()
        .zip(&seeds)
        .map(|(ds, &s)| prepare(ds, s))
        .collect::<Result<_, _>>()?;
    Ok((prepared, span))
}

/// One timed `RllTrainer::fit`; returns the wall seconds, the model and the
/// per-epoch losses.
fn timed_fit(p: &Prepared, threads: usize) -> Result<(f64, RllModel, Vec<f64>), BoxError> {
    let start = Instant::now();
    let trainer = RllTrainer::new(RllConfig::default())?.with_threads(threads);
    let (model, trace) = trainer.fit(&p.train_x, &p.train_ann, p.seed)?;
    let secs = start.elapsed().as_secs_f64();
    Ok((secs, model, trace.epoch_losses))
}

fn hashes(p: &Prepared, model: &RllModel, losses: &[f64]) -> Result<FitHashes, BoxError> {
    if let Some(bad) = losses.iter().find(|l| !l.is_finite()) {
        return Err(Box::new(OracleError(format!(
            "dataset seed {}: epoch loss {bad} is not finite",
            p.seed
        ))));
    }
    Ok(FitHashes {
        embedding: fnv_f64s(model.embed(&p.train_x)?.as_slice()),
        losses: fnv_f64s(losses),
    })
}

/// Held-out accuracy of a fitted encoder, following `fit_evaluate`: a
/// logistic regression on the training embeddings against the crowd labels,
/// scored against expert labels on the held-out fold.
fn held_out_accuracy(p: &Prepared, model: &RllModel) -> Result<f64, BoxError> {
    let labels = MajorityVote::positive_ties().hard_labels(&p.train_ann)?;
    let mut classifier = LogisticRegression::with_defaults();
    classifier.fit(&model.embed(&p.train_x)?, &labels)?;
    let test = model.embed(&p.normalizer.transform(&p.test_x)?)?;
    let predictions: Vec<u8> = classifier
        .predict_proba(&test)?
        .into_iter()
        .map(|q| u8::from(q > 0.5))
        .collect();
    Ok(score_predictions(&predictions, &p.test_expert)?.accuracy)
}

/// Checks a fit's hashes against the first fit of the same dataset.
fn check_same(
    first: &mut [Option<FitHashes>],
    d: usize,
    got: FitHashes,
    what: &str,
) -> Result<(), OracleError> {
    match first[d] {
        None => {
            first[d] = Some(got);
            Ok(())
        }
        Some(want) if want == got => Ok(()),
        Some(want) => Err(OracleError(format!(
            "dataset {d}: {what} fit hashes {got:x?} differ from {want:x?}"
        ))),
    }
}

/// Mean held-out accuracy over every dataset, after checking that the
/// in-benchmark scoring equals `RllPipeline::fit_evaluate` on dataset 0.
fn score_all(
    data: &[Prepared],
    models: &[Option<RllModel>],
    report: &mut Report,
) -> Result<f64, BoxError> {
    let mut accuracies = Vec::with_capacity(data.len());
    for (p, model) in data.iter().zip(models) {
        let model = model.as_ref().ok_or("dataset was never fitted")?;
        accuracies.push(held_out_accuracy(p, model)?);
        report.attempted += 1;
    }
    let p = &data[0];
    let reference = RllPipeline::new(RllConfig::default())
        .with_threads(nproc())
        .fit_evaluate(&p.features, &p.annotations, &p.expert, p.seed)?
        .accuracy;
    report.attempted += 1;
    if reference.to_bits() != accuracies[0].to_bits() {
        return Err(Box::new(OracleError(format!(
            "held-out accuracy {} differs from fit_evaluate's {reference}",
            accuracies[0]
        ))));
    }
    Ok(accuracies.iter().sum::<f64>() / accuracies.len() as f64)
}

/// The untraced run: end-to-end metrics only.
pub fn run(args: &Args, report: &mut Report) -> Result<(), BoxError> {
    let config = RllConfig::default();
    let groups = (config.epochs * config.groups_per_epoch) as f64;
    let threads = nproc();
    let (data, preset) = generate(args.seed, DATASETS)?;
    let setup = crate::stats::median(&preset.calls);

    let mut par_secs = Vec::new();
    let mut serial_secs = Vec::new();
    let mut first: Vec<Option<FitHashes>> = vec![None; data.len()];
    let mut models: Vec<Option<RllModel>> = vec![None; data.len()];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    // Each round fits every dataset at nproc threads and serially; at least
    // one round runs whatever the time budget.
    loop {
        for (d, p) in data.iter().enumerate() {
            let (secs, model, losses) = timed_fit(p, threads)?;
            report.attempted += 1;
            par_secs.push(secs);
            check_same(&mut first, d, hashes(p, &model, &losses)?, "nproc")?;
            models[d].get_or_insert(model);
            let (secs, model, losses) = timed_fit(p, 1)?;
            report.attempted += 1;
            serial_secs.push(secs);
            check_same(&mut first, d, hashes(p, &model, &losses)?, "serial")?;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let test_acc = score_all(&data, &models, report)?;

    let par = summarize(&par_secs);
    let serial = summarize(&serial_secs);
    let rates: Vec<f64> = par_secs.iter().map(|s| groups / s).collect();
    let rate = crate::stats::sustained(&rates);
    let rss = peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    report.set("setup_s", setup);
    report.set("peak_rss_mb", rss);
    report.set("throughput_per_s", rate);

    report.row("setup_s", setup, "s", preset.calls.len(), "setup_s");
    report.row("peak_rss_mb", rss, "MB", 1, "peak_rss_mb");
    report.row(
        "train.groups_per_s",
        rate,
        "groups/s",
        par.n,
        "throughput_per_s",
    );
    report.row(
        "train.serial_groups_per_s",
        groups / serial.median,
        "groups/s",
        serial.n,
        "",
    );
    report.row("train.fit_p50_ms", par.median * 1e3, "ms", par.n, "");
    report.row(
        &format!("train.fit_p{}_ms", par.tail_pct),
        par.tail * 1e3,
        "ms",
        par.n,
        "",
    );
    report.row(
        "train.serial_fit_p50_ms",
        serial.median * 1e3,
        "ms",
        serial.n,
        "",
    );
    report.row(
        &format!("train.serial_fit_p{}_ms", serial.tail_pct),
        serial.tail * 1e3,
        "ms",
        serial.n,
        "",
    );
    report.row(
        "train.test_acc",
        test_acc,
        "fraction",
        data.len(),
        "(traced run)",
    );
    report.row(
        "fail_frac",
        0.0,
        "fraction",
        report.attempted as usize,
        "failed/attempted",
    );
    Ok(())
}

/// Per-layer spans of one replica fit.
#[derive(Default)]
struct Layers {
    confidence: Span,
    sample: Span,
    select_rows: Span,
    forward: Span,
    loss: Span,
    backward: Span,
    reduce: Span,
    step: Span,
    fanout: Span,
    forward_rows: u64,
    useful: u64,
    sampled: u64,
    /// Per epoch: slowest shard / mean shard, and idle share of the fan-out.
    imbalance: Vec<f64>,
    idle: Vec<f64>,
    /// Shapes of every forward call, for the flop and byte counts.
    flops: f64,
    bytes: f64,
    tanh: f64,
}

impl Layers {
    fn absorb(&mut self, shard: &ShardSpans) {
        self.select_rows.extend(&shard.select_rows);
        self.forward.extend(&shard.forward);
        self.loss.extend(&shard.loss);
        self.backward.extend(&shard.backward);
        self.forward_rows += shard.rows;
    }

    /// Busy seconds of every layer a fit's wall time is made of.
    fn self_time(&self) -> f64 {
        [
            &self.confidence,
            &self.sample,
            &self.select_rows,
            &self.forward,
            &self.loss,
            &self.backward,
            &self.reduce,
            &self.step,
        ]
        .iter()
        .map(|s| s.busy())
        .sum()
    }
}

#[derive(Default)]
struct ShardSpans {
    select_rows: Span,
    forward: Span,
    loss: Span,
    backward: Span,
    rows: u64,
}

/// Flops and bytes of one `rows × in` by `in × out` matmul, counted from
/// shapes: operands read once, the result written once, 8-byte floats.
fn matmul_cost(rows: usize, inp: usize, out: usize) -> (f64, f64) {
    let flops = 2.0 * (rows * inp * out) as f64;
    let bytes = 8.0 * (rows * inp + inp * out + rows * out) as f64;
    (flops, bytes)
}

/// Replica of `RllTrainer::fit`'s epoch loop (the parent commit's), with a
/// span around every call into a layer. It must produce the same epoch
/// losses as `fit`; the run reports how many epochs still match.
fn replica_fit(
    p: &Prepared,
    config: &RllConfig,
    threads: usize,
    layers: &mut Layers,
) -> Result<Vec<f64>, BoxError> {
    let (features, annotations, seed) = (&p.train_x, &p.train_ann, p.seed);
    let trainer = RllTrainer::new(config.clone())?;
    let start = Instant::now();
    let labels = MajorityVote::positive_ties().hard_labels(annotations)?;
    let positive_prior = labels.iter().filter(|&&l| l == 1).count() as f64 / labels.len() as f64;
    let confidences = trainer.compute_confidences(annotations, &labels, positive_prior)?;
    layers.confidence.record(start.elapsed().as_secs_f64());
    let sampler = GroupSampler::new(&labels, config.k, config.sampling, Some(&confidences))?;

    let mut rng = Rng64::seed_from_u64(seed);
    let model = RllModel::new(
        RllModelConfig {
            input_dim: features.cols(),
            hidden_dims: config.hidden_dims.clone(),
            embedding_dim: config.embedding_dim,
            ..RllModelConfig::for_input(features.cols())
        },
        &mut rng,
    )?;
    let mut mlp: Mlp = model.mlp().clone();
    let dims: Vec<(usize, usize)> = mlp
        .layers()
        .iter()
        .map(|l| (l.in_dim(), l.out_dim()))
        .collect();
    let mut opt = Adam::new(config.learning_rate)?;
    let clip = config.grad_clip.map(GradClip::new).transpose()?;
    let mut losses = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        if let Some(schedule) = &config.lr_schedule {
            opt.set_learning_rate(schedule.at_epoch(epoch));
        }
        let start = Instant::now();
        let (groups, stats) = sampler.sample_batch_with_stats(config.groups_per_epoch, &mut rng)?;
        layers.sample.record(start.elapsed().as_secs_f64());
        layers.sampled += groups.len() as u64;
        layers.useful += groups.len() as u64;
        layers.sampled += stats.rejections + stats.fallbacks;

        mlp.zero_grad();
        let shards = rll_par::fixed_shards(groups.len(), SHARD_GROUPS);
        let fanout_start = Instant::now();
        let (outputs, shard_secs) = {
            let mlp = &mlp;
            let groups = &groups;
            let confidences = &confidences;
            rll_par::try_map_ordered_timed(&shards, threads, |shard_idx, range| {
                let mut shard_rng =
                    Rng64::seed_from_u64(seed ^ ((epoch as u64) << 24) ^ ((shard_idx as u64) << 8));
                let mut local = mlp.clone();
                local.zero_grad();
                let mut spans = ShardSpans::default();
                let mut loss_sum = 0.0;
                for group in &groups[range.clone()] {
                    let members = group.members();
                    let t = Instant::now();
                    let member_features =
                        features.select_rows(&members).map_err(|e| e.to_string())?;
                    spans.select_rows.record(t.elapsed().as_secs_f64());
                    let t = Instant::now();
                    let cache = local
                        .forward_cached(&member_features, &mut shard_rng)
                        .map_err(|e| e.to_string())?;
                    spans.forward.record(t.elapsed().as_secs_f64());
                    spans.rows += members.len() as u64;
                    let t = Instant::now();
                    let cand_conf: Vec<f64> =
                        members[1..].iter().map(|&m| confidences[m]).collect();
                    let (loss, grads) =
                        rll_core::loss::group_softmax_loss(cache.output(), &cand_conf, config.eta)
                            .map_err(|e| e.to_string())?;
                    spans.loss.record(t.elapsed().as_secs_f64());
                    loss_sum += loss;
                    let t = Instant::now();
                    local.backward(&cache, &grads).map_err(|e| e.to_string())?;
                    spans.backward.record(t.elapsed().as_secs_f64());
                }
                Ok::<_, String>((loss_sum, local, spans))
            })?
        };
        let fanout = fanout_start.elapsed().as_secs_f64();
        layers.fanout.record(fanout);
        let mean_shard = shard_secs.iter().sum::<f64>() / shard_secs.len() as f64;
        let max_shard = shard_secs.iter().copied().fold(0.0, f64::max);
        layers.imbalance.push(max_shard / mean_shard);
        let lanes = threads.min(shard_secs.len()).max(1) as f64;
        layers
            .idle
            .push(1.0 - shard_secs.iter().sum::<f64>() / (lanes * fanout));

        let start = Instant::now();
        let mut total_loss = 0.0;
        for (loss_sum, shard_mlp, _) in &outputs {
            total_loss += loss_sum;
            mlp.add_grads_from(shard_mlp)?;
        }
        layers.reduce.record(start.elapsed().as_secs_f64());
        for (_, _, spans) in &outputs {
            layers.absorb(spans);
        }
        for group in &groups {
            let rows = group.members().len();
            for &(inp, out) in &dims {
                // Forward, then the weight and input gradients of backward.
                let (f, b) = matmul_cost(rows, inp, out);
                layers.flops += 3.0 * f;
                layers.bytes += 3.0 * b;
                layers.tanh += (rows * out) as f64;
            }
        }

        let start = Instant::now();
        mlp.scale_grads(1.0 / groups.len() as f64);
        let mut params = mlp.param_grad_pairs();
        let _pre_clip: f64 = params
            .iter()
            .map(|(_, g)| g.frobenius_norm().powi(2))
            .sum::<f64>()
            .sqrt();
        if let Some(clip) = &clip {
            let mut grads: Vec<Matrix> = params.iter().map(|(_, g)| g.clone()).collect();
            clip.clip(&mut grads);
            for ((_, g), clipped) in params.iter_mut().zip(grads) {
                *g = clipped;
            }
        }
        opt.step(params)?;
        layers.step.record(start.elapsed().as_secs_f64());
        losses.push(total_loss / groups.len() as f64);
    }
    Ok(losses)
}

/// The traced run: per-layer metrics from the replica, plus the untraced
/// fits it is compared against.
pub fn run_traced(args: &Args, report: &mut Report) -> Result<(), BoxError> {
    let config = RllConfig::default();
    let threads = nproc();
    let (data, preset) = generate(args.seed, DATASETS)?;
    report.set_span("data.preset", &preset, 1.0);

    // Untraced reference fits: one per dataset (scored), a serial one on
    // dataset 0 for the overhead and unattributed rows.
    let mut models = Vec::with_capacity(data.len());
    let mut reference_losses = Vec::new();
    for p in &data {
        let (_, model, losses) = timed_fit(p, threads)?;
        report.attempted += 1;
        if reference_losses.is_empty() {
            reference_losses = losses;
        }
        models.push(Some(model));
    }
    let test_acc = score_all(&data, &models, report)?;
    report.set("train.test_acc", test_acc);

    let p = &data[0];
    let mut untraced_serial = Vec::new();
    let mut serial = Layers::default();
    let mut parallel = Layers::default();
    let mut serial_walls = Vec::new();
    let mut serial_fits = 0usize;
    let mut matching = usize::MAX;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    loop {
        let (secs, _, _) = timed_fit(p, 1)?;
        untraced_serial.push(secs);
        let start = Instant::now();
        let losses = replica_fit(p, &config, 1, &mut serial)?;
        serial_walls.push(start.elapsed().as_secs_f64());
        serial_fits += 1;
        let par_losses = replica_fit(p, &config, threads, &mut parallel)?;
        report.attempted += 3;
        for trace in [&losses, &par_losses] {
            let same = trace
                .iter()
                .zip(&reference_losses)
                .filter(|(a, b)| a.to_bits() == b.to_bits())
                .count();
            matching = matching.min(same);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let fits = serial_fits as f64;
    report.set_span("crowd.confidence", &serial.confidence, fits);
    report.set_span("core.sample", &serial.sample, fits);
    report.set_span("tensor.select_rows", &serial.select_rows, fits);
    report.set_span("nn.forward", &serial.forward, fits);
    report.set_span("core.loss", &serial.loss, fits);
    report.set_span("nn.backward", &serial.backward, fits);
    report.set_span("nn.reduce", &serial.reduce, fits);
    report.set_span("nn.step", &serial.step, fits);
    // The fan-out and shard balance come from the nproc replica.
    report.set_span("par.fanout", &parallel.fanout, fits);
    report.set(
        "par.shard_imbalance",
        crate::stats::median(&parallel.imbalance),
    );
    report.set("par.idle_share", crate::stats::median(&parallel.idle));
    report.set(
        "core.sample_useful_ratio",
        serial.useful as f64 / serial.sampled as f64,
    );
    report.set(
        "nn.forward_rows_per_call",
        serial.forward_rows as f64 / serial.forward.calls.len() as f64,
    );
    let epochs = fits * config.epochs as f64;
    report.set("nn.tanh_evals", serial.tanh / epochs);
    report.set("tensor.matmul_flops", serial.flops / epochs);
    report.set("tensor.bytes_moved", serial.bytes / epochs);
    let untraced = crate::stats::median(&untraced_serial);
    report.set(
        "train.serial_groups_per_s",
        (config.epochs * config.groups_per_epoch) as f64 / untraced,
    );
    report.set("train.unattributed_s", untraced - serial.self_time() / fits);
    report.set(
        "train.trace_overhead_s",
        crate::stats::median(&serial_walls) - untraced,
    );
    report.set("train.replica_matching_epochs", matching as f64);
    if matching != config.epochs {
        report.table.push(format!(
            "note: the replica's loss trace matches fit for {matching} of {} epochs \
             (the trainer changed since the replica was written)",
            config.epochs
        ));
    }
    report.row("train.replica_fits", fits, "count", serial_fits, "");
    report.row(
        "train.test_acc",
        test_acc,
        "fraction",
        data.len(),
        "train.test_acc",
    );
    Ok(())
}
