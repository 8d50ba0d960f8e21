//! Inline inference engine.
//!
//! A request runs start to finish on the caller's thread (the HTTP
//! connection handler): every row is validated, looked up in a hand-rolled
//! [`LruCache`] keyed on the FNV-1a hash of the *raw* feature vector, and
//! only the cache misses are stacked into one matrix for a single
//! [`ServingModel::embed_matrix`] forward pass. A multi-row `/embed` costs
//! one forward pass; `/score` is one 2-row pass. Because every output row of
//! the forward pass depends only on its own input row, how rows are grouped
//! into passes never changes a bit of the result (a property the
//! integration tests pin down with exact float equality).
//!
//! There is no queue and no worker pool: concurrency comes from the
//! connection threads themselves, and backpressure sits on the resource that
//! is actually bounded — the server's connection cap
//! ([`crate::ServerConfig::max_connections`]).
//!
//! Hot reload: the serving model lives behind an `RwLock<Arc<ServingModel>>`.
//! [`InferenceEngine::reload`] swaps in a new model and clears the embedding
//! cache (cached rows were computed by the old weights). Each request
//! captures one `Arc` for its whole forward pass, so a swap mid-flight never
//! mixes weights within a request. A reload generation, read before that
//! capture, stops a request that raced a reload from caching rows the old
//! weights computed.
//!
//! Locking: both locks are rank-annotated wrappers from
//! [`rll_par::lockorder`] — model(20) < cache(40) — and the engine never
//! holds them together. The ranks mirror the static lock graph `rll-lint`
//! emits (`results/lock_graph.json`), and debug builds assert them at
//! runtime on every acquisition.

use crate::checkpoint::Checkpoint;
use crate::error::ServeError;
use crate::lru::LruCache;
use crate::Result;
use rll_core::RllModel;
use rll_data::Normalizer;
use rll_obs::{Counter, Histogram, Phase, Recorder, Stopwatch, TraceCtx};
use rll_par::{OrderedMutex, OrderedRwLock};
use rll_tensor::hash::fnv1a_f64s;
use rll_tensor::Matrix;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// LRU embedding-cache entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 1024,
        }
    }
}

/// The frozen model a server process answers queries with: the trained
/// encoder plus its training-time feature normalizer.
#[derive(Debug, Clone)]
pub struct ServingModel {
    model: RllModel,
    normalizer: Normalizer,
}

impl ServingModel {
    /// Unwraps a validated checkpoint.
    pub fn from_checkpoint(checkpoint: Checkpoint) -> Self {
        ServingModel {
            model: checkpoint.model,
            normalizer: checkpoint.normalizer,
        }
    }

    /// Feature dimension requests must carry.
    pub fn input_dim(&self) -> usize {
        self.model.config().input_dim
    }

    /// Embedding dimension responses carry.
    pub fn embedding_dim(&self) -> usize {
        self.model.embedding_dim()
    }

    /// Normalize-then-embed for a whole batch (rows are independent).
    pub fn embed_matrix(&self, raw: &Matrix) -> Result<Matrix> {
        let normalized =
            self.normalizer
                .transform(raw)
                .map_err(|e| ServeError::InvalidRequest {
                    reason: format!("feature normalization failed: {e}"),
                })?;
        Ok(self.model.embed(&normalized)?)
    }
}

/// Metric handles resolved once at start, so the request path never takes
/// the registry lock.
struct EngineMetrics {
    hits: Counter,
    misses: Counter,
    cache_hit: Histogram,
    forward: Histogram,
    /// Rows per forward pass (the cache misses of one request).
    batch_size: Histogram,
}

struct Shared {
    shutdown: AtomicBool,
    model: OrderedRwLock<Arc<ServingModel>>,
    /// Bumped by every reload, under the cache lock, after the model swap.
    /// Its loads are `Acquire` and the bump `AcqRel`; the argument in
    /// [`Shared::cache_rows`] rests on the model and cache locks, which
    /// order every access that matters.
    generation: AtomicU64,
    cache: OrderedMutex<LruCache<Vec<f64>>>,
    recorder: Recorder,
    metrics: EngineMetrics,
}

/// The model one request runs on, and the reload generation read before it
/// was captured.
struct Snapshot {
    generation: u64,
    model: Arc<ServingModel>,
}

impl Shared {
    /// Callers hold the `Arc`, not the lock, so a concurrent reload never
    /// blocks on an in-flight forward pass. The ordered wrappers recover from
    /// poisoning: a panicking caller must not wedge the whole server, and
    /// the cache re-checks its own links.
    fn snapshot(&self) -> Snapshot {
        // Generation first: a model captured before a reload's swap is then
        // paired with a generation the reload has since bumped.
        let generation = self.generation.load(Ordering::Acquire);
        let model = Arc::clone(&self.model.read());
        Snapshot { generation, model }
    }

    /// Caches freshly computed rows, unless a reload bumped the generation
    /// since `generation` was read: those rows may come from the old
    /// weights. A reload that bumps after this check clears them anyway.
    fn cache_rows(&self, generation: u64, rows: Vec<(u64, Vec<f64>)>) {
        let mut cache = self.cache.lock();
        if self.generation.load(Ordering::Acquire) != generation {
            return;
        }
        for (key, row) in rows {
            cache.insert(key, row);
        }
    }
}

/// Shared-model inference front-end; cheap to clone across HTTP connection
/// handlers.
#[derive(Clone)]
pub struct InferenceEngine {
    shared: Arc<Shared>,
}

impl InferenceEngine {
    /// Builds the engine around `model`. Starts no threads.
    pub fn start(model: ServingModel, config: EngineConfig, recorder: Recorder) -> Result<Self> {
        let registry = recorder.metrics();
        let metrics = EngineMetrics {
            hits: registry.counter("serve.cache.hits"),
            misses: registry.counter("serve.cache.misses"),
            cache_hit: registry.latency_histogram("serve.phase.cache_hit"),
            forward: registry.latency_histogram("serve.phase.forward"),
            batch_size: registry.histogram(
                "serve.batch.size",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
        };
        Ok(InferenceEngine {
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                model: OrderedRwLock::new("model", 20, Arc::new(model)),
                generation: AtomicU64::new(0),
                cache: OrderedMutex::new("cache", 40, LruCache::new(config.cache_capacity)),
                recorder,
                metrics,
            }),
        })
    }

    /// The model currently being served. Returns an owned `Arc` snapshot: a
    /// concurrent [`reload`](Self::reload) does not invalidate it.
    pub fn model(&self) -> Arc<ServingModel> {
        self.shared.snapshot().model
    }

    /// Hot-swaps the serving model.
    ///
    /// The embedding cache is cleared (its entries were computed by the old
    /// weights), and in-flight requests finish on whichever model snapshot
    /// they captured without caching its rows. The new model may have
    /// different dimensions; subsequent requests are validated against it.
    pub fn reload(&self, model: ServingModel) {
        *self.shared.model.write() = Arc::new(model);
        {
            let mut cache = self.shared.cache.lock();
            self.shared.generation.fetch_add(1, Ordering::AcqRel);
            cache.clear();
        }
        self.shared
            .recorder
            .metrics()
            .counter("serve.model.reloads")
            .inc();
    }

    /// Embeds one raw feature vector.
    ///
    /// Fails with [`ServeError::DimMismatch`]/[`ServeError::InvalidRequest`]
    /// on bad input and [`ServeError::EngineShutdown`] after
    /// [`shutdown`](Self::shutdown).
    pub fn embed(&self, features: Vec<f64>) -> Result<Vec<f64>> {
        self.embed_traced(features, &TraceCtx::disabled(0, 0))
    }

    /// [`embed`](Self::embed) with a request trace: the forward (or
    /// cache-hit) phase lands in `trace`.
    pub fn embed_traced(&self, features: Vec<f64>, trace: &TraceCtx) -> Result<Vec<f64>> {
        let mut rows = self.embed_rows(vec![features], trace)?;
        rows.pop().ok_or_else(|| ServeError::InvalidRequest {
            reason: "no embedding produced".into(),
        })
    }

    /// Embeds several vectors, preserving order, with one forward pass over
    /// the rows the cache does not hold.
    pub fn embed_many(&self, rows: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>> {
        self.embed_many_traced(rows, &TraceCtx::disabled(0, 0))
    }

    /// [`embed_many`](Self::embed_many) with a request trace.
    pub fn embed_many_traced(
        &self,
        rows: Vec<Vec<f64>>,
        trace: &TraceCtx,
    ) -> Result<Vec<Vec<f64>>> {
        if rows.is_empty() {
            return Err(ServeError::InvalidRequest {
                reason: "empty feature batch".into(),
            });
        }
        self.embed_rows(rows, trace)
    }

    /// Cosine relevance between the embeddings of two raw feature vectors —
    /// the serving form of the paper's eq. 3 relevance score (without the
    /// training-only confidence weight).
    pub fn score(&self, a: Vec<f64>, b: Vec<f64>) -> Result<f64> {
        self.score_traced(a, b, &TraceCtx::disabled(0, 0))
    }

    /// [`score`](Self::score) with a request trace.
    pub fn score_traced(&self, a: Vec<f64>, b: Vec<f64>, trace: &TraceCtx) -> Result<f64> {
        let embedded = self.embed_rows(vec![a, b], trace)?;
        rll_tensor::ops::cosine_similarity(&embedded[0], &embedded[1]).map_err(|e| {
            ServeError::InvalidRequest {
                reason: format!("cosine similarity failed: {e}"),
            }
        })
    }

    /// Lifetime cache hit/miss counts.
    pub fn cache_stats(&self) -> (u64, u64) {
        let cache = self.shared.cache.lock();
        (cache.hits(), cache.misses())
    }

    /// Refuses every later request with [`ServeError::EngineShutdown`].
    /// Requests already past the check finish normally.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Validate, look up, run one forward pass over the misses, cache them,
    /// and answer in request order.
    fn embed_rows(&self, rows: Vec<Vec<f64>>, trace: &TraceCtx) -> Result<Vec<Vec<f64>>> {
        let shared = &*self.shared;
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::EngineShutdown);
        }
        let Snapshot { generation, model } = shared.snapshot();
        let dim = model.input_dim();
        for row in &rows {
            if row.len() != dim {
                return Err(ServeError::DimMismatch {
                    what: "request feature vector",
                    expected: dim,
                    actual: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(ServeError::InvalidRequest {
                    reason: "features must be finite".into(),
                });
            }
        }
        let keys: Vec<u64> = rows.iter().map(|row| fnv1a_f64s(row)).collect();
        let metrics = &shared.metrics;

        let lookup_start = trace.now();
        let lookup = Stopwatch::start();
        let mut out: Vec<Option<Vec<f64>>> = {
            let mut cache = shared.cache.lock();
            keys.iter().map(|&key| cache.get(key)).collect()
        };
        let misses = out.iter().filter(|row| row.is_none()).count();
        let hits = rows.len() - misses;
        metrics.hits.add(hits as u64);
        metrics.misses.add(misses as u64);
        if hits > 0 {
            let secs = lookup.elapsed_secs();
            metrics.cache_hit.observe(secs);
            trace.record(Phase::CacheHit, lookup_start, secs);
        }

        if misses > 0 {
            let mut data = Vec::with_capacity(misses * dim);
            for (row, _) in rows.iter().zip(&out).filter(|(_, hit)| hit.is_none()) {
                data.extend_from_slice(row);
            }
            let batch =
                Matrix::from_vec(misses, dim, data).map_err(|e| ServeError::InvalidRequest {
                    reason: format!("batch assembly failed: {e}"),
                })?;
            let forward_start = trace.now();
            let forward = Stopwatch::start();
            let result = model.embed_matrix(&batch);
            let secs = forward.elapsed_secs();
            metrics.forward.observe(secs);
            metrics.batch_size.observe(misses as f64);
            trace.record(Phase::Forward, forward_start, secs);
            let embeddings = result.map_err(|e| ServeError::InvalidRequest {
                reason: format!("inference failed: {e}"),
            })?;
            let mut computed = embeddings.rows_iter();
            let mut fresh = Vec::with_capacity(misses);
            for (slot, &key) in out.iter_mut().zip(&keys) {
                if slot.is_none() {
                    let row = computed.next().map(<[f64]>::to_vec).unwrap_or_default();
                    fresh.push((key, row.clone()));
                    *slot = Some(row);
                }
            }
            shared.cache_rows(generation, fresh);
        }
        Ok(out.into_iter().map(Option::unwrap_or_default).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_core::RllModelConfig;
    use rll_tensor::Rng64;

    fn tiny_model(seed: u64) -> ServingModel {
        let mut rng = Rng64::seed_from_u64(seed);
        let config = RllModelConfig {
            hidden_dims: vec![6],
            embedding_dim: 4,
            ..RllModelConfig::for_input(3)
        };
        let model = RllModel::new(config, &mut rng).unwrap();
        let features = Matrix::from_fn(12, 3, |r, c| (r as f64) * 0.3 - (c as f64) * 0.7);
        let normalizer = Normalizer::fit(&features).unwrap();
        ServingModel { model, normalizer }
    }

    fn engine(seed: u64, config: EngineConfig) -> InferenceEngine {
        InferenceEngine::start(tiny_model(seed), config, Recorder::disabled()).unwrap()
    }

    fn direct_row(model: &ServingModel, x: &[f64]) -> Vec<f64> {
        model
            .embed_matrix(&Matrix::from_rows(&[x.to_vec()]).unwrap())
            .unwrap()
            .row(0)
            .unwrap()
            .to_vec()
    }

    #[test]
    fn embed_matches_direct_forward_exactly() {
        let model = tiny_model(1);
        let eng =
            InferenceEngine::start(model.clone(), EngineConfig::default(), Recorder::disabled())
                .unwrap();
        let x = vec![0.5, -1.0, 2.0];
        assert_eq!(eng.embed(x.clone()).unwrap(), direct_row(&model, &x));
        eng.shutdown();
    }

    #[test]
    fn cache_hits_on_repeat_and_skip_the_forward_pass() {
        let recorder = Recorder::disabled();
        let eng = InferenceEngine::start(tiny_model(2), EngineConfig::default(), recorder.clone())
            .unwrap();
        let x = vec![1.0, 2.0, 3.0];
        let first = eng.embed(x.clone()).unwrap();
        let second = eng.embed(x.clone()).unwrap();
        assert_eq!(first, second);
        assert_eq!(eng.cache_stats(), (1, 1));
        let forwards = recorder.metrics().snapshot().histograms["serve.batch.size"].count;
        assert_eq!(forwards, 1, "the repeat must not run a forward pass");
        eng.shutdown();
    }

    #[test]
    fn rejects_bad_dims_and_non_finite() {
        let eng = engine(3, EngineConfig::default());
        assert!(matches!(
            eng.embed(vec![1.0, 2.0]),
            Err(ServeError::DimMismatch {
                expected: 3,
                actual: 2,
                ..
            })
        ));
        assert!(matches!(
            eng.embed(vec![1.0, f64::NAN, 0.0]),
            Err(ServeError::InvalidRequest { .. })
        ));
        assert!(matches!(
            eng.embed_many(vec![]),
            Err(ServeError::InvalidRequest { .. })
        ));
        // One bad row fails the whole request before any forward pass.
        assert!(matches!(
            eng.embed_many(vec![vec![0.0; 3], vec![f64::INFINITY, 0.0, 0.0]]),
            Err(ServeError::InvalidRequest { .. })
        ));
        assert_eq!(eng.cache_stats(), (0, 0));
        eng.shutdown();
    }

    #[test]
    fn embed_many_is_order_preserving() {
        let eng = engine(4, EngineConfig::default());
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, -(i as f64), 0.5 * i as f64])
            .collect();
        let batched = eng.embed_many(rows.clone()).unwrap();
        for (row, got) in rows.into_iter().zip(&batched) {
            let single = eng.embed(row).unwrap();
            assert_eq!(&single, got);
        }
        eng.shutdown();
    }

    #[test]
    fn multi_row_request_runs_one_forward_over_its_misses_only() {
        let model = tiny_model(13);
        let recorder = Recorder::disabled();
        let eng = InferenceEngine::start(model.clone(), EngineConfig::default(), recorder.clone())
            .unwrap();
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.1 * i as f64, 1.0 - i as f64, 2.0])
            .collect();
        // Warm rows 1 and 4; the 6-row request then misses on 4 rows.
        eng.embed(rows[1].clone()).unwrap();
        eng.embed(rows[4].clone()).unwrap();
        let got = eng.embed_many(rows.clone()).unwrap();
        for (row, embedding) in rows.iter().zip(&got) {
            assert_eq!(embedding, &direct_row(&model, row));
        }
        assert_eq!(eng.cache_stats(), (2, 6));
        let sizes = &recorder.metrics().snapshot().histograms["serve.batch.size"];
        assert_eq!(sizes.count, 3, "two warm-up passes and one for the request");
        assert_eq!(sizes.sum, 6.0, "1 + 1 + the 4 misses");
        eng.shutdown();
    }

    #[test]
    fn score_is_cosine_of_embeddings() {
        let eng = engine(5, EngineConfig::default());
        let a = vec![1.0, 0.0, -1.0];
        let b = vec![0.0, 2.0, 1.0];
        let s = eng.score(a.clone(), b.clone()).unwrap();
        let ea = eng.embed(a.clone()).unwrap();
        let eb = eng.embed(b.clone()).unwrap();
        let expected = rll_tensor::ops::cosine_similarity(&ea, &eb).unwrap();
        assert!((s - expected).abs() < 1e-15);
        // Self-similarity of a cached embedding is exactly 1 (same bits).
        let self_score = eng.score(a.clone(), a).unwrap();
        assert!((self_score - 1.0).abs() < 1e-12);
        eng.shutdown();
    }

    #[test]
    fn traced_embed_records_forward_and_cache_hit_phases() {
        let recorder = Recorder::disabled();
        let eng = InferenceEngine::start(tiny_model(20), EngineConfig::default(), recorder.clone())
            .unwrap();
        let trace = TraceCtx::recording(0, 0);
        let x = vec![0.5, 1.0, -2.0];
        eng.embed_traced(x.clone(), &trace).unwrap();
        // Repeat is a cache hit, recorded as its own phase.
        eng.embed_traced(x, &trace).unwrap();
        let record = trace.finish("POST", "/embed", 200).unwrap();
        let names: Vec<&str> = record.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, ["forward", "cache_hit"]);
        assert!(record
            .phases
            .windows(2)
            .all(|w| w[0].start_secs <= w[1].start_secs));
        let snap = recorder.metrics().snapshot();
        for histogram in [
            "serve.phase.forward",
            "serve.phase.cache_hit",
            "serve.batch.size",
        ] {
            assert!(
                snap.histograms.get(histogram).is_some_and(|h| h.count == 1),
                "expected one sample in {histogram}"
            );
        }
        eng.shutdown();
    }

    #[test]
    fn shutdown_then_submit_errors() {
        let eng = engine(6, EngineConfig::default());
        eng.shutdown();
        assert!(matches!(
            eng.embed(vec![0.0, 0.0, 0.0]),
            Err(ServeError::EngineShutdown)
        ));
        assert!(matches!(
            eng.score(vec![0.0; 3], vec![1.0; 3]),
            Err(ServeError::EngineShutdown)
        ));
    }

    #[test]
    fn reload_swaps_model_and_clears_cache() {
        let eng = engine(9, EngineConfig::default());
        let x = vec![0.25, -0.5, 1.5];
        let before = eng.embed(x.clone()).unwrap();
        let cached = eng.embed(x.clone()).unwrap();
        assert_eq!(before, cached);
        assert_eq!(eng.cache_stats(), (1, 1));

        let new_model = tiny_model(10);
        let expected = direct_row(&new_model, &x);
        eng.reload(new_model);
        let after = eng.embed(x.clone()).unwrap();
        assert_ne!(before, after);
        assert_eq!(after, expected);
        // Hit/miss counters are lifetime stats; the post-reload lookup was a
        // miss because the cache was cleared.
        assert_eq!(eng.cache_stats(), (1, 2));
        eng.shutdown();
    }

    #[test]
    fn rows_computed_before_a_reload_are_not_cached_after_it() {
        // The interleaving of a request that raced a reload, step by step:
        // it snapshots the old model, the reload swaps and clears, and only
        // then does the request try to cache what the old weights computed.
        let old_model = tiny_model(14);
        let new_model = tiny_model(15);
        let eng = InferenceEngine::start(
            old_model.clone(),
            EngineConfig::default(),
            Recorder::disabled(),
        )
        .unwrap();
        let x = vec![0.75, -0.25, 1.0];
        let snapshot = eng.shared.snapshot();
        let stale = direct_row(&snapshot.model, &x);
        eng.reload(new_model.clone());
        eng.shared
            .cache_rows(snapshot.generation, vec![(fnv1a_f64s(&x), stale.clone())]);

        let served = eng.embed(x.clone()).unwrap();
        assert_eq!(eng.cache_stats(), (0, 1), "the stale row must not be hit");
        assert_eq!(served, direct_row(&new_model, &x));
        assert_ne!(served, stale);
        eng.shutdown();
    }

    #[test]
    fn reload_revalidates_dims_against_the_new_model() {
        let eng = engine(11, EngineConfig::default());
        let mut rng = Rng64::seed_from_u64(12);
        let config = RllModelConfig {
            hidden_dims: vec![5],
            embedding_dim: 2,
            ..RllModelConfig::for_input(2)
        };
        let model = RllModel::new(config, &mut rng).unwrap();
        let features = Matrix::from_fn(9, 2, |r, c| (r as f64) * 0.4 - c as f64);
        let normalizer = Normalizer::fit(&features).unwrap();
        eng.reload(ServingModel { model, normalizer });
        assert!(matches!(
            eng.embed(vec![1.0, 2.0, 3.0]),
            Err(ServeError::DimMismatch {
                expected: 2,
                actual: 3,
                ..
            })
        ));
        assert_eq!(eng.embed(vec![1.0, 2.0]).unwrap().len(), 2);
        assert_eq!(eng.model().embedding_dim(), 2);
        eng.shutdown();
    }

    #[test]
    fn concurrent_callers_each_get_their_own_rows() {
        let model = tiny_model(8);
        let eng = InferenceEngine::start(
            model.clone(),
            EngineConfig { cache_capacity: 0 },
            Recorder::disabled(),
        )
        .unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (e, model) = (eng.clone(), model.clone());
                std::thread::spawn(move || {
                    for i in 0..16 {
                        let v = vec![t as f64, i as f64, (t * i) as f64];
                        assert_eq!(e.embed(v.clone()).unwrap(), direct_row(&model, &v));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        eng.shutdown();
    }
}
