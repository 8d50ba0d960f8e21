//! The runtime lock-order witness, exercised through the real serving stack.
//!
//! `cargo test` builds with `debug_assertions`, so the witness is on by
//! default here (no `RLL_LOCK_WITNESS` override needed). The assertions
//! below prove two things the static `lock-order-cycle` rule cannot:
//!
//! 1. the rank-annotated wrappers adopted by the engine/server really are on
//!    the hot path — [`rll_par::lockorder::validations`] strictly increases
//!    while requests flow — and
//! 2. the declared rank ladder (model 20 < cache 40 < train_run_id 50)
//!    holds at runtime for the miss, cache-hit and reload paths: any
//!    inversion would panic the thread and fail the test.

use rll_core::{RllModel, RllModelConfig};
use rll_data::Normalizer;
use rll_obs::Recorder;
use rll_serve::{Checkpoint, EngineConfig, InferenceEngine, ServingModel};
use rll_tensor::{Matrix, Rng64};

const INPUT_DIM: usize = 3;

fn test_checkpoint(seed: u64) -> Checkpoint {
    let mut rng = Rng64::seed_from_u64(seed);
    let config = RllModelConfig {
        hidden_dims: vec![8],
        embedding_dim: 4,
        ..RllModelConfig::for_input(INPUT_DIM)
    };
    let model = RllModel::new(config, &mut rng).expect("model");
    let features = Matrix::from_fn(16, INPUT_DIM, |r, c| (r as f64) * 0.4 - (c as f64) * 1.1);
    let normalizer = Normalizer::fit(&features).expect("normalizer");
    Checkpoint::new(model, normalizer, "witness-test-run").expect("checkpoint")
}

#[test]
fn witness_is_enabled_and_validates_engine_lock_traffic() {
    assert!(
        rll_par::lockorder::witness_enabled(),
        "debug/test builds must run with the lock-order witness on"
    );
    let before = rll_par::lockorder::validations();

    let engine = InferenceEngine::start(
        ServingModel::from_checkpoint(test_checkpoint(11)),
        EngineConfig::default(),
        Recorder::disabled(),
    )
    .expect("engine");

    // A miss reads model(20), then takes cache(40) for the lookup and again
    // for the insert; the repeat only takes cache(40).
    let features = vec![0.25, -1.5, 2.0];
    let a = engine.embed(features.clone()).expect("embed");
    let b = engine.embed(features).expect("embed again (cache hit)");
    assert_eq!(a, b, "cache hit must return the same embedding");

    // Reload takes model.write(), releases it, then takes cache(40); the
    // engine never holds two locks at once.
    engine.reload(ServingModel::from_checkpoint(test_checkpoint(12)));
    engine
        .embed(vec![1.0, 2.0, 3.0])
        .expect("embed after reload");
    engine.shutdown();

    let after = rll_par::lockorder::validations();
    assert!(
        after > before,
        "the witness must observe lock traffic on the serving path \
         (before={before}, after={after})"
    );
}
