//! Output oracles: every answer the program gives is compared, bit for bit,
//! with the same computation done in the benchmark process.

use rll_crowd::ConfidenceEstimator;
use rll_label::{IngestReceipt, LabelsSnapshot, Vote};
use rll_serve::{EmbedResponse, ScoreResponse, ServingModel};
use rll_tensor::Matrix;
use std::fmt;

/// An output that differs from its oracle. Aborts the run.
#[derive(Debug)]
pub struct OracleError(pub String);

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle mismatch: {}", self.0)
    }
}

impl std::error::Error for OracleError {}

fn fail<T>(msg: String) -> Result<T, OracleError> {
    Err(OracleError(msg))
}

/// SplitMix64 finalizer: a seed-mixing bijection.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The benchmark's own input generator (independent of the program's RNG,
/// so a change there cannot change the benchmark's inputs).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0.wrapping_sub(0x9e37_79b9_7f4a_7c15))
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over the bit patterns of a float slice.
pub fn fnv_f64s(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn same_bits(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// In-process embeddings of `rows` (what every `/embed` must return).
pub fn expected_embeddings(model: &ServingModel, rows: &[Vec<f64>]) -> Result<Matrix, OracleError> {
    let raw = Matrix::from_rows(rows).map_err(|e| OracleError(format!("bad request rows: {e}")))?;
    model
        .embed_matrix(&raw)
        .map_err(|e| OracleError(format!("in-process embed failed: {e}")))
}

/// A 2xx `/embed` body must equal `ServingModel::embed_matrix` bit for bit.
pub fn check_embed(model: &ServingModel, rows: &[Vec<f64>], body: &str) -> Result<(), OracleError> {
    let got: EmbedResponse = serde_json::from_str(body)
        .map_err(|e| OracleError(format!("unparsable /embed body ({e}): {body}")))?;
    let want = expected_embeddings(model, rows)?;
    if got.dim != want.cols() || got.embeddings.len() != want.rows() {
        return fail(format!(
            "/embed shape {}x{} differs from {}x{}",
            got.embeddings.len(),
            got.dim,
            want.rows(),
            want.cols()
        ));
    }
    for (i, row) in got.embeddings.iter().enumerate() {
        let expected = want.row(i).map_err(|e| OracleError(e.to_string()))?;
        if !same_bits(row, expected) {
            return fail(format!(
                "/embed row {i} differs from the in-process embedding"
            ));
        }
    }
    Ok(())
}

/// A 2xx `/score` body must equal the cosine of the in-process embeddings.
pub fn check_score(
    model: &ServingModel,
    a: &[f64],
    b: &[f64],
    body: &str,
) -> Result<(), OracleError> {
    let got: ScoreResponse = serde_json::from_str(body)
        .map_err(|e| OracleError(format!("unparsable /score body ({e}): {body}")))?;
    let emb = expected_embeddings(model, &[a.to_vec(), b.to_vec()])?;
    let (ea, eb) = (
        emb.row(0).map_err(|e| OracleError(e.to_string()))?,
        emb.row(1).map_err(|e| OracleError(e.to_string()))?,
    );
    let want = rll_tensor::ops::cosine_similarity(ea, eb)
        .map_err(|e| OracleError(format!("in-process cosine failed: {e}")))?;
    if got.score.to_bits() != want.to_bits() {
        return fail(format!("/score {} differs from {want}", got.score));
    }
    Ok(())
}

/// A `/label` receipt must echo its vote and carry the estimator's
/// confidence for the counts it reports (counts depend on interleaving).
pub fn check_receipt(
    vote: &Vote,
    estimator: &ConfidenceEstimator,
    max_votes: u64,
    body: &str,
) -> Result<IngestReceipt, OracleError> {
    let got: IngestReceipt = serde_json::from_str(body)
        .map_err(|e| OracleError(format!("unparsable /label body ({e}): {body}")))?;
    if (got.example, got.worker, got.label) != (vote.example, vote.worker, vote.label) {
        return fail(format!("receipt {got:?} does not match vote {vote:?}"));
    }
    if got.votes == 0 || got.votes > max_votes || got.positive > got.votes {
        return fail(format!("receipt counts are impossible: {got:?}"));
    }
    let want = estimator
        .positiveness(got.positive as usize, got.votes as usize)
        .map_err(|e| OracleError(e.to_string()))?;
    if got.confidence.to_bits() != want.to_bits() {
        return fail(format!(
            "receipt confidence {} differs from {want}",
            got.confidence
        ));
    }
    Ok(got)
}

/// The final `GET /labels` must equal the in-process tracker fed the same
/// votes, on (example, votes, positive, confidence bits); `seq` fields are
/// ignored because they depend on interleaving.
pub fn check_labels(want: &LabelsSnapshot, body: &str) -> Result<(), OracleError> {
    let got =
        parse_labels(body).map_err(|e| OracleError(format!("unparsable /labels body ({e})")))?;
    if got.votes != want.votes || got.examples.len() != want.examples.len() {
        return fail(format!(
            "/labels has {} cells on {} examples, expected {} on {}",
            got.votes,
            got.examples.len(),
            want.votes,
            want.examples.len()
        ));
    }
    for (g, w) in got.examples.iter().zip(&want.examples) {
        if (g.example, g.votes, g.positive, g.confidence.to_bits())
            != (w.example, w.votes, w.positive, w.confidence.to_bits())
        {
            return fail(format!("/labels entry {g:?} differs from {w:?}"));
        }
    }
    Ok(())
}

/// Parses a `GET /labels` body one example at a time. The vendored JSON
/// parser re-validates the rest of its input for every string character it
/// reads, which is quadratic on a body of thousands of examples; each
/// example object is small. `examples` is the snapshot's last field and its
/// objects hold only numbers, so `},{` splits them.
fn parse_labels(body: &str) -> Result<LabelsSnapshot, String> {
    let (head, rest) = body
        .split_once("\"examples\":[")
        .ok_or("no examples field")?;
    let items = rest
        .strip_suffix("]}")
        .ok_or("examples is not the last field")?;
    let mut snapshot: LabelsSnapshot =
        serde_json::from_str(&format!("{head}\"examples\":[]}}")).map_err(|e| e.to_string())?;
    if !items.is_empty() {
        for item in items.split("},{") {
            let item = format!("{{{}}}", item.trim_start_matches('{').trim_end_matches('}'));
            snapshot
                .examples
                .push(serde_json::from_str(&item).map_err(|e| e.to_string())?);
        }
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_crowd::BetaPrior;
    use rll_label::{ConfidenceTracker, ExampleConfidence, VoteRecord};

    fn model() -> ServingModel {
        let mut rng = rll_tensor::Rng64::seed_from_u64(7);
        let net = rll_core::RllModel::new(rll_core::RllModelConfig::for_input(3), &mut rng)
            .expect("model");
        let x = Matrix::from_rows(&[vec![0.0, 1.0, 2.0], vec![1.0, -1.0, 0.5]]).expect("rows");
        let normalizer = rll_data::Normalizer::fit(&x).expect("normalizer");
        let ckpt = rll_serve::Checkpoint::new(net, normalizer, "test").expect("checkpoint");
        ServingModel::from_checkpoint(ckpt)
    }

    fn flip(v: f64) -> f64 {
        f64::from_bits(v.to_bits() ^ 1)
    }

    fn rows() -> Vec<Vec<f64>> {
        let mut rng = SplitMix::new(3);
        (0..4)
            .map(|_| (0..3).map(|_| rng.next_f64() * 6.0 - 3.0).collect())
            .collect()
    }

    #[test]
    fn embed_oracle_rejects_one_flipped_bit() {
        let model = model();
        let rows = rows();
        let want = expected_embeddings(&model, &rows).expect("embed");
        let mut embeddings: Vec<Vec<f64>> = (0..want.rows())
            .map(|i| want.row(i).expect("row").to_vec())
            .collect();
        let body = |e: &Vec<Vec<f64>>| {
            serde_json::to_string(&EmbedResponse {
                embeddings: e.clone(),
                dim: want.cols(),
            })
            .expect("json")
        };
        check_embed(&model, &rows, &body(&embeddings)).expect("exact body passes");
        embeddings[2][5] = flip(embeddings[2][5]);
        assert!(check_embed(&model, &rows, &body(&embeddings)).is_err());
    }

    #[test]
    fn score_oracle_rejects_one_flipped_bit() {
        let model = model();
        let rows = rows();
        let emb = expected_embeddings(&model, &rows[..2]).expect("embed");
        let score =
            rll_tensor::ops::cosine_similarity(emb.row(0).expect("row"), emb.row(1).expect("row"))
                .expect("cosine");
        let body = |s: f64| serde_json::to_string(&ScoreResponse { score: s }).expect("json");
        check_score(&model, &rows[0], &rows[1], &body(score)).expect("exact body passes");
        assert!(check_score(&model, &rows[0], &rows[1], &body(flip(score))).is_err());
    }

    fn bayes() -> ConfidenceEstimator {
        ConfidenceEstimator::Bayesian(BetaPrior {
            alpha: 1.0,
            beta: 1.0,
        })
    }

    #[test]
    fn receipt_oracle_rejects_one_flipped_bit() {
        let vote = Vote::new(4, 2, 1);
        let receipt = IngestReceipt {
            seq: 9,
            example: 4,
            worker: 2,
            label: 1,
            votes: 3,
            positive: 2,
            confidence: 0.6,
        };
        let body = |r: &IngestReceipt| serde_json::to_string(r).expect("json");
        check_receipt(&vote, &bayes(), 8, &body(&receipt)).expect("exact receipt passes");
        let flipped = IngestReceipt {
            confidence: flip(0.6),
            ..receipt
        };
        assert!(check_receipt(&vote, &bayes(), 8, &body(&flipped)).is_err());
        let wrong_worker = IngestReceipt {
            worker: 3,
            ..receipt
        };
        assert!(check_receipt(&vote, &bayes(), 8, &body(&wrong_worker)).is_err());
    }

    #[test]
    fn labels_oracle_ignores_seq_but_rejects_one_flipped_bit() {
        let mut tracker = ConfidenceTracker::new(bayes()).expect("tracker");
        for (seq, (example, worker, label)) in [(1, 0, 1), (1, 1, 0), (5, 0, 1)].iter().enumerate()
        {
            tracker
                .apply(&VoteRecord {
                    seq: seq as u64 + 1,
                    example: *example,
                    worker: *worker,
                    label: *label,
                    session: None,
                    request: None,
                })
                .expect("apply");
        }
        let want = tracker.snapshot().expect("snapshot");
        let mut got = want.clone();
        got.high_water_seq += 7;
        got.examples[0].last_seq += 3;
        check_labels(&want, &serde_json::to_string(&got).expect("json")).expect("seq ignored");
        let empty = ConfidenceTracker::new(bayes())
            .expect("tracker")
            .snapshot()
            .expect("snapshot");
        check_labels(&empty, &serde_json::to_string(&empty).expect("json")).expect("no votes");
        assert!(check_labels(&want, &serde_json::to_string(&empty).expect("json")).is_err());
        let e: &mut ExampleConfidence = &mut got.examples[1];
        e.confidence = flip(e.confidence);
        assert!(check_labels(&want, &serde_json::to_string(&got).expect("json")).is_err());
    }

    #[test]
    fn json_floats_round_trip_exactly() {
        let mut rng = SplitMix::new(11);
        for _ in 0..10_000 {
            let v = (rng.next_f64() - 0.5) * 10f64.powi(rng.below(20) as i32 - 10);
            let text = serde_json::to_string(&vec![v]).expect("json");
            let back: Vec<f64> = serde_json::from_str(&text).expect("parse");
            assert_eq!(back[0].to_bits(), v.to_bits(), "{text}");
        }
    }
}
