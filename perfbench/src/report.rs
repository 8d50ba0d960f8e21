//! Metric names, the human-readable table and the JSON result line.

use crate::env::json_str;
use std::collections::BTreeMap;

/// End-to-end metrics (measured with tracing off), every workload. Each name
/// has one meaning per workload; README.md has the table.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Timed layers of the traced run, by the workloads that load them. Each
/// one reports `<name>_s` (busy seconds), `<name>_calls` and
/// `<name>_median_us`.
pub const TRAIN_LAYERS: &[&str] = &[
    "data.preset",
    "crowd.confidence",
    "core.sample",
    "tensor.select_rows",
    "nn.forward",
    "core.loss",
    "nn.backward",
    "nn.reduce",
    "nn.step",
    "par.fanout",
];
pub const SERVE_LAYERS: &[&str] = &[
    "http.parse",
    "serve.decode",
    "serve.encode",
    "serve.forward",
    "engine.call",
    "server.handler",
];
pub const LABEL_LAYERS: &[&str] = &["label.ingest", "wal.append", "label.tracker_apply"];

/// Per-layer counts, ratios and derived times of the traced run.
pub const TRAIN_VALUES: &[(&str, &str)] = &[
    ("core.sample_useful_ratio", "ratio"),
    ("nn.forward_rows_per_call", "rows"),
    ("nn.tanh_evals", "count"),
    ("tensor.matmul_flops", "flop"),
    ("tensor.bytes_moved", "B"),
    ("par.shard_imbalance", "ratio"),
    ("par.idle_share", "ratio"),
    ("train.unattributed_s", "s"),
    ("train.replica_matching_epochs", "count"),
    ("train.test_acc", "fraction"),
    ("train.trace_overhead_s", "s"),
    ("train.serial_groups_per_s", "1/s"),
];
pub const SERVE_VALUES: &[(&str, &str)] = &[
    ("read.p50_ms", "ms"),
    ("read.tail_ms", "ms"),
    ("side.p50_ms", "ms"),
    ("side.tail_ms", "ms"),
    ("engine.overhead_us", "us"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.batch_mean_size", "rows"),
    ("lru.hit_ratio", "ratio"),
    ("serve.unattributed_ms", "ms"),
    ("serve.trace_overhead_ms", "ms"),
    ("gen.late_ms", "ms"),
];
pub const LABEL_VALUES: &[(&str, &str)] = &[("label.wal_bytes_per_vote", "B")];

/// The per-layer metrics a workload loads, with units, in declaration order.
pub fn layer_metrics(
    layers: &[&[&str]],
    values: &[&[(&str, &'static str)]],
) -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in layers.iter().flat_map(|group| group.iter()) {
        out.push((format!("{layer}_s"), "s"));
        out.push((format!("{layer}_calls"), "count"));
        out.push((format!("{layer}_median_us"), "us"));
    }
    out.extend(
        values
            .iter()
            .flat_map(|group| group.iter())
            .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// Every per-layer metric: the `per_layer` list of `BENCHMARK.json`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    layer_metrics(
        &[TRAIN_LAYERS, SERVE_LAYERS, LABEL_LAYERS],
        &[TRAIN_VALUES, SERVE_VALUES, LABEL_VALUES],
    )
}

/// Busy time of one layer: one entry per call, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Span {
    pub calls: Vec<f64>,
}

impl Span {
    pub fn record(&mut self, secs: f64) {
        self.calls.push(secs);
    }

    pub fn extend(&mut self, other: &Span) {
        self.calls.extend_from_slice(&other.calls);
    }

    pub fn busy(&self) -> f64 {
        self.calls.iter().sum()
    }
}

/// What one run found: metric values, the human table, the tallies.
pub struct Report {
    pub values: BTreeMap<String, f64>,
    pub table: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new() -> Report {
        Report {
            values: BTreeMap::new(),
            table: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a timed layer's spans; `per` divides the busy time and call
    /// count (e.g. the number of fits the spans cover).
    pub fn set_span(&mut self, layer: &str, span: &Span, per: f64) {
        let median = crate::stats::median(&span.calls);
        self.set(&format!("{layer}_s"), span.busy() / per);
        self.set(&format!("{layer}_calls"), span.calls.len() as f64 / per);
        self.set(
            &format!("{layer}_median_us"),
            if median.is_nan() { 0.0 } else { median * 1e6 },
        );
    }

    /// One human-readable row: name, value, unit, sample count and the
    /// result-line metric it is reported under (if any).
    pub fn row(&mut self, name: &str, value: f64, unit: &str, n: usize, reported_as: &str) {
        self.table.push(format!(
            "{name:<28} {value:>14.4} {unit:<9} n={n:<7} {reported_as}"
        ));
    }

    /// Fills every declared metric the workload does not load with 0 (the
    /// layer does no work on this workload), then renders the result line
    /// (printed only when every oracle passed). Fails if a value is not
    /// finite or a required metric is missing.
    pub fn result_line(&mut self, trace: bool, required: &[String]) -> Result<String, String> {
        let names: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        if self.attempted == 0 {
            return Err("the run attempted nothing".to_string());
        }
        for name in required {
            if !self.values.contains_key(name) {
                return Err(format!("metric {name} was not measured"));
            }
        }
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in &names {
            let value = *self.values.entry(name.clone()).or_insert(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                value,
                json_str(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}
