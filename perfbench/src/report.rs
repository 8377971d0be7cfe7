//! Turns measured phases into the named metrics of `BENCHMARK.json`.

use std::collections::HashMap;

use crate::common::{
    counter_delta, counter_deltas, histogram_delta, median, percentile, ratio, Op, Phase,
};
use crate::trace::{self, Span};
use crate::workload::Run;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("bytes_per_user_byte", "B/B"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("client.append_self_us", "us"),
    ("client.retries", "count"),
    ("admission.admit_us", "us"),
    ("admission.shed", "count"),
    ("server.append_p50_us", "us"),
    ("server.append_p99_us", "us"),
    ("server.group_size_mean", "appends"),
    ("server.shard_imbalance", "ratio"),
    ("wos.rows_per_block", "rows"),
    ("colossus.bytes_written", "B"),
    ("sms.create_stream_us", "us"),
    ("sms.finalize_stream_us", "us"),
    ("sms.list_read_fragments_us", "us"),
    ("sms.fragments_listed", "count"),
    ("sms.commit_conversion_us", "us"),
    ("query.lookup_self_us", "us"),
    ("query.agg_self_us", "us"),
    ("query.range_self_us", "us"),
    ("query.rows_scanned_per_row_returned", "ratio"),
    ("query.fragments_pruned_frac", "ratio"),
    ("ros.zones_pruned_frac", "ratio"),
    ("ros.bytes_per_row", "B"),
    ("optimizer.convert_p50_us", "us"),
    ("optimizer.convert_max_us", "us"),
    ("optimizer.recluster_p50_us", "us"),
    ("optimizer.recluster_max_us", "us"),
    ("optimizer.rows_per_s", "1/s"),
    ("optimizer.rewrite_ratio", "ratio"),
    ("e2e.rows_per_s", "1/s"),
    ("e2e.append_p50_us", "us"),
    ("e2e.append_p99_us", "us"),
    ("e2e.append_samples", "count"),
    ("e2e.query_p50_us", "us"),
    ("e2e.query_p99_us", "us"),
    ("e2e.query_samples", "count"),
    ("e2e.lookup_p50_us", "us"),
    ("e2e.agg_p50_us", "us"),
    ("e2e.range_p50_us", "us"),
    ("e2e.failed_frac", "ratio"),
    ("trace.overhead.setup_s", "ratio"),
    ("trace.overhead.ops_per_s", "ratio"),
    ("trace.overhead.op_p50_us", "ratio"),
    ("trace.overhead.op_p95_us", "ratio"),
    ("trace.overhead.bytes_per_user_byte", "ratio"),
];

const QUERIES: [Op; 3] = [Op::Lookup, Op::Agg, Op::Range];

/// `(name, value)` pairs; [`render`] attaches the units.
pub type Values = HashMap<&'static str, f64>;

/// The end-to-end metrics of one phase; `setup_s` is the median set-up.
pub fn end_to_end(p: &Phase, setup_s: &[f64]) -> Values {
    let all: Vec<f64> = p.samples.iter().map(|&(_, v)| v).collect();
    HashMap::from([
        ("setup_s", median(setup_s)),
        ("ops_per_s", p.ops() as f64 / p.elapsed.as_secs_f64()),
        ("op_p50_us", percentile(&all, 50.0)),
        ("op_p95_us", percentile(&all, 95.0)),
        (
            "bytes_per_user_byte",
            ratio(p.colossus_after as f64, p.user_bytes_total as f64),
        ),
    ])
}

/// Span durations (or self times) in µs of every `(layer, op)` span.
struct SpanView<'a> {
    spans: &'a [Span],
    self_ns: HashMap<u64, u64>,
}

impl<'a> SpanView<'a> {
    fn new(spans: &'a [Span]) -> Self {
        SpanView {
            spans,
            self_ns: trace::self_times(spans),
        }
    }

    fn durs(&self, layer: &str, op: &str) -> Vec<f64> {
        self.pick(layer, op, |s| s.dur_ns())
    }

    fn self_durs(&self, layer: &str, op: &str) -> Vec<f64> {
        self.pick(layer, op, |s| self.self_ns[&s.id])
    }

    fn pick(&self, layer: &str, op: &str, ns: impl Fn(&Span) -> u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .map(|s| ns(s) as f64 / 1e3)
            .collect()
    }
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// The per-layer metrics of a trace run: layer counts and spans from its
/// traced phase (optimizer spans from the traced set-up too, since on
/// `scan` the optimizer runs only there), end-to-end detail from its
/// untraced phase, and the tracing overhead between the two.
pub fn per_layer(run: &Run) -> Values {
    let t = run
        .traced
        .as_ref()
        .expect("per-layer metrics need a traced phase");
    let u = &run.untraced;
    let v = SpanView::new(&t.spans);
    let mut all_spans = run.setup_spans.clone();
    all_spans.extend_from_slice(&t.spans);
    let va = SpanView::new(&all_spans);
    let c = |name: &str| counter_delta(t, name) as f64;
    let (groups, grouped) = histogram_delta(t, vortex::obs::GROUP_COMMIT_APPENDS);
    let shards: Vec<u64> = counter_deltas(t, vortex::obs::SHARD_APPENDS_PREFIX, ".appends");
    let shard_max = shards.iter().copied().max().unwrap_or(0) as f64;
    let shard_mean = ratio(shards.iter().sum::<u64>() as f64, shards.len() as f64);
    let ot = &t.optimizer_total;
    let rewritten = (ot.converted_rows + ot.reclustered_rows) as f64;
    let shed: u64 = counter_deltas(t, "admission.shed.", "").iter().sum();
    let appends = u.latencies(&[Op::Append]);
    let queries = u.latencies(&QUERIES);
    let e2e_u = end_to_end(u, &run.setup_s[..1]);
    let e2e_t = end_to_end(t, &run.setup_s[run.setup_s.len() - 1..]);
    // Positive = tracing made the metric worse, in its own direction.
    let overhead = |name: &str| match name {
        "ops_per_s" => ratio(e2e_u[name], e2e_t[name]) - 1.0,
        _ => ratio(e2e_t[name], e2e_u[name]) - 1.0,
    };
    HashMap::from([
        (
            "client.append_self_us",
            median(&v.self_durs("client", "append")),
        ),
        ("client.retries", c("append.client.retries")),
        ("admission.admit_us", mean(&v.durs("admission", "admit"))),
        ("admission.shed", shed as f64),
        ("server.append_p50_us", median(&v.durs("server", "append"))),
        (
            "server.append_p99_us",
            percentile(&v.durs("server", "append"), 99.0),
        ),
        (
            "server.group_size_mean",
            ratio(grouped as f64, groups as f64),
        ),
        // Max over mean appends per shard index: 1 is balanced. (Max over
        // min is unbounded once a shard index sees no appends at all.)
        ("server.shard_imbalance", ratio(shard_max, shard_mean)),
        (
            "wos.rows_per_block",
            ratio(c("wos.rows_encoded"), c("wos.blocks_encoded")),
        ),
        (
            "colossus.bytes_written",
            t.colossus_after.saturating_sub(t.colossus_before) as f64,
        ),
        (
            "sms.create_stream_us",
            median(&v.durs("sms", "create_stream")),
        ),
        (
            "sms.finalize_stream_us",
            median(&v.durs("sms", "finalize_stream")),
        ),
        (
            "sms.list_read_fragments_us",
            median(&v.durs("sms", "list_read_fragments")),
        ),
        (
            "sms.fragments_listed",
            ratio(c("scan.fragments_total"), c("scan.calls")),
        ),
        (
            "sms.commit_conversion_us",
            median(&va.durs("sms", "commit_conversion")),
        ),
        (
            "query.lookup_self_us",
            median(&v.self_durs("query", "lookup")),
        ),
        ("query.agg_self_us", median(&v.self_durs("query", "agg"))),
        (
            "query.range_self_us",
            median(&v.self_durs("query", "range")),
        ),
        (
            "query.rows_scanned_per_row_returned",
            ratio(c("scan.rows_scanned"), c("scan.rows_matched")),
        ),
        (
            "query.fragments_pruned_frac",
            ratio(
                c("scan.pruned_by_stats") + c("scan.pruned_by_bloom"),
                c("scan.fragments_total"),
            ),
        ),
        (
            "ros.zones_pruned_frac",
            ratio(c("scan.zones_pruned"), c("scan.zones_total")),
        ),
        (
            "ros.bytes_per_row",
            ratio(ot.converted_bytes as f64, ot.converted_rows as f64),
        ),
        (
            "optimizer.convert_p50_us",
            median(&va.durs("optimizer", "convert")),
        ),
        (
            "optimizer.convert_max_us",
            max(&va.durs("optimizer", "convert")),
        ),
        (
            "optimizer.recluster_p50_us",
            median(&va.durs("optimizer", "recluster")),
        ),
        (
            "optimizer.recluster_max_us",
            max(&va.durs("optimizer", "recluster")),
        ),
        (
            "optimizer.rows_per_s",
            ratio(rewritten, ot.busy.as_secs_f64()),
        ),
        (
            "optimizer.rewrite_ratio",
            ratio(rewritten, t.rows_total as f64),
        ),
        (
            "e2e.rows_per_s",
            u.rows_acked as f64 / u.elapsed.as_secs_f64(),
        ),
        ("e2e.append_p50_us", median(&appends)),
        ("e2e.append_p99_us", percentile(&appends, 99.0)),
        ("e2e.append_samples", appends.len() as f64),
        ("e2e.query_p50_us", median(&queries)),
        ("e2e.query_p99_us", percentile(&queries, 99.0)),
        ("e2e.query_samples", queries.len() as f64),
        ("e2e.lookup_p50_us", median(&u.latencies(&[Op::Lookup]))),
        ("e2e.agg_p50_us", median(&u.latencies(&[Op::Agg]))),
        ("e2e.range_p50_us", median(&u.latencies(&[Op::Range]))),
        (
            "e2e.failed_frac",
            ratio(u.failed as f64, u.attempted as f64),
        ),
        ("trace.overhead.setup_s", overhead("setup_s")),
        ("trace.overhead.ops_per_s", overhead("ops_per_s")),
        ("trace.overhead.op_p50_us", overhead("op_p50_us")),
        ("trace.overhead.op_p95_us", overhead("op_p95_us")),
        (
            "trace.overhead.bytes_per_user_byte",
            overhead("bytes_per_user_byte"),
        ),
    ])
}

/// The result line: every metric of `names`, in order, with its unit.
/// Panics if a metric is missing — the metric sets are fixed.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} not computed"));
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A human-readable summary for stderr, with the sample count behind
/// every percentile.
pub fn summary(p: &Phase) -> String {
    let mut out = format!(
        "{:.2}s measured, {} ops ({} attempted, {} failed), {} rows acked\n",
        p.elapsed.as_secs_f64(),
        p.ops(),
        p.attempted,
        p.failed,
        p.rows_acked
    );
    for (label, ops) in [
        ("append", &[Op::Append][..]),
        ("lookup", &[Op::Lookup][..]),
        ("agg", &[Op::Agg][..]),
        ("range", &[Op::Range][..]),
    ] {
        let l = p.latencies(ops);
        if !l.is_empty() {
            out += &format!(
                "  {label:>6}: n={} p50={:.0}us p95={:.0}us p99={:.0}us max={:.0}us\n",
                l.len(),
                median(&l),
                percentile(&l, 95.0),
                percentile(&l, 99.0),
                max(&l)
            );
        }
    }
    out += &format!(
        "  colossus {} B, user {} B\n",
        p.colossus_after, p.user_bytes_total
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(section, name)` of every metric `BENCHMARK.json` declares.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let names = |m: &[(&str, &str)]| m.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
    }

    #[test]
    fn render_prints_every_metric_with_its_unit() {
        let v: Values = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = render(true, 3, 0, &END_TO_END, &v);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
