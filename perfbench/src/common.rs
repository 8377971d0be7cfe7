//! What every workload shares: the region under test, measured phases,
//! percentiles and counter deltas.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vortex::ids::TableId;
use vortex::obs::MetricsSnapshot;
use vortex::{Expr, Region, RegionConfig, ScanOptions};
use vortex_common::rpc::RpcInterceptor;

use crate::trace;

/// The region every workload drives: `RegionConfig::default()` —
/// `WriteProfile::instant()`, zero virtual latency, no faults armed.
pub fn region() -> Region {
    Region::create(RegionConfig::default()).expect("region with the default config")
}

/// Routes both RPC channels through the span-recording interceptor
/// (`on`) or straight to the admission controller (`!on`), and switches
/// span recording to match. Call only while no load thread runs.
pub fn set_tracing(region: &Region, on: bool) {
    let admission: Arc<dyn RpcInterceptor> = region.admission().clone();
    let icpt: Arc<dyn RpcInterceptor> = if on {
        trace::TimingInterceptor::new(admission)
    } else {
        admission
    };
    region.sms_rpc().set_interceptor(icpt.clone());
    region.server_rpc().set_interceptor(icpt);
    trace::set_enabled(on);
}

/// Scan options of every benchmark query: the engine defaults.
pub fn scan_options(predicate: Expr) -> ScanOptions {
    ScanOptions {
        predicate,
        ..ScanOptions::default()
    }
}

/// Bytes stored across every Colossus cluster of the region (both WOS
/// replicas, server WALs, ROS blocks, metastore WAL and checkpoints).
pub fn colossus_bytes(region: &Region) -> u64 {
    let fleet = region.fleet();
    fleet
        .cluster_ids()
        .into_iter()
        .filter_map(|id| fleet.get(id).ok())
        .map(|c| {
            c.list("")
                .unwrap_or_default()
                .iter()
                .map(|p| c.len(p).unwrap_or(0))
                .sum::<u64>()
        })
        .sum()
}

/// Outcome of one [`optimizer_pass`].
#[derive(Debug, Default)]
pub struct Pass {
    pub totals: OptimizerTotals,
    pub failed: u64,
}

/// One optimizer pass — conversion, recluster, metadata compaction, the
/// three `StorageOptimizer` passes the Storage Optimization Service
/// runs — each in its own span. `ros_rows` tracks the live ROS rows of
/// the table (no DML runs, so a recluster merge rewrites all of them).
pub fn optimizer_pass(region: &Region, table: TableId, ros_rows: &mut u64) -> Pass {
    let opt = region.optimizer();
    let mut pass = Pass::default();
    let t = Instant::now();
    match trace::span("optimizer", "convert", || opt.convert_wos(table)) {
        Ok(r) => {
            pass.totals.converted_rows += r.rows;
            pass.totals.converted_bytes += r.bytes_out;
            *ros_rows += r.rows;
        }
        Err(e) => {
            pass.failed += 1;
            eprintln!("optimizer: convert failed: {e}");
        }
    }
    match trace::span("optimizer", "recluster", || opt.recluster(table)) {
        Ok(r) if r.merged => pass.totals.reclustered_rows += *ros_rows,
        Ok(_) => {}
        Err(e) => {
            pass.failed += 1;
            eprintln!("optimizer: recluster failed: {e}");
        }
    }
    if let Err(e) = trace::span("optimizer", "compact", || opt.compact_metadata(table)) {
        pass.failed += 1;
        eprintln!("optimizer: compact failed: {e}");
    }
    pass.totals.busy = t.elapsed();
    pass
}

/// Which foreground operation a latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Append,
    Lookup,
    Agg,
    Range,
}

/// Totals of the optimizer passes a phase ran, from their reports.
#[derive(Debug, Clone, Default)]
pub struct OptimizerTotals {
    /// Rows written into ROS by conversion.
    pub converted_rows: u64,
    /// ROS bytes written by conversion (one replica).
    pub converted_bytes: u64,
    /// Rows rewritten by recluster merges.
    pub reclustered_rows: u64,
    /// Wall time inside the three passes.
    pub busy: Duration,
}

/// One measured phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    pub elapsed: Duration,
    /// Every call the workload made.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Latency samples in µs, by operation.
    pub samples: Vec<(Op, f64)>,
    pub rows_acked: u64,
    /// Optimizer passes run on this region so far, set-up included.
    pub optimizer_total: OptimizerTotals,
    /// Rows ingested into this region so far, set-up included.
    pub rows_total: u64,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub colossus_before: u64,
    pub colossus_after: u64,
    /// Logical row bytes ingested into the region so far (set-up included).
    pub user_bytes_total: u64,
    pub spans: Vec<trace::Span>,
}

impl Phase {
    pub fn latencies(&self, ops: &[Op]) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(o, _)| ops.contains(o))
            .map(|&(_, v)| v)
            .collect()
    }

    pub fn ops(&self) -> usize {
        self.samples.len()
    }
}

/// Nearest-rank percentile (`q` in 0..=100); 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn counter_delta(p: &Phase, name: &str) -> u64 {
    let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
    get(&p.after).saturating_sub(get(&p.before))
}

/// Sum of the deltas of every counter named `<prefix>*<suffix>`.
pub fn counter_deltas(p: &Phase, prefix: &str, suffix: &str) -> Vec<u64> {
    p.after
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(k, v)| v.saturating_sub(p.before.counters.get(k).copied().unwrap_or(0)))
        .collect()
}

/// `(count, sum)` recorded into a histogram during the phase.
pub fn histogram_delta(p: &Phase, name: &str) -> (u64, u64) {
    let get = |s: &MetricsSnapshot| s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c0, s0) = get(&p.before);
    let (c1, s1) = get(&p.after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
