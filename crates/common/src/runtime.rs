//! A region's runtime state: its metrics [`Registry`] and its
//! [`CrashPlan`].
//!
//! The region is the paper's unit of deployment and of measurement
//! (§5.2.1, §8), so it is also the single owner of everything the engine
//! records or consults at run time. A `Region` creates one [`Runtime`]
//! and hands the same `Arc` to every component it builds: servers and
//! their shards, SMS tasks, RPC channels, the admission controller, the
//! optimizer, the metastore's durability layer, clients and query
//! engines. Nothing lives in a process global, so two regions in one
//! process never mix counters, freshness samples or armed crash points.
//! A component built outside a region (a unit test, a standalone bench)
//! creates its own fresh `Runtime`, which is what isolates it.

use std::sync::Arc;

use crate::crashpoints::CrashPlan;
use crate::obs::{MetricsSnapshot, Registry};

/// One region's metrics registry and crash-point plan.
#[derive(Debug, Default)]
pub struct Runtime {
    metrics: Registry,
    crash_points: CrashPlan,
}

impl Runtime {
    /// A fresh runtime: empty registry, nothing armed.
    pub fn new() -> Arc<Runtime> {
        Arc::new(Runtime::default())
    }

    /// The metrics registry every component of the region records into.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The crash-point plan every `crash_point!` of the region checks.
    pub fn crash_points(&self) -> &CrashPlan {
        &self.crash_points
    }

    /// Snapshot of every metric, plus this runtime's crash-point fires.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            crash_point_fires: self.crash_points.fires(),
            ..self.metrics.snapshot()
        }
    }
}
