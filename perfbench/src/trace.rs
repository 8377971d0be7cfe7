//! In-memory spans recorded from outside the engine.
//!
//! A span is `(layer, op)` plus wall-clock start/end, its own id, the id
//! of the span open on the same thread when it began (its parent) and
//! the id of the root of that stack (its trace). Spans are kept in one
//! process-wide buffer while tracing is on and are written out when the
//! benchmark ends. Self time = duration minus the children's durations
//! (children on one thread nest inside their parent, so they never
//! overlap each other).
//!
//! The engine is not instrumented from the inside: the benchmark wraps
//! the calls it makes (`StreamWriter::append`, `QueryEngine::*`, the
//! `StorageOptimizer` passes) and installs [`TimingInterceptor`] on both
//! RPC channels, which brackets every admitted attempt from `admit` to
//! `release` — the callee runs on the caller's thread in between.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use vortex::{CallCtx, Timestamp, VortexResult};
use vortex_common::rpc::RpcInterceptor;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub layer: &'static str,
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Clone, Copy)]
struct Open {
    id: u64,
    parent: u64,
    trace: u64,
    layer: &'static str,
    op: &'static str,
    start_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off. Switch only while no load thread runs.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a span on this thread (no-op while tracing is off).
fn begin(layer: &'static str, op: &'static str) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, trace) = s.last().map_or((0, id), |p| (p.id, p.trace));
        s.push(Open {
            id,
            parent,
            trace,
            layer,
            op,
            start_ns: now_ns(),
        });
    });
}

/// Closes the innermost open span of this thread.
fn end() {
    let end_ns = now_ns();
    let Some(o) = STACK.with(|s| s.borrow_mut().pop()) else {
        return;
    };
    SPANS.lock().expect("span buffer poisoned").push(Span {
        id: o.id,
        parent: o.parent,
        trace: o.trace,
        layer: o.layer,
        op: o.op,
        start_ns: o.start_ns,
        end_ns,
    });
}

/// Runs `f` inside a `(layer, op)` span.
pub fn span<T>(layer: &'static str, op: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    begin(layer, op);
    let out = f();
    end();
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = child.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(c))
        })
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.trace, s.layer, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Times every RPC attempt and the admission decision inside it, and
/// delegates each call to the region's admission controller unchanged.
pub struct TimingInterceptor {
    inner: Arc<dyn RpcInterceptor>,
}

impl TimingInterceptor {
    pub fn new(inner: Arc<dyn RpcInterceptor>) -> Arc<Self> {
        Arc::new(TimingInterceptor { inner })
    }
}

impl RpcInterceptor for TimingInterceptor {
    fn admit(
        &self,
        channel: &str,
        method: &'static str,
        ctx: CallCtx,
        payload_bytes: u64,
        now: Timestamp,
        budget_remaining_us: u64,
    ) -> VortexResult<u64> {
        let layer = if channel == "sms" { "sms" } else { "server" };
        begin(layer, method);
        let out = span("admission", "admit", || {
            self.inner.admit(
                channel,
                method,
                ctx,
                payload_bytes,
                now,
                budget_remaining_us,
            )
        });
        if out.is_err() {
            // A shed attempt never reaches the callee and gets no release.
            end();
        }
        out
    }

    fn release(&self, ctx: CallCtx) {
        self.inner.release(ctx);
        end();
    }

    fn complete(
        &self,
        channel: &str,
        method: &'static str,
        ctx: CallCtx,
        latency_us: u64,
        ok: bool,
    ) {
        self.inner.complete(channel, method, ctx, latency_us, ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            layer: "t",
            op: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 40),
            sp(3, 2, 15, 25),
            sp(4, 1, 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 10);
    }
}
