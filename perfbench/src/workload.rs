//! The run loop every workload shares: repeated set-up, untraced and
//! traced measured phases, counter snapshots, and the correctness check.

use std::time::Instant;

use vortex::Region;

use crate::common::{self, Phase};
use crate::trace;

pub trait Workload {
    type Inputs;
    type State;

    /// Set-ups per untraced run; `setup_s` is their median.
    const SETUPS: usize;

    /// Builds a fresh region, tracing it from the start when `traced`,
    /// and brings it to the state the measured phase starts from.
    fn setup(&self, inp: &Self::Inputs, traced: bool) -> Self::State;

    fn region<'a>(&self, st: &'a Self::State) -> &'a Region;

    /// Runs the load for `seconds`; fills the phase's operation counts,
    /// latency samples and optimizer totals.
    fn measure(&self, st: &mut Self::State, inp: &Self::Inputs, seconds: f64) -> Phase;

    /// Checks every answer and the final table against the oracle.
    fn verify(&self, st: &Self::State, inp: &Self::Inputs) -> Result<(), String>;
}

/// Everything one run measured.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub untraced: Phase,
    /// The traced phase (trace runs only).
    pub traced: Option<Phase>,
    /// Spans of the traced set-up (trace runs only).
    pub setup_spans: Vec<trace::Span>,
    pub verdict: Result<(), String>,
}

/// Set-ups (`W::SETUPS` untraced, or one untraced and one traced), then the
/// measured phase (or an untraced and a traced half), then the oracle. Earlier set-ups are dropped before
/// the next one starts, so at most one region is alive at a time.
pub fn run<W: Workload>(w: &W, inp: &W::Inputs, seconds: f64, traced: bool) -> Run {
    let setups = if traced { 2 } else { W::SETUPS };
    let mut setup_s = Vec::new();
    let mut state = None;
    for k in 0..setups {
        drop(state.take());
        let t = Instant::now();
        state = Some(w.setup(inp, traced && k + 1 == setups));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut st = state.expect("at least one set-up");
    let setup_spans = trace::take();
    // A trace run splits its time between an untraced and a traced phase,
    // so it measures as long, and grows the table as much, as a plain run.
    let seconds = if traced { seconds / 2.0 } else { seconds };
    common::set_tracing(w.region(&st), false);
    let untraced = phase(w, &mut st, inp, seconds);
    let traced = traced.then(|| {
        common::set_tracing(w.region(&st), true);
        let mut p = phase(w, &mut st, inp, seconds);
        common::set_tracing(w.region(&st), false);
        p.spans = trace::take();
        p
    });
    let verdict = w.verify(&st, inp);
    Run {
        setup_s,
        untraced,
        traced,
        setup_spans,
        verdict,
    }
}

fn phase<W: Workload>(w: &W, st: &mut W::State, inp: &W::Inputs, seconds: f64) -> Phase {
    let region = w.region(st);
    let before = region.metrics_snapshot();
    let colossus_before = common::colossus_bytes(region);
    let mut p = w.measure(st, inp, seconds);
    let region = w.region(st);
    p.before = before;
    p.after = region.metrics_snapshot();
    p.colossus_before = colossus_before;
    p.colossus_after = common::colossus_bytes(region);
    p
}
