//! `ingest`: streaming producers at capacity. Two writer threads run
//! closed loops, each on its own UNBUFFERED exactly-once stream, and
//! rotate to a new stream every [`ROTATE_EVERY`] appends the way
//! connector bundles do. Batch sizes are log-uniform over 10–1000 rows,
//! so per-append costs (RPC, admission, SMS, shard mailbox) and per-row
//! costs (codec, CRC, compression, encryption) both show.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vortex::ids::{StreamId, TableId};
use vortex::row::RowSet;
use vortex::{AuditLog, Region, StreamWriter};

use crate::common::{self, Op, Phase};
use crate::inputs;
use crate::trace;
use crate::workload::Workload;

pub const WRITERS: usize = 2;
/// Distinct pre-generated batches per writer; a writer cycles through
/// its pool, so no input is generated inside the measured loop.
pub const POOL_BATCHES: usize = 256;
pub const BATCH_ROWS: (usize, usize) = (10, 1000);
pub const ROTATE_EVERY: usize = 200;
/// Appends per writer during set-up, so lazy state is built before the
/// measured phase.
pub const WARMUP_APPENDS: usize = 100;

pub struct Inputs {
    /// `pools[w][i]`: batch `i` of writer `w`.
    pub pools: Vec<Vec<RowSet>>,
    pool_bytes: Vec<Vec<u64>>,
}

/// One acknowledged append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub writer: usize,
    pub stream: StreamId,
    pub offset: u64,
    pub rows: u64,
    pub batch: usize,
}

pub struct State {
    region: Region,
    table: TableId,
    acks: Vec<Ack>,
    /// Next pool index of each writer.
    cursor: [usize; WRITERS],
    user_bytes: u64,
}

#[derive(Default)]
struct WriterOut {
    /// Pool index of the writer's next batch.
    next: usize,
    /// When the last append returned.
    last: Option<Instant>,
    acks: Vec<Ack>,
    samples: Vec<(Op, f64)>,
    attempted: u64,
    failed: u64,
    bytes: u64,
}

pub fn inputs(seed: u64) -> Inputs {
    let pools: Vec<Vec<RowSet>> = (0..WRITERS)
        .map(|w| {
            let mut rng = inputs::rng(seed, w as u64);
            inputs::log_uniform_sizes(&mut rng, POOL_BATCHES, BATCH_ROWS.0, BATCH_ROWS.1)
                .into_iter()
                .map(|n| inputs::batch(&mut rng, n, 0..inputs::DAYS, inputs::CUSTOMERS).0)
                .collect()
        })
        .collect();
    let pool_bytes = pools
        .iter()
        .map(|p| p.iter().map(|b| b.approx_bytes() as u64).collect())
        .collect();
    Inputs { pools, pool_bytes }
}

/// One writer's closed loop: `appends` batches, or until `deadline`.
fn write_loop(
    region: &Region,
    table: TableId,
    inp: &Inputs,
    w: usize,
    start: usize,
    appends: Option<usize>,
    deadline: Instant,
) -> WriterOut {
    let client = region.client();
    let mut out = WriterOut::default();
    let open = |out: &mut WriterOut| -> Option<StreamWriter> {
        out.attempted += 1;
        match client.create_unbuffered_writer(table) {
            Ok(wr) => Some(wr),
            Err(e) => {
                out.failed += 1;
                eprintln!("ingest: create stream failed: {e}");
                None
            }
        }
    };
    let close = |out: &mut WriterOut, wr: StreamWriter| {
        out.attempted += 1;
        if let Err(e) = wr.finalize() {
            out.failed += 1;
            eprintln!("ingest: finalize failed: {e}");
        }
    };
    let Some(mut writer) = open(&mut out) else {
        return out;
    };
    let mut on_stream = 0usize;
    let mut i = start;
    while appends.map_or(Instant::now() < deadline, |n| i - start < n) {
        if on_stream == ROTATE_EVERY {
            let next = match open(&mut out) {
                Some(n) => n,
                None => break,
            };
            close(&mut out, std::mem::replace(&mut writer, next));
            on_stream = 0;
        }
        let batch = i % POOL_BATCHES;
        let rows = inp.pools[w][batch].clone();
        let stream = writer.stream_id();
        let t = Instant::now();
        let res = trace::span("client", "append", || writer.append(rows));
        out.last = Some(Instant::now());
        let lat = common::us(t.elapsed());
        out.attempted += 1;
        match res {
            Ok(a) => {
                out.samples.push((Op::Append, lat));
                out.bytes += inp.pool_bytes[w][batch];
                out.acks.push(Ack {
                    writer: w,
                    stream,
                    offset: a.row_offset,
                    rows: a.row_count,
                    batch,
                });
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("ingest: append failed: {e}");
            }
        }
        i += 1;
        on_stream += 1;
    }
    close(&mut out, writer);
    out.next = i;
    out
}

/// Runs both writers, from their cursors, and folds their results; the
/// duration runs from the start to the last append's return.
fn run_writers(
    st: &mut State,
    inp: &Inputs,
    appends: Option<usize>,
    deadline: Instant,
) -> (Vec<WriterOut>, Duration) {
    let t = Instant::now();
    let (region, table, cursor) = (&st.region, st.table, st.cursor);
    let outs: Vec<WriterOut> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || write_loop(region, table, inp, w, cursor[w], appends, deadline))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect()
    });
    let last = outs.iter().filter_map(|o| o.last).max().unwrap_or(t);
    for (w, o) in outs.iter().enumerate() {
        st.cursor[w] = o.next;
        st.acks.extend_from_slice(&o.acks);
        st.user_bytes += o.bytes;
    }
    (outs, last - t)
}

pub struct Ingest;

impl Workload for Ingest {
    type Inputs = Inputs;
    type State = State;
    /// A set-up takes ≈ 0.15 s and its time is bimodal; 21 give a
    /// steady median.
    const SETUPS: usize = 21;

    fn setup(&self, inp: &Inputs, traced: bool) -> State {
        let region = common::region();
        common::set_tracing(&region, traced);
        let table = region
            .client()
            .create_table("clicks", vortex_bench::bench_schema())
            .expect("create table")
            .table;
        let mut st = State {
            region,
            table,
            acks: Vec::new(),
            cursor: [0; WRITERS],
            user_bytes: 0,
        };
        run_writers(&mut st, inp, Some(WARMUP_APPENDS), Instant::now());
        st
    }

    fn region<'a>(&self, st: &'a State) -> &'a Region {
        &st.region
    }

    fn measure(&self, st: &mut State, inp: &Inputs, seconds: f64) -> Phase {
        let mut p = Phase::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (outs, elapsed) = run_writers(st, inp, None, deadline);
        p.elapsed = elapsed;
        for o in outs {
            p.attempted += o.attempted;
            p.failed += o.failed;
            p.rows_acked += o.acks.iter().map(|a| a.rows).sum::<u64>();
            p.samples.extend(o.samples);
        }
        p.user_bytes_total = st.user_bytes;
        p.rows_total = st.acks.iter().map(|a| a.rows).sum();
        p
    }

    fn verify(&self, st: &State, inp: &Inputs) -> Result<(), String> {
        check_ledger(&st.acks, inp)?;
        let audit = AuditLog::new();
        for a in &st.acks {
            audit.record_append(st.table, a.stream, a.offset, &inp.pools[a.writer][a.batch]);
        }
        let report = st
            .region
            .verifier()
            .verify_appends(st.table, &audit)
            .map_err(|e| format!("verifier failed: {e}"))?;
        let rows: u64 = st.acks.iter().map(|a| a.rows).sum();
        if !report.is_clean() {
            return Err(format!(
                "verifier found {} violations, first: {}",
                report.violations.len(),
                report.violations[0]
            ));
        }
        if report.appends_checked != st.acks.len() || report.rows_checked != rows {
            return Err(format!(
                "table holds {} rows over {} appends checked; ledger acked {rows} rows in {} appends",
                report.rows_checked,
                report.appends_checked,
                st.acks.len()
            ));
        }
        Ok(())
    }
}

/// The ledger alone must be consistent: every ack reports its batch's
/// row count, each stream has one writer, and in the order that writer
/// saw them its acks tile `[0, len)` without gaps or overlaps
/// (exactly-once offsets).
pub fn check_ledger(acks: &[Ack], inp: &Inputs) -> Result<(), String> {
    let mut next: BTreeMap<StreamId, (usize, u64)> = BTreeMap::new();
    for a in acks {
        let want = inp.pools[a.writer][a.batch].len() as u64;
        if a.rows != want {
            return Err(format!("ack of {} rows for a {want}-row batch", a.rows));
        }
        let (writer, offset) = next.entry(a.stream).or_insert((a.writer, 0));
        if *writer != a.writer || a.offset != *offset {
            return Err(format!(
                "stream {:?}: writer {} appended at offset {}; expected writer {writer} at {offset}",
                a.stream, a.writer, a.offset
            ));
        }
        *offset += a.rows;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs() {
        let d = |seed| inputs::digest(inputs(seed).pools.iter().flatten());
        assert_eq!(d(7), d(7));
        assert_ne!(d(7), d(8));
    }

    #[test]
    fn ledger_check_catches_gaps_overlaps_reordering_and_wrong_counts() {
        let mut inp = inputs(7);
        // Identical pools, so only the writer field tells the acks apart.
        inp.pools[1] = inp.pools[0].clone();
        let len = |b: usize| inp.pools[0][b].len() as u64;
        let s = StreamId::from_raw(9);
        let ack = |offset, batch| Ack {
            writer: 0,
            stream: s,
            offset,
            rows: len(batch),
            batch,
        };
        let good = vec![ack(0, 0), ack(len(0), 1), ack(len(0) + len(1), 2)];
        check_ledger(&good, &inp).expect("a contiguous ledger passes");
        let mut gap = good.clone();
        gap[2].offset += 1;
        let mut overlap = good.clone();
        overlap[1].offset -= 1;
        let mut count = good.clone();
        count[0].rows += 1;
        let mut order = good.clone();
        order.swap(0, 1);
        let mut writer = good.clone();
        writer[2].writer = 1;
        for bad in [gap, overlap, count, order, writer] {
            assert!(check_ledger(&bad, &inp).is_err(), "{bad:?}");
        }
    }
}
