//! `scan`: interactive analytics over read-optimised storage. Set-up
//! ingests [`ROWS`] rows over 30 `day` partitions, finalizes the streams
//! and runs one optimizer pass (conversion, recluster, metadata
//! compaction), leaving ≈ 90 ROS blocks. One client thread then runs a
//! closed loop over a seeded, equal mix of three query shapes:
//!
//! - *lookup*: `customer = c` on the clustering column (≈ 0.02% of rows);
//! - *agg*: `day = d`, `SUM(amount) GROUP BY customer`;
//! - *range*: `COUNT(*)` where `amount ∈ [lo, lo + 10k)` (≈ 1%), on an
//!   unclustered column where nothing prunes.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use vortex::ids::TableId;
use vortex::row::{Row, RowSet, Value};
use vortex::{AggKind, Expr, QueryEngine, Region, VortexResult};

use crate::common::{self, Op, OptimizerTotals, Phase};
use crate::inputs::{self, customer_of, int_of, Click};
use crate::trace;
use crate::workload::Workload;

pub const ROWS: usize = 300_000;
pub const BATCH_ROWS: usize = 1_000;
pub const LOADERS: usize = 2;
pub const RANGE_WIDTH: u32 = 10_000;

/// One generated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    Lookup { customer: u32 },
    Agg { day: u32 },
    Range { lo: u32 },
}

impl Query {
    /// Query `j`: shapes rotate lookup, agg, range (an exactly equal mix);
    /// the seed draws their parameters.
    pub fn draw(rng: &mut StdRng, j: u64) -> Query {
        match j % 3 {
            0 => Query::Lookup {
                customer: rng.gen_range(0..inputs::CUSTOMERS),
            },
            1 => Query::Agg {
                day: rng.gen_range(0..inputs::DAYS),
            },
            _ => Query::Range {
                lo: rng.gen_range(0..inputs::AMOUNT_MAX - RANGE_WIDTH),
            },
        }
    }

    fn op(self) -> Op {
        match self {
            Query::Lookup { .. } => Op::Lookup,
            Query::Agg { .. } => Op::Agg,
            Query::Range { .. } => Op::Range,
        }
    }
}

/// What a query returned, reduced to what the oracle compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Lookup: matching rows, their amount total, and whether every row
    /// returned carried the looked-up customer.
    Rows {
        count: u64,
        amount: u64,
        all_match: bool,
    },
    /// Aggregation: group count and an order-independent digest of
    /// `(customer, SUM(amount))` pairs.
    Groups {
        groups: u64,
        digest: u64,
    },
    Count(u64),
}

/// Expected answers, computed from the generated rows alone.
pub struct Oracle {
    per_customer: Vec<(u64, u64)>,
    per_day: Vec<(u64, u64)>,
    amounts: Vec<u32>,
}

impl Oracle {
    pub fn new(clicks: &[Click]) -> Oracle {
        let mut per_customer = vec![(0u64, 0u64); inputs::CUSTOMERS as usize];
        let mut groups: Vec<HashMap<u32, u64>> = vec![HashMap::new(); inputs::DAYS as usize];
        for c in clicks {
            let e = &mut per_customer[c.customer as usize];
            e.0 += 1;
            e.1 += c.amount as u64;
            *groups[c.day as usize].entry(c.customer).or_default() += c.amount as u64;
        }
        let per_day = groups
            .iter()
            .map(|g| {
                (
                    g.len() as u64,
                    g.iter()
                        .map(|(&c, &s)| pair_hash(c, s))
                        .fold(0, u64::wrapping_add),
                )
            })
            .collect();
        let mut amounts: Vec<u32> = clicks.iter().map(|c| c.amount).collect();
        amounts.sort_unstable();
        Oracle {
            per_customer,
            per_day,
            amounts,
        }
    }

    pub fn expect(&self, q: Query) -> Answer {
        match q {
            Query::Lookup { customer } => {
                let (count, amount) = self.per_customer[customer as usize];
                Answer::Rows {
                    count,
                    amount,
                    all_match: true,
                }
            }
            Query::Agg { day } => {
                let (groups, digest) = self.per_day[day as usize];
                Answer::Groups { groups, digest }
            }
            Query::Range { lo } => {
                let a = self.amounts.partition_point(|&x| x < lo);
                let b = self.amounts.partition_point(|&x| x < lo + RANGE_WIDTH);
                Answer::Count((b - a) as u64)
            }
        }
    }

    pub fn check(&self, q: Query, got: Answer) -> Result<(), String> {
        let want = self.expect(q);
        if got == want {
            Ok(())
        } else {
            Err(format!("{q:?}: got {got:?}, expected {want:?}"))
        }
    }
}

/// Digest term of one `(customer, sum)` group; summed, so order-free.
fn pair_hash(customer: u32, sum: u64) -> u64 {
    let mut x = (customer as u64) << 40 ^ sum;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A query result as the engine returned it.
pub enum Raw {
    Rows(Vec<Row>),
    Groups(Vec<(Option<Value>, Vec<Value>)>),
    Count(u64),
}

/// Runs one query at a fresh snapshot.
pub fn execute(
    engine: &QueryEngine,
    region: &Region,
    table: TableId,
    q: Query,
) -> VortexResult<Raw> {
    let snapshot = region.client().snapshot();
    match q {
        Query::Lookup { customer } => {
            let opts = common::scan_options(Expr::eq(
                "customer",
                Value::String(inputs::customer_name(customer)),
            ));
            let res = trace::span("query", "lookup", || engine.scan(table, snapshot, &opts))?;
            Ok(Raw::Rows(res.rows.into_iter().map(|(_, r)| r).collect()))
        }
        Query::Agg { day } => {
            let opts = common::scan_options(Expr::eq("day", Value::Int64(day as i64)));
            let aggs = [(AggKind::Sum, Some("amount"))];
            trace::span("query", "agg", || {
                engine.aggregate(table, snapshot, &opts, Some("customer"), &aggs)
            })
            .map(Raw::Groups)
        }
        Query::Range { lo } => {
            let opts = common::scan_options(
                Expr::ge("amount", Value::Int64(lo as i64))
                    .and(Expr::lt("amount", Value::Int64((lo + RANGE_WIDTH) as i64))),
            );
            trace::span("query", "range", || engine.count(table, snapshot, &opts)).map(Raw::Count)
        }
    }
}

/// Reduces a result to what the oracle compares.
pub fn answer(q: Query, raw: &Raw) -> Answer {
    match raw {
        Raw::Rows(rows) => Answer::Rows {
            count: rows.len() as u64,
            amount: rows
                .iter()
                .map(|r| int_of(r.values.get(2)))
                .fold(0, u64::wrapping_add),
            all_match: match q {
                Query::Lookup { customer } => rows
                    .iter()
                    .all(|r| customer_of(&r.values[1]) == Some(customer)),
                _ => false,
            },
        },
        Raw::Groups(groups) => Answer::Groups {
            groups: groups.len() as u64,
            digest: groups
                .iter()
                .map(|(k, v)| {
                    let c = k.as_ref().and_then(customer_of).unwrap_or(u32::MAX);
                    pair_hash(c, int_of(v.first()))
                })
                .fold(0, u64::wrapping_add),
        },
        Raw::Count(n) => Answer::Count(*n),
    }
}

pub struct Inputs {
    batches: Vec<RowSet>,
    pub oracle: Oracle,
    seed: u64,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = inputs::rng(seed, 100);
    let mut clicks = Vec::with_capacity(ROWS);
    let batches = (0..ROWS / BATCH_ROWS)
        .map(|_| {
            let (rows, c) = inputs::batch(&mut rng, BATCH_ROWS, 0..inputs::DAYS, inputs::CUSTOMERS);
            clicks.extend(c);
            rows
        })
        .collect();
    Inputs {
        batches,
        oracle: Oracle::new(&clicks),
        seed,
    }
}

pub struct State {
    region: Region,
    table: TableId,
    queries: StdRng,
    answers: Vec<(Query, Answer)>,
    /// The set-up optimizer pass.
    optimizer: OptimizerTotals,
    user_bytes: u64,
}

pub struct Scan;

impl Workload for Scan {
    type Inputs = Inputs;
    type State = State;
    /// A set-up takes ≈ 9 s (the optimizer pass dominates); the first one
    /// in a process is up to 40% slower than the rest, so take five.
    const SETUPS: usize = 5;

    fn setup(&self, inp: &Inputs, traced: bool) -> State {
        let region = common::region();
        common::set_tracing(&region, traced);
        let client = region.client();
        let table = client
            .create_table("clicks", vortex_bench::bench_schema())
            .expect("create table")
            .table;
        std::thread::scope(|s| {
            for l in 0..LOADERS {
                let client = client.clone();
                s.spawn(move || {
                    let mut w = client
                        .create_unbuffered_writer(table)
                        .expect("create stream");
                    for b in inp.batches.iter().skip(l).step_by(LOADERS) {
                        trace::span("client", "append", || w.append(b.clone()))
                            .expect("set-up append");
                    }
                    w.finalize().expect("finalize");
                });
            }
        });
        let mut ros_rows = 0;
        let pass = common::optimizer_pass(&region, table, &mut ros_rows);
        assert_eq!(pass.failed, 0, "set-up optimizer pass failed");
        State {
            region,
            table,
            queries: inputs::rng(inp.seed, 200),
            answers: Vec::new(),
            optimizer: pass.totals,
            user_bytes: inp.batches.iter().map(|b| b.approx_bytes() as u64).sum(),
        }
    }

    fn region<'a>(&self, st: &'a State) -> &'a Region {
        &st.region
    }

    fn measure(&self, st: &mut State, _inp: &Inputs, seconds: f64) -> Phase {
        let mut p = Phase::default();
        let engine = st.region.engine();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let q = Query::draw(&mut st.queries, p.attempted);
            let t = Instant::now();
            let res = execute(&engine, &st.region, st.table, q);
            let lat = common::us(t.elapsed());
            p.attempted += 1;
            match res {
                Ok(raw) => {
                    p.samples.push((q.op(), lat));
                    st.answers.push((q, answer(q, &raw)));
                }
                Err(e) => {
                    p.failed += 1;
                    eprintln!("scan: {q:?} failed: {e}");
                }
            }
        }
        p.elapsed = start.elapsed();
        p.user_bytes_total = st.user_bytes;
        p.rows_total = ROWS as u64;
        p.optimizer_total = st.optimizer.clone();
        p
    }

    fn verify(&self, st: &State, inp: &Inputs) -> Result<(), String> {
        for &(q, a) in &st.answers {
            inp.oracle.check(q, a)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::digest;

    #[test]
    fn same_seed_gives_same_inputs() {
        let (a, b, c) = (inputs(7), inputs(7), inputs(8));
        assert_eq!(digest(&a.batches), digest(&b.batches));
        assert_ne!(digest(&a.batches), digest(&c.batches));
        let q = |seed| {
            let mut r = inputs::rng(seed, 200);
            (0..30).map(|j| Query::draw(&mut r, j)).collect::<Vec<_>>()
        };
        assert_eq!(q(7), q(7));
        assert_ne!(q(7), q(8));
    }

    #[test]
    fn oracle_catches_planted_wrong_answers() {
        let clicks = [
            Click {
                day: 3,
                customer: 5,
                amount: 100,
            },
            Click {
                day: 3,
                customer: 5,
                amount: 20_000,
            },
            Click {
                day: 4,
                customer: 6,
                amount: 150,
            },
        ];
        let o = Oracle::new(&clicks);
        let lookup = Query::Lookup { customer: 5 };
        let agg = Query::Agg { day: 3 };
        let range = Query::Range { lo: 0 };
        for q in [lookup, agg, range] {
            o.check(q, o.expect(q))
                .expect("the oracle's own answer passes");
        }
        assert_eq!(o.expect(range), Answer::Count(2));
        let planted = [
            (
                lookup,
                Answer::Rows {
                    count: 2,
                    amount: 20_101,
                    all_match: true,
                },
            ),
            (
                lookup,
                Answer::Rows {
                    count: 2,
                    amount: 20_100,
                    all_match: false,
                },
            ),
            (
                lookup,
                Answer::Rows {
                    count: 3,
                    amount: 20_100,
                    all_match: true,
                },
            ),
            (range, Answer::Count(3)),
            (
                agg,
                Answer::Groups {
                    groups: 1,
                    digest: pair_hash(5, 20_099),
                },
            ),
            (
                agg,
                Answer::Groups {
                    groups: 2,
                    digest: pair_hash(5, 20_100),
                },
            ),
        ];
        for (q, a) in planted {
            assert!(o.check(q, a).is_err(), "{q:?} accepted {a:?}");
        }
    }

    #[test]
    fn answers_are_read_from_engine_results() {
        let s = |c: u32| Value::String(inputs::customer_name(c));
        let lookup = Query::Lookup { customer: 5 };
        let rows = Raw::Rows(vec![inputs::row_of(
            Click {
                day: 3,
                customer: 5,
                amount: 100,
            },
            1,
        )]);
        assert_eq!(
            answer(lookup, &rows),
            Answer::Rows {
                count: 1,
                amount: 100,
                all_match: true
            }
        );
        let groups = Raw::Groups(vec![(Some(s(5)), vec![Value::Int64(20_100)])]);
        assert_eq!(
            answer(Query::Agg { day: 3 }, &groups),
            Answer::Groups {
                groups: 1,
                digest: pair_hash(5, 20_100)
            }
        );
    }
}
