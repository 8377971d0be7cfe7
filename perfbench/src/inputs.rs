//! Seeded input generation. Every row, batch size and query parameter the
//! engine sees comes from here; the same `--seed` gives the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vortex::row::{Row, RowSet, Value};

/// Clickstream days (the `day` partition column) in the ingest and scan
/// tables.
pub const DAYS: u32 = 30;
/// Distinct `customer` values (the clustering column) in the ingest and
/// scan tables: a lookup matches ≈ 1/5000 = 0.02% of rows.
pub const CUSTOMERS: u32 = 5_000;
/// `amount` is uniform in `[0, AMOUNT_MAX)`.
pub const AMOUNT_MAX: u32 = 1_000_000;

/// One generated row in the compact form the oracles keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Click {
    pub day: u32,
    pub customer: u32,
    pub amount: u32,
}

/// An independent generator for stream `stream` of seed `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.rotate_left(32))
}

pub fn customer_name(c: u32) -> String {
    format!("customer-{c:05}")
}

/// Inverse of [`customer_name`].
pub fn customer_of(v: &Value) -> Option<u32> {
    match v {
        Value::String(s) => s.strip_prefix("customer-")?.parse().ok(),
        _ => None,
    }
}

/// An `INT64` result cell; `u64::MAX` (which no answer can equal) for
/// anything else.
pub fn int_of(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::Int64(x)) => *x as u64,
        _ => u64::MAX,
    }
}

/// Draws one click: `day` from `days`, a customer below `customers`, a
/// uniform amount.
fn click(rng: &mut StdRng, days: std::ops::Range<u32>, customers: u32) -> Click {
    Click {
        day: rng.gen_range(days),
        customer: rng.gen_range(0..customers),
        amount: rng.gen_range(0..AMOUNT_MAX),
    }
}

/// The `bench_schema()` row for a click; the note is the string-heavy
/// payload of the clickstream benches.
pub fn row_of(c: Click, session: u32) -> Row {
    Row::insert(vec![
        Value::Int64(c.day as i64),
        Value::String(customer_name(c.customer)),
        Value::Int64(c.amount as i64),
        Value::String(format!(
            "session={session} browser=Chrome platform=Linux region=us-central1"
        )),
    ])
}

/// A batch of `n` rows drawn from `rng`, with its compact form.
pub fn batch(
    rng: &mut StdRng,
    n: usize,
    days: std::ops::Range<u32>,
    customers: u32,
) -> (RowSet, Vec<Click>) {
    let clicks: Vec<Click> = (0..n)
        .map(|_| click(rng, days.clone(), customers))
        .collect();
    let rows = clicks
        .iter()
        .map(|&c| row_of(c, rng.gen_range(0..u32::MAX)))
        .collect();
    (RowSet::new(rows), clicks)
}

/// `n` batch sizes drawn log-uniformly from `[lo, hi]` rows, stratified:
/// draw `k` falls in the `k`-th of `n` equal-probability bands, then the
/// draws are shuffled. Every seed thus gets the same size distribution
/// (so seeds differ in contents and order, not in mean batch size).
pub fn log_uniform_sizes(rng: &mut StdRng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    let mut sizes: Vec<usize> = (0..n)
        .map(|k| {
            let u = (k as f64 + rng.gen_range(0.0..1.0f64)) / n as f64;
            ((a + u * (b - a)).exp().round() as usize).clamp(lo, hi)
        })
        .collect();
    for i in (1..n).rev() {
        sizes.swap(i, rng.gen_range(0..=i));
    }
    sizes
}

#[cfg(test)]
/// FNV-1a over the canonical debug rendering of rows: a digest of the
/// generated inputs, used to show that a seed fixes them.
pub fn digest<'a>(batches: impl IntoIterator<Item = &'a RowSet>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in batches {
        for r in &b.rows {
            for byte in format!("{:?}", r.values).bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_uniform_sizes_are_stratified() {
        let sizes = log_uniform_sizes(&mut rng(1, 0), 1000, 10, 1000);
        assert!(sizes.iter().all(|&n| (10..=1000).contains(&n)));
        // Log-uniform: half the draws fall below the geometric mean, and
        // stratification makes that exact up to rounding.
        let below = sizes.iter().filter(|&&n| n < 100).count();
        assert!((495..=505).contains(&below), "{below}");
        assert_ne!(sizes, log_uniform_sizes(&mut rng(2, 0), 1000, 10, 1000));
    }
}
