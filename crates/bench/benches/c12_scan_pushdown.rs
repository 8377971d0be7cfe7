//! **C12 — compute pushdown over compressed ROS blocks** (§5.4.5, §7.2).
//!
//! Two arms, one contract:
//!
//! - **compression**: the cascading encoder (delta/FoR/bit-packing, ALP,
//!   FSST, stackable on Dict/RLE) must produce blocks no larger than the
//!   retired flat Plain/Dict/RLE chooser did on the C2 "typical rows"
//!   corpus — pushdown must not be bought with a worse compression
//!   ratio. The corpus is fixed (20k rows, seed `0xC12`), so the flat
//!   chooser's sizes are recorded constants ([`LEGACY_BYTES`]).
//! - **scan**: on a highly selective predicate (≤1% of rows) over a
//!   clustered multi-zone table, a pushed-down scan (zone-map
//!   short-circuit, predicate evaluation over compressed chunks, late
//!   materialization) must beat decode-then-filter — reading the whole
//!   table with `read_table` and filtering in the bench — by ≥2×
//!   wall-clock while returning identical rows.
//!
//! Emits `BENCH_scan_pushdown.json` at the repo root. `VORTEX_BENCH_ITERS`
//! overrides the scan-arm row count (CI smoke uses a small value; the
//! speedup assertion arms only on full-length runs).
#![allow(clippy::print_stdout)] // prints results/tables by design

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vortex::{Expr, OptimizerConfig, QueryEngine, ScanOptions, StorageOptimizer};
use vortex_client::{read_table, ReadOptions, VortexClient};
use vortex_colossus::StorageFleet;
use vortex_common::compress::compress;
use vortex_common::ids::{ClusterId, IdGen, ServerId, SmsTaskId};
use vortex_common::latency::WriteProfile;
use vortex_common::row::{Row, RowSet, Value};
use vortex_common::runtime::Runtime;
use vortex_common::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex_common::truetime::{SimClock, Timestamp, TrueTime};
use vortex_metastore::MetaStore;
use vortex_ros::encoding::encode_column;
use vortex_ros::ZONE_ROWS;
use vortex_server::{ServerConfig, StreamServer};
use vortex_sms::sms::{SmsConfig, SmsTask};

/// Rows per customer group in the scan arm; with the default row count
/// this puts the predicate's selectivity at 0.25%.
const GROUP: usize = 100;
/// Timed scan repetitions per arm (median reported).
const SCAN_REPS: usize = 5;

// ---------------------------------------------------------------------
// Compression arm: typed analog of the C2 "typical rows" corpus.
// ---------------------------------------------------------------------

/// The C2 typical-rows corpus as typed columns: a timestamp with
/// repeated scaffolding, a high-cardinality customer key, a constant
/// currency, small integers, and a two-decimal price.
fn typed_corpus(n_rows: usize, seed: u64) -> Vec<(&'static str, Vec<Value>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = Vec::with_capacity(n_rows);
    let mut customer = Vec::with_capacity(n_rows);
    let mut currency = Vec::with_capacity(n_rows);
    let mut quantity = Vec::with_capacity(n_rows);
    let mut price = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let k: u32 = rng.gen_range(0..1_000_000);
        let secs =
            u64::from(k % 28 + 1) * 86_400 + u64::from(k % 60) * 60 + u64::from((k / 60) % 60);
        ts.push(Value::Timestamp(Timestamp::from_micros(secs * 1_000_000)));
        customer.push(Value::String(format!("cust-{:05}", k % 40_000)));
        currency.push(Value::String("USD".into()));
        quantity.push(Value::Int64(i64::from(k % 13 + 1)));
        price.push(Value::Float64(
            f64::from(k % 90 + 9) + f64::from(k % 100) / 100.0,
        ));
    }
    vec![
        ("orderTimestamp", ts),
        ("customerKey", customer),
        ("currencyKey", currency),
        ("quantity", quantity),
        ("unitPrice", price),
    ]
}

/// Per-column vsnap-compressed bytes of the retired flat Plain/Dict/RLE
/// chooser on `typed_corpus(20_000, 0xC12)`, encoded per zone — the
/// bound the cascade must not exceed (402,968 B in total).
const LEGACY_BYTES: [(&str, usize); 5] = [
    ("orderTimestamp", 138_667),
    ("customerKey", 128_088),
    ("currencyKey", 180),
    ("quantity", 20_693),
    ("unitPrice", 115_340),
];

struct ColumnSizes {
    name: &'static str,
    legacy: usize,
    cascade: usize,
}

/// Encodes each column of the fixed corpus zone-by-zone (as blocks
/// store them) and sums the vsnap-compressed sizes, next to the flat
/// chooser's recorded sizes.
fn compression_arm() -> Vec<ColumnSizes> {
    println!("--- cascading encoder vs legacy Plain/Dict/RLE (per-zone, vsnap) ---");
    let mut out = Vec::new();
    for ((name, values), (legacy_name, legacy)) in
        typed_corpus(20_000, 0xC12).into_iter().zip(LEGACY_BYTES)
    {
        assert_eq!(name, legacy_name, "corpus columns out of step");
        let cascade: usize = values
            .chunks(ZONE_ROWS)
            .map(|zone| compress(&encode_column(zone).1).len())
            .sum();
        println!(
            "{name:>16} | legacy {legacy:>8} B | cascade {cascade:>8} B | {:>5.2}x",
            legacy as f64 / cascade.max(1) as f64
        );
        out.push(ColumnSizes {
            name,
            legacy,
            cascade,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Scan arm: pushed-down scan vs read-everything-then-filter over the
// same converted table.
// ---------------------------------------------------------------------

struct ScanRig {
    sms: Arc<SmsTask>,
    client: VortexClient,
    engine: QueryEngine,
}

/// One clustered single-partition table, `n` rows in customer order,
/// converted to multi-zone ROS blocks.
fn build_table(n: usize) -> (ScanRig, vortex_common::ids::TableId) {
    let clock = SimClock::new(1_000_000);
    let tt = TrueTime::simulated(clock, 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 0xC12);
    let store = MetaStore::new(tt.clone());
    let ids = Arc::new(IdGen::new(1));
    let rt = Runtime::new();
    let sms = SmsTask::new(
        SmsConfig::new(SmsTaskId::from_raw(0), ClusterId::from_raw(0)),
        store,
        fleet.clone(),
        tt.clone(),
        Arc::clone(&ids),
        Arc::clone(&rt),
        None,
    );
    for i in 0..2u64 {
        let server = StreamServer::new(
            ServerConfig::new(ServerId::from_raw(100 + i), ClusterId::from_raw(i % 2)),
            fleet.clone(),
            tt.clone(),
            Arc::clone(&ids),
            Arc::clone(&rt),
        )
        .unwrap();
        sms.register_server(server);
    }
    let handle: vortex_sms::api::SmsHandle = sms.clone();
    let client = VortexClient::new(handle.clone(), fleet.clone(), tt.clone(), Arc::clone(&rt));
    let engine = QueryEngine::new(handle.clone(), fleet.clone(), Arc::clone(&rt));
    let opt = StorageOptimizer::new(
        handle,
        fleet,
        ids,
        Arc::clone(&rt),
        OptimizerConfig {
            target_block_rows: 8192,
            merge_trigger: 0.5,
        },
    );

    let schema = Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"]);
    let t = sms.create_table("t", schema).unwrap();
    let mut w = client.create_unbuffered_writer(t.table).unwrap();
    // Rows arrive ordered by the clustering key, GROUP rows per
    // customer, so zone maps can localize a point predicate.
    for chunk_start in (0..n).step_by(5_000) {
        let rs = RowSet::new(
            (chunk_start..(chunk_start + 5_000).min(n))
                .map(|k| {
                    Row::insert(vec![
                        Value::Int64(0),
                        Value::String(format!("cust-{:05}", k / GROUP)),
                        Value::Int64(k as i64),
                    ])
                })
                .collect(),
        );
        w.append(rs).unwrap();
    }
    let s = w.stream_id();
    sms.finalize_stream(t.table, s).unwrap();
    opt.convert_wos(t.table).unwrap();
    (
        ScanRig {
            sms,
            client,
            engine,
        },
        t.table,
    )
}

struct ScanPoint {
    arm: &'static str,
    scan_us: u64,
    rows: usize,
    rows_scanned: u64,
    zones_total: usize,
    zones_pruned: usize,
}

/// Median wall-clock of `SCAN_REPS` runs of `scan`, plus one untimed
/// run's result.
fn time_scan(arm: &'static str, scan: impl Fn() -> ScanPoint) -> ScanPoint {
    let mut times: Vec<u64> = (0..SCAN_REPS)
        .map(|_| {
            // lint:allow(L001, bench measures real scan wall-clock, not simulated time)
            let start = Instant::now();
            std::hint::black_box(scan());
            start.elapsed().as_micros() as u64
        })
        .collect();
    times.sort_unstable();
    ScanPoint {
        arm,
        scan_us: times[times.len() / 2],
        ..scan()
    }
}

/// The pushed-down scan through the query engine.
fn pushed_scan(rig: &ScanRig, t: vortex_common::ids::TableId, target: &str) -> ScanPoint {
    let opts = ScanOptions {
        predicate: Expr::eq("customer", Value::String(target.into())),
        ..ScanOptions::default()
    };
    let res = rig.engine.scan(t, rig.sms.read_snapshot(), &opts).unwrap();
    ScanPoint {
        arm: "pushdown",
        scan_us: 0,
        rows: res.rows.len(),
        rows_scanned: res.stats.rows_scanned,
        zones_total: res.stats.zones_total,
        zones_pruned: res.stats.zones_pruned,
    }
}

/// The control: decode every row of the table, then filter in the bench.
fn decode_filter_scan(rig: &ScanRig, t: vortex_common::ids::TableId, target: &str) -> ScanPoint {
    let table = read_table(
        rig.client.sms(),
        rig.client.fleet(),
        t,
        rig.sms.read_snapshot(),
        &ReadOptions::default(),
    )
    .unwrap();
    let customer = table.schema.column_index("customer").unwrap();
    let rows = table
        .rows
        .iter()
        .filter(|(_, r)| r.values[customer].as_str() == Some(target))
        .count();
    ScanPoint {
        arm: "decode_filter",
        scan_us: 0,
        rows,
        rows_scanned: table.rows.len() as u64,
        zones_total: 0,
        zones_pruned: 0,
    }
}

fn main() {
    let n: usize = std::env::var("VORTEX_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);
    println!("\n=== C12: compute pushdown over compressed ROS blocks ({n} rows) ===");

    let sizes = compression_arm();
    let legacy_total: usize = sizes.iter().map(|s| s.legacy).sum();
    let cascade_total: usize = sizes.iter().map(|s| s.cascade).sum();
    println!(
        "corpus total: legacy {legacy_total} B, cascade {cascade_total} B ({:.2}x)",
        legacy_total as f64 / cascade_total.max(1) as f64
    );
    assert!(
        cascade_total <= legacy_total,
        "cascading encoder regressed compressed size: {cascade_total} > {legacy_total}"
    );

    let (rig, t) = build_table(n);
    // Point predicate on the first customer group: GROUP of n rows
    // match, and the group never straddles a zone boundary, so every
    // other zone is prunable at any table size.
    let target = format!("cust-{:05}", 0);
    let pushed = time_scan("pushdown", || pushed_scan(&rig, t, &target));
    let decoded = time_scan("decode_filter", || decode_filter_scan(&rig, t, &target));
    assert_eq!(pushed.rows, GROUP, "pushdown returned wrong row count");
    assert_eq!(
        decoded.rows, GROUP,
        "decode-then-filter returned wrong row count"
    );
    let selectivity = GROUP as f64 / n as f64;
    let speedup = decoded.scan_us as f64 / pushed.scan_us.max(1) as f64;
    for p in [&pushed, &decoded] {
        println!(
            "{:>14} | {:>8.2} ms | {:>6} rows | {:>8} scanned | zones {}/{} pruned",
            p.arm,
            p.scan_us as f64 / 1000.0,
            p.rows,
            p.rows_scanned,
            p.zones_pruned,
            p.zones_total,
        );
    }
    println!(
        "selectivity {:.2}% -> pushdown {speedup:.1}x faster; zone map skipped {}/{} zones",
        selectivity * 100.0,
        pushed.zones_pruned,
        pushed.zones_total,
    );
    assert!(
        pushed.zones_pruned > 0,
        "zone map pruned nothing on a clustered point predicate"
    );

    // Full-run acceptance: ≥2× on ≤1% selectivity. Smoke runs (small
    // row counts) keep the correctness assertions but skip timing.
    let full_run = n >= 20_000;
    if full_run {
        assert!(
            selectivity <= 0.01,
            "scan arm selectivity {selectivity} too coarse"
        );
        assert!(
            speedup >= 2.0,
            "pushdown only {speedup:.2}x faster than decode-then-filter"
        );
        println!("scan_pushdown: >=2x on <=1% selectivity at equal-or-better size ✓");
    } else {
        println!("(smoke run: timing assertion skipped at {n} rows)");
    }

    // ---- BENCH_scan_pushdown.json (repo root) ----
    let mut cols_json = String::new();
    for (i, s) in sizes.iter().enumerate() {
        cols_json.push_str(&format!(
            "    {{\"column\": \"{}\", \"legacy_bytes\": {}, \"cascade_bytes\": {}}}{}\n",
            s.name,
            s.legacy,
            s.cascade,
            if i + 1 == sizes.len() { "" } else { "," },
        ));
    }
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"c12_scan_pushdown\",\n  \"rows\": {},\n",
            "  \"compression\": {{\n    \"legacy_bytes\": {}, \"cascade_bytes\": {},\n",
            "    \"columns\": [\n{}    ]\n  }},\n",
            "  \"scan\": {{\"selectivity\": {:.4}, \"pushdown_us\": {}, ",
            "\"decode_filter_us\": {}, \"speedup\": {:.2}, ",
            "\"rows_scanned_pushdown\": {}, \"rows_scanned_decode\": {}, ",
            "\"zones_total\": {}, \"zones_pruned\": {}}}\n}}\n"
        ),
        n,
        legacy_total,
        cascade_total,
        cols_json,
        selectivity,
        pushed.scan_us,
        decoded.scan_us,
        speedup,
        pushed.rows_scanned,
        decoded.rows_scanned,
        pushed.zones_total,
        pushed.zones_pruned,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scan_pushdown.json");
    std::fs::write(&out, json).expect("write BENCH_scan_pushdown.json");
    println!("wrote {}", out.display());
}
