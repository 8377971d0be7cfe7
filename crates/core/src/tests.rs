//! Region-level integration tests: the whole engine working together.

use vortex_common::row::{Row, RowSet, Value};
use vortex_common::schema::{Field, FieldType, PartitionTransform, Schema};

use crate::region::{Region, RegionConfig};
use crate::{Expr, ScanOptions, SinkConfig, StreamType, WriterOptions};

fn schema() -> Schema {
    Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"])
}

fn rows(start: i64, n: usize) -> RowSet {
    RowSet::new(
        (0..n)
            .map(|i| {
                let k = start + i as i64;
                Row::insert(vec![
                    Value::Int64(k / 100),
                    Value::String(format!("cust-{:03}", k % 40)),
                    Value::Int64(k),
                ])
            })
            .collect(),
    )
}

#[test]
fn full_lifecycle_ingest_optimize_query_dml_gc_verify() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("sales", schema()).unwrap().table;

    // 1. Streaming ingest with audited appends.
    let audit = crate::AuditLog::new();
    let mut w = client.create_unbuffered_writer(t).unwrap();
    for i in 0..4 {
        let batch = rows(i * 100, 100);
        let res = w.append(batch.clone()).unwrap();
        audit.record_append(t, w.stream_id(), res.row_offset, &batch);
    }
    let stream = w.stream_id();

    // 2. Fresh data visible instantly; heartbeats register fragments.
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 400);
    region.run_heartbeats(false).unwrap();
    region.run_ticks();

    // 3. Finalize + optimize: WOS→ROS + recluster.
    region.sms().finalize_stream(t, stream).unwrap();
    region.run_optimizer_cycle(t).unwrap();
    assert!(region.optimizer().clustering_ratio(t).unwrap() > 0.99);

    // 4. Query with pruning.
    let engine = region.engine();
    let res = engine
        .scan(
            t,
            region.sms().read_snapshot(),
            &ScanOptions {
                predicate: Expr::eq("day", Value::Int64(2)),
                ..ScanOptions::default()
            },
        )
        .unwrap();
    assert_eq!(res.rows.len(), 100);
    assert!(res.stats.pruned_by_stats > 0);

    // 5. DML delete + update.
    let dml = region.dml();
    let del = dml
        .delete_where(t, &Expr::lt("amount", Value::Int64(50)))
        .unwrap();
    assert_eq!(del.rows_matched, 50);
    dml.update_where(
        t,
        &Expr::eq("amount", Value::Int64(399)),
        &[("customer", Value::String("vip".into()))],
    )
    .unwrap();
    let all = client.read_rows(t).unwrap();
    assert_eq!(all.rows.len(), 350);

    // 6. GC after the grace period.
    region.advance_micros(30_000_000);
    region.run_gc(t).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 350);

    // 7. Verification pipelines: uniqueness holds (the audit check only
    // covers still-visible rows, so run the location-uniqueness part).
    let report = region
        .verifier()
        .verify_appends(t, &crate::AuditLog::new())
        .unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn batch_and_streaming_unify_on_one_table() {
    // §7.5: PENDING batch ETL and UNBUFFERED streaming into one table.
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("unified", schema()).unwrap().table;

    // Streaming writers.
    let mut live = client.create_unbuffered_writer(t).unwrap();
    live.append(rows(0, 50)).unwrap();

    // Batch workers: 3 PENDING streams committed atomically.
    let mut streams = vec![];
    for i in 0..3 {
        let mut w = client
            .create_writer(
                t,
                WriterOptions {
                    stream_type: StreamType::Pending,
                    ..WriterOptions::default()
                },
            )
            .unwrap();
        w.append(rows(1000 + i * 100, 100)).unwrap();
        streams.push(w.stream_id());
    }
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 50, "batch hidden");
    client.batch_commit(t, &streams).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 350);
    // Streaming continues after the batch.
    live.append(rows(50, 50)).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 400);
}

#[test]
fn exactly_once_sink_through_region() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("events", schema()).unwrap().table;
    let sink = crate::BeamSink::new(client.clone(), t);
    let input: Vec<Row> = (0..200)
        .map(|i| {
            Row::insert(vec![
                Value::Int64(i / 100),
                Value::String(format!("cust-{i}")),
                Value::Int64(i),
            ])
        })
        .collect();
    let cfg = SinkConfig {
        zombie_partitions: vec![1],
        duplicate_deliveries: true,
        ..SinkConfig::default()
    };
    sink.run(input, &cfg).unwrap();
    let rows = client.read_rows(t).unwrap();
    assert_eq!(rows.rows.len(), 200);
}

#[test]
fn cluster_failover_keeps_table_writable() {
    let region = Region::create(RegionConfig {
        clusters: 3,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("ha", schema()).unwrap();
    let mut w = client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 30)).unwrap();
    // The primary cluster goes down entirely.
    region
        .fleet()
        .get(t.primary)
        .unwrap()
        .faults()
        .set_unavailable(true);
    // Transparent failover: swap primary/secondary, rotate, keep writing.
    region.sms().fail_over_table(t.table).unwrap();
    w.append(rows(30, 30)).unwrap();
    // Reads still work too (replica failover + reconciliation).
    let rows_read = client.read_rows(t.table).unwrap();
    assert_eq!(rows_read.rows.len(), 60);
}

#[test]
fn multi_sms_region_shards_tables() {
    let region = Region::create(RegionConfig {
        sms_tasks: 3,
        ..RegionConfig::default()
    })
    .unwrap();
    // Create several tables; each lands on its Slicer-assigned task.
    let mut seen_tasks = std::collections::HashSet::new();
    for i in 0..8 {
        // Table ids come from the shared IdGen regardless of which task
        // creates them; create through the owning task's client.
        let bootstrap = region.client();
        let t = bootstrap
            .create_table(&format!("tbl-{i}"), schema())
            .unwrap()
            .table;
        let owner = region.sms_for(t);
        seen_tasks.insert(owner.task_id());
        let client = region.client_for(t);
        let mut w = client.create_unbuffered_writer(t).unwrap();
        w.append(rows(0, 10)).unwrap();
        assert_eq!(client.read_rows(t).unwrap().rows.len(), 10);
    }
    assert!(seen_tasks.len() > 1, "tables spread over SMS tasks");
}

#[test]
fn heartbeat_pump_enables_fragment_reads_and_gc() {
    let region = Region::create(RegionConfig {
        fragment_max_bytes: 2_000,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("hb", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    for i in 0..10 {
        w.append(rows(i * 20, 20)).unwrap();
    }
    // Heartbeats register rotated fragments with the SMS.
    region.run_heartbeats(false).unwrap();
    let rs = region
        .sms()
        .list_read_fragments(t, region.sms().read_snapshot())
        .unwrap();
    assert!(!rs.fragments.is_empty(), "finalized fragments known to SMS");
    // Optimize → WOS fragments become GC candidates; after grace the
    // heartbeat response carries GC orders and acks drop metadata.
    let stream = w.stream_id();
    region.sms().finalize_stream(t, stream).unwrap();
    region.run_optimizer_cycle(t).unwrap();
    region.advance_micros(30_000_000);
    let removed = region.run_gc(t).unwrap();
    assert!(removed > 0);
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 200);
}

#[test]
fn on_disk_region_persists_bytes() {
    let dir = std::env::temp_dir().join(format!("vortex-region-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let region = Region::create(RegionConfig {
        disk_root: Some(dir.clone()),
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("disk", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(rows(0, 25)).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 25);
    // Real files exist under both cluster roots.
    for c in 0..2 {
        let files = std::fs::read_dir(dir.join(format!("cluster-{c}")))
            .unwrap()
            .count();
        assert!(files > 0, "cluster {c} wrote files");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doc_example_compiles_and_runs() {
    // Mirrors the crate-level doc example.
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let table = client
        .create_table(
            "events",
            Schema::new(vec![
                Field::required("id", FieldType::Int64),
                Field::required("msg", FieldType::String),
            ]),
        )
        .unwrap();
    let mut writer = client.create_unbuffered_writer(table.table).unwrap();
    writer
        .append(RowSet::new(vec![Row::insert(vec![
            Value::Int64(1),
            Value::String("hello vortex".into()),
        ])]))
        .unwrap();
    assert_eq!(client.read_rows(table.table).unwrap().rows.len(), 1);
}

/// Two regions in one process share no runtime state: each owns its
/// metrics registry, freshness probe and crash-point plan, so neither
/// sees the other's traffic, and a point armed on one never fires on
/// the other's path.
#[test]
fn regions_in_one_process_share_no_runtime_state() {
    let a = Region::create(RegionConfig::default()).unwrap();
    let b = Region::create(RegionConfig::default()).unwrap();
    // Traffic in both: appends, then one scan each.
    let mut tables = Vec::new();
    for (region, n) in [(&a, 10), (&b, 25)] {
        let client = region.client();
        let t = client.create_table("iso", schema()).unwrap().table;
        let mut w = client.create_unbuffered_writer(t).unwrap();
        w.append(rows(0, n)).unwrap();
        let seen = region
            .engine()
            .count(t, client.snapshot(), &ScanOptions::default())
            .unwrap();
        assert_eq!(seen, n as u64);
        tables.push((client, w, t));
    }

    // Neither snapshot counts the other region's traffic.
    let (sa, sb) = (a.metrics_snapshot(), b.metrics_snapshot());
    for (snap, rows_appended) in [(&sa, 10), (&sb, 25)] {
        assert_eq!(snap.counters["append.client.rows"], rows_appended);
        assert_eq!(snap.counters["append.client.calls"], 1);
        assert_eq!(snap.counters["rpc.server.append.calls"], 1);
        assert_eq!(snap.counters["rpc.sms.create_table.calls"], 1);
        assert_eq!(snap.counters["scan.calls"], 1);
        assert_eq!(snap.counters["scan.rows_matched"], rows_appended);
    }

    // Disjoint freshness probes: a 10-row region reports 10.
    assert_eq!(a.freshness().rows_observed(), 10);
    assert_eq!(b.freshness().rows_observed(), 25);
    assert_eq!(sa.histograms["freshness.commit_to_visible_us"].count, 10);

    // A point armed on A is invisible on B's path: B's append passes
    // through the same point untouched and kills nothing.
    let guard = a.crash_points().arm_nth("server.append.pre_ack", 1);
    let (_, wb, _) = &mut tables[1];
    wb.append(rows(25, 5)).unwrap();
    assert_eq!(guard.hits(), 0, "B's append reached A's armed point");
    assert!(b.server_channels().iter().all(|c| !c.is_dead()));
    // A's own append reaches it and the point fires there (the writer
    // may still succeed by reconciling onto another server).
    let (_, wa, _) = &mut tables[0];
    let _ = wa.append(rows(10, 5));
    assert_eq!(guard.fires(), 1);
    assert!(a.server_channels().iter().any(|c| c.is_dead()));
    drop(guard);
    assert_eq!(a.metrics_snapshot().crash_point_fires, 1);
    assert_eq!(b.metrics_snapshot().crash_point_fires, 0);
}
