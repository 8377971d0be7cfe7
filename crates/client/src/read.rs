//! The read path (§7.1): fragments are read directly from Colossus,
//! replicas fail over transparently, and ambiguous final appends go
//! through SMS reconciliation.
//!
//! "Query processing in BigQuery reads data in Vortex directly from
//! Colossus through a thick client library without contacting the Stream
//! Server." Commit rules applied here:
//!
//! - anything inside a File-Map-certified prefix is committed;
//! - a data block followed by any other record is committed;
//! - a *final* data block present in **both** replicas is committed (the
//!   server only acknowledged after both writes);
//! - a final data block in only one reachable replica — or replicas of
//!   different lengths — cannot be decided locally: "the client requests
//!   the SMS to reconcile the state of the final append".
//! - "If a reader encounters an append timestamp greater than the read
//!   snapshot timestamp, it can stop reading."
//!
//! # Consistency contract
//!
//! Because readers go straight to the log files, an append is *stamped*
//! (its TrueTime timestamp fixed) before its replica writes land. Three
//! guarantees follow:
//!
//! 1. **Read-after-write**: every row acknowledged before a snapshot was
//!    taken is visible at that snapshot (its stamp precedes the snapshot
//!    in the TrueTime issuance order, and its bytes are durable in both
//!    replicas).
//! 2. **Bleeding-edge reads grow, never shrink**: a scan that races an
//!    in-flight append stamped at ≤ the snapshot may or may not surface
//!    it, depending on whether the bytes had landed — rescanning the same
//!    snapshot can only add such rows, never lose one.
//! 3. **Bounded-stale repeatability**: snapshots older than the longest
//!    in-flight append are exactly repeatable, until they fall off the GC
//!    grace horizon — after which reads fail with `NotFound` ("snapshot
//!    too old") rather than silently under-count.
//!
//! This mirrors Spanner's split between strong reads and bounded-stale
//! reads; `tests/chaos_streams.rs` pins all three properties under fault
//! injection."

use std::sync::Arc;

use vortex_colossus::StorageFleet;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::TableId;
use vortex_common::row::Row;
use vortex_common::schema::Schema;
use vortex_common::truetime::Timestamp;
use vortex_ros::{RosBlock, RowMeta};
use vortex_sms::api::SmsHandle;
use vortex_sms::readset::{FragmentReadSpec, TailReadSpec};
use vortex_wos::parse_fragment;

/// Options for table reads.
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// How many reconcile-and-retry rounds to run before giving up on an
    /// ambiguous streamlet tail. Defaults to 3.
    pub max_reconcile_rounds: Option<usize>,
    /// Optional query-aware cache of decoded immutable fragments (§9
    /// future work).
    pub cache: Option<Arc<crate::cache::ReadCache>>,
    /// Best-effort monitoring mode (§9: "low latency is preferred over
    /// 100% data availability"): unreadable fragments and ambiguous tails
    /// are *skipped* instead of failed over / reconciled; the result is
    /// marked incomplete.
    pub best_effort: bool,
}

impl ReadOptions {
    fn rounds(&self) -> usize {
        self.max_reconcile_rounds.unwrap_or(3)
    }
}

/// All rows of a table visible at a snapshot, with provenance.
#[derive(Debug, Clone)]
pub struct TableRows {
    /// The snapshot timestamp.
    pub snapshot: Timestamp,
    /// Schema at the snapshot.
    pub schema: Schema,
    /// Rows (change types unresolved — UPSERT/DELETE resolution is the
    /// query engine's merge-on-read step).
    pub rows: Vec<(RowMeta, Row)>,
    /// False only for best-effort reads that had to skip data.
    pub complete: bool,
}

/// Outcome of probing one streamlet tail.
pub enum TailOutcome {
    /// The tail's committed, visible rows.
    Rows(Vec<(RowMeta, Row)>),
    /// The final append cannot be decided locally; the caller must ask
    /// the SMS to reconcile and retry (§7.1).
    NeedsReconcile,
}

/// Reads a whole table at `snapshot`: union of ROS blocks, committed WOS
/// fragments, and streamlet tails (§7).
pub fn read_table(
    sms: &SmsHandle,
    fleet: &StorageFleet,
    table: TableId,
    snapshot: Timestamp,
    opts: &ReadOptions,
) -> VortexResult<TableRows> {
    let key = sms.get_table(table)?.encryption_key();
    let mut reconciled: std::collections::HashMap<vortex_common::ids::StreamletId, Timestamp> =
        Default::default();
    for _round in 0..=opts.rounds() {
        let rs = sms.list_read_fragments(table, snapshot)?;
        let mut rows: Vec<(RowMeta, Row)> = Vec::new();
        let mut complete = true;
        for spec in &rs.fragments {
            match read_fragment_cached(spec, fleet, &key, snapshot, opts.cache.as_deref()) {
                Ok(r) => rows.extend(r),
                Err(e) if opts.best_effort && e.is_retryable() => complete = false,
                Err(e) => return Err(e),
            }
        }
        let mut ambiguous = Vec::new();
        for tail in &rs.tails {
            if let Some(list_at) = reconciled.get(&tail.streamlet).copied() {
                // The snapshot predates the reconciliation commit, so the
                // metadata still shows a tail — but the reconciled
                // fragment records (listed at the reconcile time) are
                // authoritative and safe to read at the old snapshot (row
                // visibility is still gated by block timestamps).
                rows.extend(read_reconciled_tail(
                    sms, fleet, &key, table, tail, snapshot, list_at,
                )?);
                continue;
            }
            let outcome = match read_tail(tail, fleet, &key, snapshot) {
                Ok(o) => o,
                Err(e) if opts.best_effort && e.is_retryable() => {
                    complete = false;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match outcome {
                TailOutcome::Rows(r) => rows.extend(r),
                TailOutcome::NeedsReconcile if opts.best_effort => {
                    // Monitoring reads don't pay the reconciliation round
                    // trip; they return what is unambiguous (§9).
                    complete = false;
                }
                TailOutcome::NeedsReconcile => ambiguous.push(tail.streamlet),
            }
        }
        if ambiguous.is_empty() {
            rows.sort_by_key(|(m, _)| (m.stream, m.offset, m.ts));
            // Rows written under an earlier schema version are short of
            // later additive columns: pad with NULLs (§5.4.1).
            let arity = rs.schema.fields.len();
            for (_, r) in rows.iter_mut() {
                while r.values.len() < arity {
                    r.values.push(vortex_common::row::Value::Null);
                }
            }
            return Ok(TableRows {
                snapshot,
                schema: rs.schema,
                rows,
                complete,
            });
        }
        for slid in ambiguous {
            sms.reconcile_streamlet(table, slid)?;
            reconciled.insert(slid, sms.read_snapshot());
        }
    }
    Err(VortexError::Unavailable(format!(
        "table {table}: streamlet tails still ambiguous after reconciliation"
    )))
}

/// Reads a tail whose streamlet was reconciled *after* the read snapshot:
/// the reconciled fragment records (visible at the current metastore
/// time) bound what is committed; block timestamps still gate row
/// visibility at the old snapshot.
pub fn read_reconciled_tail(
    sms: &SmsHandle,
    fleet: &StorageFleet,
    key: &vortex_common::crypt::Key,
    table: TableId,
    tail: &TailReadSpec,
    snapshot: Timestamp,
    list_at: Timestamp,
) -> VortexResult<Vec<(RowMeta, Row)>> {
    // List at the reconciliation timestamp, not a fresh `now`: the
    // fragment records written by the reconcile are MVCC-stable there,
    // while at `now` a fast optimizer+GC cycle may have already deleted
    // them — which would silently drop their rows from this snapshot.
    let mut out = Vec::new();
    let from_offset = tail.first_stream_row + tail.from_row;
    for meta in sms.list_fragments(table, list_at).into_iter().filter(|f| {
        // Include Deleted fragments still visible at the snapshot:
        // the optimizer may convert the reconciled fragments before
        // this read runs, and skipping them would silently drop rows
        // (their ROS replacements are invisible at this snapshot).
        // If the file is already collected, read_fragment fails with
        // NotFound — "snapshot too old" — which is honest.
        f.streamlet == tail.streamlet
            && f.kind == vortex_sms::meta::FragmentKind::Wos
            && f.state != vortex_sms::meta::FragmentState::Active
            && f.visible_at(snapshot)
    }) {
        let spec = FragmentReadSpec {
            mask: meta.mask_at(snapshot),
            visibility: tail.visibility.clone(),
            stream: tail.stream,
            streamlet_first_stream_row: tail.first_stream_row,
            meta,
        };
        for (m, r) in read_fragment(&spec, fleet, key, snapshot)? {
            if m.offset >= from_offset {
                out.push((m, r));
            }
        }
    }
    Ok(out)
}

/// Decodes a fragment's full committed extent, positionally ordered (no
/// visibility filtering) — the cacheable unit: `(path, committed_size)`
/// uniquely identifies this content.
fn decode_fragment(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &vortex_common::crypt::Key,
) -> VortexResult<Vec<(RowMeta, Row)>> {
    // Try each replica until one both reads AND parses: after a
    // single-replica reconciliation, the lagging replica's bytes beyond
    // the common prefix can disagree with the recorded committed size.
    let mut last_err = VortexError::Unavailable(format!("no replica for {}", spec.meta.path));
    for c in spec.meta.clusters {
        let bytes = match fleet.get(c).and_then(|cl| cl.read_all(&spec.meta.path)) {
            Ok(out) => out.data,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        match decode_fragment_bytes(spec, key, &bytes) {
            Ok(rows) => return Ok(rows),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Reads and parses a ROS block *without* materializing its rows, with
/// the same replica failover as [`read_fragment`] — the entry point for
/// compute pushdown: the caller evaluates predicates on the block's
/// compressed column chunks and decodes only what the query needs.
pub fn read_ros_block(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &vortex_common::crypt::Key,
) -> VortexResult<RosBlock> {
    if spec.meta.kind != vortex_sms::meta::FragmentKind::Ros {
        return Err(VortexError::InvalidArgument(format!(
            "{} is not a ROS block",
            spec.meta.path
        )));
    }
    let mut last_err = VortexError::Unavailable(format!("no replica for {}", spec.meta.path));
    for c in spec.meta.clusters {
        let bytes = match fleet.get(c).and_then(|cl| cl.read_all(&spec.meta.path)) {
            Ok(out) => out.data,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        match RosBlock::from_bytes(&bytes, key, spec.meta.fragment.raw()) {
            Ok(block) => return Ok(block),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

fn decode_fragment_bytes(
    spec: &FragmentReadSpec,
    key: &vortex_common::crypt::Key,
    bytes: &[u8],
) -> VortexResult<Vec<(RowMeta, Row)>> {
    let bytes = bytes.to_vec();
    match spec.meta.kind {
        vortex_sms::meta::FragmentKind::Ros => {
            let block = RosBlock::from_bytes(&bytes, key, spec.meta.fragment.raw())?;
            block.rows()
        }
        vortex_sms::meta::FragmentKind::Wos => {
            let parsed = parse_fragment(&bytes, key, Some(spec.meta.committed_size))?;
            let mut out = Vec::new();
            for block in &parsed.blocks {
                for (i, row) in block.rows.rows.iter().enumerate() {
                    let streamlet_row = block.first_row + i as u64;
                    if streamlet_row - spec.meta.first_row >= spec.meta.row_count {
                        break; // beyond the committed extent
                    }
                    out.push((
                        RowMeta {
                            change_type: row.change_type,
                            ts: block.timestamp,
                            stream: spec.stream.raw(),
                            offset: spec.streamlet_first_stream_row + streamlet_row,
                        },
                        row.clone(),
                    ));
                }
            }
            Ok(out)
        }
    }
}

/// Reads one fragment (WOS or ROS) with replica failover.
pub fn read_fragment(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &vortex_common::crypt::Key,
    snapshot: Timestamp,
) -> VortexResult<Vec<(RowMeta, Row)>> {
    read_fragment_cached(spec, fleet, key, snapshot, None)
}

/// [`read_fragment`] with an optional decoded-extent cache (§9).
pub fn read_fragment_cached(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &vortex_common::crypt::Key,
    snapshot: Timestamp,
    cache: Option<&crate::cache::ReadCache>,
) -> VortexResult<Vec<(RowMeta, Row)>> {
    read_visible(spec, fleet, key, snapshot, cache, |_, r| r.clone())
}

/// [`read_fragment`] that keeps each visible row's fragment-relative
/// position — the coordinate deletion masks address (§7.3 DML).
pub fn read_fragment_positions(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &vortex_common::crypt::Key,
    snapshot: Timestamp,
) -> VortexResult<Vec<(u64, Row)>> {
    read_visible(spec, fleet, key, snapshot, None, |pos, (_, r)| {
        (pos, r.clone())
    })
}

/// Decodes a fragment (through `cache` when given) and maps `out` over
/// its rows visible at `snapshot`. The index in the decoded extent is
/// the fragment-relative position.
fn read_visible<T>(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &vortex_common::crypt::Key,
    snapshot: Timestamp,
    cache: Option<&crate::cache::ReadCache>,
    out: impl Fn(u64, &(RowMeta, Row)) -> T,
) -> VortexResult<Vec<T>> {
    if spec.visibility.visible_from > snapshot {
        return Ok(vec![]);
    }
    let decoded = match cache {
        Some(cache) => match cache.get(&spec.meta.path, spec.meta.committed_size) {
            Some(decoded) => decoded,
            None => {
                let decoded = Arc::new(decode_fragment(spec, fleet, key)?);
                cache.put(&spec.meta.path, spec.meta.committed_size, decoded.clone());
                decoded
            }
        },
        None => Arc::new(decode_fragment(spec, fleet, key)?),
    };
    // §7.1: stop at the snapshot timestamp (rows are in write order for
    // WOS; for ROS every row predates the block's creation).
    let wos = spec.meta.kind == vortex_sms::meta::FragmentKind::Wos;
    Ok(decoded
        .iter()
        .take_while(|(meta, _)| !(wos && meta.ts > snapshot))
        .enumerate()
        .filter(|&(pos, _)| spec.row_visible(pos as u64))
        .map(|(pos, r)| out(pos as u64, r))
        .collect())
}

/// Reads an unfinalized streamlet tail by probing log files past the last
/// fragment the SMS knows about.
///
/// §7.1 in full: fragments with a *successor* log file are bounded by
/// that successor's File Map ("the committed final file size of each of
/// the previous Fragments ... serves as a replica of the information that
/// would otherwise be available from the Stream Server") — no replica
/// comparison needed, even if one replica carries a torn block. Only the
/// *latest* fragment needs the commit rules: a block at or before the
/// snapshot is committed if anything follows it or if it is present in
/// both replicas; otherwise the client asks the SMS to reconcile.
// lint:hotpath(scan) — freshness leg: sub-second tail visibility (§4.2.2/§7.1)
pub fn read_tail(
    tail: &TailReadSpec,
    fleet: &StorageFleet,
    key: &vortex_common::crypt::Key,
    snapshot: Timestamp,
) -> VortexResult<TailOutcome> {
    if tail.visibility.visible_from > snapshot {
        return Ok(TailOutcome::Rows(vec![]));
    }
    // ---- Phase 1: probe log files until one is missing. ----
    let mut frags: Vec<(u32, Vec<Vec<u8>>)> = Vec::new();
    let mut ordinal = tail.from_ordinal;
    loop {
        let path = format!("{}f{:08x}", tail.path_prefix, ordinal);
        let mut copies = Vec::new();
        let mut reachable = 0usize;
        for c in tail.clusters {
            let Ok(cluster) = fleet.get(c) else { continue };
            if cluster.faults().is_unavailable() {
                continue;
            }
            reachable += 1;
            if cluster.exists(&path) {
                copies.push(cluster.read_all(&path)?.data);
            }
        }
        if reachable == 0 {
            return Err(VortexError::Unavailable(format!(
                "no replica reachable for streamlet {}",
                tail.streamlet
            )));
        }
        if copies.is_empty() {
            break;
        }
        frags.push((ordinal, copies));
        ordinal += 1;
    }
    let Some((last_ordinal, _)) = frags.last().map(|(o, c)| (*o, c.len())) else {
        if tail.expected_rows > tail.from_row {
            // The SMS knew committed rows past the fragment specs at this
            // snapshot, yet no log file remains: the tail was converted
            // and collected after the snapshot was taken.
            return Err(VortexError::NotFound(format!(
                "snapshot too old: streamlet {} tail collected (expected rows {}..{})",
                tail.streamlet, tail.from_row, tail.expected_rows
            )));
        }
        return Ok(TailOutcome::Rows(vec![]));
    };

    // ---- Phase 2: the latest file's File Map certifies predecessors.
    // Headers are written before any divergence can occur, so any copy
    // serves. ----
    let file_map: std::collections::HashMap<u32, u64> = {
        // lint:allow(L002, the empty-frags case returned TailOutcome::Rows above, so last() is Some by control flow)
        let (_, copies) = frags.last().expect("non-empty");
        let mut map = std::collections::HashMap::new();
        if let Ok(p) = parse_fragment(&copies[0], key, None) {
            for e in &p.header.file_map {
                map.insert(e.ordinal, e.committed_size);
            }
        }
        map
    };

    let mut out = Vec::new();
    // Committed streamlet-relative row end actually recovered from the
    // log files (before flush/mask visibility gating) — compared against
    // the SMS's heartbeat floor at the end.
    let mut recovered_end: u64 = tail.from_row;
    let emit = |p: &vortex_wos::ParsedFragment,
                all_committed: bool,
                out: &mut Vec<(RowMeta, Row)>,
                recovered_end: &mut u64| {
        for block in &p.blocks {
            if block.timestamp > snapshot {
                break;
            }
            if !(block.committed || all_committed) {
                break;
            }
            *recovered_end = (*recovered_end).max(block.first_row + block.rows.rows.len() as u64);
            for (i, row) in block.rows.rows.iter().enumerate() {
                let streamlet_row = block.first_row + i as u64;
                if streamlet_row < tail.from_row {
                    continue; // covered by fragment read specs
                }
                if let Some(limit) = tail.visibility.flush_limit {
                    if streamlet_row >= limit {
                        continue;
                    }
                }
                if tail.mask.contains(streamlet_row) {
                    continue;
                }
                out.push((
                    RowMeta {
                        change_type: row.change_type,
                        ts: block.timestamp,
                        stream: tail.stream.raw(),
                        offset: tail.first_stream_row + streamlet_row,
                    },
                    row.clone(),
                ));
            }
        }
    };

    for (ord, copies) in &frags {
        if *ord != last_ordinal {
            // A successor file exists. Prefer the File Map bound; if the
            // map lacks this ordinal (successor written by a later
            // incarnation after GC), fall back to lenient parsing — the
            // mere existence of the successor certifies every parseable
            // block here (the server opened the next file only after
            // settling this one).
            let limit = file_map.get(ord).copied();
            let mut parsed_ok = None;
            let mut last_err = VortexError::Unavailable(format!("fragment {ord} unreadable"));
            for c in copies {
                match parse_fragment(c, key, limit) {
                    Ok(p) => {
                        parsed_ok = Some(p);
                        break;
                    }
                    Err(e) => last_err = e,
                }
            }
            let Some(p) = parsed_ok else {
                return Err(last_err);
            };
            emit(&p, true, &mut out, &mut recovered_end);
            continue;
        }

        // ---- Phase 3: the latest fragment — commit rules + snapshot-
        // bounded replica comparison. A file that does not even parse a
        // header is a reconciler's poison-only fence: the streamlet was
        // reconciled, so ask the SMS (idempotent) and re-read through the
        // authoritative fragment records.
        let parsed: Vec<_> = match copies
            .iter()
            .map(|c| parse_fragment(c, key, None))
            .collect::<VortexResult<Vec<_>>>()
        {
            Ok(p) => p,
            Err(_) => return Ok(TailOutcome::NeedsReconcile),
        };
        // Only blocks at or before the snapshot matter: divergence from
        // in-flight appends past the snapshot is a writer at work, not a
        // failure ("if a reader encounters an append timestamp greater
        // than the read snapshot timestamp, it can stop reading").
        let snapshot_extent = |p: &vortex_wos::ParsedFragment| -> (usize, u64) {
            let relevant = p.blocks.iter().take_while(|b| b.timestamp <= snapshot);
            let mut count = 0usize;
            let mut end_row = p.header.first_row;
            for b in relevant {
                count += 1;
                end_row = b.first_row + b.rows.rows.len() as u64;
            }
            (count, end_row)
        };
        let all_committed = if parsed.len() >= 2 {
            let e0 = snapshot_extent(&parsed[0]);
            if parsed.iter().any(|p| snapshot_extent(p) != e0) {
                // Replicas disagree about data AT the snapshot: cannot
                // decide locally (§7.1's final-append reconciliation).
                return Ok(TailOutcome::NeedsReconcile);
            }
            true // present in both replicas → committed
        } else {
            let p = &parsed[0];
            let (count, _) = snapshot_extent(p);
            let last_relevant_is_final = count > 0 && count == p.blocks.len();
            if last_relevant_is_final && p.blocks.last().map(|b| !b.committed).unwrap_or(false) {
                return Ok(TailOutcome::NeedsReconcile);
            }
            true // every snapshot-relevant block has a successor record
        };
        emit(&parsed[0], all_committed, &mut out, &mut recovered_end);
    }
    if recovered_end < tail.expected_rows {
        return Err(VortexError::NotFound(format!(
            "snapshot too old: streamlet {} tail recovered rows to {} but the SMS \
             committed floor at the snapshot was {}",
            tail.streamlet, recovered_end, tail.expected_rows
        )));
    }
    Ok(TailOutcome::Rows(out))
}
