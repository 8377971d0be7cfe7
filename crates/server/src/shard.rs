//! Shard-per-core Stream Server internals: single-writer shard threads.
//!
//! The server partitions its hosted streamlets across a fixed set of
//! shard threads (streamlet id modulo shard count). Each
//! [`HostedStreamlet`] is owned by exactly one shard — there is no lock
//! around per-streamlet state, because only its owner thread ever
//! touches it. Appends are routed to shards over bounded mailboxes
//! ([`vortex_common::mailbox`]); the shard coalesces whatever is queued
//! into a size/time-bounded **group commit**: one dual-replica Colossus
//! write per streamlet run and one WAL record per group, amortizing the
//! fixed write overhead (§5.6's ~600µs base service) across every append
//! in the group. Per-append acks resolve through [`ReplySlot`]s after
//! the whole group is durable.
//!
//! Crash semantics move to group granularity: `server.append.pre_ack`
//! fires once per group, after the group's rows and WAL record are
//! durable; every append in the group then observes the simulated death
//! (no acks escape a dead server). A crash during a replica write aborts
//! the rest of the group the same way.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vortex_colossus::StorageFleet;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{IdGen, StreamletId, TableId};
use vortex_common::mailbox::{MailboxReceiver, Pulled, ReplySlot};
use vortex_common::obs::{self, Counter, Histogram};
use vortex_common::row::RowSet;
use vortex_common::runtime::Runtime;
use vortex_common::truetime::{Timestamp, TrueTime};
use vortex_sms::heartbeat::StreamletDelta;
use vortex_sms::meta::wos_path;
use vortex_sms::server_ctl::StreamletSpec;

use crate::hosted::{AppendAck, GroupAppend, GroupScratch, HostedStreamlet, WriteTuning};
use crate::server::ServerConfig;
use crate::wal::{ServerLog, WalEvent};

/// How long an idle shard parks between mailbox polls.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// One append routed to a shard. The rows are owned: the facade clones
/// them out of the caller's request so the shard shares nothing with
/// other threads.
pub(crate) struct AppendReq {
    pub streamlet: StreamletId,
    pub rows: RowSet,
    pub declared_schema_version: u32,
    pub expected_stream_offset: Option<u64>,
    pub start: Timestamp,
    pub bytes: u64,
    pub reply: Arc<ReplySlot<VortexResult<AppendAck>>>,
}

/// Control-plane requests: rare, never shed, always processed in posting
/// order relative to appends from the same caller.
pub(crate) enum CtlReq {
    Open {
        spec: StreamletSpec,
        reply: Arc<ReplySlot<VortexResult<()>>>,
    },
    Flush {
        streamlet: StreamletId,
        flush_row: u64,
        reply: Arc<ReplySlot<VortexResult<()>>>,
    },
    Finalize {
        streamlet: StreamletId,
        reply: Arc<ReplySlot<VortexResult<()>>>,
    },
    Revoke {
        streamlet: StreamletId,
        reply: Arc<ReplySlot<()>>,
    },
    SetSchema {
        table: TableId,
        version: u32,
    },
    Tick {
        now: Timestamp,
        reply: Arc<ReplySlot<usize>>,
    },
    Heartbeat {
        full: bool,
        reply: Arc<ReplySlot<Vec<StreamletDelta>>>,
    },
    Gc {
        table: TableId,
        streamlet: StreamletId,
        ordinals: Vec<u32>,
        reply: Arc<ReplySlot<VortexResult<Vec<u32>>>>,
    },
    GcUnknown {
        streamlet: StreamletId,
        now: Timestamp,
        min_age_micros: u64,
        reply: Arc<ReplySlot<VortexResult<bool>>>,
    },
    Rows {
        streamlet: StreamletId,
        reply: Arc<ReplySlot<Option<u64>>>,
    },
    Checkpoint {
        reply: Arc<ReplySlot<VortexResult<()>>>,
    },
}

/// A message in a shard's mailbox.
pub(crate) enum ShardMsg {
    Append(AppendReq),
    Ctl(CtlReq),
}

/// The ambiguous-ack crash point, at group granularity: the group's rows
/// and WAL record are durable on both replicas, but no caller has seen
/// an ack yet (§4.2.2). A fire here fails *every* append in the group —
/// a dead server sends no acks — and the clients' offset-based retries
/// must dedup.
fn group_pre_ack(rt: &Runtime) -> VortexResult<()> {
    vortex_common::crash_point!(rt, "server.append.pre_ack");
    Ok(())
}

/// Everything one shard thread owns. Nothing in here is shared: the
/// streamlet map, WAL epoch, schema cache, and scratch arenas belong to
/// this thread alone (the one exception, `writable`, is an atomic the
/// facade reads for load reports).
pub(crate) struct Shard {
    cfg: ServerConfig,
    tuning: WriteTuning,
    fleet: StorageFleet,
    tt: TrueTime,
    ids: Arc<IdGen>,
    rt: Arc<Runtime>,
    log: ServerLog,
    streamlets: HashMap<StreamletId, HostedStreamlet>,
    latest_schema: HashMap<TableId, u32>,
    /// Writable-streamlet count, published for the facade's LoadReport.
    writable: Arc<AtomicU64>,
    /// Group-commit arenas, allocated once and reused for every group.
    scratch: GroupScratch,
    batch: Vec<AppendReq>,
    results: Vec<VortexResult<AppendAck>>,
    wal_events: Vec<WalEvent>,
    /// Metric handles interned at spawn; the hot path never formats
    /// names or takes the registry lock.
    m_group_appends: Arc<Histogram>,
    m_group_bytes: Arc<Histogram>,
    m_groups: Arc<Counter>,
    m_shard_appends: Arc<Counter>,
}

impl Shard {
    pub(crate) fn new(
        idx: u32,
        cfg: ServerConfig,
        fleet: StorageFleet,
        tt: TrueTime,
        ids: Arc<IdGen>,
        rt: Arc<Runtime>,
        writable: Arc<AtomicU64>,
    ) -> VortexResult<Self> {
        // A fresh log epoch on the server's home cluster, owned by this
        // shard alone.
        let log = ServerLog::open(cfg.server, idx, fleet.get(cfg.cluster)?, Arc::clone(&rt))?;
        let m = rt.metrics();
        let tuning = WriteTuning {
            block_buffer_bytes: cfg.block_buffer_bytes,
            fragment_max_bytes: cfg.fragment_max_bytes,
        };
        Ok(Shard {
            m_group_appends: m.histogram(obs::GROUP_COMMIT_APPENDS),
            m_group_bytes: m.histogram(obs::GROUP_COMMIT_BYTES),
            m_groups: m.counter(obs::GROUP_COMMIT_GROUPS),
            // lint:allow(L010, cold construction — once per shard lifetime)
            m_shard_appends: m.counter(&format!("{}{idx:02}.appends", obs::SHARD_APPENDS_PREFIX)),
            cfg,
            tuning,
            fleet,
            tt,
            ids,
            rt,
            log,
            streamlets: HashMap::new(), // lint:allow(L010, cold construction)
            latest_schema: HashMap::new(), // lint:allow(L010, cold construction)
            writable,
            scratch: GroupScratch::new(),
            batch: Vec::new(),      // lint:allow(L010, cold construction)
            results: Vec::new(),    // lint:allow(L010, cold construction)
            wal_events: Vec::new(), // lint:allow(L010, cold construction)
        })
    }

    /// The shard main loop: pull → greedily coalesce a group → commit →
    /// resolve acks → handle any control message that closed the group.
    /// Exits when the facade closes the mailbox.
    pub(crate) fn run(mut self, mut rx: MailboxReceiver<ShardMsg>) {
        loop {
            match rx.pull(IDLE_PARK) {
                Pulled::Msg(ShardMsg::Append(first)) => {
                    let mut group_bytes = first.bytes;
                    self.batch.push(first);
                    // Greedy drain up to the group bounds; stop at the
                    // first control message so posting order is kept.
                    let mut pending_ctl = None;
                    while self.batch.len() < self.cfg.group_max_appends
                        && group_bytes < self.cfg.group_max_bytes
                    {
                        match rx.try_pull() {
                            Some(ShardMsg::Append(r)) => {
                                group_bytes += r.bytes;
                                self.batch.push(r);
                            }
                            Some(ShardMsg::Ctl(c)) => {
                                pending_ctl = Some(c);
                                break;
                            }
                            None => break,
                        }
                    }
                    self.commit_group(group_bytes);
                    if let Some(c) = pending_ctl {
                        self.handle_ctl(c);
                    }
                }
                Pulled::Msg(ShardMsg::Ctl(c)) => self.handle_ctl(c),
                Pulled::Idle => {}
                Pulled::Closed => break,
            }
        }
    }

    /// Commits one group: sorts the batch into per-streamlet runs
    /// (stable, so per-streamlet arrival order is preserved), lands each
    /// run through [`HostedStreamlet::append_group`], writes ONE WAL
    /// record covering every fragment sealed by the group, checks the
    /// group-granularity ambiguous-ack crash point, and only then
    /// resolves the acks.
    // lint:hotpath(shard_commit) — shard leg: group commit → dual-replica write → ack fan-out
    fn commit_group(&mut self, group_bytes: u64) {
        let mut batch = std::mem::take(&mut self.batch);
        let mut results = std::mem::take(&mut self.results);
        let mut wal_events = std::mem::take(&mut self.wal_events);
        results.clear();
        wal_events.clear();
        batch.sort_by_key(|r| r.streamlet);

        let mut crashed: Option<VortexError> = None;
        let mut i = 0usize;
        while i < batch.len() {
            let slid = batch[i].streamlet;
            let mut j = i + 1;
            while j < batch.len() && batch[j].streamlet == slid {
                j += 1;
            }
            if let Some(e) = &crashed {
                // A crash earlier in the group: the server is dead at
                // that instruction; no later run executes.
                for _ in i..j {
                    results.push(Err(e.clone())); // lint:allow(L010, cold crash path)
                }
                i = j;
                continue;
            }
            match self.streamlets.get_mut(&slid) {
                None => {
                    // Not hosted by this incarnation: same retryable
                    // signal the facade uses (reconcile + rotate, §5.6).
                    for _ in i..j {
                        results.push(Err(VortexError::StreamletFinalized(slid)));
                        // lint:allow(L010, results arena reuse)
                    }
                }
                Some(sl) => {
                    let latest = self
                        .latest_schema
                        .get(&sl.spec.table)
                        .copied()
                        .unwrap_or(sl.spec.schema.version);
                    // Borrow the run's rows into a bounded entry list
                    // (≤ group_max_appends, usually a handful).
                    let mut entries = Vec::with_capacity(j - i); // lint:allow(L010, bounded per-run entry list)
                    for r in &batch[i..j] {
                        // lint:allow(L010, bounded per-run entry list)
                        entries.push(GroupAppend {
                            rows: &r.rows,
                            declared_schema_version: r.declared_schema_version,
                            expected_stream_offset: r.expected_stream_offset,
                            start: r.start,
                        });
                    }
                    let before = results.len();
                    sl.append_group(
                        &entries,
                        latest,
                        self.tuning,
                        &self.ids,
                        &self.fleet,
                        &self.tt,
                        &mut self.scratch,
                        &mut results,
                    );
                    sl.drain_unlogged_seals(&mut wal_events);
                    if let Some(e) = results[before..]
                        .iter()
                        .filter_map(|r| r.as_ref().err())
                        .find(|e| matches!(e, VortexError::SimulatedCrash(_)))
                    {
                        crashed = Some(e.clone()); // lint:allow(L010, cold crash path)
                    }
                }
            }
            i = j;
        }

        if crashed.is_none() {
            // One WAL record for the whole group: every fragment sealed
            // while committing it (best-effort, like the old per-event
            // log). Record-aligned framing means a torn tail truncates
            // to a whole-group prefix on recovery.
            if !wal_events.is_empty() {
                if let Ok(home) = self.fleet.get(self.cfg.cluster) {
                    let _ = self.log.log_batch(home, &wal_events);
                }
            }
            if let Err(e) = group_pre_ack(&self.rt) {
                crashed = Some(e);
            }
        }
        if let Some(e) = crashed {
            // Group-granularity death: a dead server acks nothing, even
            // appends whose rows are already durable — the canonical
            // ambiguous ack, absorbed by client-side offset dedup.
            for r in results.iter_mut() {
                *r = Err(e.clone()); // lint:allow(L010, cold crash path)
            }
        }

        for (req, res) in batch.iter().zip(results.drain(..)) {
            req.reply.deliver(res);
        }
        self.m_group_appends.record(batch.len() as u64);
        self.m_group_bytes.record(group_bytes);
        self.m_groups.inc();
        self.m_shard_appends.add(batch.len() as u64);
        self.publish_writable();

        batch.clear();
        self.batch = batch;
        self.results = results;
        wal_events.clear();
        self.wal_events = wal_events;
    }

    fn publish_writable(&self) {
        let n = self.streamlets.values().filter(|s| s.is_writable()).count() as u64;
        self.writable.store(n, Ordering::Release);
    }

    fn log_one(&mut self, ev: WalEvent) {
        if let Ok(home) = self.fleet.get(self.cfg.cluster) {
            let _ = self.log.log(home, &ev);
        }
    }

    fn handle_ctl(&mut self, c: CtlReq) {
        match c {
            CtlReq::Open { spec, reply } => {
                let slid = spec.streamlet;
                let table = spec.table;
                let first = spec.first_stream_row;
                let res = HostedStreamlet::open(spec, &self.ids, &self.fleet, &self.tt, &self.rt)
                    .map(|sl| {
                        self.streamlets.insert(slid, sl);
                    });
                if res.is_ok() {
                    self.log_one(WalEvent::StreamletOpened {
                        table,
                        streamlet: slid,
                        first_stream_row: first,
                    });
                }
                self.publish_writable();
                reply.deliver(res);
            }
            CtlReq::Flush {
                streamlet,
                flush_row,
                reply,
            } => {
                let res = match self.streamlets.get_mut(&streamlet) {
                    None => Err(VortexError::StreamletFinalized(streamlet)),
                    Some(sl) => sl.flush(flush_row, &self.ids, &self.fleet, &self.tt),
                };
                reply.deliver(res);
            }
            CtlReq::Finalize { streamlet, reply } => {
                let res = match self.streamlets.get_mut(&streamlet) {
                    None => Err(VortexError::NotFound(format!(
                        "streamlet {streamlet} not hosted"
                    ))),
                    Some(sl) => sl.finalize(&self.fleet, &self.tt),
                };
                if res.is_ok() {
                    self.log_one(WalEvent::StreamletFinalized { streamlet });
                }
                self.publish_writable();
                reply.deliver(res);
            }
            CtlReq::Revoke { streamlet, reply } => {
                if let Some(sl) = self.streamlets.get_mut(&streamlet) {
                    sl.revoke();
                }
                self.publish_writable();
                reply.deliver(());
            }
            CtlReq::SetSchema { table, version } => {
                let e = self.latest_schema.entry(table).or_insert(version);
                *e = (*e).max(version);
            }
            CtlReq::Tick { now, reply } => {
                let mut committed = 0usize;
                for sl in self.streamlets.values_mut() {
                    if sl
                        .commit_if_idle(
                            now,
                            self.cfg.commit_idle_micros,
                            &self.ids,
                            &self.fleet,
                            &self.tt,
                        )
                        .unwrap_or(false)
                    {
                        committed += 1;
                    }
                }
                reply.deliver(committed);
            }
            CtlReq::Heartbeat { full, reply } => {
                let mut deltas = Vec::new();
                for sl in self.streamlets.values_mut() {
                    if let Some(d) = sl.heartbeat_delta(full) {
                        deltas.push(d);
                    }
                }
                reply.deliver(deltas);
            }
            CtlReq::Gc {
                table,
                streamlet,
                ordinals,
                reply,
            } => {
                let res = self.gc_run(table, streamlet, &ordinals);
                reply.deliver(res);
            }
            CtlReq::GcUnknown {
                streamlet,
                now,
                min_age_micros,
                reply,
            } => {
                let res = self.gc_unknown(streamlet, now, min_age_micros);
                reply.deliver(res);
            }
            CtlReq::Rows { streamlet, reply } => {
                reply.deliver(self.streamlets.get(&streamlet).map(|sl| sl.rows()));
            }
            CtlReq::Checkpoint { reply } => {
                let snapshot = self.snapshot_bytes();
                let res = match self.fleet.get(self.cfg.cluster) {
                    Ok(home) => self.log.checkpoint(home, &snapshot),
                    Err(e) => Err(e),
                };
                reply.deliver(res);
            }
        }
    }

    /// Deletes fragment files for one GC order (§5.5). Deletion is
    /// idempotent; a partial batch is simply unacknowledged and the SMS
    /// re-issues it next heartbeat.
    fn gc_run(
        &mut self,
        table: TableId,
        streamlet: StreamletId,
        ordinals: &[u32],
    ) -> VortexResult<Vec<u32>> {
        let mut deleted = Vec::new();
        for ord in ordinals {
            // Mid-GC death: some fragments of the batch are deleted and
            // unacknowledged; the SMS re-issues the work list (§5.5).
            vortex_common::crash_point!(self.rt, "server.gc.mid");
            let path = wos_path(table, streamlet, *ord);
            let mut ok = true;
            for c in self.fleet.cluster_ids() {
                if let Ok(cluster) = self.fleet.get(c) {
                    if cluster.exists(&path) && cluster.delete(&path).is_err() {
                        ok = false;
                    }
                }
            }
            if ok {
                deleted.push(*ord);
            }
        }
        if !deleted.is_empty() {
            self.log_one(WalEvent::FragmentsDeleted {
                streamlet,
                ordinals: deleted.clone(),
            });
        }
        Ok(deleted)
    }

    /// Deletes a streamlet the SMS does not know, but only if it is old
    /// enough ("this avoids any in-flight races", §5.4.3). Returns
    /// whether the streamlet was removed.
    fn gc_unknown(
        &mut self,
        streamlet: StreamletId,
        now: Timestamp,
        min_age_micros: u64,
    ) -> VortexResult<bool> {
        let Some(sl) = self.streamlets.get(&streamlet) else {
            return Ok(false);
        };
        if now.micros().saturating_sub(sl.spec_created_micros()) < min_age_micros {
            return Ok(false);
        }
        let table = sl.spec.table;
        let ordinals: Vec<u32> = sl.done_fragments().iter().map(|d| d.ordinal).collect();
        match self.gc_run(table, streamlet, &ordinals) {
            Err(e @ VortexError::SimulatedCrash(_)) => Err(e),
            _ => {
                self.streamlets.remove(&streamlet);
                self.publish_writable();
                Ok(true)
            }
        }
    }

    /// This shard's slice of the metadata snapshot: same format the old
    /// single-log server wrote, restricted to the shard's streamlets.
    fn snapshot_bytes(&self) -> Vec<u8> {
        use vortex_common::codec::put_uvarint;
        let mut out = Vec::new();
        put_uvarint(&mut out, self.streamlets.len() as u64);
        for (slid, sl) in self.streamlets.iter() {
            put_uvarint(&mut out, slid.raw());
            put_uvarint(&mut out, sl.spec.table.raw());
            put_uvarint(&mut out, sl.rows());
            put_uvarint(&mut out, sl.done_fragments().len() as u64);
            out.push(sl.is_writable() as u8);
        }
        out
    }
}

impl HostedStreamlet {
    /// Creation time proxy used for the orphan age guard.
    fn spec_created_micros(&self) -> u64 {
        // The epoch in the spec is a counter, not a time; hosted
        // streamlets track no absolute creation instant, so treat epoch 0
        // as "old". For simulation purposes the age guard only needs to
        // distinguish "just created" from "long-lived": long-lived ones
        // have produced fragments.
        if self.done_fragments().is_empty() && self.rows() == 0 {
            u64::MAX // brand new: never old enough to delete
        } else {
            0
        }
    }
}
