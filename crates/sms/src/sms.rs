//! The Stream Metadata Server task: Vortex's control plane (§5.2).
//!
//! Every mutation is a serializable transaction against the Spanner-lite
//! metastore, which is what keeps the system correct when Slicer briefly
//! assigns a table to two tasks at once (§5.2.1) — the loser of any
//! conflicting commit simply retries against fresh state.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use vortex_colossus::StorageFleet;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{
    ClusterId, FragmentId, IdGen, ServerId, SmsTaskId, StreamId, StreamletId, TableId,
};
use vortex_common::mask::DeletionMask;
use vortex_common::runtime::Runtime;
use vortex_common::schema::Schema;
use vortex_common::truetime::{Timestamp, TrueTime};
use vortex_metastore::MetaStore;
use vortex_wos::{parse_fragment, FragmentWriter};

use crate::bigmeta::BigMeta;
use crate::heartbeat::{HeartbeatReport, HeartbeatResponse};
use crate::meta::{
    self, dml_lock_prefix, dml_lock_token_key, fragment_key, fragment_prefix, stream_key,
    stream_prefix, streamlet_key, streamlet_prefix, table_key, wos_path, wos_streamlet_prefix,
    FragmentKind, FragmentMeta, FragmentState, StreamMeta, StreamType, StreamletMeta,
    StreamletState, TableMeta,
};
use crate::readset::{FragmentReadSpec, ReadSet, RowVisibility, TailReadSpec};
use crate::server_ctl::{ServerHandle, StreamletSpec};
use crate::slicer::SlicerView;

/// Static configuration of one SMS task.
#[derive(Debug, Clone)]
pub struct SmsConfig {
    /// This task's id.
    pub task: SmsTaskId,
    /// Cluster the task runs in.
    pub cluster: ClusterId,
    /// Grace period before logically-deleted fragments are physically
    /// GC'd ("kept sufficiently long to ensure that any active queries
    /// that are reading from them do not fail", §5.4.3).
    pub gc_grace_micros: u64,
    /// Transaction retry budget.
    pub txn_retries: usize,
}

impl SmsConfig {
    /// Defaults for tests and examples.
    pub fn new(task: SmsTaskId, cluster: ClusterId) -> Self {
        SmsConfig {
            task,
            cluster,
            gc_grace_micros: 10_000_000, // 10 virtual seconds
            txn_retries: 64,
        }
    }
}

/// A writable stream handle returned to clients: stream + its writable
/// streamlet + the server hosting it (§5.2: "the SMS then responds to the
/// client request with the Streamlet id and the address of the Stream
/// Server").
#[derive(Clone)]
pub struct StreamHandle {
    /// Owning table.
    pub table: TableId,
    /// Stream metadata.
    pub stream: StreamMeta,
    /// The writable streamlet.
    pub streamlet: StreamletMeta,
    /// Schema at handout time (carries the version).
    pub schema: Schema,
    /// The Stream Server hosting the streamlet.
    pub server: ServerHandle,
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle")
            .field("table", &self.table)
            .field("stream", &self.stream.stream)
            .field("streamlet", &self.streamlet.streamlet)
            .field("server", &self.server.server_id())
            .finish()
    }
}

/// A claim ticket for one running DML statement (§7.3). Minted by
/// [`SmsTask::begin_dml`] and surrendered to [`SmsTask::end_dml`]; the
/// token keys the statement's metastore marker, which makes both calls
/// idempotent per statement (safe to re-execute after an ambiguous ack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmlTicket(pub u64);

/// One Stream Metadata Server task.
pub struct SmsTask {
    cfg: SmsConfig,
    store: Arc<MetaStore>,
    fleet: StorageFleet,
    tt: TrueTime,
    ids: Arc<IdGen>,
    rt: Arc<Runtime>,
    servers: RwLock<HashMap<ServerId, ServerHandle>>,
    bigmeta: Arc<BigMeta>,
    view: Option<SlicerView>,
}

impl SmsTask {
    /// Creates a task over shared infrastructure. `view` is the task's
    /// Slicer assignment view; `None` means "owns everything" (single-task
    /// deployments and tests). Metrics and crash points go through `rt`.
    pub fn new(
        cfg: SmsConfig,
        store: Arc<MetaStore>,
        fleet: StorageFleet,
        tt: TrueTime,
        ids: Arc<IdGen>,
        rt: Arc<Runtime>,
        view: Option<SlicerView>,
    ) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            store,
            fleet,
            tt,
            ids,
            rt,
            servers: RwLock::new(HashMap::new()),
            bigmeta: Arc::new(BigMeta::new()),
            view,
        })
    }

    /// This task's id.
    pub fn task_id(&self) -> SmsTaskId {
        self.cfg.task
    }

    /// This task's static configuration (used to rebuild a replacement
    /// task after a simulated process death).
    pub fn config(&self) -> &SmsConfig {
        &self.cfg
    }

    /// The Big Metadata index this task maintains (§6.2).
    pub fn bigmeta(&self) -> &BigMeta {
        &self.bigmeta
    }

    /// Shared handle to the Big Metadata index (what [`crate::api::SmsApi`]
    /// hands out, so channel wrappers can swap tasks without dangling
    /// borrows).
    pub fn bigmeta_arc(&self) -> Arc<BigMeta> {
        Arc::clone(&self.bigmeta)
    }

    /// The shared metastore (used by verification pipelines).
    pub fn store(&self) -> &Arc<MetaStore> {
        &self.store
    }

    /// Registers a Stream Server control endpoint.
    pub fn register_server(&self, server: ServerHandle) {
        self.servers.write().insert(server.server_id(), server);
    }

    /// A fresh snapshot timestamp guaranteeing read-after-write: data
    /// whose append was acknowledged before this call is visible at it.
    pub fn read_snapshot(&self) -> Timestamp {
        // Covers both record timestamps (server TrueTime `latest`) and
        // metastore commit timestamps.
        Timestamp(self.tt.record_timestamp().0.max(self.store.now().0))
    }

    fn check_owns(&self, table: TableId) -> VortexResult<()> {
        if let Some(v) = &self.view {
            if !v.owns(table) {
                return Err(VortexError::Unavailable(format!(
                    "table {table} not assigned to SMS task {}",
                    self.cfg.task
                )));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Tables.
    // ------------------------------------------------------------------

    /// Creates a table, assigning it a primary/secondary cluster pair
    /// (§5.2.1's zone assignment).
    pub fn create_table(&self, name: &str, schema: Schema) -> VortexResult<TableMeta> {
        let clusters = self.fleet.cluster_ids();
        if clusters.len() < 2 {
            return Err(VortexError::InvalidArgument(
                "a region needs at least 2 clusters".into(),
            ));
        }
        let table = self.ids.next_table();
        let primary = clusters[(table.raw() as usize) % clusters.len()];
        let secondary = clusters[(table.raw() as usize + 1) % clusters.len()];
        let meta = TableMeta {
            table,
            name: name.to_string(),
            schema,
            primary,
            secondary,
            key_ref: format!("table-key-{}", table.raw()),
            created_at: self.tt.record_timestamp(),
            external_bucket: None,
        };
        let name_key = format!("tname/{name}");
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            if txn.get(&name_key).is_some() {
                return Err(VortexError::AlreadyExists(format!("table name {name}")));
            }
            txn.put(&name_key, meta.table.raw().to_le_bytes().to_vec());
            txn.put(&table_key(meta.table), meta.to_bytes());
            Ok(())
        })?;
        Ok(meta)
    }

    /// Creates a BigLake Managed Table (§6.4): identical to
    /// [`SmsTask::create_table`] except the optimizer writes ROS blocks
    /// into the named customer bucket; queries read the union of WOS in
    /// Colossus and the bucket's blocks.
    pub fn create_blmt_table(
        &self,
        name: &str,
        schema: Schema,
        bucket: &str,
    ) -> VortexResult<TableMeta> {
        let meta = self.create_table(name, schema)?;
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            let bytes = txn
                .get(&table_key(meta.table))
                .ok_or_else(|| VortexError::NotFound(format!("table {}", meta.table)))?;
            let mut m = TableMeta::from_bytes(&bytes)?;
            m.external_bucket = Some(bucket.to_string());
            txn.put(&table_key(meta.table), m.to_bytes());
            Ok(())
        })?;
        self.get_table(meta.table)
    }

    /// Fetches a table by id at the latest snapshot.
    pub fn get_table(&self, table: TableId) -> VortexResult<TableMeta> {
        let bytes = self
            .store
            .read_at(&table_key(table), self.store.now())
            .ok_or_else(|| VortexError::NotFound(format!("table {table}")))?;
        TableMeta::from_bytes(&bytes)
    }

    /// Resolves a table by name.
    pub fn get_table_by_name(&self, name: &str) -> VortexResult<TableMeta> {
        let bytes = self
            .store
            .read_at(&format!("tname/{name}"), self.store.now())
            .ok_or_else(|| VortexError::NotFound(format!("table '{name}'")))?;
        if bytes.len() != 8 {
            return Err(VortexError::Decode("table name index".into()));
        }
        self.get_table(TableId::from_raw(u64::from_le_bytes(
            // lint:allow(L002, length == 8 was just checked, so the conversion cannot fail)
            bytes.try_into().unwrap(),
        )))
    }

    /// Applies a schema change (additive column). Writers learn about it
    /// through the Stream Servers on their next append (§5.4.1).
    pub fn update_schema(&self, table: TableId, new_schema: Schema) -> VortexResult<TableMeta> {
        self.check_owns(table)?;
        let updated = self.store.with_txn(self.cfg.txn_retries, |txn| {
            let bytes = txn
                .get(&table_key(table))
                .ok_or_else(|| VortexError::NotFound(format!("table {table}")))?;
            let mut meta = TableMeta::from_bytes(&bytes)?;
            if new_schema.version <= meta.schema.version {
                return Err(VortexError::InvalidArgument(format!(
                    "schema version must increase: {} -> {}",
                    meta.schema.version, new_schema.version
                )));
            }
            meta.schema = new_schema.clone();
            txn.put(&table_key(table), meta.to_bytes());
            Ok(meta)
        })?;
        // Notify Stream Servers so they can fail stale-writer appends
        // with SchemaVersionMismatch (§5.4.1).
        for s in self.servers.read().values() {
            s.notify_schema_version(table, updated.schema.version);
        }
        Ok(updated)
    }

    /// Swaps primary and secondary clusters — the transparent failover of
    /// §5.2.1. New streamlets will be placed in the new primary.
    pub fn fail_over_table(&self, table: TableId) -> VortexResult<TableMeta> {
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            let bytes = txn
                .get(&table_key(table))
                .ok_or_else(|| VortexError::NotFound(format!("table {table}")))?;
            let mut meta = TableMeta::from_bytes(&bytes)?;
            std::mem::swap(&mut meta.primary, &mut meta.secondary);
            txn.put(&table_key(table), meta.to_bytes());
            Ok(meta)
        })
    }

    // ------------------------------------------------------------------
    // Streams and streamlets.
    // ------------------------------------------------------------------

    fn pick_server(&self, primary: ClusterId) -> VortexResult<ServerHandle> {
        let servers = self.servers.read();
        let best = servers
            .values()
            .filter(|s| s.cluster() == primary)
            .chain(servers.values().filter(|s| s.cluster() != primary))
            .map(|s| (s, s.load()))
            .filter(|(_, l)| !l.quarantined)
            .min_by(|(_, a), (_, b)| a.score().total_cmp(&b.score()))
            .map(|(s, _)| Arc::clone(s));
        best.ok_or_else(|| VortexError::Unavailable("no stream servers available".into()))
    }

    /// Creates a Stream of the given type plus its first Streamlet
    /// (§4.2.1 / §5.2).
    pub fn create_stream(&self, table: TableId, stype: StreamType) -> VortexResult<StreamHandle> {
        self.check_owns(table)?;
        let tmeta = self.get_table(table)?;
        let stream = StreamMeta {
            stream: self.ids.next_stream(),
            table,
            stype,
            finalized: false,
            committed_at: None,
            flushed_row: 0,
            created_at: self.tt.record_timestamp(),
            streamlet_count: 0,
        };
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            txn.put(&stream_key(table, stream.stream), stream.to_bytes());
            Ok(())
        })?;
        self.open_streamlet(&tmeta, stream, 0)
    }

    /// Opens the next streamlet of a stream after the current one closed
    /// (server restart, migration, irrecoverable write error — §5.2).
    /// Reconciles the previous streamlet first so the stream-level row
    /// offset of the new streamlet is exact.
    pub fn rotate_streamlet(&self, table: TableId, stream: StreamId) -> VortexResult<StreamHandle> {
        self.check_owns(table)?;
        let tmeta = self.get_table(table)?;
        let smeta = self.get_stream(table, stream)?;
        if smeta.finalized {
            return Err(VortexError::StreamFinalized(stream));
        }
        // Reconcile the last streamlet if it isn't finalized yet.
        let mut first_stream_row = 0u64;
        if let Some(last) = self.last_streamlet(table, stream)? {
            let reconciled = if last.state == StreamletState::Finalized {
                last
            } else {
                self.reconcile_streamlet(table, last.streamlet)?
            };
            first_stream_row = reconciled.first_stream_row + reconciled.row_count;
        }
        self.open_streamlet(&tmeta, smeta, first_stream_row)
    }

    fn open_streamlet(
        &self,
        tmeta: &TableMeta,
        mut stream: StreamMeta,
        first_stream_row: u64,
    ) -> VortexResult<StreamHandle> {
        let clusters = self.replica_pair(tmeta)?;
        let mut last_err = VortexError::Unavailable("no stream servers".into());
        for _attempt in 0..3 {
            let server = self.pick_server(tmeta.primary)?;
            let slmeta = StreamletMeta {
                streamlet: self.ids.next_streamlet(),
                stream: stream.stream,
                table: tmeta.table,
                ordinal: stream.streamlet_count,
                server: server.server_id(),
                clusters,
                state: StreamletState::Writable,
                first_stream_row,
                row_count: 0,
                known_fragments: 0,
                masks: vec![],
                epoch: 1,
            };
            let spec = StreamletSpec {
                table: tmeta.table,
                stream: stream.stream,
                streamlet: slmeta.streamlet,
                clusters,
                schema: tmeta.schema.clone(),
                first_stream_row,
                key: tmeta.encryption_key(),
                epoch: slmeta.epoch,
            };
            // Persist first, then instruct the server (§5.4.3: the SMS
            // "persist[s] it into Spanner", then RPCs the Stream Server).
            let stream_snapshot = stream.clone();
            let slmeta_snapshot = slmeta.clone();
            self.store.with_txn(self.cfg.txn_retries, move |txn| {
                let mut s = stream_snapshot.clone();
                s.streamlet_count += 1;
                txn.put(&stream_key(s.table, s.stream), s.to_bytes());
                txn.put(
                    &streamlet_key(slmeta_snapshot.table, slmeta_snapshot.streamlet),
                    slmeta_snapshot.to_bytes(),
                );
                Ok(())
            })?;
            stream.streamlet_count += 1;
            // A crash here leaves the streamlet row committed in the
            // metastore but the Stream Server never instructed: exactly
            // the orphan that reconcile_streamlet's Phase 1 poisons
            // (§5.2). Fires between txn commit and side effect, and
            // bypasses the retry loop below.
            vortex_common::crash_point!(self.rt, "sms.open_streamlet.post_txn");
            match server.create_streamlet(spec) {
                Ok(()) => {
                    return Ok(StreamHandle {
                        table: tmeta.table,
                        stream,
                        streamlet: slmeta,
                        schema: tmeta.schema.clone(),
                        server,
                    });
                }
                Err(e) => {
                    // Mark the stillborn streamlet finalized-empty and try
                    // another server.
                    let dead = slmeta.clone();
                    let _ = self.store.with_txn(self.cfg.txn_retries, move |txn| {
                        let mut m = dead.clone();
                        m.state = StreamletState::Finalized;
                        txn.put(&streamlet_key(m.table, m.streamlet), m.to_bytes());
                        Ok(())
                    });
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Picks the two clusters a new streamlet's log files will live in.
    /// Prefers the table's primary and secondary, but §5.1 allows "any 2
    /// clusters of all the available clusters in a region" — so an
    /// unavailable preferred cluster is replaced by the next healthy one.
    fn replica_pair(&self, tmeta: &TableMeta) -> VortexResult<[ClusterId; 2]> {
        let mut chosen: Vec<ClusterId> = Vec::with_capacity(2);
        let preferred = [tmeta.primary, tmeta.secondary];
        for c in preferred.into_iter().chain(self.fleet.cluster_ids()) {
            if chosen.contains(&c) {
                continue;
            }
            if let Ok(cluster) = self.fleet.get(c) {
                if !cluster.faults().is_unavailable() {
                    chosen.push(c);
                }
            }
            if chosen.len() == 2 {
                return Ok([chosen[0], chosen[1]]);
            }
        }
        Err(VortexError::Unavailable(
            "fewer than 2 healthy clusters in the region".into(),
        ))
    }

    /// Fetches a stream's metadata.
    pub fn get_stream(&self, table: TableId, stream: StreamId) -> VortexResult<StreamMeta> {
        let bytes = self
            .store
            .read_at(&stream_key(table, stream), self.store.now())
            .ok_or_else(|| VortexError::NotFound(format!("stream {stream}")))?;
        StreamMeta::from_bytes(&bytes)
    }

    /// Fetches a streamlet's metadata.
    pub fn get_streamlet(
        &self,
        table: TableId,
        streamlet: StreamletId,
    ) -> VortexResult<StreamletMeta> {
        let bytes = self
            .store
            .read_at(&streamlet_key(table, streamlet), self.store.now())
            .ok_or_else(|| VortexError::NotFound(format!("streamlet {streamlet}")))?;
        StreamletMeta::from_bytes(&bytes)
    }

    fn streamlets_of_stream(
        &self,
        table: TableId,
        stream: StreamId,
    ) -> VortexResult<Vec<StreamletMeta>> {
        let mut out: Vec<StreamletMeta> = self
            .store
            .scan_prefix_at(&streamlet_prefix(table), self.store.now())
            .into_iter()
            .map(|(_, v)| StreamletMeta::from_bytes(&v))
            .collect::<VortexResult<Vec<_>>>()?
            .into_iter()
            .filter(|m| m.stream == stream)
            .collect();
        out.sort_by_key(|m| m.ordinal);
        Ok(out)
    }

    fn last_streamlet(
        &self,
        table: TableId,
        stream: StreamId,
    ) -> VortexResult<Option<StreamletMeta>> {
        Ok(self.streamlets_of_stream(table, stream)?.into_iter().last())
    }

    /// Current committed length (rows) of a stream: finalized streamlets
    /// from the metastore plus live lengths from hosting servers.
    pub fn stream_length(&self, table: TableId, stream: StreamId) -> VortexResult<u64> {
        let mut total = 0u64;
        for sl in self.streamlets_of_stream(table, stream)? {
            let live = if sl.state == StreamletState::Finalized {
                sl.row_count
            } else {
                let from_server = self
                    .servers
                    .read()
                    .get(&sl.server)
                    .and_then(|h| h.streamlet_rows(sl.streamlet));
                from_server.unwrap_or(sl.row_count).max(sl.row_count)
            };
            total += live;
        }
        Ok(total)
    }

    /// `FlushStream` (§4.2.3): makes rows `[0, row_offset)` of a BUFFERED
    /// stream visible. Idempotent; errors if the stream is shorter than
    /// `row_offset`.
    pub fn flush_stream(
        &self,
        table: TableId,
        stream: StreamId,
        row_offset: u64,
    ) -> VortexResult<()> {
        self.check_owns(table)?;
        let smeta = self.get_stream(table, stream)?;
        if smeta.stype != StreamType::Buffered {
            return Err(VortexError::InvalidArgument(
                "FlushStream requires a BUFFERED stream".into(),
            ));
        }
        let length = self.stream_length(table, stream)?;
        if row_offset > length {
            return Err(VortexError::InvalidArgument(format!(
                "flush offset {row_offset} exceeds stream length {length}"
            )));
        }
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            let bytes = txn
                .get(&stream_key(table, stream))
                .ok_or_else(|| VortexError::NotFound(format!("stream {stream}")))?;
            let mut m = StreamMeta::from_bytes(&bytes)?;
            m.flushed_row = m.flushed_row.max(row_offset);
            txn.put(&stream_key(table, stream), m.to_bytes());
            Ok(())
        })
    }

    /// `FinalizeStream` (§4.2.5): prevents further appends; reconciles the
    /// writable streamlet so the stream's length becomes authoritative.
    pub fn finalize_stream(&self, table: TableId, stream: StreamId) -> VortexResult<StreamMeta> {
        self.check_owns(table)?;
        let out = self.store.with_txn(self.cfg.txn_retries, |txn| {
            let bytes = txn
                .get(&stream_key(table, stream))
                .ok_or_else(|| VortexError::NotFound(format!("stream {stream}")))?;
            let mut m = StreamMeta::from_bytes(&bytes)?;
            m.finalized = true;
            txn.put(&stream_key(table, stream), m.to_bytes());
            Ok(m)
        })?;
        if let Some(last) = self.last_streamlet(table, stream)? {
            if last.state != StreamletState::Finalized {
                self.reconcile_streamlet(table, last.streamlet)?;
            }
        }
        Ok(out)
    }

    /// `BatchCommitStreams` (§4.2.4): atomically makes a set of PENDING
    /// streams visible. Finalizes and reconciles them first so their
    /// contents are authoritative at commit.
    pub fn batch_commit_streams(
        &self,
        table: TableId,
        streams: &[StreamId],
    ) -> VortexResult<Timestamp> {
        self.check_owns(table)?;
        for &s in streams {
            self.finalize_stream(table, s)?;
        }
        let visible_from = self.tt.record_timestamp();
        let ((), commit_ts) = self.store.with_txn_at(self.cfg.txn_retries, |txn| {
            for &s in streams {
                let bytes = txn
                    .get(&stream_key(table, s))
                    .ok_or_else(|| VortexError::NotFound(format!("stream {s}")))?;
                let mut m = StreamMeta::from_bytes(&bytes)?;
                if m.stype != StreamType::Pending {
                    return Err(VortexError::InvalidArgument(format!(
                        "stream {s} is not PENDING"
                    )));
                }
                if m.committed_at.is_some() {
                    continue; // idempotent
                }
                m.committed_at = Some(visible_from);
                txn.put(&stream_key(table, s), m.to_bytes());
            }
            Ok(())
        })?;
        // Commit-wait so a read snapshot taken after this call observes
        // the data (TrueTime external consistency).
        self.tt.commit_wait(commit_ts);
        Ok(commit_ts)
    }

    // ------------------------------------------------------------------
    // Heartbeats (§5.5).
    // ------------------------------------------------------------------

    /// Ingests a Stream Server heartbeat: fragment deltas, row counts,
    /// load; answers with schema updates, GC work, and unknown streamlets.
    pub fn heartbeat(&self, report: &HeartbeatReport) -> VortexResult<HeartbeatResponse> {
        let mut resp = HeartbeatResponse::default();
        let now = self.store.now();
        for delta in &report.streamlets {
            let table = delta.table;
            let sl_key = streamlet_key(table, delta.streamlet);
            let Some(sl_bytes) = self.store.read_at(&sl_key, now) else {
                resp.unknown_streamlets.push(delta.streamlet);
                continue;
            };
            let slmeta = StreamletMeta::from_bytes(&sl_bytes)?;
            if slmeta.state == StreamletState::Finalized {
                // Reconciled already; a zombie server reporting stale state.
                continue;
            }
            let tmeta = self.get_table(table)?;
            let delta = delta.clone();
            let cfg_clusters = slmeta.clusters;
            self.store.with_txn(self.cfg.txn_retries, move |txn| {
                let Some(bytes) = txn.get(&sl_key) else {
                    return Ok(());
                };
                let mut sl = StreamletMeta::from_bytes(&bytes)?;
                if sl.state == StreamletState::Finalized {
                    return Ok(());
                }
                for f in &delta.fragments {
                    let fkey = fragment_key(table, f.fragment);
                    let mut fmeta = match txn.get(&fkey) {
                        Some(b) => FragmentMeta::from_bytes(&b)?,
                        None => FragmentMeta {
                            fragment: f.fragment,
                            table,
                            streamlet: delta.streamlet,
                            kind: FragmentKind::Wos,
                            ordinal: f.ordinal,
                            first_row: f.first_row,
                            row_count: 0,
                            committed_size: 0,
                            state: FragmentState::Active,
                            created_at: Timestamp::MIN,
                            deleted_at: Timestamp::MAX,
                            clusters: cfg_clusters,
                            path: wos_path(table, delta.streamlet, f.ordinal),
                            stats: vec![],
                            masks: vec![],
                            partition_key: None,
                            level: 0,
                        },
                    };
                    if fmeta.state == FragmentState::Deleted {
                        continue; // already converted; ignore stale delta
                    }
                    fmeta.row_count = fmeta.row_count.max(f.row_count);
                    fmeta.committed_size = fmeta.committed_size.max(f.committed_size);
                    fmeta.stats = f.stats.clone();
                    if f.finalized && fmeta.state == FragmentState::Active {
                        fmeta.state = FragmentState::Finalized;
                        // Map streamlet tail masks onto the now-known
                        // fragment (§7.3).
                        for (mts, m) in &sl.masks {
                            let local = m.slice_rebased(f.first_row, f.first_row + f.row_count);
                            if !local.is_empty() {
                                fmeta.masks.push((*mts, local));
                            }
                        }
                    }
                    txn.put(&fkey, fmeta.to_bytes());
                }
                sl.row_count = sl.row_count.max(delta.row_count);
                let max_ord = delta
                    .fragments
                    .iter()
                    .filter(|f| f.finalized)
                    .map(|f| f.ordinal + 1)
                    .max()
                    .unwrap_or(0);
                sl.known_fragments = sl.known_fragments.max(max_ord);
                if delta.finalized {
                    sl.state = StreamletState::Closed;
                }
                txn.put(&sl_key, sl.to_bytes());
                // Flush watermark recovery from flush records.
                if let Some(fr) = delta.max_flush_row {
                    let skey = stream_key(table, sl.stream);
                    if let Some(sb) = txn.get(&skey) {
                        let mut sm = StreamMeta::from_bytes(&sb)?;
                        let stream_level = sl.first_stream_row + fr;
                        if stream_level > sm.flushed_row {
                            sm.flushed_row = stream_level;
                            txn.put(&skey, sm.to_bytes());
                        }
                    }
                }
                Ok(())
            })?;
            // Schema updates for the reporting server.
            resp.schema_updates.push((table, tmeta.schema.version));
            // GC work: deleted fragments past the grace period.
            let grace = Timestamp(
                self.tt
                    .record_timestamp()
                    .0
                    .saturating_sub(self.cfg.gc_grace_micros),
            );
            let gc_ordinals: Vec<u32> = self
                .store
                .scan_prefix_at(&fragment_prefix(table), self.store.now())
                .into_iter()
                .filter_map(|(_, v)| FragmentMeta::from_bytes(&v).ok())
                .filter(|f| {
                    f.streamlet == delta.streamlet
                        && f.state == FragmentState::Deleted
                        && f.deleted_at <= grace
                })
                .map(|f| f.ordinal)
                .collect();
            if !gc_ordinals.is_empty() {
                resp.gc.push((table, delta.streamlet, gc_ordinals));
            }
        }
        resp.schema_updates.sort_by_key(|(t, _)| t.raw());
        resp.schema_updates.dedup();
        Ok(resp)
    }

    /// Acknowledges that a server deleted fragment log files: drops their
    /// metastore records ("when the Stream Server acknowledges it has
    /// deleted the Fragments, the SMS deletes the Fragments from Spanner",
    /// §5.4.3).
    pub fn ack_gc(
        &self,
        table: TableId,
        streamlet: StreamletId,
        ordinals: &[u32],
    ) -> VortexResult<usize> {
        let frags: Vec<FragmentMeta> = self
            .store
            .scan_prefix_at(&fragment_prefix(table), self.store.now())
            .into_iter()
            .filter_map(|(_, v)| FragmentMeta::from_bytes(&v).ok())
            .filter(|f| {
                f.streamlet == streamlet
                    && f.state == FragmentState::Deleted
                    && ordinals.contains(&f.ordinal)
            })
            .collect();
        let n = frags.len();
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            for f in &frags {
                txn.delete(&fragment_key(table, f.fragment));
            }
            Ok(())
        })?;
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Read path (§7).
    // ------------------------------------------------------------------

    /// Returns the union of WOS and ROS visible at `snapshot`: fragment
    /// read specs plus unfinalized streamlet tails (§7).
    pub fn list_read_fragments(
        &self,
        table: TableId,
        snapshot: Timestamp,
    ) -> VortexResult<ReadSet> {
        self.rt.metrics().counter("sms.list_read_fragments").inc();
        let tbytes = self
            .store
            .read_at(&table_key(table), snapshot)
            .ok_or_else(|| VortexError::NotFound(format!("table {table}")))?;
        let tmeta = TableMeta::from_bytes(&tbytes)?;
        // Streams and streamlets at the snapshot.
        let streams: HashMap<StreamId, StreamMeta> = self
            .store
            .scan_prefix_at(&stream_prefix(table), snapshot)
            .into_iter()
            .filter_map(|(_, v)| StreamMeta::from_bytes(&v).ok())
            .map(|m| (m.stream, m))
            .collect();
        let streamlets: HashMap<StreamletId, StreamletMeta> = self
            .store
            .scan_prefix_at(&streamlet_prefix(table), snapshot)
            .into_iter()
            .filter_map(|(_, v)| StreamletMeta::from_bytes(&v).ok())
            .map(|m| (m.streamlet, m))
            .collect();

        let visibility_for = |sl: &StreamletMeta| -> Option<RowVisibility> {
            let stream = streams.get(&sl.stream)?;
            match stream.stype {
                StreamType::Unbuffered => Some(RowVisibility::unconstrained()),
                StreamType::Buffered => Some(RowVisibility {
                    visible_from: Timestamp::MIN,
                    flush_limit: Some(stream.flushed_row.saturating_sub(sl.first_stream_row)),
                }),
                StreamType::Pending => {
                    let committed = stream.committed_at?;
                    if committed > snapshot {
                        return None; // not yet visible
                    }
                    Some(RowVisibility {
                        visible_from: committed,
                        flush_limit: None,
                    })
                }
            }
        };

        let mut fragments = Vec::new();
        for (_, v) in self.store.scan_prefix_at(&fragment_prefix(table), snapshot) {
            let f = FragmentMeta::from_bytes(&v)?;
            if !f.visible_at(snapshot) {
                continue;
            }
            match f.kind {
                FragmentKind::Ros => {
                    fragments.push(FragmentReadSpec {
                        mask: f.mask_at(snapshot),
                        visibility: RowVisibility::unconstrained(),
                        stream: StreamId::from_raw(0),
                        streamlet_first_stream_row: 0,
                        meta: f,
                    });
                }
                FragmentKind::Wos => {
                    // Only finalized WOS fragments are read via specs; the
                    // active one is covered by its streamlet tail.
                    if f.state != FragmentState::Finalized {
                        continue;
                    }
                    let Some(sl) = streamlets.get(&f.streamlet) else {
                        continue;
                    };
                    let Some(vis) = visibility_for(sl) else {
                        continue;
                    };
                    fragments.push(FragmentReadSpec {
                        mask: f.mask_at(snapshot),
                        visibility: vis,
                        stream: sl.stream,
                        streamlet_first_stream_row: sl.first_stream_row,
                        meta: f,
                    });
                }
            }
        }

        // Tails: streamlets not finalized → the reader probes log files
        // past the last finalized fragment.
        let mut tails = Vec::new();
        for sl in streamlets.values() {
            if sl.state == StreamletState::Finalized {
                continue;
            }
            let Some(vis) = visibility_for(sl) else {
                continue;
            };
            // Where do known (finalized, still-live OR converted) WOS
            // fragments end?
            let (mut from_ordinal, mut from_row) = (0u32, 0u64);
            for spec in self
                .store
                .scan_prefix_at(&fragment_prefix(table), snapshot)
                .iter()
                .filter_map(|(_, v)| FragmentMeta::from_bytes(v).ok())
                .filter(|f| {
                    f.kind == FragmentKind::Wos
                        && f.streamlet == sl.streamlet
                        && f.state != FragmentState::Active
                })
            {
                from_ordinal = from_ordinal.max(spec.ordinal + 1);
                from_row = from_row.max(spec.first_row + spec.row_count);
            }
            let stream_type = streams
                .get(&sl.stream)
                .map(|s| s.stype)
                .unwrap_or(StreamType::Unbuffered);
            tails.push(TailReadSpec {
                streamlet: sl.streamlet,
                stream: sl.stream,
                stream_type,
                clusters: sl.clusters,
                from_ordinal,
                from_row,
                path_prefix: wos_streamlet_prefix(table, sl.streamlet),
                mask: meta::effective_mask(&sl.masks, snapshot),
                visibility: vis,
                epoch: sl.epoch,
                first_stream_row: sl.first_stream_row,
                expected_rows: sl.row_count,
            });
        }
        tails.sort_by_key(|t| t.streamlet);
        fragments.sort_by_key(|f| (f.meta.streamlet, f.meta.ordinal, f.meta.fragment));
        Ok(ReadSet {
            snapshot,
            schema: tmeta.schema,
            fragments,
            tails,
        })
    }

    // ------------------------------------------------------------------
    // Reconciliation (§5.6, §7.1).
    // ------------------------------------------------------------------

    /// Runs the disaster-resilience reconciliation protocol on a
    /// streamlet: bump the epoch, poison zombie writers with sentinel
    /// records in every reachable replica, determine the authoritative
    /// length by inspecting replica log files, and record it in the
    /// metastore. Returns the finalized streamlet metadata.
    pub fn reconcile_streamlet(
        &self,
        table: TableId,
        streamlet: StreamletId,
    ) -> VortexResult<StreamletMeta> {
        self.rt.metrics().counter("sms.reconcile_streamlet").inc();
        let tmeta = self.get_table(table)?;
        let key = tmeta.encryption_key();
        // Phase 1: close + bump epoch so the outcome is sticky even if
        // two SMS tasks reconcile concurrently (the txn serializes them).
        let slmeta = self.store.with_txn(self.cfg.txn_retries, |txn| {
            let bytes = txn
                .get(&streamlet_key(table, streamlet))
                .ok_or_else(|| VortexError::NotFound(format!("streamlet {streamlet}")))?;
            let mut m = StreamletMeta::from_bytes(&bytes)?;
            if m.state == StreamletState::Finalized {
                return Ok(m); // already reconciled — idempotent
            }
            m.state = StreamletState::Closed;
            m.epoch += 1;
            txn.put(&streamlet_key(table, streamlet), m.to_bytes());
            Ok(m)
        })?;
        if slmeta.state == StreamletState::Finalized {
            return Ok(slmeta);
        }
        // Ask the server to finalize gracefully (bloom + footer), then
        // revoke ownership. A dead server simply doesn't answer; the
        // inspection below works either way.
        if let Some(h) = self.servers.read().get(&slmeta.server) {
            let _ = h.finalize_streamlet_ctl(streamlet);
            h.revoke_streamlet(streamlet);
        }

        // Phase 2: inspect replicas fragment by fragment.
        let replicas: Vec<_> = slmeta
            .clusters
            .iter()
            .filter_map(|c| self.fleet.get(*c).ok().cloned())
            .collect();
        // Per fragment: ordinal, committed size, first row, rows, stats.
        type FragResult = (
            u32,
            u64,
            u64,
            u64,
            Vec<(String, vortex_common::stats::ColumnStats)>,
        );
        let mut frag_results: Vec<FragResult> = Vec::new();
        let mut total_rows = 0u64;
        let mut ordinal = 0u32;
        // Columns whose properties we recompute from the parsed rows
        // (scalar top-level, same set the Stream Server tracks, §7.2).
        let tracked: Vec<(usize, String)> = tmeta
            .schema
            .fields
            .iter()
            .enumerate()
            .filter(|(_, fd)| {
                !matches!(fd.ftype, vortex_common::schema::FieldType::Struct(_))
                    && fd.mode != vortex_common::schema::FieldMode::Repeated
            })
            .map(|(i, fd)| (i, fd.name.clone()))
            .collect();
        loop {
            let path = wos_path(table, streamlet, ordinal);
            // Poison FIRST (§5.6): once the sentinel is in a log file,
            // the Stream Server's sole-writer length check fails any
            // still-in-flight append, so nothing poisoned-then-read can
            // be acknowledged behind our back. Only after the poison do
            // the reads below decide the authoritative length.
            let sentinel =
                FragmentWriter::sentinel_record(slmeta.epoch, self.tt.record_timestamp());
            let mut reachable = 0usize;
            let mut found = false;
            for r in &replicas {
                if r.faults().is_unavailable() {
                    continue;
                }
                reachable += 1;
                if r.exists(&path) {
                    found = true;
                    let _ = r.append(&path, &sentinel, Timestamp(0));
                }
            }
            if reachable == 0 {
                return Err(VortexError::Unavailable(format!(
                    "no replica reachable for streamlet {streamlet}"
                )));
            }
            if !found {
                break; // no more fragments
            }
            // Now read the poisoned files. A replica whose very first
            // write for this fragment failed holds nothing (or a stub
            // with no header); parseable content decides below — stubs
            // must not shrink the common prefix to zero, so copies with
            // no parseable header are dropped.
            let mut copies: Vec<Vec<u8>> = Vec::new();
            for r in &replicas {
                if !r.faults().is_unavailable() && r.exists(&path) {
                    if let Ok(out) = r.read_all(&path) {
                        if parse_fragment(&out.data, &key, None).is_ok() {
                            copies.push(out.data);
                        }
                    }
                }
            }
            if copies.is_empty() {
                // Headerless stubs only: no committed rows here, but a
                // later ordinal may exist (a failed open was retried on
                // the next file).
                ordinal += 1;
                continue;
            }
            // Authoritative bytes: with 2 copies, everything acked is in
            // both → min(valid_len). With 1 copy, everything parseable.
            // Authoritative bytes: the acked prefix is byte-identical in
            // every replica (physical replication, §5.6); after the
            // poison, contents may diverge (a torn block in one replica,
            // sentinels at different offsets). The committed extent is
            // therefore the longest RECORD-ALIGNED COMMON PREFIX of the
            // copies — with one copy, everything parseable (nothing can
            // be acknowledged behind the poison).
            let v = if copies.len() >= 2 {
                let lcp = copies[1..].iter().fold(copies[0].len(), |acc, c| {
                    let mut n = 0usize;
                    let cap = acc.min(c.len());
                    while n < cap && copies[0][n] == c[n] {
                        n += 1;
                    }
                    n
                });
                parse_fragment(&copies[0][..lcp], &key, None)?.valid_len
            } else {
                parse_fragment(&copies[0], &key, None)?.valid_len
            };
            if v == 0 {
                // Nothing parseable (e.g. a failed open left a headerless
                // or divergent stub): the fragment holds no committed
                // rows; later ordinals may still exist.
                ordinal += 1;
                continue;
            }
            // Re-parse bounded by V: everything inside is committed.
            let authoritative = parse_fragment(&copies[0], &key, Some(v))?;
            let rows = authoritative.total_rows();
            // Recompute column properties from the committed rows.
            let mut stats: Vec<(String, vortex_common::stats::ColumnStats)> = tracked
                .iter()
                .map(|(_, n)| (n.clone(), vortex_common::stats::ColumnStats::new()))
                .collect();
            for block in &authoritative.blocks {
                for row in &block.rows.rows {
                    for (slot, (idx, _)) in tracked.iter().enumerate() {
                        if let Some(val) = row.values.get(*idx) {
                            stats[slot].1.observe(val);
                        }
                    }
                }
            }
            frag_results.push((ordinal, v, authoritative.header.first_row, rows, stats));
            total_rows = total_rows.max(authoritative.header.first_row + rows);
            ordinal += 1;
        }

        // Phase 3: record the reconciled truth.
        let final_meta = self.store.with_txn(self.cfg.txn_retries, |txn| {
            let bytes = txn
                .get(&streamlet_key(table, streamlet))
                .ok_or_else(|| VortexError::NotFound(format!("streamlet {streamlet}")))?;
            let mut m = StreamletMeta::from_bytes(&bytes)?;
            m.state = StreamletState::Finalized;
            m.row_count = total_rows;
            m.known_fragments = frag_results.len() as u32;
            // Upsert fragment records with authoritative sizes.
            let existing: HashMap<u32, FragmentMeta> = txn
                .scan_prefix(&fragment_prefix(table))
                .into_iter()
                .filter_map(|(_, v)| FragmentMeta::from_bytes(&v).ok())
                .filter(|f| f.streamlet == streamlet && f.kind == FragmentKind::Wos)
                .map(|f| (f.ordinal, f))
                .collect();
            for (ord, size, first_row, rows, stats) in frag_results.iter() {
                let (ord, size, first_row, rows) = (*ord, *size, *first_row, *rows);
                let mut f = existing.get(&ord).cloned().unwrap_or(FragmentMeta {
                    fragment: self.ids.next_fragment(),
                    table,
                    streamlet,
                    kind: FragmentKind::Wos,
                    ordinal: ord,
                    first_row,
                    row_count: 0,
                    committed_size: 0,
                    state: FragmentState::Active,
                    created_at: Timestamp::MIN,
                    deleted_at: Timestamp::MAX,
                    clusters: m.clusters,
                    path: wos_path(table, streamlet, ord),
                    stats: vec![],
                    masks: vec![],
                    partition_key: None,
                    level: 0,
                });
                if f.state == FragmentState::Deleted {
                    continue; // converted already; reconciliation cannot resurrect
                }
                f.first_row = first_row;
                f.row_count = rows;
                f.committed_size = size;
                f.stats = stats.clone();
                if f.state == FragmentState::Active {
                    f.state = FragmentState::Finalized;
                    for (mts, msk) in &m.masks {
                        let local = msk.slice_rebased(first_row, first_row + rows);
                        if !local.is_empty() {
                            f.masks.push((*mts, local));
                        }
                    }
                }
                txn.put(&fragment_key(table, f.fragment), f.to_bytes());
            }
            txn.put(&streamlet_key(table, streamlet), m.to_bytes());
            Ok(m)
        })?;
        Ok(final_meta)
    }

    // ------------------------------------------------------------------
    // Storage-optimizer and DML commits (§6.1, §7.3).
    // ------------------------------------------------------------------

    /// Mints a token for [`SmsTask::begin_dml_with`]. Channel wrappers
    /// call this *outside* their retry loop so every retry of the begin
    /// writes the same marker key.
    pub fn mint_dml_token(&self) -> u64 {
        self.ids.next_raw()
    }

    /// Marks the start of a DML statement; while any DML is active the
    /// optimizer's merged conversions will not commit (§7.3).
    pub fn begin_dml(&self, table: TableId) -> VortexResult<DmlTicket> {
        let token = self.mint_dml_token();
        self.begin_dml_with(table, token)
    }

    /// Marks the start of a DML statement under a pre-minted token.
    /// Idempotent for a fixed token: re-execution rewrites the same key,
    /// so an ambiguous ack cannot leak a second marker.
    pub fn begin_dml_with(&self, table: TableId, token: u64) -> VortexResult<DmlTicket> {
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            txn.put(&dml_lock_token_key(table, token), vec![1]);
            Ok(())
        })?;
        Ok(DmlTicket(token))
    }

    /// Marks the end of the DML statement holding `ticket`. Idempotent.
    pub fn end_dml(&self, table: TableId, ticket: DmlTicket) -> VortexResult<()> {
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            txn.delete(&dml_lock_token_key(table, ticket.0));
            Ok(())
        })
    }

    /// Whether any DML statement is currently running on the table.
    pub fn dml_active(&self, table: TableId) -> bool {
        !self
            .store
            .scan_prefix_at(&dml_lock_prefix(table), self.store.now())
            .is_empty()
    }

    /// Atomically commits a WOS→ROS conversion (or a recluster merge):
    /// sets `deletion_timestamp` on the source fragments and
    /// `creation_timestamp` on the replacements, "guarantee\[ing\] that a
    /// row is included exactly once" (§6.1).
    ///
    /// With `yield_to_dml` (merged conversions), the commit aborts if a
    /// DML statement is running (§7.3). Stable 1:1 conversions pass
    /// `false`: they are race-free because masks carry over positionally.
    ///
    /// `sources` carries, per source fragment, the number of mask
    /// versions the optimizer *observed* when it read the data: if a DML
    /// statement added a mask in between (it started and finished inside
    /// the optimizer's window, so the lock check alone cannot see it),
    /// the commit aborts with a conflict and the optimizer re-reads.
    pub fn commit_conversion(
        &self,
        table: TableId,
        sources: &[(FragmentId, usize)],
        mut replacements: Vec<FragmentMeta>,
        yield_to_dml: bool,
    ) -> VortexResult<Timestamp> {
        self.check_owns(table)?;
        let ts = self.tt.record_timestamp();
        let sources = sources.to_vec();
        let ((), commit_ts) = self.store.with_txn_at(self.cfg.txn_retries, |txn| {
            if yield_to_dml && !txn.scan_prefix(&dml_lock_prefix(table)).is_empty() {
                return Err(VortexError::Unavailable(format!(
                    "optimizer yielding to active DML on {table}"
                )));
            }
            for (src, seen_masks) in &sources {
                let fkey = fragment_key(table, *src);
                let bytes = txn
                    .get(&fkey)
                    .ok_or_else(|| VortexError::NotFound(format!("fragment {src}")))?;
                let mut f = FragmentMeta::from_bytes(&bytes)?;
                if yield_to_dml && f.masks.len() != *seen_masks {
                    return Err(VortexError::TxnConflict(format!(
                        "fragment {src} gained deletion masks during conversion"
                    )));
                }
                if f.state == FragmentState::Deleted {
                    return Err(VortexError::TxnConflict(format!(
                        "fragment {src} already converted"
                    )));
                }
                if f.state != FragmentState::Finalized {
                    return Err(VortexError::InvalidArgument(format!(
                        "fragment {src} not finalized"
                    )));
                }
                f.state = FragmentState::Deleted;
                f.deleted_at = ts;
                txn.put(&fkey, f.to_bytes());
            }
            for r in replacements.iter_mut() {
                r.created_at = ts;
                r.deleted_at = Timestamp::MAX;
                r.state = FragmentState::Finalized;
                txn.put(&fragment_key(table, r.fragment), r.to_bytes());
            }
            Ok(())
        })?;
        self.bigmeta.index_fragments(table, &replacements);
        self.bigmeta
            .note_conversion(table, &sources.iter().map(|(f, _)| *f).collect::<Vec<_>>());
        self.tt.commit_wait(commit_ts);
        Ok(commit_ts)
    }

    /// Atomically commits a DML statement's effects (§7.3): new mask
    /// versions on fragments, tail masks on streamlets, and visibility of
    /// reinserted-row streams — all at one timestamp.
    pub fn commit_dml(
        &self,
        table: TableId,
        fragment_masks: &[(FragmentId, DeletionMask)],
        tail_masks: &[(StreamletId, DeletionMask)],
        reinserted_streams: &[StreamId],
    ) -> VortexResult<Timestamp> {
        self.check_owns(table)?;
        // Reinserted rows live in PENDING streams; finalize them so their
        // contents are authoritative, then flip visibility in the same
        // transaction as the masks.
        for &s in reinserted_streams {
            self.finalize_stream(table, s)?;
        }
        let ts = self.tt.record_timestamp();
        let ((), commit_ts) = self.store.with_txn_at(self.cfg.txn_retries, |txn| {
            for (fid, mask) in fragment_masks {
                let fkey = fragment_key(table, *fid);
                let bytes = txn
                    .get(&fkey)
                    .ok_or_else(|| VortexError::NotFound(format!("fragment {fid}")))?;
                let mut f = FragmentMeta::from_bytes(&bytes)?;
                f.masks.push((ts, mask.clone()));
                txn.put(&fkey, f.to_bytes());
            }
            for (slid, mask) in tail_masks {
                let skey = streamlet_key(table, *slid);
                let bytes = txn
                    .get(&skey)
                    .ok_or_else(|| VortexError::NotFound(format!("streamlet {slid}")))?;
                let mut m = StreamletMeta::from_bytes(&bytes)?;
                m.masks.push((ts, mask.clone()));
                txn.put(&skey, m.to_bytes());
                // Rows that were in the tail at the DML's snapshot may by
                // now live in fragments the heartbeat already finalized;
                // map the mask onto those eagerly (the heartbeat mapping
                // only runs at the Active→Finalized transition, which may
                // have happened mid-statement).
                let frags: Vec<FragmentMeta> = txn
                    .scan_prefix(&fragment_prefix(table))
                    .into_iter()
                    .filter_map(|(_, v)| FragmentMeta::from_bytes(&v).ok())
                    .filter(|f| {
                        f.streamlet == *slid
                            && f.kind == FragmentKind::Wos
                            && f.state == FragmentState::Finalized
                    })
                    .collect();
                for mut f in frags {
                    let local = mask.slice_rebased(f.first_row, f.first_row + f.row_count);
                    if !local.is_empty() {
                        f.masks.push((ts, local));
                        txn.put(&fragment_key(table, f.fragment), f.to_bytes());
                    }
                }
            }
            for &s in reinserted_streams {
                let skey = stream_key(table, s);
                let bytes = txn
                    .get(&skey)
                    .ok_or_else(|| VortexError::NotFound(format!("stream {s}")))?;
                let mut m = StreamMeta::from_bytes(&bytes)?;
                m.committed_at = Some(ts);
                txn.put(&skey, m.to_bytes());
            }
            Ok(())
        })?;
        self.tt.commit_wait(commit_ts);
        Ok(commit_ts)
    }

    /// Physically deletes fragment files whose grace period passed and
    /// drops their metadata — the groomer's sweep (§5.4.3).
    pub fn run_gc(&self, table: TableId) -> VortexResult<usize> {
        let grace = Timestamp(
            self.tt
                .record_timestamp()
                .0
                .saturating_sub(self.cfg.gc_grace_micros),
        );
        let doomed: Vec<FragmentMeta> = self
            .store
            .scan_prefix_at(&fragment_prefix(table), self.store.now())
            .into_iter()
            .filter_map(|(_, v)| FragmentMeta::from_bytes(&v).ok())
            .filter(|f| f.state == FragmentState::Deleted && f.deleted_at <= grace)
            .collect();
        for f in &doomed {
            for c in f.clusters {
                if let Ok(cluster) = self.fleet.get(c) {
                    let _ = cluster.delete(&f.path);
                }
            }
        }
        let n = doomed.len();
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            for f in &doomed {
                txn.delete(&fragment_key(table, f.fragment));
            }
            Ok(())
        })?;
        Ok(n)
    }

    /// Drops a table: removes the name index and the table record. The
    /// data and physical metadata stay behind as orphans for the groomer
    /// (§5.4.3: "user initiated actions such as deletions of tables ...
    /// can trigger garbage collection. As a catch all, a 'groomer' job
    /// runs periodically to detect Fragments, Streams, or Streamlets that
    /// may be orphaned").
    pub fn drop_table(&self, table: TableId) -> VortexResult<()> {
        self.check_owns(table)?;
        self.store.with_txn(self.cfg.txn_retries, |txn| {
            let bytes = txn
                .get(&table_key(table))
                .ok_or_else(|| VortexError::NotFound(format!("table {table}")))?;
            let meta = TableMeta::from_bytes(&bytes)?;
            txn.delete(&format!("tname/{}", meta.name));
            txn.delete(&table_key(table));
            Ok(())
        })
    }

    /// The groomer sweep: finds streams/streamlets/fragments whose table
    /// record no longer exists, deletes their log files and ROS blocks
    /// from storage, and drops their metadata. Returns (entities removed,
    /// files deleted).
    pub fn run_groomer(&self) -> VortexResult<(usize, usize)> {
        let now = self.store.now();
        // Collect orphaned table ids: any `t/{id}/...` child key whose
        // `t/{id}` record is gone.
        let mut orphan_tables = std::collections::HashSet::new();
        for (k, _) in self.store.scan_prefix_at("t/", now) {
            // Keys look like t/{16-hex} or t/{16-hex}/...
            let Some(rest) = k.strip_prefix("t/") else {
                continue;
            };
            let id_hex = &rest[..rest.find('/').unwrap_or(rest.len())];
            let Ok(raw) = u64::from_str_radix(id_hex, 16) else {
                continue;
            };
            let table = TableId::from_raw(raw);
            if rest.contains('/') && self.store.read_at(&table_key(table), now).is_none() {
                orphan_tables.insert(table);
            }
        }
        let mut entities = 0usize;
        let mut files = 0usize;
        for table in orphan_tables {
            // Delete physical files first (fragments name them precisely;
            // the WOS prefix listing catches anything unreported).
            for f in self.list_fragments(table, now) {
                for c in f.clusters {
                    if let Ok(cluster) = self.fleet.get(c) {
                        if cluster.exists(&f.path) && cluster.delete(&f.path).is_ok() {
                            files += 1;
                        }
                    }
                }
            }
            for sl in self.list_streamlets(table) {
                let prefix = wos_streamlet_prefix(table, sl.streamlet);
                for c in sl.clusters {
                    if let Ok(cluster) = self.fleet.get(c) {
                        for p in cluster.list(&prefix).unwrap_or_default() {
                            if cluster.delete(&p).is_ok() {
                                files += 1;
                            }
                        }
                    }
                }
            }
            // Then drop every orphaned metadata key.
            let doomed: Vec<String> = self
                .store
                .scan_prefix_at(&meta::table_prefix(table), now)
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            entities += doomed.len();
            self.store.with_txn(self.cfg.txn_retries, |txn| {
                for k in &doomed {
                    txn.delete(k);
                }
                for (k, _) in txn.scan_prefix(&dml_lock_prefix(table)) {
                    txn.delete(&k);
                }
                Ok(())
            })?;
        }
        Ok((entities, files))
    }

    /// All fragment metadata of a table at a snapshot (diagnostics,
    /// optimizer candidate selection).
    pub fn list_fragments(&self, table: TableId, at: Timestamp) -> Vec<FragmentMeta> {
        self.store
            .scan_prefix_at(&fragment_prefix(table), at)
            .into_iter()
            .filter_map(|(_, v)| FragmentMeta::from_bytes(&v).ok())
            .collect()
    }

    /// All streamlet metadata of a table (diagnostics).
    pub fn list_streamlets(&self, table: TableId) -> Vec<StreamletMeta> {
        self.store
            .scan_prefix_at(&streamlet_prefix(table), self.store.now())
            .into_iter()
            .filter_map(|(_, v)| StreamletMeta::from_bytes(&v).ok())
            .collect()
    }
}

impl std::fmt::Debug for SmsTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmsTask")
            .field("task", &self.cfg.task)
            .field("cluster", &self.cfg.cluster)
            .finish_non_exhaustive()
    }
}
