//! The log service: sharded append domains, lifecycle, and the public
//! catalog/append API.
//!
//! The service is partitioned into `ServiceConfig::shards` independent
//! append domains. Each [`Shard`] owns its own state lock, entrymap
//! writer, open block, sealed queue, commit gate and volume sequence, so
//! forced appends to different shards never contend on a lock or
//! serialize on one device write stream. The public [`LogService`] is a
//! thin router: log files are assigned to shards by their *top-level*
//! ancestor's id (hash-picked like the block cache's shards), which keeps
//! every sublog closure on a single shard. Shard 0 is the coordination
//! point: it holds the authoritative catalog and the only durable catalog
//! log; the other shards maintain catalog *slices* covering just the
//! subtrees routed to them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use clio_testkit::sync::{ArcCell, Condvar, Mutex};

use clio_cache::BlockCache;
use clio_entrymap::{EntrymapWriter, Geometry, PendingMaps};
use clio_format::records::{CatalogRecord, PERM_APPEND};
use clio_format::{BlockBuilder, EntryForm, EntryHeader};
use clio_types::{ClioError, Clock, EntryAddr, LogFileId, Result, SeqNo, Timestamp, VolumeSeqId};
use clio_volume::{DevicePool, VolumeSequence};

use crate::catalog::Catalog;
use crate::config::ServiceConfig;
use crate::obs::{InstrumentingPool, PerShard, ServiceObs};
use crate::stats::{SpaceReport, SpaceStats};

/// Bits of an `EntryAddr`'s 32-bit volume coordinate carrying the
/// per-shard volume index; the high bits carry the shard. Shard 0
/// addresses are identical to the single-domain addresses of old.
pub(crate) const SHARD_SHIFT: u32 = 24;

/// Mask selecting the per-shard volume index out of the global coordinate.
pub(crate) const LOCAL_VOLUME_MASK: u32 = (1 << SHARD_SHIFT) - 1;

/// Each shard's volume sequence gets its own block-cache device-id range.
pub(crate) const DEVICE_ID_SHIFT: u32 = 20;

/// Stamps a shard-local address with its shard, producing the global
/// address clients see.
pub(crate) fn globalize_addr(shard: u32, mut addr: EntryAddr) -> EntryAddr {
    addr.volume_index |= shard << SHARD_SHIFT;
    addr
}

/// One distinct lockdep class per shard state lock (class names must be
/// `&'static str`, so they come from a table); shards past the table
/// share a fallback class — ordering between them is still ascending by
/// construction, just not lockdep-distinguished.
const STATE_CLASSES: [&str; 8] = [
    "core.state.shard0",
    "core.state.shard1",
    "core.state.shard2",
    "core.state.shard3",
    "core.state.shard4",
    "core.state.shard5",
    "core.state.shard6",
    "core.state.shard7",
];

fn state_class(idx: u32) -> &'static str {
    STATE_CLASSES
        .get(idx as usize)
        .copied()
        .unwrap_or("core.state.shard8plus")
}

/// When an append must be durable (§2.3.1: "log entries are written
/// synchronously to the log device when forced (such as on a transaction
/// commit)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Buffer in the server's open block; durable at the next forced write
    /// or flush, or when the sealed queue its block joins fills
    /// (`max_batch_blocks`, §2.3.1 write-when-full).
    #[default]
    Buffered,
    /// Persist before returning — staged to battery-backed RAM when the
    /// device has one, otherwise the partial block is sealed early.
    Forced,
}

/// Per-append options.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendOpts {
    /// Durability requirement.
    pub durability: Durability,
    /// Record the service timestamp in the entry header. Optional per
    /// §2.1; costs 8 bytes. Without it the entry is still locatable to
    /// block resolution via the block's first-entry timestamp.
    pub timestamped: bool,
    /// A client sequence number for asynchronous unique identification
    /// (§2.1); implies a timestamped "full" header.
    pub seqno: Option<SeqNo>,
}

impl AppendOpts {
    /// Timestamped, buffered — the common case.
    #[must_use]
    pub fn standard() -> AppendOpts {
        AppendOpts {
            timestamped: true,
            ..AppendOpts::default()
        }
    }

    /// Timestamped and forced (synchronous).
    #[must_use]
    pub fn forced() -> AppendOpts {
        AppendOpts {
            durability: Durability::Forced,
            timestamped: true,
            seqno: None,
        }
    }

    /// Minimal 4-byte-overhead header, buffered.
    #[must_use]
    pub fn minimal() -> AppendOpts {
        AppendOpts::default()
    }

    /// Full header with a client sequence number.
    #[must_use]
    pub fn with_seqno(seqno: SeqNo) -> AppendOpts {
        AppendOpts {
            durability: Durability::Buffered,
            timestamped: true,
            seqno: Some(seqno),
        }
    }
}

/// What a client learns from a successful append: where the entry landed
/// and the service timestamp that uniquely identifies it (§2.1: "if the
/// entry is written synchronously … a client can obtain this timestamp as a
/// consequence of the write operation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    /// The entry's address. Final unless append verification is enabled:
    /// a block that fails verification is re-written a few blocks on, and
    /// reading this address follows it there (the read entry carries the
    /// final address).
    pub addr: EntryAddr,
    /// The service timestamp assigned to the entry.
    pub timestamp: Timestamp,
}

/// The block currently being filled in server memory.
pub(crate) struct OpenBlock {
    /// The data block this will become (may shift on verify-failure).
    pub db: u64,
    /// The in-memory builder.
    pub builder: BlockBuilder,
    /// Ids of log files with entries in this block.
    pub ids: BTreeSet<LogFileId>,
    /// Whether the current contents are staged in the device's NV tail.
    pub staged: bool,
}

/// A block sealed in memory but not yet written to the device — the
/// *seal* stage of the group-commit pipeline. Queued images are shared
/// into read snapshots (so readers see them immediately) and drained onto
/// the medium in one vectored write by the next commit.
#[derive(Clone)]
pub(crate) struct SealedBlock {
    /// The data block this image will occupy.
    pub db: u64,
    /// The finished block image.
    pub image: Arc<Vec<u8>>,
}

/// All append-side state of one shard, guarded by one lock. Reads never
/// touch this — they run against the published [`ReadView`] snapshot.
///
/// The shareable pieces (`catalog`, `sealed_pendings`) live behind `Arc`s
/// so publishing a snapshot is a refcount bump; mutations go through
/// [`Arc::make_mut`], copy-on-write, so an in-flight reader's snapshot is
/// never modified underneath it.
pub(crate) struct State {
    pub catalog: Arc<Catalog>,
    pub emap: EntrymapWriter,
    pub open: Option<OpenBlock>,
    /// Final pending maps of sealed (non-active) volumes, by volume index.
    pub sealed_pendings: Arc<Vec<PendingMaps>>,
    pub active_index: u32,
    /// Frozen clone of `emap.pending()`, refreshed whenever a block seals
    /// (the only time the pending maps change); shared into snapshots.
    pub pending_snap: Arc<PendingMaps>,
    /// Entrymap records displaced by invalidated blocks, to be written in
    /// the next opened block (§2.3.2).
    pub carryover: Vec<clio_format::EntrymapRecord>,
    /// Invalidated blocks awaiting a bad-block log record.
    pub pending_badblocks: Vec<u64>,
    pub stats: SpaceStats,
    /// Blocks sealed in memory, awaiting the next commit's vectored write
    /// or the drain a full queue triggers (at most `max_batch_blocks`).
    /// Ordered by `db`, contiguous from the active volume's device end.
    pub sealed_queue: Vec<SealedBlock>,
    /// Forced appends staged since the last commit — what the commit
    /// "covers", for the forced-writes-saved metric.
    pub staged_forced: u64,
    /// Monotone commit sequence: bumped once per staged forced append (or
    /// forced batch); a commit makes every seq up to its snapshot durable.
    pub forced_seq: u64,
}

/// An immutable snapshot of everything the read path needs, published
/// via an atomic-swap cell on every visible mutation. Because sealed
/// blocks are write-once, a snapshot can never go stale *incorrectly* —
/// at worst it lags by the contents of the open block until the next
/// publish (bounded staleness; a forced append or flush republishes).
pub(crate) struct ReadView {
    /// The shard's catalog (full on shard 0, a slice elsewhere) as of the
    /// snapshot.
    pub catalog: Arc<Catalog>,
    /// Final pending maps of sealed (non-active) volumes, by volume index.
    pub sealed_pendings: Arc<Vec<PendingMaps>>,
    /// Index of the active (writable) volume.
    pub active_index: u32,
    /// The active volume's pending entrymap state.
    pub active_pending: Arc<PendingMaps>,
    /// The active volume's sealed-data watermark at snapshot time.
    pub active_data_end: u64,
    /// Frozen image of the non-empty open block, if any.
    pub open: Option<(u64, Arc<Vec<u8>>)>,
    /// Images of blocks sealed in memory but not yet on the device
    /// (group-commit queue), ordered by data block. Readers serve these
    /// exactly like sealed device blocks.
    pub queued: Vec<(u64, Arc<Vec<u8>>)>,
}

/// The leader/follower commit gate. A forced appender stages its entry
/// under the state lock, then waits here: the first waiter to find no
/// commit in flight becomes the *leader*, drains the sealed queue plus the
/// partial block in one vectored device write, advances `committed` to
/// the commit-seq snapshot, and wakes every follower whose sequence number
/// it covered.
pub(crate) struct CommitGate {
    pub m: Mutex<CommitClock>,
    pub cv: Condvar,
}

pub(crate) struct CommitClock {
    /// Highest forced-append sequence number made durable so far.
    pub committed: u64,
    /// Whether a leader is currently writing.
    pub committing: bool,
}

/// One independent append domain: a full single-writer log engine — state
/// lock, entrymap writer, open block, sealed queue, commit gate, read
/// snapshot and volume sequence. The pre-sharding `LogService` *was* this
/// struct; the public [`LogService`] now routes between several of them.
pub(crate) struct Shard {
    /// This shard's index within the service (0 = catalog shard).
    pub(crate) idx: u32,
    pub(crate) seq: Arc<VolumeSequence>,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) cfg: ServiceConfig,
    pub(crate) obs: Arc<ServiceObs>,
    /// Cached per-shard metric series (counter map lock paid once here).
    pub(crate) pshard: Arc<PerShard>,
    pub(crate) state: Mutex<State>,
    /// The current read snapshot; reads `get` it and never lock `state`.
    pub(crate) view: ArcCell<ReadView>,
    /// Group-commit leader election and completion signalling.
    pub(crate) commit: CommitGate,
}

/// The replayed state a shard is assembled around: empty for a fresh
/// `create`, read back from the media during recovery.
pub(crate) struct ShardSeed {
    pub catalog: Catalog,
    pub sealed_pendings: Vec<PendingMaps>,
    pub active_pending: Option<PendingMaps>,
}

impl ShardSeed {
    /// The seed for a brand-new shard: nothing replayed.
    pub(crate) fn empty() -> ShardSeed {
        ShardSeed {
            catalog: Catalog::new(),
            sealed_pendings: Vec::new(),
            active_pending: None,
        }
    }
}

impl Shard {
    /// Stitches a shard together from its parts (used by `create` and by
    /// recovery).
    pub(crate) fn assemble(
        idx: u32,
        seq: Arc<VolumeSequence>,
        cfg: ServiceConfig,
        clock: Arc<dyn Clock>,
        obs: Arc<ServiceObs>,
        seed: ShardSeed,
    ) -> Shard {
        let ShardSeed {
            catalog,
            sealed_pendings,
            active_pending,
        } = seed;
        let geo = Geometry::new(usize::from(cfg.fanout));
        let active = seq.active();
        let active_index = active.label().volume_index;
        let emap = match active_pending {
            Some(p) => EntrymapWriter::from_pending(p, active.data_end()),
            None => EntrymapWriter::new(geo),
        };
        let catalog = Arc::new(catalog);
        let sealed_pendings = Arc::new(sealed_pendings);
        let pending_snap = Arc::new(emap.pending().clone());
        let view = ArcCell::new(Arc::new(ReadView {
            catalog: catalog.clone(),
            sealed_pendings: sealed_pendings.clone(),
            active_index,
            active_pending: pending_snap.clone(),
            active_data_end: active.data_end(),
            open: None,
            queued: Vec::new(),
        }));
        let pshard = obs.per_shard(idx);
        Shard {
            idx,
            seq,
            clock,
            cfg,
            obs,
            pshard,
            // Held across device writes by design: the appender (or the
            // group-commit leader committing on behalf of followers)
            // owns the append point end to end. One lockdep class per
            // shard proves cross-shard acquisition stays ascending.
            state: Mutex::with_class_io(
                State {
                    catalog,
                    emap,
                    open: None,
                    sealed_pendings,
                    active_index,
                    pending_snap,
                    carryover: Vec::new(),
                    pending_badblocks: Vec::new(),
                    stats: SpaceStats::default(),
                    sealed_queue: Vec::new(),
                    staged_forced: 0,
                    forced_seq: 0,
                },
                state_class(idx),
            ),
            view,
            commit: CommitGate {
                m: Mutex::with_class(
                    CommitClock {
                        committed: 0,
                        committing: false,
                    },
                    "core.commit_gate",
                ),
                cv: Condvar::new(),
            },
        }
    }

    /// Publishes a fresh [`ReadView`] from the current append-side state.
    /// Called (with the state lock held) at the end of every mutating
    /// operation; readers pick it up via a cheap atomic-swap-cell `get`.
    pub(crate) fn publish_view(&self, st: &State) {
        let open = st
            .open
            .as_ref()
            .filter(|ob| !ob.builder.is_empty())
            .map(|ob| (ob.db, Arc::new(ob.builder.finish())));
        let active_data_end = self
            .seq
            .volume(st.active_index)
            .map(|v| v.data_end())
            .unwrap_or(0);
        let queued = st
            .sealed_queue
            .iter()
            .map(|b| (b.db, b.image.clone()))
            .collect();
        self.pshard
            .sealed_queue_blocks
            .set(st.sealed_queue.len() as i64);
        self.view.set(Arc::new(ReadView {
            catalog: st.catalog.clone(),
            sealed_pendings: st.sealed_pendings.clone(),
            active_index: st.active_index,
            active_pending: st.pending_snap.clone(),
            active_data_end,
            open,
            queued,
        }));
        self.obs.note_view_publish();
    }

    /// The current read snapshot.
    pub(crate) fn read_view(&self) -> Arc<ReadView> {
        self.view.get()
    }

    /// Prepares, durably logs, and applies a creation on the catalog
    /// shard, returning the new id and the record for slice propagation.
    pub(crate) fn create_local(
        &self,
        parent_path: &str,
        name: &str,
    ) -> Result<(LogFileId, CatalogRecord)> {
        let mut st = self.state.lock();
        let r = (|| {
            let parent = st.catalog.resolve(parent_path)?;
            let rec = st.catalog.prepare_create(parent, name, self.clock.now())?;
            let id = match &rec {
                CatalogRecord::Create(a) => a.id,
                _ => unreachable!("prepare_create returns Create"),
            };
            // §2.2: the change is logged in the catalog log file — durably,
            // before the creation is acknowledged.
            self.append_catalog_record(&mut st, &rec)?;
            Arc::make_mut(&mut st.catalog).apply(&rec)?;
            Ok((id, rec))
        })();
        self.publish_view(&st);
        r
    }

    /// Prepares a catalog record against this shard's live catalog, logs
    /// it durably, applies it, republishes the read snapshot, and returns
    /// the record so the router can propagate it to the routed shard's
    /// slice. Catalog-shard only.
    pub(crate) fn apply_catalog_change(
        &self,
        prepare: impl FnOnce(&Catalog) -> Result<CatalogRecord>,
    ) -> Result<CatalogRecord> {
        let mut st = self.state.lock();
        let r = (|| {
            let rec = prepare(&st.catalog)?;
            self.append_catalog_record(&mut st, &rec)?;
            Arc::make_mut(&mut st.catalog).apply(&rec)?;
            Ok(rec)
        })();
        self.publish_view(&st);
        r
    }

    /// Applies an already-durable catalog record to this shard's slice
    /// (no logging — the catalog shard holds the only durable catalog
    /// log; slices are rebuilt from it at recovery).
    pub(crate) fn apply_replica(&self, rec: &CatalogRecord) -> Result<()> {
        let mut st = self.state.lock();
        let r = Arc::make_mut(&mut st.catalog).apply(rec);
        self.publish_view(&st);
        r
    }

    /// Appends `data` as one entry of log file `id` on this shard.
    pub(crate) fn append(&self, id: LogFileId, data: &[u8], opts: AppendOpts) -> Result<Receipt> {
        let mut span = self.obs.span("append");
        span.set_target(u64::from(id.0));
        span.attr("bytes", data.len() as u64);
        span.attr("shard", u64::from(self.idx));
        let start = clio_obs::clock::now();
        let r = self.append_inner(id, data, opts);
        if r.is_err() {
            span.fail("error");
        }
        drop(span);
        self.obs.note_append(id, start.elapsed(), r.is_ok());
        if r.is_ok() {
            self.pshard.appends.inc();
        }
        r
    }

    fn append_inner(&self, id: LogFileId, data: &[u8], opts: AppendOpts) -> Result<Receipt> {
        let forced = matches!(opts.durability, Durability::Forced).then_some(1);
        self.stage_and_commit(forced, |st| self.append_locked(st, id, data, opts))
    }

    /// Stage, then commit: runs `stage` (which encodes entries into the
    /// open block) under the short state lock. A forced stage of `forced`
    /// appends defers both the device write and the snapshot republish to
    /// the commit leader, then waits until its sequence number is durable.
    fn stage_and_commit<T>(
        &self,
        forced: Option<u64>,
        stage: impl FnOnce(&mut State) -> Result<T>,
    ) -> Result<T> {
        let (r, my_seq) = {
            // Declared before the lock guard: the stage span covers lock
            // acquisition and records only after the lock is released.
            let _stage = self.obs.span("stage");
            let mut st = self.state.lock();
            let r = stage(&mut st);
            match (&r, forced) {
                (Ok(_), Some(n)) => {
                    st.forced_seq += 1;
                    st.staged_forced += n;
                }
                // Republish even on failure: a failed append may still have
                // sealed blocks (fragmentation) the snapshot should reflect.
                _ => self.publish_view(&st),
            }
            (r, st.forced_seq)
        };
        let staged = r?;
        if forced.is_some() {
            // Wait for a leader to make our sequence number durable, or
            // become the leader ourselves.
            self.commit_wait(my_seq)?;
        }
        Ok(staged)
    }

    /// Leader/follower commit. Blocks until every forced append staged at
    /// or before `my_seq` is durable. The first waiter that finds no
    /// commit in flight becomes the leader: it drains the sealed queue and
    /// the current partial block in one batched device write, advances the
    /// committed watermark to the staging sequence it observed, and wakes
    /// all followers it covered.
    pub(crate) fn commit_wait(&self, my_seq: u64) -> Result<()> {
        // One commit_gate span per forced append, leader or follower: its
        // duration is the full time spent waiting for durability, and its
        // role attribute says which side of the gate this thread took.
        let mut gate_span = self.obs.span("commit_gate");
        gate_span.attr("shard", u64::from(self.idx));
        let mut led = false;
        let result = loop {
            let mut gate = self.commit.m.lock();
            if gate.committed >= my_seq {
                break Ok(());
            }
            if gate.committing {
                // Follow: a leader is writing; its batch may cover us.
                drop(self.commit.cv.wait(gate));
                continue;
            }
            gate.committing = true;
            drop(gate);
            led = true;
            self.pshard.leader_elections.inc();
            let (result, target) = {
                let mut st = self.state.lock();
                let target = st.forced_seq;
                gate_span.attr("batch_forced", st.staged_forced);
                let r = self.commit_locked(&mut st);
                // Publish once per batch: every follower's entries become
                // visible (and durable) with this single republish.
                let _publish = self.obs.span("publish");
                self.publish_view(&st);
                (r, target)
            };
            let mut gate = self.commit.m.lock();
            if result.is_ok() {
                gate.committed = gate.committed.max(target);
            }
            gate.committing = false;
            drop(gate);
            self.commit.cv.notify_all();
            if let Err(e) = result {
                break Err(e);
            }
        };
        gate_span.attr_str("role", if led { "leader" } else { "follower" });
        if result.is_err() {
            gate_span.fail("error");
        }
        result
    }

    /// Checks permissions and encodes one entry into the open block; the
    /// caller ([`Shard::stage_and_commit`]) handles `opts.durability`.
    pub(crate) fn append_locked(
        &self,
        st: &mut State,
        id: LogFileId,
        data: &[u8],
        opts: AppendOpts,
    ) -> Result<Receipt> {
        let attrs = st.catalog.attrs(id)?;
        if id.is_reserved() {
            return Err(ClioError::PermissionDenied(format!(
                "log file {id} is service-owned"
            )));
        }
        if attrs.sealed {
            return Err(ClioError::ReadOnly);
        }
        if attrs.perms & PERM_APPEND == 0 {
            return Err(ClioError::PermissionDenied(st.catalog.path_of(id)?));
        }
        let now = self.clock.now();
        let form = match (opts.timestamped || opts.seqno.is_some(), opts.seqno) {
            (_, Some(_)) => EntryForm::Full,
            (true, None) => EntryForm::Timestamped,
            (false, None) => EntryForm::Minimal,
        };
        let header = EntryHeader::new(
            id,
            form,
            matches!(form, EntryForm::Timestamped | EntryForm::Full).then_some(now),
            opts.seqno,
        );
        let (vol_idx, db, slot) = self.push_record(st, header, data, true)?;
        self.drain_badblocks(st)?;
        Ok(Receipt {
            addr: EntryAddr::new(vol_idx, clio_types::BlockNo(db), slot),
            timestamp: now,
        })
    }

    /// Forces any buffered entries on this shard to stable storage.
    pub(crate) fn flush(&self) -> Result<()> {
        let _span = self.obs.span("flush");
        let mut st = self.state.lock();
        let r = (|| {
            self.commit_locked(&mut st)?;
            self.drain_badblocks(&mut st)
        })();
        self.publish_view(&st);
        r
    }

    /// Seals the open block outright (used by tests and volume hygiene).
    /// Also drains the sealed queue so the seal lands on the device.
    pub(crate) fn seal_current_block(&self) -> Result<()> {
        let mut st = self.state.lock();
        let r = (|| {
            if st.open.is_some() {
                self.seal_open(&mut st)?;
            }
            self.write_sealed_queue(&mut st)?;
            self.drain_badblocks(&mut st)
        })();
        self.publish_view(&st);
        r
    }

    /// Appends one entry per `(path, payload)` item on this shard (every
    /// path must route here). Entries are staged under a single state-lock
    /// hold, and a forced batch pays for **one** durability point covering
    /// every item.
    pub(crate) fn append_batch(
        &self,
        items: &[(String, Vec<u8>)],
        opts: AppendOpts,
    ) -> Result<Vec<Receipt>> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let mut span = self.obs.span("append_batch");
        span.attr("entries", items.len() as u64);
        span.attr("shard", u64::from(self.idx));
        let start = clio_obs::clock::now();
        let forced = matches!(opts.durability, Durability::Forced).then_some(items.len() as u64);
        let mut noted: Vec<LogFileId> = Vec::with_capacity(items.len());
        let r = self.stage_and_commit(forced, |st| {
            items
                .iter()
                .map(|(path, data)| {
                    let id = st.catalog.resolve(path)?;
                    noted.push(id);
                    self.append_locked(st, id, data, opts)
                })
                .collect::<Result<Vec<Receipt>>>()
        });
        for id in &noted {
            self.obs.note_append(*id, start.elapsed(), r.is_ok());
        }
        if r.is_ok() {
            self.pshard.appends.add(noted.len() as u64);
        } else {
            span.fail("error");
        }
        r
    }

    /// A clone of this shard's space accounting (merged by the router).
    pub(crate) fn space_stats(&self) -> SpaceStats {
        self.state.lock().stats.clone()
    }

    /// Writes a catalog record durably (forced, timestamped).
    fn append_catalog_record(&self, st: &mut State, rec: &CatalogRecord) -> Result<()> {
        let now = self.clock.now();
        let header = EntryHeader::new(LogFileId::CATALOG, EntryForm::Timestamped, Some(now), None);
        self.push_record(st, header, &rec.encode(), false)?;
        // Committed directly under the state lock (not through the gate):
        // catalog changes are rare and already serialized with any commit
        // leader by the lock itself.
        self.commit_locked(st)
    }
}

/// The Clio log service.
///
/// See the crate docs for the architecture; constructors are
/// [`LogService::create`] (fresh volume sequences, one per shard) and
/// [`LogService::recover`] (in [`crate::recovery`]).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use clio_core::service::{AppendOpts, LogService};
/// use clio_core::ServiceConfig;
/// use clio_types::{SystemClock, VolumeSeqId};
/// use clio_volume::MemDevicePool;
///
/// let svc = LogService::create(
///     VolumeSeqId(1),
///     Arc::new(MemDevicePool::new(1024, 1 << 12)),
///     ServiceConfig::default(),
///     Arc::new(SystemClock),
/// )?;
/// svc.create_log("/events")?;
/// let receipt = svc.append_path("/events", b"hello", AppendOpts::forced())?;
/// let entry = svc.read_entry(receipt.addr)?;
/// assert_eq!(entry.data, b"hello");
///
/// let mut cursor = svc.cursor("/events")?;
/// assert_eq!(cursor.collect_remaining()?.len(), 1);
/// # Ok::<(), clio_types::ClioError>(())
/// ```
pub struct LogService {
    /// The append domains, shard 0 first (the catalog shard).
    pub(crate) shards: Vec<Arc<Shard>>,
    pub(crate) cfg: ServiceConfig,
    pub(crate) obs: Arc<ServiceObs>,
}

impl LogService {
    /// Creates a service on fresh volume sequences — one per configured
    /// shard, carved from the same device pool. Shard `i` uses sequence id
    /// `seq_id + i`.
    pub fn create(
        seq_id: VolumeSeqId,
        pool: Arc<dyn DevicePool>,
        cfg: ServiceConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<LogService> {
        cfg.validate()?;
        if let Some(avail) = pool.capacity_hint() {
            if cfg.shards as u64 > avail {
                return Err(ClioError::BadConfig(format!(
                    "{} shards need {} fresh volumes but the pool can supply only {avail}",
                    cfg.shards, cfg.shards
                )));
            }
        }
        let obs = ServiceObs::new(cfg.trace_events);
        let pool: Arc<dyn DevicePool> = Arc::new(InstrumentingPool::new(pool, obs.clone()));
        let cache = Arc::new(BlockCache::with_shards(cfg.cache_blocks, cfg.cache_shards));
        obs.attach_cache(&cache);
        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let seq = Arc::new(VolumeSequence::create(
                VolumeSeqId(seq_id.0 + i as u64),
                cache.clone(),
                pool.clone(),
                (i as u32) << DEVICE_ID_SHIFT,
                cfg.block_size,
                cfg.fanout,
                clock.now(),
            )?);
            shards.push(Arc::new(Shard::assemble(
                i as u32,
                seq,
                cfg.clone(),
                clock.clone(),
                obs.clone(),
                ShardSeed::empty(),
            )));
        }
        Ok(LogService { shards, cfg, obs })
    }

    /// The routing mask (`shards - 1`; shard counts are powers of two).
    pub(crate) fn route_mask(&self) -> usize {
        self.shards.len() - 1
    }

    /// The shard `id`'s entries route to, from the catalog shard's
    /// current snapshot (reserved and unknown ids answer shard 0).
    pub(crate) fn route_id(&self, id: LogFileId) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        self.shards[0]
            .read_view()
            .catalog
            .route(id, self.route_mask())
    }

    /// The append domain `id`'s entries route to. Stable for a given id:
    /// routing follows the top-level ancestor, assigned at creation.
    #[must_use]
    pub fn shard_of(&self, id: LogFileId) -> u32 {
        self.route_id(id) as u32
    }

    /// Splits a global address into (shard index, shard-local address).
    pub(crate) fn localize_addr(&self, addr: EntryAddr) -> Result<(usize, EntryAddr)> {
        let shard = (addr.volume_index >> SHARD_SHIFT) as usize;
        if shard >= self.shards.len() {
            return Err(ClioError::NotFound(format!(
                "entry {addr}: no shard {shard}"
            )));
        }
        let mut local = addr;
        local.volume_index &= LOCAL_VOLUME_MASK;
        Ok((shard, local))
    }

    fn globalize_receipt(shard: usize, mut r: Receipt) -> Receipt {
        r.addr = globalize_addr(shard as u32, r.addr);
        r
    }

    /// Test hook: runs `f` while every shard's append-side state mutex is
    /// held (acquired in ascending shard order — the service-wide lock
    /// order). The concurrency tests use this to prove the read path never
    /// acquires an append lock — readers must make progress inside `f`.
    #[doc(hidden)]
    pub fn while_append_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        fn lock_all<R>(shards: &[Arc<Shard>], f: impl FnOnce() -> R) -> R {
            match shards.split_first() {
                None => f(),
                Some((s, rest)) => {
                    let _g = s.state.lock();
                    lock_all(rest, f)
                }
            }
        }
        lock_all(&self.shards, f)
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Number of independent append domains.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The volume sequence backing shard 0 (the catalog shard) — with a
    /// single-shard configuration, the service's only sequence. See
    /// [`LogService::shard_volumes`] for the others.
    #[must_use]
    pub fn volumes(&self) -> &Arc<VolumeSequence> {
        &self.shards[0].seq
    }

    /// The volume sequence backing shard `shard`, if it exists.
    #[must_use]
    pub fn shard_volumes(&self, shard: usize) -> Option<&Arc<VolumeSequence>> {
        self.shards.get(shard).map(|s| &s.seq)
    }

    /// The shared block cache (exposed for cache-behaviour experiments).
    #[must_use]
    pub fn cache(&self) -> Arc<BlockCache> {
        self.shards[0].seq.cache().clone()
    }

    // ------------------------------------------------------------------
    // Catalog operations (§2.2).
    // ------------------------------------------------------------------

    /// Creates a log file at `path`; every ancestor component must already
    /// exist (`create_log("/mail/smith")` needs `/mail`). The new log file
    /// is a sublog of its parent (§2.1). The creation is durably logged on
    /// the catalog shard, then propagated to the routed shard's slice.
    pub fn create_log(&self, path: &str) -> Result<LogFileId> {
        let start = clio_obs::clock::now();
        let r = self.create_log_inner(path);
        self.obs
            .note_create(r.as_ref().ok().copied(), start.elapsed(), r.is_ok());
        r
    }

    fn create_log_inner(&self, path: &str) -> Result<LogFileId> {
        // Validate the whole path up front so aliases like "//x" are
        // rejected rather than silently creating "/x".
        let trimmed = path
            .strip_prefix('/')
            .ok_or_else(|| ClioError::BadPath(path.to_owned()))?;
        if trimmed.is_empty() || trimmed.split('/').any(str::is_empty) {
            return Err(ClioError::BadPath(path.to_owned()));
        }
        let (parent_path, name) = match path.rfind('/') {
            Some(i) => (&path[..i], &path[i + 1..]),
            None => ("", path),
        };
        // Catalog-shard lock first, released before any other shard's is
        // taken: the service-wide order is ascending by shard index.
        let (id, rec) = self.shards[0].create_local(parent_path, name)?;
        let target = self.route_id(id);
        if target != 0 {
            self.shards[target].apply_replica(&rec)?;
        }
        Ok(id)
    }

    /// Resolves a path to a log file id (snapshot read; lock-free).
    pub fn resolve(&self, path: &str) -> Result<LogFileId> {
        self.shards[0].read_view().catalog.resolve(path)
    }

    /// The display path of a log file (snapshot read).
    pub fn path_of(&self, id: LogFileId) -> Result<String> {
        self.shards[0].read_view().catalog.path_of(id)
    }

    /// Names of the direct sublogs of `path` (snapshot read).
    pub fn list(&self, path: &str) -> Result<Vec<String>> {
        let view = self.shards[0].read_view();
        let id = view.catalog.resolve(path)?;
        let mut names: Vec<String> = view.catalog.children(id).map(|a| a.name.clone()).collect();
        names.retain(|n| !n.starts_with('.') && !n.is_empty());
        names.sort();
        Ok(names)
    }

    /// A snapshot of the attributes of `id`.
    pub fn attrs(&self, id: LogFileId) -> Result<clio_format::LogFileAttrs> {
        Ok(self.shards[0].read_view().catalog.attrs(id)?.clone())
    }

    /// Seals a log file against further appends.
    pub fn seal_log(&self, id: LogFileId) -> Result<()> {
        self.catalog_change(id, |cat| {
            cat.attrs(id)?;
            Ok(CatalogRecord::Seal { id })
        })
    }

    /// Changes a log file's permissions.
    pub fn set_perms(&self, id: LogFileId, perms: u16) -> Result<()> {
        self.catalog_change(id, |cat| {
            cat.attrs(id)?;
            Ok(CatalogRecord::SetPerms { id, perms })
        })
    }

    /// Renames a log file (its place in the hierarchy is unchanged).
    pub fn rename(&self, id: LogFileId, name: &str) -> Result<()> {
        self.catalog_change(id, |cat| {
            cat.attrs(id)?;
            let rec = CatalogRecord::Rename {
                id,
                name: name.to_owned(),
            };
            // Validate against a probe copy before logging.
            let mut probe = cat.clone();
            probe.apply(&rec)?;
            Ok(rec)
        })
    }

    /// Prepares a catalog record on the catalog shard (durably logged
    /// there), then propagates it to the shard `id` routes to. The two
    /// state locks are taken one at a time, catalog shard first.
    fn catalog_change(
        &self,
        id: LogFileId,
        prepare: impl FnOnce(&Catalog) -> Result<CatalogRecord>,
    ) -> Result<()> {
        let rec = self.shards[0].apply_catalog_change(prepare)?;
        let target = self.route_id(id);
        if target != 0 {
            self.shards[target].apply_replica(&rec)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Appending.
    // ------------------------------------------------------------------

    /// Appends `data` as one log entry of log file `id`, routed to the
    /// log file's shard.
    pub fn append(&self, id: LogFileId, data: &[u8], opts: AppendOpts) -> Result<Receipt> {
        let shard = self.route_id(id);
        self.shards[shard]
            .append(id, data, opts)
            .map(|r| Self::globalize_receipt(shard, r))
    }

    /// Appends to the log file named by `path`.
    pub fn append_path(&self, path: &str, data: &[u8], opts: AppendOpts) -> Result<Receipt> {
        let id = self.resolve(path)?;
        self.append(id, data, opts)
    }

    /// Forces any buffered entries to stable storage (§2.3.1), on every
    /// shard.
    pub fn flush(&self) -> Result<()> {
        for s in &self.shards {
            s.flush()?;
        }
        Ok(())
    }

    /// Seals every shard's open block outright (used by tests and volume
    /// hygiene), draining the sealed queues so the seals land on the
    /// devices.
    pub fn seal_current_block(&self) -> Result<()> {
        for s in &self.shards {
            s.seal_current_block()?;
        }
        Ok(())
    }

    /// Appends one entry per `(path, payload)` item, replying with all
    /// receipts in item order.
    ///
    /// Within one shard the items are staged under a single state-lock
    /// hold and a forced batch pays for **one** durability point covering
    /// every item. A batch spanning shards is *per-shard atomic*: each
    /// shard's sub-batch commits as one unit, shards are processed in
    /// ascending index order (catalog shard first), and an error leaves
    /// sub-batches on lower-indexed shards durable while later shards were
    /// never touched — there is no cross-shard rollback.
    pub fn append_batch(
        &self,
        items: &[(String, Vec<u8>)],
        opts: AppendOpts,
    ) -> Result<Vec<Receipt>> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        if self.shards.len() == 1 {
            return self.shards[0].append_batch(items, opts);
        }
        let view = self.shards[0].read_view();
        let mask = self.route_mask();
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, (path, _)) in items.iter().enumerate() {
            let id = view.catalog.resolve(path)?;
            groups
                .entry(view.catalog.route(id, mask))
                .or_default()
                .push(i);
        }
        if groups.len() == 1 {
            let (&shard, _) = groups
                .iter()
                .next()
                .expect("invariant: a non-empty batch routes somewhere");
            let receipts = self.shards[shard].append_batch(items, opts)?;
            return Ok(receipts
                .into_iter()
                .map(|r| Self::globalize_receipt(shard, r))
                .collect());
        }
        let mut out: Vec<Option<Receipt>> = vec![None; items.len()];
        // BTreeMap iteration gives ascending shard order — the service-wide
        // cross-shard order. Each shard's lock is released before the next
        // shard's is taken.
        for (shard, idxs) in groups {
            let sub: Vec<(String, Vec<u8>)> = idxs.iter().map(|&i| items[i].clone()).collect();
            let receipts = self.shards[shard].append_batch(&sub, opts)?;
            for (r, &i) in receipts.into_iter().zip(&idxs) {
                out[i] = Some(Self::globalize_receipt(shard, r));
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("invariant: every batch item was routed to exactly one shard"))
            .collect())
    }

    /// The space-overhead report (§3.5), merged across shards.
    #[must_use]
    pub fn report(&self) -> SpaceReport {
        let mut stats = SpaceStats::default();
        for s in &self.shards {
            stats.merge(&s.space_stats());
        }
        stats.report()
    }

    // ------------------------------------------------------------------
    // Observability.
    // ------------------------------------------------------------------

    /// The service's observability state (registry, trace ring, shared
    /// device counters) — one instance shared by every shard.
    #[must_use]
    pub fn obs(&self) -> &Arc<ServiceObs> {
        &self.obs
    }

    /// The unified metrics registry (device, cache, core, space and
    /// recovery metrics all register here).
    #[must_use]
    pub fn metrics(&self) -> &Arc<clio_obs::MetricsRegistry> {
        self.obs.registry()
    }

    /// The full registry rendered in the Prometheus-style text format.
    /// Space gauges are refreshed from the live accounting first.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        self.obs.publish_space(&self.report());
        clio_obs::expo::render_prometheus(self.obs.registry())
    }

    /// The full registry rendered as pretty-printed JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.obs.publish_space(&self.report());
        clio_obs::expo::render_json(self.obs.registry())
    }

    /// A text dump of the op trace ring (most recent operations last).
    #[must_use]
    pub fn trace_dump(&self) -> String {
        self.obs.trace().dump()
    }

    /// The trace ring's surviving spans as compact JSON trees (the body
    /// of the HTTP endpoint's `GET /trace`).
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.obs.trace().trace_json().encode()
    }
}
