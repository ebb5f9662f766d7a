//! Reading log files: entry reassembly, cursors, time and unique-id lookup.
//!
//! "When a log file is opened for reading, access can be provided to the
//! sequence of entries in the file either subsequent to, or prior to, any
//! previous point in time" (§2). A [`LogCursor`] walks the entries of a log
//! file — including all its sublogs (§2.1) — in either direction, using the
//! entrymap tree to hop over blocks without relevant entries, and the
//! timestamp search (§2.1) to start from a point in time.
//!
//! # Concurrency
//!
//! The medium is write-once: every sealed block is immutable forever, so
//! reads need no coordination with the appender at all. Every operation
//! here runs against an immutable [`ReadView`] snapshot published by the
//! append path — the append-side state mutex is **never** acquired, and no
//! lock is held across device I/O. Cursors pin their snapshots at creation
//! and refresh only on crossing a snapshot's watermark (reaching the end),
//! which is also what lets cursors tail a growing log.
//!
//! # Sharding
//!
//! A log file's entries all live on one shard (routing is by top-level
//! ancestor, and a sublog closure never crosses shards), so most cursors
//! have a single shard-level part. A cursor over a path whose closure
//! *does* span shards — only the root `/` can — walks its parts in
//! ascending shard order: entries come back shard by shard, in log order
//! within each shard, with no global time ordering across shards.

use std::sync::Arc;

use clio_entrymap::tsearch;
use clio_entrymap::{BlockSource, Locator, PendingMaps};
use clio_format::{BlockView, FragKind};
use clio_types::{BlockNo, ClioError, EntryAddr, LogFileId, Result, SeqNo, Timestamp};
use clio_volume::Volume;

use crate::service::{globalize_addr, LogService, ReadView, Shard};
use crate::write::MAX_REPLACEMENTS;

/// A fully reassembled log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Where the entry (its first fragment) lives.
    pub addr: EntryAddr,
    /// The log file the entry was tagged with (its most specific sublog).
    pub id: LogFileId,
    /// The service timestamp from the header, if the entry carried one.
    pub timestamp: Option<Timestamp>,
    /// The client sequence number, if the entry carried one.
    pub seqno: Option<SeqNo>,
    /// The mandatory first-entry timestamp of the entry's block — the
    /// fallback time resolution for untimestamped entries (§2.1).
    pub block_ts: Timestamp,
    /// The client payload.
    pub data: Vec<u8>,
}

impl Entry {
    /// The entry's best-known write time: its own timestamp, or its
    /// block's.
    #[must_use]
    pub fn effective_ts(&self) -> Timestamp {
        self.timestamp.unwrap_or(self.block_ts)
    }
}

/// A per-volume [`BlockSource`] over one snapshot: the volume's sealed
/// blocks plus, for the active volume, what the snapshot holds in memory.
pub(crate) struct VolSource<'v> {
    vol: Arc<Volume>,
    /// The snapshot, when this source covers its active volume. Its
    /// frozen open-block image, its queue of blocks sealed in memory but
    /// not yet written (served like sealed blocks, past the device
    /// watermark) and its `data_end` watermark are read in place. Sealed
    /// volumes read their final, immutable device watermark instead.
    active: Option<&'v ReadView>,
    fanout: usize,
}

impl VolSource<'_> {
    /// The open (unsealed) block's number, if this source covers one. Its
    /// entries are not yet reflected in any entrymap bitmap — the writer
    /// notes a block only when it seals — so scans must visit it
    /// explicitly.
    fn open_db(&self) -> Option<u64> {
        self.active?.open.as_ref().map(|(db, _)| *db)
    }
}

impl BlockSource for VolSource<'_> {
    fn fanout(&self) -> usize {
        self.fanout
    }

    fn data_end(&self) -> u64 {
        let Some(view) = self.active else {
            return self.vol.data_end();
        };
        let queued = view.queued.last().map(|(db, _)| db + 1);
        let open = view.open.as_ref().map(|(db, _)| db + 1);
        view.active_data_end
            .max(queued.unwrap_or(0))
            .max(open.unwrap_or(0))
    }

    fn read(&self, db: u64) -> Result<Arc<Vec<u8>>> {
        if let Some(view) = self.active {
            if let Some((odb, img)) = &view.open {
                if *odb == db {
                    return Ok(img.clone());
                }
            }
            if let Ok(i) = view.queued.binary_search_by_key(&db, |(qdb, _)| *qdb) {
                return Ok(view.queued[i].1.clone());
            }
        }
        self.vol.read_data_block(db)
    }
}

impl Shard {
    /// A block source over one volume of the snapshot, including the open
    /// block and the sealed queue when the volume is active.
    pub(crate) fn source_for<'v>(&self, view: &'v ReadView, vol_idx: u32) -> Result<VolSource<'v>> {
        Ok(VolSource {
            vol: self.seq.volume(vol_idx)?,
            active: (vol_idx == view.active_index).then_some(view),
            fanout: usize::from(self.cfg.fanout),
        })
    }

    /// The pending maps to search a volume's unmapped tail with, borrowed
    /// from the snapshot (no clone, no lock).
    pub(crate) fn pending_for<'v>(
        &self,
        view: &'v ReadView,
        vol_idx: u32,
    ) -> Option<&'v PendingMaps> {
        if vol_idx == view.active_index {
            Some(&view.active_pending)
        } else {
            view.sealed_pendings.get(vol_idx as usize)
        }
    }

    /// Reads and reassembles the entry at the shard-local `addr` (lock-free:
    /// operates on the current read snapshot). Records the read span and
    /// metrics.
    pub(crate) fn read_entry(&self, addr: EntryAddr) -> Result<Entry> {
        self.read_spanned(|| self.read_entry_in(&self.read_view(), addr))
    }

    /// Times `op` as one `read` span; latency, counters and outcome land
    /// in the service registry and trace ring. `T` is an [`Entry`] or, for
    /// a cursor step, an `Option<Entry>`. Only a step that returns an
    /// entry counts as a read: an exhausted cursor step is neither a read
    /// nor an error.
    fn read_spanned<T>(&self, op: impl FnOnce() -> Result<T>) -> Result<T>
    where
        for<'e> &'e T: Into<Option<&'e Entry>>,
    {
        let start = clio_obs::clock::now();
        let mut span = self.obs.span("read");
        let r = op();
        match r.as_ref().map(Into::into) {
            Ok(Some(e)) => {
                span.set_target(u64::from(e.id.0));
                drop(span);
                self.obs.note_read(e.id, start.elapsed());
            }
            Ok(None) => {}
            Err(_) => {
                span.fail("error");
                drop(span);
                self.obs.note_read_error();
            }
        }
        r
    }

    pub(crate) fn read_entry_in(&self, view: &ReadView, addr: EntryAddr) -> Result<Entry> {
        let src = self.source_for(view, addr.volume_index)?;
        let mut db = addr.block.0;
        let mut img = src.read(db)?;
        if self.cfg.verify_appends && BlockView::is_invalidated(&img) {
            // The block was invalidated after this address was issued; with
            // append verification its contents were re-placed in one of the
            // following blocks at the same slot (best effort, §2.3.2).
            // Without verification nothing is re-placed: an invalidated
            // block is a torn write that recovery cut off, and the next
            // block holds unrelated, later entries.
            let mut found = None;
            for cand in db + 1..(db + 1 + MAX_REPLACEMENTS).min(src.data_end()) {
                let ci = src.read(cand)?;
                if let Ok(v) = BlockView::parse(&ci) {
                    if v.count() > addr.slot {
                        found = Some((cand, ci));
                        break;
                    }
                }
            }
            (db, img) = found.ok_or_else(|| ClioError::NotFound(format!("entry {addr}")))?;
        }
        let view_blk = BlockView::parse(&img)?;
        let first = view_blk.entry(addr.slot)?;
        let header = first.header;
        let block_ts = view_blk.first_ts();
        let mut data = first.payload.to_vec();
        if let FragKind::First { total_len, chain } = header.frag {
            // Reassemble continuation fragments from following blocks.
            // Continuations are written in the immediately following
            // blocks; unparseable blocks (invalidated, §2.3.2) are skipped
            // within a small window, but a readable block without the next
            // piece means the chain is torn — the entry does not exist.
            let total = total_len as usize;
            let mut at = db + 1;
            let mut skipped = 0u64;
            while data.len() < total {
                if at >= src.data_end() || skipped > MAX_REPLACEMENTS {
                    return Err(ClioError::NotFound(format!(
                        "fragments of entry {addr} missing past block {at}"
                    )));
                }
                let ci = src.read(at)?;
                match BlockView::parse(&ci) {
                    Ok(v) => {
                        let mut found = false;
                        for e in v.entries() {
                            let Ok(e) = e else { break };
                            if e.header.frag == (FragKind::Continuation { chain })
                                && e.header.id == header.id
                            {
                                data.extend_from_slice(e.payload);
                                found = true;
                                break;
                            }
                        }
                        if !found {
                            return Err(ClioError::NotFound(format!(
                                "fragment chain of entry {addr} broken at block {at}"
                            )));
                        }
                        skipped = 0;
                    }
                    Err(_) => skipped += 1,
                }
                at += 1;
            }
            if data.len() != total {
                return Err(ClioError::BadRecord("fragment reassembly size mismatch"));
            }
        } else if matches!(header.frag, FragKind::Continuation { .. }) {
            return Err(ClioError::BadRecord(
                "address points at a continuation fragment",
            ));
        }
        Ok(Entry {
            addr: EntryAddr::new(addr.volume_index, BlockNo(db), addr.slot),
            id: header.id,
            timestamp: header.timestamp,
            seqno: header.seqno,
            block_ts,
            data,
        })
    }

    /// Scans forward from `(vol, db, slot)` for the next entry of `ids`,
    /// honouring `floor` (skip entries before that time) when set.
    pub(crate) fn scan_forward(
        &self,
        view: &ReadView,
        ids: &[LogFileId],
        start: (u32, u64, u16),
        floor: Option<Timestamp>,
    ) -> Result<Option<Entry>> {
        let (mut vol_idx, mut db, mut slot) = start;
        // The snapshot covers volumes 0..=active_index.
        let vol_count = view.active_index + 1;
        while vol_idx < vol_count {
            let src = self.source_for(view, vol_idx)?;
            let end = src.data_end();
            while db < end {
                if let Ok(img) = src.read(db) {
                    if let Ok(blk) = BlockView::parse(&img) {
                        for e in blk.entries() {
                            let Ok(e) = e else { break };
                            if e.slot < slot
                                || !ids.contains(&e.header.id)
                                || matches!(e.header.frag, FragKind::Continuation { .. })
                            {
                                continue;
                            }
                            let eff = e.header.timestamp.unwrap_or_else(|| blk.first_ts());
                            if floor.is_some_and(|f| eff < f) {
                                continue;
                            }
                            let addr = EntryAddr::new(vol_idx, BlockNo(db), e.slot);
                            match self.read_entry_in(view, addr) {
                                Ok(entry) => return Ok(Some(entry)),
                                // A fragmented entry whose continuation was
                                // lost (torn by a crash, or destroyed by
                                // §2.3.2 corruption) is treated as absent.
                                Err(ClioError::NotFound(_)) => continue,
                                Err(e) => return Err(e),
                            }
                        }
                    }
                }
                // Nothing (left) in this block: hop to the next block with
                // entries of ours via the entrymap tree. The open block is
                // invisible to the entrymap (it has not been noted yet), so
                // visit it explicitly when the tree finds nothing.
                let pending = self.pending_for(view, vol_idx);
                let mut loc = Locator::new(&src, pending);
                let t = clio_obs::clock::now();
                let hop = loc.locate_at_or_after(ids, db + 1)?;
                self.obs
                    .note_locate(ids.first().copied(), &loc.stats, t.elapsed());
                match hop {
                    Some(nb) => {
                        db = nb;
                        slot = 0;
                    }
                    None => match src.open_db() {
                        Some(odb) if odb > db => {
                            db = odb;
                            slot = 0;
                        }
                        _ => break,
                    },
                }
            }
            vol_idx += 1;
            db = 0;
            slot = 0;
        }
        Ok(None)
    }

    /// Scans backward for the last entry of `ids` strictly before
    /// `(vol, db, slot)` (slot `u16::MAX` means "from the end of block
    /// `db`"; `db == u64::MAX` means "from the end of the volume").
    pub(crate) fn scan_backward(
        &self,
        view: &ReadView,
        ids: &[LogFileId],
        before: (u32, u64, u16),
    ) -> Result<Option<Entry>> {
        let (mut vol_idx, mut db, mut slot_excl) = before;
        loop {
            let src = self.source_for(view, vol_idx)?;
            let end = src.data_end();
            if end > 0 {
                if db >= end {
                    db = end - 1;
                    slot_excl = u16::MAX;
                }
                loop {
                    if let Ok(img) = src.read(db) {
                        if let Ok(blk) = BlockView::parse(&img) {
                            let mut best: Option<u16> = None;
                            for e in blk.entries() {
                                let Ok(e) = e else { break };
                                if e.slot < slot_excl
                                    && ids.contains(&e.header.id)
                                    && !matches!(e.header.frag, FragKind::Continuation { .. })
                                {
                                    best = Some(e.slot);
                                }
                            }
                            while let Some(s) = best {
                                let addr = EntryAddr::new(vol_idx, BlockNo(db), s);
                                match self.read_entry_in(view, addr) {
                                    Ok(entry) => return Ok(Some(entry)),
                                    // Torn/lost fragments: fall back to the
                                    // previous candidate in this block.
                                    Err(ClioError::NotFound(_)) => {
                                        best = blk
                                            .entries()
                                            .filter_map(|e| e.ok())
                                            .filter(|e| {
                                                e.slot < s
                                                    && ids.contains(&e.header.id)
                                                    && !matches!(
                                                        e.header.frag,
                                                        FragKind::Continuation { .. }
                                                    )
                                            })
                                            .map(|e| e.slot)
                                            .last();
                                    }
                                    Err(e) => return Err(e),
                                }
                            }
                        }
                    }
                    if db == 0 {
                        break;
                    }
                    let pending = self.pending_for(view, vol_idx);
                    let mut loc = Locator::new(&src, pending);
                    let t = clio_obs::clock::now();
                    let hop = loc.locate_before(ids, db - 1)?;
                    self.obs
                        .note_locate(ids.first().copied(), &loc.stats, t.elapsed());
                    match hop {
                        Some(pb) => {
                            db = pb;
                            slot_excl = u16::MAX;
                        }
                        None => break,
                    }
                }
            }
            if vol_idx == 0 {
                return Ok(None);
            }
            vol_idx -= 1;
            db = u64::MAX;
            slot_excl = u16::MAX;
        }
    }

    // ------------------------------------------------------------------
    // Shard-level cursors (over already-resolved id sets).
    // ------------------------------------------------------------------

    /// A cursor over `ids` positioned before this shard's first entry.
    pub(crate) fn cursor_ids(&self, ids: Vec<LogFileId>) -> ShardCursor<'_> {
        ShardCursor {
            svc: self,
            view: self.read_view(),
            ids,
            anchor: Anchor::Start,
            floor: None,
        }
    }

    /// A cursor over `ids` positioned after this shard's last entry.
    pub(crate) fn cursor_ids_from_end(&self, ids: Vec<LogFileId>) -> ShardCursor<'_> {
        ShardCursor {
            svc: self,
            view: self.read_view(),
            ids,
            anchor: Anchor::End,
            floor: None,
        }
    }

    /// A cursor over `ids` positioned at `ts` within this shard.
    pub(crate) fn cursor_ids_from_time(
        &self,
        ids: Vec<LogFileId>,
        ts: Timestamp,
    ) -> Result<ShardCursor<'_>> {
        let view = self.read_view();
        // Volumes are created in time order; start in the last volume whose
        // label predates ts, then refine with the in-volume timestamp
        // search (§2.1).
        let vol_count = view.active_index + 1;
        let mut vol_pick = 0;
        for v in 0..vol_count {
            if self.seq.volume(v)?.label().created <= ts {
                vol_pick = v;
            } else {
                break;
            }
        }
        let src = self.source_for(&view, vol_pick)?;
        let (db_opt, _) = tsearch::find_block_by_time(&src, ts)?;
        let start = (vol_pick, db_opt.unwrap_or(0), 0u16);
        let anchor = match self.scan_forward(&view, &ids, start, Some(ts))? {
            Some(e) => Anchor::BeforeEntry(e.addr),
            None => Anchor::End,
        };
        Ok(ShardCursor {
            svc: self,
            view,
            ids,
            anchor,
            floor: None,
        })
    }
}

impl LogService {
    /// Reads and reassembles the entry at `addr` (lock-free: operates on
    /// the entry's shard's current read snapshot).
    pub fn read_entry(&self, addr: EntryAddr) -> Result<Entry> {
        let (shard, local) = self.localize_addr(addr)?;
        let mut e = self.shards[shard].read_entry(local)?;
        e.addr = globalize_addr(shard as u32, e.addr);
        Ok(e)
    }

    /// The id closure (log file + sublogs) for a path, from the catalog
    /// shard's snapshot, with the read-permission check applied.
    fn closure_of(&self, path: &str) -> Result<Vec<LogFileId>> {
        let view = self.shards[0].read_view();
        let id = view.catalog.resolve(path)?;
        let attrs = view.catalog.attrs(id)?;
        if attrs.perms & clio_format::records::PERM_READ == 0 {
            return Err(ClioError::PermissionDenied(path.to_owned()));
        }
        Ok(view.catalog.closure(id))
    }

    /// Partitions a closure by shard (ascending shard order). A path below
    /// a top-level log file always lands in exactly one group.
    fn parts_for(&self, ids: Vec<LogFileId>) -> Vec<(u32, Vec<LogFileId>)> {
        if self.shards.len() == 1 {
            return vec![(0, ids)];
        }
        let view = self.shards[0].read_view();
        let mask = self.route_mask();
        let mut groups: std::collections::BTreeMap<u32, Vec<LogFileId>> =
            std::collections::BTreeMap::new();
        for id in ids {
            let shard = view.catalog.route(id, mask) as u32;
            groups.entry(shard).or_default().push(id);
        }
        groups.into_iter().collect()
    }

    /// A cursor over `path` (and all its sublogs) positioned before the
    /// first entry.
    pub fn cursor(&self, path: &str) -> Result<LogCursor<'_>> {
        let parts = self
            .parts_for(self.closure_of(path)?)
            .into_iter()
            .map(|(shard, ids)| (shard, self.shards[shard as usize].cursor_ids(ids)))
            .collect::<Vec<_>>();
        Ok(LogCursor { parts, active: 0 })
    }

    /// A cursor positioned after the last entry (for backward reading).
    pub fn cursor_from_end(&self, path: &str) -> Result<LogCursor<'_>> {
        let parts = self
            .parts_for(self.closure_of(path)?)
            .into_iter()
            .map(|(shard, ids)| (shard, self.shards[shard as usize].cursor_ids_from_end(ids)))
            .collect::<Vec<_>>();
        let active = parts.len().saturating_sub(1);
        Ok(LogCursor { parts, active })
    }

    /// A cursor positioned at `ts`: `next()` yields entries written at or
    /// after `ts`, `prev()` yields those before it (§2).
    pub fn cursor_from_time(&self, path: &str, ts: Timestamp) -> Result<LogCursor<'_>> {
        let mut parts = Vec::new();
        for (shard, ids) in self.parts_for(self.closure_of(path)?) {
            parts.push((
                shard,
                self.shards[shard as usize].cursor_ids_from_time(ids, ts)?,
            ));
        }
        Ok(LogCursor { parts, active: 0 })
    }

    /// Resolves an asynchronously written entry by its client-generated
    /// unique id — approximate timestamp plus sequence number (§2.1). The
    /// timestamp bounds the search window to ± the configured clock skew.
    pub fn find_by_unique_id(
        &self,
        path: &str,
        approx_ts: Timestamp,
        seqno: SeqNo,
    ) -> Result<Option<Entry>> {
        let skew = self.cfg.unique_id_skew_us;
        let from = Timestamp(approx_ts.0.saturating_sub(skew));
        let limit = approx_ts.saturating_add_micros(skew);
        // Search every shard of the closure: the window is per shard, so a
        // miss on one shard must not end the search on the others.
        for (shard, ids) in self.parts_for(self.closure_of(path)?) {
            let mut cur = self.shards[shard as usize].cursor_ids_from_time(ids, from)?;
            while let Some(mut e) = cur.next()? {
                if e.effective_ts() > limit {
                    break;
                }
                if e.seqno == Some(seqno) {
                    e.addr = globalize_addr(shard, e.addr);
                    return Ok(Some(e));
                }
            }
        }
        Ok(None)
    }
}

/// Where a cursor stands between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Anchor {
    /// Before the first entry.
    Start,
    /// After the last entry.
    End,
    /// On the entry at this address (last one returned).
    At(EntryAddr),
    /// Immediately before the entry at this address.
    BeforeEntry(EntryAddr),
}

/// A bidirectional cursor over one shard's slice of an id closure.
/// Entry addresses are shard-local; the public [`LogCursor`] globalizes
/// them. The read span and metrics are recorded here (once per advance)
/// so the multi-part wrapper never double-counts.
pub(crate) struct ShardCursor<'a> {
    svc: &'a Shard,
    view: Arc<ReadView>,
    ids: Vec<LogFileId>,
    anchor: Anchor,
    floor: Option<Timestamp>,
}

impl ShardCursor<'_> {
    /// The next entry at or after the cursor, advancing it.
    pub(crate) fn next(&mut self) -> Result<Option<Entry>> {
        let svc = self.svc;
        svc.read_spanned(|| self.next_inner())
    }

    /// The entry before the cursor, moving it backward.
    pub(crate) fn prev(&mut self) -> Result<Option<Entry>> {
        let svc = self.svc;
        svc.read_spanned(|| self.prev_inner())
    }

    fn next_inner(&mut self) -> Result<Option<Entry>> {
        let start = match self.anchor {
            Anchor::End => return Ok(None),
            Anchor::Start => (0u32, 0u64, 0u16),
            Anchor::At(a) => (a.volume_index, a.block.0, a.slot + 1),
            Anchor::BeforeEntry(a) => (a.volume_index, a.block.0, a.slot),
        };
        if let Some(e) = self
            .svc
            .scan_forward(&self.view, &self.ids, start, self.floor)?
        {
            self.anchor = Anchor::At(e.addr);
            self.floor = None;
            return Ok(Some(e));
        }
        // The pinned snapshot is exhausted — the cursor crossed its
        // watermark. Refresh to the currently published snapshot and look
        // again; this is the only point a cursor observes new appends.
        let fresh = self.svc.read_view();
        if Arc::ptr_eq(&fresh, &self.view) {
            return Ok(None);
        }
        self.view = fresh;
        match self
            .svc
            .scan_forward(&self.view, &self.ids, start, self.floor)?
        {
            Some(e) => {
                self.anchor = Anchor::At(e.addr);
                self.floor = None;
                Ok(Some(e))
            }
            None => Ok(None),
        }
    }

    fn prev_inner(&mut self) -> Result<Option<Entry>> {
        let before = match self.anchor {
            Anchor::Start => return Ok(None),
            Anchor::End => {
                // Walk backward from the end of the pinned snapshot.
                (self.view.active_index, u64::MAX, u16::MAX)
            }
            Anchor::At(a) | Anchor::BeforeEntry(a) => (a.volume_index, a.block.0, a.slot),
        };
        match self.svc.scan_backward(&self.view, &self.ids, before)? {
            Some(e) => {
                self.anchor = Anchor::BeforeEntry(e.addr);
                Ok(Some(e))
            }
            None => {
                self.anchor = Anchor::Start;
                Ok(None)
            }
        }
    }
}

/// A bidirectional cursor over the entries of a log file and its sublogs.
///
/// The sublog set is captured at creation; log files created afterwards are
/// not included. The cursor pins a read snapshot (per shard) at creation
/// and walks it without ever locking the appender; when `next()` exhausts
/// the pinned snapshot it refreshes to the current one, so `next()` after
/// the end simply returns `None` and may return new entries later —
/// cursors can tail a growing log.
///
/// When the closure spans several shards (only a cursor over `/` can), the
/// parts are walked in ascending shard order, and once the cursor has moved
/// past a shard it does not revisit it: tailing observes new entries only
/// on the final shard.
pub struct LogCursor<'a> {
    /// One shard-level cursor per shard of the closure, ascending.
    parts: Vec<(u32, ShardCursor<'a>)>,
    /// The part the cursor currently stands in.
    active: usize,
}

#[allow(clippy::should_implement_trait)] // fallible: `Iterator::next` cannot return `Result`
impl LogCursor<'_> {
    /// The next entry at or after the cursor, advancing it.
    pub fn next(&mut self) -> Result<Option<Entry>> {
        loop {
            let Some((shard, part)) = self.parts.get_mut(self.active) else {
                return Ok(None);
            };
            if let Some(mut e) = part.next()? {
                e.addr = globalize_addr(*shard, e.addr);
                return Ok(Some(e));
            }
            if self.active + 1 >= self.parts.len() {
                // Stay on the last part so tailing keeps working.
                return Ok(None);
            }
            self.active += 1;
        }
    }

    /// The entry before the cursor, moving it backward.
    pub fn prev(&mut self) -> Result<Option<Entry>> {
        loop {
            let Some((shard, part)) = self.parts.get_mut(self.active) else {
                return Ok(None);
            };
            if let Some(mut e) = part.prev()? {
                e.addr = globalize_addr(*shard, e.addr);
                return Ok(Some(e));
            }
            if self.active == 0 {
                return Ok(None);
            }
            self.active -= 1;
        }
    }

    /// Collects every remaining entry (test/example convenience).
    pub fn collect_remaining(&mut self) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        while let Some(e) = self.next()? {
            out.push(e);
        }
        Ok(out)
    }
}
