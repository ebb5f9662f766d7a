//! The append path: block building, entrymap emission, fragmentation,
//! forced writes, volume switching, and corruption handling.

use std::collections::BTreeSet;

use clio_entrymap::Geometry;
use clio_format::records::BadBlockRecord;
use clio_format::{
    BlockBuilder, EntryForm, EntryHeader, EntrymapRecord, FragKind, PushOutcome, TRAILER_SIZE,
};
use clio_types::{BlockNo, ClioError, LogFileId, Result};

use crate::service::{OpenBlock, SealedBlock, Shard, State};
use crate::stats::SpaceStats;

/// Bound on how often one block is re-placed after failing append
/// verification; repeated failures indicate a dying device, not transient
/// corruption. Readers search this many blocks past an invalidated block
/// for its re-placed image.
pub(crate) const MAX_REPLACEMENTS: u64 = 7;

/// What one drain of the sealed queue put on the medium.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Drain {
    /// Vectored device writes issued.
    pub writes: u64,
    /// Blocks that landed.
    pub blocks: u64,
}

/// Bound on blocks a single record may spread over before we declare a
/// configuration bug (the fragmentation loop normally terminates long
/// before this).
const MAX_FRAG_BLOCKS: u32 = 100_000;

impl Shard {
    /// Opens a block if none is open.
    pub(crate) fn ensure_open(&self, st: &mut State) -> Result<()> {
        if st.open.is_none() {
            self.open_new_block(st)?;
        }
        Ok(())
    }

    fn open_new_block(&self, st: &mut State) -> Result<()> {
        let vol = self.seq.volume(st.active_index)?;
        if vol.is_full() {
            self.switch_volume(st)
        } else {
            self.open_block_at(st)
        }
    }

    /// Finishes the active volume and continues on a fresh successor
    /// (§2.1), carrying the catalog forward as a checkpoint.
    pub(crate) fn switch_volume(&self, st: &mut State) -> Result<()> {
        if st.open.is_some() {
            self.seal_open(st)?;
        }
        // The sealed queue belongs to the finishing volume; drain it onto
        // that volume's medium before the successor takes over.
        self.write_sealed_queue(st)?;
        // Preserve the finished volume's pending maps: its final groups
        // have no on-device maps (there is no block after them to carry
        // one), so searches need this in-memory state (rebuilt from the
        // device after a crash).
        let idx = st.active_index as usize;
        let pending = st.emap.pending().clone();
        // Copy-on-write: snapshots holding the old Vec are unaffected.
        let sealed = std::sync::Arc::make_mut(&mut st.sealed_pendings);
        while sealed.len() < idx {
            sealed.push(clio_entrymap::PendingMaps::new(pending.geometry()));
        }
        sealed.push(pending);
        debug_assert_eq!(st.sealed_pendings.len(), idx + 1);

        let now = self.clock.now();
        self.seq.extend(now)?;
        st.active_index += 1;
        st.emap = clio_entrymap::EntrymapWriter::new(Geometry::new(usize::from(self.cfg.fanout)));
        st.pending_snap = std::sync::Arc::new(st.emap.pending().clone());
        // Displaced maps belong to the finished volume's tree; they live on
        // in its preserved pending state, not on the new volume.
        st.carryover.clear();
        self.open_block_at(st)?;
        // Each successor volume starts with a catalog checkpoint so that
        // recovery is self-contained per volume.
        let rec = st.catalog.checkpoint();
        let header = EntryHeader::new(LogFileId::CATALOG, EntryForm::Timestamped, Some(now), None);
        self.push_record(st, header, &rec.encode(), false)?;
        Ok(())
    }

    /// Opens the next block of the active volume, writing any due entrymap
    /// records as its first entries (§2.1). Map records that cannot fit are
    /// displaced to following blocks.
    fn open_block_at(&self, st: &mut State) -> Result<()> {
        let r = self.open_block_at_inner(st);
        // Opening a boundary block *takes* completed-group notes out of the
        // pending maps (they now live as map records in the open block) and
        // propagates them one level up. Readers pair the pending snapshot
        // with a data end that already covers the open block, so the frozen
        // clone must advance in lockstep — otherwise the parent level hides
        // a completed sub-group whose notes the snapshot no longer holds,
        // and every entry in that sub-group goes unlocatable until the next
        // seal (found by the whole-system simulator).
        st.pending_snap = std::sync::Arc::new(st.emap.pending().clone());
        r
    }

    fn open_block_at_inner(&self, st: &mut State) -> Result<()> {
        debug_assert!(st.open.is_none(), "open_block_at with a block already open");
        let vol = self.seq.volume(st.active_index)?;
        loop {
            // The next fresh block sits past any queued (sealed-in-memory)
            // blocks, which the device end does not yet reflect.
            let db = st
                .sealed_queue
                .last()
                .map_or_else(|| vol.data_end(), |b| b.db + 1);
            if db >= vol.data_capacity() {
                return self.switch_volume(st);
            }
            let mut records = std::mem::take(&mut st.carryover);
            records.extend(st.emap.begin_block(db));
            let mut builder = BlockBuilder::new(self.cfg.block_size, self.clock.now());
            let mut ids = BTreeSet::new();
            let mut overflow: Vec<EntrymapRecord> = Vec::new();
            for rec in records {
                push_map_record(&mut builder, rec, &mut overflow, &mut st.stats)?;
            }
            if builder.count() > 0 {
                builder.flags_mut().has_entrymap = true;
                ids.insert(LogFileId::ENTRYMAP);
            }
            st.open = Some(OpenBlock {
                db,
                builder,
                ids,
                staged: false,
            });
            if overflow.is_empty() {
                return Ok(());
            }
            // The maps overflowed the block: seal it and continue them in
            // the next one (readers follow the `continued` flags).
            st.carryover = overflow;
            self.seal_open(st)?;
        }
    }

    /// Ensures the active volume can hold a record of `bytes` more bytes,
    /// switching to a successor volume early if it cannot — entries never
    /// fragment across volumes.
    fn ensure_volume_room(&self, st: &mut State, bytes: usize) -> Result<()> {
        let vol = self.seq.volume(st.active_index)?;
        let usable = self.cfg.block_size - TRAILER_SIZE - 4;
        let blocks_needed = (bytes / usable + 2) as u64;
        if blocks_needed > vol.data_capacity() {
            return Err(ClioError::EntryTooLarge {
                size: bytes,
                max: (vol.data_capacity() as usize).saturating_mul(usable),
            });
        }
        let current = st.open.as_ref().map_or_else(
            || {
                st.sealed_queue
                    .last()
                    .map_or_else(|| vol.data_end(), |b| b.db + 1)
            },
            |ob| ob.db,
        );
        if current + blocks_needed > vol.data_capacity() {
            self.switch_volume(st)?;
        }
        Ok(())
    }

    /// Appends one record, fragmenting it over blocks if necessary
    /// (§2.1 footnote 7). Returns (volume index, data block, slot) of the
    /// record's first fragment.
    pub(crate) fn push_record(
        &self,
        st: &mut State,
        header: EntryHeader,
        payload: &[u8],
        is_client: bool,
    ) -> Result<(u32, u64, u16)> {
        if payload.len() > u32::MAX as usize {
            return Err(ClioError::EntryTooLarge {
                size: payload.len(),
                max: u32::MAX as usize,
            });
        }
        self.ensure_open(st)?;
        self.ensure_volume_room(st, header.encoded_len() + payload.len() + 16)?;
        let vol_idx = st.active_index;

        // Fast path: the whole record fits the open block.
        {
            let ob = st
                .open
                .as_mut()
                .expect("invariant: ensure_open left an open block in state");
            if let PushOutcome::Written(slot) = ob.builder.push(&header, payload) {
                ob.ids.insert(header.id);
                account(
                    &mut st.stats,
                    &header,
                    payload.len(),
                    header.encoded_len() + 2,
                    is_client,
                );
                return Ok((vol_idx, ob.db, slot));
            }
        }

        // Fragmentation path. The chain nonce ties continuations to their
        // first fragment so a torn entry can never adopt a later entry's
        // fragments.
        let total = payload.len() as u32;
        let chain = {
            let t = header.timestamp.unwrap_or_else(|| self.clock.now()).0;
            (t as u32) ^ ((t >> 32) as u32) ^ 0x5EED_C11A
        };
        let mut first_header = header;
        first_header.frag = FragKind::First {
            total_len: total,
            chain,
        };
        let cont_header = EntryHeader {
            id: header.id,
            form: EntryForm::Minimal,
            frag: FragKind::Continuation { chain },
            timestamp: None,
            seqno: None,
        };
        let mut off = 0usize;
        let mut first: Option<(u64, u16)> = None;
        let mut first_open = false; // first fragment's block is still open
        let mut overhead = 0usize;
        let mut spins = 0u32;
        loop {
            spins += 1;
            if spins > MAX_FRAG_BLOCKS {
                return Err(ClioError::Internal(
                    "fragmentation failed to make progress".into(),
                ));
            }
            self.ensure_open(st)?;
            let mut wrote = false;
            {
                let ob = st
                    .open
                    .as_mut()
                    .expect("invariant: ensure_open left an open block in state");
                let is_first = first.is_none();
                let hdr = if is_first {
                    &first_header
                } else {
                    &cont_header
                };
                let avail = ob.builder.payload_room(hdr.encoded_len());
                let remaining = payload.len() - off;
                if avail > 0 || (avail == 0 && remaining == 0) {
                    let take = avail.min(remaining);
                    // If everything still fits whole, avoid fragmenting.
                    let use_whole = is_first && take == remaining;
                    let h = if use_whole { &header } else { hdr };
                    if let PushOutcome::Written(slot) =
                        ob.builder.push(h, &payload[off..off + take])
                    {
                        ob.ids.insert(header.id);
                        overhead += h.encoded_len() + 2;
                        if is_first {
                            first = Some((ob.db, slot));
                            first_open = true;
                        }
                        off += take;
                        wrote = true;
                    }
                }
            }
            if off == payload.len() && wrote {
                break;
            }
            // Block exhausted: seal it and continue in the next.
            let (sealed_db, _) = self.seal_open(st)?;
            if first_open {
                // The block holding the first fragment just sealed; its
                // final location is now known (it may have been displaced).
                if let Some((_, slot)) = first {
                    first = Some((sealed_db, slot));
                }
                first_open = false;
            }
        }
        account(&mut st.stats, &header, payload.len(), overhead, is_client);
        let (db, slot) =
            first.expect("invariant: a non-empty entry always writes at least one fragment");
        Ok((vol_idx, db, slot))
    }

    /// Seals the open block into the sealed queue, draining the queue onto
    /// the medium once it holds `queue_bound()` blocks (§2.3.1
    /// write-when-full). Returns the data block the open block finally
    /// landed on and what the drain, if any, wrote.
    pub(crate) fn seal_open(&self, st: &mut State) -> Result<(u64, Drain)> {
        // Span guard declared inside the function: the state lock is already
        // held by the caller, and the trace ring is a leaf lock, so recording
        // on drop here adds only the benign state -> ring edge.
        let mut span = self.obs.span("seal");
        let r = self.seal_open_inner(st);
        if r.is_err() {
            span.fail("error");
        }
        drop(span);
        // The seal noted blocks in the entrymap writer; refresh the frozen
        // pending clone that read snapshots share.
        st.pending_snap = std::sync::Arc::new(st.emap.pending().clone());
        r
    }

    fn seal_open_inner(&self, st: &mut State) -> Result<(u64, Drain)> {
        let ob = st
            .open
            .take()
            .ok_or_else(|| ClioError::Internal("seal with no open block".into()))?;
        let padding = self.cfg.block_size
            - TRAILER_SIZE
            - 2 * usize::from(ob.builder.count())
            - ob.builder.data_len();
        st.sealed_queue.push(SealedBlock {
            db: ob.db,
            image: std::sync::Arc::new(ob.builder.finish()),
        });
        let drained = if st.sealed_queue.len() >= self.queue_bound() {
            self.write_sealed_queue(st)
        } else {
            Ok(Drain::default())
        };
        // Noted after the drain: verification may have re-placed the block,
        // which still sits on the block the entrymap writer opened last.
        let db = st.emap.next_block() - 1;
        st.emap.note_block(db, ob.ids.iter().copied());
        st.stats.note_sealed_block(padding, TRAILER_SIZE);
        drained.map(|d| (db, d))
    }

    /// How many sealed blocks may wait in memory before the sealing
    /// appender writes them out. Under verification it is one, so a block
    /// that fails its read-back is always the last one opened and can
    /// still move.
    fn queue_bound(&self) -> usize {
        if self.cfg.verify_appends {
            1
        } else {
            self.cfg.max_batch_blocks.max(1)
        }
    }

    /// Drains the sealed queue onto the active volume in vectored writes of
    /// at most `queue_bound()` blocks each — the one place a block reaches
    /// the medium. With `verify_appends` each written block is read back
    /// and, if corrupt, re-placed at the next block. On a device error the
    /// unwritten suffix (as resynchronised from the device end) stays
    /// queued, so a later commit or flush retries it.
    pub(crate) fn write_sealed_queue(&self, st: &mut State) -> Result<Drain> {
        let mut drained = Drain::default();
        if st.sealed_queue.is_empty() {
            return Ok(drained);
        }
        let vol = self.seq.volume(st.active_index)?;
        let mut attempts = 0u64;
        while let Some(first) = st.sealed_queue.first() {
            let first_db = first.db;
            let n = st.sealed_queue.len().min(self.queue_bound());
            let images: Vec<std::sync::Arc<Vec<u8>>> = st.sealed_queue[..n]
                .iter()
                .map(|b| b.image.clone())
                .collect();
            if let Err(e) = vol.append_data_blocks(first_db, &images) {
                // Torn batch: the volume resynchronised its end to what
                // actually landed. (On a tail-staging device the end can
                // overshoot by the staged block; in-tree pools never stack
                // a tail over a tearing device.)
                let landed = vol.data_end().saturating_sub(first_db).min(n as u64) as usize;
                st.sealed_queue.drain(..landed);
                return Err(e);
            }
            drained.writes += 1;
            if self.cfg.verify_appends {
                // The bound is one block, so the batch is just `first_db`.
                match vol.read_data_block_direct(first_db) {
                    Ok(back) if back[..] != images[0][..] => {
                        attempts += 1;
                        self.replace_corrupt(st, &vol, attempts)?;
                        continue;
                    }
                    Ok(_) => attempts = 0,
                    Err(e) => {
                        st.sealed_queue.drain(..n);
                        return Err(e);
                    }
                }
            }
            st.sealed_queue.drain(..n);
            drained.blocks += n as u64;
        }
        Ok(drained)
    }

    /// The queue head was "written with garbage" (§2.3.2): invalidates it,
    /// notes it for the bad-block log, and moves the queued image to the
    /// next block, displacing any entrymap records due there. Only the
    /// block the entrymap writer opened last can move.
    fn replace_corrupt(
        &self,
        st: &mut State,
        vol: &clio_volume::Volume,
        attempts: u64,
    ) -> Result<()> {
        let db = st.sealed_queue[0].db;
        if attempts > MAX_REPLACEMENTS {
            return Err(ClioError::Internal(
                "append corruption persists; giving up on this device".into(),
            ));
        }
        if db + 1 != st.emap.next_block() {
            return Err(ClioError::Internal(format!(
                "corrupt block {db} is no longer the last one opened; cannot re-place it"
            )));
        }
        vol.invalidate_data_block(db)?;
        st.pending_badblocks.push(db);
        if db + 1 >= vol.data_capacity() {
            return Err(ClioError::VolumeFull);
        }
        st.emap.note_block(db, std::iter::empty());
        let recs = st.emap.begin_block(db + 1);
        st.carryover.extend(recs);
        st.pending_snap = std::sync::Arc::new(st.emap.pending().clone());
        st.sealed_queue[0].db = db + 1;
        Ok(())
    }

    /// Makes everything buffered on this shard durable (state lock held) —
    /// the commit stage of the group-commit pipeline, and the one
    /// durability routine for forced appends, flushes and catalog records.
    /// Seals the partial block early (or stages it in the device's NV RAM
    /// tail where supported), drains the sealed queue in batched writes,
    /// and records the batch metrics. On error the covered forced count is
    /// restored so a retrying leader accounts for the same appends.
    pub(crate) fn commit_locked(&self, st: &mut State) -> Result<()> {
        let covered = std::mem::take(&mut st.staged_forced);
        match self.commit_blocks(st) {
            Ok(d) => {
                if d.writes > 0 || covered > 0 {
                    self.pshard.commits.inc();
                    self.pshard.commit_batch_blocks.record(d.blocks);
                    self.obs.note_writes_saved(covered, d.writes);
                }
                Ok(())
            }
            Err(e) => {
                st.staged_forced += covered;
                Err(e)
            }
        }
    }

    /// The device side of [`Shard::commit_locked`]: what the queue drains
    /// and the tail rewrite, if any, wrote.
    fn commit_blocks(&self, st: &mut State) -> Result<Drain> {
        let vol = self.seq.volume(st.active_index)?;
        let mut tail_stage = None;
        let mut drained = Drain::default();
        if let Some(ob) = st.open.as_mut() {
            if vol.supports_tail_rewrite() {
                tail_stage = Some((ob.db, ob.builder.finish()));
            } else if !ob.builder.is_empty() {
                // Sealing an empty block would only waste write-once space.
                ob.builder.flags_mut().sealed_early = true;
                drained = self.seal_open(st)?.1;
            }
        }
        // Queue first, tail second: the tail rewrite targets the block
        // right after the queued ones, and the device only accepts a tail
        // at its write-once end.
        let rest = self.write_sealed_queue(st)?;
        drained.writes += rest.writes;
        drained.blocks += rest.blocks;
        if let Some((db, img)) = tail_stage {
            vol.rewrite_tail_data(db, img)?;
            if let Some(ob) = st.open.as_mut() {
                ob.staged = true;
            }
            drained.writes += 1;
        }
        Ok(drained)
    }

    /// Logs queued bad-block records (§2.3.2: the corrupted block's
    /// "location is recorded in a special log file").
    pub(crate) fn drain_badblocks(&self, st: &mut State) -> Result<()> {
        let mut guard = 0u32;
        while let Some(db) = st.pending_badblocks.pop() {
            guard += 1;
            if guard > 100_000 {
                return Err(ClioError::Internal("bad-block logging diverges".into()));
            }
            let rec = BadBlockRecord { block: BlockNo(db) };
            let header = EntryHeader::new(LogFileId::BAD_BLOCK, EntryForm::Minimal, None, None);
            self.push_record(st, header, &rec.encode(), false)?;
        }
        Ok(())
    }
}

/// Updates accounting for one record.
fn account(
    stats: &mut SpaceStats,
    header: &EntryHeader,
    payload: usize,
    overhead: usize,
    is_client: bool,
) {
    if is_client {
        stats.note_client_entry(header.id, payload, overhead);
    } else {
        stats.note_service_entry(header.id, payload + overhead);
    }
}

/// Writes one entrymap record into `builder`, splitting its per-file maps
/// into as many chunk records as fit; what cannot fit is pushed to
/// `overflow` with the preceding chunk marked `continued`.
fn push_map_record(
    builder: &mut BlockBuilder,
    rec: EntrymapRecord,
    overflow: &mut Vec<EntrymapRecord>,
    stats: &mut SpaceStats,
) -> Result<()> {
    let per = EntrymapRecord::per_map_len(rec.bits);
    let base = EntrymapRecord::HEADER_LEN;
    let header = EntryHeader::new(LogFileId::ENTRYMAP, EntryForm::Minimal, None, None);
    let room = builder.payload_room(header.encoded_len());
    let min_needed = base + if rec.maps.is_empty() { 0 } else { per };
    if room < min_needed {
        overflow.push(rec);
        return Ok(());
    }
    let fit = if rec.maps.is_empty() {
        0
    } else {
        ((room - base) / per).min(rec.maps.len())
    };
    let mut chunk = rec;
    let rest = chunk.maps.split_off(fit);
    chunk.continued = !rest.is_empty();
    let payload = chunk.encode();
    match builder.push(&header, &payload) {
        PushOutcome::Written(_) => {
            stats.note_service_entry(LogFileId::ENTRYMAP, payload.len() + 4);
        }
        PushOutcome::NoSpace { .. } => {
            return Err(ClioError::Internal(
                "entrymap chunk sizing disagrees with block builder".into(),
            ));
        }
    }
    if !rest.is_empty() {
        let mut remainder = chunk;
        remainder.maps = rest;
        remainder.continued = false;
        overflow.push(remainder);
    }
    Ok(())
}
