//! Seed-derived payloads and the output checks run against them.
//!
//! Every payload is a pure function of the run seed and the entry's
//! (log, sequence number), and starts with that pair, so any entry read
//! back can be checked — and placed in its log — without keeping the
//! written bytes around.

use clio_core::{Entry, LogService};
use clio_testkit::rng::splitmix64;
use clio_types::{EntryAddr, LogFileId, Result, Timestamp};

/// Entries a time seek reads after positioning its cursor.
pub const SEEK_NEXTS: usize = 16;

/// One acknowledged append.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// Index of the log in the workload's [`Logs`].
    pub log: u16,
    /// Position of the entry within its log (0-based).
    pub seq: u32,
    pub addr: EntryAddr,
    pub ts: Timestamp,
}

/// The payload of entry `seq` of log `log`: the pair itself, then
/// seed-derived bytes.
pub fn payload(seed: u64, log: u16, seq: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&log.to_le_bytes());
    let mut state =
        seed ^ (u64::from(log) << 48) ^ u64::from(seq).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while out.len() < len {
        out.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The log files a workload writes, by index, and the payload size of
/// each one's entries.
pub struct Logs {
    pub paths: Vec<String>,
    pub ids: Vec<LogFileId>,
    pub lens: Vec<usize>,
}

impl Logs {
    /// Whether `entry` is entry `seq` of log `log`.
    fn is(&self, seed: u64, log: u16, seq: u32, entry: &Entry) -> bool {
        let log_ix = usize::from(log);
        entry.id == self.ids[log_ix] && entry.data == payload(seed, log, seq, self.lens[log_ix])
    }

    /// Whether `entry` is exactly what `ack` acknowledged.
    pub fn matches(&self, seed: u64, ack: &Ack, entry: &Entry) -> bool {
        entry.addr == ack.addr
            && entry.timestamp == Some(ack.ts)
            && self.is(seed, ack.log, ack.seq, entry)
    }

    /// Reads `ack`'s entry back and checks it.
    pub fn read_ok(&self, svc: &LogService, seed: u64, ack: &Ack) -> bool {
        svc.read_entry(ack.addr)
            .is_ok_and(|e| self.matches(seed, ack, &e))
    }

    /// Whether a seek to `target`'s timestamp returned `target` and the
    /// entries after it, up to [`SEEK_NEXTS`], in a log of `acked`
    /// entries. Within one log the timestamps strictly increase, so the
    /// first entry at or after `target.ts` is `target` itself.
    pub fn seek_ok(&self, seed: u64, target: &Ack, acked: u32, got: &[Entry]) -> bool {
        let want = (acked - target.seq).min(SEEK_NEXTS as u32) as usize;
        got.len() == want
            && got.first().is_some_and(|e| self.matches(seed, target, e))
            && got
                .iter()
                .zip(target.seq..)
                .all(|(e, seq)| self.is(seed, target.log, seq, e))
    }

    /// Whether log `log` has no sublogs, so a cursor on it yields only
    /// its own entries.
    pub fn is_leaf(&self, log: usize) -> bool {
        let prefix = format!("{}/", self.paths[log]);
        !self.paths.iter().any(|p| p.starts_with(&prefix))
    }

    /// Reads log `log` from its start and returns how many leading
    /// entries are its entries 0, 1, 2, … with strictly increasing
    /// timestamps, and the total number of entries it holds.
    pub fn scan(&self, svc: &LogService, seed: u64, log: u16) -> Result<(u32, u32)> {
        let mut cursor = svc.cursor(&self.paths[usize::from(log)])?;
        let (mut good, mut total) = (0u32, 0u32);
        let mut last_ts = None;
        while let Some(e) = cursor.next()? {
            if good == total && self.is(seed, log, total, &e) && e.timestamp > last_ts {
                good += 1;
                last_ts = e.timestamp;
            }
            total += 1;
        }
        Ok((good, total))
    }
}

/// Positions a cursor on `path` at `ts` and reads up to [`SEEK_NEXTS`]
/// entries.
pub fn seek(svc: &LogService, path: &str, ts: Timestamp) -> Result<Vec<Entry>> {
    let mut cursor = svc.cursor_from_time(path, ts)?;
    let mut out = Vec::with_capacity(SEEK_NEXTS);
    while out.len() < SEEK_NEXTS {
        match cursor.next()? {
            Some(e) => out.push(e),
            None => break,
        }
    }
    Ok(out)
}
