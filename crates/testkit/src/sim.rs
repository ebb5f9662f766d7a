//! Deterministic whole-system simulation: a virtual-time scheduler, an
//! operation-history recorder, and a linearizability checker specialized
//! to the log-file model.
//!
//! This is the FoundationDB-style composition point for everything the
//! testkit already provides: all nondeterminism — which client runs next,
//! when a crash fires, what a torn tail contains — is drawn from one
//! seeded [`crate::rng::StdRng`] stream, so a whole multi-client,
//! multi-crash run is a pure function of a printed `u64` seed and
//! `CLIO_PROP_SEED=<n>` replays any failure byte-identically.
//!
//! The pieces are deliberately service-agnostic (plain integers for log
//! ids, values, and addresses) so this module sits at the bottom of the
//! dependency graph; the driver that wires them to the real `LogService`
//! lives in `crates/core/tests/simulation.rs`.
//!
//! # Model
//!
//! The scheduler serializes execution: exactly one client operation runs
//! at a time, and the seeded interleaving order *is* the linearization
//! order. The checker therefore does not search over permutations — it
//! verifies that the recorded total order satisfies the log model:
//!
//! * **receipt-order** — append receipts for one log file are strictly
//!   increasing in address and non-decreasing in timestamp;
//! * **read-your-writes** — reading a receipt's address returns exactly
//!   the value that was appended;
//! * **cursor-sequence** — a cursor observes the log's live entries in
//!   order with no gaps, duplicates, or reordering, and reports
//!   exhaustion only at the true end;
//! * **recovery-prefix** — the entries surviving a crash are a prefix of
//!   the acknowledged appends (a failed in-flight append may sit at the
//!   cut point: the crash makes it *indeterminate*);
//! * **durable-loss** — everything acknowledged at or before the last
//!   *forced* acknowledgement survives every crash;
//! * **buffered-loss** — with a sealed-queue bound `b` (see
//!   [`check_history_with_shards`]), every acknowledged entry whose
//!   receipt lies more than `b + 1` blocks behind its shard's last
//!   receipt, or on an earlier volume, survives every crash: a crash
//!   loses at most the open block plus `b` queued blocks;
//! * **unique-id** — a unique-id lookup finds an entry iff it is live,
//!   and returns its exact value;
//! * **final-scan** — after a clean shutdown flush, a full scan equals
//!   the live sequence exactly.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::rng::StdRng;

// ---------------------------------------------------------------------
// Virtual time.
// ---------------------------------------------------------------------

/// The simulation's virtual clock, in microseconds. Shared (via `Arc`)
/// between the scheduler and whatever the system under test uses as its
/// semantic clock, so entry timestamps advance with simulated time and
/// never touch the host clock (`clio-lint`'s `no-wallclock` rule keeps it
/// that way).
#[derive(Debug, Default)]
pub struct SimClock {
    us: AtomicU64,
}

impl SimClock {
    /// A clock starting at `start_us` virtual microseconds.
    #[must_use]
    pub fn starting_at(start_us: u64) -> SimClock {
        SimClock {
            us: AtomicU64::new(start_us),
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.us.load(Ordering::Relaxed)
    }

    /// Advances virtual time to at least `us` (never backwards).
    pub fn advance_to(&self, us: u64) {
        self.us.fetch_max(us, Ordering::Relaxed);
    }

    /// Consumes one unique microsecond tick and returns the new time —
    /// the hook for a semantic `Clock` implementation that needs strictly
    /// increasing timestamps.
    pub fn tick(&self) -> u64 {
        self.us.fetch_add(1, Ordering::Relaxed) + 1
    }
}

// ---------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------

/// A seeded virtual-time scheduler over N simulated clients.
///
/// Each client is either *runnable* or *blocked until* some virtual time
/// (set by [`Scheduler::charge`] when its last operation's modelled cost
/// is known). [`Scheduler::pick`] advances the clock to the earliest wake
/// time and chooses uniformly at random — from the seeded stream — among
/// every runnable client, which is where interleaving diversity comes
/// from.
pub struct Scheduler {
    clock: Arc<SimClock>,
    rng: StdRng,
    wake: Vec<u64>,
}

impl Scheduler {
    /// A scheduler for `clients` clients whose entire interleaving is a
    /// function of `seed`.
    #[must_use]
    pub fn new(seed: u64, clients: usize, clock: Arc<SimClock>) -> Scheduler {
        assert!(clients > 0, "scheduler needs at least one client");
        let now = clock.now_us();
        Scheduler {
            clock,
            rng: StdRng::seed_from_u64(seed),
            wake: vec![now; clients],
        }
    }

    /// Number of clients being scheduled.
    #[must_use]
    pub fn clients(&self) -> usize {
        self.wake.len()
    }

    /// The shared virtual clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The current virtual time.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// The scheduler's seeded randomness stream (also used by drivers for
    /// workload choices, so one seed covers everything).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Picks the next client to run: advances virtual time to the
    /// earliest wake point and chooses uniformly among all clients
    /// runnable at that time.
    pub fn pick(&mut self) -> u32 {
        let earliest = self
            .wake
            .iter()
            .copied()
            .min()
            .expect("invariant: scheduler has at least one client");
        self.clock.advance_to(earliest);
        let now = self.clock.now_us();
        let eligible: Vec<u32> = (0..self.wake.len() as u32)
            .filter(|&c| self.wake[c as usize] <= now)
            .collect();
        eligible[self.rng.gen_range(0..eligible.len())]
    }

    /// Charges `client` `us` microseconds of modelled operation (and
    /// think) time: it becomes runnable again at `now + us`.
    pub fn charge(&mut self, client: u32, us: u64) {
        self.wake[client as usize] = self.clock.now_us().saturating_add(us);
    }
}

// ---------------------------------------------------------------------
// History.
// ---------------------------------------------------------------------

/// A log-entry address in service-agnostic form: volume index, data
/// block, slot. Orders lexicographically, which is append order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr {
    /// Volume index within the sequence.
    pub vol: u32,
    /// Data block within the volume.
    pub block: u64,
    /// Entry slot within the block.
    pub slot: u16,
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}/b{}/s{}", self.vol, self.block, self.slot)
    }
}

/// One client-visible operation against the log API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Append `value` to `log` (values are unique per history, so they
    /// double as entry identities).
    Append {
        /// Target log file.
        log: u32,
        /// The unique payload identity.
        value: u64,
        /// Whether durability was demanded before the acknowledgement.
        forced: bool,
        /// Client sequence number for async unique identification.
        seqno: Option<u32>,
    },
    /// Read the entry at a previously acknowledged receipt address.
    ReadAt {
        /// The receipt address being read.
        addr: Addr,
    },
    /// Advance cursor `cursor` by one entry.
    CursorNext {
        /// The cursor being advanced.
        cursor: u32,
    },
    /// Resolve an asynchronously appended entry by `(log, seqno)`.
    FindUnique {
        /// The log searched.
        log: u32,
        /// The client sequence number looked up.
        seqno: u32,
    },
}

/// What an operation returned when it succeeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// An append acknowledgement.
    Receipt {
        /// Where the entry landed.
        addr: Addr,
        /// The service timestamp it was assigned.
        ts: u64,
    },
    /// A read's payload identity.
    Value(u64),
    /// A cursor step: the next entry's identity, or `None` at the end.
    Next(Option<u64>),
    /// A unique-id lookup result.
    Found(Option<u64>),
}

/// The per-log result of a full post-recovery (or final) scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogScan {
    /// The log scanned.
    pub log: u32,
    /// Every surviving entry identity, in cursor order.
    pub values: Vec<u64>,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A completed client operation (`Err` carries the error text; an
    /// errored append becomes *indeterminate* — it may or may not have
    /// reached the medium before the crash that failed it).
    Call {
        /// The operation.
        op: Op,
        /// Its result.
        result: Result<Outcome, String>,
    },
    /// A cursor was opened at the start of `log` (position 0).
    CursorOpen {
        /// The new cursor's id (unique per history).
        cursor: u32,
        /// The log (closure root) it iterates.
        log: u32,
    },
    /// The whole service crashed: volatile state is gone.
    Crash,
    /// The service recovered; `scans` hold everything that survived.
    Recovered {
        /// One full scan per known log.
        scans: Vec<LogScan>,
    },
    /// A clean-shutdown full scan (after a flush, no crash).
    FinalScan {
        /// One full scan per known log.
        scans: Vec<LogScan>,
    },
}

/// A timestamped, client-attributed event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time the operation completed.
    pub at_us: u64,
    /// The client that issued it (`u32::MAX` for whole-system events).
    pub client: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The client id used for whole-system events (crash, recovery, scans).
pub const SYSTEM: u32 = u32::MAX;

/// A recorded operation history.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct History {
    /// Events in execution (= linearization) order.
    pub events: Vec<Event>,
}

impl History {
    /// Appends an event.
    pub fn push(&mut self, at_us: u64, client: u32, kind: EventKind) {
        self.events.push(Event {
            at_us,
            client,
            kind,
        });
    }

    /// Renders the history as stable, line-oriented text. Two runs of the
    /// same seed must render byte-identically — the determinism tests
    /// compare these strings directly.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (i, e) in self.events.iter().enumerate() {
            let who = if e.client == SYSTEM {
                "sys".to_owned()
            } else {
                format!("c{}", e.client)
            };
            let _ = write!(out, "{i:5} @{:010} {who:>4} ", e.at_us);
            match &e.kind {
                EventKind::Call { op, result } => {
                    match op {
                        Op::Append {
                            log,
                            value,
                            forced,
                            seqno,
                        } => {
                            let _ = write!(
                                out,
                                "append log={log} value={value} forced={forced} seqno={seqno:?}"
                            );
                        }
                        Op::ReadAt { addr } => {
                            let _ = write!(out, "read {addr}");
                        }
                        Op::CursorNext { cursor } => {
                            let _ = write!(out, "cursor-next k{cursor}");
                        }
                        Op::FindUnique { log, seqno } => {
                            let _ = write!(out, "find-unique log={log} seqno={seqno}");
                        }
                    }
                    match result {
                        Ok(Outcome::Receipt { addr, ts }) => {
                            let _ = write!(out, " -> receipt {addr} ts={ts}");
                        }
                        Ok(Outcome::Value(v)) => {
                            let _ = write!(out, " -> value {v}");
                        }
                        Ok(Outcome::Next(n)) => {
                            let _ = write!(out, " -> next {n:?}");
                        }
                        Ok(Outcome::Found(v)) => {
                            let _ = write!(out, " -> found {v:?}");
                        }
                        Err(msg) => {
                            let _ = write!(out, " -> ERROR {msg}");
                        }
                    }
                }
                EventKind::CursorOpen { cursor, log } => {
                    let _ = write!(out, "cursor-open k{cursor} log={log}");
                }
                EventKind::Crash => {
                    let _ = write!(out, "CRASH");
                }
                EventKind::Recovered { scans } => {
                    let _ = write!(out, "RECOVERED {}", render_scans(scans));
                }
                EventKind::FinalScan { scans } => {
                    let _ = write!(out, "FINAL {}", render_scans(scans));
                }
            }
            out.push('\n');
        }
        out
    }
}

fn render_scans(scans: &[LogScan]) -> String {
    use fmt::Write as _;
    let mut s = String::new();
    for scan in scans {
        let _ = write!(s, "log={}:{:?} ", scan.log, scan.values);
    }
    s
}

// ---------------------------------------------------------------------
// Checker.
// ---------------------------------------------------------------------

/// A detected violation of the log model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending event in the history.
    pub index: usize,
    /// Which rule was broken.
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "history event {}: rule '{}' violated: {}",
            self.index, self.rule, self.detail
        )
    }
}

#[derive(Debug, Default)]
struct LogState {
    /// Entry identities currently readable, in append order. Grows on
    /// acknowledged appends; shrinks (suffix-only) at recovery.
    live: Vec<u64>,
    /// Number of leading `live` entries guaranteed durable (everything
    /// acknowledged at or before the last forced acknowledgement).
    durable: usize,
    /// Receipts of the entries past the durable floor: `receipts[i]` is
    /// where `live[durable + i]` was acknowledged.
    receipts: Vec<Addr>,
    /// Values of appends that *failed* (the crash made them
    /// indeterminate): each may or may not have reached the medium, in
    /// append order after `live`.
    indeterminate: Vec<u64>,
    /// Receipt of the most recent acknowledged append.
    last_receipt: Option<(Addr, u64)>,
}

#[derive(Debug)]
struct CursorState {
    log: u32,
    /// Index into the log's `live` list of the next entry to observe.
    pos: usize,
}

/// Checks a recorded [`History`] against the log model. Returns the
/// first violation, if any.
///
/// The checker is a straight fold over the events (the execution order
/// is the linearization order — see the module docs), so it is `O(n)` in
/// the history length and usable inside seed storms.
///
/// All logs are treated as one append domain: a forced acknowledgement
/// persists every entry staged before it in *every* log. For a service
/// partitioned into shards, use [`check_history_with_shards`].
#[must_use = "a checker verdict must be examined"]
pub fn check_history(h: &History) -> Result<(), Violation> {
    check_history_with_shards(h, &BTreeMap::new(), None)
}

/// [`check_history`] for a sharded service: `shard_of` maps each log id
/// to its append domain (absent logs default to shard 0).
///
/// Durability is per shard — a forced acknowledgement on one log raises
/// the durable floor only for logs of the *same* shard, since each
/// domain has its own open block and device write stream; entries
/// buffered in other shards stay volatile until their own shard forces.
/// Every other rule is per log and unaffected by sharding.
///
/// `queue_bound` turns on the **buffered-loss** rule for a service whose
/// sealed queue holds at most that many blocks per shard (its
/// `max_batch_blocks`). Without a bound a crash may lose every unforced
/// entry; with one it may lose only the open block and the queue, so an
/// entry more than `queue_bound + 1` blocks behind its shard's last
/// receipt must survive. (The extra block covers an entry whose tail
/// fragment spills into the next block.)
#[must_use = "a checker verdict must be examined"]
pub fn check_history_with_shards(
    h: &History,
    shard_of: &BTreeMap<u32, u32>,
    queue_bound: Option<u64>,
) -> Result<(), Violation> {
    Checker {
        shard_of: shard_of.clone(),
        queue_bound,
        ..Checker::default()
    }
    .run(h)
}

#[derive(Default)]
struct Checker {
    logs: BTreeMap<u32, LogState>,
    cursors: BTreeMap<u32, CursorState>,
    /// Acknowledged receipt address → value, across all logs.
    by_addr: BTreeMap<Addr, u64>,
    /// `(log, seqno)` → value for seqno-carrying acknowledged appends.
    by_seqno: BTreeMap<(u32, u32), u64>,
    /// Log id → append domain (absent = shard 0; empty = unsharded).
    shard_of: BTreeMap<u32, u32>,
    /// Sealed-queue bound for the buffered-loss rule (`None` = off).
    queue_bound: Option<u64>,
    /// Append domain → its most recent receipt since the last recovery.
    shard_last: BTreeMap<u32, Addr>,
}

impl Checker {
    fn run(mut self, h: &History) -> Result<(), Violation> {
        for (i, e) in h.events.iter().enumerate() {
            self.step(i, e)?;
        }
        Ok(())
    }

    fn shard(&self, log: u32) -> u32 {
        self.shard_of.get(&log).copied().unwrap_or(0)
    }

    fn fail(i: usize, rule: &'static str, detail: String) -> Result<(), Violation> {
        Err(Violation {
            index: i,
            rule,
            detail,
        })
    }

    fn step(&mut self, i: usize, e: &Event) -> Result<(), Violation> {
        match &e.kind {
            EventKind::Call { op, result } => self.call(i, op, result),
            EventKind::CursorOpen { cursor, log } => {
                self.cursors
                    .insert(*cursor, CursorState { log: *log, pos: 0 });
                Ok(())
            }
            EventKind::Crash => Ok(()),
            EventKind::Recovered { scans } => self.recovered(i, scans),
            EventKind::FinalScan { scans } => self.final_scan(i, scans),
        }
    }

    fn call(
        &mut self,
        i: usize,
        op: &Op,
        result: &Result<Outcome, String>,
    ) -> Result<(), Violation> {
        match (op, result) {
            (
                Op::Append {
                    log,
                    value,
                    forced,
                    seqno,
                },
                Ok(Outcome::Receipt { addr, ts }),
            ) => {
                let st = self.logs.entry(*log).or_default();
                if !st.indeterminate.is_empty() {
                    return Self::fail(
                        i,
                        "receipt-order",
                        format!(
                            "append acknowledged on log {log} while earlier appends \
                             {:?} are indeterminate (no recovery in between)",
                            st.indeterminate
                        ),
                    );
                }
                if let Some((last_addr, last_ts)) = st.last_receipt {
                    if *addr <= last_addr {
                        return Self::fail(
                            i,
                            "receipt-order",
                            format!("log {log}: receipt {addr} not after previous {last_addr}"),
                        );
                    }
                    if *ts < last_ts {
                        return Self::fail(
                            i,
                            "receipt-order",
                            format!("log {log}: timestamp {ts} < previous {last_ts}"),
                        );
                    }
                }
                if let Some(prev) = self.by_addr.insert(*addr, *value) {
                    return Self::fail(
                        i,
                        "receipt-order",
                        format!("receipt address {addr} reused (held value {prev})"),
                    );
                }
                st.last_receipt = Some((*addr, *ts));
                st.live.push(*value);
                st.receipts.push(*addr);
                if let Some(sq) = seqno {
                    self.by_seqno.insert((*log, *sq), *value);
                }
                let shard = self.shard(*log);
                self.shard_last.insert(shard, *addr);
                if *forced {
                    // A forced acknowledgement persists every entry staged
                    // before it in the same append domain: raise the
                    // durable floors of same-shard logs (with no shard map
                    // every log is in domain 0, so all floors rise).
                    let shard_of = &self.shard_of;
                    for (l, s) in &mut self.logs {
                        if shard_of.get(l).copied().unwrap_or(0) == shard {
                            s.durable = s.live.len();
                            s.receipts.clear();
                        }
                    }
                }
                Ok(())
            }
            (Op::Append { log, value, .. }, Err(_)) => {
                // The append failed — with crash injection this means the
                // entry may or may not have reached the medium. It becomes
                // indeterminate until the next recovery scan resolves it.
                self.logs
                    .entry(*log)
                    .or_default()
                    .indeterminate
                    .push(*value);
                Ok(())
            }
            (Op::Append { log, .. }, Ok(other)) => Self::fail(
                i,
                "receipt-order",
                format!("append to log {log} returned non-receipt outcome {other:?}"),
            ),
            (Op::ReadAt { addr }, Ok(Outcome::Value(v))) => match self.by_addr.get(addr) {
                Some(expect) if expect == v => Ok(()),
                Some(expect) => Self::fail(
                    i,
                    "read-your-writes",
                    format!("read {addr} returned {v}, appended value was {expect}"),
                ),
                None => Self::fail(
                    i,
                    "read-your-writes",
                    format!("read {addr} returned {v} but no append was acknowledged there"),
                ),
            },
            (Op::ReadAt { .. }, _) => Ok(()), // errors (e.g. post-crash loss) are legal
            (Op::CursorNext { cursor }, Ok(Outcome::Next(observed))) => {
                let Some(cur) = self.cursors.get_mut(cursor) else {
                    return Self::fail(
                        i,
                        "cursor-sequence",
                        format!("cursor k{cursor} stepped before being opened"),
                    );
                };
                let live = self
                    .logs
                    .get(&cur.log)
                    .map(|s| s.live.as_slice())
                    .unwrap_or(&[]);
                match observed {
                    Some(v) => match live.get(cur.pos) {
                        Some(expect) if expect == v => {
                            cur.pos += 1;
                            Ok(())
                        }
                        Some(expect) => Self::fail(
                            i,
                            "cursor-sequence",
                            format!(
                                "cursor k{cursor} on log {} observed {v} at position {}, \
                                 expected {expect} (gap, duplicate, or reorder)",
                                cur.log, cur.pos
                            ),
                        ),
                        None => Self::fail(
                            i,
                            "cursor-sequence",
                            format!(
                                "cursor k{cursor} on log {} observed {v} past the end \
                                 (position {}, live length {})",
                                cur.log,
                                cur.pos,
                                live.len()
                            ),
                        ),
                    },
                    None => {
                        if cur.pos == live.len() {
                            Ok(())
                        } else {
                            Self::fail(
                                i,
                                "cursor-sequence",
                                format!(
                                    "cursor k{cursor} on log {} reported end at position {} \
                                     but {} live entries exist",
                                    cur.log,
                                    cur.pos,
                                    live.len()
                                ),
                            )
                        }
                    }
                }
            }
            (Op::CursorNext { .. }, _) => Ok(()),
            (Op::FindUnique { log, seqno }, Ok(Outcome::Found(found))) => {
                let Some(value) = self.by_seqno.get(&(*log, *seqno)) else {
                    return Self::fail(
                        i,
                        "unique-id",
                        format!("lookup of unknown (log {log}, seqno {seqno})"),
                    );
                };
                let is_live = self.logs.get(log).is_some_and(|s| s.live.contains(value));
                match (is_live, found) {
                    (true, Some(v)) if v == value => Ok(()),
                    (true, got) => Self::fail(
                        i,
                        "unique-id",
                        format!(
                            "lookup (log {log}, seqno {seqno}) returned {got:?}, \
                             expected Some({value})"
                        ),
                    ),
                    (false, None) => Ok(()),
                    (false, Some(v)) => Self::fail(
                        i,
                        "unique-id",
                        format!(
                            "lookup (log {log}, seqno {seqno}) resurrected {v} \
                             after it was lost in a crash"
                        ),
                    ),
                }
            }
            (Op::FindUnique { .. }, _) => Ok(()),
        }
    }

    fn recovered(&mut self, i: usize, scans: &[LogScan]) -> Result<(), Violation> {
        for scan in scans {
            let last = self.shard_last.get(&self.shard(scan.log)).copied();
            let queue_bound = self.queue_bound;
            let st = self.logs.entry(scan.log).or_default();
            // What may legally exist on the medium: the acknowledged live
            // sequence, optionally extended by appends the crash left
            // indeterminate (they were staged last, in order).
            let mut may_exist = st.live.clone();
            may_exist.extend_from_slice(&st.indeterminate);
            if scan.values.len() > may_exist.len() || scan.values != may_exist[..scan.values.len()]
            {
                return Self::fail(
                    i,
                    "recovery-prefix",
                    format!(
                        "log {}: survivors {:?} are not a prefix of the appended \
                         sequence {:?}",
                        scan.log, scan.values, may_exist
                    ),
                );
            }
            if scan.values.len() < st.durable {
                return Self::fail(
                    i,
                    "durable-loss",
                    format!(
                        "log {}: only {} entries survived but {} were covered by a \
                         forced acknowledgement (lost: {:?})",
                        scan.log,
                        scan.values.len(),
                        st.durable,
                        &st.live[scan.values.len()..st.durable]
                    ),
                );
            }
            if let (Some(bound), Some(last)) = (queue_bound, last) {
                // Receipts ascend within a log, so the entries far enough
                // behind the shard's last receipt form a prefix.
                let far = st
                    .receipts
                    .iter()
                    .take_while(|a| a.vol < last.vol || a.block + bound + 1 < last.block)
                    .count();
                let must = st.durable + far;
                if scan.values.len() < must {
                    return Self::fail(
                        i,
                        "buffered-loss",
                        format!(
                            "log {}: only {} entries survived but {} lay more than {} \
                             blocks behind the shard's last receipt {last} (lost: {:?})",
                            scan.log,
                            scan.values.len(),
                            must,
                            bound + 1,
                            &st.live[scan.values.len()..must]
                        ),
                    );
                }
            }
            st.live = scan.values.clone();
            st.durable = st.live.len();
            st.receipts.clear();
            st.indeterminate.clear();
            // The open block (and its receipts) died with the server; the
            // next acknowledged append re-establishes the order baseline.
            st.last_receipt = None;
        }
        let scanned: Vec<u32> = scans.iter().map(|s| s.log).collect();
        for (log, st) in &self.logs {
            let has_entries = !st.live.is_empty() || !st.indeterminate.is_empty();
            if !scanned.contains(log) && has_entries {
                return Self::fail(
                    i,
                    "recovery-prefix",
                    format!("log {log} has entries but was not scanned at recovery"),
                );
            }
        }
        // Clamp every cursor to the (possibly shorter) recovered log.
        for cur in self.cursors.values_mut() {
            let len = self.logs.get(&cur.log).map_or(0, |s| s.live.len());
            cur.pos = cur.pos.min(len);
        }
        // Receipts of lost entries die with them: their (unwritten) device
        // addresses are legitimately reused by post-recovery appends.
        let surviving: std::collections::BTreeSet<u64> = self
            .logs
            .values()
            .flat_map(|s| s.live.iter().copied())
            .collect();
        self.by_addr.retain(|_, v| surviving.contains(v));
        self.shard_last.clear();
        Ok(())
    }

    fn final_scan(&mut self, i: usize, scans: &[LogScan]) -> Result<(), Violation> {
        for scan in scans {
            let st = self.logs.entry(scan.log).or_default();
            if scan.values != st.live {
                return Self::fail(
                    i,
                    "final-scan",
                    format!(
                        "log {}: final scan {:?} != acknowledged live sequence {:?}",
                        scan.log, scan.values, st.live
                    ),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(vol: u32, block: u64, slot: u16) -> Addr {
        Addr { vol, block, slot }
    }

    fn append_ok(h: &mut History, c: u32, log: u32, value: u64, forced: bool, addr: Addr) {
        h.push(
            value,
            c,
            EventKind::Call {
                op: Op::Append {
                    log,
                    value,
                    forced,
                    seqno: None,
                },
                result: Ok(Outcome::Receipt { addr, ts: value }),
            },
        );
    }

    // -- scheduler ----------------------------------------------------

    #[test]
    fn scheduler_is_deterministic_per_seed() {
        let run = |seed| {
            let clock = Arc::new(SimClock::starting_at(0));
            let mut s = Scheduler::new(seed, 4, clock);
            let mut picks = Vec::new();
            for step in 0..200u64 {
                let c = s.pick();
                picks.push(c);
                s.charge(c, 10 + step % 7);
            }
            picks
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn scheduler_advances_time_and_runs_everyone() {
        let clock = Arc::new(SimClock::starting_at(100));
        let mut s = Scheduler::new(9, 3, clock);
        let mut seen = [false; 3];
        let mut last = 0;
        for _ in 0..60 {
            let c = s.pick();
            seen[c as usize] = true;
            assert!(s.now_us() >= last, "virtual time went backwards");
            last = s.now_us();
            s.charge(c, 50);
        }
        assert!(seen.iter().all(|&x| x), "some client never ran: {seen:?}");
        assert!(s.now_us() > 100, "clock never advanced");
    }

    #[test]
    fn sim_clock_ticks_are_unique_and_monotone() {
        let c = SimClock::starting_at(5);
        let t1 = c.tick();
        let t2 = c.tick();
        assert!(t1 > 5 && t2 > t1);
        c.advance_to(1000);
        assert!(c.tick() > 1000);
        c.advance_to(10); // never backwards
        assert!(c.now_us() > 1000);
    }

    // -- checker: valid histories pass --------------------------------

    #[test]
    fn valid_history_passes() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, false, a(0, 0, 0));
        append_ok(&mut h, 1, 1, 11, true, a(0, 0, 1));
        h.push(
            3,
            0,
            EventKind::Call {
                op: Op::ReadAt { addr: a(0, 0, 0) },
                result: Ok(Outcome::Value(10)),
            },
        );
        h.push(4, 0, EventKind::CursorOpen { cursor: 0, log: 1 });
        for (t, v) in [(5, Some(10)), (6, Some(11)), (7, None)] {
            h.push(
                t,
                0,
                EventKind::Call {
                    op: Op::CursorNext { cursor: 0 },
                    result: Ok(Outcome::Next(v)),
                },
            );
        }
        h.push(8, SYSTEM, EventKind::Crash);
        h.push(
            9,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![10, 11],
                }],
            },
        );
        h.push(
            10,
            SYSTEM,
            EventKind::FinalScan {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![10, 11],
                }],
            },
        );
        assert_eq!(check_history(&h), Ok(()));
    }

    #[test]
    fn buffered_suffix_may_vanish_in_crash() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, true, a(0, 0, 0));
        append_ok(&mut h, 0, 1, 11, false, a(0, 1, 0));
        h.push(2, SYSTEM, EventKind::Crash);
        h.push(
            3,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![10],
                }],
            },
        );
        assert_eq!(check_history(&h), Ok(()));
    }

    #[test]
    fn buffered_loss_is_bounded_by_the_queue() {
        // Bound 2: the last receipt is in block 6, so entries in blocks
        // below 3 must survive; blocks 3..=6 may vanish.
        let history = |survivors: Vec<u64>, last_vol: u32| {
            let mut h = History::default();
            for (k, block) in [0u64, 2, 3, 5].into_iter().enumerate() {
                append_ok(&mut h, 0, 1, 10 + k as u64, false, a(0, block, 0));
            }
            append_ok(&mut h, 0, 2, 20, false, a(last_vol, 6, 0));
            h.push(5, SYSTEM, EventKind::Crash);
            h.push(
                6,
                SYSTEM,
                EventKind::Recovered {
                    scans: vec![
                        LogScan {
                            log: 1,
                            values: survivors,
                        },
                        LogScan {
                            log: 2,
                            values: vec![],
                        },
                    ],
                },
            );
            h
        };
        let bounded = |h: &History| check_history_with_shards(h, &BTreeMap::new(), Some(2));
        assert_eq!(bounded(&history(vec![10, 11], 0)), Ok(()));
        assert_eq!(check_history(&history(vec![10], 0)), Ok(()));
        let v = bounded(&history(vec![10], 0)).expect_err("block 2 lies 4 behind block 6");
        assert_eq!((v.rule, v.index), ("buffered-loss", 6));
        // Entries on an earlier volume than the last receipt must survive.
        let v = bounded(&history(vec![10, 11, 12], 1)).expect_err("volume 0 was drained");
        assert_eq!(v.rule, "buffered-loss");
        assert_eq!(bounded(&history(vec![10, 11, 12, 13], 1)), Ok(()));
    }

    #[test]
    fn indeterminate_append_may_or_may_not_survive() {
        for survives in [false, true] {
            let mut h = History::default();
            append_ok(&mut h, 0, 1, 10, true, a(0, 0, 0));
            h.push(
                1,
                0,
                EventKind::Call {
                    op: Op::Append {
                        log: 1,
                        value: 11,
                        forced: true,
                        seqno: None,
                    },
                    result: Err("simulated crash".to_owned()),
                },
            );
            h.push(2, SYSTEM, EventKind::Crash);
            let mut values = vec![10];
            if survives {
                values.push(11);
            }
            h.push(
                3,
                SYSTEM,
                EventKind::Recovered {
                    scans: vec![LogScan { log: 1, values }],
                },
            );
            assert_eq!(check_history(&h), Ok(()), "survives={survives}");
        }
    }

    // -- checker: each rule catches its violation ---------------------

    #[test]
    fn receipt_regression_is_caught() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, false, a(0, 3, 0));
        append_ok(&mut h, 0, 1, 11, false, a(0, 2, 0)); // address went backwards
        let v = check_history(&h).expect_err("must fail");
        assert_eq!(v.rule, "receipt-order");
        assert_eq!(v.index, 1);
    }

    #[test]
    fn stale_read_is_caught() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, false, a(0, 0, 0));
        h.push(
            1,
            0,
            EventKind::Call {
                op: Op::ReadAt { addr: a(0, 0, 0) },
                result: Ok(Outcome::Value(99)),
            },
        );
        let v = check_history(&h).expect_err("must fail");
        assert_eq!(v.rule, "read-your-writes");
    }

    #[test]
    fn cursor_gap_duplicate_and_premature_end_are_caught() {
        let base = |h: &mut History| {
            append_ok(h, 0, 1, 10, false, a(0, 0, 0));
            append_ok(h, 0, 1, 11, false, a(0, 0, 1));
            h.push(2, 0, EventKind::CursorOpen { cursor: 0, log: 1 });
        };
        // Gap: first observation skips value 10.
        let mut h = History::default();
        base(&mut h);
        h.push(
            3,
            0,
            EventKind::Call {
                op: Op::CursorNext { cursor: 0 },
                result: Ok(Outcome::Next(Some(11))),
            },
        );
        assert_eq!(check_history(&h).expect_err("gap").rule, "cursor-sequence");
        // Duplicate: value 10 observed twice.
        let mut h = History::default();
        base(&mut h);
        for t in [3, 4] {
            h.push(
                t,
                0,
                EventKind::Call {
                    op: Op::CursorNext { cursor: 0 },
                    result: Ok(Outcome::Next(Some(10))),
                },
            );
        }
        assert_eq!(check_history(&h).expect_err("dup").rule, "cursor-sequence");
        // Premature end: None while entries remain.
        let mut h = History::default();
        base(&mut h);
        h.push(
            3,
            0,
            EventKind::Call {
                op: Op::CursorNext { cursor: 0 },
                result: Ok(Outcome::Next(None)),
            },
        );
        assert_eq!(check_history(&h).expect_err("end").rule, "cursor-sequence");
    }

    #[test]
    fn lost_forced_append_is_caught() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, true, a(0, 0, 0));
        h.push(1, SYSTEM, EventKind::Crash);
        h.push(
            2,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![],
                }],
            },
        );
        let v = check_history(&h).expect_err("must fail");
        assert_eq!(v.rule, "durable-loss");
    }

    #[test]
    fn forced_append_covers_earlier_buffered_entries_of_other_logs() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, false, a(0, 0, 0)); // buffered, log 1
        append_ok(&mut h, 0, 2, 20, true, a(0, 0, 1)); // forced, log 2
        h.push(2, SYSTEM, EventKind::Crash);
        h.push(
            3,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![
                    LogScan {
                        log: 1,
                        values: vec![], // buffered entry staged before the force vanished
                    },
                    LogScan {
                        log: 2,
                        values: vec![20],
                    },
                ],
            },
        );
        let v = check_history(&h).expect_err("must fail");
        assert_eq!(v.rule, "durable-loss");
    }

    #[test]
    fn forced_append_covers_only_same_shard_logs() {
        // Buffered append on log 1, then a forced append on log 2, then a
        // crash that loses the buffered entry.
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, false, a(0, 0, 0));
        append_ok(&mut h, 0, 2, 20, true, a(1, 0, 0));
        h.push(2, SYSTEM, EventKind::Crash);
        h.push(
            3,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![
                    LogScan {
                        log: 1,
                        values: vec![],
                    },
                    LogScan {
                        log: 2,
                        values: vec![20],
                    },
                ],
            },
        );
        // Different shards: log 2's force does not cover log 1's buffered
        // entry, so the loss is legal.
        let split = BTreeMap::from([(1, 0), (2, 1)]);
        assert_eq!(check_history_with_shards(&h, &split, None), Ok(()));
        // Same shard: the force covers it and the loss is a violation
        // (matching the unsharded checker on this history).
        let joined = BTreeMap::from([(1, 1), (2, 1)]);
        let v = check_history_with_shards(&h, &joined, None).expect_err("must fail");
        assert_eq!(v.rule, "durable-loss");
        assert_eq!(
            check_history(&h).expect_err("must fail").rule,
            "durable-loss"
        );
    }

    #[test]
    fn phantom_or_reordered_survivors_are_caught() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, false, a(0, 0, 0));
        append_ok(&mut h, 0, 1, 11, false, a(0, 0, 1));
        h.push(2, SYSTEM, EventKind::Crash);
        h.push(
            3,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![11, 10], // reordered
                }],
            },
        );
        assert_eq!(
            check_history(&h).expect_err("reorder").rule,
            "recovery-prefix"
        );
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, false, a(0, 0, 0));
        h.push(1, SYSTEM, EventKind::Crash);
        h.push(
            2,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![10, 666], // phantom
                }],
            },
        );
        assert_eq!(
            check_history(&h).expect_err("phantom").rule,
            "recovery-prefix"
        );
    }

    #[test]
    fn unique_id_resurrection_is_caught() {
        let mut h = History::default();
        h.push(
            0,
            0,
            EventKind::Call {
                op: Op::Append {
                    log: 1,
                    value: 10,
                    forced: false,
                    seqno: Some(7),
                },
                result: Ok(Outcome::Receipt {
                    addr: a(0, 0, 0),
                    ts: 1,
                }),
            },
        );
        h.push(1, SYSTEM, EventKind::Crash);
        h.push(
            2,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![],
                }],
            },
        );
        h.push(
            3,
            0,
            EventKind::Call {
                op: Op::FindUnique { log: 1, seqno: 7 },
                result: Ok(Outcome::Found(Some(10))),
            },
        );
        let v = check_history(&h).expect_err("must fail");
        assert_eq!(v.rule, "unique-id");
    }

    #[test]
    fn final_scan_mismatch_is_caught() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, true, a(0, 0, 0));
        h.push(
            1,
            SYSTEM,
            EventKind::FinalScan {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![],
                }],
            },
        );
        let v = check_history(&h).expect_err("must fail");
        assert_eq!(v.rule, "final-scan");
    }

    #[test]
    fn cursor_survives_recovery_clamped() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, true, a(0, 0, 0));
        append_ok(&mut h, 0, 1, 11, false, a(0, 1, 0));
        h.push(2, 0, EventKind::CursorOpen { cursor: 0, log: 1 });
        for (t, v) in [(3, Some(10)), (4, Some(11))] {
            h.push(
                t,
                0,
                EventKind::Call {
                    op: Op::CursorNext { cursor: 0 },
                    result: Ok(Outcome::Next(v)),
                },
            );
        }
        h.push(5, SYSTEM, EventKind::Crash);
        // Entry 11 is lost; the cursor's position clamps back to 1.
        h.push(
            6,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![10],
                }],
            },
        );
        append_ok(&mut h, 0, 1, 12, false, a(0, 2, 0));
        h.push(
            8,
            0,
            EventKind::Call {
                op: Op::CursorNext { cursor: 0 },
                result: Ok(Outcome::Next(Some(12))),
            },
        );
        assert_eq!(check_history(&h), Ok(()));
    }

    #[test]
    fn lost_addresses_may_be_reused_after_recovery() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, true, a(0, 0, 0));
        append_ok(&mut h, 0, 1, 11, false, a(0, 1, 0)); // buffered, will be lost
        h.push(2, SYSTEM, EventKind::Crash);
        h.push(
            3,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![10],
                }],
            },
        );
        // The new append lands at the very address the lost entry had been
        // promised — legal, its block never reached the medium.
        append_ok(&mut h, 0, 1, 12, false, a(0, 1, 0));
        h.push(
            5,
            0,
            EventKind::Call {
                op: Op::ReadAt { addr: a(0, 1, 0) },
                result: Ok(Outcome::Value(12)),
            },
        );
        assert_eq!(check_history(&h), Ok(()));
    }

    #[test]
    fn render_is_stable_and_covers_event_kinds() {
        let mut h = History::default();
        append_ok(&mut h, 0, 1, 10, false, a(0, 0, 0));
        h.push(1, SYSTEM, EventKind::Crash);
        h.push(
            2,
            SYSTEM,
            EventKind::Recovered {
                scans: vec![LogScan {
                    log: 1,
                    values: vec![10],
                }],
            },
        );
        let r1 = h.render();
        let r2 = h.clone().render();
        assert_eq!(r1, r2);
        assert!(r1.contains("append log=1 value=10"), "{r1}");
        assert!(r1.contains("CRASH"), "{r1}");
        assert!(r1.contains("RECOVERED"), "{r1}");
    }
}
