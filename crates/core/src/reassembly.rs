//! Adversary-tolerant TCP reassembly in front of the scan core.
//!
//! Every streaming path so far ([`ScanState`], the
//! [`FlowTable`](crate::FlowTable)) assumes segments arrive **in order**:
//! the defining streaming property — any packetization scans identically
//! to the whole payload — only holds for the byte stream the scanner
//! actually sees. Real TCP traffic reorders, retransmits, overlaps and
//! drops segments, and all four are classic IDS evasion levers: an
//! attacker who can make the monitor see a different byte stream than
//! the endpoint slips patterns through, and one who can make the monitor
//! buffer without bound takes it down. This module is the layer that
//! closes both holes, under three hard rules:
//!
//! - **strict per-flow budget** — a [`FlowReassembler`] never holds more
//!   than [`ReassemblyConfig::budget`] out-of-order bytes. Budget
//!   pressure degrades to *hole-skip* (below), never to allocation.
//!   There is no hidden queue of segment descriptors either: buffered
//!   bytes live in one contiguous window and covered intervals are a
//!   short sorted list bounded by the budget.
//! - **explicit overlap policy** — when a segment's bytes overlap data
//!   already buffered, [`OverlapPolicy`] decides which bytes survive
//!   ([`OverlapPolicy::FirstWins`] by default, matching most modern
//!   stacks' behaviour for data already accepted). Overlapping bytes
//!   whose *content disagrees* are counted
//!   ([`ReassemblyStats::overlap_conflicts`]) — a conflicting overlap is
//!   precisely the signature of an evasion attempt, so it must be
//!   observable even though the policy resolves it silently.
//! - **boundary-local loss on hole-skip** — when a hole (missing
//!   segment) can no longer be waited out, the reassembler abandons it:
//!   it advances past the gap and resets the scanner at the resume point
//!   via [`FlowState::reset_at`]. Masked history means only matches
//!   **overlapping the skipped bytes** can be lost; every occurrence
//!   fully before or fully after the hole still reports, at its exact
//!   stream-absolute offset. This is the same guarantee (and the same
//!   mechanism) the flow table already pins for eviction, extended to
//!   packet loss.
//!
//! Sequence space here is the **relative byte offset from flow start**
//! (`u64`) — the caller maps TCP sequence numbers to it (subtract the
//! ISN and un-wrap); tests and generators use relative offsets directly.
//!
//! ## Delivery model
//!
//! [`FlowReassembler::ingest`] takes one segment and a scan closure. It
//! delivers bytes to the closure **in order, exactly once**: in-order
//! segments pass straight through without copying (the fast path — an
//! in-order flow never touches the buffer), out-of-order segments are
//! buffered in the window until the hole before them fills or is
//! skipped. Stale bytes (at or below the delivery point) are clipped as
//! retransmit/duplicate traffic. The scanner's `offset` therefore always
//! equals the flow's delivery point, which is what keeps match `end`
//! offsets sequence-absolute across reordering and skips.
//!
//! [`StreamFlow`] packages a reassembler with a scanner state so a
//! [`FlowTable`](crate::FlowTable) can hold both per flow — see
//! [`FlowTable::ingest_segments`](crate::FlowTable::ingest_segments) for
//! the table-level ingest path and the new
//! [`FlowTableStats`](crate::FlowTableStats) reassembly counters.
//!
//! [`ScanState`]: dpi_automaton::ScanState

use crate::flow::FlowState;
use dpi_automaton::Match;

/// What to do when a segment's bytes overlap bytes already buffered for
/// the same sequence range.
///
/// The enum is `#[non_exhaustive]` by design: real stacks differ
/// (first-wins, last-wins, target-OS profiles à la Snort's
/// `stream5` policy knob), and a deployment must be able to grow
/// variants without breaking downstream matches. Only the overlapping
/// *range* is policy-resolved; bytes outside the overlap are always
/// kept.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// Bytes that arrived first win; later overlapping bytes are
    /// discarded. Matches the common endpoint behaviour of accepting
    /// the first copy of a sequence range and makes retransmissions
    /// (identical content) naturally idempotent.
    #[default]
    FirstWins,
    /// Bytes that arrived last win; later overlapping bytes overwrite
    /// what was buffered for the same range. Some target stacks resolve
    /// overlaps this way (the behaviour Suricata's `policy` keyword
    /// models per target OS), and an inspector that guards such hosts
    /// must reassemble the stream the way *they* will read it — else an
    /// attacker splits a signature across a conflicting overlap and the
    /// endpoint sees bytes the inspector discarded.
    LastWins,
}

/// A [`ReassemblyConfig`] parameter that can never produce a working
/// reassembler. Returned by [`ReassemblyConfig::try_new`] so resident
/// services can reject malformed configs without panicking a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassemblyConfigError {
    /// The out-of-order budget was zero: no gap could ever be waited
    /// out, so every reordered segment would silently hole-skip.
    ZeroBudget,
}

impl std::fmt::Display for ReassemblyConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReassemblyConfigError::ZeroBudget => write!(f, "reassembly budget must be non-zero"),
        }
    }
}

impl std::error::Error for ReassemblyConfigError {}

/// Configuration of one flow's reassembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReassemblyConfig {
    /// Per-flow out-of-order window in bytes: the reassembler buffers
    /// only bytes within `budget` of the current delivery point and
    /// never holds more than `budget` bytes. Must be non-zero.
    pub budget: usize,
    /// Overlap resolution policy (see [`OverlapPolicy`]).
    pub policy: OverlapPolicy,
}

impl ReassemblyConfig {
    /// Default per-flow budget: 64 KiB — a full unscaled TCP receive
    /// window, and small enough that a million hostile flows cost at
    /// most 64 GB *if every one of them maxes its window*, which
    /// [`ReassemblyStats::bytes_held_peak`] makes observable long
    /// before.
    pub const DEFAULT_BUDGET: usize = 64 * 1024;

    /// A config with the given byte budget and the default
    /// ([`OverlapPolicy::FirstWins`]) overlap policy.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero — a zero-budget reassembler could
    /// never buffer an out-of-order byte and every gap would silently
    /// degrade to hole-skip; that is a configuration error, not a
    /// traffic condition.
    pub fn new(budget: usize) -> ReassemblyConfig {
        match Self::try_new(budget) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ReassemblyConfig::new`]: a zero budget becomes a
    /// [`ReassemblyConfigError`] instead of a panic.
    pub fn try_new(budget: usize) -> Result<ReassemblyConfig, ReassemblyConfigError> {
        if budget == 0 {
            return Err(ReassemblyConfigError::ZeroBudget);
        }
        Ok(ReassemblyConfig {
            budget,
            policy: OverlapPolicy::default(),
        })
    }

    /// The same config with a different overlap policy — the knob a
    /// deployment turns per target-OS profile.
    ///
    /// ```
    /// use dpi_core::{OverlapPolicy, ReassemblyConfig};
    /// let cfg = ReassemblyConfig::new(4096).with_policy(OverlapPolicy::LastWins);
    /// assert_eq!(cfg.policy, OverlapPolicy::LastWins);
    /// ```
    pub fn with_policy(mut self, policy: OverlapPolicy) -> ReassemblyConfig {
        self.policy = policy;
        self
    }
}

impl Default for ReassemblyConfig {
    fn default() -> Self {
        ReassemblyConfig::new(Self::DEFAULT_BUDGET)
    }
}

/// Running reassembly counters (monotonic except the
/// [`bytes_held`](ReassemblyStats::bytes_held) gauge).
///
/// Kept per [`FlowReassembler::ingest`] call site — the
/// [`FlowTable`](crate::FlowTable) ingest path aggregates them into
/// [`FlowTableStats::reassembly`](crate::FlowTableStats::reassembly) so
/// eviction pressure and reassembly pressure are observable in one
/// place.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Segments ingested (before any clipping or suppression).
    pub segments: u64,
    /// Segments that contributed at least one byte to the out-of-order
    /// buffer (the in-order fast path never counts here).
    pub segments_buffered: u64,
    /// Bytes copied into the out-of-order buffer, cumulative.
    pub bytes_buffered: u64,
    /// Bytes currently held in out-of-order buffers (gauge; table-level
    /// aggregation subtracts a flow's held bytes when it is evicted).
    pub bytes_held: u64,
    /// Out-of-order bytes dropped with flows the table evicted, removed
    /// or idle-retired while they still held them (monotonic; only
    /// table-level aggregation counts here).
    pub evicted_bytes: u64,
    /// High-water mark of [`bytes_held`](ReassemblyStats::bytes_held).
    pub bytes_held_peak: u64,
    /// Bytes clipped as retransmitted / duplicate (at or below the
    /// delivery point).
    pub dup_bytes: u64,
    /// Bytes that overlapped already-buffered data (policy-resolved).
    pub overlap_bytes: u64,
    /// Overlap events where the overlapping **content disagreed** — the
    /// evasion signature. The configured [`OverlapPolicy`] decided which
    /// bytes survived.
    pub overlap_conflicts: u64,
    /// Holes abandoned (sequence gaps skipped instead of filled).
    pub holes_skipped: u64,
    /// Bytes of stream lost to skipped holes.
    pub hole_bytes: u64,
    /// Hole-skips forced by budget pressure specifically (a segment
    /// could not fit the out-of-order window until older gaps were
    /// abandoned). Always ≤ [`holes_skipped`](ReassemblyStats::holes_skipped).
    pub budget_drops: u64,
}

impl ReassemblyStats {
    fn held_delta(&mut self, before: usize, after: usize) {
        self.bytes_held = self.bytes_held + after as u64 - before as u64;
        self.bytes_held_peak = self.bytes_held_peak.max(self.bytes_held);
    }
}

/// One flow's sequence-space tracker and bounded out-of-order buffer.
///
/// The representation is a **contiguous window** anchored at the
/// delivery point `next_seq`: byte `next_seq + i` of the stream lives at
/// `buf[i]`, valid only where some covered interval in `ranges` says so.
/// `ranges` is sorted, disjoint and non-adjacent; between public calls
/// the first covered interval never starts at 0 (data at the delivery
/// point is delivered, not buffered). The window is at most
/// [`ReassemblyConfig::budget`] bytes, which bounds both `buf` and — via
/// at least one uncovered byte between intervals — `ranges`.
///
/// See the [module docs](self) for the delivery model; most callers want
/// [`StreamFlow`] or the
/// [`FlowTable::ingest_segments`](crate::FlowTable::ingest_segments)
/// path instead of driving a raw reassembler.
///
/// # Examples
///
/// ```
/// use dpi_automaton::ScanState;
/// use dpi_core::reassembly::{FlowReassembler, ReassemblyConfig, ReassemblyStats};
///
/// let mut r = FlowReassembler::new(ReassemblyConfig::new(1024));
/// let mut state = ScanState::fresh();
/// let mut delivered = Vec::new();
/// let mut stats = ReassemblyStats::default();
/// // Segment [3..6) arrives before [0..3): buffered, then both deliver
/// // in order once the gap fills.
/// let mut scan = |_s: &mut ScanState, chunk: &[u8], _out: &mut Vec<_>| {
///     delivered.extend_from_slice(chunk)
/// };
/// let mut out = Vec::new();
/// r.ingest(3, b"def", &mut state, &mut scan, &mut out, &mut stats);
/// assert_eq!(r.buffered_bytes(), 3); // nothing delivered yet
/// r.ingest(0, b"abc", &mut state, &mut scan, &mut out, &mut stats);
/// drop(scan);
/// assert_eq!(delivered, b"abcdef");
/// assert_eq!(r.buffered_bytes(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FlowReassembler {
    /// Next sequence offset to deliver (everything below is delivered,
    /// skipped, or lost).
    next_seq: u64,
    /// Window bytes: `buf[i]` holds stream byte `next_seq + i` where
    /// covered.
    buf: Vec<u8>,
    /// Covered intervals `(start, end)` relative to `next_seq`; sorted,
    /// disjoint, non-adjacent.
    ranges: Vec<(usize, usize)>,
    /// Cached sum of interval lengths (the held-bytes gauge).
    held: usize,
    config: ReassemblyConfig,
}

impl FlowReassembler {
    /// A reassembler at sequence offset 0 with nothing buffered.
    pub fn new(config: ReassemblyConfig) -> FlowReassembler {
        FlowReassembler {
            next_seq: 0,
            buf: Vec::new(),
            ranges: Vec::new(),
            held: 0,
            config,
        }
    }

    /// The configuration this reassembler was built with.
    pub fn config(&self) -> ReassemblyConfig {
        self.config
    }

    /// The delivery point: every byte below this sequence offset has
    /// been delivered to the scanner or abandoned by a hole-skip.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Out-of-order bytes currently buffered — by construction always
    /// ≤ [`ReassemblyConfig::budget`], whatever the traffic does.
    pub fn buffered_bytes(&self) -> usize {
        self.held
    }

    /// `true` when a sequence gap is outstanding (buffered data waits
    /// behind a hole).
    pub fn has_hole(&self) -> bool {
        !self.ranges.is_empty()
    }

    /// Returns the reassembler to a fresh flow at offset 0, keeping its
    /// allocations (flow-table slot recycling).
    pub fn reset(&mut self) {
        self.next_seq = 0;
        self.buf.clear();
        self.ranges.clear();
        self.held = 0;
    }

    /// [`FlowReassembler::reset`], but positioned at sequence offset
    /// `seq` (resuming mid-stream, e.g. picking up a flow whose earlier
    /// bytes were never seen).
    pub fn reset_to(&mut self, seq: u64) {
        self.reset();
        self.next_seq = seq;
    }

    /// Ingests one segment: `payload` carries stream bytes
    /// `[seq, seq + payload.len())`. Delivers whatever becomes
    /// deliverable — in order, exactly once — to `scan` (which receives
    /// the scanner `state`, a chunk, and `out` to append matches to),
    /// buffering the rest within the budget window. See the
    /// [module docs](self) for the exact clipping / overlap / hole-skip
    /// behaviour; `stats` counters record each of those events.
    pub fn ingest<S, F>(
        &mut self,
        seq: u64,
        payload: &[u8],
        state: &mut S,
        scan: &mut F,
        out: &mut Vec<Match>,
        stats: &mut ReassemblyStats,
    ) where
        S: FlowState,
        F: FnMut(&mut S, &[u8], &mut Vec<Match>),
    {
        stats.segments += 1;
        let mut seq = seq;
        let mut data = payload;
        loop {
            // A covered interval at the delivery point (only ever
            // produced mid-loop by an advance below) drains first, so
            // the invariants hold at every other step.
            self.drain(state, scan, out, stats);
            if data.is_empty() {
                return;
            }
            if seq < self.next_seq {
                // Retransmit / duplicate / already-skipped bytes.
                let clip = ((self.next_seq - seq) as usize).min(data.len());
                stats.dup_bytes += clip as u64;
                data = &data[clip..];
                seq += clip as u64;
                continue;
            }
            if seq == self.next_seq {
                // In-order: deliver straight from `payload` (no copy)
                // up to the first buffered byte, if any.
                let direct = self
                    .ranges
                    .first()
                    .map_or(data.len(), |&(s, _)| data.len().min(s));
                scan(state, &data[..direct], out);
                self.advance(direct);
                seq += direct as u64;
                data = &data[direct..];
                if data.is_empty() {
                    continue;
                }
                // The remainder overlaps the first buffered range
                // (which the advance just moved to the delivery point).
                // Policy-compare before that range drains, so a
                // conflicting overlap against about-to-deliver bytes is
                // counted like any other.
                let (_, re) = self.ranges[0];
                let ov = data.len().min(re);
                stats.overlap_bytes += ov as u64;
                if self.buf[..ov] != data[..ov] {
                    stats.overlap_conflicts += 1;
                    match self.config.policy {
                        // First arrival wins: keep the buffered bytes.
                        OverlapPolicy::FirstWins => {}
                        // Last arrival wins: the incoming copy replaces
                        // the buffered (about-to-deliver) bytes.
                        OverlapPolicy::LastWins => {
                            self.buf[..ov].copy_from_slice(&data[..ov]);
                        }
                    }
                }
                data = &data[ov..];
                seq += ov as u64;
                continue;
            }
            // A hole precedes `data`. Budget rule: every buffered byte
            // must land within `budget` of the delivery point. If this
            // segment's tail does not fit, the oldest gap is abandoned
            // (hole-skip) until it does — degrade, never allocate.
            if seq + data.len() as u64 > self.next_seq + self.config.budget as u64 {
                stats.budget_drops += 1;
                let target = self
                    .ranges
                    .first()
                    .map_or(seq, |&(s, _)| (self.next_seq + s as u64).min(seq));
                self.skip_to(target, state, scan, out, stats);
                continue;
            }
            let off = (seq - self.next_seq) as usize;
            self.insert(off, data, stats);
            return;
        }
    }

    /// Abandons every outstanding hole and delivers all buffered data
    /// (end of flow: FIN/RST seen, flow retired, or a test draining the
    /// tail). Each abandoned gap counts as a skipped hole and resets the
    /// scanner at its resume point, exactly like a budget-forced skip.
    pub fn flush<S, F>(
        &mut self,
        state: &mut S,
        scan: &mut F,
        out: &mut Vec<Match>,
        stats: &mut ReassemblyStats,
    ) where
        S: FlowState,
        F: FnMut(&mut S, &[u8], &mut Vec<Match>),
    {
        while let Some(&(s, _)) = self.ranges.first() {
            let target = self.next_seq + s as u64;
            self.skip_to(target, state, scan, out, stats);
        }
    }

    /// Advances the delivery point past an unfillable gap, resets the
    /// scanner at the resume offset (masking pre-gap history — the
    /// boundary-local-loss mechanism) and delivers anything that became
    /// contiguous.
    fn skip_to<S, F>(
        &mut self,
        target: u64,
        state: &mut S,
        scan: &mut F,
        out: &mut Vec<Match>,
        stats: &mut ReassemblyStats,
    ) where
        S: FlowState,
        F: FnMut(&mut S, &[u8], &mut Vec<Match>),
    {
        let n = (target - self.next_seq) as usize;
        debug_assert!(n > 0, "skip target must lie beyond the delivery point");
        stats.holes_skipped += 1;
        stats.hole_bytes += n as u64;
        self.advance(n);
        state.reset_at(target);
        self.drain(state, scan, out, stats);
    }

    /// Delivers covered intervals sitting at the delivery point.
    fn drain<S, F>(
        &mut self,
        state: &mut S,
        scan: &mut F,
        out: &mut Vec<Match>,
        stats: &mut ReassemblyStats,
    ) where
        S: FlowState,
        F: FnMut(&mut S, &[u8], &mut Vec<Match>),
    {
        while let Some(&(s, e)) = self.ranges.first() {
            if s != 0 {
                break;
            }
            self.ranges.remove(0);
            let before = self.held;
            self.held -= e;
            stats.held_delta(before, self.held);
            scan(state, &self.buf[..e], out);
            self.advance(e);
        }
    }

    /// Moves the delivery point forward by `n` window bytes, shifting
    /// the buffer and intervals down.
    fn advance(&mut self, n: usize) {
        self.next_seq += n as u64;
        if n == 0 {
            return;
        }
        if self.ranges.is_empty() {
            // Nothing buffered: drop window contents, keep capacity.
            self.buf.clear();
        } else {
            debug_assert!(self.ranges[0].0 >= n, "advance may not enter a covered range");
            self.buf.copy_within(n.., 0);
            let len = self.buf.len() - n;
            self.buf.truncate(len);
            for r in &mut self.ranges {
                r.0 -= n;
                r.1 -= n;
            }
        }
    }

    /// Copies `data` into the window at `off`, resolving overlaps with
    /// already-buffered bytes per the configured policy, and merges the
    /// covered-interval list.
    fn insert(&mut self, off: usize, data: &[u8], stats: &mut ReassemblyStats) {
        let end = off + data.len();
        debug_assert!(end <= self.config.budget, "insert beyond the budget window");
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        // Walk existing intervals across [off, end): copy into gaps,
        // policy-resolve overlaps (FirstWins: buffered bytes stay).
        let mut new_bytes = 0usize;
        let mut cursor = off;
        for i in 0..self.ranges.len() {
            let (rs, re) = self.ranges[i];
            if re <= cursor {
                continue;
            }
            if rs >= end {
                break;
            }
            if cursor < rs {
                let gap_end = rs.min(end);
                self.buf[cursor..gap_end].copy_from_slice(&data[cursor - off..gap_end - off]);
                new_bytes += gap_end - cursor;
                cursor = gap_end;
            }
            let os = cursor.max(rs);
            let oe = re.min(end);
            if os < oe {
                stats.overlap_bytes += (oe - os) as u64;
                if self.buf[os..oe] != data[os - off..oe - off] {
                    stats.overlap_conflicts += 1;
                    match self.config.policy {
                        // First arrival wins: keep the buffered bytes.
                        OverlapPolicy::FirstWins => {}
                        // Last arrival wins: overwrite the buffered
                        // range with the incoming copy.
                        OverlapPolicy::LastWins => {
                            self.buf[os..oe].copy_from_slice(&data[os - off..oe - off]);
                        }
                    }
                }
                cursor = oe;
            }
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            self.buf[cursor..end].copy_from_slice(&data[cursor - off..]);
            new_bytes += end - cursor;
        }
        if new_bytes > 0 {
            stats.segments_buffered += 1;
            stats.bytes_buffered += new_bytes as u64;
            let before = self.held;
            self.held += new_bytes;
            stats.held_delta(before, self.held);
        }
        // Union [off, end) into the interval list, merging adjacency so
        // disjoint intervals always leave at least one uncovered byte
        // between them (which is what bounds `ranges.len()`).
        let a = self.ranges.partition_point(|r| r.1 < off);
        let b = self.ranges.partition_point(|r| r.0 <= end);
        let mut ns = off;
        let mut ne = end;
        if a < b {
            ns = ns.min(self.ranges[a].0);
            ne = ne.max(self.ranges[b - 1].1);
            self.ranges.drain(a..b);
        }
        self.ranges.insert(a, (ns, ne));
    }
}

/// A flow's complete streaming context: resumable scanner registers plus
/// the reassembler that feeds them in-order bytes. This is the state
/// type to put in a [`FlowTable`](crate::FlowTable) when the ingest path
/// carries raw (possibly reordered) TCP segments instead of an in-order
/// byte stream — see
/// [`FlowTable::ingest_segments`](crate::FlowTable::ingest_segments).
#[derive(Debug, Clone)]
pub struct StreamFlow<S> {
    /// The scanner's resumable registers. Advanced only by delivered
    /// (in-order) bytes, so its `offset` is always the flow's delivery
    /// point.
    pub scan: S,
    seq: FlowReassembler,
}

impl<S: FlowState> StreamFlow<S> {
    /// Wraps a fresh scanner state (e.g. `ScanState::fresh()` or
    /// `ShardedMatcher::flow_state()`) with a reassembler.
    pub fn new(config: ReassemblyConfig, scan: S) -> StreamFlow<S> {
        StreamFlow {
            scan,
            seq: FlowReassembler::new(config),
        }
    }

    /// Read access to the flow's reassembler (delivery point, buffered
    /// bytes, outstanding holes).
    pub fn reassembler(&self) -> &FlowReassembler {
        &self.seq
    }

    /// Ingests one segment — [`FlowReassembler::ingest`] wired to this
    /// flow's scanner state.
    pub fn ingest<F>(
        &mut self,
        seq: u64,
        payload: &[u8],
        scan: &mut F,
        out: &mut Vec<Match>,
        stats: &mut ReassemblyStats,
    ) where
        F: FnMut(&mut S, &[u8], &mut Vec<Match>),
    {
        self.seq.ingest(seq, payload, &mut self.scan, scan, out, stats);
    }

    /// Flushes the flow — [`FlowReassembler::flush`] wired to this
    /// flow's scanner state.
    pub fn flush<F>(&mut self, scan: &mut F, out: &mut Vec<Match>, stats: &mut ReassemblyStats)
    where
        F: FnMut(&mut S, &[u8], &mut Vec<Match>),
    {
        self.seq.flush(&mut self.scan, scan, out, stats);
    }
}

impl<S: FlowState> FlowState for StreamFlow<S> {
    fn reset(&mut self) {
        self.scan.reset();
        self.seq.reset();
    }

    fn reset_at(&mut self, offset: u64) {
        self.scan.reset_at(offset);
        self.seq.reset_to(offset);
    }

    fn held_bytes(&self) -> usize {
        self.seq.buffered_bytes()
    }

    fn finish(&mut self, out: &mut Vec<Match>) {
        self.scan.finish(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_automaton::ScanState;

    /// Drives a reassembler with a scan closure that records delivered
    /// bytes and asserts the scanner offset tracks the delivery point.
    struct Harness {
        r: FlowReassembler,
        state: ScanState,
        delivered: Vec<u8>,
        stats: ReassemblyStats,
    }

    impl Harness {
        fn new(budget: usize) -> Harness {
            Harness::with_policy(budget, OverlapPolicy::FirstWins)
        }

        fn with_policy(budget: usize, policy: OverlapPolicy) -> Harness {
            Harness {
                r: FlowReassembler::new(ReassemblyConfig::new(budget).with_policy(policy)),
                state: ScanState::fresh(),
                delivered: Vec::new(),
                stats: ReassemblyStats::default(),
            }
        }

        fn ingest(&mut self, seq: u64, payload: &[u8]) {
            let delivered = &mut self.delivered;
            let mut out = Vec::new();
            let mut scan = |s: &mut ScanState, chunk: &[u8], _o: &mut Vec<Match>| {
                delivered.extend_from_slice(chunk);
                for b in chunk {
                    s.push_byte(*b);
                }
            };
            self.r
                .ingest(seq, payload, &mut self.state, &mut scan, &mut out, &mut self.stats);
            assert!(self.r.buffered_bytes() <= self.r.config().budget);
        }

        fn flush(&mut self) {
            let delivered = &mut self.delivered;
            let mut out = Vec::new();
            let mut scan = |s: &mut ScanState, chunk: &[u8], _o: &mut Vec<Match>| {
                delivered.extend_from_slice(chunk);
                for b in chunk {
                    s.push_byte(*b);
                }
            };
            self.r
                .flush(&mut self.state, &mut scan, &mut out, &mut self.stats);
        }
    }

    #[test]
    fn in_order_fast_path_never_buffers() {
        let mut h = Harness::new(64);
        h.ingest(0, b"abcd");
        h.ingest(4, b"efgh");
        assert_eq!(h.delivered, b"abcdefgh");
        assert_eq!(h.stats.segments_buffered, 0);
        assert_eq!(h.stats.bytes_buffered, 0);
        assert_eq!(h.r.buffered_bytes(), 0);
        assert_eq!(h.r.next_seq(), 8);
        assert_eq!(h.state.offset, 8);
    }

    #[test]
    fn reorder_buffers_then_delivers_in_order() {
        let mut h = Harness::new(64);
        h.ingest(4, b"efgh");
        assert_eq!(h.delivered, b"");
        assert_eq!(h.r.buffered_bytes(), 4);
        assert!(h.r.has_hole());
        h.ingest(0, b"abcd");
        assert_eq!(h.delivered, b"abcdefgh");
        assert_eq!(h.r.buffered_bytes(), 0);
        assert_eq!(h.stats.bytes_held, 0);
        assert_eq!(h.stats.bytes_held_peak, 4);
        assert!(!h.r.has_hole());
    }

    #[test]
    fn retransmits_and_duplicates_are_clipped() {
        let mut h = Harness::new(64);
        h.ingest(0, b"abcd");
        h.ingest(0, b"abcd"); // full duplicate
        h.ingest(2, b"cdef"); // partial retransmit, 2 new bytes
        assert_eq!(h.delivered, b"abcdef");
        assert_eq!(h.stats.dup_bytes, 6);
    }

    #[test]
    fn gap_filling_segment_delivers_past_buffered_data() {
        let mut h = Harness::new(64);
        h.ingest(4, b"ef");
        h.ingest(8, b"ij");
        // Fills the first gap AND overlaps the buffered [4..6).
        h.ingest(0, b"abcdef");
        assert_eq!(h.delivered, b"abcdef");
        assert_eq!(h.r.buffered_bytes(), 2);
        h.ingest(6, b"gh");
        assert_eq!(h.delivered, b"abcdefghij");
    }

    #[test]
    fn consistent_overlap_counts_no_conflict() {
        let mut h = Harness::new(64);
        h.ingest(2, b"cdef");
        h.ingest(0, b"abcd"); // overlaps [2..4) with identical bytes
        assert_eq!(h.delivered, b"abcdef");
        assert!(h.stats.overlap_bytes >= 2);
        assert_eq!(h.stats.overlap_conflicts, 0);
    }

    #[test]
    fn conflicting_overlap_first_wins_and_is_counted() {
        let mut h = Harness::new(64);
        h.ingest(2, b"XY89"); // arrives first: wins [2..6)
        h.ingest(0, b"01ab45"); // conflicts on [2..6): "ab45" vs "XY89"
        assert_eq!(h.delivered, b"01XY89", "first arrival must win");
        assert_eq!(h.stats.overlap_conflicts, 1);
        assert_eq!(h.stats.overlap_bytes, 4);
    }

    #[test]
    fn conflicting_overlap_last_wins_overwrites_buffered() {
        // The exact schedule of the first-wins test above, under the
        // opposite policy: the later arrival's bytes survive, and the
        // conflict accounting is identical — policy changes *which*
        // bytes win, never whether the evasion attempt is observable.
        let mut h = Harness::with_policy(64, OverlapPolicy::LastWins);
        h.ingest(2, b"XY89"); // arrives first: buffered [2..6)
        h.ingest(0, b"01ab45"); // conflicts on [2..6): "ab45" vs "XY89"
        assert_eq!(h.delivered, b"01ab45", "last arrival must win");
        assert_eq!(h.stats.overlap_conflicts, 1);
        assert_eq!(h.stats.overlap_bytes, 4);
    }

    #[test]
    fn last_wins_resolves_buffered_vs_buffered_overlap() {
        // Both segments are out of order (the hole at [0..2) is filled
        // last), so the conflict resolves inside the buffer window, not
        // against about-to-deliver bytes.
        let mut first = Harness::new(64);
        let mut last = Harness::with_policy(64, OverlapPolicy::LastWins);
        for h in [&mut first, &mut last] {
            h.ingest(2, b"XY89"); // buffered [2..6)
            h.ingest(4, b"abcd"); // conflicts on [4..6): "ab" vs "89"
            h.ingest(0, b"01"); // fills the hole, delivers everything
        }
        assert_eq!(first.delivered, b"01XY89cd");
        assert_eq!(last.delivered, b"01XYabcd");
        assert_eq!(first.stats.overlap_conflicts, 1);
        assert_eq!(last.stats.overlap_conflicts, 1);
        assert_eq!(first.stats.overlap_bytes, last.stats.overlap_bytes);
    }

    #[test]
    fn policies_agree_when_overlap_content_agrees() {
        // A true retransmission (identical bytes) is policy-invariant:
        // both profiles deliver the same stream and count no conflict.
        let mut first = Harness::new(64);
        let mut last = Harness::with_policy(64, OverlapPolicy::LastWins);
        for h in [&mut first, &mut last] {
            h.ingest(2, b"23"); // buffered behind the hole [0..2)
            h.ingest(2, b"2345"); // retransmits [2..4) identically, extends
            h.ingest(0, b"01"); // fills the hole, delivers everything
        }
        assert_eq!(first.delivered, b"012345");
        assert_eq!(last.delivered, first.delivered);
        assert_eq!(first.stats.overlap_conflicts, 0);
        assert_eq!(last.stats.overlap_conflicts, 0);
        assert!(first.stats.overlap_bytes > 0);
        assert_eq!(first.stats.overlap_bytes, last.stats.overlap_bytes);
    }

    #[test]
    fn budget_pressure_skips_the_oldest_hole() {
        let mut h = Harness::new(8);
        h.ingest(4, b"ef"); // hole [0..4), buffered [4..6)
        // Tail at 14 > 0 + 8: the oldest hole is abandoned (delivering
        // the buffered "ef"), after which [8..14) fits the window.
        h.ingest(8, b"ijklmn");
        assert_eq!(h.stats.budget_drops, 1);
        assert_eq!(h.stats.holes_skipped, 1);
        assert_eq!(h.delivered, b"ef");
        assert_eq!(h.r.buffered_bytes(), 6);
        assert_eq!(h.r.next_seq(), 6);
        h.flush(); // abandons [6..8), delivers the buffered tail
        assert_eq!(h.delivered, b"efijklmn");
        assert_eq!(h.stats.holes_skipped, 2);
        assert_eq!(h.stats.budget_drops, 1, "flush skips are not budget drops");
        assert_eq!(h.r.buffered_bytes(), 0);
    }

    #[test]
    fn budget_pressure_can_cascade_to_direct_delivery() {
        let mut h = Harness::new(8);
        h.ingest(4, b"ef"); // hole [0..4)
        // Tail at 16 exceeds the window even after the first skip
        // (16 > 6 + 8), so the second hole is abandoned too and the
        // segment delivers directly — no byte is ever dropped to fit.
        h.ingest(12, b"mnop");
        assert_eq!(h.delivered, b"efmnop");
        assert_eq!(h.stats.budget_drops, 2);
        assert_eq!(h.stats.holes_skipped, 2);
        assert_eq!(h.stats.hole_bytes, 4 + 6);
        assert_eq!(h.r.buffered_bytes(), 0);
        assert_eq!(h.r.next_seq(), 16);
    }

    #[test]
    fn far_future_segment_larger_than_budget_delivers_directly() {
        let mut h = Harness::new(4);
        let big = vec![b'z'; 64];
        h.ingest(100, &big);
        // Hole [0..100) skipped, then the segment is in-order and
        // delivers directly — budget only bounds *buffered* bytes.
        assert_eq!(h.delivered, big);
        assert_eq!(h.r.next_seq(), 164);
        assert_eq!(h.stats.hole_bytes, 100);
        assert_eq!(h.r.buffered_bytes(), 0);
    }

    #[test]
    fn flush_skips_every_remaining_hole() {
        let mut h = Harness::new(64);
        h.ingest(2, b"cd");
        h.ingest(6, b"gh");
        h.flush();
        assert_eq!(h.delivered, b"cdgh");
        assert_eq!(h.stats.holes_skipped, 2);
        assert_eq!(h.stats.hole_bytes, 4);
        assert_eq!(h.stats.budget_drops, 0);
        assert_eq!(h.r.next_seq(), 8);
        assert_eq!(h.stats.bytes_held, 0);
    }

    #[test]
    fn scanner_offset_stays_sequence_absolute_across_skips() {
        let mut h = Harness::new(16);
        h.ingest(0, b"ab");
        h.ingest(10, b"kl");
        h.flush(); // skips [2..10)
        assert_eq!(h.state.offset, 12, "offset must equal the delivery point");
        assert_eq!(h.r.next_seq(), 12);
    }

    #[test]
    fn reset_clears_everything_and_reset_to_repositions() {
        let mut h = Harness::new(64);
        h.ingest(4, b"ef");
        h.r.reset();
        assert_eq!(h.r.next_seq(), 0);
        assert_eq!(h.r.buffered_bytes(), 0);
        assert!(!h.r.has_hole());
        h.r.reset_to(1000);
        assert_eq!(h.r.next_seq(), 1000);
    }

    #[test]
    #[should_panic(expected = "reassembly budget must be non-zero")]
    fn zero_budget_config_panics() {
        let _ = ReassemblyConfig::new(0);
    }

    #[test]
    fn zero_budget_is_a_typed_error_on_the_fallible_path() {
        assert_eq!(
            ReassemblyConfig::try_new(0).err(),
            Some(ReassemblyConfigError::ZeroBudget)
        );
        assert_eq!(
            ReassemblyConfigError::ZeroBudget.to_string(),
            "reassembly budget must be non-zero"
        );
        assert_eq!(ReassemblyConfig::try_new(64).unwrap().budget, 64);
    }

    #[test]
    fn default_config_uses_first_wins_and_64k() {
        let c = ReassemblyConfig::default();
        assert_eq!(c.budget, ReassemblyConfig::DEFAULT_BUDGET);
        assert_eq!(c.policy, OverlapPolicy::FirstWins);
        assert_eq!(OverlapPolicy::default(), OverlapPolicy::FirstWins);
    }

    #[test]
    fn stream_flow_resets_both_halves() {
        let mut f = StreamFlow::new(ReassemblyConfig::new(64), ScanState::fresh());
        let mut out = Vec::new();
        let mut stats = ReassemblyStats::default();
        let mut scan = |s: &mut ScanState, chunk: &[u8], _o: &mut Vec<Match>| {
            for b in chunk {
                s.push_byte(*b);
            }
        };
        f.ingest(4, b"ef", &mut scan, &mut out, &mut stats);
        assert_eq!(f.held_bytes(), 2);
        FlowState::reset(&mut f);
        assert_eq!(f.held_bytes(), 0);
        assert_eq!(f.scan.offset, 0);
        assert_eq!(f.reassembler().next_seq(), 0);
        f.reset_at(42);
        assert_eq!(f.scan.offset, 42);
        assert_eq!(f.reassembler().next_seq(), 42);
    }
}
