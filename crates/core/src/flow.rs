//! Bounded flow table: per-flow scanner state for millions of concurrent
//! flows.
//!
//! The streaming layer ([`ScanState`] /
//! [`ShardedScanState`](crate::ShardedScanState)) makes a flow's scanner
//! context a cheap value; this module is the data structure that holds
//! those values for live traffic. Design constraints, in order:
//!
//! - **bounded memory** — capacity is fixed at construction. DPI sits on
//!   the fast path; an attacker opening flows must never make the table
//!   allocate without bound;
//! - **allocation-free steady state** — lookup, insert and evict touch no
//!   allocator once the table is warm. Evicted slots are reset in place
//!   and reused, so even the per-flow state vectors (one `ScanState` per
//!   shard) are recycled rather than reallocated;
//! - **O(ways) lookup** — the table is **set-associative**, like the
//!   hardware flow caches in real line cards: a flow key hashes to one
//!   set of [`FlowTable::ways`] slots, and lookup compares only those.
//!   Within a set, replacement is LRU by the table clock — a logical
//!   tick per touch by default, or caller-supplied packet timestamps
//!   (u64 nanoseconds) via [`FlowTable::touch_at`] /
//!   [`FlowTable::ingest_batch_at`], which also lets
//!   [`FlowTable::evict_idle`] reason in real idle durations;
//! - **graceful loss** — evicting a live flow forgets its scanner state;
//!   a pattern straddling the eviction point is missed, matches wholly
//!   after re-insertion are still found. [`FlowLookup::Evicted`] reports
//!   the victim so a pipeline can count (or alert on) table pressure,
//!   and [`FlowTable::evict_idle`] lets an ingest loop retire flows that
//!   stopped sending before they are forced out by collisions.
//!
//! The table is generic over the state it stores, so the same structure
//! serves a single [`CompiledMatcher`](crate::CompiledMatcher) (state =
//! [`ScanState`]), a [`ShardedMatcher`](crate::ShardedMatcher) (state =
//! [`ShardedScanState`](crate::ShardedScanState)), or the reference
//! matchers in differential tests. Scanning is injected as a closure into
//! [`FlowTable::ingest_batch`], keeping the table free of matcher
//! dependencies.

use crate::reassembly::{ReassemblyStats, StreamFlow};
use dpi_automaton::{Match, ScanState};

/// A [`FlowTable`] construction parameter that can never produce a
/// working table. Returned by the fallible constructors
/// ([`FlowTable::try_new`] / [`FlowTable::try_with_ways`]) so a resident
/// service can reject a malformed config instead of panicking a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowConfigError {
    /// `capacity` was zero — a table that can hold no flow.
    ZeroCapacity,
    /// `ways` was zero — a set with no slots can serve no lookup.
    ZeroWays,
}

impl std::fmt::Display for FlowConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowConfigError::ZeroCapacity => write!(f, "flow table capacity must be non-zero"),
            FlowConfigError::ZeroWays => write!(f, "associativity must be non-zero"),
        }
    }
}

impl std::error::Error for FlowConfigError {}

/// A flow identity — wide enough to pack an IPv6-free 5-tuple (or a hash
/// of anything larger) without collisions mattering at table scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(pub u128);

impl FlowKey {
    /// Packs an IPv4 5-tuple into a key (src/dst address, src/dst port,
    /// protocol).
    pub fn from_v4(src: u32, dst: u32, sport: u16, dport: u16, proto: u8) -> FlowKey {
        FlowKey(
            (src as u128) << 88
                | (dst as u128) << 56
                | (sport as u128) << 40
                | (dport as u128) << 24
                | proto as u128,
        )
    }

    /// 64-bit mix used to pick the slot set (SplitMix64 over the folded
    /// halves — cheap, and good enough that sets fill evenly).
    fn hash(self) -> u64 {
        let mut z = (self.0 as u64) ^ ((self.0 >> 64) as u64) ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow:{:032x}", self.0)
    }
}

/// Per-flow scanner state a [`FlowTable`] can recycle in place.
pub trait FlowState {
    /// Returns the state to its fresh-flow value without reallocating.
    fn reset(&mut self);

    /// Returns the state to its fresh-flow value positioned at stream
    /// offset `offset`: history masked as at flow start, so nothing from
    /// before the reset can influence later matching, but match `end`
    /// offsets stay stream-absolute. The resume primitive after a
    /// reassembly hole-skip — see
    /// [`ScanState::reset_at`](dpi_automaton::ScanState::reset_at).
    fn reset_at(&mut self, offset: u64);

    /// Bytes of auxiliary buffer this state currently holds (0 for bare
    /// scanner registers; the reassembler's out-of-order window for
    /// [`StreamFlow`]). The table subtracts this from its
    /// [`ReassemblyStats::bytes_held`] gauge when the flow is evicted or
    /// removed, keeping the gauge honest under table pressure.
    fn held_bytes(&self) -> usize {
        0
    }

    /// Ends the flow's scan: appends to `out`, in canonical order, the
    /// matches this state has found but not yet emitted (a two-stage
    /// state's verified matches behind its merge frontier). The default
    /// holds none. The state must be reset before it scans again. The
    /// table's ingest paths call it on a flow they evict, before reusing
    /// its slot.
    fn finish(&mut self, out: &mut Vec<Match>) {
        let _ = out;
    }
}

impl FlowState for ScanState {
    fn reset(&mut self) {
        ScanState::reset(self);
    }

    fn reset_at(&mut self, offset: u64) {
        ScanState::reset_at(self, offset);
    }
}

impl FlowState for crate::ShardedScanState {
    fn reset(&mut self) {
        crate::ShardedScanState::reset(self);
    }

    fn reset_at(&mut self, offset: u64) {
        crate::ShardedScanState::reset_at(self, offset);
    }
}

/// What [`FlowTable::touch`] did to serve a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowLookup {
    /// The flow was resident; its state resumes where it left off.
    Hit,
    /// The flow was absent and took a free slot (fresh state).
    New,
    /// The flow was absent and evicted this set's LRU resident (fresh
    /// state; the victim's scanner context is lost, after an ingest path
    /// emitted the matches it still held — see [`FlowState::finish`]).
    Evicted(FlowKey),
}

/// Running counters of table behaviour (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Lookups that found the flow resident.
    pub hits: u64,
    /// Lookups that inserted a new flow (free slot or eviction).
    pub misses: u64,
    /// Residents displaced by set-LRU replacement.
    pub evictions: u64,
    /// Residents retired by [`FlowTable::evict_idle`].
    pub idle_evictions: u64,
    /// Aggregated reassembly counters across every flow's ingest (all
    /// zero when the ingest path carries in-order payload chunks rather
    /// than TCP segments). The [`ReassemblyStats::bytes_held`] gauge is
    /// table-wide: it drops when flows drain *and* when buffered flows
    /// are evicted, removed, or idle-retired — the bytes those flows
    /// drop are counted in [`ReassemblyStats::evicted_bytes`].
    pub reassembly: ReassemblyStats,
}

/// One slot of the set-associative table.
#[derive(Debug, Clone)]
struct Slot<S> {
    key: FlowKey,
    /// Logical tick of the last touch (LRU ordering within a set).
    last_used: u64,
    occupied: bool,
    state: S,
}

/// A packet entering the flow pipeline: which flow it belongs to and its
/// payload bytes (one TCP segment / UDP datagram worth, any size).
#[derive(Debug, Clone, Copy)]
pub struct FlowPacket<'a> {
    /// Flow identity.
    pub key: FlowKey,
    /// Payload chunk.
    pub payload: &'a [u8],
}

/// A raw TCP segment entering the reassembling flow pipeline: flow
/// identity, the segment's position in the flow's sequence space
/// (relative byte offset from flow start — see the
/// [`reassembly`](crate::reassembly) module docs), and its payload.
/// Unlike [`FlowPacket`], segments may arrive reordered, retransmitted,
/// overlapping, or not at all.
#[derive(Debug, Clone, Copy)]
pub struct FlowSegment<'a> {
    /// Flow identity.
    pub key: FlowKey,
    /// Sequence offset of the first payload byte, relative to flow
    /// start.
    pub seq: u64,
    /// Segment payload bytes.
    pub payload: &'a [u8],
}

/// A match attributed to the flow it occurred in. `matched.end` is the
/// stream-absolute offset within that flow (since flow start or the last
/// eviction of its state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowMatch {
    /// The flow the occurrence was found in.
    pub key: FlowKey,
    /// The occurrence (stream-absolute `end`).
    pub matched: Match,
}

/// Bounded set-associative table of per-flow scanner states with
/// in-set LRU replacement. See the [module docs](self) for the design
/// constraints.
///
/// # Examples
///
/// ```
/// use dpi_automaton::{Dfa, PatternSet, ScanState};
/// use dpi_core::{CompiledAutomaton, CompiledMatcher, DtpConfig, ReducedAutomaton};
/// use dpi_core::{FlowKey, FlowPacket, FlowTable};
///
/// let set = PatternSet::new(["hers"])?;
/// let reduced = ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER);
/// let compiled = CompiledAutomaton::compile(&reduced);
/// let matcher = CompiledMatcher::new(&compiled, &set);
///
/// let mut table = FlowTable::new(1024, ScanState::fresh());
/// let flow = FlowKey(7);
/// let noise = FlowKey(8);
/// // "hers" split across two packets, another flow interleaved between.
/// let packets = [
///     FlowPacket { key: flow, payload: b"xhe" },
///     FlowPacket { key: noise, payload: b"rs" }, // no "he" before it!
///     FlowPacket { key: flow, payload: b"rs" },
/// ];
/// let mut alerts = Vec::new();
/// table.ingest_batch(
///     packets.iter().copied(),
///     |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
///     &mut alerts,
/// );
/// assert_eq!(alerts.len(), 1);
/// assert_eq!(alerts[0].key, flow);
/// assert_eq!(alerts[0].matched.end, 5); // absolute within the flow
/// # Ok::<(), dpi_automaton::PatternSetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowTable<S> {
    slots: Vec<Slot<S>>,
    /// Number of sets (power of two); `slots.len() = sets × ways`.
    sets: usize,
    ways: usize,
    /// Logical clock, advanced once per [`FlowTable::touch`].
    tick: u64,
    occupied: usize,
    stats: FlowTableStats,
    /// Per-packet match scratch reused by [`FlowTable::ingest_batch`].
    scratch: Vec<Match>,
}

/// Default associativity: 8 ways balances LRU quality against lookup
/// compare count (hardware flow caches commonly sit at 4–16).
pub const DEFAULT_WAYS: usize = 8;

impl<S: FlowState + Clone> FlowTable<S> {
    /// A table holding at least `capacity` flows with [`DEFAULT_WAYS`]
    /// associativity. `template` is cloned into every slot up front (the
    /// one bulk allocation), so the scan path never constructs states —
    /// for a [`ShardedMatcher`](crate::ShardedMatcher) pass
    /// `matcher.flow_state()`.
    ///
    /// The realized capacity is `capacity` rounded up to a whole number
    /// of power-of-two sets.
    pub fn new(capacity: usize, template: S) -> FlowTable<S> {
        Self::with_ways(capacity, DEFAULT_WAYS, template)
    }

    /// Fallible [`FlowTable::new`]: rejects a zero capacity with
    /// [`FlowConfigError`] instead of panicking — the constructor for
    /// resident services whose config arrives from outside the binary.
    pub fn try_new(capacity: usize, template: S) -> Result<FlowTable<S>, FlowConfigError> {
        Self::try_with_ways(capacity, DEFAULT_WAYS, template)
    }

    /// [`FlowTable::new`] with explicit associativity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` or `capacity` is zero; use
    /// [`FlowTable::try_with_ways`] where a malformed config must be an
    /// error value.
    pub fn with_ways(capacity: usize, ways: usize, template: S) -> FlowTable<S> {
        match Self::try_with_ways(capacity, ways, template) {
            Ok(table) => table,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`FlowTable::with_ways`].
    pub fn try_with_ways(
        capacity: usize,
        ways: usize,
        template: S,
    ) -> Result<FlowTable<S>, FlowConfigError> {
        if capacity == 0 {
            return Err(FlowConfigError::ZeroCapacity);
        }
        if ways == 0 {
            return Err(FlowConfigError::ZeroWays);
        }
        let sets = capacity.div_ceil(ways).next_power_of_two();
        let slots = vec![
            Slot {
                key: FlowKey(0),
                last_used: 0,
                occupied: false,
                state: template,
            };
            sets * ways
        ];
        Ok(FlowTable {
            slots,
            sets,
            ways,
            tick: 0,
            occupied: 0,
            stats: FlowTableStats::default(),
            scratch: Vec::new(),
        })
    }

    /// Total slots (the bounded capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Currently resident flows.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// `true` when no flow is resident.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Counters since construction.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }

    /// Looks `key` up, inserting (and, if its set is full, evicting the
    /// set's LRU resident) on miss. Returns the flow's state — resumed on
    /// hit, fresh on miss — and what happened. O(ways), allocation-free.
    /// Having no output, it discards the matches an evicted state still
    /// holds ([`FlowState::finish`]); the ingest paths emit them.
    ///
    /// Advances the table's clock by one logical tick; ingest loops that
    /// know real packet times should call [`FlowTable::touch_at`]
    /// instead so idle eviction can reason in wall-clock durations.
    pub fn touch(&mut self, key: FlowKey) -> (&mut S, FlowLookup) {
        self.touch_at(key, self.tick + 1)
    }

    /// [`FlowTable::touch`] with a caller-supplied packet timestamp
    /// (e.g. nanoseconds since capture start). The table's clock is the
    /// maximum timestamp seen, so slightly out-of-order packets are
    /// tolerated (an older timestamp still counts as "now" — LRU order
    /// within a set can never run backwards). Tick-based and
    /// timestamp-based touches share one clock; a pipeline should pick
    /// one unit and stay with it, and pass the same unit to
    /// [`FlowTable::evict_idle`]. Like [`FlowTable::touch`], it discards
    /// the matches an evicted state still holds.
    pub fn touch_at(&mut self, key: FlowKey, now: u64) -> (&mut S, FlowLookup) {
        let (index, outcome) = self.touch_slot(key, now, |_, _| {});
        (&mut self.slots[index].state, outcome)
    }

    /// [`FlowTable::touch_at`] returning the slot index instead of the
    /// state reference — lets ingest paths that also need `self.stats`
    /// split the borrow. On eviction, `evicted` gets the victim's key and
    /// state before the slot is reset.
    fn touch_slot(
        &mut self,
        key: FlowKey,
        now: u64,
        evicted: impl FnOnce(FlowKey, &mut S),
    ) -> (usize, FlowLookup) {
        self.tick = self.tick.max(now);
        let set = (key.hash() as usize) & (self.sets - 1);
        let base = set * self.ways;
        let mut victim = base;
        let mut victim_tick = u64::MAX;
        let mut free: Option<usize> = None;
        for i in base..base + self.ways {
            let slot = &self.slots[i];
            if slot.occupied && slot.key == key {
                self.slots[i].last_used = self.tick;
                self.stats.hits += 1;
                return (i, FlowLookup::Hit);
            }
            if !slot.occupied {
                free.get_or_insert(i);
            } else if slot.last_used < victim_tick {
                victim_tick = slot.last_used;
                victim = i;
            }
        }
        self.stats.misses += 1;
        let (index, outcome) = match free {
            Some(i) => {
                self.occupied += 1;
                (i, FlowLookup::New)
            }
            None => {
                self.stats.evictions += 1;
                // The victim's buffered reassembly bytes leave the table
                // with it — keep the held-bytes gauge honest.
                self.drop_held(victim);
                let victim_key = self.slots[victim].key;
                evicted(victim_key, &mut self.slots[victim].state);
                (victim, FlowLookup::Evicted(victim_key))
            }
        };
        let slot = &mut self.slots[index];
        slot.key = key;
        slot.last_used = self.tick;
        slot.occupied = true;
        slot.state.reset();
        (index, outcome)
    }

    /// Read-write access to `key`'s state if the flow is resident —
    /// without inserting, evicting, advancing the clock, or counting a
    /// hit/miss, so LRU order stays as it was. A caller about to
    /// [`remove`](FlowTable::remove) a flow takes its held matches
    /// through it ([`FlowState::finish`]). The service repositions a
    /// flow through [`FlowTable::ingest_segment_at`]'s `resync` instead.
    pub fn get_mut(&mut self, key: FlowKey) -> Option<&mut S> {
        let set = (key.hash() as usize) & (self.sets - 1);
        let base = set * self.ways;
        (base..base + self.ways)
            .find(|&i| self.slots[i].occupied && self.slots[i].key == key)
            .map(move |i| &mut self.slots[i].state)
    }

    /// Removes `key` if resident (flow terminated — e.g. TCP FIN/RST),
    /// returning whether it was. The slot's state is recycled; matches
    /// it still holds are discarded unless the caller first takes them
    /// with [`FlowState::finish`] (through [`FlowTable::get_mut`]).
    pub fn remove(&mut self, key: FlowKey) -> bool {
        let set = (key.hash() as usize) & (self.sets - 1);
        let base = set * self.ways;
        for i in base..base + self.ways {
            if self.slots[i].occupied && self.slots[i].key == key {
                self.drop_held(i);
                self.slots[i].occupied = false;
                self.occupied -= 1;
                return true;
            }
        }
        false
    }

    /// The table's clock: the last logical tick, or — when the ingest
    /// path supplies packet timestamps via [`FlowTable::touch_at`] /
    /// [`FlowTable::ingest_batch_at`] — the latest timestamp observed.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Retires every flow idle for more than `max_idle`, returning how
    /// many. The duration is in whatever unit drives the clock: logical
    /// ticks (one per [`FlowTable::touch`]) on the default path, or the
    /// caller's timestamp unit (e.g. nanoseconds) when packets are
    /// ingested with [`FlowTable::touch_at`] /
    /// [`FlowTable::ingest_batch_at`]. Lets ingest loops shed dead flows
    /// on their own schedule instead of waiting for collisions to force
    /// them out. Having no output, it discards the matches a retired
    /// state still holds ([`FlowState::finish`]).
    pub fn evict_idle(&mut self, max_idle: u64) -> usize {
        let deadline = self.tick.saturating_sub(max_idle);
        let mut evicted = 0usize;
        for i in 0..self.slots.len() {
            if self.slots[i].occupied && self.slots[i].last_used < deadline {
                self.drop_held(i);
                self.slots[i].occupied = false;
                evicted += 1;
            }
        }
        self.occupied -= evicted;
        self.stats.idle_evictions += evicted as u64;
        evicted
    }

    /// Accounts the out-of-order bytes slot `index` holds as leaving
    /// the table with its flow: off the held gauge, onto the evicted
    /// counter.
    fn drop_held(&mut self, index: usize) {
        let held = self.slots[index].state.held_bytes() as u64;
        self.stats.reassembly.bytes_held -= held;
        self.stats.reassembly.evicted_bytes += held;
    }

    /// The packet-batch ingest path: routes every packet to its flow's
    /// state (inserting/evicting as needed) and runs `scan` on it,
    /// collecting matches tagged with their flow into `out` (cleared
    /// first, in packet order; within a packet, canonical order). A
    /// flow evicted to make room first appends what its state still
    /// holds ([`FlowState::finish`]), tagged with its own key.
    ///
    /// `scan` receives the flow's state, the packet payload, and a match
    /// buffer to **append** to — pass the matcher's resumable entry point
    /// (e.g. [`CompiledMatcher::scan_chunk_into`] or a closure around
    /// [`ShardedMatcher::scan_chunk_into`] with its scratch).
    /// Steady-state the whole path performs no allocation beyond growth
    /// of `out`.
    ///
    /// [`CompiledMatcher::scan_chunk_into`]: crate::CompiledMatcher::scan_chunk_into
    /// [`ShardedMatcher::scan_chunk_into`]: crate::ShardedMatcher::scan_chunk_into
    pub fn ingest_batch<'p>(
        &mut self,
        packets: impl IntoIterator<Item = FlowPacket<'p>>,
        scan: impl FnMut(&mut S, &[u8], &mut Vec<Match>),
        out: &mut Vec<FlowMatch>,
    ) {
        let tick = self.tick;
        self.ingest_batch_at(
            packets
                .into_iter()
                .zip(1u64..)
                .map(move |(p, i)| (p, tick + i)),
            scan,
            out,
        );
    }

    /// [`FlowTable::ingest_batch`] with per-packet timestamps: each item
    /// is `(packet, time)` where `time` is the packet's capture time in
    /// the caller's unit (u64 nanoseconds, typically). Timestamps drive
    /// the in-set LRU and [`FlowTable::evict_idle`] durations; see
    /// [`FlowTable::touch_at`] for the clock semantics.
    pub fn ingest_batch_at<'p>(
        &mut self,
        packets: impl IntoIterator<Item = (FlowPacket<'p>, u64)>,
        mut scan: impl FnMut(&mut S, &[u8], &mut Vec<Match>),
        out: &mut Vec<FlowMatch>,
    ) {
        out.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        for (packet, time) in packets {
            let (index, _) = self.touch_slot(packet.key, time, |victim, state| {
                finish_into(victim, state, &mut scratch, out)
            });
            scratch.clear();
            scan(&mut self.slots[index].state, packet.payload, &mut scratch);
            tag_into(packet.key, &scratch, out);
        }
        self.scratch = scratch;
    }

    /// Visits every resident flow (arbitrary order) without touching the
    /// clock, LRU order, or counters. The service runtime's end-of-stream
    /// hook: scanner states that buffer matches past a verification
    /// watermark (e.g. two-stage window merging) need a final per-flow
    /// drain that the chunk-granular ingest closures cannot express.
    pub fn for_each_flow(&mut self, mut visit: impl FnMut(FlowKey, &mut S)) {
        for slot in self.slots.iter_mut().filter(|s| s.occupied) {
            visit(slot.key, &mut slot.state);
        }
    }
}

/// The reassembling ingest paths: available when the table's per-flow
/// state is a [`StreamFlow`] (scanner registers + bounded reassembler).
impl<S: FlowState + Clone> FlowTable<StreamFlow<S>> {
    /// The raw-segment ingest path: routes every TCP segment to its
    /// flow's reassembler, which delivers in-order bytes to `scan` —
    /// tolerating reordering, retransmission, overlap and loss under the
    /// per-flow budget (see the [`reassembly`](crate::reassembly) module
    /// docs). Matches land in `out` (cleared first) tagged with their
    /// flow, an evicted flow's held matches as in
    /// [`FlowTable::ingest_batch`]; reassembly counters aggregate into
    /// [`FlowTableStats::reassembly`].
    ///
    /// `scan` receives the flow's **scanner** state (the `S` inside the
    /// [`StreamFlow`]), a delivered in-order chunk, and a match buffer
    /// to append to — the same closure shape as
    /// [`FlowTable::ingest_batch`].
    ///
    /// # Examples
    ///
    /// ```
    /// use dpi_automaton::{Dfa, PatternSet, ScanState};
    /// use dpi_core::{CompiledAutomaton, CompiledMatcher, DtpConfig, ReducedAutomaton};
    /// use dpi_core::{FlowKey, FlowSegment, FlowTable};
    /// use dpi_core::reassembly::{ReassemblyConfig, StreamFlow};
    ///
    /// let set = PatternSet::new(["hers"])?;
    /// let reduced = ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER);
    /// let compiled = CompiledAutomaton::compile(&reduced);
    /// let matcher = CompiledMatcher::new(&compiled, &set);
    ///
    /// let template = StreamFlow::new(ReassemblyConfig::new(4096), ScanState::fresh());
    /// let mut table = FlowTable::new(1024, template);
    /// let flow = FlowKey(7);
    /// // "xhers" with its segments swapped: "rs" arrives before "xhe".
    /// let segments = [
    ///     FlowSegment { key: flow, seq: 3, payload: b"rs" },
    ///     FlowSegment { key: flow, seq: 0, payload: b"xhe" },
    /// ];
    /// let mut alerts = Vec::new();
    /// table.ingest_segments(
    ///     segments.iter().copied(),
    ///     |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
    ///     &mut alerts,
    /// );
    /// assert_eq!(alerts.len(), 1);
    /// assert_eq!(alerts[0].matched.end, 5); // sequence-absolute
    /// assert!(table.stats().reassembly.segments_buffered >= 1);
    /// # Ok::<(), dpi_automaton::PatternSetError>(())
    /// ```
    pub fn ingest_segments<'p>(
        &mut self,
        segments: impl IntoIterator<Item = FlowSegment<'p>>,
        scan: impl FnMut(&mut S, &[u8], &mut Vec<Match>),
        out: &mut Vec<FlowMatch>,
    ) {
        let tick = self.tick;
        self.ingest_segments_at(
            segments
                .into_iter()
                .zip(1u64..)
                .map(move |(s, i)| (s, tick + i)),
            scan,
            out,
        );
    }

    /// [`FlowTable::ingest_segments`] with per-segment capture
    /// timestamps (the clock semantics of [`FlowTable::touch_at`]).
    pub fn ingest_segments_at<'p>(
        &mut self,
        segments: impl IntoIterator<Item = (FlowSegment<'p>, u64)>,
        mut scan: impl FnMut(&mut S, &[u8], &mut Vec<Match>),
        out: &mut Vec<FlowMatch>,
    ) {
        out.clear();
        for (segment, time) in segments {
            self.ingest_segment_at(segment, time, false, &mut scan, out);
        }
    }

    /// Single-segment ingest with mid-stream resync policy — the
    /// building block of [`FlowTable::ingest_segments_at`], which runs
    /// it once per segment with `resync` unset and hides the lookup
    /// outcome the service runtime needs. It touches, reassembles,
    /// scans and tags matches — **appending** to `out` rather than
    /// clearing it. The resync hook: when `resync` is set, the flow
    /// first flushes any bytes it still buffers through the scanner
    /// (admitted bytes are never silently discarded) and is then
    /// repositioned to `segment.seq` via
    /// [`FlowState::reset_at`] before ingest — the explicit resume
    /// point after the service shed the flow's intervening bytes, so
    /// the scanner restarts cleanly instead of mislabelling the shed
    /// gap as a reassembly hole. (Flows resuming mid-stream *without*
    /// a marker — eviction victims, post-restart flows — need no
    /// special case: the reassembler's budget rule skips the
    /// never-admitted gap and counts it honestly.)
    ///
    /// Returns what the table did (hit / new / evicted) so the caller
    /// can count evictions against its own admission ledger.
    pub fn ingest_segment_at(
        &mut self,
        segment: FlowSegment<'_>,
        time: u64,
        resync: bool,
        mut scan: impl FnMut(&mut S, &[u8], &mut Vec<Match>),
        out: &mut Vec<FlowMatch>,
    ) -> FlowLookup {
        let mut scratch = std::mem::take(&mut self.scratch);
        let (index, outcome) = self.touch_slot(segment.key, time, |victim, state| {
            finish_into(victim, state, &mut scratch, out)
        });
        scratch.clear();
        let (slots, stats) = (&mut self.slots, &mut self.stats);
        if resync {
            // Deliver whatever the flow still buffers before
            // repositioning: those bytes were admitted, so they must
            // reach the scanner (hole-skips counted) — a plain
            // `reset_at` would discard them without a trace and leave
            // the `bytes_held` gauge stale.
            slots[index]
                .state
                .flush(&mut scan, &mut scratch, &mut stats.reassembly);
            slots[index].state.reset_at(segment.seq);
        }
        slots[index].state.ingest(
            segment.seq,
            segment.payload,
            &mut scan,
            &mut scratch,
            &mut stats.reassembly,
        );
        tag_into(segment.key, &scratch, out);
        self.scratch = scratch;
        outcome
    }

    /// Flushes every resident flow's reassembler: abandons outstanding
    /// holes and scans all buffered data (end of capture, or a periodic
    /// drain alongside [`FlowTable::evict_idle`]). Matches land in `out`
    /// (cleared first) tagged with their flow.
    pub fn flush_flows(
        &mut self,
        mut scan: impl FnMut(&mut S, &[u8], &mut Vec<Match>),
        out: &mut Vec<FlowMatch>,
    ) {
        out.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        let (slots, stats) = (&mut self.slots, &mut self.stats);
        for slot in slots.iter_mut().filter(|s| s.occupied) {
            scratch.clear();
            slot.state.flush(&mut scan, &mut scratch, &mut stats.reassembly);
            tag_into(slot.key, &scratch, out);
        }
        self.scratch = scratch;
    }

    /// Total out-of-order bytes buffered across all resident flows —
    /// always ≤ `len() × budget`, and equal to the
    /// [`ReassemblyStats::bytes_held`] gauge in [`FlowTable::stats`].
    pub fn buffered_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.occupied)
            .map(|s| s.state.held_bytes())
            .sum()
    }
}

/// Appends `matches` to `out`, each tagged with flow `key`.
fn tag_into(key: FlowKey, matches: &[Match], out: &mut Vec<FlowMatch>) {
    out.extend(matches.iter().map(|&m| FlowMatch { key, matched: m }));
}

/// Appends what evicted flow `key`'s state still holds
/// ([`FlowState::finish`]) to `out`, through `scratch`.
fn finish_into<S: FlowState>(
    key: FlowKey,
    state: &mut S,
    scratch: &mut Vec<Match>,
    out: &mut Vec<FlowMatch>,
) {
    scratch.clear();
    state.finish(scratch);
    tag_into(key, scratch, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{CompiledAutomaton, CompiledMatcher};
    use crate::lookup_table::DtpConfig;
    use crate::reduce::ReducedAutomaton;
    use dpi_automaton::{Dfa, MultiMatcher, PatternSet};

    fn matcher_fixture() -> (PatternSet, CompiledAutomaton) {
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        let dfa = Dfa::build(&set);
        let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        (set, CompiledAutomaton::compile(&reduced))
    }

    #[test]
    fn capacity_is_bounded_and_rounded() {
        let t: FlowTable<ScanState> = FlowTable::new(100, ScanState::fresh());
        assert!(t.capacity() >= 100);
        assert_eq!(t.capacity() % t.ways(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn touch_hit_miss_and_state_persistence() {
        let mut t: FlowTable<ScanState> = FlowTable::new(64, ScanState::fresh());
        let k = FlowKey(42);
        let (state, outcome) = t.touch(k);
        assert_eq!(outcome, FlowLookup::New);
        state.push_byte(b'x');
        let (state, outcome) = t.touch(k);
        assert_eq!(outcome, FlowLookup::Hit);
        assert_eq!(state.offset, 1, "state must persist across touches");
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn full_set_evicts_lru_and_resets_state() {
        // 1-way table with 1 set: every distinct key evicts the previous.
        let mut t: FlowTable<ScanState> = FlowTable::with_ways(1, 1, ScanState::fresh());
        assert_eq!(t.capacity(), 1);
        let (state, _) = t.touch(FlowKey(1));
        state.push_byte(b'a');
        let (state, outcome) = t.touch(FlowKey(2));
        assert_eq!(outcome, FlowLookup::Evicted(FlowKey(1)));
        assert_eq!(state.offset, 0, "evicted slot must be reset, not leaked");
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().evictions, 1);
        // The evicted flow restarting is a miss with fresh state.
        let (state, outcome) = t.touch(FlowKey(1));
        assert!(matches!(outcome, FlowLookup::Evicted(_)));
        assert_eq!(state.offset, 0);
    }

    #[test]
    fn lru_prefers_the_stalest_resident() {
        // Force both keys into one set by using a 1-set table (ways 2).
        let mut t: FlowTable<ScanState> = FlowTable::with_ways(2, 2, ScanState::fresh());
        assert_eq!(t.capacity(), 2);
        t.touch(FlowKey(1));
        t.touch(FlowKey(2));
        t.touch(FlowKey(1)); // 2 is now LRU
        let (_, outcome) = t.touch(FlowKey(3));
        assert_eq!(outcome, FlowLookup::Evicted(FlowKey(2)));
        let (_, outcome) = t.touch(FlowKey(1));
        assert_eq!(outcome, FlowLookup::Hit, "MRU flow must have survived");
    }

    #[test]
    fn remove_and_idle_eviction() {
        let mut t: FlowTable<ScanState> = FlowTable::new(64, ScanState::fresh());
        t.touch(FlowKey(1));
        t.touch(FlowKey(2));
        assert!(t.remove(FlowKey(1)));
        assert!(!t.remove(FlowKey(1)));
        assert_eq!(t.len(), 1);
        // Flow 2 last touched at tick 2; 60 touches later it is idle.
        for i in 0..60u128 {
            t.touch(FlowKey(100 + i));
        }
        let evicted = t.evict_idle(30);
        assert!(evicted >= 1, "flow 2 must be retired as idle");
        assert_eq!(t.stats().idle_evictions, evicted as u64);
        assert!(!t.remove(FlowKey(2)));
    }

    #[test]
    fn timestamps_drive_lru_and_idle_eviction() {
        // 1-set table, 2 ways; timestamps in fake nanoseconds.
        let mut t: FlowTable<ScanState> = FlowTable::with_ways(2, 2, ScanState::fresh());
        t.touch_at(FlowKey(1), 1_000);
        t.touch_at(FlowKey(2), 2_000);
        t.touch_at(FlowKey(1), 5_000); // flow 2 is now LRU by time
        assert_eq!(t.now(), 5_000);
        let (_, outcome) = t.touch_at(FlowKey(3), 6_000);
        assert_eq!(outcome, FlowLookup::Evicted(FlowKey(2)));
        // Idle eviction in the same unit: flow 3 (last seen 6_000) is
        // idle once the clock passes 6_000 + 3_000.
        t.touch_at(FlowKey(1), 10_000);
        assert_eq!(t.evict_idle(3_000), 1);
        assert!(!t.remove(FlowKey(3)));
        assert!(t.remove(FlowKey(1)));
    }

    #[test]
    fn out_of_order_timestamps_never_rewind_the_clock() {
        let mut t: FlowTable<ScanState> = FlowTable::new(16, ScanState::fresh());
        t.touch_at(FlowKey(1), 9_000);
        // A late packet with an older stamp: clock holds at 9_000 and
        // the touched flow is treated as most-recent.
        t.touch_at(FlowKey(2), 4_000);
        assert_eq!(t.now(), 9_000);
        assert_eq!(t.evict_idle(1_000), 0, "no flow may look future-idle");
        // Mixing in a tick-based touch keeps monotonicity.
        t.touch(FlowKey(3));
        assert_eq!(t.now(), 9_001);
    }

    #[test]
    fn ingest_batch_at_scans_and_stamps() {
        let (set, compiled) = matcher_fixture();
        let m = CompiledMatcher::new(&compiled, &set);
        let mut table = FlowTable::new(64, ScanState::fresh());
        let (a, b) = (FlowKey(1), FlowKey(2));
        let packets = [
            (FlowPacket { key: a, payload: b"ushe" }, 100u64),
            (FlowPacket { key: b, payload: b"zzzz" }, 200),
            (FlowPacket { key: a, payload: b"rs" }, 300),
        ];
        let mut alerts = Vec::new();
        table.ingest_batch_at(
            packets.iter().copied(),
            |state, chunk, out| m.scan_chunk_into(state, chunk, out),
            &mut alerts,
        );
        assert_eq!(table.now(), 300);
        let whole = m.find_all(b"ushers");
        assert_eq!(alerts.len(), whole.len());
        for (alert, want) in alerts.iter().zip(&whole) {
            assert_eq!(alert.key, a);
            assert_eq!(alert.matched, *want);
        }
        // Flow b idle after 200; duration units are the caller's.
        assert_eq!(table.evict_idle(99), 1);
    }

    #[test]
    fn ingest_batch_attributes_matches_to_flows() {
        let (set, compiled) = matcher_fixture();
        let m = CompiledMatcher::new(&compiled, &set);
        let mut table = FlowTable::new(256, ScanState::fresh());
        let (a, b) = (FlowKey(1), FlowKey(2));
        // Flow a carries "ushers" split 2/4; flow b carries no match and
        // is interleaved to try to pollute a's history.
        let packets = [
            FlowPacket { key: a, payload: b"us" },
            FlowPacket { key: b, payload: b"hhhh" },
            FlowPacket { key: a, payload: b"hers" },
            FlowPacket { key: b, payload: b"xx" },
        ];
        let mut alerts = Vec::new();
        table.ingest_batch(
            packets.iter().copied(),
            |state, chunk, out| m.scan_chunk_into(state, chunk, out),
            &mut alerts,
        );
        let whole = m.find_all(b"ushers");
        assert_eq!(alerts.len(), whole.len());
        for (alert, want) in alerts.iter().zip(&whole) {
            assert_eq!(alert.key, a);
            assert_eq!(alert.matched, *want);
        }
    }

    #[test]
    fn eviction_mid_flow_loses_only_straddling_matches() {
        let (set, compiled) = matcher_fixture();
        let m = CompiledMatcher::new(&compiled, &set);
        // Capacity-1 table: interleaving two flows evicts each other's
        // state between every packet.
        let mut table = FlowTable::with_ways(1, 1, ScanState::fresh());
        let (a, b) = (FlowKey(1), FlowKey(2));
        let packets = [
            FlowPacket { key: a, payload: b"she" },  // she, he complete here
            FlowPacket { key: b, payload: b"x" },    // evicts a
            FlowPacket { key: a, payload: b"rs" },   // "hers" straddles → lost
            FlowPacket { key: a, payload: b"ushers" }, // same packet: all found
        ];
        let mut alerts = Vec::new();
        table.ingest_batch(
            packets.iter().copied(),
            |state, chunk, out| m.scan_chunk_into(state, chunk, out),
            &mut alerts,
        );
        let a_matches: Vec<Match> = alerts
            .iter()
            .filter(|f| f.key == a)
            .map(|f| f.matched)
            .collect();
        // Packet 1: she@..3 + he@..3. Packet 3 ("rs") alone: nothing —
        // the straddling "hers" is the documented loss. Packet 4 restarts
        // at offset 0 and finds she/he/hers within itself.
        assert_eq!(a_matches.len(), 2 + 3);
        assert!(table.stats().evictions >= 2);
    }

    #[test]
    fn evicted_out_of_order_bytes_balance_the_ledger() {
        use crate::reassembly::{ReassemblyConfig, StreamFlow};
        // One 8-way set: a ninth live flow must evict, and every flow
        // holds 20 reordered bytes when it goes.
        let template = StreamFlow::new(ReassemblyConfig::new(4096), ScanState::fresh());
        let mut table = FlowTable::with_ways(8, 8, template);
        let (mut admitted, mut delivered, mut now) = (0u64, 0u64, 0u64);
        let mut out = Vec::new();
        let mut ingest = |table: &mut FlowTable<StreamFlow<ScanState>>, key, seq, len| {
            admitted += len as u64;
            now += 1;
            let payload = vec![b'x'; len];
            let segment = FlowSegment {
                key: FlowKey(key),
                seq,
                payload: &payload,
            };
            let count =
                |_: &mut ScanState, c: &[u8], _: &mut Vec<Match>| delivered += c.len() as u64;
            table.ingest_segment_at(segment, now, false, count, &mut out);
        };
        // Round 1: nine flows each buffer bytes 10..30 (the ninth
        // evicts flow 0). Round 2: bytes 0..10 for each flow miss again
        // and evict, cyclically, the eight flows still holding bytes.
        for key in 0..9 {
            ingest(&mut table, key, 10, 20);
        }
        for key in 0..9 {
            ingest(&mut table, key, 0, 10);
        }
        // The other two drop sites: remove and idle retirement.
        ingest(&mut table, 100, 10, 20);
        assert!(table.remove(FlowKey(100)));
        ingest(&mut table, 101, 10, 20);
        table.touch_at(FlowKey(2), 1_000);
        assert_eq!(table.evict_idle(500), 7, "all but the flow just touched");
        let stats = table.stats();
        assert_eq!(stats.evictions, 11);
        assert_eq!(stats.reassembly.evicted_bytes, 9 * 20 + 20 + 20);
        assert_eq!(stats.reassembly.bytes_held, 0);
        assert_eq!(stats.reassembly.dup_bytes, 0);
        assert_eq!(delivered + stats.reassembly.evicted_bytes, admitted);
    }

    #[test]
    fn ingest_is_allocation_stable_on_scratch() {
        let (set, compiled) = matcher_fixture();
        let m = CompiledMatcher::new(&compiled, &set);
        let mut table = FlowTable::new(16, ScanState::fresh());
        let packets = [FlowPacket { key: FlowKey(9), payload: b"ushers hers" }];
        let mut alerts = Vec::new();
        table.ingest_batch(
            packets.iter().copied(),
            |state, chunk, out| m.scan_chunk_into(state, chunk, out),
            &mut alerts,
        );
        let cap = table.scratch.capacity();
        assert!(cap >= 4);
        table.ingest_batch(
            packets.iter().copied(),
            |state, chunk, out| m.scan_chunk_into(state, chunk, out),
            &mut alerts,
        );
        assert_eq!(table.scratch.capacity(), cap, "scratch must be reused");
    }

    #[test]
    fn malformed_configs_are_typed_errors() {
        assert_eq!(
            FlowTable::<ScanState>::try_new(0, ScanState::fresh()).err(),
            Some(FlowConfigError::ZeroCapacity)
        );
        assert_eq!(
            FlowTable::<ScanState>::try_with_ways(8, 0, ScanState::fresh()).err(),
            Some(FlowConfigError::ZeroWays)
        );
        assert_eq!(
            FlowConfigError::ZeroCapacity.to_string(),
            "flow table capacity must be non-zero"
        );
        assert!(FlowTable::<ScanState>::try_with_ways(8, 2, ScanState::fresh()).is_ok());
    }

    #[test]
    #[should_panic(expected = "flow table capacity must be non-zero")]
    fn zero_capacity_still_panics_on_the_infallible_path() {
        let _ = FlowTable::<ScanState>::new(0, ScanState::fresh());
    }

    #[test]
    fn get_mut_peeks_without_perturbing() {
        let mut t: FlowTable<ScanState> = FlowTable::new(16, ScanState::fresh());
        assert!(t.get_mut(FlowKey(5)).is_none());
        t.touch(FlowKey(5));
        let stats = t.stats();
        let state = t.get_mut(FlowKey(5)).expect("resident");
        state.push_byte(b'x');
        assert_eq!(t.stats(), stats, "peek must not count hits or misses");
        assert_eq!(t.get_mut(FlowKey(5)).unwrap().offset, 1);
    }

    #[test]
    fn flow_key_packing_is_injective_on_fields() {
        let a = FlowKey::from_v4(1, 2, 3, 4, 6);
        let b = FlowKey::from_v4(1, 2, 3, 4, 17);
        let c = FlowKey::from_v4(1, 2, 4, 3, 6);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.to_string().starts_with("flow:"));
    }
}
