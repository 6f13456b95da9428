//! Overload-resilient DPI service runtime: per-core flow workers with
//! backpressure, a graceful-degradation ladder, ruleset hot-swap, and
//! worker fault isolation.
//!
//! The matcher stack below this module answers "how fast can one core
//! scan bytes it is handed?". A resident inspection node must answer a
//! harder question: what happens in the moments it *cannot* keep up —
//! bursts past line rate, elephant flows skewing one queue, a ruleset
//! reload mid-stream, a worker fault. This module makes those moments
//! part of the contract instead of undefined behaviour:
//!
//! - **Steering.** Packets are steered RSS-style by a hash of their
//!   [`FlowKey`] onto bounded per-worker queues, so one flow's bytes
//!   always reach one worker in order and per-flow scanner state never
//!   crosses cores.
//! - **Backpressure and shedding.** When a worker's queue fills, the
//!   producer sheds **whole flows**, never individual packets: a flow
//!   picked for shedding stays shed until pressure clears, then resumes
//!   with an explicit [`FlowState::reset_at`] resync at its next
//!   segment — a stream is either scanned contiguously or visibly cut,
//!   never silently corrupted. Every shed byte is counted.
//! - **Degradation ladder.** Under sustained queue pressure a worker
//!   descends from [`FidelityTier::Exact`] to [`FidelityTier::FlagOnly`],
//!   with hysteresis in both directions, and climbs back automatically
//!   when the queue drains. A rung exists only where it walks fewer
//!   automata per byte than the rung above ([`RulesetArena::rungs`]);
//!   on a one-rung arena shedding alone answers overload. Per-tier
//!   fidelity is documented on [`FidelityTier`]; per-tier scanned bytes
//!   are counted so a capture's effective fidelity is auditable after
//!   the fact.
//! - **Hot-swap.** A new ruleset compiles into a fresh [`RulesetArena`]
//!   off the worker threads, then flips in by [`Arc`] swap; each flow's
//!   scan state lazily regenerates at its current stream offset on next
//!   delivery (boundary-local loss, counted). A failed build rolls back
//!   to the old arena — the service never runs ruleless.
//! - **Fault isolation.** A panicking worker is caught per queue item
//!   ([`std::panic::catch_unwind`] around each item in the threaded
//!   runtime; the simulator models the unwind), its flow table is
//!   rebuilt, and its flows re-materialize on their next segment — the
//!   reassembler's budget rule skips the gap the dead table took with
//!   it and counts the loss as skipped holes — boundary-local loss,
//!   counted, instead of a dead core.
//!
//! Two drivers share the same `WorkerCore` logic: [`Service`] runs
//! real threads with swap inboxes and wall-clock latency histograms;
//! [`ServiceSim`] runs the identical per-worker state machine in
//! lockstep on one thread, driven by a seeded [`FaultPlan`] so every
//! recovery path above is deterministic and property-testable.
//!
//! # Fidelity ladder
//!
//! [`RulesetArena::build`] reads both the engine behind `Exact` and the
//! rungs below it from the shard plan, counting automaton walks per
//! byte; nothing is timed and no option selects them.
//!
//! | Tier | Engine | Fidelity | Exists |
//! |------|--------|----------|--------|
//! | [`Exact`](FidelityTier::Exact) | the sharded matcher (every shard per byte) on a one-shard plan; the two-stage matcher (one cover walk per byte, one verifier walk only over flagged windows) on a multi-shard plan — see [`ExactEngine`] | exact: every occurrence of every pattern; both engines emit the same stream | always |
//! | [`FlagOnly`](FidelityTier::FlagOnly) | the two-stage matcher's stage-1 sweep without window replay | reported matches all true; windowed-family occurrences missed but **counted** as [`suspect_flags`](crate::two_stage::TwoStageStats::suspect_flags) | only where `Exact` runs the two-stage engine and its verifier exists |
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dpi_automaton::PatternSet;
//! use dpi_core::service::{RulesetArena, ServiceConfig, ServiceSim};
//! use dpi_core::{FlowKey, TwoStageConfig};
//!
//! let set = PatternSet::new(["attack-sig", "evil-payload"])?;
//! let arena = Arc::new(RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 1)?);
//! let mut sim = ServiceSim::new(arena, ServiceConfig::with_workers(2))?;
//! sim.offer(FlowKey(7), 0, b"xx attack-sig yy", 1);
//! sim.pump();
//! let report = sim.finish();
//! assert_eq!(report.matches.len(), 1);
//! assert_eq!(report.stats.offered_bytes, report.stats.admitted_bytes);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use dpi_automaton::{Match, PatternSet, ShardPlanError};

use crate::flow::{FlowConfigError, FlowKey, FlowMatch, FlowSegment, FlowState, FlowTable};
use crate::protocol::{ProtoConfig, ProtoFlow, ProtocolStats};
use crate::reassembly::{ReassemblyConfig, ReassemblyConfigError, StreamFlow};
use crate::sharded::{ShardedMatcher, ShardedScanState, ShardedScratch};
use crate::two_stage::{TwoStageConfig, TwoStageMatcher, TwoStageScratch, TwoStageState};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Degradation-ladder thresholds, in queue-depth units, with hysteresis
/// in batches. A worker samples its queue depth once per batch it takes:
/// depths at or above `high_water` accumulate toward a descent, depths
/// at or below `low_water` accumulate toward a recovery, and the two
/// counters reset each other — so a queue oscillating across one
/// threshold cannot flap the tier.
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Queue depth at or above which a batch counts as overload.
    pub high_water: usize,
    /// Queue depth at or below which a batch counts as calm.
    pub low_water: usize,
    /// Consecutive overload batches before descending one tier.
    pub descend_after: u32,
    /// Consecutive calm batches before ascending one tier (recovery is
    /// deliberately slower than descent: set this higher than
    /// `descend_after` to avoid thrashing at the boundary).
    pub ascend_after: u32,
}

impl Default for LadderConfig {
    fn default() -> LadderConfig {
        LadderConfig {
            high_water: 48,
            low_water: 8,
            descend_after: 4,
            ascend_after: 16,
        }
    }
}

/// Load-shedding thresholds. Shedding starts when a queue is full
/// (depth ≥ `queue_cap`) and a shed flow resumes only once its queue's
/// depth has fallen to `resume_below` — the gap is the hysteresis that
/// stops a flow from resuming into a queue that is about to refuse its
/// next packet.
///
/// Each queue remembers at most [`ServiceConfig::flow_capacity`] shed
/// flows, so a resident service's gate memory stays bounded. Past that
/// it forgets one remembered flow per newly shed one; a forgotten flow
/// that returns is admitted without a resync marker, and reassembly
/// skips its never-admitted gap and counts it as a hole, as for a flow
/// the table evicted.
#[derive(Debug, Clone, Copy)]
pub struct ShedConfig {
    /// Queue depth a shed flow's queue must fall to before the flow is
    /// readmitted (with a resync marker).
    pub resume_below: usize,
}

impl Default for ShedConfig {
    fn default() -> ShedConfig {
        ShedConfig { resume_below: 16 }
    }
}

/// Full service-runtime configuration. Construct with
/// [`ServiceConfig::with_workers`] and adjust fields; every constructor
/// of [`Service`] / [`ServiceSim`] validates with
/// [`ServiceConfig::validate`] so a malformed config is an error value,
/// never a worker panic.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker (and queue) count.
    pub workers: usize,
    /// Bounded queue capacity, in packets, per worker.
    pub queue_cap: usize,
    /// Most packets a worker drains per batch (one ladder observation
    /// per batch).
    pub batch: usize,
    /// Per-worker flow-table capacity (flows).
    pub flow_capacity: usize,
    /// Flow-table associativity.
    pub flow_ways: usize,
    /// Per-flow reassembly budget and overlap policy.
    pub reassembly: ReassemblyConfig,
    /// Per-flow protocol detect/normalize stage. Workers pipeline
    /// reassemble → detect/normalize → scan; disable (or rely on the
    /// fail-open downgrades) to get plain raw-byte scanning. The
    /// workers' tier engines carry no lane masks, so every lane is
    /// scanned with the full ruleset; [`ScopedRuleset`] scoping applies
    /// to pipelines that scan through one.
    ///
    /// [`ScopedRuleset`]: crate::protocol::ScopedRuleset
    pub protocol: ProtoConfig,
    /// Degradation-ladder thresholds.
    pub ladder: LadderConfig,
    /// Load-shedding thresholds.
    pub shed: ShedConfig,
}

impl ServiceConfig {
    /// Defaults for `workers` cores: 256-deep queues, 64-packet
    /// batches, 4096 flows per worker, default reassembly/ladder/shed
    /// settings.
    pub fn with_workers(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            queue_cap: 256,
            batch: 64,
            flow_capacity: 4096,
            flow_ways: crate::flow::DEFAULT_WAYS,
            reassembly: ReassemblyConfig::default(),
            protocol: ProtoConfig::default(),
            ladder: LadderConfig::default(),
            shed: ShedConfig::default(),
        }
    }

    /// Rejects configurations that cannot produce a working runtime.
    pub fn validate(&self) -> Result<(), ServiceConfigError> {
        if self.workers == 0 {
            return Err(ServiceConfigError::ZeroWorkers);
        }
        if self.queue_cap == 0 {
            return Err(ServiceConfigError::ZeroQueue);
        }
        if self.batch == 0 {
            return Err(ServiceConfigError::ZeroBatch);
        }
        if self.ladder.low_water >= self.ladder.high_water {
            return Err(ServiceConfigError::LadderInverted);
        }
        if self.ladder.descend_after == 0 || self.ladder.ascend_after == 0 {
            return Err(ServiceConfigError::LadderZeroHysteresis);
        }
        if self.shed.resume_below >= self.queue_cap {
            return Err(ServiceConfigError::ShedInverted);
        }
        // Borrow the flow/reassembly validators so their error cases
        // stay in one place.
        FlowTable::try_with_ways(self.flow_capacity, self.flow_ways, NullState)?;
        ReassemblyConfig::try_new(self.reassembly.budget)?;
        Ok(())
    }
}

/// Zero-sized [`FlowState`] used only to run [`FlowTable`]'s config
/// validation without building real scanner states.
#[derive(Clone, Copy)]
struct NullState;

impl FlowState for NullState {
    fn reset(&mut self) {}
    fn reset_at(&mut self, _offset: u64) {}
}

/// A [`ServiceConfig`] that can never produce a working runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceConfigError {
    /// `workers` was zero.
    ZeroWorkers,
    /// `queue_cap` was zero — every packet would shed.
    ZeroQueue,
    /// `batch` was zero — workers could never drain.
    ZeroBatch,
    /// `ladder.low_water >= ladder.high_water` — hysteresis band empty
    /// or inverted.
    LadderInverted,
    /// A ladder hysteresis count was zero — the tier would flap on
    /// every batch.
    LadderZeroHysteresis,
    /// `shed.resume_below >= queue_cap` — a shed flow would resume into
    /// a full queue.
    ShedInverted,
    /// The per-worker flow table config was invalid.
    Flow(FlowConfigError),
    /// The per-flow reassembly config was invalid.
    Reassembly(ReassemblyConfigError),
}

impl std::fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceConfigError::ZeroWorkers => write!(f, "worker count must be non-zero"),
            ServiceConfigError::ZeroQueue => write!(f, "queue capacity must be non-zero"),
            ServiceConfigError::ZeroBatch => write!(f, "batch size must be non-zero"),
            ServiceConfigError::LadderInverted => {
                write!(f, "ladder low_water must be below high_water")
            }
            ServiceConfigError::LadderZeroHysteresis => {
                write!(f, "ladder hysteresis counts must be non-zero")
            }
            ServiceConfigError::ShedInverted => {
                write!(f, "shed resume_below must be below queue_cap")
            }
            ServiceConfigError::Flow(e) => write!(f, "flow table: {e}"),
            ServiceConfigError::Reassembly(e) => write!(f, "reassembly: {e}"),
        }
    }
}

impl std::error::Error for ServiceConfigError {}

impl From<FlowConfigError> for ServiceConfigError {
    fn from(e: FlowConfigError) -> ServiceConfigError {
        ServiceConfigError::Flow(e)
    }
}

impl From<ReassemblyConfigError> for ServiceConfigError {
    fn from(e: ReassemblyConfigError) -> ServiceConfigError {
        ServiceConfigError::Reassembly(e)
    }
}

// ---------------------------------------------------------------------------
// Arena, tiers, per-flow state
// ---------------------------------------------------------------------------

/// Which compiled engine serves [`FidelityTier::Exact`]. Both emit the
/// same match stream in the same order (`tests/two_stage.rs`);
/// [`RulesetArena::build`] picks the one that walks fewer automata per
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactEngine {
    /// [`ShardedMatcher`]: every byte through every shard.
    Sharded,
    /// [`TwoStageMatcher`]: every byte through one cover automaton, and
    /// through the one verifier automaton only inside flagged windows.
    TwoStage,
}

/// One generation of compiled rules: the sharded matcher and the
/// two-stage matcher built from the same pattern set, plus the choice,
/// made once from the shard plan, of which serves
/// [`Exact`](FidelityTier::Exact) and which rungs the ladder has.
/// Workers hold it behind an [`Arc`]; a hot-swap builds the next
/// generation off-thread and flips the pointer, so scan paths never
/// wait on a build.
#[derive(Debug)]
pub struct RulesetArena {
    exact: ShardedMatcher,
    two: TwoStageMatcher,
    engine: ExactEngine,
    rungs: &'static [FidelityTier],
    generation: u64,
}

impl RulesetArena {
    /// Compiles both engines from `set`: the sharded matcher, then the
    /// two-stage matcher, whose replay verifier is compiled only when
    /// its cover can open a window (see [`TwoStageMatcher::exact`]).
    /// The sharded matcher is built even where it does not serve: it is
    /// the reference the two-stage stream is checked against.
    ///
    /// The engine behind `Exact` is read from the plan, never timed:
    /// the sharded engine walks [`ShardedMatcher::shard_count`]
    /// automata per byte, the two-stage engine one cover automaton plus
    /// its one verifier automaton over flagged windows only. So the
    /// two-stage engine serves when the plan has more than one shard; a
    /// tie keeps the sharded engine, which pays no singles sweep and no
    /// confirm step. [`FlagOnly`](FidelityTier::FlagOnly) exists only
    /// where it skips walks `Exact` makes: over a two-stage `Exact` whose
    /// verifier exists.
    ///
    /// `generation` must be strictly greater than any arena this one
    /// will replace — per-flow scan states carry the generation they
    /// were built against and regenerate when it no longer matches.
    pub fn build(
        set: &PatternSet,
        config: &TwoStageConfig,
        generation: u64,
    ) -> Result<RulesetArena, ShardPlanError> {
        let exact = ShardedMatcher::build(set, &config.exact)?;
        let two = TwoStageMatcher::build(set, config)?;
        let engine = if exact.shard_count() > 1 {
            ExactEngine::TwoStage
        } else {
            ExactEngine::Sharded
        };
        let rungs: &'static [FidelityTier] =
            if engine == ExactEngine::TwoStage && two.exact().shard_count() > 0 {
                &[FidelityTier::Exact, FidelityTier::FlagOnly]
            } else {
                &[FidelityTier::Exact]
            };
        Ok(RulesetArena {
            exact,
            two,
            engine,
            rungs,
            generation,
        })
    }

    /// The sharded engine. It serves `Exact` only where
    /// [`exact_engine`](Self::exact_engine) says so, but every arena
    /// holds it as the reference for the match stream.
    pub fn exact(&self) -> &ShardedMatcher {
        &self.exact
    }

    /// The two-stage engine: serves `Exact` where
    /// [`exact_engine`](Self::exact_engine) says so, and `FlagOnly`
    /// wherever that rung exists.
    pub fn two_stage(&self) -> &TwoStageMatcher {
        &self.two
    }

    /// The engine that serves [`FidelityTier::Exact`].
    pub fn exact_engine(&self) -> ExactEngine {
        self.engine
    }

    /// The ladder's rungs, most faithful first: `[Exact]`, or `[Exact,
    /// FlagOnly]` where `FlagOnly` walks fewer automata than `Exact`.
    pub fn rungs(&self) -> &'static [FidelityTier] {
        self.rungs
    }

    /// This arena's generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The graceful-degradation ladder, most faithful first. Which rungs a
/// worker can stand on is its arena's call ([`RulesetArena::rungs`]);
/// see the [module docs](self) for the per-tier fidelity table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FidelityTier {
    /// Every occurrence of every pattern, from the engine
    /// [`RulesetArena::exact_engine`] names.
    Exact,
    /// The two-stage engine's stage-1 sweep only: true-positive matches
    /// still emitted, windowed-family occurrences recorded as suspect
    /// flags instead of verified.
    FlagOnly,
}

impl FidelityTier {
    /// Index into per-tier counter arrays and into
    /// [`RulesetArena::rungs`].
    fn index(self) -> usize {
        match self {
            FidelityTier::Exact => 0,
            FidelityTier::FlagOnly => 1,
        }
    }
}

/// Per-flow scanner state that survives tier moves and ruleset swaps:
/// the state of the engine its arena runs, plus the arena generation it
/// was built against. The state follows the engine, not the tier:
/// `Exact` and `FlagOnly` on a two-stage arena share one two-stage
/// state, so moves between them rebuild nothing and drop nothing.
/// Materialization is lazy — a flow touched after a swap rebuilds its
/// state *at its current stream offset* on next delivery
/// ([`FlowState::reset_at`] semantics: boundary-local loss only, and
/// the rebuild is counted).
#[derive(Debug, Clone)]
pub struct TierScan {
    generation: u64,
    kind: TierKind,
}

#[derive(Debug, Clone)]
enum TierKind {
    /// Not yet materialized against any arena; scanning will resume at
    /// `at`.
    Fresh { at: u64 },
    Sharded(ShardedScanState),
    // Boxed: a two-stage state is several times the size of the other
    // variants, and a TierScan is per-flow — millions of resident
    // flows would otherwise all pay the largest variant's footprint.
    Two(Box<TwoStageState>),
}

impl TierScan {
    /// A state that materializes on first delivery.
    pub fn fresh() -> TierScan {
        TierScan {
            generation: 0,
            kind: TierKind::Fresh { at: 0 },
        }
    }

    /// Stream offset consumed so far.
    pub fn offset(&self) -> u64 {
        match &self.kind {
            TierKind::Fresh { at } => *at,
            TierKind::Sharded(s) => s.offset(),
            TierKind::Two(s) => s.offset(),
        }
    }
}

impl FlowState for TierScan {
    fn reset(&mut self) {
        self.generation = 0;
        self.kind = TierKind::Fresh { at: 0 };
    }

    fn reset_at(&mut self, offset: u64) {
        match &mut self.kind {
            TierKind::Fresh { at } => *at = offset,
            TierKind::Sharded(s) => s.reset_at(offset),
            TierKind::Two(s) => FlowState::reset_at(s.as_mut(), offset),
        }
    }

    fn finish(&mut self, out: &mut Vec<Match>) {
        if let TierKind::Two(s) = &mut self.kind {
            s.finish(out);
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// One worker's cumulative counters (survive panics and restarts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Segments processed.
    pub packets: u64,
    /// Bytes delivered to the scan stage per tier, indexed
    /// `[exact, flag_only]`. A byte counts where it was
    /// delivered, after reassembly — so the sum is delivered bytes, not
    /// admitted bytes (duplicates are trimmed, buffered bytes count when
    /// delivered or flushed). The protocol stage's ledger
    /// ([`ProtocolStats`]) splits the same total into normalized vs
    /// raw-scanned bytes.
    pub tier_bytes: [u64; 2],
    /// Matches emitted.
    pub matches: u64,
    /// Window-opening flags recorded unverified by flag-only scans —
    /// the honest record of what the degraded tier did not check.
    pub suspect_flags: u64,
    /// Ladder descents.
    pub degrades: u64,
    /// Ladder ascents.
    pub recoveries: u64,
    /// Per-flow states rebuilt at their stream offset (tier move or
    /// ruleset swap).
    pub state_rebuilds: u64,
    /// Mid-stream resyncs: flows repositioned by a shed-resume marker.
    pub resyncs: u64,
    /// Ruleset swaps installed.
    pub swaps: u64,
    /// Panics caught (threaded runtime) or injected (simulator).
    pub panics: u64,
    /// Flow tables rebuilt after a panic.
    pub restarts: u64,
    /// Bytes known lost to panics: the panicking item's payload plus
    /// the rebuilt table's buffered reassembly bytes.
    pub panic_lost_bytes: u64,
    /// Protocol detect/normalize counters (ledger, per-protocol flow
    /// counts, fail-open downgrades). `delivered_bytes` here equals the
    /// tier-bytes sum: every byte a worker hands its scanner first
    /// passes through the detect stage.
    pub protocol: ProtocolStats,
}

impl WorkerStats {
    fn absorb(&mut self, other: &WorkerStats) {
        self.packets += other.packets;
        for i in 0..2 {
            self.tier_bytes[i] += other.tier_bytes[i];
        }
        self.matches += other.matches;
        self.suspect_flags += other.suspect_flags;
        self.degrades += other.degrades;
        self.recoveries += other.recoveries;
        self.state_rebuilds += other.state_rebuilds;
        self.resyncs += other.resyncs;
        self.swaps += other.swaps;
        self.panics += other.panics;
        self.restarts += other.restarts;
        self.panic_lost_bytes += other.panic_lost_bytes;
        self.protocol.absorb(&other.protocol);
    }
}

/// Whole-service counters: the steering/shedding side plus every
/// worker's [`WorkerStats`] absorbed. The load-shedding identity
/// `offered == admitted + shed` holds for both packets and bytes at all
/// times. After a full drain of traffic whose segments never overlap
/// buffered data (overlaps are counted in `reassembly.overlap_bytes`),
/// the byte ledger `scanned + dup + panic_lost + evicted == admitted`
/// holds: [`scanned_bytes()`](ServiceStats::scanned_bytes) plus
/// `reassembly.dup_bytes`, `workers.panic_lost_bytes` and
/// `reassembly.evicted_bytes` equals `admitted_bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Packets presented to [`Service::offer`] / [`ServiceSim::offer`].
    pub offered_packets: u64,
    /// Bytes presented.
    pub offered_bytes: u64,
    /// Packets refused by the shed gate.
    pub shed_packets: u64,
    /// Bytes refused by the shed gate.
    pub shed_bytes: u64,
    /// Flows newly placed into shedding.
    pub shed_flows: u64,
    /// Shed flows readmitted (each carries a resync marker). A flow the
    /// shed gate forgot (see [`ShedConfig`]) returns uncounted here.
    pub resumed_flows: u64,
    /// Packets enqueued.
    pub admitted_packets: u64,
    /// Bytes enqueued.
    pub admitted_bytes: u64,
    /// Successful ruleset swaps.
    pub swaps: u64,
    /// Ruleset builds that failed and rolled back.
    pub failed_swaps: u64,
    /// Flows resident across all workers at report time.
    pub flows_resident: u64,
    /// Out-of-order bytes still buffered at report time.
    pub buffered_bytes: u64,
    /// Reassembly counters aggregated across every worker's flow table,
    /// including tables retired by panic recovery (their monotonic
    /// counters survive; their held-bytes gauge is accounted as
    /// [`panic_lost_bytes`](WorkerStats::panic_lost_bytes) instead).
    /// This is the other half of the zero-silent-drops ledger: admitted
    /// bytes not delivered to a scanner show up here as duplicates,
    /// bytes dropped with evicted flows, or buffered residue — never as
    /// nothing.
    pub reassembly: crate::reassembly::ReassemblyStats,
    /// Every worker's counters, absorbed.
    pub workers: WorkerStats,
}

impl ServiceStats {
    /// Total bytes delivered to a scanner at any tier.
    pub fn scanned_bytes(&self) -> u64 {
        self.workers.tier_bytes.iter().sum()
    }
}

/// Adds `src`'s monotonic reassembly counters into `dst` (gauge summed
/// only when `include_gauge` — a retired table's held bytes are lost,
/// not held).
fn add_reassembly(
    dst: &mut crate::reassembly::ReassemblyStats,
    src: &crate::reassembly::ReassemblyStats,
    include_gauge: bool,
) {
    dst.segments += src.segments;
    dst.segments_buffered += src.segments_buffered;
    dst.bytes_buffered += src.bytes_buffered;
    if include_gauge {
        dst.bytes_held += src.bytes_held;
    }
    dst.bytes_held_peak = dst.bytes_held_peak.max(src.bytes_held_peak);
    dst.evicted_bytes += src.evicted_bytes;
    dst.dup_bytes += src.dup_bytes;
    dst.overlap_bytes += src.overlap_bytes;
    dst.overlap_conflicts += src.overlap_conflicts;
    dst.holes_skipped += src.holes_skipped;
    dst.hole_bytes += src.hole_bytes;
    dst.budget_drops += src.budget_drops;
}

// ---------------------------------------------------------------------------
// Worker core (shared by the simulator and the threaded runtime)
// ---------------------------------------------------------------------------

/// One unit of work on a worker queue. A segment carries only its
/// payload's length: the bytes ride, in item order, in the queue's
/// [`Blocks`], and the worker reads them back with
/// [`Blocks::take`] before it processes the item.
enum Item {
    /// A flow segment. `resync` marks the first segment of a flow
    /// readmitted after shedding.
    Segment {
        key: FlowKey,
        seq: u64,
        time: u64,
        resync: bool,
        len: usize,
    },
    /// Install a new ruleset generation.
    Swap(Arc<RulesetArena>),
    /// Injected fault: the worker panics when it dequeues this (the
    /// simulator models the panic; the threaded runtime really
    /// unwinds).
    Panic,
}

impl Item {
    fn payload_len(&self) -> usize {
        match self {
            Item::Segment { len, .. } => *len,
            _ => 0,
        }
    }
}

/// Bytes per payload block: below glibc's default 128 KiB mmap
/// threshold, so blocks come from the heap. A buffer at or above the
/// threshold is mapped, and freeing one raises glibc's dynamic threshold
/// to its size; a multi-MiB slab freed per run left the worker's match
/// log growing by copies instead of remaps (ARCHITECTURE Stage 4).
const BLOCK: usize = 64 * 1024;

/// A queue's payload bytes, in item order, in [`BLOCK`]-byte blocks, so
/// handing a segment to a worker costs a copy and, in steady state, no
/// allocation. Both ends find a payload's place by one rule:
///
/// - [`push`](Self::push) opens a new block only when the payload does
///   not fit in the last block's spare capacity; a block never
///   reallocates, and a payload longer than `BLOCK` gets a block of its
///   own length;
/// - [`take`](Self::take) moves to the next block when `offset + len`
///   exceeds the current block's filled length.
///
/// A zero-length payload occupies no block. A block read to its end goes
/// to `free` (cleared, its capacity kept; an over-long block is freed
/// instead), and `push` refills free blocks before it allocates.
///
/// *Memory bound.* A block opens only when the payload does not fit in
/// the block before it, so any two consecutive blocks hold more than
/// `BLOCK` bytes between them, and only the front block holds bytes
/// already read. A queue holding `q` unread payload bytes therefore has
/// at most `2 × ⌈q / BLOCK⌉ + 1` blocks in flight, and `free` holds at
/// most the peak number in flight.
#[derive(Default)]
struct Blocks {
    /// Blocks in item order; `push` fills the last, `take` reads the
    /// first from `read`.
    filled: VecDeque<Vec<u8>>,
    read: usize,
    free: Vec<Vec<u8>>,
}

impl Blocks {
    /// Appends `payload` behind every queued payload.
    fn push(&mut self, payload: &[u8]) {
        if payload.is_empty() {
            return;
        }
        let fits = self
            .filled
            .back()
            .is_some_and(|block| block.capacity() - block.len() >= payload.len());
        if !fits {
            let reused = if payload.len() <= BLOCK {
                self.free.pop()
            } else {
                None
            };
            let block = reused.unwrap_or_else(|| Vec::with_capacity(payload.len().max(BLOCK)));
            self.filled.push_back(block);
        }
        self.filled
            .back_mut()
            .expect("a block was opened above")
            .extend_from_slice(payload);
    }

    /// The next `len` payload bytes, moving the read cursor past them.
    fn take(&mut self, len: usize) -> &[u8] {
        if len == 0 {
            return &[];
        }
        if self.read + len > self.filled[0].len() {
            let drained = self.filled.pop_front().expect("indexed above");
            self.recycle(drained);
            self.read = 0;
        }
        let start = self.read;
        self.read += len;
        &self.filled[0][start..self.read]
    }

    fn recycle(&mut self, mut block: Vec<u8>) {
        if block.capacity() == BLOCK {
            block.clear();
            self.free.push(block);
        }
    }

    /// The consumer's half of a swap: hands every block this side holds,
    /// all read, to `producer`'s free list, then takes `producer`'s
    /// filled blocks to read from their start.
    fn take_from(&mut self, producer: &mut Blocks) {
        while let Some(block) = self.filled.pop_front() {
            self.recycle(block);
        }
        producer.free.append(&mut self.free);
        std::mem::swap(&mut self.filled, &mut producer.filled);
        self.read = 0;
    }
}

/// The per-worker state machine: arena, tier ladder, flow table,
/// scratches, counters. Both runtimes drive exactly this logic, so the
/// deterministic simulator exercises the same recovery paths the
/// threaded service runs.
struct WorkerCore {
    arena: Arc<RulesetArena>,
    tier: FidelityTier,
    table: FlowTable<Flow>,
    sharded_scratch: ShardedScratch,
    two_scratch: TwoStageScratch,
    ladder: LadderConfig,
    overload_batches: u32,
    calm_batches: u32,
    flow_capacity: usize,
    flow_ways: usize,
    reassembly: ReassemblyConfig,
    protocol: ProtoConfig,
    /// Reassembly counters of tables retired by panic recovery.
    retired_reassembly: crate::reassembly::ReassemblyStats,
    stats: WorkerStats,
    matches: Vec<FlowMatch>,
}

impl WorkerCore {
    fn new(arena: Arc<RulesetArena>, config: &ServiceConfig) -> Result<WorkerCore, ServiceConfigError> {
        let template = StreamFlow::new(
            config.reassembly,
            ProtoFlow::new(TierScan::fresh(), config.protocol),
        );
        let table = FlowTable::try_with_ways(config.flow_capacity, config.flow_ways, template)?;
        let sharded_scratch = arena.exact.scratch();
        let two_scratch = arena.two.scratch();
        Ok(WorkerCore {
            arena,
            tier: FidelityTier::Exact,
            table,
            sharded_scratch,
            two_scratch,
            ladder: config.ladder,
            overload_batches: 0,
            calm_batches: 0,
            flow_capacity: config.flow_capacity,
            flow_ways: config.flow_ways,
            reassembly: config.reassembly,
            protocol: config.protocol,
            retired_reassembly: crate::reassembly::ReassemblyStats::default(),
            stats: WorkerStats::default(),
            matches: Vec::new(),
        })
    }

    /// One ladder observation: called with the queue depth seen when
    /// the worker takes a batch. The arena's rungs bound the moves, so
    /// on a one-rung arena the tier never leaves `Exact`.
    fn observe_queue(&mut self, depth: usize) {
        if depth >= self.ladder.high_water {
            self.calm_batches = 0;
            self.overload_batches += 1;
            if self.overload_batches >= self.ladder.descend_after {
                self.overload_batches = 0;
                if let Some(&next) = self.arena.rungs.get(self.tier.index() + 1) {
                    self.tier = next;
                    self.stats.degrades += 1;
                }
            }
        } else if depth <= self.ladder.low_water {
            self.overload_batches = 0;
            self.calm_batches += 1;
            if self.calm_batches >= self.ladder.ascend_after {
                self.calm_batches = 0;
                if let Some(i) = self.tier.index().checked_sub(1) {
                    self.tier = self.arena.rungs[i];
                    self.stats.recoveries += 1;
                }
            }
        } else {
            self.overload_batches = 0;
            self.calm_batches = 0;
        }
    }

    /// Works one item; `payload` is a segment's bytes, read from its
    /// queue's [`Blocks`] before the call, and empty for other items.
    fn process(&mut self, item: Item, payload: &[u8]) {
        match item {
            Item::Segment {
                key,
                seq,
                time,
                resync,
                ..
            } => self.ingest(key, seq, time, resync, payload),
            Item::Swap(arena) => self.install(arena),
            // `ServiceSim` intercepts Panic and runs `recover` itself;
            // the threaded runtime lets this panic unwind into the
            // `catch_unwind` around each item, which recovers the same
            // way.
            Item::Panic => panic!("injected worker fault"),
        }
    }

    fn ingest(&mut self, key: FlowKey, seq: u64, time: u64, resync: bool, payload: &[u8]) {
        self.stats.packets += 1;
        self.stats.resyncs += u64::from(resync);
        self.scan_with(|table, sink, matches| {
            table.ingest_segment_at(
                FlowSegment { key, seq, payload },
                time,
                resync,
                |flow, chunk, out| sink.deliver(flow, chunk, out),
                matches,
            );
        });
    }

    /// Runs `drive` over the flow table with the tier sink, then folds
    /// the call's counters and new matches into the worker's totals.
    /// The sink borrows the arena and scratches field-disjointly from
    /// the table that calls it.
    fn scan_with(
        &mut self,
        drive: impl FnOnce(&mut FlowTable<Flow>, &mut TierSink<'_>, &mut Vec<FlowMatch>),
    ) {
        let before = self.matches.len();
        let mut sink = TierSink {
            arena: &self.arena,
            tier: self.tier,
            sharded_scratch: &mut self.sharded_scratch,
            two_scratch: &mut self.two_scratch,
            tally: WorkerStats::default(),
        };
        drive(&mut self.table, &mut sink, &mut self.matches);
        self.stats.absorb(&sink.tally);
        self.stats.matches += (self.matches.len() - before) as u64;
    }

    /// Adds this worker's counters and flow-table gauges into `stats`.
    fn stats_into(&self, stats: &mut ServiceStats) {
        stats.workers.absorb(&self.stats);
        stats.flows_resident += self.table.len() as u64;
        stats.buffered_bytes += self.table.buffered_bytes() as u64;
        add_reassembly(&mut stats.reassembly, &self.table.stats().reassembly, true);
        add_reassembly(&mut stats.reassembly, &self.retired_reassembly, false);
    }

    fn install(&mut self, arena: Arc<RulesetArena>) {
        // Scratches are sized to the arena's shard plan; rebuild them
        // with it. Flow states regenerate lazily on next delivery. A
        // tier the new arena has no rung for clamps to its lowest one.
        self.sharded_scratch = arena.exact.scratch();
        self.two_scratch = arena.two.scratch();
        let lowest = arena.rungs[arena.rungs.len() - 1];
        self.tier = self.tier.min(lowest);
        self.arena = arena;
        self.stats.swaps += 1;
    }

    /// Post-panic recovery: count what was knowably lost, rebuild the
    /// flow table (the panic may have left a mid-scan state
    /// inconsistent), keep the arena, counters, and collected matches.
    /// Flows re-materialize on their next segment; the never-readmitted
    /// gap surfaces as reassembly hole-skips, not silent loss.
    fn recover(&mut self) {
        self.stats.panics += 1;
        self.stats.restarts += 1;
        self.stats.panic_lost_bytes += self.table.stats().reassembly.bytes_held;
        add_reassembly(
            &mut self.retired_reassembly,
            &self.table.stats().reassembly,
            false,
        );
        let template = StreamFlow::new(
            self.reassembly,
            ProtoFlow::new(TierScan::fresh(), self.protocol),
        );
        self.table = FlowTable::with_ways(self.flow_capacity, self.flow_ways, template);
        self.sharded_scratch = self.arena.exact.scratch();
        self.two_scratch = self.arena.two.scratch();
    }

    /// End-of-stream drain: flush every flow's reassembler through the
    /// scanner at the current tier, then drain two-stage pending
    /// windows, appending everything to the worker's match log.
    fn finish(&mut self) {
        self.scan_with(|table, sink, matches| {
            let mut flushed = Vec::new();
            table.flush_flows(
                |flow, chunk, out| sink.deliver(flow, chunk, out),
                &mut flushed,
            );
            matches.append(&mut flushed);
            // Two-stage states may hold verified matches behind the
            // merge watermark; drain them per flow.
            let mut tail = Vec::new();
            table.for_each_flow(|key, flow| {
                tail.clear();
                flow.finish(&mut tail);
                matches.extend(tail.iter().map(|&m| FlowMatch { key, matched: m }));
            });
        });
    }
}

/// A worker's per-flow state: reassembler, protocol stage, tier scan.
type Flow = StreamFlow<ProtoFlow<TierScan>>;

/// The scan stage both ingest paths feed: the worker's arena, tier and
/// scratches, plus this call's counters. The counters reach the
/// worker's totals only when the call returns, so an item that panics
/// mid-scan contributes nothing but its counted loss.
struct TierSink<'a> {
    arena: &'a RulesetArena,
    tier: FidelityTier,
    sharded_scratch: &'a mut ShardedScratch,
    two_scratch: &'a mut TwoStageScratch,
    tally: WorkerStats,
}

impl TierSink<'_> {
    /// Delivers one reassembled chunk through the flow's protocol stage
    /// into the tier engine, materializing the flow's scan state for
    /// the current arena first.
    fn deliver(&mut self, flow: &mut ProtoFlow<TierScan>, chunk: &[u8], out: &mut Vec<Match>) {
        let (arena, tier) = (self.arena, self.tier);
        self.tally.tier_bytes[tier.index()] += chunk.len() as u64;
        // A flow scanned while degraded to FlagOnly bypasses
        // normalization permanently (counted `tier_bypassed`): the
        // cheap tier exists to shed work, and a later upgrade must not
        // resume a parser that missed bytes. Every lane maps to the
        // same full-ruleset tier engine: the service's normalization
        // win is decode (catching boundary-split signatures), not
        // scoping.
        let bypass = tier == FidelityTier::FlagOnly;
        flow.deliver(
            chunk,
            bypass,
            &mut self.tally.protocol,
            |_lane, scan: &mut TierScan, bytes: &[u8], out: &mut Vec<Match>| {
                materialize(arena, scan, &mut self.tally.state_rebuilds, out);
                match (&mut scan.kind, tier) {
                    (TierKind::Sharded(state), _) => {
                        arena
                            .exact
                            .scan_chunk_into(state, bytes, self.sharded_scratch, out);
                    }
                    (TierKind::Two(state), FidelityTier::FlagOnly) => {
                        let s0 = state.stats().suspect_flags;
                        arena
                            .two
                            .scan_chunk_flag_only(state, bytes, self.two_scratch, out);
                        self.tally.suspect_flags += state.stats().suspect_flags - s0;
                    }
                    (TierKind::Two(state), FidelityTier::Exact) => {
                        arena
                            .two
                            .scan_chunk_into(state, bytes, self.two_scratch, out);
                    }
                    (TierKind::Fresh { .. }, _) => unreachable!("materialized above"),
                }
            },
            out,
        );
    }
}

/// Ensures `scan` holds a state of the engine `arena` runs: rebuilds it
/// at the flow's current stream offset when the generation or the
/// engine changed. The tier plays no part, so ladder moves rebuild
/// nothing.
fn materialize(
    arena: &RulesetArena,
    scan: &mut TierScan,
    rebuilds: &mut u64,
    out: &mut Vec<Match>,
) {
    let current = scan.generation == arena.generation
        && match &scan.kind {
            TierKind::Fresh { .. } => false,
            TierKind::Sharded(_) => arena.engine == ExactEngine::Sharded,
            TierKind::Two(_) => arena.engine == ExactEngine::TwoStage,
        };
    if !current {
        rebuild(arena, scan, rebuilds, out);
    }
}

/// The rare half of [`materialize`], kept out of line so the per-chunk
/// check stays small in the scan loop. A replaced state first emits the
/// matches it found and still holds ([`FlowState::finish`]).
#[cold]
fn rebuild(arena: &RulesetArena, scan: &mut TierScan, rebuilds: &mut u64, out: &mut Vec<Match>) {
    let at = scan.offset();
    scan.finish(out);
    if !matches!(scan.kind, TierKind::Fresh { .. }) {
        *rebuilds += 1;
    }
    scan.kind = match arena.engine {
        ExactEngine::Sharded => {
            let mut state = arena.exact.flow_state();
            if at > 0 {
                state.reset_at(at);
            }
            TierKind::Sharded(state)
        }
        ExactEngine::TwoStage => {
            let mut state = arena.two.flow_state();
            if at > 0 {
                FlowState::reset_at(&mut state, at);
            }
            TierKind::Two(Box::new(state))
        }
    };
    scan.generation = arena.generation;
}

// ---------------------------------------------------------------------------
// Steering and shedding (producer side)
// ---------------------------------------------------------------------------

/// SplitMix64 over the folded key halves — independent of the flow
/// table's set-index hash (a different finalizing constant), so queue
/// steering and set placement do not correlate.
fn steer_hash(key: FlowKey) -> u64 {
    let mut z = (key.0 as u64) ^ ((key.0 >> 64) as u64) ^ 0xD6E8_FEB8_6659_FD93;
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^ (z >> 32)
}

/// Producer-side per-queue shed gate: tracks which flows are currently
/// shed and applies the full/resume hysteresis. A flow shed at its last
/// packet never returns to be removed, so the set holds at most the
/// worker's flow capacity and, when full, forgets its lowest key (most
/// remembered flows have ended) before inserting — see [`ShedConfig`].
/// An ordered set keeps which flow is forgotten independent of hashing,
/// so [`ServiceSim`] stays deterministic.
struct ShedGate {
    shedding: BTreeSet<u128>,
    capacity: usize,
}

impl ShedGate {
    fn new(capacity: usize) -> ShedGate {
        ShedGate {
            shedding: BTreeSet::new(),
            capacity,
        }
    }

    /// Decides one packet given the queue's current depth.
    fn admit(&mut self, key: FlowKey, depth: usize, cap: usize, resume_below: usize) -> Gate {
        if self.shedding.contains(&key.0) {
            if depth <= resume_below {
                self.shedding.remove(&key.0);
                Gate::Resync
            } else {
                Gate::Shed { new_flow: false }
            }
        } else if depth >= cap {
            if self.shedding.len() >= self.capacity {
                self.shedding.pop_first();
            }
            self.shedding.insert(key.0);
            Gate::Shed { new_flow: true }
        } else {
            Gate::Admit
        }
    }
}

enum Gate {
    Admit,
    Resync,
    Shed { new_flow: bool },
}

/// Steering + shedding front end shared by both runtimes. The caller
/// supplies the target queue's depth; this updates the offered/shed
/// counters and says what to do with the packet.
struct Steer {
    gates: Vec<ShedGate>,
    queue_cap: usize,
    resume_below: usize,
    offered_packets: u64,
    offered_bytes: u64,
    shed_packets: u64,
    shed_bytes: u64,
    shed_flows: u64,
    resumed_flows: u64,
    admitted_packets: u64,
    admitted_bytes: u64,
    swaps: u64,
    failed_swaps: u64,
}

impl Steer {
    fn new(config: &ServiceConfig) -> Steer {
        Steer {
            gates: (0..config.workers)
                .map(|_| ShedGate::new(config.flow_capacity))
                .collect(),
            queue_cap: config.queue_cap,
            resume_below: config.shed.resume_below,
            offered_packets: 0,
            offered_bytes: 0,
            shed_packets: 0,
            shed_bytes: 0,
            shed_flows: 0,
            resumed_flows: 0,
            admitted_packets: 0,
            admitted_bytes: 0,
            swaps: 0,
            failed_swaps: 0,
        }
    }

    fn worker_of(&self, key: FlowKey) -> usize {
        (steer_hash(key) % self.gates.len() as u64) as usize
    }

    /// Counts the packet and returns `Some(resync)` to admit it to its
    /// queue, `None` when it was shed.
    fn offer(&mut self, worker: usize, key: FlowKey, len: usize, depth: usize) -> Option<bool> {
        self.offered_packets += 1;
        self.offered_bytes += len as u64;
        match self.gates[worker].admit(key, depth, self.queue_cap, self.resume_below) {
            Gate::Admit => {
                self.admitted_packets += 1;
                self.admitted_bytes += len as u64;
                Some(false)
            }
            Gate::Resync => {
                self.resumed_flows += 1;
                self.admitted_packets += 1;
                self.admitted_bytes += len as u64;
                Some(true)
            }
            Gate::Shed { new_flow } => {
                if new_flow {
                    self.shed_flows += 1;
                }
                self.shed_packets += 1;
                self.shed_bytes += len as u64;
                None
            }
        }
    }

    fn stats_into(&self, stats: &mut ServiceStats) {
        stats.offered_packets = self.offered_packets;
        stats.offered_bytes = self.offered_bytes;
        stats.shed_packets = self.shed_packets;
        stats.shed_bytes = self.shed_bytes;
        stats.shed_flows = self.shed_flows;
        stats.resumed_flows = self.resumed_flows;
        stats.admitted_packets = self.admitted_packets;
        stats.admitted_bytes = self.admitted_bytes;
        stats.swaps = self.swaps;
        stats.failed_swaps = self.failed_swaps;
    }
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// One injected fault, fired when the offered-packet counter reaches
/// its trigger index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Worker `.0` panics at the point this reaches the front of its
    /// queue (in-band, so delivery order around the fault is exact).
    WorkerPanic(usize),
    /// Worker `.0` stalls for `.1` simulator steps — the queue keeps
    /// filling, which is how queue-full shedding is provoked
    /// deterministically.
    SlowWorker(usize, u32),
    /// The next hot-swap's build fails (the simulator sabotages the
    /// build config), exercising rollback.
    BuildFailure,
    /// All subsequent offered timestamps are skewed by `.0` (clamped at
    /// zero) — the clock-tolerance fault.
    ClockSkew(i64),
}

/// A deterministic schedule of injected faults: `(offered-packet
/// index, fault)` pairs, fired in order as [`ServiceSim::offer`] passes
/// each index. Build one explicitly or derive a pseudo-random plan from
/// a seed with [`FaultPlan::from_seed`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An explicit schedule (sorted by trigger index internally).
    pub fn new(mut events: Vec<(u64, FaultKind)>) -> FaultPlan {
        events.sort_by_key(|&(at, _)| at);
        FaultPlan { events }
    }

    /// `count` pseudo-random faults over the first `horizon` offered
    /// packets, derived from `seed` (SplitMix64) across all four fault
    /// kinds — the property-test generator.
    pub fn from_seed(seed: u64, count: usize, horizon: u64, workers: usize) -> FaultPlan {
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let at = next() % horizon.max(1);
            let worker = (next() % workers.max(1) as u64) as usize;
            let kind = match next() % 4 {
                0 => FaultKind::WorkerPanic(worker),
                1 => FaultKind::SlowWorker(worker, (next() % 8 + 1) as u32),
                2 => FaultKind::BuildFailure,
                _ => FaultKind::ClockSkew((next() % 1_000) as i64 - 500),
            };
            events.push((at, kind));
        }
        FaultPlan::new(events)
    }
}

// ---------------------------------------------------------------------------
// Deterministic simulator
// ---------------------------------------------------------------------------

/// What a finished run produced: final counters, every match tagged
/// with its flow (per-worker logs concatenated; within one flow,
/// stream order), and the per-worker tier each worker ended at.
#[derive(Debug)]
pub struct ServiceReport {
    /// Final counters.
    pub stats: ServiceStats,
    /// Every match, tagged with its flow.
    pub matches: Vec<FlowMatch>,
    /// The fidelity tier each worker ended at.
    pub final_tiers: Vec<FidelityTier>,
    /// Wall-clock per-packet latency (empty for simulator runs).
    pub latency: LatencyHistogram,
}

/// The deterministic single-threaded service harness: the same
/// `WorkerCore` state machine as the threaded [`Service`], driven in
/// lockstep with seeded fault injection. One `step()` gives every
/// worker one batch; `offer` applies steering, shedding, and the fault
/// plan. No wall clock, no threads — identical inputs give identical
/// outputs, so every robustness property is testable.
pub struct ServiceSim {
    config: ServiceConfig,
    arena: Arc<RulesetArena>,
    workers: Vec<WorkerCore>,
    queues: Vec<SimQueue>,
    stalled: Vec<u32>,
    steer: Steer,
    plan: FaultPlan,
    next_event: usize,
    offered_index: u64,
    skew: i64,
    build_failure_armed: bool,
}

/// One simulated worker queue: its items and, beside them, their
/// payload bytes.
#[derive(Default)]
struct SimQueue {
    items: VecDeque<Item>,
    blocks: Blocks,
}

impl ServiceSim {
    /// A simulator with no fault plan.
    pub fn new(arena: Arc<RulesetArena>, config: ServiceConfig) -> Result<ServiceSim, ServiceConfigError> {
        ServiceSim::with_faults(arena, config, FaultPlan::none())
    }

    /// A simulator driven by `plan`.
    pub fn with_faults(
        arena: Arc<RulesetArena>,
        config: ServiceConfig,
        plan: FaultPlan,
    ) -> Result<ServiceSim, ServiceConfigError> {
        config.validate()?;
        let workers = (0..config.workers)
            .map(|_| WorkerCore::new(Arc::clone(&arena), &config))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServiceSim {
            steer: Steer::new(&config),
            queues: (0..config.workers).map(|_| SimQueue::default()).collect(),
            stalled: vec![0; config.workers],
            workers,
            arena,
            config,
            plan,
            next_event: 0,
            offered_index: 0,
            skew: 0,
            build_failure_armed: false,
        })
    }

    /// Which worker `key` steers to.
    pub fn worker_of(&self, key: FlowKey) -> usize {
        self.steer.worker_of(key)
    }

    /// The tier worker `worker` currently runs at.
    pub fn worker_tier(&self, worker: usize) -> FidelityTier {
        self.workers[worker].tier
    }

    /// How many workers have installed arena generation `generation`
    /// (or newer). The swap-drain experiment measures how many extra
    /// steps a stalled worker stretches the in-band broadcast: the
    /// drain is complete when this reaches the worker count.
    pub fn workers_at_generation(&self, generation: u64) -> usize {
        self.workers
            .iter()
            .filter(|w| w.arena.generation >= generation)
            .count()
    }

    /// Offers one segment to the service: fires any fault-plan events
    /// due at this offered-packet index, applies clock skew, steers,
    /// and either enqueues or sheds. Returns `true` when the segment
    /// was admitted.
    pub fn offer(&mut self, key: FlowKey, seq: u64, payload: &[u8], time: u64) -> bool {
        while self.next_event < self.plan.events.len()
            && self.plan.events[self.next_event].0 <= self.offered_index
        {
            let (_, kind) = self.plan.events[self.next_event];
            self.next_event += 1;
            match kind {
                FaultKind::WorkerPanic(w) => {
                    let w = w % self.queues.len();
                    self.queues[w].items.push_back(Item::Panic);
                }
                FaultKind::SlowWorker(w, steps) => {
                    let w = w % self.stalled.len();
                    self.stalled[w] += steps;
                }
                FaultKind::BuildFailure => self.build_failure_armed = true,
                FaultKind::ClockSkew(delta) => self.skew += delta,
            }
        }
        self.offered_index += 1;
        let time = (time as i64).saturating_add(self.skew).max(0) as u64;
        let worker = self.steer.worker_of(key);
        let queue = &mut self.queues[worker];
        let depth = queue.items.len();
        match self.steer.offer(worker, key, payload.len(), depth) {
            Some(resync) => {
                queue.items.push_back(Item::Segment {
                    key,
                    seq,
                    time,
                    resync,
                    len: payload.len(),
                });
                queue.blocks.push(payload);
                true
            }
            None => false,
        }
    }

    /// One lockstep round: every non-stalled worker observes its queue
    /// depth (driving the ladder) and drains up to one batch.
    pub fn step(&mut self) {
        for w in 0..self.workers.len() {
            if self.stalled[w] > 0 {
                self.stalled[w] -= 1;
                continue;
            }
            let queue = &mut self.queues[w];
            let depth = queue.items.len();
            if depth == 0 {
                self.workers[w].observe_queue(0);
                continue;
            }
            self.workers[w].observe_queue(depth);
            for _ in 0..self.config.batch {
                let Some(item) = queue.items.pop_front() else {
                    break;
                };
                let payload = queue.blocks.take(item.payload_len());
                if matches!(item, Item::Panic) {
                    // The simulator models the unwind: the item is lost
                    // and recovery runs, exactly as the threaded
                    // runtime's catch_unwind path.
                    self.workers[w].recover();
                } else {
                    self.workers[w].process(item, payload);
                }
            }
        }
    }

    /// Steps until every queue is empty and every stall has elapsed.
    pub fn pump(&mut self) {
        while self.queues.iter().any(|q| !q.items.is_empty()) || self.stalled.iter().any(|&s| s > 0)
        {
            self.step();
        }
    }

    /// Hot-swaps the ruleset: builds a next-generation
    /// [`RulesetArena`] (synchronously here — the simulator has no
    /// threads to move the build off of) and broadcasts it in-band to
    /// every worker queue, so each worker installs it exactly after the
    /// packets admitted before the swap. On build failure the old arena
    /// stays installed and the error is returned — rollback is the
    /// no-op. Returns the new generation on success.
    ///
    /// An armed [`FaultKind::BuildFailure`] sabotages this build's
    /// budget so the failure path is reachable deterministically.
    pub fn hot_swap(
        &mut self,
        set: &PatternSet,
        config: &TwoStageConfig,
    ) -> Result<u64, ShardPlanError> {
        let mut config = *config;
        if self.build_failure_armed {
            self.build_failure_armed = false;
            // A budget no real pattern fits: the build must fail.
            config.exact.budget_bytes = 1;
        }
        let generation = self.arena.generation + 1;
        match RulesetArena::build(set, &config, generation) {
            Ok(arena) => {
                let arena = Arc::new(arena);
                self.arena = Arc::clone(&arena);
                for queue in &mut self.queues {
                    // Control-plane item: bypasses the shed gate's
                    // packet capacity.
                    queue.items.push_back(Item::Swap(Arc::clone(&arena)));
                }
                self.steer.swaps += 1;
                Ok(generation)
            }
            Err(e) => {
                self.steer.failed_swaps += 1;
                Err(e)
            }
        }
    }

    /// Snapshot of the counters mid-run (workers absorbed, gauges
    /// current).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = ServiceStats::default();
        self.steer.stats_into(&mut stats);
        for worker in &self.workers {
            worker.stats_into(&mut stats);
        }
        stats
    }

    /// Drains every queue, flushes every flow, and returns the final
    /// report. The simulator is spent afterwards.
    pub fn finish(mut self) -> ServiceReport {
        self.pump();
        let mut report = ServiceReport::open(&self.steer);
        for worker in &mut self.workers {
            worker.finish();
            report.absorb(worker);
        }
        report
    }
}

impl ServiceReport {
    /// An empty report carrying the producer side's counters.
    fn open(steer: &Steer) -> ServiceReport {
        let mut stats = ServiceStats::default();
        steer.stats_into(&mut stats);
        ServiceReport {
            stats,
            matches: Vec::new(),
            final_tiers: Vec::new(),
            latency: LatencyHistogram::new(),
        }
    }

    /// Adds one finished worker: its counters, its final tier, and its
    /// match log — moved rather than copied while the report holds none
    /// yet, so a one-worker report never copies the log.
    fn absorb(&mut self, core: &mut WorkerCore) {
        core.stats_into(&mut self.stats);
        if self.matches.is_empty() {
            self.matches = std::mem::take(&mut core.matches);
        } else {
            self.matches.append(&mut core.matches);
        }
        self.final_tiers.push(core.tier);
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Log₂-bucketed nanosecond histogram: 64 buckets, constant-time
/// record, quantiles answered at bucket granularity (≤ 2× relative
/// error). The threaded runtime records every admitted segment, not a
/// sample: a share of segments served within a deadline (`dpibench`'s
/// `paced_within_1ms_pct`) counts segments, so each one needs its own
/// enqueue-to-scan time.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, nanos: u64) {
        let bucket = (64 - nanos.leading_zeros()).min(63) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The latency (in nanoseconds, bucket upper bound) at quantile
    /// `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { 1u64 << i };
            }
        }
        u64::MAX
    }

    /// Merges `other`'s observations into this histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for i in 0..64 {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
    }
}

// ---------------------------------------------------------------------------
// Threaded runtime
// ---------------------------------------------------------------------------

/// Items stamped with their enqueue time, as the inbox holds them.
type Stamped = Vec<(Item, Instant)>;

struct InboxState {
    items: Stamped,
    /// The items' payload bytes, and the blocks the worker handed back.
    blocks: Blocks,
    /// The worker found the inbox empty and is parked on `ready`.
    asleep: bool,
    closed: bool,
}

/// One worker's swap inbox. The producer appends an item and copies its
/// payload into the inbox's [`Blocks`] under a lock the worker holds
/// only to swap both out, so it is uncontended in practice, and it
/// signals the condvar only when the worker has parked: one sleep costs
/// exactly one wake, and a busy worker costs the producer no syscall.
/// The worker takes the whole inbox at once: it hands back its drained
/// item `Vec` and every block it has read, and the producer refills
/// those. In steady state neither thread allocates or frees anything
/// per segment. A block is in flight from when the producer opens it
/// until the worker hands it back: each side's filled blocks obey the
/// bound [`Blocks`] states, and since the producer allocates only when
/// no handed-back block is free, its free list never holds more than
/// the peak number in flight.
/// `pending` counts items from push until the worker has finished them
/// — including items already swapped out — and is the lock-free depth
/// the shed gate and the ladder read. It is a gauge that publishes no
/// data (items travel under the mutex), so `Relaxed` suffices. The
/// producer never blocks: capacity pressure is resolved by the shed
/// gate *before* push.
struct Inbox {
    pending: AtomicUsize,
    state: Mutex<InboxState>,
    ready: Condvar,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            pending: AtomicUsize::new(0),
            state: Mutex::new(InboxState {
                items: Vec::new(),
                blocks: Blocks::default(),
                asleep: false,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Both sides hold the lock only to push (copying the payload into a
    /// block), swap or set a flag, none of which can panic, so a
    /// poisoned lock is a bug.
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().expect("inbox lock poisoned")
    }

    /// Items pushed and not yet finished by the worker.
    fn depth(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Queues `item` with its payload bytes (empty for a control item).
    fn push(&self, item: Item, payload: &[u8]) {
        self.pending.fetch_add(1, Ordering::Relaxed);
        let stamped = (item, Instant::now());
        let mut state = self.lock();
        state.items.push(stamped);
        state.blocks.push(payload);
        if state.asleep {
            state.asleep = false;
            drop(state);
            self.ready.notify_one();
        }
    }

    /// Runs from `Service`'s drop, which must not panic; setting the
    /// flag is valid whatever a panic left behind.
    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }

    /// Blocks until the inbox holds an item (or is closed), then swaps
    /// every queued item into `spare`, which must be empty, and every
    /// queued payload into `blocks`, whose read blocks go back to the
    /// producer. Returns `false` once the inbox is closed and drained.
    fn take_all(&self, spare: &mut Stamped, blocks: &mut Blocks) -> bool {
        debug_assert!(spare.is_empty());
        let mut state = self.lock();
        loop {
            if !state.items.is_empty() {
                std::mem::swap(&mut state.items, spare);
                blocks.take_from(&mut state.blocks);
                return true;
            }
            if state.closed {
                return false;
            }
            state.asleep = true;
            state = self.ready.wait(state).expect("inbox lock poisoned");
            state.asleep = false;
        }
    }

    /// Marks `n` taken items finished.
    fn finished(&self, n: usize) {
        self.pending.fetch_sub(n, Ordering::Relaxed);
    }
}

/// The worker thread's loop: take the whole inbox, work through it in
/// `batch`-sized chunks with one ladder observation per chunk, and
/// flush every flow once the inbox closes.
fn run_worker(inbox: &Inbox, mut core: WorkerCore, batch: usize) -> (WorkerCore, LatencyHistogram) {
    let mut latency = LatencyHistogram::new();
    let mut taken = Vec::new();
    let mut blocks = Blocks::default();
    while inbox.take_all(&mut taken, &mut blocks) {
        let mut left = taken.len();
        let mut items = taken.drain(..);
        while left > 0 {
            let chunk = left.min(batch);
            core.observe_queue(inbox.depth());
            for (item, enqueued) in items.by_ref().take(chunk) {
                // Read before the scan, so a panicking item's bytes are
                // behind the cursor whatever the scan left undone.
                let payload = blocks.take(item.payload_len());
                let is_segment = matches!(item, Item::Segment { .. });
                let outcome = catch_unwind(AssertUnwindSafe(|| core.process(item, payload)));
                if outcome.is_err() {
                    core.stats.panic_lost_bytes += payload.len() as u64;
                    core.recover();
                } else if is_segment {
                    latency.record(enqueued.elapsed().as_nanos() as u64);
                }
            }
            inbox.finished(chunk);
            left -= chunk;
        }
    }
    core.finish();
    (core, latency)
}

/// The resident threaded runtime: `workers` OS threads, each owning one
/// `WorkerCore` and one bounded swap inbox; the caller's thread is the
/// producer (steering + shedding) and the control plane (hot-swap).
/// Worker panics are caught per item ([`catch_unwind`]) and recovered
/// in place — the thread is its own watchdog, so one poisoned packet
/// costs one flow table, not a core.
///
/// Per-packet wall-clock latency (enqueue → scan complete) is recorded
/// in a per-worker [`LatencyHistogram`] and merged into the final
/// [`ServiceReport`].
///
/// Dropping a `Service` stops it as [`shutdown`](Service::shutdown)
/// does, without the report: every inbox closes, and the drop waits
/// while each worker finishes its queued items and flushes its flows.
pub struct Service {
    config: ServiceConfig,
    arena: Arc<RulesetArena>,
    inboxes: Vec<Arc<Inbox>>,
    handles: Vec<std::thread::JoinHandle<(WorkerCore, LatencyHistogram)>>,
    steer: Steer,
}

impl Service {
    /// Starts the runtime: validates `config`, spawns the workers, and
    /// returns the producer handle.
    pub fn start(arena: Arc<RulesetArena>, config: ServiceConfig) -> Result<Service, ServiceConfigError> {
        config.validate()?;
        let inboxes: Vec<_> = (0..config.workers)
            .map(|_| Arc::new(Inbox::new()))
            .collect();
        let mut handles = Vec::with_capacity(config.workers);
        for inbox in &inboxes {
            let inbox = Arc::clone(inbox);
            let core = WorkerCore::new(Arc::clone(&arena), &config)?;
            let batch = config.batch;
            handles.push(std::thread::spawn(move || run_worker(&inbox, core, batch)));
        }
        Ok(Service {
            steer: Steer::new(&config),
            inboxes,
            handles,
            arena,
            config,
        })
    }

    /// Which worker `key` steers to.
    pub fn worker_of(&self, key: FlowKey) -> usize {
        self.steer.worker_of(key)
    }

    /// Offers one segment: steers, consults the shed gate against the
    /// live queue depth, and enqueues or sheds. Returns `true` when
    /// admitted. Never blocks.
    pub fn offer(&mut self, key: FlowKey, seq: u64, payload: &[u8], time: u64) -> bool {
        let worker = self.steer.worker_of(key);
        let depth = self.inboxes[worker].depth();
        match self.steer.offer(worker, key, payload.len(), depth) {
            Some(resync) => {
                let item = Item::Segment {
                    key,
                    seq,
                    time,
                    resync,
                    len: payload.len(),
                };
                self.inboxes[worker].push(item, payload);
                true
            }
            None => false,
        }
    }

    /// Hot-swaps the ruleset. The build runs on the calling (control)
    /// thread — off every worker thread, which keep scanning the old
    /// generation until the swap item reaches them in-band. On build
    /// failure the old arena stays live and the error is returned.
    /// Returns the new generation on success.
    pub fn hot_swap(
        &mut self,
        set: &PatternSet,
        config: &TwoStageConfig,
    ) -> Result<u64, ShardPlanError> {
        let generation = self.arena.generation + 1;
        match RulesetArena::build(set, config, generation) {
            Ok(arena) => {
                self.install_arena(Arc::new(arena));
                Ok(generation)
            }
            Err(e) => {
                self.steer.failed_swaps += 1;
                Err(e)
            }
        }
    }

    /// The broadcast half of [`Service::hot_swap`] for callers that
    /// built (or cached) the [`RulesetArena`] somewhere else — another
    /// thread, ahead of time, a warm standby. Costs only the in-band
    /// queue broadcast on this thread; build failures never reach this
    /// method because the caller already holds a finished arena. The
    /// arena's generation should differ from the live one, or workers
    /// will treat resident flow states as already current.
    pub fn install_arena(&mut self, arena: Arc<RulesetArena>) {
        self.arena = Arc::clone(&arena);
        for inbox in &self.inboxes {
            inbox.push(Item::Swap(Arc::clone(&arena)), &[]);
        }
        self.steer.swaps += 1;
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Closes every inbox, joins every worker (each flushes its flows
    /// first), and returns the final report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.close_inboxes();
        let mut report = ServiceReport::open(&self.steer);
        for handle in std::mem::take(&mut self.handles) {
            let (mut core, latency) = handle
                .join()
                .expect("worker threads catch their own panics");
            report.absorb(&mut core);
            report.latency.merge(&latency);
        }
        report
    }

    fn close_inboxes(&self) {
        for inbox in &self.inboxes {
            inbox.close();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.close_inboxes();
        for handle in self.handles.drain(..) {
            // Ignored: a worker that panicked outside its per-item guard
            // has nothing left to hand back, and a panic here would
            // abort a caller that is already unwinding.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_automaton::PatternSet;
    use proptest::prelude::*;

    fn arena() -> Arc<RulesetArena> {
        let set = PatternSet::new(["attack-sig", "evil-payload", "he"]).unwrap();
        Arc::new(RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 1).unwrap())
    }

    // The counter aggregators are written field by field. Each source
    // block below is a full literal, so a new counter breaks this build
    // until it is aggregated and listed here.
    #[test]
    fn worker_stats_absorb_carries_every_counter() {
        let src = WorkerStats {
            packets: 1,
            tier_bytes: [2, 3],
            matches: 5,
            suspect_flags: 6,
            degrades: 7,
            recoveries: 8,
            state_rebuilds: 9,
            resyncs: 10,
            swaps: 11,
            panics: 12,
            restarts: 13,
            panic_lost_bytes: 14,
            protocol: ProtocolStats {
                delivered_bytes: 15,
                normalized_bytes: 16,
                raw_bytes: 17,
                emitted_bytes: 18,
                flows_http: 19,
                flows_tls: 20,
                flows_raw: 21,
                malformed_downgrades: 22,
                probe_exhausted: 23,
                mimicry_suspected: 24,
                desync_downgrades: 25,
                tier_bypassed: 26,
            },
        };
        let mut sum = WorkerStats::default();
        sum.absorb(&src);
        assert_eq!(sum, src);
    }

    #[test]
    fn add_reassembly_carries_every_counter() {
        use crate::reassembly::ReassemblyStats;
        let src = ReassemblyStats {
            segments: 1,
            segments_buffered: 2,
            bytes_buffered: 3,
            bytes_held: 4,
            evicted_bytes: 5,
            bytes_held_peak: 6,
            dup_bytes: 7,
            overlap_bytes: 8,
            overlap_conflicts: 9,
            holes_skipped: 10,
            hole_bytes: 11,
            budget_drops: 12,
        };
        let mut live = ReassemblyStats::default();
        add_reassembly(&mut live, &src, true);
        assert_eq!(live, src);
        // The peak combines by max, the monotone counters by sum.
        add_reassembly(&mut live, &src, true);
        assert_eq!((live.bytes_held_peak, live.segments), (6, 2));
        // A retired table's held bytes are lost, not held.
        let mut retired = ReassemblyStats::default();
        add_reassembly(&mut retired, &src, false);
        assert_eq!(
            retired,
            ReassemblyStats {
                bytes_held: 0,
                ..src
            }
        );
    }

    #[test]
    fn config_validation_rejects_each_degenerate_knob() {
        let ok = ServiceConfig::with_workers(2);
        assert!(ok.validate().is_ok());
        let mut c = ok;
        c.workers = 0;
        assert_eq!(c.validate(), Err(ServiceConfigError::ZeroWorkers));
        let mut c = ok;
        c.queue_cap = 0;
        assert_eq!(c.validate(), Err(ServiceConfigError::ZeroQueue));
        let mut c = ok;
        c.batch = 0;
        assert_eq!(c.validate(), Err(ServiceConfigError::ZeroBatch));
        let mut c = ok;
        c.ladder.low_water = c.ladder.high_water;
        assert_eq!(c.validate(), Err(ServiceConfigError::LadderInverted));
        let mut c = ok;
        c.ladder.ascend_after = 0;
        assert_eq!(c.validate(), Err(ServiceConfigError::LadderZeroHysteresis));
        let mut c = ok;
        c.shed.resume_below = c.queue_cap;
        assert_eq!(c.validate(), Err(ServiceConfigError::ShedInverted));
        let mut c = ok;
        c.flow_capacity = 0;
        assert_eq!(
            c.validate(),
            Err(ServiceConfigError::Flow(FlowConfigError::ZeroCapacity))
        );
        let mut c = ok;
        c.reassembly = ReassemblyConfig::new(4096);
        c.reassembly.budget = 0;
        assert_eq!(
            c.validate(),
            Err(ServiceConfigError::Reassembly(ReassemblyConfigError::ZeroBudget))
        );
    }

    #[test]
    fn steering_is_stable_and_in_range() {
        let arena = arena();
        let sim = ServiceSim::new(arena, ServiceConfig::with_workers(4)).unwrap();
        for i in 0..256u128 {
            let key = FlowKey(i * 0x1234_5678_9ABC_DEF1);
            let w = sim.worker_of(key);
            assert!(w < 4);
            assert_eq!(w, sim.worker_of(key), "steering must be a pure function");
        }
    }

    #[test]
    fn latency_histogram_quantiles_are_monotonic() {
        let mut h = LatencyHistogram::new();
        for n in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
            for _ in 0..10 {
                h.record(n);
            }
        }
        assert_eq!(h.count(), 60);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!(p50 <= p99 && p99 <= p999);
        assert!((1_000..=2_048).contains(&p50));
        let mut merged = LatencyHistogram::new();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.count(), 120);
        assert_eq!(merged.quantile(0.5), h.quantile(0.5));
    }

    #[test]
    fn sim_scans_a_split_flow_exactly_once() {
        let arena = arena();
        let mut sim = ServiceSim::new(Arc::clone(&arena), ServiceConfig::with_workers(2)).unwrap();
        let key = FlowKey(42);
        // "attack-sig" split across two segments, delivered out of
        // order to exercise the reassembler under the service.
        sim.offer(key, 6, b"-sig tail", 2);
        sim.offer(key, 0, b"attack", 1);
        let report = sim.finish();
        assert_eq!(report.matches.len(), 1);
        assert_eq!(report.matches[0].key, key);
        assert_eq!(report.matches[0].matched.end, 10);
        let s = report.stats;
        assert_eq!(s.offered_packets, 2);
        assert_eq!(s.shed_packets, 0);
        assert_eq!(s.admitted_bytes, s.offered_bytes);
        assert_eq!(s.scanned_bytes(), s.admitted_bytes);
    }

    #[test]
    fn worker_panic_is_isolated_in_threads() {
        let arena = arena();
        let mut config = ServiceConfig::with_workers(1);
        config.queue_cap = 512;
        let mut service = Service::start(Arc::clone(&arena), config).unwrap();
        let key = FlowKey(9);
        assert!(service.offer(key, 0, b"xx attack", 1));
        // Inject a real panic through the queue, then keep feeding the
        // same flow: the worker must survive and resync.
        service.inboxes[0].push(Item::Panic, &[]);
        assert!(service.offer(key, 9, b"-sig yy attack-sig", 2));
        let report = service.shutdown();
        assert_eq!(report.stats.workers.panics, 1);
        assert_eq!(report.stats.workers.restarts, 1);
        // The straddling occurrence may be lost with the table; the
        // fully-post-restart occurrence must be found.
        assert!(report
            .matches
            .iter()
            .any(|m| m.key == key && m.matched.end == 27));
    }

    /// SplitMix64: deterministic schedule and filler bytes.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// `flows` flows of `segs` segments of `len` bytes: filler with
    /// "attack-sig" planted across every other segment boundary,
    /// returned per flow and as `(flow, seq, bytes)` segments
    /// interleaved round-robin across flows.
    #[allow(clippy::type_complexity)]
    fn traffic(
        seed: u64,
        flows: usize,
        segs: usize,
        len: usize,
    ) -> (Vec<Vec<u8>>, Vec<(usize, u64, Vec<u8>)>) {
        let mut rng = SplitMix(seed);
        let payloads: Vec<Vec<u8>> = (0..flows)
            .map(|_| {
                let mut p: Vec<u8> = (0..segs * len)
                    .map(|_| b'a' + (rng.next() % 26) as u8)
                    .collect();
                for at in (len - 4..p.len() - 10).step_by(2 * len) {
                    p[at..at + 10].copy_from_slice(b"attack-sig");
                }
                p
            })
            .collect();
        let schedule = (0..segs)
            .flat_map(|s| (0..flows).map(move |f| (f, s)))
            .map(|(f, s)| {
                (
                    f,
                    (s * len) as u64,
                    payloads[f][s * len..(s + 1) * len].to_vec(),
                )
            })
            .collect();
        (payloads, schedule)
    }

    fn sorted_rows(matches: &[FlowMatch]) -> Vec<(u128, u32, usize)> {
        let mut rows: Vec<_> = matches
            .iter()
            .map(|m| (m.key.0, m.matched.pattern.0, m.matched.end))
            .collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn inbox_depth_counts_items_until_the_worker_finishes_them() {
        let inbox = Inbox::new();
        for _ in 0..3 {
            inbox.push(Item::Panic, &[]);
        }
        assert_eq!(inbox.depth(), 3);
        let (mut taken, mut blocks) = (Vec::new(), Blocks::default());
        assert!(inbox.take_all(&mut taken, &mut blocks));
        assert_eq!(taken.len(), 3);
        assert_eq!(inbox.depth(), 3, "swapped-out items are still pending");
        inbox.push(Item::Panic, &[]);
        assert_eq!(inbox.depth(), 4);
        inbox.finished(2);
        assert_eq!(inbox.depth(), 2);
        inbox.finished(1);
        // Items pushed before close still reach the worker.
        taken.clear();
        inbox.close();
        assert!(inbox.take_all(&mut taken, &mut blocks));
        assert_eq!(taken.len(), 1);
        inbox.finished(1);
        assert_eq!(inbox.depth(), 0);
        taken.clear();
        assert!(
            !inbox.take_all(&mut taken, &mut blocks),
            "closed and drained"
        );
    }

    /// A segment item of `len` bytes.
    fn segment(len: usize) -> Item {
        Item::Segment {
            key: FlowKey(len as u128),
            seq: 0,
            time: 0,
            resync: false,
            len,
        }
    }

    /// Pushes one payload per length, each filled with its own byte
    /// pattern, and returns the payloads in push order.
    fn push_burst(inbox: &Inbox, lens: &[usize], salt: usize) -> Vec<Vec<u8>> {
        lens.iter()
            .enumerate()
            .map(|(i, &len)| {
                let payload: Vec<u8> = (0..len).map(|j| (j * 7 + i * 31 + salt) as u8).collect();
                inbox.push(segment(len), &payload);
                payload
            })
            .collect()
    }

    /// Takes the inbox and reads every taken item's payload back.
    fn take_burst(inbox: &Inbox, taken: &mut Stamped, blocks: &mut Blocks) -> Vec<Vec<u8>> {
        assert!(inbox.take_all(taken, blocks));
        let read = taken
            .drain(..)
            .map(|(item, _)| blocks.take(item.payload_len()).to_vec())
            .collect();
        inbox.finished(inbox.depth());
        read
    }

    #[test]
    fn blocks_read_back_in_item_order_across_a_take_and_recycle() {
        // Empty, short, an exact block fill (BLOCK - 1 then 1), a
        // full-block payload, and payloads over one block and several.
        let lens = [0, 1, 127, BLOCK - 1, 1, BLOCK, 0, BLOCK + 1, 200_000, 5, 0];
        let inbox = Inbox::new();
        let (mut taken, mut blocks) = (Vec::new(), Blocks::default());
        for salt in 0..3 {
            let sent = push_burst(&inbox, &lens, salt);
            assert_eq!(take_burst(&inbox, &mut taken, &mut blocks), sent);
        }
        // Control items between payloads read back as empty and leave
        // the cursor where it was.
        inbox.push(segment(3), b"abc");
        inbox.push(Item::Panic, &[]);
        inbox.push(segment(2), b"de");
        let read = take_burst(&inbox, &mut taken, &mut blocks);
        assert_eq!(read, [b"abc".to_vec(), Vec::new(), b"de".to_vec()]);
    }

    #[test]
    fn a_third_equal_burst_allocates_no_new_block() {
        // About five blocks a burst, with payloads that leave a block's
        // tail unfilled.
        let lens: Vec<usize> = (0..2_000).map(|i| [128, 1_448, 40][i % 3]).collect();
        let inbox = Inbox::new();
        let (mut taken, mut blocks) = (Vec::new(), Blocks::default());
        let mut seen = std::collections::HashSet::new();
        for burst in 0..3 {
            let sent = push_burst(&inbox, &lens, burst);
            assert!(inbox.take_all(&mut taken, &mut blocks));
            let ptrs: Vec<*const u8> = blocks.filled.iter().map(|b| b.as_ptr()).collect();
            assert!(ptrs.len() > 2, "{} blocks", ptrs.len());
            if burst < 2 {
                seen.extend(ptrs);
            } else {
                // Every block is alive, in flight or free, so a new
                // allocation could not reuse one of these addresses.
                assert!(
                    ptrs.iter().all(|p| seen.contains(p)),
                    "the third burst allocated"
                );
            }
            for ((item, _), want) in taken.drain(..).zip(&sent) {
                assert_eq!(blocks.take(item.payload_len()), &want[..]);
            }
            inbox.finished(lens.len());
        }
    }

    #[test]
    fn a_sim_queue_under_overload_stays_within_the_block_bound() {
        let mut config = ServiceConfig::with_workers(1);
        config.queue_cap = 32;
        config.batch = 2;
        let plan = FaultPlan::new(vec![(0, FaultKind::SlowWorker(0, 10))]);
        let mut sim = ServiceSim::with_faults(arena(), config, plan).unwrap();
        // Sizes that leave most of a block's spare capacity unused, the
        // worst case for the bound, with some short payloads between.
        let sizes = [40_000, 30_000, 100, 33_000, 64];
        let (mut flow, mut peak) = (0u128, 0usize);
        let mut check = |sim: &ServiceSim| {
            let queue = &sim.queues[0];
            let unread: usize = queue.items.iter().map(Item::payload_len).sum();
            let in_flight = queue.blocks.filled.len();
            assert!(
                in_flight <= 2 * unread.div_ceil(BLOCK) + 1,
                "{in_flight} blocks hold {unread} unread bytes"
            );
            peak = peak.max(in_flight);
            assert!(queue.blocks.free.len() <= peak);
        };
        for round in 0..60 {
            for _ in 0..4 {
                flow += 1;
                let payload = vec![b'x'; sizes[flow as usize % sizes.len()]];
                sim.offer(FlowKey(flow), 0, &payload, round);
                check(&sim);
            }
            sim.step();
            check(&sim);
            assert!(!sim.queues[0].items.is_empty(), "the overload must last");
        }
        assert!(sim.stats().shed_packets > 0);
    }

    #[test]
    fn a_worker_parked_before_every_push_is_woken_every_time() {
        let arena = arena();
        let config = ServiceConfig::with_workers(2);
        let (_, schedule) = traffic(3, 4, 6, 16);
        let keys = |f: usize| FlowKey(0x100 + f as u128);
        let (tx, rx) = std::sync::mpsc::channel();
        let threaded = {
            let (arena, schedule) = (Arc::clone(&arena), schedule.clone());
            std::thread::spawn(move || {
                let mut service = Service::start(arena, config).unwrap();
                for (i, (f, seq, bytes)) in schedule.iter().enumerate() {
                    // Every push must find its worker parked, so each
                    // one takes the wake path.
                    let inbox = &service.inboxes[service.worker_of(keys(*f))];
                    while !inbox.lock().asleep {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                    assert!(service.offer(keys(*f), *seq, bytes, i as u64));
                }
                tx.send(service.shutdown()).unwrap();
            })
        };
        let report = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("shutdown must return: a parked worker missed its wakeup");
        threaded.join().unwrap();
        let mut sim = ServiceSim::new(arena, config).unwrap();
        for (i, (f, seq, bytes)) in schedule.iter().enumerate() {
            sim.offer(keys(*f), *seq, bytes, i as u64);
        }
        let expect = sim.finish();
        assert!(!expect.matches.is_empty());
        assert_eq!(sorted_rows(&report.matches), sorted_rows(&expect.matches));
        assert_eq!(report.latency.count(), schedule.len() as u64);
    }

    #[test]
    fn in_band_swap_on_threads_rebuilds_each_live_flow_once() {
        let arena = arena();
        let mut config = ServiceConfig::with_workers(1);
        config.queue_cap = 1024;
        // Pin the Exact tier: a tier move would rebuild states too.
        config.ladder.high_water = config.queue_cap + 1;
        let mut service = Service::start(arena, config).unwrap();
        let flows = 5u128;
        for f in 0..flows {
            assert!(service.offer(FlowKey(f), 0, b"xx attack-sig gam", 1));
        }
        let set = PatternSet::new(["attack-sig", "evil-payload", "he", "gamma-ray"]).unwrap();
        let next = RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 2).unwrap();
        service.install_arena(Arc::new(next));
        for f in 0..flows {
            assert!(service.offer(FlowKey(f), 17, b"ma-ray gamma-ray", 2));
        }
        let report = service.shutdown();
        let s = report.stats;
        assert_eq!(s.swaps, 1);
        assert_eq!(s.workers.swaps, 1);
        assert_eq!(
            s.workers.state_rebuilds, flows as u64,
            "one rebuild per live flow"
        );
        // Generation 2 scans only the bytes behind the swap: the
        // occurrence straddling it is lost, the one after it is found.
        let gamma: Vec<_> = report
            .matches
            .iter()
            .filter(|m| m.matched.pattern.0 == 3)
            .collect();
        assert_eq!(gamma.len(), flows as usize);
        assert!(gamma.iter().all(|m| m.matched.end == 33));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The simulator's ledger on real threads: bursts, pauses, in-band
        /// panics, shedding, and flow-table eviction of reordered bytes.
        #[test]
        fn threaded_ledger_balances_under_seeded_schedules(seed in 0u64..1u64 << 48) {
            let arena = arena();
            let mut config = ServiceConfig::with_workers(2);
            config.queue_cap = 12;
            config.batch = 4;
            config.shed.resume_below = 3;
            config.flow_capacity = 8;
            config.ladder = LadderConfig {
                high_water: 8,
                low_water: 2,
                descend_after: 2,
                ascend_after: 4,
            };
            let (payloads, mut schedule) = traffic(seed, 24, 8, 48);
            // Swap each flow's segments pairwise: 1, 0, 3, 2, ... so
            // flows hold out-of-order bytes when they are evicted.
            let flows = payloads.len();
            for round in (0..schedule.len() / flows).step_by(2) {
                for f in 0..flows {
                    schedule.swap(round * flows + f, (round + 1) * flows + f);
                }
            }
            let key = |f: usize| FlowKey(u128::from(seed) << 8 | f as u128);
            let mut rng = SplitMix(seed ^ 0xA5A5);
            let mut service = Service::start(Arc::clone(&arena), config).unwrap();
            let mut panics = 0u64;
            let mut next = 0usize;
            while next < schedule.len() {
                let burst = 1 + (rng.next() % 32) as usize;
                for (f, seq, bytes) in schedule.iter().skip(next).take(burst) {
                    service.offer(key(*f), *seq, bytes, next as u64);
                    next += 1;
                }
                if rng.next().is_multiple_of(8) {
                    service.inboxes[(rng.next() % 2) as usize].push(Item::Panic, &[]);
                    panics += 1;
                }
                std::thread::sleep(std::time::Duration::from_micros(rng.next() % 201));
            }
            let report = service.shutdown();
            let s = report.stats;
            prop_assert_eq!(s.offered_packets, s.admitted_packets + s.shed_packets);
            prop_assert_eq!(s.offered_bytes, s.admitted_bytes + s.shed_bytes);
            prop_assert_eq!(
                s.scanned_bytes()
                    + s.reassembly.dup_bytes
                    + s.workers.panic_lost_bytes
                    + s.reassembly.evicted_bytes,
                s.admitted_bytes
            );
            prop_assert_eq!(s.buffered_bytes, 0);
            prop_assert_eq!(s.workers.resyncs, s.resumed_flows);
            prop_assert_eq!(s.workers.panics, panics);
            prop_assert_eq!(s.workers.restarts, s.workers.panics);
            prop_assert_eq!(report.latency.count(), s.admitted_packets);
            prop_assert_eq!(s.workers.protocol.unaccounted_bytes(), 0);
            // Nothing invented: every match is a true occurrence.
            for m in &report.matches {
                let f = (m.key.0 & 0xFF) as usize;
                let end = m.matched.end;
                let pat: &[u8] = match m.matched.pattern.0 {
                    0 => b"attack-sig",
                    1 => b"evil-payload",
                    _ => b"he",
                };
                prop_assert!(end >= pat.len() && end <= payloads[f].len());
                prop_assert_eq!(&payloads[f][end - pat.len()..end], pat);
            }
        }
    }
}
