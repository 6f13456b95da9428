//! Sharded per-core scan engine: independent compiled automata per core.
//!
//! Measurement settled how this workspace scales past one core. The
//! paper hides the byte→state→byte serial dependency by clocking engines
//! out of phase on *per-block memories*; the software rendering of that
//! interleave (a round-robin batch scanner, since deleted) broke even at
//! best, because software lanes share one cache hierarchy where hardware
//! engines own their ports. What *does* translate is the paper's other
//! axis (§IV.B):
//! splitting the ruleset itself across blocks. In software the "block"
//! is a core with its own L1/L2: partition the patterns with
//! [`PatternSet::plan_shards`], compile one small [`CompiledAutomaton`]
//! per shard, and scan the payload through every shard concurrently on a
//! scoped thread pool. Each shard's automaton is a fraction of the
//! monolith — small enough to stay cache-resident — so per-shard scan
//! speed rises exactly where the monolithic automaton falls off.
//!
//! Every shard is compiled with its own anchor analysis and, budget
//! permitting, its own pair table, so every shard runs the composed
//! lane stack (see `crate::compiled`); the only scan-time switch is
//! [`ShardedMatcher::with_simd`].
//!
//! Two scan shapes cover the two deployment scenarios:
//!
//! - [`ShardedMatcher::scan_into`] — one large payload, all shards in
//!   parallel, matches merged back to global [`PatternId`]s in canonical
//!   `(end, pattern)` order. With `cores = 1` the same API runs the
//!   shards sequentially on the calling thread (no threads spawned).
//! - [`ShardedMatcher::scan_stream_into`] — many payloads (the
//!   millions-of-flows scenario): payloads are partitioned across cores
//!   and each core runs every shard over its own payloads, so per-flow
//!   results never cross threads.
//!
//! Equivalence with the monolithic [`CompiledMatcher`] — and through it
//! with the reference [`DtpMatcher`](crate::DtpMatcher) and the full DFA
//! — is pinned by `tests/sharded_engine.rs` and the property suites in
//! `tests/equivalence.rs`.
//!
//! # Examples
//!
//! ```
//! use dpi_automaton::{MultiMatcher, PatternSet};
//! use dpi_core::{ShardedConfig, ShardedMatcher};
//!
//! let set = PatternSet::new(["he", "she", "his", "hers"])?;
//! let matcher = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2))?;
//! assert_eq!(matcher.find_all(b"ushers").len(), 3);
//!
//! // Production shape: reuse scratch + output across payloads.
//! let mut scratch = matcher.scratch();
//! let mut out = Vec::new();
//! matcher.scan_into(b"his and hers", &mut scratch, &mut out);
//! assert_eq!(out.len(), 3); // his, he, hers
//!
//! // Streaming shape: one cheap state per flow, chunks of any size.
//! let mut flow = matcher.flow_state();
//! out.clear(); // chunk scans append
//! matcher.scan_chunk_into(&mut flow, b"her", &mut scratch, &mut out);
//! matcher.scan_chunk_into(&mut flow, b"s", &mut scratch, &mut out);
//! assert_eq!(out.len(), 2); // he@..2, hers@..4 — across the boundary
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::compiled::{CompiledAutomaton, CompiledMatcher};
use crate::lookup_table::DtpConfig;
use crate::reduce::ReducedAutomaton;
use dpi_automaton::{
    AnchorSet, Dfa, Match, MultiMatcher, PairTable, PatternId, PatternSet, ScanState,
    ShardPlanError, ShardSpec, SplitStrategy,
};

/// Build-time configuration of a [`ShardedMatcher`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Scanning cores to plan for and to spawn in the parallel scan
    /// entry points. `1` selects the sequential same-API mode.
    pub cores: usize,
    /// Preferred shard count the planner starts from (normally equal
    /// to `cores`; [`ShardedConfig::autotune_shards`] sets it from a
    /// measured probe scan).
    pub shards_hint: usize,
    /// Per-shard compiled-arena budget in bytes (the cache level each
    /// shard should fit — typically L2).
    pub budget_bytes: usize,
    /// Hard ceiling on shard count.
    pub max_shards: usize,
    /// Default-transition configuration each shard is reduced with.
    pub dtp: DtpConfig,
    /// Shallow-depth horizon of the anchor analysis every shard is
    /// compiled with (see [`AnchorSet::build`]). Each shard derives its
    /// **own** [`AnchorSet`] — a shard holds a fraction of the patterns,
    /// so its anchor set is smaller than the master's and its skip lane
    /// skips strictly more of the same traffic.
    pub anchor_horizon: u8,
    /// Per-shard byte budget for the stride-2 pair-transition layer (see
    /// [`PairTable::build_with_region`]). Each shard derives its **own**
    /// [`PairTable`] — a shard's automaton is a fraction of the
    /// monolith's, so the same budget covers a larger share of its hot
    /// states. The budget buys region rows first
    /// ([`PairTable::REGION_ROW_BYTES`], attached only where the shard's
    /// calm density reaches [`PairTable::REGION_MIN_DENSITY`]), then hot
    /// rows of [`PairTable::ROW_BYTES`] each. A budget below
    /// [`PairTable::REGION_ROW_BYTES`] buys neither: those shards carry
    /// no table and run the anchor lane alone.
    pub pair_budget_bytes: usize,
    /// Run every shard's scan loops on the SIMD fast-lane kernels
    /// (default on; see [`CompiledMatcher::with_simd`]). Inert — the
    /// safe scalar lanes run — unless the crate was built with the
    /// `simd` feature on x86_64 and the CPU supports SSSE3, so the
    /// field exists (and round-trips) on every build.
    pub simd: bool,
}

impl ShardedConfig {
    /// A configuration targeting `cores` cores, inheriting the planner's
    /// default budget and shard cap from [`ShardSpec::for_cores`] (so the
    /// two stay in lockstep), with the paper's DTP configuration. For
    /// planner knobs not surfaced here (skew limit, cost model), call
    /// [`PatternSet::plan_shards`] directly.
    pub fn with_cores(cores: usize) -> ShardedConfig {
        let spec = ShardSpec::for_cores(cores);
        ShardedConfig {
            cores: cores.max(1),
            shards_hint: cores.max(1),
            budget_bytes: spec.budget_bytes,
            max_shards: spec.max_shards,
            dtp: DtpConfig::PAPER,
            anchor_horizon: AnchorSet::DEFAULT_HORIZON,
            pair_budget_bytes: Self::DEFAULT_PAIR_BUDGET,
            simd: true,
        }
    }

    /// Switches this exact-stage configuration into the two-stage scan
    /// path: the returned [`TwoStageConfig`](crate::TwoStageConfig)
    /// keeps every knob here for the verifier (stage 2) and puts an
    /// approximate pre-classifier with the given budget in front of it.
    /// Build with [`TwoStageMatcher::build`](crate::TwoStageMatcher::build);
    /// see `crate::two_stage` for the window-replay discipline.
    pub fn two_stage(
        self,
        approx: dpi_automaton::ApproxConfig,
    ) -> crate::two_stage::TwoStageConfig {
        crate::two_stage::TwoStageConfig {
            approx,
            exact: self,
        }
    }

    /// Default per-shard pair-layer budget: the region pair rows plus
    /// 8 hot rows (~2 MiB). Shard automata are cache-budget-sized
    /// fractions of the master, so eight hot states cover a larger
    /// occupancy share per shard than the monolith's 16-row default
    /// does for the whole set; only the touched cache lines of a row
    /// become resident.
    pub const DEFAULT_PAIR_BUDGET: usize =
        PairTable::REGION_ROW_BYTES + 8 * PairTable::ROW_BYTES;

    /// Compiles `set` with the lane stack this configuration deploys:
    /// its own anchor analysis plus its own pair table under
    /// [`ShardedConfig::pair_budget_bytes`], hot rows ranked by
    /// occupancy over `profile` when given, by in-degree otherwise.
    /// Every shard and the two-stage prefix automaton are built here.
    pub(crate) fn compile(&self, set: &PatternSet, profile: Option<&[u8]>) -> CompiledAutomaton {
        let dfa = Dfa::build(set);
        let reduced = ReducedAutomaton::reduce(&dfa, self.dtp);
        let anchors = AnchorSet::build(&dfa, set, self.anchor_horizon);
        let budget = self.pair_budget_bytes;
        let pairs = match profile {
            Some(sample) => PairTable::build_profiled(&dfa, set, &anchors, budget, sample),
            None => PairTable::build_with_region(&dfa, set, &anchors, budget),
        };
        CompiledAutomaton::compile_with_prefilter(&reduced, anchors, Some(pairs))
    }

    /// Growth factor a larger shard count must beat in the autotune
    /// probe before it is preferred — shard proliferation multiplies
    /// total work (every shard scans every byte), so a bigger count
    /// has to pay measurably, not within noise.
    const AUTOTUNE_MARGIN: f64 = 0.90;

    /// Picks the shard count from a **measured probe scan** instead of
    /// the cost model's guess: for each candidate count (multiples of
    /// `cores`, doubling up to the planner cap), the largest planned
    /// shard is compiled and timed over a synthetic probe payload, and
    /// the candidate minimizing the projected slowest-core time
    /// (`shards-per-core × measured per-shard time`) wins. Larger
    /// counts are only taken when they beat the incumbent by a real
    /// margin, so the chooser settles on `cores` shards whenever the
    /// ruleset already fits per-core caches — the measured answer to
    /// the "how many shards?" question the cost model can only
    /// estimate.
    ///
    /// Returns a configuration whose [`ShardedConfig::shards_hint`]
    /// pins the chosen count as the planner's starting point (the
    /// per-shard arena budget can still grow it — the cost model stays
    /// as the cache-residency safety net).
    ///
    /// # Errors
    ///
    /// [`ShardPlanError::PatternExceedsBudget`] when planning any
    /// candidate fails (see [`PatternSet::plan_shards`]).
    pub fn autotune_shards(
        set: &PatternSet,
        cores: usize,
    ) -> Result<ShardedConfig, ShardPlanError> {
        // Probe payload: low-entropy text mixed with pseudo-random
        // bytes — enough automaton exercise to expose cache effects
        // without depending on the traffic crates.
        let mut probe = Vec::with_capacity(128 * 1024);
        let mut x: u64 = 0x5EED_CAFE;
        while probe.len() < 128 * 1024 {
            probe.extend_from_slice(b"GET /autotune HTTP/1.1\r\nHost: probe\r\n");
            for _ in 0..24 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                probe.push((x >> 33) as u8);
            }
        }
        let base = ShardedConfig::with_cores(cores);
        Self::autotune_shards_with(set, cores, |sub| {
            // The probe shard carries the exact lane stack the returned
            // config deploys (prefilter + pair layer under the same
            // budget) — the chooser's premise is measured cache
            // residency, and the pair rows are part of the footprint.
            let compiled = base.compile(sub, None);
            let matcher = CompiledMatcher::new(&compiled, sub);
            let mut best = f64::INFINITY;
            let mut sink = 0usize;
            for _ in 0..3 {
                let start = std::time::Instant::now();
                matcher.for_each_match(&probe, |_| sink += 1);
                best = best.min(start.elapsed().as_secs_f64());
            }
            std::hint::black_box(sink);
            best / probe.len() as f64
        })
    }

    /// The chooser behind [`ShardedConfig::autotune_shards`], with the
    /// probe measurement injected — `measure` returns a shard's scan
    /// cost in seconds per byte. Exposed so the selection logic can be
    /// unit-tested against a synthetic cost model without timing real
    /// scans.
    pub fn autotune_shards_with(
        set: &PatternSet,
        cores: usize,
        mut measure: impl FnMut(&PatternSet) -> f64,
    ) -> Result<ShardedConfig, ShardPlanError> {
        let cores = cores.max(1);
        let mut config = ShardedConfig::with_cores(cores);
        let cap = ShardSpec::for_cores(cores).max_shards.min(set.len().max(1));
        let mut best: Option<(usize, f64)> = None;
        let mut n = cores.min(cap);
        loop {
            // Plan exactly `n` shards and time the largest one — the
            // slowest-core bound is what a deployment actually waits
            // on.
            let mut spec = ShardSpec::for_cores(cores);
            spec.shards_hint = n;
            spec.budget_bytes = usize::MAX;
            let plan = set.plan_shards(&spec)?;
            let largest = plan
                .estimated_bytes
                .iter()
                .enumerate()
                .max_by_key(|&(_, b)| *b)
                .map(|(i, _)| i)
                .expect("plans are non-empty");
            let secs_per_byte = measure(&plan.parts[largest].0);
            let per_core = plan.len().div_ceil(cores) as f64 * secs_per_byte;
            let better = match best {
                None => true,
                Some((_, incumbent)) => per_core < incumbent * ShardedConfig::AUTOTUNE_MARGIN,
            };
            if better {
                best = Some((plan.len(), per_core));
            }
            if n >= cap {
                break;
            }
            n = (n * 2).min(cap);
        }
        config.shards_hint = best.expect("at least one candidate").0;
        Ok(config)
    }
}

impl Default for ShardedConfig {
    /// Targets every core the host exposes.
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ShardedConfig::with_cores(cores)
    }
}

/// One shard: a pattern subset, its compiled automaton, and the map from
/// shard-local pattern ids back to ids in the original set.
#[derive(Debug, Clone)]
struct Shard {
    set: PatternSet,
    /// `ids[local]` is the global id; ascending, so a shard's canonical
    /// match order is already global canonical order.
    ids: Vec<PatternId>,
    automaton: CompiledAutomaton,
}

/// Resumable per-flow state for a [`ShardedMatcher`]: one [`ScanState`]
/// per shard (every shard automaton walks the flow independently, so
/// each carries its own state and history registers across packet
/// boundaries). Create with [`ShardedMatcher::flow_state`]; sized and
/// valid only for the matcher that created it.
///
/// At the paper's shard counts this is a handful of 16-byte registers
/// per flow — small enough for a [`FlowTable`](crate::FlowTable) to hold
/// millions of concurrent flows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedScanState {
    /// Parallel to the matcher's shards.
    per_shard: Vec<ScanState>,
}

impl ShardedScanState {
    /// Bytes of the flow consumed so far (shards advance in lockstep).
    pub fn offset(&self) -> u64 {
        self.per_shard.first().map_or(0, |s| s.offset)
    }

    /// Number of per-shard states (the owning matcher's shard count).
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    /// Returns every per-shard register to the fresh-flow value in place
    /// — flow-table slot reuse without reallocating the state vector.
    pub fn reset(&mut self) {
        for s in &mut self.per_shard {
            s.reset();
        }
    }

    /// Resets every per-shard register to
    /// [`ScanState::fresh_at`]`(offset)` in place: history masked as at
    /// flow start, stream offset advanced to `offset`. The resume
    /// primitive after a reassembly hole-skip — see
    /// [`ScanState::reset_at`] for the boundary-local-loss argument.
    pub fn reset_at(&mut self, offset: u64) {
        for s in &mut self.per_shard {
            s.reset_at(offset);
        }
    }

    /// `true` when every shard automaton sits at its start state: by the
    /// Aho-Corasick longest-suffix invariant, no occurrence of any
    /// pattern is in flight beyond what the two history registers can
    /// carry (≤ 2 bytes of progress). The two-stage scanner uses this to
    /// end a window replay early — once past the flag with all shards at
    /// rest, the remaining window can only contain occurrences that
    /// start later, and those are covered by their own flags.
    pub fn at_rest(&self) -> bool {
        self.per_shard
            .iter()
            .all(|s| s.state == dpi_automaton::StateId::START)
    }

    /// [`ShardedScanState::at_rest`] over the masked lanes only (see
    /// [`lane_in_mask`] for the mask convention).
    pub(crate) fn at_rest_masked(&self, mask: u64) -> bool {
        self.per_shard
            .iter()
            .enumerate()
            .filter(|&(i, _)| lane_in_mask(i, mask))
            .all(|(_, s)| s.state == dpi_automaton::StateId::START)
    }

    /// Stream offset lane `lane` has consumed through. Lanes advance in
    /// lockstep under [`ShardedMatcher::scan_chunk_into`] but diverge
    /// under masked scanning, where each lane is its own resumable
    /// stream cursor.
    pub(crate) fn lane_offset(&self, lane: usize) -> u64 {
        self.per_shard[lane].offset
    }

    /// [`ScanState::reset_at`] applied to one lane only — the join
    /// primitive for masked window replay: the joining lane's history is
    /// masked as of `offset` while every other lane keeps its in-flight
    /// state untouched.
    pub(crate) fn reset_lane_at(&mut self, lane: usize, offset: u64) {
        self.per_shard[lane].reset_at(offset);
    }

    /// [`ShardedScanState::reset_at`] over the masked lanes only.
    pub(crate) fn reset_lanes_at(&mut self, mask: u64, offset: u64) {
        for (i, s) in self.per_shard.iter_mut().enumerate() {
            if lane_in_mask(i, mask) {
                s.reset_at(offset);
            }
        }
    }
}

/// The masked-scan lane convention: bit `i` of a `u64` mask selects
/// shard `i` for the first 64 shards; shards at index 64 and beyond are
/// always selected (shard counts that large exceed what a single mask
/// word can subset, and per-core shard plans stay far below it — the
/// merge fan-in is capped at 64 for the same reason).
#[inline]
pub(crate) fn lane_in_mask(lane: usize, mask: u64) -> bool {
    lane >= 64 || mask & (1u64 << lane) != 0
}

/// Reusable per-scan buffers for [`ShardedMatcher::scan_into`]: one match
/// buffer per shard plus the merge cursors. Keep one per worker and the
/// scan path performs no steady-state allocation.
#[derive(Debug, Clone, Default)]
pub struct ShardedScratch {
    per_shard: Vec<Vec<Match>>,
    cursors: Vec<usize>,
}

/// Reusable buffers for [`ShardedMatcher::scan_stream_with`]: one
/// [`ShardedScratch`] per worker thread. Keep one per ingest loop and
/// repeated stream scans reuse every per-shard buffer's capacity.
#[derive(Debug, Clone, Default)]
pub struct StreamScratch {
    per_worker: Vec<ShardedScratch>,
}

/// Multi-core scanner over per-shard compiled automata. Build once with
/// [`ShardedMatcher::build`], scan with [`ShardedMatcher::scan_into`]
/// (one payload, shards in parallel) or
/// [`ShardedMatcher::scan_stream_into`] (payload batches, flows in
/// parallel).
#[derive(Debug, Clone)]
pub struct ShardedMatcher {
    shards: Vec<Shard>,
    /// Worker count for the parallel entry points (1 = sequential mode).
    cores: usize,
    strategy: SplitStrategy,
    /// Case-fold table shared by every shard (all shards inherit the
    /// original set's case mode).
    fold: [u8; 256],
    /// Request the SIMD fast-lane kernels in every per-shard matcher
    /// (honored only when the build and CPU support them — see
    /// [`CompiledMatcher::with_simd`]).
    simd: bool,
    /// Shard index boundaries assigning contiguous shard runs to worker
    /// threads, balanced by compiled-arena bytes ([0, …, shard count]).
    chunk_bounds: Vec<usize>,
}

impl ShardedMatcher {
    /// Plans a shard layout for `set` (prefix split, falling back to the
    /// round-robin split when prefixes skew — see
    /// [`PatternSet::plan_shards`]), compiles one automaton per shard,
    /// and precomputes the core assignment.
    ///
    /// # Errors
    ///
    /// [`ShardPlanError::PatternExceedsBudget`] when a single pattern's
    /// estimated arena alone exceeds `config.budget_bytes` — no shard
    /// count can satisfy such a budget. Never fires under
    /// [`ShardedConfig::with_cores`] defaults (a maximum-length pattern
    /// estimates well under the default 1 MiB budget).
    pub fn build(
        set: &PatternSet,
        config: &ShardedConfig,
    ) -> Result<ShardedMatcher, ShardPlanError> {
        Self::build_inner(set, config, None)
    }

    /// [`ShardedMatcher::build`] with profile-guided pair layers: each
    /// shard's hot pair rows are ranked by the occupancy of a scan
    /// over `sample` (see [`PairTable::build_profiled`]) instead of
    /// the static in-degree proxy. `sample` should be representative
    /// traffic; it is scanned once per shard at build time.
    ///
    /// # Errors
    ///
    /// As [`ShardedMatcher::build`].
    pub fn build_with_profile(
        set: &PatternSet,
        config: &ShardedConfig,
        sample: &[u8],
    ) -> Result<ShardedMatcher, ShardPlanError> {
        Self::build_inner(set, config, Some(sample))
    }

    fn build_inner(
        set: &PatternSet,
        config: &ShardedConfig,
        profile: Option<&[u8]>,
    ) -> Result<ShardedMatcher, ShardPlanError> {
        let mut spec = ShardSpec::for_cores(config.cores);
        spec.shards_hint = config.shards_hint.max(1);
        spec.budget_bytes = config.budget_bytes;
        spec.max_shards = config.max_shards;
        let plan = set.plan_shards(&spec)?;
        let strategy = plan.strategy;
        let shards: Vec<Shard> = plan
            .parts
            .into_iter()
            .map(|(sub, ids)| Shard {
                automaton: config.compile(&sub, profile),
                set: sub,
                ids,
            })
            .collect();
        let fold = CompiledMatcher::fold_table(set);
        let costs: Vec<usize> = shards.iter().map(|s| s.automaton.memory_bytes()).collect();
        let chunk_bounds = chunk_bounds(&costs, config.cores);
        Ok(ShardedMatcher {
            shards,
            cores: config.cores.max(1),
            strategy,
            fold,
            simd: config.simd,
            chunk_bounds,
        })
    }

    /// A matcher with zero shards: it owns no automaton, reports no
    /// match and holds 0 bytes. The two-stage builder deploys it as the
    /// verifier when no cover entry can open a replay window, so no
    /// idle copy of the ruleset is compiled. `set` supplies only the
    /// case folding.
    pub(crate) fn empty(set: &PatternSet, config: &ShardedConfig) -> ShardedMatcher {
        ShardedMatcher {
            shards: Vec::new(),
            cores: config.cores.max(1),
            strategy: SplitStrategy::Prefix,
            fold: CompiledMatcher::fold_table(set),
            simd: config.simd,
            chunk_bounds: chunk_bounds(&[], config.cores),
        }
    }

    /// Number of shards the pattern set was split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker count the parallel entry points use.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Which split strategy the planner selected.
    pub fn strategy(&self) -> SplitStrategy {
        self.strategy
    }

    /// Enables or disables the SIMD fast-lane kernels for subsequent
    /// scans — the A/B switch mirroring the per-matcher
    /// [`CompiledMatcher::with_simd`]. Requesting them is always sound:
    /// on portable builds or CPUs without SSSE3 the request is ignored
    /// and the safe scalar lanes run.
    pub fn with_simd(mut self, enabled: bool) -> Self {
        self.simd = enabled;
        self
    }

    /// Whether the SIMD fast-lane kernels are actually active in shard
    /// scan loops: requested **and** available on this build and CPU.
    pub fn simd(&self) -> bool {
        self.simd && dpi_automaton::simd_available()
    }

    /// The pair-transition layer of shard `shard` (present unless the
    /// budget bought neither region rows nor a hot row — see
    /// [`ShardedConfig::pair_budget_bytes`]). Exposed so tests and
    /// benches can inspect per-shard hot-set coverage and memory.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn shard_pairs(&self, shard: usize) -> Option<&PairTable> {
        self.shards[shard].automaton.pairs()
    }

    /// The anchor analysis of shard `shard` (every shard is compiled
    /// with one). Exposed so benches and tests can verify that shard
    /// anchor sets shrink relative to the master's — the reason sharded
    /// scanning skips more of the same traffic.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn shard_anchors(&self, shard: usize) -> &AnchorSet {
        self.shards[shard]
            .automaton
            .prefilter()
            .expect("every shard is compiled with anchors")
    }

    /// Total flat-memory bytes across all shard automata.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.automaton.memory_bytes()).sum()
    }

    /// Flat-memory bytes of shard `shard` — the quantity the planner
    /// budgeted against the per-core cache.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn shard_memory_bytes(&self, shard: usize) -> usize {
        self.shards[shard].automaton.memory_bytes()
    }

    /// Pattern count of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].set.len()
    }

    /// The contiguous shard ranges assigned to each worker thread by the
    /// arena-balanced partition — one range per core that
    /// [`ShardedMatcher::scan_into`] will occupy. Exposed so benches and
    /// custom executors can reason about (or reproduce) the exact
    /// per-core workload.
    pub fn core_assignments(&self) -> Vec<std::ops::Range<usize>> {
        self.chunk_bounds
            .windows(2)
            .map(|w| w[0]..w[1])
            .collect()
    }

    /// Fresh scratch sized for this matcher. Reuse it across scans; the
    /// inner buffers keep their capacity.
    pub fn scratch(&self) -> ShardedScratch {
        ShardedScratch {
            per_shard: vec![Vec::new(); self.shards.len()],
            cursors: Vec::with_capacity(self.shards.len()),
        }
    }

    /// Scans `payload` with every shard — in parallel on
    /// [`ShardedMatcher::cores`] scoped threads when `cores > 1`,
    /// sequentially on the calling thread otherwise — and merges the
    /// per-shard results into `out` in canonical `(end, pattern)` order
    /// with **global** pattern ids. `out` is cleared first; with a reused
    /// `scratch` the steady-state scan performs no allocation.
    pub fn scan_into(&self, payload: &[u8], scratch: &mut ShardedScratch, out: &mut Vec<Match>) {
        scratch.per_shard.resize_with(self.shards.len(), Vec::new);
        if self.cores <= 1 || self.shards.len() <= 1 {
            for (shard, buf) in self.shards.iter().zip(scratch.per_shard.iter_mut()) {
                self.scan_one(shard, payload, buf);
            }
        } else {
            self.scan_shards_parallel(payload, &mut scratch.per_shard);
        }
        merge_sorted(&scratch.per_shard, &mut scratch.cursors, out);
    }

    /// Fresh resumable state for one flow: every shard's registers at the
    /// fresh-flow value. Suspend/resume it through
    /// [`ShardedMatcher::scan_chunk_into`].
    pub fn flow_state(&self) -> ShardedScanState {
        ShardedScanState {
            per_shard: vec![ScanState::fresh(); self.shards.len()],
        }
    }

    /// Resumable scan: consumes `chunk` from `state` through **every**
    /// shard, **appending** the merged matches to `out` in canonical
    /// `(end, pattern)` order with stream-absolute ends and global
    /// pattern ids, and leaves `state` suspended for the flow's next
    /// chunk. Chunks are scanned on the calling thread: per-flow chunks
    /// are MTU-sized, where a per-chunk thread fan-out costs more than it
    /// hides — the parallel axis for streaming traffic is flows across
    /// cores ([`ShardedMatcher::scan_flows_with`]), not shards within a
    /// chunk.
    ///
    /// Appending chunk-canonical runs at increasing offsets keeps `out`
    /// globally canonical across the whole stream.
    ///
    /// # Panics
    ///
    /// Panics if `state` was created by a matcher with a different shard
    /// count.
    pub fn scan_chunk_into(
        &self,
        state: &mut ShardedScanState,
        chunk: &[u8],
        scratch: &mut ShardedScratch,
        out: &mut Vec<Match>,
    ) {
        self.scan_chunk_masked_into(state, chunk, scratch, out, u64::MAX);
    }

    /// [`ShardedMatcher::scan_chunk_into`] restricted to the shards
    /// selected by `mask` (bit `i` selects shard `i`; shards at index
    /// ≥ 64 always scan — see the merge fan-in cap). Unmasked lanes are
    /// untouched: their registers keep whatever stream position and
    /// in-flight state they held, so each lane is an independently
    /// resumable cursor. The two-stage window replay uses this to route
    /// a merged window only through the shards owning the flagged
    /// family, joining lanes later via
    /// [`ScanState::reset_at`]-style catch-up.
    ///
    /// # Panics
    ///
    /// Panics if `state` was created by a matcher with a different shard
    /// count.
    pub fn scan_chunk_masked_into(
        &self,
        state: &mut ShardedScanState,
        chunk: &[u8],
        scratch: &mut ShardedScratch,
        out: &mut Vec<Match>,
        mask: u64,
    ) {
        assert_eq!(
            state.per_shard.len(),
            self.shards.len(),
            "flow state belongs to a matcher with a different shard count"
        );
        scratch.per_shard.resize_with(self.shards.len(), Vec::new);
        for (i, ((shard, flow), buf)) in self
            .shards
            .iter()
            .zip(state.per_shard.iter_mut())
            .zip(scratch.per_shard.iter_mut())
            .enumerate()
        {
            buf.clear();
            if !lane_in_mask(i, mask) {
                continue;
            }
            let matcher = CompiledMatcher::with_shared_fold(
                &shard.automaton,
                &shard.set,
                self.fold,
                self.simd,
            );
            matcher.for_each_match_chunk(flow, chunk, |m| {
                buf.push(Match {
                    end: m.end,
                    pattern: shard.ids[m.pattern.index()],
                });
            });
        }
        merge_sorted_append(&scratch.per_shard, &mut scratch.cursors, out);
    }

    /// Resumable scan of exactly one lane — no always-on high lanes, no
    /// merge: matches append with global ids in this lane's canonical
    /// order. The catch-up primitive for masked window replay: a lane
    /// joining an in-progress window scans its private gap
    /// `[lane_offset, frontier)` alone while every other lane's cursor
    /// stays put.
    pub(crate) fn scan_lane_chunk_into(
        &self,
        state: &mut ShardedScanState,
        lane: usize,
        chunk: &[u8],
        out: &mut Vec<Match>,
    ) {
        let shard = &self.shards[lane];
        let flow = &mut state.per_shard[lane];
        let matcher = CompiledMatcher::with_shared_fold(
            &shard.automaton,
            &shard.set,
            self.fold,
            self.simd,
        );
        matcher.for_each_match_chunk(flow, chunk, |m| {
            out.push(Match {
                end: m.end,
                pattern: shard.ids[m.pattern.index()],
            });
        });
    }

    /// For every pattern in the built set, the index of the shard that
    /// owns it — the map the two-stage builder turns into per-family
    /// shard masks for window replay subsetting.
    pub fn shard_of(&self) -> Vec<u32> {
        let total: usize = self.shards.iter().map(|s| s.ids.len()).sum();
        let mut map = vec![0u32; total];
        for (si, shard) in self.shards.iter().enumerate() {
            for id in &shard.ids {
                map[id.index()] = si as u32;
            }
        }
        map
    }

    /// Streaming batch scan with per-flow state carried between batches —
    /// the continuous-traffic shape: `payloads[i]` is the next chunk of
    /// the flow whose state is `states[i]`. Flows are partitioned across
    /// [`ShardedMatcher::cores`] workers **by flow index** (not by bytes,
    /// as [`ShardedMatcher::scan_stream_with`] balances one-shot
    /// batches), so a flow that stays at the same index across batches is
    /// pinned to the same core — its shard automata and its state stay
    /// warm in that core's cache. `out` is index-aligned with `payloads`
    /// and holds **this batch's** matches (stream-absolute ends, global
    /// ids); accumulate across batches caller-side if needed.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `payloads` lengths differ, or any state has
    /// the wrong shard count.
    pub fn scan_flows_with<P: AsRef<[u8]> + Sync>(
        &self,
        payloads: &[P],
        states: &mut [ShardedScanState],
        scratch: &mut StreamScratch,
        out: &mut Vec<Vec<Match>>,
    ) {
        assert_eq!(
            payloads.len(),
            states.len(),
            "one state per flow payload required"
        );
        out.resize_with(payloads.len(), Vec::new);
        for buf in out.iter_mut() {
            buf.clear();
        }
        if payloads.is_empty() {
            return;
        }
        let workers = self.cores.clamp(1, payloads.len());
        scratch.per_worker.resize_with(workers, ShardedScratch::default);
        if workers <= 1 {
            let worker_scratch = &mut scratch.per_worker[0];
            for ((payload, state), slot) in
                payloads.iter().zip(states.iter_mut()).zip(out.iter_mut())
            {
                self.scan_chunk_into(state, payload.as_ref(), worker_scratch, slot);
            }
            return;
        }
        // Even contiguous split by flow *index*: stable across batches,
        // which is what pins a flow to one core.
        let n = payloads.len();
        let mut workers_vec = Vec::with_capacity(workers);
        let mut rest_out: &mut [Vec<Match>] = out.as_mut_slice();
        let mut rest_states: &mut [ShardedScanState] = states;
        let mut lo = 0usize;
        for (w, worker_scratch) in scratch.per_worker.iter_mut().enumerate() {
            let hi = (w + 1) * n / workers;
            let (chunk_out, tail_out) = rest_out.split_at_mut(hi - lo);
            rest_out = tail_out;
            let (chunk_states, tail_states) = rest_states.split_at_mut(hi - lo);
            rest_states = tail_states;
            let chunk_payloads = &payloads[lo..hi];
            lo = hi;
            workers_vec.push(move || {
                for ((payload, state), slot) in chunk_payloads
                    .iter()
                    .zip(chunk_states.iter_mut())
                    .zip(chunk_out.iter_mut())
                {
                    self.scan_chunk_into(state, payload.as_ref(), worker_scratch, slot);
                }
            });
        }
        fan_out(workers_vec);
    }

    /// Fresh stream scratch for [`ShardedMatcher::scan_stream_with`].
    pub fn stream_scratch(&self) -> StreamScratch {
        StreamScratch::default()
    }

    /// Scans a batch of payloads — the millions-of-flows shape. Payloads
    /// are partitioned contiguously across [`ShardedMatcher::cores`]
    /// workers (balanced by payload bytes); each worker runs **all**
    /// shards over its own payloads, so the small automata stay resident
    /// in that core's cache while results never cross threads. `out` is
    /// index-aligned with `payloads`, each entry in canonical order with
    /// global ids.
    ///
    /// Allocates fresh per-worker scratch each call; ingest loops should
    /// hold a [`StreamScratch`] and call
    /// [`ShardedMatcher::scan_stream_with`].
    pub fn scan_stream_into<P: AsRef<[u8]> + Sync>(
        &self,
        payloads: &[P],
        out: &mut Vec<Vec<Match>>,
    ) {
        let mut scratch = self.stream_scratch();
        self.scan_stream_with(payloads, &mut scratch, out);
    }

    /// [`ShardedMatcher::scan_stream_into`] with caller-owned per-worker
    /// buffers — the steady-state shape for loops that scan batch after
    /// batch.
    pub fn scan_stream_with<P: AsRef<[u8]> + Sync>(
        &self,
        payloads: &[P],
        scratch: &mut StreamScratch,
        out: &mut Vec<Vec<Match>>,
    ) {
        out.resize_with(payloads.len(), Vec::new);
        for buf in out.iter_mut() {
            buf.clear();
        }
        if payloads.is_empty() {
            return;
        }
        let workers = self.cores.clamp(1, payloads.len());
        scratch.per_worker.resize_with(workers, ShardedScratch::default);
        if workers <= 1 {
            let worker_scratch = &mut scratch.per_worker[0];
            for (payload, slot) in payloads.iter().zip(out.iter_mut()) {
                self.scan_sequential(payload.as_ref(), worker_scratch, slot);
            }
            return;
        }
        let costs: Vec<usize> = payloads.iter().map(|p| p.as_ref().len()).collect();
        let bounds = chunk_bounds(&costs, workers);
        let mut workers_vec = Vec::with_capacity(bounds.len() - 1);
        let mut rest: &mut [Vec<Match>] = out.as_mut_slice();
        for (window, worker_scratch) in bounds.windows(2).zip(scratch.per_worker.iter_mut()) {
            let (lo, hi) = (window[0], window[1]);
            let (chunk_out, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            let chunk_payloads = &payloads[lo..hi];
            workers_vec.push(move || {
                for (payload, slot) in chunk_payloads.iter().zip(chunk_out.iter_mut()) {
                    self.scan_sequential(payload.as_ref(), worker_scratch, slot);
                }
            });
        }
        fan_out(workers_vec);
    }

    /// Scans `payload` with a single shard, reporting **global** pattern
    /// ids in canonical order. Public so callers can drive shards on
    /// their own executor (and so benches can time shards individually —
    /// the per-core cost a multi-core deployment pays).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn scan_shard_into(&self, shard: usize, payload: &[u8], out: &mut Vec<Match>) {
        let shard = &self.shards[shard];
        self.scan_one(shard, payload, out);
    }

    /// All shards sequentially on the calling thread + merge — the
    /// per-worker body of the stream entry point.
    fn scan_sequential(&self, payload: &[u8], scratch: &mut ShardedScratch, out: &mut Vec<Match>) {
        scratch.per_shard.resize_with(self.shards.len(), Vec::new);
        for (shard, buf) in self.shards.iter().zip(scratch.per_shard.iter_mut()) {
            self.scan_one(shard, payload, buf);
        }
        merge_sorted(&scratch.per_shard, &mut scratch.cursors, out);
    }

    /// Fan the shards out over scoped threads, one contiguous
    /// arena-balanced chunk per core.
    fn scan_shards_parallel(&self, payload: &[u8], per_shard: &mut [Vec<Match>]) {
        let mut workers = Vec::with_capacity(self.chunk_bounds.len() - 1);
        let mut rest = per_shard;
        for window in self.chunk_bounds.windows(2) {
            let (lo, hi) = (window[0], window[1]);
            let (chunk_bufs, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            let shards = &self.shards[lo..hi];
            workers.push(move || {
                for (shard, buf) in shards.iter().zip(chunk_bufs.iter_mut()) {
                    self.scan_one(shard, payload, buf);
                }
            });
        }
        fan_out(workers);
    }

    /// One shard's scan: compiled fast path, local ids translated to
    /// global as matches stream out.
    fn scan_one(&self, shard: &Shard, payload: &[u8], buf: &mut Vec<Match>) {
        buf.clear();
        let matcher = CompiledMatcher::with_shared_fold(
            &shard.automaton,
            &shard.set,
            self.fold,
            self.simd,
        );
        matcher.for_each_match(payload, |m| {
            buf.push(Match {
                end: m.end,
                pattern: shard.ids[m.pattern.index()],
            });
        });
    }
}

impl MultiMatcher for ShardedMatcher {
    fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.find_all_into(haystack, &mut out);
        out
    }

    /// Allocates a fresh [`ShardedScratch`] per call; production loops
    /// should hold one and call [`ShardedMatcher::scan_into`] instead.
    fn find_all_into(&self, haystack: &[u8], out: &mut Vec<Match>) {
        let mut scratch = self.scratch();
        self.scan_into(haystack, &mut scratch, out);
    }

    /// Early-exit fast path: shards are probed sequentially on the
    /// calling thread (spawning threads to maybe-exit-early would cost
    /// more than it hides) and the first accepting shard wins.
    fn is_match(&self, haystack: &[u8]) -> bool {
        self.shards.iter().any(|shard| {
            CompiledMatcher::with_shared_fold(
                &shard.automaton,
                &shard.set,
                self.fold,
                self.simd,
            )
            .is_match(haystack)
        })
    }
}

/// Runs the worker closures on scoped threads — all but the last on
/// spawned threads, the last on the calling thread, so a fan-out of N
/// workers occupies exactly N cores. Shared by both scan shapes so the
/// spawn policy lives in one place.
fn fan_out<F: FnMut() + Send>(workers: Vec<F>) {
    let n = workers.len();
    std::thread::scope(|scope| {
        for (i, mut worker) in workers.into_iter().enumerate() {
            if i + 1 == n {
                worker();
            } else {
                scope.spawn(worker);
            }
        }
    });
}

/// Splits `costs.len()` items into at most `max_chunks` contiguous chunks
/// with roughly equal cost sums, returning the boundary indices
/// (`[0, …, len]`, every chunk non-empty).
fn chunk_bounds(costs: &[usize], max_chunks: usize) -> Vec<usize> {
    let n = costs.len();
    let k = max_chunks.clamp(1, n.max(1));
    let total = costs.iter().sum::<usize>().max(1);
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0usize);
    let mut acc = 0usize;
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        let closed = bounds.len(); // chunks closed once we cut here
        let items_left = n - (i + 1);
        let chunks_left = k - closed;
        if closed < k
            && (acc as u128 * k as u128 >= total as u128 * closed as u128
                || items_left == chunks_left)
        {
            bounds.push(i + 1);
        }
    }
    bounds.push(n);
    bounds
}

/// K-way merge of per-shard canonical match buffers into one canonical
/// stream. Shards partition the pattern set, so no two buffers ever hold
/// the same `(end, pattern)` — the merge is a strict interleave.
///
/// Linear scan over the k cursors per emitted match — O(matches × k).
/// k is the shard count (≈ cores, capped at 64), so even match-heavy
/// scans pay a few comparisons per match, dwarfed by the per-byte scan
/// itself; a heap would add allocation and indirection to save work
/// that does not show up in profiles at these k.
fn merge_sorted(bufs: &[Vec<Match>], cursors: &mut Vec<usize>, out: &mut Vec<Match>) {
    out.clear();
    merge_sorted_append(bufs, cursors, out);
}

/// [`merge_sorted`] without the clear — the chunk-scan path appends each
/// chunk's canonical run after the previous chunks' (runs are at strictly
/// increasing offsets, so concatenation stays canonical).
fn merge_sorted_append(bufs: &[Vec<Match>], cursors: &mut Vec<usize>, out: &mut Vec<Match>) {
    cursors.clear();
    cursors.resize(bufs.len(), 0);
    out.reserve(bufs.iter().map(Vec::len).sum());
    loop {
        let mut best: Option<(usize, Match)> = None;
        for (k, buf) in bufs.iter().enumerate() {
            if let Some(&m) = buf.get(cursors[k]) {
                if best.is_none_or(|(_, b)| m < b) {
                    best = Some((k, m));
                }
            }
        }
        let Some((k, m)) = best else { break };
        cursors[k] += 1;
        out.push(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledAutomaton;

    fn build_all(patterns: &[&str], cores: usize) -> (PatternSet, ShardedMatcher) {
        let set = PatternSet::new(patterns).unwrap();
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(cores)).unwrap();
        (set, sharded)
    }

    fn reference(set: &PatternSet, text: &[u8]) -> Vec<Match> {
        let dfa = Dfa::build(set);
        let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let compiled = CompiledAutomaton::compile(&reduced);
        CompiledMatcher::new(&compiled, set).find_all(text)
    }

    #[test]
    fn matches_figure1_across_core_counts() {
        for cores in [1usize, 2, 3, 4] {
            let (set, sharded) = build_all(&["he", "she", "his", "hers"], cores);
            let text = b"ushers and she said his hers";
            assert_eq!(
                sharded.find_all(text),
                reference(&set, text),
                "cores={cores}"
            );
        }
    }

    #[test]
    fn single_core_spawns_no_threads_and_agrees() {
        let (set, sharded) = build_all(&["alpha", "beta", "gamma", "delta"], 1);
        assert_eq!(sharded.cores(), 1);
        let text = b"alphabetagammadelta alpha";
        assert_eq!(sharded.find_all(text), reference(&set, text));
    }

    #[test]
    fn global_ids_survive_sharding() {
        let (set, sharded) = build_all(&["aaa", "bbb", "ccc", "ddd", "eee"], 3);
        let found = sharded.find_all(b"xxcccxx");
        assert_eq!(found.len(), 1);
        assert_eq!(set.pattern(found[0].pattern), b"ccc");
    }

    #[test]
    fn scratch_reuse_is_allocation_free_steady_state() {
        let (_, sharded) = build_all(&["he", "she", "his", "hers"], 2);
        let mut scratch = sharded.scratch();
        let mut out = Vec::new();
        sharded.scan_into(b"ushers and she said his hers", &mut scratch, &mut out);
        assert_eq!(out.len(), 8);
        let cap = out.capacity();
        let inner_caps: Vec<usize> = scratch.per_shard.iter().map(Vec::capacity).collect();
        sharded.scan_into(b"ushers", &mut scratch, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out.capacity(), cap, "output buffer must be reused");
        let inner_after: Vec<usize> = scratch.per_shard.iter().map(Vec::capacity).collect();
        assert_eq!(inner_caps, inner_after, "shard buffers must be reused");
    }

    #[test]
    fn stream_scan_equals_per_payload_scan() {
        let (set, sharded) = build_all(&["he", "she", "his", "hers", "hex"], 2);
        let payloads: Vec<&[u8]> = vec![
            b"ushers",
            b"",
            b"she said his",
            b"hhhh",
            b"hexadecimal hers",
            b"x",
        ];
        let mut out = Vec::new();
        sharded.scan_stream_into(&payloads, &mut out);
        assert_eq!(out.len(), payloads.len());
        for (payload, got) in payloads.iter().zip(&out) {
            assert_eq!(got, &reference(&set, payload), "payload {payload:?}");
        }
    }

    #[test]
    fn stream_scan_reuses_outer_buffers() {
        let (_, sharded) = build_all(&["he", "she"], 2);
        let payloads: Vec<&[u8]> = vec![b"he he he", b"she"];
        let mut out = Vec::new();
        sharded.scan_stream_into(&payloads, &mut out);
        let caps: Vec<usize> = out.iter().map(Vec::capacity).collect();
        sharded.scan_stream_into(&payloads, &mut out);
        assert_eq!(caps, out.iter().map(Vec::capacity).collect::<Vec<_>>());
    }

    #[test]
    fn stream_scan_with_reuses_worker_scratch() {
        let (set, sharded) = build_all(&["he", "she", "his", "hers"], 2);
        let payloads: Vec<&[u8]> = vec![b"ushers", b"his hers", b"nothing", b"she"];
        let mut scratch = sharded.stream_scratch();
        let mut out = Vec::new();
        sharded.scan_stream_with(&payloads, &mut scratch, &mut out);
        for (payload, got) in payloads.iter().zip(&out) {
            assert_eq!(got, &reference(&set, payload));
        }
        // Second batch through the same scratch: identical results, and
        // the per-worker shard buffers keep their capacity.
        let caps: Vec<Vec<usize>> = scratch
            .per_worker
            .iter()
            .map(|s| s.per_shard.iter().map(Vec::capacity).collect())
            .collect();
        sharded.scan_stream_with(&payloads, &mut scratch, &mut out);
        for (payload, got) in payloads.iter().zip(&out) {
            assert_eq!(got, &reference(&set, payload));
        }
        let caps_after: Vec<Vec<usize>> = scratch
            .per_worker
            .iter()
            .map(|s| s.per_shard.iter().map(Vec::capacity).collect())
            .collect();
        assert_eq!(caps, caps_after, "worker scratch must be reused");
    }

    #[test]
    fn anchored_shards_match_the_bare_stepper() {
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
        for text in [&b"zzzzzzzzzzzzushers and she said his hers"[..], b"zzzz"] {
            let want = reference(&set, text);
            assert_eq!(sharded.find_all(text), want);
            assert_eq!(sharded.is_match(text), !want.is_empty());
        }
    }

    #[test]
    fn shard_anchor_sets_skip_at_least_as_much_as_the_master() {
        // A shard holds a subset of the patterns, so every byte the
        // master's anchor analysis can skip, the shard's can too — the
        // reason sharded scanning fast-forwards *more* of the same
        // traffic.
        let patterns: Vec<String> = (0..64)
            .map(|i| format!("{:02x}pat{i}", i * 7 % 251))
            .collect();
        let set = PatternSet::new(&patterns).unwrap();
        let mut config = ShardedConfig::with_cores(4);
        config.budget_bytes = 64 * 1024; // force several shards
        let sharded = ShardedMatcher::build(&set, &config).unwrap();
        assert!(sharded.shard_count() > 1);
        let dfa = Dfa::build(&set);
        let master = AnchorSet::build(&dfa, &set, config.anchor_horizon);
        for s in 0..sharded.shard_count() {
            let anchors = sharded.shard_anchors(s);
            assert!(
                anchors.skippable_bytes() >= master.skippable_bytes(),
                "shard {s}: {} skippable < master {}",
                anchors.skippable_bytes(),
                master.skippable_bytes()
            );
            for b in 0..=255u8 {
                if master.is_skippable(b) {
                    assert!(anchors.is_skippable(b), "shard {s} lost skip byte {b:#04x}");
                }
            }
        }
    }

    #[test]
    fn more_cores_than_patterns() {
        let (set, sharded) = build_all(&["ab", "cd"], 8);
        assert!(sharded.shard_count() <= 2);
        let text = b"abcdabcd";
        assert_eq!(sharded.find_all(text), reference(&set, text));
    }

    #[test]
    fn is_match_early_exit_agrees() {
        let (_, sharded) = build_all(&["he", "she", "his", "hers"], 2);
        assert!(sharded.is_match(b"this"));
        assert!(!sharded.is_match(b"hx sx ex"));
        assert!(!sharded.is_match(b""));
    }

    #[test]
    fn shard_scan_union_covers_everything() {
        let (set, sharded) = build_all(&["alpha", "beta", "gamma", "delta"], 2);
        let text = b"alphabetagammadelta";
        let mut union: Vec<Match> = Vec::new();
        let mut buf = Vec::new();
        for s in 0..sharded.shard_count() {
            sharded.scan_shard_into(s, text, &mut buf);
            union.extend_from_slice(&buf);
        }
        union.sort_unstable();
        assert_eq!(union, reference(&set, text));
    }

    #[test]
    fn memory_accounting_sums_shards() {
        let (_, sharded) = build_all(&["he", "she", "his", "hers"], 2);
        let per: usize = (0..sharded.shard_count())
            .map(|s| sharded.shard_memory_bytes(s))
            .sum();
        assert_eq!(per, sharded.memory_bytes());
        let patterns: usize = (0..sharded.shard_count())
            .map(|s| sharded.shard_len(s))
            .sum();
        assert_eq!(patterns, 4);
    }

    #[test]
    fn empty_matcher_scans_every_shape_to_nothing() {
        let set = PatternSet::new(["he", "she"]).unwrap();
        let empty = ShardedMatcher::empty(&set, &ShardedConfig::with_cores(2));
        assert_eq!(empty.shard_count(), 0);
        assert_eq!(empty.memory_bytes(), 0);
        assert!(empty.shard_of().is_empty());
        assert!(empty.find_all(b"ushers").is_empty());
        assert!(!empty.is_match(b"ushers"));
        let mut state = empty.flow_state();
        let mut out = Vec::new();
        empty.scan_chunk_into(&mut state, b"ushers", &mut empty.scratch(), &mut out);
        assert!(out.is_empty());
        assert_eq!(state.shard_count(), 0);
        let mut batch = Vec::new();
        empty.scan_stream_into(&[&b"she"[..], b"he"], &mut batch);
        assert_eq!(batch, vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn chunk_bounds_properties() {
        for (costs, k) in [
            (vec![1usize, 1, 1, 1], 2usize),
            (vec![5, 1, 1], 3),
            (vec![1, 1, 5], 3),
            (vec![100, 1, 1, 1], 4),
            (vec![7], 4),
            (vec![3, 3, 3, 3, 3, 3, 3], 3),
        ] {
            let bounds = chunk_bounds(&costs, k);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), costs.len());
            assert!(bounds.len() - 1 <= k.min(costs.len()), "{costs:?} k={k}");
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "empty chunk in {bounds:?} for {costs:?} k={k}"
            );
        }
    }

    #[test]
    fn chunked_scan_equals_whole_payload() {
        let (set, sharded) = build_all(&["he", "she", "his", "hers", "hex"], 2);
        let payload = b"ushers and she said hex his hers";
        let whole = reference(&set, payload);
        let mut scratch = sharded.scratch();
        for cut in 0..=payload.len() {
            let mut flow = sharded.flow_state();
            let mut got = Vec::new();
            sharded.scan_chunk_into(&mut flow, &payload[..cut], &mut scratch, &mut got);
            sharded.scan_chunk_into(&mut flow, &payload[cut..], &mut scratch, &mut got);
            assert_eq!(got, whole, "split at {cut} diverged");
            assert_eq!(flow.offset(), payload.len() as u64);
        }
    }

    #[test]
    fn flow_state_shard_count_mismatch_panics() {
        let (_, two) = build_all(&["aa", "bb", "cc", "dd"], 2);
        let (_, one) = build_all(&["aa"], 1);
        let mut wrong = one.flow_state();
        let mut scratch = two.scratch();
        let mut out = Vec::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            two.scan_chunk_into(&mut wrong, b"aabb", &mut scratch, &mut out)
        }));
        assert!(err.is_err(), "mismatched flow state must be rejected");
    }

    #[test]
    fn flow_batches_carry_state_between_batches() {
        let (set, sharded) = build_all(&["he", "she", "his", "hers"], 2);
        // Two flows; each flow's payload is delivered in two batches cut
        // mid-pattern. Batch results must stitch to the whole-payload
        // matches with stream-absolute offsets.
        let flows: Vec<&[u8]> = vec![b"usher", b"this hers"];
        let cut = 3usize;
        let mut states: Vec<ShardedScanState> =
            (0..flows.len()).map(|_| sharded.flow_state()).collect();
        let mut scratch = sharded.stream_scratch();
        let mut accumulated: Vec<Vec<Match>> = vec![Vec::new(); flows.len()];
        for batch in 0..2 {
            let chunks: Vec<&[u8]> = flows
                .iter()
                .map(|f| if batch == 0 { &f[..cut] } else { &f[cut..] })
                .collect();
            let mut out = Vec::new();
            sharded.scan_flows_with(&chunks, &mut states, &mut scratch, &mut out);
            for (acc, batch_matches) in accumulated.iter_mut().zip(&out) {
                acc.extend_from_slice(batch_matches);
            }
        }
        for (flow, got) in flows.iter().zip(&accumulated) {
            assert_eq!(got, &reference(&set, flow), "flow {flow:?}");
        }
        for state in &states {
            assert!(state.shard_count() > 0);
        }
    }

    #[test]
    fn single_pattern_over_budget_surfaces_from_build() {
        let set = PatternSet::new([&"z".repeat(3000)]).unwrap();
        let mut config = ShardedConfig::with_cores(2);
        config.budget_bytes = 1024; // below any single-pattern floor
        let err = ShardedMatcher::build(&set, &config).unwrap_err();
        assert!(err.to_string().contains("per-shard budget"), "{err}");
    }

    #[test]
    fn paired_shards_equal_anchor_only_shards() {
        // The composed pair lane against the anchor lane alone: a zero
        // pair budget compiles the same shards without a table.
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        let on = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
        for s in 0..on.shard_count() {
            let pt = on.shard_pairs(s).expect("shard pair table");
            assert!(pt.has_region_rows(), "shard {s} missing region rows");
        }
        let mut config = ShardedConfig::with_cores(2);
        config.pair_budget_bytes = 0;
        let off = ShardedMatcher::build(&set, &config).unwrap();
        assert!(off.shard_pairs(0).is_none());
        let text = b"zzzzzzzzzzzzushers and she said his hers";
        assert_eq!(on.find_all(text), off.find_all(text));
        assert_eq!(on.find_all(text), reference(&set, text));
        assert_eq!(on.is_match(text), off.is_match(text));
    }

    #[test]
    fn profiled_build_is_equivalent() {
        let set = PatternSet::new(["he", "she", "his", "hers", "hex"]).unwrap();
        let sample = b"xxhe hers zzz hex shishershe".repeat(64);
        let profiled =
            ShardedMatcher::build_with_profile(&set, &ShardedConfig::with_cores(2), &sample)
                .unwrap();
        let plain = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
        let text = b"ushers and she said hex his hers";
        assert_eq!(profiled.find_all(text), plain.find_all(text));
        assert_eq!(profiled.find_all(text), reference(&set, text));
    }

    #[test]
    fn pair_budget_shapes_the_shard_table() {
        // Pins the `pair_budget_bytes` doc: below the region rows no
        // table; exactly the region rows buys them and no hot row; the
        // default buys both. Every shape scans identically.
        let set = PatternSet::new(["he", "she"]).unwrap();
        let with_budget = |budget: usize| {
            let mut config = ShardedConfig::with_cores(1);
            config.pair_budget_bytes = budget;
            ShardedMatcher::build(&set, &config).unwrap()
        };
        let none = with_budget(PairTable::REGION_ROW_BYTES - 1);
        assert!(none.shard_pairs(0).is_none());
        let region = with_budget(PairTable::REGION_ROW_BYTES);
        let pt = region.shard_pairs(0).expect("region rows attach");
        assert!(pt.has_region_rows());
        assert_eq!(pt.hot_states(), 0);
        let default = with_budget(ShardedConfig::DEFAULT_PAIR_BUDGET);
        let pt = default.shard_pairs(0).expect("default table attaches");
        assert!(pt.has_region_rows());
        assert!(pt.hot_states() > 0);
        for m in [&none, &region, &default] {
            assert_eq!(m.find_all(b"ushers"), reference(&set, b"ushers"));
        }
    }

    #[test]
    fn autotune_chooser_follows_the_measured_cost_model() {
        use dpi_automaton::ShardCostModel;
        // Synthetic measurement derived from the cost model: scanning
        // is flat-rate while the shard fits a 24 KiB "cache", then
        // degrades superlinearly (miss rate × miss latency both grow)
        // — the cliff shape the real probe measures. A merely linear
        // penalty would make shard count a wash by construction
        // (halving per-shard cost while doubling shards per core), and
        // the chooser must *not* grow on a wash.
        let model = ShardCostModel::default();
        let synthetic = |sub: &PatternSet| -> f64 {
            let bytes = model.estimate(sub) as f64;
            let penalty = (bytes / 24_576.0).max(1.0);
            1e-9 * penalty * penalty
        };

        // Small set: every shard already fits — the chooser must stay
        // at `cores` shards (more shards would only multiply work).
        let small: Vec<String> = (0..24)
            .map(|i| format!("{}p{i:02}", (b'a' + (i % 6) as u8) as char))
            .collect();
        let small = PatternSet::new(&small).unwrap();
        let config = ShardedConfig::autotune_shards_with(&small, 4, synthetic).unwrap();
        assert_eq!(config.shards_hint, 4);

        // Large set: one shard blows the synthetic cache, and halving
        // it pays more than the doubled shard count costs — the
        // chooser must grow past the core count.
        let large: Vec<String> = (0..4000)
            .map(|i| format!("{}needle{i:05}x", (b'a' + (i % 23) as u8) as char))
            .collect();
        let large = PatternSet::new(&large).unwrap();
        let config = ShardedConfig::autotune_shards_with(&large, 4, synthetic).unwrap();
        assert!(
            config.shards_hint > 4,
            "expected growth past the core count, got {}",
            config.shards_hint
        );
        // And the resulting hint is honoured by the planner.
        let m = ShardedMatcher::build(&large, &config).unwrap();
        assert!(m.shard_count() >= config.shards_hint);
    }

    #[test]
    fn autotune_measured_probe_runs_end_to_end() {
        // The real (timed) probe on a small set: just assert it picks a
        // sane count and the config builds.
        let set = diverse_probe_set();
        let config = ShardedConfig::autotune_shards(&set, 2).unwrap();
        assert!(config.shards_hint >= 2 || set.len() < 2);
        let m = ShardedMatcher::build(&set, &config).unwrap();
        assert_eq!(m.find_all(b"alphabet soup"), reference(&set, b"alphabet soup"));
    }

    fn diverse_probe_set() -> PatternSet {
        let strings: Vec<String> = (0..32)
            .map(|i| format!("{}tune{i:03}", (b'a' + (i % 8) as u8) as char))
            .collect();
        PatternSet::new(&strings).unwrap()
    }

    #[test]
    fn merge_is_canonical() {
        let a = vec![
            Match { end: 1, pattern: PatternId(0) },
            Match { end: 4, pattern: PatternId(2) },
        ];
        let b = vec![
            Match { end: 2, pattern: PatternId(1) },
            Match { end: 4, pattern: PatternId(1) },
        ];
        let mut cursors = Vec::new();
        let mut out = Vec::new();
        merge_sorted(&[a, b], &mut cursors, &mut out);
        let ends: Vec<(usize, u32)> = out.iter().map(|m| (m.end, m.pattern.0)).collect();
        assert_eq!(ends, vec![(1, 0), (2, 1), (4, 1), (4, 2)]);
    }
}
