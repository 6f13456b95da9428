//! Sharded scan engine: the ruleset split into independent compiled
//! automata, every shard scanned on the calling thread.
//!
//! Measurement settled how this workspace scales past one core. The
//! paper hides the byte→state→byte serial dependency by clocking engines
//! out of phase on *per-block memories*; the software rendering of that
//! interleave (a round-robin batch scanner, since deleted) broke even at
//! best, because software lanes share one cache hierarchy where hardware
//! engines own their ports. What *does* translate is the paper's other
//! axis (§IV.B): splitting the ruleset itself across blocks. Partition
//! the patterns with [`PatternSet::plan_shards`], compile one small
//! [`CompiledAutomaton`] per shard, and scan the payload through every
//! shard in turn. Each shard's automaton is a fraction of the monolith —
//! small enough to stay cache-resident — so per-shard scan speed rises
//! exactly where the monolithic automaton falls off.
//!
//! The engine spawns no threads. The cores axis belongs to the service's
//! workers ([`Service`](crate::Service)): each worker owns the flows
//! steered to it and drives their chunks through the shards on its own
//! thread. [`ShardedConfig::cores`] only steps the planner's shard
//! count. What a shard-per-core layout would gain is a projection from
//! per-shard timings ([`ShardedMatcher::scan_shard_into`]) plus the
//! k-way merge it still pays (the `-percore` rows of
//! `repro sharded-throughput`).
//!
//! Every shard is compiled with its own anchor analysis and, where its
//! calm density allows, its own region pair rows, so every shard runs
//! the lane stack its automaton measured worth carrying (see
//! `crate::compiled`), on the SIMD kernels wherever the build and CPU
//! support them.
//!
//! Two scan shapes:
//!
//! - [`ShardedMatcher::scan_into`] — one whole payload, the per-shard
//!   matches merged back to global [`PatternId`]s in canonical
//!   `(end, pattern)` order.
//! - [`ShardedMatcher::scan_chunk_into`] — one chunk of a flow through
//!   every shard, resumed from and suspended into the flow's
//!   [`ShardedScanState`].
//!
//! The split pays where every byte is scanned. The two-stage verifier
//! (`crate::two_stage`) replays only flagged windows, so it compiles its
//! patterns into one shard: each further shard would walk every
//! replayed byte again.
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
    /// Shard-count step of the planner ([`ShardSpec::for_cores`]): a
    /// plan holds `cores` shards, growing in steps of `cores` only while
    /// a shard's estimate exceeds [`ShardedConfig::budget_bytes`]. No
    /// scan reads it — every scan runs on the calling thread.
    pub cores: usize,
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
}

impl ShardedConfig {
    /// A configuration whose plan starts at `cores` shards (see
    /// [`ShardedConfig::cores`]), inheriting the planner's default
    /// budget and shard cap from [`ShardSpec::for_cores`] (so the two
    /// stay in lockstep), with the paper's DTP configuration. For
    /// planner knobs not surfaced here (skew limit, cost model), call
    /// [`PatternSet::plan_shards`] directly.
    pub fn with_cores(cores: usize) -> ShardedConfig {
        let spec = ShardSpec::for_cores(cores);
        ShardedConfig {
            cores: cores.max(1),
            budget_bytes: spec.budget_bytes,
            max_shards: spec.max_shards,
            dtp: DtpConfig::PAPER,
            anchor_horizon: AnchorSet::DEFAULT_HORIZON,
        }
    }

    /// Switches this exact-stage configuration into the two-stage scan
    /// path: the returned [`TwoStageConfig`](crate::TwoStageConfig) puts
    /// an approximate pre-classifier with the given budget in front of
    /// the exact stage. Both stages compile with the DTP and anchor
    /// settings here; the verifier is one automaton whatever `cores` and
    /// `max_shards` say (see
    /// [`TwoStageConfig::exact`](crate::TwoStageConfig::exact)).
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

    /// Compiles `set` with the lane stack this configuration deploys:
    /// its own anchor analysis plus the region pair rows
    /// [`PairTable::build`] attaches where the calm density reaches
    /// [`PairTable::REGION_MIN_DENSITY`] (16 KiB each). Every shard, the
    /// two-stage prefix automaton and the scoped ruleset are built here.
    pub(crate) fn compile(&self, set: &PatternSet) -> CompiledAutomaton {
        let dfa = Dfa::build(set);
        let reduced = ReducedAutomaton::reduce(&dfa, self.dtp);
        let anchors = AnchorSet::build(&dfa, set, self.anchor_horizon);
        let pairs = PairTable::build(&dfa, set, &anchors);
        CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs)
    }
}

impl Default for ShardedConfig {
    /// [`ShardedConfig::with_cores`]`(1)`: a single-thread scan gains
    /// nothing from more shards than the per-shard budget asks for.
    fn default() -> Self {
        ShardedConfig::with_cores(1)
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
/// per shard. Every chunk walks every shard automaton, so the registers
/// advance in lockstep, each carrying its own automaton state and
/// history across packet boundaries. Create with
/// [`ShardedMatcher::flow_state`]; sized and valid only for the matcher
/// that created it.
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
    /// end a window replay early — once past the flag with its verifier
    /// at rest, the remaining window can only contain occurrences that
    /// start later, and those are covered by their own flags.
    pub fn at_rest(&self) -> bool {
        self.per_shard
            .iter()
            .all(|s| s.state == dpi_automaton::StateId::START)
    }
}

/// Reusable per-scan buffers for [`ShardedMatcher::scan_into`] and
/// [`ShardedMatcher::scan_chunk_into`]: one match buffer per shard plus
/// the merge cursors. Keep one per worker and the scan path performs no
/// steady-state allocation.
#[derive(Debug, Clone, Default)]
pub struct ShardedScratch {
    per_shard: Vec<Vec<Match>>,
    cursors: Vec<usize>,
}

/// Scanner over per-shard compiled automata, every shard run on the
/// calling thread. Build once with [`ShardedMatcher::build`], scan whole
/// payloads with [`ShardedMatcher::scan_into`] and flows chunk by chunk
/// with [`ShardedMatcher::scan_chunk_into`].
#[derive(Debug, Clone)]
pub struct ShardedMatcher {
    shards: Vec<Shard>,
    strategy: SplitStrategy,
    /// Case-fold table shared by every shard (all shards inherit the
    /// original set's case mode).
    fold: [u8; 256],
}

impl ShardedMatcher {
    /// Plans a shard layout for `set` (prefix split, falling back to the
    /// round-robin split when prefixes skew — see
    /// [`PatternSet::plan_shards`]) and compiles one automaton per
    /// shard.
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
        let mut spec = ShardSpec::for_cores(config.cores);
        spec.budget_bytes = config.budget_bytes;
        spec.max_shards = config.max_shards;
        let plan = set.plan_shards(&spec)?;
        let strategy = plan.strategy;
        let shards: Vec<Shard> = plan
            .parts
            .into_iter()
            .map(|(sub, ids)| Shard {
                automaton: config.compile(&sub),
                set: sub,
                ids,
            })
            .collect();
        Ok(ShardedMatcher {
            shards,
            strategy,
            fold: CompiledMatcher::fold_table(set),
        })
    }

    /// A matcher with zero shards: it owns no automaton, reports no
    /// match and holds 0 bytes. The two-stage builder deploys it as the
    /// verifier when no cover entry can open a replay window, so no
    /// idle copy of the ruleset is compiled. `set` supplies only the
    /// case folding.
    pub(crate) fn empty(set: &PatternSet) -> ShardedMatcher {
        ShardedMatcher {
            shards: Vec::new(),
            strategy: SplitStrategy::Prefix,
            fold: CompiledMatcher::fold_table(set),
        }
    }

    /// Number of shards the pattern set was split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which split strategy the planner selected.
    pub fn strategy(&self) -> SplitStrategy {
        self.strategy
    }

    /// The region pair rows of shard `shard`: present where the shard's
    /// calm density reaches [`PairTable::REGION_MIN_DENSITY`]. Exposed
    /// so tests and benches can see which shards run the stride-2 lane.
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

    /// Fresh scratch sized for this matcher. Reuse it across scans; the
    /// inner buffers keep their capacity.
    pub fn scratch(&self) -> ShardedScratch {
        ShardedScratch {
            per_shard: vec![Vec::new(); self.shards.len()],
            cursors: Vec::with_capacity(self.shards.len()),
        }
    }

    /// Scans `payload` with every shard on the calling thread and merges
    /// the per-shard results into `out` in canonical `(end, pattern)`
    /// order with **global** pattern ids. `out` is cleared first; with a
    /// reused `scratch` the steady-state scan performs no allocation.
    pub fn scan_into(&self, payload: &[u8], scratch: &mut ShardedScratch, out: &mut Vec<Match>) {
        scratch.per_shard.resize_with(self.shards.len(), Vec::new);
        for (shard, buf) in self.shards.iter().zip(scratch.per_shard.iter_mut()) {
            self.scan_one(shard, payload, buf);
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
    /// chunk. Like every scan here it runs on the calling thread: the
    /// parallel axis for streaming traffic is flows across the service's
    /// workers, not shards within a chunk.
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
        assert_eq!(
            state.per_shard.len(),
            self.shards.len(),
            "flow state belongs to a matcher with a different shard count"
        );
        scratch.per_shard.resize_with(self.shards.len(), Vec::new);
        for ((shard, flow), buf) in self
            .shards
            .iter()
            .zip(state.per_shard.iter_mut())
            .zip(scratch.per_shard.iter_mut())
        {
            buf.clear();
            let matcher =
                CompiledMatcher::with_shared_fold(&shard.automaton, &shard.set, self.fold);
            matcher.for_each_match_chunk(flow, chunk, |m| {
                buf.push(Match {
                    end: m.end,
                    pattern: shard.ids[m.pattern.index()],
                });
            });
        }
        merge_sorted_append(&scratch.per_shard, &mut scratch.cursors, out);
    }

    /// Scans `payload` with a single shard, reporting **global** pattern
    /// ids in canonical order. Public so benches can time shards one by
    /// one: the per-core bound of a shard-per-core layout sums these
    /// timings over each core's shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn scan_shard_into(&self, shard: usize, payload: &[u8], out: &mut Vec<Match>) {
        let shard = &self.shards[shard];
        self.scan_one(shard, payload, out);
    }

    /// One shard's scan: compiled fast path, local ids translated to
    /// global as matches stream out.
    fn scan_one(&self, shard: &Shard, payload: &[u8], buf: &mut Vec<Match>) {
        buf.clear();
        let matcher = CompiledMatcher::with_shared_fold(&shard.automaton, &shard.set, self.fold);
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

    /// Early-exit fast path: shards are probed in order and the first
    /// accepting shard wins.
    fn is_match(&self, haystack: &[u8]) -> bool {
        self.shards.iter().any(|shard| {
            CompiledMatcher::with_shared_fold(&shard.automaton, &shard.set, self.fold)
                .is_match(haystack)
        })
    }
}

/// K-way merge of per-shard canonical match buffers into one canonical
/// stream. Shards partition the pattern set, so no two buffers ever hold
/// the same `(end, pattern)` — the merge is a strict interleave.
///
/// Linear scan over the k cursors per emitted match — O(matches × k).
/// k is the shard count (a few, capped at 64), so even match-heavy
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
        let mut scratch = sharded.scratch();
        let mut out = Vec::new();
        for payload in &payloads {
            sharded.scan_into(payload, &mut scratch, &mut out);
            assert_eq!(out, reference(&set, payload), "payload {payload:?}");
        }
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
        let empty = ShardedMatcher::empty(&set);
        assert_eq!(empty.shard_count(), 0);
        assert_eq!(empty.memory_bytes(), 0);
        assert!(empty.find_all(b"ushers").is_empty());
        assert!(!empty.is_match(b"ushers"));
        let mut state = empty.flow_state();
        let mut out = Vec::new();
        empty.scan_chunk_into(&mut state, b"ushers", &mut empty.scratch(), &mut out);
        assert!(out.is_empty());
        assert_eq!(state.shard_count(), 0);
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
    fn single_pattern_over_budget_surfaces_from_build() {
        let set = PatternSet::new([&"z".repeat(3000)]).unwrap();
        let mut config = ShardedConfig::with_cores(2);
        config.budget_bytes = 1024; // below any single-pattern floor
        let err = ShardedMatcher::build(&set, &config).unwrap_err();
        assert!(err.to_string().contains("per-shard budget"), "{err}");
    }

    #[test]
    fn paired_shards_equal_anchor_only_shards() {
        // Every shard of a sparse set carries its 16 KiB region rows,
        // and the stride-2 lane scans as the bare stepper does.
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        let on = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
        for s in 0..on.shard_count() {
            let pt = on.shard_pairs(s).expect("shard pair table");
            assert_eq!(pt.memory_bytes(), PairTable::REGION_ROW_BYTES, "shard {s}");
        }
        for text in [&b"zzzzzzzzzzzzushers and she said his hers"[..], b"zzzz"] {
            let want = reference(&set, text);
            assert_eq!(on.find_all(text), want);
            assert_eq!(on.is_match(text), !want.is_empty());
        }
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
