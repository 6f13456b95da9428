//! Approximate pre-classification: a small, sound over-approximation
//! of a [`PatternSet`] that flags *windows* of a stream for exact
//! re-scanning.
//!
//! Every engine in this workspace so far scans the whole stream through
//! an automaton whose size grows with the ruleset, and the big levers
//! (anchor skip lane, pair rows) measurably degrade as rules grow. The
//! approximate-NFA FPGA line of work shows the escape: a deliberately
//! over-approximated, much *smaller* classifier sweeps the stream, and
//! only the positions it flags — widened into windows — ever reach the
//! exact engine. Clean traffic never touches the big automaton.
//!
//! The classifier is [`PrefixCover`], a **self-reduced prefix
//! automaton**. Conceptually, take the full Aho-Corasick DFA and merge
//! every state deeper than a chosen frontier into its frontier ancestor,
//! marking the ancestor accepting; operationally that is exactly an
//! Aho-Corasick automaton over *truncated* patterns. The frontier is
//! chosen greedily under a byte budget on the cover model's per-state
//! estimate ([`PrefixCover::memory_bytes`]), deepening first the
//! prefixes a uniform byte model expects to flag most often (the
//! shallowest, and among them the ones with the fewest children), so
//! the budget buys the largest drop in expected flags it can afford.
//!
//! # Soundness invariant
//!
//! For every occurrence of every pattern in any haystack, the classifier
//! emits at least one [`Flag`] whose [window](Flag::window) fully
//! contains the occurrence. Equivalently: the approximate accept set is
//! a **superset** of the exact engine's (only false *positives*, never
//! false negatives). The workspace's `tests/two_stage.rs` pins this
//! property over drawn rulesets, budgets and payloads; the exact
//! argument is spelled out on [`Flag::window`].
//!
//! # Quick example
//!
//! ```
//! use dpi_automaton::{ApproxConfig, ApproxState, PatternSet, PrefixCover};
//!
//! let set = PatternSet::new(["evil-payload", "another-sig"])?;
//! let cover = PrefixCover::build(&set, &ApproxConfig::default());
//! let mut state = ApproxState::fresh();
//! let mut windows = Vec::new();
//! cover.scan_flags(&mut state, b"clean traffic with evil-payload inside", &mut |f| {
//!     windows.push(f.window());
//! });
//! // Some window covers the occurrence at bytes 19..31.
//! assert!(windows.iter().any(|w| w.start <= 19 && w.end >= 31));
//! # Ok::<(), dpi_automaton::PatternSetError>(())
//! ```

use std::collections::HashMap;

use crate::pattern::{PatternId, PatternSet};
use crate::shard::ShardCostModel;
use crate::trie::{StateId, Trie};

/// Build-time knobs for [`PrefixCover::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxConfig {
    /// Byte budget of the cover model: refinement deepens the frontier
    /// only while the modelled footprint ([`PrefixCover::memory_bytes`],
    /// the [`ShardCostModel`] per-state arena estimate summed over the
    /// cover's states) stays within it. The minimum sound cover, every
    /// 1-byte prefix, is kept whatever the budget. It bounds that
    /// estimate, not a compiled table: a two-stage matcher compiles the
    /// cover with its exact stage's lane stack, whose anchor tables and
    /// 16 KiB region pair rows (when dense enough to attach) come on
    /// top. Defaults to [`ApproxConfig::DEFAULT_BUDGET`].
    pub budget_bytes: usize,
}

impl ApproxConfig {
    /// Default cover budget: half a MiB, a conservative per-core L2
    /// slice on current server parts.
    pub const DEFAULT_BUDGET: usize = 512 << 10;

    /// Config with the given byte budget.
    pub fn with_budget(budget_bytes: usize) -> ApproxConfig {
        ApproxConfig { budget_bytes }
    }
}

impl Default for ApproxConfig {
    fn default() -> ApproxConfig {
        ApproxConfig::with_budget(ApproxConfig::DEFAULT_BUDGET)
    }
}

/// One pre-classifier hit: a stream position that *may* end (or sit
/// inside) an exact occurrence, plus how far past it the occurrence
/// could extend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// Stream offset one past the byte that fired the classifier.
    pub end: u64,
    /// Bytes past `end` an occurrence covered by this flag may extend.
    pub forward: u32,
    /// Bytes before `end` an occurrence covered by this flag may begin —
    /// the cover's uniform backward reach ([`PrefixCover::max_back`]),
    /// repeated per flag for convenience.
    pub back: u32,
}

impl Flag {
    /// The stream window `[end - back, end + forward)` that must replay
    /// through the exact engine.
    ///
    /// # Soundness
    ///
    /// An exact occurrence of pattern `p` at stream range `[s, e)`
    /// implies a flag with `end - back <= s` and `end + forward >= e`:
    /// the truncation `t` of `p` occurs at `[s, s + len(t))`, so the
    /// classifier flags `end = s + len(t)`; `back = max_back >= len(t)`
    /// reaches `s`, and `forward(t) >= len(p) - len(t)` reaches `e`.
    ///
    /// Backward reach is *uniform* (`max_back`, not the flag's own
    /// prefix length) so window starts are non-decreasing in flag
    /// order — the property that lets a streaming verifier feed bytes
    /// strictly forward, never re-reading a byte an earlier window
    /// already replayed.
    pub fn window(&self) -> std::ops::Range<u64> {
        self.end.saturating_sub(u64::from(self.back))..self.end + u64::from(self.forward)
    }
}

/// Resumable registers of the reference prefix walk
/// ([`PrefixCover::scan_flags`]): the approximate analogue of
/// [`crate::ScanState`], cheap to suspend per flow.
#[derive(Debug, Clone, Default)]
pub struct ApproxState {
    /// Bytes consumed so far; flag `end` offsets are stream-absolute.
    pub offset: u64,
    /// Active trie states of the walk; empty before the first byte (or
    /// after a reset — history masking, as in [`crate::ScanState`]).
    active: Vec<StateId>,
}

impl ApproxState {
    /// State for a flow that has consumed no bytes.
    pub fn fresh() -> ApproxState {
        ApproxState::default()
    }

    /// Fresh registers that report offsets starting at `offset` —
    /// history is masked exactly as at flow start.
    pub fn fresh_at(offset: u64) -> ApproxState {
        ApproxState {
            offset,
            ..ApproxState::default()
        }
    }

    /// Re-initializes in place; equivalent to `*self = fresh()` but
    /// keeps the active-list allocation.
    pub fn reset(&mut self) {
        self.reset_at(0);
    }

    /// Re-initializes in place at `offset`; see [`ApproxState::fresh_at`].
    pub fn reset_at(&mut self, offset: u64) {
        self.offset = offset;
        self.active.clear();
    }
}

/// Greedy frontier refinement candidate: a frontier trie node whose
/// expansion buys `gain` fewer expected flags per `cost` added bytes.
struct Cand {
    score: f64,
    node: StateId,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.node == other.node
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.node.0.cmp(&other.node.0))
    }
}

/// The self-reduced prefix automaton: an Aho-Corasick cover over
/// budget-truncated patterns.
///
/// Equivalently (the paper-side view): the exact DFA with every state
/// deeper than a chosen frontier merged into its frontier ancestor and
/// the ancestor marked accepting — each merge only ever *adds* accept
/// positions, which is what keeps the reduction sound. The frontier is
/// refined greedily under [`ApproxConfig::budget_bytes`]: expanding a
/// frontier state costs its child count times the per-state arena
/// estimate ([`ShardCostModel`]) and removes that state's expected flag
/// traffic (its children flag strictly less often), so the refinement
/// spends the budget where a uniform byte model expects the flags.
///
/// The struct itself carries only the *model*: the truncated
/// [`PatternSet`], per-truncation window metadata, and a trie for the
/// reference scan. Production deployments compile
/// [`PrefixCover::patterns`] through the usual reduce/compile pipeline;
/// [`PrefixCover::memory_bytes`] is the model's estimate of that
/// automaton without its anchor and pair rows.
#[derive(Debug, Clone)]
pub struct PrefixCover {
    patterns: PatternSet,
    forward: Vec<u32>,
    source_trunc: Vec<u32>,
    max_back: u32,
    hot_bytes: usize,
    trie: Trie,
}

impl PrefixCover {
    /// Deepest truncation [`PrefixCover::build`] may refine to. Bounds
    /// the cover's backward reach ([`PrefixCover::max_back`]) and with
    /// it the lookback a streaming caller must retain.
    pub const MAX_DEPTH: usize = 16;

    /// Builds the cover for `set` under `config`, refining truncations
    /// up to [`PrefixCover::MAX_DEPTH`] bytes.
    pub fn build(set: &PatternSet, config: &ApproxConfig) -> PrefixCover {
        let trie = Trie::build(set);
        let hits = node_hits(&trie, set);
        let model = ShardCostModel::default();
        let bps = model.bytes_per_state.max(1);

        // Frontier refinement. `included[n]`: node n is a state of the
        // reduced automaton. Start from the minimum sound cover (all
        // depth-1 nodes), then greedily deepen the frontier node with
        // the best flag-reduction per byte until the budget is spent.
        let mut included = vec![false; trie.len()];
        included[StateId::START.index()] = true;
        let mut cost = model.fixed_bytes + bps;
        let mut heap = std::collections::BinaryHeap::new();
        let root_children: Vec<StateId> = trie
            .state(StateId::START)
            .children()
            .iter()
            .map(|&(_, s)| s)
            .collect();
        for &child in &root_children {
            included[child.index()] = true;
            cost += bps;
            if let Some(cand) = refine_candidate(&trie, &hits, child, bps) {
                heap.push(cand);
            }
        }
        while let Some(Cand { node, .. }) = heap.pop() {
            let kids = trie.state(node).children();
            let add = kids.len() * bps;
            if cost + add > config.budget_bytes {
                continue; // a cheaper candidate may still fit
            }
            cost += add;
            for &(_, child) in kids {
                included[child.index()] = true;
                if let Some(cand) = refine_candidate(&trie, &hits, child, bps) {
                    heap.push(cand);
                }
            }
        }

        // Per-pattern cut: the longest included prefix. Deduplicate the
        // truncations, folding each original pattern's residual length
        // into the truncation's forward reach.
        let mut ids: HashMap<&[u8], usize> = HashMap::new();
        let mut unique: Vec<&[u8]> = Vec::new();
        let mut forward: Vec<u32> = Vec::new();
        let mut source_trunc: Vec<u32> = Vec::with_capacity(set.len());
        let mut max_back = 1u32;
        for (pid, bytes) in set.iter() {
            debug_assert_eq!(pid.index(), source_trunc.len());
            let mut node = StateId::START;
            let mut depth = 0usize;
            for &b in bytes {
                match trie.state(node).child(b) {
                    Some(next) if included[next.index()] => {
                        node = next;
                        depth += 1;
                    }
                    _ => break,
                }
            }
            debug_assert!(depth >= 1, "depth-1 nodes are always included");
            let trunc = &bytes[..depth];
            let fwd = (bytes.len() - depth) as u32;
            let slot = match ids.get(trunc) {
                Some(&i) => {
                    forward[i] = forward[i].max(fwd);
                    i
                }
                None => {
                    ids.insert(trunc, unique.len());
                    unique.push(trunc);
                    forward.push(fwd);
                    unique.len() - 1
                }
            };
            source_trunc.push(slot as u32);
            max_back = max_back.max(depth as u32);
        }
        let patterns = if set.is_case_insensitive() {
            // Source patterns are already folded, so re-folding is a
            // no-op and no new collisions can appear.
            PatternSet::new_nocase(&unique)
        } else {
            PatternSet::new(&unique)
        }
        .expect("deduplicated non-empty truncations of a valid set");

        PrefixCover {
            trie: Trie::build(&patterns),
            patterns,
            forward,
            source_trunc,
            max_back,
            hot_bytes: cost,
        }
    }

    /// The truncated pattern set — compile this through the exact
    /// pipeline to get the production classifier; a match of truncated
    /// pattern `t` at `end` is the flag
    /// `(end, forward = `[`PrefixCover::forward`]`(t), back = max_back)`.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// Bytes past a flag from truncated pattern `id` an occurrence may
    /// extend: the longest source pattern sharing that truncation,
    /// minus the truncation.
    pub fn forward(&self, id: PatternId) -> u32 {
        self.forward[id.index()]
    }

    /// Per-truncation forward table, indexed by truncated [`PatternId`].
    pub fn forward_table(&self) -> &[u32] {
        &self.forward
    }

    /// Maps each *source* pattern index to the index of its truncation
    /// in [`PrefixCover::patterns`]. A source pattern is covered
    /// **completely** (its truncation is the whole pattern, so a flag
    /// from it is an exact occurrence, not an approximation) exactly
    /// when its truncation has the same length.
    pub fn truncation_of(&self) -> &[u32] {
        &self.source_trunc
    }

    /// The cover model's footprint estimate: [`ShardCostModel`]'s fixed
    /// bytes plus its per-state arena bytes for every state of the
    /// reduced automaton — the figure [`ApproxConfig::budget_bytes`]
    /// bounds. It is an estimate, not a measurement: the compiled
    /// automaton a two-stage matcher deploys adds the anchor and pair
    /// rows of its lane stack, and its state arena can outgrow the
    /// estimate on large sets.
    pub fn memory_bytes(&self) -> usize {
        self.hot_bytes
    }

    /// Uniform backward reach of every flag: no window starts more than
    /// this many bytes before its flag position. A streaming caller
    /// needs exactly this much lookback.
    pub fn max_back(&self) -> u32 {
        self.max_back
    }

    /// Consumes `chunk`, emitting a [`Flag`] for every cover hit with
    /// stream-absolute positions, leaving `state` ready for the next
    /// chunk. The defining streaming property (shared with
    /// [`crate::ScanState`]): any chunking of a payload emits the same
    /// flags as one whole-payload scan.
    ///
    /// This is the reference scan: an explicit active-state
    /// Aho-Corasick walk over the truncation trie (at most
    /// [`PrefixCover::max_back`] live states). Correct and resumable but
    /// unoptimized — production two-stage scanning compiles
    /// [`PrefixCover::patterns`] instead.
    pub fn scan_flags(&self, state: &mut ApproxState, chunk: &[u8], emit: &mut dyn FnMut(Flag)) {
        let mut next: Vec<StateId> = Vec::with_capacity(self.max_back as usize);
        for &raw in chunk {
            let b = self.patterns.fold(raw);
            state.offset += 1;
            next.clear();
            for &s in &state.active {
                if let Some(n) = self.trie.state(s).child(b) {
                    next.push(n);
                }
            }
            if let Some(n) = self.trie.state(StateId::START).child(b) {
                next.push(n);
            }
            std::mem::swap(&mut state.active, &mut next);
            for &s in &state.active {
                for &pid in self.trie.state(s).terminal() {
                    emit(Flag {
                        end: state.offset,
                        forward: self.forward[pid.index()],
                        back: self.max_back,
                    });
                }
            }
        }
    }
}

/// Mean per-byte symbol probability for the uniform cost model: 1/256
/// case-sensitive, 1/230-ish folded (26 uppercase letters alias their
/// lowercase forms).
fn alphabet_rate(set: &PatternSet) -> f64 {
    if set.is_case_insensitive() {
        1.0 / 230.0
    } else {
        1.0 / 256.0
    }
}

/// Expected flag traffic per trie node under the uniform byte model:
/// `alphabet_rate^depth`, scaled to a nominal 1 MiB of traffic.
fn node_hits(trie: &Trie, set: &PatternSet) -> Vec<f64> {
    let rate = alphabet_rate(set);
    let mut hits = vec![0f64; trie.len()];
    for (id, state) in trie.iter() {
        hits[id.index()] = (1 << 20) as f64 * rate.powi(i32::from(state.depth()));
    }
    hits
}

/// Refinement candidate for frontier node `node`, or `None` when the
/// node cannot be refined (leaf, or at [`PrefixCover::MAX_DEPTH`]).
///
/// Nodes where a pattern *terminates* are still refinable: the node
/// stays an accepting truncation for that complete pattern (whose flag
/// needs no forward reach — consumers can verify it exactly), while
/// every longer pattern sharing the prefix moves to a deeper, rarer
/// truncation. Skipping terminals froze whole subtrees at the depth of
/// their shortest member — at Snort-like scale, where almost every
/// 2-byte prefix is itself a rule, that pinned the flag rate to the
/// depth-2 floor no matter the budget.
fn refine_candidate(trie: &Trie, hits: &[f64], node: StateId, bps: usize) -> Option<Cand> {
    let state = trie.state(node);
    if state.children().is_empty() || usize::from(state.depth()) >= PrefixCover::MAX_DEPTH {
        return None;
    }
    let child_hits: f64 = state.children().iter().map(|&(_, c)| hits[c.index()]).sum();
    let gain = (hits[node.index()] - child_hits).max(0.0);
    let cost = (state.children().len() * bps) as f64;
    Some(Cand {
        score: gain / cost,
        node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveMatcher;
    use crate::MultiMatcher;

    fn covered(windows: &[std::ops::Range<u64>], s: u64, e: u64) -> bool {
        windows.iter().any(|w| w.start <= s && w.end >= e)
    }

    fn assert_sound(cover: &PrefixCover, set: &PatternSet, haystack: &[u8]) {
        let mut state = ApproxState::fresh();
        let mut windows = Vec::new();
        cover.scan_flags(&mut state, haystack, &mut |f| windows.push(f.window()));
        for m in NaiveMatcher::new(set).find_all(haystack) {
            let len = set.pattern_len(m.pattern) as u64;
            assert!(
                covered(&windows, m.end as u64 - len, m.end as u64),
                "occurrence of {:?} at ..{} not covered; windows {:?}",
                set.pattern(m.pattern),
                m.end,
                windows
            );
        }
    }

    #[test]
    fn prefix_cover_flags_every_occurrence() {
        let set = PatternSet::new(["he", "she", "his", "hers", "banana-split"]).unwrap();
        for budget in [1, 2_000, 16_000, 1 << 20] {
            let cover = PrefixCover::build(&set, &ApproxConfig::with_budget(budget));
            assert_sound(&cover, &set, b"ushers banana-splitters say his hers");
        }
    }

    #[test]
    fn truncation_merges_states_under_budget() {
        let set = PatternSet::new(["prefix-one", "prefix-two", "prefix-three"]).unwrap();
        let tight = PrefixCover::build(&set, &ApproxConfig::with_budget(1));
        // Minimum sound cover: one shared depth-1 truncation.
        assert_eq!(tight.patterns().len(), 1);
        assert_eq!(tight.patterns().pattern(PatternId(0)), b"p");
        assert_eq!(tight.forward(PatternId(0)), 11); // "prefix-three" minus "p"
        let roomy = PrefixCover::build(&set, &ApproxConfig::default());
        // A 512 KiB budget keeps all three distinct full-depth.
        assert_eq!(roomy.patterns().len(), 3);
        assert!(roomy.memory_bytes() <= ApproxConfig::DEFAULT_BUDGET);
    }

    #[test]
    fn flags_are_chunking_invariant() {
        let set = PatternSet::new(["abcd", "cdef", "q"]).unwrap();
        let payload = b"xxabcdefqxxcdefabcd".to_vec();
        let cover = PrefixCover::build(&set, &ApproxConfig::with_budget(2_200));
        let mut whole = Vec::new();
        cover.scan_flags(&mut ApproxState::fresh(), &payload, &mut |f| whole.push(f));
        for cut in 0..payload.len() {
            let mut chunked = Vec::new();
            let mut state = ApproxState::fresh();
            cover.scan_flags(&mut state, &payload[..cut], &mut |f| chunked.push(f));
            cover.scan_flags(&mut state, &payload[cut..], &mut |f| chunked.push(f));
            assert_eq!(whole, chunked, "cut at {cut}");
        }
    }

    #[test]
    fn nocase_covers_fold_input() {
        let set = PatternSet::new_nocase(["Attack-String"]).unwrap();
        let cover = PrefixCover::build(&set, &ApproxConfig::default());
        assert_sound(&cover, &set, b"zzATTACK-STRINGzz");
    }
}
