//! Two-stage scanning: a small, budgeted approximate pre-classifier in
//! front of the exact engine, so clean traffic never touches the big
//! automaton.
//!
//! Every exact engine in this workspace walks an automaton whose size —
//! and therefore cache behaviour — grows with the ruleset; at the
//! 25k–100k rules real IDS deployments carry, even the sharded layout
//! pays tens of shard walks per byte. [`TwoStageMatcher`] restores the
//! small-automaton scan rate by splitting the work:
//!
//! 1. **Pre-classify.** A small sound cover of the ruleset
//!    ([`dpi_automaton::PrefixCover`], a budget-truncated prefix
//!    automaton) sweeps every byte. [`ApproxConfig::budget_bytes`]
//!    bounds the cover model's per-state estimate
//!    ([`PrefixCover::memory_bytes`]), which caps the cover's state
//!    count however many rules the exact stage carries. It does not
//!    bound the compiled tables: [`TwoStageMatcher::pre_memory_bytes`]
//!    also counts the cover's anchor tables and, where its calm density
//!    allows, its 16 KiB region pair rows, and the estimate itself runs
//!    low on large sets (the generated 25k-rule cover under a 2 MiB
//!    budget compiles to ~2.9 MiB).
//! 2. **Verify.** A flag from an incompletely-covered truncation names
//!    its candidate set exactly: the patterns sharing that prefix. Small
//!    families (at most `CONFIRM_MAX_FAMILY` = 8 candidates) are settled *in place* by
//!    comparing each candidate's folded residual against the bytes
//!    after the flag — no automaton replay, no lookback (a truncation
//!    is a prefix, so everything left to check is forward). Only flags
//!    whose family is too large open *windows* — widened backward by
//!    the cover's uniform lookback and forward by the longest pattern
//!    the flag may witness, overlapping windows merged — that replay
//!    through the exact verifier: one compiled automaton (a one-shard
//!    [`ShardedMatcher`]), because a window reads only flagged bytes
//!    and every extra automaton would walk each of them again. The
//!    verifier resumes its [`ShardedScanState`] (and any in-flight
//!    residual comparison) across window and chunk boundaries, so flows
//!    can suspend mid-window and replay feeds every byte at most once.
//!
//! **Complete truncations are exact matches.** When the prefix cover
//! keeps a pattern whole (its truncation *is* the pattern — always the
//! case for the 1–3-byte content strings realistic rulesets carry by
//! the thousand, and for any pattern the budget covers in full), a
//! stage-1 flag from it is not an approximation: it is the occurrence.
//! Those flags emit directly and never open windows; only truncations
//! with longer continuations (`forward > 0`) confirm or window. The
//! replay verifier therefore holds just the big-family patterns, in
//! one automaton, and has zero shards when no family is oversized: no
//! window can open then, so nothing is compiled for replay. The scan
//! is one fused pass — one compiled-automaton walk with the same anchor
//! skip lane and pair rows as the monolithic engine, recording flags
//! that are then processed in stream order against a single-byte
//! direct-emit sweep of the gaps between them (vectorized 32 bytes per
//! probe under the `simd` feature).
//!
//! Soundness is inherited from the cover (see
//! [`dpi_automaton::Flag::window`]): every exact occurrence of an
//! incompletely-covered pattern lies inside some flagged window, windows
//! replay whole through the exact engine, and bytes outside every window
//! cannot contain such an occurrence — so the two-stage scan reports
//! **exactly** the single-stage matches, in canonical `(end, pattern)`
//! order, pinned across chunkings by `tests/two_stage.rs`.
//!
//! # Quick example
//!
//! ```
//! use dpi_automaton::PatternSet;
//! use dpi_core::{TwoStageConfig, TwoStageMatcher};
//!
//! let set = PatternSet::new(["he", "she", "his", "hers"])?;
//! let matcher = TwoStageMatcher::build(&set, &TwoStageConfig::with_cores(1))?;
//! let mut scratch = matcher.scratch();
//! let mut out = Vec::new();
//! let stats = matcher.scan_into(b"ushers", &mut scratch, &mut out);
//! assert_eq!(out.len(), 3); // she, he, hers — identical to single-stage
//! assert!(stats.verified_bytes <= 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;

use dpi_automaton::{
    ApproxConfig, Match, PatternId, PatternSet, PrefixCover, ScanState, ShardPlanError,
};

use crate::compiled::{CompiledAutomaton, CompiledMatcher};
use crate::sharded::{ShardedConfig, ShardedMatcher, ShardedScanState, ShardedScratch};

/// Build-time configuration of a [`TwoStageMatcher`]: the pre-classifier
/// budget plus the exact stage's [`ShardedConfig`].
#[derive(Debug, Clone, Copy)]
pub struct TwoStageConfig {
    /// Pre-classifier (stage 1) build knobs: the byte budget of the
    /// cover model (see [`ApproxConfig::budget_bytes`] for what it
    /// bounds).
    pub approx: ApproxConfig,
    /// Exact-stage settings. Its DTP and anchor settings compile both
    /// stages, and a pattern whose estimate exceeds its `budget_bytes`
    /// fails the build. The verifier is always one automaton, so its
    /// `cores` and `max_shards` plan only the sharded engine a
    /// [`RulesetArena`](crate::RulesetArena) builds beside it.
    pub exact: ShardedConfig,
}

impl TwoStageConfig {
    /// Default approximate budget, and [`ShardedConfig::with_cores`] for
    /// the exact stage (see [`TwoStageConfig::exact`] for what the
    /// two-stage build reads of it).
    pub fn with_cores(cores: usize) -> TwoStageConfig {
        TwoStageConfig {
            approx: ApproxConfig::default(),
            exact: ShardedConfig::with_cores(cores),
        }
    }
}

/// Per-cover-pattern flag dispatch, indexed by the cover's
/// [`PatternId`]: which source pattern (if any) this flag *is* an exact
/// occurrence of, and whether longer continuations make it open a
/// verification window.
struct FlagMeta {
    /// Source pattern id this truncation matches completely, or
    /// `u32::MAX`. At most one — patterns are unique.
    exact: u32,
    /// Longest residual of any source pattern sharing this truncation.
    forward: u32,
    /// The flag may witness a longer pattern whose family is too large
    /// for direct confirmation and must open (or extend) a replay
    /// window.
    windowed: bool,
}

/// Largest truncation family confirmed by direct residual comparison;
/// bigger families open replay windows through the exact engine
/// instead. Eight bounds the per-flag confirm work at a handful of
/// (almost always first-byte-failing) compares while real covers stay
/// entirely on the confirm path — at 100k synthesized rules the mean
/// family is ~1.3 patterns.
const CONFIRM_MAX_FAMILY: usize = 8;

/// Direct verification of windowed flags whose truncation is shared by
/// at most [`CONFIRM_MAX_FAMILY`] incompletely-covered patterns: the
/// flag names the truncation, so the only candidates are that family,
/// and each is confirmed by comparing its folded residual against the
/// bytes following the flag — no automaton replay, no lookback (a
/// truncation is a prefix; everything left to check is forward).
/// Indexed like `meta`, by kept cover pattern.
struct ConfirmTable {
    /// Kept cover pattern → `entries[off[i]..off[i + 1]]`.
    off: Vec<u32>,
    entries: Vec<ConfirmEntry>,
    /// Concatenated folded residuals.
    blob: Vec<u8>,
    /// Source set's byte folding, applied to stream bytes before
    /// comparison against the (pre-folded) blob.
    fold: Box<[u8; 256]>,
}

/// One candidate pattern of a confirmable truncation family.
struct ConfirmEntry {
    /// Source pattern id emitted when the residual matches.
    pid: u32,
    /// Residual bytes: `blob[start..start + len]`. Always ≥ 1 —
    /// complete covers are handled by [`FlagMeta::exact`].
    start: u32,
    len: u32,
}

/// An in-flight residual comparison that ran out of chunk: resumes
/// against the next chunk's first bytes.
#[derive(Debug, Clone)]
struct ConfirmCarry {
    /// Index into [`ConfirmTable::entries`].
    entry: u32,
    /// Residual bytes already matched.
    matched: u32,
    /// Stream-absolute end the match will have if it completes.
    end: u64,
}

/// SIMD acceleration for the singles sweep: nibble-shuffle tables
/// answering "is this byte a 1-byte rule hit?" for 32 lanes per probe,
/// plus the detected CPU token. The sweep visits every stream byte the
/// automaton walk skipped, so at realistic hit densities (~8% of bytes
/// on the synthesized 100k set) replacing the per-byte table load with
/// one probe per 32 bytes + a bit-iteration over members removes most
/// of the second full pass. A stub that always declines without the
/// `simd` feature or on CPUs without SSSE3.
#[derive(Debug, Clone)]
struct SinglesSimd {
    #[cfg(feature = "simd")]
    inner: Option<(dpi_automaton::simd::ByteSetTables, dpi_automaton::simd::SimdToken)>,
}

impl SinglesSimd {
    /// Builds the byte-set tables for `{b : table[b] != u32::MAX}` when
    /// the feature is on, the CPU qualifies, and the set is non-empty.
    fn build(table: &[u32; 256]) -> SinglesSimd {
        #[cfg(feature = "simd")]
        {
            use dpi_automaton::simd::{ByteSetTables, SimdToken};
            let inner = (table.iter().any(|&id| id != u32::MAX))
                .then(SimdToken::detect)
                .flatten()
                .map(|tok| {
                    (
                        ByteSetTables::build(|b| table[usize::from(b)] != u32::MAX),
                        tok,
                    )
                });
            SinglesSimd { inner }
        }
        #[cfg(not(feature = "simd"))]
        {
            let _ = table;
            SinglesSimd {}
        }
    }
}

/// The deployed stage-1 classifier: the budget-truncated prefix
/// automaton, compiled through the same reduce/anchor/pair pipeline as
/// the exact engine — stage 1 keeps the skip lane and all its
/// clean-traffic speed.
///
/// Complete **single-byte** cover patterns that never open windows live
/// in `singles` (raw byte → source pattern id) instead of the
/// automaton: realistic rulesets carry enough 1-byte content strings to
/// hit a third of stream bytes, and each such hit would knock the
/// compiled walk off its skip lane. A dense table emits them
/// branch-poor in the same fused pass, and evicting them from the
/// automaton restores the anchor lane's skip runs for the remaining
/// (far sparser) cover. `automaton` is `None` in the degenerate case
/// where the table holds the entire cover.
struct PreStage {
    automaton: Option<Box<(CompiledAutomaton, PatternSet)>>,
    meta: Vec<FlagMeta>,
    singles: Box<[u32; 256]>,
    simd: SinglesSimd,
    confirm: ConfirmTable,
}

/// Counters of one flow's (or one scan's) two-stage progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoStageStats {
    /// Bytes swept by the pre-classifier (every stream byte).
    pub pre_bytes: u64,
    /// Stage-1 flags raised (exact-occurrence flags included).
    pub flags: u64,
    /// Verification episodes, of two kinds: merged windows replayed
    /// through the exact engine, and flags whose small family was
    /// confirmed in place by residual comparison (one per such flag).
    /// A cover with no windowed entry still counts the second kind.
    pub windows: u64,
    /// Episodes that produced no exact match — stage 1's false
    /// positives: replay windows with no match, in-place confirms where
    /// no candidate's residual matched, and each candidate carried
    /// across a chunk boundary whose residual then fails.
    pub fp_windows: u64,
    /// Stream bytes stage 2 read, of two kinds. *Replayed* bytes went
    /// through the verifier automaton; each counts once, since merged
    /// windows replay every stream byte at most once. *Compared* bytes
    /// are what in-place confirms read after a flag: per flag the
    /// longest candidate examination, plus the bytes a carried
    /// candidate reads in the next chunk.
    pub verified_bytes: u64,
    /// Window-opening flags recorded but **not** verified — only the
    /// degraded flag-only scan path
    /// ([`TwoStageMatcher::scan_chunk_flag_only`]) increments this;
    /// every full-fidelity scan keeps it 0.
    pub suspect_flags: u64,
}

impl TwoStageStats {
    /// [`verified_bytes`](Self::verified_bytes) over
    /// [`pre_bytes`](Self::pre_bytes): the share of swept bytes stage 2
    /// read, replayed and in-place compared bytes alike — so it is
    /// nonzero even where no window can open.
    pub fn replay_fraction(&self) -> f64 {
        if self.pre_bytes == 0 {
            0.0
        } else {
            self.verified_bytes as f64 / self.pre_bytes as f64
        }
    }

    /// [`fp_windows`](Self::fp_windows) over
    /// [`windows`](Self::windows): the share of verification episodes,
    /// replay windows and in-place confirms alike, that found no exact
    /// match (1.0 on clean traffic by construction — every episode there
    /// is a false positive).
    pub fn fp_window_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.fp_windows as f64 / self.windows as f64
        }
    }
}

/// Appends `m`, then restores canonical `(end, pattern)` order by
/// bubbling it back past any later-ordered tail entries. The common case
/// is a single comparison; inversions only arise where exact-complete
/// flags interleave with verifier feeds a few bytes behind them.
#[inline]
fn push_canonical(out: &mut Vec<Match>, m: Match) {
    let mut i = out.len();
    out.push(m);
    while i > 0 {
        let prev = out[i - 1];
        if (prev.end, prev.pattern.index()) <= (m.end, m.pattern.index()) {
            break;
        }
        out.swap(i - 1, i);
        i -= 1;
    }
}

/// Everything the verifier side of a flow mutates: stage-2 registers,
/// the active window, the lookback ring and the pending-match queue.
/// Split from [`TwoStageState`] so the stage-1 scan (which borrows the
/// stage-1 registers) can drive it from inside its match callback.
#[derive(Debug, Clone)]
struct VerifySide {
    /// Exact-stage registers, advanced to `verified_until`.
    verify: ShardedScanState,
    /// Stream offset the verifier has consumed through.
    verified_until: u64,
    /// Exclusive end of the active merged window (`== verified_until`
    /// when no window is open past the frontier).
    window_end: u64,
    /// Largest flag end in the active merged window — the point past
    /// which the verifier may retire the window early once its
    /// automaton is back at rest.
    group_flag_end: u64,
    /// Last `min(max_back, pos)` stream bytes.
    ring: Vec<u8>,
    /// Exact-complete matches not yet emitted: a verifier feed may
    /// still produce matches ordered before them, so they wait until
    /// the verify frontier (or its lower bound) passes their end.
    pending: VecDeque<Match>,
    group_open: bool,
    group_had_match: bool,
    stats: TwoStageStats,
}

/// Immutable per-scan context threaded into [`VerifySide`] methods: the
/// verifier, its id remap, the flag geometry, and the chunk being
/// scanned (with its stream-absolute start offset).
struct FeedCtx<'a> {
    exact: &'a ShardedMatcher,
    long_ids: Option<&'a [PatternId]>,
    max_back: u64,
    chunk: &'a [u8],
    base: u64,
}

impl VerifySide {
    /// Emits an exact-complete occurrence witnessed by a stage-1 flag.
    ///
    /// Fast path: with no window open and nothing pending, the match is
    /// final and goes straight to `out`. Soundness of skipping the
    /// queue: any verifier match `m` is an occurrence of an
    /// *incompletely*-covered pattern, so its truncation has
    /// `forward > 0` — `m`'s own truncation flag is windowed and fires
    /// at `m.end − residual < m.end`, i.e. **before** this flag in
    /// stream order whenever `m.end ≤ end`. That earlier window either
    /// already fed past `m` (emitting it — windows replay whole before
    /// they close, and early retirement only stops once nothing is in
    /// flight) or is still open, which this condition excludes. Hence
    /// no verifier match ordered at or before `end` can appear after
    /// the direct push. Otherwise the match queues in canonical order
    /// until the frontier passes it.
    #[inline]
    fn emit_exact(&mut self, m: Match, out: &mut Vec<Match>) {
        if !self.group_open && self.pending.is_empty() {
            push_canonical(out, m);
            return;
        }
        let mut i = self.pending.len();
        self.pending.push_back(m);
        while i > 0 {
            let prev = self.pending[i - 1];
            if (prev.end, prev.pattern.index()) <= (m.end, m.pattern.index()) {
                break;
            }
            self.pending.swap(i - 1, i);
            i -= 1;
        }
    }

    /// Sweeps the single-byte direct-emit table over chunk bytes
    /// `[*from, to)`, advancing `*from`. With nothing pending, no open
    /// window, and the region at or past the verify frontier, hits are
    /// final matches appended branch-poor straight into `out` (the
    /// dominant case — realistic rulesets make ~a third of stream
    /// bytes a 1-byte rule hit, so this loop must not branch-mispredict
    /// per hit). Otherwise each hit routes through [`Self::emit_exact`],
    /// which queues or bubbles as needed.
    fn sweep_singles(
        &mut self,
        table: &[u32; 256],
        simd: &SinglesSimd,
        ctx: &FeedCtx,
        from: &mut usize,
        to: usize,
        out: &mut Vec<Match>,
    ) {
        let (chunk, base) = (ctx.chunk, ctx.base);
        let start = *from;
        if to <= start {
            return;
        }
        *from = to;
        let abs = base as usize;
        if !self.group_open
            && self.pending.is_empty()
            && abs + start >= self.verified_until as usize
        {
            // Masked variant of the fast path: one shuffle probe
            // classifies 32 bytes, then only member lanes are touched.
            // Bits iterate ascending, so emission order is identical to
            // the scalar loop; membership is pinned to the table by
            // construction (and the vector kernels to the scalar model
            // by the `simd` conformance suite).
            #[cfg(feature = "simd")]
            if let Some((tables, tok)) = &simd.inner {
                let n0 = out.len();
                let bytes = &chunk[start..to];
                tok.dispatch(|| {
                    let mut j = 0;
                    while j + 32 <= bytes.len() {
                        let w: &[u8; 32] =
                            bytes[j..j + 32].try_into().expect("32-byte window");
                        let mut mask = tok.member_mask32(tables, w);
                        while mask != 0 {
                            let k = mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            out.push(Match {
                                end: abs + start + j + k + 1,
                                pattern: PatternId(table[usize::from(bytes[j + k])]),
                            });
                        }
                        j += 32;
                    }
                    for (k, &b) in bytes[j..].iter().enumerate() {
                        let id = table[usize::from(b)];
                        if id != u32::MAX {
                            out.push(Match {
                                end: abs + start + j + k + 1,
                                pattern: PatternId(id),
                            });
                        }
                    }
                });
                self.stats.flags += (out.len() - n0) as u64;
                return;
            }
            #[cfg(not(feature = "simd"))]
            let _ = simd;
            let n0 = out.len();
            let mut n = n0;
            out.resize(
                n0 + (to - start),
                Match {
                    end: 0,
                    pattern: PatternId(u32::MAX),
                },
            );
            for (j, &b) in chunk[start..to].iter().enumerate() {
                let id = table[usize::from(b)];
                out[n] = Match {
                    end: abs + start + j + 1,
                    pattern: PatternId(id),
                };
                n += usize::from(id != u32::MAX);
            }
            out.truncate(n);
            self.stats.flags += (n - n0) as u64;
        } else {
            for (j, &b) in chunk[start..to].iter().enumerate() {
                let id = table[usize::from(b)];
                if id != u32::MAX {
                    self.stats.flags += 1;
                    self.emit_exact(
                        Match {
                            end: abs + start + j + 1,
                            pattern: PatternId(id),
                        },
                        out,
                    );
                }
            }
        }
    }

    /// Handles one window-opening flag: merge into the open group,
    /// or close it (replaying its tail) and open a new one.
    fn on_window_flag(
        &mut self,
        ctx: &FeedCtx,
        end: u64,
        forward: u32,
        scratch: &mut TwoStageScratch,
        out: &mut Vec<Match>,
    ) {
        let ws = end.saturating_sub(ctx.max_back);
        let we = end + u64::from(forward);
        if self.group_open && ws <= self.window_end {
            self.window_end = self.window_end.max(we);
            self.group_flag_end = self.group_flag_end.max(end);
            return;
        }
        if self.group_open {
            // Gap: replay the closing window's tail (all of it is in
            // this chunk — `window_end < ws <= chunk_end`), then
            // account it.
            let target = self.window_end;
            self.feed(ctx, target, scratch, out);
            self.close_group();
        }
        if ws > self.verified_until {
            // The verifier skips the clean gap entirely; fresh-at
            // masking makes the jump boundary-local (matches need only
            // bytes inside the window, which all get fed). Pending
            // exact matches inside the gap are safe to emit: no future
            // verifier match can end at or before `ws`.
            self.flush_pending(ws, out);
            self.verify.reset_at(ws);
            self.verified_until = ws;
        }
        self.group_open = true;
        self.group_had_match = false;
        self.stats.windows += 1;
        self.window_end = we.max(self.verified_until);
        self.group_flag_end = end;
    }

    /// Feeds stream bytes `[self.verified_until, target)` to the exact
    /// stage in small blocks, serving the pre-`base` portion from the
    /// lookback ring, and merges the verifier's matches with due
    /// pending matches into `out` in canonical order.
    ///
    /// **Early retirement.** A flag's forward reach is the longest
    /// residual of any pattern sharing its truncation — often 100+
    /// bytes — but actually scanning that far is only necessary while an
    /// occurrence of the flagged family is in flight. Once the frontier
    /// is ≥ 2 bytes past the window's last flag and the verifier
    /// automaton is back at its start state ([`ShardedScanState::at_rest`];
    /// the 2-byte margin covers the DTP history registers), the
    /// Aho-Corasick longest-suffix invariant says nothing is in flight:
    /// any match later in the window starts later and is covered by its
    /// own flag, whose window start is ≥ every frontier we stop at
    /// (window starts are monotone). So the feed stops, leaving
    /// `verified_until` short of `target` — the caller closes the group.
    fn feed(
        &mut self,
        ctx: &FeedCtx,
        target: u64,
        scratch: &mut TwoStageScratch,
        out: &mut Vec<Match>,
    ) {
        let (chunk, base) = (ctx.chunk, ctx.base);
        const FEED_BLOCK: u64 = 32;
        let start = self.verified_until;
        if target <= start {
            return;
        }
        scratch.verif.clear();
        let stop_after = self.group_flag_end.saturating_add(2);
        let mut cur = start;
        {
            let VerifySide { verify, ring, .. } = self;
            while cur < target {
                let next = (cur + FEED_BLOCK).min(target);
                if cur < base {
                    let ring_start = base - ring.len() as u64;
                    debug_assert!(cur >= ring_start, "lookback ring too short");
                    let from = (cur - ring_start) as usize;
                    let to = (next.min(base) - ring_start) as usize;
                    ctx.exact.scan_chunk_into(
                        verify,
                        &ring[from..to],
                        &mut scratch.sharded,
                        &mut scratch.verif,
                    );
                }
                if next > base {
                    let from = (cur.max(base) - base) as usize;
                    let to = (next - base) as usize;
                    ctx.exact.scan_chunk_into(
                        verify,
                        &chunk[from..to],
                        &mut scratch.sharded,
                        &mut scratch.verif,
                    );
                }
                cur = next;
                if cur >= stop_after && cur < target && verify.at_rest() {
                    break;
                }
            }
        }
        if let Some(ids) = ctx.long_ids {
            for m in scratch.verif.iter_mut() {
                m.pattern = ids[m.pattern.index()];
            }
        }
        self.stats.verified_bytes += cur - start;
        self.verified_until = cur;
        self.group_had_match |= !scratch.verif.is_empty();
        self.merge_due(cur, &scratch.verif, out);
    }

    /// Merges verifier matches (a canonical run with ends at or before
    /// `upto`) with pending exact matches due by `upto` into `out` in
    /// canonical order.
    fn merge_due(&mut self, upto: u64, verif: &[Match], out: &mut Vec<Match>) {
        let mut vi = 0;
        loop {
            let take_pending = match (self.pending.front(), verif.get(vi)) {
                (Some(p), _) if p.end as u64 > upto => false,
                (Some(p), Some(v)) => (p.end, p.pattern.index()) <= (v.end, v.pattern.index()),
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_pending {
                let m = self.pending.pop_front().expect("checked front");
                push_canonical(out, m);
            } else if vi < verif.len() {
                push_canonical(out, verif[vi]);
                vi += 1;
            } else {
                break;
            }
        }
    }

    /// Emits pending exact matches ending at or before `upto` (callers
    /// guarantee no future verifier match can precede them).
    fn flush_pending(&mut self, upto: u64, out: &mut Vec<Match>) {
        while let Some(m) = self.pending.front() {
            if m.end as u64 > upto {
                break;
            }
            let m = *m;
            self.pending.pop_front();
            push_canonical(out, m);
        }
    }

    fn close_group(&mut self) {
        debug_assert!(self.group_open);
        if !self.group_had_match {
            self.stats.fp_windows += 1;
        }
        self.group_open = false;
        self.window_end = self.verified_until;
    }
}

/// Resumable per-flow state of a two-stage scan: stage-1 registers plus
/// the verifier side (stage-2 registers at the verify frontier, the
/// active window, and a `max_back`-byte lookback ring so a flag near a
/// chunk start can replay bytes from the previous chunk).
#[derive(Debug, Clone)]
pub struct TwoStageState {
    /// Stage-1 registers of the compiled cover.
    pre_scan: ScanState,
    /// Stream bytes consumed.
    pos: u64,
    /// Residual comparisons cut off by a chunk boundary, resumed
    /// against the next chunk's first bytes. Practically always empty.
    carry: Vec<ConfirmCarry>,
    vs: VerifySide,
}

impl TwoStageState {
    /// Stream bytes this flow has consumed.
    pub fn offset(&self) -> u64 {
        self.pos
    }

    /// This flow's accumulated counters.
    pub fn stats(&self) -> TwoStageStats {
        self.vs.stats
    }
}

/// Two-stage states slot directly into a [`FlowTable`](crate::FlowTable):
/// an ingest path that evicts a flow first emits the matches its state
/// still holds (`finish`), slot reuse then resets everything in place
/// (no reallocation beyond clearing the ring and queues), and a
/// reassembly hole-skip (`FlowReassembler::skip_to`), a shed-resume
/// resync or a protocol downgrade resumes the scan at the new offset
/// with boundary-local loss — both stages history-masked, any suspended
/// window abandoned (its bytes are gone), counters and already-found
/// matches kept.
impl crate::flow::FlowState for TwoStageState {
    fn reset(&mut self) {
        self.reset_at(0);
        self.vs.pending.clear();
        self.vs.stats = TwoStageStats::default();
    }

    fn reset_at(&mut self, offset: u64) {
        self.pre_scan.reset_at(offset);
        self.pos = offset;
        self.carry.clear();
        let vs = &mut self.vs;
        vs.verify.reset_at(offset);
        vs.verified_until = offset;
        vs.window_end = offset;
        vs.group_flag_end = 0;
        vs.ring.clear();
        // `pending` stays: its matches were found, and each ends at or
        // before the old position, so before anything this state can
        // emit next. The next chunk or `finish_flow` emits them.
        vs.group_open = false;
        vs.group_had_match = false;
    }

    /// [`TwoStageMatcher::finish_flow`], which needs no table of the
    /// matcher.
    fn finish(&mut self, out: &mut Vec<Match>) {
        // Residuals still in flight never completed: the stream ended
        // inside them, so they are not occurrences.
        self.carry.clear();
        let vs = &mut self.vs;
        if vs.group_open {
            vs.close_group();
        }
        while let Some(m) = vs.pending.pop_front() {
            push_canonical(out, m);
        }
    }
}

/// Reusable per-scan buffers: stage 1's flag record, the verifier's
/// match staging buffer, the confirmed-match holding pen and the
/// verifier's [`ShardedScratch`]. Keep one per worker and the scan path
/// performs no steady-state allocation.
#[derive(Debug, Default)]
pub struct TwoStageScratch {
    flags: Vec<(u64, u32)>,
    verif: Vec<Match>,
    /// Confirmed matches whose end the stage-1 sweep has not passed
    /// yet; drained into `out` as it does. Chunk-local: every entry's
    /// end is inside the current chunk.
    due: Vec<Match>,
    sharded: ShardedScratch,
}

/// The two-stage composition: approximate pre-classifier (stage 1) in
/// front of an exact [`ShardedMatcher`] (stage 2). See the
/// [module docs](self) for the scan discipline and soundness argument.
pub struct TwoStageMatcher {
    pre: PreStage,
    /// Exact stage over the patterns only a window replay can settle:
    /// the oversized-family ones, in one shard (zero when there are
    /// none).
    exact: ShardedMatcher,
    /// Maps the exact stage's local pattern ids back to ids in the
    /// original set; `None` when the exact stage holds the full set or
    /// no pattern.
    long_ids: Option<Vec<PatternId>>,
    max_back: u64,
    pre_memory: usize,
}

impl TwoStageMatcher {
    /// Builds both stages from one pattern set: stage 1 compiles
    /// [`PrefixCover::build`] over the whole set under `config.approx`,
    /// stage 2 compiles the oversized-family patterns into one
    /// automaton, a one-shard [`ShardedMatcher`].
    ///
    /// # Errors
    ///
    /// [`ShardPlanError::PatternExceedsBudget`] when a verifier
    /// pattern's estimate alone exceeds `config.exact.budget_bytes`;
    /// the approximate stage itself cannot fail.
    pub fn build(set: &PatternSet, config: &TwoStageConfig) -> Result<TwoStageMatcher, ShardPlanError> {
        // Prefix cover over the FULL set. Complete truncations become
        // exact stage-1 emissions, so short patterns cost nothing extra
        // here.
        let prefix = PrefixCover::build(set, &config.approx);
        // Family sizes: how many incompletely-covered source patterns
        // share each truncation. Small families are confirmed by direct
        // residual comparison at the flag; only large ones open windows.
        let patterns = prefix.patterns();
        let cover_len: Vec<usize> = patterns.iter().map(|(_, t)| t.len()).collect();
        let trunc_of = prefix.truncation_of();
        let mut family = vec![0u32; cover_len.len()];
        for (pid, bytes) in set.iter() {
            let cid = trunc_of[pid.index()] as usize;
            if cover_len[cid] < bytes.len() {
                family[cid] += 1;
            }
        }
        let mut meta: Vec<FlagMeta> = prefix
            .forward_table()
            .iter()
            .zip(&family)
            .map(|(&f, &fam)| FlagMeta {
                exact: u32::MAX,
                forward: f,
                // Small incomplete families are confirmed directly at
                // the flag; only oversized ones open windows.
                windowed: f > 0 && fam as usize > CONFIRM_MAX_FAMILY,
            })
            .collect();
        // Per-truncation confirm families (pid + residual), and the
        // verifier subset: only patterns in oversized families need the
        // exact engine replay.
        let mut fam_members: Vec<Vec<(u32, &[u8])>> = vec![Vec::new(); cover_len.len()];
        let mut verif_ids: Vec<PatternId> = Vec::new();
        let mut verif_bytes: Vec<&[u8]> = Vec::new();
        for (pid, bytes) in set.iter() {
            let cid = trunc_of[pid.index()] as usize;
            if cover_len[cid] == bytes.len() {
                debug_assert_eq!(meta[cid].exact, u32::MAX, "patterns are unique");
                meta[cid].exact = pid.0;
            } else if family[cid] as usize <= CONFIRM_MAX_FAMILY {
                fam_members[cid].push((pid.0, &bytes[cover_len[cid]..]));
            } else {
                verif_ids.push(pid);
                verif_bytes.push(bytes);
            }
        }
        let (verifier, long_ids) = if verif_ids.is_empty() {
            // Every flag settles in place, so no window can open: the
            // verifier gets zero shards.
            (None, None)
        } else if verif_ids.len() == set.len() {
            (Some(set.clone()), None)
        } else {
            let sub = if set.is_case_insensitive() {
                PatternSet::new_nocase(&verif_bytes)
            } else {
                PatternSet::new(&verif_bytes)
            }
            .expect("subset of a valid set is valid");
            (Some(sub), Some(verif_ids))
        };
        // Evict complete, family-less single-byte cover patterns into
        // the dense direct-emit table; keep everything that carries a
        // confirm family or can open a window for the automaton,
        // building the kept-aligned confirm table on the way.
        let mut singles = Box::new([u32::MAX; 256]);
        let mut kept_bytes: Vec<&[u8]> = Vec::new();
        let mut kept_meta: Vec<FlagMeta> = Vec::new();
        let mut confirm = ConfirmTable {
            off: vec![0],
            entries: Vec::new(),
            blob: Vec::new(),
            fold: Box::new([0u8; 256]),
        };
        for raw in 0..=255u8 {
            confirm.fold[usize::from(raw)] = patterns.fold(raw);
        }
        for (cid, ((_, t), m)) in patterns.iter().zip(meta).enumerate() {
            if t.len() == 1 && !m.windowed && fam_members[cid].is_empty() {
                // No sharer is incomplete and truncations are unique —
                // so `exact` is set.
                debug_assert_ne!(m.exact, u32::MAX);
                for raw in 0..=255u8 {
                    if patterns.fold(raw) == t[0] {
                        singles[usize::from(raw)] = m.exact;
                    }
                }
            } else {
                for &(pid, residual) in &fam_members[cid] {
                    let start = confirm.blob.len() as u32;
                    confirm
                        .blob
                        .extend(residual.iter().map(|&b| patterns.fold(b)));
                    confirm.entries.push(ConfirmEntry {
                        pid,
                        start,
                        len: residual.len() as u32,
                    });
                }
                confirm.off.push(confirm.entries.len() as u32);
                kept_bytes.push(t);
                kept_meta.push(m);
            }
        }
        // Compile the kept cover through the exact pipeline — same
        // reduce, anchors and pair rows as every exact-tier shard.
        let automaton = if kept_bytes.is_empty() {
            None
        } else {
            let kept = if set.is_case_insensitive() {
                PatternSet::new_nocase(&kept_bytes)
            } else {
                PatternSet::new(&kept_bytes)
            }
            .expect("subset of a valid cover is valid");
            let compiled = config.exact.compile(&kept);
            Some(Box::new((compiled, kept)))
        };
        // Lookback only has to reach the start of *windowed* truncations
        // (complete ones never open windows), so the depth of
        // fully-covered long patterns does not widen every window or the
        // per-flow ring.
        let max_back = kept_meta
            .iter()
            .zip(kept_bytes.iter())
            .filter(|(m, _)| m.windowed)
            .map(|(_, t)| t.len() as u64)
            .max()
            .unwrap_or(0);

        // One automaton: windows replay only flagged bytes, and every
        // shard would add a walk to each of them. Planning still runs the
        // budget feasibility check, so an over-budget pattern fails here.
        let exact = match &verifier {
            None => ShardedMatcher::empty(set),
            Some(v) => ShardedMatcher::build(
                v,
                &ShardedConfig {
                    cores: 1,
                    max_shards: 1,
                    ..config.exact
                },
            )?,
        };
        let pre_memory = automaton.as_deref().map_or(0, |(a, _)| a.memory_bytes()) + 256 * 4;
        Ok(TwoStageMatcher {
            pre: PreStage {
                automaton,
                meta: kept_meta,
                simd: SinglesSimd::build(&singles),
                singles,
                confirm,
            },
            exact,
            long_ids,
            max_back,
            pre_memory,
        })
    }

    /// Resident bytes of the stage-1 scan tables: the compiled cover's
    /// arena, including the anchor tables and region pair rows of the
    /// exact stage's lane stack (16 KiB, attached where the cover's calm
    /// density allows), plus the 1 KiB single-byte table. Not bounded by
    /// [`ApproxConfig::budget_bytes`], which bounds only the cover
    /// model's estimate ([`PrefixCover::memory_bytes`]).
    pub fn pre_memory_bytes(&self) -> usize {
        self.pre_memory
    }

    /// Uniform backward reach of stage-1 flags — the lookback every
    /// [`TwoStageState`] retains.
    pub fn max_back(&self) -> u64 {
        self.max_back
    }

    /// The exact verifier windows replay through: the patterns of
    /// oversized truncation families, compiled into one shard. It has
    /// zero shards (and 0 bytes) when no family is oversized, since then
    /// every flag settles in place.
    pub fn exact(&self) -> &ShardedMatcher {
        &self.exact
    }

    /// Fresh state for one flow.
    pub fn flow_state(&self) -> TwoStageState {
        TwoStageState {
            pre_scan: ScanState::fresh(),
            pos: 0,
            carry: Vec::new(),
            vs: VerifySide {
                verify: self.exact.flow_state(),
                verified_until: 0,
                window_end: 0,
                group_flag_end: 0,
                ring: Vec::with_capacity(self.max_back as usize),
                pending: VecDeque::new(),
                group_open: false,
                group_had_match: false,
                stats: TwoStageStats::default(),
            },
        }
    }

    /// Reusable scan buffers.
    pub fn scratch(&self) -> TwoStageScratch {
        TwoStageScratch {
            flags: Vec::with_capacity(64),
            verif: Vec::with_capacity(64),
            due: Vec::with_capacity(16),
            sharded: self.exact.scratch(),
        }
    }

    /// Whole-payload scan: clears `out`, writes every occurrence in
    /// canonical `(end, pattern)` order — byte-for-byte the single-stage
    /// result — and returns this scan's counters.
    pub fn scan_into(
        &self,
        payload: &[u8],
        scratch: &mut TwoStageScratch,
        out: &mut Vec<Match>,
    ) -> TwoStageStats {
        out.clear();
        let mut state = self.flow_state();
        self.scan_chunk_into(&mut state, payload, scratch, out);
        self.finish_flow(&mut state, out);
        state.vs.stats
    }

    /// Consumes one chunk of a flow, **appending** matches with
    /// stream-absolute `end` offsets and leaving `state` ready for the
    /// next chunk — the same contract as every other `scan_chunk_into`
    /// in the workspace, with stage-2 work only on flagged windows. A
    /// window extending past the chunk stays open: the flow suspends
    /// mid-window and the next chunk resumes verification seamlessly.
    /// `out` is in canonical order after every call.
    pub fn scan_chunk_into(
        &self,
        state: &mut TwoStageState,
        chunk: &[u8],
        scratch: &mut TwoStageScratch,
        out: &mut Vec<Match>,
    ) {
        self.scan_chunk_impl(state, chunk, scratch, out, false);
    }

    /// Degraded scan tier: stage 1 runs in full — every byte swept,
    /// exact-complete flags, single-byte hits and small-family confirms
    /// still emit **exactly** — but window-opening flags are only
    /// *counted* ([`TwoStageStats::suspect_flags`]), never replayed
    /// through the exact engine. Occurrences of incompletely-covered
    /// big-family patterns are therefore missed; everything reported is
    /// still a true match. This is the overload-shedding tier the
    /// service runtime descends to when even windowed replay cannot
    /// keep up: per-byte cost collapses to the stage-1 sweep while the
    /// suspect counter preserves an honest record of what went
    /// unverified.
    pub fn scan_chunk_flag_only(
        &self,
        state: &mut TwoStageState,
        chunk: &[u8],
        scratch: &mut TwoStageScratch,
        out: &mut Vec<Match>,
    ) {
        self.scan_chunk_impl(state, chunk, scratch, out, true);
    }

    fn scan_chunk_impl(
        &self,
        state: &mut TwoStageState,
        chunk: &[u8],
        scratch: &mut TwoStageScratch,
        out: &mut Vec<Match>,
        flag_only: bool,
    ) {
        if flag_only && state.vs.group_open {
            // A window suspended by a previous full-fidelity chunk
            // will not be replayed at this tier; retire it so the
            // sweep's fast paths apply and the fp accounting closes.
            state.vs.close_group();
        }
        let base = state.pos;
        let chunk_end = base + chunk.len() as u64;
        state.vs.stats.pre_bytes += chunk.len() as u64;
        let ctx = FeedCtx {
            exact: &self.exact,
            long_ids: self.long_ids.as_deref(),
            max_back: self.max_back,
            chunk,
            base,
        };

        let PreStage {
            automaton,
            meta,
            singles,
            simd,
            confirm,
        } = &self.pre;
        // The walk records flags and nothing else: the stepper loop is
        // register-starved, and a callback that touches the verifier
        // state spills it. Flags are rare (the singles table absorbs the
        // dense byte-level hits), so the replayed record stays tiny; the
        // single-byte table then sweeps the gaps between flags in stream
        // order.
        let TwoStageState {
            pre_scan,
            vs,
            carry,
            ..
        } = state;
        // Resume residual comparisons cut off by the previous chunk
        // boundary; completions join `due` and surface once the sweep
        // passes their end.
        if !carry.is_empty() {
            let due = &mut scratch.due;
            carry.retain_mut(|c| {
                let e = &confirm.entries[c.entry as usize];
                let from = (e.start + c.matched) as usize;
                let res = &confirm.blob[from..(e.start + e.len) as usize];
                let take = res.len().min(chunk.len());
                let ok = res[..take]
                    .iter()
                    .zip(chunk)
                    .all(|(&r, &b)| r == confirm.fold[usize::from(b)]);
                vs.stats.verified_bytes += take as u64;
                if !ok {
                    // The carried candidate was a false
                    // positive after all.
                    vs.stats.fp_windows += 1;
                    return false;
                }
                if take == res.len() {
                    due.push(Match {
                        end: c.end as usize,
                        pattern: PatternId(e.pid),
                    });
                    return false;
                }
                c.matched += take as u32;
                true
            });
        }
        scratch.flags.clear();
        if let Some((compiled, patterns)) = automaton.as_deref() {
            let matcher = CompiledMatcher::new(compiled, patterns);
            let flags = &mut scratch.flags;
            matcher.for_each_match_chunk(pre_scan, chunk, |m| {
                flags.push((m.end as u64, m.pattern.0));
            });
        }
        vs.stats.flags += scratch.flags.len() as u64;
        let flags = std::mem::take(&mut scratch.flags);
        let mut swept = 0usize;
        for &(end, pidx) in &flags {
            // Retire the open window group at the first flag —
            // of any kind — past its end, not just the next
            // *windowed* one: while a group is open every swept
            // single detours through the pending queue, so a
            // group left open across the (often long) gap to
            // the next windowed flag drags the whole gap onto
            // that slow path. The replay itself is unchanged —
            // same target, same early-retirement stop — and
            // because retirement only stops at or past the last
            // group flag + 2, the flush below provably empties
            // `pending` (everything queued inside the group
            // ends at or before that flag).
            if vs.group_open && end > vs.window_end {
                let target = vs.window_end;
                vs.feed(&ctx, target, scratch, out);
                vs.close_group();
                let upto = vs.verified_until;
                vs.flush_pending(upto, out);
            }
            let local = end as usize - base as usize;
            vs.sweep_singles(singles, simd, &ctx, &mut swept, local, out);
            let fm = &meta[pidx as usize];
            if fm.exact != u32::MAX {
                vs.emit_exact(
                    Match {
                        end: end as usize,
                        pattern: PatternId(fm.exact),
                    },
                    out,
                );
            }
            if fm.windowed {
                if flag_only {
                    vs.stats.suspect_flags += 1;
                } else {
                    vs.on_window_flag(&ctx, end, fm.forward, scratch, out);
                }
            }
            // Confirm the flag's residual family in place.
            let cs = confirm.off[pidx as usize] as usize;
            let ce = confirm.off[pidx as usize + 1] as usize;
            if cs != ce {
                vs.stats.windows += 1;
                let mut hit = false;
                // Stream bytes this flag makes stage 2 read:
                // the candidates all read the same bytes, so
                // the flag's cost is the longest examination,
                // not the sum.
                let mut examined = 0usize;
                for (i, e) in confirm.entries[cs..ce].iter().enumerate() {
                    let res = &confirm.blob[e.start as usize..(e.start + e.len) as usize];
                    let take = res.len().min(chunk.len() - local);
                    let mut eq = 0usize;
                    while eq < take && res[eq] == confirm.fold[usize::from(chunk[local + eq])] {
                        eq += 1;
                    }
                    let ok = eq == take;
                    examined = examined.max(eq + usize::from(!ok));
                    if !ok {
                        continue;
                    }
                    hit = true;
                    if take == res.len() {
                        scratch.due.push(Match {
                            end: end as usize + res.len(),
                            pattern: PatternId(e.pid),
                        });
                    } else {
                        carry.push(ConfirmCarry {
                            entry: (cs + i) as u32,
                            matched: take as u32,
                            end: end + res.len() as u64,
                        });
                    }
                }
                vs.stats.verified_bytes += examined as u64;
                if !hit {
                    vs.stats.fp_windows += 1;
                }
            }
            // Surface confirmed matches the sweep has passed.
            if !scratch.due.is_empty() {
                let upto = end as usize;
                scratch.due.retain(|&m| {
                    if m.end <= upto {
                        push_canonical(out, m);
                        false
                    } else {
                        true
                    }
                });
            }
        }
        scratch.flags = flags;
        vs.sweep_singles(singles, simd, &ctx, &mut swept, chunk.len(), out);
        // Every confirmed end lies inside this chunk, so the
        // final sweep surfaces the rest.
        for &m in scratch.due.iter() {
            push_canonical(out, m);
        }
        scratch.due.clear();

        // Replay what the chunk can serve of the active window; close it
        // if it ends inside this chunk — or if the verifier retired it
        // early — and suspend it otherwise.
        let vs = &mut state.vs;
        if vs.group_open {
            let target = vs.window_end.min(chunk_end);
            vs.feed(&ctx, target, scratch, out);
            if vs.verified_until < target || vs.window_end <= chunk_end {
                vs.close_group();
            }
        }

        // Pending watermark: any future flag ends past `chunk_end`, so
        // no future verifier feed can start before `chunk_end -
        // max_back` — pending matches at or before that line can never
        // be preceded by a verifier match.
        vs.flush_pending(chunk_end.saturating_sub(self.max_back), out);

        Self::update_ring(&mut vs.ring, self.max_back as usize, chunk);
        state.pos = chunk_end;
    }

    /// Declares a flow finished: closes any suspended window for the
    /// false-positive accounting and emits the exact matches still
    /// waiting on the (now dead) verify frontier. No bytes are scanned;
    /// the state's counters become final. The same as the state's
    /// [`FlowState::finish`](crate::FlowState::finish).
    pub fn finish_flow(&self, state: &mut TwoStageState, out: &mut Vec<Match>) {
        crate::flow::FlowState::finish(state, out);
    }

    /// Slides `chunk` into the lookback ring, keeping the last `cap`
    /// stream bytes.
    fn update_ring(ring: &mut Vec<u8>, cap: usize, chunk: &[u8]) {
        if chunk.len() >= cap {
            ring.clear();
            ring.extend_from_slice(&chunk[chunk.len() - cap..]);
        } else {
            let keep = cap - chunk.len();
            if ring.len() > keep {
                ring.drain(..ring.len() - keep);
            }
            ring.extend_from_slice(chunk);
        }
    }
}

impl std::fmt::Debug for TwoStageMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoStageMatcher")
            .field("pre_memory_bytes", &self.pre_memory)
            .field("max_back", &self.max_back)
            .field("shards", &self.exact.shard_count())
            .finish()
    }
}

impl dpi_automaton::MultiMatcher for TwoStageMatcher {
    fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.scan_into(haystack, &mut self.scratch(), &mut out);
        out
    }

    fn find_all_into(&self, haystack: &[u8], out: &mut Vec<Match>) {
        self.scan_into(haystack, &mut self.scratch(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_automaton::MultiMatcher;

    fn build(patterns: &[&str]) -> (PatternSet, TwoStageMatcher, ShardedMatcher) {
        let set = PatternSet::new(patterns).unwrap();
        let two = TwoStageMatcher::build(&set, &TwoStageConfig::with_cores(1)).unwrap();
        let exact = ShardedMatcher::build(&set, &ShardedConfig::with_cores(1)).unwrap();
        (set, two, exact)
    }

    /// Same set under a 1-byte budget: the cover degenerates to depth
    /// 1, so almost everything is windowed — the opposite extreme of
    /// the default build where small sets are covered completely.
    fn build_tight(patterns: &[&str]) -> (TwoStageMatcher, ShardedMatcher) {
        let set = PatternSet::new(patterns).unwrap();
        let config = TwoStageConfig {
            approx: ApproxConfig::with_budget(1),
            exact: ShardedConfig::with_cores(1),
        };
        let two = TwoStageMatcher::build(&set, &config).unwrap();
        let exact = ShardedMatcher::build(&set, &ShardedConfig::with_cores(1)).unwrap();
        (two, exact)
    }

    #[test]
    fn matches_single_stage_on_figure1() {
        let (_, two, exact) = build(&["he", "she", "his", "hers"]);
        let hay = b"ushers and his herd of hershey hens";
        assert_eq!(two.find_all(hay), exact.find_all(hay));
    }

    /// The shuffle tables driving the masked sweep must classify every
    /// byte exactly as the direct-emit table does — the vector kernels
    /// themselves are pinned to `model_contains` by the `simd`
    /// conformance suite, so this closes the chain table → tables →
    /// lanes.
    #[cfg(feature = "simd")]
    #[test]
    fn singles_simd_tables_mirror_the_emit_table() {
        let (_, two, _) = build(&["x", "q", "longer-pattern", "another-rule"]);
        let PreStage { singles, simd, .. } = &two.pre;
        let Some((tables, _)) = &simd.inner else {
            return; // CPU without SSSE3: the sweep stays scalar.
        };
        for b in 0..=255u8 {
            assert_eq!(
                tables.model_contains(b),
                singles[usize::from(b)] != u32::MAX,
                "byte {b:#04x}"
            );
        }
    }

    #[test]
    fn clean_traffic_never_reaches_the_verifier() {
        let (_, two, _) = build(&["attack-signature", "exploit-marker"]);
        let mut out = Vec::new();
        let stats = two.scan_into(&[b'z'; 4096], &mut two.scratch(), &mut out);
        assert!(out.is_empty());
        assert_eq!(stats.verified_bytes, 0);
        assert_eq!(stats.windows, 0);
        assert_eq!(stats.pre_bytes, 4096);
    }

    #[test]
    fn complete_covers_emit_exactly_without_windows() {
        // The default budget covers these patterns whole, so every
        // stage-1 flag is an exact occurrence: no windows, no replay,
        // whatever the pattern length.
        let (_, two, exact) = build(&["k", "qz", "wvu", "signature-long"]);
        let hay = b"kqz-wvukk-signature-long-qzwvuk".to_vec();
        let mut out = Vec::new();
        let stats = two.scan_into(&hay, &mut two.scratch(), &mut out);
        assert_eq!(out, exact.find_all(&hay));
        assert_eq!(stats.windows, 0, "complete covers must not open windows");
        assert_eq!(stats.verified_bytes, 0);
        assert!(stats.flags >= out.len() as u64);
        assert_eq!(
            two.exact().shard_count(),
            0,
            "no window can open: no verifier"
        );
    }

    #[test]
    fn chunked_scan_equals_whole_scan_across_all_cuts() {
        let (_, two, exact) = build(&["abcd", "cdef", "q", "deface"]);
        let (tight, _) = build_tight(&["abcd", "cdef", "q", "deface"]);
        let hay = b"xxabcdefqxxcdefabcd-deface-abcdeface".to_vec();
        let whole = exact.find_all(&hay);
        for (budget, matcher) in [("default", &two), ("1-byte", &tight)] {
            for cut in 0..hay.len() {
                let mut state = matcher.flow_state();
                let mut scratch = matcher.scratch();
                let mut out = Vec::new();
                matcher.scan_chunk_into(&mut state, &hay[..cut], &mut scratch, &mut out);
                matcher.scan_chunk_into(&mut state, &hay[cut..], &mut scratch, &mut out);
                matcher.finish_flow(&mut state, &mut out);
                assert_eq!(out, whole, "cut at {cut} ({budget} budget)");
                assert_eq!(state.stats().pre_bytes, hay.len() as u64);
            }
        }
    }

    #[test]
    fn single_byte_chunks_resume_mid_window() {
        // The tight budget truncates both patterns, so windows open and
        // must survive byte-at-a-time chunking.
        let (two, exact) = build_tight(&["longpattern", "gpat"]);
        let hay = b"xx-longpatterns-and-gpats".to_vec();
        let whole = exact.find_all(&hay);
        let mut state = two.flow_state();
        let mut scratch = two.scratch();
        let mut out = Vec::new();
        for b in &hay {
            two.scan_chunk_into(&mut state, std::slice::from_ref(b), &mut scratch, &mut out);
        }
        two.finish_flow(&mut state, &mut out);
        assert_eq!(out, whole);
        assert!(state.stats().windows > 0, "truncated covers must window");
    }

    #[test]
    fn fp_accounting_separates_hits_from_misses() {
        // A 1-byte budget forces the minimum depth-1 cover "n", so
        // every 'n' flags. The family of two confirms in place, so no
        // window can open and there is no verifier, yet each flag is
        // an episode that reads the bytes after it.
        let set = PatternSet::new(["needle-alpha", "needle-beta"]).unwrap();
        let config = TwoStageConfig {
            approx: ApproxConfig::with_budget(1),
            exact: ShardedConfig::with_cores(1),
        };
        let two = TwoStageMatcher::build(&set, &config).unwrap();
        assert_eq!(two.exact().shard_count(), 0);
        // One real occurrence, and two flags ("needle-nope", "nope")
        // whose residuals confirm nothing.
        let hay = b"...needle-alpha...needle-nope...".to_vec();
        let mut out = Vec::new();
        let stats = two.scan_into(&hay, &mut two.scratch(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(stats.windows, 3, "one confirm episode per flag");
        assert_eq!(stats.fp_windows, 2);
        assert!(stats.verified_bytes > 0, "confirms read stream bytes");
        assert!(stats.replay_fraction() < 1.0);
        assert!(stats.fp_window_rate() > 0.0);
    }

    #[test]
    fn nocase_sets_match_case_insensitively() {
        let set = PatternSet::new_nocase(["MiXeD-CaSe"]).unwrap();
        let two = TwoStageMatcher::build(&set, &TwoStageConfig::with_cores(1)).unwrap();
        let exact = ShardedMatcher::build(&set, &ShardedConfig::with_cores(1)).unwrap();
        let hay = b"zz MIXED-case mixed-CASE zz";
        let found = two.find_all(hay);
        assert_eq!(found.len(), 2);
        assert_eq!(found, exact.find_all(hay));
    }

    #[test]
    fn sharded_config_switch_reaches_two_stage() {
        let set = PatternSet::new(["switch-pattern"]).unwrap();
        let config = ShardedConfig::with_cores(2).two_stage(ApproxConfig::default());
        assert_eq!(config.exact.cores, 2);
        let two = TwoStageMatcher::build(&set, &config).unwrap();
        assert!(two.find_all(b"a switch-pattern here").len() == 1);
    }

    #[test]
    fn stacked_same_end_matches_emit_in_id_order() {
        // "u", "uu", "uuu" all end on every third byte of "uuuu…" — the
        // cover's suffix outputs arrive in automaton order, and the
        // emission path must restore global-id order per end offset.
        let (_, two, exact) = build(&["u", "uu", "uuu", "uuuu-long-tail"]);
        let hay = b"uuuuuu xx uuu".to_vec();
        assert_eq!(two.find_all(&hay), exact.find_all(&hay));
        let (tight, _) = build_tight(&["u", "uu", "uuu", "uuuu-long-tail"]);
        assert_eq!(tight.find_all(&hay), exact.find_all(&hay));
    }

    #[test]
    fn exact_and_windowed_matches_merge_in_canonical_order_across_cuts() {
        // Under a tight budget "x" stays complete (depth 1) while "xy"
        // and "xylophone" truncate to it — the same flag both emits an
        // exact match and opens a window, and verifier matches
        // interleave with exact ones at identical and adjacent ends.
        let (tight, exact) = build_tight(&["x", "xy", "xylophone"]);
        let hay = b"a xylophone-xy-x xyxy xylophon".to_vec();
        let whole = exact.find_all(&hay);
        assert_eq!(tight.find_all(&hay), whole);
        for cut in 0..hay.len() {
            let mut state = tight.flow_state();
            let mut scratch = tight.scratch();
            let mut out = Vec::new();
            tight.scan_chunk_into(&mut state, &hay[..cut], &mut scratch, &mut out);
            tight.scan_chunk_into(&mut state, &hay[cut..], &mut scratch, &mut out);
            tight.finish_flow(&mut state, &mut out);
            assert_eq!(out, whole, "cut at {cut}");
        }
    }

    #[test]
    fn all_short_sets_are_covered_completely() {
        // Lengths ≤ 3 always fit the cover whole: everything emits
        // exactly from stage 1 and there is no verifier.
        let (_, two, exact) = build(&["a", "bc", "def"]);
        let hay = b"abcabc-a-bc-def-adef".to_vec();
        let mut out = Vec::new();
        let stats = two.scan_into(&hay, &mut two.scratch(), &mut out);
        assert_eq!(out, exact.find_all(&hay));
        assert_eq!(stats.windows, 0);
        assert_eq!(two.exact().shard_count(), 0);
    }

    #[test]
    fn nocase_exact_flags_fold_input() {
        let set = PatternSet::new_nocase(["Q", "aB", "XyZ", "Needle-Case"]).unwrap();
        let two = TwoStageMatcher::build(&set, &TwoStageConfig::with_cores(1)).unwrap();
        let exact = ShardedMatcher::build(&set, &ShardedConfig::with_cores(1)).unwrap();
        let hay = b"q AB xYz qq ab XYZ needle-CASE Q";
        assert_eq!(two.find_all(hay), exact.find_all(hay));
    }

    /// Ten-plus-member families under a 1-byte cover budget: both
    /// families exceed [`CONFIRM_MAX_FAMILY`], so their flags open real
    /// replay windows. The exact config's small budget would plan the
    /// sharded engine into several shards; the verifier stays one.
    fn build_two_families() -> (PatternSet, TwoStageMatcher, ShardedMatcher) {
        let patterns: Vec<String> = (0..10)
            .flat_map(|i| {
                [
                    format!("alpha-family-{i:02}-signature"),
                    format!("beta-family-{i:02}-marker"),
                ]
            })
            .collect();
        let set = PatternSet::new(&patterns).unwrap();
        let mut exact_cfg = ShardedConfig::with_cores(2);
        exact_cfg.budget_bytes = 32 * 1024;
        let config = TwoStageConfig {
            approx: ApproxConfig::with_budget(1),
            exact: exact_cfg,
        };
        let two = TwoStageMatcher::build(&set, &config).unwrap();
        assert_eq!(two.exact().shard_count(), 1);
        let exact = ShardedMatcher::build(&set, &ShardedConfig::with_cores(1)).unwrap();
        (set, two, exact)
    }

    #[test]
    fn two_family_windows_equal_single_stage_across_cuts() {
        let (_, two, exact) = build_two_families();
        // Adjacent occurrences of different families force merged
        // windows that span both families; the truncated decoys open
        // windows that verify empty.
        let hay = b"alpha-family-03-signature beta-family-07-markeralpha-family-09-signature \
                    alpha-family beta-xx alpha-family-00-signaturebeta-family-00-marker end"
            .to_vec();
        let whole = exact.find_all(&hay);
        assert!(whole.len() >= 4);
        assert_eq!(two.find_all(&hay), whole);
        for cut in 0..hay.len() {
            let mut state = two.flow_state();
            let mut scratch = two.scratch();
            let mut out = Vec::new();
            two.scan_chunk_into(&mut state, &hay[..cut], &mut scratch, &mut out);
            two.scan_chunk_into(&mut state, &hay[cut..], &mut scratch, &mut out);
            two.finish_flow(&mut state, &mut out);
            assert_eq!(out, whole, "cut at {cut}");
        }
    }

    #[test]
    fn two_family_windows_in_single_byte_chunks_stay_exact() {
        let (_, two, exact) = build_two_families();
        let hay = b"xbeta-family-05-markeralpha-family-05-signature beta-family-09-marker".to_vec();
        let whole = exact.find_all(&hay);
        assert!(!whole.is_empty());
        let mut state = two.flow_state();
        let mut scratch = two.scratch();
        let mut out = Vec::new();
        for b in &hay {
            two.scan_chunk_into(&mut state, std::slice::from_ref(b), &mut scratch, &mut out);
        }
        two.finish_flow(&mut state, &mut out);
        assert_eq!(out, whole);
        assert!(state.stats().windows > 0);
    }

    #[test]
    fn flag_only_scan_is_sound_and_counts_suspects() {
        let (set, two, exact) = build_two_families();
        let hay = b"qq alpha-family-03-signature and beta-family-07-marker qq".to_vec();
        let whole = exact.find_all(&hay);
        assert!(whole.len() >= 2, "planted family occurrences must match");
        // Degraded tier: windowed flags counted, never replayed.
        let mut state = two.flow_state();
        let mut scratch = two.scratch();
        let mut out = Vec::new();
        two.scan_chunk_flag_only(&mut state, &hay, &mut scratch, &mut out);
        two.finish_flow(&mut state, &mut out);
        let stats = state.stats();
        assert!(stats.suspect_flags > 0, "windowed flags must be counted");
        assert_eq!(stats.verified_bytes, 0, "nothing replays at this tier");
        assert!(out.len() < whole.len(), "big-family occurrences go unverified");
        for m in &out {
            assert!(whole.contains(m), "flag-only may not invent matches: {m:?}");
            assert_eq!(
                &hay[m.end - set.pattern(m.pattern).len()..m.end],
                set.pattern(m.pattern),
                "every reported match is a true occurrence"
            );
        }
        // Full-fidelity scans never touch the suspect counter.
        let mut full = Vec::new();
        let full_stats = two.scan_into(&hay, &mut two.scratch(), &mut full);
        assert_eq!(full, whole);
        assert_eq!(full_stats.suspect_flags, 0);
    }

    #[test]
    fn flag_only_retires_a_window_suspended_by_a_full_chunk() {
        let (_, two, exact) = build_two_families();
        let hay = b"alpha-family-03-signature tail bytes".to_vec();
        // Cut inside the occurrence: the full-fidelity chunk suspends
        // mid-window, then the degraded tier takes over.
        let cut = 10;
        let mut state = two.flow_state();
        let mut scratch = two.scratch();
        let mut out = Vec::new();
        two.scan_chunk_into(&mut state, &hay[..cut], &mut scratch, &mut out);
        two.scan_chunk_flag_only(&mut state, &hay[cut..], &mut scratch, &mut out);
        two.finish_flow(&mut state, &mut out);
        // The tier drop may lose the in-flight occurrence, but must not
        // invent matches, corrupt order, or leave the group open.
        let whole = exact.find_all(&hay);
        for m in &out {
            assert!(whole.contains(m));
        }
        assert!(!state.vs.group_open);
        assert!(out.windows(2).all(|w| {
            (w[0].end, w[0].pattern.index()) <= (w[1].end, w[1].pattern.index())
        }));
    }

    #[test]
    fn flow_state_reset_at_resumes_with_boundary_local_loss() {
        use crate::flow::FlowState;
        let (_, two, _) = build(&["resume-pattern", "other-sig"]);
        let mut state = two.flow_state();
        let mut scratch = two.scratch();
        let mut out = Vec::new();
        two.scan_chunk_into(&mut state, b"xx resume-pattern xx", &mut scratch, &mut out);
        assert_eq!(out.len(), 1);
        // Reassembly hole: resume at offset 100 with history masked;
        // matches entirely after the hole land at stream-absolute ends.
        FlowState::reset_at(&mut state, 100);
        assert_eq!(state.offset(), 100);
        two.scan_chunk_into(
            &mut state,
            b"-- other-sig resume-pattern --",
            &mut scratch,
            &mut out,
        );
        two.finish_flow(&mut state, &mut out);
        let tail: Vec<Match> = out[1..].to_vec();
        assert_eq!(tail.len(), 2);
        assert!(tail.iter().all(|m| m.end > 100));
        // Counters survive a mid-stream resume but not a slot reset.
        assert_eq!(state.stats().pre_bytes, 50);
        FlowState::reset(&mut state);
        assert_eq!(state.stats(), TwoStageStats::default());
        assert_eq!(state.offset(), 0);
    }
}
