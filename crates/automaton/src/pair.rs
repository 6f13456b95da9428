//! Pair-transition derivation: dense `state × byte-pair → state` rows for
//! a budgeted set of *hot* states, so a scanner can consume **two bytes
//! per step** where the automaton spends most of its time.
//!
//! The move-function DFA consumes one byte per lookup; a software scan
//! loop is therefore serialized on one dependent load per byte. Bouma2
//! (see PAPERS.md) builds its whole matching scheme on 2-byte atoms, and
//! the wide-consumption DFA literature (Hyperflex) shows multi-byte
//! stepping is where software DPI throughput comes from. The obstacle is
//! memory: a full pair-indexed transition table is `states × 2¹⁶`
//! entries — 256 KiB *per state* — which no automaton of interesting size
//! can afford wholesale.
//!
//! [`PairTable`] resolves the tension with a budget: scan traffic spends
//! the overwhelming majority of its bytes in a handful of states — the
//! start state, the shallow states under it, and a few high-in-degree
//! hub states (measured on the repro workloads: the top 32 states by
//! occupancy cover 87–95 % of scanned bytes). The builder ranks states
//! by DFA in-degree (the static proxy for occupancy: how many
//! `(state, byte)` transitions land on a state bounds how often a scan
//! can sit in it), always includes the start state, and materializes
//! dense pair rows for as many top states as the byte budget allows.
//!
//! Each row entry packs the *exact* outcome of two DFA steps
//! `mid = δ(s, b₁); fin = δ(mid, b₂)`:
//!
//! - bits 0..22 — `fin`, the state after both half-steps;
//! - bits 22..30 — `fin`'s **own hot-row index** (or
//!   [`PairTable::NO_HOT`]): the address of the next pair step rides in
//!   the word just loaded, so the stepping loop's serial dependency is
//!   one load per two bytes;
//! - bit 31 ([`PairTable::FIN_ACCEPT`]) — `fin` accepts: the scanner
//!   emits `fin`'s outputs at the pair's end offset;
//! - bit 30 ([`PairTable::MID_ACCEPT`]) — `mid` accepts: the *interior*
//!   half-step completes a pattern, so the scanner must replay the two
//!   bytes through its byte stepper to emit at the interior offset
//!   (rare: it fires only when a match ends inside the pair).
//!
//! Because the DFA transition function depends on the state alone (the
//! DTP runtime's history registers reproduce exactly δ — pinned by the
//! reduction equivalence proof and the differential suites), the pair
//! outcome is well-defined per state, and the history registers after a
//! consumed pair are simply the pair's own (case-folded) bytes — no
//! history enters the table at all. That is what keeps a pair-stepping
//! scanner byte-exact: registers and match ends are reconstructible from
//! the input, and suspend/resume at *odd* stream offsets needs no
//! alignment (pairs are taken from wherever the scan stands, not from
//! even payload offsets).
//!
//! Case folding is baked into both byte axes (like [`AnchorSet`]'s
//! tables), so the scan loop indexes rows with raw input bytes.
//!
//! The analysis lives here, beside [`AnchorSet`] and the shard planner,
//! because it is a property of the pattern set's DFA alone — independent
//! of the DTP configuration the automaton is reduced under. The compiled
//! engine (`dpi-core::compiled`) embeds a `PairTable` and runs the
//! stride-2 lane; per-shard tables are built under a per-core budget by
//! `ShardedMatcher`.
//!
//! [`AnchorSet`]: crate::AnchorSet

use crate::anchor::AnchorSet;
use crate::dfa::Dfa;
use crate::pattern::PatternSet;
use crate::trie::StateId;

/// Budgeted dense pair-transition rows over a DFA's hot states. Build
/// once with [`PairTable::build_with_region`]; the compiled engine embeds
/// it beside the anchor analysis it was built from, via
/// `CompiledAutomaton::compile_with_prefilter`.
///
/// # Examples
///
/// ```
/// use dpi_automaton::{Dfa, PairTable, PatternSet, StateId};
///
/// let set = PatternSet::new(["he", "she", "his", "hers"])?;
/// let dfa = Dfa::build(&set);
/// // Budget for four rows: the start state plus the next three states
/// // by in-degree get dense pair rows.
/// let pairs = PairTable::build(&dfa, &set, 4 * PairTable::ROW_BYTES);
/// assert_eq!(pairs.hot_states(), 4);
/// let start = pairs.hot_index(StateId::START.0);
/// assert_ne!(start, PairTable::NO_HOT);
/// // One load resolves both half-steps: "he" from the start state ends
/// // on an accepting state.
/// let w = pairs.word(start, b'h', b'e');
/// assert_ne!(w & PairTable::FIN_ACCEPT, 0);
/// # Ok::<(), dpi_automaton::PatternSetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairTable {
    /// States in the source DFA (compatibility checks downstream).
    states: usize,
    /// Byte budget the hot set was sized under.
    budget_bytes: usize,
    /// State id → hot row index, or [`PairTable::NO_HOT`] (as a byte).
    hot_of: Vec<u8>,
    /// Hot row index → state id (selection order: in-degree descending).
    hot_ids: Vec<u32>,
    /// `hot_ids.len() × 65536` packed pair words, row-major; the pair
    /// `(b₁, b₂)` of hot row `h` lives at `h << 16 | b₁ << 8 | b₂`.
    rows: Vec<u32>,
    /// The **region pair row**: one bit per byte pair `(b₁, b₂)`, set
    /// when consuming `b₁` then `b₂` from *every* shallow-region state
    /// provably stays in (or returns to) the region with nothing to
    /// report. 2¹⁶ bits (8 KiB, L1-resident); empty unless built with
    /// [`PairTable::build_with_region`]. This is the pair rows of the
    /// whole region collapsed by universal quantification over its
    /// states: the scanner needs no state, no history and no serial
    /// dependency to consume two bytes on a set bit — and measured on
    /// the repro traffic the collapse costs only 2–5 points of
    /// coverage against the exact per-state test (93–98 % of positions
    /// are universally calm), while keying the exact test on the
    /// implied-state byte would cost 2 MiB and cache-miss on every
    /// high-entropy region of the payload.
    calm: Vec<u64>,
    /// The **follow row**: one bit per byte pair `(b₁, b₂)`, set when —
    /// *given* `b₁` is already known non-danger for the current
    /// predecessor — consuming `b₂` as well provably stays in the
    /// region with nothing to report. Unlike [`PairTable::is_calm`]
    /// this is **exact**, not universally quantified: a non-danger
    /// first byte pins the mid state to `depth1(b₁)` (the
    /// longest-suffix invariant), so the second half-step has a unique
    /// outcome. 2¹⁶ bits (8 KiB); built with the calm row.
    follow: Vec<u64>,
}

/// The two region-row bitmaps, built together.
struct RegionRows {
    calm: Vec<u64>,
    follow: Vec<u64>,
}

impl PairTable {
    /// Sentinel for "no pair row": returned by [`PairTable::hot_index`]
    /// and [`PairTable::fin_hot`] for states outside the hot set.
    pub const NO_HOT: u32 = 0xFF;

    /// Bit set in a pair word when the *final* state (after both
    /// half-steps) accepts: the scanner emits that state's outputs at
    /// the pair's end offset.
    pub const FIN_ACCEPT: u32 = 1 << 31;

    /// Bit set in a pair word when the *mid* state (after the first
    /// half-step) accepts: a match ends inside the pair, so the scanner
    /// replays the two bytes through its byte stepper for exact interior
    /// emission.
    pub const MID_ACCEPT: u32 = 1 << 30;

    /// Bit position of the final state's own hot-row index inside a
    /// pair word (8 bits, [`PairTable::NO_HOT`] when the final state is
    /// cold). Carrying the *next* row index inside the word keeps the
    /// pair-stepping loop's serial dependency at **one load per pair**:
    /// the scanner never touches the state → row map between steps.
    pub const HOT_SHIFT: u32 = 22;

    /// Mask extracting the final state id from a pair word. Pair tables
    /// therefore require automata below 2²² states (enforced by
    /// [`PairTable::build`]) — 4.1 M states, an order of magnitude
    /// beyond the largest ruleset in the paper's range.
    pub const TARGET_MASK: u32 = (1 << Self::HOT_SHIFT) - 1;

    /// Hard ceiling on hot rows: the in-word row index is 8 bits with
    /// [`PairTable::NO_HOT`] reserved.
    pub const MAX_ROWS: usize = 255;

    /// Bytes one dense pair row occupies: 2¹⁶ packed words.
    pub const ROW_BYTES: usize = 65536 * 4;

    /// Bytes the region pair rows occupy when built: the calm and
    /// follow bitmaps, 2¹⁶ bits each.
    pub const REGION_ROW_BYTES: usize = 2 * 65536 / 8;

    /// Minimum fraction of byte pairs that must be provably calm for
    /// the region rows to be built at all. Below it, the stride-2 walk
    /// tests fail too often to pay for themselves — measured on the
    /// repro workloads: the 300-rule set sits at ~98 % density and
    /// gains, the 6,275-rule master at ~69 % and regresses ~8 %, so
    /// the builder opts out and spends the budget on hot rows.
    pub const REGION_MIN_DENSITY: f64 = 0.80;

    /// Default budget: the region pair rows plus 16 hot rows
    /// (~4 MiB). Measured on the repro workloads, the top-16 excursion
    /// states by occupancy cover ~95 % of excursion bytes, and the
    /// whole-payload ratio plateaus between 16 and 32 rows as extra
    /// rows' cache pressure cancels their coverage. Only the touched
    /// cache lines of a row become resident, so the budget bounds
    /// *capacity*, not steady-state cache pressure.
    pub const DEFAULT_BUDGET: usize = Self::REGION_ROW_BYTES + 16 * Self::ROW_BYTES;

    /// Derives pair rows for the top states of `dfa` (built for `set`)
    /// by in-degree, spending at most `budget_bytes` on rows (capped at
    /// [`PairTable::MAX_ROWS`]). A budget below
    /// [`PairTable::ROW_BYTES`] yields a table with no hot states
    /// (valid, but a scanner gains nothing from it). The start state is
    /// always included when any row fits.
    ///
    /// # Panics
    ///
    /// Panics if `dfa` has 2²² or more states (the packed-word encoding
    /// spends the bits above on the chained row index and accept flags).
    pub fn build(dfa: &Dfa, set: &PatternSet, budget_bytes: usize) -> PairTable {
        // Rank states by in-degree over the full move function — the
        // static proxy for scan-time occupancy (a scan enters a state
        // once per transition landing on it).
        let mut indeg = vec![0u64; dfa.len()];
        for s in dfa.states() {
            for &t in dfa.row(s) {
                indeg[t as usize] += 1;
            }
        }
        Self::build_ranked(dfa, set, budget_bytes, &indeg)
    }

    /// Per-state occupancy of a simulated scan over `sample`, counted
    /// only outside the shallow region of `anchors` — the hot-row
    /// ranking of [`PairTable::build_profiled`]. With the skip lane
    /// composed in, region-resident bytes never reach the pair rows, so
    /// spending budget on region states would be waste (the region pair
    /// rows cover them instead). Static rankings cannot see which
    /// excursion states a traffic mix actually dwells in (measured on
    /// the repro workloads, the in-degree top-32 covers < 1 % of
    /// excursion bytes while the occupancy top-16 covers ~95 %); a short
    /// profile scan can.
    pub fn occupancy_profile(
        dfa: &Dfa,
        set: &PatternSet,
        anchors: &AnchorSet,
        sample: &[u8],
    ) -> Vec<u64> {
        let mut occ = vec![0u64; dfa.len()];
        let mut s = StateId::START;
        for &raw in sample {
            s = dfa.step(s, set.fold(raw));
            if !anchors.contains_state(s.0) {
                occ[s.index()] += 1;
            }
        }
        occ
    }

    fn build_ranked(
        dfa: &Dfa,
        set: &PatternSet,
        budget_bytes: usize,
        scores: &[u64],
    ) -> PairTable {
        let n = dfa.len();
        assert_eq!(scores.len(), n, "one score per state required");
        assert!(
            (n as u64) < (1u64 << Self::HOT_SHIFT),
            "pair tables cap at 2^22 - 1 states"
        );
        let max_rows = (budget_bytes / Self::ROW_BYTES).min(n).min(Self::MAX_ROWS);

        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&s| {
            (
                std::cmp::Reverse(scores[s as usize]),
                dfa.depth(StateId(s)),
                s,
            )
        });
        let mut hot_ids: Vec<u32> = order.into_iter().take(max_rows).collect();
        if max_rows > 0
            && scores[StateId::START.index()] > 0
            && !hot_ids.contains(&StateId::START.0)
        {
            // In-degree makes this unreachable in practice (every state
            // steps to START on most bytes), but a scored start state
            // must never be cold — every flow starts there.
            // Excursion-restricted profiles score it zero, and then the
            // row is better spent on a state the lane cannot cover.
            *hot_ids.last_mut().expect("max_rows > 0") = StateId::START.0;
        }
        let mut hot_of = vec![Self::NO_HOT as u8; n];
        for (h, &s) in hot_ids.iter().enumerate() {
            hot_of[s as usize] = h as u8;
        }

        // Materialize the rows: both half-steps resolved through the
        // case fold, accept flags read off the DFA outputs, and the
        // final state's own row index chained into the word.
        let mut rows = vec![0u32; hot_ids.len() * 65536];
        let fold: Vec<u8> = (0..=255u8).map(|b| set.fold(b)).collect();
        for (h, &s) in hot_ids.iter().enumerate() {
            let base = h << 16;
            for b1 in 0..256usize {
                let mid = dfa.step(StateId(s), fold[b1]);
                let mid_flag = if dfa.output(mid).is_empty() {
                    0
                } else {
                    Self::MID_ACCEPT
                };
                let row = &mut rows[base | (b1 << 8)..][..256];
                for (b2, slot) in row.iter_mut().enumerate() {
                    let fin = dfa.step(mid, fold[b2]);
                    let fin_flag = if dfa.output(fin).is_empty() {
                        0
                    } else {
                        Self::FIN_ACCEPT
                    };
                    let fin_hot = (hot_of[fin.index()] as u32) << Self::HOT_SHIFT;
                    *slot = fin.0 | fin_hot | fin_flag | mid_flag;
                }
            }
        }
        PairTable {
            states: n,
            budget_bytes,
            hot_of,
            hot_ids,
            rows,
            calm: Vec::new(),
            follow: Vec::new(),
        }
    }

    /// [`PairTable::build`] plus the collapsed **region pair row**:
    /// spends [`PairTable::REGION_ROW_BYTES`] of the budget first on
    /// the universal calm bitmap (see [`PairTable::is_calm`]), then
    /// fills the remainder with dense hot-state rows as
    /// [`PairTable::build`] does.
    ///
    /// The bitmap is quantified over the anchor analysis's *whole*
    /// shallow region, so it is valid for any horizon — but deeper
    /// horizons widen the region and can only clear bits (the
    /// horizon-vs-stride interaction: at horizon 2 every depth-2 state
    /// joins the quantifier, and pairs that are calm from depth ≤ 1
    /// stop being provably calm from depth 2). Horizon 1 is where the
    /// stride-2 walk earns its keep.
    ///
    /// `anchors` must be derived from the same `dfa`.
    ///
    /// # Panics
    ///
    /// Panics if `anchors` was derived from an automaton with a
    /// different state count, or if `dfa` exceeds the
    /// [`PairTable::build`] state cap.
    pub fn build_with_region(
        dfa: &Dfa,
        set: &PatternSet,
        anchors: &AnchorSet,
        budget_bytes: usize,
    ) -> PairTable {
        Self::build_with_region_impl(dfa, set, anchors, budget_bytes, None)
    }

    /// [`PairTable::build_with_region`] with profile-guided hot-state
    /// selection: hot rows are ranked by the occupancy of a simulated
    /// scan over `sample` (restricted to excursion states — see
    /// [`PairTable::occupancy_profile`]) instead of the static
    /// in-degree proxy. `sample` should be representative traffic, a
    /// few hundred KiB is plenty; it is scanned once at build time.
    pub fn build_profiled(
        dfa: &Dfa,
        set: &PatternSet,
        anchors: &AnchorSet,
        budget_bytes: usize,
        sample: &[u8],
    ) -> PairTable {
        let scores = Self::occupancy_profile(dfa, set, anchors, sample);
        Self::build_with_region_impl(dfa, set, anchors, budget_bytes, Some(&scores))
    }

    fn build_with_region_impl(
        dfa: &Dfa,
        set: &PatternSet,
        anchors: &AnchorSet,
        budget_bytes: usize,
        scores: Option<&[u64]>,
    ) -> PairTable {
        assert_eq!(
            anchors.states(),
            dfa.len(),
            "anchor analysis belongs to a different automaton"
        );
        let build_hot = |budget: usize| match scores {
            Some(sc) => Self::build_ranked(dfa, set, budget, sc),
            None => Self::build(dfa, set, budget),
        };
        if budget_bytes < Self::REGION_ROW_BYTES {
            return build_hot(budget_bytes);
        }
        let region_rows = Self::build_region_rows(dfa, set, anchors);
        let density = region_rows
            .calm
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>() as f64
            / 65536.0;
        if density < Self::REGION_MIN_DENSITY {
            // Too few provably-calm pairs: the stride-2 walk would
            // test and fail too often to pay (measured: the 6,275-rule
            // master drops to ~69 % density and the walk regresses
            // ~8 %). Spend the whole budget on hot rows instead.
            return build_hot(budget_bytes);
        }
        let mut table = build_hot(budget_bytes - Self::REGION_ROW_BYTES);
        table.budget_bytes = budget_bytes;
        table.calm = region_rows.calm;
        table.follow = region_rows.follow;
        table
    }

    /// Builds the calm and follow bitmaps for the shallow region of
    /// `anchors`.
    fn build_region_rows(dfa: &Dfa, set: &PatternSet, anchors: &AnchorSet) -> RegionRows {
        // calm(b₁, b₂) ⇔ from every region state s: the half-step
        // states δ(s, b₁) and δ(δ(s, b₁), b₂) report nothing and the
        // pair lands back inside the region. The distinct mid states
        // per b₁ are few (the region's one-step successors), so the
        // build reduces to one 256-entry continuation row per mid.
        let fold: Vec<u8> = (0..=255u8).map(|b| set.fold(b)).collect();
        let region: Vec<StateId> = dfa
            .states()
            .filter(|&s| anchors.contains_state(s.0))
            .collect();
        let mut calm = vec![u64::MAX; 65536 / 64];
        let mut cont: Vec<Option<Box<[u64; 4]>>> = vec![None; dfa.len()];
        for c in 0..256usize {
            let mut mids: Vec<StateId> =
                region.iter().map(|&s| dfa.step(s, fold[c])).collect();
            mids.sort_unstable();
            mids.dedup();
            let row = &mut calm[c * 4..c * 4 + 4];
            for &mid in &mids {
                if !dfa.output(mid).is_empty() {
                    row.copy_from_slice(&[0; 4]);
                    break;
                }
                let cr = cont[mid.index()].get_or_insert_with(|| {
                    let mut bits = Box::new([0u64; 4]);
                    for d in 0..256usize {
                        let fin = dfa.step(mid, fold[d]);
                        if anchors.contains_state(fin.0) && dfa.output(fin).is_empty() {
                            bits[d >> 6] |= 1u64 << (d & 63);
                        }
                    }
                    bits
                });
                for (slot, &m) in row.iter_mut().zip(cr.iter()) {
                    *slot &= m;
                }
            }
        }
        // follow(b₁, b₂): second-half-step safety under a non-danger
        // first byte. A non-danger step from the region lands on a
        // region state whose path ends in fold(b₁) (the longest-suffix
        // invariant) — for horizons ≤ 1 that state is uniquely
        // depth1(b₁) (or START) and the test is exact; horizon 2 adds
        // the depth-2 states ending in b₁ to the quantifier, making
        // the bit conservative there.
        let mut follow = vec![u64::MAX; 65536 / 64];
        let safe = |mid: StateId, row: &mut [u64]| {
            for d in 0..256usize {
                let fin = dfa.step(mid, fold[d]);
                if !anchors.contains_state(fin.0) || !dfa.output(fin).is_empty() {
                    row[d >> 6] &= !(1u64 << (d & 63));
                }
            }
        };
        for (c, row) in follow.chunks_mut(4).enumerate() {
            let d1 = StateId(anchors.depth1_state(c as u8));
            safe(d1, row);
            if anchors.horizon() >= 2 {
                for &s in &region {
                    if dfa.depth(s) == 2 && dfa.last_byte(s) == Some(fold[c]) {
                        safe(s, row);
                    }
                }
            }
        }
        RegionRows { calm, follow }
    }

    /// States in the DFA the table was derived from.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of states with a dense pair row.
    pub fn hot_states(&self) -> usize {
        self.hot_ids.len()
    }

    /// `true` when the table holds neither hot rows nor region rows —
    /// a scanner gains nothing from embedding it.
    pub fn is_empty(&self) -> bool {
        self.hot_ids.is_empty() && self.calm.is_empty()
    }

    /// The byte budget the hot set was sized under.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// State ids of the hot set, in selection order (in-degree
    /// descending) — exposed for diagnostics and budget sweeps.
    pub fn hot_state_ids(&self) -> &[u32] {
        &self.hot_ids
    }

    /// Resident bytes of the table (hot pair rows, region pair rows,
    /// and the state → hot-row index map).
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * 4
            + (self.calm.len() + self.follow.len()) * 8
            + self.hot_of.len()
            + self.hot_ids.len() * 4
    }

    /// `true` when the region pair rows are present (built via
    /// [`PairTable::build_with_region`] with enough budget).
    pub fn has_region_rows(&self) -> bool {
        !self.calm.is_empty()
    }

    /// The exact stride-2 continuation test: `true` when, **given**
    /// that raw byte `c` is non-danger for the walk's current
    /// predecessor (so the state after `c` is exactly the region state
    /// `depth1(c)` — the longest-suffix invariant), consuming raw byte
    /// `d` too provably keeps the automaton in the shallow region with
    /// nothing to report. The conditional makes the test exact rather
    /// than universally quantified, which is what keeps its branch
    /// ~97 % biased on any traffic mix.
    ///
    /// Callable only when [`PairTable::has_region_rows`] is `true`.
    #[inline(always)]
    pub fn is_follow_calm(&self, c: u8, d: u8) -> bool {
        let idx = (c as usize) << 8 | d as usize;
        (self.follow[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    /// The stride-2 region test: `true` when consuming **raw** bytes
    /// `c` then `d` from *any* shallow-region state provably keeps the
    /// automaton inside the region with nothing to report — so a lane
    /// may consume both bytes with one L1 bit test, independent of its
    /// state and history. A clear bit implies nothing (the exact
    /// per-byte tests take over).
    ///
    /// Callable only when [`PairTable::has_region_rows`] is `true`.
    #[inline(always)]
    pub fn is_calm(&self, c: u8, d: u8) -> bool {
        let idx = (c as usize) << 8 | d as usize;
        (self.calm[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    /// Hot row index of `state`, or [`PairTable::NO_HOT`]. Needed only
    /// to *enter* the pair lane — while pair-stepping, the next row
    /// index rides inside each word ([`PairTable::fin_hot`]).
    #[inline(always)]
    pub fn hot_index(&self, state: u32) -> u32 {
        self.hot_of[state as usize] as u32
    }

    /// `true` when `state` has a dense pair row.
    #[inline(always)]
    pub fn contains_state(&self, state: u32) -> bool {
        self.hot_of[state as usize] as u32 != Self::NO_HOT
    }

    /// The hot row index of a pair word's final state, or
    /// [`PairTable::NO_HOT`] — the chained address for the next pair
    /// step, read off the word the scanner just loaded.
    #[inline(always)]
    pub fn fin_hot(w: u32) -> u32 {
        (w >> Self::HOT_SHIFT) & 0xFF
    }

    /// The packed pair word of hot row `hot` for **raw** input bytes
    /// `(b1, b2)` (case fold baked in): bits 0..30 the state after both
    /// half-steps, plus the [`PairTable::FIN_ACCEPT`] /
    /// [`PairTable::MID_ACCEPT`] flags.
    ///
    /// # Panics
    ///
    /// Panics if `hot >= self.hot_states()`.
    #[inline(always)]
    pub fn word(&self, hot: u32, b1: u8, b2: u8) -> u32 {
        self.rows[(hot as usize) << 16 | (b1 as usize) << 8 | b2 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> (PatternSet, Dfa) {
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        let dfa = Dfa::build(&set);
        (set, dfa)
    }

    /// The defining contract, exhaustively: every pair word equals two
    /// DFA steps, with the accept flags reporting each half-step's
    /// outputs.
    fn assert_exact(set: &PatternSet, dfa: &Dfa, table: &PairTable) {
        for (h, &s) in table.hot_state_ids().iter().enumerate() {
            assert_eq!(table.hot_index(s), h as u32);
            assert!(table.contains_state(s));
            for b1 in 0..=255u8 {
                let mid = dfa.step(StateId(s), set.fold(b1));
                for b2 in 0..=255u8 {
                    let fin = dfa.step(mid, set.fold(b2));
                    let w = table.word(h as u32, b1, b2);
                    assert_eq!(w & PairTable::TARGET_MASK, fin.0, "target S{s} {b1:#04x} {b2:#04x}");
                    assert_eq!(
                        PairTable::fin_hot(w),
                        table.hot_index(fin.0),
                        "chained row index S{s} {b1:#04x} {b2:#04x}"
                    );
                    assert_eq!(
                        w & PairTable::MID_ACCEPT != 0,
                        !dfa.output(mid).is_empty(),
                        "mid flag S{s} {b1:#04x} {b2:#04x}"
                    );
                    assert_eq!(
                        w & PairTable::FIN_ACCEPT != 0,
                        !dfa.output(fin).is_empty(),
                        "fin flag S{s} {b1:#04x} {b2:#04x}"
                    );
                }
            }
        }
    }

    #[test]
    fn figure1_all_states_hot_is_exact() {
        let (set, dfa) = figure1();
        let table = PairTable::build(&dfa, &set, dfa.len() * PairTable::ROW_BYTES);
        assert_eq!(table.hot_states(), dfa.len());
        assert_eq!(table.states(), dfa.len());
        assert_exact(&set, &dfa, &table);
    }

    #[test]
    fn assorted_sets_exact_under_partial_budgets() {
        for patterns in [
            vec!["a".to_string()],
            vec!["aa".into(), "ab".into(), "ba".into()],
            vec!["GET /".into(), "POST /".into(), "Host:".into()],
            vec!["x".into(), "xy".into(), "xyz".into(), "yz".into()],
        ] {
            let set = PatternSet::new(&patterns).unwrap();
            let dfa = Dfa::build(&set);
            for rows in [1usize, 2, dfa.len()] {
                let table = PairTable::build(&dfa, &set, rows * PairTable::ROW_BYTES);
                assert_eq!(table.hot_states(), rows.min(dfa.len()));
                assert_exact(&set, &dfa, &table);
            }
        }
    }

    #[test]
    fn start_state_is_always_hot() {
        let (set, dfa) = figure1();
        for rows in 1..=3usize {
            let table = PairTable::build(&dfa, &set, rows * PairTable::ROW_BYTES);
            assert!(
                table.contains_state(StateId::START.0),
                "start missing at {rows} rows"
            );
        }
    }

    #[test]
    fn budget_below_one_row_yields_empty_table() {
        let (set, dfa) = figure1();
        let table = PairTable::build(&dfa, &set, PairTable::ROW_BYTES - 1);
        assert!(table.is_empty());
        assert_eq!(table.hot_states(), 0);
        for s in dfa.states() {
            assert!(!table.contains_state(s.0));
        }
    }

    #[test]
    fn selection_prefers_high_in_degree_shallow_states() {
        let (set, dfa) = figure1();
        let table = PairTable::build(&dfa, &set, 3 * PairTable::ROW_BYTES);
        // START has by far the highest in-degree (most bytes reset);
        // the depth-1 states 'h' and 's' are next (every state maps
        // their head bytes to them).
        let h = dfa.step(StateId::START, b'h');
        let s = dfa.step(StateId::START, b's');
        assert_eq!(table.hot_state_ids()[0], StateId::START.0);
        let rest: Vec<u32> = table.hot_state_ids()[1..].to_vec();
        assert!(rest.contains(&h.0) && rest.contains(&s.0), "{rest:?}");
    }

    #[test]
    fn nocase_fold_is_baked_into_both_axes() {
        let set = PatternSet::new_nocase(["He"]).unwrap();
        let dfa = Dfa::build(&set);
        let table = PairTable::build(&dfa, &set, dfa.len() * PairTable::ROW_BYTES);
        let start = table.hot_index(StateId::START.0);
        for (b1, b2) in [(b'h', b'e'), (b'H', b'E'), (b'h', b'E'), (b'H', b'e')] {
            let w = table.word(start, b1, b2);
            assert_ne!(w & PairTable::FIN_ACCEPT, 0, "{b1} {b2}");
        }
        assert_exact(&set, &dfa, &table);
    }

    #[test]
    fn mid_accept_marks_interior_matches() {
        let (set, dfa) = figure1();
        let table = PairTable::build(&dfa, &set, dfa.len() * PairTable::ROW_BYTES);
        // From "h": pair (e, x) — "he" completes on the first half-step.
        let h = dfa.step(StateId::START, b'h');
        let hot = table.hot_index(h.0);
        assert_ne!(hot, PairTable::NO_HOT);
        let w = table.word(hot, b'e', b'x');
        assert_ne!(w & PairTable::MID_ACCEPT, 0);
        assert_eq!(w & PairTable::FIN_ACCEPT, 0);
        // Pair (e, r): interior "he" plus a non-accepting final "her".
        let w = table.word(hot, b'e', b'r');
        assert_ne!(w & PairTable::MID_ACCEPT, 0);
        assert_eq!(w & PairTable::FIN_ACCEPT, 0);
    }

    #[test]
    fn memory_accounting_counts_rows_and_index() {
        let (set, dfa) = figure1();
        let table = PairTable::build(&dfa, &set, 2 * PairTable::ROW_BYTES);
        assert_eq!(
            table.memory_bytes(),
            2 * PairTable::ROW_BYTES + dfa.len() + 2 * 4
        );
        assert_eq!(table.budget_bytes(), 2 * PairTable::ROW_BYTES);
        assert!(!table.has_region_rows());
    }

    /// The region-row contracts, exhaustively against the DFA: a set
    /// calm bit must mean both half-steps from *every* region state
    /// stay in the region and report nothing; a set follow bit must
    /// mean the same for the second half-step from every region state
    /// whose path ends in the first byte (the states a non-danger
    /// first byte can land on).
    fn assert_region_rows_sound(set: &PatternSet, dfa: &Dfa, horizon: u8) {
        use crate::anchor::AnchorSet;
        let anchors = AnchorSet::build(dfa, set, horizon);
        let table =
            PairTable::build_with_region(dfa, set, &anchors, PairTable::REGION_ROW_BYTES);
        assert!(table.has_region_rows());
        assert_eq!(table.hot_states(), 0); // budget spent on region rows
        let region: Vec<StateId> = dfa
            .states()
            .filter(|&s| anchors.contains_state(s.0))
            .collect();
        for c in 0..=255u8 {
            for d in 0..=255u8 {
                if table.is_calm(c, d) {
                    for &s in &region {
                        let mid = dfa.step(s, set.fold(c));
                        let fin = dfa.step(mid, set.fold(d));
                        assert!(dfa.output(mid).is_empty(), "calm mid accepts: {c:#04x} {d:#04x} from {s}");
                        assert!(dfa.output(fin).is_empty(), "calm fin accepts: {c:#04x} {d:#04x} from {s}");
                        assert!(
                            anchors.contains_state(fin.0),
                            "calm fin left region: {c:#04x} {d:#04x} from {s} (h{horizon})"
                        );
                    }
                }
                if table.is_follow_calm(c, d) {
                    // Mid states a non-danger `c` can land on: region
                    // states whose path ends in fold(c), or START.
                    let mut mids: Vec<StateId> =
                        vec![StateId(anchors.depth1_state(c))];
                    if horizon >= 2 {
                        mids.extend(region.iter().copied().filter(|&s| {
                            dfa.depth(s) == 2 && dfa.last_byte(s) == Some(set.fold(c))
                        }));
                    }
                    for mid in mids {
                        let fin = dfa.step(mid, set.fold(d));
                        assert!(
                            anchors.contains_state(fin.0) && dfa.output(fin).is_empty(),
                            "follow unsound: {c:#04x} {d:#04x} via {mid} (h{horizon})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn region_rows_sound_under_every_horizon() {
        let (set, dfa) = figure1();
        for h in 0..=2u8 {
            assert_region_rows_sound(&set, &dfa, h);
        }
        let set = PatternSet::new_nocase(["He", "SHE", "his", "hers", "a"]).unwrap();
        let dfa = Dfa::build(&set);
        for h in 0..=2u8 {
            assert_region_rows_sound(&set, &dfa, h);
        }
    }

    #[test]
    fn region_rows_cover_skippable_pairs() {
        // Calm generalizes the skip bitmap: a pair of skippable bytes
        // is always calm (both reset to START with nothing to report).
        use crate::anchor::AnchorSet;
        let (set, dfa) = figure1();
        let anchors = AnchorSet::build(&dfa, &set, 1);
        let table =
            PairTable::build_with_region(&dfa, &set, &anchors, PairTable::DEFAULT_BUDGET);
        for c in 0..=255u8 {
            for d in 0..=255u8 {
                if anchors.is_skippable(c) && anchors.is_skippable(d) {
                    assert!(table.is_calm(c, d), "skippable pair {c:#04x} {d:#04x} not calm");
                }
            }
        }
    }

    #[test]
    fn profiled_build_ranks_by_sample_occupancy() {
        use crate::anchor::AnchorSet;
        // Patterns sharing the stem "ab": a sample dwelling on "ab…"
        // must rank the "ab" excursion state hot; a sample that never
        // leaves the region must not.
        let set = PatternSet::new(["abcx", "abdx", "q"]).unwrap();
        let dfa = Dfa::build(&set);
        let anchors = AnchorSet::build(&dfa, &set, 1);
        let budget = PairTable::REGION_ROW_BYTES + PairTable::ROW_BYTES;
        let ab = {
            let a = dfa.step(StateId::START, b'a');
            dfa.step(a, b'b')
        };
        assert_eq!(dfa.depth(ab), 2);
        let dwelling = PairTable::build_profiled(&dfa, &set, &anchors, budget, b"abababababab");
        assert!(dwelling.contains_state(ab.0), "dwelt-on state must be hot");
        // occupancy_profile counts only excursion states when anchors
        // are given.
        let occ = PairTable::occupancy_profile(&dfa, &set, &anchors, b"zzzzzz");
        assert!(occ.iter().all(|&x| x == 0), "region-only sample has no excursions");
    }

    #[test]
    fn region_budget_spends_before_hot_rows() {
        use crate::anchor::AnchorSet;
        let (set, dfa) = figure1();
        let anchors = AnchorSet::build(&dfa, &set, 1);
        // Budget below the region rows: falls back to hot rows only.
        let tiny = PairTable::build_with_region(&dfa, &set, &anchors, 0);
        assert!(!tiny.has_region_rows());
        assert!(tiny.is_empty());
        // Region rows plus one hot row.
        let one = PairTable::build_with_region(
            &dfa,
            &set,
            &anchors,
            PairTable::REGION_ROW_BYTES + PairTable::ROW_BYTES,
        );
        assert!(one.has_region_rows());
        assert_eq!(one.hot_states(), 1);
        assert_eq!(
            one.budget_bytes(),
            PairTable::REGION_ROW_BYTES + PairTable::ROW_BYTES
        );
        assert!(one.memory_bytes() >= PairTable::REGION_ROW_BYTES + PairTable::ROW_BYTES);
    }
}
