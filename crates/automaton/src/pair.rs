//! Region pair rows: two state-free bitmaps over byte pairs that let a
//! scanner consume **two bytes per test** while the automaton sits in
//! its shallow region.
//!
//! The move-function DFA consumes one byte per lookup; a software scan
//! loop is therefore serialized on one dependent load per byte. Bouma2
//! (see PAPERS.md) builds its whole matching scheme on 2-byte atoms, and
//! the wide-consumption DFA literature (Hyperflex) shows multi-byte
//! stepping is where software DPI throughput comes from. The obstacle is
//! memory: a pair-indexed transition row is 2¹⁶ entries — 256 KiB *per
//! state* — which no automaton of interesting size can afford for more
//! than a handful of states, and a handful of states buys little once
//! the anchor lane already walks the start state's neighbourhood.
//!
//! [`PairTable`] takes the cheap end of that design space. Scan traffic
//! spends the overwhelming majority of its bytes inside the shallow
//! region of [`AnchorSet`] (the states the anchor lane walks), so the
//! table quantifies over that region instead of materializing per-state
//! rows:
//!
//! - the **calm** bitmap ([`PairTable::is_calm`]) marks the byte pairs
//!   that, from *every* region state, report nothing and land back in
//!   the region — a lane may consume both bytes with one bit test and no
//!   state at all;
//! - the **follow** bitmap ([`PairTable::is_follow_calm`]) marks the
//!   pairs whose *second* byte is safe once the first is known
//!   non-danger (which pins the mid state to `depth1(b₁)` by the
//!   longest-suffix invariant).
//!
//! Each bitmap is 2¹⁶ bits, so the table is 16 KiB
//! ([`PairTable::REGION_ROW_BYTES`]) whatever the ruleset size — small
//! enough to stay L1/L2-resident beside the automaton. Case folding is
//! baked into both byte axes (like [`AnchorSet`]'s tables), so the scan
//! loop indexes the bitmaps with raw input bytes, and no history enters
//! the table: a consumed pair leaves the history registers at the pair's
//! own folded bytes, which keeps a pair-consuming scanner byte-exact and
//! lets suspend/resume happen at odd stream offsets.
//!
//! The rows pay only where most pairs are calm. [`PairTable::build`]
//! returns `None` below [`PairTable::REGION_MIN_DENSITY`], and the
//! compiled engine then runs the anchor lane alone.
//!
//! The analysis lives here, beside [`AnchorSet`] and the shard planner,
//! because it is a property of the pattern set's DFA alone — independent
//! of the DTP configuration the automaton is reduced under. The compiled
//! engine (`dpi-core::compiled`) embeds a `PairTable` and runs the
//! stride-2 lane; every shard builds its own.
//!
//! [`AnchorSet`]: crate::AnchorSet

use crate::anchor::AnchorSet;
use crate::dfa::Dfa;
use crate::pattern::PatternSet;
use crate::trie::StateId;

/// The region pair rows of one DFA: the calm and follow bitmaps over
/// its anchor analysis's shallow region. Build once with
/// [`PairTable::build`]; the compiled engine embeds it beside the anchor
/// analysis it was built from, via
/// `CompiledAutomaton::compile_with_prefilter`.
///
/// # Examples
///
/// ```
/// use dpi_automaton::{AnchorSet, Dfa, PairTable, PatternSet};
///
/// let set = PatternSet::new(["he", "she", "his", "hers"])?;
/// let dfa = Dfa::build(&set);
/// let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
/// let pairs = PairTable::build(&dfa, &set, &anchors).expect("dense enough");
/// assert_eq!(pairs.memory_bytes(), PairTable::REGION_ROW_BYTES);
/// // "zz" reports nothing and stays shallow from every region state;
/// // "he" completes a pattern, so it is never calm.
/// assert!(pairs.is_calm(b'z', b'z'));
/// assert!(!pairs.is_calm(b'h', b'e'));
/// # Ok::<(), dpi_automaton::PatternSetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairTable {
    /// States in the source DFA (compatibility checks downstream).
    states: usize,
    /// The **calm row**: one bit per byte pair `(b₁, b₂)`, set when
    /// consuming `b₁` then `b₂` from *every* shallow-region state
    /// provably stays in (or returns to) the region with nothing to
    /// report. 2¹⁶ bits (8 KiB, L1-resident). This is the per-state pair
    /// rows of the whole region collapsed by universal quantification
    /// over its states: the scanner needs no state, no history and no
    /// serial dependency to consume two bytes on a set bit — and
    /// measured on the repro traffic the collapse costs only 2–5 points
    /// of coverage against the exact per-state test (93–98 % of
    /// positions are universally calm), while keying the exact test on
    /// the implied-state byte would cost 2 MiB and cache-miss on every
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

impl PairTable {
    /// Bytes a table occupies: the calm and follow bitmaps, 2¹⁶ bits
    /// each.
    pub const REGION_ROW_BYTES: usize = 2 * 65536 / 8;

    /// Minimum fraction of byte pairs that must be provably calm for
    /// the table to be built at all. Below it, the stride-2 walk tests
    /// fail too often to pay for themselves — measured on the repro
    /// workloads: the 300-rule set sits at ~98 % density and gains, the
    /// 6,275-rule master at ~69 % and regresses ~8 %, so
    /// [`PairTable::build`] returns `None` there.
    pub const REGION_MIN_DENSITY: f64 = 0.80;

    /// Builds the calm and follow bitmaps for the shallow region of
    /// `anchors`, or `None` when fewer than
    /// [`PairTable::REGION_MIN_DENSITY`] of all byte pairs are calm.
    ///
    /// The calm bitmap is quantified over the anchor analysis's *whole*
    /// shallow region, so it is valid for any horizon — but deeper
    /// horizons widen the region and can only clear bits (the
    /// horizon-vs-stride interaction: at horizon 2 every depth-2 state
    /// joins the quantifier, and pairs that are calm from depth ≤ 1
    /// stop being provably calm from depth 2). Horizon 1 is where the
    /// stride-2 walk earns its keep.
    ///
    /// `anchors` must be derived from the same `dfa` (built for `set`).
    ///
    /// # Panics
    ///
    /// Panics if `anchors` was derived from an automaton with a
    /// different state count.
    pub fn build(dfa: &Dfa, set: &PatternSet, anchors: &AnchorSet) -> Option<PairTable> {
        assert_eq!(
            anchors.states(),
            dfa.len(),
            "anchor analysis belongs to a different automaton"
        );
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
            let mut mids: Vec<StateId> = region.iter().map(|&s| dfa.step(s, fold[c])).collect();
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
        let density = calm.iter().map(|w| w.count_ones() as usize).sum::<usize>() as f64 / 65536.0;
        if density < Self::REGION_MIN_DENSITY {
            // Too few provably-calm pairs: the stride-2 walk would
            // test and fail too often to pay (measured: the 6,275-rule
            // master drops to ~69 % density and the walk regresses
            // ~8 %).
            return None;
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
        Some(PairTable {
            states: dfa.len(),
            calm,
            follow,
        })
    }

    /// States in the DFA the table was derived from.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Resident bytes of the table: always
    /// [`PairTable::REGION_ROW_BYTES`].
    pub fn memory_bytes(&self) -> usize {
        (self.calm.len() + self.follow.len()) * 8
    }

    /// The exact stride-2 continuation test: `true` when, **given**
    /// that raw byte `c` is non-danger for the walk's current
    /// predecessor (so the state after `c` is exactly the region state
    /// `depth1(c)` — the longest-suffix invariant), consuming raw byte
    /// `d` too provably keeps the automaton in the shallow region with
    /// nothing to report. The conditional makes the test exact rather
    /// than universally quantified, which is what keeps its branch
    /// ~97 % biased on any traffic mix.
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
    #[inline(always)]
    pub fn is_calm(&self, c: u8, d: u8) -> bool {
        let idx = (c as usize) << 8 | d as usize;
        (self.calm[idx >> 6] >> (idx & 63)) & 1 != 0
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

    /// The region-row contracts, exhaustively against the DFA: a set
    /// calm bit must mean both half-steps from *every* region state
    /// stay in the region and report nothing; a set follow bit must
    /// mean the same for the second half-step from every region state
    /// whose path ends in the first byte (the states a non-danger
    /// first byte can land on).
    fn assert_region_rows_sound(set: &PatternSet, dfa: &Dfa, horizon: u8) {
        let anchors = AnchorSet::build(dfa, set, horizon);
        let table = PairTable::build(dfa, set, &anchors).expect("dense enough to attach");
        assert_eq!(table.states(), dfa.len());
        assert_eq!(table.memory_bytes(), PairTable::REGION_ROW_BYTES);
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
                        assert!(
                            dfa.output(mid).is_empty(),
                            "calm mid accepts: {c:#04x} {d:#04x} from {s}"
                        );
                        assert!(
                            dfa.output(fin).is_empty(),
                            "calm fin accepts: {c:#04x} {d:#04x} from {s}"
                        );
                        assert!(
                            anchors.contains_state(fin.0),
                            "calm fin left region: {c:#04x} {d:#04x} from {s} (h{horizon})"
                        );
                    }
                }
                if table.is_follow_calm(c, d) {
                    // Mid states a non-danger `c` can land on: region
                    // states whose path ends in fold(c), or START.
                    let mut mids: Vec<StateId> = vec![StateId(anchors.depth1_state(c))];
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
        let (set, dfa) = figure1();
        let anchors = AnchorSet::build(&dfa, &set, 1);
        let table = PairTable::build(&dfa, &set, &anchors).expect("dense enough to attach");
        for c in 0..=255u8 {
            for d in 0..=255u8 {
                if anchors.is_skippable(c) && anchors.is_skippable(d) {
                    assert!(
                        table.is_calm(c, d),
                        "skippable pair {c:#04x} {d:#04x} not calm"
                    );
                }
            }
        }
    }

    #[test]
    fn no_table_when_too_few_pairs_are_calm() {
        // Every byte value is a pattern, so every first half-step
        // reports and no pair is calm: the density gate declines.
        let set = PatternSet::new((0..=255u8).map(|b| [b])).unwrap();
        let dfa = Dfa::build(&set);
        for h in 0..=2u8 {
            let anchors = AnchorSet::build(&dfa, &set, h);
            assert_eq!(PairTable::build(&dfa, &set, &anchors), None, "h{h}");
        }
    }
}
