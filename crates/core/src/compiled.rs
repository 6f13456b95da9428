//! Compiled flat-memory scan engine: the software fast path.
//!
//! [`ReducedAutomaton`] is a *build-time* structure — per-state `Vec`s,
//! `Option<u8>` history registers, a binary search per byte. That shape is
//! right for constructing, verifying and packing the automaton, but it is
//! the wrong shape for scanning: every byte pays pointer chases through
//! nested `Vec`s, a `binary_search_by_key` over at most 13 entries (where
//! a linear sweep is cheaper), and a branchy ladder of `Option` matches in
//! [`DefaultLut::resolve`]. The paper's whole argument is *one byte per
//! cycle, unconditionally* — the hardware achieves it with flat memories
//! and parallel compares, and the software runtime should mirror that.
//!
//! [`CompiledAutomaton`] is the one-time compilation of a
//! [`ReducedAutomaton`] into pointer-free parallel arrays:
//!
//! - **stored transitions** live in one CSR arena — `offsets` indexes into
//!   parallel `keys`/`targets` slices. Rows are byte-sorted and scanned
//!   linearly (the paper's engines cap rows at 13 pointers; a linear sweep
//!   over a cache-resident row beats binary search at that size). States
//!   whose row exceeds [`DENSE_ROW_THRESHOLD`] (possible only under
//!   non-paper configurations such as [`DtpConfig::NONE`]) are escalated
//!   to a dense 256-entry row, restoring O(1) lookup;
//! - **the default-transition table** is compiled into sentinel-padded,
//!   fixed-stride compare arrays resolved *branch-free*: history is kept
//!   in two raw `u32` registers where [`HIST_NONE`] (`0x100`, one past any
//!   byte) encodes "register not yet valid". Padding slots hold sentinel
//!   keys no history can equal, so every row resolves with the same
//!   straight-line compare/select sequence — the software analogue of the
//!   hardware's parallel comparators, including the paper's start-signal
//!   masking (an invalid register simply never compares equal);
//! - **match outputs** are a CSR `(offsets, pattern_ids)` pair; the
//!   per-byte hot path is a single offset comparison.
//!
//! [`CompiledMatcher`] scans packets over the compiled form with an
//! allocation-free [`CompiledMatcher::scan_into`], a visitor API, and
//! early-exit `is_match`/`count` fast paths.
//!
//! What the automaton carries alone picks the scan loop, once per chunk:
//! the plain byte stepper for [`CompiledAutomaton::compile`], and the
//! anchor lane for [`CompiledAutomaton::compile_with_prefilter`], which
//! walks two bytes per test where it can when that constructor was also
//! given a [`PairTable`]. The one matcher switch is
//! [`CompiledMatcher::with_simd`], which picks the vector or the scalar
//! kernels inside the anchor lane.
//!
//! Equivalence with [`DtpMatcher`](crate::DtpMatcher) (and therefore with
//! the full DFA) is asserted state-trace-for-state-trace by
//! `tests/equivalence.rs` and `tests/compiled_engine.rs`.
//!
//! [`DefaultLut::resolve`]: crate::DefaultLut::resolve
//! [`DtpConfig::NONE`]: crate::DtpConfig::NONE

use crate::reduce::ReducedAutomaton;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use dpi_automaton::simd::SimdToken;
use dpi_automaton::{
    AnchorSet, Match, MultiMatcher, PairTable, PatternId, PatternSet, ScanState, StateId,
};

/// History-register value meaning "no byte observed yet" (one past any
/// byte value, so it can never compare equal to a stored compare key).
pub const HIST_NONE: u32 = 0x100;

/// Stored-pointer count above which a state's transitions are compiled
/// into a dense 256-entry row instead of a CSR row.
///
/// The paper's hardware handles at most 13 pointers per state, so under
/// [`DtpConfig::PAPER`](crate::DtpConfig::PAPER) every row stays sparse;
/// dense rows only materialize for ablation configurations (e.g.
/// [`DtpConfig::NONE`](crate::DtpConfig::NONE)) where a state can store
/// up to 256 pointers and a linear sweep would no longer be constant-ish.
pub const DENSE_ROW_THRESHOLD: usize = 16;

/// Sentinel compare key for padded depth-2/3 slots: depth-2 history
/// registers are at most [`HIST_NONE`] and packed depth-3 pairs are at
/// most 17 bits, so no runtime history can equal it.
const LUT_PAD: u32 = u32::MAX;

/// Marker in `dense_of` for states without a dense row.
const NO_DENSE: u32 = u32::MAX;

/// Marker in a dense row for "no stored pointer — fall through to the
/// default-transition resolution".
const DENSE_MISS: u32 = u32::MAX;

/// Bytes the prefilter lane walks after its first failed SWAR window
/// probe before probing again (one window's worth — cheap to re-check).
const LANE_PROBE_MIN: usize = 8;

/// Walk-run cap between window probes while probes keep failing: long
/// enough to amortize the probe to noise under candidate saturation
/// (the 6,275-rule master leaves only 38 skippable byte values — its
/// probes essentially never succeed), short enough to catch the next
/// skippable run within a packet's worth of bytes. Swept 64/128/256 on
/// the clean workloads; 128 is the knee.
const LANE_PROBE_MAX: usize = 128;

/// Bit set in every *stored* target word whose destination state accepts
/// at least one pattern.
///
/// [`CompiledAutomaton::step`] and [`CompiledAutomaton::resolve`] return
/// **tagged** state words: bits 0..31 are the state index, bit 31 is this
/// flag. Folding the accept bit into the transition word the scan loop
/// already loaded means the (overwhelmingly common) non-accepting step
/// touches no output array at all; only flagged steps read the match CSR.
/// This caps automata at 2³¹ − 2 states, far beyond any DPI workload.
pub const OUTPUT_FLAG: u32 = 1 << 31;

/// Mask extracting the state index from a tagged transition word.
pub const STATE_MASK: u32 = OUTPUT_FLAG - 1;

/// A [`ReducedAutomaton`] compiled into flat, pointer-free parallel
/// arrays for scanning. Build once with [`CompiledAutomaton::compile`]
/// or [`CompiledAutomaton::compile_with_prefilter`], scan with
/// [`CompiledMatcher`].
#[derive(Debug, Clone)]
pub struct CompiledAutomaton {
    // --- stored transitions: CSR arena + dense escape hatch ---
    /// `states + 1` offsets into `keys`/`targets`.
    offsets: Vec<u32>,
    /// Transition bytes, row-major, byte-sorted within a row.
    keys: Vec<u8>,
    /// Transition targets, parallel to `keys`.
    targets: Vec<u32>,
    /// Per-state dense-row index, or [`NO_DENSE`].
    dense_of: Vec<u32>,
    /// Dense rows, 256 entries each; [`DENSE_MISS`] defers to the LUT.
    dense: Vec<u32>,
    /// `true` when any dense row exists. Hoisted out of the per-byte path:
    /// paper-config automata have none, and this flag (register-resident
    /// after the first load) lets their scan loop skip the per-state
    /// `dense_of` lookup entirely.
    has_dense: bool,

    // --- compiled default-transition table ---
    /// One interleaved row record per input byte value, `row_len` words
    /// each: `[d1, k₀, t₀, k₁, t₁, …]` — the depth-1 default followed by
    /// `d2_stride` then `d3_stride` (compare-key, target) pairs, padded
    /// with [`LUT_PAD`] keys. Depth-2 keys are the previous byte; depth-3
    /// keys are the packed pair `(prev2 << 8) | prev`. Interleaving keeps
    /// a whole row (11 words under the paper's `k2 = 4, k3 = 1`) on one
    /// or two cache lines — the software analogue of the hardware reading
    /// one LUT word per character.
    lut: Vec<u32>,
    /// Words per LUT row: `1 + 2 * (d2_stride + d3_stride)`.
    row_len: usize,
    /// Depth-2 slots per input byte.
    d2_stride: usize,
    /// Depth-3 slots per input byte.
    d3_stride: usize,

    // --- match outputs: CSR ---
    /// `states + 1` offsets into `out_patterns`.
    out_offsets: Vec<u32>,
    /// Flattened output lists, in pattern-id order per state.
    out_patterns: Vec<PatternId>,

    // --- clean-traffic fast lane ---
    /// Anchor-byte analysis enabling the SWAR skip lane (see
    /// [`AnchorSet`]); `None` when compiled without
    /// [`CompiledAutomaton::compile_with_prefilter`].
    prefilter: Option<AnchorSet>,

    // --- stride-2 fast lane ---
    /// Region pair rows making the anchor lane consume two bytes per
    /// test where it can (see [`PairTable`]); only ever `Some` beside
    /// `prefilter`.
    pairs: Option<PairTable>,
}

impl CompiledAutomaton {
    /// Flattens `reduced` into the compiled runtime representation.
    ///
    /// This is a pure layout transform: the compiled automaton is
    /// transition-for-transition identical to `reduced` (checked by the
    /// differential suites, and structurally by debug assertions here).
    pub fn compile(reduced: &ReducedAutomaton) -> CompiledAutomaton {
        let n = reduced.len();
        assert!(
            (n as u64) < (STATE_MASK as u64),
            "compiled automata cap at 2^31 - 2 states"
        );
        // Every stored target word carries the destination's accept bit.
        let tag = |t: StateId| -> u32 {
            t.0 | if reduced.output(t).is_empty() {
                0
            } else {
                OUTPUT_FLAG
            }
        };

        // Stored transitions → CSR, with dense escalation for wide rows.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut keys = Vec::new();
        let mut targets = Vec::new();
        let mut dense_of = vec![NO_DENSE; n];
        let mut dense: Vec<u32> = Vec::new();
        offsets.push(0u32);
        for s in reduced.state_ids() {
            let stored = reduced.stored(s);
            if stored.len() > DENSE_ROW_THRESHOLD {
                let row = dense.len();
                dense.resize(row + 256, DENSE_MISS);
                for &(b, t) in stored {
                    dense[row + b as usize] = tag(t);
                }
                dense_of[s.index()] = (row / 256) as u32;
            } else {
                debug_assert!(
                    stored.windows(2).all(|w| w[0].0 < w[1].0),
                    "stored rows must be byte-sorted"
                );
                for &(b, t) in stored {
                    keys.push(b);
                    targets.push(tag(t));
                }
            }
            offsets.push(keys.len() as u32);
        }

        // Default-transition table → interleaved sentinel-padded rows.
        // Strides come from the *configuration*, not the realized row
        // occupancy (which never exceeds it): a paper-config automaton
        // whose rows happen not to saturate still compiles to the (4, 1)
        // shape, so the stride-specialized steppers always apply to it —
        // padded slots cost one sentinel compare each.
        let source_lut = reduced.lut();
        let config = source_lut.config();
        let d2_stride = config.k2;
        let d3_stride = config.k3;
        debug_assert!(source_lut.iter().all(|(_, r)| r.depth2.len() <= d2_stride));
        debug_assert!(source_lut.iter().all(|(_, r)| r.depth3.len() <= d3_stride));
        let row_len = 1 + 2 * (d2_stride + d3_stride);
        let mut lut = vec![LUT_PAD; 256 * row_len];
        for (c, row) in source_lut.iter() {
            let base = c as usize * row_len;
            lut[base] = tag(row.depth1.unwrap_or(StateId::START));
            for (i, e) in row.depth2.iter().enumerate() {
                lut[base + 1 + 2 * i] = e.prev as u32;
                lut[base + 2 + 2 * i] = tag(e.target);
            }
            debug_assert!(
                {
                    let mut prevs: Vec<u8> = row.depth2.iter().map(|e| e.prev).collect();
                    prevs.sort_unstable();
                    prevs.windows(2).all(|w| w[0] != w[1])
                },
                "depth-2 compare keys must be distinct per row"
            );
            let d3_base = base + 1 + 2 * d2_stride;
            for (i, e) in row.depth3.iter().enumerate() {
                let [x, y] = e.prev2;
                lut[d3_base + 2 * i] = (x as u32) << 8 | y as u32;
                lut[d3_base + 1 + 2 * i] = tag(e.target);
            }
        }

        // Match outputs → CSR.
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_patterns = Vec::new();
        out_offsets.push(0u32);
        for s in reduced.state_ids() {
            out_patterns.extend_from_slice(reduced.output(s));
            out_offsets.push(out_patterns.len() as u32);
        }

        CompiledAutomaton {
            offsets,
            keys,
            targets,
            dense_of,
            has_dense: !dense.is_empty(),
            dense,
            lut,
            row_len,
            d2_stride,
            d3_stride,
            out_offsets,
            out_patterns,
            prefilter: None,
            pairs: None,
        }
    }

    /// [`CompiledAutomaton::compile`] plus the clean-traffic fast lanes:
    /// embeds the anchor-byte analysis, so matchers over this automaton
    /// run the SWAR skip lane (see [`AnchorSet`]), and optionally the
    /// region pair rows, which make that lane consume two bytes per test
    /// where it can (see [`PairTable`]). Pairs exist only beside
    /// anchors, so this is the one way to attach them; pass what
    /// [`PairTable::build`] returned.
    ///
    /// `anchors` and `pairs` must be built from the same DFA `reduced`
    /// was reduced from — the lane's shallow-state bitset indexes this
    /// automaton's state ids, and the pair rows quantify over that
    /// DFA's shallow region, so rows from another DFA would be
    /// unsound.
    ///
    /// # Panics
    ///
    /// Panics if `anchors` or `pairs` was derived from an automaton with
    /// a different state count.
    pub fn compile_with_prefilter(
        reduced: &ReducedAutomaton,
        anchors: AnchorSet,
        pairs: Option<PairTable>,
    ) -> CompiledAutomaton {
        assert_eq!(
            anchors.states(),
            reduced.len(),
            "anchor analysis belongs to a different automaton"
        );
        if let Some(p) = &pairs {
            assert_eq!(
                p.states(),
                reduced.len(),
                "pair table belongs to a different automaton"
            );
        }
        let mut compiled = Self::compile(reduced);
        compiled.prefilter = Some(anchors);
        compiled.pairs = pairs;
        compiled
    }

    /// The embedded anchor analysis, when compiled with the prefilter.
    pub fn prefilter(&self) -> Option<&AnchorSet> {
        self.prefilter.as_ref()
    }

    /// The embedded region pair rows: `Some` only when
    /// [`CompiledAutomaton::compile_with_prefilter`] was given a table.
    pub fn pairs(&self) -> Option<&PairTable> {
        self.pairs.as_ref()
    }

    /// Number of states (identical to the source automaton's).
    pub fn len(&self) -> usize {
        self.dense_of.len()
    }

    /// `true` if only the start state exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Number of states compiled to dense 256-entry rows.
    pub fn dense_states(&self) -> usize {
        self.dense.len() / 256
    }

    /// Total stored transition pointers (CSR plus dense entries).
    pub fn stored_pointers(&self) -> usize {
        self.keys.len() + self.dense.iter().filter(|&&t| t != DENSE_MISS).count()
    }

    /// Approximate resident size of the compiled arrays in bytes —
    /// the flat-memory footprint the scan loop actually touches.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.keys.len()
            + self.targets.len() * 4
            + self.dense_of.len() * 4
            + self.dense.len() * 4
            + self.lut.len() * 4
            + self.out_offsets.len() * 4
            + self.out_patterns.len() * 4
            + self.prefilter.as_ref().map_or(0, AnchorSet::memory_bytes)
            + self.pairs.as_ref().map_or(0, PairTable::memory_bytes)
    }

    /// Patterns recognized on entering `state`.
    #[inline]
    pub fn output(&self, state: u32) -> &[PatternId] {
        let lo = self.out_offsets[state as usize] as usize;
        let hi = self.out_offsets[state as usize + 1] as usize;
        &self.out_patterns[lo..hi]
    }

    /// Branch-free default-transition resolution, returning a **tagged**
    /// transition word (see [`OUTPUT_FLAG`]).
    ///
    /// `prev` is the previous input byte or [`HIST_NONE`]; `hist` is the
    /// packed pair `(prev2 << 8) | prev` of the previous two bytes (any
    /// invalid register makes the pack exceed 16 bits, so it cannot equal
    /// a stored depth-3 key — this *is* the paper's start-signal masking).
    /// Depth-2/3 compare keys are distinct within a row, so at most one
    /// slot per depth can hit; every slot is evaluated unconditionally and
    /// the hits are OR-combined (independent masked reductions rather than
    /// a serial select chain, mirroring the hardware's parallel
    /// comparators and keeping the dependency path short).
    #[inline(always)]
    pub fn resolve(&self, byte: u8, prev: u32, hist: u32) -> u32 {
        let base = byte as usize * self.row_len;
        let row = &self.lut[base..base + self.row_len];
        // Reverse-priority select chain: start from the depth-1 default,
        // let a depth-2 hit override it, then a depth-3 hit override
        // that. Keys are distinct per row, so at most one slot per depth
        // hits and evaluation order within a depth never matters.
        let mut t = row[0];
        let mut i = 1;
        for _ in 0..self.d2_stride {
            t = if row[i] == prev { row[i + 1] } else { t };
            i += 2;
        }
        for _ in 0..self.d3_stride {
            t = if row[i] == hist { row[i + 1] } else { t };
            i += 2;
        }
        t
    }

    /// [`CompiledAutomaton::resolve`] specialized to compile-time strides
    /// — the scan loops dispatch once per chunk to the
    /// monomorphized copy matching the automaton (the paper's
    /// `k2 = 4, k3 = 1` in practice), so the compare sweep fully unrolls
    /// with no dynamic trip counts or bounds checks.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `(K2, K3)` equal the automaton's strides.
    #[inline(always)]
    pub fn resolve_k<const K2: usize, const K3: usize>(
        &self,
        byte: u8,
        prev: u32,
        hist: u32,
    ) -> u32 {
        debug_assert_eq!((self.d2_stride, self.d3_stride), (K2, K3));
        let row_len = 1 + 2 * (K2 + K3);
        let base = byte as usize * row_len;
        let row = &self.lut[base..base + row_len];
        let mut t = row[0];
        let mut i = 1;
        for _ in 0..K2 {
            t = if row[i] == prev { row[i + 1] } else { t };
            i += 2;
        }
        for _ in 0..K3 {
            t = if row[i] == hist { row[i + 1] } else { t };
            i += 2;
        }
        t
    }

    /// One transition step: stored pointers (CSR linear sweep or dense
    /// row) overriding the compiled default resolution. `state` is a
    /// plain index; the return is a **tagged** transition word (see
    /// [`OUTPUT_FLAG`]).
    ///
    /// The default resolution depends only on the *input* registers
    /// (`byte`, `prev`, `hist`), never on `state` — so it is computed
    /// unconditionally and overridden by a stored-pointer hit, rather
    /// than guarded behind the row scan. That keeps it off the
    /// byte-to-byte critical path (the serial dependency through `state`
    /// is just row-load → compare → select), which is where a software
    /// scan loop loses its cycle-per-byte — the same reason the hardware
    /// runs its LUT lookup in parallel with the state-memory read.
    #[inline(always)]
    pub fn step(&self, state: u32, byte: u8, prev: u32, hist: u32) -> u32 {
        let s = state as usize;
        if self.has_dense {
            let row = self.dense_of[s];
            if row != NO_DENSE {
                let t = self.dense[((row as usize) << 8) | byte as usize];
                if t != DENSE_MISS {
                    return t;
                }
                return self.resolve(byte, prev, hist);
            }
        }
        let lo = self.offsets[s] as usize;
        let hi = self.offsets[s + 1] as usize;
        for i in lo..hi {
            if self.keys[i] == byte {
                return self.targets[i];
            }
        }
        self.resolve(byte, prev, hist)
    }

    /// [`CompiledAutomaton::step`] with compile-time LUT strides; see
    /// [`CompiledAutomaton::resolve_k`].
    #[inline(always)]
    pub fn step_k<const K2: usize, const K3: usize>(
        &self,
        state: u32,
        byte: u8,
        prev: u32,
        hist: u32,
    ) -> u32 {
        let s = state as usize;
        if self.has_dense {
            let row = self.dense_of[s];
            if row != NO_DENSE {
                let t = self.dense[((row as usize) << 8) | byte as usize];
                if t != DENSE_MISS {
                    return t;
                }
                return self.resolve_k::<K2, K3>(byte, prev, hist);
            }
        }
        let lo = self.offsets[s] as usize;
        let hi = self.offsets[s + 1] as usize;
        for i in lo..hi {
            if self.keys[i] == byte {
                return self.targets[i];
            }
        }
        self.resolve_k::<K2, K3>(byte, prev, hist)
    }
}

/// One packet's scan registers: current state plus the two history bytes
/// (the Figure 5 engine registers, with [`HIST_NONE`] standing in for the
/// start signal's "register not yet valid").
#[derive(Debug, Clone, Copy)]
struct ScanRegs {
    state: u32,
    prev: u32,
    prev2: u32,
}

impl ScanRegs {
    #[inline(always)]
    fn start() -> ScanRegs {
        ScanRegs {
            state: StateId::START.0,
            prev: HIST_NONE,
            prev2: HIST_NONE,
        }
    }

    /// Loads the registers from a suspended [`ScanState`] — the
    /// `Option<u8>` history becomes the branch-free [`HIST_NONE`]
    /// encoding once per chunk, so the per-byte hot loop is identical to
    /// the payload-at-once one.
    #[inline(always)]
    fn from_state(state: &ScanState) -> ScanRegs {
        ScanRegs {
            state: state.state.0,
            prev: state.prev.map_or(HIST_NONE, u32::from),
            prev2: state.prev2.map_or(HIST_NONE, u32::from),
        }
    }

    /// Suspends the registers back into `state` after consuming
    /// `consumed` bytes. Stored history bytes are the *case-folded*
    /// stream bytes — the same convention the reference matchers keep,
    /// so a state is resumable across implementations.
    #[inline(always)]
    fn store(self, state: &mut ScanState, consumed: usize) {
        state.state = StateId(self.state);
        state.prev = (self.prev != HIST_NONE).then_some(self.prev as u8);
        state.prev2 = (self.prev2 != HIST_NONE).then_some(self.prev2 as u8);
        state.offset += consumed as u64;
    }

    /// Advances over one (already case-folded) byte, returning the
    /// **tagged** transition word: bits 0..31 the new state, bit 31 set
    /// iff the new state accepts (see [`OUTPUT_FLAG`]).
    #[inline(always)]
    fn advance(&mut self, automaton: &CompiledAutomaton, byte: u8) -> u32 {
        self.advance_with(automaton, byte, CompiledAutomaton::step)
    }

    /// [`ScanRegs::advance`] through a caller-chosen stepper (one of the
    /// monomorphized [`CompiledAutomaton::step_k`] copies, selected once
    /// per scan by [`dispatch_stepper!`]).
    #[inline(always)]
    fn advance_with(
        &mut self,
        automaton: &CompiledAutomaton,
        byte: u8,
        step: impl Fn(&CompiledAutomaton, u32, u8, u32, u32) -> u32,
    ) -> u32 {
        let hist = (self.prev2 << 8) | self.prev;
        let tagged = step(automaton, self.state, byte, self.prev, hist);
        self.state = tagged & STATE_MASK;
        self.prev2 = self.prev;
        self.prev = byte as u32;
        tagged
    }
}

/// Selects, once per scan, the stepper monomorphized for the automaton's
/// LUT strides and runs `$body` with it bound to `$step` (an inlineable
/// fn item, not a function pointer — each arm compiles its own copy of
/// the loop). Falls back to the stride-generic [`CompiledAutomaton::step`]
/// for unusual configurations.
macro_rules! dispatch_stepper {
    ($automaton:expr, $step:ident => $body:block) => {
        match ($automaton.d2_stride, $automaton.d3_stride) {
            // The paper's configuration (k2 = 4, k3 = 1) and the Figure 2
            // ablation shapes; anything else takes the generic path.
            (4, 1) => {
                #[inline(always)]
                fn $step(a: &CompiledAutomaton, s: u32, b: u8, p: u32, h: u32) -> u32 {
                    a.step_k::<4, 1>(s, b, p, h)
                }
                $body
            }
            (4, 0) => {
                #[inline(always)]
                fn $step(a: &CompiledAutomaton, s: u32, b: u8, p: u32, h: u32) -> u32 {
                    a.step_k::<4, 0>(s, b, p, h)
                }
                $body
            }
            (0, 0) => {
                #[inline(always)]
                fn $step(a: &CompiledAutomaton, s: u32, b: u8, p: u32, h: u32) -> u32 {
                    a.step_k::<0, 0>(s, b, p, h)
                }
                $body
            }
            _ => {
                #[inline(always)]
                fn $step(a: &CompiledAutomaton, s: u32, b: u8, p: u32, h: u32) -> u32 {
                    a.step(s, b, p, h)
                }
                $body
            }
        }
    };
}

/// Allocation-free scanner over a [`CompiledAutomaton`] — the production
/// software fast path.
///
/// # Examples
///
/// ```
/// use dpi_automaton::{Dfa, MultiMatcher, PatternSet};
/// use dpi_core::{CompiledAutomaton, CompiledMatcher, DtpConfig, ReducedAutomaton};
///
/// let set = PatternSet::new(["he", "she", "his", "hers"])?;
/// let dfa = Dfa::build(&set);
/// let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
/// let compiled = CompiledAutomaton::compile(&reduced);
/// let matcher = CompiledMatcher::new(&compiled, &set);
///
/// let mut matches = Vec::new(); // reused across packets — no per-scan allocation
/// matcher.scan_into(b"ushers", &mut matches);
/// assert_eq!(matches.len(), 3);
/// # Ok::<(), dpi_automaton::PatternSetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledMatcher<'a> {
    automaton: &'a CompiledAutomaton,
    set: &'a PatternSet,
    /// Precompiled case-fold table (identity for case-sensitive sets) —
    /// one unconditional load per byte instead of a per-byte branch.
    fold: [u8; 256],
    /// Detection witness for the SIMD danger-walk kernels (`Some` by
    /// default when the CPU qualifies; see
    /// [`CompiledMatcher::with_simd`]). Absent entirely in portable
    /// builds, so the safe lanes carry no flag check.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    simd: Option<SimdToken>,
}

impl<'a> CompiledMatcher<'a> {
    /// Creates a matcher borrowing the compiled automaton and pattern
    /// set. The lanes it runs are the ones the automaton carries (see
    /// the module docs).
    pub fn new(automaton: &'a CompiledAutomaton, set: &'a PatternSet) -> Self {
        Self::with_shared_fold(automaton, set, Self::fold_table(set))
    }

    /// `set`'s case-fold table, for callers that keep one to pass to
    /// [`CompiledMatcher::with_shared_fold`].
    pub(crate) fn fold_table(set: &PatternSet) -> [u8; 256] {
        let mut fold = [0u8; 256];
        for (b, slot) in fold.iter_mut().enumerate() {
            *slot = set.fold(b as u8);
        }
        fold
    }

    /// Shares one precomputed fold table instead of rebuilding it — used
    /// by the sharded scanner and [`ScopedRuleset`], which would
    /// otherwise pay 256 table writes per shard or lane per packet on
    /// short-flow workloads.
    ///
    /// [`ScopedRuleset`]: crate::protocol::ScopedRuleset
    pub(crate) fn with_shared_fold(
        automaton: &'a CompiledAutomaton,
        set: &'a PatternSet,
        fold: [u8; 256],
    ) -> Self {
        CompiledMatcher {
            automaton,
            set,
            fold,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            simd: SimdToken::detect(),
        }
    }

    /// Enables or disables the SIMD danger-walk kernels (16/32-byte
    /// shuffle probes in the anchor lane) for subsequent scans. On by
    /// default when the crate was built with the `simd` feature on
    /// x86_64 **and** the CPU supports SSSE3; everywhere else (portable
    /// builds, non-x86 CPUs) this is a no-op and the safe scalar lanes
    /// run — observable results are byte-identical either way (pinned
    /// by `tests/simd.rs`, which diffs the unsafe kernels against the
    /// scalar lane this switch selects).
    pub fn with_simd(self, enabled: bool) -> Self {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            let mut m = self;
            m.simd = if enabled { SimdToken::detect() } else { None };
            m
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        {
            let _ = enabled;
            self
        }
    }

    /// Whether the SIMD kernels are active (always `false` in portable
    /// builds and on CPUs without SSSE3).
    pub fn simd(&self) -> bool {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            self.simd.is_some()
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        {
            false
        }
    }

    /// The compiled automaton this matcher scans over.
    pub fn automaton(&self) -> &'a CompiledAutomaton {
        self.automaton
    }

    /// The pattern set whose ids this matcher reports.
    pub fn set(&self) -> &'a PatternSet {
        self.set
    }

    /// The plain resumable core — the byte stepper an automaton compiled
    /// without anchors runs, and the reference every lane is tested
    /// against: advances `regs` over `chunk`, reporting match ends
    /// relative to `base` (the flow bytes consumed before this chunk).
    /// The stride-specialized stepper dispatch happens exactly once per
    /// chunk.
    #[inline(always)]
    fn scan_chunk_plain(
        &self,
        regs: &mut ScanRegs,
        base: usize,
        chunk: &[u8],
        mut on_match: impl FnMut(usize, PatternId),
    ) {
        let a = self.automaton;
        dispatch_stepper!(a, step => {{
            for (i, &raw) in chunk.iter().enumerate() {
                let tagged = regs.advance_with(a, self.fold[raw as usize], step);
                if tagged & OUTPUT_FLAG != 0 {
                    for &p in a.output(tagged & STATE_MASK) {
                        on_match(base + i + 1, p);
                    }
                }
            }
        }});
    }

    /// Advances `regs` through the anchor-byte fast lane starting at
    /// byte `i0` of `chunk`, returning the first position the lane
    /// cannot consume (a danger byte whose step may leave the shallow
    /// region or accept) or `chunk.len()`.
    ///
    /// The lane maintains **no per-byte registers at all** — that is the
    /// whole speedup. Its soundness rests on two facts (pinned by
    /// `tests/prefilter.rs`):
    ///
    /// - every lane-consumed byte provably keeps the automaton in the
    ///   shallow region with nothing to report, so the state after any
    ///   prefix of the lane is implied by its last byte alone
    ///   ([`AnchorSet::depth1_state`], per the longest-suffix invariant);
    /// - the danger test for a byte needs only its immediate
    ///   predecessor, which sits *in the buffer* (or, at the lane entry
    ///   boundary, in the suspended `prev` register) — the DTP history
    ///   registers are dead at every skip point and are rebuilt exactly
    ///   from the buffer tail before the lane returns.
    ///
    /// Mechanics — the lane alternates two phases and self-tunes their
    /// mix to the traffic:
    ///
    /// - **SWAR window phase**: 8 bytes per iteration via one
    ///   little-endian `u64` window load, each byte's skip-classification
    ///   folded branch-free into a candidate mask
    ///   ([`AnchorSet::candidate_mask`]); fully-skippable windows advance
    ///   wholesale, and a marked window jumps (trailing zeros) to its
    ///   first candidate;
    /// - **danger-walk phase**: per-byte danger-table test with a
    ///   register-carried predecessor — the exact check, ~6 predictable
    ///   µops per byte.
    ///
    /// Which phase pays is a property of the *traffic*, not just the
    /// automaton: protocol text keeps candidate density high (windows
    /// are never clean — the probe is pure overhead), while binary
    /// payload regions against modest rulesets are nearly all skippable
    /// (windows consume 8 bytes for ~the cost the walk pays per 2).
    /// So the lane walks [`LANE_PROBE_MIN`] bytes after a failed window
    /// probe, doubling up to [`LANE_PROBE_MAX`] while probes keep
    /// failing, and drops straight back to window mode the moment one
    /// succeeds — window speed on skippable runs, walk speed under
    /// candidate saturation, probe cost amortized to noise in between
    /// (measured: the adaptive lane tracks the better pure shape within
    /// a few percent on clean, binary and chatter traffic at every
    /// ruleset size).
    ///
    /// The caller classifies the exit byte with [`AnchorSet::is_soft`]:
    /// a soft exit (shallow accept — single-byte patterns) is consumed
    /// caller-side and the lane re-entered; only hard exits wake the
    /// stepper.
    /// `run` is the lane's adaptation state, owned by the caller so it
    /// persists across lane re-entries within one chunk (soft exits and
    /// short stepper excursions would otherwise reset it every few
    /// bytes): `0` = window mode; otherwise the walk-run length before
    /// the next probe.
    ///
    /// With `PAIRS` (a [`PairTable`] riding along), the same phases
    /// consume two bytes per test where they can: the window criterion
    /// becomes four aligned calm-pair bits
    /// ([`CompiledMatcher::calm_lead`] — strictly more permissive than
    /// the skip bitmap), the walk consumes a non-danger byte's
    /// successor whenever the exact follow row allows
    /// ([`PairTable::is_follow_calm`], ~97 % biased), and a danger hit
    /// whose two-step outcome is universally calm
    /// ([`PairTable::is_calm`]) is consumed in-walk instead of
    /// exiting. Exit semantics, register rebuilding and the `run`
    /// contract are unchanged.
    ///
    /// With `SIMD` (a detection token rode in via
    /// [`CompiledMatcher::with_simd`]) and a profitable danger cover
    /// ([`AnchorSet::simd_danger`]), the call routes to
    /// [`CompiledMatcher::lane_advance_simd`]: the window/walk
    /// alternation is replaced by one nibble-box cover walk that tests
    /// 16/32 `(prev, byte)` danger keys per shuffle probe, consuming
    /// unflagged bytes on exactly the evidence the scalar walk's
    /// per-byte danger test would have used and settling flagged ones
    /// with the exact bitmap (PAIRS adds the same calm-pair rescue to
    /// true hits). Exit semantics and the register rebuild are shared,
    /// so the lanes differ only in how fast they consume provably-inert
    /// bytes (pinned by `tests/simd.rs`); rule sets whose cover is too
    /// dense to profit fall through to the scalar lane below.
    #[inline(always)]
    fn lane_advance<const PAIRS: bool, const SIMD: bool>(
        &self,
        pf: &AnchorSet,
        pt: Option<&PairTable>,
        regs: &mut ScanRegs,
        chunk: &[u8],
        i0: usize,
        run: &mut usize,
    ) -> usize {
        debug_assert!(pf.contains_state(regs.state), "lane entered off-region");
        if SIMD {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            {
                if pf.simd_danger().is_some() {
                    let tok = self.simd.expect("SIMD lane without token");
                    // The dispatch frame compiles the whole lane call
                    // with the detected features enabled, so the probe
                    // kernels inline and their shuffle tables load once
                    // per lane entry, not once per probe run.
                    return tok.dispatch(|| {
                        self.lane_advance_simd::<PAIRS>(pf, pt, regs, chunk, i0, run)
                    });
                }
                // No profitable cover for this rule set: the scalar
                // lane below is the fast path.
            }
        }
        let len = chunk.len();
        let entry_prev = regs.prev;
        let mut i = i0;
        let exit = 'lane: {
            loop {
                if *run == 0 {
                    // Window mode: consume provably-inert 8-byte
                    // windows; a marked window jumps to its first
                    // trouble spot and opens a short walk run. With the
                    // pair layer the window criterion is four aligned
                    // region-pair bits (strictly more permissive than
                    // the skip bitmap: calm pairs cover candidate bytes
                    // whose two-step outcome stays in the region, which
                    // on binary payload regions succeeds where all-8
                    // skippable windows almost never do); without it,
                    // the SWAR candidate mask.
                    if PAIRS {
                        let pt = pt.expect("PAIRS implies a table");
                        while *run == 0 && i + 8 <= len {
                            let lead = Self::calm_lead(pt, &chunk[i..i + 8]);
                            if lead < 4 {
                                i += 2 * lead;
                                *run = LANE_PROBE_MIN;
                                break;
                            }
                            i += 8;
                        }
                    } else {
                        while *run == 0 && i + 8 <= len {
                            let w = u64::from_le_bytes(
                                chunk[i..i + 8].try_into().expect("8-byte window"),
                            );
                            let m = pf.candidate_mask(w);
                            if m != 0 {
                                i += m.trailing_zeros() as usize;
                                *run = LANE_PROBE_MIN;
                                break;
                            }
                            i += 8;
                        }
                    }
                    if *run == 0 {
                        // No window left: walk the sub-window tail.
                        *run = 8;
                    }
                    if i >= len {
                        break 'lane len;
                    }
                }
                // Walk phase: exact per-byte danger tests for the next
                // `run` bytes. Raw buffer bytes and the suspended
                // (folded) entry register index the same danger rows —
                // fold is idempotent and baked into both axes.
                let stop = (i + *run).min(len);
                let mut prev = if i > i0 { chunk[i - 1] as u32 } else { entry_prev };
                if PAIRS {
                    // The walk itself is byte-for-byte the pairs-off
                    // walk (its danger branch is ~97 % biased, so it
                    // predicts well on any traffic — measured, a
                    // per-pair calm test on the common path loses its
                    // gains to mispredicts the moment the payload mixes
                    // entropies). The pair layer acts only on the rare
                    // danger hit: one calm bit decides whether the hit
                    // and its successor provably return to the region
                    // with nothing to report, in which case the walk
                    // continues two bytes later and the whole
                    // exit/rebuild/stepper-wake round trip (~17k/MiB on
                    // the infected repro workload, two thirds calm)
                    // never happens.
                    let pt = pt.expect("PAIRS implies a table");
                    while i < stop {
                        let c = chunk[i];
                        if pf.is_danger(prev, c) {
                            if i + 2 <= len && pt.is_calm(c, chunk[i + 1]) {
                                prev = chunk[i + 1] as u32;
                                i += 2;
                                continue;
                            }
                            break 'lane i;
                        }
                        // Non-danger byte: the follow row decides — at
                        // ~97 % bias — whether its successor rides
                        // along, so the common path consumes two bytes
                        // per iteration with the same two predictable
                        // branches the pairs-off walk pays per one.
                        if i + 2 <= len && pt.is_follow_calm(c, chunk[i + 1]) {
                            prev = chunk[i + 1] as u32;
                            i += 2;
                            continue;
                        }
                        prev = c as u32;
                        i += 1;
                    }
                } else {
                    while i < stop {
                        let c = chunk[i];
                        if pf.is_danger(prev, c) {
                            break 'lane i;
                        }
                        prev = c as u32;
                        i += 1;
                    }
                }
                if i >= len {
                    break 'lane len;
                }
                // Run completed without an exit: one probe decides —
                // clean window → back to window mode; dirty → keep
                // walking, twice as far before the next probe.
                if i + 8 <= len {
                    if PAIRS {
                        let pt = pt.expect("PAIRS implies a table");
                        let lead = Self::calm_lead(pt, &chunk[i..i + 8]);
                        if lead == 4 {
                            i += 8;
                            *run = 0;
                            continue;
                        }
                        i += 2 * lead;
                    } else {
                        let w = u64::from_le_bytes(
                            chunk[i..i + 8].try_into().expect("8-byte window"),
                        );
                        let m = pf.candidate_mask(w);
                        if m == 0 {
                            i += 8;
                            *run = 0;
                            continue;
                        }
                        i += m.trailing_zeros() as usize;
                    }
                }
                *run = (*run * 2).min(LANE_PROBE_MAX);
            }
        };
        self.rebuild_lane_regs(pf, regs, chunk, i0, exit, entry_prev);
        exit
    }

    /// The vector lane: [`CompiledMatcher::lane_advance`] with the
    /// window/walk alternation replaced by one
    /// [`SimdToken::danger_scan`] loop over the danger-relation nibble-
    /// box cover.
    ///
    /// Measurement forced this shape (see `crates/automaton/src/simd.rs`
    /// and the `sw-throughput-simd` repro rows): on the repro traffic
    /// *no* 8/16/32-byte window is fully skippable — the scalar lane's
    /// whole budget is the per-byte `danger[prev << 8 | c]` walk, so
    /// vectorizing window classification (the candidate membership mask,
    /// the pair-calm conjunction) measured at parity or worse. The cover
    /// probe vectorizes the walk itself: 16/32 danger tests per probe,
    /// where an unflagged byte is consumed on exactly the evidence the
    /// scalar walk would have used (the cover is one-sided: unflagged ⇒
    /// the `(prev, byte)` danger bit is clear), a flagged byte gets the
    /// exact bitmap probe, and only a *true* danger hit exits the lane —
    /// a false flag costs one load, never an exit/rebuild round trip.
    ///
    /// Composition with the surrounding machinery is unchanged from the
    /// scalar lane: the entry byte is settled with the exact bit against
    /// the *suspended register* (possibly [`HIST_NONE`] after a resume
    /// or a reassembly hole-skip reset — a key the cover does not
    /// carry), sub-width tails fall back to the scalar walk, the PAIRS
    /// variant applies the same calm-pair rescue to true hits, and the
    /// exit register rebuild is shared. When the rule set was too dense
    /// for a profitable cover ([`AnchorSet::simd_danger`] is `None`) the
    /// scalar lane runs unchanged.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[inline(always)]
    fn lane_advance_simd<const PAIRS: bool>(
        &self,
        pf: &AnchorSet,
        pt: Option<&PairTable>,
        regs: &mut ScanRegs,
        chunk: &[u8],
        i0: usize,
        run: &mut usize,
    ) -> usize {
        let Some(cover) = pf.simd_danger() else {
            return self.lane_advance::<PAIRS, false>(pf, pt, regs, chunk, i0, run);
        };
        let tok = self.simd.expect("SIMD lane without token");
        let width = tok.scan_width();
        let len = chunk.len();
        let entry_prev = regs.prev;
        let mut i = i0;
        let exit = 'lane: {
            // Entry byte: its predecessor is the suspended register
            // (fold-idempotent, possibly HIST_NONE) — settle exactly.
            if i < len {
                let c = chunk[i];
                if pf.is_danger(entry_prev, c) {
                    if PAIRS {
                        let pt = pt.expect("PAIRS implies a table");
                        if i + 2 <= len && pt.is_calm(c, chunk[i + 1]) {
                            i += 2;
                        } else {
                            break 'lane i;
                        }
                    } else {
                        break 'lane i;
                    }
                } else {
                    i += 1;
                }
            }
            // Vector walk: every probed byte's predecessor is in the
            // buffer (i ≥ 1 holds from here on).
            while i + width <= len {
                let (base, mut flags) = tok.danger_scan(cover, chunk, i);
                if flags == 0 {
                    // Clear through the tail window boundary.
                    i = base;
                    break;
                }
                // Where the walk resumes after this window's flags are
                // settled; a rescue whose pair straddles the window end
                // pushes it one byte further.
                let mut next = base + width;
                while flags != 0 {
                    let j = base + flags.trailing_zeros() as usize;
                    flags &= flags - 1;
                    if pf.is_danger(chunk[j - 1] as u32, chunk[j]) {
                        if PAIRS {
                            let pt = pt.expect("PAIRS implies a table");
                            if j + 2 <= len && pt.is_calm(chunk[j], chunk[j + 1]) {
                                // Calm-pair rescue: j+1 is consumed with
                                // j, so its flag (if any) is spent.
                                let spent = j + 1 - base;
                                if spent < width {
                                    flags &= !(1u32 << spent);
                                } else {
                                    // The pair straddles the window: the
                                    // scalar walk's `i += 2` lands past
                                    // `base + width`, so the next probe
                                    // must too — re-testing the consumed
                                    // second byte could exit the lane
                                    // *between* the pair's bytes, where
                                    // is_calm guarantees nothing and the
                                    // register rebuild would diverge.
                                    next = j + 2;
                                }
                                continue;
                            }
                        }
                        break 'lane j;
                    }
                }
                i = next;
            }
            // Scalar tail (and the no-cover walk for short chunks).
            let mut prev = if i > i0 { chunk[i - 1] as u32 } else { entry_prev };
            while i < len {
                let c = chunk[i];
                if pf.is_danger(prev, c) {
                    if PAIRS {
                        let pt = pt.expect("PAIRS implies a table");
                        if i + 2 <= len && pt.is_calm(c, chunk[i + 1]) {
                            prev = chunk[i + 1] as u32;
                            i += 2;
                            continue;
                        }
                    }
                    break 'lane i;
                }
                prev = c as u32;
                i += 1;
            }
            len
        };
        self.rebuild_lane_regs(pf, regs, chunk, i0, exit, entry_prev);
        exit
    }

    /// Rebuilds the registers the plain scan would hold after the lane
    /// consumed `chunk[i0..exit]`: history from the buffer tail
    /// (shifting in the suspended registers at the boundary), state
    /// from the history — for horizons ≤ 1 a depth-1 map lookup; for
    /// horizon 2 a two-byte replay from the start state under
    /// start-signal masking (the state may sit at depth 2, and the
    /// longest-suffix invariant says replaying the last two bytes
    /// reproduces any region state exactly; every replayed state is
    /// lane-cleared, so there is nothing to emit). Shared by
    /// [`CompiledMatcher::lane_advance`] and
    /// [`CompiledMatcher::lane_advance_simd`].
    #[inline(always)]
    fn rebuild_lane_regs(
        &self,
        pf: &AnchorSet,
        regs: &mut ScanRegs,
        chunk: &[u8],
        i0: usize,
        exit: usize,
        entry_prev: u32,
    ) {
        if exit > i0 {
            regs.prev2 = if exit - i0 >= 2 {
                self.fold[chunk[exit - 2] as usize] as u32
            } else {
                entry_prev
            };
            regs.prev = self.fold[chunk[exit - 1] as usize] as u32;
            regs.state = if pf.horizon() >= 2 {
                let mut s = StateId::START.0;
                let mut p = HIST_NONE;
                if regs.prev2 != HIST_NONE {
                    // hist pack exceeds 16 bits: depth-3 defaults masked.
                    s = self
                        .automaton
                        .step(s, regs.prev2 as u8, HIST_NONE, (HIST_NONE << 8) | HIST_NONE)
                        & STATE_MASK;
                    p = regs.prev2;
                }
                self.automaton
                    .step(s, regs.prev as u8, p, (HIST_NONE << 8) | p)
                    & STATE_MASK
            } else {
                pf.depth1_state(chunk[exit - 1])
            };
        }
    }

    /// The skip-lane variant of the resumable core: alternates between
    /// [`CompiledMatcher::lane_advance`] (state in the shallow region —
    /// the overwhelmingly common case on clean traffic) and the exact
    /// stride-specialized stepper (which re-enters the lane as soon as
    /// the state falls back into the region). Observable behaviour is
    /// byte-identical to the plain core. `PAIRS` (with `pt` the
    /// automaton's [`PairTable`]) only changes how the lane consumes
    /// bytes; exits, soft accepts and the stepper are shared. History
    /// registers after a consumed pair are the pair's own folded bytes,
    /// so suspend/resume at odd stream offsets needs no alignment
    /// (pinned by `tests/streaming.rs`).
    #[inline(always)]
    fn scan_chunk_prefilter<const PAIRS: bool, const SIMD: bool>(
        &self,
        pf: &AnchorSet,
        pt: Option<&PairTable>,
        regs: &mut ScanRegs,
        base: usize,
        chunk: &[u8],
        mut on_match: impl FnMut(usize, PatternId),
    ) {
        let a = self.automaton;
        let len = chunk.len();
        let mut i = 0usize;
        let mut run = 0usize;
        dispatch_stepper!(a, step => {{
            'scan: while i < len {
                if pf.contains_state(regs.state) {
                    i = self.lane_advance::<PAIRS, SIMD>(pf, pt, regs, chunk, i, &mut run);
                    if i >= len {
                        break 'scan;
                    }
                    // Soft exit: a shallow accept (single-byte pattern).
                    // Land on the depth-1 state, emit its outputs, and
                    // re-enter the lane — no stepper wake-up. `regs`
                    // were rebuilt by the lane, so `regs.prev` is the
                    // true predecessor of the exit byte.
                    let c = chunk[i];
                    if pf.is_soft(regs.prev, c) {
                        let landed = pf.depth1_state(c);
                        for &p in a.output(landed) {
                            on_match(base + i + 1, p);
                        }
                        regs.state = landed;
                        regs.prev2 = regs.prev;
                        regs.prev = self.fold[c as usize] as u32;
                        i += 1;
                        continue 'scan;
                    }
                }
                while i < len {
                    let tagged = regs.advance_with(a, self.fold[chunk[i] as usize], step);
                    i += 1;
                    if tagged & OUTPUT_FLAG != 0 {
                        for &p in a.output(tagged & STATE_MASK) {
                            on_match(base + i, p);
                        }
                    }
                    if pf.contains_state(regs.state) {
                        continue 'scan;
                    }
                }
            }
        }});
    }

    /// Number of leading calm-aligned pairs in an 8-byte window
    /// (0..=4): the stride-2 window probe. The four bit tests are
    /// independent loads (full ILP), folded into one mask so the
    /// window decision costs a single branch.
    #[inline(always)]
    fn calm_lead(pt: &PairTable, w: &[u8]) -> usize {
        let m = pt.is_calm(w[0], w[1]) as u32
            | (pt.is_calm(w[2], w[3]) as u32) << 1
            | (pt.is_calm(w[4], w[5]) as u32) << 2
            | (pt.is_calm(w[6], w[7]) as u32) << 3;
        (!m).trailing_zeros() as usize
    }

    /// One branch on what the automaton carries, then into the matching
    /// monomorphized resumable core: the plain byte stepper without
    /// anchors, and the anchor lane with them — stride-2 when region
    /// pair rows ride along (the builder attaches them only where they
    /// measured worth it), vector or scalar per the matcher's switch.
    #[inline(always)]
    fn scan_chunk_impl(
        &self,
        regs: &mut ScanRegs,
        base: usize,
        chunk: &[u8],
        on_match: impl FnMut(usize, PatternId),
    ) {
        let a = self.automaton;
        let Some(pf) = a.prefilter() else {
            return self.scan_chunk_plain(regs, base, chunk, on_match);
        };
        let pt = a.pairs();
        match (pt.is_some(), self.simd()) {
            (true, true) => {
                self.scan_chunk_prefilter::<true, true>(pf, pt, regs, base, chunk, on_match)
            }
            (true, false) => {
                self.scan_chunk_prefilter::<true, false>(pf, pt, regs, base, chunk, on_match)
            }
            (false, true) => {
                self.scan_chunk_prefilter::<false, true>(pf, pt, regs, base, chunk, on_match)
            }
            (false, false) => {
                self.scan_chunk_prefilter::<false, false>(pf, pt, regs, base, chunk, on_match)
            }
        }
    }

    /// Whole-payload scan: a fresh flow consumed in one chunk.
    #[inline(always)]
    fn scan_impl(&self, packet: &[u8], on_match: impl FnMut(usize, PatternId)) {
        let mut regs = ScanRegs::start();
        self.scan_chunk_impl(&mut regs, 0, packet, on_match);
    }

    /// Resumable scan: consumes `chunk` from `state`, **appending** every
    /// occurrence to `out` with stream-absolute `end` offsets, and leaves
    /// `state` suspended ready for the flow's next chunk. Splitting a
    /// payload at arbitrary boundaries and feeding the chunks in order
    /// produces exactly the matches of [`CompiledMatcher::scan_into`] on
    /// the whole payload — including occurrences and DTP history spanning
    /// the boundaries (pinned by `tests/streaming.rs`).
    ///
    /// # Examples
    ///
    /// ```
    /// use dpi_automaton::{Dfa, PatternSet, ScanState};
    /// use dpi_core::{CompiledAutomaton, CompiledMatcher, DtpConfig, ReducedAutomaton};
    ///
    /// let set = PatternSet::new(["hers"])?;
    /// let reduced = ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER);
    /// let compiled = CompiledAutomaton::compile(&reduced);
    /// let matcher = CompiledMatcher::new(&compiled, &set);
    ///
    /// // "hers" split mid-pattern across two segments.
    /// let mut flow = ScanState::fresh();
    /// let mut matches = Vec::new();
    /// matcher.scan_chunk_into(&mut flow, b"usahe", &mut matches);
    /// matcher.scan_chunk_into(&mut flow, b"rs", &mut matches);
    /// assert_eq!(matches.len(), 1);
    /// assert_eq!(matches[0].end, 7); // stream-absolute
    /// # Ok::<(), dpi_automaton::PatternSetError>(())
    /// ```
    pub fn scan_chunk_into(&self, state: &mut ScanState, chunk: &[u8], out: &mut Vec<Match>) {
        self.for_each_match_chunk(state, chunk, |m| out.push(m));
    }

    /// [`CompiledMatcher::scan_chunk_into`] in visitor form: zero
    /// buffering for pipelines that stream matches out as flows advance.
    pub fn for_each_match_chunk(
        &self,
        state: &mut ScanState,
        chunk: &[u8],
        mut visitor: impl FnMut(Match),
    ) {
        let mut regs = ScanRegs::from_state(state);
        let base = state.offset as usize;
        self.scan_chunk_impl(&mut regs, base, chunk, |end, pattern| {
            visitor(Match { end, pattern })
        });
        regs.store(state, chunk.len());
    }

    /// Scans `packet`, appending every occurrence to `out` in canonical
    /// `(end, pattern)` order. `out` is cleared first; reusing one buffer
    /// across packets makes the scan path allocation-free.
    pub fn scan_into(&self, packet: &[u8], out: &mut Vec<Match>) {
        out.clear();
        self.scan_impl(packet, |end, pattern| out.push(Match { end, pattern }));
    }

    /// Scans `packet`, invoking `visitor` for every occurrence in
    /// canonical order — zero buffering, for pipelines that stream
    /// matches (alert sinks, counters, samplers).
    pub fn for_each_match(&self, packet: &[u8], mut visitor: impl FnMut(Match)) {
        self.scan_impl(packet, |end, pattern| visitor(Match { end, pattern }));
    }

    /// Number of occurrences in `packet` without materializing them.
    pub fn count(&self, packet: &[u8]) -> usize {
        let mut total = 0usize;
        self.scan_impl(packet, |_, _| total += 1);
        total
    }

    /// Scans one packet, returning matches and the per-byte state trace —
    /// the differential-test entry point mirroring
    /// [`DtpMatcher::scan_with_trace`](crate::DtpMatcher::scan_with_trace).
    pub fn scan_with_trace(&self, packet: &[u8]) -> (Vec<Match>, Vec<StateId>) {
        let mut matches = Vec::new();
        let mut trace = Vec::with_capacity(packet.len());
        let a = self.automaton;
        let mut regs = ScanRegs::start();
        for (i, &raw) in packet.iter().enumerate() {
            let tagged = regs.advance(a, self.fold[raw as usize]);
            let s = tagged & STATE_MASK;
            trace.push(StateId(s));
            for &p in a.output(s) {
                matches.push(Match {
                    end: i + 1,
                    pattern: p,
                });
            }
        }
        (matches, trace)
    }
}

impl MultiMatcher for CompiledMatcher<'_> {
    fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.scan_into(haystack, &mut out);
        out
    }

    fn find_all_into(&self, haystack: &[u8], out: &mut Vec<Match>) {
        self.scan_into(haystack, out);
    }

    /// Early-exit fast path: stops at the first accepting state. Runs
    /// the anchor-byte skip lane (without pair rows) when the automaton
    /// carries anchors — the lane can consume no accepting byte, so
    /// skipping never misses the exit — dispatching to the vector lane
    /// on the same [`CompiledMatcher::simd`] switch the full scans
    /// honour.
    fn is_match(&self, haystack: &[u8]) -> bool {
        let a = self.automaton;
        let simd = self.simd();
        dispatch_stepper!(a, step => {{
            let mut regs = ScanRegs::start();
            if let Some(pf) = a.prefilter() {
                let len = haystack.len();
                let mut i = 0usize;
                let mut run = 0usize;
                while i < len {
                    if pf.contains_state(regs.state) {
                        i = if simd {
                            self.lane_advance::<false, true>(pf, None, &mut regs, haystack, i, &mut run)
                        } else {
                            self.lane_advance::<false, false>(pf, None, &mut regs, haystack, i, &mut run)
                        };
                        if i >= len {
                            return false;
                        }
                        if pf.is_soft(regs.prev, haystack[i]) {
                            return true; // soft exit = an accepting state
                        }
                    }
                    while i < len {
                        let tagged =
                            regs.advance_with(a, self.fold[haystack[i] as usize], step);
                        i += 1;
                        if tagged & OUTPUT_FLAG != 0 {
                            return true;
                        }
                        if pf.contains_state(regs.state) {
                            break;
                        }
                    }
                }
                return false;
            }
            for &raw in haystack {
                if regs.advance_with(a, self.fold[raw as usize], step) & OUTPUT_FLAG != 0 {
                    return true;
                }
            }
            false
        }})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup_table::DtpConfig;
    use crate::matcher::DtpMatcher;
    use dpi_automaton::Dfa;

    fn build(patterns: &[&str], config: DtpConfig) -> (PatternSet, ReducedAutomaton) {
        let set = PatternSet::new(patterns).unwrap();
        let dfa = Dfa::build(&set);
        (set, ReducedAutomaton::reduce(&dfa, config))
    }

    fn figure1() -> (PatternSet, ReducedAutomaton) {
        build(&["he", "she", "his", "hers"], DtpConfig::PAPER)
    }

    #[test]
    fn matches_figure1_text() {
        let (set, reduced) = figure1();
        let compiled = CompiledAutomaton::compile(&reduced);
        let m = CompiledMatcher::new(&compiled, &set);
        assert_eq!(m.find_all(b"ushers").len(), 3);
        assert!(m.is_match(b"this"));
        assert!(!m.is_match(b"hx sx ex"));
        assert_eq!(m.count(b"ushers and she said his hers"), 8);
    }

    #[test]
    fn step_matches_reduced_step_under_every_config() {
        // Exhaustive (state, byte, observed-history) agreement between the
        // compiled step and the reference step, walking real inputs so the
        // histories exercised are exactly the reachable ones.
        let configs = [
            DtpConfig::PAPER,
            DtpConfig::D1,
            DtpConfig::D1_D2,
            DtpConfig::NONE,
            DtpConfig { depth1: true, k2: 16, k3: 4 },
        ];
        for config in configs {
            let (set, reduced) = build(&["he", "she", "his", "hers", "hex"], config);
            let compiled = CompiledAutomaton::compile(&reduced);
            let m = CompiledMatcher::new(&compiled, &set);
            let dtp = DtpMatcher::new(&reduced, &set);
            for text in [
                &b"ushers"[..],
                b"shishershehehehers",
                b"hhhhssss",
                b"xxhexxx",
                b"",
                b"h",
                b"he",
            ] {
                let (cm, ct) = m.scan_with_trace(text);
                let (rm, rt) = dtp.scan_with_trace(text);
                assert_eq!(ct, rt, "trace diverged under {config:?} on {text:?}");
                assert_eq!(cm, rm, "matches diverged under {config:?} on {text:?}");
            }
        }
    }

    #[test]
    fn none_config_compiles_dense_rows() {
        // Without defaults every non-start pointer is stored; hub states
        // exceed the threshold and must escalate to dense rows.
        let strings: Vec<String> = (b'a'..=b'z')
            .flat_map(|c| {
                (b'a'..=b'z').map(move |d| format!("{}{}q", c as char, d as char))
            })
            .collect();
        let set = PatternSet::new(&strings).unwrap();
        let dfa = Dfa::build(&set);
        let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::NONE);
        assert!(reduced.max_pointers() > DENSE_ROW_THRESHOLD);
        let compiled = CompiledAutomaton::compile(&reduced);
        assert!(compiled.dense_states() > 0);
        assert_eq!(compiled.stored_pointers(), reduced.stored_pointers());
        // Dense path produces the same scan as the reference.
        let m = CompiledMatcher::new(&compiled, &set);
        let dtp = DtpMatcher::new(&reduced, &set);
        let text = b"aaqabqzzqzyqxxq";
        assert_eq!(m.find_all(text), dtp.find_all(text));
    }

    #[test]
    fn paper_config_stays_fully_sparse() {
        let (_, reduced) = figure1();
        let compiled = CompiledAutomaton::compile(&reduced);
        assert_eq!(compiled.dense_states(), 0);
        assert_eq!(compiled.stored_pointers(), reduced.stored_pointers());
    }

    #[test]
    fn start_masking_is_preserved() {
        // First byte may only use the depth-1 default: packet "e" must not
        // fire the depth-3 default for 'e' even though stale-looking
        // history values are impossible by construction (HIST_NONE).
        let (set, reduced) = figure1();
        let compiled = CompiledAutomaton::compile(&reduced);
        let m = CompiledMatcher::new(&compiled, &set);
        assert!(m.find_all(b"e").is_empty());
        // Second byte may use depth-2 but not depth-3.
        let found = m.find_all(b"he");
        assert_eq!(found.len(), 1);
        assert_eq!(set.pattern(found[0].pattern), b"he");
    }

    #[test]
    fn resolve_is_branch_free_equivalent_over_full_domain() {
        // For every byte and every (prev, prev2) in the full domain
        // (including the not-yet-valid sentinel), compiled resolution must
        // equal the reference Option-ladder resolution.
        let (_, reduced) = figure1();
        let compiled = CompiledAutomaton::compile(&reduced);
        let lut = reduced.lut();
        let domain: Vec<u32> = (0..=255u32).chain([HIST_NONE]).collect();
        for c in [b'e', b'h', b'r', b's', b'i', b'x', 0u8, 255u8] {
            for &prev in &domain {
                for &prev2 in &domain {
                    let want = lut.resolve(
                        c,
                        (prev != HIST_NONE).then_some(prev as u8),
                        (prev2 != HIST_NONE).then_some(prev2 as u8),
                    );
                    // The runtime never observes (prev2 valid, prev
                    // invalid); skip the unreachable quadrant where the
                    // reference semantics differ by construction.
                    if prev == HIST_NONE && prev2 != HIST_NONE {
                        continue;
                    }
                    let hist = (prev2 << 8) | prev;
                    let got = compiled.resolve(c, prev, hist) & STATE_MASK;
                    assert_eq!(
                        got, want.0,
                        "resolve diverged on c={c:#04x} prev={prev:#x} prev2={prev2:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_into_reuses_capacity() {
        let (set, reduced) = figure1();
        let compiled = CompiledAutomaton::compile(&reduced);
        let m = CompiledMatcher::new(&compiled, &set);
        let mut buf = Vec::new();
        m.scan_into(b"ushers and she said his hers", &mut buf);
        assert_eq!(buf.len(), 8);
        let cap = buf.capacity();
        m.scan_into(b"ushers", &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.capacity(), cap, "buffer must be reused, not replaced");
    }

    #[test]
    fn visitor_streams_in_canonical_order() {
        let (set, reduced) = figure1();
        let compiled = CompiledAutomaton::compile(&reduced);
        let m = CompiledMatcher::new(&compiled, &set);
        let mut seen = Vec::new();
        m.for_each_match(b"ushers", |mtch| seen.push(mtch));
        assert_eq!(seen, m.find_all(b"ushers"));
    }

    #[test]
    fn chunked_scan_equals_whole_payload() {
        let (set, reduced) = figure1();
        let compiled = CompiledAutomaton::compile(&reduced);
        let m = CompiledMatcher::new(&compiled, &set);
        let payload = b"ushers and she said his hers";
        let whole = m.find_all(payload);
        // Every split point, including 0 and len (empty chunks), plus a
        // 1-byte packetization.
        for cut in 0..=payload.len() {
            let mut state = ScanState::fresh();
            let mut got = Vec::new();
            m.scan_chunk_into(&mut state, &payload[..cut], &mut got);
            m.scan_chunk_into(&mut state, &payload[cut..], &mut got);
            assert_eq!(got, whole, "split at {cut} diverged");
            assert_eq!(state.offset, payload.len() as u64);
        }
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for b in payload.chunks(1) {
            m.scan_chunk_into(&mut state, b, &mut got);
        }
        assert_eq!(got, whole, "1-byte packetization diverged");
    }

    fn figure1_prefiltered() -> (PatternSet, CompiledAutomaton) {
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        let dfa = Dfa::build(&set);
        let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
        (
            set,
            CompiledAutomaton::compile_with_prefilter(&reduced, anchors, None),
        )
    }

    #[test]
    fn prefilter_is_scan_invisible() {
        // The anchor lane against the plain byte stepper, each compiled
        // from the same reduced automaton.
        let (set, compiled) = figure1_prefiltered();
        let (_, reduced) = figure1();
        let bare = CompiledAutomaton::compile(&reduced);
        let on = CompiledMatcher::new(&compiled, &set);
        let off = CompiledMatcher::new(&bare, &set);
        for text in [
            &b"ushers and she said his hers"[..],
            b"",
            b"h",
            b"zzzzzzzzzzzzzzzzherszzzzzzzz",
            b"hhhhhhhhhhhhhhhh",
            b"xxhexxx shishershe",
        ] {
            assert_eq!(on.find_all(text), off.find_all(text), "on {text:?}");
            assert_eq!(on.count(text), off.count(text));
            assert_eq!(on.is_match(text), off.is_match(text));
        }
    }

    #[test]
    fn prefilter_chunked_scan_equals_whole_payload() {
        // Splits inside a SWAR skip run must resume mid-skip: the state
        // suspends on START with the run-tail history bytes.
        let (set, compiled) = figure1_prefiltered();
        let m = CompiledMatcher::new(&compiled, &set);
        let payload = b"zzzzzzzzzzzzzzhers zzzzzzzzzzzz she";
        let whole = m.find_all(payload);
        assert_eq!(whole.len(), 4); // he + hers, then she + he
        for cut in 0..=payload.len() {
            let mut state = ScanState::fresh();
            let mut got = Vec::new();
            m.scan_chunk_into(&mut state, &payload[..cut], &mut got);
            m.scan_chunk_into(&mut state, &payload[cut..], &mut got);
            assert_eq!(got, whole, "split at {cut} diverged");
        }
    }

    #[test]
    fn prefilter_memory_accounted() {
        let (_, compiled) = figure1_prefiltered();
        let (_, reduced) = figure1();
        let bare = CompiledAutomaton::compile(&reduced);
        assert!(bare.prefilter().is_none() && compiled.pairs().is_none());
        let anchors = compiled.prefilter().expect("tables present");
        assert_eq!(
            compiled.memory_bytes(),
            bare.memory_bytes() + anchors.memory_bytes()
        );
    }

    /// The three lane stacks over one reduced automaton: bare (the plain
    /// byte stepper), anchors only (the skip lane), and anchors + region
    /// pair rows (the stride-2 lane).
    fn figure1_stacks(horizon: u8) -> (PatternSet, [CompiledAutomaton; 3]) {
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        let dfa = Dfa::build(&set);
        let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let anchors = AnchorSet::build(&dfa, &set, horizon);
        let pairs = PairTable::build(&dfa, &set, &anchors);
        assert!(pairs.is_some(), "figure 1 is dense enough at h{horizon}");
        let stacks = [
            CompiledAutomaton::compile(&reduced),
            CompiledAutomaton::compile_with_prefilter(&reduced, anchors.clone(), None),
            CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs),
        ];
        (set, stacks)
    }

    #[test]
    fn pair_lane_is_scan_invisible_under_every_mode() {
        // The stride-2 lane and the anchor lane agree with the plain
        // stepper on matches, counts and is_match, across horizons.
        for horizon in 0..=2u8 {
            let (set, [bare, lane, paired]) = figure1_stacks(horizon);
            let plain = CompiledMatcher::new(&bare, &set);
            let lane_only = CompiledMatcher::new(&lane, &set);
            let both = CompiledMatcher::new(&paired, &set);
            for text in [
                &b"ushers and she said his hers"[..],
                b"",
                b"h",
                b"he",
                b"zzzzzzzzzzzzzzzzherszzzzzzzz",
                b"hhhhhhhhhhhhhhhh",
                b"xxhexxx shishershe",
                b"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzs",
            ] {
                let want = plain.find_all(text);
                for (name, m) in [("both", &both), ("lane", &lane_only)] {
                    assert_eq!(
                        m.find_all(text),
                        want,
                        "{name} diverged (h{horizon}) on {text:?}"
                    );
                    assert_eq!(m.count(text), want.len());
                    assert_eq!(m.is_match(text), !want.is_empty());
                }
            }
        }
    }

    #[test]
    fn pair_lane_chunked_scan_equals_whole_payload() {
        // Every split point, including odd offsets and cuts inside the
        // stride-2 windows and mid-pair.
        let (set, [_, _, paired]) = figure1_stacks(1);
        let matcher = CompiledMatcher::new(&paired, &set);
        let payload = b"zzzzzzzzzzzzzzhers zzzzzzzzzzzz she";
        let whole = matcher.find_all(payload);
        assert_eq!(whole.len(), 4);
        for cut in 0..=payload.len() {
            let mut state = ScanState::fresh();
            let mut got = Vec::new();
            matcher.scan_chunk_into(&mut state, &payload[..cut], &mut got);
            matcher.scan_chunk_into(&mut state, &payload[cut..], &mut got);
            assert_eq!(got, whole, "split at {cut} diverged");
            assert_eq!(state.offset, payload.len() as u64);
        }
    }

    #[test]
    fn pair_table_memory_accounted() {
        let (_, [_, lane, paired]) = figure1_stacks(1);
        let pairs = paired.pairs().expect("table present");
        assert_eq!(pairs.memory_bytes(), PairTable::REGION_ROW_BYTES);
        assert_eq!(
            paired.memory_bytes(),
            lane.memory_bytes() + pairs.memory_bytes()
        );
    }

    #[test]
    fn mismatched_pair_table_is_rejected() {
        let (set, reduced) = figure1();
        let anchors = AnchorSet::build(&Dfa::build(&set), &set, 1);
        let other = PatternSet::new(["completely", "different"]).unwrap();
        let other_dfa = Dfa::build(&other);
        let other_anchors = AnchorSet::build(&other_dfa, &other, 1);
        let table = PairTable::build(&other_dfa, &other, &other_anchors);
        assert!(table.is_some());
        let err = std::panic::catch_unwind(|| {
            CompiledAutomaton::compile_with_prefilter(&reduced, anchors, table)
        });
        assert!(err.is_err(), "foreign pair table must be rejected");
    }

    #[test]
    fn nocase_fold_table() {
        let set = PatternSet::new_nocase(["Attack"]).unwrap();
        let dfa = Dfa::build(&set);
        let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let compiled = CompiledAutomaton::compile(&reduced);
        let m = CompiledMatcher::new(&compiled, &set);
        assert!(m.is_match(b"ATTACK AT DAWN"));
        assert!(m.is_match(b"attack"));
        assert!(!m.is_match(b"attac"));
    }

    #[test]
    fn memory_footprint_is_reported() {
        let (_, reduced) = figure1();
        let compiled = CompiledAutomaton::compile(&reduced);
        assert!(compiled.memory_bytes() > 0);
        // 10 states: offsets arrays dominate at this size; just sanity-band.
        assert!(compiled.memory_bytes() < 64 * 1024);
    }

    #[test]
    fn multi_matcher_trait_surface() {
        let (set, reduced) = figure1();
        let compiled = CompiledAutomaton::compile(&reduced);
        let m = CompiledMatcher::new(&compiled, &set);
        let mut buf = vec![Match {
            end: 0,
            pattern: PatternId(0),
        }];
        m.find_all_into(b"ushers", &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(m.find_all(b"ushers"), buf);
    }
}
