//! x86 SIMD classification kernels for the compiled engine's fast lanes
//! (the `simd` cargo feature).
//!
//! Three PRs of safe-Rust lane work hit the same ceiling: the scalar
//! SWAR window classifies 8 bytes per iteration through a byte-table
//! fold, and the pair-calm window probes 4 pairs through four dependent
//! bitmap loads. Each time the recorded next lever was shuffle-based
//! classification — the technique modern software DPI engines
//! (Hyperscan's "shufti", the Hyperflex line of work) are built on. This
//! module admits exactly that much `unsafe`:
//!
//! - [`ByteSetTables`] — a 64-byte nibble-split representation of an
//!   **arbitrary** byte set, queried 16 or 32 bytes per `pshufb` pair;
//! - [`SimdToken`] — a runtime-detection witness whose existence proves
//!   the CPU supports the instructions, making every vector entry point
//!   on it a *safe* function.
//!
//! # Soundness
//!
//! Every `unsafe` block in the workspace lives in this file, and each is
//! one of two shapes:
//!
//! 1. **Feature-gated intrinsics.** Functions marked
//!    `#[target_feature(enable = ...)]` are only reachable through a
//!    [`SimdToken`], which can only be constructed by
//!    [`SimdToken::detect`] returning `Some` — i.e. after
//!    `is_x86_feature_detected!` confirmed the CPU executes them. The
//!    AVX2 entry point additionally re-checks its own flag and falls
//!    back to two SSE probes, so a token from an SSSE3-only CPU stays
//!    sound even if a caller ignores [`SimdToken::avx2`].
//! 2. **Unaligned vector loads.** `_mm_loadu_si128`/`_mm256_loadu_si256`
//!    read exactly 16/32 bytes from a `&[u8; 16]`/`&[u8; 32]` borrow,
//!    which guarantees readability of every byte loaded; `loadu` has no
//!    alignment requirement.
//!
//! The *classification* correctness (vector verdicts ≡ the scalar
//! bitmaps they mirror) is not an `unsafe` precondition — it is pinned
//! by [`ByteSetTables::model_contains`], a safe scalar model of the
//! shuffle algebra that `tests/simd.rs` checks against both the vector
//! kernels and the source [`AnchorSet`](crate::AnchorSet) /
//! [`PairTable`](crate::PairTable) bitmaps over the full key space.
//!
//! # The nibble-split construction
//!
//! `pshufb` is a 16-entry byte table lookup. Splitting each input byte
//! `b` into nibbles `(hi, lo) = (b >> 4, b & 15)` and giving each of the
//! 16 possible `hi` values its own bit yields an **exact** membership
//! test for any byte set: `lo_table[lo]` holds the set of `hi` rows in
//! which column `lo` is a member, `hi_table[hi]` holds the single bit of
//! row `hi`, and `lo_table[lo] & hi_table[hi] != 0` iff `b` is in the
//! set. Sixteen rows need 16 bits but a `pshufb` lane holds 8, so the
//! set is split into two planes (`hi < 8` and `hi ≥ 8`) of two tables
//! each — four shuffles and a handful of bitwise ops classify a whole
//! vector. Unlike the single-plane "shufti" heuristic this two-plane
//! form is exact for *every* byte set, so no scalar confirmation pass
//! is needed.

#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Nibble-split shuffle tables representing one byte set exactly: byte
/// `b` is a member iff
/// `(lo1[b&15] & hi1[b>>4]) | (lo2[b&15] & hi2[b>>4]) != 0`.
///
/// Plain data — building and modelling it is safe on every target; only
/// the vector queries (through [`SimdToken`]) touch intrinsics. 64 bytes
/// per set, so an [`AnchorSet`](crate::AnchorSet) carries its tables at
/// no meaningful memory cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteSetTables {
    /// Plane 1 (`hi < 8`): per lo-nibble, the set of hi rows present.
    lo1: [u8; 16],
    /// Plane 1 row bits: `hi1[h] = 1 << h` for `h < 8`, else 0.
    hi1: [u8; 16],
    /// Plane 2 (`hi ≥ 8`): per lo-nibble, the set of hi rows present.
    lo2: [u8; 16],
    /// Plane 2 row bits: `hi2[h] = 1 << (h - 8)` for `h ≥ 8`, else 0.
    hi2: [u8; 16],
}

impl ByteSetTables {
    /// Builds the tables for the set `{b : contains(b)}`.
    pub fn build(contains: impl Fn(u8) -> bool) -> ByteSetTables {
        let mut t = ByteSetTables {
            lo1: [0; 16],
            hi1: [0; 16],
            lo2: [0; 16],
            hi2: [0; 16],
        };
        for h in 0..8usize {
            t.hi1[h] = 1 << h;
            t.hi2[h + 8] = 1 << h;
        }
        for b in 0..=255u8 {
            if contains(b) {
                let (h, l) = ((b >> 4) as usize, (b & 15) as usize);
                if h < 8 {
                    t.lo1[l] |= 1 << h;
                } else {
                    t.lo2[l] |= 1 << (h - 8);
                }
            }
        }
        t
    }

    /// The safe scalar model of the shuffle algebra: exactly the
    /// computation the vector kernels perform, one byte at a time.
    /// `tests/simd.rs` pins `model_contains` ≡ the source bitmap (per
    /// byte) and the vector kernels ≡ `model_contains` (per lane), which
    /// together pin the kernels to the bitmaps without any traffic
    /// generation in the loop.
    #[inline(always)]
    pub fn model_contains(&self, b: u8) -> bool {
        let (h, l) = ((b >> 4) as usize, (b & 15) as usize);
        (self.lo1[l] & self.hi1[h]) | (self.lo2[l] & self.hi2[h]) != 0
    }
}

/// A nibble-box cover of a byte-*pair* relation, for vectorizing the
/// lane's per-byte danger walk.
///
/// Measurement drove this shape: on the repro traffic not a single
/// 8/16/32-byte window is fully skippable (the scalar SWAR window
/// almost never fires — the lane's throughput comes entirely from the
/// per-byte `danger[prev << 8 | c]` walk), so any probe that only
/// classifies *single bytes* has nothing to accelerate. The walk's
/// predicate is pair-keyed, and `pshufb` cannot index a 16-bit key —
/// but it can evaluate, in four shuffles, whether `(prev, c)` lies in a
/// **box** `PL×PH × CL×CH` of low/high-nibble sets. A union of such
/// boxes covering every danger pair gives a one-sided test:
///
/// - **unflagged ⇒ provably not danger** — the byte is consumable from
///   any shallow-region state, exactly as the scalar walk would have
///   consumed it;
/// - **flagged ⇒ maybe danger** — one exact bitmap probe settles it, a
///   false flag costs that probe and nothing else (no lane exit).
///
/// 32 boxes are packed 8 per plane into [`CoverPlane`]s so one plane
/// costs four `pshufb` + three `and`s; four planes classify 16/32 bytes
/// per probe. The cover is chosen by a greedy merge + reassignment pass
/// minimizing covered *volume* (= false-flag rate under a uniform byte
/// model); [`PairCover::coverage`] reports that volume so callers can
/// refuse covers too dense to profit from (dense rule sets make danger
/// itself dense — no cover can be tighter than the relation it covers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairCover {
    planes: [CoverPlane; 4],
}

/// Eight boxes of a [`PairCover`]: entry bits of the four tables mark,
/// per nibble value, which of the plane's boxes admit it. A pair
/// `(p, c)` is flagged by the plane iff
/// `plo[p&15] & phi[p>>4] & clo[c&15] & chi[c>>4] != 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoverPlane {
    plo: [u8; 16],
    phi: [u8; 16],
    clo: [u8; 16],
    chi: [u8; 16],
}

/// One axis-aligned nibble box during cover construction: the pairs
/// `(p, c)` with `p`'s nibbles in `(pl, ph)` and `c`'s in `(cl, ch)`.
#[derive(Clone, Copy, Default)]
struct NibbleBox {
    pl: u16,
    ph: u16,
    cl: u16,
    ch: u16,
}

impl NibbleBox {
    fn union(self, o: NibbleBox) -> NibbleBox {
        NibbleBox {
            pl: self.pl | o.pl,
            ph: self.ph | o.ph,
            cl: self.cl | o.cl,
            ch: self.ch | o.ch,
        }
    }

    /// Number of pairs inside the box — the uniform-model cost of
    /// flagging everything it admits.
    fn volume(self) -> f64 {
        (self.pl.count_ones() * self.ph.count_ones()) as f64
            * (self.cl.count_ones() * self.ch.count_ones()) as f64
    }
}

impl PairCover {
    /// Number of boxes in a cover (8 per shuffle plane).
    pub const BOXES: usize = 32;

    /// Builds a 32-box cover of `{(p, c) : pred(p, c)}`.
    ///
    /// Seeds one box per `(p_hi, c_hi)` high-nibble cell that contains a
    /// relation member (its low-nibble sides are the cell's exact
    /// projections — within one cell the box is the tightest rectangle),
    /// then greedily merges the pair of boxes whose union grows total
    /// volume least until 32 remain, and finishes with a reassignment
    /// sweep moving each seed cell to the box it inflates least. Every
    /// step only unions boxes, so the cover invariant — every `pred`
    /// pair lies in some box — holds by construction; `tests/simd.rs`
    /// re-checks it exhaustively against the live danger bitmap.
    pub fn build(pred: impl Fn(u8, u8) -> bool) -> PairCover {
        let mut cells: Vec<NibbleBox> = Vec::new();
        for phn in 0..16u16 {
            for chn in 0..16u16 {
                let (mut pl, mut cl) = (0u16, 0u16);
                for pln in 0..16u16 {
                    for cln in 0..16u16 {
                        if pred((phn << 4 | pln) as u8, (chn << 4 | cln) as u8) {
                            pl |= 1 << pln;
                            cl |= 1 << cln;
                        }
                    }
                }
                if pl != 0 {
                    cells.push(NibbleBox {
                        pl,
                        ph: 1 << phn,
                        cl,
                        ch: 1 << chn,
                    });
                }
            }
        }
        let assign = Self::cluster(&cells);
        let mut boxes = [NibbleBox::default(); Self::BOXES];
        for (k, &g) in assign.iter().enumerate() {
            boxes[g] = boxes[g].union(cells[k]);
        }
        let mut planes = [CoverPlane::default(); 4];
        for (k, b) in boxes.iter().enumerate() {
            let (plane, bit) = (k / 8, 1u8 << (k % 8));
            let t = &mut planes[plane];
            for n in 0..16usize {
                if b.pl >> n & 1 != 0 {
                    t.plo[n] |= bit;
                }
                if b.ph >> n & 1 != 0 {
                    t.phi[n] |= bit;
                }
                if b.cl >> n & 1 != 0 {
                    t.clo[n] |= bit;
                }
                if b.ch >> n & 1 != 0 {
                    t.chi[n] |= bit;
                }
            }
        }
        PairCover { planes }
    }

    /// Clusters seed cells into at most [`PairCover::BOXES`] groups
    /// minimizing total box volume: greedy least-growth pair merges,
    /// then local reassignment until stable.
    fn cluster(cells: &[NibbleBox]) -> Vec<usize> {
        if cells.len() <= Self::BOXES {
            return (0..cells.len()).collect();
        }
        let mut groups: Vec<(NibbleBox, Vec<usize>)> =
            cells.iter().enumerate().map(|(k, &b)| (b, vec![k])).collect();
        while groups.len() > Self::BOXES {
            let mut best = (f64::MAX, 0, 1);
            for i in 0..groups.len() {
                for j in i + 1..groups.len() {
                    let grown = groups[i].0.union(groups[j].0).volume()
                        - groups[i].0.volume()
                        - groups[j].0.volume();
                    if grown < best.0 {
                        best = (grown, i, j);
                    }
                }
            }
            let (_, i, j) = best;
            let merged = groups[i].0.union(groups[j].0);
            let mut members = std::mem::take(&mut groups[i].1);
            members.extend_from_slice(&groups[j].1);
            groups.swap_remove(j);
            groups[i] = (merged, members);
        }
        let mut assign = vec![0usize; cells.len()];
        for (g, (_, members)) in groups.iter().enumerate() {
            for &k in members {
                assign[k] = g;
            }
        }
        let rebuild = |assign: &[usize]| {
            let mut boxes = [NibbleBox::default(); Self::BOXES];
            for (k, &g) in assign.iter().enumerate() {
                boxes[g] = boxes[g].union(cells[k]);
            }
            boxes
        };
        for _ in 0..12 {
            let mut moved = false;
            let mut boxes = rebuild(&assign);
            for k in 0..cells.len() {
                // This cell's home box without it (peers only).
                let mut home = NibbleBox::default();
                for (k2, &g2) in assign.iter().enumerate() {
                    if k2 != k && g2 == assign[k] {
                        home = home.union(cells[k2]);
                    }
                }
                let mut best = (f64::MAX, assign[k]);
                for (g, b) in boxes.iter().enumerate() {
                    let base = if g == assign[k] { home } else { *b };
                    let grown = base.union(cells[k]).volume() - base.volume();
                    if grown < best.0 {
                        best = (grown, g);
                    }
                }
                if best.1 != assign[k] {
                    assign[k] = best.1;
                    moved = true;
                    boxes = rebuild(&assign);
                }
            }
            if !moved {
                break;
            }
        }
        assign
    }

    /// The safe scalar model of the cover — exactly the per-byte
    /// computation the vector probe performs. `true` means "maybe in
    /// the relation" (take the exact bitmap probe); `false` proves the
    /// pair is outside every box and hence outside the relation.
    #[inline(always)]
    pub fn model_flags(&self, p: u8, c: u8) -> bool {
        let (pl, ph) = ((p & 15) as usize, (p >> 4) as usize);
        let (cl, ch) = ((c & 15) as usize, (c >> 4) as usize);
        self.planes.iter().any(|t| {
            t.plo[pl] & t.phi[ph] & t.clo[cl] & t.chi[ch] != 0
        })
    }

    /// Fraction of the 65536-pair key space the cover flags — the
    /// expected false-flag rate under a uniform byte model. Callers
    /// gate on this at build time: past roughly one key in six the
    /// probe's exact-confirmation traffic outweighs the wholesale
    /// consumption it buys (dense rule sets *are* this dense; the
    /// scalar walk is already the right engine for them).
    pub fn coverage(&self) -> f64 {
        let mut covered = 0usize;
        for p in 0..256usize {
            for c in 0..256usize {
                if self.model_flags(p as u8, c as u8) {
                    covered += 1;
                }
            }
        }
        covered as f64 / 65536.0
    }
}

/// Runtime-detection witness for the SIMD kernels.
///
/// A value of this type exists only if [`SimdToken::detect`] observed
/// SSSE3 support (`pshufb`) on the running CPU — the invariant that
/// makes the vector methods safe to expose. `Copy` and zero-sized but
/// for the AVX2 flag; thread it by value into hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdToken {
    avx2: bool,
}

impl SimdToken {
    /// Probes the CPU: `Some` iff SSSE3 is available (with 32-byte
    /// probes enabled when AVX2 is too), `None` otherwise — the caller
    /// falls back to the scalar lanes. Detection is cached by the
    /// standard library, so calling this per matcher construction is
    /// cheap.
    pub fn detect() -> Option<SimdToken> {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("ssse3") {
                return Some(SimdToken {
                    avx2: is_x86_feature_detected!("avx2"),
                });
            }
            None
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            None
        }
    }

    /// Whether 32-byte (AVX2) probes are available; 16-byte SSSE3
    /// probes always are on a constructed token.
    #[inline(always)]
    pub fn avx2(self) -> bool {
        self.avx2
    }

    /// Membership mask of 16 bytes in `set`: bit `j` set iff `w[j]` is
    /// a member. Safe: the token witnesses SSSE3.
    #[inline(always)]
    pub fn member_mask16(self, set: &ByteSetTables, w: &[u8; 16]) -> u32 {
        // SAFETY: constructing `self` required `ssse3` detection; the
        // load reads exactly the 16 borrowed bytes.
        unsafe { member_mask16_ssse3(set, w) }
    }

    /// Membership mask of 32 bytes in `set`: bit `j` set iff `w[j]` is
    /// a member. Uses one AVX2 probe when the token saw AVX2, two SSSE3
    /// probes otherwise — same result either way.
    #[inline(always)]
    pub fn member_mask32(self, set: &ByteSetTables, w: &[u8; 32]) -> u32 {
        if self.avx2 {
            // SAFETY: the token's `avx2` flag witnesses AVX2 detection;
            // the load reads exactly the 32 borrowed bytes.
            unsafe { member_mask32_avx2(set, w) }
        } else {
            let lo: &[u8; 16] = w[..16].try_into().expect("16-byte half");
            let hi: &[u8; 16] = w[16..].try_into().expect("16-byte half");
            self.member_mask16(set, lo) | (self.member_mask16(set, hi) << 16)
        }
    }

    /// Executes `f` inside a frame compiled with this token's detected
    /// feature set enabled.
    ///
    /// The point is inlining, not dispatch: a `#[target_feature]` kernel
    /// cannot inline into a caller built without the feature, so a hot
    /// loop that calls [`SimdToken::danger_scan`] through the plain ABI
    /// re-loads the cover's sixteen shuffle-table vectors on every call
    /// — measured on the repro clean traffic (lane exits every ~40
    /// bytes), that reload tax alone cancels the probe's win over the
    /// scalar walk. Wrapping the whole lane call in this frame lets
    /// LLVM inline the kernels into the lane loop and keep the tables
    /// live across an entire lane entry.
    ///
    /// Safe for any `f`: the frame only *permits* vector instructions
    /// the token already witnessed the CPU executes.
    #[inline(always)]
    pub fn dispatch<R>(self, f: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        {
            if self.avx2 {
                // SAFETY: the token's `avx2` flag witnesses detection.
                unsafe { dispatch_avx2(f) }
            } else {
                // SAFETY: constructing the token required `ssse3`.
                unsafe { dispatch_ssse3(f) }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        f()
    }

    /// Width in bytes of one [`SimdToken::danger_scan`] probe: 32 under
    /// AVX2, 16 under SSSE3.
    #[inline(always)]
    pub fn scan_width(self) -> usize {
        if self.avx2 {
            32
        } else {
            16
        }
    }

    /// The vector danger walk: probes `chunk` in
    /// [`SimdToken::scan_width`]-byte windows starting at `i`, each
    /// window classified against `cover` with the window's *own
    /// predecessor bytes* (`chunk[i-1..]`) on the prev axis. Stops at
    /// the first window with any flagged position and returns
    /// `(base, flags)` — bit `j` of `flags` marks `chunk[base + j]` as
    /// maybe-danger after `chunk[base + j - 1]`; every unflagged byte of
    /// `chunk[i..base + width]` below the first flag is proven
    /// non-danger. Returns `(i', 0)` when fewer than `width` bytes
    /// remain past `i'`.
    ///
    /// Requires `i ≥ 1` (each window reads its prev bytes from the
    /// buffer); the caller settles position 0 — whose predecessor is a
    /// suspended register, possibly `HIST_NONE`, outside the cover's
    /// key space — with the exact bitmap first.
    #[inline(always)]
    pub fn danger_scan(self, cover: &PairCover, chunk: &[u8], i: usize) -> (usize, u32) {
        debug_assert!(i >= 1, "vector walk probe needs an in-buffer prev byte");
        if self.avx2 {
            // SAFETY: the token's `avx2` flag witnesses AVX2 detection;
            // the scan loop upholds the kernel's bounds contract.
            unsafe { danger_scan_avx2(cover, chunk, i) }
        } else {
            // SAFETY: constructing `self` required `ssse3` detection.
            unsafe { danger_scan_ssse3(cover, chunk, i) }
        }
    }
}

/// One two-plane shuffle classification of 16 bytes.
///
/// # Safety
///
/// Requires SSSE3 (`pshufb`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn member_mask16_ssse3(set: &ByteSetTables, w: &[u8; 16]) -> u32 {
    // SAFETY (caller-upheld): ssse3 enabled; loads read the borrowed
    // 16-byte arrays, unaligned loads carry no alignment requirement.
    unsafe {
        let v = _mm_loadu_si128(w.as_ptr() as *const __m128i);
        let lo1 = _mm_loadu_si128(set.lo1.as_ptr() as *const __m128i);
        let hi1 = _mm_loadu_si128(set.hi1.as_ptr() as *const __m128i);
        let lo2 = _mm_loadu_si128(set.lo2.as_ptr() as *const __m128i);
        let hi2 = _mm_loadu_si128(set.hi2.as_ptr() as *const __m128i);
        let nib = _mm_set1_epi8(0x0f);
        let lo = _mm_and_si128(v, nib);
        let hi = _mm_and_si128(_mm_srli_epi16(v, 4), nib);
        let m = _mm_or_si128(
            _mm_and_si128(_mm_shuffle_epi8(lo1, lo), _mm_shuffle_epi8(hi1, hi)),
            _mm_and_si128(_mm_shuffle_epi8(lo2, lo), _mm_shuffle_epi8(hi2, hi)),
        );
        // Nonzero lanes are members: compare against zero and invert.
        let zero = _mm_cmpeq_epi8(m, _mm_setzero_si128());
        (!_mm_movemask_epi8(zero) as u32) & 0xFFFF
    }
}

/// One two-plane shuffle classification of 32 bytes.
///
/// # Safety
///
/// Requires AVX2 (`vpshufb` operates per 128-bit half, which the
/// half-local nibble tables are built for — both halves get the same
/// broadcast tables).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn member_mask32_avx2(set: &ByteSetTables, w: &[u8; 32]) -> u32 {
    // SAFETY (caller-upheld): avx2 enabled; loads read the borrowed
    // arrays; `_mm256_broadcastsi128_si256` duplicates each 16-byte
    // table into both halves so the per-half `vpshufb` indexes match
    // the SSE kernel exactly.
    unsafe {
        let v = _mm256_loadu_si256(w.as_ptr() as *const __m256i);
        let b128 = |t: &[u8; 16]| {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr() as *const __m128i))
        };
        let lo1 = b128(&set.lo1);
        let hi1 = b128(&set.hi1);
        let lo2 = b128(&set.lo2);
        let hi2 = b128(&set.hi2);
        let nib = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, nib);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
        let m = _mm256_or_si256(
            _mm256_and_si256(_mm256_shuffle_epi8(lo1, lo), _mm256_shuffle_epi8(hi1, hi)),
            _mm256_and_si256(_mm256_shuffle_epi8(lo2, lo), _mm256_shuffle_epi8(hi2, hi)),
        );
        let zero = _mm256_cmpeq_epi8(m, _mm256_setzero_si256());
        !(_mm256_movemask_epi8(zero) as u32)
    }
}

/// AVX2 inlining frame for [`SimdToken::dispatch`].
///
/// # Safety
///
/// Requires AVX2 (the frame itself executes no vector instruction, but
/// kernels inlined into it may be compiled to any AVX2 sequence).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dispatch_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// SSSE3 inlining frame for [`SimdToken::dispatch`].
///
/// # Safety
///
/// Requires SSSE3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
#[inline]
unsafe fn dispatch_ssse3<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// SSSE3 [`SimdToken::danger_scan`] loop: the sixteen plane tables stay
/// in registers across probes, so the per-window cost is two loads,
/// sixteen shuffles and the bitwise folds.
///
/// # Safety
///
/// Requires SSSE3 and `i ≥ 1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn danger_scan_ssse3(cover: &PairCover, chunk: &[u8], mut i: usize) -> (usize, u32) {
    // SAFETY (caller-upheld): ssse3 enabled; each iteration reads 16
    // bytes from `i - 1` and from `i` with `i ≥ 1` and
    // `i + 16 ≤ chunk.len()`, so both loads stay inside the slice.
    unsafe {
        let ld = |t: &[u8; 16]| _mm_loadu_si128(t.as_ptr() as *const __m128i);
        let mut tabs = [[_mm_setzero_si128(); 4]; 4];
        for (k, plane) in cover.planes.iter().enumerate() {
            tabs[k] = [ld(&plane.plo), ld(&plane.phi), ld(&plane.clo), ld(&plane.chi)];
        }
        let nib = _mm_set1_epi8(0x0f);
        while i + 16 <= chunk.len() {
            let pv = _mm_loadu_si128(chunk.as_ptr().add(i - 1) as *const __m128i);
            let cv = _mm_loadu_si128(chunk.as_ptr().add(i) as *const __m128i);
            let pl = _mm_and_si128(pv, nib);
            let ph = _mm_and_si128(_mm_srli_epi16(pv, 4), nib);
            let cl = _mm_and_si128(cv, nib);
            let ch = _mm_and_si128(_mm_srli_epi16(cv, 4), nib);
            let mut acc = _mm_setzero_si128();
            for t in &tabs {
                let p = _mm_and_si128(_mm_shuffle_epi8(t[0], pl), _mm_shuffle_epi8(t[1], ph));
                let c = _mm_and_si128(_mm_shuffle_epi8(t[2], cl), _mm_shuffle_epi8(t[3], ch));
                acc = _mm_or_si128(acc, _mm_and_si128(p, c));
            }
            let zero = _mm_cmpeq_epi8(acc, _mm_setzero_si128());
            let f = (!_mm_movemask_epi8(zero) as u32) & 0xFFFF;
            if f != 0 {
                return (i, f);
            }
            i += 16;
        }
        (i, 0)
    }
}

/// AVX2 [`SimdToken::danger_scan`] loop — 32 bytes per probe, tables
/// broadcast into both halves once per call.
///
/// # Safety
///
/// Requires AVX2 and `i ≥ 1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn danger_scan_avx2(cover: &PairCover, chunk: &[u8], mut i: usize) -> (usize, u32) {
    // SAFETY (caller-upheld): avx2 enabled; each iteration reads 32
    // bytes from `i - 1` and from `i` with `i ≥ 1` and
    // `i + 32 ≤ chunk.len()`, so both loads stay inside the slice.
    unsafe {
        let ld = |t: &[u8; 16]| {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr() as *const __m128i))
        };
        let mut tabs = [[_mm256_setzero_si256(); 4]; 4];
        for (k, plane) in cover.planes.iter().enumerate() {
            tabs[k] = [ld(&plane.plo), ld(&plane.phi), ld(&plane.clo), ld(&plane.chi)];
        }
        let nib = _mm256_set1_epi8(0x0f);
        while i + 32 <= chunk.len() {
            let pv = _mm256_loadu_si256(chunk.as_ptr().add(i - 1) as *const __m256i);
            let cv = _mm256_loadu_si256(chunk.as_ptr().add(i) as *const __m256i);
            let pl = _mm256_and_si256(pv, nib);
            let ph = _mm256_and_si256(_mm256_srli_epi16(pv, 4), nib);
            let cl = _mm256_and_si256(cv, nib);
            let ch = _mm256_and_si256(_mm256_srli_epi16(cv, 4), nib);
            let mut acc = _mm256_setzero_si256();
            for t in &tabs {
                let p =
                    _mm256_and_si256(_mm256_shuffle_epi8(t[0], pl), _mm256_shuffle_epi8(t[1], ph));
                let c =
                    _mm256_and_si256(_mm256_shuffle_epi8(t[2], cl), _mm256_shuffle_epi8(t[3], ch));
                acc = _mm256_or_si256(acc, _mm256_and_si256(p, c));
            }
            let zero = _mm256_cmpeq_epi8(acc, _mm256_setzero_si256());
            let f = !(_mm256_movemask_epi8(zero) as u32);
            if f != 0 {
                return (i, f);
            }
            i += 32;
        }
        (i, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive: the scalar model reproduces arbitrary byte sets.
    #[test]
    fn model_is_exact_for_arbitrary_sets() {
        let sets: [Box<dyn Fn(u8) -> bool>; 5] = [
            Box::new(|_| false),
            Box::new(|_| true),
            Box::new(|b| b.is_ascii_alphanumeric()),
            Box::new(|b| b % 3 == 0),
            Box::new(|b| (b as u32).wrapping_mul(2654435761) & 0x8000_0000 != 0),
        ];
        for contains in sets {
            let t = ByteSetTables::build(&contains);
            for b in 0..=255u8 {
                assert_eq!(t.model_contains(b), contains(b), "byte {b:#04x}");
            }
        }
    }

    /// Vector kernels agree with the scalar model on every lane, for
    /// windows sweeping all byte values through all positions.
    #[test]
    fn vector_masks_match_model() {
        let Some(tok) = SimdToken::detect() else {
            eprintln!("skipping: no SSSE3 on this host");
            return;
        };
        let t = ByteSetTables::build(|b| b % 5 == 0 || b > 0xE0);
        let mut w32 = [0u8; 32];
        for phase in 0..=255usize {
            for (j, slot) in w32.iter_mut().enumerate() {
                *slot = ((phase + 7 * j) % 256) as u8;
            }
            let m32 = tok.member_mask32(&t, &w32);
            let w16: &[u8; 16] = w32[..16].try_into().unwrap();
            let m16 = tok.member_mask16(&t, w16);
            for (j, &b) in w32.iter().enumerate() {
                assert_eq!((m32 >> j) & 1 != 0, t.model_contains(b), "lane {j}");
            }
            assert_eq!(m16, m32 & 0xFFFF);
        }
    }

    /// The cover invariant: every relation pair is flagged, for
    /// relations of varying density and shape.
    #[test]
    fn cover_flags_every_relation_pair() {
        let preds: [Box<dyn Fn(u8, u8) -> bool>; 4] = [
            Box::new(|_, _| false),
            Box::new(|p, c| p == c),
            Box::new(|p, c| p.is_ascii_lowercase() && (c == b'/' || c.is_ascii_digit())),
            Box::new(|p, c| (p as u32 * 31 + c as u32).wrapping_mul(2654435761).is_multiple_of(97)),
        ];
        for pred in preds {
            let cover = PairCover::build(&pred);
            for p in 0..=255u8 {
                for c in 0..=255u8 {
                    if pred(p, c) {
                        assert!(cover.model_flags(p, c), "hole at ({p:#04x}, {c:#04x})");
                    }
                }
            }
            assert!(cover.coverage() <= 1.0);
        }
    }

    /// An empty relation covers nothing; a sparse boxy relation is
    /// covered tightly.
    #[test]
    fn coverage_tracks_relation_density() {
        assert_eq!(PairCover::build(|_, _| false).coverage(), 0.0);
        // One exact box: lowercase prevs × digit bytes.
        let boxy = PairCover::build(|p, c| (0x61..=0x6F).contains(&p) && (0x30..=0x39).contains(&c));
        let cov = boxy.coverage();
        assert!(
            (cov - (15.0 * 10.0) / 65536.0).abs() < 1e-9,
            "one-box relation should cover exactly its volume, got {cov}"
        );
    }

    /// The vector scan agrees with the scalar model at every position
    /// of a pseudorandom buffer, for both probe widths a token offers.
    #[test]
    fn danger_scan_matches_model() {
        let Some(tok) = SimdToken::detect() else {
            eprintln!("skipping: no SSSE3 on this host");
            return;
        };
        let cover = PairCover::build(|p, c| (p ^ c) % 23 == 0);
        let mut buf = [0u8; 512];
        let mut x = 0x2545_F491u32;
        for b in buf.iter_mut() {
            x = x.wrapping_mul(747796405).wrapping_add(2891336453);
            *b = (x >> 17) as u8;
        }
        let width = tok.scan_width();
        let mut i = 1usize;
        while i + width <= buf.len() {
            let (base, flags) = tok.danger_scan(&cover, &buf, i);
            if flags == 0 {
                // Every probed window ([i, base)) was clear: verify and stop.
                for j in i..base {
                    assert!(!cover.model_flags(buf[j - 1], buf[j]), "missed flag at {j}");
                }
                break;
            }
            // Windows before `base` were clear; `base`'s mask is exact.
            for j in i..base {
                assert!(!cover.model_flags(buf[j - 1], buf[j]), "missed flag at {j}");
            }
            for bit in 0..width {
                let j = base + bit;
                assert_eq!(
                    flags >> bit & 1 != 0,
                    cover.model_flags(buf[j - 1], buf[j]),
                    "flag mismatch at {j}"
                );
            }
            i = base + width;
        }
    }
}
