//! Cross-lane SIMD conformance suite: the `simd` feature must be
//! *scan-invisible*.
//!
//! The vector lanes (nibble-box danger walk, shuffle byte-set probes)
//! are pure accelerations of the scalar lanes — they may change how
//! fast bytes are consumed, never which matches come out. This suite
//! pins that differentially:
//!
//! 1. **Lane matrix** — simd on/off × the three lane stacks compiled
//!    from one reduced automaton (bare byte stepper, anchor lane,
//!    anchors + pair layer) reports exactly the reference `DtpMatcher`
//!    matches, on clean, infected and adversarial payloads, whole and
//!    under every `ChopProfile`.
//! 2. **Window-interior cuts** — chunk boundaries placed strictly
//!    inside the 16/32-byte probe windows (±1 around every vector
//!    width multiple) and 3-way splits inside a maximal skippable run,
//!    so suspend/resume lands mid-skip at odd offsets.
//! 3. **Horizon sweep** — anchor horizons 0, 1 and 2, and `nocase`
//!    pattern sets (the fold must be applied before any vector probe).
//! 4. **Sharded + reassembly** — `ShardedMatcher` planned for 1 and 3 cores,
//!    and adversarial `SegmentProfile` schedules through a `FlowTable`.
//! 5. **Table models** (feature `simd` only) — the shuffle tables and
//!    the nibble-box danger cover are checked against the exact
//!    `AnchorSet` bitmaps over the full key space, for proptest-drawn
//!    pattern sets: the cover must flag every danger pair (one-sided
//!    soundness), and the candidate tables must equal the skip bitmap
//!    exactly.
//!
//! Built without the feature the matrix still runs (with_simd is
//! inert), so the portable build keeps the same pinning.

use dpi_accel::core::{FlowKey, FlowSegment, FlowTable, ShardedConfig, ShardedMatcher};
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{
    adversarial_payload, chop, extract_preserving, master_ruleset, ChopProfile, Packet, Segment,
    SegmentProfile, TrafficGenerator,
};

/// The three lane stacks over one reduced automaton, by name.
type Stacks = [(&'static str, CompiledAutomaton); 3];

/// The bare byte stepper, the anchor lane alone, and anchors + region
/// pair rows at `horizon` where they attach (the full fast-path stack,
/// last).
fn build_stacks(set: &PatternSet, horizon: u8) -> Stacks {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, set, horizon);
    let pairs = PairTable::build(&dfa, set, &anchors);
    [
        ("bare", CompiledAutomaton::compile(&reduced)),
        (
            "anchors",
            CompiledAutomaton::compile_with_prefilter(&reduced, anchors.clone(), None),
        ),
        (
            "anchors+pairs",
            CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs),
        ),
    ]
}

/// The full lane matrix: simd × the three stacks. Without the `simd`
/// feature the simd half is inert and pins scalar against scalar.
fn lane_matrix<'a>(stacks: &'a Stacks, set: &'a PatternSet) -> Vec<(String, CompiledMatcher<'a>)> {
    let mut out = Vec::new();
    for simd in [false, true] {
        for (stack, compiled) in stacks {
            out.push((
                format!("simd={simd}/{stack}"),
                CompiledMatcher::new(compiled, set).with_simd(simd),
            ));
        }
    }
    out
}

/// Scans `payload` chunked at `cuts` through every lane configuration
/// and asserts each equals the whole-payload `DtpMatcher` reference.
fn assert_matrix_conforms(
    stacks: &Stacks,
    set: &PatternSet,
    reference: &[Match],
    payload: &[u8],
    cuts: &[usize],
    ctx: &str,
) {
    let segments = chop(payload, cuts);
    for (name, m) in lane_matrix(stacks, set) {
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for seg in &segments {
            m.scan_chunk_into(&mut state, seg, &mut got);
        }
        assert_eq!(got, reference, "{name} diverged [{ctx}]");
    }
}

fn dtp_reference(set: &PatternSet, payload: &[u8]) -> Vec<Match> {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    DtpMatcher::new(&reduced, set).find_all(payload)
}

/// Lane matrix × traffic kind × chop profile on a realistic 300-rule
/// slice — the ruleset size the SIMD A/B benches run at.
#[test]
fn traffic_and_chop_matrix_conformance() {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let stacks = build_stacks(&set, AnchorSet::DEFAULT_HORIZON);
    let mut gen = TrafficGenerator::new(0x51D0);

    let clean = gen.clean_packet(16 * 1024);
    let infected = gen.infected_packet(16 * 1024, &set, 24);
    let adversarial = Packet {
        payload: adversarial_payload(&set, 8 * 1024),
        injected: Vec::new(),
    };
    for (kind, packet) in [
        ("clean", &clean),
        ("infected", &infected),
        ("adversarial", &adversarial),
    ] {
        let reference = dtp_reference(&set, &packet.payload);
        // Whole payload first, then every chop profile.
        assert_matrix_conforms(&stacks, &set, &reference, &packet.payload, &[], kind);
        for profile in [
            ChopProfile::Mtu(1500),
            ChopProfile::Random { min: 1, max: 97 },
            ChopProfile::MidPattern { mtu: 200 },
        ] {
            let cuts = gen.chop_points(packet, &set, profile);
            assert_matrix_conforms(
                &stacks,
                &set,
                &reference,
                &packet.payload,
                &cuts,
                &format!("{kind}/{profile:?}"),
            );
        }
        // SingleByte on a prefix — the worst case for per-chunk costs.
        let prefix = &packet.payload[..2048.min(packet.payload.len())];
        let reference = dtp_reference(&set, prefix);
        let cuts: Vec<usize> = (1..prefix.len()).collect();
        assert_matrix_conforms(
            &stacks,
            &set,
            &reference,
            prefix,
            &cuts,
            &format!("{kind}/SingleByte"),
        );
    }
}

/// Chunk boundaries strictly inside the vector probe windows: every
/// multiple of 16 and 32 ± 1 (so a probe that would have straddled the
/// cut must be re-formed after resume, from an odd offset), plus 3-way
/// splits inside the longest skippable run (suspend/resume mid-skip).
#[test]
fn cuts_inside_simd_windows() {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let dfa = Dfa::build(&set);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    let stacks = build_stacks(&set, AnchorSet::DEFAULT_HORIZON);
    let mut gen = TrafficGenerator::new(0xA11A);
    let packet = gen.infected_packet(4096, &set, 12);
    let payload = &packet.payload;
    let reference = dtp_reference(&set, payload);

    // ±1 around every vector-width multiple, both widths at once —
    // every cut is at an odd offset, so each resumed chunk re-enters
    // the lane (and the stride-2 pair walk) misaligned.
    for width in [16usize, 32] {
        let cuts: Vec<usize> = (1..payload.len() / width)
            .flat_map(|i| [i * width - 1, i * width + 1])
            .collect();
        assert_matrix_conforms(
            &stacks,
            &set,
            &reference,
            payload,
            &cuts,
            &format!("width-{width} interior cuts"),
        );
    }

    // 3-way split inside the longest fully-skippable run: the SWAR /
    // vector skip is interrupted twice mid-run and must resume without
    // losing the (prev, byte) history.
    let mut best = (0usize, 0usize); // (start, len)
    let mut run = 0usize;
    for (i, &b) in payload.iter().enumerate() {
        if anchors.is_skippable(b) {
            run += 1;
            if run > best.1 {
                best = (i + 1 - run, run);
            }
        } else {
            run = 0;
        }
    }
    let (start, len) = best;
    if len >= 3 {
        let cuts = vec![start + len / 3, start + 2 * len / 3];
        assert_matrix_conforms(
            &stacks,
            &set,
            &reference,
            payload,
            &cuts,
            "3-way mid-skip split",
        );
    }
}

/// A calm-pair rescue whose pair straddles a vector probe window must
/// resume *past* the consumed second byte (the scalar walk's `i += 2`),
/// not re-test it as a fresh position — `is_calm` proves region
/// containment only after BOTH bytes, so an exit between them would
/// rebuild an unguaranteed register state.
///
/// The test plants a rescue triple `(p, c, d)` — `p` reachable through
/// filler, `(p, c)` danger (the exact probe fires at `c`), `(c, d)`
/// calm (the rescue consumes both) — followed by a byte `e` that is
/// danger after `d` when one exists (forcing a real exit + register
/// rebuild right behind the rescue). The triple is swept across a full
/// 32-byte span of offsets, so each probe width meets the rescue at
/// every in-window position including the last flag of a window — the
/// alignment where the consumed second byte lands exactly on the next
/// probe's first position. A boundary cut between `c` and `d` rides
/// along (suspend mid-rescue-pair, settle on resume).
#[test]
fn calm_pair_rescue_straddling_probe_windows() {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let stacks = build_stacks(&set, AnchorSet::DEFAULT_HORIZON);
    let dfa = Dfa::build(&set);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    let pairs = PairTable::build(&dfa, &set, &anchors).expect("300-rule set carries region rows");

    let filler = (0..=255u8)
        .find(|&b| anchors.is_skippable(b))
        .expect("300-rule set has skippable bytes");
    let mut triples: Vec<(u8, u8, u8)> = Vec::new();
    for p in 0..=255u8 {
        if anchors.is_danger(filler as u32, p) {
            continue;
        }
        if let Some((c, d)) = (0..=255u8).find_map(|c| {
            (anchors.is_danger(p as u32, c))
                .then(|| (0..=255u8).find(|&d| pairs.is_calm(c, d)).map(|d| (c, d)))
                .flatten()
        }) {
            triples.push((p, c, d));
            if triples.len() >= 4 {
                break;
            }
        }
    }
    assert!(
        !triples.is_empty(),
        "no rescue triple in the 300-rule tables — pick another seed"
    );

    for &(p, c, d) in &triples {
        // A hard successor forces an exit + rebuild right behind the
        // consumed pair; if none exists, filler keeps the lane running.
        let e = (0..=255u8)
            .find(|&e| anchors.is_danger(d as u32, e))
            .unwrap_or(filler);
        for lead in 64usize..64 + 32 {
            let mut payload = vec![filler; lead];
            payload.extend_from_slice(&[p, c, d, e]);
            payload.extend(std::iter::repeat_n(filler, 64));
            let reference = dtp_reference(&set, &payload);
            let ctx = format!("rescue triple ({p:#04x},{c:#04x},{d:#04x})+{e:#04x} lead {lead}");
            assert_matrix_conforms(&stacks, &set, &reference, &payload, &[], &ctx);
            // Suspend between the rescue pair's two bytes.
            let cut = vec![lead + 2];
            assert_matrix_conforms(
                &stacks,
                &set,
                &reference,
                &payload,
                &cut,
                &format!("{ctx} (mid-pair cut)"),
            );
        }
    }
}

/// The cross-table invariant that shields a rescue's consumed second
/// byte: a calm pair is never danger-keyed. `is_calm(c, d)` quantifies
/// over every region state — including the one START reaches through
/// `c`, which is exactly the state the `(c, d)` danger bit is derived
/// from — so `is_calm(c, d) ⇒ !is_danger(c, d)` structurally. The
/// vector walk no longer *relies* on this (a straddling rescue advances
/// past its consumed byte outright), but the invariant is what makes
/// any re-test of a consumed calm-pair byte inert, so pin it.
#[test]
fn calm_pairs_are_never_danger_keyed() {
    for (n, seed) in [(300usize, 42u64), (150, 0x6E0)] {
        let set = extract_preserving(&master_ruleset(), n, seed);
        let dfa = Dfa::build(&set);
        for horizon in 1u8..=2 {
            let anchors = AnchorSet::build(&dfa, &set, horizon);
            let Some(pairs) = PairTable::build(&dfa, &set, &anchors) else {
                continue;
            };
            for c in 0..=255u8 {
                for d in 0..=255u8 {
                    assert!(
                        !(pairs.is_calm(c, d) && anchors.is_danger(c as u32, d)),
                        "calm pair ({c:#04x}, {d:#04x}) is danger-keyed \
                         ({n} rules, horizon {horizon})"
                    );
                }
            }
        }
    }
}

/// Horizons 0, 1 and 2: the danger relation (and so the nibble-box
/// cover) changes shape with the region depth; each must stay exact.
#[test]
fn horizon_sweep_conformance() {
    let set = extract_preserving(&master_ruleset(), 80, 0x707);
    let mut gen = TrafficGenerator::new(0xBEEF);
    let clean = gen.clean_packet(4096);
    let infected = gen.infected_packet(4096, &set, 8);
    for horizon in 0u8..=2 {
        let stacks = build_stacks(&set, horizon);
        for (kind, packet) in [("clean", &clean), ("infected", &infected)] {
            let reference = dtp_reference(&set, &packet.payload);
            let cuts = gen.chop_points(packet, &set, ChopProfile::Random { min: 1, max: 61 });
            assert_matrix_conforms(
                &stacks,
                &set,
                &reference,
                &packet.payload,
                &cuts,
                &format!("horizon-{horizon}/{kind}"),
            );
        }
    }
}

/// `nocase` sets: the ASCII fold is applied *before* classification,
/// so the shuffle tables and the cover see folded bytes — mixed-case
/// occurrences must land identically with simd on and off.
#[test]
fn nocase_conformance() {
    let set = PatternSet::new_nocase([
        b"User-Agent:".as_slice(),
        b"EVIL/1.0",
        b"malware.exe",
        b"GET /admin",
        b"xHeLLoX",
    ])
    .unwrap();
    let stacks = build_stacks(&set, AnchorSet::DEFAULT_HORIZON);
    let mut payload = Vec::new();
    let mut gen = TrafficGenerator::new(0x0CA5);
    for case in [
        b"user-agent: EVIL/1.0\r\n".as_slice(),
        b"USER-AGENT: evil/1.0\r\n",
        b"get /ADMIN MALWARE.EXE xhellox",
        b"GeT /aDmIn MaLwArE.eXe XHELLOX",
    ] {
        payload.extend_from_slice(&gen.clean_packet(512).payload);
        payload.extend_from_slice(case);
    }
    let reference = dtp_reference(&set, &payload);
    assert!(!reference.is_empty(), "mixed-case occurrences must match");
    assert_matrix_conforms(&stacks, &set, &reference, &payload, &[], "nocase whole");
    let cuts: Vec<usize> = (1..payload.len() / 16).map(|i| i * 16 + 1).collect();
    assert_matrix_conforms(&stacks, &set, &reference, &payload, &cuts, "nocase cut");
}

/// `ShardedMatcher` streamed under ragged cuts, on the lanes the build
/// carries: per-shard anchor sets each carry their own cover; the merge
/// must stay byte-identical. (The scalar sharded path is the portable
/// build's.)
#[test]
fn sharded_conformance() {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let mut gen = TrafficGenerator::new(0x5AD3);
    let packet = gen.infected_packet(8192, &set, 16);
    let reference = dtp_reference(&set, &packet.payload);
    for cores in [1usize, 3] {
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(cores))
            .expect("300 rules fit the default budget");
        let cuts = gen.chop_points(&packet, &set, ChopProfile::Random { min: 3, max: 113 });
        let segments = chop(&packet.payload, &cuts);
        let mut scratch = sharded.scratch();
        let mut flow = sharded.flow_state();
        let mut got = Vec::new();
        for seg in &segments {
            sharded.scan_chunk_into(&mut flow, seg, &mut scratch, &mut got);
        }
        assert_eq!(got, reference, "sharded(cores={cores}) diverged");
    }
}

/// Adversarial `SegmentProfile` schedules through a `FlowTable`: the
/// reassembly layer feeds the simd lanes restart-heavy chunk shapes
/// (hole skips reset the scan state mid-stream); simd on/off and the
/// whole-payload reference must all agree.
#[test]
fn reassembly_segment_profiles_conformance() {
    let set = extract_preserving(&master_ruleset(), 150, 0x6E0);
    let stacks = build_stacks(&set, AnchorSet::DEFAULT_HORIZON);
    let mut gen = TrafficGenerator::new(0xF10E);

    for profile in [
        SegmentProfile::InOrder,
        SegmentProfile::Reorder { window: 4 },
        SegmentProfile::Retransmit { every: 3 },
        SegmentProfile::OverlapConsistent { extend: 12 },
        SegmentProfile::OverlapConflicting { extend: 12 },
    ] {
        let packet = gen.infected_packet(2048, &set, 5);
        let schedule: Vec<Segment> =
            gen.segment_schedule(&packet, &set, ChopProfile::MidPattern { mtu: 200 }, profile);
        let reference = dtp_reference(&set, &packet.payload);

        for simd in [false, true] {
            let matcher = CompiledMatcher::new(&stacks[2].1, &set).with_simd(simd);
            let template = StreamFlow::new(ReassemblyConfig::new(4096), ScanState::fresh());
            let mut table = FlowTable::new(16, template);
            let mut alerts = Vec::new();
            let mut got: Vec<Match> = Vec::new();
            for seg in &schedule {
                table.ingest_segments(
                    [FlowSegment {
                        key: FlowKey(7),
                        seq: seg.seq,
                        payload: &seg.bytes,
                    }],
                    |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
                    &mut alerts,
                );
                got.extend(alerts.iter().map(|a| a.matched));
            }
            table.flush_flows(
                |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
                &mut alerts,
            );
            got.extend(alerts.iter().map(|a| a.matched));
            assert_eq!(got, reference, "simd={simd} diverged under {profile:?}");
        }
    }
}

/// Table-model pinning (feature `simd` only): the shuffle tables and
/// the nibble-box cover checked against the exact `AnchorSet` bitmaps
/// over the full key space.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod table_models {
    use super::*;
    use dpi_accel::automaton::simd::{PairCover, SimdToken};
    use proptest::prelude::*;

    fn diverse_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..10), 1..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For any pattern set and horizon: (a) the candidate shuffle
        /// tables equal the skip bitmap exactly on all 256 bytes;
        /// (b) a cover built from the danger relation flags every
        /// danger pair — one-sided soundness — across all 256×256
        /// byte-valued keys (row 256, HIST_NONE, is excluded by
        /// design: the lane settles the entry byte with the exact
        /// bitmap before any vector probe); (c) the carried
        /// `simd_danger()` cover, when the profitability gate admits
        /// one, satisfies the same superset property.
        #[test]
        fn tables_model_anchor_bitmaps(
            patterns in diverse_patterns(),
            horizon in prop_oneof![Just(0u8), Just(1u8), Just(2u8)],
        ) {
            let Ok(set) = PatternSet::new(&patterns) else { return Ok(()) };
            let dfa = Dfa::build(&set);
            let anchors = AnchorSet::build(&dfa, &set, horizon);

            // (a) candidate tables ≡ !skippable, exactly.
            let cand = anchors.simd_candidates();
            for b in 0..=255u8 {
                prop_assert_eq!(
                    cand.model_contains(b),
                    !anchors.is_skippable(b),
                    "candidate table wrong at byte {:#04x}", b
                );
            }

            // (b) fresh cover over the exact danger relation.
            let cover = PairCover::build(|p, c| anchors.is_danger(p as u32, c));
            let mut dangers = 0usize;
            for p in 0..=255u8 {
                for c in 0..=255u8 {
                    if anchors.is_danger(p as u32, c) {
                        dangers += 1;
                        prop_assert!(
                            cover.model_flags(p, c),
                            "cover missed danger pair ({:#04x}, {:#04x})", p, c
                        );
                    }
                }
            }
            let density = dangers as f64 / (256.0 * 256.0);
            prop_assert!(cover.coverage() >= density - 1e-12);
            prop_assert!(cover.coverage() <= 1.0);

            // (c) the production-carried cover, when admitted.
            if let Some(cover) = anchors.simd_danger() {
                prop_assert!(cover.coverage() <= AnchorSet::SIMD_COVER_MAX_COVERAGE);
                for p in 0..=255u8 {
                    for c in 0..=255u8 {
                        if anchors.is_danger(p as u32, c) {
                            prop_assert!(cover.model_flags(p, c));
                        }
                    }
                }
            }
        }
    }

    /// The vector kernels against the models they implement, with the
    /// production 300-rule tables (not synthetic predicates): on a
    /// pseudorandom buffer, `danger_scan`'s flag word must equal the
    /// per-position model, and the membership masks must equal the
    /// candidate model byte-for-byte.
    #[test]
    fn kernels_match_models_on_production_tables() {
        let Some(token) = SimdToken::detect() else {
            eprintln!("no SSSE3 — kernel/model differential skipped");
            return;
        };
        let set = extract_preserving(&master_ruleset(), 300, 42);
        let dfa = Dfa::build(&set);
        let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
        let Some(cover) = anchors.simd_danger() else {
            eprintln!("profitability gate rejected the 300-rule cover?");
            return;
        };

        // Deterministic xorshift buffer.
        let mut x = 0x2545F4914F6CDD1Du64;
        let buf: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();

        let mut i = 1usize;
        while i + token.scan_width() <= buf.len() {
            let (base, flags) = token.danger_scan(cover, &buf, i);
            assert!(base >= i);
            // Every position the model flags inside the probed window
            // must be set in the flag word, and vice versa.
            for k in 0..token.scan_width() {
                let j = base + k;
                if j >= buf.len() {
                    break;
                }
                let model = cover.model_flags(buf[j - 1], buf[j]);
                let got = flags & (1 << k) != 0;
                assert_eq!(got, model, "flag mismatch at {j} (base {base})");
            }
            // Consumed positions (i..base) must be model-clean.
            for j in i..base {
                assert!(
                    !cover.model_flags(buf[j - 1], buf[j]),
                    "danger_scan consumed a flagged position {j}"
                );
            }
            i = if flags == 0 {
                base.max(i + 1)
            } else {
                base + flags.trailing_zeros() as usize + 1
            };
        }

        let tables = anchors.simd_candidates();
        for w in (1..buf.len() - 32).step_by(97) {
            let m16 = token.member_mask16(tables, buf[w..w + 16].try_into().unwrap());
            let m32 = token.member_mask32(tables, buf[w..w + 32].try_into().unwrap());
            for k in 0..32usize {
                let model = tables.model_contains(buf[w + k]);
                if k < 16 {
                    assert_eq!(m16 & (1 << k) != 0, model, "mask16 bit {k} at {w}");
                }
                assert_eq!(m32 & (1 << k) != 0, model, "mask32 bit {k} at {w}");
            }
        }
    }
}
