//! Stride-2 lane equivalence suite: the region pair rows must be
//! *scan-invisible*.
//!
//! For every workload shape — clean, infected and adversarial payloads,
//! whole or packetized under every [`ChopProfile`] (including cuts at
//! odd stream offsets and inside calm-pair windows), case-sensitive and
//! nocase, at every anchor horizon — an automaton compiled with the
//! region pair rows must report byte-for-byte the matches of the same
//! reduced automaton compiled with anchors only and compiled bare, which
//! in turn equal the reference matchers. Covers [`CompiledMatcher`] and
//! [`ShardedMatcher`].

use dpi_accel::automaton::NaiveMatcher;
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{
    adversarial_payload, chop, extract_preserving, master_ruleset, ChopProfile,
};
use proptest::prelude::*;

/// One reduced automaton and the three lane stacks compiled from it.
struct Stacks {
    reduced: ReducedAutomaton,
    /// Compiled bare: the plain byte stepper.
    bare: CompiledAutomaton,
    /// Anchors at the horizon: the skip lane alone.
    lane: CompiledAutomaton,
    /// Anchors plus the region pair rows, where the set's calm density
    /// attaches them.
    paired: CompiledAutomaton,
}

/// Compiles `set` bare, with anchors at `horizon`, and with anchors plus
/// the region pair rows.
fn build(set: &PatternSet, horizon: u8) -> Stacks {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, set, horizon);
    let pairs = PairTable::build(&dfa, set, &anchors);
    Stacks {
        bare: CompiledAutomaton::compile(&reduced),
        lane: CompiledAutomaton::compile_with_prefilter(&reduced, anchors.clone(), None),
        paired: CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs),
        reduced,
    }
}

/// Lane + pairs ≡ lane only ≡ bare stepper ≡ DtpMatcher on generated
/// traffic, across horizons.
#[test]
fn generated_traffic_equivalence_across_horizons_and_budgets() {
    let master = master_ruleset();
    for n in [40usize, 300] {
        let set = extract_preserving(&master, n, 42);
        let mut gen = TrafficGenerator::new(7);
        let clean = gen.clean_packet(16 << 10).payload;
        let infected = gen.infected_packet(16 << 10, &set, 24).payload;
        let crafted = adversarial_payload(&set, 4 << 10);
        for horizon in 0..=AnchorSet::MAX_HORIZON {
            let stacks = build(&set, horizon);
            let dtp = DtpMatcher::new(&stacks.reduced, &set);
            let both = CompiledMatcher::new(&stacks.paired, &set);
            let lane_only = CompiledMatcher::new(&stacks.lane, &set);
            let stepper = CompiledMatcher::new(&stacks.bare, &set);
            for (label, payload) in
                [("clean", &clean), ("infected", &infected), ("adversarial", &crafted)]
            {
                let want = dtp.find_all(payload);
                for (name, m) in [
                    ("lane+pairs", &both),
                    ("lane-only", &lane_only),
                    ("stepper", &stepper),
                ] {
                    assert_eq!(
                        m.find_all(payload),
                        want,
                        "{name} diverged (n={n} h={horizon} {label})"
                    );
                    assert_eq!(m.count(payload), want.len());
                    assert_eq!(m.is_match(payload), !want.is_empty());
                }
            }
        }
    }
}

/// Every chop profile resumed through one `ScanState`, with the cut
/// offsets forced **odd** so pair alignment never coincides with the
/// packetization, equals the whole-payload reference — for the pair
/// lane, the anchor lane, and the sharded matcher, including chunks
/// alternating between the paired, anchor-only and byte-stepper
/// automata.
#[test]
fn odd_offset_chop_profiles_with_alternating_resume() {
    let master = master_ruleset();
    let set = extract_preserving(&master, 120, 9);
    let stacks = build(&set, AnchorSet::DEFAULT_HORIZON);
    let dtp = DtpMatcher::new(&stacks.reduced, &set);
    let on = CompiledMatcher::new(&stacks.paired, &set);
    let off = CompiledMatcher::new(&stacks.lane, &set);
    let stepper = CompiledMatcher::new(&stacks.bare, &set);
    assert!(stacks.paired.pairs().is_some() && stacks.lane.pairs().is_none());
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
    assert!(sharded.shard_pairs(0).is_some());
    let mut gen = TrafficGenerator::new(11);
    let packet = gen.infected_packet(6 << 10, &set, 12);
    let whole = dtp.find_all(&packet.payload);
    for profile in [
        ChopProfile::Mtu(1500),
        ChopProfile::Mtu(64),
        ChopProfile::SingleByte,
        ChopProfile::Random { min: 1, max: 48 },
        ChopProfile::MidPattern { mtu: 900 },
    ] {
        // Force every interior cut to an odd stream offset (the
        // stride-2 lane consumes pairs from wherever the scan stands,
        // so odd suspension points are the interesting ones).
        let mut cuts: Vec<usize> = gen
            .chop_points(&packet, &set, profile)
            .into_iter()
            .map(|c| c | 1)
            .filter(|&c| c < packet.payload.len())
            .collect();
        cuts.dedup();
        assert!(cuts.iter().all(|c| c % 2 == 1));
        let segments = chop(&packet.payload, &cuts);

        for (name, m) in [("lane+pairs", &on), ("lane-only", &off)] {
            let mut state = ScanState::fresh();
            let mut got = Vec::new();
            for seg in &segments {
                m.scan_chunk_into(&mut state, seg, &mut got);
            }
            assert_eq!(got, whole, "{name} diverged under odd {profile:?}");
            assert_eq!(state.offset, packet.payload.len() as u64);
        }

        // Alternating stride-2 / byte-stepper resume: a state suspended
        // by the pair lane must resume exactly under the anchor lane, the
        // bare stepper and the reference, and vice versa.
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            match i % 4 {
                0 => on.scan_chunk_into(&mut state, seg, &mut got),
                1 => off.scan_chunk_into(&mut state, seg, &mut got),
                2 => stepper.scan_chunk_into(&mut state, seg, &mut got),
                _ => dtp.scan_chunk_into(&mut state, seg, &mut got),
            }
        }
        assert_eq!(got, whole, "alternating resume diverged under odd {profile:?}");

        let mut flow = sharded.flow_state();
        let mut scratch = sharded.scratch();
        let mut got = Vec::new();
        for seg in &segments {
            sharded.scan_chunk_into(&mut flow, seg, &mut scratch, &mut got);
        }
        assert_eq!(got, whole, "sharded pairs diverged under odd {profile:?}");
    }
    for &(id, end) in &packet.injected {
        assert!(whole.iter().any(|m| m.pattern == id && m.end == end));
    }
}

/// Cuts inside calm-pair windows and mid-pair: a payload engineered so
/// the stride-2 walk is mid-flight at every split point.
#[test]
fn cuts_inside_calm_windows_and_mid_pair() {
    let set = PatternSet::new(["hers", "she", "attack", "x"]).unwrap();
    let stacks = build(&set, AnchorSet::DEFAULT_HORIZON);
    assert!(stacks.paired.pairs().is_some());
    let m = CompiledMatcher::new(&stacks.paired, &set);
    // Candidate-but-calm text around the patterns keeps the walk in
    // stride-2 mode (never the SWAR window).
    let payload = b"the quiet theme there hers the quiet theme attack x end".to_vec();
    let whole = m.find_all(&payload);
    assert!(whole.len() >= 3);
    for cut in 0..=payload.len() {
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        m.scan_chunk_into(&mut state, &payload[..cut], &mut got);
        m.scan_chunk_into(&mut state, &payload[cut..], &mut got);
        assert_eq!(got, whole, "cut at {cut} diverged");
    }
    // Three-way splits with both boundaries odd.
    for (a, b) in [(3usize, 17usize), (7, 9), (1, 31)] {
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        m.scan_chunk_into(&mut state, &payload[..a], &mut got);
        m.scan_chunk_into(&mut state, &payload[a..b], &mut got);
        m.scan_chunk_into(&mut state, &payload[b..], &mut got);
        assert_eq!(got, whole, "splits at {a}/{b} diverged");
    }
}

/// A chunk boundary between a danger hit and the lane-register
/// rebuild: the anchor lane exits where `is_danger(prev, byte)` fires,
/// then rebuilds its history registers from the bytes just behind the
/// exit before the stepper takes over. Splitting the payload exactly
/// at the danger byte and exactly one past it puts the suspend/resume
/// seam inside that exit→rebuild window, while rotating the lane stack
/// per chunk (as in `rotating_pair_mode_resume`) so every stack has to
/// resume from a seam another stack produced.
#[test]
fn danger_exit_rebuild_boundary_alignment() {
    let set = extract_preserving(&master_ruleset(), 120, 0x77);
    let dfa = Dfa::build(&set);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    let stacks = build(&set, AnchorSet::DEFAULT_HORIZON);
    let mut gen = TrafficGenerator::new(0xD4E);
    let payload = gen.infected_packet(1536, &set, 6).payload;
    let both = CompiledMatcher::new(&stacks.paired, &set);
    let lane = CompiledMatcher::new(&stacks.lane, &set);
    let stepper = CompiledMatcher::new(&stacks.bare, &set);
    let whole = NaiveMatcher::new(&set).find_all(&payload);
    assert_eq!(both.find_all(&payload), whole);

    // Every position where the streamed history raises danger.
    let exits: Vec<usize> = (1..payload.len() - 2)
        .filter(|&j| anchors.is_danger(payload[j - 1] as u32, payload[j]))
        .collect();
    assert!(!exits.is_empty(), "payload never leaves the lane");
    let rotation: [&CompiledMatcher; 3] = [&both, &lane, &stepper];
    for &j in &exits {
        // Cut at the danger byte and one past it: chunk 2 is the
        // single byte whose consumption is the lane exit, so the
        // rebuild's look-behind spans both seams.
        for cuts in [[j, j + 1], [j, j + 2], [j + 1, j + 2]] {
            let segments = chop(&payload, &cuts);
            let mut state = ScanState::fresh();
            let mut got = Vec::new();
            for (i, seg) in segments.iter().enumerate() {
                rotation[i % 3].scan_chunk_into(&mut state, seg, &mut got);
            }
            assert_eq!(got, whole, "exit at {j}, cuts {cuts:?} diverged");
        }
    }
}

/// Nocase: the fold is baked into both axes of every pair table, so
/// mixed-case payloads classify identically to the folded scan.
#[test]
fn nocase_pair_lane_equivalence() {
    let set = PatternSet::new_nocase(["Attack", "GET /", "hers", "Z"]).unwrap();
    for horizon in 0..=AnchorSet::MAX_HORIZON {
        let stacks = build(&set, horizon);
        assert!(stacks.paired.pairs().is_some(), "h={horizon}");
        let dtp = DtpMatcher::new(&stacks.reduced, &set);
        let on = CompiledMatcher::new(&stacks.paired, &set);
        let lane_only = CompiledMatcher::new(&stacks.lane, &set);
        for payload in [
            &b"ATTACK at dawn: get / HeRs aTtAcK z"[..],
            b"zzzzZZZZzzzzZZZZattackZZZZ",
            b"GeT /index gEt hers HERS Z z",
        ] {
            let want = dtp.find_all(payload);
            assert_eq!(on.find_all(payload), want, "h={horizon}");
            assert_eq!(lane_only.find_all(payload), want, "h={horizon}");
        }
    }
}

fn mixed_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'z')],
            1..6,
        ),
        1..8,
    )
}

fn mixed_payload(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'z'),
            Just(b'z'),
            Just(b'z'),
            Just(b'a'),
            Just(b'a'),
            Just(b'b'),
            Just(b'c'),
            Just(b'x'),
        ],
        0..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any packetization, any horizon: the stride-2 lane and the anchor
    /// lane stream exactly the naive whole-payload scan.
    #[test]
    fn pair_lane_streaming_equivalence(
        patterns in mixed_patterns(),
        payload in mixed_payload(160),
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..24),
        horizon in 0..3u8,
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let naive = NaiveMatcher::new(&set).find_all(&payload);
        let mut cuts: Vec<usize> = if payload.len() < 2 {
            Vec::new()
        } else {
            raw_cuts.iter().map(|i| 1 + i.index(payload.len() - 1)).collect()
        };
        cuts.sort_unstable();
        cuts.dedup();
        let segments = chop(&payload, &cuts);

        let stacks = build(&set, horizon);
        for (name, m) in [
            ("lane+pairs", CompiledMatcher::new(&stacks.paired, &set)),
            ("lane-only", CompiledMatcher::new(&stacks.lane, &set)),
        ] {
            let mut state = ScanState::fresh();
            let mut got = Vec::new();
            for seg in &segments {
                m.scan_chunk_into(&mut state, seg, &mut got);
            }
            prop_assert_eq!(&got, &naive, "{} h={} cuts {:?}", name, horizon, cuts);
            prop_assert_eq!(m.find_all(&payload), naive.clone());
            prop_assert_eq!(m.is_match(&payload), !naive.is_empty());
        }
    }

    /// Suspended states are interchangeable between the pair lane, the
    /// anchor lane, and the bare byte stepper — rotating per chunk still
    /// equals the whole-payload scan.
    #[test]
    fn rotating_pair_mode_resume(
        patterns in mixed_patterns(),
        payload in mixed_payload(120),
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..12),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let naive = NaiveMatcher::new(&set).find_all(&payload);
        let mut cuts: Vec<usize> = if payload.len() < 2 {
            Vec::new()
        } else {
            raw_cuts.iter().map(|i| 1 + i.index(payload.len() - 1)).collect()
        };
        cuts.sort_unstable();
        cuts.dedup();
        let segments = chop(&payload, &cuts);
        let stacks = build(&set, AnchorSet::DEFAULT_HORIZON);
        let both = CompiledMatcher::new(&stacks.paired, &set);
        let lane = CompiledMatcher::new(&stacks.lane, &set);
        let stepper = CompiledMatcher::new(&stacks.bare, &set);
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            match i % 3 {
                0 => both.scan_chunk_into(&mut state, seg, &mut got),
                1 => lane.scan_chunk_into(&mut state, seg, &mut got),
                _ => stepper.scan_chunk_into(&mut state, seg, &mut got),
            }
        }
        prop_assert_eq!(got, naive, "rotation diverged at {:?}", cuts);
    }
}
