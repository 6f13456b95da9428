//! Prefilter equivalence suite: the anchor-byte fast lane must be
//! *scan-invisible*.
//!
//! For every workload shape we can produce — clean, infected and
//! adversarial payloads, whole or packetized under every [`ChopProfile`]
//! (including cuts landing inside a SWAR skip window), case-sensitive
//! and nocase, at every supported anchor horizon — an automaton compiled
//! with the prefilter must report byte-for-byte the matches of the same
//! reduced automaton compiled without it, which in turn equal the
//! reference matchers.
//! Covers [`CompiledMatcher`] and [`ShardedMatcher`], plus the
//! flow-table ingest path the lane composes with.

use dpi_accel::automaton::{AnchorSet, NaiveMatcher};
use dpi_accel::core::{FlowKey, FlowPacket, FlowTable};
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{
    adversarial_payload, chop, extract_preserving, master_ruleset, ChopProfile,
};
use proptest::prelude::*;

/// Compiles `set` with prefilter tables at `horizon` (plus the reference
/// reduced automaton).
fn build(set: &PatternSet, horizon: u8) -> (Dfa, ReducedAutomaton, CompiledAutomaton) {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, set, horizon);
    let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, None);
    (dfa, reduced, compiled)
}

/// Anchored ≡ bare ≡ DtpMatcher on every generated traffic profile, at
/// every horizon, for two ruleset sizes.
#[test]
fn generated_traffic_equivalence_across_horizons() {
    let master = master_ruleset();
    for n in [40usize, 300] {
        let set = extract_preserving(&master, n, 42);
        let mut gen = TrafficGenerator::new(7);
        let clean = gen.clean_packet(16 << 10).payload;
        let infected = gen.infected_packet(16 << 10, &set, 24).payload;
        let crafted = adversarial_payload(&set, 4 << 10);
        for horizon in 0..=AnchorSet::MAX_HORIZON {
            let (_, reduced, compiled) = build(&set, horizon);
            assert!(compiled.prefilter().is_some());
            let bare = CompiledAutomaton::compile(&reduced);
            let on = CompiledMatcher::new(&compiled, &set);
            let off = CompiledMatcher::new(&bare, &set);
            let dtp = DtpMatcher::new(&reduced, &set);
            for (label, payload) in
                [("clean", &clean), ("infected", &infected), ("adversarial", &crafted)]
            {
                let want = dtp.find_all(payload);
                assert_eq!(
                    on.find_all(payload),
                    want,
                    "prefilter-on diverged (n={n} h={horizon} {label})"
                );
                assert_eq!(
                    off.find_all(payload),
                    want,
                    "prefilter-off diverged (n={n} h={horizon} {label})"
                );
                assert_eq!(on.count(payload), want.len());
                assert_eq!(on.is_match(payload), !want.is_empty());
            }
        }
    }
}

/// Packetized streams: every chop profile (MTU, single-byte, random,
/// forced mid-pattern cuts) resumed through one `ScanState` equals the
/// whole-payload scan — prefilter on, for the compiled and sharded
/// matchers.
#[test]
fn chop_profile_streaming_equivalence() {
    let master = master_ruleset();
    let set = extract_preserving(&master, 120, 9);
    let (_, reduced, compiled) = build(&set, AnchorSet::DEFAULT_HORIZON);
    let bare = CompiledAutomaton::compile(&reduced);
    let on = CompiledMatcher::new(&compiled, &set);
    let off = CompiledMatcher::new(&bare, &set);
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
    let mut gen = TrafficGenerator::new(11);
    let packet = gen.infected_packet(6 << 10, &set, 12);
    let whole = off.find_all(&packet.payload);
    for profile in [
        ChopProfile::Mtu(1500),
        ChopProfile::Mtu(64),
        ChopProfile::SingleByte,
        ChopProfile::Random { min: 1, max: 48 },
        ChopProfile::MidPattern { mtu: 900 },
    ] {
        let cuts = gen.chop_points(&packet, &set, profile);
        let segments = chop(&packet.payload, &cuts);
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for seg in &segments {
            on.scan_chunk_into(&mut state, seg, &mut got);
        }
        assert_eq!(got, whole, "compiled prefilter diverged under {profile:?}");
        assert_eq!(state.offset, packet.payload.len() as u64);

        let mut flow = sharded.flow_state();
        let mut scratch = sharded.scratch();
        let mut got = Vec::new();
        for seg in &segments {
            sharded.scan_chunk_into(&mut flow, seg, &mut scratch, &mut got);
        }
        assert_eq!(got, whole, "sharded prefilter diverged under {profile:?}");
    }
    // Ground truth: every injected occurrence is in the whole-scan set.
    for &(id, end) in &packet.injected {
        assert!(whole.iter().any(|m| m.pattern == id && m.end == end));
    }
}

/// Cuts landing *inside* a SWAR skip window: a long skippable run split
/// at every offset must resume mid-skip (state suspends on START with
/// the run-tail history) and still find the pattern straddling or
/// following the run.
#[test]
fn cuts_inside_swar_skip_windows() {
    let set = PatternSet::new(["hers", "she", "attack"]).unwrap();
    let (dfa, _, compiled) = build(&set, AnchorSet::DEFAULT_HORIZON);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    let skip_byte = (0u8..=255)
        .find(|&b| anchors.is_skippable(b))
        .expect("tiny set has skippable bytes");
    assert!(compiled.prefilter().is_some());
    let m = CompiledMatcher::new(&compiled, &set);
    // run(32) + "hers" + run(32) + "attack": skip windows on both sides.
    let mut payload = vec![skip_byte; 32];
    payload.extend_from_slice(b"hers");
    payload.extend(vec![skip_byte; 32]);
    payload.extend_from_slice(b"attack");
    let whole = m.find_all(&payload);
    assert_eq!(whole.len(), 2);
    for cut in 0..=payload.len() {
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        m.scan_chunk_into(&mut state, &payload[..cut], &mut got);
        m.scan_chunk_into(&mut state, &payload[cut..], &mut got);
        assert_eq!(got, whole, "cut at {cut} diverged");
    }
    // Three-way splits inside the first run: both boundaries mid-skip.
    for (a, b) in [(3usize, 17usize), (8, 9), (1, 31)] {
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        m.scan_chunk_into(&mut state, &payload[..a], &mut got);
        m.scan_chunk_into(&mut state, &payload[a..b], &mut got);
        m.scan_chunk_into(&mut state, &payload[b..], &mut got);
        assert_eq!(got, whole, "splits at {a}/{b} diverged");
    }
}

/// Nocase sets: the fold is baked into the anchor tables, so mixed-case
/// payloads must classify identically to the folded scan.
#[test]
fn nocase_prefilter_equivalence() {
    let set = PatternSet::new_nocase(["Attack", "GET /", "hers"]).unwrap();
    for horizon in 0..=AnchorSet::MAX_HORIZON {
        let (_, reduced, compiled) = build(&set, horizon);
        let on = CompiledMatcher::new(&compiled, &set);
        let dtp = DtpMatcher::new(&reduced, &set);
        for payload in [
            &b"ATTACK at dawn: get / HeRs aTtAcK"[..],
            b"zzzzZZZZzzzzZZZZattackZZZZ",
            b"GeT /index gEt hers HERS",
        ] {
            assert_eq!(on.find_all(payload), dtp.find_all(payload), "h={horizon}");
        }
    }
}

/// The flow-table ingest path with a prefiltered sharded matcher:
/// interleaved flows, per-flow results equal whole-payload scans.
#[test]
fn flow_table_ingest_with_prefiltered_sharded_matcher() {
    let master = master_ruleset();
    let set = extract_preserving(&master, 80, 3);
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
    let mut gen = TrafficGenerator::new(21);
    let flows: Vec<Vec<u8>> = (0..4)
        .map(|i| gen.infected_packet(2048, &set, 2 + i).payload)
        .collect();
    let segmented: Vec<Vec<&[u8]>> = flows.iter().map(|f| f.chunks(97).collect()).collect();
    let counts: Vec<usize> = segmented.iter().map(Vec::len).collect();
    let schedule = gen.interleave_schedule(&counts);
    let mut table = FlowTable::new(64, sharded.flow_state());
    let mut scratch = sharded.scratch();
    let mut cursors = vec![0usize; flows.len()];
    let mut per_flow: Vec<Vec<Match>> = vec![Vec::new(); flows.len()];
    let mut alerts = Vec::new();
    for &f in &schedule {
        let packet = FlowPacket {
            key: FlowKey(f as u128 + 1),
            payload: segmented[f][cursors[f]],
        };
        cursors[f] += 1;
        table.ingest_batch(
            [packet],
            |state, chunk, out| sharded.scan_chunk_into(state, chunk, &mut scratch, out),
            &mut alerts,
        );
        per_flow[f].extend(alerts.iter().map(|a| a.matched));
    }
    let mut plain = sharded.scratch();
    for (f, flow) in flows.iter().enumerate() {
        let mut want = Vec::new();
        sharded.scan_into(flow, &mut plain, &mut want);
        assert_eq!(per_flow[f], want, "flow {f} diverged through the table");
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

/// Payload alphabet wider than the patterns': 'x'..'z' runs are mostly
/// skippable, so SWAR windows, lane walks and stepper excursions all
/// exercise; 'a'..'c' regions stress lane exits.
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

    /// Any packetization, any horizon: prefilter-on streaming equals the
    /// naive whole-payload scan for compiled and sharded matchers.
    #[test]
    fn prefilter_streaming_equivalence(
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

        let (_, _, compiled) = build(&set, horizon);
        prop_assert!(compiled.prefilter().is_some());
        let m = CompiledMatcher::new(&compiled, &set);
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for seg in &segments {
            m.scan_chunk_into(&mut state, seg, &mut got);
        }
        prop_assert_eq!(&got, &naive, "compiled h={} cuts {:?}", horizon, cuts);
        prop_assert_eq!(m.find_all(&payload), naive.clone());
        prop_assert_eq!(m.is_match(&payload), !naive.is_empty());

        let mut config = ShardedConfig::with_cores(2);
        config.anchor_horizon = horizon;
        let sharded = ShardedMatcher::build(&set, &config).unwrap();
        let mut flow = sharded.flow_state();
        let mut scratch = sharded.scratch();
        let mut got = Vec::new();
        for seg in &segments {
            sharded.scan_chunk_into(&mut flow, seg, &mut scratch, &mut got);
        }
        prop_assert_eq!(&got, &naive, "sharded h={} cuts {:?}", horizon, cuts);
    }

    /// Suspended states are interchangeable between the anchored and
    /// bare automata: alternating per chunk must still equal the whole.
    #[test]
    fn alternating_prefilter_resume(
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
        let (_, reduced, compiled) = build(&set, AnchorSet::DEFAULT_HORIZON);
        let bare = CompiledAutomaton::compile(&reduced);
        let on = CompiledMatcher::new(&compiled, &set);
        let off = CompiledMatcher::new(&bare, &set);
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            if i % 2 == 0 {
                on.scan_chunk_into(&mut state, seg, &mut got);
            } else {
                off.scan_chunk_into(&mut state, seg, &mut got);
            }
        }
        prop_assert_eq!(got, naive, "alternating diverged at {:?}", cuts);
    }
}
