//! Streaming equivalence suite: the defining property of the resumable
//! scan core.
//!
//! For every matcher with the resumable API (`CompiledMatcher`,
//! `ShardedMatcher`, the reference `DtpMatcher`, and the `DfaMatcher` /
//! `NfaMatcher` baselines), scanning any payload split at **arbitrary**
//! chunk boundaries through one `ScanState` must report exactly the same
//! `Match`es — same pattern ids, same absolute end offsets — as a single
//! whole-payload scan. That includes occurrences straddling chunk
//! boundaries and DTP depth-2/3 default transitions whose history bytes
//! live in the previous chunk.
//!
//! Also covered: the `FlowTable` pipeline with interleaved flows (flow
//! isolation + equivalence when no eviction occurs, graceful and *only*
//! boundary-local loss when state is evicted mid-flow).

use dpi_accel::automaton::NaiveMatcher;
use dpi_accel::core::{FlowKey, FlowPacket, FlowTable};
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{chop, extract_preserving, master_ruleset, ChopProfile};
use proptest::prelude::*;

/// Compiles `set` with anchors at the default horizon and, with
/// `pairs`, the full default fast-path stack: the region pair rows
/// where the set's calm density attaches them.
fn compiled_anchored(set: &PatternSet, pairs: bool) -> CompiledAutomaton {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, set, AnchorSet::DEFAULT_HORIZON);
    let table = if pairs {
        PairTable::build(&dfa, set, &anchors)
    } else {
        None
    };
    CompiledAutomaton::compile_with_prefilter(&reduced, anchors, table)
}

/// Splits `payload` at the (possibly ragged) cut offsets drawn from
/// `cuts` indices — the random packetization used by the properties.
fn cuts_from_indices(len: usize, raw: &[prop::sample::Index]) -> Vec<usize> {
    if len < 2 {
        return Vec::new();
    }
    let mut cuts: Vec<usize> = raw.iter().map(|i| 1 + i.index(len - 1)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Scans `payload` chunk-by-chunk through every resumable matcher and
/// asserts each equals the whole-payload reference.
fn streaming_agrees(patterns: Vec<Vec<u8>>, payload: Vec<u8>, cuts: Vec<usize>) {
    let Ok(set) = PatternSet::new(&patterns) else {
        return; // duplicates — not this suite's concern
    };
    let naive = NaiveMatcher::new(&set).find_all(&payload);
    let segments = chop(&payload, &cuts);

    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);

    // DFA baseline.
    let m = DfaMatcher::new(&dfa, &set);
    let mut state = ScanState::fresh();
    let mut got = Vec::new();
    for seg in &segments {
        m.scan_chunk_into(&mut state, seg, &mut got);
    }
    assert_eq!(got, naive, "dfa streaming diverged at cuts {cuts:?}");

    // NFA baseline.
    let nfa = Nfa::build(&set);
    let m = NfaMatcher::new(&nfa, &set);
    let mut state = ScanState::fresh();
    let mut got = Vec::new();
    for seg in &segments {
        m.scan_chunk_into(&mut state, seg, &mut got);
    }
    assert_eq!(got, naive, "nfa streaming diverged at cuts {cuts:?}");

    // Reference DTP matcher (history across boundaries).
    let dtp = DtpMatcher::new(&reduced, &set);
    let mut state = ScanState::fresh();
    let mut got = Vec::new();
    for seg in &segments {
        dtp.scan_chunk_into(&mut state, seg, &mut got);
    }
    assert_eq!(got, naive, "dtp streaming diverged at cuts {cuts:?}");
    assert_eq!(state.offset, payload.len() as u64);

    // Compiled fast path.
    let fast = CompiledMatcher::new(&compiled, &set);
    let mut state = ScanState::fresh();
    let mut got = Vec::new();
    for seg in &segments {
        fast.scan_chunk_into(&mut state, seg, &mut got);
    }
    assert_eq!(got, naive, "compiled streaming diverged at cuts {cuts:?}");

    // Anchor lane, with and without the stride-2 pair layer: pair
    // alignment is taken from wherever a chunk resumes, so every cut —
    // odd offsets included — exercises the suspend/resume path.
    let paired = compiled_anchored(&set, true);
    let lane = compiled_anchored(&set, false);
    for (name, m) in [
        ("lane+pairs", CompiledMatcher::new(&paired, &set)),
        ("lane-only", CompiledMatcher::new(&lane, &set)),
    ] {
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for seg in &segments {
            m.scan_chunk_into(&mut state, seg, &mut got);
        }
        assert_eq!(got, naive, "{name} streaming diverged at cuts {cuts:?}");
    }

    // A suspended compiled state must resume identically under the
    // reference matcher and vice versa (states are interchangeable
    // across implementations of the same automaton).
    if segments.len() >= 2 {
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            if i % 2 == 0 {
                fast.scan_chunk_into(&mut state, seg, &mut got);
            } else {
                dtp.scan_chunk_into(&mut state, seg, &mut got);
            }
        }
        assert_eq!(got, naive, "alternating matchers diverged at {cuts:?}");
    }

    // Sharded engine, a couple of core counts.
    for cores in [1usize, 3] {
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(cores))
            .expect("tiny sets fit the default budget");
        let mut scratch = sharded.scratch();
        let mut flow = sharded.flow_state();
        let mut got = Vec::new();
        for seg in &segments {
            sharded.scan_chunk_into(&mut flow, seg, &mut scratch, &mut got);
        }
        assert_eq!(
            got, naive,
            "sharded({cores}) streaming diverged at cuts {cuts:?}"
        );
    }
}

fn dense_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..6),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any packetization of any dense-alphabet payload is equivalent to
    /// the whole-payload scan, across every resumable matcher.
    #[test]
    fn random_packetization_equivalence(
        patterns in dense_patterns(),
        payload in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..160),
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..24),
    ) {
        let cuts = cuts_from_indices(payload.len(), &raw_cuts);
        streaming_agrees(patterns, payload, cuts);
    }

    /// Payloads built by concatenating the patterns themselves, split at
    /// every position in turn — matches are guaranteed and most splits
    /// land mid-pattern.
    #[test]
    fn mid_pattern_boundaries_equivalence(
        patterns in dense_patterns(),
        order in proptest::collection::vec(any::<prop::sample::Index>(), 1..5),
    ) {
        let mut payload = Vec::new();
        for idx in &order {
            payload.extend_from_slice(&patterns[idx.index(patterns.len())]);
        }
        for cut in 1..payload.len() {
            streaming_agrees(patterns.clone(), payload.clone(), vec![cut]);
        }
    }

    /// The degenerate 1-byte packetization (every boundary at once).
    #[test]
    fn single_byte_packetization_equivalence(
        patterns in dense_patterns(),
        payload in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..80),
    ) {
        let cuts: Vec<usize> = (1..payload.len()).collect();
        streaming_agrees(patterns, payload, cuts);
    }

    /// Interleaved flows through a FlowTable big enough to hold them:
    /// per-flow results must equal each flow's whole-payload scan — no
    /// state may leak between flows however their packets interleave.
    #[test]
    fn flow_table_isolation_and_equivalence(
        patterns in dense_patterns(),
        flows in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..60),
            1..5,
        ),
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..12),
        shuffle in proptest::collection::vec(any::<prop::sample::Index>(), 0..24),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let dfa = Dfa::build(&set);
        let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let compiled = CompiledAutomaton::compile(&reduced);
        let matcher = CompiledMatcher::new(&compiled, &set);

        // Chop each flow at random boundaries.
        let segmented: Vec<Vec<&[u8]>> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let slice = if i < raw_cuts.len() { &raw_cuts[i..] } else { &[][..] };
                chop(f, &cuts_from_indices(f.len(), slice))
            })
            .collect();
        // Deterministic interleave driven by the shuffle indices: pick a
        // flow with segments remaining per step.
        let mut cursors = vec![0usize; segmented.len()];
        let mut arrival: Vec<usize> = Vec::new();
        let total: usize = segmented.iter().map(Vec::len).sum();
        let mut s = 0usize;
        while arrival.len() < total {
            let live: Vec<usize> = (0..segmented.len())
                .filter(|&f| cursors[f] < segmented[f].len())
                .collect();
            let pick = if shuffle.is_empty() {
                0
            } else {
                shuffle[s % shuffle.len()].index(live.len())
            };
            s += 1;
            let flow = live[pick];
            cursors[flow] += 1;
            arrival.push(flow);
        }

        let mut table = FlowTable::new(64, ScanState::fresh());
        let mut cursors = vec![0usize; segmented.len()];
        let mut per_flow: Vec<Vec<Match>> = vec![Vec::new(); segmented.len()];
        let mut alerts = Vec::new();
        for &flow in &arrival {
            let packet = FlowPacket {
                key: FlowKey(flow as u128),
                payload: segmented[flow][cursors[flow]],
            };
            cursors[flow] += 1;
            table.ingest_batch(
                [packet],
                |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
                &mut alerts,
            );
            per_flow[flow].extend(alerts.iter().map(|f| f.matched));
        }
        prop_assert_eq!(table.stats().evictions, 0, "table was sized to hold all flows");
        for (flow, f) in flows.iter().enumerate() {
            let want = NaiveMatcher::new(&set).find_all(f);
            prop_assert_eq!(&per_flow[flow], &want, "flow {} diverged", flow);
        }
    }
}

/// Eviction mid-flow: state loss is bounded to occurrences straddling
/// the eviction point. Matches wholly inside packets after re-insertion
/// are still found; matches wholly before the eviction were already
/// reported.
#[test]
fn eviction_mid_flow_is_boundary_local() {
    let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);
    let matcher = CompiledMatcher::new(&compiled, &set);

    // Capacity-1 table: two interleaved flows evict each other on every
    // alternation.
    let mut table = FlowTable::with_ways(1, 1, ScanState::fresh());
    let (a, b) = (FlowKey(1), FlowKey(2));
    let packets = [
        FlowPacket { key: a, payload: b"ushe" }, // she/he complete at ..4
        FlowPacket { key: b, payload: b"hi" },   // evicts a
        FlowPacket { key: a, payload: b"rs" },   // "hers" straddled → lost
        FlowPacket { key: b, payload: b"s" },    // evicts a again; "his" straddled → lost
        FlowPacket { key: a, payload: b"hers" }, // whole within packet → found
    ];
    let mut alerts = Vec::new();
    let mut all = Vec::new();
    for p in packets {
        table.ingest_batch(
            [p],
            |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
            &mut alerts,
        );
        all.extend_from_slice(&alerts);
    }
    let a_pats: Vec<&[u8]> = all
        .iter()
        .filter(|f| f.key == a)
        .map(|f| set.pattern(f.matched.pattern))
        .collect();
    // Flow a: she+he from packet 1; packet 3 finds nothing (state lost);
    // packet 5 restarts and finds he+hers inside itself.
    assert_eq!(a_pats, vec![&b"he"[..], b"she", b"he", b"hers"]);
    // Flow b: "hi" then "s" — "his" straddles the eviction and is lost.
    assert!(all.iter().all(|f| f.key != b));
    assert!(table.stats().evictions >= 3);

    // Same traffic through a table with room for both flows: nothing is
    // lost, including the straddlers.
    let mut table = FlowTable::new(16, ScanState::fresh());
    let mut all = Vec::new();
    for p in packets {
        table.ingest_batch(
            [p],
            |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
            &mut alerts,
        );
        all.extend_from_slice(&alerts);
    }
    let a_matches: Vec<Match> = all.iter().filter(|f| f.key == a).map(|f| f.matched).collect();
    assert_eq!(a_matches, matcher.find_all(b"ushershers"));
    let b_matches: Vec<Match> = all.iter().filter(|f| f.key == b).map(|f| f.matched).collect();
    assert_eq!(b_matches, matcher.find_all(b"his"));
    assert_eq!(table.stats().evictions, 0);
}

/// End-to-end on realistic workload: a ruleset slice, generated infected
/// flows chopped adversarially (every injected occurrence cut
/// mid-pattern), sharded flow-batch scanning — every injected occurrence
/// must be reported at its exact stream offset.
#[test]
fn adversarial_packetization_on_generated_traffic() {
    let set = extract_preserving(&master_ruleset(), 150, 0x57E);
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);
    let whole = CompiledMatcher::new(&compiled, &set);

    let mut gen = TrafficGenerator::new(0xBEEF);
    let mut scratch = sharded.scratch();
    for profile in [
        ChopProfile::MidPattern { mtu: 256 },
        ChopProfile::SingleByte,
        ChopProfile::Mtu(1500),
        ChopProfile::Random { min: 1, max: 97 },
    ] {
        let packet = gen.infected_packet(2048, &set, 5);
        let cuts = gen.chop_points(&packet, &set, profile);
        let segments = chop(&packet.payload, &cuts);
        let mut flow = sharded.flow_state();
        let mut got = Vec::new();
        for seg in &segments {
            sharded.scan_chunk_into(&mut flow, seg, &mut scratch, &mut got);
        }
        let want = whole.find_all(&packet.payload);
        assert_eq!(got, want, "{profile:?} diverged from whole-payload scan");
        for &(id, end) in &packet.injected {
            assert!(
                got.iter().any(|m| m.pattern == id && m.end == end),
                "{profile:?} missed injected {id:?} at ..{end}"
            );
        }
    }
}
