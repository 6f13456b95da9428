//! Two-stage scan equivalence suite: the pre-classifier + windowed
//! verifier must be **observationally identical** to the single-stage
//! exact engine — same matches, same order, same stream offsets — under
//! every chunking an adversarial transport can produce, including cuts
//! strictly inside flagged windows (`ChopProfile::MidPattern` forces a
//! boundary inside every injected occurrence, which by construction
//! lies inside a flagged window).
//!
//! It pins both halves. The soundness half: every exact occurrence lies
//! inside some window of the stage-1 cover (`PrefixCover`), over drawn
//! rulesets, budgets and payloads, and the cover's flags do not depend
//! on chunking. The composition half: window replay through the sharded
//! engine loses nothing and invents nothing.

use dpi_accel::automaton::{ApproxConfig, ApproxState, NaiveMatcher, PrefixCover};
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{extract_preserving, master_ruleset, ChopProfile};
use proptest::prelude::*;

/// Every chop profile, including the two that cut inside flagged
/// windows (`SingleByte` cuts everywhere; `MidPattern` cuts inside
/// every injected occurrence).
fn chop_profiles() -> Vec<ChopProfile> {
    vec![
        ChopProfile::Mtu(1500),
        ChopProfile::Mtu(97),
        ChopProfile::SingleByte,
        ChopProfile::Random { min: 3, max: 211 },
        ChopProfile::MidPattern { mtu: 256 },
    ]
}

/// Streams `payload` through `matcher` in pieces, returning the
/// stream-absolute matches and final per-flow stats.
fn scan_chunked(
    matcher: &TwoStageMatcher,
    payload: &[u8],
    cuts: &[usize],
) -> (Vec<Match>, TwoStageStats) {
    let mut state = matcher.flow_state();
    let mut scratch = matcher.scratch();
    let mut out = Vec::new();
    let mut bounds = vec![0usize];
    bounds.extend_from_slice(cuts);
    bounds.push(payload.len());
    for pair in bounds.windows(2) {
        matcher.scan_chunk_into(&mut state, &payload[pair[0]..pair[1]], &mut scratch, &mut out);
    }
    matcher.finish_flow(&mut state, &mut out);
    (out, state.stats())
}

#[test]
fn two_stage_equals_single_stage_across_every_chop_profile() {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let exact = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
    // Two cover budgets: the default, and one so tight the cover
    // degenerates to depth 1 (maximum over-accept).
    let configs = [
        ShardedConfig::with_cores(2).two_stage(ApproxConfig::default()),
        ShardedConfig::with_cores(2).two_stage(ApproxConfig::with_budget(1)),
    ];
    let mut gen = TrafficGenerator::new(0x75_57A6E);
    for config in &configs {
        let two = TwoStageMatcher::build(&set, config).unwrap();
        // The verifier exists only for windows: the default cover
        // settles every flag in place, so nothing is compiled for
        // replay; the degenerate cover must window, so it keeps one
        // automaton, whatever shard count the exact config plans.
        if config.approx.budget_bytes == 1 {
            assert_eq!(
                two.exact().shard_count(),
                1,
                "a windowing cover replays through one verifier automaton"
            );
        } else {
            assert_eq!(two.exact().shard_count(), 0, "idle verifier compiled");
            assert_eq!(two.exact().memory_bytes(), 0);
        }
        for profile in chop_profiles() {
            let packet = gen.infected_packet(4096, &set, 6);
            let cuts = gen.chop_points(&packet, &set, profile);

            // Reference: the exact engine over the whole payload.
            let mut want = Vec::new();
            let mut scratch = exact.scratch();
            let mut st = exact.flow_state();
            exact.scan_chunk_into(&mut st, &packet.payload, &mut scratch, &mut want);

            let (got, stats) = scan_chunked(&two, &packet.payload, &cuts);
            assert_eq!(
                got, want,
                "cover with a {}-byte budget diverged under {profile:?}",
                config.approx.budget_bytes
            );
            for &(id, end) in &packet.injected {
                assert!(
                    got.iter().any(|m| m.pattern == id && m.end == end),
                    "missed injected {id:?} at ..{end} under {profile:?}"
                );
            }
            // Sanity on the counters the repro reports: replay windows
            // feed every stream byte at most once, and a confirm flag
            // examines at most one residual's worth — so stage-2 work
            // is bounded by the stream plus a longest-pattern read per
            // verification episode (stacked depth-1 flags may
            // re-examine overlapping bytes). Infected traffic must be
            // noticed by stage 1. Under the generous default budget the
            // cover holds every pattern whole, so injections surface as
            // exact stage-1 emissions with zero windows; only the
            // degenerate 1-byte budget is forced to verify.
            let longest = set.iter().map(|(_, p)| p.len() as u64).max().unwrap();
            assert!(
                stats.verified_bytes <= packet.payload.len() as u64 + stats.windows * longest
            );
            assert!(stats.flags > 0, "infected traffic must flag");
            if config.approx.budget_bytes == 1 {
                assert!(stats.windows > 0, "truncated covers must window");
            }
        }
    }
}

#[test]
fn clean_tls_traffic_stays_off_the_verifier() {
    // The fast-path claim behind the tentpole: long-span encrypted
    // traffic should flow through stage 1 with (near-)zero replay. A
    // loose bound — the generator is free to brush a rule stem once in
    // a while — but an order-of-magnitude regression fails loudly.
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let config = ShardedConfig::with_cores(2).two_stage(ApproxConfig::default());
    let matcher = TwoStageMatcher::build(&set, &config).unwrap();
    let stream = TrafficGenerator::new(9).tls_stream(1 << 18);
    let mut out = Vec::new();
    let mut scratch = matcher.scratch();
    let stats = matcher.scan_into(&stream.payload, &mut scratch, &mut out);
    assert!(
        stats.replay_fraction() < 0.20,
        "clean TLS replayed {:.1}% of the stream",
        100.0 * stats.replay_fraction()
    );
}

/// A windowing two-stage build, and a chunk at whose end its state
/// holds a found match: the one-byte pattern `z` ends inside an open
/// replay window's reach, so it waits behind the verify frontier.
fn held_match_fixture() -> (PatternSet, TwoStageConfig, TwoStageMatcher, Vec<u8>) {
    let mut patterns: Vec<String> = (0..10)
        .map(|i| format!("alpha-family-{i:02}-zebra"))
        .collect();
    patterns.push("z".to_string());
    let set = PatternSet::new(&patterns).unwrap();
    let config = ShardedConfig::with_cores(1).two_stage(ApproxConfig::with_budget(1));
    let two = TwoStageMatcher::build(&set, &config).unwrap();
    assert!(two.exact().shard_count() > 0, "the cover must window");
    let mut first = b"xx alpha-q".to_vec();
    first.extend_from_slice(&[b'-'; 30]);
    first.push(b'z');
    (set, config, two, first)
}

/// A mid-stream reset (hole-skip, shed resync, protocol downgrade)
/// keeps the matches a flow already found.
#[test]
fn reset_at_keeps_matches_waiting_on_the_verify_frontier() {
    use dpi_accel::core::FlowState;

    let (set, config, two, first) = held_match_fixture();
    let exact = ShardedMatcher::build(&set, &config.exact).unwrap();
    let second = b"zz alpha-family-04-zebra z";
    let resume = 100;

    let mut want = Vec::new();
    let mut st = exact.flow_state();
    let mut scratch = exact.scratch();
    exact.scan_chunk_into(&mut st, &first, &mut scratch, &mut want);
    st.reset_at(resume);
    exact.scan_chunk_into(&mut st, second, &mut scratch, &mut want);
    assert!(want.iter().any(|m| m.end == first.len()), "{want:?}");

    let mut got = Vec::new();
    let mut st = two.flow_state();
    let mut scratch = two.scratch();
    two.scan_chunk_into(&mut st, &first, &mut scratch, &mut got);
    FlowState::reset_at(&mut st, resume);
    two.scan_chunk_into(&mut st, second, &mut scratch, &mut got);
    two.finish_flow(&mut st, &mut got);
    assert_eq!(got, want);
}

/// The flow table's packet and segment ingest paths emit what a flow's
/// state still holds, tagged with its key, when they evict it.
#[test]
fn ingest_paths_emit_what_an_evicted_flow_held() {
    use dpi_accel::core::reassembly::{ReassemblyConfig, StreamFlow};
    use dpi_accel::core::{FlowKey, FlowMatch, FlowPacket, FlowSegment, FlowTable};

    let (_, _, two, first) = held_match_fixture();
    let want = two.find_all(&first);
    assert!(want.iter().any(|m| m.end == first.len()), "{want:?}");
    let (evicted, evictor) = (FlowKey(1), FlowKey(2));
    let of = |out: &[FlowMatch]| -> Vec<Match> {
        out.iter()
            .filter(|m| m.key == evicted)
            .map(|m| m.matched)
            .collect()
    };
    let mut scratch = two.scratch();
    let mut out = Vec::new();

    let mut packets = FlowTable::with_ways(1, 1, two.flow_state());
    packets.ingest_batch(
        [(evicted, &first[..]), (evictor, b"--")].map(|(key, payload)| FlowPacket { key, payload }),
        |st, chunk, out| two.scan_chunk_into(st, chunk, &mut scratch, out),
        &mut out,
    );
    assert_eq!(of(&out), want, "packet ingest");

    let template = StreamFlow::new(ReassemblyConfig::new(4096), two.flow_state());
    let mut segments = FlowTable::with_ways(1, 1, template);
    segments.ingest_segments(
        [(evicted, &first[..]), (evictor, b"--")].map(|(key, payload)| FlowSegment {
            key,
            seq: 0,
            payload,
        }),
        |st, chunk, out| two.scan_chunk_into(st, chunk, &mut scratch, out),
        &mut out,
    );
    assert_eq!(of(&out), want, "segment ingest");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small rulesets, random budgets, random cut lists — chunked
    /// two-stage equals whole-payload single-stage, and whole-payload
    /// two-stage equals both.
    #[test]
    fn two_stage_matches_exact_on_random_inputs(
        patterns in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), any::<u8>()],
                1..10,
            ),
            1..12,
        ),
        budget in prop_oneof![Just(1usize), 128usize..4096, Just(1usize << 19)],
        fill in proptest::collection::vec(any::<u8>(), 1..400),
        picks in proptest::collection::vec(0usize..12 * 400, 0..10),
        cuts in proptest::collection::vec(1usize..400, 0..8),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let mut hay = fill;
        for &pick in &picks {
            let p = &patterns[(pick / 400) % patterns.len()];
            let pos = (pick % 400) % (hay.len() + 1);
            hay.splice(pos..pos, p.iter().copied());
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % hay.len()).collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.retain(|&c| c > 0);

        let exact = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
        let mut want = Vec::new();
        let mut scratch = exact.scratch();
        let mut st = exact.flow_state();
        exact.scan_chunk_into(&mut st, &hay, &mut scratch, &mut want);

        let config = ShardedConfig::with_cores(2).two_stage(ApproxConfig::with_budget(budget));
        let two = TwoStageMatcher::build(&set, &config).unwrap();
        let (chunked, _) = scan_chunked(&two, &hay, &cuts);
        prop_assert_eq!(&chunked, &want, "chunked two-stage diverged (budget {})", budget);

        let mut whole = Vec::new();
        let mut scratch = two.scratch();
        two.scan_into(&hay, &mut scratch, &mut whole);
        prop_assert_eq!(&whole, &want, "whole-payload two-stage diverged");
    }
}

/// Rulesets over a small alphabet (plus any byte), so drawn patterns
/// share prefixes and the cover has families to truncate.
fn pattern_vec() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![Just(b'x'), Just(b'y'), Just(b'z'), any::<u8>()],
            1..8,
        ),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The soundness invariant of the stage-1 cover: whatever the byte
    /// budget, **every** exact match lies inside some flag's window. A
    /// violation here means the two-stage path can drop a match; the
    /// cover is only ever allowed to over-accept.
    #[test]
    fn approx_windows_cover_every_exact_match(
        patterns in pattern_vec(),
        budget in prop_oneof![Just(1usize), 64usize..4096, Just(1usize << 20)],
        fill in proptest::collection::vec(any::<u8>(), 0..200),
        picks in proptest::collection::vec(0usize..16 * 200, 0..8),
        nocase in any::<bool>(),
    ) {
        let set = if nocase {
            PatternSet::new_nocase(&patterns)
        } else {
            PatternSet::new(&patterns)
        };
        let Ok(set) = set else { return Ok(()); };
        // Haystack: random fill with drawn patterns spliced in, so
        // matches actually occur.
        let mut hay = fill;
        for &pick in &picks {
            let p = &patterns[(pick / 200) % patterns.len()];
            let pos = (pick % 200) % (hay.len() + 1);
            hay.splice(pos..pos, p.iter().copied());
        }
        let exact = NaiveMatcher::new(&set).find_all(&hay);
        let cover = PrefixCover::build(&set, &ApproxConfig::with_budget(budget));
        let mut windows: Vec<std::ops::Range<u64>> = Vec::new();
        let mut state = ApproxState::fresh();
        cover.scan_flags(&mut state, &hay, &mut |f| windows.push(f.window()));
        for m in &exact {
            let start = (m.end - set.pattern_len(m.pattern)) as u64;
            let end = m.end as u64;
            prop_assert!(
                windows.iter().any(|w| w.start <= start && end <= w.end),
                "cover (budget {budget}) dropped match {:?}..{} of {:?}",
                start, end, m.pattern
            );
        }
    }

    /// Flags are invariant under chunking: scanning in arbitrary pieces
    /// through one `ApproxState` emits exactly the whole-payload flags.
    #[test]
    fn approx_flags_are_chunking_invariant(
        patterns in pattern_vec(),
        budget in prop_oneof![Just(1usize), 256usize..8192],
        fill in proptest::collection::vec(any::<u8>(), 1..160),
        picks in proptest::collection::vec(0usize..16 * 160, 0..6),
        cuts in proptest::collection::vec(0usize..160, 0..6),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let mut hay = fill;
        for &pick in &picks {
            let p = &patterns[(pick / 160) % patterns.len()];
            let pos = (pick % 160) % (hay.len() + 1);
            hay.splice(pos..pos, p.iter().copied());
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % hay.len()).collect();
        cuts.push(0);
        cuts.push(hay.len());
        cuts.sort_unstable();
        cuts.dedup();
        let cover = PrefixCover::build(&set, &ApproxConfig::with_budget(budget));
        let mut whole = Vec::new();
        let mut state = ApproxState::fresh();
        cover.scan_flags(&mut state, &hay, &mut |f| whole.push((f.end, f.forward)));
        let mut chunked = Vec::new();
        let mut state = ApproxState::fresh();
        for pair in cuts.windows(2) {
            cover.scan_flags(&mut state, &hay[pair[0]..pair[1]], &mut |f| {
                chunked.push((f.end, f.forward))
            });
        }
        prop_assert_eq!(&whole, &chunked);
    }
}
