//! Cross-implementation differential tests: every matcher in the workspace
//! must report exactly the same occurrences on the same input.
//!
//! The chain under test (weakest to strongest claim):
//! naive reference → classic NFA → full move-function DFA → DTP-reduced
//! automaton (the paper's contribution) → compiled flat-memory engine →
//! bit-packed hardware image → the Tuck et al. baselines. The DTP and
//! compiled matchers are additionally required to be *state-equivalent*
//! to the DFA, byte for byte, which is the precise correctness claim
//! behind the paper's "no wasted transitions" property.

use dpi_accel::baselines::{BitmapAc, BitmapMatcher, PathAc, PathMatcher};
use dpi_accel::prelude::*;
use dpi_accel::automaton::NaiveMatcher;
use dpi_accel::hw::{HwImage, HwMatcher};
use dpi_accel::core::{ShardedConfig, ShardedMatcher};
use proptest::prelude::*;

/// Strategy: small sets of short patterns over a tiny alphabet, so fail
/// chains, suffix overlaps and default-transition collisions are dense.
fn dense_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..6),
        1..8,
    )
}

/// Strategy: realistic byte-diverse patterns.
fn diverse_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..12), 1..12)
}

fn all_matchers_agree(patterns: Vec<Vec<u8>>, haystack: Vec<u8>) {
    let Ok(set) = PatternSet::new(&patterns) else {
        return; // duplicates — not this test's concern
    };
    let naive = NaiveMatcher::new(&set).find_all(&haystack);

    let nfa = Nfa::build(&set);
    prop_assert_eq_plain(&naive, &NfaMatcher::new(&nfa, &set).find_all(&haystack), "nfa");

    let dfa = Dfa::build(&set);
    prop_assert_eq_plain(&naive, &DfaMatcher::new(&dfa, &set).find_all(&haystack), "dfa");

    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    assert!(reduced.verify_against(&dfa).is_none(), "reduction mismatch");
    let dtp = DtpMatcher::new(&reduced, &set);
    prop_assert_eq_plain(&naive, &dtp.find_all(&haystack), "dtp");

    let compiled = CompiledAutomaton::compile(&reduced);
    let fast = CompiledMatcher::new(&compiled, &set);
    prop_assert_eq_plain(&naive, &fast.find_all(&haystack), "compiled");

    // State-trace equivalence, not just match equivalence.
    let (_, dfa_trace) = DfaMatcher::new(&dfa, &set).scan_with_trace(&haystack);
    let (_, dtp_trace) = dtp.scan_with_trace(&haystack);
    assert_eq!(dfa_trace, dtp_trace, "state traces diverged");
    let (_, fast_trace) = fast.scan_with_trace(&haystack);
    assert_eq!(dfa_trace, fast_trace, "compiled state trace diverged");

    // The allocation-free entry point must agree with find_all.
    let mut reused = Vec::new();
    fast.scan_into(&haystack, &mut reused);
    assert_eq!(reused, naive, "scan_into disagrees with find_all");

    if let Ok(image) = HwImage::build(&reduced) {
        prop_assert_eq_plain(
            &naive,
            &HwMatcher::new(&image, &set).find_all(&haystack),
            "hw image",
        );
    }

    let bitmap = BitmapAc::build(&set);
    prop_assert_eq_plain(
        &naive,
        &BitmapMatcher::new(&bitmap, &set).find_all(&haystack),
        "bitmap",
    );
    let path = PathAc::build(&set);
    prop_assert_eq_plain(
        &naive,
        &PathMatcher::new(&path, &set).find_all(&haystack),
        "path",
    );
}

fn prop_assert_eq_plain(want: &[Match], got: &[Match], who: &str) {
    assert_eq!(want, got, "{who} disagrees with the naive reference");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_alphabet_equivalence(
        patterns in dense_patterns(),
        haystack in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..200),
    ) {
        all_matchers_agree(patterns, haystack);
    }

    #[test]
    fn diverse_bytes_equivalence(
        patterns in diverse_patterns(),
        haystack in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        all_matchers_agree(patterns, haystack);
    }

    #[test]
    fn haystack_containing_patterns_equivalence(
        patterns in dense_patterns(),
        glue in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'x')], 0..16),
        order in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        // Build a haystack by concatenating actual patterns with glue, so
        // matches are guaranteed to occur (random haystacks rarely match).
        let mut haystack = Vec::new();
        for idx in &order {
            haystack.extend_from_slice(&patterns[idx.index(patterns.len())]);
            haystack.extend_from_slice(&glue);
        }
        all_matchers_agree(patterns, haystack);
    }

    #[test]
    fn every_dtp_config_is_equivalent(
        patterns in dense_patterns(),
        haystack in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..120),
        k2 in 0usize..6,
        k3 in 0usize..3,
        depth1 in any::<bool>(),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let dfa = Dfa::build(&set);
        let cfg = DtpConfig { depth1, k2, k3 };
        let reduced = ReducedAutomaton::reduce(&dfa, cfg);
        prop_assert!(reduced.verify_against(&dfa).is_none());
        let naive = NaiveMatcher::new(&set).find_all(&haystack);
        prop_assert_eq!(&naive, &DtpMatcher::new(&reduced, &set).find_all(&haystack));
        // The compiled engine must agree under every configuration too —
        // including degenerate ones that exercise its dense-row path.
        let compiled = CompiledAutomaton::compile(&reduced);
        prop_assert_eq!(&naive, &CompiledMatcher::new(&compiled, &set).find_all(&haystack));
    }

    #[test]
    fn sharded_matcher_agrees_with_sequential(
        patterns in dense_patterns(),
        haystack in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..150),
        cores in 1usize..5,
    ) {
        // Splitting the pattern set across per-core automata must be
        // invisible: global ids, canonical order, identical matches.
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(cores))
            .expect("tiny sets fit the default shard budget");
        let naive = NaiveMatcher::new(&set).find_all(&haystack);
        prop_assert_eq!(
            sharded.find_all(&haystack),
            naive,
            "sharded({}) diverged at cores={}",
            sharded.shard_count(),
            cores
        );
    }

    #[test]
    fn per_packet_isolation(
        patterns in dense_patterns(),
        packets in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..40),
            1..5,
        ),
    ) {
        // Scanning packets one at a time must equal scanning each from a
        // fresh matcher: no state or history may leak between packets.
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let dfa = Dfa::build(&set);
        let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let dtp = DtpMatcher::new(&reduced, &set);
        for p in &packets {
            let naive = NaiveMatcher::new(&set).find_all(p);
            prop_assert_eq!(naive, dtp.find_all(p));
        }
    }
}

#[test]
fn figure1_canonical_results() {
    let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let image = HwImage::build(&reduced).unwrap();
    let text = b"ushers and she said his hers";
    let want = NaiveMatcher::new(&set).find_all(text);
    assert_eq!(want.len(), 8);
    assert_eq!(DtpMatcher::new(&reduced, &set).find_all(text), want);
    assert_eq!(HwMatcher::new(&image, &set).find_all(text), want);
}

#[test]
fn generated_ruleset_equivalence_medium() {
    // One medium-size end-to-end differential on a realistic ruleset.
    let set = dpi_accel::rulesets::extract_preserving(
        &dpi_accel::rulesets::master_ruleset(),
        150,
        0x5EED,
    );
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    assert!(reduced.verify_against(&dfa).is_none());
    let image = HwImage::build(&reduced).unwrap();
    let mut gen = TrafficGenerator::new(77);
    for _ in 0..4 {
        let packet = gen.infected_packet(2048, &set, 6);
        let want = NaiveMatcher::new(&set).find_all(&packet.payload);
        assert_eq!(DtpMatcher::new(&reduced, &set).find_all(&packet.payload), want);
        assert_eq!(
            HwMatcher::new(&image, &set).find_all(&packet.payload),
            want
        );
        for &(id, end) in &packet.injected {
            assert!(want.iter().any(|m| m.pattern == id && m.end == end));
        }
    }
}

#[test]
fn nocase_equivalence_through_the_stack() {
    let set = PatternSet::new_nocase(["Attack", "EXPLOIT", "rootKIT"]).unwrap();
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let image = HwImage::build(&reduced).unwrap();
    let text = b"ATTACK exploit ROOTkit attack";
    let want = NaiveMatcher::new(&set).find_all(text);
    assert_eq!(want.len(), 4);
    assert_eq!(DtpMatcher::new(&reduced, &set).find_all(text), want);
    assert_eq!(HwMatcher::new(&image, &set).find_all(text), want);
}
