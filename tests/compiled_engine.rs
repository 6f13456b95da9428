//! Deterministic differential tests for the compiled flat-memory scan
//! engine on realistic workloads: Snort-like rulesets, infected and
//! adversarial traffic, and every DTP configuration.
//!
//! `tests/equivalence.rs` covers the same claims property-style on small
//! dense alphabets; this suite pins them on generated rulesets large
//! enough to exercise CSR rows of every width, LUT rows with full
//! depth-2/3 population, and (under `DtpConfig::NONE`) the dense-row
//! escalation path.

use dpi_accel::automaton::NaiveMatcher;
use dpi_accel::hw::{HwImage, HwMatcher};
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{adversarial_payload, extract_preserving, master_ruleset};

fn medium_ruleset(strings: usize, seed: u64) -> PatternSet {
    extract_preserving(&master_ruleset(), strings, seed)
}

/// Compiled scan must be state-trace- and match-equivalent to both the
/// reference DTP matcher and the full DFA on generated traffic.
#[test]
fn compiled_equals_dtp_and_dfa_on_generated_traffic() {
    let set = medium_ruleset(200, 0xC0DE);
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);
    let dtp = DtpMatcher::new(&reduced, &set);
    let fast = CompiledMatcher::new(&compiled, &set);
    let full = DfaMatcher::new(&dfa, &set);

    let mut gen = TrafficGenerator::new(42);
    for i in 0..6 {
        let packet = if i % 2 == 0 {
            gen.infected_packet(4096, &set, 8)
        } else {
            gen.clean_packet(4096)
        };
        let (want_m, want_t) = full.scan_with_trace(&packet.payload);
        let (dtp_m, dtp_t) = dtp.scan_with_trace(&packet.payload);
        let (fast_m, fast_t) = fast.scan_with_trace(&packet.payload);
        assert_eq!(fast_t, want_t, "compiled trace diverged from DFA");
        assert_eq!(fast_t, dtp_t, "compiled trace diverged from DTP");
        assert_eq!(fast_m, want_m, "compiled matches diverged from DFA");
        assert_eq!(fast_m, dtp_m, "compiled matches diverged from DTP");
        for &(id, end) in &packet.injected {
            assert!(
                fast_m.iter().any(|m| m.pattern == id && m.end == end),
                "compiled engine missed injected {id:?}@{end}"
            );
        }
    }
}

/// Every DTP configuration — including the degenerate ones that trigger
/// dense-row escalation — must compile to an equivalent engine.
#[test]
fn compiled_equals_dtp_under_every_config() {
    let set = medium_ruleset(120, 7);
    let dfa = Dfa::build(&set);
    let mut gen = TrafficGenerator::new(9);
    let packet = gen.infected_packet(2048, &set, 6).payload;
    let configs = [
        DtpConfig::PAPER,
        DtpConfig::D1,
        DtpConfig::D1_D2,
        DtpConfig::NONE,
        DtpConfig { depth1: false, k2: 4, k3: 1 },
        DtpConfig { depth1: true, k2: 1, k3: 2 },
        DtpConfig { depth1: true, k2: 16, k3: 4 },
    ];
    let mut dense_seen = false;
    for config in configs {
        let reduced = ReducedAutomaton::reduce(&dfa, config);
        let compiled = CompiledAutomaton::compile(&reduced);
        dense_seen |= compiled.dense_states() > 0;
        let (want, want_t) = DtpMatcher::new(&reduced, &set).scan_with_trace(&packet);
        let (got, got_t) = CompiledMatcher::new(&compiled, &set).scan_with_trace(&packet);
        assert_eq!(got_t, want_t, "trace diverged under {config:?}");
        assert_eq!(got, want, "matches diverged under {config:?}");
    }
    assert!(
        dense_seen,
        "expected at least one config to exercise dense-row escalation"
    );
}

/// Adversarial traffic (crafted against fail-pointer designs) must not
/// shake the compiled engine's equivalence either.
#[test]
fn compiled_handles_adversarial_traffic() {
    let set = medium_ruleset(150, 0xADE);
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);
    let payload = adversarial_payload(&set, 4096);
    let want = NaiveMatcher::new(&set).find_all(&payload);
    assert_eq!(CompiledMatcher::new(&compiled, &set).find_all(&payload), want);
}

/// `find_all_into` must agree with `find_all` for every matcher in the
/// workspace (default impl and overrides alike).
#[test]
fn find_all_into_agrees_across_all_matchers() {
    use dpi_accel::baselines::{BitmapAc, BitmapMatcher, PathAc, PathMatcher};

    let set = medium_ruleset(80, 5);
    let dfa = Dfa::build(&set);
    let nfa = Nfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);
    let image = HwImage::build(&reduced).expect("fits");
    let bitmap = BitmapAc::build(&set);
    let path = PathAc::build(&set);

    let mut gen = TrafficGenerator::new(11);
    let packet = gen.infected_packet(2048, &set, 5).payload;
    let mut buf = Vec::new();

    let matchers: Vec<(&str, Box<dyn MultiMatcher + '_>)> = vec![
        ("dfa", Box::new(DfaMatcher::new(&dfa, &set))),
        ("nfa", Box::new(NfaMatcher::new(&nfa, &set))),
        ("dtp", Box::new(DtpMatcher::new(&reduced, &set))),
        ("compiled", Box::new(CompiledMatcher::new(&compiled, &set))),
        ("hw", Box::new(HwMatcher::new(&image, &set))),
        ("bitmap", Box::new(BitmapMatcher::new(&bitmap, &set))),
        ("path", Box::new(PathMatcher::new(&path, &set))),
        ("naive", Box::new(NaiveMatcher::new(&set))),
    ];
    let want = matchers[0].1.find_all(&packet);
    assert!(!want.is_empty());
    for (name, matcher) in &matchers {
        assert_eq!(matcher.find_all(&packet), want, "{name} find_all");
        // Seed the buffer with garbage to prove it is cleared.
        buf.push(Match {
            end: usize::MAX,
            pattern: dpi_accel::automaton::PatternId(u32::MAX),
        });
        matcher.find_all_into(&packet, &mut buf);
        assert_eq!(buf, want, "{name} find_all_into");
    }
}

/// Early-exit fast paths agree with the full scan.
#[test]
fn fast_paths_agree_with_full_scan() {
    let set = medium_ruleset(100, 13);
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);
    let matcher = CompiledMatcher::new(&compiled, &set);
    let mut gen = TrafficGenerator::new(21);
    for i in 0..8 {
        let packet = if i % 2 == 0 {
            gen.infected_packet(1024, &set, 2).payload
        } else {
            gen.clean_packet(1024).payload
        };
        let full = matcher.find_all(&packet);
        assert_eq!(matcher.is_match(&packet), !full.is_empty(), "is_match");
        assert_eq!(matcher.count(&packet), full.len(), "count");
        let mut visited = Vec::new();
        matcher.for_each_match(&packet, |m| visited.push(m));
        assert_eq!(visited, full, "visitor");
    }
}

/// Compiled engine and bit-packed hardware image, built from the same
/// reduced automaton, must report identical matches — the software fast
/// path and the hardware layout are two projections of one structure.
#[test]
fn compiled_agrees_with_hw_image() {
    let set = medium_ruleset(150, 0x5EED);
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);
    let image = HwImage::build(&reduced).expect("fits");
    let mut gen = TrafficGenerator::new(33);
    for _ in 0..3 {
        let packet = gen.infected_packet(2048, &set, 4).payload;
        assert_eq!(
            CompiledMatcher::new(&compiled, &set).find_all(&packet),
            HwMatcher::new(&image, &set).find_all(&packet),
        );
    }
}
