//! Differential suite for the sharded scan engine: whatever the shard
//! count (planned from `cores` and the per-shard budget), split
//! strategy, DTP configuration or scratch reuse across a batch of
//! payloads, `ShardedMatcher` must report exactly the matches of the
//! monolithic `CompiledMatcher` (and through it the reference
//! `DtpMatcher` and the full DFA), with global pattern ids in canonical
//! `(end, pattern)` order.

use dpi_accel::automaton::NaiveMatcher;
use dpi_accel::core::sharded::{ShardedConfig, ShardedMatcher};
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{extract_preserving, master_ruleset};
use proptest::prelude::*;

fn monolith_find_all(set: &PatternSet, config: DtpConfig, text: &[u8]) -> Vec<Match> {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, config);
    let compiled = CompiledAutomaton::compile(&reduced);
    CompiledMatcher::new(&compiled, set).find_all(text)
}

/// Every shard the planner emits fits the per-shard budget it was
/// planned under, compiled lanes included — the property that makes a
/// shard "cache-sized". Checked on the master ruleset and a 300-rule
/// extract, at each core count, under the default 1 MiB budget and a
/// 256 KiB one.
#[test]
fn every_shard_fits_its_budget() {
    let master = master_ruleset();
    let small = extract_preserving(&master, 300, 0x0B07);
    for (label, set) in [("master", &master), ("300", &small)] {
        for cores in [1usize, 2, 4, 8] {
            for budget in [ShardedConfig::with_cores(cores).budget_bytes, 256 << 10] {
                let mut config = ShardedConfig::with_cores(cores);
                config.budget_bytes = budget;
                let sharded = ShardedMatcher::build(set, &config).unwrap();
                for s in 0..sharded.shard_count() {
                    let bytes = sharded.shard_memory_bytes(s);
                    assert!(
                        bytes <= budget,
                        "{label} cores={cores}: shard {s} holds {bytes} B over its {budget} B budget"
                    );
                }
            }
        }
    }
}

/// Sharded results must equal the monolith's on generated traffic, for
/// every core count and for tight budgets that force many shards.
#[test]
fn sharded_equals_compiled_and_dtp_on_generated_traffic() {
    let set = extract_preserving(&master_ruleset(), 200, 0x5AD);
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);
    let fast = CompiledMatcher::new(&compiled, &set);
    let dtp = DtpMatcher::new(&reduced, &set);

    let mut gen = TrafficGenerator::new(21);
    let packets: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            if i % 2 == 0 {
                gen.infected_packet(4096, &set, 8).payload
            } else {
                gen.clean_packet(4096).payload
            }
        })
        .collect();

    for cores in [1usize, 2, 3, 4] {
        for budget in [usize::MAX, 64 * 1024, 16 * 1024] {
            let mut config = ShardedConfig::with_cores(cores);
            if budget != usize::MAX {
                config.budget_bytes = budget;
            }
            let sharded = ShardedMatcher::build(&set, &config)
                .expect("budgets stay above the single-pattern floor");
            let mut scratch = sharded.scratch();
            let mut out = Vec::new();
            for packet in &packets {
                sharded.scan_into(packet, &mut scratch, &mut out);
                let want = fast.find_all(packet);
                assert_eq!(
                    out, want,
                    "sharded({}) diverged from compiled at cores={cores} budget={budget}",
                    sharded.shard_count()
                );
                assert_eq!(out, dtp.find_all(packet), "diverged from dtp");
            }
        }
    }
}

/// Every DTP configuration the compiled engine supports must shard too —
/// including the degenerate ones that trigger dense-row escalation.
#[test]
fn sharded_equals_compiled_under_every_config() {
    let set = extract_preserving(&master_ruleset(), 120, 7);
    let mut gen = TrafficGenerator::new(9);
    let packet = gen.infected_packet(2048, &set, 6).payload;
    for dtp in [
        DtpConfig::PAPER,
        DtpConfig { depth1: true, k2: 4, k3: 0 },
        DtpConfig { depth1: true, k2: 0, k3: 0 },
        DtpConfig { depth1: false, k2: 0, k3: 0 },
        DtpConfig { depth1: true, k2: 1, k3: 2 },
    ] {
        let mut config = ShardedConfig::with_cores(3);
        config.dtp = dtp;
        let sharded = ShardedMatcher::build(&set, &config).expect("fits default budget");
        assert_eq!(
            sharded.find_all(&packet),
            monolith_find_all(&set, dtp, &packet),
            "diverged under {dtp:?}"
        );
    }
}

/// A pattern set whose bytes pile onto few start characters (overlapping
/// prefixes) must still shard correctly, whatever strategy the planner
/// picks for it.
#[test]
fn overlapping_prefix_sets_shard_correctly() {
    // All patterns start with "ab"; deep shared spines + divergent tails.
    let mut strings: Vec<String> = (0..30).map(|i| format!("ab{i:03}")).collect();
    strings.push("ab".into());
    strings.push("abab".repeat(40)); // one long self-overlapping pattern
    let set = PatternSet::new(&strings).unwrap();
    let mut config = ShardedConfig::with_cores(4);
    config.budget_bytes = 16 * 1024; // force several shards (above any single-pattern floor)
    let sharded = ShardedMatcher::build(&set, &config).expect("budget above single-pattern floor");
    assert!(sharded.shard_count() > 1);
    let mut hay = b"ab012ab".to_vec();
    hay.extend_from_slice("abab".repeat(41).as_bytes());
    let want = NaiveMatcher::new(&set).find_all(&hay);
    assert_eq!(sharded.find_all(&hay), want);
    assert_eq!(monolith_find_all(&set, DtpConfig::PAPER, &hay), want);
}

/// Single-pattern sets, empty haystacks, and more cores than patterns.
#[test]
fn degenerate_shapes() {
    let set = PatternSet::new(["x"]).unwrap();
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(8)).unwrap();
    assert_eq!(sharded.shard_count(), 1);
    assert!(sharded.find_all(b"").is_empty());
    assert_eq!(sharded.find_all(b"xxx").len(), 3);

    let set = PatternSet::new_nocase(["Attack", "EXPLOIT"]).unwrap();
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
    let found = sharded.find_all(b"ATTACK and exploit");
    assert_eq!(found.len(), 2);
}

/// A batch scanned payload by payload through one reused scratch must
/// agree with fresh per-payload scans across ragged batches (empty
/// payloads included) and planned core counts.
#[test]
fn stream_scan_equals_per_payload_on_ragged_batches() {
    let set = extract_preserving(&master_ruleset(), 150, 3);
    let mut gen = TrafficGenerator::new(77);
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for (i, len) in [1500usize, 64, 0, 900, 40, 7, 300, 1200, 2, 600]
        .into_iter()
        .enumerate()
    {
        if len == 0 {
            payloads.push(Vec::new());
        } else if i % 3 == 0 {
            payloads.push(gen.infected_packet(len.max(32), &set, 1).payload);
        } else {
            payloads.push(gen.clean_packet(len).payload);
        }
    }
    let want: Vec<Vec<Match>> = payloads
        .iter()
        .map(|p| monolith_find_all(&set, DtpConfig::PAPER, p))
        .collect();
    for cores in [1usize, 2, 4, 16] {
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(cores)).unwrap();
        let mut scratch = sharded.scratch();
        let mut out = Vec::new();
        for (i, (payload, want)) in payloads.iter().zip(&want).enumerate() {
            sharded.scan_into(payload, &mut scratch, &mut out);
            assert_eq!(&out, want, "payload {i} (cores={cores}) diverged");
        }
    }
}

/// The MultiMatcher surface (find_all / find_all_into / is_match) must
/// behave like every other matcher in the workspace.
#[test]
fn multi_matcher_wiring() {
    let set = extract_preserving(&master_ruleset(), 80, 5);
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
    let mut gen = TrafficGenerator::new(11);
    let infected = gen.infected_packet(2048, &set, 5).payload;
    let clean = b"............................".to_vec();

    let want = monolith_find_all(&set, DtpConfig::PAPER, &infected);
    assert!(!want.is_empty());
    assert_eq!(sharded.find_all(&infected), want);
    // Seed garbage to prove the buffer is cleared.
    let mut buf = vec![Match {
        end: usize::MAX,
        pattern: PatternId(u32::MAX),
    }];
    sharded.find_all_into(&infected, &mut buf);
    assert_eq!(buf, want);
    assert!(sharded.is_match(&infected));
    assert_eq!(
        sharded.is_match(&clean),
        !monolith_find_all(&set, DtpConfig::PAPER, &clean).is_empty()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property: for random dense-alphabet pattern sets and haystacks,
    /// the sharded scan equals the naive reference for every core count
    /// and shard-forcing budget.
    #[test]
    fn sharded_matches_naive_reference(
        patterns in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..6),
            1..10,
        ),
        haystack in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..150),
        cores in 1usize..5,
        tight_budget in any::<bool>(),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else {
            return Ok(()); // duplicates — not this test's concern
        };
        let mut config = ShardedConfig::with_cores(cores);
        if tight_budget {
            // Just above any single-pattern floor (patterns are <= 5
            // bytes), but below any two-pattern shard: forces the cap.
            config.budget_bytes = 11_264 + 26 * 7;
            config.max_shards = 4;
        }
        let sharded = ShardedMatcher::build(&set, &config)
            .expect("budget stays above the single-pattern floor");
        let want = NaiveMatcher::new(&set).find_all(&haystack);
        prop_assert_eq!(sharded.find_all(&haystack), want);
    }

    /// Property: scanning a random batch through one reused scratch
    /// equals the naive reference on each payload alone.
    #[test]
    fn stream_equals_individual_scans(
        patterns in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 1..5),
            1..6,
        ),
        payloads in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 0..60),
            1..8,
        ),
        cores in 1usize..4,
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(cores)).unwrap();
        let naive = NaiveMatcher::new(&set);
        let mut scratch = sharded.scratch();
        let mut out = Vec::new();
        for payload in &payloads {
            sharded.scan_into(payload, &mut scratch, &mut out);
            prop_assert_eq!(&out, &naive.find_all(payload));
        }
    }
}
