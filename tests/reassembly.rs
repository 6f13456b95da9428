//! Reassembly equivalence suite: the defining properties of the
//! adversary-tolerant TCP layer.
//!
//! Three invariants, each pinned differentially against the
//! whole-payload scan:
//!
//! 1. **Lossless equivalence** — any *in-order-deliverable* schedule
//!    (reordered, retransmitted, consistently- or conflictingly-
//!    overlapped under first-wins) produces byte-identical matches to
//!    the whole-payload scan, across `CompiledMatcher` (prefilter/pairs
//!    on and off) and `ShardedMatcher`.
//! 2. **Boundary-local hole loss** — dropping segments loses exactly
//!    the matches overlapping the dropped ranges: the result equals the
//!    union of whole-payload matches falling entirely inside a
//!    contiguous delivered run.
//! 3. **Strict budget** — per-flow buffered bytes never exceed the
//!    configured budget, whatever the schedule does.

use dpi_accel::automaton::NaiveMatcher;
use dpi_accel::core::{FlowKey, FlowSegment, FlowTable};
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{extract_preserving, master_ruleset, ChopProfile, Segment, SegmentProfile};
use proptest::prelude::*;

/// Compiles `set` with anchors and, with `pairs`, the full default
/// fast-path stack (anchors + region pair rows where they attach),
/// mirroring `tests/streaming.rs`.
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

/// Replays `schedule` through a `StreamFlow` wrapping a plain
/// `ScanState`, scanning with `matcher`; flushes at end of stream.
fn reassemble_compiled(
    matcher: &CompiledMatcher,
    schedule: &[Segment],
    budget: usize,
) -> (Vec<Match>, ReassemblyStats) {
    let mut flow = StreamFlow::new(ReassemblyConfig::new(budget), ScanState::fresh());
    let mut out = Vec::new();
    let mut stats = ReassemblyStats::default();
    let mut scan = |s: &mut ScanState, chunk: &[u8], o: &mut Vec<Match>| {
        matcher.scan_chunk_into(s, chunk, o)
    };
    for seg in schedule {
        flow.ingest(seg.seq, &seg.bytes, &mut scan, &mut out, &mut stats);
        assert!(
            flow.reassembler().buffered_bytes() <= budget,
            "budget exceeded mid-schedule"
        );
    }
    flow.flush(&mut scan, &mut out, &mut stats);
    assert_eq!(flow.reassembler().buffered_bytes(), 0, "flush must drain");
    (out, stats)
}

/// Same through a `ShardedMatcher`.
fn reassemble_sharded(
    matcher: &ShardedMatcher,
    schedule: &[Segment],
    budget: usize,
) -> Vec<Match> {
    let mut flow = StreamFlow::new(ReassemblyConfig::new(budget), matcher.flow_state());
    let mut scratch = matcher.scratch();
    let mut out = Vec::new();
    let mut stats = ReassemblyStats::default();
    let mut scan = |s: &mut ShardedScanState, chunk: &[u8], o: &mut Vec<Match>| {
        matcher.scan_chunk_into(s, chunk, &mut scratch, o)
    };
    for seg in schedule {
        flow.ingest(seg.seq, &seg.bytes, &mut scan, &mut out, &mut stats);
        assert!(flow.reassembler().buffered_bytes() <= budget);
    }
    flow.flush(&mut scan, &mut out, &mut stats);
    out
}

fn lossless_profiles() -> Vec<SegmentProfile> {
    vec![
        SegmentProfile::InOrder,
        SegmentProfile::Reorder { window: 4 },
        SegmentProfile::Retransmit { every: 3 },
        SegmentProfile::OverlapConsistent { extend: 12 },
        SegmentProfile::OverlapConflicting { extend: 12 },
    ]
}

/// Invariant 1 on realistic workload: a master-ruleset slice, infected
/// payloads chopped mid-pattern, every lossless adversarial schedule —
/// across the compiled engine (all three lane stacks) and the sharded
/// engine. Every injected occurrence must surface at its exact offset.
#[test]
fn lossless_schedules_match_whole_payload_scan() {
    let set = extract_preserving(&master_ruleset(), 150, 0x6E0);
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let plain = CompiledAutomaton::compile(&reduced);
    let paired = compiled_anchored(&set, true);
    let lane = compiled_anchored(&set, false);
    let whole = CompiledMatcher::new(&plain, &set);
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();

    let mut gen = TrafficGenerator::new(0x5EA);
    for profile in lossless_profiles() {
        let packet = gen.infected_packet(2048, &set, 5);
        let schedule =
            gen.segment_schedule(&packet, &set, ChopProfile::MidPattern { mtu: 200 }, profile);
        let want = whole.find_all(&packet.payload);
        // Budget: documented displacement bound, (window + 1) × max len.
        let max_len = schedule.iter().map(|s| s.bytes.len()).max().unwrap();
        let budget = 5 * max_len;

        for (name, m) in [
            ("compiled", CompiledMatcher::new(&plain, &set)),
            ("lane+pairs", CompiledMatcher::new(&paired, &set)),
            ("lane-only", CompiledMatcher::new(&lane, &set)),
        ] {
            let (got, stats) = reassemble_compiled(&m, &schedule, budget);
            assert_eq!(got, want, "{name} diverged under {profile:?}");
            match profile {
                SegmentProfile::InOrder => {
                    assert_eq!(stats.segments_buffered, 0, "in-order must not buffer");
                    assert_eq!(stats.bytes_buffered, 0);
                }
                SegmentProfile::Retransmit { .. } => {
                    assert!(stats.dup_bytes > 0, "retransmits must be clipped as dups");
                }
                SegmentProfile::OverlapConflicting { .. } => {
                    assert!(
                        stats.overlap_conflicts > 0,
                        "conflicting overlaps must be counted"
                    );
                }
                SegmentProfile::OverlapConsistent { .. } => {
                    assert!(stats.overlap_bytes > 0);
                    assert_eq!(stats.overlap_conflicts, 0, "consistent bytes agree");
                }
                _ => {}
            }
            assert_eq!(stats.holes_skipped, 0, "lossless schedules have no holes");
            for &(id, end) in &packet.injected {
                assert!(
                    got.iter().any(|m| m.pattern == id && m.end == end),
                    "{name}/{profile:?} missed injected {id:?} at ..{end}"
                );
            }
        }

        let got = reassemble_sharded(&sharded, &schedule, budget);
        assert_eq!(got, want, "sharded diverged under {profile:?}");
    }
}

/// Replays `schedule` under `policy`, collecting the *delivered byte
/// stream* instead of matches — the reconstruction the policy hands to
/// the scanner.
fn reassemble_bytes(
    schedule: &[Segment],
    budget: usize,
    policy: OverlapPolicy,
) -> (Vec<u8>, ReassemblyStats) {
    let cfg = ReassemblyConfig::new(budget).with_policy(policy);
    let mut flow = StreamFlow::new(cfg, ScanState::fresh());
    let mut delivered = Vec::new();
    let mut out = Vec::new();
    let mut stats = ReassemblyStats::default();
    let mut scan = |_s: &mut ScanState, chunk: &[u8], _o: &mut Vec<Match>| {
        delivered.extend_from_slice(chunk)
    };
    for seg in schedule {
        flow.ingest(seg.seq, &seg.bytes, &mut scan, &mut out, &mut stats);
    }
    flow.flush(&mut scan, &mut out, &mut stats);
    (delivered, stats)
}

/// Overlap-policy differential: on conflicting-overlap schedules the
/// true stream bytes arrive *first* (the generator corrupts the late
/// extension copy), so first-wins reconstructs the original payload
/// while last-wins keeps the attacker's corrupted bytes — same wire,
/// different delivered streams, which is exactly why the policy must
/// match the guarded endpoint's stack. On schedules whose overlaps
/// agree (or that have none) the two policies are indistinguishable.
#[test]
fn overlap_policy_differential_on_conflicting_schedules() {
    let set = extract_preserving(&master_ruleset(), 120, 0x1A57);
    let compiled = {
        let reduced = ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER);
        CompiledAutomaton::compile(&reduced)
    };
    let whole = CompiledMatcher::new(&compiled, &set);

    let mut gen = TrafficGenerator::new(0xD1FF);
    for round in 0..4 {
        let packet = gen.infected_packet(2048, &set, 4);
        let conflicting = gen.segment_schedule(
            &packet,
            &set,
            ChopProfile::MidPattern { mtu: 180 },
            SegmentProfile::OverlapConflicting { extend: 10 },
        );
        let max_len = conflicting.iter().map(|s| s.bytes.len()).max().unwrap();
        let budget = 5 * max_len;

        let (first, first_stats) = reassemble_bytes(&conflicting, budget, OverlapPolicy::FirstWins);
        let (last, last_stats) = reassemble_bytes(&conflicting, budget, OverlapPolicy::LastWins);

        // First-wins reconstructs the truth; last-wins keeps the
        // corrupted extension bytes, so the streams must diverge.
        assert_eq!(first, packet.payload, "round {round}: first-wins must rebuild truth");
        assert_ne!(last, packet.payload, "round {round}: last-wins must keep corruption");
        assert_eq!(first.len(), last.len(), "policy changes bytes, never length");

        // The evasion stays equally observable under either policy.
        assert!(first_stats.overlap_conflicts > 0);
        assert_eq!(first_stats.overlap_conflicts, last_stats.overlap_conflicts);
        assert_eq!(first_stats.overlap_bytes, last_stats.overlap_bytes);

        // Each policy's streaming matches equal a whole scan of the
        // stream *that policy* delivered — the scanner is faithful to
        // the reconstruction either way.
        for (policy, delivered) in
            [(OverlapPolicy::FirstWins, &first), (OverlapPolicy::LastWins, &last)]
        {
            let mut flow = StreamFlow::new(
                ReassemblyConfig::new(budget).with_policy(policy),
                ScanState::fresh(),
            );
            let mut out = Vec::new();
            let mut stats = ReassemblyStats::default();
            let mut scan = |s: &mut ScanState, chunk: &[u8], o: &mut Vec<Match>| {
                whole.scan_chunk_into(s, chunk, o)
            };
            for seg in &conflicting {
                flow.ingest(seg.seq, &seg.bytes, &mut scan, &mut out, &mut stats);
            }
            flow.flush(&mut scan, &mut out, &mut stats);
            assert_eq!(
                out,
                whole.find_all(delivered),
                "round {round}: {policy:?} matches must equal a whole scan of its stream"
            );
        }

        // Consistent overlaps carry true bytes in both copies: the
        // policies converge on the original payload.
        let consistent = gen.segment_schedule(
            &packet,
            &set,
            ChopProfile::MidPattern { mtu: 180 },
            SegmentProfile::OverlapConsistent { extend: 10 },
        );
        let budget = 5 * consistent.iter().map(|s| s.bytes.len()).max().unwrap();
        let (first, _) = reassemble_bytes(&consistent, budget, OverlapPolicy::FirstWins);
        let (last, _) = reassemble_bytes(&consistent, budget, OverlapPolicy::LastWins);
        assert_eq!(first, packet.payload);
        assert_eq!(last, packet.payload, "consistent overlaps are policy-invariant");
    }
}

/// Invariant 2: with segments dropped, the result equals exactly the
/// whole-payload matches lying entirely inside one contiguous delivered
/// run — nothing across a hole, nothing beyond a hole lost.
#[test]
fn hole_skip_loss_is_boundary_local() {
    let set = extract_preserving(&master_ruleset(), 150, 0x401);
    let dfa = Dfa::build(&set);
    let compiled = CompiledAutomaton::compile(&ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER));
    let matcher = CompiledMatcher::new(&compiled, &set);
    let naive = NaiveMatcher::new(&set);

    let mut gen = TrafficGenerator::new(0x9A7);
    for (mtu, every, budget) in [(200usize, 3usize, 4096usize), (128, 4, 256), (64, 2, 96)] {
        let packet = gen.infected_packet(2048, &set, 6);
        let schedule = gen.segment_schedule(
            &packet,
            &set,
            ChopProfile::MidPattern { mtu },
            SegmentProfile::Holes { every },
        );
        // Contiguous delivered runs: merge the survivors' coverage.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for seg in &schedule {
            let (s, e) = (seg.seq as usize, seg.seq as usize + seg.bytes.len());
            match runs.last_mut() {
                Some(last) if last.1 == s => last.1 = e,
                _ => runs.push((s, e)),
            }
        }
        // Expected: per-run scans, offsets made stream-absolute. A run
        // scanned after a skip starts with masked history, identical to
        // scanning the slice standalone.
        let mut want: Vec<Match> = Vec::new();
        for &(s, e) in &runs {
            want.extend(naive.find_all(&packet.payload[s..e]).into_iter().map(|m| {
                Match {
                    end: m.end + s,
                    pattern: m.pattern,
                }
            }));
        }
        let (got, stats) = reassemble_compiled(&matcher, &schedule, budget);
        assert_eq!(
            got, want,
            "hole loss must be exactly boundary-local (mtu {mtu}, every {every}, budget {budget})"
        );
        if runs.len() > 1 {
            assert!(stats.holes_skipped > 0, "schedule must have forced skips");
        }
        // Sanity in both directions against the full scan.
        let whole = matcher.find_all(&packet.payload);
        for m in &got {
            assert!(whole.contains(m), "reassembly invented a match: {m:?}");
        }
        for m in whole {
            let inside_run = runs
                .iter()
                .any(|&(s, e)| m.end <= e && m.end >= set.pattern_len(m.pattern) + s);
            if inside_run && !got.contains(&m) {
                // Only acceptable if the occurrence spans a hole — but
                // `inside_run` already excludes that (runs are
                // contiguous), so this is a real loss.
                panic!("match {m:?} lies inside a delivered run but was lost");
            }
        }
    }
}

/// Invariant 3: pathological far-future and scattered schedules can
/// never push buffered bytes past the budget (asserted after every
/// single ingest inside the helpers), and the table-level gauge agrees.
#[test]
fn budget_is_strict_under_pathological_schedules() {
    let set = PatternSet::new(["he", "she", "his", "hers", "attack"]).unwrap();
    let compiled =
        CompiledAutomaton::compile(&ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER));
    let matcher = CompiledMatcher::new(&compiled, &set);
    let budget = 64usize;

    let mut flow = StreamFlow::new(ReassemblyConfig::new(budget), ScanState::fresh());
    let mut out = Vec::new();
    let mut stats = ReassemblyStats::default();
    let mut scan = |s: &mut ScanState, chunk: &[u8], o: &mut Vec<Match>| {
        matcher.scan_chunk_into(s, chunk, o)
    };
    // A hostile sender scattering segments across sequence space,
    // including far jumps, stale replays and bursts wider than the
    // whole window.
    let mut seq_points: Vec<u64> = vec![0, 1000, 17, 90, 5000, 4990, 200, 3, 100_000, 64];
    seq_points.extend((0..200).map(|i| (i * 37) % 700));
    let mut prev_next = 0u64;
    for (i, &seq) in seq_points.iter().enumerate() {
        let len = 1 + (i * 13) % 50;
        let payload = vec![b"hx"[i % 2]; len];
        flow.ingest(seq, &payload, &mut scan, &mut out, &mut stats);
        assert!(
            flow.reassembler().buffered_bytes() <= budget,
            "buffered {} > budget {budget} after segment {i}",
            flow.reassembler().buffered_bytes()
        );
        let next = flow.reassembler().next_seq();
        assert!(next >= prev_next, "delivery point must be monotone");
        prev_next = next;
    }
    assert_eq!(stats.bytes_held, flow.reassembler().buffered_bytes() as u64);
    assert!(stats.bytes_held_peak <= budget as u64);
}

/// The table-level ingest path: interleaved multi-flow adversarial
/// schedules, per-flow equivalence, and an honest table-wide held-bytes
/// gauge (including across evictions).
#[test]
fn flow_table_ingest_segments_interleaved() {
    let set = extract_preserving(&master_ruleset(), 120, 0x233);
    let compiled =
        CompiledAutomaton::compile(&ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER));
    let matcher = CompiledMatcher::new(&compiled, &set);

    let mut gen = TrafficGenerator::new(0xC0DE);
    let profiles = [
        SegmentProfile::Reorder { window: 3 },
        SegmentProfile::OverlapConflicting { extend: 8 },
        SegmentProfile::Retransmit { every: 2 },
        SegmentProfile::InOrder,
    ];
    let packets: Vec<_> = (0..8).map(|_| gen.infected_packet(1024, &set, 3)).collect();
    let schedules: Vec<Vec<Segment>> = packets
        .iter()
        .enumerate()
        .map(|(i, p)| {
            gen.segment_schedule(p, &set, ChopProfile::MidPattern { mtu: 128 }, profiles[i % 4])
        })
        .collect();
    let arrival = gen.interleave_schedule(&schedules.iter().map(Vec::len).collect::<Vec<_>>());

    let template = StreamFlow::new(ReassemblyConfig::new(2048), ScanState::fresh());
    let mut table = FlowTable::new(64, template);
    let mut cursors = vec![0usize; schedules.len()];
    let mut per_flow: Vec<Vec<Match>> = vec![Vec::new(); schedules.len()];
    let mut alerts = Vec::new();
    for &f in &arrival {
        let seg = &schedules[f][cursors[f]];
        cursors[f] += 1;
        table.ingest_segments(
            [FlowSegment {
                key: FlowKey(f as u128),
                seq: seg.seq,
                payload: &seg.bytes,
            }],
            |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
            &mut alerts,
        );
        per_flow[f].extend(alerts.iter().map(|a| a.matched));
        // The gauge tracks the true buffered total at every step.
        assert_eq!(
            table.stats().reassembly.bytes_held,
            table.buffered_bytes() as u64
        );
    }
    table.flush_flows(
        |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
        &mut alerts,
    );
    for a in &alerts {
        per_flow[a.key.0 as usize].extend([a.matched]);
    }
    assert_eq!(table.stats().evictions, 0);
    assert_eq!(table.buffered_bytes(), 0, "flush must drain every flow");
    assert_eq!(table.stats().reassembly.bytes_held, 0);
    assert!(table.stats().reassembly.overlap_conflicts > 0);
    for (f, p) in packets.iter().enumerate() {
        let want = matcher.find_all(&p.payload);
        assert_eq!(per_flow[f], want, "flow {f} diverged through the table");
    }
}

/// Evicting a flow with buffered out-of-order data must subtract its
/// bytes from the table-wide gauge (no phantom memory accounting).
#[test]
fn eviction_of_buffered_flow_keeps_gauge_honest() {
    let set = PatternSet::new(["hers"]).unwrap();
    let compiled =
        CompiledAutomaton::compile(&ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER));
    let matcher = CompiledMatcher::new(&compiled, &set);
    let scan = |state: &mut ScanState, chunk: &[u8], out: &mut Vec<Match>| {
        matcher.scan_chunk_into(state, chunk, out)
    };

    let template = StreamFlow::new(ReassemblyConfig::new(256), ScanState::fresh());
    // Capacity-1: the second flow evicts the first.
    let mut table = FlowTable::with_ways(1, 1, template);
    let mut alerts = Vec::new();
    // Flow 1 buffers 8 out-of-order bytes behind a hole.
    table.ingest_segments(
        [FlowSegment { key: FlowKey(1), seq: 100, payload: b"AAAABBBB" }],
        scan,
        &mut alerts,
    );
    assert_eq!(table.stats().reassembly.bytes_held, 8);
    // Flow 2 arrives: flow 1 (and its buffer) leaves the table.
    table.ingest_segments(
        [FlowSegment { key: FlowKey(2), seq: 0, payload: b"hers" }],
        scan,
        &mut alerts,
    );
    assert_eq!(table.stats().evictions, 1);
    assert_eq!(table.stats().reassembly.bytes_held, 0);
    assert_eq!(table.buffered_bytes(), 0);
    assert_eq!(alerts.len(), 1, "the new flow scans normally");

    // remove() keeps the gauge honest too.
    table.ingest_segments(
        [FlowSegment { key: FlowKey(2), seq: 50, payload: b"CC" }],
        scan,
        &mut alerts,
    );
    assert_eq!(table.stats().reassembly.bytes_held, 2);
    assert!(table.remove(FlowKey(2)));
    assert_eq!(table.stats().reassembly.bytes_held, 0);

    // evict_idle() on a roomier table: the stale buffered flow retires
    // and its bytes leave the gauge.
    let mut table = FlowTable::new(
        8,
        StreamFlow::new(ReassemblyConfig::new(256), ScanState::fresh()),
    );
    table.ingest_segments(
        [FlowSegment { key: FlowKey(3), seq: 9, payload: b"D" }],
        scan,
        &mut alerts,
    );
    assert_eq!(table.stats().reassembly.bytes_held, 1);
    for i in 0..5u128 {
        table.touch(FlowKey(100 + i));
    }
    table.evict_idle(2);
    assert!(table.stats().idle_evictions >= 1);
    assert_eq!(table.stats().reassembly.bytes_held, 0);
    assert_eq!(table.buffered_bytes(), 0);
}

/// Degenerate-input hardening: zero capacities/ways/budgets must fail
/// loudly at construction, never misbehave at traffic time.
mod degenerate_inputs {
    use super::*;

    #[test]
    #[should_panic(expected = "flow table capacity must be non-zero")]
    fn zero_capacity_table_panics() {
        let _ = FlowTable::new(0, ScanState::fresh());
    }

    #[test]
    #[should_panic(expected = "associativity must be non-zero")]
    fn zero_ways_table_panics() {
        let _ = FlowTable::with_ways(8, 0, ScanState::fresh());
    }

    #[test]
    #[should_panic(expected = "reassembly budget must be non-zero")]
    fn zero_budget_reassembler_panics() {
        let _ = ReassemblyConfig::new(0);
    }
}

fn dense_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..6),
        1..8,
    )
}

/// Builds a full-coverage segment schedule from a payload, random cuts
/// and a random arrival permutation (any permutation is
/// in-order-deliverable when the budget covers the payload).
fn permuted_schedule(
    payload: &[u8],
    raw_cuts: &[prop::sample::Index],
    perm: &[prop::sample::Index],
) -> Vec<Segment> {
    let mut cuts: Vec<usize> = if payload.len() < 2 {
        Vec::new()
    } else {
        raw_cuts.iter().map(|i| 1 + i.index(payload.len() - 1)).collect()
    };
    cuts.sort_unstable();
    cuts.dedup();
    let mut segments: Vec<Segment> = Vec::new();
    let mut start = 0usize;
    for &cut in cuts.iter().chain(std::iter::once(&payload.len())) {
        if cut > start {
            segments.push(Segment {
                seq: start as u64,
                bytes: payload[start..cut].to_vec(),
            });
            start = cut;
        }
    }
    // Fisher-Yates driven by the proptest indices.
    for (i, idx) in perm.iter().enumerate() {
        if segments.is_empty() {
            break;
        }
        let len = segments.len();
        let j = idx.index(len);
        segments.swap(i % len, j);
    }
    segments
}

/// SplitMix64 finalizer: expands one proptest-chosen seed into the
/// independent draws a soup segment needs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzz-style hardening for `FlowTable::ingest_segment_at`:
    /// arbitrary segment soups — random seq/len/content, zero-length
    /// segments, u32-wrap-adjacent sequence numbers, random resyncs,
    /// forced evictions in a tiny table — must never panic, never
    /// exceed the per-flow budget table-wide, and keep the
    /// `bytes_held` gauge honest at every step.
    #[test]
    fn segment_soup_through_the_table_is_safe_and_accounted(
        seeds in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let set = PatternSet::new(["abcab", "bca"]).unwrap();
        let compiled = CompiledAutomaton::compile(
            &ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER),
        );
        let matcher = CompiledMatcher::new(&compiled, &set);
        const BUDGET: usize = 96;
        const CAPACITY: usize = 4; // tiny on purpose: the soup evicts
        let template = StreamFlow::new(ReassemblyConfig::new(BUDGET), ScanState::fresh());
        let mut table = FlowTable::with_ways(CAPACITY, 2, template);
        let mut out = Vec::new();
        for (t, &seed) in seeds.iter().enumerate() {
            let (r0, r1, r2, r3) =
                (mix(seed ^ 1), mix(seed ^ 2), mix(seed ^ 3), mix(seed ^ 4));
            let key = FlowKey((r0 % 6) as u128);
            let seq = match r1 % 4 {
                0 => r2 % 64,                       // near stream start
                1 => r2 % 4096,                     // mid-stream chaos
                2 => (u32::MAX as u64) - (r2 % 64), // just below the wrap
                _ => (u32::MAX as u64) + (r2 % 64), // just above the wrap
            };
            let len = (r3 % 48) as usize; // zero-length included
            let payload: Vec<u8> =
                (0..len).map(|i| b"abc"[(mix(r3 ^ i as u64) % 3) as usize]).collect();
            let resync = r1 % 7 == 0;
            table.ingest_segment_at(
                FlowSegment { key, seq, payload: &payload },
                t as u64,
                resync,
                |state, chunk, o| matcher.scan_chunk_into(state, chunk, o),
                &mut out,
            );
            prop_assert_eq!(
                table.stats().reassembly.bytes_held,
                table.buffered_bytes() as u64,
                "gauge diverged from the true buffered total"
            );
            prop_assert!(
                table.buffered_bytes() <= CAPACITY * BUDGET,
                "table-wide buffering exceeded capacity x per-flow budget"
            );
        }
        table.flush_flows(
            |state, chunk, o| matcher.scan_chunk_into(state, chunk, o),
            &mut out,
        );
        prop_assert_eq!(table.buffered_bytes(), 0);
        prop_assert_eq!(table.stats().reassembly.bytes_held, 0);
    }

    /// Any arrival permutation of any packetization reassembles to the
    /// whole-payload scan — compiled engine, generous budget.
    #[test]
    fn any_permutation_is_equivalent(
        patterns in dense_patterns(),
        payload in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..160),
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..24),
        perm in proptest::collection::vec(any::<prop::sample::Index>(), 0..32),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let naive = NaiveMatcher::new(&set).find_all(&payload);
        let compiled = CompiledAutomaton::compile(
            &ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER),
        );
        let matcher = CompiledMatcher::new(&compiled, &set);
        let schedule = permuted_schedule(&payload, &raw_cuts, &perm);
        let budget = payload.len().max(1);
        let (got, stats) = reassemble_compiled(&matcher, &schedule, budget);
        prop_assert_eq!(got, naive, "permuted schedule diverged");
        prop_assert_eq!(stats.holes_skipped, 0, "full coverage + full budget: no holes");
    }

    /// Duplicating arbitrary segments of the permutation changes
    /// nothing: retransmit suppression is exact.
    #[test]
    fn duplicates_never_change_results(
        patterns in dense_patterns(),
        payload in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..120),
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..16),
        dups in proptest::collection::vec(any::<prop::sample::Index>(), 1..8),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let naive = NaiveMatcher::new(&set).find_all(&payload);
        let compiled = CompiledAutomaton::compile(
            &ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER),
        );
        let matcher = CompiledMatcher::new(&compiled, &set);
        let mut schedule = permuted_schedule(&payload, &raw_cuts, &[]);
        // Insert duplicates of earlier segments at arbitrary points.
        for idx in &dups {
            let src = idx.index(schedule.len());
            let seg = schedule[src].clone();
            let at = idx.index(schedule.len() + 1).min(schedule.len());
            schedule.insert(at, seg);
        }
        let (got, _) = reassemble_compiled(&matcher, &schedule, payload.len());
        prop_assert_eq!(got, naive, "duplicated schedule diverged");
    }
}
