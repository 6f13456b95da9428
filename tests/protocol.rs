//! Protocol normalization fail-open equivalence suite.
//!
//! The robustness contract under test (ISSUE 10 acceptance criteria):
//!
//! 1. **Off ≡ raw** — with the normalizer disabled, and with it enabled
//!    but facing non-protocol traffic, the pipeline's matches are
//!    byte-for-byte identical to a plain raw-scan pipeline, across
//!    every `ChopProfile` × `SegmentProfile` combination.
//! 2. **Normalization is transport-invariant** — for well-formed HTTP,
//!    the scanner sees exactly the decoded stream (`HttpStream`
//!    ground truth) no matter how the wire bytes are chopped,
//!    reordered, retransmitted, or overlapped.
//! 3. **Fail open, never closed** — every `HttpMalformation` shape
//!    downgrades the flow to raw scanning with the downgrade counted;
//!    a signature after the hostile framing is still found.
//! 4. **Ledger** — `delivered == normalized + raw` under arbitrary
//!    byte soups and adversarial segment schedules, and nothing
//!    panics.

use std::sync::{Arc, OnceLock};

use dpi_accel::prelude::*;
use dpi_accel::rulesets::{
    ChopProfile, HttpMalformation, Packet, Segment, SegmentProfile, HTTP_MALFORMATIONS,
};
use proptest::prelude::*;

/// Replays `schedule` through the full pipeline — reassemble →
/// detect/normalize → scan — and returns the matches plus both stats
/// blocks. Asserts the fail-open ledger and the reassembly budget on
/// every step.
fn proto_pipeline(
    rules: &ScopedRuleset,
    config: ProtoConfig,
    schedule: &[Segment],
    budget: usize,
) -> (Vec<Match>, ProtocolStats, ReassemblyStats) {
    let mut flow = StreamFlow::new(
        ReassemblyConfig::new(budget),
        ProtoFlow::new(ScanState::fresh(), config),
    );
    let mut out = Vec::new();
    let mut rstats = ReassemblyStats::default();
    let mut pstats = ProtocolStats::default();
    {
        let mut scan = |proto: &mut ProtoFlow<ScanState>, chunk: &[u8], out: &mut Vec<Match>| {
            proto.deliver(
                chunk,
                false,
                &mut pstats,
                |lane, scan: &mut ScanState, bytes, out| {
                    rules.scan_chunk_into(lane, scan, bytes, out)
                },
                out,
            );
        };
        for seg in schedule {
            flow.ingest(seg.seq, &seg.bytes, &mut scan, &mut out, &mut rstats);
            assert!(
                flow.reassembler().buffered_bytes() <= budget,
                "reassembly budget exceeded mid-schedule"
            );
        }
        flow.flush(&mut scan, &mut out, &mut rstats);
    }
    assert_eq!(
        pstats.unaccounted_bytes(),
        0,
        "fail-open ledger must balance: {pstats:?}"
    );
    (out, pstats, rstats)
}

/// The reference pipeline: same reassembler, plain `ScanState`, no
/// protocol stage at all.
fn raw_pipeline(rules: &ScopedRuleset, schedule: &[Segment], budget: usize) -> Vec<Match> {
    let mut flow = StreamFlow::new(ReassemblyConfig::new(budget), ScanState::fresh());
    let mut out = Vec::new();
    let mut rstats = ReassemblyStats::default();
    let mut scan = |scan: &mut ScanState, chunk: &[u8], out: &mut Vec<Match>| {
        rules.scan_chunk_into(Lane::Raw, scan, chunk, out);
    };
    for seg in schedule {
        flow.ingest(seg.seq, &seg.bytes, &mut scan, &mut out, &mut rstats);
    }
    flow.flush(&mut scan, &mut out, &mut rstats);
    out
}

/// The one-signature ruleset most tests scan with, compiled once per
/// test binary.
fn attack_sig() -> &'static ScopedRuleset {
    static RULES: OnceLock<ScopedRuleset> = OnceLock::new();
    RULES.get_or_init(|| ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap()))
}

fn all_chops() -> Vec<ChopProfile> {
    vec![
        ChopProfile::Mtu(97),
        ChopProfile::SingleByte,
        ChopProfile::Random { min: 3, max: 41 },
        ChopProfile::MidPattern { mtu: 64 },
    ]
}

fn all_segment_profiles() -> Vec<SegmentProfile> {
    vec![
        SegmentProfile::InOrder,
        SegmentProfile::Reorder { window: 4 },
        SegmentProfile::Retransmit { every: 3 },
        SegmentProfile::OverlapConsistent { extend: 8 },
        SegmentProfile::OverlapConflicting { extend: 8 },
        SegmentProfile::Holes { every: 5 },
    ]
}

// ---------------------------------------------------------------------------
// 1. Off ≡ raw, across every transport adversary.
// ---------------------------------------------------------------------------

#[test]
fn disabled_and_unclassified_normalizers_equal_raw_scan_across_all_profiles() {
    let set = PatternSet::new(["attack-sig", "evil-payload", "he", "hers"]).unwrap();
    let rules = ScopedRuleset::build(&set);
    let mut gen = TrafficGenerator::new(0xC0FFEE);
    for chop in all_chops() {
        for profile in all_segment_profiles() {
            let mut packet = gen.packets(1, 1200, &set, 2).remove(0);
            // A leading non-protocol byte resolves the content probe to
            // raw immediately, so the enabled pipeline must also be a
            // pure pass-through.
            packet.payload.insert(0, 0x01);
            for inj in &mut packet.injected {
                inj.1 += 1;
            }
            let schedule = gen.segment_schedule(&packet, &set, chop, profile);
            let budget = packet.payload.len() + 128;

            let reference = raw_pipeline(&rules, &schedule, budget);
            let disabled = ProtoConfig {
                enabled: false,
                ..ProtoConfig::default()
            };
            let (off, off_stats, _) = proto_pipeline(&rules, disabled, &schedule, budget);
            assert_eq!(
                off, reference,
                "disabled normalizer diverged from raw scan under {chop:?}/{profile:?}"
            );
            assert_eq!(off_stats.normalized_bytes, 0);

            let (on, on_stats, _) =
                proto_pipeline(&rules, ProtoConfig::default(), &schedule, budget);
            assert_eq!(
                on, reference,
                "unclassified flow diverged from raw scan under {chop:?}/{profile:?}"
            );
            assert_eq!(on_stats.normalized_bytes, 0);
            assert_eq!(on_stats.flows_http + on_stats.flows_tls, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Normalization is transport-invariant: the scanner sees exactly the
//    decoded stream whatever the wire does.
// ---------------------------------------------------------------------------

#[test]
fn http_normalization_is_cut_and_schedule_invariant() {
    // Every request line opens with one of the method patterns, so the
    // first one of each stream straddles the content probe.
    let set = PatternSet::new([
        "Host: www",
        "example.com",
        "attack-sig",
        "GET /",
        "POST /",
        "PUT /",
        "HEAD /",
        "DELETE /",
    ])
    .unwrap();
    let rules = ScopedRuleset::build(&set);
    let mut gen = TrafficGenerator::new(11);
    let stream = gen.http_stream(4, 300, 1.0);
    let mut expect = Vec::new();
    rules.scan_into(Lane::Raw, &stream.decoded, &mut expect);
    assert!(
        expect[0].pattern.index() >= 3 && expect[0].end <= "DELETE /".len(),
        "fixture must open with a request-line match: {:?}",
        expect.first()
    );

    let packet = Packet {
        payload: stream.wire.clone(),
        injected: Vec::new(),
    };
    // Every in-order-deliverable schedule (Holes genuinely loses
    // bytes, which is a desync, not an equivalence case).
    let deliverable: Vec<SegmentProfile> = all_segment_profiles()
        .into_iter()
        .filter(|p| !matches!(p, SegmentProfile::Holes { .. }))
        .collect();
    for chop in [
        ChopProfile::Mtu(80),
        ChopProfile::SingleByte,
        ChopProfile::Random { min: 2, max: 37 },
    ] {
        for profile in &deliverable {
            let schedule = gen.segment_schedule(&packet, &set, chop, *profile);
            let (got, pstats, _) = proto_pipeline(
                &rules,
                ProtoConfig::default(),
                &schedule,
                stream.wire.len() + 256,
            );
            assert_eq!(
                got, expect,
                "normalized matches diverged from decoded-stream scan under {chop:?}/{profile:?}"
            );
            assert_eq!(pstats.flows_http, 1);
            assert_eq!(pstats.malformed_downgrades, 0);
            assert_eq!(pstats.delivered_bytes, stream.wire.len() as u64);
        }
    }
}

#[test]
fn chunk_split_signatures_found_normalized_and_missed_raw() {
    let set = PatternSet::new(["attack-sig", "evil-payload"]).unwrap();
    let rules = ScopedRuleset::build(&set);
    let mut gen = TrafficGenerator::new(23);
    let stream = gen.chunked_evasion_stream(&set, 4);
    let schedule = vec![Segment {
        seq: 0,
        bytes: stream.wire.clone(),
    }];
    let budget = stream.wire.len() + 64;

    let (got, pstats, _) = proto_pipeline(&rules, ProtoConfig::default(), &schedule, budget);
    for &(id, end) in &stream.injected {
        assert!(
            got.iter().any(|m| m.pattern == id && m.end == end),
            "normalized scan must find the split occurrence ({id:?}, {end})"
        );
    }
    assert_eq!(pstats.flows_http, 1);

    let disabled = ProtoConfig {
        enabled: false,
        ..ProtoConfig::default()
    };
    let (raw, _, _) = proto_pipeline(&rules, disabled, &schedule, budget);
    assert!(
        raw.is_empty(),
        "every injection is split by chunk framing; the raw scan must miss all of them: {raw:?}"
    );
}

#[test]
fn tls_probe_prefix_and_record_body_are_never_spliced() {
    // The probe scans `16 03 01` raw; the rest of the record header is
    // metadata. `\x01Zab` then exists neither on the wire (`01 00 05 5a`)
    // nor in the record body, only across the probe and the body.
    let set = PatternSet::new([&b"\x01Zab"[..], &b"Zab"[..]]).unwrap();
    let rules = ScopedRuleset::build(&set);
    let wire = b"\x16\x03\x01\x00\x05Zabcd";
    for cut in 1..=wire.len() {
        let schedule: Vec<Segment> = [(0, &wire[..cut]), (cut, &wire[cut..])]
            .into_iter()
            .filter(|(_, bytes)| !bytes.is_empty())
            .map(|(seq, bytes)| Segment {
                seq: seq as u64,
                bytes: bytes.to_vec(),
            })
            .collect();
        let (got, pstats, _) = proto_pipeline(&rules, ProtoConfig::default(), &schedule, 64);
        assert_eq!(pstats.flows_tls, 1);
        // The three probe bytes hold stream offsets 0..3, so the body's
        // `Zab` ends at decoded offset 6.
        assert_eq!(
            got,
            [Match {
                end: 6,
                pattern: PatternId(1)
            }],
            "cut at {cut}"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Every malformation shape fails open with the downgrade counted.
// ---------------------------------------------------------------------------

#[test]
fn every_malformation_fails_open_and_remainder_is_scanned() {
    let rules = attack_sig();
    for &kind in HTTP_MALFORMATIONS {
        let mut gen = TrafficGenerator::new(31);
        let mut wire = gen.malformed_http_stream(kind);
        wire.extend_from_slice(b"....attack-sig....");
        // Deliver both in one piece and in small in-order segments: the
        // downgrade must not depend on where chunk boundaries land.
        let whole = vec![Segment {
            seq: 0,
            bytes: wire.clone(),
        }];
        let mut pieces = Vec::new();
        let mut seq = 0u64;
        for chunk in wire.chunks(7) {
            pieces.push(Segment {
                seq,
                bytes: chunk.to_vec(),
            });
            seq += chunk.len() as u64;
        }
        for schedule in [&whole, &pieces] {
            let (got, pstats, _) =
                proto_pipeline(rules, ProtoConfig::default(), schedule, wire.len() + 64);
            assert!(
                got.iter().any(|m| m.pattern.index() == 0),
                "{kind:?}: the signature after the hostile framing must still be found"
            );
            if kind == HttpMalformation::TruncatedMidChunk {
                // Truncation is not a parse error — the promised bytes
                // simply never arrive. No downgrade, ledger balanced
                // (asserted inside the pipeline helper), nothing wedged.
                assert_eq!(pstats.malformed_downgrades, 0, "{kind:?}");
            } else {
                assert!(
                    pstats.malformed_downgrades >= 1,
                    "{kind:?} must count a fail-open downgrade"
                );
            }
            assert_eq!(pstats.delivered_bytes, wire.len() as u64);
        }
    }
}

#[test]
fn mimicry_and_probe_exhaustion_fail_open_to_raw_equivalence() {
    let rules = attack_sig();
    let mut gen = TrafficGenerator::new(41);
    let mut wire = gen.mimicry_stream(64);
    wire.extend_from_slice(b"..attack-sig..");
    let schedule = vec![Segment {
        seq: 0,
        bytes: wire.clone(),
    }];
    let budget = wire.len() + 64;
    let reference = raw_pipeline(rules, &schedule, budget);
    assert!(!reference.is_empty());

    // A TLS port hint against plausible HTTP content: trust neither.
    let tls_hint = ProtoConfig {
        hint: Some(ProtocolId::Tls),
        ..ProtoConfig::default()
    };
    let (got, pstats, _) = proto_pipeline(rules, tls_hint, &schedule, budget);
    assert_eq!(pstats.mimicry_suspected, 1);
    assert_eq!(pstats.flows_raw, 1);
    assert_eq!(pstats.flows_http, 0, "the hint mismatch must not normalize");
    assert_eq!(got, reference, "mimicry downgrade must scan raw bytes");

    // A probe budget too small to reach a verdict: count and fall back.
    let tiny = ProtoConfig {
        probe_budget: 2,
        ..ProtoConfig::default()
    };
    let (got, pstats, _) = proto_pipeline(rules, tiny, &schedule, budget);
    assert_eq!(pstats.probe_exhausted, 1);
    assert_eq!(got, reference, "probe exhaustion must scan raw bytes");
}

// ---------------------------------------------------------------------------
// 4. Ledger and no-panic properties under arbitrary input.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_bytes_never_panic_and_ledger_balances(
        prefix_sel in 0usize..5,
        hint_sel in 0usize..3,
        body in proptest::collection::vec(any::<u8>(), 0..1024),
        raw_cuts in proptest::collection::vec(1usize..1024, 0..6),
    ) {
        // Prefixes bias the soup into the interesting parser states:
        // mid-probe, mid-header, mid-chunk, mid-TLS-record, and deep
        // into a chunk-size digit run (any '0' bytes in the soup then
        // push the digit counter toward its cap — the overflow shape).
        let prefixes: [&[u8]; 5] = [
            b"",
            b"GET / HTTP/1.1\r\n",
            b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n",
            b"\x16\x03\x01\x00\x06",
            b"POST /z HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n00000000000000",
        ];
        let mut data = prefixes[prefix_sel].to_vec();
        data.extend_from_slice(&body);
        let mut cuts = raw_cuts;
        cuts.retain(|&c| c < data.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut schedule = Vec::new();
        let mut start = 0usize;
        for &cut in cuts.iter().chain(std::iter::once(&data.len())) {
            schedule.push(Segment { seq: start as u64, bytes: data[start..cut].to_vec() });
            start = cut;
        }
        let hints = [None, Some(ProtocolId::Http), Some(ProtocolId::Tls)];
        let config = ProtoConfig { hint: hints[hint_sel], ..ProtoConfig::default() };
        // The helper asserts ledger balance and budget internally.
        let (_, pstats, _) = proto_pipeline(attack_sig(), config, &schedule, data.len() + 64);
        prop_assert_eq!(pstats.delivered_bytes, data.len() as u64);
    }

    #[test]
    fn segment_soup_never_panics_and_ledger_balances(
        seeds in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        // Each seed expands deterministically into one adversarial
        // segment: arbitrary placement (including zero length), filler
        // derived from the seed.
        let schedule: Vec<Segment> = seeds
            .into_iter()
            .map(|seed| {
                let seq = (seed >> 16) % 2048;
                let len = (seed % 64) as usize;
                let bytes: Vec<u8> = (0..len)
                    .map(|i| (seed.rotate_left((i % 61) as u32) ^ i as u64) as u8)
                    .collect();
                Segment { seq, bytes }
            })
            .collect();
        let (_, pstats, _) =
            proto_pipeline(attack_sig(), ProtoConfig::default(), &schedule, 256);
        prop_assert_eq!(pstats.unaccounted_bytes(), 0);
    }
}

// ---------------------------------------------------------------------------
// 5. Pattern scoping and the service-level wiring.
// ---------------------------------------------------------------------------

#[test]
fn scoped_rules_never_scan_the_wrong_lane() {
    let mut set =
        PatternSet::new(["http-only-sig", "tls-only-sig", "anywhere-sig"]).unwrap();
    let http_id = set.iter().map(|(id, _)| id).next().unwrap();
    let ids: Vec<PatternId> = set.iter().map(|(id, _)| id).collect();
    set.set_tag(http_id, TAG_HTTP);
    set.set_tag(ids[1], TAG_TLS);
    // ids[2] stays TAG_ANY.
    let rules = ScopedRuleset::build(&set);
    assert_eq!(rules.lane_len(Lane::Raw), 3);
    assert_eq!(rules.lane_len(Lane::Normalized(ProtocolId::Http)), 2);
    assert_eq!(rules.lane_len(Lane::Normalized(ProtocolId::Tls)), 2);

    let mut out = Vec::new();
    rules.scan_into(
        Lane::Normalized(ProtocolId::Http),
        b"tls-only-sig anywhere-sig",
        &mut out,
    );
    assert_eq!(out.len(), 1, "HTTP lane must not see TLS-only rules");
    assert_eq!(out[0].pattern, ids[2], "matches carry the set's own ids");
    rules.scan_into(
        Lane::Normalized(ProtocolId::Tls),
        b"http-only-sig anywhere-sig",
        &mut out,
    );
    assert_eq!(out.len(), 1, "TLS lane must not see HTTP-only rules");
    rules.scan_into(
        Lane::Raw,
        b"http-only-sig tls-only-sig anywhere-sig",
        &mut out,
    );
    assert_eq!(out.len(), 3, "the raw lane always scans the full set");
}

#[test]
fn a_lane_with_no_rule_in_scope_reports_nothing() {
    let set = PatternSet::new(["tls-only-sig", "other-tls-sig"])
        .unwrap()
        .with_tag(TAG_TLS, [PatternId(0), PatternId(1)]);
    let rules = ScopedRuleset::build(&set);
    let payload = b"tls-only-sig other-tls-sig";
    let mut out = Vec::new();
    rules.scan_into(Lane::Normalized(ProtocolId::Http), payload, &mut out);
    assert!(
        out.is_empty(),
        "TLS-only rules reported on HTTP bytes: {out:?}"
    );
    assert_eq!(rules.lane_len(Lane::Normalized(ProtocolId::Http)), 0);
    for lane in [Lane::Normalized(ProtocolId::Tls), Lane::Raw] {
        rules.scan_into(lane, payload, &mut out);
        assert_eq!(out.len(), 2, "{lane:?} must report every rule");
    }

    // Through the pipeline: an HTTP body carrying the signatures reports
    // nothing, the same wire scanned raw reports both.
    let mut wire = b"POST / HTTP/1.1\r\nContent-Length: 26\r\n\r\n".to_vec();
    wire.extend_from_slice(payload);
    let schedule = vec![Segment {
        seq: 0,
        bytes: wire.clone(),
    }];
    let (got, pstats, _) = proto_pipeline(&rules, ProtoConfig::default(), &schedule, 64);
    assert_eq!(pstats.flows_http, 1);
    assert!(
        got.is_empty(),
        "TLS-only rules reported on an HTTP flow: {got:?}"
    );
    assert_eq!(raw_pipeline(&rules, &schedule, 64).len(), 2);
}

#[test]
fn service_pipeline_normalizes_and_accounts_protocol_bytes() {
    let set = PatternSet::new(["attack-sig", "evil-payload"]).unwrap();
    let arena = Arc::new(RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 1).unwrap());
    let mut sim = ServiceSim::new(arena, ServiceConfig::with_workers(2)).unwrap();
    let mut gen = TrafficGenerator::new(5);
    let stream = gen.chunked_evasion_stream(&set, 3);
    let key = FlowKey(7);
    let mut time = 0u64;
    for (i, chunk) in stream.wire.chunks(97).enumerate() {
        time += 1;
        assert!(sim.offer(key, (i * 97) as u64, chunk, time));
    }
    let report = sim.finish();
    let p = &report.stats.workers.protocol;
    assert_eq!(p.flows_http, 1, "the service must classify the flow");
    assert_eq!(p.delivered_bytes, stream.wire.len() as u64);
    assert_eq!(p.unaccounted_bytes(), 0);
    for &(id, end) in &stream.injected {
        assert!(
            report
                .matches
                .iter()
                .any(|m| m.key == key && m.matched.pattern == id && m.matched.end == end),
            "service must catch the chunk-split occurrence ({id:?}, {end})"
        );
    }
}

// ---------------------------------------------------------------------------
// 6. Counter aggregation.
// ---------------------------------------------------------------------------

#[test]
fn protocol_stats_absorb_carries_every_counter() {
    // A full literal: a new counter breaks this build until it is
    // aggregated and listed here.
    let src = ProtocolStats {
        delivered_bytes: 1,
        normalized_bytes: 2,
        raw_bytes: 3,
        emitted_bytes: 4,
        flows_http: 5,
        flows_tls: 6,
        flows_raw: 7,
        malformed_downgrades: 8,
        probe_exhausted: 9,
        mimicry_suspected: 10,
        desync_downgrades: 11,
        tier_bypassed: 12,
    };
    let mut sum = ProtocolStats::default();
    sum.absorb(&src);
    assert_eq!(sum, src);
}
