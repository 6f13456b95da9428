//! Flow scenario: streaming scans through a bounded flow table.
//!
//! An edge deployment does not see whole payloads; it sees a firehose of
//! interleaved packets, each belonging to some flow, with patterns
//! routinely straddling packet boundaries. This example builds the full
//! flow pipeline:
//!
//! 1. a large ruleset, sharded into cache-sized automata
//!    ([`ShardedMatcher`]);
//! 2. generated flows chopped at **adversarial** boundaries (every
//!    injected occurrence cut mid-pattern) and interleaved into one
//!    packet arrival order ([`ChopProfile::MidPattern`]);
//! 3. a bounded [`FlowTable`] carrying each flow's resumable
//!    [`ShardedScanState`] between packets, scanning every packet as it
//!    arrives.
//!
//! Every injected occurrence is found at its exact stream offset even
//! though every one of them straddles a packet boundary — the point of
//! the resumable scan core. For contrast the example then scans the
//! reassembled stream whole, replays the flows as hostile TCP segments
//! through a reassembler, and hides signatures in HTTP chunk framing.
//! Everything runs on the calling thread; in the resident service each
//! worker thread runs this loop over the flows steered to it.
//!
//! Run with: `cargo run --release --example flow_scan`
//!
//! [`ShardedMatcher`]: dpi_accel::core::ShardedMatcher
//! [`FlowTable`]: dpi_accel::core::FlowTable
//! [`ShardedScanState`]: dpi_accel::core::ShardedScanState
//! [`ChopProfile::MidPattern`]: dpi_accel::rulesets::ChopProfile

use dpi_accel::core::FlowTable;
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{
    chop, extract_preserving, master_ruleset, ChopProfile, HttpMalformation, Segment,
    SegmentProfile,
};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 1,500-rule slice of the master ruleset: big enough that the
    // monolithic automaton outgrows a per-core cache.
    let set = extract_preserving(&master_ruleset(), 1500, 0xF10);
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::default())?;
    println!(
        "ruleset: {} strings; sharded into {} automata ({} split) of {} KiB total",
        set.len(),
        sharded.shard_count(),
        sharded.strategy(),
        sharded.memory_bytes() / 1024
    );

    // 512 flows; every fourth one carries an injected occurrence. Each
    // flow is chopped with a boundary *inside* every injected pattern —
    // the case a payload-at-once scanner cannot see.
    let mut gen = TrafficGenerator::new(0xF7F);
    let mut flows: Vec<dpi_accel::rulesets::Packet> = Vec::new();
    let mut ground_truth: Vec<(usize, PatternId, usize)> = Vec::new();
    for i in 0..512 {
        let len = [480usize, 1400, 2900, 240][i % 4];
        let p = if i % 4 == 0 {
            let p = gen.infected_packet(len, &set, 2);
            for &(id, end) in &p.injected {
                ground_truth.push((i, id, end));
            }
            p
        } else {
            gen.clean_packet(len)
        };
        flows.push(p);
    }
    let segments: Vec<Vec<&[u8]>> = flows
        .iter()
        .map(|p| {
            let cuts = gen.chop_points(p, &set, ChopProfile::MidPattern { mtu: 536 });
            chop(&p.payload, &cuts)
        })
        .collect();
    let total_bytes: usize = flows.iter().map(|p| p.payload.len()).sum();
    let total_packets: usize = segments.iter().map(Vec::len).sum();
    let schedule =
        gen.interleave_schedule(&segments.iter().map(Vec::len).collect::<Vec<_>>());

    // The flow pipeline: bounded table of resumable per-flow states; one
    // scratch + one state template, allocation-free once warm. The table
    // is set-associative, so raw capacity does not guarantee residency —
    // a set can overflow while the table is half empty. The exact-offset
    // ground-truth assertion below needs every flow resident for its
    // whole life, so the table is sized with headroom and the
    // no-eviction condition is asserted explicitly (if a future change
    // overflows a set, fail loudly here, not with a confusing miss).
    let mut table = FlowTable::new(8192, sharded.flow_state());
    let mut scratch = sharded.scratch();
    let mut cursors = vec![0usize; segments.len()];
    let mut alerts: Vec<(usize, Match)> = Vec::new();
    let start = Instant::now();
    let mut chunk_matches = Vec::new();
    for &flow in &schedule {
        let segment = segments[flow][cursors[flow]];
        cursors[flow] += 1;
        let (state, _) = table.touch(FlowKey(flow as u128));
        chunk_matches.clear();
        sharded.scan_chunk_into(state, segment, &mut scratch, &mut chunk_matches);
        alerts.extend(chunk_matches.iter().map(|&m| (flow, m)));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = table.stats();
    println!(
        "\nflow pipeline: {} packets of {} flows ({} bytes) -> {:.0} MB/s",
        total_packets,
        segments.len(),
        total_bytes,
        total_bytes as f64 / elapsed / 1e6
    );
    println!(
        "flow table: {} resident / {} capacity; {} hits, {} misses, {} evictions",
        table.len(),
        table.capacity(),
        stats.hits,
        stats.misses,
        stats.evictions
    );
    assert_eq!(
        stats.evictions, 0,
        "table must hold every flow for the exact-offset check below"
    );
    // Every injected occurrence straddles a packet boundary by
    // construction, yet must be reported at its exact stream offset.
    for &(flow, id, end) in &ground_truth {
        assert!(
            alerts
                .iter()
                .any(|&(f, m)| f == flow && m.pattern == id && m.end == end),
            "pipeline missed pattern {id} in flow {flow} at ..{end}"
        );
    }
    println!(
        "ok: all {} injected occurrences detected across packet boundaries",
        ground_truth.len()
    );

    // Contrast 1: one whole-payload scan of the reassembled stream.
    let stream: Vec<u8> = flows.iter().flat_map(|p| p.payload.clone()).collect();
    let mut out = Vec::new();
    let start = Instant::now();
    sharded.scan_into(&stream, &mut scratch, &mut out);
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "\nwhole-payload scan of the reassembled {} KiB stream -> {:.0} MB/s, {} matches",
        stream.len() / 1024,
        stream.len() as f64 / elapsed / 1e6,
        out.len()
    );
    // Reassembly can only add matches (occurrences straddling flow
    // boundaries), never lose them.
    assert!(out.len() >= alerts.len());

    // Contrast 2: hostile arrival. The same flows now show up as raw TCP
    // segments — reordered, retransmitted, and overlapped with
    // *conflicting* bytes (the classic IDS evasion). Wrapping each
    // flow's scanner state in a budgeted [`StreamFlow`] reassembler
    // restores the in-order byte stream: every injected occurrence is
    // still found at its exact stream offset, and the evasion attempt
    // itself shows up in the counters.
    let profiles = [
        SegmentProfile::Reorder { window: 4 },
        SegmentProfile::OverlapConflicting { extend: 16 },
        SegmentProfile::Retransmit { every: 3 },
    ];
    let schedules: Vec<Vec<Segment>> = flows
        .iter()
        .enumerate()
        .map(|(i, p)| {
            gen.segment_schedule(p, &set, ChopProfile::MidPattern { mtu: 536 }, profiles[i % 3])
        })
        .collect();
    let adv_bytes: usize = schedules
        .iter()
        .flatten()
        .map(|s| s.bytes.len())
        .sum();
    let arrival =
        gen.interleave_schedule(&schedules.iter().map(Vec::len).collect::<Vec<_>>());
    let mut adv_table = FlowTable::new(
        8192,
        StreamFlow::new(ReassemblyConfig::new(8 * 1024), sharded.flow_state()),
    );
    let mut cursors = vec![0usize; schedules.len()];
    let mut adv_alerts: Vec<(usize, Match)> = Vec::new();
    let mut flow_matches = Vec::new();
    let start = Instant::now();
    for &flow in &arrival {
        let seg = &schedules[flow][cursors[flow]];
        cursors[flow] += 1;
        adv_table.ingest_segments(
            [FlowSegment {
                key: FlowKey(flow as u128),
                seq: seg.seq,
                payload: &seg.bytes,
            }],
            |state, chunk, out| sharded.scan_chunk_into(state, chunk, &mut scratch, out),
            &mut flow_matches,
        );
        adv_alerts.extend(flow_matches.iter().map(|a| (a.key.0 as usize, a.matched)));
    }
    adv_table.flush_flows(
        |state, chunk, out| sharded.scan_chunk_into(state, chunk, &mut scratch, out),
        &mut flow_matches,
    );
    adv_alerts.extend(flow_matches.iter().map(|a| (a.key.0 as usize, a.matched)));
    let elapsed = start.elapsed().as_secs_f64();
    let r = adv_table.stats().reassembly;
    println!(
        "\nadversarial arrival: {} segments ({} bytes incl. retransmits) -> {:.0} MB/s",
        arrival.len(),
        adv_bytes,
        adv_bytes as f64 / elapsed / 1e6
    );
    println!(
        "reassembly: {} segments buffered, {} dup bytes clipped, {} overlaps ({} conflicting), held-peak {} B",
        r.segments_buffered, r.dup_bytes, r.overlap_bytes, r.overlap_conflicts, r.bytes_held_peak
    );
    assert!(
        r.overlap_conflicts > 0,
        "the conflicting-overlap schedules must register as evasion attempts"
    );
    assert_eq!(adv_table.buffered_bytes(), 0, "flush must drain every flow");
    for &(flow, id, end) in &ground_truth {
        assert!(
            adv_alerts
                .iter()
                .any(|&(f, m)| f == flow && m.pattern == id && m.end == end),
            "reassembly pipeline missed pattern {id} in flow {flow} at ..{end}"
        );
    }
    println!(
        "ok: all {} injected occurrences detected despite reorder/retransmit/conflicting overlap",
        ground_truth.len()
    );

    // Contrast 3: hostile protocol framing. An attacker hides a
    // signature by splitting it across HTTP chunk bodies — the wire
    // never carries the string contiguously, so even a perfect
    // reassembler + raw scanner misses it. The detect → normalize stage
    // decodes the framing and feeds the scanner the decoded stream;
    // malformed or mimicked traffic fails open to raw scanning with
    // every downgrade counted and no byte unaccounted.
    let sig_set = PatternSet::new(["attack-sig", "evil-payload"])?;
    let rules = ScopedRuleset::build(&sig_set);
    let run_proto = |config: ProtoConfig, wire: &[u8]| -> (Vec<Match>, ProtocolStats) {
        let mut flow = ProtoFlow::new(ScanState::fresh(), config);
        let mut stats = ProtocolStats::default();
        let mut hits = Vec::new();
        for chunk in wire.chunks(536) {
            flow.deliver(
                chunk,
                false,
                &mut stats,
                |lane, scan: &mut ScanState, bytes, out| {
                    rules.scan_chunk_into(lane, scan, bytes, out)
                },
                &mut hits,
            );
        }
        assert_eq!(stats.unaccounted_bytes(), 0, "fail-open ledger must balance");
        (hits, stats)
    };

    let evasion = gen.chunked_evasion_stream(&sig_set, 6);
    let (hits, pstats) = run_proto(ProtoConfig::default(), &evasion.wire);
    let caught = evasion
        .injected
        .iter()
        .filter(|&&(id, end)| hits.iter().any(|m| m.pattern == id && m.end == end))
        .count();
    let raw_only = ProtoConfig { enabled: false, ..ProtoConfig::default() };
    let (raw_hits, _) = run_proto(raw_only, &evasion.wire);
    println!(
        "\nhostile framing: {}/{} chunk-split signatures caught post-normalization \
         (raw scan of the same wire: {}); {} B wire -> {} B decoded",
        caught,
        evasion.injected.len(),
        raw_hits.len(),
        evasion.wire.len(),
        pstats.emitted_bytes + pstats.raw_bytes,
    );
    assert_eq!(caught, evasion.injected.len(), "normalizer must catch every split");
    assert!(raw_hits.is_empty(), "every occurrence is split; raw must miss them all");

    // Mimicry: the port hint promises TLS, the content is HTTP. Trust
    // neither — downgrade to raw scanning and still find the payload.
    let mut mimic = gen.mimicry_stream(256);
    mimic.extend_from_slice(b"..evil-payload..");
    let tls_hint = ProtoConfig { hint: Some(ProtocolId::Tls), ..ProtoConfig::default() };
    let (hits, pstats) = run_proto(tls_hint, &mimic);
    assert_eq!(pstats.mimicry_suspected, 1);
    assert!(
        hits.iter().any(|m| m.pattern.index() == 1),
        "raw fallback must still scan the mimicked flow"
    );
    println!(
        "mimicry: TLS port hint vs HTTP content -> {} downgrade counted, \
         flow scanned raw, signature still found",
        pstats.mimicry_suspected
    );

    // Malformed framing: a hostile chunk-size line kills the parser;
    // the flow fails open and the remainder is scanned raw.
    let mut bad = gen.malformed_http_stream(HttpMalformation::BadChunkSize);
    bad.extend_from_slice(b"....attack-sig....");
    let (hits, pstats) = run_proto(ProtoConfig::default(), &bad);
    assert_eq!(pstats.malformed_downgrades, 1);
    assert!(
        hits.iter().any(|m| m.pattern.index() == 0),
        "signature after the malformation must be caught by the raw fallback"
    );
    println!(
        "malformed chunk size: 1 fail-open downgrade, remainder raw-scanned, \
         signature still found ({} raw bytes)",
        pstats.raw_bytes
    );
    Ok(())
}
