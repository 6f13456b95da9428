//! Intrusion-detection scenario: a Snort-like ruleset deployed on the
//! simulated Cyclone 3 accelerator, scanning traffic with injected
//! attacks.
//!
//! Demonstrates the paper's motivating use case (§I): moving DPI string
//! matching from end hosts to an edge router's line card. Every injected
//! occurrence must be detected, whatever packet it lands in and wherever
//! the accelerator's engines are in their schedules.
//!
//! The second half shows the intended *software* deployment pattern for
//! hosts without an accelerator: compile the reduced automaton once, keep
//! reusable match buffers per worker, and scan with the allocation-free
//! [`CompiledMatcher::scan_into`]. The same packets then go through a
//! [`ShardedMatcher`], the ruleset split into cache-sized automata that
//! [`ShardedMatcher::scan_into`] runs in turn on the calling thread with
//! one reused scratch.
//!
//! Run with: `cargo run --release --example ids_scan`
//!
//! [`ShardedMatcher`]: dpi_accel::core::ShardedMatcher
//! [`ShardedMatcher::scan_into`]: dpi_accel::core::ShardedMatcher::scan_into

use dpi_accel::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 500-rule Snort-like ruleset (Figure 6 distribution).
    let set = paper_ruleset(PaperRuleset::S500);
    println!(
        "ruleset: {} strings, {} characters",
        set.len(),
        set.total_bytes()
    );

    // Deploy on the paper's low-power device.
    let acc = Accelerator::build(&set, AcceleratorConfig::CYCLONE3)?;
    println!(
        "deployed on Cyclone 3: {} blocks in {} group(s) of {}, peak {:.1} Gbps",
        acc.config().blocks,
        acc.group_count(),
        acc.group_size(),
        acc.peak_throughput_bps() / 1e9
    );

    // 48 packets of 1,500 bytes; half carry two injected attack strings.
    let mut traffic = TrafficGenerator::new(2010);
    let mut packets = Vec::new();
    let mut ground_truth = Vec::new();
    for i in 0..48 {
        let p = if i % 2 == 0 {
            traffic.infected_packet(1500, &set, 2)
        } else {
            traffic.clean_packet(1500)
        };
        for &(id, end) in &p.injected {
            ground_truth.push((i, id, end));
        }
        packets.push(p.payload);
    }

    let report = acc.scan(&packets);
    println!(
        "scanned {} bytes in {} memory cycles -> {:.2} Gbps at f_max",
        report.bytes_scanned,
        report.mem_cycles,
        report.throughput_bps(acc.config().fmax_hz) / 1e9
    );
    println!("alerts raised: {}", report.matches.len());

    // Every injected occurrence must be among the alerts.
    let mut missed = 0;
    for &(packet, id, end) in &ground_truth {
        let hit = report
            .matches
            .iter()
            .any(|m| m.packet == packet && m.pattern == id && m.end == end);
        if !hit {
            missed += 1;
            eprintln!("MISSED: pattern {id} in packet {packet} at ..{end}");
        }
    }
    println!(
        "detection: {}/{} injected occurrences found",
        ground_truth.len() - missed,
        ground_truth.len()
    );
    assert_eq!(missed, 0, "the accelerator must never miss");

    // ---- software fast path: the same ruleset without an accelerator ----
    //
    // Production shape: compile once with the clean-traffic fast lanes
    // (the anchor-byte prefilter plus the region pair rows where the
    // set's calm density attaches them — what the compiled automaton
    // carries picks the scan loop) and reuse match buffers across scans.
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    println!(
        "\nanchor analysis: {} skippable byte values, {} exit pairs",
        anchors.skippable_bytes(),
        anchors.pair_count()
    );
    let pairs = PairTable::build(&dfa, &set, &anchors);
    let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs);
    let matcher = CompiledMatcher::new(&compiled, &set);
    let pair_lane = match compiled.pairs() {
        Some(p) => format!("on (region rows, {} KiB)", p.memory_bytes() / 1024),
        None => "off".to_string(),
    };
    println!(
        "software fast path: compiled engine, {} states, {} KiB flat memory, prefilter {}, pairs {}",
        compiled.len(),
        compiled.memory_bytes() / 1024,
        if compiled.prefilter().is_some() { "on" } else { "off" },
        pair_lane
    );

    // One match buffer per packet slot, reused batch after batch — no
    // per-scan allocation once warm.
    let total_bytes: usize = packets.iter().map(Vec::len).sum();
    let mut per_packet: Vec<Vec<Match>> = vec![Vec::new(); packets.len()];
    let start = Instant::now();
    for (payload, matches) in packets.iter().zip(per_packet.iter_mut()) {
        matcher.scan_into(payload, matches);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let alerts: usize = per_packet.iter().map(Vec::len).sum();
    println!(
        "sequential scan_into: {} alerts over {} bytes -> {:.0} MB/s",
        alerts,
        total_bytes,
        total_bytes as f64 / elapsed / 1e6
    );

    // The software path must detect every injected occurrence too.
    for &(packet, id, end) in &ground_truth {
        assert!(
            per_packet[packet].iter().any(|m| m.pattern == id && m.end == end),
            "software path missed pattern {id} in packet {packet}"
        );
    }
    println!("software detection: {}/{} injected occurrences found", ground_truth.len(), ground_truth.len());

    // Sharded mode: the ruleset is split into cache-sized automata (the
    // software analogue of the paper's per-block memories) and every
    // packet runs through each shard on this thread, one scratch reused
    // throughout; matches come back with global pattern ids. Threads,
    // when wanted, belong to the caller: one scanner per worker.
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(4))?;
    println!(
        "\nsharded fast path: {} shards ({} split), {} KiB total flat memory",
        sharded.shard_count(),
        sharded.strategy(),
        sharded.memory_bytes() / 1024
    );
    let mut scratch = sharded.scratch();
    let mut sharded_out: Vec<Vec<Match>> = vec![Vec::new(); packets.len()];
    let start = Instant::now();
    for (payload, matches) in packets.iter().zip(sharded_out.iter_mut()) {
        sharded.scan_into(payload, &mut scratch, matches);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let sharded_alerts: usize = sharded_out.iter().map(Vec::len).sum();
    println!(
        "sharded scan_into:    {} alerts over {} bytes -> {:.0} MB/s",
        sharded_alerts,
        total_bytes,
        total_bytes as f64 / elapsed / 1e6
    );
    assert_eq!(
        sharded_alerts, alerts,
        "sharded and sequential scans must agree"
    );
    for &(packet, id, end) in &ground_truth {
        assert!(
            sharded_out[packet].iter().any(|m| m.pattern == id && m.end == end),
            "sharded path missed pattern {id} in packet {packet}"
        );
    }
    println!(
        "sharded detection: {}/{} injected occurrences found",
        ground_truth.len(),
        ground_truth.len()
    );
    Ok(())
}
