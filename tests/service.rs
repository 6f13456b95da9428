//! Fault-injection property suite for the service runtime.
//!
//! The robustness contract under test: under any seeded `FaultPlan`,
//!
//! 1. every admitted byte is scanned at a declared fidelity tier or
//!    accounted lost to a *counted* fault — never silently dropped;
//! 2. degradation and shed events are exactly counted
//!    (`offered == admitted + shed`, resyncs match resumed flows,
//!    restarts match panics);
//! 3. a ruleset hot-swap mid-stream is in-band and match-equivalent to
//!    a cold build from the swap boundary;
//! 4. a panicked worker's flows resume with boundary-local loss only.
//!
//! Traffic here is hand-rolled (deterministic SplitMix64 filler with
//! planted occurrences) so every expectation is computable without the
//! service in the loop.

use std::sync::{Arc, OnceLock};

use dpi_accel::automaton::{ApproxConfig, Match, PatternSet};
use dpi_accel::core::service::{
    ExactEngine, FaultKind, FaultPlan, FidelityTier, RulesetArena, Service, ServiceConfig,
    ServiceReport, ServiceSim,
};
use dpi_accel::core::{FlowKey, FlowMatch, ShardedConfig, TwoStageConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixture: a ruleset with real windowed families over a two-shard plan
// (so the two-stage engine serves Exact and the flag-only rung skips
// real replay work), plus deterministic traffic.
// ---------------------------------------------------------------------------

fn pattern_strings() -> Vec<String> {
    (0..10)
        .flat_map(|i| {
            [
                format!("alpha-family-{i:02}-signature"),
                format!("beta-family-{i:02}-marker"),
            ]
        })
        .collect()
}

fn two_stage_config() -> TwoStageConfig {
    let mut exact = ShardedConfig::with_cores(2);
    exact.budget_bytes = 32 * 1024;
    TwoStageConfig {
        approx: ApproxConfig::with_budget(1),
        exact,
    }
}

fn shared_arena() -> Arc<RulesetArena> {
    static ARENA: OnceLock<Arc<RulesetArena>> = OnceLock::new();
    Arc::clone(ARENA.get_or_init(|| {
        let set = PatternSet::new(pattern_strings()).unwrap();
        Arc::new(RulesetArena::build(&set, &two_stage_config(), 1).unwrap())
    }))
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `len` bytes of pseudo-random filler with `plants` pattern strings
/// written at the given offsets. Random filler cannot complete a
/// 20+-byte structured pattern by accident.
fn flow_payload(seed: u64, len: usize, plants: &[(usize, &str)]) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    let mut payload: Vec<u8> = (0..len).map(|_| (rng.next() & 0xFF) as u8).collect();
    for &(at, pat) in plants {
        payload[at..at + pat.len()].copy_from_slice(pat.as_bytes());
    }
    payload
}

/// Splits `payload` into in-order `(seq, bytes)` segments of `seg` bytes.
fn segments(payload: &[u8], seg: usize) -> Vec<(u64, Vec<u8>)> {
    payload
        .chunks(seg)
        .enumerate()
        .map(|(i, c)| ((i * seg) as u64, c.to_vec()))
        .collect()
}

/// Reference scan: the arena's exact engine over the whole payload.
fn reference(arena: &RulesetArena, payload: &[u8]) -> Vec<Match> {
    let mut scratch = arena.exact().scratch();
    let mut out = Vec::new();
    arena.exact().scan_into(payload, &mut scratch, &mut out);
    out
}

/// Asserts `m` is a true occurrence within `payload` (stream-absolute
/// `end`).
fn assert_true_occurrence(patterns: &[String], payload: &[u8], m: &Match) {
    let pat = patterns[m.pattern.index()].as_bytes();
    let end = m.end;
    assert!(
        end >= pat.len() && end <= payload.len(),
        "match end {end} out of range for pattern of len {}",
        pat.len()
    );
    assert_eq!(
        &payload[end - pat.len()..end],
        pat,
        "reported match is not a true occurrence"
    );
}

fn by_flow(matches: &[FlowMatch], key: FlowKey) -> Vec<Match> {
    let mut v: Vec<Match> = matches
        .iter()
        .filter(|m| m.key == key)
        .map(|m| m.matched)
        .collect();
    v.sort_by_key(|m| (m.end, m.pattern.index()));
    v
}

// ---------------------------------------------------------------------------
// 1. No faults: the service is transparent.
// ---------------------------------------------------------------------------

#[test]
fn no_fault_run_is_match_equivalent_to_direct_scans() {
    let arena = shared_arena();
    let patterns = pattern_strings();
    let mut config = ServiceConfig::with_workers(3);
    config.queue_cap = 512;
    let mut sim = ServiceSim::new(Arc::clone(&arena), config).unwrap();

    // Six flows, varied lengths, planted occurrences including an
    // adjacent cross-family pair (stresses masked window replay).
    let flows: Vec<(FlowKey, Vec<u8>)> = (0..6u64)
        .map(|i| {
            let plants: Vec<(usize, &str)> = match i % 3 {
                0 => vec![(40, "alpha-family-03-signature")],
                1 => vec![
                    (10, "beta-family-07-marker"),
                    (31, "alpha-family-00-signature"),
                ],
                _ => vec![],
            };
            (
                FlowKey(0x5000 + i as u128),
                flow_payload(i, 400 + 37 * i as usize, &plants),
            )
        })
        .collect();

    // Round-robin interleave of every flow's segments.
    let segmented: Vec<Vec<(u64, Vec<u8>)>> =
        flows.iter().map(|(_, p)| segments(p, 97)).collect();
    let rounds = segmented.iter().map(Vec::len).max().unwrap();
    let mut time = 0u64;
    for r in 0..rounds {
        for (f, segs) in segmented.iter().enumerate() {
            if let Some((seq, bytes)) = segs.get(r) {
                time += 1;
                assert!(sim.offer(flows[f].0, *seq, bytes, time));
            }
        }
    }
    let report = sim.finish();

    let s = report.stats;
    assert_eq!(s.shed_packets, 0);
    assert_eq!(s.offered_bytes, s.admitted_bytes);
    assert_eq!(s.scanned_bytes(), s.admitted_bytes);
    assert_eq!(s.workers.panics, 0);
    assert_eq!(s.workers.suspect_flags, 0);

    for (key, payload) in &flows {
        let expect = reference(&arena, payload);
        let got = by_flow(&report.matches, *key);
        assert_eq!(got, expect, "flow {key} diverged from the direct scan");
        for m in &got {
            assert_true_occurrence(&patterns, payload, m);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Queue-full shedding: whole flows, exact accounting, clean resume.
// ---------------------------------------------------------------------------

#[test]
fn queue_full_sheds_whole_flows_and_resumes_with_resync() {
    let arena = shared_arena();
    let patterns = pattern_strings();
    let mut config = ServiceConfig::with_workers(1);
    config.queue_cap = 8;
    config.shed.resume_below = 2;
    let mut sim = ServiceSim::new(Arc::clone(&arena), config).unwrap();

    // Four flows x 10 segments, offered without draining: the queue
    // fills at 8 and every flow ends up shed.
    let flows: Vec<(FlowKey, Vec<u8>)> = (0..4u64)
        .map(|i| {
            (
                FlowKey(0x9000 + i as u128),
                flow_payload(100 + i, 970, &[(300, "alpha-family-05-signature")]),
            )
        })
        .collect();
    let segmented: Vec<Vec<(u64, Vec<u8>)>> =
        flows.iter().map(|(_, p)| segments(p, 97)).collect();
    let mut time = 0u64;
    for r in 0..8 {
        for (f, segs) in segmented.iter().enumerate() {
            time += 1;
            let (seq, bytes) = &segs[r];
            sim.offer(flows[f].0, *seq, bytes, time);
        }
    }
    let mid = sim.stats();
    assert!(mid.shed_packets > 0, "an undrained 8-deep queue must shed");
    assert!(mid.shed_flows > 0);
    assert_eq!(mid.offered_packets, mid.admitted_packets + mid.shed_packets);
    assert_eq!(mid.offered_bytes, mid.admitted_bytes + mid.shed_bytes);

    // Drain, then offer every flow's last two segments: pressure is
    // gone, so each shed flow resumes through a resync marker. Plant
    // the tail occurrence entirely inside the final segment.
    sim.pump();
    for (f, segs) in segmented.iter().enumerate() {
        for (r, (seq, bytes)) in segs.iter().enumerate().take(10).skip(8) {
            time += 1;
            let mut bytes = bytes.clone();
            if r == 9 {
                bytes[10..10 + 22].copy_from_slice(b"beta-family-02-marker!");
            }
            assert!(
                sim.offer(flows[f].0, *seq, &bytes, time),
                "calm queue must readmit"
            );
        }
        // Keep the queue calm so the next flow's resume check also
        // sees depth <= resume_below.
        sim.pump();
    }
    let report = sim.finish();
    let s = report.stats;
    assert_eq!(s.offered_packets, s.admitted_packets + s.shed_packets);
    assert_eq!(s.offered_bytes, s.admitted_bytes + s.shed_bytes);
    assert_eq!(s.scanned_bytes(), s.admitted_bytes, "no silent drops");
    assert_eq!(
        s.workers.resyncs, s.resumed_flows,
        "every resumed flow repositions exactly once"
    );
    assert_eq!(s.resumed_flows, 4);

    // The resumed tail is scanned correctly: the planted marker sits at
    // stream offset 883..904 in every flow.
    for (key, _) in &flows {
        let got = by_flow(&report.matches, *key);
        assert!(
            got.iter().any(|m| m.end == 904
                && patterns[m.pattern.index()] == "beta-family-02-marker"),
            "post-resume occurrence missing for {key}: {got:?}"
        );
    }
}

#[test]
fn shed_gate_memory_is_bounded_by_the_flow_capacity() {
    // A flow shed at its last packet never returns to leave the gate's
    // set; a resident service must not remember such flows forever.
    let arena = shared_arena();
    let mut config = ServiceConfig::with_workers(1);
    config.queue_cap = 16;
    config.shed.resume_below = 4;
    config.flow_capacity = 64;
    let plan = FaultPlan::new(vec![(0, FaultKind::SlowWorker(0, 4))]);
    let mut sim = ServiceSim::with_faults(Arc::clone(&arena), config, plan).unwrap();

    // 16 one-packet flows fill the queue; the next 65 are each shed at
    // their first packet, one more than the gate may remember.
    let key = |i: u64| FlowKey(0xA000 + i as u128);
    let first = flow_payload(7, 64, &[]);
    let mut time = 0u64;
    for i in 0..16 + 65 {
        time += 1;
        assert_eq!(sim.offer(key(i), 0, &first, time), i < 16);
    }
    sim.pump();

    // Every shed flow sends again into a calm queue: the 64 the gate
    // remembers resume through a resync marker, the forgotten one is
    // admitted as a plain segment.
    let second = flow_payload(8, 64, &[]);
    for i in 16..16 + 65 {
        time += 1;
        assert!(sim.offer(key(i), first.len() as u64, &second, time));
        sim.pump();
    }
    let s = sim.finish().stats;
    assert_eq!(s.shed_flows, 65);
    assert_eq!(s.resumed_flows, 64);
    assert_eq!(s.workers.resyncs, 64);
    assert_eq!(s.offered_packets, s.admitted_packets + s.shed_packets);
}

// ---------------------------------------------------------------------------
// 3. Degradation ladder: the arena's plan picks the Exact engine and the
//    rungs; the ladder descends under pressure, recovers when calm, with
//    exact event counts and per-tier byte attribution.
// ---------------------------------------------------------------------------

#[test]
fn the_plan_picks_the_exact_engine_and_the_rungs() {
    let set = PatternSet::new(pattern_strings()).unwrap();
    // One exact shard: the sharded engine walks one automaton per byte,
    // as the cover does, so it serves and no rung is cheaper.
    let one = RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 1).unwrap();
    assert_eq!(one.exact().shard_count(), 1);
    assert_eq!(one.exact_engine(), ExactEngine::Sharded);
    assert_eq!(one.rungs(), [FidelityTier::Exact]);
    // Two or more shards over a windowing verifier: the cover serves
    // Exact, and FlagOnly skips the verifier's replay walks.
    let windowing = shared_arena();
    assert!(windowing.exact().shard_count() >= 2);
    assert!(windowing.two_stage().exact().shard_count() > 0);
    assert_eq!(windowing.exact_engine(), ExactEngine::TwoStage);
    assert_eq!(
        windowing.rungs(),
        [FidelityTier::Exact, FidelityTier::FlagOnly]
    );
    // Two or more shards over a zero-shard verifier: FlagOnly would do
    // exactly Exact's work, so the ladder has one rung.
    let mut config = two_stage_config();
    config.approx = ApproxConfig::default();
    let settled = RulesetArena::build(&set, &config, 1).unwrap();
    assert!(settled.exact().shard_count() >= 2);
    assert_eq!(settled.two_stage().exact().shard_count(), 0);
    assert_eq!(settled.exact_engine(), ExactEngine::TwoStage);
    assert_eq!(settled.rungs(), [FidelityTier::Exact]);
}

#[test]
fn ladder_descends_under_pressure_and_recovers_when_calm() {
    let (trajectory, report) = ladder_cycle(&shared_arena(), &flow_payload(7, 40 * 97, &[]));
    assert!(trajectory.contains(&FidelityTier::FlagOnly));
    let s = &report.stats.workers;
    assert_eq!(s.degrades, 1, "Exact→FlagOnly exactly");
    assert_eq!(s.recoveries, 1, "FlagOnly→Exact exactly");
    // Bytes were scanned at both tiers, and one two-stage state served
    // both: the moves rebuilt nothing.
    assert!(s.tier_bytes.iter().all(|&b| b > 0), "{:?}", s.tier_bytes);
    assert_eq!(s.state_rebuilds, 0);
}

const LADDER_FLOW: FlowKey = FlowKey(0xAAAA);

/// One flow of 40 × 97-byte segments offered at once to a one-worker
/// simulator whose ladder sees depth past `high_water` for most of the
/// drain, then 8 idle steps. Returns the tier after every step and the
/// final report; the worker ends at Exact whatever rungs `arena` has.
fn ladder_cycle(arena: &Arc<RulesetArena>, payload: &[u8]) -> (Vec<FidelityTier>, ServiceReport) {
    assert_eq!(payload.len(), 40 * 97);
    let mut config = ServiceConfig::with_workers(1);
    config.queue_cap = 64;
    config.batch = 2;
    config.ladder.high_water = 8;
    config.ladder.low_water = 2;
    config.ladder.descend_after = 2;
    config.ladder.ascend_after = 3;
    let mut sim = ServiceSim::new(Arc::clone(arena), config).unwrap();

    let segs = segments(payload, 97);
    for (i, (seq, bytes)) in segs.iter().enumerate() {
        sim.offer(LADDER_FLOW, *seq, bytes, i as u64 + 1);
    }

    // Drain two packets per step, then idle: idle steps are calm
    // observations, so the worker must climb back.
    let mut trajectory = vec![sim.worker_tier(0)];
    while sim.stats().workers.packets < 40 {
        sim.step();
        trajectory.push(sim.worker_tier(0));
    }
    for _ in 0..8 {
        sim.step();
        trajectory.push(sim.worker_tier(0));
    }
    assert_eq!(sim.worker_tier(0), FidelityTier::Exact);
    let report = sim.finish();
    assert_eq!(report.stats.scanned_bytes(), report.stats.admitted_bytes);
    (trajectory, report)
}

/// The backlog that moves the windowing arena's ladder, over an arena
/// with one rung: the worker never leaves Exact, and the stream is the
/// exact engine's.
#[test]
fn a_one_rung_arena_stays_exact_under_the_ladder_backlog() {
    let patterns = pattern_strings();
    let set = PatternSet::new(&patterns).unwrap();
    let arena = Arc::new(RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 1).unwrap());
    assert_eq!(arena.rungs(), [FidelityTier::Exact]);
    // One occurrence inside every segment, cycling through the set.
    let plants: Vec<(usize, &str)> = (0..40)
        .map(|i| (i * 97 + 20, patterns[i % patterns.len()].as_str()))
        .collect();
    let payload = flow_payload(7, 40 * 97, &plants);

    let (trajectory, report) = ladder_cycle(&arena, &payload);
    assert!(trajectory.iter().all(|&t| t == FidelityTier::Exact));
    let s = &report.stats.workers;
    assert_eq!((s.degrades, s.recoveries, s.state_rebuilds), (0, 0, 0));
    assert_eq!(s.tier_bytes, [payload.len() as u64, 0]);
    assert_eq!(
        by_flow(&report.matches, LADDER_FLOW),
        reference(&arena, &payload)
    );
}

// ---------------------------------------------------------------------------
// 4. Flag-only fidelity: reported matches stay true, missed windowed
//    occurrences are counted as suspects.
// ---------------------------------------------------------------------------

#[test]
fn flag_only_tier_reports_only_true_matches_and_counts_suspects() {
    let arena = shared_arena();
    let patterns = pattern_strings();
    let mut config = ServiceConfig::with_workers(1);
    config.queue_cap = 64;
    config.batch = 2;
    config.ladder.high_water = 4;
    config.ladder.low_water = 1;
    config.ladder.descend_after = 1;
    config.ladder.ascend_after = 50;
    let mut sim = ServiceSim::new(Arc::clone(&arena), config).unwrap();

    let key = FlowKey(0xBEEF);
    // Infected traffic: a planted occurrence in every late segment.
    let plants: Vec<(usize, &str)> = (8..20)
        .map(|i| (i * 97 + 20, "alpha-family-09-signature"))
        .collect();
    let payload = flow_payload(11, 20 * 97, &plants);
    for (i, (seq, bytes)) in segments(&payload, 97).iter().enumerate() {
        sim.offer(key, *seq, bytes, i as u64 + 1);
    }
    let report = sim.finish();
    let s = report.stats;
    assert!(s.workers.tier_bytes[1] > 0, "FlagOnly tier never engaged");
    assert!(
        s.workers.suspect_flags > 0,
        "unverified windowed flags must be counted"
    );
    let got = by_flow(&report.matches, key);
    let expect = reference(&arena, &payload);
    for m in &got {
        assert_true_occurrence(&patterns, &payload, m);
    }
    assert!(
        got.len() < expect.len(),
        "flag-only must miss some windowed occurrences here ({} vs {})",
        got.len(),
        expect.len()
    );
}

// ---------------------------------------------------------------------------
// 5. Hot-swap: in-band, rollback on failure, cold-build equivalence.
// ---------------------------------------------------------------------------

#[test]
fn hot_swap_is_in_band_and_match_equivalent_to_cold_build() {
    let arena = shared_arena();
    let mut config = ServiceConfig::with_workers(1);
    config.queue_cap = 512;
    let mut sim = ServiceSim::new(Arc::clone(&arena), config).unwrap();

    // Generation 2 adds a pattern generation 1 does not know.
    let mut patterns2 = pattern_strings();
    patterns2.push("gamma-rollout-signature".to_string());
    let set2 = PatternSet::new(&patterns2).unwrap();

    let key = FlowKey(0xC0DE);
    // Pre-swap region plants the *new* pattern (must NOT match: those
    // bytes are scanned by generation 1) and an old one (must match).
    let pre = flow_payload(
        21,
        6 * 97,
        &[
            (30, "gamma-rollout-signature"),
            (200, "beta-family-04-marker"),
        ],
    );
    // Post-swap region plants both (both must match).
    let post = flow_payload(
        22,
        6 * 97,
        &[
            (40, "gamma-rollout-signature"),
            (300, "alpha-family-06-signature"),
        ],
    );

    let mut time = 0u64;
    for (seq, bytes) in segments(&pre, 97) {
        time += 1;
        sim.offer(key, seq, &bytes, time);
    }
    // No pump: the swap must land in-band *behind* the queued pre
    // segments and still only affect post bytes.
    let generation = sim.hot_swap(&set2, &two_stage_config()).unwrap();
    assert_eq!(generation, 2);
    for (seq, bytes) in segments(&post, 97) {
        time += 1;
        sim.offer(key, seq + pre.len() as u64, &bytes, time);
    }
    let report = sim.finish();
    let s = report.stats;
    assert_eq!(s.swaps, 1);
    assert_eq!(s.failed_swaps, 0);
    assert_eq!(s.workers.swaps, 1, "one worker installed one generation");
    assert!(s.workers.state_rebuilds >= 1, "the live flow must rebuild");
    assert_eq!(s.scanned_bytes(), s.admitted_bytes);

    let got = by_flow(&report.matches, key);
    // In-band: no gamma match may end inside the pre region.
    let gamma = patterns2.len() - 1;
    assert!(
        got.iter()
            .all(|m| m.pattern.index() != gamma || m.end > pre.len()),
        "generation 2 leaked into pre-swap bytes: {got:?}"
    );
    // Pre-region matches equal a generation-1 cold build over pre.
    let pre_expect = reference(&arena, &pre);
    let pre_got: Vec<Match> = got
        .iter()
        .copied()
        .filter(|m| m.end <= pre.len())
        .collect();
    assert_eq!(pre_got, pre_expect);
    // Post-region matches equal a generation-2 cold build started at
    // the swap boundary (boundary-local loss only).
    let arena2 = RulesetArena::build(&set2, &two_stage_config(), 2).unwrap();
    let mut state = arena2.exact().flow_state();
    state.reset_at(pre.len() as u64);
    let mut scratch = arena2.exact().scratch();
    let mut post_expect = Vec::new();
    arena2
        .exact()
        .scan_chunk_into(&mut state, &post, &mut scratch, &mut post_expect);
    let post_got: Vec<Match> = got
        .iter()
        .copied()
        .filter(|m| m.end > pre.len())
        .collect();
    assert_eq!(post_got, post_expect);
}

/// A two-stage arena, and a segment after which that arena's state
/// holds a found match: `z` ends (at 41) inside an open window's reach
/// when the segment ends, so it waits behind the verify frontier.
fn held_match_fixture() -> (PatternSet, Arc<RulesetArena>, Vec<u8>) {
    let mut patterns: Vec<String> = (0..10)
        .map(|i| format!("alpha-family-{i:02}-zebra"))
        .collect();
    patterns.push("z".to_string());
    let set = PatternSet::new(&patterns).unwrap();
    let arena = Arc::new(RulesetArena::build(&set, &two_stage_config(), 1).unwrap());
    assert_eq!(arena.exact_engine(), ExactEngine::TwoStage);
    let mut first = b"xx alpha-q".to_vec();
    first.extend_from_slice(&[b'-'; 30]);
    first.push(b'z');
    (set, arena, first)
}

/// A swap rebuilds a live two-stage state at its offset; matches the old
/// state found but still held behind its verify frontier are emitted,
/// not dropped.
#[test]
fn hot_swap_rebuild_emits_what_the_old_state_found() {
    let (set, arena, first) = held_match_fixture();
    let second = b"zz alpha-family-04-zebra z";

    let mut sim = ServiceSim::new(Arc::clone(&arena), ServiceConfig::with_workers(1)).unwrap();
    let key = FlowKey(0x2A);
    sim.offer(key, 0, &first, 1);
    sim.hot_swap(&set, &two_stage_config()).unwrap();
    sim.offer(key, first.len() as u64, second, 2);
    let report = sim.finish();
    assert_eq!(report.stats.workers.state_rebuilds, 1);

    // The sharded engine over the same bytes, repositioned at the swap.
    let mut want = Vec::new();
    let mut state = arena.exact().flow_state();
    let mut scratch = arena.exact().scratch();
    arena
        .exact()
        .scan_chunk_into(&mut state, &first, &mut scratch, &mut want);
    state.reset_at(first.len() as u64);
    arena
        .exact()
        .scan_chunk_into(&mut state, second, &mut scratch, &mut want);
    assert!(want.iter().any(|m| m.end == first.len()), "{want:?}");
    assert_eq!(by_flow(&report.matches, key), want);
}

/// Evicting a flow emits the matches its two-stage state found and still
/// holds, tagged with the evicted key, before its slot is reused.
#[test]
fn evicting_a_flow_emits_what_its_state_found() {
    let (_, arena, first) = held_match_fixture();
    let mut config = ServiceConfig::with_workers(1);
    config.flow_capacity = 1;
    config.flow_ways = 1;
    let mut sim = ServiceSim::new(Arc::clone(&arena), config).unwrap();
    let (evicted, evictor) = (FlowKey(1), FlowKey(2));
    let second = b"xx alpha-family-04-zebra xx";
    sim.offer(evicted, 0, &first, 1);
    sim.offer(evictor, 0, second, 2);
    let report = sim.finish();
    assert_eq!(report.stats.flows_resident, 1, "flow 2 must evict flow 1");

    let want = reference(&arena, &first);
    assert!(want.iter().any(|m| m.end == first.len()), "{want:?}");
    assert_eq!(by_flow(&report.matches, evicted), want);
    assert_eq!(by_flow(&report.matches, evictor), reference(&arena, second));
}

#[test]
fn failed_swap_rolls_back_and_keeps_matching() {
    let arena = shared_arena();
    let patterns = pattern_strings();
    let mut config = ServiceConfig::with_workers(1);
    config.queue_cap = 512;
    let plan = FaultPlan::new(vec![(0, FaultKind::BuildFailure)]);
    let mut sim = ServiceSim::with_faults(Arc::clone(&arena), config, plan).unwrap();

    let key = FlowKey(0xD00D);
    let payload = flow_payload(31, 4 * 97, &[(150, "beta-family-01-marker")]);
    let segs = segments(&payload, 97);
    // First offer fires the armed BuildFailure.
    sim.offer(key, segs[0].0, &segs[0].1, 1);
    let set = PatternSet::new(pattern_strings()).unwrap();
    assert!(
        sim.hot_swap(&set, &two_stage_config()).is_err(),
        "the armed fault must fail this build"
    );
    for (i, (seq, bytes)) in segs.iter().enumerate().skip(1) {
        sim.offer(key, *seq, bytes, i as u64 + 1);
    }
    let report = sim.finish();
    let s = report.stats;
    assert_eq!(s.failed_swaps, 1);
    assert_eq!(s.swaps, 0);
    assert_eq!(s.workers.swaps, 0, "no generation may reach a worker");
    let got = by_flow(&report.matches, key);
    assert!(
        got.iter()
            .any(|m| patterns[m.pattern.index()] == "beta-family-01-marker"),
        "rolled-back service must keep matching the old ruleset"
    );
    assert_eq!(s.scanned_bytes(), s.admitted_bytes);
}

#[test]
fn slow_worker_stretches_swap_drain_but_generation_tags_stay_correct() {
    let arena = shared_arena();
    let mut config = ServiceConfig::with_workers(2);
    config.queue_cap = 512;

    let key = FlowKey(0xBEEF);
    let slow = ServiceSim::new(Arc::clone(&arena), config)
        .unwrap()
        .worker_of(key);
    let stall = 9u32;
    let plan = FaultPlan::new(vec![(0, FaultKind::SlowWorker(slow, stall))]);
    let mut sim = ServiceSim::with_faults(Arc::clone(&arena), config, plan).unwrap();

    let mut patterns2 = pattern_strings();
    patterns2.push("gamma-rollout-signature".to_string());
    let set2 = PatternSet::new(&patterns2).unwrap();

    let pre = flow_payload(
        41,
        3 * 97,
        &[
            (30, "gamma-rollout-signature"),
            (150, "beta-family-02-marker"),
        ],
    );
    let post = flow_payload(42, 3 * 97, &[(40, "gamma-rollout-signature")]);

    let mut time = 0u64;
    for (seq, bytes) in segments(&pre, 97) {
        time += 1;
        // The first offer fires the armed stall on the flow's worker.
        sim.offer(key, seq, &bytes, time);
    }
    let generation = sim.hot_swap(&set2, &two_stage_config()).unwrap();
    assert_eq!(sim.workers_at_generation(generation), 0);

    // The idle worker installs the in-band swap on its first step; the
    // stalled worker stretches the drain past its whole stall window.
    let mut steps = 0u32;
    while sim.workers_at_generation(generation) < 2 {
        sim.step();
        steps += 1;
        if steps == 1 {
            assert_eq!(
                sim.workers_at_generation(generation),
                1,
                "the un-stalled worker must install immediately"
            );
        }
        assert!(steps < 1000, "swap drain never completed");
    }
    assert!(
        steps > stall,
        "a {stall}-step stall must stretch the drain ({steps} steps measured)"
    );

    for (seq, bytes) in segments(&post, 97) {
        time += 1;
        sim.offer(key, seq + pre.len() as u64, &bytes, time);
    }
    let report = sim.finish();
    let s = report.stats;
    assert_eq!(s.swaps, 1);
    assert_eq!(s.workers.swaps, 2, "both workers installed the generation");
    assert!(s.workers.state_rebuilds >= 1, "the live flow must rebuild");
    assert_eq!(s.scanned_bytes(), s.admitted_bytes);

    // Generation tags: bytes queued before the swap are scanned by
    // generation 1 (no gamma), bytes after by generation 2 (gamma hits).
    let got = by_flow(&report.matches, key);
    let gamma = patterns2.len() - 1;
    assert!(
        got.iter()
            .all(|m| m.pattern.index() != gamma || m.end > pre.len()),
        "generation 2 leaked into pre-swap bytes despite the stall: {got:?}"
    );
    assert!(
        got.iter()
            .any(|m| m.pattern.index() == gamma && m.end > pre.len()),
        "post-swap gamma occurrence must be found by generation 2"
    );
    assert!(
        got.iter().any(
            |m| pattern_strings()[m.pattern.index()] == "beta-family-02-marker"
                && m.end <= pre.len()
        ),
        "pre-swap bytes must still be scanned by generation 1"
    );
}

// ---------------------------------------------------------------------------
// 6. Worker panic: isolation, restart, boundary-local resume.
// ---------------------------------------------------------------------------

#[test]
fn worker_panic_restarts_and_flows_resume_with_boundary_local_loss() {
    let arena = shared_arena();
    let patterns = pattern_strings();
    let mut config = ServiceConfig::with_workers(1);
    config.queue_cap = 512;
    // The panic fires between the 2nd and 3rd offered segments.
    let plan = FaultPlan::new(vec![(2, FaultKind::WorkerPanic(0))]);
    let mut sim = ServiceSim::with_faults(Arc::clone(&arena), config, plan).unwrap();

    let key = FlowKey(0xF00D);
    // One planted occurrence per segment, each fully inside it.
    let plants: Vec<(usize, &str)> = (0..6)
        .map(|i| (i * 97 + 30, "alpha-family-02-signature"))
        .collect();
    let payload = flow_payload(41, 6 * 97, &plants);
    for (i, (seq, bytes)) in segments(&payload, 97).iter().enumerate() {
        sim.offer(key, *seq, bytes, i as u64 + 1);
    }
    let report = sim.finish();
    let s = report.stats;
    assert_eq!(s.workers.panics, 1);
    assert_eq!(s.workers.restarts, 1);
    assert_eq!(
        s.scanned_bytes() + s.workers.panic_lost_bytes,
        s.admitted_bytes,
        "admitted bytes must be scanned or accounted to the fault"
    );
    // The never-readmitted gap surfaces as counted hole-skips, not
    // silence.
    assert!(s.reassembly.holes_skipped >= 1);

    let got = by_flow(&report.matches, key);
    for m in &got {
        assert_true_occurrence(&patterns, &payload, m);
    }
    // Every planted occurrence lies fully inside one segment — none
    // straddles the restart boundary — so all six must be found.
    for (at, pat) in &plants {
        let end = at + pat.len();
        assert!(
            got.iter().any(|m| m.end == end),
            "occurrence ending at {end} lost across the restart: {got:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// 7. Clock skew: accounting and matching are time-independent.
// ---------------------------------------------------------------------------

#[test]
fn clock_skew_does_not_perturb_matching_or_accounting() {
    let arena = shared_arena();
    let plan = FaultPlan::new(vec![
        (3, FaultKind::ClockSkew(-1_000)),
        (9, FaultKind::ClockSkew(5_000)),
        (15, FaultKind::ClockSkew(-10_000)),
    ]);
    let mut config = ServiceConfig::with_workers(2);
    config.queue_cap = 512;
    let mut sim = ServiceSim::with_faults(Arc::clone(&arena), config, plan).unwrap();

    let flows: Vec<(FlowKey, Vec<u8>)> = (0..3u64)
        .map(|i| {
            (
                FlowKey(0xE000 + i as u128),
                flow_payload(50 + i, 500, &[(123, "beta-family-09-marker")]),
            )
        })
        .collect();
    let mut time = 500u64;
    for (key, payload) in &flows {
        for (seq, bytes) in segments(payload, 97) {
            time += 7;
            sim.offer(*key, seq, &bytes, time);
        }
    }
    let report = sim.finish();
    let s = report.stats;
    assert_eq!(s.scanned_bytes(), s.admitted_bytes);
    for (key, payload) in &flows {
        assert_eq!(
            by_flow(&report.matches, *key),
            reference(&arena, payload),
            "skewed clocks must not change scan results"
        );
    }
}

// ---------------------------------------------------------------------------
// 8. The threaded runtime agrees with the simulator on a clean run.
// ---------------------------------------------------------------------------

#[test]
fn threaded_service_is_match_equivalent_and_measures_latency() {
    let arena = shared_arena();
    let mut config = ServiceConfig::with_workers(2);
    config.queue_cap = 4096;
    let mut service = Service::start(Arc::clone(&arena), config).unwrap();

    let flows: Vec<(FlowKey, Vec<u8>)> = (0..4u64)
        .map(|i| {
            (
                FlowKey(0x7000 + i as u128),
                flow_payload(
                    60 + i,
                    600,
                    &[(100, "alpha-family-08-signature"), (400, "beta-family-03-marker")],
                ),
            )
        })
        .collect();
    let mut admitted = 0u64;
    let mut time = 0u64;
    for (key, payload) in &flows {
        for (seq, bytes) in segments(payload, 97) {
            time += 1;
            if service.offer(*key, seq, &bytes, time) {
                admitted += 1;
            }
        }
    }
    let report = service.shutdown();
    let s = report.stats;
    assert_eq!(s.admitted_packets, admitted);
    assert_eq!(s.scanned_bytes(), s.admitted_bytes);
    assert_eq!(report.latency.count(), admitted, "every packet is stamped");
    assert!(report.latency.quantile(0.99) >= report.latency.quantile(0.50));
    for (key, payload) in &flows {
        assert_eq!(by_flow(&report.matches, *key), reference(&arena, payload));
    }
}

/// The threaded handoff carries payloads of every awkward length — empty,
/// one byte, an exact 64 KiB block fill, one byte past it, several
/// blocks' worth — through repeated takes and block reuse, and a
/// mid-stream swap, and reports what the simulator reports.
#[test]
fn threaded_handoff_over_ragged_lengths_equals_the_simulator() {
    const LENS: [usize; 7] = [0, 1, 127, 65_535, 65_536, 65_537, 200_000];
    let arena = shared_arena();
    let patterns = pattern_strings();
    let mut config = ServiceConfig::with_workers(2);
    config.queue_cap = 4096;
    // Pin the Exact tier on both drivers: the ladder reads a
    // timing-dependent depth on threads.
    config.ladder.high_water = config.queue_cap + 1;

    // Each flow sends the lengths twice, rotated differently per flow and
    // per round, with an occurrence planted across every segment end
    // that leaves room for one.
    let flows = 8usize;
    let lens = |f: usize| -> Vec<usize> {
        (0..2 * LENS.len())
            .map(|i| LENS[(i + f * (1 + i / LENS.len())) % LENS.len()])
            .collect()
    };
    let payloads: Vec<Vec<u8>> = (0..flows)
        .map(|f| {
            let total: usize = lens(f).iter().sum();
            let (mut end, mut free_from, mut plants) = (0usize, 0usize, Vec::new());
            for (i, len) in lens(f).into_iter().enumerate() {
                end += len;
                let pat = patterns[(f + i) % patterns.len()].as_str();
                if end >= free_from + 10 && end - 10 + pat.len() <= total {
                    plants.push((end - 10, pat));
                    free_from = end - 10 + pat.len();
                }
            }
            flow_payload(f as u64 + 90, total, &plants)
        })
        .collect();
    let key = |f: usize| FlowKey(0xB10C_0000 + f as u128);
    // `(flow, seq, len)`, round-robin across flows segment by segment.
    let mut schedule = Vec::new();
    let mut seqs = vec![0usize; flows];
    for s in 0..2 * LENS.len() {
        for (f, seq) in seqs.iter_mut().enumerate() {
            let len = lens(f)[s];
            schedule.push((f, *seq, len));
            *seq += len;
        }
    }
    let bytes = |&(f, seq, len): &(usize, usize, usize)| &payloads[f][seq..seq + len];
    let swap_at = schedule.len() / 2;
    let set = PatternSet::new(pattern_strings()).unwrap();

    let mut service = Service::start(Arc::clone(&arena), config).unwrap();
    let mut rng = SplitMix(0xB10C);
    let mut next = 0usize;
    while next < schedule.len() {
        // Bursts with pauses, so each worker takes its inbox many times
        // and refills the blocks it handed back.
        for _ in 0..1 + rng.next() % 6 {
            if next == swap_at {
                let arena2 = RulesetArena::build(&set, &two_stage_config(), 2).unwrap();
                service.install_arena(Arc::new(arena2));
            }
            if let Some(seg) = schedule.get(next) {
                assert!(service.offer(key(seg.0), seg.1 as u64, bytes(seg), next as u64));
                next += 1;
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(rng.next() % 300));
    }
    let threaded = service.shutdown();

    let mut sim = ServiceSim::new(Arc::clone(&arena), config).unwrap();
    for (i, seg) in schedule.iter().enumerate() {
        if i == swap_at {
            assert_eq!(sim.hot_swap(&set, &two_stage_config()).unwrap(), 2);
        }
        sim.offer(key(seg.0), seg.1 as u64, bytes(seg), i as u64);
    }
    let simulated = sim.finish();

    let rows = |report: &ServiceReport| {
        let mut rows: Vec<_> = report
            .matches
            .iter()
            .map(|m| (m.key.0, m.matched.pattern.index(), m.matched.end))
            .collect();
        rows.sort_unstable();
        rows
    };
    assert!(!simulated.matches.is_empty());
    assert_eq!(rows(&threaded), rows(&simulated));
    let s = threaded.stats;
    assert_eq!(s.shed_packets, 0);
    assert_eq!(s.offered_packets, s.admitted_packets + s.shed_packets);
    assert_eq!(s.offered_bytes, s.admitted_bytes + s.shed_bytes);
    assert_eq!(
        s.scanned_bytes()
            + s.reassembly.dup_bytes
            + s.workers.panic_lost_bytes
            + s.reassembly.evicted_bytes,
        s.admitted_bytes
    );
    assert_eq!(threaded.latency.count(), s.admitted_packets);
    assert_eq!(s.workers.swaps, 2);
}

/// A service dropped without `shutdown` still stops its workers, which
/// release everything they hold, the arena included.
#[test]
fn dropping_a_service_stops_its_workers() {
    let set = PatternSet::new(pattern_strings()).unwrap();
    let arena = Arc::new(RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 1).unwrap());
    let mut service = Service::start(Arc::clone(&arena), ServiceConfig::with_workers(2)).unwrap();
    assert!(service.offer(FlowKey(1), 0, b"xx alpha-family-01-signature", 1));
    drop(service);
    assert_eq!(Arc::strong_count(&arena), 1);
}

// ---------------------------------------------------------------------------
// 9. Property: any seeded fault plan preserves the robustness contract.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_seeded_fault_plan_preserves_the_contract(seed in 0u64..1u64 << 48) {
        let arena = shared_arena();
        let patterns = pattern_strings();
        let mut config = ServiceConfig::with_workers(2);
        config.queue_cap = 16;
        config.batch = 4;
        config.shed.resume_below = 4;
        config.ladder.high_water = 8;
        config.ladder.low_water = 2;
        config.ladder.descend_after = 2;
        config.ladder.ascend_after = 4;
        let plan = FaultPlan::from_seed(seed, 6, 80, 2);
        let mut sim = ServiceSim::with_faults(Arc::clone(&arena), config, plan).unwrap();

        let flows: Vec<(FlowKey, Vec<u8>)> = (0..8u64)
            .map(|i| {
                let plants: Vec<(usize, &str)> = if i % 2 == 0 {
                    vec![(200 + 13 * i as usize, "alpha-family-04-signature")]
                } else {
                    vec![]
                };
                (
                    FlowKey(seed as u128 ^ (0x1_0000 + i as u128)),
                    flow_payload(seed ^ i, 10 * 120, &plants),
                )
            })
            .collect();
        let segmented: Vec<Vec<(u64, Vec<u8>)>> =
            flows.iter().map(|(_, p)| segments(p, 120)).collect();

        let mut time = 0u64;
        let mut offered = 0u64;
        let mut swapped = false;
        for r in 0..10 {
            for (f, segs) in segmented.iter().enumerate() {
                let (seq, bytes) = &segs[r];
                time += 3;
                sim.offer(flows[f].0, *seq, bytes, time);
                offered += 1;
                if offered.is_multiple_of(4) {
                    sim.step();
                }
                if offered == 40 && !swapped {
                    swapped = true;
                    // Same ruleset, next generation; an armed
                    // BuildFailure fault may legitimately fail it.
                    let set = PatternSet::new(pattern_strings()).unwrap();
                    let _ = sim.hot_swap(&set, &two_stage_config());
                }
            }
        }
        let report = sim.finish();
        let s = report.stats;

        // Shed accounting is exact.
        prop_assert_eq!(s.offered_packets, s.admitted_packets + s.shed_packets);
        prop_assert_eq!(s.offered_bytes, s.admitted_bytes + s.shed_bytes);
        // Every admitted byte was scanned at a declared tier or
        // accounted to a counted fault.
        prop_assert_eq!(
            s.scanned_bytes() + s.workers.panic_lost_bytes,
            s.admitted_bytes
        );
        // Event counters are exact.
        prop_assert_eq!(s.workers.resyncs, s.resumed_flows);
        prop_assert_eq!(s.workers.restarts, s.workers.panics);
        prop_assert_eq!(s.swaps + s.failed_swaps, 1);
        prop_assert_eq!(s.workers.swaps, s.swaps * 2);
        // Bounded state.
        prop_assert!(s.flows_resident <= 2 * 4096);
        // Nothing invented: every reported match is a true occurrence
        // of its flow's actual bytes.
        for (key, payload) in &flows {
            for m in by_flow(&report.matches, *key) {
                let pat = patterns[m.pattern.index()].as_bytes();
                let end = m.end;
                prop_assert!(end >= pat.len() && end <= payload.len());
                prop_assert_eq!(&payload[end - pat.len()..end], pat);
            }
        }
    }
}
