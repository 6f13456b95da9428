//! Timed runs of the service and of single layers.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpi_automaton::ApproxConfig;
use dpi_core::{
    FlowKey, FlowTable, LatencyHistogram, ProtoFlow, RulesetArena, Service, ServiceConfig,
    ServiceReport, ServiceSim, ServiceStats, ShardedMatcher, StreamFlow, TwoStageConfig,
    TwoStageMatcher, TwoStageStats,
};

use crate::pipeline::Capture;
use crate::workload::{key, mix64, Seg, Workload};

/// The arena configuration the `service-robustness` repro uses: one
/// core, a 2 MiB approximate tier, an 8 MiB exact tier.
pub fn arena_config() -> TwoStageConfig {
    let mut config = TwoStageConfig::with_cores(1);
    config.approx = ApproxConfig::with_budget(2 << 20);
    config.exact.budget_bytes = 8 << 20;
    config
}

/// A typical [`HostProbe`] reading, in millions of steps a second, on
/// the 2-vCPU host this benchmark was calibrated on (128–159 over a
/// quarter hour). Scaled rates and times read as that host's.
const PROBE_REFERENCE_MSTEPS: f64 = 150.0;

/// The host's speed right now, from the benchmark's own code, so no
/// change under test can move it: 2^20 dependent lookups through a fixed
/// 256-state × 256-byte transition table (256 KiB), the shape of a
/// scanner's inner loop. On a shared host the service's rates drift
/// ±25 % over minutes with its neighbours, and this walk drifts with
/// them, while a DRAM-bound loop does not.
pub struct HostProbe {
    table: Vec<u32>,
    input: Vec<u8>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        const STATES: u64 = 256;
        HostProbe {
            table: (0..STATES * 256)
                .map(|i| (mix64(i) % STATES) as u32)
                .collect(),
            input: (0..1u64 << 20).map(|i| mix64(!i) as u8).collect(),
        }
    }

    /// Millions of steps a second.
    pub fn msteps(&self) -> f64 {
        let start = Instant::now();
        let mut state = 0usize;
        for &b in &self.input {
            state = self.table[state << 8 | usize::from(b)] as usize;
        }
        black_box(state);
        self.input.len() as f64 / start.elapsed().as_secs_f64() / 1e6
    }

    /// The host's speed as a share of the reference host's: 1.0 there,
    /// below 1.0 while neighbours slow it.
    pub fn speed(msteps: f64) -> f64 {
        msteps / PROBE_REFERENCE_MSTEPS
    }
}

/// Builds the arena, each time also starting (and, off the clock,
/// stopping) a one-worker service on it: `min` times, and more while
/// the builds fit in `budget` (a 300-rule setup takes ~30 ms, so one
/// build alone is at the mercy of a single host stall). Returns each
/// build-plus-start time, scaled to the reference host by a probe right
/// after it, and the last arena.
pub fn setup(
    set: &dpi_automaton::PatternSet,
    probe: &HostProbe,
    min: usize,
    budget: Duration,
) -> (Vec<f64>, Arc<RulesetArena>) {
    let mut times = Vec::new();
    let mut last = None;
    let begin = Instant::now();
    while times.len() < min || (begin.elapsed() < budget && times.len() < 25) {
        let start = Instant::now();
        let arena = Arc::new(RulesetArena::build(set, &arena_config(), 1).expect("ruleset fits"));
        let service = Service::start(Arc::clone(&arena), ServiceConfig::with_workers(1))
            .expect("default config is valid");
        let secs = start.elapsed().as_secs_f64();
        times.push(secs * HostProbe::speed(probe.msteps()));
        service.shutdown();
        last = Some(arena);
    }
    (times, last.expect("at least one build"))
}

/// Seconds to build the exact tier alone and the two-stage tier alone.
pub fn build_times(set: &dpi_automaton::PatternSet) -> (f64, f64) {
    let config = arena_config();
    let start = Instant::now();
    black_box(ShardedMatcher::build(set, &config.exact).expect("ruleset fits"));
    let exact = start.elapsed().as_secs_f64();
    let start = Instant::now();
    black_box(TwoStageMatcher::build(set, &config).expect("ruleset fits"));
    (exact, start.elapsed().as_secs_f64())
}

/// Resident arena size in MiB: both tiers' tables.
pub fn arena_mib(arena: &RulesetArena) -> f64 {
    let bytes = arena.exact().memory_bytes()
        + arena.two_stage().pre_memory_bytes()
        + arena.two_stage().exact().memory_bytes();
    bytes as f64 / f64::from(1 << 20)
}

/// A drain configuration that pins the Exact tier with zero shed: the
/// queue holds the whole workload and the ladder's high-water mark sits
/// above the queue's capacity, so the depth signal can never descend.
pub fn drain_config(segments: usize) -> ServiceConfig {
    let mut config = ServiceConfig::with_workers(1);
    config.queue_cap = segments + 1;
    config.ladder.high_water = config.queue_cap + 1;
    config
}

/// Flow keys of lap 0.
pub fn lap_keys(w: &Workload, seed: u64) -> Vec<FlowKey> {
    (0..w.spec.flows as u32).map(|f| key(seed, 0, f)).collect()
}

/// One threaded drain: wall seconds from the first `offer` until
/// `shutdown` returns, the seconds spent inside `offer` calls, and the
/// report.
pub struct Drain {
    pub secs: f64,
    pub offer_secs: f64,
    pub report: ServiceReport,
}

/// Offers every segment to a fresh one-worker [`Service`] (started off
/// the clock) and shuts it down.
pub fn threaded_drain(arena: &Arc<RulesetArena>, segs: &[Seg], keys: &[FlowKey]) -> Drain {
    let mut service =
        Service::start(Arc::clone(arena), drain_config(segs.len())).expect("drain config is valid");
    let start = Instant::now();
    for (i, s) in segs.iter().enumerate() {
        service.offer(keys[s.flow as usize], s.seq, &s.bytes, i as u64);
    }
    let offer_secs = start.elapsed().as_secs_f64();
    let report = service.shutdown();
    Drain {
        secs: start.elapsed().as_secs_f64(),
        offer_secs,
        report,
    }
}

/// The same drain through the single-threaded [`ServiceSim`], stepping
/// one batch per batch offered. Returns seconds and the report.
pub fn sim_drain(
    arena: &Arc<RulesetArena>,
    segs: &[Seg],
    keys: &[FlowKey],
) -> (f64, ServiceReport) {
    let config = drain_config(segs.len());
    let mut sim = ServiceSim::new(Arc::clone(arena), config).expect("drain config is valid");
    let start = Instant::now();
    for (i, s) in segs.iter().enumerate() {
        sim.offer(keys[s.flow as usize], s.seq, &s.bytes, i as u64);
        if (i + 1).is_multiple_of(config.batch) {
            sim.step();
        }
    }
    let report = sim.finish();
    (start.elapsed().as_secs_f64(), report)
}

/// What one paced sub-run saw.
pub struct Paced {
    pub stats: ServiceStats,
    pub latency: LatencyHistogram,
    /// Largest delay of a burst past its due time, seconds.
    pub late_max_s: f64,
}

/// Offers the workload lap after lap, each lap on fresh flow keys
/// (numbered from `first_lap`), to a fresh default-config service at
/// `mbps`, for `secs` of schedule. Open loop: bursts of 8 segments leave
/// on schedule whatever the service does, and the producer sleeps
/// whenever it is 100 µs or more ahead.
pub fn paced(
    arena: &Arc<RulesetArena>,
    w: &Workload,
    seed: u64,
    first_lap: u64,
    mbps: f64,
    secs: f64,
) -> Paced {
    const BURST: usize = 8;
    let mut service = Service::start(Arc::clone(arena), ServiceConfig::with_workers(1))
        .expect("default config is valid");
    let rate = mbps * 1e6;
    let start = Instant::now();
    let mut sent = 0u64;
    let mut late_max_s = 0f64;
    let mut n = 0usize;
    'laps: for lap in first_lap.. {
        for s in &w.segs {
            if n.is_multiple_of(BURST) {
                let due = sent as f64 / rate;
                if due >= secs {
                    break 'laps;
                }
                let ahead = due - start.elapsed().as_secs_f64();
                if ahead >= 100e-6 {
                    std::thread::sleep(Duration::from_secs_f64(ahead));
                }
                late_max_s = late_max_s.max(start.elapsed().as_secs_f64() - due);
            }
            let time = start.elapsed().as_nanos() as u64;
            service.offer(key(seed, lap, s.flow), s.seq, &s.bytes, time);
            sent += s.bytes.len() as u64;
            n += 1;
        }
    }
    let report = service.shutdown();
    Paced {
        stats: report.stats,
        latency: report.latency,
        late_max_s,
    }
}

/// Runs `pass` until `budget` has elapsed and at least `min` passes ran
/// (stopping at `max`), returning each pass's result.
pub fn repeat(budget: Duration, min: usize, max: usize, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max && (out.len() < min || start.elapsed() < budget) {
        out.push(pass());
    }
    out
}

/// Seconds for one isolated flow-table lookup pass: `touch_at` over the
/// workload's key and time sequence on a fresh table shaped as a
/// worker's, with no reassembly or scanning.
pub fn flow_lookup_pass(exact: &ShardedMatcher, segs: &[Seg], keys: &[FlowKey]) -> f64 {
    let config = ServiceConfig::with_workers(1);
    let template = StreamFlow::new(
        config.reassembly,
        ProtoFlow::new(exact.flow_state(), config.protocol),
    );
    let mut table = FlowTable::with_ways(config.flow_capacity, config.flow_ways, template);
    let start = Instant::now();
    for (i, s) in segs.iter().enumerate() {
        black_box(table.touch_at(keys[s.flow as usize], i as u64));
    }
    start.elapsed().as_secs_f64()
}

/// Which engine an isolated chunk pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// `ShardedMatcher::scan_chunk_into`, the Exact tier.
    Sharded,
    /// `TwoStageMatcher::scan_chunk_into`, the TwoStage tier.
    TwoStage,
    /// `TwoStageMatcher::scan_chunk_flag_only`, the FlagOnly tier.
    FlagOnly,
}

/// Seconds for one pass of the captured scanner input through `engine`
/// with one state per flow and no table, and, for the two-stage
/// engines, the swept and verified bytes summed over the flows.
pub fn chunk_pass(
    arena: &RulesetArena,
    flows: usize,
    chunks: &Capture,
    engine: Engine,
) -> (f64, TwoStageStats) {
    let mut out = Vec::new();
    let mut totals = TwoStageStats::default();
    match engine {
        Engine::Sharded => {
            let exact = arena.exact();
            let mut states = vec![exact.flow_state(); flows];
            let mut scratch = exact.scratch();
            let start = Instant::now();
            for &(flow, lo, hi) in &chunks.chunks {
                exact.scan_chunk_into(
                    &mut states[flow as usize],
                    &chunks.bytes[lo..hi],
                    &mut scratch,
                    &mut out,
                );
                out.clear();
            }
            (start.elapsed().as_secs_f64(), totals)
        }
        Engine::TwoStage | Engine::FlagOnly => {
            let two = arena.two_stage();
            let mut states = vec![two.flow_state(); flows];
            let mut scratch = two.scratch();
            let start = Instant::now();
            for &(flow, lo, hi) in &chunks.chunks {
                let state = &mut states[flow as usize];
                let bytes = &chunks.bytes[lo..hi];
                if matches!(engine, Engine::FlagOnly) {
                    two.scan_chunk_flag_only(state, bytes, &mut scratch, &mut out);
                } else {
                    two.scan_chunk_into(state, bytes, &mut scratch, &mut out);
                }
                out.clear();
            }
            for state in &mut states {
                two.finish_flow(state, &mut out);
            }
            let secs = start.elapsed().as_secs_f64();
            for state in &states {
                let s = state.stats();
                totals.pre_bytes += s.pre_bytes;
                totals.verified_bytes += s.verified_bytes;
            }
            (secs, totals)
        }
    }
}
