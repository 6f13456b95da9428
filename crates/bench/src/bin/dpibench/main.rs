//! # dpibench: wire to matches, on four traffic mixes
//!
//! One command generates each workload in memory from a seed, sends it
//! through the public `dpi_core` API from wire-shaped segments to
//! flow-tagged matches, checks the matches, and prints every metric as
//! `workload metric value unit`:
//!
//! ```text
//! cargo run --release -p dpi-bench --bin dpibench -- --seed 1
//! cargo run --release -p dpi-bench --bin dpibench -- --seed 1 --workload tls_25k \
//!     --json base.json --trace-out spans.jsonl
//! cargo run --release -p dpi-bench --bin dpibench -- --compare base.json new.json
//! ```
//!
//! The program also builds on its own, from its directory's `Cargo.toml`,
//! which is how `BENCHMARK.json` runs it: `--workload NAME --seed N
//! --seconds S --trace 0` measures one workload's end-to-end metrics
//! untraced, `--trace 1` its per-layer metrics, and either ends standard
//! output with one JSON line `{"correct", "attempted", "failed",
//! "metrics"}`. `attempted` counts the segments offered to timed drains
//! and paced sub-runs, `failed` those of a drain or sub-run that failed
//! a check below. A segment the service sheds is not failed: shedding is
//! the service's designed answer to load, and `admitted_pct` measures
//! it. Without `--trace` both halves run and every metric
//! prints. `--seconds` (default 10) is each half's measuring time; the
//! default seed is 1. The exit code is nonzero when the correctness gate
//! fails.
//!
//! # Workloads
//!
//! Rulesets are fixed; the seed drives every traffic byte, planted
//! occurrence and arrival order.
//!
//! | name | traffic | paced | why |
//! |---|---|---|---|
//! | `http_mix_6275` | master 6,275 rules; `service_mix`: 96 flows × 96 KiB, 1,200-B in-order segments, 1 flow in 8 infected with 6 planted occurrences | 30 MB/s | The reference mix. Sharded scan dominates and matches are dense (2.04 M over 9.4 MB), so the match-emission path shows. The gap between tier rate and full path lives here. |
//! | `small_seg_300` | 300 rules (`extract_preserving(master, 300, 0x0B07)`); 1,024 flows × 16 KiB in 128-B segments, 1 in 8 infected | 5 MB/s | Per-packet cost dominates: `Service::offer` costs ~0.8 µs a segment and the scan is cheap, so queue, steering and flow-table work show in `capacity_mbps` here and not on `tls_25k`. Its paced rate is 4 % of capacity (below), so its paced metrics barely see per-packet cost. |
//! | `tls_25k` | 25,000 generated rules; 32 `tls_stream` flows × 256 KiB in 1,448-B segments, 4 occurrences per flow planted strictly inside ApplicationData bodies | 55 MB/s | The largest setup and arena (a 2-shard exact tier, ~1.5 s to build); per-packet layers are nearly free; runs the TLS framer over high-entropy bodies. Setup and tier-engine changes show here. |
//! | `reorder_http_300` | the same 300 rules; 64 `http_stream(32, 4096, 0.5)` keep-alive connections with 4 occurrences planted in bodies, chopped `Random{256..=1460}`, scheduled `Reorder{window: 4}` (inside the 64 KiB reassembly budget), interleaved | 30 MB/s | Sends reassembly and protocol down their buffered and chunked-decode paths, where the three others take the in-order zero-copy paths. A gain on one path that costs the other shows here. |
//!
//! The paced rate is fixed per workload and never follows the code
//! under test (an offered load that tracks the change hides it). It was
//! set once from the capacity medians this benchmark first measured
//! (65, 126, 142 and 324 MB/s over ten seeds): half the median, rounded
//! down to 5 MB/s, and no faster than one 8-segment burst per 200 µs.
//! The producer sleeps only when 100 µs or more ahead and oversleeps by
//! up to about as much again, so at a faster rate bursts leave back to
//! back, a batch boundary sees more than the ladder's `low_water` of 8
//! queued segments, and a worker that descends once never climbs back
//! (finding 3). That caps `small_seg_300` at 5, `tls_25k` at 55 and
//! `reorder_http_300` at 30. Larger bursts of small segments do not
//! lift the cap: the ladder counts segments, not bytes, and a worker
//! that falls 48 segments behind for 4 batches descends. On
//! `small_seg_300` 64-segment bursts at 10–60 MB/s and 16-segment bursts
//! at 10–20 MB/s left Exact carrying a median of 3–97 % of a sub-run.
//!
//! # End-to-end metrics
//!
//! Measured untraced on the real `Service` (one producer thread, the
//! caller's, and one worker) and on arenas built as the
//! `service-robustness` repro builds them: `TwoStageConfig::with_cores(1)`,
//! a 2 MiB approximate tier and an 8 MiB exact tier. Bounds, as in
//! `BENCHMARK.json`, are the share of the base median a metric may
//! worsen by before a change counts as a regression.
//!
//! | name | unit | better | definition | bound |
//! |---|---|---|---|---|
//! | `setup_s` | s | lower | `RulesetArena::build` + `Service::start`, host-scaled; median of at least 3 and as many as fit in a second | 0.25 |
//! | `capacity_mbps` | MB/s | higher | Wire bytes ÷ (first `offer` → `shutdown` returns) over a drain of the whole workload with the Exact tier pinned, host-scaled; median of at least 15 drains spread over the run (q1, q3 and n print beside it) | 0.24 |
//! | `paced_within_1ms_pct` | % | higher | Share of offered segments whose enqueue → scanned latency is under 2^20 ns, shed segments counting as missed; median over the paced sub-runs | 0.02 |
//! | `paced_exact_pct` | % | higher | Share of offered bytes scanned in the Exact tier; median over the paced sub-runs | 0.10 |
//! | `admitted_pct` | % | higher | Admitted ÷ offered segments, i.e. 100 less the shed share; median over the paced sub-runs | 0.02 |
//! | `arena_mib` | MiB | lower | `exact().memory_bytes()` + `two_stage().pre_memory_bytes()` + `two_stage().exact().memory_bytes()` | 0.02 |
//!
//! **Host scaling.** On a shared host the service's rates drift ±25 %
//! over minutes with what the neighbours run, far past any useful
//! bound. Right after each build and each drain the benchmark times its
//! own host probe (`measure::HostProbe`: a million dependent lookups in
//! a fixed 256 KiB transition table, the shape of a scanner's inner
//! loop) and scales the time or rate to a host where the probe reads
//! 150 M steps/s. Over 8 seeds per workload the probe's run medians
//! correlated 0.87–0.98 with the drains', and scaling cut the capacity
//! spread (q3 − q1 over the median) from 0.12–0.26 to 0.025–0.064, or
//! 0.164 in one of two sets on `reorder_http_300`; two later sets of 10
//! seeds spread 0.035–0.112. A DRAM-bound loop does not track the
//! drift, and a pure ALU loop tracks it too little.
//! The probe is the benchmark's code, so no change under test moves it;
//! `host.probe_msteps` reports it. Layer metrics are as measured.
//!
//! **Why the drain pins the ladder.** A drain runs a fresh service whose
//! queue holds the whole workload (`queue_cap` = segments + 1) and whose
//! `ladder.high_water` sits above that (`queue_cap` + 1), so the depth
//! signal can never descend and nothing sheds. Each tier move rebuilds
//! flow state at its offset and drops the matches that straddle it: by
//! design and counted, but it breaks the correctness gate. (An unpinned
//! simulator lost 15 matches over 82 state rebuilds on the reference
//! mix.)
//!
//! **The paced run** is an open loop at the workload's rate on the
//! default `ServiceConfig` (live ladder, `queue_cap` 256): bursts of 8
//! segments leave on schedule whatever the service does, and the
//! producer sleeps whenever it is 100 µs or more ahead. Each lap of the
//! workload uses fresh flow keys. It runs as 0.5-second sub-runs, each
//! on a fresh service, and reports medians over them: one host stall
//! then spoils one sub-run, not the result, and a sub-run's match log
//! (finding 4) reaches the same size whatever `--seconds` is. The
//! latency share bisects on `LatencyHistogram::quantile`, whose answers
//! are power-of-two bucket bounds; 2^20 ns is one, so the share is exact.
//! p50 and p99 are not end-to-end metrics: at bucket granularity they
//! jump (262 µs and 2 ms across identical runs).
//!
//! Overload is left out: at a fixed 110 MB/s offered, 3.4-second runs
//! moved 72, 83 and 59 MB/s of goodput, which no bound can hold. The
//! `service-robustness` repro keeps covering overload.
//!
//! # Per-layer metrics
//!
//! `--trace 1`, per workload. The last column says which end-to-end
//! metric a change to the layer should move, and where it should not.
//!
//! | metric | definition | moves |
//! |---|---|---|
//! | `service.offer_ns_per_seg` | `Service::offer` wall time per call in the drains | `capacity_mbps` on `small_seg_300`; flat on `tls_25k` |
//! | `service.sim_mbps` | `ServiceSim` drain, Exact pinned, median | — |
//! | `service.handoff_ns_per_byte` | 1000/(measured drain rate) − 1000/`service.sim_mbps`: the threaded runtime's cost over the simulator (negative where the producer's payload copy overlaps the worker) | `capacity_mbps` on `small_seg_300` |
//! | `service.worker_ns_per_byte` | 1000/`service.sim_mbps` − 1000/`trace.replica_mbps`: worker cost beyond the layers (item boxing, tier dispatch, the match log) | `capacity_mbps` on `http_mix_6275` |
//! | `service.degrades`, `service.state_rebuilds` | ladder descents and per-flow state rebuilds, summed over the paced sub-runs | `paced_exact_pct` |
//! | `service.gen_late_max_ms` | the most any burst left after its due time | — |
//! | `service.paced_p50_us`, `service.paced_p99_us` | paced latency quantiles (bucket bounds), diagnostic only | — |
//! | `flow.lookup_ns_per_seg` | an isolated `FlowTable::touch_at` pass over the workload's key and time sequence | `capacity_mbps` on `small_seg_300`; flat on `tls_25k` |
//! | `flow.hit_pct`, `flow.evictions` | `FlowTableStats` of the untraced stand-in | — |
//! | `flow.evicted_lost_bytes` | admitted − scanned − panic-lost − duplicate bytes over the paced sub-runs: what the table dropped with evicted flows (finding 5) | — |
//! | `reassembly.ns_per_seg` | ingest self time per segment − `flow.lookup_ns_per_seg`; carries the table's tagging of every match with its flow, which dominates on match-dense mixes | `capacity_mbps` on `reorder_http_300`; small on in-order mixes |
//! | `reassembly.buffered_pct`, `reassembly.dup_bytes`, `reassembly.holes_skipped` | `ReassemblyStats` of the stand-in; buffered as a share of wire bytes | — |
//! | `protocol.ns_per_byte` | deliver self time ÷ delivered bytes | `capacity_mbps` on `reorder_http_300` (chunked decode) |
//! | `protocol.normalized_pct`, `protocol.downgrades` | `ProtocolStats` of the stand-in | — |
//! | `sharded.ns_per_byte` | scan self time ÷ scanned bytes | `capacity_mbps` on `http_mix_6275` and `tls_25k`; a small share on `small_seg_300` |
//! | `sharded.isolated_ns_per_byte` | the same scanner input through `scan_chunk_into`, one state per flow, no table | as above |
//! | `sharded.matches_per_kib` | matches per KiB scanned | — |
//! | `two_stage.ns_per_byte`, `two_stage.flag_only_ns_per_byte` | isolated passes of the lower tiers over the same scanner input | `paced_exact_pct` only when the ladder descends |
//! | `two_stage.replay_ppm` | verified ÷ swept bytes, × 10^6 | — |
//! | `setup.exact_build_s`, `setup.two_stage_build_s` | `ShardedMatcher::build`, `TwoStageMatcher::build` | `setup_s` on `tls_25k` |
//! | `host.probe_msteps` | the host probe after each drain, median | — |
//! | `trace.replica_mbps`, `trace.overhead_pct`, `trace.unattributed_pct` | untraced stand-in rate; traced over untraced wall time; wall time no layer accounts for | reconciliation only |
//!
//! **Where the layer numbers come from.** The worker's pipeline types
//! are private, so the traced run rebuilds it from the public layers and
//! times each call into one: `FlowTable::ingest_segment_at` (flow lookup
//! and reassembly), its `ProtoFlow::deliver` callback (detect and
//! normalize) and the `ShardedMatcher::scan_chunk_into` sink. The gate
//! checks that this stand-in emits the service's match multiset.
//!
//! One segment in 8 is timed, and each timed segment times one layer,
//! the layers taking turns; every pass samples another subset. Timing
//! every layer of a segment would put the children's clock reads inside
//! the parent's span, where they stall the parent's own work: measured
//! in place, a child span cost its parent 200–340 ns on small segments,
//! against 85 ns in a tight loop, and the nested design left −16 % of the
//! wall unattributed on `reorder_http_300`. A layer's self time is its
//! total less its child layer's, each total summing its spans less the
//! tracer's calibrated share of each and scaled by segments ÷ segments
//! that timed that layer. `trace.unattributed_pct` is the traced wall
//! less the self times and the tracer's own cost; it stays within 10 %.
//! The stand-in reserves its match log: a doubling copies the whole log
//! inside one segment's ingest, which one-in-N sampling cannot estimate,
//! and that cost belongs to `service.worker_ns_per_byte`. Spans stay in
//! memory; `--trace-out` writes the last pass's as JSON lines `{id,
//! name, parent, start_ns, end_ns}` (one file per workload, suffixed
//! with its name, when several run).
//!
//! # Correctness gate
//!
//! On every run, with lap-0 flow keys: the stand-in, the simulator drain
//! and a threaded drain (both Exact-pinned) must emit equal match
//! multisets; every later timed pass must reproduce that multiset's
//! digest. Every planted occurrence must be reported at its offset in
//! the scanner's offset space (a `ProtoFlow` over the flow's whole
//! stream maps wire offsets through the normalizers), except those in a
//! flow the table evicted. On `tls_25k` and `reorder_http_300`, where
//! every occurrence is planted strictly inside a record or message body,
//! that `ProtoFlow` must also deliver each one contiguously: otherwise a
//! normalizer that drops or splits body bytes would excuse its own
//! misses. Drains must hold `offered == admitted + shed`,
//! `scanned + panic_lost + duplicates == admitted − evicted` (the bytes
//! the stand-in's identical table dropped with evicted flows) and
//! `ProtocolStats::unaccounted_bytes() == 0`; paced sub-runs the first
//! and last, and never more scanned than admitted. On `reorder_http_300`
//! the stand-in's output on the reordered schedule must equal its output
//! on the in-order one.
//!
//! # Findings
//!
//! 1. **The repro's full-path rate ran in the wrong tier.** The
//!    `service-robustness` repro's "sim full path" of 53–60 MB/s pumps
//!    every 256 segments, which pushes queue depth past `high_water` 48:
//!    94 % of its bytes ran in FlagOnly (`tier_bytes` = [231,600,
//!    307,200, 8,898,384]).
//! 2. **Paced and overload rows do not repeat.** In two back-to-back
//!    runs of that repro, shed at 1.5× load was 10.9 % and then 37.0 %.
//!    On this benchmark's 2-vCPU host a cache-resident scan varies 10 %
//!    pass to pass and capacity medians drift ±25 % over minutes. Hence
//!    medians, drains interleaved with the paced sub-runs, host scaling
//!    and wide capacity bounds.
//! 3. **The ladder sticks.** Climbing back needs 16 consecutive batches
//!    at depth ≤ 8. When the producer's bursts leave back to back, some
//!    batch boundary in every cluster sees more than 8 queued: at 40 MB/s
//!    on `small_seg_300` (30 % of capacity) 10 of 12 sub-runs descended
//!    and none recovered (Exact carried 5–99 % of a sub-run), and at
//!    60 MB/s on `reorder_http_300` (a fifth of capacity) 13 of 24 did
//!    the same.
//! 4. **The match log stalls the worker.** Each worker appends every
//!    match to one vector until shutdown, grown by doubling. On
//!    `tls_25k` (81 matches/KiB) a half-second session passes 32 MB of
//!    log, and that copy outlasts the 256-segment queue: every sub-run
//!    descends once and sheds 2–3 %.
//! 5. **Eviction drops admitted bytes uncounted.** A set of the 8-way
//!    flow table that receives 9 live flows thrashes, and an evicted flow
//!    that holds out-of-order bytes loses them: the held-bytes gauge
//!    falls and no counter names the loss. It happens in about one
//!    `small_seg_300` lap in five.
//!
//! # A/B protocol
//!
//! Build the parent and the change once each, then run at least 10
//! pairs, alternating which side runs first, with the same seeds and
//! `--seconds` on both (`dpibench --seed N --json side.json`). A gain
//! counts only when the change wins at least 9 of 10 pairs and the gap
//! between the medians is wider than the parent's own q1–q3 spread. Every
//! other workload × end-to-end metric must stay within its bound
//! (`--compare base.json new.json`, which labels each pairing within
//! bound, regressed, or unresolved when a side's spread is wider than
//! the bound, and exits nonzero on a regression, on a result that failed
//! its gate, or when a workload or metric is missing from either file).

#![forbid(unsafe_code)]

mod compare;
mod gate;
mod json;
mod measure;
mod pipeline;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpi_core::{FlowKey, RulesetArena};

use crate::json::{num, quote, Json};
use crate::measure::{Engine, HostProbe, Paced};
use crate::pipeline::{Capture, Layer, NoProbe, Overhead, StandIn, Tracer};
use crate::stats::{median, quartiles, samples_within};
use crate::workload::{Spec, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Seconds each measuring part of a run takes when `--seconds` is not
/// given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Traced runs time one segment in this many.
const SAMPLE_EVERY: usize = 8;
/// The enqueue → scanned latency limit of the paced run: 2^20 ns, a
/// histogram bucket edge, so the share below it is exact.
const LATENCY_LIMIT_NS: u64 = 1 << 20;
/// Fewest threaded drains behind `capacity_mbps`.
const MIN_DRAINS: usize = 15;
/// Length of one paced sub-run, each on a fresh service; the paced
/// metrics are medians over the sub-runs. Fixed, so a sub-run's match
/// log (which the service grows, by doubling, until shutdown) reaches
/// the same size whatever `--seconds` is.
const PACED_SECONDS: f64 = 0.5;

/// The benchmark's own manifest and the workspace's: both must build
/// with the same release profile.
const OWN_MANIFEST: &str = include_str!("Cargo.toml");
const WORKSPACE_MANIFEST: &str = include_str!("../../../../../Cargo.toml");

const USAGE: &str = "usage: dpibench [--seed N] [--workload NAME]... [--seconds S] [--trace 0|1] \
[--json OUT] [--trace-out SPANS.jsonl]\n       dpibench --compare BASE.json NEW.json [--benchmark BENCHMARK.json]";

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// `(q1, q3, n)` when the value is a median of several passes.
    spread: Option<(f64, f64, usize)>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        spread: None,
    }
}

fn median_metric(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    let (q1, q3) = quartiles(samples);
    Metric {
        name,
        value: median(samples),
        unit,
        spread: Some((q1, q3, samples.len())),
    }
}

/// Which halves of a run to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// End-to-end metrics, untraced (`--trace 0`).
    EndToEnd,
    /// Per-layer metrics from the traced run (`--trace 1`).
    Layers,
    /// Both, end-to-end first (no `--trace`).
    Both,
}

struct Args {
    seed: u64,
    seconds: f64,
    workloads: Vec<Spec>,
    mode: Mode,
    json: Option<String>,
    trace_out: Option<String>,
}

/// What one workload's run produced.
struct Outcome {
    name: &'static str,
    metrics: Vec<Metric>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn main() -> ExitCode {
    if release_profile(OWN_MANIFEST) != release_profile(WORKSPACE_MANIFEST) {
        eprintln!(
            "dpibench: its Cargo.toml's [profile.release] differs from the workspace's; \
             make them equal, so the benchmark measures the workspace's code generation"
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return compare_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dpibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "dpibench: seed {}, {} s per measured part, one worker thread beside the producer, available parallelism {}",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut outcomes = Vec::new();
    for spec in &args.workloads {
        let outcome = run_workload(*spec, &args);
        for m in &outcome.metrics {
            match m.spread {
                Some((q1, q3, n)) => println!(
                    "{} {} {} {} q1={q1} q3={q3} n={n}",
                    outcome.name, m.name, m.value, m.unit
                ),
                None => println!("{} {} {} {}", outcome.name, m.name, m.value, m.unit),
            }
        }
        for f in &outcome.failures {
            eprintln!("dpibench: {}: CORRECTNESS FAILURE: {f}", outcome.name);
        }
        outcomes.push(outcome);
    }
    let correct = outcomes.iter().all(|o| o.failures.is_empty());
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, results_json(&args, &outcomes, correct)) {
            eprintln!("dpibench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.mode != Mode::Both {
        if let [outcome] = outcomes.as_slice() {
            println!("{}", result_line(outcome));
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The settings of a manifest's `[profile.release]` table, one per line,
/// without blank lines or comments.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        workloads: Vec::new(),
        mode: Mode::Both,
        json: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--workload" => {
                let name = value()?;
                let spec = Spec::named(name).ok_or(format!(
                    "unknown workload `{name}` (one of {})",
                    workload::NAMES.join(", ")
                ))?;
                args.workloads.push(spec);
            }
            "--trace" => {
                args.mode = match value()?.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Layers,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--json" => args.json = Some(value()?.clone()),
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = workload::NAMES
            .iter()
            .map(|n| Spec::named(n).expect("listed workloads resolve"))
            .collect();
    }
    Ok(args)
}

fn compare_main(argv: &[String]) -> ExitCode {
    let (files, bench) = match argv {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--benchmark" => ([a, b], path.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let result = load(files[0]).and_then(|base| {
        let new = load(files[1])?;
        compare::run(&base, &new, &load(bench)?)
    });
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dpibench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What every measuring step of one workload shares.
struct Ctx<'a> {
    w: &'a Workload,
    set: &'a dpi_automaton::PatternSet,
    arena: &'a Arc<RulesetArena>,
    /// Lap-0 flow keys, as the gate used.
    keys: &'a [FlowKey],
    probe: &'a HostProbe,
    seed: u64,
    /// The gate's match multiset, which every timed pass must reproduce.
    digest: u64,
    matches: usize,
    /// Bytes the flow table drops with evicted flows in a drain.
    evicted_loss: u64,
}

impl Ctx<'_> {
    fn check(&self, path: &str, matches: &[dpi_core::FlowMatch], failures: &mut Vec<String>) {
        if gate::digest(matches) != self.digest {
            failures.push(format!("a {path} pass emitted a different match multiset"));
        }
    }
}

/// End-to-end samples, shared with the layer metrics.
struct EndToEnd {
    /// Drain rates scaled to the reference host.
    capacity: Vec<f64>,
    /// The same, as measured.
    raw_capacity: Vec<f64>,
    /// The host probe after each drain.
    probe_msteps: Vec<f64>,
    offer_ns_per_seg: Vec<f64>,
    /// The paced sub-runs.
    paced: Vec<Paced>,
    attempted: u64,
    failed: u64,
}

impl EndToEnd {
    /// Counts a drain's or sub-run's offered segments as attempted, and
    /// as failed when it failed a check.
    fn count(&mut self, stats: &dpi_core::ServiceStats, failed: bool) {
        self.attempted += stats.offered_packets;
        if failed {
            self.failed += stats.offered_packets;
        }
    }

    /// `share` of each paced sub-run, as a median with its quartiles.
    fn paced_metric(&self, name: &'static str, share: impl Fn(&Paced) -> f64) -> Metric {
        median_metric(name, &self.paced.iter().map(share).collect::<Vec<_>>(), "%")
    }
}

fn run_workload(spec: Spec, args: &Args) -> Outcome {
    let set = spec.ruleset();
    let w = Workload::generate(spec, &set, args.seed);
    let want_e2e = args.mode != Mode::Layers;
    let probe = HostProbe::new();
    let (setup_times, arena) = if want_e2e {
        measure::setup(&set, &probe, 3, Duration::from_secs(1))
    } else {
        measure::setup(&set, &probe, 1, Duration::ZERO)
    };
    let keys = measure::lap_keys(&w, args.seed);
    let gate = gate::run(&w, &arena, &keys);
    eprintln!(
        "dpibench: {}: {} segments, {} bytes, {} flows, input digest {:016x}; gate: {} matches agree across stand-in, simulator and threaded service; {} planted found ({} in evicted flows, {} masked by protocol framing); {} bytes lost with evicted flows",
        spec.name,
        w.segs.len(),
        w.bytes,
        spec.flows,
        w.digest(),
        gate.matches,
        gate.planted,
        gate.evicted,
        gate.masked,
        gate.evicted_loss
    );
    let ctx = Ctx {
        w: &w,
        set: &set,
        arena: &arena,
        keys: &keys,
        probe: &probe,
        seed: args.seed,
        digest: gate.digest,
        matches: gate.matches,
        evicted_loss: gate.evicted_loss,
    };
    let mut failures = gate.failures;
    // Each half measures for `--seconds`; a layers-only run also needs the
    // drains and paced sub-runs, and gives each part half its time.
    let budget = Duration::from_secs_f64(args.seconds);
    let part = if want_e2e { budget } else { budget / 2 };
    let mut metrics = Vec::new();
    let e2e = end_to_end(&ctx, part, &mut failures);
    if want_e2e {
        metrics.push(median_metric("setup_s", &setup_times, "s"));
        metrics.push(median_metric("capacity_mbps", &e2e.capacity, "MB/s"));
        metrics.push(e2e.paced_metric("paced_within_1ms_pct", |p| {
            pct(
                samples_within(&p.latency, LATENCY_LIMIT_NS),
                p.stats.offered_packets,
            )
        }));
        metrics.push(e2e.paced_metric("paced_exact_pct", |p| {
            pct(p.stats.workers.tier_bytes[0], p.stats.offered_bytes)
        }));
        metrics.push(e2e.paced_metric("admitted_pct", |p| {
            pct(p.stats.admitted_packets, p.stats.offered_packets)
        }));
        metrics.push(metric("arena_mib", measure::arena_mib(&arena), "MiB"));
    }
    if args.mode != Mode::EndToEnd {
        metrics.extend(layers(&ctx, args, part, &e2e, &mut failures));
    }
    Outcome {
        name: spec.name,
        metrics,
        failures,
        attempted: e2e.attempted,
        failed: e2e.failed,
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// Threaded drains and paced sub-runs, interleaved over `budget` (40 %
/// drains, 60 % sub-runs), so both sample the whole window the host
/// gives the run. Every drain must reproduce the gate's match multiset
/// and balance its ledger; every sub-run must balance its ledger. The
/// segments of a drain or sub-run that fails count as failed.
fn end_to_end(ctx: &Ctx, budget: Duration, failures: &mut Vec<String>) -> EndToEnd {
    let w = ctx.w;
    let runs = ((budget.as_secs_f64() * 0.6 / PACED_SECONDS).round() as usize).max(1);
    let mut e2e = EndToEnd {
        capacity: Vec::new(),
        raw_capacity: Vec::new(),
        probe_msteps: Vec::new(),
        offer_ns_per_seg: Vec::new(),
        paced: Vec::with_capacity(runs),
        attempted: 0,
        failed: 0,
    };
    for run in 0..runs {
        let drains = measure::repeat(
            budget.mul_f64(0.4) / runs as u32,
            MIN_DRAINS.div_ceil(runs),
            400,
            || {
                let d = measure::threaded_drain(ctx.arena, &w.segs, ctx.keys);
                let before = failures.len();
                ctx.check("threaded drain", &d.report.matches, failures);
                if let Some(e) = gate::ledger(&d.report.stats, Some(ctx.evicted_loss)) {
                    failures.push(format!("threaded drain ledger: {e}"));
                }
                e2e.count(&d.report.stats, failures.len() > before);
                e2e.offer_ns_per_seg
                    .push(d.offer_secs * 1e9 / w.segs.len() as f64);
                let raw = w.bytes as f64 / d.secs / 1e6;
                let msteps = ctx.probe.msteps();
                e2e.raw_capacity.push(raw);
                e2e.probe_msteps.push(msteps);
                raw / HostProbe::speed(msteps)
            },
        );
        e2e.capacity.extend(drains);
        let first_lap = (run as u64 + 1) << 32;
        let p = measure::paced(
            ctx.arena,
            w,
            ctx.seed,
            first_lap,
            w.spec.paced_mbps,
            PACED_SECONDS,
        );
        let ledger = gate::ledger(&p.stats, None);
        e2e.count(&p.stats, ledger.is_some());
        if let Some(e) = ledger {
            failures.push(format!("paced run ledger: {e}"));
        }
        e2e.paced.push(p);
    }
    e2e
}

/// The traced run and the isolated layer passes, in `budget`. The
/// simulator, untraced and traced stand-in passes run in interleaved
/// rounds, so drift on the host moves all three alike.
fn layers(
    ctx: &Ctx,
    args: &Args,
    budget: Duration,
    e2e: &EndToEnd,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let w = ctx.w;
    let segs = w.segs.len() as f64;
    let bytes = w.bytes as f64;
    let overhead = Overhead::calibrate();

    let (mut sim, mut replica) = (Vec::new(), Vec::new());
    let mut self_ns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut unattributed = Vec::new();
    let mut spans = Vec::new();
    let mut counters = None;
    // Each round returns how much slower its traced pass ran than its
    // untraced one. Each pass frees its match log before the next starts,
    // so the two stand-in passes find the allocator in the same state.
    let slowdown = measure::repeat(budget.mul_f64(0.7), 3, 400, || {
        let pass = sim.len();
        {
            let (secs, report) = measure::sim_drain(ctx.arena, &w.segs, ctx.keys);
            ctx.check("simulator drain", &report.matches, failures);
            sim.push(bytes / secs / 1e6);
        }

        let replica_ns = {
            let mut stand = StandIn::new(ctx.arena.exact(), ctx.matches);
            let start = Instant::now();
            stand.run(&w.segs, ctx.keys, &mut NoProbe);
            let replica_ns = start.elapsed().as_secs_f64() * 1e9;
            ctx.check("untraced stand-in", &stand.matches, failures);
            counters = Some((stand.table_stats(), stand.proto));
            replica_ns
        };
        replica.push(replica_ns / 1e9);

        let mut stand = StandIn::new(ctx.arena.exact(), ctx.matches);
        let mut tracer = Tracer::new(SAMPLE_EVERY, pass);
        let start = Instant::now();
        stand.run(&w.segs, ctx.keys, &mut tracer);
        let wall_ns = start.elapsed().as_secs_f64() * 1e9;
        ctx.check("traced stand-in", &stand.matches, failures);
        let layer_self =
            pipeline::self_times(&tracer.spans, w.segs.len(), SAMPLE_EVERY, pass, overhead);
        for (layer, ns) in &layer_self {
            self_ns.entry(layer).or_default().push(*ns);
        }
        // The traced wall is the layers' work, the tracer's own work, and
        // whatever no span covers (the loop, the final flush).
        let attributed =
            layer_self.values().sum::<f64>() + tracer.spans.len() as f64 * overhead.span_ns;
        unattributed.push(100.0 * (wall_ns - attributed) / wall_ns);
        spans = tracer.spans;
        100.0 * (wall_ns / replica_ns - 1.0)
    });
    if let Some(path) = &args.trace_out {
        let path = if args.workloads.len() > 1 {
            format!("{path}.{}", w.spec.name)
        } else {
            path.clone()
        };
        if let Err(e) = pipeline::write_spans(&path, &spans) {
            failures.push(format!("cannot write spans to {path}: {e}"));
        }
    }
    let (table, proto) = counters.expect("at least one round");
    let layer_ns = |layer: Layer| median(&self_ns[layer.name()]);

    let lookup = measure::repeat(budget.mul_f64(0.1), 3, 400, || {
        measure::flow_lookup_pass(ctx.arena.exact(), &w.segs, ctx.keys)
    });
    let lookup_ns = median(&lookup) * 1e9 / segs;

    let mut capture = Capture::default();
    StandIn::new(ctx.arena.exact(), ctx.matches).run(&w.segs, ctx.keys, &mut capture);
    let scanned = capture.bytes.len() as f64;
    let engine_ns = |engine: Engine| {
        let mut counters = dpi_core::TwoStageStats::default();
        let times = measure::repeat(budget.mul_f64(0.2 / 3.0), 2, 400, || {
            let (secs, stats) = measure::chunk_pass(ctx.arena, w.spec.flows, &capture, engine);
            counters = stats;
            secs
        });
        (median(&times) * 1e9 / scanned, counters)
    };
    let (sharded_isolated, _) = engine_ns(Engine::Sharded);
    let (two_stage, two_stage_replay) = engine_ns(Engine::TwoStage);
    let (flag_only, _) = engine_ns(Engine::FlagOnly);
    let (exact_build, two_build) = measure::build_times(ctx.set);

    let capacity = median(&e2e.raw_capacity);
    let sim_mbps = median(&sim);
    let replica_mbps = bytes / median(&replica) / 1e6;
    let mut latency = dpi_core::LatencyHistogram::new();
    for p in &e2e.paced {
        latency.merge(&p.latency);
    }
    let paced_sum = |count: fn(&Paced) -> u64| e2e.paced.iter().map(count).sum::<u64>() as f64;
    let late_max_s = e2e.paced.iter().map(|p| p.late_max_s).fold(0.0, f64::max);
    let r = &table.reassembly;
    let lookups = (table.hits + table.misses).max(1);
    vec![
        metric(
            "service.offer_ns_per_seg",
            median(&e2e.offer_ns_per_seg),
            "ns/seg",
        ),
        median_metric("service.sim_mbps", &sim, "MB/s"),
        metric(
            "service.handoff_ns_per_byte",
            1000.0 / capacity - 1000.0 / sim_mbps,
            "ns/B",
        ),
        metric(
            "service.worker_ns_per_byte",
            1000.0 / sim_mbps - 1000.0 / replica_mbps,
            "ns/B",
        ),
        metric(
            "service.degrades",
            paced_sum(|p| p.stats.workers.degrades),
            "count",
        ),
        metric(
            "service.state_rebuilds",
            paced_sum(|p| p.stats.workers.state_rebuilds),
            "count",
        ),
        metric("service.gen_late_max_ms", late_max_s * 1e3, "ms"),
        metric(
            "service.paced_p50_us",
            latency.quantile(0.5) as f64 / 1e3,
            "us",
        ),
        metric(
            "service.paced_p99_us",
            latency.quantile(0.99) as f64 / 1e3,
            "us",
        ),
        metric("flow.lookup_ns_per_seg", lookup_ns, "ns/seg"),
        metric("flow.hit_pct", pct(table.hits, lookups), "%"),
        metric("flow.evictions", table.evictions as f64, "count"),
        metric(
            "flow.evicted_lost_bytes",
            e2e.paced
                .iter()
                .map(|p| gate::uncounted(&p.stats) as f64)
                .sum(),
            "count",
        ),
        metric(
            "reassembly.ns_per_seg",
            layer_ns(Layer::Ingest) / segs - lookup_ns,
            "ns/seg",
        ),
        metric(
            "reassembly.buffered_pct",
            pct(r.bytes_buffered, w.bytes),
            "%",
        ),
        metric("reassembly.dup_bytes", r.dup_bytes as f64, "count"),
        metric("reassembly.holes_skipped", r.holes_skipped as f64, "count"),
        metric(
            "protocol.ns_per_byte",
            layer_ns(Layer::Deliver) / proto.delivered_bytes as f64,
            "ns/B",
        ),
        metric(
            "protocol.normalized_pct",
            pct(proto.normalized_bytes, proto.delivered_bytes),
            "%",
        ),
        metric("protocol.downgrades", proto.downgrades() as f64, "count"),
        metric(
            "sharded.ns_per_byte",
            layer_ns(Layer::Scan) / scanned,
            "ns/B",
        ),
        metric("sharded.isolated_ns_per_byte", sharded_isolated, "ns/B"),
        metric(
            "sharded.matches_per_kib",
            ctx.matches as f64 / (scanned / 1024.0),
            "count/KiB",
        ),
        metric("two_stage.ns_per_byte", two_stage, "ns/B"),
        metric("two_stage.flag_only_ns_per_byte", flag_only, "ns/B"),
        metric(
            "two_stage.replay_ppm",
            two_stage_replay.replay_fraction() * 1e6,
            "ppm",
        ),
        metric("setup.exact_build_s", exact_build, "s"),
        metric("setup.two_stage_build_s", two_build, "s"),
        metric("host.probe_msteps", median(&e2e.probe_msteps), "Msteps/s"),
        metric("trace.replica_mbps", replica_mbps, "MB/s"),
        metric("trace.overhead_pct", median(&slowdown), "%"),
        metric("trace.unattributed_pct", median(&unattributed), "%"),
    ]
}

/// `"name": {"value": …, "unit": …}`, plus the quartiles and sample
/// count when `spread` is set and the metric has them.
fn metric_json(m: &Metric, spread: bool) -> String {
    let quartiles = match m.spread {
        Some((q1, q3, n)) if spread => {
            format!(", \"q1\": {}, \"q3\": {}, \"n\": {n}", num(q1), num(q3))
        }
        _ => String::new(),
    };
    format!(
        "{}: {{\"value\": {}, \"unit\": {}{quartiles}}}",
        quote(m.name),
        num(m.value),
        quote(m.unit)
    )
}

/// The last stdout line: the result in the shape the benchmark contract
/// fixes.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o.metrics.iter().map(|m| metric_json(m, false)).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// The `--json` file `--compare` reads.
fn results_json(args: &Args, outcomes: &[Outcome], correct: bool) -> String {
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let metrics: Vec<String> = o
                .metrics
                .iter()
                .map(|m| format!("      {}", metric_json(m, true)))
                .collect();
            format!("    {}: {{\n{}\n    }}", quote(o.name), metrics.join(",\n"))
        })
        .collect();
    format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"correct\": {correct},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        num(args.seconds),
        workloads.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_matches_the_workspace() {
        let own = release_profile(OWN_MANIFEST);
        assert!(!own.is_empty());
        assert_eq!(own, release_profile(WORKSPACE_MANIFEST));
        assert_eq!(
            release_profile("[a]\nx = 1\n[profile.release]\n# note\nlto = true\n\n[b]\ny = 2\n"),
            ["lto = true"]
        );
    }
}
