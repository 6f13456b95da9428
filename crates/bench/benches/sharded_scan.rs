//! Sharded scanning vs the monolithic compiled engine, per planned core
//! count.
//!
//! Complements `scan_throughput` (which compares scan *engines* on one
//! automaton): here the automaton itself is split. `ShardedMatcher`
//! scans every shard on the calling thread, so the `sharded-coresN`
//! entries time the plan's total single-thread work — see the repro
//! `sharded-throughput` experiment for the per-core decomposition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpi_automaton::{AnchorSet, Dfa, Match, PairTable};
use dpi_core::{
    CompiledAutomaton, CompiledMatcher, DtpConfig, ReducedAutomaton, ShardedConfig,
    ShardedMatcher,
};
use dpi_rulesets::{extract_preserving, master_ruleset, TrafficGenerator};
use std::hint::black_box;

const PAYLOAD: usize = 1 << 18;

fn bench_sharded(c: &mut Criterion) {
    // Large workload: ~1,600 rules put the monolithic arena well past the
    // per-shard budget, the regime sharding exists for.
    let set = extract_preserving(&master_ruleset(), 1600, 0x5D);
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    // The monolith carries the lanes every shard carries (anchors plus
    // the region pair rows where dense enough), so the shard-vs-monolith
    // rows compare layouts, not lane availability.
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    let pairs = PairTable::build(&dfa, &set, &anchors);
    let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs);
    let mut gen = TrafficGenerator::new(17);
    let payload = gen.infected_packet(PAYLOAD, &set, 32).payload;

    let mut group = c.benchmark_group("sharded_scan");
    group.throughput(Throughput::Bytes(PAYLOAD as u64));
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::new("compiled-seq", "1600"), &payload, |b, p| {
        let m = CompiledMatcher::new(&compiled, &set);
        let mut out: Vec<Match> = Vec::with_capacity(256);
        b.iter(|| {
            m.scan_into(black_box(p), &mut out);
            black_box(out.len())
        });
    });
    for cores in [1usize, 2, 4] {
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(cores))
            .expect("ruleset fits the default shard budget");
        group.bench_with_input(
            BenchmarkId::new(format!("sharded-cores{cores}"), "1600"),
            &payload,
            |b, p| {
                let mut scratch = sharded.scratch();
                let mut out: Vec<Match> = Vec::with_capacity(256);
                b.iter(|| {
                    sharded.scan_into(black_box(p), &mut scratch, &mut out);
                    black_box(out.len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
