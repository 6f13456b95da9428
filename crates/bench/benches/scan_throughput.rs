//! Software scan throughput of every matcher in the workspace.
//!
//! This is the software-side complement to Table II/III's hardware
//! throughput numbers: all matchers produce identical matches, so the only
//! question is bytes per second. The full-DFA and DTP matchers do constant
//! work per byte; the fail-pointer designs (NFA, bitmap, path compression)
//! pay input-dependent extra lookups; the bit-level `HwMatcher` pays for
//! word decoding (it exists for verification, not speed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpi_automaton::{AnchorSet, Dfa, DfaMatcher, Match, MultiMatcher, Nfa, NfaMatcher, PairTable};
use dpi_baselines::{BitmapAc, BitmapMatcher, PathAc, PathMatcher};
use dpi_core::{CompiledAutomaton, CompiledMatcher, DtpConfig, DtpMatcher, ReducedAutomaton};
use dpi_hw::{HwImage, HwMatcher};
use dpi_rulesets::{extract_preserving, master_ruleset, TrafficGenerator};
use std::hint::black_box;

const PAYLOAD: usize = 1 << 16;

fn bench_scans(c: &mut Criterion) {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let dfa = Dfa::build(&set);
    let nfa = Nfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    let pairs = PairTable::build(&dfa, &set, &anchors);
    let lane = CompiledAutomaton::compile_with_prefilter(&reduced, anchors.clone(), None);
    let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs);
    let bare = CompiledAutomaton::compile(&reduced);
    let image = HwImage::build(&reduced).expect("fits");
    let bitmap = BitmapAc::build(&set);
    let path = PathAc::build(&set);
    let mut gen = TrafficGenerator::new(99);
    let payload = gen.infected_packet(PAYLOAD, &set, 16).payload;
    let clean = gen.clean_packet(PAYLOAD).payload;

    let mut group = c.benchmark_group("scan_throughput");
    group.throughput(Throughput::Bytes(PAYLOAD as u64));
    group.sample_size(20);

    group.bench_with_input(BenchmarkId::new("dtp", "300"), &payload, |b, p| {
        let m = DtpMatcher::new(&reduced, &set);
        b.iter(|| black_box(m.find_all(black_box(p))));
    });
    // "compiled" rows track the shipped default (prefilter lane plus the
    // region pair rows); "-nopairs" isolates the pair rows against the
    // lane alone, and "-stepper" the bare byte stepper — each its own
    // automaton compiled from the same reduced one, on infected and
    // clean payloads.
    for (label, m) in [
        ("compiled", CompiledMatcher::new(&compiled, &set)),
        ("compiled-nopairs", CompiledMatcher::new(&lane, &set)),
        ("compiled-stepper", CompiledMatcher::new(&bare, &set)),
    ] {
        for (traffic, p) in [("300", &payload), ("300-clean", &clean)] {
            group.bench_with_input(
                BenchmarkId::new(label, traffic),
                p,
                |b, p| {
                    let mut out: Vec<Match> = Vec::with_capacity(64);
                    b.iter(|| {
                        m.scan_into(black_box(p), &mut out);
                        black_box(out.len())
                    });
                },
            );
        }
    }
    group.bench_with_input(BenchmarkId::new("full_dfa", "300"), &payload, |b, p| {
        let m = DfaMatcher::new(&dfa, &set);
        b.iter(|| black_box(m.find_all(black_box(p))));
    });
    group.bench_with_input(BenchmarkId::new("nfa_fail", "300"), &payload, |b, p| {
        let m = NfaMatcher::new(&nfa, &set);
        b.iter(|| black_box(m.find_all(black_box(p))));
    });
    group.bench_with_input(BenchmarkId::new("bitmap_tuck", "300"), &payload, |b, p| {
        let m = BitmapMatcher::new(&bitmap, &set);
        b.iter(|| black_box(m.find_all(black_box(p))));
    });
    group.bench_with_input(BenchmarkId::new("path_tuck", "300"), &payload, |b, p| {
        let m = PathMatcher::new(&path, &set);
        b.iter(|| black_box(m.find_all(black_box(p))));
    });
    group.bench_with_input(BenchmarkId::new("hw_image", "300"), &payload, |b, p| {
        let m = HwMatcher::new(&image, &set);
        b.iter(|| black_box(m.find_all(black_box(p))));
    });
    group.finish();
}

criterion_group!(benches, bench_scans);
criterion_main!(benches);
