//! Regenerates every table and figure of the DATE 2010 paper.
//!
//! ```text
//! cargo run -p dpi-bench --release --bin repro -- <experiment>
//! ```
//!
//! Experiments: `fig1 fig2 fig3 fig6 table1 table2 table3 fig7 fig8
//! ablation-k2 ablation-depth match-sharing m144k asic adversarial
//! sim-validate sw-throughput sw-throughput-clean sw-throughput-stride
//! sw-throughput-simd sharded-throughput two-stage flow-throughput
//! stream-robustness service-robustness protocol-robustness swap-drain
//! all`.
//!
//! `sw-throughput-simd` needs the `simd` cargo feature
//! (`cargo run --release --features simd -p dpi-bench --bin repro --
//! sw-throughput-simd`); without it the experiment prints a note and
//! emits no rows.
//!
//! `gate <file>` checks a `BENCH_JSON` results file against the tracked
//! rows and their floors (`dpi_bench::gate::GATES`) and exits nonzero
//! on any missing row or broken bound — the CI bench gate.
//!
//! Each experiment prints the paper's published values next to this
//! reproduction's measured values. Absolute agreement is not expected for
//! workload-dependent quantities (the rulesets are synthetic; DESIGN.md
//! §2); *shape* agreement — who wins, scaling factors, crossover group
//! sizes — is asserted in `tests/repro_shapes.rs`.

use dpi_automaton::{Dfa, Nfa, NfaMatcher, PatternSet, Trie};
use dpi_baselines::{BitmapAc, PathAc};
use dpi_bench::{cell, paper, thousands};
use dpi_core::{DtpConfig, ReductionReport};
use dpi_fpga::{plan, FpgaDevice, PowerModel, ResourceReport};
use dpi_hw::StateType;
use dpi_rulesets::{
    adversarial_payload, master_ruleset, paper_ruleset, table3_ruleset, LengthDistribution,
    PaperRuleset, TrafficGenerator,
};
use dpi_sim::{Accelerator, AcceleratorConfig};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if arg == "gate" {
        let Some(path) = std::env::args().nth(2) else {
            eprintln!("usage: repro gate <bench-results.json>");
            std::process::exit(2);
        };
        std::process::exit(dpi_bench::gate::run(&path));
    }
    let experiments: &[(&str, fn())] = &[
        ("fig1", fig1),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig6", fig6),
        ("table1", table1),
        ("table2", table2),
        ("table3", table3),
        ("fig7", fig7),
        ("fig8", fig8),
        ("ablation-k2", ablation_k2),
        ("ablation-depth", ablation_depth),
        ("match-sharing", match_sharing),
        ("m144k", m144k),
        ("asic", asic),
        ("adversarial", adversarial),
        ("sim-validate", sim_validate),
        ("sw-throughput", sw_throughput),
        ("sw-throughput-clean", sw_throughput_clean),
        ("sw-throughput-stride", sw_throughput_stride),
        ("sw-throughput-simd", sw_throughput_simd),
        ("sharded-throughput", sharded_throughput),
        ("two-stage", two_stage),
        ("flow-throughput", flow_throughput),
        ("stream-robustness", stream_robustness),
        ("service-robustness", service_robustness),
        ("protocol-robustness", protocol_robustness),
        ("swap-drain", swap_drain),
    ];
    if arg == "all" {
        for (name, f) in experiments {
            println!("\n================ {name} ================");
            f();
        }
        return;
    }
    match experiments.iter().find(|(name, _)| *name == arg) {
        Some((_, f)) => f(),
        None => {
            eprintln!(
                "unknown experiment {arg:?}; choose one of: {} all (or: gate <file>)",
                experiments
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            std::process::exit(2);
        }
    }
}

fn figure1_set() -> PatternSet {
    PatternSet::new(["he", "she", "his", "hers"]).expect("valid patterns")
}

/// Figure 1: the Aho-Corasick DFA for {he, she, his, hers}.
fn fig1() {
    let set = figure1_set();
    let trie = Trie::build(&set);
    let dfa = Dfa::build(&set);
    println!("Aho-Corasick DFA for {{he, she, his, hers}} (move function)\n");
    println!("{} states (paper Figure 1: 10)", dfa.len());
    for s in dfa.states() {
        let path = trie.path(s);
        let outs: Vec<String> = dfa
            .output(s)
            .iter()
            .map(|&p| String::from_utf8_lossy(set.pattern(p)).into_owned())
            .collect();
        let nonstart: Vec<String> = dfa
            .row(s)
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != 0)
            .map(|(c, &t)| format!("{}→S{}", c as u8 as char, t))
            .collect();
        println!(
            "  S{} depth {} path {:?}{}  [{}]",
            s.0,
            dfa.depth(s),
            String::from_utf8_lossy(&path),
            if outs.is_empty() {
                String::new()
            } else {
                format!("  matches {outs:?}")
            },
            nonstart.join(" ")
        );
    }
}

/// Figure 2: average stored pointers as defaults are added.
fn fig2() {
    let set = figure1_set();
    let r = ReductionReport::compute(&set, DtpConfig::PAPER);
    println!("average stored transition pointers, {{he, she, his, hers}}\n");
    println!("{}{}measured", cell("stage", 16), cell("paper", 10));
    let rows = [
        ("original", paper::FIGURE2[0], r.original_avg),
        ("+ depth-1", paper::FIGURE2[1], r.avg_after_d1),
        ("+ depth-2", paper::FIGURE2[2], r.avg_after_d2),
        ("+ depth-3", paper::FIGURE2[3], r.avg_after_d3),
    ];
    for (stage, p, m) in rows {
        println!("{}{}{m:.1}", cell(stage, 16), cell(&format!("{p:.1}"), 10));
    }
    println!(
        "\n(the 2.6 vs 2.5 original count is a known diagram-census\n discrepancy; the three reduced stages match exactly — see EXPERIMENTS.md)"
    );
}

/// Figure 3: the 15 state types.
fn fig3() {
    println!("state types: position in the 324-bit word and size in bits\n");
    println!(
        "{}{}{}{}36-bit slots",
        cell("type", 6),
        cell("pointers", 10),
        cell("width(b)", 10),
        cell("bit offset", 12),
    );
    for ty in StateType::all() {
        let class = ty.class();
        let lo = match class.capacity() {
            1 => 0,
            4 => 2,
            7 => 5,
            10 => 8,
            _ => 11,
        };
        println!(
            "{}{}{}{}{}..{}",
            cell(&ty.to_string(), 6),
            cell(&format!("{}-{}", lo, class.capacity()), 10),
            cell(&ty.width_bits().to_string(), 10),
            cell(&ty.bit_offset().to_string(), 12),
            ty.start_slot(),
            ty.start_slot() + class.slots() - 1,
        );
    }
}

/// Figure 6: string-length distribution of the rulesets.
fn fig6() {
    println!("string length histograms (Figure 6; '50' pools 50+)\n");
    let master = master_ruleset();
    for which in PaperRuleset::ALL {
        let set = if which == PaperRuleset::S6275 {
            master.clone()
        } else {
            paper_ruleset(which)
        };
        let lengths: Vec<usize> = set.iter().map(|(_, p)| p.len()).collect();
        let hist = LengthDistribution::figure6_histogram(&lengths);
        let peak = hist
            .iter()
            .filter(|&&(l, _)| l < 50)
            .max_by_key(|&&(_, c)| c)
            .expect("non-empty");
        println!(
            "{}: {} chars, mean len {:.1}, peak {} strings at len {}",
            which,
            set.total_bytes(),
            set.total_bytes() as f64 / set.len() as f64,
            peak.1,
            peak.0
        );
    }
    println!("\nfull histogram of the 6,275-string master:");
    let lengths: Vec<usize> = master.iter().map(|(_, p)| p.len()).collect();
    for (len, count) in LengthDistribution::figure6_histogram(&lengths) {
        if count > 0 {
            println!("  len {:>3}{}: {:>4} {}", len, if len == 50 { "+" } else { " " }, count, "#".repeat(count / 8));
        }
    }
}

/// Table I: resource utilization.
fn table1() {
    println!("resource utilization (Table I)\n");
    println!(
        "{}{}{}fmax",
        cell("device", 12),
        cell("logic model (paper)", 36),
        cell("M9K model (paper)", 22),
    );
    for (device, (p_logic, p_logic_t, p_m9k, p_m9k_t, p_mhz)) in [
        (FpgaDevice::cyclone3(), {
            let r = paper::TABLE1[0];
            (r.1, r.2, r.3, r.4, r.5)
        }),
        (FpgaDevice::stratix3(), {
            let r = paper::TABLE1[1];
            (r.1, r.2, r.3, r.4, r.5)
        }),
    ] {
        let m = ResourceReport::for_device(&device);
        println!(
            "{}{}{}{:.2} MHz",
            cell(&m.device, 12),
            cell(
                &format!(
                    "{} ({}/{})",
                    m.logic_cell(),
                    thousands(p_logic),
                    thousands(p_logic_t)
                ),
                36
            ),
            cell(&format!("{} ({p_m9k}/{p_m9k_t})", m.m9k_cell()), 22),
            p_mhz
        );
    }
    println!("\nM9K model: 9·⌈words/256⌉ state + 6 match + 2 LUT-compare + 3 LUT-target per block");
}

/// Table II: transition-pointer reduction, memory and throughput.
fn table2() {
    println!("reduction in transition pointers (Table II)\n");
    println!(
        "{}{}{}{}{}{}{}{}{}Gbps",
        cell("ruleset", 9),
        cell("device", 10),
        cell("blocks", 7),
        cell("states", 8),
        cell("orig avg", 9),
        cell("d1/d1+2/d1+2+3", 16),
        cell("avg d3", 7),
        cell("reduction", 10),
        cell("mem bytes", 11),
    );
    let master = master_ruleset();
    for col in paper::TABLE2 {
        let device = if col.device == "Stratix 3" {
            FpgaDevice::stratix3()
        } else {
            FpgaDevice::cyclone3()
        };
        let set = if col.strings == 6275 {
            master.clone()
        } else {
            let which = PaperRuleset::ALL
                .into_iter()
                .find(|w| w.size() == col.strings)
                .expect("paper size");
            paper_ruleset(which)
        };
        // Paper row first.
        println!(
            "{}{}{}{}{}{}{}{}{}{}",
            cell(&col.strings.to_string(), 9),
            cell(col.device, 10),
            cell(&format!("{} (paper)", col.blocks), 15),
            cell(&thousands(col.states), 8),
            cell(&format!("{:.2}", col.original_avg), 9),
            cell(
                &format!("{}/{}/{}", col.d1, col.d1_d2, col.d1_d2_d3),
                16
            ),
            cell(&format!("{:.2}", col.avg_d3), 7),
            cell(&format!("{:.1}%", col.reduction_pct), 10),
            cell(&thousands(col.mem_bytes), 11),
            col.gbps,
        );
        match plan(&set, &device) {
            Ok(p) => {
                // The paper's "Original Aho-Corasick" block describes the
                // *unsplit* automaton, and its "Reduction" row compares the
                // split averages against that unsplit baseline (e.g.
                // 1.18 vs 85.00 = 98.6% for 2588 strings on the Cyclone).
                let unsplit = dpi_automaton::DfaStats::compute(&Dfa::build(&set));
                let reduction = 1.0 - p.reduction.avg_after.2 / unsplit.avg_pointers;
                println!(
                    "{}{}{}{}{}{}{}{}{}{:.1}",
                    cell("", 9),
                    cell("", 10),
                    cell(&format!("{} (ours) ", p.group_size), 15),
                    cell(&thousands(p.reduction.total_states), 8),
                    cell(&format!("{:.2}", unsplit.avg_pointers), 9),
                    cell(
                        &format!(
                            "{}/{}/{}",
                            p.reduction.entries.0, p.reduction.entries.1, p.reduction.entries.2
                        ),
                        16
                    ),
                    cell(&format!("{:.2}", p.reduction.avg_after.2), 7),
                    cell(&format!("{:.1}%", reduction * 100.0), 10),
                    cell(&thousands(p.memory_bytes), 11),
                    p.throughput_bps / 1e9,
                );
            }
            Err(e) => println!("          (ours) does not fit: {e}"),
        }
    }
}

/// Table III: comparison against the Tuck et al. baselines.
fn table3() {
    println!("performance comparison on the 19,124-character ruleset (Table III)\n");
    let set = table3_ruleset();
    println!(
        "ruleset: {} strings, {} characters\n",
        set.len(),
        set.total_bytes()
    );
    println!(
        "{}{}{}throughput",
        cell("approach", 26),
        cell("device", 11),
        cell("memory bytes", 22),
    );
    for (approach, device, p_mem, p_gbps) in paper::TABLE3 {
        let (m_mem, m_gbps): (Option<usize>, Option<f64>) = match (approach, device) {
            ("Our method", "Cyclone 3") => {
                let p = plan(&set, &FpgaDevice::cyclone3()).expect("fits");
                (Some(p.memory_bytes), Some(p.throughput_bps / 1e9))
            }
            ("Our method", "Stratix 3") => {
                let p = plan(&set, &FpgaDevice::stratix3()).expect("fits");
                (Some(p.memory_bytes), Some(p.throughput_bps / 1e9))
            }
            ("Bitmap [13]", _) => (Some(BitmapAc::build(&set).memory_bytes()), None),
            _ => (Some(PathAc::build(&set).memory_bytes()), None),
        };
        println!(
            "{}{}{}{}",
            cell(approach, 26),
            cell(device, 11),
            cell(
                &format!(
                    "{} ({} ours)",
                    thousands(p_mem),
                    m_mem.map(thousands).unwrap_or_default()
                ),
                32
            ),
            match m_gbps {
                Some(g) => format!("{p_gbps} Gbps ({g:.1} ours)"),
                None => format!("{p_gbps} Gbps (fail-pointer bound, see `adversarial`)"),
            }
        );
    }
    let ours = plan(&set, &FpgaDevice::stratix3()).expect("fits").memory_bytes;
    let bitmap = BitmapAc::build(&set).memory_bytes();
    let path = PathAc::build(&set).memory_bytes();
    println!(
        "\nmemory ratios vs our method:\n  bitmap          {:>5.1}x measured reimplementation, {:>5.1}x using [13]'s published bytes (paper: 20x)\n  path compression{:>5.1}x measured reimplementation, {:>5.1}x using [13]'s published bytes (paper: 8x)",
        bitmap as f64 / ours as f64,
        2_800_000.0 / ours as f64,
        path as f64 / ours as f64,
        1_100_000.0 / ours as f64,
    );
    println!(
        "(our Tuck reimplementation is leaner than the original ASIC layout —\n fixed-size node records and match bitmaps are not modeled — so the\n measured ratios understate the published ones; direction is preserved)"
    );
}

fn power_figure(device: FpgaDevice, rulesets: &[PaperRuleset], max_w: f64) {
    let model = PowerModel::for_device(&device);
    println!(
        "power/throughput sweep, {} (paper max {:.2} W; model {:.2} W)\n",
        device.family,
        max_w,
        model.power_w(device.fmax_hz)
    );
    let master = master_ruleset();
    for &which in rulesets {
        let set = if which == PaperRuleset::S6275 {
            master.clone()
        } else {
            paper_ruleset(which)
        };
        match plan(&set, &device) {
            Ok(p) => {
                let curve = model.sweep(device.fmax_hz, p.group_size, 8);
                print!("{} (g={}): ", which, p.group_size);
                for pt in curve {
                    print!("({:.2}W,{:.1}G) ", pt.power_w, pt.throughput_bps / 1e9);
                }
                println!();
            }
            Err(e) => println!("{which}: does not fit ({e})"),
        }
    }
}

/// Figure 7: power vs throughput on the Cyclone 3.
fn fig7() {
    power_figure(
        FpgaDevice::cyclone3(),
        &PaperRuleset::CYCLONE3,
        paper::FIG7_CYCLONE_MAX_W,
    );
}

/// Figure 8: power vs throughput on the Stratix 3.
fn fig8() {
    power_figure(
        FpgaDevice::stratix3(),
        &PaperRuleset::STRATIX3,
        paper::FIG8_STRATIX_MAX_W,
    );
}

/// §III.B ablation: "We found through testing of strings used in the Snort
/// ruleset that 4 was the optimum value" for depth-2 defaults per char.
fn ablation_k2() {
    let set = paper_ruleset(PaperRuleset::S634);
    println!("depth-2 default count (k2) ablation, 634-string ruleset\n");
    println!(
        "{}{}{}LUT compare bits/row (1 + 8*k2 + 16)",
        cell("k2", 5),
        cell("LUT entries", 12),
        cell("avg ptrs", 10),
    );
    for k2 in [0usize, 1, 2, 4, 8, 16] {
        let cfg = DtpConfig {
            depth1: true,
            k2,
            k3: 1,
        };
        let r = ReductionReport::compute(&set, cfg);
        println!(
            "{}{}{}{}",
            cell(&k2.to_string(), 5),
            cell(&r.d1_d2_d3_entries.to_string(), 12),
            cell(&format!("{:.3}", r.avg_after_d3), 10),
            17 + 8 * k2,
        );
    }
    println!("\npast k2 = 4 the pointer average barely moves while the row widens:");
    println!("the paper's 49-bit row (k2 = 4) is the knee.");
}

/// Extension: share identical match lists in the match-number memory.
///
/// Suffix closure repeats the same output list at many states; interning
/// one copy slashes match-memory pressure — the constraint the `m144k`
/// experiment shows binding on the master ruleset — at zero hardware cost
/// (the match field already stores an arbitrary word address).
fn match_sharing() {
    use dpi_fpga::{plan_with_options, PlanOptions};
    println!("match-list sharing extension (beyond the paper)\n");
    let master = master_ruleset();
    for (label, device) in [
        ("Stratix 3        ", FpgaDevice::stratix3()),
        ("Stratix 3 + M144K", FpgaDevice::stratix3().with_m144k()),
    ] {
        for shared in [false, true] {
            let options = PlanOptions {
                shared_match_lists: shared,
                ..PlanOptions::default()
            };
            match plan_with_options(&master, &device, options) {
                Ok(p) => {
                    let hw = p
                        .blocks
                        .iter()
                        .map(|b| b.memory.match_words_used)
                        .max()
                        .unwrap_or(0);
                    println!(
                        "{label} {}: group size {}, {:.1} Gbps, match-mem high water {hw}/2048",
                        if shared { "shared " } else { "private" },
                        p.group_size,
                        p.throughput_bps / 1e9,
                    );
                }
                Err(e) => println!("{label} {}: {e}", if shared { "shared" } else { "private" }),
            }
        }
    }
    println!(
        "\n(sharing cuts the match-memory high water ~16% and drops the group\n size from 5 to 4 blocks — freeing two device blocks for a second\n ruleset; throughput is unchanged because both sizes yield one group.\n The residual constraint is per-block *state* words, which sharing\n cannot touch)"
    );
}

/// What-if ablation: would depth-4 default pointers pay?
///
/// The paper stops the default hierarchy at depth 3. Extending it would
/// cost 24 more compare bits per row (three preceding bytes) and another
/// 256 target entries; this experiment counts how many stored pointers a
/// top-1-per-character depth-4 default would actually remove.
fn ablation_depth() {
    use dpi_core::ReducedAutomaton;
    let set = paper_ruleset(PaperRuleset::S634);
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    // Count stored pointers by target depth, and the best-case removal a
    // depth-4 default could achieve (top-1 per character value).
    let mut by_depth: std::collections::BTreeMap<u16, usize> = Default::default();
    let mut d4_indegree: std::collections::HashMap<(u8, u32), usize> = Default::default();
    for s in reduced.state_ids() {
        for &(c, t) in reduced.stored(s) {
            *by_depth.entry(reduced.depth(t).min(7)).or_default() += 1;
            if reduced.depth(t) == 4 {
                *d4_indegree.entry((c, t.0)).or_default() += 1;
            }
        }
    }
    // Top-1 per character value.
    let mut best_per_char: std::collections::HashMap<u8, usize> = Default::default();
    for (&(c, _), &n) in &d4_indegree {
        let e = best_per_char.entry(c).or_default();
        *e = (*e).max(n);
    }
    let removable: usize = best_per_char.values().sum();
    let total = reduced.stored_pointers();
    println!("stored-pointer census by target depth, 634-string ruleset\n");
    for (depth, count) in &by_depth {
        println!(
            "  depth {}{}: {count} stored pointers ({:.1}%)",
            depth,
            if *depth == 7 { "+" } else { "" },
            *count as f64 / total as f64 * 100.0
        );
    }
    println!(
        "\na depth-4 default (top-1 per character, +24 compare bits/row, 73-bit\nrows) would remove {removable} of {total} stored pointers ({:.1}%) —\ndiminishing returns justify the paper stopping at depth 3",
        removable as f64 / total as f64 * 100.0
    );
}

/// §V.D extension: spend the M144K blocks to double block memory.
///
/// The paper predicts this "would allow the number of strings which could
/// be searched to grow". The experiment deploys a 12,000-string ruleset
/// that exceeds the base device and fits the extended one — and also
/// surfaces a constraint the paper does not discuss: for the 6,275-string
/// set, the fixed 2,048-word *match-number* memory binds before state
/// memory does, so doubling state words alone cannot reduce the group
/// size there.
fn m144k() {
    let base = FpgaDevice::stratix3();
    let doubled = FpgaDevice::stratix3().with_m144k();
    println!("M144K extension (§V.D): doubling per-block state memory\n");
    // Long-string ruleset: same string count as the master, twice the
    // length — state words, not string numbers, become the constraint.
    let big = dpi_rulesets::RulesetGenerator::new()
        .with_distribution(LengthDistribution::paper_figure6().scale_lengths(1.8))
        .generate(6_275);
    println!(
        "capacity: a {}-string long-string ruleset ({} chars)",
        big.len(),
        thousands(big.total_bytes())
    );
    for (label, device) in [("  base (M9K only)", &base), ("  with M144K     ", &doubled)] {
        match plan(&big, device) {
            Ok(p) => println!(
                "{label}: fits — group size {}, throughput {:.1} Gbps",
                p.group_size,
                p.throughput_bps / 1e9
            ),
            Err(e) => println!("{label}: {e}"),
        }
    }
    println!("\nthroughput: the 6,275-string master");
    let master = master_ruleset();
    for (label, device) in [("  base (M9K only)", &base), ("  with M144K     ", &doubled)] {
        match plan(&master, device) {
            Ok(p) => println!(
                "{label}: group size {}, throughput {:.1} Gbps, match-mem high water {} of 2048 words",
                p.group_size,
                p.throughput_bps / 1e9,
                p.blocks
                    .iter()
                    .map(|b| b.memory.match_words_used)
                    .max()
                    .unwrap_or(0)
            ),
            Err(e) => println!("{label}: {e}"),
        }
    }
    println!(
        "(group size is unchanged on the master: the fixed 2,048-word match\n memory — not state memory — is the binding constraint, a limit the\n paper's §V.D projection does not account for)"
    );
}

/// §VI future work: project the architecture onto a 65 nm ASIC and put it
/// beside the Tuck et al. ASIC numbers of Table III (projection, not
/// measurement — every constant is documented in `dpi_fpga::AsicModel`).
fn asic() {
    use dpi_fpga::{AsicModel, AsicReport};
    let model = AsicModel::tsmc65();
    println!(
        "65 nm ASIC projection (paper §VI future work); clock {:.0} MHz\n",
        model.fmax_hz / 1e6
    );
    // Our architecture sized for the Table III ruleset: one block's
    // memories (state words used on that ruleset + fixed memories).
    let set = table3_ruleset();
    let dfa = Dfa::build(&set);
    let reduced = dpi_core::ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let image = dpi_hw::HwImage::build(&reduced).expect("fits");
    let stats = image.stats();
    let bits_per_block =
        stats.state_bits + stats.match_bits + stats.lut_compare_bits + stats.lut_target_bits;
    println!(
        "{}{}{}peak Gbps",
        cell("design", 28),
        cell("memory bits", 13),
        cell("area mm2", 10),
    );
    for (label, blocks) in [("ours, 1 block", 1usize), ("ours, 6 blocks", 6)] {
        let r = AsicReport::project(label, &model, blocks, bits_per_block);
        println!(
            "{}{}{}{:.1}",
            cell(label, 28),
            cell(&thousands(r.memory_bits), 13),
            cell(&format!("{:.2}", r.area_mm2), 10),
            r.throughput_bps / 1e9
        );
    }
    // The baselines' published memory footprints on the same model (their
    // papers report bytes; throughput stays fail-pointer-bound).
    for (label, bytes) in [("bitmap [13] (published)", 2_800_000usize), ("path comp. [13] (published)", 1_100_000)] {
        let bits = bytes * 8;
        println!(
            "{}{}{}input-dependent (fail pointers)",
            cell(label, 28),
            cell(&thousands(bits), 13),
            cell(&format!("{:.2}", model.area_mm2(1, bits)), 10),
        );
    }
    let stratix = FpgaDevice::stratix3();
    println!(
        "\nprojected power, 6 blocks at full clock: {:.1} W (FPGA: 13.28 W)",
        model.power_w(&stratix, 6)
    );
}

/// The guaranteed-throughput experiment (§I / §II claims).
fn adversarial() {
    let set = dpi_rulesets::extract_preserving(&master_ruleset(), 400, 0xADE);
    let nfa = Nfa::build(&set);
    let bitmap = BitmapAc::build(&set);
    let path = PathAc::build(&set);
    let crafted = adversarial_payload(&set, 8192);
    let benign = TrafficGenerator::new(3).clean_packet(8192).payload;
    println!("state lookups per byte (1.0 = the guaranteed floor)\n");
    println!(
        "{}{}{}worst byte",
        cell("matcher", 28),
        cell("benign", 9),
        cell("crafted", 9),
    );
    let nm = NfaMatcher::new(&nfa, &set);
    let rows: [(&str, dpi_automaton::CountedScan, dpi_automaton::CountedScan); 1] = [(
        "AC + fail pointers",
        nm.scan_counting(&benign),
        nm.scan_counting(&crafted),
    )];
    for (name, b, a) in rows {
        println!(
            "{}{}{}{}",
            cell(name, 28),
            cell(&format!("{:.3}", b.lookups as f64 / benign.len() as f64), 9),
            cell(&format!("{:.3}", a.lookups as f64 / crafted.len() as f64), 9),
            a.max_lookups_per_byte
        );
    }
    let b = bitmap.scan_counting(&set, &benign);
    let a = bitmap.scan_counting(&set, &crafted);
    println!(
        "{}{}{}{}",
        cell("bitmap AC [13]", 28),
        cell(&format!("{:.3}", b.lookups as f64 / benign.len() as f64), 9),
        cell(&format!("{:.3}", a.lookups as f64 / crafted.len() as f64), 9),
        a.max_lookups_per_byte
    );
    let b = path.scan_counting(&set, &benign);
    let a = path.scan_counting(&set, &crafted);
    println!(
        "{}{}{}{}",
        cell("path compression [13]", 28),
        cell(&format!("{:.3}", b.lookups as f64 / benign.len() as f64), 9),
        cell(&format!("{:.3}", a.lookups as f64 / crafted.len() as f64), 9),
        a.max_lookups_per_byte
    );
    println!(
        "{}{}{}{}",
        cell("this paper (no fail ptrs)", 28),
        cell("1.000", 9),
        cell("1.000", 9),
        1
    );

    // Second round on a self-overlap-heavy ruleset (NOP sleds): the fail
    // chains are as deep as the sled, so crafted traffic costs tens of
    // lookups on single bytes.
    let mut sleds: Vec<Vec<u8>> = (2..=32).map(|k| vec![0x90u8; k]).collect();
    sleds.push(b"attack".to_vec());
    let set = PatternSet::new(&sleds).expect("valid sled set");
    let nfa = Nfa::build(&set);
    let nm = NfaMatcher::new(&nfa, &set);
    let crafted = adversarial_payload(&set, 4096);
    let benign = TrafficGenerator::new(5).clean_packet(4096).payload;
    let b = nm.scan_counting(&benign);
    let a = nm.scan_counting(&crafted);
    println!("\nNOP-sled ruleset (31 overlapping sleds), AC + fail pointers:");
    println!(
        "  benign {:.3}, crafted {:.3} lookups/byte; worst single byte: {} lookups",
        b.lookups as f64 / benign.len() as f64,
        a.lookups as f64 / crafted.len() as f64,
        a.max_lookups_per_byte
    );
    println!("  this paper: still exactly 1.000 lookups/byte, worst byte 1");
}

/// Warm-up plus best-of-`reps` timing of one scan closure. Returns
/// `(best_seconds, matches)`. Shared by every throughput experiment —
/// the per-run *best* filters scheduler noise on shared hardware.
fn best_secs(reps: usize, mut scan: impl FnMut() -> usize) -> (f64, usize) {
    use std::time::Instant;
    let mut matches = scan(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        matches = scan();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, matches)
}

/// [`best_secs`] for scans that are compared with each other: after one
/// warm-up each, every round times every scan once, in order, and each
/// keeps its best — so slow clock drift (thermal throttling, noisy
/// neighbors) hits all sides equally instead of biasing whichever ran
/// last. Returns each scan's `(best_seconds, matches)`.
fn interleaved_best<const N: usize>(
    reps: usize,
    mut scans: [&mut dyn FnMut() -> usize; N],
) -> [(f64, usize); N] {
    use std::time::Instant;
    let mut best = scans.each_mut().map(|scan| (f64::INFINITY, scan())); // warm-up
    for _ in 0..reps {
        for (scan, (secs, matches)) in scans.iter_mut().zip(best.iter_mut()) {
            let start = Instant::now();
            *matches = scan();
            *secs = secs.min(start.elapsed().as_secs_f64());
        }
    }
    best
}

/// One measured on/off A/B pair, shared by every experiment that
/// compares a fast-path switch against its baseline (`sw-throughput`,
/// `sw-throughput-clean`, `sw-throughput-stride`): the two scans time
/// in alternating rounds ([`interleaved_best`]).
struct AbRow {
    off_secs: f64,
    on_secs: f64,
    matches: usize,
}

impl AbRow {
    fn speedup(&self) -> f64 {
        self.off_secs / self.on_secs
    }
}

/// Times `off` vs `on` interleaved (best of `reps`), asserts both sides
/// agree on the match count, and emits `{id}-off` / `{id}-on`
/// BENCH_JSON rows over `payload_len` bytes.
fn ab_bench_row(
    id: &str,
    payload_len: usize,
    reps: usize,
    mut off: impl FnMut() -> usize,
    mut on: impl FnMut() -> usize,
) -> AbRow {
    let [(off_best, off_matches), (on_best, on_matches)] =
        interleaved_best(reps, [&mut off, &mut on]);
    assert_eq!(
        on_matches, off_matches,
        "fast-path switch must be scan-invisible ({id})"
    );
    dpi_bench::bench_json_row(&format!("{id}-off"), off_best * 1e9, payload_len as u64);
    dpi_bench::bench_json_row(&format!("{id}-on"), on_best * 1e9, payload_len as u64);
    AbRow {
        off_secs: off_best,
        on_secs: on_best,
        matches: on_matches,
    }
}

/// Software scan throughput: reference scanners vs the compiled
/// flat-memory engine (`dpi_core::compiled`).
///
/// The hardware tables measure the FPGA; this experiment measures the
/// *software* fast path the workspace ships for hosts without an
/// accelerator, and records the speedup of compiling the reduced
/// automaton into CSR/branch-free form.
fn sw_throughput() {
    use dpi_automaton::{AnchorSet, DfaMatcher, Match, MultiMatcher, PairTable};
    use dpi_core::{CompiledAutomaton, CompiledMatcher, DtpMatcher};

    const PAYLOAD: usize = 1 << 20;
    let set = dpi_rulesets::extract_preserving(&master_ruleset(), 300, 42);
    let dfa = Dfa::build(&set);
    let reduced = dpi_core::ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    // The deployed lane stack, as `ShardedConfig` compiles every shard:
    // the anchor lane plus the region pair rows where they attach.
    let pairs = PairTable::build(&dfa, &set, &anchors);
    let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs);
    let mut gen = TrafficGenerator::new(99);
    let payload = gen.infected_packet(PAYLOAD, &set, 64).payload;

    println!("software scan throughput, 300-string ruleset, 1 MiB infected payload\n");
    println!(
        "{}{}{}matches",
        cell("scanner", 22),
        cell("MB/s", 12),
        cell("vs dtp", 9),
    );

    let dtp = DtpMatcher::new(&reduced, &set);
    let (dtp_secs, dtp_matches) = best_secs(5, || dtp.find_all(&payload).len());

    let full = DfaMatcher::new(&dfa, &set);
    let (dfa_secs, dfa_matches) = best_secs(5, || full.find_all(&payload).len());

    let fast = CompiledMatcher::new(&compiled, &set);
    let mut buf: Vec<Match> = Vec::with_capacity(256);
    let (fast_secs, fast_matches) = best_secs(5, || {
        fast.scan_into(&payload, &mut buf);
        buf.len()
    });

    let rows = [
        ("dtp (reference)", "dtp", dtp_secs, dtp_matches),
        ("full_dfa", "full_dfa", dfa_secs, dfa_matches),
        ("compiled", "compiled", fast_secs, fast_matches),
    ];
    for (name, id, secs, matches) in &rows {
        dpi_bench::bench_json_row(
            &format!("sw-throughput/{id}"),
            secs * 1e9,
            PAYLOAD as u64,
        );
        println!(
            "{}{}{}{}",
            cell(name, 22),
            cell(&format!("{:.0}", PAYLOAD as f64 / secs / 1e6), 12),
            cell(&format!("{:.2}x", dtp_secs / secs), 9),
            matches
        );
    }
    assert_eq!(dtp_matches, fast_matches, "scanners must agree to be comparable");
    println!(
        "\n(compiled speedup: CSR flat layout, stride-specialized branch-free\n LUT resolution, accept bits folded into transition words, buffer\n reuse, the anchor-byte skip lane over the payload's clean majority\n (A/B in `sw-throughput-clean`), and the region pair rows' stride-2\n walk over the lane's danger bytes (A/B in `sw-throughput-stride`).\n full_dfa trades ~26x the memory for a plain scan the compiled path\n overtakes)"
    );
}

/// Clean-traffic fast lane: the anchor-byte SWAR prefilter A/B.
///
/// The throughput rows above measure *infected* payloads — the workload
/// the automaton exists for, but not the workload it mostly sees. Real
/// DPI traffic is overwhelmingly clean: the scanner sits in the start
/// state's neighborhood for almost every byte. The prefilter
/// (`dpi_automaton::AnchorSet` + the compiled engine's skip lane)
/// fast-forwards through bytes that provably cannot advance the
/// automaton out of that neighborhood, and this experiment measures what
/// that is worth — per ruleset size, on clean and infected payloads,
/// prefilter on vs off (identical matches asserted for every pairing).
///
/// BENCH_JSON rows are emitted for every row printed.
fn sw_throughput_clean() {
    use dpi_automaton::{AnchorSet, Match};
    use dpi_core::{CompiledAutomaton, CompiledMatcher};

    const PAYLOAD: usize = 1 << 20;

    println!("anchor-byte SWAR prefilter, 1 MiB payloads, on/off A/B\n");
    println!(
        "{}{}{}{}{}matches",
        cell("workload", 18),
        cell("off MB/s", 10),
        cell("on MB/s", 10),
        cell("speedup", 9),
        cell("lane?", 7),
    );
    let master = master_ruleset();
    let mut clean_speedups: Vec<f64> = Vec::new();
    for (label, set) in [
        ("300", dpi_rulesets::extract_preserving(&master, 300, 42)),
        ("6275", master.clone()),
    ] {
        let dfa = Dfa::build(&set);
        let reduced = dpi_core::ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
        let anchor_note = format!(
            "[{label}] {} skippable bytes, {} pair exits, {} B tables",
            anchors.skippable_bytes(),
            anchors.pair_count(),
            anchors.memory_bytes()
        );
        // Off: the same reduced automaton compiled without anchors.
        let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, None);
        let bare = CompiledAutomaton::compile(&reduced);
        let mut gen = TrafficGenerator::new(0xC1EA);
        let clean = gen.clean_packet(PAYLOAD).payload;
        let infected = gen.infected_packet(PAYLOAD, &set, 64).payload;
        let on = CompiledMatcher::new(&compiled, &set);
        let off = CompiledMatcher::new(&bare, &set);
        let mut buf: Vec<Match> = Vec::with_capacity(1024);
        for (traffic, payload) in [("clean", &clean), ("infected", &infected)] {
            let mut buf2: Vec<Match> = Vec::with_capacity(1024);
            let row = ab_bench_row(
                &format!("sw-throughput-clean/{label}-{traffic}"),
                PAYLOAD,
                7,
                || {
                    off.scan_into(payload, &mut buf);
                    buf.len()
                },
                || {
                    on.scan_into(payload, &mut buf2);
                    buf2.len()
                },
            );
            if traffic == "clean" {
                clean_speedups.push(row.speedup());
            }
            println!(
                "{}{}{}{}{}{}",
                cell(&format!("[{label}] {traffic}"), 18),
                cell(&format!("{:.0}", PAYLOAD as f64 / row.off_secs / 1e6), 10),
                cell(&format!("{:.0}", PAYLOAD as f64 / row.on_secs / 1e6), 10),
                cell(&format!("{:.2}x", row.speedup()), 9),
                cell("yes", 7),
                row.matches
            );
        }
        println!("{anchor_note}");
    }
    // The design target is >=2x on clean payloads at both ruleset sizes
    // (measured 2.1-3.7x on the reference container). The hard floor
    // sits below the target so ordinary hardware/noise variance cannot
    // flake CI — a measurement under it means the lane actually broke.
    for s in &clean_speedups {
        assert!(
            *s >= 1.7,
            "clean-traffic prefilter speedup {s:.2}x collapsed (target 2x, floor 1.7x)"
        );
        if *s < 2.0 {
            eprintln!("warning: clean speedup {s:.2}x below the 2x target on this host");
        }
    }
    println!(
        "\n(the lane consumes every byte the automaton provably stays shallow\n on: skippable runs advance 8 bytes per SWAR iteration, candidate\n anchors resolve through the 8 KiB pair table without touching the\n automaton arenas, and only pair-completing bytes wake the stepper.\n infected payloads are clean background plus 64 occurrences, so the\n lane wins there too — the off column is the pre-lane baseline)"
    );
}

/// SIMD scan lane: the `simd` feature's on/off A/B
/// (`dpi_automaton::simd` + the compiled engine's vector danger walk).
///
/// Interleaved A/B pairs per ruleset size, both sides the same matcher
/// with only [`dpi_core::CompiledMatcher::with_simd`] flipped — so every
/// pair isolates exactly one kernel:
///
/// - **window** (anchors only, no pair table): the scalar danger walk vs
///   the 16/32-byte nibble-box vector walk on generator traffic. These
///   rows are *exit-bound*: on generator clean traffic at 300 rules a
///   danger byte lands every ~51 bytes on average (median lane span is
///   just 13 bytes), so per-exit stepper/rebuild costs dominate and
///   Amdahl caps any lane kernel at ~1.1-1.2x — the rows assert
///   no-regression, not the 2x target;
/// - **window-laneclean** (300 rules only): a deterministic exit-free
///   clean payload (bytes that are non-skippable — defeating the SWAR
///   skip window — and never danger under any history). This isolates
///   the lane walk itself, which is the thing the `simd` feature
///   rebuilds, and carries the >=2x assertion;
/// - **stack** (anchors plus the region pair rows where they attach,
///   the deployed stack): the full lane stack with the vector danger
///   walk in the prefilter lane. No rows attach at 6,275 rules, so
///   there the stack is the window lane again.
///
/// Requires the `simd` cargo feature; prints a note and emits no rows
/// otherwise, so the portable bench pipeline is unaffected.
fn sw_throughput_simd() {
    use dpi_automaton::{AnchorSet, Match, PairTable};
    use dpi_core::{CompiledAutomaton, CompiledMatcher};

    const PAYLOAD: usize = 1 << 20;

    if !dpi_automaton::simd_available() {
        println!(
            "simd kernels unavailable (built without `--features simd`, non-x86_64,\nor no SSSE3 on this CPU) — nothing to A/B; skipping.\n\n  cargo run --release --features simd -p dpi-bench --bin repro -- sw-throughput-simd"
        );
        return;
    }

    println!("simd scan lane (nibble-split shuffle danger walk), 1 MiB payloads, on/off A/B\n");
    println!(
        "{}{}{}{}{}matches",
        cell("workload", 26),
        cell("off MB/s", 10),
        cell("on MB/s", 10),
        cell("speedup", 9),
        cell("kernel", 10),
    );
    let master = master_ruleset();
    let mut window_speedups: Vec<(String, String, f64)> = Vec::new();
    for (label, set) in [
        ("300", dpi_rulesets::extract_preserving(&master, 300, 42)),
        ("6275", master.clone()),
    ] {
        let dfa = Dfa::build(&set);
        let reduced = dpi_core::ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
        let pairs = PairTable::build(&dfa, &set, &anchors);
        // Exit-free clean payload: bytes the SWAR skip window cannot
        // skip, yet which never raise danger under any history —
        // the lane consumes them wholesale in both builds, zero
        // matches, zero lane exits. The pair must also be unflagged by
        // the nibble-box cover so the vector walk stays on its
        // consume path (the cover false-flags ~11% of keys; this row
        // measures the walk on the ~89% clean-key majority, which is
        // the regime the cover's profitability gate guarantees).
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        let cover_clean = |x: u8, y: u8| {
            anchors.simd_danger().is_none_or(|cov| {
                !cov.model_flags(x, y) && !cov.model_flags(y, x)
            })
        };
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        let cover_clean = |_x: u8, _y: u8| true;
        let lane_ok = |b: u8| {
            !anchors.is_skippable(b) && !(0..=256u32).any(|p| anchors.is_danger(p, b))
        };
        let lane_pair = (0..=255u8)
            .flat_map(|x| (x..=255u8).map(move |y| (x, y)))
            .find(|&(x, y)| lane_ok(x) && lane_ok(y) && cover_clean(x, y));
        let laneclean: Option<Vec<u8>> = lane_pair.map(|(x, y)| {
            (0..PAYLOAD)
                .map(|i| if i % 2 == 0 { x } else { y })
                .collect()
        });
        let lane = CompiledAutomaton::compile_with_prefilter(&reduced, anchors.clone(), None);
        let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs);
        let mut gen = TrafficGenerator::new(0x51D0);
        let clean = gen.clean_packet(PAYLOAD).payload;
        let infected = gen.infected_packet(PAYLOAD, &set, 64).payload;
        // Realistic long-span traffic: a TLS session (handshake +
        // uniform-byte records). Like generator clean traffic it is
        // exit-bound for the lane, so the row asserts no-regression,
        // not the exit-free 2x — an honest number for the traffic mix
        // the two-stage experiment runs on.
        let tls = TrafficGenerator::new(0x715_0DD).tls_stream(PAYLOAD).payload;

        // (configuration, kernel isolated, traffic) per A/B pair.
        let window_on = CompiledMatcher::new(&lane, &set);
        let window_off = window_on.clone().with_simd(false);
        let stack_on = CompiledMatcher::new(&compiled, &set);
        let stack_off = stack_on.clone().with_simd(false);
        assert!(
            window_on.simd() && stack_on.simd(),
            "simd_available() implies matcher tokens"
        );

        let mut rows: Vec<(&str, &CompiledMatcher, &CompiledMatcher, &Vec<u8>, &str)> = vec![
            ("window-clean", &window_off, &window_on, &clean, "shuffle"),
            ("window-tls", &window_off, &window_on, &tls, "shuffle"),
            ("window-infected", &window_off, &window_on, &infected, "shuffle"),
            ("stack-clean", &stack_off, &stack_on, &clean, "shuffle"),
        ];
        if let Some(laneclean) = laneclean.as_ref() {
            if label == "300" {
                rows.insert(
                    1,
                    ("window-laneclean", &window_off, &window_on, laneclean, "shuffle"),
                );
            }
        }
        for (kind, off, on, payload, kernel) in rows {
            let mut buf: Vec<Match> = Vec::with_capacity(1024);
            let mut buf2: Vec<Match> = Vec::with_capacity(1024);
            let row = ab_bench_row(
                &format!("sw-throughput-simd/{label}-{kind}"),
                PAYLOAD,
                7,
                || {
                    off.scan_into(payload, &mut buf);
                    buf.len()
                },
                || {
                    on.scan_into(payload, &mut buf2);
                    buf2.len()
                },
            );
            if kind == "window-clean" || kind == "window-laneclean" || kind == "window-tls" {
                window_speedups.push((label.to_string(), kind.to_string(), row.speedup()));
            }
            println!(
                "{}{}{}{}{}{}",
                cell(&format!("[{label}] {kind}"), 26),
                cell(&format!("{:.0}", PAYLOAD as f64 / row.off_secs / 1e6), 10),
                cell(&format!("{:.0}", PAYLOAD as f64 / row.on_secs / 1e6), 10),
                cell(&format!("{:.2}x", row.speedup()), 9),
                cell(kernel, 10),
                row.matches
            );
        }
    }
    // The >=2x-over-the-scalar-SWAR-window target is asserted on the
    // exit-free laneclean row, where the lane walk is the whole cost
    // (measured ~7x here). Generator-traffic and TLS window rows are
    // exit-bound — a danger byte every ~51 bytes, median lane span 13,
    // ~19k lane exits per MiB — so per-exit stepper/rebuild costs cap
    // any lane kernel near parity; they assert no-regression only.
    // Floors sit below targets so hardware/noise variance cannot flake
    // CI — under them the vector walk actually broke.
    for (label, kind, s) in &window_speedups {
        if kind == "window-laneclean" {
            assert!(
                *s >= 2.0,
                "[{label}] simd lane-walk speedup {s:.2}x lost the exit-free 2x target"
            );
        } else {
            assert!(
                *s >= 0.85,
                "[{label}] simd window speedup {s:.2}x regressed on generator traffic (floor 0.85x)"
            );
        }
    }
    assert!(
        window_speedups.iter().any(|(_, k, _)| k == "window-laneclean"),
        "no exit-free byte pair at 300 rules — laneclean row missing"
    );
    println!(
        "\n(window rows run the vector danger walk — nibble-box pshufb cover of\n the (prev, byte) danger relation, 16/32 bytes per probe, flagged\n positions re-checked against the exact bitmap — against the scalar\n per-byte danger walk. generator-traffic rows are exit-bound (median\n lane span 13 bytes at 300 rules) and assert no-regression; the\n laneclean row is exit-free and carries the 2x target. matches are\n asserted identical for every pairing — the lane is scan-invisible)"
    );
}

/// Stride-2 region pair rows: the on/off A/B of the calm and follow
/// bitmaps composed with the anchor lane (`dpi_automaton::PairTable` +
/// the compiled engine's stride-2 lane).
///
/// Both sides run the anchor lane; the switch isolates the region rows
/// (the stride-2 calm/follow walk and calm-quad windows). Rows are
/// measured whole-payload (the payload streams through the cache) and
/// cache-warm (a 256 KiB slice rescanned, the per-core-shard regime) —
/// the rows' benefit is cache-residency-dependent, and both numbers are
/// the truth. A ruleset whose calm density sits below
/// `PairTable::REGION_MIN_DENSITY` gets no rows from `PairTable::build`
/// (the 6,275-rule master, ~69 %), so it has nothing to switch: the
/// experiment says so and emits no rows for it.
///
/// BENCH_JSON rows are emitted for every row printed.
fn sw_throughput_stride() {
    use dpi_automaton::{AnchorSet, Match, PairTable};
    use dpi_core::{CompiledAutomaton, CompiledMatcher};

    const PAYLOAD: usize = 1 << 20;
    const WARM: usize = 256 * 1024;

    println!("stride-2 region pair rows, on/off A/B (anchor lane on both sides)\n");
    println!(
        "{}{}{}{}matches",
        cell("workload", 24),
        cell("off MB/s", 10),
        cell("on MB/s", 10),
        cell("speedup", 9),
    );
    let master = master_ruleset();
    let mut whole_ratios: Vec<f64> = Vec::new();
    let mut warm_ratios: Vec<f64> = Vec::new();
    for (label, set) in [
        ("300", dpi_rulesets::extract_preserving(&master, 300, 42)),
        ("6275", master.clone()),
    ] {
        let dfa = Dfa::build(&set);
        let reduced = dpi_core::ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
        let Some(pairs) = PairTable::build(&dfa, &set, &anchors) else {
            println!(
                "[{label}] no region rows: calm density below the {:.0}% floor, nothing to switch",
                PairTable::REGION_MIN_DENSITY * 100.0
            );
            continue;
        };
        let pair_note = format!("[{label}] region rows: {} B resident", pairs.memory_bytes());
        // Off: the same reduced automaton and anchors, no pair table.
        let lane = CompiledAutomaton::compile_with_prefilter(&reduced, anchors.clone(), None);
        let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, Some(pairs));
        assert!(compiled.pairs().is_some() && lane.pairs().is_none());
        let on = CompiledMatcher::new(&compiled, &set);
        let off = CompiledMatcher::new(&lane, &set);
        let mut gen = TrafficGenerator::new(99);
        let infected = gen.infected_packet(PAYLOAD, &set, 64).payload;
        let clean = gen.clean_packet(PAYLOAD).payload;
        let mut buf: Vec<Match> = Vec::with_capacity(1024);
        let mut buf2: Vec<Match> = Vec::with_capacity(1024);
        for (traffic, payload, len) in [
            ("infected", &infected[..], PAYLOAD),
            ("clean", &clean[..], PAYLOAD),
            ("infected-warm", &infected[..WARM], WARM),
        ] {
            let row = ab_bench_row(
                &format!("sw-throughput-stride/{label}-{traffic}"),
                len,
                9,
                || {
                    off.scan_into(payload, &mut buf);
                    buf.len()
                },
                || {
                    on.scan_into(payload, &mut buf2);
                    buf2.len()
                },
            );
            if traffic == "infected" {
                whole_ratios.push(row.speedup());
            }
            if traffic == "infected-warm" {
                warm_ratios.push(row.speedup());
            }
            println!(
                "{}{}{}{}{}",
                cell(&format!("[{label}] {traffic}"), 24),
                cell(&format!("{:.0}", len as f64 / row.off_secs / 1e6), 10),
                cell(&format!("{:.0}", len as f64 / row.on_secs / 1e6), 10),
                cell(&format!("{:.2}x", row.speedup()), 9),
                row.matches
            );
        }
        println!("{pair_note}");
    }
    // Floors sit well below the design targets so hardware variance
    // cannot flake CI; a measurement under them means the layer broke.
    // Whole-payload: the layer must never regress beyond noise.
    for r in &whole_ratios {
        assert!(
            *r >= 0.85,
            "pairs-on regressed the whole-payload scan: {r:.2}x (floor 0.85x)"
        );
    }
    // Cache-warm: the stride-2 layer must actually pay where the
    // payload is resident (measured 1.06-1.11x on the 300-rule row).
    // The hard floor sits below the build-to-build noise band (README:
    // +/-15% between builds) so code-layout shifts cannot flake CI; a
    // measurement under it means the layer actually broke.
    let warm = *warm_ratios
        .first()
        .expect("the 300-rule set carries region rows");
    assert!(
        warm >= 0.9,
        "cache-warm stride speedup collapsed: {warm:.2}x (floor 0.9x)"
    );
    if warm < 1.05 {
        eprintln!(
            "warning: cache-warm stride speedup {warm:.2}x below the 1.1x target on this host"
        );
    }
    println!(
        "\n(both sides run the anchor lane; the switch isolates the region\n pair rows, which make the lane's danger walk stride-2 — the follow\n row consumes a byte's successor at ~97% branch bias, the calm row\n resolves two thirds of danger hits without the exit/rebuild/\n stepper-wake round trip, and calm-quad windows skip binary regions\n the skip bitmap cannot. the whole-payload rows stream 1 MiB through\n the cache hierarchy; the warm rows rescan a 256 KiB slice — the\n regime a per-core shard actually runs in. a ruleset below the rows'\n density floor carries none, so it has nothing to switch)"
    );
}

/// Shard-per-core scaling on the large workload (§IV.B): the monolithic
/// compiled automaton for the full 6,275-string master exceeds any
/// per-core cache and pays a miss-bound scan rate; `ShardedMatcher`
/// splits the ruleset into cache-sized automata, planned for `cores`
/// cores.
///
/// Two numbers per core count, both measured on one thread:
///
/// - **1-thread** (`-wall` rows) — `ShardedMatcher::scan_into`, which
///   runs every shard on the calling thread: the plan's total work.
/// - **per-core** (`-percore` rows) — the projected slowest core of a
///   shard-per-core deployment: every shard's scan is timed alone, the
///   shards are assigned to cores in contiguous runs balanced by arena
///   bytes (`dpi_bench::chunk_bounds`), and the slowest core's sum is
///   charged the k-way merge of the per-shard match streams, which a
///   shard-per-core layout still pays. The merge share is measured in
///   the same run: the `-wall` time minus the sum of the per-shard
///   times, floored at 0. At one core the two rows therefore agree.
///   Shards share nothing but read-only arenas, so with that many free
///   cores the wall clock would take this bound plus scheduling noise.
///
/// BENCH_JSON rows are emitted for every row printed.
fn sharded_throughput() {
    use dpi_automaton::Match;
    use dpi_core::{CompiledAutomaton, CompiledMatcher, ShardedConfig, ShardedMatcher};

    const PAYLOAD: usize = 1 << 20;
    let set = master_ruleset();
    let dfa = Dfa::build(&set);
    let reduced = dpi_core::ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    // The monolith baseline carries the lanes a shard would (anchors,
    // plus region pair rows where dense enough — never at 6,275 rules),
    // so the shard-vs-monolith ratios compare layouts, not lane
    // availability.
    let anchors =
        dpi_automaton::AnchorSet::build(&dfa, &set, dpi_automaton::AnchorSet::DEFAULT_HORIZON);
    let pairs = dpi_automaton::PairTable::build(&dfa, &set, &anchors);
    let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs);
    let mut gen = TrafficGenerator::new(0x5AD);
    let payload = gen.infected_packet(PAYLOAD, &set, 64).payload;

    let emit = |id: &str, secs: f64| {
        dpi_bench::bench_json_row(
            &format!("sharded-throughput/{id}"),
            secs * 1e9,
            PAYLOAD as u64,
        );
    };
    let mbps = |secs: f64| PAYLOAD as f64 / secs / 1e6;

    println!(
        "shard-per-core scanning, {}-string master ruleset, 1 MiB infected payload",
        set.len()
    );
    println!(
        "monolithic compiled arena: {} KiB (vs {} KiB per-shard budget)\n",
        compiled.memory_bytes() / 1024,
        ShardedConfig::with_cores(1).budget_bytes / 1024
    );
    println!(
        "{}{}{}{}matches",
        cell("scanner", 26),
        cell("1-thread MB/s", 14),
        cell("per-core MB/s", 14),
        cell("vs seq", 9),
    );

    let seq = CompiledMatcher::new(&compiled, &set);
    let mut buf: Vec<Match> = Vec::with_capacity(1024);
    let (seq_secs, seq_matches) = best_secs(5, || {
        seq.scan_into(&payload, &mut buf);
        buf.len()
    });
    emit("compiled-seq", seq_secs);
    println!(
        "{}{}{}{}{}",
        cell("compiled (monolith)", 26),
        cell(&format!("{:.0}", mbps(seq_secs)), 14),
        cell(&format!("{:.0}", mbps(seq_secs)), 14),
        cell("1.00x", 9),
        seq_matches
    );

    for cores in [1usize, 2, 4, 8] {
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(cores))
            .expect("master ruleset fits the default shard budget");
        let shards = sharded.shard_count();
        let mut scratch = sharded.scratch();
        let mut out: Vec<Match> = Vec::with_capacity(1024);
        let (thread_secs, sharded_matches) = best_secs(5, || {
            sharded.scan_into(&payload, &mut scratch, &mut out);
            out.len()
        });
        assert_eq!(
            sharded_matches, seq_matches,
            "sharded scan must find exactly the monolith's matches"
        );
        // Per-core bound: time every shard alone, then take the slowest
        // core's sum over an arena-balanced contiguous run of shards.
        let mut shard_secs = vec![0f64; shards];
        let mut sbuf: Vec<Match> = Vec::with_capacity(1024);
        for (s, slot) in shard_secs.iter_mut().enumerate() {
            let (secs, _) = best_secs(5, || {
                sharded.scan_shard_into(s, &payload, &mut sbuf);
                sbuf.len()
            });
            *slot = secs;
        }
        let arena_bytes: Vec<usize> = (0..shards).map(|s| sharded.shard_memory_bytes(s)).collect();
        let merge_secs = (thread_secs - shard_secs.iter().sum::<f64>()).max(0.0);
        let percore_secs = merge_secs
            + dpi_bench::chunk_bounds(&arena_bytes, cores)
                .windows(2)
                .map(|w| shard_secs[w[0]..w[1]].iter().sum::<f64>())
                .fold(0f64, f64::max);
        let label = format!("shards{shards}-cores{cores}");
        emit(&format!("{label}-wall"), thread_secs);
        emit(&format!("{label}-percore"), percore_secs);
        println!(
            "{}{}{}{}{}",
            cell(
                &format!("sharded({shards} shards, {cores}c)"),
                26
            ),
            cell(&format!("{:.0}", mbps(thread_secs)), 14),
            cell(&format!("{:.0}", mbps(percore_secs)), 14),
            cell(&format!("{:.2}x", seq_secs / percore_secs), 9),
            sharded_matches
        );
    }
    println!(
        "\n(1-thread = every shard scanned in turn on one thread, the plan's\n total work (the `-wall` rows). per-core = the slowest core's measured\n shard scans when the shards are split across `cores` cores, plus the\n k-way merge of the shard match streams (the 1-thread time minus the\n summed shard times), which a shard-per-core layout still pays; shards\n share only read-only arenas, so with that many free cores the scan\n would converge to it. each shard automaton fits the per-shard\n budget, so per-shard scan rate recovers the small-automaton speed the\n monolith loses to cache misses — that recovery, times cores, is the\n scaling software cannot get from intra-core interleaving, where lanes\n share one cache; the merge grows with matches x shards and, on this\n match-dense payload, takes it back)"
    );
}

/// Two-stage scanning at deployed-IDS scale: the budgeted prefix-cover
/// pre-classifier + windowed exact verifier on generated 25k- and
/// 100k-rule sets, against the full-fast-path monolith on the
/// 6,275-rule master set — every scanner over the same 1 MiB clean TLS
/// stream (the steady state a DPI box actually spends its cycles on),
/// plus an infected-stream row so the flagged path is costed too.
///
/// The acceptance claim this experiment pins: **a 100k-rule two-stage
/// scan is at least as fast per core as the 6,275-rule monolith**,
/// because the stage-1 budget caps the cover's state count at any rule
/// count and clean traffic almost never leaves stage 1.
/// Alongside the throughput rows it emits the honesty counters as
/// value rows (`bytes_per_iter = 0`, value in the `median_ns` slot):
/// false-positive window rate and replay fraction in parts-per-million,
/// and stage-1 resident bytes in KiB (the compiled cover with its
/// anchor tables, which the budget does not bound).
fn two_stage() {
    use dpi_automaton::Match;
    use dpi_core::{
        CompiledAutomaton, CompiledMatcher, ShardedMatcher, TwoStageConfig, TwoStageMatcher,
    };
    use dpi_rulesets::RulesetGenerator;

    const PAYLOAD: usize = 1 << 20;
    let tls = TrafficGenerator::new(0x715_0DD).tls_stream(PAYLOAD).payload;

    let emit = |id: &str, secs: f64| {
        dpi_bench::bench_json_row(&format!("two-stage/{id}"), secs * 1e9, PAYLOAD as u64);
    };
    let value = |id: &str, v: f64| {
        dpi_bench::bench_json_row(&format!("two-stage/{id}"), v, 0);
    };
    let mbps = |secs: f64| PAYLOAD as f64 / secs / 1e6;

    // Baseline: the 6,275-rule monolith with its whole fast-path stack
    // (prefilter anchors; its calm density attaches no pair rows),
    // exactly as `sharded-throughput` builds it.
    let master = master_ruleset();
    let dfa = Dfa::build(&master);
    let reduced = dpi_core::ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors =
        dpi_automaton::AnchorSet::build(&dfa, &master, dpi_automaton::AnchorSet::DEFAULT_HORIZON);
    let pairs = dpi_automaton::PairTable::build(&dfa, &master, &anchors);
    let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs);
    let mono = CompiledMatcher::new(&compiled, &master);

    // The service's two-stage build, with `dpibench`'s arena config:
    // stage 1's cover model gets a budget the size of a per-core L2
    // (2 MiB on current server cores). Stage 2 is one automaton under
    // any exact config, since it replays only flagged windows; the
    // 8 MiB budget plans the arena's sharded engine. So the 25k rows
    // time the automaton the `tls_25k` workload's Exact rung runs.
    let mut config = TwoStageConfig::with_cores(1);
    config.approx = dpi_automaton::ApproxConfig::with_budget(2 << 20);
    config.exact.budget_bytes = 8 << 20;
    let scaled = [25_000usize, 100_000].map(|rules| {
        let set = RulesetGenerator::new().generate(rules);
        let two = TwoStageMatcher::build(&set, &config).expect("generated set fits the shard plan");
        (rules, set, two)
    });

    // The gate compares each two-stage row with the monolith's, so the
    // three scanners time in alternating rounds: host drift between
    // them would otherwise read as a ratio.
    let stream: &[u8] = &tls;
    let mut buf: Vec<Match> = Vec::with_capacity(1024);
    let mut scan_two = scaled.each_ref().map(|(_, _, two)| {
        let (mut scratch, mut out) = (two.scratch(), Vec::with_capacity(1024));
        move || {
            two.scan_into(stream, &mut scratch, &mut out);
            out.len()
        }
    });
    let [scan_25k, scan_100k] = &mut scan_two;
    let [(mono_secs, mono_matches), (secs_25k, _), (secs_100k, _)] = interleaved_best(
        5,
        [
            &mut || {
                mono.scan_into(stream, &mut buf);
                buf.len()
            },
            scan_25k,
            scan_100k,
        ],
    );
    emit("monolith-6275-tls", mono_secs);

    println!("two-stage scan vs monolith, 1 MiB clean TLS stream\n");
    println!(
        "{}{}{}{}{}vs monolith",
        cell("scanner", 24),
        cell("pre KiB", 9),
        cell("replay", 9),
        cell("fp-win", 9),
        cell("MB/s", 8),
    );
    println!(
        "{}{}{}{}{}1.00x",
        cell("monolith (6,275)", 24),
        cell(&format!("{}", compiled.memory_bytes() / 1024), 9),
        cell("100%", 9),
        cell("-", 9),
        cell(&format!("{:.0}", mbps(mono_secs)), 8),
    );
    // "Clean" means no injected occurrences; the rulesets' own 1- and
    // 2-byte strings still legitimately hit random bytes, so every
    // scanner reports a nonzero match stream here.
    println!(
        "{}  ({} short-rule matches in the TLS stream)",
        cell("", 24),
        thousands(mono_matches),
    );

    for ((rules, set, two), secs) in scaled.iter().zip([secs_25k, secs_100k]) {
        let rules = *rules;
        let mut scratch = two.scratch();
        let stats = two.scan_into(&tls, &mut scratch, &mut buf);
        let tag = format!("rules{}k", rules / 1000);
        emit(&format!("{tag}-tls"), secs);
        value(&format!("{tag}-replay-ppm"), stats.replay_fraction() * 1e6);
        value(&format!("{tag}-fp-window-ppm"), stats.fp_window_rate() * 1e6);
        value(
            &format!("{tag}-pre-kib"),
            two.pre_memory_bytes() as f64 / 1024.0,
        );

        // The speed is only admissible if the composition stays exact:
        // replay an infected stream through both engines.
        let mut gen = TrafficGenerator::new(0xBAD_F00D ^ rules as u64);
        let infected = gen.infected_packet(1 << 18, set, 48).payload;
        let exact = ShardedMatcher::build(set, &config.exact).expect("same plan as stage 2");
        let mut ex_scratch = exact.scratch();
        let mut want: Vec<Match> = Vec::new();
        exact.scan_into(&infected, &mut ex_scratch, &mut want);
        let mut got: Vec<Match> = Vec::new();
        let inf_stats = two.scan_into(&infected, &mut scratch, &mut got);
        assert_eq!(got, want, "two-stage diverged from exact at {rules} rules");
        let (inf_secs, _) = best_secs(3, || {
            two.scan_into(&infected, &mut scratch, &mut got);
            got.len()
        });
        dpi_bench::bench_json_row(
            &format!("two-stage/{tag}-infected"),
            inf_secs * 1e9,
            1u64 << 18,
        );

        println!(
            "{}{}{}{}{}{:.2}x",
            cell(&format!("two-stage ({rules})"), 24),
            cell(&format!("{}", two.pre_memory_bytes() / 1024), 9),
            cell(&format!("{:.2}%", 100.0 * stats.replay_fraction()), 9),
            cell(&format!("{:.2}%", 100.0 * stats.fp_window_rate()), 9),
            cell(&format!("{:.0}", mbps(secs)), 8),
            mono_secs / secs,
        );
        println!(
            "{}  infected 256 KiB: {:.0} MB/s, replay {:.1}%, {} matches",
            cell("", 24),
            (1 << 18) as f64 / inf_secs / 1e6,
            100.0 * inf_stats.replay_fraction(),
            want.len(),
        );
    }
    println!(
        "\n(the stage-1 budget bounds the cover model's per-state estimate, not\n the compiled tables: pre KiB is the compiled cover with its anchor\n tables (and 16 KiB of region pair rows where they attach). 1-byte rules ride a\n direct-emit table and short rules the cover keeps whole emit exactly,\n so saturated short lengths cannot flood the windowing. the acceptance\n gate — 100k-rule two-stage >= 6,275-rule monolith per core on clean\n TLS — is asserted by CI over the BENCH_JSON rows)"
    );
}

/// Streaming-vs-whole-payload overhead of the resumable scan core, plus
/// the flow-table pipeline on interleaved flows.
///
/// The resumable `ScanState` suspends/resumes the stride-specialized hot
/// loop once per chunk; at a 1,500-byte MTU that bookkeeping should be
/// within ~10% of the payload-at-once scan (the per-chunk cost is O(1)
/// against 1,500 bytes of per-byte work). The 64-byte row shows the
/// overhead's scaling floor; the flow-table row adds per-packet flow
/// lookup and state routing on adversarially interleaved flows.
///
/// BENCH_JSON rows are emitted for every row printed.
fn flow_throughput() {
    use dpi_automaton::{Match, ScanState};
    use dpi_core::{CompiledAutomaton, CompiledMatcher, FlowKey, FlowPacket, FlowTable};

    const PAYLOAD: usize = 1 << 20;

    println!("streaming scan overhead vs whole-payload, 1 MiB infected payload\n");
    println!(
        "{}{}{}{}matches",
        cell("scanner", 30),
        cell("MB/s", 10),
        cell("vs whole", 10),
        cell("overhead", 10),
    );

    let master = master_ruleset();
    for (label, set) in [
        ("300", dpi_rulesets::extract_preserving(&master, 300, 42)),
        ("6275", master.clone()),
    ] {
        let dfa = Dfa::build(&set);
        let reduced = dpi_core::ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
        let anchors = dpi_automaton::AnchorSet::build(
            &dfa,
            &set,
            dpi_automaton::AnchorSet::DEFAULT_HORIZON,
        );
        let pairs = dpi_automaton::PairTable::build(&dfa, &set, &anchors);
        let compiled = CompiledAutomaton::compile_with_prefilter(&reduced, anchors, pairs);
        let matcher = CompiledMatcher::new(&compiled, &set);
        let mut gen = TrafficGenerator::new(0xF70);
        let payload = gen.infected_packet(PAYLOAD, &set, 64).payload;
        let emit = |id: &str, secs: f64| {
            dpi_bench::bench_json_row(
                &format!("flow-throughput/{label}-{id}"),
                secs * 1e9,
                PAYLOAD as u64,
            );
        };
        let row = |name: &str, secs: f64, matches: usize, whole_secs: f64| {
            println!(
                "{}{}{}{}{}",
                cell(&format!("[{label}] {name}"), 30),
                cell(&format!("{:.0}", PAYLOAD as f64 / secs / 1e6), 10),
                cell(&format!("{:.2}x", whole_secs / secs), 10),
                cell(&format!("{:+.1}%", (secs / whole_secs - 1.0) * 100.0), 10),
                matches
            );
        };

        let mut buf: Vec<Match> = Vec::with_capacity(1024);
        let (whole_secs, whole_matches) = best_secs(5, || {
            matcher.scan_into(&payload, &mut buf);
            buf.len()
        });
        emit("whole", whole_secs);
        row("whole-payload", whole_secs, whole_matches, whole_secs);

        for mtu in [1500usize, 64] {
            let chunks: Vec<&[u8]> = payload.chunks(mtu).collect();
            let (secs, matches) = best_secs(5, || {
                buf.clear();
                let mut state = ScanState::fresh();
                for chunk in &chunks {
                    matcher.scan_chunk_into(&mut state, chunk, &mut buf);
                }
                buf.len()
            });
            assert_eq!(
                matches, whole_matches,
                "streaming must find exactly the whole-payload matches"
            );
            emit(&format!("mtu{mtu}"), secs);
            row(&format!("stream {mtu} B chunks"), secs, matches, whole_secs);
        }

        // Flow-table pipeline: the same bytes as 64 flows' worth of
        // 1,500-byte packets, interleaved, each packet routed through
        // the table to its flow's state.
        const FLOWS: usize = 64;
        let flow_payloads: Vec<&[u8]> = payload.chunks(PAYLOAD / FLOWS).collect();
        let segmented: Vec<Vec<&[u8]>> =
            flow_payloads.iter().map(|p| p.chunks(1500).collect()).collect();
        let counts: Vec<usize> = segmented.iter().map(Vec::len).collect();
        let schedule = gen.interleave_schedule(&counts);
        let mut table = FlowTable::new(FLOWS * 2, ScanState::fresh());
        let mut alerts = Vec::new();
        let (secs, matches) = best_secs(5, || {
            let mut cursors = vec![0usize; segmented.len()];
            let mut total = 0usize;
            for &flow in &schedule {
                let packet = FlowPacket {
                    key: FlowKey(flow as u128),
                    payload: segmented[flow][cursors[flow]],
                };
                cursors[flow] += 1;
                table.ingest_batch(
                    [packet],
                    |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
                    &mut alerts,
                );
                total += alerts.len();
            }
            // Flows re-touched next iteration carry stale state; reset
            // the table so every timed pass scans identical work.
            table = FlowTable::new(FLOWS * 2, ScanState::fresh());
            total
        });
        emit("flowtable", secs);
        row("flow table (64 flows)", secs, matches, whole_secs);

        // Same interleaved arrival routed through the reassembly layer
        // (explicit sequence numbers, in-order per flow): the full
        // adversary-tolerant segment path, plus its counters.
        use dpi_core::{FlowSegment, ReassemblyConfig, ReassemblyStats, StreamFlow};
        let sequenced: Vec<Vec<(u64, &[u8])>> = flow_payloads
            .iter()
            .map(|p| {
                let mut seq = 0u64;
                p.chunks(1500)
                    .map(|c| {
                        let s = seq;
                        seq += c.len() as u64;
                        (s, c)
                    })
                    .collect()
            })
            .collect();
        let template = StreamFlow::new(ReassemblyConfig::default(), ScanState::fresh());
        let mut rtable = FlowTable::new(FLOWS * 2, template.clone());
        let mut counters = ReassemblyStats::default();
        let (secs, matches) = best_secs(5, || {
            let mut cursors = vec![0usize; sequenced.len()];
            let mut total = 0usize;
            for &flow in &schedule {
                let (seq, payload) = sequenced[flow][cursors[flow]];
                cursors[flow] += 1;
                rtable.ingest_segments(
                    [FlowSegment {
                        key: FlowKey(flow as u128),
                        seq,
                        payload,
                    }],
                    |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
                    &mut alerts,
                );
                total += alerts.len();
            }
            counters = rtable.stats().reassembly;
            rtable = FlowTable::new(FLOWS * 2, template.clone());
            total
        });
        emit("reassembly", secs);
        row("reassembly (64 flows)", secs, matches, whole_secs);
        println!(
            "{}segments {} buffered {} dup B {} held-peak {}",
            cell("  └ reassembly counters", 30),
            counters.segments,
            counters.segments_buffered,
            counters.dup_bytes,
            counters.bytes_held_peak,
        );
    }
    println!(
        "\n(streaming carries the scan registers across chunk boundaries — the\n per-chunk cost is one stepper dispatch and one register load/store,\n amortized over the chunk; matches straddling boundaries are found,\n which no payload-at-once scan can do. the flow-table row adds the\n per-packet flow lookup on an interleaved 64-flow arrival order)"
    );
}

/// Robustness cost and graceful-degradation rates of the TCP reassembly
/// layer (`dpi_core::reassembly`).
///
/// The `inorder` A/B pair is the acceptance gate: clean in-order traffic
/// through `StreamFlow::ingest` (sequence tracking on, nothing ever
/// buffered) vs the raw resumable scan at MTU chunks — the bookkeeping
/// must stay within 10% of the raw scan, asserted here. The `adv-*` rows
/// then measure throughput and the degradation counters for each hostile
/// schedule family, including a deliberately starved budget that forces
/// hole-skips: memory stays bounded, the scan keeps going.
///
/// BENCH_JSON rows are emitted for every row printed.
fn stream_robustness() {
    use dpi_automaton::{Match, ScanState};
    use dpi_core::{
        CompiledAutomaton, CompiledMatcher, FlowKey, FlowSegment, FlowTable, ReassemblyConfig,
        ReassemblyStats, StreamFlow,
    };
    use dpi_rulesets::{ChopProfile, Segment, SegmentProfile};

    const PAYLOAD: usize = 1 << 20;
    const MTU: usize = 1500;

    let set = dpi_rulesets::extract_preserving(&master_ruleset(), 300, 42);
    let dfa = Dfa::build(&set);
    let reduced = dpi_core::ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let compiled = CompiledAutomaton::compile(&reduced);
    let matcher = CompiledMatcher::new(&compiled, &set);
    let mut gen = TrafficGenerator::new(0x0B57);

    println!("reassembly overhead on clean traffic, 1 MiB infected payload, {MTU} B segments\n");
    let payload = gen.infected_packet(PAYLOAD, &set, 64).payload;
    let chunks: Vec<&[u8]> = payload.chunks(MTU).collect();
    let mut buf_off: Vec<Match> = Vec::with_capacity(1024);
    let mut buf_on: Vec<Match> = Vec::with_capacity(1024);
    let ab = ab_bench_row(
        "stream-robustness/inorder",
        PAYLOAD,
        7,
        || {
            buf_off.clear();
            let mut state = ScanState::fresh();
            for chunk in &chunks {
                matcher.scan_chunk_into(&mut state, chunk, &mut buf_off);
            }
            buf_off.len()
        },
        || {
            buf_on.clear();
            let mut flow = StreamFlow::new(ReassemblyConfig::default(), ScanState::fresh());
            let mut stats = ReassemblyStats::default();
            let mut scan = |s: &mut ScanState, c: &[u8], o: &mut Vec<Match>| {
                matcher.scan_chunk_into(s, c, o)
            };
            let mut seq = 0u64;
            for chunk in &chunks {
                flow.ingest(seq, chunk, &mut scan, &mut buf_on, &mut stats);
                seq += chunk.len() as u64;
            }
            assert_eq!(stats.segments_buffered, 0, "in-order traffic must not buffer");
            buf_on.len()
        },
    );
    let overhead = (ab.on_secs / ab.off_secs - 1.0) * 100.0;
    println!(
        "{}{}{}{}",
        cell("raw resumable scan", 26),
        cell(&format!("{:.0} MB/s", PAYLOAD as f64 / ab.off_secs / 1e6), 14),
        cell("-", 12),
        ab.matches,
    );
    println!(
        "{}{}{}{}",
        cell("reassembly (in-order)", 26),
        cell(&format!("{:.0} MB/s", PAYLOAD as f64 / ab.on_secs / 1e6), 14),
        cell(&format!("{overhead:+.1}%"), 12),
        ab.matches,
    );
    assert!(
        ab.on_secs <= ab.off_secs * 1.10,
        "in-order reassembly overhead must stay within 10% (measured {overhead:+.1}%)"
    );

    // Adversarial mixes: 64 flows of 16 KiB each, interleaved arrival,
    // through the full FlowTable segment path. The starved-budget row
    // runs a reorder window wider than its 4 KiB budget on purpose.
    const FLOWS: usize = 64;
    const FLOW_BYTES: usize = 16 * 1024;
    let total_bytes = (FLOWS * FLOW_BYTES) as u64;
    println!("\nadversarial mixes, {FLOWS} flows x {FLOW_BYTES} B, interleaved arrival\n");
    println!(
        "{}{}{}{}{}{}{}",
        cell("schedule", 22),
        cell("MB/s", 10),
        cell("buffered", 10),
        cell("conflicts", 11),
        cell("holes", 8),
        cell("hole B", 10),
        cell("budget drops", 14),
    );
    let mixes: &[(&str, SegmentProfile, usize)] = &[
        ("reorder-w4", SegmentProfile::Reorder { window: 4 }, ReassemblyConfig::DEFAULT_BUDGET),
        ("retransmit-e3", SegmentProfile::Retransmit { every: 3 }, ReassemblyConfig::DEFAULT_BUDGET),
        (
            "overlap-conflict",
            SegmentProfile::OverlapConflicting { extend: 32 },
            ReassemblyConfig::DEFAULT_BUDGET,
        ),
        ("holes-e4", SegmentProfile::Holes { every: 4 }, ReassemblyConfig::DEFAULT_BUDGET),
        ("starved-budget", SegmentProfile::Reorder { window: 8 }, 4 * 1024),
    ];
    for &(name, profile, budget) in mixes {
        let schedules: Vec<Vec<Segment>> = (0..FLOWS)
            .map(|_| {
                let packet = gen.infected_packet(FLOW_BYTES, &set, 4);
                gen.segment_schedule(&packet, &set, ChopProfile::MidPattern { mtu: MTU }, profile)
            })
            .collect();
        let counts: Vec<usize> = schedules.iter().map(Vec::len).collect();
        let arrival = gen.interleave_schedule(&counts);
        let template = StreamFlow::new(ReassemblyConfig::new(budget), ScanState::fresh());
        let mut table = FlowTable::new(FLOWS * 2, template.clone());
        let mut alerts = Vec::new();
        let mut counters = ReassemblyStats::default();
        let (secs, _) = best_secs(5, || {
            let mut cursors = vec![0usize; FLOWS];
            let mut total = 0usize;
            for &flow in &arrival {
                let seg = &schedules[flow][cursors[flow]];
                cursors[flow] += 1;
                table.ingest_segments(
                    [FlowSegment {
                        key: FlowKey(flow as u128),
                        seq: seg.seq,
                        payload: &seg.bytes,
                    }],
                    |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
                    &mut alerts,
                );
                total += alerts.len();
            }
            table.flush_flows(
                |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
                &mut alerts,
            );
            total += alerts.len();
            counters = table.stats().reassembly;
            table = FlowTable::new(FLOWS * 2, template.clone());
            total
        });
        assert!(
            counters.bytes_held_peak <= (FLOWS * budget) as u64,
            "table-wide buffered bytes must respect the per-flow budget"
        );
        match name {
            "retransmit-e3" => assert!(counters.dup_bytes > 0),
            "overlap-conflict" => assert!(counters.overlap_conflicts > 0),
            "holes-e4" => assert!(counters.holes_skipped > 0),
            "starved-budget" => assert!(counters.budget_drops > 0),
            _ => {}
        }
        dpi_bench::bench_json_row(
            &format!("stream-robustness/adv-{name}"),
            secs * 1e9,
            total_bytes,
        );
        println!(
            "{}{}{}{}{}{}{}",
            cell(name, 22),
            cell(&format!("{:.0}", total_bytes as f64 / secs / 1e6), 10),
            cell(&thousands(counters.segments_buffered as usize), 10),
            cell(&thousands(counters.overlap_conflicts as usize), 11),
            cell(&thousands(counters.holes_skipped as usize), 8),
            cell(&thousands(counters.hole_bytes as usize), 10),
            cell(&thousands(counters.budget_drops as usize), 14),
        );
    }
    println!(
        "\n(the reassembler buffers at most the per-flow budget whatever the\n schedule does — starving the budget converts memory pressure into\n counted hole-skips with scanning resumed at the skip boundary, so a\n hostile sender can cost at most its own stream's coverage, never the\n scanner's memory or other flows' throughput)"
    );
}

/// End-to-end cycle-accurate validation: throughput formula + detection.
fn sim_validate() {
    let set = paper_ruleset(PaperRuleset::S500);
    let acc = Accelerator::build(&set, AcceleratorConfig::STRATIX3).expect("fits");
    let mut gen = TrafficGenerator::new(11);
    let mut packets = Vec::new();
    let mut expected = 0usize;
    for i in 0..36 {
        let p = if i % 3 == 0 {
            let p = gen.infected_packet(1500, &set, 3);
            expected += p.injected.len();
            p
        } else {
            gen.clean_packet(1500)
        };
        packets.push(p.payload);
    }
    let report = acc.scan(&packets);
    println!("cycle-accurate accelerator validation, 500-string ruleset on Stratix 3\n");
    println!(
        "packets: {} x 1500 B; mem cycles: {}; measured {:.2} Gbps of peak {:.2} Gbps",
        packets.len(),
        report.mem_cycles,
        report.throughput_bps(acc.config().fmax_hz) / 1e9,
        acc.peak_throughput_bps() / 1e9
    );
    println!(
        "matches found: {} (>= {} injected); groups {}, group size {}",
        report.matches.len(),
        expected,
        acc.group_count(),
        acc.group_size()
    );
    assert!(report.matches.len() >= expected);
    // Architectural invariant: 16 bits per memory cycle per group when
    // saturated.
    let bits_per_cycle =
        report.bytes_scanned as f64 * 8.0 / report.mem_cycles as f64 / acc.group_count() as f64;
    println!("bits per memory cycle per group: {bits_per_cycle:.2} (architecture bound: 16)");
}

/// The resident service runtime under offered overload: throughput,
/// latency percentiles, and the robustness ledger at 1x / 1.5x / 2x of
/// the measured scan capacity.
fn service_robustness() {
    use dpi_core::{
        ExactEngine, FidelityTier, FlowKey, FlowState, RulesetArena, Service, ServiceConfig,
        TwoStageConfig,
    };
    use std::sync::Arc;
    use std::time::Instant;

    let set = master_ruleset();
    let mut config = TwoStageConfig::with_cores(1);
    config.approx = dpi_automaton::ApproxConfig::with_budget(2 << 20);
    config.exact.budget_bytes = 8 << 20;
    let arena = Arc::new(RulesetArena::build(&set, &config, 1).expect("master set fits"));
    // The hot-swap payload, built once up front the way a control plane
    // would: compiling 6,275 rules takes seconds, and paying that on
    // the producer thread mid-run would poison the pacing measurement.
    let arena2 = Arc::new(RulesetArena::build(&set, &config, 2).expect("same set fits"));

    // The workload: concurrent flows, in-order segments, interleaved
    // arrivals, one flow in eight infected.
    const FLOWS: usize = 96;
    const FLOW_LEN: usize = 96 * 1024;
    const SEG: usize = 1200;
    let mix = TrafficGenerator::new(0x5EC_0DE).service_mix(FLOWS, FLOW_LEN, SEG, &set, 8, 6);
    let total_bytes: u64 = mix.iter().map(|(_, s)| s.bytes.len() as u64).sum();

    // Calibrate each rung the arena has at its *chunked* scan rate over
    // this very byte stream — the per-segment path the workers actually
    // run, through the engine that serves the rung.
    let rung_bps = |tier: FidelityTier| {
        let mut out = Vec::new();
        let mut exact_scratch = arena.exact().scratch();
        let mut two_scratch = arena.two_stage().scratch();
        let mut exact_state = arena.exact().flow_state();
        let mut two_state = arena.two_stage().flow_state();
        let (secs, _) = best_secs(3, || {
            out.clear();
            exact_state.reset_at(0);
            two_state.reset_at(0);
            for (_, s) in &mix {
                match (tier, arena.exact_engine()) {
                    (FidelityTier::Exact, ExactEngine::Sharded) => arena.exact().scan_chunk_into(
                        &mut exact_state,
                        &s.bytes,
                        &mut exact_scratch,
                        &mut out,
                    ),
                    (FidelityTier::Exact, ExactEngine::TwoStage) => arena
                        .two_stage()
                        .scan_chunk_into(&mut two_state, &s.bytes, &mut two_scratch, &mut out),
                    (FidelityTier::FlagOnly, _) => arena.two_stage().scan_chunk_flag_only(
                        &mut two_state,
                        &s.bytes,
                        &mut two_scratch,
                        &mut out,
                    ),
                }
            }
            out.len()
        });
        total_bytes as f64 / secs
    };
    let rates: Vec<String> = arena
        .rungs()
        .iter()
        .map(|&tier| format!("{tier:?} {:.0} MB/s", rung_bps(tier) / 1e6))
        .collect();

    // The deterministic simulator over the same mix: the whole service
    // path (steer, queue, flow table, reassembly, tier dispatch) minus
    // threads and pacing — the honest "what does residency cost"
    // number, and the capacity baseline the offered loads are scaled
    // against.
    let service_bps = {
        let mut sim_config = dpi_core::ServiceConfig::with_workers(1);
        sim_config.queue_cap = 512;
        let (secs, _) = best_secs(3, || {
            let mut sim = dpi_core::ServiceSim::new(Arc::clone(&arena), sim_config)
                .expect("valid sim config");
            for (i, (flow, segment)) in mix.iter().enumerate() {
                sim.offer(
                    FlowKey(0xFACE + *flow as u128),
                    segment.seq,
                    &segment.bytes,
                    i as u64,
                );
                if i % 256 == 0 {
                    sim.pump();
                }
            }
            let report = sim.finish();
            report.stats.workers.packets as usize
        });
        total_bytes as f64 / secs
    };
    let capacity_bps = service_bps;

    // One worker per hardware core beyond the producer's — a resident
    // worker owns its core the way the paper's engines own their block
    // RAMs. On a single-core host the producer must *sleep*, not spin,
    // or it starves the worker it is measuring.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1);
    println!("resident service runtime, {FLOWS} flows x {} KiB, {workers} workers", FLOW_LEN / 1024);
    println!(
        "exact engine: {:?} ({} shards); rungs: {}\ncalibrated chunk rate: {}\nresident service rate (sim, full path): {:.0} MB/s\n",
        arena.exact_engine(),
        arena.exact().shard_count(),
        arena.rungs().len(),
        rates.join(", "),
        service_bps / 1e6,
    );
    println!(
        "{}{}{}{}{}{}{}",
        cell("offered", 9),
        cell("core MB/s", 11),
        cell("p50 us", 9),
        cell("p99 us", 9),
        cell("p999 us", 9),
        cell("shed %", 8),
        cell("degraded %", 11),
    );

    for (tag, load) in [("load1x", 1.0f64), ("load15x", 1.5), ("load2x", 2.0)] {
        let mut svc_config = ServiceConfig::with_workers(workers);
        svc_config.queue_cap = 256;
        svc_config.flow_capacity = 4096;
        let mut service =
            Service::start(Arc::clone(&arena), svc_config).expect("valid service config");

        // Offered rate: `load` x the aggregate scan capacity, paced by
        // wall clock. The producer never blocks — over capacity, the
        // shed gate does its job instead.
        let rate = load * capacity_bps * workers as f64;
        let start = Instant::now();
        let mut sent = 0u64;
        let mut swapped = false;
        // Burst pacing (a NIC ring drained every interrupt): release
        // segments in bursts and *sleep* between them. Fine-grained
        // yield pacing would monopolise a single-core host's CPU and
        // starve the very workers being measured.
        const BURST: usize = 64;
        for (i, (flow, segment)) in mix.iter().enumerate() {
            if i % BURST == 0 {
                let ahead = sent as f64 / rate - start.elapsed().as_secs_f64();
                if ahead > 100e-6 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(ahead));
                }
            }
            let time = start.elapsed().as_nanos() as u64;
            service.offer(FlowKey(0xFACE + *flow as u128), segment.seq, &segment.bytes, time);
            sent += segment.bytes.len() as u64;
            // One in-band hot swap mid-run: same ruleset, next
            // generation — the swap must not disturb the ledger.
            if !swapped && i == mix.len() / 2 {
                swapped = true;
                service.install_arena(Arc::clone(&arena2));
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let report = service.shutdown();
        let s = &report.stats;

        let scanned = s.scanned_bytes();
        let core_mbps = scanned as f64 / wall / workers as f64 / 1e6;
        let p50 = report.latency.quantile(0.50) as f64 / 1e3;
        let p99 = report.latency.quantile(0.99) as f64 / 1e3;
        let p999 = report.latency.quantile(0.999) as f64 / 1e3;
        let shed_pct = 100.0 * s.shed_bytes as f64 / s.offered_bytes as f64;
        let degraded = s.workers.tier_bytes[1];
        let degraded_pct = if scanned > 0 {
            100.0 * degraded as f64 / scanned as f64
        } else {
            0.0
        };
        // The ledger: every admitted byte scanned or accounted.
        let unaccounted =
            s.admitted_bytes as i64 - scanned as i64 - s.workers.panic_lost_bytes as i64;

        println!(
            "{}{}{}{}{}{}{:.1}",
            cell(&format!("{load:.1}x"), 9),
            cell(&format!("{core_mbps:.0}"), 11),
            cell(&format!("{p50:.0}"), 9),
            cell(&format!("{p99:.0}"), 9),
            cell(&format!("{p999:.0}"), 9),
            cell(&format!("{shed_pct:.1}"), 8),
            degraded_pct,
        );

        dpi_bench::bench_json_row(&format!("service/{tag}-wall"), wall * 1e9, scanned);
        let value = |id: &str, v: f64| {
            dpi_bench::bench_json_row(&format!("service/{tag}-{id}"), v, 0);
        };
        value("core-mbps", core_mbps);
        value("p50-us", p50);
        value("p99-us", p99);
        value("p999-us", p999);
        value("shed-pct", shed_pct);
        value("degraded-pct", degraded_pct);
        value("flows-resident", s.flows_resident as f64);
        value("unaccounted-bytes", unaccounted as f64);
        value("swaps", s.swaps as f64);
        value("matches", s.workers.matches as f64);

        assert_eq!(
            s.offered_packets,
            s.admitted_packets + s.shed_packets,
            "shed accounting must balance at {load}x"
        );
        assert_eq!(unaccounted, 0, "silent byte loss at {load}x offered load");
        assert_eq!(s.offered_bytes, total_bytes);
    }
    println!(
        "\n(offered load is paced against the simulator's full-path rate; past 1x\n the shed gate drops whole flows with exact accounting, and only where\n the arena has a FlagOnly rung does the ladder trade match granularity\n for drain rate — the ledger `admitted == scanned + panic-lost` holds at\n every load)"
    );
}

/// Protocol normalization robustness: the chunk-boundary evasion a raw
/// scanner provably misses is caught post-normalization, every
/// malformation shape fails open with a balanced byte ledger, and the
/// normalizer's overhead on well-formed traffic stays within budget
/// (CI gates the `protocol/wellformed-{off,on}` pair at +10%).
fn protocol_robustness() {
    use dpi_automaton::{Match, PatternSet, ScanState};
    use dpi_core::{ProtoConfig, ProtoFlow, ProtocolStats, ScopedRuleset};
    use dpi_rulesets::HTTP_MALFORMATIONS;

    /// Runs `wire` through detect → normalize → scan in `mtu`-sized
    /// in-order chunks and returns the matches.
    fn pipeline(
        rules: &ScopedRuleset,
        config: ProtoConfig,
        wire: &[u8],
        mtu: usize,
        stats: &mut ProtocolStats,
    ) -> Vec<Match> {
        let mut flow = ProtoFlow::new(ScanState::fresh(), config);
        let mut out = Vec::new();
        for chunk in wire.chunks(mtu.max(1)) {
            flow.deliver(
                chunk,
                false,
                stats,
                |lane, scan: &mut ScanState, bytes, out| {
                    rules.scan_chunk_into(lane, scan, bytes, out)
                },
                &mut out,
            );
        }
        out
    }

    let disabled = ProtoConfig {
        enabled: false,
        ..ProtoConfig::default()
    };

    // --- Evasion: every injected signature split by a chunk boundary.
    let sig_set =
        PatternSet::new(["attack-sig", "evil-payload", "cmd-exec-42"]).expect("valid patterns");
    let sig_rules = ScopedRuleset::build(&sig_set);
    let mut gen = TrafficGenerator::new(0x90A7);
    let stream = gen.chunked_evasion_stream(&sig_set, 24);
    let mut stats = ProtocolStats::default();
    let normalized = pipeline(&sig_rules, ProtoConfig::default(), &stream.wire, 1460, &mut stats);
    let caught = stream
        .injected
        .iter()
        .filter(|&&(id, end)| normalized.iter().any(|m| m.pattern == id && m.end == end))
        .count();
    assert_eq!(stats.unaccounted_bytes(), 0, "evasion ledger must balance");
    let mut raw_stats = ProtocolStats::default();
    let raw = pipeline(&sig_rules, disabled, &stream.wire, 1460, &mut raw_stats);
    println!(
        "chunk-boundary evasion: {} injected, normalized caught {}, raw scan caught {}",
        stream.injected.len(),
        caught,
        raw.len(),
    );
    assert_eq!(caught, stream.injected.len(), "normalizer must catch every split signature");
    assert!(raw.is_empty(), "the raw scan must miss every split signature");
    dpi_bench::bench_json_row("protocol/evasion-injected", stream.injected.len() as f64, 0);
    dpi_bench::bench_json_row("protocol/evasion-caught", caught as f64, 0);
    dpi_bench::bench_json_row("protocol/evasion-raw-caught", raw.len() as f64, 0);

    // --- Malformed sweep: fail open, count the downgrade, keep the
    // ledger balanced, still find the signature after the framing dies.
    let mut unaccounted_total = 0i64;
    let mut downgrades = 0u64;
    for &kind in HTTP_MALFORMATIONS {
        let mut wire = gen.malformed_http_stream(kind);
        wire.extend_from_slice(b"....attack-sig....");
        let mut stats = ProtocolStats::default();
        let got = pipeline(&sig_rules, ProtoConfig::default(), &wire, 7, &mut stats);
        assert!(
            got.iter().any(|m| m.pattern.index() == 0),
            "{kind:?}: signature after hostile framing must still be found"
        );
        assert_eq!(stats.delivered_bytes, wire.len() as u64);
        unaccounted_total += stats.unaccounted_bytes().abs();
        downgrades += stats.malformed_downgrades;
        println!(
            "  {kind:?}: downgrades {}, raw bytes {}, ledger {}",
            stats.malformed_downgrades,
            stats.raw_bytes,
            stats.unaccounted_bytes(),
        );
    }
    println!(
        "malformed sweep: {} shapes, {downgrades} downgrades, {unaccounted_total} unaccounted bytes",
        HTTP_MALFORMATIONS.len(),
    );
    assert_eq!(unaccounted_total, 0, "malformed sweep must not lose a byte");
    dpi_bench::bench_json_row("protocol/ledger-unaccounted", unaccounted_total as f64, 0);
    dpi_bench::bench_json_row("protocol/malformed-downgrades", downgrades as f64, 0);

    // --- Well-formed overhead: Content-Length framing decodes to the
    // wire bytes themselves, so normalizer-on and normalizer-off scan
    // identical streams and must report identical matches — the A/B
    // helper asserts that, and CI gates the timing pair at +10%.
    let rules = ScopedRuleset::build(&dpi_rulesets::extract_preserving(
        &master_ruleset(),
        300,
        0x0B07,
    ));
    let well = gen.http_stream(96, 8192, 0.0);
    let ab = ab_bench_row(
        "protocol/wellformed",
        well.wire.len(),
        30,
        || {
            let mut stats = ProtocolStats::default();
            pipeline(&rules, disabled, &well.wire, 1460, &mut stats).len()
        },
        || {
            let mut stats = ProtocolStats::default();
            pipeline(&rules, ProtoConfig::default(), &well.wire, 1460, &mut stats).len()
        },
    );
    println!(
        "well-formed overhead: raw {:.0} MB/s, normalized {:.0} MB/s ({:+.1}% overhead, {} matches)",
        well.wire.len() as f64 / ab.off_secs / 1e6,
        well.wire.len() as f64 / ab.on_secs / 1e6,
        (ab.on_secs / ab.off_secs - 1.0) * 100.0,
        ab.matches,
    );
}

/// In-band hot-swap drain stretch: how many extra lockstep steps a
/// stalled worker adds between the swap broadcast and the last worker
/// installing the new generation — measured clean vs under a
/// `SlowWorker` fault on the deterministic simulator, with the
/// byte-ledger asserted on both runs.
fn swap_drain() {
    use dpi_core::{
        FaultKind, FaultPlan, FlowKey, RulesetArena, ServiceConfig, ServiceSim, TwoStageConfig,
    };
    use std::sync::Arc;

    let set = dpi_rulesets::extract_preserving(&master_ruleset(), 200, 0x51AB);
    let config = TwoStageConfig::with_cores(1);
    let arena = Arc::new(RulesetArena::build(&set, &config, 1).expect("set fits"));
    const WORKERS: usize = 4;
    const STALL: u32 = 24;
    let mut gen = TrafficGenerator::new(0xD8A1);
    let packets = gen.packets(64, 1200, &set, 1);

    let run = |plan: FaultPlan| -> u64 {
        let mut svc = ServiceConfig::with_workers(WORKERS);
        svc.queue_cap = 512;
        let mut sim =
            ServiceSim::with_faults(Arc::clone(&arena), svc, plan).expect("valid sim config");
        let mut time = 0u64;
        for (i, p) in packets.iter().enumerate() {
            time += 1;
            sim.offer(FlowKey(i as u128), 0, &p.payload, time);
        }
        let generation = sim.hot_swap(&set, &config).expect("swap builds");
        let mut steps = 0u64;
        while sim.workers_at_generation(generation) < WORKERS {
            sim.step();
            steps += 1;
            assert!(steps < 100_000, "swap drain never completed");
        }
        let report = sim.finish();
        assert_eq!(report.stats.swaps, 1);
        assert_eq!(report.stats.workers.swaps as usize, WORKERS);
        assert_eq!(
            report.stats.scanned_bytes(),
            report.stats.admitted_bytes,
            "drain measurement must not lose bytes"
        );
        steps
    };

    let clean = run(FaultPlan::none());
    let stalled = run(FaultPlan::new(vec![(0, FaultKind::SlowWorker(0, STALL))]));
    assert!(
        stalled > clean,
        "a {STALL}-step stall must stretch the drain ({clean} -> {stalled})"
    );
    println!(
        "in-band swap drain over {WORKERS} workers, {} queued segments:",
        packets.len()
    );
    println!("  clean:                {clean} steps");
    println!("  SlowWorker({STALL} steps): {stalled} steps (+{})", stalled - clean);
    dpi_bench::bench_json_row("swap-drain/clean-steps", clean as f64, 0);
    dpi_bench::bench_json_row("swap-drain/stalled-steps", stalled as f64, 0);
    dpi_bench::bench_json_row("swap-drain/stretch-steps", (stalled - clean) as f64, 0);
}
