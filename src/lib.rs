//! # dpi-accel
//!
//! A production-quality Rust reproduction of **"Ultra-High Throughput
//! String Matching for Deep Packet Inspection"** (Alan Kennedy, Xiaojun
//! Wang, Zhen Liu, Bin Liu — DATE 2010): an Aho-Corasick-based fixed-string
//! matching accelerator that guarantees one input character per clock cycle
//! and cuts transition-pointer storage by over 96 % with **default
//! transition pointers**, packaged with a bit-exact hardware memory layout,
//! a cycle-accurate simulator of its FPGA architecture, the Tuck et al.
//! baselines it is compared against, and a benchmark harness regenerating
//! every table and figure of the paper.
//!
//! This crate is a facade re-exporting the workspace's subsystems:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`automaton`] | `dpi-automaton` | patterns, trie, AC NFA/DFA, naive matcher |
//! | [`core`] | `dpi-core` | default-transition-pointer reduction (the paper's contribution) |
//! | [`hw`] | `dpi-hw` | 324-bit words, 15 state types, match & lookup-table memories |
//! | [`sim`] | `dpi-sim` | cycle-accurate engines / blocks / accelerator |
//! | [`baselines`] | `dpi-baselines` | Tuck et al. bitmap & path-compressed AC |
//! | [`rulesets`] | `dpi-rulesets` | Snort-like workloads (Figure 6), traffic generators |
//! | [`fpga`] | `dpi-fpga` | device, resource (Table I) and power (Figures 7–8) models |
//!
//! ## Quickstart
//!
//! ```
//! use dpi_accel::prelude::*;
//!
//! // Build the paper's Figure 1 example and scan a packet end to end on
//! // the simulated Stratix 3 accelerator.
//! let set = PatternSet::new(["he", "she", "his", "hers"])?;
//! let acc = Accelerator::build(&set, AcceleratorConfig::STRATIX3)?;
//! let report = acc.scan(&[b"ushers".to_vec()]);
//! assert_eq!(report.matches.len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dpi_automaton as automaton;
pub use dpi_baselines as baselines;
pub use dpi_core as core;
pub use dpi_fpga as fpga;
pub use dpi_hw as hw;
pub use dpi_rulesets as rulesets;
pub use dpi_sim as sim;

/// Compiles and runs the README's code blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use dpi_automaton::{
        AnchorSet, Dfa, DfaMatcher, Match, MultiMatcher, Nfa, NfaMatcher, PairTable, PatternId,
        PatternSet, ScanState, StateId,
    };
    pub use dpi_automaton::{ShardPlan, ShardPlanError, ShardSpec, SplitStrategy};
    pub use dpi_core::{
        CompiledAutomaton, CompiledMatcher, DtpConfig, DtpMatcher, FlowKey, FlowLookup, FlowMatch,
        FlowPacket, FlowReassembler, FlowSegment, FlowTable, FlowTableStats, OverlapPolicy,
        ReassemblyConfig, ReassemblyStats, ReducedAutomaton, ReductionReport, ShardedConfig,
        ShardedMatcher, ShardedScanState, ShardedScratch, StreamFlow, TwoStageConfig,
        TwoStageMatcher, TwoStageScratch, TwoStageState, TwoStageStats,
    };
    pub use dpi_core::{
        ExactEngine, FaultKind, FaultPlan, FidelityTier, LadderConfig, LatencyHistogram,
        RulesetArena, Service, ServiceConfig, ServiceReport, ServiceSim, ServiceStats, ShedConfig,
    };
    pub use dpi_core::{
        Lane, ProtoConfig, ProtoFlow, ProtocolId, ProtocolStats, ScopedRuleset,
        TAG_ANY, TAG_HTTP, TAG_TLS,
    };
    pub use dpi_hw::{HwImage, HwMatcher};
    pub use dpi_rulesets::{paper_ruleset, PaperRuleset, RulesetGenerator, TrafficGenerator};
    pub use dpi_sim::{Accelerator, AcceleratorConfig};
}
