//! # dpi-core
//!
//! The primary contribution of "Ultra-High Throughput String Matching for
//! Deep Packet Inspection" (Kennedy, Wang, Liu & Liu, DATE 2010): memory
//! reduction of the full Aho-Corasick move-function DFA through **default
//! transition pointers** (DTPs).
//!
//! The full DFA guarantees one state lookup per input byte but stores an
//! enormous number of transition pointers, almost all of which point at a
//! few states near the start state. This crate removes those pointers from
//! per-state storage and replaces them with a shared 256-row
//! [`DefaultLut`]: per input character value, one depth-1 default, up to 4
//! depth-2 defaults (compared against the previous input byte) and 1
//! depth-3 default (compared against the previous two input bytes). On the
//! paper's Snort-derived rulesets this removes over 96 % of stored
//! pointers (Table II) while preserving *exact* DFA equivalence — verified
//! here exhaustively by [`ReducedAutomaton::verify_against`] — and, unlike
//! fail-pointer schemes, still consumes exactly one character per cycle.
//!
//! ## Quick example
//!
//! ```
//! use dpi_automaton::{Dfa, MultiMatcher, PatternSet};
//! use dpi_core::{DtpConfig, DtpMatcher, ReducedAutomaton};
//!
//! let set = PatternSet::new(["he", "she", "his", "hers"])?;
//! let dfa = Dfa::build(&set);
//! let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
//!
//! // Figure 2(C): a single stored pointer remains (avg 0.1 per state).
//! assert_eq!(reduced.stored_pointers(), 1);
//! // ... and matching behaviour is unchanged.
//! assert!(reduced.verify_against(&dfa).is_none());
//! let matches = DtpMatcher::new(&reduced, &set).find_all(b"ushers");
//! assert_eq!(matches.len(), 3);
//! # Ok::<(), dpi_automaton::PatternSetError>(())
//! ```
//!
//! ## Software fast path
//!
//! [`ReducedAutomaton`] + [`DtpMatcher`] are the *reference* runtime:
//! faithful to the build-time structure, easy to verify, deliberately
//! simple. Production scanning goes through the **compiled** layer
//! instead: [`CompiledAutomaton::compile`] flattens the reduced automaton
//! once into pointer-free parallel arrays — a CSR transition arena with
//! dense-row escalation, sentinel-padded branch-free default-transition
//! compare tables, and CSR match outputs — and [`CompiledMatcher`] scans
//! over it with a reusable match buffer ([`CompiledMatcher::scan_into`]),
//! a streaming visitor, and early-exit `is_match`/`count` paths.
//! [`CompiledAutomaton::compile_with_prefilter`] embeds the clean-traffic
//! lanes (the anchor-byte skip lane, optionally with a stride-2 pair
//! table); what the compiled automaton carries alone picks the scan loop.
//!
//! ## Scaling across cores
//!
//! Interleaving N packets round-robin through one automaton — the
//! software mirror of the paper's parallel engines — was measured and
//! deleted: software lanes contend for one cache where hardware engines
//! own their ports. That lesson picks the multi-core design: rather than
//! interleaving lanes through one big automaton, [`ShardedMatcher`]
//! splits the *pattern set* (prefix-grouped, cost-modeled against a
//! per-core cache budget — [`PatternSet::plan_shards`]), compiles one
//! small [`CompiledAutomaton`] per shard, and scans a payload through
//! every shard on the calling thread, merging matches back to global
//! pattern ids in canonical order. That is the software analogue of the
//! paper's per-block memories: each shard owns its automaton the way
//! each block owns its RAM. The cores themselves belong to [`Service`]:
//! each worker thread scans the flows steered to it, and no other call
//! in this crate spawns a thread. See the [`sharded`] module docs for
//! the two scan shapes (whole payload vs resumable per-flow chunks).
//!
//! [`PatternSet::plan_shards`]: dpi_automaton::PatternSet::plan_shards
//!
//! ```
//! use dpi_automaton::{Dfa, PatternSet};
//! use dpi_core::{CompiledAutomaton, CompiledMatcher, DtpConfig, ReducedAutomaton};
//!
//! let set = PatternSet::new(["he", "she", "his", "hers"])?;
//! let reduced = ReducedAutomaton::reduce(&Dfa::build(&set), DtpConfig::PAPER);
//! let compiled = CompiledAutomaton::compile(&reduced);
//! let matcher = CompiledMatcher::new(&compiled, &set);
//! let mut matches = Vec::new();
//! matcher.scan_into(b"ushers", &mut matches); // no per-scan allocation
//! assert_eq!(matches.len(), 3);
//! # Ok::<(), dpi_automaton::PatternSetError>(())
//! ```
//!
//! The compiled engine is byte-for-byte state-equivalent to [`DtpMatcher`]
//! (and hence to the full DFA) — asserted by the differential property
//! suites in `tests/equivalence.rs` and `tests/compiled_engine.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
pub mod flow;
mod lookup_table;
mod matcher;
mod proptests;
pub mod protocol;
pub mod reassembly;
mod reduce;
pub mod service;
pub mod sharded;
mod stats;
pub mod two_stage;

pub use compiled::{
    CompiledAutomaton, CompiledMatcher, DENSE_ROW_THRESHOLD, HIST_NONE, OUTPUT_FLAG, STATE_MASK,
};
pub use flow::{
    FlowConfigError, FlowKey, FlowLookup, FlowMatch, FlowPacket, FlowSegment, FlowState,
    FlowTable, FlowTableStats, DEFAULT_WAYS,
};
pub use lookup_table::{DefaultLut, Depth2Entry, Depth3Entry, DtpConfig, LutRow};
pub use matcher::DtpMatcher;
pub use protocol::{
    Lane, ProtoConfig, ProtoFlow, ProtocolId, ProtocolStats, ScopedRuleset,
    PROBE_MAX, TAG_ANY, TAG_HTTP, TAG_TLS,
};
pub use reassembly::{
    FlowReassembler, OverlapPolicy, ReassemblyConfig, ReassemblyConfigError, ReassemblyStats,
    StreamFlow,
};
pub use reduce::{ReducedAutomaton, ReductionMismatch, StoredTransitions};
pub use service::{
    ExactEngine, FaultKind, FaultPlan, FidelityTier, LadderConfig, LatencyHistogram, RulesetArena,
    Service, ServiceConfig, ServiceConfigError, ServiceReport, ServiceSim, ServiceStats,
    ShedConfig, TierScan, WorkerStats,
};
pub use sharded::{ShardedConfig, ShardedMatcher, ShardedScanState, ShardedScratch};
pub use stats::{ReductionReport, SplitReductionReport};
pub use two_stage::{TwoStageConfig, TwoStageMatcher, TwoStageScratch, TwoStageState, TwoStageStats};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DefaultLut>();
        assert_send_sync::<ReducedAutomaton>();
        assert_send_sync::<ReductionReport>();
        assert_send_sync::<DtpConfig>();
        assert_send_sync::<CompiledAutomaton>();
        assert_send_sync::<ShardedMatcher>();
        assert_send_sync::<ShardedConfig>();
    }
}
