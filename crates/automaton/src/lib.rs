//! # dpi-automaton
//!
//! Aho-Corasick multi-pattern matching substrate for the DATE 2010
//! reproduction ("Ultra-High Throughput String Matching for Deep Packet
//! Inspection", Kennedy, Wang, Liu & Liu).
//!
//! This crate provides the *unmodified* algorithms the paper builds on and
//! compares against:
//!
//! - [`Trie`] — the keyword trie (Aho-Corasick *goto function*), states in
//!   breadth-first order;
//! - [`Nfa`] — classic Aho-Corasick with a **failure function**: minimal
//!   memory, but a variable number of state lookups per input byte
//!   (measured by [`NfaMatcher::scan_counting`]);
//! - [`Dfa`] — the full **move function** DFA: one lookup per byte,
//!   guaranteed, at the cost of dense transition storage. This is the
//!   starting point of the paper's memory reduction (crate `dpi-core`);
//! - [`NaiveMatcher`] — brute-force ground truth for differential tests;
//! - [`DfaStats`] — the "stored transition pointer" census reported in
//!   Table II for the original algorithm;
//! - [`AnchorSet`] — build-time anchor-byte analysis of the DFA (which
//!   bytes can pull the automaton out of its shallow region), the basis
//!   of the compiled engine's clean-traffic skip lane;
//! - [`PairTable`] — the 16 KiB region pair rows (calm and follow
//!   bitmaps over byte pairs from the anchor analysis's shallow
//!   region), the basis of the compiled engine's stride-2 lane.
//!
//! ## Quick example
//!
//! ```
//! use dpi_automaton::{Dfa, DfaMatcher, MultiMatcher, PatternSet};
//!
//! // Figure 1 of the paper.
//! let set = PatternSet::new(["he", "she", "his", "hers"])?;
//! let dfa = Dfa::build(&set);
//! let matches = DfaMatcher::new(&dfa, &set).find_all(b"ushers");
//! assert_eq!(matches.len(), 3); // she, he, hers
//! # Ok::<(), dpi_automaton::PatternSetError>(())
//! ```

// The `simd` feature admits `unsafe` in exactly one module (`simd`,
// runtime-detected intrinsics); the portable build still forbids it
// outright, and even with the feature on, `deny` keeps every unsafe
// block behind an explicit per-item `allow` in that module.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod anchor;
mod approx;
mod dfa;
mod match_event;
mod naive;
mod nfa;
mod pair;
mod pattern;
mod proptests;
mod shard;
// x86 SIMD classification kernels behind the `simd` cargo feature; see
// the module docs. (No outer doc comment: rustdoc resolves merged
// outer+inner module docs in the parent scope, breaking the module's
// intra-doc links.)
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub mod simd;
mod stats;
mod stream;
mod trie;

pub use anchor::AnchorSet;
pub use approx::{ApproxConfig, ApproxState, Flag, PrefixCover};
pub use dfa::{Dfa, DfaMatcher};
pub use match_event::{Match, MultiMatcher};
pub use naive::NaiveMatcher;
pub use nfa::{CountedScan, Nfa, NfaMatcher};
pub use pair::PairTable;
pub use pattern::{PatternId, PatternSet, PatternSetError, MAX_PATTERN_LEN};
pub use shard::{ShardCostModel, ShardPlan, ShardPlanError, ShardSpec, SplitStrategy};
pub use stats::DfaStats;
pub use stream::ScanState;
pub use trie::{StateId, Trie, TrieState};

/// Whether the SIMD scan kernels can run here: the crate was built with
/// the `simd` feature on an x86_64 target **and** the running CPU
/// supports SSSE3. Portable builds return `false` and every matcher
/// uses the safe scalar lanes.
pub fn simd_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        simd::SimdToken::detect().is_some()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PatternSet>();
        assert_send_sync::<Trie>();
        assert_send_sync::<Nfa>();
        assert_send_sync::<Dfa>();
        assert_send_sync::<Match>();
        assert_send_sync::<DfaStats>();
    }

    #[test]
    fn debug_is_never_empty() {
        let set = PatternSet::new(["a"]).unwrap();
        assert!(!format!("{set:?}").is_empty());
        assert!(!format!("{:?}", StateId::START).is_empty());
        assert!(!format!("{:?}", PatternId(0)).is_empty());
    }
}
