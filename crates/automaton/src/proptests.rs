//! In-crate property tests for the automaton substrate: structural
//! invariants of the trie, failure function and move function that the
//! rest of the workspace builds on.

#![cfg(test)]

use crate::{Dfa, Nfa, PatternSet, StateId, Trie};
use proptest::prelude::*;

fn pattern_vec() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(prop_oneof![Just(b'x'), Just(b'y'), Just(b'z'), any::<u8>()], 1..8),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trie: depth equals path length; parent/in_byte are consistent;
    /// BFS ids are depth-monotone.
    #[test]
    fn trie_structural_invariants(patterns in pattern_vec()) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let trie = Trie::build(&set);
        let mut prev_depth = 0;
        for (id, state) in trie.iter() {
            prop_assert_eq!(trie.path(id).len(), state.depth() as usize);
            prop_assert!(state.depth() >= prev_depth, "BFS order broken");
            prev_depth = state.depth();
            if let Some(parent) = state.parent() {
                let pstate = trie.state(parent);
                prop_assert_eq!(pstate.depth() + 1, state.depth());
                let back = pstate.child(state.in_byte().expect("non-root"));
                prop_assert_eq!(back, Some(id));
            }
        }
        // Every pattern's walk ends at a state marked terminal for it.
        for (pid, pattern) in set.iter() {
            let mut at = StateId::START;
            for &b in pattern {
                at = trie.state(at).child(b).expect("pattern path exists");
            }
            prop_assert!(trie.state(at).terminal().contains(&pid));
        }
    }

    /// Failure function: strictly shallower, and fail(s) is the longest
    /// proper suffix of path(s) that is itself a path in the trie.
    #[test]
    fn fail_links_are_longest_proper_suffixes(patterns in pattern_vec()) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let nfa = Nfa::build(&set);
        let trie = nfa.trie();
        // Collect all trie paths for membership checks.
        let paths: std::collections::HashMap<Vec<u8>, StateId> = trie
            .iter()
            .map(|(id, _)| (trie.path(id), id))
            .collect();
        for (id, state) in trie.iter() {
            if id == StateId::START {
                continue;
            }
            let f = nfa.fail(id);
            prop_assert!(trie.state(f).depth() < state.depth());
            let path = trie.path(id);
            let fail_path = trie.path(f);
            // fail path must be a proper suffix of path…
            prop_assert!(path.ends_with(&fail_path));
            prop_assert!(fail_path.len() < path.len());
            // …and no longer proper suffix may be a trie path.
            for start in 1..path.len() - fail_path.len() {
                prop_assert!(
                    !paths.contains_key(&path[start..]),
                    "missed longer suffix {:?}",
                    &path[start..]
                );
            }
        }
    }

    /// Move function vs. fail-function single steps agree from every state
    /// on every byte (the DFA is the NFA's fail-closure).
    #[test]
    fn dfa_equals_nfa_closure(patterns in pattern_vec()) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let nfa = Nfa::build(&set);
        let dfa = Dfa::from_nfa(&nfa);
        for i in 0..dfa.len() {
            let s = StateId(i as u32);
            for c in 0..=255u8 {
                prop_assert_eq!(dfa.step(s, c), nfa.step(s, c));
            }
        }
    }

    /// Output closure: outputs of a state = patterns whose bytes suffix
    /// the state's path.
    #[test]
    fn outputs_are_suffix_patterns(patterns in pattern_vec()) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let nfa = Nfa::build(&set);
        let trie = nfa.trie();
        for (id, _) in trie.iter() {
            let path = trie.path(id);
            let mut expected: Vec<_> = set
                .iter()
                .filter(|(_, p)| path.ends_with(p))
                .map(|(pid, _)| pid)
                .collect();
            expected.sort_unstable();
            let mut got = nfa.output(id).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, expected, "outputs at {:?}", path);
        }
    }

    /// NFA lookup accounting: total lookups ≥ bytes, and ≤ 2×bytes +
    /// max-depth (the classic amortized bound).
    #[test]
    fn nfa_lookup_amortized_bound(
        patterns in pattern_vec(),
        haystack in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let nfa = Nfa::build(&set);
        let m = crate::NfaMatcher::new(&nfa, &set);
        let counted = m.scan_counting(&haystack);
        prop_assert!(counted.lookups >= haystack.len());
        let bound = 2 * haystack.len() + nfa.trie().max_depth() as usize + 1;
        prop_assert!(
            counted.lookups <= bound,
            "lookups {} exceed amortized bound {}",
            counted.lookups,
            bound
        );
    }

    /// Splits partition the id space and preserve pattern bytes, for both
    /// strategies and any group count.
    #[test]
    fn splits_partition(patterns in pattern_vec(), groups in 1usize..6) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let groups = groups.min(set.len());
        for parts in [set.split(groups), set.split_by_prefix(groups)] {
            let mut seen = vec![false; set.len()];
            for (sub, ids) in &parts {
                prop_assert_eq!(sub.len(), ids.len());
                for (local, global) in ids.iter().enumerate() {
                    prop_assert!(!seen[global.index()], "duplicate assignment");
                    seen[global.index()] = true;
                    prop_assert_eq!(
                        sub.pattern(crate::PatternId(local as u32)),
                        set.pattern(*global)
                    );
                }
            }
            prop_assert!(seen.iter().all(|&b| b), "pattern lost in split");
        }
    }
}
