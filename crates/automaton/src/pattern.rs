//! Pattern and pattern-set types shared by every matcher in the workspace.
//!
//! A [`PatternSet`] is the validated input to all automaton builders: a
//! non-empty collection of unique, non-empty byte strings. The DATE 2010
//! hardware assigns each string a 13-bit *string number*; that limit is not
//! enforced here (it is a property of the hardware image, checked by
//! `dpi-hw`), but pattern identifiers are stable indices into the set so the
//! mapping to string numbers is trivial.

use std::fmt;

/// Identifier of a pattern within a [`PatternSet`].
///
/// Pattern identifiers are dense indices: the i-th pattern handed to
/// [`PatternSet::new`] receives id `i`. The hardware's *string numbers* are
/// exactly these indices (offset per block when a ruleset is split across
/// string matching blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(pub u32);

impl PatternId {
    /// Returns the id as a `usize` index.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpi_automaton::PatternId;
    /// assert_eq!(PatternId(3).index(), 3);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Maximum accepted pattern length in bytes.
///
/// Snort content strings top out well below this (the paper's Figure 6 shows
/// a "50+" bucket); the cap merely keeps state depths comfortably inside the
/// `u16` used for depth bookkeeping.
pub const MAX_PATTERN_LEN: usize = 4096;

/// Error returned when a [`PatternSet`] cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternSetError {
    /// The set contained no patterns at all.
    Empty,
    /// The pattern at `index` was the empty string.
    EmptyPattern {
        /// Position of the offending pattern in the input iterator.
        index: usize,
    },
    /// The pattern at `index` exceeded [`MAX_PATTERN_LEN`].
    TooLong {
        /// Position of the offending pattern in the input iterator.
        index: usize,
        /// Its length in bytes.
        len: usize,
    },
    /// The pattern at `index` is byte-for-byte identical (after any case
    /// folding) to the pattern at `first`.
    Duplicate {
        /// Position of the duplicate.
        index: usize,
        /// Position of the earlier, identical pattern.
        first: usize,
    },
}

impl fmt::Display for PatternSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternSetError::Empty => write!(f, "pattern set contains no patterns"),
            PatternSetError::EmptyPattern { index } => {
                write!(f, "pattern {index} is empty")
            }
            PatternSetError::TooLong { index, len } => {
                write!(
                    f,
                    "pattern {index} is {len} bytes long, exceeding the maximum of {MAX_PATTERN_LEN}"
                )
            }
            PatternSetError::Duplicate { index, first } => {
                write!(f, "pattern {index} duplicates pattern {first}")
            }
        }
    }
}

impl std::error::Error for PatternSetError {}

/// A validated, ordered collection of unique byte-string patterns.
///
/// This is the single input type for every matcher in the workspace: the
/// classic Aho-Corasick NFA and full DFA (`dpi-automaton`), the
/// default-transition-pointer matcher (`dpi-core`), the Tuck et al. baselines
/// (`dpi-baselines`) and the hardware image builder (`dpi-hw`).
///
/// # Case-insensitive matching
///
/// Snort content rules may be marked `nocase`. [`PatternSet::new_nocase`]
/// folds the patterns to ASCII lowercase at construction; matchers built from
/// such a set fold every input byte the same way during the scan, so reported
/// match positions refer to the original input.
///
/// # Examples
///
/// ```
/// use dpi_automaton::PatternSet;
///
/// let set = PatternSet::new(["he", "she", "his", "hers"])?;
/// assert_eq!(set.len(), 4);
/// assert_eq!(set.pattern(dpi_automaton::PatternId(1)), b"she");
/// # Ok::<(), dpi_automaton::PatternSetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSet {
    patterns: Vec<Vec<u8>>,
    case_insensitive: bool,
    total_bytes: usize,
    /// One opaque scope tag per pattern (same order as `patterns`).
    /// Tag `0` is the untagged default. The automaton layer attaches no
    /// meaning to tags; higher layers use them to scope which patterns
    /// may report (e.g. `dpi-core`'s protocol scoping, where tag 1 marks
    /// HTTP-only rules and tag 2 TLS-only rules).
    /// Tags participate in equality and survive [`PatternSet::split`] /
    /// [`PatternSet::split_by_prefix`].
    tags: Vec<u32>,
}

impl PatternSet {
    /// Builds a case-sensitive pattern set.
    ///
    /// # Errors
    ///
    /// Returns [`PatternSetError`] if the iterator is empty, any pattern is
    /// empty or longer than [`MAX_PATTERN_LEN`], or two patterns are
    /// identical.
    pub fn new<I, P>(patterns: I) -> Result<Self, PatternSetError>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        Self::build(patterns, false)
    }

    /// Builds a case-insensitive (ASCII `nocase`) pattern set.
    ///
    /// Patterns are folded to lowercase; two patterns that collide after
    /// folding are reported as duplicates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PatternSet::new`].
    pub fn new_nocase<I, P>(patterns: I) -> Result<Self, PatternSetError>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        Self::build(patterns, true)
    }

    /// Builds a case-sensitive set, silently dropping duplicate patterns.
    ///
    /// Useful when ingesting raw rule dumps where the same content string
    /// appears in several rules; the paper likewise works on *unique*
    /// strings.
    ///
    /// # Errors
    ///
    /// Returns [`PatternSetError`] for empty input, empty patterns or
    /// over-long patterns (duplicates are not an error here).
    pub fn dedup_from<I, P>(patterns: I) -> Result<Self, PatternSetError>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        let mut seen = std::collections::HashSet::new();
        let unique: Vec<Vec<u8>> = patterns
            .into_iter()
            .map(|p| p.as_ref().to_vec())
            .filter(|p| seen.insert(p.clone()))
            .collect();
        Self::build(unique, false)
    }

    fn build<I, P>(patterns: I, case_insensitive: bool) -> Result<Self, PatternSetError>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        let mut out: Vec<Vec<u8>> = Vec::new();
        let mut seen: std::collections::HashMap<Vec<u8>, usize> = std::collections::HashMap::new();
        let mut total_bytes = 0usize;
        for (index, p) in patterns.into_iter().enumerate() {
            let mut bytes = p.as_ref().to_vec();
            if case_insensitive {
                for b in &mut bytes {
                    *b = b.to_ascii_lowercase();
                }
            }
            if bytes.is_empty() {
                return Err(PatternSetError::EmptyPattern { index });
            }
            if bytes.len() > MAX_PATTERN_LEN {
                return Err(PatternSetError::TooLong {
                    index,
                    len: bytes.len(),
                });
            }
            if let Some(&first) = seen.get(&bytes) {
                return Err(PatternSetError::Duplicate { index, first });
            }
            seen.insert(bytes.clone(), index);
            total_bytes += bytes.len();
            out.push(bytes);
        }
        if out.is_empty() {
            return Err(PatternSetError::Empty);
        }
        let tags = vec![0u32; out.len()];
        Ok(PatternSet {
            patterns: out,
            case_insensitive,
            total_bytes,
            tags,
        })
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` if the set holds no patterns.
    ///
    /// Always `false` for a successfully constructed set; provided for
    /// API completeness (`C-ITER`-adjacent convention).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Total number of pattern bytes (the paper characterizes rulesets by
    /// their character count, e.g. the 19,124-character set of Table III).
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Whether this set matches case-insensitively.
    pub fn is_case_insensitive(&self) -> bool {
        self.case_insensitive
    }

    /// The (possibly case-folded) bytes of pattern `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this set.
    pub fn pattern(&self, id: PatternId) -> &[u8] {
        &self.patterns[id.index()]
    }

    /// Length in bytes of pattern `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this set.
    pub fn pattern_len(&self, id: PatternId) -> usize {
        self.patterns[id.index()].len()
    }

    /// Iterates over `(PatternId, bytes)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PatternId, &[u8])> {
        self.patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (PatternId(i as u32), p.as_slice()))
    }

    /// The scope tag of pattern `id` (`0` when never tagged).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this set.
    pub fn tag(&self, id: PatternId) -> u32 {
        self.tags[id.index()]
    }

    /// Sets the scope tag of pattern `id`. Tags are opaque to the
    /// automaton layer; see the field docs on [`PatternSet`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this set.
    pub fn set_tag(&mut self, id: PatternId, tag: u32) {
        self.tags[id.index()] = tag;
    }

    /// Builder-style tagging: assigns `tag` to every id in `ids` and
    /// returns the set.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn with_tag(mut self, tag: u32, ids: impl IntoIterator<Item = PatternId>) -> PatternSet {
        for id in ids {
            self.set_tag(id, tag);
        }
        self
    }

    /// Folds one input byte according to this set's case mode.
    ///
    /// Matchers call this on every haystack byte so that `nocase` sets match
    /// case-insensitively without copying the haystack.
    #[inline]
    pub fn fold(&self, byte: u8) -> u8 {
        if self.case_insensitive {
            byte.to_ascii_lowercase()
        } else {
            byte
        }
    }

    /// Splits the set into `groups` subsets, keeping patterns that share a
    /// first byte in the same subset whenever possible.
    ///
    /// Grouping by starting character minimizes duplicated shallow states
    /// across blocks — the paper's per-block depth-1 default counts (Table
    /// II's `d1` row: 110 entries across six blocks for the 6,275-string
    /// set, barely above the ruleset's count of distinct start bytes) are
    /// only achievable with such a split. Start-byte clusters are
    /// bin-packed by total bytes (largest cluster first, into the currently
    /// lightest group).
    ///
    /// Returns the same `(PatternSet, ids)` shape as [`PatternSet::split`].
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or exceeds the number of patterns.
    pub fn split_by_prefix(&self, groups: usize) -> Vec<(PatternSet, Vec<PatternId>)> {
        assert!(groups > 0, "groups must be non-zero");
        assert!(
            groups <= self.len(),
            "cannot split {} patterns into {} groups",
            self.len(),
            groups
        );
        // Cluster pattern indices by first byte.
        let mut clusters: std::collections::BTreeMap<u8, (Vec<usize>, usize)> = Default::default();
        for (i, p) in self.patterns.iter().enumerate() {
            let entry = clusters.entry(p[0]).or_default();
            entry.0.push(i);
            entry.1 += p.len();
        }
        let mut clusters: Vec<(Vec<usize>, usize)> = clusters.into_values().collect();
        clusters.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
        // Bin-pack: largest cluster into the lightest group. Oversized
        // clusters (heavier than a fair share) are split across groups.
        let fair = self.total_bytes().div_ceil(groups);
        let mut buckets: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), 0); groups];
        for (members, bytes) in clusters {
            if bytes > fair && members.len() > 1 {
                // Distribute an oversized cluster round-robin by weight.
                for idx in members {
                    let lightest = buckets
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, b))| *b)
                        .map(|(i, _)| i)
                        .expect("groups > 0");
                    buckets[lightest].0.push(idx);
                    buckets[lightest].1 += self.patterns[idx].len();
                }
            } else {
                let lightest = buckets
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, b))| *b)
                    .map(|(i, _)| i)
                    .expect("groups > 0");
                buckets[lightest].1 += bytes;
                buckets[lightest].0.extend(members);
            }
        }
        // An empty bucket can occur when clusters < groups; steal singles.
        for i in 0..groups {
            if buckets[i].0.is_empty() {
                let donor = buckets
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (m, _))| m.len())
                    .map(|(j, _)| j)
                    .expect("groups > 0");
                let idx = buckets[donor].0.pop().expect("donor has >1 member");
                let len = self.patterns[idx].len();
                buckets[donor].1 -= len;
                buckets[i].0.push(idx);
                buckets[i].1 += len;
            }
        }
        buckets
            .into_iter()
            .map(|(mut bucket, _)| {
                bucket.sort_unstable();
                let ids: Vec<PatternId> = bucket.iter().map(|&i| PatternId(i as u32)).collect();
                let patterns: Vec<Vec<u8>> =
                    bucket.iter().map(|&i| self.patterns[i].clone()).collect();
                let tags: Vec<u32> = bucket.iter().map(|&i| self.tags[i]).collect();
                let total_bytes = patterns.iter().map(Vec::len).sum();
                (
                    PatternSet {
                        patterns,
                        case_insensitive: self.case_insensitive,
                        total_bytes,
                        tags,
                    },
                    ids,
                )
            })
            .collect()
    }

    /// Splits the set into `groups` nearly-equal subsets for multi-block
    /// deployment, preserving pattern order within each subset.
    ///
    /// The paper splits large rulesets across string matching blocks so each
    /// block's state machine fits its memory. Splitting is round-robin over
    /// patterns sorted by length (longest first), which balances the state
    /// counts of the resulting automata. Returns one `(PatternSet, ids)`
    /// pair per group, where `ids[i]` is the id in `self` of the group's
    /// i-th pattern (needed to translate per-block string numbers back to
    /// global pattern ids).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or exceeds the number of patterns.
    pub fn split(&self, groups: usize) -> Vec<(PatternSet, Vec<PatternId>)> {
        assert!(groups > 0, "groups must be non-zero");
        assert!(
            groups <= self.len(),
            "cannot split {} patterns into {} groups",
            self.len(),
            groups
        );
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.patterns[i].len()));
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); groups];
        for (k, idx) in order.into_iter().enumerate() {
            buckets[k % groups].push(idx);
        }
        buckets
            .into_iter()
            .map(|mut bucket| {
                bucket.sort_unstable();
                let ids: Vec<PatternId> = bucket.iter().map(|&i| PatternId(i as u32)).collect();
                let patterns: Vec<Vec<u8>> =
                    bucket.iter().map(|&i| self.patterns[i].clone()).collect();
                let tags: Vec<u32> = bucket.iter().map(|&i| self.tags[i]).collect();
                let total_bytes = patterns.iter().map(Vec::len).sum();
                (
                    PatternSet {
                        patterns,
                        case_insensitive: self.case_insensitive,
                        total_bytes,
                        tags,
                    },
                    ids,
                )
            })
            .collect()
    }
}

impl<'a> IntoIterator for &'a PatternSet {
    type Item = (PatternId, &'a [u8]);
    type IntoIter = Box<dyn Iterator<Item = (PatternId, &'a [u8])> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_indexes() {
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert_eq!(set.pattern(PatternId(0)), b"he");
        assert_eq!(set.pattern(PatternId(3)), b"hers");
        assert_eq!(set.total_bytes(), 2 + 3 + 3 + 4);
        assert_eq!(set.pattern_len(PatternId(3)), 4);
    }

    #[test]
    fn tags_survive_splits() {
        let set = PatternSet::new(["he", "she", "his", "hers"])
            .unwrap()
            .with_tag(1, [PatternId(1), PatternId(3)]);
        assert_eq!(set.tag(PatternId(0)), 0);
        assert_eq!(set.tag(PatternId(1)), 1);

        for (shard, ids) in set.split(2) {
            for (local, global) in ids.iter().enumerate() {
                assert_eq!(shard.tag(PatternId(local as u32)), set.tag(*global));
            }
        }
    }

    #[test]
    fn rejects_empty_set() {
        let none: [&str; 0] = [];
        assert_eq!(PatternSet::new(none), Err(PatternSetError::Empty));
    }

    #[test]
    fn rejects_empty_pattern() {
        assert_eq!(
            PatternSet::new(["a", ""]),
            Err(PatternSetError::EmptyPattern { index: 1 })
        );
    }

    #[test]
    fn rejects_duplicates_with_positions() {
        assert_eq!(
            PatternSet::new(["ab", "cd", "ab"]),
            Err(PatternSetError::Duplicate { index: 2, first: 0 })
        );
    }

    #[test]
    fn rejects_too_long() {
        let long = vec![b'x'; MAX_PATTERN_LEN + 1];
        let err = PatternSet::new([long.as_slice()]).unwrap_err();
        assert!(matches!(err, PatternSetError::TooLong { index: 0, .. }));
    }

    #[test]
    fn nocase_folds_and_detects_folded_duplicates() {
        let set = PatternSet::new_nocase(["AbC"]).unwrap();
        assert_eq!(set.pattern(PatternId(0)), b"abc");
        assert!(set.is_case_insensitive());
        assert_eq!(set.fold(b'Z'), b'z');
        assert_eq!(
            PatternSet::new_nocase(["AB", "ab"]),
            Err(PatternSetError::Duplicate { index: 1, first: 0 })
        );
    }

    #[test]
    fn case_sensitive_fold_is_identity() {
        let set = PatternSet::new(["ab"]).unwrap();
        assert_eq!(set.fold(b'Z'), b'Z');
    }

    #[test]
    fn dedup_from_drops_duplicates() {
        let set = PatternSet::dedup_from(["ab", "cd", "ab", "ef", "cd"]).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.pattern(PatternId(2)), b"ef");
    }

    #[test]
    fn iter_yields_in_id_order() {
        let set = PatternSet::new(["x", "yy", "zzz"]).unwrap();
        let collected: Vec<(u32, usize)> = set.iter().map(|(id, p)| (id.0, p.len())).collect();
        assert_eq!(collected, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn split_partitions_all_patterns_exactly_once() {
        let strings: Vec<String> = (0..25).map(|i| format!("pattern{i:03}")).collect();
        let set = PatternSet::new(&strings).unwrap();
        let parts = set.split(4);
        assert_eq!(parts.len(), 4);
        let mut seen: Vec<u32> = parts
            .iter()
            .flat_map(|(_, ids)| ids.iter().map(|id| id.0))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..25).collect::<Vec<_>>());
        // Every group's local pattern i equals the global pattern ids[i].
        for (sub, ids) in &parts {
            for (local, global) in ids.iter().enumerate() {
                assert_eq!(sub.pattern(PatternId(local as u32)), set.pattern(*global));
            }
        }
    }

    #[test]
    fn split_balances_total_bytes() {
        // 20 patterns with wildly varying lengths; longest-first round robin
        // keeps group byte totals within ~2x of each other.
        let strings: Vec<String> = (1..=20).map(|i| "x".repeat(i * 3)).collect();
        let set = PatternSet::new(&strings).unwrap();
        let parts = set.split(4);
        let totals: Vec<usize> = parts.iter().map(|(s, _)| s.total_bytes()).collect();
        let max = *totals.iter().max().unwrap();
        let min = *totals.iter().min().unwrap();
        assert!(max <= 2 * min, "imbalanced split: {totals:?}");
    }

    #[test]
    #[should_panic(expected = "groups must be non-zero")]
    fn split_zero_groups_panics() {
        let set = PatternSet::new(["a"]).unwrap();
        let _ = set.split(0);
    }

    #[test]
    fn prefix_split_partitions_exactly_once() {
        let strings: Vec<String> = (0..30)
            .map(|i| format!("{}tail{i}", (b'a' + (i % 6) as u8) as char))
            .collect();
        let set = PatternSet::new(&strings).unwrap();
        let parts = set.split_by_prefix(3);
        let mut seen: Vec<u32> = parts
            .iter()
            .flat_map(|(_, ids)| ids.iter().map(|id| id.0))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn prefix_split_keeps_start_bytes_together() {
        // 6 start bytes, 3 groups: each start byte should live in exactly
        // one group (clusters are small enough not to be split).
        let strings: Vec<String> = (0..60)
            .map(|i| format!("{}tail{i:03}", (b'a' + (i % 6) as u8) as char))
            .collect();
        let set = PatternSet::new(&strings).unwrap();
        let parts = set.split_by_prefix(3);
        let mut homes: std::collections::HashMap<u8, std::collections::HashSet<usize>> =
            Default::default();
        for (g, (sub, _)) in parts.iter().enumerate() {
            for (_, p) in sub.iter() {
                homes.entry(p[0]).or_default().insert(g);
            }
        }
        for (byte, groups) in homes {
            assert_eq!(groups.len(), 1, "start byte {byte} split across groups");
        }
    }

    #[test]
    fn prefix_split_fills_every_group() {
        // Single start byte, many patterns: the oversized cluster is
        // distributed so no group is empty.
        let strings: Vec<String> = (0..20).map(|i| format!("x{i:04}")).collect();
        let set = PatternSet::new(&strings).unwrap();
        let parts = set.split_by_prefix(4);
        for (sub, _) in &parts {
            assert!(!sub.is_empty());
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(PatternId(7).to_string(), "P7");
        let err = PatternSetError::Duplicate { index: 2, first: 0 };
        assert!(err.to_string().contains("duplicates"));
    }
}
