//! Shard planning: splitting one [`PatternSet`] into several smaller sets
//! whose *compiled* automata each fit a per-core cache budget.
//!
//! PR 1 measured why this exists: interleaving scan lanes *within* one
//! core (the software rendering of the paper's engine phasing) loses on
//! large automata, because all lanes walk one big state machine through
//! one shared cache — where the paper's hardware gives every engine its
//! own memory ports. The correct software analogue of the paper's
//! *per-block memories* is therefore the split the paper itself applies
//! to oversized rulesets (§IV.B): partition the patterns, build one
//! independent automaton per partition, and size each partition to fit
//! one core's L1/L2 the way the paper sizes it to a block RAM.
//!
//! [`PatternSet::plan_shards`] chooses that partition. It prefers
//! [`PatternSet::split_by_prefix`] (keeping a start byte's patterns
//! together minimizes duplicated shallow states, exactly as it minimizes
//! per-block depth-1 LUT entries in the hardware planner) and falls back
//! to the length-balanced [`PatternSet::split`] when the prefix
//! clustering skews — e.g. when most bytes live under one start
//! character, a shape real Snort content sets do exhibit. Shard sizes are
//! judged by [`ShardCostModel`], a calibrated estimate of the flat arena
//! bytes `dpi-core`'s compiled automaton will occupy, so the planner can
//! run *before* any automaton is built (building first and measuring
//! would cost more than the plan is worth: DFA construction dominates
//! compile time).

use crate::pattern::{PatternId, PatternSet};

/// Which split produced a [`ShardPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// [`PatternSet::split_by_prefix`]: start-byte clusters bin-packed by
    /// weight — the default, minimizing duplicated shallow states.
    Prefix,
    /// [`PatternSet::split`]: longest-first round-robin — the fallback
    /// when prefix clustering leaves one shard far above its fair share.
    RoundRobin,
}

impl std::fmt::Display for SplitStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitStrategy::Prefix => write!(f, "prefix"),
            SplitStrategy::RoundRobin => write!(f, "round-robin"),
        }
    }
}

/// Linear model of the flat-memory bytes a compiled automaton occupies,
/// used to size shards without building them.
///
/// `dpi-core`'s compiled form (see its `CompiledAutomaton::memory_bytes`)
/// is a fixed 256-row default-transition table plus per-state CSR
/// entries. States of an Aho-Corasick automaton are exactly the distinct
/// pattern prefixes plus the start state — [`PatternSet::trie_states`]
/// counts them without building anything — so the estimate is
/// `fixed_bytes + bytes_per_state × trie_states`.
///
/// # Examples
///
/// ```
/// use dpi_automaton::{PatternSet, ShardCostModel};
/// let set = PatternSet::new(["he", "she", "his", "hers"])?;
/// let model = ShardCostModel::default();
/// // 10 states (Figure 1) dominated by the fixed LUT at this size.
/// assert!(model.estimate(&set) > 11_000);
/// # Ok::<(), dpi_automaton::PatternSetError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCostModel {
    /// Size-independent bytes: the 256-row compiled LUT under the paper's
    /// `k2 = 4, k3 = 1` configuration is `256 × 11 × 4 = 11,264` bytes.
    pub fixed_bytes: usize,
    /// Bytes per automaton state: three `u32` offset/index entries (12)
    /// plus CSR keys/targets and match-output words. Measured against
    /// `CompiledAutomaton::memory_bytes` on the paper-style rulesets the
    /// real slope runs ~17 B/state at 300 strings up to ~29 B/state at
    /// 6,275 (larger sets store more pointers per state); the default is
    /// calibrated to the large end, where shard planning actually binds,
    /// and deliberately over-estimates small sets (erring toward smaller
    /// shards, never over-budget ones).
    pub bytes_per_state: usize,
}

impl Default for ShardCostModel {
    fn default() -> Self {
        ShardCostModel {
            fixed_bytes: 11_264,
            bytes_per_state: 26,
        }
    }
}

impl ShardCostModel {
    /// Estimated compiled-arena bytes for `set`.
    pub fn estimate(&self, set: &PatternSet) -> usize {
        self.fixed_bytes + self.bytes_per_state * set.trie_states()
    }
}

/// Why a shard plan could not be produced.
///
/// Patterns are atomic: a shard must hold each of its patterns whole, so
/// no shard count can push a shard's estimate below the cost of its
/// single most expensive pattern. When even that floor exceeds the
/// per-shard budget the request is unsatisfiable and
/// [`PatternSet::plan_shards`] reports it as this structured error
/// (instead of panicking or silently returning an over-budget plan the
/// caller would deploy believing it cache-resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlanError {
    /// One pattern alone estimates above the per-shard budget.
    PatternExceedsBudget {
        /// The offending pattern.
        pattern: PatternId,
        /// Its length in bytes.
        pattern_len: usize,
        /// Estimated compiled-arena bytes of a shard holding only it.
        estimated_bytes: usize,
        /// The per-shard budget it exceeds.
        budget_bytes: usize,
    },
}

impl std::fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPlanError::PatternExceedsBudget {
                pattern,
                pattern_len,
                estimated_bytes,
                budget_bytes,
            } => write!(
                f,
                "pattern {pattern} ({pattern_len} bytes) alone estimates \
                 {estimated_bytes} arena bytes, exceeding the {budget_bytes}-byte \
                 per-shard budget; no shard count can satisfy this spec"
            ),
        }
    }
}

impl std::error::Error for ShardPlanError {}

/// Inputs to [`PatternSet::plan_shards`].
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// Preferred shard count. The planner starts here and only adds
    /// shards, in steps of this hint, while any shard's estimate exceeds
    /// `budget_bytes`.
    pub shards_hint: usize,
    /// Per-shard arena budget in bytes — the cache level each shard
    /// should fit (typically L2; the default is 1 MiB — conservative for
    /// current per-core L2 sizes while keeping the shard count, and with
    /// it the shards-times-payload work multiplier, as low as possible).
    pub budget_bytes: usize,
    /// Hard ceiling on shard count (also capped by the pattern count).
    pub max_shards: usize,
    /// Maximum tolerated ratio of the largest shard estimate to the fair
    /// share before the prefix split is abandoned for the round-robin
    /// split.
    pub skew_limit: f64,
    /// Arena-byte model used to judge shard sizes.
    pub model: ShardCostModel,
}

impl ShardSpec {
    /// A spec starting at `cores` shards, with default budget, cap and
    /// skew tolerance.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpi_automaton::ShardSpec;
    /// let spec = ShardSpec::for_cores(4);
    /// assert_eq!(spec.shards_hint, 4);
    /// assert_eq!(spec.budget_bytes, 1024 * 1024);
    /// ```
    pub fn for_cores(cores: usize) -> ShardSpec {
        ShardSpec {
            shards_hint: cores.max(1),
            budget_bytes: 1024 * 1024,
            max_shards: 64,
            skew_limit: 1.5,
            model: ShardCostModel::default(),
        }
    }
}

/// A planned partition of a [`PatternSet`] into independently compilable
/// shards, produced by [`PatternSet::plan_shards`].
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The shards: each a standalone pattern set plus the map from its
    /// local pattern ids back to ids in the original set (`ids[local]` is
    /// the global id, ascending within each shard).
    pub parts: Vec<(PatternSet, Vec<PatternId>)>,
    /// Which split produced the partition.
    pub strategy: SplitStrategy,
    /// Estimated compiled-arena bytes per shard, parallel to `parts`.
    pub estimated_bytes: Vec<usize>,
}

impl ShardPlan {
    /// Number of shards.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// `true` when the plan holds no shards at all. Never true for a plan
    /// produced by [`PatternSet::plan_shards`] (every plan has ≥ 1 shard);
    /// provided for `len`/`is_empty` API completeness.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Largest per-shard estimate — the quantity compared against the
    /// budget.
    pub fn max_estimated_bytes(&self) -> usize {
        self.estimated_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Ratio of the largest shard estimate to the mean estimate (1.0 is
    /// perfectly balanced).
    pub fn skew(&self) -> f64 {
        if self.estimated_bytes.is_empty() {
            return 1.0;
        }
        let total: usize = self.estimated_bytes.iter().sum();
        let fair = total as f64 / self.estimated_bytes.len() as f64;
        self.max_estimated_bytes() as f64 / fair.max(1.0)
    }
}

impl PatternSet {
    /// Number of states the Aho-Corasick automaton for this set will have:
    /// one per distinct non-empty pattern prefix, plus the start state.
    ///
    /// This is exact — trie construction, subset construction and the
    /// DTP reduction all preserve the state count — and costs one hash
    /// per prefix, far cheaper than building the automaton.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpi_automaton::PatternSet;
    /// // Figure 1 of the paper: {he, she, his, hers} has 10 states.
    /// let set = PatternSet::new(["he", "she", "his", "hers"])?;
    /// assert_eq!(set.trie_states(), 10);
    /// # Ok::<(), dpi_automaton::PatternSetError>(())
    /// ```
    pub fn trie_states(&self) -> usize {
        let mut seen: std::collections::HashSet<&[u8]> = std::collections::HashSet::new();
        for (_, p) in self.iter() {
            for len in 1..=p.len() {
                seen.insert(&p[..len]);
            }
        }
        seen.len() + 1
    }

    /// Plans a shard layout for this set.
    ///
    /// Starts at `spec.shards_hint` shards and grows the count (in
    /// hint-sized steps, capped by `spec.max_shards` and the pattern
    /// count) until every shard's estimated compiled arena fits
    /// `spec.budget_bytes` — or the cap is reached, in which case the
    /// tightest achievable plan is returned. At each count the prefix
    /// split is tried first; if its largest shard exceeds
    /// `spec.skew_limit ×` the fair share, the round-robin split is
    /// used instead when it balances better.
    ///
    /// # Errors
    ///
    /// [`ShardPlanError::PatternExceedsBudget`] when a single pattern's
    /// estimated arena alone exceeds `spec.budget_bytes` — patterns are
    /// atomic, so no shard count could satisfy the spec and growing the
    /// count would only burn the cap to return an over-budget plan.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpi_automaton::{PatternSet, ShardSpec};
    /// let strings: Vec<String> = (0..40)
    ///     .map(|i| format!("{}pattern{i}", (b'a' + (i % 8) as u8) as char))
    ///     .collect();
    /// let set = PatternSet::new(&strings)?;
    /// let plan = set.plan_shards(&ShardSpec::for_cores(4))?;
    /// assert_eq!(plan.len(), 4);
    /// // Every pattern appears in exactly one shard.
    /// let total: usize = plan.parts.iter().map(|(s, _)| s.len()).sum();
    /// assert_eq!(total, set.len());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn plan_shards(&self, spec: &ShardSpec) -> Result<ShardPlan, ShardPlanError> {
        // Feasibility first: the cheapest shard containing pattern `p`
        // holds `p` alone, at `fixed + bytes_per_state × (len + 1)` (a
        // single pattern's trie is a chain, one state per prefix plus
        // start). If that floor is over budget, no plan satisfies it.
        for (id, p) in self.iter() {
            let floor = spec.model.fixed_bytes + spec.model.bytes_per_state * (p.len() + 1);
            if floor > spec.budget_bytes {
                return Err(ShardPlanError::PatternExceedsBudget {
                    pattern: id,
                    pattern_len: p.len(),
                    estimated_bytes: floor,
                    budget_bytes: spec.budget_bytes,
                });
            }
        }
        let cap = spec.max_shards.clamp(1, self.len());
        let step = spec.shards_hint.max(1);
        let mut n = step.min(cap);
        loop {
            let plan = self.plan_exactly(n, spec);
            if plan.max_estimated_bytes() <= spec.budget_bytes || n >= cap {
                return Ok(plan);
            }
            n = (n + step).min(cap);
        }
    }

    /// One candidate plan with exactly `n` shards (strategy chosen by the
    /// skew rule; `n = 1` is the whole set).
    fn plan_exactly(&self, n: usize, spec: &ShardSpec) -> ShardPlan {
        let estimates =
            |parts: &[(PatternSet, Vec<PatternId>)]| -> Vec<usize> {
                parts.iter().map(|(s, _)| spec.model.estimate(s)).collect()
            };
        if n <= 1 {
            let ids = self.iter().map(|(id, _)| id).collect();
            let parts = vec![(self.clone(), ids)];
            let estimated_bytes = estimates(&parts);
            return ShardPlan {
                parts,
                strategy: SplitStrategy::Prefix,
                estimated_bytes,
            };
        }
        let prefix = self.split_by_prefix(n);
        let prefix_est = estimates(&prefix);
        let total: usize = prefix_est.iter().sum();
        let fair = (total as f64 / n as f64).max(1.0);
        let prefix_max = prefix_est.iter().copied().max().unwrap_or(0);
        if (prefix_max as f64) <= spec.skew_limit * fair {
            return ShardPlan {
                parts: prefix,
                strategy: SplitStrategy::Prefix,
                estimated_bytes: prefix_est,
            };
        }
        // Prefix clustering skewed: fall back to the length-balanced
        // split when it actually improves the worst shard.
        let rr = self.split(n);
        let rr_est = estimates(&rr);
        let rr_max = rr_est.iter().copied().max().unwrap_or(0);
        if rr_max < prefix_max {
            ShardPlan {
                parts: rr,
                strategy: SplitStrategy::RoundRobin,
                estimated_bytes: rr_est,
            }
        } else {
            ShardPlan {
                parts: prefix,
                strategy: SplitStrategy::Prefix,
                estimated_bytes: prefix_est,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diverse_set(count: usize, starts: usize) -> PatternSet {
        let strings: Vec<String> = (0..count)
            .map(|i| format!("{}needle{i:04}", (b'a' + (i % starts) as u8) as char))
            .collect();
        PatternSet::new(&strings).unwrap()
    }

    #[test]
    fn trie_states_matches_figure1() {
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        assert_eq!(set.trie_states(), 10);
    }

    #[test]
    fn trie_states_counts_shared_prefixes_once() {
        let set = PatternSet::new(["abc", "abd", "ab"]).unwrap();
        // Prefixes: a, ab, abc, abd → 4 + start.
        assert_eq!(set.trie_states(), 5);
    }

    #[test]
    fn plan_uses_hint_when_budget_is_loose() {
        let set = diverse_set(64, 8);
        let plan = set.plan_shards(&ShardSpec::for_cores(4)).unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.strategy, SplitStrategy::Prefix);
    }

    #[test]
    fn plan_partitions_all_patterns_exactly_once() {
        let set = diverse_set(50, 6);
        let plan = set.plan_shards(&ShardSpec::for_cores(3)).unwrap();
        let mut seen: Vec<u32> = plan
            .parts
            .iter()
            .flat_map(|(_, ids)| ids.iter().map(|id| id.0))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        // Local pattern i must be the global pattern ids[i].
        for (sub, ids) in &plan.parts {
            for (local, global) in ids.iter().enumerate() {
                assert_eq!(sub.pattern(PatternId(local as u32)), set.pattern(*global));
            }
        }
    }

    #[test]
    fn tight_budget_grows_shard_count_in_hint_steps() {
        let set = diverse_set(200, 16);
        let mut spec = ShardSpec::for_cores(2);
        let one_shard = spec.model.estimate(&set);
        // Force roughly a 4-way split.
        spec.budget_bytes = spec.model.fixed_bytes + (one_shard - spec.model.fixed_bytes) / 4;
        let plan = set.plan_shards(&spec).unwrap();
        assert!(plan.len() > 2, "expected growth past the hint");
        assert_eq!(plan.len() % 2, 0, "growth must keep core multiples");
        assert!(plan.max_estimated_bytes() <= spec.budget_bytes);
    }

    #[test]
    fn single_pattern_over_budget_is_a_structured_error() {
        // A 2,000-byte pattern floors at fixed + 26 × 2001 bytes; any
        // budget below that is unsatisfiable by *any* shard count.
        let mut strings = vec!["z".repeat(2000)];
        strings.push("short".to_string());
        let set = PatternSet::new(&strings).unwrap();
        let mut spec = ShardSpec::for_cores(2);
        let floor = spec.model.fixed_bytes + spec.model.bytes_per_state * 2001;
        spec.budget_bytes = floor - 1;
        spec.max_shards = 64;
        let err = set.plan_shards(&spec).unwrap_err();
        match err {
            ShardPlanError::PatternExceedsBudget {
                pattern,
                pattern_len,
                estimated_bytes,
                budget_bytes,
            } => {
                assert_eq!(set.pattern(pattern).len(), 2000);
                assert_eq!(pattern_len, 2000);
                assert_eq!(estimated_bytes, floor);
                assert_eq!(budget_bytes, floor - 1);
            }
        }
        assert!(err.to_string().contains("per-shard budget"), "{err}");
        // One byte of slack above the floor and planning succeeds again
        // (the giant pattern simply gets a shard of its own at the cap).
        spec.budget_bytes = floor;
        assert!(set.plan_shards(&spec).is_ok());
    }

    #[test]
    fn tight_but_feasible_budget_stops_at_cap() {
        // Budget above every single-pattern floor but below what 8 shards
        // can reach: the planner must stop at the cap and return the
        // tightest achievable (over-budget) plan rather than erroring.
        let set = diverse_set(30, 5);
        let mut spec = ShardSpec::for_cores(2);
        let worst_floor = set
            .iter()
            .map(|(_, p)| spec.model.fixed_bytes + spec.model.bytes_per_state * (p.len() + 1))
            .max()
            .unwrap();
        spec.budget_bytes = worst_floor + 1;
        spec.max_shards = 8;
        let plan = set.plan_shards(&spec).unwrap();
        assert_eq!(plan.len(), 8);
        assert!(plan.max_estimated_bytes() > spec.budget_bytes);
    }

    #[test]
    fn skewed_prefixes_fall_back_to_round_robin() {
        // Byte balance is not state balance: cluster 'a' holds four long
        // patterns sharing nothing past the first byte (~2000 states),
        // cluster 'b' holds forty patterns sharing a 49-byte spine (~90
        // states), and the two clusters weigh the same in bytes. The
        // prefix split keeps each cluster whole — one shard gets nearly
        // all the states — while the round-robin split spreads the 'a'
        // patterns and halves the worst shard.
        let mut strings: Vec<String> = (0..4u8)
            .map(|i| format!("a{}", ((b'c' + i) as char).to_string().repeat(499)))
            .collect();
        for i in 0..40 {
            strings.push(format!("{}{i:02}", "b".repeat(48)));
        }
        let set = PatternSet::new(&strings).unwrap();
        let plan = set.plan_exactly(2, &ShardSpec::for_cores(2));
        assert_eq!(plan.strategy, SplitStrategy::RoundRobin);
        assert_eq!(plan.len(), 2);
        // The fallback must have improved the worst shard.
        let prefix_parts = set.split_by_prefix(2);
        let model = ShardCostModel::default();
        let prefix_max = prefix_parts
            .iter()
            .map(|(s, _)| model.estimate(s))
            .max()
            .unwrap();
        assert!(plan.max_estimated_bytes() < prefix_max);
    }

    #[test]
    fn unsplittable_giant_keeps_prefix_strategy() {
        // A single 3000-byte pattern dominates every possible partition;
        // round-robin cannot improve the worst shard, so the planner must
        // not switch strategies just because the skew check fired.
        let mut strings = vec!["z".repeat(3000)];
        for i in 0..12 {
            strings.push(format!("{}x", (b'a' + i as u8) as char));
        }
        let set = PatternSet::new(&strings).unwrap();
        let plan = set.plan_exactly(4, &ShardSpec::for_cores(4));
        assert_eq!(plan.strategy, SplitStrategy::Prefix);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn balanced_prefixes_keep_prefix_strategy() {
        let set = diverse_set(80, 8);
        let plan = set.plan_exactly(4, &ShardSpec::for_cores(4));
        assert_eq!(plan.strategy, SplitStrategy::Prefix);
        assert!(plan.skew() <= 2.0, "skew {}", plan.skew());
    }

    #[test]
    fn more_shards_than_patterns_is_capped() {
        let set = PatternSet::new(["a", "b", "c"]).unwrap();
        let plan = set.plan_shards(&ShardSpec::for_cores(8)).unwrap();
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn single_core_plan_is_whole_set() {
        let set = diverse_set(20, 4);
        let mut spec = ShardSpec::for_cores(1);
        spec.budget_bytes = usize::MAX;
        let plan = set.plan_shards(&spec).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.parts[0].0.len(), set.len());
    }

    #[test]
    fn estimate_tracks_state_count() {
        let small = diverse_set(10, 2);
        let large = diverse_set(300, 8);
        let model = ShardCostModel::default();
        assert!(model.estimate(&large) > model.estimate(&small));
        assert_eq!(
            model.estimate(&small),
            model.fixed_bytes + model.bytes_per_state * small.trie_states()
        );
    }
}
