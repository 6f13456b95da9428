//! # dpi-bench
//!
//! Benchmark harness and table/figure reproduction for the DATE 2010
//! paper. The `repro` binary regenerates every table and figure
//! (`cargo run -p dpi-bench --release --bin repro -- all`); the Criterion
//! benches under `benches/` measure the software-side costs (automaton
//! construction, reduction, scanning, baseline comparison, ablations).
//!
//! This library holds the pieces shared between them: the paper's
//! published numbers (for paper-vs-measured rows), small formatting
//! helpers and the shard-to-core partition of the per-core rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

/// The paper's published values, used to print paper-vs-measured rows.
pub mod paper {
    /// One column of Table II (a ruleset on a device).
    #[derive(Debug, Clone, Copy)]
    pub struct Table2Column {
        /// Ruleset size (strings).
        pub strings: usize,
        /// Device name.
        pub device: &'static str,
        /// States in the original automaton.
        pub states: usize,
        /// Original Aho-Corasick average pointers per state.
        pub original_avg: f64,
        /// Blocks per packet group.
        pub blocks: usize,
        /// Depth-1 default pointers.
        pub d1: usize,
        /// Average pointers after depth-1 defaults.
        pub avg_d1: f64,
        /// Depth-1+2 default pointers.
        pub d1_d2: usize,
        /// Average pointers after depth-1+2 defaults.
        pub avg_d2: f64,
        /// Depth-1+2+3 default pointers.
        pub d1_d2_d3: usize,
        /// Average pointers after the full scheme.
        pub avg_d3: f64,
        /// Reduction percentage.
        pub reduction_pct: f64,
        /// Total memory bytes.
        pub mem_bytes: usize,
        /// Throughput in Gbps.
        pub gbps: f64,
    }

    /// Table II, all seven columns as printed in the paper.
    pub const TABLE2: [Table2Column; 7] = [
        Table2Column { strings: 634, device: "Stratix 3", states: 11_796, original_avg: 68.29, blocks: 1, d1: 68, avg_d1: 8.16, d1_d2: 262, avg_d2: 3.43, d1_d2_d3: 323, avg_d3: 2.39, reduction_pct: 96.5, mem_bytes: 148_259, gbps: 44.2 },
        Table2Column { strings: 1603, device: "Stratix 3", states: 29_155, original_avg: 81.07, blocks: 2, d1: 97, avg_d1: 6.77, d1_d2: 493, avg_d2: 2.68, d1_d2_d3: 622, avg_d3: 2.01, reduction_pct: 97.5, mem_bytes: 296_967, gbps: 22.1 },
        Table2Column { strings: 2588, device: "Stratix 3", states: 46_301, original_avg: 85.00, blocks: 3, d1: 108, avg_d1: 5.33, d1_d2: 662, avg_d2: 2.09, d1_d2_d3: 850, avg_d3: 1.90, reduction_pct: 97.8, mem_bytes: 445_641, gbps: 14.7 },
        Table2Column { strings: 6275, device: "Stratix 3", states: 109_467, original_avg: 87.01, blocks: 6, d1: 110, avg_d1: 4.16, d1_d2: 1131, avg_d2: 1.92, d1_d2_d3: 1509, avg_d3: 1.54, reduction_pct: 98.2, mem_bytes: 838_298, gbps: 7.4 },
        Table2Column { strings: 500, device: "Cyclone 3", states: 9_329, original_avg: 67.28, blocks: 1, d1: 67, avg_d1: 7.17, d1_d2: 246, avg_d2: 2.87, d1_d2_d3: 306, avg_d3: 2.09, reduction_pct: 96.9, mem_bytes: 105_599, gbps: 14.9 },
        Table2Column { strings: 1204, device: "Cyclone 3", states: 22_026, original_avg: 77.07, blocks: 2, d1: 83, avg_d1: 5.70, d1_d2: 415, avg_d2: 2.21, d1_d2_d3: 531, avg_d3: 1.88, reduction_pct: 97.6, mem_bytes: 214_141, gbps: 7.5 },
        Table2Column { strings: 2588, device: "Cyclone 3", states: 46_301, original_avg: 85.00, blocks: 4, d1: 125, avg_d1: 5.28, d1_d2: 723, avg_d2: 2.20, d1_d2_d3: 955, avg_d3: 1.18, reduction_pct: 98.6, mem_bytes: 429_656, gbps: 3.7 },
    ];

    /// Table I rows: (device, logic used, logic total, m9k used, m9k
    /// total, fmax MHz).
    pub const TABLE1: [(&str, usize, usize, usize, usize, f64); 2] = [
        ("Cyclone 3", 35_511, 119_088, 404, 432, 233.15),
        ("Stratix 3", 69_585, 254_400, 822, 864, 460.19),
    ];

    /// Table III rows: (approach, device, memory bytes, Gbps).
    pub const TABLE3: [(&str, &str, usize, f64); 4] = [
        ("Our method", "Cyclone 3", 138_470, 7.5),
        ("Our method", "Stratix 3", 138_470, 22.1),
        ("Bitmap [13]", "ASIC", 2_800_000, 7.8),
        ("Path compression [13]", "ASIC", 1_100_000, 7.8),
    ];

    /// Figure 2: average stored pointers for {he, she, his, hers} as
    /// defaults are added (original, d1, d1+d2, d1+d2+d3).
    pub const FIGURE2: [f64; 4] = [2.5, 1.1, 0.5, 0.1];

    /// Maximum power consumption reported in §V.D, watts (Cyclone 3).
    pub const FIG7_CYCLONE_MAX_W: f64 = 2.78;
    /// Maximum power consumption reported in §V.D, watts (Stratix 3).
    pub const FIG8_STRATIX_MAX_W: f64 = 13.28;
}

/// Appends one JSON line to the file named by `BENCH_JSON` (no-op when
/// the variable is unset) — `{"id": …, "median_ns": …, "bytes_per_iter":
/// …}`. Delegates to the criterion shim's emitter so repro experiments
/// and criterion benches share one schema and one trackable stream.
pub fn bench_json_row(id: &str, median_ns: f64, bytes_per_iter: u64) {
    criterion::emit_bench_json(id, median_ns, bytes_per_iter);
}

/// Right-pads or truncates a cell to `width` characters.
pub fn cell(text: &str, width: usize) -> String {
    let mut s = text.to_string();
    if s.len() > width {
        s.truncate(width);
    }
    while s.len() < width {
        s.push(' ');
    }
    s
}

/// Formats a byte count with thousands separators.
pub fn thousands(n: usize) -> String {
    let digits: Vec<char> = n.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(*c);
    }
    out.chars().rev().collect()
}

/// Splits `costs.len()` items into at most `max_chunks` contiguous chunks
/// with roughly equal cost sums, returning the boundary indices
/// (`[0, …, len]`, every chunk non-empty). `repro sharded-throughput`
/// assigns shards to cores with it, balanced by compiled-arena bytes.
pub fn chunk_bounds(costs: &[usize], max_chunks: usize) -> Vec<usize> {
    let n = costs.len();
    let k = max_chunks.clamp(1, n.max(1));
    let total = costs.iter().sum::<usize>().max(1);
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0usize);
    let mut acc = 0usize;
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        let closed = bounds.len(); // chunks closed once we cut here
        let items_left = n - (i + 1);
        let chunks_left = k - closed;
        if closed < k
            && (acc as u128 * k as u128 >= total as u128 * closed as u128
                || items_left == chunks_left)
        {
            bounds.push(i + 1);
        }
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_properties() {
        for (costs, k) in [
            (vec![1usize, 1, 1, 1], 2usize),
            (vec![5, 1, 1], 3),
            (vec![1, 1, 5], 3),
            (vec![100, 1, 1, 1], 4),
            (vec![7], 4),
            (vec![3, 3, 3, 3, 3, 3, 3], 3),
        ] {
            let bounds = chunk_bounds(&costs, k);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), costs.len());
            assert!(bounds.len() - 1 <= k.min(costs.len()), "{costs:?} k={k}");
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "empty chunk in {bounds:?} for {costs:?} k={k}"
            );
        }
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1,000");
        assert_eq!(thousands(148_259), "148,259");
        assert_eq!(thousands(2_800_000), "2,800,000");
    }

    #[test]
    fn cell_pads_and_truncates() {
        assert_eq!(cell("ab", 4), "ab  ");
        assert_eq!(cell("abcdef", 4), "abcd");
    }

    #[test]
    fn paper_constants_consistent() {
        // Table II running sums are monotone.
        for col in paper::TABLE2 {
            assert!(col.d1 <= col.d1_d2);
            assert!(col.d1_d2 <= col.d1_d2_d3);
            assert!(col.avg_d1 >= col.avg_d2);
            assert!(col.avg_d2 >= col.avg_d3);
            assert!(col.original_avg > col.avg_d1);
        }
    }
}
