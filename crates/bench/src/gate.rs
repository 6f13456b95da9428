//! The CI bench gate: one table of tracked `BENCH_JSON` rows, each with
//! the bound it must meet, checked in one pass over the results file.
//!
//! ```text
//! cargo run --release -p dpi-bench --bin repro -- gate bench-results.json
//! ```
//!
//! Every entry names a row; the row must be present, and a bound other
//! than [`Bound::Present`] also checks its value — alone, or against a
//! second row of the same run (both rows come from one process, so
//! runner noise moves them together). Floors sit below the measured
//! values so shared-runner noise cannot flake CI: a row under its floor
//! means a lane or a contract broke outright, not that the host was
//! slow.

use std::collections::HashMap;

/// What a [`GATES`] entry requires of its row's value (`median_ns` in
/// the results file; value rows carry a count or a percentage there).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The row only has to be present.
    Present,
    /// The value lies in `[lo, hi]`.
    Value(f64, f64),
    /// The value divided by the named row's lies in `[lo, hi]`.
    Ratio(&'static str, f64, f64),
    /// The value minus the named row's lies in `[lo, hi]`.
    Diff(&'static str, f64, f64),
}

use Bound::{Diff, Present, Ratio, Value};

const INF: f64 = f64::INFINITY;

/// The tracked rows, grouped by the step that emits them, each next to
/// the floor that guards it.
#[rustfmt::skip]
pub const GATES: &[(&str, Bound)] = &[
    // sw-throughput: the compiled fast path has measured 8-10x the dtp
    // reference since the prefilter landed; 2x is the never-regress
    // floor (dtp time over compiled time).
    ("sw-throughput/compiled", Present),
    ("sw-throughput/dtp", Ratio("sw-throughput/compiled", 2.0, INF)),
    // sw-throughput-clean: anchor lane on/off.
    ("sw-throughput-clean/300-clean-on", Present),
    ("sw-throughput-clean/300-clean-off", Present),
    ("sw-throughput-clean/300-infected-on", Present),
    ("sw-throughput-clean/6275-clean-on", Present),
    ("sw-throughput-clean/6275-clean-off", Present),
    ("sw-throughput-clean/6275-infected-on", Present),
    // sw-throughput-stride: region pair rows on/off. The 6,275-rule
    // master carries none (calm density below the rows' floor), so it
    // emits no rows.
    ("sw-throughput-stride/300-infected-on", Present),
    ("sw-throughput-stride/300-infected-off", Present),
    ("sw-throughput-stride/300-clean-on", Present),
    ("sw-throughput-stride/300-infected-warm-on", Present),
    // scan_throughput / sharded_scan criterion benches.
    ("scan_throughput/compiled/300-clean", Present),
    ("scan_throughput/compiled-nopairs/300-clean", Present),
    ("scan_throughput/compiled-stepper/300", Present),
    ("sharded-throughput/compiled-seq", Present),
    // flow-throughput and stream-robustness.
    ("flow-throughput/300-whole", Present),
    ("flow-throughput/300-reassembly", Present),
    ("stream-robustness/inorder-off", Present),
    ("stream-robustness/inorder-on", Present),
    ("stream-robustness/adv-reorder-w4", Present),
    ("stream-robustness/adv-overlap-conflict", Present),
    ("stream-robustness/adv-holes-e4", Present),
    ("stream-robustness/adv-starved-budget", Present),
    // sw-throughput-simd: simd off time over on time per pairing. The
    // exit-free laneclean row carries the 2x lane-walk target (measured
    // ~7x; 1.5 is the CI noise floor). Generator-traffic rows are
    // exit-bound (median lane span 13 bytes at 300 rules), so their
    // honest expectation is parity-or-better; 0.85 is the
    // broke-outright floor under shared-runner noise.
    ("sw-throughput-simd/300-window-clean-on", Present),
    ("sw-throughput-simd/300-window-clean-off", Ratio("sw-throughput-simd/300-window-clean-on", 0.85, INF)),
    ("sw-throughput-simd/300-window-laneclean-on", Present),
    ("sw-throughput-simd/300-window-laneclean-off", Ratio("sw-throughput-simd/300-window-laneclean-on", 1.5, INF)),
    ("sw-throughput-simd/300-window-tls-on", Present),
    ("sw-throughput-simd/300-window-tls-off", Ratio("sw-throughput-simd/300-window-tls-on", 0.85, INF)),
    ("sw-throughput-simd/300-window-infected-off", Ratio("sw-throughput-simd/300-window-infected-on", 0.85, INF)),
    ("sw-throughput-simd/300-stack-clean-on", Present),
    ("sw-throughput-simd/300-stack-clean-off", Ratio("sw-throughput-simd/300-stack-clean-on", 0.85, INF)),
    ("sw-throughput-simd/6275-window-clean-on", Present),
    ("sw-throughput-simd/6275-window-clean-off", Ratio("sw-throughput-simd/6275-window-clean-on", 0.85, INF)),
    ("sw-throughput-simd/6275-window-tls-on", Present),
    ("sw-throughput-simd/6275-window-tls-off", Ratio("sw-throughput-simd/6275-window-tls-on", 0.85, INF)),
    ("sw-throughput-simd/6275-window-infected-off", Ratio("sw-throughput-simd/6275-window-infected-on", 0.85, INF)),
    ("sw-throughput-simd/6275-stack-clean-on", Present),
    ("sw-throughput-simd/6275-stack-clean-off", Ratio("sw-throughput-simd/6275-stack-clean-on", 0.85, INF)),
    // two-stage: 25k and 100k rules through the two-stage scanner must
    // keep (at least) the 6,275-rule monolith's per-core rate on clean
    // TLS — two-stage time over monolith time at most 1.05. Measured on
    // the simd build over 10 interleaved runs on a shared 2-vCPU host:
    // 0.80-0.95 at 25k and 0.83-0.99 at 100k (medians 0.81 and 0.84,
    // ~1.2x the monolith's rate). The 5% allowance covers shared-runner
    // jitter, and the 0.89x rate a broken fast path produces still
    // fails by a wide margin.
    ("two-stage/monolith-6275-tls", Present),
    ("two-stage/rules25k-tls", Ratio("two-stage/monolith-6275-tls", 0.0, 1.05)),
    ("two-stage/rules25k-replay-ppm", Present),
    ("two-stage/rules25k-pre-kib", Present),
    ("two-stage/rules25k-infected", Present),
    ("two-stage/rules100k-tls", Ratio("two-stage/monolith-6275-tls", 0.0, 1.05)),
    ("two-stage/rules100k-replay-ppm", Present),
    ("two-stage/rules100k-fp-window-ppm", Present),
    ("two-stage/rules100k-pre-kib", Present),
    ("two-stage/rules100k-infected", Present),
    // service-robustness: accounting is exact at every load (each
    // offered byte is scanned, shed, or counted as panic loss), and
    // every load sees exactly its one hot swap.
    ("service/load1x-wall", Present),
    ("service/load2x-wall", Present),
    ("service/load2x-core-mbps", Present),
    ("service/load1x-unaccounted-bytes", Value(0.0, 0.0)),
    ("service/load15x-unaccounted-bytes", Value(0.0, 0.0)),
    ("service/load2x-unaccounted-bytes", Value(0.0, 0.0)),
    ("service/load1x-swaps", Value(1.0, 1.0)),
    ("service/load15x-swaps", Value(1.0, 1.0)),
    ("service/load2x-swaps", Value(1.0, 1.0)),
    // At 2x offered load the contract is graceful degradation: shedding
    // tracks the overload (monotone in offered load, within one point)
    // and never approaches total. No lower bound: the repro calibrates
    // capacity in-run and a fast runner can outpace its own
    // calibration. Latency (generous: shared runners time-slice the
    // workers) and residency (the repro drives 96 flows) stay bounded.
    ("service/load1x-shed-pct", Present),
    ("service/load15x-shed-pct", Diff("service/load1x-shed-pct", -1.0, INF)),
    ("service/load2x-shed-pct", Value(-INF, 90.0)),
    ("service/load2x-shed-pct", Diff("service/load15x-shed-pct", -1.0, INF)),
    ("service/load2x-p99-us", Value(-INF, 250_000.0)),
    ("service/load2x-flows-resident", Value(-INF, 96.0)),
    // The 6,275-rule master plans one exact shard, so its arena has one
    // rung: no byte may scan below Exact at any load.
    ("service/load1x-degraded-pct", Value(0.0, 0.0)),
    ("service/load2x-degraded-pct", Value(0.0, 0.0)),
    // protocol-robustness: every chunk-boundary-split signature is found
    // on the normalized stream and none on the raw scan; the fail-open
    // ledger balances; the detect + normalize stage on well-formed HTTP
    // stays within +10% of the raw scan (measured ~+2%).
    ("protocol/evasion-injected", Present),
    ("protocol/evasion-caught", Diff("protocol/evasion-injected", 0.0, 0.0)),
    ("protocol/evasion-raw-caught", Value(0.0, 0.0)),
    ("protocol/ledger-unaccounted", Value(0.0, 0.0)),
    ("protocol/malformed-downgrades", Present),
    ("protocol/wellformed-off", Present),
    ("protocol/wellformed-on", Ratio("protocol/wellformed-off", 0.0, 1.10)),
    // swap-drain: the SlowWorker stall must stretch the in-band drain
    // (a step count, so > 0 is >= 1).
    ("swap-drain/clean-steps", Present),
    ("swap-drain/stalled-steps", Present),
    ("swap-drain/stretch-steps", Value(1.0, INF)),
];

/// Parses `BENCH_JSON` lines (`{"id":"…","median_ns":…,…}`, one per
/// line) into `id → median_ns`; a repeated id keeps its last value.
/// Lines without both fields are skipped.
pub fn parse_rows(text: &str) -> HashMap<String, f64> {
    let field = |line: &str, key: &str| -> Option<(usize, usize)> {
        let start = line.find(key)? + key.len();
        Some((start, start + line[start..].find([',', '"', '}'])?))
    };
    let mut rows = HashMap::new();
    for line in text.lines() {
        let (Some((ia, ib)), Some((va, vb))) =
            (field(line, "\"id\":\""), field(line, "\"median_ns\":"))
        else {
            continue;
        };
        if let Ok(v) = line[va..vb].trim().parse::<f64>() {
            rows.insert(line[ia..ib].to_string(), v);
        }
    }
    rows
}

/// Checks every entry of `gates` against `rows`, returning one report
/// line per entry and the number of entries that failed.
pub fn check(rows: &HashMap<String, f64>, gates: &[(&str, Bound)]) -> (Vec<String>, usize) {
    let mut failed = 0;
    let lines = gates
        .iter()
        .map(|&(id, bound)| match evaluate(rows, id, bound) {
            Ok(None) => format!("ok    {id}"),
            Ok(Some((v, lo, hi, what))) if (lo..=hi).contains(&v) => {
                format!("ok    {id}: {what} {v:.3} in [{lo}, {hi}]")
            }
            Ok(Some((v, lo, hi, what))) => {
                failed += 1;
                format!("FAIL  {id}: {what} {v:.3} outside [{lo}, {hi}]")
            }
            Err(missing) => {
                failed += 1;
                format!("FAIL  {id}: missing bench row {missing}")
            }
        })
        .collect();
    (lines, failed)
}

/// The checked quantity of one entry with its bounds and a label, or
/// `None` for a presence-only entry; `Err` names a missing row.
fn evaluate(
    rows: &HashMap<String, f64>,
    id: &str,
    bound: Bound,
) -> Result<Option<(f64, f64, f64, String)>, String> {
    let get = |id: &str| rows.get(id).copied().ok_or_else(|| id.to_string());
    let v = get(id)?;
    Ok(match bound {
        Present => None,
        Value(lo, hi) => Some((v, lo, hi, "value".to_string())),
        Ratio(base, lo, hi) => Some((v / get(base)?, lo, hi, format!("ratio to {base}"))),
        Diff(base, lo, hi) => Some((v - get(base)?, lo, hi, format!("difference to {base}"))),
    })
}

/// Runs the gate over the results file at `path`: prints one line per
/// entry and returns the process exit code (0 pass, 1 any failure, 2
/// unreadable file).
pub fn run(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let (lines, failed) = check(&parse_rows(&text), GATES);
    for line in &lines {
        println!("{line}");
    }
    println!("\n{} gate entries, {failed} failed", lines.len());
    i32::from(failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn parses_the_emitter_schema_and_keeps_the_last_repeat() {
        let text = "{\"id\":\"a/b\",\"median_ns\":12.5,\"bytes_per_iter\":1024}\n\
                    \n\
                    {\"id\":\"c\",\"median_ns\":0.0,\"bytes_per_iter\":0}\n\
                    {\"id\":\"a/b\",\"median_ns\":7.0,\"bytes_per_iter\":1024}\n\
                    not json\n";
        let got = parse_rows(text);
        assert_eq!(got.len(), 2);
        assert_eq!(got["a/b"], 7.0);
        assert_eq!(got["c"], 0.0);
    }

    #[test]
    fn every_bound_kind_passes_and_fails_at_its_edges() {
        let r = rows(&[("x", 2.0), ("y", 1.0), ("z", 3.0)]);
        let pass: &[(&str, Bound)] = &[
            ("x", Present),
            ("x", Value(2.0, 2.0)),
            ("x", Ratio("y", 2.0, INF)),
            ("z", Diff("x", -INF, 1.0)),
        ];
        assert_eq!(check(&r, pass).1, 0);
        for fail in [
            ("x", Value(2.5, INF)),
            ("x", Ratio("y", 0.0, 1.9)),
            ("y", Diff("z", -1.0, INF)),
            ("missing", Present),
            ("x", Ratio("missing", 0.0, INF)),
        ] {
            let (lines, failed) = check(&r, &[fail]);
            assert_eq!(failed, 1, "{fail:?} should fail: {lines:?}");
        }
    }
}
