//! `--compare`: judges a result file against a baseline by the bounds
//! `BENCHMARK.json` fixes.

use crate::json::Json;

/// One side's reading of a metric: its median and, when the run took
/// several samples, their quartiles.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
}

impl Reading {
    /// Quartile distance as a share of the median (0 for one sample).
    fn spread(&self) -> f64 {
        self.quartiles
            .map_or(0.0, |(q1, q3)| (q3 - q1).abs() / self.value.abs())
    }
}

/// How a metric moved between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Regressed,
    /// A side's own quartile spread is wider than the bound, so the runs
    /// cannot resolve a move of that size either way.
    Unresolved,
}

/// The rule: a metric regresses when the new median is worse than the
/// base median by more than `bound` (a share of the base), unless either
/// side's spread already exceeds the bound.
pub fn verdict(base: Reading, new: Reading, higher_is_better: bool, bound: f64) -> Verdict {
    let worse = if higher_is_better {
        (base.value - new.value) / base.value.abs()
    } else {
        (new.value - base.value) / base.value.abs()
    };
    if base.spread() > bound || new.spread() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

fn reading(results: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let m = results.get("workloads")?.get(workload)?.get(metric)?;
    let value = m.get("value")?.num()?;
    let quartiles = m
        .get("q1")
        .and_then(Json::num)
        .zip(m.get("q3").and_then(Json::num));
    Some(Reading { value, quartiles })
}

/// Prints every workload × end-to-end metric of `base` against `new`;
/// returns whether the comparison fails: a metric regressed, a result
/// file failed its correctness gate, or a workload or metric one side
/// has is missing from the other.
pub fn run(base: &Json, new: &Json, benchmark: &Json) -> Result<bool, String> {
    let metrics = match benchmark.get("end_to_end") {
        Some(Json::Arr(list)) => list,
        _ => return Err("benchmark file has no end_to_end list".to_string()),
    };
    let mut workloads = Vec::new();
    for side in [base, new] {
        match side.get("workloads") {
            Some(Json::Obj(map)) => workloads.extend(map.keys().cloned()),
            _ => return Err("a result file has no workloads".to_string()),
        }
    }
    workloads.sort();
    workloads.dedup();
    let mut failed = false;
    for (side, results) in [("base", base), ("new", new)] {
        if !matches!(results.get("correct"), Some(Json::Bool(true))) {
            println!("the {side} result did not pass its correctness gate");
            failed = true;
        }
    }
    println!(
        "{:<18} {:<22} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "delta", "bound"
    );
    for workload in &workloads {
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without a name")?;
            let higher = m.get("better").and_then(Json::str) == Some("higher");
            let bound = m
                .get("bound")
                .and_then(Json::num)
                .ok_or("metric without a bound")?;
            let (Some(a), Some(b)) = (reading(base, workload, name), reading(new, workload, name))
            else {
                println!("{workload:<18} {name:<22} MISSING from a result file");
                failed = true;
                continue;
            };
            let v = verdict(a, b, higher, bound);
            failed |= v == Verdict::Regressed;
            println!(
                "{workload:<18} {name:<22} {:>12.4} {:>12.4} {:>+8.2}% {:>6.1}%  {}",
                a.value,
                b.value,
                (b.value - a.value) / a.value.abs() * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(value: f64) -> Reading {
        Reading {
            value,
            quartiles: None,
        }
    }

    #[test]
    fn compare_rule_follows_direction_bound_and_spread() {
        // Higher is better: a 5 % drop is within a 10 % bound, 15 % is not.
        assert_eq!(verdict(at(100.0), at(95.0), true, 0.10), Verdict::Within);
        assert_eq!(verdict(at(100.0), at(85.0), true, 0.10), Verdict::Regressed);
        // Lower is better: the same moves mirror.
        assert_eq!(verdict(at(1.0), at(1.05), false, 0.10), Verdict::Within);
        assert_eq!(verdict(at(1.0), at(1.15), false, 0.10), Verdict::Regressed);
        // Any gain is within.
        assert_eq!(verdict(at(100.0), at(300.0), true, 0.01), Verdict::Within);
        assert_eq!(verdict(at(1.0), at(0.2), false, 0.01), Verdict::Within);
        // A spread wider than the bound cannot resolve the move.
        let noisy = Reading {
            value: 100.0,
            quartiles: Some((80.0, 120.0)),
        };
        assert_eq!(verdict(noisy, at(50.0), true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(at(100.0), noisy, true, 0.10), Verdict::Unresolved);
        let steady = Reading {
            value: 100.0,
            quartiles: Some((99.0, 101.0)),
        };
        assert_eq!(verdict(steady, at(85.0), true, 0.10), Verdict::Regressed);
    }

    #[test]
    fn compare_reads_result_files() {
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "capacity_mbps", "unit": "MB/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let result = |correct: bool, workload: &str, v: f64| {
            Json::parse(&format!(
                r#"{{"correct": {correct}, "workloads": {{"{workload}": {{"capacity_mbps": {{"value": {v}, "unit": "MB/s", "q1": {}, "q3": {}, "n": 15}}}}}}}}"#,
                v - 0.5,
                v + 0.5
            ))
            .unwrap()
        };
        let base = result(true, "w", 100.0);
        assert_eq!(run(&base, &result(true, "w", 95.0), &bench), Ok(false));
        assert_eq!(run(&base, &result(true, "w", 80.0), &bench), Ok(true));
        // A run that failed its gate, or lacks a workload, fails the
        // comparison however its numbers read.
        assert_eq!(run(&base, &result(false, "w", 100.0), &bench), Ok(true));
        assert_eq!(run(&base, &result(true, "v", 100.0), &bench), Ok(true));
    }
}
