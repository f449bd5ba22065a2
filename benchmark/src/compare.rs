//! `graybench --compare a.json b.json`: applies the bounds of the
//! catalogue to two documents printed by `graybench --seed <n>`.
//!
//! For every workload and end-to-end metric it prints the two values, the
//! change from `a` to `b` in the direction that is worse, and a verdict:
//! `worse` or `better` when the change is beyond the metric's bound,
//! `same` when it is within it, and `unresolved` when it is beyond the
//! bound but the samples behind the two medians (per-slice rates, set-up
//! repetitions) overlap between their quartiles, so one pair of runs
//! cannot tell. The exit code is 1 if anything is worse.

use std::process::ExitCode;

use crate::catalog::{Better, Metric, END_TO_END};
use crate::json::{parse, Value};
use crate::stat::quartiles;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The document is the last line; cargo and the children may have
    // printed before it.
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    parse(last).map_err(|e| format!("{path}: {e}"))
}

/// The samples behind a host-time median, if the detail line has them.
fn samples(workload: &Value, metric: &str) -> Option<Vec<f64>> {
    let key = match metric {
        "setup_s" => "setup_s",
        "host_ops_per_s" => "slice_ops_per_s",
        _ => return None,
    };
    let xs: Vec<f64> = workload
        .get("detail")?
        .get(key)?
        .as_arr()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    (xs.len() >= 2).then_some(xs)
}

fn value(workload: &Value, metric: &str) -> Option<f64> {
    workload
        .get("result")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    let change = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if change == 0.0 {
            0.0
        } else {
            change.signum() * f64::INFINITY
        }
    } else {
        change / a.abs()
    }
}

fn verdict(m: &Metric, a: &Value, b: &Value) -> Option<(f64, f64, f64, &'static str)> {
    let (va, vb) = (value(a, m.name)?, value(b, m.name)?);
    let by = worse_by(m, va, vb);
    let mut word = if by > m.bound {
        "worse"
    } else if by < -m.bound {
        "better"
    } else {
        "same"
    };
    if word != "same" {
        if let (Some(sa), Some(sb)) = (samples(a, m.name), samples(b, m.name)) {
            let ((a1, a3), (b1, b3)) = (quartiles(&sa), quartiles(&sb));
            if a1 <= b3 && b1 <= a3 {
                word = "unresolved";
            }
        }
    }
    Some((va, vb, by, word))
}

pub fn main(a: &str, b: &str) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("graybench: {e}");
            return ExitCode::from(2);
        }
    };
    let empty = Default::default();
    let wa = a.get("workloads").and_then(Value::as_obj).unwrap_or(&empty);
    let wb = b.get("workloads").and_then(Value::as_obj).unwrap_or(&empty);
    if wa.is_empty() || wb.is_empty() {
        eprintln!("graybench: --compare reads the document `graybench --seed <n>` prints");
        return ExitCode::from(2);
    }
    let mut any_worse = false;
    println!(
        "{:<12} {:<18} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "worse by"
    );
    for (name, in_a) in wa {
        let Some(in_b) = wb.get(name) else {
            println!("{name:<12} missing from b");
            any_worse = true;
            continue;
        };
        for m in END_TO_END {
            match verdict(m, in_a, in_b) {
                Some((va, vb, by, word)) => {
                    any_worse |= word == "worse";
                    println!(
                        "{name:<12} {:<18} {va:>16.6} {vb:>16.6} {:>8.2}%  {word}",
                        m.name,
                        by * 100.0
                    );
                }
                None => {
                    any_worse = true;
                    println!("{name:<12} {:<18} missing", m.name);
                }
            }
        }
        let digest = |w: &Value| {
            w.get("detail")
                .and_then(|d| d.get("digest"))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let same = digest(in_a).is_some() && digest(in_a) == digest(in_b);
        println!(
            "{name:<12} {:<18} {}",
            "digest",
            if same { "same" } else { "differs" }
        );
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(rate: f64, slices: &[f64]) -> Value {
        let list: Vec<String> = slices.iter().map(|s| s.to_string()).collect();
        parse(&format!(
            r#"{{"detail":{{"slice_ops_per_s":[{}]}},"result":{{"metrics":{{"host_ops_per_s":{{"value":{rate},"unit":"op/s"}}}}}}}}"#,
            list.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn a_drop_beyond_the_bound_is_worse_unless_the_slices_overlap() {
        let rate = END_TO_END
            .iter()
            .find(|m| m.name == "host_ops_per_s")
            .unwrap();
        let a = workload(100.0, &[98.0, 100.0, 102.0]);
        let tight = workload(70.0, &[69.0, 70.0, 71.0]);
        let wide = workload(70.0, &[50.0, 70.0, 140.0]);
        assert_eq!(verdict(rate, &a, &tight).unwrap().3, "worse");
        assert_eq!(verdict(rate, &a, &wide).unwrap().3, "unresolved");
        assert_eq!(
            verdict(rate, &a, &workload(95.0, &[95.0, 95.0])).unwrap().3,
            "same"
        );
        assert_eq!(verdict(rate, &tight, &a).unwrap().3, "better");
    }
}
