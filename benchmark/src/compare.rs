//! `compare`: the decision rule for two sets of runs, parent (A) against
//! change (B), per workload and end-to-end metric.
//!
//! * At least [`MIN_PAIRS`] pairs, run alternately; fewer is `too-few`.
//! * Where either side's spread (IQR over median) exceeds the metric's
//!   bound, the metric is `unresolved` — unless every change run beats
//!   every parent run.
//! * A median worse than the parent's by more than the bound is a
//!   `regression`.
//! * A `gain` needs the change to win at least nine pairs in ten (ties
//!   count for neither side) and the medians to differ by more than the
//!   parent's own IQR. The mirror image — losing nine pairs in ten with
//!   such a median gap — is `slower`, flagged even inside the bound: the
//!   two runs of a pair follow each other (`all --against`), so they share
//!   the host's slow drift that the bound is sized for, and a consistent
//!   loss is a real slowdown. One smaller than the parent's IQR is missed.
//! * More failed operations than the parent is flagged as `failures`.

use crate::measure::{median, quartiles, relative_iqr};
use crate::spec::{as_array, as_f64, get, Spec};
use serde_json::Value;
use std::collections::BTreeMap;

pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    NoChange,
    Regression,
    Slower,
    Unresolved,
    TooFew,
}

impl Verdict {
    pub fn flagged(self) -> bool {
        matches!(
            self,
            Verdict::Regression | Verdict::Slower | Verdict::Unresolved | Verdict::TooFew
        )
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoChange => "no-change",
            Verdict::Regression => "regression",
            Verdict::Slower => "slower",
            Verdict::Unresolved => "unresolved",
            Verdict::TooFew => "too-few",
        }
    }
}

#[derive(Debug)]
pub struct Judgement {
    pub verdict: Verdict,
    pub parent_median: f64,
    pub change_median: f64,
    /// How much worse the change's median is, as a share of the parent's
    /// (negative: better).
    pub worse_by: f64,
    /// The larger of the two sides' relative IQRs.
    pub spread: f64,
    pub wins: usize,
    pub pairs: usize,
}

/// Applies the rule to one metric's samples, paired in run order.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Judgement {
    let pairs = parent.len().min(change.len());
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&a, &b)| better(b, a))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|&(&a, &b)| better(a, b))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let worse_by = if lower_is_better { cm - pm } else { pm - cm } / pm.abs();
    let spread = relative_iqr(parent).max(relative_iqr(change));
    let every_run_better = change.iter().all(|&b| parent.iter().all(|&a| better(b, a)));
    let (q1, q3) = quartiles(parent);
    let verdict = if pairs < MIN_PAIRS {
        Verdict::TooFew
    } else if spread > bound && !every_run_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else if (cm - pm).abs() > q3 - q1 && 10 * losses >= 9 * pairs && worse_by > 0.0 {
        Verdict::Slower
    } else if (cm - pm).abs() > q3 - q1 && 10 * wins >= 9 * pairs && worse_by < 0.0 {
        Verdict::Gain
    } else {
        Verdict::NoChange
    };
    Judgement {
        verdict,
        parent_median: pm,
        change_median: cm,
        worse_by,
        spread,
        wins,
        pairs,
    }
}

/// One workload's runs: (attempted, failed, metric → value) per run.
pub type Runs = Vec<(u64, u64, BTreeMap<String, f64>)>;

/// Reads `FILE` or `FILE:SET` (default set `a`) written by `all`.
pub fn load(arg: &str) -> Result<BTreeMap<String, Runs>, String> {
    let (path, set) = match arg.rsplit_once(':') {
        Some((p, s)) if !s.contains('/') => (p, s),
        _ => (arg, "a"),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Value::Object(workloads) = get(get(&doc, "sets"), set) else {
        return Err(format!("{path}: no run set `{set}`"));
    };
    Ok(workloads
        .iter()
        .map(|(name, runs)| {
            let runs = as_array(runs)
                .iter()
                .map(|r| {
                    let metrics = match get(r, "metrics") {
                        Value::Object(ms) => ms
                            .iter()
                            .filter_map(|(k, v)| Some((k.clone(), as_f64(get(v, "value"))?)))
                            .collect(),
                        _ => BTreeMap::new(),
                    };
                    let count = |k| as_f64(get(r, k)).unwrap_or(0.0) as u64;
                    (count("attempted"), count("failed"), metrics)
                })
                .collect();
            (name.clone(), runs)
        })
        .collect())
}

/// Compares every workload present in both sets; prints one row per
/// (workload, metric) and returns whether any row is flagged.
pub fn compare(
    spec: &Spec,
    parent: &BTreeMap<String, Runs>,
    change: &BTreeMap<String, Runs>,
) -> bool {
    let mut flagged = false;
    println!(
        "{:<8} {:<12} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "spread", "wins"
    );
    for (workload, a) in parent {
        let Some(b) = change.get(workload) else {
            continue;
        };
        for m in &spec.end_to_end {
            let values = |runs: &Runs| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.2.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let j = judge(&va, &vb, m.lower_is_better, m.bound.unwrap_or(0.0));
            flagged |= j.verdict.flagged();
            println!(
                "{:<8} {:<12} {:>12.6} {:>12.6} {:>7.2}% {:>6.2}% {:>3}/{:<2}  {}",
                workload,
                m.name,
                j.parent_median,
                j.change_median,
                100.0 * j.worse_by,
                100.0 * j.spread,
                j.wins,
                j.pairs,
                j.verdict.label()
            );
        }
        let frac = |runs: &Runs| {
            let (att, fail) = runs.iter().fold((0, 0), |(x, y), r| (x + r.0, y + r.1));
            fail as f64 / att.max(1) as f64
        };
        if frac(b) > frac(a) {
            flagged = true;
            println!(
                "{workload:<8} failed_frac  {:>12.6} {:>12.6}  failures",
                frac(a),
                frac(b)
            );
        }
    }
    flagged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `n` samples around `centre` with ±`noise` relative uniform jitter.
    fn samples(rng: &mut SmallRng, centre: f64, noise: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| centre * (1.0 + noise * rng.gen_range(-1.0..1.0)))
            .collect()
    }

    /// Parent and change runs paired as `all --against` pairs them: both
    /// runs of a pair meet the same host speed (±`drift`), and each run
    /// adds its own ±`jitter`. The change is slower by the factor `slow`.
    fn paired(rng: &mut SmallRng, drift: f64, jitter: f64, slow: f64) -> (Vec<f64>, Vec<f64>) {
        let host = samples(rng, 3.4, drift, MIN_PAIRS);
        let mut run = |centre: f64| centre * (1.0 + jitter * rng.gen_range(-1.0..1.0));
        let parent = host.iter().map(|&h| run(h)).collect();
        let change = host.iter().map(|&h| run(h * slow)).collect();
        (parent, change)
    }

    fn flagged_share(drift: f64, jitter: f64, slow: f64) -> f64 {
        let b = bound("wall_s");
        let flagged = (0..500)
            .filter(|&seed| {
                let (a, c) = paired(&mut SmallRng::seed_from_u64(seed), drift, jitter, slow);
                judge(&a, &c, true, b).verdict.flagged()
            })
            .count();
        flagged as f64 / 500.0
    }

    fn bound(name: &str) -> f64 {
        spec()
            .end_to_end
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.bound)
            .expect("bounded metric")
    }

    #[test]
    fn aa_sets_are_never_flagged() {
        for name in ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"] {
            let b = bound(name);
            for seed in 0..500 {
                let mut rng = SmallRng::seed_from_u64(seed);
                // Jitter well inside the bound, as the benchmark's own
                // spreads must be.
                let a = samples(&mut rng, 7.5, b / 3.0, MIN_PAIRS);
                let c = samples(&mut rng, 7.5, b / 3.0, MIN_PAIRS);
                let j = judge(&a, &c, true, b);
                assert!(!j.verdict.flagged(), "{name} seed {seed}: {j:?}");
            }
        }
        // Paired runs under about the widest drift measured on `rb16`.
        assert_eq!(flagged_share(0.10, 0.04, 1.0), 0.0);
    }

    /// `rb16` `wall_s` of ten `all --against` rounds: the parent build,
    /// and a build whose repetitions run 10% more trials.
    const MEASURED_PARENT: [f64; 10] = [
        4.5254, 4.3054, 4.7332, 4.1965, 4.5666, 5.0802, 4.8051, 5.0710, 4.4641, 4.5900,
    ];
    const MEASURED_SLOWER: [f64; 10] = [
        5.0458, 4.8461, 5.1349, 4.4053, 5.3923, 5.8892, 5.8821, 6.1924, 4.5267, 5.0774,
    ];

    #[test]
    fn ten_percent_rb16_wall_slowdown_is_flagged() {
        let b = bound("wall_s");
        let j = judge(&MEASURED_PARENT, &MEASURED_SLOWER, true, b);
        assert_eq!(j.verdict, Verdict::Slower, "{j:?}");
        // Caught while the parent's IQR is below the slowdown; missed about
        // half the time once the IQR reaches it.
        assert!(flagged_share(0.06, 0.03, 1.10) >= 0.9);
        assert!(flagged_share(0.10, 0.04, 1.10) < 0.75);
        let far: Vec<f64> = MEASURED_PARENT.iter().map(|x| x * (1.0 + 2.0 * b)).collect();
        assert_eq!(
            judge(&MEASURED_PARENT, &far, true, b).verdict,
            Verdict::Regression
        );
    }

    #[test]
    fn consistent_speedup_is_a_gain_and_noise_is_unresolved() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = samples(&mut rng, 10.0, 0.01, MIN_PAIRS);
        let fast: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(judge(&a, &fast, true, 0.05).verdict, Verdict::Gain);
        let noisy = samples(&mut rng, 10.0, 0.5, MIN_PAIRS);
        assert_eq!(judge(&a, &noisy, true, 0.05).verdict, Verdict::Unresolved);
        assert_eq!(
            judge(&a[..5], &fast[..5], true, 0.05).verdict,
            Verdict::TooFew
        );
    }
}
