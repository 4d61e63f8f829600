//! EXP-THM63: Theorem 6.3 — `Pr[A] = e^{-n²(1+o(1))}` for every model.

use crate::{verdict, Ctx};
use analytic::thm63;
use analytic::window_law::WindowLaws;
use memmodel::MemoryModel;
use mmr_core::scaling_curve_with;
use std::fmt::Write as _;
use textplot::{Chart, Table};

/// Two complementary routes to the paper's asymptotics:
///
/// * the Rao-Blackwellised (Theorem 6.1) estimator on the paper's
///   shared-program model, for `n` up to 16 — beyond that the sampled mean
///   is dominated by all-small-window vectors of probability `(2/3)ⁿ` and
///   a fixed trial budget under-covers them;
/// * the exact iid-window evaluation (exact for WO, the independent-program
///   variant for TSO/PSO), for `n` up to 64.
///
/// Both show the normalised exponent `−log2 Pr[A]/n²` converging across
/// models, and the Claim B.2 sandwich `(n−1)/n² → 0` pins the gap
/// rigorously at every `n`.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    let laws = WindowLaws::new();

    // Route 1: sampled RB on the shared-program model.
    let ns_rb = [2usize, 3, 4, 6, 8, 12, 16];
    let trials = (ctx.trials / 2).max(2_000);
    let points = scaling_curve_with(
        &MemoryModel::NAMED,
        &ns_rb,
        trials,
        ctx.seed ^ 0x63,
        ctx.threads,
    );
    let mut table = Table::new(vec!["n", "SC", "TSO", "PSO", "WO", "SC exact", "sandwich"]);
    for &n in &ns_rb {
        let get = |model| {
            points
                .iter()
                .find(|p| p.n == n && p.model == model)
                .map(|p| p.normalized_exponent)
                .expect("point present")
        };
        table.row(vec![
            n.to_string(),
            format!("{:.4}", get(MemoryModel::Sc)),
            format!("{:.4}", get(MemoryModel::Tso)),
            format!("{:.4}", get(MemoryModel::Pso)),
            format!("{:.4}", get(MemoryModel::Wo)),
            format!("{:.4}", -thm63::sc_log2_survival(n as u32) / (n * n) as f64),
            format!("{:.4}", thm63::sandwich_width(n as u32)),
        ]);
    }
    let _ = writeln!(
        out,
        "normalised exponent -log2 Pr[A] / n^2, shared-program model (RB estimator):\n"
    );
    out.push_str(&table.render());

    let spread = |n: usize| {
        let at: Vec<f64> = points
            .iter()
            .filter(|p| p.n == n)
            .map(|p| p.normalized_exponent)
            .collect();
        at.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - at.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let rb_shrink = spread(16) < spread(2);
    let _ = writeln!(
        out,
        "\nRB exponent spread: n=2 -> {:.4}, n=16 -> {:.4}: {}",
        spread(2),
        spread(16),
        verdict(rb_shrink)
    );

    // Claim B.2 sandwich on the RB range.
    let mut sandwich_ok = true;
    for &n in &ns_rb[1..] {
        let lower = thm63::universal_log2_survival_lower_bound(n as u32);
        let upper = thm63::sc_log2_survival(n as u32);
        for p in points.iter().filter(|p| p.n == n) {
            sandwich_ok &= p.log2_survival >= lower - 1.0 && p.log2_survival <= upper + 1.0;
        }
    }
    let _ = writeln!(
        out,
        "every model inside the Claim B.2 sandwich [SC - (n-1), SC]: {}",
        verdict(sandwich_ok)
    );

    // Route 2: exact iid-window curves out to n = 64.
    let ns_iid = [2u32, 4, 8, 16, 32, 64];
    let _ = writeln!(
        out,
        "\nexact iid-window route (exact for WO; independent-program variant for TSO/PSO):\n"
    );
    let mut table2 = Table::new(vec!["n", "SC", "TSO", "PSO", "WO", "WO-SC gap"]);
    let mut iid_points: Vec<(MemoryModel, u32, f64)> = Vec::new();
    for &n in &ns_iid {
        let nn = f64::from(n) * f64::from(n);
        let mut cells = vec![n.to_string()];
        let mut wo_exp = 0.0;
        let sc_exp = -thm63::sc_log2_survival(n) / nn;
        for model in MemoryModel::NAMED {
            let exponent = match model {
                MemoryModel::Sc => sc_exp,
                _ => {
                    let pmf = |g: u64| laws.pmf(model, g).expect("named model");
                    -thm63::log2_survival_iid_windows(n, pmf, 90) / nn
                }
            };
            if model == MemoryModel::Wo {
                wo_exp = exponent;
            }
            iid_points.push((model, n, exponent));
            cells.push(format!("{exponent:.4}"));
        }
        cells.push(format!("{:.4}", (wo_exp - sc_exp).abs()));
        table2.row(cells);
    }
    out.push_str(&table2.render());

    let gap = |n: u32| {
        let at: Vec<f64> = iid_points
            .iter()
            .filter(|&&(_, pn, _)| pn == n)
            .map(|&(_, _, e)| e)
            .collect();
        at.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - at.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let iid_shrink = gap(64) < gap(16) && gap(16) < gap(4) && gap(64) < 0.02;
    let _ = writeln!(
        out,
        "\niid exponent spread: n=4 -> {:.4}, n=16 -> {:.4}, n=64 -> {:.4}: {}",
        gap(4),
        gap(16),
        gap(64),
        verdict(iid_shrink)
    );

    // SC convergence towards 3/2 (exact).
    let sc_seq: Vec<f64> = ns_iid
        .iter()
        .map(|&n| -thm63::sc_log2_survival(n) / (f64::from(n) * f64::from(n)))
        .collect();
    let sc_ok = sc_seq
        .windows(2)
        .all(|w| (w[1] - 1.5).abs() <= (w[0] - 1.5).abs() + 1e-12)
        && (sc_seq.last().unwrap() - 1.5).abs() < 0.15;
    let _ = writeln!(
        out,
        "SC exponent marches to 3/2 (exact computation): {}",
        verdict(sc_ok)
    );

    // Chart of the iid-route exponents.
    let mut chart = Chart::new(60, 14);
    chart.title("normalised exponent vs n (iid-window route)");
    for model in MemoryModel::NAMED {
        chart.series(
            model.short_name(),
            iid_points
                .iter()
                .filter(|&&(m, _, _)| m == model)
                .map(|&(_, n, e)| (f64::from(n), e)),
        );
    }
    out.push('\n');
    out.push_str(&chart.render());

    let ok = rb_shrink && sandwich_ok && iid_shrink && sc_ok;
    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_theorem_63() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
