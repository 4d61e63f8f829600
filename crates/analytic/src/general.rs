//! Generalised laws for arbitrary model parameters — the §7 robustness
//! programme.
//!
//! The paper fixes `p = s = 1/2` "for ease of exposition" and notes that
//! "as long as `s` and `p` are constant, the key theorems and conclusions
//! derived in this paper remain fundamentally the same (though some of the
//! numerical values change somewhat)" (§3.1.2), and §7 conjectures the
//! results are robust to model changes. This module generalises every law:
//!
//! * store probability `p` (program model),
//! * swap probability `s` (settling model, footnote 3's uniform case),
//! * geometric shift parameter `q` (interleaving model).
//!
//! Closed forms (derivations parallel the paper's proofs):
//!
//! * **WO window law**: `Pr[B_0] = 1/(1+s)`,
//!   `Pr[B_γ] = s^γ (1−s)/(1+s)` for `γ > 0` — the `p` drops out, exactly
//!   as at the canonical parameters.
//! * **Claim 4.3 limit**: `L(p,s) = p / (1 − (1−p)s)`.
//! * **TSO partition series**:
//!   `Pr[L_µ] = p^µ · Σ_q (1−p)^q G_µ(q; s) (1 − L(p,s) s^q)` with
//!   `G_µ(q; x) = Σ_δ φ(δ,q,µ) x^δ`, and `Pr[L_0] = 1 − L(p,s)`;
//!   `Pr[B_γ|L_µ]` is `s^γ` at `µ = γ`, `s^γ(1−s)` beyond.
//! * **PSO climb-back**: `s^k(1−s)` for `k < j`, `s^j` at `k = j`.
//! * **two-thread survival** with shift parameter `q`:
//!   `Pr[A] = 2(1−q)/(2−q) · E[(1−q)^Γ]`.

use crate::window_law::tso_pmf_bounds;
use memmodel::MemoryModel;

/// Generalised model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Store probability of the program model (`Pr[ST] = p`).
    pub p: f64,
    /// Swap-success probability of the settling process.
    pub s: f64,
    /// Success probability of the geometric shift distribution.
    pub q: f64,
}

impl Params {
    /// The paper's canonical `p = s = q = 1/2`.
    #[must_use]
    pub fn canonical() -> Params {
        Params {
            p: 0.5,
            s: 0.5,
            q: 0.5,
        }
    }

    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns the offending value if `p ∉ [0,1]`, `s ∉ [0,1)`, or
    /// `q ∉ (0,1]` (degenerate corners where the laws lose meaning).
    pub fn new(p: f64, s: f64, q: f64) -> Result<Params, f64> {
        if !(0.0..=1.0).contains(&p) {
            return Err(p);
        }
        if !(0.0..1.0).contains(&s) {
            return Err(s);
        }
        if !(q > 0.0 && q <= 1.0) {
            return Err(q);
        }
        Ok(Params { p, s, q })
    }
}

impl Default for Params {
    fn default() -> Params {
        Params::canonical()
    }
}

/// Generalised WO window law.
#[must_use]
pub fn wo_pmf(gamma: u64, s: f64) -> f64 {
    if gamma == 0 {
        1.0 / (1.0 + s)
    } else {
        s.powi(gamma as i32) * (1.0 - s) / (1.0 + s)
    }
}

/// Generalised Claim 4.3 limit `L(p, s) = p / (1 − (1−p)s)`.
#[must_use]
pub fn bottom_store_limit(p: f64, s: f64) -> f64 {
    crate::recurrence::bottom_store_fraction_limit(p, s)
}

/// Generalised `Pr[L_µ]` for every `µ ≤ mu_max`.
///
/// Row `µ` of `G_µ(q; s) = Σ_δ φ(δ, q, µ)·s^δ` (`q ≤ q_max`) follows from
/// row `µ − 1` by Lemma 4.2's recurrence (`lemma42::advance_phi_row`),
/// so one row is updated in place and summed as it completes.
#[must_use]
pub fn pr_l_mu_all(mu_max: u32, q_max: u32, p: f64, s: f64) -> Vec<f64> {
    let limit = bottom_store_limit(p, s);
    // Per-q factors `(1−p)^q` and `1 − L·s^q`, shared by every µ.
    let (lq, tail): (Vec<f64>, Vec<f64>) = (0..=q_max)
        .map(|q| ((1.0 - p).powi(q as i32), 1.0 - limit * s.powi(q as i32)))
        .unzip();
    let mut g = crate::lemma42::phi_row_zero(q_max);
    let mut out = Vec::with_capacity(mu_max as usize + 1);
    out.push(1.0 - limit);
    for mu in 1..=mu_max {
        crate::lemma42::advance_phi_row(&mut g, s.powi(mu as i32));
        let mut total = 0.0;
        for ((l, g), t) in lq.iter().zip(&g).zip(&tail) {
            total += l * g * t;
        }
        out.push(total * p.powi(mu as i32));
    }
    out
}

/// A generalised critical-window law for every named model at parameters
/// `(p, s)`, precomputed once.
///
/// # Example
///
/// ```
/// use analytic::general::{GeneralWindowLaws, Params};
/// use memmodel::MemoryModel;
///
/// let canonical = GeneralWindowLaws::new(Params::canonical());
/// // At the canonical parameters the general law collapses to Theorem 4.1.
/// assert!((canonical.pmf(MemoryModel::Wo, 0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralWindowLaws {
    params: Params,
    tso_pmf: Vec<f64>,
    pso_pmf: Vec<f64>,
}

/// Series depth used by [`GeneralWindowLaws`]. The `Pr[L_µ]` tail decays
/// like `L(p,s)^µ`, so 256 keeps truncation error below ~1e-9 across the
/// tested parameter grid (worst case `L ≈ 0.92`).
const DEPTH: u32 = 256;

impl GeneralWindowLaws {
    /// Builds the laws at the given parameters.
    #[must_use]
    pub fn new(params: Params) -> GeneralWindowLaws {
        let (p, s) = (params.p, params.s);
        let l = pr_l_mu_all(DEPTH, DEPTH, p, s);
        let s_pow: Vec<f64> = (0..=DEPTH).map(|k| s.powi(k as i32)).collect();
        // `s^k·(1 − s)`: passing exactly `k` of more than `k` candidates.
        let s_pow_stop: Vec<f64> = s_pow.iter().map(|sk| sk * (1.0 - s)).collect();
        // TSO: Pr[B_γ] = s^γ·Pr[L_γ] + Σ_{µ>γ} s^γ(1−s)·Pr[L_µ].
        let tso_pmf: Vec<f64> = (0..l.len())
            .map(|gamma| {
                let stop = s_pow_stop[gamma];
                std::iter::once(s_pow[gamma] * l[gamma])
                    .chain(l[gamma + 1..].iter().map(|l_mu| stop * l_mu))
                    .sum()
            })
            .collect();
        // PSO: convolve with the generalised climb-back, which passes
        // `k < j` of the `j` ahead with odds `s^k(1−s)` and all `j` with
        // `s^j`.
        let pso_pmf: Vec<f64> = (0..tso_pmf.len())
            .map(|gamma| {
                let climb = if gamma == 0 { &s_pow } else { &s_pow_stop };
                tso_pmf[gamma..].iter().zip(climb).map(|(t, c)| t * c).sum()
            })
            .collect();
        GeneralWindowLaws {
            params,
            tso_pmf,
            pso_pmf,
        }
    }

    /// The parameters in force.
    #[must_use]
    pub fn params(&self) -> Params {
        self.params
    }

    /// `Pr[B_γ]` under `model` at these parameters; `None` for custom
    /// models.
    #[must_use]
    pub fn pmf(&self, model: MemoryModel, gamma: u64) -> Option<f64> {
        let at = |v: &Vec<f64>| v.get(gamma as usize).copied().unwrap_or(0.0);
        match model {
            MemoryModel::Sc => Some(f64::from(u8::from(gamma == 0))),
            MemoryModel::Wo => Some(wo_pmf(gamma, self.params.s)),
            MemoryModel::Tso => Some(at(&self.tso_pmf)),
            MemoryModel::Pso => Some(at(&self.pso_pmf)),
            MemoryModel::Custom(_) => None,
        }
    }

    /// Generalised two-thread survival:
    /// `Pr[A] = 2(1−q)/(2−q) · E[(1−q)^Γ]` with `Γ = γ + 2`.
    #[must_use]
    pub fn two_thread_survival(&self, model: MemoryModel) -> Option<f64> {
        let q = self.params.q;
        let base = 1.0 - q;
        let e: f64 = (0..=u64::from(DEPTH))
            .map(|gamma| {
                self.pmf(model, gamma)
                    .map(|p| p * base.powi(gamma as i32 + 2))
            })
            .sum::<Option<f64>>()?;
        Some(2.0 * base / (2.0 - q) * e)
    }
}

/// Spot check helper: at the canonical parameters the generalised TSO law
/// must sit inside the paper's Theorem 4.1 bounds.
#[must_use]
pub fn canonical_tso_within_bounds(laws: &GeneralWindowLaws, gamma_max: u64) -> bool {
    (0..=gamma_max).all(|gamma| {
        let v = laws.pmf(MemoryModel::Tso, gamma).expect("named model");
        let (lo, hi) = tso_pmf_bounds(gamma);
        v >= lo - 1e-9 && v <= hi + 1e-9
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thm62;
    use crate::window_law::WindowLaws;

    #[test]
    fn params_validation() {
        assert!(Params::new(0.5, 0.5, 0.5).is_ok());
        assert!(Params::new(-0.1, 0.5, 0.5).is_err());
        assert!(Params::new(0.5, 1.0, 0.5).is_err()); // s = 1 degenerate
        assert!(Params::new(0.5, 0.5, 0.0).is_err()); // q = 0 degenerate
        assert!(Params::new(0.5, 0.5, 1.0).is_ok());
    }

    #[test]
    fn general_laws_are_pinned_bit_for_bit() {
        // FNV-1a over the `to_bits` of every pmf value on a 9 × 7 (p, s)
        // grid, γ ≤ DEPTH, for the four named models, plus each model's
        // two-thread survival. Recorded before the `powi` tables were
        // hoisted out of the series loops: the laws must not move by an ulp.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: f64| hash = (hash ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
        for p in (0..9).map(|i| f64::from(i) / 8.0) {
            for s in (0..7).map(|i| f64::from(i) * 0.15) {
                let laws = GeneralWindowLaws::new(Params::new(p, s, 0.5).unwrap());
                for model in MemoryModel::NAMED {
                    for gamma in 0..=u64::from(DEPTH) {
                        fold(laws.pmf(model, gamma).unwrap());
                    }
                    fold(laws.two_thread_survival(model).unwrap());
                }
            }
        }
        assert_eq!(
            hash, 0xef92_0c7a_47c5_9e07,
            "generalised laws moved: {hash:#018x}"
        );
    }

    #[test]
    fn wo_general_law_normalises() {
        for s in [0.1, 0.5, 0.9] {
            let total: f64 = (0..2000).map(|g| wo_pmf(g, s)).sum();
            assert!((total - 1.0).abs() < 1e-9, "s={s}: {total}");
        }
    }

    #[test]
    fn canonical_collapses_to_theorem_41() {
        let general = GeneralWindowLaws::new(Params::canonical());
        let paper = WindowLaws::new();
        for model in MemoryModel::NAMED {
            for gamma in 0..=12u64 {
                let g = general.pmf(model, gamma).unwrap();
                let p = paper.pmf(model, gamma).unwrap();
                assert!(
                    (g - p).abs() < 1e-9,
                    "{model} γ={gamma}: general {g} vs paper {p}"
                );
            }
        }
        assert!(canonical_tso_within_bounds(&general, 20));
    }

    #[test]
    fn general_laws_normalise() {
        for (p, s) in [(0.3, 0.6), (0.7, 0.4), (0.5, 0.8), (0.9, 0.2)] {
            let laws = GeneralWindowLaws::new(Params::new(p, s, 0.5).unwrap());
            for model in MemoryModel::NAMED {
                let total: f64 = (0..=u64::from(DEPTH))
                    .map(|g| laws.pmf(model, g).unwrap())
                    .sum();
                assert!(
                    (total - 1.0).abs() < 1e-6,
                    "{model} p={p} s={s}: total {total}"
                );
            }
        }
    }

    #[test]
    fn canonical_survival_matches_theorem_62() {
        let laws = GeneralWindowLaws::new(Params::canonical());
        let sc = laws.two_thread_survival(MemoryModel::Sc).unwrap();
        assert!((sc - thm62::sc_survival().to_f64()).abs() < 1e-12);
        let wo = laws.two_thread_survival(MemoryModel::Wo).unwrap();
        assert!((wo - thm62::wo_survival().to_f64()).abs() < 1e-12);
        let tso = laws.two_thread_survival(MemoryModel::Tso).unwrap();
        let (lo, hi) = thm62::tso_survival_bounds();
        assert!(tso > lo.to_f64() - 1e-9 && tso < hi.to_f64() + 1e-9);
    }

    #[test]
    fn robust_orderings_hold_across_the_grid() {
        // What of the §7 conjecture actually survives a parameter sweep:
        // SC dominates every relaxed model, and PSO dominates TSO (the
        // climb-back can only shrink windows). The TSO-vs-WO ordering is
        // NOT robust — see `tso_wo_ordering_flips_at_high_s`.
        for p in [0.2, 0.5, 0.8] {
            for s in [0.2, 0.5, 0.8] {
                for q in [0.3, 0.5, 0.7] {
                    let laws = GeneralWindowLaws::new(Params::new(p, s, q).unwrap());
                    let v = |m| laws.two_thread_survival(m).unwrap();
                    let sc = v(MemoryModel::Sc);
                    for m in [MemoryModel::Pso, MemoryModel::Tso, MemoryModel::Wo] {
                        assert!(sc >= v(m) - 1e-9, "SC beaten by {m} at p={p} s={s} q={q}");
                    }
                    assert!(
                        v(MemoryModel::Pso) >= v(MemoryModel::Tso) - 1e-9,
                        "PSO below TSO at p={p} s={s} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn tso_wo_ordering_flips_at_high_s() {
        // A reproduction finding: the paper's TSO > WO survival ordering
        // holds at the canonical parameters but INVERTS when the swap
        // probability is high. Under WO the critical store chases the
        // critical load upward (the same mechanism that makes PSO beat TSO),
        // and at s = 0.8 that chase concentrates WO's window at gamma = 0
        // harder than TSO's law does: Pr[B_0] is 1/(1+s) ~ 0.556 for WO vs
        // 1 - s.L(p,s) ~ 0.524 for TSO. At s = 1/2 the two happen to tie at
        // exactly 2/3, which is why the canonical ordering is so close.
        let canonical = GeneralWindowLaws::new(Params::canonical());
        assert!(
            canonical.two_thread_survival(MemoryModel::Tso).unwrap()
                > canonical.two_thread_survival(MemoryModel::Wo).unwrap()
        );
        let high_s = GeneralWindowLaws::new(Params::new(0.5, 0.8, 0.3).unwrap());
        assert!(
            high_s.two_thread_survival(MemoryModel::Wo).unwrap()
                > high_s.two_thread_survival(MemoryModel::Tso).unwrap(),
            "expected the WO/TSO inversion at s = 0.8"
        );
        // The B_0 comparison that drives it.
        assert!(high_s.pmf(MemoryModel::Wo, 0).unwrap() > high_s.pmf(MemoryModel::Tso, 0).unwrap());
        assert!(
            (canonical.pmf(MemoryModel::Wo, 0).unwrap()
                - canonical.pmf(MemoryModel::Tso, 0).unwrap())
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn extreme_parameters_degenerate_sensibly() {
        // s → 0: every model behaves like SC.
        let laws = GeneralWindowLaws::new(Params::new(0.5, 0.0, 0.5).unwrap());
        for model in MemoryModel::NAMED {
            assert!((laws.pmf(model, 0).unwrap() - 1.0).abs() < 1e-12, "{model}");
        }
        // p → 1 (all stores): TSO's climb is unobstructed, so the window
        // law approaches the pure geometric s^gamma (1-s).
        let laws = GeneralWindowLaws::new(Params::new(0.95, 0.5, 0.5).unwrap());
        for gamma in 0..=5u64 {
            let tso = laws.pmf(MemoryModel::Tso, gamma).unwrap();
            let pure = 0.5f64.powi(gamma as i32) * 0.5;
            assert!((tso - pure).abs() < 0.03, "γ={gamma}: {tso} vs {pure}");
        }
        // p → 0 (all loads): TSO collapses to SC.
        let laws = GeneralWindowLaws::new(Params::new(0.001, 0.5, 0.5).unwrap());
        assert!(laws.pmf(MemoryModel::Tso, 0).unwrap() > 0.999);
    }

    #[test]
    fn q_controls_overall_survival_level() {
        // Larger q = tighter shifts = more collisions = lower survival.
        let mut prev = 1.0;
        for q in [0.2, 0.5, 0.8] {
            let laws = GeneralWindowLaws::new(Params::new(0.5, 0.5, q).unwrap());
            let sc = laws.two_thread_survival(MemoryModel::Sc).unwrap();
            assert!(sc < prev, "q={q}");
            prev = sc;
        }
    }
}
