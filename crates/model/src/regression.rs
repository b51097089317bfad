//! The per-category linear regression model (Equation 1 of the paper) and
//! the SYNPA slowdown predictor built from three of them.

use crate::categories::Categories;
use crate::linalg;

/// Coefficients of Equation 1 for one category:
/// `C_smt[i,j] = α + β·C_st[i] + γ·C_st[j] + ρ·C_st[i]·C_st[j]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CategoryCoeffs {
    /// Independent (bias-reduction) term.
    pub alpha: f64,
    /// Weight of the target application's own ST value.
    pub beta: f64,
    /// Weight of the co-runner's ST value.
    pub gamma: f64,
    /// Weight of the interaction product.
    pub rho: f64,
}

impl CategoryCoeffs {
    /// Predicts the category's SMT value for application *i* with co-runner
    /// *j* from their ST values.
    #[inline]
    pub fn predict(&self, c_st_i: f64, c_st_j: f64) -> f64 {
        self.alpha + self.beta * c_st_i + self.gamma * c_st_j + self.rho * c_st_i * c_st_j
    }

    /// Fits the coefficients by ordinary least squares on samples of
    /// `(C_st_i, C_st_j, C_smt_ij)`. Returns `None` for degenerate data.
    pub fn fit(samples: &[(f64, f64, f64)]) -> Option<Self> {
        Self::fit_subset(samples, true, true)
    }

    /// Fits every subset variant of Equation 1 (γ and/or ρ forced to zero)
    /// by least squares. Table IV of the paper shows exactly this structure
    /// — the frontend category has γ = ρ = 0 and backend has ρ = 0 — and
    /// §VI-A describes selecting the design "showing the most accurate
    /// regression model", so the training pipeline picks among these
    /// variants by held-out decision quality (see `training::fit_from_samples`).
    pub fn fit_variants(samples: &[(f64, f64, f64)]) -> Vec<Self> {
        [(true, true), (false, true), (true, false), (false, false)]
            .into_iter()
            .filter_map(|(use_gamma, use_rho)| Self::fit_subset(samples, use_gamma, use_rho))
            .collect()
    }

    /// Least-squares fit of Equation 1 with γ and ρ each either kept or
    /// forced to zero. `None` for degenerate data.
    fn fit_subset(samples: &[(f64, f64, f64)], use_gamma: bool, use_rho: bool) -> Option<Self> {
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|&(ci, cj, _)| {
                let mut r = vec![1.0, ci];
                if use_gamma {
                    r.push(cj);
                }
                if use_rho {
                    r.push(ci * cj);
                }
                r
            })
            .collect();
        let y: Vec<f64> = samples.iter().map(|&(_, _, s)| s).collect();
        let beta = linalg::least_squares(&rows, &y)?;
        let mut k = 2;
        let gamma = if use_gamma {
            k += 1;
            beta[k - 1]
        } else {
            0.0
        };
        let rho = if use_rho { beta[k] } else { 0.0 };
        Some(Self {
            alpha: beta[0],
            beta: beta[1],
            gamma,
            rho,
        })
    }

    /// Mean squared prediction error over a sample set.
    pub fn mse(&self, samples: &[(f64, f64, f64)]) -> f64 {
        let pred: Vec<f64> = samples
            .iter()
            .map(|&(ci, cj, _)| self.predict(ci, cj))
            .collect();
        let obs: Vec<f64> = samples.iter().map(|&(_, _, s)| s).collect();
        linalg::mse(&pred, &obs)
    }
}

/// The full SYNPA model: one Equation-1 instance per category
/// (Table IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SynpaModel {
    /// Full-dispatch-cycles category.
    pub full_dispatch: CategoryCoeffs,
    /// Frontend-stalls category.
    pub frontend: CategoryCoeffs,
    /// Backend-stalls category (including revealed waste).
    pub backend: CategoryCoeffs,
}

impl SynpaModel {
    /// Coefficients in Table IV order (FD, FE, BE).
    pub fn coeffs(&self) -> [CategoryCoeffs; 3] {
        [self.full_dispatch, self.frontend, self.backend]
    }

    /// Predicts application *i*'s SMT categories when co-running with *j*.
    pub fn predict(&self, st_i: &Categories, st_j: &Categories) -> Categories {
        Categories {
            full_dispatch: self
                .full_dispatch
                .predict(st_i.full_dispatch, st_j.full_dispatch)
                .max(0.0),
            frontend: self.frontend.predict(st_i.frontend, st_j.frontend).max(0.0),
            backend: self.backend.predict(st_i.backend, st_j.backend).max(0.0),
        }
    }

    /// Predicted slowdown of *i* when co-running with *j*: predicted SMT
    /// CPI over ST CPI (≥ 1 when interference hurts).
    pub fn predict_slowdown(&self, st_i: &Categories, st_j: &Categories) -> f64 {
        let smt = self.predict(st_i, st_j);
        let st = st_i.cpi();
        if st <= 0.0 {
            1.0
        } else {
            smt.cpi() / st
        }
    }

    /// Symmetric pair cost used by the matching step: the sum of the two
    /// predicted slowdowns (lower = more synergistic).
    pub fn pair_cost(&self, st_i: &Categories, st_j: &Categories) -> f64 {
        self.predict_slowdown(st_i, st_j) + self.predict_slowdown(st_j, st_i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_is_equation_one() {
        let c = CategoryCoeffs {
            alpha: 0.5,
            beta: 2.0,
            gamma: 3.0,
            rho: 0.1,
        };
        let v = c.predict(1.0, 2.0);
        assert!((v - (0.5 + 2.0 + 6.0 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_known_coefficients() {
        let truth = CategoryCoeffs {
            alpha: 0.2,
            beta: 1.4,
            gamma: 0.3,
            rho: 0.05,
        };
        // Grid of (ci, cj) pairs exercises all four regressors.
        let samples: Vec<(f64, f64, f64)> = (0..10)
            .flat_map(|i| (0..10).map(move |j| (i, j)))
            .map(|(i, j)| {
                let ci = i as f64 * 0.1;
                let cj = j as f64 * 0.15;
                (ci, cj, truth.predict(ci, cj))
            })
            .collect();
        let fit = CategoryCoeffs::fit(&samples).unwrap();
        assert!((fit.alpha - truth.alpha).abs() < 1e-9);
        assert!((fit.beta - truth.beta).abs() < 1e-9);
        assert!((fit.gamma - truth.gamma).abs() < 1e-9);
        assert!((fit.rho - truth.rho).abs() < 1e-9);
        assert!(fit.mse(&samples) < 1e-18);
    }

    #[test]
    fn fit_rejects_degenerate_samples() {
        // All identical -> singular normal equations.
        let samples = vec![(1.0, 1.0, 2.0); 8];
        assert!(CategoryCoeffs::fit(&samples).is_none());
    }

    #[test]
    fn slowdown_is_one_without_interference() {
        // Identity-ish model: C_smt = C_st exactly.
        let ident = CategoryCoeffs {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
            rho: 0.0,
        };
        let m = SynpaModel {
            full_dispatch: ident,
            frontend: ident,
            backend: ident,
        };
        let st = Categories {
            full_dispatch: 0.25,
            frontend: 0.3,
            backend: 0.45,
        };
        assert!((m.predict_slowdown(&st, &st) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backend_gamma_makes_memory_pairs_costly() {
        // A model where the backend category reacts strongly to the
        // co-runner's backend load (the Table IV structure).
        let m = SynpaModel {
            full_dispatch: CategoryCoeffs {
                alpha: 0.0,
                beta: 0.9,
                gamma: 0.0,
                rho: 0.0,
            },
            frontend: CategoryCoeffs {
                alpha: 0.05,
                beta: 1.4,
                gamma: 0.0,
                rho: 0.0,
            },
            backend: CategoryCoeffs {
                alpha: 0.05,
                beta: 1.0,
                gamma: 1.5,
                rho: 0.0,
            },
        };
        let mem = Categories {
            full_dispatch: 0.1,
            frontend: 0.05,
            backend: 2.0,
        };
        let fe = Categories {
            full_dispatch: 0.2,
            frontend: 1.0,
            backend: 0.1,
        };
        // Pairing two memory hogs must cost more than mixing.
        assert!(m.pair_cost(&mem, &mem) > m.pair_cost(&mem, &fe));
    }

    #[test]
    fn predictions_are_clamped_non_negative() {
        let m = SynpaModel {
            full_dispatch: CategoryCoeffs {
                alpha: -1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let st = Categories::default();
        assert_eq!(m.predict(&st, &st).full_dispatch, 0.0);
    }
}
