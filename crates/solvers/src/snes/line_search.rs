//! Backtracking (Armijo) line search for Newton's method — PETSc's
//! `SNESLineSearchBT`.

/// Line-search configuration.
#[derive(Clone, Copy, Debug)]
pub struct LineSearchConfig {
    /// Sufficient-decrease parameter (Armijo α).
    pub alpha: f64,
    /// Step-halving factor per backtrack.
    pub shrink: f64,
    /// Minimum step length before giving up.
    pub min_lambda: f64,
}

impl Default for LineSearchConfig {
    fn default() -> Self {
        Self {
            alpha: 1e-4,
            shrink: 0.5,
            min_lambda: 1e-12,
        }
    }
}

/// Strategy selector.
#[derive(Clone, Copy, Debug, Default)]
pub enum LineSearch {
    /// Always take the full Newton step (`SNESLineSearchBasic`).
    #[default]
    Full,
    /// Backtracking with Armijo decrease on `‖F‖`.
    Backtracking(LineSearchConfig),
}

impl LineSearch {
    /// Finds a step length λ such that
    /// `‖F(x + λ·d)‖ ≤ (1 − αλ)·‖F(x)‖`, evaluating through `fnorm_at`.
    ///
    /// Returns `(lambda, fnorm_at_lambda)`; λ = 0 signals failure (no
    /// acceptable step).
    pub(crate) fn search(&self, fnorm0: f64, mut fnorm_at: impl FnMut(f64) -> f64) -> (f64, f64) {
        match *self {
            LineSearch::Full => (1.0, fnorm_at(1.0)),
            LineSearch::Backtracking(cfg) => {
                let mut lambda = 1.0;
                loop {
                    let fnorm = fnorm_at(lambda);
                    if fnorm <= (1.0 - cfg.alpha * lambda) * fnorm0 {
                        return (lambda, fnorm);
                    }
                    lambda *= cfg.shrink;
                    if lambda < cfg.min_lambda {
                        return (0.0, fnorm0);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_step_takes_lambda_one() {
        let (l, f) = LineSearch::Full.search(10.0, |lam| 10.0 - lam);
        assert_eq!(l, 1.0);
        assert_eq!(f, 9.0);
    }

    #[test]
    fn backtracking_halves_until_decrease() {
        // Residual grows for λ > 0.3, decreases below it.
        let ls = LineSearch::Backtracking(LineSearchConfig::default());
        let (l, f) = ls.search(1.0, |lam| if lam > 0.3 { 2.0 } else { 0.5 });
        assert!(l <= 0.25 && l > 0.0, "lambda = {l}");
        assert_eq!(f, 0.5);
    }

    #[test]
    fn gives_up_below_min_lambda() {
        let ls = LineSearch::Backtracking(LineSearchConfig {
            min_lambda: 1e-2,
            ..Default::default()
        });
        let (l, f) = ls.search(1.0, |_| 5.0); // never decreases
        assert_eq!(l, 0.0);
        assert_eq!(f, 1.0);
    }
}
