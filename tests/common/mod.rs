//! Fixtures shared by the root-level test targets.

use sellkit::core::{CooBuilder, Csr};

/// The 1-D Dirichlet Laplacian on `n` points and the two linear
/// interpolations under it (`n → n/2 → n/4`; `n` a multiple of 4): the
/// smallest three-level multigrid hierarchy.
pub fn laplace_1d_hierarchy(n: usize) -> (Csr, Vec<Csr>) {
    let mut a = CooBuilder::new(n, n);
    for i in 0..n {
        a.push(i, i, 2.0);
        if i > 0 {
            a.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            a.push(i, i + 1, -1.0);
        }
    }
    // Coarse point `c` sits at fine point `2c + 1`.
    let interp = |n_fine: usize| {
        let mut p = CooBuilder::new(n_fine, n_fine / 2);
        for c in 0..n_fine / 2 {
            let f = 2 * c + 1;
            p.push(f, c, 1.0);
            p.push(f - 1, c, 0.5);
            if f + 1 < n_fine {
                p.push(f + 1, c, 0.5);
            }
        }
        p.to_csr()
    };
    (a.to_csr(), vec![interp(n), interp(n / 2)])
}
