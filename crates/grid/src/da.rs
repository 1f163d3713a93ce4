//! The 2D periodic structured grid (a minimal `DMDA`).

/// An `nx × ny` periodic grid with `dof` unknowns per node.
///
/// Unknown ordering is PETSc's interlaced layout: component `c` of node
/// `(x, y)` lives at `(y·nx + x)·dof + c`, so multi-component problems get
/// the small natural blocks that §3.2/§7 mention (2×2 for Gray-Scott).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid2D {
    /// Nodes in x.
    pub nx: usize,
    /// Nodes in y.
    pub ny: usize,
    /// Unknowns per node.
    pub dof: usize,
}

impl Grid2D {
    /// Creates a grid; all dimensions must be positive.
    pub fn new(nx: usize, ny: usize, dof: usize) -> Self {
        assert!(nx > 0 && ny > 0 && dof > 0);
        Self { nx, ny, dof }
    }

    /// Number of grid nodes.
    pub(crate) fn n_nodes(&self) -> usize {
        self.nx * self.ny
    }

    /// Number of unknowns (`nodes × dof`).
    pub fn n_unknowns(&self) -> usize {
        self.n_nodes() * self.dof
    }

    /// Global index of component `c` at node `(x, y)` (no wrapping).
    #[inline]
    pub fn idx(&self, x: usize, y: usize, c: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && c < self.dof);
        (y * self.nx + x) * self.dof + c
    }

    /// Global index with periodic wrapping of signed offsets — the
    /// boundary treatment of the paper's experiment ("periodic boundary
    /// conditions are used instead of homogeneous Neumann", §7).
    #[inline]
    pub fn idx_wrap(&self, x: isize, y: isize, c: usize) -> usize {
        let xw = x.rem_euclid(self.nx as isize) as usize;
        let yw = y.rem_euclid(self.ny as isize) as usize;
        self.idx(xw, yw, c)
    }

    /// Inverse of [`Grid2D::idx`]: `(x, y, c)` of a global index.
    pub fn coords(&self, g: usize) -> (usize, usize, usize) {
        let c = g % self.dof;
        let node = g / self.dof;
        (node % self.nx, node / self.nx, c)
    }

    /// The next-coarser grid (dimensions halved); requires even sizes.
    pub(crate) fn coarsen(&self) -> Grid2D {
        assert!(
            self.nx.is_multiple_of(2) && self.ny.is_multiple_of(2),
            "grid not coarsenable: {self:?}"
        );
        Grid2D {
            nx: self.nx / 2,
            ny: self.ny / 2,
            dof: self.dof,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let g = Grid2D::new(7, 5, 2);
        for y in 0..5 {
            for x in 0..7 {
                for c in 0..2 {
                    let i = g.idx(x, y, c);
                    assert_eq!(g.coords(i), (x, y, c));
                }
            }
        }
        assert_eq!(g.n_unknowns(), 70);
    }

    #[test]
    fn wrapping_is_periodic() {
        let g = Grid2D::new(4, 4, 1);
        assert_eq!(g.idx_wrap(-1, 0, 0), g.idx(3, 0, 0));
        assert_eq!(g.idx_wrap(4, 2, 0), g.idx(0, 2, 0));
        assert_eq!(g.idx_wrap(2, -1, 0), g.idx(2, 3, 0));
        assert_eq!(g.idx_wrap(2, 4, 0), g.idx(2, 0, 0));
        assert_eq!(g.idx_wrap(-5, -5, 0), g.idx(3, 3, 0));
    }

    #[test]
    fn interlaced_layout_gives_natural_blocks() {
        let g = Grid2D::new(3, 3, 2);
        // Components of one node are adjacent.
        assert_eq!(g.idx(1, 1, 1), g.idx(1, 1, 0) + 1);
    }

    #[test]
    fn coarsening() {
        let g = Grid2D::new(64, 64, 2);
        let c = g.coarsen();
        assert_eq!((c.nx, c.ny, c.dof), (32, 32, 2));
    }

    #[test]
    #[should_panic(expected = "not coarsenable")]
    fn odd_grid_cannot_coarsen() {
        Grid2D::new(9, 8, 1).coarsen();
    }
}
