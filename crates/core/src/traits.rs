//! Common traits implemented by every sparse-matrix format.

/// Basic shape and population queries shared by all formats.
pub trait MatShape {
    /// Number of rows of the logical (unpadded) matrix.
    fn nrows(&self) -> usize;
    /// Number of columns of the logical matrix.
    fn ncols(&self) -> usize;
    /// Number of stored *logical* nonzeros (excluding format padding).
    fn nnz(&self) -> usize;
}

/// Whether [`Operator::apply`] overwrites (`y = A·x`) or accumulates
/// (`y += A·x`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Apply {
    /// Overwrite: `Y = A·X`.  The operator must not read `y`.
    Set,
    /// Accumulate: `Y += A·X`.
    Add,
}

/// The unified sparse-operator product: `Y = A·X` / `Y += A·X` over one
/// vector or a row-interleaved block of `k` right-hand sides.
///
/// This collapses the grown-by-accretion
/// `spmv`/`spmv_add`/`spmv_ctx`/`spmv_add_ctx` surface into one entry
/// point: a [`VecView`](crate::VecView) is either a plain `&[f64]`
/// (`k = 1`, classic SpMV) or a [`MultiVec`](crate::MultiVec) block
/// (`k > 1`, SpMM — the matrix is streamed once and its `12·nnz` traffic
/// amortized across all `k` vectors).
///
/// Implementations must accept `x.rows() == ncols()`,
/// `y.rows() == nrows()`, `x.k() == y.k()`, and must not read `y` under
/// [`Apply::Set`].
///
/// **Contract**: for any context, `apply` must produce output *bitwise
/// identical* to the serial path at the same `k` — partitions never
/// split a row, and each row is computed by the same kernel in the same
/// operand order.  Formats whose kernels scatter into `y` (permuted
/// variants, symmetric storage) satisfy this by running serially
/// regardless of the context.
pub trait Operator: MatShape {
    /// Computes `Y = A·X` ([`Apply::Set`]) or `Y += A·X`
    /// ([`Apply::Add`]) on the given execution context.
    fn apply(
        &self,
        ctx: &crate::ExecCtx,
        x: crate::VecView<'_>,
        y: crate::VecViewMut<'_>,
        mode: Apply,
    );

    /// Floating-point operations performed by one single-vector product
    /// (2 per nonzero), the flop count used for the paper's Gflop/s
    /// figures.
    fn spmv_flops(&self) -> u64 {
        2 * self.nnz() as u64
    }

    /// Minimum memory traffic moved by one single-vector product, for
    /// bandwidth attribution in profiling reports.  The default applies
    /// the §6 CSR formula (`12·nnz + 24·m + 8·n`); each sliced-ELLPACK
    /// format overrides it with the stream its own kernel moves — for
    /// `Sell`, `value_bytes·nnz + 2·narrow_nnz + 4·wide_nnz + 4·nslices +
    /// 10·m + 8·n` (see `crate::traffic::sell_stream_traffic`).
    fn spmv_traffic(&self) -> crate::traffic::TrafficEstimate {
        crate::traffic::csr_traffic(self.nrows(), self.ncols(), self.nnz())
    }

    /// The `k`-independent (matrix-only) part of [`Operator::spmv_traffic`]:
    /// total bytes minus the per-vector stream terms (`8·n` for reading
    /// `x`, `16·m` for the write-allocate round trip on `y`).  This is
    /// the term SpMM amortizes: batching `k` right-hand sides moves
    /// `matrix_bytes() / k` matrix bytes *per RHS*.
    fn matrix_bytes(&self) -> u64 {
        let vector = 8 * self.ncols() as u64 + 16 * self.nrows() as u64;
        self.spmv_traffic().bytes.saturating_sub(vector)
    }

    /// Floating-point operations of one `k`-vector block product.
    fn spmm_flops(&self, k: usize) -> u64 {
        self.spmv_flops() * k as u64
    }

    /// Minimum §6 memory traffic of one `k`-vector block product: the
    /// matrix bytes are loaded **once** while the vector stream terms
    /// scale with `k` — the `12·nnz/k` per-RHS amortization the SpMM
    /// engine exists for.
    fn spmm_traffic(&self, k: usize) -> crate::traffic::TrafficEstimate {
        let vector = 8 * self.ncols() as u64 + 16 * self.nrows() as u64;
        crate::traffic::TrafficEstimate {
            bytes: self.matrix_bytes() + vector * k as u64,
            flops: self.spmm_flops(k),
        }
    }

    /// Multi-vector product `Y = A·X` over **column-major** storage
    /// (`x_v = X[v*ncols..(v+1)*ncols]`, `Y` likewise with `nrows`) — a
    /// convenience wrapper that stages the columns into an interleaved
    /// [`MultiVec`](crate::MultiVec) block and runs one [`Operator::apply`],
    /// so the matrix is streamed once for all `k` vectors.  `k == 0` is a
    /// no-op (there is nothing to multiply).
    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        if k == 0 {
            assert!(x.is_empty() && y.is_empty(), "k == 0 needs empty X/Y");
            return;
        }
        assert_eq!(
            x.len(),
            k * self.ncols(),
            "X must hold k column-major vectors"
        );
        assert_eq!(
            y.len(),
            k * self.nrows(),
            "Y must hold k column-major vectors"
        );
        let (m, n) = (self.nrows(), self.ncols());
        let mut xb = crate::MultiVec::zeros(n, k);
        for v in 0..k {
            xb.set_column(v, &x[v * n..(v + 1) * n]);
        }
        let mut yb = crate::MultiVec::zeros(m, k);
        self.apply(
            &crate::ExecCtx::serial(),
            xb.view(),
            yb.view_mut(),
            Apply::Set,
        );
        for v in 0..k {
            yb.copy_column_into(v, &mut y[v * m..(v + 1) * m]);
        }
    }
}

/// Conversion from CSR — every format can be built from assembled CSR,
/// which is how PETSc's `MatConvert` reaches `SELL`, `BAIJ`, etc.
/// Lets distributed matrices and solvers be generic over the local format.
pub trait FromCsr: Sized {
    /// Builds this format from a CSR matrix.
    fn from_csr(csr: &crate::csr::Csr) -> Self;

    /// Makes `self` the matrix `csr` (PETSc `MatConvert` with
    /// `MAT_REUSE_MATRIX`): afterwards `self` equals `Self::from_csr(csr)`
    /// in every stored bit.  The default rebuilds; formats with a
    /// value-only path take it when `csr` has the pattern they hold —
    /// keeping layout and permutation — and
    /// rebuild otherwise, so a pattern change is never an error here.
    fn set_from_csr(&mut self, csr: &crate::csr::Csr) {
        *self = Self::from_csr(csr);
    }
}

impl FromCsr for crate::csr::Csr {
    fn from_csr(csr: &crate::csr::Csr) -> Self {
        csr.clone()
    }

    fn set_from_csr(&mut self, csr: &crate::csr::Csr) {
        if self.same_pattern(csr) {
            self.values_mut().copy_from_slice(csr.values());
        } else {
            *self = csr.clone();
        }
    }
}

impl<const C: usize> FromCsr for crate::sell::Sell<C> {
    fn from_csr(csr: &crate::csr::Csr) -> Self {
        crate::sell::Sell::<C>::from_csr(csr)
    }

    fn set_from_csr(&mut self, csr: &crate::csr::Csr) {
        if !self.try_set_values(csr, |row| row) {
            *self = Self::from_csr_codec(csr, self.codec()).with_isa(self.isa());
        }
    }
}

impl FromCsr for crate::sell_esb::SellEsb {
    fn from_csr(csr: &crate::csr::Csr) -> Self {
        crate::sell_esb::SellEsb::from_csr(csr)
    }
}

impl<const C: usize> FromCsr for crate::sell_sigma::SellSigma<C> {
    /// Default window σ = 4·C: wide enough to group similar-length rows
    /// across several slices, local enough to keep the permutation's
    /// cache behaviour benign.
    fn from_csr(csr: &crate::csr::Csr) -> Self {
        crate::sell_sigma::SellSigma::<C>::from_csr_sigma(csr, 4 * C)
    }

    /// A rebuild keeps this matrix's own σ, codec and ISA.
    fn set_from_csr(&mut self, csr: &crate::csr::Csr) {
        if !self.try_set_values(csr) {
            *self =
                Self::from_csr_sigma_codec(csr, self.sigma(), self.codec()).with_isa(self.isa());
        }
    }
}

/// Checks SpMV argument shapes; shared by all format implementations.
#[inline]
pub(crate) fn check_spmv_dims(nrows: usize, ncols: usize, x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), ncols, "x length {} != ncols {}", x.len(), ncols);
    assert_eq!(y.len(), nrows, "y length {} != nrows {}", y.len(), nrows);
}

/// Checks blocked `apply` operand shapes; shared by all format
/// implementations.
#[inline]
pub(crate) fn check_apply_dims(
    nrows: usize,
    ncols: usize,
    x: &crate::VecView<'_>,
    y: &crate::VecViewMut<'_>,
) {
    assert_eq!(
        x.k(),
        y.k(),
        "x holds {} vectors but y holds {}",
        x.k(),
        y.k()
    );
    assert_eq!(x.rows(), ncols, "x rows {} != ncols {}", x.rows(), ncols);
    assert_eq!(y.rows(), nrows, "y rows {} != nrows {}", y.rows(), nrows);
}
