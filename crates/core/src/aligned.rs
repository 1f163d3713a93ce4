//! 64-byte-aligned heap storage for the arrays a kernel reads in whole
//! slice columns.
//!
//! §3.1 of the paper: on KNL, data that is not aligned to the cache-line
//! size forces the compiler to emit *peel* code at the start of a vectorized
//! loop.  A SELL slice column is 64 bytes at `C = 8`, so on a 64-byte base
//! every column of [`Sell`](crate::Sell), [`SellEsb`](crate::SellEsb) and a
//! [`MultiVec`](crate::MultiVec) row block is one cache line and one unsplit
//! vector load; those three hold `AVec`s.  Alignment is a speed property
//! only: every tier loads with unaligned instructions
//! (`kernels::lanes`), and no kernel's `requires:` clause names a base
//! address.  `Csr`, `Baij` and `Sbaij` hold plain `Vec`s — a CSR row or a
//! `bs × bs` block starts wherever the previous one ended, so no load of
//! theirs could use the boundary.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::slice;

/// The alignment (bytes) used for every `AVec` allocation: one cache line,
/// which is also the width of a ZMM register.
pub const ALIGN: usize = 64;

/// A fixed-capacity, 64-byte-aligned vector of plain-old-data elements.
///
/// Unlike `Vec<T>`, an `AVec` is created at its final length (zero-filled or
/// copied from a slice) and never reallocates, so the base pointer — and
/// with it the alignment — is stable for the lifetime of the container.
/// Everything else (`len`, `as_ptr`, indexing, iteration) is the slice's,
/// through `Deref`.
pub(crate) struct AVec<T: Copy> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: AVec owns its allocation exclusively and T: Copy has no interior
// mutability, so sending it across threads is sound.
unsafe impl<T: Copy + Send> Send for AVec<T> {}
// SAFETY: shared access only hands out &[T]; T: Sync makes that sound.
unsafe impl<T: Copy + Sync> Sync for AVec<T> {}

impl<T: Copy> AVec<T> {
    fn layout(len: usize) -> Layout {
        let size = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("AVec size overflow");
        Layout::from_size_align(size.max(1), ALIGN.max(std::mem::align_of::<T>()))
            .expect("invalid AVec layout")
    }

    /// Allocates a zero-initialized aligned vector of `len` elements.
    ///
    /// Zero-initialization is exactly what the padded entries of the SELL
    /// formats require, so construction doubles as padding.
    pub(crate) fn zeroed(len: usize) -> Self {
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (max(1)) and valid alignment.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout)
        };
        Self { ptr, len }
    }

    /// Allocates an aligned vector holding a copy of `src`.
    pub(crate) fn from_slice(src: &[T]) -> Self {
        let mut v = Self::zeroed(src.len());
        v.copy_from_slice(src);
        v
    }

    /// View as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements by construction.
        unsafe { slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// View as a mutable slice.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: ptr is valid for len elements and we hold &mut self.
        unsafe { slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> Drop for AVec<T> {
    fn drop(&mut self) {
        // SAFETY: allocated with the identical layout in `zeroed`.
        unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) }
    }
}

impl<T: Copy> Clone for AVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl<T: Copy> Deref for AVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for AVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for AVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

impl<T: Copy + PartialEq> PartialEq for AVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let v: AVec<f64> = AVec::zeroed(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn from_slice_round_trips() {
        let data: Vec<u32> = (0..257).collect();
        let v = AVec::from_slice(&data);
        assert_eq!(v.as_slice(), data.as_slice());
        assert_eq!(v.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn empty_vec_is_fine() {
        let v: AVec<f64> = AVec::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f64]);
        let w: AVec<f64> = AVec::from_slice(&[]);
        assert_eq!(v, w);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AVec::from_slice(&[1.0f64, 2.0, 3.0]);
        let b = a.clone();
        a[0] = 9.0;
        assert_eq!(b[0], 1.0);
        assert_eq!(a[0], 9.0);
        assert_eq!(b.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn mutation_via_slice() {
        let mut v: AVec<f64> = AVec::zeroed(8);
        v.as_mut_slice()
            .copy_from_slice(&[1., 2., 3., 4., 5., 6., 7., 8.]);
        assert_eq!(v[7], 8.0);
        v[7] = -1.0;
        assert_eq!(v.as_slice()[7], -1.0);
    }

    #[test]
    fn many_allocations_stay_aligned() {
        // Exercise several sizes around cache-line multiples.
        for len in [1usize, 7, 8, 9, 63, 64, 65, 511, 512, 513] {
            let v: AVec<u32> = AVec::zeroed(len);
            assert_eq!(v.as_ptr() as usize % ALIGN, 0, "len={len}");
            assert_eq!(v.len(), len);
        }
    }
}
