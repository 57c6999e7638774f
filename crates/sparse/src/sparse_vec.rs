use std::fmt;

use crate::{Result, SparseError};

/// A borrowed view over one row of a [`crate::CsrMatrix`].
///
/// The sampler's inner loop (Alg. 2 of the paper) iterates over the non-zero
/// entries of a document's row of the document–topic matrix `A`; this view is
/// the zero-copy handle it receives.
#[derive(Debug, Clone, Copy)]
pub struct SparseRowView<'a, T> {
    indices: &'a [u32],
    values: &'a [T],
}

impl<'a, T> SparseRowView<'a, T> {
    /// Creates a view from parallel index/value slices.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths (this is an internal
    /// invariant of `CsrMatrix`, so a violation indicates a library bug).
    pub fn new(indices: &'a [u32], values: &'a [T]) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "sparse row indices/values length mismatch"
        );
        SparseRowView { indices, values }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` when the row stores no entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The column indices of the stored entries.
    pub fn indices(&self) -> &'a [u32] {
        self.indices
    }

    /// The values of the stored entries.
    pub fn values(&self) -> &'a [T] {
        self.values
    }

    /// Iterator over `(column, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &'a T)> + 'a {
        self.indices.iter().copied().zip(self.values.iter())
    }
}

impl<'a, T: Copy> SparseRowView<'a, T> {
    /// Looks up the value stored at `col`, if any, by binary search.
    pub fn get(&self, col: u32) -> Option<T> {
        self.indices
            .binary_search(&col)
            .ok()
            .map(|pos| self.values[pos])
    }
}

impl<'a> SparseRowView<'a, u32> {
    /// Sum of the stored counts (the row total, i.e. the document length when
    /// the view is a row of the document–topic matrix).
    pub fn sum(&self) -> u64 {
        self.values.iter().map(|&v| u64::from(v)).sum()
    }
}

/// An owned sparse vector with `u32` indices.
///
/// Used for scratch rows when rebuilding the document–topic matrix and for the
/// per-token probability vector `P = A_d ⊙ B̂_v` in the sampler.
///
/// # Examples
///
/// ```
/// use saber_sparse::SparseVec;
///
/// let mut v = SparseVec::new();
/// v.push(3, 2.0f32);
/// v.push(8, 0.5f32);
/// assert_eq!(v.nnz(), 2);
/// assert_eq!(v.as_view().get(8), Some(0.5));
/// ```
///
/// Entries must be pushed with strictly increasing indices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec<T> {
    indices: Vec<u32>,
    values: Vec<T>,
}

impl<T> SparseVec<T> {
    /// Creates an empty sparse vector.
    pub fn new() -> Self {
        SparseVec {
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty sparse vector with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        SparseVec {
            indices: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Creates a sparse vector from parallel arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::LengthMismatch`] if the arrays differ in length.
    pub fn from_parts(indices: Vec<u32>, values: Vec<T>) -> Result<Self> {
        if indices.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        Ok(SparseVec { indices, values })
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Appends an entry. Indices are expected to be pushed in strictly
    /// increasing order; this is checked in debug builds only.
    pub fn push(&mut self, index: u32, value: T) {
        debug_assert!(
            self.indices.last().is_none_or(|&last| index > last),
            "indices must be pushed in strictly increasing order"
        );
        self.indices.push(index);
        self.values.push(value);
    }

    /// Clears all entries, keeping allocations.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Borrow as a [`SparseRowView`].
    pub fn as_view(&self) -> SparseRowView<'_, T> {
        SparseRowView::new(&self.indices, &self.values)
    }

    /// The stored column indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored values.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterator over `(index, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.indices.iter().copied().zip(self.values.iter())
    }
}

impl<T: Copy + Default + PartialEq> SparseVec<T> {
    /// Builds a sparse vector from a dense slice, dropping `T::default()`
    /// entries.
    pub fn from_dense(dense: &[T]) -> Self {
        let mut v = SparseVec::new();
        for (i, &x) in dense.iter().enumerate() {
            if x != T::default() {
                v.push(i as u32, x);
            }
        }
        v
    }
}

impl<T: fmt::Display> fmt::Display for SparseVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, (i, v)) in self.indices.iter().zip(self.values.iter()).enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl<T> FromIterator<(u32, T)> for SparseVec<T> {
    fn from_iter<I: IntoIterator<Item = (u32, T)>>(iter: I) -> Self {
        let mut v = SparseVec::new();
        for (i, x) in iter {
            v.indices.push(i);
            v.values.push(x);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_view() {
        let mut v = SparseVec::new();
        v.push(1, 10u32);
        v.push(5, 20);
        v.push(9, 30);
        assert_eq!(v.nnz(), 3);
        let view = v.as_view();
        assert_eq!(view.get(5), Some(20));
        assert_eq!(view.get(2), None);
        assert_eq!(view.sum(), 60);
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![0u32, 3, 0, 0, 7, 1];
        let sparse = SparseVec::from_dense(&dense);
        assert_eq!(sparse.nnz(), 3);
        let view = sparse.as_view();
        let back: Vec<u32> = (0..6).map(|i| view.get(i).unwrap_or(0)).collect();
        assert_eq!(back, dense);
    }

    #[test]
    fn from_parts_checks_lengths() {
        assert!(SparseVec::from_parts(vec![1, 2], vec![1.0f32]).is_err());
        let v = SparseVec::from_parts(vec![1, 2], vec![1.0f32, 2.0]).unwrap();
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn display_formats_pairs() {
        let v: SparseVec<u32> = vec![(0, 1u32), (4, 2)].into_iter().collect();
        assert_eq!(v.to_string(), "{0: 1, 4: 2}");
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut v = SparseVec::with_capacity(8);
        v.push(0, 1u32);
        v.clear();
        assert!(v.is_empty());
        assert!(v.indices().is_empty());
    }

    #[test]
    fn view_iteration() {
        let v: SparseVec<f32> = vec![(2, 0.5f32), (7, 0.25)].into_iter().collect();
        let pairs: Vec<(u32, f32)> = v.as_view().iter().map(|(i, &x)| (i, x)).collect();
        assert_eq!(pairs, vec![(2, 0.5), (7, 0.25)]);
    }
}
