use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{Result, SparseError};

/// A row-major dense matrix.
///
/// Used for the word–topic count matrix `B` and the word–topic probability
/// matrix `B̂`, which are accessed at random column positions and therefore do
/// not benefit from a sparse representation (§3.1.1 of the paper).
///
/// # Examples
///
/// ```
/// use saber_sparse::DenseMatrix;
///
/// let mut m = DenseMatrix::<f32>::zeros(2, 3);
/// m[(0, 1)] = 0.5;
/// assert_eq!(m.row(0), &[0.0, 0.5, 0.0]);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for DenseMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DenseMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("nnz_capacity", &self.data.len())
            .finish()
    }
}

impl<T: Clone + Default> DenseMatrix<T> {
    /// Creates a `rows × cols` matrix filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Resets every element to `T::default()`.
    pub fn clear(&mut self) {
        for x in &mut self.data {
            *x = T::default();
        }
    }
}

impl<T> DenseMatrix<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying flat row-major buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying flat row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks(self.cols.max(1)).take(self.rows)
    }

    /// Size of the element payload in bytes (excluding the struct header).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

impl DenseMatrix<u32> {
    /// Sum of a column, as `u64` to avoid overflow on billion-token corpora.
    pub fn col_sum(&self, c: usize) -> u64 {
        assert!(c < self.cols, "column {c} out of bounds");
        (0..self.rows)
            .map(|r| u64::from(self.data[r * self.cols + c]))
            .sum()
    }

    /// Total of all elements.
    pub fn total(&self) -> u64 {
        self.data.iter().map(|&x| u64::from(x)).sum()
    }
}

impl<T> Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;

    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for DenseMatrix<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Clone + Default> Default for DenseMatrix<T> {
    fn default() -> Self {
        DenseMatrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_index() {
        let mut m = DenseMatrix::<u32>::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m[(2, 3)], 0);
        m[(2, 3)] = 7;
        assert_eq!(m[(2, 3)], 7);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1u32, 2, 3]).is_err());
        let m = DenseMatrix::from_vec(2, 2, vec![1u32, 2, 3, 4]).unwrap();
        assert_eq!(m.row(1), &[3, 4]);
    }

    #[test]
    fn row_access_and_iteration() {
        let m = DenseMatrix::from_vec(2, 3, vec![1u32, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(m.row(0), &[1, 2, 3]);
        assert_eq!(m.row(1), &[4, 5, 6]);
        let rows: Vec<&[u32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[4, 5, 6]);
    }

    #[test]
    fn sums() {
        let m = DenseMatrix::from_vec(2, 3, vec![1u32, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(m.col_sum(0), 5);
        assert_eq!(m.col_sum(2), 9);
        assert_eq!(m.total(), 21);
    }

    #[test]
    fn clear_resets() {
        let mut m = DenseMatrix::from_vec(2, 2, vec![1u32, 2, 3, 4]).unwrap();
        m.clear();
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn memory_bytes() {
        let m = DenseMatrix::<f32>::zeros(10, 100);
        assert_eq!(m.memory_bytes(), 10 * 100 * 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let m = DenseMatrix::<u32>::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = DenseMatrix::<u32>::zeros(0, 0);
        assert_eq!(m.iter_rows().count(), 0);
        assert_eq!(m.memory_bytes(), 0);
    }
}
