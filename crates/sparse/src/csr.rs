use std::fmt;

use crate::{DenseMatrix, SparseRowView};

/// A compressed-sparse-rows (CSR) matrix.
///
/// SaberLDA stores the document–topic count matrix `A` in CSR form (§3.1.1):
/// the sampler only ever iterates over the non-zero topics of a document, and
/// the CSR layout also cuts host↔device transfer volume compared to the dense
/// representation of prior GPU systems.
///
/// Invariants maintained by every constructor:
///
/// * `row_ptr.len() == n_rows + 1`, `row_ptr[0] == 0`, monotone non-decreasing,
///   `row_ptr[n_rows] == col_idx.len() == values.len()`;
/// * within a row, column indices are strictly increasing and `< n_cols`.
///
/// # Examples
///
/// ```
/// use saber_sparse::CsrBuilder;
///
/// let mut b = CsrBuilder::<u32>::new(4);
/// b.push_row_unchecked([(0, 1), (3, 2)]);
/// b.push_row_unchecked([]);
/// b.push_row_unchecked([(2, 5)]);
/// let m = b.build();
/// assert_eq!(m.shape(), (3, 4));
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.row(0).get(3), Some(2));
/// assert!(m.row(1).is_empty());
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix<T> {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for CsrMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrMatrix")
            .field("n_rows", &self.n_rows)
            .field("n_cols", &self.n_cols)
            .field("nnz", &self.col_idx.len())
            .finish()
    }
}

impl<T: Copy> CsrMatrix<T> {
    /// Builds a CSR matrix from a dense matrix, dropping zero entries.
    pub fn from_dense(dense: &DenseMatrix<T>) -> Self
    where
        T: Default + PartialEq,
    {
        let mut b = CsrBuilder::new(dense.cols());
        for r in 0..dense.rows() {
            let row = dense.row(r);
            b.push_row_unchecked(
                row.iter()
                    .enumerate()
                    .filter(|(_, v)| **v != T::default())
                    .map(|(c, v)| (c as u32, *v)),
            );
        }
        b.build()
    }
}

impl<T> CsrMatrix<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.n_cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_rows, self.n_cols)
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Borrow row `r` as a [`SparseRowView`].
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> SparseRowView<'_, T> {
        assert!(
            r < self.n_rows,
            "row {r} out of bounds ({} rows)",
            self.n_rows
        );
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        SparseRowView::new(&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_nnz(&self, r: usize) -> usize {
        assert!(r < self.n_rows, "row {r} out of bounds");
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Iterator over all rows as [`SparseRowView`]s.
    pub fn iter_rows(&self) -> RowIter<'_, T> {
        RowIter {
            matrix: self,
            row: 0,
        }
    }

    /// The raw row-pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column-index array.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// The raw value array.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Size of the payload arrays in bytes (CSR footprint reported in Table 2).
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<T>()
    }
}

impl<T> Default for CsrMatrix<T> {
    fn default() -> Self {
        CsrMatrix {
            n_rows: 0,
            n_cols: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// Iterator over the rows of a [`CsrMatrix`], yielding [`SparseRowView`]s.
#[derive(Debug)]
pub struct RowIter<'a, T> {
    matrix: &'a CsrMatrix<T>,
    row: usize,
}

impl<'a, T> Iterator for RowIter<'a, T> {
    type Item = SparseRowView<'a, T>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.row >= self.matrix.n_rows {
            return None;
        }
        let view = self.matrix.row(self.row);
        self.row += 1;
        Some(view)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.matrix.n_rows - self.row;
        (rem, Some(rem))
    }
}

impl<'a, T> ExactSizeIterator for RowIter<'a, T> {}

/// Incremental builder for a [`CsrMatrix`], appending one row at a time.
///
/// This is how the M-step count kernels assemble the document–topic matrix: a
/// chunk's documents are counted in order and each per-document histogram is
/// appended as a row.
///
/// # Examples
///
/// ```
/// use saber_sparse::CsrBuilder;
///
/// let mut b = CsrBuilder::<u32>::new(8);
/// b.push_row_unchecked([(1, 3), (5, 1)]);
/// b.push_row_unchecked([]);
/// let m = b.build();
/// assert_eq!(m.shape(), (2, 8));
/// assert_eq!(m.nnz(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder<T> {
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy> CsrBuilder<T> {
    /// Creates a builder for a matrix with `n_cols` columns and no rows yet.
    pub fn new(n_cols: usize) -> Self {
        CsrBuilder {
            n_cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `rows` rows and `nnz`
    /// total entries.
    pub fn with_capacity(n_cols: usize, rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        CsrBuilder {
            n_cols,
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Appends a row given `(column, value)` pairs with strictly increasing
    /// columns `< n_cols`. The entries are not validated (debug builds check
    /// the bound): the count kernels produce them sorted by construction.
    pub fn push_row_unchecked<I: IntoIterator<Item = (u32, T)>>(&mut self, entries: I) {
        for (c, v) in entries {
            debug_assert!((c as usize) < self.n_cols);
            self.col_idx.push(c);
            self.values.push(v);
        }
        self.row_ptr.push(self.col_idx.len());
    }

    /// Number of rows appended so far.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Finalises the matrix.
    pub fn build(self) -> CsrMatrix<T> {
        CsrMatrix {
            n_rows: self.row_ptr.len() - 1,
            n_cols: self.n_cols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix<u32> {
        // Fig. 1 of the paper: 3 documents, 3 topics.
        let mut b = CsrBuilder::new(3);
        b.push_row_unchecked([(2, 2)]);
        b.push_row_unchecked([(0, 3), (2, 1)]);
        b.push_row_unchecked([(1, 2)]);
        b.build()
    }

    #[test]
    fn basic_shape_and_access() {
        let m = example();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0).get(2), Some(2));
        assert_eq!(m.row(1).get(0), Some(3));
        assert_eq!(m.row(1).get(1), None);
        assert_eq!(m.row_nnz(1), 2);
    }

    #[test]
    fn dense_roundtrip() {
        let mut dense = DenseMatrix::zeros(3, 3);
        dense[(0, 2)] = 2;
        dense[(1, 0)] = 3;
        dense[(1, 2)] = 1;
        dense[(2, 1)] = 2;
        let m = CsrMatrix::from_dense(&dense);
        assert_eq!(m, example());
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m.row(r).get(c as u32).unwrap_or(0), dense[(r, c)]);
            }
        }
    }

    #[test]
    fn iter_rows_counts() {
        let m = example();
        let nnzs: Vec<usize> = m.iter_rows().map(|r| r.nnz()).collect();
        assert_eq!(nnzs, vec![1, 2, 1]);
        assert_eq!(m.iter_rows().len(), 3);
    }

    #[test]
    fn empty_and_default() {
        let m: CsrMatrix<u32> = CsrMatrix::default();
        assert_eq!(m.shape(), (0, 0));
        assert_eq!(m.nnz(), 0);
        let m = CsrBuilder::<f32>::new(4).build();
        assert_eq!(m.shape(), (0, 4));
    }

    #[test]
    fn memory_bytes_counts_all_arrays() {
        let m = example();
        let expected = 4 * std::mem::size_of::<usize>() + 4 * 4 + 4 * 4;
        assert_eq!(m.memory_bytes(), expected);
    }
}
