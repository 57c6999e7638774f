//! Sparse and dense matrix substrate for the SaberLDA reproduction.
//!
//! SaberLDA (Li et al., ASPLOS 2017) manipulates three large matrices during
//! training:
//!
//! * the **document–topic count matrix** `A` (`D × K`), which is sparse because a
//!   document only touches a handful of topics — stored here as a
//!   [`CsrMatrix`] (compressed sparse rows);
//! * the **word–topic count matrix** `B` (`V × K`) and its normalised companion
//!   `B̂`, which are randomly accessed and therefore stored as [`DenseMatrix`]
//!   values;
//! * various per-row views ([`SparseRowView`], [`SparseVec`]) used by the
//!   sparsity-aware sampler.
//!
//! The crate also hosts the low-level array routines the GPU kernels in
//! `saber-core` are modelled on: the prefix-sum search of the multinomial
//! sampler ([`prefix`]), least-significant digit radix sort ([`radix`]) and
//! the reference *segmented count* ([`segcount`]) that the
//! shuffle-and-segmented-count (SSC) rebuild is validated against.
//!
//! # Examples
//!
//! ```
//! use saber_sparse::{CsrBuilder, DenseMatrix};
//!
//! // Build the document-topic matrix of the toy corpus in Fig. 1 of the paper.
//! let mut rows = CsrBuilder::<u32>::new(3);
//! rows.push_row_unchecked([(2, 2)]); // doc 1: two tokens of topic 3 (0-based 2)
//! rows.push_row_unchecked([(0, 3), (2, 1)]); // doc 2
//! rows.push_row_unchecked([(1, 2)]); // doc 3
//! let a = rows.build();
//! assert_eq!(a.nnz(), 4);
//! assert_eq!(a.row(1).get(0), Some(3));
//!
//! let mut b = DenseMatrix::<u32>::zeros(5, 3);
//! b[(0, 2)] += 2;
//! assert_eq!(b[(0, 2)], 2);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod csr;
mod dense;
mod error;
pub mod prefix;
pub mod radix;
pub mod segcount;
mod sparse_vec;

pub use csr::{CsrBuilder, CsrMatrix, RowIter};
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use sparse_vec::{SparseRowView, SparseVec};

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
