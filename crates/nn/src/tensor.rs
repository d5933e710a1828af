//! A minimal row-major 2-D `f32` tensor: what hf-nn takes in and hands
//! out. Inside, activations live in lane panels (`crate::panels`); the
//! products here convert around the same kernel.

use crate::kernels::{self, Write};
use crate::panels::Panels;

/// A row-major matrix borrowed as a slice: what the kernels and the
/// tape read, whether a [`Tensor`] or a window of a model's flat
/// parameter buffer owns the values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mat<'a> {
    pub data: &'a [f32],
    pub rows: usize,
    pub cols: usize,
}

impl<'a> Mat<'a> {
    /// One row as a slice.
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Creates a tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Tensor { data, rows, cols }
    }

    /// An all-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { data: vec![0.0; rows * cols], rows, cols }
    }

    /// A scalar wrapped as a 1×1 tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::new(vec![v], 1, 1)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The raw row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The matrix as a borrowed slice, for the kernels.
    pub(crate) fn mat(&self) -> Mat<'_> {
        Mat { data: &self.data, rows: self.rows, cols: self.cols }
    }

    /// `self · otherᵀ`, where `self` is `[m × k]` and `other` is `[n × k]`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        kernels::x_wt(&Panels::from_mat(self.mat()), other.mat()).to_tensor()
    }

    /// `selfᵀ · other`, where `self` is `[m × k]` and `other` is `[m × n]`;
    /// exact zeros in `self` (masked gradient rows) contribute nothing.
    ///
    /// # Panics
    ///
    /// Panics on outer-dimension mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        let (g, x) = (Panels::from_mat(self.mat()), Panels::from_mat(other.mat()));
        kernels::gt_x_into(&g, &x, 0..self.rows, (&mut out.data, Write::Store));
        out
    }

    /// `self · other`, where `self` is `[m × k]` and `other` is `[k × n]`;
    /// exact zeros in `self` (masked gradient rows) contribute nothing.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_nn(&self, other: &Tensor) -> Tensor {
        kernels::g_w(&Panels::from_mat(self.mat()), other.mat()).to_tensor()
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shapes");
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| a + b).collect();
        Tensor::new(data, self.rows, self.cols)
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add_scaled shapes");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::new(self.data.iter().map(|&v| f(v)).collect(), self.rows, self.cols)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_nt_matches_hand_computation() {
        // x = [[1,2],[3,4]], w = [[5,6],[7,8]] (rows are output neurons).
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let w = Tensor::new(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        let y = x.matmul_nt(&w);
        assert_eq!(y.data(), &[17.0, 23.0, 39.0, 53.0]);
    }

    #[test]
    fn matmul_tn_matches_definition() {
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let y = Tensor::new(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        // xᵀ·y = [[1,3],[2,4]]·[[5,6],[7,8]] = [[26,30],[38,44]].
        let z = x.matmul_tn(&y);
        assert_eq!(z.data(), &[26.0, 30.0, 38.0, 44.0]);
    }

    #[test]
    fn matmul_nn_matches_definition() {
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let y = Tensor::new(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        let z = x.matmul_nn(&y);
        assert_eq!(z.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_identities_hold() {
        // (x·wᵀ) computed two ways must agree: matmul_nt(x, w) ==
        // matmul_nn(x, w_transposed).
        let x = Tensor::new(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], 2, 3);
        let w = Tensor::new(vec![2.0, 0.0, 1.0, -1.0, 1.0, 0.5], 2, 3);
        let mut wt = Tensor::zeros(3, 2);
        for i in 0..2 {
            for j in 0..3 {
                wt.set(j, i, w.get(i, j));
            }
        }
        assert_eq!(x.matmul_nt(&w).data(), x.matmul_nn(&wt).data());
    }

    #[test]
    fn add_and_scale() {
        let a = Tensor::new(vec![1.0, 2.0], 1, 2);
        let b = Tensor::new(vec![3.0, 4.0], 1, 2);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.data(), &[2.5, 4.0]);
        assert_eq!(a.map(|v| v * v).data(), &[1.0, 4.0]);
        assert_eq!(b.sum(), 7.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_rejected() {
        Tensor::new(vec![1.0, 2.0, 3.0], 2, 2);
    }
}
