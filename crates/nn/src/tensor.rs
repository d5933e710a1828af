//! A minimal row-major 2-D `f32` tensor: what hf-nn takes in and hands
//! out. Inside, activations live in lane panels (`crate::panels`).

/// A row-major matrix borrowed as a slice: what the kernels and the
/// tape read, whether a [`Tensor`] or a window of a model's flat
/// parameter buffer owns the values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mat<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

impl<'a> Mat<'a> {
    /// One row as a slice.
    pub(crate) fn row(&self, r: usize) -> &'a [f32] {
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
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { data: vec![0.0; rows * cols], rows, cols }
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
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The matrix as a borrowed slice, for the kernels.
    pub(crate) fn mat(&self) -> Mat<'_> {
        Mat { data: &self.data, rows: self.rows, cols: self.cols }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_rejected() {
        Tensor::new(vec![1.0, 2.0, 3.0], 2, 2);
    }
}
