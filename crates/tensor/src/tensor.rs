//! A contiguous, row-major, generically-typed tensor.

use crate::shape::Shape;

/// Contiguous row-major tensor over element type `T`.
///
/// The struct is intentionally simple — a shape plus a `Vec<T>` — so that the
/// quantized paths can reinterpret data cheaply and the accelerator simulator
/// can address features with plain index arithmetic.
#[derive(Clone, PartialEq)]
pub struct Tensor<T = f32> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor<T> {
    /// Create a tensor filled with `T::default()` (zero for numeric types).
    pub fn zeros<S: Into<Shape>>(shape: S) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Self { shape, data: vec![T::default(); n] }
    }

    /// Create a tensor filled with a constant.
    pub fn full<S: Into<Shape>>(shape: S, value: T) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Self { shape, data: vec![value; n] }
    }
}

impl<T> Tensor<T> {
    /// Create a tensor from raw data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec<S: Into<Shape>>(shape: S, data: Vec<T>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {:?} requires {} elements, got {}",
            shape,
            shape.numel(),
            data.len()
        );
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.shape.0
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing storage (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the tensor, returning its backing storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Reinterpret the tensor with a new shape of identical element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape<S: Into<Shape>>(self, shape: S) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "cannot reshape {} elements into {:?}",
            self.data.len(),
            shape
        );
        Self { shape, data: self.data }
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics (in debug builds) if the index rank or bounds are wrong.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.ndim(), "index rank mismatch");
        let mut off = 0usize;
        let mut stride = 1usize;
        for (i, (&ix, &d)) in idx.iter().zip(self.shape.0.iter()).enumerate().rev() {
            debug_assert!(ix < d, "index {ix} out of bounds for dim {i} (size {d})");
            off += ix * stride;
            stride *= d;
            let _ = i;
        }
        off
    }
}

impl<T: Copy> Tensor<T> {
    /// Element access by multi-dimensional index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> T {
        self.data[self.offset(idx)]
    }

    /// Mutable element access by multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut T {
        let off = self.offset(idx);
        &mut self.data[off]
    }

    /// Apply a function elementwise, producing a new tensor.
    pub fn map<U: Copy>(&self, f: impl Fn(T) -> U) -> Tensor<U> {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Borrow the `i`-th outermost slice (e.g. one image of an NCHW batch)
    /// as a flat slice of length `numel / dims[0]`.
    pub fn outer(&self, i: usize) -> &[T] {
        let n = self.shape.dim(0);
        assert!(i < n, "outer index {i} out of bounds ({n})");
        let chunk = self.data.len() / n;
        &self.data[i * chunk..(i + 1) * chunk]
    }

    /// Mutable variant of [`Tensor::outer`].
    pub fn outer_mut(&mut self, i: usize) -> &mut [T] {
        let n = self.shape.dim(0);
        assert!(i < n, "outer index {i} out of bounds ({n})");
        let chunk = self.data.len() / n;
        &mut self.data[i * chunk..(i + 1) * chunk]
    }
}

impl Tensor<f32> {
    /// Elementwise addition. Shapes must match.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Self { shape: self.shape.clone(), data }
    }

    /// Elementwise addition in place.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` (AXPY), used by SGD updates.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute value (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Mean absolute difference against another tensor of the same shape.
    pub fn mean_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in mean_abs_diff");
        if self.data.is_empty() {
            return 0.0;
        }
        let s: f32 = self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).sum();
        s / self.data.len() as f32
    }

    /// Maximum absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data.iter().zip(&other.data).fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor({:?}, ", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, "{:?})", self.data)
        } else {
            write!(f, "[{} elements])", self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let t = Tensor::<f32>::zeros([2, 3]);
        assert_eq!(t.numel(), 6);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
        let u = Tensor::full([2, 2], 7i32);
        assert!(u.as_slice().iter().all(|&x| x == 7));
    }

    #[test]
    fn from_vec_and_indexing() {
        let t = Tensor::from_vec([2, 3], vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(t.at(&[0, 0]), 0.);
        assert_eq!(t.at(&[0, 2]), 2.);
        assert_eq!(t.at(&[1, 0]), 3.);
        assert_eq!(t.at(&[1, 2]), 5.);
    }

    #[test]
    #[should_panic(expected = "requires")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec([2, 3], vec![1.0f32; 5]);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec([2, 3], vec![0., 1., 2., 3., 4., 5.]);
        let u = t.clone().reshape([3, 2]);
        assert_eq!(u.at(&[2, 1]), 5.);
        assert_eq!(u.clone().reshape([6]).as_slice(), t.as_slice());
    }

    #[test]
    fn map_and_arith() {
        let t = Tensor::from_vec([4], vec![1.0f32, -2.0, 3.0, -4.0]);
        let abs = t.map(|x| x.abs());
        assert_eq!(abs.as_slice(), &[1., 2., 3., 4.]);
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.sum(), -2.0);

        let mut a = Tensor::from_vec([2], vec![1.0f32, 2.0]);
        let b = Tensor::from_vec([2], vec![10.0f32, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
    }

    #[test]
    fn diff_metrics() {
        let a = Tensor::from_vec([3], vec![1.0f32, 2.0, 3.0]);
        let b = Tensor::from_vec([3], vec![1.5f32, 2.0, 1.0]);
        assert!((a.mean_abs_diff(&b) - (0.5 + 0.0 + 2.0) / 3.0).abs() < 1e-6);
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    fn outer_slices() {
        let mut t = Tensor::from_vec([2, 2, 2], (0..8).map(|x| x as f32).collect::<Vec<_>>());
        assert_eq!(t.outer(1), &[4., 5., 6., 7.]);
        t.outer_mut(0)[0] = 99.0;
        assert_eq!(t.at(&[0, 0, 0]), 99.0);
    }
}
