//! The [`Tensor`] type: construction and elementwise operations.

use crate::shape::{broadcast_shapes, broadcast_strides, strides_of};
use rand::Rng;

/// A dense, contiguous, row-major `f32` tensor.
///
/// See the [crate docs](crate) for semantics; construction examples:
///
/// ```
/// use qt_tensor::Tensor;
/// let z = Tensor::zeros(&[2, 3]);
/// assert_eq!(z.shape(), &[2, 3]);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
/// assert_eq!(x.add(&z).shape(), &[2, 3]); // broadcast over rows
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    // ---------- construction ----------

    /// Tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Build from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.iter().product()`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length {} does not match shape {shape:?}",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Identity matrix of size `n x n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// `[0, 1, …, n-1]` as a 1-D tensor.
    pub fn arange(n: usize) -> Self {
        Self::from_vec((0..n).map(|i| i as f32).collect(), &[n])
    }

    /// Standard-normal random tensor (Box–Muller over the given RNG, for
    /// bit-reproducible initialisation independent of `rand` internals).
    pub fn randn(shape: &[usize], rng: &mut impl Rng) -> Self {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * libm::log(u1)).sqrt();
            let th = 2.0 * core::f64::consts::PI * u2;
            data.push((r * libm::cos(th)) as f32);
            if data.len() < n {
                data.push((r * libm::sin(th)) as f32);
            }
        }
        Self::from_vec(data, shape)
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Self::from_vec(data, shape)
    }

    // ---------- accessors ----------

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != ndim` or any coordinate is out of range.
    pub fn at(&self, index: &[usize]) -> f32 {
        assert_eq!(index.len(), self.ndim(), "index rank mismatch");
        let strides = strides_of(&self.shape);
        let mut off = 0;
        for (i, (&ix, &d)) in index.iter().zip(&self.shape).enumerate() {
            assert!(ix < d, "index {ix} out of range for axis {i} (len {d})");
            off += ix * strides[i];
        }
        self.data[off]
    }

    /// Set the element at a multi-index. Panics like [`Tensor::at`].
    pub fn set(&mut self, index: &[usize], value: f32) {
        assert_eq!(index.len(), self.ndim(), "index rank mismatch");
        let strides = strides_of(&self.shape);
        let mut off = 0;
        for (i, (&ix, &d)) in index.iter().zip(&self.shape).enumerate() {
            assert!(ix < d, "index {ix} out of range for axis {i} (len {d})");
            off += ix * strides[i];
        }
        self.data[off] = value;
    }

    /// Reinterpret with a new shape of the same element count.
    ///
    /// One axis may be `usize::MAX` ("infer"). `reshape` is a metadata
    /// operation; data is shared by clone-on-write semantics (here: moved).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, new_shape: &[usize]) -> Self {
        let mut shape = new_shape.to_vec();
        if let Some(pos) = shape.iter().position(|&d| d == usize::MAX) {
            let known: usize = shape.iter().filter(|&&d| d != usize::MAX).product();
            assert!(
                known > 0 && self.len().is_multiple_of(known),
                "cannot infer axis"
            );
            shape[pos] = self.len() / known;
        }
        assert_eq!(
            shape.iter().product::<usize>(),
            self.len(),
            "reshape {:?} -> {new_shape:?} changes element count",
            self.shape
        );
        self.shape = shape;
        self
    }

    // ---------- elementwise ----------

    /// Apply `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let mut data = vec![0.0f32; self.data.len()];
        if data.len() < ELEM_CHUNK {
            for (o, &x) in data.iter_mut().zip(&self.data) {
                *o = f(x);
            }
        } else {
            let src = &self.data;
            qt_par::parallel_for_slices_mut(&mut data, ELEM_CHUNK, |_, off, out| {
                let end = off + out.len();
                for (o, &x) in out.iter_mut().zip(&src[off..end]) {
                    *o = f(x);
                }
            });
        }
        Self {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Apply `f` in place to every element.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        if self.data.len() < ELEM_CHUNK {
            for x in &mut self.data {
                *x = f(*x);
            }
        } else {
            qt_par::parallel_for_slices_mut(&mut self.data, ELEM_CHUNK, |_, _, chunk| {
                for x in chunk {
                    *x = f(*x);
                }
            });
        }
    }

    /// Consuming [`Tensor::map`]: reuses the allocation when the caller
    /// hands over ownership.
    pub fn mapv(mut self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        self.map_inplace(f);
        self
    }

    /// Combine with another tensor elementwise under broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32 + Sync) -> Self {
        if self.shape == other.shape {
            // fast path
            let mut data = vec![0.0f32; self.data.len()];
            if data.len() < ELEM_CHUNK {
                for ((o, &a), &b) in data.iter_mut().zip(&self.data).zip(&other.data) {
                    *o = f(a, b);
                }
            } else {
                let (sa, sb) = (&self.data, &other.data);
                qt_par::parallel_for_slices_mut(&mut data, ELEM_CHUNK, |_, off, out| {
                    let end = off + out.len();
                    for ((o, &a), &b) in out.iter_mut().zip(&sa[off..end]).zip(&sb[off..end]) {
                        *o = f(a, b);
                    }
                });
            }
            return Self {
                shape: self.shape.clone(),
                data,
            };
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape);
        let sa = broadcast_strides(&self.shape, &out_shape);
        let sb = broadcast_strides(&other.shape, &out_shape);
        let mut out = Self::zeros(&out_shape);
        // Two passes of the broadcast walker, fused manually.
        let total = out.len();
        let nd = out_shape.len();
        let mut idx = vec![0usize; nd];
        let (mut oa, mut ob) = (0usize, 0usize);
        for o in 0..total {
            out.data[o] = f(self.data[oa], other.data[ob]);
            for ax in (0..nd).rev() {
                idx[ax] += 1;
                oa += sa[ax];
                ob += sb[ax];
                if idx[ax] < out_shape[ax] {
                    break;
                }
                oa -= sa[ax] * out_shape[ax];
                ob -= sb[ax] * out_shape[ax];
                idx[ax] = 0;
            }
        }
        out
    }

    /// Elementwise sum (broadcasting).
    pub fn add(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference (broadcasting).
    pub fn sub(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise product (broadcasting).
    pub fn mul(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise quotient (broadcasting).
    pub fn div(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a / b)
    }

    /// Negate every element.
    pub fn neg(&self) -> Self {
        self.map(|x| -x)
    }

    /// Add a scalar.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// Multiply by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Elementwise maximum (broadcasting).
    pub fn maximum(&self, other: &Self) -> Self {
        self.zip(other, f32::max)
    }

    /// Elementwise `exp`.
    pub fn exp(&self) -> Self {
        self.map(libm::expf)
    }

    /// Elementwise natural log.
    pub fn ln(&self) -> Self {
        self.map(libm::logf)
    }

    /// Elementwise `tanh`.
    pub fn tanh(&self) -> Self {
        self.map(libm::tanhf)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Self {
        self.map(libm::sqrtf)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Self {
        self.map(f32::abs)
    }

    /// GELU activation (tanh approximation, as used by BERT-family models).
    pub fn gelu(&self) -> Self {
        self.map(gelu_scalar)
    }

    /// Derivative of [`Tensor::gelu`] with respect to its input.
    pub fn gelu_grad(&self) -> Self {
        self.map(gelu_grad_scalar)
    }

    /// ReLU activation.
    pub fn relu(&self) -> Self {
        self.map(|x| x.max(0.0))
    }

    /// Embedding lookup: `self` is a `[V, H]` table, `ids` are row indices
    /// (any shape); returns shape `ids.shape() ++ [H]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or any id is out of range / non-integral.
    pub fn gather_rows(&self, ids: &[usize], ids_shape: &[usize]) -> Self {
        assert_eq!(self.ndim(), 2, "gather_rows table must be 2-D");
        let (v, h) = (self.shape[0], self.shape[1]);
        let mut out_shape = ids_shape.to_vec();
        out_shape.push(h);
        let mut data = Vec::with_capacity(ids.len() * h);
        for &id in ids {
            assert!(id < v, "embedding id {id} out of range (vocab {v})");
            data.extend_from_slice(&self.data[id * h..(id + 1) * h]);
        }
        Self::from_vec(data, &out_shape)
    }

    /// Scatter-add rows: the transpose of [`Tensor::gather_rows`], used for
    /// embedding gradients. `grads` has shape `[..., H]` flattened to match
    /// `ids`; accumulates into `self` (a `[V, H]` table).
    pub fn scatter_add_rows(&mut self, ids: &[usize], grads: &Self) {
        assert_eq!(self.ndim(), 2, "scatter target must be 2-D");
        let h = self.shape[1];
        assert_eq!(grads.len(), ids.len() * h, "scatter grad size mismatch");
        for (i, &id) in ids.iter().enumerate() {
            for j in 0..h {
                self.data[id * h + j] += grads.data[i * h + j];
            }
        }
    }

    /// Concatenate along the last axis.
    ///
    /// # Panics
    ///
    /// Panics if tensors disagree on any other axis or `parts` is empty.
    pub fn concat_lastdim(parts: &[&Self]) -> Self {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let lead = &parts[0].shape[..parts[0].ndim() - 1];
        let rows: usize = lead.iter().product();
        let total_last: usize = parts
            .iter()
            .map(|p| {
                assert_eq!(
                    &p.shape[..p.ndim() - 1],
                    lead,
                    "concat leading-shape mismatch"
                );
                p.shape[p.ndim() - 1]
            })
            .sum();
        let mut shape = lead.to_vec();
        shape.push(total_last);
        let mut data = Vec::with_capacity(rows * total_last);
        for r in 0..rows {
            for p in parts {
                let last = p.shape[p.ndim() - 1];
                data.extend_from_slice(&p.data[r * last..(r + 1) * last]);
            }
        }
        Self::from_vec(data, &shape)
    }

    /// Evaluate elementwise against a broadcast companion, writing into self
    /// (used by optimizers). Shapes must match exactly.
    pub fn zip_inplace(&mut self, other: &Self, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(self.shape, other.shape, "zip_inplace shape mismatch");
        if self.data.len() < ELEM_CHUNK {
            for (a, &b) in self.data.iter_mut().zip(&other.data) {
                *a = f(*a, b);
            }
        } else {
            let src = &other.data;
            qt_par::parallel_for_slices_mut(&mut self.data, ELEM_CHUNK, |_, off, chunk| {
                let end = off + chunk.len();
                for (a, &b) in chunk.iter_mut().zip(&src[off..end]) {
                    *a = f(*a, b);
                }
            });
        }
    }
}

/// Elementwise-op chunk length. Fixed (never thread-count-dependent) so
/// chunk boundaries — and therefore the work decomposition — are identical
/// at every `QT_THREADS`.
const ELEM_CHUNK: usize = 16 * 1024;

/// GELU (tanh approximation).
fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + libm::tanhf(C * (x + 0.044715 * x * x * x)))
}

/// d/dx GELU (tanh approximation).
fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = libm::tanhf(u);
    let du = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

impl core::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{} elements, first={:?}…]",
                self.len(),
                &self.data[..4.min(self.len())]
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0, 1.0, 1.0]);
        assert_eq!(Tensor::scalar(5.0).ndim(), 0);
        assert_eq!(Tensor::arange(3).data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_shape() {
        Tensor::from_vec(vec![1.0], &[2]);
    }

    #[test]
    fn indexing() {
        let mut t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
        t.set(&[1, 0, 0], -1.0);
        assert_eq!(t.at(&[1, 0, 0]), -1.0);
    }

    #[test]
    fn broadcasting_add() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let col = Tensor::from_vec(vec![100.0, 200.0], &[2, 1]);
        assert_eq!(a.add(&row).data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        assert_eq!(
            a.add(&col).data(),
            &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]
        );
        // scalar broadcast
        assert_eq!(a.add(&Tensor::scalar(1.0)).data()[5], 7.0);
    }

    #[test]
    fn reshape_with_inference() {
        let t = Tensor::arange(12).reshape(&[3, usize::MAX]);
        assert_eq!(t.shape(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_bad() {
        Tensor::arange(5).reshape(&[2, 3]);
    }

    #[test]
    fn gelu_reference_values() {
        // Reference values from the tanh-approximation formula.
        let x = Tensor::from_vec(vec![-2.0, 0.0, 1.0, 3.0], &[4]);
        let g = x.gelu();
        assert!((g.data()[0] + 0.0454).abs() < 1e-3);
        assert_eq!(g.data()[1], 0.0);
        assert!((g.data()[2] - 0.8412).abs() < 1e-3);
        assert!((g.data()[3] - 2.9964).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -0.5, 0.0, 0.7, 2.5] {
            let t = Tensor::scalar(x);
            let g = t.gelu_grad().data()[0];
            let eps = 1e-3;
            let fd = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            assert!((g - fd).abs() < 1e-3, "x={x} grad={g} fd={fd}");
        }
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        let table = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3]);
        let ids = [3usize, 0, 3];
        let g = table.gather_rows(&ids, &[3]);
        assert_eq!(g.shape(), &[3, 3]);
        assert_eq!(&g.data()[0..3], &[9.0, 10.0, 11.0]);
        let mut grad = Tensor::zeros(&[4, 3]);
        grad.scatter_add_rows(&ids, &Tensor::ones(&[3, 3]));
        assert_eq!(grad.at(&[3, 0]), 2.0); // id 3 hit twice
        assert_eq!(grad.at(&[0, 0]), 1.0);
        assert_eq!(grad.at(&[1, 0]), 0.0);
    }

    #[test]
    fn concat() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]);
        let c = Tensor::concat_lastdim(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[10_000], &mut rng);
        let mean: f32 = t.data().iter().sum::<f32>() / 10_000.0;
        let var: f32 = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
