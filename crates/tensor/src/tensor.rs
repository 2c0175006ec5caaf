use crate::{Result, Shape, TensorError};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the workhorse value type of the LEIME calibration pipeline.
/// It owns its storage (`Vec<f32>`) and carries a [`Shape`]; all operations
/// validate shapes and return [`TensorError`] on mismatch rather than
/// panicking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] if `data.len()` differs from
    /// `shape.volume()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.volume() {
            return Err(TensorError::SizeMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor of i.i.d. samples from `U[lo, hi)` using the seeded RNG.
    pub fn uniform(shape: Shape, lo: f32, hi: f32, rng: &mut StdRng) -> Self {
        let n = shape.volume();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor of i.i.d. standard normal samples (Box–Muller) using
    /// the seeded RNG.
    pub fn randn(shape: Shape, rng: &mut StdRng) -> Self {
        let n = shape.volume();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            // Box–Muller transform: two uniforms -> two normals.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing storage in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing storage in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index, or `None` if out of bounds.
    pub fn get(&self, index: &[usize]) -> Option<f32> {
        self.shape.offset(index).map(|o| self.data[o])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParam`] if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        match self.shape.offset(index) {
            Some(o) => {
                self.data[o] = value;
                Ok(())
            }
            None => Err(TensorError::InvalidParam {
                op: "set",
                what: format!("index {index:?} out of bounds for shape {}", self.shape),
            }),
        }
    }

    /// Returns a tensor with the same data viewed under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] if the volumes differ.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor> {
        if shape.volume() != self.data.len() {
            return Err(TensorError::SizeMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary operation against a same-shaped tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place scaled accumulate: `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element and its flat index, or `None` if empty.
    pub fn argmax(&self) -> Option<(usize, f32)> {
        self.data
            .iter()
            .copied()
            .enumerate()
            .fold(None, |best, (i, x)| match best {
                None => Some((i, x)),
                Some((_, bx)) if x > bx => Some((i, x)),
                some => some,
            })
    }

    /// Matrix multiplication of two rank-2 tensors: `(n×k) · (k×m) -> (n×m)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        if other.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: other.shape.rank(),
            });
        }
        let (n, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, m) = (other.shape.dim(0), other.shape.dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; n * m];
        // i-k-j loop order: streams through `other` rows for cache locality.
        for i in 0..n {
            for p in 0..k {
                let a = self.data[i * k + p];
                // Exact-zero skip, bitwise so ±0.0 both match without a
                // float equality (NaN rows still multiply through).
                if a.abs().to_bits() == 0 {
                    continue;
                }
                let row = &other.data[p * m..(p + 1) * m];
                let dst = &mut out[i * m..(i + 1) * m];
                for (d, &b) in dst.iter_mut().zip(row) {
                    *d += a * b;
                }
            }
        }
        Tensor::from_vec(Shape::d2(n, m), out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (n, m) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                out[j * n + i] = self.data[i * m + j];
            }
        }
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn from_vec_validates_volume() {
        assert!(Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 4]).is_ok());
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape::d1(4));
        assert_eq!(z.data(), &[0.0; 4]);
        let f = Tensor::full(Shape::d1(3), 2.5);
        assert_eq!(f.data(), &[2.5; 3]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::randn(Shape::d1(64), &mut r1);
        let b = Tensor::randn(Shape::d1(64), &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::randn(Shape::d1(20_000), &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        let eye = Tensor::from_vec(Shape::d2(2, 2), vec![1., 0., 0., 1.]).unwrap();
        assert_eq!(a.matmul(&eye).unwrap(), a);
        assert_eq!(eye.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(2, 3));
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
        let v = Tensor::zeros(Shape::d1(3));
        assert!(matches!(
            v.matmul(&b),
            Err(TensorError::RankMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::randn(Shape::d2(3, 5), &mut rng);
        let att = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(a, att);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(Shape::d1(3), vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(Shape::d1(3), vec![4., 5., 6.]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(Shape::d1(2), vec![1., 1.]).unwrap();
        let g = Tensor::from_vec(Shape::d1(2), vec![2., 4.]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.data(), &[0., -1.]);
    }

    #[test]
    fn argmax_finds_first_max() {
        let t = Tensor::from_vec(Shape::d1(4), vec![1., 3., 3., 2.]).unwrap();
        assert_eq!(t.argmax(), Some((1, 3.)));
        assert_eq!(Tensor::zeros(Shape::new(vec![0])).argmax(), None);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(Shape::d2(2, 2));
        t.set(&[1, 0], 9.0).unwrap();
        assert_eq!(t.get(&[1, 0]), Some(9.0));
        assert_eq!(t.get(&[2, 0]), None);
        assert!(t.set(&[0, 5], 1.0).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(Shape::new(vec![1, 3, 2])).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(Shape::d1(5)).is_err());
    }
}
