use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a dense, row-major tensor.
///
/// A shape is an ordered list of dimension extents. Rank-0 shapes (scalars)
/// are represented by an empty dimension list and have volume 1.
///
/// ```
/// use leime_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.dims(), &[2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from an arbitrary dimension list.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Creates a rank-1 shape.
    pub fn d1(n: usize) -> Self {
        Shape(vec![n])
    }

    /// Creates a rank-2 shape (rows, cols).
    pub fn d2(rows: usize, cols: usize) -> Self {
        Shape(vec![rows, cols])
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Row-major strides for this shape.
    ///
    /// The stride of the last dimension is 1; each preceding stride is the
    /// product of all following extents.
    ///
    /// ```
    /// use leime_tensor::Shape;
    /// assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Computes the flat row-major offset of a multi-index.
    ///
    /// Returns `None` if the index rank differs from the shape rank or any
    /// coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.0.len() {
            return None;
        }
        let mut off = 0usize;
        let strides = self.strides();
        for ((&i, &d), &s) in index.iter().zip(&self.0).zip(&strides) {
            if i >= d {
                return None;
            }
            off += i * s;
        }
        Some(off)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_volume_one() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
    }

    #[test]
    fn volume_is_product() {
        assert_eq!(Shape::new(vec![2, 3, 4, 5]).volume(), 120);
        assert_eq!(Shape::d1(7).volume(), 7);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::d2(3, 4).strides(), vec![4, 1]);
        assert_eq!(Shape::new(vec![2, 3, 4, 5]).strides(), vec![60, 20, 5, 1]);
        assert_eq!(Shape::d1(9).strides(), vec![1]);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(vec![2, 3, 4]);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]).unwrap();
                    assert!(off < s.volume());
                    assert!(seen.insert(off), "offsets must be unique");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::d2(2, 2);
        assert_eq!(s.offset(&[2, 0]), None);
        assert_eq!(s.offset(&[0, 2]), None);
        assert_eq!(s.offset(&[0]), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![1, 28, 28]).to_string(), "(1×28×28)");
    }
}
