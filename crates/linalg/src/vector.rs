//! Dynamically-sized column vector of `f64`.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dynamically-sized column vector of `f64` values.
///
/// Arithmetic operators are implemented on references (`&a + &b`) to avoid
/// accidental clones; in-place variants (`+=`, `-=`, [`Vector::scale_mut`],
/// [`Vector::axpy`]) are provided for hot paths.
///
/// All binary operations panic on dimension mismatch — mixing vectors of
/// different lengths is a programming error, not a recoverable condition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector of `n` copies of `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Creates a standard basis vector `e_i` of length `n` (1 at `i`, 0 elsewhere).
    ///
    /// # Panics
    /// Panics if `i >= n`.
    pub fn basis(n: usize, i: usize) -> Self {
        assert!(i < n, "basis index {i} out of range for length {n}");
        let mut v = Self::zeros(n);
        v[i] = 1.0;
        v
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero components.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Dot product `self · other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// L∞ norm (maximum absolute value); 0 for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Sum of components.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Returns `self * s` as a new vector.
    pub fn scaled(&self, s: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Overwrites `self` with the components of `other` without
    /// reallocating.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &Vector) {
        assert_eq!(self.len(), other.len(), "copy_from: length mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Multiplies every component by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// In-place `self += alpha * other` (the BLAS `axpy` kernel).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Component-wise (Hadamard) product.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn hadamard(&self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "hadamard: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Largest component value; `None` for an empty vector.
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::max)
    }

    /// Smallest component value; `None` for an empty vector.
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::min)
    }

    /// True iff every component is finite (no NaN / ±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Returns true if `self` and `other` agree to within `tol` in the L∞ norm.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.len() == other.len()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector {
            data: self.data.iter().map(|x| -x).collect(),
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, s: f64) -> Vector {
        self.scaled(s)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::filled(2, 1.5).as_slice(), &[1.5, 1.5]);
    }

    #[test]
    fn basis_vector() {
        let e1 = Vector::basis(3, 1);
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "basis index")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 2);
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let mut a = Vector::filled(3, 9.0);
        a.copy_from(&Vector::from(vec![1.0, 2.0, 3.0]));
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "copy_from: length mismatch")]
    fn copy_from_length_checked() {
        Vector::zeros(2).copy_from(&Vector::zeros(3));
    }

    #[test]
    fn dot_product() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_mismatch_panics() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn norms() {
        let v = Vector::from(vec![3.0, -4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
    }

    #[test]
    fn norm_inf_empty_is_zero() {
        assert_eq!(Vector::zeros(0).norm_inf(), 0.0);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn in_place_ops() {
        let mut a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![10.0, 20.0]);
        a += &b;
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a -= &b;
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.scale_mut(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
    }

    #[test]
    fn hadamard_product() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![2.0, 3.0, 4.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[2.0, 6.0, 12.0]);
    }

    #[test]
    fn min_max_sum() {
        let v = Vector::from(vec![2.0, -1.0, 5.0]);
        assert_eq!(v.max(), Some(5.0));
        assert_eq!(v.min(), Some(-1.0));
        assert_eq!(v.sum(), 6.0);
        assert_eq!(Vector::zeros(0).max(), None);
    }

    #[test]
    fn finiteness() {
        assert!(Vector::from(vec![1.0, 2.0]).is_finite());
        assert!(!Vector::from(vec![1.0, f64::NAN]).is_finite());
        assert!(!Vector::from(vec![f64::INFINITY]).is_finite());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![1.0 + 1e-10, 2.0 - 1e-10]);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-11));
        assert!(!a.approx_eq(&Vector::zeros(3), 1.0));
    }

    #[test]
    fn from_iterator() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn display_formatting() {
        let v = Vector::from(vec![1.0, -0.5]);
        assert_eq!(v.to_string(), "[1.000000, -0.500000]");
    }
}
