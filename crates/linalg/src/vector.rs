//! Dense complex vectors — optical field amplitudes across waveguide ports.

use crate::C64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense complex vector.
///
/// In the photonic stack a `CVector` models the field amplitudes on the `N`
/// input or output waveguides of a multiport interferometer; `|v[i]|^2` is
/// the optical power on port `i`.
///
/// # Examples
///
/// ```
/// use neuropulsim_linalg::{C64, CVector};
///
/// let v = CVector::from_reals(&[3.0, 4.0]);
/// assert!((v.norm() - 5.0).abs() < 1e-12);
/// assert!((v.total_power() - 25.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CVector {
    data: Vec<C64>,
}

impl CVector {
    /// Creates a zero vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        CVector {
            data: vec![C64::ZERO; n],
        }
    }

    /// Creates a vector from a slice of complex entries.
    pub fn from_slice(values: &[C64]) -> Self {
        CVector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector whose entries are the given real values.
    pub fn from_reals(values: &[f64]) -> Self {
        CVector {
            data: values.iter().map(|&x| C64::real(x)).collect(),
        }
    }

    /// Creates the standard basis vector `e_k` of dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n`.
    pub fn basis(n: usize, k: usize) -> Self {
        assert!(k < n, "basis index {k} out of range for dimension {n}");
        let mut v = CVector::zeros(n);
        v.data[k] = C64::ONE;
        v
    }

    /// Dimension of the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has dimension zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying entries.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutably borrows the underlying entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Hermitian inner product `<self, other> = sum conj(self_i) * other_i`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &CVector) -> C64 {
        assert_eq!(self.len(), other.len(), "dot: dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|z| z.abs2()).sum::<f64>().sqrt()
    }

    /// Total optical power `sum |v_i|^2`.
    pub fn total_power(&self) -> f64 {
        self.data.iter().map(|z| z.abs2()).sum()
    }

    /// Per-entry optical powers `|v_i|^2` (what an array of photodetectors reads).
    pub fn powers(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.abs2()).collect()
    }

    /// Real parts of the entries.
    pub fn reals(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.re).collect()
    }

    /// Returns the vector scaled by a complex factor.
    pub fn scaled(&self, s: C64) -> CVector {
        CVector {
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Returns a unit-norm copy, or `None` for the zero vector.
    pub fn normalized(&self) -> Option<CVector> {
        let n = self.norm();
        if n == 0.0 {
            None
        } else {
            Some(self.scaled(C64::real(1.0 / n)))
        }
    }

    /// Distance `||self - other||`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn distance(&self, other: &CVector) -> f64 {
        assert_eq!(self.len(), other.len(), "distance: dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs2())
            .sum::<f64>()
            .sqrt()
    }

    /// Iterator over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, C64> {
        self.data.iter()
    }
}

impl Index<usize> for CVector {
    type Output = C64;
    #[inline]
    fn index(&self, i: usize) -> &C64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut C64 {
        &mut self.data[i]
    }
}

impl Add for &CVector {
    type Output = CVector;
    fn add(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len(), "add: dimension mismatch");
        CVector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CVector {
    type Output = CVector;
    fn sub(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len(), "sub: dimension mismatch");
        CVector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul<C64> for &CVector {
    type Output = CVector;
    fn mul(self, rhs: C64) -> CVector {
        self.scaled(rhs)
    }
}

impl FromIterator<C64> for CVector {
    fn from_iter<I: IntoIterator<Item = C64>>(iter: I) -> Self {
        CVector {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a CVector {
    type Item = &'a C64;
    type IntoIter = std::slice::Iter<'a, C64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl fmt::Display for CVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, z) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{z}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_vectors_are_orthonormal() {
        for i in 0..4 {
            for j in 0..4 {
                let d = CVector::basis(4, i).dot(&CVector::basis(4, j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d.re - expect).abs() < 1e-15 && d.im.abs() < 1e-15);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = CVector::basis(3, 3);
    }

    #[test]
    fn dot_is_conjugate_linear_in_first_argument() {
        let a = CVector::from_slice(&[C64::new(1.0, 1.0), C64::new(0.0, -2.0)]);
        let b = CVector::from_slice(&[C64::new(2.0, 0.0), C64::new(1.0, 1.0)]);
        let lhs = a.dot(&b);
        let rhs = b.dot(&a).conj();
        assert!(lhs.approx_eq(rhs, 1e-12));
    }

    #[test]
    fn norm_and_power_agree() {
        let v = CVector::from_slice(&[C64::new(1.0, 2.0), C64::new(-3.0, 0.5)]);
        assert!((v.norm().powi(2) - v.total_power()).abs() < 1e-12);
        let p = v.powers();
        assert!((p[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let v = CVector::from_reals(&[3.0, 4.0]);
        let u = v.normalized().expect("nonzero");
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!(CVector::zeros(2).normalized().is_none());
    }

    #[test]
    fn elementwise_ops() {
        let a = CVector::from_reals(&[1.0, 2.0]);
        let b = CVector::from_reals(&[3.0, 5.0]);
        let s = &a + &b;
        assert_eq!(s.reals(), vec![4.0, 7.0]);
        let d = &b - &a;
        assert_eq!(d.reals(), vec![2.0, 3.0]);
        let m = &a * C64::new(0.0, 1.0);
        assert!(m[0].approx_eq(C64::new(0.0, 1.0), 1e-12));
    }

    #[test]
    fn distance_is_metric_like() {
        let a = CVector::from_reals(&[1.0, 0.0]);
        let b = CVector::from_reals(&[0.0, 1.0]);
        assert!((a.distance(&b) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn collect_from_iterator() {
        let v: CVector = (0..3).map(|i| C64::real(i as f64)).collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2], C64::real(2.0));
    }
}
