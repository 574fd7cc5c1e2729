//! Minimal complex arithmetic for phased-array antenna weights.
//!
//! We deliberately implement this in-house (instead of pulling in
//! `num-complex`) to keep the dependency set to the sanctioned offline
//! crates; the mmWave beamforming code needs only a handful of operations.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A complex number `re + i*im` in double precision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `r * e^{i*theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex::new(r * c, r * s)
    }

    /// `e^{i*theta}` — a pure phase term, the bread and butter of
    /// steering-vector construction.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude (power).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplication by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }

    /// `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, r: Complex) -> Complex {
        Complex::new(self.re + r.re, self.im + r.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, r: Complex) {
        *self = *self + r;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, r: Complex) -> Complex {
        Complex::new(self.re - r.re, self.im - r.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, r: Complex) -> Complex {
        Complex::new(
            self.re * r.re - self.im * r.im,
            self.re * r.im + self.im * r.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, r: Complex) {
        *self = *self * r;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, s: f64) -> Complex {
        self.scale(s)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, s: f64) -> Complex {
        Complex::new(self.re / s, self.im / s)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, r: Complex) -> Complex {
        let d = r.norm_sq();
        Complex::new(
            (self.re * r.re + self.im * r.im) / d,
            (self.im * r.re - self.re * r.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.4}+{:.4}i", self.re, self.im)
        } else {
            write!(f, "{:.4}-{:.4}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let q = (a * b) / b;
        assert!(approx_eq(q.re, a.re, 1e-12));
        assert!(approx_eq(q.im, a.im, 1e-12));
    }

    #[test]
    fn i_squared_is_minus_one() {
        let ii = Complex::I * Complex::I;
        assert!(approx_eq(ii.re, -1.0, 1e-15));
        assert!(approx_eq(ii.im, 0.0, 1e-15));
    }

    #[test]
    fn polar_round_trip() {
        let c = Complex::from_polar(2.5, 0.7);
        assert!(approx_eq(c.abs(), 2.5, 1e-12));
        assert!(approx_eq(c.arg(), 0.7, 1e-12));
    }

    #[test]
    fn cis_basics() {
        let c = Complex::cis(FRAC_PI_2);
        assert!(approx_eq(c.re, 0.0, 1e-15));
        assert!(approx_eq(c.im, 1.0, 1e-15));
        let c = Complex::cis(PI);
        assert!(approx_eq(c.re, -1.0, 1e-15));
    }

    #[test]
    fn conjugate_and_power() {
        let c = Complex::new(3.0, 4.0);
        assert_eq!(c.conj(), Complex::new(3.0, -4.0));
        assert!(approx_eq(c.abs(), 5.0, 1e-12));
        assert!(approx_eq(c.norm_sq(), 25.0, 1e-12));
        // c * conj(c) = |c|^2
        let p = c * c.conj();
        assert!(approx_eq(p.re, 25.0, 1e-12));
        assert!(approx_eq(p.im, 0.0, 1e-12));
    }

    #[test]
    fn phase_accumulates_under_multiplication() {
        let a = Complex::cis(0.3);
        let b = Complex::cis(0.4);
        assert!(approx_eq((a * b).arg(), 0.7, 1e-12));
    }
}
