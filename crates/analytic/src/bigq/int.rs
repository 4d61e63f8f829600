//! Signed arbitrary-precision integers.

use super::BigUint;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer (sign + magnitude).
///
/// # Example
///
/// ```
/// use analytic::BigInt;
///
/// let a = BigInt::from(-3i64);
/// let b = BigInt::from(5i64);
/// assert_eq!((&a + &b).to_string(), "2");
/// assert_eq!((&a * &b).to_string(), "-15");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl BigInt {
    /// The value 0.
    #[must_use]
    pub fn zero() -> BigInt {
        BigInt {
            sign: Sign::Zero,
            mag: BigUint::zero(),
        }
    }

    /// The value 1.
    #[must_use]
    pub fn one() -> BigInt {
        BigInt {
            sign: Sign::Positive,
            mag: BigUint::one(),
        }
    }

    /// Builds from a sign and magnitude (normalises zero magnitude to
    /// [`Sign::Zero`]).
    #[must_use]
    pub fn from_sign_mag(sign: Sign, mag: BigUint) -> BigInt {
        if mag.is_zero() || sign == Sign::Zero {
            BigInt::zero()
        } else {
            BigInt { sign, mag }
        }
    }

    /// The sign.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude `|self|`.
    #[must_use]
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// Whether the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Whether the value is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// The absolute value.
    #[must_use]
    pub fn abs(&self) -> BigInt {
        BigInt::from_sign_mag(
            if self.is_zero() {
                Sign::Zero
            } else {
                Sign::Positive
            },
            self.mag.clone(),
        )
    }

    /// Nearest `f64` (signed).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        let m = self.mag.to_f64();
        match self.sign {
            Sign::Negative => -m,
            Sign::Zero => 0.0,
            Sign::Positive => m,
        }
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> BigInt {
        match v.cmp(&0) {
            Ordering::Less => {
                BigInt::from_sign_mag(Sign::Negative, BigUint::from(v.unsigned_abs()))
            }
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_sign_mag(Sign::Positive, BigUint::from(v as u64)),
        }
    }
}

impl From<BigUint> for BigInt {
    fn from(mag: BigUint) -> BigInt {
        BigInt::from_sign_mag(Sign::Positive, mag)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &BigInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &BigInt) -> Ordering {
        let rank = |s: Sign| match s {
            Sign::Negative => 0,
            Sign::Zero => 1,
            Sign::Positive => 2,
        };
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => match self.sign {
                Sign::Negative => other.mag.cmp(&self.mag),
                Sign::Zero => Ordering::Equal,
                Sign::Positive => self.mag.cmp(&other.mag),
            },
            ne => ne,
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;

    fn neg(self) -> BigInt {
        BigInt::from_sign_mag(self.sign.flip(), self.mag.clone())
    }
}

impl Add for &BigInt {
    type Output = BigInt;

    fn add(self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_sign_mag(a, &self.mag + &rhs.mag),
            _ => match self.mag.cmp(&rhs.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_sign_mag(self.sign, &self.mag - &rhs.mag),
                Ordering::Less => BigInt::from_sign_mag(rhs.sign, &rhs.mag - &self.mag),
            },
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;

    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;

    fn mul(self, rhs: &BigInt) -> BigInt {
        BigInt::from_sign_mag(self.sign.mul(rhs.sign), &self.mag * &rhs.mag)
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            f.write_str("-")?;
        }
        write!(f, "{}", self.mag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_normalisation() {
        assert!(b(0).is_zero());
        assert_eq!(BigInt::from_sign_mag(Sign::Negative, BigUint::zero()), b(0));
        assert_eq!(-&b(0), b(0));
    }

    #[test]
    fn display_shows_sign() {
        assert_eq!(b(-42).to_string(), "-42");
        assert_eq!(b(42).to_string(), "42");
        assert_eq!(b(0).to_string(), "0");
    }

    #[test]
    fn abs_and_neg() {
        assert_eq!(b(-7).abs(), b(7));
        assert_eq!(b(7).abs(), b(7));
        assert_eq!(-&b(7), b(-7));
    }

    #[test]
    fn i64_min_round_trip() {
        let v = BigInt::from(i64::MIN);
        assert_eq!(v.to_string(), i64::MIN.to_string());
    }

    #[test]
    fn to_f64_signed() {
        assert_eq!(b(-5).to_f64(), -5.0);
        assert_eq!(b(0).to_f64(), 0.0);
    }

    proptest! {
        #[test]
        fn add_matches_i64(a in -(1i64 << 62)..(1i64 << 62), c in -(1i64 << 62)..(1i64 << 62)) {
            prop_assert_eq!(&b(a) + &b(c), b(a + c));
        }

        #[test]
        fn sub_matches_i64(a in -(1i64 << 62)..(1i64 << 62), c in -(1i64 << 62)..(1i64 << 62)) {
            prop_assert_eq!(&b(a) - &b(c), b(a - c));
        }

        #[test]
        fn mul_matches_i64(a in -(1i64 << 31)..(1i64 << 31), c in -(1i64 << 31)..(1i64 << 31)) {
            prop_assert_eq!(&b(a) * &b(c), b(a * c));
        }

        #[test]
        fn ordering_matches_i64(a in i64::MIN + 1..i64::MAX, c in i64::MIN + 1..i64::MAX) {
            prop_assert_eq!(b(a).cmp(&b(c)), a.cmp(&c));
        }

        #[test]
        fn add_neg_is_sub(a in -(1i64 << 62)..(1i64 << 62), c in -(1i64 << 62)..(1i64 << 62)) {
            prop_assert_eq!(&b(a) + &(-&b(c)), &b(a) - &b(c));
        }
    }
}
