//! Arbitrary-precision signed integers for polynomial coefficients.
//!
//! Backward rewriting of a `w`-bit multiplier manipulates coefficients up
//! to `2^(2w)`, far beyond machine words for the paper's 64-2048-bit
//! workloads. This is a compact sign-magnitude implementation with exactly
//! the operations symbolic computer algebra needs: add, subtract, multiply,
//! shift, compare.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A signed arbitrary-precision integer (sign + little-endian magnitude).
///
/// The representation is normalised: no leading zero limbs, and zero is
/// always non-negative.
///
/// ```
/// use gamora_sca::Int;
/// let a = Int::pow2(100);
/// let b = &a - &Int::from(1);
/// assert_eq!((&a - &b), Int::from(1));
/// assert!(b < a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Int {
    neg: bool,
    mag: Vec<u64>,
}

impl Int {
    /// Zero.
    pub fn zero() -> Self {
        Int::default()
    }

    /// One.
    pub fn one() -> Self {
        Int::from(1i64)
    }

    /// `2^k`.
    pub fn pow2(k: usize) -> Self {
        let mut mag = vec![0; k / 64 + 1];
        mag[k / 64] = 1u64 << (k % 64);
        Int { neg: false, mag }.normalised()
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// Number of significant bits of the magnitude (0 for zero).
    pub fn bits(&self) -> usize {
        match self.mag.last() {
            None => 0,
            Some(&top) => 64 * (self.mag.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Converts to `i128`, if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        if self.bits() > 127 {
            return None;
        }
        let mut v: i128 = 0;
        for &w in self.mag.iter().rev() {
            v = (v << 64) | w as i128;
        }
        Some(if self.neg { -v } else { v })
    }

    fn normalised(mut self) -> Self {
        while self.mag.last() == Some(&0) {
            self.mag.pop();
        }
        if self.mag.is_empty() {
            self.neg = false;
        }
        self
    }

    fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
        a.len().cmp(&b.len()).then_with(|| {
            for (x, y) in a.iter().rev().zip(b.iter().rev()) {
                match x.cmp(y) {
                    Ordering::Equal => continue,
                    o => return o,
                }
            }
            Ordering::Equal
        })
    }

    fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &word) in long.iter().enumerate() {
            let (s1, c1) = word.overflowing_add(*short.get(i).unwrap_or(&0));
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        out
    }

    /// `a - b` for magnitudes with `a >= b`.
    fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Int::mag_cmp(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &word) in a.iter().enumerate() {
            let rhs = *b.get(i).unwrap_or(&0);
            let (d1, b1) = word.overflowing_sub(rhs);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        out
    }

    fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = out[i + j] as u128 + x as u128 * y as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        out
    }

    /// Divides in place by a small divisor, returning the remainder.
    /// Used only for decimal formatting.
    fn div_small(&mut self, d: u64) -> u64 {
        let mut rem = 0u128;
        for w in self.mag.iter_mut().rev() {
            let cur = (rem << 64) | *w as u128;
            *w = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        while self.mag.last() == Some(&0) {
            self.mag.pop();
        }
        rem as u64
    }
}

impl From<i32> for Int {
    fn from(v: i32) -> Self {
        Int::from(v as i64)
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Self {
        let neg = v < 0;
        let mag = v.unsigned_abs();
        Int {
            neg,
            mag: if mag == 0 { vec![] } else { vec![mag] },
        }
    }
}

impl From<u64> for Int {
    fn from(v: u64) -> Self {
        Int {
            neg: false,
            mag: if v == 0 { vec![] } else { vec![v] },
        }
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        if self.is_zero() {
            Int::zero()
        } else {
            Int {
                neg: !self.neg,
                mag: self.mag.clone(),
            }
        }
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        -&self
    }
}

impl Add for &Int {
    type Output = Int;
    fn add(self, rhs: &Int) -> Int {
        if self.neg == rhs.neg {
            Int {
                neg: self.neg,
                mag: Int::mag_add(&self.mag, &rhs.mag),
            }
            .normalised()
        } else {
            match Int::mag_cmp(&self.mag, &rhs.mag) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => Int {
                    neg: self.neg,
                    mag: Int::mag_sub(&self.mag, &rhs.mag),
                }
                .normalised(),
                Ordering::Less => Int {
                    neg: rhs.neg,
                    mag: Int::mag_sub(&rhs.mag, &self.mag),
                }
                .normalised(),
            }
        }
    }
}

impl Add for Int {
    type Output = Int;
    fn add(self, rhs: Int) -> Int {
        &self + &rhs
    }
}

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, rhs: &Int) {
        *self = &*self + rhs;
    }
}

impl Sub for &Int {
    type Output = Int;
    fn sub(self, rhs: &Int) -> Int {
        self + &(-rhs)
    }
}

impl Sub for Int {
    type Output = Int;
    fn sub(self, rhs: Int) -> Int {
        &self - &rhs
    }
}

impl Mul for &Int {
    type Output = Int;
    fn mul(self, rhs: &Int) -> Int {
        Int {
            neg: self.neg != rhs.neg,
            mag: Int::mag_mul(&self.mag, &rhs.mag),
        }
        .normalised()
    }
}

impl Mul for Int {
    type Output = Int;
    fn mul(self, rhs: Int) -> Int {
        &self * &rhs
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => Int::mag_cmp(&self.mag, &other.mag),
            (true, true) => Int::mag_cmp(&other.mag, &self.mag),
        }
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut v = self.clone();
        while !v.mag.is_empty() {
            digits.push(v.div_small(10_000_000_000_000_000_000));
        }
        let mut s = String::new();
        if self.neg {
            s.push('-');
        }
        // A non-zero value has a non-empty magnitude, so the loop above
        // pushed at least one digit chunk (`div_small` always returns a
        // remainder before the magnitude can empty) — but a formatter
        // must never be able to panic, so the empty case renders the
        // value it mathematically is: zero.
        match digits.pop() {
            Some(top) => s.push_str(&top.to_string()),
            None => s.push('0'),
        }
        while let Some(d) = digits.pop() {
            s.push_str(&format!("{d:019}"));
        }
        write!(f, "{s}")
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arithmetic() {
        let a = Int::from(7i64);
        let b = Int::from(-3i64);
        assert_eq!((&a + &b).to_i128(), Some(4));
        assert_eq!((&a - &b).to_i128(), Some(10));
        assert_eq!((&a * &b).to_i128(), Some(-21));
        assert_eq!((-&a).to_i128(), Some(-7));
        assert_eq!((&a - &a), Int::zero());
    }

    #[test]
    fn zero_is_normalised() {
        let z = Int::from(5i64) - Int::from(5i64);
        assert!(z.is_zero());
        assert_eq!(z, Int::zero());
        assert_eq!((-&z), Int::zero());
        assert_eq!(z.to_string(), "0");
    }

    #[test]
    fn pow2_and_shifts() {
        assert_eq!(Int::pow2(0).to_i128(), Some(1));
        assert_eq!(Int::pow2(65).to_i128(), Some(1i128 << 65));
        assert_eq!(Int::pow2(64).bits(), 65);
    }

    /// Decimal rendering regression: every digits-vector shape the
    /// `Display` loop can produce — zero (early return), single-limb
    /// single-chunk values, values straddling the 10^19 chunk boundary
    /// (leading chunk must not be zero-padded, later chunks must be),
    /// and multi-limb magnitudes.
    #[test]
    fn display_zero_single_limb_and_chunk_boundaries() {
        assert_eq!(Int::zero().to_string(), "0");
        assert_eq!(Int::default().to_string(), "0");
        assert_eq!((Int::from(3i64) - Int::from(3i64)).to_string(), "0");
        assert_eq!((-Int::zero()).to_string(), "0");

        assert_eq!(Int::one().to_string(), "1");
        assert_eq!(Int::from(-1i64).to_string(), "-1");
        assert_eq!(Int::from(42i64).to_string(), "42");
        assert_eq!(Int::from(u64::MAX).to_string(), "18446744073709551615");

        // Exactly at and around the 10^19 decimal-chunk divisor.
        let chunk = Int::from(10_000_000_000_000_000_000u64);
        assert_eq!(chunk.to_string(), "10000000000000000000");
        assert_eq!(
            (&chunk + &Int::one()).to_string(),
            "10000000000000000001",
            "second chunk must be zero-padded to 19 digits"
        );
        assert_eq!((&chunk - &Int::one()).to_string(), "9999999999999999999");

        // Multi-limb: 2^128 = 340282366920938463463374607431768211456.
        assert_eq!(
            Int::pow2(128).to_string(),
            "340282366920938463463374607431768211456"
        );
        assert_eq!(
            (-Int::pow2(128)).to_string(),
            "-340282366920938463463374607431768211456"
        );

        // Display agrees with i128 formatting across the boundary into
        // two-limb territory.
        let big = Int::from(u64::MAX) + Int::one();
        assert_eq!(big.to_string(), (u64::MAX as i128 + 1).to_string());
    }

    #[test]
    fn large_multiplication() {
        // (2^100 + 1)^2 = 2^200 + 2^101 + 1
        let v = Int::pow2(100) + Int::one();
        let sq = &v * &v;
        let expected = Int::pow2(200) + Int::pow2(101) + Int::one();
        assert_eq!(sq, expected);
    }

    #[test]
    fn ordering() {
        let vals = [
            Int::from(-100i64),
            Int::from(-1i64),
            Int::zero(),
            Int::one(),
            Int::pow2(64),
            Int::pow2(200),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn decimal_display() {
        assert_eq!(Int::from(123456789i64).to_string(), "123456789");
        assert_eq!(Int::from(-42i64).to_string(), "-42");
        // 2^64 = 18446744073709551616
        assert_eq!(Int::pow2(64).to_string(), "18446744073709551616");
        // 10^19 boundary of the chunked formatter
        let big = Int::from(10_000_000_000_000_000_000u64);
        assert_eq!(big.to_string(), "10000000000000000000");
    }

    #[test]
    fn to_i128_overflow_detected() {
        // 2^126 fits i128; 2^127 exceeds i128::MAX = 2^127 - 1.
        assert_eq!(Int::pow2(126).to_i128(), Some(1i128 << 126));
        assert_eq!(Int::pow2(127).to_i128(), None);
        assert_eq!(Int::pow2(500).to_i128(), None);
    }
}
