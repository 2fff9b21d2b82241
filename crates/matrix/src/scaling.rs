//! Exact power-of-two rescaling of inputs with extreme magnitudes.
//!
//! One-sided Jacobi forms squared column norms and products of entries,
//! so a matrix whose largest entry lies outside `[2^-480, 2^480)` would
//! overflow to ∞ or lose its squares to the subnormal range. The drivers
//! multiply such an input by the power of two [`shift_for`] returns, which
//! brings its largest entry into `[1, 2)` without rounding any entry that
//! stays normal, and multiply the computed singular values back with
//! [`mul_pow2`]. Inside the window the shift is 0 and nothing is touched,
//! so results are bitwise unchanged.

use std::ops::Range;

/// Binary exponents of `max|aᵢⱼ|` that need no rescaling: squares and
/// products of such entries stay normal numbers.
const SAFE_EXPONENTS: Range<i32> = -480..480;

/// The exponent `k` for which `2^k · max_abs` lies in `[1, 2)`, or 0 when
/// `max_abs` is zero, not finite, or has its exponent inside the safe
/// window.
#[must_use]
pub fn shift_for(max_abs: f64) -> i32 {
    if max_abs == 0.0 || !max_abs.is_finite() {
        return 0;
    }
    let e = floor_log2(max_abs);
    if SAFE_EXPONENTS.contains(&e) {
        0
    } else {
        -e
    }
}

/// `max|xᵢ|`, or `None` when an entry is NaN or infinite. One branch-free
/// pass over independent lanes, so it vectorizes: `xᵢ · 0` is ±0 for a
/// finite entry and NaN otherwise, which poisons a lane's sum.
#[must_use]
pub fn finite_max_abs(x: &[f64]) -> Option<f64> {
    const LANES: usize = 8;
    let mut max = [0.0_f64; LANES];
    let mut poison = [0.0_f64; LANES];
    let chunks = x.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for ((m, p), &v) in max.iter_mut().zip(&mut poison).zip(chunk) {
            let a = v.abs();
            *m = if a > *m { a } else { *m };
            *p += v * 0.0;
        }
    }
    for (m, &v) in max.iter_mut().zip(tail) {
        *m = m.max(v.abs());
        poison[0] += v * 0.0;
    }
    poison.iter().all(|&p| p == 0.0).then(|| max.iter().fold(0.0_f64, |m, &v| m.max(v)))
}

/// [`finite_max_abs`] of `x` and `Σxᵢ²` in the same pass.
#[must_use]
pub fn finite_max_abs_sumsq(x: &[f64]) -> Option<(f64, f64)> {
    const LANES: usize = 8;
    let mut max = [0.0_f64; LANES];
    let mut poison = [0.0_f64; LANES];
    let mut sum = [0.0_f64; LANES];
    let chunks = x.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (((m, p), s), &v) in max.iter_mut().zip(&mut poison).zip(&mut sum).zip(chunk) {
            let a = v.abs();
            *m = if a > *m { a } else { *m };
            *p += v * 0.0;
            *s += v * v;
        }
    }
    for (((m, p), s), &v) in max.iter_mut().zip(&mut poison).zip(&mut sum).zip(tail) {
        *m = m.max(v.abs());
        *p += v * 0.0;
        *s += v * v;
    }
    poison
        .iter()
        .all(|&p| p == 0.0)
        .then(|| (max.iter().fold(0.0_f64, |m, &v| m.max(v)), sum.iter().sum()))
}

/// [`finite_max_abs`] of `x`, adding each `xᵢ²` to `acc[i]` in the same
/// pass (called on every column of a matrix, `acc` collects the row sums
/// of squares).
///
/// # Panics
/// Panics if `acc` is shorter than `x`.
#[must_use]
pub fn finite_max_abs_add_squares(x: &[f64], acc: &mut [f64]) -> Option<f64> {
    let acc = &mut acc[..x.len()];
    let mut max = 0.0_f64;
    let mut poison = 0.0_f64;
    for (s, &v) in acc.iter_mut().zip(x) {
        let a = v.abs();
        max = if a > max { a } else { max };
        poison += v * 0.0;
        *s += v * v;
    }
    (poison == 0.0).then_some(max)
}

/// `x · 2^k`, exact whenever the result is a normal number. Two factors
/// keep each power representable for every `|k| ≤ 1074`.
#[must_use]
pub fn mul_pow2(x: f64, k: i32) -> f64 {
    let half = k / 2;
    x * pow2(half) * pow2(k - half)
}

/// `⌊log₂ x⌋` for a finite `x > 0`, read off the exponent bits.
fn floor_log2(x: f64) -> i32 {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // subnormal: x = fraction · 2^-1074
        let fraction = bits & ((1 << 52) - 1);
        63 - fraction.leading_zeros() as i32 - 1074
    } else {
        biased - 1023
    }
}

/// `2^k` for `|k| ≤ 1022`, built from the exponent bits.
fn pow2(k: i32) -> f64 {
    f64::from_bits(((1023 + k) as u64) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponents_and_powers_are_exact() {
        for k in [-1074, -1023, -1022, -481, -480, -1, 0, 1, 479, 480, 1023] {
            let x = mul_pow2(1.0, k);
            assert_eq!(floor_log2(x), k, "2^{k}");
            if k > -1074 {
                assert_eq!(floor_log2(x * 1.75), k, "1.75 · 2^{k}");
            }
        }
        assert_eq!(mul_pow2(f64::MIN_POSITIVE, 1074), 2.0_f64.powi(52));
        assert_eq!(mul_pow2(3.0, -2), 0.75);
    }

    #[test]
    fn max_abs_is_found_and_non_finite_entries_are_caught() {
        for len in [0, 3, 8, 13, 40] {
            let mut x: Vec<f64> = (0..len).map(|i| (i as f64 - 7.5) * 0.25).collect();
            let want = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            assert_eq!(finite_max_abs(&x), Some(want), "len {len}");
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                if let Some(last) = x.last_mut() {
                    let keep = std::mem::replace(last, bad);
                    assert_eq!(finite_max_abs(&x), None, "len {len}: {bad}");
                    *x.last_mut().unwrap() = keep;
                }
            }
        }
        assert_eq!(finite_max_abs(&[-0.0, -5e-324]), Some(5e-324));
    }

    #[test]
    fn fused_sums_of_squares_match_the_plain_pass() {
        for len in [0, 3, 8, 13, 40] {
            let mut x: Vec<f64> = (0..len).map(|i| (i as f64 - 7.5) * 0.25).collect();
            let want_sum: f64 = x.iter().map(|v| v * v).sum();
            let (max, sum) = finite_max_abs_sumsq(&x).unwrap();
            assert_eq!(Some(max), finite_max_abs(&x), "len {len}");
            assert!((sum - want_sum).abs() <= 1e-15 * want_sum, "len {len}");
            let mut acc = vec![1.0; len + 2];
            assert_eq!(finite_max_abs_add_squares(&x, &mut acc), finite_max_abs(&x), "len {len}");
            for (i, (&s, &v)) in acc.iter().zip(&x).enumerate() {
                assert_eq!(s, 1.0 + v * v, "len {len} row {i}");
            }
            assert_eq!(acc[len..], [1.0, 1.0], "entries past x stay untouched");
            if let Some(last) = x.last_mut() {
                *last = f64::NAN;
                assert_eq!(finite_max_abs_sumsq(&x), None, "len {len}");
                assert_eq!(finite_max_abs_add_squares(&x, &mut acc), None, "len {len}");
            }
        }
    }

    #[test]
    fn shifts_land_in_one_to_two_outside_the_window_only() {
        for x in [0.0, 1.0, 3.0e144, 2.0e-144, f64::INFINITY, f64::NAN] {
            assert_eq!(shift_for(x), 0, "{x:e}");
        }
        for x in [6e200, 1e-200, f64::MAX, 5e-324, 4e-310] {
            let k = shift_for(x);
            assert_ne!(k, 0, "{x:e}");
            assert!((1.0..2.0).contains(&mul_pow2(x, k)), "{x:e}: shift {k}");
        }
    }
}
