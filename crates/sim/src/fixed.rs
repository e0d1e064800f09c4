//! Q16.16 fixed-point conversions — the number format the host firmware
//! and the accelerator's Communications Interface exchange through SPM.

/// Fractional bits of the Q16.16 format.
pub(crate) const FRAC_BITS: u32 = 16;

/// Scale factor `2^16`.
pub const SCALE: f64 = 65536.0;

/// Converts a float to Q16.16 with saturation, rounding half away from
/// zero (the rounding of [`f64::round`]).
///
/// The form is branch-free and calls no libm routine, so it compiles
/// inline into each build of the accelerator job: `as i32` truncates
/// toward zero and saturates, the exact remainder `v - trunc(v)` adds or
/// subtracts one LSB when it reaches ±½, and the saturating add and
/// subtract keep the `i32` bounds.
///
/// Non-finite inputs follow an explicit policy: `+inf` saturates to
/// [`i32::MAX`], `-inf` to [`i32::MIN`], and NaN converts to 0 — NaN has
/// no order, so neither saturation bound applies, and 0 is the only
/// value that keeps `to_fixed` total without inventing a sign.
pub fn to_fixed(x: f64) -> i32 {
    let v = x * SCALE;
    let t = v as i32;
    let frac = v - f64::from(t);
    t.saturating_add(i32::from(frac >= 0.5))
        .saturating_sub(i32::from(frac <= -0.5))
}

/// Converts Q16.16 back to a float.
pub fn from_fixed(x: i32) -> f64 {
    x as f64 / SCALE
}

/// Q16.16 multiply (the operation the software-GeMM firmware performs
/// with `mul`/`mulh` pairs).
///
/// The wide product is saturated to the `i32` range instead of wrapped:
/// `to_fixed` already saturates out-of-range floats, and a product that
/// overflows Q16.16 must degrade the same way (clamp to the nearest
/// representable value) rather than silently change sign.
pub fn fixed_mul(a: i32, b: i32) -> i32 {
    let wide = ((a as i64) * (b as i64)) >> FRAC_BITS;
    wide.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_precision() {
        for x in [-3.75, -0.001, 0.0, 0.5, 1.0, 123.456] {
            let err = (from_fixed(to_fixed(x)) - x).abs();
            assert!(err < 1.0 / SCALE, "x={x}, err={err}");
        }
    }

    #[test]
    fn saturation() {
        assert_eq!(to_fixed(1e9), i32::MAX);
        assert_eq!(to_fixed(-1e9), i32::MIN);
    }

    #[test]
    fn non_finite_policy() {
        assert_eq!(to_fixed(f64::NAN), 0, "NaN converts to 0 by policy");
        assert_eq!(to_fixed(-f64::NAN), 0);
        assert_eq!(to_fixed(f64::INFINITY), i32::MAX);
        assert_eq!(to_fixed(f64::NEG_INFINITY), i32::MIN);
        // The boundary just inside the representable range still rounds.
        assert_eq!(to_fixed(f64::MIN_POSITIVE), 0);
    }

    /// The `f64::round`-and-compare form `to_fixed` had before it went
    /// call-free; kept here as the sweep's reference.
    fn to_fixed_by_round(x: f64) -> i32 {
        let v = (x * SCALE).round();
        if v.is_nan() {
            0
        } else if v >= i32::MAX as f64 {
            i32::MAX
        } else if v <= i32::MIN as f64 {
            i32::MIN
        } else {
            v as i32
        }
    }

    #[test]
    fn to_fixed_matches_the_round_form_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let check = |x: f64| {
            for x in [x, x.next_up(), x.next_down()] {
                assert_eq!(to_fixed(x), to_fixed_by_round(x), "x = {x:e}");
            }
        };
        // The i32 edges, ±½-LSB ties on either side of them, the non-finite
        // values and the signed zeros, each with its ±1-ulp neighbours.
        let edges = [i32::MAX as f64, i32::MIN as f64, 0.0, 1.0, -1.0];
        for e in edges {
            for d in [-1.0, -0.5, 0.0, 0.5, 1.0] {
                check((e + d) / SCALE);
            }
        }
        for x in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1e9,
            -1e9,
        ] {
            check(x);
        }
        // ~1M seeded inputs: random bit patterns, in-range values, and
        // ±½-LSB ties on integers up to ±2³², half of them past
        // saturation; each with its ±1-ulp neighbours.
        let mut rng = StdRng::seed_from_u64(0x51ed);
        for _ in 0..1 << 17 {
            check(f64::from_bits(rng.gen::<u64>()));
            check(rng.gen_range(-40_000.0..40_000.0));
            let k = rng.gen::<u64>() as i64 >> 31;
            check((k as f64 + 0.5) / SCALE);
        }
    }

    #[test]
    fn multiplication() {
        let a = to_fixed(1.5);
        let b = to_fixed(-2.0);
        assert!((from_fixed(fixed_mul(a, b)) + 3.0).abs() < 1e-3);
        assert_eq!(fixed_mul(to_fixed(1.0), to_fixed(1.0)), to_fixed(1.0));
    }

    #[test]
    fn multiplication_saturates_instead_of_wrapping() {
        // 30000.0 * 30000.0 = 9e8, far beyond the Q16.16 max of ~32768:
        // the former `as i32` truncation wrapped this to a negative value.
        let big = to_fixed(30000.0);
        assert_eq!(fixed_mul(big, big), i32::MAX);
        assert_eq!(fixed_mul(big, -big), i32::MIN);
        assert_eq!(fixed_mul(-big, big), i32::MIN);
        assert_eq!(fixed_mul(-big, -big), i32::MAX);
        assert_eq!(fixed_mul(i32::MAX, i32::MAX), i32::MAX);
        assert_eq!(fixed_mul(i32::MIN, i32::MIN), i32::MAX);
        assert_eq!(fixed_mul(i32::MIN, i32::MAX), i32::MIN);
    }

    #[test]
    fn multiplication_saturation_boundaries_are_exact() {
        // Largest pair whose product still fits: i32::MAX in Q16.16 is
        // (2^31 - 1) / 2^16; sqrt of that times itself stays in range.
        let edge = to_fixed(181.0); // 181^2 = 32761 < 32767.99...
        let prod = fixed_mul(edge, edge);
        assert!((from_fixed(prod) - 181.0 * 181.0).abs() < 1.0);
        assert_ne!(prod, i32::MAX, "in-range product must not clamp");
        // One LSB below the positive clamp: (i32::MAX << 16) / i32::MAX.
        assert_eq!(fixed_mul(i32::MAX, 1 << FRAC_BITS), i32::MAX);
        assert_eq!(fixed_mul(i32::MAX, (1 << FRAC_BITS) - 1), 2147450879);
    }
}
