//! Data converters: the DACs driving the modulators and the ADCs
//! digitizing the detector outputs. Analog photonic compute is bracketed
//! by these converters, and their bit depth is a first-order limit on
//! end-to-end precision (and a large share of the I/O energy budget).

/// A uniform mid-tread quantizer with saturation — models both DACs and
/// ADCs (the transfer direction differs, the arithmetic does not).
///
/// Codes sit at integer multiples of the LSB, symmetric around zero; the
/// top code is half an LSB below full scale (mid-tread convention), so
/// overrange inputs saturate to the top code.
///
/// # Examples
///
/// ```
/// use neuropulsim_photonics::converter::Converter;
///
/// let adc = Converter::new(4, 1.0); // 4 bits over [-1, 1]
/// assert_eq!(adc.quantize(2.0), 7.0 * adc.lsb()); // saturates at the top code
/// assert_eq!(adc.quantize(0.0), 0.0); // zero is exact
/// assert!((adc.quantize(0.09) - adc.lsb() * (0.09 / adc.lsb()).round()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Converter {
    /// Resolution in bits.
    pub bits: u32,
    /// Full-scale range: codes span `[-full_scale, +full_scale]`.
    pub full_scale: f64,
}

impl Converter {
    /// Creates a converter.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or `full_scale` is not positive.
    pub fn new(bits: u32, full_scale: f64) -> Self {
        assert!(bits >= 1, "need at least 1 bit");
        assert!(full_scale > 0.0, "full scale must be positive");
        Converter { bits, full_scale }
    }

    /// The least-significant-bit step size.
    pub fn lsb(&self) -> f64 {
        2.0 * self.full_scale / ((1u64 << self.bits) - 1) as f64
    }

    /// The largest positive code (number of positive steps).
    fn max_code(&self) -> i64 {
        (((1u64 << self.bits) - 1) / 2) as i64
    }

    /// Quantizes one value (saturating, mid-tread).
    pub fn quantize(&self, x: f64) -> f64 {
        let lsb = self.lsb();
        let code = (x / lsb).round() as i64;
        let code = code.clamp(-self.max_code(), self.max_code());
        code as f64 * lsb
    }

    /// Quantizes a slice in place.
    pub fn quantize_slice(&self, values: &mut [f64]) {
        for v in values.iter_mut() {
            *v = self.quantize(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analog value of the top code.
    fn top_code(c: &Converter) -> f64 {
        c.max_code() as f64 * c.lsb()
    }

    #[test]
    fn one_bit_has_a_single_code() {
        let c = Converter::new(1, 1.0);
        assert_eq!(c.lsb(), 2.0);
        assert_eq!(c.quantize(0.9), 0.0, "only code is zero");
        assert_eq!(c.quantize(-5.0), 0.0);
        assert_eq!(top_code(&c), 0.0);
    }

    #[test]
    fn saturation_hits_the_top_code() {
        let c = Converter::new(8, 0.5);
        assert_eq!(c.quantize(10.0), top_code(&c));
        assert_eq!(c.quantize(-10.0), -top_code(&c));
        assert!(top_code(&c) <= 0.5);
        assert!(top_code(&c) > 0.49, "top code near full scale");
    }

    #[test]
    fn error_bounded_by_half_lsb_in_range() {
        let c = Converter::new(6, 1.0);
        let top = top_code(&c);
        for k in -100..=100 {
            let x = k as f64 / 100.0;
            if x.abs() > top {
                continue; // saturation region
            }
            let err = (c.quantize(x) - x).abs();
            assert!(err <= c.lsb() / 2.0 + 1e-12, "x={x}, err={err}");
        }
    }

    #[test]
    fn slice_quantization() {
        let c = Converter::new(3, 1.0);
        let mut v = vec![0.3, -0.9, 2.0];
        c.quantize_slice(&mut v);
        for &x in &v {
            assert!((x / c.lsb()).fract().abs() < 1e-9, "{x} off grid");
        }
        assert_eq!(v[2], top_code(&c));
    }

    #[test]
    #[should_panic(expected = "at least 1 bit")]
    fn rejects_zero_bits() {
        let _ = Converter::new(0, 1.0);
    }
}
