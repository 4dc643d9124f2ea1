//! Fixed-point quantisation.
//!
//! The paper deploys LeNet-5 with "fix-point 8-bit value, with 3-bits for
//! the integer and the rest for the mantissa representation". [`QFormat`]
//! expresses exactly that family of formats; [`Fixed8`] is one quantised
//! value. The accelerator crate does its MAC arithmetic on the raw integer
//! codes, matching what a DSP48 does in hardware, so injected bit-faults
//! corrupt codes exactly as they would on the FPGA.

/// An 8-bit fixed-point format: 1 optional sign bit, `int_bits` integer
/// bits, and the remaining bits of mantissa (fraction).
///
/// # Example
///
/// ```
/// use dnn::fixed::QFormat;
///
/// let q = QFormat::paper(); // signed, 3 integer bits (incl. sign), 5 mantissa bits
/// assert_eq!(q.scale(), 32.0);
/// assert!((q.max_value() - 3.96875).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    signed: bool,
    frac_bits: u8,
}

impl QFormat {
    /// Total bit width of the format (always 8 here).
    pub const BITS: u8 = 8;

    /// Creates a format with the given signedness and number of fractional
    /// (mantissa) bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits >= 8` (at least one integer/sign bit required).
    pub fn new(signed: bool, frac_bits: u8) -> Self {
        assert!(frac_bits < Self::BITS, "at least one non-fraction bit required");
        QFormat { signed, frac_bits }
    }

    /// The paper's deployment format: 8 bits total, 3 integer bits
    /// (including sign — the model is symmetric around zero because the
    /// activation is `tanh`), 5 mantissa bits.
    pub fn paper() -> Self {
        QFormat::new(true, 5)
    }

    /// Whether values carry a sign bit.
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// The multiplicative scale (`2^frac_bits`).
    pub fn scale(&self) -> f32 {
        (1u32 << self.frac_bits) as f32
    }

    /// Smallest representable step.
    pub fn resolution(&self) -> f32 {
        1.0 / self.scale()
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        let max_code = if self.signed { i32::from(i8::MAX) } else { i32::from(u8::MAX) };
        max_code as f32 / self.scale()
    }

    /// Smallest representable value.
    pub fn min_value(&self) -> f32 {
        if self.signed {
            f32::from(i8::MIN) / self.scale()
        } else {
            0.0
        }
    }

    /// Quantises a real value to the nearest code, saturating at the ends.
    pub fn quantize(&self, value: f32) -> Fixed8 {
        let scaled = (value * self.scale()).round();
        let code = if self.signed {
            scaled.clamp(f32::from(i8::MIN), f32::from(i8::MAX)) as i8 as u8
        } else {
            scaled.clamp(0.0, f32::from(u8::MAX)) as u8
        };
        Fixed8 { code, format: *self }
    }

    /// Reconstructs a real value from a raw code.
    pub fn dequantize(&self, code: u8) -> f32 {
        if self.signed {
            f32::from(code as i8) / self.scale()
        } else {
            f32::from(code) / self.scale()
        }
    }
}

/// One quantised 8-bit value: raw code plus its format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fixed8 {
    code: u8,
    format: QFormat,
}

impl Fixed8 {
    /// Raw 8-bit code (two's complement when signed).
    pub fn code(&self) -> u8 {
        self.code
    }

    /// The format this code is interpreted in.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Real value this code represents.
    pub fn to_f32(&self) -> f32 {
        self.format.dequantize(self.code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_format_parameters() {
        let q = QFormat::paper();
        assert!(q.is_signed());
        assert_eq!(q.frac_bits(), 5);
        assert_eq!(q.scale(), 32.0);
        assert!((q.max_value() - 127.0 / 32.0).abs() < 1e-6);
        assert!((q.min_value() + 4.0).abs() < 1e-6);
        assert!((q.resolution() - 0.03125).abs() < 1e-9);
    }

    #[test]
    fn quantize_round_trip_within_half_lsb() {
        let q = QFormat::paper();
        let mut v = -3.9_f32;
        while v < 3.9 {
            let rt = q.quantize(v).to_f32();
            assert!((rt - v).abs() <= q.resolution() / 2.0 + 1e-6, "{v} -> {rt}");
            v += 0.01;
        }
    }

    #[test]
    fn saturation_at_both_ends() {
        let q = QFormat::paper();
        assert_eq!(q.quantize(100.0).to_f32(), q.max_value());
        assert_eq!(q.quantize(-100.0).to_f32(), q.min_value());
    }

    #[test]
    fn unsigned_format_clamps_negatives_to_zero() {
        let q = QFormat::new(false, 5);
        assert_eq!(q.quantize(-1.0).code(), 0);
        assert_eq!(q.quantize(-1.0).to_f32(), 0.0);
        assert!((q.max_value() - 255.0 / 32.0).abs() < 1e-6);
    }

    #[test]
    fn signed_codes_are_twos_complement() {
        let q = QFormat::paper();
        let v = q.quantize(-1.0);
        assert_eq!(v.code(), (-32i8) as u8);
        assert_eq!(v.to_f32(), -1.0);
    }

    #[test]
    #[should_panic(expected = "non-fraction")]
    fn rejects_all_fraction_format() {
        QFormat::new(true, 8);
    }
}
