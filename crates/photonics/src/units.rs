//! Physical constants and unit helpers used across the photonic models.
//!
//! All internal quantities are SI unless a name says otherwise
//! (`*_nm`, `*_um`, `*_mw`, ...). Optical *power* is in watts, *energy* in
//! joules, *lengths* in meters.

/// Speed of light in vacuum \[m/s\].
pub const SPEED_OF_LIGHT: f64 = 2.997_924_58e8;

/// The standard telecom C-band wavelength used throughout the paper \[m\].
pub const TELECOM_WAVELENGTH: f64 = 1550e-9;

/// Converts a power/intensity ratio to decibels.
///
/// Returns `-inf` for a zero ratio.
pub fn linear_to_db(ratio: f64) -> f64 {
    10.0 * ratio.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_to_db_values() {
        for (ratio, db) in [(1e-3, -30.0), (1.0, 0.0), (10.0, 10.0)] {
            assert!((linear_to_db(ratio) - db).abs() < 1e-12);
        }
        assert!((linear_to_db(2.0) - 3.0103).abs() < 1e-4);
        assert!(linear_to_db(0.0).is_infinite());
    }
}
