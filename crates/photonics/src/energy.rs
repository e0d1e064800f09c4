//! Technology-level energy, power and area constants, plus a labelled
//! energy ledger.
//!
//! These numbers parameterize the system-level "speed, energy consumption,
//! and footprint" benchmarking the paper assigns to its simulation platform
//! (§5). Values are representative of the literature the paper cites
//! (silicon MZMs ~tens of fJ/symbol, Ge detectors + ADC ~pJ/sample,
//! thermo-optic P_pi ~20 mW, PCM writes ~nJ) and are deliberately exposed
//! as plain data so experiments can sweep them.

use std::collections::BTreeMap;
use std::fmt;

/// Electro-optic and thermal technology constants of the augmented SOI
/// platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyProfile {
    /// Thermo-optic power for a pi shift \[W\].
    pub thermo_p_pi: f64,
    /// Thermo-optic response time \[s\].
    pub thermo_response: f64,
    /// PCM SET pulse energy \[J\].
    pub pcm_set_energy: f64,
    /// PCM RESET pulse energy \[J\].
    pub pcm_reset_energy: f64,
    /// Modulator energy per symbol \[J\].
    pub modulator_energy_per_symbol: f64,
    /// Modulator / detector symbol rate \[symbols/s\] (vector clock).
    pub symbol_rate: f64,
    /// Receiver (TIA + ADC) energy per sampled output \[J\].
    pub receiver_energy_per_sample: f64,
    /// DAC energy per programmed analog value \[J\].
    pub dac_energy_per_sample: f64,
    /// Optical carrier power injected per input channel \[W\].
    pub carrier_power_per_channel: f64,
    /// Laser wall-plug efficiency (electrical -> optical).
    pub laser_efficiency: f64,
}

impl TechnologyProfile {
    /// Electrical power drawn by the laser to supply `channels` carriers.
    pub fn laser_power(&self, channels: usize) -> f64 {
        self.carrier_power_per_channel * channels as f64 / self.laser_efficiency
    }

    /// Time to stream `vectors` input vectors at the symbol rate \[s\].
    pub fn streaming_time(&self, vectors: usize) -> f64 {
        vectors as f64 / self.symbol_rate
    }
}

impl Default for TechnologyProfile {
    fn default() -> Self {
        TechnologyProfile {
            thermo_p_pi: 20e-3,
            thermo_response: 10e-6,
            pcm_set_energy: 0.4e-9,
            pcm_reset_energy: 1.2e-9,
            modulator_energy_per_symbol: 50e-15,
            symbol_rate: 10e9, // conservative 10 GS/s vector clock
            receiver_energy_per_sample: 1.5e-12,
            dac_energy_per_sample: 0.5e-12,
            carrier_power_per_channel: 1e-3,
            laser_efficiency: 0.2,
        }
    }
}

/// Per-component footprint constants \[m^2\] for the SWaP analysis (E9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentAreas {
    /// Area of one standard (2-coupler, 2-phase-shifter) MZI cell.
    pub mzi: f64,
    /// Area scale factor of a compacted (Bell–Walmsley style) cell.
    pub compact_factor: f64,
    /// Area of one high-speed input modulator.
    pub modulator: f64,
    /// Area of one photodetector + TIA.
    pub detector: f64,
    /// Area of a PCM patch + heater added to a phase shifter.
    pub pcm_patch: f64,
}

impl Default for ComponentAreas {
    fn default() -> Self {
        ComponentAreas {
            // 120 um x 80 um MZI cell dominated by the thermal shifters.
            mzi: 120e-6 * 80e-6,
            compact_factor: 0.6,
            modulator: 300e-6 * 50e-6,
            detector: 50e-6 * 50e-6,
            pcm_patch: 20e-6 * 10e-6,
        }
    }
}

/// A labelled energy ledger: named contributions in joules, accumulated
/// over a workload and printable as a breakdown table.
///
/// # Examples
///
/// ```
/// use neuropulsim_photonics::energy::EnergyLedger;
///
/// let mut ledger = EnergyLedger::new();
/// ledger.add("laser", 2.0e-9);
/// ledger.add("modulators", 1.0e-9);
/// ledger.add("laser", 0.5e-9);
/// assert!((ledger.total() - 3.5e-9).abs() < 1e-18);
/// assert!((ledger.get("laser") - 2.5e-9).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyLedger {
    entries: BTreeMap<String, f64>,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `joules` to the component named `label`.
    pub fn add(&mut self, label: &str, joules: f64) {
        *self.entries.entry(label.to_string()).or_insert(0.0) += joules;
    }

    /// Energy recorded for `label` (0 if absent) \[J\].
    pub fn get(&self, label: &str) -> f64 {
        self.entries.get(label).copied().unwrap_or(0.0)
    }

    /// Total energy across all components \[J\].
    pub fn total(&self) -> f64 {
        self.entries.values().sum()
    }

    /// Iterates over `(label, joules)` entries in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        for (k, v) in self.iter() {
            let pct = if total > 0.0 { 100.0 * v / total } else { 0.0 };
            writeln!(f, "{k:>18}: {:>12.3e} J ({pct:5.1}%)", v)?;
        }
        writeln!(f, "{:>18}: {:>12.3e} J", "total", total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut a = EnergyLedger::new();
        a.add("x", 1.0);
        a.add("y", 2.0);
        a.add("x", 3.0);
        assert_eq!(a.get("x"), 4.0);
        assert_eq!(a.total(), 6.0);
        assert_eq!(a.get("missing"), 0.0);
        assert!(!a.is_empty());
    }

    #[test]
    fn display_contains_total() {
        let mut l = EnergyLedger::new();
        l.add("laser", 1e-9);
        let s = l.to_string();
        assert!(s.contains("laser"));
        assert!(s.contains("total"));
    }

    #[test]
    fn laser_power_scales_with_channels() {
        let t = TechnologyProfile::default();
        let p8 = t.laser_power(8);
        let p16 = t.laser_power(16);
        assert!((p16 / p8 - 2.0).abs() < 1e-12);
        // 1 mW/channel at 20% efficiency = 5 mW/channel electrical.
        assert!((p8 - 8.0 * 5e-3).abs() < 1e-12);
    }

    #[test]
    fn streaming_time_at_symbol_rate() {
        let t = TechnologyProfile::default();
        assert!((t.streaming_time(10_000_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn default_areas_are_positive_and_compact_smaller() {
        let a = ComponentAreas::default();
        assert!(a.mzi > 0.0 && a.modulator > 0.0 && a.detector > 0.0);
        assert!(a.compact_factor < 1.0);
    }
}
