//! Host-side half of the guarded offload protocol: prepares the ABFT
//! checksum operands the guarded firmware verifies against, and reads
//! back the structured fault record it leaves in DRAM.
//!
//! The firmware half is [`crate::firmware::accel_offload_guarded`]; the
//! checksum mathematics live in `neuropulsim_core::abft`.

use crate::firmware::DramLayout;
use crate::fixed::to_fixed;
use crate::system::System;
use neuropulsim_linalg::RMatrix;

/// The structured fault record the guarded firmware writes to
/// [`DramLayout::fault_addr`] before halting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardRecord {
    /// Fault detections (checksum mismatches, device errors, timeouts).
    pub detections: u32,
    /// Blocks/vectors that verified clean after a retry or repair.
    pub recoveries: u32,
    /// Blocks degraded to the software MVM path.
    pub fallbacks: u32,
    /// Last device `ERROR` code observed (see
    /// [`crate::accel::errcode`]), 0 if none.
    pub last_code: u32,
}

impl GuardRecord {
    /// `true` when the run detected at least one fault.
    pub fn detected(&self) -> bool {
        self.detections > 0
    }
}

/// Writes everything the guarded firmware needs into DRAM: the weight
/// matrix (for the software fallback), the input vectors, the ABFT
/// plain-checksum row `c = 1ᵀ·W`, the per-vector wrapping input
/// checksums, and a zeroed fault record.
///
/// The input checksums are computed exactly as the firmware recomputes
/// them: the wrapping 32-bit sum of the Q16.16 words of each vector.
///
/// # Panics
///
/// Panics if `w` is not square, an input vector has the wrong length, or
/// a layout region falls outside DRAM.
pub fn write_guard_operands(sys: &mut System, w: &RMatrix, x: &[Vec<f64>], layout: DramLayout) {
    let n = w.rows();
    assert_eq!(w.cols(), n, "guard operands: weight matrix must be square");
    sys.write_fixed_vector(layout.w_addr, w.as_slice());
    let mut col_sums = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            col_sums[j] += w[(i, j)];
        }
    }
    sys.write_fixed_vector(layout.c_addr, &col_sums);
    for (v, col) in x.iter().enumerate() {
        assert_eq!(col.len(), n, "guard operands: input vector {v} length");
        sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, col);
        let sum = col
            .iter()
            .fold(0u32, |acc, &f| acc.wrapping_add(to_fixed(f) as u32));
        sys.platform
            .dram
            .poke(layout.xsum_addr + 4 * v as u32, sum)
            .expect("guard operands: xsum region outside DRAM");
    }
    for k in 0..4 {
        sys.platform
            .dram
            .poke(layout.fault_addr + 4 * k, 0)
            .expect("guard operands: fault record outside DRAM");
    }
}

/// Reads the structured fault record back from DRAM (out-of-range reads
/// count as zeros, so a crashed run reads as an empty record).
pub fn read_guard_record(sys: &System, layout: DramLayout) -> GuardRecord {
    let rd = |k: u32| {
        sys.platform
            .dram
            .peek(layout.fault_addr + 4 * k)
            .unwrap_or(0)
    };
    GuardRecord {
        detections: rd(0),
        recoveries: rd(1),
        fallbacks: rd(2),
        last_code: rd(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::{errcode, PcmDriftModel};
    use crate::firmware::{accel_offload_guarded, GuardConfig};
    use crate::system::RunOutcome;
    use neuropulsim_core::abft::fixed_checksum_tolerance;
    use neuropulsim_riscv::cpu::Halt;

    fn test_matrix(n: usize) -> RMatrix {
        RMatrix::from_fn(n, n, |i, j| 0.4 * ((i as f64 - j as f64) * 0.31).sin())
    }

    fn test_inputs(n: usize, batch: usize) -> Vec<Vec<f64>> {
        (0..batch)
            .map(|v| {
                (0..n)
                    .map(|k| 0.2 * ((v * n + k) as f64 * 0.17).cos())
                    .collect()
            })
            .collect()
    }

    fn check_outputs(sys: &System, w: &RMatrix, x: &[Vec<f64>], layout: DramLayout, tol: f64) {
        let n = w.rows();
        for (v, col) in x.iter().enumerate() {
            let want = w.mul_vec(col);
            let got = sys.read_fixed_vector(layout.y_addr + (v * n * 4) as u32, n);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < tol, "vector {v} element {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn guarded_offload_is_clean_without_faults() {
        let n = 8;
        let batch = 16;
        let layout = DramLayout::default();
        let w = test_matrix(n);
        let x = test_inputs(n, batch);
        let cfg = GuardConfig {
            tolerance: fixed_checksum_tolerance(n),
            ..GuardConfig::default()
        };
        let mut sys = System::new();
        sys.platform.pe_mut(0).load_matrix(&w);
        write_guard_operands(&mut sys, &w, &x, layout);
        sys.load_firmware_source(&accel_offload_guarded(n, batch, layout, &cfg));
        let report = sys.run(1_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        let rec = read_guard_record(&sys, layout);
        assert_eq!(rec, GuardRecord::default(), "no detections on a clean run");
        assert_eq!(sys.platform.pe(0).error_bits(), 0);
        check_outputs(&sys, &w, &x, layout, 2e-3);
    }

    #[test]
    fn guarded_offload_recovers_from_pcm_drift_via_recalibration() {
        let n = 8;
        let batch = 16;
        let layout = DramLayout::default();
        let w = test_matrix(n);
        let x = test_inputs(n, batch);
        let cfg = GuardConfig {
            tolerance: fixed_checksum_tolerance(n),
            recal_after: 1, // recalibrate on the first retry
            ..GuardConfig::default()
        };
        let mut sys = System::new();
        sys.platform.pe_mut(0).load_matrix(&w);
        // Weights programmed ~30 simulated years ago: badly drifted at
        // boot, near-pristine again right after a recalibration.
        sys.platform.pe_mut(0).enable_drift(PcmDriftModel {
            nu: 2e-3,
            seconds_per_cycle: 1e-9,
            initial_age_s: 1e9,
            ..PcmDriftModel::default()
        });
        write_guard_operands(&mut sys, &w, &x, layout);
        sys.load_firmware_source(&accel_offload_guarded(n, batch, layout, &cfg));
        let report = sys.run(1_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        let rec = read_guard_record(&sys, layout);
        assert!(rec.detected(), "drifted output must be detected: {rec:?}");
        assert!(
            rec.recoveries > 0,
            "retry-after-recal must recover: {rec:?}"
        );
        assert_eq!(rec.fallbacks, 0, "no software fallback needed: {rec:?}");
        assert!(
            sys.platform.pe(0).recal_count() > 0,
            "the guard must have requested a recalibration"
        );
        check_outputs(&sys, &w, &x, layout, 2e-3);
    }

    #[test]
    fn guarded_offload_degrades_to_software_on_dead_device() {
        let n = 4;
        let batch = 8;
        let layout = DramLayout::default();
        let w = test_matrix(n);
        let x = test_inputs(n, batch);
        let cfg = GuardConfig {
            block: 4,
            tolerance: fixed_checksum_tolerance(n),
            poll_limit: 64,
            backoff_base: 4,
            backoff_cap: 16,
            ..GuardConfig::default()
        };
        // The accelerator never gets a matrix: every doorbell is a
        // BAD_JOB no-op and the jobs never complete.
        let mut sys = System::new();
        write_guard_operands(&mut sys, &w, &x, layout);
        sys.load_firmware_source(&accel_offload_guarded(n, batch, layout, &cfg));
        let report = sys.run(2_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        let rec = read_guard_record(&sys, layout);
        assert_eq!(rec.fallbacks, 2, "both blocks degrade to software");
        assert!(rec.detections >= 2 * (cfg.max_retries + 1));
        // The fault record is escalated through the device error IRQ.
        assert_ne!(sys.platform.pe(0).error_bits() & errcode::CHECKSUM, 0);
        assert!(sys.platform.pe(0).error_irq_line());
        // And the results are still correct, from the software path.
        check_outputs(&sys, &w, &x, layout, 1e-3);
    }

    #[test]
    fn guarded_offload_survives_watchdog_timeouts() {
        let n = 4;
        let batch = 8;
        let layout = DramLayout::default();
        let w = test_matrix(n);
        let x = test_inputs(n, batch);
        let cfg = GuardConfig {
            block: 4,
            tolerance: fixed_checksum_tolerance(n),
            watchdog: 64,
            poll_limit: 512,
            backoff_base: 4,
            backoff_cap: 16,
            ..GuardConfig::default()
        };
        let mut sys = System::new();
        sys.platform.pe_mut(0).load_matrix(&w);
        // Pathological device latency: every job overshoots the watchdog.
        sys.platform.pe_mut(0).setup_cycles = 100_000;
        write_guard_operands(&mut sys, &w, &x, layout);
        sys.load_firmware_source(&accel_offload_guarded(n, batch, layout, &cfg));
        let report = sys.run(2_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        let rec = read_guard_record(&sys, layout);
        assert!(rec.detected());
        assert_eq!(rec.fallbacks, 2, "watchdog-dead device degrades cleanly");
        assert_eq!(
            rec.last_code & errcode::WATCHDOG,
            errcode::WATCHDOG,
            "the device timeout code is recorded: {rec:?}"
        );
        check_outputs(&sys, &w, &x, layout, 1e-3);
    }
}
