//! Full-[`System`] checkpoint/restore — the gem5-style snapshot facility
//! that makes large fault-injection campaigns tractable: instead of
//! replaying the warm-up prefix from cycle 0 for every injection, the
//! campaign engine ([`crate::campaign`]) takes snapshots along the golden
//! run at a configurable cadence and resumes each injection from the
//! last checkpoint before its fault cycle.
//!
//! A snapshot captures *everything* that influences the trajectory: the
//! CPU architectural and timing state (via
//! [`neuropulsim_riscv::cpu::CpuSnapshot`]), both memories (sparse
//! [`RamSnapshot`] images), the accelerator devices including their
//! internal noise RNG, the DMA engine mid-transfer, the optional L1
//! cache, and the platform's stall bookkeeping (each device carries its
//! own interrupt enables). A restored system is therefore bit-identical
//! to the original: resuming from a checkpoint and running `m` cycles
//! lands in exactly the state an uninterrupted run of `cycle + m`
//! reaches.

use crate::accel::AccelDevice;
use crate::cache::DirectMappedCache;
use crate::dma::DmaDevice;
use crate::ram::RamSnapshot;
use crate::system::{DigitalEnergy, System};
use neuropulsim_riscv::cpu::CpuSnapshot;

/// A point-in-time image of a complete [`System`].
#[derive(Debug, Clone)]
pub struct SystemSnapshot {
    /// CPU cycle counter at the time the snapshot was taken.
    pub cycle: u64,
    cpu: CpuSnapshot,
    dram: RamSnapshot,
    spm: RamSnapshot,
    pes: Vec<AccelDevice>,
    dma: DmaDevice,
    now: u64,
    dram_latency: u64,
    l1_cache: Option<DirectMappedCache>,
    stall_cycles: u64,
    cpu_hz: f64,
    digital_energy: DigitalEnergy,
}

impl SystemSnapshot {
    /// Materializes a fresh [`System`] in the captured state.
    pub fn to_system(&self) -> System {
        let mut sys = System::with_clock(self.cpu_hz);
        sys.restore(self);
        sys
    }

    /// Approximate heap footprint \[bytes\], dominated by the sparse
    /// memory images; every PE's device struct counts the same.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.pes.len() * std::mem::size_of::<AccelDevice>()
            + self.dram.approx_bytes()
            + self.spm.approx_bytes()
    }
}

impl System {
    /// Captures the complete simulation state (CPU, memories, devices)
    /// for later [`System::restore`].
    pub fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot {
            cycle: self.cpu.cycles,
            cpu: self.cpu.snapshot(),
            dram: self.platform.dram.snapshot(),
            spm: self.platform.spm.snapshot(),
            pes: self.platform.pes.clone(),
            dma: self.platform.dma.clone(),
            now: self.platform.now,
            dram_latency: self.platform.dram_latency,
            l1_cache: self.platform.l1_cache.clone(),
            stall_cycles: self.platform.stall_cycles,
            cpu_hz: self.cpu_hz,
            digital_energy: self.digital_energy,
        }
    }

    /// Restores the state captured by [`System::snapshot`]. The system
    /// continues the exact trajectory of the snapshotted run.
    ///
    /// # Panics
    ///
    /// Panics if the memory geometry does not match (snapshots restore
    /// onto systems built with the standard memory map).
    pub fn restore(&mut self, snapshot: &SystemSnapshot) {
        self.cpu.restore(&snapshot.cpu);
        self.platform.dram.restore(&snapshot.dram);
        self.platform.spm.restore(&snapshot.spm);
        self.platform.pes = snapshot.pes.clone();
        self.platform.dma = snapshot.dma.clone();
        self.platform.now = snapshot.now;
        self.platform.dram_latency = snapshot.dram_latency;
        self.platform.l1_cache = snapshot.l1_cache.clone();
        self.platform.stall_cycles = snapshot.stall_cycles;
        self.cpu_hz = snapshot.cpu_hz;
        self.digital_energy = snapshot.digital_energy;
    }
}

#[cfg(test)]
mod tests {
    use crate::firmware::{accel_offload, software_mvm, DramLayout};
    use crate::system::{RunOutcome, System};
    use neuropulsim_linalg::RMatrix;

    fn mvm_system(n: usize) -> (System, DramLayout) {
        let layout = DramLayout::default();
        let mut sys = System::new();
        let w = RMatrix::from_fn(n, n, |i, j| 0.3 * ((i + 2 * j) as f64 * 0.41).sin());
        sys.write_fixed_vector(layout.w_addr, w.as_slice());
        let x: Vec<f64> = (0..n).map(|k| 0.2 + 0.05 * k as f64).collect();
        sys.write_fixed_vector(layout.x_addr, &x);
        sys.load_firmware_source(&software_mvm(n, 1, layout));
        (sys, layout)
    }

    fn signature(sys: &System, layout: DramLayout, n: usize) -> Vec<u32> {
        (0..n)
            .map(|k| {
                sys.platform
                    .dram
                    .peek(layout.y_addr + 4 * k as u32)
                    .unwrap_or(0)
            })
            .collect()
    }

    #[test]
    fn resumed_run_matches_uninterrupted_run() {
        let n = 6;
        let (mut reference, layout) = mvm_system(n);
        let ref_report = reference.run(1_000_000);
        assert!(matches!(ref_report.outcome, RunOutcome::Halted(_)));
        assert!(ref_report.cycles > 500, "need room to interrupt mid-run");

        let (mut interrupted, _) = mvm_system(n);
        // Run k cycles, snapshot, resume from a freshly restored system.
        assert!(interrupted.run_cycles_bounded(500, 1_000_000).is_none());
        let snap = interrupted.snapshot();
        let mut resumed = snap.to_system();
        assert_eq!(resumed.cpu, interrupted.cpu);
        let report = resumed.run(1_000_000 - snap.cycle);
        assert_eq!(report.outcome, ref_report.outcome);
        assert_eq!(resumed.cpu.cycles, reference.cpu.cycles);
        assert_eq!(resumed.cpu, reference.cpu, "full CPU state must match");
        assert_eq!(
            signature(&resumed, layout, n),
            signature(&reference, layout, n),
            "readout signature must match"
        );
        assert_eq!(
            resumed.platform.dram.reads, reference.platform.dram.reads,
            "access counters resume too"
        );
    }

    #[test]
    fn restore_rolls_back_divergence_in_place() {
        let n = 3;
        let (mut sys, layout) = mvm_system(n);
        assert!(sys.run_cycles_bounded(200, 1_000_000).is_none());
        let snap = sys.snapshot();
        // Diverge: corrupt memory and keep running.
        sys.platform.dram.poke(layout.x_addr, 0xFFFF_FFFF).unwrap();
        let _ = sys.run(1_000_000);
        // Roll back and finish cleanly.
        sys.restore(&snap);
        assert_eq!(sys.cpu.cycles, snap.cycle);
        let report = sys.run(1_000_000);
        assert!(matches!(report.outcome, RunOutcome::Halted(_)));
        let (mut clean, _) = mvm_system(n);
        let _ = clean.run(1_000_000);
        assert_eq!(signature(&sys, layout, n), signature(&clean, layout, n));
    }

    #[test]
    fn snapshot_of_device_heavy_workload_resumes_mid_transfer() {
        // Snapshot while the DMA/accelerator offload pipeline is in
        // flight: device state (busy_until, in-flight cursor, IRQ
        // enables) must all round-trip.
        let n = 4;
        let layout = DramLayout::default();
        let build = || {
            let mut sys = System::new();
            sys.platform.pe_mut(0).load_matrix(&RMatrix::identity(n));
            sys.write_fixed_vector(layout.x_addr, &[0.5, 0.25, -0.5, 0.125]);
            sys.load_firmware_source(&accel_offload(n, 1, layout));
            sys
        };
        let mut reference = build();
        let ref_report = reference.run(10_000_000);
        assert!(matches!(ref_report.outcome, RunOutcome::Halted(_)));

        for k in [5u64, 40, 90, 150] {
            let mut sys = build();
            if sys.run_cycles_bounded(k, 10_000_000).is_some() {
                break; // workload finished before k — nothing to resume
            }
            let mut resumed = sys.snapshot().to_system();
            let report = resumed.run(10_000_000);
            assert_eq!(report.outcome, ref_report.outcome, "resume at {k}");
            assert_eq!(resumed.cpu, reference.cpu, "resume at {k}");
            assert_eq!(
                signature(&resumed, layout, n),
                signature(&reference, layout, n),
                "resume at {k}"
            );
        }
    }

    #[test]
    fn snapshots_stay_small() {
        let (mut sys, _) = mvm_system(4);
        let _ = sys.run_cycles_bounded(100, 1_000_000);
        let snap = sys.snapshot();
        // 4 MiB DRAM + 256 KiB SPM, but only the workload footprint is
        // stored: firmware, operands, and a few result words.
        assert!(
            snap.approx_bytes() < 64 * 1024,
            "sparse snapshot too large: {} bytes",
            snap.approx_bytes()
        );
    }
}
