//! # neuropulsim-sim
//!
//! A gem5-MARVEL-style full-system simulator (paper §5, Fig. 3): a RISC-V
//! host CPU attached over a memory bus to DRAM, a scratchpad memory, a
//! DMA engine, and the memory-mapped photonic MVM accelerator, with
//! level-triggered completion interrupts and a fault-injection framework
//! for reliability analysis.
//!
//! - [`system`]: the platform, memory map, run loop and energy report;
//! - [`accel`]: the photonic Compute Unit + Communications Interface
//!   (MMRs, SPM operands, IRQ);
//! - [`dma`]: the block-transfer engine;
//! - [`ram`]: DRAM/SPM with access accounting;
//! - [`firmware`]: canned RISC-V programs — the software-MVM baseline,
//!   the accelerator-offload driver, and the ABFT-guarded fault-tolerant
//!   offload driver;
//! - [`guard`]: host-side helpers for the guarded offload protocol
//!   (checksum operands, structured fault record);
//! - [`fault`]: transient/permanent fault injection with the
//!   masked/SDC/crash/hang/detected taxonomy;
//! - [`checkpoint`]: full-system snapshot/restore;
//! - [`campaign`]: the checkpointed, parallel, statistical campaign
//!   engine with Wilson confidence intervals and JSON reporting;
//! - [`serve`]: the multi-accelerator fabric — a heterogeneous PE fleet
//!   behind an async serving front-end (admission queue, wavelength
//!   batcher, shard router, verified response join) with degraded-fleet
//!   fault semantics;
//! - [`loader`]: an ELF32 loader and Linux-flavored syscall shim so
//!   real RV32IM binaries run on the platform;
//! - [`fixed`]: the Q16.16 operand format;
//! - [`escape_json`]: the one string escape every hand-rolled JSON
//!   report in the workspace uses.
//!
//! # Examples
//!
//! Offload one MVM to the photonic accelerator:
//!
//! ```
//! use neuropulsim_linalg::RMatrix;
//! use neuropulsim_sim::firmware::{accel_offload, DramLayout};
//! use neuropulsim_sim::system::{RunOutcome, System};
//!
//! let n = 2;
//! let layout = DramLayout::default();
//! let mut sys = System::new();
//! sys.platform.pe_mut(0).load_matrix(&RMatrix::identity(n));
//! sys.write_fixed_vector(layout.x_addr, &[0.5, -0.25]);
//! sys.load_firmware_source(&accel_offload(n, 1, layout));
//! let report = sys.run(1_000_000);
//! assert!(matches!(report.outcome, RunOutcome::Halted(_)));
//! let y = sys.read_fixed_vector(layout.y_addr, n);
//! assert!((y[0] - 0.5).abs() < 1e-3);
//! ```

#![warn(missing_docs)]

pub mod accel;
pub mod cache;
pub mod campaign;
pub mod checkpoint;
pub mod dma;
pub mod fault;
pub mod firmware;
pub mod fixed;
pub mod guard;
pub mod loader;
pub mod ram;
pub mod serve;
pub mod system;

/// Escapes `s` for a JSON string literal: quotes, backslashes and
/// every control character (`\n` by name, the rest as `\u00XX`).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_escapes_every_control_character() {
        assert_eq!(
            escape_json("a\"b\\c\nd\te\rf\u{1}g"),
            "a\\\"b\\\\c\\nd\\u0009e\\u000df\\u0001g"
        );
    }
}
