//! Golden reference oracles and the differential conformance harness.
//!
//! Every optimized fast path in the workspace — the SoA/blocked matmul
//! kernels, [`CompiledMesh`](neuropulsim_core::program::CompiledMesh)
//! plans, the vectorized ABFT checksums, the trace-compiling RV32IM
//! interpreter with wfi fast-forward, and the array-of-neurons SNN
//! stepper — has a deliberately slow, obviously-correct counterpart in
//! this crate, mirrored from the spec rather than from the optimized
//! code. The [`harness`] module fuzzes fast path against oracle over
//! seeded random cases, shrinks any divergence to a minimal
//! reproducer, and emits a JSON [`harness::ConformanceReport`].
//!
//! Design rules for the oracles:
//!
//! - **Independence.** Reference implementations never call the fast
//!   paths they check. The RV32IM stepper has its own decoder; the mesh
//!   rebuild multiplies full dense two-level matrices; the ABFT check
//!   recomputes checksums with scalar loops.
//! - **Clarity over speed.** Straight-line scalar code, no caches, no
//!   blocking, no thread pools.
//! - **Spec-pinned tolerances.** Integer/state domains (RV32IM, SNN
//!   spikes, ABFT verdicts) must match bit-for-bit; floating-point
//!   domains carry a documented tolerance (see `TESTING.md` at the
//!   repository root).

#![warn(missing_docs)]

pub mod abft_ref;
pub mod decomp_ref;
pub mod harness;
pub mod linalg_ref;
pub mod pcm_ref;
pub mod rv32_matrix;
pub mod rv32_ref;
pub mod snn_ref;
