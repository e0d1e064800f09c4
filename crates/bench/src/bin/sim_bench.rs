//! Simulator-performance probe over three firmware workloads:
//!
//! - **gemm-offload** — DMA in → photonic doorbell → `wfi` → DMA out
//!   (the PR 4 headline workload: wfi fast-forward + bulk DMA);
//! - **gemm-software** — pure-software Q16.16 MVM (dispatch-dominated:
//!   the trace compiler's home turf);
//! - **gemm-cluster** — a work-queue GeMM sharded over a 3-PE fabric
//!   (MMIO polling loops, over PE jobs and polled DMA copies, that only
//!   the event-horizon bulk scheduler can retire in bulk; its
//!   `bulk_dma_ticks` counts the DMA ticks applied in bulk there).
//!
//! Each workload runs with the fast paths off (seed interpreter,
//! cycle-by-cycle `wfi`) and on (decoded-block cache + trace compiler +
//! `wfi` fast-forward + horizon scheduler); the software workload also
//! runs block-only (traces off) to isolate the trace layer's
//! contribution. Every mode pair is checked bit-identical before
//! anything is timed, and timed repetitions consume *prebuilt* systems
//! so only `System::run` sits inside the timed op.
//!
//! Deterministic facts (bit-identity, instruction/cycle counts, block
//! and trace counters) land in `payload`; wall-clock timings land in
//! `measurements` and the headline `speedup` in `derived`. CI's
//! determinism check compares `payload` only.
//!
//! Usage: `sim_bench [reps]` (default: 25 timed repetitions per mode).

use neuropulsim_bench::runner::{positional_args, Runner};
use neuropulsim_linalg::RMatrix;
use neuropulsim_riscv::block::PerfCounters;
use neuropulsim_sim::firmware::{accel_offload, cluster_offload, software_mvm, DramLayout};
use neuropulsim_sim::system::{RunReport, System};

const N: usize = 8;
const OFFLOAD_BATCH: usize = 1024;
const SOFTWARE_BATCH: usize = 24;
const CLUSTER_BATCH: usize = 256;
const MAX_CYCLES: u64 = 20_000_000;

/// Interpreter configuration under test.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Seed interpreter: no block cache, no traces, per-cycle `wfi`.
    Seed,
    /// Decoded-block cache only (traces off) — the PR 4 configuration.
    Block,
    /// Block cache + trace compiler + `wfi` fast-forward.
    Fast,
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Offload,
    Software,
    Cluster,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Offload => "gemm-offload",
            Workload::Software => "gemm-software",
            Workload::Cluster => "gemm-cluster",
        }
    }

    fn batch(self) -> usize {
        match self {
            Workload::Offload => OFFLOAD_BATCH,
            Workload::Software => SOFTWARE_BATCH,
            Workload::Cluster => CLUSTER_BATCH,
        }
    }
}

fn build_system(workload: Workload, mode: Mode) -> System {
    let layout = DramLayout::default();
    let batch = workload.batch();
    let w = RMatrix::from_fn(N, N, |i, j| 0.4 * ((i as f64 - j as f64) * 0.31).sin());
    let mut sys = System::new();
    sys.cpu.set_block_cache_enabled(mode != Mode::Seed);
    sys.cpu.set_trace_compiler_enabled(mode == Mode::Fast);
    for v in 0..batch {
        let x: Vec<f64> = (0..N)
            .map(|k| 0.2 * ((v * N + k) as f64 * 0.17).cos())
            .collect();
        sys.write_fixed_vector(layout.x_addr + (v * N * 4) as u32, &x);
    }
    match workload {
        Workload::Offload => {
            sys.platform.pe_mut(0).load_matrix(&w);
            sys.load_firmware_source(&accel_offload(N, batch, layout));
        }
        Workload::Software => {
            sys.write_fixed_vector(layout.w_addr, w.as_slice());
            sys.load_firmware_source(&software_mvm(N, batch, layout));
        }
        Workload::Cluster => {
            for _ in 0..2 {
                sys.platform.add_pe();
            }
            for k in 0..sys.platform.pe_count() {
                sys.platform.pe_mut(k).load_matrix(&w);
            }
            sys.load_firmware_source(&cluster_offload(N, batch, 3, 8, layout));
        }
    }
    sys
}

fn readout(sys: &System, words: usize) -> Vec<u32> {
    let layout = DramLayout::default();
    (0..words)
        .map(|k| {
            sys.platform
                .dram
                .peek(layout.y_addr + 4 * k as u32)
                .unwrap_or(0)
        })
        .collect()
}

/// One completed mode run: the report plus the final system state.
struct ModeRun {
    report: RunReport,
    sys: System,
}

fn run_mode(workload: Workload, mode: Mode) -> ModeRun {
    let mut sys = build_system(workload, mode);
    let report = sys.run(MAX_CYCLES);
    ModeRun { report, sys }
}

/// `true` when the two runs are observably identical: architectural CPU
/// state, the result region, and the memory access accounting.
fn identical(a: &ModeRun, b: &ModeRun, words: usize) -> bool {
    a.report == b.report
        && a.sys.cpu == b.sys.cpu
        && readout(&a.sys, words) == readout(&b.sys, words)
        && a.sys.platform.dram.reads == b.sys.platform.dram.reads
        && a.sys.platform.dram.writes == b.sys.platform.dram.writes
        && a.sys.platform.spm.reads == b.sys.platform.spm.reads
        && a.sys.platform.spm.writes == b.sys.platform.spm.writes
}

/// Times `reps` runs of `(workload, mode)`, consuming prebuilt systems
/// so the timed op is `System::run` alone. Returns the median ns. Each
/// rep is paired with its own calibration sample, so host-load drift
/// across the probe cancels out of `norm`.
fn time_runs(runner: &mut Runner, id: &str, reps: usize, workload: Workload, mode: Mode) -> f64 {
    let proto = build_system(workload, mode);
    let mut pool: Vec<System> = (0..reps).map(|_| proto.clone()).collect();
    let meta = [("max_cycles", format!("{MAX_CYCLES}"))];
    runner.measure_ratio_with_meta(id, reps, &meta, || {
        let mut sys = pool.pop().expect("one system per rep");
        std::hint::black_box(sys.run(MAX_CYCLES));
    })
}

fn payload_for(name: &str, fast: &ModeRun, perf: &PerfCounters) -> String {
    format!(
        "{{\"workload\": \"{name}\", \
         \"instructions_per_run\": {}, \
         \"cycles_per_run\": {}, \
         \"block_cache_hits\": {}, \
         \"block_cache_misses\": {}, \
         \"block_cache_hit_rate\": {:.4}, \
         \"block_conflict_evictions\": {}, \
         \"traces_compiled\": {}, \
         \"trace_hits\": {}, \
         \"trace_conflict_evictions\": {}, \
         \"trace_exits\": {{\"guard\": {}, \"end\": {}, \"budget\": {}, \
         \"mmio\": {}, \"invalidated\": {}}}, \
         \"bulk_dma_ticks\": {}}}",
        perf.instret,
        fast.report.cycles,
        perf.block_hits,
        perf.block_misses,
        perf.block_hit_rate(),
        perf.block_conflict_evictions,
        perf.traces_compiled,
        perf.trace_hits,
        perf.trace_conflict_evictions,
        perf.trace_exit_guard,
        perf.trace_exit_end,
        perf.trace_exit_budget,
        perf.trace_exit_mmio,
        perf.trace_exit_invalidated,
        fast.sys.bulk_dma_ticks,
    )
}

fn main() {
    let reps: usize = positional_args()
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(25)
        .max(1);
    let mut runner = Runner::new("sim_bench");

    let mut all_identical = true;
    let mut workload_payloads = Vec::new();
    let mut offload_ff_cycles = 0u64;

    for workload in [Workload::Offload, Workload::Software, Workload::Cluster] {
        let words = N * workload.batch();
        // Identity first: the fast paths must not change a single
        // observable bit of the simulation, workload by workload.
        let seed = run_mode(workload, Mode::Seed);
        let block = run_mode(workload, Mode::Block);
        let fast = run_mode(workload, Mode::Fast);
        let ok = identical(&seed, &fast, words) && identical(&seed, &block, words);
        if !ok {
            eprintln!(
                "sim_bench: {} diverged from the seed interpreter",
                workload.name()
            );
        }
        all_identical &= ok;

        let perf = fast.sys.cpu.perf_counters();
        let prefix = match workload {
            // Keep the PR 4-era ids for the offload pair so the
            // committed-baseline history stays comparable.
            Workload::Offload => "sim_run".to_string(),
            _ => format!("sim_{}", workload.name().trim_start_matches("gemm-")),
        };
        let baseline_ns = time_runs(
            &mut runner,
            &format!("{prefix}/baseline"),
            reps,
            workload,
            Mode::Seed,
        );
        let fast_ns = time_runs(
            &mut runner,
            &format!("{prefix}/fast"),
            reps,
            workload,
            Mode::Fast,
        );
        let instructions = perf.instret as f64;
        let key = workload.name().replace('-', "_");
        runner.derived(
            &format!("{key}_speedup"),
            format!("{:.2}", baseline_ns / fast_ns),
        );
        runner.derived(
            &format!("{key}_baseline_instructions_per_sec"),
            format!("{:.0}", instructions / (baseline_ns * 1e-9)),
        );
        runner.derived(
            &format!("{key}_fast_instructions_per_sec"),
            format!("{:.0}", instructions / (fast_ns * 1e-9)),
        );
        if workload == Workload::Software {
            // Block-only (traces off) isolates the trace compiler's
            // contribution on the dispatch-dominated workload.
            let block_ns = time_runs(
                &mut runner,
                "sim_software/block",
                reps,
                workload,
                Mode::Block,
            );
            runner.derived(
                &format!("{key}_trace_speedup_vs_block"),
                format!("{:.2}", block_ns / fast_ns),
            );
        }
        if workload == Workload::Offload {
            offload_ff_cycles = fast.sys.fast_forwarded_cycles;
            runner.derived("speedup", format!("{:.2}", baseline_ns / fast_ns));
        }
        workload_payloads.push(payload_for(workload.name(), &fast, &perf));
    }

    runner.payload(format!(
        "{{\"bit_identical\": {all_identical}, \
         \"fast_forwarded_cycles_per_run\": {offload_ff_cycles}, \
         \"workloads\": [{}]}}",
        workload_payloads.join(", ")
    ));
    print!("{}", runner.to_json());
    if !all_identical {
        std::process::exit(1);
    }
}
