//! Real-binary conformance runner: the named instruction matrix plus
//! the three ELF workloads, each checked instruction-for-instruction
//! against the reference hart, with a JSON report for CI artifacts.
//!
//! ```text
//! binaries_conformance [--matrix-budget N] [--elf-budget N]
//! ```
//!
//! Exits nonzero if any matrix case or any binary diverges, so CI
//! fails on the report it just uploaded.

use neuropulsim_oracle::rv32_matrix::{lockstep_elf, run_matrix};
use neuropulsim_sim::escape_json;
use neuropulsim_sim::loader::workloads;
use neuropulsim_sim::system::System;

struct BinaryResult {
    name: &'static str,
    ok: bool,
    detail: String,
    instructions: u64,
    syscalls: u64,
    trace_conflict_evictions: u64,
}

fn check_binary(
    name: &'static str,
    elf: &[u8],
    expected_stdout: &str,
    expected_exit: i32,
    budget: u64,
) -> BinaryResult {
    let fail = |detail: String| BinaryResult {
        name,
        ok: false,
        detail,
        instructions: 0,
        syscalls: 0,
        trace_conflict_evictions: 0,
    };
    // Oracle lockstep first: any ISA-level divergence surfaces with the
    // exact instruction index.
    let lockstep = match lockstep_elf(elf, budget) {
        Ok(l) => l,
        Err(e) => return fail(format!("lockstep: {e}")),
    };
    if lockstep.exit_code != expected_exit {
        return fail(format!(
            "lockstep exit {} != expected {expected_exit}",
            lockstep.exit_code
        ));
    }
    if lockstep.stdout != expected_stdout.as_bytes() {
        return fail(format!(
            "lockstep stdout {:?} != expected {expected_stdout:?}",
            String::from_utf8_lossy(&lockstep.stdout)
        ));
    }
    // Then the full system with every fast path engaged.
    let mut sys = System::new();
    match sys.run_elf(elf, budget) {
        Ok(run) => {
            if run.exit_code != Some(expected_exit) || run.stdout != lockstep.stdout {
                return fail(format!(
                    "system run disagrees: exit {:?}, stdout {:?}",
                    run.exit_code,
                    String::from_utf8_lossy(&run.stdout)
                ));
            }
        }
        Err(e) => return fail(format!("system load: {e}")),
    }
    let perf = sys.cpu.perf_counters();
    BinaryResult {
        name,
        ok: true,
        detail: format!("exit={expected_exit} stdout={expected_stdout:?}"),
        instructions: lockstep.instructions,
        syscalls: lockstep.syscalls,
        trace_conflict_evictions: perf.trace_conflict_evictions,
    }
}

fn main() {
    let mut matrix_budget: u64 = 100_000;
    let mut elf_budget: u64 = 10_000_000;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().and_then(|v| v.parse().ok());
        match flag.as_str() {
            "--matrix-budget" => matrix_budget = value.unwrap_or(matrix_budget),
            "--elf-budget" => elf_budget = value.unwrap_or(elf_budget),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let matrix = run_matrix(matrix_budget);

    let primes = workloads::sieve_model();
    let (sort_sum, sort_exit) = workloads::sort_model();
    let (crc, crc_exit) = workloads::crc_model();
    let binaries = [
        check_binary(
            "sieve",
            &workloads::sieve_elf(),
            &format!("primes={primes}\n"),
            primes as i32,
            elf_budget,
        ),
        check_binary(
            "sort",
            &workloads::sort_elf(),
            &format!("sorted={sort_sum}\n"),
            sort_exit,
            elf_budget,
        ),
        check_binary(
            "crc32",
            &workloads::crc_elf(),
            &format!("crc={crc}\n"),
            crc_exit,
            elf_budget,
        ),
    ];

    let matrix_failures: Vec<String> = matrix
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape_json(f)))
        .collect();
    let binary_json: Vec<String> = binaries
        .iter()
        .map(|b| {
            format!(
                "{{\"name\": \"{}\", \"ok\": {}, \"instructions\": {}, \
                 \"syscalls\": {}, \"trace_conflict_evictions\": {}, \
                 \"detail\": \"{}\"}}",
                b.name,
                b.ok,
                b.instructions,
                b.syscalls,
                b.trace_conflict_evictions,
                escape_json(&b.detail)
            )
        })
        .collect();
    let failed_binaries = binaries.iter().filter(|b| !b.ok).count();
    println!(
        "{{\n  \"schema\": \"neuropulsim-binaries-conformance/v1\",\n  \
         \"matrix_cases\": {},\n  \"matrix_instructions\": {},\n  \
         \"matrix_failures\": [{}],\n  \"binaries\": [{}],\n  \
         \"failed\": {}\n}}",
        matrix.total,
        matrix.instructions,
        matrix_failures.join(", "),
        binary_json.join(", "),
        matrix.failures.len() + failed_binaries
    );
    if !matrix.failures.is_empty() || failed_binaries > 0 {
        std::process::exit(1);
    }
}
