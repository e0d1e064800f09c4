//! The differential conformance harness: seeded random cases per
//! domain, fast path and oracle run side by side, divergences shrunk
//! to a minimal reproducer, results emitted as a JSON
//! [`ConformanceReport`].
//!
//! Determinism contract: the report depends only on `(seed, cases,
//! domains, inject)`. Case seeds derive from [`split_seed`], cases run
//! through the order-preserving [`par_map_indexed`], and aggregation is
//! sequential, so the JSON is byte-identical across runs and thread
//! counts.

use crate::{abft_ref, decomp_ref, linalg_ref, pcm_ref, rv32_ref, snn_ref};
use neuropulsim_core::abft::AbftWeights;
use neuropulsim_core::architecture::MeshArchitecture;
use neuropulsim_core::layered::LayeredMesh;
use neuropulsim_core::program::{MeshProgram, MeshScratch, MziBlock};
use neuropulsim_core::{clements, reck};
use neuropulsim_linalg::parallel::{available_threads, par_map_indexed, split_seed};
use neuropulsim_linalg::random::haar_unitary;
use neuropulsim_linalg::{soa, CMatrix, CVector, RMatrix, C64};
use neuropulsim_photonics::pcm::{transmission_levels, PcmCell, PcmMaterial};
use neuropulsim_riscv::bus::{Bus, FlatMemory};
use neuropulsim_riscv::cpu::{Cpu, Halt, Trap};
use neuropulsim_riscv::isa::{encode, Instruction};
use neuropulsim_riscv::trace::HOT_THRESHOLD;
use neuropulsim_sim::escape_json;
use neuropulsim_snn::neuron::lif_update;
use neuropulsim_snn::sparse::{EventNet, NetSpec, SERIAL_TICK_WORK};
use neuropulsim_snn::stdp::StdpRule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The eight fast-path domains covered by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// SoA/blocked complex matmul and mat–vec kernels vs the naive
    /// triple loop.
    Matmul,
    /// Mesh application (`apply`/`CompiledMesh`/`transfer_matrix`) and
    /// Clements/Reck decompositions vs dense two-level rebuilds.
    Mesh,
    /// Vectorized Huang–Abraham ABFT encode/check/correct vs the
    /// scalar reference.
    Abft,
    /// Decoded-block RV32IM interpreter vs the single-instruction
    /// reference stepper (bit-exact).
    Riscv,
    /// Array-of-neurons LIF/STDP steppers vs scalar references
    /// (bit-exact).
    Snn,
    /// PCM level quantization, effective index, and drift vs
    /// independent reference curves.
    Pcm,
    /// Event-driven sparse SNN engine (CSR + fire queue + lazy leak)
    /// vs the eager edge-list reference simulator (bit-exact).
    SnnSparse,
    /// The mesh zoo: all four [`MeshArchitecture`]s (Clements, compacted
    /// Clements, Fldzhyan layered, Reck) vs their dense golden
    /// reconstructions, plus bit-identity of the blocked apply kernels
    /// against the oracle per-block plan ([`decomp_ref::PerBlockPlan`])
    /// and of the layered mesh's batch apply against its single apply.
    MeshZoo,
}

impl Domain {
    /// All domains, in canonical report order.
    pub fn all() -> [Domain; 8] {
        [
            Domain::Matmul,
            Domain::Mesh,
            Domain::Abft,
            Domain::Riscv,
            Domain::Snn,
            Domain::Pcm,
            Domain::SnnSparse,
            Domain::MeshZoo,
        ]
    }

    /// Stable lowercase name used in JSON and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Matmul => "matmul",
            Domain::Mesh => "mesh",
            Domain::Abft => "abft",
            Domain::Riscv => "riscv",
            Domain::Snn => "snn",
            Domain::Pcm => "pcm",
            Domain::SnnSparse => "snn_sparse",
            Domain::MeshZoo => "mesh_zoo",
        }
    }

    /// Parses a CLI domain name.
    pub fn parse(s: &str) -> Option<Domain> {
        Domain::all().into_iter().find(|d| d.name() == s)
    }

    /// Documented absolute tolerance for the domain; `0.0` means the
    /// domain must match bit-for-bit.
    pub fn tolerance(self) -> f64 {
        match self {
            Domain::Matmul => 1e-10,
            Domain::Mesh => 1e-8,
            Domain::Abft => 1e-9,
            Domain::Riscv => 0.0,
            Domain::Snn => 0.0,
            Domain::Pcm => 1e-12,
            Domain::SnnSparse => 0.0,
            Domain::MeshZoo => 1e-8,
        }
    }

    /// Smallest meaningful case size, the floor for shrinking.
    pub fn min_size(self) -> usize {
        match self {
            Domain::Matmul => 1,
            Domain::Mesh => 2,
            Domain::Abft => 2,
            Domain::Riscv => 4,
            Domain::Snn => 1,
            Domain::Pcm => 2,
            Domain::SnnSparse => 2,
            Domain::MeshZoo => 2,
        }
    }

    /// Largest generated case size (matrix order, program length,
    /// neuron count, level count).
    pub fn max_size(self) -> usize {
        match self {
            Domain::Matmul => 12,
            Domain::Mesh => 10,
            Domain::Abft => 12,
            Domain::Riscv => 160,
            Domain::Snn => 24,
            Domain::Pcm => 48,
            Domain::SnnSparse => 28,
            Domain::MeshZoo => 10,
        }
    }

    /// Canonical index, used to derive the per-domain seed so that a
    /// single-domain run reproduces exactly the cases of a full run.
    fn index(self) -> u64 {
        Domain::all().iter().position(|d| *d == self).unwrap() as u64
    }
}

/// Result of one fast-vs-oracle case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The size the case actually ran at.
    pub size: usize,
    /// Worst absolute error observed (0 for bit-exact domains).
    pub error: f64,
    /// `Some(description)` if fast path and oracle diverged.
    pub divergence: Option<String>,
}

impl CaseOutcome {
    fn pass(size: usize, error: f64) -> CaseOutcome {
        CaseOutcome {
            size,
            error,
            divergence: None,
        }
    }

    fn diverged(size: usize, error: f64, detail: String) -> CaseOutcome {
        CaseOutcome {
            size,
            error,
            divergence: Some(detail),
        }
    }
}

/// A divergent case shrunk to its smallest reproducing size.
#[derive(Debug, Clone)]
pub struct ShrunkRepro {
    /// Index of the case within its domain.
    pub case_index: usize,
    /// The per-case RNG seed; rerunning the domain case with this seed
    /// at `shrunk_size` reproduces the divergence.
    pub case_seed: u64,
    /// Size the divergence was first observed at.
    pub original_size: usize,
    /// Smallest size (≥ the domain minimum) that still diverges with
    /// the same case seed.
    pub shrunk_size: usize,
    /// Human-readable description from the shrunk run.
    pub detail: String,
}

/// Per-domain aggregate results.
#[derive(Debug, Clone)]
pub struct DomainReport {
    /// The domain.
    pub domain: Domain,
    /// Cases run.
    pub cases: usize,
    /// Cases where fast path and oracle agreed.
    pub passes: usize,
    /// Cases that diverged.
    pub divergences: usize,
    /// Worst absolute error across all cases.
    pub worst_error: f64,
    /// Shrunk reproducers (capped at [`MAX_REPROS`]).
    pub repros: Vec<ShrunkRepro>,
}

/// Upper bound on shrunk reproducers kept per domain.
pub const MAX_REPROS: usize = 5;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Master seed; every case seed derives from it via `split_seed`.
    pub seed: u64,
    /// Cases per domain.
    pub cases: usize,
    /// Domains to run (canonical order recommended).
    pub domains: Vec<Domain>,
    /// If set, a deliberate perturbation is applied to that domain's
    /// fast-path results, to prove the harness detects and shrinks
    /// real divergences.
    pub inject: Option<Domain>,
}

impl ConformanceConfig {
    /// All domains with the given seed and case count, no injection.
    pub fn new(seed: u64, cases: usize) -> Self {
        ConformanceConfig {
            seed,
            cases,
            domains: Domain::all().to_vec(),
            inject: None,
        }
    }
}

/// The full conformance run result.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Cases per domain.
    pub cases_per_domain: usize,
    /// Sum of divergences across domains.
    pub total_divergences: usize,
    /// Per-domain aggregates, in canonical order.
    pub domains: Vec<DomainReport>,
}

impl ConformanceReport {
    /// Serializes the report as deterministic JSON (stable key order,
    /// `{:e}` float formatting, no timing or thread-count fields).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"cases_per_domain\": {},\n",
            self.cases_per_domain
        ));
        s.push_str(&format!(
            "  \"total_cases\": {},\n",
            self.cases_per_domain * self.domains.len()
        ));
        s.push_str(&format!(
            "  \"total_divergences\": {},\n",
            self.total_divergences
        ));
        s.push_str("  \"domains\": [\n");
        for (k, d) in self.domains.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", d.domain.name()));
            s.push_str(&format!("      \"cases\": {},\n", d.cases));
            s.push_str(&format!("      \"passes\": {},\n", d.passes));
            s.push_str(&format!("      \"divergences\": {},\n", d.divergences));
            s.push_str(&format!(
                "      \"tolerance\": {:e},\n",
                d.domain.tolerance()
            ));
            s.push_str(&format!(
                "      \"bit_exact\": {},\n",
                d.domain.tolerance() == 0.0
            ));
            s.push_str(&format!("      \"worst_error\": {:e},\n", d.worst_error));
            s.push_str("      \"repros\": [");
            for (j, r) in d.repros.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\n        {{\"case_index\": {}, \"case_seed\": {}, \"original_size\": {}, \"shrunk_size\": {}, \"detail\": \"{}\"}}",
                    r.case_index,
                    r.case_seed,
                    r.original_size,
                    r.shrunk_size,
                    escape_json(&r.detail)
                ));
            }
            if d.repros.is_empty() {
                s.push(']');
            } else {
                s.push_str("\n      ]");
            }
            s.push('\n');
            s.push_str(if k + 1 < self.domains.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Runs one case of `domain` with `case_seed`. `size_override` forces
/// the case size (used by shrinking); the RNG stream still consumes the
/// size draw first so the rest of the case derives identically.
pub fn run_case(
    domain: Domain,
    case_seed: u64,
    size_override: Option<usize>,
    inject: bool,
) -> CaseOutcome {
    match domain {
        Domain::Matmul => matmul_case(case_seed, size_override, inject),
        Domain::Mesh => mesh_case(case_seed, size_override, inject),
        Domain::Abft => abft_case(case_seed, size_override, inject),
        Domain::Riscv => riscv_case(case_seed, size_override, inject),
        Domain::Snn => snn_case(case_seed, size_override, inject),
        Domain::Pcm => pcm_case(case_seed, size_override, inject),
        Domain::SnnSparse => snn_sparse_case(case_seed, size_override, inject),
        Domain::MeshZoo => mesh_zoo_case(case_seed, size_override, inject),
    }
}

fn draw_size(rng: &mut StdRng, domain: Domain, size_override: Option<usize>) -> usize {
    let drawn = rng.gen_range(domain.min_size()..=domain.max_size());
    size_override.unwrap_or(drawn)
}

fn random_cmatrix(rng: &mut StdRng, n: usize) -> CMatrix {
    let mut m = CMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        }
    }
    m
}

fn random_cvector(rng: &mut StdRng, n: usize) -> CVector {
    let mut v = CVector::zeros(n);
    for i in 0..n {
        v[i] = C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
    }
    v
}

// ---------------------------------------------------------------- matmul

fn matmul_case(case_seed: u64, size_override: Option<usize>, inject: bool) -> CaseOutcome {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let n = draw_size(&mut rng, Domain::Matmul, size_override);
    let tol = Domain::Matmul.tolerance();
    let a = random_cmatrix(&mut rng, n);
    let b = random_cmatrix(&mut rng, n);
    let x = random_cvector(&mut rng, n);

    let golden = linalg_ref::mul_mat_ref(&a, &b);
    let golden_y = linalg_ref::mul_vec_ref(&a, &x);

    let mut fast_soa = soa::mul_mat(&a, &b);
    if inject {
        fast_soa[(0, 0)] += C64::new(50.0 * tol, 0.0);
    }
    let fast_method = a.mul_mat(&b);
    let fast_y = a.mul_vec(&x);

    let e_soa = linalg_ref::max_entry_error(&fast_soa, &golden);
    let e_method = linalg_ref::max_entry_error(&fast_method, &golden);
    let e_vec = linalg_ref::max_vec_error(&fast_y, &golden_y);
    let worst = e_soa.max(e_method).max(e_vec);
    if worst > tol {
        let which = if e_soa >= e_method && e_soa >= e_vec {
            "soa::mul_mat"
        } else if e_method >= e_vec {
            "CMatrix::mul_mat"
        } else {
            "CMatrix::mul_vec"
        };
        return CaseOutcome::diverged(
            n,
            worst,
            format!("matmul n={n}: {which} error {worst:e} exceeds tol {tol:e}"),
        );
    }
    CaseOutcome::pass(n, worst)
}

// ------------------------------------------------------------------ mesh

fn random_mesh_program(rng: &mut StdRng, n: usize) -> MeshProgram {
    let block_count = n * (n - 1) / 2;
    let pi = std::f64::consts::PI;
    let blocks: Vec<MziBlock> = (0..block_count)
        .map(|_| MziBlock {
            mode: rng.gen_range(0..n - 1),
            theta: rng.gen_range(0.0..pi),
            phi: rng.gen_range(-pi..pi),
        })
        .collect();
    let phases: Vec<f64> = (0..n).map(|_| rng.gen_range(-pi..pi)).collect();
    MeshProgram::new(n, blocks, phases)
}

fn mesh_case(case_seed: u64, size_override: Option<usize>, inject: bool) -> CaseOutcome {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let n = draw_size(&mut rng, Domain::Mesh, size_override);
    let tol = Domain::Mesh.tolerance();
    let program = random_mesh_program(&mut rng, n);
    let x = random_cvector(&mut rng, n);

    let golden_u = decomp_ref::transfer_matrix_ref(&program);
    let golden_y = linalg_ref::mul_vec_ref(&golden_u, &x);

    // Two fast application paths and the fast transfer matrix against
    // the dense rebuild.
    let mut fast_apply = program.apply(&x);
    if inject {
        fast_apply[0] += C64::new(100.0 * tol, 0.0);
    }
    let mut buf: Vec<C64> = x.as_slice().to_vec();
    program
        .compile()
        .apply_in_place(&mut buf, &mut MeshScratch::new());
    let fast_u = program.transfer_matrix();

    let e_apply = linalg_ref::max_vec_error(&fast_apply, &golden_y);
    let mut e_inplace = 0.0f64;
    for i in 0..n {
        e_inplace = e_inplace.max((buf[i] - golden_y[i]).abs());
    }
    let e_u = linalg_ref::max_entry_error(&fast_u, &golden_u);

    // Decomposition round-trips: fast decompose, dense oracle rebuild.
    let u = haar_unitary(&mut rng, n);
    let e_clements = linalg_ref::max_entry_error(
        &decomp_ref::transfer_matrix_ref(&clements::decompose(&u)),
        &u,
    );
    let e_reck =
        linalg_ref::max_entry_error(&decomp_ref::transfer_matrix_ref(&reck::decompose(&u)), &u);

    let worst = e_apply.max(e_inplace).max(e_u).max(e_clements).max(e_reck);
    if worst > tol {
        let labels = [
            ("MeshProgram::apply", e_apply),
            ("CompiledMesh::apply_in_place", e_inplace),
            ("MeshProgram::transfer_matrix", e_u),
            ("clements::decompose round-trip", e_clements),
            ("reck::decompose round-trip", e_reck),
        ];
        let which = labels.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
        return CaseOutcome::diverged(
            n,
            worst,
            format!("mesh n={n}: {which} error {worst:e} exceeds tol {tol:e}"),
        );
    }
    CaseOutcome::pass(n, worst)
}

// -------------------------------------------------------------- mesh zoo

/// Worst absolute entry error between a raw buffer and a golden vector.
fn max_slice_error(a: &[C64], golden: &CVector) -> f64 {
    let mut worst = 0.0f64;
    for (i, &v) in a.iter().enumerate() {
        worst = worst.max((v - golden[i]).abs());
    }
    worst
}

/// Bit-for-bit equality of two complex buffers.
fn bits_equal(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// A bit-identity failure: the leg that differs, what it must equal,
/// and its error against the golden output.
type BitFailure = (&'static str, &'static str, f64);

/// Named error legs plus an optional bit-identity failure.
type ZooLegs = (Vec<(&'static str, f64)>, Option<BitFailure>);

/// One mesh-zoo case: draw an architecture, realize a mesh on it,
/// compare the fast transfer matrix and the compiled apply kernel
/// against the dense golden reconstruction, and require the blocked
/// kernel to be *bit-identical* to the oracle per-block plan (batch vs
/// single apply for the layered mesh, which has no per-block plan).
fn mesh_zoo_case(case_seed: u64, size_override: Option<usize>, inject: bool) -> CaseOutcome {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let n = draw_size(&mut rng, Domain::MeshZoo, size_override);
    let tol = Domain::MeshZoo.tolerance();
    let arch = MeshArchitecture::ALL[rng.gen_range(0..MeshArchitecture::ALL.len())];
    let x = random_cvector(&mut rng, n);
    let mut scratch = MeshScratch::new();

    let (legs, bit_failure): ZooLegs = match arch {
        MeshArchitecture::Clements | MeshArchitecture::Reck => {
            let target = haar_unitary(&mut rng, n);
            let program = if arch == MeshArchitecture::Reck {
                reck::decompose(&target)
            } else {
                clements::decompose(&target)
            };
            let golden_u = decomp_ref::transfer_matrix_ref(&program);
            let golden_y = linalg_ref::mul_vec_ref(&golden_u, &x);
            let mut per_block: Vec<C64> = x.as_slice().to_vec();
            decomp_ref::PerBlockPlan::new(&program).apply_in_place(&mut per_block);
            let mut blocked: Vec<C64> = x.as_slice().to_vec();
            program.compile().apply_in_place(&mut blocked, &mut scratch);
            if inject {
                blocked[0] += C64::new(100.0 * tol, 0.0);
            }
            let e_u = linalg_ref::max_entry_error(&program.transfer_matrix(), &golden_u);
            let e_round = linalg_ref::max_entry_error(&golden_u, &target);
            let e_blocked = max_slice_error(&blocked, &golden_y);
            let bits = (!bits_equal(&per_block, &blocked)).then(|| {
                (
                    "blocked apply",
                    "the per-block path",
                    max_slice_error(&blocked, &golden_y),
                )
            });
            (
                vec![
                    ("transfer_matrix", e_u),
                    ("decompose round-trip", e_round),
                    ("blocked apply", e_blocked),
                ],
                bits,
            )
        }
        MeshArchitecture::ClementsCompact => {
            let target = haar_unitary(&mut rng, n);
            let program = clements::decompose(&target);
            let golden_u = decomp_ref::compact_transfer_matrix_ref(&program);
            let golden_y = linalg_ref::mul_vec_ref(&golden_u, &x);
            let mut per_block: Vec<C64> = x.as_slice().to_vec();
            decomp_ref::PerBlockPlan::compact(&program).apply_in_place(&mut per_block);
            let mut blocked: Vec<C64> = x.as_slice().to_vec();
            program
                .compile_compact()
                .apply_in_place(&mut blocked, &mut scratch);
            if inject {
                blocked[0] += C64::new(100.0 * tol, 0.0);
            }
            let fast_u = program.transfer_matrix_compact();
            let e_u = linalg_ref::max_entry_error(&fast_u, &golden_u);
            // A compacted mesh must realize the same matrix as the
            // plain rectangular mesh for the same program.
            let e_equiv = linalg_ref::max_entry_error(&fast_u, &program.transfer_matrix());
            let e_blocked = max_slice_error(&blocked, &golden_y);
            let bits = (!bits_equal(&per_block, &blocked)).then(|| {
                (
                    "blocked compact apply",
                    "the per-block path",
                    max_slice_error(&blocked, &golden_y),
                )
            });
            (
                vec![
                    ("transfer_matrix_compact", e_u),
                    ("compact-vs-plain equivalence", e_equiv),
                    ("blocked compact apply", e_blocked),
                ],
                bits,
            )
        }
        MeshArchitecture::Fldzhyan => {
            let mut mesh = LayeredMesh::universal(n);
            mesh.randomize_phases(&mut rng);
            mesh.perturb_couplers(&mut rng, 0.1);
            let golden_u = decomp_ref::layered_transfer_matrix_ref(&mesh);
            let golden_y = linalg_ref::mul_vec_ref(&golden_u, &x);
            let compiled = mesh.compile();
            let mut single: Vec<C64> = x.as_slice().to_vec();
            compiled.apply_in_place(&mut single, &mut scratch);
            if inject {
                single[0] += C64::new(100.0 * tol, 0.0);
            }
            // Batch apply on two copies must match the single-vector
            // path bit-for-bit, column by column.
            let mut batch: Vec<C64> = x.as_slice().to_vec();
            batch.extend_from_slice(x.as_slice());
            compiled.apply_batch(&mut batch, &mut scratch);
            let e_u = linalg_ref::max_entry_error(&mesh.transfer_matrix(), &golden_u);
            let e_single = max_slice_error(&single, &golden_y);
            let bits = (!bits_equal(&batch[..n], &single) || !bits_equal(&batch[n..], &single))
                .then(|| {
                    (
                        "compiled batch apply",
                        "the compiled single apply",
                        max_slice_error(&batch[..n], &golden_y),
                    )
                });
            (
                vec![
                    ("LayeredMesh::transfer_matrix", e_u),
                    ("compiled apply", e_single),
                ],
                bits,
            )
        }
    };

    let worst = legs.iter().map(|l| l.1).fold(0.0f64, f64::max);
    if let Some((what, reference, e_bits)) = bit_failure {
        let worst = worst.max(e_bits);
        return CaseOutcome::diverged(
            n,
            worst,
            format!(
                "mesh_zoo n={n} {}: {what} not bit-identical to {reference} (error {worst:e})",
                arch.name()
            ),
        );
    }
    if worst > tol {
        let which = legs.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
        return CaseOutcome::diverged(
            n,
            worst,
            format!(
                "mesh_zoo n={n} {}: {which} error {worst:e} exceeds tol {tol:e}",
                arch.name()
            ),
        );
    }
    CaseOutcome::pass(n, worst)
}

// ------------------------------------------------------------------ abft

/// Verdict comparison key: discriminant plus located row (delta is
/// compared numerically, not exactly).
fn fast_verdict_key(v: &neuropulsim_core::abft::ColumnCheck) -> (u8, usize, f64) {
    use neuropulsim_core::abft::ColumnCheck::*;
    match v {
        Clean => (0, 0, 0.0),
        Correctable { row, delta } => (1, *row, *delta),
        Corrupt => (2, 0, 0.0),
    }
}

fn ref_verdict_key(v: &abft_ref::RefVerdict) -> (u8, usize, f64) {
    match v {
        abft_ref::RefVerdict::Clean => (0, 0, 0.0),
        abft_ref::RefVerdict::Correctable { row, delta } => (1, *row, *delta),
        abft_ref::RefVerdict::Corrupt => (2, 0, 0.0),
    }
}

fn abft_case(case_seed: u64, size_override: Option<usize>, inject: bool) -> CaseOutcome {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let n = draw_size(&mut rng, Domain::Abft, size_override);
    let tol = Domain::Abft.tolerance();
    // Verdict threshold: far above FP noise, far below injected errors.
    let check_tol = 1e-6;

    let vals: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let w = RMatrix::from_rows(n, n, &vals);
    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

    let weights = AbftWeights::new(&w);
    let golden = abft_ref::RefChecksums::new(&w);

    // Checksum rows and expected sums must agree numerically.
    let mut worst = 0.0f64;
    for j in 0..n {
        worst = worst.max((weights.plain()[j] - golden.plain()[j]).abs());
        worst = worst.max((weights.weighted()[j] - golden.weighted()[j]).abs());
    }
    let (c_f, cw_f) = weights.expected(&x);
    let (c_g, cw_g) = golden.expected(&x);
    worst = worst.max((c_f - c_g).abs()).max((cw_f - cw_g).abs());

    let y_clean = w.mul_vec(&x);
    let mut y = y_clean.clone();
    let variant = rng.gen_range(0u32..3);
    let mut rows = Vec::new();
    match variant {
        0 => {}
        1 => {
            let row = rng.gen_range(0..n);
            let mag = rng.gen_range(0.25..1.0);
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            y[row] += sign * mag;
            rows.push(row);
        }
        _ => {
            let r1 = rng.gen_range(0..n);
            let r2 = (r1 + 1 + rng.gen_range(0..n - 1)) % n;
            for r in [r1, r2] {
                let mag = rng.gen_range(0.25..1.0);
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                y[r] += sign * mag;
                rows.push(r);
            }
        }
    }

    let fast_v = weights.check(&x, &y, check_tol);
    let golden_v = golden.check(&x, &y, check_tol);
    let (mut fk, fr, fd) = fast_verdict_key(&fast_v);
    let (gk, gr, gd) = ref_verdict_key(&golden_v);
    if inject {
        fk = 0; // pretend the fast check always reports clean
    }
    if fk != gk || (fk == 1 && fr != gr) {
        return CaseOutcome::diverged(
            n,
            worst,
            format!("abft n={n} variant={variant}: fast verdict {fk}/{fr} vs oracle {gk}/{gr}"),
        );
    }
    if fk == 1 {
        worst = worst.max((fd - gd).abs());
        // Single corruption: both sides must land on the corrupted row
        // and correction must restore the clean product.
        if variant == 1 && fr != rows[0] {
            return CaseOutcome::diverged(
                n,
                worst,
                format!("abft n={n}: located row {fr}, corrupted row {}", rows[0]),
            );
        }
        if variant == 1 {
            let mut fixed = y.clone();
            weights.correct(&mut fixed, &fast_v);
            for i in 0..n {
                worst = worst.max((fixed[i] - y_clean[i]).abs());
            }
        }
    }
    if variant > 0 && fk == 0 {
        return CaseOutcome::diverged(
            n,
            worst,
            format!("abft n={n}: corruption of rows {rows:?} reported clean"),
        );
    }
    if worst > tol {
        return CaseOutcome::diverged(
            n,
            worst,
            format!("abft n={n}: numeric error {worst:e} exceeds tol {tol:e}"),
        );
    }
    CaseOutcome::pass(n, worst)
}

// ----------------------------------------------------------------- riscv

/// RAM size for conformance programs; the data window lives in
/// `[1024, 2048)` and programs occupy the bottom.
const RV_MEM_BYTES: usize = 4096;
/// Cycle budget per program.
const RV_BUDGET: u64 = 50_000;
/// The loop counter: the generator draws every other register below 16,
/// so the body never touches it.
const RV_LOOP_REG: u8 = 31;
/// Body iterations: the loop head sees [`HOT_THRESHOLD`] block entries,
/// compiles a trace and then runs several passes of it.
const RV_LOOP_ITERS: i32 = HOT_THRESHOLD as i32 + 4;
/// Body iterations of the long loops, which [`RV_BUDGET`] cuts inside a
/// trace unless the body is very short.
const RV_LONG_LOOP_ITERS: i32 = 2047;

/// Seeded random RV32IM program: a body of `len` ops — ALU/mul/div mix,
/// loads and stores in a fixed data window, forward branches, CSR reads
/// of `mcycle`/`minstret`/`mscratch`, in one program in four loads that
/// may trap off a random base, in another one in four loads that trap
/// off the loop counter in a late iteration — run in a counted loop on
/// `x31` so the trace tier compiles it, then occasionally a `wfi`,
/// always a final `ecall`. One case in eight runs the long loop.
fn random_rv_program(rng: &mut StdRng, len: usize) -> Vec<u32> {
    use Instruction as I;
    let mut words = Vec::with_capacity(len + 4);
    let wfi = rng.gen_bool(0.125);
    let iters = if rng.gen_bool(0.125) {
        RV_LONG_LOOP_ITERS
    } else {
        RV_LOOP_ITERS
    };
    // Which loads may fault, drawn once per program (see op 14).
    let trap_loads = rng.gen_range(0u32..4);
    words.push(encode(I::Addi {
        rd: RV_LOOP_REG,
        rs1: 0,
        imm: iters,
    }));
    for k in 0..len {
        let rd = rng.gen_range(1u8..16);
        let rs1 = rng.gen_range(0u8..16);
        let rs2 = rng.gen_range(0u8..16);
        let inst = match rng.gen_range(0u32..16) {
            0 => I::Addi {
                rd,
                rs1,
                imm: rng.gen_range(-2048..2048),
            },
            1 => I::Add { rd, rs1, rs2 },
            2 => I::Sub { rd, rs1, rs2 },
            3 => I::Xor { rd, rs1, rs2 },
            4 => I::Mul { rd, rs1, rs2 },
            5 => I::Slli {
                rd,
                rs1,
                shamt: rng.gen_range(0u8..32),
            },
            6 => I::Sltu { rd, rs1, rs2 },
            7 => I::Sw {
                rs1: 0,
                rs2,
                offset: 1024 + 4 * rng.gen_range(0i32..224),
            },
            8 => I::Lw {
                rd,
                rs1: 0,
                offset: 1024 + 4 * rng.gen_range(0i32..224),
            },
            9 => {
                if k + 2 < len {
                    if rng.gen_bool(0.5) {
                        I::Beq {
                            rs1,
                            rs2,
                            offset: 8,
                        }
                    } else {
                        I::Bne {
                            rs1,
                            rs2,
                            offset: 8,
                        }
                    }
                } else {
                    I::Addi { rd, rs1, imm: 1 }
                }
            }
            10 => {
                if rng.gen_bool(0.5) {
                    I::Div { rd, rs1, rs2 }
                } else {
                    I::Rem { rd, rs1, rs2 }
                }
            }
            11 => {
                if rng.gen_bool(0.5) {
                    I::Srai {
                        rd,
                        rs1,
                        shamt: rng.gen_range(0u8..32),
                    }
                } else {
                    I::Sra { rd, rs1, rs2 }
                }
            }
            12 => match rng.gen_range(0u32..4) {
                0 => I::Csrrs {
                    rd,
                    rs1: 0,
                    csr: 0xB00,
                },
                1 => I::Csrrs {
                    rd,
                    rs1: 0,
                    csr: 0xB02,
                },
                2 => I::Csrrs {
                    rd,
                    rs1: 0,
                    csr: 0x340,
                },
                _ => I::Csrrw {
                    rd,
                    rs1,
                    csr: 0x340,
                },
            },
            13 => {
                if rng.gen_bool(0.5) {
                    I::Sb {
                        rs1: 0,
                        rs2,
                        offset: 1024 + rng.gen_range(0i32..896),
                    }
                } else {
                    I::Lbu {
                        rd,
                        rs1: 0,
                        offset: 1024 + rng.gen_range(0i32..896),
                    }
                }
            }
            // Loads that may fault — traps must match exactly.
            14 => match trap_loads {
                // Off a random base: may trap on the first pass.
                0 => I::Lw {
                    rd,
                    rs1,
                    offset: rng.gen_range(-64i32..64) & !3,
                },
                // Off the loop counter: faults once the counter drops
                // below the offset's magnitude, in a traced iteration.
                1 => I::Lw {
                    rd,
                    rs1: RV_LOOP_REG,
                    offset: -rng.gen_range(2i32..5),
                },
                _ => I::Lw {
                    rd,
                    rs1: 0,
                    offset: 1024 + 4 * rng.gen_range(0i32..224),
                },
            },
            _ => I::Mulhu { rd, rs1, rs2 },
        };
        words.push(encode(inst));
    }
    words.push(encode(I::Addi {
        rd: RV_LOOP_REG,
        rs1: RV_LOOP_REG,
        imm: -1,
    }));
    words.push(encode(I::Bne {
        rs1: RV_LOOP_REG,
        rs2: 0,
        offset: -4 * (len as i32 + 1),
    }));
    if wfi {
        words.push(encode(I::Wfi));
    }
    words.push(encode(I::Ecall));
    words
}

fn trap_key(t: &Trap) -> (u8, u32, u64) {
    match t {
        Trap::IllegalInstruction { pc, word } => (1, *pc, word.map_or(u64::MAX, u64::from)),
        Trap::MemoryFault { pc, fault } => {
            (2, *pc, ((fault.addr as u64) << 1) | fault.is_store as u64)
        }
    }
}

fn ref_trap_key(t: &rv32_ref::RefTrap) -> (u8, u32, u64) {
    match t {
        rv32_ref::RefTrap::IllegalInstruction { pc, word } => {
            (1, *pc, word.map_or(u64::MAX, u64::from))
        }
        rv32_ref::RefTrap::MemoryFault { pc, addr, is_store } => {
            (2, *pc, ((*addr as u64) << 1) | *is_store as u64)
        }
    }
}

/// The body length and program of one riscv case.
fn rv_case_program(case_seed: u64, size_override: Option<usize>) -> (usize, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let len = draw_size(&mut rng, Domain::Riscv, size_override);
    (len, random_rv_program(&mut rng, len))
}

fn riscv_case(case_seed: u64, size_override: Option<usize>, inject: bool) -> CaseOutcome {
    let (len, words) = rv_case_program(case_seed, size_override);

    let mut fast_mem = FlatMemory::new(RV_MEM_BYTES);
    fast_mem.load_words(0, &words);
    let mut fast_cpu = Cpu::new(0); // bulk dispatch (traces) on by default
    let fast_exit = fast_cpu.run_counted(&mut fast_mem, RV_BUDGET);

    let mut ref_mem = rv32_ref::RefMemory::new(RV_MEM_BYTES);
    ref_mem.load_words(0, &words);
    let mut ref_cpu = rv32_ref::RefCpu::new(0);
    let ref_exit = ref_cpu.run(&mut ref_mem, RV_BUDGET);

    let diverge =
        |what: String| CaseOutcome::diverged(len, 0.0, format!("riscv len={len}: {what}"));

    match (&fast_exit, &ref_exit) {
        (Ok(f), Ok(r)) => {
            let fh = match f.halt {
                Halt::Ecall => "ecall",
                Halt::Ebreak => "ebreak",
                Halt::CycleLimit => "limit",
            };
            let rh = match r.0 {
                rv32_ref::RefHalt::Ecall => "ecall",
                rv32_ref::RefHalt::Ebreak => "ebreak",
                rv32_ref::RefHalt::CycleLimit => "limit",
            };
            if fh != rh {
                return diverge(format!("halt {fh} vs oracle {rh}"));
            }
            if f.cycles_consumed != r.1 {
                return diverge(format!("consumed {} vs oracle {}", f.cycles_consumed, r.1));
            }
        }
        (Err(f), Err(r)) => {
            if trap_key(f) != ref_trap_key(r) {
                return diverge(format!("trap {f:?} vs oracle {r:?}"));
            }
        }
        (Ok(f), Err(r)) => return diverge(format!("halt {:?} vs oracle trap {r:?}", f.halt)),
        (Err(f), Ok(r)) => return diverge(format!("trap {f:?} vs oracle halt {:?}", r.0)),
    }

    for r in 0..32u8 {
        let mut fv = fast_cpu.reg(r);
        if inject && r == 1 {
            fv = fv.wrapping_add(1); // simulated off-by-one in x1
        }
        if fv != ref_cpu.regs[r as usize] {
            return diverge(format!(
                "x{r} = {:#010x} vs oracle {:#010x}",
                fv, ref_cpu.regs[r as usize]
            ));
        }
    }
    if fast_cpu.pc != ref_cpu.pc {
        return diverge(format!(
            "pc {:#010x} vs oracle {:#010x}",
            fast_cpu.pc, ref_cpu.pc
        ));
    }
    if fast_cpu.cycles != ref_cpu.cycles || fast_cpu.instret != ref_cpu.instret {
        return diverge(format!(
            "counters ({}, {}) vs oracle ({}, {})",
            fast_cpu.cycles, fast_cpu.instret, ref_cpu.cycles, ref_cpu.instret
        ));
    }
    for a in (0..RV_MEM_BYTES as u32).step_by(4) {
        if fast_mem.peek_word(a) != ref_mem.peek_word(a) {
            return diverge(format!(
                "mem[{a:#06x}] {:?} vs oracle {:?}",
                fast_mem.peek_word(a),
                ref_mem.peek_word(a)
            ));
        }
    }
    CaseOutcome::pass(len, 0.0)
}

// ------------------------------------------------------------------- snn

fn snn_case(case_seed: u64, size_override: Option<usize>, inject: bool) -> CaseOutcome {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let count = draw_size(&mut rng, Domain::Snn, size_override);
    let tau = rng.gen_range(2.0..20.0);
    let threshold = rng.gen_range(0.3..1.5);
    let refractory = rng.gen_range(0.0..5.0);
    let dt = rng.gen_range(0.05..1.0);

    let mut v = vec![0.0; count];
    let mut refr_left = vec![0.0; count];
    let mut golden: Vec<snn_ref::RefLif> = (0..count)
        .map(|_| snn_ref::RefLif::new(tau, threshold, refractory))
        .collect();

    for t in 0..200usize {
        for (j, neuron) in golden.iter_mut().enumerate() {
            let input = rng.gen_range(-0.2..1.2);
            let fast_spike = lif_update(
                &mut v[j],
                &mut refr_left[j],
                tau,
                threshold,
                refractory,
                input,
                dt,
            );
            let ref_spike = neuron.step(input, dt);
            if fast_spike != ref_spike {
                return CaseOutcome::diverged(
                    count,
                    0.0,
                    format!("snn count={count}: spike mismatch at step {t} neuron {j}"),
                );
            }
            let mut fast_v = v[j];
            if inject && t == 0 && j == 0 {
                fast_v += 1e-9; // simulated drift in the update rule
            }
            if fast_v.to_bits() != neuron.potential.to_bits() {
                return CaseOutcome::diverged(
                    count,
                    (fast_v - neuron.potential).abs(),
                    format!("snn count={count}: potential bits differ at step {t} neuron {j}"),
                );
            }
        }
    }

    // STDP window: bit-identical weight updates and quantized steps.
    let a_plus = rng.gen_range(0.05..0.5);
    let a_minus = rng.gen_range(0.05..0.5);
    let tau_plus = rng.gen_range(5.0..40.0);
    let tau_minus = rng.gen_range(5.0..40.0);
    let rule = StdpRule::new(a_plus, a_minus, tau_plus, tau_minus);
    let golden_rule = snn_ref::RefStdp {
        a_plus,
        a_minus,
        tau_plus,
        tau_minus,
    };
    for _ in 0..20 {
        let dtm = rng.gen_range(-50.0..50.0);
        let levels = rng.gen_range(2u32..64);
        if rule.delta_w(dtm).to_bits() != golden_rule.delta_w(dtm).to_bits() {
            return CaseOutcome::diverged(
                count,
                (rule.delta_w(dtm) - golden_rule.delta_w(dtm)).abs(),
                format!("snn: delta_w bits differ at dt={dtm}"),
            );
        }
        if rule.steps(dtm, levels) != golden_rule.steps(dtm, levels as usize) {
            return CaseOutcome::diverged(
                count,
                0.0,
                format!("snn: quantized steps differ at dt={dtm} levels={levels}"),
            );
        }
    }
    CaseOutcome::pass(count, 0.0)
}

// ------------------------------------------------------------------- pcm

fn pcm_case(case_seed: u64, size_override: Option<usize>, inject: bool) -> CaseOutcome {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let levels = draw_size(&mut rng, Domain::Pcm, size_override);
    let tol = Domain::Pcm.tolerance();
    let mat_idx = rng.gen_range(0usize..3);
    let material = [PcmMaterial::Gst225, PcmMaterial::Gsst, PcmMaterial::GeSe][mat_idx];

    let mut fast_grid = transmission_levels(material, levels as u32);
    if inject {
        fast_grid[0] += 1e-9;
    }
    let golden_grid = pcm_ref::transmission_levels_ref(mat_idx, levels);
    let mut worst = 0.0f64;
    for l in 0..levels {
        worst = worst.max((fast_grid[l] - golden_grid[l]).abs());
    }

    let x = rng.gen_range(0.0..=1.0);
    let fast_idx = material.effective_index(x);
    let golden_idx = pcm_ref::effective_index_ref(mat_idx, x);
    worst = worst.max((fast_idx.re - golden_idx.re).abs());
    worst = worst.max((fast_idx.im - golden_idx.im).abs());

    let mut cell = PcmCell::new(material);
    let level = rng.gen_range(0..levels);
    cell.program_level(level as u32, levels as u32);
    let golden_frac = pcm_ref::program_level_ref(0.0, 1.0 / 32.0, level, levels);
    worst = worst.max((cell.crystalline_fraction() - golden_frac).abs());

    let elapsed = rng.gen_range(0.0..1e6);
    let nu = rng.gen_range(-0.05..0.05);
    cell.apply_drift(elapsed, nu);
    let golden_drift = pcm_ref::drift_ref(golden_frac, elapsed, nu);
    worst = worst.max((cell.crystalline_fraction() - golden_drift).abs());

    if worst > tol {
        return CaseOutcome::diverged(
            levels,
            worst,
            format!("pcm levels={levels} material={mat_idx}: error {worst:e} exceeds tol {tol:e}"),
        );
    }
    CaseOutcome::pass(levels, worst)
}

// ------------------------------------------------------------ snn_sparse

/// One `snn_sparse` case's inputs: the network, the event engine's
/// worker count, the per-tick injection schedule and the trial starts.
struct SnnSparsePlan {
    spec: NetSpec,
    threads: usize,
    schedule: Vec<Vec<(u32, f64)>>,
    /// Ticks (ascending) before which both nets reset and then take
    /// these `(neuron, threshold offset)` settings.
    trials: Vec<(usize, Vec<(u32, f64)>)>,
}

/// Draws `case_seed`'s `snn_sparse` case.
fn snn_sparse_plan(case_seed: u64, size_override: Option<usize>) -> SnnSparsePlan {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let n = draw_size(&mut rng, Domain::SnnSparse, size_override);
    let fanout = rng.gen_range(1..n.min(6));
    let levels = rng.gen_range(4u32..24);
    let plastic = rng.gen_bool(0.7);
    let spec_seed: u64 = rng.gen();
    let mut spec = NetSpec::random(spec_seed, n, fanout, levels, plastic);
    spec.tau = rng.gen_range(2.0..20.0);
    spec.threshold = rng.gen_range(0.3..1.5);
    spec.refractory = rng.gen_range(0.0..5.0);
    spec.dt = rng.gen_range(0.05..1.0);
    spec.rule = StdpRule::new(
        rng.gen_range(0.05..0.5),
        rng.gen_range(0.05..0.5),
        rng.gen_range(5.0..40.0),
        rng.gen_range(5.0..40.0),
    );
    let threads = rng.gen_range(1usize..5);
    // Injection schedule strong enough to elicit spikes regularly.
    let kick_max = 2.0 * spec.threshold / spec.dt;
    let mut schedule: Vec<Vec<(u32, f64)>> = (0..120)
        .map(|_| {
            let count = rng.gen_range(0usize..4);
            (0..count)
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0.0..kick_max)))
                .collect()
        })
        .collect();
    // A network this small never does `SERIAL_TICK_WORK` per tick on
    // its own, so half the cases with two or more threads get one burst
    // of that many small injections, a tick the engine partitions. A
    // separate stream leaves the rest of the case as drawn above.
    let mut burst = StdRng::seed_from_u64(split_seed(case_seed, 0xb0_0575));
    if threads > 1 && burst.gen_bool(0.5) {
        let t = burst.gen_range(0..schedule.len());
        schedule[t].extend((0..SERIAL_TICK_WORK).map(|_| {
            (
                burst.gen_range(0..n as u32),
                burst.gen_range(0.0..kick_max) / 128.0,
            )
        }));
    }
    // The trial features, from a stream of their own as well: half the
    // cases each get a WTA group, absence depression, and trial resets
    // (with threshold offsets set at each trial start, tick 0 included).
    let mut trial = StdRng::seed_from_u64(split_seed(case_seed, 0x7a1a15));
    if trial.gen_bool(0.5) {
        let start = trial.gen_range(0..n as u32);
        spec.wta_group = Some(start..trial.gen_range(start + 1..=n as u32));
    }
    spec.absence_depression = trial.gen_bool(0.5);
    let mut trials = Vec::new();
    if trial.gen_bool(0.5) {
        let mut starts = vec![0];
        starts.extend((0..trial.gen_range(1..4)).map(|_| trial.gen_range(1..schedule.len())));
        starts.sort_unstable();
        starts.dedup();
        for t in starts {
            let offsets = (0..trial.gen_range(0..=n))
                .map(|_| {
                    let j = trial.gen_range(0..n as u32);
                    (j, trial.gen_range(-0.5..1.0) * spec.threshold)
                })
                .collect();
            trials.push((t, offsets));
        }
    }
    SnnSparsePlan {
        spec,
        threads,
        schedule,
        trials,
    }
}

/// Differential case: the event-driven sparse engine vs
/// [`snn_ref::RefSparseNet`], over a random network, injection schedule
/// and trial plan, compared bit-for-bit — fire queues every tick, then
/// final potentials, fire ledgers and synapse levels.
fn snn_sparse_case(case_seed: u64, size_override: Option<usize>, inject: bool) -> CaseOutcome {
    let SnnSparsePlan {
        spec,
        threads,
        schedule,
        trials,
    } = snn_sparse_plan(case_seed, size_override);
    let n = spec.neurons;
    let mut fast = EventNet::new(&spec);
    fast.threads = threads;
    let level_weights = fast.synapses().table().weights().to_vec();
    let mut oracle = snn_ref::RefSparseNet::new(
        spec.neurons,
        spec.tau,
        spec.threshold,
        spec.refractory,
        spec.dt,
        snn_ref::RefStdp {
            a_plus: spec.rule.a_plus,
            a_minus: spec.rule.a_minus,
            tau_plus: spec.rule.tau_plus,
            tau_minus: spec.rule.tau_minus,
        },
        spec.plastic,
        &level_weights,
        &spec.edges,
        &spec.init_levels,
        spec.wta_group.as_ref().map(|g| (g.start, g.end)),
        spec.absence_depression,
    );

    let mut trials = trials.iter().peekable();
    for (t, inj) in schedule.iter().enumerate() {
        if let Some((_, offsets)) = trials.next_if(|(start, _)| *start == t) {
            fast.reset();
            oracle.reset();
            for &(j, offset) in offsets {
                fast.set_threshold_offset(j as usize, offset);
                oracle.set_threshold_offset(j as usize, offset);
            }
        }
        let fired_fast = fast.tick(inj).to_vec();
        let fired_ref = oracle.tick(inj);
        if fired_fast != fired_ref {
            return CaseOutcome::diverged(
                n,
                0.0,
                format!("snn_sparse n={n}: event vs oracle fire queue at tick {t}"),
            );
        }
    }

    fast.flush();
    let ref_potentials = oracle.potentials();
    for (j, ref_v) in ref_potentials.iter().enumerate().take(n) {
        let mut fast_v = fast.potentials()[j];
        if inject && j == 0 {
            fast_v += 1e-9; // simulated lazy-leak drift in the engine
        }
        if fast_v.to_bits() != ref_v.to_bits() {
            return CaseOutcome::diverged(
                n,
                (fast_v - ref_v).abs(),
                format!("snn_sparse n={n}: potential bits differ at neuron {j}"),
            );
        }
    }
    if fast.fire_ledger() != oracle.fire_ledger() {
        return CaseOutcome::diverged(n, 0.0, format!("snn_sparse n={n}: fire ledgers differ"));
    }
    // Synapse levels: the engine's CSR order is (source, target)-sorted,
    // exactly the reference's edge order.
    if fast.synapses().levels_flat() != oracle.levels() {
        return CaseOutcome::diverged(n, 0.0, format!("snn_sparse n={n}: synapse levels differ"));
    }
    CaseOutcome::pass(n, 0.0)
}

// -------------------------------------------------------------- plumbing

/// Shrinks a divergent case: retries the same case seed at every size
/// from the domain minimum upward and returns the first size that
/// still diverges (guaranteed to terminate at the original size).
fn shrink(domain: Domain, case_seed: u64, original: &CaseOutcome, inject: bool) -> ShrunkRepro {
    for size in domain.min_size()..original.size {
        let outcome = run_case(domain, case_seed, Some(size), inject);
        if let Some(detail) = outcome.divergence {
            return ShrunkRepro {
                case_index: 0,
                case_seed,
                original_size: original.size,
                shrunk_size: size,
                detail,
            };
        }
    }
    ShrunkRepro {
        case_index: 0,
        case_seed,
        original_size: original.size,
        shrunk_size: original.size,
        detail: original.divergence.clone().unwrap_or_default(),
    }
}

/// Runs `cases` seeded cases for one domain, shrinking divergences.
pub fn run_domain(domain: Domain, seed: u64, cases: usize, inject: bool) -> DomainReport {
    let domain_seed = split_seed(seed, domain.index());
    let outcomes = par_map_indexed(cases, available_threads(), |i| {
        run_case(domain, split_seed(domain_seed, i as u64), None, inject)
    });
    let mut report = DomainReport {
        domain,
        cases,
        passes: 0,
        divergences: 0,
        worst_error: 0.0,
        repros: Vec::new(),
    };
    for (i, outcome) in outcomes.iter().enumerate() {
        report.worst_error = report.worst_error.max(outcome.error);
        if outcome.divergence.is_some() {
            report.divergences += 1;
            if report.repros.len() < MAX_REPROS {
                let case_seed = split_seed(domain_seed, i as u64);
                let mut repro = shrink(domain, case_seed, outcome, inject);
                repro.case_index = i;
                report.repros.push(repro);
            }
        } else {
            report.passes += 1;
        }
    }
    report
}

/// Runs the configured conformance campaign.
pub fn run_conformance(config: &ConformanceConfig) -> ConformanceReport {
    let mut domains = Vec::with_capacity(config.domains.len());
    for &domain in &config.domains {
        let inject = config.inject == Some(domain);
        domains.push(run_domain(domain, config.seed, config.cases, inject));
    }
    ConformanceReport {
        seed: config.seed,
        cases_per_domain: config.cases,
        total_divergences: domains.iter().map(|d| d.divergences).sum(),
        domains,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn riscv_cases_reach_the_trace_tier() {
        // The campaign's own case seeds (CI runs seed 42): at least half
        // of the default-size programs must dispatch a compiled trace,
        // so the oracle checks the trace executor, not only blocks.
        let cases = 200;
        let domain_seed = split_seed(42, Domain::Riscv.index());
        let traced = (0..cases)
            .filter(|&i| {
                let (_, words) = rv_case_program(split_seed(domain_seed, i), None);
                let mut mem = FlatMemory::new(RV_MEM_BYTES);
                mem.load_words(0, &words);
                let mut cpu = Cpu::new(0);
                let _ = cpu.run_counted(&mut mem, RV_BUDGET);
                cpu.trace_engine().hits > 0
            })
            .count();
        assert!(
            2 * traced >= cases as usize,
            "only {traced} of {cases} riscv cases dispatched a trace"
        );
    }

    #[test]
    fn snn_sparse_cases_reach_the_partitioned_tick() {
        // CI's seed 42: at least a quarter of the cases must run a tick
        // on more than one worker (about 3/8 should: three quarters draw
        // two or more threads, half of those carry a burst), so the
        // oracle checks the partitioned path, not only the serial one.
        let cases = 200;
        let domain_seed = split_seed(42, Domain::SnnSparse.index());
        let partitioned = (0..cases)
            .filter(|&i| {
                let plan = snn_sparse_plan(split_seed(domain_seed, i), None);
                let mut net = EventNet::new(&plan.spec);
                net.threads = plan.threads;
                plan.schedule.iter().any(|inj| {
                    let heavy = net.tick_workers(inj) > 1;
                    net.tick(inj);
                    heavy
                })
            })
            .count();
        assert!(
            4 * partitioned >= cases as usize,
            "only {partitioned} of {cases} snn_sparse cases ran a partitioned tick"
        );
    }

    #[test]
    fn riscv_programs_stay_below_the_data_window() {
        let (_, words) = rv_case_program(7, Some(Domain::Riscv.max_size()));
        assert!(words.len() * 4 <= 1024, "{} code words", words.len());
    }
}
