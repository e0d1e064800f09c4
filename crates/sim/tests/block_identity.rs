//! Bit-identity of the fast simulation paths (decoded-block cache +
//! `wfi` fast-forward) against the seed interpreter, on workloads chosen
//! to attack the cache's weak spots: randomized program grids, faults
//! injected into already-cached text, and DMA writes over code.

use neuropulsim_linalg::RMatrix;
use neuropulsim_riscv::cpu::Halt;
use neuropulsim_riscv::isa::{encode, Instruction};
use neuropulsim_sim::campaign::{CampaignConfig, Stratum};
use neuropulsim_sim::fault::{Campaign, FaultKind, FaultTarget};
use neuropulsim_sim::firmware::{accel_offload, DramLayout};
use neuropulsim_sim::system::{RunOutcome, System};

fn lcg(state: &mut u64) -> u32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as u32
}

/// Deterministic random program: straight-line ALU/memory traffic with
/// forward-only branches (always terminates) ending in `ecall`.
fn random_program(seed: u64, len: usize) -> Vec<u32> {
    use Instruction::*;
    let mut s = seed;
    let mut prog = Vec::with_capacity(len + 1);
    for k in 0..len {
        let rd = (1 + lcg(&mut s) % 15) as u8;
        let rs1 = (lcg(&mut s) % 16) as u8;
        let rs2 = (lcg(&mut s) % 16) as u8;
        let inst = match lcg(&mut s) % 10 {
            0 => Addi {
                rd,
                rs1,
                imm: (lcg(&mut s) % 4096) as i32 - 2048,
            },
            1 => Add { rd, rs1, rs2 },
            2 => Sub { rd, rs1, rs2 },
            3 => Xor { rd, rs1, rs2 },
            4 => Mul { rd, rs1, rs2 },
            5 => Slli {
                rd,
                rs1,
                shamt: (lcg(&mut s) % 32) as u8,
            },
            6 => Sltu { rd, rs1, rs2 },
            7 => Sw {
                rs1: 0,
                rs2,
                offset: (0x2000 + (lcg(&mut s) % 255) * 4) as i32,
            },
            8 => Lw {
                rd,
                rs1: 0,
                offset: (0x2000 + (lcg(&mut s) % 255) * 4) as i32,
            },
            _ if k + 2 < len => {
                if lcg(&mut s).is_multiple_of(2) {
                    Beq {
                        rs1,
                        rs2,
                        offset: 8,
                    }
                } else {
                    Bne {
                        rs1,
                        rs2,
                        offset: 8,
                    }
                }
            }
            _ => Addi { rd, rs1, imm: 1 },
        };
        prog.push(encode(inst));
    }
    prog.push(encode(Ecall));
    prog
}

fn system_in_mode(fast: bool) -> System {
    let mut sys = System::new();
    sys.cpu.set_block_cache_enabled(fast);
    sys
}

/// Runs `words` in both modes with a mid-run bit flip into the text
/// segment, asserting every observable matches.
fn assert_identical_with_text_fault(words: &[u32], flip: Option<(u32, u8)>, tag: &str) {
    let run = |fast: bool| {
        let mut sys = system_in_mode(fast);
        sys.load_firmware(words);
        // Warm the block cache (and make partial progress) first, so the
        // injected fault lands in text that is already cached.
        let first = sys.run(137);
        if let Some((addr, bit)) = flip {
            sys.platform.dram.flip_bit(addr, bit).unwrap();
        }
        let second = sys.run(100_000);
        (first, second, sys)
    };
    let (f1, f2, fast_sys) = run(true);
    let (s1, s2, slow_sys) = run(false);
    assert_eq!(f1, s1, "{tag}: warm-up reports must match");
    assert_eq!(f2, s2, "{tag}: post-fault reports must match");
    assert_eq!(
        fast_sys.cpu, slow_sys.cpu,
        "{tag}: same architectural state"
    );
    assert_eq!(
        fast_sys.platform.dram.reads, slow_sys.platform.dram.reads,
        "{tag}: same DRAM read accounting (fetches included)"
    );
    assert_eq!(
        fast_sys.platform.dram.writes, slow_sys.platform.dram.writes,
        "{tag}: same DRAM write accounting"
    );
}

#[test]
fn randomized_program_grid_is_bit_identical() {
    for seed in 0..12u64 {
        let words = random_program(seed * 31 + 5, 220);
        assert_identical_with_text_fault(&words, None, &format!("grid seed {seed}"));
    }
}

#[test]
fn faults_into_cached_text_take_effect_identically() {
    // Flip bits in words across the text segment — including high bits
    // that turn instructions illegal — after the block cache has run the
    // code once. The fault must be seen on the exact same cycle as the
    // seed interpreter sees it, whatever the outcome class.
    for seed in 0..12u64 {
        let words = random_program(seed * 17 + 3, 220);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
        let word_idx = lcg(&mut s) % 220;
        let bit = (lcg(&mut s) % 32) as u8;
        assert_identical_with_text_fault(
            &words,
            Some((4 * word_idx, bit)),
            &format!("text fault seed {seed} word {word_idx} bit {bit}"),
        );
    }
}

#[test]
fn dma_overwrite_of_cached_text_is_seen() {
    use Instruction::*;
    // A subroutine at `target` is called once (caching its block), then
    // DMA rewrites it in place while the CPU sleeps in wfi; the second
    // call must execute the patched code in both modes.
    const TARGET: i32 = 16 * 4;
    const STAGE: i32 = 0x200;
    let program: Vec<u32> = [
        Jal { rd: 1, offset: 64 }, // 0: first call to target
        Lui {
            rd: 5,
            imm: 0x4100_0000,
        }, // 1: t0 = DMA base
        Addi {
            rd: 7,
            rs1: 0,
            imm: STAGE,
        }, // 2: src = staged patch
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 8,
        }, // 3: SRC
        Addi {
            rd: 7,
            rs1: 0,
            imm: TARGET,
        }, // 4: dst = target text
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 12,
        }, // 5: DST
        Addi {
            rd: 7,
            rs1: 0,
            imm: 8,
        }, // 6: len = 2 words
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 16,
        }, // 7: LEN
        Addi {
            rd: 7,
            rs1: 0,
            imm: 1,
        }, // 8
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 20,
        }, // 9: IRQ_ENABLE
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 0,
        }, // 10: start
        Wfi,                       // 11
        Addi {
            rd: 7,
            rs1: 0,
            imm: 2,
        }, // 12
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 0,
        }, // 13: ack done
        Jal { rd: 1, offset: 8 },  // 14: second call to target
        Ecall,                     // 15
        Addi {
            rd: 10,
            rs1: 0,
            imm: 1,
        }, // 16: target: a0 = 1
        Jalr {
            rd: 0,
            rs1: 1,
            offset: 0,
        }, // 17: return
    ]
    .iter()
    .map(|&i| encode(i))
    .collect();
    let patch = [
        encode(Addi {
            rd: 10,
            rs1: 0,
            imm: 99,
        }),
        encode(Jalr {
            rd: 0,
            rs1: 1,
            offset: 0,
        }),
    ];

    let run = |fast: bool| {
        let mut sys = system_in_mode(fast);
        sys.load_firmware(&program);
        sys.platform.dram.poke_words(STAGE as u32, &patch);
        let report = sys.run(100_000);
        (report, sys)
    };
    let (fast_report, fast_sys) = run(true);
    let (slow_report, slow_sys) = run(false);
    assert_eq!(fast_report.outcome, RunOutcome::Halted(Halt::Ecall));
    assert_eq!(fast_report, slow_report);
    assert_eq!(fast_sys.cpu, slow_sys.cpu);
    assert_eq!(
        fast_sys.cpu.reg(10),
        99,
        "second call must run the DMA-patched instruction"
    );
}

#[test]
fn mini_campaign_is_bit_identical_across_modes() {
    let n = 4;
    let batch = 4;
    let layout = DramLayout::default();
    let w = RMatrix::from_fn(n, n, |i, j| 0.3 * ((i as f64 - j as f64) * 0.41).cos());
    let x: Vec<Vec<f64>> = (0..batch)
        .map(|v| {
            (0..n)
                .map(|k| 0.2 * ((v * n + k) as f64 * 0.19).sin())
                .collect()
        })
        .collect();

    let report_json = |fast: bool| {
        let w = w.clone();
        let x = x.clone();
        let campaign = Campaign::new(
            move || {
                let mut sys = system_in_mode(fast);
                sys.platform.pe_mut(0).load_matrix(&w);
                for (v, col) in x.iter().enumerate() {
                    sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, col);
                }
                sys.load_firmware_source(&accel_offload(n, batch, layout));
                sys
            },
            move |sys| {
                (0..n * batch)
                    .map(|k| {
                        sys.platform
                            .dram
                            .peek(layout.y_addr + 4 * k as u32)
                            .unwrap_or(0)
                    })
                    .collect()
            },
            20_000,
        );
        let words = (n * batch) as u32;
        let strata = vec![
            Stratum::new(
                "dram-inputs",
                (0..words)
                    .map(|k| FaultTarget::Dram {
                        addr: layout.x_addr + 4 * k,
                    })
                    .collect(),
            ),
            Stratum::new(
                "text",
                (0..32).map(|k| FaultTarget::Dram { addr: 4 * k }).collect(),
            ),
            Stratum::new(
                "cpu-registers",
                (1..32)
                    .map(|r| FaultTarget::Register { index: r })
                    .collect(),
            ),
        ];
        let cfg = CampaignConfig {
            cadence: 96,
            injections: 45,
            ..CampaignConfig::default()
        };
        campaign
            .run_stratified("mini", 11, FaultKind::Transient, &strata, &cfg)
            .to_json()
    };

    assert_eq!(
        report_json(true),
        report_json(false),
        "campaign reports must be byte-identical with fast paths on vs off"
    );
}
