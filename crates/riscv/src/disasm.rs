//! Disassembly: render decoded instructions back to assembler syntax.
//!
//! Useful for tracing firmware execution in the system simulator and for
//! debugging the assembler itself — `assemble` followed by `disassemble`
//! round-trips modulo label names.

use crate::isa::{decode, Instruction};
use std::fmt;

/// ABI register names indexed by register number.
pub(crate) const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

fn r(reg: u8) -> &'static str {
    ABI_NAMES[(reg & 31) as usize]
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match *self {
            Lui { rd, imm } => write!(f, "lui {}, {:#x}", r(rd), (imm as u32) >> 12),
            Auipc { rd, imm } => write!(f, "auipc {}, {:#x}", r(rd), (imm as u32) >> 12),
            Jal { rd, offset } => write!(f, "jal {}, {offset}", r(rd)),
            Jalr { rd, rs1, offset } => write!(f, "jalr {}, {offset}({})", r(rd), r(rs1)),
            Beq { rs1, rs2, offset } => write!(f, "beq {}, {}, {offset}", r(rs1), r(rs2)),
            Bne { rs1, rs2, offset } => write!(f, "bne {}, {}, {offset}", r(rs1), r(rs2)),
            Blt { rs1, rs2, offset } => write!(f, "blt {}, {}, {offset}", r(rs1), r(rs2)),
            Bge { rs1, rs2, offset } => write!(f, "bge {}, {}, {offset}", r(rs1), r(rs2)),
            Bltu { rs1, rs2, offset } => write!(f, "bltu {}, {}, {offset}", r(rs1), r(rs2)),
            Bgeu { rs1, rs2, offset } => write!(f, "bgeu {}, {}, {offset}", r(rs1), r(rs2)),
            Lb { rd, rs1, offset } => write!(f, "lb {}, {offset}({})", r(rd), r(rs1)),
            Lh { rd, rs1, offset } => write!(f, "lh {}, {offset}({})", r(rd), r(rs1)),
            Lw { rd, rs1, offset } => write!(f, "lw {}, {offset}({})", r(rd), r(rs1)),
            Lbu { rd, rs1, offset } => write!(f, "lbu {}, {offset}({})", r(rd), r(rs1)),
            Lhu { rd, rs1, offset } => write!(f, "lhu {}, {offset}({})", r(rd), r(rs1)),
            Sb { rs1, rs2, offset } => write!(f, "sb {}, {offset}({})", r(rs2), r(rs1)),
            Sh { rs1, rs2, offset } => write!(f, "sh {}, {offset}({})", r(rs2), r(rs1)),
            Sw { rs1, rs2, offset } => write!(f, "sw {}, {offset}({})", r(rs2), r(rs1)),
            Addi { rd, rs1, imm } => write!(f, "addi {}, {}, {imm}", r(rd), r(rs1)),
            Slti { rd, rs1, imm } => write!(f, "slti {}, {}, {imm}", r(rd), r(rs1)),
            Sltiu { rd, rs1, imm } => write!(f, "sltiu {}, {}, {imm}", r(rd), r(rs1)),
            Xori { rd, rs1, imm } => write!(f, "xori {}, {}, {imm}", r(rd), r(rs1)),
            Ori { rd, rs1, imm } => write!(f, "ori {}, {}, {imm}", r(rd), r(rs1)),
            Andi { rd, rs1, imm } => write!(f, "andi {}, {}, {imm}", r(rd), r(rs1)),
            Slli { rd, rs1, shamt } => write!(f, "slli {}, {}, {shamt}", r(rd), r(rs1)),
            Srli { rd, rs1, shamt } => write!(f, "srli {}, {}, {shamt}", r(rd), r(rs1)),
            Srai { rd, rs1, shamt } => write!(f, "srai {}, {}, {shamt}", r(rd), r(rs1)),
            Add { rd, rs1, rs2 } => write!(f, "add {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Sub { rd, rs1, rs2 } => write!(f, "sub {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Sll { rd, rs1, rs2 } => write!(f, "sll {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Slt { rd, rs1, rs2 } => write!(f, "slt {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Sltu { rd, rs1, rs2 } => write!(f, "sltu {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Xor { rd, rs1, rs2 } => write!(f, "xor {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Srl { rd, rs1, rs2 } => write!(f, "srl {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Sra { rd, rs1, rs2 } => write!(f, "sra {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Or { rd, rs1, rs2 } => write!(f, "or {}, {}, {}", r(rd), r(rs1), r(rs2)),
            And { rd, rs1, rs2 } => write!(f, "and {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Mul { rd, rs1, rs2 } => write!(f, "mul {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Mulh { rd, rs1, rs2 } => write!(f, "mulh {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Mulhsu { rd, rs1, rs2 } => write!(f, "mulhsu {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Mulhu { rd, rs1, rs2 } => write!(f, "mulhu {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Div { rd, rs1, rs2 } => write!(f, "div {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Divu { rd, rs1, rs2 } => write!(f, "divu {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Rem { rd, rs1, rs2 } => write!(f, "rem {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Remu { rd, rs1, rs2 } => write!(f, "remu {}, {}, {}", r(rd), r(rs1), r(rs2)),
            Fence => write!(f, "fence"),
            Ecall => write!(f, "ecall"),
            Ebreak => write!(f, "ebreak"),
            Wfi => write!(f, "wfi"),
            Csrrw { rd, rs1, csr } => write!(f, "csrrw {}, {csr:#x}, {}", r(rd), r(rs1)),
            Csrrs { rd, rs1, csr } => write!(f, "csrrs {}, {csr:#x}, {}", r(rd), r(rs1)),
            Csrrc { rd, rs1, csr } => write!(f, "csrrc {}, {csr:#x}, {}", r(rd), r(rs1)),
        }
    }
}

/// Disassembles a block of instruction words into `addr: text` lines;
/// undecodable words render as `.word 0x...`.
pub fn disassemble(words: &[u32], base: u32) -> Vec<String> {
    words
        .iter()
        .enumerate()
        .map(|(k, &w)| {
            let addr = base + 4 * k as u32;
            match decode(w) {
                Ok(inst) => format!("{addr:#010x}: {inst}"),
                Err(_) => format!("{addr:#010x}: .word {w:#010x}"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn renders_common_instructions() {
        use Instruction::*;
        assert_eq!(
            Add {
                rd: 10,
                rs1: 2,
                rs2: 1
            }
            .to_string(),
            "add a0, sp, ra"
        );
        assert_eq!(
            Lw {
                rd: 5,
                rs1: 8,
                offset: -4
            }
            .to_string(),
            "lw t0, -4(s0)"
        );
        assert_eq!(
            Sw {
                rs1: 2,
                rs2: 10,
                offset: 8
            }
            .to_string(),
            "sw a0, 8(sp)"
        );
        assert_eq!(Ecall.to_string(), "ecall");
        assert_eq!(
            Beq {
                rs1: 0,
                rs2: 0,
                offset: -8
            }
            .to_string(),
            "beq zero, zero, -8"
        );
    }

    #[test]
    fn assemble_disassemble_roundtrip() {
        let source = "
            addi a0, zero, 42
            add  a1, a0, a0
            sw   a1, 16(sp)
            lw   a2, 16(sp)
            ecall
        ";
        let words = assemble(source).expect("assembles");
        let lines = disassemble(&words, 0);
        assert_eq!(lines.len(), 5);
        assert!(lines[0].ends_with("addi a0, zero, 42"), "{}", lines[0]);
        assert!(lines[1].ends_with("add a1, a0, a0"), "{}", lines[1]);
        assert!(lines[2].ends_with("sw a1, 16(sp)"), "{}", lines[2]);
        assert!(lines[4].ends_with("ecall"));
        // Re-assembling the disassembly (sans addresses) reproduces the code.
        let round: String = lines
            .iter()
            .map(|l| l.split(": ").nth(1).expect("addr: text"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(assemble(&round).expect("reassembles"), words);
    }

    #[test]
    fn bad_words_render_as_data() {
        let lines = disassemble(&[0xFFFF_FFFF], 0x100);
        assert_eq!(lines[0], "0x00000100: .word 0xffffffff");
    }
}
