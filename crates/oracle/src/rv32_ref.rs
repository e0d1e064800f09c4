//! Single-instruction-at-a-time RV32IM reference stepper: its own
//! decoder, its own flat memory, no compiled traces, no wfi
//! fast-forward, no bulk fetch accounting. Written against the RISC-V
//! unprivileged spec (RV32I base + M extension) plus the workspace's
//! documented cost model and CSR map, so it can adjudicate the
//! optimized interpreter in `neuropulsim-riscv`.

/// Per-instruction-class cycle charges, matching the simulator's
/// default timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefCycleModel {
    /// Plain ALU / CSR / fence instructions.
    pub alu: u64,
    /// Taken branches and jumps.
    pub branch_taken: u64,
    /// Memory loads.
    pub load: u64,
    /// Memory stores.
    pub store: u64,
    /// Multiplies.
    pub mul: u64,
    /// Divides and remainders.
    pub div: u64,
}

impl Default for RefCycleModel {
    fn default() -> Self {
        RefCycleModel {
            alu: 1,
            branch_taken: 3,
            load: 2,
            store: 1,
            mul: 3,
            div: 20,
        }
    }
}

/// Why a reference run stopped retiring instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefHalt {
    /// `ecall` retired.
    Ecall,
    /// `ebreak` retired.
    Ebreak,
    /// The cycle budget ran out.
    CycleLimit,
}

/// Trap raised by the reference stepper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefTrap {
    /// Fetching or decoding at `pc` failed.
    IllegalInstruction {
        /// Program counter of the offending fetch.
        pc: u32,
        /// The fetched word, if the fetch itself succeeded.
        word: Option<u32>,
    },
    /// A data access faulted.
    MemoryFault {
        /// Program counter of the faulting instruction.
        pc: u32,
        /// The faulting data address.
        addr: u32,
        /// Whether the access was a store.
        is_store: bool,
    },
}

/// Flat little-endian RAM starting at address zero, with the same
/// word-granular bounds rule as the system bus: any access whose
/// containing aligned word ends past the memory faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefMemory {
    bytes: Vec<u8>,
}

impl RefMemory {
    /// Creates a zeroed memory of `size` bytes, rounded up to a word.
    pub fn new(size: usize) -> Self {
        RefMemory {
            bytes: vec![0; (size + 3) & !3],
        }
    }

    /// Copies instruction words into memory starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (k, w) in words.iter().enumerate() {
            let a = addr as usize + 4 * k;
            self.bytes[a..a + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Reads the aligned word containing `addr`, or `None` out of range.
    pub fn peek_word(&self, addr: u32) -> Option<u32> {
        let a = (addr & !3) as usize;
        let b = self.bytes.get(a..a + 4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn load_word(&self, addr: u32) -> Result<u32, u32> {
        self.peek_word(addr).ok_or(addr)
    }

    fn store_word(&mut self, addr: u32, value: u32) -> Result<(), u32> {
        let a = (addr & !3) as usize;
        if a + 4 > self.bytes.len() {
            return Err(addr);
        }
        self.bytes[a..a + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn load_byte(&self, addr: u32) -> Result<u8, u32> {
        let w = self.load_word(addr & !3).map_err(|_| addr)?;
        Ok((w >> ((addr & 3) * 8)) as u8)
    }

    fn load_half(&self, addr: u32) -> Result<u16, u32> {
        let w = self.load_word(addr & !3).map_err(|_| addr)?;
        Ok((w >> ((addr & 2) * 8)) as u16)
    }

    fn store_byte(&mut self, addr: u32, value: u8) -> Result<(), u32> {
        let aligned = addr & !3;
        let shift = (addr & 3) * 8;
        let w = self.load_word(aligned).map_err(|_| addr)?;
        let w = (w & !(0xffu32 << shift)) | ((value as u32) << shift);
        self.store_word(aligned, w).map_err(|_| addr)
    }

    fn store_half(&mut self, addr: u32, value: u16) -> Result<(), u32> {
        let aligned = addr & !3;
        let shift = (addr & 2) * 8;
        let w = self.load_word(aligned).map_err(|_| addr)?;
        let w = (w & !(0xffffu32 << shift)) | ((value as u32) << shift);
        self.store_word(aligned, w).map_err(|_| addr)
    }
}

/// The architectural state of the reference hart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefCpu {
    /// Integer register file; `regs[0]` is hardwired to zero.
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Retired-cycle counter (`mcycle`).
    pub cycles: u64,
    /// Retired-instruction counter (`minstret`).
    pub instret: u64,
    /// The `mscratch` CSR.
    pub mscratch: u32,
    /// Set by `wfi`; while set, cycles pass but nothing retires.
    pub waiting_for_interrupt: bool,
    /// Cycle charges per instruction class.
    pub model: RefCycleModel,
}

const CSR_MCYCLE: u16 = 0xB00;
const CSR_MINSTRET: u16 = 0xB02;
const CSR_MSCRATCH: u16 = 0x340;

impl RefCpu {
    /// A reset hart starting at `pc`.
    pub fn new(pc: u32) -> Self {
        RefCpu {
            regs: [0; 32],
            pc,
            cycles: 0,
            instret: 0,
            mscratch: 0,
            waiting_for_interrupt: false,
            model: RefCycleModel::default(),
        }
    }

    fn reg(&self, r: usize) -> u32 {
        self.regs[r]
    }

    fn set_reg(&mut self, r: usize, v: u32) {
        if r != 0 {
            self.regs[r] = v;
        }
    }

    fn read_csr(&self, addr: u16) -> u32 {
        match addr {
            CSR_MCYCLE => self.cycles as u32,
            CSR_MINSTRET => self.instret as u32,
            CSR_MSCRATCH => self.mscratch,
            // Micro-architectural counters (traced/decoded bulk
            // entries) do not exist here; the spec reads them as zero
            // on a trace-less hart, and conformance programs must not
            // depend on them.
            _ => 0,
        }
    }

    fn write_csr(&mut self, addr: u16, value: u32) {
        if addr == CSR_MSCRATCH {
            self.mscratch = value;
        }
    }

    /// Executes one instruction (or one sleeping cycle under wfi).
    ///
    /// # Errors
    ///
    /// Returns a [`RefTrap`] on illegal instructions or memory faults.
    pub fn step(&mut self, mem: &mut RefMemory) -> Result<Option<RefHalt>, RefTrap> {
        if self.waiting_for_interrupt {
            self.cycles += 1;
            return Ok(None);
        }
        let pc = self.pc;
        let word = mem.load_word(pc).map_err(|addr| RefTrap::MemoryFault {
            pc,
            addr,
            is_store: false,
        })?;
        let mut next_pc = pc.wrapping_add(4);
        let mut cost = self.model.alu;
        let mut halt = None;

        let opcode = word & 0x7f;
        let rd = ((word >> 7) & 0x1f) as usize;
        let funct3 = (word >> 12) & 0x7;
        let rs1 = ((word >> 15) & 0x1f) as usize;
        let rs2 = ((word >> 20) & 0x1f) as usize;
        let funct7 = word >> 25;
        let imm_i = (word as i32) >> 20;
        let imm_s = (((word & 0xfe00_0000) as i32) >> 20) | (((word >> 7) & 0x1f) as i32);
        let imm_b = (((word & 0x8000_0000) as i32) >> 19)
            | ((((word >> 7) & 1) << 11) as i32)
            | ((((word >> 25) & 0x3f) << 5) as i32)
            | ((((word >> 8) & 0xf) << 1) as i32);
        let imm_u = (word & 0xffff_f000) as i32;
        let imm_j = (((word & 0x8000_0000) as i32) >> 11)
            | (((word >> 12) & 0xff) << 12) as i32
            | ((((word >> 20) & 1) << 11) as i32)
            | ((((word >> 21) & 0x3ff) << 1) as i32);
        let illegal = RefTrap::IllegalInstruction {
            pc,
            word: Some(word),
        };
        let data_fault = |addr: u32, is_store: bool| RefTrap::MemoryFault { pc, addr, is_store };

        match opcode {
            0b0110111 => self.set_reg(rd, imm_u as u32),
            0b0010111 => self.set_reg(rd, pc.wrapping_add(imm_u as u32)),
            0b1101111 => {
                self.set_reg(rd, next_pc);
                next_pc = pc.wrapping_add(imm_j as u32);
                cost = self.model.branch_taken;
            }
            0b1100111 => {
                if funct3 != 0 {
                    return Err(illegal);
                }
                let target = self.reg(rs1).wrapping_add(imm_i as u32) & !1;
                self.set_reg(rd, next_pc);
                next_pc = target;
                cost = self.model.branch_taken;
            }
            0b1100011 => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match funct3 {
                    0b000 => a == b,
                    0b001 => a != b,
                    0b100 => (a as i32) < (b as i32),
                    0b101 => (a as i32) >= (b as i32),
                    0b110 => a < b,
                    0b111 => a >= b,
                    _ => return Err(illegal),
                };
                if taken {
                    next_pc = pc.wrapping_add(imm_b as u32);
                    cost = self.model.branch_taken;
                }
            }
            0b0000011 => {
                let addr = self.reg(rs1).wrapping_add(imm_i as u32);
                let v = match funct3 {
                    0b000 => mem.load_byte(addr).map(|b| b as i8 as i32 as u32),
                    0b001 => mem.load_half(addr).map(|h| h as i16 as i32 as u32),
                    0b010 => mem.load_word(addr),
                    0b100 => mem.load_byte(addr).map(|b| b as u32),
                    0b101 => mem.load_half(addr).map(|h| h as u32),
                    _ => return Err(illegal),
                }
                .map_err(|a| data_fault(a, false))?;
                self.set_reg(rd, v);
                cost = self.model.load;
            }
            0b0100011 => {
                let addr = self.reg(rs1).wrapping_add(imm_s as u32);
                let v = self.reg(rs2);
                match funct3 {
                    0b000 => mem.store_byte(addr, v as u8),
                    0b001 => mem.store_half(addr, v as u16),
                    0b010 => mem.store_word(addr, v),
                    _ => return Err(illegal),
                }
                .map_err(|a| data_fault(a, true))?;
                cost = self.model.store;
            }
            0b0010011 => {
                let a = self.reg(rs1);
                let shamt = rs2 as u32;
                let v = match funct3 {
                    0b000 => a.wrapping_add(imm_i as u32),
                    0b010 => ((a as i32) < imm_i) as u32,
                    0b011 => (a < imm_i as u32) as u32,
                    0b100 => a ^ imm_i as u32,
                    0b110 => a | imm_i as u32,
                    0b111 => a & imm_i as u32,
                    0b001 if funct7 == 0 => a << shamt,
                    0b101 if funct7 == 0 => a >> shamt,
                    0b101 if funct7 == 0b0100000 => ((a as i32) >> shamt) as u32,
                    _ => return Err(illegal),
                };
                self.set_reg(rd, v);
            }
            0b0110011 => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let v = match (funct7, funct3) {
                    (0b0000000, 0b000) => a.wrapping_add(b),
                    (0b0100000, 0b000) => a.wrapping_sub(b),
                    (0b0000000, 0b001) => a << (b & 0x1f),
                    (0b0000000, 0b010) => ((a as i32) < (b as i32)) as u32,
                    (0b0000000, 0b011) => (a < b) as u32,
                    (0b0000000, 0b100) => a ^ b,
                    (0b0000000, 0b101) => a >> (b & 0x1f),
                    (0b0100000, 0b101) => ((a as i32) >> (b & 0x1f)) as u32,
                    (0b0000000, 0b110) => a | b,
                    (0b0000000, 0b111) => a & b,
                    (0b0000001, 0b000) => {
                        cost = self.model.mul;
                        a.wrapping_mul(b)
                    }
                    (0b0000001, 0b001) => {
                        cost = self.model.mul;
                        (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32
                    }
                    (0b0000001, 0b010) => {
                        cost = self.model.mul;
                        (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32
                    }
                    (0b0000001, 0b011) => {
                        cost = self.model.mul;
                        (((a as u64) * (b as u64)) >> 32) as u32
                    }
                    (0b0000001, 0b100) => {
                        cost = self.model.div;
                        let (sa, sb) = (a as i32, b as i32);
                        if sb == 0 {
                            -1i32 as u32
                        } else if sa == i32::MIN && sb == -1 {
                            i32::MIN as u32
                        } else {
                            (sa / sb) as u32
                        }
                    }
                    (0b0000001, 0b101) => {
                        cost = self.model.div;
                        a.checked_div(b).unwrap_or(u32::MAX)
                    }
                    (0b0000001, 0b110) => {
                        cost = self.model.div;
                        let (sa, sb) = (a as i32, b as i32);
                        if sb == 0 {
                            a
                        } else if sa == i32::MIN && sb == -1 {
                            0
                        } else {
                            (sa % sb) as u32
                        }
                    }
                    (0b0000001, 0b111) => {
                        cost = self.model.div;
                        a.checked_rem(b).unwrap_or(a)
                    }
                    _ => return Err(illegal),
                };
                self.set_reg(rd, v);
            }
            0b0001111 => {} // fence: ordering no-op on a single hart
            0b1110011 => match funct3 {
                0b000 => match word {
                    0x0000_0073 => halt = Some(RefHalt::Ecall),
                    0x0010_0073 => halt = Some(RefHalt::Ebreak),
                    0x1050_0073 => self.waiting_for_interrupt = true,
                    _ => return Err(illegal),
                },
                0b001 => {
                    let csr = (word >> 20) as u16;
                    let old = self.read_csr(csr);
                    self.write_csr(csr, self.reg(rs1));
                    self.set_reg(rd, old);
                }
                0b010 => {
                    let csr = (word >> 20) as u16;
                    let old = self.read_csr(csr);
                    if rs1 != 0 {
                        self.write_csr(csr, old | self.reg(rs1));
                    }
                    self.set_reg(rd, old);
                }
                0b011 => {
                    let csr = (word >> 20) as u16;
                    let old = self.read_csr(csr);
                    if rs1 != 0 {
                        self.write_csr(csr, old & !self.reg(rs1));
                    }
                    self.set_reg(rd, old);
                }
                _ => return Err(illegal),
            },
            _ => return Err(illegal),
        }

        self.pc = next_pc;
        self.cycles += cost;
        self.instret += 1;
        Ok(halt)
    }

    /// Runs until halt, trap, or the cycle budget is consumed, one
    /// instruction at a time. Mirrors the optimized interpreter's
    /// budget rule: execution continues while `cycles < start + max`,
    /// so the final instruction may overshoot the budget, and the
    /// overshoot is included in the returned consumed-cycle count.
    ///
    /// # Errors
    ///
    /// Returns a [`RefTrap`] on illegal instructions or memory faults.
    pub fn run(&mut self, mem: &mut RefMemory, max_cycles: u64) -> Result<(RefHalt, u64), RefTrap> {
        let start = self.cycles;
        let limit = start.saturating_add(max_cycles);
        let mut halt = RefHalt::CycleLimit;
        while self.cycles < limit {
            if let Some(h) = self.step(mem)? {
                halt = h;
                break;
            }
        }
        Ok((halt, self.cycles - start))
    }
}
