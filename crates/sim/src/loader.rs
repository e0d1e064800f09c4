//! Minimal ELF32 loader and Linux-flavored syscall shim.
//!
//! Real RV32IM binaries — statically linked `ET_EXEC` images with
//! `PT_LOAD` segments — load straight into the system's DRAM and run
//! under a small process environment:
//!
//! - [`parse_elf32`] understands just enough of the ELF32 format to be
//!   a genuine loader (magic, class/endianness, machine, program
//!   headers), and rejects everything else loudly;
//! - [`SyscallShim`] implements the RV32 Linux syscall ABI (`a7` =
//!   number, `a0..a2` = arguments, result in `a0`) for the calls a
//!   freestanding benchmark needs: `exit`/`exit_group`, `write` to
//!   stdout/stderr, and `brk` for heap growth. Everything else returns
//!   `-ENOSYS`, exactly like a kernel that doesn't implement the call;
//! - [`System::run_elf`] glues the two together: load, point the CPU
//!   at the entry, give it a stack, and resume across `ecall`s until
//!   the program exits, traps, or times out.
//!
//! The container has no RISC-V cross-compiler, so test binaries are
//! produced by [`write_elf32`]/[`elf_from_assembly`]: the in-repo
//! assembler emits the code and a genuine ELF32 image is written
//! around it. The loader does not get to cheat — it parses those
//! images through the same byte-level path any `riscv32-unknown-elf`
//! toolchain output would take.

use crate::ram::Ram;
use crate::system::{RunOutcome, RunReport, System, DRAM_BASE, DRAM_SIZE};
use neuropulsim_riscv::cpu::Halt;

/// `e_machine` value for RISC-V.
pub(crate) const EM_RISCV: u16 = 243;
/// `e_type` for a fully linked executable.
pub(crate) const ET_EXEC: u16 = 2;
/// `p_type` for a loadable segment.
pub(crate) const PT_LOAD: u32 = 1;

/// Linux RV32 syscall numbers understood by the shim.
pub mod sysno {
    /// `exit(code)`.
    pub(crate) const EXIT: u32 = 93;
    /// `exit_group(code)` — treated the same as `exit`.
    pub(crate) const EXIT_GROUP: u32 = 94;
    /// `write(fd, buf, len)`.
    pub(crate) const WRITE: u32 = 64;
    /// `brk(addr)`.
    pub(crate) const BRK: u32 = 214;
}

/// `-ENOSYS`: the shim's answer to any syscall it does not implement.
pub(crate) const ENOSYS_RET: u32 = -38i32 as u32;
/// `-EFAULT`: a buffer pointed outside loadable memory.
pub(crate) const EFAULT_RET: u32 = -14i32 as u32;
/// `-EBADF`: `write` to anything but stdout/stderr.
pub(crate) const EBADF_RET: u32 = -9i32 as u32;

/// Bytes at the top of DRAM reserved for the stack; `brk` may not grow
/// the heap into this region.
pub const STACK_RESERVE: u32 = 64 * 1024;

/// Why an ELF image was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfError {
    /// The file is shorter than the structures it claims to contain.
    Truncated,
    /// The first four bytes are not `\x7fELF`.
    BadMagic,
    /// Not a 32-bit little-endian image.
    UnsupportedFormat,
    /// Not an `ET_EXEC` executable (e.g. a relocatable or shared object).
    UnsupportedType(u16),
    /// Not an RISC-V (`EM_RISCV`) image.
    UnsupportedMachine(u16),
    /// A `PT_LOAD` segment falls outside the system's DRAM.
    SegmentOutOfRange {
        /// Segment virtual address.
        vaddr: u32,
        /// Segment size in memory (`p_memsz`).
        memsz: u32,
    },
}

impl std::fmt::Display for ElfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElfError::Truncated => write!(f, "ELF image truncated"),
            ElfError::BadMagic => write!(f, "not an ELF image (bad magic)"),
            ElfError::UnsupportedFormat => write!(f, "not a 32-bit little-endian ELF"),
            ElfError::UnsupportedType(t) => write!(f, "unsupported ELF type {t} (want ET_EXEC)"),
            ElfError::UnsupportedMachine(m) => {
                write!(f, "unsupported ELF machine {m} (want EM_RISCV)")
            }
            ElfError::SegmentOutOfRange { vaddr, memsz } => {
                write!(
                    f,
                    "PT_LOAD segment at {vaddr:#010x}+{memsz:#x} outside DRAM"
                )
            }
        }
    }
}

impl std::error::Error for ElfError {}

/// One loadable segment of a parsed image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfSegment {
    /// Load address.
    pub vaddr: u32,
    /// File-backed bytes (`p_filesz` of them).
    pub data: Vec<u8>,
    /// Total size in memory; the tail past `data.len()` is zero-filled
    /// (`.bss`).
    pub memsz: u32,
}

/// A parsed ELF32 executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfImage {
    /// Entry point (`e_entry`).
    pub entry: u32,
    /// `PT_LOAD` segments in file order.
    pub segments: Vec<ElfSegment>,
}

impl ElfImage {
    /// One past the highest address any segment touches.
    pub fn load_end(&self) -> u32 {
        self.segments
            .iter()
            .map(|s| s.vaddr.saturating_add(s.memsz.max(s.data.len() as u32)))
            .max()
            .unwrap_or(0)
    }
}

fn u16le(b: &[u8], off: usize) -> Result<u16, ElfError> {
    let s = b.get(off..off + 2).ok_or(ElfError::Truncated)?;
    Ok(u16::from_le_bytes([s[0], s[1]]))
}

fn u32le(b: &[u8], off: usize) -> Result<u32, ElfError> {
    let s = b.get(off..off + 4).ok_or(ElfError::Truncated)?;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Parses an ELF32 little-endian RISC-V executable.
///
/// # Errors
///
/// Returns an [`ElfError`] for anything that is not a well-formed
/// `ET_EXEC` / `EM_RISCV` / 32-bit / little-endian image.
pub fn parse_elf32(bytes: &[u8]) -> Result<ElfImage, ElfError> {
    if bytes.len() < 52 {
        return Err(if bytes.get(..4) == Some(b"\x7fELF") {
            ElfError::Truncated
        } else {
            ElfError::BadMagic
        });
    }
    if &bytes[..4] != b"\x7fELF" {
        return Err(ElfError::BadMagic);
    }
    // e_ident: class (1 = 32-bit), data (1 = little-endian).
    if bytes[4] != 1 || bytes[5] != 1 {
        return Err(ElfError::UnsupportedFormat);
    }
    let e_type = u16le(bytes, 16)?;
    if e_type != ET_EXEC {
        return Err(ElfError::UnsupportedType(e_type));
    }
    let e_machine = u16le(bytes, 18)?;
    if e_machine != EM_RISCV {
        return Err(ElfError::UnsupportedMachine(e_machine));
    }
    let entry = u32le(bytes, 24)?;
    let phoff = u32le(bytes, 28)? as usize;
    let phentsize = u16le(bytes, 42)? as usize;
    let phnum = u16le(bytes, 44)? as usize;
    if phentsize < 32 {
        return Err(ElfError::Truncated);
    }
    let mut segments = Vec::new();
    for k in 0..phnum {
        let ph = phoff + k * phentsize;
        if u32le(bytes, ph)? != PT_LOAD {
            continue;
        }
        let offset = u32le(bytes, ph + 4)? as usize;
        let vaddr = u32le(bytes, ph + 8)?;
        let filesz = u32le(bytes, ph + 16)? as usize;
        let memsz = u32le(bytes, ph + 20)?;
        let data = bytes
            .get(offset..offset + filesz)
            .ok_or(ElfError::Truncated)?
            .to_vec();
        segments.push(ElfSegment {
            vaddr,
            data,
            memsz: memsz.max(filesz as u32),
        });
    }
    Ok(ElfImage { entry, segments })
}

/// Writes a minimal valid ELF32 RISC-V executable: one program header
/// per `(vaddr, bytes)` segment, data packed after the headers.
pub fn write_elf32(entry: u32, segments: &[(u32, &[u8])]) -> Vec<u8> {
    let ehsize = 52u32;
    let phentsize = 32u32;
    let phoff = ehsize;
    let data_start = phoff + phentsize * segments.len() as u32;

    let mut out = Vec::new();
    out.extend_from_slice(b"\x7fELF");
    out.extend_from_slice(&[1, 1, 1, 0]); // class=32, LE, version, SysV ABI
    out.extend_from_slice(&[0; 8]); // e_ident padding
    out.extend_from_slice(&ET_EXEC.to_le_bytes());
    out.extend_from_slice(&EM_RISCV.to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes()); // e_version
    out.extend_from_slice(&entry.to_le_bytes());
    out.extend_from_slice(&phoff.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // e_shoff: no sections
    out.extend_from_slice(&0u32.to_le_bytes()); // e_flags
    out.extend_from_slice(&(ehsize as u16).to_le_bytes());
    out.extend_from_slice(&(phentsize as u16).to_le_bytes());
    out.extend_from_slice(&(segments.len() as u16).to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // e_shentsize
    out.extend_from_slice(&0u16.to_le_bytes()); // e_shnum
    out.extend_from_slice(&0u16.to_le_bytes()); // e_shstrndx
    debug_assert_eq!(out.len() as u32, ehsize);

    let mut offset = data_start;
    for (vaddr, data) in segments {
        out.extend_from_slice(&PT_LOAD.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&vaddr.to_le_bytes());
        out.extend_from_slice(&vaddr.to_le_bytes()); // p_paddr
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(&5u32.to_le_bytes()); // p_flags: R+X
        out.extend_from_slice(&4u32.to_le_bytes()); // p_align
        offset += data.len() as u32;
    }
    for (_, data) in segments {
        out.extend_from_slice(data);
    }
    out
}

/// Assembles `source` with the in-repo assembler and wraps the code in
/// an ELF32 executable entered at address 0.
///
/// # Panics
///
/// Panics on assembly errors (fixture programs are workspace-internal).
pub fn elf_from_assembly(source: &str) -> Vec<u8> {
    let words = neuropulsim_riscv::asm::assemble(source).expect("fixture program must assemble");
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    write_elf32(0, &[(0, &bytes)])
}

/// What a dispatched syscall asked the caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallRet {
    /// Value to place in `a0` before resuming.
    pub a0: u32,
    /// Set when the program exited; execution must not resume.
    pub exit: Option<i32>,
}

/// Process state behind the syscall ABI: the program break and the
/// captured output streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallShim {
    /// Current program break.
    pub brk: u32,
    /// Lowest legal break (end of the loaded image, page-rounded).
    pub heap_base: u32,
    /// Highest legal break (stack reserve floor).
    pub heap_limit: u32,
    /// Bytes written to fd 1.
    pub stdout: Vec<u8>,
    /// Bytes written to fd 2.
    pub stderr: Vec<u8>,
    /// Total syscalls dispatched.
    pub calls: u64,
}

impl SyscallShim {
    /// A fresh process image with the heap between the two bounds.
    pub fn new(heap_base: u32, heap_limit: u32) -> Self {
        SyscallShim {
            brk: heap_base,
            heap_base,
            heap_limit,
            stdout: Vec::new(),
            stderr: Vec::new(),
            calls: 0,
        }
    }

    /// Dispatches one syscall: `nr` from `a7`, `args` from `a0..a2`.
    /// `read_byte` resolves guest addresses for `write`; returning
    /// `None` makes the buffer fault (`-EFAULT`).
    pub fn dispatch(
        &mut self,
        nr: u32,
        args: [u32; 3],
        read_byte: &mut dyn FnMut(u32) -> Option<u8>,
    ) -> SyscallRet {
        self.calls += 1;
        let done = |a0| SyscallRet { a0, exit: None };
        match nr {
            sysno::EXIT | sysno::EXIT_GROUP => SyscallRet {
                a0: args[0],
                exit: Some(args[0] as i32),
            },
            sysno::WRITE => {
                let [fd, buf, len] = args;
                if fd != 1 && fd != 2 {
                    return done(EBADF_RET);
                }
                let mut bytes = Vec::with_capacity(len as usize);
                for k in 0..len {
                    match read_byte(buf.wrapping_add(k)) {
                        Some(b) => bytes.push(b),
                        None => return done(EFAULT_RET),
                    }
                }
                if fd == 1 {
                    self.stdout.extend_from_slice(&bytes);
                } else {
                    self.stderr.extend_from_slice(&bytes);
                }
                done(len)
            }
            sysno::BRK => {
                let addr = args[0];
                // Linux semantics: success moves the break and returns
                // it; failure (or `brk(0)`) returns the current break.
                if addr >= self.heap_base && addr <= self.heap_limit {
                    self.brk = addr;
                }
                done(self.brk)
            }
            _ => done(ENOSYS_RET),
        }
    }
}

/// The result of running an ELF binary to completion.
#[derive(Debug, Clone)]
pub struct ElfRun {
    /// The underlying system run report (cycles span the whole program,
    /// across every syscall resume).
    pub report: RunReport,
    /// The code passed to `exit`, if the program exited.
    pub exit_code: Option<i32>,
    /// Bytes the program wrote to fd 1.
    pub stdout: Vec<u8>,
    /// Bytes the program wrote to fd 2.
    pub stderr: Vec<u8>,
    /// Syscalls dispatched.
    pub syscalls: u64,
}

fn poke_byte(ram: &mut Ram, addr: u32, value: u8) -> bool {
    let aligned = addr & !3;
    let Ok(word) = ram.peek(aligned) else {
        return false;
    };
    let shift = (addr & 3) * 8;
    let word = (word & !(0xffu32 << shift)) | (u32::from(value) << shift);
    ram.poke(aligned, word).is_ok()
}

fn peek_byte(ram: &Ram, addr: u32) -> Option<u8> {
    let word = ram.peek(addr & !3).ok()?;
    Some((word >> ((addr & 3) * 8)) as u8)
}

impl System {
    /// Loads an ELF32 executable into DRAM and points the CPU at its
    /// entry with a stack at the top of memory. Returns the parsed
    /// image (for the heap base).
    ///
    /// # Errors
    ///
    /// Returns an [`ElfError`] if the image is malformed or a segment
    /// does not fit in DRAM.
    pub(crate) fn load_elf(&mut self, bytes: &[u8]) -> Result<ElfImage, ElfError> {
        let image = parse_elf32(bytes)?;
        let dram_end = DRAM_BASE + DRAM_SIZE as u32;
        for seg in &image.segments {
            let size = seg.memsz.max(seg.data.len() as u32);
            // DRAM starts at address 0, so only the upper bound can fail.
            let fits = seg
                .vaddr
                .checked_add(size)
                .is_some_and(|end| end <= dram_end);
            if !fits {
                return Err(ElfError::SegmentOutOfRange {
                    vaddr: seg.vaddr,
                    memsz: size,
                });
            }
            for (k, &b) in seg.data.iter().enumerate() {
                poke_byte(&mut self.platform.dram, seg.vaddr + k as u32, b);
            }
            for k in seg.data.len() as u32..seg.memsz {
                poke_byte(&mut self.platform.dram, seg.vaddr + k, 0);
            }
        }
        self.cpu.pc = image.entry;
        // ABI stack: 16-byte aligned, just below the top of DRAM.
        self.cpu.set_reg(2, dram_end - 16);
        Ok(image)
    }

    /// Runs an ELF32 executable under the syscall shim until it exits,
    /// traps, or exhausts `max_cycles`. `ecall`s are serviced and
    /// execution resumes transparently, so the whole program — trace
    /// compiler, bulk scheduler and all — runs exactly as firmware
    /// does.
    ///
    /// # Errors
    ///
    /// Returns an [`ElfError`] if the image cannot be loaded.
    pub fn run_elf(&mut self, bytes: &[u8], max_cycles: u64) -> Result<ElfRun, ElfError> {
        let image = self.load_elf(bytes)?;
        let heap_base = (image.load_end() + 0xfff) & !0xfff;
        let heap_limit = (DRAM_BASE + DRAM_SIZE as u32).saturating_sub(STACK_RESERVE);
        let mut shim = SyscallShim::new(heap_base, heap_limit);
        let start_cycles = self.cpu.cycles;
        loop {
            let spent = self.cpu.cycles - start_cycles;
            let mut report = self.run(max_cycles.saturating_sub(spent));
            report.cycles = self.cpu.cycles - start_cycles;
            if spent >= max_cycles {
                report.outcome = RunOutcome::TimedOut;
            }
            match report.outcome {
                RunOutcome::Halted(Halt::Ecall) => {
                    let nr = self.cpu.reg(17);
                    let args = [self.cpu.reg(10), self.cpu.reg(11), self.cpu.reg(12)];
                    let dram = &self.platform.dram;
                    let ret = shim.dispatch(nr, args, &mut |addr| peek_byte(dram, addr));
                    if let Some(code) = ret.exit {
                        return Ok(ElfRun {
                            report,
                            exit_code: Some(code),
                            stdout: shim.stdout,
                            stderr: shim.stderr,
                            syscalls: shim.calls,
                        });
                    }
                    self.cpu.set_reg(10, ret.a0);
                }
                _ => {
                    return Ok(ElfRun {
                        report,
                        exit_code: None,
                        stdout: shim.stdout,
                        stderr: shim.stderr,
                        syscalls: shim.calls,
                    });
                }
            }
        }
    }
}

/// Real-binary workloads: complete RV32IM programs using the syscall
/// ABI (`brk` heap, `write` output, `exit` status), assembled in-repo
/// and wrapped as genuine ELF32 executables. Each has a pure-Rust
/// golden model next to it in the tests so expected output is derived
/// independently of any simulator.
pub mod workloads {
    use super::elf_from_assembly;

    /// Shared epilogue: `print(buf, len)` via `write(1, ..)`, then
    /// `exit(a0)`.
    const RUNTIME: &str = "
        # ---- runtime: print(a0=buf, a1=len), exit(a0=code) ----------
    print:
        mv   a2, a1
        mv   a1, a0
        li   a0, 1
        li   a7, 64          # write
        ecall
        ret
    exit:
        li   a7, 93          # exit
        ecall
        # not reached
    ";

    /// Decimal itoa + the shared runtime. `itoa`: a0 = value, a1 = buf
    /// end (exclusive); returns a0 = first byte, a1 = length.
    const ITOA: &str = "
    itoa:
        mv   t0, a1          # cursor (grows down)
        li   t1, 10
    itoa_loop:
        remu t2, a0, t1
        addi t2, t2, 48      # '0' + digit
        addi t0, t0, -1
        sb   t2, (t0)
        divu a0, a0, t1
        bnez a0, itoa_loop
        sub  a1, a1, t0      # length
        mv   a0, t0
        ret
    ";

    /// Sieve of Eratosthenes over a `brk`-allocated byte array.
    ///
    /// Counts the primes below 1000, prints `primes=<count>\n` and
    /// exits with the count (168).
    pub fn sieve_elf() -> Vec<u8> {
        let src = format!(
            "
            li   s11, 1000       # sieve limit
            # -- grow the heap for one flag byte per candidate --------
            li   a0, 0
            li   a7, 214         # brk(0): current break
            ecall
            mv   s0, a0          # s0 = flags[]
            add  a0, a0, s11
            li   a7, 214
            ecall                # brk(flags + limit)
            # -- clear flags ------------------------------------------
            mv   t0, s0
            add  t1, s0, s11
        clear:
            sb   zero, (t0)
            addi t0, t0, 1
            bltu t0, t1, clear
            # -- sieve ------------------------------------------------
            li   s1, 2           # candidate p
            li   s2, 0           # prime count
        outer:
            add  t0, s0, s1
            lbu  t0, (t0)
            bnez t0, next
            addi s2, s2, 1
            mul  t1, s1, s1      # first composite: p*p
        mark:
            bge  t1, s11, next
            add  t2, s0, t1
            li   t3, 1
            sb   t3, (t2)
            add  t1, t1, s1
            j    mark
        next:
            addi s1, s1, 1
            blt  s1, s11, outer
            # -- print 'primes=<count>' and exit with the count -------
            addi sp, sp, -32
            mv   a0, s2
            addi a1, sp, 32
            call itoa
            mv   s3, a0          # digits
            mv   s4, a1          # digit count
            li   t0, 0x6d697270  # 'prim'
            sw   t0, 0(sp)
            li   t0, 0x3d7365    # 'es='
            sw   t0, 4(sp)
            addi t1, sp, 7       # cursor past 'primes='
            mv   t2, s3
            add  t3, s3, s4
        copy:
            lbu  t4, (t2)
            sb   t4, (t1)
            addi t1, t1, 1
            addi t2, t2, 1
            bltu t2, t3, copy
            li   t4, 10          # newline
            sb   t4, (t1)
            addi t1, t1, 1
            mv   a0, sp
            sub  a1, t1, sp
            call print
            mv   a0, s2
            call exit
            {ITOA}
            {RUNTIME}
            "
        );
        elf_from_assembly(&src)
    }

    /// Number of values [`sort_elf`] sorts.
    pub(crate) const SORT_COUNT: u32 = 96;

    /// Insertion sort over a `brk`-allocated array of LCG words.
    ///
    /// Fills the array from the xorshift generator mirrored by
    /// [`sort_model`], sorts it (unsigned), folds a positional
    /// checksum, prints `sorted=<checksum>\n` and exits with
    /// `checksum % 251`.
    pub fn sort_elf() -> Vec<u8> {
        let src = format!(
            "
            li   s11, {count}    # element count
            li   a0, 0
            li   a7, 214
            ecall
            mv   s0, a0          # s0 = array
            slli t0, s11, 2
            add  a0, a0, t0
            li   a7, 214
            ecall
            # -- fill from xorshift32, seed 0x12345 -------------------
            li   s1, 0x12345
            li   t0, 0
        fill:
            slli t1, s1, 13
            xor  s1, s1, t1
            srli t1, s1, 17
            xor  s1, s1, t1
            slli t1, s1, 5
            xor  s1, s1, t1
            slli t1, t0, 2
            add  t1, t1, s0
            sw   s1, (t1)
            addi t0, t0, 1
            blt  t0, s11, fill
            # -- insertion sort (unsigned ascending) ------------------
            li   t0, 1           # i
        sort_outer:
            bge  t0, s11, sorted
            slli t1, t0, 2
            add  t1, t1, s0
            lw   t2, (t1)        # key
            mv   t3, t1          # slot cursor
        sort_inner:
            beq  t3, s0, place
            lw   t4, -4(t3)
            bgeu t2, t4, place
            sw   t4, (t3)
            addi t3, t3, -4
            j    sort_inner
        place:
            sw   t2, (t3)
            addi t0, t0, 1
            j    sort_outer
        sorted:
            # -- positional checksum: sum (v[i] ^ i) * (i + 1) --------
            li   s2, 0
            li   t0, 0
        fold:
            slli t1, t0, 2
            add  t1, t1, s0
            lw   t2, (t1)
            xor  t2, t2, t0
            addi t3, t0, 1
            mul  t2, t2, t3
            add  s2, s2, t2
            addi t0, t0, 1
            blt  t0, s11, fold
            # -- print 'sorted=<checksum>' ----------------------------
            addi sp, sp, -32
            mv   a0, s2
            addi a1, sp, 32
            call itoa
            mv   s3, a0
            mv   s4, a1
            li   t0, 0x74726f73  # 'sort'
            sw   t0, 0(sp)
            li   t0, 0x3d6465    # 'ed='
            sw   t0, 4(sp)
            addi t1, sp, 7
            mv   t2, s3
            add  t3, s3, s4
        copy:
            lbu  t4, (t2)
            sb   t4, (t1)
            addi t1, t1, 1
            addi t2, t2, 1
            bltu t2, t3, copy
            li   t4, 10
            sb   t4, (t1)
            addi t1, t1, 1
            mv   a0, sp
            sub  a1, t1, sp
            call print
            li   t0, 251
            remu a0, s2, t0
            call exit
            {ITOA}
            {RUNTIME}
            ",
            count = SORT_COUNT,
        );
        elf_from_assembly(&src)
    }

    /// Bytes [`crc_elf`] hashes.
    pub(crate) const CRC_LEN: u32 = 512;

    /// Bitwise CRC32 (poly `0xEDB88320`) over a `brk`-allocated buffer
    /// of generator bytes, mirrored by [`crc_model`]. Prints
    /// `crc=<value>\n` (decimal) and exits with `crc % 251`.
    pub fn crc_elf() -> Vec<u8> {
        let src = format!(
            "
            li   s11, {len}
            li   a0, 0
            li   a7, 214
            ecall
            mv   s0, a0          # s0 = buf
            add  a0, a0, s11
            li   a7, 214
            ecall
            # -- fill buf[i] = low byte of xorshift32 stream ----------
            li   s1, 0x6b8b4567
            li   t0, 0
        fill:
            slli t1, s1, 13
            xor  s1, s1, t1
            srli t1, s1, 17
            xor  s1, s1, t1
            slli t1, s1, 5
            xor  s1, s1, t1
            add  t1, t0, s0
            sb   s1, (t1)
            addi t0, t0, 1
            blt  t0, s11, fill
            # -- bitwise CRC32 ----------------------------------------
            li   s2, -1          # crc = 0xffffffff
            li   t0, 0           # index
            li   s3, 0xedb88320
        bytes:
            add  t1, t0, s0
            lbu  t1, (t1)
            xor  s2, s2, t1
            li   t2, 8
        bits:
            andi t3, s2, 1
            srli s2, s2, 1
            beqz t3, skip
            xor  s2, s2, s3
        skip:
            addi t2, t2, -1
            bnez t2, bits
            addi t0, t0, 1
            blt  t0, s11, bytes
            not  s2, s2          # final complement
            # -- print 'crc=<value>' ----------------------------------
            addi sp, sp, -32
            mv   a0, s2
            addi a1, sp, 32
            call itoa
            mv   s3, a0
            mv   s4, a1
            li   t0, 0x3d637263  # 'crc='
            sw   t0, 0(sp)
            addi t1, sp, 4
            mv   t2, s3
            add  t3, s3, s4
        copy:
            lbu  t4, (t2)
            sb   t4, (t1)
            addi t1, t1, 1
            addi t2, t2, 1
            bltu t2, t3, copy
            li   t4, 10
            sb   t4, (t1)
            addi t1, t1, 1
            mv   a0, sp
            sub  a1, t1, sp
            call print
            li   t0, 251
            remu a0, s2, t0
            call exit
            {ITOA}
            {RUNTIME}
            ",
            len = CRC_LEN,
        );
        elf_from_assembly(&src)
    }

    /// The xorshift32 step both generator programs use.
    pub(crate) fn xorshift32(state: &mut u32) -> u32 {
        *state ^= *state << 13;
        *state ^= *state >> 17;
        *state ^= *state << 5;
        *state
    }

    /// Golden model of [`sort_elf`]: returns `(checksum, exit_code)`.
    pub fn sort_model() -> (u32, i32) {
        let mut state = 0x12345u32;
        let mut values: Vec<u32> = (0..SORT_COUNT).map(|_| xorshift32(&mut state)).collect();
        values.sort_unstable();
        let checksum = values.iter().enumerate().fold(0u32, |acc, (i, &v)| {
            acc.wrapping_add((v ^ i as u32).wrapping_mul(i as u32 + 1))
        });
        (checksum, (checksum % 251) as i32)
    }

    /// Golden model of [`crc_elf`]: returns `(crc, exit_code)`.
    pub fn crc_model() -> (u32, i32) {
        let mut state = 0x6b8b4567u32;
        let bytes: Vec<u8> = (0..CRC_LEN).map(|_| xorshift32(&mut state) as u8).collect();
        let mut crc = 0xffff_ffffu32;
        for b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc = !crc;
        (crc, (crc % 251) as i32)
    }

    /// Golden model of [`sieve_elf`]: primes below 1000.
    pub fn sieve_model() -> u32 {
        let limit = 1000usize;
        let mut flags = vec![false; limit];
        let mut count = 0u32;
        for p in 2..limit {
            if !flags[p] {
                count += 1;
                let mut m = p * p;
                while m < limit {
                    flags[m] = true;
                    m += p;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elf_roundtrip_and_rejections() {
        let code = [0x93u8, 0x08, 0xd0, 0x05]; // li a7, 93
        let elf = write_elf32(0x40, &[(0x40, &code), (0x2000, &[1, 2, 3, 4])]);
        let image = parse_elf32(&elf).unwrap();
        assert_eq!(image.entry, 0x40);
        assert_eq!(image.segments.len(), 2);
        assert_eq!(image.segments[0].vaddr, 0x40);
        assert_eq!(image.segments[0].data, code);
        assert_eq!(image.segments[1].data, [1, 2, 3, 4]);
        assert_eq!(image.load_end(), 0x2004);

        assert_eq!(parse_elf32(b"not an elf"), Err(ElfError::BadMagic));
        let mut wrong_class = elf.clone();
        wrong_class[4] = 2; // 64-bit
        assert_eq!(parse_elf32(&wrong_class), Err(ElfError::UnsupportedFormat));
        let mut wrong_machine = elf.clone();
        wrong_machine[18] = 62; // x86-64
        wrong_machine[19] = 0;
        assert_eq!(
            parse_elf32(&wrong_machine),
            Err(ElfError::UnsupportedMachine(62))
        );
        let mut truncated = elf.clone();
        truncated.truncate(60);
        assert_eq!(parse_elf32(&truncated), Err(ElfError::Truncated));
    }

    #[test]
    fn segment_outside_dram_is_rejected() {
        let elf = write_elf32(0, &[(0x4000_0000, &[0u8; 8])]);
        let mut sys = System::new();
        assert!(matches!(
            sys.load_elf(&elf),
            Err(ElfError::SegmentOutOfRange { .. })
        ));
    }

    #[test]
    fn shim_brk_write_and_enosys() {
        let mut shim = SyscallShim::new(0x1000, 0x8000);
        let mem = [b'h', b'i', b'\n'];
        let mut read = |addr: u32| mem.get(addr.wrapping_sub(0x100) as usize).copied();

        // brk(0) probes, a legal brk moves, an illegal one is refused.
        assert_eq!(shim.dispatch(sysno::BRK, [0, 0, 0], &mut read).a0, 0x1000);
        assert_eq!(
            shim.dispatch(sysno::BRK, [0x2000, 0, 0], &mut read).a0,
            0x2000
        );
        assert_eq!(
            shim.dispatch(sysno::BRK, [0x9000, 0, 0], &mut read).a0,
            0x2000
        );

        assert_eq!(shim.dispatch(sysno::WRITE, [1, 0x100, 3], &mut read).a0, 3);
        assert_eq!(shim.stdout, b"hi\n");
        assert_eq!(
            shim.dispatch(sysno::WRITE, [7, 0x100, 3], &mut read).a0,
            EBADF_RET
        );
        assert_eq!(
            shim.dispatch(sysno::WRITE, [1, 0x1000, 3], &mut read).a0,
            EFAULT_RET
        );
        assert_eq!(shim.dispatch(17, [0, 0, 0], &mut read).a0, ENOSYS_RET);

        let exit = shim.dispatch(sysno::EXIT, [7, 0, 0], &mut read);
        assert_eq!(exit.exit, Some(7));
        assert_eq!(shim.calls, 8);
    }

    #[test]
    fn hello_binary_runs_to_completion() {
        // Build 'ok\n' on the stack, write it, exit(5).
        let elf = elf_from_assembly(
            "
            addi sp, sp, -16
            li   t0, 0x0a6b6f    # 'ok\\n'
            sw   t0, 0(sp)
            li   a0, 1
            mv   a1, sp
            li   a2, 3
            li   a7, 64
            ecall
            li   a0, 5
            li   a7, 93
            ecall
            ",
        );
        let mut sys = System::new();
        let run = sys.run_elf(&elf, 100_000).unwrap();
        assert_eq!(run.exit_code, Some(5));
        assert_eq!(run.stdout, b"ok\n");
        assert_eq!(run.syscalls, 2);
    }

    #[test]
    fn elf_workloads_match_their_golden_models() {
        let mut sys = System::new();
        let run = sys.run_elf(&workloads::sieve_elf(), 10_000_000).unwrap();
        let primes = workloads::sieve_model();
        assert_eq!(run.exit_code, Some(primes as i32));
        assert_eq!(run.stdout, format!("primes={primes}\n").as_bytes());

        let mut sys = System::new();
        let run = sys.run_elf(&workloads::sort_elf(), 10_000_000).unwrap();
        let (checksum, code) = workloads::sort_model();
        assert_eq!(run.exit_code, Some(code));
        assert_eq!(run.stdout, format!("sorted={checksum}\n").as_bytes());

        let mut sys = System::new();
        let run = sys.run_elf(&workloads::crc_elf(), 10_000_000).unwrap();
        let (crc, code) = workloads::crc_model();
        assert_eq!(run.exit_code, Some(code));
        assert_eq!(run.stdout, format!("crc={crc}\n").as_bytes());
    }
}
