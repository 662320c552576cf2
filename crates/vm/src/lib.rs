//! The emulator substrate of coplay: a deterministic virtual arcade machine.
//!
//! The ICDCS 2009 paper extends the MAME arcade emulator with a sync module;
//! the games themselves are untouched black boxes. This crate is the
//! from-scratch stand-in for that emulator:
//!
//! * [`InputWord`] / [`PortMap`] — the paper's input-as-binary-string model
//!   with per-site bit ownership (`SET[k]`).
//! * [`Machine`] — the deterministic, frame-stepped black box the sync layer
//!   replicates (determinism contract documented on the trait).
//! * [`Console`] — a complete small arcade board: 16-bit CPU
//!   ([`Cpu`], [`Instruction`]), 160×120 palettized video ([`FrameBuffer`]),
//!   a square-wave audio channel ([`AudioChannel`]), joypad ports, and a
//!   deterministic RNG, all driven at a fixed cycle budget per frame.
//! * [`assemble`] — a two-pass assembler so games ship as readable source.
//! * [`Rom`] — the distributable game image whose hash both sites compare
//!   before starting a session.
//!
//! # Examples
//!
//! Assemble a cartridge, run it, and verify replica convergence:
//!
//! ```
//! use coplay_vm::{assemble, Console, InputWord, Machine};
//!
//! let rom = assemble(
//!     r#"
//!     .title "Spinner"
//!     loop:
//!         rnd r1
//!         addi r0, 1
//!         yield
//!         jmp loop
//!     "#,
//! )?;
//!
//! let mut a = Console::new(rom.clone());
//! let mut b = Console::new(rom);
//! for _ in 0..120 {
//!     a.step_frame(InputWord::NONE);
//!     b.step_frame(InputWord::NONE);
//! }
//! assert_eq!(a.state_hash(), b.state_hash());
//! # Ok::<(), coplay_vm::AsmError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assembler;
mod audio;
mod console;
mod cpu;
mod dirty;
mod hash;
mod input;
mod isa;
mod machine;
mod rom;
mod video;

pub use assembler::{assemble, disassemble, AsmError};
pub use audio::{AudioChannel, SAMPLE_RATE};
pub use console::{Console, DEFAULT_CYCLES_PER_FRAME};
pub use cpu::{Cpu, Devices, Stop, MEM_SIZE, STACK_TOP};
pub use dirty::{DirtyPages, DirtyRanges, PAGE_SIZE as DIRTY_PAGE_SIZE};
pub use hash::{fnv1a, StateHasher};
pub use input::{Button, InputWord, Player, PortMap};
pub use isa::{Instruction, Reg, Syscall, INSTR_SIZE};
pub use machine::{InterpStats, Machine, MachineInfo, NullMachine, StateError, StepMode};
pub use rom::{Rom, RomBuilder, RomError};
pub use video::{Color, FrameBuffer, HEIGHT, PALETTE, WIDTH};
