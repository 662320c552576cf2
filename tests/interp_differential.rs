//! Behaviour pins for the console's interpreter.
//!
//! The console has one fetch–decode–execute loop. These tests pin what it
//! must keep doing: every ROM's per-frame hash timeline (recorded in
//! `tests/golden/rom_hash_golden.txt`), rollback restores that land on
//! exactly the right state, presented and headless stepping that agree,
//! self-modifying code that sees its own patches, and dirty-page capture
//! and restore that match a full-image scan.

use coplay_games::{rom_pong_console, rom_race_console};
use coplay_vm::{
    Console, InputWord, Instruction, Machine, Reg, Rom, StepMode, DEFAULT_CYCLES_PER_FRAME,
};

type MakeConsole = fn() -> Console;

/// Deterministic per-frame input pattern exercising several buttons.
fn input_for(frame: u64) -> InputWord {
    let mut z = frame.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    InputWord((z as u32) & 0x0F0F)
}

const ROM_GAMES: [(&str, MakeConsole); 2] = [
    ("ROM Pong", rom_pong_console as MakeConsole),
    ("Button Race", rom_race_console as MakeConsole),
];

/// A restore after mispredicted frames, then resimulation with the
/// corrected inputs, retraces the hash timeline of a console that only
/// ever saw the corrected inputs.
#[test]
fn rollback_resimulation_retraces_a_straight_run() {
    for (name, build) in ROM_GAMES {
        let mut rolled = build();
        let mut straight = build();
        for frame in 0..40 {
            rolled.step_frame(input_for(frame));
            straight.step_frame(input_for(frame));
        }
        let snap = rolled.save_state();

        // Speculate ahead on the wrong input stream...
        for frame in 40..60 {
            rolled.step_frame(input_for(frame * 7 + 1));
        }
        assert_ne!(
            rolled.state_hash(),
            straight.state_hash(),
            "{name}: the mispredicted frames must change the state"
        );

        // ...then roll back and resimulate with the corrected inputs,
        // exactly what a rollback session's repair does.
        rolled.load_state(&snap).unwrap();
        assert_eq!(
            rolled.state_hash(),
            straight.state_hash(),
            "{name}: hashes diverged right after restore"
        );
        for frame in 40..80 {
            let input = input_for(frame);
            rolled.step_frame(input);
            straight.step_frame(input);
            assert_eq!(
                rolled.state_hash(),
                straight.state_hash(),
                "{name}: resimulation diverged at frame {frame}"
            );
        }
    }
}

/// Presented and headless stepping must hold the same core state hash on
/// every frame — including through a forced rollback/restore — because
/// headless stepping only skips *rendering* side effects, never
/// architectural ones.
#[test]
fn interp_and_step_mode_matrix_stays_hash_identical_through_rollback() {
    for (name, build) in ROM_GAMES {
        let mut lanes = [(build(), StepMode::Present), (build(), StepMode::Headless)];
        let check = |lanes: &[(Console, StepMode); 2], frame: u64| {
            assert_eq!(
                lanes[1].0.state_hash(),
                lanes[0].0.state_hash(),
                "{name}: headless diverged from presented at frame {frame}"
            );
        };

        for frame in 0..60 {
            let input = input_for(frame);
            for (console, mode) in lanes.iter_mut() {
                console.step_frame_mode(input, *mode);
            }
            check(&lanes, frame);
        }

        // Forced rollback: snapshot, speculate on wrong inputs, restore,
        // resimulate corrected — exactly what a repair pass does, with the
        // repair frames themselves stepped in each lane's own mode.
        let snaps = lanes.each_ref().map(|(c, _)| c.save_state());
        for frame in 60..75 {
            let input = input_for(frame * 13 + 5);
            for (console, mode) in lanes.iter_mut() {
                console.step_frame_mode(input, *mode);
            }
        }
        for ((console, mode), snap) in lanes.iter_mut().zip(&snaps) {
            console
                .load_state(snap)
                .unwrap_or_else(|e| panic!("{name}/{mode:?}: restore failed: {e}"));
        }
        check(&lanes, 60);
        for frame in 60..90 {
            let input = input_for(frame);
            for (console, mode) in lanes.iter_mut() {
                console.step_frame_mode(input, *mode);
            }
            check(&lanes, frame);
        }
    }
}

/// Headless repair must be invisible once a frame is presented: running
/// N-1 frames headless plus one presented frame leaves pixels, rendered
/// audio, and state byte-identical to an all-present run.
#[test]
fn headless_then_present_matches_an_all_present_run_exactly() {
    for (name, build) in ROM_GAMES {
        let mut repaired = build();
        let mut presented = build();
        const N: u64 = 48;
        for frame in 0..N {
            let input = input_for(frame);
            let mode = if frame + 1 == N {
                StepMode::Present
            } else {
                StepMode::Headless
            };
            repaired.step_frame_mode(input, mode);
            presented.step_frame(input);
        }
        assert_eq!(
            repaired.framebuffer().pixels(),
            presented.framebuffer().pixels(),
            "{name}: final presented pixels differ"
        );
        assert_eq!(
            repaired.audio_samples(),
            presented.audio_samples(),
            "{name}: final presented audio differs"
        );
        assert_eq!(repaired.state_hash(), presented.state_hash(), "{name}");
        assert_eq!(
            repaired.save_state(),
            presented.save_state(),
            "{name}: serialized state differs"
        );
    }
}

/// A program that patches its own instruction stream every frame: it
/// stores the frame counter into the immediate of a later `ldi`.
fn smc_rom() -> Rom {
    let program: Vec<u8> = [
        Instruction::In(Reg(4), 2),          // 0x00: r4 = frame counter low
        Instruction::Ldi(Reg(3), 0x12),      // 0x04: address of the imm low byte below
        Instruction::Stb(Reg(3), Reg(4), 0), // 0x08: patch the ldi
        Instruction::Nop,                    // 0x0C
        Instruction::Ldi(Reg(1), 0xAA00),    // 0x10: imm low byte lives at 0x12
        Instruction::Yield,                  // 0x14
        Instruction::Jmp(0),                 // 0x18
    ]
    .iter()
    .flat_map(|i| i.encode())
    .collect();
    Rom::builder("SMC Probe").image(program).build()
}

/// A self-modifying program whose store lands in the immediate of the
/// second of two adjacent `ldi`s. The title is part of the ROM hash the
/// golden timeline pins.
fn fused_smc_rom() -> Rom {
    let program: Vec<u8> = [
        Instruction::In(Reg(4), 2),          // 0x00: r4 = frame counter low
        Instruction::Ldi(Reg(3), 0x1A),      // 0x04: imm low byte of the second ldi
        Instruction::Stb(Reg(3), Reg(4), 0), // 0x08: patch the second ldi
        Instruction::Nop,                    // 0x0C
        Instruction::Nop,                    // 0x10
        Instruction::Ldi(Reg(1), 0x5500),    // 0x14
        Instruction::Ldi(Reg(2), 0xAA00),    // 0x18: imm low byte at 0x1A
        Instruction::Yield,                  // 0x1C
        Instruction::Jmp(0),                 // 0x20
    ]
    .iter()
    .flat_map(|i| i.encode())
    .collect();
    Rom::builder("Fused SMC Probe").image(program).build()
}

/// Steps `rom` for 200 frames in a presented and a headless console. On
/// frame f the program reads frame counter f and patches its own `ldi`,
/// so `patched` must hold `0xAA00 | (f & 0xFF)` in both consoles, and the
/// two must agree on the state hash. `check` adds per-probe assertions.
fn run_smc_probe(rom: fn() -> Rom, patched: Reg, check: impl Fn(&Console, u64)) {
    let mut present = Console::new(rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME);
    let mut headless = Console::new(rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME);
    for frame in 0..200u64 {
        present.step_frame_mode(InputWord::NONE, StepMode::Present);
        headless.step_frame_mode(InputWord::NONE, StepMode::Headless);
        assert_eq!(
            present.state_hash(),
            headless.state_hash(),
            "state diverged at frame {frame}"
        );
        let expect = 0xAA00 | (frame as u16 & 0x00FF);
        for console in [&present, &headless] {
            assert_eq!(console.cpu().reg(patched), expect, "frame {frame}");
            check(console, frame);
        }
    }
}

/// The store into a later `ldi`'s immediate is seen by the very next
/// fetch of that `ldi`: the interpreter decodes straight from memory, so
/// no stale decode can be replayed.
#[test]
fn self_modifying_code_invalidates_precisely_and_stays_equivalent() {
    run_smc_probe(smc_rom, Reg(1), |_, _| {});
}

/// The store lands in the second of two adjacent `ldi`s: that one loads
/// the patched immediate every frame, while its unpatched neighbour keeps
/// loading its own constant.
#[test]
fn store_into_a_fused_pair_tail_invalidates_the_whole_slot() {
    run_smc_probe(fused_smc_rom, Reg(2), |console, frame| {
        assert_eq!(console.cpu().reg(Reg(1)), 0x5500, "frame {frame}");
    });
}

/// The two ROM games and the two self-modifying probes.
const ALL_ROMS: [(&str, MakeConsole); 4] = [
    ("ROM Pong", rom_pong_console as MakeConsole),
    ("Button Race", rom_race_console as MakeConsole),
    ("SMC Probe", || {
        Console::new(smc_rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME)
    }),
    ("Fused SMC Probe", || {
        Console::new(fused_smc_rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME)
    }),
];

/// Dirty-bitmap fuzz lanes: the bitmap-guided capture stream must stay
/// byte-identical to a full-image scan of a second console fed the same
/// inputs — through a forced rollback and both self-modifying probes.
///
/// Each lane keeps ONE dirty capture stream (`tail`) alive on the traced
/// console, rewritten in place from the reported dirty ranges every
/// frame. A mid-run `load_state` checks the saturate-on-restore contract:
/// the very next dirty capture must absorb the whole image.
#[test]
fn dirty_capture_stays_byte_identical_to_reference_full_scan() {
    for (name, build) in ALL_ROMS {
        let mut traced = build();
        let mut oracle = build();

        let mut tail = Vec::new();
        traced.save_state_into(&mut tail);
        let mut dirty = coplay_vm::DirtyPages::default();
        let mut full = Vec::new();
        let mut snap = None;
        for frame in 0..90u64 {
            let input = input_for(frame);
            traced.step_frame(input);
            oracle.step_frame(input);
            traced.collect_dirty_into(&mut dirty);
            traced.save_state_ranges_into(&mut tail, &dirty);
            full.clear();
            oracle.save_state_into(&mut full);
            assert_eq!(
                tail, full,
                "{name}: dirty capture diverged from the full scan at frame {frame}"
            );
            if frame == 40 {
                snap = Some(full.clone());
            }
            if frame == 70 {
                // Forced rollback: a full-image load must saturate the
                // accumulators so the next dirty capture rewrites all of
                // `tail`, not just the resimulated frame's pages.
                let snap = snap.as_ref().expect("snapshot taken at frame 40");
                traced.load_state(snap).unwrap();
                oracle.load_state(snap).unwrap();
                traced.collect_dirty_into(&mut dirty);
                traced.save_state_ranges_into(&mut tail, &dirty);
                full.clear();
                oracle.save_state_into(&mut full);
                assert_eq!(
                    tail, full,
                    "{name}: capture stream incoherent right after a full restore"
                );
            }
        }
    }
}

/// Bitmap-guided ring restores land on exactly the state a from-scratch
/// replay reaches, for both ROM games and both self-modifying probes,
/// across a rollback depth that crosses checkpoint boundaries, and the
/// restored console keeps tracking the replay afterwards.
#[test]
fn bitmap_guided_ring_restore_matches_reference_resimulation() {
    for (name, build) in ALL_ROMS {
        let mut restored = build();
        let mut ring = coplay_rollback::SnapshotRing::new(12);

        for frame in 0..60u64 {
            restored.step_frame(input_for(frame));
            if frame % 4 == 0 {
                ring.checkpoint_from(frame, restored.state_hash(), &mut restored);
            }
        }

        // Rewind to the floor checkpoint of frame 49 with the O(dirty)
        // path; rewind the oracle by replaying from scratch.
        let mut dirty = coplay_vm::DirtyPages::default();
        restored.collect_dirty_into(&mut dirty);
        let mut buf = Vec::new();
        let info = ring.rewind_into(49, &mut buf, &mut dirty).unwrap();
        assert_eq!(info.frame, 48, "{name}: floor checkpoint");
        restored.load_state_dirty(&buf, &dirty).unwrap();

        let mut oracle = build();
        for frame in 0..49u64 {
            oracle.step_frame(input_for(frame));
        }
        assert_eq!(
            restored.state_hash(),
            oracle.state_hash(),
            "{name}: bitmap-guided restore diverged from a from-scratch replay"
        );

        // Resimulate with corrected inputs; the restored console must
        // track the replay exactly.
        for frame in 49..80u64 {
            let input = input_for(frame * 3 + 1);
            restored.step_frame(input);
            oracle.step_frame(input);
            assert_eq!(
                restored.state_hash(),
                oracle.state_hash(),
                "{name}: post-restore resimulation diverged at frame {frame}"
            );
        }
    }
}

/// Frames each ROM runs for the hash golden.
const GOLDEN_FRAMES: u64 = 300;
/// Frame at which every golden lane is forced through one
/// snapshot–speculate–restore–resimulate cycle.
const GOLDEN_RESTORE_AT: u64 = 150;
/// Mispredicted frames stepped between the snapshot and the restore.
const GOLDEN_SPECULATED: u64 = 20;

/// One golden lane: a console stepped in one [`StepMode`] and restored
/// either from a full image (`ring == None`) or through a checkpoint ring
/// rewind plus `load_state_dirty`.
struct GoldenLane {
    label: String,
    console: Console,
    mode: StepMode,
    ring: Option<coplay_rollback::SnapshotRing>,
    restore_buf: Vec<u8>,
    snap: Vec<u8>,
}

impl GoldenLane {
    fn step(&mut self, frame: u64, input: InputWord) {
        if let Some(ring) = self.ring.as_mut() {
            // The resimulated restore frame keeps the checkpoint it
            // was rewound to.
            if frame.is_multiple_of(10) && ring.newest_frame() != Some(frame) {
                let hash = self.console.state_hash();
                ring.checkpoint_from(frame, hash, &mut self.console);
            }
        }
        self.console.step_frame_mode(input, self.mode);
    }

    fn snapshot(&mut self) {
        if self.ring.is_none() {
            self.console.save_state_into(&mut self.snap);
        }
    }

    fn restore(&mut self, frame: u64) {
        match self.ring.as_mut() {
            None => self.console.load_state(&self.snap).unwrap(),
            Some(ring) => {
                let mut dirty = coplay_vm::DirtyPages::default();
                self.console.collect_dirty_into(&mut dirty);
                let info = ring
                    .rewind_into(frame, &mut self.restore_buf, &mut dirty)
                    .unwrap();
                assert_eq!(info.frame, frame, "{}: floor checkpoint", self.label);
                self.console
                    .load_state_dirty(&self.restore_buf, &dirty)
                    .unwrap();
            }
        }
    }
}

/// Renders one ROM's golden timeline: `spec`, `restored` and `frame`
/// lines carry the state hash every lane agrees on, and each `frame`
/// line also carries the presented lane's pixel digest.
fn render_golden_rom(out: &mut String, name: &str, build: MakeConsole) {
    use std::fmt::Write as _;
    let mut lanes: Vec<GoldenLane> = Vec::new();
    for (mode, ring) in [(StepMode::Present, false), (StepMode::Headless, true)] {
        let console = build();
        // A restore buffer already the state's length lets the first
        // rewind take the O(dirty) path rather than a full copy.
        let restore_buf = console.save_state();
        lanes.push(GoldenLane {
            label: format!("{name}/{mode:?}"),
            console,
            mode,
            ring: ring.then(|| coplay_rollback::SnapshotRing::new(8)),
            restore_buf,
            snap: Vec::new(),
        });
    }
    let agreed = |lanes: &[GoldenLane], what: &str, frame: u64| {
        let hash = lanes[0].console.state_hash();
        for lane in &lanes[1..] {
            assert_eq!(
                lane.console.state_hash(),
                hash,
                "{}: {what} {frame} diverged from {}",
                lane.label,
                lanes[0].label
            );
        }
        hash
    };
    for frame in 0..GOLDEN_FRAMES {
        if frame == GOLDEN_RESTORE_AT {
            for lane in lanes.iter_mut() {
                lane.snapshot();
            }
            for f in frame..frame + GOLDEN_SPECULATED {
                for lane in lanes.iter_mut() {
                    lane.step(f, input_for(f * 7 + 1));
                }
                let hash = agreed(&lanes, "spec", f);
                writeln!(out, "{name} spec {f} {hash:016x}").unwrap();
            }
            for lane in lanes.iter_mut() {
                lane.restore(frame);
            }
            let hash = agreed(&lanes, "restored", frame);
            writeln!(out, "{name} restored {frame} {hash:016x}").unwrap();
        }
        for lane in lanes.iter_mut() {
            lane.step(frame, input_for(frame));
        }
        let hash = agreed(&lanes, "frame", frame);
        let pixels = coplay_vm::fnv1a(lanes[0].console.framebuffer().pixels());
        writeln!(out, "{name} frame {frame} {hash:016x} {pixels:016x}").unwrap();
    }
}

/// Behaviour pin for the console interpreter. Four ROMs — both bundled
/// ROM games and both self-modifying probes — run [`GOLDEN_FRAMES`]
/// frames of [`input_for`] in a presented lane restored from a full image
/// and a headless lane restored through a checkpoint ring, with one
/// forced restore/resimulate at [`GOLDEN_RESTORE_AT`]. Both lanes must
/// agree on every hash, and the agreed timeline must match
/// `tests/golden/rom_hash_golden.txt` byte for byte.
///
/// The golden file was recorded while the VM still had a second,
/// predecoded-dispatch interpreter, with both lanes run on both
/// interpreters and all four asserted equal. It is the reference the single
/// interpreter is held to, so it must never be regenerated to make a
/// behaviour change pass. On a mismatch the rendered text is written to
/// `rom_hash_golden.actual.txt` under Cargo's integration-test scratch
/// directory.
#[test]
fn rom_hash_timelines_match_the_recorded_golden_data() {
    let mut actual = String::new();
    for (name, build) in ALL_ROMS {
        render_golden_rom(&mut actual, name, build);
    }
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/rom_hash_golden.txt"
    );
    let golden = std::fs::read_to_string(golden_path).expect("golden data present");
    if actual != golden {
        let dump =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("rom_hash_golden.actual.txt");
        let _ = std::fs::write(&dump, &actual);
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!(
            "interpreter behaviour drifted from the golden data at line {} (actual written to {})",
            first + 1,
            dump.display()
        );
    }
}
