//! The timing wrappers must be invisible to the program: a wrapped run and
//! a bare run give identical per-frame hash timelines and identical
//! checkpoint byte counts. A wrapper that let a defaulted trait method fall
//! back to its default would fail here — the ROM consoles would take the
//! full-image checkpoint path and the ring would hold far more bytes.
//!
//! The duels run sans-io on virtual time over in-process links, so both
//! variants see exactly the same message order and the comparison is
//! exact.

use coplay_clock::{SimDuration, SimTime};
use coplay_e2ebench::duel::presser;
use coplay_e2ebench::trace::{self, Layer};
use coplay_e2ebench::wrap::{Delayed, Stamped, TimedDriver, TimedMachine, TimedTransport};
use coplay_games::{rom_pong_console, rom_race_console};
use coplay_net::{loopback, PeerId};
use coplay_rollback::RollbackSession;
use coplay_sync::{ConsistencyMode, LockstepSession, SessionDriver, Step, SyncConfig};
use coplay_vm::{Console, DirtyPages, InputWord, Machine, StepMode};

const FRAMES: u64 = 240;

/// Ticks both sites on a 1 ms virtual clock until each executed `FRAMES`
/// frames, calling `after` after every tick. Returns each site's
/// per-frame report hashes.
fn drive<D: SessionDriver>(
    sites: &mut [D; 2],
    mut after: impl FnMut(usize, &mut D),
) -> [Vec<u64>; 2] {
    let mut hashes: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut now = SimTime::ZERO;
    for _ in 0..200_000 {
        for (i, site) in sites.iter_mut().enumerate() {
            if hashes[i].len() as u64 >= FRAMES {
                site.pump(now).expect("pump");
            } else if let Step::FrameDone { report, .. } = site.tick(now).expect("tick") {
                hashes[i].push(report.state_hash.expect("frame hashes are on"));
            }
            after(i, site);
        }
        if hashes.iter().all(|h| h.len() as u64 >= FRAMES) {
            break;
        }
        now += SimDuration::from_millis(1);
    }
    assert!(
        hashes.iter().all(|h| h.len() as u64 >= FRAMES),
        "duel stalled"
    );
    hashes
}

fn rollback_cfg(site: u8) -> SyncConfig {
    let mut cfg = SyncConfig::two_player(site);
    cfg.consistency = ConsistencyMode::rollback();
    // No local lag: every remote input arrives after its frame ran, so the
    // run exercises prediction, rollback, checkpoints and restores.
    cfg.buf_frames = 0;
    cfg
}

/// Confirmed (frame, hash) timelines and final checkpoint-ring bytes.
type RollbackResult = ([Vec<(u64, u64)>; 2], [usize; 2], [Vec<u64>; 2]);

fn rollback_bare() -> RollbackResult {
    let (a, b) = loopback(PeerId(0), PeerId(1));
    let mut sites = [
        RollbackSession::new(rollback_cfg(0), rom_race_console(), a, presser(9, 0)),
        RollbackSession::new(rollback_cfg(1), rom_race_console(), b, presser(9, 1)),
    ];
    let mut confirmed: [Vec<(u64, u64)>; 2] = [Vec::new(), Vec::new()];
    let presented = drive(&mut sites, |i, s| confirmed[i].extend(s.take_confirmed()));
    let bytes = [sites[0].checkpoint_bytes(), sites[1].checkpoint_bytes()];
    (confirmed, bytes, presented)
}

fn rollback_wrapped() -> RollbackResult {
    let (a, b) = loopback(PeerId(0), PeerId(1));
    let wrap = |site: u8, link| {
        let net = Delayed::new(TimedTransport::net(link, site), 0, site);
        let (source, _) = Stamped::new(presser(9, site));
        let machine = TimedMachine::new(rom_race_console(), site);
        TimedDriver::new(
            RollbackSession::new(
                rollback_cfg(site),
                machine,
                TimedTransport::relay_client(net, site),
                source,
            ),
            site,
        )
    };
    let mut sites = [wrap(0, a), wrap(1, b)];
    let mut confirmed: [Vec<(u64, u64)>; 2] = [Vec::new(), Vec::new()];
    let presented = drive(&mut sites, |i, s| {
        confirmed[i].extend(s.inner_mut().take_confirmed())
    });
    let bytes = [
        sites[0].inner_mut().checkpoint_bytes(),
        sites[1].inner_mut().checkpoint_bytes(),
    ];
    (confirmed, bytes, presented)
}

#[test]
fn rollback_duel_is_identical_wrapped_and_bare() {
    let bare = rollback_bare();
    trace::set_enabled(true);
    let wrapped = rollback_wrapped();
    let spans = trace::take();
    trace::set_enabled(false);

    assert!(
        bare.0[0].len() as u64 >= FRAMES / 2,
        "too few confirmed frames to compare"
    );
    assert_eq!(bare.0, wrapped.0, "confirmed hash timelines differ");
    assert_eq!(bare.2, wrapped.2, "presented hash timelines differ");
    assert_eq!(bare.1, wrapped.1, "checkpoint-ring bytes differ");
    // The ROM image is ~85 KiB; O(dirty) checkpoints keep the ring far
    // below one full image per retained checkpoint.
    assert!(
        bare.1[0] < 4 * 85 * 1024,
        "ring holds {} bytes: full-image fallback?",
        bare.1[0]
    );
    // The run really rolled back through the wrappers.
    for layer in [
        Layer::VmResim,
        Layer::VmRestore,
        Layer::VmCheckpoint,
        Layer::VmCollect,
    ] {
        assert!(
            spans.iter().any(|s| s.layer == layer),
            "no {layer:?} span recorded"
        );
    }
}

#[test]
fn lockstep_duel_is_identical_wrapped_and_bare() {
    let (a, b) = loopback(PeerId(0), PeerId(1));
    let mut bare = [
        LockstepSession::new(
            SyncConfig::two_player(0),
            rom_pong_console(),
            a,
            presser(5, 0),
        ),
        LockstepSession::new(
            SyncConfig::two_player(1),
            rom_pong_console(),
            b,
            presser(5, 1),
        ),
    ];
    let bare_hashes = drive(&mut bare, |_, _| {});

    let (a, b) = loopback(PeerId(0), PeerId(1));
    let wrap = |site: u8, link| {
        let (source, _) = Stamped::new(presser(5, site));
        let cfg = SyncConfig::two_player(site);
        let machine = TimedMachine::new(rom_pong_console(), site);
        TimedDriver::new(
            LockstepSession::new(cfg, machine, TimedTransport::net(link, site), source),
            site,
        )
    };
    let mut wrapped = [wrap(0, a), wrap(1, b)];
    let wrapped_hashes = drive(&mut wrapped, |_, _| {});

    assert_eq!(
        bare_hashes, wrapped_hashes,
        "lockstep hash timelines differ"
    );
    assert_eq!(bare_hashes[0], bare_hashes[1], "sites diverged");
    assert_eq!(wrapped[0].frames().len() as u64, FRAMES);
}

/// Every `Machine` method, defaulted ones included, gives the same result
/// through the wrapper as on the bare console.
#[test]
fn timed_machine_forwards_every_method() {
    let mut bare: Console = rom_race_console();
    let mut wrapped = TimedMachine::new(rom_race_console(), 0);
    assert_eq!(bare.info(), wrapped.info());
    let (mut img_b, mut img_w) = (Vec::new(), Vec::new());
    bare.save_state_into(&mut img_b);
    wrapped.save_state_into(&mut img_w);
    assert_eq!(img_b, img_w);
    let (mut d_b, mut d_w) = (DirtyPages::default(), DirtyPages::default());
    for f in 0..40u32 {
        let input = InputWord(f.wrapping_mul(0x9E37) & 0x3F3F);
        let mode = if f % 3 == 0 {
            StepMode::Headless
        } else {
            StepMode::Present
        };
        if f % 2 == 0 {
            bare.step_frame(input);
            wrapped.step_frame(input);
        } else {
            bare.step_frame_mode(input, mode);
            wrapped.step_frame_mode(input, mode);
        }
        assert_eq!(bare.frame(), wrapped.frame());
        assert_eq!(bare.state_hash(), wrapped.state_hash());
        match f % 4 {
            0 => {
                bare.collect_dirty_into(&mut d_b);
                wrapped.collect_dirty_into(&mut d_w);
                assert_eq!(d_b, d_w);
                bare.save_state_ranges_into(&mut img_b, &d_b);
                wrapped.save_state_ranges_into(&mut img_w, &d_w);
            }
            1 => {
                bare.save_state_dirty_into(&mut img_b, &mut d_b);
                wrapped.save_state_dirty_into(&mut img_w, &mut d_w);
                assert_eq!(d_b, d_w);
            }
            2 => assert_eq!(bare.take_dirty_pages(), wrapped.take_dirty_pages()),
            _ => assert_eq!(bare.save_state(), wrapped.save_state()),
        }
        assert_eq!(img_b, img_w, "frame {f}: captured images differ");
    }
    assert!(
        !d_b.is_all(),
        "the console tracks dirty pages: the ranged path ran"
    );
    assert_eq!(bare.framebuffer(), wrapped.framebuffer());
    assert_eq!(bare.audio_samples(), wrapped.audio_samples());
    assert_eq!(bare.interp_stats(), wrapped.interp_stats());
    assert!(bare.interp_stats().is_some());

    // Restores: a dirty-bounded one to an earlier image, then a full one.
    let snapshot = bare.save_state();
    for f in 0..5u32 {
        bare.step_frame(InputWord(f));
        wrapped.step_frame(InputWord(f));
    }
    bare.collect_dirty_into(&mut d_b);
    wrapped.collect_dirty_into(&mut d_w);
    bare.load_state_dirty(&snapshot, &d_b)
        .expect("bare restore");
    wrapped
        .load_state_dirty(&snapshot, &d_w)
        .expect("wrapped restore");
    assert_eq!(bare.state_hash(), wrapped.state_hash());
    bare.load_state(&img_b).expect("bare load");
    wrapped.load_state(&img_w).expect("wrapped load");
    assert_eq!(bare.state_hash(), wrapped.state_hash());
    bare.reset();
    wrapped.reset();
    assert_eq!(bare.state_hash(), wrapped.state_hash());
    assert_eq!(wrapped.inner().frame(), 0);
}

/// Spans nest: a child lies inside its parent and self time excludes it.
#[test]
fn spans_nest_and_self_time_excludes_children() {
    trace::set_enabled(true);
    let outer = trace::open(Layer::SessionTick, 0, 1);
    let inner = trace::open(Layer::VmStep, 0, 1);
    std::thread::sleep(std::time::Duration::from_millis(2));
    trace::close(inner, 0);
    trace::close(outer, 0);
    let spans = trace::take();
    trace::set_enabled(false);
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    assert!(
        spans[0].self_ns() < spans[1].dur_ns(),
        "outer self time still counts the child"
    );
    assert_eq!(
        trace::open(Layer::VmStep, 0, 0),
        None,
        "recording is off again"
    );
}

mod probes {
    //! Fakes that log which trait method reached them, so each wrapper
    //! method can be checked to call the same method on the wrapped value
    //! rather than a trait default.

    use std::cell::RefCell;
    use std::rc::Rc;

    use coplay_clock::SimTime;
    use coplay_net::{PeerId, Transport, TransportError};
    use coplay_sync::{InputSource, SessionDriver, SessionStats, Step, SyncConfig, SyncError};
    use coplay_vm::{
        DirtyPages, FrameBuffer, InputWord, InterpStats, Machine, MachineInfo, StateError, StepMode,
    };

    pub type Log = Rc<RefCell<Vec<&'static str>>>;

    pub struct ProbeMachine {
        pub log: Log,
        pub fb: FrameBuffer,
    }

    impl ProbeMachine {
        fn hit(&self, name: &'static str) {
            self.log.borrow_mut().push(name);
        }
    }

    impl Machine for ProbeMachine {
        fn info(&self) -> MachineInfo {
            self.hit("info");
            MachineInfo::new("probe", 2)
        }
        fn reset(&mut self) {
            self.hit("reset");
        }
        fn step_frame(&mut self, _: InputWord) {
            self.hit("step_frame");
        }
        fn step_frame_mode(&mut self, _: InputWord, _: StepMode) {
            self.hit("step_frame_mode");
        }
        fn frame(&self) -> u64 {
            0
        }
        fn framebuffer(&self) -> &FrameBuffer {
            self.hit("framebuffer");
            &self.fb
        }
        fn audio_samples(&self) -> &[i16] {
            self.hit("audio_samples");
            &[]
        }
        fn state_hash(&self) -> u64 {
            self.hit("state_hash");
            0
        }
        fn save_state(&self) -> Vec<u8> {
            self.hit("save_state");
            Vec::new()
        }
        fn save_state_into(&self, _: &mut Vec<u8>) {
            self.hit("save_state_into");
        }
        fn load_state(&mut self, _: &[u8]) -> Result<(), StateError> {
            self.hit("load_state");
            Ok(())
        }
        fn save_state_dirty_into(&mut self, _: &mut Vec<u8>, _: &mut DirtyPages) {
            self.hit("save_state_dirty_into");
        }
        fn collect_dirty_into(&mut self, _: &mut DirtyPages) {
            self.hit("collect_dirty_into");
        }
        fn take_dirty_pages(&mut self) -> DirtyPages {
            self.hit("take_dirty_pages");
            DirtyPages::default()
        }
        fn save_state_ranges_into(&self, _: &mut Vec<u8>, _: &DirtyPages) {
            self.hit("save_state_ranges_into");
        }
        fn load_state_dirty(&mut self, _: &[u8], _: &DirtyPages) -> Result<(), StateError> {
            self.hit("load_state_dirty");
            Ok(())
        }
        fn interp_stats(&self) -> Option<InterpStats> {
            self.hit("interp_stats");
            None
        }
    }

    pub struct ProbeTransport(pub Log);

    impl Transport for ProbeTransport {
        fn local_id(&self) -> PeerId {
            self.0.borrow_mut().push("local_id");
            PeerId(0)
        }
        fn send(&mut self, _: PeerId, _: &[u8]) -> Result<(), TransportError> {
            self.0.borrow_mut().push("send");
            Ok(())
        }
        fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
            self.0.borrow_mut().push("try_recv");
            Ok(None)
        }
    }

    pub struct ProbeSource(pub Log);

    impl InputSource for ProbeSource {
        fn sample(&mut self, _: u64) -> InputWord {
            self.0.borrow_mut().push("sample");
            InputWord::NONE
        }
    }

    pub struct ProbeDriver {
        pub log: Log,
        pub machine: ProbeMachine,
        pub cfg: SyncConfig,
    }

    impl SessionDriver for ProbeDriver {
        type Machine = ProbeMachine;
        fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
            self.log.borrow_mut().push("tick");
            Ok(Step::Wait(now))
        }
        fn pump(&mut self, _: SimTime) -> Result<(), SyncError> {
            self.log.borrow_mut().push("pump");
            Ok(())
        }
        fn machine(&self) -> &ProbeMachine {
            self.log.borrow_mut().push("machine");
            &self.machine
        }
        fn config(&self) -> &SyncConfig {
            self.log.borrow_mut().push("config");
            &self.cfg
        }
        fn stats(&self) -> SessionStats {
            self.log.borrow_mut().push("stats");
            SessionStats::default()
        }
        fn frame(&self) -> u64 {
            self.log.borrow_mut().push("frame");
            0
        }
    }
}

/// Each wrapper method reaches the same method of the wrapped value.
#[test]
fn wrappers_forward_each_method_to_the_same_method() {
    use coplay_net::Transport;
    use coplay_sync::InputSource;
    use probes::*;

    let log: Log = Default::default();
    let expect = |name: &str, log: &Log| {
        let seen = std::mem::take(&mut *log.borrow_mut());
        assert_eq!(seen, [name], "wrapper call for {name} reached {seen:?}");
    };
    let fb = coplay_vm::FrameBuffer::new(8, 8);
    let mut m = TimedMachine::new(
        ProbeMachine {
            log: log.clone(),
            fb: fb.clone(),
        },
        0,
    );
    let (mut buf, mut dirty) = (Vec::new(), DirtyPages::default());
    m.info();
    expect("info", &log);
    m.reset();
    expect("reset", &log);
    m.step_frame(InputWord::NONE);
    expect("step_frame", &log);
    m.step_frame_mode(InputWord::NONE, StepMode::Headless);
    expect("step_frame_mode", &log);
    m.framebuffer();
    expect("framebuffer", &log);
    m.audio_samples();
    expect("audio_samples", &log);
    m.state_hash();
    expect("state_hash", &log);
    m.save_state();
    expect("save_state", &log);
    m.save_state_into(&mut buf);
    expect("save_state_into", &log);
    m.load_state(&buf).expect("probe load");
    expect("load_state", &log);
    m.save_state_dirty_into(&mut buf, &mut dirty);
    expect("save_state_dirty_into", &log);
    m.collect_dirty_into(&mut dirty);
    expect("collect_dirty_into", &log);
    m.take_dirty_pages();
    expect("take_dirty_pages", &log);
    m.save_state_ranges_into(&mut buf, &dirty);
    expect("save_state_ranges_into", &log);
    m.load_state_dirty(&buf, &dirty).expect("probe load");
    expect("load_state_dirty", &log);
    m.interp_stats();
    expect("interp_stats", &log);

    for mut t in [
        Box::new(TimedTransport::net(ProbeTransport(log.clone()), 0)) as Box<dyn Transport>,
        Box::new(TimedTransport::relay_client(ProbeTransport(log.clone()), 0)),
        Box::new(Delayed::new(ProbeTransport(log.clone()), 0, 0)),
    ] {
        t.local_id();
        expect("local_id", &log);
        t.send(PeerId(1), b"x").expect("probe send");
        expect("send", &log);
        t.try_recv().expect("probe recv");
        expect("try_recv", &log);
    }

    let (mut source, _) = Stamped::new(ProbeSource(log.clone()));
    source.sample(0);
    expect("sample", &log);

    let driver = ProbeDriver {
        log: log.clone(),
        machine: ProbeMachine {
            log: log.clone(),
            fb,
        },
        cfg: SyncConfig::two_player(0),
    };
    let mut d = TimedDriver::new(driver, 0);
    log.borrow_mut().clear();
    d.tick(SimTime::ZERO).expect("probe tick");
    let seen = std::mem::take(&mut *log.borrow_mut());
    assert_eq!(
        seen.iter().filter(|&&n| n != "frame").collect::<Vec<_>>(),
        [&"tick"],
        "tick reached {seen:?}"
    );
    d.pump(SimTime::ZERO).expect("probe pump");
    let seen = std::mem::take(&mut *log.borrow_mut());
    assert_eq!(
        seen.iter().filter(|&&n| n != "frame").collect::<Vec<_>>(),
        [&"pump"],
        "pump reached {seen:?}"
    );
    d.machine();
    expect("machine", &log);
    d.config();
    expect("config", &log);
    d.stats();
    expect("stats", &log);
    d.frame();
    expect("frame", &log);
}
