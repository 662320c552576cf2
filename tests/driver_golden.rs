//! Behaviour pin for the session driver.
//!
//! Two sites play in virtual time over a [`SimNetwork`] link and every
//! observable outcome is rendered to text: each executed frame's report
//! (frame, state hash, start instant, input-wait stall, merged input), a
//! rollback site's confirmed `(frame, hash)` timeline and final checkpoint
//! bytes, and each site's final [`SessionStats`]. The text must match
//! `tests/golden/driver_golden.txt` byte for byte.
//!
//! The matrix covers lockstep↔lockstep, rollback↔rollback and
//! rollback↔lockstep pairs, on a clean link and on the reordering and
//! duplicating link of `determinism_divergence.rs`, for one native game and
//! one ROM game. The golden file was recorded from the two separate
//! drivers that preceded the single windowed driver; it is the reference
//! that driver is held to, so it must never be regenerated to make a
//! behaviour change pass.
//!
//! On a mismatch the rendered text is written to
//! `driver_golden.actual.txt` under Cargo's integration-test scratch
//! directory so the two can be diffed.

use std::fmt::Write as _;

use coplay::clock::{Clock, SimDuration, VirtualClock};
use coplay::games::GameId;
use coplay::net::{JitterDistribution, NetemConfig, PeerId, SimNetwork, SimSocket};
use coplay::rollback::RollbackSession;
use coplay::sync::{
    ConsistencyMode, LockstepSession, RandomPresser, SessionStats, Step, SyncConfig, SyncError,
};
use coplay::vm::{Machine, Player};

const FRAMES: usize = 180;

type Boxed = Box<dyn Machine>;

#[derive(Clone, Copy)]
enum Mode {
    Lockstep,
    Rollback,
}

/// One site under test. The two variants are built through the two
/// historical constructor names.
#[allow(clippy::large_enum_variant)]
enum Site {
    Lockstep(LockstepSession<Boxed, SimSocket, RandomPresser>),
    Rollback(RollbackSession<Boxed, SimSocket, RandomPresser>),
}

impl Site {
    fn new(mode: Mode, site: u8, game: GameId, socket: SimSocket) -> Site {
        let mut cfg = SyncConfig::two_player(site);
        let source = RandomPresser::new(Player(site), 0x60_1DE0 + site as u64);
        match mode {
            Mode::Lockstep => {
                Site::Lockstep(LockstepSession::new(cfg, game.create(), socket, source))
            }
            Mode::Rollback => {
                cfg.consistency = ConsistencyMode::rollback();
                Site::Rollback(RollbackSession::new(cfg, game.create(), socket, source))
            }
        }
    }

    fn tick(&mut self, now: coplay::clock::SimTime) -> Result<Step, SyncError> {
        match self {
            Site::Lockstep(s) => s.tick(now),
            Site::Rollback(s) => s.tick(now),
        }
    }

    fn stats(&self) -> SessionStats {
        match self {
            Site::Lockstep(s) => s.stats(),
            Site::Rollback(s) => s.stats(),
        }
    }
}

/// What one site produced over a run.
#[derive(Default)]
struct Trace {
    reports: Vec<String>,
    confirmed: Vec<(u64, u64)>,
}

fn clean_link() -> NetemConfig {
    NetemConfig::new().delay(SimDuration::from_millis(20))
}

/// `determinism_divergence.rs`'s adversarial link at the 140 ms RTT its
/// cross-mode test uses, past the 100 ms local lag.
fn adversarial_link() -> NetemConfig {
    NetemConfig::new()
        .delay(SimDuration::from_millis(70))
        .jitter(SimDuration::from_millis(8))
        .jitter_distribution(JitterDistribution::Normal)
        .reorder(0.25)
        .duplicate(0.20)
}

fn run(out: &mut String, game: GameId, modes: [Mode; 2], link_name: &str, link: NetemConfig) {
    let clock = VirtualClock::new();
    let net = SimNetwork::shared(clock.clone());
    SimNetwork::link_pair(&net, PeerId(0), PeerId(1), link, 0xBAD_C0DE);
    let mut sites = [
        Site::new(modes[0], 0, game, SimNetwork::socket(&net, PeerId(0))),
        Site::new(modes[1], 1, game, SimNetwork::socket(&net, PeerId(1))),
    ];
    let mut traces = [Trace::default(), Trace::default()];
    let done = |sites: &[Site; 2], traces: &[Trace; 2]| {
        sites.iter().zip(traces).all(|(s, t)| {
            t.reports.len() >= FRAMES
                && (matches!(s, Site::Lockstep(_)) || t.confirmed.len() >= FRAMES)
        })
    };
    for _ in 0..120_000 {
        let now = clock.now();
        net.borrow_mut().deliver_due(now);
        for (site, trace) in sites.iter_mut().zip(&mut traces) {
            match site.tick(now).expect("site failed") {
                Step::FrameDone { report, .. } => trace.reports.push(format!(
                    "{} {:016x} {} {} {:08x}",
                    report.frame,
                    report.state_hash.expect("frame hashes are on"),
                    report.began_at.as_micros(),
                    report.stall.as_micros(),
                    report.input.0,
                )),
                Step::Wait(_) => {}
                Step::Stopped(r) => panic!("unexpected stop: {r}"),
            }
            if let Site::Rollback(s) = site {
                trace.confirmed.extend(s.take_confirmed());
            }
        }
        if done(&sites, &traces) {
            break;
        }
        clock.set(now + SimDuration::from_millis(1));
    }
    assert!(done(&sites, &traces), "run wedged");

    let mode_name = |m: Mode| match m {
        Mode::Lockstep => "lockstep",
        Mode::Rollback => "rollback",
    };
    let _ = writeln!(
        out,
        "== {game:?} {}-{} {link_name} at {} us",
        mode_name(modes[0]),
        mode_name(modes[1]),
        clock.now().as_micros(),
    );
    for (i, (site, trace)) in sites.iter().zip(&traces).enumerate() {
        let _ = writeln!(out, "site {i} stats {:?}", site.stats());
        if let Site::Rollback(s) = site {
            let _ = writeln!(out, "site {i} checkpoint_bytes {}", s.checkpoint_bytes());
        }
        for line in &trace.reports {
            let _ = writeln!(out, "site {i} frame {line}");
        }
        for (frame, hash) in &trace.confirmed {
            let _ = writeln!(out, "site {i} confirmed {frame} {hash:016x}");
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    for game in [GameId::Brawler, GameId::RomPong] {
        for modes in [
            [Mode::Lockstep, Mode::Lockstep],
            [Mode::Rollback, Mode::Rollback],
            [Mode::Rollback, Mode::Lockstep],
        ] {
            run(&mut out, game, modes, "clean", clean_link());
            run(&mut out, game, modes, "adversarial", adversarial_link());
        }
    }
    out
}

#[test]
fn driver_timelines_match_the_recorded_golden_data() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/driver_golden.txt"
    );
    let golden = std::fs::read_to_string(golden_path).expect("golden data present");
    let actual = render();
    if actual != golden {
        let dump =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("driver_golden.actual.txt");
        let _ = std::fs::write(&dump, &actual);
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!(
            "driver behaviour drifted from the golden data at line {} (actual written to {})",
            first + 1,
            dump.display()
        );
    }
}
