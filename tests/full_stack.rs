//! Full-stack integration: assembler → emulated console → lockstep session
//! → transport, end to end through the public API.

use coplay::clock::SimTime;
use coplay::net::{loopback, PeerId, UdpTransport};
use coplay::sync::{
    run_realtime, FrameReport, Idle, LockstepSession, RandomPresser, Scripted, SessionDriver,
    SessionStats, Step, SyncConfig, SyncError,
};
use coplay::vm::{assemble, Console, InputWord, Machine, Player};

/// Runs two sessions over the given transports until both executed
/// `frames`, returning each site's per-frame state hashes.
fn duel<M, T>(
    machine: impl Fn() -> M,
    transports: (T, T),
    frames: u64,
    fast: bool,
) -> Result<(Vec<u64>, Vec<u64>), SyncError>
where
    M: Machine + Send + 'static,
    T: coplay::net::Transport + Send + 'static,
{
    let mk_cfg = |site: u8| {
        let mut cfg = SyncConfig::two_player(site);
        if fast {
            cfg.cfps = 480; // keep wall time short in CI
        }
        cfg
    };
    let a = LockstepSession::new(
        mk_cfg(0),
        machine(),
        transports.0,
        RandomPresser::new(Player::ONE, 5),
    );
    let b = LockstepSession::new(
        mk_cfg(1),
        machine(),
        transports.1,
        RandomPresser::new(Player::TWO, 6),
    );
    let ja = std::thread::spawn(move || {
        let mut h = Vec::new();
        run_realtime(a, frames, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
    });
    let jb = std::thread::spawn(move || {
        let mut h = Vec::new();
        run_realtime(b, frames, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
    });
    Ok((ja.join().expect("thread a")?, jb.join().expect("thread b")?))
}

#[test]
fn hand_written_assembly_game_shared_over_loopback() {
    // A freshly authored cartridge: both players light pixels with their
    // buttons. Determinism comes solely from the Machine contract — the
    // sync layer knows nothing about the program ("game transparency").
    let source = r#"
        .title "Integration"
        .seed 99
        .equ COUNTER, 0x8000
        frame:
            in r0, 0
            ldi r1, COUNTER
            ldw r2, [r1]
            add r2, r0
            stw [r1], r2
            rnd r3
            ldi r1, 0
            sys 0
            mov r1, r2
            ldi r2, 20
            ldi r3, 40
            ldi r4, 7
            sys 4
            yield
            jmp frame
    "#;
    let rom = assemble(source).expect("assembles");
    let (ha, hb) = duel(
        || Console::new(rom.clone()),
        loopback(PeerId(0), PeerId(1)),
        48,
        true,
    )
    .expect("session");
    assert_eq!(ha, hb, "console replicas diverged");
}

#[test]
fn real_udp_sockets_carry_a_session() {
    let mut t0 = UdpTransport::bind(PeerId(0), "127.0.0.1:0").expect("bind");
    let mut t1 = UdpTransport::bind(PeerId(1), "127.0.0.1:0").expect("bind");
    let a0 = t0.local_addr().expect("addr");
    let a1 = t1.local_addr().expect("addr");
    t0.add_peer(PeerId(1), a1).expect("peer");
    t1.add_peer(PeerId(0), a0).expect("peer");
    let (ha, hb) = duel(coplay::games::Pong::new, (t0, t1), 48, true).expect("session");
    assert_eq!(ha, hb, "replicas diverged over real UDP");
}

/// Counts the `tick` calls of the session it wraps: each is one wake-up of
/// the wall-clock runner.
struct TickCounter<D> {
    inner: D,
    ticks: u64,
}

impl<D: SessionDriver> SessionDriver for TickCounter<D> {
    type Machine = D::Machine;

    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
        self.ticks += 1;
        self.inner.tick(now)
    }

    fn pump(&mut self, now: SimTime) -> Result<(), SyncError> {
        self.inner.pump(now)
    }

    fn machine(&self) -> &D::Machine {
        self.inner.machine()
    }

    fn config(&self) -> &SyncConfig {
        self.inner.config()
    }

    fn stats(&self) -> SessionStats {
        self.inner.stats()
    }

    fn frame(&self) -> u64 {
        self.inner.frame()
    }
}

/// Pacing guard for the wall-clock runner over real sockets: at the
/// paper's 60 frames/s a lockstep site must keep pace, and must wake for
/// the frame deadline and the peer's datagrams only — not on a poll
/// period. A runner that sleeps in 1 ms slices ticks ~17 times per frame;
/// one whose wait is rounded up to the kernel's scheduler tick falls to
/// ~42 frames/s.
#[test]
// The test times the frames it sees; the clock stays outside the program.
#[allow(clippy::disallowed_methods)]
fn paced_udp_sites_keep_pace_and_wake_only_on_events() {
    const FRAMES: u64 = 120;
    let mut t0 = UdpTransport::bind(PeerId(0), "127.0.0.1:0").expect("bind");
    let mut t1 = UdpTransport::bind(PeerId(1), "127.0.0.1:0").expect("bind");
    t0.add_peer(PeerId(1), t1.local_addr().expect("addr"))
        .expect("peer");
    t1.add_peer(PeerId(0), t0.local_addr().expect("addr"))
        .expect("peer");
    let site = |s: u8, t: UdpTransport| {
        let cfg = SyncConfig::two_player(s);
        assert_eq!(cfg.cfps, 60);
        let session = LockstepSession::new(
            cfg,
            coplay::games::Pong::new(),
            t,
            RandomPresser::new(Player(s), 7 + u64::from(s)),
        );
        std::thread::spawn(move || {
            let mut shown: Vec<(std::time::Instant, FrameReport)> = Vec::new();
            let counted = TickCounter {
                inner: session,
                ticks: 0,
            };
            let (_, counted) = run_realtime(counted, FRAMES, |r, _| {
                shown.push((std::time::Instant::now(), *r));
            })
            .expect("session ran");
            (shown, counted.ticks)
        })
    };
    let (ja, jb) = (site(0, t0), site(1, t1));
    let runs = [ja.join().expect("site 0"), jb.join().expect("site 1")];
    for (s, (shown, ticks)) in runs.iter().enumerate() {
        assert_eq!(shown.len() as u64, FRAMES, "site {s}");
        let span = shown[shown.len() - 1].0 - shown[0].0;
        let fps = (FRAMES - 1) as f64 / span.as_secs_f64();
        let per_frame = *ticks as f64 / FRAMES as f64;
        assert!(fps >= 55.0, "site {s}: {fps:.1} frames/s");
        assert!(per_frame <= 4.0, "site {s}: {per_frame:.2} ticks per frame");
    }
    let hashes =
        |i: usize| -> Vec<Option<u64>> { runs[i].0.iter().map(|(_, r)| r.state_hash).collect() };
    assert_eq!(hashes(0), hashes(1), "replicas diverged over real UDP");
}

#[test]
fn rom_mismatch_refuses_to_start() {
    // Site 1 loads a different cartridge; the handshake must detect it.
    let rom_a = assemble(".title \"A\"\nnop\nyield\njmp 0").expect("a");
    let rom_b = assemble(".title \"B\"\nnop\nnop\nyield\njmp 0").expect("b");
    let (ta, tb) = loopback(PeerId(0), PeerId(1));
    let mut a = LockstepSession::new(SyncConfig::two_player(0), Console::new(rom_a), ta, Idle);
    let mut b = LockstepSession::new(SyncConfig::two_player(1), Console::new(rom_b), tb, Idle);
    // b hellos with its hash; a refuses to admit it but answers, and b's
    // handshake fails on the ack. The master stays up for a real peer.
    let _ = b.tick(SimTime::ZERO).expect("b sends hello");
    let _ = a
        .tick(SimTime::ZERO)
        .expect("a foreign hello does not stop the master");
    let err = b.tick(SimTime::ZERO).expect_err("mismatch must be fatal");
    assert!(matches!(err, SyncError::RomMismatch { .. }), "{err}");
}

#[test]
fn scripted_traces_replay_identically_across_the_network() {
    // Recorded traces (a "demo playback" scenario): both sites replay a
    // fixed script; the resulting game must equal a local replay.
    let trace_p1: Vec<InputWord> = (0..60u32)
        .map(|f| InputWord::for_player(Player::ONE, (f % 4) as u8))
        .collect();
    let trace_p2: Vec<InputWord> = (0..60u32)
        .map(|f| InputWord::for_player(Player::TWO, ((f / 2) % 4) as u8))
        .collect();

    // Local reference: merge the traces directly (with the 6-frame lag the
    // protocol applies).
    let mut reference = coplay::games::Pong::new();
    let mut ref_hashes = Vec::new();
    for f in 0..48usize {
        let lagged = f.checked_sub(6);
        let merged = match lagged {
            Some(l) => trace_p1[l].merged(trace_p2[l]),
            None => InputWord::NONE,
        };
        reference.step_frame(merged);
        ref_hashes.push(reference.state_hash());
    }

    // Networked run with the same scripts.
    let (ta, tb) = loopback(PeerId(0), PeerId(1));
    let mk_cfg = |site: u8| {
        let mut cfg = SyncConfig::two_player(site);
        cfg.cfps = 480;
        cfg
    };
    let a = LockstepSession::new(
        mk_cfg(0),
        coplay::games::Pong::new(),
        ta,
        Scripted::new(trace_p1),
    );
    let b = LockstepSession::new(
        mk_cfg(1),
        coplay::games::Pong::new(),
        tb,
        Scripted::new(trace_p2),
    );
    let ja = std::thread::spawn(move || {
        let mut h = Vec::new();
        run_realtime(a, 48, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
    });
    let jb = std::thread::spawn(move || {
        let mut h = Vec::new();
        run_realtime(b, 48, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
    });
    let ha = ja.join().expect("a").expect("a ran");
    let hb = jb.join().expect("b").expect("b ran");
    assert_eq!(ha, hb, "network replicas diverged");
    assert_eq!(ha, ref_hashes, "networked game differs from local replay");
}

#[test]
fn lossy_experiment_records_stalls_and_retransmissions() {
    use coplay::clock::SimDuration;
    use coplay::sim::{run_experiment, ExperimentConfig};
    use coplay::telemetry::EventKind;

    // The paper's past-the-threshold regime: 200 ms RTT with 5% loss. The
    // local lag (6 frames ≈ 100 ms) cannot hide a 100 ms one-way delay, so
    // the session must stall, and loss must force retransmissions.
    let mut cfg = ExperimentConfig::with_rtt(SimDuration::from_millis(200));
    cfg.game = coplay::games::GameId::Pong;
    cfg.frames = 360;
    cfg.loss = 0.05;
    cfg.telemetry = true;
    let r = run_experiment(cfg).expect("lossy run completes");
    assert!(r.converged, "loss must not break logical consistency");

    let master = &r.telemetry[0];
    let events = master.events();
    assert!(!events.is_empty(), "recording sink captured nothing");

    // The dump is non-empty JSONL with monotonically non-decreasing stamps.
    let dump = master.dump_jsonl();
    assert!(!dump.is_empty());
    let mut last_t = 0u64;
    for line in dump.lines() {
        assert!(
            line.starts_with("{\"t_us\":") && line.ends_with('}'),
            "{line}"
        );
        let t: u64 = line["{\"t_us\":".len()..]
            .split(',')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("timestamp parses");
        assert!(
            t >= last_t,
            "timestamps must be non-decreasing: {t} < {last_t}"
        );
        last_t = t;
    }

    // Stalls were recorded (begin and end), and messages carried resent
    // frames in both directions of the protocol.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::StallBegin { .. })),
        "200ms RTT must stall a 100ms local lag"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::StallEnd { .. })));
    assert!(
        events.iter().any(
            |e| matches!(e.kind, EventKind::InputSent { retransmitted, .. } if retransmitted > 0)
        ),
        "5% loss must force retransmissions"
    );
    assert!(master.counter("retransmitted_frames_sent_total") > 0);
    assert!(master.counter("stalls_total") > 0);

    // The Prometheus exposition reports the frame-time quantiles.
    let prom = master.prometheus();
    assert!(
        prom.contains("coplay_frame_time_us{quantile=\"0.5\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("coplay_frame_time_us{quantile=\"0.95\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("coplay_frame_time_us{quantile=\"0.99\"}"),
        "{prom}"
    );
    // Quantiles are answerable (0 is legitimate: in virtual time a frame
    // whose inputs are already buffered begins and executes at one instant).
    let p50 = master
        .percentile("frame_time_us", 0.5)
        .expect("samples exist");
    let p99 = master
        .percentile("frame_time_us", 0.99)
        .expect("samples exist");
    assert!(p99 >= p50);
    assert!(master.counter("frames_total") > 0);

    // The network fabric saw the loss process.
    assert!(r.net_telemetry.counter("packets_dropped_total") > 0);
}

#[test]
fn clean_experiment_records_no_stalls() {
    use coplay::clock::SimDuration;
    use coplay::sim::{run_experiment, ExperimentConfig};
    use coplay::telemetry::EventKind;

    // 40 ms RTT is well inside the local lag: every remote input arrives
    // early, so the flight recorders must contain no stall events at all.
    let mut cfg = ExperimentConfig::with_rtt(SimDuration::from_millis(40));
    cfg.game = coplay::games::GameId::Pong;
    cfg.frames = 240;
    cfg.telemetry = true;
    let r = run_experiment(cfg).expect("clean run completes");
    assert!(r.converged);
    for (i, t) in r.telemetry.iter().enumerate() {
        assert!(t.event_count() > 0, "site {i} recorded nothing");
        assert!(
            !t.events().iter().any(|e| matches!(
                e.kind,
                EventKind::StallBegin { .. } | EventKind::StallEnd { .. }
            )),
            "site {i} stalled on a clean link"
        );
        assert_eq!(t.counter("stalls_total"), 0, "site {i}");
    }
    assert_eq!(r.net_telemetry.counter("packets_dropped_total"), 0);
}

#[test]
fn stopping_a_session_notifies_the_peer() {
    let (ta, tb) = loopback(PeerId(0), PeerId(1));
    let mut cfg0 = SyncConfig::two_player(0);
    cfg0.cfps = 480;
    let mut cfg1 = SyncConfig::two_player(1);
    cfg1.cfps = 480;
    let mut a = LockstepSession::new(cfg0, coplay::games::Pong::new(), ta, Idle);
    let b = LockstepSession::new(cfg1, coplay::games::Pong::new(), tb, Idle);

    // Run b on a thread until it reports the peer left.
    let jb = std::thread::spawn(move || match run_realtime(b, u64::MAX, |_, _| {}) {
        Ok((outcome, _)) => outcome,
        Err(e) => panic!("b failed: {e}"),
    });
    // Let the session establish and run a moment, then quit site a.
    std::thread::sleep(std::time::Duration::from_millis(100));
    use coplay::clock::{Clock, SystemClock};
    let clock = SystemClock::new();
    for _ in 0..50 {
        let _ = a.tick(clock.now());
    }
    a.stop().expect("stop");
    let outcome = jb.join().expect("b thread");
    assert_eq!(
        outcome,
        coplay::sync::RunOutcome::Stopped(coplay::sync::StopReason::PeerLeft)
    );
}

/// With a one-frame local lag (16.7 ms) the 20 ms send batch cannot hide
/// behind the lag, so each site must send its input the frame it was
/// buffered: at least one input message per executed frame, not one per
/// 20 ms (0.83 per frame). The pair runs rollback over a simulated
/// 100 ms RTT and its confirmed hashes must agree.
#[test]
fn one_frame_lag_rollback_sends_every_frame_at_100ms_rtt() {
    use coplay::clock::{Clock, SimDuration, VirtualClock};
    use coplay::net::{NetemConfig, SimNetwork};
    use coplay::rollback::RollbackSession;
    use coplay::sync::ConsistencyMode;
    use coplay::telemetry::Telemetry;

    const FRAMES: u64 = 300;
    let clock = VirtualClock::new();
    let net = SimNetwork::shared(clock.clone());
    let link = NetemConfig::with_rtt(SimDuration::from_millis(100));
    SimNetwork::link_pair(&net, PeerId(0), PeerId(1), link, 0x1A6);
    let telemetry = [Telemetry::recording(), Telemetry::recording()];
    let site = |s: u8| {
        let mut cfg = SyncConfig::two_player(s);
        cfg.consistency = ConsistencyMode::rollback();
        cfg.buf_frames = 1;
        cfg.telemetry = telemetry[usize::from(s)].clone();
        RollbackSession::new(
            cfg,
            coplay::games::rom_race_console(),
            SimNetwork::socket(&net, PeerId(s)),
            RandomPresser::new(Player(s), 31 + u64::from(s)),
        )
    };
    let mut sites = [site(0), site(1)];
    let mut confirmed: [Vec<(u64, u64)>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..60_000 {
        let now = clock.now();
        net.borrow_mut().deliver_due(now);
        for (s, session) in sites.iter_mut().enumerate() {
            session.tick(now).expect("site failed");
            confirmed[s].extend(session.take_confirmed());
        }
        if sites.iter().all(|s| s.stats().frames >= FRAMES) {
            break;
        }
        clock.set(now + SimDuration::from_millis(1));
    }
    for (s, session) in sites.iter().enumerate() {
        let stats = session.stats();
        assert!(
            stats.frames >= FRAMES,
            "site {s} wedged at {}",
            stats.frames
        );
        // Slack for the handshake and the first frames, before input flows.
        assert!(
            stats.input_messages_sent + 5 >= stats.frames,
            "site {s}: {} input messages for {} frames",
            stats.input_messages_sent,
            stats.frames
        );
        // Honest acks are never clamped.
        assert_eq!(telemetry[s].counter("input_ack_clamped_total"), 0);
    }
    let common = confirmed[0].len().min(confirmed[1].len());
    assert!(
        common as u64 >= FRAMES - 10,
        "only {common} frames confirmed"
    );
    assert_eq!(
        confirmed[0][..common],
        confirmed[1][..common],
        "confirmed hashes diverged"
    );
}
