//! The two duel workloads.
//!
//! * `duel_lockstep_p2p` — the paper's deployment at RTT 0: two
//!   `LockstepSession`s playing ROM Pong over peer-to-peer UDP, each site
//!   on its own thread under `run_realtime`, telemetry off.
//! * `duel_rollback_relay_rtt100` — two `RollbackSession`s playing the
//!   Button Race ROM through a real `UdpRelay` with 100 ms RTT injected
//!   below each relay client; sites and relay are driven from one thread
//!   through `tick`, `pump` and `poll`, telemetry recording everywhere.

use std::net::SocketAddr;
use std::time::Duration;

use coplay_clock::{SimDuration, SimTime};
use coplay_games::{rom_pong_console, rom_race_console};
use coplay_net::{PeerId, UdpTransport};
use coplay_relay::{RelayConfig, RelaySocket, RelayStats, UdpRelay};
use coplay_rollback::RollbackSession;
use coplay_sim::metrics::{abs_mean, mean_abs_deviation};
use coplay_sync::{
    run_realtime, ConsistencyMode, LockstepSession, RandomPresser, RunOutcome, SessionDriver,
    SessionStats, Step, SyncConfig, Topology,
};
use coplay_telemetry::Telemetry;
use coplay_vm::{Console, InputWord, InterpStats, Machine, Player};

use crate::report::{latency_metrics, median, quantile, ratio, totals, Outcome};
use crate::trace::{self, Layer, Span};
use crate::wrap::{Delayed, FrameMark, Sample, Stamped, TimedDriver, TimedMachine, TimedTransport};
use crate::ROUNDS;

/// Frames per second of both games.
const FPS: u64 = 60;
/// A session stalled this long has failed; it bounds a broken run's time.
const STALL_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// Rollback duel: local lag in frames.
const ROLLBACK_LAG: u64 = 1;
/// Rollback duel: one-way delay injected at each hop (site→relay and
/// relay→site), so site-to-site RTT is 4 × this = 100 ms.
const HOP_DELAY_NS: u64 = 25_000_000;
/// Rollback duel: how long confirmations may trail the last frame.
const DRAIN_NS: u64 = 3_000_000_000;
/// The relay's peer id inside each site's UDP transport.
const RELAY_PEER: PeerId = PeerId(200);
/// Relay session id of the rollback duel.
const SESSION: u32 = 7;

/// The seeded input of one site: the program sees only this stream.
pub fn presser(seed: u64, site: u8) -> RandomPresser {
    RandomPresser::new(Player(site), crate::mix(seed, u64::from(site) + 1))
}

/// On-CPU time of one thread over a round's steady-state frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuWindow {
    /// Thread CPU ns in the window.
    pub cpu_ns: u64,
    /// Part of `cpu_ns` spent outside top-level session/relay calls.
    pub outside_ns: u64,
    /// Site-frames executed in the window.
    pub frames: u64,
}

/// What one site did in one round.
#[derive(Debug, Clone, Default)]
pub struct SiteRun {
    /// Every frame the site executed.
    pub frames: Vec<FrameMark>,
    /// Every input sample.
    pub samples: Vec<Sample>,
    /// Session counters at the end.
    pub stats: SessionStats,
    /// `tick` calls.
    pub ticks: u64,
    /// Interpreter counters at the end.
    pub interp: Option<InterpStats>,
    /// Authoritative hash per frame (lockstep: every executed frame;
    /// rollback: frames `take_confirmed` reported).
    pub confirmed: Vec<Option<u64>>,
    /// When each frame was first presented as confirmed.
    pub confirmed_present_ns: Vec<Option<u64>>,
    /// Checkpoint-ring bytes at the end (rollback only).
    pub ring_bytes: u64,
}

/// One round: a fresh pair of sites (and relay), set up and played.
#[derive(Debug, Default)]
pub struct Round {
    /// Per-site results.
    pub sites: Vec<SiteRun>,
    /// Construction to first frame at every site, ns.
    pub setup_ns: u64,
    /// CPU windows of the threads that ran sites (and relay).
    pub windows: Vec<CpuWindow>,
    /// Relay totals (relay workload only).
    pub relay: RelayStats,
    /// Telemetry events recorded (retained + evicted) and evicted.
    pub telemetry_events: (u64, u64),
    /// Socket sends that failed.
    pub send_errors: u64,
    /// Failures found while running.
    pub errors: Vec<String>,
}

/// One run of a duel: `ROUNDS` rounds of `frames` frames each.
#[derive(Debug, Default)]
pub struct DuelRun {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Spans of every thread of every round (traced runs only).
    pub spans: Vec<Span>,
    /// Frames each site runs per round.
    pub frames: u64,
    /// Local lag: an input sampled at frame f is for frame f + lag.
    pub lag: u64,
    /// `true` for the rollback duel.
    pub rollback: bool,
}

/// Splits a run of `seconds` into rounds of equal frame budgets and plays
/// each with `round`, which gets a per-round seed.
fn rounds(
    seconds: u64,
    seed: u64,
    lag: u64,
    rollback: bool,
    mut round: impl FnMut(u64, u64) -> Result<(Round, Vec<Span>), String>,
) -> Result<DuelRun, String> {
    let frames = (seconds * FPS / ROUNDS).max(2);
    let mut run = DuelRun {
        frames,
        lag,
        rollback,
        ..DuelRun::default()
    };
    for r in 0..ROUNDS {
        let (round, spans) = round(crate::mix(seed, r), frames)?;
        run.rounds.push(round);
        run.spans.extend(spans);
    }
    Ok(run)
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// duel_lockstep_p2p

/// Runs the lockstep duel.
pub fn lockstep_p2p(seed: u64, seconds: u64, traced: bool) -> Result<DuelRun, String> {
    let lag = SyncConfig::two_player(0).buf_frames;
    rounds(seconds, seed, lag, false, |seed, frames| {
        lockstep_round(seed, frames, traced)
    })
}

struct SiteThread {
    run: SiteRun,
    window: CpuWindow,
    spans: Vec<Span>,
    send_errors: u64,
}

fn lockstep_round(seed: u64, frames: u64, traced: bool) -> Result<(Round, Vec<Span>), String> {
    let t0 = trace::now_ns();
    let mut socks = Vec::new();
    for s in 0..2u8 {
        socks.push(UdpTransport::bind(PeerId(s), "127.0.0.1:0").map_err(io_err("bind site"))?);
    }
    let addrs: Vec<SocketAddr> = socks
        .iter()
        .map(|t| t.local_addr().map_err(io_err("local addr")))
        .collect::<Result<_, _>>()?;
    for (s, t) in socks.iter_mut().enumerate() {
        t.add_peer(PeerId(1 - s as u8), addrs[1 - s])
            .map_err(io_err("add peer"))?;
    }
    let handles: Vec<_> = socks
        .into_iter()
        .enumerate()
        .map(|(s, udp)| {
            std::thread::Builder::new()
                .name(format!("site{s}"))
                .spawn(move || lockstep_site(s as u8, udp, seed, frames, traced))
                .map_err(io_err("spawn site thread"))
        })
        .collect::<Result<_, _>>()?;
    let mut round = Round::default();
    let mut spans = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(site)) => {
                round.sites.push(site.run);
                round.windows.push(site.window);
                round.send_errors += site.send_errors;
                spans.extend(site.spans);
            }
            Ok(Err(e)) => return Err(e),
            Err(_) => return Err("site thread panicked".into()),
        }
    }
    let first = round
        .sites
        .iter()
        .map(|s| s.frames.first().map_or(u64::MAX, |f| f.present_ns))
        .max();
    round.setup_ns = first.unwrap_or(u64::MAX).saturating_sub(t0);
    Ok((round, spans))
}

fn lockstep_site(
    site: u8,
    udp: UdpTransport,
    seed: u64,
    frames: u64,
    traced: bool,
) -> Result<SiteThread, String> {
    trace::set_enabled(traced);
    let (source, samples) = Stamped::new(presser(seed, site));
    let mut cfg = SyncConfig::two_player(site);
    cfg.stall_timeout = Some(STALL_TIMEOUT);
    let machine = TimedMachine::new(rom_pong_console(), site);
    let session = TimedDriver::new(
        LockstepSession::new(cfg, machine, TimedTransport::net(udp, site), source),
        site,
    );
    let mut cpu = (0u64, 0u64);
    let result = run_realtime(session, frames, |rep, _| {
        if rep.frame == 0 {
            cpu.0 = trace::thread_cpu_ns();
        }
        if rep.frame + 1 == frames {
            cpu.1 = trace::thread_cpu_ns();
        }
    });
    let spans = trace::take();
    let send_errors = trace::take_send_errors();
    trace::set_enabled(false);
    let (outcome, driver) = result.map_err(|e| format!("lockstep site {site}: {e}"))?;
    if outcome != RunOutcome::FrameLimit {
        return Err(format!("lockstep site {site} stopped early: {outcome:?}"));
    }
    let marks = driver.frames().to_vec();
    let (from, to) = (marks[0].present_ns, marks[marks.len() - 1].present_ns);
    let cpu_ns = cpu.1.saturating_sub(cpu.0);
    let window = CpuWindow {
        cpu_ns,
        outside_ns: cpu_ns.saturating_sub(top_level_ns(&spans, from, to)),
        frames: marks.len() as u64 - 1,
    };
    let mut run = SiteRun {
        stats: driver.stats(),
        ticks: driver.ticks(),
        interp: driver.machine().interp_stats(),
        samples: samples.borrow().clone(),
        ..SiteRun::default()
    };
    for m in &marks {
        let g = m.report.frame as usize;
        grow(&mut run.confirmed, g);
        grow(&mut run.confirmed_present_ns, g);
        run.confirmed[g] = m.report.state_hash;
        run.confirmed_present_ns[g] = Some(m.present_ns);
    }
    run.frames = marks;
    Ok(SiteThread {
        run,
        window,
        spans,
        send_errors,
    })
}

/// Wall time of top-level spans starting inside `[from, to)`.
fn top_level_ns(spans: &[Span], from: u64, to: u64) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.start_ns >= from && s.start_ns < to)
        .map(Span::dur_ns)
        .sum()
}

fn grow<T: Default + Clone>(v: &mut Vec<T>, idx: usize) {
    if v.len() <= idx {
        v.resize(idx + 1, T::default());
    }
}

// ---------------------------------------------------------------------------
// duel_rollback_relay_rtt100

type RelayStack = TimedTransport<RelaySocket<Delayed<TimedTransport<UdpTransport>>>>;
type RollbackSite =
    TimedDriver<RollbackSession<TimedMachine<Console>, RelayStack, Stamped<RandomPresser>>>;

/// Runs the rollback-through-relay duel.
pub fn rollback_relay(seed: u64, seconds: u64, traced: bool) -> Result<DuelRun, String> {
    rounds(seconds, seed, ROLLBACK_LAG, true, |seed, frames| {
        trace::set_enabled(traced);
        let result = rollback_round(seed, frames);
        let spans = trace::take();
        trace::set_enabled(false);
        let (mut round, bounds) = result?;
        round.send_errors = trace::take_send_errors();
        if let (Some(w), Some((from, to))) = (round.windows.first_mut(), bounds) {
            w.outside_ns = w.cpu_ns.saturating_sub(top_level_ns(&spans, from, to));
        }
        Ok((round, spans))
    })
}

/// Runs the single-threaded loop; also returns the CPU window's bounds.
fn rollback_round(seed: u64, frames: u64) -> Result<(Round, Option<(u64, u64)>), String> {
    let t0 = trace::now_ns();
    let relay_tel = Telemetry::recording();
    let mut relay = UdpRelay::bind("127.0.0.1:0", RelayConfig::default())
        .map_err(io_err("bind relay"))?
        .with_telemetry(relay_tel.clone());
    let relay_addr = relay.local_addr().map_err(io_err("relay addr"))?;
    let mut sites: Vec<RollbackSite> = Vec::new();
    let mut logs = Vec::new();
    let mut tels = Vec::new();
    for s in 0..2u8 {
        let mut udp = UdpTransport::bind(PeerId(s), "127.0.0.1:0").map_err(io_err("bind site"))?;
        udp.add_peer(RELAY_PEER, relay_addr)
            .map_err(io_err("add relay"))?;
        let delayed = Delayed::new(TimedTransport::net(udp, s), HOP_DELAY_NS, s);
        let sock = TimedTransport::relay_client(RelaySocket::new(delayed, RELAY_PEER, SESSION), s);
        let mut cfg = SyncConfig::two_player(s);
        cfg.consistency = ConsistencyMode::rollback();
        cfg.topology = Topology::Relay;
        cfg.buf_frames = ROLLBACK_LAG;
        cfg.stall_timeout = Some(STALL_TIMEOUT);
        cfg.telemetry = Telemetry::recording();
        tels.push(cfg.telemetry.clone());
        let (source, log) = Stamped::new(presser(seed, s));
        logs.push(log);
        let machine = TimedMachine::new(rom_race_console(), s);
        sites.push(TimedDriver::new(
            RollbackSession::new(cfg, machine, sock, source),
            s,
        ));
    }
    let sim = |ns: u64| SimTime::from_micros(ns.saturating_sub(t0) / 1_000);
    // A round that has not finished in three times its nominal length has
    // failed (a broken handshake would otherwise spin here forever).
    let give_up = t0 + (3 * frames / FPS + 10) * 1_000_000_000;

    let mut runs: Vec<SiteRun> = vec![SiteRun::default(), SiteRun::default()];
    let mut pending: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut setup_ns = None;
    let mut cpu_start: Option<(u64, u64, u64)> = None; // (ns, cpu, frames)
    let mut cpu_end: Option<(u64, u64, u64)> = None;
    let mut frames_done_at = None;
    let mut errors = Vec::new();
    loop {
        let now_ns = trace::now_ns();
        if now_ns > give_up {
            return Err(format!(
                "rollback round unfinished after {} s",
                (now_ns - t0) / 1_000_000_000
            ));
        }
        let now = sim(now_ns);
        let h = trace::open(Layer::RelayPoll, 0, 0);
        let handled = relay.poll(now).map_err(io_err("relay poll"))?;
        trace::close(h, handled as u64);
        let mut wake = now + SimDuration::from_millis(1);
        for (s, site) in sites.iter_mut().enumerate() {
            let executed = site.frames().len() as u64;
            if executed < frames {
                match site
                    .tick(now)
                    .map_err(|e| format!("rollback site {s}: {e}"))?
                {
                    Step::FrameDone { next_wake, .. } => {
                        let present = site.frames()[executed as usize].present_ns;
                        for g in pending[s].drain(..) {
                            runs[s].confirmed_present_ns[g as usize] = Some(present);
                        }
                        wake = wake.min(next_wake);
                    }
                    Step::Wait(t) => wake = wake.min(t),
                    Step::Stopped(r) => return Err(format!("rollback site {s} stopped: {r:?}")),
                }
            } else {
                site.pump(now)
                    .map_err(|e| format!("rollback site {s}: {e}"))?;
            }
            for (g, hash) in site.inner_mut().take_confirmed() {
                let g = g as usize;
                grow(&mut runs[s].confirmed, g);
                grow(&mut runs[s].confirmed_present_ns, g);
                runs[s].confirmed[g] = Some(hash);
                pending[s].push(g as u64);
            }
        }
        let done: Vec<u64> = sites.iter().map(|s| s.frames().len() as u64).collect();
        if setup_ns.is_none() && done.iter().all(|&d| d >= 1) {
            setup_ns = Some(trace::now_ns() - t0);
            cpu_start = Some((trace::now_ns(), trace::thread_cpu_ns(), done.iter().sum()));
        }
        if cpu_end.is_none() && done.iter().all(|&d| d >= frames) {
            cpu_end = Some((trace::now_ns(), trace::thread_cpu_ns(), done.iter().sum()));
            frames_done_at = Some(trace::now_ns());
        }
        if let Some(at) = frames_done_at {
            let confirmed_all = runs.iter().all(|r| {
                r.confirmed.len() as u64 >= frames
                    && r.confirmed[..frames as usize].iter().all(Option::is_some)
            });
            if confirmed_all {
                break;
            }
            if trace::now_ns() > at + DRAIN_NS {
                errors.push("confirmations still missing at the drain deadline".to_string());
                break;
            }
        }
        let now_after = sim(trace::now_ns());
        if wake > now_after {
            let left = wake
                .saturating_since(now_after)
                .min(SimDuration::from_millis(1));
            std::thread::sleep(Duration::from_micros(left.as_micros().max(50)));
        }
    }

    let mut run = Round {
        setup_ns: setup_ns.unwrap_or(u64::MAX),
        relay: relay.stats(),
        errors,
        ..Round::default()
    };
    let mut bounds = None;
    if let (Some(a), Some(b)) = (cpu_start, cpu_end) {
        run.windows.push(CpuWindow {
            cpu_ns: b.1.saturating_sub(a.1),
            outside_ns: 0,
            frames: b.2 - a.2,
        });
        bounds = Some((a.0, b.0));
    }
    for (s, (site, mut r)) in sites.iter_mut().zip(runs).enumerate() {
        r.frames = site.frames().to_vec();
        r.samples = logs[s].borrow().clone();
        r.stats = site.stats();
        r.ticks = site.ticks();
        r.interp = site.machine().interp_stats();
        r.ring_bytes = site.inner_mut().checkpoint_bytes() as u64;
        run.sites.push(r);
    }
    let mut events = 0;
    let mut evicted = 0;
    for t in tels.iter().chain(std::iter::once(&relay_tel)) {
        events += t.event_count() as u64 + t.dropped_events();
        evicted += t.dropped_events();
    }
    run.telemetry_events = (events, evicted);
    Ok((run, bounds))
}

// ---------------------------------------------------------------------------
// Checks and metrics shared by both duels

/// Replays one site's executed inputs on a bare console and returns the
/// per-frame hashes.
fn replay(make: fn() -> Console, inputs: &[InputWord]) -> Vec<u64> {
    let mut m = make();
    inputs
        .iter()
        .map(|&w| {
            m.step_frame(w);
            m.state_hash()
        })
        .collect()
}

/// Correctness checks over every round: each site executed every frame,
/// the sites' authoritative hashes agree on every frame, and (lockstep)
/// replaying the presented inputs on a bare console reproduces them.
pub fn check(run: &DuelRun) -> Outcome {
    let mut out = Outcome::default();
    let frames = run.frames as usize;
    for (r, round) in run.rounds.iter().enumerate() {
        out.attempted += 2 * run.frames;
        for e in &round.errors {
            out.note(format!("round {r}: {e}"));
        }
        let mut failed = vec![[false; 2]; frames];
        let hash = |s: &SiteRun, g: usize| s.confirmed.get(g).copied().flatten();
        for (s, site) in round.sites.iter().enumerate() {
            for (g, bad) in failed.iter_mut().enumerate() {
                if site.frames.len() <= g || hash(site, g).is_none() {
                    bad[s] = true;
                }
            }
        }
        for (g, bad) in failed.iter_mut().enumerate() {
            if let (Some(a), Some(b)) = (hash(&round.sites[0], g), hash(&round.sites[1], g)) {
                if a != b {
                    *bad = [true, true];
                    out.note(format!(
                        "round {r} frame {g}: site hashes differ ({a:016x} vs {b:016x})"
                    ));
                }
            }
        }
        if !run.rollback {
            for (s, site) in round.sites.iter().enumerate() {
                let inputs: Vec<InputWord> = site.frames.iter().map(|m| m.report.input).collect();
                let replayed = replay(rom_pong_console, &inputs);
                for (g, (m, h)) in site.frames.iter().zip(&replayed).enumerate().take(frames) {
                    if m.report.state_hash != Some(*h) {
                        failed[g][s] = true;
                        out.note(format!("round {r} site {s} frame {g}: replay hash differs"));
                    }
                }
            }
        }
        let bad: u64 = failed
            .iter()
            .map(|b| b.iter().filter(|&&x| x).count() as u64)
            .sum();
        if bad > 0 {
            out.note(format!(
                "round {r}: {bad} site-frames missing, unconfirmed or mismatched"
            ));
        }
        out.failed += bad;
    }
    out
}

/// Input latencies of one round in ms: sample at one site → first
/// presentation of the frame it feeds, confirmed, at the other site. Both
/// directions pooled.
fn input_latencies_ms(round: &Round, frames: u64, lag: u64) -> Vec<f64> {
    let mut v = Vec::new();
    for (s, site) in round.sites.iter().enumerate() {
        let other = &round.sites[1 - s];
        for Sample { frame, at_ns } in &site.samples {
            let g = frame + lag;
            if g >= frames {
                continue;
            }
            if let Some(Some(p)) = other.confirmed_present_ns.get(g as usize) {
                v.push(p.saturating_sub(*at_ns) as f64 / 1e6);
            }
        }
    }
    v
}

/// Frames per wall second of one round, minimum over the sites.
fn frames_per_s(round: &Round) -> f64 {
    round
        .sites
        .iter()
        .map(|s| {
            let (Some(a), Some(b)) = (s.frames.first(), s.frames.last()) else {
                return 0.0;
            };
            ratio(
                (s.frames.len() - 1) as f64,
                (b.present_ns - a.present_ns) as f64 / 1e9,
            )
        })
        .fold(f64::INFINITY, f64::min)
}

/// End-to-end metrics of an untraced duel run. Latency percentiles pool
/// every round; rates, CPU and set-up are medians over rounds.
pub fn end_to_end(run: &DuelRun, out: &mut Outcome) {
    let lat: Vec<Vec<f64>> = run
        .rounds
        .iter()
        .map(|r| input_latencies_ms(r, run.frames, run.lag))
        .collect();
    latency_metrics(out, &lat);
    let frames: u64 = run
        .rounds
        .iter()
        .flat_map(|r| &r.sites)
        .map(|s| s.frames.len() as u64)
        .sum();
    let fps: Vec<f64> = run.rounds.iter().map(frames_per_s).collect();
    out.put("throughput_per_s", "1/s", median(&fps), frames);
    let cpu: Vec<f64> = run
        .rounds
        .iter()
        .map(|r| {
            let (c, n) = r
                .windows
                .iter()
                .fold((0, 0), |(c, n), w| (c + w.cpu_ns, n + w.frames));
            ratio(c as f64, n as f64) / 1e3
        })
        .collect();
    out.put("cpu_us_per_op", "us", median(&cpu), frames);
    let setups: Vec<f64> = run.rounds.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    out.put("setup_s", "s", median(&setups), setups.len() as u64);
}

/// Per-layer metrics of a traced duel run, over every round.
pub fn per_layer(run: &DuelRun, out: &mut Outcome) {
    let t = totals(&run.spans);
    let get = |l: Layer| t.get(&l).copied().unwrap_or_default();
    let sites: Vec<&SiteRun> = run.rounds.iter().flat_map(|r| &r.sites).collect();
    let frames: u64 = sites.iter().map(|s| s.frames.len() as u64).sum();
    let per_frame = |x: u64| ratio(x as f64, frames as f64);

    let (step, resim, hash) = (get(Layer::VmStep), get(Layer::VmResim), get(Layer::VmHash));
    let (ckpt, collect, restore) = (
        get(Layer::VmCheckpoint),
        get(Layer::VmCollect),
        get(Layer::VmRestore),
    );
    let ckpt_bytes: Vec<f64> = run
        .spans
        .iter()
        .filter(|s| s.layer == Layer::VmCheckpoint)
        .map(|s| s.val as f64)
        .collect();
    out.put("vm.step_ns", "ns", step.mean_ns(), step.count);
    out.put(
        "vm.step_calls_per_frame",
        "count",
        per_frame(step.count),
        frames,
    );
    out.put("vm.resim_ns", "ns", resim.mean_ns(), resim.count);
    out.put(
        "vm.resim_calls_per_frame",
        "count",
        per_frame(resim.count),
        frames,
    );
    out.put("vm.state_hash_ns", "ns", hash.mean_ns(), hash.count);
    out.put(
        "vm.state_hash_calls_per_frame",
        "count",
        per_frame(hash.count),
        frames,
    );
    out.put(
        "vm.checkpoint_ns",
        "ns",
        ratio((ckpt.dur_ns + collect.dur_ns) as f64, ckpt.count as f64),
        ckpt.count,
    );
    out.put("vm.checkpoint_bytes", "B", median(&ckpt_bytes), ckpt.count);
    out.put("vm.restore_ns", "ns", restore.mean_ns(), restore.count);
    let (mut hits, mut misses, mut fused) = (0, 0, 0);
    for i in sites.iter().filter_map(|s| s.interp) {
        (hits, misses, fused) = (hits + i.hits, misses + i.misses, fused + i.fused_hits);
    }
    let retired = hits + misses;
    out.put(
        "vm.decode_hit_ratio",
        "ratio",
        ratio(hits as f64, retired as f64),
        retired,
    );
    out.put(
        "vm.fusion_ratio",
        "ratio",
        ratio(2.0 * fused as f64, retired as f64),
        retired,
    );

    let stats = sites
        .iter()
        .fold(SessionStats::default(), |a, s| add_stats(a, s.stats));
    let ticks: u64 = sites.iter().map(|s| s.ticks).sum();
    let tick = get(Layer::SessionTick);
    let windows = run.rounds.iter().flat_map(|r| &r.windows);
    let (w_out, w_frames) = windows.fold((0, 0), |(o, n), w| (o + w.outside_ns, n + w.frames));
    let stall_ms: f64 = sites
        .iter()
        .flat_map(|s| &s.frames)
        .map(|m| m.report.stall.as_millis_f64())
        .sum();
    let tick_self = per_frame(tick.self_ns);
    let (sync_self, rb_self) = if run.rollback {
        (0.0, tick_self)
    } else {
        (tick_self, 0.0)
    };
    out.put("sync.ticks_per_frame", "count", per_frame(ticks), frames);
    out.put("sync.tick_self_ns_per_frame", "ns", sync_self, tick.count);
    out.put(
        "sync.realtime_overhead_us_per_frame",
        "us",
        ratio(w_out as f64, w_frames as f64) / 1e3,
        w_frames,
    );
    out.put(
        "sync.stall_ms_per_frame",
        "ms",
        ratio(stall_ms, frames as f64),
        frames,
    );
    out.put(
        "sync.stalled_frames",
        "count",
        stats.stalled_frames as f64,
        frames,
    );
    out.put(
        "sync.input_frames_sent_per_frame",
        "count",
        per_frame(stats.input_frames_sent),
        frames,
    );
    out.put(
        "sync.duplicate_msgs_received",
        "count",
        stats.duplicate_messages_received as f64,
        stats.input_messages_received,
    );

    let mut late_us = Vec::new();
    let mut dev = Vec::new();
    let mut offsets = Vec::new();
    for s in &sites {
        for w in s.frames.windows(2) {
            late_us.push((w[1].began_ns as f64 - w[0].next_wake_ns as f64) / 1e3);
        }
        let times: Vec<f64> = s
            .frames
            .windows(2)
            .map(|w| (w[1].began_ns - w[0].began_ns) as f64 / 1e6)
            .collect();
        dev.push(mean_abs_deviation(&times));
    }
    for r in &run.rounds {
        let (a, b) = (&r.sites[0].frames, &r.sites[1].frames);
        offsets.extend(
            a.iter()
                .zip(b)
                .map(|(x, y)| (y.began_ns as f64 - x.began_ns as f64) / 1e6),
        );
    }
    out.put(
        "pacing.start_late_us_p50",
        "us",
        quantile(&late_us, 0.5),
        late_us.len() as u64,
    );
    out.put(
        "pacing.late_frames",
        "count",
        stats.late_frames as f64,
        frames,
    );
    out.put(
        "pacing.frame_time_dev_ms",
        "ms",
        ratio(dev.iter().sum(), dev.len() as f64),
        frames,
    );
    out.put(
        "pacing.synchrony_ms",
        "ms",
        abs_mean(&offsets),
        offsets.len() as u64,
    );

    out.put("rollback.tick_self_ns_per_frame", "ns", rb_self, tick.count);
    out.put(
        "rollback.rollbacks_per_100_frames",
        "count",
        100.0 * per_frame(stats.rollbacks),
        frames,
    );
    let resim = stats.resimulated_frames;
    out.put(
        "rollback.resim_frames_per_rollback",
        "count",
        ratio(resim as f64, stats.rollbacks as f64),
        stats.rollbacks,
    );
    out.put(
        "rollback.wasted_frame_ratio",
        "ratio",
        ratio(resim as f64, (frames + resim) as f64),
        frames + resim,
    );
    out.put(
        "rollback.max_depth",
        "frames",
        stats.max_rollback_depth as f64,
        stats.rollbacks,
    );
    let ring: Vec<f64> = sites.iter().map(|s| s.ring_bytes as f64).collect();
    out.put("rollback.ring_bytes", "B", median(&ring), ring.len() as u64);

    let (send, recv) = (get(Layer::NetSend), get(Layer::NetRecv));
    out.put("net.send_ns", "ns", send.mean_ns(), send.count);
    out.put(
        "net.sends_per_frame",
        "count",
        per_frame(send.count),
        frames,
    );
    out.put("net.bytes_per_frame", "B", per_frame(send.val), frames);
    out.put("net.recv_ns", "ns", recv.mean_ns(), recv.count);
    out.put(
        "net.recv_hit_ratio",
        "ratio",
        ratio(recv.val as f64, recv.count as f64),
        recv.count,
    );
    let send_errors: u64 = run.rounds.iter().map(|r| r.send_errors).sum();
    out.put("net.send_errors", "count", send_errors as f64, send.count);

    let client = get(Layer::RelayClient);
    let poll = get(Layer::RelayPoll);
    out.put(
        "relay.client_self_ns_per_dgram",
        "ns",
        ratio(client.self_ns as f64, client.nonzero as f64),
        client.nonzero,
    );
    out.put(
        "relay.poll_ns_per_dgram",
        "ns",
        ratio(poll.dur_ns as f64, poll.val as f64),
        poll.val,
    );
    out.put(
        "relay.poll_empty_ratio",
        "ratio",
        ratio((poll.count - poll.nonzero) as f64, poll.count as f64),
        poll.count,
    );
    let relay = run.rounds.iter().fold(RelayStats::default(), |a, r| {
        crate::add_relay_stats(a, r.relay)
    });
    crate::relay_stats(out, relay);
    let (events, evicted) = run.rounds.iter().fold((0, 0), |(e, v), r| {
        (e + r.telemetry_events.0, v + r.telemetry_events.1)
    });
    out.put(
        "telemetry.events_per_frame",
        "count",
        per_frame(events),
        frames,
    );
    out.put("telemetry.evicted_events", "count", evicted as f64, events);
}

fn add_stats(a: SessionStats, b: SessionStats) -> SessionStats {
    SessionStats {
        frames: a.frames + b.frames,
        input_messages_sent: a.input_messages_sent + b.input_messages_sent,
        input_messages_received: a.input_messages_received + b.input_messages_received,
        duplicate_messages_received: a.duplicate_messages_received + b.duplicate_messages_received,
        retransmitted_frames_received: a.retransmitted_frames_received
            + b.retransmitted_frames_received,
        input_frames_sent: a.input_frames_sent + b.input_frames_sent,
        stalled_frames: a.stalled_frames + b.stalled_frames,
        stall_total: a.stall_total + b.stall_total,
        stall_max: a.stall_max.max(b.stall_max),
        late_frames: a.late_frames + b.late_frames,
        pace_adjustments: a.pace_adjustments + b.pace_adjustments,
        rollbacks: a.rollbacks + b.rollbacks,
        resimulated_frames: a.resimulated_frames + b.resimulated_frames,
        max_rollback_depth: a.max_rollback_depth.max(b.max_rollback_depth),
    }
}
