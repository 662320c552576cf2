//! The `relay_flood` workload: one `UdpRelay` under an open-loop stream of
//! small `Forward` datagrams from the member sockets of many sessions.
//!
//! Two threads: the relay (under `UdpRelay::run_until` with
//! `RelayConfig::default()` and telemetry recording) and the generator,
//! which owns every member socket, sends on a fixed schedule and polls for
//! deliveries between sends. Each datagram carries its sequence number,
//! its due time and a seeded check word, so the generator can verify that
//! it arrived intact, once, at the member it was addressed to (and at the
//! session's spectator, which taps every forward).

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use coplay_clock::SimTime;
use coplay_relay::wire::{decode_deliver, encode_forward_into};
use coplay_relay::{RelayConfig, RelayMessage, RelayStats, UdpRelay};
use coplay_telemetry::Telemetry;

use crate::report::{latency_metrics, median, quantile, ratio, Outcome};
use crate::trace::{self, Layer, Span};
use crate::ROUNDS;

/// Two-player sessions on the relay.
pub const SESSIONS: u32 = 16;
/// Sessions that also carry a spectator (fan-out of two copies).
pub const SPECTATED: u32 = 4;
/// Offered load, datagrams per second, summed over all senders.
pub const RATE_PER_S: u64 = 4_000;
/// Payload bytes: sequence, due time, check word.
pub const PAYLOAD: usize = 24;
/// Deliveries may trail the last send by at most this long.
const DRAIN_NS: u64 = 1_000_000_000;
/// Spectators send a heartbeat this often (they never forward).
const HEARTBEAT_NS: u64 = 1_000_000_000;
/// The relay loop's idle park, as in `UdpRelay::run_until`.
const PARK: Duration = Duration::from_micros(500);

const PHASE_SETUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_END: u8 = 2;
const PHASE_STOP: u8 = 3;

#[derive(Debug)]
struct Member {
    sock: UdpSocket,
    session: u32,
    site: u8,
    spectator: bool,
}

/// One run of the flood: `ROUNDS` rounds, each with a fresh relay.
#[derive(Debug, Default)]
pub struct FloodRun {
    /// The rounds, in order.
    pub rounds: Vec<FloodRound>,
}

/// One round: relay and members set up, flooded, drained.
#[derive(Debug, Default)]
pub struct FloodRound {
    /// Relay bind to every member registered, ns.
    pub setup_ns: u64,
    /// Due → delivery at the destination member, µs.
    pub latency_us: Vec<f64>,
    /// Send time − due time, µs.
    pub late_us: Vec<f64>,
    /// Datagrams sent.
    pub sent: u64,
    /// Datagrams that failed a delivery check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
    /// Relay thread CPU over the measured window, ns.
    pub relay_cpu_ns: u64,
    /// First due time to last delivery, ns.
    pub span_ns: u64,
    /// Relay totals.
    pub stats: RelayStats,
    /// Relay telemetry events (retained + evicted) and evicted.
    pub telemetry_events: (u64, u64),
    /// Member sockets the generator owned.
    pub sockets: u64,
    /// Relay-thread spans (traced runs only).
    pub spans: Vec<Span>,
}

struct RelayThread {
    stats: RelayStats,
    cpu: (u64, u64),
    spans: Vec<Span>,
}

/// Runs the flood: `ROUNDS` rounds sharing the run's datagrams equally.
pub fn relay_flood(seed: u64, seconds: u64, traced: bool) -> Result<FloodRun, String> {
    let count = seconds * RATE_PER_S / ROUNDS;
    let mut run = FloodRun::default();
    for r in 0..ROUNDS {
        run.rounds
            .push(flood_round(crate::mix(seed, r), count, traced)?);
    }
    Ok(run)
}

fn err(what: &'static str) -> impl Fn(io::Error) -> String {
    move |e| format!("{what}: {e}")
}

fn flood_round(seed: u64, count: u64, traced: bool) -> Result<FloodRound, String> {
    let t0 = trace::now_ns();
    let tel = Telemetry::recording();
    let relay = UdpRelay::bind("127.0.0.1:0", RelayConfig::default())
        .map_err(err("bind relay"))?
        .with_telemetry(tel.clone());
    let relay_addr = relay.local_addr().map_err(err("relay addr"))?;
    let members = bind_members(relay_addr)?;
    // The first registrations queue on the relay's socket and its thread
    // handles them in its first poll, so set-up does not depend on where
    // an idle park happens to be.
    let mut buf = Vec::with_capacity(64);
    for m in &members {
        register(m, &mut buf);
    }
    let phase = Arc::new(AtomicU8::new(PHASE_SETUP));
    let relay_phase = Arc::clone(&phase);
    let handle = std::thread::Builder::new()
        .name("relay".into())
        .spawn(move || relay_thread(relay, &relay_phase, traced))
        .map_err(err("spawn relay"))?;
    let result = generate(seed, count, t0, &members, &phase);
    phase.store(PHASE_STOP, Ordering::SeqCst);
    let relay_out = handle
        .join()
        .map_err(|_| "relay thread panicked".to_string())?;
    let mut run = result?;
    let relay_out = relay_out?;
    run.stats = relay_out.stats;
    run.relay_cpu_ns = relay_out.cpu.1.saturating_sub(relay_out.cpu.0);
    run.spans = relay_out.spans;
    run.telemetry_events = (
        tel.event_count() as u64 + tel.dropped_events(),
        tel.dropped_events(),
    );
    Ok(run)
}

/// The relay thread. Untraced it runs `UdpRelay::run_until` itself; traced
/// it runs the same loop (poll, park 500 µs when a poll handled nothing)
/// from outside, so each `poll` can be timed. Thread CPU is read when the
/// generator starts and ends the measured window.
fn relay_thread(
    mut relay: UdpRelay,
    phase: &AtomicU8,
    traced: bool,
) -> Result<RelayThread, String> {
    trace::set_enabled(traced);
    let mut cpu = (0u64, 0u64);
    let mut stop = || {
        let p = phase.load(Ordering::SeqCst);
        if p >= PHASE_MEASURE && cpu.0 == 0 {
            cpu.0 = trace::thread_cpu_ns();
        }
        if p >= PHASE_END && cpu.1 == 0 {
            cpu.1 = trace::thread_cpu_ns();
        }
        p == PHASE_STOP
    };
    let result = if traced {
        let epoch = trace::now_ns();
        let mut r = Ok(());
        while !stop() {
            let now = SimTime::from_micros((trace::now_ns() - epoch) / 1_000);
            let h = trace::open(Layer::RelayPoll, 0, 0);
            let handled = match relay.poll(now) {
                Ok(n) => n,
                Err(e) => {
                    r = Err(e);
                    break;
                }
            };
            trace::close(h, handled as u64);
            if handled == 0 {
                std::thread::sleep(PARK);
            }
        }
        r
    } else {
        relay.run_until(stop)
    };
    let spans = trace::take();
    trace::set_enabled(false);
    result.map_err(err("relay loop"))?;
    Ok(RelayThread {
        stats: relay.stats(),
        cpu,
        spans,
    })
}

/// Expected recipients of one datagram and what arrived.
#[derive(Debug, Clone, Copy, Default)]
struct Track {
    due_ns: u64,
    from: u16,
    dest: u16,
    spectator: Option<u16>,
    got_dest: bool,
    got_spectator: bool,
    bad: bool,
}

fn bind_members(relay: SocketAddr) -> Result<Vec<Member>, String> {
    let mut members = Vec::new();
    for session in 0..SESSIONS {
        let seats = if session < SPECTATED { 3 } else { 2 };
        for seat in 0..seats {
            let sock = UdpSocket::bind("127.0.0.1:0").map_err(err("bind member"))?;
            sock.set_nonblocking(true).map_err(err("nonblocking"))?;
            sock.connect(relay).map_err(err("connect member"))?;
            members.push(Member {
                sock,
                session: session + 1,
                site: seat,
                spectator: seat == 2,
            });
        }
    }
    Ok(members)
}

fn register(m: &Member, buf: &mut Vec<u8>) {
    RelayMessage::Register {
        session: m.session,
        site: m.site,
        spectator: m.spectator,
    }
    .encode_into(buf);
    let _ = m.sock.send(buf);
}

/// Check word of datagram `seq`.
fn check_word(seed: u64, seq: u64) -> u64 {
    crate::mix(seed ^ 0xF100D, seq)
}

fn generate(
    seed: u64,
    total: u64,
    t0: u64,
    members: &[Member],
    phase: &AtomicU8,
) -> Result<FloodRound, String> {
    let mut run = FloodRound {
        sockets: members.len() as u64,
        ..FloodRound::default()
    };
    let mut buf = Vec::with_capacity(64);
    let mut rx = vec![0u8; 2048];

    // Set-up: every member registered.
    let mut registered = vec![false; members.len()];
    let mut next_register = trace::now_ns() + 20_000_000;
    let deadline = trace::now_ns() + 5_000_000_000;
    while !registered.iter().all(|&r| r) {
        let now = trace::now_ns();
        if now > deadline {
            return Err("members failed to register within 5 s".into());
        }
        if now >= next_register {
            for (m, _) in members.iter().zip(&registered).filter(|(_, r)| !**r) {
                register(m, &mut buf);
            }
            next_register = now + 20_000_000;
        }
        for (i, m) in members.iter().enumerate() {
            while let Ok(n) = m.sock.recv(&mut rx) {
                if let Ok(RelayMessage::Registered { session, site }) =
                    RelayMessage::decode(&rx[..n])
                {
                    registered[i] |= session == m.session && site == m.site;
                }
            }
        }
        // Yield between polls: a generator spinning on the core the relay
        // thread was just spawned on would delay it by a scheduler tick.
        std::thread::yield_now();
    }
    run.setup_ns = trace::now_ns() - t0;

    // The schedule: a fixed interval; the seed picks each sender and
    // the check words.
    let players: Vec<usize> = (0..members.len())
        .filter(|&i| !members[i].spectator)
        .collect();
    let spectator_of = |session: u32| {
        members
            .iter()
            .position(|m| m.spectator && m.session == session)
    };
    let interval = 1_000_000_000 / RATE_PER_S;
    let mut rng = crate::mix(seed, 0x5EED);
    let mut tracks = Vec::with_capacity(total as usize);
    for _ in 0..total {
        rng = crate::mix(rng, 1);
        let from = players[(rng % players.len() as u64) as usize];
        let m = &members[from];
        let dest = members
            .iter()
            .position(|d| d.session == m.session && !d.spectator && d.site != m.site);
        let Some(dest) = dest else {
            return Err("session without a peer".into());
        };
        tracks.push(Track {
            from: from as u16,
            dest: dest as u16,
            spectator: spectator_of(m.session).map(|i| i as u16),
            ..Track::default()
        });
    }

    phase.store(PHASE_MEASURE, Ordering::SeqCst);
    let start = trace::now_ns() + 1_000_000;
    let mut next_heartbeat = start + HEARTBEAT_NS;
    let mut seq = 0u64;
    let mut last_delivery = start;
    let mut outstanding = 0u64;
    // Deliveries each member still awaits: only those sockets are polled
    // while the flood runs, so polling cost follows the traffic rather
    // than the member count. A final sweep of every socket catches strays.
    let mut awaiting = vec![0u32; members.len()];
    let drain_deadline = start + total * interval + DRAIN_NS;
    loop {
        let now = trace::now_ns();
        while seq < total && start + seq * interval <= now {
            let due = start + seq * interval;
            let t = &mut tracks[seq as usize];
            let m = &members[t.from as usize];
            t.due_ns = due;
            let mut payload = [0u8; PAYLOAD];
            payload[..8].copy_from_slice(&seq.to_le_bytes());
            payload[8..16].copy_from_slice(&due.to_le_bytes());
            payload[16..].copy_from_slice(&check_word(seed, seq).to_le_bytes());
            let dest_site = members[t.dest as usize].site;
            encode_forward_into(&mut buf, dest_site, &payload);
            let sent_at = trace::now_ns();
            if m.sock.send(&buf).is_err() {
                t.bad = true;
            }
            run.late_us.push((sent_at - due) as f64 / 1e3);
            outstanding += 1 + u64::from(t.spectator.is_some());
            awaiting[t.dest as usize] += 1;
            if let Some(sp) = t.spectator {
                awaiting[sp as usize] += 1;
            }
            seq += 1;
        }
        if now >= next_heartbeat {
            for m in members.iter().filter(|m| m.spectator) {
                RelayMessage::Heartbeat { session: m.session }.encode_into(&mut buf);
                let _ = m.sock.send(&buf);
            }
            next_heartbeat += HEARTBEAT_NS;
        }
        for (r, m) in members.iter().enumerate() {
            if awaiting[r] == 0 {
                continue;
            }
            while let Ok(n) = m.sock.recv(&mut rx) {
                let at = trace::now_ns();
                let Ok((from_site, payload)) = decode_deliver(&rx[..n]) else {
                    continue;
                };
                let Some(t) = accept(seed, members, &mut tracks, r, from_site, payload) else {
                    note(
                        &mut run,
                        format!("member {r}: unexpected or corrupt delivery"),
                    );
                    continue;
                };
                outstanding = outstanding.saturating_sub(1);
                awaiting[r] = awaiting[r].saturating_sub(1);
                last_delivery = last_delivery.max(at);
                if t.0 {
                    run.latency_us.push((at - t.1) as f64 / 1e3);
                }
            }
        }
        if seq == total && (outstanding == 0 || trace::now_ns() > drain_deadline) {
            break;
        }
    }
    phase.store(PHASE_END, Ordering::SeqCst);
    for (r, m) in members.iter().enumerate() {
        while let Ok(n) = m.sock.recv(&mut rx) {
            if let Ok((_, payload)) = decode_deliver(&rx[..n]) {
                let seq = payload.get(..8).map_or(u64::MAX, |b| {
                    u64::from_le_bytes(b.try_into().unwrap_or([0xFF; 8]))
                });
                if let Some(t) = usize::try_from(seq).ok().and_then(|i| tracks.get_mut(i)) {
                    t.bad = true;
                }
                note(
                    &mut run,
                    format!("member {r}: stray delivery of datagram {seq}"),
                );
            }
        }
    }
    run.sent = total;
    run.span_ns = last_delivery.saturating_sub(start);
    for (seq, t) in tracks.iter().enumerate() {
        let complete = t.got_dest && (t.spectator.is_none() || t.got_spectator);
        if t.bad || !complete {
            run.failed += 1;
            if run.problems.len() < 8 {
                run.problems.push(format!(
                    "datagram {seq}: not delivered intact to every recipient once"
                ));
            }
        }
    }
    Ok(run)
}

fn note(run: &mut FloodRound, why: String) {
    if run.problems.len() < 8 {
        run.problems.push(why);
    }
}

/// Validates one delivery at member `r`; returns (destination copy?, due).
fn accept(
    seed: u64,
    members: &[Member],
    tracks: &mut [Track],
    r: usize,
    from_site: u8,
    payload: &[u8],
) -> Option<(bool, u64)> {
    if payload.len() != PAYLOAD {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().unwrap_or([0; 8]));
    let (seq, due, check) = (word(0), word(8), word(16));
    let t = tracks.get_mut(usize::try_from(seq).ok()?)?;
    let sender = &members[t.from as usize];
    let intact = due == t.due_ns && check == check_word(seed, seq) && from_site == sender.site;
    if !intact {
        t.bad = true;
        return None;
    }
    if r == t.dest as usize {
        if t.got_dest {
            t.bad = true;
            return None;
        }
        t.got_dest = true;
        Some((true, due))
    } else if Some(r as u16) == t.spectator {
        if t.got_spectator {
            t.bad = true;
            return None;
        }
        t.got_spectator = true;
        Some((false, due))
    } else {
        t.bad = true;
        None
    }
}

/// Correctness outcome of a flood run: every datagram delivered intact,
/// once, to each member it was meant for.
pub fn check(run: &FloodRun) -> Outcome {
    let mut out = Outcome::default();
    for (r, round) in run.rounds.iter().enumerate() {
        out.attempted += round.sent;
        out.failed += round.failed;
        for p in &round.problems {
            out.note(format!("round {r}: {p}"));
        }
    }
    out
}

/// End-to-end metrics of an untraced flood run. Latency percentiles pool
/// every round; rates, CPU and set-up are medians over rounds.
pub fn end_to_end(run: &FloodRun, out: &mut Outcome) {
    let lat: Vec<Vec<f64>> = run
        .rounds
        .iter()
        .map(|r| r.latency_us.iter().map(|us| us / 1e3).collect())
        .collect();
    latency_metrics(out, &lat);
    let n = lat.iter().map(Vec::len).sum::<usize>() as u64;
    let per_round =
        |f: &dyn Fn(&FloodRound) -> f64| median(&run.rounds.iter().map(f).collect::<Vec<_>>());
    let rate = per_round(&|r| ratio(r.latency_us.len() as f64, r.span_ns as f64 / 1e9));
    out.put("throughput_per_s", "1/s", rate, n);
    let forwarded: u64 = run.rounds.iter().map(|r| r.stats.forwarded).sum();
    let cpu = per_round(&|r| ratio(r.relay_cpu_ns as f64, r.stats.forwarded as f64) / 1e3);
    out.put("cpu_us_per_op", "us", cpu, forwarded);
    out.put(
        "setup_s",
        "s",
        per_round(&|r| r.setup_ns as f64 / 1e9),
        run.rounds.len() as u64,
    );
    let late: Vec<f64> = run
        .rounds
        .iter()
        .flat_map(|r| r.late_us.iter().copied())
        .collect();
    let late_p99 = quantile(&late, 0.99);
    // The latency is timed from each datagram's due time, so a generator
    // running later than the latency it measures would inflate it.
    out.facts
        .insert("gen_late_p99_us", format!("{late_p99:.1}"));
    out.facts.insert(
        "valid",
        (late_p99 <= 1e3 * out.value("latency_p50_ms")).to_string(),
    );
}

/// Per-layer metrics of a traced flood run, over every round.
pub fn per_layer(run: &FloodRun, out: &mut Outcome) {
    let spans: Vec<Span> = run
        .rounds
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();
    let t = crate::report::totals(&spans);
    let poll = t.get(&Layer::RelayPoll).copied().unwrap_or_default();
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
    let stats = run.rounds.iter().fold(RelayStats::default(), |a, r| {
        crate::add_relay_stats(a, r.stats)
    });
    crate::relay_stats(out, stats);
    let (events, evicted) = run.rounds.iter().fold((0, 0), |(e, v), r| {
        (e + r.telemetry_events.0, v + r.telemetry_events.1)
    });
    out.put(
        "telemetry.events_per_dgram",
        "count",
        ratio(events as f64, stats.forwarded as f64),
        stats.forwarded,
    );
    out.put("telemetry.evicted_events", "count", evicted as f64, events);
    let late: Vec<f64> = run
        .rounds
        .iter()
        .flat_map(|r| r.late_us.iter().copied())
        .collect();
    out.put(
        "gen.late_p99_us",
        "us",
        quantile(&late, 0.99),
        late.len() as u64,
    );
    let sockets = run.rounds.first().map_or(0, |r| r.sockets);
    out.put("gen.sockets", "count", sockets as f64, sockets);
}
