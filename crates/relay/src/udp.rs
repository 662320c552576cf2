//! The relay's real-socket event loop.
//!
//! One [`UdpSocket`] serves every session on the shard: the ROADMAP's
//! outbound-only clients all talk to this single well-known address, and
//! [`RelayCore`] routes between them by sender address. The loop is
//! single-threaded by design — the per-datagram work is a map lookup and a
//! memcpy fan-out — and scales horizontally by running one process (or
//! thread) per shard, each bound to its own port.
//!
//! Two ways to drive it share one routing path and one sweep cadence:
//!
//! - [`UdpRelay::run_until`] owns the thread. It waits in the kernel for
//!   the next datagram, so a forward leaves as soon as its datagram lands
//!   rather than when a sleep ends; the wait is cut off after `IDLE_WAIT`
//!   so the eviction sweep and the caller's `stop` check still run on an
//!   idle socket. The kernel rounds that timeout up to its scheduler
//!   tick: the 500 µs asked for reads back as 4 ms on a 250 Hz kernel,
//!   and an idle wait lasts ~8 ms.
//! - [`UdpRelay::poll`] never blocks: it drains what is queued and
//!   returns, for callers that interleave the relay with other work on one
//!   thread.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

use coplay_clock::SimTime;
use coplay_telemetry::Telemetry;

use crate::server::{RelayConfig, RelayCore, RelayStats};

/// Largest datagram the relay will accept: the wire cap plus envelope
/// headroom. Anything bigger is not a legal relay datagram.
const RECV_BUF: usize = crate::wire::MAX_RELAY_PAYLOAD + 64;

/// How often the eviction sweep runs, as a divisor of the member TTL.
const SWEEP_DIVISOR: u64 = 4;

/// The timeout [`UdpRelay::run_until`] asks for in one receive or send: it
/// bounds how late an idle loop notices `stop` or a due sweep, and how
/// long one receiver with a full send buffer can hold up the others. The
/// kernel rounds it up to its scheduler tick (4 ms at 250 Hz), so an idle
/// wait lasts several milliseconds, not 500 µs.
const IDLE_WAIT: Duration = Duration::from_micros(500);

/// A [`RelayCore`] bound to a real UDP socket. See the module docs.
pub struct UdpRelay {
    socket: UdpSocket,
    core: RelayCore<SocketAddr>,
    buf: Vec<u8>,
    sweep_every: Duration,
    epoch: Option<Instant>,
    last_sweep: SimTime,
}

impl UdpRelay {
    /// Binds the relay socket at `addr` (non-blocking) with policy `cfg`.
    ///
    /// # Errors
    ///
    /// Returns any socket-creation error from the OS.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: RelayConfig) -> io::Result<UdpRelay> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let sweep_every = (cfg.member_ttl / SWEEP_DIVISOR).to_std();
        Ok(UdpRelay {
            socket,
            core: RelayCore::new(cfg),
            buf: vec![0; RECV_BUF],
            sweep_every,
            epoch: None,
            last_sweep: SimTime::ZERO,
        })
    }

    /// Attaches a telemetry sink to the routing core.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.core = self.core.with_telemetry(telemetry);
        self
    }

    /// The socket address actually bound (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has become invalid.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The routing core's running totals.
    pub fn stats(&self) -> RelayStats {
        self.core.stats()
    }

    /// Live sessions on this shard.
    pub fn session_count(&self) -> usize {
        self.core.session_count()
    }

    /// Drains the socket once, routing every pending datagram, and runs the
    /// eviction sweep when its cadence is due. Returns how many datagrams
    /// were processed. Never blocks.
    ///
    /// # Errors
    ///
    /// Returns socket errors other than an empty receive queue. Send
    /// failures to individual clients are ignored (UDP semantics: the relay
    /// must not stall on one dead receiver).
    pub fn poll(&mut self, now: SimTime) -> io::Result<usize> {
        let mut handled = 0usize;
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, from)) => {
                    handled += 1;
                    self.route(from, n, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        self.sweep_if_due(now);
        Ok(handled)
    }

    /// Runs the event loop until `stop` returns `true`.
    ///
    /// Each turn waits in the kernel for one datagram, routes it, runs the
    /// eviction sweep if due and then checks `stop`. A forward is routed as
    /// soon as its datagram lands. The wait ends after `IDLE_WAIT` on an
    /// idle socket — 500 µs asked for, several milliseconds once the
    /// kernel rounds it to its tick — which bounds how late the loop sees
    /// `stop` and how late a due sweep runs. A send waits at most as long,
    /// so a receiver with a full buffer costs one such wait and its
    /// datagram, never a stall.
    /// The socket is back in [`poll`](UdpRelay::poll)'s never-block mode
    /// when this returns, error or not.
    ///
    /// # Errors
    ///
    /// Propagates the first socket error other than an expired wait.
    pub fn run_until(&mut self, mut stop: impl FnMut() -> bool) -> io::Result<()> {
        let served = self.serve(&mut stop);
        let restored = self
            .socket
            .set_read_timeout(None)
            .and(self.socket.set_write_timeout(None))
            .and(self.socket.set_nonblocking(true));
        served.and(restored)
    }

    /// `run_until`'s loop, on a socket switched to waiting mode.
    // Wall clock is the relay's legitimate time source: it serves live
    // clients and only feeds eviction timers, never simulation state.
    #[allow(clippy::disallowed_methods)]
    fn serve(&mut self, stop: &mut impl FnMut() -> bool) -> io::Result<()> {
        let epoch = *self.epoch.get_or_insert_with(Instant::now);
        self.socket.set_nonblocking(false)?;
        self.socket.set_read_timeout(Some(IDLE_WAIT))?;
        self.socket.set_write_timeout(Some(IDLE_WAIT))?;
        while !stop() {
            let got = match self.socket.recv_from(&mut self.buf) {
                Ok(got) => Some(got),
                // The wait expired (`WouldBlock` on Unix, `TimedOut` on
                // Windows) or a signal cut it short: nothing arrived.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    None
                }
                Err(e) => return Err(e),
            };
            let now = SimTime::from_micros(epoch.elapsed().as_micros() as u64);
            if let Some((n, from)) = got {
                self.route(from, n, now);
            }
            self.sweep_if_due(now);
        }
        Ok(())
    }

    /// Routes the datagram in `buf[..len]` from `from` and sends the
    /// replies. Send failures are ignored: one dead receiver must not stall
    /// the relay.
    fn route(&mut self, from: SocketAddr, len: usize, now: SimTime) {
        let data = self.buf.get(..len).unwrap_or(&[]);
        for (to, reply) in self.core.handle(from, data, now) {
            let _ = self.socket.send_to(reply, *to);
        }
    }

    /// Runs the eviction sweep if `sweep_every` has passed since the last.
    fn sweep_if_due(&mut self, now: SimTime) {
        if now.saturating_since(self.last_sweep).to_std() >= self.sweep_every {
            self.last_sweep = now;
            for (to, notice) in self.core.sweep(now) {
                let _ = self.socket.send_to(notice, *to);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, RelayMessage};
    use coplay_net::bytes::Bytes;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};

    fn client() -> UdpSocket {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s
    }

    fn recv(sock: &UdpSocket) -> Vec<u8> {
        let mut buf = vec![0u8; RECV_BUF];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        buf.truncate(n);
        buf
    }

    #[test]
    fn routes_between_real_sockets() {
        let mut relay = UdpRelay::bind("127.0.0.1:0", RelayConfig::default()).unwrap();
        let addr = relay.local_addr().unwrap();
        let a = client();
        let b = client();

        a.send_to(
            &RelayMessage::Register {
                session: 1,
                site: 0,
                spectator: false,
            }
            .encode(),
            addr,
        )
        .unwrap();
        b.send_to(
            &RelayMessage::Register {
                session: 1,
                site: 1,
                spectator: false,
            }
            .encode(),
            addr,
        )
        .unwrap();
        // Poll until both registrations are in (datagrams may land across
        // separate polls).
        let mut now = SimTime::ZERO;
        while relay.core.member_count(1) < 2 {
            relay.poll(now).unwrap();
            now += coplay_clock::SimDuration::from_millis(1);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(
            RelayMessage::decode(&recv(&a)),
            Ok(RelayMessage::Registered {
                session: 1,
                site: 0
            })
        ));
        assert!(matches!(
            RelayMessage::decode(&recv(&b)),
            Ok(RelayMessage::Registered {
                session: 1,
                site: 1
            })
        ));

        a.send_to(
            &RelayMessage::Forward {
                dest: wire::DEST_BROADCAST,
                payload: Bytes::copy_from_slice(b"input frame"),
            }
            .encode(),
            addr,
        )
        .unwrap();
        let mut forwarded = 0;
        while forwarded == 0 {
            relay.poll(now).unwrap();
            forwarded = relay.stats().forwarded;
            std::thread::sleep(Duration::from_millis(1));
        }
        let delivered = recv(&b);
        let (from_site, payload) = wire::decode_deliver(&delivered).unwrap();
        assert_eq!(from_site, 0);
        assert_eq!(payload, b"input frame");
    }

    /// Waits up to 5 s on `sock` for a datagram that `pick` accepts.
    #[allow(clippy::disallowed_methods)] // bounds a real-socket wait
    fn await_msg<T>(sock: &UdpSocket, pick: impl Fn(&[u8]) -> Option<T>) -> T {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = vec![0u8; RECV_BUF];
        while Instant::now() < deadline {
            if let Ok((n, _)) = sock.recv_from(&mut buf) {
                if let Some(found) = pick(&buf[..n]) {
                    return found;
                }
            }
        }
        panic!("expected datagram did not arrive within 5 s");
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // times the real loop's stop and poll
    fn run_until_waits_in_the_kernel_then_restores_poll_mode() {
        let cfg = RelayConfig {
            member_ttl: coplay_clock::SimDuration::from_millis(200),
            ..RelayConfig::default()
        };
        let mut relay = UdpRelay::bind("127.0.0.1:0", cfg).unwrap();
        let addr = relay.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (stopped_tx, stopped_rx) = mpsc::channel();
        let (polled_tx, polled_rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let served = relay.run_until(|| flag.load(Ordering::SeqCst));
            stopped_tx.send((Instant::now(), served.is_ok())).unwrap();
            // Back in never-block mode, 4000 polls of the empty socket take
            // milliseconds; a socket left waiting would spend at least
            // its idle wait in each (500 µs asked for, 2 s in all), or block
            // for good.
            let started = Instant::now();
            let empty = (0..4000).all(|_| matches!(relay.poll(SimTime::ZERO), Ok(0)));
            polled_tx.send((started.elapsed(), empty)).unwrap();
        });

        let (a, b) = (client(), client());
        for (sock, site) in [(&a, 0), (&b, 1)] {
            let register = RelayMessage::Register {
                session: 1,
                site,
                spectator: false,
            };
            sock.send_to(&register.encode(), addr).unwrap();
            await_msg(sock, |d| {
                matches!(RelayMessage::decode(d), Ok(RelayMessage::Registered { .. })).then_some(())
            });
        }
        let mut forward = Vec::new();
        wire::encode_forward_into(&mut forward, 1, b"input frame");
        a.send_to(&forward, addr).unwrap();
        let payload = await_msg(&b, |d| {
            wire::decode_deliver(d).ok().map(|(_, p)| p.to_vec())
        });
        assert_eq!(payload, b"input frame");

        // Both clients now fall silent: only the loop's own sweep, run
        // between kernel waits, can tell them they were evicted.
        for sock in [&a, &b] {
            await_msg(sock, |d| {
                matches!(
                    RelayMessage::decode(d),
                    Ok(RelayMessage::Evicted { session: 1 })
                )
                .then_some(())
            });
        }

        let flipped = Instant::now();
        stop.store(true, Ordering::SeqCst);
        let (stopped, served) = stopped_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("run_until did not return after stop");
        assert!(served);
        assert!(stopped.duration_since(flipped) <= Duration::from_secs(1));
        let (took, empty) = polled_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("poll blocked after run_until returned");
        assert!(empty, "poll on an empty socket must return Ok(0)");
        assert!(
            took < Duration::from_secs(1),
            "4000 empty polls took {took:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn run_until_stops() {
        let mut relay = UdpRelay::bind("127.0.0.1:0", RelayConfig::default()).unwrap();
        let mut polls = 0;
        relay
            .run_until(|| {
                polls += 1;
                polls > 3
            })
            .unwrap();
    }
}
