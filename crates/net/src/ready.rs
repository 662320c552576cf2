//! The readiness wait behind the wall-clock runner.
//!
//! A paced site spends most of each frame waiting: for the frame deadline,
//! or for the datagram that lets it continue. [`wait_readable`] blocks the
//! calling thread until one of its sockets is readable or a timeout passes,
//! so the site wakes when the datagram lands instead of on the next poll
//! slice.
//!
//! Which sockets to wait on follows the poll/waker contract of async I/O:
//! [`UdpTransport::try_recv`](crate::UdpTransport) *arms* its socket in a
//! per-thread slot each time it finds the socket empty, and the next wait
//! on that thread watches every socket armed since the previous wait. A
//! transport decorator that forwards `try_recv` (a relay client, a timing
//! wrapper) therefore arms the socket beneath it without knowing this
//! module exists, and no [`Transport`](crate::Transport) method is needed.
//!
//! A thread with nothing armed — an in-process loopback or simulated
//! transport, or a platform without `ppoll` — cannot be woken by a
//! datagram, so its wait sleeps at most [`SLICE`] and the caller polls
//! again.
//!
//! The wait itself is one `ppoll(2)` call: the standard library has no
//! readiness wait, and its socket read timeout is rounded up to the
//! kernel's scheduler tick (a 500 µs `SO_RCVTIMEO` reads back as 4 ms on a
//! 250 Hz kernel). `ppoll` takes a nanosecond timeout on a high-resolution
//! timer.

use std::cell::Cell;
use std::net::UdpSocket;
use std::time::Duration;

/// Longest wait of a thread with nothing armed: it cannot be woken by a
/// datagram, so it polls its transports at this period.
pub const SLICE: Duration = Duration::from_millis(1);

/// Sockets one thread can arm between two waits. A thread that arms more
/// waits one [`SLICE`] at most, like a thread with nothing armed.
const SLOTS: usize = 8;

/// The sockets armed on one thread since its last wait (raw descriptors).
#[derive(Debug, Clone, Copy)]
struct Armed {
    fds: [i32; SLOTS],
    len: usize,
    overflow: bool,
}

impl Armed {
    const EMPTY: Armed = Armed {
        fds: [-1; SLOTS],
        len: 0,
        overflow: false,
    };
}

thread_local! {
    // A `Copy` value with a const initialiser: no lazy allocation and no
    // destructor, so arming never allocates and works during thread exit.
    static ARMED: Cell<Armed> = const { Cell::new(Armed::EMPTY) };
}

/// Arms `socket` for the calling thread's next [`wait_readable`]. Call it
/// whenever a receive finds `socket` empty. Arming an armed socket is a
/// no-op, and arming never allocates.
pub(crate) fn arm(socket: &UdpSocket) {
    let Some(fd) = sys::raw_fd(socket) else {
        return;
    };
    let _ = ARMED.try_with(|slot| {
        let mut armed = slot.get();
        if armed.fds[..armed.len].contains(&fd) {
            return;
        }
        match armed.fds.get_mut(armed.len) {
            Some(free) => {
                *free = fd;
                armed.len += 1;
            }
            None => armed.overflow = true,
        }
        slot.set(armed);
    });
}

/// Removes `socket` from the calling thread's slot, so a closed socket is
/// never waited on. A socket armed on another thread stays in that
/// thread's slot until its next wait; should its descriptor be closed by
/// then, `ppoll` reports it invalid and that wait returns at once.
pub(crate) fn disarm(socket: &UdpSocket) {
    let Some(fd) = sys::raw_fd(socket) else {
        return;
    };
    let _ = ARMED.try_with(|slot| {
        let armed = slot.get();
        let mut kept = Armed {
            overflow: armed.overflow,
            ..Armed::EMPTY
        };
        for &other in armed.fds[..armed.len].iter().filter(|&&f| f != fd) {
            kept.fds[kept.len] = other;
            kept.len += 1;
        }
        slot.set(kept);
    });
}

/// Blocks the calling thread until a datagram is readable on a socket
/// armed on this thread since its previous wait, or until `timeout`
/// passes, whichever comes first. Every wait clears the thread's slot:
/// the transports re-arm when the caller next polls them empty.
///
/// A thread with nothing armed (see the module docs) sleeps for
/// `timeout` or [`SLICE`], whichever is shorter. A return therefore
/// means "poll again", never "a datagram is waiting": the wait can also
/// end early on a signal.
pub fn wait_readable(timeout: Duration) {
    let armed = ARMED.try_with(|slot| slot.replace(Armed::EMPTY));
    match armed {
        Ok(armed) if armed.len > 0 && !armed.overflow => {
            sys::poll_readable(&armed.fds[..armed.len], timeout);
        }
        _ => std::thread::sleep(timeout.min(SLICE)),
    }
}

/// The platform layer: raw descriptors and the `ppoll` call.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    use super::SLOTS;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `struct timespec` on 64-bit Linux (`time_t` and `long` are 64 bits).
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `POLLIN`: data may be read without blocking.
    const POLLIN: i16 = 0x001;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> i32;
    }

    pub(super) fn raw_fd(socket: &UdpSocket) -> Option<i32> {
        Some(socket.as_raw_fd())
    }

    /// Waits until one of `fds` (at most [`SLOTS`]) is readable, is
    /// invalid, or `timeout` passes. Errors, `EINTR` included, end the
    /// wait like a timeout does: the caller polls again either way.
    #[allow(unsafe_code)]
    pub(super) fn poll_readable(fds: &[i32], timeout: Duration) {
        let mut polled = [PollFd {
            fd: -1,
            events: POLLIN,
            revents: 0,
        }; SLOTS];
        let n = fds.len().min(SLOTS);
        for (p, &fd) in polled.iter_mut().zip(fds) {
            p.fd = fd;
        }
        let ts = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `polled` is a live local array of `n <= SLOTS`
        // initialised `pollfd`s that ppoll may write (`revents` only) for
        // the duration of the call; `ts` is a valid timespec (nanoseconds
        // below 10^9) that outlives the call; a null sigmask leaves the
        // signal mask unchanged. No pointer is retained after return.
        let _ = unsafe { ppoll(polled.as_mut_ptr(), n as u64, &ts, std::ptr::null()) };
    }
}

/// Platforms without `ppoll`: nothing is ever armed, so every wait is a
/// [`SLICE`] sleep.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use std::net::UdpSocket;
    use std::time::Duration;

    pub(super) fn raw_fd(_socket: &UdpSocket) -> Option<i32> {
        None
    }

    pub(super) fn poll_readable(_fds: &[i32], timeout: Duration) {
        std::thread::sleep(timeout.min(super::SLICE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeerId, Transport, UdpTransport};
    use std::time::Instant;

    fn armed() -> usize {
        ARMED.with(|slot| slot.get().len)
    }

    fn pair() -> (UdpTransport, UdpTransport) {
        let mut a = UdpTransport::bind(PeerId(0), "127.0.0.1:0").unwrap();
        let mut b = UdpTransport::bind(PeerId(1), "127.0.0.1:0").unwrap();
        a.add_peer(PeerId(1), b.local_addr().unwrap()).unwrap();
        b.add_peer(PeerId(0), a.local_addr().unwrap()).unwrap();
        (a, b)
    }

    /// Times one wait; the clock is read here, outside the program.
    #[allow(clippy::disallowed_methods)]
    fn timed_wait(timeout: Duration) -> Duration {
        let start = Instant::now();
        wait_readable(timeout);
        start.elapsed()
    }

    #[test]
    fn a_datagram_ends_the_wait_early() {
        let (mut a, mut b) = pair();
        assert!(b.try_recv().unwrap().is_none(), "arms b's socket");
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            a.send(PeerId(1), b"wake").unwrap();
            a
        });
        let waited = timed_wait(Duration::from_secs(1));
        let _a = sender.join().unwrap();
        assert!(waited < Duration::from_millis(500), "waited {waited:?}");
        assert!(waited >= Duration::from_millis(1), "waited {waited:?}");
        let (from, data) = b.try_recv().unwrap().expect("the datagram is there");
        assert_eq!((from, data.as_slice()), (PeerId(0), b"wake".as_slice()));
    }

    #[test]
    fn an_idle_armed_socket_returns_at_its_deadline() {
        let (_a, mut b) = pair();
        // Median of several waits: one preempted wait on a loaded host
        // must not fail the test, a tick-rounded timer fails every wait.
        let mut waits: Vec<Duration> = (0..9)
            .map(|_| {
                assert!(b.try_recv().unwrap().is_none());
                timed_wait(Duration::from_micros(1_500))
            })
            .collect();
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(median >= Duration::from_micros(1_500), "{waits:?}");
        assert!(median < Duration::from_micros(2_500), "{waits:?}");
    }

    #[test]
    fn every_wait_clears_the_slot() {
        let (mut a, mut b) = pair();
        assert_eq!(armed(), 0);
        assert!(a.try_recv().unwrap().is_none());
        assert!(a.try_recv().unwrap().is_none());
        assert!(b.try_recv().unwrap().is_none());
        assert_eq!(armed(), 2, "one entry per socket, however often polled");
        wait_readable(Duration::from_micros(100));
        assert_eq!(armed(), 0);
        // A wait ends on arrival and clears the slot; the receive that
        // then finds data does not arm, only one that finds the socket
        // empty does.
        assert!(b.try_recv().unwrap().is_none());
        a.send(PeerId(1), b"x").unwrap();
        wait_readable(Duration::from_secs(1));
        assert_eq!(armed(), 0);
        assert!(b.try_recv().unwrap().is_some());
        assert_eq!(armed(), 0);
        assert!(b.try_recv().unwrap().is_none());
        assert_eq!(armed(), 1);
        wait_readable(Duration::ZERO);
        assert_eq!(armed(), 0);
    }

    #[test]
    fn a_dropped_transport_is_never_waited_on() {
        let (mut a, mut b) = pair();
        assert!(a.try_recv().unwrap().is_none());
        assert!(b.try_recv().unwrap().is_none());
        drop(a);
        assert_eq!(armed(), 1, "dropping a transport disarms its socket");
        drop(b);
        assert_eq!(armed(), 0);
        // Nothing armed: the wait is one slice, not the full timeout.
        let waited = timed_wait(Duration::from_secs(1));
        assert!(waited >= SLICE, "waited {waited:?}");
        assert!(waited < Duration::from_millis(500), "waited {waited:?}");
    }

    #[test]
    fn overflowing_the_slot_falls_back_to_the_slice() {
        let sockets: Vec<UdpSocket> = (0..=SLOTS)
            .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
            .collect();
        for s in &sockets {
            arm(s);
        }
        assert!(ARMED.with(|slot| slot.get().overflow));
        let waited = timed_wait(Duration::from_secs(1));
        assert!(waited < Duration::from_millis(500), "waited {waited:?}");
        assert!(!ARMED.with(|slot| slot.get().overflow));
    }
}
