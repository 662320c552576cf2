//! A wall-clock runner for live play.
//!
//! Drives any [`SessionDriver`] — a [`Session`](crate::Session) at any
//! window, or a wrapper around one — against real time and a real
//! transport (UDP or loopback). This is the deployment shape of the
//! paper's system: the same sans-io session code the simulator benchmarks,
//! attached to the operating system's clock and sockets.
//!
//! Between ticks the runner blocks in [`coplay_net::wait_readable`] until
//! the [`Step::Wait`] deadline, and a datagram landing on one of the
//! session's UDP sockets ends the wait early. A paced site therefore wakes
//! a few times per frame — for the deadline and for each arrival — rather
//! than on a fixed poll period. A session on a transport that cannot wake
//! the wait (in-process loopback) is polled every
//! [`SLICE`](coplay_net::SLICE) instead.

use std::time::Duration;

use coplay_clock::{Clock, SimDuration, SimTime, SystemClock};

use crate::driver::{FrameReport, Step};
use crate::error::{StopReason, SyncError};
use crate::session::SessionDriver;

/// Result of [`run_realtime`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The frame budget was reached.
    FrameLimit,
    /// The session stopped (peer left or local quit).
    Stopped(StopReason),
}

/// Runs `session` against the OS clock until `max_frames` frames have
/// executed, invoking `on_frame` after each frame (for rendering).
///
/// While the session waits, the loop blocks until the [`Step::Wait`]
/// deadline or the arrival of a datagram, whichever comes first, and then
/// ticks again — Algorithm 2's poll loop, woken by the network instead of
/// a timer (see the module docs).
///
/// After the frame budget is reached the session **lingers** briefly
/// (several send intervals) before returning: the local inputs for the
/// final frames may still be queued behind the outbound send pacing, and a
/// peer that is a few frames behind needs them — and possibly
/// retransmissions — to reach its own budget. Returning immediately would
/// drop the session mid-protocol and leave that peer blocked forever
/// (observable as an endless run of `input_sent` retransmission events in
/// its flight recorder).
///
/// # Errors
///
/// Propagates any [`SyncError`] from the session (transport failure, game
/// image mismatch, stall timeout).
///
/// # Examples
///
/// See `examples/lan_duel.rs`, which runs two sessions over real UDP.
pub fn run_realtime<D, F>(
    mut session: D,
    max_frames: u64,
    mut on_frame: F,
) -> Result<(RunOutcome, D), SyncError>
where
    D: SessionDriver,
    F: FnMut(&FrameReport, &D::Machine),
{
    let clock = SystemClock::new();
    let mut frames = 0u64;
    loop {
        let now = clock.now();
        match session.tick(now)? {
            Step::FrameDone { report, .. } => {
                on_frame(&report, session.machine());
                frames += 1;
                if frames >= max_frames {
                    linger(&mut session, &clock);
                    flush_telemetry(&session);
                    return Ok((RunOutcome::FrameLimit, session));
                }
            }
            Step::Wait(until) => wait_until(&clock, until),
            Step::Stopped(reason) => {
                // The early-stop path skips the linger but must not skip
                // the flush: a peer-quit or local-quit session still owns
                // buffered telemetry/trace records worth keeping.
                flush_telemetry(&session);
                return Ok((RunOutcome::Stopped(reason), session));
            }
        }
    }
}

/// Persists any buffered telemetry/trace records (no-op unless the
/// session's [`Telemetry`](coplay_telemetry::Telemetry) handle has a trace
/// path set). Every exit of [`run_realtime`] calls this — the frame-limit
/// path after its linger *and* the immediate stop path — so a finished
/// session never drops its trace on the floor.
fn flush_telemetry<D: SessionDriver>(session: &D) {
    if let Err(e) = session.config().telemetry.flush() {
        eprintln!("warning: session trace flush failed: {e}");
    }
}

/// Keeps a finished session's *network* alive for a bounded grace period so
/// its final input frames clear the send pacing and lagging peers can catch
/// up. It pumps on each datagram's arrival and at least every 2 ms, so
/// the send pacing can release the final frames. Uses
/// [`SessionDriver::pump`], never `tick`: executing frames past the budget
/// would leave replicas at different frames with different final state
/// hashes.
fn linger<D: SessionDriver>(session: &mut D, clock: &SystemClock) {
    let grace = (session.config().send_interval * 8).max(SimDuration::from_millis(150));
    let until = clock.now() + grace;
    loop {
        let now = clock.now();
        if now >= until || session.pump(now).is_err() {
            return;
        }
        wait_until(clock, (now + SimDuration::from_millis(2)).min(until));
    }
}

/// Blocks until `until` passes or a datagram may have arrived on one of
/// the session's sockets (see [`coplay_net::wait_readable`]).
fn wait_until(clock: &SystemClock, until: SimTime) {
    let now = clock.now();
    if until > now {
        coplay_net::wait_readable(Duration::from_micros((until - now).as_micros()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SyncConfig;
    use crate::driver::LockstepSession;
    use crate::input_source::RandomPresser;
    use coplay_net::{loopback, PeerId};
    use coplay_vm::{NullMachine, Player};

    #[test]
    fn realtime_pair_converges_over_threads() {
        let (ta, tb) = loopback(PeerId(0), PeerId(1));
        let mut cfg0 = SyncConfig::two_player(0);
        let mut cfg1 = SyncConfig::two_player(1);
        // Speed the test up: 240fps equivalent pacing.
        cfg0.cfps = 240;
        cfg1.cfps = 240;
        let a = LockstepSession::new(
            cfg0,
            NullMachine::new(),
            ta,
            RandomPresser::new(Player::ONE, 11),
        );
        let b = LockstepSession::new(
            cfg1,
            NullMachine::new(),
            tb,
            RandomPresser::new(Player::TWO, 22),
        );

        let ja = std::thread::spawn(move || {
            let mut hashes = Vec::new();
            let r = run_realtime(a, 60, |rep, _| hashes.push(rep.state_hash.unwrap()));
            (r.map(|(o, _)| o), hashes)
        });
        let jb = std::thread::spawn(move || {
            let mut hashes = Vec::new();
            let r = run_realtime(b, 60, |rep, _| hashes.push(rep.state_hash.unwrap()));
            (r.map(|(o, _)| o), hashes)
        });
        let (ra, ha) = ja.join().unwrap();
        let (rb, hb) = jb.join().unwrap();
        assert_eq!(ra.unwrap(), RunOutcome::FrameLimit);
        assert_eq!(rb.unwrap(), RunOutcome::FrameLimit);
        assert_eq!(ha, hb, "real-time replicas diverged");
    }
}
