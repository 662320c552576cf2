//! The driver-facing session abstraction.
//!
//! Khan & Chabridon's reusable-synchronization argument (see PAPERS.md):
//! the consistency policy should be a parameter of one sync component, not
//! baked into the frame loop. [`Session`] is that component — lockstep and
//! rollback differ only in its speculation window — and [`SessionDriver`]
//! is the seam harnesses drive it through: the wall-clock runner
//! ([`run_realtime`](crate::run_realtime)) and wrappers that decorate a
//! session (timing, tracing) depend on the trait, not on the type.

use coplay_clock::SimTime;
use coplay_vm::Machine;

use crate::config::SyncConfig;
use crate::driver::{Session, Step};
use crate::error::SyncError;
use crate::input_source::InputSource;
use crate::predict::InputPredictor;
use crate::stats::SessionStats;
use coplay_net::Transport;

/// One site of a distributed game session, whatever its consistency mode.
///
/// Implementations are sans-io in time: [`SessionDriver::tick`] takes `now`
/// explicitly and returns a [`Step`], so the discrete-event simulator and
/// the wall-clock runner drive identical protocol code.
pub trait SessionDriver {
    /// The machine replica type this session advances.
    type Machine: Machine;

    /// Drives the session one step. Call whenever the previous
    /// [`Step::Wait`] deadline passes or a datagram may have arrived.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport failure, handshake mismatch, or a
    /// stall exceeding the configured timeout.
    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError>;

    /// Services the network without advancing the game (used while
    /// lingering after a frame budget).
    ///
    /// # Errors
    ///
    /// Propagates transport failures, like [`SessionDriver::tick`].
    fn pump(&mut self, now: SimTime) -> Result<(), SyncError>;

    /// The local machine replica.
    fn machine(&self) -> &Self::Machine;

    /// The site configuration.
    fn config(&self) -> &SyncConfig;

    /// In-band session counters.
    fn stats(&self) -> SessionStats;

    /// The site's current frame.
    fn frame(&self) -> u64;
}

impl<M: Machine, T: Transport, S: InputSource, P: InputPredictor> SessionDriver
    for Session<M, T, S, P>
{
    type Machine = M;

    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
        Session::tick(self, now)
    }

    fn pump(&mut self, now: SimTime) -> Result<(), SyncError> {
        Session::pump(self, now)
    }

    fn machine(&self) -> &M {
        Session::machine(self)
    }

    fn config(&self) -> &SyncConfig {
        Session::config(self)
    }

    fn stats(&self) -> SessionStats {
        Session::stats(self)
    }

    fn frame(&self) -> u64 {
        Session::frame(self)
    }
}
