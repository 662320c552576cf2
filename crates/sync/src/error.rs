//! Error and stop-reason types for lockstep sessions.

use std::error::Error;
use std::fmt;

use coplay_clock::SimDuration;
use coplay_net::TransportError;

/// Why a session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// A peer sent an orderly goodbye.
    PeerLeft,
    /// The local side asked the session to stop.
    LocalQuit,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::PeerLeft => write!(f, "peer left the session"),
            StopReason::LocalQuit => write!(f, "local quit"),
        }
    }
}

/// Errors raised by a lockstep session.
#[derive(Debug)]
pub enum SyncError {
    /// The underlying datagram transport failed.
    Transport(TransportError),
    /// The two sites loaded different game images — lockstep would diverge
    /// instantly, so a connecting site whose handshake ack carries another
    /// image's hash refuses to start (§3.1's same-image precondition).
    RomMismatch {
        /// Our game image hash.
        ours: u64,
        /// The peer's game image hash.
        theirs: u64,
    },
    /// `SyncInput` was blocked longer than the configured stall timeout
    /// (extension; the paper's system freezes forever instead).
    Stalled(SimDuration),
    /// A latecomer snapshot could not be applied.
    Snapshot(String),
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::Transport(e) => write!(f, "transport failure: {e}"),
            SyncError::RomMismatch { ours, theirs } => write!(
                f,
                "game image mismatch: local {ours:#018x}, remote {theirs:#018x}"
            ),
            SyncError::Stalled(d) => write!(f, "peer silent for {d} while blocked in SyncInput"),
            SyncError::Snapshot(msg) => write!(f, "latecomer snapshot failed: {msg}"),
        }
    }
}

impl Error for SyncError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SyncError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for SyncError {
    fn from(e: TransportError) -> Self {
        SyncError::Transport(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SyncError::RomMismatch { ours: 1, theirs: 2 };
        assert!(e.to_string().contains("mismatch"));
        assert!(SyncError::Stalled(SimDuration::from_millis(1500))
            .to_string()
            .contains("1500"));
        assert_eq!(StopReason::PeerLeft.to_string(), "peer left the session");
    }

    #[test]
    fn transport_errors_chain() {
        let e = SyncError::from(TransportError::Closed);
        assert!(e.source().is_some());
    }
}
