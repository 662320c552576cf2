//! **coplay-rollback** — the rollback netcode names, re-exported.
//!
//! Rollback is not a second driver: it is `coplay-sync`'s one session
//! driver run with a positive speculation window. [`RollbackSession`] is an
//! alias of [`coplay_sync::Session`], which reads the window and the
//! checkpoint cadence from
//! [`ConsistencyMode::Rollback`](coplay_sync::ConsistencyMode), predicts
//! missing remote inputs with an [`InputPredictor`], and repairs
//! mispredictions from a [`SnapshotRing`]. The driver's module docs and
//! DESIGN.md §5a describe how. This crate keeps the names importable from
//! their historical home.
//!
//! # Examples
//!
//! Two rollback sites over an in-process link:
//!
//! ```
//! use coplay_net::{loopback, PeerId};
//! use coplay_rollback::RollbackSession;
//! use coplay_sync::{run_realtime, ConsistencyMode, RandomPresser, SyncConfig};
//! use coplay_vm::{NullMachine, Player};
//!
//! let (ta, tb) = loopback(PeerId(0), PeerId(1));
//! let mut cfg0 = SyncConfig::two_player(0);
//! cfg0.consistency = ConsistencyMode::rollback();
//! cfg0.cfps = 240; // quick doc test
//! let mut cfg1 = cfg0.clone();
//! cfg1.my_site = 1;
//!
//! let a = RollbackSession::new(cfg0, NullMachine::new(), ta,
//!                              RandomPresser::new(Player::ONE, 1));
//! let b = RollbackSession::new(cfg1, NullMachine::new(), tb,
//!                              RandomPresser::new(Player::TWO, 2));
//!
//! let ha = std::thread::spawn(move || run_realtime(a, 30, |_, _| {}));
//! let hb = std::thread::spawn(move || run_realtime(b, 30, |_, _| {}));
//! ha.join().unwrap()?;
//! hb.join().unwrap()?;
//! # Ok::<(), coplay_sync::SyncError>(())
//! ```

#![warn(missing_docs)]

pub use coplay_sync::{
    AssumeIdle, CheckpointInfo, CheckpointReport, InputPredictor, RepeatLast, RestoreError,
    RollbackSession, SnapshotRing,
};
