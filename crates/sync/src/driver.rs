//! The distributed game VM loop (Algorithm 1) plus session control, with
//! the consistency mode as a parameter.
//!
//! [`Session`] owns one site's machine replica and runs the paper's frame
//! loop:
//!
//! ```text
//! repeat
//!     BeginFrameTiming();          // FrameTimer::begin_frame (Algorithm 4)
//!     I  = GetInput();             // InputSource::sample
//!     I' = SyncInput(I, Frame);    // InputSync poll loop (Algorithm 2)
//!     S' = Transition(I', S);      // Machine::step_frame — the black box
//!     translate and present S';    // caller-side, via FrameReport
//!     EndFrameTiming();            // FrameTimer::end_frame (Algorithm 3)
//!     Frame++;
//! until end of game
//! ```
//!
//! `SyncInput`'s exit condition is widened by a window: frame `pointer`
//! executes once `pointer ≤ frontier + window`, where the frontier is the
//! highest frame every player's input has reached
//! ([`InputSync::authoritative_frontier`]) and the window comes from
//! [`SyncConfig::consistency`] (`Lockstep` = 0, `Rollback` = its
//! `max_rollback_frames`).
//!
//! * With a window of 0 this is Algorithm 2 exactly: a frame executes only
//!   on complete input, so the session never predicts, checkpoints or
//!   rolls back ([`LockstepSession`]).
//! * A positive window ([`RollbackSession`]) executes frames whose remote
//!   inputs are still missing under predicted inputs
//!   ([`InputPredictor`]), keeps a [`SnapshotRing`] of checkpoints, and on
//!   a misprediction restores the newest checkpoint at or before it and
//!   resimulates to the present. Past the window it blocks as lockstep
//!   does, so repair depth and checkpoint memory stay bounded.
//!
//! Every site speaks the same wire protocol, so a rollback site can play a
//! lockstep site. Beyond speculation, two behaviours depend on the window.
//! Only window-0 sites serve or accept latecomer snapshots, because a
//! speculative replica's state is not authoritative. And a window-0 site
//! confirms a frame as it executes it, while a speculative site confirms
//! frames later, through [`Session::take_confirmed`].
//!
//! The session is sans-io in time: [`Session::tick`] takes `now`
//! explicitly and returns what to do next ([`Step`]), so the discrete-event
//! simulator and the real-time runner drive identical code.
//!
//! Session control implements the paper's start protocol (two sites start
//! within one RTT) plus the journal extensions: N players, observers, and
//! latecomers joining mid-game via state snapshots.

use std::collections::BTreeMap;

use coplay_clock::{SimDelta, SimDuration, SimTime};
use coplay_net::{PeerId, Transport};
use coplay_telemetry::{EventKind, SpanStage};
use coplay_vm::{DirtyPages, InputWord, InterpStats, Machine, StepMode};

use crate::config::{ConsistencyMode, SyncConfig, Topology};
use crate::error::{StopReason, SyncError};
use crate::input_source::InputSource;
use crate::predict::{InputPredictor, RepeatLast};
use crate::rtt::RttEstimator;
use crate::snapshot::SnapshotRing;
use crate::stats::SessionStats;
use crate::sync_input::InputSync;
use crate::timing::{FrameEnd, FrameTimer};
use crate::wire::{Message, MAX_CHUNK_BYTES};

/// Retransmission margin applied when a latecomer is registered, covering
/// pointer divergence between players at join time. Must stay below the
/// input-history retention window
/// ([`RETAIN_FRAMES`](crate::sync_input::RETAIN_FRAMES)).
pub const JOIN_MARGIN_FRAMES: u64 = 64;

/// Hello/SnapshotRequest retransmission interval during joins.
const JOIN_RETRY: SimDuration = SimDuration::from_millis(200);

/// Cap on confirmed-hash entries retained when the caller never drains
/// [`Session::take_confirmed`].
const MAX_RETAINED_HASHES: usize = 4096;

/// What the driver should do after a [`Session::tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Nothing to do until this instant (or until a datagram arrives —
    /// whichever is first).
    Wait(SimTime),
    /// A frame was executed; `next_wake` is when the next frame may begin.
    FrameDone {
        /// What happened this frame.
        report: FrameReport,
        /// Earliest instant the next frame can start.
        next_wake: SimTime,
    },
    /// The session ended.
    Stopped(StopReason),
}

/// One executed frame, for presentation and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameReport {
    /// The frame number just executed.
    pub frame: u64,
    /// The merged input word fed to the machine.
    pub input: InputWord,
    /// The machine's state digest after the frame (if hashing is enabled).
    /// Speculative when the session's window is positive.
    pub state_hash: Option<u64>,
    /// When this frame began (`CurrFrameStart`).
    pub began_at: SimTime,
    /// How long the frame was blocked waiting for remote input (zero for a
    /// frame that executed as soon as its pacing allowed). Lets realtime
    /// callers distinguish an input-wait stall from an ordinary paced wait
    /// without reaching into [`InputSync`](crate::InputSync) internals.
    pub stall: SimDuration,
}

#[derive(Debug)]
enum Phase {
    /// Master: waiting for every player's Hello.
    MasterWait,
    /// Non-master: helloing until every player acknowledged.
    Connecting {
        next_hello: SimTime,
        acks: BTreeMap<u8, u64>,
    },
    /// Latecomer: snapshot transfer in progress.
    AwaitSnapshot {
        next_request: SimTime,
        frame: u64,
        total: usize,
        buf: Vec<u8>,
        received: Vec<bool>, // per chunk
    },
    Run(RunState),
    Done(StopReason),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// Initialization deviation: hold until this instant before frame 0.
    StartAt(SimTime),
    Begin,
    Executing,
    EndWait(SimTime),
}

/// One site of a distributed game session.
///
/// The consistency mode is read from [`SyncConfig::consistency`]; `P` is
/// the prediction policy a speculative session uses for missing remote
/// inputs (never called with a window of 0).
pub struct Session<M, T, S, P = RepeatLast> {
    cfg: SyncConfig,
    /// Frames of speculation allowed past the confirmed-input frontier.
    window: u64,
    checkpoint_interval: u64,
    machine: M,
    transport: T,
    source: S,
    predictor: P,
    sync: InputSync,
    timer: FrameTimer,
    rtt: RttEstimator,
    phase: Phase,
    frame: u64,
    frame_start: SimTime,
    rom_hash: u64,
    joined: Vec<u8>,
    time_server: Option<PeerId>,
    hash_frames: bool,
    stats: SessionStats,
    blocked_at: Option<SimTime>,
    /// Checkpoints for rollback; `None` with a window of 0.
    ring: Option<SnapshotRing>,
    /// Reusable dirty bitmap for rollback: drained from the machine and
    /// unioned with popped checkpoints' bitmaps to bound the restore.
    rollback_dirty: DirtyPages,
    /// Reusable restore buffer for checkpoint reconstruction.
    restore_buf: Vec<u8>,
    /// Reusable datagram buffer for the per-frame input send path.
    send_buf: Vec<u8>,
    /// Decode-cache totals already published to telemetry (the report
    /// event carries deltas against this).
    interp_reported: InterpStats,
    /// Predicted partials actually fed to the machine, per speculated frame
    /// per remote site — the comparison base for misprediction detection.
    used: BTreeMap<u64, BTreeMap<u8, InputWord>>,
    /// State hash after each executed frame, kept until confirmed and
    /// drained via [`Session::take_confirmed`] (speculative sessions only).
    recent_hashes: BTreeMap<u64, u64>,
    /// First mispredicted frame discovered while draining the transport;
    /// repaired by the next `perform_rollback`.
    pending_rollback: Option<u64>,
    /// Next frame eligible for confirmation: frames below were already
    /// drained via `take_confirmed` and must not be re-reported when a
    /// rollback resimulates through them.
    confirm_next: u64,
    /// Timestamp of the most recent `tick`/`pump` call, used to stamp
    /// `Confirmed` spans from [`Session::take_confirmed`], which takes no
    /// clock of its own.
    last_tick_at: SimTime,
}

/// The paper's lockstep site: a [`Session`] whose config says
/// [`ConsistencyMode::Lockstep`] (a window of 0).
pub type LockstepSession<M, T, S> = Session<M, T, S>;

/// A speculative site: a [`Session`] whose config says
/// [`ConsistencyMode::Rollback`], with prediction policy `P`.
pub type RollbackSession<M, T, S, P = RepeatLast> = Session<M, T, S, P>;

impl<M: Machine, T: Transport, S: InputSource> Session<M, T, S> {
    /// Creates a session site with the default repeat-last predictor.
    /// `machine` must be in its initial state — its state hash doubles as
    /// the game-image identity both sites compare.
    pub fn new(cfg: SyncConfig, machine: M, transport: T, source: S) -> Self {
        Session::with_predictor(cfg, machine, transport, source, RepeatLast)
    }
}

impl<M: Machine, T: Transport, S: InputSource, P: InputPredictor> Session<M, T, S, P> {
    /// Creates a session site with a custom prediction policy.
    pub fn with_predictor(
        cfg: SyncConfig,
        machine: M,
        transport: T,
        source: S,
        predictor: P,
    ) -> Self {
        let window = cfg.consistency.window();
        let checkpoint_interval = match cfg.consistency {
            ConsistencyMode::Lockstep => 1,
            ConsistencyMode::Rollback {
                checkpoint_interval,
                ..
            } => checkpoint_interval.max(1),
        };
        let rom_hash = machine.state_hash();
        let tpf = cfg.time_per_frame();
        // The dead zone must stay well inside the local-lag budget: a slave
        // allowed to drift by more than the lag window would starve the
        // master of inputs every frame (visible at high CFPS, where 15 ms
        // spans many frames).
        let dead_zone = cfg.sync_dead_zone.min(cfg.local_lag() / 4);
        let timer = FrameTimer::new(tpf, cfg.is_master(), cfg.rate_sync, cfg.buf_frames)
            .with_dead_zone(dead_zone)
            // detlint: allow(hot_alloc) -- constructor-time Arc handle clone, not per-frame
            .with_telemetry(cfg.telemetry.clone());
        // detlint: allow(hot_alloc) -- constructor-time Arc handle clone, not per-frame
        let rtt = RttEstimator::default().with_telemetry(cfg.telemetry.clone());
        let phase = if cfg.is_master() {
            Phase::MasterWait
        } else {
            Phase::Connecting {
                next_hello: SimTime::ZERO,
                // detlint: allow(hot_alloc) -- constructor-time handshake state, not per-frame
                acks: BTreeMap::new(),
            }
        };
        Session {
            // detlint: allow(hot_alloc) -- one-time config clone at session construction
            sync: InputSync::new(cfg.clone()),
            window,
            checkpoint_interval,
            timer,
            rtt,
            phase,
            frame: 0,
            frame_start: SimTime::ZERO,
            rom_hash,
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            joined: Vec::new(),
            time_server: None,
            hash_frames: true,
            stats: SessionStats::default(),
            blocked_at: None,
            ring: (window > 0).then(|| {
                SnapshotRing::new(SnapshotRing::capacity_for(window, checkpoint_interval))
            }),
            rollback_dirty: DirtyPages::default(),
            // detlint: allow(hot_alloc) -- reusable buffer; grows once, then steady-state
            restore_buf: Vec::new(),
            // detlint: allow(hot_alloc) -- reusable buffer; grows once, then steady-state
            send_buf: Vec::new(),
            interp_reported: InterpStats::default(),
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            used: BTreeMap::new(),
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            recent_hashes: BTreeMap::new(),
            pending_rollback: None,
            confirm_next: 0,
            last_tick_at: SimTime::ZERO,
            cfg,
            machine,
            transport,
            source,
            predictor,
        }
    }

    /// Also stamp every frame begin to the measurement time server at
    /// `peer` (§4's experimental setup).
    pub fn with_time_server(mut self, peer: PeerId) -> Self {
        self.time_server = Some(peer);
        self
    }

    /// Disables per-frame state hashing (saves time in throughput benches;
    /// checkpoints still hash at the checkpoint cadence).
    /// [`Session::take_confirmed`] returns nothing in this mode.
    pub fn without_frame_hashes(mut self) -> Self {
        self.hash_frames = false;
        self
    }

    /// The local machine replica. With a positive window its state is
    /// *speculative*: frames past the confirmed-input frontier may still be
    /// rolled back.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// The site's current frame (Algorithm 1's `Frame`).
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// The site configuration.
    pub fn config(&self) -> &SyncConfig {
        &self.cfg
    }

    /// Frames this site may execute past the confirmed-input frontier:
    /// 0 for lockstep, `max_rollback_frames` for rollback.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// In-band session counters (messages, stalls, late frames, and the
    /// rollback triple `rollbacks`, `resimulated_frames`,
    /// `max_rollback_depth`).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Total bytes currently held by the checkpoint ring (always 0 with a
    /// window of 0, which keeps no checkpoints).
    pub fn checkpoint_bytes(&self) -> usize {
        self.ring.as_ref().map_or(0, SnapshotRing::bytes)
    }

    /// Drains the per-frame state hashes that have become *authoritative*:
    /// every site's input for them arrived, any misprediction was repaired,
    /// and no future rollback can revisit them. Returns `(frame, hash)`
    /// pairs in frame order — directly comparable against a lockstep
    /// replica's per-frame hashes.
    ///
    /// A window-0 session executes only confirmed frames, so its
    /// [`FrameReport`]s already carry these hashes and this returns
    /// nothing.
    pub fn take_confirmed(&mut self) -> Vec<(u64, u64)> {
        let pointer = self.sync.pointer();
        if pointer == 0 {
            // detlint: allow(hot_alloc) -- empty Vec::new() does not touch the heap
            return Vec::new();
        }
        let limit = self.sync.authoritative_frontier().min(pointer - 1);
        let at = self.last_tick_at;
        // detlint: allow(hot_alloc) -- drained accumulator; ownership moves to the caller
        let mut out = Vec::new();
        while let Some(entry) = self.recent_hashes.first_entry() {
            if *entry.key() > limit {
                break;
            }
            let (frame, hash) = entry.remove_entry();
            // A rollback may resimulate through already-confirmed frames
            // and re-insert their (identical) hashes; report each once.
            if frame >= self.confirm_next {
                self.cfg
                    .telemetry
                    .span(at, SpanStage::Confirmed, frame, self.cfg.my_site);
                out.push((frame, hash));
            }
        }
        if let Some(&(last, _)) = out.last() {
            self.confirm_next = last + 1;
        }
        out
    }

    /// Sends an orderly goodbye and stops the session.
    ///
    /// # Errors
    ///
    /// Propagates transport failures while sending the goodbye.
    pub fn stop(&mut self) -> Result<(), SyncError> {
        let bye = Message::Bye.encode();
        if self.cfg.topology == Topology::Relay {
            // One relay address carries the whole session: a single
            // broadcast goodbye reaches every other member.
            self.transport.send(PeerId::BROADCAST, &bye)?;
        } else {
            for p in self.cfg.peers() {
                self.transport.send(PeerId(p), &bye)?;
            }
        }
        self.phase = Phase::Done(StopReason::LocalQuit);
        Ok(())
    }

    /// Drives the session. Call whenever the previous [`Step::Wait`]
    /// deadline passes **or** a datagram may have arrived.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport failure, game-image mismatch, a
    /// failed snapshot join or rollback restore, or a stall exceeding the
    /// configured timeout.
    pub fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
        self.last_tick_at = now;
        self.drain_transport(now)?;
        self.perform_rollback(now)?;
        loop {
            match &mut self.phase {
                // detlint: allow(hot_alloc) -- terminal stop path, runs once per session
                Phase::Done(reason) => return Ok(Step::Stopped(reason.clone())),
                Phase::MasterWait => {
                    let players_expected = self.cfg.num_sites as usize - 1;
                    if self.joined.len() >= players_expected {
                        self.phase =
                            Phase::Run(RunState::StartAt(now + self.cfg.first_frame_delay));
                        continue;
                    }
                    return Ok(Step::Wait(now + JOIN_RETRY));
                }
                Phase::Connecting { next_hello, acks } => {
                    if self.cfg.peers().all(|p| acks.contains_key(&p)) {
                        let start = acks.values().copied().max().unwrap_or(0);
                        if start == 0 {
                            self.phase =
                                Phase::Run(RunState::StartAt(now + self.cfg.first_frame_delay));
                        } else if self.window > 0 {
                            // A speculative replica cannot join from a
                            // mid-game snapshot (nor serve one): the state
                            // is not authoritative until the frontier
                            // passes it.
                            return Err(SyncError::Snapshot(
                                "rollback sessions do not support latecomer joins".into(),
                            ));
                        } else {
                            // Mid-game join: fetch a snapshot from the master.
                            self.phase = Phase::AwaitSnapshot {
                                next_request: SimTime::ZERO,
                                frame: 0,
                                total: 0,
                                // detlint: allow(hot_alloc) -- empty Vec::new() does not touch the heap
                                buf: Vec::new(),
                                // detlint: allow(hot_alloc) -- empty Vec::new() does not touch the heap
                                received: Vec::new(),
                            };
                        }
                        continue;
                    }
                    if now >= *next_hello {
                        *next_hello = now + JOIN_RETRY;
                        let hello = Message::Hello {
                            site: self.cfg.my_site,
                            rom_hash: self.rom_hash,
                            observer: !self.sync.is_player(),
                        }
                        .encode();
                        if self.cfg.topology == Topology::Relay {
                            // Outbound-only client: the relay fans the
                            // hello out to whichever members are present.
                            self.transport.send(PeerId::BROADCAST, &hello)?;
                        } else {
                            for p in self.cfg.peers() {
                                if !acks.contains_key(&p) {
                                    self.transport.send(PeerId(p), &hello)?;
                                }
                            }
                        }
                    }
                    return Ok(Step::Wait(*next_hello));
                }
                Phase::AwaitSnapshot {
                    next_request,
                    frame,
                    total,
                    buf,
                    received,
                } => {
                    let complete = *total > 0 && received.iter().all(|&r| r);
                    if complete {
                        let frame = *frame;
                        let bytes = std::mem::take(buf);
                        self.cfg.telemetry.record(
                            now,
                            EventKind::SnapshotLoaded {
                                frame,
                                bytes: bytes.len() as u64,
                            },
                        );
                        self.machine
                            .load_state(&bytes)
                            // detlint: allow(hot_alloc) -- error path; the join is about to abort
                            .map_err(|e| SyncError::Snapshot(e.to_string()))?;
                        self.frame = frame;
                        // detlint: allow(hot_alloc) -- once per latecomer join, not per-frame
                        self.sync = InputSync::new_at(self.cfg.clone(), frame);
                        self.phase = Phase::Run(RunState::StartAt(now));
                        continue;
                    }
                    if now >= *next_request {
                        *next_request = now + JOIN_RETRY;
                        self.transport
                            .send(PeerId(0), &Message::SnapshotRequest.encode())?;
                    }
                    return Ok(Step::Wait(*next_request));
                }
                Phase::Run(state) => match *state {
                    RunState::StartAt(t) => {
                        if now >= t {
                            self.phase = Phase::Run(RunState::Begin);
                            continue;
                        }
                        return Ok(Step::Wait(t));
                    }
                    RunState::Begin => {
                        self.frame_start = now;
                        self.cfg
                            .telemetry
                            .record(now, EventKind::FrameBegun { frame: self.frame });
                        let obs = self.sync.master_observation();
                        self.timer
                            .begin_frame(now, self.frame, obs.as_ref(), self.rtt.rtt());
                        if self.timer.last_sync_adjust() != SimDelta::ZERO {
                            self.stats.pace_adjustments += 1;
                        }
                        let local = self.source.sample(self.frame);
                        self.sync.begin_frame(self.frame, local, now);
                        if let Some(server) = self.time_server {
                            let stamp = Message::TimeStamp {
                                site: self.cfg.my_site,
                                frame: self.frame,
                            };
                            self.transport.send(server, &stamp.encode())?;
                        }
                        self.phase = Phase::Run(RunState::Executing);
                    }
                    RunState::Executing => {
                        // Non-masters probe the master for RTT (Algorithm 4
                        // needs RTT/2).
                        if !self.cfg.is_master() {
                            if let Some(nonce) = self.rtt.maybe_ping(now) {
                                self.transport
                                    .send(PeerId(0), &Message::Ping { nonce }.encode())?;
                            }
                        }
                        self.send_inputs(now)?;
                        let pointer = self.sync.pointer();
                        // Algorithm 2's exit condition widened by the
                        // window; past it the session blocks, which keeps
                        // rollback depth (and the checkpoint ring) bounded.
                        let frontier = self.sync.authoritative_frontier();
                        if pointer <= frontier.saturating_add(self.window) {
                            return Ok(self.execute_current(pointer, now));
                        }
                        if self.blocked_at.is_none() {
                            self.blocked_at = Some(now);
                            self.cfg
                                .telemetry
                                .record(now, EventKind::StallBegin { frame: self.frame });
                        }
                        if let (Some(limit), Some(began)) =
                            (self.cfg.stall_timeout, self.blocked_at)
                        {
                            let stalled = now.saturating_since(began);
                            if stalled >= limit {
                                return Err(SyncError::Stalled(stalled));
                            }
                        }
                        return Ok(Step::Wait(now + self.cfg.poll_interval));
                    }
                    RunState::EndWait(until) => {
                        if now >= until {
                            self.frame += 1;
                            self.phase = Phase::Run(RunState::Begin);
                            continue;
                        }
                        return Ok(Step::Wait(until));
                    }
                },
            }
        }
    }

    /// Executes the current frame `pointer` for presentation, closes any
    /// input-wait stall, and moves on to the end-of-frame wait.
    fn execute_current(&mut self, pointer: u64, now: SimTime) -> Step {
        let mut stall = SimDuration::ZERO;
        if let Some(began) = self.blocked_at.take() {
            stall = now.saturating_since(began);
            self.stats.note_stall(began, now);
            self.cfg.telemetry.record(
                now,
                EventKind::StallEnd {
                    frame: self.frame,
                    duration: stall,
                },
            );
        }
        let (input, state_hash) = self.execute(pointer, now, true, StepMode::Present);
        let site = self.cfg.my_site;
        self.cfg
            .telemetry
            .span(now, SpanStage::Merged, pointer, site);
        if self.window == 0 {
            // Complete input: the frame is merged, confirmed authoritative,
            // and presented in one motion.
            self.cfg
                .telemetry
                .span(now, SpanStage::Confirmed, pointer, site);
        }
        self.cfg
            .telemetry
            .span(now, SpanStage::Presented, pointer, site);
        self.sync.advance();
        self.cfg.telemetry.record(
            now,
            EventKind::FrameExecuted {
                frame: self.frame,
                frame_time: now.saturating_since(self.frame_start),
            },
        );
        let report = FrameReport {
            frame: self.frame,
            input,
            state_hash,
            began_at: self.frame_start,
            stall,
        };
        self.stats.frames += 1;
        let next_wake = match self.timer.end_frame(now) {
            FrameEnd::WaitUntil(t) => t,
            FrameEnd::Behind => {
                self.stats.late_frames += 1;
                now
            }
        };
        self.phase = Phase::Run(RunState::EndWait(next_wake));
        Step::FrameDone { report, next_wake }
    }

    /// Services the network without advancing the game: drains incoming
    /// datagrams (acks, pings, duplicate hellos, snapshot requests),
    /// repairs any misprediction they revealed, and flushes any input
    /// frames still owed to peers — paced sends and retransmissions alike.
    ///
    /// [`run_realtime`](crate::run_realtime) calls this while lingering
    /// after its frame budget: the final local inputs must still reach
    /// peers that are a few frames behind, but executing frames past the
    /// budget would let replicas end at different frames (and therefore
    /// different state hashes).
    ///
    /// # Errors
    ///
    /// Propagates transport failures, like [`tick`](Self::tick).
    pub fn pump(&mut self, now: SimTime) -> Result<(), SyncError> {
        self.last_tick_at = now;
        self.drain_transport(now)?;
        self.perform_rollback(now)?;
        if matches!(self.phase, Phase::Run(_)) {
            self.send_inputs(now)?;
        }
        Ok(())
    }

    /// Transmits whatever input frames and acks the send pacing releases.
    fn send_inputs(&mut self, now: SimTime) -> Result<(), SyncError> {
        for (dst, msg) in self.sync.outgoing(now) {
            self.stats.input_messages_sent += 1;
            self.stats.input_frames_sent += msg.inputs.len() as u64;
            Message::Input(msg).encode_into(&mut self.send_buf);
            self.transport.send(PeerId(dst), &self.send_buf)?;
        }
        Ok(())
    }

    /// Executes `frame`: authoritative partials where the frontier covers
    /// them, predictions elsewhere (never with a window of 0, which only
    /// reaches covered frames). A speculative session first saves a
    /// checkpoint when the cadence calls for one. `mode` is `Headless` for
    /// repair frames whose output will never be presented. Returns the
    /// merged input and, with frame hashing on, the state hash.
    fn execute(
        &mut self,
        frame: u64,
        now: SimTime,
        count_predictions: bool,
        mode: StepMode,
    ) -> (InputWord, Option<u64>) {
        self.checkpoint(frame, now);
        let mut word = self.sync.merged_input(frame);
        self.used.remove(&frame);
        for s in self.cfg.peers() {
            let last_rcv = self.sync.last_rcv(s).unwrap_or(0);
            if frame <= last_rcv {
                // Covered by the contiguous frontier: the buffered partial
                // (or its absence, meaning no input) is authoritative.
                continue;
            }
            let last = self
                .sync
                .has_authoritative(last_rcv, s)
                .then(|| self.sync.authoritative_partial(last_rcv, s));
            let guess = self.predictor.predict(s, frame, last);
            let masked = self.cfg.port_map.partial_input(s, guess);
            self.used.entry(frame).or_default().insert(s, masked);
            if count_predictions {
                self.cfg.telemetry.counter_add("predicted_frames_total", 1);
                self.cfg.telemetry.span(now, SpanStage::Predicted, frame, s);
            }
            word = word.merged(masked);
        }
        self.machine.step_frame_mode(word, mode);
        let hash = self.hash_frames.then(|| self.machine.state_hash());
        // Only a speculative frame needs its hash kept until confirmed; a
        // window-0 frame is confirmed already and reports its hash.
        if let Some(hash) = hash.filter(|_| self.window > 0) {
            self.recent_hashes.insert(frame, hash);
            while self.recent_hashes.len() > MAX_RETAINED_HASHES {
                self.recent_hashes.pop_first();
            }
        }
        (word, hash)
    }

    /// Saves a checkpoint before executing `frame` when the cadence (or an
    /// empty ring) calls for one. A no-op without a ring (window 0).
    fn checkpoint(&mut self, frame: u64, now: SimTime) {
        let Some(ring) = self.ring.as_mut() else {
            return;
        };
        let due = frame.is_multiple_of(self.checkpoint_interval) || ring.is_empty();
        if !due || ring.newest_frame().is_some_and(|n| n >= frame) {
            return;
        }
        let report = ring.checkpoint_from(frame, self.machine.state_hash(), &mut self.machine);
        self.cfg.telemetry.record(
            now,
            EventKind::CheckpointSaved {
                frame,
                bytes: report.state_len as u64,
            },
        );
        // Bytes the incremental capture actually rewrote (vs the 84 KiB a
        // full-image save would copy), and how concentrated the frame's
        // writes were.
        self.cfg
            .telemetry
            .counter_add("snapshot_bytes_saved_total", report.dirty_bytes as u64);
        self.cfg
            .telemetry
            .observe("dirty_pages_per_frame", report.dirty_pages as u64);
        if let Some(stats) = self.machine.interp_stats() {
            let hits = stats.hits.saturating_sub(self.interp_reported.hits);
            let misses = stats.misses.saturating_sub(self.interp_reported.misses);
            let flushes = stats.flushes.saturating_sub(self.interp_reported.flushes);
            let fused = stats
                .fused_hits
                .saturating_sub(self.interp_reported.fused_hits);
            if hits | misses | flushes | fused != 0 {
                self.cfg.telemetry.record(
                    now,
                    EventKind::DecodeCacheReport {
                        hits,
                        misses,
                        flushes,
                        fused,
                    },
                );
                self.interp_reported = stats;
            }
        }
    }

    /// Restores the newest checkpoint at or before the first mispredicted
    /// frame and resimulates to the present, re-predicting inputs that are
    /// still missing.
    fn perform_rollback(&mut self, now: SimTime) -> Result<(), SyncError> {
        let Some(target) = self.pending_rollback.take() else {
            return Ok(());
        };
        let pointer = self.sync.pointer();
        if target >= pointer {
            return Ok(());
        }
        // Only predictions queue a rollback, and only a session with a
        // ring (a positive window) predicts.
        let Some(ring) = self.ring.as_mut() else {
            return Ok(());
        };
        // One O(dirty) pass: discard the checkpoints computed from the
        // mispredicted state (they must not serve as restore points
        // again), rewind the ring's tail to the target, and accumulate —
        // on top of the machine's own drift since the newest capture —
        // the pages each popped checkpoint changed. The union bounds
        // every byte where the live state can differ from the target, so
        // the restore touches only those.
        self.machine.collect_dirty_into(&mut self.rollback_dirty);
        let info = ring
            .rewind_into(target, &mut self.restore_buf, &mut self.rollback_dirty)
            // detlint: allow(hot_alloc) -- error path; the session is about to abort
            .map_err(|e| SyncError::Snapshot(e.to_string()))?;
        let cp_frame = info.frame;
        self.machine
            .load_state_dirty(&self.restore_buf, &self.rollback_dirty)
            // detlint: allow(hot_alloc) -- error path; the session is about to abort
            .map_err(|e| SyncError::Snapshot(e.to_string()))?;
        let restored: usize = self.rollback_dirty.byte_ranges().map(|(s, e)| e - s).sum();
        self.cfg
            .telemetry
            .counter_add("snapshot_bytes_restored_total", restored as u64);
        if self.machine.state_hash() != info.hash {
            // detlint: allow(hot_alloc) -- error path; the session is about to abort
            return Err(SyncError::Snapshot(format!(
                "checkpoint for frame {cp_frame} restored to a mismatched state hash"
            )));
        }
        let depth = pointer - target;
        let resimulated = pointer - cp_frame;
        self.cfg.telemetry.span(
            now,
            SpanStage::CheckpointRestored,
            cp_frame,
            self.cfg.my_site,
        );
        // Only the last repaired frame is ever presented: everything before
        // it steps headless, skipping draw/audio work nobody will see while
        // advancing authoritative state byte-identically.
        for g in cp_frame..pointer {
            let mode = if g + 1 == pointer {
                StepMode::Present
            } else {
                StepMode::Headless
            };
            let _ = self.execute(g, now, false, mode);
            self.cfg
                .telemetry
                .span(now, SpanStage::Resimulated, g, self.cfg.my_site);
        }
        if resimulated > 1 {
            self.cfg
                .telemetry
                .counter_add("headless_resim_frames_total", resimulated - 1);
        }
        self.stats.note_rollback(depth, resimulated);
        self.cfg.telemetry.record(
            now,
            EventKind::RollbackExecuted {
                to_frame: target,
                depth,
                resimulated,
            },
        );
        Ok(())
    }

    fn drain_transport(&mut self, now: SimTime) -> Result<(), SyncError> {
        while let Some((from, data)) = self.transport.try_recv()? {
            let Ok(msg) = Message::decode(&data) else {
                continue; // UDP noise
            };
            self.handle_message(from, msg, now)?;
        }
        Ok(())
    }

    fn handle_message(
        &mut self,
        from: PeerId,
        msg: Message,
        now: SimTime,
    ) -> Result<(), SyncError> {
        match msg {
            Message::Input(m) => {
                self.stats.input_messages_received += 1;
                // A site speaks only for itself: inputs claiming another
                // site's number are forged or misrouted, and buffering them
                // would desync this replica.
                if from != PeerId(m.from) {
                    self.cfg.telemetry.counter_add("input_spoofed_total", 1);
                    return Ok(());
                }
                let before = self.sync.last_rcv(m.from);
                let outcome = self.sync.on_message(&m, now);
                if outcome.duplicate {
                    self.stats.duplicate_messages_received += 1;
                }
                // Frames the message carried that we already had buffered.
                self.stats.retransmitted_frames_received +=
                    (outcome.carried - outcome.fresh) as u64;
                if let Some(before) = before {
                    self.check_predictions(m.from, before, now);
                }
            }
            Message::Ping { nonce } => {
                self.transport
                    .send(from, &Message::Pong { nonce }.encode())?;
            }
            Message::Pong { nonce } => self.rtt.on_pong(nonce, now),
            Message::Hello {
                site,
                rom_hash,
                observer,
            } => {
                // Like inputs, a Hello speaks only for its sender's site.
                if from != PeerId(site) {
                    self.cfg.telemetry.counter_add("hello_spoofed_total", 1);
                    return Ok(());
                }
                // A window-0 site offers a late joiner a snapshot of its
                // next frame, with a margin of input history to cover
                // pointer divergence. A speculative site cannot serve one,
                // so it always advertises a fresh start.
                let pointer = self.sync.pointer();
                let (joined_at, start_frame) = if self.window == 0 {
                    (pointer.saturating_sub(JOIN_MARGIN_FRAMES), pointer)
                } else {
                    (pointer, 0)
                };
                if rom_hash == self.rom_hash {
                    self.sync.add_peer(site, joined_at);
                    self.cfg
                        .telemetry
                        .record(now, EventKind::PeerJoined { site });
                    if !observer && !self.joined.contains(&site) {
                        self.joined.push(site);
                    }
                } else {
                    // A foreign cartridge never joins, and it cannot end
                    // the session for everyone else: count it, and still
                    // answer so the misconfigured sender fails fast with
                    // `RomMismatch` on its own side.
                    self.cfg.telemetry.counter_add("hello_rejected_total", 1);
                }
                let ack = Message::HelloAck {
                    rom_hash: self.rom_hash,
                    start_frame,
                };
                self.transport.send(from, &ack.encode())?;
            }
            Message::HelloAck {
                rom_hash,
                start_frame,
            } => {
                // Only a handshake in progress listens for acks, and only
                // from the sites it is waiting on: an ack from anywhere
                // else is forged or misrouted.
                if let Phase::Connecting { acks, .. } = &mut self.phase {
                    if !self.cfg.peers().any(|p| PeerId(p) == from) {
                        self.cfg.telemetry.counter_add("hello_spoofed_total", 1);
                        return Ok(());
                    }
                    if rom_hash != self.rom_hash {
                        return Err(SyncError::RomMismatch {
                            ours: self.rom_hash,
                            theirs: rom_hash,
                        });
                    }
                    acks.insert(from.0, start_frame);
                }
            }
            Message::SnapshotRequest if self.window == 0 => {
                // Serve the current state in chunks (master only, but any
                // player can technically serve). The snapshot frame is the
                // next frame the machine will execute — `machine.frame()`,
                // not the session counter, which lags by one between a
                // frame's execution and its end-of-frame wait.
                let state = self.machine.save_state();
                let frame = self.machine.frame();
                let total = state.len();
                self.cfg.telemetry.record(
                    now,
                    EventKind::SnapshotServed {
                        frame,
                        bytes: total as u64,
                    },
                );
                for (i, chunk) in state.chunks(MAX_CHUNK_BYTES).enumerate() {
                    let m = Message::SnapshotChunk {
                        frame,
                        offset: (i * MAX_CHUNK_BYTES) as u32,
                        total: total as u32,
                        bytes: coplay_net::bytes::Bytes::copy_from_slice(chunk),
                    };
                    self.transport.send(from, &m.encode())?;
                }
            }
            Message::SnapshotChunk {
                frame,
                offset,
                total,
                bytes,
            } => {
                if let Phase::AwaitSnapshot {
                    frame: cur_frame,
                    total: cur_total,
                    buf,
                    received,
                    ..
                } = &mut self.phase
                {
                    let total = total as usize;
                    if *cur_total != total || *cur_frame != frame {
                        // New (or first) snapshot generation: restart assembly.
                        *cur_frame = frame;
                        *cur_total = total;
                        // detlint: allow(hot_alloc) -- latecomer join only, sized by the snapshot
                        *buf = vec![0; total];
                        // detlint: allow(hot_alloc) -- latecomer join only, one flag per chunk
                        *received = vec![false; total.div_ceil(MAX_CHUNK_BYTES)];
                    }
                    let offset = offset as usize;
                    if offset + bytes.len() <= total {
                        buf[offset..offset + bytes.len()].copy_from_slice(&bytes);
                        let idx = offset / MAX_CHUNK_BYTES;
                        if let Some(slot) = received.get_mut(idx) {
                            *slot = true;
                        }
                    }
                }
            }
            Message::Bye => {
                self.phase = Phase::Done(StopReason::PeerLeft);
            }
            // A speculative site ignores snapshot requests (see Hello).
            // Time stamps are for the measurement server only.
            Message::SnapshotRequest | Message::TimeStamp { .. } => {}
        }
        Ok(())
    }

    /// Compares the predictions used for frames newly covered by `sender`'s
    /// advancing frontier against the authoritative partials, queueing a
    /// rollback at the earliest mismatch.
    fn check_predictions(&mut self, sender: u8, before: u64, now: SimTime) {
        let after = self.sync.last_rcv(sender).unwrap_or(before);
        let pointer = self.sync.pointer();
        for g in (before + 1)..=after {
            if g >= pointer {
                break; // not executed yet: nothing was predicted
            }
            let mut emptied = false;
            let mut mispredicted = false;
            if let Some(per_site) = self.used.get_mut(&g) {
                if let Some(predicted) = per_site.remove(&sender) {
                    let authoritative = self.sync.authoritative_partial(g, sender);
                    mispredicted = predicted != authoritative;
                }
                emptied = per_site.is_empty();
            }
            if emptied {
                self.used.remove(&g);
            }
            if mispredicted {
                self.cfg.telemetry.record(
                    now,
                    EventKind::InputMispredicted {
                        frame: g,
                        site: sender,
                    },
                );
                self.cfg
                    .telemetry
                    .span(now, SpanStage::Mispredicted, g, sender);
                self.pending_rollback = Some(self.pending_rollback.map_or(g, |p| p.min(g)));
            }
        }
    }
}

impl<M, T, S, P> std::fmt::Debug for Session<M, T, S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("site", &self.cfg.my_site)
            .field("window", &self.window)
            .field("frame", &self.frame)
            .field("phase", &self.phase)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::input_source::{Idle, RandomPresser};
    use crate::wire::InputMsg;
    use coplay_clock::{Clock, VirtualClock};
    use coplay_net::{loopback, LoopbackTransport, NetemConfig, SimNetwork, SimSocket};
    use coplay_telemetry::Telemetry;
    use coplay_vm::{NullMachine, Player};

    type Sess<S, P = RepeatLast> = Session<NullMachine, LoopbackTransport, S, P>;

    /// Both windows: lockstep (0) and the default rollback tuning (30).
    fn modes() -> [ConsistencyMode; 2] {
        [ConsistencyMode::Lockstep, ConsistencyMode::rollback()]
    }

    fn cfg(site: u8, consistency: ConsistencyMode) -> SyncConfig {
        let mut cfg = SyncConfig::two_player(site);
        cfg.consistency = consistency;
        cfg
    }

    fn sessions(consistency: ConsistencyMode) -> (Sess<RandomPresser>, Sess<RandomPresser>) {
        let (ta, tb) = loopback(PeerId(0), PeerId(1));
        let a = Session::new(
            cfg(0, consistency),
            NullMachine::new(),
            ta,
            RandomPresser::new(Player::ONE, 1),
        );
        let b = Session::new(
            cfg(1, consistency),
            NullMachine::new(),
            tb,
            RandomPresser::new(Player::TWO, 2),
        );
        (a, b)
    }

    /// What one site produced in [`run_pair`], as `(frame, hash)` pairs.
    #[derive(Default)]
    struct Run {
        reports: Vec<(u64, u64)>,
        confirmed: Vec<(u64, u64)>,
    }

    impl Run {
        /// The frames this site vouches for: every report at window 0,
        /// the drained confirmations otherwise.
        fn authoritative(&self, window: u64) -> &[(u64, u64)] {
            if window == 0 {
                &self.reports
            } else {
                &self.confirmed
            }
        }
    }

    /// Ticks both sessions over perfect loopback in virtual time until each
    /// has executed `frames` frames in total.
    fn run_pair<S: InputSource, P: InputPredictor>(
        a: &mut Sess<S, P>,
        b: &mut Sess<S, P>,
        frames: u64,
    ) -> [Run; 2] {
        let mut now = SimTime::ZERO;
        let [mut ra, mut rb] = [Run::default(), Run::default()];
        let mut guard = 0;
        while a.stats().frames < frames || b.stats().frames < frames {
            guard += 1;
            assert!(guard < 1_000_000, "no progress after 1M ticks");
            let mut next = now + SimDuration::from_millis(1);
            for (sess, run) in [(&mut *a, &mut ra), (&mut *b, &mut rb)] {
                match sess.tick(now).unwrap() {
                    Step::Wait(t) => next = next.min(t),
                    Step::FrameDone { report, next_wake } => {
                        run.reports.push((report.frame, report.state_hash.unwrap()));
                        next = next.min(next_wake);
                    }
                    Step::Stopped(r) => panic!("unexpected stop: {r}"),
                }
                run.confirmed.extend(sess.take_confirmed());
            }
            now = next.max(now + SimDuration::from_micros(100));
        }
        [ra, rb]
    }

    /// Asserts two `(frame, hash)` timelines agree on every frame both
    /// hold, and returns how many frames that is.
    fn agree(x: &[(u64, u64)], y: &[(u64, u64)]) -> usize {
        let y: BTreeMap<u64, u64> = y.iter().copied().collect();
        let mut common = 0;
        for (frame, hash) in x {
            if let Some(other) = y.get(frame) {
                assert_eq!(hash, other, "replicas diverged at frame {frame}");
                common += 1;
            }
        }
        common
    }

    #[test]
    fn pair_converges_over_clean_loopback() {
        for consistency in modes() {
            let (mut a, mut b) = sessions(consistency);
            let [ra, rb] = run_pair(&mut a, &mut b, 120);
            let w = a.window();
            let common = agree(ra.authoritative(w), rb.authoritative(w));
            assert!(common >= 100, "{consistency:?}: {common} frames compared");
            // The local lag (6 frames ≈ 100 ms) dwarfs loopback delivery:
            // every input arrives before its frame is due, so nothing
            // stalls or rolls back, and what a speculative site presented
            // is what it later confirmed.
            for s in [&a, &b] {
                assert_eq!((s.stats().stalled_frames, s.stats().rollbacks), (0, 0));
            }
            assert_eq!(ra.confirmed.is_empty(), w == 0);
            agree(&ra.reports, &ra.confirmed);
        }
    }

    #[test]
    fn rom_mismatch_fails_the_sender_not_the_master() {
        let (ta, tb) = loopback(PeerId(0), PeerId(1));
        let mut modified = NullMachine::new();
        modified.step_frame(InputWord(1)); // different "image"
        let mut cfg0 = SyncConfig::two_player(0);
        cfg0.telemetry = Telemetry::recording();
        let telemetry = cfg0.telemetry.clone();
        let mut a = LockstepSession::new(cfg0, NullMachine::new(), ta, Idle);
        let mut b = LockstepSession::new(SyncConfig::two_player(1), modified, tb, Idle);
        let now = SimTime::ZERO;
        let _ = b.tick(now).unwrap(); // b sends Hello with the wrong hash
                                      // The master refuses the peer but keeps waiting for a real one...
        assert!(matches!(a.tick(now).unwrap(), Step::Wait(_)));
        assert!(a.joined.is_empty());
        assert_eq!(telemetry.counter("hello_rejected_total"), 1);
        // ...and its ack makes the misconfigured sender fail fast.
        let err = b.tick(now).unwrap_err();
        assert!(matches!(err, SyncError::RomMismatch { .. }), "{err:?}");
    }

    #[test]
    fn bye_stops_the_peer() {
        let (mut a, mut b) = sessions(ConsistencyMode::Lockstep);
        let _ = run_pair(&mut a, &mut b, 10);
        a.stop().unwrap();
        let now = SimTime::from_secs(10);
        match b.tick(now).unwrap() {
            Step::Stopped(StopReason::PeerLeft) => {}
            other => panic!("expected PeerLeft, got {other:?}"),
        }
    }

    #[test]
    fn silent_peer_blocks_each_site_at_its_window() {
        for consistency in modes() {
            let (mut a, mut b) = sessions(consistency);
            let _ = run_pair(&mut a, &mut b, 10);
            // b stops ticking (its endpoint stays up). The frontier freezes
            // at what b already sent; a runs `window` frames past it, then
            // blocks — the paper's freeze at window 0.
            let mut now = SimTime::from_secs(2);
            let mut blocked_waits = 0;
            for _ in 0..2_000 {
                now += SimDuration::from_millis(2);
                let step = a.tick(now).unwrap();
                let edge = a.sync.authoritative_frontier() + a.window() + 1;
                if matches!(step, Step::Wait(_)) && a.sync.pointer() == edge {
                    blocked_waits += 1;
                }
            }
            let edge = a.sync.authoritative_frontier() + a.window() + 1;
            assert_eq!(a.sync.pointer(), edge, "{consistency:?}");
            assert!(blocked_waits > 100, "{consistency:?}: blocked ticks");
            assert_eq!(
                a.stats().rollbacks,
                0,
                "no authoritative input, no rollback"
            );
            // The late peer finally speaks. Its real inputs contradict the
            // repeat-last guesses a speculative site made (b's presser holds
            // real buttons), so that site rolls back; both converge.
            let [ra, rb] = run_pair(&mut a, &mut b, 150);
            let w = a.window();
            assert!(agree(ra.authoritative(w), rb.authoritative(w)) >= 100);
            let stats = a.stats();
            assert_eq!(stats.rollbacks > 0, w > 0, "{consistency:?}");
            assert!(stats.resimulated_frames >= stats.rollbacks);
            assert!(stats.max_rollback_depth <= w + 1, "window bounds depth");
        }
    }

    #[test]
    fn stall_timeout_fires_at_the_window_edge() {
        for consistency in modes() {
            let (ta, _tb_keepalive) = loopback(PeerId(0), PeerId(1));
            let mut cfg = cfg(0, consistency);
            cfg.stall_timeout = Some(SimDuration::from_millis(400));
            let mut a = Session::new(cfg, NullMachine::new(), ta, Idle);
            // Fake the handshake: pretend site 1 joined so the run starts.
            a.joined.push(1);
            let mut now = SimTime::ZERO;
            let err = loop {
                match a.tick(now) {
                    Ok(_) => now += SimDuration::from_millis(10),
                    Err(e) => break e,
                }
                assert!(now < SimTime::from_secs(30), "never stalled out");
            };
            assert!(matches!(err, SyncError::Stalled(_)), "{err:?}");
        }
    }

    #[test]
    fn checkpoints_follow_the_cadence() {
        let (mut a, mut b) = sessions(ConsistencyMode::rollback());
        let _ = run_pair(&mut a, &mut b, 60);
        assert!(a.checkpoint_bytes() > 0);
        // Cadence 5 over 60 frames: the ring (capacity 8) holds the newest
        // eight of frames {0, 5, 10, ...}.
        let ring = a.ring.as_ref().unwrap();
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.newest_frame().unwrap() % 5, 0);
    }

    /// [`RepeatLast`] that counts its calls.
    #[derive(Clone, Default)]
    struct Counting(Rc<Cell<u64>>);

    impl InputPredictor for Counting {
        fn predict(&mut self, site: u8, frame: u64, last: Option<InputWord>) -> InputWord {
            self.0.set(self.0.get() + 1);
            RepeatLast.predict(site, frame, last)
        }
    }

    #[test]
    fn window_zero_never_predicts_or_checkpoints() {
        for consistency in modes() {
            // No local lag: every remote input arrives after its frame is
            // due, so only waiting avoids prediction.
            let calls = Counting::default();
            let (ta, tb) = loopback(PeerId(0), PeerId(1));
            let [mut a, mut b] = [(0, ta), (1, tb)].map(|(site, t)| {
                let mut cfg = cfg(site, consistency);
                cfg.buf_frames = 0;
                let source = RandomPresser::new(Player(site), 7 + site as u64);
                Session::with_predictor(cfg, NullMachine::new(), t, source, calls.clone())
            });
            let [ra, rb] = run_pair(&mut a, &mut b, 90);
            let w = a.window();
            assert!(agree(ra.authoritative(w), rb.authoritative(w)) >= 60);
            let (calls, bytes) = (calls.0.get(), a.checkpoint_bytes());
            if w == 0 {
                assert_eq!((calls, bytes), (0, 0), "window 0 waits instead");
            } else {
                // The same run with a window does predict and checkpoint,
                // so the zeros above are not vacuous.
                assert!(calls > 0 && bytes > 0, "calls={calls} bytes={bytes}");
            }
        }
    }

    /// One session plus a raw transport standing in for its peer.
    fn probed(site: u8, consistency: ConsistencyMode) -> (Sess<Idle>, LoopbackTransport) {
        let (ts, probe) = loopback(PeerId(site), PeerId(1 - site));
        let s = Session::new(cfg(site, consistency), NullMachine::new(), ts, Idle);
        (s, probe)
    }

    fn drain(probe: &mut impl Transport) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some((_, data)) = probe.try_recv().unwrap() {
            out.push(Message::decode(&data).unwrap());
        }
        out
    }

    #[test]
    fn only_window_zero_serves_snapshots() {
        let state_len = NullMachine::new().save_state().len();
        for consistency in modes() {
            let (mut s, mut probe) = probed(0, consistency);
            let request = Message::SnapshotRequest.encode();
            probe.send(PeerId(0), &request).unwrap();
            let _ = s.tick(SimTime::ZERO).unwrap();
            let served: usize = drain(&mut probe)
                .into_iter()
                .map(|m| match m {
                    Message::SnapshotChunk { bytes, .. } => bytes.len(),
                    _ => 0,
                })
                .sum();
            let expected = if s.window() == 0 { state_len } else { 0 };
            assert_eq!(served, expected, "{consistency:?}");
        }
    }

    #[test]
    fn only_window_zero_joins_mid_game() {
        let mid_game = Message::HelloAck {
            rom_hash: NullMachine::new().state_hash(),
            start_frame: 100,
        };
        // A speculative site refuses the snapshot join outright...
        let (mut s, mut probe) = probed(1, ConsistencyMode::rollback());
        probe.send(PeerId(1), &mid_game.encode()).unwrap();
        let err = s.tick(SimTime::ZERO).unwrap_err();
        assert!(matches!(err, SyncError::Snapshot(_)), "{err:?}");
        // ...while a lockstep site asks the master for one.
        let (mut s, mut probe) = probed(1, ConsistencyMode::Lockstep);
        probe.send(PeerId(1), &mid_game.encode()).unwrap();
        assert!(matches!(s.tick(SimTime::ZERO).unwrap(), Step::Wait(_)));
        assert!(drain(&mut probe).contains(&Message::SnapshotRequest));
    }

    /// Runs an honest lockstep pair for 120 frames over a 5 ms link while
    /// a third endpoint sends `attack(tick)` to site `target`, and asserts
    /// the honest timelines agree. Returns the pair's telemetry and the
    /// attacker's socket.
    fn under_attack(target: u8, attack: impl Fn(u64) -> Vec<Message>) -> (Telemetry, SimSocket) {
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        let link = NetemConfig::new().delay(SimDuration::from_millis(5));
        SimNetwork::link_pair(&net, PeerId(0), PeerId(1), link.clone(), 1);
        SimNetwork::link_pair(&net, PeerId(2), PeerId(target), link, 2);
        let telemetry = Telemetry::recording();
        let mut sites = [0, 1].map(|site| {
            let mut cfg = SyncConfig::two_player(site);
            cfg.telemetry = telemetry.clone();
            let socket = SimNetwork::socket(&net, PeerId(site));
            Session::new(
                cfg,
                NullMachine::new(),
                socket,
                RandomPresser::new(Player(site), 1),
            )
        });
        let mut mallory = SimNetwork::socket(&net, PeerId(2));
        let mut hashes = [Vec::new(), Vec::new()];
        for tick in 0..20_000 {
            let now = clock.now();
            for msg in attack(tick) {
                mallory.send(PeerId(target), &msg.encode()).unwrap();
            }
            net.borrow_mut().deliver_due(now);
            for (s, out) in sites.iter_mut().zip(&mut hashes) {
                if let Step::FrameDone { report, .. } = s.tick(now).unwrap() {
                    out.push(report.state_hash.unwrap());
                }
            }
            if hashes.iter().all(|h| h.len() >= 120) {
                break;
            }
            clock.set(now + SimDuration::from_millis(1));
        }
        let [ha, hb] = hashes;
        assert!(ha.len() >= 120 && hb.len() >= 120, "run wedged");
        assert_eq!(ha[..120], hb[..120], "the third endpoint desynced the pair");
        (telemetry, mallory)
    }

    #[test]
    fn inputs_forged_by_a_third_endpoint_are_dropped() {
        // Site 1's partials from its first post-lag frame on, every button
        // held: accepted, they would beat the real ones into site 0's
        // first-write-wins buffer.
        let forged = Message::Input(InputMsg {
            from: 1,
            ack: 0,
            first: 6,
            inputs: vec![InputWord(0xFFFF); 240],
        });
        let (telemetry, _) = under_attack(0, |tick| {
            let due = tick % 50 == 0;
            due.then(|| forged.clone()).into_iter().collect()
        });
        assert!(telemetry.counter("input_spoofed_total") > 0);
    }

    #[test]
    fn foreign_hellos_cannot_end_a_running_session() {
        let foreign_rom = NullMachine::new().state_hash() ^ 1;
        // A latecomer with the wrong cartridge, one claiming site 1, and a
        // stray ack long after the handshake.
        let hello = |site| Message::Hello {
            site,
            rom_hash: foreign_rom,
            observer: false,
        };
        let ack = Message::HelloAck {
            rom_hash: foreign_rom,
            start_frame: 0,
        };
        let (telemetry, mut mallory) = under_attack(0, |tick| match tick {
            500 => vec![hello(2), hello(1), ack.clone()],
            _ => Vec::new(),
        });
        assert_eq!(telemetry.counter("hello_rejected_total"), 1);
        assert_eq!(telemetry.counter("hello_spoofed_total"), 1);
        // The foreign site was answered, never admitted.
        let answers = drain(&mut mallory);
        assert!(answers
            .iter()
            .any(|m| matches!(m, Message::HelloAck { .. })));
    }

    #[test]
    fn a_forged_ack_cannot_end_the_handshake() {
        // Site 1 is still connecting when this foreign-cartridge ack lands
        // (5 ms in; the master's real ack needs 10). Taken at face value it
        // would end site 1 with `RomMismatch`.
        let forged = Message::HelloAck {
            rom_hash: NullMachine::new().state_hash() ^ 1,
            start_frame: 0,
        };
        let (telemetry, _) = under_attack(1, |tick| match tick {
            0 => vec![forged.clone()],
            _ => Vec::new(),
        });
        assert_eq!(telemetry.counter("hello_spoofed_total"), 1);
    }
}
