//! Timing decorators around the program's public layer traits.
//!
//! Each wrapper forwards **every** trait method, defaulted ones included,
//! to the wrapped value. That matters: a wrapper that let a defaulted
//! method fall back to the trait default would, for example, drop the ROM
//! consoles from O(dirty) checkpoints onto the full-image fallback and so
//! measure a different program. `tests/forwarding.rs` pins this.
//!
//! The wrappers record spans (see [`crate::trace`]) only on threads that
//! enabled tracing; otherwise each call costs one thread-local read.
//! [`Stamped`] and [`TimedDriver`] also keep a few per-frame facts in every
//! run, because the end-to-end latency metrics are computed from them.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use coplay_clock::SimTime;
use coplay_net::{PeerId, Transport, TransportError};
use coplay_sync::{
    FrameReport, InputSource, SessionDriver, SessionStats, Step, SyncConfig, SyncError,
};
use coplay_vm::{
    DirtyPages, FrameBuffer, InputWord, InterpStats, Machine, MachineInfo, StateError, StepMode,
};

use crate::trace::{self, Layer};

/// A [`Machine`] wrapper timing stepping, hashing, checkpoints and restores.
#[derive(Debug, Clone)]
pub struct TimedMachine<M> {
    inner: M,
    site: u8,
}

impl<M: Machine> TimedMachine<M> {
    /// Wraps `inner`, tagging its spans with `site`.
    pub fn new(inner: M, site: u8) -> Self {
        TimedMachine { inner, site }
    }

    /// The wrapped machine.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Machine> Machine for TimedMachine<M> {
    fn info(&self) -> MachineInfo {
        self.inner.info()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn step_frame(&mut self, input: InputWord) {
        let h = trace::open(Layer::VmStep, self.site, self.inner.frame());
        self.inner.step_frame(input);
        trace::close(h, 0);
    }
    fn step_frame_mode(&mut self, input: InputWord, mode: StepMode) {
        let layer = match mode {
            StepMode::Present => Layer::VmStep,
            StepMode::Headless => Layer::VmResim,
        };
        let h = trace::open(layer, self.site, self.inner.frame());
        self.inner.step_frame_mode(input, mode);
        trace::close(h, 0);
    }
    fn frame(&self) -> u64 {
        self.inner.frame()
    }
    fn framebuffer(&self) -> &FrameBuffer {
        self.inner.framebuffer()
    }
    fn audio_samples(&self) -> &[i16] {
        self.inner.audio_samples()
    }
    fn state_hash(&self) -> u64 {
        trace::span(
            Layer::VmHash,
            self.site,
            self.inner.frame(),
            || self.inner.state_hash(),
            |_| 0,
        )
    }
    fn save_state(&self) -> Vec<u8> {
        trace::span(
            Layer::VmCheckpoint,
            self.site,
            self.inner.frame(),
            || self.inner.save_state(),
            |v| v.len() as u64,
        )
    }
    fn save_state_into(&self, out: &mut Vec<u8>) {
        let h = trace::open(Layer::VmCheckpoint, self.site, self.inner.frame());
        self.inner.save_state_into(out);
        trace::close(h, out.len() as u64);
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let h = trace::open(Layer::VmRestore, self.site, self.inner.frame());
        let r = self.inner.load_state(bytes);
        trace::close(h, bytes.len() as u64);
        r
    }
    fn save_state_dirty_into(&mut self, out: &mut Vec<u8>, dirty: &mut DirtyPages) {
        let h = trace::open(Layer::VmCheckpoint, self.site, self.inner.frame());
        self.inner.save_state_dirty_into(out, dirty);
        if h.is_some() {
            trace::close(h, dirty_bytes(dirty));
        }
    }
    fn collect_dirty_into(&mut self, out: &mut DirtyPages) {
        let h = trace::open(Layer::VmCollect, self.site, self.inner.frame());
        self.inner.collect_dirty_into(out);
        trace::close(h, 0);
    }
    fn take_dirty_pages(&mut self) -> DirtyPages {
        let h = trace::open(Layer::VmCollect, self.site, self.inner.frame());
        let d = self.inner.take_dirty_pages();
        trace::close(h, 0);
        d
    }
    fn save_state_ranges_into(&self, out: &mut Vec<u8>, dirty: &DirtyPages) {
        let h = trace::open(Layer::VmCheckpoint, self.site, self.inner.frame());
        self.inner.save_state_ranges_into(out, dirty);
        if h.is_some() {
            trace::close(h, dirty_bytes(dirty));
        }
    }
    fn load_state_dirty(&mut self, bytes: &[u8], dirty: &DirtyPages) -> Result<(), StateError> {
        let h = trace::open(Layer::VmRestore, self.site, self.inner.frame());
        let r = self.inner.load_state_dirty(bytes, dirty);
        if h.is_some() {
            trace::close(h, dirty_bytes(dirty));
        }
        r
    }
    fn interp_stats(&self) -> Option<InterpStats> {
        self.inner.interp_stats()
    }
}

/// Bytes covered by a dirty bitmap (the bytes a ranged capture rewrites).
fn dirty_bytes(d: &DirtyPages) -> u64 {
    d.byte_ranges().map(|(s, e)| (e - s) as u64).sum()
}

/// A [`Transport`] wrapper timing sends and receive polls.
///
/// Used twice: directly on the UDP socket (the `net` layer, spans
/// [`Layer::NetSend`] / [`Layer::NetRecv`]) and around a `RelaySocket`
/// (the relay client, [`Layer::RelayClient`]), whose self time then
/// excludes the socket calls nested inside it.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    site: u8,
    relay_client: bool,
}

impl<T: Transport> TimedTransport<T> {
    /// Times `inner` as the UDP (`net`) layer.
    pub fn net(inner: T, site: u8) -> Self {
        TimedTransport {
            inner,
            site,
            relay_client: false,
        }
    }

    /// Times `inner` as the relay-client layer.
    pub fn relay_client(inner: T, site: u8) -> Self {
        TimedTransport {
            inner,
            site,
            relay_client: true,
        }
    }

    fn layers(&self) -> (Layer, Layer) {
        if self.relay_client {
            (Layer::RelayClient, Layer::RelayClient)
        } else {
            (Layer::NetSend, Layer::NetRecv)
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn local_id(&self) -> PeerId {
        self.inner.local_id()
    }

    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        let h = trace::open(self.layers().0, self.site, u64::from(to.0));
        let r = self.inner.send(to, payload);
        if r.is_err() && !self.relay_client {
            trace::note_send_error();
        }
        trace::close(h, payload.len() as u64);
        r
    }

    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        let h = trace::open(self.layers().1, self.site, 0);
        let r = self.inner.try_recv();
        trace::close(h, matches!(r, Ok(Some(_))) as u64);
        r
    }
}

/// A fixed one-way delay in each direction, injected below the relay
/// client: outbound datagrams are held `one_way_ns` before they reach the
/// socket, inbound ones `one_way_ns` after the socket returned them. No
/// jitter, no loss, order preserved. Queues are serviced on every
/// transport call, which the session makes at least once per tick.
#[derive(Debug)]
pub struct Delayed<T> {
    inner: T,
    one_way_ns: u64,
    site: u8,
    out: VecDeque<(u64, PeerId, Vec<u8>)>,
    inq: VecDeque<(u64, PeerId, Vec<u8>)>,
}

impl<T: Transport> Delayed<T> {
    /// Delays each direction of `inner` by `one_way_ns`.
    pub fn new(inner: T, one_way_ns: u64, site: u8) -> Self {
        Delayed {
            inner,
            one_way_ns,
            site,
            out: VecDeque::new(),
            inq: VecDeque::new(),
        }
    }

    fn flush_out(&mut self, now: u64) {
        while self.out.front().is_some_and(|(due, ..)| *due <= now) {
            let Some((_, to, data)) = self.out.pop_front() else {
                break;
            };
            // UDP semantics: a failed deferred send is a lost datagram.
            if self.inner.send(to, &data).is_err() {
                trace::note_send_error();
            }
        }
    }
}

impl<T: Transport> Transport for Delayed<T> {
    fn local_id(&self) -> PeerId {
        self.inner.local_id()
    }

    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        let h = trace::open(Layer::Netem, self.site, 0);
        let now = trace::now_ns();
        self.flush_out(now);
        self.out
            .push_back((now + self.one_way_ns, to, payload.to_vec()));
        self.flush_out(now);
        trace::close(h, 0);
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        let h = trace::open(Layer::Netem, self.site, 0);
        let now = trace::now_ns();
        self.flush_out(now);
        let mut result = Ok(None);
        loop {
            match self.inner.try_recv() {
                Ok(Some((from, data))) => self.inq.push_back((now + self.one_way_ns, from, data)),
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if result.is_ok() && self.inq.front().is_some_and(|(due, ..)| *due <= now) {
            result = Ok(self.inq.pop_front().map(|(_, from, data)| (from, data)));
        }
        trace::close(h, 0);
        result
    }
}

/// One `InputSource::sample` call: the frame it was sampled at and when.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The frame whose begin sampled the input.
    pub frame: u64,
    /// Wall time of the call, ns since the epoch.
    pub at_ns: u64,
}

/// An [`InputSource`] wrapper that stamps every sample with wall time.
#[derive(Debug)]
pub struct Stamped<S> {
    inner: S,
    log: Rc<RefCell<Vec<Sample>>>,
}

impl<S: InputSource> Stamped<S> {
    /// Wraps `inner`; the returned log fills as the session samples.
    pub fn new(inner: S) -> (Self, Rc<RefCell<Vec<Sample>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (
            Stamped {
                inner,
                log: Rc::clone(&log),
            },
            log,
        )
    }
}

impl<S: InputSource> InputSource for Stamped<S> {
    fn sample(&mut self, frame: u64) -> InputWord {
        let at_ns = trace::now_ns();
        self.log.borrow_mut().push(Sample { frame, at_ns });
        self.inner.sample(frame)
    }
}

/// One executed frame as seen from outside the session.
#[derive(Debug, Clone, Copy)]
pub struct FrameMark {
    /// The frame's report.
    pub report: FrameReport,
    /// `FrameReport::began_at`, as ns since the epoch.
    pub began_ns: u64,
    /// The `next_wake` the session asked for after this frame.
    pub next_wake_ns: u64,
    /// When `tick` returned the frame (presentation).
    pub present_ns: u64,
}

/// A [`SessionDriver`] wrapper: times `tick` and `pump`, and logs every
/// executed frame with its session-clock instants mapped onto the shared
/// epoch (sites on different threads each run their own runner clock).
#[derive(Debug)]
pub struct TimedDriver<D> {
    inner: D,
    site: u8,
    frames: Vec<FrameMark>,
    ticks: u64,
}

impl<D: SessionDriver> TimedDriver<D> {
    /// Wraps `inner`, tagging its spans with `site`.
    pub fn new(inner: D, site: u8) -> Self {
        TimedDriver {
            inner,
            site,
            frames: Vec::new(),
            ticks: 0,
        }
    }

    /// The wrapped session.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Frames executed so far.
    pub fn frames(&self) -> &[FrameMark] {
        &self.frames
    }

    /// `tick` calls so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

impl<D: SessionDriver> SessionDriver for TimedDriver<D> {
    type Machine = D::Machine;

    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
        self.ticks += 1;
        let entry_ns = trace::now_ns();
        let h = trace::open(Layer::SessionTick, self.site, self.inner.frame());
        let step = self.inner.tick(now);
        trace::close(h, 0);
        if let Ok(Step::FrameDone { report, next_wake }) = &step {
            let present_ns = trace::now_ns();
            let to_epoch = |t: SimTime| {
                let delta = t.as_micros() as i64 - now.as_micros() as i64;
                (entry_ns as i64 + delta * 1_000).max(0) as u64
            };
            self.frames.push(FrameMark {
                report: *report,
                began_ns: to_epoch(report.began_at),
                next_wake_ns: to_epoch(*next_wake),
                present_ns,
            });
        }
        step
    }

    fn pump(&mut self, now: SimTime) -> Result<(), SyncError> {
        let h = trace::open(Layer::SessionPump, self.site, self.inner.frame());
        let r = self.inner.pump(now);
        trace::close(h, 0);
        r
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
