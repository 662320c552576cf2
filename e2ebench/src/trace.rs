//! In-memory span recording and host probes.
//!
//! A span is one call into a program layer, recorded by the timing
//! wrappers in [`crate::wrap`]: layer, start, end, parent span, site and a
//! key (frame number or datagram sequence). Spans live in a per-thread
//! buffer, so recording takes no lock; each worker thread hands its buffer
//! back with [`take`] when it ends. Recording is off unless the thread
//! called [`set_enabled`], and an off thread pays one thread-local read
//! per wrapped call.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

/// The program layer a span was recorded around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `Machine::step_frame` / `step_frame_mode(Present)`.
    VmStep,
    /// `Machine::step_frame_mode(Headless)`: rollback resimulation.
    VmResim,
    /// `Machine::state_hash`.
    VmHash,
    /// `collect_dirty_into` / `take_dirty_pages`: dirty-set drain.
    VmCollect,
    /// The `save_state*` family: checkpoint capture. `val` = bytes written.
    VmCheckpoint,
    /// `load_state` / `load_state_dirty`: checkpoint restore.
    VmRestore,
    /// `SessionDriver::tick` (lockstep or rollback session).
    SessionTick,
    /// `SessionDriver::pump` (post-budget network service).
    SessionPump,
    /// `Transport::send` on the UDP socket. `val` = payload bytes.
    NetSend,
    /// `Transport::try_recv` on the UDP socket. `val` = 1 on a datagram.
    NetRecv,
    /// The benchmark's injected-delay queue (not a program layer).
    Netem,
    /// `RelaySocket` as a `Transport` (send or try_recv).
    RelayClient,
    /// `UdpRelay::poll`. `val` = datagrams handled.
    RelayPoll,
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer called.
    pub layer: Layer,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<u32>,
    /// Site (or member) the call was made for.
    pub site: u8,
    /// Frame number or datagram sequence.
    pub key: u64,
    /// Layer-specific value (bytes, hit flag, datagrams handled).
    pub val: u64,
    /// Wall time covered by direct children.
    pub child_ns: u64,
}

impl Span {
    /// Duration of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus the part covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
    static SEND_ERRORS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide time origin shared by every thread.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
#[inline]
pub fn now_ns() -> u64 {
    Instant::now().duration_since(epoch()).as_nanos() as u64
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// `true` if the calling thread records spans.
#[inline]
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Opens a span; returns its handle, or `None` when recording is off.
#[inline]
pub fn open(layer: Layer, site: u8, key: u64) -> Option<u32> {
    if !enabled() {
        return None;
    }
    let start_ns = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied();
        r.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            site,
            key,
            val: 0,
            child_ns: 0,
        });
        r.open.push(idx);
        Some(idx)
    })
}

/// Closes a span opened by [`open`], storing `val`.
#[inline]
pub fn close(handle: Option<u32>, val: u64) {
    let Some(idx) = handle else { return };
    let end_ns = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        let span = &mut r.spans[idx as usize];
        span.end_ns = end_ns;
        span.val = val;
        let (dur, parent) = (span.dur_ns(), span.parent);
        if let Some(p) = parent {
            r.spans[p as usize].child_ns += dur;
        }
    });
}

/// Runs `f` inside a span whose value is computed from its result.
#[inline]
pub fn span<R>(
    layer: Layer,
    site: u8,
    key: u64,
    f: impl FnOnce() -> R,
    val: impl Fn(&R) -> u64,
) -> R {
    let h = open(layer, site, key);
    let r = f();
    if h.is_some() {
        close(h, val(&r));
    }
    r
}

/// Counts a failed socket send on the calling thread (recorded whether or
/// not spans are on: a send the delay queue defers cannot return its error).
pub fn note_send_error() {
    SEND_ERRORS.with(|c| c.set(c.get() + 1));
}

/// Failed sends counted on the calling thread since the last call.
pub fn take_send_errors() -> u64 {
    SEND_ERRORS.with(|c| c.replace(0))
}

/// Drains the calling thread's span buffer.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// On-CPU time of the calling thread in ns, from
/// `/proc/thread-self/schedstat` (first field: time spent running).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Peak resident set of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn proc_status_kib(key: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}
