//! The cloneable `Telemetry` handle threaded through the stack.

use crate::event::{Event, EventKind};
use crate::metrics::MetricsRegistry;
use crate::recorder::FlightRecorder;
use crate::span::SpanStage;
use coplay_clock::{SimDuration, SimTime};
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default flight-recorder capacity for [`Telemetry::recording`].
const DEFAULT_CAPACITY: usize = 16_384;

/// A stall longer than this latches an anomaly (see
/// [`Telemetry::take_anomaly`]). Roughly 12 frames at 60 FPS — twice the
/// paper's local-lag budget, far past any pacing hiccup.
const DEFAULT_STALL_ANOMALY: SimDuration = SimDuration::from_millis(200);

/// A rollback this deep (frames) latches an anomaly. The speculation
/// window defaults to 30 frames; repairs near that depth mean predictions
/// are failing wholesale.
const DEFAULT_DEPTH_ANOMALY: u64 = 20;

/// The shared sink behind an enabled handle.
#[derive(Debug)]
struct Sink {
    recorder: FlightRecorder,
    metrics: MetricsRegistry,
    /// Correlation identity stamped into trace dumps: an arbitrary session
    /// key (commonly the experiment seed or lobby session id) and the
    /// local site number.
    session: u64,
    site: u8,
    /// Where [`Telemetry::flush`] persists the trace, if anywhere.
    trace_path: Option<PathBuf>,
    /// First anomalous event observed since the last
    /// [`Telemetry::take_anomaly`], latched for black-box dumping.
    anomaly: Option<Event>,
    stall_anomaly: SimDuration,
    depth_anomaly: u64,
}

impl Sink {
    fn new(capacity: usize) -> Sink {
        Sink {
            recorder: FlightRecorder::new(capacity),
            metrics: MetricsRegistry::new(),
            session: 0,
            site: 0,
            trace_path: None,
            anomaly: None,
            stall_anomaly: DEFAULT_STALL_ANOMALY,
            depth_anomaly: DEFAULT_DEPTH_ANOMALY,
        }
    }
}

/// A cheap, cloneable handle to a flight recorder plus metrics registry.
///
/// The default handle ([`Telemetry::disabled`]) is a **no-op sink**: every
/// recording method is a single `Option` check that performs no work and
/// no allocation, so instrumentation can stay in place unconditionally on
/// hot paths. An enabled handle ([`Telemetry::recording`]) shares one sink
/// among all its clones, which is what lets a session hand the same trace
/// to its pacer, input synchronizer, and RTT estimator.
///
/// Recording an event also derives the obvious metrics from it (frame-time
/// and stall histograms, message counters, ...), so call sites make exactly
/// one telemetry call per occurrence.
///
/// Cloning is `O(1)`. The handle is `Send + Sync`; concurrent recorders
/// serialize on an internal mutex (uncontended in the deterministic
/// simulator, negligible next to a frame step elsewhere).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Sink>>>,
    /// Span tracing on/off, decided at construction and copied by clones.
    /// Kept on the handle (not in the sink) so the [`Telemetry::span`]
    /// hot path is a branch on a local bool, never a lock, when tracing
    /// is off.
    trace: bool,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(_) => write!(f, "Telemetry(enabled, {} events)", self.event_count()),
        }
    }
}

/// Two handles are equal when they are the *same* sink (or both disabled).
///
/// This intentionally ignores recorded contents so that configuration
/// structs carrying a handle can keep deriving `PartialEq`: a config clone
/// compares equal to its original even after more events arrive.
impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Telemetry {
    /// A disabled handle: every recording call is a no-op.
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            trace: false,
        }
    }

    /// An enabled handle with the default flight-recorder capacity
    /// (16 384 events). Span tracing is **off**; see
    /// [`Telemetry::tracing`].
    pub fn recording() -> Self {
        Telemetry::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled handle retaining at most `events` flight-recorder events.
    ///
    /// # Panics
    ///
    /// Panics if `events` is zero.
    pub fn with_capacity(events: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Sink::new(events)))),
            trace: false,
        }
    }

    /// An enabled handle with frame-lifecycle span tracing **on** and the
    /// `(session, site)` correlation identity set.
    ///
    /// `session` is an arbitrary key shared by every site of one run (the
    /// experiment seed, a lobby session id, ...); `site` is the
    /// local site number. Both are stamped into the `trace_meta` header of
    /// [`Telemetry::trace_jsonl`] so dumps from different sites can be
    /// merged into one cross-site timeline.
    pub fn tracing(session: u64, site: u8) -> Self {
        let t = Telemetry::recording().with_tracing();
        t.set_identity(session, site);
        t
    }

    /// Turns span tracing on for this handle (and subsequent clones of
    /// it). Requires an enabled handle; a disabled handle stays a no-op.
    ///
    /// When the crate is built without the `trace` feature this is
    /// honored in name only: [`Telemetry::span`] compiles to nothing.
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.trace = self.inner.is_some();
        self
    }

    /// `true` if this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` if [`Telemetry::span`] records span events.
    pub fn is_tracing(&self) -> bool {
        cfg!(feature = "trace") && self.trace
    }

    fn lock(&self) -> Option<MutexGuard<'_, Sink>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Records an event into the flight recorder and derives its metrics.
    ///
    /// No-op (and allocation-free) when disabled.
    pub fn record(&self, at: SimTime, kind: EventKind) {
        let Some(mut sink) = self.lock() else { return };
        sink.recorder.record(at, kind);
        derive_metrics(&mut sink.metrics, &kind);
        // Latch the first anomalous event for black-box forensics (see
        // `take_anomaly`): a stall past the threshold, a rollback near the
        // speculation window, or any replica divergence.
        if sink.anomaly.is_none() {
            let anomalous = match kind {
                EventKind::StallEnd { duration, .. } => duration >= sink.stall_anomaly,
                EventKind::RollbackExecuted { depth, .. } => depth >= sink.depth_anomaly,
                EventKind::DesyncDetected { .. } => true,
                _ => false,
            };
            if anomalous {
                sink.anomaly = Some(Event { at, kind });
            }
        }
    }

    /// Records one frame-lifecycle span stage.
    ///
    /// When tracing is off (the default, including every plain
    /// [`Telemetry::recording`] handle) this is a branch on a local bool —
    /// no lock, no allocation. Building the crate without the `trace`
    /// feature compiles the whole body away.
    #[inline]
    pub fn span(&self, at: SimTime, stage: SpanStage, frame: u64, peer: u8) {
        #[cfg(feature = "trace")]
        if self.trace {
            self.record(at, EventKind::Span { stage, frame, peer });
        }
        #[cfg(not(feature = "trace"))]
        let _ = (at, stage, frame, peer);
    }

    /// Sets the `(session, site)` correlation identity stamped into trace
    /// dumps. No-op when disabled.
    pub fn set_identity(&self, session: u64, site: u8) {
        if let Some(mut sink) = self.lock() {
            sink.session = session;
            sink.site = site;
        }
    }

    /// The `(session, site)` correlation identity, if the handle is
    /// enabled.
    pub fn identity(&self) -> Option<(u64, u8)> {
        self.lock().map(|s| (s.session, s.site))
    }

    /// Sets where [`Telemetry::flush`] persists the trace dump. No-op when
    /// disabled.
    pub fn set_trace_path(&self, path: impl Into<PathBuf>) {
        if let Some(mut sink) = self.lock() {
            sink.trace_path = Some(path.into());
        }
    }

    /// Writes the trace dump ([`Telemetry::trace_jsonl`]) to the path set
    /// by [`Telemetry::set_trace_path`], creating parent directories.
    ///
    /// Returns `Ok(None)` when the handle is disabled or no path is set;
    /// `Ok(Some(path))` after a successful write. Finished sessions call
    /// this on *every* exit path so buffered trace records are never
    /// silently dropped.
    ///
    /// # Errors
    ///
    /// Any filesystem error from creating directories or writing the file.
    pub fn flush(&self) -> std::io::Result<Option<PathBuf>> {
        let (path, dump) = {
            let Some(sink) = self.lock() else {
                return Ok(None);
            };
            let Some(path) = sink.trace_path.clone() else {
                return Ok(None);
            };
            (path, trace_jsonl_of(&sink))
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(&path, dump)?;
        Ok(Some(path))
    }

    /// Takes the latched anomaly, if one occurred since the last call:
    /// a stall past the configured threshold, a rollback-depth spike, or a
    /// detected desync. Used by harnesses to decide when to write a
    /// black-box forensics bundle (see [`crate::forensics`]).
    pub fn take_anomaly(&self) -> Option<Event> {
        self.lock().and_then(|mut s| s.anomaly.take())
    }

    /// Overrides the anomaly thresholds: stalls of `stall` or longer and
    /// rollbacks `depth` frames deep or deeper latch an anomaly.
    pub fn set_anomaly_thresholds(&self, stall: SimDuration, depth: u64) {
        if let Some(mut sink) = self.lock() {
            sink.stall_anomaly = stall;
            sink.depth_anomaly = depth;
        }
    }

    /// Adds `v` to a named counter. No-op when disabled.
    pub fn counter_add(&self, name: &'static str, v: u64) {
        if let Some(mut sink) = self.lock() {
            sink.metrics.counter_add(name, v);
        }
    }

    /// Sets a named gauge. No-op when disabled.
    pub fn gauge_set(&self, name: &'static str, v: i64) {
        if let Some(mut sink) = self.lock() {
            sink.metrics.gauge_set(name, v);
        }
    }

    /// Records a sample into a named histogram. No-op when disabled.
    pub fn observe(&self, name: &'static str, v: u64) {
        if let Some(mut sink) = self.lock() {
            sink.metrics.observe(name, v);
        }
    }

    /// Number of events currently retained (0 when disabled).
    pub fn event_count(&self) -> usize {
        self.lock().map_or(0, |s| s.recorder.len())
    }

    /// Number of events evicted by ring-buffer wraparound.
    pub fn dropped_events(&self) -> u64 {
        self.lock().map_or(0, |s| s.recorder.dropped())
    }

    /// Number of *span* records evicted by ring-buffer wraparound — the
    /// trace-completeness signal surfaced in lobby heartbeats.
    pub fn dropped_spans(&self) -> u64 {
        self.lock().map_or(0, |s| s.recorder.dropped_spans())
    }

    /// Copies the retained events out, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.lock().map_or_else(Vec::new, |s| s.recorder.to_vec())
    }

    /// The current value of a named counter (0 when disabled or untouched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().map_or(0, |s| s.metrics.counter(name))
    }

    /// The current value of a named gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.lock().and_then(|s| s.metrics.gauge(name))
    }

    /// The `p`-quantile of a named histogram, or `None` if it has no
    /// samples (or the handle is disabled).
    pub fn percentile(&self, name: &str, p: f64) -> Option<u64> {
        self.lock()
            .and_then(|s| s.metrics.histogram(name).map(|h| h.percentile(p)))
    }

    /// Dumps the flight recorder as JSON Lines (empty when disabled).
    pub fn dump_jsonl(&self) -> String {
        self.lock()
            .map_or_else(String::new, |s| s.recorder.to_jsonl())
    }

    /// Dumps the flight recorder as JSON Lines prefixed with a
    /// `trace_meta` header carrying the `(session, site)` correlation
    /// identity and the drop counters. This is the per-site artifact the
    /// `tracescope` tool merges into a cross-site timeline.
    ///
    /// Empty when disabled.
    pub fn trace_jsonl(&self) -> String {
        self.lock().map_or_else(String::new, |s| trace_jsonl_of(&s))
    }

    /// Snapshots all metrics as one JSON object (`"{}"`-ish when disabled).
    pub fn metrics_json(&self) -> String {
        self.lock()
            .map_or_else(|| MetricsRegistry::new().to_json(), |s| s.metrics.to_json())
    }

    /// Renders all metrics in Prometheus text exposition format with the
    /// standard `coplay` prefix (empty string when disabled).
    pub fn prometheus(&self) -> String {
        self.prometheus_with_prefix("coplay")
    }

    /// Renders all metrics in Prometheus text exposition format with a
    /// caller-chosen metric name prefix.
    pub fn prometheus_with_prefix(&self, prefix: &str) -> String {
        self.lock()
            .map_or_else(String::new, |s| s.metrics.prometheus(prefix))
    }

    /// Discards all recorded events, metrics, and any latched anomaly
    /// (keeps the handle enabled and its identity/thresholds intact).
    pub fn clear(&self) {
        if let Some(mut sink) = self.lock() {
            sink.recorder.clear();
            sink.metrics = MetricsRegistry::new();
            sink.anomaly = None;
        }
    }
}

/// Renders a sink's trace dump: one `trace_meta` header line, then the
/// flight recorder as JSONL.
fn trace_jsonl_of(sink: &Sink) -> String {
    let mut out = String::with_capacity(64 + sink.recorder.len() * 64);
    let _ = write!(
        out,
        "{{\"event\":\"trace_meta\",\"session\":{},\"site\":{},\"dropped_events\":{},\"dropped_spans\":{}}}",
        sink.session,
        sink.site,
        sink.recorder.dropped(),
        sink.recorder.dropped_spans(),
    );
    out.push('\n');
    out.push_str(&sink.recorder.to_jsonl());
    out
}

/// Maps an event to the metrics it implies, so instrumentation points make
/// a single `record` call.
fn derive_metrics(m: &mut MetricsRegistry, kind: &EventKind) {
    match *kind {
        EventKind::FrameBegun { .. } => {}
        EventKind::FrameExecuted { frame_time, .. } => {
            m.counter_add("frames_total", 1);
            m.observe("frame_time_us", frame_time.as_micros());
        }
        EventKind::StallBegin { .. } => {
            m.counter_add("stalls_total", 1);
        }
        EventKind::StallEnd { duration, .. } => {
            m.observe("stall_us", duration.as_micros());
        }
        EventKind::InputSent {
            count,
            retransmitted,
            ..
        } => {
            m.counter_add("input_messages_sent_total", 1);
            m.counter_add("input_frames_sent_total", count as u64);
            m.counter_add("retransmitted_frames_sent_total", retransmitted as u64);
        }
        EventKind::InputReceived {
            count,
            fresh,
            duplicate,
            ..
        } => {
            m.counter_add("input_messages_received_total", 1);
            m.counter_add("input_frames_received_total", count as u64);
            m.counter_add(
                "retransmitted_frames_received_total",
                (count - fresh) as u64,
            );
            if duplicate {
                m.counter_add("duplicate_messages_received_total", 1);
            }
        }
        EventKind::PaceAdjustment { delta } => {
            m.counter_add("pace_adjustments_total", 1);
            m.observe("pace_adjust_us", delta.abs().as_micros());
        }
        EventKind::RttSample { rtt } => {
            m.observe("rtt_us", rtt.as_micros());
        }
        EventKind::PeerJoined { .. } => {
            m.counter_add("peers_joined_total", 1);
        }
        EventKind::SnapshotServed { bytes, .. } => {
            m.counter_add("snapshots_served_total", 1);
            m.counter_add("snapshot_bytes_sent_total", bytes);
        }
        EventKind::SnapshotLoaded { .. } => {
            m.counter_add("snapshots_loaded_total", 1);
        }
        EventKind::PacketDropped { overflow, .. } => {
            m.counter_add("packets_dropped_total", 1);
            if overflow {
                m.counter_add("packets_overflowed_total", 1);
            }
        }
        EventKind::PacketDuplicated { .. } => {
            m.counter_add("packets_duplicated_total", 1);
        }
        EventKind::DesyncDetected { .. } => {
            m.counter_add("desyncs_total", 1);
        }
        EventKind::CheckpointSaved { bytes, .. } => {
            m.counter_add("checkpoints_saved_total", 1);
            m.observe("snapshot_bytes", bytes);
        }
        EventKind::InputMispredicted { .. } => {
            m.counter_add("mispredicted_frames_total", 1);
        }
        EventKind::RollbackExecuted {
            depth, resimulated, ..
        } => {
            m.counter_add("rollbacks_total", 1);
            m.counter_add("resimulated_frames_total", resimulated);
            m.observe("rollback_depth_frames", depth);
            m.observe("resimulated_frames", resimulated);
        }
        EventKind::Span { .. } => {
            m.counter_add("spans_recorded_total", 1);
        }
        EventKind::RelayRegistered { spectator, .. } => {
            m.counter_add("relay_registrations_total", 1);
            if spectator {
                m.counter_add("relay_spectators_total", 1);
            }
        }
        EventKind::RelayEvicted { .. } => {
            m.counter_add("relay_members_evicted_total", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_clock::SimDuration;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.record(SimTime::ZERO, EventKind::FrameBegun { frame: 0 });
        t.counter_add("x", 1);
        t.observe("y", 1);
        t.gauge_set("z", 1);
        assert!(!t.is_enabled());
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.counter("x"), 0);
        assert_eq!(t.percentile("y", 0.5), None);
        assert!(t.dump_jsonl().is_empty());
        assert!(t.prometheus().is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
        assert_eq!(Telemetry::default(), Telemetry::disabled());
    }

    #[test]
    fn clones_share_one_sink() {
        let a = Telemetry::recording();
        let b = a.clone();
        b.record(SimTime::from_micros(5), EventKind::FrameBegun { frame: 1 });
        assert_eq!(a.event_count(), 1);
        assert_eq!(a, b);
        assert_ne!(a, Telemetry::recording(), "distinct sinks are not equal");
    }

    #[test]
    fn record_derives_metrics() {
        let t = Telemetry::recording();
        t.record(
            SimTime::from_millis(1),
            EventKind::FrameExecuted {
                frame: 0,
                frame_time: SimDuration::from_micros(16_667),
            },
        );
        t.record(
            SimTime::from_millis(2),
            EventKind::InputReceived {
                from: 1,
                first: 0,
                count: 4,
                fresh: 1,
                duplicate: false,
            },
        );
        t.record(
            SimTime::from_millis(3),
            EventKind::InputReceived {
                from: 1,
                first: 0,
                count: 4,
                fresh: 0,
                duplicate: true,
            },
        );
        assert_eq!(t.counter("frames_total"), 1);
        assert_eq!(t.counter("input_messages_received_total"), 2);
        assert_eq!(t.counter("retransmitted_frames_received_total"), 3 + 4);
        assert_eq!(t.counter("duplicate_messages_received_total"), 1);
        assert!(t.percentile("frame_time_us", 0.5).unwrap() >= 16_667);
    }

    #[test]
    fn dump_is_chronological_jsonl() {
        let t = Telemetry::with_capacity(4);
        for n in 0..6u64 {
            t.record(
                SimTime::from_micros(n * 10),
                EventKind::FrameBegun { frame: n },
            );
        }
        let dump = t.dump_jsonl();
        assert_eq!(dump.lines().count(), 4);
        assert_eq!(t.dropped_events(), 2);
        let times: Vec<u64> = t.events().iter().map(|e| e.at.as_micros()).collect();
        assert_eq!(times, vec![20, 30, 40, 50]);
    }

    #[test]
    fn clear_keeps_handle_enabled() {
        let t = Telemetry::recording();
        t.record(SimTime::ZERO, EventKind::FrameBegun { frame: 0 });
        t.clear();
        assert!(t.is_enabled());
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.counter("frames_total"), 0);
    }

    #[test]
    fn span_is_a_noop_unless_tracing() {
        let t = Telemetry::recording();
        assert!(!t.is_tracing());
        t.span(SimTime::ZERO, SpanStage::Sampled, 1, 0);
        assert_eq!(t.event_count(), 0, "untraced handle records no spans");

        let t = Telemetry::tracing(0xFEED, 3);
        assert!(t.is_tracing());
        t.span(SimTime::from_micros(7), SpanStage::Sampled, 1, 0);
        t.span(SimTime::from_micros(9), SpanStage::Sent, 1, 1);
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.counter("spans_recorded_total"), 2);
        assert_eq!(t.identity(), Some((0xFEED, 3)));
        let clone = t.clone();
        assert!(clone.is_tracing(), "clones keep tracing on");

        let disabled = Telemetry::disabled().with_tracing();
        assert!(!disabled.is_tracing(), "disabled handles cannot trace");
        disabled.span(SimTime::ZERO, SpanStage::Sampled, 1, 0);
        assert_eq!(disabled.event_count(), 0);
    }

    #[test]
    fn trace_dump_carries_the_correlation_header() {
        let t = Telemetry::tracing(42, 1);
        t.span(SimTime::from_micros(5), SpanStage::Received, 9, 0);
        let dump = t.trace_jsonl();
        let mut lines = dump.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"event\":\"trace_meta\""), "{header}");
        assert!(header.contains("\"session\":42"), "{header}");
        assert!(header.contains("\"site\":1"), "{header}");
        assert!(header.contains("\"dropped_spans\":0"), "{header}");
        let span = lines.next().unwrap();
        assert!(span.contains("\"stage\":\"received\""), "{span}");
        assert!(span.contains("\"frame\":9"), "{span}");
        assert!(Telemetry::disabled().trace_jsonl().is_empty());
    }

    #[test]
    fn anomalies_latch_and_take_once() {
        let t = Telemetry::recording();
        t.record(
            SimTime::from_millis(1),
            EventKind::StallEnd {
                frame: 5,
                duration: SimDuration::from_millis(10),
            },
        );
        assert!(t.take_anomaly().is_none(), "short stalls are normal");
        t.record(
            SimTime::from_millis(2),
            EventKind::StallEnd {
                frame: 6,
                duration: SimDuration::from_millis(500),
            },
        );
        t.record(
            SimTime::from_millis(3),
            EventKind::DesyncDetected { frame: 7 },
        );
        let anomaly = t.take_anomaly().expect("long stall latches");
        assert!(
            matches!(anomaly.kind, EventKind::StallEnd { frame: 6, .. }),
            "first anomaly wins: {anomaly:?}"
        );
        assert!(t.take_anomaly().is_none(), "taken");

        t.set_anomaly_thresholds(SimDuration::from_millis(1), 3);
        t.record(
            SimTime::from_millis(4),
            EventKind::RollbackExecuted {
                to_frame: 10,
                depth: 3,
                resimulated: 4,
            },
        );
        assert!(t.take_anomaly().is_some(), "tightened depth threshold");
    }

    #[test]
    fn flush_writes_the_trace_to_its_path() {
        let t = Telemetry::tracing(7, 0);
        assert_eq!(t.flush().unwrap(), None, "no path set yet");
        t.span(SimTime::from_micros(1), SpanStage::Sampled, 0, 0);
        let path = std::env::temp_dir().join("coplay-test-flush/trace.jsonl");
        t.set_trace_path(&path);
        let written = t.flush().unwrap().expect("path set");
        let contents = std::fs::read_to_string(&written).unwrap();
        assert!(contents.starts_with("{\"event\":\"trace_meta\""));
        assert_eq!(contents.lines().count(), 2);
        let _ = std::fs::remove_file(&written);
    }

    #[test]
    fn debug_does_not_leak_contents() {
        assert_eq!(
            format!("{:?}", Telemetry::disabled()),
            "Telemetry(disabled)"
        );
        assert!(format!("{:?}", Telemetry::recording()).starts_with("Telemetry(enabled"));
    }
}
