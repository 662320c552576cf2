//! Compact, timestamped events for the flight recorder.

use crate::span::SpanStage;
use coplay_clock::{SimDelta, SimDuration, SimTime};
use std::fmt::Write as _;

/// What happened at one instant of a session.
///
/// Events are deliberately compact (a tag plus a few integers) so that a
/// ring buffer of tens of thousands of them costs little memory, and every
/// field is numeric so the JSONL dump needs no string escaping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A simulation frame entered its pacing/input pipeline.
    FrameBegun {
        /// Frame number.
        frame: u64,
    },
    /// A frame's inputs were complete and the machine stepped.
    FrameExecuted {
        /// Frame number.
        frame: u64,
        /// Time from frame begin to execution.
        frame_time: SimDuration,
    },
    /// The session started blocking on missing remote input.
    StallBegin {
        /// Frame the session is blocked at.
        frame: u64,
    },
    /// The session unblocked after a stall.
    StallEnd {
        /// Frame the session was blocked at.
        frame: u64,
        /// How long the stall lasted.
        duration: SimDuration,
    },
    /// An input message left this site.
    InputSent {
        /// Destination site.
        to: u8,
        /// First frame carried (meaningless for pure acks, `count == 0`).
        first: u64,
        /// Number of input frames carried.
        count: u32,
        /// How many of those frames had already been sent before
        /// (retransmissions for loss recovery).
        retransmitted: u32,
    },
    /// An input message arrived at this site.
    InputReceived {
        /// Origin site.
        from: u8,
        /// First frame carried (meaningless for pure acks, `count == 0`).
        first: u64,
        /// Number of input frames carried.
        count: u32,
        /// How many of those frames were new to this site.
        fresh: u32,
        /// `true` if the message carried inputs but not a single new frame.
        duplicate: bool,
    },
    /// The frame pacer applied a rate-synchronization adjustment
    /// (Algorithm 4 of the paper).
    PaceAdjustment {
        /// Signed adjustment added to the pace debt.
        delta: SimDelta,
    },
    /// A ping/pong round-trip completed.
    RttSample {
        /// The raw (unsmoothed) round-trip sample.
        rtt: SimDuration,
    },
    /// A peer completed the hello handshake.
    PeerJoined {
        /// The peer's site number.
        site: u8,
    },
    /// This site served a state snapshot to a late joiner.
    SnapshotServed {
        /// Frame the snapshot captures.
        frame: u64,
        /// Serialized size in bytes.
        bytes: u64,
    },
    /// This site installed a state snapshot received from a peer.
    SnapshotLoaded {
        /// Frame the snapshot captures.
        frame: u64,
        /// Serialized size in bytes.
        bytes: u64,
    },
    /// The impaired network dropped a packet.
    PacketDropped {
        /// Sending peer.
        from: u8,
        /// Receiving peer.
        to: u8,
        /// `true` if the drop was a queue overflow rather than random loss.
        overflow: bool,
    },
    /// The impaired network duplicated a packet.
    PacketDuplicated {
        /// Sending peer.
        from: u8,
        /// Receiving peer.
        to: u8,
    },
    /// Replica state hashes diverged at this frame.
    DesyncDetected {
        /// First frame at which the divergence was observed.
        frame: u64,
    },
    /// A rollback session saved a state checkpoint.
    CheckpointSaved {
        /// Frame the checkpoint captures (taken before executing it).
        frame: u64,
        /// Serialized size in bytes.
        bytes: u64,
    },
    /// A prediction for a remote site's input turned out wrong.
    InputMispredicted {
        /// The mispredicted frame.
        frame: u64,
        /// The remote site whose input was mispredicted.
        site: u8,
    },
    /// A rollback session restored a checkpoint and resimulated.
    RollbackExecuted {
        /// First mispredicted frame (the rollback target).
        to_frame: u64,
        /// Frames the pointer was rolled back (pointer − to_frame).
        depth: u64,
        /// Frames re-executed to return to the present.
        resimulated: u64,
    },
    /// One stage of an input word's frame-lifecycle span chain (tracing).
    ///
    /// The `(session, site)` half of the correlation key is constant per
    /// handle and lives in the trace-dump header (see
    /// [`Telemetry::trace_jsonl`](crate::Telemetry::trace_jsonl)); the
    /// record itself carries the frame plus the peer the stage involves.
    Span {
        /// Lifecycle stage reached.
        stage: SpanStage,
        /// The input-word frame the span belongs to.
        frame: u64,
        /// Stage-dependent peer site: the destination for `Sent`/`Encoded`,
        /// the origin for `Received`, the remote site whose word was
        /// predicted or mispredicted, and the local site for purely local
        /// stages.
        peer: u8,
    },
    /// A relay accepted a member registration for a session.
    RelayRegistered {
        /// The session joined.
        session: u32,
        /// The member's site number.
        site: u8,
        /// `true` for a read-only spectator.
        spectator: bool,
    },
    /// A relay evicted a member for heartbeat silence.
    RelayEvicted {
        /// The session the member was evicted from.
        session: u32,
        /// The evicted member's site number.
        site: u8,
    },
}

impl EventKind {
    /// Stable machine-readable name, used as the `"event"` field in JSONL
    /// dumps and convenient for filtering in tests.
    pub const fn name(&self) -> &'static str {
        match self {
            EventKind::FrameBegun { .. } => "frame_begun",
            EventKind::FrameExecuted { .. } => "frame_executed",
            EventKind::StallBegin { .. } => "stall_begin",
            EventKind::StallEnd { .. } => "stall_end",
            EventKind::InputSent { .. } => "input_sent",
            EventKind::InputReceived { .. } => "input_received",
            EventKind::PaceAdjustment { .. } => "pace_adjustment",
            EventKind::RttSample { .. } => "rtt_sample",
            EventKind::PeerJoined { .. } => "peer_joined",
            EventKind::SnapshotServed { .. } => "snapshot_served",
            EventKind::SnapshotLoaded { .. } => "snapshot_loaded",
            EventKind::PacketDropped { .. } => "packet_dropped",
            EventKind::PacketDuplicated { .. } => "packet_duplicated",
            EventKind::DesyncDetected { .. } => "desync_detected",
            EventKind::CheckpointSaved { .. } => "checkpoint_saved",
            EventKind::InputMispredicted { .. } => "input_mispredicted",
            EventKind::RollbackExecuted { .. } => "rollback_executed",
            EventKind::Span { .. } => "span",
            EventKind::RelayRegistered { .. } => "relay_registered",
            EventKind::RelayEvicted { .. } => "relay_evicted",
        }
    }
}

/// One flight-recorder entry: an [`EventKind`] stamped with the
/// (virtual or wall-clock) time it happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Appends this event as one JSON object (no trailing newline) to `out`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t_us\":{},\"event\":\"{}\"",
            self.at.as_micros(),
            self.kind.name()
        );
        match self.kind {
            EventKind::FrameBegun { frame } => {
                let _ = write!(out, ",\"frame\":{frame}");
            }
            EventKind::FrameExecuted { frame, frame_time } => {
                let _ = write!(
                    out,
                    ",\"frame\":{frame},\"frame_time_us\":{}",
                    frame_time.as_micros()
                );
            }
            EventKind::StallBegin { frame } => {
                let _ = write!(out, ",\"frame\":{frame}");
            }
            EventKind::StallEnd { frame, duration } => {
                let _ = write!(
                    out,
                    ",\"frame\":{frame},\"duration_us\":{}",
                    duration.as_micros()
                );
            }
            EventKind::InputSent {
                to,
                first,
                count,
                retransmitted,
            } => {
                let _ = write!(
                    out,
                    ",\"to\":{to},\"first\":{first},\"count\":{count},\"retransmitted\":{retransmitted}"
                );
            }
            EventKind::InputReceived {
                from,
                first,
                count,
                fresh,
                duplicate,
            } => {
                let _ = write!(
                    out,
                    ",\"from\":{from},\"first\":{first},\"count\":{count},\"fresh\":{fresh},\"duplicate\":{duplicate}"
                );
            }
            EventKind::PaceAdjustment { delta } => {
                let _ = write!(out, ",\"delta_us\":{}", delta.as_micros());
            }
            EventKind::RttSample { rtt } => {
                let _ = write!(out, ",\"rtt_us\":{}", rtt.as_micros());
            }
            EventKind::PeerJoined { site } => {
                let _ = write!(out, ",\"site\":{site}");
            }
            EventKind::SnapshotServed { frame, bytes }
            | EventKind::SnapshotLoaded { frame, bytes } => {
                let _ = write!(out, ",\"frame\":{frame},\"bytes\":{bytes}");
            }
            EventKind::PacketDropped { from, to, overflow } => {
                let _ = write!(out, ",\"from\":{from},\"to\":{to},\"overflow\":{overflow}");
            }
            EventKind::PacketDuplicated { from, to } => {
                let _ = write!(out, ",\"from\":{from},\"to\":{to}");
            }
            EventKind::DesyncDetected { frame } => {
                let _ = write!(out, ",\"frame\":{frame}");
            }
            EventKind::CheckpointSaved { frame, bytes } => {
                let _ = write!(out, ",\"frame\":{frame},\"bytes\":{bytes}");
            }
            EventKind::InputMispredicted { frame, site } => {
                let _ = write!(out, ",\"frame\":{frame},\"site\":{site}");
            }
            EventKind::RollbackExecuted {
                to_frame,
                depth,
                resimulated,
            } => {
                let _ = write!(
                    out,
                    ",\"to_frame\":{to_frame},\"depth\":{depth},\"resimulated\":{resimulated}"
                );
            }
            EventKind::Span { stage, frame, peer } => {
                let _ = write!(
                    out,
                    ",\"stage\":\"{}\",\"frame\":{frame},\"peer\":{peer}",
                    stage.name()
                );
            }
            EventKind::RelayRegistered {
                session,
                site,
                spectator,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"site\":{site},\"spectator\":{spectator}"
                );
            }
            EventKind::RelayEvicted { session, site } => {
                let _ = write!(out, ",\"session\":{session},\"site\":{site}");
            }
        }
        out.push('}');
    }

    /// This event as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_json(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_timestamp_name_and_payload() {
        let e = Event {
            at: SimTime::from_millis(42),
            kind: EventKind::StallEnd {
                frame: 7,
                duration: SimDuration::from_micros(1500),
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"t_us\":42000,\"event\":\"stall_end\",\"frame\":7,\"duration_us\":1500}"
        );
    }

    #[test]
    fn every_kind_serializes_with_its_name() {
        let kinds = [
            EventKind::FrameBegun { frame: 1 },
            EventKind::FrameExecuted {
                frame: 1,
                frame_time: SimDuration::from_micros(2),
            },
            EventKind::StallBegin { frame: 1 },
            EventKind::StallEnd {
                frame: 1,
                duration: SimDuration::from_micros(2),
            },
            EventKind::InputSent {
                to: 1,
                first: 2,
                count: 3,
                retransmitted: 1,
            },
            EventKind::InputReceived {
                from: 1,
                first: 2,
                count: 3,
                fresh: 2,
                duplicate: false,
            },
            EventKind::PaceAdjustment {
                delta: SimDelta::from_micros(-5),
            },
            EventKind::RttSample {
                rtt: SimDuration::from_micros(9),
            },
            EventKind::PeerJoined { site: 1 },
            EventKind::SnapshotServed {
                frame: 4,
                bytes: 100,
            },
            EventKind::SnapshotLoaded {
                frame: 4,
                bytes: 100,
            },
            EventKind::PacketDropped {
                from: 0,
                to: 1,
                overflow: false,
            },
            EventKind::PacketDuplicated { from: 0, to: 1 },
            EventKind::DesyncDetected { frame: 9 },
            EventKind::CheckpointSaved {
                frame: 30,
                bytes: 256,
            },
            EventKind::InputMispredicted { frame: 31, site: 1 },
            EventKind::RollbackExecuted {
                to_frame: 31,
                depth: 4,
                resimulated: 6,
            },
            EventKind::Span {
                stage: SpanStage::Received,
                frame: 31,
                peer: 1,
            },
            EventKind::RelayRegistered {
                session: 7,
                site: 1,
                spectator: true,
            },
            EventKind::RelayEvicted {
                session: 7,
                site: 1,
            },
        ];
        for kind in kinds {
            let e = Event {
                at: SimTime::ZERO,
                kind,
            };
            let json = e.to_json();
            assert!(json.starts_with("{\"t_us\":0,\"event\":\""), "{json}");
            assert!(json.contains(kind.name()), "{json}");
            assert!(json.ends_with('}'), "{json}");
        }
    }
}
