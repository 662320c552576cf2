//! Algorithm 2 of the paper: `SyncInput`, the logical-consistency engine.
//!
//! The engine is *sans-io*: it never touches a socket or a clock. The
//! driver feeds it timestamps, local inputs, and received messages; it hands
//! back messages to transmit and, once the exit condition holds, the merged
//! input for the next frame. The same code therefore runs under the
//! deterministic simulator and the real-time UDP runner.
//!
//! Correspondence to the paper's pseudocode:
//!
//! * lines 1–5 (buffer the local partial input with `BufFrame` lag) →
//!   [`InputSync::begin_frame`],
//! * lines 7–11 (send `sd` if new info exists) → [`InputSync::outgoing`],
//! * lines 12–20 (receive `rc`, update `IBuf`, `LastRcvFrame`,
//!   `LastAckFrame`) → [`InputSync::on_message`],
//! * line 21's exit condition → [`InputSync::ready`],
//! * lines 22–23 (deliver `IBuf[IBufPointer++]`) → [`InputSync::take`].
//!
//! Extensions beyond the two-site ICDCS algorithm (flagged in DESIGN.md):
//! full-mesh N-site sessions and input-less observer sites, both from the
//! journal version's feature list.

use std::collections::BTreeMap;

use coplay_clock::SimTime;
use coplay_telemetry::{EventKind, SpanStage};
use coplay_vm::InputWord;

use crate::config::SyncConfig;
use crate::input_buffer::InputBuffer;
use crate::wire::InputMsg;

/// Site number used by observers (they own no input bits and nobody waits
/// for them).
pub const OBSERVER_SITE: u8 = 0xFE;

/// Frames of input history every site retains past full acknowledgement,
/// so latecomers can be served without unbounded memory (extension; the
/// ICDCS algorithm assumes an unlimited buffer).
pub const RETAIN_FRAMES: u64 = 128;

/// What the slave knows about the master's progress, for Algorithm 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterObservation {
    /// The master's `LastRcvFrame[0]` as seen by this site (this counts the
    /// local lag: the master buffered its input for this lagged frame).
    pub master_lagged_frame: u64,
    /// When the message that last advanced it arrived (`MasterRcvTime`).
    pub rcv_time: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct PeerState {
    /// `LastRcvFrame[p]`: partial inputs from `p` received contiguously up
    /// to this frame. Only meaningful for player peers.
    last_rcv: u64,
    /// `LastAckFrame[p]`: the last of *our* partials `p` has acknowledged.
    last_ack: u64,
    /// Highest local frame ever transmitted to `p`: the send high-water
    /// mark. Frames above it are fresh; frames at or below it in a later
    /// message are retransmissions. [`InputSync::outgoing`] lets only
    /// fresh frames through the send interval (when the local lag is
    /// shorter than it), and the telemetry span chain starts above it.
    last_sent: u64,
    /// We owe `p` a fresh ack (we received something since our last send).
    need_ack: bool,
}

/// What [`InputSync::on_message`] learned from one incoming message
/// (telemetry/statistics; callers that only care about protocol state can
/// ignore it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecvOutcome {
    /// Payload frames the message carried.
    pub carried: u32,
    /// How many of those frames were new to this site.
    pub fresh: u32,
    /// `true` if the message carried payload but not a single new frame —
    /// a pure duplicate (retransmission overlap or network duplication).
    pub duplicate: bool,
}

/// The logical-consistency engine (Algorithm 2), generalized to N sites
/// plus observers.
///
/// # Examples
///
/// Two engines wired back-to-back converge on every frame's input:
///
/// ```
/// use coplay_clock::SimTime;
/// use coplay_sync::{InputSync, SyncConfig};
/// use coplay_vm::InputWord;
///
/// let mut a = InputSync::new(SyncConfig::two_player(0));
/// let mut b = InputSync::new(SyncConfig::two_player(1));
///
/// for frame in 0..10 {
///     let now = SimTime::from_millis(frame * 25); // one frame per call
///     a.begin_frame(frame, InputWord(0x01), now);
///     b.begin_frame(frame, InputWord(0x0200), now);
///     for (_, m) in a.outgoing(now) { b.on_message(&m, now); }
///     for (_, m) in b.outgoing(now) { a.on_message(&m, now); }
///     assert!(a.ready() && b.ready());
///     assert_eq!(a.take(), b.take());
/// }
/// ```
#[derive(Debug)]
pub struct InputSync {
    cfg: SyncConfig,
    buf: InputBuffer,
    /// The paper's `IBufPointer`.
    pointer: u64,
    /// `LastRcvFrame[MySiteNo]`: highest local frame buffered.
    my_last_buffered: u64,
    peers: BTreeMap<u8, PeerState>,
    next_send: SimTime,
    master_rcv_time: Option<SimTime>,
}

impl InputSync {
    /// Creates the engine for one site of a session starting at frame 0.
    pub fn new(cfg: SyncConfig) -> InputSync {
        InputSync::new_at(cfg, 0)
    }

    /// Creates the engine positioned at `start_frame` (latecomer join: the
    /// machine state was obtained from a snapshot taken at that frame).
    pub fn new_at(cfg: SyncConfig, start_frame: u64) -> InputSync {
        let init = if start_frame == 0 {
            cfg.buf_frames.saturating_sub(1)
        } else {
            start_frame - 1
        };
        let peers = cfg
            .peers()
            .map(|p| {
                (
                    p,
                    PeerState {
                        last_rcv: init,
                        last_ack: init,
                        last_sent: init,
                        need_ack: false,
                    },
                )
            })
            .collect();
        let mut buf = InputBuffer::new(cfg.num_sites);
        buf.prune_below(start_frame);
        InputSync {
            buf,
            pointer: start_frame,
            my_last_buffered: init,
            peers,
            next_send: SimTime::ZERO,
            master_rcv_time: None,
            cfg,
        }
    }

    /// Registers an additional destination (an observer, or a late-joining
    /// player already counted in `num_sites`) whose retransmission state
    /// starts at `joined_frame`.
    pub fn add_peer(&mut self, site: u8, joined_frame: u64) {
        let init = joined_frame.max(1) - 1;
        self.peers.entry(site).or_insert(PeerState {
            last_rcv: init,
            last_ack: init,
            last_sent: init,
            need_ack: false,
        });
    }

    /// Removes a destination (an observer that left).
    pub fn remove_peer(&mut self, site: u8) {
        self.peers.remove(&site);
    }

    /// `true` if this site contributes input bits.
    pub fn is_player(&self) -> bool {
        self.cfg.my_site < self.cfg.num_sites
    }

    /// The paper's `IBufPointer`: the next frame to be delivered.
    pub fn pointer(&self) -> u64 {
        self.pointer
    }

    /// `LastRcvFrame[site]` for a player peer (test/metrics hook).
    pub fn last_rcv(&self, site: u8) -> Option<u64> {
        self.peers.get(&site).map(|p| p.last_rcv)
    }

    /// `LastAckFrame[site]` (test/metrics hook).
    pub fn last_ack(&self, site: u8) -> Option<u64> {
        self.peers.get(&site).map(|p| p.last_ack)
    }

    /// Lines 1–5: buffer the local partial input for `frame + BufFrame`.
    ///
    /// Call exactly once per frame, before polling. `now` stamps the
    /// `Sampled` trace span.
    pub fn begin_frame(&mut self, frame: u64, local: InputWord, now: SimTime) {
        debug_assert_eq!(frame, self.pointer, "one begin_frame per frame");
        if self.is_player() {
            let lag_f = frame + self.cfg.buf_frames;
            if self.my_last_buffered < lag_f {
                let partial = self.cfg.port_map.partial_input(self.cfg.my_site, local);
                self.buf.set_partial(lag_f, self.cfg.my_site, partial);
                self.my_last_buffered = lag_f;
                self.cfg
                    .telemetry
                    .span(now, SpanStage::Sampled, lag_f, self.cfg.my_site);
            }
        }
    }

    /// Line 21's exit condition: every player peer's partial input for the
    /// current frame has arrived, i.e. the pointer is within the
    /// authoritative frontier (the session's window test with a window of
    /// 0).
    pub fn ready(&self) -> bool {
        self.pointer <= self.authoritative_frontier()
    }

    /// Lines 22–23: deliver `IBuf[IBufPointer]` and advance the pointer.
    ///
    /// # Panics
    ///
    /// Panics if called while [`InputSync::ready`] is false — delivering an
    /// incomplete frame would violate logical consistency.
    pub fn take(&mut self) -> InputWord {
        assert!(self.ready(), "SyncInput exit condition not met");
        let word = self.buf.merged(self.pointer, &self.cfg.port_map);
        self.advance();
        word
    }

    /// Advances the pointer past the current frame *without* requiring the
    /// exit condition — the speculative half of `take`, used by the
    /// session driver, which merges predicted inputs itself. Prunes the
    /// buffer exactly as `take` does (the prune floor already accounts for
    /// unacked and unreceived frames, so speculation never drops state a
    /// later rollback needs).
    pub fn advance(&mut self) {
        self.pointer += 1;
        // Frames both delivered and universally acked can be dropped —
        // except for a bounded retention window kept for latecomer joins.
        let min_needed = self
            .peers
            .values()
            .map(|p| p.last_ack + 1)
            .min()
            .unwrap_or(self.pointer)
            .min(self.pointer);
        let retain_floor = self.pointer.saturating_sub(RETAIN_FRAMES);
        self.buf.prune_below(min_needed.min(retain_floor));
    }

    /// The confirmed-input frontier: the highest frame for which *every*
    /// player peer's partial input has arrived. Frames at or below it are
    /// authoritative; frames above it need prediction to execute.
    pub fn authoritative_frontier(&self) -> u64 {
        self.peers
            .iter()
            .filter(|(&site, _)| site < self.cfg.num_sites)
            .map(|(_, p)| p.last_rcv)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// `true` if `site`'s partial input for `frame` has arrived (or was
    /// buffered locally).
    pub fn has_authoritative(&self, frame: u64, site: u8) -> bool {
        self.buf.has(frame, site)
    }

    /// `site`'s buffered partial input for `frame` (empty when absent —
    /// check [`InputSync::has_authoritative`] to distinguish).
    pub fn authoritative_partial(&self, frame: u64, site: u8) -> InputWord {
        self.buf.partial(frame, site)
    }

    /// Merges the buffered partials for `frame` under the port map,
    /// treating absent sites as no input (a speculating session
    /// substitutes predictions for those before calling).
    pub fn merged_input(&self, frame: u64) -> InputWord {
        self.buf.merged(frame, &self.cfg.port_map)
    }

    /// Lines 7–11: the messages to transmit now, if the send pacing allows
    /// and new information exists. Returns `(destination, message)` pairs.
    ///
    /// The paper sends at most one message per `send_interval`, and its
    /// §4.2 budget charges that batching (10 ms average, 20 ms worst case)
    /// against the local lag. When the lag is shorter than the interval
    /// nothing hides the batch, so a player sends each local frame in the
    /// tick that buffered it: inside the interval, a message goes to a
    /// peer only if it carries a frame above that peer's send high-water
    /// mark. Retransmissions and pure acks keep the paced cadence, and a
    /// lag that covers the interval keeps the paper's pacing unchanged.
    pub fn outgoing(&mut self, now: SimTime) -> Vec<(u8, InputMsg)> {
        let paced = now >= self.next_send;
        let may_send = paced || (self.is_player() && self.cfg.local_lag() < self.cfg.send_interval);
        if !may_send {
            // detlint: allow(hot_alloc) -- empty Vec::new() does not touch the heap
            return Vec::new();
        }
        // detlint: allow(hot_alloc) -- non-empty only on sends, at most one per frame or interval
        let mut out = Vec::new();
        let my_site = self.cfg.my_site;
        let my_last = self.my_last_buffered;
        let max_frames = self.cfg.max_payload_frames;
        // Collect (site, ack, first..=last) first; building payloads needs &self.buf.
        let plans: Vec<(u8, u64, u64, u64)> = self
            .peers
            .iter()
            .filter_map(|(&site, p)| {
                let first = p.last_ack + 1;
                let has_inputs = self.is_player() && my_last >= first;
                if !has_inputs && !p.need_ack {
                    return None;
                }
                let ack = if site < self.cfg.num_sites {
                    p.last_rcv
                } else {
                    // Observers send nothing; ack what we've delivered.
                    self.pointer.max(1) - 1
                };
                let last = if has_inputs {
                    my_last.min(first + max_frames as u64 - 1)
                } else {
                    first - 1 // empty payload (pure ack)
                };
                if !paced && (!has_inputs || last <= p.last_sent) {
                    return None; // nothing fresh: wait for the interval
                }
                Some((site, ack, first, last))
            })
            .collect();
        for (site, ack, first, last) in plans {
            let inputs = if last >= first {
                self.buf.partial_range(my_site, first..=last)
            } else {
                // detlint: allow(hot_alloc) -- empty Vec::new() does not touch the heap
                Vec::new()
            };
            let count = inputs.len() as u32;
            out.push((
                site,
                InputMsg {
                    from: my_site,
                    ack,
                    first,
                    inputs,
                },
            ));
            let mut retransmitted = 0u32;
            if let Some(p) = self.peers.get_mut(&site) {
                p.need_ack = false;
                if last >= first {
                    if p.last_sent >= first {
                        retransmitted = (p.last_sent.min(last) - first + 1) as u32;
                    }
                    // Span chain: frames past the previous send high-water
                    // mark leave this site for the first time. Retransmits
                    // get no span — the chain tracks first transmission.
                    if self.cfg.telemetry.is_tracing() {
                        for f in p.last_sent.max(first - 1) + 1..=last {
                            self.cfg.telemetry.span(now, SpanStage::Encoded, f, site);
                            self.cfg.telemetry.span(now, SpanStage::Sent, f, site);
                        }
                    }
                    p.last_sent = p.last_sent.max(last);
                }
            }
            self.cfg.telemetry.record(
                now,
                EventKind::InputSent {
                    to: site,
                    first,
                    count,
                    retransmitted,
                },
            );
        }
        if !out.is_empty() {
            self.next_send = now + self.cfg.send_interval;
        }
        out
    }

    /// Lines 12–20: integrate a received message.
    ///
    /// The returned [`RecvOutcome`] summarizes what the message contributed
    /// (for telemetry/statistics); it is all-zero for messages from unknown
    /// senders, from this site itself, or rejected as below.
    ///
    /// A player's payload must start no later than `LastRcvFrame + 1`: an
    /// honest sender starts at our last ack it saw plus one, and our acks
    /// never pass `LastRcvFrame`. A message starting further out is dropped
    /// and its frames are counted (`input_rejected_total`). Accepting it
    /// would declare every frame in the gap authoritative "no input" — a
    /// silent desync — and grow the buffer to a sender-chosen frame number.
    ///
    /// Frames past [`InputSync::pointer`] plus the horizon (local lag +
    /// speculation window + one send batch, `max_payload_frames`) are
    /// clipped and counted the same way, so contiguous input cannot grow
    /// the buffer either. An honest player never gets that far ahead: it
    /// cannot execute past our inputs plus its window, and buffers its own
    /// input one local lag further. Clipped frames are not acknowledged,
    /// so the sender retransmits them once the pointer has moved on.
    ///
    /// The same horizon bounds a player's ack from below. A player that
    /// buffered its input up to `LastRcvFrame` has executed past
    /// `LastRcvFrame − horizon`, which needed our input up to there, so an
    /// honest ack is never lower; without the floor, a peer that sends
    /// input but never acks would keep our input buffered, and resent,
    /// without bound. On a player site an ack is also bounded from above by
    /// the highest frame we sent that peer: acking a frame never sent is
    /// bogus and would overflow the next message's first frame. An ack moved
    /// into those bounds is counted (`input_ack_clamped_total`).
    pub fn on_message(&mut self, msg: &InputMsg, now: SimTime) -> RecvOutcome {
        let from = msg.from;
        if from == self.cfg.my_site {
            return RecvOutcome::default();
        }
        let horizon = self.horizon();
        let cap = self.pointer.saturating_add(horizon);
        let Some(peer) = self.peers.get_mut(&from) else {
            return RecvOutcome::default(); // unknown sender: drop, as with any open UDP port
        };
        let gap = msg.first > peer.last_rcv.saturating_add(1);
        if from < self.cfg.num_sites && !msg.inputs.is_empty() && gap {
            self.cfg
                .telemetry
                .counter_add("input_rejected_total", msg.inputs.len() as u64);
            return RecvOutcome::default();
        }
        let carried = msg.inputs.len() as u32;
        // Owe an ack only for messages that carried inputs: duplicates still
        // refresh the ack (the previous one may have been lost), while pure
        // acks never trigger responses (no ack ping-pong).
        if !msg.inputs.is_empty() {
            peer.need_ack = true;
        }

        // Line 13: fill IBuf with the received remote partials (duplicates
        // are ignored inside the buffer).
        let mut fresh = 0u32;
        let mut clipped = 0u64;
        if from < self.cfg.num_sites && !msg.inputs.is_empty() {
            // Clip at the horizon (see above): `last` is the message's last
            // accepted frame, `first - 1` when none is.
            let last = msg.last().min(cap.max(msg.first.saturating_sub(1)));
            clipped = msg.last() - last;
            if clipped > 0 {
                self.cfg
                    .telemetry
                    .counter_add("input_rejected_total", clipped);
            }
            let accepted = msg.inputs.len() - clipped as usize;
            for (i, &w) in msg.inputs.iter().take(accepted).enumerate() {
                self.buf.set_partial(msg.first + i as u64, from, w);
            }
            // Lines 14–16: advance LastRcvFrame[from]. Contiguity holds
            // because msg.first <= last_rcv + 1 (checked above).
            if last > peer.last_rcv {
                fresh = (last - peer.last_rcv).min(carried as u64) as u32;
                // Span chain: only the frames this message is the first to
                // deliver count as received (contiguity guarantees the
                // range starts within the message).
                if self.cfg.telemetry.is_tracing() {
                    for f in peer.last_rcv + 1..=last {
                        self.cfg.telemetry.span(now, SpanStage::Received, f, from);
                    }
                }
                peer.last_rcv = last;
                if from == 0 && self.cfg.my_site != 0 {
                    self.master_rcv_time = Some(now);
                }
            }
        }

        // Lines 17–19: advance LastAckFrame[from], with the ack kept
        // between a player's floor and what we sent (see above).
        let floor = if from < self.cfg.num_sites {
            peer.last_rcv.saturating_sub(horizon)
        } else {
            0
        };
        let ceiling = if self.cfg.my_site < self.cfg.num_sites {
            peer.last_sent
        } else {
            u64::MAX // an observer sends nothing; acks only drive pruning
        };
        if msg.ack > ceiling || (msg.ack < floor && peer.last_ack < floor) {
            self.cfg.telemetry.counter_add("input_ack_clamped_total", 1);
        }
        peer.last_ack = peer.last_ack.max(msg.ack.min(ceiling)).max(floor);

        let duplicate = carried > 0 && fresh == 0 && clipped == 0;
        self.cfg.telemetry.record(
            now,
            EventKind::InputReceived {
                from,
                first: msg.first,
                count: carried,
                fresh,
                duplicate,
            },
        );
        RecvOutcome {
            carried,
            fresh,
            duplicate,
        }
    }

    /// How far past the pointer a player peer's input is buffered: local
    /// lag + speculation window + one send batch (see
    /// [`InputSync::on_message`]).
    fn horizon(&self) -> u64 {
        self.cfg.buf_frames + self.cfg.consistency.window() + self.cfg.max_payload_frames as u64
    }

    /// What Algorithm 4 needs from the protocol state: the master's latest
    /// known lagged frame and when we learned it. `None` on the master or
    /// before any master message arrived.
    pub fn master_observation(&self) -> Option<MasterObservation> {
        if self.cfg.my_site == 0 {
            return None;
        }
        let rcv_time = self.master_rcv_time?;
        Some(MasterObservation {
            master_lagged_frame: self.peers.get(&0)?.last_rcv,
            rcv_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_clock::SimDuration;
    use coplay_vm::{Button, Player};

    fn now() -> SimTime {
        SimTime::ZERO
    }

    fn pair() -> (InputSync, InputSync) {
        (
            InputSync::new(SyncConfig::two_player(0)),
            InputSync::new(SyncConfig::two_player(1)),
        )
    }

    /// Drives both engines one frame with instant, lossless delivery.
    fn lockstep_frame(
        a: &mut InputSync,
        b: &mut InputSync,
        f: u64,
        ia: InputWord,
        ib: InputWord,
    ) -> (InputWord, InputWord) {
        let t = SimTime::from_millis(f * 25); // > send_interval so pacing never blocks
        a.begin_frame(f, ia, t);
        b.begin_frame(f, ib, t);
        for (_, m) in a.outgoing(t) {
            b.on_message(&m, t);
        }
        for (_, m) in b.outgoing(t) {
            a.on_message(&m, t);
        }
        assert!(a.ready() && b.ready(), "frame {f} not ready");
        (a.take(), b.take())
    }

    #[test]
    fn first_buf_frames_deliver_empty_inputs() {
        let (mut a, mut b) = pair();
        for f in 0..6 {
            let (wa, wb) = lockstep_frame(&mut a, &mut b, f, InputWord(0xFF), InputWord(0xFF00));
            assert_eq!(wa, InputWord::NONE, "frame {f} must be empty (local lag)");
            assert_eq!(wb, InputWord::NONE);
        }
    }

    #[test]
    fn inputs_appear_after_local_lag() {
        let (mut a, mut b) = pair();
        let mut ia = InputWord::NONE;
        ia.press(Player::ONE, Button::A);
        // Frame 0's inputs must surface exactly at frame 6.
        for f in 0..6 {
            let (wa, _) = lockstep_frame(&mut a, &mut b, f, ia, InputWord::NONE);
            assert_eq!(wa, InputWord::NONE);
        }
        let (wa, wb) = lockstep_frame(&mut a, &mut b, 6, ia, InputWord::NONE);
        assert!(wa.is_pressed(Player::ONE, Button::A));
        assert_eq!(wa, wb, "both sites deliver the identical merged word");
    }

    #[test]
    fn sites_see_identical_input_sequences() {
        let (mut a, mut b) = pair();
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for f in 0..100 {
            let ia = InputWord((f as u32).wrapping_mul(0x9E37_79B9) & 0xFF);
            let ib = InputWord(((f as u32).wrapping_mul(0x85EB_CA6B) & 0xFF) << 8);
            let (wa, wb) = lockstep_frame(&mut a, &mut b, f, ia, ib);
            seq_a.push(wa);
            seq_b.push(wb);
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn foreign_bits_in_local_input_are_stripped() {
        let (mut a, mut b) = pair();
        // Site 0 claims P2 buttons: they must not survive the merge.
        let mut dirty = InputWord::NONE;
        dirty.press(Player::TWO, Button::A);
        for f in 0..10 {
            let (wa, _) = lockstep_frame(&mut a, &mut b, f, dirty, InputWord::NONE);
            assert_eq!(wa, InputWord::NONE, "frame {f}");
        }
    }

    /// Advances both engines through the trivially-ready lag window
    /// *without any message exchange*, so tests control delivery precisely.
    fn warmup_isolated(a: &mut InputSync, b: &mut InputSync) {
        for f in 0..6 {
            let t = SimTime::from_millis(f * 25);
            a.begin_frame(f, InputWord::NONE, t);
            b.begin_frame(f, InputWord::NONE, t);
            let _ = a.take();
            let _ = b.take();
        }
    }

    #[test]
    fn not_ready_until_remote_arrives() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        let t = SimTime::from_secs(10);
        a.begin_frame(6, InputWord(1), t);
        assert!(!a.ready(), "remote partial for frame 6 not yet received");
        b.begin_frame(6, InputWord(0x0100), t);
        for (_, m) in b.outgoing(t) {
            a.on_message(&m, t);
        }
        assert!(a.ready());
    }

    #[test]
    #[should_panic(expected = "exit condition")]
    fn take_before_ready_panics() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        a.begin_frame(6, InputWord(1), now());
        let _ = a.take();
    }

    #[test]
    fn lost_messages_are_retransmitted() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        // Frame 6: b's message to a is "lost" (never delivered).
        let t1 = SimTime::from_secs(1);
        a.begin_frame(6, InputWord(1), t1);
        b.begin_frame(6, InputWord(0x0100), t1);
        let _lost = b.outgoing(t1);
        for (_, m) in a.outgoing(t1) {
            b.on_message(&m, t1);
        }
        assert!(!a.ready());
        assert!(b.ready());

        // After the send interval, b retransmits everything unacked.
        let t2 = t1 + SimDuration::from_millis(25);
        let again = b.outgoing(t2);
        assert!(!again.is_empty(), "unacked inputs must be retransmitted");
        for (_, m) in again {
            a.on_message(&m, t2);
        }
        assert!(a.ready());
        assert_eq!(a.last_rcv(1), Some(12), "b's buffered range arrived");
        // Frame 6's merged word is empty: the inputs pressed *at* frame 6
        // surface at frame 12 (local lag).
        assert_eq!(a.take(), InputWord::NONE);
    }

    #[test]
    fn duplicate_messages_are_harmless() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        let t = SimTime::from_secs(2);
        a.begin_frame(6, InputWord(1), t);
        b.begin_frame(6, InputWord(0x0100), t);
        let msgs = b.outgoing(t);
        for (_, m) in &msgs {
            a.on_message(m, t);
            a.on_message(m, t); // duplicate
            a.on_message(m, t); // triplicate
        }
        assert!(a.ready());
        assert_eq!(a.last_rcv(1), Some(12));
        // b's frame-6 press lives at lagged frame 12: frames 6..=11 merge
        // empty, then 12 carries exactly one copy of each side's press.
        for f in 6..12 {
            assert_eq!(a.take(), InputWord::NONE, "frame {f}");
        }
        assert_eq!(a.take(), InputWord(0x0101));
    }

    #[test]
    fn reordered_messages_preserve_contiguity() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        // a transmits once so b can execute ahead; b's replies are stashed
        // and delivered to a in reverse order later.
        let t0 = SimTime::from_secs(1);
        a.begin_frame(6, InputWord(1), t0);
        for (_, m) in a.outgoing(t0) {
            b.on_message(&m, t0); // b now holds a's partials 6..=12
        }
        let mut stash = Vec::new();
        for f in 6..9u64 {
            let t = t0 + SimDuration::from_millis((f - 5) * 25);
            b.begin_frame(f, InputWord(((f as u32) & 0xFF) << 8), t);
            stash.extend(b.outgoing(t).into_iter().map(|(_, m)| m));
            let _ = b.take();
        }
        // Deliver b's messages to a newest-first.
        let t = SimTime::from_secs(60);
        for m in stash.iter().rev() {
            a.on_message(m, t);
        }
        // b buffered lag frames up to 8 + 6 = 14; all arrived contiguously.
        assert_eq!(a.last_rcv(1), Some(14));
        for f in 6..=14u64 {
            assert!(a.buf.has(f, 1), "frame {f} present despite reordering");
        }
        assert!(a.ready());
    }

    #[test]
    fn send_pacing_limits_message_rate() {
        let (mut a, _) = pair();
        let t0 = SimTime::from_secs(5);
        a.begin_frame(0, InputWord(1), t0);
        assert!(!a.outgoing(t0).is_empty());
        let _ = a.take(); // frame 0 is trivially ready
                          // Within the 20ms window: silence, even with new frames buffered.
        let t1 = t0 + SimDuration::from_millis(10);
        a.begin_frame(1, InputWord(1), t1);
        assert!(a.outgoing(t1).is_empty(), "paced out");
        let t2 = t0 + SimDuration::from_millis(20);
        assert!(!a.outgoing(t2).is_empty());
    }

    /// `SyncConfig::two_player(site)` with a `buf`-frame local lag.
    fn lagged(site: u8, buf: u64) -> InputSync {
        let mut cfg = SyncConfig::two_player(site);
        cfg.buf_frames = buf;
        InputSync::new(cfg)
    }

    #[test]
    fn a_lag_shorter_than_the_send_interval_sends_each_fresh_frame() {
        // Frames 16.7 ms apart: a 1-frame lag (16.7 ms < 20 ms) sends the
        // second frame at once; a 2-frame lag (33 ms) holds it for the
        // interval, as the paper's pacing does.
        let tpf = SyncConfig::two_player(0).time_per_frame();
        for (buf, sent_at_once) in [(1, true), (2, false)] {
            let mut a = lagged(0, buf);
            let t0 = SimTime::from_secs(5);
            a.begin_frame(0, InputWord(1), t0);
            let first = a.outgoing(t0);
            assert_eq!(first.len(), 1, "lag {buf}");
            assert_eq!(first[0].1.last(), buf, "lag {buf}: carries frame 0 + lag");
            let _ = a.take(); // frame 0 is trivially ready
            let t1 = t0 + tpf;
            a.begin_frame(1, InputWord(1), t1);
            let second = a.outgoing(t1);
            if sent_at_once {
                assert_eq!(second.len(), 1, "lag {buf}");
                assert_eq!(second[0].1.last(), 1 + buf, "lag {buf}: the new frame");
            } else {
                assert!(second.is_empty(), "lag {buf}: paced out");
                let t2 = t0 + SimDuration::from_millis(20);
                assert_eq!(a.outgoing(t2)[0].1.last(), 1 + buf, "lag {buf}");
            }
        }
    }

    #[test]
    fn without_a_fresh_frame_an_owed_ack_waits_for_the_interval() {
        let (mut a, mut b) = (lagged(0, 1), lagged(1, 1));
        let t0 = SimTime::from_secs(5);
        a.begin_frame(0, InputWord(1), t0);
        b.begin_frame(0, InputWord(0x0100), t0);
        assert!(!a.outgoing(t0).is_empty());
        // b's input arrives 5 ms later: a owes an ack but has nothing new.
        let t1 = t0 + SimDuration::from_millis(5);
        for (_, m) in b.outgoing(t0) {
            a.on_message(&m, t1);
        }
        assert!(
            a.outgoing(t1).is_empty(),
            "ack and retransmission are paced"
        );
        let t2 = t0 + SimDuration::from_millis(20);
        let paced = a.outgoing(t2);
        assert_eq!(paced.len(), 1);
        assert_eq!(paced[0].1.ack, 1, "the owed ack goes out at the interval");
    }

    #[test]
    fn quiescence_reaches_silence_without_ack_ping_pong() {
        let (mut a, mut b) = pair();
        for f in 0..6 {
            lockstep_frame(&mut a, &mut b, f, InputWord::NONE, InputWord::NONE);
        }
        // Let any pending ack flushes drain, delivering everything.
        let mut t = SimTime::from_secs(30);
        let mut total = 0;
        for _ in 0..10 {
            let msgs_a = a.outgoing(t);
            let msgs_b = b.outgoing(t);
            total += msgs_a.len() + msgs_b.len();
            for (_, m) in msgs_a {
                b.on_message(&m, t);
            }
            for (_, m) in msgs_b {
                a.on_message(&m, t);
            }
            t += SimDuration::from_millis(25);
        }
        assert!(total <= 4, "ack traffic must die out, saw {total} messages");
        assert!(a.outgoing(t).is_empty());
        assert!(b.outgoing(t + SimDuration::from_millis(25)).is_empty());
    }

    #[test]
    fn master_observation_tracks_latest_master_frame() {
        let (mut a, mut b) = pair();
        assert_eq!(a.master_observation(), None, "master observes nobody");
        assert_eq!(b.master_observation(), None, "nothing heard yet");
        let t = SimTime::from_millis(123);
        a.begin_frame(0, InputWord(1), t);
        for (_, m) in a.outgoing(t) {
            b.on_message(&m, t);
        }
        let obs = b.master_observation().expect("heard the master");
        assert_eq!(obs.master_lagged_frame, 6); // frame 0 + BufFrame
        assert_eq!(obs.rcv_time, t);
    }

    #[test]
    fn three_site_session_requires_all_inputs() {
        let mut sites: Vec<InputSync> = (0..3)
            .map(|s| InputSync::new(SyncConfig::n_player(s, 3)))
            .collect();
        for f in 0..20u64 {
            let t = SimTime::from_millis(f * 25);
            for (s, sync) in sites.iter_mut().enumerate() {
                sync.begin_frame(f, InputWord((s as u32 + 1) << (8 * s)), t);
            }
            // Exchange full mesh.
            let mut msgs: Vec<(u8, u8, InputMsg)> = Vec::new();
            for sync in sites.iter_mut() {
                for (dst, m) in sync.outgoing(t) {
                    msgs.push((m.from, dst, m));
                }
            }
            for (_, dst, m) in &msgs {
                sites[*dst as usize].on_message(m, t);
            }
            let words: Vec<InputWord> = sites.iter_mut().map(|s| s.take()).collect();
            assert_eq!(words[0], words[1]);
            assert_eq!(words[1], words[2]);
            if f >= 6 {
                assert_eq!(words[0], InputWord(0x0003_0201));
            }
        }
    }

    #[test]
    fn observer_follows_without_contributing() {
        let mut a = InputSync::new(SyncConfig::two_player(0));
        let mut b = InputSync::new(SyncConfig::two_player(1));
        let mut cfg_o = SyncConfig::two_player(0);
        cfg_o.my_site = OBSERVER_SITE;
        let mut o = InputSync::new(cfg_o);
        assert!(!o.is_player());
        // Players must learn the observer exists to retransmit to it.
        a.add_peer(OBSERVER_SITE, 0);
        b.add_peer(OBSERVER_SITE, 0);

        for f in 0..20u64 {
            let t = SimTime::from_millis(f * 25);
            a.begin_frame(f, InputWord(0x11), t);
            b.begin_frame(f, InputWord(0x2200), t);
            o.begin_frame(f, InputWord(0xFFFF_FFFF), t); // ignored
            let deliver = |msgs: Vec<(u8, InputMsg)>,
                           t: SimTime,
                           a: &mut InputSync,
                           b: &mut InputSync,
                           o: &mut InputSync| {
                for (dst, m) in msgs {
                    match dst {
                        0 => a.on_message(&m, t),
                        1 => b.on_message(&m, t),
                        OBSERVER_SITE => o.on_message(&m, t),
                        _ => unreachable!(),
                    };
                }
            };
            let ma = a.outgoing(t);
            let mb = b.outgoing(t);
            let mo = o.outgoing(t);
            deliver(ma, t, &mut a, &mut b, &mut o);
            deliver(mb, t, &mut a, &mut b, &mut o);
            deliver(mo, t, &mut a, &mut b, &mut o);
            let wa = a.take();
            let wb = b.take();
            assert!(o.ready(), "observer has both players' inputs");
            let wo = o.take();
            assert_eq!(wa, wb);
            assert_eq!(wb, wo, "observer replays the identical sequence");
            if f >= 6 {
                assert_eq!(wo, InputWord(0x2211));
            }
        }
    }

    #[test]
    fn buffer_is_pruned_to_the_retention_window() {
        let (mut a, mut b) = pair();
        for f in 0..600 {
            lockstep_frame(&mut a, &mut b, f, InputWord(1), InputWord(0x0100));
        }
        // Without pruning the buffer would hold 606 frames; with it, the
        // retention window (for latecomers) plus the in-flight tail.
        assert!(
            a.buf.len() as u64 <= RETAIN_FRAMES + 16,
            "buffer should stay bounded, holds {}",
            a.buf.len()
        );
        assert!(a.buf.len() as u64 >= RETAIN_FRAMES, "retention kept");
    }

    #[test]
    fn frontier_and_advance_support_speculation() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        // Nothing has arrived from b: the frontier sits at the init value.
        assert_eq!(a.authoritative_frontier(), 5);
        let t = SimTime::from_secs(1);
        a.begin_frame(6, InputWord(1), t);
        assert!(!a.ready());
        // A speculative driver advances anyway.
        a.advance();
        assert_eq!(a.pointer(), 7);
        // b's inputs arrive late and land behind the pointer.
        b.begin_frame(6, InputWord(0x0100), t);
        for (_, m) in b.outgoing(t) {
            a.on_message(&m, t);
        }
        assert_eq!(a.authoritative_frontier(), 12, "b buffered 6..=12");
        assert!(a.has_authoritative(6, 1));
        assert!(!a.has_authoritative(13, 1));
        assert_eq!(a.authoritative_partial(12, 1), InputWord(0x0100));
        // Frame 12 now has both sites' partials: the authoritative merge.
        assert_eq!(a.merged_input(12), InputWord(0x0101));
    }

    #[test]
    fn frontier_is_min_over_player_peers() {
        let mut sites: Vec<InputSync> = (0..3)
            .map(|s| InputSync::new(SyncConfig::n_player(s, 3)))
            .collect();
        let t = SimTime::ZERO;
        for (s, sync) in sites.iter_mut().enumerate() {
            sync.begin_frame(0, InputWord(1 << (8 * s)), t);
        }
        // Deliver only site 1's message to site 0; site 2 stays silent.
        let msgs = sites[1].outgoing(t);
        for (dst, m) in msgs {
            if dst == 0 {
                sites[0].on_message(&m, t);
            }
        }
        assert_eq!(sites[0].last_rcv(1), Some(6));
        assert_eq!(sites[0].last_rcv(2), Some(5));
        assert_eq!(sites[0].authoritative_frontier(), 5);
    }

    #[test]
    fn recv_outcome_reports_fresh_and_duplicate_frames() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        let t = SimTime::from_secs(2);
        a.begin_frame(6, InputWord(1), t);
        b.begin_frame(6, InputWord(0x0100), t);
        for (_, m) in b.outgoing(t) {
            // b buffered lag frames 6..=12: seven frames, all new to a.
            let first = a.on_message(&m, t);
            assert_eq!(first.carried, 7);
            assert_eq!(first.fresh, 7);
            assert!(!first.duplicate);
            // The identical message again contributes nothing.
            let dup = a.on_message(&m, t);
            assert_eq!(dup.carried, 7);
            assert_eq!(dup.fresh, 0);
            assert!(dup.duplicate);
        }
        // A pure ack is neither fresh nor a duplicate.
        let outcome = a.on_message(
            &InputMsg {
                from: 1,
                ack: 6,
                first: 13,
                inputs: Vec::new(),
            },
            t,
        );
        assert_eq!(outcome, RecvOutcome::default());
    }

    #[test]
    fn telemetry_counts_retransmitted_frames_on_resend() {
        let mut cfg = SyncConfig::two_player(0);
        cfg.telemetry = coplay_telemetry::Telemetry::recording();
        let tel = cfg.telemetry.clone();
        let mut a = InputSync::new(cfg);
        let t1 = SimTime::from_secs(1);
        a.begin_frame(0, InputWord(1), t1);
        let _lost = a.outgoing(t1); // frame 6 (= 0 + lag) sent, never acked
        let t2 = t1 + SimDuration::from_millis(25);
        assert!(!a.outgoing(t2).is_empty(), "unacked frame retransmitted");
        let sent: Vec<(u32, u32)> = tel
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::InputSent {
                    count,
                    retransmitted,
                    ..
                } => Some((count, retransmitted)),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![(1, 0), (1, 1)]);
        assert_eq!(tel.counter("input_messages_sent_total"), 2);
        assert_eq!(tel.counter("retransmitted_frames_sent_total"), 1);
    }

    #[test]
    fn payload_cap_is_respected_and_cumulative() {
        // a's outbound messages are all lost; b's arrive. a accumulates
        // unacked local inputs and must cap each (re)transmission at the
        // configured limit, always starting from the oldest unacked frame.
        let mut cfg = SyncConfig::two_player(0);
        cfg.max_payload_frames = 4;
        let mut a = InputSync::new(cfg);
        let mut b = InputSync::new(SyncConfig::two_player(1));
        for f in 0..=6u64 {
            let t = SimTime::from_millis(f * 25);
            a.begin_frame(f, InputWord(1), t);
            b.begin_frame(f, InputWord(0x0100), t);
            for (_, m) in a.outgoing(t) {
                assert!(m.inputs.len() <= 4, "cap violated: {}", m.inputs.len());
                assert_eq!(m.first, 6, "oldest unacked first (init ack = 5)");
                // lost: never delivered to b
            }
            for (_, m) in b.outgoing(t) {
                a.on_message(&m, t);
            }
            assert!(a.ready());
            let _ = a.take();
            if b.ready() {
                let _ = b.take();
            }
        }
        // b is now blocked at frame 6; a keeps retransmitting capped,
        // cumulative batches from frame 6.
        let t = SimTime::from_secs(9);
        let msgs = a.outgoing(t);
        assert!(!msgs.is_empty());
        for (_, m) in msgs {
            assert_eq!(m.first, 6);
            assert_eq!(m.inputs.len(), 4, "window 6..=9 under the cap");
        }
    }

    #[test]
    fn far_future_input_is_dropped_and_counted() {
        let mut cfg = SyncConfig::two_player(0);
        cfg.telemetry = coplay_telemetry::Telemetry::recording();
        let telemetry = cfg.telemetry.clone();
        let mut s = InputSync::new(cfg);
        let (frontier, last_rcv, len) = (s.authoritative_frontier(), s.last_rcv(1), s.buf.len());
        let probe = InputMsg {
            from: 1,
            ack: 0,
            first: 1 << 26,
            inputs: vec![InputWord(1)],
        };
        assert_eq!(s.on_message(&probe, now()), RecvOutcome::default());
        assert_eq!(s.authoritative_frontier(), frontier);
        assert_eq!(s.last_rcv(1), last_rcv);
        assert_eq!(s.buf.len(), len, "the buffer must not grow");
        assert_eq!(telemetry.counter("input_rejected_total"), 1);
        // The next contiguous frame is still accepted.
        let next = InputMsg {
            first: last_rcv.unwrap() + 1,
            ..probe
        };
        assert_eq!(s.on_message(&next, now()).fresh, 1);
        assert_eq!(s.last_rcv(1), Some(last_rcv.unwrap() + 1));
    }

    #[test]
    fn contiguous_input_is_clipped_at_the_horizon() {
        use crate::wire::MAX_INPUTS_PER_MSG;
        let mut cfg = SyncConfig::two_player(0);
        cfg.telemetry = coplay_telemetry::Telemetry::recording();
        let telemetry = cfg.telemetry.clone();
        // Lockstep: local lag + no window + one send batch.
        let horizon = cfg.buf_frames + cfg.max_payload_frames as u64;
        let mut s = InputSync::new(cfg);
        let start = s.last_rcv(1).unwrap();
        // A peer that follows our acks never leaves a gap, so only the
        // horizon stands between it and an ever-growing buffer.
        for _ in 0..200 {
            let flood = InputMsg {
                from: 1,
                ack: 0,
                first: s.last_rcv(1).unwrap() + 1,
                inputs: vec![InputWord(0); MAX_INPUTS_PER_MSG],
            };
            s.on_message(&flood, now());
        }
        assert_eq!(s.last_rcv(1), Some(horizon));
        assert!(s.buf.len() as u64 <= horizon + 1, "{}", s.buf.len());
        let offered = 200 * MAX_INPUTS_PER_MSG as u64;
        assert_eq!(
            telemetry.counter("input_rejected_total"),
            offered - (horizon - start)
        );
        // The clipped frames were not acknowledged: once the pointer moves
        // on, their retransmission is accepted up to the new horizon.
        for f in 0..3 {
            s.begin_frame(f, InputWord(0), now());
            let _ = s.take();
        }
        let retransmit = InputMsg {
            from: 1,
            ack: 0,
            first: horizon + 1,
            inputs: vec![InputWord(0); 5],
        };
        assert_eq!(s.on_message(&retransmit, now()).fresh, 3);
        assert_eq!(s.last_rcv(1), Some(horizon + 3));
    }

    #[test]
    fn a_peer_that_never_acks_cannot_grow_the_buffer() {
        let mut cfg = SyncConfig::two_player(0);
        cfg.telemetry = coplay_telemetry::Telemetry::recording();
        let telemetry = cfg.telemetry.clone();
        let max_payload = cfg.max_payload_frames;
        let horizon = cfg.buf_frames + cfg.max_payload_frames as u64;
        let mut s = InputSync::new(cfg);
        // The peer keeps pace, one contiguous frame per frame, but always
        // acks 0; without the ack floor every frame of ours stays buffered.
        let mut floored = 0;
        for f in 0..200u64 {
            let t = SimTime::from_millis(f * 17);
            s.begin_frame(f, InputWord(1), t);
            let first = s.last_rcv(1).unwrap() + 1;
            let acked = s.last_ack(1);
            s.on_message(
                &InputMsg {
                    from: 1,
                    ack: 0,
                    first,
                    inputs: vec![InputWord(0x0100)],
                },
                t,
            );
            if s.last_ack(1) > acked {
                floored += 1; // only the floor can move an ack of 0
            }
            for (_, m) in s.outgoing(t) {
                assert!(m.inputs.len() <= max_payload, "{}", m.inputs.len());
            }
            let _ = s.take();
        }
        // The retention window plus our lag and the frame in hand.
        assert!(
            s.buf.len() as u64 <= RETAIN_FRAMES + 7,
            "buffer holds {}",
            s.buf.len()
        );
        assert_eq!(s.last_ack(1), Some(s.last_rcv(1).unwrap() - horizon));
        assert!(floored > 0);
        assert_eq!(telemetry.counter("input_ack_clamped_total"), floored);
    }

    #[test]
    fn an_ack_past_anything_sent_is_clamped_and_counted() {
        let mut cfg = SyncConfig::two_player(0);
        cfg.telemetry = coplay_telemetry::Telemetry::recording();
        let telemetry = cfg.telemetry.clone();
        let (mut a, mut b) = (
            InputSync::new(cfg),
            InputSync::new(SyncConfig::two_player(1)),
        );
        let bogus = InputMsg {
            from: 1,
            ack: u64::MAX,
            first: 6,
            inputs: Vec::new(),
        };
        a.on_message(&bogus, now());
        assert_eq!(a.last_ack(1), Some(5), "nothing was sent past frame 5");
        assert_eq!(telemetry.counter("input_ack_clamped_total"), 1);
        // The session goes on: every frame is still sent and pruned.
        for f in 0..600 {
            lockstep_frame(&mut a, &mut b, f, InputWord(1), InputWord(0x0100));
        }
        assert!(a.buf.len() as u64 <= RETAIN_FRAMES + 16, "{}", a.buf.len());
        assert_eq!(telemetry.counter("input_ack_clamped_total"), 1);
    }
}
