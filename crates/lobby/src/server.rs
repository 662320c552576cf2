//! The lobby server: a sans-io session registry.
//!
//! Hosts register sessions and heartbeat them; clients list and join.
//! Sessions expire without heartbeats, and slots are handed out
//! first-come-first-served. The server holds no per-client state beyond the
//! registry — requests are idempotent, so clients simply retransmit over
//! the unreliable transport.

use std::collections::BTreeMap;

use coplay_clock::{SimDuration, SimTime};
use coplay_net::PeerId;
use coplay_telemetry::MetricsRegistry;

use crate::wire::{JoinRefusal, LobbyMessage, SessionEntry, SessionId, MAX_LISTED};

/// A session dies this long after its last register/heartbeat.
pub const SESSION_TTL: SimDuration = SimDuration::from_secs(30);

/// Most live sessions the registry holds. A `Register` for a new session
/// past it is dropped and counted (`dropped_total`), so the host's
/// `register_session` retransmits until a slot frees up or its deadline
/// passes (`LobbyError::Timeout`).
pub const MAX_SESSIONS: usize = 256;

/// Most live sessions one host address may register, under the same rule.
pub const MAX_SESSIONS_PER_HOST: usize = 4;

#[derive(Debug)]
struct Registration {
    name: String,
    rom_hash: u64,
    slots: u8,
    host: PeerId,
    /// Peers granted slots, in join order (index+1 = site number).
    members: Vec<PeerId>,
    last_seen: SimTime,
    /// Cumulative health counters from the host's latest heartbeat
    /// (zero until one arrives, and always zero for lockstep sessions).
    rollbacks: u64,
    resimulated_frames: u64,
    max_rollback_depth: u64,
    /// Cumulative dirty-checkpoint bytes captured and bytes copied back by
    /// bitmap-guided restores, from the host's latest heartbeat.
    snapshot_bytes_saved: u64,
    snapshot_bytes_restored: u64,
    /// Flight-recorder eviction counters from the host's latest heartbeat:
    /// total telemetry events lost and the trace-span subset.
    dropped_events: u64,
    dropped_spans: u64,
}

/// The lobby registry. Feed it decoded requests; it answers with replies to
/// transmit.
///
/// # Examples
///
/// ```
/// use coplay_clock::SimTime;
/// use coplay_lobby::{LobbyMessage, LobbyServer};
/// use coplay_net::PeerId;
///
/// let mut server = LobbyServer::new();
/// let replies = server.handle(
///     PeerId(0),
///     &LobbyMessage::Register { name: "duel".into(), rom_hash: 7, slots: 2 },
///     SimTime::ZERO,
/// );
/// assert!(matches!(replies[0].1, LobbyMessage::Registered { .. }));
/// ```
#[derive(Debug, Default)]
pub struct LobbyServer {
    sessions: BTreeMap<SessionId, Registration>,
    next_id: u32,
    metrics: MetricsRegistry,
}

impl LobbyServer {
    /// Creates an empty registry.
    pub fn new() -> LobbyServer {
        LobbyServer::default()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The server's metrics registry (request counters, session gauge).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The server's metrics as a Prometheus-style text exposition — what a
    /// [`LobbyMessage::MetricsRequest`] is answered with.
    pub fn metrics_text(&mut self) -> String {
        self.metrics
            .gauge_set("sessions", self.sessions.len() as i64);
        // Aggregate the heartbeat-reported rollback health so an operator
        // sees at a glance whether any session is repairing heavily.
        let (mut rb, mut resim, mut depth) = (0u64, 0u64, 0u64);
        for s in self.sessions.values() {
            rb += s.rollbacks;
            resim += s.resimulated_frames;
            depth = depth.max(s.max_rollback_depth);
        }
        self.metrics.gauge_set("session_rollbacks", rb as i64);
        self.metrics
            .gauge_set("session_resimulated_frames", resim as i64);
        self.metrics
            .gauge_set("session_max_rollback_depth", depth as i64);
        // Dirty-checkpoint bandwidth: fleet-wide bytes the rings captured
        // and bytes rollback repairs copied back — how far under the
        // 84 KiB full-image floor the hosts are running.
        let saved: u64 = self.sessions.values().map(|s| s.snapshot_bytes_saved).sum();
        let restored: u64 = self
            .sessions
            .values()
            .map(|s| s.snapshot_bytes_restored)
            .sum();
        self.metrics
            .gauge_set("session_snapshot_bytes_saved", saved as i64);
        self.metrics
            .gauge_set("session_snapshot_bytes_restored", restored as i64);
        // Observability health: a nonzero span drop count means some host's
        // trace dumps have holes and tracescope timelines may be partial.
        let dropped_events: u64 = self.sessions.values().map(|s| s.dropped_events).sum();
        let dropped_spans: u64 = self.sessions.values().map(|s| s.dropped_spans).sum();
        self.metrics
            .gauge_set("session_dropped_events", dropped_events as i64);
        self.metrics
            .gauge_set("session_dropped_spans", dropped_spans as i64);
        self.metrics.prometheus("coplay_lobby")
    }

    /// Drops sessions whose hosts stopped heartbeating before
    /// `now - SESSION_TTL`. Call periodically.
    pub fn expire(&mut self, now: SimTime) {
        let before = self.sessions.len();
        self.sessions
            .retain(|_, s| now.saturating_since(s.last_seen) < SESSION_TTL);
        self.metrics.counter_add(
            "sessions_expired_total",
            before.saturating_sub(self.sessions.len()) as u64,
        );
    }

    /// Processes one request; returns `(destination, reply)` pairs.
    pub fn handle(
        &mut self,
        from: PeerId,
        msg: &LobbyMessage,
        now: SimTime,
    ) -> Vec<(PeerId, LobbyMessage)> {
        self.metrics.counter_add("requests_total", 1);
        match msg {
            LobbyMessage::Register {
                name,
                rom_hash,
                slots,
            } => {
                self.metrics.counter_add("register_total", 1);
                // Idempotent: re-registering the same host+name refreshes.
                let mut hosted = 0;
                for (&id, reg) in self.sessions.iter_mut().filter(|(_, s)| s.host == from) {
                    if reg.name == *name {
                        reg.last_seen = now;
                        reg.rom_hash = *rom_hash;
                        return vec![(from, LobbyMessage::Registered { id })];
                    }
                    hosted += 1;
                }
                if self.sessions.len() >= MAX_SESSIONS || hosted >= MAX_SESSIONS_PER_HOST {
                    return self.dropped();
                }
                let id = SessionId(self.next_id);
                self.next_id += 1;
                self.sessions.insert(
                    id,
                    Registration {
                        name: name.clone(),
                        rom_hash: *rom_hash,
                        slots: (*slots).max(2),
                        host: from,
                        members: Vec::new(),
                        last_seen: now,
                        rollbacks: 0,
                        resimulated_frames: 0,
                        max_rollback_depth: 0,
                        snapshot_bytes_saved: 0,
                        snapshot_bytes_restored: 0,
                        dropped_events: 0,
                        dropped_spans: 0,
                    },
                );
                vec![(from, LobbyMessage::Registered { id })]
            }
            LobbyMessage::Unregister { id } => {
                if self.sessions.get(id).is_some_and(|s| s.host == from) {
                    self.sessions.remove(id);
                    Vec::new()
                } else {
                    self.dropped()
                }
            }
            LobbyMessage::Heartbeat {
                id,
                rollbacks,
                resimulated_frames,
                max_rollback_depth,
                snapshot_bytes_saved,
                snapshot_bytes_restored,
                dropped_events,
                dropped_spans,
            } => {
                let Some(s) = self.sessions.get_mut(id).filter(|s| s.host == from) else {
                    return self.dropped();
                };
                s.last_seen = now;
                s.rollbacks = *rollbacks;
                s.resimulated_frames = *resimulated_frames;
                s.max_rollback_depth = *max_rollback_depth;
                s.snapshot_bytes_saved = *snapshot_bytes_saved;
                s.snapshot_bytes_restored = *snapshot_bytes_restored;
                s.dropped_events = *dropped_events;
                s.dropped_spans = *dropped_spans;
                Vec::new()
            }
            LobbyMessage::List => {
                self.metrics.counter_add("list_total", 1);
                let sessions: Vec<SessionEntry> = self
                    .sessions
                    .iter()
                    .take(MAX_LISTED)
                    .map(|(&id, s)| SessionEntry {
                        id,
                        name: s.name.clone(),
                        rom_hash: s.rom_hash,
                        slots: s.slots,
                        free: (s.slots.saturating_sub(1)).saturating_sub(s.members.len() as u8),
                        host: s.host,
                    })
                    .collect();
                vec![(from, LobbyMessage::Listing { sessions })]
            }
            LobbyMessage::Join { id } => {
                self.metrics.counter_add("join_total", 1);
                let Some(s) = self.sessions.get_mut(id) else {
                    self.metrics.counter_add("join_refused_total", 1);
                    return vec![(
                        from,
                        LobbyMessage::Refused {
                            id: *id,
                            reason: JoinRefusal::Unknown,
                        },
                    )];
                };
                // Idempotent: a retransmitted join re-grants the same slot.
                let site = match s.members.iter().position(|&m| m == from) {
                    Some(pos) => pos as u8 + 1,
                    None => {
                        if s.members.len() as u8 + 1 >= s.slots {
                            self.metrics.counter_add("join_refused_total", 1);
                            return vec![(
                                from,
                                LobbyMessage::Refused {
                                    id: *id,
                                    reason: JoinRefusal::Full,
                                },
                            )];
                        }
                        s.members.push(from);
                        s.members.len() as u8
                    }
                };
                vec![(
                    from,
                    LobbyMessage::Joined {
                        id: *id,
                        host: s.host,
                        site,
                        rom_hash: s.rom_hash,
                    },
                )]
            }
            LobbyMessage::MetricsRequest => {
                let text = self.metrics_text();
                vec![(from, LobbyMessage::MetricsReport { text })]
            }
            // Server-to-client messages arriving at the server are noise.
            _ => self.dropped(),
        }
    }

    /// Counts a request the registry drops unanswered: a `Register` past a
    /// cap, a `Heartbeat` or `Unregister` from anyone but the session's
    /// host, or a server-to-client message.
    fn dropped(&mut self) -> Vec<(PeerId, LobbyMessage)> {
        self.metrics.counter_add("dropped_total", 1);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn heartbeat(id: SessionId, rollbacks: u64, resim: u64, depth: u64) -> LobbyMessage {
        LobbyMessage::Heartbeat {
            id,
            rollbacks,
            resimulated_frames: resim,
            max_rollback_depth: depth,
            snapshot_bytes_saved: 40_000,
            snapshot_bytes_restored: 5_000,
            dropped_events: 6,
            dropped_spans: 2,
        }
    }

    fn register(server: &mut LobbyServer, host: PeerId, name: &str, slots: u8) -> SessionId {
        let replies = server.handle(
            host,
            &LobbyMessage::Register {
                name: name.into(),
                rom_hash: 42,
                slots,
            },
            t(0),
        );
        match replies[0].1 {
            LobbyMessage::Registered { id } => id,
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn register_list_join_flow() {
        let mut server = LobbyServer::new();
        let id = register(&mut server, PeerId(0), "duel", 2);

        let listing = server.handle(PeerId(5), &LobbyMessage::List, t(1));
        match &listing[0].1 {
            LobbyMessage::Listing { sessions } => {
                assert_eq!(sessions.len(), 1);
                assert_eq!(sessions[0].id, id);
                assert_eq!(sessions[0].free, 1);
                assert_eq!(sessions[0].host, PeerId(0));
            }
            other => panic!("{other:?}"),
        }

        let join = server.handle(PeerId(5), &LobbyMessage::Join { id }, t(2));
        match join[0].1 {
            LobbyMessage::Joined {
                host,
                site,
                rom_hash,
                ..
            } => {
                assert_eq!(host, PeerId(0));
                assert_eq!(site, 1);
                assert_eq!(rom_hash, 42);
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_is_idempotent_and_fills_up() {
        let mut server = LobbyServer::new();
        let id = register(&mut server, PeerId(0), "trio", 3);
        // Two joiners take sites 1 and 2.
        for (peer, expect) in [(PeerId(5), 1u8), (PeerId(6), 2)] {
            match server.handle(peer, &LobbyMessage::Join { id }, t(1))[0].1 {
                LobbyMessage::Joined { site, .. } => assert_eq!(site, expect),
                ref o => panic!("{o:?}"),
            }
        }
        // Retransmitted join re-grants the same slot.
        match server.handle(PeerId(5), &LobbyMessage::Join { id }, t(2))[0].1 {
            LobbyMessage::Joined { site, .. } => assert_eq!(site, 1),
            ref o => panic!("{o:?}"),
        }
        // A third stranger is refused.
        match server.handle(PeerId(7), &LobbyMessage::Join { id }, t(2))[0].1 {
            LobbyMessage::Refused { reason, .. } => assert_eq!(reason, JoinRefusal::Full),
            ref o => panic!("{o:?}"),
        }
    }

    #[test]
    fn join_unknown_session_refused() {
        let mut server = LobbyServer::new();
        match server.handle(PeerId(5), &LobbyMessage::Join { id: SessionId(99) }, t(0))[0].1 {
            LobbyMessage::Refused { reason, .. } => assert_eq!(reason, JoinRefusal::Unknown),
            ref o => panic!("{o:?}"),
        }
    }

    #[test]
    fn sessions_expire_without_heartbeats() {
        let mut server = LobbyServer::new();
        let id = register(&mut server, PeerId(0), "stale", 2);
        server.expire(t(29));
        assert_eq!(server.session_count(), 1);
        server.handle(PeerId(0), &heartbeat(id, 0, 0, 0), t(29));
        server.expire(t(58));
        assert_eq!(server.session_count(), 1, "heartbeat extended the TTL");
        server.expire(t(60));
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn reregistration_refreshes_not_duplicates() {
        let mut server = LobbyServer::new();
        let a = register(&mut server, PeerId(0), "room", 2);
        let b = register(&mut server, PeerId(0), "room", 2);
        assert_eq!(a, b);
        assert_eq!(server.session_count(), 1);
    }

    #[test]
    fn only_the_host_can_unregister_or_heartbeat() {
        let mut server = LobbyServer::new();
        let id = register(&mut server, PeerId(0), "mine", 2);
        server.handle(PeerId(9), &LobbyMessage::Unregister { id }, t(1));
        assert_eq!(server.session_count(), 1, "stranger cannot unregister");
        server.handle(PeerId(0), &LobbyMessage::Unregister { id }, t(1));
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn metrics_request_answered_with_exposition() {
        let mut server = LobbyServer::new();
        let _ = register(&mut server, PeerId(0), "duel", 2);
        server.handle(PeerId(5), &LobbyMessage::List, t(1));
        let replies = server.handle(PeerId(9), &LobbyMessage::MetricsRequest, t(2));
        match &replies[0].1 {
            LobbyMessage::MetricsReport { text } => {
                assert!(text.contains("coplay_lobby_sessions 1"), "{text}");
                assert!(text.contains("coplay_lobby_requests_total 3"), "{text}");
                assert!(text.contains("coplay_lobby_register_total 1"), "{text}");
                assert!(text.contains("coplay_lobby_list_total 1"), "{text}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn heartbeat_health_surfaces_in_metrics() {
        let mut server = LobbyServer::new();
        let a = register(&mut server, PeerId(0), "rollback room", 2);
        let b = register(&mut server, PeerId(1), "lockstep room", 2);

        // Before any heartbeat the health gauges read zero.
        let text = server.metrics_text();
        assert!(text.contains("coplay_lobby_session_rollbacks 0"), "{text}");

        server.handle(PeerId(0), &heartbeat(a, 5, 20, 7), t(1));
        server.handle(PeerId(1), &heartbeat(b, 3, 9, 4), t(1));
        // A stranger's heartbeat must not overwrite the host's report.
        server.handle(PeerId(9), &heartbeat(a, 999, 999, 999), t(2));

        let text = server.metrics_text();
        assert!(text.contains("coplay_lobby_session_rollbacks 8"), "{text}");
        assert!(
            text.contains("coplay_lobby_session_resimulated_frames 29"),
            "{text}"
        );
        assert!(
            text.contains("coplay_lobby_session_max_rollback_depth 7"),
            "{text}"
        );
        // Dirty-checkpoint bandwidth sums across hosts: 40k+40k saved,
        // 5k+5k restored.
        assert!(
            text.contains("coplay_lobby_session_snapshot_bytes_saved 80000"),
            "{text}"
        );
        assert!(
            text.contains("coplay_lobby_session_snapshot_bytes_restored 10000"),
            "{text}"
        );
        // Flight-recorder loss sums across hosts: 6+6 events, 2+2 spans.
        assert!(
            text.contains("coplay_lobby_session_dropped_events 12"),
            "{text}"
        );
        assert!(
            text.contains("coplay_lobby_session_dropped_spans 4"),
            "{text}"
        );

        // A third host's report joins the sums; a session that never
        // reported adds nothing.
        let c = register(&mut server, PeerId(2), "third", 2);
        server.handle(
            PeerId(2),
            &LobbyMessage::Heartbeat {
                id: c,
                rollbacks: 0,
                resimulated_frames: 0,
                max_rollback_depth: 0,
                snapshot_bytes_saved: 7_000,
                snapshot_bytes_restored: 1_000,
                dropped_events: 0,
                dropped_spans: 0,
            },
            t(2),
        );
        let _ = register(&mut server, PeerId(3), "silent", 2);
        let text = server.metrics_text();
        assert!(
            text.contains("coplay_lobby_session_snapshot_bytes_saved 87000"),
            "{text}"
        );
        assert!(
            text.contains("coplay_lobby_session_snapshot_bytes_restored 11000"),
            "{text}"
        );
    }

    #[test]
    fn noise_messages_ignored() {
        let mut server = LobbyServer::new();
        assert!(server
            .handle(
                PeerId(1),
                &LobbyMessage::Registered { id: SessionId(1) },
                t(0)
            )
            .is_empty());
    }

    #[test]
    fn hostile_requests_are_dropped_and_counted_while_an_honest_host_stays_listed() {
        let mut server = LobbyServer::new();
        let honest = PeerId(1);
        let id = register(&mut server, honest, "duel", 2);
        let (mallory, trudy) = (PeerId(66), PeerId(67));
        let reg = |name: String| LobbyMessage::Register {
            name,
            rom_hash: 7,
            slots: 2,
        };
        // (sender, request, dropped?) — the mix a hostile address can send.
        let mut script: Vec<(PeerId, LobbyMessage, bool)> = Vec::new();
        for k in 0..=MAX_SESSIONS_PER_HOST {
            let over_cap = k == MAX_SESSIONS_PER_HOST;
            script.push((mallory, reg(format!("m{k}")), over_cap));
        }
        script.push((mallory, reg("m0".into()), false)); // refresh, under the cap
        script.push((mallory, heartbeat(id, 999, 999, 999), true));
        script.push((mallory, LobbyMessage::Unregister { id }, true));
        script.push((trudy, heartbeat(SessionId(9999), 0, 0, 0), true));
        script.push((
            trudy,
            LobbyMessage::Unregister {
                id: SessionId(9999),
            },
            true,
        ));
        script.push((trudy, LobbyMessage::Registered { id }, true));
        let listing = LobbyMessage::Listing {
            sessions: Vec::new(),
        };
        script.push((trudy, listing, true));
        let report = LobbyMessage::MetricsReport { text: "x".into() };
        script.push((trudy, report, true));
        // Many addresses fill the registry; past the total cap even a new
        // host is turned away, while the honest host's refresh still works.
        let fillers = MAX_SESSIONS - 1 - MAX_SESSIONS_PER_HOST;
        for k in 0..fillers {
            let host = PeerId(100 + (k / MAX_SESSIONS_PER_HOST) as u8);
            script.push((host, reg(format!("f{k}")), false));
        }
        script.push((PeerId(99), reg("late".into()), true));
        script.push((honest, reg("duel".into()), false));
        script.push((trudy, LobbyMessage::Join { id }, false));

        for (i, (from, msg, drop)) in script.iter().enumerate() {
            let now = t(1);
            let replies = server.handle(*from, msg, now);
            assert!(
                replies.iter().all(|r| r.0 == *from),
                "step {i}: {replies:?}"
            );
            assert_eq!(replies.is_empty(), *drop, "step {i}: {msg:?}");
            assert!(server.session_count() <= MAX_SESSIONS, "step {i}");
            // The honest host heartbeats throughout and is never displaced.
            assert!(server
                .handle(honest, &heartbeat(id, 1, 2, 3), now)
                .is_empty());
            match &server.handle(honest, &LobbyMessage::List, now)[0].1 {
                LobbyMessage::Listing { sessions } => assert_eq!(sessions[0].id, id),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(server.session_count(), MAX_SESSIONS);
        let drops = script.iter().filter(|s| s.2).count() as u64;
        assert_eq!(server.metrics().counter("dropped_total"), drops);
        // Stranger heartbeats never overwrote the host's report.
        let text = server.metrics_text();
        assert!(text.contains("coplay_lobby_session_rollbacks 1"), "{text}");
        assert!(text.contains(&format!("coplay_lobby_dropped_total {drops}")));
    }
}
