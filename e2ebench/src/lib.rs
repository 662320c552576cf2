//! Wall-clock end-to-end benchmark of coplay over real UDP sockets.
//!
//! Three workloads (see `README.md` for why each was chosen):
//!
//! * `duel_lockstep_p2p` — paced lockstep duel, peer to peer ([`duel`]).
//! * `duel_rollback_relay_rtt100` — rollback duel through a relay at
//!   100 ms RTT ([`duel`]).
//! * `relay_flood` — a relay under an open-loop datagram stream ([`flood`]).
//!
//! The benchmark reaches every layer through its public API only, wrapped
//! in the timing decorators of [`wrap`]. An untraced pass gives the
//! end-to-end metrics; a traced pass records spans ([`trace`]) and derives
//! the per-layer metrics from them.

// A wall-clock benchmark: reading the host clock is its job.
#![allow(clippy::disallowed_methods)]

pub mod duel;
pub mod flood;
pub mod report;
pub mod trace;
pub mod wrap;

use std::collections::BTreeMap;

use coplay_relay::RelayStats;

use report::Outcome;

/// Rounds per run. Each round sets the workload up afresh and runs a
/// `1 / ROUNDS` share of the run, so set-up is measured `ROUNDS` times and
/// round-level effects (the two sites' frame phase, a relay's warm-up)
/// are sampled rather than fixed for the whole run.
pub const ROUNDS: u64 = 5;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = [
    "duel_lockstep_p2p",
    "duel_rollback_relay_rtt100",
    "relay_flood",
];

/// End-to-end metrics every workload reports (untraced pass). The
/// untraced pass also prints `latency_mean_ms`, `latency_p50_ms`,
/// `latency_p99_ms` and `cpu_us_per_op`; `README.md` says why those are
/// not in this list.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every workload reports (traced pass); a layer the
/// workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("e2e.latency_mean_ms", "ms"),
    ("e2e.latency_p50_ms", "ms"),
    ("e2e.latency_p99_ms", "ms"),
    ("e2e.cpu_us_per_op", "us"),
    ("vm.step_ns", "ns"),
    ("vm.step_calls_per_frame", "count"),
    ("vm.resim_ns", "ns"),
    ("vm.resim_calls_per_frame", "count"),
    ("vm.state_hash_ns", "ns"),
    ("vm.state_hash_calls_per_frame", "count"),
    ("vm.checkpoint_ns", "ns"),
    ("vm.checkpoint_bytes", "B"),
    ("vm.restore_ns", "ns"),
    ("vm.decode_hit_ratio", "ratio"),
    ("vm.fusion_ratio", "ratio"),
    ("sync.ticks_per_frame", "count"),
    ("sync.tick_self_ns_per_frame", "ns"),
    ("sync.realtime_overhead_us_per_frame", "us"),
    ("sync.stall_ms_per_frame", "ms"),
    ("sync.stalled_frames", "count"),
    ("sync.input_frames_sent_per_frame", "count"),
    ("sync.duplicate_msgs_received", "count"),
    ("pacing.start_late_us_p50", "us"),
    ("pacing.late_frames", "count"),
    ("pacing.frame_time_dev_ms", "ms"),
    ("pacing.synchrony_ms", "ms"),
    ("rollback.tick_self_ns_per_frame", "ns"),
    ("rollback.rollbacks_per_100_frames", "count"),
    ("rollback.resim_frames_per_rollback", "count"),
    ("rollback.wasted_frame_ratio", "ratio"),
    ("rollback.max_depth", "frames"),
    ("rollback.ring_bytes", "B"),
    ("net.send_ns", "ns"),
    ("net.sends_per_frame", "count"),
    ("net.bytes_per_frame", "B"),
    ("net.recv_ns", "ns"),
    ("net.recv_hit_ratio", "ratio"),
    ("net.send_errors", "count"),
    ("relay.client_self_ns_per_dgram", "ns"),
    ("relay.poll_ns_per_dgram", "ns"),
    ("relay.poll_empty_ratio", "ratio"),
    ("relay.forwarded", "count"),
    ("relay.fanout_copies_per_forward", "count"),
    ("relay.dropped_backpressure", "count"),
    ("relay.dropped_unregistered", "count"),
    ("relay.dropped_malformed", "count"),
    ("relay.dropped_refused", "count"),
    ("telemetry.events_per_frame", "count"),
    ("telemetry.events_per_dgram", "count"),
    ("telemetry.evicted_events", "count"),
    ("gen.late_p99_us", "us"),
    ("gen.sockets", "count"),
    ("trace.overhead_cpu_pct", "%"),
    ("trace.overhead_latency_p50_pct", "%"),
    ("trace.spans", "count"),
];

/// Threads each workload runs its program on.
pub fn threads(workload: &str) -> u32 {
    match workload {
        "duel_rollback_relay_rtt100" => 1,
        _ => 2,
    }
}

/// splitmix64 of `a` and `b`: derives every seeded stream from the seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sums two relays' running totals.
pub fn add_relay_stats(a: RelayStats, b: RelayStats) -> RelayStats {
    RelayStats {
        forwarded: a.forwarded + b.forwarded,
        fanout_copies: a.fanout_copies + b.fanout_copies,
        dropped_backpressure: a.dropped_backpressure + b.dropped_backpressure,
        dropped_unregistered: a.dropped_unregistered + b.dropped_unregistered,
        dropped_malformed: a.dropped_malformed + b.dropped_malformed,
        dropped_refused: a.dropped_refused + b.dropped_refused,
        evicted_members: a.evicted_members + b.evicted_members,
        expired_sessions: a.expired_sessions + b.expired_sessions,
        registrations: a.registrations + b.registrations,
    }
}

/// Records the relay's running totals as per-layer metrics.
pub fn relay_stats(out: &mut Outcome, s: RelayStats) {
    out.put("relay.forwarded", "count", s.forwarded as f64, s.forwarded);
    out.put(
        "relay.fanout_copies_per_forward",
        "count",
        report::ratio(s.fanout_copies as f64, s.forwarded as f64),
        s.forwarded,
    );
    out.put(
        "relay.dropped_backpressure",
        "count",
        s.dropped_backpressure as f64,
        s.forwarded,
    );
    out.put(
        "relay.dropped_unregistered",
        "count",
        s.dropped_unregistered as f64,
        s.forwarded,
    );
    out.put(
        "relay.dropped_malformed",
        "count",
        s.dropped_malformed as f64,
        s.forwarded,
    );
    out.put(
        "relay.dropped_refused",
        "count",
        s.dropped_refused as f64,
        s.forwarded,
    );
}

/// Runs one pass of `workload`. Untraced passes return the end-to-end
/// metrics, traced passes the per-layer ones (both with correctness).
pub fn run_pass(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = match workload {
        "duel_lockstep_p2p" | "duel_rollback_relay_rtt100" => {
            let run = if workload == "duel_lockstep_p2p" {
                duel::lockstep_p2p(seed, seconds, traced)?
            } else {
                duel::rollback_relay(seed, seconds, traced)?
            };
            let mut out = duel::check(&run);
            duel::end_to_end(&run, &mut out);
            if traced {
                duel::per_layer(&run, &mut out);
                out.put(
                    "trace.spans",
                    "count",
                    run.spans.len() as f64,
                    run.spans.len() as u64,
                );
                out.spans = run.spans;
            }
            out
        }
        "relay_flood" => {
            let run = flood::relay_flood(seed, seconds, traced)?;
            let mut out = flood::check(&run);
            flood::end_to_end(&run, &mut out);
            if traced {
                flood::per_layer(&run, &mut out);
                let spans: Vec<trace::Span> =
                    run.rounds.into_iter().flat_map(|r| r.spans).collect();
                out.put(
                    "trace.spans",
                    "count",
                    spans.len() as f64,
                    spans.len() as u64,
                );
                out.spans = spans;
            }
            out
        }
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    out.put("peak_rss_mib", "MiB", trace::peak_rss_mib(), 1);
    Ok(out)
}

/// Facts about the host and the run, recorded with every result.
pub fn facts(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> BTreeMap<&'static str, String> {
    let mut f = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    f.insert("nproc", nproc.to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    f.insert("cpu_model", cpu);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    f.insert("kernel", kernel);
    f.insert(
        "git_commit",
        git_commit().unwrap_or_else(|| "unavailable (not a git checkout)".into()),
    );
    f.insert("workload", workload.to_string());
    f.insert("seed", seed.to_string());
    f.insert("seconds", seconds.to_string());
    f.insert("threads", threads(workload).to_string());
    f.insert("traced", traced.to_string());
    f.insert("transport", "UDP over the host loopback interface".into());
    f
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
