//! Microbenchmarks for the rollback hot loop.
//!
//! Rollback repair happens *inside* a 16.7 ms frame budget: checkpoint
//! capture, checkpoint restore, and resimulation all run on the critical
//! path, and the per-frame input send shares it. This binary times each of
//! those operations per bundled game (plus the wire codec) and writes
//! `results/BENCH_hotpath.json` with ns/op and bytes/op, plus each game's
//! per-frame `state_hash` cost.
//!
//! Run: `cargo run --release -p coplay-bench --bin hotpath [--quick]`
//!
//! Perf-regression guard: `--check <baseline.json>` compares the fresh
//! numbers against a previously written run and exits non-zero when any
//! operation got more than 2x slower (with a small absolute noise floor so
//! single-digit-nanosecond ops cannot trip the guard on scheduler jitter).
//! The guard is direction-aware: an op that got more than 2x *faster* is
//! reported as a stale-baseline warning — repin the baseline so the guard
//! keeps protecting the improvement — but does not fail the run.
//! The checked-in reference lives at `results/hotpath_baseline.json`.

// This harness times the hot loop from outside the determinism fence, so
// the wall-clock ban does not apply (see detlint policy for
// crates/bench/src/bin/).
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use coplay_bench::{banner, write_results_json, Options};
use coplay_games::catalog;
use coplay_rollback::SnapshotRing;
use coplay_sync::{InputMsg, Message};
use coplay_vm::{DirtyPages, InputWord, Machine, StepMode};

/// Regression threshold: fail when an op is more than this many times
/// slower than the baseline.
const REGRESSION_FACTOR: u64 = 2;

/// Absolute slack added to every threshold so fast ops (a few ns) cannot
/// trip the guard on measurement noise alone.
const NOISE_FLOOR_NS: u64 = 200;

/// One timed operation.
struct Measurement {
    key: String,
    ns_per_op: u64,
    bytes_per_op: u64,
}

/// Per-game summary stats (not timings).
struct GameSummary {
    name: &'static str,
    snapshot_bytes: u64,
}

/// Times `f` repeatedly, doubling the iteration count until one batch
/// fills `budget`, then takes the *minimum* mean over three batches at
/// that count — a scheduler preemption landing inside one batch inflates
/// that batch only, and the minimum discards it.
fn bench_ns(budget: Duration, mut f: impl FnMut()) -> u64 {
    f(); // warmup: touch caches, fault in pages
    let mut iters: u64 = 4;
    let mut batch = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    };
    loop {
        let elapsed = batch(iters);
        if elapsed >= budget {
            let best = elapsed.min(batch(iters)).min(batch(iters));
            return (best.as_nanos() / u128::from(iters)) as u64;
        }
        iters = iters.saturating_mul(2);
    }
}

/// Times one operation directly: `sample` prepares its state untimed,
/// then returns the elapsed time of the op alone. Sampling runs for at
/// least `budget` and 101 samples, and the median is returned, so a
/// preempted sample moves the result by one rank, not by its length.
fn median_op_ns(budget: Duration, mut sample: impl FnMut() -> Duration) -> u64 {
    sample(); // warmup: touch caches, fault in pages
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 101 || start.elapsed() < budget {
        samples.push(sample());
    }
    samples.sort_unstable();
    samples[samples.len() / 2].as_nanos() as u64
}

/// Deterministic pseudo-input for a frame (splitmix-style mix).
fn input_for(frame: u64) -> InputWord {
    let mut x = frame.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0C05_01A1;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    InputWord((x & 0xFFFF_FFFF) as u32)
}

/// Steps `m` 8 frames, then captures the repair anchor: the frame the
/// machine executes next and its full state image. Repair rows copy this
/// image into their restore buffer every iteration.
fn repair_anchor<M: Machine + ?Sized>(m: &mut M) -> (u64, Vec<u8>) {
    for _ in 0..8 {
        let f = m.frame();
        m.step_frame(input_for(f));
    }
    let mut anchor = Vec::new();
    m.save_state_into(&mut anchor);
    (m.frame(), anchor)
}

fn measure_games(budget: Duration) -> (Vec<Measurement>, Vec<GameSummary>) {
    let mut measurements = Vec::new();
    let mut summaries = Vec::new();

    for game in catalog() {
        let name = game.name();
        let mut m = game.create();
        // Warm the machine into a representative mid-game state.
        for f in 0..120 {
            m.step_frame(input_for(f));
        }
        m.step_frame(input_for(120));
        let next = m.save_state();
        let snapshot_bytes = next.len() as u64;

        let ns = bench_ns(budget, || {
            std::hint::black_box(m.save_state().len());
        });
        measurements.push(Measurement {
            key: format!("{name}/save_state"),
            ns_per_op: ns,
            bytes_per_op: snapshot_bytes,
        });

        let mut cap = Vec::new();
        let ns = bench_ns(budget, || {
            m.save_state_into(&mut cap);
            std::hint::black_box(cap.len());
        });
        measurements.push(Measurement {
            key: format!("{name}/save_state_into"),
            ns_per_op: ns,
            bytes_per_op: snapshot_bytes,
        });

        // The digest a session computes after every executed frame.
        let ns = bench_ns(budget, || {
            std::hint::black_box(m.state_hash());
        });
        measurements.push(Measurement {
            key: format!("{name}/state_hash"),
            ns_per_op: ns,
            bytes_per_op: 0,
        });

        // Advance to the repair anchor.
        for f in 121..153 {
            m.step_frame(input_for(f));
        }
        let (newest, anchor) = repair_anchor(&mut *m);
        let mut rbuf = Vec::new();

        let ns = bench_ns(budget, || {
            let f = m.frame();
            m.step_frame(input_for(f));
        });
        measurements.push(Measurement {
            key: format!("{name}/resim_frame"),
            ns_per_op: ns,
            bytes_per_op: 0,
        });

        // A full rollback repair: copy the checkpoint image, reload the
        // machine, resimulate 8 frames.
        let ns = bench_ns(budget, || {
            rbuf.clone_from(&anchor);
            m.load_state(&rbuf).expect("checkpoint bytes reload");
            for k in 1..=8 {
                m.step_frame(input_for(newest + k));
            }
        });
        measurements.push(Measurement {
            key: format!("{name}/rollback_repair_8"),
            ns_per_op: ns / 8,
            bytes_per_op: 0,
        });

        // The production repair shape since headless stepping landed:
        // every repair frame but the last skips presentation side effects
        // (framebuffer draws, audio sample rendering), and the final frame
        // presents so the display catches up. Same restore + reload + 8
        // frames as `rollback_repair_8`, so the delta is pure rendering.
        let ns = bench_ns(budget, || {
            rbuf.clone_from(&anchor);
            m.load_state(&rbuf).expect("checkpoint bytes reload");
            for k in 1..=8 {
                let mode = if k == 8 {
                    StepMode::Present
                } else {
                    StepMode::Headless
                };
                m.step_frame_mode(input_for(newest + k), mode);
            }
        });
        measurements.push(Measurement {
            key: format!("{name}/repair_headless"),
            ns_per_op: ns / 8,
            bytes_per_op: 0,
        });

        // O(dirty) checkpoint capture: step a frame (untimed), then time
        // the capture straight into the ring alone — the machine's dirty
        // accumulators pick the byte ranges, the old tail bytes become a
        // raw back-patch, and the machine rewrites only those ranges in
        // the tail. Hashes are dummies: the ring stores them opaquely and
        // per-frame hashing is costed elsewhere.
        let mut dirty_ring = SnapshotRing::new(8);
        // Ring frames use their own counter: native games reset their
        // frame counter when a match ends, and the loop below runs long
        // enough to cross several match boundaries.
        let mut ck = 0u64;
        let mut last = dirty_ring.checkpoint_from(ck, 0, &mut m);
        let ns = median_op_ns(budget, || {
            let f = m.frame();
            m.step_frame(input_for(f));
            ck += 1;
            let start = Instant::now();
            last = dirty_ring.checkpoint_from(ck, 0, &mut m);
            start.elapsed()
        });
        measurements.push(Measurement {
            key: format!("{name}/checkpoint_dirty"),
            ns_per_op: ns,
            bytes_per_op: last.dirty_bytes as u64,
        });

        // Bitmap-guided rollback restore, production shape: the machine
        // drifts one frame off the anchor checkpoint and saves the due
        // checkpoint (untimed), then a misprediction rewinds the ring to
        // the anchor and patches only the divergent pages back into the
        // machine — the timed part.
        let mut rring = SnapshotRing::new(8);
        let mut kr = 0u64;
        rring.checkpoint_from(kr, 0, &mut m);
        let mut rout = Vec::new();
        m.save_state_into(&mut rout);
        let mut rdirty = DirtyPages::default();
        let ns = median_op_ns(budget, || {
            let f = m.frame();
            m.step_frame(input_for(f));
            kr += 1;
            rring.checkpoint_from(kr, 0, &mut m);
            m.collect_dirty_into(&mut rdirty);
            let start = Instant::now();
            rring
                .rewind_into(0, &mut rout, &mut rdirty)
                .expect("anchor checkpoint rewinds");
            m.load_state_dirty(&rout, &rdirty)
                .expect("checkpoint bytes reload");
            start.elapsed()
        });
        let restored_bytes: usize = rdirty.byte_ranges().map(|(s, e)| e - s).sum();
        measurements.push(Measurement {
            key: format!("{name}/restore_dirty"),
            ns_per_op: ns,
            bytes_per_op: restored_bytes as u64,
        });

        summaries.push(GameSummary {
            name,
            snapshot_bytes,
        });
    }

    (measurements, summaries)
}

fn measure_wire(budget: Duration) -> Vec<Measurement> {
    let msg = Message::Input(InputMsg {
        from: 1,
        ack: 41,
        first: 42,
        inputs: (0..8).map(input_for).collect(),
    });
    let bytes = msg.encode().len() as u64;
    let mut out = Vec::new();

    let ns_alloc = bench_ns(budget, || {
        std::hint::black_box(msg.encode().len());
    });
    let ns_reuse = bench_ns(budget, || {
        msg.encode_into(&mut out);
        std::hint::black_box(out.len());
    });
    vec![
        Measurement {
            key: "wire/encode".to_string(),
            ns_per_op: ns_alloc,
            bytes_per_op: bytes,
        },
        Measurement {
            key: "wire/encode_into".to_string(),
            ns_per_op: ns_reuse,
            bytes_per_op: bytes,
        },
    ]
}

/// Frame-lifecycle tracing cost on the hot path: `Telemetry::span` with a
/// disabled handle (the production default), with a recording handle whose
/// tracing flag is off (telemetry without spans), and with tracing on (the
/// full record path into the flight-recorder ring). The first two must be
/// branch-cheap — every frame of every session pays them — and the guard
/// keeps them honest.
fn measure_telemetry(budget: Duration) -> Vec<Measurement> {
    use coplay_clock::SimTime;
    use coplay_telemetry::{SpanStage, Telemetry};
    let at = SimTime::from_micros(42);
    let mut out = Vec::new();
    let mut frame = 0u64;
    for (key, tel) in [
        ("telemetry/span_disabled", Telemetry::disabled()),
        ("telemetry/span_tracing_off", Telemetry::recording()),
        ("telemetry/span_tracing_on", Telemetry::tracing(1, 0)),
    ] {
        let ns = bench_ns(budget, || {
            frame += 1;
            tel.span(
                std::hint::black_box(at),
                SpanStage::Sampled,
                std::hint::black_box(frame),
                1,
            );
        });
        out.push(Measurement {
            key: key.to_string(),
            ns_per_op: ns,
            bytes_per_op: 0,
        });
    }
    out
}

fn render_json(opts: &Options, games: &[GameSummary], measurements: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"figure\": \"hotpath\",\n");
    out.push_str(&format!("  \"seed\": {},\n  \"games\": [\n", opts.seed));
    for (i, g) in games.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"game\": \"{}\", \"snapshot_bytes\": {}}}{}\n",
            g.name,
            g.snapshot_bytes,
            if i + 1 < games.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"measurements\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": \"{}\", \"ns_per_op\": {}, \"bytes_per_op\": {}}}{}\n",
            m.key,
            m.ns_per_op,
            m.bytes_per_op,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `key -> ns_per_op` pairs from a hotpath results document.
///
/// Hand-rolled like the writers in this crate: each measurement sits on
/// one line shaped `{"key": "...", "ns_per_op": N, ...}`.
fn parse_measurements(json: &str) -> Vec<(String, u64)> {
    let mut pairs = Vec::new();
    for line in json.lines() {
        let Some(key_at) = line.find("\"key\": \"") else {
            continue;
        };
        let rest = &line[key_at + 8..];
        let Some(key_end) = rest.find('"') else {
            continue;
        };
        let key = &rest[..key_end];
        let Some(ns_at) = line.find("\"ns_per_op\": ") else {
            continue;
        };
        let digits: String = line[ns_at + 13..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(ns) = digits.parse() {
            pairs.push((key.to_string(), ns));
        }
    }
    pairs
}

/// Outcome of a baseline comparison. `regressions` fail the run;
/// `speedups` mean the baseline is stale — large improvements should be
/// repinned so the guard starts protecting them too.
#[derive(Default)]
struct CheckOutcome {
    regressions: usize,
    speedups: usize,
}

/// Compares fresh measurements against a baseline document, in both
/// directions: an op slower than `REGRESSION_FACTOR`x baseline (plus the
/// noise floor) is a regression; an op faster by the same margin is a
/// stale-baseline warning.
fn check_against(baseline_json: &str, measurements: &[Measurement]) -> CheckOutcome {
    let baseline = parse_measurements(baseline_json);
    let mut outcome = CheckOutcome::default();
    if baseline.is_empty() {
        eprintln!("baseline contains no measurements; nothing to check");
        return outcome;
    }
    println!(
        "{:<28} {:>12} {:>12}  verdict",
        "op", "baseline ns", "current ns"
    );
    for (key, base_ns) in &baseline {
        let Some(cur) = measurements.iter().find(|m| &m.key == key) else {
            println!("{key:<28} {base_ns:>12} {:>12}  missing from this run", "-");
            continue;
        };
        let slow_limit = base_ns.saturating_mul(REGRESSION_FACTOR) + NOISE_FLOOR_NS;
        let verdict = if cur.ns_per_op > slow_limit {
            outcome.regressions += 1;
            "REGRESSION"
        } else if cur.ns_per_op.saturating_mul(REGRESSION_FACTOR) + NOISE_FLOOR_NS < *base_ns {
            outcome.speedups += 1;
            "FASTER (repin baseline)"
        } else {
            "ok"
        };
        println!(
            "{:<28} {:>12} {:>12}  {}",
            key, base_ns, cur.ns_per_op, verdict
        );
    }
    outcome
}

fn main() {
    let opts = Options::from_env();
    banner(
        "Hot-path microbenchmarks — rollback repair + wire codec",
        &opts,
    );

    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let budget = if quick {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(10)
    };

    let (mut measurements, games) = measure_games(budget);
    measurements.extend(measure_wire(budget));
    measurements.extend(measure_telemetry(budget));

    println!("{:<28} {:>10} {:>10}", "op", "ns/op", "bytes/op");
    for m in &measurements {
        println!("{:<28} {:>10} {:>10}", m.key, m.ns_per_op, m.bytes_per_op);
    }
    println!();
    println!("{:<12} {:>14}", "game", "snapshot B");
    for g in &games {
        println!("{:<12} {:>14}", g.name, g.snapshot_bytes);
    }
    println!();

    let ns_of = |key: &str| {
        measurements
            .iter()
            .find(|m| m.key == key)
            .map(|m| m.ns_per_op)
    };
    if let (Some(off), Some(on)) = (
        ns_of("telemetry/span_tracing_off"),
        ns_of("telemetry/span_tracing_on"),
    ) {
        println!(
            "telemetry/span: {off} ns/op tracing-off vs {on} ns/op tracing-on \
             (off must stay branch-cheap; the guard enforces it)"
        );
    }
    println!();

    let json = render_json(&opts, &games, &measurements);
    match write_results_json("BENCH_hotpath.json", &json) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let outcome = check_against(&baseline, &measurements);
        if outcome.speedups > 0 {
            eprintln!(
                "{} op(s) ran >{REGRESSION_FACTOR}x faster than {path}; the baseline is \
                 stale — rerun without --quick and copy results/BENCH_hotpath.json over it \
                 so the guard protects the improvement",
                outcome.speedups
            );
        }
        if outcome.regressions > 0 {
            eprintln!("{} hot-path regression(s) vs {path}", outcome.regressions);
            std::process::exit(1);
        }
        eprintln!("no hot-path regressions vs {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_render() {
        let opts = Options::default();
        let ms = vec![
            Measurement {
                key: "pong/save_state".into(),
                ns_per_op: 123,
                bytes_per_op: 2048,
            },
            Measurement {
                key: "wire/encode_into".into(),
                ns_per_op: 45,
                bytes_per_op: 64,
            },
        ];
        let json = render_json(&opts, &[], &ms);
        let parsed = parse_measurements(&json);
        assert_eq!(
            parsed,
            vec![
                ("pong/save_state".to_string(), 123),
                ("wire/encode_into".to_string(), 45),
            ]
        );
    }

    #[test]
    fn check_flags_only_real_regressions() {
        let opts = Options::default();
        let baseline = render_json(
            &opts,
            &[],
            &[
                Measurement {
                    key: "a".into(),
                    ns_per_op: 1000,
                    bytes_per_op: 0,
                },
                Measurement {
                    key: "b".into(),
                    ns_per_op: 10,
                    bytes_per_op: 0,
                },
            ],
        );
        // 2x + noise floor: 1000 -> limit 2200; 10 -> limit 220.
        let fine = [
            Measurement {
                key: "a".into(),
                ns_per_op: 2200,
                bytes_per_op: 0,
            },
            Measurement {
                key: "b".into(),
                ns_per_op: 200,
                bytes_per_op: 0,
            },
        ];
        let outcome = check_against(&baseline, &fine);
        assert_eq!(outcome.regressions, 0);
        assert_eq!(outcome.speedups, 0);
        let slow = [
            Measurement {
                key: "a".into(),
                ns_per_op: 2201,
                bytes_per_op: 0,
            },
            Measurement {
                key: "b".into(),
                ns_per_op: 200,
                bytes_per_op: 0,
            },
        ];
        let outcome = check_against(&baseline, &slow);
        assert_eq!(outcome.regressions, 1);
        assert_eq!(outcome.speedups, 0);
    }

    #[test]
    fn check_warns_on_large_speedups_without_failing() {
        let opts = Options::default();
        let baseline = render_json(
            &opts,
            &[],
            &[
                Measurement {
                    key: "a".into(),
                    ns_per_op: 10_000,
                    bytes_per_op: 0,
                },
                Measurement {
                    key: "b".into(),
                    ns_per_op: 10,
                    bytes_per_op: 0,
                },
            ],
        );
        // `a` at 2x-minus-noise-floor is a speedup (4900*2 + 200 < 10000);
        // `b` is tiny, so the noise floor keeps even a 10 -> 1 drop quiet.
        let fast = [
            Measurement {
                key: "a".into(),
                ns_per_op: 4899,
                bytes_per_op: 0,
            },
            Measurement {
                key: "b".into(),
                ns_per_op: 1,
                bytes_per_op: 0,
            },
        ];
        let outcome = check_against(&baseline, &fast);
        assert_eq!(outcome.regressions, 0);
        assert_eq!(outcome.speedups, 1);
    }

    #[test]
    fn inputs_vary_by_frame() {
        assert_ne!(input_for(1), input_for(2));
    }
}
