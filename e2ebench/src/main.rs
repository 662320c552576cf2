//! Command line of the wall-clock benchmark.
//!
//! ```text
//! e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a facts line, one `metric` line per metric (workload, name,
//! unit, sample count, value) and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs an untraced pass and then a traced
//! one, reports the per-layer metrics and the tracing overhead, and writes
//! the spans to `.bench_out/`. Exits 1 when a correctness check fails.

#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

use coplay_e2ebench::report::{json_num, json_str, ratio, Outcome};
use coplay_e2ebench::trace::Span;
use coplay_e2ebench::{facts, run_pass, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.clamp(1, 60),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}", args.workload));
    }
    Ok(args)
}

/// What one workload produced: its metrics (by the list it reports), the
/// correctness totals and the problems found.
struct Done {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

fn run_workload(workload: &str, a: &Args) -> Result<Done, String> {
    let mut facts = facts(workload, a.seed, a.seconds, a.trace);
    let untraced = run_pass(workload, a.seed, a.seconds, false)?;
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    report_problems(workload, &untraced);
    facts.extend(untraced.facts.clone());
    let metrics = if a.trace {
        let mut traced = run_pass(workload, a.seed, a.seconds, true)?;
        report_problems(workload, &traced);
        attempted += traced.attempted;
        failed += traced.failed;
        for (name, e2e) in [
            ("trace.overhead_cpu_pct", "cpu_us_per_op"),
            ("trace.overhead_latency_p50_pct", "latency_p50_ms"),
        ] {
            let (t, u) = (traced.value(e2e), untraced.value(e2e));
            let n = traced.metrics.get(e2e).map_or(0, |m| m.samples);
            traced.put(name, "%", 100.0 * ratio(t - u, u), n);
        }
        // Ungated end-to-end figures, from the untraced pass.
        for (name, e2e) in [
            ("e2e.latency_mean_ms", "latency_mean_ms"),
            ("e2e.latency_p50_ms", "latency_p50_ms"),
            ("e2e.latency_p99_ms", "latency_p99_ms"),
            ("e2e.cpu_us_per_op", "cpu_us_per_op"),
        ] {
            if let Some(m) = untraced.metrics.get(e2e) {
                traced.put(name, m.unit, m.value, m.samples);
            }
        }
        print_facts(&facts);
        print_metrics(workload, "untraced", &untraced, &END_TO_END);
        print_metrics(workload, "traced", &traced, &PER_LAYER);
        write_spans(workload, a.seed, &traced.spans);
        pick(&traced, &PER_LAYER)
    } else {
        print_facts(&facts);
        print_metrics(workload, "untraced", &untraced, &END_TO_END);
        pick(&untraced, &END_TO_END)
    };
    Ok(Done {
        metrics,
        attempted,
        failed,
    })
}

fn pick(
    out: &Outcome,
    names: &[(&'static str, &'static str)],
) -> BTreeMap<&'static str, (f64, &'static str)> {
    names
        .iter()
        .map(|&(name, unit)| (name, (out.value(name), unit)))
        .collect()
}

fn report_problems(workload: &str, out: &Outcome) {
    for p in &out.problems {
        println!("problem workload={workload} {p}");
    }
}

fn print_facts(facts: &BTreeMap<&'static str, String>) {
    let body: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("facts {{{}}}", body.join(", "));
}

/// Prints the listed metrics, then any other metric the pass measured
/// (informational: not part of the result line).
fn print_metrics(
    workload: &str,
    pass: &str,
    out: &Outcome,
    names: &[(&'static str, &'static str)],
) {
    let extra = out
        .metrics
        .iter()
        .filter(|(k, _)| !names.iter().any(|(n, _)| n == *k))
        .map(|(k, m)| (*k, m.unit));
    for (name, unit) in names.iter().copied().chain(extra) {
        let (value, samples) = out
            .metrics
            .get(name)
            .map_or((0.0, 0), |m| (m.value, m.samples));
        println!("metric workload={workload} pass={pass} name={name} unit={unit} samples={samples} value={value}");
    }
}

/// Writes the traced pass's spans as tab-separated rows (best effort).
fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.tsv"));
    let mut text = String::from("layer\tstart_ns\tend_ns\tparent\tsite\tkey\tval\tself_ns\n");
    for s in spans {
        let parent = s.parent.map_or(-1, i64::from);
        let _ = writeln!(
            text,
            "{:?}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
            s.layer,
            s.start_ns,
            s.end_ns,
            s.site,
            s.key,
            s.val,
            s.self_ns()
        );
    }
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}|all> --seed <n> --seconds <1-60> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let single = workloads.len() == 1;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for w in &workloads {
        match run_workload(w, &args) {
            Ok(done) => {
                attempted += done.attempted;
                failed += done.failed;
                for (name, (value, unit)) in done.metrics {
                    let key = if single {
                        name.to_string()
                    } else {
                        format!("{w}:{name}")
                    };
                    metrics.push(format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json_str(&key),
                        json_num(value),
                        json_str(unit)
                    ));
                }
            }
            Err(e) => {
                println!("problem workload={w} failed to run: {e}");
                println!(
                    "{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}"
                );
                std::process::exit(1);
            }
        }
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    let _ = std::io::stdout().flush();
    if !correct {
        std::process::exit(1);
    }
}
