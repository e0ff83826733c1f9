//! End-to-end benchmark of the Munin reproduction on the paper's programs.
//!
//! ```text
//! munin-perfbench --workload <matmul-8|sor-16|sor-conv-16|tsp-8> --seed <u64>
//!                 --seconds <n> --trace <0|1>
//! ```
//!
//! Each repetition is one run of the program through its public
//! `run_munin`, under an engine seed derived from `--seed`, checked against
//! the serial reference. With `--trace 0` the untraced repetitions give the
//! end-to-end metrics; with `--trace 1` untraced and traced repetitions
//! alternate and the traced ones give the per-layer metrics. The last line
//! of standard output is one JSON object; see README.md for every metric.

mod layers;
mod replay;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use munin_apps::{matmul, RunMeasurement};

use stats::{median, process_cpu_ms, quantile, tail_quantile};
use traced::{Tracer, CALLS};
use workloads::{output_matches, rep_seed, Output, Size, Workload};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: u64 = 11;
/// Passes over sor-16's page history in the diff replay.
const DIFF_PASSES: usize = 5;

/// Command-line arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&names.join("|")))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("whole seconds in 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Refuses to run when any `MUNIN_*` variable is set: the runtime's config
/// constructors read them (piggyback, barrier fan-out, loss, engine seed and
/// more), so a run under one would measure another configuration.
fn env_guard(names: impl IntoIterator<Item = String>) -> Result<(), String> {
    let set: Vec<String> = names
        .into_iter()
        .filter(|k| k.starts_with("MUNIN_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark builds every configuration \
             from --seed; unset them",
            set.join(", ")
        ))
    }
}

/// Operations attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }
}

/// Host cost of one repetition.
#[derive(Clone, Copy)]
struct Host {
    /// CPU ms, all threads.
    cpu_ms: f64,
    /// Wall-clock ms.
    wall_ms: f64,
}

impl Host {
    /// Runs `f`, measuring its host cost.
    fn measure<T>(f: impl FnOnce() -> T) -> (T, Host) {
        let (wall, cpu) = (Instant::now(), process_cpu_ms());
        let out = f();
        let host = Host {
            cpu_ms: process_cpu_ms() - cpu,
            wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        };
        (out, host)
    }
}

/// One untraced repetition: its measurement and host cost, or `None` (and a
/// failure in `tally`) when it errs or its output differs from `reference`.
fn untraced_rep(
    w: Workload,
    size: Size,
    seed: u64,
    reference: &Output,
    tally: &mut Tally,
) -> Option<(RunMeasurement, Host)> {
    let (result, host) = Host::measure(|| w.run_untraced(size, seed));
    let ok = matches!(&result, Ok((_, out)) if output_matches(out, reference));
    tally.record(ok, &format!("{} untraced, engine seed {seed}", w.name()));
    match result {
        Ok((m, _)) if ok => Some((m, host)),
        Ok(_) => None,
        Err(e) => {
            eprintln!("  error: {e}");
            None
        }
    }
}

/// The printed result: human-readable lines, then the JSON line.
struct Report {
    tally: Tally,
    correct: bool,
    metrics: Vec<(String, f64, &'static str)>,
    lines: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.tally.attempted, self.tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Describes a sample set: its median, count and upper tail.
fn describe(name: &str, unit: &str, xs: &[f64]) -> String {
    let mut s = format!(
        "{name:<10} {:>14.6} {unit:<5} median of {} reps, min {:.6}, max {:.6}",
        median(xs),
        xs.len(),
        quantile(xs, 0.0),
        quantile(xs, 1.0)
    );
    if let Some(q) = tail_quantile(xs.len()) {
        let _ = write!(s, ", p{:.0} {:.6}", q * 100.0, quantile(xs, q));
    }
    s
}

/// `--trace 0`: set-up several times, then untraced repetitions for
/// `seconds` (at least one); every end-to-end metric.
fn end_to_end(w: Workload, size: Size, seed: u64, seconds: Duration) -> Report {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut reference = None;
    for i in 0..SETUPS {
        let (r, host) = Host::measure(|| {
            let r = w.reference(size);
            untraced_rep(w, size, rep_seed(seed, u64::MAX - i), &r, &mut tally);
            r
        });
        setup_s.push(host.cpu_ms / 1e3);
        reference = Some(r);
    }
    let reference = reference.expect("SETUPS > 0");
    let mut reps: Vec<(RunMeasurement, Host)> = Vec::new();
    let start = Instant::now();
    for rep in 0.. {
        reps.extend(untraced_rep(
            w,
            size,
            rep_seed(seed, rep),
            &reference,
            &mut tally,
        ));
        if start.elapsed() >= seconds {
            break;
        }
    }
    let col = |f: &dyn Fn(&(RunMeasurement, Host)) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let series: [(&str, &'static str, Vec<f64>); 5] = [
        ("virt_s", "vsec", col(&|(m, _)| m.secs())),
        ("sys_s", "vsec", col(&|(m, _)| m.root_system.as_secs_f64())),
        ("msgs", "count", col(&|(m, _)| m.net.total.msgs as f64)),
        ("bytes", "B", col(&|(m, _)| m.net.total.bytes as f64)),
        ("host_ms", "ms", col(&|(_, h)| h.cpu_ms)),
    ];
    let mut lines: Vec<String> = series.iter().map(|(n, u, xs)| describe(n, u, xs)).collect();
    lines.push(describe("setup_s", "s", &setup_s));
    lines.push(describe("wall_ms", "ms", &col(&|(_, h)| h.wall_ms)));
    let mut metrics: Vec<(String, f64, &'static str)> = series
        .iter()
        .map(|(n, u, xs)| (n.to_string(), median(xs), *u))
        .collect();
    metrics.push(("setup_s".into(), median(&setup_s), "s"));
    Report {
        correct: tally.failed == 0 && !reps.is_empty(),
        tally,
        metrics,
        lines,
    }
}

/// `--trace 1`: untraced and traced repetitions alternate for `seconds` (at
/// least one pair); every per-layer metric, and the spans as JSON lines.
fn per_layer(w: Workload, size: Size, seed: u64, seconds: Duration) -> (Report, String) {
    let mut tally = Tally::default();
    let mut lines = Vec::new();
    let reference = w.reference(size);
    untraced_rep(w, size, rep_seed(seed, u64::MAX), &reference, &mut tally);
    let tracer = Tracer::new(size.procs(w));
    let (mut untraced_cpu, mut untraced_wall, mut traced_cpu) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_virt, mut traced_virt) = (Vec::new(), Vec::new());
    let mut per_rep: Vec<BTreeMap<String, f64>> = Vec::new();
    let start = Instant::now();
    for rep in 0u32.. {
        let s = rep_seed(seed, u64::from(rep));
        let untraced = untraced_rep(w, size, s, &reference, &mut tally);
        let (result, host) = Host::measure(|| traced::run(w, size, s, rep, &tracer));
        let counts = |m: &RunMeasurement| (m.net.total.msgs, m.net.total.bytes);
        let ok = match (&result, &untraced) {
            (Ok(t), Some((u, _))) if w.counts_are_deterministic() => {
                output_matches(&t.output, &reference) && counts(&t.measurement) == counts(u)
            }
            (Ok(t), _) => output_matches(&t.output, &reference),
            (Err(_), _) => false,
        };
        tally.record(ok, &format!("{} traced, engine seed {s}", w.name()));
        if let Some((u, h)) = untraced {
            untraced_cpu.push(h.cpu_ms);
            untraced_wall.push(h.wall_ms);
            untraced_virt.push(u.secs());
        }
        if let (true, Ok(t)) = (ok, result) {
            traced_cpu.push(host.cpu_ms);
            traced_virt.push(t.measurement.secs());
            per_rep.push(layers::counters(&t.measurement, t.events_dropped));
        }
        if start.elapsed() >= seconds {
            break;
        }
    }

    // Counters: median over the traced repetitions.
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(first) = per_rep.first() {
        for key in first.keys() {
            let xs: Vec<f64> = per_rep.iter().map(|m| m[key]).collect();
            values.insert(key.clone(), median(&xs));
        }
    }

    // API spans: host ms and calls per repetition, by call.
    let spans = tracer.spans();
    let mut by_rep: BTreeMap<u32, BTreeMap<&str, (f64, f64)>> = BTreeMap::new();
    for s in &spans {
        let e = by_rep.entry(s.rep).or_default().entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns) as f64 / 1e6;
        e.1 += 1.0;
    }
    for c in CALLS {
        let get = |f: fn(&(f64, f64)) -> f64| -> Vec<f64> {
            by_rep.values().map(|m| m.get(c).map_or(0.0, f)).collect()
        };
        values.insert(format!("api.{c}.host_ms"), median(&get(|e| e.0)));
        values.insert(format!("api.{c}.calls"), median(&get(|e| e.1)));
    }

    values.insert("sim.virt_s_min".into(), quantile(&traced_virt, 0.0));
    values.insert("sim.virt_s_p50".into(), median(&traced_virt));
    values.insert("sim.virt_s_max".into(), quantile(&traced_virt, 1.0));
    lines.push(describe("virt_s", "vsec", &traced_virt));
    lines.push(describe("untraced", "ms", &untraced_cpu));
    lines.push(describe("traced", "ms", &traced_cpu));
    lines.push(describe("wall_ms", "ms", &untraced_wall));
    values.insert("sim.host_wall_ms".into(), median(&untraced_wall));
    values.insert(
        "obs.trace_overhead_pct".into(),
        (median(&traced_cpu) / median(&untraced_cpu) - 1.0) * 100.0,
    );

    if w == Workload::Matmul8 {
        let params = workloads::matmul_params(size, rep_seed(seed, u64::MAX - 1));
        let result = matmul::run_message_passing(params, size.cost());
        let ok =
            matches!(&result, Ok((_, c)) if output_matches(&Output::Matmul(c.clone()), &reference));
        tally.record(ok, "matmul-8 message passing");
        if let (true, Ok((m, _))) = (ok, result) {
            values.insert("msgpass.virt_s".into(), m.secs());
            values.insert(
                "msgpass.munin_over_dm".into(),
                median(&untraced_virt) / m.secs(),
            );
        }
    }

    let timing = replay::replay(&replay::history(size), size.page_size(), DIFF_PASSES);
    tally.record(timing.ok, "sor-16 diff replay");
    values.insert("diff.encode_ns_per_page".into(), timing.encode_ns_per_page);
    values.insert("diff.apply_ns_per_page".into(), timing.apply_ns_per_page);
    values.insert("diff.bytes_per_page".into(), timing.bytes_per_page);

    let metrics = layers::names()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    let report = Report {
        correct: tally.failed == 0 && !per_rep.is_empty(),
        tally,
        metrics,
        lines,
    };
    (report, tracer.to_jsonl())
}

fn run() -> Result<Report, String> {
    env_guard(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()))?;
    let args = parse_args(std::env::args().skip(1))?;
    let seconds = Duration::from_secs(args.seconds);
    if !args.trace {
        return Ok(end_to_end(args.workload, Size::Paper, args.seed, seconds));
    }
    let (mut report, spans) = per_layer(args.workload, Size::Paper, args.seed, seconds);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report
        .lines
        .push(format!("spans written to {}", path.display()));
    Ok(report)
}

fn main() -> ExitCode {
    match run() {
        Ok(mut report) => {
            for (name, value, _) in &mut report.metrics {
                if !value.is_finite() {
                    eprintln!("FAILED: {name} is not finite");
                    *value = 0.0;
                    report.correct = false;
                }
            }
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("munin-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn env_guard_refuses_any_munin_variable() {
        assert!(env_guard(strings(&["PATH", "HOME", "CARGO_TARGET_DIR"])).is_ok());
        let err = env_guard(strings(&["PATH", "MUNIN_PIGGYBACK", "MUNIN_LOSS"])).unwrap_err();
        assert!(err.contains("MUNIN_PIGGYBACK, MUNIN_LOSS"), "{err}");
        assert!(env_guard(strings(&["MY_MUNIN_X"])).is_ok());
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let args = |line: &str| parse_args(line.split_whitespace().map(String::from));
        assert_eq!(
            args("--workload sor-16 --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: Workload::Sor16,
                seed: 7,
                seconds: 10,
                trace: true,
            })
        );
        for bad in [
            "--workload sor-16 --seed 7 --seconds 10",
            "--workload sor-8 --seed 7 --seconds 10 --trace 0",
            "--workload tsp-8 --seed -1 --seconds 10 --trace 0",
            "--workload tsp-8 --seed 1 --seconds 0 --trace 0",
            "--workload tsp-8 --seed 1 --seconds 1 --trace 2",
            "--workload tsp-8 --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// The repository's benchmark description.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The string values of every `"<key>": "..."` in `text`, in order (read
    /// without a JSON library).
    fn values(text: &str, key: &str) -> Vec<String> {
        text.split(&format!("\"{key}\": \""))
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let (workloads, metrics) = BENCHMARK_JSON
            .split_once("\"end_to_end\"")
            .expect("end_to_end");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(values(workloads, "name"), names);
        let declared: Vec<(String, String)> = values(metrics, "name")
            .into_iter()
            .zip(values(metrics, "unit"))
            .collect();
        let e2e = end_to_end(Workload::Tsp8, Size::Tiny, 1, Duration::ZERO);
        let (layer, _) = per_layer(Workload::Tsp8, Size::Tiny, 1, Duration::ZERO);
        let printed: Vec<(String, String)> = e2e
            .metrics
            .iter()
            .chain(&layer.metrics)
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect();
        assert_eq!(declared, printed);
    }

    /// Runs both passes of `w` on a tiny instance and returns the per-layer
    /// values by name.
    fn tiny_layers(w: Workload) -> BTreeMap<String, f64> {
        let e2e = end_to_end(w, Size::Tiny, 3, Duration::ZERO);
        assert!(e2e.correct, "{}: {}", w.name(), e2e.json());
        assert_eq!(e2e.tally.failed, 0);
        assert_eq!(e2e.tally.attempted, SETUPS + 1);
        assert!(e2e
            .metrics
            .iter()
            .all(|(_, v, _)| v.is_finite() && *v > 0.0));
        let (layer, spans) = per_layer(w, Size::Tiny, 3, Duration::ZERO);
        assert!(layer.correct, "{}: {}", w.name(), layer.json());
        assert!(spans.lines().count() > 0);
        layer.metrics.into_iter().map(|(n, v, _)| (n, v)).collect()
    }

    #[test]
    fn matmul_metrics_on_a_tiny_instance() {
        let v = tiny_layers(Workload::Matmul8);
        // Each of the three workers flushes its band to the root once.
        assert_eq!(v["diff.updates_sent"], 3.0);
        assert!(v["fault.fetches"] > 0.0);
        // The runtime counts one more barrier wait per node, at shutdown.
        assert_eq!(v["api.barrier.calls"], 4.0);
        assert_eq!(v["sync.barrier_waits"], 8.0);
        assert_eq!(v["api.lock.calls"], 0.0);
        assert!(v["msgpass.virt_s"] > 0.0 && v["msgpass.munin_over_dm"] > 0.0);
        assert!(v["sim.virt_s_min"] <= v["sim.virt_s_p50"]);
        assert!(v["sim.virt_s_p50"] <= v["sim.virt_s_max"]);
        assert!(v["diff.encode_ns_per_page"] > 0.0 && v["diff.bytes_per_page"] > 0.0);
    }

    #[test]
    fn sor_metrics_on_a_tiny_instance() {
        let (_, _, iterations) = Size::Tiny.sor_shape();
        for w in [Workload::Sor16, Workload::SorConv16] {
            let v = tiny_layers(w);
            let procs = Size::Tiny.procs(w) as f64;
            assert_eq!(v["api.barrier.calls"], procs * (2 * iterations + 1) as f64);
            assert_eq!(v["sync.barrier_waits"], v["api.barrier.calls"] + procs);
            assert_eq!(v["api.read_slice.calls"], procs * iterations as f64);
            let sum = |prefix: &str| -> f64 {
                v.iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(_, x)| x)
                    .sum()
            };
            // The per-class split accounts for every message.
            let (m, _) = w.run_untraced(Size::Tiny, rep_seed(3, 0)).unwrap();
            assert_eq!(sum("sim.msgs."), m.net.total.msgs as f64);
            assert_eq!(sum("sim.bytes."), m.net.total.bytes as f64);
            if w == Workload::SorConv16 {
                assert_eq!(v["diff.updates_sent"], 0.0);
                assert_eq!(v["outbox.piggybacked"], 0.0);
            } else {
                assert!(v["diff.updates_sent"] > 0.0);
                assert!(v["duq.twins"] > 0.0);
            }
        }
    }

    #[test]
    fn tsp_metrics_on_a_tiny_instance() {
        let v = tiny_layers(Workload::Tsp8);
        assert!(v["sync.lock_acquires"] > 0.0 && v["sync.reductions"] > 0.0);
        assert!(v["api.lock.calls"] > 0.0 && v["api.reduce.calls"] > 0.0);
        assert_eq!(v["msgpass.virt_s"], 0.0);
    }

    #[test]
    fn traced_counts_equal_untraced() {
        for w in [Workload::Matmul8, Workload::Sor16, Workload::SorConv16] {
            for seed in [1, 2] {
                let (u, out) = w.run_untraced(Size::Tiny, seed).unwrap();
                let tracer = Tracer::new(Size::Tiny.procs(w));
                let t = traced::run(w, Size::Tiny, seed, 0, &tracer).unwrap();
                assert_eq!(t.output, out, "{}", w.name());
                assert_eq!(t.measurement.net.total, u.net.total, "{}", w.name());
                // `runtime_errors` counts stable-sharing violations whose
                // number depends on host timing; every other counter repeats.
                let strip = |mut s: munin_core::MuninStatsSnapshot| {
                    s.runtime_errors = 0;
                    s
                };
                assert_eq!(strip(t.measurement.stats), strip(u.stats), "{}", w.name());
                assert!(output_matches(&out, &w.reference(Size::Tiny)));
            }
        }
    }

    #[test]
    fn diff_replay_reproduces_every_page() {
        let timing = replay::replay(&replay::history(Size::Tiny), Size::Tiny.page_size(), 2);
        assert!(timing.ok);
        assert!(timing.encode_ns_per_page > 0.0 && timing.apply_ns_per_page > 0.0);
        assert!(timing.bytes_per_page > 0.0);
    }

    #[test]
    fn report_prints_one_json_object() {
        let r = Report {
            tally: Tally {
                attempted: 3,
                failed: 1,
            },
            correct: false,
            metrics: vec![
                ("virt_s".into(), 1.25, "vsec"),
                ("msgs".into(), 7.0, "count"),
            ],
            lines: Vec::new(),
        };
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"virt_s\": {\"value\": 1.25, \"unit\": \"vsec\"}, \
             \"msgs\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
    }
}
