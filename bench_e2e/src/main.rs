//! Caller-observed benchmark of the srumma drivers.
//!
//! ```sh
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload scf-chain --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload from one caller thread in a closed
//! loop (the next call starts when the previous one returned) and
//! checks every output. `--trace 0` times the public entry points with
//! tracing off and prints the end-to-end metrics; set-up time and peak
//! heap come from fresh probe processes of the same workload. `--trace
//! 1` alternates untraced calls with the same calls rebuilt from the
//! driver's public pieces under benchmark-side spans, and prints the
//! per-layer metrics and a "where did the time go" table. The last
//! stdout line is one JSON object. `--workload all` runs every workload,
//! each in its own process.

mod host;
mod stats;
mod tally;
mod workloads;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

use stats::{median, Latency};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::Instant;
use tally::Tally;
use workloads::{Layers, Workload};

/// The workloads; each module says why it is in the benchmark.
const WORKLOADS: [&str; 4] = ["scf-chain", "small-calls", "stream", "paper-sim"];

/// Workloads left out of `BENCHMARK.json`, so no regression gate uses
/// them. `small-calls` is wake-up bound: on a shared two-core host its
/// median call time drifts between about 4.5 and 7.5 ms within one
/// process, and ten 20 s runs spread by 0.40 (IQR/median), beyond the
/// largest bound a gate may use. It still runs by name and in `all`.
const UNGATED: [&str; 1] = ["small-calls"];

/// End-to-end metrics (`--trace 0`): name, unit. The tail latency is
/// printed but not among them: on a shared two-core host its run-to-run
/// spread exceeds any bound a regression gate can use.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("gflops", "GFLOP/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name, unit. Times and counts are
/// per call; a workload that does not pass through a layer reports 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("dense.kernel_gflops", "GFLOP/s"),
    ("dense.serial_gflops", "GFLOP/s"),
    ("dense.ws_grows", "count"),
    ("layout.alloc_s", "s"),
    ("layout.scatter_s", "s"),
    ("layout.gather_s", "s"),
    ("layout.bytes_copied", "bytes"),
    ("layout.share", "frac"),
    ("comm.pool_overhead_s", "s"),
    ("comm.wait_s", "s"),
    ("comm.barrier_s", "s"),
    ("comm.bytes_fetched", "bytes"),
    ("exec.parks", "count"),
    ("exec.worker_parks", "count"),
    ("exec.steals", "count"),
    ("exec.occupancy", "frac"),
    ("srumma.compute_s", "s"),
    ("srumma.mean_overlap", "frac"),
    ("srumma.task_skew", "frac"),
    ("srumma.tasks", "count"),
    ("srumma.parallel_eff", "frac"),
    ("batch.stage_s", "s"),
    ("batch.compute_s", "s"),
    ("batch.fence_s_per_entry", "s"),
    ("batch.inter_entry_overlap", "frac"),
    ("sim.host_s_per_run_srumma", "s"),
    ("sim.host_s_per_run_summa", "s"),
    ("sim.modeled_makespan_s", "modeled_s"),
    ("sim.modeled_gflops", "modeled_GF/s"),
    ("sim.network_bytes", "modeled_bytes"),
    ("sim.messages", "modeled_count"),
    ("trace.overhead_frac", "frac"),
];

/// Fresh processes that measure set-up time and peak memory.
const PROBES: usize = 5;

/// Share of `--seconds` spent on untimed calls before the timed loop.
const WARM_FRAC: f64 = 0.1;

/// Share of `--seconds` the traced run spends on its call loop; the rest
/// goes to the dense-layer microbenchmarks.
const TRACE_LOOP_FRAC: f64 = 0.75;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe" {
            args.probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be all or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn metric_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Full-precision JSON number (non-finite values have no JSON form).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metric_json(metrics)
    )
}

/// Timed calls on one distinct input.
#[derive(Default)]
struct Class {
    ops: u64,
    flops: f64,
    secs: Vec<f64>,
}

/// A workload, the index of its next call and the verification tally.
struct Session<W: Workload> {
    w: W,
    i: usize,
    attempted: u64,
    failed: u64,
}

impl<W: Workload> Session<W> {
    /// Generate the inputs and make the warm-up calls; returns the
    /// session and the set-up seconds. The warm-up outputs are verified
    /// after the clock stops.
    fn set_up(make: &dyn Fn() -> W) -> (Self, f64) {
        let start = Instant::now();
        let mut w = make();
        let outs: Vec<_> = (0..w.warmup_calls())
            .map(|i| catch_unwind(AssertUnwindSafe(|| w.call(i))))
            .collect();
        let setup = start.elapsed().as_secs_f64();
        let mut s = Session {
            w,
            i: 0,
            attempted: 0,
            failed: 0,
        };
        for out in outs {
            s.record(out);
            s.i += 1;
        }
        (s, setup)
    }

    /// Verify call `self.i`; a panicking call fails all its operations.
    fn record(&mut self, out: std::thread::Result<W::Out>) {
        self.attempted += self.w.ops(self.i);
        self.failed += match out {
            Ok(out) => self.w.check(self.i, out),
            Err(_) => self.w.ops(self.i),
        };
    }

    /// Make call `self.i` untraced, verify it, return its caller seconds.
    fn call(&mut self) -> f64 {
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| self.w.call(self.i)));
        let secs = start.elapsed().as_secs_f64();
        self.record(out);
        secs
    }

    /// Make call `self.i` rebuilt under spans, and verify it.
    fn traced_call(&mut self, t: &mut Tally) {
        let out = catch_unwind(AssertUnwindSafe(|| self.w.traced_call(self.i, t)));
        self.record(out);
    }

    fn config(&self, args: &Args) -> String {
        let (ranks, workers) = self.w.pool();
        format!(
            "# config {}",
            host::config_line(&args.workload, args.seed, ranks, workers)
        )
    }
}

/// A fresh process's set-up seconds and its peak live heap through one
/// more pass over the distinct inputs (unverified: the measuring process
/// verifies the same calls).
fn probe<W: Workload>(make: &dyn Fn() -> W) -> String {
    host::track_heap();
    let start = Instant::now();
    let mut w = make();
    // A panicking call is counted by the measuring process, which makes
    // the same calls; here it only must not abort the probe.
    let call = |w: &mut W, i| drop(catch_unwind(AssertUnwindSafe(|| w.call(i))));
    for i in 0..w.warmup_calls() {
        call(&mut w, i);
    }
    let setup = start.elapsed().as_secs_f64();
    for i in w.warmup_calls()..w.warmup_calls() + w.distinct_inputs() {
        call(&mut w, i);
    }
    format!(
        "probe {setup:?} {:?} {:?}",
        host::peak_heap_mb(),
        host::peak_rss_mb()
    )
}

/// (set-up seconds, peak heap MiB, peak RSS MiB) of fresh processes of
/// this executable.
fn run_probes(args: &Args) -> Result<Vec<(f64, f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--probe", "--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .output()
                .map_err(|e| format!("probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().unwrap_or_default();
            let fields: Vec<f64> = line
                .split(' ')
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect();
            match (
                out.status.success(),
                line.starts_with("probe "),
                fields.as_slice(),
            ) {
                (true, true, &[setup, heap, rss]) => Ok((setup, heap, rss)),
                _ => Err(format!(
                    "probe failed: {line:?} {}",
                    String::from_utf8_lossy(&out.stderr)
                )),
            }
        })
        .collect()
}

fn run_e2e<W: Workload>(args: &Args, make: &dyn Fn() -> W) -> Result<String, String> {
    let probes = run_probes(args)?;
    let (mut s, setup) = Session::set_up(make);
    println!("{}", s.config(args));
    let mut setups: Vec<f64> = probes.iter().map(|p| p.0).collect();
    setups.push(setup);
    let heap: Vec<f64> = probes.iter().map(|p| p.1).collect();
    let rss: Vec<f64> = probes.iter().map(|p| p.2).collect();
    // Untimed, verified calls first, so allocator arenas and page tables
    // reach their steady state before the clock runs.
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < WARM_FRAC * args.seconds {
        s.call();
        s.i += 1;
    }
    let (mut lat, mut ops, mut flops) = (Vec::new(), 0u64, 0.0f64);
    let mut classes: Vec<Class> = (0..s.w.distinct_inputs())
        .map(|_| Class::default())
        .collect();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let secs = s.call();
        let n = classes.len();
        let c = &mut classes[s.i % n];
        (c.ops, c.flops) = (s.w.ops(s.i), s.w.flops(s.i));
        c.secs.push(secs);
        lat.push(secs);
        ops += c.ops;
        flops += c.flops;
        s.i += 1;
    }
    // Rates at the median call time of each distinct input: a burst of
    // load from outside the benchmark that slows fewer than half of an
    // input's calls does not move them.
    let classes: Vec<&Class> = classes.iter().filter(|c| !c.secs.is_empty()).collect();
    let cycle_s: f64 = classes.iter().map(|c| median(&c.secs)).sum();
    let cycle_ops: u64 = classes.iter().map(|c| c.ops).sum();
    let cycle_flops: f64 = classes.iter().map(|c| c.flops).sum();
    let busy: f64 = lat.iter().sum();
    let l = Latency::of(&lat);
    let values = [
        cycle_ops as f64 / cycle_s,
        cycle_flops / cycle_s / 1e9,
        1e3 * l.p50,
        median(&setups),
        median(&heap),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    println!(
        "{}: {} timed calls, {ops} ops in {busy:.3} s of caller time; failed {} of {} ops attempted",
        args.workload, l.n, s.failed, s.attempted
    );
    println!(
        "  mean rates over the timed run (not gated): {:.6} ops/s, {:.6} GFLOP/s",
        ops as f64 / busy,
        flops / busy / 1e9
    );
    println!(
        "  latency tail (not gated): {:.6} ms, p{} of {} samples, the highest percentile with >= 10 beyond it",
        1e3 * l.tail,
        l.tail_pct,
        l.n
    );
    println!(
        "  setup_s: median of {} fresh-process set-ups {setups:.4?}",
        setups.len()
    );
    println!("  peak_heap_mb: median of {} fresh processes through set-up and one pass over the inputs {heap:.2?}", heap.len());
    println!(
        "  peak RSS (VmHWM, not gated: glibc per-thread arenas make it vary run to run) of those processes {rss:.1?}, of this one {:.1}",
        host::peak_rss_mb()
    );
    for (n, u, v) in &metrics {
        println!("  {n:<16} {v:>14.6} {u}");
    }
    Ok(result_line(s.attempted, s.failed, &metrics))
}

fn run_traced<W: Workload>(args: &Args, make: &dyn Fn() -> W) -> Result<String, String> {
    let budget = Instant::now();
    let (mut s, _) = Session::set_up(make);
    println!("{}", s.config(args));
    // Untraced and traced calls alternate, each pair on the same input
    // and in alternating order, so the tracing overhead is measured
    // under the same conditions.
    let mut t = Tally::default();
    let mut untraced = Vec::new();
    while budget.elapsed().as_secs_f64() < TRACE_LOOP_FRAC * args.seconds {
        let traced_first = s.i % 2 == 1;
        if traced_first {
            s.traced_call(&mut t);
        }
        untraced.push((s.i, s.call()));
        if !traced_first {
            s.traced_call(&mut t);
        }
        s.i += 1;
    }
    let untraced_s: f64 = untraced.iter().map(|&(_, secs)| secs).sum();
    let overhead = t.wall / untraced_s - 1.0;
    let rest = (args.seconds - budget.elapsed().as_secs_f64()).max(0.0);
    let mut layers: Layers = s.w.layers(&t, &untraced, rest);
    layers.insert("trace.overhead_frac", overhead);
    print!(
        "{}",
        t.table(
            &args.workload,
            s.w.pool_rows(),
            t.get("pool.capacity"),
            overhead
        )
    );
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)))
        .collect();
    for (n, u, v) in &metrics {
        println!("  {n:<28} {v:>16.6} {u}");
    }
    Ok(result_line(s.attempted, s.failed, &metrics))
}

fn run_one(args: &Args) -> Result<String, String> {
    let seed = args.seed;
    macro_rules! dispatch {
        ($ty:path) => {{
            let make = || <$ty>::new(seed);
            if args.probe {
                Ok(probe(&make))
            } else if args.trace {
                run_traced(args, &make)
            } else {
                run_e2e(args, &make)
            }
        }};
    }
    match args.workload.as_str() {
        "scf-chain" => dispatch!(workloads::scf::ScfChain),
        "small-calls" => dispatch!(workloads::small::SmallCalls),
        "stream" => dispatch!(workloads::stream::Stream),
        "paper-sim" => dispatch!(workloads::papersim::PaperSim),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Every workload, each in its own process; prints each one's report and
/// ends with one JSON object whose `metrics` holds each workload's
/// metrics under its name.
fn run_all(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut attempted, mut failed, mut parts) = (0u64, 0u64, Vec::new());
    for name in WORKLOADS {
        let gated = if UNGATED.contains(&name) {
            " (not in BENCHMARK.json)"
        } else {
            ""
        };
        println!("== {name}{gated}");
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "{name} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let (body, last) = text
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", text.trim_end()));
        println!("{body}");
        let field = |key: &str| -> Option<&str> {
            last.split_once(&format!("\"{key}\": ")).map(|(_, v)| v)
        };
        let count = |key: &str| -> u64 {
            field(key)
                .and_then(|v| v.split(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        attempted += count("attempted");
        failed += count("failed");
        let metrics = field("metrics")
            .and_then(|m| m.strip_suffix('}'))
            .unwrap_or("{}");
        parts.push(format!("\"{name}\": {metrics}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        parts.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (n, u) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(declared(n, u), "{n} ({u}) missing from BENCHMARK.json");
        }
        for w in WORKLOADS {
            let listed = json.contains(&format!("\"name\": \"{w}\""));
            assert_eq!(listed, !UNGATED.contains(&w), "workload {w}");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_is_full_precision_json() {
        let line = result_line(3, 0, &[("x", "s", 0.1 + 0.2)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
