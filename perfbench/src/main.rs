//! The repository benchmark: how fast the HyperTRIO simulator runs, how
//! long it takes to set up and how much memory it holds, on two named
//! workloads, with a per-layer breakdown of where the host time goes.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop with one client and one thread: one
//! [`Simulation`] at a time, built from a trace that the benchmark generates
//! from `--seed` (default [`DEFAULT_SEED`]). The seed goes only into
//! [`HyperTraceBuilder::seed`]; the simulator receives only the generated
//! trace. The benchmark times the calls into each layer's public functions
//! from outside and adds no tracing inside the program.
//!
//! A run of one workload has two phases:
//!
//! 1. For the first five sixths of `--seconds` (at least [`MIN_TRIALS`]
//!    times), an untimed trial: `HyperTraceBuilder::build` and
//!    `Simulation::new`, each timed; a standalone iteration of a clone of
//!    the built trace (`trace.gen_ns_per_pkt`, and the packet count the
//!    correctness check compares against); `Simulation::run`, the untimed
//!    run behind `pkts_per_s`; then [`SETUPS_PER_TRIAL`] more timed
//!    set-ups, so set-up samples spread over the run.
//! 2. For the rest of `--seconds` (at least once), a traced run:
//!    `Simulation::run_timed` on a fresh simulation, for the five stage
//!    timings.
//!
//! No trial or run starts that would likely end past its phase. Host time
//! for whole simulation runs comes from the fastest trial or run of the
//! phase, set-up times are medians (see [`metrics`]). Both `--trace` values
//! run the same schedule; the flag only picks which metric set goes into
//! the result line (0: end-to-end, 1: per-layer). Every metric is also
//! printed by name with its unit above that line.
//!
//! Every run of the simulator is checked: each untimed and each traced
//! report equals the first untimed trial's,
//! `translation_requests == 3 × packets_processed`, and `packets_processed`
//! equals the standalone iteration's packet count. A run that panics or
//! fails a check counts in `failed`, and the process then exits non-zero.
//!
//! `--workload all` runs every workload in its own child process (peak RSS
//! is the process's `VmHWM`, which only grows, so workloads must not share
//! a process) and exits non-zero if any of them fails.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use hypersio_sim::{SimParams, SimReport, Simulation, StageTimings};
use hypersio_trace::{HyperTraceBuilder, WorkloadKind};
use hypertrio_core::TranslationConfig;

/// The trace seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 0;
/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 60;
/// Untimed trials run even when their share of `--seconds` is spent sooner.
const MIN_TRIALS: usize = 3;
/// Extra set-up samples (trace build plus `Simulation::new`) taken after
/// each untimed trial.
const SETUPS_PER_TRIAL: usize = 10;
/// Packets excluded from the simulated-bandwidth window, as in
/// `bench_hotpath`. Counters and host timings cover the whole run.
const WARMUP_PACKETS: u64 = 2000;

/// One named workload: an architecture, a trace shape and a table policy.
struct Workload {
    name: &'static str,
    config: fn() -> TranslationConfig,
    kind: WorkloadKind,
    tenants: u32,
    length: Length,
    /// Lazy, LRU-evicted page tables under this budget; `None` builds
    /// every tenant's tables eagerly in `Simulation::new`.
    table_budget_mb: Option<u64>,
}

/// How long each tenant's request stream is.
enum Length {
    /// `HyperTraceBuilder::scale`: Table III request counts divided by this.
    Scale(u64),
    /// `HyperTraceBuilder::requests_per_tenant`.
    RequestsPerTenant(u64),
}

/// The workloads. `BENCHMARK.json` and `perfbench/README.md` say why each
/// was chosen and which layers it exercises.
const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "base-1024-websearch",
        config: TranslationConfig::base,
        kind: WorkloadKind::Websearch,
        tenants: 1024,
        length: Length::Scale(10),
        table_budget_mb: None,
    },
    Workload {
        name: "hypertrio-100k-lazy",
        config: TranslationConfig::hypertrio,
        kind: WorkloadKind::Iperf3,
        tenants: 100_000,
        length: Length::RequestsPerTenant(24),
        table_budget_mb: Some(32),
    },
];

impl Workload {
    fn trace(&self, seed: u64) -> HyperTraceBuilder {
        let b = HyperTraceBuilder::new(self.kind, self.tenants).seed(seed);
        match self.length {
            Length::Scale(scale) => b.scale(scale),
            Length::RequestsPerTenant(requests) => b.requests_per_tenant(requests),
        }
    }

    fn params(&self) -> SimParams {
        let params = SimParams::paper().with_warmup(WARMUP_PACKETS);
        match self.table_budget_mb {
            Some(mb) => params.with_table_budget(mb << 20),
            None => params,
        }
    }

    /// Builds the trace and the simulation, timing each call.
    fn setup(&self, seed: u64) -> Setup {
        let t0 = Instant::now();
        let trace = self.trace(seed).build();
        let build_s = t0.elapsed().as_secs_f64();
        let generator = trace.clone();
        let t1 = Instant::now();
        let sim = Simulation::new((self.config)(), self.params(), trace);
        let new_s = t1.elapsed().as_secs_f64();
        Setup {
            sim,
            generator,
            times: SetupTimes { build_s, new_s },
        }
    }
}

struct Setup {
    sim: Simulation,
    /// An unconsumed clone of the simulation's trace.
    generator: hypersio_trace::HyperTrace,
    times: SetupTimes,
}

/// Host seconds spent in `HyperTraceBuilder::build` and `Simulation::new`.
#[derive(Clone, Copy)]
struct SetupTimes {
    build_s: f64,
    new_s: f64,
}

/// One untimed trial: its set-up samples, the standalone trace iteration
/// and the untimed run.
struct Untimed {
    setups: Vec<SetupTimes>,
    generated: u64,
    gen_s: f64,
    report: SimReport,
    run_s: f64,
}

/// One traced run.
struct Traced {
    report: SimReport,
    run_s: f64,
    stages: StageTimings,
}

fn untimed_trial(w: &Workload, seed: u64) -> Untimed {
    let Setup {
        sim,
        generator,
        times,
    } = w.setup(seed);
    let t = Instant::now();
    let mut generated = 0u64;
    for packet in generator {
        black_box(&packet);
        generated += 1;
    }
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let report = sim.run();
    let run_s = t.elapsed().as_secs_f64();

    // More set-up samples, spread over the run like the trials themselves.
    let mut setups = vec![times];
    setups.extend((0..SETUPS_PER_TRIAL).map(|_| w.setup(seed).times));
    Untimed {
        setups,
        generated,
        gen_s,
        report,
        run_s,
    }
}

fn traced_run(w: &Workload, seed: u64) -> Traced {
    let sim = w.setup(seed).sim;
    let t = Instant::now();
    let (report, stages) = sim.run_timed();
    Traced {
        report,
        run_s: t.elapsed().as_secs_f64(),
        stages,
    }
}

/// Checks one report against the run's invariants and the reference (the
/// first trial's untimed report); returns why it fails, if it does.
fn check(report: &SimReport, generated: u64, reference: &SimReport) -> Option<String> {
    if report.translation_requests != 3 * report.packets_processed {
        return Some(format!(
            "translation_requests {} != 3 x packets_processed {}",
            report.translation_requests, report.packets_processed
        ));
    }
    if report.packets_processed != generated {
        return Some(format!(
            "packets_processed {} != {generated} packets in the trace",
            report.packets_processed
        ));
    }
    (report != reference).then(|| "report differs from the first trial's".to_string())
}

/// FNV-1a 64 of `bytes`: a digest of the simulated results that changes
/// whenever the model's output does.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run of one workload measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    untimed: Vec<Untimed>,
    traced: Vec<Traced>,
}

/// Calls `attempt` at least `min` times, then again while another call
/// would likely end before `until` has passed since `start`.
fn repeat(start: Instant, until: Duration, min: usize, mut attempt: impl FnMut()) {
    let mut longest = Duration::ZERO;
    let mut calls = 0;
    while calls < min || start.elapsed() + longest < until {
        calls += 1;
        let t = Instant::now();
        attempt();
        longest = longest.max(t.elapsed());
    }
}

/// Runs `f`, counting it as one attempted simulation run that fails if it
/// panics.
fn attempt<T>(out: &mut Outcome, what: &str, f: impl FnOnce() -> T) -> Option<T> {
    out.attempted += 1;
    let result = catch_unwind(AssertUnwindSafe(f));
    if result.is_err() {
        eprintln!("{what} panicked");
        out.failed += 1;
    }
    result.ok()
}

fn measure(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = Outcome::default();
    // Untimed trials fill five sixths of the budget, traced runs the rest.
    repeat(start, budget * 5 / 6, MIN_TRIALS, || {
        let Some(t) = attempt(&mut out, "untimed run", || untimed_trial(w, seed)) else {
            return;
        };
        let reference = &out.untimed.first().unwrap_or(&t).report;
        if let Some(why) = check(&t.report, t.generated, reference) {
            eprintln!("{}: untimed run: {why}", w.name);
            out.failed += 1;
        }
        out.untimed.push(t);
    });
    repeat(start, budget, 1, || {
        let Some(t) = attempt(&mut out, "traced run", || traced_run(w, seed)) else {
            return;
        };
        let failure = match out.untimed.first() {
            Some(reference) => check(&t.report, reference.generated, &reference.report),
            None => Some("no untimed run to compare with".to_string()),
        };
        if let Some(why) = failure {
            eprintln!("{}: traced run: {why}", w.name);
            out.failed += 1;
        }
        out.traced.push(t);
    });
    out
}

/// The end-to-end and the per-layer metrics of one run.
///
/// Host time for a whole simulation run is taken from the run's fastest
/// trial: other load on the host slows runs by up to 2x for tens of
/// seconds at a time, and the fastest trial is the one it touched least.
/// Set-up times, which take milliseconds, are medians over all samples.
fn metrics(out: &Outcome) -> (Vec<Metric>, Vec<Metric>) {
    let setups: Vec<SetupTimes> = out.untimed.iter().flat_map(|t| t.setups.clone()).collect();
    let setup_median = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
    let fastest_untimed = out
        .untimed
        .iter()
        .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
        .expect("metrics need an untimed run");
    let fastest_traced = out
        .traced
        .iter()
        .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
        .expect("metrics need a traced run");
    let gen_ns_per_pkt = out
        .untimed
        .iter()
        .map(|t| t.gen_s * 1e9 / t.generated as f64)
        .fold(f64::INFINITY, f64::min);

    // Simulated counts repeat exactly across runs (the check enforces it).
    let r = &fastest_untimed.report;
    let pkts = r.packets_processed;
    let end_to_end = vec![
        m("pkts_per_s", pkts as f64 / fastest_untimed.run_s, "1/s"),
        m("setup_s", setup_median(|s| s.build_s + s.new_s), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let stages = &fastest_traced.stages;
    let stage_ns = |ns: u64| ns as f64 / pkts as f64;
    let per_layer = vec![
        m("trace.build_s", setup_median(|s| s.build_s), "s"),
        m("trace.gen_ns_per_pkt", gen_ns_per_pkt, "ns"),
        m("sim.new_s", setup_median(|s| s.new_s), "s"),
        m("sim.packets", pkts as f64, "count"),
        m(
            "stage.arrival_ns_per_pkt",
            stage_ns(stages.arrival_ns),
            "ns",
        ),
        m(
            "stage.prefetch_ns_per_pkt",
            stage_ns(stages.prefetch_ns),
            "ns",
        ),
        m("stage.lookup_ns_per_pkt", stage_ns(stages.lookup_ns), "ns"),
        m("stage.walk_ns_per_pkt", stage_ns(stages.walk_ns), "ns"),
        m(
            "stage.completion_ns_per_pkt",
            stage_ns(stages.completion_ns),
            "ns",
        ),
        m(
            "stage.sum_over_wall",
            stages.total_ns() as f64 / (fastest_traced.run_s * 1e9),
            "ratio",
        ),
        m(
            "traced_over_untimed",
            fastest_traced.run_s / fastest_untimed.run_s,
            "ratio",
        ),
        m("devtlb.hit_rate", r.devtlb.hit_rate(), "ratio"),
        m(
            "devtlb.misses_per_pkt",
            ratio(r.devtlb.misses(), pkts),
            "1/pkt",
        ),
        m("pb.hit_rate", r.prefetch_buffer.hit_rate(), "ratio"),
        m("pb.served_frac", r.pb_served_fraction, "ratio"),
        m(
            "prefetch.issued_per_pkt",
            ratio(r.prefetches_issued, pkts),
            "1/pkt",
        ),
        m(
            "prefetch.useful_frac",
            ratio(r.prefetch_buffer.hits(), r.prefetches_issued),
            "ratio",
        ),
        m("prefetch.late", r.prefetch_fills_late as f64, "count"),
        m("prefetch.expired", r.prefetch_fills_expired as f64, "count"),
        m(
            "ptb.drop_slots_per_pkt",
            ratio(r.packets_dropped, pkts),
            "1/pkt",
        ),
        m(
            "iommu.walks_per_pkt",
            ratio(r.iommu.requests, pkts),
            "1/pkt",
        ),
        m(
            "iommu.dram_reads_per_walk",
            ratio(r.iommu.dram_accesses, r.iommu.requests),
            "1/walk",
        ),
        m(
            "iommu.full_walk_frac",
            ratio(r.iommu.full_walks, r.iommu.requests),
            "ratio",
        ),
        m("walkcache.l2_hit_rate", r.l2_cache.hit_rate(), "ratio"),
        m("walkcache.l3_hit_rate", r.l3_cache.hit_rate(), "ratio"),
        m("model.gbps", r.gbps(), "Gb/s"),
        m("model.utilization", r.utilization, "ratio"),
        m(
            "model.pkt_p50_ns",
            r.packet_latency.p50().as_secs_f64() * 1e9,
            "ns",
        ),
        m(
            "model.pkt_p99_ns",
            r.packet_latency.p99().as_secs_f64() * 1e9,
            "ns",
        ),
    ];
    (end_to_end, per_layer)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run_one(w: &Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let out = measure(w, seed, seconds);
    let correct = out.failed == 0;
    println!(
        "{} seed={seed} untimed_trials={} traced_runs={} fail_frac={} ({} of {} runs)",
        w.name,
        out.untimed.len(),
        out.traced.len(),
        ratio(out.failed, out.attempted),
        out.failed,
        out.attempted,
    );
    let metrics_json = if out.untimed.is_empty() || out.traced.is_empty() {
        "{}".to_string()
    } else {
        let (end_to_end, per_layer) = metrics(&out);
        let digest = fnv1a64(out.untimed[0].report.to_json().as_bytes());
        println!("  report digest  fnv1a64:{digest:016x}");
        let per_trial: Vec<String> = out
            .untimed
            .iter()
            .map(|t| format!("{:.0}", t.report.packets_processed as f64 / t.run_s))
            .collect();
        println!("  pkts_per_s by trial  {}", per_trial.join(" "));
        for (title, set) in [("end-to-end", &end_to_end), ("per-layer", &per_layer)] {
            println!("  {title}");
            for x in set.iter() {
                println!("    {:<28} {:>18.6} {}", x.name, x.value, x.unit);
            }
        }
        json_metrics(if trace { &per_layer } else { &end_to_end })
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own (see the module docs).
fn run_all(seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, not '{value}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(args.seed, args.seconds, args.trace);
    }
    match WORKLOADS.iter().find(|w| w.name == args.workload) {
        Some(w) => run_one(w, args.seed, args.seconds, args.trace),
        None => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "perfbench: --workload must be one of {} or all",
                names.join(", ")
            );
            ExitCode::from(2)
        }
    }
}
