//! Host-side benchmark of the UVE simulator pipeline (see `README.md`).
//!
//! One run measures one workload for `--seconds`: it builds the job grid
//! from `--seed` several times (the timed set-up), then runs the grid
//! repeatedly with a cold trace cache on two workers and reports the
//! medians. `--trace 1` pairs every production pass with a traced pass of
//! the same jobs and reports the per-layer split instead.

#![warn(missing_docs)]

pub mod digest;
pub mod host;
pub mod layers;
pub mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use uve_kernels::Flavor;

use host::{median, tail, Tail, Usage};
use layers::{flavor_key, Spans};
use workload::{
    run_pass, PassResult, Plan, Size, Task, TraceCounts, Workload, DEFAULT_SEED, WORKERS,
};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_minst_per_s", "Minst/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_ratio", "fraction"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("runner.emulations", "count"),
    ("runner.trace_hit_ratio", "fraction"),
    ("runner.idle_s", "s"),
    ("kernels.program_s", "s"),
    ("kernels.setup_s", "s"),
    ("kernels.check_s", "s"),
    ("emulator.record_s", "s"),
    ("emulator.record_minst_per_s", "Minst/s"),
    ("emulator.untraced_s", "s"),
    ("emulator.untraced_minst_per_s", "Minst/s"),
    ("emulator.record_overhead", "ratio"),
    ("emulator.record_s.uve", "s"),
    ("emulator.record_s.sve", "s"),
    ("emulator.record_s.neon", "s"),
    ("emulator.record_s.scalar", "s"),
    ("trace.ops", "count"),
    ("trace.stream_lines", "count"),
    ("trace.bytes", "bytes"),
    ("trace.bytes_per_op", "bytes"),
    ("cpu.cold_s", "s"),
    ("cpu.warm_s", "s"),
    ("cpu.self_s", "s"),
    ("cpu.mcycles_per_s", "Mcycles/s"),
    ("cpu.mops_per_s", "Mops/s"),
    ("cpu.replay_s.uve", "s"),
    ("cpu.replay_s.sve", "s"),
    ("cpu.replay_s.neon", "s"),
    ("cpu.replay_s.scalar", "s"),
    ("mem.core_calls", "count"),
    ("mem.core_s", "s"),
    ("mem.stream_calls", "count"),
    ("mem.stream_s", "s"),
    ("mem.ns_per_call", "ns"),
    ("smp.lockstep_s", "s"),
    ("smp.mcycles_per_s", "Mcycles/s"),
    ("smp.snoops", "count"),
    ("host.user_s", "s"),
    ("host.sys_s", "s"),
    ("host.minor_faults", "count"),
    ("traced.overhead", "ratio"),
];

/// Timed batches of grid builds for `setup_s`; the median batch is
/// reported.
pub const SETUP_BATCHES: usize = 15;
/// Grid builds per batch, timed as one interval: one build takes
/// microseconds, too short to time on its own.
pub const SETUP_BUILDS: usize = 4000;

/// Pinned deterministic sections: `workload seed digest committed
/// trace.ops trace.stream_lines`, `*` for seed-independent workloads.
const PINS: &str = include_str!("../pins.txt");

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Problem sizes (tests use [`Size::Tiny`]).
    pub size: Size,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let at = args
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            args.get(at + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?
                .parse()
                .map_err(|_| format!("{flag} must be a whole number"))
        };
        let workload = value("--workload")?;
        Ok(Self {
            workload: Workload::parse(workload).ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {workload:?}; expected one of {names:?}")
            })?,
            seed: number("--seed")?,
            seconds: number("--seconds")?,
            trace: match value("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
            size: Size::Full,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The deterministic section: identical on every pass of a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deterministic {
    /// FNV-1a over every job's simulated results in canonical order.
    pub digest: u64,
    /// Simulated committed instructions of all jobs.
    pub committed: u64,
    /// Trace counts over the distinct traces.
    pub traces: TraceCounts,
}

/// Everything a run measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Jobs attempted over all production passes.
    pub attempted: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// The metrics of the requested kind.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The production pass's deterministic section.
    pub deterministic: Deterministic,
    /// The traced pass's, when traced.
    pub traced_deterministic: Option<Deterministic>,
    /// Median wall time of the traced passes (0 when untraced).
    pub traced_wall_s: f64,
}

/// What a finished pass leaves behind once its traces are dropped.
struct Summary {
    wall_s: f64,
    job_ms: Vec<f64>,
    failures: Vec<String>,
    det: Deterministic,
    job_digests: Vec<Option<u64>>,
    emulations: u64,
    usage: Usage,
    spans: Spans,
}

fn summarize(plan: &Plan, pass: PassResult) -> Summary {
    let mut failures: Vec<String> = Vec::new();
    for (job, r) in plan.jobs.iter().zip(&pass.jobs) {
        if let Err(e) = r {
            failures.push(format!(
                "{}/{}: {e}",
                plan.suite[job.bench].name(),
                job.flavor
            ));
        }
    }
    // The two ways of emulating a point must agree on what ran.
    for (job, r) in plan.jobs.iter().zip(&pass.jobs) {
        if !matches!(job.task, Task::Untraced) {
            continue;
        }
        let recorded = plan.jobs.iter().zip(&pass.jobs).find(|(j, _)| {
            matches!(j.task, Task::Record) && j.bench == job.bench && j.flavor == job.flavor
        });
        if let (Ok((u, _)), Some((_, Ok((rec, _))))) = (r, recorded) {
            if u.committed != rec.committed {
                failures.push(format!(
                    "{}/{}: untraced run committed {} instructions, recorded run {}",
                    plan.suite[job.bench].name(),
                    job.flavor,
                    u.committed,
                    rec.committed
                ));
            }
        }
    }
    let ok = || pass.jobs.iter().flatten();
    Summary {
        wall_s: pass.wall.as_secs_f64(),
        job_ms: ok().map(|(_, ms)| *ms).collect(),
        failures,
        det: Deterministic {
            digest: pass.digest(),
            committed: ok().map(|(o, _)| o.committed).sum(),
            traces: pass.trace_counts(),
        },
        job_digests: pass
            .jobs
            .iter()
            .map(|j| j.as_ref().ok().map(|(o, _)| o.digest()))
            .collect(),
        emulations: pass.emulations,
        usage: pass.usage,
        spans: pass.spans,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of one round: a production pass `p` and the
/// traced pass `t` of the same jobs.
fn layer_metrics(p: &Summary, t: &Summary) -> BTreeMap<&'static str, f64> {
    let s = &t.spans;
    let secs = |n: &str| s.get(n).secs();
    let count = |n: &str| s.get(n).count as f64;
    let flavors = Flavor::all().map(flavor_key);
    let record_by = flavors.map(|f| secs(&format!("emulator.record.{f}")));
    let replay_by = flavors.map(|f| secs(&format!("cpu.replay.{f}")));
    let record_s: f64 = record_by.iter().sum();
    let untraced_s = secs("emulator.untraced");
    let record_rate = ratio(count("emulator.record.insts"), record_s) / 1e6;
    let untraced_rate = ratio(count("emulator.untraced.insts"), untraced_s) / 1e6;
    let replay_s = secs("cpu.cold") + secs("cpu.warm");
    let (core, stream) = (s.get("mem.core"), s.get("mem.stream"));
    let smp_s = secs("smp.lockstep");
    let tc = t.det.traces;
    let job_s: f64 = p.job_ms.iter().sum::<f64>() / 1e3;
    let mut m = BTreeMap::new();
    m.insert("runner.emulations", p.emulations as f64);
    m.insert(
        "runner.trace_hit_ratio",
        1.0 - ratio(p.emulations as f64, p.det.traces.lookups as f64),
    );
    m.insert("runner.idle_s", WORKERS as f64 * p.wall_s - job_s);
    m.insert("kernels.program_s", secs("kernels.program"));
    m.insert("kernels.setup_s", secs("kernels.setup"));
    m.insert("kernels.check_s", secs("kernels.check"));
    m.insert("emulator.record_s", record_s);
    m.insert("emulator.record_minst_per_s", record_rate);
    m.insert("emulator.untraced_s", untraced_s);
    m.insert("emulator.untraced_minst_per_s", untraced_rate);
    m.insert(
        "emulator.record_overhead",
        ratio(untraced_rate, record_rate),
    );
    for (name, v) in [
        "emulator.record_s.uve",
        "emulator.record_s.sve",
        "emulator.record_s.neon",
        "emulator.record_s.scalar",
    ]
    .into_iter()
    .zip(record_by)
    {
        m.insert(name, v);
    }
    m.insert("trace.ops", tc.ops as f64);
    m.insert("trace.stream_lines", tc.stream_lines as f64);
    m.insert("trace.bytes", tc.bytes as f64);
    m.insert("trace.bytes_per_op", ratio(tc.bytes as f64, tc.ops as f64));
    m.insert("cpu.cold_s", secs("cpu.cold"));
    m.insert("cpu.warm_s", secs("cpu.warm"));
    m.insert("cpu.self_s", replay_s - core.secs() - stream.secs());
    m.insert(
        "cpu.mcycles_per_s",
        ratio(count("cpu.cycles"), replay_s) / 1e6,
    );
    m.insert("cpu.mops_per_s", ratio(count("cpu.ops"), replay_s) / 1e6);
    for (name, v) in [
        "cpu.replay_s.uve",
        "cpu.replay_s.sve",
        "cpu.replay_s.neon",
        "cpu.replay_s.scalar",
    ]
    .into_iter()
    .zip(replay_by)
    {
        m.insert(name, v);
    }
    m.insert("mem.core_calls", core.count as f64);
    m.insert("mem.core_s", core.secs());
    m.insert("mem.stream_calls", stream.count as f64);
    m.insert("mem.stream_s", stream.secs());
    m.insert(
        "mem.ns_per_call",
        ratio(
            (core.nanos + stream.nanos) as f64,
            (core.count + stream.count) as f64,
        ),
    );
    m.insert("smp.lockstep_s", secs("smp.lockstep"));
    m.insert("smp.mcycles_per_s", ratio(count("smp.cycles"), smp_s) / 1e6);
    m.insert("smp.snoops", count("smp.snoops"));
    m.insert("host.user_s", p.usage.user_s);
    m.insert("host.sys_s", p.usage.sys_s);
    m.insert("host.minor_faults", p.usage.minor_faults as f64);
    m.insert("traced.overhead", ratio(t.wall_s, p.wall_s));
    m
}

/// Each layer's traced self time, for the `≤ workers × wall` sanity
/// check: spans never overlap within a job except replay, which contains
/// the memory calls and is reported net of them.
pub fn layer_self_seconds(layers: &BTreeMap<&'static str, f64>) -> [(&'static str, f64); 5] {
    let g = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    [
        (
            "kernels",
            g("kernels.program_s") + g("kernels.setup_s") + g("kernels.check_s"),
        ),
        (
            "emulator",
            g("emulator.record_s") + g("emulator.untraced_s"),
        ),
        ("cpu", g("cpu.self_s")),
        ("mem", g("mem.core_s") + g("mem.stream_s")),
        ("smp", g("smp.lockstep_s")),
    ]
}

fn pinned(workload: Workload, seed: u64) -> Option<(u64, u64, u64, u64)> {
    PINS.lines()
        .map(str::split_whitespace)
        .filter_map(|mut f| {
            let (w, s) = (f.next()?, f.next()?);
            if w != workload.name() || (s != "*" && s.parse() != Ok(seed)) {
                return None;
            }
            let digest = u64::from_str_radix(f.next()?.trim_start_matches("0x"), 16).ok()?;
            let mut n = || f.next()?.parse::<u64>().ok();
            Some((digest, n()?, n()?, n()?))
        })
        .next()
}

fn describe(label: &str, d: &Deterministic) -> String {
    format!(
        "{label}: digest=0x{:016x} committed={} trace.ops={} trace.stream_lines={} trace.bytes={} traces={}",
        d.digest, d.committed, d.traces.ops, d.traces.stream_lines, d.traces.bytes, d.traces.traces
    )
}

/// The timed set-up: builds the job grid [`SETUP_BATCHES`] ×
/// [`SETUP_BUILDS`] times and returns a fresh grid with each batch's time
/// per build.
fn set_up(args: &Args) -> (Plan, Vec<f64>) {
    let per_build = (0..SETUP_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_BUILDS {
                std::hint::black_box(Plan::build(args.workload, args.seed, args.size));
            }
            t.elapsed().as_secs_f64() / SETUP_BUILDS as f64
        })
        .collect();
    (Plan::build(args.workload, args.seed, args.size), per_build)
}

/// Runs one workload as `args` asks.
///
/// # Panics
///
/// Panics if `/proc/self` is unreadable.
pub fn run(args: &Args) -> Report {
    let mut notes = vec![format!(
        "workload={} seed={} seconds={} trace={} workers={WORKERS}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )];
    let (plan, setups) = set_up(args);

    let mut problems: Vec<String> = Vec::new();
    let mut passes: Vec<Summary> = Vec::new();
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced_det = None;
    let mut traced_walls: Vec<f64> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut peak_rss_mb = None;
    loop {
        let round = Instant::now();
        let p = summarize(&plan, run_pass(&plan, false));
        // One pass is what a figure run pays; the later passes of a run
        // only add allocator fragmentation, which varies from run to run.
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(host::peak_rss_mb().expect("/proc/self/status"));
        }
        if args.trace {
            let t = summarize(&plan, run_pass(&plan, true));
            if t.job_digests != p.job_digests {
                let bad = (0..plan.jobs.len())
                    .filter(|&i| t.job_digests[i] != p.job_digests[i])
                    .count();
                problems.push(format!(
                    "traced pass differs from the production pass on {bad} job(s)"
                ));
            }
            if t.emulations != p.emulations {
                problems.push(format!(
                    "traced pass recorded {} traces, production pass {}",
                    t.emulations, p.emulations
                ));
            }
            problems.extend(t.failures.iter().map(|f| format!("traced: {f}")));
            let layers = layer_metrics(&p, &t);
            for (layer, secs) in layer_self_seconds(&layers) {
                if !(0.0..=WORKERS as f64 * t.wall_s).contains(&secs) {
                    problems.push(format!(
                        "{layer} self time {secs:.3} s does not fit {WORKERS} workers × {:.3} s",
                        t.wall_s
                    ));
                }
            }
            traced_det = Some(t.det);
            traced_walls.push(t.wall_s);
            rounds.push(layers);
        }
        if let Some(first) = passes.first() {
            if first.det != p.det {
                problems.push("deterministic section changed between passes".to_string());
            }
        }
        passes.push(p);
        longest = longest.max(round.elapsed());
        if start.elapsed() + longest > budget {
            break;
        }
    }

    let det = passes[0].det;
    notes.push(describe("deterministic", &det));
    if let Some(t) = &traced_det {
        notes.push(describe("traced deterministic", t));
    }
    if args.size == Size::Full {
        let want = (
            det.digest,
            det.committed,
            det.traces.ops,
            det.traces.stream_lines,
        );
        match pinned(args.workload, args.seed) {
            Some(pin) if pin == want => notes.push("pin: match".to_string()),
            Some(pin) => problems.push(format!(
                "pin mismatch: pinned (digest, committed, trace.ops, trace.stream_lines) = \
                 (0x{:016x}, {}, {}, {}), measured (0x{:016x}, {}, {}, {})",
                pin.0, pin.1, pin.2, pin.3, want.0, want.1, want.2, want.3
            )),
            None if args.seed == DEFAULT_SEED => {
                problems.push("no pin for the default seed".to_string());
            }
            None => notes.push("pin: none for this seed".to_string()),
        }
    }

    let attempted = (plan.jobs.len() * passes.len()) as u64;
    let failures: Vec<&String> = passes.iter().flat_map(|p| &p.failures).collect();
    let failed = failures.len() as u64;
    problems.extend(failures.iter().map(|f| format!("failed: {f}")));
    let group = plan.jobs.len();
    for (i, p) in passes.iter().enumerate() {
        notes.push(format!(
            "pass {i}: wall={:.3}s job_ms_p50={:.2} job_ms_tail={:.2} user={:.2}s sys={:.2}s",
            p.wall_s,
            median(&p.job_ms),
            tail(&p.job_ms, group).value,
            p.usage.user_s,
            p.usage.sys_s
        ));
    }
    // Job times of all passes pooled; the tail keeps its per-pass
    // definition (TAIL_BEYOND jobs of each pass beyond it).
    let job_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_ms.iter().copied())
        .collect();
    let job_tail: Tail = tail(&job_ms, group);
    notes.push(format!(
        "setup: {SETUP_BATCHES} batches of {SETUP_BUILDS} builds, per build min={:.3e}s median={:.3e}s max={:.3e}s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        median(&setups),
        setups.iter().copied().fold(0.0, f64::max)
    ));
    notes.push(format!(
        "passes={} jobs/pass={group} tail=p{:.1} ({} of {group} jobs per pass beyond) failed_ratio={}",
        passes.len(),
        job_tail.percentile,
        job_tail.beyond,
        ratio(failed as f64, attempted as f64)
    ));

    let values: BTreeMap<&'static str, f64> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let per_round: Vec<f64> = rounds.iter().map(|r| r[name]).collect();
                (name, median(&per_round))
            })
            .collect()
    } else {
        BTreeMap::from([
            (
                "sim_minst_per_s",
                median(
                    &passes
                        .iter()
                        .map(|p| ratio(p.det.committed as f64, p.wall_s) / 1e6)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("job_ms_p50", median(&job_ms)),
            ("job_ms_tail", job_tail.value),
            ("peak_rss_mb", peak_rss_mb.expect("at least one pass")),
            ("setup_s", median(&setups)),
            ("ok_ratio", 1.0 - ratio(failed as f64, attempted as f64)),
        ])
    };
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<Metric> = table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values[name],
            unit,
        })
        .collect();
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    notes.extend(problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
        deterministic: det,
        traced_deterministic: traced_det,
        traced_wall_s: median(&traced_walls),
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
