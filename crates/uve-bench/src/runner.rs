//! The parallel sharded evaluation runner with functional-trace reuse.
//!
//! The evaluation decouples *functional* emulation (which produces a
//! dynamic [`Trace`]) from *timing* replay (the out-of-order model), the
//! same access/execute split the architecture itself makes. Only the
//! timing side depends on the CPU configuration, so the sensitivity sweeps
//! (Figs. 9–11, Sec. VI-B) need exactly one emulation per
//! `(kernel, flavor, vlen, stream level)` point, replayed under N timing
//! configurations — not N re-emulations.
//!
//! Two mechanisms deliver that:
//!
//! - a [`TraceKey`]-indexed cache of emulated traces, with per-key
//!   once-initialization so concurrent workers never emulate the same
//!   point twice (an emulation counter makes this assertable);
//! - a std-only scoped worker pool ([`std::thread::scope`]) pulling
//!   [`Job`]s from a shared `Mutex<VecDeque<_>>`, one worker per core by
//!   default ([`std::thread::available_parallelism`]).
//!
//! Determinism: traces are plain data (`Trace: Send + Sync`), emulation is
//! deterministic, and [`OoOCore::run_warm`] builds all mutable state
//! (memory hierarchy, predictor, Streaming Engine) per call from `&Trace`
//! — there are no hidden mutable globals. Results are written back by
//! submission index, so a parallel run returns the *same* `Vec<Measured>`,
//! in the same order with bit-identical numbers, as `--serial`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::pool::{panic_message, pop};
use crate::Measured;
use uve_core::{EmuConfig, ExecMode, IndirectPacking, StreamFaultPlan, Trace};
use uve_cpu::{CpuConfig, OoOCore};
use uve_isa::MemLevel;
use uve_kernels::{Benchmark, Flavor};
use uve_mem::Memory;

/// Page-fault injection rate used when a job carries a nonzero
/// `fault_seed`: roughly one in this many first-touched stream pages
/// faults (see [`StreamFaultPlan`]).
pub const SWEEP_FAULT_RATE: u64 = 3;

/// One unit of evaluation work: emulate (or fetch the cached trace of)
/// `bench` in `flavor` at `stream_level`, then replay it under `cpu`.
pub struct Job<'a> {
    /// The kernel to measure.
    pub bench: &'a dyn Benchmark,
    /// Code flavour (fixes the vector length).
    pub flavor: Flavor,
    /// Timing-model configuration for the replay.
    pub cpu: CpuConfig,
    /// Memory level streams default to (affects the functional trace).
    pub stream_level: MemLevel,
    /// Indirect-stream chunking mode (affects the functional trace).
    pub packing: IndirectPacking,
    /// Execution strategy for the functional emulation (bit-identical
    /// traces either way; part of the cache key regardless).
    pub exec: ExecMode,
    /// Stream page-fault plan seed (0 disables injection; a nonzero seed
    /// faults ~1/[`SWEEP_FAULT_RATE`] first-touched pages and recovers
    /// precisely, so the final state stays bit-identical).
    pub fault_seed: u64,
}

impl<'a> Job<'a> {
    /// A job at the paper's default L2 stream level, packed indirect
    /// chunking, interpreted execution, and no fault injection.
    pub fn new(bench: &'a dyn Benchmark, flavor: Flavor, cpu: CpuConfig) -> Self {
        Self {
            bench,
            flavor,
            cpu,
            stream_level: MemLevel::L2,
            packing: IndirectPacking::default(),
            exec: ExecMode::default(),
            fault_seed: 0,
        }
    }

    /// The same job under the given execution mode (builder style).
    #[must_use]
    pub fn exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// The trace-cache key this job resolves to.
    pub fn key(&self) -> TraceKey {
        TraceKey::of_full(
            self.bench,
            self.flavor,
            self.stream_level,
            self.packing,
            self.exec,
            self.fault_seed,
        )
    }
}

/// Cache key of a functional trace: everything emulation depends on.
///
/// The program fingerprint covers kernel parameters (sizes, unroll
/// factors) that `name()` alone does not distinguish — e.g. the Fig. 8.E
/// `GEMM-unrolled` instances share a name but differ per unroll factor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Kernel name.
    pub kernel: &'static str,
    /// Code flavour.
    pub flavor: Flavor,
    /// Vector length in bytes (implied by the flavour, kept explicit).
    pub vlen: usize,
    /// Default stream memory level.
    pub stream_level: MemLevel,
    /// Indirect-stream chunking mode.
    pub packing: IndirectPacking,
    /// Execution strategy the trace was produced under.
    pub exec: ExecMode,
    /// Stream fault-plan seed the trace was emulated under (0 = clean).
    pub fault_seed: u64,
    /// Fingerprint of the flavour's program (captures kernel parameters).
    pub program: u64,
}

impl TraceKey {
    /// The key of `(bench, flavor, stream_level, packing)` under
    /// interpreted, fault-free emulation.
    pub fn of(
        bench: &dyn Benchmark,
        flavor: Flavor,
        stream_level: MemLevel,
        packing: IndirectPacking,
    ) -> Self {
        Self::of_full(bench, flavor, stream_level, packing, ExecMode::default(), 0)
    }

    /// The fully qualified key: everything the functional emulation of a
    /// job depends on. This is the trace half of the content address the
    /// distributed sweep cache (`uve-sweep`) keys results by.
    ///
    /// The program fingerprint is [`uve_core::program_fingerprint`] —
    /// FNV-1a over the canonical instruction-word encoding — so it is
    /// stable across builds and machines, which is what lets the sweep
    /// service persist its result cache to disk and reload it after a
    /// restart (or a rebuild). Golden values are pinned in
    /// `tests/fingerprint_golden.rs`.
    pub fn of_full(
        bench: &dyn Benchmark,
        flavor: Flavor,
        stream_level: MemLevel,
        packing: IndirectPacking,
        exec: ExecMode,
        fault_seed: u64,
    ) -> Self {
        Self {
            kernel: bench.name(),
            flavor,
            vlen: flavor.vlen_bytes(),
            stream_level,
            packing,
            exec,
            fault_seed,
            program: uve_core::program_fingerprint(&bench.program(flavor)),
        }
    }
}

/// An emulated, correctness-checked functional trace.
#[derive(Debug)]
pub struct CachedTrace {
    /// The dynamic trace.
    pub trace: Trace,
    /// Committed dynamic instructions.
    pub committed: u64,
}

/// Emulates `bench`/`flavor` at `stream_level` and verifies the result
/// against the kernel's oracle.
///
/// # Panics
///
/// Panics if the kernel mis-executes or fails its correctness check —
/// measurement of an incorrect run would be meaningless.
pub fn emulate_trace(bench: &dyn Benchmark, flavor: Flavor, stream_level: MemLevel) -> CachedTrace {
    emulate_trace_with(bench, flavor, stream_level, IndirectPacking::default())
}

/// [`emulate_trace`] with an explicit [`IndirectPacking`] mode for the
/// packed-vs-unpacked ablation.
///
/// # Panics
///
/// As [`emulate_trace`].
pub fn emulate_trace_with(
    bench: &dyn Benchmark,
    flavor: Flavor,
    stream_level: MemLevel,
    packing: IndirectPacking,
) -> CachedTrace {
    emulate_trace_full(bench, flavor, stream_level, packing, ExecMode::default(), 0)
}

/// [`emulate_trace`] with every functional knob explicit: chunking mode,
/// execution strategy, and an optional stream fault-plan seed (0 = clean;
/// nonzero seeds fault ~1/[`SWEEP_FAULT_RATE`] first-touched pages and
/// recover precisely). This is the single emulation entry point of the
/// distributed sweep worker.
///
/// # Panics
///
/// As [`emulate_trace`].
pub fn emulate_trace_full(
    bench: &dyn Benchmark,
    flavor: Flavor,
    stream_level: MemLevel,
    packing: IndirectPacking,
    exec: ExecMode,
    fault_seed: u64,
) -> CachedTrace {
    let emu_cfg = EmuConfig {
        vlen_bytes: flavor.vlen_bytes(),
        stream_level,
        packing,
        exec,
        ..EmuConfig::default()
    };
    let mut emu = uve_core::Emulator::new(emu_cfg, Memory::new());
    if fault_seed != 0 {
        emu.set_fault_plan(Some(StreamFaultPlan::new(fault_seed, SWEEP_FAULT_RATE)));
    }
    bench.setup(&mut emu);
    let program = bench.program(flavor);
    let result = emu
        .run(&program)
        .unwrap_or_else(|e| panic!("{}/{flavor}: {e}", bench.name()));
    bench
        .check(&emu)
        .unwrap_or_else(|e| panic!("{}/{flavor}: {e}", bench.name()));
    CachedTrace {
        trace: result.trace,
        committed: result.committed,
    }
}

/// Replays a cached trace under `cpu` (warm-run methodology) and packages
/// the result.
pub fn replay(name: &str, flavor: Flavor, cached: &CachedTrace, cpu: &CpuConfig) -> Measured {
    let stats = OoOCore::new(cpu.clone()).run_warm(&cached.trace);
    Measured {
        name: name.to_string(),
        flavor,
        committed: cached.committed,
        stats,
    }
}

#[derive(Default)]
struct TraceCache {
    map: Mutex<HashMap<TraceKey, Arc<OnceLock<Arc<CachedTrace>>>>>,
    emulations: AtomicU64,
}

impl TraceCache {
    /// Returns the trace for `(bench, flavor, stream_level)`, emulating at
    /// most once per key even under concurrent lookups (late arrivals
    /// block on the key's `OnceLock` instead of re-emulating).
    fn get(
        &self,
        bench: &dyn Benchmark,
        flavor: Flavor,
        stream_level: MemLevel,
        packing: IndirectPacking,
        exec: ExecMode,
        fault_seed: u64,
    ) -> Arc<CachedTrace> {
        self.get_timed(bench, flavor, stream_level, packing, exec, fault_seed)
            .0
    }

    /// [`get`](Self::get), plus the host time this call spent emulating:
    /// zero unless it recorded the trace itself.
    fn get_timed(
        &self,
        bench: &dyn Benchmark,
        flavor: Flavor,
        stream_level: MemLevel,
        packing: IndirectPacking,
        exec: ExecMode,
        fault_seed: u64,
    ) -> (Arc<CachedTrace>, Duration) {
        let cell = {
            let mut map = self.map.lock().expect("trace cache poisoned");
            Arc::clone(
                map.entry(TraceKey::of_full(
                    bench,
                    flavor,
                    stream_level,
                    packing,
                    exec,
                    fault_seed,
                ))
                .or_default(),
            )
        };
        let mut emulate = Duration::ZERO;
        let trace = cell.get_or_init(|| {
            self.emulations.fetch_add(1, Ordering::Relaxed);
            let t = Instant::now();
            let trace = emulate_trace_full(bench, flavor, stream_level, packing, exec, fault_seed);
            emulate = t.elapsed();
            Arc::new(trace)
        });
        (Arc::clone(trace), emulate)
    }
}

/// Where one job's host time went, for the verbose per-job line.
#[derive(Debug, Clone, Copy, Default)]
struct JobSplit {
    /// Recording the trace (zero when the trace cache already held it).
    emulate: Duration,
    /// The warm timing replay.
    replay: Duration,
    /// Heap bytes of the job's trace.
    trace_bytes: u64,
}

/// One job that panicked or hit its wall-clock timeout during a sweep.
///
/// Captures everything needed to reproduce the failure in isolation.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// Kernel name.
    pub kernel: String,
    /// Code flavour.
    pub flavor: Flavor,
    /// Vector length in bytes.
    pub vlen: usize,
    /// Default stream memory level.
    pub stream_level: MemLevel,
    /// The panic message (or timeout marker) that killed the job.
    pub reason: String,
}

impl JobFailure {
    /// A one-line reproduction recipe for this failure.
    #[must_use]
    pub fn repro(&self) -> String {
        format!(
            "repro: kernel={} flavor={} vlen={} level={:?} :: {}",
            self.kernel, self.flavor, self.vlen, self.stream_level, self.reason
        )
    }

    /// Whether the job died by wall-clock timeout (vs a model panic).
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        self.reason.contains(uve_core::deadline::TIMEOUT_MARKER)
    }
}

/// How many workers the runner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Strictly sequential on the calling thread (`--serial`).
    Serial,
    /// A scoped pool of N worker threads (`--jobs N`).
    Parallel(usize),
}

/// Per-job wall-clock budget before the cooperative deadline fires
/// (see [`uve_core::deadline`]).
pub const DEFAULT_JOB_TIMEOUT: Duration = Duration::from_secs(600);

/// The sharded evaluation runner.
pub struct Runner {
    mode: RunMode,
    verbose: bool,
    explain: bool,
    exec: ExecMode,
    timeout: Option<Duration>,
    failures: Mutex<Vec<JobFailure>>,
    cache: TraceCache,
}

impl Runner {
    /// A strictly serial runner (the determinism baseline).
    pub fn serial() -> Self {
        Self {
            mode: RunMode::Serial,
            verbose: false,
            explain: false,
            exec: ExecMode::default(),
            timeout: Some(DEFAULT_JOB_TIMEOUT),
            failures: Mutex::new(Vec::new()),
            cache: TraceCache::default(),
        }
    }

    /// A parallel runner with `jobs` workers (clamped to ≥ 1).
    pub fn parallel(jobs: usize) -> Self {
        Self {
            mode: RunMode::Parallel(jobs.max(1)),
            ..Self::serial()
        }
    }

    /// A parallel runner with one worker per available core.
    pub fn auto() -> Self {
        Self::parallel(default_jobs())
    }

    /// Builds a runner from process arguments: `--serial` forces the
    /// sequential baseline, `--jobs N` sets the worker count, `--quiet`
    /// silences per-job wall-clock reporting, `--explain` appends the
    /// cycle-attribution report to every figure, `--timeout SECS` sets the
    /// per-job wall-clock budget (0 disables it; default 600 s),
    /// `--exec-mode interpret|translated` picks the functional execution
    /// strategy (bit-identical results; translated is faster). Default:
    /// one worker per core, reporting on, no explain, interpreted.
    /// Unrecognized arguments are ignored so the figure binaries can keep
    /// their own flags.
    pub fn from_args() -> Self {
        Self::from_cli(&crate::Cli::parse())
    }

    /// [`Runner::from_args`] over an already-parsed [`Cli`](crate::Cli) —
    /// for binaries that also read their own flags from the same parse.
    pub fn from_cli(cli: &crate::Cli) -> Self {
        let mut runner = if cli.has("--serial") {
            Self::serial()
        } else {
            Self::parallel(cli.parsed("--jobs").unwrap_or_else(default_jobs))
        };
        runner.verbose = !cli.has("--quiet");
        runner.explain = cli.has("--explain");
        if let Some(mode) = cli.value("--exec-mode") {
            runner.exec = parse_exec_mode(mode).unwrap_or_else(|| {
                panic!("bad --exec-mode {mode:?}: expected interpret or translated")
            });
        }
        if let Some(secs) = cli.parsed::<u64>("--timeout") {
            runner.timeout = (secs > 0).then(|| Duration::from_secs(secs));
        }
        runner
    }

    /// Enables or disables per-job wall-clock reporting on stderr.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Enables or disables the `--explain` cycle-attribution report.
    pub fn explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// Sets the functional execution strategy used by
    /// [`Runner::trace`]/[`Runner::trace_with`] (builder style).
    #[must_use]
    pub fn exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// The execution strategy this runner emulates traces under
    /// (`--exec-mode`; figure generators stamp it onto their jobs).
    pub fn exec_mode(&self) -> ExecMode {
        self.exec
    }

    /// Sets the per-job wall-clock budget (`None` disables timeouts).
    pub fn timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// When `--explain` is on, validates the conservation laws of every
    /// measurement and prints the "where the cycles go" report; a no-op
    /// otherwise. Figure generators call this right after
    /// [`Runner::run`].
    ///
    /// # Panics
    ///
    /// Panics if any conservation law is violated — an unexplained cycle
    /// means the attribution (or the model) is wrong, and the report would
    /// be misleading.
    pub fn maybe_explain(&self, results: &[Measured]) {
        if !self.explain {
            return;
        }
        let report = crate::StatsReport::of(results);
        report.check().expect("cycle-accounting conservation");
        print!("{}", report.render());
    }

    /// The runner's mode.
    pub fn mode(&self) -> RunMode {
        self.mode
    }

    /// Number of functional emulations performed so far — the trace-reuse
    /// observable: a sweep of N timing configurations over K kernel points
    /// must raise this by at most K.
    pub fn emulations(&self) -> u64 {
        self.cache.emulations.load(Ordering::Relaxed)
    }

    /// The cached trace for an evaluation point, emulating it on first use
    /// (shared with jobs run later).
    pub fn trace(
        &self,
        bench: &dyn Benchmark,
        flavor: Flavor,
        stream_level: MemLevel,
    ) -> Arc<CachedTrace> {
        self.cache.get(
            bench,
            flavor,
            stream_level,
            IndirectPacking::default(),
            self.exec,
            0,
        )
    }

    /// [`Runner::trace`] with an explicit [`IndirectPacking`] mode, for
    /// the packed-vs-unpacked ablation.
    pub fn trace_with(
        &self,
        bench: &dyn Benchmark,
        flavor: Flavor,
        stream_level: MemLevel,
        packing: IndirectPacking,
    ) -> Arc<CachedTrace> {
        self.cache
            .get(bench, flavor, stream_level, packing, self.exec, 0)
    }

    /// [`Runner::trace`] with every functional knob explicit — the
    /// distributed sweep worker's cache entry point.
    pub fn trace_full(
        &self,
        bench: &dyn Benchmark,
        flavor: Flavor,
        stream_level: MemLevel,
        packing: IndirectPacking,
        exec: ExecMode,
        fault_seed: u64,
    ) -> Arc<CachedTrace> {
        self.cache
            .get(bench, flavor, stream_level, packing, exec, fault_seed)
    }

    /// Warms the trace cache for `points` using the worker pool; later
    /// [`Runner::trace`]/[`Runner::run`] calls on the same points are pure
    /// cache hits.
    ///
    /// Each emulation runs under the same panic isolation and deadline as
    /// a sweep job: a point that fails to emulate is recorded in
    /// [`Runner::failures`] instead of taking the warm-up down. Callers
    /// that go on to use [`Runner::trace`] directly should bail out first
    /// if [`Runner::finish`] reports failures.
    pub fn warm_traces(&self, points: &[(&dyn Benchmark, Flavor, MemLevel)]) {
        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..points.len()).collect());
        self.pooled(points.len(), &|| {
            while let Some(i) = pop(&queue) {
                let (bench, flavor, level) = points[i];
                uve_core::deadline::arm(self.timeout);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.cache.get(
                        bench,
                        flavor,
                        level,
                        IndirectPacking::default(),
                        self.exec,
                        0,
                    );
                }));
                uve_core::deadline::disarm();
                if let Err(payload) = outcome {
                    let failure = JobFailure {
                        index: i,
                        kernel: bench.name().to_string(),
                        flavor,
                        vlen: flavor.vlen_bytes(),
                        stream_level: level,
                        reason: panic_message(payload),
                    };
                    eprintln!("[warm {i:>3}] FAILED: {}", failure.repro());
                    self.failures
                        .lock()
                        .expect("failure log poisoned")
                        .push(failure);
                }
            }
        });
    }

    /// Runs every job and returns the measurements **in submission order**,
    /// independent of worker scheduling. Serial and parallel modes produce
    /// bit-identical results.
    pub fn run(&self, jobs: &[Job<'_>]) -> Vec<Measured> {
        let t0 = Instant::now();
        let results: Vec<Mutex<Option<Measured>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..jobs.len()).collect());
        let job_nanos = AtomicU64::new(0);

        let worker = || {
            while let Some(i) = pop(&queue) {
                let job = &jobs[i];
                let jt = Instant::now();
                let (m, split) = self.run_one(i, job);
                let elapsed = jt.elapsed();
                job_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
                if self.verbose {
                    eprintln!(
                        "[job {i:>3}] {:<16} {:<6} {:>9.1} ms (emulate {:>8.1} ms, \
                         replay {:>8.1} ms, trace {:>7.1} MB)",
                        job.bench.name(),
                        job.flavor.to_string(),
                        elapsed.as_secs_f64() * 1e3,
                        split.emulate.as_secs_f64() * 1e3,
                        split.replay.as_secs_f64() * 1e3,
                        split.trace_bytes as f64 / f64::from(1 << 20),
                    );
                }
                *results[i].lock().expect("result slot poisoned") = Some(m);
            }
        };
        self.pooled(jobs.len(), &worker);

        let wall = t0.elapsed().as_secs_f64();
        let agg = job_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
        if self.verbose && !jobs.is_empty() {
            let workers = match self.mode {
                RunMode::Serial => 1,
                RunMode::Parallel(n) => n,
            };
            eprintln!(
                "[runner] {} job(s) on {workers} worker(s): {wall:.2} s wall, \
                 {agg:.2} s aggregate ({:.2}x), {} emulation(s)",
                jobs.len(),
                if wall > 0.0 { agg / wall } else { 1.0 },
                self.emulations(),
            );
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker completed every job")
            })
            .collect()
    }

    /// Evaluates one job under panic isolation and a cooperative deadline,
    /// returning its measurement and where its host time went.
    ///
    /// A panicking or timed-out job yields a placeholder measurement
    /// (`"<kernel> [FAILED]"` with zeroed stats, which trivially satisfies
    /// the conservation laws) and is recorded in [`Runner::failures`] —
    /// the rest of the sweep keeps running and the figure still renders.
    fn run_one(&self, index: usize, job: &Job<'_>) -> (Measured, JobSplit) {
        uve_core::deadline::arm(self.timeout);
        let mut split = JobSplit::default();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (cached, emulate) = self.cache.get_timed(
                job.bench,
                job.flavor,
                job.stream_level,
                job.packing,
                job.exec,
                job.fault_seed,
            );
            split.emulate = emulate;
            split.trace_bytes = cached.trace.heap_bytes();
            let t = Instant::now();
            let m = replay(job.bench.name(), job.flavor, &cached, &job.cpu);
            split.replay = t.elapsed();
            m
        }));
        uve_core::deadline::disarm();
        let m = match outcome {
            Ok(m) => m,
            Err(payload) => {
                let failure = JobFailure {
                    index,
                    kernel: job.bench.name().to_string(),
                    flavor: job.flavor,
                    vlen: job.flavor.vlen_bytes(),
                    stream_level: job.stream_level,
                    reason: panic_message(payload),
                };
                eprintln!("[job {index:>3}] FAILED: {}", failure.repro());
                self.failures
                    .lock()
                    .expect("failure log poisoned")
                    .push(failure);
                Measured {
                    name: format!("{} [FAILED]", job.bench.name()),
                    flavor: job.flavor,
                    committed: 0,
                    stats: uve_cpu::TimingStats::default(),
                }
            }
        };
        (m, split)
    }

    /// The failures collected so far, in the order they were detected.
    pub fn failures(&self) -> Vec<JobFailure> {
        self.failures.lock().expect("failure log poisoned").clone()
    }

    /// Final harness verdict: prints one repro line per failed job to
    /// stderr and returns the process exit code (0 if every job
    /// succeeded, 1 otherwise). Figure binaries end with
    /// `std::process::exit(runner.finish())`.
    pub fn finish(&self) -> i32 {
        let failures = self.failures();
        if failures.is_empty() {
            return 0;
        }
        eprintln!("[runner] {} job(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {}", f.repro());
        }
        1
    }

    /// Runs `worker` closures: inline when serial, else on a scoped pool
    /// of `min(workers, work_items)` threads.
    fn pooled(&self, work_items: usize, worker: &(dyn Fn() + Sync)) {
        crate::pool::pooled(self.mode, work_items, worker);
    }
}

/// One worker per available core (1 if the count is unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses an `--exec-mode` value (`interpret` or `translated`).
pub fn parse_exec_mode(s: &str) -> Option<ExecMode> {
    match s.to_ascii_lowercase().as_str() {
        "interpret" | "interpreter" => Some(ExecMode::Interpret),
        "translated" | "translate" => Some(ExecMode::Translated),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_kernels::saxpy::Saxpy;

    #[test]
    fn trace_is_send_sync_plain_data() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
        assert_send_sync::<CachedTrace>();
        assert_send_sync::<Job<'_>>();
    }

    #[test]
    fn cache_emulates_once_per_key() {
        let runner = Runner::parallel(4);
        let bench = Saxpy::new(256);
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                let cpu = CpuConfig {
                    vec_prf: 48 + 16 * (i % 3),
                    ..CpuConfig::default()
                };
                Job::new(&bench, Flavor::Uve, cpu)
            })
            .collect();
        let out = runner.run(&jobs);
        assert_eq!(out.len(), 6);
        assert_eq!(runner.emulations(), 1, "one kernel point → one emulation");
        // Identical CPU configs must give identical cycle counts.
        assert_eq!(out[0].stats.cycles, out[3].stats.cycles);
    }

    #[test]
    fn job_split_charges_emulation_only_on_a_miss() {
        let runner = Runner::serial().verbose(false);
        let bench = Saxpy::new(256);
        let job = Job::new(&bench, Flavor::Uve, CpuConfig::default());
        let (first, miss) = runner.run_one(0, &job);
        let (second, hit) = runner.run_one(1, &job);
        assert_eq!(first.stats, second.stats);
        assert!(miss.emulate > Duration::ZERO && miss.replay > Duration::ZERO);
        assert_eq!(hit.emulate, Duration::ZERO, "a cache hit records nothing");
        let t = runner.trace(&bench, Flavor::Uve, MemLevel::L2);
        assert_eq!(miss.trace_bytes, t.trace.heap_bytes());
        assert_eq!(hit.trace_bytes, miss.trace_bytes);
    }

    #[test]
    fn distinct_program_parameters_get_distinct_keys() {
        use uve_kernels::gemm::GemmUnrolled;
        let a = GemmUnrolled::new(8, 32, 8, 1);
        let b = GemmUnrolled::new(8, 32, 8, 2);
        let ka = TraceKey::of(&a, Flavor::Uve, MemLevel::L2, IndirectPacking::Packed);
        let kb = TraceKey::of(&b, Flavor::Uve, MemLevel::L2, IndirectPacking::Packed);
        assert_eq!(ka.kernel, kb.kernel, "same display name");
        assert_ne!(ka, kb, "different programs must not share a trace");
    }

    /// A benchmark whose correctness check always fails, so
    /// [`emulate_trace`] panics — the vehicle for poisoned-job tests.
    struct PoisonedBench(Saxpy);

    impl Benchmark for PoisonedBench {
        fn name(&self) -> &'static str {
            "poisoned"
        }
        fn setup(&self, emu: &mut uve_core::Emulator) {
            self.0.setup(emu);
        }
        fn program(&self, flavor: Flavor) -> uve_isa::Program {
            self.0.program(flavor)
        }
        fn check(&self, _emu: &uve_core::Emulator) -> Result<(), String> {
            Err("deliberately poisoned job".to_string())
        }
    }

    #[test]
    fn poisoned_job_is_isolated_and_reported() {
        let good = Saxpy::new(256);
        let bad = PoisonedBench(Saxpy::new(256));
        let cpu = CpuConfig::default();
        let sweep = vec![
            Job::new(&good, Flavor::Uve, cpu.clone()),
            Job::new(&bad, Flavor::Uve, cpu.clone()),
            Job::new(&good, Flavor::Scalar, cpu.clone()),
        ];

        let clean = Runner::serial().verbose(false);
        let reference = clean.run(&[
            Job::new(&good, Flavor::Uve, cpu.clone()),
            Job::new(&good, Flavor::Scalar, cpu.clone()),
        ]);
        assert_eq!(clean.finish(), 0, "clean sweep exits zero");

        let runner = Runner::parallel(8).verbose(false);
        let out = runner.run(&sweep);
        assert_eq!(out.len(), 3, "every slot is filled");
        // The healthy jobs are bit-identical to the clean serial sweep.
        assert_eq!(out[0].stats, reference[0].stats);
        assert_eq!(out[2].stats, reference[1].stats);
        // The poisoned slot is a marked placeholder…
        assert_eq!(out[1].name, "poisoned [FAILED]");
        assert_eq!(out[1].committed, 0);
        // …with a repro line and a nonzero exit.
        let failures = runner.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 1);
        let repro = failures[0].repro();
        assert!(repro.contains("kernel=poisoned"), "{repro}");
        assert!(repro.contains("deliberately poisoned job"), "{repro}");
        assert!(!failures[0].is_timeout());
        assert_eq!(runner.finish(), 1);
    }

    #[test]
    fn timed_out_job_is_classified_as_timeout() {
        let bench = Saxpy::new(4096);
        let runner = Runner::serial()
            .verbose(false)
            .timeout(Some(Duration::from_nanos(1)));
        let out = runner.run(&[Job::new(&bench, Flavor::Uve, CpuConfig::default())]);
        assert!(out[0].name.ends_with("[FAILED]"));
        let failures = runner.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].is_timeout(), "{}", failures[0].reason);
        assert_eq!(runner.finish(), 1);
    }

    #[test]
    fn from_parallel_pool_matches_serial() {
        let bench = Saxpy::new(512);
        let cpu = CpuConfig::default();
        fn jobs<'a>(b: &'a Saxpy, cpu: &CpuConfig) -> Vec<Job<'a>> {
            vec![Job::new(b, Flavor::Uve, cpu.clone())]
        }
        let s = Runner::serial().run(&jobs(&bench, &cpu));
        let p = Runner::parallel(2).run(&jobs(&bench, &cpu));
        assert_eq!(s[0].committed, p[0].committed);
        assert_eq!(s[0].stats.cycles, p[0].stats.cycles);
    }
}
