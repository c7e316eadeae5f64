//! The workloads: each builds its job grid from `--seed`, and a pass
//! runs the grid as a closed loop on the runner's two-worker pool, either
//! through the production entry points or through the traced ones.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use uve_bench::runner::DEFAULT_JOB_TIMEOUT;
use uve_bench::{replay, run_isolated, CachedTrace, RunMode, Runner, TraceKey};
use uve_core::engine::EngineConfig;
use uve_core::{ExecMode, IndirectPacking, Trace};
use uve_cpu::{CpuConfig, TimingStats};
use uve_isa::MemLevel;
use uve_kernels::{
    dsp::fir::Fir, gemm::Gemm, jacobi::Jacobi2d, mamr::Mamr, saxpy::Saxpy, sparse::spmv::Spmv,
    stream::Stream, threemm::ThreeMm, Benchmark, Flavor,
};
use uve_smp::{run_lockstep, shard_trace};

use crate::digest::{self, Fnv};
use crate::host::Usage;
use crate::layers::{emulate, flavor_key, replay_traced, Spans};

/// Worker threads: what the figure binaries use on a two-core host.
pub const WORKERS: usize = 2;
/// The seed whose deterministic section is pinned for every workload.
pub const DEFAULT_SEED: u64 = 1;
/// Timing configs drawn per point in `timing-sweep`: a multiple of 12, so
/// the 3, 4 and 3 values of the three axes can each appear equally often.
pub const SWEEP_CONFIGS: usize = 12;
const _: () = assert!(SWEEP_CONFIGS.is_multiple_of(12));
/// Cores of the `smp` workload's runs.
pub const SMP_CORES: usize = 2;
/// Written lines every shard keeps at its original address (the `smp`
/// binary's `--shared` default).
pub const SHARED_LINES: usize = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every extended-suite point × 4 flavors, recorded and replayed warm.
    Figures,
    /// Sensitivity points replayed under seed-drawn timing configs.
    TimingSweep,
    /// The figures points, emulated with and without trace recording.
    Functional,
    /// Two-core lockstep shards.
    Smp,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::TimingSweep,
        Workload::Functional,
        Workload::Smp,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::TimingSweep => "timing-sweep",
            Workload::Functional => "functional",
            Workload::Smp => "smp",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes: the benchmark's, or tiny ones for its own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The evaluation sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// What one job does.
#[derive(Debug, Clone)]
pub enum Task {
    /// Fetch (or record) the point's trace, then replay it warm under the
    /// config.
    Replay(Box<CpuConfig>),
    /// Record the point's trace.
    Record,
    /// Emulate the point without recording a trace.
    Untraced,
    /// Replay the point's trace sharded over [`SMP_CORES`] lockstep cores.
    Lockstep,
}

/// One job of a grid.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Index into [`Plan::suite`].
    pub bench: usize,
    /// Code flavor.
    pub flavor: Flavor,
    /// The work.
    pub task: Task,
}

/// A workload's generated input: the kernels, the job grid in canonical
/// order, and the seed's submission order.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The kernels the jobs index.
    pub suite: Vec<Box<dyn Benchmark>>,
    /// Jobs in canonical order (digests fold in this order).
    pub jobs: Vec<JobSpec>,
    /// Submission order: a permutation of `0..jobs.len()`.
    pub order: Vec<usize>,
}

/// SplitMix64: the seed's only consumer.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

fn tiny_suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Saxpy::new(64)),
        Box::new(Gemm::new(2, 16, 2)),
        Box::new(Mamr::indirect(8)),
    ]
}

/// The Fig. 9/10 sensitivity kernels plus the indirect ones.
fn sweep_suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Gemm::new(32, 32, 32)),
        Box::new(ThreeMm::new(32)),
        Box::new(Jacobi2d::new(64, 2)),
        Box::new(Stream::new(49152)),
        Box::new(Mamr::full(128)),
        Box::new(Mamr::indirect(128)),
        Box::new(Spmv::new(48, 64, 24)),
        Box::new(Fir::new(96, 16)),
    ]
}

/// The `smp` binary's `--small` suite: the 19 evaluation kernels at
/// smoke-test sizes (the full-size binary needs about 4 GB).
fn smp_suite() -> Vec<Box<dyn Benchmark>> {
    use uve_kernels::*;
    vec![
        Box::new(memcpy::Memcpy::new(4096)),
        Box::new(stream::Stream::new(3072)),
        Box::new(saxpy::Saxpy::new(4096)),
        Box::new(gemm::Gemm::new(16, 16, 16)),
        Box::new(threemm::ThreeMm::new(16)),
        Box::new(mvt::Mvt::new(48)),
        Box::new(gemver::Gemver::new(48)),
        Box::new(trisolv::Trisolv::new(48)),
        Box::new(jacobi::Jacobi1d::new(1024, 2)),
        Box::new(jacobi::Jacobi2d::new(24, 2)),
        Box::new(irsmk::Irsmk::new(1024)),
        Box::new(haccmk::Haccmk::new(32)),
        Box::new(knn::Knn::new(128, 8)),
        Box::new(covariance::Covariance::new(16, 16)),
        Box::new(mamr::Mamr::full(48)),
        Box::new(mamr::Mamr::diag(48)),
        Box::new(mamr::Mamr::indirect(48)),
        Box::new(seidel::Seidel2d::new(20, 2)),
        Box::new(floyd::FloydWarshall::new(16)),
    ]
}

/// [`SWEEP_CONFIGS`] distinct timing-only configs from the Fig. 9
/// (`vec_prf`), Fig. 10 (`fifo_depth`) and Sec. VI-B
/// (`processing_modules`) axes. The draw is balanced: every axis value
/// appears equally often, so seeds differ in which combinations they
/// replay but not in how much of each setting.
fn sweep_configs(rng: &mut Rng) -> Vec<CpuConfig> {
    let k = SWEEP_CONFIGS;
    let mut prf = [48, 64, 96].repeat(k / 3);
    let mut fifo = [2, 4, 8, 12].repeat(k / 4);
    let mut modules = [2, 4, 8].repeat(k / 3);
    loop {
        rng.shuffle(&mut prf);
        rng.shuffle(&mut fifo);
        rng.shuffle(&mut modules);
        let mut triples: Vec<_> = (0..k).map(|i| (prf[i], fifo[i], modules[i])).collect();
        triples.sort_unstable();
        triples.dedup();
        if triples.len() == k {
            break;
        }
    }
    (0..k)
        .map(|i| CpuConfig {
            vec_prf: prf[i],
            engine: EngineConfig {
                fifo_depth: fifo[i],
                processing_modules: modules[i],
                ..EngineConfig::default()
            },
            ..CpuConfig::default()
        })
        .collect()
}

impl Plan {
    /// Builds `workload`'s suite and job grid for `seed` — the set-up the
    /// benchmark times.
    pub fn build(workload: Workload, seed: u64, size: Size) -> Self {
        let mut rng = Rng(seed);
        let tiny = size == Size::Tiny;
        let suite = match (workload, tiny) {
            (_, true) => tiny_suite(),
            (Workload::Figures | Workload::Functional, false) => uve_kernels::extended_suite(),
            (Workload::TimingSweep, false) => sweep_suite(),
            (Workload::Smp, false) => smp_suite(),
        };
        let points = |flavors: &[Flavor]| -> Vec<(usize, Flavor)> {
            (0..suite.len())
                .flat_map(|b| flavors.iter().map(move |&f| (b, f)))
                .collect()
        };
        let job = |(bench, flavor): (usize, Flavor), task: Task| JobSpec {
            bench,
            flavor,
            task,
        };
        let jobs: Vec<JobSpec> = match workload {
            Workload::Figures => points(&Flavor::all())
                .into_iter()
                .map(|p| job(p, Task::Replay(Box::default())))
                .collect(),
            Workload::TimingSweep => {
                let configs = sweep_configs(&mut rng);
                points(&[Flavor::Uve, Flavor::Sve])
                    .into_iter()
                    .flat_map(|p| {
                        configs
                            .iter()
                            .map(move |c| job(p, Task::Replay(Box::new(c.clone()))))
                    })
                    .collect()
            }
            Workload::Functional => points(&Flavor::all())
                .into_iter()
                .flat_map(|p| [job(p, Task::Record), job(p, Task::Untraced)])
                .collect(),
            // Scalar code (the `smp` binary's default) sends explicit loads
            // and stores through the private L1s where MOESI lives; UVE
            // streams reach the snoop bus through the L2 owner probe.
            Workload::Smp => points(&[Flavor::Scalar, Flavor::Uve])
                .into_iter()
                .map(|p| job(p, Task::Lockstep))
                .collect(),
        };
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        match workload {
            Workload::Figures | Workload::Functional | Workload::Smp => rng.shuffle(&mut order),
            Workload::TimingSweep => {
                // Point by point, as the figure generators submit sweeps:
                // the seed orders the points and each point's configs.
                let mut points: Vec<usize> = (0..jobs.len() / SWEEP_CONFIGS).collect();
                rng.shuffle(&mut points);
                order.clear();
                for p in points {
                    let mut configs: Vec<usize> =
                        (p * SWEEP_CONFIGS..(p + 1) * SWEEP_CONFIGS).collect();
                    rng.shuffle(&mut configs);
                    order.extend(configs);
                }
            }
        }
        Self {
            workload,
            suite,
            jobs,
            order,
        }
    }
}

/// What one finished job produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulated instructions committed.
    pub committed: u64,
    /// Simulated cycles of its timing runs (0 for emulation-only jobs).
    pub cycles: u64,
    /// Cross-core coherence events (multicore jobs only).
    pub snoops: u64,
    /// Every timing result, in a fixed order.
    pub stats: Vec<TimingStats>,
    /// Other deterministic results (trace sizes, makespans, preemptions).
    pub words: Vec<u64>,
    /// The traces it looked up, one per lookup.
    pub traces: Vec<Arc<CachedTrace>>,
}

impl Outcome {
    fn new(committed: u64) -> Self {
        Self {
            committed,
            cycles: 0,
            snoops: 0,
            stats: Vec::new(),
            words: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// FNV-1a over every deterministic field.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.words(&[self.committed, self.cycles, self.snoops]);
        h.words(&self.words);
        for s in &self.stats {
            digest::timing_stats(&mut h, s);
        }
        h.finish()
    }
}

/// The benchmark-side copy of the runner's trace cache used by the traced
/// pass: same key, same once-per-key emulation, but the emulation is
/// split into spans.
#[derive(Default)]
struct Mirror {
    map: Mutex<HashMap<TraceKey, Arc<OnceLock<Arc<CachedTrace>>>>>,
    emulations: AtomicU64,
}

/// Where a pass sends its calls.
enum Route {
    /// The production entry points: the runner's trace cache and
    /// `uve_bench::replay` (`OoOCore::run_warm`).
    Production(Runner),
    /// The traced entry points: [`Mirror`] and [`replay_traced`].
    Traced(Mirror),
}

/// The stream level, packing and execution mode of every job (the
/// runner's defaults for `Job::new`).
fn key(bench: &dyn Benchmark, flavor: Flavor) -> TraceKey {
    TraceKey::of_full(
        bench,
        flavor,
        MemLevel::L2,
        IndirectPacking::default(),
        ExecMode::default(),
        0,
    )
}

fn conserved(stats: &TimingStats) -> Result<(), String> {
    stats.account.check(stats.cycles)
}

struct Pass<'p> {
    plan: &'p Plan,
    route: Route,
    spans: Spans,
}

impl Pass<'_> {
    fn trace(&self, bench: &dyn Benchmark, flavor: Flavor) -> Arc<CachedTrace> {
        match &self.route {
            Route::Production(runner) => runner.trace_full(
                bench,
                flavor,
                MemLevel::L2,
                IndirectPacking::default(),
                ExecMode::default(),
                0,
            ),
            Route::Traced(mirror) => {
                let key = self.spans.time("kernels.program", || key(bench, flavor));
                let cell = Arc::clone(
                    mirror
                        .map
                        .lock()
                        .expect("trace cache poisoned")
                        .entry(key)
                        .or_default(),
                );
                Arc::clone(cell.get_or_init(|| {
                    mirror.emulations.fetch_add(1, Ordering::Relaxed);
                    // Panics like the runner's `emulate_trace_full`.
                    let run =
                        emulate(bench, flavor, true, &self.spans).unwrap_or_else(|e| panic!("{e}"));
                    Arc::new(CachedTrace {
                        trace: run.trace,
                        committed: run.committed,
                    })
                }))
            }
        }
    }

    fn replay(
        &self,
        bench: &dyn Benchmark,
        flavor: Flavor,
        t: &CachedTrace,
        cpu: &CpuConfig,
    ) -> TimingStats {
        match &self.route {
            Route::Production(_) => replay(bench.name(), flavor, t, cpu).stats,
            Route::Traced(_) => {
                let (stats, p) = replay_traced(cpu, &t.trace);
                let s = &self.spans;
                s.add("cpu.cold", p.cold, 1);
                s.add("cpu.warm", p.warm, 1);
                s.add(
                    &format!("cpu.replay.{}", flavor_key(flavor)),
                    p.cold + p.warm,
                    1,
                );
                s.add("cpu.cycles", Duration::ZERO, p.cycles);
                s.add("cpu.ops", Duration::ZERO, 2 * t.trace.ops.len() as u64);
                s.add("mem.core", Duration::from_nanos(p.core.nanos), p.core.count);
                s.add(
                    "mem.stream",
                    Duration::from_nanos(p.stream.nanos),
                    p.stream.count,
                );
                stats
            }
        }
    }

    fn run_job(&self, job: &JobSpec) -> Result<Outcome, String> {
        let bench = self.plan.suite[job.bench].as_ref();
        let name = bench.name();
        let cpu = CpuConfig::default();
        match &job.task {
            Task::Replay(cfg) => {
                let t = self.trace(bench, job.flavor);
                let stats = self.replay(bench, job.flavor, &t, cfg);
                conserved(&stats).map_err(|e| format!("{name}/{}: {e}", job.flavor))?;
                let mut out = Outcome::new(t.committed);
                out.cycles = stats.cycles;
                out.stats.push(stats);
                out.traces.push(t);
                Ok(out)
            }
            Task::Record => {
                let t = self.trace(bench, job.flavor);
                let mut out = Outcome::new(t.committed);
                out.words = vec![t.trace.ops.len() as u64, stream_lines(&t.trace)];
                out.traces.push(t);
                Ok(out)
            }
            Task::Untraced => Ok(Outcome::new(
                emulate(bench, job.flavor, false, &self.spans)?.committed,
            )),
            Task::Lockstep => {
                let t = self.trace(bench, job.flavor);
                let shards: Vec<Trace> = (0..SMP_CORES)
                    .map(|c| shard_trace(&t.trace, c, SHARED_LINES))
                    .collect();
                let run = self
                    .spans
                    .time("smp.lockstep", || run_lockstep(&cpu, &shards, 0))
                    .map_err(|v| format!("{name}: coherence scan: {v:?}"))?;
                let mut out = Outcome::new(0);
                for s in &run.per_core {
                    conserved(s).map_err(|e| format!("{name} lockstep: {e}"))?;
                    out.committed += s.committed;
                    out.cycles += s.cycles;
                }
                out.words = vec![run.makespan, run.bus_transactions, run.coherence_scans];
                snoops(&mut out, &run.snoop);
                self.spans.add("smp.cycles", Duration::ZERO, out.cycles);
                self.spans.add("smp.snoops", Duration::ZERO, out.snoops);
                out.stats = run.per_core;
                out.traces.push(t);
                Ok(out)
            }
        }
    }
}

fn snoops(out: &mut Outcome, per_core: &[uve_mem::SnoopStats]) {
    let mut h = Fnv::default();
    for s in per_core {
        out.snoops += s.cross_core_events();
        digest::snoop_stats(&mut h, s);
    }
    out.words.push(h.finish());
}

/// Line requests over all of a trace's streams.
pub fn stream_lines(t: &Trace) -> u64 {
    t.streams.iter().map(|s| s.line_requests()).sum()
}

/// Heap bytes a trace holds, from its public fields' capacities.
pub fn trace_bytes(t: &Trace) -> u64 {
    use std::mem::size_of;
    use uve_core::{ChunkMeta, StreamInstance, StreamTrace, TraceOp};
    use uve_isa::RegRef;
    let per_op: usize = t
        .ops
        .iter()
        .map(|op| {
            (op.srcs.capacity() + op.dests.capacity()) * size_of::<RegRef>()
                + op.mem_lines.capacity() * size_of::<u64>()
                + (op.stream_reads.capacity() + op.stream_writes.capacity())
                    * size_of::<(StreamInstance, u32)>()
        })
        .sum();
    let per_stream: usize = t
        .streams
        .iter()
        .map(|s| {
            s.chunks.capacity() * size_of::<ChunkMeta>()
                + s.chunks
                    .iter()
                    .map(|c| c.lines.capacity() * size_of::<u64>())
                    .sum::<usize>()
        })
        .sum();
    (t.ops.capacity() * size_of::<TraceOp>()
        + per_op
        + t.streams.capacity() * size_of::<StreamTrace>()
        + per_stream) as u64
}

/// One job's result as the pass saw it.
pub type JobResult = Result<(Outcome, f64), String>;

/// Everything one pass produced.
pub struct PassResult {
    /// Host wall time of the whole grid.
    pub wall: Duration,
    /// Per job, in canonical order: the outcome and its host milliseconds,
    /// or why it failed.
    pub jobs: Vec<JobResult>,
    /// Process CPU time and page faults accrued during the pass.
    pub usage: Usage,
    /// Fresh trace recordings.
    pub emulations: u64,
    /// Layer spans (empty for a production pass).
    pub spans: Spans,
}

/// Runs `plan`'s grid once with a cold trace cache: [`WORKERS`] threads
/// of the runner's pool each pull the next job in submission order when
/// their previous one finishes. `traced` picks the traced entry points.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable.
pub fn run_pass(plan: &Plan, traced: bool) -> PassResult {
    let pass = Pass {
        plan,
        route: if traced {
            Route::Traced(Mirror::default())
        } else {
            Route::Production(Runner::parallel(WORKERS).verbose(false))
        },
        spans: if traced { Spans::on() } else { Spans::off() },
    };
    let before = Usage::now().expect("/proc/self/stat");
    let t0 = Instant::now();
    let out = run_isolated(RunMode::Parallel(WORKERS), plan.order.len(), |k| {
        let job = &plan.jobs[plan.order[k]];
        uve_core::deadline::arm(Some(DEFAULT_JOB_TIMEOUT));
        let t = Instant::now();
        let outcome = pass.run_job(job);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        uve_core::deadline::disarm();
        outcome.map(|o| (o, ms))
    });
    let wall = t0.elapsed();
    let usage = Usage::now().expect("/proc/self/stat").since(before);
    let mut jobs: Vec<Option<JobResult>> = plan.jobs.iter().map(|_| None).collect();
    for (k, r) in out.into_iter().enumerate() {
        jobs[plan.order[k]] = Some(r.and_then(|x| x));
    }
    let emulations = match &pass.route {
        Route::Production(runner) => runner.emulations(),
        Route::Traced(mirror) => mirror.emulations.load(Ordering::Relaxed),
    };
    PassResult {
        wall,
        jobs: jobs
            .into_iter()
            .map(|j| j.expect("every submitted job reports"))
            .collect(),
        usage,
        emulations,
        spans: pass.spans,
    }
}

/// Trace-size counts over the distinct traces a pass used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Trace lookups (cache hits plus recordings).
    pub lookups: u64,
    /// Distinct traces.
    pub traces: u64,
    /// Dynamic ops over the distinct traces.
    pub ops: u64,
    /// Stream line requests over the distinct traces.
    pub stream_lines: u64,
    /// Heap bytes over the distinct traces.
    pub bytes: u64,
}

impl PassResult {
    /// Counts over the distinct traces the pass's jobs looked up.
    pub fn trace_counts(&self) -> TraceCounts {
        let mut seen = HashSet::new();
        let mut c = TraceCounts::default();
        for (o, _) in self.jobs.iter().flatten() {
            for t in &o.traces {
                c.lookups += 1;
                if seen.insert(Arc::as_ptr(t)) {
                    c.traces += 1;
                    c.ops += t.trace.ops.len() as u64;
                    c.stream_lines += stream_lines(&t.trace);
                    c.bytes += trace_bytes(&t.trace);
                }
            }
        }
        c
    }

    /// FNV-1a over every job's digest in canonical order (failed jobs
    /// fold a marker), so it does not depend on the submission order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for j in &self.jobs {
            h.word(j.as_ref().map_or(u64::MAX, |(o, _)| o.digest()));
        }
        h.finish()
    }
}
