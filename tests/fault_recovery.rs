//! The fault subsystem end to end: precise stream-fault recovery on every
//! evaluation kernel, cycle conservation under memory-hierarchy injection,
//! and the crash-proof sweep harness.
//!
//! These are the PR's acceptance properties: injected *recoverable* faults
//! must leave no trace in the final architectural state (Sec. II-C/V
//! precise stream-fault semantics), retry cycles must be accounted (the
//! `fault-replay` category absorbs them without breaking conservation),
//! and one poisoned job must not take a figure sweep down.

use uve::bench::{Job, Runner};
use uve::core::{EmuConfig, Emulator, StreamFaultPlan, Trace};
use uve::cpu::{CpuConfig, OoOCore};
use uve::kernels::{Benchmark, Flavor};
use uve::mem::{FaultConfig, Memory};

/// Small instances of all 19 evaluation kernels (fast enough for CI).
fn small_suite() -> Vec<Box<dyn Benchmark>> {
    use uve::kernels::*;
    vec![
        Box::new(memcpy::Memcpy::new(100)),
        Box::new(stream::Stream::new(80)),
        Box::new(saxpy::Saxpy::new(100)),
        Box::new(gemm::Gemm::new(5, 16, 6)),
        Box::new(threemm::ThreeMm::new(16)),
        Box::new(mvt::Mvt::new(20)),
        Box::new(gemver::Gemver::new(20)),
        Box::new(trisolv::Trisolv::new(20)),
        Box::new(jacobi::Jacobi1d::new(50, 2)),
        Box::new(jacobi::Jacobi2d::new(10, 2)),
        Box::new(irsmk::Irsmk::new(600)),
        Box::new(haccmk::Haccmk::new(20)),
        Box::new(knn::Knn::new(20, 8)),
        Box::new(covariance::Covariance::new(16, 12)),
        Box::new(mamr::Mamr::full(20)),
        Box::new(mamr::Mamr::diag(20)),
        Box::new(mamr::Mamr::indirect(12)),
        Box::new(seidel::Seidel2d::new(8, 2)),
        Box::new(floyd::FloydWarshall::new(10)),
    ]
}

/// Runs `bench`'s UVE program, optionally under a stream-fault plan, and
/// returns `(memory hash, architectural digest, committed, faults taken,
/// trace)`.
fn run_uve(
    bench: &dyn Benchmark,
    plan: Option<StreamFaultPlan>,
) -> (u64, u64, u64, u64, uve::core::Trace) {
    let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
    bench.setup(&mut emu);
    emu.set_fault_plan(plan);
    let program = bench.program(Flavor::Uve);
    let result = emu
        .run(&program)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    bench
        .check(&emu)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    (
        emu.mem.content_hash(),
        emu.arch_digest(),
        result.committed,
        emu.faults_taken(),
        result.trace,
    )
}

/// Each pool of `t` holds exactly its ops' spans, laid end to end in op
/// order: nothing a rolled-back attempt appended survives.
fn assert_pools_tight(name: &str, t: &Trace) {
    /// Checks that `span` (non-empty) starts at `pool[*at]`, then moves
    /// `at` past it.
    fn next<T>(name: &str, pool: &[T], span: &[T], at: &mut usize) {
        if !span.is_empty() {
            assert_eq!(
                span.as_ptr(),
                pool[*at..].as_ptr(),
                "{name}: span out of order"
            );
        }
        *at += span.len();
    }
    let (mut lines, mut refs) = (0, 0);
    for op in &t.ops {
        next(name, &t.lines, t.mem_lines(op), &mut lines);
        next(name, &t.stream_refs, t.stream_reads(op), &mut refs);
        next(name, &t.stream_refs, t.stream_writes(op), &mut refs);
    }
    assert_eq!(t.lines.len(), lines, "{name}: line pool");
    assert_eq!(t.stream_refs.len(), refs, "{name}: stream-ref pool");
}

/// Recovery leaves no mark but the trap stamps: final memory, architectural
/// state and committed count match the clean run, and so does the whole
/// recorded trace once `stream_faults` is scrubbed, with each trace pool
/// holding exactly its ops' spans.
#[test]
fn recovered_faults_are_bit_identical_on_every_kernel() {
    let mut total_faults = 0u64;
    for bench in small_suite() {
        let name = bench.name();
        let (clean_mem, clean_arch, clean_committed, _, clean) = run_uve(bench.as_ref(), None);
        // Rate 1: every first-touched page faults once.
        let plan = StreamFaultPlan::new(0x5eed, 1);
        let (mem, arch, committed, faults, faulted) = run_uve(bench.as_ref(), Some(plan));
        assert_eq!(
            mem, clean_mem,
            "{name}: final memory diverged after {faults} recovered fault(s)"
        );
        assert_eq!(
            arch, clean_arch,
            "{name}: architectural state diverged after {faults} recovered fault(s)"
        );
        assert_eq!(committed, clean_committed, "{name}");
        assert!(faults > 0, "{name}: rate-1 plan must fault");
        total_faults += faults;

        assert_pools_tight(name, &faulted);
        let stamped: u64 = faulted.ops.iter().map(|o| u64::from(o.stream_faults)).sum();
        assert_eq!(stamped, faults, "{name}: every trap is stamped on its op");
        let mut scrubbed = faulted;
        for op in &mut scrubbed.ops {
            op.stream_faults = 0;
        }
        assert!(
            scrubbed == clean,
            "{name}: recovered trace differs from the clean one"
        );
    }
    assert!(total_faults >= 19, "every kernel contributed faults");
}

#[test]
fn conservation_holds_with_fault_replay_under_injection() {
    for bench in small_suite() {
        // The faulted trace carries stream-fault trap stamps; inject
        // memory-hierarchy faults on top of it in the timing model.
        let plan = StreamFaultPlan::new(0x5eed, 4);
        let (_, _, _, _, trace) = run_uve(bench.as_ref(), Some(plan));
        let mut cpu = CpuConfig::default();
        cpu.mem.fault = Some(FaultConfig::hostile(0x5eed));
        let stats = OoOCore::new(cpu).run(&trace);
        stats
            .account
            .check(stats.cycles)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    }
}

#[test]
fn fault_replay_category_absorbs_retry_cycles() {
    // On a stream-heavy kernel the hostile injector must both slow the run
    // and show up in the fault-replay attribution — while the clean run
    // attributes nothing there.
    let bench = uve::kernels::saxpy::Saxpy::new(4096);
    let (_, _, _, _, trace) = run_uve(&bench, None);
    let clean = OoOCore::new(CpuConfig::default()).run(&trace);
    assert_eq!(clean.account.fault_replay, 0);

    let mut cpu = CpuConfig::default();
    cpu.mem.fault = Some(FaultConfig::hostile(7));
    let faulty = OoOCore::new(cpu).run(&trace);
    faulty.account.check(faulty.cycles).unwrap();
    assert_eq!(faulty.committed, clean.committed);
    assert!(
        faulty.engine.transient_retries + faulty.engine.poisoned_replays > 0,
        "hostile injection must trigger retries"
    );
    assert!(faulty.cycles > clean.cycles, "retries must cost cycles");
    assert!(
        faulty.account.fault_replay > 0,
        "retry cycles must be attributed to fault-replay"
    );
}

/// A benchmark whose oracle always fails, so the harness's emulation path
/// panics — the poisoned-sweep vehicle.
struct PoisonedBench(uve::kernels::saxpy::Saxpy);

impl Benchmark for PoisonedBench {
    fn name(&self) -> &'static str {
        "poisoned"
    }
    fn setup(&self, emu: &mut Emulator) {
        self.0.setup(emu);
    }
    fn program(&self, flavor: Flavor) -> uve::isa::Program {
        self.0.program(flavor)
    }
    fn check(&self, _emu: &Emulator) -> Result<(), String> {
        Err("deliberately poisoned job".to_string())
    }
}

#[test]
fn poisoned_job_in_parallel_sweep_leaves_other_jobs_bit_identical() {
    let suite = small_suite();
    let bad = PoisonedBench(uve::kernels::saxpy::Saxpy::new(100));
    let cpu = CpuConfig::default();

    // Clean serial baseline over the full suite.
    let clean_jobs: Vec<Job> = suite
        .iter()
        .map(|b| Job::new(b.as_ref(), Flavor::Uve, cpu.clone()))
        .collect();
    let serial = Runner::serial().verbose(false);
    let baseline = serial.run(&clean_jobs);
    assert_eq!(serial.finish(), 0, "clean sweep must exit zero");

    // Same sweep with a poisoned job spliced into the middle, 8 workers.
    let mid = suite.len() / 2;
    let mut jobs: Vec<Job> = Vec::new();
    for (i, b) in suite.iter().enumerate() {
        if i == mid {
            jobs.push(Job::new(&bad, Flavor::Uve, cpu.clone()));
        }
        jobs.push(Job::new(b.as_ref(), Flavor::Uve, cpu.clone()));
    }
    let runner = Runner::parallel(8).verbose(false);
    let out = runner.run(&jobs);
    assert_eq!(out.len(), suite.len() + 1);

    // Every healthy job is bit-identical to the clean serial sweep.
    let healthy: Vec<_> = out
        .iter()
        .filter(|m| !m.name.contains("[FAILED]"))
        .collect();
    assert_eq!(healthy.len(), baseline.len());
    for (got, want) in healthy.iter().zip(&baseline) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.committed, want.committed, "{}", want.name);
        assert_eq!(got.stats, want.stats, "{}", want.name);
    }

    // The poisoned job produced a repro line and a nonzero exit code.
    let failures = runner.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].index, mid);
    let repro = failures[0].repro();
    assert!(repro.contains("kernel=poisoned"), "{repro}");
    assert!(repro.contains("flavor="), "{repro}");
    assert!(repro.contains("vlen="), "{repro}");
    assert!(repro.contains("deliberately poisoned job"), "{repro}");
    assert_eq!(runner.finish(), 1);
}

#[test]
fn recovered_faults_are_bit_identical_on_the_dsp_and_sparse_families() {
    // PR 10 follow-on families: the sparse kernels are gather-heavy (SpMV
    // runs two dual-indirect-modifier streams in lockstep, Histogram pairs
    // a gather with an indirect scatter store), so a rate-1 plan lands
    // precise traps inside indirect-modifier regions; the DSP kernels cover
    // the long 1-D and strided shapes. Recovery must leave no trace.
    use uve::kernels::{dsp, sparse};
    let benches: Vec<Box<dyn Benchmark>> = vec![
        Box::new(dsp::Fir::new(45, 9)),
        Box::new(dsp::ChanEst::new(90)),
        Box::new(dsp::FftStage::new(64, 3)),
        Box::new(sparse::Spmv::new(13, 33, 20)),
        Box::new(sparse::GatherReduce::new(90, 40)),
        Box::new(sparse::Histogram::new(93, 16)),
    ];
    for bench in benches {
        let (clean_mem, clean_arch, clean_committed, _, _) = run_uve(bench.as_ref(), None);
        let plan = StreamFaultPlan::new(0x5eed, 1);
        let (mem, arch, committed, faults, trace) = run_uve(bench.as_ref(), Some(plan));
        assert_eq!(
            mem,
            clean_mem,
            "{}: final memory diverged after {faults} recovered fault(s)",
            bench.name()
        );
        assert_eq!(
            arch,
            clean_arch,
            "{}: architectural state diverged after {faults} recovered fault(s)",
            bench.name()
        );
        assert_eq!(committed, clean_committed, "{}", bench.name());
        assert!(faults > 0, "{}: rate-1 plan must fault", bench.name());

        // The faulted trace stays conserved in the timing model, with
        // hostile memory-hierarchy injection layered on top.
        let mut cpu = CpuConfig::default();
        cpu.mem.fault = Some(FaultConfig::hostile(0x5eed));
        let stats = OoOCore::new(cpu).run(&trace);
        stats
            .account
            .check(stats.cycles)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    }
}
