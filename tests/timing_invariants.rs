//! Invariants of the timing model: resource monotonicity, the paper's
//! qualitative claims at small scale, bit-identity of the quiet-cycle skip
//! with cycle-by-cycle stepping, and closed-form cycle counts of synthetic
//! microtraces (latency-bound chains, width-bound streams, a mispredict).

use uve::core::engine::EngineConfig;
use uve::core::{BranchOutcome, Trace, TraceOp};
use uve::cpu::{CorePipeline, CpuConfig, OoOCore, TimingStats};
use uve::isa::{ExecClass, RegRef, XReg};
use uve::kernels::{run_checked, Benchmark, Flavor};
use uve::mem::{FaultConfig, SmpMem, SnoopStats};
use uve::smp::{run_lockstep, shard_trace};
use uve_conform::kernel_diff::KernelCase;

fn trace_of(bench: &dyn uve::kernels::Benchmark, flavor: Flavor) -> uve::core::Trace {
    run_checked(bench, flavor).unwrap().result.trace
}

#[test]
fn deeper_fifos_never_slow_streams_down() {
    let bench = uve::kernels::saxpy::Saxpy::new(2048);
    let trace = trace_of(&bench, Flavor::Uve);
    let mut prev = u64::MAX;
    for depth in [2usize, 4, 8, 16] {
        let cpu = CpuConfig {
            engine: EngineConfig {
                fifo_depth: depth,
                ..EngineConfig::default()
            },
            ..CpuConfig::default()
        };
        let cycles = OoOCore::new(cpu).run(&trace).cycles;
        assert!(
            cycles <= prev.saturating_add(prev / 20),
            "depth {depth}: {cycles} vs {prev}"
        );
        prev = cycles;
    }
}

#[test]
fn more_vector_registers_never_slow_sve_down() {
    let bench = uve::kernels::gemm::Gemm::new(8, 32, 8);
    let trace = trace_of(&bench, Flavor::Sve);
    let mut prev = u64::MAX;
    for pvr in [40usize, 48, 64, 96] {
        let cpu = CpuConfig {
            vec_prf: pvr,
            ..CpuConfig::default()
        };
        let cycles = OoOCore::new(cpu).run(&trace).cycles;
        assert!(
            cycles <= prev.saturating_add(prev / 20),
            "pvr {pvr}: {cycles} vs {prev}"
        );
        prev = cycles;
    }
}

#[test]
fn uve_timing_insensitive_to_vector_registers() {
    let bench = uve::kernels::saxpy::Saxpy::new(2048);
    let trace = trace_of(&bench, Flavor::Uve);
    let at = |pvr: usize| {
        let cpu = CpuConfig {
            vec_prf: pvr,
            ..CpuConfig::default()
        };
        OoOCore::new(cpu).run(&trace).cycles
    };
    let low = at(48);
    let high = at(96);
    let drift = (low as f64 - high as f64).abs() / low as f64;
    assert!(
        drift < 0.02,
        "UVE should be PVR-insensitive: {low} vs {high}"
    );
}

#[test]
fn warm_runs_never_slower_than_cold() {
    let core = OoOCore::new(CpuConfig::default());
    for flavor in [Flavor::Uve, Flavor::Sve] {
        let bench = uve::kernels::knn::Knn::new(64, 16);
        let trace = trace_of(&bench, flavor);
        let cold = core.run(&trace).cycles;
        let warm = core.run_warm(&trace).cycles;
        assert!(warm <= cold, "{flavor}: warm {warm} > cold {cold}");
    }
}

#[test]
fn committed_counts_are_deterministic() {
    let bench = uve::kernels::mvt::Mvt::new(16);
    let a = run_checked(&bench, Flavor::Uve).unwrap().result.committed;
    let b = run_checked(&bench, Flavor::Uve).unwrap().result.committed;
    assert_eq!(a, b);
    let core = OoOCore::new(CpuConfig::default());
    let t = trace_of(&bench, Flavor::Uve);
    assert_eq!(core.run(&t).cycles, core.run(&t).cycles);
}

#[test]
fn engine_storage_scales_with_configuration() {
    let base = EngineConfig::default().storage_report().total_bytes();
    let wider = EngineConfig {
        fifo_depth: 16,
        ..EngineConfig::default()
    }
    .storage_report()
    .total_bytes();
    assert!(wider > base);
    let narrower = EngineConfig {
        max_streams: 8,
        ..EngineConfig::default()
    }
    .storage_report()
    .total_bytes();
    assert!(narrower < base);
}

/// Every extended-suite kernel variant at a size small enough to replay a
/// few hundred times in a debug build, yet large enough to miss in the
/// caches and back up the stream FIFOs.
fn small_extended_suite() -> Vec<Box<dyn Benchmark>> {
    use KernelCase::*;
    [
        Memcpy(256),
        Stream(192),
        Saxpy(256),
        Gemm(4, 16, 4),
        ThreeMm(16),
        Mvt(24),
        Gemver(24),
        Trisolv(24),
        Jacobi1d(256, 2),
        Jacobi2d(12, 2),
        Irsmk(548),
        Haccmk(16),
        Knn(48, 4),
        Covariance(16, 8),
        MamrFull(24),
        MamrDiag(24),
        MamrIndirect(24),
        Seidel2d(10, 2),
        Floyd(8),
        Fir(48, 8),
        ChanEst(64),
        FftStage(64, 2),
        Spmv(16, 32, 8),
        GatherReduce(96, 64),
        Histogram(96, 32),
    ]
    .iter()
    .map(KernelCase::bench)
    .collect()
}

/// Traces of [`small_extended_suite`] in every flavor, tagged for messages.
fn small_traces() -> Vec<(String, Trace)> {
    let mut out = Vec::new();
    for bench in small_extended_suite() {
        for flavor in Flavor::all() {
            let tag = format!("{}/{flavor}", bench.name());
            out.push((tag, trace_of(bench.as_ref(), flavor)));
        }
    }
    out
}

/// Asserts that skipping quiet cycles ([`CorePipeline::step`]) leaves every
/// statistic of the cold and the warm pass identical to stepping each
/// cycle.
fn assert_skip_exact(tag: &str, cpu: &CpuConfig, trace: &Trace) {
    let core = OoOCore::new(cpu.clone());
    let (cold, warm) = core.run_warm_exact(trace);
    assert_eq!(core.run(trace), cold, "{tag}: cold pass differs");
    assert_eq!(core.run_warm(trace), warm, "{tag}: warm pass differs");
}

#[test]
fn quiet_cycle_skip_is_exact_across_engine_configs() {
    let traces = small_traces();
    for fifo_depth in [2usize, 8, 12] {
        for processing_modules in [2usize, 8] {
            let cpu = CpuConfig {
                vec_prf: 48,
                engine: EngineConfig {
                    fifo_depth,
                    processing_modules,
                    ..EngineConfig::default()
                },
                ..CpuConfig::default()
            };
            for (tag, trace) in &traces {
                let tag = format!("{tag} fifo {fifo_depth} pm {processing_modules}");
                assert_skip_exact(&tag, &cpu, trace);
            }
        }
    }
}

#[test]
fn quiet_cycle_skip_is_exact_under_fault_replay() {
    // Hostile injection: transient retries and poisoned refetches put
    // streams in `retry_at` backoff, an event the skip must stop at.
    let mut cpu = CpuConfig::default();
    cpu.mem.fault = Some(FaultConfig::hostile(11));
    for (tag, trace) in &small_traces() {
        assert_skip_exact(tag, &cpu, trace);
    }
}

/// What a lockstep run reports, for comparing two ways of producing it.
type LockstepView = (Vec<TimingStats>, Vec<SnoopStats>, u64, u64);

/// Cores in lockstep with every core stepped every cycle and a coherence
/// scan at every `check_every`-th global cycle (and one at the end): the
/// reference [`run_lockstep`] must match.
fn lockstep_exact(cpu: &CpuConfig, traces: &[Trace], check_every: u64) -> LockstepView {
    let mut mem = SmpMem::new(cpu.mem.clone(), traces.len());
    let mut pipes: Vec<CorePipeline> = traces
        .iter()
        .enumerate()
        .map(|(c, t)| CorePipeline::new(cpu.clone(), t, c, false))
        .collect();
    let mut scans = 0;
    let mut global = 0u64;
    loop {
        let mut live = false;
        for (core, pipe) in pipes.iter_mut().enumerate() {
            if !pipe.finished() {
                pipe.step_cycle(&traces[core], &mut mem.port(core), None);
                live = true;
            }
        }
        if global.is_multiple_of(check_every) {
            mem.check_coherence().expect("coherent");
            scans += 1;
        }
        if !live {
            break;
        }
        global += 1;
    }
    // The closing scan every run makes.
    mem.check_coherence().expect("coherent");
    scans += 1;
    let per_core = pipes
        .into_iter()
        .enumerate()
        .map(|(core, p)| p.finish(&mem.port(core)))
        .collect();
    let snoop = (0..traces.len()).map(|c| mem.snoop_stats(c)).collect();
    (per_core, snoop, mem.bus_transactions(), scans)
}

#[test]
fn quiet_cycle_skip_is_exact_in_lockstep() {
    let cpu = CpuConfig::default();
    for (tag, trace) in &small_traces() {
        let traces: Vec<Trace> = (0..2).map(|c| shard_trace(trace, c, 16)).collect();
        let run = run_lockstep(&cpu, &traces, 64).expect("coherent");
        let got = (
            run.per_core,
            run.snoop,
            run.bus_transactions,
            run.coherence_scans,
        );
        assert_eq!(got, lockstep_exact(&cpu, &traces, 64), "{tag}");
    }
}

// ---- Closed-form oracles on synthetic traces ----
//
// Each microtrace has a cycle count known in closed form from the
// configuration alone: a dependent chain is latency-bound, a stream of
// independent ops is bound by the narrowest pipeline width it crosses,
// and a mispredicted branch stalls fetch for the configured penalty after
// it resolves. Every check holds at the default configuration and at each
// vector-register and FIFO-depth point the Fig. 9/10 sweeps replay.

/// Pipeline fill and drain of a microtrace: fetch → rename → issue →
/// complete → commit takes a few cycles beyond the steady-state bound.
const FILL: u64 = 10;

/// Cycles from fetching a branch to its resolution (rename, issue,
/// execute): a mispredict costs at most this beyond the penalty.
const RESOLVE: u64 = 3;

/// `CpuConfig::default()` plus each configuration Fig. 9 (`vec_prf`) and
/// Fig. 10 (`engine.fifo_depth`) replays.
fn figure_configs() -> Vec<CpuConfig> {
    let mut cfgs = vec![CpuConfig::default()];
    for vec_prf in [48, 64, 96] {
        cfgs.push(CpuConfig {
            vec_prf,
            ..CpuConfig::default()
        });
    }
    for fifo_depth in [2, 4, 8, 12] {
        cfgs.push(CpuConfig {
            engine: EngineConfig {
                fifo_depth,
                ..EngineConfig::default()
            },
            ..CpuConfig::default()
        });
    }
    cfgs
}

fn x(n: usize) -> RegRef {
    RegRef::x(XReg::new(n as u8))
}

/// `n` ops of `class`, each reading and writing `x5`: a serial chain.
fn chain(n: usize, class: ExecClass) -> Trace {
    let mut t = Trace::new();
    t.ops.extend((0..n).map(|i| TraceOp {
        srcs: [x(5)].into_iter().collect(),
        dests: [x(5)].into_iter().collect(),
        ..TraceOp::new(i as u32, class)
    }));
    t
}

/// `n` ops with no sources, cycling through `classes`, each writing one of
/// eight registers (renaming removes the false dependencies).
fn independent(n: usize, classes: &[ExecClass]) -> Trace {
    let mut t = Trace::new();
    t.ops.extend((0..n).map(|i| TraceOp {
        dests: [x(5 + i % 8)].into_iter().collect(),
        ..TraceOp::new(i as u32, classes[i % classes.len()])
    }));
    t
}

fn cycles(cfg: &CpuConfig, t: &Trace) -> u64 {
    let stats = OoOCore::new(cfg.clone()).run(t);
    assert_eq!(stats.committed, t.committed());
    stats.account.check(stats.cycles).unwrap();
    stats.cycles
}

#[test]
fn dependent_chain_takes_n_times_latency() {
    let classes = [
        ExecClass::IntAlu,
        ExecClass::IntMul,
        ExecClass::IntDiv,
        ExecClass::FpAdd,
        ExecClass::FpMac,
        ExecClass::FpDiv,
        ExecClass::VecInt,
    ];
    for cfg in figure_configs() {
        for class in classes {
            let l = cfg.latency(class);
            let n = 200;
            let once = cycles(&cfg, &chain(n, class));
            let twice = cycles(&cfg, &chain(2 * n, class));
            let bound = n as u64 * l;
            assert!(
                (bound..=bound + FILL).contains(&once),
                "{class:?}: {n} ops at latency {l} took {once} cycles"
            );
            assert_eq!(twice - once, bound, "{class:?}: each op adds exactly {l}");
        }
    }
}

#[test]
fn independent_ops_take_n_over_the_narrowest_width() {
    for cfg in figure_configs() {
        let front = cfg.fetch_width.min(cfg.commit_width).min(cfg.issue_width);
        let mixes: [(&[ExecClass], usize); 2] = [
            // Integer ALU ops alone: bound by the integer units.
            (&[ExecClass::IntAlu], front.min(cfg.int_units)),
            // Alternating with FP adds: both clusters issue each cycle.
            (
                &[ExecClass::IntAlu, ExecClass::FpAdd],
                front.min(cfg.int_units + cfg.fpvec_units),
            ),
        ];
        for (classes, width) in mixes {
            let n = 400;
            let once = cycles(&cfg, &independent(n, classes));
            let twice = cycles(&cfg, &independent(2 * n, classes));
            let bound = (n / width) as u64;
            assert!(
                (bound..=bound + FILL).contains(&once),
                "{classes:?}: {n} ops at width {width} took {once} cycles"
            );
            assert_eq!(twice - once, bound, "{classes:?}: width {width}");
        }
    }
}

#[test]
fn one_mispredicted_branch_costs_the_penalty() {
    for base in figure_configs() {
        let mut resolve = None;
        for penalty in [0, base.mispredict_penalty, 3 * base.mispredict_penalty] {
            let cfg = CpuConfig {
                mispredict_penalty: penalty,
                ..base.clone()
            };
            // Front-end-bound work (both clusters busy), with a branch in
            // the middle: without an outcome it is never predicted; as a
            // not-taken branch it mispredicts, since the bimodal counters
            // start weakly taken.
            let n = 400;
            let mut t = independent(n, &[ExecClass::IntAlu, ExecClass::FpAdd]);
            t.ops[n / 2] = TraceOp::new(n as u32 / 2, ExecClass::Branch);
            let straight = cycles(&cfg, &t);
            t.ops[n / 2].branch = Some(BranchOutcome {
                taken: false,
                next_pc: n as u32 / 2 + 1,
            });
            let stats = OoOCore::new(cfg.clone()).run(&t);
            assert_eq!(stats.branch_mispredicts, 1);
            let cost = stats.cycles - straight;
            assert!(
                (penalty..=penalty + RESOLVE).contains(&cost),
                "penalty {penalty}: the mispredict cost {cost} cycles"
            );
            // The resolution latency is the same at every penalty, so the
            // penalty is charged cycle for cycle.
            assert_eq!(*resolve.get_or_insert(cost - penalty), cost - penalty);
        }
    }
}
