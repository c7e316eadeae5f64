//! Bit-identity of the basic-block translation cache against the
//! decode-dispatch interpreter, over the full 19-kernel evaluation suite.
//!
//! The translated mode ([`ExecMode::Translated`]) is only allowed to be
//! faster — never different: full dynamic traces, the architectural
//! digest, the memory image, budgeted-resume slicing (the `uve-smp`
//! preemption primitive, cut at *every* instruction boundary, which is a
//! superset of every block boundary) and precise stream-fault rollback
//! must all match the interpreter exactly.

use uve::bench::{default_jobs, run_indexed, RunMode};
use uve::core::{EmuConfig, Emulator, ExecMode, RunCursor, StreamFaultPlan, Trace};
use uve::kernels::{Benchmark, Flavor};
use uve::mem::Memory;

/// Small instances of the full suite (same sizes as
/// `tests/cycle_accounting.rs` — bit-identity is structural, so small
/// sizes prove it while keeping tier-1 fast).
fn small_suite() -> Vec<Box<dyn Benchmark>> {
    use uve::kernels::*;
    vec![
        Box::new(memcpy::Memcpy::new(300)),
        Box::new(stream::Stream::new(200)),
        Box::new(saxpy::Saxpy::new(300)),
        Box::new(gemm::Gemm::new(6, 16, 6)),
        Box::new(threemm::ThreeMm::new(16)),
        Box::new(mvt::Mvt::new(24)),
        Box::new(gemver::Gemver::new(24)),
        Box::new(trisolv::Trisolv::new(24)),
        Box::new(jacobi::Jacobi1d::new(80, 2)),
        Box::new(jacobi::Jacobi2d::new(12, 2)),
        Box::new(irsmk::Irsmk::new(600)),
        Box::new(haccmk::Haccmk::new(24)),
        Box::new(knn::Knn::new(32, 8)),
        Box::new(covariance::Covariance::new(16, 12)),
        Box::new(mamr::Mamr::full(24)),
        Box::new(mamr::Mamr::diag(24)),
        Box::new(mamr::Mamr::indirect(16)),
        Box::new(seidel::Seidel2d::new(10, 2)),
        Box::new(floyd::FloydWarshall::new(12)),
    ]
}

fn emulator(vlen_bytes: usize, exec: ExecMode, traced: bool) -> Emulator {
    let cfg = EmuConfig {
        vlen_bytes,
        record_trace: traced,
        exec,
        ..EmuConfig::default()
    };
    Emulator::new(cfg, Memory::new())
}

/// Runs `bench`/`flavor` to completion and returns `(trace, digest, mem)`.
fn run_full(
    bench: &dyn Benchmark,
    flavor: Flavor,
    vlen_bytes: usize,
    exec: ExecMode,
) -> (Trace, u64, u64) {
    let mut emu = emulator(vlen_bytes, exec, true);
    bench.setup(&mut emu);
    let result = emu
        .run(&bench.program(flavor))
        .unwrap_or_else(|e| panic!("{}/{flavor}@vl{vlen_bytes}/{exec:?}: {e}", bench.name()));
    bench
        .check(&emu)
        .unwrap_or_else(|e| panic!("{}/{flavor}@vl{vlen_bytes}/{exec:?}: {e}", bench.name()));
    (result.trace, emu.arch_digest(), emu.mem.content_hash())
}

fn assert_traces_equal(tag: &str, a: &Trace, b: &Trace) {
    if let Some(i) = a.ops.iter().zip(&b.ops).position(|(x, y)| x != y) {
        panic!(
            "{tag}: trace diverges at dynamic op {i}:\n  interpreter {:?}\n  translated  {:?}",
            a.ops[i], b.ops[i]
        );
    }
    assert_eq!(a.ops.len(), b.ops.len(), "{tag}: trace length");
    assert_eq!(a.streams, b.streams, "{tag}: stream side tables");
    assert_eq!(a.lines, b.lines, "{tag}: line pool");
    assert_eq!(a.stream_refs, b.stream_refs, "{tag}: stream-ref pool");
}

/// Every kernel × flavor × vector length: full traced runs in both modes
/// must be bit-identical — op for op, chunk for chunk.
#[test]
fn translated_is_bit_identical_across_suite_flavors_and_vlens() {
    let suite = small_suite();
    let mut points: Vec<(usize, Flavor, usize)> = Vec::new();
    for i in 0..suite.len() {
        for flavor in Flavor::all() {
            for vlen in [16, 32, 64] {
                points.push((i, flavor, vlen));
            }
        }
    }
    let mode = RunMode::Parallel(default_jobs());
    run_indexed(mode, points.len(), |k| {
        let (i, flavor, vlen) = points[k];
        let bench = suite[i].as_ref();
        let tag = format!("{}/{flavor}@vl{vlen}", bench.name());
        let (ti, di, mi) = run_full(bench, flavor, vlen, ExecMode::Interpret);
        let (tt, dt, mt) = run_full(bench, flavor, vlen, ExecMode::Translated);
        assert_traces_equal(&tag, &ti, &tt);
        assert_eq!(di, dt, "{tag}: arch_digest");
        assert_eq!(mi, mt, "{tag}: memory content hash");
    });
}

/// Resumes the translated run in budgeted slices — budget 1 cuts at every
/// instruction boundary, a strict superset of every block boundary — with
/// a stream-context save/restore round trip at each cut (the full
/// `uve-smp` context-switch path), and must land in the interpreter's
/// final state.
#[test]
fn translated_resume_cut_at_every_boundary_matches_interpreter() {
    let suite = small_suite();
    // A streaming kernel (cuts land inside stream chunks and indirect
    // regions), an indirect CSR-like kernel, and a branchy scalar one.
    let picks = [
        (2usize, Flavor::Uve),
        (16, Flavor::Uve),
        (18, Flavor::Scalar),
    ];
    for (i, flavor) in picks {
        let bench = suite[i].as_ref();
        for budget in [1u64, 7] {
            let (_, di, mi) = run_full(bench, flavor, 64, ExecMode::Interpret);
            let mut emu = emulator(64, ExecMode::Translated, true);
            bench.setup(&mut emu);
            let program = bench.program(flavor);
            let mut cursor = RunCursor::new();
            loop {
                match emu.resume(&program, &mut cursor, Some(budget)) {
                    Ok(true) => break,
                    Ok(false) => {
                        // Architecturally invisible context switch at the
                        // cut: the stream state must survive a save/restore
                        // round trip.
                        let saved = emu.save_stream_context();
                        emu.restore_stream_context(&saved);
                    }
                    Err(e) => panic!("{}/{flavor} budget {budget}: {e}", bench.name()),
                }
            }
            let tag = format!("{}/{flavor} budget {budget}", bench.name());
            bench.check(&emu).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(emu.arch_digest(), di, "{tag}: arch_digest");
            assert_eq!(emu.mem.content_hash(), mi, "{tag}: memory content hash");
        }
    }
}

/// Stream faults under the same plan must trap, roll back and replay
/// identically in both modes — including when the translated run is
/// additionally cut into budgeted slices, so a fault can land mid-block
/// with part of the block already committed.
#[test]
fn translated_fault_rollback_matches_interpreter() {
    let suite = small_suite();
    // Streaming kernels only — the plan faults pages touched by streams.
    for i in [2usize, 14, 16] {
        let bench = suite[i].as_ref();
        let program = bench.program(Flavor::Uve);
        let plan = || Some(StreamFaultPlan::new(11, 1));

        let mut interp = emulator(64, ExecMode::Interpret, true);
        interp.set_fault_plan(plan());
        bench.setup(&mut interp);
        let ri = interp.run(&program).unwrap();

        let mut trans = emulator(64, ExecMode::Translated, true);
        trans.set_fault_plan(plan());
        bench.setup(&mut trans);
        let rt = trans.run(&program).unwrap();

        let tag = format!("{}/uve faulted", bench.name());
        assert_traces_equal(&tag, &ri.trace, &rt.trace);
        assert_eq!(interp.arch_digest(), trans.arch_digest(), "{tag}: digest");
        assert_eq!(
            interp.mem.content_hash(),
            trans.mem.content_hash(),
            "{tag}: memory"
        );
        let faults: u64 = ri
            .trace
            .ops
            .iter()
            .map(|o| u64::from(o.stream_faults))
            .sum();
        assert!(
            faults > 0,
            "{tag}: plan injected no faults — test is vacuous"
        );

        // Sliced + faulted: fuel gates and fault rollback interleaved.
        let mut sliced = emulator(64, ExecMode::Translated, true);
        sliced.set_fault_plan(plan());
        bench.setup(&mut sliced);
        let mut cursor = RunCursor::new();
        while !sliced.resume(&program, &mut cursor, Some(3)).unwrap() {}
        assert_eq!(
            sliced.arch_digest(),
            interp.arch_digest(),
            "{tag} sliced: digest"
        );
        assert_eq!(
            sliced.mem.content_hash(),
            interp.mem.content_hash(),
            "{tag} sliced: memory"
        );
    }
}

/// One emulator reused across different programs must re-key its
/// translation cache — block PCs of the old program mean nothing in the
/// new one.
#[test]
fn translation_cache_rekeys_across_programs() {
    let suite = small_suite();
    let mut emu = emulator(64, ExecMode::Translated, true);
    for i in [0usize, 2, 3] {
        let bench = suite[i].as_ref();
        bench.setup(&mut emu);
        emu.run(&bench.program(Flavor::Uve))
            .unwrap_or_else(|e| panic!("{} on shared emulator: {e}", bench.name()));
        bench
            .check(&emu)
            .unwrap_or_else(|e| panic!("{} on shared emulator: {e}", bench.name()));
    }
}
