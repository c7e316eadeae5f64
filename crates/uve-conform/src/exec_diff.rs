//! Interpreter-differential fuzzing of the translated execution mode.
//!
//! The basic-block translation cache ([`uve_core::ExecMode::Translated`])
//! promises *bit-identical* behaviour to the decode-dispatch interpreter —
//! the acceptance bar for every consumer from the conformance sweeps to
//! `uve-smp` scheduling. Each case picks a random kernel instance, flavor
//! and vector length, then diffs the two execution modes against each
//! other:
//!
//! 1. **Traced full run** — the complete dynamic [`Trace`] (every op,
//!    every stream chunk), the architectural digest, the memory content
//!    hash and the per-stream element totals must match; a run that fails
//!    must fail with the same [`EmuError`](uve_core::EmuError) rendering.
//! 2. **Untraced full run** — the fast path the throughput bench and the
//!    sweeps use (`record_trace: false`) re-checked separately, since it
//!    dispatches through a different (straight-line) executor.
//! 3. **Sliced translated resume** — when the case carries a slice budget,
//!    the translated run is re-executed through budgeted
//!    [`resume`](uve_core::Emulator::resume) slices (the `uve-smp`
//!    preemption primitive) and must land in the same final state.
//! 4. **Faulted run** — when the case carries a fault plan, both modes run
//!    under the same [`StreamFaultPlan`] and must recover identically,
//!    trap-for-trap (`stream_faults` is part of the trace diff).

use crate::kernel_diff::{self, KernelCase};
use crate::rng::FuzzRng;
use crate::Engine;
use uve_core::{EmuConfig, Emulator, ExecMode, RunCursor, StreamFaultPlan, Trace};
use uve_kernels::{Benchmark, Flavor};
use uve_mem::Memory;

/// One differential case: a kernel instance and the execution conditions
/// both modes are run under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecCase {
    /// Kernel and problem size.
    pub kernel: KernelCase,
    /// Code flavor to emulate.
    pub flavor: Flavor,
    /// Vector length in bytes (16, 32 or 64).
    pub vlen_bytes: usize,
    /// Budget for the sliced-resume re-run (`None` skips it).
    pub slice: Option<u64>,
    /// `(seed, rate)` of a [`StreamFaultPlan`] applied to both modes
    /// (`None` skips the faulted run).
    pub fault: Option<(u64, u64)>,
}

/// Final state of one emulation, with the trace when recorded. An erroring
/// run is represented by the `Err` rendering, so "both modes fail the same
/// way" counts as equal behaviour. (`Trace` does not implement
/// `PartialEq`; [`diff`] compares its fields directly.)
#[derive(Debug, Clone)]
struct Outcome {
    committed: u64,
    arch_digest: u64,
    mem_hash: u64,
    faults_taken: u64,
    trace: Option<Trace>,
}

fn fresh_emulator(case: &ExecCase, exec: ExecMode, traced: bool) -> Emulator {
    let cfg = EmuConfig {
        vlen_bytes: case.vlen_bytes,
        record_trace: traced,
        exec,
        ..EmuConfig::default()
    };
    let mut emu = Emulator::new(cfg, Memory::new());
    if let Some((seed, rate)) = case.fault {
        emu.set_fault_plan(Some(StreamFaultPlan::new(seed, rate)));
    }
    emu
}

/// Runs the case to completion under `exec`, optionally in budgeted
/// resume slices, and returns the final state (or the error rendering).
fn run_one(
    case: &ExecCase,
    bench: &dyn Benchmark,
    exec: ExecMode,
    traced: bool,
    slice: Option<u64>,
) -> Result<Outcome, String> {
    let mut emu = fresh_emulator(case, exec, traced);
    bench.setup(&mut emu);
    let program = bench.program(case.flavor);
    let mut cursor = RunCursor::new();
    let run = loop {
        match emu.resume(&program, &mut cursor, slice) {
            Ok(true) => break Ok(cursor.into_result()),
            Ok(false) => {}
            Err(e) => break Err(format!("{e}")),
        }
    };
    let result = run?;
    Ok(Outcome {
        committed: result.committed,
        arch_digest: emu.arch_digest(),
        mem_hash: emu.mem.content_hash(),
        faults_taken: result
            .trace
            .ops
            .iter()
            .map(|op| u64::from(op.stream_faults))
            .sum(),
        trace: traced.then_some(result.trace),
    })
}

/// Diffs two outcomes, naming the execution condition in the message.
fn diff(
    what: &str,
    interp: &Result<Outcome, String>,
    trans: &Result<Outcome, String>,
) -> Result<(), String> {
    match (interp, trans) {
        (Err(a), Err(b)) => {
            if a == b {
                Ok(())
            } else {
                Err(format!(
                    "{what}: interpreter error {a:?} vs translated error {b:?}"
                ))
            }
        }
        (Ok(_), Err(b)) => Err(format!(
            "{what}: translated errored ({b}) where the interpreter succeeded"
        )),
        (Err(a), Ok(_)) => Err(format!(
            "{what}: interpreter errored ({a}) where translated succeeded"
        )),
        (Ok(a), Ok(b)) => {
            if a.committed != b.committed {
                return Err(format!(
                    "{what}: committed {} (interpreter) vs {} (translated)",
                    a.committed, b.committed
                ));
            }
            if a.faults_taken != b.faults_taken {
                return Err(format!(
                    "{what}: stream faults taken {} vs {}",
                    a.faults_taken, b.faults_taken
                ));
            }
            if let (Some(ta), Some(tb)) = (&a.trace, &b.trace) {
                if let Some(i) = ta.ops.iter().zip(&tb.ops).position(|(x, y)| x != y) {
                    return Err(format!(
                        "{what}: trace diverges at dynamic op {i}: {:?} vs {:?}",
                        ta.ops[i], tb.ops[i]
                    ));
                }
                if ta.ops.len() != tb.ops.len() {
                    return Err(format!(
                        "{what}: trace length {} vs {}",
                        ta.ops.len(),
                        tb.ops.len()
                    ));
                }
                let ea: Vec<_> = ta.streams.iter().map(|s| (s.u, s.elements())).collect();
                let eb: Vec<_> = tb.streams.iter().map(|s| (s.u, s.elements())).collect();
                if ea != eb {
                    return Err(format!(
                        "{what}: per-stream element totals {ea:?} vs {eb:?}"
                    ));
                }
                if ta.streams != tb.streams {
                    return Err(format!("{what}: stream side tables differ"));
                }
                if ta.lines != tb.lines || ta.stream_refs != tb.stream_refs {
                    return Err(format!("{what}: trace pools differ"));
                }
            }
            if a.arch_digest != b.arch_digest {
                return Err(format!(
                    "{what}: arch_digest 0x{:016x} vs 0x{:016x}",
                    a.arch_digest, b.arch_digest
                ));
            }
            if a.mem_hash != b.mem_hash {
                return Err(format!(
                    "{what}: memory content hash 0x{:016x} vs 0x{:016x}",
                    a.mem_hash, b.mem_hash
                ));
            }
            Ok(())
        }
    }
}

/// The interpreter-differential engine.
pub struct ExecEngine;

impl Engine for ExecEngine {
    type Case = ExecCase;

    fn name() -> &'static str {
        "exec"
    }

    fn generate(rng: &mut FuzzRng) -> ExecCase {
        let kernel = kernel_diff::gen_case(rng);
        let flavor = *rng.pick(&Flavor::all());
        let vlen_bytes = *rng.pick(&[16usize, 32, 64]);
        let slice = rng.chance(1, 2).then(|| rng.range_u64(1, 257));
        let fault = rng.chance(1, 3).then(|| (rng.u64(), rng.range_u64(1, 4)));
        ExecCase {
            kernel,
            flavor,
            vlen_bytes,
            slice,
            fault,
        }
    }

    fn check(case: &ExecCase) -> Result<(), String> {
        let bench = case.kernel.bench();
        let bare = ExecCase {
            fault: None,
            ..*case
        };

        // 1. Traced full runs, fault-free.
        let i = run_one(&bare, bench.as_ref(), ExecMode::Interpret, true, None);
        let t = run_one(&bare, bench.as_ref(), ExecMode::Translated, true, None);
        diff("traced", &i, &t)?;

        // 2. Untraced full runs (the straight-line fast path).
        let iu = run_one(&bare, bench.as_ref(), ExecMode::Interpret, false, None);
        let tu = run_one(&bare, bench.as_ref(), ExecMode::Translated, false, None);
        diff("untraced", &iu, &tu)?;

        // 3. Sliced translated resume against the interpreter's full run.
        if let Some(budget) = case.slice {
            let ts = run_one(
                &bare,
                bench.as_ref(),
                ExecMode::Translated,
                false,
                Some(budget),
            );
            diff(&format!("sliced(budget={budget})"), &iu, &ts)?;
        }

        // 4. Faulted traced runs under the same plan, trap-for-trap.
        if case.fault.is_some() {
            let fi = run_one(case, bench.as_ref(), ExecMode::Interpret, true, None);
            let ft = run_one(case, bench.as_ref(), ExecMode::Translated, true, None);
            diff("faulted", &fi, &ft)?;
            if let (Ok(clean), Ok(faulted)) = (&i, &fi) {
                if clean.mem_hash != faulted.mem_hash || clean.arch_digest != faulted.arch_digest {
                    return Err(format!(
                        "faulted interpreter run did not recover to the clean state \
                         (mem 0x{:016x} vs 0x{:016x})",
                        clean.mem_hash, faulted.mem_hash
                    ));
                }
            }
        }
        Ok(())
    }

    fn shrink(case: &ExecCase) -> Vec<ExecCase> {
        let mut out = Vec::new();
        if case.fault.is_some() {
            out.push(ExecCase {
                fault: None,
                ..*case
            });
        }
        if case.slice.is_some() {
            out.push(ExecCase {
                slice: None,
                ..*case
            });
        }
        out.extend(
            case.kernel
                .smaller()
                .into_iter()
                .map(|kernel| ExecCase { kernel, ..*case }),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_cases_pass() {
        for case in 0..20 {
            crate::replay_one("exec", 1, case).unwrap();
        }
    }

    #[test]
    fn shrink_drops_fault_and_slice_first() {
        let case = ExecCase {
            kernel: KernelCase::Saxpy(64),
            flavor: Flavor::Uve,
            vlen_bytes: 64,
            slice: Some(7),
            fault: Some((3, 2)),
        };
        let cands = ExecEngine::shrink(&case);
        assert!(cands[0].fault.is_none());
        assert!(cands[1].slice.is_none());
        assert!(cands.iter().any(|c| c.kernel == KernelCase::Saxpy(32)));
    }
}
