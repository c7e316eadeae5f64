//! The cycle-driven out-of-order core timing model.
//!
//! The model replays a committed-path [`Trace`] through a Cortex-A76-like
//! pipeline (Table I): 4-wide fetch and commit, 8-wide issue across three
//! scheduler clusters (integer, FP/vector, memory), a 128-entry ROB,
//! 32/48-entry load/store queues, per-class physical register files, a
//! bimodal branch predictor with front-end refill penalties, the shared
//! memory hierarchy, and — for UVE code — the Streaming Engine.
//!
//! Being trace-driven, wrong-path instructions are not executed; their
//! dominant cost (front-end bubbles between a mispredicted branch's fetch
//! and its resolution plus the redirect penalty) is modelled, which is the
//! substitution documented in `DESIGN.md`.

use crate::config::CpuConfig;
use crate::events::{ChunkSpan, EventLog, FifoPoint, OpSpan};
use crate::predictor::Bimodal;
use crate::stats::{CycleAccount, RenameBlockReason, Stall, TimingStats};
use std::collections::VecDeque;
use uve_core::engine::{ChunkStatus, EngineSim};
use uve_core::{StreamRef, Trace, TraceOp};
use uve_isa::{Dir, ExecClass, RegClass, RegRef};
use uve_mem::{MemPort, MemSystem, Path, LINE_BYTES};

/// Scheduler cluster indices.
const CL_INT: usize = 0;
const CL_FPVEC: usize = 1;
const CL_MEM: usize = 2;

fn cluster_of(class: ExecClass) -> usize {
    match class {
        ExecClass::Load | ExecClass::Store => CL_MEM,
        ExecClass::FpAdd
        | ExecClass::FpMul
        | ExecClass::FpMac
        | ExecClass::FpDiv
        | ExecClass::VecInt => CL_FPVEC,
        _ => CL_INT,
    }
}

fn class_idx(c: RegClass) -> usize {
    match c {
        RegClass::Int => 0,
        RegClass::Fp => 1,
        RegClass::Vec => 2,
        RegClass::Pred => 3,
    }
}

const NOT_DONE: u64 = u64::MAX;

/// Renders the no-retire watchdog diagnostic: instead of spinning silently
/// to `max_cycles`, a deadlocked model dumps where commit is stuck and the
/// full cycle-accounting table so the stall is attributable post mortem.
#[allow(clippy::too_many_arguments)]
fn watchdog_report(
    watchdog_cycles: u64,
    now: u64,
    commit_ptr: usize,
    n: usize,
    rob_used: usize,
    account: &CycleAccount,
    head_op: &TraceOp,
    head_reads: &[StreamRef],
    head_done: u64,
    engine: &EngineSim,
) -> String {
    use std::fmt::Write as _;
    let mut out =
        format!("no-retire watchdog: {watchdog_cycles} cycles without a commit at cycle {now}\n");
    let _ = writeln!(
        out,
        "  commit_ptr {commit_ptr}/{n}, rob_used {rob_used}, head pc={} exec={:?} done={}",
        head_op.pc,
        head_op.exec,
        if head_done == NOT_DONE {
            "never-issued".to_string()
        } else {
            head_done.to_string()
        },
    );
    if !head_reads.is_empty() {
        let _ = writeln!(out, "  head stream_reads: {head_reads:?}");
    }
    let _ = writeln!(
        out,
        "  engine: {} open stream(s), occupancies {:?}",
        engine.open_streams(),
        engine.occupancies(),
    );
    let _ = writeln!(out, "  cycle accounting so far:");
    for (name, value) in CycleAccount::CATEGORIES.iter().zip(account.values()) {
        if value > 0 {
            let _ = writeln!(out, "    {name:<12} {value}");
        }
    }
    out
}

/// An issue-queue entry: the op, how many in-flight producers it waits on
/// (listed in [`CorePipeline::deps`] at the op's ROB ring slot), and
/// whether it is a store (for the memory cluster's port limits), so that
/// an entry still waiting on registers is skipped without reading its op.
#[derive(Debug, Clone, Copy)]
struct IqEntry {
    idx: usize,
    ndeps: usize,
    is_store: bool,
}

/// What a quiet cycle charged. Until the next event every cycle would
/// charge the same, so the skip repeats it in bulk.
#[derive(Debug, Clone, Copy)]
struct Quiet {
    stall: Stall,
    rename_block: Option<RenameBlockReason>,
}

/// Registers per class in the flat `last_writer` table (`RegRef::num` is a
/// `u8`).
const REGS_PER_CLASS: usize = 256;
const NO_WRITER: usize = usize::MAX;

fn reg_slot(r: RegRef) -> usize {
    class_idx(r.class) * REGS_PER_CLASS + usize::from(r.num)
}

/// The out-of-order core model.
#[derive(Debug, Clone)]
pub struct OoOCore {
    cfg: CpuConfig,
}

impl OoOCore {
    /// Creates a core with the given configuration.
    pub fn new(cfg: CpuConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Simulates the trace to completion over a fresh (cold) memory
    /// hierarchy.
    pub fn run(&self, trace: &Trace) -> TimingStats {
        let mut mem = MemSystem::new(self.cfg.mem.clone());
        self.run_with(trace, &mut mem)
    }

    /// Simulates the trace twice over a fresh hierarchy and reports the
    /// second (warm) pass — the steady-state methodology used for the
    /// paper's figures.
    pub fn run_warm(&self, trace: &Trace) -> TimingStats {
        let mut mem = MemSystem::new(self.cfg.mem.clone());
        self.run_with(trace, &mut mem);
        mem.reset_stats();
        self.run_with(trace, &mut mem)
    }

    /// [`run_warm`](Self::run_warm) stepping every cycle with
    /// [`CorePipeline::step_cycle`] — the cycle-exact reference that the
    /// quiet-cycle skip of [`CorePipeline::step`] must match bit for bit.
    /// Returns the cold and the warm pass.
    pub fn run_warm_exact(&self, trace: &Trace) -> (TimingStats, TimingStats) {
        let mut mem = MemSystem::new(self.cfg.mem.clone());
        let cold = self.run_inner(trace, &mut mem, None, CorePipeline::step_cycle);
        mem.reset_stats();
        let warm = self.run_inner(trace, &mut mem, None, CorePipeline::step_cycle);
        (cold, warm)
    }

    /// Simulates the trace once over a fresh (cold) hierarchy while
    /// capturing per-instruction pipeline spans, stream chunk load-to-use
    /// spans and FIFO occupancy timelines — the single-run visualization
    /// hook behind `uve-bench --bin trace`.
    pub fn run_traced(&self, trace: &Trace) -> (TimingStats, EventLog) {
        let mut mem = MemSystem::new(self.cfg.mem.clone());
        let mut log = EventLog::default();
        let stats = self.run_inner(trace, &mut mem, Some(&mut log), CorePipeline::step);
        log.cycles = stats.cycles;
        (stats, log)
    }

    /// Simulates the trace to completion against an existing memory system
    /// and returns timing statistics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds `max_cycles` (a model bug, not a
    /// user error).
    pub fn run_with(&self, trace: &Trace, mem: &mut MemSystem) -> TimingStats {
        self.run_inner(trace, mem, None, CorePipeline::step)
    }

    fn run_inner(
        &self,
        trace: &Trace,
        mem: &mut MemSystem,
        mut events: Option<&mut EventLog>,
        step: fn(&mut CorePipeline, &Trace, &mut MemSystem, Option<&mut EventLog>),
    ) -> TimingStats {
        if trace.ops.is_empty() {
            return TimingStats::empty();
        }
        let mut pipe = CorePipeline::new(self.cfg.clone(), trace, 0, events.is_some());
        while !pipe.finished() {
            step(&mut pipe, trace, mem, events.as_deref_mut());
        }
        pipe.finish(mem)
    }
}

/// One core's pipeline state, steppable cycle by cycle.
///
/// [`OoOCore`] drives a single pipeline to completion over a
/// [`MemSystem`]; the multicore model steps N pipelines in lockstep, each
/// against its own port into the shared hierarchy. The per-cycle logic is
/// identical in both cases, so single-core runs are bit-identical to the
/// pre-refactor model.
#[derive(Debug)]
pub struct CorePipeline {
    cfg: CpuConfig,
    core_id: usize,
    n: usize,
    engine: EngineSim,
    predictor: Bimodal,
    done: Vec<u64>,
    // Front end.
    fetch_ptr: usize,
    decode_q: VecDeque<usize>,
    /// Fetch stalls until `done[idx] + penalty` after a mispredict.
    fetch_stalled_on: Option<usize>,
    /// Preemption support: a frozen front end fetches nothing, letting the
    /// in-flight window drain for a context switch.
    fetch_frozen: bool,
    // Rename / backend occupancy.
    commit_ptr: usize,
    rob_used: usize,
    lq_used: usize,
    sq_used: usize,
    free_regs: [usize; 4],
    /// Scheduler clusters, each in age (op index) order.
    iq: [Vec<IqEntry>; 3],
    /// In-flight producers of each queued op: `dep_stride` slots per ROB
    /// ring slot, of which the op's [`IqEntry::ndeps`] are used.
    /// `dep_stride` is the trace's widest source list, so it always fits.
    deps: Vec<usize>,
    dep_stride: usize,
    /// Youngest renamed writer of each architectural register, indexed by
    /// [`reg_slot`].
    last_writer: Vec<usize>,
    stats: TimingStats,
    now: u64,
    /// Per-load issue outcome for stall attribution, in a ring indexed by
    /// op index modulo the ROB size: at most `rob_entries` ops are in
    /// flight, so slots are never reused before the head retires.
    /// `(issue cycle, MSHR wait, from DRAM, from a remote L1 over the bus)`.
    ring: usize,
    load_info: Vec<(u64, u64, bool, bool)>,
    // Event capture (only when a log was requested).
    track: bool,
    rename_at: Vec<u64>,
    issue_at: Vec<u64>,
    fifo_last: [u32; 32],
    /// No-retire watchdog: cycle of the most recent commit (or start).
    last_commit_cycle: u64,
}

impl CorePipeline {
    /// Creates a pipeline for `trace` on core `core_id`. `track` enables
    /// per-op span capture (pass the matching `events` log to every
    /// [`step`](Self::step)).
    pub fn new(cfg: CpuConfig, trace: &Trace, core_id: usize, track: bool) -> Self {
        let n = trace.ops.len();
        let engine = EngineSim::new(cfg.engine);
        let predictor = Bimodal::new(cfg.predictor_entries);
        let ring = cfg.rob_entries.max(1);
        let free_regs = cfg.free_regs();
        let dep_stride = trace.ops.iter().map(|op| op.srcs.len()).max().unwrap_or(0);
        Self {
            cfg,
            core_id,
            n,
            engine,
            predictor,
            done: vec![NOT_DONE; n],
            fetch_ptr: 0,
            decode_q: VecDeque::new(),
            fetch_stalled_on: None,
            fetch_frozen: false,
            commit_ptr: 0,
            rob_used: 0,
            lq_used: 0,
            sq_used: 0,
            free_regs,
            iq: [Vec::new(), Vec::new(), Vec::new()],
            deps: vec![0; ring * dep_stride],
            dep_stride,
            last_writer: vec![NO_WRITER; 4 * REGS_PER_CLASS],
            stats: TimingStats::empty(),
            now: 0,
            ring,
            load_info: vec![(0, 0, false, false); ring],
            track,
            rename_at: if track { vec![0; n] } else { Vec::new() },
            issue_at: if track { vec![0; n] } else { Vec::new() },
            fifo_last: [0u32; 32],
            last_commit_cycle: 0,
        }
    }

    /// The core id this pipeline runs on.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// The current cycle (cycles stepped so far).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// True once every trace op has committed.
    pub fn finished(&self) -> bool {
        self.commit_ptr >= self.n
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// The statistics accumulated so far (`cycles` is only stamped by
    /// [`finish`](Self::finish)).
    pub fn stats(&self) -> &TimingStats {
        &self.stats
    }

    /// Freezes or thaws the front end. A preempting scheduler freezes
    /// fetch, steps until [`drained`](Self::drained), and swaps pipelines.
    pub fn set_fetch_frozen(&mut self, frozen: bool) {
        self.fetch_frozen = frozen;
    }

    /// True when no instruction is in flight (ROB and decode queue empty) —
    /// the point where a context switch can take the core.
    pub fn drained(&self) -> bool {
        self.rob_used == 0 && self.decode_q.is_empty()
    }

    /// Charges `penalty` idle cycles for a context-switch restore (stream
    /// contexts reloaded, caches re-warmed by later misses). Attributed to
    /// the `frontend` category — the pipeline refills from scratch — so
    /// cycle-accounting conservation holds across preemptions.
    pub fn charge_restore_penalty(&mut self, penalty: u64) {
        self.now += penalty;
        self.stats.account.frontend += penalty;
    }

    /// Finishes the run: stamps the cycle count and pulls final statistics
    /// from the memory port.
    pub fn finish<M: MemPort>(mut self, mem: &M) -> TimingStats {
        self.stats.cycles = self.now;
        self.stats.finalize(mem, &self.engine, &self.predictor);
        self.stats
    }

    /// Advances the pipeline by one cycle against `mem`, then, if that
    /// cycle was quiet, jumps straight to the next cycle at which any
    /// stage could act.
    ///
    /// A cycle is *quiet* when it committed, issued, renamed and fetched
    /// nothing and the Streaming Engine found no eligible stream. Every
    /// stage then waits on a known timestamp (an op completing, a
    /// mispredict redirect, a head load leaving the MSHR queue, a stream's
    /// configuration, fault backoff or buffered chunk), so each following
    /// cycle up to the earliest of them would repeat the quiet cycle's
    /// charges exactly; those are applied in bulk instead. Results are
    /// bit-identical to calling [`step_cycle`](Self::step_cycle) until
    /// `now()` reaches the same cycle. The jump never passes the cycle at
    /// which the no-retire watchdog fires or `max_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `max_cycles` or the no-retire watchdog
    /// fires (model bugs, not user errors).
    pub fn step<M: MemPort>(&mut self, trace: &Trace, mem: &mut M, events: Option<&mut EventLog>) {
        if let Some(quiet) = self.cycle(trace, mem, events) {
            self.skip_quiet(trace, quiet);
        }
    }

    /// Advances the pipeline by exactly one cycle against `mem` — for
    /// drivers that act between cycles (preemptive scheduling counts
    /// quanta and restore ticks per cycle).
    ///
    /// # Panics
    ///
    /// As [`step`](Self::step).
    pub fn step_cycle<M: MemPort>(
        &mut self,
        trace: &Trace,
        mem: &mut M,
        events: Option<&mut EventLog>,
    ) {
        self.cycle(trace, mem, events);
    }

    /// Charges the cycles from `now` up to the next event as repeats of
    /// the quiet cycle just simulated, and advances `now` there.
    fn skip_quiet(&mut self, trace: &Trace, quiet: Quiet) {
        let now = self.now;
        let watchdog_fires = self
            .last_commit_cycle
            .saturating_add(self.cfg.watchdog_cycles)
            .saturating_add(1);
        let target = self
            .next_event(trace)
            .min(watchdog_fires)
            .min(self.cfg.max_cycles);
        if target <= now {
            return;
        }
        let skipped = target - now;
        self.stats.account.charge(quiet.stall, skipped);
        if let Some(reason) = quiet.rename_block {
            self.stats.rename_blocked_cycles += skipped;
            self.stats.rename_block_reasons.bump(reason, skipped);
        }
        self.engine.sample_idle(skipped);
        // The deadline poll of every skipped multiple of 0x10000.
        if (target - 1) >> 16 != (now - 1) >> 16 {
            uve_core::deadline::check("timing model");
        }
        self.now = target;
    }

    /// The earliest cycle `>= now` at which a waiting stage can act: an
    /// in-flight op completes (commit, wakeup, head attribution), a
    /// mispredict redirect ends, the head load's MSHR wait ends (its
    /// attribution moves from `mshr` to `dram`/`cache`), or an engine
    /// event ([`EngineSim::next_event`]).
    fn next_event(&self, trace: &Trace) -> u64 {
        let now = self.now;
        let future = |t: u64| if t >= now { t } else { u64::MAX };
        let in_flight = &self.done[self.commit_ptr..self.commit_ptr + self.rob_used];
        let mut next = in_flight
            .iter()
            .fold(self.engine.next_event(now), |m, &d| m.min(future(d)));
        if let Some(b) = self.fetch_stalled_on {
            if self.done[b] != NOT_DONE {
                next = next.min(future(
                    self.done[b].saturating_add(self.cfg.mispredict_penalty),
                ));
            }
        }
        if self.rob_used > 0 && self.done[self.commit_ptr] != NOT_DONE {
            let head = &trace.ops[self.commit_ptr];
            if head.exec == ExecClass::Load && !head.mem_lines.is_empty() {
                let (issue, mshr_wait, _, _) = self.load_info[self.commit_ptr % self.ring];
                next = next.min(future(issue + mshr_wait));
            }
        }
        next
    }

    /// Simulates one cycle; returns what it charged if it was quiet.
    #[allow(clippy::too_many_lines)]
    fn cycle<M: MemPort>(
        &mut self,
        trace: &Trace,
        mem: &mut M,
        mut events: Option<&mut EventLog>,
    ) -> Option<Quiet> {
        let now = self.now;
        assert!(
            now < self.cfg.max_cycles,
            "timing model exceeded {} cycles (commit_ptr={}/{})",
            self.cfg.max_cycles,
            self.commit_ptr,
            self.n
        );
        if now & 0xFFFF == 0 {
            uve_core::deadline::check("timing model");
        }
        if now.saturating_sub(self.last_commit_cycle) > self.cfg.watchdog_cycles {
            panic!(
                "{}",
                watchdog_report(
                    self.cfg.watchdog_cycles,
                    now,
                    self.commit_ptr,
                    self.n,
                    self.rob_used,
                    &self.stats.account,
                    &trace.ops[self.commit_ptr],
                    trace.stream_reads(&trace.ops[self.commit_ptr]),
                    self.done[self.commit_ptr],
                    &self.engine,
                )
            );
        }

        // ---- commit (in order, commit_width per cycle) ----
        let mut committed = 0;
        while committed < self.cfg.commit_width && self.commit_ptr < self.n {
            let idx = self.commit_ptr;
            if self.done[idx] == NOT_DONE || self.done[idx] > now {
                break;
            }
            let op = &trace.ops[idx];
            if op.is_store {
                for &line in trace.mem_lines(op) {
                    mem.write(line * LINE_BYTES, u64::from(op.pc), now, Path::Normal);
                }
            }
            for &(inst, chunk) in trace.stream_reads(op) {
                if let Some(log) = events.as_deref_mut() {
                    if let ChunkStatus::Ready(ready) = self.engine.chunk_status(inst, chunk) {
                        log.chunks.push(ChunkSpan {
                            u: trace.streams[inst as usize].u,
                            chunk,
                            dir: Dir::Load,
                            ready,
                            commit: now,
                        });
                    }
                }
                self.engine.commit_read(inst, chunk);
            }
            for &(inst, chunk) in trace.stream_writes(op) {
                if let Some(log) = events.as_deref_mut() {
                    if let ChunkStatus::Ready(ready) = self.engine.chunk_status(inst, chunk) {
                        log.chunks.push(ChunkSpan {
                            u: trace.streams[inst as usize].u,
                            chunk,
                            dir: Dir::Store,
                            ready,
                            commit: now,
                        });
                    }
                }
                self.engine
                    .commit_write(inst, chunk, now, &trace.streams, mem);
            }
            if let Some(inst) = op.stream_close.get() {
                self.engine.close(inst);
            }
            for d in &op.dests {
                self.free_regs[class_idx(d.class)] += 1;
            }
            match op.exec {
                ExecClass::Load => self.lq_used -= 1,
                ExecClass::Store => self.sq_used -= 1,
                _ => {}
            }
            self.rob_used -= 1;
            if let Some(log) = events.as_deref_mut() {
                log.ops.push(OpSpan {
                    idx: idx as u32,
                    pc: op.pc,
                    exec: op.exec,
                    rename: self.rename_at[idx],
                    issue: self.issue_at[idx],
                    done: self.done[idx],
                    commit: now,
                });
            }
            self.commit_ptr += 1;
            committed += 1;
            self.stats.committed += 1;
        }
        if committed > 0 {
            self.last_commit_cycle = now;
        }

        // ---- issue (dataflow, bounded by ports and issue width) ----
        let mut issued_total = 0;
        let mut int_issued = 0;
        let mut fpvec_issued = 0;
        let mut loads_issued = 0;
        let mut stores_issued = 0;
        #[allow(clippy::needless_range_loop)] // `cl` selects ports too
        for cl in 0..3 {
            let issued_before = issued_total;
            let mut i = 0;
            while i < self.iq[cl].len() {
                if issued_total >= self.cfg.issue_width {
                    break;
                }
                let ports_ok = match cl {
                    CL_INT => int_issued < self.cfg.int_units,
                    CL_FPVEC => fpvec_issued < self.cfg.fpvec_units,
                    _ => true,
                };
                if !ports_ok {
                    break;
                }
                let entry = self.iq[cl][i];
                let idx = entry.idx;
                // Per-port limits within the memory cluster.
                if cl == CL_MEM {
                    let port_free = if entry.is_store {
                        stores_issued < self.cfg.store_ports
                    } else {
                        loads_issued < self.cfg.load_ports
                    };
                    if !port_free {
                        i += 1;
                        continue;
                    }
                }
                // Register dependencies.
                let first_dep = (idx % self.ring) * self.dep_stride;
                let deps_ready = self.deps[first_dep..first_dep + entry.ndeps]
                    .iter()
                    .all(|&d| self.done[d] != NOT_DONE && self.done[d] <= now);
                if !deps_ready {
                    i += 1;
                    continue;
                }
                // Stream chunk dependencies (input FIFO readiness).
                let op = &trace.ops[idx];
                let streams_ready = trace.stream_reads(op).iter().all(|&(inst, chunk)| {
                    matches!(self.engine.chunk_status(inst, chunk),
                             ChunkStatus::Ready(r) if r <= now)
                });
                if !streams_ready {
                    i += 1;
                    continue;
                }
                // Issue it.
                let mut completion = match op.exec {
                    ExecClass::Load => {
                        if op.mem_lines.is_empty() {
                            now + 1
                        } else {
                            let mut ready = now;
                            let mut mshr_wait = 0;
                            let mut from_dram = false;
                            let mut from_snoop = false;
                            for &line in trace.mem_lines(op) {
                                let r = mem.read_explained(
                                    line * LINE_BYTES,
                                    u64::from(op.pc),
                                    now,
                                    Path::Normal,
                                );
                                ready = ready.max(r.ready);
                                mshr_wait += r.mshr_wait;
                                from_dram |= r.from_dram;
                                from_snoop |= r.from_snoop;
                            }
                            self.load_info[idx % self.ring] =
                                (now, mshr_wait, from_dram, from_snoop);
                            ready
                        }
                    }
                    ExecClass::Store => now + 1,
                    class => now + self.cfg.latency(class),
                };
                // A precise stream-fault trap (recorded by the
                // functional emulator) costs a flush + handler +
                // restore round trip per fault.
                if op.stream_faults > 0 {
                    completion += self.cfg.fault_trap_penalty * u64::from(op.stream_faults);
                }
                self.done[idx] = completion;
                if self.track {
                    self.issue_at[idx] = now;
                }
                match cl {
                    CL_INT => int_issued += 1,
                    CL_FPVEC => fpvec_issued += 1,
                    _ if entry.is_store => stores_issued += 1,
                    _ => loads_issued += 1,
                }
                issued_total += 1;
                self.iq[cl].swap_remove(i);
                // Keep age order reasonably intact after swap_remove by
                // not advancing i (the swapped-in entry gets a chance).
            }
            if issued_total > issued_before {
                // Restore age order for the next cycle.
                self.iq[cl].sort_unstable_by_key(|e| e.idx);
            }
        }

        // ---- rename / dispatch (in order, fetch_width per cycle) ----
        let mut renamed = 0;
        // The reason rename made zero progress this cycle, if any (and,
        // for store-FIFO back-pressure, the stream register to blame).
        let mut cycle_block: Option<RenameBlockReason> = None;
        let mut cycle_block_u: u8 = 0;
        while renamed < self.cfg.fetch_width {
            let Some(&idx) = self.decode_q.front() else {
                break;
            };
            let op = &trace.ops[idx];
            // Resource checks.
            let mut block = None;
            if self.rob_used >= self.cfg.rob_entries {
                block = Some(RenameBlockReason::Rob);
            } else if self.iq.iter().map(Vec::len).sum::<usize>() >= self.cfg.iq_entries
                || self.iq[cluster_of(op.exec)].len() >= self.cfg.cluster_entries
            {
                block = Some(RenameBlockReason::Iq);
            } else if (op.exec == ExecClass::Load && self.lq_used >= self.cfg.lq_entries)
                || (op.exec == ExecClass::Store && self.sq_used >= self.cfg.sq_entries)
            {
                block = Some(RenameBlockReason::Lsq);
            } else if op
                .dests
                .iter()
                .any(|d| self.free_regs[class_idx(d.class)] == 0)
            {
                block = Some(RenameBlockReason::Prf);
            } else if trace.stream_writes(op).iter().any(|&(inst, chunk)| {
                self.engine.chunk_status(inst, chunk) == ChunkStatus::NotFetched
            }) {
                // Store FIFO slot not yet reserved by the engine.
                block = Some(RenameBlockReason::StoreFifo);
            }
            if let Some(reason) = block {
                if renamed == 0 {
                    self.stats.rename_blocked_cycles += 1;
                    self.stats.rename_block_reasons.bump(reason, 1);
                    cycle_block = Some(reason);
                    if reason == RenameBlockReason::StoreFifo {
                        cycle_block_u = trace
                            .stream_writes(op)
                            .iter()
                            .find(|&&(inst, chunk)| {
                                self.engine.chunk_status(inst, chunk) == ChunkStatus::NotFetched
                            })
                            .map_or(0, |&(inst, _)| trace.streams[inst as usize].u);
                    }
                }
                break;
            }
            self.decode_q.pop_front();
            self.rob_used += 1;
            match op.exec {
                ExecClass::Load => self.lq_used += 1,
                ExecClass::Store => self.sq_used += 1,
                _ => {}
            }
            for d in &op.dests {
                self.free_regs[class_idx(d.class)] -= 1;
            }
            // Stream configuration completes here (speculative config).
            if let Some(inst) = op.stream_open.get() {
                self.engine.open(inst, &trace.streams[inst as usize], now);
            }
            // Dependencies on in-flight producers only.
            let first_dep = (idx % self.ring) * self.dep_stride;
            let mut ndeps = 0;
            for s in &op.srcs {
                let d = self.last_writer[reg_slot(*s)];
                if d != NO_WRITER && (self.done[d] == NOT_DONE || self.done[d] > now) {
                    self.deps[first_dep + ndeps] = d;
                    ndeps += 1;
                }
            }
            for d in &op.dests {
                self.last_writer[reg_slot(*d)] = idx;
            }
            if self.track {
                self.rename_at[idx] = now;
            }
            self.iq[cluster_of(op.exec)].push(IqEntry {
                idx,
                ndeps,
                is_store: op.exec == ExecClass::Store,
            });
            renamed += 1;
        }

        // ---- fetch (in order, fetch_width per cycle) ----
        if let Some(b) = self.fetch_stalled_on {
            if self.done[b] != NOT_DONE && now >= self.done[b] + self.cfg.mispredict_penalty {
                self.fetch_stalled_on = None;
            }
        }
        let mut fetched = 0;
        if self.fetch_stalled_on.is_none() && !self.fetch_frozen {
            while fetched < self.cfg.fetch_width
                && self.decode_q.len() < self.cfg.decode_queue
                && self.fetch_ptr < self.n
            {
                let idx = self.fetch_ptr;
                let op = &trace.ops[idx];
                self.decode_q.push_back(idx);
                self.fetch_ptr += 1;
                fetched += 1;
                if let Some(b) = op.branch {
                    self.stats.branches += 1;
                    let correct = self.predictor.predict_and_train(op.pc, b.taken);
                    if !correct {
                        self.stats.branch_mispredicts += 1;
                        self.fetch_stalled_on = Some(idx);
                        break;
                    }
                    if b.taken {
                        // Taken-branch fetch bubble.
                        break;
                    }
                }
            }
        }

        // ---- streaming engine ----
        let engine_active = self.engine.tick(now, &trace.streams, mem);

        // ---- FIFO occupancy timeline (change-compressed) ----
        if let Some(log) = events {
            let mut cur = [0u32; 32];
            for (inst, occ) in self.engine.occupancies() {
                cur[usize::from(trace.streams[inst as usize].u) & 31] = occ as u32;
            }
            for (u, (&c, last)) in cur.iter().zip(self.fifo_last.iter_mut()).enumerate() {
                if c != *last {
                    log.fifo.push(FifoPoint {
                        cycle: now,
                        u: u as u8,
                        occupancy: c,
                    });
                    *last = c;
                }
            }
        }

        // ---- top-down cycle attribution ----
        let stall = if committed > 0 {
            Stall::Retiring
        } else {
            self.stall(trace, now, cycle_block, cycle_block_u)
        };
        self.stats.account.charge(stall, 1);

        self.now += 1;
        let quiet =
            committed == 0 && issued_total == 0 && renamed == 0 && fetched == 0 && !engine_active;
        quiet.then_some(Quiet {
            stall,
            rename_block: cycle_block,
        })
    }

    /// The stall category of a cycle that committed nothing: exactly one
    /// per cycle, see `CycleAccount` for the cascade. `commit_ptr` did not
    /// move, so when the ROB is non-empty `trace.ops[commit_ptr]` is its
    /// oldest (head) entry.
    fn stall(
        &self,
        trace: &Trace,
        now: u64,
        cycle_block: Option<RenameBlockReason>,
        cycle_block_u: u8,
    ) -> Stall {
        let head = self.commit_ptr;
        let head_op = &trace.ops[head];
        let head_issued = self.rob_used > 0 && self.done[head] != NOT_DONE;
        let head_waiting_mem = head_issued
            && self.done[head] > now
            && head_op.exec == ExecClass::Load
            && !head_op.mem_lines.is_empty();
        if head_waiting_mem {
            let (issue, mshr_wait, from_dram, from_snoop) = self.load_info[head % self.ring];
            return if now < issue + mshr_wait {
                Stall::MshrWait
            } else if from_snoop {
                // Served cache-to-cache by a remote core over the snoop
                // bus: a coherence stall, not a plain cache hit.
                Stall::SnoopWait
            } else if from_dram {
                Stall::DramWait
            } else {
                Stall::CacheWait
            };
        }
        if self.rob_used > 0 && self.done[head] == NOT_DONE {
            let stream_stall = trace.stream_reads(head_op).iter().find(|&&(inst, chunk)| {
                !matches!(self.engine.chunk_status(inst, chunk),
                          ChunkStatus::Ready(r) if r <= now)
            });
            if let Some(&(inst, _)) = stream_stall {
                // A chunk late because its stream is retrying an injected
                // fault is not the engine falling behind the consumer.
                return if self.engine.in_fault_replay(inst, now) {
                    Stall::FaultReplay
                } else {
                    Stall::FifoEmpty(trace.streams[inst as usize].u)
                };
            }
        }
        match cycle_block {
            Some(RenameBlockReason::Rob) => Stall::RobFull,
            Some(RenameBlockReason::Iq) => Stall::IqFull,
            Some(RenameBlockReason::Lsq) => Stall::LsqFull,
            Some(RenameBlockReason::Prf) => Stall::PrfStarved,
            Some(RenameBlockReason::StoreFifo) => Stall::FifoFull(cycle_block_u),
            // The head's latency includes the precise stream-fault trap
            // round trips it took in the functional run; attribute the
            // wait to fault handling rather than plain execution.
            None if head_issued && head_op.stream_faults > 0 => Stall::FaultReplay,
            None if head_issued => Stall::Execute,
            None if self.rob_used > 0 => Stall::Depend,
            None if self.fetch_stalled_on.is_some() => Stall::BranchRedirect,
            None => Stall::Frontend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_core::{EmuConfig, Emulator};
    use uve_isa::assemble;
    use uve_mem::Memory;

    fn trace_of(text: &str, setup: impl FnOnce(&mut Emulator)) -> Trace {
        let prog = assemble("t", text).expect("test program must assemble");
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        setup(&mut emu);
        emu.run(&prog).expect("test program must run to halt").trace
    }

    #[test]
    fn empty_trace() {
        let s = OoOCore::new(CpuConfig::default()).run(&Trace::new());
        assert_eq!(s.cycles, 0);
    }

    #[test]
    fn straight_line_ipc_bounded_by_width() {
        // 400 independent ALU ops: IPC should approach the 2-ALU limit.
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&format!("addi x{}, x0, 1\n", 1 + (i % 8)));
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |_| {});
        let s = OoOCore::new(CpuConfig::default()).run(&t);
        let ipc = s.committed as f64 / s.cycles as f64;
        assert!(ipc > 1.2 && ipc <= 2.2, "ipc={ipc}");
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut text = String::new();
        for _ in 0..200 {
            text.push_str("addi x1, x1, 1\n");
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |_| {});
        let s = OoOCore::new(CpuConfig::default()).run(&t);
        let ipc = s.committed as f64 / s.cycles as f64;
        assert!(ipc < 1.2, "dependent chain must not exceed 1 IPC: {ipc}");
    }

    #[test]
    fn loads_cost_memory_latency() {
        // A pointer-chase-like chain of dependent loads misses in all
        // caches initially.
        let mut text = String::from("li x1, 0x100000\n");
        for _ in 0..32 {
            text.push_str("ld.d x1, 0(x1)\n");
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |emu| {
            // Each load lands on a different line; chain through memory.
            let mut addr = 0x100000u64;
            for i in 1..40u64 {
                let next = 0x100000 + i * 4096;
                emu.mem.write_u64(addr, next);
                addr = next;
            }
        });
        let cfg = CpuConfig::default();
        let s = OoOCore::new(cfg).run(&t);
        // 32 dependent DRAM-latency loads dominate.
        assert!(s.cycles > 32 * 90, "cycles={}", s.cycles);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // A data-dependent alternating branch pattern.
        let text = "
    li x1, 0
    li x2, 200
loop:
    addi x1, x1, 1
    andi x3, x1, 1
    beq x3, x0, skip
    addi x4, x4, 1
skip:
    bne x1, x2, loop
    halt
";
        // `andi` is not a mnemonic; use and with register: build differently
        let text = text.replace("andi x3, x1, 1", "addi x5, x0, 1\n    and x3, x1, x5");
        let t = trace_of(&text, |_| {});
        let s = OoOCore::new(CpuConfig::default()).run(&t);
        assert!(s.branch_mispredicts > 50, "{}", s.branch_mispredicts);
        // Each mispredict costs at least the redirect penalty in fetch
        // bubbles; the run must be visibly slower than 2 IPC.
        assert!(s.cycles > s.committed / 2);
    }

    #[test]
    fn cycle_account_partitions_every_run() {
        // Cold, warm, and a mispredict-heavy trace must all account for
        // exactly `cycles` cycles.
        let mut text = String::from("li x1, 0x100000\n");
        for _ in 0..16 {
            text.push_str("ld.d x1, 0(x1)\n");
        }
        text.push_str("halt\n");
        let chase = trace_of(&text, |emu| {
            let mut addr = 0x100000u64;
            for i in 1..20u64 {
                let next = 0x100000 + i * 4096;
                emu.mem.write_u64(addr, next);
                addr = next;
            }
        });
        let core = OoOCore::new(CpuConfig::default());
        for s in [core.run(&chase), core.run_warm(&chase)] {
            s.account
                .check(s.cycles)
                .expect("cycle accounting must conserve");
            // Dependent uncached loads: memory waits must dominate.
            assert!(
                s.account.dram_wait + s.account.cache_wait + s.account.mshr_wait > s.cycles / 4,
                "{:?}",
                s.account
            );
        }
    }

    #[test]
    fn traced_run_captures_spans_and_matches_cold_run() {
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("addi x{}, x0, 1\n", 1 + (i % 8)));
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |_| {});
        let core = OoOCore::new(CpuConfig::default());
        let (stats, log) = core.run_traced(&t);
        assert_eq!(stats, core.run(&t), "event capture must not perturb timing");
        assert_eq!(log.cycles, stats.cycles);
        assert_eq!(log.ops.len() as u64, stats.committed);
        for w in log.ops.windows(2) {
            assert!(w[0].commit <= w[1].commit, "commit order");
        }
        for op in &log.ops {
            assert!(op.rename <= op.issue && op.issue <= op.done && op.done <= op.commit);
        }
    }

    #[test]
    fn watchdog_dumps_accounting_on_deadlock() {
        use uve_core::{ChunkMeta, StreamTrace};
        use uve_isa::{ElemWidth, MemLevel};
        // One op consuming a chunk of a stream that is never opened: the
        // chunk stays NotFetched forever, so commit deadlocks and the
        // watchdog must fire with a diagnostic instead of spinning to
        // `max_cycles`.
        let mut t = Trace::new();
        let mut op = TraceOp::new(0, ExecClass::VecInt);
        op.stream_reads = t.push_stream_refs(&[(0, 0)]);
        t.ops.push(op);
        t.streams.push(StreamTrace {
            u: 3,
            dir: Dir::Load,
            level: MemLevel::L2,
            width: ElemWidth::Word,
            chunks: vec![ChunkMeta {
                lines: vec![0x1000],
                dim_switches: 0,
                valid: 16,
            }],
            cfg_insts: 1,
        });
        let cfg = CpuConfig {
            watchdog_cycles: 500,
            ..CpuConfig::default()
        };
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| OoOCore::new(cfg).run(&t)))
                .expect_err("deadlocked model must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("watchdog panics with a String report");
        assert!(msg.contains("no-retire watchdog"), "{msg}");
        // The first cycle more than `watchdog_cycles` past the last commit
        // (here: the start): a quiet-cycle skip must stop there too.
        assert!(msg.contains("at cycle 501"), "{msg}");
        assert!(msg.contains("commit_ptr 0/1"), "{msg}");
        assert!(
            msg.contains("fifo-empty"),
            "report lists stall table: {msg}"
        );
    }

    #[test]
    fn injected_faults_slow_the_run_but_conserve_cycles() {
        use uve_mem::FaultConfig;
        let n = 16384usize;
        let setup = |emu: &mut Emulator| {
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            emu.mem.write_f32_slice(0x100000, &x);
            emu.mem.write_f32_slice(0x200000, &x);
            emu.set_f(uve_isa::FReg::FA0, 2.0);
        };
        let t = trace_of(
            "
    li x10, 16384
    li x11, 0x100000
    li x12, 0x200000
    li x13, 1
    ss.ld.w u0, x11, x10, x13
    ss.ld.w u1, x12, x10, x13
    ss.st.w u2, x12, x10, x13
    so.v.dup.w.fp u3, f10
loop:
    so.a.mul.w.fp u4, u3, u0, p0
    so.a.add.w.fp u2, u4, u1, p0
    so.b.nend u0, loop
    halt
",
            setup,
        );
        let clean = OoOCore::new(CpuConfig::default()).run(&t);
        let mut cfg = CpuConfig::default();
        cfg.mem.fault = Some(FaultConfig::hostile(7));
        let faulty = OoOCore::new(cfg).run(&t);
        faulty
            .account
            .check(faulty.cycles)
            .expect("cycle accounting must conserve");
        assert_eq!(faulty.committed, clean.committed);
        let replays = faulty.engine.transient_retries + faulty.engine.poisoned_replays;
        assert!(replays > 0, "hostile rates must trigger retries");
        assert!(
            faulty.cycles > clean.cycles,
            "retry backoff must cost cycles: {} vs {}",
            faulty.cycles,
            clean.cycles
        );
        // And a second run with the same seed is bit-identical.
        let mut cfg2 = CpuConfig::default();
        cfg2.mem.fault = Some(FaultConfig::hostile(7));
        assert_eq!(OoOCore::new(cfg2).run(&t), faulty);
    }

    #[test]
    fn stream_fault_traps_charge_penalty_as_fault_replay() {
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("addi x{}, x0, 1\n", 1 + (i % 8)));
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |_| {});
        let clean = OoOCore::new(CpuConfig::default()).run(&t);
        let mut faulted = t.clone();
        faulted.ops[20].stream_faults = 2;
        let s = OoOCore::new(CpuConfig::default()).run(&faulted);
        s.account
            .check(s.cycles)
            .expect("cycle accounting must conserve");
        // Out-of-order overlap can hide a few cycles of the serial sum, so
        // bound from below with a small slack.
        let penalty = 2 * CpuConfig::default().fault_trap_penalty;
        assert!(
            s.cycles + 32 >= clean.cycles + penalty,
            "two traps must cost about {penalty}: {} vs {}",
            s.cycles,
            clean.cycles
        );
        assert!(
            s.account.fault_replay + 64 >= penalty,
            "trap service time lands in fault-replay: {:?}",
            s.account
        );
    }

    #[test]
    fn uve_stream_faster_than_sve_on_saxpy() {
        // DRAM-resident size: small warm sets are L1-resident, where
        // L1-hit baseline loads rival L2-level streaming (the Fig. 11
        // effect); the streaming win the paper reports is on working sets
        // beyond the L1.
        let n = 65536usize;
        let setup = |emu: &mut Emulator| {
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            emu.mem.write_f32_slice(0x100000, &x);
            emu.mem.write_f32_slice(0x200000, &x);
            emu.set_f(uve_isa::FReg::FA0, 2.0);
        };
        let uve = trace_of(
            "
    li x10, 65536
    li x11, 0x100000
    li x12, 0x200000
    li x13, 1
    ss.ld.w u0, x11, x10, x13
    ss.ld.w u1, x12, x10, x13
    ss.st.w u2, x12, x10, x13
    so.v.dup.w.fp u3, f10
loop:
    so.a.mul.w.fp u4, u3, u0, p0
    so.a.add.w.fp u2, u4, u1, p0
    so.b.nend u0, loop
    halt
",
            setup,
        );
        let sve = trace_of(
            "
    li x10, 0
    li x11, 65536
    li x12, 0x100000
    li x13, 0x200000
    so.v.dup.w.fp u0, f10
    whilelt.w p1, x10, x11
loop:
    vl1.w u1, x12, x10, p1
    vl1.w u2, x13, x10, p1
    so.a.mul.w.fp u3, u0, u1, p1
    so.a.add.w.fp u4, u3, u2, p1
    vs1.w u4, x13, x10, p1
    incvl.w x10
    whilelt.w p1, x10, x11
    so.b.pfirst p1, loop
    halt
",
            setup,
        );
        let core = OoOCore::new(CpuConfig::default());
        let su = core.run(&uve);
        let ss = core.run(&sve);
        assert!(su.committed < ss.committed);
        assert!(
            su.cycles * 3 < ss.cycles * 2,
            "UVE ({}) should be well ahead of SVE ({})",
            su.cycles,
            ss.cycles
        );
        // Register pressure vanishes with streaming: UVE never blocks on
        // physical registers while SVE does (the Fig. 9 effect).
        assert!(su.rename_block_reasons.prf < ss.rename_block_reasons.prf);
        assert_eq!(su.rename_block_reasons.prf, 0);
        // And the streams drive the bus harder (Fig. 8.D shape).
        assert!(su.bus_utilization > ss.bus_utilization);
    }
}
