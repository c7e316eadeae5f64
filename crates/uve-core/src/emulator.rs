//! The functional emulator: executes a [`Program`] with full ISA semantics,
//! producing results in memory and a dynamic [`Trace`] for the timing model.

use crate::stream_unit::{StreamError, StreamUnit};
use crate::trace::{BranchOutcome, StreamRef, Trace, TraceOp};
use crate::translate::{Block, ExecMode, TranslationCache};
use crate::value::{PredVal, Scalar, VecVal};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use uve_isa::{
    AluOp, BrCond, Dir, DupSrc, ElemWidth, ExecClass, FlatOp, FpOp, FpUnOp, HorizOp, Inst,
    PredCond, PredOp, Program, RegClass, RegRef, StreamCond, StreamCtl, VCmpOp, VOp, VReg, VType,
    VUnOp, XReg,
};
use uve_mem::Memory;

/// Emulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmuConfig {
    /// Vector length in bytes (512-bit = 64 by default; NEON-like baselines
    /// run with 16).
    pub vlen_bytes: usize,
    /// Dynamic instruction budget; exceeding it aborts the run.
    pub max_steps: u64,
    /// Record a trace (disable for pure functional runs to save memory).
    pub record_trace: bool,
    /// Default memory level for streams (Fig. 11 knob; `so.cfg.mem`
    /// overrides per register).
    pub stream_level: uve_isa::MemLevel,
    /// Chunking mode for indirectly modified streams: packed to full vector
    /// width (default) or closed at every dimension-0 boundary.
    pub packing: uve_stream::IndirectPacking,
    /// Execution strategy: decode-dispatch interpretation (the default and
    /// the reference oracle) or the basic-block translation cache
    /// ([`ExecMode::Translated`]), bit-identical but faster.
    pub exec: ExecMode,
}

impl Default for EmuConfig {
    fn default() -> Self {
        Self {
            vlen_bytes: 64,
            max_steps: 200_000_000,
            record_trace: true,
            stream_level: uve_isa::MemLevel::L2,
            packing: uve_stream::IndirectPacking::default(),
            exec: ExecMode::default(),
        }
    }
}

/// Errors aborting emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// A stream operation failed.
    Stream {
        /// Program counter of the offending instruction.
        pc: u32,
        /// The underlying stream error.
        err: StreamError,
    },
    /// The PC left the program without reaching `halt`.
    PcOutOfRange(u32),
    /// The dynamic instruction budget was exhausted (likely an infinite
    /// loop).
    OutOfFuel(u64),
    /// An instruction combined operands in a way the ISA leaves undefined
    /// (e.g. a bitwise vector op with an FP type tag).
    Unsupported {
        /// Program counter of the offending instruction.
        pc: u32,
        /// What was attempted.
        what: String,
    },
    /// A lane extraction addressed beyond the active vector length.
    LaneOutOfRange {
        /// Program counter of the offending instruction.
        pc: u32,
        /// Requested lane.
        lane: u8,
        /// Active lanes at the instruction's width.
        lanes: usize,
    },
    /// An internal invariant failed — a model bug, reported as an error
    /// instead of a panic so sweeps and fuzzers can isolate the input.
    Internal {
        /// Program counter of the offending instruction.
        pc: u32,
        /// The violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Stream { pc, err } => write!(f, "stream error at pc {pc}: {err}"),
            EmuError::PcOutOfRange(pc) => write!(f, "pc {pc} out of range (missing halt?)"),
            EmuError::OutOfFuel(n) => write!(f, "exceeded instruction budget of {n}"),
            EmuError::Unsupported { pc, what } => write!(f, "unsupported at pc {pc}: {what}"),
            EmuError::LaneOutOfRange { pc, lane, lanes } => {
                write!(
                    f,
                    "pc {pc}: lane {lane} out of range ({lanes} active lanes)"
                )
            }
            EmuError::Internal { pc, what } => {
                write!(f, "internal model invariant violated at pc {pc}: {what}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// Deterministic first-touch page-fault plan for precise stream-fault
/// testing (paper Sec. II-C/V).
///
/// Whether a page faults is a pure hash of `(seed, page)`, independent of
/// traversal order, and each page faults at most once: the first probe
/// marks it resident (the "handler" maps it), so the instruction-level
/// retry is guaranteed to make progress. Recovered runs are therefore
/// reproducible from the seed alone and end bit-identical to fault-free
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamFaultPlan {
    seed: u64,
    rate: u64,
    handled: HashSet<u64>,
}

impl StreamFaultPlan {
    /// A plan faulting roughly one in `rate` first-touched pages
    /// (`rate == 0` disables injection).
    pub fn new(seed: u64, rate: u64) -> Self {
        Self {
            seed,
            rate,
            handled: HashSet::new(),
        }
    }

    /// Pages touched (and therefore mapped) so far.
    pub fn touched_pages(&self) -> usize {
        self.handled.len()
    }

    /// Decides the fate of `page`; only the very first touch can fault.
    fn faults_on(&mut self, page: u64) -> bool {
        if self.rate == 0 || !self.handled.insert(page) {
            return false;
        }
        splitmix(self.seed ^ page.wrapping_mul(0x9e37_79b9_7f4a_7c15)).is_multiple_of(self.rate)
    }
}

/// SplitMix64 finalizer — the same order-independent decision hash the
/// timing-layer injector uses.
fn splitmix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Result of a completed emulation.
#[derive(Debug)]
pub struct RunResult {
    /// Committed dynamic instruction count.
    pub committed: u64,
    /// The dynamic trace (empty if tracing was disabled).
    pub trace: Trace,
}

/// Resumable execution position of a program on an [`Emulator`] — the
/// functional half of a context switch. A scheduler runs a program in
/// budgeted slices via [`Emulator::resume`]; between slices the cursor
/// holds the PC, the fuel spent so far and the trace accumulated so far,
/// while the architectural state (registers, memory, stream unit) lives in
/// the emulator itself.
#[derive(Debug, Default)]
pub struct RunCursor {
    pc: u32,
    steps: u64,
    halted: bool,
    trace: Trace,
}

impl RunCursor {
    /// A cursor at the program entry point with no fuel spent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dynamic instructions committed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// True once the program reached `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The trace accumulated so far (complete once [`halted`](Self::halted)).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the cursor into a [`RunResult`] (normally after halt).
    pub fn into_result(mut self) -> RunResult {
        self.trace.shrink_to_fit();
        RunResult {
            committed: self.steps,
            trace: self.trace,
        }
    }
}

/// Outcome of the shared front-end gates + fetch (see
/// [`Emulator::fetch_decoded`]).
enum FrontEnd {
    /// The slice budget expired before the next instruction.
    SliceExpired,
    /// The fetched instruction at the cursor's PC.
    Inst(Inst),
}

/// The functional machine: scalar/vector/predicate registers, memory, and
/// the stream unit.
#[derive(Debug)]
pub struct Emulator {
    cfg: EmuConfig,
    /// The simulated memory (public: kernels place their arrays here).
    pub mem: Memory,
    x: [i64; 32],
    f: [f64; 32],
    v: Vec<VecVal>,
    p: Vec<PredVal>,
    streams: StreamUnit,
    /// Active vector length in bytes (`ss.setvl` can narrow it below the
    /// hardware maximum `cfg.vlen_bytes`).
    vl_bytes: usize,
    /// Optional page-fault injection plan (precise stream faults).
    fault_plan: Option<StreamFaultPlan>,
    /// Precise stream-fault traps taken and recovered so far.
    faults_taken: u64,
    /// Translated basic blocks (used only under [`ExecMode::Translated`]).
    cache: TranslationCache,
    /// The stream references of the op being executed.
    pending: PendingRefs,
}

/// The stream chunk references of the op being executed, staged in
/// buffers reused from op to op. The op's register lists are filtered
/// against them before they reach the trace's stream-ref pool at commit,
/// reads then writes, so each side stays one contiguous span. Filled only
/// when recording.
#[derive(Debug, Default)]
struct PendingRefs {
    reads: Vec<StreamRef>,
    writes: Vec<StreamRef>,
}

impl Emulator {
    /// Creates an emulator with the given configuration over `mem`.
    pub fn new(cfg: EmuConfig, mem: Memory) -> Self {
        let v = (0..32)
            .map(|_| VecVal::empty(cfg.vlen_bytes, ElemWidth::Word))
            .collect();
        let mut p: Vec<PredVal> = (0..16).map(|_| PredVal::all_false()).collect();
        p[0] = PredVal::all_true(); // hardwired p0
        Self {
            cfg,
            mem,
            x: [0; 32],
            f: [0.0; 32],
            v,
            p,
            streams: StreamUnit::with_config(cfg.stream_level, cfg.packing),
            vl_bytes: cfg.vlen_bytes,
            fault_plan: None,
            faults_taken: 0,
            cache: TranslationCache::new(),
            pending: PendingRefs::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> EmuConfig {
        self.cfg
    }

    /// Installs (or clears) a page-fault injection plan. Faulting stream
    /// elements then trap precisely at the consuming instruction, run the
    /// plan's implicit handler, and re-execute.
    pub fn set_fault_plan(&mut self, plan: Option<StreamFaultPlan>) {
        self.fault_plan = plan;
    }

    /// Precise stream-fault traps taken (and recovered) so far.
    pub fn faults_taken(&self) -> u64 {
        self.faults_taken
    }

    /// FNV-1a digest of the architectural register state (integer, FP,
    /// vector and predicate registers plus the active vector length);
    /// combined with [`Memory::content_hash`] it summarises a run's final
    /// state for bit-identity comparisons.
    pub fn arch_digest(&self) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let put = |h: &mut u64, v: u64| {
            for b in v.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        for &x in &self.x {
            put(&mut h, x as u64);
        }
        for &f in &self.f {
            put(&mut h, f.to_bits());
        }
        for v in &self.v {
            put(&mut h, v.width().bytes() as u64);
            for i in 0..v.lanes() {
                put(&mut h, v.int(i) as u64);
                put(&mut h, u64::from(v.lane_valid(i)));
            }
        }
        for p in &self.p {
            for i in 0..crate::value::MAX_LANES {
                put(&mut h, u64::from(p.get(i)));
            }
        }
        put(&mut h, self.vl_bytes as u64);
        h
    }

    /// Reads a scalar integer register.
    pub fn x(&self, r: XReg) -> i64 {
        self.x[r.index()]
    }

    /// Writes a scalar integer register (`x0` stays zero).
    pub fn set_x(&mut self, r: XReg, v: i64) {
        if r != XReg::ZERO {
            self.x[r.index()] = v;
        }
    }

    /// Reads a scalar FP register.
    pub fn f(&self, r: uve_isa::FReg) -> f64 {
        self.f[r.index()]
    }

    /// Writes a scalar FP register.
    pub fn set_f(&mut self, r: uve_isa::FReg, v: f64) {
        self.f[r.index()] = v;
    }

    /// Reads a vector register (plain value; does not consume streams).
    pub fn v(&self, r: VReg) -> &VecVal {
        &self.v[r.index()]
    }

    /// The stream unit (for inspection in tests).
    pub fn streams(&self) -> &StreamUnit {
        &self.streams
    }

    /// Active vector lanes at `width` (respects `ss.setvl`).
    fn lanes(&self, width: ElemWidth) -> usize {
        self.vl_bytes / width.bytes()
    }

    /// The active vector length in bytes.
    pub fn active_vlen_bytes(&self) -> usize {
        self.vl_bytes
    }

    fn is_input_stream(&self, r: VReg) -> bool {
        self.streams.get(r).is_some_and(|s| s.dir == Dir::Load)
    }

    fn is_output_stream(&self, r: VReg) -> bool {
        self.streams.get(r).is_some_and(|s| s.dir == Dir::Store)
    }

    /// Reads a vector operand, consuming one chunk if it is an input
    /// stream. Consumed registers are tracked in `consumed` so a register
    /// used twice in one instruction is only iterated once.
    fn read_v(
        &mut self,
        r: VReg,
        trace: &mut Trace,
        op: &mut TraceOp,
        consumed: &mut Vec<(VReg, VecVal)>,
        pc: u32,
    ) -> Result<VecVal, EmuError> {
        if let Some((_, val)) = consumed.iter().find(|(c, _)| *c == r) {
            return Ok(val.clone());
        }
        if self.is_input_stream(r) {
            let mut probe;
            let fault: Option<&mut dyn FnMut(u64) -> bool> = if self.fault_plan.is_some() {
                let plan = &mut self.fault_plan;
                probe = move |page: u64| plan.as_mut().is_some_and(|p| p.faults_on(page));
                Some(&mut probe)
            } else {
                None
            };
            let c = self
                .streams
                .consume_with(r, &self.mem, self.vl_bytes, trace, fault)
                .map_err(|err| EmuError::Stream { pc, err })?;
            let inst = self
                .streams
                .get(r)
                .ok_or(EmuError::Internal {
                    pc,
                    what: "stream vanished during consume",
                })?
                .instance;
            if self.cfg.record_trace {
                self.pending.reads.push((inst, c.chunk));
            }
            if self.streams.get(r).is_some_and(|s| s.at_end()) {
                // Pattern complete: the stream terminates and the register
                // reverts to a plain vector register (Sec. IV-A, Stream
                // Termination).
                op.stream_close = Some(inst).into();
                let _ = self.streams.stop(r);
            }
            self.v[r.index()] = c.value.clone();
            consumed.push((r, c.value.clone()));
            Ok(c.value)
        } else {
            if self.is_output_stream(r) {
                return Err(EmuError::Stream {
                    pc,
                    err: StreamError::WrongDirection(r.num()),
                });
            }
            Ok(self.v[r.index()].clone())
        }
    }

    /// Writes a vector destination, producing into an output stream if one
    /// is bound.
    fn write_v(
        &mut self,
        r: VReg,
        val: VecVal,
        trace: &mut Trace,
        op: &mut TraceOp,
        pc: u32,
    ) -> Result<(), EmuError> {
        if self.is_output_stream(r) {
            let mut probe;
            let fault: Option<&mut dyn FnMut(u64) -> bool> = if self.fault_plan.is_some() {
                let plan = &mut self.fault_plan;
                probe = move |page: u64| plan.as_mut().is_some_and(|p| p.faults_on(page));
                Some(&mut probe)
            } else {
                None
            };
            let chunk = self
                .streams
                .produce_with(r, &mut self.mem, &val, trace, fault)
                .map_err(|err| EmuError::Stream { pc, err })?;
            let inst = self
                .streams
                .get(r)
                .ok_or(EmuError::Internal {
                    pc,
                    what: "stream vanished during produce",
                })?
                .instance;
            if self.cfg.record_trace {
                self.pending.writes.push((inst, chunk));
            }
            if self.streams.get(r).is_some_and(|s| s.at_end()) {
                op.stream_close = Some(inst).into();
                let _ = self.streams.stop(r);
            }
        } else if self.is_input_stream(r) {
            return Err(EmuError::Stream {
                pc,
                err: StreamError::WrongDirection(r.num()),
            });
        }
        self.v[r.index()] = val;
        Ok(())
    }

    fn dup_value(&self, src: DupSrc, width: ElemWidth, ty: VType) -> VecVal {
        let mut v = VecVal::empty(self.cfg.vlen_bytes, width);
        let lanes = self.lanes(width);
        for i in 0..lanes {
            match (ty, src) {
                (VType::Int, DupSrc::X(r)) => v.set_int(i, self.x[r.index()]),
                (VType::Int, DupSrc::F(r)) => v.set_int(i, self.f[r.index()] as i64),
                (VType::Fp, DupSrc::F(r)) => v.set_float(i, self.f[r.index()]),
                (VType::Fp, DupSrc::X(r)) => v.set_float(i, self.x[r.index()] as f64),
            }
            v.set_lane_valid(i, true);
        }
        v
    }

    /// Runs `program` from index 0 to `halt`.
    ///
    /// # Errors
    ///
    /// Returns the first execution error (stream misuse, runaway loop, PC
    /// escape).
    pub fn run(&mut self, program: &Program) -> Result<RunResult, EmuError> {
        let mut cursor = RunCursor::new();
        self.resume(program, &mut cursor, None)?;
        Ok(cursor.into_result())
    }

    /// Runs `program` from `cursor` for at most `budget` dynamic
    /// instructions (to halt when `None`), advancing the cursor in place —
    /// the preemption primitive a multiprogramming scheduler time-slices
    /// with. Returns `true` once the program halted. The slice boundary
    /// falls between instructions, so it can land mid-stream (including
    /// inside an indirect-modifier region at a non-VLEN-multiple element);
    /// [`save_stream_context`](Self::save_stream_context) /
    /// [`restore_stream_context`](Self::restore_stream_context) carry the
    /// stream state across the switch.
    ///
    /// # Errors
    ///
    /// Returns the first execution error; the global `max_steps` fuel bound
    /// applies to the cursor's cumulative step count.
    pub fn resume(
        &mut self,
        program: &Program,
        cursor: &mut RunCursor,
        budget: Option<u64>,
    ) -> Result<bool, EmuError> {
        if cursor.halted {
            return Ok(true);
        }
        let slice_end = budget.map(|b| cursor.steps.saturating_add(b));
        if self.cfg.exec == ExecMode::Translated {
            return self.resume_translated(program, cursor, slice_end);
        }
        loop {
            let inst = match self.fetch_decoded(program, cursor, slice_end)? {
                FrontEnd::SliceExpired => return Ok(false),
                FrontEnd::Inst(inst) => inst,
            };
            if inst == Inst::Halt {
                self.retire_halt(cursor);
                return Ok(true);
            }
            let next = if self.fault_plan.is_some() {
                self.step_with_recovery(inst, cursor.pc, &mut cursor.trace)?
            } else {
                self.step(inst, cursor.pc, &mut cursor.trace)?
            };
            cursor.steps += 1;
            cursor.pc = next;
        }
    }

    /// The per-step front-end shared by the interpreter loop and the
    /// translated executor: fuel and slice gates, periodic deadline poll,
    /// then fetch. This is the single insertion point where a PC meets its
    /// instruction — the translation cache hooks in right after it (looking
    /// up a whole block instead of stepping one instruction) and re-applies
    /// the same gates at block granularity.
    fn fetch_decoded(
        &self,
        program: &Program,
        cursor: &RunCursor,
        slice_end: Option<u64>,
    ) -> Result<FrontEnd, EmuError> {
        if self.front_gates(cursor, slice_end)? {
            return Ok(FrontEnd::SliceExpired);
        }
        match program.fetch(cursor.pc) {
            Some(inst) => Ok(FrontEnd::Inst(inst)),
            None => Err(EmuError::PcOutOfRange(cursor.pc)),
        }
    }

    /// The fuel and slice gates plus the periodic deadline poll, applied
    /// before every instruction (interpreter) and before every block
    /// (translated executor, whose span capping makes the gates fire at the
    /// same step numbers). Returns `true` when the slice expired.
    #[inline]
    fn front_gates(&self, cursor: &RunCursor, slice_end: Option<u64>) -> Result<bool, EmuError> {
        if cursor.steps >= self.cfg.max_steps {
            return Err(EmuError::OutOfFuel(self.cfg.max_steps));
        }
        if slice_end.is_some_and(|end| cursor.steps >= end) {
            return Ok(true);
        }
        if cursor.steps & 0xF_FFFF == 0 {
            crate::deadline::check("emulator");
        }
        Ok(false)
    }

    /// Retires `halt` at the cursor's PC: one committed step, a trace op if
    /// recording, and the halted flag.
    fn retire_halt(&self, cursor: &mut RunCursor) {
        cursor.steps += 1;
        if self.cfg.record_trace {
            cursor
                .trace
                .ops
                .push(TraceOp::new(cursor.pc, ExecClass::Simple));
        }
        cursor.halted = true;
    }

    /// Block-at-a-time executor for [`ExecMode::Translated`]. Bit-identical
    /// to the interpreter loop: the front-end gates of
    /// [`fetch_decoded`](Self::fetch_decoded) run before every block, each
    /// block's straight-line span is capped so the fuel / slice / deadline
    /// gates fire at exactly the interpreter's step numbers, and tracing or
    /// fault-injection runs route every instruction through the
    /// interpreter's own `step` path (the flat fast path only handles the
    /// untraced, fault-free case).
    fn resume_translated(
        &mut self,
        program: &Program,
        cursor: &mut RunCursor,
        slice_end: Option<u64>,
    ) -> Result<bool, EmuError> {
        // The cache is moved out of `self` for the duration of the run so
        // translated blocks can be borrowed across `exec_flat`/`step` calls
        // without a per-block refcount; nothing inside `step` touches it.
        let mut cache = std::mem::take(&mut self.cache);
        cache.ensure_program(program);
        let r = self.run_blocks(program, cursor, slice_end, &mut cache);
        self.cache = cache;
        r
    }

    /// The translated dispatch loop proper (see
    /// [`resume_translated`](Self::resume_translated) for the contract).
    fn run_blocks(
        &mut self,
        program: &Program,
        cursor: &mut RunCursor,
        slice_end: Option<u64>,
        cache: &mut TranslationCache,
    ) -> Result<bool, EmuError> {
        // Invariant across the whole resume: tracing and fault plans are
        // per-run configuration, never toggled mid-slice.
        let fast = !self.cfg.record_trace && self.fault_plan.is_none();
        loop {
            if self.front_gates(cursor, slice_end)? {
                return Ok(false);
            }
            let Some(block) = cache.block_at(program, cursor.pc) else {
                // No straight-line body at this PC: either `halt` (retired
                // here, exactly as the interpreter loop does) or a PC out
                // of range.
                return match program.fetch(cursor.pc) {
                    Some(Inst::Halt) => {
                        self.retire_halt(cursor);
                        Ok(true)
                    }
                    _ => Err(EmuError::PcOutOfRange(cursor.pc)),
                };
            };
            // Cap the straight-line span so the next fuel / slice / deadline
            // gate lands exactly on a loop re-entry, as in the interpreter.
            let next_poll = (cursor.steps | 0xF_FFFF) + 1;
            let mut gate = self.cfg.max_steps.min(next_poll);
            if let Some(end) = slice_end {
                gate = gate.min(end);
            }
            let span = usize::try_from(gate - cursor.steps)
                .map_or(block.flats.len(), |g| g.min(block.flats.len()));
            let fused = block.body.as_deref();
            if let Some(body) = fused.filter(|_| fast && span == block.flats.len()) {
                // All-simple body: no op before the last can fail, branch,
                // or touch a stream, so the body runs with no per-op
                // dispatch machinery; the final op alone decides the
                // successor (or errors, uncommitted, as in the
                // interpreter). A branch back to the block's own start (the
                // canonical tight loop) stays fused in this closed loop —
                // `budget` pre-counts how many whole iterations fit before
                // the next fuel / slice / deadline gate, so gate step
                // numbers still match the interpreter exactly.
                let n = block.flats.len() as u64;
                let last_pc = block.start_pc + (block.flats.len() - 1) as u32;
                let budget = (gate - cursor.steps) / n;
                let (iters, last) = self.run_simple_block(block, body, budget, &mut cursor.trace);
                cursor.steps += iters * n;
                match last {
                    Ok(rd) => cursor.pc = rd.unwrap_or(last_pc + 1),
                    Err(e) => {
                        cursor.steps += n - 1;
                        cursor.pc = last_pc;
                        return Err(e);
                    }
                }
                continue;
            }
            let mut redirect = None;
            let mut done = 0usize;
            let ops = block.flats[..span].iter().zip(&block.insts[..span]);
            for (i, (flat, inst)) in ops.enumerate() {
                let pc = block.start_pc + i as u32;
                let r = if fast {
                    self.exec_flat(flat, inst, pc, &mut cursor.trace)
                } else if self.fault_plan.is_some() {
                    self.step_with_recovery(*inst, pc, &mut cursor.trace)
                        .map(|next| (next != pc + 1).then_some(next))
                } else {
                    self.step(*inst, pc, &mut cursor.trace)
                        .map(|next| (next != pc + 1).then_some(next))
                };
                match r {
                    Ok(rd) => {
                        done = i + 1;
                        if rd.is_some() {
                            redirect = rd;
                            break;
                        }
                    }
                    Err(e) => {
                        // As in the interpreter: the failing instruction is
                        // not committed and the cursor points at it.
                        cursor.steps += i as u64;
                        cursor.pc = pc;
                        return Err(e);
                    }
                }
            }
            cursor.steps += done as u64;
            cursor.pc = redirect.unwrap_or(block.start_pc + done as u32);
        }
    }

    /// Runs an all-simple block (its fused [`Block::body`]) for up to `budget`
    /// whole passes, looping while its final op branches back to the
    /// block's start. Returns the passes committed in full and the final
    /// op's outcome on the last pass (an error leaves that pass's final op
    /// uncommitted). Kept out of line so the loop gets the registers to
    /// itself rather than sharing them with the general dispatch loop.
    #[inline(never)]
    fn run_simple_block(
        &mut self,
        block: &Block,
        body: &[FlatOp],
        mut budget: u64,
        trace: &mut Trace,
    ) -> (u64, Result<Option<u32>, EmuError>) {
        let n = block.flats.len() - 1;
        let last = &block.flats[n];
        if let FlatOp::Branch {
            cond,
            rs1,
            rs2,
            target,
        } = *last
        {
            if target == block.start_pc {
                // The canonical counted loop: the branch condition is
                // resolved once here, so each pass tests it inline.
                let (passes, taken) = match cond {
                    BrCond::Eq => self.loop_while(body, rs1, rs2, budget, |a, b| a == b),
                    BrCond::Ne => self.loop_while(body, rs1, rs2, budget, |a, b| a != b),
                    BrCond::Lt => self.loop_while(body, rs1, rs2, budget, |a, b| a < b),
                    BrCond::Ge => self.loop_while(body, rs1, rs2, budget, |a, b| a >= b),
                    BrCond::Ltu => {
                        self.loop_while(body, rs1, rs2, budget, |a, b| (a as u64) < (b as u64))
                    }
                    BrCond::Geu => {
                        self.loop_while(body, rs1, rs2, budget, |a, b| (a as u64) >= (b as u64))
                    }
                };
                return (passes, Ok(taken.then_some(target)));
            }
        }
        let last_inst = &block.insts[n];
        let last_pc = block.start_pc + n as u32;
        let mut passes = 0;
        loop {
            for flat in body {
                self.exec_simple(flat);
            }
            match self.exec_flat(last, last_inst, last_pc, trace) {
                Ok(rd) => {
                    passes += 1;
                    budget -= 1;
                    if budget == 0 || rd != Some(block.start_pc) {
                        return (passes, Ok(rd));
                    }
                }
                Err(e) => return (passes, Err(e)),
            }
        }
    }

    /// Runs `body` then tests `taken(x[rs1], x[rs2])`, repeating while the
    /// branch is taken and `budget` passes remain. Returns the passes run
    /// and whether the last one's branch was taken.
    #[inline(always)]
    fn loop_while(
        &mut self,
        body: &[FlatOp],
        rs1: u8,
        rs2: u8,
        budget: u64,
        taken: impl Fn(i64, i64) -> bool,
    ) -> (u64, bool) {
        let mut passes = 0;
        loop {
            for flat in body {
                self.exec_simple(flat);
            }
            passes += 1;
            let t = taken(self.x[(rs1 & 31) as usize], self.x[(rs2 & 31) as usize]);
            if !t || passes == budget {
                return (passes, t);
            }
        }
    }

    /// Appends the cache lines of a `bytes`-byte explicit access at `addr`
    /// to the trace's line pool when recording. `since` is the pool length
    /// when the executing op began.
    #[inline]
    fn record_lines(&self, trace: &mut Trace, since: usize, addr: u64, bytes: u64) {
        if self.cfg.record_trace {
            trace.push_access_lines(since, addr, bytes);
        }
    }

    /// Records a scalar load or store on `op` and its lines in the pool.
    #[inline]
    fn record_access(
        &self,
        op: &mut TraceOp,
        trace: &mut Trace,
        since: usize,
        addr: u64,
        bytes: u64,
        is_store: bool,
    ) {
        op.mem_addr = addr;
        op.is_store = is_store;
        self.record_lines(trace, since, addr, bytes);
    }

    /// Writes integer register `rd` by raw index (`x0` stays zero) — the
    /// flat-path twin of [`set_x`](Self::set_x).
    #[inline]
    fn set_x_idx(&mut self, rd: u8, v: i64) {
        if rd != 0 {
            // `& 31` proves the index in range; the decoder/lowerer never
            // emits a register number >= 32, so it's a no-op semantically
            // and elides the bounds-check branch on the hot path.
            self.x[(rd & 31) as usize] = v;
        }
    }

    /// True when `r` currently has a stream bound (either direction) — the
    /// flat fast path re-checks this per vector operand and falls back to
    /// the interpreter when any operand streams, since stream consumption
    /// mutates the stream unit and the trace's chunk metadata.
    #[inline]
    fn stream_bound(&self, r: VReg) -> bool {
        self.streams.get(r).is_some()
    }

    /// Routes one translated op through the interpreter's `step`, mapping
    /// its next-PC result to the flat executor's redirect convention.
    fn step_fallback(
        &mut self,
        inst: Inst,
        pc: u32,
        trace: &mut Trace,
    ) -> Result<Option<u32>, EmuError> {
        self.step(inst, pc, trace)
            .map(|next| (next != pc + 1).then_some(next))
    }

    /// Executes one pre-resolved flat op. Only reached on untraced,
    /// fault-free runs; returns `Some(target)` when a taken branch
    /// redirects control. Architectural effects are bit-identical to
    /// [`step`](Self::step): lane loops go through the same shared `_ref`
    /// helpers, arithmetic uses the same expressions, and anything
    /// involving a bound stream (or an op lowered to [`FlatOp::Fallback`])
    /// re-routes through `step` itself.
    #[inline(always)]
    fn exec_flat(
        &mut self,
        flat: &FlatOp,
        inst: &Inst,
        pc: u32,
        trace: &mut Trace,
    ) -> Result<Option<u32>, EmuError> {
        if flat.is_simple() {
            self.exec_simple(flat);
            return Ok(None);
        }
        match *flat {
            FlatOp::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let a = self.x[(rs1 & 31) as usize];
                let b = self.x[(rs2 & 31) as usize];
                let taken = match cond {
                    BrCond::Eq => a == b,
                    BrCond::Ne => a != b,
                    BrCond::Lt => a < b,
                    BrCond::Ge => a >= b,
                    BrCond::Ltu => (a as u64) < (b as u64),
                    BrCond::Geu => (a as u64) >= (b as u64),
                };
                Ok(taken.then_some(target))
            }
            FlatOp::Jal { rd, target } => {
                self.set_x_idx(rd, (pc + 1) as i64);
                Ok(Some(target))
            }
            FlatOp::BrPred { cond, p, target } => {
                let pv = &self.p[p as usize];
                let taken = match cond {
                    PredCond::First => pv.first(),
                    PredCond::Any => pv.any(crate::value::MAX_LANES),
                    PredCond::None => !pv.any(crate::value::MAX_LANES),
                };
                Ok(taken.then_some(target))
            }
            FlatOp::SsBranch { cond, u, target } => {
                let (flags, at_end) = self.streams.branch_flags(u).ok_or(EmuError::Stream {
                    pc,
                    err: StreamError::NotConfigured(u.num()),
                })?;
                let taken = match cond {
                    StreamCond::NotEnd => !at_end,
                    StreamCond::End => at_end,
                    StreamCond::DimNotEnd(k) => !flags.ends_dim(k as usize),
                    StreamCond::DimEnd(k) => flags.ends_dim(k as usize),
                };
                Ok(taken.then_some(target))
            }
            // Vector ops (and `Fallback`) live in the outlined second half,
            // keeping this hot function small enough to inline into the
            // block dispatch loop.
            _ => self.exec_flat_vec(flat, inst, pc, trace),
        }
    }

    /// Executes one *simple* op ([`FlatOp::is_simple`]): scalar-only state,
    /// infallible, no control transfer. This is the innermost fast path —
    /// a translated block whose body is all-simple runs these back to back
    /// with no per-instruction dispatch machinery.
    #[inline(always)]
    fn exec_simple(&mut self, flat: &FlatOp) {
        match *flat {
            // Address and counter bumps dominate scalar loops: give `addi`
            // and `add` their own arms so they skip the nested ALU dispatch.
            FlatOp::AluImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm,
            } => {
                let a = self.x[(rs1 & 31) as usize];
                self.set_x_idx(rd, a.wrapping_add(imm));
            }
            FlatOp::Alu {
                op: AluOp::Add,
                rd,
                rs1,
                rs2,
            } => {
                let a = self.x[(rs1 & 31) as usize];
                let b = self.x[(rs2 & 31) as usize];
                self.set_x_idx(rd, a.wrapping_add(b));
            }
            FlatOp::AddI2 { rd, rs1, imm } => {
                for k in 0..2 {
                    let a = self.x[(rs1[k] & 31) as usize];
                    self.set_x_idx(rd[k], a.wrapping_add(i64::from(imm[k])));
                }
            }
            FlatOp::FldW2 { fd, base, off } => {
                for k in 0..2 {
                    let addr = (self.x[(base[k] & 31) as usize] + i64::from(off[k])) as u64;
                    self.f[(fd[k] & 31) as usize] = f64::from(self.mem.read_f32(addr));
                }
            }
            FlatOp::FstWAddI {
                src,
                base,
                off,
                rd,
                rs1,
                imm,
            } => {
                let addr = (self.x[(base & 31) as usize] + i64::from(off)) as u64;
                self.mem.write_f32(addr, self.f[(src & 31) as usize] as f32);
                let a = self.x[(rs1 & 31) as usize];
                self.set_x_idx(rd, a.wrapping_add(i64::from(imm)));
            }
            FlatOp::Alu { op, rd, rs1, rs2 } => {
                let a = self.x[(rs1 & 31) as usize];
                let b = self.x[(rs2 & 31) as usize];
                self.set_x_idx(rd, scalar_alu(op, a, b));
            }
            FlatOp::AluImm { op, rd, rs1, imm } => {
                let a = self.x[(rs1 & 31) as usize];
                self.set_x_idx(rd, scalar_alu(op, a, imm));
            }
            FlatOp::Li { rd, imm } => self.set_x_idx(rd, imm),
            FlatOp::Ld {
                rd,
                base,
                off,
                width,
            } => {
                let addr = (self.x[(base & 31) as usize] + off) as u64;
                let v = self.mem.read_elem(addr, width);
                self.set_x_idx(rd, v);
            }
            FlatOp::St {
                src,
                base,
                off,
                width,
            } => {
                let addr = (self.x[(base & 31) as usize] + off) as u64;
                self.mem
                    .write_elem(addr, width, self.x[(src & 31) as usize]);
            }
            FlatOp::Fld {
                fd,
                base,
                off,
                width,
            } => {
                let addr = (self.x[(base & 31) as usize] + off) as u64;
                self.f[(fd & 31) as usize] = match width {
                    ElemWidth::Double => self.mem.read_f64(addr),
                    _ => self.mem.read_f32(addr) as f64,
                };
            }
            FlatOp::Fst {
                src,
                base,
                off,
                width,
            } => {
                let addr = (self.x[(base & 31) as usize] + off) as u64;
                match width {
                    ElemWidth::Double => self.mem.write_f64(addr, self.f[(src & 31) as usize]),
                    _ => self.mem.write_f32(addr, self.f[(src & 31) as usize] as f32),
                }
            }
            FlatOp::FAlu {
                op,
                width,
                fd,
                fs1,
                fs2,
            } => {
                let a = self.f[(fs1 & 31) as usize];
                let b = self.f[(fs2 & 31) as usize];
                self.f[(fd & 31) as usize] = fp_alu(op, a, b, width);
            }
            FlatOp::FMac {
                width,
                fd,
                fs1,
                fs2,
                fs3,
            } => {
                let r = self.f[(fs1 & 31) as usize] * self.f[(fs2 & 31) as usize]
                    + self.f[(fs3 & 31) as usize];
                self.f[(fd & 31) as usize] = round_fp(r, width);
            }
            FlatOp::FUn { op, width, fd, fs } => {
                let a = self.f[(fs & 31) as usize];
                let r = match op {
                    FpUnOp::Sqrt => a.sqrt(),
                    FpUnOp::Abs => a.abs(),
                    FpUnOp::Neg => -a,
                    FpUnOp::Mv => a,
                };
                self.f[(fd & 31) as usize] = round_fp(r, width);
            }
            FlatOp::FMvXF { rd, fs } => {
                let v = self.f[(fs & 31) as usize].to_bits() as i64;
                self.set_x_idx(rd, v);
            }
            FlatOp::FMvFX { fd, rs } => {
                self.f[(fd & 31) as usize] = f64::from_bits(self.x[(rs & 31) as usize] as u64);
            }
            FlatOp::FCvtFX { width, fd, rs } => {
                self.f[(fd & 31) as usize] = round_fp(self.x[(rs & 31) as usize] as f64, width);
            }
            FlatOp::FCvtXF { rd, fs } => {
                let v = self.f[(fs & 31) as usize] as i64;
                self.set_x_idx(rd, v);
            }
            FlatOp::Nop => {}
            FlatOp::SsGetVl { rd, width } => {
                let n = self.lanes(width) as i64;
                self.set_x_idx(rd, n);
            }
            FlatOp::SsSetVl { rd, rs, width } => {
                let max = self.cfg.vlen_bytes / width.bytes();
                let req = self.x[(rs & 31) as usize].max(0) as usize;
                let granted = req.min(max).max(1);
                self.vl_bytes = granted * width.bytes();
                self.set_x_idx(rd, granted as i64);
            }
            FlatOp::IncVl { rd, width } => {
                let n = self.lanes(width) as i64;
                self.set_x_idx(rd, self.x[(rd & 31) as usize] + n);
            }
            FlatOp::CntVl { rd, width } => {
                let n = self.lanes(width) as i64;
                self.set_x_idx(rd, n);
            }
            FlatOp::WhileLt {
                pd,
                rs1,
                rs2,
                width,
            } => {
                let a = self.x[(rs1 & 31) as usize];
                let b = self.x[(rs2 & 31) as usize];
                self.p[pd as usize] = whilelt_ref(a, b, self.lanes(width));
                self.p[0] = PredVal::all_true();
            }
            FlatOp::PredAlu { op, pd, ps1, ps2 } => {
                let a = self.p[ps1 as usize].clone();
                let b = self.p[ps2 as usize].clone();
                self.p[pd as usize] = match op {
                    PredOp::Mov => a,
                    PredOp::Not => a.not(crate::value::MAX_LANES),
                    PredOp::And => a.and(&b),
                    PredOp::Or => a.or(&b),
                };
                self.p[0] = PredVal::all_true();
            }
            // Callers dispatch only simple ops here. A no-op arm, rather
            // than a panicking one, lets the jump table span every variant
            // with no range check on the hot path.
            _ => debug_assert!(false, "non-simple op dispatched to exec_simple"),
        }
    }

    /// The vector half of [`exec_flat`](Self::exec_flat): stream-probing
    /// vector ops and the interpreter fallback, outlined so the scalar hot
    /// path stays compact. Any op not matched here routes through `step`,
    /// which is bit-identical by construction.
    #[allow(clippy::too_many_lines)]
    fn exec_flat_vec(
        &mut self,
        flat: &FlatOp,
        inst: &Inst,
        pc: u32,
        trace: &mut Trace,
    ) -> Result<Option<u32>, EmuError> {
        let vlen = self.cfg.vlen_bytes;
        match *flat {
            FlatOp::VDup { vd, src, width, ty } => {
                if self.stream_bound(vd) {
                    return self.step_fallback(*inst, pc, trace);
                }
                self.v[vd.index()] = self.dup_value(src, width, ty);
            }
            FlatOp::VMv { vd, vs } => {
                if self.stream_bound(vd) || self.stream_bound(vs) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let val = self.v[vs.index()].clone();
                self.v[vd.index()] = val;
            }
            FlatOp::VUn {
                op,
                ty,
                width,
                vd,
                vs,
                pred,
            } => {
                if self.stream_bound(vd) || self.stream_bound(vs) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let out = vun_ref(
                    op,
                    ty,
                    width,
                    &self.v[vs.index()],
                    &self.p[pred as usize],
                    self.lanes(width),
                    vlen,
                );
                self.v[vd.index()] = out;
            }
            FlatOp::VArith {
                op,
                ty,
                width,
                vd,
                vs1,
                vs2,
                pred,
            } => {
                if self.stream_bound(vd) || self.stream_bound(vs1) || self.stream_bound(vs2) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let out = lanewise_ref(
                    op,
                    ty,
                    width,
                    &self.v[vs1.index()],
                    &self.v[vs2.index()],
                    &self.p[pred as usize],
                    self.lanes(width),
                    vlen,
                    pc,
                )?;
                self.v[vd.index()] = out;
            }
            FlatOp::VArithVS {
                op,
                ty,
                width,
                vd,
                vs1,
                scalar,
                pred,
            } => {
                if self.stream_bound(vd) || self.stream_bound(vs1) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let b = self.dup_value(scalar, width, ty);
                let out = lanewise_ref(
                    op,
                    ty,
                    width,
                    &self.v[vs1.index()],
                    &b,
                    &self.p[pred as usize],
                    self.lanes(width),
                    vlen,
                    pc,
                )?;
                self.v[vd.index()] = out;
            }
            FlatOp::VMac {
                ty,
                width,
                vd,
                vs1,
                vs2,
                pred,
            } => {
                if self.stream_bound(vd) || self.stream_bound(vs1) || self.stream_bound(vs2) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let out = mac_lanes_ref(
                    &self.p[pred as usize],
                    &self.v[vd.index()],
                    &self.v[vs1.index()],
                    &self.v[vs2.index()],
                    ty,
                    width,
                    vlen,
                );
                self.v[vd.index()] = out;
            }
            FlatOp::VMacVS {
                ty,
                width,
                vd,
                vs1,
                scalar,
                pred,
            } => {
                if self.stream_bound(vd) || self.stream_bound(vs1) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let b = self.dup_value(scalar, width, ty);
                let out = mac_lanes_ref(
                    &self.p[pred as usize],
                    &self.v[vd.index()],
                    &self.v[vs1.index()],
                    &b,
                    ty,
                    width,
                    vlen,
                );
                self.v[vd.index()] = out;
            }
            FlatOp::VRed {
                op,
                ty,
                width,
                vd,
                vs,
                pred,
            } => {
                if self.stream_bound(vd) || self.stream_bound(vs) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let out = vred_ref(
                    op,
                    ty,
                    width,
                    &self.v[vs.index()],
                    &self.p[pred as usize],
                    self.lanes(width),
                    vlen,
                    pc,
                )?;
                self.v[vd.index()] = out;
            }
            FlatOp::VCmp {
                op,
                ty,
                width,
                pd,
                vs1,
                vs2,
            } => {
                if self.stream_bound(vs1) || self.stream_bound(vs2) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let pv = vcmp_ref(
                    op,
                    ty,
                    width,
                    &self.v[vs1.index()],
                    &self.v[vs2.index()],
                    self.lanes(width),
                );
                self.p[pd as usize] = pv;
            }
            FlatOp::PredFromValid { pd, vs } => {
                if self.stream_bound(vs) {
                    return self.step_fallback(*inst, pc, trace);
                }
                self.p[pd as usize] = pred_from_valid_ref(&self.v[vs.index()]);
            }
            FlatOp::VLoad {
                vd,
                base,
                index,
                width,
                pred,
            } => {
                if self.stream_bound(vd) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let lanes = self.lanes(width);
                let b = self.x[base as usize] as u64;
                let idx = self.x[index as usize];
                let wb = width.bytes() as u64;
                let mut out = VecVal::empty(vlen, width);
                {
                    let pm = &self.p[pred as usize];
                    for l in 0..lanes {
                        if pm.get(l) {
                            let addr = b.wrapping_add(((idx + l as i64) as u64).wrapping_mul(wb));
                            out.set_int(l, self.mem.read_elem(addr, width));
                            out.set_lane_valid(l, true);
                        }
                    }
                }
                self.v[vd.index()] = out;
            }
            FlatOp::VStore {
                vs,
                base,
                index,
                width,
                pred,
            } => {
                if self.stream_bound(vs) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let lanes = self.lanes(width);
                let b = self.x[base as usize] as u64;
                let idx = self.x[index as usize];
                let wb = width.bytes() as u64;
                let val = aligned(&self.v[vs.index()], width);
                let pm = &self.p[pred as usize];
                for l in 0..lanes {
                    if pm.get(l) && val.lane_valid(l) {
                        let addr = b.wrapping_add(((idx + l as i64) as u64).wrapping_mul(wb));
                        self.mem.write_elem(addr, width, val.int(l));
                    }
                }
            }
            FlatOp::VGather {
                vd,
                base,
                idx,
                width,
                pred,
            } => {
                if self.stream_bound(vd) || self.stream_bound(idx) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let lanes = self.lanes(width);
                let b = self.x[base as usize] as u64;
                let wb = width.bytes() as u64;
                let mut out = VecVal::empty(vlen, width);
                {
                    let iv = aligned(&self.v[idx.index()], width);
                    let pm = &self.p[pred as usize];
                    for l in 0..lanes {
                        if pm.get(l) && iv.lane_valid(l) {
                            let addr = b.wrapping_add((iv.int(l) as u64).wrapping_mul(wb));
                            out.set_int(l, self.mem.read_elem(addr, width));
                            out.set_lane_valid(l, true);
                        }
                    }
                }
                self.v[vd.index()] = out;
            }
            FlatOp::VScatter {
                vs,
                base,
                idx,
                width,
                pred,
            } => {
                if self.stream_bound(vs) || self.stream_bound(idx) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let lanes = self.lanes(width);
                let b = self.x[base as usize] as u64;
                let wb = width.bytes() as u64;
                let val = aligned(&self.v[vs.index()], width);
                let iv = aligned(&self.v[idx.index()], width);
                let pm = &self.p[pred as usize];
                for l in 0..lanes {
                    if pm.get(l) && val.lane_valid(l) && iv.lane_valid(l) {
                        let addr = b.wrapping_add((iv.int(l) as u64).wrapping_mul(wb));
                        self.mem.write_elem(addr, width, val.int(l));
                    }
                }
            }
            FlatOp::VLoadPost {
                vd,
                base,
                width,
                pred,
            } => {
                if self.stream_bound(vd) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let lanes = self.lanes(width);
                let b = self.x[base as usize] as u64;
                let wb = width.bytes() as u64;
                let mut out = VecVal::empty(vlen, width);
                {
                    let pm = &self.p[pred as usize];
                    for l in 0..lanes {
                        if pm.get(l) {
                            let addr = b + l as u64 * wb;
                            out.set_int(l, self.mem.read_elem(addr, width));
                            out.set_lane_valid(l, true);
                        }
                    }
                }
                self.v[vd.index()] = out;
                self.set_x_idx(base, (b + vlen as u64) as i64);
            }
            FlatOp::VStorePost {
                vs,
                base,
                width,
                pred,
            } => {
                if self.stream_bound(vs) {
                    return self.step_fallback(*inst, pc, trace);
                }
                let lanes = self.lanes(width);
                let b = self.x[base as usize] as u64;
                let wb = width.bytes() as u64;
                {
                    let val = aligned(&self.v[vs.index()], width);
                    let pm = &self.p[pred as usize];
                    for l in 0..lanes {
                        if pm.get(l) && val.lane_valid(l) {
                            let addr = b + l as u64 * wb;
                            self.mem.write_elem(addr, width, val.int(l));
                        }
                    }
                }
                self.set_x_idx(base, (b + vlen as u64) as i64);
            }
            _ => return self.step_fallback(*inst, pc, trace),
        }
        Ok(None)
    }

    /// Saves the committed iteration state of every active stream — the
    /// architectural context a context switch must preserve (Sec. IV-A).
    pub fn save_stream_context(&self) -> Vec<(u8, uve_stream::SavedWalker)> {
        self.streams.save_context()
    }

    /// Restores stream contexts saved by
    /// [`save_stream_context`](Self::save_stream_context). Pre-fetched
    /// buffer data is discarded and re-loaded from memory, as the paper
    /// specifies for the restore path.
    pub fn restore_stream_context(&mut self, saved: &[(u8, uve_stream::SavedWalker)]) {
        self.streams.restore_context(saved, &self.mem);
    }

    /// Executes one instruction with precise stream-fault recovery: the
    /// architectural state (registers, stream unit, trace tail) is
    /// snapshotted, and a [`StreamError::PageFault`] rolls everything back
    /// to the snapshot — as a trap before the instruction would — runs the
    /// plan's implicit handler (the faulting page becomes resident), and
    /// re-executes. Partial stream stores need no undo: replay rewrites the
    /// same values to the same addresses. The recovered instruction's trace
    /// op records how many traps it took so the timing model can charge
    /// them.
    fn step_with_recovery(
        &mut self,
        inst: Inst,
        pc: u32,
        trace: &mut Trace,
    ) -> Result<u32, EmuError> {
        let snap_x = self.x;
        let snap_f = self.f;
        let snap_v = self.v.clone();
        let snap_p = self.p.clone();
        let snap_vl = self.vl_bytes;
        let snap_streams = self.streams.clone();
        let mark = trace.mark();
        let mut faults: u16 = 0;
        loop {
            match self.step(inst, pc, trace) {
                Ok(next) => {
                    if faults > 0 {
                        if let Some(op) = trace.ops.last_mut() {
                            op.stream_faults = faults;
                        }
                    }
                    return Ok(next);
                }
                Err(EmuError::Stream {
                    err: StreamError::PageFault { .. },
                    ..
                }) => {
                    // Each page faults at most once (the probe marks it
                    // resident), so the retry loop is bounded by the pages
                    // one instruction touches.
                    faults += 1;
                    if faults > 4096 {
                        return Err(EmuError::Internal {
                            pc,
                            what: "stream-fault retry did not converge",
                        });
                    }
                    self.x = snap_x;
                    self.f = snap_f;
                    self.v.clone_from(&snap_v);
                    self.p.clone_from(&snap_p);
                    self.vl_bytes = snap_vl;
                    self.streams.clone_from(&snap_streams);
                    trace.rollback(&mark);
                    self.faults_taken += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Executes one instruction at `pc`, returning the next PC.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, inst: Inst, pc: u32, trace: &mut Trace) -> Result<u32, EmuError> {
        let mut op = TraceOp::new(pc, inst.exec_class());
        let lines_start = trace.lines.len();
        self.pending.reads.clear();
        self.pending.writes.clear();
        let mut next = pc + 1;
        let mut consumed: Vec<(VReg, VecVal)> = Vec::new();
        let vlen = self.cfg.vlen_bytes;

        match inst {
            Inst::Alu {
                op: o,
                rd,
                rs1,
                rs2,
            } => {
                let a = self.x[rs1.index()];
                let b = self.x[rs2.index()];
                self.set_x(rd, scalar_alu(o, a, b));
            }
            Inst::AluImm {
                op: o,
                rd,
                rs1,
                imm,
            } => {
                let a = self.x[rs1.index()];
                self.set_x(rd, scalar_alu(o, a, imm as i64));
            }
            Inst::Lui { rd, imm } => self.set_x(rd, (imm as i64) << 12),
            Inst::Ld {
                rd,
                base,
                off,
                width,
            } => {
                let addr = (self.x[base.index()] + off as i64) as u64;
                self.set_x(rd, self.mem.read_elem(addr, width));
                self.record_access(
                    &mut op,
                    trace,
                    lines_start,
                    addr,
                    width.bytes() as u64,
                    false,
                );
            }
            Inst::St {
                src,
                base,
                off,
                width,
            } => {
                let addr = (self.x[base.index()] + off as i64) as u64;
                self.mem.write_elem(addr, width, self.x[src.index()]);
                self.record_access(
                    &mut op,
                    trace,
                    lines_start,
                    addr,
                    width.bytes() as u64,
                    true,
                );
            }
            Inst::Fld {
                fd,
                base,
                off,
                width,
            } => {
                let addr = (self.x[base.index()] + off as i64) as u64;
                let v = match width {
                    ElemWidth::Double => self.mem.read_f64(addr),
                    _ => self.mem.read_f32(addr) as f64,
                };
                self.set_f(fd, v);
                self.record_access(
                    &mut op,
                    trace,
                    lines_start,
                    addr,
                    width.bytes() as u64,
                    false,
                );
            }
            Inst::Fst {
                src,
                base,
                off,
                width,
            } => {
                let addr = (self.x[base.index()] + off as i64) as u64;
                match width {
                    ElemWidth::Double => self.mem.write_f64(addr, self.f[src.index()]),
                    _ => self.mem.write_f32(addr, self.f[src.index()] as f32),
                }
                self.record_access(
                    &mut op,
                    trace,
                    lines_start,
                    addr,
                    width.bytes() as u64,
                    true,
                );
            }
            Inst::FAlu {
                op: o,
                width,
                fd,
                fs1,
                fs2,
            } => {
                let a = self.f[fs1.index()];
                let b = self.f[fs2.index()];
                self.set_f(fd, fp_alu(o, a, b, width));
            }
            Inst::FMac {
                width,
                fd,
                fs1,
                fs2,
                fs3,
            } => {
                let r = self.f[fs1.index()] * self.f[fs2.index()] + self.f[fs3.index()];
                self.set_f(fd, round_fp(r, width));
            }
            Inst::FUn {
                op: o,
                width,
                fd,
                fs,
            } => {
                let a = self.f[fs.index()];
                let r = match o {
                    FpUnOp::Sqrt => a.sqrt(),
                    FpUnOp::Abs => a.abs(),
                    FpUnOp::Neg => -a,
                    FpUnOp::Mv => a,
                };
                self.set_f(fd, round_fp(r, width));
            }
            Inst::FMvXF { rd, fs } => self.set_x(rd, self.f[fs.index()].to_bits() as i64),
            Inst::FMvFX { fd, rs } => self.set_f(fd, f64::from_bits(self.x[rs.index()] as u64)),
            Inst::FCvtFX { width, fd, rs } => {
                self.set_f(fd, round_fp(self.x[rs.index()] as f64, width));
            }
            Inst::FCvtXF { width: _, rd, fs } => self.set_x(rd, self.f[fs.index()] as i64),
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let a = self.x[rs1.index()];
                let b = self.x[rs2.index()];
                let taken = match cond {
                    BrCond::Eq => a == b,
                    BrCond::Ne => a != b,
                    BrCond::Lt => a < b,
                    BrCond::Ge => a >= b,
                    BrCond::Ltu => (a as u64) < (b as u64),
                    BrCond::Geu => (a as u64) >= (b as u64),
                };
                if taken {
                    next = target;
                }
                op.branch = Some(BranchOutcome {
                    taken,
                    next_pc: next,
                });
            }
            Inst::Jal { rd, target } => {
                self.set_x(rd, (pc + 1) as i64);
                next = target;
                op.branch = Some(BranchOutcome {
                    taken: true,
                    next_pc: next,
                });
            }
            Inst::Halt | Inst::Nop => {}
            Inst::SsStart {
                u,
                dir,
                width,
                base,
                size,
                stride,
                done,
            } => {
                let inst_id = self
                    .streams
                    .start(
                        u,
                        dir,
                        width,
                        self.x[base.index()] as u64,
                        self.x[size.index()] as u64,
                        self.x[stride.index()],
                        done,
                        trace,
                    )
                    .map_err(|err| EmuError::Stream { pc, err })?;
                op.stream_open = inst_id.into();
            }
            Inst::SsApp {
                u,
                offset,
                size,
                stride,
                end,
            } => {
                let inst_id = self
                    .streams
                    .append_dim(
                        u,
                        self.x[offset.index()],
                        self.x[size.index()] as u64,
                        self.x[stride.index()],
                        end,
                        trace,
                    )
                    .map_err(|err| EmuError::Stream { pc, err })?;
                op.stream_open = inst_id.into();
            }
            Inst::SsAppMod {
                u,
                target,
                behaviour,
                disp,
                count,
                end,
            } => {
                let inst_id = self
                    .streams
                    .append_static_mod(
                        u,
                        target,
                        behaviour,
                        self.x[disp.index()],
                        self.x[count.index()] as u64,
                        end,
                        trace,
                    )
                    .map_err(|err| EmuError::Stream { pc, err })?;
                op.stream_open = inst_id.into();
            }
            Inst::SsAppInd {
                u,
                target,
                behaviour,
                origin,
                end,
            } => {
                let inst_id = self
                    .streams
                    .append_indirect_mod(u, target, behaviour, origin, end, &self.mem, trace)
                    .map_err(|err| EmuError::Stream { pc, err })?;
                op.stream_open = inst_id.into();
            }
            Inst::SsCtl { op: ctl, u } => {
                let r = match ctl {
                    StreamCtl::Suspend => self.streams.suspend(u).map(|()| None),
                    StreamCtl::Resume => self.streams.resume(u).map(|()| None),
                    StreamCtl::Stop => self.streams.stop(u).map(Some),
                };
                op.stream_close = r.map_err(|err| EmuError::Stream { pc, err })?.into();
            }
            Inst::SsCfgMem { u, level } => self.streams.set_level(u, level),
            Inst::SsBranch { cond, u, target } => {
                let (flags, at_end) = self.streams.branch_flags(u).ok_or(EmuError::Stream {
                    pc,
                    err: StreamError::NotConfigured(u.num()),
                })?;
                let taken = match cond {
                    StreamCond::NotEnd => !at_end,
                    StreamCond::End => at_end,
                    StreamCond::DimNotEnd(k) => !flags.ends_dim(k as usize),
                    StreamCond::DimEnd(k) => flags.ends_dim(k as usize),
                };
                if taken {
                    next = target;
                }
                op.branch = Some(BranchOutcome {
                    taken,
                    next_pc: next,
                });
            }
            Inst::SsGetVl { rd, width } => {
                self.set_x(rd, self.lanes(width) as i64);
            }
            Inst::SsSetVl { rd, rs, width } => {
                let max = self.cfg.vlen_bytes / width.bytes();
                let req = self.x[rs.index()].max(0) as usize;
                let granted = req.min(max).max(1);
                self.vl_bytes = granted * width.bytes();
                self.set_x(rd, granted as i64);
            }
            Inst::VDup { vd, src, width, ty } => {
                let val = self.dup_value(src, width, ty);
                self.write_v(vd, val, trace, &mut op, pc)?;
            }
            Inst::VMv { vd, vs } => {
                let val = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                self.write_v(vd, val, trace, &mut op, pc)?;
            }
            Inst::VUn {
                op: o,
                ty,
                width,
                vd,
                vs,
                pred,
            } => {
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let out = vun_ref(
                    o,
                    ty,
                    width,
                    &a,
                    &self.p[pred.index()],
                    self.lanes(width),
                    vlen,
                );
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VArith {
                op: o,
                ty,
                width,
                vd,
                vs1,
                vs2,
                pred,
            } => {
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.read_v(vs2, trace, &mut op, &mut consumed, pc)?;
                let out = self.lanewise(o, ty, width, &a, &b, pred, pc)?;
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VArithVS {
                op: o,
                ty,
                width,
                vd,
                vs1,
                scalar,
                pred,
            } => {
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.dup_value(scalar, width, ty);
                let out = self.lanewise(o, ty, width, &a, &b, pred, pc)?;
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VMacVS {
                ty,
                width,
                vd,
                vs1,
                scalar,
                pred,
            } => {
                let acc = self.read_v(vd, trace, &mut op, &mut consumed, pc)?;
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.dup_value(scalar, width, ty);
                let out = mac_lanes(self, acc, a, b, ty, width, pred, vlen);
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VMac {
                ty,
                width,
                vd,
                vs1,
                vs2,
                pred,
            } => {
                let acc = self.read_v(vd, trace, &mut op, &mut consumed, pc)?;
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.read_v(vs2, trace, &mut op, &mut consumed, pc)?;
                let out = mac_lanes(self, acc, a, b, ty, width, pred, vlen);
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VRed {
                op: o,
                ty,
                width,
                vd,
                vs,
                pred,
            } => {
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let out = vred_ref(
                    o,
                    ty,
                    width,
                    &a,
                    &self.p[pred.index()],
                    self.lanes(width),
                    vlen,
                    pc,
                )?;
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VCmp {
                op: o,
                ty,
                width,
                pd,
                vs1,
                vs2,
            } => {
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.read_v(vs2, trace, &mut op, &mut consumed, pc)?;
                let pv = vcmp_ref(o, ty, width, &a, &b, self.lanes(width));
                self.p[pd.index()] = pv;
            }
            Inst::PredAlu {
                op: o,
                pd,
                ps1,
                ps2,
            } => {
                let a = self.p[ps1.index()].clone();
                let b = self.p[ps2.index()].clone();
                self.p[pd.index()] = match o {
                    PredOp::Mov => a,
                    PredOp::Not => a.not(crate::value::MAX_LANES),
                    PredOp::And => a.and(&b),
                    PredOp::Or => a.or(&b),
                };
                // p0 stays hardwired.
                self.p[0] = PredVal::all_true();
            }
            Inst::PredFromValid { pd, vs } => {
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                self.p[pd.index()] = pred_from_valid_ref(&a);
            }
            Inst::BrPred { cond, p, target } => {
                let pv = &self.p[p.index()];
                let taken = match cond {
                    PredCond::First => pv.first(),
                    PredCond::Any => pv.any(crate::value::MAX_LANES),
                    PredCond::None => !pv.any(crate::value::MAX_LANES),
                };
                if taken {
                    next = target;
                }
                op.branch = Some(BranchOutcome {
                    taken,
                    next_pc: next,
                });
            }
            Inst::VExtractF {
                fd,
                vs,
                lane,
                width,
            } => {
                let lanes = self.lanes(width);
                if usize::from(lane) >= lanes {
                    return Err(EmuError::LaneOutOfRange { pc, lane, lanes });
                }
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let a = align_width(a, width);
                self.set_f(fd, a.float(lane as usize));
            }
            Inst::VExtractX {
                rd,
                vs,
                lane,
                width,
            } => {
                let lanes = self.lanes(width);
                if usize::from(lane) >= lanes {
                    return Err(EmuError::LaneOutOfRange { pc, lane, lanes });
                }
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let a = align_width(a, width);
                self.set_x(rd, a.int(lane as usize));
            }
            Inst::VLoad {
                vd,
                base,
                index,
                width,
                pred,
            } => {
                let b = self.x[base.index()] as u64;
                let idx = self.x[index.index()];
                let pm = self.p[pred.index()].clone();
                let mut out = VecVal::empty(vlen, width);
                let wb = width.bytes() as u64;
                let mut first_addr = None;
                for l in 0..self.lanes(width) {
                    if pm.get(l) {
                        let addr = b.wrapping_add(((idx + l as i64) as u64).wrapping_mul(wb));
                        out.set_int(l, self.mem.read_elem(addr, width));
                        out.set_lane_valid(l, true);
                        first_addr.get_or_insert(addr);
                        self.record_lines(trace, lines_start, addr, wb);
                    }
                }
                op.mem_addr = first_addr.unwrap_or(b);
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VStore {
                vs,
                base,
                index,
                width,
                pred,
            } => {
                let val = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let val = align_width(val, width);
                let b = self.x[base.index()] as u64;
                let idx = self.x[index.index()];
                let pm = self.p[pred.index()].clone();
                let wb = width.bytes() as u64;
                op.is_store = true;
                let mut first_addr = None;
                for l in 0..self.lanes(width) {
                    if pm.get(l) && val.lane_valid(l) {
                        let addr = b.wrapping_add(((idx + l as i64) as u64).wrapping_mul(wb));
                        self.mem.write_elem(addr, width, val.int(l));
                        first_addr.get_or_insert(addr);
                        self.record_lines(trace, lines_start, addr, wb);
                    }
                }
                op.mem_addr = first_addr.unwrap_or(b);
            }
            Inst::VGather {
                vd,
                base,
                idx,
                width,
                pred,
            } => {
                let b = self.x[base.index()] as u64;
                let iv = self.read_v(idx, trace, &mut op, &mut consumed, pc)?;
                let iv = align_width(iv, width);
                let pm = self.p[pred.index()].clone();
                let mut out = VecVal::empty(vlen, width);
                let wb = width.bytes() as u64;
                let mut first_addr = None;
                for l in 0..self.lanes(width) {
                    if pm.get(l) && iv.lane_valid(l) {
                        let addr = b.wrapping_add((iv.int(l) as u64).wrapping_mul(wb));
                        out.set_int(l, self.mem.read_elem(addr, width));
                        out.set_lane_valid(l, true);
                        first_addr.get_or_insert(addr);
                        self.record_lines(trace, lines_start, addr, wb);
                    }
                }
                op.mem_addr = first_addr.unwrap_or(b);
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VScatter {
                vs,
                base,
                idx,
                width,
                pred,
            } => {
                let val = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let val = align_width(val, width);
                let b = self.x[base.index()] as u64;
                let iv = self.read_v(idx, trace, &mut op, &mut consumed, pc)?;
                let iv = align_width(iv, width);
                let pm = self.p[pred.index()].clone();
                let wb = width.bytes() as u64;
                op.is_store = true;
                let mut first_addr = None;
                for l in 0..self.lanes(width) {
                    if pm.get(l) && val.lane_valid(l) && iv.lane_valid(l) {
                        let addr = b.wrapping_add((iv.int(l) as u64).wrapping_mul(wb));
                        self.mem.write_elem(addr, width, val.int(l));
                        first_addr.get_or_insert(addr);
                        self.record_lines(trace, lines_start, addr, wb);
                    }
                }
                op.mem_addr = first_addr.unwrap_or(b);
            }
            Inst::WhileLt {
                pd,
                rs1,
                rs2,
                width,
            } => {
                let a = self.x[rs1.index()];
                let b = self.x[rs2.index()];
                self.p[pd.index()] = whilelt_ref(a, b, self.lanes(width));
                self.p[0] = PredVal::all_true();
            }
            Inst::IncVl { rd, width } => {
                let n = self.lanes(width) as i64;
                self.set_x(rd, self.x[rd.index()] + n);
            }
            Inst::CntVl { rd, width } => {
                let n = self.lanes(width) as i64;
                self.set_x(rd, n);
            }
            Inst::VLoadPost {
                vd,
                base,
                width,
                pred,
            } => {
                let b = self.x[base.index()] as u64;
                let pm = self.p[pred.index()].clone();
                let mut out = VecVal::empty(vlen, width);
                let wb = width.bytes() as u64;
                for l in 0..self.lanes(width) {
                    if pm.get(l) {
                        let addr = b + l as u64 * wb;
                        out.set_int(l, self.mem.read_elem(addr, width));
                        out.set_lane_valid(l, true);
                        self.record_lines(trace, lines_start, addr, wb);
                    }
                }
                op.mem_addr = b;
                self.write_v(vd, out, trace, &mut op, pc)?;
                self.set_x(base, (b + vlen as u64) as i64);
            }
            Inst::VStorePost {
                vs,
                base,
                width,
                pred,
            } => {
                let val = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let val = align_width(val, width);
                let b = self.x[base.index()] as u64;
                let pm = self.p[pred.index()].clone();
                let wb = width.bytes() as u64;
                op.is_store = true;
                op.mem_addr = b;
                for l in 0..self.lanes(width) {
                    if pm.get(l) && val.lane_valid(l) {
                        let addr = b + l as u64 * wb;
                        self.mem.write_elem(addr, width, val.int(l));
                        self.record_lines(trace, lines_start, addr, wb);
                    }
                }
                self.set_x(base, (b + vlen as u64) as i64);
            }
        }

        if self.cfg.record_trace {
            // Register dependencies, with stream-register operands removed
            // (they travel through the FIFO readiness interface instead).
            let streams = &trace.streams;
            let streamed = |refs: &[StreamRef], r: RegRef| {
                r.class == RegClass::Vec
                    && refs.iter().any(|&(i, _)| streams[i as usize].u == r.num)
            };
            op.srcs = inst.srcs();
            if !self.pending.reads.is_empty() {
                op.srcs.retain(|r| !streamed(&self.pending.reads, r));
            }
            op.dests = inst.dests();
            if !self.pending.writes.is_empty() {
                op.dests.retain(|r| !streamed(&self.pending.writes, r));
            }
            op.mem_lines = trace.lines_since(lines_start);
            op.stream_reads = trace.push_stream_refs(&self.pending.reads);
            op.stream_writes = trace.push_stream_refs(&self.pending.writes);
            trace.ops.push(op);
        }
        Ok(next)
    }

    #[allow(clippy::too_many_arguments)]
    fn lanewise(
        &self,
        o: VOp,
        ty: VType,
        width: ElemWidth,
        a: &VecVal,
        b: &VecVal,
        pred: uve_isa::PReg,
        pc: u32,
    ) -> Result<VecVal, EmuError> {
        lanewise_ref(
            o,
            ty,
            width,
            a,
            b,
            &self.p[pred.index()],
            self.lanes(width),
            self.cfg.vlen_bytes,
            pc,
        )
    }
}

/// Owning `width`-alignment (interpreter arms that already hold a value).
fn align_width(v: VecVal, width: ElemWidth) -> VecVal {
    if v.width() == width {
        v
    } else {
        v.reinterpret(width)
    }
}

/// Borrowing `width`-alignment: reinterprets only when widths differ,
/// avoiding a clone on the (overwhelmingly common) matching-width path.
fn aligned(v: &VecVal, width: ElemWidth) -> Cow<'_, VecVal> {
    if v.width() == width {
        Cow::Borrowed(v)
    } else {
        Cow::Owned(v.reinterpret(width))
    }
}

/// Predicated lanewise binary op — the single implementation behind both
/// the interpreter's `VArith`/`VArithVS` arms and the flat fast path.
#[allow(clippy::too_many_arguments)]
fn lanewise_ref(
    o: VOp,
    ty: VType,
    width: ElemWidth,
    a: &VecVal,
    b: &VecVal,
    pm: &PredVal,
    lanes: usize,
    vlen: usize,
    pc: u32,
) -> Result<VecVal, EmuError> {
    let a = aligned(a, width);
    let b = aligned(b, width);
    let mut out = VecVal::empty(vlen, width);
    for i in 0..lanes {
        if a.lane_valid(i) && b.lane_valid(i) && pm.get(i) {
            match ty {
                VType::Fp => {
                    let r =
                        fp_vop(o, a.float(i), b.float(i)).ok_or_else(|| EmuError::Unsupported {
                            pc,
                            what: format!("bitwise vector op {o:?} with an FP type tag"),
                        })?;
                    out.set_float(i, round_fp(r, width));
                }
                VType::Int => out.set_int(i, int_vop(o, a.int(i), b.int(i))),
            }
            out.set_lane_valid(i, true);
        }
    }
    Ok(out)
}

/// Predicated lanewise unary op (shared by interpreter and fast path).
fn vun_ref(
    o: VUnOp,
    ty: VType,
    width: ElemWidth,
    a: &VecVal,
    pm: &PredVal,
    lanes: usize,
    vlen: usize,
) -> VecVal {
    let a = aligned(a, width);
    let mut out = VecVal::empty(vlen, width);
    for i in 0..lanes {
        if a.lane_valid(i) && pm.get(i) {
            let s = match (ty, o) {
                (VType::Fp, VUnOp::Abs) => Scalar::Fp(a.float(i).abs()),
                (VType::Fp, VUnOp::Neg) => Scalar::Fp(-a.float(i)),
                (VType::Fp, VUnOp::Sqrt) => Scalar::Fp(a.float(i).sqrt()),
                (VType::Fp, VUnOp::Mv) => Scalar::Fp(a.float(i)),
                (VType::Int, VUnOp::Abs) => Scalar::Int(a.int(i).wrapping_abs()),
                (VType::Int, VUnOp::Neg) => Scalar::Int(a.int(i).wrapping_neg()),
                (VType::Int, VUnOp::Sqrt) => Scalar::Int((a.int(i).max(0) as f64).sqrt() as i64),
                (VType::Int, VUnOp::Mv) => Scalar::Int(a.int(i)),
            };
            out.set_scalar(i, s);
            out.set_lane_valid(i, true);
        }
    }
    out
}

/// Predicated horizontal reduction (shared by interpreter and fast path).
#[allow(clippy::too_many_arguments)]
fn vred_ref(
    o: HorizOp,
    ty: VType,
    width: ElemWidth,
    a: &VecVal,
    pm: &PredVal,
    lanes: usize,
    vlen: usize,
    pc: u32,
) -> Result<VecVal, EmuError> {
    let a = aligned(a, width);
    let mut out = VecVal::empty(vlen, width);
    let mut acc: Option<Scalar> = None;
    for i in 0..lanes {
        if !(a.lane_valid(i) && pm.get(i)) {
            continue;
        }
        let x = a.scalar(i, ty);
        acc = Some(match (acc, ty) {
            (None, _) => x,
            (Some(Scalar::Fp(v)), VType::Fp) => Scalar::Fp(match o {
                HorizOp::Add => v + x.as_fp(),
                HorizOp::Max => v.max(x.as_fp()),
                HorizOp::Min => v.min(x.as_fp()),
            }),
            (Some(Scalar::Int(v)), VType::Int) => Scalar::Int(match o {
                HorizOp::Add => v.wrapping_add(x.as_int()),
                HorizOp::Max => v.max(x.as_int()),
                HorizOp::Min => v.min(x.as_int()),
            }),
            _ => {
                return Err(EmuError::Internal {
                    pc,
                    what: "reduction accumulator type confusion",
                })
            }
        });
    }
    if let Some(s) = acc {
        out.set_scalar(0, s);
        out.set_lane_valid(0, true);
    }
    Ok(out)
}

/// Vector compare into a predicate (shared by interpreter and fast path).
fn vcmp_ref(
    o: VCmpOp,
    ty: VType,
    width: ElemWidth,
    a: &VecVal,
    b: &VecVal,
    lanes: usize,
) -> PredVal {
    let a = aligned(a, width);
    let b = aligned(b, width);
    let mut pv = PredVal::all_false();
    for i in 0..lanes {
        if a.lane_valid(i) && b.lane_valid(i) {
            let r = match ty {
                VType::Fp => cmp_f(o, a.float(i), b.float(i)),
                VType::Int => cmp_i(o, a.int(i), b.int(i)),
            };
            pv.set(i, r);
        }
    }
    pv
}

/// `so.p.valid`: predicate from the operand's valid-lane mask.
fn pred_from_valid_ref(a: &VecVal) -> PredVal {
    let mut pv = PredVal::all_false();
    for i in 0..a.lanes() {
        pv.set(i, a.lane_valid(i));
    }
    pv
}

/// `whilelt`: lanes active while `a + lane < b`.
fn whilelt_ref(a: i64, b: i64, lanes: usize) -> PredVal {
    let mut pv = PredVal::all_false();
    for l in 0..lanes {
        pv.set(l, a + (l as i64) < b);
    }
    pv
}

fn acc_lane_f(acc: &VecVal, i: usize) -> f64 {
    if acc.lane_valid(i) {
        acc.float(i)
    } else {
        0.0
    }
}

fn acc_lane_i(acc: &VecVal, i: usize) -> i64 {
    if acc.lane_valid(i) {
        acc.int(i)
    } else {
        0
    }
}

#[allow(clippy::too_many_arguments)]
fn mac_lanes(
    emu: &Emulator,
    acc: VecVal,
    a: VecVal,
    b: VecVal,
    ty: VType,
    width: ElemWidth,
    pred: uve_isa::PReg,
    vlen: usize,
) -> VecVal {
    mac_lanes_ref(&emu.p[pred.index()], &acc, &a, &b, ty, width, vlen)
}

/// Predicated multiply-accumulate over the *hardware* lane count (shared by
/// interpreter and fast path). Accumulator lanes beyond the operand tail
/// pass through unchanged (predicated-off behaviour of fmla).
fn mac_lanes_ref(
    pm: &PredVal,
    acc: &VecVal,
    a: &VecVal,
    b: &VecVal,
    ty: VType,
    width: ElemWidth,
    vlen: usize,
) -> VecVal {
    let acc = aligned(acc, width);
    let a = aligned(a, width);
    let b = aligned(b, width);
    let mut out = VecVal::empty(vlen, width);
    for i in 0..vlen / width.bytes() {
        if a.lane_valid(i) && b.lane_valid(i) && pm.get(i) {
            match ty {
                VType::Fp => out.set_float(
                    i,
                    round_fp(acc_lane_f(&acc, i) + a.float(i) * b.float(i), width),
                ),
                VType::Int => out.set_int(
                    i,
                    acc_lane_i(&acc, i).wrapping_add(a.int(i).wrapping_mul(b.int(i))),
                ),
            }
            out.set_lane_valid(i, true);
        } else if acc.lane_valid(i) {
            out.set_int(i, acc.int(i));
            out.set_lane_valid(i, true);
        }
    }
    out
}

fn scalar_alu(op: AluOp, a: i64, b: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => ((a as i128 * b as i128) >> 64) as i64,
        AluOp::Div => {
            if b == 0 {
                -1
            } else {
                a.wrapping_div(b)
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                a.wrapping_rem(b)
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
        AluOp::Sra => a.wrapping_shr((b & 63) as u32),
        AluOp::Slt => i64::from(a < b),
        AluOp::Sltu => i64::from((a as u64) < (b as u64)),
        AluOp::Min => a.min(b),
        AluOp::Max => a.max(b),
    }
}

fn round_fp(v: f64, width: ElemWidth) -> f64 {
    match width {
        ElemWidth::Double => v,
        _ => v as f32 as f64,
    }
}

fn fp_alu(op: FpOp, a: f64, b: f64, width: ElemWidth) -> f64 {
    let r = match op {
        FpOp::Add => a + b,
        FpOp::Sub => a - b,
        FpOp::Mul => a * b,
        FpOp::Div => a / b,
        FpOp::Min => a.min(b),
        FpOp::Max => a.max(b),
    };
    round_fp(r, width)
}

fn fp_vop(o: VOp, a: f64, b: f64) -> Option<f64> {
    Some(match o {
        VOp::Add => a + b,
        VOp::Sub => a - b,
        VOp::Mul => a * b,
        VOp::Div => a / b,
        VOp::Min => a.min(b),
        VOp::Max => a.max(b),
        // Bitwise ops have no FP interpretation — reported as a typed
        // error by the caller, not a panic.
        VOp::And | VOp::Or | VOp::Xor | VOp::Shl | VOp::Shr => return None,
    })
}

fn int_vop(o: VOp, a: i64, b: i64) -> i64 {
    match o {
        VOp::Add => a.wrapping_add(b),
        VOp::Sub => a.wrapping_sub(b),
        VOp::Mul => a.wrapping_mul(b),
        VOp::Div => {
            if b == 0 {
                -1
            } else {
                a.wrapping_div(b)
            }
        }
        VOp::Min => a.min(b),
        VOp::Max => a.max(b),
        VOp::And => a & b,
        VOp::Or => a | b,
        VOp::Xor => a ^ b,
        VOp::Shl => a.wrapping_shl((b & 63) as u32),
        VOp::Shr => a.wrapping_shr((b & 63) as u32),
    }
}

fn cmp_f(o: VCmpOp, a: f64, b: f64) -> bool {
    match o {
        VCmpOp::Eq => a == b,
        VCmpOp::Ne => a != b,
        VCmpOp::Lt => a < b,
        VCmpOp::Le => a <= b,
        VCmpOp::Gt => a > b,
        VCmpOp::Ge => a >= b,
    }
}

fn cmp_i(o: VCmpOp, a: i64, b: i64) -> bool {
    match o {
        VCmpOp::Eq => a == b,
        VCmpOp::Ne => a != b,
        VCmpOp::Lt => a < b,
        VCmpOp::Le => a <= b,
        VCmpOp::Gt => a > b,
        VCmpOp::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_isa::assemble;

    fn run_text(text: &str, setup: impl FnOnce(&mut Emulator)) -> (Emulator, RunResult) {
        let prog = assemble("t", text).expect("assembles");
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        setup(&mut emu);
        let r = emu.run(&prog).expect("runs");
        (emu, r)
    }

    #[test]
    fn scalar_loop() {
        let (emu, r) = run_text(
            "
    li x10, 0
    li x11, 10
loop:
    addi x10, x10, 1
    bne x10, x11, loop
    halt
",
            |_| {},
        );
        assert_eq!(emu.x(XReg::A0), 10);
        assert_eq!(r.committed, 2 + 10 * 2 + 1);
    }

    #[test]
    fn uve_saxpy_fig4() {
        // The paper's Fig. 4 saxpy: y = a*x + y over 20 f32 elements
        // (one full vector + padded tail).
        let n = 20usize;
        let (emu, r) = run_text(
            "
    li x10, 20          ; n
    li x11, 0x10000     ; &x
    li x12, 0x20000     ; &y
    li x13, 1           ; stride
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
            |emu| {
                emu.set_f(uve_isa::FReg::FA0, 2.0);
                let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
                let y: Vec<f32> = (0..n).map(|i| (i * 10) as f32).collect();
                emu.mem.write_f32_slice(0x10000, &x);
                emu.mem.write_f32_slice(0x20000, &y);
            },
        );
        let y = emu.mem.read_f32_slice(0x20000, n);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + (i * 10) as f32, "y[{i}]");
        }
        // Trace recorded 3 streams with chunks.
        assert_eq!(r.trace.streams.len(), 3);
        assert_eq!(r.trace.streams[0].elements(), 20);
        assert_eq!(r.trace.streams[2].elements(), 20);
    }

    #[test]
    fn sve_saxpy_baseline() {
        // SVE-like predicated loop equivalent of Fig. 1.B.
        let n = 20usize;
        let (emu, _r) = run_text(
            "
    li x10, 0            ; i
    li x11, 20           ; n
    li x12, 0x10000      ; &x (element base)
    li x13, 0x20000      ; &y
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
            |emu| {
                emu.set_f(uve_isa::FReg::FA0, 2.0);
                let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
                let y: Vec<f32> = (0..n).map(|i| (i * 10) as f32).collect();
                emu.mem.write_f32_slice(0x10000, &x);
                emu.mem.write_f32_slice(0x20000, &y);
            },
        );
        let y = emu.mem.read_f32_slice(0x20000, n);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + (i * 10) as f32, "y[{i}]");
        }
    }

    #[test]
    fn row_max_fig2() {
        // The paper's Fig. 2: maximum across rows of a 3×5 matrix.
        let (emu, _r) = run_text(
            "
    li x10, 5            ; Nc
    li x11, 3            ; Nr
    li x12, 0x10000      ; &A
    li x13, 0x20000      ; &C
    li x14, 1
    ss.ld.w.sta u0, x12, x10, x14
    ss.end u0, x0, x11, x10
    ss.st.w u1, x13, x11, x14
next_line:
    so.v.mv u5, u0
    so.b.dim0.end u0, hmax
loop:
    so.a.max.w.fp u5, u5, u0, p0
    so.b.dim0.nend u0, loop
hmax:
    so.a.hmax.w.fp u1, u5, p0
    so.b.nend u0, next_line
    halt
",
            |emu| {
                #[rustfmt::skip]
                let a: Vec<f32> = vec![
                    1.0, 9.0, 2.0, 3.0, 4.0,
                    5.0, 0.0, 5.5, 1.0, 2.0,
                    7.0, 6.0, 3.0, 8.0, 2.5,
                ];
                emu.mem.write_f32_slice(0x10000, &a);
            },
        );
        let c = emu.mem.read_f32_slice(0x20000, 3);
        assert_eq!(c, vec![9.0, 5.5, 8.0]);
    }

    #[test]
    fn stream_direction_misuse_errors() {
        let prog = assemble(
            "t",
            "
    li x10, 4
    li x11, 0x1000
    li x12, 1
    ss.st.w u0, x11, x10, x12
    so.a.add.w.fp u1, u0, u0, p0
    halt
",
        )
        .unwrap();
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        let err = emu.run(&prog).unwrap_err();
        assert!(matches!(
            err,
            EmuError::Stream {
                err: StreamError::WrongDirection(0),
                ..
            }
        ));
    }

    #[test]
    fn out_of_fuel_detects_infinite_loop() {
        let prog = assemble("t", "loop: jal x0, loop\nhalt").unwrap();
        let mut emu = Emulator::new(
            EmuConfig {
                max_steps: 1000,
                ..EmuConfig::default()
            },
            Memory::new(),
        );
        assert!(matches!(emu.run(&prog), Err(EmuError::OutOfFuel(1000))));
    }

    #[test]
    fn missing_halt_detected() {
        let prog = assemble("t", "addi x1, x0, 1").unwrap();
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        assert!(matches!(emu.run(&prog), Err(EmuError::PcOutOfRange(1))));
    }

    #[test]
    fn trace_excludes_stream_regs_from_deps() {
        let (_, r) = run_text(
            "
    li x10, 16
    li x11, 0x1000
    li x13, 1
    ss.ld.w u0, x11, x10, x13
    so.a.add.w.fp u4, u0, u0, p0
    halt
",
            |_| {},
        );
        let add = r
            .trace
            .ops
            .iter()
            .find(|o| !o.stream_reads.is_empty())
            .expect("stream-consuming op present");
        // u0 must not appear as a register dependency.
        assert!(add.srcs.iter().all(|s| s.class != RegClass::Vec));
        assert_eq!(add.stream_reads.len(), 1); // consumed once, used twice
    }

    #[test]
    fn scalar_mem_roundtrip() {
        let (emu, r) = run_text(
            "
    li x10, 1234
    li x11, 0x3000
    st.w x10, 4(x11)
    ld.w x12, 4(x11)
    halt
",
            |_| {},
        );
        assert_eq!(emu.x(XReg::A2), 1234);
        let st = r.trace.ops.iter().find(|o| o.is_store).unwrap();
        assert_eq!(r.trace.mem_lines(st), &[0x3004 / 64]);
    }

    #[test]
    fn fp_scalar_ops() {
        let (emu, _) = run_text(
            "
    fadd.w f2, f0, f1
    fmul.w f3, f0, f1
    fmadd.w f4, f0, f1, f2
    fsqrt.w f5, f3
    halt
",
            |emu| {
                emu.set_f(uve_isa::FReg::new(0), 3.0);
                emu.set_f(uve_isa::FReg::new(1), 4.0);
            },
        );
        assert_eq!(emu.f(uve_isa::FReg::new(2)), 7.0);
        assert_eq!(emu.f(uve_isa::FReg::new(3)), 12.0);
        assert_eq!(emu.f(uve_isa::FReg::new(4)), 19.0);
        assert!((emu.f(uve_isa::FReg::new(5)) - 12f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn fault_recovery_is_bit_identical_on_saxpy() {
        let n = 4096usize;
        let text = "
    li x10, 4096
    li x11, 0x10000
    li x12, 0x20000
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
";
        let setup = |emu: &mut Emulator| {
            emu.set_f(uve_isa::FReg::FA0, 2.0);
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let y: Vec<f32> = (0..n).map(|i| (i * 3) as f32).collect();
            emu.mem.write_f32_slice(0x10000, &x);
            emu.mem.write_f32_slice(0x20000, &y);
        };
        let prog = assemble("t", text).unwrap();
        let mut clean = Emulator::new(EmuConfig::default(), Memory::new());
        setup(&mut clean);
        let clean_run = clean.run(&prog).unwrap();

        let mut faulty = Emulator::new(EmuConfig::default(), Memory::new());
        setup(&mut faulty);
        // Fault every first-touched page: 4096 f32 over two arrays = 8
        // pages, so every stream takes several precise traps.
        faulty.set_fault_plan(Some(StreamFaultPlan::new(7, 1)));
        let faulty_run = faulty.run(&prog).unwrap();

        assert!(faulty.faults_taken() > 0, "plan must fire");
        assert_eq!(
            clean.mem.content_hash(),
            faulty.mem.content_hash(),
            "recovered memory must be bit-identical"
        );
        assert_eq!(
            clean.arch_digest(),
            faulty.arch_digest(),
            "recovered registers must be bit-identical"
        );
        assert_eq!(clean_run.committed, faulty_run.committed);
        // The recovered trace matches except for the fault stamps.
        assert_eq!(clean_run.trace.ops.len(), faulty_run.trace.ops.len());
        let stamped: u64 = faulty_run
            .trace
            .ops
            .iter()
            .map(|o| u64::from(o.stream_faults))
            .sum();
        assert_eq!(stamped, faulty.faults_taken(), "every trap is stamped");
        let mut scrubbed = faulty_run.trace.clone();
        for o in &mut scrubbed.ops {
            o.stream_faults = 0;
        }
        assert_eq!(clean_run.trace, scrubbed);
    }

    #[test]
    fn fault_plan_is_deterministic_across_runs() {
        let text = "
    li x10, 512
    li x11, 0x10000
    li x13, 1
    ss.ld.w u0, x11, x10, x13
loop:
    so.a.add.w.fp u5, u0, u0, p0
    so.b.nend u0, loop
    halt
";
        let prog = assemble("t", text).unwrap();
        let mut counts = Vec::new();
        for _ in 0..2 {
            let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
            let x: Vec<f32> = (0..512).map(|i| i as f32).collect();
            emu.mem.write_f32_slice(0x10000, &x);
            emu.set_fault_plan(Some(StreamFaultPlan::new(42, 1)));
            emu.run(&prog).unwrap();
            counts.push((emu.faults_taken(), emu.arch_digest()));
        }
        assert_eq!(counts[0], counts[1]);
        assert!(counts[0].0 > 0);
    }

    #[test]
    fn bitwise_fp_vop_is_a_typed_error() {
        let prog = assemble(
            "t",
            "
    so.v.dup.w.fp u1, f0
    so.a.and.w.fp u2, u1, u1, p0
    halt
",
        )
        .unwrap();
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        match emu.run(&prog) {
            Err(EmuError::Unsupported { .. }) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    fn saxpy_text() -> &'static str {
        "
    li x10, 100
    li x11, 0x10000
    li x12, 0x20000
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
"
    }

    fn saxpy_setup(emu: &mut Emulator) {
        emu.set_f(uve_isa::FReg::FA0, 2.0);
        let x: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..100).map(|i| (i * 3) as f32).collect();
        emu.mem.write_f32_slice(0x10000, &x);
        emu.mem.write_f32_slice(0x20000, &y);
    }

    #[test]
    fn translated_mode_is_bit_identical_on_saxpy() {
        let prog = assemble("t", saxpy_text()).unwrap();
        let mut interp = Emulator::new(EmuConfig::default(), Memory::new());
        saxpy_setup(&mut interp);
        let ri = interp.run(&prog).unwrap();

        let cfg = EmuConfig {
            exec: ExecMode::Translated,
            ..EmuConfig::default()
        };
        let mut trans = Emulator::new(cfg, Memory::new());
        saxpy_setup(&mut trans);
        let rt = trans.run(&prog).unwrap();

        assert_eq!(ri.committed, rt.committed);
        assert_eq!(interp.arch_digest(), trans.arch_digest());
        assert_eq!(interp.mem.content_hash(), trans.mem.content_hash());
        assert_eq!(ri.trace, rt.trace);
    }

    #[test]
    fn translated_untraced_matches_interpreter() {
        let base = EmuConfig {
            record_trace: false,
            ..EmuConfig::default()
        };
        let prog = assemble("t", saxpy_text()).unwrap();
        let mut interp = Emulator::new(base, Memory::new());
        saxpy_setup(&mut interp);
        let ri = interp.run(&prog).unwrap();

        let mut trans = Emulator::new(
            EmuConfig {
                exec: ExecMode::Translated,
                ..base
            },
            Memory::new(),
        );
        saxpy_setup(&mut trans);
        let rt = trans.run(&prog).unwrap();

        assert_eq!(ri.committed, rt.committed);
        assert_eq!(interp.arch_digest(), trans.arch_digest());
        assert_eq!(interp.mem.content_hash(), trans.mem.content_hash());
        // Stream chunk metadata is recorded unconditionally in both modes.
        assert_eq!(ri.trace.streams, rt.trace.streams);
    }

    #[test]
    fn translated_single_step_slices_match_interpreter() {
        let prog = assemble("t", saxpy_text()).unwrap();
        let mut interp = Emulator::new(EmuConfig::default(), Memory::new());
        saxpy_setup(&mut interp);
        let ri = interp.run(&prog).unwrap();

        let cfg = EmuConfig {
            exec: ExecMode::Translated,
            ..EmuConfig::default()
        };
        let mut trans = Emulator::new(cfg, Memory::new());
        saxpy_setup(&mut trans);
        let mut cursor = RunCursor::new();
        let mut slices = 0u64;
        while !trans.resume(&prog, &mut cursor, Some(1)).unwrap() {
            slices += 1;
            assert!(slices < 10_000, "runaway");
        }
        assert_eq!(cursor.steps(), ri.committed);
        assert_eq!(interp.arch_digest(), trans.arch_digest());
        assert_eq!(interp.mem.content_hash(), trans.mem.content_hash());
        assert_eq!(ri.trace, *cursor.trace());
    }

    #[test]
    fn translated_fault_recovery_matches_interpreter() {
        let prog = assemble("t", saxpy_text()).unwrap();
        let mut interp = Emulator::new(EmuConfig::default(), Memory::new());
        saxpy_setup(&mut interp);
        interp.set_fault_plan(Some(StreamFaultPlan::new(9, 1)));
        let ri = interp.run(&prog).unwrap();

        let cfg = EmuConfig {
            exec: ExecMode::Translated,
            ..EmuConfig::default()
        };
        let mut trans = Emulator::new(cfg, Memory::new());
        saxpy_setup(&mut trans);
        trans.set_fault_plan(Some(StreamFaultPlan::new(9, 1)));
        let rt = trans.run(&prog).unwrap();

        assert!(interp.faults_taken() > 0);
        assert_eq!(interp.faults_taken(), trans.faults_taken());
        assert_eq!(ri.trace, rt.trace, "fault stamps must match");
        assert_eq!(interp.arch_digest(), trans.arch_digest());
        assert_eq!(interp.mem.content_hash(), trans.mem.content_hash());
    }

    #[test]
    fn translated_errors_match_interpreter() {
        // Out-of-fuel, pc escape and stream misuse must surface at the same
        // step counts and pcs in both modes.
        for (text, fuel) in [
            ("loop: jal x0, loop\nhalt", 1000u64),
            ("addi x1, x0, 1", 1000),
            (
                "
    li x10, 4
    li x11, 0x1000
    li x12, 1
    ss.st.w u0, x11, x10, x12
    so.a.add.w.fp u1, u0, u0, p0
    halt
",
                1000,
            ),
        ] {
            let prog = assemble("t", text).unwrap();
            let mk = |exec| {
                Emulator::new(
                    EmuConfig {
                        max_steps: fuel,
                        exec,
                        ..EmuConfig::default()
                    },
                    Memory::new(),
                )
            };
            let ei = mk(ExecMode::Interpret).run(&prog).unwrap_err();
            let et = mk(ExecMode::Translated).run(&prog).unwrap_err();
            assert_eq!(ei, et, "error divergence on {text:?}");
        }
    }

    #[test]
    fn gather_scatter() {
        let (emu, _) = run_text(
            "
    li x10, 0x1000      ; base
    li x11, 4
    li x12, 0
    whilelt.w p1, x12, x11
    vl1.w u1, x13, x12, p1   ; load indices from 0x2000 (x13 set below)
    vgather.w u2, x10, u1, p1
    vscatter.w u2, x14, u1, p1
    halt
",
            |emu| {
                emu.set_x(XReg::A3, 0x2000);
                emu.set_x(XReg::A4, 0x3000);
                emu.mem.write_i32_slice(0x2000, &[3, 1, 0, 2]);
                emu.mem.write_i32_slice(0x1000, &[100, 101, 102, 103]);
            },
        );
        // gather: u2 = A[idx] = [103, 101, 100, 102]; scatter writes them
        // back permuted to 0x3000[idx] → identity at distinct slots.
        assert_eq!(emu.mem.read_i32_slice(0x3000, 4), vec![100, 101, 102, 103]);
    }
}
