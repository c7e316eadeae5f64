//! Dynamic instruction traces: the bridge between the functional emulator
//! and the out-of-order timing model.
//!
//! The emulator executes a program with full ISA semantics and records, per
//! dynamic instruction, everything the timing model needs: register
//! dependencies, touched cache lines, branch outcomes, and — for stream
//! operations — which *chunk* of which stream instance was consumed or
//! produced. Per-stream side tables ([`StreamTrace`]) describe the exact
//! line-request sequence of every chunk, so the timing Streaming Engine can
//! replay the paper's address-generator behaviour (one line request per
//! cycle, one extra cycle per descriptor-dimension switch, same-line
//! coalescing) without re-walking descriptors.

use uve_isa::{DestRegs, Dir, ElemWidth, ExecClass, MemLevel, SrcRegs};
use uve_mem::LINE_BYTES;

/// Identifier of a dynamic stream instance (one per completed stream
/// configuration; a register reconfigured `n` times yields `n` instances).
pub type StreamInstance = u32;

/// Metadata of one vector-register-sized stream chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Cache-line addresses backing the chunk, in first-touch order and
    /// deduplicated for consecutive repeats (the engine's request
    /// coalescing). Includes lines read by indirection origins.
    pub lines: Vec<u64>,
    /// Descriptor-dimension switches performed while generating the chunk.
    pub dim_switches: u32,
    /// Valid elements in the chunk.
    pub valid: u32,
}

/// Per-instance stream description recorded by the emulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamTrace {
    /// Architectural register the stream was bound to (`u0`–`u31`).
    pub u: u8,
    /// Input (load) or output (store).
    pub dir: Dir,
    /// Memory level the stream was directed at.
    pub level: MemLevel,
    /// Element width.
    pub width: ElemWidth,
    /// The chunk sequence, in consumption/production order.
    pub chunks: Vec<ChunkMeta>,
    /// Number of configuration instructions used (SCROB occupancy).
    pub cfg_insts: u32,
}

impl StreamTrace {
    /// Total elements transferred by this stream.
    pub fn elements(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.valid)).sum()
    }

    /// Total line requests issued by this stream.
    pub fn line_requests(&self) -> u64 {
        self.chunks.iter().map(|c| c.lines.len() as u64).sum()
    }
}

/// Branch outcome of a dynamic control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the branch was taken.
    pub taken: bool,
    /// The next PC actually followed.
    pub next_pc: u32,
}

/// One stream chunk an op consumed or produced: `(instance, chunk index)`.
pub type StreamRef = (StreamInstance, u32);

/// An op's run of entries in one of its [`Trace`]'s pools: `len` entries
/// from `start`. Packed to five bytes so that three spans fit a 64-byte
/// [`TraceOp`]; one op touches at most `2 × MAX_LANES` lines (a gather of
/// line-straddling elements), well inside the `u8` length.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(C, packed)]
pub struct Span {
    start: u32,
    len: u8,
}

impl Span {
    /// Entries in the span.
    pub fn len(self) -> usize {
        usize::from(self.len)
    }

    /// `true` if the span is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Pool slots the span owns: its length. Size accounting that sums
    /// `capacity() × element size` over an op's fields (as for `Vec`
    /// fields) thus counts the op's share of the pools.
    pub fn capacity(self) -> usize {
        self.len()
    }

    /// The span's entries in `pool`.
    ///
    /// # Panics
    ///
    /// Panics if the span lies outside `pool` (a span taken from another
    /// trace).
    fn of<T>(self, pool: &[T]) -> &[T] {
        let start = self.start as usize;
        &pool[start..start + self.len()]
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (start, len) = (self.start, self.len);
        write!(f, "{start}+{len}")
    }
}

/// An `Option<StreamInstance>` in four bytes instead of eight
/// (`u32::MAX` is "none"; a trace never holds that many instances).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceSlot(u32);

impl InstanceSlot {
    /// No instance.
    pub const NONE: Self = Self(u32::MAX);

    /// The instance in the slot, if any.
    pub fn get(self) -> Option<StreamInstance> {
        (self != Self::NONE).then_some(self.0)
    }
}

impl From<Option<StreamInstance>> for InstanceSlot {
    fn from(inst: Option<StreamInstance>) -> Self {
        match inst {
            Some(i) => {
                assert_ne!(i, u32::MAX, "stream instance id out of range");
                Self(i)
            }
            None => Self::NONE,
        }
    }
}

impl std::fmt::Debug for InstanceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// One dynamic instruction: a fixed-size record that owns no heap memory.
/// Its variable-length parts live in its [`Trace`]'s pools, named by
/// [`Span`]s; read them through [`Trace::mem_lines`],
/// [`Trace::stream_reads`] and [`Trace::stream_writes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Static instruction index.
    pub pc: u32,
    /// Execution resource class.
    pub exec: ExecClass,
    /// Source registers, stream registers excluded (the timing model
    /// tracks stream operands through the FIFO readiness interface and
    /// `stream_reads` instead of the register file).
    pub srcs: SrcRegs,
    /// Destination registers, output-stream registers excluded.
    pub dests: DestRegs,
    /// Cache lines touched by an explicit (non-stream) memory access, in
    /// the trace's line pool.
    pub mem_lines: Span,
    /// First byte address of the access (prefetcher training key uses
    /// `pc`).
    pub mem_addr: u64,
    /// `true` if the explicit access is a store.
    pub is_store: bool,
    /// Branch outcome, for control-transfer instructions.
    pub branch: Option<BranchOutcome>,
    /// Stream chunks consumed, in the trace's stream-ref pool.
    pub stream_reads: Span,
    /// Stream chunks produced, in the trace's stream-ref pool.
    pub stream_writes: Span,
    /// Stream instance whose configuration this instruction *completes*.
    pub stream_open: InstanceSlot,
    /// Stream instance terminated by this instruction (explicit stop or
    /// completion-signalling consumption).
    pub stream_close: InstanceSlot,
    /// Precise stream faults this instruction trapped on before finally
    /// executing (each one cost a handler round trip; the timing model
    /// charges `fault_trap_penalty` per fault). The emulator gives up
    /// after 4096 retries, so sixteen bits hold any count.
    pub stream_faults: u16,
}

impl TraceOp {
    /// Creates a bare trace op for instruction `pc` of class `exec`.
    pub fn new(pc: u32, exec: ExecClass) -> Self {
        Self {
            pc,
            exec,
            srcs: SrcRegs::new(),
            dests: DestRegs::new(),
            mem_lines: Span::default(),
            mem_addr: 0,
            is_store: false,
            branch: None,
            stream_reads: Span::default(),
            stream_writes: Span::default(),
            stream_open: InstanceSlot::NONE,
            stream_close: InstanceSlot::NONE,
            stream_faults: 0,
        }
    }
}

/// A complete dynamic trace: fixed-size ops plus the trace-wide pools
/// their spans point into.
///
/// Pool entries are appended in op order, so each non-empty span starts
/// where the previous one in the same pool ended (an empty span's start is
/// meaningless). A rollback ([`Trace::mark`], [`Trace::rollback`])
/// truncates ops and pools together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Dynamic instructions in program order.
    pub ops: Vec<TraceOp>,
    /// Stream instance side tables.
    pub streams: Vec<StreamTrace>,
    /// Line pool: every op's `mem_lines`.
    pub lines: Vec<u64>,
    /// Stream-ref pool: every op's `stream_reads` and `stream_writes`.
    pub stream_refs: Vec<StreamRef>,
}

/// The lengths of a [`Trace`] at one point, to roll a faulting
/// instruction's partial recording back to.
#[derive(Debug, Clone)]
pub(crate) struct TraceMark {
    ops: usize,
    streams: usize,
    lines: usize,
    stream_refs: usize,
    chunks: Vec<usize>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of dynamic (committed) instructions.
    pub fn committed(&self) -> u64 {
        self.ops.len() as u64
    }

    /// `op`'s explicit-access cache lines.
    pub fn mem_lines(&self, op: &TraceOp) -> &[u64] {
        op.mem_lines.of(&self.lines)
    }

    /// `op`'s consumed stream chunks.
    pub fn stream_reads(&self, op: &TraceOp) -> &[StreamRef] {
        op.stream_reads.of(&self.stream_refs)
    }

    /// `op`'s produced stream chunks.
    pub fn stream_writes(&self, op: &TraceOp) -> &[StreamRef] {
        op.stream_writes.of(&self.stream_refs)
    }

    /// Appends `lines` to the line pool and returns their span.
    ///
    /// # Panics
    ///
    /// Panics if `lines` holds more than 255 entries or the pool outgrows
    /// `u32` indices.
    pub fn push_lines(&mut self, lines: &[u64]) -> Span {
        push_span(&mut self.lines, lines)
    }

    /// Appends the cache lines of a `bytes`-byte access at `addr` to the
    /// line pool, skipping a repeat of the last line appended since the
    /// pool held `since` entries (the start of the current op's run).
    pub(crate) fn push_access_lines(&mut self, since: usize, addr: u64, bytes: u64) {
        let first = addr / LINE_BYTES;
        let last = (addr + bytes - 1) / LINE_BYTES;
        for l in first..=last {
            if self.lines.len() == since || self.lines.last() != Some(&l) {
                self.lines.push(l);
            }
        }
    }

    /// The span of the line-pool entries appended since the pool held
    /// `start` entries.
    ///
    /// # Panics
    ///
    /// As [`push_lines`](Self::push_lines).
    pub(crate) fn lines_since(&self, start: usize) -> Span {
        span_of(start, self.lines.len() - start)
    }

    /// Appends `refs` to the stream-ref pool and returns their span.
    ///
    /// # Panics
    ///
    /// As [`push_lines`](Self::push_lines).
    pub fn push_stream_refs(&mut self, refs: &[StreamRef]) -> Span {
        push_span(&mut self.stream_refs, refs)
    }

    /// Records the current lengths of the ops, the stream tables, every
    /// stream's chunk list and the pools.
    pub(crate) fn mark(&self) -> TraceMark {
        TraceMark {
            ops: self.ops.len(),
            streams: self.streams.len(),
            lines: self.lines.len(),
            stream_refs: self.stream_refs.len(),
            chunks: self.streams.iter().map(|s| s.chunks.len()).collect(),
        }
    }

    /// Truncates everything recorded since `mark` (ops, stream instances,
    /// chunks and pool entries).
    pub(crate) fn rollback(&mut self, mark: &TraceMark) {
        self.ops.truncate(mark.ops);
        self.streams.truncate(mark.streams);
        for (s, &len) in self.streams.iter_mut().zip(&mark.chunks) {
            s.chunks.truncate(len);
        }
        self.lines.truncate(mark.lines);
        self.stream_refs.truncate(mark.stream_refs);
    }

    /// Releases spare capacity: a finished trace keeps exactly what it
    /// holds.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        self.streams.shrink_to_fit();
        self.lines.shrink_to_fit();
        self.stream_refs.shrink_to_fit();
    }

    /// Heap bytes the trace holds: the ops, the pools and the stream side
    /// tables with their chunk line lists, counted by allocated capacity.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let chunks: usize = self
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
        (self.ops.capacity() * size_of::<TraceOp>()
            + self.lines.capacity() * size_of::<u64>()
            + self.stream_refs.capacity() * size_of::<StreamRef>()
            + self.streams.capacity() * size_of::<StreamTrace>()
            + chunks) as u64
    }

    /// Committed instructions per execution class.
    pub fn class_histogram(&self) -> Vec<(ExecClass, u64)> {
        let mut map: Vec<(ExecClass, u64)> = Vec::new();
        for op in &self.ops {
            match map.iter_mut().find(|(c, _)| *c == op.exec) {
                Some((_, n)) => *n += 1,
                None => map.push((op.exec, 1)),
            }
        }
        map
    }

    /// Total dynamic branches and how many were taken.
    pub fn branch_profile(&self) -> (u64, u64) {
        let mut total = 0;
        let mut taken = 0;
        for op in &self.ops {
            if let Some(b) = op.branch {
                total += 1;
                taken += u64::from(b.taken);
            }
        }
        (total, taken)
    }
}

fn push_span<T: Copy>(pool: &mut Vec<T>, items: &[T]) -> Span {
    let span = span_of(pool.len(), items.len());
    pool.extend_from_slice(items);
    span
}

/// The span of `len` pool entries from `start` (the default span if empty).
fn span_of(start: usize, len: usize) -> Span {
    if len == 0 {
        return Span::default();
    }
    Span {
        start: u32::try_from(start).expect("trace pool outgrew u32 indices"),
        len: u8::try_from(len).expect("more than 255 pool entries for one op"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts() {
        let mut t = Trace::new();
        t.ops.push(TraceOp::new(0, ExecClass::IntAlu));
        t.ops.push(TraceOp::new(1, ExecClass::IntAlu));
        t.ops.push(TraceOp::new(2, ExecClass::Branch));
        let h = t.class_histogram();
        assert!(h.contains(&(ExecClass::IntAlu, 2)));
        assert!(h.contains(&(ExecClass::Branch, 1)));
        assert_eq!(t.committed(), 3);
    }

    #[test]
    fn stream_trace_totals() {
        let s = StreamTrace {
            u: 0,
            dir: Dir::Load,
            level: MemLevel::L2,
            width: ElemWidth::Word,
            chunks: vec![
                ChunkMeta {
                    lines: vec![1, 2],
                    dim_switches: 0,
                    valid: 16,
                },
                ChunkMeta {
                    lines: vec![3],
                    dim_switches: 1,
                    valid: 4,
                },
            ],
            cfg_insts: 1,
        };
        assert_eq!(s.elements(), 20);
        assert_eq!(s.line_requests(), 3);
    }

    #[test]
    fn ops_are_fixed_size_records() {
        assert!(std::mem::size_of::<TraceOp>() <= 64);
        assert_eq!(std::mem::size_of::<Span>(), 5);
        assert_eq!(std::mem::size_of::<InstanceSlot>(), 4);
    }

    #[test]
    fn spans_index_the_pools() {
        let mut t = Trace::new();
        let mut a = TraceOp::new(0, ExecClass::Load);
        a.mem_lines = t.push_lines(&[7, 8]);
        t.ops.push(a);
        let mut b = TraceOp::new(1, ExecClass::VecInt);
        b.stream_reads = t.push_stream_refs(&[(0, 0), (1, 0)]);
        b.stream_writes = t.push_stream_refs(&[(2, 5)]);
        t.ops.push(b);
        assert_eq!(t.mem_lines(&t.ops[0]), &[7, 8]);
        assert!(t.mem_lines(&t.ops[1]).is_empty());
        assert_eq!(t.stream_reads(&t.ops[1]), &[(0, 0), (1, 0)]);
        assert_eq!(t.stream_writes(&t.ops[1]), &[(2, 5)]);
        assert_eq!(t.ops[1].stream_reads.capacity(), 2);
        assert_eq!(format!("{:?}", t.ops[1].stream_writes), "2+1");
    }

    #[test]
    fn rollback_truncates_ops_pools_and_chunks() {
        let mut t = Trace::new();
        t.streams.push(StreamTrace {
            u: 0,
            dir: Dir::Load,
            level: MemLevel::L2,
            width: ElemWidth::Word,
            chunks: Vec::new(),
            cfg_insts: 1,
        });
        let mut op = TraceOp::new(0, ExecClass::Load);
        op.mem_lines = t.push_lines(&[1]);
        t.ops.push(op);
        let clean = t.clone();
        let mark = t.mark();
        t.streams[0].chunks.push(ChunkMeta {
            lines: vec![9],
            dim_switches: 0,
            valid: 1,
        });
        let mut op = TraceOp::new(1, ExecClass::VecInt);
        op.mem_lines = t.push_lines(&[2, 3]);
        op.stream_reads = t.push_stream_refs(&[(0, 0)]);
        t.ops.push(op);
        t.rollback(&mark);
        assert_eq!(t, clean);
    }

    #[test]
    fn heap_bytes_counts_ops_and_pools() {
        let mut t = Trace::new();
        let mut op = TraceOp::new(0, ExecClass::Load);
        op.mem_lines = t.push_lines(&[1, 2, 3]);
        t.ops.push(op);
        t.stream_refs.push((0, 0));
        t.shrink_to_fit();
        let want = std::mem::size_of::<TraceOp>() + 3 * 8 + 8;
        assert_eq!(t.heap_bytes(), want as u64);
    }

    #[test]
    fn instance_slot_round_trips() {
        assert_eq!(InstanceSlot::from(Some(3)).get(), Some(3));
        assert_eq!(InstanceSlot::from(None).get(), None);
        assert_eq!(format!("{:?}", InstanceSlot::from(Some(3))), "Some(3)");
    }

    #[test]
    fn branch_profile() {
        let mut t = Trace::new();
        let mut b = TraceOp::new(0, ExecClass::Branch);
        b.branch = Some(BranchOutcome {
            taken: true,
            next_pc: 5,
        });
        t.ops.push(b);
        b.branch = Some(BranchOutcome {
            taken: false,
            next_pc: 1,
        });
        t.ops.push(b);
        assert_eq!(t.branch_profile(), (2, 1));
    }
}
