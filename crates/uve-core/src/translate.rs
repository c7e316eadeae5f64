//! Basic-block translation cache for the functional emulator.
//!
//! The interpreter re-decodes operand fields and walks a 60-arm `match` for
//! every dynamic instruction. Since program text is immutable (there is no
//! store-to-code path in the ISA), each *static* basic block can instead be
//! lowered once into a flat array of pre-resolved [`FlatOp`]s
//! ([`uve_isa::flat`]) and executed straight-line. The cache is keyed by
//! block start PC and owned per [`Emulator`](crate::Emulator), so budgeted
//! [`resume`](crate::Emulator::resume) slices, `uve-smp` context switches
//! and [`StreamFaultPlan`](crate::StreamFaultPlan) rollback all work
//! unchanged — a slice boundary or fault simply re-enters the loop at an
//! arbitrary PC, for which a (possibly overlapping) block is translated on
//! demand.
//!
//! Translations are never invalidated. The only way a cached block could go
//! stale is running a *different* program on the same emulator, which
//! [`TranslationCache::ensure_program`] detects by fingerprinting the
//! program's name and instruction words and clearing the cache on mismatch.

use uve_isa::{flat, FlatOp, Inst, Program};

/// Execution strategy for the emulator ([`EmuConfig::exec`](crate::EmuConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Decode-dispatch interpretation of one instruction at a time — the
    /// reference semantics (and the oracle the `exec` conformance engine
    /// diffs against).
    #[default]
    Interpret,
    /// Basic-block translation: each static block is lowered once to flat
    /// pre-resolved ops and executed straight-line, bit-identical to the
    /// interpreter (traces, `arch_digest`, fault recovery and all).
    Translated,
}

/// One translated straight-line block.
///
/// `flats` and `insts` are parallel arrays: the pre-resolved [`FlatOp`]s the
/// fast path iterates (kept dense so the dispatch loop touches nothing
/// else), and the original [`Inst`]s the executor falls back to the
/// interpreter with (stream operands, trace recording, fault recovery)
/// without a second fetch. A block extends from `start_pc` up to and
/// including the first branch, or up to (excluding) `halt` / the end of the
/// program; `halt` is retired by the dispatch loop itself, never as a block
/// op.
#[derive(Debug)]
pub struct Block {
    /// PC of the first instruction in the block.
    pub start_pc: u32,
    /// Pre-resolved ops; op `i` sits at `start_pc + i`.
    pub flats: Vec<FlatOp>,
    /// The matching source instructions, for per-instruction fallback.
    pub insts: Vec<Inst>,
    /// Set when every op before the last is [`FlatOp::is_simple`] —
    /// infallible, non-redirecting, scalar-only: those ops, with adjacent
    /// pairs fused into superinstructions ([`FlatOp::AddI2`],
    /// [`FlatOp::FldW2`], [`FlatOp::FstWAddI`]). The executor then runs
    /// the body with no per-instruction control-flow or error machinery
    /// (only the final op of a block can branch, by construction).
    pub body: Option<Vec<FlatOp>>,
}

/// Fuses adjacent pairs of `ops` (all simple) into superinstructions,
/// greedily from the front. Fused ops run in program order, so fusion
/// needs no dependence check.
fn fuse_body(ops: &[FlatOp]) -> Vec<FlatOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        match ops.get(i + 1).and_then(|&next| fuse_pair(ops[i], next)) {
            Some(op) => {
                out.push(op);
                i += 2;
            }
            None => {
                out.push(ops[i]);
                i += 1;
            }
        }
    }
    out
}

/// The superinstruction for `a` then `b`, if there is one (immediates and
/// offsets must fit its 32-bit fields).
fn fuse_pair(a: FlatOp, b: FlatOp) -> Option<FlatOp> {
    use uve_isa::{AluOp, ElemWidth};
    match (a, b) {
        (
            FlatOp::AluImm {
                op: AluOp::Add,
                rd: rd0,
                rs1: rs0,
                imm: imm0,
            },
            FlatOp::AluImm {
                op: AluOp::Add,
                rd: rd1,
                rs1: rs1_,
                imm: imm1,
            },
        ) => Some(FlatOp::AddI2 {
            rd: [rd0, rd1],
            rs1: [rs0, rs1_],
            imm: [i32::try_from(imm0).ok()?, i32::try_from(imm1).ok()?],
        }),
        (
            FlatOp::Fld {
                fd: fd0,
                base: b0,
                off: o0,
                width: ElemWidth::Word,
            },
            FlatOp::Fld {
                fd: fd1,
                base: b1,
                off: o1,
                width: ElemWidth::Word,
            },
        ) => Some(FlatOp::FldW2 {
            fd: [fd0, fd1],
            base: [b0, b1],
            off: [i32::try_from(o0).ok()?, i32::try_from(o1).ok()?],
        }),
        (
            FlatOp::Fst {
                src,
                base,
                off,
                width: ElemWidth::Word,
            },
            FlatOp::AluImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm,
            },
        ) => Some(FlatOp::FstWAddI {
            src,
            base,
            off: i32::try_from(off).ok()?,
            rd,
            rs1,
            imm: i32::try_from(imm).ok()?,
        }),
        _ => None,
    }
}

/// Per-emulator cache of translated blocks, indexed by block start PC.
///
/// The program's PCs are small dense integers, so the cache is a flat
/// `Vec` — a block lookup on the hot path is one bounds-checked index, not
/// a hash. Blocks may overlap: resuming mid-block (slice boundary, branch
/// into the middle of a previously translated region) just translates a
/// fresh block starting at that PC. Static code makes this cheap and
/// sound — both copies decode identically forever.
#[derive(Debug, Default)]
pub struct TranslationCache {
    fingerprint: u64,
    primed: bool,
    blocks: Vec<Option<Box<Block>>>,
}

impl TranslationCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct blocks translated so far.
    pub fn len(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    /// True when no blocks have been translated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-keys the cache to `program`, clearing it if a different program
    /// was translated previously (same `Emulator` reused across programs).
    pub fn ensure_program(&mut self, program: &Program) {
        let fp = fingerprint(program);
        if !self.primed || self.fingerprint != fp {
            self.blocks.clear();
            self.blocks.resize_with(program.len(), || None);
            self.fingerprint = fp;
            self.primed = true;
        }
    }

    /// The block starting at `pc`, translating it on first use. Returns
    /// `None` only when `pc` has no executable body: out of range, or
    /// pointing at `halt` (which the dispatch loop retires itself).
    #[inline]
    pub fn block_at(&mut self, program: &Program, pc: u32) -> Option<&Block> {
        let slot = self.blocks.get_mut(pc as usize)?;
        if slot.is_none() {
            *slot = Some(Box::new(translate_block(program, pc)?));
        }
        slot.as_deref()
    }
}

/// Fingerprint of a program's identity: its name folded into the
/// canonical instruction-word fingerprint
/// ([`crate::fingerprint::program_fingerprint`]). The cache is a
/// per-emulator private detail, but sharing the service's build-stable
/// fingerprint means there is exactly one notion of program identity in
/// the tree. Collisions would need two different programs colliding under
/// FNV-1a — ignored, as programs in one process come from the same
/// builder.
fn fingerprint(program: &Program) -> u64 {
    let mut h = crate::fingerprint::program_fingerprint(program);
    for &b in program.name().as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Translates the straight-line block starting at `pc`: instructions are
/// lowered in order until the first branch (included — it decides the
/// successor at run time) or `halt` / end of program (excluded). Returns
/// `None` for an empty body (`pc` at `halt` or out of range).
fn translate_block(program: &Program, pc: u32) -> Option<Block> {
    let mut flats = Vec::new();
    let mut insts = Vec::new();
    let mut cur = pc;
    while let Some(inst) = program.fetch(cur) {
        if inst == Inst::Halt {
            break;
        }
        let is_branch = inst.is_branch();
        flats.push(flat::lower(&inst));
        insts.push(inst);
        cur += 1;
        if is_branch {
            break;
        }
    }
    if flats.is_empty() {
        return None;
    }
    let head = &flats[..flats.len() - 1];
    let body = head.iter().all(FlatOp::is_simple).then(|| fuse_body(head));
    Some(Block {
        start_pc: pc,
        flats,
        insts,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_isa::assemble;

    fn prog(text: &str) -> Program {
        assemble("t", text).expect("assembles")
    }

    #[test]
    fn blocks_split_at_branches_and_halt() {
        let p = prog(
            "
    li x10, 0
    li x11, 10
loop:
    addi x10, x10, 1
    bne x10, x11, loop
    halt
",
        );
        let entry = translate_block(&p, 0).unwrap();
        // li, li, addi, bne — the branch terminates the block, halt is
        // excluded.
        assert_eq!(entry.flats.len(), 4);
        assert!(matches!(entry.insts[3], Inst::Branch { .. }));
        let body = translate_block(&p, 2).unwrap();
        assert_eq!(body.start_pc, 2);
        assert_eq!(body.flats.len(), 2);
        // A PC at halt or past the end has no block.
        assert!(translate_block(&p, 4).is_none());
        assert!(translate_block(&p, 99).is_none());
    }

    #[test]
    fn simple_bodies_fuse_adjacent_pairs() {
        let p = prog(
            "
loop:
    fld.w f1, 0(x12)
    fld.w f2, 0(x14)
    fadd.w f1, f1, f2
    fst.w f1, 0(x13)
    addi x12, x12, 4
    addi x13, x13, 4
    addi x14, x14, 4
    addi x10, x10, -1
    bne x10, x0, loop
    halt
",
        );
        let b = translate_block(&p, 0).unwrap();
        assert_eq!(b.flats.len(), 9, "flats keep one op per instruction");
        let body = b.body.as_ref().expect("all-simple body");
        assert!(matches!(body[0], FlatOp::FldW2 { fd: [1, 2], .. }));
        assert!(matches!(body[1], FlatOp::FAlu { .. }));
        assert!(matches!(
            body[2],
            FlatOp::FstWAddI {
                src: 1,
                base: 13,
                rd: 12,
                imm: 4,
                ..
            }
        ));
        assert!(matches!(
            body[3],
            FlatOp::AddI2 {
                rd: [13, 14],
                imm: [4, 4],
                ..
            }
        ));
        assert!(matches!(
            body[4],
            FlatOp::AluImm {
                rd: 10,
                imm: -1,
                ..
            }
        ));
        assert_eq!(body.len(), 5);
    }

    #[test]
    fn cache_rekeys_on_program_change() {
        let p1 = prog("li x10, 1\nhalt");
        let p2 = prog("li x10, 2\nhalt");
        let mut cache = TranslationCache::new();
        cache.ensure_program(&p1);
        assert!(cache.block_at(&p1, 0).is_some());
        assert_eq!(cache.len(), 1);
        cache.ensure_program(&p1);
        assert_eq!(cache.len(), 1, "same program keeps the cache");
        cache.ensure_program(&p2);
        assert!(cache.is_empty(), "different program clears the cache");
        let b = cache.block_at(&p2, 0).unwrap();
        assert!(matches!(
            b.flats[0],
            uve_isa::FlatOp::AluImm { imm: 2, .. } | uve_isa::FlatOp::Li { .. }
        ));
    }

    #[test]
    fn overlapping_blocks_decode_identically() {
        let p = prog(
            "
    addi x10, x10, 1
    addi x10, x10, 2
    addi x10, x10, 3
    halt
",
        );
        let full = translate_block(&p, 0).unwrap();
        let tail = translate_block(&p, 1).unwrap();
        assert_eq!(full.flats.len(), 3);
        assert_eq!(tail.flats.len(), 2);
        assert_eq!(full.flats[1], tail.flats[0]);
        assert_eq!(full.flats[2], tail.flats[1]);
        assert_eq!(full.insts[1], tail.insts[0]);
    }
}
