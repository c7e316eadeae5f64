//! Decoded-instruction → flat-op lowering for the basic-block translation
//! cache (`uve-core`'s `translate` module).
//!
//! A [`FlatOp`] is one [`Inst`] with every operand pre-resolved at
//! translation time: register operands become direct array indices,
//! immediates are pre-sign-extended (and pre-shifted for `lui`), and branch
//! targets are absolute instruction indices ready to jump to. The executor
//! therefore dispatches on a flat, cache-friendly enum without re-decoding
//! operand fields on every dynamic instruction.
//!
//! Lowering is total but conservative: instructions whose semantics depend
//! on mutable stream-unit state in ways a static translation cannot
//! pre-resolve (stream configuration, stream control, lane extraction with
//! its ordered error checks) lower to [`FlatOp::Fallback`] and execute on
//! the interpreter path. Vector ops *are* lowered — whether an operand is a
//! bound stream is re-checked cheaply at execution time, because stream
//! bindings are machine state, not program text.

use crate::inst::{
    AluOp, BrCond, DupSrc, FpOp, FpUnOp, HorizOp, Inst, PredCond, PredOp, StreamCond, VCmpOp, VOp,
    VType, VUnOp,
};
use crate::reg::VReg;
use uve_stream::ElemWidth;

/// One pre-resolved operation of a translated basic block.
///
/// Scalar register operands are raw indices into the emulator's register
/// files (`x`/`f`/`p`); vector operands keep their [`VReg`] so the executor
/// can probe the stream unit. Immediates are fully sign-extended;
/// `Lui::imm` is pre-shifted. Branch `target`s are absolute instruction
/// indices (the translation layer resolves them to block entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // fields mirror the documented `Inst` variants
pub enum FlatOp {
    // ---- scalar ----
    Alu {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    AluImm {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    /// `rd = imm` with the `<< 12` already applied.
    Li {
        rd: u8,
        imm: i64,
    },
    Ld {
        rd: u8,
        base: u8,
        off: i64,
        width: ElemWidth,
    },
    St {
        src: u8,
        base: u8,
        off: i64,
        width: ElemWidth,
    },
    Fld {
        fd: u8,
        base: u8,
        off: i64,
        width: ElemWidth,
    },
    Fst {
        src: u8,
        base: u8,
        off: i64,
        width: ElemWidth,
    },
    FAlu {
        op: FpOp,
        width: ElemWidth,
        fd: u8,
        fs1: u8,
        fs2: u8,
    },
    FMac {
        width: ElemWidth,
        fd: u8,
        fs1: u8,
        fs2: u8,
        fs3: u8,
    },
    FUn {
        op: FpUnOp,
        width: ElemWidth,
        fd: u8,
        fs: u8,
    },
    FMvXF {
        rd: u8,
        fs: u8,
    },
    FMvFX {
        fd: u8,
        rs: u8,
    },
    FCvtFX {
        width: ElemWidth,
        fd: u8,
        rs: u8,
    },
    FCvtXF {
        rd: u8,
        fs: u8,
    },
    Branch {
        cond: BrCond,
        rs1: u8,
        rs2: u8,
        target: u32,
    },
    Jal {
        rd: u8,
        target: u32,
    },
    Nop,

    // ---- vector length & predicates ----
    SsGetVl {
        rd: u8,
        width: ElemWidth,
    },
    SsSetVl {
        rd: u8,
        rs: u8,
        width: ElemWidth,
    },
    IncVl {
        rd: u8,
        width: ElemWidth,
    },
    CntVl {
        rd: u8,
        width: ElemWidth,
    },
    WhileLt {
        pd: u8,
        rs1: u8,
        rs2: u8,
        width: ElemWidth,
    },
    PredAlu {
        op: PredOp,
        pd: u8,
        ps1: u8,
        ps2: u8,
    },
    BrPred {
        cond: PredCond,
        p: u8,
        target: u32,
    },

    // ---- stream-conditional branch ----
    SsBranch {
        cond: StreamCond,
        u: VReg,
        target: u32,
    },

    // ---- vector data processing (stream-ness re-checked at runtime) ----
    VDup {
        vd: VReg,
        src: DupSrc,
        width: ElemWidth,
        ty: VType,
    },
    VMv {
        vd: VReg,
        vs: VReg,
    },
    VUn {
        op: VUnOp,
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs: VReg,
        pred: u8,
    },
    VArith {
        op: VOp,
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs1: VReg,
        vs2: VReg,
        pred: u8,
    },
    VArithVS {
        op: VOp,
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs1: VReg,
        scalar: DupSrc,
        pred: u8,
    },
    VMac {
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs1: VReg,
        vs2: VReg,
        pred: u8,
    },
    VMacVS {
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs1: VReg,
        scalar: DupSrc,
        pred: u8,
    },
    VRed {
        op: HorizOp,
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs: VReg,
        pred: u8,
    },
    VCmp {
        op: VCmpOp,
        ty: VType,
        width: ElemWidth,
        pd: u8,
        vs1: VReg,
        vs2: VReg,
    },
    PredFromValid {
        pd: u8,
        vs: VReg,
    },
    VLoad {
        vd: VReg,
        base: u8,
        index: u8,
        width: ElemWidth,
        pred: u8,
    },
    VStore {
        vs: VReg,
        base: u8,
        index: u8,
        width: ElemWidth,
        pred: u8,
    },
    VGather {
        vd: VReg,
        base: u8,
        idx: VReg,
        width: ElemWidth,
        pred: u8,
    },
    VScatter {
        vs: VReg,
        base: u8,
        idx: VReg,
        width: ElemWidth,
        pred: u8,
    },
    VLoadPost {
        vd: VReg,
        base: u8,
        width: ElemWidth,
        pred: u8,
    },
    VStorePost {
        vs: VReg,
        base: u8,
        width: ElemWidth,
        pred: u8,
    },

    /// Execute through the interpreter's `step` (stream configuration and
    /// control, lane extraction, `halt` reached mid-lowering).
    Fallback,

    // ---- superinstructions: never produced by [`lower`] ----
    /// Two adjacent `addi`s, run in order. Block translation fuses these
    /// in straight-line bodies so a pair costs one dispatch.
    AddI2 {
        rd: [u8; 2],
        rs1: [u8; 2],
        imm: [i32; 2],
    },
    /// Two adjacent 32-bit float loads (`fld.w`), run in order; fused like
    /// [`FlatOp::AddI2`].
    FldW2 {
        fd: [u8; 2],
        base: [u8; 2],
        off: [i32; 2],
    },
    /// A 32-bit float store (`fst.w`) then an `addi`, run in order; fused
    /// like [`FlatOp::AddI2`].
    FstWAddI {
        src: u8,
        base: u8,
        off: i32,
        rd: u8,
        rs1: u8,
        imm: i32,
    },
}

impl FlatOp {
    /// True for ops that are *simple*: they touch only scalar machine state
    /// (integer/float/predicate registers, `vl`, plain memory), can never
    /// fail, never redirect control, and never consult the stream unit. A
    /// translated block whose body (all ops before the last) is simple can
    /// be executed straight-line with no per-instruction control-flow or
    /// error machinery at all — only the final op of a block can branch by
    /// construction.
    #[must_use]
    pub fn is_simple(&self) -> bool {
        matches!(
            self,
            FlatOp::Alu { .. }
                | FlatOp::AluImm { .. }
                | FlatOp::Li { .. }
                | FlatOp::Ld { .. }
                | FlatOp::St { .. }
                | FlatOp::Fld { .. }
                | FlatOp::Fst { .. }
                | FlatOp::FAlu { .. }
                | FlatOp::FMac { .. }
                | FlatOp::FUn { .. }
                | FlatOp::FMvXF { .. }
                | FlatOp::FMvFX { .. }
                | FlatOp::FCvtFX { .. }
                | FlatOp::FCvtXF { .. }
                | FlatOp::Nop
                | FlatOp::SsGetVl { .. }
                | FlatOp::SsSetVl { .. }
                | FlatOp::IncVl { .. }
                | FlatOp::CntVl { .. }
                | FlatOp::WhileLt { .. }
                | FlatOp::PredAlu { .. }
                | FlatOp::AddI2 { .. }
                | FlatOp::FldW2 { .. }
                | FlatOp::FstWAddI { .. }
        )
    }
}

/// Lowers one decoded instruction to its flat pre-resolved form.
///
/// Never fails: anything without a specialized flat form (the `ss.*`
/// configuration/control group and lane extraction) lowers to
/// [`FlatOp::Fallback`].
#[must_use]
pub fn lower(inst: &Inst) -> FlatOp {
    #[allow(clippy::cast_possible_truncation)] // register indices are < 32
    fn r(i: usize) -> u8 {
        i as u8
    }
    match *inst {
        Inst::Alu { op, rd, rs1, rs2 } => FlatOp::Alu {
            op,
            rd: r(rd.index()),
            rs1: r(rs1.index()),
            rs2: r(rs2.index()),
        },
        Inst::AluImm { op, rd, rs1, imm } => FlatOp::AluImm {
            op,
            rd: r(rd.index()),
            rs1: r(rs1.index()),
            imm: i64::from(imm),
        },
        Inst::Lui { rd, imm } => FlatOp::Li {
            rd: r(rd.index()),
            imm: i64::from(imm) << 12,
        },
        Inst::Ld {
            rd,
            base,
            off,
            width,
        } => FlatOp::Ld {
            rd: r(rd.index()),
            base: r(base.index()),
            off: i64::from(off),
            width,
        },
        Inst::St {
            src,
            base,
            off,
            width,
        } => FlatOp::St {
            src: r(src.index()),
            base: r(base.index()),
            off: i64::from(off),
            width,
        },
        Inst::Fld {
            fd,
            base,
            off,
            width,
        } => FlatOp::Fld {
            fd: r(fd.index()),
            base: r(base.index()),
            off: i64::from(off),
            width,
        },
        Inst::Fst {
            src,
            base,
            off,
            width,
        } => FlatOp::Fst {
            src: r(src.index()),
            base: r(base.index()),
            off: i64::from(off),
            width,
        },
        Inst::FAlu {
            op,
            width,
            fd,
            fs1,
            fs2,
        } => FlatOp::FAlu {
            op,
            width,
            fd: r(fd.index()),
            fs1: r(fs1.index()),
            fs2: r(fs2.index()),
        },
        Inst::FMac {
            width,
            fd,
            fs1,
            fs2,
            fs3,
        } => FlatOp::FMac {
            width,
            fd: r(fd.index()),
            fs1: r(fs1.index()),
            fs2: r(fs2.index()),
            fs3: r(fs3.index()),
        },
        Inst::FUn { op, width, fd, fs } => FlatOp::FUn {
            op,
            width,
            fd: r(fd.index()),
            fs: r(fs.index()),
        },
        Inst::FMvXF { rd, fs } => FlatOp::FMvXF {
            rd: r(rd.index()),
            fs: r(fs.index()),
        },
        Inst::FMvFX { fd, rs } => FlatOp::FMvFX {
            fd: r(fd.index()),
            rs: r(rs.index()),
        },
        Inst::FCvtFX { width, fd, rs } => FlatOp::FCvtFX {
            width,
            fd: r(fd.index()),
            rs: r(rs.index()),
        },
        Inst::FCvtXF { width: _, rd, fs } => FlatOp::FCvtXF {
            rd: r(rd.index()),
            fs: r(fs.index()),
        },
        Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => FlatOp::Branch {
            cond,
            rs1: r(rs1.index()),
            rs2: r(rs2.index()),
            target,
        },
        Inst::Jal { rd, target } => FlatOp::Jal {
            rd: r(rd.index()),
            target,
        },
        Inst::Nop => FlatOp::Nop,
        Inst::SsGetVl { rd, width } => FlatOp::SsGetVl {
            rd: r(rd.index()),
            width,
        },
        Inst::SsSetVl { rd, rs, width } => FlatOp::SsSetVl {
            rd: r(rd.index()),
            rs: r(rs.index()),
            width,
        },
        Inst::IncVl { rd, width } => FlatOp::IncVl {
            rd: r(rd.index()),
            width,
        },
        Inst::CntVl { rd, width } => FlatOp::CntVl {
            rd: r(rd.index()),
            width,
        },
        Inst::WhileLt {
            pd,
            rs1,
            rs2,
            width,
        } => FlatOp::WhileLt {
            pd: r(pd.index()),
            rs1: r(rs1.index()),
            rs2: r(rs2.index()),
            width,
        },
        Inst::PredAlu { op, pd, ps1, ps2 } => FlatOp::PredAlu {
            op,
            pd: r(pd.index()),
            ps1: r(ps1.index()),
            ps2: r(ps2.index()),
        },
        Inst::BrPred { cond, p, target } => FlatOp::BrPred {
            cond,
            p: r(p.index()),
            target,
        },
        Inst::SsBranch { cond, u, target } => FlatOp::SsBranch { cond, u, target },
        Inst::VDup { vd, src, width, ty } => FlatOp::VDup { vd, src, width, ty },
        Inst::VMv { vd, vs } => FlatOp::VMv { vd, vs },
        Inst::VUn {
            op,
            ty,
            width,
            vd,
            vs,
            pred,
        } => FlatOp::VUn {
            op,
            ty,
            width,
            vd,
            vs,
            pred: r(pred.index()),
        },
        Inst::VArith {
            op,
            ty,
            width,
            vd,
            vs1,
            vs2,
            pred,
        } => FlatOp::VArith {
            op,
            ty,
            width,
            vd,
            vs1,
            vs2,
            pred: r(pred.index()),
        },
        Inst::VArithVS {
            op,
            ty,
            width,
            vd,
            vs1,
            scalar,
            pred,
        } => FlatOp::VArithVS {
            op,
            ty,
            width,
            vd,
            vs1,
            scalar,
            pred: r(pred.index()),
        },
        Inst::VMac {
            ty,
            width,
            vd,
            vs1,
            vs2,
            pred,
        } => FlatOp::VMac {
            ty,
            width,
            vd,
            vs1,
            vs2,
            pred: r(pred.index()),
        },
        Inst::VMacVS {
            ty,
            width,
            vd,
            vs1,
            scalar,
            pred,
        } => FlatOp::VMacVS {
            ty,
            width,
            vd,
            vs1,
            scalar,
            pred: r(pred.index()),
        },
        Inst::VRed {
            op,
            ty,
            width,
            vd,
            vs,
            pred,
        } => FlatOp::VRed {
            op,
            ty,
            width,
            vd,
            vs,
            pred: r(pred.index()),
        },
        Inst::VCmp {
            op,
            ty,
            width,
            pd,
            vs1,
            vs2,
        } => FlatOp::VCmp {
            op,
            ty,
            width,
            pd: r(pd.index()),
            vs1,
            vs2,
        },
        Inst::PredFromValid { pd, vs } => FlatOp::PredFromValid {
            pd: r(pd.index()),
            vs,
        },
        Inst::VLoad {
            vd,
            base,
            index,
            width,
            pred,
        } => FlatOp::VLoad {
            vd,
            base: r(base.index()),
            index: r(index.index()),
            width,
            pred: r(pred.index()),
        },
        Inst::VStore {
            vs,
            base,
            index,
            width,
            pred,
        } => FlatOp::VStore {
            vs,
            base: r(base.index()),
            index: r(index.index()),
            width,
            pred: r(pred.index()),
        },
        Inst::VGather {
            vd,
            base,
            idx,
            width,
            pred,
        } => FlatOp::VGather {
            vd,
            base: r(base.index()),
            idx,
            width,
            pred: r(pred.index()),
        },
        Inst::VScatter {
            vs,
            base,
            idx,
            width,
            pred,
        } => FlatOp::VScatter {
            vs,
            base: r(base.index()),
            idx,
            width,
            pred: r(pred.index()),
        },
        Inst::VLoadPost {
            vd,
            base,
            width,
            pred,
        } => FlatOp::VLoadPost {
            vd,
            base: r(base.index()),
            width,
            pred: r(pred.index()),
        },
        Inst::VStorePost {
            vs,
            base,
            width,
            pred,
        } => FlatOp::VStorePost {
            vs,
            base: r(base.index()),
            width,
            pred: r(pred.index()),
        },
        // Stream configuration/control mutate stream-unit state the
        // translation cannot pre-resolve; lane extraction keeps the
        // interpreter's error-check ordering; `halt` is a block terminator,
        // never an op.
        Inst::SsStart { .. }
        | Inst::SsApp { .. }
        | Inst::SsAppMod { .. }
        | Inst::SsAppInd { .. }
        | Inst::SsCtl { .. }
        | Inst::SsCfgMem { .. }
        | Inst::VExtractF { .. }
        | Inst::VExtractX { .. }
        | Inst::Halt => FlatOp::Fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{PReg, XReg};

    #[test]
    fn immediates_are_pre_extended() {
        let f = lower(&Inst::AluImm {
            op: AluOp::Add,
            rd: XReg::A0,
            rs1: XReg::A1,
            imm: -3,
        });
        assert_eq!(
            f,
            FlatOp::AluImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 11,
                imm: -3
            }
        );
        let l = lower(&Inst::Lui {
            rd: XReg::A0,
            imm: -1,
        });
        assert_eq!(l, FlatOp::Li { rd: 10, imm: -4096 });
    }

    #[test]
    fn stream_config_falls_back() {
        let f = lower(&Inst::SsCtl {
            op: crate::inst::StreamCtl::Stop,
            u: VReg::new(3),
        });
        assert_eq!(f, FlatOp::Fallback);
        assert_eq!(lower(&Inst::Halt), FlatOp::Fallback);
    }

    #[test]
    fn branches_keep_absolute_targets() {
        let f = lower(&Inst::BrPred {
            cond: PredCond::First,
            p: PReg::new(1),
            target: 7,
        });
        assert_eq!(
            f,
            FlatOp::BrPred {
                cond: PredCond::First,
                p: 1,
                target: 7
            }
        );
    }
}
