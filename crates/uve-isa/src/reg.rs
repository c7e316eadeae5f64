//! Architectural register files: scalar integer (`x`), scalar floating-point
//! (`f`), vector/stream (`u`) and predicate (`p`) registers.

use std::fmt;

/// Number of scalar integer registers (RISC-V base).
pub const NUM_XREGS: usize = 32;
/// Number of scalar floating-point registers (RISC-V F/D).
pub const NUM_FREGS: usize = 32;
/// Number of UVE vector registers `u0`–`u31` (paper Sec. III-A1).
pub const NUM_VREGS: usize = 32;
/// Number of UVE predicate registers `p0`–`p15`.
pub const NUM_PREGS: usize = 16;

macro_rules! reg_newtype {
    ($(#[$doc:meta])* $name:ident, $count:expr, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u8);

        impl $name {
            /// Creates register number `n`.
            ///
            /// # Panics
            ///
            /// Panics if `n` is out of range for this register file.
            pub const fn new(n: u8) -> Self {
                assert!((n as usize) < $count, "register index out of range");
                Self(n)
            }

            /// Creates register number `n`, or `None` if out of range.
            pub const fn try_new(n: u8) -> Option<Self> {
                if (n as usize) < $count {
                    Some(Self(n))
                } else {
                    None
                }
            }

            /// The register number.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// The register number as `u8`.
            pub const fn num(self) -> u8 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

reg_newtype!(
    /// A scalar integer register `x0`–`x31` (`x0` is hardwired to zero).
    XReg,
    NUM_XREGS,
    "x"
);
reg_newtype!(
    /// A scalar floating-point register `f0`–`f31`.
    FReg,
    NUM_FREGS,
    "f"
);
reg_newtype!(
    /// A UVE vector register `u0`–`u31`; may be associated with a data
    /// stream, in which case reads consume and writes produce stream
    /// elements.
    VReg,
    NUM_VREGS,
    "u"
);
reg_newtype!(
    /// A predicate register `p0`–`p15`; `p0` is hardwired to all-true.
    PReg,
    NUM_PREGS,
    "p"
);

impl XReg {
    /// The hardwired zero register.
    pub const ZERO: XReg = XReg(0);
    /// Return address (ABI).
    pub const RA: XReg = XReg(1);
    /// Stack pointer (ABI).
    pub const SP: XReg = XReg(2);
    /// Argument register `a0` = `x10`.
    pub const A0: XReg = XReg(10);
    /// Argument register `a1` = `x11`.
    pub const A1: XReg = XReg(11);
    /// Argument register `a2` = `x12`.
    pub const A2: XReg = XReg(12);
    /// Argument register `a3` = `x13`.
    pub const A3: XReg = XReg(13);
    /// Argument register `a4` = `x14`.
    pub const A4: XReg = XReg(14);
    /// Argument register `a5` = `x15`.
    pub const A5: XReg = XReg(15);
    /// Argument register `a6` = `x16`.
    pub const A6: XReg = XReg(16);
    /// Argument register `a7` = `x17`.
    pub const A7: XReg = XReg(17);
    /// Temporary `t0` = `x5`.
    pub const T0: XReg = XReg(5);
    /// Temporary `t1` = `x6`.
    pub const T1: XReg = XReg(6);
    /// Temporary `t2` = `x7`.
    pub const T2: XReg = XReg(7);
    /// Temporary `t3` = `x28`.
    pub const T3: XReg = XReg(28);
    /// Temporary `t4` = `x29`.
    pub const T4: XReg = XReg(29);
    /// Temporary `t5` = `x30`.
    pub const T5: XReg = XReg(30);
    /// Temporary `t6` = `x31`.
    pub const T6: XReg = XReg(31);
    /// Saved register `s2` = `x18`.
    pub const S2: XReg = XReg(18);
    /// Saved register `s3` = `x19`.
    pub const S3: XReg = XReg(19);
    /// Saved register `s4` = `x20`.
    pub const S4: XReg = XReg(20);
    /// Saved register `s5` = `x21`.
    pub const S5: XReg = XReg(21);
    /// Saved register `s6` = `x22`.
    pub const S6: XReg = XReg(22);
    /// Saved register `s7` = `x23`.
    pub const S7: XReg = XReg(23);
    /// Saved register `s8` = `x24`.
    pub const S8: XReg = XReg(24);
    /// Saved register `s9` = `x25`.
    pub const S9: XReg = XReg(25);
    /// Saved register `s10` = `x26`.
    pub const S10: XReg = XReg(26);
    /// Saved register `s11` = `x27`.
    pub const S11: XReg = XReg(27);
}

impl FReg {
    /// FP argument register `fa0` = `f10`.
    pub const FA0: FReg = FReg(10);
    /// FP argument register `fa1` = `f11`.
    pub const FA1: FReg = FReg(11);
    /// FP argument register `fa2` = `f12`.
    pub const FA2: FReg = FReg(12);
    /// FP argument register `fa3` = `f13`.
    pub const FA3: FReg = FReg(13);
    /// FP temporary `ft0` = `f0`.
    pub const FT0: FReg = FReg(0);
    /// FP temporary `ft1` = `f1`.
    pub const FT1: FReg = FReg(1);
    /// FP temporary `ft2` = `f2`.
    pub const FT2: FReg = FReg(2);
    /// FP temporary `ft3` = `f3`.
    pub const FT3: FReg = FReg(3);
}

impl PReg {
    /// The all-true hardwired predicate.
    pub const P0: PReg = PReg(0);
}

/// Register file class, used for renaming and dependence tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Scalar integer.
    Int,
    /// Scalar floating-point.
    Fp,
    /// Vector.
    Vec,
    /// Predicate.
    Pred,
}

/// A class-tagged architectural register reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegRef {
    /// The register file.
    pub class: RegClass,
    /// The architectural register number.
    pub num: u8,
}

impl RegRef {
    /// References an integer register.
    pub const fn x(r: XReg) -> Self {
        RegRef {
            class: RegClass::Int,
            num: r.num(),
        }
    }

    /// References a floating-point register.
    pub const fn f(r: FReg) -> Self {
        RegRef {
            class: RegClass::Fp,
            num: r.num(),
        }
    }

    /// References a vector register.
    pub const fn v(r: VReg) -> Self {
        RegRef {
            class: RegClass::Vec,
            num: r.num(),
        }
    }

    /// References a predicate register.
    pub const fn p(r: PReg) -> Self {
        RegRef {
            class: RegClass::Pred,
            num: r.num(),
        }
    }
}

/// An inline list of at most `N` register references: one instruction's
/// operands ([`SrcRegs`](crate::SrcRegs), [`DestRegs`](crate::DestRegs)).
/// `Copy` and heap-free, so a recorded trace op carries its operands in
/// place. Dereferences to the slice of the registers present.
#[derive(Clone, Copy)]
pub struct RegList<const N: usize> {
    len: u8,
    regs: [RegRef; N],
}

/// What the unused slots of a [`RegList`] hold (never observable).
const UNUSED: RegRef = RegRef {
    class: RegClass::Int,
    num: 0,
};

impl<const N: usize> RegList<N> {
    /// How many registers the list holds at most.
    pub const CAPACITY: usize = N;

    /// An empty list.
    pub const fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "the length is a u8") };
        Self {
            len: 0,
            regs: [UNUSED; N],
        }
    }

    /// A list holding `rs`.
    ///
    /// # Panics
    ///
    /// Panics if `rs` is longer than [`CAPACITY`](Self::CAPACITY).
    pub fn from_slice(rs: &[RegRef]) -> Self {
        let mut list = Self::new();
        list.regs[..rs.len()].copy_from_slice(rs);
        list.len = rs.len() as u8;
        list
    }

    /// Appends `r`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`CAPACITY`](Self::CAPACITY)
    /// registers (the ISA's operand bounds make that a decoder bug).
    pub fn push(&mut self, r: RegRef) {
        self.regs[usize::from(self.len)] = r;
        self.len += 1;
    }

    /// Keeps only the registers `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(RegRef) -> bool) {
        let mut kept = 0;
        for i in 0..usize::from(self.len) {
            let r = self.regs[i];
            if keep(r) {
                self.regs[kept] = r;
                kept += 1;
            }
        }
        self.regs[kept..].fill(UNUSED);
        self.len = kept as u8;
    }

    /// Heap slots the list owns: always 0, the registers live inline.
    /// Size accounting that sums `capacity() × element size` over a
    /// trace's fields (as for `Vec` fields) thus stays exact.
    pub const fn capacity(&self) -> usize {
        0
    }
}

impl<const N: usize> Default for RegList<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> std::ops::Deref for RegList<N> {
    type Target = [RegRef];

    fn deref(&self) -> &[RegRef] {
        &self.regs[..usize::from(self.len)]
    }
}

impl<const N: usize> PartialEq for RegList<N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize> Eq for RegList<N> {}

impl<const N: usize> std::hash::Hash for RegList<N> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<const N: usize> fmt::Debug for RegList<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<const N: usize> Extend<RegRef> for RegList<N> {
    fn extend<I: IntoIterator<Item = RegRef>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

impl<const N: usize> FromIterator<RegRef> for RegList<N> {
    fn from_iter<I: IntoIterator<Item = RegRef>>(iter: I) -> Self {
        let mut list = Self::new();
        list.extend(iter);
        list
    }
}

impl<'a, const N: usize> IntoIterator for &'a RegList<N> {
    type Item = &'a RegRef;
    type IntoIter = std::slice::Iter<'a, RegRef>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = match self.class {
            RegClass::Int => 'x',
            RegClass::Fp => 'f',
            RegClass::Vec => 'u',
            RegClass::Pred => 'p',
        };
        write!(f, "{prefix}{}", self.num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(XReg::A0.to_string(), "x10");
        assert_eq!(FReg::FA0.to_string(), "f10");
        assert_eq!(VReg::new(3).to_string(), "u3");
        assert_eq!(PReg::P0.to_string(), "p0");
    }

    #[test]
    fn reg_list_is_an_inline_slice() {
        let (a, b, c) = (
            RegRef::x(XReg::A0),
            RegRef::v(VReg::new(2)),
            RegRef::p(PReg::new(1)),
        );
        let mut l = RegList::<5>::from_slice(&[a, b, c]);
        assert_eq!(*l, [a, b, c]);
        l.retain(|r| r.class != RegClass::Vec);
        assert_eq!(*l, [a, c]);
        // Equality ignores what the dropped slot used to hold.
        let mut m = RegList::<5>::new();
        m.extend([a, c]);
        assert_eq!(l, m);
        assert_eq!(format!("{l:?}"), format!("{:?}", [a, c]));
        assert_eq!(l.capacity(), 0, "no heap slots");
        assert_eq!(RegList::<5>::CAPACITY, 5);
        assert_eq!(std::mem::size_of::<RegList<2>>(), 5);
    }

    #[test]
    #[should_panic]
    fn reg_list_overflow_panics() {
        let mut l = RegList::<2>::new();
        l.extend([RegRef::x(XReg::A0); 3]);
    }

    #[test]
    fn try_new_bounds() {
        assert!(XReg::try_new(31).is_some());
        assert!(XReg::try_new(32).is_none());
        assert!(PReg::try_new(15).is_some());
        assert!(PReg::try_new(16).is_none());
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn new_panics_out_of_range() {
        let _ = VReg::new(32);
    }

    #[test]
    fn regref_display() {
        assert_eq!(RegRef::v(VReg::new(7)).to_string(), "u7");
        assert_eq!(RegRef::p(PReg::new(2)).to_string(), "p2");
    }
}
