//! The native register machine: unboxed register banks and a monomorphic
//! instruction set. This is the execution substrate standing in for the
//! paper's LLVM-JITed native code (DESIGN.md §1).

use std::collections::HashMap;
use std::sync::Arc;
use wolfram_expr::Expr;
use wolfram_interp::Interpreter;
use wolfram_runtime::checked;
use wolfram_runtime::simd::SimdOp;
use wolfram_runtime::{
    parallel, AbortSignal, FunctionValue, ParallelConfig, RuntimeError, Tensor, TensorData, Value,
};

/// Register bank selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bank {
    /// Machine integers and booleans (0/1).
    I,
    /// Machine reals.
    F,
    /// Machine complex numbers.
    C,
    /// Managed values (tensors, strings, expressions, closures).
    V,
}

/// A typed register reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Which bank.
    pub bank: Bank,
    /// Index within the bank.
    pub ix: usize,
}

impl Slot {
    /// Constructs a slot.
    pub fn new(bank: Bank, ix: usize) -> Self {
        Slot { bank, ix }
    }
}

/// Integer binary opcodes (comparisons produce 0/1 in the integer bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IntOp {
    Add,
    Sub,
    Mul,
    // Unchecked forms: the interval analysis proved the operation cannot
    // overflow, so the wrapping result equals the mathematical one.
    AddU,
    SubU,
    MulU,
    Quot,
    Mod,
    Pow,
    Min,
    Max,
    Gcd,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

/// Integer unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IntUnOp {
    Neg,
    Abs,
    Not,
    Sign,
    Factorial,
}

/// Real binary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FltOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Mod,
    Min,
    Max,
    ArcTan2,
}

/// Real unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FltUnOp {
    Neg,
    Abs,
    Sqrt,
    Sin,
    Cos,
    Tan,
    Exp,
    Log,
    ArcTan,
    ArcSin,
    ArcCos,
    Sign,
}

/// Comparison codes shared by float compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpCode {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Complex binary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CpxOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Tensor element kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ElemKind {
    I64,
    F64,
    C64,
}

/// Element-wise tensor opcodes (rank-1, same shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum TenOp {
    Add,
    Sub,
    Mul,
}

/// Symbolic (Expression) binary opcodes — "threaded interpretation" (§4.5):
/// executed against the hosting engine without full top-level evaluation
/// re-entry per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ExprOp {
    Plus,
    Times,
    Subtract,
    Power,
}

/// A native machine instruction. Operand indices refer to the bank implied
/// by the opcode; all type resolution happened at compile time.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum RegOp {
    LdcI {
        d: usize,
        v: i64,
    },
    LdcF {
        d: usize,
        v: f64,
    },
    LdcC {
        d: usize,
        re: f64,
        im: f64,
    },
    LdcV {
        d: usize,
        v: Value,
    },
    /// Loads a constant array by deep copy (the "non-optimal handling of
    /// constant arrays" ablation, §6: every load re-materializes the data).
    LdcArrayCopy {
        d: usize,
        v: Value,
    },
    MovI {
        d: usize,
        s: usize,
    },
    MovF {
        d: usize,
        s: usize,
    },
    MovC {
        d: usize,
        s: usize,
    },
    MovV {
        d: usize,
        s: usize,
    },
    /// Moves a managed value out of a dead register (the compiler's
    /// copy/live analysis proved `s` is never read again, F5): the source
    /// slot is left Null so reference counts stay minimal and in-place
    /// mutation needs no copy.
    TakeV {
        d: usize,
        s: usize,
    },
    IntBin {
        op: IntOp,
        d: usize,
        a: usize,
        b: usize,
    },
    IntBinImm {
        op: IntOp,
        d: usize,
        a: usize,
        imm: i64,
    },
    IntUn {
        op: IntUnOp,
        d: usize,
        s: usize,
    },
    PowModI {
        d: usize,
        a: usize,
        b: usize,
        m: usize,
    },
    FltBin {
        op: FltOp,
        d: usize,
        a: usize,
        b: usize,
    },
    FltBinImm {
        op: FltOp,
        d: usize,
        a: usize,
        imm: f64,
    },
    FltCmp {
        op: CmpCode,
        d: usize,
        a: usize,
        b: usize,
    },
    FltUn {
        op: FltUnOp,
        d: usize,
        s: usize,
    },
    FloorFI {
        d: usize,
        s: usize,
    },
    CeilFI {
        d: usize,
        s: usize,
    },
    RoundFI {
        d: usize,
        s: usize,
    },
    IntToFlt {
        d: usize,
        s: usize,
    },
    IntToCpx {
        d: usize,
        s: usize,
    },
    FltToCpx {
        d: usize,
        s: usize,
    },
    CpxBin {
        op: CpxOp,
        d: usize,
        a: usize,
        b: usize,
    },
    CpxPowI {
        d: usize,
        a: usize,
        e: usize,
    },
    CpxAbs {
        d: usize,
        s: usize,
    },
    CpxMake {
        d: usize,
        re: usize,
        im: usize,
    },
    CpxRe {
        d: usize,
        s: usize,
    },
    CpxIm {
        d: usize,
        s: usize,
    },
    CpxConj {
        d: usize,
        s: usize,
    },
    CpxEq {
        d: usize,
        a: usize,
        b: usize,
    },
    TenLen {
        d: usize,
        t: usize,
    },
    TenPart1 {
        kind: ElemKind,
        d: usize,
        t: usize,
        i: usize,
    },
    TenPart2 {
        kind: ElemKind,
        d: usize,
        t: usize,
        i: usize,
        j: usize,
    },
    TenSet1 {
        kind: ElemKind,
        t: usize,
        i: usize,
        v: usize,
    },
    TenSet2 {
        kind: ElemKind,
        t: usize,
        i: usize,
        j: usize,
        v: usize,
    },
    /// [`RegOp::TenPart1`] with the bounds check elided: the interval
    /// analysis proved `i ∈ [-len,-1] ∪ [1,len]`, so execution only
    /// resolves the sign (negative indices count from the end) without
    /// validating the range.
    TenPart1U {
        kind: ElemKind,
        d: usize,
        t: usize,
        i: usize,
    },
    /// [`RegOp::TenPart2`] with both bounds checks elided.
    TenPart2U {
        kind: ElemKind,
        d: usize,
        t: usize,
        i: usize,
        j: usize,
    },
    /// [`RegOp::TenSet1`] with the bounds check elided.
    TenSet1U {
        kind: ElemKind,
        t: usize,
        i: usize,
        v: usize,
    },
    /// [`RegOp::TenSet2`] with both bounds checks elided.
    TenSet2U {
        kind: ElemKind,
        t: usize,
        i: usize,
        j: usize,
        v: usize,
    },
    TenFill1 {
        kind: ElemKind,
        d: usize,
        c: usize,
        n: usize,
    },
    TenFill2 {
        kind: ElemKind,
        d: usize,
        c: usize,
        n1: usize,
        n2: usize,
    },
    TenBin {
        op: TenOp,
        d: usize,
        a: usize,
        b: usize,
    },
    /// Tensor (+) scalar broadcast; `rev` computes `scalar (op) tensor`.
    TenScalar {
        op: TenOp,
        kind: ElemKind,
        d: usize,
        t: usize,
        s: usize,
        rev: bool,
    },
    TenSetRow {
        t: usize,
        i: usize,
        row: usize,
    },
    TenFromList {
        kind: ElemKind,
        d: usize,
        items: Vec<usize>,
    },
    DotVecF {
        d: usize,
        a: usize,
        b: usize,
    },
    DotVecI {
        d: usize,
        a: usize,
        b: usize,
    },
    DotMat {
        d: usize,
        a: usize,
        b: usize,
    },
    DotMatVec {
        d: usize,
        a: usize,
        b: usize,
    },
    StrLen {
        d: usize,
        s: usize,
    },
    StrToCodes {
        d: usize,
        s: usize,
    },
    StrFromCodes {
        d: usize,
        s: usize,
    },
    StrJoin {
        d: usize,
        a: usize,
        b: usize,
    },
    ExprBin {
        op: ExprOp,
        d: usize,
        a: usize,
        b: usize,
    },
    /// Symbolic unary application `head[a]`, normalized by the hosting
    /// engine (like [`RegOp::ExprBin`]).
    ExprUnary {
        head: Arc<str>,
        d: usize,
        a: usize,
    },
    BoolToExpr {
        d: usize,
        s: usize,
    },
    BoxIV {
        d: usize,
        s: usize,
    },
    BoxFV {
        d: usize,
        s: usize,
    },
    BoxCV {
        d: usize,
        s: usize,
    },
    RndUnit {
        d: usize,
    },
    RndRange {
        d: usize,
        a: usize,
        b: usize,
    },
    MakeClosure {
        d: usize,
        f: usize,
        captures: Vec<Slot>,
    },
    CallFunc {
        f: usize,
        args: Box<[Slot]>,
        ret: Slot,
    },
    CallValue {
        fv: usize,
        args: Box<[Slot]>,
        ret: Slot,
    },
    CallKernel {
        head: Arc<str>,
        args: Box<[Slot]>,
        ret: Slot,
    },
    Jmp {
        pc: usize,
    },
    Brz {
        c: usize,
        pc: usize,
    },
    // ---- Superinstructions (see `fuse`) ----
    //
    // Every fused op performs *all* the register writes of the sequence it
    // replaces (the pass needs no liveness analysis to stay bit-identical),
    // and no jump target may land inside a fused group.
    //
    // Fused variants use `u32` register/pc fields and `i32` immediates so
    // they stay within the enum's pre-fusion payload: growing `RegOp` would
    // tax the fetch of *every* op in the code array. The pass refuses to
    // fuse on overflow (fuse::narrow/narrow_imm); the interpreter widens
    // with zero-extending casts.
    /// Fused compare-and-branch: `d = a (op) b`, then jump to `pc` when
    /// the result is zero (comparison false).
    BrCmpIFalse {
        op: IntOp,
        a: u32,
        b: u32,
        d: u32,
        pc: u32,
    },
    /// Fused compare-and-branch on reals.
    BrCmpFFalse {
        op: CmpCode,
        a: u32,
        b: u32,
        d: u32,
        pc: u32,
    },
    /// Fused compare + two-way branch (cmp, brz, jmp): `d = a (op) b`,
    /// then jump to `pc_true` when nonzero, `pc_false` when zero.
    BrCmpISel {
        op: IntOp,
        a: u32,
        b: u32,
        d: u32,
        pc_false: u32,
        pc_true: u32,
    },
    /// [`RegOp::BrCmpISel`] on reals.
    BrCmpFSel {
        op: CmpCode,
        a: u32,
        b: u32,
        d: u32,
        pc_false: u32,
        pc_true: u32,
    },
    /// Fused brz + jmp: a two-way branch on a materialized condition.
    BrzJmp {
        c: u32,
        pc_z: u32,
        pc_nz: u32,
    },
    /// Two integer binary ops in one dispatch (covers integer
    /// multiply-add chains).
    IntBin2 {
        op1: IntOp,
        d1: u32,
        a1: u32,
        b1: u32,
        op2: IntOp,
        d2: u32,
        a2: u32,
        b2: u32,
    },
    /// Two immediate-form integer ops in one dispatch (FNV1a's
    /// `muli`+`modi` hash step).
    IntBinImm2 {
        op1: IntOp,
        d1: u32,
        a1: u32,
        imm1: i32,
        op2: IntOp,
        d2: u32,
        a2: u32,
        imm2: i32,
    },
    /// Immediate-folded loop-counter increment fused with the loop
    /// back-edge.
    IntBinImmJmp {
        op: IntOp,
        d: u32,
        a: u32,
        imm: i32,
        pc: u32,
    },
    /// Two real binary ops in one dispatch (covers float multiply-add).
    FltBin2 {
        op1: FltOp,
        d1: u32,
        a1: u32,
        b1: u32,
        op2: FltOp,
        d2: u32,
        a2: u32,
        b2: u32,
    },
    /// Integer tensor element load feeding an integer op (load-op).
    TenPart1IntBin {
        e: u32,
        t: u32,
        i: u32,
        op: IntOp,
        d: u32,
        a: u32,
        b: u32,
    },
    /// Integer tensor element load feeding an immediate-form integer op.
    TenPart1IntBinImm {
        e: u32,
        t: u32,
        i: u32,
        op: IntOp,
        d: u32,
        a: u32,
        imm: i32,
    },
    /// Real matrix element load feeding a real op (Blur's stencil taps).
    TenPart2FltBin {
        e: u32,
        t: u32,
        i: u32,
        j: u32,
        op: FltOp,
        d: u32,
        a: u32,
        b: u32,
    },
    /// Take-move + element store (op-store around in-place mutation).
    TakeVTenSet1 {
        dv: u32,
        sv: u32,
        kind: ElemKind,
        t: u32,
        i: u32,
        v: u32,
    },
    /// [`RegOp::TakeVTenSet1`] for matrices.
    TakeVTenSet2 {
        dv: u32,
        sv: u32,
        kind: ElemKind,
        t: u32,
        i: u32,
        j: u32,
        v: u32,
    },
    /// [`RegOp::TenPart1IntBin`] over an unchecked element load.
    TenPart1IntBinU {
        e: u32,
        t: u32,
        i: u32,
        op: IntOp,
        d: u32,
        a: u32,
        b: u32,
    },
    /// [`RegOp::TenPart1IntBinImm`] over an unchecked element load.
    TenPart1IntBinImmU {
        e: u32,
        t: u32,
        i: u32,
        op: IntOp,
        d: u32,
        a: u32,
        imm: i32,
    },
    /// [`RegOp::TenPart2FltBin`] over an unchecked element load.
    TenPart2FltBinU {
        e: u32,
        t: u32,
        i: u32,
        j: u32,
        op: FltOp,
        d: u32,
        a: u32,
        b: u32,
    },
    /// [`RegOp::TakeVTenSet2`] with both bounds checks elided.
    TakeVTenSet2U {
        dv: u32,
        sv: u32,
        kind: ElemKind,
        t: u32,
        i: u32,
        j: u32,
        v: u32,
    },
    /// Phi edge-move fused with the loop back-edge.
    MovIJmp {
        d: u32,
        s: u32,
        pc: u32,
    },
    /// Two integer moves in one dispatch (adjacent phi edge-moves).
    Mov2I {
        d1: u32,
        s1: u32,
        d2: u32,
        s2: u32,
    },
    /// Two phi edge-moves fused with the loop back-edge (the full latch
    /// block of a two-variable loop in one dispatch).
    Mov2IJmp {
        d1: u32,
        s1: u32,
        d2: u32,
        s2: u32,
        pc: u32,
    },
    /// Two reference-count releases in one dispatch (function epilogues).
    Release2 {
        v1: u32,
        v2: u32,
    },
    /// Abort poll + compare + two-way branch: a full `While` loop header
    /// (abort.check, cmp, brz, jmp) in one dispatch.
    AbortBrCmpISel {
        op: IntOp,
        a: u32,
        b: u32,
        d: u32,
        pc_false: u32,
        pc_true: u32,
    },
    /// Abort poll + fused compare-and-branch (header without the trailing
    /// jump).
    AbortBrCmpIFalse {
        op: IntOp,
        a: u32,
        b: u32,
        d: u32,
        pc: u32,
    },
    /// Immediate-form integer op feeding a phi move (`t = i + 1; i = t`).
    IntBinImmMovI {
        op: IntOp,
        d: u32,
        a: u32,
        imm: i32,
        d2: u32,
        s2: u32,
    },
    /// Complex phi edge-move fused with the loop back-edge.
    MovCJmp {
        d: u32,
        s: u32,
        pc: u32,
    },
    /// A whole integer loop latch in one dispatch: immediate-form op +
    /// two phi edge-moves + back-edge (`t = i + 1; i = t; s = u; jmp`).
    #[allow(clippy::too_many_arguments)]
    IntBinImmMov2IJmp {
        op: IntOp,
        d: u32,
        a: u32,
        imm: i32,
        d2: u32,
        s2: u32,
        d3: u32,
        s3: u32,
        pc: u32,
    },
    /// Real compare feeding a phi move of the condition.
    FltCmpMovI {
        op: CmpCode,
        d: u32,
        a: u32,
        b: u32,
        d2: u32,
        s2: u32,
    },
    /// [`RegOp::FltCmpMovI`] fused with the following jump (Mandelbrot's
    /// short-circuit `And` arm).
    FltCmpMovIJmp {
        op: CmpCode,
        d: u32,
        a: u32,
        b: u32,
        d2: u32,
        s2: u32,
        pc: u32,
    },
    AbortCheck,
    /// Batched execution of the counted scalar loop whose header starts at
    /// the next instruction (planned by `crate::vectorize`). Runs all but
    /// the final iteration through SIMD kernels when the runtime prechecks
    /// in the plan hold, then falls through to the scalar header for the
    /// last iteration and loop exit; otherwise it is a pure no-op and the
    /// scalar loop executes unchanged. Ignored unless the program carries a
    /// [`ParallelConfig`].
    VecLoop {
        plan: Arc<crate::vectorize::VecPlan>,
    },
    Acquire {
        v: usize,
    },
    Release {
        v: usize,
    },
    Ret {
        s: Slot,
    },
    RetNull,
}

impl RegOp {
    /// Short mnemonic for the op-frequency profiler and opstats reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            RegOp::LdcI { .. } => "ldc.i",
            RegOp::LdcF { .. } => "ldc.f",
            RegOp::LdcC { .. } => "ldc.c",
            RegOp::LdcV { .. } => "ldc.v",
            RegOp::LdcArrayCopy { .. } => "ldc.copy",
            RegOp::MovI { .. } => "mov.i",
            RegOp::MovF { .. } => "mov.f",
            RegOp::MovC { .. } => "mov.c",
            RegOp::MovV { .. } => "mov.v",
            RegOp::TakeV { .. } => "take.v",
            RegOp::IntBin { .. } => "int.bin",
            RegOp::IntBinImm { .. } => "int.bin.imm",
            RegOp::IntUn { .. } => "int.un",
            RegOp::PowModI { .. } => "powmod.i",
            RegOp::FltBin { .. } => "flt.bin",
            RegOp::FltBinImm { .. } => "flt.bin.imm",
            RegOp::FltCmp { .. } => "flt.cmp",
            RegOp::FltUn { .. } => "flt.un",
            RegOp::FloorFI { .. } => "floor.fi",
            RegOp::CeilFI { .. } => "ceil.fi",
            RegOp::RoundFI { .. } => "round.fi",
            RegOp::IntToFlt { .. } => "cvt.if",
            RegOp::IntToCpx { .. } => "cvt.ic",
            RegOp::FltToCpx { .. } => "cvt.fc",
            RegOp::CpxBin { .. } => "cpx.bin",
            RegOp::CpxPowI { .. } => "cpx.powi",
            RegOp::CpxAbs { .. } => "cpx.abs",
            RegOp::CpxMake { .. } => "cpx.make",
            RegOp::CpxRe { .. } => "cpx.re",
            RegOp::CpxIm { .. } => "cpx.im",
            RegOp::CpxConj { .. } => "cpx.conj",
            RegOp::CpxEq { .. } => "cpx.eq",
            RegOp::TenLen { .. } => "ten.len",
            RegOp::TenPart1 { .. } => "ten.part1",
            RegOp::TenPart2 { .. } => "ten.part2",
            RegOp::TenSet1 { .. } => "ten.set1",
            RegOp::TenSet2 { .. } => "ten.set2",
            RegOp::TenPart1U { .. } => "ten.part1.u",
            RegOp::TenPart2U { .. } => "ten.part2.u",
            RegOp::TenSet1U { .. } => "ten.set1.u",
            RegOp::TenSet2U { .. } => "ten.set2.u",
            RegOp::TenFill1 { .. } => "ten.fill1",
            RegOp::TenFill2 { .. } => "ten.fill2",
            RegOp::TenBin { .. } => "ten.bin",
            RegOp::TenScalar { .. } => "ten.scalar",
            RegOp::TenSetRow { .. } => "ten.setrow",
            RegOp::TenFromList { .. } => "ten.fromlist",
            RegOp::DotVecF { .. } => "dot.vec.f",
            RegOp::DotVecI { .. } => "dot.vec.i",
            RegOp::DotMat { .. } => "dot.mat",
            RegOp::DotMatVec { .. } => "dot.matvec",
            RegOp::StrLen { .. } => "str.len",
            RegOp::StrToCodes { .. } => "str.tocodes",
            RegOp::StrFromCodes { .. } => "str.fromcodes",
            RegOp::StrJoin { .. } => "str.join",
            RegOp::ExprBin { .. } => "expr.bin",
            RegOp::ExprUnary { .. } => "expr.un",
            RegOp::BoolToExpr { .. } => "box.bool",
            RegOp::BoxIV { .. } => "box.iv",
            RegOp::BoxFV { .. } => "box.fv",
            RegOp::BoxCV { .. } => "box.cv",
            RegOp::RndUnit { .. } => "rnd.unit",
            RegOp::RndRange { .. } => "rnd.range",
            RegOp::MakeClosure { .. } => "closure",
            RegOp::CallFunc { .. } => "call.func",
            RegOp::CallValue { .. } => "call.value",
            RegOp::CallKernel { .. } => "call.kernel",
            RegOp::Jmp { .. } => "jmp",
            RegOp::Brz { .. } => "brz",
            RegOp::BrCmpIFalse { .. } => "br.cmp.i",
            RegOp::BrCmpFFalse { .. } => "br.cmp.f",
            RegOp::BrCmpISel { .. } => "br.cmp.i.sel",
            RegOp::BrCmpFSel { .. } => "br.cmp.f.sel",
            RegOp::BrzJmp { .. } => "brz.jmp",
            RegOp::IntBin2 { .. } => "int.bin2",
            RegOp::IntBinImm2 { .. } => "int.bin.imm2",
            RegOp::IntBinImmJmp { .. } => "int.bin.imm.jmp",
            RegOp::FltBin2 { .. } => "flt.bin2",
            RegOp::TenPart1IntBin { .. } => "ten.part1.int.bin",
            RegOp::TenPart1IntBinImm { .. } => "ten.part1.int.imm",
            RegOp::TenPart2FltBin { .. } => "ten.part2.flt.bin",
            RegOp::TakeVTenSet1 { .. } => "take.ten.set1",
            RegOp::TakeVTenSet2 { .. } => "take.ten.set2",
            RegOp::TenPart1IntBinU { .. } => "ten.part1.int.bin.u",
            RegOp::TenPart1IntBinImmU { .. } => "ten.part1.int.imm.u",
            RegOp::TenPart2FltBinU { .. } => "ten.part2.flt.bin.u",
            RegOp::TakeVTenSet2U { .. } => "take.ten.set2.u",
            RegOp::MovIJmp { .. } => "mov.i.jmp",
            RegOp::Mov2I { .. } => "mov2.i",
            RegOp::Mov2IJmp { .. } => "mov2.i.jmp",
            RegOp::Release2 { .. } => "release2",
            RegOp::AbortBrCmpISel { .. } => "abort.br.cmp.i.sel",
            RegOp::AbortBrCmpIFalse { .. } => "abort.br.cmp.i",
            RegOp::IntBinImmMovI { .. } => "int.bin.imm.mov",
            RegOp::MovCJmp { .. } => "mov.c.jmp",
            RegOp::IntBinImmMov2IJmp { .. } => "int.imm.mov2.jmp",
            RegOp::FltCmpMovI { .. } => "flt.cmp.mov",
            RegOp::FltCmpMovIJmp { .. } => "flt.cmp.mov.jmp",
            RegOp::AbortCheck => "abort.check",
            RegOp::VecLoop { .. } => "vec.loop",
            RegOp::Acquire { .. } => "acquire",
            RegOp::Release { .. } => "release",
            RegOp::Ret { .. } => "ret",
            RegOp::RetNull => "ret.null",
        }
    }
}

/// Clones a runtime value, short-circuiting the cheap scalar variants so
/// the hot `LdcV`/`MovV` paths skip the full `Value::clone` (which must
/// consider every managed variant before bumping a refcount).
#[inline]
fn clone_cheap(v: &Value) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Bool(b) => Value::Bool(*b),
        Value::I64(x) => Value::I64(*x),
        Value::F64(x) => Value::F64(*x),
        other => other.clone(),
    }
}

/// Per-function counts of runtime checks the interval analysis let the
/// lowering elide (and the totals they are drawn from), for
/// observability: `reproduce analyze --stats` and the CI golden gate
/// read these instead of grepping op listings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElisionCounters {
    /// Part bounds checks elided at lowering (unchecked tensor ops).
    pub bounds_elided: u32,
    /// Part-checked tensor ops lowered in total.
    pub bounds_total: u32,
    /// Overflow-checked integer ops promoted to unchecked forms.
    pub ovf_elided: u32,
    /// Overflow-checked integer ops (add/sub/mul) lowered in total.
    pub ovf_total: u32,
    /// `Acquire`/`Release` ops skipped as provably redundant.
    pub rc_elided: u32,
}

/// A compiled native function.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeFunc {
    /// Mangled name.
    pub name: String,
    /// Instruction stream.
    pub code: Vec<RegOp>,
    /// Bank sizes.
    pub n_int: usize,
    /// Real bank size.
    pub n_flt: usize,
    /// Complex bank size.
    pub n_cpx: usize,
    /// Value bank size.
    pub n_val: usize,
    /// Where incoming arguments are stored, in order.
    pub params: Vec<Slot>,
    /// Check-elision statistics fixed at lowering; all zero when the
    /// range analysis is off.
    pub elision: ElisionCounters,
}

/// A compiled native program (a lowered program module).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NativeProgram {
    /// Functions; index 0 is the entry (`Main`).
    pub funcs: Vec<NativeFunc>,
    /// Data-parallel runtime configuration. `None` (the default) executes
    /// every op on the scalar path; `Some` routes whole-tensor builtins
    /// through the chunked worker pool and arms `VecLoop` batching.
    pub parallel: Option<ParallelConfig>,
}

impl NativeProgram {
    /// Finds a function by name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }
}

/// A dynamically-typed argument/result crossing a function boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Integer / boolean.
    I(i64),
    /// Real.
    F(f64),
    /// Complex.
    C(f64, f64),
    /// Managed value.
    V(Value),
}

impl ArgVal {
    /// Boxes into a runtime [`Value`]. `bool_hint` renders integers as
    /// booleans when the static type said so.
    pub fn into_value(self, bool_hint: bool) -> Value {
        match self {
            ArgVal::I(v) => {
                if bool_hint {
                    Value::Bool(v != 0)
                } else {
                    Value::I64(v)
                }
            }
            ArgVal::F(v) => Value::F64(v),
            ArgVal::C(re, im) => Value::Complex(re, im),
            ArgVal::V(v) => v,
        }
    }

    /// Unboxes a runtime value into the bank expected by `slot`.
    ///
    /// # Errors
    ///
    /// Type error when the value does not fit the bank.
    pub fn from_value(v: &Value, bank: Bank) -> Result<ArgVal, RuntimeError> {
        Ok(match bank {
            Bank::I => match v {
                Value::I64(x) => ArgVal::I(*x),
                Value::Bool(b) => ArgVal::I(*b as i64),
                other => {
                    return Err(RuntimeError::Type(format!(
                        "expected machine integer, got {}",
                        other.type_name()
                    )))
                }
            },
            Bank::F => ArgVal::F(v.expect_f64()?),
            Bank::C => {
                let (re, im) = v.expect_complex()?;
                ArgVal::C(re, im)
            }
            Bank::V => ArgVal::V(v.clone()),
        })
    }
}

struct Frame {
    ints: Vec<i64>,
    flts: Vec<f64>,
    cpxs: Vec<(f64, f64)>,
    vals: Vec<Value>,
    /// Which value slots currently hold an acquired (refcount-bracketed)
    /// value — keeps acquire/release accounting balanced across `TakeV`.
    acquired: Vec<bool>,
}

impl Frame {
    fn new(f: &NativeFunc) -> Self {
        Frame {
            ints: vec![0; f.n_int],
            flts: vec![0.0; f.n_flt],
            cpxs: vec![(0.0, 0.0); f.n_cpx],
            vals: vec![Value::Null; f.n_val],
            acquired: vec![false; f.n_val],
        }
    }

    /// Re-shapes a pooled frame for `f`, dropping any held values.
    fn reset(&mut self, f: &NativeFunc) {
        self.ints.clear();
        self.ints.resize(f.n_int, 0);
        self.flts.clear();
        self.flts.resize(f.n_flt, 0.0);
        self.cpxs.clear();
        self.cpxs.resize(f.n_cpx, (0.0, 0.0));
        self.vals.clear();
        self.vals.resize(f.n_val, Value::Null);
        self.acquired.clear();
        self.acquired.resize(f.n_val, false);
    }

    fn store(&mut self, slot: Slot, v: ArgVal) -> Result<(), RuntimeError> {
        match (slot.bank, v) {
            (Bank::I, ArgVal::I(x)) => self.ints[slot.ix] = x,
            (Bank::F, ArgVal::F(x)) => self.flts[slot.ix] = x,
            (Bank::F, ArgVal::I(x)) => self.flts[slot.ix] = x as f64,
            (Bank::C, ArgVal::C(re, im)) => self.cpxs[slot.ix] = (re, im),
            (Bank::C, ArgVal::F(x)) => self.cpxs[slot.ix] = (x, 0.0),
            (Bank::C, ArgVal::I(x)) => self.cpxs[slot.ix] = (x as f64, 0.0),
            (Bank::V, ArgVal::V(v)) => self.vals[slot.ix] = v,
            (Bank::V, other) => self.vals[slot.ix] = other.into_value(false),
            (bank, v) => {
                return Err(RuntimeError::Type(format!(
                    "cannot store {v:?} into {bank:?} bank"
                )))
            }
        }
        Ok(())
    }

    fn load(&self, slot: Slot) -> ArgVal {
        match slot.bank {
            Bank::I => ArgVal::I(self.ints[slot.ix]),
            Bank::F => ArgVal::F(self.flts[slot.ix]),
            Bank::C => {
                let (re, im) = self.cpxs[slot.ix];
                ArgVal::C(re, im)
            }
            Bank::V => ArgVal::V(self.vals[slot.ix].clone()),
        }
    }
}

/// Most frames a machine keeps pooled for reuse. Indirect calls in tight
/// loops (the QSort comparator) recycle frames from this pool instead of
/// allocating; recursion deeper than the cap falls back to fresh frames.
pub const FRAME_POOL_CAP: usize = 64;

/// Execution statistics: dynamic op/dyad frequencies (populated only while
/// [`Machine::profile_ops`] is enabled) and the always-on frame-pool
/// hit/miss counters.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Executed instruction count per mnemonic.
    pub ops: HashMap<&'static str, u64>,
    /// Executed consecutive-pair (dyad) count — the data that drives
    /// superinstruction selection.
    pub pairs: HashMap<(&'static str, &'static str), u64>,
    /// Calls served by a pooled frame.
    pub pool_hits: u64,
    /// Calls that had to allocate a fresh frame.
    pub pool_misses: u64,
}

impl OpStats {
    /// Mnemonics sorted by descending execution count.
    pub fn hottest_ops(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.ops.iter().map(|(&k, &n)| (k, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Dyads sorted by descending execution count.
    pub fn hottest_pairs(&self) -> Vec<((&'static str, &'static str), u64)> {
        let mut v: Vec<_> = self.pairs.iter().map(|(&k, &n)| (k, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Total executed instructions.
    pub fn total(&self) -> u64 {
        self.ops.values().sum()
    }
}

/// Per-run profiling state, boxed so the disabled case costs one
/// null-check per dispatched instruction.
#[derive(Debug, Default)]
struct ProfileState {
    ops: HashMap<&'static str, u64>,
    pairs: HashMap<(&'static str, &'static str), u64>,
    last: Option<&'static str>,
}

impl ProfileState {
    #[inline]
    fn record(&mut self, m: &'static str) {
        *self.ops.entry(m).or_insert(0) += 1;
        if let Some(prev) = self.last.replace(m) {
            *self.pairs.entry((prev, m)).or_insert(0) += 1;
        }
    }
}

/// The execution context: abort signal and the deterministic RNG. The
/// hosting engine (for kernel escapes and symbolic ops, absent in
/// standalone mode, F10) is threaded through each call as a reborrowable
/// parameter so installed compiled functions can re-enter the interpreter.
pub struct Machine {
    /// Abort flag checked by `AbortCheck` instructions.
    pub abort: AbortSignal,
    rng: u64,
    /// Recycled call frames (indirect calls in tight loops — the QSort
    /// comparator — would otherwise allocate per call).
    frame_pool: Vec<Frame>,
    pool_hits: u64,
    pool_misses: u64,
    /// The drained argument vector of the last call, kept for its
    /// capacity (see [`Machine::take_args`]).
    args: Vec<ArgVal>,
    profile: Option<Box<ProfileState>>,
}

impl Machine {
    /// A machine with a private abort signal (standalone mode).
    pub fn standalone() -> Self {
        Machine {
            abort: AbortSignal::new(),
            rng: 0x2545F4914F6CDD1D,
            frame_pool: Vec::new(),
            pool_hits: 0,
            pool_misses: 0,
            args: Vec::new(),
            profile: None,
        }
    }

    /// An empty argument vector that keeps the capacity of the last
    /// call's arguments. A caller that marshals into it and passes it to
    /// [`Machine::call_with_engine`] gets it back here next time, so
    /// repeated calls do not allocate for their arguments.
    pub fn take_args(&mut self) -> Vec<ArgVal> {
        std::mem::take(&mut self.args)
    }

    /// Turns the op-frequency/dyad profiler on or off. Profiling adds a
    /// hash update per dispatched instruction; it is meant for
    /// `reproduce -- opstats`, not for benchmarking runs.
    pub fn profile_ops(&mut self, enable: bool) {
        self.profile = enable.then(Box::<ProfileState>::default);
    }

    /// Takes the accumulated statistics, resetting all counters.
    pub fn take_stats(&mut self) -> OpStats {
        let (ops, pairs) = match self.profile.as_deref_mut() {
            Some(p) => (std::mem::take(&mut p.ops), std::mem::take(&mut p.pairs)),
            None => Default::default(),
        };
        if let Some(p) = self.profile.as_deref_mut() {
            p.last = None;
        }
        let stats = OpStats {
            ops,
            pairs,
            pool_hits: self.pool_hits,
            pool_misses: self.pool_misses,
        };
        self.pool_hits = 0;
        self.pool_misses = 0;
        stats
    }

    /// Seeds the machine RNG.
    pub fn seed(&mut self, seed: u64) {
        self.rng = seed | 1;
    }

    fn next_f64(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Calls function `fix` of `prog` with marshaled arguments, standalone.
    ///
    /// # Errors
    ///
    /// Numeric exceptions, aborts, and type errors propagate to the caller
    /// (the compiled-code wrapper decides about soft fallback).
    pub fn call(
        &mut self,
        prog: &NativeProgram,
        fix: usize,
        args: Vec<ArgVal>,
    ) -> Result<ArgVal, RuntimeError> {
        self.call_with_engine(prog, fix, args, None)
    }

    /// Calls with a hosting engine for kernel escapes and symbolic ops.
    /// The entry frame comes from the machine's frame pool; the emptied
    /// `args` vector is kept for [`Machine::take_args`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::call`].
    pub fn call_with_engine(
        &mut self,
        prog: &NativeProgram,
        fix: usize,
        mut args: Vec<ArgVal>,
        mut engine: Option<&mut Interpreter>,
    ) -> Result<ArgVal, RuntimeError> {
        let func = &prog.funcs[fix];
        if args.len() != func.params.len() {
            return Err(RuntimeError::Type(format!(
                "{} expected {} arguments, got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let mut frame = match self.frame_pool.pop() {
            Some(mut fr) => {
                self.pool_hits += 1;
                wolfram_runtime::memory::record_frame_hit();
                fr.reset(func);
                fr
            }
            None => {
                self.pool_misses += 1;
                wolfram_runtime::memory::record_frame_miss();
                Frame::new(func)
            }
        };
        let stored = func
            .params
            .iter()
            .zip(args.drain(..))
            .try_for_each(|(slot, arg)| frame.store(*slot, arg));
        self.args = args;
        stored?;
        let out = self.run(prog, func, &mut frame, &mut engine);
        if out.is_err() {
            // Unwind accounting (F7): an abort or runtime error skips the
            // remaining MemoryRelease instructions, but the held values are
            // dropped just below — record those releases so acquire/release
            // accounting stays balanced across unwinds (the serve pool
            // asserts this after deadline-aborted requests).
            for ac in &mut frame.acquired {
                if std::mem::take(ac) {
                    wolfram_runtime::memory::record_release();
                }
            }
        }
        // Drop held values eagerly, then recycle the allocation.
        frame.vals.clear();
        if self.frame_pool.len() < FRAME_POOL_CAP {
            self.frame_pool.push(frame);
        }
        out
    }

    #[allow(clippy::too_many_lines)]
    fn run(
        &mut self,
        prog: &NativeProgram,
        func: &NativeFunc,
        fr: &mut Frame,
        engine: &mut Option<&mut Interpreter>,
    ) -> Result<ArgVal, RuntimeError> {
        let code = &func.code;
        let par = prog.parallel;
        let mut pc = 0usize;
        loop {
            let op = &code[pc];
            pc += 1;
            if let Some(p) = self.profile.as_deref_mut() {
                p.record(op.mnemonic());
            }
            match op {
                RegOp::LdcI { d, v } => fr.ints[*d] = *v,
                RegOp::LdcF { d, v } => fr.flts[*d] = *v,
                RegOp::LdcC { d, re, im } => fr.cpxs[*d] = (*re, *im),
                RegOp::LdcV { d, v } => fr.vals[*d] = clone_cheap(v),
                RegOp::LdcArrayCopy { d, v } => {
                    fr.vals[*d] = match v {
                        Value::Tensor(t) => {
                            let data = t.data().clone();
                            Value::Tensor(Tensor::with_shape(t.shape().to_vec(), data)?)
                        }
                        other => other.clone(),
                    };
                }
                RegOp::MovI { d, s } => fr.ints[*d] = fr.ints[*s],
                RegOp::MovF { d, s } => fr.flts[*d] = fr.flts[*s],
                RegOp::MovC { d, s } => fr.cpxs[*d] = fr.cpxs[*s],
                RegOp::MovV { d, s } => {
                    let v = clone_cheap(&fr.vals[*s]);
                    fr.vals[*d] = v;
                }
                RegOp::TakeV { d, s } => {
                    fr.vals[*d] = std::mem::replace(&mut fr.vals[*s], Value::Null);
                }
                RegOp::IntBin { op, d, a, b } => {
                    let (x, y) = (fr.ints[*a], fr.ints[*b]);
                    fr.ints[*d] = int_bin(*op, x, y)?;
                }
                RegOp::IntBinImm { op, d, a, imm } => {
                    let x = fr.ints[*a];
                    fr.ints[*d] = int_bin(*op, x, *imm)?;
                }
                RegOp::FltBinImm { op, d, a, imm } => {
                    let x = fr.flts[*a];
                    fr.flts[*d] = flt_bin(*op, x, *imm)?;
                }
                RegOp::IntUn { op, d, s } => {
                    let x = fr.ints[*s];
                    fr.ints[*d] = match op {
                        IntUnOp::Neg => checked::neg_i64(x)?,
                        IntUnOp::Abs => checked::abs_i64(x)?,
                        IntUnOp::Not => (x == 0) as i64,
                        IntUnOp::Sign => x.signum(),
                        IntUnOp::Factorial => {
                            if x < 0 {
                                return Err(RuntimeError::Type(
                                    "Factorial of a negative machine integer".into(),
                                ));
                            }
                            let mut acc: i64 = 1;
                            for k in 2..=x {
                                acc = checked::mul_i64(acc, k)?;
                            }
                            acc
                        }
                    };
                }
                RegOp::PowModI { d, a, b, m } => {
                    let (x, y, md) = (fr.ints[*a], fr.ints[*b], fr.ints[*m]);
                    fr.ints[*d] = pow_mod_i64(x, y, md)?;
                }
                RegOp::FltBin { op, d, a, b } => {
                    let (x, y) = (fr.flts[*a], fr.flts[*b]);
                    fr.flts[*d] = flt_bin(*op, x, y)?;
                }
                RegOp::FltCmp { op, d, a, b } => {
                    let (x, y) = (fr.flts[*a], fr.flts[*b]);
                    fr.ints[*d] = flt_cmp(*op, x, y) as i64;
                }
                RegOp::FltUn { op, d, s } => {
                    let x = fr.flts[*s];
                    fr.flts[*d] = match op {
                        FltUnOp::Neg => -x,
                        FltUnOp::Abs => x.abs(),
                        FltUnOp::Sqrt => x.sqrt(),
                        FltUnOp::Sin => x.sin(),
                        FltUnOp::Cos => x.cos(),
                        FltUnOp::Tan => x.tan(),
                        FltUnOp::Exp => x.exp(),
                        FltUnOp::Log => x.ln(),
                        FltUnOp::ArcTan => x.atan(),
                        FltUnOp::ArcSin => x.asin(),
                        FltUnOp::ArcCos => x.acos(),
                        FltUnOp::Sign => {
                            if x > 0.0 {
                                1.0
                            } else if x < 0.0 {
                                -1.0
                            } else {
                                0.0
                            }
                        }
                    };
                }
                RegOp::FloorFI { d, s } => fr.ints[*d] = fr.flts[*s].floor() as i64,
                RegOp::CeilFI { d, s } => fr.ints[*d] = fr.flts[*s].ceil() as i64,
                RegOp::RoundFI { d, s } => {
                    let v = fr.flts[*s];
                    let r = v.round();
                    let r = if (v - v.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                        r - v.signum()
                    } else {
                        r
                    };
                    fr.ints[*d] = r as i64;
                }
                RegOp::IntToFlt { d, s } => fr.flts[*d] = fr.ints[*s] as f64,
                RegOp::IntToCpx { d, s } => fr.cpxs[*d] = (fr.ints[*s] as f64, 0.0),
                RegOp::FltToCpx { d, s } => fr.cpxs[*d] = (fr.flts[*s], 0.0),
                RegOp::CpxBin { op, d, a, b } => {
                    let (x, y) = (fr.cpxs[*a], fr.cpxs[*b]);
                    fr.cpxs[*d] = match op {
                        CpxOp::Add => (x.0 + y.0, x.1 + y.1),
                        CpxOp::Sub => (x.0 - y.0, x.1 - y.1),
                        CpxOp::Mul => checked::mul_complex(x, y),
                        CpxOp::Div => checked::div_complex(x, y),
                    };
                }
                RegOp::CpxPowI { d, a, e } => {
                    let base = fr.cpxs[*a];
                    let exp = fr.ints[*e];
                    let mut acc = (1.0f64, 0.0f64);
                    for _ in 0..exp.unsigned_abs() {
                        acc = checked::mul_complex(acc, base);
                    }
                    if exp < 0 {
                        acc = checked::div_complex((1.0, 0.0), acc);
                    }
                    fr.cpxs[*d] = acc;
                }
                RegOp::CpxAbs { d, s } => {
                    let (re, im) = fr.cpxs[*s];
                    fr.flts[*d] = re.hypot(im);
                }
                RegOp::CpxMake { d, re, im } => fr.cpxs[*d] = (fr.flts[*re], fr.flts[*im]),
                RegOp::CpxRe { d, s } => fr.flts[*d] = fr.cpxs[*s].0,
                RegOp::CpxIm { d, s } => fr.flts[*d] = fr.cpxs[*s].1,
                RegOp::CpxConj { d, s } => {
                    let (re, im) = fr.cpxs[*s];
                    fr.cpxs[*d] = (re, -im);
                }
                RegOp::CpxEq { d, a, b } => {
                    fr.ints[*d] = (fr.cpxs[*a] == fr.cpxs[*b]) as i64;
                }
                RegOp::TenLen { d, t } => {
                    let t = fr.vals[*t].expect_tensor()?;
                    fr.ints[*d] = t.length() as i64;
                }
                RegOp::TenPart1 { kind, d, t, i } => {
                    let ix = fr.ints[*i];
                    let t = fr.vals[*t].expect_tensor()?;
                    let off = t.resolve_index(ix)?;
                    match (kind, t.data()) {
                        (ElemKind::I64, TensorData::I64(v)) => fr.ints[*d] = v[off],
                        (ElemKind::F64, TensorData::F64(v)) => fr.flts[*d] = v[off],
                        (ElemKind::F64, TensorData::I64(v)) => fr.flts[*d] = v[off] as f64,
                        (ElemKind::C64, TensorData::Complex(v)) => fr.cpxs[*d] = v[off],
                        _ => return Err(RuntimeError::Type("tensor element kind mismatch".into())),
                    }
                }
                RegOp::TenPart2 { kind, d, t, i, j } => {
                    let (ix, jx) = (fr.ints[*i], fr.ints[*j]);
                    let t = fr.vals[*t].expect_tensor()?;
                    if t.rank() != 2 {
                        return Err(RuntimeError::Type("Part[_,i,j] on non-matrix".into()));
                    }
                    let cols = t.shape()[1];
                    let r = checked::resolve_part_index(ix, t.shape()[0])?;
                    let c = checked::resolve_part_index(jx, cols)?;
                    let off = r * cols + c;
                    match (kind, t.data()) {
                        (ElemKind::I64, TensorData::I64(v)) => fr.ints[*d] = v[off],
                        (ElemKind::F64, TensorData::F64(v)) => fr.flts[*d] = v[off],
                        (ElemKind::F64, TensorData::I64(v)) => fr.flts[*d] = v[off] as f64,
                        (ElemKind::C64, TensorData::Complex(v)) => fr.cpxs[*d] = v[off],
                        _ => return Err(RuntimeError::Type("tensor element kind mismatch".into())),
                    }
                }
                RegOp::TenSet1 { kind, t, i, v } => {
                    let ix = fr.ints[*i];
                    let value = match kind {
                        ElemKind::I64 => ArgVal::I(fr.ints[*v]),
                        ElemKind::F64 => ArgVal::F(fr.flts[*v]),
                        ElemKind::C64 => {
                            let (re, im) = fr.cpxs[*v];
                            ArgVal::C(re, im)
                        }
                    };
                    let Value::Tensor(tensor) = &mut fr.vals[*t] else {
                        return Err(RuntimeError::Type("SetPart on non-tensor".into()));
                    };
                    let off = tensor.resolve_index(ix)?;
                    tensor_store(tensor, off, value)?;
                }
                RegOp::TenSet2 { kind, t, i, j, v } => {
                    let (ix, jx) = (fr.ints[*i], fr.ints[*j]);
                    let value = match kind {
                        ElemKind::I64 => ArgVal::I(fr.ints[*v]),
                        ElemKind::F64 => ArgVal::F(fr.flts[*v]),
                        ElemKind::C64 => {
                            let (re, im) = fr.cpxs[*v];
                            ArgVal::C(re, im)
                        }
                    };
                    let Value::Tensor(tensor) = &mut fr.vals[*t] else {
                        return Err(RuntimeError::Type("SetPart on non-tensor".into()));
                    };
                    if tensor.rank() != 2 {
                        return Err(RuntimeError::Type("SetPart2 on non-matrix".into()));
                    }
                    let cols = tensor.shape()[1];
                    let r = checked::resolve_part_index(ix, tensor.shape()[0])?;
                    let c = checked::resolve_part_index(jx, cols)?;
                    tensor_store(tensor, r * cols + c, value)?;
                }
                RegOp::TenPart1U { kind, d, t, i } => {
                    let ix = fr.ints[*i];
                    let t = fr.vals[*t].expect_tensor()?;
                    let off = unchecked_index(ix, t.length());
                    match (kind, t.data()) {
                        (ElemKind::I64, TensorData::I64(v)) => fr.ints[*d] = v[off],
                        (ElemKind::F64, TensorData::F64(v)) => fr.flts[*d] = v[off],
                        (ElemKind::F64, TensorData::I64(v)) => fr.flts[*d] = v[off] as f64,
                        (ElemKind::C64, TensorData::Complex(v)) => fr.cpxs[*d] = v[off],
                        _ => return Err(RuntimeError::Type("tensor element kind mismatch".into())),
                    }
                }
                RegOp::TenPart2U { kind, d, t, i, j } => {
                    let (ix, jx) = (fr.ints[*i], fr.ints[*j]);
                    let t = fr.vals[*t].expect_tensor()?;
                    let cols = t.shape()[1];
                    let off = unchecked_index(ix, t.shape()[0]) * cols + unchecked_index(jx, cols);
                    match (kind, t.data()) {
                        (ElemKind::I64, TensorData::I64(v)) => fr.ints[*d] = v[off],
                        (ElemKind::F64, TensorData::F64(v)) => fr.flts[*d] = v[off],
                        (ElemKind::F64, TensorData::I64(v)) => fr.flts[*d] = v[off] as f64,
                        (ElemKind::C64, TensorData::Complex(v)) => fr.cpxs[*d] = v[off],
                        _ => return Err(RuntimeError::Type("tensor element kind mismatch".into())),
                    }
                }
                RegOp::TenSet1U { kind, t, i, v } => {
                    let ix = fr.ints[*i];
                    let value = match kind {
                        ElemKind::I64 => ArgVal::I(fr.ints[*v]),
                        ElemKind::F64 => ArgVal::F(fr.flts[*v]),
                        ElemKind::C64 => {
                            let (re, im) = fr.cpxs[*v];
                            ArgVal::C(re, im)
                        }
                    };
                    let Value::Tensor(tensor) = &mut fr.vals[*t] else {
                        return Err(RuntimeError::Type("SetPart on non-tensor".into()));
                    };
                    let off = unchecked_index(ix, tensor.length());
                    tensor_store(tensor, off, value)?;
                }
                RegOp::TenSet2U { kind, t, i, j, v } => {
                    let (ix, jx) = (fr.ints[*i], fr.ints[*j]);
                    let value = match kind {
                        ElemKind::I64 => ArgVal::I(fr.ints[*v]),
                        ElemKind::F64 => ArgVal::F(fr.flts[*v]),
                        ElemKind::C64 => {
                            let (re, im) = fr.cpxs[*v];
                            ArgVal::C(re, im)
                        }
                    };
                    let Value::Tensor(tensor) = &mut fr.vals[*t] else {
                        return Err(RuntimeError::Type("SetPart on non-tensor".into()));
                    };
                    let cols = tensor.shape()[1];
                    let off =
                        unchecked_index(ix, tensor.shape()[0]) * cols + unchecked_index(jx, cols);
                    tensor_store(tensor, off, value)?;
                }
                RegOp::TenFill1 { kind, d, c, n } => {
                    let n = fr.ints[*n].max(0) as usize;
                    let data = match kind {
                        ElemKind::I64 => TensorData::I64(vec![fr.ints[*c]; n]),
                        ElemKind::F64 => TensorData::F64(vec![fr.flts[*c]; n]),
                        ElemKind::C64 => TensorData::Complex(vec![fr.cpxs[*c]; n]),
                    };
                    fr.vals[*d] = Value::Tensor(Tensor::with_shape(vec![n], data)?);
                }
                RegOp::TenFill2 { kind, d, c, n1, n2 } => {
                    let n1v = fr.ints[*n1].max(0) as usize;
                    let n2v = fr.ints[*n2].max(0) as usize;
                    let total = n1v * n2v;
                    let data = match kind {
                        ElemKind::I64 => TensorData::I64(vec![fr.ints[*c]; total]),
                        ElemKind::F64 => TensorData::F64(vec![fr.flts[*c]; total]),
                        ElemKind::C64 => TensorData::Complex(vec![fr.cpxs[*c]; total]),
                    };
                    fr.vals[*d] = Value::Tensor(Tensor::with_shape(vec![n1v, n2v], data)?);
                }
                RegOp::TenBin { op, d, a, b } => {
                    let ta = fr.vals[*a].expect_tensor()?;
                    let tb = fr.vals[*b].expect_tensor()?;
                    fr.vals[*d] = Value::Tensor(tensor_elementwise(*op, ta, tb, par.as_ref())?);
                }
                RegOp::TenScalar {
                    op,
                    kind,
                    d,
                    t,
                    s,
                    rev,
                } => {
                    let sv = match kind {
                        ElemKind::I64 => Value::I64(fr.ints[*s]),
                        ElemKind::F64 => Value::F64(fr.flts[*s]),
                        ElemKind::C64 => {
                            let (re, im) = fr.cpxs[*s];
                            Value::Complex(re, im)
                        }
                    };
                    let ten = fr.vals[*t].expect_tensor()?;
                    fr.vals[*d] = Value::Tensor(tensor_scalar_elementwise(
                        *op,
                        ten,
                        &sv,
                        *rev,
                        par.as_ref(),
                    )?);
                }
                RegOp::TenSetRow { t, i, row } => {
                    let ix = fr.ints[*i];
                    let row_t = fr.vals[*row].expect_tensor()?.clone();
                    let Value::Tensor(tensor) = &mut fr.vals[*t] else {
                        return Err(RuntimeError::Type("SetRow on non-tensor".into()));
                    };
                    if tensor.rank() != 2 || row_t.rank() != 1 {
                        return Err(RuntimeError::Type("SetRow rank mismatch".into()));
                    }
                    let cols = tensor.shape()[1];
                    if row_t.length() != cols {
                        return Err(RuntimeError::Type("SetRow width mismatch".into()));
                    }
                    let r = checked::resolve_part_index(ix, tensor.shape()[0])?;
                    match (tensor.data_mut(), row_t.data()) {
                        (TensorData::F64(dst), TensorData::F64(src)) => {
                            dst[r * cols..(r + 1) * cols].copy_from_slice(src);
                        }
                        (TensorData::I64(dst), TensorData::I64(src)) => {
                            dst[r * cols..(r + 1) * cols].copy_from_slice(src);
                        }
                        (TensorData::Complex(dst), TensorData::Complex(src)) => {
                            dst[r * cols..(r + 1) * cols].copy_from_slice(src);
                        }
                        _ => return Err(RuntimeError::Type("SetRow element mismatch".into())),
                    }
                }
                RegOp::TenFromList { kind, d, items } => {
                    let data = match kind {
                        ElemKind::I64 => {
                            TensorData::I64(items.iter().map(|&s| fr.ints[s]).collect())
                        }
                        ElemKind::F64 => {
                            TensorData::F64(items.iter().map(|&s| fr.flts[s]).collect())
                        }
                        ElemKind::C64 => {
                            TensorData::Complex(items.iter().map(|&s| fr.cpxs[s]).collect())
                        }
                    };
                    fr.vals[*d] = Value::Tensor(Tensor::with_shape(vec![items.len()], data)?);
                }
                RegOp::DotVecF { d, a, b } => {
                    let ta = fr.vals[*a].expect_tensor()?.to_f64_tensor();
                    let tb = fr.vals[*b].expect_tensor()?.to_f64_tensor();
                    let (x, y) = (ta.expect_f64()?, tb.expect_f64()?);
                    if x.len() != y.len() {
                        return Err(RuntimeError::Type("Dot length mismatch".into()));
                    }
                    fr.flts[*d] = match par.as_ref() {
                        Some(cfg) => parallel::dot_f64(cfg, x, y),
                        None => wolfram_runtime::linalg::ddot(x, y),
                    };
                }
                RegOp::DotVecI { d, a, b } => {
                    let ta = fr.vals[*a].expect_tensor()?;
                    let tb = fr.vals[*b].expect_tensor()?;
                    let (Some(x), Some(y)) = (ta.as_i64(), tb.as_i64()) else {
                        return Err(RuntimeError::Type("integer Dot on non-integer".into()));
                    };
                    if x.len() != y.len() {
                        return Err(RuntimeError::Type("Dot length mismatch".into()));
                    }
                    let mut acc = 0i64;
                    for (p, q) in x.iter().zip(y) {
                        acc = checked::add_i64(acc, checked::mul_i64(*p, *q)?)?;
                    }
                    fr.ints[*d] = acc;
                }
                RegOp::DotMat { d, a, b } => {
                    let ta = fr.vals[*a].expect_tensor()?.to_f64_tensor();
                    let tb = fr.vals[*b].expect_tensor()?.to_f64_tensor();
                    if ta.rank() != 2 || tb.rank() != 2 || ta.shape()[1] != tb.shape()[0] {
                        return Err(RuntimeError::Type("Dot shape mismatch".into()));
                    }
                    let (m, k, n) = (ta.shape()[0], ta.shape()[1], tb.shape()[1]);
                    let mut out = vec![0.0; m * n];
                    match par.as_ref() {
                        Some(cfg) => {
                            parallel::dgemm(
                                cfg,
                                ta.expect_f64()?,
                                tb.expect_f64()?,
                                &mut out,
                                m,
                                k,
                                n,
                            );
                        }
                        None => {
                            wolfram_runtime::linalg::dgemm(
                                ta.expect_f64()?,
                                tb.expect_f64()?,
                                &mut out,
                                m,
                                k,
                                n,
                            );
                        }
                    }
                    fr.vals[*d] =
                        Value::Tensor(Tensor::with_shape(vec![m, n], TensorData::F64(out))?);
                }
                RegOp::DotMatVec { d, a, b } => {
                    let ta = fr.vals[*a].expect_tensor()?.to_f64_tensor();
                    let tb = fr.vals[*b].expect_tensor()?.to_f64_tensor();
                    if ta.rank() != 2 || tb.rank() != 1 || ta.shape()[1] != tb.length() {
                        return Err(RuntimeError::Type("Dot shape mismatch".into()));
                    }
                    let (m, n) = (ta.shape()[0], ta.shape()[1]);
                    let mut out = vec![0.0; m];
                    match par.as_ref() {
                        Some(cfg) => {
                            parallel::dgemv(
                                cfg,
                                ta.expect_f64()?,
                                tb.expect_f64()?,
                                &mut out,
                                m,
                                n,
                            );
                        }
                        None => {
                            wolfram_runtime::linalg::dgemv(
                                ta.expect_f64()?,
                                tb.expect_f64()?,
                                &mut out,
                                m,
                                n,
                            );
                        }
                    }
                    fr.vals[*d] = Value::Tensor(Tensor::from_f64(out));
                }
                RegOp::StrLen { d, s } => {
                    let s = fr.vals[*s].expect_str()?;
                    fr.ints[*d] = s.chars().count() as i64;
                }
                RegOp::StrToCodes { d, s } => {
                    let s = fr.vals[*s].expect_str()?;
                    let codes: Vec<i64> = s.bytes().map(|b| b as i64).collect();
                    fr.vals[*d] = Value::Tensor(Tensor::from_i64(codes));
                }
                RegOp::StrFromCodes { d, s } => {
                    let t = fr.vals[*s].expect_tensor()?;
                    let Some(codes) = t.as_i64() else {
                        return Err(RuntimeError::Type("FromCharacterCode codes".into()));
                    };
                    let mut out = String::new();
                    for &c in codes {
                        let ch = u32::try_from(c)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or_else(|| RuntimeError::Type(format!("invalid char code {c}")))?;
                        out.push(ch);
                    }
                    fr.vals[*d] = Value::Str(Arc::new(out));
                }
                RegOp::StrJoin { d, a, b } => {
                    let x = fr.vals[*a].expect_str()?;
                    let y = fr.vals[*b].expect_str()?;
                    let mut out = String::with_capacity(x.len() + y.len());
                    out.push_str(x);
                    out.push_str(y);
                    fr.vals[*d] = Value::Str(Arc::new(out));
                }
                RegOp::ExprBin { op, d, a, b } => {
                    let x = fr.vals[*a].to_expr();
                    let y = fr.vals[*b].to_expr();
                    let head = match op {
                        ExprOp::Plus => "Plus",
                        ExprOp::Times => "Times",
                        ExprOp::Subtract => "Subtract",
                        ExprOp::Power => "Power",
                    };
                    let combined = Expr::call(head, [x, y]);
                    // Threaded interpretation: one normalization step via
                    // the hosting engine's evaluator.
                    let result = match engine.as_deref_mut() {
                        Some(eng) => eng.eval(&combined)?,
                        None => {
                            return Err(RuntimeError::Other(
                                "symbolic operations require a hosting Wolfram Engine".into(),
                            ))
                        }
                    };
                    fr.vals[*d] = Value::Expr(result);
                }
                RegOp::ExprUnary { head, d, a } => {
                    let x = fr.vals[*a].to_expr();
                    let combined = Expr::call(head, [x]);
                    let result = match engine.as_deref_mut() {
                        Some(eng) => eng.eval(&combined)?,
                        None => {
                            return Err(RuntimeError::Other(
                                "symbolic operations require a hosting Wolfram Engine".into(),
                            ))
                        }
                    };
                    fr.vals[*d] = Value::Expr(result);
                }
                RegOp::BoolToExpr { d, s } => {
                    fr.vals[*d] = Value::Expr(Expr::bool(fr.ints[*s] != 0));
                }
                RegOp::BoxIV { d, s } => {
                    fr.vals[*d] = Value::I64(fr.ints[*s]);
                }
                RegOp::BoxFV { d, s } => {
                    fr.vals[*d] = Value::F64(fr.flts[*s]);
                }
                RegOp::BoxCV { d, s } => {
                    let (re, im) = fr.cpxs[*s];
                    fr.vals[*d] = Value::Complex(re, im);
                }
                RegOp::RndUnit { d } => fr.flts[*d] = self.next_f64(),
                RegOp::RndRange { d, a, b } => {
                    let (lo, hi) = (fr.flts[*a], fr.flts[*b]);
                    fr.flts[*d] = lo + (hi - lo) * self.next_f64();
                }
                RegOp::MakeClosure { d, f, captures } => {
                    let caps: Vec<Value> = captures
                        .iter()
                        .map(|s| fr.load(*s).into_value(false))
                        .collect();
                    fr.vals[*d] = Value::Function(Arc::new(FunctionValue {
                        name: Arc::from(prog.funcs[*f].name.as_str()),
                        index: *f,
                        captures: caps,
                    }));
                }
                RegOp::CallFunc { f, args, ret } => {
                    let argv: Vec<ArgVal> = args.iter().map(|s| fr.load(*s)).collect();
                    let out = self.call_with_engine(prog, *f, argv, engine.as_deref_mut())?;
                    fr.store(*ret, out)?;
                }
                RegOp::CallValue { fv, args, ret } => {
                    let fval = fr.vals[*fv].expect_function()?.clone();
                    let mut argv: Vec<ArgVal> =
                        fval.captures.iter().map(|c| ArgVal::V(c.clone())).collect();
                    // Marshal each arg into the callee's expected bank.
                    let callee = &prog.funcs[fval.index];
                    let skip = argv.len();
                    for (s, param) in args.iter().zip(callee.params.iter().skip(skip)) {
                        let raw = fr.load(*s);
                        let v = match (param.bank, raw) {
                            (Bank::V, ArgVal::V(v)) => ArgVal::V(v),
                            (_, other) => other,
                        };
                        argv.push(v);
                    }
                    // Captures must be re-marshaled from boxed to banks.
                    let mut marshaled = Vec::with_capacity(argv.len());
                    for (v, param) in argv.into_iter().zip(callee.params.iter()) {
                        marshaled.push(match v {
                            ArgVal::V(boxed) if param.bank != Bank::V => {
                                ArgVal::from_value(&boxed, param.bank)?
                            }
                            other => other,
                        });
                    }
                    let out =
                        self.call_with_engine(prog, fval.index, marshaled, engine.as_deref_mut())?;
                    fr.store(*ret, out)?;
                }
                RegOp::CallKernel { head, args, ret } => {
                    let Some(eng) = engine.as_deref_mut() else {
                        return Err(RuntimeError::Other(
                            "KernelFunction requires a hosting Wolfram Engine (disabled in \
                             standalone mode)"
                                .into(),
                        ));
                    };
                    let arg_exprs: Vec<Expr> = args
                        .iter()
                        .map(|s| fr.load(*s).into_value(false).to_expr())
                        .collect();
                    let call = Expr::call(head, arg_exprs);
                    let result = eng.eval(&call)?;
                    fr.store(*ret, ArgVal::V(Value::from_expr(&result)))?;
                }
                RegOp::Jmp { pc: t } => pc = *t,
                RegOp::Brz { c, pc: t } => {
                    if fr.ints[*c] == 0 {
                        pc = *t;
                    }
                }
                RegOp::BrCmpIFalse { op, a, b, d, pc: t } => {
                    let v = int_bin(*op, fr.ints[*a as usize], fr.ints[*b as usize])?;
                    fr.ints[*d as usize] = v;
                    if v == 0 {
                        pc = *t as usize;
                    }
                }
                RegOp::BrCmpFFalse { op, a, b, d, pc: t } => {
                    let cond = flt_cmp(*op, fr.flts[*a as usize], fr.flts[*b as usize]);
                    fr.ints[*d as usize] = cond as i64;
                    if !cond {
                        pc = *t as usize;
                    }
                }
                RegOp::BrCmpISel {
                    op,
                    a,
                    b,
                    d,
                    pc_false,
                    pc_true,
                } => {
                    let v = int_bin(*op, fr.ints[*a as usize], fr.ints[*b as usize])?;
                    fr.ints[*d as usize] = v;
                    pc = if v == 0 {
                        *pc_false as usize
                    } else {
                        *pc_true as usize
                    };
                }
                RegOp::BrCmpFSel {
                    op,
                    a,
                    b,
                    d,
                    pc_false,
                    pc_true,
                } => {
                    let cond = flt_cmp(*op, fr.flts[*a as usize], fr.flts[*b as usize]);
                    fr.ints[*d as usize] = cond as i64;
                    pc = if cond {
                        *pc_true as usize
                    } else {
                        *pc_false as usize
                    };
                }
                RegOp::BrzJmp { c, pc_z, pc_nz } => {
                    pc = if fr.ints[*c as usize] == 0 {
                        *pc_z as usize
                    } else {
                        *pc_nz as usize
                    };
                }
                RegOp::IntBin2 {
                    op1,
                    d1,
                    a1,
                    b1,
                    op2,
                    d2,
                    a2,
                    b2,
                } => {
                    fr.ints[*d1 as usize] =
                        int_bin(*op1, fr.ints[*a1 as usize], fr.ints[*b1 as usize])?;
                    fr.ints[*d2 as usize] =
                        int_bin(*op2, fr.ints[*a2 as usize], fr.ints[*b2 as usize])?;
                }
                RegOp::IntBinImm2 {
                    op1,
                    d1,
                    a1,
                    imm1,
                    op2,
                    d2,
                    a2,
                    imm2,
                } => {
                    fr.ints[*d1 as usize] = int_bin(*op1, fr.ints[*a1 as usize], *imm1 as i64)?;
                    fr.ints[*d2 as usize] = int_bin(*op2, fr.ints[*a2 as usize], *imm2 as i64)?;
                }
                RegOp::IntBinImmJmp {
                    op,
                    d,
                    a,
                    imm,
                    pc: t,
                } => {
                    fr.ints[*d as usize] = int_bin(*op, fr.ints[*a as usize], *imm as i64)?;
                    pc = *t as usize;
                }
                RegOp::FltBin2 {
                    op1,
                    d1,
                    a1,
                    b1,
                    op2,
                    d2,
                    a2,
                    b2,
                } => {
                    fr.flts[*d1 as usize] =
                        flt_bin(*op1, fr.flts[*a1 as usize], fr.flts[*b1 as usize])?;
                    fr.flts[*d2 as usize] =
                        flt_bin(*op2, fr.flts[*a2 as usize], fr.flts[*b2 as usize])?;
                }
                RegOp::TenPart1IntBin {
                    e,
                    t,
                    i,
                    op,
                    d,
                    a,
                    b,
                } => {
                    let ix = fr.ints[*i as usize];
                    let tt = fr.vals[*t as usize].expect_tensor()?;
                    let off = tt.resolve_index(ix)?;
                    let TensorData::I64(v) = tt.data() else {
                        return Err(RuntimeError::Type("tensor element kind mismatch".into()));
                    };
                    fr.ints[*e as usize] = v[off];
                    fr.ints[*d as usize] =
                        int_bin(*op, fr.ints[*a as usize], fr.ints[*b as usize])?;
                }
                RegOp::TenPart1IntBinImm {
                    e,
                    t,
                    i,
                    op,
                    d,
                    a,
                    imm,
                } => {
                    let ix = fr.ints[*i as usize];
                    let tt = fr.vals[*t as usize].expect_tensor()?;
                    let off = tt.resolve_index(ix)?;
                    let TensorData::I64(v) = tt.data() else {
                        return Err(RuntimeError::Type("tensor element kind mismatch".into()));
                    };
                    fr.ints[*e as usize] = v[off];
                    fr.ints[*d as usize] = int_bin(*op, fr.ints[*a as usize], *imm as i64)?;
                }
                RegOp::TenPart2FltBin {
                    e,
                    t,
                    i,
                    j,
                    op,
                    d,
                    a,
                    b,
                } => {
                    let (ix, jx) = (fr.ints[*i as usize], fr.ints[*j as usize]);
                    let tt = fr.vals[*t as usize].expect_tensor()?;
                    if tt.rank() != 2 {
                        return Err(RuntimeError::Type("Part[_,i,j] on non-matrix".into()));
                    }
                    let cols = tt.shape()[1];
                    let r = checked::resolve_part_index(ix, tt.shape()[0])?;
                    let c = checked::resolve_part_index(jx, cols)?;
                    let off = r * cols + c;
                    fr.flts[*e as usize] = match tt.data() {
                        TensorData::F64(v) => v[off],
                        TensorData::I64(v) => v[off] as f64,
                        _ => return Err(RuntimeError::Type("tensor element kind mismatch".into())),
                    };
                    fr.flts[*d as usize] =
                        flt_bin(*op, fr.flts[*a as usize], fr.flts[*b as usize])?;
                }
                RegOp::TakeVTenSet1 {
                    dv,
                    sv,
                    kind,
                    t,
                    i,
                    v,
                } => {
                    fr.vals[*dv as usize] =
                        std::mem::replace(&mut fr.vals[*sv as usize], Value::Null);
                    let ix = fr.ints[*i as usize];
                    let value = match kind {
                        ElemKind::I64 => ArgVal::I(fr.ints[*v as usize]),
                        ElemKind::F64 => ArgVal::F(fr.flts[*v as usize]),
                        ElemKind::C64 => {
                            let (re, im) = fr.cpxs[*v as usize];
                            ArgVal::C(re, im)
                        }
                    };
                    let Value::Tensor(tensor) = &mut fr.vals[*t as usize] else {
                        return Err(RuntimeError::Type("SetPart on non-tensor".into()));
                    };
                    let off = tensor.resolve_index(ix)?;
                    tensor_store(tensor, off, value)?;
                }
                RegOp::TakeVTenSet2 {
                    dv,
                    sv,
                    kind,
                    t,
                    i,
                    j,
                    v,
                } => {
                    fr.vals[*dv as usize] =
                        std::mem::replace(&mut fr.vals[*sv as usize], Value::Null);
                    let (ix, jx) = (fr.ints[*i as usize], fr.ints[*j as usize]);
                    let value = match kind {
                        ElemKind::I64 => ArgVal::I(fr.ints[*v as usize]),
                        ElemKind::F64 => ArgVal::F(fr.flts[*v as usize]),
                        ElemKind::C64 => {
                            let (re, im) = fr.cpxs[*v as usize];
                            ArgVal::C(re, im)
                        }
                    };
                    let Value::Tensor(tensor) = &mut fr.vals[*t as usize] else {
                        return Err(RuntimeError::Type("SetPart on non-tensor".into()));
                    };
                    if tensor.rank() != 2 {
                        return Err(RuntimeError::Type("SetPart2 on non-matrix".into()));
                    }
                    let cols = tensor.shape()[1];
                    let r = checked::resolve_part_index(ix, tensor.shape()[0])?;
                    let c = checked::resolve_part_index(jx, cols)?;
                    tensor_store(tensor, r * cols + c, value)?;
                }
                RegOp::TenPart1IntBinU {
                    e,
                    t,
                    i,
                    op,
                    d,
                    a,
                    b,
                } => {
                    let ix = fr.ints[*i as usize];
                    let tt = fr.vals[*t as usize].expect_tensor()?;
                    let off = unchecked_index(ix, tt.length());
                    let TensorData::I64(v) = tt.data() else {
                        return Err(RuntimeError::Type("tensor element kind mismatch".into()));
                    };
                    fr.ints[*e as usize] = v[off];
                    fr.ints[*d as usize] =
                        int_bin(*op, fr.ints[*a as usize], fr.ints[*b as usize])?;
                }
                RegOp::TenPart1IntBinImmU {
                    e,
                    t,
                    i,
                    op,
                    d,
                    a,
                    imm,
                } => {
                    let ix = fr.ints[*i as usize];
                    let tt = fr.vals[*t as usize].expect_tensor()?;
                    let off = unchecked_index(ix, tt.length());
                    let TensorData::I64(v) = tt.data() else {
                        return Err(RuntimeError::Type("tensor element kind mismatch".into()));
                    };
                    fr.ints[*e as usize] = v[off];
                    fr.ints[*d as usize] = int_bin(*op, fr.ints[*a as usize], *imm as i64)?;
                }
                RegOp::TenPart2FltBinU {
                    e,
                    t,
                    i,
                    j,
                    op,
                    d,
                    a,
                    b,
                } => {
                    let (ix, jx) = (fr.ints[*i as usize], fr.ints[*j as usize]);
                    let tt = fr.vals[*t as usize].expect_tensor()?;
                    let cols = tt.shape()[1];
                    let off = unchecked_index(ix, tt.shape()[0]) * cols + unchecked_index(jx, cols);
                    fr.flts[*e as usize] = match tt.data() {
                        TensorData::F64(v) => v[off],
                        TensorData::I64(v) => v[off] as f64,
                        _ => return Err(RuntimeError::Type("tensor element kind mismatch".into())),
                    };
                    fr.flts[*d as usize] =
                        flt_bin(*op, fr.flts[*a as usize], fr.flts[*b as usize])?;
                }
                RegOp::TakeVTenSet2U {
                    dv,
                    sv,
                    kind,
                    t,
                    i,
                    j,
                    v,
                } => {
                    fr.vals[*dv as usize] =
                        std::mem::replace(&mut fr.vals[*sv as usize], Value::Null);
                    let (ix, jx) = (fr.ints[*i as usize], fr.ints[*j as usize]);
                    let value = match kind {
                        ElemKind::I64 => ArgVal::I(fr.ints[*v as usize]),
                        ElemKind::F64 => ArgVal::F(fr.flts[*v as usize]),
                        ElemKind::C64 => {
                            let (re, im) = fr.cpxs[*v as usize];
                            ArgVal::C(re, im)
                        }
                    };
                    let Value::Tensor(tensor) = &mut fr.vals[*t as usize] else {
                        return Err(RuntimeError::Type("SetPart on non-tensor".into()));
                    };
                    let cols = tensor.shape()[1];
                    let off =
                        unchecked_index(ix, tensor.shape()[0]) * cols + unchecked_index(jx, cols);
                    tensor_store(tensor, off, value)?;
                }
                RegOp::MovIJmp { d, s, pc: t } => {
                    fr.ints[*d as usize] = fr.ints[*s as usize];
                    pc = *t as usize;
                }
                RegOp::Mov2I { d1, s1, d2, s2 } => {
                    fr.ints[*d1 as usize] = fr.ints[*s1 as usize];
                    fr.ints[*d2 as usize] = fr.ints[*s2 as usize];
                }
                RegOp::Mov2IJmp {
                    d1,
                    s1,
                    d2,
                    s2,
                    pc: t,
                } => {
                    fr.ints[*d1 as usize] = fr.ints[*s1 as usize];
                    fr.ints[*d2 as usize] = fr.ints[*s2 as usize];
                    pc = *t as usize;
                }
                RegOp::Release2 { v1, v2 } => {
                    for v in [*v1 as usize, *v2 as usize] {
                        if fr.acquired[v] {
                            wolfram_runtime::memory::record_release();
                            fr.acquired[v] = false;
                        }
                    }
                }
                RegOp::AbortBrCmpISel {
                    op,
                    a,
                    b,
                    d,
                    pc_false,
                    pc_true,
                } => {
                    self.abort.check()?;
                    let v = int_bin(*op, fr.ints[*a as usize], fr.ints[*b as usize])?;
                    fr.ints[*d as usize] = v;
                    pc = if v == 0 {
                        *pc_false as usize
                    } else {
                        *pc_true as usize
                    };
                }
                RegOp::AbortBrCmpIFalse { op, a, b, d, pc: t } => {
                    self.abort.check()?;
                    let v = int_bin(*op, fr.ints[*a as usize], fr.ints[*b as usize])?;
                    fr.ints[*d as usize] = v;
                    if v == 0 {
                        pc = *t as usize;
                    }
                }
                RegOp::IntBinImmMovI {
                    op,
                    d,
                    a,
                    imm,
                    d2,
                    s2,
                } => {
                    fr.ints[*d as usize] = int_bin(*op, fr.ints[*a as usize], *imm as i64)?;
                    fr.ints[*d2 as usize] = fr.ints[*s2 as usize];
                }
                RegOp::MovCJmp { d, s, pc: t } => {
                    fr.cpxs[*d as usize] = fr.cpxs[*s as usize];
                    pc = *t as usize;
                }
                RegOp::IntBinImmMov2IJmp {
                    op,
                    d,
                    a,
                    imm,
                    d2,
                    s2,
                    d3,
                    s3,
                    pc: t,
                } => {
                    fr.ints[*d as usize] = int_bin(*op, fr.ints[*a as usize], *imm as i64)?;
                    fr.ints[*d2 as usize] = fr.ints[*s2 as usize];
                    fr.ints[*d3 as usize] = fr.ints[*s3 as usize];
                    pc = *t as usize;
                }
                RegOp::FltCmpMovI {
                    op,
                    d,
                    a,
                    b,
                    d2,
                    s2,
                } => {
                    fr.ints[*d as usize] =
                        flt_cmp(*op, fr.flts[*a as usize], fr.flts[*b as usize]) as i64;
                    fr.ints[*d2 as usize] = fr.ints[*s2 as usize];
                }
                RegOp::FltCmpMovIJmp {
                    op,
                    d,
                    a,
                    b,
                    d2,
                    s2,
                    pc: t,
                } => {
                    fr.ints[*d as usize] =
                        flt_cmp(*op, fr.flts[*a as usize], fr.flts[*b as usize]) as i64;
                    fr.ints[*d2 as usize] = fr.ints[*s2 as usize];
                    pc = *t as usize;
                }
                RegOp::AbortCheck => self.abort.check()?,
                RegOp::VecLoop { plan } => {
                    if let Some(cfg) = par.as_ref() {
                        crate::vectorize::exec_batch(
                            plan,
                            cfg,
                            &self.abort,
                            &mut fr.ints,
                            &fr.flts,
                            &mut fr.vals,
                        )?;
                    }
                }
                RegOp::Acquire { v } => {
                    if fr.vals[*v].is_managed() {
                        wolfram_runtime::memory::record_acquire();
                        fr.acquired[*v] = true;
                    }
                }
                RegOp::Release { v } => {
                    // Balanced with the acquire even if the value has been
                    // moved out of the slot meanwhile (TakeV).
                    if fr.acquired[*v] {
                        wolfram_runtime::memory::record_release();
                        fr.acquired[*v] = false;
                    }
                }
                RegOp::Ret { s } => return Ok(fr.load(*s)),
                RegOp::RetNull => return Ok(ArgVal::V(Value::Null)),
            }
        }
    }
}

/// Resolves a 1-based, possibly negative Part index whose validity the
/// interval analysis proved at compile time: sign resolution only, no
/// range check. If a proof were ever wrong, the subsequent slice access
/// still panics safely (no undefined behavior) instead of reading out of
/// bounds.
#[inline(always)]
fn unchecked_index(ix: i64, len: usize) -> usize {
    if ix > 0 {
        (ix - 1) as usize
    } else {
        (len as i64 + ix) as usize
    }
}

fn int_bin(op: IntOp, x: i64, y: i64) -> Result<i64, RuntimeError> {
    Ok(match op {
        IntOp::Add => checked::add_i64(x, y)?,
        IntOp::Sub => checked::sub_i64(x, y)?,
        IntOp::Mul => checked::mul_i64(x, y)?,
        // The range analysis proved these cannot overflow; wrapping is
        // only a belt-and-braces way to avoid the branch.
        IntOp::AddU => x.wrapping_add(y),
        IntOp::SubU => x.wrapping_sub(y),
        IntOp::MulU => x.wrapping_mul(y),
        // Exact flooring division via the shared checked helper. The f64
        // round-trip this replaces lost precision above 2^53 and saturated
        // on `i64::MIN / -1` instead of raising overflow — both silent
        // divergences from the interpreter.
        IntOp::Quot => checked::quotient_i64(x, y)?,
        IntOp::Mod => checked::mod_i64(x, y)?,
        IntOp::Pow => checked::pow_i64(x, y)?,
        IntOp::Min => x.min(y),
        IntOp::Max => x.max(y),
        IntOp::Gcd => {
            let (mut a, mut b) = (x.unsigned_abs(), y.unsigned_abs());
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a as i64
        }
        IntOp::BitAnd => x & y,
        IntOp::BitOr => x | y,
        IntOp::BitXor => x ^ y,
        IntOp::Shl => x
            .checked_shl(y as u32)
            .ok_or(RuntimeError::IntegerOverflow)?,
        IntOp::Shr => x >> y.clamp(0, 63),
        IntOp::Lt => (x < y) as i64,
        IntOp::Le => (x <= y) as i64,
        IntOp::Gt => (x > y) as i64,
        IntOp::Ge => (x >= y) as i64,
        IntOp::Eq => (x == y) as i64,
        IntOp::Ne => (x != y) as i64,
        IntOp::And => ((x != 0) && (y != 0)) as i64,
        IntOp::Or => ((x != 0) || (y != 0)) as i64,
    })
}

#[inline(always)]
fn flt_bin(op: FltOp, x: f64, y: f64) -> Result<f64, RuntimeError> {
    Ok(match op {
        FltOp::Add => x + y,
        FltOp::Sub => x - y,
        FltOp::Mul => x * y,
        FltOp::Div => {
            if y == 0.0 {
                return Err(RuntimeError::DivideByZero);
            }
            x / y
        }
        FltOp::Pow => x.powf(y),
        FltOp::Mod => {
            if y == 0.0 {
                return Err(RuntimeError::DivideByZero);
            }
            x - y * (x / y).floor()
        }
        FltOp::Min => x.min(y),
        FltOp::Max => x.max(y),
        FltOp::ArcTan2 => y.atan2(x),
    })
}

#[inline(always)]
fn flt_cmp(op: CmpCode, x: f64, y: f64) -> bool {
    match op {
        CmpCode::Lt => x < y,
        CmpCode::Le => x <= y,
        CmpCode::Gt => x > y,
        CmpCode::Ge => x >= y,
        CmpCode::Eq => x == y,
        CmpCode::Ne => x != y,
    }
}

fn pow_mod_i64(base: i64, exp: i64, m: i64) -> Result<i64, RuntimeError> {
    if m <= 0 {
        return Err(RuntimeError::Type(
            "PowerMod modulus must be positive".into(),
        ));
    }
    if exp < 0 {
        return Err(RuntimeError::Type("PowerMod negative exponent".into()));
    }
    let m = m as u128;
    let mut base = (base.rem_euclid(m as i64)) as u128;
    let mut exp = exp as u64;
    let mut acc: u128 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % m;
        }
        base = base * base % m;
        exp >>= 1;
    }
    Ok(acc as i64)
}

fn tensor_store(t: &mut Tensor, off: usize, v: ArgVal) -> Result<(), RuntimeError> {
    match (t.data_mut(), v) {
        (TensorData::I64(data), ArgVal::I(x)) => data[off] = x,
        (TensorData::F64(data), ArgVal::F(x)) => data[off] = x,
        (TensorData::F64(data), ArgVal::I(x)) => data[off] = x as f64,
        (TensorData::Complex(data), ArgVal::C(re, im)) => data[off] = (re, im),
        _ => return Err(RuntimeError::Type("tensor element kind mismatch".into())),
    }
    Ok(())
}

fn tensor_elementwise(
    op: TenOp,
    a: &Tensor,
    b: &Tensor,
    par: Option<&ParallelConfig>,
) -> Result<Tensor, RuntimeError> {
    if a.shape() != b.shape() {
        return Err(RuntimeError::Type("tensor shape mismatch".into()));
    }
    match (a.data(), b.data()) {
        (TensorData::I64(x), TensorData::I64(y)) => {
            let mut out = Vec::with_capacity(x.len());
            for (p, q) in x.iter().zip(y) {
                out.push(match op {
                    TenOp::Add => checked::add_i64(*p, *q)?,
                    TenOp::Sub => checked::sub_i64(*p, *q)?,
                    TenOp::Mul => checked::mul_i64(*p, *q)?,
                });
            }
            Tensor::with_shape(a.shape().to_vec(), TensorData::I64(out))
        }
        (TensorData::Complex(x), TensorData::Complex(y)) => {
            let out: Vec<(f64, f64)> = x
                .iter()
                .zip(y)
                .map(|(p, q)| match op {
                    TenOp::Add => (p.0 + q.0, p.1 + q.1),
                    TenOp::Sub => (p.0 - q.0, p.1 - q.1),
                    TenOp::Mul => checked::mul_complex(*p, *q),
                })
                .collect();
            Tensor::with_shape(a.shape().to_vec(), TensorData::Complex(out))
        }
        // The f64 arm is unchecked IEEE arithmetic, so chunked parallel
        // execution is bit-identical to the sequential loop (the checked
        // integer arm above must stay sequential: first-overflow-wins).
        _ => {
            let fa = a.to_f64_tensor();
            let fb = b.to_f64_tensor();
            let (x, y) = (fa.expect_f64()?, fb.expect_f64()?);
            let sop = ten_simd_op(op);
            let mut out = vec![0.0; x.len()];
            match par {
                Some(cfg) => parallel::zip_f64(cfg, sop, x, y, &mut out),
                None => {
                    for ((o, p), q) in out.iter_mut().zip(x).zip(y) {
                        *o = sop.apply(*p, *q);
                    }
                }
            }
            Tensor::with_shape(a.shape().to_vec(), TensorData::F64(out))
        }
    }
}

/// The [`SimdOp`] carrying the same scalar meaning as a float [`TenOp`].
fn ten_simd_op(op: TenOp) -> SimdOp {
    match op {
        TenOp::Add => SimdOp::Add,
        TenOp::Sub => SimdOp::Sub,
        TenOp::Mul => SimdOp::Mul,
    }
}

fn tensor_scalar_elementwise(
    op: TenOp,
    t: &Tensor,
    s: &Value,
    rev: bool,
    par: Option<&ParallelConfig>,
) -> Result<Tensor, RuntimeError> {
    match (t.data(), s) {
        (TensorData::I64(x), Value::I64(q)) => {
            let mut out = Vec::with_capacity(x.len());
            for p in x {
                let (a, b) = if rev { (*q, *p) } else { (*p, *q) };
                out.push(match op {
                    TenOp::Add => checked::add_i64(a, b)?,
                    TenOp::Sub => checked::sub_i64(a, b)?,
                    TenOp::Mul => checked::mul_i64(a, b)?,
                });
            }
            Tensor::with_shape(t.shape().to_vec(), TensorData::I64(out))
        }
        (TensorData::Complex(x), Value::Complex(re, im)) => {
            let q = (*re, *im);
            let out: Vec<(f64, f64)> = x
                .iter()
                .map(|p| {
                    let (a, b) = if rev { (q, *p) } else { (*p, q) };
                    match op {
                        TenOp::Add => (a.0 + b.0, a.1 + b.1),
                        TenOp::Sub => (a.0 - b.0, a.1 - b.1),
                        TenOp::Mul => checked::mul_complex(a, b),
                    }
                })
                .collect();
            Tensor::with_shape(t.shape().to_vec(), TensorData::Complex(out))
        }
        _ => {
            let ft = t.to_f64_tensor();
            let x = ft.expect_f64()?;
            let q = match s {
                Value::I64(v) => *v as f64,
                Value::F64(v) => *v,
                other => {
                    return Err(RuntimeError::Type(format!(
                        "scalar broadcast with {}",
                        other.type_name()
                    )))
                }
            };
            let sop = ten_simd_op(op);
            let mut out = vec![0.0; x.len()];
            match par {
                Some(cfg) => parallel::map_f64(cfg, sop, x, q, rev, &mut out),
                None => {
                    for (o, p) in out.iter_mut().zip(x) {
                        let (a, b) = if rev { (q, *p) } else { (*p, q) };
                        *o = sop.apply(a, b);
                    }
                }
            }
            Tensor::with_shape(t.shape().to_vec(), TensorData::F64(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onefunc(
        code: Vec<RegOp>,
        params: Vec<Slot>,
        banks: (usize, usize, usize, usize),
    ) -> NativeProgram {
        NativeProgram {
            parallel: None,
            funcs: vec![NativeFunc {
                name: "Main".into(),
                code,
                n_int: banks.0,
                n_flt: banks.1,
                n_cpx: banks.2,
                n_val: banks.3,
                params,
                elision: ElisionCounters::default(),
            }],
        }
    }

    #[test]
    fn add_one() {
        // The appendix's addOne: arg + 1.
        let prog = onefunc(
            vec![
                RegOp::LdcI { d: 1, v: 1 },
                RegOp::IntBin {
                    op: IntOp::Add,
                    d: 2,
                    a: 0,
                    b: 1,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
            ],
            vec![Slot::new(Bank::I, 0)],
            (3, 0, 0, 0),
        );
        let mut m = Machine::standalone();
        let out = m.call(&prog, 0, vec![ArgVal::I(41)]).unwrap();
        assert_eq!(out, ArgVal::I(42));
    }

    #[test]
    fn overflow_is_checked() {
        let prog = onefunc(
            vec![
                RegOp::IntBin {
                    op: IntOp::Add,
                    d: 1,
                    a: 0,
                    b: 0,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 1),
                },
            ],
            vec![Slot::new(Bank::I, 0)],
            (2, 0, 0, 0),
        );
        let mut m = Machine::standalone();
        assert_eq!(
            m.call(&prog, 0, vec![ArgVal::I(i64::MAX)]),
            Err(RuntimeError::IntegerOverflow)
        );
    }

    #[test]
    fn loop_with_abort() {
        // while (true) {} — must unwind on abort.
        let prog = onefunc(
            vec![RegOp::AbortCheck, RegOp::Jmp { pc: 0 }],
            vec![],
            (0, 0, 0, 0),
        );
        let mut m = Machine::standalone();
        m.abort.trigger();
        assert_eq!(m.call(&prog, 0, vec![]), Err(RuntimeError::Aborted));
    }

    #[test]
    fn complex_ops() {
        // |(0+1i)^2| == 1
        let prog = onefunc(
            vec![
                RegOp::LdcC {
                    d: 0,
                    re: 0.0,
                    im: 1.0,
                },
                RegOp::LdcI { d: 0, v: 2 },
                RegOp::CpxPowI { d: 1, a: 0, e: 0 },
                RegOp::CpxAbs { d: 0, s: 1 },
                RegOp::Ret {
                    s: Slot::new(Bank::F, 0),
                },
            ],
            vec![],
            (1, 1, 2, 0),
        );
        let mut m = Machine::standalone();
        assert_eq!(m.call(&prog, 0, vec![]).unwrap(), ArgVal::F(1.0));
    }

    #[test]
    fn tensor_part_and_set() {
        let t = Tensor::from_i64(vec![10, 20, 30]);
        let prog = onefunc(
            vec![
                RegOp::LdcI { d: 0, v: 2 },
                RegOp::LdcI { d: 1, v: 99 },
                RegOp::TenSet1 {
                    kind: ElemKind::I64,
                    t: 0,
                    i: 0,
                    v: 1,
                },
                RegOp::TenPart1 {
                    kind: ElemKind::I64,
                    d: 2,
                    t: 0,
                    i: 0,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
            ],
            vec![Slot::new(Bank::V, 0)],
            (3, 0, 0, 1),
        );
        let mut m = Machine::standalone();
        let alias = t.clone();
        let out = m.call(&prog, 0, vec![ArgVal::V(Value::Tensor(t))]).unwrap();
        assert_eq!(out, ArgVal::I(99));
        // Caller's alias untouched: copy-on-write fired inside the machine.
        assert_eq!(alias.as_i64().unwrap(), &[10, 20, 30]);
    }

    #[test]
    fn closures_and_indirect_calls() {
        // f(x) = x*2; main calls it through a function value.
        let double = NativeFunc {
            name: "double".into(),
            code: vec![
                RegOp::LdcI { d: 1, v: 2 },
                RegOp::IntBin {
                    op: IntOp::Mul,
                    d: 2,
                    a: 0,
                    b: 1,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
            ],
            n_int: 3,
            n_flt: 0,
            n_cpx: 0,
            n_val: 0,
            params: vec![Slot::new(Bank::I, 0)],
            elision: ElisionCounters::default(),
        };
        let main = NativeFunc {
            name: "Main".into(),
            code: vec![
                RegOp::MakeClosure {
                    d: 0,
                    f: 1,
                    captures: vec![],
                },
                RegOp::CallValue {
                    fv: 0,
                    args: Box::new([Slot::new(Bank::I, 0)]),
                    ret: Slot::new(Bank::I, 1),
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 1),
                },
            ],
            n_int: 2,
            n_flt: 0,
            n_cpx: 0,
            n_val: 1,
            params: vec![Slot::new(Bank::I, 0)],
            elision: ElisionCounters::default(),
        };
        let prog = NativeProgram {
            parallel: None,
            funcs: vec![main, double],
        };
        let mut m = Machine::standalone();
        assert_eq!(
            m.call(&prog, 0, vec![ArgVal::I(21)]).unwrap(),
            ArgVal::I(42)
        );
    }

    #[test]
    fn kernel_requires_engine() {
        let prog = onefunc(
            vec![
                RegOp::CallKernel {
                    head: Arc::from("Plus"),
                    args: Box::new([]),
                    ret: Slot::new(Bank::V, 0),
                },
                RegOp::Ret {
                    s: Slot::new(Bank::V, 0),
                },
            ],
            vec![],
            (0, 0, 0, 1),
        );
        let mut m = Machine::standalone();
        assert!(m.call(&prog, 0, vec![]).is_err());
        let mut engine = Interpreter::new();
        let out = m
            .call_with_engine(&prog, 0, vec![], Some(&mut engine))
            .unwrap();
        assert_eq!(out, ArgVal::V(Value::I64(0)));
    }

    #[test]
    fn powmod() {
        assert_eq!(pow_mod_i64(2, 10, 1000).unwrap(), 24);
        assert_eq!(pow_mod_i64(3, 0, 7).unwrap(), 1);
        // Large values route through u128 without overflow.
        assert_eq!(pow_mod_i64(1_000_000_007, 2, 1_000_000_009).unwrap(), 4);
        assert!(pow_mod_i64(2, -1, 7).is_err());
        assert!(pow_mod_i64(2, 3, 0).is_err());
    }
}
