//! The Wolfram Language compiler (§4): the paper's primary contribution.
//!
//! A staged pipeline — `MExpr -> WIR -> TWIR -> code generation` — written
//! as an independently distributable package over the engine substrate:
//!
//! - [`macros`] — the hygienic pattern-based macro system (§4.2) with
//!   `RegisterMacro` and `Conditioned` predicates on compiler options.
//! - [`binding`] — binding analysis over the MExpr visitor API: scoped
//!   variables are renamed apart, scoping constructs desugared, slot
//!   functions named, and escaping variables computed (§4.2).
//! - [`lower`] — direct-to-SSA lowering into WIR (§4.3), with lambda
//!   lifting/closure conversion and automatic `KernelFunction` escapes for
//!   undeclared functions (F9 gradual compilation).
//! - [`infer`] — constraint generation over the WIR and the constraint-
//!   graph solve producing a TWIR (§4.4).
//! - [`resolve`] — function resolution (§4.5): overload selection results
//!   are rewritten to mangled runtime primitives, source implementations
//!   are instantiated at their monomorphic types, and forced/automatic
//!   inlining is applied.
//! - [`pipeline`] — [`Compiler`] / [`CompilerOptions`]: `FunctionCompile`,
//!   per-stage artifacts (`compile_to_ast`, `compile_to_ir`), pass timing,
//!   and the export entry points (F10).
//! - [`engine`] — [`CompiledCodeFunction`]: the auxiliary boxing/unboxing
//!   wrapper (F1), soft numeric failure with interpreter re-run (F2),
//!   abortability (F3), installation into a hosting engine, and the
//!   `FindRoot` auto-compilation hook.

pub mod binding;
pub mod engine;
pub mod infer;
pub mod lower;
pub mod macros;
pub mod pipeline;
pub mod resolve;
pub mod stdlib;

pub use engine::{CompiledArtifact, CompiledCodeFunction, StreamCaller};
pub use macros::{MacroEnvironment, MacroRule};
pub use pipeline::{CompileError, Compiler, CompilerOptions, TargetSystem};
pub use resolve::InlinePolicy;
pub use stdlib::builtin_type_environment;
