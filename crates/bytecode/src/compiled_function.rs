//! `CompiledFunction`: the serialized compiled object, mirroring the
//! paper's §2.2 `InputForm` dump, plus the runtime entry points with soft
//! failure and version checking.

use crate::compile::ArgSpec;
use crate::instr::{Op, VmType};
use crate::vm;
use wolfram_expr::Expr;
use wolfram_interp::Interpreter;
use wolfram_runtime::{AbortSignal, RuntimeError, Value};

/// A bytecode-compiled function.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Compiler version recorded at compile time (paper shows `11`).
    pub compiler_version: u32,
    /// Engine version recorded at compile time (paper shows `12`).
    pub engine_version: u32,
    /// Compile flags word (paper shows `5468`).
    pub flags: u32,
    /// Typed argument specifications.
    pub arg_specs: Vec<ArgSpec>,
    /// The instruction stream.
    pub ops: Vec<Op>,
    /// Number of virtual-machine registers ("Register Allocations").
    pub nregs: usize,
    /// The original input function, kept for the interpreter fallback:
    /// "Functions that fail to compile, or produce a runtime error, are
    /// run using the interpreter."
    pub original: Expr,
}

impl CompiledFunction {
    /// Number of instructions.
    pub fn instruction_count(&self) -> usize {
        self.ops.len()
    }

    /// Runs the compiled code with pre-unboxed values and no engine:
    /// interpreter escapes and soft failure are unavailable.
    ///
    /// # Errors
    ///
    /// Propagates VM runtime errors.
    pub fn run(&self, args: &[Value]) -> Result<Value, RuntimeError> {
        self.run_abortable(args, &AbortSignal::new())
    }

    /// Runs with an abort signal (F3).
    ///
    /// # Errors
    ///
    /// Propagates VM runtime errors, including [`RuntimeError::Aborted`].
    pub fn run_abortable(
        &self,
        args: &[Value],
        abort: &AbortSignal,
    ) -> Result<Value, RuntimeError> {
        self.check_args(args)?;
        vm::execute(&self.ops, self.nregs.max(args.len()), args, abort, None)
    }

    /// Runs hosted in a Wolfram Engine: interpreter escapes work, and a
    /// runtime *numeric* error reverts to uncompiled evaluation (F2).
    ///
    /// # Errors
    ///
    /// Hard errors (aborts, type errors) still propagate.
    pub fn run_with_engine(
        &self,
        args: &[Value],
        engine: &mut Interpreter,
    ) -> Result<Value, RuntimeError> {
        self.check_args(args)?;
        let abort = engine.abort_signal().clone();
        match vm::execute(
            &self.ops,
            self.nregs.max(args.len()),
            args,
            &abort,
            Some(engine),
        ) {
            Ok(v) => Ok(v),
            Err(e) if e.is_numeric() => {
                engine.push_output(format!(
                    "CompiledFunction: a compiled function runtime error occurred; \
                     reverting to uncompiled evaluation: {}",
                    e.tag()
                ));
                self.interpret(args, engine)
            }
            Err(e) => Err(e),
        }
    }

    /// Evaluates the original function in the interpreter (the fallback
    /// path, also used when argument types do not match the specs).
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn interpret(
        &self,
        args: &[Value],
        engine: &mut Interpreter,
    ) -> Result<Value, RuntimeError> {
        // Rebuild Function[{params}, body] and apply.
        let params: Vec<Expr> = self.arg_specs.iter().map(|s| Expr::sym(&s.name)).collect();
        let f = Expr::call("Function", [Expr::list(params), self.original.clone()]);
        let call = Expr::normal(f, args.iter().map(Value::to_expr).collect::<Vec<_>>());
        engine.eval(&call).map(|e| Value::from_expr(&e))
    }

    fn check_args(&self, args: &[Value]) -> Result<(), RuntimeError> {
        if args.len() != self.arg_specs.len() {
            return Err(RuntimeError::Type(format!(
                "CompiledFunction expected {} arguments, got {}",
                self.arg_specs.len(),
                args.len()
            )));
        }
        for (a, spec) in args.iter().zip(&self.arg_specs) {
            check_tag(a, spec.ty)?;
        }
        Ok(())
    }

    /// The serialized representation in the style of the paper's
    /// `InputForm` dump (§2.2).
    pub fn to_input_form(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "CompiledFunction[");
        let _ = writeln!(
            out,
            " {{{}, {}, {}}},(* Compiler, Engine Version, and Compile Flags *)",
            self.compiler_version, self.engine_version, self.flags
        );
        let specs: Vec<String> = self
            .arg_specs
            .iter()
            .map(|s| {
                format!(
                    "_{}",
                    match s.ty {
                        VmType::Int => "Integer",
                        VmType::Real => "Real",
                        VmType::Complex => "Complex",
                        VmType::Bool => "Boolean",
                        _ => "Tensor",
                    }
                )
            })
            .collect();
        let _ = writeln!(out, " {{{}}}, (* Input Arguments *)", specs.join(", "));
        let _ = writeln!(out, " {{{}}}, (* Register Allocations *)", self.nregs);
        let _ = writeln!(out, " {{");
        for op in &self.ops {
            let _ = writeln!(out, "  {op:?},");
        }
        let _ = writeln!(out, " }},");
        let _ = writeln!(
            out,
            " {}, (* Input Function *)",
            self.original.to_input_form()
        );
        let _ = writeln!(out, " Evaluate]");
        out
    }
}

/// Checks one runtime value against a VM type tag (the per-record half
/// of `ArgSpec` validation — everything else is per-stream).
#[inline]
fn check_tag(a: &Value, ty: VmType) -> Result<(), RuntimeError> {
    let ok = match ty {
        VmType::Int => matches!(a, Value::I64(_)),
        VmType::Real => matches!(a, Value::F64(_) | Value::I64(_)),
        VmType::Complex => matches!(a, Value::Complex(..) | Value::F64(_) | Value::I64(_)),
        VmType::Bool => matches!(a, Value::Bool(_)),
        VmType::TensorInt | VmType::TensorReal | VmType::TensorComplex => {
            matches!(a, Value::Tensor(_))
        }
    };
    if ok {
        Ok(())
    } else {
        Err(RuntimeError::Type(format!(
            "argument {} does not match spec {ty:?}",
            a.type_name()
        )))
    }
}

/// A compile-once, call-millions executor over one [`CompiledFunction`]:
/// the bytecode tier's streaming entry.
///
/// [`CompiledFunction::run_abortable`] walks the full `ArgSpec` table and
/// allocates an `nregs`-slot boxed register file on every call. A stream
/// applies one function to every record, so the spec table, register
/// count, and abort signal are fixed per stream: this runner hoists them
/// to construction, keeps a dense `VmType` tag row for the per-record
/// value check (the only part that depends on the record), and reuses one
/// register-file allocation across calls via [`vm::execute_in`].
pub struct StreamRunner {
    cf: std::sync::Arc<CompiledFunction>,
    tags: Vec<VmType>,
    nregs: usize,
    regs: Vec<Value>,
    abort: AbortSignal,
}

impl StreamRunner {
    /// Binds `cf` for streaming, validating the spec table once.
    pub fn new(cf: std::sync::Arc<CompiledFunction>) -> Self {
        let tags: Vec<VmType> = cf.arg_specs.iter().map(|s| s.ty).collect();
        let nregs = cf.nregs.max(tags.len());
        StreamRunner {
            cf,
            tags,
            nregs,
            regs: Vec::new(),
            abort: AbortSignal::new(),
        }
    }

    /// Number of parameters (record fields per event).
    pub fn arity(&self) -> usize {
        self.tags.len()
    }

    /// The abort signal checked between instruction batches; trigger it
    /// to stop a record mid-execution (shutdown, deadlines).
    pub fn abort_signal(&self) -> &AbortSignal {
        &self.abort
    }

    /// Applies the compiled function to one record.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`CompiledFunction::run_abortable`] would
    /// produce for the same arguments.
    pub fn call(&mut self, args: &[Value]) -> Result<Value, RuntimeError> {
        if args.len() != self.tags.len() {
            return Err(RuntimeError::Type(format!(
                "CompiledFunction expected {} arguments, got {}",
                self.tags.len(),
                args.len()
            )));
        }
        for (a, ty) in args.iter().zip(&self.tags) {
            check_tag(a, *ty)?;
        }
        vm::execute_in(
            &self.cf.ops,
            self.nregs,
            args,
            &mut self.regs,
            &self.abort,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::BytecodeCompiler;
    use wolfram_expr::parse;

    fn compile(specs: &[ArgSpec], src: &str) -> CompiledFunction {
        BytecodeCompiler::new()
            .compile(specs, &parse(src).unwrap())
            .unwrap()
    }

    #[test]
    fn soft_failure_reverts_to_interpreter() {
        // Iterative fib overflows machine integers around n = 93; the
        // engine-hosted run falls back and returns the exact bignum (F2).
        let src = "Module[{a = 0, b = 1, k = 0, t = 0},
                     While[k < n, t = a + b; a = b; b = t; k++]; a]";
        let cf = compile(&[ArgSpec::int("n")], src);
        // Pure VM run: hard error.
        assert_eq!(
            cf.run(&[Value::I64(100)]),
            Err(RuntimeError::IntegerOverflow)
        );
        // Hosted run: soft fallback with a warning message.
        let mut engine = Interpreter::new();
        let out = cf.run_with_engine(&[Value::I64(100)], &mut engine).unwrap();
        assert_eq!(out.to_expr().to_full_form(), "354224848179261915075"); // fib(100)
        let warnings = engine.take_output();
        assert!(
            warnings[0].contains("reverting to uncompiled evaluation"),
            "{warnings:?}"
        );
        assert!(warnings[0].contains("IntegerOverflow"));
        // Small inputs stay on the fast path.
        assert_eq!(cf.run(&[Value::I64(10)]).unwrap(), Value::I64(55));
    }

    #[test]
    fn argument_checking() {
        let cf = compile(&[ArgSpec::int("x")], "x + 1");
        assert!(cf.run(&[Value::F64(1.0)]).is_err());
        assert!(cf.run(&[]).is_err());
        assert_eq!(cf.run(&[Value::I64(1)]).unwrap(), Value::I64(2));
    }

    #[test]
    fn input_form_matches_paper_shape() {
        let cf = compile(&[ArgSpec::real("x")], "Sin[x] + E^x");
        let dump = cf.to_input_form();
        assert!(dump.starts_with("CompiledFunction["), "{dump}");
        assert!(dump.contains("Compiler, Engine Version, and Compile Flags"));
        assert!(dump.contains("{_Real}, (* Input Arguments *)"));
        assert!(dump.contains("Register Allocations"));
        assert!(dump.contains("(* Input Function *)"));
    }

    #[test]
    fn stream_runner_matches_one_shot() {
        let cf = compile(
            &[ArgSpec::int("n")],
            "Module[{a = 0, k = 0}, While[k < n, a = a + k; k++]; a]",
        );
        let cf = std::sync::Arc::new(cf);
        let mut runner = StreamRunner::new(cf.clone());
        for n in [0i64, 1, 7, 100] {
            assert_eq!(
                runner.call(&[Value::I64(n)]).unwrap(),
                cf.run(&[Value::I64(n)]).unwrap()
            );
        }
        // Spec violations and arity mismatches still error per record,
        // and an error does not wedge the runner.
        assert!(runner.call(&[Value::F64(1.0)]).is_err());
        assert!(runner.call(&[]).is_err());
        assert_eq!(runner.call(&[Value::I64(3)]).unwrap(), Value::I64(3));
    }

    #[test]
    fn abortable() {
        let cf = compile(&[], "While[True, 1]");
        let abort = AbortSignal::new();
        abort.trigger();
        assert_eq!(cf.run_abortable(&[], &abort), Err(RuntimeError::Aborted));
    }
}
