//! `CompiledCodeFunction` (§4.5): the auxiliary boxing/unboxing wrapper
//! (F1), soft numeric failure with interpreter re-run (F2), abortability
//! (F3), and seamless installation into a hosting engine.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use wolfram_codegen::lower::result_to_value;
use wolfram_codegen::{ArgVal, Bank, Machine, NativeProgram};
use wolfram_expr::Expr;
use wolfram_interp::Interpreter;
use wolfram_ir::ProgramModule;
use wolfram_runtime::value::expr_to_tensor;
use wolfram_runtime::{AbortSignal, RuntimeError, Tensor, Value};
use wolfram_types::Type;

/// A compiled Wolfram function: "To the Wolfram interpreter, all functions
/// have the signature `{"Expression"} -> "Expression"`. Therefore, the
/// compiler wraps each compiled function with an auxiliary function" that
/// unpacks, checks, calls, and repacks.
#[derive(Clone)]
pub struct CompiledCodeFunction {
    /// The original input function (kept for fallback and re-export, like
    /// the legacy `CompiledFunction`).
    pub original: Expr,
    /// The TWIR module (inspectable; feeds the textual backends).
    pub module: Arc<ProgramModule>,
    /// The executable program.
    pub program: Arc<NativeProgram>,
    /// Checked parameter types.
    pub param_types: Vec<Type>,
    /// The return type.
    pub return_type: Type,
    /// The hosting engine, if any (enables kernel escapes, symbolic ops,
    /// and the soft-failure fallback).
    pub engine: Option<Rc<RefCell<Interpreter>>>,
    /// Standalone mode (F10): engine-dependent functionality is disabled.
    pub standalone: bool,
    /// The abort signal used for standalone calls.
    pub abort: AbortSignal,
    /// A cached execution machine (frame pool and argument buffer reuse
    /// across calls); falls back to a fresh machine on re-entrant calls.
    machine: Rc<RefCell<Machine>>,
}

impl std::fmt::Debug for CompiledCodeFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledCodeFunction[{} -> {}]",
            self.param_types
                .iter()
                .map(Type::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            self.return_type
        )
    }
}

/// The immutable, shareable product of one compilation: everything in a
/// [`CompiledCodeFunction`] *except* the thread-confined execution state
/// (hosting engine, abort signal, machine).
///
/// This is the `Send + Sync` handle a serving layer caches and hands
/// across threads — one compilation is observed by every worker, which
/// rebinds it locally with [`CompiledArtifact::instantiate`] (or
/// [`CompiledArtifact::instantiate_hosted`] to attach an engine). The
/// compiled payload (`ProgramModule`, `NativeProgram`, embedded constant
/// `Value`s) is never copied: instantiation is two `Arc` bumps plus a
/// fresh machine.
#[derive(Clone)]
pub struct CompiledArtifact {
    /// The original input function.
    pub original: Expr,
    /// The TWIR module.
    pub module: Arc<ProgramModule>,
    /// The executable program.
    pub program: Arc<NativeProgram>,
    /// Checked parameter types.
    pub param_types: Vec<Type>,
    /// The return type.
    pub return_type: Type,
}

impl std::fmt::Debug for CompiledArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledArtifact[{} -> {}]",
            self.param_types
                .iter()
                .map(Type::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            self.return_type
        )
    }
}

impl CompiledArtifact {
    /// Rebinds the artifact to the calling thread as a standalone
    /// function (fresh abort signal, fresh machine, no engine).
    pub fn instantiate(&self) -> CompiledCodeFunction {
        CompiledCodeFunction::bind(
            self.original.clone(),
            Arc::clone(&self.module),
            Arc::clone(&self.program),
            self.param_types.clone(),
            self.return_type.clone(),
        )
    }

    /// Rebinds the artifact to the calling thread, hosted in `engine`
    /// (kernel escapes, soft-failure fallback, shared abort signal).
    pub fn instantiate_hosted(&self, engine: Rc<RefCell<Interpreter>>) -> CompiledCodeFunction {
        self.instantiate().hosted(engine)
    }
}

/// A stream's handle on a [`CompiledArtifact`]: instantiated once,
/// then applied record by record. It adds nothing to
/// [`CompiledCodeFunction::call`], which already reuses one pooled frame
/// and one argument buffer across calls.
pub struct StreamCaller {
    cf: CompiledCodeFunction,
}

impl StreamCaller {
    /// Instantiates `artifact` on the calling thread.
    pub fn new(artifact: &CompiledArtifact) -> Self {
        StreamCaller {
            cf: artifact.instantiate(),
        }
    }

    /// Applies the function to one record, exactly as
    /// [`CompiledCodeFunction::call`] does.
    ///
    /// # Errors
    ///
    /// As for [`CompiledCodeFunction::call`].
    pub fn call(&mut self, args: &[Value]) -> Result<Value, RuntimeError> {
        self.cf.call(args)
    }
}

// The whole point of the artifact type: it must stay shareable. If this
// stops compiling, something thread-confined (an `Rc`, a `RefCell`)
// leaked back into the post-compilation data.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledArtifact>();
};

impl CompiledCodeFunction {
    /// Extracts the shareable (`Send + Sync`) portion: the compiled
    /// payload without this thread's engine/abort/machine bindings.
    pub fn artifact(&self) -> CompiledArtifact {
        CompiledArtifact {
            original: self.original.clone(),
            module: Arc::clone(&self.module),
            program: Arc::clone(&self.program),
            param_types: self.param_types.clone(),
            return_type: self.return_type.clone(),
        }
    }

    /// Wraps a compiled program.
    ///
    /// # Errors
    ///
    /// Reports missing parameter/return types (code generation requires a
    /// fully typed TWIR, §4.6).
    pub fn new(
        original: Expr,
        module: Arc<ProgramModule>,
        program: Arc<NativeProgram>,
    ) -> Result<Self, crate::pipeline::CompileError> {
        let main = module.main();
        let mut param_types = vec![Type::void(); main.arity];
        for i in main.instrs() {
            if let wolfram_ir::Instr::LoadArgument { dst, index } = i {
                if let Some(t) = main.var_type(*dst) {
                    param_types[*index] = t.clone();
                }
            }
        }
        let return_type = main.return_type.clone().unwrap_or_else(Type::void);
        Ok(Self::bind(
            original,
            module,
            program,
            param_types,
            return_type,
        ))
    }

    /// Binds compiled parts to a fresh standalone execution state.
    fn bind(
        original: Expr,
        module: Arc<ProgramModule>,
        program: Arc<NativeProgram>,
        param_types: Vec<Type>,
        return_type: Type,
    ) -> Self {
        let abort = AbortSignal::new();
        let mut machine = Machine::standalone();
        machine.abort = abort.clone();
        CompiledCodeFunction {
            original,
            module,
            program,
            param_types,
            return_type,
            engine: None,
            standalone: false,
            abort,
            machine: Rc::new(RefCell::new(machine)),
        }
    }

    /// Attaches a hosting engine: kernel escapes and symbolic operations
    /// work, the abort signal is shared, and runtime numeric errors revert
    /// to uncompiled evaluation (F1/F2/F3).
    pub fn hosted(mut self, engine: Rc<RefCell<Interpreter>>) -> Self {
        self.abort = engine.borrow().abort_signal().clone();
        self.engine = Some(engine);
        self
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.param_types.len()
    }

    /// Unboxes an argument expression against a parameter type.
    pub(crate) fn unbox(&self, e: &Expr, ty: &Type) -> Result<ArgVal, RuntimeError> {
        let type_err = |what: &str| {
            RuntimeError::Type(format!(
                "argument {what} does not match parameter type {ty}"
            ))
        };
        match ty {
            Type::Atomic(name) => match &**name {
                "Integer64" | "Integer32" | "Integer16" | "Integer8" => e
                    .as_i64()
                    .map(ArgVal::I)
                    .ok_or_else(|| type_err(&e.to_input_form())),
                "Boolean" => {
                    if e.is_true() {
                        Ok(ArgVal::I(1))
                    } else if e.is_false() {
                        Ok(ArgVal::I(0))
                    } else {
                        Err(type_err(&e.to_input_form()))
                    }
                }
                "Real64" | "Real32" => e
                    .as_f64()
                    .map(ArgVal::F)
                    .ok_or_else(|| type_err(&e.to_input_form())),
                "ComplexReal64" => match e.kind() {
                    wolfram_expr::ExprKind::Complex(re, im) => Ok(ArgVal::C(*re, *im)),
                    _ => e
                        .as_f64()
                        .map(|v| ArgVal::C(v, 0.0))
                        .ok_or_else(|| type_err(&e.to_input_form())),
                },
                "String" => e
                    .as_str()
                    .map(|s| ArgVal::V(Value::Str(Arc::new(s.to_owned()))))
                    .ok_or_else(|| type_err(&e.to_input_form())),
                // The "Expression" type accepts anything (F8).
                "Expression" => Ok(ArgVal::V(Value::Expr(e.clone()))),
                _ => Err(type_err(&e.to_input_form())),
            },
            Type::Constructor { name, .. } if &**name == "Tensor" => {
                let t = expr_to_tensor(e).ok_or_else(|| type_err("non-rectangular list"))?;
                check_tensor(t, ty)
            }
            _ => Err(type_err(&e.to_input_form())),
        }
    }

    /// Decodes one runtime-value argument into the register bank code
    /// generation chose for its parameter. Expression values take the full
    /// [`CompiledCodeFunction::unbox`] route; tensor values are checked
    /// against the parameter's tensor type.
    fn decode(&self, v: &Value, bank: Bank, ty: &Type) -> Result<ArgVal, RuntimeError> {
        match (v, ty) {
            (Value::Expr(e), _) => self.unbox(e, ty),
            (Value::Tensor(t), Type::Constructor { name, .. }) if &**name == "Tensor" => {
                check_tensor(t.clone(), ty)
            }
            _ => ArgVal::from_value(v, bank),
        }
    }

    /// Calls with runtime values: the one native entry for benchmarks,
    /// streams and other compiled code. Arguments are decoded against the
    /// parameter slots and types into the machine's reusable argument buffer,
    /// and the entry frame comes from the machine's frame pool, so a
    /// steady run of calls allocates neither.
    ///
    /// # Errors
    ///
    /// Numeric errors soft-fail to the interpreter when hosted; everything
    /// propagates otherwise.
    pub fn call(&self, args: &[Value]) -> Result<Value, RuntimeError> {
        if args.len() != self.arity() {
            return Err(RuntimeError::Type(format!(
                "expected {} arguments, got {}",
                self.arity(),
                args.len()
            )));
        }
        let out = self.with_machine(&self.abort, |machine| {
            let mut buf = machine.take_args();
            let slots = &self.program.funcs[0].params;
            for ((v, slot), ty) in args.iter().zip(slots).zip(&self.param_types) {
                buf.push(self.decode(v, slot.bank, ty)?);
            }
            self.enter(machine, buf)
        });
        match out {
            Err(e) if e.is_numeric() && self.engine.is_some() => {
                self.soft_fallback_values(args, &e)
            }
            other => other.map(|r| result_to_value(r, &self.return_type)),
        }
    }

    /// The auxiliary wrapper (F1): "takes the input expression, unpacks and
    /// checks ... if it matches the expected number of arguments and types.
    /// The auxiliary function then calls the user function and packs the
    /// output into an expression."
    ///
    /// # Errors
    ///
    /// Argument mismatches fall back to uncompiled evaluation when hosted;
    /// they are type errors otherwise.
    pub fn call_exprs(&self, args: &[Expr]) -> Result<Expr, RuntimeError> {
        if args.len() != self.arity() {
            return self.mismatch_fallback(
                args,
                &format!("expected {} arguments, got {}", self.arity(), args.len()),
            );
        }
        let mut marshaled = Vec::with_capacity(args.len());
        for (e, ty) in args.iter().zip(&self.param_types) {
            match self.unbox(e, ty) {
                Ok(v) => marshaled.push(v),
                Err(err) => return self.mismatch_fallback(args, &err.to_string()),
            }
        }
        match self.run(marshaled) {
            Ok(r) => Ok(result_to_value(r, &self.return_type).to_expr()),
            Err(e) if e.is_numeric() && self.engine.is_some() => self.soft_fallback_exprs(args, &e),
            Err(e) => Err(e),
        }
    }

    fn run(&self, args: Vec<ArgVal>) -> Result<ArgVal, RuntimeError> {
        self.with_machine(&self.abort, |machine| self.enter(machine, args))
    }

    /// Enters the program on `machine`, lending it the hosting engine
    /// unless this function runs standalone.
    fn enter(&self, machine: &mut Machine, args: Vec<ArgVal>) -> Result<ArgVal, RuntimeError> {
        match (&self.engine, self.standalone) {
            (Some(engine), false) => {
                let mut guard = engine.borrow_mut();
                machine.call_with_engine(&self.program, 0, args, Some(&mut guard))
            }
            _ => machine.call_with_engine(&self.program, 0, args, None),
        }
    }

    /// Runs with an already-borrowed engine (re-entrant path used when the
    /// compiled function is *installed* and called from inside evaluation).
    fn run_in(&self, engine: &mut Interpreter, args: Vec<ArgVal>) -> Result<ArgVal, RuntimeError> {
        let abort = engine.abort_signal().clone();
        self.with_machine(&abort, |machine| {
            machine.call_with_engine(&self.program, 0, args, Some(engine))
        })
    }

    /// Runs `f` on the cached machine (its frame pool and argument
    /// buffer), or on a fresh one when a re-entrant call already holds
    /// it, with `abort` bound as the machine's signal. The binding is
    /// only replaced when it changed, not cloned per call.
    fn with_machine<R>(&self, abort: &AbortSignal, f: impl FnOnce(&mut Machine) -> R) -> R {
        let mut fresh;
        let mut cached;
        let machine: &mut Machine = match self.machine.try_borrow_mut() {
            Ok(guard) => {
                cached = guard;
                &mut cached
            }
            Err(_) => {
                fresh = Machine::standalone();
                &mut fresh
            }
        };
        if !machine.abort.ptr_eq(abort) {
            machine.abort = abort.clone();
        }
        f(machine)
    }

    fn warn(&self, tag: &str) {
        if let Some(engine) = &self.engine {
            engine.borrow_mut().push_output(format!(
                "CompiledCodeFunction: A compiled code runtime error occurred; \
                 reverting to uncompiled evaluation: {tag}"
            ));
        }
    }

    /// F2: "Numerical exceptions are propagated to the top-level auxiliary
    /// function which calls the interpreter to rerun the function."
    fn soft_fallback_values(
        &self,
        args: &[Value],
        err: &RuntimeError,
    ) -> Result<Value, RuntimeError> {
        self.warn(err.tag());
        let engine = self.engine.as_ref().expect("checked by caller");
        let arg_exprs: Vec<Expr> = args.iter().map(Value::to_expr).collect();
        let call = Expr::normal(self.original.clone(), arg_exprs);
        let out = engine.borrow_mut().eval(&call)?;
        Ok(Value::from_expr(&out))
    }

    fn soft_fallback_exprs(&self, args: &[Expr], err: &RuntimeError) -> Result<Expr, RuntimeError> {
        self.warn(err.tag());
        let engine = self.engine.as_ref().expect("checked by caller");
        let call = Expr::normal(self.original.clone(), args.to_vec());
        engine.borrow_mut().eval(&call)
    }

    fn mismatch_fallback(&self, args: &[Expr], why: &str) -> Result<Expr, RuntimeError> {
        match &self.engine {
            Some(engine) => {
                let call = Expr::normal(self.original.clone(), args.to_vec());
                engine.borrow_mut().eval(&call)
            }
            None => Err(RuntimeError::Type(why.to_owned())),
        }
    }

    /// Enables or disables the cached machine's op-frequency/dyad profiler
    /// (the data source for `reproduce -- opstats`).
    pub fn profile_ops(&self, enable: bool) {
        self.machine.borrow_mut().profile_ops(enable);
    }

    /// Takes the cached machine's accumulated execution statistics
    /// (op/dyad frequencies while profiling, frame-pool hits/misses
    /// always), resetting the counters.
    pub fn take_op_stats(&self) -> wolfram_codegen::OpStats {
        self.machine.borrow_mut().take_stats()
    }

    /// Installs this compiled function into its hosting engine under
    /// `name`: interpreted code then calls it "as if they were any other
    /// Wolfram Language function" (F1). Requires a hosting engine.
    ///
    /// # Errors
    ///
    /// Fails without an engine.
    pub fn install(&self, name: &str) -> Result<(), RuntimeError> {
        let Some(engine) = &self.engine else {
            return Err(RuntimeError::Other(
                "install requires a hosting engine".into(),
            ));
        };
        let this = self.clone();
        engine.borrow_mut().register_native(
            name,
            Rc::new(move |interp: &mut Interpreter, args: &[Expr]| {
                // Unbox; on mismatch interpret the original in place.
                if args.len() != this.arity() {
                    let call = Expr::normal(this.original.clone(), args.to_vec());
                    return interp.eval(&call);
                }
                let mut marshaled = Vec::with_capacity(args.len());
                for (e, ty) in args.iter().zip(&this.param_types) {
                    match this.unbox(e, ty) {
                        Ok(v) => marshaled.push(v),
                        Err(_) => {
                            let call = Expr::normal(this.original.clone(), args.to_vec());
                            return interp.eval(&call);
                        }
                    }
                }
                match this.run_in(interp, marshaled) {
                    Ok(r) => Ok(result_to_value(r, &this.return_type).to_expr()),
                    Err(e) if e.is_numeric() => {
                        interp.push_output(format!(
                            "CompiledCodeFunction: A compiled code runtime error occurred; \
                             reverting to uncompiled evaluation: {}",
                            e.tag()
                        ));
                        let call = Expr::normal(this.original.clone(), args.to_vec());
                        interp.eval(&call)
                    }
                    Err(e) => Err(e),
                }
            }),
        );
        Ok(())
    }
}

/// Checks a tensor argument against a `Tensor[elem, rank]` parameter type:
/// the rank must match, integer data is promoted to a real tensor, and the
/// element type must then match.
fn check_tensor(t: Tensor, ty: &Type) -> Result<ArgVal, RuntimeError> {
    let args = match ty {
        Type::Constructor { args, .. } => &args[..],
        _ => &[],
    };
    let type_err = |what: String| {
        RuntimeError::Type(format!(
            "argument {what} does not match parameter type {ty}"
        ))
    };
    if let Some(Type::Literal(r)) = args.get(1) {
        if t.rank() != *r as usize {
            return Err(type_err(format!("rank-{} tensor", t.rank())));
        }
    }
    let Some(Type::Atomic(elem)) = args.first() else {
        return Ok(ArgVal::V(Value::Tensor(t)));
    };
    let t = if &**elem == "Real64" {
        t.to_f64_tensor()
    } else {
        t
    };
    if t.data().element_type() != &**elem {
        return Err(type_err(format!("{} tensor", t.data().element_type())));
    }
    Ok(ArgVal::V(Value::Tensor(t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Compiler;
    use wolfram_expr::parse;

    fn compile(src: &str) -> CompiledCodeFunction {
        Compiler::default().function_compile_src(src).unwrap()
    }

    fn hosted(src: &str) -> (CompiledCodeFunction, Rc<RefCell<Interpreter>>) {
        let engine = Rc::new(RefCell::new(Interpreter::new()));
        let cf = compile(src).hosted(engine.clone());
        (cf, engine)
    }

    #[test]
    fn aux_wrapper_boxes_and_unboxes() {
        let cf = compile("Function[{Typed[n, \"MachineInteger\"]}, n*n]");
        let out = cf.call_exprs(&[Expr::int(7)]).unwrap();
        assert_eq!(out.as_i64(), Some(49));
        // Wrong type without an engine: hard error.
        assert!(cf.call_exprs(&[Expr::string("x")]).is_err());
        assert!(cf.call_exprs(&[]).is_err());
    }

    #[test]
    fn mismatch_falls_back_to_interpreter_when_hosted() {
        let (cf, _engine) = hosted("Function[{Typed[n, \"MachineInteger\"]}, n*n]");
        // A real argument does not match MachineInteger, but the hosted
        // wrapper reverts to uncompiled evaluation.
        let out = cf.call_exprs(&[Expr::real(2.5)]).unwrap();
        assert_eq!(out.as_f64(), Some(6.25));
    }

    #[test]
    fn soft_numeric_failure_reverts_to_interpreter() {
        // Iterative fib: overflows at n=100, interpreter returns the exact
        // bignum (the paper's cfib[200] behavior).
        let src = "Function[{Typed[n, \"MachineInteger\"]}, \
                   Module[{a = 0, b = 1, k = 0, t = 0}, \
                   While[k < n, t = a + b; a = b; b = t; k = k + 1]; a]]";
        let (cf, engine) = hosted(src);
        let out = cf.call_exprs(&[Expr::int(100)]).unwrap();
        assert_eq!(out.to_full_form(), "354224848179261915075");
        let warnings = engine.borrow_mut().take_output();
        assert!(
            warnings[0].contains("reverting to uncompiled evaluation"),
            "{warnings:?}"
        );
        assert!(warnings[0].contains("IntegerOverflow"), "{warnings:?}");
        // Fast path still native.
        assert_eq!(cf.call(&[Value::I64(50)]).unwrap(), Value::I64(12586269025));
    }

    #[test]
    fn standalone_rejects_numeric_failure() {
        let src = "Function[{Typed[n, \"MachineInteger\"]}, n*n]";
        let cf = compile(src);
        assert_eq!(
            cf.call(&[Value::I64(i64::MAX)]),
            Err(RuntimeError::IntegerOverflow)
        );
    }

    #[test]
    fn installed_functions_integrate_with_interpreter() {
        let (cf, engine) = hosted("Function[{Typed[n, \"MachineInteger\"]}, n + 100]");
        cf.install("fast").unwrap();
        // Interpreted code calls the compiled function seamlessly (F1),
        // including inside higher-order interpreted constructs.
        let out = engine
            .borrow_mut()
            .eval_src("Map[fast, {1, 2, 3}]")
            .unwrap();
        assert_eq!(out.to_full_form(), "List[101, 102, 103]");
        let out = engine.borrow_mut().eval_src("fast[5] + 1").unwrap();
        assert_eq!(out.as_i64(), Some(106));
    }

    #[test]
    fn abort_unwinds_compiled_loop() {
        let (cf, engine) = hosted(
            "Function[{Typed[n, \"MachineInteger\"]}, \
             Module[{i = 0}, While[True, If[i > 3, i = i - 1, i = i + 1]]; i]]",
        );
        engine.borrow().abort_signal().trigger();
        let err = cf.call(&[Value::I64(0)]).unwrap_err();
        assert_eq!(err, RuntimeError::Aborted);
        engine.borrow().abort_signal().reset();
    }

    #[test]
    fn tensors_cross_the_boundary() {
        let cf = compile("Function[{Typed[v, \"Tensor\"[\"Real64\", 1]]}, v[[1]] + v[[-1]]]");
        let out = cf.call_exprs(&[parse("{1.5, 2.0, 3.5}").unwrap()]).unwrap();
        assert_eq!(out.as_f64(), Some(5.0));
        // Integer lists promote to the real element type.
        let out = cf.call_exprs(&[parse("{1, 2, 3}").unwrap()]).unwrap();
        assert_eq!(out.as_f64(), Some(4.0));
        // Rank mismatch is a type error.
        assert!(cf.call_exprs(&[parse("{{1.0}}").unwrap()]).is_err());
    }

    #[test]
    fn tensor_and_expr_values_decode() {
        let cf = compile("Function[{Typed[v, \"Tensor\"[\"Real64\", 1]]}, v[[1]] + v[[-1]]]");
        // Direct tensor value: integer data promotes to the real element
        // type.
        let t = Value::Tensor(wolfram_runtime::Tensor::from_i64(vec![1, 2, 3]));
        assert_eq!(cf.call(&[t]).unwrap(), Value::F64(4.0));
        // Symbolic route: a list expression goes through the full unboxer.
        let e = Value::Expr(parse("{1.5, 2.0, 3.5}").unwrap());
        assert_eq!(cf.call(&[e]).unwrap(), Value::F64(5.0));
        // Mismatched expression stays an error.
        assert!(cf.call(&[Value::Expr(Expr::string("nope"))]).is_err());
    }

    #[test]
    fn direct_tensor_rank_is_checked() {
        let cf = compile("Function[{Typed[v, \"Tensor\"[\"Real64\", 1]]}, v[[2]]]");
        let record = parse("{{1.0, 2.0}, {3.0, 4.0}}").unwrap();
        let Value::Tensor(t) = Value::from_expr(&record) else {
            panic!("a rectangular list packs into a tensor");
        };
        assert_eq!(t.rank(), 2);
        // The value route rejects the rank-2 tensor with the expression
        // route's message, instead of reading the flat data.
        let why = "argument rank-2 tensor does not match parameter type Tensor[Real64, 1]";
        assert_eq!(
            cf.call(&[Value::Tensor(t)]),
            Err(RuntimeError::Type(why.into()))
        );
        let by_expr = cf.call_exprs(&[record]).unwrap_err();
        assert!(by_expr.to_string().ends_with(why), "{by_expr}");
        let v = Value::Tensor(wolfram_runtime::Tensor::from_f64(vec![1.0, 2.0]));
        assert_eq!(cf.call(&[v]).unwrap(), Value::F64(2.0));
    }

    #[test]
    fn direct_tensor_element_type_is_checked_like_an_expression() {
        let cf = compile("Function[{Typed[v, \"Tensor\"[\"Integer64\", 1]]}, v[[1]]]");
        let record = parse("{1.5, 2.5}").unwrap();
        let why = "argument Real64 tensor does not match parameter type Tensor[Integer64, 1]";
        let v = Value::from_expr(&record);
        assert!(matches!(v, Value::Tensor(_)), "{v:?}");
        assert_eq!(cf.call(&[v]), Err(RuntimeError::Type(why.into())));
        let by_expr = cf.call_exprs(&[record]).unwrap_err();
        assert!(by_expr.to_string().ends_with(why), "{by_expr}");
    }

    #[test]
    fn repeated_calls_reuse_one_pooled_frame() {
        let cf = compile("Function[{Typed[n, \"MachineInteger\"]}, n*n]");
        wolfram_runtime::memory::reset_stats();
        for n in 0..10 {
            assert_eq!(cf.call(&[Value::I64(n)]).unwrap(), Value::I64(n * n));
        }
        let stats = wolfram_runtime::memory::stats();
        assert_eq!(stats.frame_misses, 1, "{stats:?}");
        assert_eq!(stats.frame_hits, 9, "{stats:?}");
    }

    #[test]
    fn errors_leave_the_pooled_frame_usable() {
        let cf = compile("Function[{Typed[n, \"MachineInteger\"]}, n*n]");
        // Thread-local counters are per test thread, so the balance of
        // exactly this call sequence is observable here.
        wolfram_runtime::memory::reset_stats();
        assert!(cf.call(&[Value::I64(i64::MAX)]).is_err());
        assert!(cf.call(&[Value::Str(Arc::new("x".into()))]).is_err());
        assert_eq!(cf.call(&[Value::I64(9)]).unwrap(), Value::I64(81));
        let st = wolfram_runtime::memory::stats();
        assert!(st.balanced(), "aborted calls must release: {st:?}");
        assert_eq!(st.frame_misses, 1, "{st:?}");
        assert_eq!(st.frame_hits, 1, "the frame survived the errors: {st:?}");
    }

    #[test]
    fn symbolic_compiled_function() {
        // §4.5: cf = FunctionCompile[Function[{arg1:Expression,
        // arg2:Expression}, arg1 + arg2]]; cf[1,2] -> 3; cf[x,y] -> x+y.
        let (cf, _engine) = hosted(
            "Function[{Typed[arg1, \"Expression\"], Typed[arg2, \"Expression\"]}, arg1 + arg2]",
        );
        let out = cf.call_exprs(&[Expr::int(1), Expr::int(2)]).unwrap();
        assert_eq!(out.as_i64(), Some(3));
        let out = cf.call_exprs(&[Expr::sym("x"), Expr::sym("y")]).unwrap();
        assert_eq!(out.to_full_form(), "Plus[x, y]");
        let out = cf
            .call_exprs(&[Expr::sym("x"), parse("Cos[y] + Sin[z]").unwrap()])
            .unwrap();
        assert!(out.to_full_form().contains("Cos[y]"), "{out:?}");
    }

    #[test]
    fn gradual_compilation_via_kernel_escape() {
        // StringReverse is not compilable: it escapes to the interpreter
        // mid-function (F9).
        let (cf, _engine) = hosted("Function[{Typed[s, \"String\"]}, StringReverse[s]]");
        let out = cf.call_exprs(&[Expr::string("abc")]).unwrap();
        assert_eq!(out.as_str(), Some("cba"));
    }

    #[test]
    fn memory_instrumentation_balances() {
        wolfram_runtime::memory::reset_stats();
        let cf = compile(
            "Function[{Typed[v, \"Tensor\"[\"Integer64\", 1]]}, \
             Module[{w = v}, w[[1]] = 5; Length[w]]]",
        );
        let t = Value::Tensor(wolfram_runtime::Tensor::from_i64(vec![1, 2, 3]));
        assert_eq!(cf.call(&[t]).unwrap(), Value::I64(3));
        let stats = wolfram_runtime::memory::stats();
        assert!(stats.balanced(), "{stats:?}");
        assert!(
            stats.acquires > 0,
            "managed values were bracketed: {stats:?}"
        );
    }
}
