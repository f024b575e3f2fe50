//! AST → bytecode compiler: name resolution, scoping, jump patching.

use crate::ast::*;
use crate::bytecode::{Builtin, FnId, Function, Instr, Program};
use crate::error::{CompileError, Pos};
use crate::value::Value;
use std::collections::HashMap;

/// Compile a parsed program. Requires a zero-argument `main`.
pub(crate) fn compile(ast: &ProgramAst) -> Result<Program, CompileError> {
    Compiler::new(ast)?.run(ast)
}

struct Compiler {
    consts: Vec<Value>,
    global_slots: HashMap<String, usize>,
    global_names: Vec<String>,
    fn_ids: HashMap<String, FnId>,
    fn_arities: Vec<usize>,
}

struct FnCtx {
    code: Vec<Instr>,
    /// Stack of scopes; each maps name -> slot.
    scopes: Vec<HashMap<String, usize>>,
    next_slot: usize,
    max_slots: usize,
    /// (break_patch_sites, continue_patch_sites) per enclosing loop.
    loops: Vec<(Vec<usize>, Vec<usize>)>,
}

impl FnCtx {
    fn new() -> FnCtx {
        FnCtx {
            code: Vec::new(),
            scopes: vec![HashMap::new()],
            next_slot: 0,
            max_slots: 0,
            loops: Vec::new(),
        }
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    fn patch_jump(&mut self, site: usize, target: usize) {
        match &mut self.code[site] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        let scope = self.scopes.pop().expect("scope underflow");
        // Slots are not reused across sibling scopes; simpler and safe.
        let _ = scope;
    }

    fn declare_local(&mut self, name: &str) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slots = self.max_slots.max(self.next_slot);
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), slot);
        slot
    }

    fn lookup_local(&self, name: &str) -> Option<usize> {
        for scope in self.scopes.iter().rev() {
            if let Some(&slot) = scope.get(name) {
                return Some(slot);
            }
        }
        None
    }
}

impl Compiler {
    fn new(ast: &ProgramAst) -> Result<Compiler, CompileError> {
        let mut global_slots = HashMap::new();
        let mut global_names = Vec::new();
        for g in &ast.globals {
            if global_slots.contains_key(&g.name) {
                return Err(CompileError {
                    pos: g.pos,
                    message: format!("duplicate global `{}`", g.name),
                });
            }
            global_slots.insert(g.name.clone(), global_names.len());
            global_names.push(g.name.clone());
        }
        let mut fn_ids = HashMap::new();
        let mut fn_arities = Vec::new();
        for (i, f) in ast.functions.iter().enumerate() {
            if fn_ids.contains_key(&f.name) {
                return Err(CompileError {
                    pos: f.pos,
                    message: format!("duplicate function `{}`", f.name),
                });
            }
            if Builtin::from_name(&f.name).is_some() {
                return Err(CompileError {
                    pos: f.pos,
                    message: format!("function `{}` shadows a builtin", f.name),
                });
            }
            fn_ids.insert(f.name.clone(), i);
            fn_arities.push(f.params.len());
        }
        Ok(Compiler {
            consts: Vec::new(),
            global_slots,
            global_names,
            fn_ids,
            fn_arities,
        })
    }

    fn run(mut self, ast: &ProgramAst) -> Result<Program, CompileError> {
        let mut functions = Vec::with_capacity(ast.functions.len() + 1);
        for f in &ast.functions {
            functions.push(self.compile_fn(f)?);
        }
        // Synthesized global initializer.
        let mut ctx = FnCtx::new();
        for g in &ast.globals {
            let slot = self.global_slots[&g.name];
            match &g.init {
                Some(e) => self.expr(&mut ctx, e)?,
                None => {
                    let c = self.const_slot(Value::Int(0));
                    ctx.emit(Instr::Const(c));
                }
            }
            ctx.emit(Instr::StoreGlobal(slot));
        }
        let unit = self.const_slot(Value::Unit);
        ctx.emit(Instr::Const(unit));
        ctx.emit(Instr::Return);
        let init = functions.len();
        functions.push(Function {
            name: "__init".into(),
            arity: 0,
            locals: ctx.max_slots,
            code: ctx.code,
        });

        let entry = *self.fn_ids.get("main").ok_or(CompileError {
            pos: Pos::default(),
            message: "program has no `main` function".into(),
        })?;
        if self.fn_arities[entry] != 0 {
            return Err(CompileError {
                pos: Pos::default(),
                message: "`main` must take no parameters".into(),
            });
        }
        Ok(Program {
            consts: self.consts,
            global_names: self.global_names,
            functions,
            entry,
            init,
        })
    }

    fn const_slot(&mut self, v: Value) -> usize {
        // Dedup simple constants to keep the pool small.
        for (i, existing) in self.consts.iter().enumerate() {
            let same = match (existing, &v) {
                (Value::Int(a), Value::Int(b)) => a == b,
                (Value::Bool(a), Value::Bool(b)) => a == b,
                (Value::Str(a), Value::Str(b)) => a == b,
                (Value::Unit, Value::Unit) => true,
                _ => false,
            };
            if same {
                return i;
            }
        }
        self.consts.push(v);
        self.consts.len() - 1
    }

    fn compile_fn(&mut self, f: &FnDecl) -> Result<Function, CompileError> {
        let mut ctx = FnCtx::new();
        for p in &f.params {
            if ctx.lookup_local(p).is_some() {
                return Err(CompileError {
                    pos: f.pos,
                    message: format!("duplicate parameter `{p}`"),
                });
            }
            ctx.declare_local(p);
        }
        self.block(&mut ctx, &f.body)?;
        // Implicit `return ()`.
        let unit = self.const_slot(Value::Unit);
        ctx.emit(Instr::Const(unit));
        ctx.emit(Instr::Return);
        Ok(Function {
            name: f.name.clone(),
            arity: f.params.len(),
            locals: ctx.max_slots,
            code: ctx.code,
        })
    }

    fn block(&mut self, ctx: &mut FnCtx, stmts: &[Stmt]) -> Result<(), CompileError> {
        ctx.push_scope();
        for s in stmts {
            self.stmt(ctx, s)?;
        }
        ctx.pop_scope();
        Ok(())
    }

    fn stmt(&mut self, ctx: &mut FnCtx, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Var { name, init, pos } => {
                if ctx.scopes.last().expect("scope").contains_key(name) {
                    return Err(CompileError {
                        pos: *pos,
                        message: format!("`{name}` already declared in this scope"),
                    });
                }
                match init {
                    Some(e) => self.expr(ctx, e)?,
                    None => {
                        let c = self.const_slot(Value::Int(0));
                        ctx.emit(Instr::Const(c));
                    }
                }
                let slot = ctx.declare_local(name);
                ctx.emit(Instr::StoreLocal(slot));
                Ok(())
            }
            Stmt::Assign { target, value, pos } => match target {
                LValue::Name(name) => {
                    self.expr(ctx, value)?;
                    if let Some(slot) = ctx.lookup_local(name) {
                        ctx.emit(Instr::StoreLocal(slot));
                    } else if let Some(&slot) = self.global_slots.get(name) {
                        ctx.emit(Instr::StoreGlobal(slot));
                    } else {
                        return Err(CompileError {
                            pos: *pos,
                            message: format!("assignment to undeclared variable `{name}`"),
                        });
                    }
                    Ok(())
                }
                LValue::Index { array, index } => {
                    self.expr(ctx, array)?;
                    self.expr(ctx, index)?;
                    self.expr(ctx, value)?;
                    ctx.emit(Instr::IndexSet);
                    Ok(())
                }
            },
            Stmt::Expr(e) => {
                self.expr(ctx, e)?;
                ctx.emit(Instr::Pop);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                self.expr(ctx, cond)?;
                let jf = ctx.emit(Instr::JumpIfFalse(0));
                self.block(ctx, then_body)?;
                if else_body.is_empty() {
                    let end = ctx.here();
                    ctx.patch_jump(jf, end);
                } else {
                    let jend = ctx.emit(Instr::Jump(0));
                    let else_at = ctx.here();
                    ctx.patch_jump(jf, else_at);
                    self.block(ctx, else_body)?;
                    let end = ctx.here();
                    ctx.patch_jump(jend, end);
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let top = ctx.here();
                self.expr(ctx, cond)?;
                let jf = ctx.emit(Instr::JumpIfFalse(0));
                ctx.loops.push((Vec::new(), Vec::new()));
                self.block(ctx, body)?;
                ctx.emit(Instr::Jump(top));
                let end = ctx.here();
                ctx.patch_jump(jf, end);
                let (breaks, continues) = ctx.loops.pop().expect("loop frame");
                for b in breaks {
                    ctx.patch_jump(b, end);
                }
                for c in continues {
                    ctx.patch_jump(c, top);
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                ctx.push_scope();
                if let Some(i) = init {
                    self.stmt(ctx, i)?;
                }
                let top = ctx.here();
                let jf = match cond {
                    Some(c) => {
                        self.expr(ctx, c)?;
                        Some(ctx.emit(Instr::JumpIfFalse(0)))
                    }
                    None => None,
                };
                ctx.loops.push((Vec::new(), Vec::new()));
                self.block(ctx, body)?;
                let step_at = ctx.here();
                if let Some(st) = step {
                    self.stmt(ctx, st)?;
                }
                ctx.emit(Instr::Jump(top));
                let end = ctx.here();
                if let Some(jf) = jf {
                    ctx.patch_jump(jf, end);
                }
                let (breaks, continues) = ctx.loops.pop().expect("loop frame");
                for b in breaks {
                    ctx.patch_jump(b, end);
                }
                for c in continues {
                    ctx.patch_jump(c, step_at);
                }
                ctx.pop_scope();
                Ok(())
            }
            Stmt::Return { value, .. } => {
                match value {
                    Some(e) => self.expr(ctx, e)?,
                    None => {
                        let unit = self.const_slot(Value::Unit);
                        ctx.emit(Instr::Const(unit));
                    }
                }
                ctx.emit(Instr::Return);
                Ok(())
            }
            Stmt::Break(pos) => {
                let site = ctx.emit(Instr::Jump(0));
                match ctx.loops.last_mut() {
                    Some((breaks, _)) => {
                        breaks.push(site);
                        Ok(())
                    }
                    None => Err(CompileError {
                        pos: *pos,
                        message: "`break` outside loop".into(),
                    }),
                }
            }
            Stmt::Continue(pos) => {
                let site = ctx.emit(Instr::Jump(0));
                match ctx.loops.last_mut() {
                    Some((_, continues)) => {
                        continues.push(site);
                        Ok(())
                    }
                    None => Err(CompileError {
                        pos: *pos,
                        message: "`continue` outside loop".into(),
                    }),
                }
            }
            Stmt::Block(stmts) => self.block(ctx, stmts),
        }
    }

    fn expr(&mut self, ctx: &mut FnCtx, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Int(v, _) => {
                let c = self.const_slot(Value::Int(*v));
                ctx.emit(Instr::Const(c));
                Ok(())
            }
            Expr::Bool(b, _) => {
                let c = self.const_slot(Value::Bool(*b));
                ctx.emit(Instr::Const(c));
                Ok(())
            }
            Expr::Str(s, _) => {
                let c = self.const_slot(Value::str(s.clone()));
                ctx.emit(Instr::Const(c));
                Ok(())
            }
            Expr::Name(name, pos) => {
                if let Some(slot) = ctx.lookup_local(name) {
                    ctx.emit(Instr::LoadLocal(slot));
                } else if let Some(&slot) = self.global_slots.get(name) {
                    ctx.emit(Instr::LoadGlobal(slot));
                } else {
                    return Err(CompileError {
                        pos: *pos,
                        message: format!("undeclared variable `{name}`"),
                    });
                }
                Ok(())
            }
            Expr::Array(items, _) => {
                for it in items {
                    self.expr(ctx, it)?;
                }
                ctx.emit(Instr::MakeArray(items.len()));
                Ok(())
            }
            Expr::Bin { op, lhs, rhs, .. } => {
                self.expr(ctx, lhs)?;
                self.expr(ctx, rhs)?;
                ctx.emit(match op {
                    BinOp::Add => Instr::Add,
                    BinOp::Sub => Instr::Sub,
                    BinOp::Mul => Instr::Mul,
                    BinOp::Div => Instr::Div,
                    BinOp::Mod => Instr::Mod,
                    BinOp::Eq => Instr::CmpEq,
                    BinOp::Ne => Instr::CmpNe,
                    BinOp::Lt => Instr::CmpLt,
                    BinOp::Le => Instr::CmpLe,
                    BinOp::Gt => Instr::CmpGt,
                    BinOp::Ge => Instr::CmpGe,
                });
                Ok(())
            }
            Expr::And(lhs, rhs, _) => {
                // lhs falsy -> false, else truthiness of rhs.
                self.expr(ctx, lhs)?;
                let jf1 = ctx.emit(Instr::JumpIfFalse(0));
                self.expr(ctx, rhs)?;
                let jf2 = ctx.emit(Instr::JumpIfFalse(0));
                let t = self.const_slot(Value::Bool(true));
                ctx.emit(Instr::Const(t));
                let jend = ctx.emit(Instr::Jump(0));
                let lfalse = ctx.here();
                ctx.patch_jump(jf1, lfalse);
                ctx.patch_jump(jf2, lfalse);
                let f = self.const_slot(Value::Bool(false));
                ctx.emit(Instr::Const(f));
                let end = ctx.here();
                ctx.patch_jump(jend, end);
                Ok(())
            }
            Expr::Or(lhs, rhs, _) => {
                self.expr(ctx, lhs)?;
                let jt1 = ctx.emit(Instr::JumpIfTrue(0));
                self.expr(ctx, rhs)?;
                let jt2 = ctx.emit(Instr::JumpIfTrue(0));
                let f = self.const_slot(Value::Bool(false));
                ctx.emit(Instr::Const(f));
                let jend = ctx.emit(Instr::Jump(0));
                let ltrue = ctx.here();
                ctx.patch_jump(jt1, ltrue);
                ctx.patch_jump(jt2, ltrue);
                let t = self.const_slot(Value::Bool(true));
                ctx.emit(Instr::Const(t));
                let end = ctx.here();
                ctx.patch_jump(jend, end);
                Ok(())
            }
            Expr::Un { op, expr, .. } => {
                self.expr(ctx, expr)?;
                ctx.emit(match op {
                    UnOp::Neg => Instr::Neg,
                    UnOp::Not => Instr::Not,
                });
                Ok(())
            }
            Expr::Index { array, index, .. } => {
                self.expr(ctx, array)?;
                self.expr(ctx, index)?;
                ctx.emit(Instr::IndexGet);
                Ok(())
            }
            Expr::Spawn { name, args, pos } => {
                let func = *self.fn_ids.get(name).ok_or_else(|| CompileError {
                    pos: *pos,
                    message: format!("spawn of unknown function `{name}`"),
                })?;
                if self.fn_arities[func] != args.len() {
                    return Err(CompileError {
                        pos: *pos,
                        message: format!(
                            "`{name}` takes {} arguments, spawn passes {}",
                            self.fn_arities[func],
                            args.len()
                        ),
                    });
                }
                for a in args {
                    self.expr(ctx, a)?;
                }
                ctx.emit(Instr::Spawn {
                    func,
                    argc: args.len(),
                });
                Ok(())
            }
            Expr::Call { name, args, pos } => {
                if let Some(&func) = self.fn_ids.get(name) {
                    if self.fn_arities[func] != args.len() {
                        return Err(CompileError {
                            pos: *pos,
                            message: format!(
                                "`{name}` takes {} arguments, call passes {}",
                                self.fn_arities[func],
                                args.len()
                            ),
                        });
                    }
                    for a in args {
                        self.expr(ctx, a)?;
                    }
                    ctx.emit(Instr::Call {
                        func,
                        argc: args.len(),
                    });
                    return Ok(());
                }
                let Some(builtin) = Builtin::from_name(name) else {
                    return Err(CompileError {
                        pos: *pos,
                        message: format!("unknown function `{name}`"),
                    });
                };
                let (lo, hi) = builtin.arity();
                if args.len() < lo || args.len() > hi {
                    return Err(CompileError {
                        pos: *pos,
                        message: format!(
                            "`{name}` expects {lo}..={hi} arguments, got {}",
                            args.len()
                        ),
                    });
                }
                // Atomics lower to dedicated instructions on a global slot.
                match builtin {
                    Builtin::Tas | Builtin::AtomicAdd => {
                        let Expr::Name(gname, gpos) = &args[0] else {
                            return Err(CompileError {
                                pos: args[0].pos(),
                                message: format!("`{name}` requires a global variable name"),
                            });
                        };
                        let Some(&slot) = self.global_slots.get(gname) else {
                            return Err(CompileError {
                                pos: *gpos,
                                message: format!("`{name}` target `{gname}` is not a global"),
                            });
                        };
                        if builtin == Builtin::Tas {
                            ctx.emit(Instr::Tas(slot));
                        } else {
                            self.expr(ctx, &args[1])?;
                            ctx.emit(Instr::AtomicAdd(slot));
                        }
                        Ok(())
                    }
                    _ => {
                        for a in args {
                            self.expr(ctx, a)?;
                        }
                        ctx.emit(Instr::CallBuiltin {
                            builtin,
                            argc: args.len(),
                        });
                        Ok(())
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Program {
        compile(&parse(lex(src).unwrap()).unwrap()).unwrap()
    }

    fn compile_err(src: &str) -> CompileError {
        compile(&parse(lex(src).unwrap()).unwrap()).unwrap_err()
    }

    #[test]
    fn trivial_main_compiles() {
        let p = compile_src("fn main() { }");
        assert_eq!(p.functions[p.entry].name, "main");
        assert_eq!(p.functions[p.init].name, "__init");
        // main: Const(unit), Return.
        assert_eq!(p.functions[p.entry].code.len(), 2);
    }

    #[test]
    fn missing_main_rejected() {
        let e = compile_err("fn helper() { }");
        assert!(e.message.contains("main"));
        let e = compile_err("fn main(x) { }");
        assert!(e.message.contains("no parameters"));
    }

    #[test]
    fn global_shared_store_emitted() {
        let p = compile_src("var counter = 5; fn main() { counter = counter + 1; }");
        let code = &p.functions[p.entry].code;
        assert!(code.contains(&Instr::LoadGlobal(0)));
        assert!(code.contains(&Instr::StoreGlobal(0)));
        // Init stores the 5.
        assert!(p.functions[p.init].code.contains(&Instr::StoreGlobal(0)));
    }

    #[test]
    fn locals_resolve_before_globals() {
        let p = compile_src("var x = 1; fn main() { var x = 2; x = 3; }");
        let code = &p.functions[p.entry].code;
        assert!(code.contains(&Instr::StoreLocal(0)));
        assert!(!code.contains(&Instr::StoreGlobal(0)));
    }

    #[test]
    fn undeclared_names_rejected() {
        assert!(compile_err("fn main() { x = 1; }")
            .message
            .contains("undeclared"));
        assert!(compile_err("fn main() { var y = x + 1; }")
            .message
            .contains("undeclared"));
        assert!(compile_err("fn main() { frobnicate(); }")
            .message
            .contains("unknown function"));
    }

    #[test]
    fn duplicate_declarations_rejected() {
        assert!(compile_err("var a; var a; fn main() { }")
            .message
            .contains("duplicate global"));
        assert!(compile_err("fn f() { } fn f() { } fn main() { }")
            .message
            .contains("duplicate function"));
        assert!(compile_err("fn main() { var a = 1; var a = 2; }")
            .message
            .contains("already declared"));
        assert!(compile_err("fn f(a, a) { } fn main() { }")
            .message
            .contains("duplicate parameter"));
    }

    #[test]
    fn shadowing_in_nested_block_allowed() {
        let p = compile_src("fn main() { var a = 1; { var a = 2; a = 3; } a = 4; }");
        // Two distinct slots used.
        assert!(p.functions[p.entry].locals >= 2);
    }

    #[test]
    fn break_continue_require_loop() {
        assert!(compile_err("fn main() { break; }")
            .message
            .contains("outside loop"));
        assert!(compile_err("fn main() { continue; }")
            .message
            .contains("outside loop"));
        compile_src("fn main() { while (true) { break; } }");
    }

    #[test]
    fn builtin_arity_checked() {
        assert!(compile_err("fn main() { lock(); }")
            .message
            .contains("arguments"));
        assert!(compile_err("fn main() { send(1); }")
            .message
            .contains("arguments"));
        assert!(compile_err("fn w() {} fn main() { spawn w(1); }")
            .message
            .contains("arguments"));
        assert!(compile_err("fn w(a) {} fn main() { w(); }")
            .message
            .contains("arguments"));
    }

    #[test]
    fn tas_requires_global() {
        let p = compile_src("var flag; fn main() { var old = tas(flag); }");
        assert!(p.functions[p.entry].code.contains(&Instr::Tas(0)));
        assert!(compile_err("fn main() { var x = 0; tas(x); }")
            .message
            .contains("not a global"));
        assert!(compile_err("fn main() { tas(1 + 2); }")
            .message
            .contains("global variable name"));
    }

    #[test]
    fn atomic_add_lowering() {
        let p = compile_src("var n; fn main() { atomic_add(n, 5); }");
        assert!(p.functions[p.entry].code.contains(&Instr::AtomicAdd(0)));
    }

    #[test]
    fn builtin_shadowing_rejected() {
        assert!(compile_err("fn lock(m) { } fn main() { }")
            .message
            .contains("shadows a builtin"));
    }

    #[test]
    fn const_pool_dedup() {
        let p = compile_src("fn main() { var a = 7; var b = 7; var c = 7; }");
        let sevens = p
            .consts
            .iter()
            .filter(|v| matches!(v, Value::Int(7)))
            .count();
        assert_eq!(sevens, 1);
    }

    #[test]
    fn spawn_unknown_function_rejected() {
        assert!(compile_err("fn main() { spawn nope(); }")
            .message
            .contains("unknown function"));
    }
}
