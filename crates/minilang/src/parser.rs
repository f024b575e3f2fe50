//! Recursive-descent parser: tokens to AST.

use crate::ast::*;
use crate::error::{ParseError, Pos};
use crate::lexer::{Tok, Token};

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].tok.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{want}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    // ---- grammar ----------------------------------------------------------

    fn program(&mut self) -> Result<ProgramAst, ParseError> {
        let mut globals = Vec::new();
        let mut functions = Vec::new();
        while self.peek() != &Tok::Eof {
            match self.peek() {
                Tok::Var => {
                    let pos = self.pos();
                    self.bump();
                    let name = self.ident()?;
                    let init = if self.peek() == &Tok::Assign {
                        self.bump();
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.eat(&Tok::Semi)?;
                    globals.push(GlobalDecl { name, init, pos });
                }
                Tok::Fn => {
                    functions.push(self.fn_decl()?);
                }
                other => {
                    return Err(self.err(format!(
                        "expected `fn` or `var` at top level, found `{other}`"
                    )))
                }
            }
        }
        Ok(ProgramAst { globals, functions })
    }

    fn fn_decl(&mut self) -> Result<FnDecl, ParseError> {
        let pos = self.pos();
        self.eat(&Tok::Fn)?;
        let name = self.ident()?;
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                params.push(self.ident()?);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        let body = self.block()?;
        Ok(FnDecl {
            name,
            params,
            body,
            pos,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return Err(self.err("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        self.eat(&Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::Var => {
                self.bump();
                let name = self.ident()?;
                let init = if self.peek() == &Tok::Assign {
                    self.bump();
                    Some(self.expr()?)
                } else {
                    None
                };
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Var { name, init, pos })
            }
            Tok::If => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let then_body = self.block()?;
                let else_body = if self.peek() == &Tok::Else {
                    self.bump();
                    if self.peek() == &Tok::If {
                        // `else if` chains as a single-statement else block.
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    pos,
                })
            }
            Tok::While => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, pos })
            }
            Tok::For => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let init = if self.peek() == &Tok::Semi {
                    self.bump();
                    None
                } else {
                    // init is a var decl or simple statement; its own `;`.
                    Some(Box::new(self.simple_stmt_semi()?))
                };
                let cond = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::Semi)?;
                let step = if self.peek() == &Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt_no_semi()?))
                };
                self.eat(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    pos,
                })
            }
            Tok::Return => {
                self.bump();
                let value = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Return { value, pos })
            }
            Tok::Break => {
                self.bump();
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Break(pos))
            }
            Tok::Continue => {
                self.bump();
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Continue(pos))
            }
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            _ => self.simple_stmt_semi(),
        }
    }

    /// A var/assignment/expression statement terminated by `;`.
    fn simple_stmt_semi(&mut self) -> Result<Stmt, ParseError> {
        if self.peek() == &Tok::Var {
            let pos = self.pos();
            self.bump();
            let name = self.ident()?;
            let init = if self.peek() == &Tok::Assign {
                self.bump();
                Some(self.expr()?)
            } else {
                None
            };
            self.eat(&Tok::Semi)?;
            return Ok(Stmt::Var { name, init, pos });
        }
        let s = self.simple_stmt_no_semi()?;
        self.eat(&Tok::Semi)?;
        Ok(s)
    }

    /// An assignment or expression statement without the trailing `;`
    /// (for-loop steps).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        let e = self.expr()?;
        if self.peek() == &Tok::Assign {
            self.bump();
            let value = self.expr()?;
            let target = match e {
                Expr::Name(n, _) => LValue::Name(n),
                Expr::Index { array, index, .. } => LValue::Index { array, index },
                other => {
                    return Err(ParseError {
                        pos: other.pos(),
                        message: "invalid assignment target".into(),
                    })
                }
            };
            Ok(Stmt::Assign { target, value, pos })
        } else {
            Ok(Stmt::Expr(e))
        }
    }

    // ---- expressions (precedence climbing) --------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &Tok::OrOr {
            let pos = self.pos();
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs), pos);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.equality()?;
        while self.peek() == &Tok::AndAnd {
            let pos = self.pos();
            self.bump();
            let rhs = self.equality()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs), pos);
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.comparison()?;
        loop {
            let op = match self.peek() {
                Tok::Eq => BinOp::Eq,
                Tok::Ne => BinOp::Ne,
                _ => break,
            };
            let pos = self.pos();
            self.bump();
            let rhs = self.comparison()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Tok::Lt => BinOp::Lt,
                Tok::Le => BinOp::Le,
                Tok::Gt => BinOp::Gt,
                Tok::Ge => BinOp::Ge,
                _ => break,
            };
            let pos = self.pos();
            self.bump();
            let rhs = self.additive()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            let pos = self.pos();
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            let pos = self.pos();
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Un {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                    pos,
                })
            }
            Tok::Bang => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Un {
                    op: UnOp::Not,
                    expr: Box::new(e),
                    pos,
                })
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while let Tok::LBracket = self.peek() {
            let pos = self.pos();
            self.bump();
            let index = self.expr()?;
            self.eat(&Tok::RBracket)?;
            e = Expr::Index {
                array: Box::new(e),
                index: Box::new(index),
                pos,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, pos))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s, pos))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Bool(true, pos))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Bool(false, pos))
            }
            Tok::Spawn => {
                self.bump();
                let name = self.ident()?;
                self.eat(&Tok::LParen)?;
                let args = self.args()?;
                Ok(Expr::Spawn { name, args, pos })
            }
            Tok::Ident(name) => {
                self.bump();
                if self.peek() == &Tok::LParen {
                    self.bump();
                    let args = self.args()?;
                    Ok(Expr::Call { name, args, pos })
                } else {
                    Ok(Expr::Name(name, pos))
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if self.peek() != &Tok::RBracket {
                    loop {
                        items.push(self.expr()?);
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.eat(&Tok::RBracket)?;
                Ok(Expr::Array(items, pos))
            }
            other => Err(self.err(format!("expected expression, found `{other}`"))),
        }
    }

    /// Call arguments, consuming the trailing `)`.
    fn args(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                args.push(self.expr()?);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(args)
    }
}

/// Parse a full token stream (as produced by [`crate::lexer::lex`]).
pub(crate) fn parse(tokens: Vec<Token>) -> Result<ProgramAst, ParseError> {
    assert!(
        matches!(tokens.last(), Some(Token { tok: Tok::Eof, .. })),
        "token stream must end with Eof"
    );
    let mut p = Parser { toks: tokens, i: 0 };
    p.program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ProgramAst {
        parse(lex(src).unwrap()).unwrap()
    }

    fn parse_err(src: &str) -> ParseError {
        parse(lex(src).unwrap()).unwrap_err()
    }

    #[test]
    fn empty_program() {
        let p = parse_src("");
        assert!(p.globals.is_empty() && p.functions.is_empty());
    }

    #[test]
    fn globals_and_function() {
        let p = parse_src("var counter = 0; var m; fn main() { }");
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[0].name, "counter");
        assert!(p.globals[1].init.is_none());
        assert_eq!(p.functions[0].name, "main");
    }

    #[test]
    fn precedence() {
        let p = parse_src("fn f() { var x = 1 + 2 * 3 < 7 == true; }");
        // ((1 + (2*3)) < 7) == true
        let Stmt::Var { init: Some(e), .. } = &p.functions[0].body[0] else {
            panic!()
        };
        let Expr::Bin {
            op: BinOp::Eq, lhs, ..
        } = e
        else {
            panic!("{e:?}")
        };
        let Expr::Bin {
            op: BinOp::Lt,
            lhs: add,
            ..
        } = lhs.as_ref()
        else {
            panic!()
        };
        let Expr::Bin {
            op: BinOp::Add,
            rhs: mul,
            ..
        } = add.as_ref()
        else {
            panic!()
        };
        assert!(matches!(mul.as_ref(), Expr::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn short_circuit_ops_parse() {
        let p = parse_src("fn f() { var x = a && b || !c; }");
        let Stmt::Var { init: Some(e), .. } = &p.functions[0].body[0] else {
            panic!()
        };
        assert!(matches!(e, Expr::Or(..)));
    }

    #[test]
    fn if_else_chain() {
        let p = parse_src("fn f(x) { if (x < 0) { return 1; } else if (x == 0) { return 2; } else { return 3; } }");
        let Stmt::If { else_body, .. } = &p.functions[0].body[0] else {
            panic!()
        };
        assert!(matches!(&else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn for_loop_forms() {
        parse_src("fn f() { for (var i = 0; i < 10; i = i + 1) { } }");
        parse_src("fn f() { for (;;) { break; } }");
        parse_src("fn f() { for (i = 0; i < 3;) { i = i + 1; } }");
    }

    #[test]
    fn spawn_and_calls() {
        let p = parse_src("fn w(n) { } fn main() { var t = spawn w(5); join(t); }");
        let Stmt::Var {
            init: Some(Expr::Spawn { name, args, .. }),
            ..
        } = &p.functions[1].body[0]
        else {
            panic!()
        };
        assert_eq!(name, "w");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn index_assignment() {
        let p = parse_src("fn f() { var a = [1, 2, 3]; a[0] = a[1] + a[2]; }");
        let Stmt::Assign {
            target: LValue::Index { .. },
            ..
        } = &p.functions[0].body[1]
        else {
            panic!()
        };
    }

    #[test]
    fn nested_blocks_scope() {
        let p = parse_src("fn f() { { var x = 1; } }");
        assert!(matches!(&p.functions[0].body[0], Stmt::Block(_)));
    }

    #[test]
    fn error_messages_are_positioned() {
        let e = parse_err("fn f() { var = 3; }");
        assert!(e.message.contains("identifier"), "{}", e.message);
        assert_eq!(e.pos.line, 1);
        let e = parse_err("fn f() { 1 + ; }");
        assert!(e.message.contains("expression"), "{}", e.message);
        let e = parse_err("var x = 1");
        assert!(e.message.contains("`;`"), "{}", e.message);
        let e = parse_err("fn f() { (1 = 2); }");
        assert!(e.message.contains("`)`"), "{}", e.message);
    }

    #[test]
    fn unclosed_block_detected() {
        let e = parse_err("fn f() { var x = 1;");
        assert!(e.message.contains("end of input"), "{}", e.message);
    }

    #[test]
    fn top_level_statement_rejected() {
        let e = parse_err("x = 1;");
        assert!(e.message.contains("top level"), "{}", e.message);
    }
}
