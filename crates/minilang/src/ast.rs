//! The abstract syntax tree produced by the parser.

use crate::error::Pos;

/// A whole compilation unit: top-level globals and functions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProgramAst {
    /// Top-level `var` declarations (become shared globals).
    pub globals: Vec<GlobalDecl>,
    /// Function definitions.
    pub functions: Vec<FnDecl>,
}

/// A top-level `var name = expr;`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Optional initializer (defaults to integer 0).
    pub init: Option<Expr>,
    /// Source position.
    pub pos: Pos,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FnDecl {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body block.
    pub body: Vec<Stmt>,
    /// Source position.
    pub pos: Pos,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt {
    /// `var name = expr;` (local declaration).
    Var {
        /// Local name.
        name: String,
        /// Initializer (defaults to 0 when absent).
        init: Option<Expr>,
        /// Position.
        pos: Pos,
    },
    /// `lhs = expr;` where lhs is a name or index expression.
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
        /// Position.
        pos: Pos,
    },
    /// A bare expression evaluated for effect.
    Expr(Expr),
    /// `if (cond) {..} else {..}`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch (possibly empty).
        else_body: Vec<Stmt>,
        /// Position.
        pos: Pos,
    },
    /// `while (cond) {..}`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
        /// Position.
        pos: Pos,
    },
    /// `for (init; cond; step) {..}` — all three parts optional.
    For {
        /// Initialization statement.
        init: Option<Box<Stmt>>,
        /// Continuation condition (defaults true).
        cond: Option<Expr>,
        /// Step statement.
        step: Option<Box<Stmt>>,
        /// Body.
        body: Vec<Stmt>,
        /// Position.
        pos: Pos,
    },
    /// `return expr?;`
    Return {
        /// Value (defaults to 0).
        value: Option<Expr>,
        /// Position.
        pos: Pos,
    },
    /// `break;`
    Break(Pos),
    /// `continue;`
    Continue(Pos),
    /// A nested block `{ .. }` with its own local scope.
    Block(Vec<Stmt>),
}

/// Assignable places.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LValue {
    /// A plain variable.
    Name(String),
    /// `array[index]`.
    Index {
        /// The array expression (usually a name).
        array: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    /// `+` (also string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnOp {
    /// Numeric negation.
    Neg,
    /// Logical not.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    /// Integer literal.
    Int(i64, Pos),
    /// Boolean literal.
    Bool(bool, Pos),
    /// String literal.
    Str(String, Pos),
    /// Variable reference.
    Name(String, Pos),
    /// Array literal `[a, b, c]`.
    Array(Vec<Expr>, Pos),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Position.
        pos: Pos,
    },
    /// Short-circuit `&&`.
    And(Box<Expr>, Box<Expr>, Pos),
    /// Short-circuit `||`.
    Or(Box<Expr>, Box<Expr>, Pos),
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Position.
        pos: Pos,
    },
    /// Function or builtin call.
    Call {
        /// Callee name (user function or builtin).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Position.
        pos: Pos,
    },
    /// `spawn f(args)` — starts a thread, evaluates to its thread id.
    Spawn {
        /// Target function name.
        name: String,
        /// Arguments (evaluated in the spawning thread).
        args: Vec<Expr>,
        /// Position.
        pos: Pos,
    },
    /// `array[index]` read.
    Index {
        /// Array expression.
        array: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Position.
        pos: Pos,
    },
}

impl Expr {
    /// Best-effort source position of the expression.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Int(_, p)
            | Expr::Bool(_, p)
            | Expr::Str(_, p)
            | Expr::Name(_, p)
            | Expr::Array(_, p)
            | Expr::And(_, _, p)
            | Expr::Or(_, _, p) => *p,
            Expr::Bin { pos, .. }
            | Expr::Un { pos, .. }
            | Expr::Call { pos, .. }
            | Expr::Spawn { pos, .. }
            | Expr::Index { pos, .. } => *pos,
        }
    }
}
