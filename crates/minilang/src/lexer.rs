//! The lexer: source text to a token stream with positions.

use crate::error::{LexError, Pos};
use std::fmt;

/// Token kinds. Keywords are distinguished from identifiers at lex time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    // Literals and names.
    /// Integer literal.
    Int(i64),
    /// String literal (escapes resolved).
    Str(String),
    /// Identifier.
    Ident(String),

    // Keywords.
    /// `fn`
    Fn,
    /// `var`
    Var,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `true`
    True,
    /// `false`
    False,
    /// `spawn`
    Spawn,

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Assign,
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
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,

    /// End of input sentinel.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Eof => write!(f, "<eof>"),
            other => {
                let s = match other {
                    Tok::Fn => "fn",
                    Tok::Var => "var",
                    Tok::If => "if",
                    Tok::Else => "else",
                    Tok::While => "while",
                    Tok::For => "for",
                    Tok::Return => "return",
                    Tok::Break => "break",
                    Tok::Continue => "continue",
                    Tok::True => "true",
                    Tok::False => "false",
                    Tok::Spawn => "spawn",
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::LBrace => "{",
                    Tok::RBrace => "}",
                    Tok::LBracket => "[",
                    Tok::RBracket => "]",
                    Tok::Comma => ",",
                    Tok::Semi => ";",
                    Tok::Plus => "+",
                    Tok::Minus => "-",
                    Tok::Star => "*",
                    Tok::Slash => "/",
                    Tok::Percent => "%",
                    Tok::Assign => "=",
                    Tok::Eq => "==",
                    Tok::Ne => "!=",
                    Tok::Lt => "<",
                    Tok::Le => "<=",
                    Tok::Gt => ">",
                    Tok::Ge => ">=",
                    Tok::AndAnd => "&&",
                    Tok::OrOr => "||",
                    Tok::Bang => "!",
                    _ => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

/// A token plus its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    /// Token kind/payload.
    pub tok: Tok,
    /// Start position.
    pub pos: Pos,
}

struct Lexer<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            pos: self.pos(),
            message: message.into(),
        }
    }
}

/// Lex `src` into tokens (with a trailing [`Tok::Eof`]).
///
/// Comments: `//` to end of line and `/* ... */` (non-nesting).
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    loop {
        // Skip whitespace and comments.
        loop {
            match lx.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    lx.bump();
                }
                Some(b'/') if lx.peek2() == Some(b'/') => {
                    while let Some(c) = lx.peek() {
                        if c == b'\n' {
                            break;
                        }
                        lx.bump();
                    }
                }
                Some(b'/') if lx.peek2() == Some(b'*') => {
                    let start = lx.pos();
                    lx.bump();
                    lx.bump();
                    let mut closed = false;
                    while let Some(c) = lx.bump() {
                        if c == b'*' && lx.peek() == Some(b'/') {
                            lx.bump();
                            closed = true;
                            break;
                        }
                    }
                    if !closed {
                        return Err(LexError {
                            pos: start,
                            message: "unterminated block comment".into(),
                        });
                    }
                }
                _ => break,
            }
        }
        let pos = lx.pos();
        let Some(c) = lx.peek() else {
            out.push(Token { tok: Tok::Eof, pos });
            return Ok(out);
        };
        let tok = match c {
            b'0'..=b'9' => {
                let mut v: i64 = 0;
                while let Some(d) = lx.peek() {
                    if !d.is_ascii_digit() {
                        break;
                    }
                    v = v
                        .checked_mul(10)
                        .and_then(|x| x.checked_add((d - b'0') as i64))
                        .ok_or_else(|| lx.err("integer literal overflows i64"))?;
                    lx.bump();
                }
                if matches!(lx.peek(), Some(c) if c.is_ascii_alphabetic()) {
                    return Err(lx.err("identifier cannot start with a digit"));
                }
                Tok::Int(v)
            }
            b'"' => {
                lx.bump();
                let mut s = String::new();
                loop {
                    match lx.bump() {
                        None => {
                            return Err(LexError {
                                pos,
                                message: "unterminated string".into(),
                            })
                        }
                        Some(b'"') => break,
                        Some(b'\\') => match lx.bump() {
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'"') => s.push('"'),
                            Some(b'0') => s.push('\0'),
                            other => {
                                return Err(lx.err(format!(
                                    "bad escape \\{}",
                                    other.map(|c| c as char).unwrap_or('?')
                                )))
                            }
                        },
                        Some(b) => s.push(b as char),
                    }
                }
                Tok::Str(s)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut s = String::new();
                while let Some(c) = lx.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        s.push(c as char);
                        lx.bump();
                    } else {
                        break;
                    }
                }
                match s.as_str() {
                    "fn" => Tok::Fn,
                    "var" => Tok::Var,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "for" => Tok::For,
                    "return" => Tok::Return,
                    "break" => Tok::Break,
                    "continue" => Tok::Continue,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "spawn" => Tok::Spawn,
                    _ => Tok::Ident(s),
                }
            }
            _ => {
                lx.bump();
                match c {
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'{' => Tok::LBrace,
                    b'}' => Tok::RBrace,
                    b'[' => Tok::LBracket,
                    b']' => Tok::RBracket,
                    b',' => Tok::Comma,
                    b';' => Tok::Semi,
                    b'+' => Tok::Plus,
                    b'-' => Tok::Minus,
                    b'*' => Tok::Star,
                    b'/' => Tok::Slash,
                    b'%' => Tok::Percent,
                    b'=' => {
                        if lx.peek() == Some(b'=') {
                            lx.bump();
                            Tok::Eq
                        } else {
                            Tok::Assign
                        }
                    }
                    b'!' => {
                        if lx.peek() == Some(b'=') {
                            lx.bump();
                            Tok::Ne
                        } else {
                            Tok::Bang
                        }
                    }
                    b'<' => {
                        if lx.peek() == Some(b'=') {
                            lx.bump();
                            Tok::Le
                        } else {
                            Tok::Lt
                        }
                    }
                    b'>' => {
                        if lx.peek() == Some(b'=') {
                            lx.bump();
                            Tok::Ge
                        } else {
                            Tok::Gt
                        }
                    }
                    b'&' => {
                        if lx.peek() == Some(b'&') {
                            lx.bump();
                            Tok::AndAnd
                        } else {
                            return Err(LexError {
                                pos,
                                message: "expected && (bitwise & unsupported)".into(),
                            });
                        }
                    }
                    b'|' => {
                        if lx.peek() == Some(b'|') {
                            lx.bump();
                            Tok::OrOr
                        } else {
                            return Err(LexError {
                                pos,
                                message: "expected || (bitwise | unsupported)".into(),
                            });
                        }
                    }
                    other => {
                        return Err(LexError {
                            pos,
                            message: format!("unexpected character {:?}", other as char),
                        })
                    }
                }
            }
        };
        out.push(Token { tok, pos });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("fn main() { var x = 1 + 2; }"),
            vec![
                Tok::Fn,
                Tok::Ident("main".into()),
                Tok::LParen,
                Tok::RParen,
                Tok::LBrace,
                Tok::Var,
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Int(1),
                Tok::Plus,
                Tok::Int(2),
                Tok::Semi,
                Tok::RBrace,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_two_char() {
        assert_eq!(
            kinds("== != <= >= && || < > = !"),
            vec![
                Tok::Eq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Lt,
                Tok::Gt,
                Tok::Assign,
                Tok::Bang,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds(r#""a\nb\t\"q\"""#),
            vec![Tok::Str("a\nb\t\"q\"".into()), Tok::Eof]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("1 // line\n /* block\n over lines */ 2"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Eof]
        );
    }

    #[test]
    fn unterminated_constructs_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* never closed").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("#").is_err());
    }

    #[test]
    fn positions_tracked() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn overflow_literal_rejected() {
        assert!(lex("99999999999999999999").is_err());
        assert_eq!(
            kinds(&i64::MAX.to_string()),
            vec![Tok::Int(i64::MAX), Tok::Eof]
        );
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            kinds("spawn spawner if iffy"),
            vec![
                Tok::Spawn,
                Tok::Ident("spawner".into()),
                Tok::If,
                Tok::Ident("iffy".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn digit_prefixed_ident_rejected() {
        assert!(lex("123abc").is_err());
    }
}
