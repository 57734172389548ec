//! A minimal hand-rolled Rust lexer.
//!
//! The linter's rules only need a token stream that is *reliable about
//! what is code and what is not*: string literals, char literals, line
//! and (nested) block comments, doc comments, and raw strings must never
//! produce identifier tokens, or a rule pattern mentioned in a comment
//! would trip the rule. Everything else is deliberately simple — no
//! parsing, no spans beyond `line:column`, no dependency on `syn` (the
//! build environment is offline; the linter must never be the component
//! that fails to build).

/// What a [`Token`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `fn`, `r#mod`, …).
    Ident,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Float literal (`0.5`, `1e-3`, `2f32`).
    Float,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char literal (`'a'`, `'\n'`, `b'x'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// A single punctuation character (`.`, `:`, `(`, …).
    Punct(char),
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// Source text for `Ident`, `Int`, and `Float` tokens; the raw
    /// contents between the quotes for strings (escapes unprocessed,
    /// which is enough for P1's format-capture scan); empty for chars
    /// and single-char for punctuation.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

struct Lexer<'a> {
    chars: std::str::Chars<'a>,
    /// Lookahead buffer (we need up to 3 chars of peek).
    peeked: Vec<char>,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            chars: src.chars(),
            peeked: Vec::new(),
            line: 1,
            col: 1,
        }
    }

    fn peek_at(&mut self, n: usize) -> Option<char> {
        while self.peeked.len() <= n {
            self.peeked.push(self.chars.next()?);
        }
        Some(self.peeked[n])
    }

    fn peek(&mut self) -> Option<char> {
        self.peek_at(0)
    }

    fn bump(&mut self) -> Option<char> {
        let c = if self.peeked.is_empty() {
            self.chars.next()?
        } else {
            self.peeked.remove(0)
        };
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat_line_comment(&mut self) {
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            self.bump();
        }
    }

    fn eat_block_comment(&mut self) {
        // Called after consuming `/*`; block comments nest in Rust.
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some('*') if self.peek() == Some('/') => {
                    self.bump();
                    depth -= 1;
                }
                Some('/') if self.peek() == Some('*') => {
                    self.bump();
                    depth += 1;
                }
                Some(_) => {}
                None => break,
            }
        }
    }

    fn eat_string(&mut self) -> String {
        // Called after consuming the opening `"`.
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    text.push(c);
                    text.extend(self.bump());
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        text
    }

    fn eat_raw_string(&mut self, hashes: usize) -> String {
        // Called after consuming `r##…#"`; ends at `"##…#`.
        let mut text = String::new();
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if self.peek() != Some('#') {
                        text.push('"');
                        text.push_str(&"#".repeat(i));
                        continue 'outer;
                    }
                    self.bump();
                }
                break;
            }
            text.push(c);
        }
        text
    }

    fn eat_ident(&mut self, first: char) -> String {
        let mut s = String::new();
        s.push(first);
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn eat_number(&mut self, first: char) -> (String, bool) {
        // Returns (text, is_float).
        let mut s = String::new();
        s.push(first);
        let mut is_float = false;
        let radix_prefixed =
            first == '0' && matches!(self.peek(), Some('x' | 'o' | 'b' | 'X' | 'O' | 'B'));
        if radix_prefixed {
            s.push(self.bump().expect("peeked"));
            while let Some(c) = self.peek() {
                if c.is_alphanumeric() || c == '_' {
                    s.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            return (s, false);
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Fractional part: `.` followed by a digit (so `1..x` and
        // `1.method()` stay integers).
        if self.peek() == Some('.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            s.push(self.bump().expect("peeked")); // '.'
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() || c == '_' {
                    s.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent.
        if matches!(self.peek(), Some('e' | 'E')) {
            let sign_ok = matches!(self.peek_at(1), Some(c) if c.is_ascii_digit())
                || (matches!(self.peek_at(1), Some('+' | '-'))
                    && matches!(self.peek_at(2), Some(c) if c.is_ascii_digit()));
            if sign_ok {
                is_float = true;
                s.push(self.bump().expect("peeked")); // e/E
                if matches!(self.peek(), Some('+' | '-')) {
                    s.push(self.bump().expect("peeked"));
                }
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() || c == '_' {
                        s.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix (`f32`, `u64`, …).
        let mut suffix = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                suffix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if suffix.starts_with("f32") || suffix.starts_with("f64") {
            is_float = true;
        }
        s.push_str(&suffix);
        (s, is_float)
    }
}

/// Lexes `src` into tokens, discarding comments and literal contents.
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let (line, col) = (lx.line, lx.col);
        let Some(c) = lx.bump() else { break };
        match c {
            c if c.is_whitespace() => {}
            '/' => match lx.peek() {
                Some('/') => lx.eat_line_comment(),
                Some('*') => {
                    lx.bump();
                    lx.eat_block_comment();
                }
                _ => toks.push(Token {
                    kind: TokenKind::Punct('/'),
                    text: "/".into(),
                    line,
                    col,
                }),
            },
            '"' => {
                let text = lx.eat_string();
                toks.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line,
                    col,
                });
            }
            'r' | 'b' => {
                // Raw strings (`r"…"`, `r#"…"#`), byte strings (`b"…"`,
                // `br#"…"#`), byte chars (`b'x'`), raw idents (`r#mod`)
                // — or just an identifier starting with r/b.
                let mut hashes = 0usize;
                while lx.peek_at(hashes) == Some('#') {
                    hashes += 1;
                }
                let after_hashes = lx.peek_at(hashes);
                if c == 'b' && hashes == 0 && after_hashes == Some('\'') {
                    lx.bump(); // '
                    eat_char_literal(&mut lx);
                    toks.push(Token {
                        kind: TokenKind::Char,
                        text: String::new(),
                        line,
                        col,
                    });
                } else if after_hashes == Some('"') {
                    for _ in 0..=hashes {
                        lx.bump(); // hashes + opening quote
                    }
                    let text = if hashes == 0 && c == 'b' {
                        lx.eat_string()
                    } else {
                        lx.eat_raw_string(hashes)
                    };
                    toks.push(Token {
                        kind: TokenKind::Str,
                        text,
                        line,
                        col,
                    });
                } else if c == 'b' && lx.peek() == Some('r') && {
                    let mut h = 1usize;
                    while lx.peek_at(h) == Some('#') {
                        h += 1;
                    }
                    lx.peek_at(h) == Some('"')
                } {
                    lx.bump(); // r
                    let mut h = 0usize;
                    while lx.peek() == Some('#') {
                        lx.bump();
                        h += 1;
                    }
                    lx.bump(); // "
                    let text = lx.eat_raw_string(h);
                    toks.push(Token {
                        kind: TokenKind::Str,
                        text,
                        line,
                        col,
                    });
                } else if c == 'r'
                    && hashes == 1
                    && after_hashes.is_some_and(|a| a.is_alphanumeric() || a == '_')
                {
                    lx.bump(); // #
                    let first = lx.bump().expect("peeked");
                    let text = lx.eat_ident(first);
                    toks.push(Token {
                        kind: TokenKind::Ident,
                        text,
                        line,
                        col,
                    });
                } else {
                    let text = lx.eat_ident(c);
                    toks.push(Token {
                        kind: TokenKind::Ident,
                        text,
                        line,
                        col,
                    });
                }
            }
            '\'' => {
                // Char literal vs lifetime.
                let one = lx.peek();
                let two = lx.peek_at(1);
                let is_char = matches!(one, Some('\\')) || (two == Some('\'') && one != Some('\''));
                if is_char {
                    eat_char_literal(&mut lx);
                    toks.push(Token {
                        kind: TokenKind::Char,
                        text: String::new(),
                        line,
                        col,
                    });
                } else {
                    let mut text = String::new();
                    while let Some(c) = lx.peek() {
                        if c.is_alphanumeric() || c == '_' {
                            text.push(c);
                            lx.bump();
                        } else {
                            break;
                        }
                    }
                    toks.push(Token {
                        kind: TokenKind::Lifetime,
                        text,
                        line,
                        col,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let (text, is_float) = lx.eat_number(c);
                toks.push(Token {
                    kind: if is_float {
                        TokenKind::Float
                    } else {
                        TokenKind::Int
                    },
                    text,
                    line,
                    col,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let text = lx.eat_ident(c);
                toks.push(Token {
                    kind: TokenKind::Ident,
                    text,
                    line,
                    col,
                });
            }
            c => toks.push(Token {
                kind: TokenKind::Punct(c),
                text: c.to_string(),
                line,
                col,
            }),
        }
    }
    toks
}

fn eat_char_literal(lx: &mut Lexer<'_>) {
    // Called after the opening `'`.
    match lx.bump() {
        Some('\\') => {
            lx.bump(); // escaped char (enough for \n, \', \\, \u{…} start)
            while lx.peek().is_some() && lx.peek() != Some('\'') {
                lx.bump(); // rest of \u{XXXX}
            }
            lx.bump(); // closing '
        }
        Some(_) => {
            lx.bump(); // closing '
        }
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_produce_no_idents() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap /* nested */ still comment */
            /// doc: HashMap
            let s = "HashMap"; let r = r#"HashMap"#; let b = b"HashMap";
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "HashMap"), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn strings_keep_their_raw_contents() {
        let texts: Vec<String> = lex(r###"f("{grad}\"", r#"a"b"#, r##"c"#d"##)"###)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, [r#"{grad}\""#, "a\"b", "c\"#d"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let ids = idents("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(ids.contains(&"str".to_string()));
        let toks = lex("'a 'x' '\\''");
        assert_eq!(toks[0].kind, TokenKind::Lifetime);
        assert_eq!(toks[1].kind, TokenKind::Char);
        assert_eq!(toks[2].kind, TokenKind::Char);
    }

    #[test]
    fn numbers_classify_float_vs_int() {
        let toks = lex("1 1.5 1e-3 2f32 3u64 0xff 1_000 4.0f64 1..2");
        let kinds: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Int | TokenKind::Float))
            .map(|t| (t.text.clone(), t.kind.clone()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("1".into(), TokenKind::Int),
                ("1.5".into(), TokenKind::Float),
                ("1e-3".into(), TokenKind::Float),
                ("2f32".into(), TokenKind::Float),
                ("3u64".into(), TokenKind::Int),
                ("0xff".into(), TokenKind::Int),
                ("1_000".into(), TokenKind::Int),
                ("4.0f64".into(), TokenKind::Float),
                ("1".into(), TokenKind::Int),
                ("2".into(), TokenKind::Int),
            ]
        );
    }

    #[test]
    fn positions_are_line_col() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn raw_idents_lex_as_idents() {
        let ids = idents("let r#mod = 1; br#\"HashSet\"#;");
        assert!(ids.contains(&"mod".to_string()));
        assert!(!ids.contains(&"HashSet".to_string()));
    }
}
