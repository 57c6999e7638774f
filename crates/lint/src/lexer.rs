//! A hand-rolled Rust lexer — just enough structure for lint rules.
//!
//! The rules in this crate are lexical: they look at token sequences, not
//! at a parse tree. What they need beyond raw tokens is *context*, and
//! that is what this module computes in two cheap passes over the token
//! stream:
//!
//! * **Test regions** — code under a `#[cfg(test)]` module or a `#[test]`
//!   function is exempt from the rules (test fixtures may allocate what
//!   they like and publish without an epoch), so every token carries an
//!   `in_test` flag, derived by tracking attributes and brace depth.
//! * **Function bodies** — the allocation rule needs "earlier in the same
//!   function" to look for bound checks, so every token carries the index
//!   of its enclosing `fn` body's opening brace.
//!
//! Comments are skipped, and string and character literals are lexed as
//! opaque literals, which is what makes the whole approach sound: a
//! `with_capacity(n)` inside a doc comment or a fixture string never looks
//! like code.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text (for punct: the operator itself).
    pub text: String,
}

/// Token categories — deliberately coarse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Number, string, char or byte literal (content opaque).
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
    /// Punctuation; multi-character operators (`::`, `=>`, `->`, `..`,
    /// `<=`, `>=`, `==`, `!=`, `&&`, `||`, `<<`, `>>`) are single tokens
    /// so rules never mistake half an arrow for a comparison.
    Punct,
}

/// A fully lexed source file plus the structural context rules need.
#[derive(Debug)]
pub struct LexedFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The token stream (comments excluded).
    pub tokens: Vec<Token>,
    /// `in_test[i]` — is `tokens[i]` inside `#[cfg(test)]` / `#[test]`
    /// code (or anywhere in a `tests/` integration-test file)?
    pub in_test: Vec<bool>,
    /// `fn_body[i]` — index of the token opening the enclosing function
    /// body (`{`), when inside one.
    pub fn_body: Vec<Option<usize>>,
}

impl LexedFile {
    /// Lexes `source`; `rel_path` decides whether the whole file counts as
    /// test code (anything under a `tests/` directory).
    pub fn lex(rel_path: &str, source: &str) -> LexedFile {
        let tokens = tokenize(source);
        let whole_file_is_test = rel_path.starts_with("tests/") || rel_path.contains("/tests/");
        let in_test = if whole_file_is_test {
            vec![true; tokens.len()]
        } else {
            mark_test_regions(&tokens)
        };
        let fn_body = mark_fn_bodies(&tokens);
        LexedFile {
            rel_path: rel_path.to_string(),
            tokens,
            in_test,
            fn_body,
        }
    }

    /// The text of token `i`, or `""` out of bounds — lets rules peek at
    /// `i ± k` without bound checks.
    pub fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    /// Is token `i` an identifier with exactly this text?
    pub fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
    }
}

const MULTI_PUNCT: [&str; 12] = [
    "::", "=>", "->", "..", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>",
];

/// Splits `source` into tokens, skipping comments.
fn tokenize(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 1;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
        } else if is_raw_string_start(bytes, i) {
            let (consumed, newlines) = lex_raw_string(bytes, i);
            tokens.push(Token {
                line,
                kind: TokenKind::Literal,
                text: String::new(),
            });
            line += newlines;
            i += consumed;
        } else if c == '"' || (c == 'b' && bytes.get(i + 1) == Some(&b'"')) {
            let (consumed, newlines) = lex_string(bytes, if c == 'b' { i + 1 } else { i });
            tokens.push(Token {
                line,
                kind: TokenKind::Literal,
                text: String::new(),
            });
            line += newlines;
            i += consumed + usize::from(c == 'b');
        } else if c == '\'' {
            let (consumed, kind) = lex_quote(bytes, i);
            tokens.push(Token {
                line,
                kind,
                text: String::new(),
            });
            i += consumed;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            tokens.push(Token {
                line,
                kind: TokenKind::Ident,
                text: source[start..i].to_string(),
            });
        } else if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len() {
                let d = bytes[i] as char;
                if d.is_ascii_alphanumeric() || d == '_' {
                    i += 1;
                } else if d == '.' && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                    // `1.5` continues the number; `0..n` does not.
                    i += 1;
                } else {
                    break;
                }
            }
            tokens.push(Token {
                line,
                kind: TokenKind::Literal,
                text: source[start..i].to_string(),
            });
        } else {
            let two = if i + 1 < bytes.len() {
                &source[i..i + 2]
            } else {
                ""
            };
            if MULTI_PUNCT.contains(&two) {
                tokens.push(Token {
                    line,
                    kind: TokenKind::Punct,
                    text: two.to_string(),
                });
                i += 2;
            } else {
                tokens.push(Token {
                    line,
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                });
                i += 1;
            }
        }
    }
    tokens
}

/// `r"..."`, `r#"..."#`, `br"..."` — a raw-string opener?
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Consumes a raw string starting at `i`; returns (bytes consumed, newlines).
fn lex_raw_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let mut newlines = 0;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            newlines += 1;
            j += 1;
        } else if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k - i, newlines);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (j - i, newlines)
}

/// Consumes a `"..."` string starting at the quote; returns
/// (bytes consumed, newlines).
fn lex_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let mut j = i + 1;
    let mut newlines = 0;
    while j < bytes.len() {
        match bytes[j] {
            // An escape consumes the next byte too — which may itself be a
            // newline (`\` line continuation), and still counts as one.
            b'\\' => {
                if bytes.get(j + 1) == Some(&b'\n') {
                    newlines += 1;
                }
                j += 2;
            }
            b'"' => return (j + 1 - i, newlines),
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (j - i, newlines)
}

/// Disambiguates `'a'` (char literal) from `'a` (lifetime) at a `'`.
fn lex_quote(bytes: &[u8], i: usize) -> (usize, TokenKind) {
    // Escape sequence: definitely a char literal.
    if bytes.get(i + 1) == Some(&b'\\') {
        let mut j = i + 2;
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        return (j + 1 - i, TokenKind::Literal);
    }
    // `'x'` — a one-character literal.
    if bytes.get(i + 2) == Some(&b'\'') {
        return (3, TokenKind::Literal);
    }
    // Otherwise a lifetime: consume identifier characters.
    let mut j = i + 1;
    while j < bytes.len() && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    (j - i, TokenKind::Lifetime)
}

/// Marks tokens inside `#[cfg(test)]` items and `#[test]` functions.
///
/// Strategy: parse each `#[...]` attribute from the stream; when it is a
/// test attribute, the next `{` opens a region that is test code down to
/// its matching `}`. A `;` before any `{` (e.g. `#[cfg(test)] use x;`)
/// cancels the pending attribute.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut depth: i32 = 0;
    let mut test_depth: Option<i32> = None;
    let mut pending = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.text == "#" && tokens.get(i + 1).is_some_and(|n| n.text == "[") {
            let (attr_end, is_test) = parse_attribute(tokens, i + 1);
            if is_test && test_depth.is_none() {
                pending = true;
            }
            for flag in in_test.iter_mut().take(attr_end + 1).skip(i) {
                *flag = test_depth.is_some() || pending;
            }
            i = attr_end + 1;
            continue;
        }
        match t.text.as_str() {
            "{" => {
                depth += 1;
                if pending && test_depth.is_none() {
                    test_depth = Some(depth);
                    pending = false;
                }
            }
            "}" => {
                if test_depth == Some(depth) {
                    test_depth = None;
                }
                in_test[i] = test_depth.is_some();
                depth -= 1;
                i += 1;
                continue;
            }
            ";" if pending && test_depth.is_none() => {
                pending = false;
            }
            _ => {}
        }
        in_test[i] = test_depth.is_some() || pending;
        i += 1;
    }
    in_test
}

/// Parses one `[...]` attribute starting at the `[`; returns the index of
/// the matching `]` and whether the attribute marks test code
/// (`#[test]`, `#[cfg(test)]`, `#[tokio::test]`, …).
fn parse_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0;
    let mut is_test = false;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    return (j, is_test);
                }
            }
            // `cfg(test)` — but not `cfg(not(test))`.
            "cfg"
                if tokens.get(j + 1).is_some_and(|t| t.text == "(")
                    && tokens.get(j + 2).is_some_and(|t| t.text == "test") =>
            {
                is_test = true;
            }
            "test" => {
                // `#[test]` or a path attribute ending in `::test`.
                let prev = tokens.get(j - 1).map_or("", |t| t.text.as_str());
                if prev == "[" || prev == "::" {
                    is_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    (j.saturating_sub(1), is_test)
}

/// For each token, the index of the `{` opening its enclosing `fn` body.
fn mark_fn_bodies(tokens: &[Token]) -> Vec<Option<usize>> {
    #[derive(Clone, Copy)]
    enum Block {
        FnBody(usize),
        Other,
    }
    fn innermost(stack: &[Block]) -> Option<usize> {
        stack.iter().rev().find_map(|b| match b {
            Block::FnBody(start) => Some(*start),
            Block::Other => None,
        })
    }
    let mut result = vec![None; tokens.len()];
    let mut stack: Vec<Block> = Vec::new();
    // `fn` seen outside any body; the next `{` opens its body. Reset by
    // `;` (a trait method declaration has no body).
    let mut pending_fn = false;
    let mut fn_start: Option<usize> = None;
    for (i, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            "fn" if t.kind == TokenKind::Ident => pending_fn = true,
            ";" => pending_fn = false,
            "{" => {
                if pending_fn {
                    stack.push(Block::FnBody(i));
                    pending_fn = false;
                } else {
                    stack.push(Block::Other);
                }
                fn_start = innermost(&stack);
            }
            "}" => {
                stack.pop();
                fn_start = innermost(&stack);
                result[i] = fn_start;
                continue;
            }
            _ => {}
        }
        result[i] = fn_start;
    }
    result
}
