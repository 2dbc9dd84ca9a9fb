//! A line/token-level Rust lexer — just enough structure for the rule
//! engine: identifiers, punctuation, and string/char/number literals,
//! each tagged with a 1-based line number. Comments are skipped.
//! Deliberately not a parser; the rules work on token adjacency and
//! brace depth.
//!
//! Two pieces of real work live here because every rule depends on
//! them being right:
//!
//! * **String and comment state.** A `.lock()` mentioned inside a
//!   string literal or a doc comment must not trip the lock rules, so
//!   the lexer fully tracks `"…"` (with escapes), `r#"…"#` raw
//!   strings, byte strings, char literals vs. lifetimes, and nested
//!   `/* … */` block comments.
//! * **`#[cfg(test)]` regions.** Test modules and test-only items are
//!   exempt from every rule, so tokens under a `#[cfg(test)]`
//!   attribute — up to the close of the following braced item or
//!   terminating `;` — are dropped.

/// What a token is; rules mostly switch on `Ident` vs `Str`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `HashMap`, `lock`, …).
    Ident,
    /// A string literal; `text` holds the raw content between the
    /// quotes (escapes left as written).
    Str,
    /// A char or byte literal (`'x'`, `b'\n'`); content in `text`.
    Char,
    /// A numeric literal.
    Num,
    /// A single punctuation character (`.`, `(`, `{`, `;`, …).
    Punct,
}

#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: usize,
}

impl Token {
    pub fn is(&self, kind: TokenKind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }

    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct
            && self.text.len() == ch.len_utf8()
            && self.text.starts_with(ch)
    }

    pub fn is_ident(&self, text: &str) -> bool {
        self.is(TokenKind::Ident, text)
    }
}

/// The lexed view of one source file, `#[cfg(test)]` regions removed.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
}

pub fn lex(source: &str) -> Lexed {
    let raw = lex_raw(source);
    strip_test_regions(raw)
}

fn lex_raw(source: &str) -> Lexed {
    let mut tokens = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        if chars[j] == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                let (content, next_i, lines) = scan_string(&chars, i + 1);
                tokens.push(Token { kind: TokenKind::Str, text: content, line });
                line += lines;
                i = next_i;
            }
            'r' | 'b' if starts_raw_or_byte_string(&chars, i) => {
                let (content, next_i, lines, kind) = scan_prefixed_literal(&chars, i);
                tokens.push(Token { kind, text: content, line });
                line += lines;
                i = next_i;
            }
            '\'' => {
                if is_lifetime(&chars, i) {
                    // `'a`, `'static`, `'_` — consume the tick and the
                    // identifier; no token emitted.
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                } else {
                    let (content, next_i) = scan_char_literal(&chars, i + 1);
                    tokens.push(Token { kind: TokenKind::Char, text: content, line });
                    i = next_i;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                tokens.push(Token { kind: TokenKind::Ident, text, line });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    // `1.0` is one number; `1..2` and `x.0.lock()` are
                    // not — stop before a second dot or `..`.
                    if chars[i] == '.'
                        && (chars.get(i + 1) == Some(&'.')
                            || !chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
                    {
                        break;
                    }
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                tokens.push(Token { kind: TokenKind::Num, text, line });
            }
            c => {
                tokens.push(Token { kind: TokenKind::Punct, text: c.to_string(), line });
                i += 1;
            }
        }
    }

    Lexed { tokens }
}

/// Scans a `"…"` body starting just past the opening quote. Returns
/// (content, index past the closing quote, newlines crossed).
fn scan_string(chars: &[char], mut i: usize) -> (String, usize, usize) {
    let mut content = String::new();
    let mut lines = 0usize;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                content.push(chars[i]);
                if let Some(&next) = chars.get(i + 1) {
                    content.push(next);
                    if next == '\n' {
                        lines += 1;
                    }
                }
                i += 2;
            }
            '"' => return (content, i + 1, lines),
            ch => {
                if ch == '\n' {
                    lines += 1;
                }
                content.push(ch);
                i += 1;
            }
        }
    }
    (content, i, lines)
}

/// True when position `i` (an `r` or `b`) begins `r"`, `r#"`, `b"`,
/// `br"`, `b'`, etc. — rather than a plain identifier.
fn starts_raw_or_byte_string(chars: &[char], i: usize) -> bool {
    // Not a literal prefix if we are mid-identifier (`bar"x"` is the
    // ident `bar` then a string).
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'\'') {
            return true; // byte char b'x'
        }
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
    }
    chars.get(j) == Some(&'"')
}

/// Scans `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, or `b'x'` starting at
/// the prefix. Returns (content, next index, newlines, token kind).
fn scan_prefixed_literal(chars: &[char], mut i: usize) -> (String, usize, usize, TokenKind) {
    let mut raw = false;
    if chars[i] == 'b' {
        i += 1;
        if chars.get(i) == Some(&'\'') {
            let (content, next_i) = scan_char_literal(chars, i + 1);
            return (content, next_i, 0, TokenKind::Char);
        }
    }
    if chars.get(i) == Some(&'r') {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(chars.get(i), Some(&'"'));
    i += 1;
    if !raw {
        let (content, next_i, lines) = scan_string(chars, i);
        return (content, next_i, lines, TokenKind::Str);
    }
    let mut content = String::new();
    let mut lines = 0usize;
    while i < chars.len() {
        if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return (content, i + 1 + hashes, lines, TokenKind::Str);
            }
        }
        if chars[i] == '\n' {
            lines += 1;
        }
        content.push(chars[i]);
        i += 1;
    }
    (content, i, lines, TokenKind::Str)
}

/// Scans a char/byte-char body starting just past the opening tick.
fn scan_char_literal(chars: &[char], mut i: usize) -> (String, usize) {
    let mut content = String::new();
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                content.push(chars[i]);
                if let Some(&next) = chars.get(i + 1) {
                    content.push(next);
                }
                i += 2;
            }
            '\'' => return (content, i + 1),
            ch => {
                content.push(ch);
                i += 1;
            }
        }
    }
    (content, i)
}

/// Distinguishes a lifetime tick from a char literal: `'a>` / `'a,` /
/// `'static` are lifetimes; `'a'` / `'\n'` are chars.
fn is_lifetime(chars: &[char], i: usize) -> bool {
    let Some(&first) = chars.get(i + 1) else { return false };
    if first == '\\' {
        return false;
    }
    if !(first.is_alphabetic() || first == '_') {
        return false;
    }
    let mut j = i + 2;
    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
        j += 1;
    }
    chars.get(j) != Some(&'\'')
}

/// Drops tokens covered by a `#[cfg(test)]` (or `#[cfg(all(test, …))]`
/// etc.) attribute: the attribute itself, any further attributes, and
/// the following item through its closing brace or `;`.
fn strip_test_regions(lexed: Lexed) -> Lexed {
    let tokens = lexed.tokens;
    let mut keep = vec![true; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(end) = test_region_end(&tokens, i) {
            for flag in keep.iter_mut().take(end).skip(i) {
                *flag = false;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    let tokens = tokens.into_iter().zip(keep).filter_map(|(t, k)| k.then_some(t)).collect();
    Lexed { tokens }
}

/// If tokens[i..] starts a `#[cfg(test)]`-guarded item, returns the
/// exclusive end index of the whole region; otherwise None.
fn test_region_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !(tokens.get(i)?.is_punct('#') && tokens.get(i + 1)?.is_punct('[')) {
        return None;
    }
    // Find the closing `]` of this attribute and check for a `test`
    // ident inside a `cfg(...)`.
    let mut depth = 1usize;
    let mut j = i + 2;
    let mut saw_cfg_test = false;
    let mut saw_not = false;
    let is_cfg = tokens.get(j).is_some_and(|t| t.is_ident("cfg"));
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
        } else if is_cfg && t.is_ident("test") {
            saw_cfg_test = true;
        } else if is_cfg && t.is_ident("not") {
            // `#[cfg(not(test))]` guards code that is compiled
            // *without* cfg(test) — the opposite of a test region.
            // Keep anything whose predicate involves negation.
            saw_not = true;
        }
        j += 1;
    }
    if saw_not {
        return None;
    }
    if !saw_cfg_test {
        return None;
    }
    // Skip any further attributes between the cfg and the item.
    while j < tokens.len()
        && tokens[j].is_punct('#')
        && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
    {
        let mut d = 1usize;
        let mut k = j + 2;
        while k < tokens.len() && d > 0 {
            if tokens[k].is_punct('[') {
                d += 1;
            } else if tokens[k].is_punct(']') {
                d -= 1;
            }
            k += 1;
        }
        j = k;
    }
    // Consume the item: through the first `;` at depth 0, or through
    // the matching `}` of the first `{`.
    let mut brace = 0usize;
    let mut entered = false;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('{') {
            brace += 1;
            entered = true;
        } else if t.is_punct('}') {
            brace = brace.saturating_sub(1);
            if entered && brace == 0 {
                return Some(j + 1);
            }
        } else if t.is_punct(';') && !entered {
            return Some(j + 1);
        }
        j += 1;
    }
    Some(j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_leak_idents() {
        let lexed = lex(r##"
            // HashMap in a comment
            /* HashMap in a block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw"#;
            let c = 'H';
        "##);
        assert!(!lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "HashMap"));
        let strs: Vec<_> = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'static str { x }");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("str")));
        assert!(!lexed.tokens.iter().any(|t| t.kind == TokenKind::Char));
    }

    #[test]
    fn cfg_test_regions_are_stripped() {
        let lexed = lex("fn live() { real(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn hidden() { secret.unwrap(); }\n\
             }\n\
             fn also_live() {}\n");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("live")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("also_live")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("hidden")));
    }

    #[test]
    fn cfg_all_test_counts_as_test() {
        let lexed = lex("#[cfg(all(test, unix))]\nfn gated() { x.unwrap(); }\nfn live() {}\n");
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("live")));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let lexed = lex("let a = \"one\ntwo\";\nlet tail = 1;\n");
        let tail = lexed.tokens.iter().find(|t| t.is_ident("tail")).unwrap();
        assert_eq!(tail.line, 3);
    }
}
