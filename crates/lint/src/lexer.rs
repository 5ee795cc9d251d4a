//! A minimal comment/string-aware Rust scanner.
//!
//! `mct-tidy` needs just enough lexical understanding to avoid flagging
//! tokens inside comments, string/char literals, and raw strings — not a
//! grammar. [`scan`] blanks those regions to spaces (newlines preserved,
//! so byte offsets and line numbers survive) and collects the comment
//! text for the pragma parser; [`tokenize`] then splits the blanked code
//! into identifier and punctuation tokens for the lint passes.

/// One extracted comment, with the line span it occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-indexed line the comment starts on.
    pub line: usize,
    /// 1-indexed line the comment ends on (`== line` for `//` comments).
    pub end_line: usize,
    /// Raw comment text, marker included.
    pub text: String,
}

/// Output of [`scan`]: blanked code plus extracted comments.
#[derive(Debug)]
pub struct Scanned {
    /// The source with comments and string/char-literal bodies replaced
    /// by spaces. Same byte length and line structure as the input.
    pub code: String,
    /// Every comment in source order, with its line span.
    pub comments: Vec<Comment>,
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Length in bytes of the UTF-8 character starting with `lead`.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Try to match a raw-string opener (`r"`, `r#"`, `br##"`, ...) at `i`.
/// Returns `(hash_count, body_start)` on match.
fn raw_string_open(bytes: &[u8], mut i: usize) -> Option<(usize, usize)> {
    if bytes.get(i) == Some(&b'b') {
        i += 1;
    }
    if bytes.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) == Some(&b'"') {
        Some((hashes, i + 1))
    } else {
        None
    }
}

/// Blank comments and literals out of `src`.
#[must_use]
pub fn scan(src: &str) -> Scanned {
    let bytes = src.as_bytes();
    let len = bytes.len();
    let mut code: Vec<u8> = Vec::with_capacity(len);
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    let blank = |code: &mut Vec<u8>, slice: &[u8]| {
        for &b in slice {
            code.push(if b == b'\n' { b'\n' } else { b' ' });
        }
    };

    while i < len {
        let b = bytes[i];
        match b {
            b'\n' => {
                code.push(b'\n');
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < len && bytes[i + 1] == b'/' => {
                let start = i;
                while i < len && bytes[i] != b'\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    end_line: line,
                    text: src[start..i].to_string(),
                });
                blank(&mut code, &bytes[start..i]);
            }
            b'/' if i + 1 < len && bytes[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < len && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < len && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < len && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text: src[start..i].to_string(),
                });
                blank(&mut code, &bytes[start..i]);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < len {
                    match bytes[i] {
                        b'\\' => {
                            // A `\` line continuation still ends a line.
                            if bytes.get(i + 1) == Some(&b'\n') {
                                line += 1;
                            }
                            i += 2;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut code, &bytes[start..i.min(len)]);
                i = i.min(len);
            }
            b'r' | b'b' if (i == 0 || !is_ident_char(bytes[i - 1])) => {
                if let Some((hashes, body)) = raw_string_open(bytes, i) {
                    let closer: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    let mut j = body;
                    while j < len {
                        if bytes[j] == b'"' && bytes[j..].starts_with(&closer) {
                            j += closer.len();
                            break;
                        }
                        if bytes[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                    blank(&mut code, &bytes[i..j.min(len)]);
                    i = j.min(len);
                } else if b == b'b' && i + 1 < len && bytes[i + 1] == b'"' {
                    // Byte string: blank the `b` and fall through to the
                    // regular string arm on the next iteration.
                    code.push(b' ');
                    i += 1;
                } else {
                    code.push(b);
                    i += 1;
                }
            }
            b'\'' => {
                if i + 1 < len && bytes[i + 1] == b'\\' {
                    // Escaped char literal: scan to the closing quote.
                    let start = i;
                    let mut j = i + 2;
                    while j < len && bytes[j] != b'\'' {
                        j += 1;
                    }
                    j = (j + 1).min(len);
                    blank(&mut code, &bytes[start..j]);
                    i = j;
                } else if i + 1 < len && bytes[i + 1] != b'\'' {
                    let clen = utf8_len(bytes[i + 1]);
                    if i + 1 + clen < len && bytes[i + 1 + clen] == b'\'' {
                        // Plain char literal like 'x'.
                        blank(&mut code, &bytes[i..i + 2 + clen]);
                        i += 2 + clen;
                    } else {
                        // A lifetime ('a) or label: keep the quote.
                        code.push(b'\'');
                        i += 1;
                    }
                } else {
                    code.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                code.push(b);
                i += 1;
            }
        }
    }

    debug_assert_eq!(code.len(), len, "blanking must preserve byte offsets");
    Scanned {
        code: String::from_utf8_lossy(&code).into_owned(),
        comments,
    }
}

/// One lexical token of blanked code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    /// Token text (identifier name, or a single punctuation char).
    pub text: &'a str,
    /// Byte offset into the blanked code.
    pub pos: usize,
    /// 1-indexed source line.
    pub line: usize,
    /// True for identifier/keyword tokens.
    pub is_ident: bool,
}

impl Tok<'_> {
    /// Is this the punctuation character `c`?
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        !self.is_ident && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// Split blanked code into identifier and punctuation tokens. Numeric
/// literals are consumed as pseudo-identifiers (so `b.1.abs()` still
/// yields a `.` before `abs`); whitespace is dropped.
#[must_use]
pub fn tokenize(code: &str) -> Vec<Tok<'_>> {
    let bytes = code.as_bytes();
    let len = bytes.len();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < len {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
        } else if b.is_ascii_whitespace() {
            i += 1;
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < len && is_ident_char(bytes[i]) {
                i += 1;
            }
            toks.push(Tok {
                text: &code[start..i],
                pos: start,
                line,
                is_ident: true,
            });
        } else if b.is_ascii_digit() {
            // Numeric literal: digits, suffixes, and a dot only when a
            // digit follows (so tuple access like `x.1.abs()` keeps its
            // dots as punctuation).
            let start = i;
            while i < len {
                if is_ident_char(bytes[i]) {
                    i += 1;
                } else if bytes[i] == b'.' && i + 1 < len && bytes[i + 1].is_ascii_digit() {
                    i += 2;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                text: &code[start..i],
                pos: start,
                line,
                is_ident: true,
            });
        } else {
            let clen = utf8_len(b);
            toks.push(Tok {
                text: &code[i..(i + clen).min(len)],
                pos: i,
                line,
                is_ident: false,
            });
            i += clen;
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked_and_captured() {
        let s = scan("let x = 1; // uses unwrap()\nlet y = 2;");
        assert!(!s.code.contains("unwrap"));
        assert_eq!(s.comments.len(), 1);
        assert_eq!(s.comments[0].line, 1);
        assert_eq!(s.comments[0].end_line, 1);
        assert!(s.comments[0].text.contains("unwrap()"));
        assert!(s.code.contains("let y = 2;"));
    }

    #[test]
    fn block_comments_record_their_line_span() {
        let s = scan("a /* one\ntwo\nthree */ b\nc();");
        assert_eq!(s.comments.len(), 1);
        assert_eq!(s.comments[0].line, 1);
        assert_eq!(s.comments[0].end_line, 3);
        let toks = tokenize(&s.code);
        let c = toks.iter().find(|t| t.text == "c").unwrap();
        assert_eq!(c.line, 4);
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let s = scan("a /* outer /* inner */ still comment */ b");
        assert!(s.code.contains('a'));
        assert!(s.code.contains('b'));
        assert!(!s.code.contains("comment"));
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn strings_and_escapes_are_blanked() {
        let s = scan(r#"call("has .unwrap() inside \" quote", x)"#);
        assert!(!s.code.contains("unwrap"));
        assert!(s.code.contains("call("));
        assert!(s.code.contains(", x)"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = scan(r##"let p = r#"panic!("boom") "quoted""#; done()"##);
        assert!(!s.code.contains("panic"));
        assert!(s.code.contains("done()"));
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let s = scan("fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\n'; }");
        assert!(s.code.contains("'a>"), "{}", s.code);
        assert!(s.code.contains("&'a str"));
        assert!(!s.code.contains('"'));
    }

    #[test]
    fn multiline_string_preserves_line_numbers() {
        let src = "let s = \"line one\nline two\";\nfoo();";
        let s = scan(src);
        assert_eq!(s.code.matches('\n').count(), 2);
        let toks = tokenize(&s.code);
        let foo = toks.iter().find(|t| t.text == "foo").unwrap();
        assert_eq!(foo.line, 3);
    }

    #[test]
    fn string_line_continuation_keeps_comment_lines() {
        let src = "let s = \"one \\\n two\";\n// after\nfoo();";
        let s = scan(src);
        assert_eq!(s.comments[0].line, 3);
    }

    #[test]
    fn tokenizer_keeps_tuple_access_dots() {
        let toks = tokenize("b.1.abs()");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["b", ".", "1", ".", "abs", "(", ")"]);
    }

    #[test]
    fn tokenizer_consumes_float_literals() {
        let toks = tokenize("x = 1.5 + 2.0e3;");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert!(texts.contains(&"1.5"));
        assert!(texts.contains(&"2.0e3"));
    }

    #[test]
    fn byte_strings_are_blanked() {
        let s = scan(r#"write(b"panic! bytes", br"raw panic!")"#);
        assert!(!s.code.contains("panic"));
    }
}
