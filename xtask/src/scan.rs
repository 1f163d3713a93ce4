//! Hand-rolled Rust source scanner (no `syn`; the sandbox has no
//! crates.io access).
//!
//! [`strip`] splits a file into per-line *code* and *comment* streams
//! with string/char-literal contents dropped, so downstream passes can
//! search for tokens without being fooled by literals.  On top of that,
//! [`parse_fns`] recovers a per-function table (name,
//! unsafety, params, const generics, body extent, doc block,
//! `#[target_feature]` sets) and [`calls_in`] extracts free-function call
//! paths with their turbofish — exactly enough structure for the
//! contract pass, and nothing more.
//!
//! Tokenizer edge cases covered (each with a regression test below):
//! raw strings with any hash depth, nested block comments, lifetime
//! ticks vs char literals, raw identifiers (`r#unsafe` must not look
//! like the keyword), and escaped line continuations inside string
//! literals (which must not shift line numbers of later findings).

/// Per-line split of a source file into code and comment text.  String
/// and char literal *contents* are dropped from both streams.
pub struct Stripped {
    pub code: Vec<String>,
    pub comment: Vec<String>,
}

pub fn strip(source: &str) -> Stripped {
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str { raw_hashes: Option<u32> },
        CharLit,
    }
    let mut code = vec![String::new()];
    let mut comment = vec![String::new()];
    let mut state = State::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            code.push(String::new());
            comment.push(String::new());
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    code.last_mut().expect("nonempty").push('"');
                    state = State::Str { raw_hashes: None };
                    i += 1;
                } else if c == 'r'
                    && next == Some('#')
                    && chars
                        .get(i + 2)
                        .is_some_and(|&c| c.is_alphanumeric() || c == '_')
                {
                    // Raw identifier (`r#unsafe`): keep it one identifier
                    // in the code stream — emitting the `#` would leave a
                    // word boundary and `r#unsafe` would match the
                    // keyword search.
                    code.last_mut().expect("nonempty").push_str("r_");
                    i += 2;
                } else if c == 'r' || c == 'b' {
                    // Possible raw/byte string: r", r#", br", b"…
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = j > i + 1 || c == 'r';
                    if chars.get(j) == Some(&'"') && (is_raw || c == 'b') {
                        code.last_mut().expect("nonempty").push('"');
                        state = State::Str {
                            raw_hashes: is_raw.then_some(hashes),
                        };
                        i = j + 1;
                    } else {
                        code.last_mut().expect("nonempty").push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs. lifetime: a literal is '\…' or 'x'
                    // followed by a closing quote.
                    if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                        code.last_mut().expect("nonempty").push('\'');
                        state = State::CharLit;
                    } else {
                        code.last_mut().expect("nonempty").push('\'');
                    }
                    i += 1;
                } else {
                    code.last_mut().expect("nonempty").push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.last_mut().expect("nonempty").push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    comment.last_mut().expect("nonempty").push(c);
                    i += 1;
                }
            }
            State::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' {
                        // Skip the escaped character — unless it is a
                        // newline (a string line continuation), which the
                        // top of the loop must see so line numbers of
                        // everything after the literal stay correct.
                        if chars.get(i + 1) == Some(&'\n') {
                            i += 1;
                        } else {
                            i += 2;
                        }
                    } else if c == '"' {
                        code.last_mut().expect("nonempty").push('"');
                        state = State::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Some(h) => {
                    if c == '"' && (0..h as usize).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                        code.last_mut().expect("nonempty").push('"');
                        state = State::Code;
                        i += 1 + h as usize;
                    } else {
                        i += 1;
                    }
                }
            },
            State::CharLit => {
                if c == '\\' {
                    if chars.get(i + 1) == Some(&'\n') {
                        i += 1;
                    } else {
                        i += 2;
                    }
                } else if c == '\'' {
                    code.last_mut().expect("nonempty").push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    Stripped { code, comment }
}

/// One scanned source file: the unit every pass operates on.  Passes take
/// slices of these, so tests can assemble small in-memory trees.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Original source lines (needed where string contents matter, e.g.
    /// `#[target_feature(enable = "…")]`).
    pub raw: Vec<String>,
    pub code: Vec<String>,
    pub comment: Vec<String>,
}

impl SourceFile {
    pub fn new(rel: &str, source: &str) -> Self {
        let stripped = strip(source);
        SourceFile {
            rel: rel.to_string(),
            raw: source.lines().map(str::to_string).collect(),
            code: stripped.code,
            comment: stripped.comment,
        }
    }

    /// The code stream joined with newlines (offsets map to lines via
    /// [`line_of`]).
    pub fn flat_code(&self) -> String {
        self.code.join("\n")
    }
}

/// 0-based line of byte offset `off` in a flat (newline-joined) string.
pub fn line_of(flat: &str, off: usize) -> usize {
    flat.as_bytes()[..off]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `text[pos..pos+len]` is a word-boundary-delimited token.
pub fn is_word_at(text: &str, pos: usize, len: usize) -> bool {
    let bytes = text.as_bytes();
    let before_ok = pos == 0 || !is_ident_char(bytes[pos - 1] as char);
    let end = pos + len;
    let after_ok = end >= bytes.len() || !is_ident_char(bytes[end] as char);
    before_ok && after_ok
}

/// One function item recovered from the code stream.
pub struct FnInfo {
    pub name: String,
    pub is_unsafe: bool,
    pub is_pub: bool,
    /// 0-based line of the `fn` keyword.
    pub header_line: usize,
    /// Parameter names, in order.
    pub params: Vec<String>,
    /// Const-generic parameter names (e.g. `C`, `ADD`).
    pub const_generics: Vec<String>,
    /// 0-based inclusive line range of the body (including its braces).
    pub body: Option<(usize, usize)>,
    /// `enable = "…"` feature lists of `#[target_feature]` attributes,
    /// normalized (no spaces): e.g. `"avx512f,avx512vl"`.
    pub target_features: Vec<String>,
    /// Comment text of the contiguous doc/attr block above the header.
    pub doc: Vec<String>,
}

/// Recovers every `fn` item of a file (free functions and methods alike).
pub fn parse_fns(file: &SourceFile) -> Vec<FnInfo> {
    let flat = file.flat_code();
    let bytes = flat.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = flat[from..].find("fn") {
        let start = from + pos;
        from = start + 2;
        if !is_word_at(&flat, start, 2) {
            continue;
        }
        // Name.
        let mut i = start + 2;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && is_ident_char(bytes[i] as char) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` not followed by an identifier (e.g. `Fn(`)
        }
        let name = flat[name_start..i].to_string();
        // Qualifiers: scan the text between the previous item boundary
        // and the `fn` keyword.
        let qual_start = flat[..start]
            .rfind(['；', ';', '{', '}'])
            .map_or(0, |p| p + 1);
        let quals = &flat[qual_start..start];
        let is_unsafe = find_word(quals, "unsafe").is_some();
        let is_pub = find_word(quals, "pub").is_some();
        // Generics.
        let mut const_generics = Vec::new();
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b'<' {
            let Some(gen_end) = matching(&flat, i, b'<', b'>') else {
                continue;
            };
            let generics = &flat[i + 1..gen_end];
            let mut g = 0usize;
            while let Some(p) = generics[g..].find("const") {
                let cp = g + p;
                g = cp + 5;
                if !is_word_at(generics, cp, 5) {
                    continue;
                }
                let rest = generics[cp + 5..].trim_start();
                let ident: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
                if !ident.is_empty() {
                    const_generics.push(ident);
                }
            }
            i = gen_end + 1;
        }
        // Parameters.
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'(' {
            continue;
        }
        let Some(params_end) = matching(&flat, i, b'(', b')') else {
            continue;
        };
        let params = split_top_level(&flat[i + 1..params_end], ',')
            .into_iter()
            .filter_map(|p| {
                let name_part = p.split(':').next().unwrap_or("");
                let token = name_part
                    .trim()
                    .trim_start_matches("mut ")
                    .trim_start_matches('&')
                    .trim();
                let ident: String = token.chars().take_while(|&c| is_ident_char(c)).collect();
                (!ident.is_empty() && ident != "self").then_some(ident)
            })
            .collect();
        // Body: first `{` before any `;` at this level.
        let mut j = params_end + 1;
        let mut body = None;
        while j < bytes.len() {
            match bytes[j] {
                b';' => break,
                b'{' => {
                    if let Some(close) = matching(&flat, j, b'{', b'}') {
                        body = Some((line_of(&flat, j), line_of(&flat, close)));
                    }
                    break;
                }
                _ => j += 1,
            }
        }
        let header_line = line_of(&flat, start);
        // Doc/attr block above the header line (qualifiers like `pub
        // unsafe` share the `fn` line after rustfmt, so walking up from
        // the header crosses only attrs, comments, and blanks).
        let (doc, target_features) = doc_block(file, header_line);
        out.push(FnInfo {
            name,
            is_unsafe,
            is_pub,
            header_line,
            params,
            const_generics,
            body,
            target_features,
            doc,
        });
    }
    out
}

/// Collects the contiguous comment/attr block above line `line` (0-based),
/// returning the comment text (top-down) and any `#[target_feature]`
/// feature lists found among the attrs.
fn doc_block(file: &SourceFile, line: usize) -> (Vec<String>, Vec<String>) {
    let mut doc = Vec::new();
    let mut features = Vec::new();
    let mut i = line;
    while i > 0 {
        i -= 1;
        let code = file.code[i].trim();
        let comment = file.comment[i].trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        if is_attr {
            if let Some(f) = target_feature_of(file.raw.get(i).map_or("", |s| s.as_str())) {
                features.push(f);
            }
            continue;
        }
        if !comment.is_empty() {
            doc.push(comment.to_string());
            continue;
        }
        if code.is_empty() {
            continue;
        }
        break;
    }
    doc.reverse();
    (doc, features)
}

/// Extracts the normalized feature list of a raw `#[target_feature]` line.
fn target_feature_of(raw_line: &str) -> Option<String> {
    let idx = raw_line.find("target_feature")?;
    let rest = &raw_line[idx..];
    let q1 = rest.find('"')? + 1;
    let q2 = rest[q1..].find('"')? + q1;
    Some(rest[q1..q2].replace(char::is_whitespace, ""))
}

/// A free-function call site inside a body.
pub struct Call {
    /// Path segments, e.g. `["super", "csr_avx", "spmv"]`.
    pub path: Vec<String>,
    /// Turbofish argument text, e.g. `"ADD"` or `"8"`.
    pub turbofish: Option<String>,
    /// 0-based line of the opening parenthesis.
    pub line: usize,
}

/// Extracts free-function calls (methods and macros excluded) within the
/// 0-based inclusive line range `body`.
pub fn calls_in(file: &SourceFile, body: (usize, usize)) -> Vec<Call> {
    let flat = file.code[body.0..=body.1].join("\n");
    let bytes = flat.as_bytes();
    let mut out = Vec::new();
    for (off, _) in flat.match_indices('(') {
        let mut i = off;
        // Walk back over whitespace.
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        // Turbofish?
        let mut turbofish = None;
        if i > 0 && bytes[i - 1] == b'>' {
            let Some(open) = matching_back(&flat, i - 1, b'<', b'>') else {
                continue;
            };
            if !flat[..open].ends_with("::") {
                continue;
            }
            turbofish = Some(flat[open + 1..i - 1].trim().to_string());
            i = open - 2;
        }
        // Path segments, innermost first.
        let mut path = Vec::new();
        loop {
            let end = i;
            while i > 0 && is_ident_char(bytes[i - 1] as char) {
                i -= 1;
            }
            if i == end {
                path.clear();
                break;
            }
            path.push(flat[i..end].to_string());
            if i >= 2 && &flat[i - 2..i] == "::" {
                i -= 2;
            } else {
                break;
            }
        }
        if path.is_empty() {
            continue;
        }
        // Methods (`x.foo(`) and macros (`foo!(`) are not free calls.
        if i > 0 && (bytes[i - 1] == b'.' || bytes[i - 1] == b'!') {
            continue;
        }
        let head = path.last().expect("nonempty");
        const KEYWORDS: [&str; 8] = ["if", "while", "for", "match", "loop", "return", "in", "fn"];
        if KEYWORDS.contains(&head.as_str()) {
            continue;
        }
        // A declaration header (`fn name(`) is not a call of `name`.
        let mut j = i;
        while j > 0 && (bytes[j - 1] as char).is_whitespace() {
            j -= 1;
        }
        if j >= 2 && &flat[j - 2..j] == "fn" && (j == 2 || !is_ident_char(bytes[j - 3] as char)) {
            continue;
        }
        path.reverse();
        out.push(Call {
            path,
            turbofish,
            line: body.0 + line_of(&flat, off),
        });
    }
    out
}

/// Finds `word` at a word boundary, returning its offset.
pub fn find_word(text: &str, word: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        from = start + word.len();
        if is_word_at(text, start, word.len()) {
            return Some(start);
        }
    }
    None
}

/// Offset of the delimiter matching the opener at `open`.
pub(crate) fn matching(text: &str, open: usize, open_ch: u8, close_ch: u8) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0i32;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        if b == open_ch {
            depth += 1;
        } else if b == close_ch {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Offset of the opener matching the closer at `close` (scanning back).
fn matching_back(text: &str, close: usize, open_ch: u8, close_ch: u8) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        if bytes[k] == close_ch {
            depth += 1;
        } else if bytes[k] == open_ch {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Splits at `sep` occurrences that sit at zero bracket depth.
pub fn split_top_level(text: &str, sep: char) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '(' | '[' | '<' | '{' => depth += 1,
            ')' | ']' | '>' | '}' => depth -= 1,
            _ => {}
        }
        if c == sep && depth == 0 {
            out.push(cur.trim().to_string());
            cur = String::new();
        } else {
            cur.push(c);
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out.retain(|s| !s.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_strings_with_hashes_hide_contents() {
        let src = "fn f() {\n    let a = r#\"unsafe { *p } */ \"#;\n    let b = r##\"nested \"# quote\"##;\n    let c = br#\"bytes\"#;\n    let _ = (a, b, c);\n}\nunsafe fn g() {}\n";
        let s = strip(src);
        // No `unsafe` token leaks from any literal; the real one on the
        // last line keeps its exact line number.
        for (n, line) in s.code.iter().enumerate() {
            if n == 6 {
                assert!(line.contains("unsafe"), "line 7 keeps its token");
            } else {
                assert!(!line.contains("unsafe"), "line {}: {line}", n + 1);
            }
        }
    }

    #[test]
    fn nested_block_comments_fully_stripped() {
        let src =
            "fn f() {}\n/* outer /* inner unsafe */ still comment unsafe */\nunsafe fn g() {}\n";
        let s = strip(src);
        assert!(!s.code[1].contains("unsafe"));
        assert!(s.comment[1].contains("inner unsafe"));
        assert!(s.code[2].contains("unsafe"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // A lifetime tick must not open a char literal and swallow code.
        let src = "fn f<'a>(x: &'a str) -> &'a str {\n    let c = 'x';\n    let esc = '\\'';\n    let nl = '\\n';\n    unsafe { core::hint::black_box(x) }\n}\n";
        let s = strip(src);
        assert!(s.code[0].contains("'a str"), "{}", s.code[0]);
        assert!(!s.code[1].contains('x') || !s.code[1].contains("'x'"));
        assert!(s.code[4].contains("unsafe"), "code after literals survives");
    }

    #[test]
    fn raw_identifier_is_not_the_keyword() {
        // Regression: `r#unsafe` used to leave `#` + `unsafe` in the code
        // stream, where the word-boundary search matched the keyword.
        let src = "fn f() {\n    let r#unsafe = 1;\n    let _ = r#unsafe;\n}\n";
        let s = strip(src);
        for line in &s.code {
            assert!(find_word(line, "unsafe").is_none(), "{line}");
        }
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_numbers() {
        // Regression: the escape-skip used to jump over the newline of a
        // string line continuation, shifting every later line number.
        let src = "fn f() -> &'static str {\n    \"one \\\n     two\"\n}\nunsafe fn g() {}\n";
        let s = strip(src);
        assert_eq!(s.code.len(), 6, "all six physical lines present");
        assert!(s.code[4].contains("unsafe"), "{:?}", s.code);
    }

    #[test]
    fn parse_fns_recovers_signature_details() {
        let file = SourceFile::new(
            "k.rs",
            "/// Docs.\n///\n/// # Safety\n/// `requires: aligned(val, 64)`\n#[target_feature(enable = \"avx512f,avx512vl\")]\npub unsafe fn spmv<const ADD: bool>(\n    sliceptr: &[usize],\n    val: &[f64],\n    y: &mut [f64],\n) {\n    let _ = (sliceptr, val, y);\n}\n",
        );
        let fns = parse_fns(&file);
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.name, "spmv");
        assert!(f.is_unsafe && f.is_pub);
        assert_eq!(f.params, vec!["sliceptr", "val", "y"]);
        assert_eq!(f.const_generics, vec!["ADD"]);
        assert_eq!(f.target_features, vec!["avx512f,avx512vl"]);
        assert!(f.doc.iter().any(|l| l.contains("requires:")));
        assert!(f.body.is_some());
    }

    #[test]
    fn calls_in_finds_paths_and_turbofish() {
        let file = SourceFile::new(
            "d.rs",
            "fn f() {\n    debug_check_sell::<8>(a, b);\n    super::csr_avx::spmv::<ADD>(x);\n    val.as_ptr();\n    assert!(true);\n}\n",
        );
        let fns = parse_fns(&file);
        let calls = calls_in(&file, fns[0].body.expect("body"));
        let paths: Vec<String> = calls.iter().map(|c| c.path.join("::")).collect();
        assert!(paths.contains(&"debug_check_sell".to_string()));
        assert!(paths.contains(&"super::csr_avx::spmv".to_string()));
        // Method call and macro are excluded.
        assert!(!paths.iter().any(|p| p.contains("as_ptr")));
        assert!(!paths.iter().any(|p| p.contains("assert")));
        let tf: Vec<_> = calls.iter().filter_map(|c| c.turbofish.clone()).collect();
        assert!(tf.contains(&"8".to_string()) && tf.contains(&"ADD".to_string()));
    }
}
