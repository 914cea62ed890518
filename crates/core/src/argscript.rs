//! The argument-file script language — the paper's §3.2 future work
//! ("design a script language specifically for the command line argument
//! file … enable the generation of command line arguments for each
//! instance dynamically"), implemented as an extension.
//!
//! Plain lines behave exactly as in [`crate::parse_arg_file`]. Two
//! directive forms generate lines:
//!
//! ```text
//! # eight instances, lookups growing 100, 150, 200, ...
//! @repeat 8: -l {100 + 50*i} -g 32
//!
//! # explicit range with a step: i = 2, 4, 6, 8
//! @for i in 2..10 step 2: -v {i*1000} -d {i}
//! ```
//!
//! Inside a directive's template, `{expr}` evaluates an integer expression
//! over the loop variable `i` with `+ - * / %`, parentheses and numeric
//! literals. `@repeat N` binds `i = 0..N`. `@for i in a..b [step s]`
//! iterates the half-open range.

use crate::argfile::{parse_arg_file, ArgFileError};

/// Script processing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptError {
    /// The underlying file was empty after expansion.
    Empty,
    /// A directive or expression failed to parse.
    Parse { line: usize, message: String },
    /// An expression failed to evaluate (division by zero, overflow).
    Eval { line: usize, message: String },
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::Empty => write!(f, "argument script produced no instances"),
            ScriptError::Parse { line, message } => write!(f, "line {line}: {message}"),
            ScriptError::Eval { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for ScriptError {}

impl From<ArgFileError> for ScriptError {
    fn from(e: ArgFileError) -> Self {
        match e {
            ArgFileError::Empty => ScriptError::Empty,
        }
    }
}

/// Expand an argument script into per-instance argument vectors.
///
/// A file without directives expands exactly like [`parse_arg_file`], so
/// this is a strict superset of the proof-of-concept format.
pub fn expand_arg_script(text: &str) -> Result<Vec<Vec<String>>, ScriptError> {
    let mut plain = String::new();
    for (ln, raw) in text.lines().enumerate() {
        let lineno = ln + 1;
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("@repeat") {
            let (count_src, template) = split_directive(rest, lineno)?;
            let count = eval_expr(count_src.trim(), 0).map_err(|message| ScriptError::Eval {
                line: lineno,
                message,
            })?;
            if count < 0 {
                return Err(ScriptError::Eval {
                    line: lineno,
                    message: format!("repeat count {count} is negative"),
                });
            }
            for i in 0..count {
                expand_template(template, i, lineno, &mut plain)?;
            }
        } else if let Some(rest) = line.strip_prefix("@for") {
            let (head, template) = split_directive(rest, lineno)?;
            let (start, end, step) = parse_for_head(head.trim(), lineno)?;
            let mut i = start;
            while (step > 0 && i < end) || (step < 0 && i > end) {
                expand_template(template, i, lineno, &mut plain)?;
                // A next value that overflows i64 lies past `end`: the
                // range is exhausted.
                let Some(next) = i.checked_add(step) else {
                    break;
                };
                i = next;
            }
        } else if line.starts_with('@') {
            return Err(ScriptError::Parse {
                line: lineno,
                message: format!("unknown directive: {line}"),
            });
        } else {
            plain.push_str(raw);
            plain.push('\n');
        }
    }
    Ok(parse_arg_file(&plain)?)
}

fn split_directive(rest: &str, lineno: usize) -> Result<(&str, &str), ScriptError> {
    rest.split_once(':').ok_or_else(|| ScriptError::Parse {
        line: lineno,
        message: "directive needs a ':' before its template".into(),
    })
}

/// `i in a..b [step s]`
fn parse_for_head(head: &str, lineno: usize) -> Result<(i64, i64, i64), ScriptError> {
    let perr = |message: String| ScriptError::Parse {
        line: lineno,
        message,
    };
    let rest = head
        .strip_prefix("i")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix("in"))
        .ok_or_else(|| perr("expected '@for i in a..b [step s]'".into()))?;
    let (range, step_src) = match rest.split_once("step") {
        Some((r, s)) => (r.trim(), Some(s.trim())),
        None => (rest.trim(), None),
    };
    let (a, b) = range
        .split_once("..")
        .ok_or_else(|| perr(format!("expected 'a..b' range, got '{range}'")))?;
    let eerr = |message: String| ScriptError::Eval {
        line: lineno,
        message,
    };
    let start = eval_expr(a.trim(), 0).map_err(eerr)?;
    let end = eval_expr(b.trim(), 0).map_err(|m| ScriptError::Eval {
        line: lineno,
        message: m,
    })?;
    let step = match step_src {
        Some(s) => eval_expr(s, 0).map_err(|m| ScriptError::Eval {
            line: lineno,
            message: m,
        })?,
        None => 1,
    };
    if step == 0 {
        return Err(ScriptError::Eval {
            line: lineno,
            message: "step must be non-zero".into(),
        });
    }
    Ok((start, end, step))
}

fn expand_template(
    template: &str,
    i: i64,
    lineno: usize,
    out: &mut String,
) -> Result<(), ScriptError> {
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let after = &rest[open + 1..];
        let close = after.find('}').ok_or_else(|| ScriptError::Parse {
            line: lineno,
            message: "unterminated '{' in template".into(),
        })?;
        let value = eval_expr(&after[..close], i).map_err(|message| ScriptError::Eval {
            line: lineno,
            message,
        })?;
        out.push_str(&value.to_string());
        rest = &after[close + 1..];
    }
    out.push_str(rest);
    out.push('\n');
    Ok(())
}

// ---- expression evaluator --------------------------------------------

/// Evaluate an integer expression over the loop variable `i`.
/// Grammar: expr := term (('+'|'-') term)*; term := unary (('*'|'/'|'%')
/// unary)*; unary := '-' unary | atom; atom := number | 'i' | '(' expr ')'.
pub fn eval_expr(src: &str, i: i64) -> Result<i64, String> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
        i,
    };
    let v = p.expr()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(format!(
            "unexpected trailing input at '{}'",
            &src[p.pos.min(src.len())..]
        ));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    i: i64,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<i64, String> {
        let mut v = self.term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    v = v
                        .checked_add(self.term()?)
                        .ok_or_else(|| "addition overflow".to_string())?;
                }
                Some(b'-') => {
                    self.pos += 1;
                    v = v
                        .checked_sub(self.term()?)
                        .ok_or_else(|| "subtraction overflow".to_string())?;
                }
                _ => return Ok(v),
            }
        }
    }

    fn term(&mut self) -> Result<i64, String> {
        let mut v = self.unary()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    v = v
                        .checked_mul(self.unary()?)
                        .ok_or_else(|| "multiplication overflow".to_string())?;
                }
                Some(b'/') => {
                    self.pos += 1;
                    let d = self.unary()?;
                    v = v
                        .checked_div(d)
                        .ok_or_else(|| "division by zero".to_string())?;
                }
                Some(b'%') => {
                    self.pos += 1;
                    let d = self.unary()?;
                    v = v
                        .checked_rem(d)
                        .ok_or_else(|| "modulo by zero".to_string())?;
                }
                _ => return Ok(v),
            }
        }
    }

    fn unary(&mut self) -> Result<i64, String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
            return self
                .unary()?
                .checked_neg()
                .ok_or_else(|| "negation overflow".to_string());
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<i64, String> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let v = self.expr()?;
                if self.peek() != Some(b')') {
                    return Err("expected ')'".into());
                }
                self.pos += 1;
                Ok(v)
            }
            Some(b'i') => {
                self.pos += 1;
                Ok(self.i)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false)
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.src[start..self.pos])
                    .unwrap()
                    .parse()
                    .map_err(|e| format!("bad number: {e}"))
            }
            Some(c) => Err(format!("unexpected character '{}'", c as char)),
            None => Err("unexpected end of expression".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expressions_evaluate() {
        assert_eq!(eval_expr("42", 0).unwrap(), 42);
        assert_eq!(eval_expr("i", 7).unwrap(), 7);
        assert_eq!(eval_expr("100 + 50*i", 3).unwrap(), 250);
        assert_eq!(eval_expr("(i+1)*(i+2)", 2).unwrap(), 12);
        assert_eq!(eval_expr("-i + 10", 4).unwrap(), 6);
        assert_eq!(eval_expr("17 % 5", 0).unwrap(), 2);
        assert_eq!(eval_expr("100 / (i+1)", 3).unwrap(), 25);
        assert_eq!(eval_expr("2*3+4*5", 0).unwrap(), 26);
    }

    #[test]
    fn expression_errors_are_reported() {
        assert!(eval_expr("1 / 0", 0).is_err());
        assert!(eval_expr("1 +", 0).is_err());
        assert!(eval_expr("(1", 0).is_err());
        assert!(eval_expr("1 2", 0).is_err());
        assert!(eval_expr("x", 0).is_err());
        assert!(eval_expr("", 0).is_err());
    }

    #[test]
    fn negation_overflow_is_an_error() {
        assert_eq!(
            eval_expr("-(0-9223372036854775807-1)", 0),
            Err("negation overflow".to_string())
        );
        assert_eq!(
            eval_expr("-i", i64::MIN),
            Err("negation overflow".to_string())
        );
        assert_eq!(
            eval_expr("-(0-9223372036854775807)", 0),
            Ok(9223372036854775807)
        );
    }

    #[test]
    fn for_range_ends_where_the_next_step_would_overflow() {
        let lines = expand_arg_script(
            "@for i in 9223372036854775800..9223372036854775807 step 5: -l {i}\n",
        )
        .unwrap();
        assert_eq!(
            lines,
            vec![
                vec!["-l".to_string(), "9223372036854775800".into()],
                vec!["-l".to_string(), "9223372036854775805".into()],
            ]
        );
        let lines = expand_arg_script(
            "@for i in -9223372036854775800..0-9223372036854775807-1 step -5: {i}\n",
        )
        .unwrap();
        assert_eq!(
            lines,
            vec![
                vec!["-9223372036854775800".to_string()],
                vec!["-9223372036854775805".to_string()],
            ]
        );
    }

    #[test]
    fn repeat_generates_instances() {
        let lines = expand_arg_script("@repeat 4: -l {100 + 50*i} -g 32\n").unwrap();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], vec!["-l", "100", "-g", "32"]);
        assert_eq!(lines[3], vec!["-l", "250", "-g", "32"]);
    }

    #[test]
    fn for_range_with_step() {
        let lines = expand_arg_script("@for i in 2..10 step 2: -v {i*1000}\n").unwrap();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], vec!["-v", "2000"]);
        assert_eq!(lines[3], vec!["-v", "8000"]);
    }

    #[test]
    fn negative_step_counts_down() {
        let lines = expand_arg_script("@for i in 3..0 step -1: {i}\n").unwrap();
        assert_eq!(
            lines,
            vec![vec!["3".to_string()], vec!["2".into()], vec!["1".into()]]
        );
    }

    #[test]
    fn plain_lines_and_directives_mix() {
        let text = "# fixed warm-up instance\n-l 10\n@repeat 2: -l {20+i}\n";
        let lines = expand_arg_script(text).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], vec!["-l", "10"]);
        assert_eq!(lines[2], vec!["-l", "21"]);
    }

    #[test]
    fn substitution_inside_tokens() {
        let lines = expand_arg_script("@repeat 2: -c data-{i+1}.bin\n").unwrap();
        assert_eq!(lines[0], vec!["-c", "data-1.bin"]);
        assert_eq!(lines[1], vec!["-c", "data-2.bin"]);
    }

    #[test]
    fn plain_files_behave_like_parse_arg_file() {
        let text = "-a 1 -b\n-a 2 -b\n";
        assert_eq!(
            expand_arg_script(text).unwrap(),
            parse_arg_file(text).unwrap()
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = expand_arg_script("-a 1\n@repeat x: -l {i}\n").unwrap_err();
        assert!(matches!(e, ScriptError::Eval { line: 2, .. }), "{e:?}");
        let e = expand_arg_script("@bogus 3: x\n").unwrap_err();
        assert!(matches!(e, ScriptError::Parse { line: 1, .. }));
        let e = expand_arg_script("@repeat 2: -l {i\n").unwrap_err();
        assert!(matches!(e, ScriptError::Parse { line: 1, .. }));
        let e = expand_arg_script("@repeat 2: -l {1/0}\n").unwrap_err();
        assert!(matches!(e, ScriptError::Eval { line: 1, .. }));
    }

    #[test]
    fn empty_expansion_is_an_error() {
        assert_eq!(
            expand_arg_script("@repeat 0: -l {i}\n").unwrap_err(),
            ScriptError::Empty
        );
        assert_eq!(expand_arg_script("").unwrap_err(), ScriptError::Empty);
    }

    #[test]
    fn directive_without_colon_rejected() {
        assert!(matches!(
            expand_arg_script("@repeat 4 -l {i}\n").unwrap_err(),
            ScriptError::Parse { .. }
        ));
    }
}
