//! The record source/sink layer: line-delimited values.
//!
//! A record is one line of text. For a unary function the whole line is
//! the single argument (so `{1.0, 2.0}` can feed a tensor parameter);
//! for higher arities the line must be a list with one element per
//! parameter: `{3, 4.5}`.
//!
//! # Decoding
//!
//! The line itself picks one of two routes. A *numeric literal* is read
//! byte by byte straight into [`Value`]s:
//!
//! ```text
//! record ::= sp* (number | list) sp*
//! list   ::= '{' sp* number (sp* ',' sp* number)* sp* '}'
//! number ::= '-'? digit+ ('.' digit*)?
//! sp     ::= ' '
//! ```
//!
//! An integer must fit `i64`; a real has no exponent. A scalar becomes
//! `I64` or `F64`. For a unary function a list becomes an `I64` tensor,
//! or an `F64` tensor with the integers promoted if any element is
//! real; for higher arities a list of exactly `arity` scalars becomes
//! the argument vector.
//!
//! Every other line falls back to the ordinary expression reader and
//! [`Value::from_expr`], with that reader's error texts: other
//! whitespace, comments, `*^` exponents, symbols, strings, operators,
//! empty, nested or ragged lists, integers beyond `i64`, and argument
//! count mismatches. The literal reader hands each digit string to the
//! same `str::parse` call the lexer makes and negates afterwards as the
//! parser does, so the two routes agree bit for bit; the differential
//! test `tests/stream_codec.rs` pins them together.
//!
//! # Encoding
//!
//! A result line is `ok ` plus the value's InputForm, or `err ` plus the
//! error. Machine scalars, `True`/`False`/`Null` and rank-1/2 integer or
//! real tensors are written straight into the output buffer, reals
//! through the expression printer's own
//! [`write_real`](wolfram_expr::format::write_real); every other value
//! goes through [`Value::to_expr`] and InputForm.

use std::fmt::Write;
use wolfram_expr::format::write_real;
use wolfram_runtime::{RuntimeError, Tensor, TensorData, Value};

/// One decoded record: the argument vector for a single application.
pub type Record = Vec<Value>;

/// Parses one record line against the stream function's arity.
///
/// # Errors
///
/// A human-readable description of the malformed line.
pub fn parse_record(line: &str, arity: usize) -> Result<Record, String> {
    if let Some(record) = read_literal(line, arity) {
        return Ok(record);
    }
    let expr = wolfram_expr::parse(line).map_err(|e| e.to_string())?;
    if arity == 1 {
        return Ok(vec![Value::from_expr(&expr)]);
    }
    if !expr.has_head("List") || expr.args().len() != arity {
        return Err(format!(
            "expected a {arity}-element argument list, got {}",
            line.trim()
        ));
    }
    Ok(expr.args().iter().map(Value::from_expr).collect())
}

/// Reads `line` as a numeric literal record, or `None` if it is not one
/// (the caller then takes the general route).
fn read_literal(line: &str, arity: usize) -> Option<Record> {
    let mut cur = Cursor { text: line, pos: 0 };
    cur.skip_spaces();
    let record = if cur.eat(b'{') {
        if arity == 1 {
            vec![Value::Tensor(cur.tensor()?)]
        } else {
            let mut args = Vec::with_capacity(arity);
            cur.elements(|n| args.push(n.into()))?;
            if args.len() != arity {
                return None;
            }
            args
        }
    } else if arity == 1 {
        vec![cur.number()?.into()]
    } else {
        return None;
    };
    cur.skip_spaces();
    (cur.pos == line.len()).then_some(record)
}

/// One machine number, as the lexer and parser would read it.
enum Num {
    Int(i64),
    Real(f64),
}

impl From<Num> for Value {
    fn from(n: Num) -> Value {
        match n {
            Num::Int(v) => Value::I64(v),
            Num::Real(v) => Value::F64(v),
        }
    }
}

/// A byte cursor over one record line. It only stops on ASCII bytes, so
/// every slice it takes is on a character boundary.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_spaces(&mut self) {
        while self.eat(b' ') {}
    }

    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `'-'? digit+ ('.' digit*)?`, parsed by the lexer's calls on the
    /// same digits and negated afterwards as the parser's prefix minus
    /// does. An integer beyond `i64` is not a literal here (the lexer
    /// makes it a BigInteger).
    fn number(&mut self) -> Option<Num> {
        let negative = self.eat(b'-');
        let start = self.pos;
        if self.skip_digits() == 0 {
            return None;
        }
        if self.eat(b'.') {
            self.skip_digits();
            let text = &self.text[start..self.pos];
            let v: f64 = text.strip_suffix('.').unwrap_or(text).parse().ok()?;
            Some(Num::Real(if negative { -v } else { v }))
        } else {
            let v: i64 = self.text[start..self.pos].parse().ok()?;
            Some(Num::Int(if negative { -v } else { v }))
        }
    }

    /// The elements of a flat, non-empty list whose `{` is already
    /// consumed, through its `}`.
    fn elements(&mut self, mut each: impl FnMut(Num)) -> Option<()> {
        loop {
            self.skip_spaces();
            each(self.number()?);
            self.skip_spaces();
            if self.eat(b'}') {
                return Some(());
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    /// A flat list packed as `Value::from_expr` packs it: all integers
    /// make an `I64` tensor, any real makes an `F64` tensor with the
    /// integers promoted.
    fn tensor(&mut self) -> Option<Tensor> {
        let len = 1 + self.text.as_bytes()[self.pos..]
            .iter()
            .filter(|&&b| b == b',')
            .count();
        let mut ints: Vec<i64> = Vec::new();
        let mut reals: Option<Vec<f64>> = None;
        self.elements(|n| match (n, &mut reals) {
            (Num::Int(v), None) => {
                if ints.capacity() == 0 {
                    ints.reserve_exact(len);
                }
                ints.push(v);
            }
            (Num::Int(v), Some(reals)) => reals.push(v as f64),
            (Num::Real(v), Some(reals)) => reals.push(v),
            (Num::Real(v), None) => {
                let mut promoted = Vec::with_capacity(len);
                promoted.extend(ints.iter().map(|&i| i as f64));
                promoted.push(v);
                reals = Some(promoted);
            }
        })?;
        Some(match reals {
            Some(reals) => Tensor::from_f64(reals),
            None => Tensor::from_i64(ints),
        })
    }
}

/// Renders one per-record result as its output line.
pub fn render_result(r: &Result<Value, RuntimeError>) -> String {
    let mut out = String::new();
    write_result(r, &mut out);
    out
}

/// Appends one per-record result's output line, without its newline, to
/// `out`: the buffer-reusing form of [`render_result`].
pub fn write_result(r: &Result<Value, RuntimeError>, out: &mut String) {
    match r {
        Ok(v) => {
            out.push_str("ok ");
            write_value(v, out);
        }
        Err(e) => {
            let _ = write!(out, "err {e}");
        }
    }
}

/// Appends the InputForm of `v`.
fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::I64(i) => {
            let _ = write!(out, "{i}");
        }
        Value::F64(x) => write_real(*x, out),
        Value::Bool(true) => out.push_str("True"),
        Value::Bool(false) => out.push_str("False"),
        Value::Null => out.push_str("Null"),
        Value::Tensor(t) if t.rank() <= 2 => match t.data() {
            TensorData::I64(xs) => write_tensor(t.shape(), xs, out, |i, out| {
                let _ = write!(out, "{i}");
            }),
            TensorData::F64(xs) => write_tensor(t.shape(), xs, out, |x, out| write_real(*x, out)),
            TensorData::Complex(_) => out.push_str(&v.to_expr().to_input_form()),
        },
        _ => out.push_str(&v.to_expr().to_input_form()),
    }
}

/// Appends a rank-1 or rank-2 tensor as nested braces.
fn write_tensor<T>(shape: &[usize], xs: &[T], out: &mut String, elem: impl Fn(&T, &mut String)) {
    let row = |xs: &[T], out: &mut String| {
        out.push('{');
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            elem(x, out);
        }
        out.push('}');
    };
    match *shape {
        [_] => row(xs, out),
        [rows, cols] => {
            out.push('{');
            for r in 0..rows {
                if r > 0 {
                    out.push_str(", ");
                }
                row(&xs[r * cols..(r + 1) * cols], out);
            }
            out.push('}');
        }
        _ => unreachable!("write_value passes rank 1 and 2 only"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_records_take_the_whole_line() {
        let r = parse_record("{1, 2, 3}", 1).unwrap();
        assert_eq!(r.len(), 1);
        let r = parse_record("42", 1).unwrap();
        assert_eq!(r, vec![Value::I64(42)]);
    }

    #[test]
    fn n_ary_records_need_a_matching_list() {
        let r = parse_record("{3, 4.5}", 2).unwrap();
        assert_eq!(r, vec![Value::I64(3), Value::F64(4.5)]);
        assert!(parse_record("{3}", 2).is_err());
        assert!(parse_record("3", 2).is_err());
        assert!(parse_record("{", 2).is_err());
    }

    #[test]
    fn literals_take_the_direct_route() {
        assert_eq!(read_literal(" -12345 ", 1), Some(vec![Value::I64(-12345)]));
        assert_eq!(read_literal("2.", 1), Some(vec![Value::F64(2.0)]));
        assert_eq!(
            read_literal("{1, -2.5,3}", 1),
            Some(vec![Value::Tensor(Tensor::from_f64(vec![1.0, -2.5, 3.0]))])
        );
        assert_eq!(
            read_literal("{1, 2}", 1),
            Some(vec![Value::Tensor(Tensor::from_i64(vec![1, 2]))])
        );
        assert_eq!(
            read_literal("{-0.0, 7}", 2),
            Some(vec![Value::F64(-0.0), Value::I64(7)])
        );
        for other in [
            "1.*^3",
            "\t5",
            "- 5",
            "{}",
            "{1,}",
            "{{1}}",
            "9223372036854775808",
            "x",
            "1..",
        ] {
            assert_eq!(read_literal(other, 1), None, "{other}");
        }
        assert_eq!(read_literal("{1, 2, 3}", 2), None, "count mismatch");
        assert_eq!(read_literal("5", 2), None, "scalar for a binary function");
    }
}
