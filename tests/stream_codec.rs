//! Differential test of the stream record codec (`wolfram_stream::record`).
//!
//! Decoding: `parse_record` reads numeric literals on a direct byte-level
//! route and everything else through the expression reader. For seeded
//! record lines (literals and near-misses that must fall back) it must
//! agree with the reference route, `wolfram_expr::parse` followed by
//! `Value::from_expr`: the same values with bit-identical reals, or the
//! same error text.
//!
//! Encoding: `render_result` writes common values directly; it must equal
//! `"ok " + v.to_expr().to_input_form()` (or `"err " + e`) for every value.

use wolfram_difftest::rng::Rng;
use wolfram_runtime::{RuntimeError, Tensor, TensorData, Value};
use wolfram_stream::{parse_record, render_result};

/// The general route: what `parse_record` did before the literal reader.
fn reference(line: &str, arity: usize) -> Result<Vec<Value>, String> {
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

/// Equality with reals compared by bits (so NaN, -0.0 and every rounding
/// difference count).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Tensor(s), Value::Tensor(t)) => {
            s.shape() == t.shape()
                && match (s.data(), t.data()) {
                    (TensorData::F64(xs), TensorData::F64(ys)) => {
                        xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
                    }
                    _ => s == t,
                }
        }
        _ => a == b,
    }
}

fn digits(rng: &mut Rng, n: usize) -> String {
    (0..n)
        .map(|_| char::from(b'0' + rng.below(10) as u8))
        .collect()
}

/// One number in the literal grammar, or just outside it.
fn number(rng: &mut Rng) -> String {
    let sign = if rng.chance(1, 3) { "-" } else { "" };
    let body = match rng.below(10) {
        0 => rng.below(100).to_string(),
        1 => rng.next_u64().to_string(),
        2 => (rng.next_u64() >> 1).to_string(),
        3 => "9223372036854775807".to_owned(),
        4 => format!("{}{}", rng.below(10), digits(rng, 19)),
        5 => format!("{}.", rng.below(1000)),
        6 => format!("{}.{}", rng.below(1000), digits(rng, 3)),
        7 => {
            let int_digits = 1 + rng.below(20) as usize;
            format!("{}.{}", digits(rng, int_digits), digits(rng, 25))
        }
        8 => format!("0{}.{}", digits(rng, 2), digits(rng, 1)),
        _ => format!("{:?}", rng.f64_unit() * 1e6),
    };
    format!("{sign}{body}")
}

fn separator(rng: &mut Rng) -> &'static str {
    const SEPARATORS: [&str; 4] = [", ", ",", " , ", "  ,  "];
    SEPARATORS[rng.below(4) as usize]
}

fn list(rng: &mut Rng, len: usize) -> String {
    let items: Vec<String> = (0..len).map(|_| number(rng)).collect();
    let mut out = String::from("{");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(separator(rng));
        }
        out.push_str(item);
    }
    out.push('}');
    out
}

/// A line in the literal grammar: a scalar or a flat list, maybe padded
/// with spaces.
fn literal(rng: &mut Rng) -> String {
    let core = if rng.chance(1, 2) {
        number(rng)
    } else {
        let len = 1 + rng.below(8) as usize;
        list(rng, len)
    };
    let pad = |rng: &mut Rng| " ".repeat(rng.below(3) as usize);
    format!("{}{core}{}", pad(rng), pad(rng))
}

/// Text that is not a literal but may well be a valid record.
const NEAR_MISSES: &[&str] = &[
    "\t",
    "(*c*)",
    "1.*^3",
    "-2.5*^-3",
    "1.5e3",
    "- 5",
    "--5",
    "+5",
    "{}",
    "{1,}",
    "{,1}",
    "{{1, 2}, {3}}",
    "{{1, 2}, {3, 4}}",
    "{{1.5, 2}, {3, 4}}",
    "-9223372036854775808",
    "{-9223372036854775808, 1}",
    "12345678901234567890",
    "2*3",
    "x",
    "True",
    "\"s\"",
    "{1, x}",
    "1..",
    ".5",
    "1.5.",
    "",
    "{1 2}",
    "1 2",
];

/// A near-miss: a literal with fall-back text spliced in at a random
/// byte boundary, appended, or standing alone.
fn near_miss(rng: &mut Rng) -> String {
    let miss = *rng.pick(NEAR_MISSES);
    match rng.below(3) {
        0 => miss.to_owned(),
        1 => {
            let mut line = literal(rng);
            let at = rng.below(line.len() as u64 + 1) as usize;
            line.insert_str(at, miss);
            line
        }
        _ => format!("{{{}{}{miss}}}", number(rng), separator(rng)),
    }
}

#[test]
fn parse_record_agrees_with_the_expression_reader() {
    let mut rng = Rng::new(0x5EED_C0DE);
    let (mut ok, mut err) = (0, 0);
    for i in 0..20_000 {
        let line = if i % 2 == 0 {
            literal(&mut rng)
        } else {
            near_miss(&mut rng)
        };
        for arity in [1, 2] {
            let got = parse_record(&line, arity);
            let want = reference(&line, arity);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    assert!(
                        g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same(a, b)),
                        "arity {arity}, line {line:?}: got {g:?}, want {w:?}"
                    );
                    ok += 1;
                }
                (Err(g), Err(w)) => {
                    assert_eq!(g, w, "arity {arity}, line {line:?}");
                    err += 1;
                }
                _ => panic!("arity {arity}, line {line:?}: got {got:?}, want {want:?}"),
            }
        }
    }
    // Both outcomes are exercised in bulk.
    assert!(ok > 10_000 && err > 5_000, "{ok} ok, {err} err");
}

fn reals(rng: &mut Rng) -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 4.0,
        -5e-324,
        1e15,
        -1e15,
        999_999_999_999_999.0,
        1e15 + 0.5,
        9_007_199_254_740_992.0,
        1e300,
        f64::MAX,
        1e-7,
        0.1,
        -2.5,
        123_456.789,
    ];
    xs.extend((0..200).map(|_| f64::from_bits(rng.next_u64())));
    xs.extend((0..200).map(|_| (rng.f64_unit() - 0.5) * 1e4));
    xs
}

fn expected(r: &Result<Value, RuntimeError>) -> String {
    match r {
        Ok(v) => format!("ok {}", v.to_expr().to_input_form()),
        Err(e) => format!("err {e}"),
    }
}

#[test]
fn render_result_matches_input_form() {
    let mut rng = Rng::new(0xC0DE_C0DE);
    let xs = reals(&mut rng);
    let ints: Vec<i64> = [0, -1, 7, i64::MIN, i64::MAX]
        .into_iter()
        .chain((0..50).map(|_| rng.next_u64() as i64))
        .collect();
    let complexes: Vec<(f64, f64)> = xs.iter().map(|&x| (x, -x)).collect();
    let tensor = |shape: Vec<usize>, data: TensorData| {
        Value::Tensor(Tensor::with_shape(shape, data).unwrap())
    };

    let mut values: Vec<Value> = vec![
        Value::Bool(true),
        Value::Bool(false),
        Value::Null,
        Value::Complex(1.0, -2.5),
        Value::Complex(f64::NAN, 1e15),
        Value::Str(std::sync::Arc::new("a \"quoted\"\nline".to_owned())),
        Value::Expr(wolfram_expr::parse("f[x, 1.5]").unwrap()),
        tensor(vec![0], TensorData::I64(vec![])),
        tensor(vec![2, 0], TensorData::F64(vec![])),
        tensor(vec![0, 3], TensorData::I64(vec![])),
    ];
    values.extend(xs.iter().map(|&x| Value::F64(x)));
    values.extend(ints.iter().map(|&i| Value::I64(i)));
    for shape in [
        vec![6],
        vec![2, 3],
        vec![3, 2],
        vec![1, 6],
        vec![6, 1],
        vec![1, 2, 3],
    ] {
        let n: usize = shape.iter().product();
        for start in (0..xs.len() - n).step_by(n) {
            values.push(tensor(
                shape.clone(),
                TensorData::F64(xs[start..start + n].to_vec()),
            ));
            values.push(tensor(
                shape.clone(),
                TensorData::Complex(complexes[start..start + n].to_vec()),
            ));
        }
        for start in (0..ints.len() - n).step_by(n) {
            values.push(tensor(
                shape.clone(),
                TensorData::I64(ints[start..start + n].to_vec()),
            ));
        }
    }
    for v in values {
        let r = Ok(v);
        assert_eq!(render_result(&r), expected(&r), "{r:?}");
    }
    for e in [
        RuntimeError::IntegerOverflow,
        RuntimeError::PartOutOfRange {
            index: 9,
            length: 2,
        },
        RuntimeError::Type("argument x does not match parameter type Integer64".into()),
        RuntimeError::Other("internal: boom".into()),
    ] {
        let r = Err(e);
        assert_eq!(render_result(&r), expected(&r));
    }
}
