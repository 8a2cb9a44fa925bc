//! A minimal TOML-subset parser for sweep-matrix files.
//!
//! The offline build cannot pull a TOML crate, so this module parses
//! exactly the subset `ExperimentMatrix` files use, into the vendored
//! [`serde::Value`] tree:
//!
//! - `#` comments and blank lines;
//! - `[a.b]` table headers and `[[a.b]]` array-of-tables headers;
//! - `key = value` with bare keys and values that are basic strings
//!   (`"..."` with `\\ \" \n \t` escapes), integers, floats, booleans
//!   or single-line arrays of those.
//!
//! Unsupported TOML (dotted keys, inline tables, multi-line strings,
//! dates, …) is rejected with a line-numbered error rather than
//! misparsed.

use serde::Value;

/// Parse a TOML-subset document into a [`Value::Object`] tree.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut root = Value::Object(Vec::new());
    // Path of the table the next `key = value` lands in. The bool
    // records whether the header was `[[...]]` (append a new element).
    let mut current: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[") {
            let path = inner
                .strip_suffix("]]")
                .ok_or_else(|| format!("line {lineno}: malformed table header `{line}`"))?;
            let path = parse_path(path, lineno)?;
            push_array_table(&mut root, &path, lineno)?;
            current = path;
        } else if let Some(inner) = line.strip_prefix('[') {
            let path = inner
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: malformed table header `{line}`"))?;
            let path = parse_path(path, lineno)?;
            ensure_table(&mut root, &path, lineno)?;
            current = path;
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            if key.is_empty() || !is_bare_key(key) {
                return Err(format!("line {lineno}: unsupported key `{key}`"));
            }
            let value = parse_value(line[eq + 1..].trim(), lineno)?;
            let table = navigate(&mut root, &current, lineno)?;
            let Value::Object(pairs) = table else {
                return Err(format!(
                    "line {lineno}: `{}` is not a table",
                    current.join(".")
                ));
            };
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(format!("line {lineno}: duplicate key `{key}`"));
            }
            pairs.push((key.to_string(), value));
        } else {
            return Err(format!("line {lineno}: unsupported syntax `{line}`"));
        }
    }
    Ok(root)
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_path(path: &str, lineno: usize) -> Result<Vec<String>, String> {
    path.split('.')
        .map(|seg| {
            let seg = seg.trim();
            if is_bare_key(seg) {
                Ok(seg.to_string())
            } else {
                Err(format!("line {lineno}: bad table-path segment `{seg}`"))
            }
        })
        .collect()
}

/// Walk `path` from `root`, descending into the *last* element of any
/// array-of-tables met along the way (TOML's rule for `[[t]]` bodies).
fn navigate<'a>(
    root: &'a mut Value,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Value, String> {
    let mut node = root;
    for seg in path {
        let Value::Object(pairs) = node else {
            return Err(format!("line {lineno}: `{seg}` is not inside a table"));
        };
        if !pairs.iter().any(|(k, _)| k == seg) {
            pairs.push((seg.clone(), Value::Object(Vec::new())));
        }
        let entry = &mut pairs
            .iter_mut()
            .find(|(k, _)| k == seg)
            .expect("just ensured")
            .1;
        node = match entry {
            Value::Array(items) => items
                .last_mut()
                .ok_or_else(|| format!("line {lineno}: empty table array `{seg}`"))?,
            other => other,
        };
    }
    Ok(node)
}

fn ensure_table(root: &mut Value, path: &[String], lineno: usize) -> Result<(), String> {
    let node = navigate(root, path, lineno)?;
    match node {
        Value::Object(_) => Ok(()),
        _ => Err(format!(
            "line {lineno}: `{}` is already a non-table value",
            path.join(".")
        )),
    }
}

fn push_array_table(root: &mut Value, path: &[String], lineno: usize) -> Result<(), String> {
    let (last, parent_path) = path
        .split_last()
        .ok_or_else(|| format!("line {lineno}: empty table path"))?;
    let parent = navigate(root, parent_path, lineno)?;
    let Value::Object(pairs) = parent else {
        return Err(format!(
            "line {lineno}: `{}` is not a table",
            parent_path.join(".")
        ));
    };
    match pairs.iter_mut().find(|(k, _)| k == last) {
        Some((_, Value::Array(items))) => items.push(Value::Object(Vec::new())),
        Some(_) => {
            return Err(format!(
                "line {lineno}: `{}` is already a non-array value",
                path.join(".")
            ))
        }
        None => pairs.push((last.clone(), Value::Array(vec![Value::Object(Vec::new())]))),
    }
    Ok(())
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, String> {
    if text.is_empty() {
        return Err(format!("line {lineno}: missing value"));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let (s, consumed) = parse_string(rest, lineno)?;
        if !rest[consumed..].trim().is_empty() {
            return Err(format!("line {lineno}: trailing junk after string"));
        }
        return Ok(Value::Str(s));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| {
            format!("line {lineno}: unterminated array (arrays must be single-line)")
        })?;
        let mut items = Vec::new();
        for part in split_array(inner, lineno)? {
            items.push(parse_value(part.trim(), lineno)?);
        }
        return Ok(Value::Array(items));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let numeric = text.replace('_', "");
    if numeric.contains(['.', 'e', 'E']) {
        numeric
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("line {lineno}: bad number `{text}`"))
    } else if let Some(stripped) = numeric.strip_prefix('-') {
        stripped
            .parse::<u64>()
            .map(|u| Value::Int(-(u as i64)))
            .map_err(|_| format!("line {lineno}: bad number `{text}`"))
    } else {
        numeric
            .parse::<u64>()
            .map(Value::UInt)
            .map_err(|_| format!("line {lineno}: bad value `{text}`"))
    }
}

/// Parse a basic string body (after the opening quote); returns the
/// unescaped text and how many bytes were consumed *including* the
/// closing quote.
fn parse_string(body: &str, lineno: usize) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                other => {
                    return Err(format!(
                        "line {lineno}: unsupported escape `\\{}`",
                        other.map(|(_, c)| c).unwrap_or(' ')
                    ))
                }
            },
            _ => out.push(c),
        }
    }
    Err(format!("line {lineno}: unterminated string"))
}

/// Split an array body on top-level commas (commas inside strings or
/// nested arrays don't split).
fn split_array(body: &str, lineno: usize) -> Result<Vec<&str>, String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| format!("line {lineno}: unbalanced `]`"))?
            }
            ',' if !in_str && depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    if in_str || depth != 0 {
        return Err(format!("line {lineno}: unbalanced array"));
    }
    let last = &body[start..];
    if !last.trim().is_empty() {
        parts.push(last);
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_matrix_shape() {
        let doc = r#"
# a sweep
[matrix]
name = "paper"            # trailing comment
mechanisms = ["1Q", "CCFIT"]
seeds = [1, 2, 3]
metrics_bin_ns = 100000.0

[matrix.workload]
senders = 4

[[matrix.config]]
kind = "config1/case1"
scale = 1.0

[[matrix.config]]
kind = "uniform-tree"
ary = 2
levels = 3
load = 0.6
duration_ns = 600000.0
"#;
        let v = parse(doc).unwrap();
        let m = v.get("matrix").unwrap();
        assert_eq!(m.get("name"), Some(&Value::Str("paper".into())));
        assert_eq!(
            m.get("seeds"),
            Some(&Value::Array(vec![
                Value::UInt(1),
                Value::UInt(2),
                Value::UInt(3)
            ]))
        );
        assert_eq!(m.get("metrics_bin_ns"), Some(&Value::Float(100000.0)));
        assert_eq!(
            m.get("workload").and_then(|w| w.get("senders")),
            Some(&Value::UInt(4))
        );
        let Some(Value::Array(configs)) = m.get("config") else {
            panic!("config should be an array of tables");
        };
        assert_eq!(configs.len(), 2);
        assert_eq!(
            configs[0].get("kind"),
            Some(&Value::Str("config1/case1".into()))
        );
        assert_eq!(configs[1].get("ary"), Some(&Value::UInt(2)));
    }

    #[test]
    fn strings_with_tricky_contents() {
        let v =
            parse("[t]\na = \"x # not a comment, [brackets]\"\nb = \"esc \\\" \\n\"\n").unwrap();
        let t = v.get("t").unwrap();
        assert_eq!(
            t.get("a"),
            Some(&Value::Str("x # not a comment, [brackets]".into()))
        );
        assert_eq!(t.get("b"), Some(&Value::Str("esc \" \n".into())));
    }

    #[test]
    fn numbers_and_bools() {
        let v = parse("[t]\na = -5\nb = 2.5e3\nc = true\nd = 1_000\n").unwrap();
        let t = v.get("t").unwrap();
        assert_eq!(t.get("a"), Some(&Value::Int(-5)));
        assert_eq!(t.get("b"), Some(&Value::Float(2500.0)));
        assert_eq!(t.get("c"), Some(&Value::Bool(true)));
        assert_eq!(t.get("d"), Some(&Value::UInt(1000)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (doc, needle) in [
            ("[t]\na = \n", "line 2"),
            ("[t\n", "line 1"),
            ("a.b = 1\n", "unsupported key"),
            ("[t]\na = 1\na = 2\n", "duplicate key"),
            ("[t]\na = [1, \"x\n", "line 2"),
            ("just words\n", "unsupported syntax"),
        ] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains(needle), "{doc:?} -> {err}");
        }
    }
}
