//! A flat `name -> number` JSON writer, and a reader that flattens any
//! JSON document into `path -> leaf` pairs (nested keys and array
//! indices joined with `/`), which is all `--check`, `--all` and the
//! `BENCHMARK.json` agreement test need.

/// Renders `name -> number` pairs as one JSON object, one pair per line.
/// Non-finite numbers have no JSON spelling and are written as `null`.
pub fn write_flat(pairs: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        if value.is_finite() {
            out.push_str(&format!("  \"{name}\": {value}{comma}\n"));
        } else {
            out.push_str(&format!("  \"{name}\": null{comma}\n"));
        }
    }
    out.push_str("}\n");
    out
}

#[derive(Clone, Debug, PartialEq)]
pub enum Leaf {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Flattens a JSON document into `(path, leaf)` pairs in document order.
pub fn flatten(text: &str) -> Result<Vec<(String, Leaf)>, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        out: Vec::new(),
    };
    p.value(String::new())?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(p.out)
}

/// The numeric leaves of a flat result file.
pub fn read_flat(text: &str) -> Result<Vec<(String, f64)>, String> {
    Ok(flatten(text)?
        .into_iter()
        .filter_map(|(k, v)| match v {
            Leaf::Num(n) => Some((k, n)),
            _ => None,
        })
        .collect())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    out: Vec<(String, Leaf)>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut raw = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(raw).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    raw.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'"' | b'\\' | b'/' => e,
                        _ => return Err(format!("unsupported escape at offset {}", self.pos)),
                    });
                }
                _ => raw.push(b),
            }
        }
    }

    fn join(path: &str, key: &str) -> String {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}/{key}")
        }
    }

    fn value(&mut self, path: String) -> Result<(), String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => {
                self.pos += 1;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    self.value(Self::join(&path, &key))?;
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        return self.expect(b'}');
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                for i in 0.. {
                    self.value(Self::join(&path, &i.to_string()))?;
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(b']')
            }
            b'"' => {
                let s = self.string()?;
                self.out.push((path, Leaf::Str(s)));
                Ok(())
            }
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| !b",]} \t\r\n".contains(b))
                {
                    self.pos += 1;
                }
                let word =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                let leaf = match word {
                    "true" => Leaf::Bool(true),
                    "false" => Leaf::Bool(false),
                    "null" => Leaf::Null,
                    _ => Leaf::Num(
                        word.parse()
                            .map_err(|_| format!("bad literal '{word}' at offset {start}"))?,
                    ),
                };
                self.out.push((path, leaf));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_files_round_trip_exactly() {
        let pairs = vec![
            ("quick".to_string(), 0.0),
            ("sim_fast_read/ops_per_s".to_string(), 143_211.482_771_03),
            ("sim_fast_read/ops_per_s.q1".to_string(), 1.0e-9),
            ("rt2_fast_read/read_mean_ticks".to_string(), 33.25),
            ("seed".to_string(), 18_446_744_073_709_551_615u64 as f64),
        ];
        let text = write_flat(&pairs);
        assert_eq!(read_flat(&text).unwrap(), pairs);
    }

    #[test]
    fn non_finite_numbers_become_null_and_are_skipped() {
        let text = write_flat(&[("a".into(), f64::NAN), ("b".into(), 2.0)]);
        assert!(text.contains("\"a\": null"));
        assert_eq!(read_flat(&text).unwrap(), vec![("b".to_string(), 2.0)]);
    }

    #[test]
    fn nested_documents_flatten_to_paths() {
        let doc = r#"{"correct": true, "metrics": {"x": {"value": 1.5, "unit": "ms"}},
                      "list": [{"name": "a"}, {"name": "b\"c"}], "none": null, "e": {}, "f": []}"#;
        let flat = flatten(doc).unwrap();
        assert_eq!(
            flat,
            vec![
                ("correct".to_string(), Leaf::Bool(true)),
                ("metrics/x/value".to_string(), Leaf::Num(1.5)),
                ("metrics/x/unit".to_string(), Leaf::Str("ms".into())),
                ("list/0/name".to_string(), Leaf::Str("a".into())),
                ("list/1/name".to_string(), Leaf::Str("b\"c".into())),
                ("none".to_string(), Leaf::Null),
            ]
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\": 1} x",
            "[1,",
            "{\"a\": tru}",
            "\"abc",
        ] {
            assert!(flatten(bad).is_err(), "accepted {bad:?}");
        }
    }
}
