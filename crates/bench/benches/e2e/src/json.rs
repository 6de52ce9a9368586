//! A minimal JSON object writer (the vendored `serde_json` has no
//! `json!` and the output needs exact control of number formatting).

/// Fields in insertion order, each already rendered.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn raw(mut self, key: &str, rendered: String) -> Obj {
        self.0.push((key.to_string(), rendered));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Obj {
        self.raw(key, quote(value))
    }

    /// A number with every digit Rust's shortest round-trip form has;
    /// non-finite values (which JSON cannot hold) become 0.
    pub fn num(self, key: &str, value: f64) -> Obj {
        let v = if value.is_finite() { value } else { 0.0 };
        self.raw(key, format!("{v}"))
    }

    pub fn bool(self, key: &str, value: bool) -> Obj {
        self.raw(key, value.to_string())
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fields_in_order_with_escapes() {
        let o = Obj::default()
            .str("a", "x\"y\n")
            .num("b", 1.25)
            .num("c", f64::NAN)
            .bool("d", true)
            .raw("e", Obj::default().num("f", 3.0).render());
        assert_eq!(
            o.render(),
            r#"{"a": "x\"y\u000a", "b": 1.25, "c": 0, "d": true, "e": {"f": 3}}"#
        );
    }
}
