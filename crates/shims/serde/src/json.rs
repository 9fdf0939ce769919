//! JSON export backend for the event-based data model.
//!
//! Write-only: used to dump traces and metrics for external tooling (e.g.
//! `simnet::Trace::to_json`). Structs become objects, sequences arrays, enum
//! variants externally-tagged objects (`{"Variant":{..}}`, bare `"Variant"`
//! when the variant is a unit), options become the value or `null`, and
//! non-finite floats serialize as `null`.

use crate::ser::{Serialize, Serializer};
use std::convert::Infallible;

#[derive(Clone, Copy, PartialEq)]
enum Ctx {
    Struct { first: bool },
    Seq { first: bool },
    UnitVariant,
    StructVariant { first: bool },
}

/// Streams the event model into a JSON string.
pub struct JsonSerializer {
    out: String,
    stack: Vec<Ctx>,
}

impl JsonSerializer {
    /// An empty serializer.
    pub fn new() -> Self {
        JsonSerializer {
            out: String::new(),
            stack: Vec::new(),
        }
    }

    /// Returns the accumulated JSON.
    pub fn into_string(self) -> String {
        self.out
    }

    fn push_str_escaped(&mut self, v: &str) {
        self.out.push('"');
        for c in v.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

impl Default for JsonSerializer {
    fn default() -> Self {
        Self::new()
    }
}

impl Serializer<'_> for JsonSerializer {
    type Error = Infallible;

    fn ser_bool(&mut self, v: bool) -> Result<(), Infallible> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn ser_u64(&mut self, v: u64) -> Result<(), Infallible> {
        self.out.push_str(&v.to_string());
        Ok(())
    }

    fn ser_i64(&mut self, v: i64) -> Result<(), Infallible> {
        self.out.push_str(&v.to_string());
        Ok(())
    }

    fn ser_f32(&mut self, v: f32) -> Result<(), Infallible> {
        self.ser_f64(v as f64)
    }

    fn ser_f64(&mut self, v: f64) -> Result<(), Infallible> {
        if v.is_finite() {
            self.out.push_str(&format!("{v:?}"));
        } else {
            self.out.push_str("null");
        }
        Ok(())
    }

    fn ser_str(&mut self, v: &str) -> Result<(), Infallible> {
        self.push_str_escaped(v);
        Ok(())
    }

    fn begin_seq(&mut self, _len: usize) -> Result<(), Infallible> {
        self.out.push('[');
        self.stack.push(Ctx::Seq { first: true });
        Ok(())
    }

    fn seq_element(&mut self) -> Result<(), Infallible> {
        if let Some(Ctx::Seq { first }) = self.stack.last_mut() {
            if *first {
                *first = false;
            } else {
                self.out.push(',');
            }
        }
        Ok(())
    }

    fn end_seq(&mut self) -> Result<(), Infallible> {
        self.stack.pop();
        self.out.push(']');
        Ok(())
    }

    fn begin_struct(&mut self, _name: &'static str, _len: usize) -> Result<(), Infallible> {
        self.out.push('{');
        self.stack.push(Ctx::Struct { first: true });
        Ok(())
    }

    fn field(&mut self, name: &'static str) -> Result<(), Infallible> {
        if let Some(Ctx::Struct { first } | Ctx::StructVariant { first }) = self.stack.last_mut() {
            if *first {
                *first = false;
            } else {
                self.out.push(',');
            }
        }
        self.push_str_escaped(name);
        self.out.push(':');
        Ok(())
    }

    fn end_struct(&mut self) -> Result<(), Infallible> {
        self.stack.pop();
        self.out.push('}');
        Ok(())
    }

    fn begin_variant(
        &mut self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<(), Infallible> {
        if len == 0 {
            self.push_str_escaped(variant);
            self.stack.push(Ctx::UnitVariant);
        } else {
            self.out.push('{');
            self.push_str_escaped(variant);
            self.out.push_str(":{");
            self.stack.push(Ctx::StructVariant { first: true });
        }
        Ok(())
    }

    fn end_variant(&mut self) -> Result<(), Infallible> {
        match self.stack.pop() {
            Some(Ctx::StructVariant { .. }) => self.out.push_str("}}"),
            _ => {}
        }
        Ok(())
    }

    fn ser_none(&mut self) -> Result<(), Infallible> {
        self.out.push_str("null");
        Ok(())
    }

    fn begin_some(&mut self) -> Result<(), Infallible> {
        Ok(())
    }
}

/// Serializes `value` to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut s = JsonSerializer::new();
    match value.serialize(&mut s) {
        Ok(()) => {}
    }
    s.into_string()
}
