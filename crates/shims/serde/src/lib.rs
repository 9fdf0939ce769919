//! Offline stand-in for the `serde` crate.
//!
//! The build container has no crates.io access, so the workspace carries its
//! own small serialization framework under the `serde` name. The data model
//! is deliberately simpler than real serde's: a [`Serializer`] /
//! [`Deserializer`] pair of *event stream* traits (primitives, sequences,
//! structs, enum variants, options) that both the binary wire codec in
//! `p2pfl-net` and the JSON writer in [`json`] implement.
//!
//! `#[derive(serde::Serialize, serde::Deserialize)]` works via the companion
//! `serde_derive` proc-macro crate, re-exported here.

// The derives name `::serde::...`; this lets the shim's own tests use them.
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

mod de;
pub mod json;
mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

#[cfg(test)]
mod tests {
    use super::json;

    #[derive(crate::Serialize, crate::Deserialize, Debug, PartialEq, Clone)]
    struct Plain {
        id: u32,
        weight: f64,
        name: String,
        flags: Vec<bool>,
        note: Option<i64>,
    }

    #[derive(crate::Serialize, crate::Deserialize, Debug, PartialEq, Clone)]
    struct Pair(u64, f32);

    #[derive(crate::Serialize, crate::Deserialize, Debug, PartialEq, Clone)]
    enum Shape<T> {
        Empty,
        Dot { x: T, y: T },
        Path(Vec<T>, bool),
    }

    #[test]
    fn json_export_shapes() {
        let p = Plain {
            id: 7,
            weight: 2.5,
            name: "a\"b".into(),
            flags: vec![true, false],
            note: None,
        };
        let s = json::to_string(&p);
        assert_eq!(
            s,
            r#"{"id":7,"weight":2.5,"name":"a\"b","flags":[true,false],"note":null}"#
        );

        assert_eq!(json::to_string(&Shape::<u8>::Empty), r#""Empty""#);
        assert_eq!(
            json::to_string(&Shape::Dot { x: 1u8, y: 2 }),
            r#"{"Dot":{"x":1,"y":2}}"#
        );
        assert_eq!(
            json::to_string(&Shape::Path(vec![3u8], true)),
            r#"{"Path":{"0":[3],"1":true}}"#
        );
        assert_eq!(json::to_string(&Pair(1, 0.5)), r#"{"0":1,"1":0.5}"#);
        assert_eq!(json::to_string(&Some(4u8)), "4");
        assert_eq!(json::to_string(&(1u8, -2i64)), "[1,-2]");
        // `Vec<f64>` goes through the provided `f64` slice hook, which a
        // backend that does not override it sees as the same events.
        assert_eq!(json::to_string(&vec![1.5f64, -0.25]), "[1.5,-0.25]");
        assert_eq!(json::to_string(&Vec::<f64>::new()), "[]");
        // A shared value serializes as the value itself.
        let shared = std::sync::Arc::new(Pair(1, 0.5));
        assert_eq!(json::to_string(&shared), json::to_string(&Pair(1, 0.5)));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json::to_string(&f64::NAN), "null");
        assert_eq!(json::to_string(&f64::INFINITY), "null");
    }
}
