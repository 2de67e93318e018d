//! The one JSON writer behind every machine-readable report: the campaign
//! `--json` files, the analyzer's reports and the replay report.
//!
//! A report is a tree of [`Value`]s (booleans, unsigned integers,
//! strings, lists and [`Object`]s) plus [`Fixed`], the one number form,
//! for rates and ratios. An object writes its fields in call order.
//!
//! ```
//! use pmo_trace::json::Object;
//!
//! let mut out = String::new();
//! Object::new(&mut out).field("name", "a\"b").field("hits", [3u64].as_slice()).end();
//! assert_eq!(out, r#"{"name":"a\"b","hits":[3]}"#);
//! ```

use std::fmt::Write as _;

/// Something a report holds, written as JSON.
pub trait Value {
    /// Appends this value's JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// `value` as a JSON document.
#[must_use]
pub fn to_string<T: Value + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// An object being written into a string: `{`, each [`Object::field`] in
/// call order, and `}` at [`Object::end`].
#[must_use = "an object is closed by `end`"]
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Object<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Object { out, empty: true }
    }

    /// Writes the field `key` with `value`.
    pub fn field(mut self, key: &str, value: impl Value) -> Self {
        if !self.empty {
            self.out.push(',');
        }
        key.write_json(self.out);
        self.out.push(':');
        value.write_json(self.out);
        self.empty = false;
        self
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// A number written with a fixed count of decimals: `Fixed(value,
/// decimals)` prints as `format!("{value:.decimals$}")` does.
#[derive(Clone, Copy, Debug)]
pub struct Fixed(pub f64, pub usize);

/// `count` per second of `nanos` host wall time, to one decimal; 0.0
/// while the wall time is unstamped (`nanos == 0`).
#[must_use]
pub fn per_sec(count: u64, nanos: u64) -> Fixed {
    Fixed(if nanos == 0 { 0.0 } else { count as f64 * 1e9 / nanos as f64 }, 1)
}

impl Value for Fixed {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

impl Value for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! unsigned {
    ($($int:ty),*) => {$(
        impl Value for $int {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, u128, usize);

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Value for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Value> Value for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Value> Value for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair(u64, Vec<Pair>);

    impl Value for Pair {
        fn write_json(&self, out: &mut String) {
            Object::new(out).field("n", self.0).field("kids", &self.1).end();
        }
    }

    #[test]
    fn objects_nest_in_lists_and_keep_field_order() {
        let tree = Pair(1, vec![Pair(2, Vec::new()), Pair(3, vec![Pair(4, Vec::new())])]);
        assert_eq!(
            to_string(&tree),
            r#"{"n":1,"kids":[{"n":2,"kids":[]},{"n":3,"kids":[{"n":4,"kids":[]}]}]}"#
        );
        let mut out = String::new();
        Object::new(&mut out).field("z", true).field("a", false).end();
        assert_eq!(out, r#"{"z":true,"a":false}"#);
    }

    #[test]
    fn empty_lists_and_objects() {
        assert_eq!(to_string(&Vec::<u64>::new()), "[]");
        assert_eq!(to_string(&Vec::<Vec<u8>>::from([vec![], vec![]])), "[[],[]]");
        let mut out = String::new();
        Object::new(&mut out).end();
        assert_eq!(out, "{}");
    }

    #[test]
    fn integers_up_to_u128() {
        let big = u128::from(u64::MAX) + 1;
        assert_eq!(to_string(&big), "18446744073709551616");
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(to_string(&[0u8, 7][..]), "[0,7]");
    }

    #[test]
    fn fixed_decimals() {
        assert_eq!(to_string(&Fixed(0.333_333, 4)), "0.3333");
        assert_eq!(to_string(&Fixed(2.0, 4)), "2.0000");
        assert_eq!(to_string(&Fixed(1.04, 1)), "1.0");
        assert_eq!(to_string(&per_sec(3, 2_000_000_000)), "1.5");
        assert_eq!(to_string(&per_sec(500, 250_000_000)), "2000.0");
        assert_eq!(to_string(&per_sec(7, 0)), "0.0", "an unstamped wall time is no rate");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(to_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(to_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(to_string("\r\t\u{1f}é"), "\"\\r\\t\\u001fé\"");
    }
}
