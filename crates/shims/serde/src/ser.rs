//! Serialization half of the event-based data model.

/// An event-stream serializer. Backends (binary codec, JSON writer) decide
/// which events carry bytes; e.g. the binary codec ignores struct/field
/// names entirely while JSON ignores variant indices.
///
/// `'v` is the lifetime of the value being serialized: a backend may keep
/// the `f64` runs it is handed ([`Serializer::ser_f64_seq`]) for as long
/// as the value is borrowed, e.g. to write them out without a copy.
pub trait Serializer<'v> {
    /// Backend error type.
    type Error: std::fmt::Debug;

    /// Writes a boolean.
    fn ser_bool(&mut self, v: bool) -> Result<(), Self::Error>;
    /// Writes an unsigned integer (all widths but `u8` funnel through
    /// `u64`).
    fn ser_u64(&mut self, v: u64) -> Result<(), Self::Error>;
    /// Writes a `u8`. Provided through [`Serializer::ser_u64`]; a binary
    /// backend overrides it to write one byte.
    fn ser_u8(&mut self, v: u8) -> Result<(), Self::Error> {
        self.ser_u64(u64::from(v))
    }
    /// Writes a signed integer (all widths funnel through `i64`).
    fn ser_i64(&mut self, v: i64) -> Result<(), Self::Error>;
    /// Writes an `f32`.
    fn ser_f32(&mut self, v: f32) -> Result<(), Self::Error>;
    /// Writes an `f64`.
    fn ser_f64(&mut self, v: f64) -> Result<(), Self::Error>;
    /// Writes a string.
    fn ser_str(&mut self, v: &str) -> Result<(), Self::Error>;

    /// Starts a sequence of `len` elements.
    fn begin_seq(&mut self, len: usize) -> Result<(), Self::Error>;
    /// Marks the start of the next sequence element.
    fn seq_element(&mut self) -> Result<(), Self::Error>;
    /// Ends the current sequence.
    fn end_seq(&mut self) -> Result<(), Self::Error>;
    /// Writes a whole `f64` sequence. Provided as the element-wise event
    /// stream; a backend whose sequence encoding is a flat run of fixed-
    /// width elements overrides it with one bulk copy producing the same
    /// output.
    fn ser_f64_seq(&mut self, v: &'v [f64]) -> Result<(), Self::Error> {
        element_wise(v, self)
    }

    /// Writes a whole `u8` sequence. Provided as the element-wise event
    /// stream; a binary backend overrides it with one copy of the bytes.
    fn ser_u8_seq(&mut self, v: &'v [u8]) -> Result<(), Self::Error> {
        element_wise(v, self)
    }

    /// Starts a struct with `len` fields.
    fn begin_struct(&mut self, name: &'static str, len: usize) -> Result<(), Self::Error>;
    /// Marks the next struct or variant field; its value follows.
    fn field(&mut self, name: &'static str) -> Result<(), Self::Error>;
    /// Ends the current struct.
    fn end_struct(&mut self) -> Result<(), Self::Error>;

    /// Starts enum variant `variant` (number `index`) with `len` fields.
    fn begin_variant(
        &mut self,
        name: &'static str,
        index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<(), Self::Error>;
    /// Ends the current enum variant.
    fn end_variant(&mut self) -> Result<(), Self::Error>;

    /// Writes an absent `Option`.
    fn ser_none(&mut self) -> Result<(), Self::Error>;
    /// Announces a present `Option`; the value follows.
    fn begin_some(&mut self) -> Result<(), Self::Error>;
}

/// Types that can write themselves to any [`Serializer`].
pub trait Serialize {
    /// Streams `self` into `s`.
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error>;

    /// Streams a slice of `Self` as one sequence — what `[T]` and `Vec<T>`
    /// serialize through. Provided element by element; `f64` and `u8`
    /// override it to reach [`Serializer::ser_f64_seq`] and
    /// [`Serializer::ser_u8_seq`].
    fn serialize_slice<'v, S: Serializer<'v> + ?Sized>(
        slice: &'v [Self],
        s: &mut S,
    ) -> Result<(), S::Error>
    where
        Self: Sized,
    {
        element_wise(slice, s)
    }
}

/// A sequence as its event stream: length, then each element in turn.
fn element_wise<'v, T: Serialize, S: Serializer<'v> + ?Sized>(
    slice: &'v [T],
    s: &mut S,
) -> Result<(), S::Error> {
    s.begin_seq(slice.len())?;
    for item in slice {
        s.seq_element()?;
        item.serialize(s)?;
    }
    s.end_seq()
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
                s.ser_u64(*self as u64)
            }
        }
    )*};
}
ser_uint!(u16, u32, u64, usize);

impl Serialize for u8 {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        s.ser_u8(*self)
    }
    fn serialize_slice<'v, S: Serializer<'v> + ?Sized>(
        slice: &'v [u8],
        s: &mut S,
    ) -> Result<(), S::Error> {
        s.ser_u8_seq(slice)
    }
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
                s.ser_i64(*self as i64)
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        s.ser_bool(*self)
    }
}

impl Serialize for f32 {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        s.ser_f32(*self)
    }
}

impl Serialize for f64 {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        s.ser_f64(*self)
    }
    fn serialize_slice<'v, S: Serializer<'v> + ?Sized>(
        slice: &'v [f64],
        s: &mut S,
    ) -> Result<(), S::Error> {
        s.ser_f64_seq(slice)
    }
}

impl Serialize for str {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        s.ser_str(self)
    }
}

impl Serialize for String {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        s.ser_str(self)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        T::serialize_slice(self, s)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
        match self {
            None => s.ser_none(),
            Some(v) => {
                s.begin_some()?;
                v.serialize(s)
            }
        }
    }
}

macro_rules! ser_tuple {
    ($(($($n:ident $idx:tt),+; $len:expr))*) => {$(
        impl<$($n: Serialize),+> Serialize for ($($n,)+) {
            fn serialize<'v, S: Serializer<'v> + ?Sized>(&'v self, s: &mut S) -> Result<(), S::Error> {
                s.begin_seq($len)?;
                $(
                    s.seq_element()?;
                    self.$idx.serialize(s)?;
                )+
                s.end_seq()
            }
        }
    )*};
}
ser_tuple! {
    (A 0, B 1; 2)
    (A 0, B 1, C 2; 3)
    (A 0, B 1, C 2, D 3; 4)
}
