//! Deserialization half of the event-based data model.

/// An event-stream deserializer mirroring [`crate::Serializer`]. The caller
/// announces what it expects (field names, variant tables) so self-describing
/// backends can validate while compact binary backends just consume bytes.
pub trait Deserializer {
    /// Backend error type.
    type Error: std::fmt::Debug;

    /// Reads a boolean.
    fn de_bool(&mut self) -> Result<bool, Self::Error>;
    /// Reads an unsigned integer.
    fn de_u64(&mut self) -> Result<u64, Self::Error>;
    /// Reads a `u8`. Provided through [`Deserializer::de_u64`], range
    /// checked; a binary backend overrides it to read one byte.
    fn de_u8(&mut self) -> Result<u8, Self::Error> {
        let raw = self.de_u64()?;
        u8::try_from(raw).map_err(|_| self.invalid("integer out of range"))
    }
    /// Reads a signed integer.
    fn de_i64(&mut self) -> Result<i64, Self::Error>;
    /// Reads an `f32`.
    fn de_f32(&mut self) -> Result<f32, Self::Error>;
    /// Reads an `f64`.
    fn de_f64(&mut self) -> Result<f64, Self::Error>;
    /// Reads a string.
    fn de_string(&mut self) -> Result<String, Self::Error>;

    /// Starts a sequence, returning its length.
    fn begin_seq(&mut self) -> Result<usize, Self::Error>;
    /// Marks the start of the next sequence element.
    fn seq_element(&mut self) -> Result<(), Self::Error>;
    /// Ends the current sequence.
    fn end_seq(&mut self) -> Result<(), Self::Error>;
    /// Reads a whole `f64` sequence. Provided as the element-wise event
    /// stream; a backend whose sequence encoding is a flat run of fixed-
    /// width elements overrides it with one bounds-checked bulk copy.
    fn de_f64_seq(&mut self) -> Result<Vec<f64>, Self::Error> {
        element_wise(self)
    }

    /// Reads a whole `u8` sequence. Provided as the element-wise event
    /// stream; a binary backend overrides it with one copy of the bytes.
    fn de_u8_seq(&mut self) -> Result<Vec<u8>, Self::Error> {
        element_wise(self)
    }

    /// Starts a struct with `len` expected fields.
    fn begin_struct(&mut self, name: &'static str, len: usize) -> Result<(), Self::Error>;
    /// Positions at the named field; its value follows.
    fn field(&mut self, name: &'static str) -> Result<(), Self::Error>;
    /// Ends the current struct.
    fn end_struct(&mut self) -> Result<(), Self::Error>;

    /// Starts an enum value, returning the variant index within `variants`.
    fn begin_variant(
        &mut self,
        name: &'static str,
        variants: &'static [&'static str],
    ) -> Result<u32, Self::Error>;
    /// Ends the current enum variant.
    fn end_variant(&mut self) -> Result<(), Self::Error>;

    /// Reads an `Option` discriminant: `true` means a value follows.
    fn de_option(&mut self) -> Result<bool, Self::Error>;

    /// Builds an error for data that parsed but is semantically invalid.
    fn invalid(&mut self, msg: &'static str) -> Self::Error;
}

/// Types that can be rebuilt from any [`Deserializer`].
pub trait Deserialize: Sized {
    /// Reads one value from `d`.
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error>;

    /// Reads one sequence of `Self` — what `Vec<T>` deserializes through.
    /// Provided element by element; `f64` overrides it to reach
    /// [`Deserializer::de_f64_seq`].
    fn deserialize_vec<D: Deserializer + ?Sized>(d: &mut D) -> Result<Vec<Self>, D::Error> {
        element_wise(d)
    }
}

/// A sequence from its event stream: length, then each element in turn.
/// The up-front capacity is capped so a declared length alone sizes
/// little; the vector grows with the elements that actually decode.
fn element_wise<T: Deserialize, D: Deserializer + ?Sized>(d: &mut D) -> Result<Vec<T>, D::Error> {
    let n = d.begin_seq()?;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        d.seq_element()?;
        out.push(T::deserialize(d)?);
    }
    d.end_seq()?;
    Ok(out)
}

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
                let raw = d.de_u64()?;
                <$t>::try_from(raw).map_err(|_| d.invalid("integer out of range"))
            }
        }
    )*};
}
de_uint!(u16, u32, usize);

impl Deserialize for u8 {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.de_u8()
    }
    fn deserialize_vec<D: Deserializer + ?Sized>(d: &mut D) -> Result<Vec<u8>, D::Error> {
        d.de_u8_seq()
    }
}

impl Deserialize for u64 {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.de_u64()
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
                let raw = d.de_i64()?;
                <$t>::try_from(raw).map_err(|_| d.invalid("integer out of range"))
            }
        }
    )*};
}
de_int!(i8, i16, i32, isize);

impl Deserialize for i64 {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.de_i64()
    }
}

impl Deserialize for bool {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.de_bool()
    }
}

impl Deserialize for f32 {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.de_f32()
    }
}

impl Deserialize for f64 {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.de_f64()
    }
    fn deserialize_vec<D: Deserializer + ?Sized>(d: &mut D) -> Result<Vec<f64>, D::Error> {
        d.de_f64_seq()
    }
}

impl Deserialize for String {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.de_string()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        T::deserialize_vec(d)
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        T::deserialize(d).map(std::sync::Arc::new)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        if d.de_option()? {
            Ok(Some(T::deserialize(d)?))
        } else {
            Ok(None)
        }
    }
}

macro_rules! de_tuple {
    ($(($($n:ident),+; $len:expr))*) => {$(
        impl<$($n: Deserialize),+> Deserialize for ($($n,)+) {
            // `De`, not `D`: the 4-tuple impl uses `D` as an element type.
            fn deserialize<De: Deserializer + ?Sized>(d: &mut De) -> Result<Self, De::Error> {
                let n = d.begin_seq()?;
                if n != $len {
                    return Err(d.invalid("tuple arity mismatch"));
                }
                let out = ($(
                    {
                        d.seq_element()?;
                        <$n as Deserialize>::deserialize(d)?
                    },
                )+);
                d.end_seq()?;
                Ok(out)
            }
        }
    )*};
}
de_tuple! {
    (A, B; 2)
    (A, B, C; 3)
    (A, B, C, D; 4)
}
