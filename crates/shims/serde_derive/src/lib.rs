//! `#[derive(Serialize, Deserialize)]` for the workspace serde shim.
//!
//! Implemented directly on the compiler's `proc_macro` token API (no
//! syn/quote — the container is offline). The parser extracts exactly what
//! code generation needs: the type name, its generic parameters, and field
//! *names* per struct/variant. Field *types* are never parsed: generated
//! deserialization code binds each field through a struct literal, so the
//! compiler infers every `Deserialize` call's target type.
//!
//! Supported shapes: structs (named, tuple, unit) and enums whose variants
//! are unit, named, or tuple; generics with optional bounds. `where` clauses
//! and const generics are not supported — the workspace doesn't use them on
//! serialized types.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Ser)
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::De)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Ser,
    De,
}

impl Mode {
    fn bound(self) -> &'static str {
        match self {
            Mode::Ser => "::serde::Serialize",
            Mode::De => "::serde::Deserialize",
        }
    }
}

/// One generic parameter as written, e.g. `'a`, `C`, or `C: Command`.
struct GenericParam {
    /// Source text of the whole parameter (ident plus any bounds).
    src: String,
    /// Just the parameter name, e.g. `'a` or `C`.
    ident: String,
    /// Whether the parameter already has a `:` bounds list.
    has_bounds: bool,
    /// Whether this is a lifetime parameter.
    is_lifetime: bool,
}

enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Shape {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    generics: Vec<GenericParam>,
    shape: Shape,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let parsed = parse_input(input);
    let code = match mode {
        Mode::Ser => gen_serialize(&parsed),
        Mode::De => gen_deserialize(&parsed),
    };
    code.parse().expect("serde_derive generated invalid Rust")
}

// ---------------------------------------------------------------- parsing

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs_and_vis(&tokens, &mut i);

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, found {other}"),
    };
    i += 1;

    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected type name, found {other}"),
    };
    i += 1;

    let generics = if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        parse_generics(&tokens, &mut i)
    } else {
        Vec::new()
    };

    if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "where") {
        panic!("serde_derive: `where` clauses are not supported");
    }

    let shape = match kind.as_str() {
        "struct" => Shape::Struct(parse_struct_body(&tokens, i)),
        "enum" => Shape::Enum(parse_enum_body(&tokens, i)),
        other => panic!("serde_derive: cannot derive for `{other}`"),
    };

    Input {
        name,
        generics,
        shape,
    }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                *i += 1; // [...]
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => break,
        }
    }
}

/// Parses `<...>` starting at the `<`; leaves `i` past the matching `>`.
fn parse_generics(tokens: &[TokenTree], i: &mut usize) -> Vec<GenericParam> {
    *i += 1; // consume '<'
    let mut depth = 1usize;
    let mut body = Vec::new();
    while depth > 0 {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                depth += 1;
                body.push(tokens[*i].clone());
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                depth -= 1;
                if depth > 0 {
                    body.push(tokens[*i].clone());
                }
            }
            Some(t) => body.push(t.clone()),
            None => panic!("serde_derive: unterminated generic parameter list"),
        }
        *i += 1;
    }

    split_top_level(&body)
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .map(|seg| {
            let is_lifetime = matches!(&seg[0], TokenTree::Punct(p) if p.as_char() == '\'');
            let ident = if is_lifetime {
                format!("'{}", seg[1])
            } else {
                match &seg[0] {
                    TokenTree::Ident(id) if id.to_string() == "const" => {
                        panic!("serde_derive: const generics are not supported")
                    }
                    TokenTree::Ident(id) => id.to_string(),
                    other => panic!("serde_derive: unexpected generic token {other}"),
                }
            };
            let has_bounds = seg
                .iter()
                .any(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ':'));
            GenericParam {
                src: tokens_to_string(&seg),
                ident,
                has_bounds,
                is_lifetime,
            }
        })
        .collect()
}

/// Splits a token slice on commas that are not nested inside `<...>`
/// (group delimiters nest automatically as single tokens).
fn split_top_level(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = vec![Vec::new()];
    let mut angle = 0i32;
    for t in tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle += 1;
                out.last_mut().unwrap().push(t.clone());
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle -= 1;
                out.last_mut().unwrap().push(t.clone());
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(Vec::new());
            }
            _ => out.last_mut().unwrap().push(t.clone()),
        }
    }
    out
}

fn tokens_to_string(tokens: &[TokenTree]) -> String {
    let mut s = String::new();
    for t in tokens {
        s.push_str(&t.to_string());
        s.push(' ');
    }
    s
}

fn parse_struct_body(tokens: &[TokenTree], i: usize) -> Fields {
    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            Fields::Named(parse_named_field_names(&inner))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            Fields::Tuple(count_tuple_fields(&inner))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
        None => Fields::Unit,
        other => panic!("serde_derive: unexpected struct body {other:?}"),
    }
}

/// Extracts field names from `name: Type, ...` (attributes/vis allowed).
fn parse_named_field_names(tokens: &[TokenTree]) -> Vec<String> {
    split_top_level(tokens)
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .map(|seg| {
            let mut j = 0;
            skip_attrs_and_vis(&seg, &mut j);
            match &seg[j] {
                TokenTree::Ident(id) => id.to_string(),
                other => panic!("serde_derive: expected field name, found {other}"),
            }
        })
        .collect()
}

fn count_tuple_fields(tokens: &[TokenTree]) -> usize {
    split_top_level(tokens)
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .count()
}

fn parse_enum_body(tokens: &[TokenTree], i: usize) -> Vec<Variant> {
    let group = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        other => panic!("serde_derive: expected enum body, found {other:?}"),
    };
    let inner: Vec<TokenTree> = group.stream().into_iter().collect();
    split_top_level(&inner)
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .map(|seg| {
            let mut j = 0;
            skip_attrs_and_vis(&seg, &mut j);
            let name = match &seg[j] {
                TokenTree::Ident(id) => id.to_string(),
                other => panic!("serde_derive: expected variant name, found {other}"),
            };
            j += 1;
            let fields = match seg.get(j) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    Fields::Named(parse_named_field_names(&inner))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    Fields::Tuple(count_tuple_fields(&inner))
                }
                None => Fields::Unit,
                other => panic!("serde_derive: unexpected variant body {other:?}"),
            };
            Variant { name, fields }
        })
        .collect()
}

// ----------------------------------------------------------- generation

/// `<C: Command + ::serde::Serialize, 'a>`-style impl generics.
fn impl_generics(input: &Input, mode: Mode) -> String {
    if input.generics.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = input
        .generics
        .iter()
        .map(|g| {
            if g.is_lifetime {
                g.src.clone()
            } else if g.has_bounds {
                format!("{} + {}", g.src, mode.bound())
            } else {
                format!("{}: {}", g.src, mode.bound())
            }
        })
        .collect();
    format!("<{}>", parts.join(", "))
}

/// `<C, 'a>`-style type generics.
fn type_generics(input: &Input) -> String {
    if input.generics.is_empty() {
        return String::new();
    }
    let idents: Vec<&str> = input.generics.iter().map(|g| g.ident.as_str()).collect();
    format!("<{}>", idents.join(", "))
}

fn field_count(f: &Fields) -> usize {
    match f {
        Fields::Unit => 0,
        Fields::Named(names) => names.len(),
        Fields::Tuple(n) => *n,
    }
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let ig = impl_generics(input, Mode::Ser);
    let tg = type_generics(input);
    let body = match &input.shape {
        Shape::Struct(fields) => {
            let mut b = format!(
                "::serde::Serializer::begin_struct(__s, \"{name}\", {})?;\n",
                field_count(fields)
            );
            match fields {
                Fields::Unit => {}
                Fields::Named(names) => {
                    for f in names {
                        b.push_str(&format!(
                            "::serde::Serializer::field(__s, \"{f}\")?;\n\
                             ::serde::Serialize::serialize(&self.{f}, __s)?;\n"
                        ));
                    }
                }
                Fields::Tuple(n) => {
                    for idx in 0..*n {
                        b.push_str(&format!(
                            "::serde::Serializer::field(__s, \"{idx}\")?;\n\
                             ::serde::Serialize::serialize(&self.{idx}, __s)?;\n"
                        ));
                    }
                }
            }
            b.push_str("::serde::Serializer::end_struct(__s)\n");
            b
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (vi, v) in variants.iter().enumerate() {
                let vname = &v.name;
                let n = field_count(&v.fields);
                match &v.fields {
                    Fields::Unit => {
                        arms.push_str(&format!(
                            "{name}::{vname} => {{\n\
                             ::serde::Serializer::begin_variant(__s, \"{name}\", {vi}u32, \"{vname}\", 0)?;\n\
                             ::serde::Serializer::end_variant(__s)\n}}\n"
                        ));
                    }
                    Fields::Named(names) => {
                        let pat = names.join(", ");
                        let mut inner = format!(
                            "::serde::Serializer::begin_variant(__s, \"{name}\", {vi}u32, \"{vname}\", {n})?;\n"
                        );
                        for f in names {
                            inner.push_str(&format!(
                                "::serde::Serializer::field(__s, \"{f}\")?;\n\
                                 ::serde::Serialize::serialize({f}, __s)?;\n"
                            ));
                        }
                        inner.push_str("::serde::Serializer::end_variant(__s)\n");
                        arms.push_str(&format!("{name}::{vname} {{ {pat} }} => {{\n{inner}}}\n"));
                    }
                    Fields::Tuple(count) => {
                        let binds: Vec<String> = (0..*count).map(|k| format!("__t{k}")).collect();
                        let pat = binds.join(", ");
                        let mut inner = format!(
                            "::serde::Serializer::begin_variant(__s, \"{name}\", {vi}u32, \"{vname}\", {n})?;\n"
                        );
                        for (k, bname) in binds.iter().enumerate() {
                            inner.push_str(&format!(
                                "::serde::Serializer::field(__s, \"{k}\")?;\n\
                                 ::serde::Serialize::serialize({bname}, __s)?;\n"
                            ));
                        }
                        inner.push_str("::serde::Serializer::end_variant(__s)\n");
                        arms.push_str(&format!("{name}::{vname}({pat}) => {{\n{inner}}}\n"));
                    }
                }
            }
            format!("match self {{\n{arms}}}\n")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl {ig} ::serde::Serialize for {name}{tg} {{\n\
         fn serialize<'__v, __S: ::serde::Serializer<'__v> + ?Sized>(&'__v self, __s: &mut __S)\n\
         -> ::core::result::Result<(), __S::Error> {{\n{body}}}\n}}\n"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let ig = impl_generics(input, Mode::De);
    let tg = type_generics(input);
    let body = match &input.shape {
        Shape::Struct(fields) => {
            let mut b = format!(
                "::serde::Deserializer::begin_struct(__d, \"{name}\", {})?;\n",
                field_count(fields)
            );
            let ctor = match fields {
                Fields::Unit => name.to_string(),
                Fields::Named(names) => {
                    let mut init = Vec::new();
                    for f in names {
                        b.push_str(&format!(
                            "::serde::Deserializer::field(__d, \"{f}\")?;\n\
                             let __f_{f} = ::serde::Deserialize::deserialize(__d)?;\n"
                        ));
                        init.push(format!("{f}: __f_{f}"));
                    }
                    format!("{name} {{ {} }}", init.join(", "))
                }
                Fields::Tuple(n) => {
                    let mut init = Vec::new();
                    for idx in 0..*n {
                        b.push_str(&format!(
                            "::serde::Deserializer::field(__d, \"{idx}\")?;\n\
                             let __f_{idx} = ::serde::Deserialize::deserialize(__d)?;\n"
                        ));
                        init.push(format!("__f_{idx}"));
                    }
                    format!("{name}({})", init.join(", "))
                }
            };
            b.push_str("::serde::Deserializer::end_struct(__d)?;\n");
            b.push_str(&format!("::core::result::Result::Ok({ctor})\n"));
            b
        }
        Shape::Enum(variants) => {
            let table: Vec<String> = variants.iter().map(|v| format!("\"{}\"", v.name)).collect();
            let mut arms = String::new();
            for (vi, v) in variants.iter().enumerate() {
                let vname = &v.name;
                let expr = match &v.fields {
                    Fields::Unit => format!("{name}::{vname}"),
                    Fields::Named(names) => {
                        let mut inner = String::new();
                        let mut init = Vec::new();
                        for f in names {
                            inner.push_str(&format!(
                                "::serde::Deserializer::field(__d, \"{f}\")?;\n\
                                 let __f_{f} = ::serde::Deserialize::deserialize(__d)?;\n"
                            ));
                            init.push(format!("{f}: __f_{f}"));
                        }
                        format!("{{\n{inner}{name}::{vname} {{ {} }}\n}}", init.join(", "))
                    }
                    Fields::Tuple(count) => {
                        let mut inner = String::new();
                        let mut init = Vec::new();
                        for k in 0..*count {
                            inner.push_str(&format!(
                                "::serde::Deserializer::field(__d, \"{k}\")?;\n\
                                 let __f_{k} = ::serde::Deserialize::deserialize(__d)?;\n"
                            ));
                            init.push(format!("__f_{k}"));
                        }
                        format!("{{\n{inner}{name}::{vname}({})\n}}", init.join(", "))
                    }
                };
                arms.push_str(&format!("{vi}u32 => {expr},\n"));
            }
            format!(
                "let __idx = ::serde::Deserializer::begin_variant(__d, \"{name}\", &[{}])?;\n\
                 let __value = match __idx {{\n{arms}\
                 _ => return ::core::result::Result::Err(\
                 ::serde::Deserializer::invalid(__d, \"variant index out of range\")),\n}};\n\
                 ::serde::Deserializer::end_variant(__d)?;\n\
                 ::core::result::Result::Ok(__value)\n",
                table.join(", ")
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl {ig} ::serde::Deserialize for {name}{tg} {{\n\
         fn deserialize<__D: ::serde::Deserializer + ?Sized>(__d: &mut __D)\n\
         -> ::core::result::Result<Self, __D::Error> {{\n{body}}}\n}}\n"
    )
}
