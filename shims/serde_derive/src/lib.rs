//! Minimal `serde_derive` shim.
//!
//! Expands `#[derive(Serialize)]` into impls of the shim serde's
//! `Serialize { to_value }` trait, following serde_json's data
//! conventions:
//!
//! * named struct        → object
//! * newtype struct      → the inner value
//! * tuple struct        → array
//! * unit struct         → null
//! * unit enum variant   → `"Variant"`
//! * newtype variant     → `{"Variant": value}`
//! * tuple variant       → `{"Variant": [..]}`
//! * struct variant      → `{"Variant": {..}}`
//!
//! The parser is hand-rolled over `proc_macro::TokenStream` (no
//! syn/quote available offline). It handles the shapes the workspace
//! actually uses; generic types and `#[serde(...)]` attributes are
//! rejected with a clear panic rather than silently miscompiled.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: bad codegen")
}

// ---------------------------------------------------------------------------
// Parsed shape of the item.
// ---------------------------------------------------------------------------

enum Fields {
    Unit,
    /// Tuple fields; we only need how many there are.
    Tuple(usize),
    /// Named field identifiers, in declaration order.
    Named(Vec<String>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Shape {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    shape: Shape,
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&toks, 0);

    let kw = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected struct/enum, got {other:?}"),
    };
    i += 1;

    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected type name, got {other:?}"),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic type `{name}` is not supported");
        }
    }

    match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item {
                name,
                shape: Shape::Struct(Fields::Named(parse_named_fields(g.stream()))),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Item {
                name,
                shape: Shape::Struct(Fields::Tuple(count_tuple_fields(g.stream()))),
            },
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item {
                name,
                shape: Shape::Struct(Fields::Unit),
            },
            other => panic!("serde_derive: unexpected struct body: {other:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item {
                name,
                shape: Shape::Enum(parse_variants(g.stream())),
            },
            other => panic!("serde_derive: unexpected enum body: {other:?}"),
        },
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    }
}

/// Skip any `#[...]` attributes and a `pub` / `pub(...)` visibility.
fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> usize {
    loop {
        match (toks.get(i), toks.get(i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                if g.to_string().starts_with("[serde") {
                    panic!("serde_derive shim: #[serde(...)] attributes are not supported");
                }
                i += 2;
            }
            (Some(TokenTree::Ident(id)), next) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = next {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Parse `name: Type, ...` field lists, tracking angle-bracket depth so
/// commas inside `BTreeMap<String, u64>` don't split fields.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        let Some(TokenTree::Ident(id)) = toks.get(i) else {
            break;
        };
        fields.push(id.to_string());
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected `:` after field, got {other:?}"),
        }
        // Skip the type: everything until a comma at angle depth 0.
        let mut depth = 0i32;
        while let Some(tok) = toks.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    fields
}

/// Count top-level comma-separated entries in a tuple-struct body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut depth = 0i32;
    let mut trailing_comma = false;
    for tok in &toks {
        trailing_comma = false;
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    count += 1;
                    trailing_comma = true;
                }
                _ => {}
            }
        }
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        let Some(TokenTree::Ident(id)) = toks.get(i) else {
            break;
        };
        let name = id.to_string();
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= discriminant` and the separating comma.
        let mut depth = 0i32;
        while let Some(tok) = toks.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

// ---------------------------------------------------------------------------
// Codegen: Serialize.
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Fields::Unit) => "::serde::Value::Null".to_string(),
        Shape::Struct(Fields::Tuple(1)) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Struct(Fields::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Shape::Struct(Fields::Named(fields)) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))"))
                .collect();
            format!("::serde::Value::Object(vec![{}])", pairs.join(", "))
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants.iter().map(|v| ser_variant_arm(name, v)).collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn ser_variant_arm(enum_name: &str, v: &Variant) -> String {
    let vname = &v.name;
    match &v.fields {
        Fields::Unit => {
            format!("{enum_name}::{vname} => ::serde::Value::Str(\"{vname}\".to_string()),")
        }
        Fields::Tuple(1) => format!(
            "{enum_name}::{vname}(x0) => ::serde::Value::Object(vec![\
             (\"{vname}\".to_string(), ::serde::Serialize::to_value(x0))]),"
        ),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(x{i})"))
                .collect();
            format!(
                "{enum_name}::{vname}({}) => ::serde::Value::Object(vec![\
                 (\"{vname}\".to_string(), ::serde::Value::Array(vec![{}]))]),",
                binds.join(", "),
                items.join(", ")
            )
        }
        Fields::Named(fields) => {
            let binds = fields.join(", ");
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"))
                .collect();
            format!(
                "{enum_name}::{vname} {{ {binds} }} => ::serde::Value::Object(vec![\
                 (\"{vname}\".to_string(), ::serde::Value::Object(vec![{}]))]),",
                pairs.join(", ")
            )
        }
    }
}
