//! `#[derive(Serialize)]` for the vendored serde shim: a small hand-rolled
//! proc-macro (no `syn`/`quote` — the build has no registry access) that
//! handles the shapes this workspace derives on:
//!
//! - structs with named fields → a JSON object in declaration order;
//! - enums whose variants are unit or named-field → a JSON string for unit
//!   variants, or an object with a `"type"` tag for named-field variants.
//!
//! Generics are not supported; derive targets here are plain data records.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` (the shim's `to_value` form).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();

    // Find the `struct` / `enum` keyword, skipping attributes and visibility.
    let mut i = 0;
    let kind = loop {
        match tokens.get(i) {
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => break "struct",
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => break "enum",
            Some(_) => i += 1,
            None => panic!("derive(Serialize): expected a struct or enum"),
        }
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => panic!("derive(Serialize): expected a type name"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("derive(Serialize) shim does not support generic types");
        }
    }
    let body = loop {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.clone(),
            Some(_) => i += 1,
            None => panic!("derive(Serialize): expected a braced body on `{name}`"),
        }
    };

    let code = match kind {
        "struct" => derive_struct(&name, body.stream()),
        _ => derive_enum(&name, body.stream()),
    };
    code.parse()
        .expect("derive(Serialize): generated code failed to parse")
}

/// Names of the named fields in a struct/variant body, in order.
fn field_names(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip attributes (`#[...]`, including doc comments).
        while matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == '#') {
            i += 2; // '#' + bracket group
        }
        // Skip visibility: `pub` optionally followed by `(crate)` etc.
        if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
            i += 1;
            if matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        match &tokens[i] {
            TokenTree::Ident(id) => fields.push(id.to_string()),
            other => panic!("derive(Serialize): expected a field name, found `{other}`"),
        }
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!(
                "derive(Serialize): expected ':', found `{other}` (tuple structs unsupported)"
            ),
        }
        // Skip the type: tokens until a ',' at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

fn derive_struct(name: &str, body: TokenStream) -> String {
    let fields = field_names(body);
    let members: String = fields
        .iter()
        .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})),"))
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n\
         ::serde::Value::Object(vec![{members}])\n\
         }}\n}}"
    )
}

fn derive_enum(name: &str, body: TokenStream) -> String {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut arms = String::new();
    let mut i = 0;
    while i < tokens.len() {
        while matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == '#') {
            i += 2;
        }
        let variant = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("derive(Serialize): expected a variant name, found `{other}`"),
        };
        i += 1;
        match tokens.get(i) {
            // Named-field variant: tag with "type", then the fields.
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = field_names(g.stream());
                let bindings = fields.join(", ");
                let members: String =
                    std::iter::once(format!(
                        "(\"type\".to_string(), ::serde::Value::Str(\"{variant}\".to_string())),"
                    ))
                    .chain(fields.iter().map(|f| {
                        format!("(\"{f}\".to_string(), ::serde::Serialize::to_value({f})),")
                    }))
                    .collect();
                arms.push_str(&format!(
                    "{name}::{variant} {{ {bindings} }} => ::serde::Value::Object(vec![{members}]),\n"
                ));
                i += 1;
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!(
                    "derive(Serialize) shim does not support tuple variants ({name}::{variant})"
                );
            }
            // Unit variant: its name as a string.
            _ => {
                arms.push_str(&format!(
                    "{name}::{variant} => ::serde::Value::Str(\"{variant}\".to_string()),\n"
                ));
            }
        }
        // Skip to the next variant (past the ',', and any discriminant).
        while i < tokens.len() {
            if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n\
         match self {{\n{arms}}}\n\
         }}\n}}"
    )
}
