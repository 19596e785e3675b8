//! `kamping-mpi`'s public surface is what its callers name: every `pub`
//! item of `crates/mpi/src` must be named by some `.rs` file outside the
//! library — another crate, a test, a bench, an example, the `kampirun`
//! binary or kbench — or by the signature of another public item (a type
//! such as `Delivered` or `ControlMsg` is public because a public
//! signature has to name it). An item nobody names belongs behind
//! `pub(crate)`, where `dead_code` can see it; inside the library's private
//! modules `#![warn(unreachable_pub)]` says the same.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}

/// The name a `pub fn/struct/enum/trait/type/const/static` line declares.
fn item_name(decl: &str) -> Option<&str> {
    let mut rest = decl.strip_prefix("pub ")?;
    for qualifier in ["const ", "unsafe "] {
        if let Some(after) = rest
            .strip_prefix(qualifier)
            .filter(|r| r.starts_with("fn "))
        {
            rest = after;
        }
    }
    let kinds = [
        "fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ",
    ];
    let rest = kinds.iter().find_map(|kind| rest.strip_prefix(kind))?;
    idents(rest).next()
}

/// The public declarations of one library file, tests cut off: each `pub`
/// item, `pub` field and method of a `pub trait`, as the item's name (if it
/// is an item) and its signature — the text up to the body, the `;` or the
/// end of the field.
fn declarations(source: &str) -> Vec<(Option<String>, String)> {
    let code = source.split("#[cfg(test)]\nmod ").next().unwrap_or("");
    let mut found = Vec::new();
    let mut in_pub_trait = false;
    let mut lines = code.lines();
    while let Some(line) = lines.next() {
        let decl = line.trim_start();
        if line == "}" {
            in_pub_trait = false;
        }
        if !(decl.starts_with("pub ") || in_pub_trait && decl.starts_with("fn ")) {
            continue;
        }
        in_pub_trait |= decl.starts_with("pub trait ");
        let (mut signature, mut depth, mut last) = (String::new(), 0i32, line);
        loop {
            signature.push_str(last);
            signature.push('\n');
            depth += last.matches('(').count() as i32 - last.matches(')').count() as i32;
            let ends = last.contains('{') || last.contains(';') || last.trim_end().ends_with(',');
            if depth <= 0 && ends {
                break;
            }
            let Some(next) = lines.next() else { break };
            last = next;
        }
        found.push((item_name(decl).map(str::to_string), signature));
    }
    found
}

#[test]
fn every_pub_item_of_kamping_mpi_is_named_outside_it() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let library = root.join("crates/mpi/src");
    let (mut inside, mut outside) = (Vec::new(), Vec::new());
    rs_files(&library, &mut inside);
    // `kampirun` is a caller of the library like any other.
    inside.retain(|f| !f.starts_with(library.join("bin")));
    rs_files(&library.join("bin"), &mut outside);
    for dir in ["tests", "examples", "src", "benchmark/src"] {
        rs_files(&root.join(dir), &mut outside);
    }
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let krate = krate.expect("readable directory entry").path();
        for dir in ["src", "tests", "examples", "benches"] {
            if krate.join(dir) != library {
                rs_files(&krate.join(dir), &mut outside);
            }
        }
    }
    let read = |f: &PathBuf| std::fs::read_to_string(f).expect("source file is UTF-8");
    let outside: Vec<String> = outside.iter().map(read).collect();
    let callers: HashSet<&str> = outside.iter().flat_map(|text| idents(text)).collect();

    let declared: Vec<(PathBuf, Option<String>, String)> = (inside.iter())
        .flat_map(|f| {
            let found = declarations(&read(f));
            found.into_iter().map(move |(n, s)| (f.clone(), n, s))
        })
        .collect();
    let items = declared
        .iter()
        .filter(|(_, name, _)| name.is_some())
        .count();
    assert!(items > 100, "the scan found only {items} pub items");
    let unnamed: Vec<String> = (declared.iter().enumerate())
        .filter_map(|(at, (file, name, _))| {
            let name = name.as_deref()?;
            let in_a_signature = || {
                let others = declared.iter().enumerate().filter(|(i, _)| *i != at);
                others
                    .into_iter()
                    .any(|(_, (_, _, sig))| idents(sig).any(|t| t == name))
            };
            let named = callers.contains(name) || in_a_signature();
            let file = file.strip_prefix(root).expect("file is under the root");
            (!named).then(|| format!("{}: {name}", file.display()))
        })
        .collect();
    assert!(
        unnamed.is_empty(),
        "{} of {items} pub items of kamping-mpi are named by nothing outside crates/mpi/src \
         (make them pub(crate), or delete them if rustc then reports them dead):\n  {}",
        unnamed.len(),
        unnamed.join("\n  ")
    );
}
