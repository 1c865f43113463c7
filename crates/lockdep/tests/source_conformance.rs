//! Static source conformance: every lock in `crates/` and `src/` must
//! route through the instrumented `third_party/parking_lot` stub, or the
//! dynamic verifier has a blind spot. This test walks the tree and fails
//! on any raw standard-library `Mutex`/`RwLock`/`Condvar` use outside the
//! explicit allowlist below (each entry carries its justification).
//!
//! The same walk measures the code's size against the committed
//! `SIZE.json`, so a change that grows or shrinks the product shows it as
//! a diff, the way the benches show time.
//!
//! A `RefCell` is not a blind spot. `lrc_sim::AnyEngine` keeps its engine
//! in one, and this scan does not look for them: a `RefCell` is `!Sync`,
//! so the compiler proves that no other thread can contend for it, and a
//! re-entry that would deadlock a mutex panics on the borrow flag instead
//! of hanging. The threaded runtime shares its `AnyEngine` behind one
//! tracked mutex (`dsm.engine`), which this scan does cover.
//!
//! Comments in this file spell the forbidden module path with a space
//! (`std:: sync`) so the scanner does not flag its own source.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Files allowed to keep raw `std::sync` locks, and why. Paths are
/// relative to the repo root with `/` separators.
const ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/lockdep/src/lib.rs",
        "the verifier's own registry cannot route through the stub it \
         instruments without recursing into itself",
    ),
    (
        "crates/lockdep/tests/violations.rs",
        "the test-serialization gate must stay invisible to the verifier \
         under test, or it would appear in every report's held chain",
    ),
];

/// The forbidden idents, assembled at runtime so this file's own source
/// does not trip the scanner.
fn forbidden_names() -> Vec<String> {
    ["Mutex", "RwLock", "Condvar"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn repo_root() -> PathBuf {
    // crates/lockdep -> crates -> root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the repo root")
        .to_path_buf()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // `target/` never appears under crates/ or src/, but be safe.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True if `name` occurs in `list` (the inside of a `use std::sync::{...}`
/// brace list) as a whole path segment, including one level of nesting
/// (`atomic::{AtomicBool, Ordering}` does not hide `Mutex`).
fn brace_list_contains(list: &str, name: &str) -> bool {
    let mut rest = list;
    while let Some(pos) = rest.find(name) {
        let before_ok = pos == 0
            || !is_ident_char(rest[..pos].chars().next_back().unwrap_or(' '))
            || rest[..pos].ends_with("::");
        let after = &rest[pos + name.len()..];
        let after_ok = after.chars().next().is_none_or(|c| !is_ident_char(c));
        // `MutexGuard` must not match `Mutex`; `sync::Mutex as M` must.
        if before_ok && after_ok && !rest[..pos].ends_with("::") {
            return true;
        }
        rest = &rest[pos + name.len()..];
    }
    false
}

/// Scans one file's source for forbidden lock tokens; returns the
/// 1-based line numbers of hits.
fn scan(source: &str, names: &[String]) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    // The prefix is assembled at runtime so it cannot match this file.
    let prefix = format!("std::sync{}", "::");
    // Direct qualified uses: std:: sync::Mutex / RwLock / Condvar.
    for (i, line) in source.lines().enumerate() {
        if let Some(pos) = line.find(&prefix) {
            let tail = &line[pos + prefix.len()..];
            for name in names {
                if tail.starts_with(name.as_str())
                    && tail[name.len()..]
                        .chars()
                        .next()
                        .is_none_or(|c| !is_ident_char(c))
                {
                    hits.push((i + 1, format!("{prefix}{name}")));
                }
            }
        }
    }
    // Brace-list imports: `use std:: sync::{Arc, Mutex}` (possibly
    // spanning lines). Walk each occurrence and match the braces.
    let use_prefix = format!("{prefix}{{");
    let mut search = source;
    let mut offset = 0usize;
    while let Some(pos) = search.find(&use_prefix) {
        let body_start = pos + use_prefix.len();
        let mut depth = 1usize;
        let mut end = body_start;
        for (j, c) in search[body_start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = body_start + j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let list = &search[body_start..end];
        let line = source[..offset + pos].matches('\n').count() + 1;
        for name in names {
            if brace_list_contains(list, name) {
                hits.push((line, format!("use {prefix}{{.. {name} ..}}")));
            }
        }
        offset += end;
        search = &search[end..];
    }
    hits.sort();
    hits.dedup();
    hits
}

#[test]
fn no_raw_std_sync_locks_outside_the_stub() {
    let root = repo_root();
    let names = forbidden_names();
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    assert!(
        files.len() > 20,
        "scanner found only {} files — wrong root?",
        files.len()
    );

    let allow: BTreeSet<&str> = ALLOWLIST.iter().map(|(p, _)| *p).collect();
    let mut offenders = Vec::new();
    let mut used_allowlist: BTreeSet<&str> = BTreeSet::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .expect("scanned files live under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path).expect("readable source");
        let hits = scan(&source, &names);
        if hits.is_empty() {
            continue;
        }
        if let Some(entry) = allow.get(rel.as_str()) {
            used_allowlist.insert(*entry);
            continue;
        }
        for (line, what) in hits {
            offenders.push(format!("  {rel}:{line}: {what}"));
        }
    }
    assert!(
        offenders.is_empty(),
        "raw std::sync locks bypass the lockdep-instrumented parking_lot \
         stub — migrate them (Mutex::new / new_in) or add a justified \
         allowlist entry:\n{}",
        offenders.join("\n")
    );
    // Stale allowlist entries hide future regressions: prune them.
    for (path, _) in ALLOWLIST {
        assert!(
            used_allowlist.contains(path),
            "allowlist entry `{path}` no longer matches any hit — remove it"
        );
    }
}

#[test]
fn scanner_catches_the_patterns_it_claims_to() {
    let names = forbidden_names();
    let qualified = format!("let m = std::sync{}Mutex::new(0);", "::");
    assert_eq!(scan(&qualified, &names).len(), 1);

    let braced = format!("use std::sync{}{{Arc, Mutex}};", "::");
    assert_eq!(scan(&braced, &names).len(), 1);

    let multiline = format!("use std::sync{}{{\n    Arc,\n    RwLock,\n}};", "::");
    assert_eq!(scan(&multiline, &names).len(), 1);

    let nested = format!(
        "use std::sync{}{{atomic::{{AtomicBool, Ordering}}, Condvar}};",
        "::"
    );
    assert_eq!(scan(&nested, &names).len(), 1);

    let clean = format!(
        "use std::sync{}{{mpsc, Arc}};\nlet g: std::sync{}MutexGuard<u32>;",
        "::", "::"
    );
    assert!(scan(&clean, &names).is_empty(), "no false positives");
}

// ---- the README's class table ----

/// The `(name, level)` of every `pub const NAME: Class = Class::new("name",
/// level);` in `classes.rs`.
fn declared_classes(source: &str) -> BTreeSet<(String, u32)> {
    let marker = "Class::new(\"";
    source
        .lines()
        .map(str::trim)
        .filter(|line| line.starts_with("pub const "))
        .filter_map(|line| line.split_once(marker).map(|(_, rest)| rest))
        .map(|rest| {
            let (name, rest) = rest.split_once('"').expect("a class name is a literal");
            let level = rest
                .trim_start_matches([',', ' '])
                .split(')')
                .next()
                .and_then(|level| level.trim().parse().ok())
                .unwrap_or_else(|| panic!("class `{name}` has a literal level"));
            (name.to_string(), level)
        })
        .collect()
}

/// The `(name, level)` of every row of the README's lockdep class table:
/// the rows after the `| class | level | guards |` header, up to the
/// first line that is not a row.
fn documented_classes(readme: &str) -> BTreeSet<(String, u32)> {
    readme
        .lines()
        .skip_while(|line| !line.starts_with("| class | level |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let name = cells[1].trim_matches('`');
            let level = cells[2]
                .parse()
                .unwrap_or_else(|_| panic!("README row `{row}` has a numeric level"));
            (name.to_string(), level)
        })
        .collect()
}

/// The README's lockdep class table and `classes.rs` list the same
/// classes at the same levels, in both directions: a class added,
/// removed or re-leveled in the code fails here until the table says so.
#[test]
fn readme_class_table_matches_classes_rs() {
    let root = repo_root();
    let read = |path: &str| std::fs::read_to_string(root.join(path)).expect("readable");
    let declared = declared_classes(&read("crates/lockdep/src/classes.rs"));
    let documented = documented_classes(&read("README.md"));
    assert!(!declared.is_empty(), "no class found in classes.rs");
    let undocumented: Vec<_> = declared.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&declared).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README's lockdep class table disagrees with crates/lockdep/src/classes.rs:\n  \
         only in classes.rs: {undocumented:?}\n  only in README: {stale:?}"
    );
}

#[test]
fn class_table_parsers_read_names_and_levels() {
    let source = "/// Doc naming Class::new(\"doc.only\", 1).\n\
                  pub const A: Class = Class::new(\"dsm.a\", 18);\n\
                  pub const B: Class = Class::new(\"net.b\", 85);\n";
    let readme = "intro\n| class | level | guards |\n|---|---|---|\n\
                  | `dsm.a` | 18 | a | b |\n| `net.b` | 86 | c |\n\nAfter the table.\n| x | 1 |\n";
    let pair = |name: &str, level| (name.to_string(), level);
    let declared = declared_classes(source);
    assert_eq!(
        declared,
        BTreeSet::from([pair("dsm.a", 18), pair("net.b", 85)])
    );
    let documented = documented_classes(readme);
    assert_eq!(
        documented,
        BTreeSet::from([pair("dsm.a", 18), pair("net.b", 86)])
    );
}

// ---- size ----

/// The item kinds a `pub` line declares that count as public surface.
const PUB_ITEM_KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

/// Splits one source file into its product code — the trimmed
/// non-blank, non-comment lines before its inline `#[cfg(test)]` module,
/// which by the tree's convention closes the file — and the names of the
/// test-only module files it declares (`#[cfg(test)] mod name;`).
fn product_lines(source: &str) -> (Vec<&str>, Vec<&str>) {
    let mut code = Vec::new();
    let mut test_files = Vec::new();
    let mut lines = source.lines().map(str::trim).peekable();
    while let Some(line) = lines.next() {
        if line == "#[cfg(test)]" {
            let next = lines.peek().copied().unwrap_or("");
            if next.starts_with("mod ") && next.ends_with('{') {
                break;
            }
            if let Some(name) = next.strip_prefix("mod ").and_then(|n| n.strip_suffix(';')) {
                test_files.push(name);
                lines.next();
                continue;
            }
        }
        if !line.is_empty() && !line.starts_with("//") {
            code.push(line);
        }
    }
    (code, test_files)
}

/// The product code of every file under `src`, keyed by path relative to
/// `root`; test-only module files are left out.
fn product_code(root: &Path, src: &Path) -> BTreeMap<String, Vec<String>> {
    let mut files = Vec::new();
    rust_files(src, &mut files);
    let mut code = BTreeMap::new();
    let mut test_only = BTreeSet::new();
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable source");
        let (lines, test_files) = product_lines(&source);
        for name in test_files {
            test_only.insert(path.with_file_name(format!("{name}.rs")));
        }
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        code.insert(rel, lines.into_iter().map(str::to_string).collect());
    }
    for path in test_only {
        let rel = path.strip_prefix(root).expect("under the root");
        code.remove(&rel.to_string_lossy().replace('\\', "/"));
    }
    code
}

fn is_pub_item(line: &str) -> bool {
    line.strip_prefix("pub ")
        .and_then(|rest| rest.split_whitespace().next())
        .is_some_and(|kind| PUB_ITEM_KINDS.contains(&kind))
}

/// The name a `pub` item line declares (`pub const fn f()` names `f`), or
/// `None` for a `pub use` re-export, which declares no item of its own.
fn pub_item_name(line: &str) -> Option<&str> {
    if !is_pub_item(line) || line.starts_with("pub use ") {
        return None;
    }
    let word = line
        .split_whitespace()
        .skip(1)
        .find(|w| !PUB_ITEM_KINDS.contains(w) && !["unsafe", "mut"].contains(w))?;
    let end = word.find(|c| !is_ident_char(c)).unwrap_or(word.len());
    Some(&word[..end]).filter(|name| !name.is_empty())
}

/// The names of the `pub` items in `code` that no file of `outside` names
/// as a word: public in syntax, but used only by their own crate.
fn crate_local_pub<'a>(code: &[&'a str], outside: &[&str]) -> Vec<&'a str> {
    code.iter()
        .filter_map(|line| pub_item_name(line))
        .filter(|name| outside.iter().all(|text| count_word(text, name) == 0))
        .collect()
}

/// Occurrences of `word` in `line` not run into a longer identifier.
fn count_word(line: &str, word: &str) -> usize {
    line.match_indices(word)
        .filter(|&(at, _)| {
            let before = line[..at].chars().next_back();
            let after = line[at + word.len()..].chars().next();
            before.is_none_or(|c| !is_ident_char(c)) && after.is_none_or(|c| !is_ident_char(c))
        })
        .count()
}

/// Threads a line starts: every `.spawn(` — a `thread::Builder`'s, a
/// scope's — and every `thread::spawn`.
fn spawn_sites(line: &str) -> usize {
    line.matches(".spawn(").count() + count_word(line, "thread::spawn")
}

fn package_name(dir: &Path) -> String {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("package manifest");
    manifest
        .lines()
        .find_map(|line| line.trim().strip_prefix("name = "))
        .map(|name| name.trim_matches('"').to_string())
        .expect("the manifest names its package")
}

/// Every `.rs` file a caller of a crate under `crates/` (or of the
/// facade) can live in, keyed by path: the `src/`, `tests/` and
/// `benches/` of every measured package and of the `third_party/` stubs
/// (the `parking_lot` stub calls `lrc-lockdep`), the examples and the
/// benchmark's sources.
fn caller_sources(root: &Path, packages: &[PathBuf]) -> BTreeMap<PathBuf, String> {
    let stubs = std::fs::read_dir(root.join("third_party")).expect("third_party/ is listable");
    let stubs: Vec<PathBuf> = stubs.flatten().map(|entry| entry.path()).collect();
    let mut files = Vec::new();
    for dir in packages.iter().chain(&stubs) {
        for sub in ["src", "tests", "benches"] {
            rust_files(&dir.join(sub), &mut files);
        }
    }
    rust_files(&root.join("examples"), &mut files);
    rust_files(&root.join("benchmark").join("src"), &mut files);
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable source");
            (path, text)
        })
        .collect()
}

/// Measures the product code of the root package and every crate under
/// `crates/`, rendered as `SIZE.json`.
fn size_report(root: &Path) -> String {
    let mut dirs = vec![root.to_path_buf()];
    let crates_dir = std::fs::read_dir(root.join("crates")).expect("crates/ is listable");
    dirs.extend(
        crates_dir
            .flatten()
            .map(|entry| entry.path())
            .filter(|dir| dir.join("Cargo.toml").is_file()),
    );
    let callers = caller_sources(root, &dirs);
    let mut per_crate = BTreeMap::new();
    let (mut setters, mut classes) = (0, 0);
    let (mut spawns, mut sites) = (0, [("catch_unwind", 0), ("unsafe", 0)]);
    for dir in &dirs {
        let src = dir.join("src");
        let outside: Vec<&str> = callers
            .iter()
            .filter(|(path, _)| !path.starts_with(&src))
            .map(|(_, text)| text.as_str())
            .collect();
        let (mut lines, mut pub_items, mut local) = (0, 0, 0);
        for (rel, code) in product_code(root, &src) {
            lines += code.len();
            pub_items += code.iter().filter(|l| is_pub_item(l)).count();
            let code_refs: Vec<&str> = code.iter().map(String::as_str).collect();
            local += crate_local_pub(&code_refs, &outside).len();
            let lines_with = |prefix: &str, part: &str| {
                code.iter()
                    .filter(|l| l.starts_with(prefix) && l.contains(part))
                    .count()
            };
            match rel.as_str() {
                "crates/dsm/src/builder.rs" => setters += lines_with("pub fn ", "(mut self"),
                "crates/lockdep/src/classes.rs" => classes += lines_with("pub const ", ""),
                _ => {}
            }
            spawns += code.iter().map(|l| spawn_sites(l)).sum::<usize>();
            for (word, count) in &mut sites {
                *count += code.iter().map(|l| count_word(l, word)).sum::<usize>();
            }
        }
        per_crate.insert(package_name(dir), (lines, pub_items, local));
    }
    let crates: Vec<String> = per_crate
        .iter()
        .map(|(name, (lines, pub_items, local))| {
            format!(
                "    \"{name}\": {{\"lines\": {lines}, \"pub_items\": {pub_items}, \
                 \"crate_local_pub\": {local}}}"
            )
        })
        .collect();
    format!(
        "{{\n  \"crates\": {{\n{}\n  }},\n  \"dsm_builder_setters\": {setters},\n  \
         \"lockdep_classes\": {classes},\n  \"thread_spawn_sites\": {},\n  \
         \"catch_unwind_sites\": {},\n  \"unsafe_sites\": {}\n}}\n",
        crates.join(",\n"),
        spawns,
        sites[0].1,
        sites[1].1,
    )
}

/// Product code only — lines that are not blank, not comments and not in
/// a test module, per package — plus the counts a simplicity change is
/// judged by. A change that moves any of them regenerates `SIZE.json`,
/// so the commit shows its own before/after.
#[test]
fn size_matches_the_committed_size_json() {
    let root = repo_root();
    let measured = size_report(&root);
    let committed = std::fs::read_to_string(root.join("SIZE.json")).unwrap_or_default();
    assert!(
        measured == committed,
        "SIZE.json is stale; the tree now measures:\n{measured}"
    );
}

#[test]
fn size_counts_only_product_code() {
    let source = "//! docs\nuse a::b;\n\npub fn f() {}\n    // note\npub(crate) fn g() {}\n\
                  pub struct S;\n#[cfg(test)]\nmod helpers;\nlet t = std::thread::spawn(x);\n\
                  #![forbid(unsafe_code)] unsafe {}\n#[cfg(test)]\nmod tests {\npub fn h() {}\n}\n";
    let (code, test_files) = product_lines(source);
    assert_eq!(test_files, ["helpers"]);
    assert_eq!(code.len(), 6, "{code:?}");
    assert_eq!(code.iter().filter(|l| is_pub_item(l)).count(), 2);
    assert_eq!(count_word(code[4], "thread::spawn"), 1);
    assert_eq!(spawn_sites(code[4]), 1);
    assert_eq!(spawn_sites("scope.spawn(move || {"), 1);
    assert_eq!(spawn_sites("fn spawn_worker(&self) {"), 0);
    assert_eq!(
        count_word(code[5], "unsafe"),
        1,
        "unsafe_code is not a site"
    );
}

#[test]
fn crate_local_pub_counts_items_no_other_crate_names() {
    let lib_a = "pub fn used() {}\npub struct Local;\npub use inner::Used;\n\
                 pub const fn shared() -> u32 { 0 }\npub(crate) fn private() {}\n\
                 pub const LIMIT: u32 = 4;\npub enum Kind<T> { A(T) }";
    let (code, _) = product_lines(lib_a);
    let lib_b = "use a::{shared, used, Kind};\nfn f() { used(); let _ = shared(); }\n\
                 // Locality and LIMITS are other words; a_Local is one word.\n\
                 let _: Kind<u8>;";
    let local = crate_local_pub(&code, &[lib_b]);
    assert_eq!(local, ["Local", "LIMIT"], "{code:?}");
    assert_eq!(pub_item_name("pub use inner::Used;"), None);
    assert_eq!(pub_item_name("pub(crate) fn private() {}"), None);
    assert_eq!(pub_item_name("pub static mut N: u8 = 0;"), Some("N"));
}
