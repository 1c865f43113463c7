//! Mutation runner: applies each mutant of the repository's `MUTANTS.txt`
//! to a copy of the workspace and requires every test named as its
//! killer to fail.
//!
//! ```text
//! cargo run --release --offline -p lrc-bench --bin mutants
//! ```
//!
//! The workspace is copied once to `target/mutants/tree`, without
//! `target/`, `.git`, `benchmark/` and the benchmark's build directory,
//! and every `cargo test` runs there against one target dir,
//! `target/mutants/target`, so a mutant rebuilds only its crate and the
//! crates that depend on it. Every distinct killer must pass on the clean
//! copy first, or nothing is mutated. Then each mutant is applied alone
//! and its files are restored afterwards. A killer kills a mutant when
//! it exits non-zero or overruns [`DEADLINE`]; `broke-build` means its
//! test targets did not compile. The verdicts go to `MUTANTS.json` at
//! the repository root, in file order and without timings, and the run
//! exits non-zero unless every killer of every mutant reads `killed`.
//! Cargo's output for each mutant is kept in `target/mutants/logs/`.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// How long one killer may run before it counts as killing its mutant.
const DEADLINE: Duration = Duration::from_secs(600);

/// Top-level entries of the repository that the copy leaves out.
const SKIP: [&str; 4] = ["target", ".git", "benchmark", ".bench_build"];

/// One replacement: `find` occurs exactly once in `file` (relative to
/// the repository root) and becomes `replace`.
struct Edit {
    file: String,
    find: String,
    replace: String,
}

/// A named set of edits and the `cargo test` arguments of every test
/// that must fail under it.
struct Mutant {
    name: String,
    edits: Vec<Edit>,
    killers: Vec<String>,
}

/// Parses `MUTANTS.txt` (its format is described at the top of that
/// file).
fn parse(text: &str) -> Result<Vec<Mutant>, String> {
    let mut mutants: Vec<Mutant> = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((i, line)) = lines.next() {
        let err = |what: &str| format!("MUTANTS.txt:{}: {what}", i + 1);
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, arg) = line.split_once(' ').unwrap_or((line, ""));
        let arg = arg.trim().to_string();
        if key == "mutant" {
            mutants.push(Mutant {
                name: arg,
                edits: Vec::new(),
                killers: Vec::new(),
            });
            continue;
        }
        let mutant = mutants
            .last_mut()
            .ok_or_else(|| err("no `mutant` line above"))?;
        match key {
            "kill" => mutant.killers.push(arg),
            "edit" => {
                if lines.next().map(|(_, l)| l) != Some("<<<") {
                    return Err(err("`edit` must be followed by a `<<<` line"));
                }
                let mut block = |end: &str| {
                    let mut body = Vec::new();
                    for (_, l) in lines.by_ref() {
                        if l == end {
                            return Ok(body.join("\n"));
                        }
                        body.push(l);
                    }
                    Err(err(&format!("the edit never reaches a `{end}` line")))
                };
                let find = block("===")?;
                let replace = block(">>>")?;
                mutant.edits.push(Edit {
                    file: arg,
                    find,
                    replace,
                });
            }
            _ => return Err(err(&format!("unknown line `{line}`"))),
        }
    }
    Ok(mutants)
}

/// Every way `mutants` no longer fits the tree at `root`: a duplicate
/// name, a mutant without edits or killers, an edit that changes
/// nothing, or a snippet that does not occur exactly once in its file.
fn problems(root: &Path, mutants: &[Mutant]) -> Vec<String> {
    let mut out = Vec::new();
    for (k, m) in mutants.iter().enumerate() {
        let name = &m.name;
        if mutants[..k].iter().any(|other| other.name == *name) {
            out.push(format!("{name}: the name is used twice"));
        }
        if m.edits.is_empty() || m.killers.is_empty() {
            out.push(format!("{name}: needs at least one edit and one killer"));
        }
        for edit in &m.edits {
            let file = &edit.file;
            if edit.find == edit.replace {
                out.push(format!("{name}: an edit of {file} changes nothing"));
            }
            match fs::read_to_string(root.join(file)) {
                Ok(source) => match source.matches(&edit.find).count() {
                    1 => {}
                    n => out.push(format!("{name}: its snippet occurs {n} times in {file}")),
                },
                Err(e) => out.push(format!("{name}: cannot read {file}: {e}")),
            }
        }
    }
    out
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Copies `from` to `to`, leaving out the [`SKIP`] entries at the top.
fn copy_tree(from: &Path, to: &Path, top: bool) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        if top && SKIP.iter().any(|s| name == *s) {
            continue;
        }
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to.join(&name), false)?;
        } else {
            fs::copy(entry.path(), to.join(&name))?;
        }
    }
    Ok(())
}

/// The copy of the tree, the target dir its builds share, and the logs.
struct Workdir {
    tree: PathBuf,
    target: PathBuf,
    logs: PathBuf,
}

impl Workdir {
    /// Runs `cargo test --offline <extra> <killer>` in the copy under
    /// [`DEADLINE`], appending its output to `<log>.log`; true if it
    /// passed.
    fn cargo_test(&self, extra: &[&str], killer: &str, log: &str) -> Result<bool, String> {
        let path = self.logs.join(format!("{log}.log"));
        let log = File::options().create(true).append(true).open(path);
        let log = log.map_err(|e| e.to_string())?;
        let status = Command::new("timeout")
            .arg(DEADLINE.as_secs().to_string())
            .arg(std::env::var_os("CARGO").unwrap_or("cargo".into()))
            .args(["test", "--offline"])
            .args(extra)
            .args(killer.split_whitespace())
            .current_dir(&self.tree)
            .env("CARGO_TARGET_DIR", &self.target)
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .status()
            .map_err(|e| format!("cannot run cargo under timeout: {e}"))?;
        Ok(status.success())
    }

    /// Applies `m` to the copy, runs every killer, and restores the
    /// files; one verdict per killer.
    fn run(&self, m: &Mutant) -> Result<Vec<&'static str>, String> {
        let mut originals: Vec<(PathBuf, String)> = Vec::new();
        for edit in &m.edits {
            let path = self.tree.join(&edit.file);
            let source = fs::read_to_string(&path).map_err(|e| e.to_string())?;
            if source.matches(&edit.find).count() != 1 {
                let (name, file) = (&m.name, &edit.file);
                return Err(format!("{name}: an earlier edit moved a snippet in {file}"));
            }
            let mutated = source.replacen(&edit.find, &edit.replace, 1);
            if !originals.iter().any(|(p, _)| *p == path) {
                originals.push((path.clone(), source));
            }
            fs::write(&path, mutated).map_err(|e| e.to_string())?;
        }
        let verdict = |k: &str| {
            Ok(if !self.cargo_test(&["--no-run"], k, &m.name)? {
                "broke-build"
            } else if self.cargo_test(&[], k, &m.name)? {
                "survived"
            } else {
                "killed"
            })
        };
        let verdicts = m.killers.iter().map(|k| verdict(k)).collect();
        for (path, source) in originals {
            fs::write(path, source).map_err(|e| e.to_string())?;
        }
        verdicts
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("mutants: {message}");
            ExitCode::from(2)
        }
    }
}

/// The whole run; `Ok(false)` when a killer survived or a mutant broke
/// the build.
fn run() -> Result<bool, String> {
    let root = repo_root();
    let text = fs::read_to_string(root.join("MUTANTS.txt")).map_err(|e| e.to_string())?;
    let mutants = parse(&text)?;
    let problems = problems(&root, &mutants);
    if !problems.is_empty() {
        return Err(format!("MUTANTS.txt is stale:\n{}", problems.join("\n")));
    }
    let base = root.join("target/mutants");
    let work = Workdir {
        tree: base.join("tree"),
        target: base.join("target"),
        logs: base.join("logs"),
    };
    // Leftovers of an earlier run; neither may exist yet.
    let _ = fs::remove_dir_all(&work.tree);
    let _ = fs::remove_dir_all(&work.logs);
    fs::create_dir_all(&work.logs).map_err(|e| e.to_string())?;
    copy_tree(&root, &work.tree, true).map_err(|e| format!("copying the tree: {e}"))?;

    let killers: Vec<&String> = mutants.iter().flat_map(|m| &m.killers).collect();
    for (i, k) in killers.iter().enumerate() {
        if killers[..i].contains(k) {
            continue;
        }
        eprintln!("baseline: {k}");
        if !work.cargo_test(&[], k, "baseline")? {
            return Err(format!(
                "`cargo test {k}` fails on the clean tree (see target/mutants/logs/baseline.log)"
            ));
        }
    }

    let mut all_killed = true;
    let mut entries = Vec::new();
    for m in &mutants {
        let verdicts = work.run(m)?;
        let mut lines = Vec::new();
        for (k, v) in m.killers.iter().zip(verdicts) {
            eprintln!("{}: {k}: {v}", m.name);
            all_killed &= v == "killed";
            lines.push(format!("        {}: \"{v}\"", json_str(k)));
        }
        entries.push(format!(
            "    {{\n      \"name\": {},\n      \"killers\": {{\n{}\n      }}\n    }}",
            json_str(&m.name),
            lines.join(",\n")
        ));
    }
    let json = format!("{{\n  \"mutants\": [\n{}\n  ]\n}}\n", entries.join(",\n"));
    fs::write(root.join("MUTANTS.json"), json).map_err(|e| e.to_string())?;
    Ok(all_killed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rot guard: the committed file parses, and every mutant still
    /// fits the tree — each snippet occurs exactly once, each edit
    /// changes something, names are unique, and each mutant names a
    /// killer. Runs no cargo command.
    #[test]
    fn every_mutant_applies_to_the_tree_at_head() {
        let root = repo_root();
        let text = fs::read_to_string(root.join("MUTANTS.txt")).expect("MUTANTS.txt");
        let mutants = parse(&text).expect("MUTANTS.txt parses");
        assert!(!mutants.is_empty());
        let problems = problems(&root, &mutants);
        assert!(problems.is_empty(), "{}", problems.join("\n"));
    }

    #[test]
    fn the_parser_reads_blocks_verbatim() {
        let text = "# comment\nmutant a\nedit x.rs\n<<<\n    one\n\ntwo\n===\n>>>\n\
                    kill --release --test t name\nkill -p c\n";
        let mutants = parse(text).unwrap();
        assert_eq!(mutants.len(), 1);
        let m = &mutants[0];
        assert_eq!(m.name, "a");
        assert_eq!(m.killers, ["--release --test t name", "-p c"]);
        assert_eq!(m.edits[0].file, "x.rs");
        assert_eq!(m.edits[0].find, "    one\n\ntwo");
        assert_eq!(m.edits[0].replace, "");
    }

    #[test]
    fn the_parser_and_the_checks_refuse_what_cannot_run() {
        assert!(parse("kill -p c\n").is_err());
        assert!(parse("mutant a\nedit x.rs\nfind\n").is_err());
        assert!(parse("mutant a\nedit x.rs\n<<<\nx\n===\n").is_err());
        assert!(parse("mutant a\nfrobnicate\n").is_err());

        let root = repo_root();
        let text = "mutant a\nedit Cargo.toml\n<<<\n[workspace]\n===\n[workspace]\n>>>\n\
                    mutant a\nedit Cargo.toml\n<<<\nworkspace\n===\nx\n>>>\nkill -p c\n\
                    mutant b\nedit no/such.rs\n<<<\nx\n===\ny\n>>>\nkill -p c\n";
        let problems = problems(&root, &parse(text).unwrap());
        let expect = [
            "a: needs at least one edit and one killer",
            "a: an edit of Cargo.toml changes nothing",
            "a: the name is used twice",
            "a: its snippet occurs",
            "b: cannot read no/such.rs",
        ];
        assert_eq!(problems.len(), expect.len(), "{problems:?}");
        for e in expect {
            assert!(
                problems.iter().any(|p| p.starts_with(e)),
                "{e}: {problems:?}"
            );
        }
    }
}
