//! Trace tooling: generate, inspect, race-check, and replay trace files,
//! all in the text format of `lrc_trace::codec` (which refuses an illegal
//! trace as it reads it).
//!
//! ```text
//! tracectl generate <app> [--procs N] [--units N] [--seed N] -o trace.txt
//! tracectl info <file>                  # metadata + statistics + sharing
//! tracectl check <file>                 # proper labeling, by lrc-hist's race scan
//! tracectl replay <file> [--protocol LI] [--page 4096] [--oracle]
//! ```

use std::process::ExitCode;

use lrc_sim::{history_of, run_trace, ProtocolKind, SimOptions};
use lrc_simnet::OpClass;
use lrc_trace::{codec, Trace, TraceStats};
use lrc_workloads::{AppKind, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("tracectl: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: tracectl <generate|info|check|replay> ...\n\
  generate <app> [--procs N] [--units N] [--seed N] -o <file>\n\
  info <file>\n\
  check <file>\n\
  replay <file> [--protocol LI|LU|EI|EU] [--page BYTES] [--oracle]\n";

/// Dispatches a command line; returns printable output or an error text.
fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => Err(USAGE.to_string()),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {flag}: '{v}'")),
    }
}

fn load(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    codec::from_text(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn generate(args: &[String]) -> Result<String, String> {
    let name = args.first().ok_or("generate: missing application name")?;
    let app = AppKind::from_name(name).ok_or_else(|| format!("unknown application '{name}'"))?;
    let scale = Scale {
        procs: parse_flag(args, "--procs", 16usize)?,
        units: parse_flag(args, "--units", 400usize)?,
        seed: parse_flag(args, "--seed", 1992u64)?,
    };
    let out = flag_value(args, "-o").ok_or("generate: missing -o <file>")?;
    let trace = app.generate(&scale);
    std::fs::write(out, codec::to_text(&trace)).map_err(|e| format!("write {out}: {e}"))?;
    Ok(format!("wrote {} events to {out}\n", trace.len()))
}

fn info(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("info: missing file")?;
    let trace = load(path)?;
    let stats = TraceStats::compute(&trace);
    let mut out = format!("{}\n{stats}\n", trace.meta());
    out.push_str("writers/page by page size:");
    for page in [512usize, 1024, 2048, 4096, 8192] {
        match stats.mean_writers_per_page(&trace, page) {
            Some(w) => out.push_str(&format!("  {page}B: {w:.2}")),
            None => out.push_str(&format!("  {page}B: -")),
        }
    }
    out.push('\n');
    Ok(out)
}

fn check(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("check: missing file")?;
    let trace = load(path)?;
    // A race renders as "data race: <one access> and <the other> ...".
    history_of(&trace).check_drf().map_err(|e| e.to_string())?;
    Ok("legal and properly labeled\n".to_string())
}

fn replay(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("replay: missing file")?;
    let trace = load(path)?;
    let kind = match flag_value(args, "--protocol") {
        None => ProtocolKind::LazyInvalidate,
        Some(label) => {
            ProtocolKind::from_label(label).ok_or_else(|| format!("unknown protocol '{label}'"))?
        }
    };
    let page = parse_flag(args, "--page", 4096usize)?;
    let options = if args.iter().any(|a| a == "--oracle") {
        SimOptions::checked()
    } else {
        SimOptions::fast()
    };
    let report = run_trace(&trace, kind, page, &options).map_err(|e| e.to_string())?;
    let mut out = format!("{report}\n");
    for class in OpClass::ALL {
        let c = report.class(class);
        out.push_str(&format!(
            "  {class:<8} {:>10} msgs {:>14} bytes\n",
            c.msgs, c.bytes
        ));
    }
    if options.check_sc {
        out.push_str("sequential-consistency oracle: every read matched\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("lrc-tracectl-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn usage_on_no_command() {
        assert!(run(&[]).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn generate_info_check_replay_pipeline() {
        let file = tmp("water.txt");
        let out = run(&s(&[
            "generate", "water", "--procs", "4", "--units", "16", "-o", &file,
        ]))
        .unwrap();
        assert!(out.contains("wrote"));

        let out = run(&s(&["info", &file])).unwrap();
        assert!(out.contains("water"));
        assert!(out.contains("4 procs"));

        let out = run(&s(&["check", &file])).unwrap();
        assert!(out.contains("properly labeled"));

        let out = run(&s(&[
            "replay",
            &file,
            "--protocol",
            "LU",
            "--page",
            "512",
            "--oracle",
        ]))
        .unwrap();
        assert!(out.contains("LU @512B"));
        assert!(out.contains("oracle: every read matched"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&s(&["info", "/nonexistent/file.txt"])).is_err());
        assert!(run(&s(&["generate", "nosuchapp", "-o", "/tmp/x"])).is_err());
        assert!(run(&s(&["replay"])).is_err());
        let file = tmp("err.txt");
        run(&s(&[
            "generate", "water", "--procs", "2", "--units", "4", "-o", &file,
        ]))
        .unwrap();
        assert!(run(&s(&["replay", &file, "--protocol", "XX"])).is_err());
        assert!(run(&s(&["generate", "water", "--procs", "zzz", "-o", &file])).is_err());
    }
}
