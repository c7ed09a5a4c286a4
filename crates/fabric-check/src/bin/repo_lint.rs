//! Workspace lint gate. With no arguments, scans the whole tree from
//! the workspace root (sources, `LOCK_ORDER.txt`, and the crate
//! manifests against `LAYERS.txt`) and exits non-zero on any finding
//! (CI's `lint-gate`). With `--lint-as <virtual-path> <file>...`, lints the
//! given files as if they lived at the virtual path — how CI proves the
//! known-bad fixtures still trip their rules.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let findings = match args.first().map(String::as_str) {
        None => {
            let cwd = std::env::current_dir().expect("cwd accessible");
            let root = fabric_check::lint::find_workspace_root(&cwd)
                .expect("run repo_lint from inside the workspace (ROADMAP.md not found)");
            match fabric_check::lint::workspace_findings(&root) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("repo_lint: scan failed: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Some("--lint-as") if args.len() >= 3 => {
            let virtual_path = &args[1];
            let mut findings = Vec::new();
            for file in &args[2..] {
                match std::fs::read_to_string(Path::new(file)) {
                    Ok(content) => {
                        findings.extend(fabric_check::lint::lint_file(virtual_path, &content));
                    }
                    Err(e) => {
                        eprintln!("repo_lint: cannot read {file}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            findings
        }
        _ => {
            eprintln!("usage: repo_lint                     scan the workspace tree");
            eprintln!("       repo_lint --lint-as <virtual-path> <file>...");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("repo_lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("repo_lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
