#![forbid(unsafe_code)]

//! Repo automation. `cargo run -p xtask -- lint` runs the policy lints
//! over the workspace (see [`lint`] for the rules); nonzero exit on any
//! violation, so `scripts/check.sh` can gate on it.

mod lint;

use lint::{
    lint_budget_checkpoints, lint_cold_path, lint_default_hasher, lint_forbid_unsafe,
    lint_governed_engine, lint_harness_bypass, lint_materialize, lint_raw_clock, lint_scalar_probe,
    lint_tracked_target, lint_unverified_rewrite, lint_unwrap, Violation, BITPARALLEL_HOT_FILES,
    BUDGET_HOT_FILES, CLOCK_HOT_FILES, CORE_SRC, ENGINE_FILE, ENUMERATOR_FILES,
    EXPERIMENT_BIN_FILES, HOT_PATH_FILES, OWN_CRATES, REWRITE_FILES,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

fn run_lint() -> ExitCode {
    let root = workspace_root();
    let mut violations: Vec<Violation> = Vec::new();

    // Rule 1: crate entry points forbid unsafe code.
    let mut entries: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    for c in OWN_CRATES {
        let lib = root.join(format!("crates/{c}/src/lib.rs"));
        let main = root.join(format!("crates/{c}/src/main.rs"));
        entries.push(if lib.exists() { lib } else { main });
    }
    for path in &entries {
        match std::fs::read_to_string(path) {
            Ok(content) => violations.extend(lint_forbid_unsafe(&rel(&root, path), &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 2: FNV-only maps on the hot path.
    for hot in HOT_PATH_FILES {
        let path = root.join(hot);
        match std::fs::read_to_string(&path) {
            Ok(content) => violations.extend(lint_default_hasher(hot, &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 3: no unwrap/expect in library code. Binaries (`src/bin/`,
    // `main.rs`), test/bench trees, the crates.io stand-ins and xtask
    // itself (whose lint tables spell the banned tokens) are out of scope.
    let mut lib_sources: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut lib_sources);
    for c in OWN_CRATES {
        if *c == "xtask" {
            continue;
        }
        collect_rs(&root.join(format!("crates/{c}/src")), &mut lib_sources);
    }
    for path in &lib_sources {
        let p = rel(&root, path);
        if p.contains("/bin/") || p.ends_with("main.rs") {
            continue;
        }
        match std::fs::read_to_string(path) {
            Ok(content) => violations.extend(lint_unwrap(&p, &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 4: no tracked build artifacts.
    match std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["ls-files", "-z"])
        .output()
    {
        Ok(out) if out.status.success() => {
            let listing = String::from_utf8_lossy(&out.stdout);
            violations.extend(lint_tracked_target(
                listing.split('\0').filter(|s| !s.is_empty()),
            ));
        }
        Ok(out) => {
            eprintln!("xtask: git ls-files failed: {}", out.status);
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("xtask: cannot run git: {e}");
            return ExitCode::from(2);
        }
    }

    // Rule 5: worklist loops on the budget hot path must check in with
    // the governor (or carry an audit marker).
    for hot in BUDGET_HOT_FILES {
        let path = root.join(hot);
        match std::fs::read_to_string(&path) {
            Ok(content) => violations.extend(lint_budget_checkpoints(hot, &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 6: no raw wall-clock reads on the evaluation hot path — phase
    // timing goes through the tracer (or carries an audit marker).
    for hot in CLOCK_HOT_FILES {
        let path = root.join(hot);
        match std::fs::read_to_string(&path) {
            Ok(content) => violations.extend(lint_raw_clock(hot, &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 7: no per-element map probes inside the bit-parallel kernel —
    // state lives in dense word-indexed arrays (or carries an audit marker).
    for hot in BITPARALLEL_HOT_FILES {
        let path = root.join(hot);
        match std::fs::read_to_string(&path) {
            Ok(content) => violations.extend(lint_scalar_probe(hot, &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 8: the streaming enumerator must not buffer answers — no
    // `.collect::<Vec` / `.push(` there (or carries an audit marker).
    for hot in ENUMERATOR_FILES {
        let path = root.join(hot);
        match std::fs::read_to_string(&path) {
            Ok(content) => violations.extend(lint_materialize(hot, &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 9: every rewrite-application site in the optimizer and the
    // regime minimizer must be dominated by a containment-verification
    // call in the same function (or carries an audit marker).
    for hot in REWRITE_FILES {
        let path = root.join(hot);
        match std::fs::read_to_string(&path) {
            Ok(content) => violations.extend(lint_unverified_rewrite(hot, &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 10: one compile pipeline — the compile stages run only inside
    // `PreparedPlan::compile`, and the query service parses or compiles
    // only on its audited cold path.
    let mut core_sources: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join(CORE_SRC), &mut core_sources);
    for path in &core_sources {
        let p = rel(&root, path);
        match std::fs::read_to_string(path) {
            Ok(content) => violations.extend(lint_cold_path(&p, &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 11: experiment bins go through the declarative harness — no
    // per-experiment env knobs, no ad-hoc result writes (or an audit
    // marker).
    for hot in EXPERIMENT_BIN_FILES {
        let path = root.join(hot);
        match std::fs::read_to_string(&path) {
            Ok(content) => violations.extend(lint_harness_bypass(hot, &content)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    // Rule 12: one worker pool per evaluator — every public engine
    // entry point is governed.
    let path = root.join(ENGINE_FILE);
    match std::fs::read_to_string(&path) {
        Ok(content) => violations.extend(lint_governed_engine(ENGINE_FILE, &content)),
        Err(e) => {
            eprintln!("xtask: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!(
            "xtask lint: clean ({} entry points, {} hot files, {} budget-hot files, \
             {} clock-hot files, {} kernel files, {} enumerator files, {} rewrite files, \
             {} core files, {} experiment-bin files, {} library files)",
            entries.len(),
            HOT_PATH_FILES.len(),
            BUDGET_HOT_FILES.len(),
            CLOCK_HOT_FILES.len(),
            BITPARALLEL_HOT_FILES.len(),
            ENUMERATOR_FILES.len(),
            REWRITE_FILES.len(),
            core_sources.len(),
            EXPERIMENT_BIN_FILES.len(),
            lib_sources.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: this file is compiled at a fixed depth below it.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest)
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under `dir`, recursively, sorted for stable output.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut batch: Vec<PathBuf> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            batch.push(path);
        }
    }
    batch.sort();
    out.extend(batch);
}
