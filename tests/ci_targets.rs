//! Every CI step runs the test it names.
//!
//! `cargo test --test NAME` without `-p` only searches the root package,
//! so a step that names another crate's integration test must say which
//! package it is in. This parses `.github/workflows/ci.yml` and checks
//! that each `[-p PKG] --test NAME` resolves to a file:
//! `crates/PKG/tests/NAME.rs` with `-p`, `tests/NAME.rs` without.

use std::path::Path;

/// Every `(package, test)` pair named by a `cargo ... --test NAME`
/// command in `yaml`. Tokens are read across line breaks, so folded
/// blocks and `\` continuations parse like one command line.
fn test_targets(yaml: &str) -> Vec<(Option<String>, String)> {
    let tokens: Vec<&str> = yaml.split_whitespace().filter(|t| *t != "\\").collect();
    let mut targets = Vec::new();
    for (i, _) in tokens.iter().enumerate().filter(|(_, t)| **t == "--test") {
        let name = tokens.get(i + 1).expect("`--test` names a target");
        let command = tokens[..i]
            .iter()
            .rposition(|t| *t == "cargo")
            .expect("`--test` belongs to a cargo command");
        let package = tokens[command..i]
            .iter()
            .position(|t| *t == "-p")
            .map(|p| tokens[command + p + 1].to_string());
        targets.push((package, name.to_string()));
    }
    targets
}

#[test]
fn every_ci_test_target_resolves_to_a_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let yaml = std::fs::read_to_string(root.join(".github/workflows/ci.yml"))
        .expect("CI workflow is readable");
    let targets = test_targets(&yaml);
    assert!(
        targets.len() >= 5,
        "parsed too few `--test` steps: {targets:?}"
    );
    let missing: Vec<String> = targets
        .iter()
        .filter_map(|(package, name)| {
            let file = match package {
                Some(p) => format!("crates/{p}/tests/{name}.rs"),
                None => format!("tests/{name}.rs"),
            };
            (!root.join(&file).is_file()).then(|| {
                let p = package
                    .as_deref()
                    .map_or(String::new(), |p| format!("-p {p} "));
                format!("`{p}--test {name}` expects {file}")
            })
        })
        .collect();
    assert!(
        missing.is_empty(),
        "CI names missing test targets:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn package_flags_bind_to_their_own_command() {
    let yaml = "run: cargo test -q -p hetero-core --test checkpoint\n\
                run: >\n  cargo test --release -q --test chaos_soak --\n  some_case\n\
                run: |\n  cargo test -q -p bench \\\n    --test resume_errors\n";
    assert_eq!(
        test_targets(yaml),
        [
            (Some("hetero-core".to_string()), "checkpoint".to_string()),
            (None, "chaos_soak".to_string()),
            (Some("bench".to_string()), "resume_errors".to_string()),
        ]
    );
}
