//! The `hf-bench` command line: what it lists, and how it turns down a
//! command line it does not understand.

use std::process::{Command, Output};

use hf_bench::registry::REGISTRY;

fn hf_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hf-bench")).args(args).output().expect("hf-bench runs")
}

fn names_in(listing: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(listing);
    text.lines().filter_map(|l| l.split_once('\t')).map(|(name, _)| name.to_string()).collect()
}

#[test]
fn list_prints_every_registry_entry() {
    let out = hf_bench(&["list"]);
    assert!(out.status.success());
    let expected: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(names_in(&out.stdout), expected);
}

#[test]
fn unknown_names_and_flags_exit_2_with_the_list() {
    for args in [
        &[][..],
        &["fig99"],
        &["fig15_breakdown", "--measured"],
        // No baseline is committed for fig9_ppo.
        &["fig9_ppo", "--check"],
    ] {
        let out = hf_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        assert_eq!(names_in(&out.stderr).len(), REGISTRY.len(), "{args:?} must print the list");
    }
}

#[test]
fn a_named_experiment_prints_its_tables_and_writes_json_on_request() {
    let dir = std::env::temp_dir().join(format!("hf-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hf-bench"))
        .args(["table2_transition", "--json"])
        .current_dir(&dir)
        .output()
        .expect("hf-bench runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("== Table 2: transition overhead"));
    let doc = std::fs::read_to_string(dir.join("BENCH_table2_transition.json")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(doc.contains("\"experiment\": \"table2_transition\""), "{doc}");
}
