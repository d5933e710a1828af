//! The experiment registry and the one runner in front of it:
//! `hf-bench list | <name>… | all [--fast] [--json] [--check]`.
//!
//! The runner owns what every experiment used to do for itself:
//! argument parsing, text and JSON rendering, the baseline diff, the
//! exit code, and the scratch directories fault experiments checkpoint
//! into.

use std::path::{Path, PathBuf};

use crate::table::{mode, Report};
use crate::{faults, figures, host, perf, pipeline, reward_eval};

/// One registered experiment.
pub struct Experiment {
    /// The name on the command line and in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Whether two runs render byte-identical JSON: virtual time and
    /// closed forms only, no host clock. CI reruns these and `cmp`s.
    pub(crate) deterministic: bool,
    /// Runs it; `fast` is the CI smoke shape where the experiment has one.
    pub(crate) run: fn(fast: bool) -> Report,
}

const fn exact(name: &'static str, run: fn(bool) -> Report) -> Experiment {
    Experiment { name, deterministic: true, run }
}

const fn timed(name: &'static str, run: fn(bool) -> Report) -> Experiment {
    Experiment { name, deterministic: false, run }
}

/// Every experiment, in the order `list` and `all` use; what each one
/// measures is documented on its function and in EXPERIMENTS.md.
pub const REGISTRY: &[Experiment] = &[
    exact("table1_comparison", figures::table1_comparison),
    exact("table2_transition", figures::table2_transition),
    exact("fig9_ppo", figures::fig9_ppo),
    exact("fig10_remax", figures::fig10_remax),
    exact("fig11_safe_rlhf", figures::fig11_safe_rlhf),
    exact("fig12_placement", figures::fig12_placement),
    exact("fig13_large_critic", figures::fig13_large_critic),
    exact("fig14_transition", figures::fig14_transition),
    exact("fig15_breakdown", figures::fig15_breakdown),
    exact("fig15_breakdown_measured", figures::fig15_breakdown_measured),
    timed("fig16_mapping_runtime", figures::fig16_mapping_runtime),
    exact("headline_speedups", figures::headline_speedups),
    exact("whatif_hardware", figures::whatif_hardware),
    exact("ablations", figures::ablations),
    timed("mapping_search", host::mapping_search),
    timed("genserve_throughput", host::genserve_throughput),
    timed("inference_forward", host::inference_forward),
    timed("audit_sweep", host::audit_sweep),
    exact("fault_recovery", faults::fault_recovery),
    exact("remap", faults::remap),
    exact("perf_report", perf::perf_report),
    exact("pipeline_overlap", pipeline::pipeline_overlap),
    exact("reward_eval", reward_eval::reward_eval),
];

/// The committed baseline `--check` diffs `name`'s JSON against.
pub(crate) fn baseline_path(name: &str, fast: bool) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("baselines/{name}_{}.json", mode(fast)))
}

/// A directory under the system temp dir that is removed when the guard
/// drops — on return, on `?`, and on unwind alike.
pub(crate) struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Where the scratch directory tagged `tag` lives in this process.
    pub(crate) fn location(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hf-bench-{tag}-{}", std::process::id()))
    }

    /// A fresh, empty directory for `tag`.
    pub(crate) fn new(tag: &str) -> Self {
        let dir = Self::location(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }

    /// The directory.
    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn list() -> String {
    let kind = |e: &Experiment| if e.deterministic { "deterministic" } else { "wall-clock" };
    REGISTRY.iter().map(|e| format!("{}\t{}\n", e.name, kind(e))).collect()
}

fn usage(problem: &str) -> i32 {
    eprintln!("hf-bench: {problem}");
    eprintln!("usage: hf-bench list | <name>... | all  [--fast] [--json] [--check]");
    eprintln!("  --fast   the CI smoke shape");
    eprintln!("  --json   also write BENCH_<name>.json to the current directory");
    eprintln!("  --check  diff the JSON against crates/bench/baselines/<name>_<mode>.json");
    eprint!("experiments:\n{}", list());
    2
}

/// Runs the command line (program name stripped) and returns the exit
/// code: 0, 1 when a check or an experiment's own assertion failed, 2
/// for a command line the runner does not understand.
pub fn main(args: &[String]) -> i32 {
    let (mut fast, mut json, mut check) = (false, false, false);
    let mut names = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--fast" => fast = true,
            "--json" => json = true,
            "--check" => check = true,
            flag if flag.starts_with('-') => return usage(&format!("unknown flag {flag}")),
            name => names.push(name),
        }
    }
    let mut selected = Vec::new();
    match names.as_slice() {
        [] => return usage("no experiment named"),
        ["list"] => {
            print!("{}", list());
            return 0;
        }
        ["all"] => selected.extend(REGISTRY),
        _ => {
            for name in &names {
                match REGISTRY.iter().find(|e| e.name == *name) {
                    Some(e) => selected.push(e),
                    None => return usage(&format!("unknown experiment {name}")),
                }
            }
        }
    }
    let mut baselines = Vec::new();
    if check {
        for exp in &selected {
            let path = baseline_path(exp.name, fast);
            match std::fs::read_to_string(&path) {
                Ok(text) => baselines.push((path, text)),
                Err(e) => return usage(&format!("--check: {}: {}: {e}", exp.name, path.display())),
            }
        }
    }

    let mut code = 0;
    for (i, exp) in selected.into_iter().enumerate() {
        let report = (exp.run)(fast);
        print!("{}", report.text());
        let doc = report.json(exp.name, fast).render();
        if json {
            let path = format!("BENCH_{}.json", exp.name);
            match std::fs::write(&path, &doc) {
                Ok(()) => println!("[json] wrote {path}"),
                Err(e) => {
                    eprintln!("[json] failed to write {path}: {e}");
                    code = 1;
                }
            }
        }
        if let Some((path, baseline)) = baselines.get(i) {
            match perf::check(&doc, baseline) {
                Ok(()) => println!(
                    "check: within {:.0}% of {}",
                    perf::CHECK_REL_TOL * 100.0,
                    path.display()
                ),
                Err(diffs) => {
                    eprintln!("check: drifted from {} ({} diffs):", path.display(), diffs.len());
                    for d in &diffs {
                        eprintln!("  {d}");
                    }
                    eprintln!(
                        "if intentional, rerun with --json and copy BENCH_{}.json over the baseline",
                        exp.name
                    );
                    code = 1;
                }
            }
        }
        for failure in &report.failures {
            eprintln!("FAILED {}: {failure}", exp.name);
            code = 1;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_unique_and_all_listed() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate experiment name");
        let listed = list();
        let listed: Vec<&str> = listed.lines().map(|l| l.split('\t').next().unwrap()).collect();
        assert_eq!(listed, REGISTRY.iter().map(|e| e.name).collect::<Vec<_>>());
    }

    /// Every entry marked deterministic renders byte-identical JSON
    /// twice (virtual-clock exactness end to end: fresh clusters, fresh
    /// device threads, racy span-id allocation and all), and the fault
    /// experiments' checkpoint directories do not outlive them.
    #[test]
    fn deterministic_entries_rerun_byte_identical_and_leave_no_scratch() {
        for exp in REGISTRY.iter().filter(|e| e.deterministic) {
            let render = || (exp.run)(true).json(exp.name, true).render();
            assert_eq!(render(), render(), "{} must be byte-stable across runs", exp.name);
        }
        let ours = format!("-{}", std::process::id());
        let leftovers: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .expect("temp dir lists")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("hf-bench-") && n.ends_with(&ours) && !n.contains("selftest"))
            .collect();
        assert!(leftovers.is_empty(), "scratch directories left behind: {leftovers:?}");
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_unwind() {
        let dir = ScratchDir::new("selftest-drop");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("shard"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());

        let unwound = std::panic::catch_unwind(|| {
            let dir = ScratchDir::new("selftest-unwind");
            std::fs::write(dir.path().join("shard"), b"x").unwrap();
            panic!("experiment failed mid-run");
        });
        assert!(unwound.is_err());
        assert!(!ScratchDir::location("selftest-unwind").exists());
    }
}
