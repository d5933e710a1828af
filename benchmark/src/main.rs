//! hf-benchmark: the two-clock end-to-end RLHF benchmark.
//!
//! ```text
//! hf-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hf-benchmark run [--seed <n>] [--seconds <s>]     # all four, both passes
//! hf-benchmark selfcheck [--seed <n>]
//! hf-benchmark manifest                             # prints BENCHMARK.json
//! ```
//!
//! `host_*` metrics read `std::time::Instant` around a call, on one CPU
//! and calibrated against a reference kernel (`calibrate.rs`); `virtual_*`
//! metrics read the controller's simulated clock. See `README.md`.

mod calibrate;
mod e2e;
mod json;
mod layers;
mod recorder;
mod replay;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;

use json::Json;
use workloads::{Workload, WORKLOADS};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 17;

/// `out/` next to the crate's manifest: everything the benchmark writes.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec::valid_name(name) {
                    return Err(format!("workload name {name:?} is not [A-Za-z0-9_.-]+"));
                }
                parsed.workload =
                    Some(workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=60.0).contains(&parsed.seconds) {
                    return Err("--seconds must be within 0..=60".into());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// The commit of the enclosing git checkout, read from `.git` directly
/// (no child process); `unknown` outside a repository.
fn commit_hash() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.to_string()
    }
}

/// CPUs the process could run on when it started (a child process of a
/// full set inherits the pin and reads 1) and the one CPU `main` pinned
/// it to.
static HOST: OnceLock<(usize, Option<usize>)> = OnceLock::new();

/// The environment block: enough to tell a noisy machine from a
/// regression.
fn environment(seed: u64, seconds: f64) -> Json {
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()))
        .unwrap_or(f64::NAN);
    Json::obj(vec![
        ("nproc", Json::Int(HOST.get().map_or(1, |h| h.0) as i64)),
        // -1: the affinity could not be set and the run is unpinned.
        ("pinned_cpu", Json::Int(HOST.get().and_then(|h| h.1).map_or(-1, |c| c as i64))),
        ("load_1min_at_start", Json::Num(load1)),
        ("commit", Json::str(commit_hash())),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Num(seconds)),
    ])
}

/// One run's result in the driver's format.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::find(name).map_or("", |m| m.unit);
                // `+ 0.0` writes a negative zero as `0.0`.
                let value = Json::Num(*value + 0.0);
                (name.to_string(), Json::obj(vec![("value", value), ("unit", Json::str(unit))]))
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Prints every metric by name with unit, direction and bound.
fn print_metrics(metrics: &[(&'static str, f64)]) {
    println!("  {:<36} {:>18}  {:<9} {:<7} bound", "metric", "value", "unit", "better");
    for (name, value) in metrics {
        let m = spec::find(name).expect("every printed metric is declared in spec.rs");
        let bound = if m.bound > 0.0 { format!("{:.1} %", m.bound * 100.0) } else { "-".into() };
        let exact = if m.exact { "  exact" } else { "" };
        println!(
            "  {:<36} {:>18.6}  {:<9} {:<7} {bound}{exact}",
            name,
            value,
            m.unit,
            m.better.as_str()
        );
    }
}

/// Every declared metric must be reported as a finite number.
fn check_complete(
    declared: &[spec::MetricSpec],
    metrics: &[(&'static str, f64)],
    failures: &mut Vec<String>,
) {
    for m in declared {
        if !metrics.iter().any(|(name, v)| *name == m.name && v.is_finite()) {
            failures.push(format!("metric {} was not measured", m.name));
        }
    }
}

/// Runs one pass of one workload in this process and prints its result;
/// the last line is the driver's JSON object.
fn run_one(workload: &'static Workload, args: &Args) -> Result<Outcome, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let env = environment(args.seed, args.seconds);
    let pass = if args.trace { "traced run (per-layer)" } else { "end-to-end pass (tracing off)" };
    println!("== {} · {pass}", workload.name);
    println!("   why: {}", workload.why);
    println!("   env: {}", env.render());

    let (attempted, metrics, mut failures, extra) = if args.trace {
        let r = layers::run(workload, args.seed, args.seconds, &out).map_err(|e| e.to_string())?;
        for note in &r.notes {
            println!("   {note}");
        }
        (r.attempted, r.metrics, r.failures, vec![])
    } else {
        let r = e2e::run(workload, args.seed, args.seconds, &out).map_err(|e| e.to_string())?;
        println!(
            "   iterations: {} measured in {} blocks of {}, {} whole episodes of {} (+ {} warm-up \
             each), {} set-ups",
            r.iter_ms.count,
            r.block_p50_ms.len(),
            workload.window / e2e::BLOCKS_PER_EPISODE,
            r.episodes,
            workload.window,
            workload.warmup,
            r.setups_s.len()
        );
        let tail = match r.iter_ms.tail_percentile {
            Some(p) => format!("p{p} {:.3} ms", r.iter_ms.tail),
            None => "no tail percentile under 100 samples".into(),
        };
        println!(
            "   host iteration, calibrated: p50 {:.3} ms, {tail}, {} samples",
            r.iter_ms.p50, r.iter_ms.count
        );
        println!(
            "   host iteration as the clock read it: p50 {:.3} ms; the host ran at {:.3}x the \
             reference kernel time",
            r.raw_iter_ms_p50, r.host_speed_p50
        );
        println!("   host_jitter_share: {:.3}", r.host_jitter_share);
        if r.host_jitter_share > 0.25 {
            println!(
                "   WARNING: host_jitter_share above 0.25 even after calibration — a noisy \
                 machine; read host_* figures as unresolved, not as a regression"
            );
        }
        for (name, spread) in &r.unresolved {
            println!(
                "   UNRESOLVED {name}: its samples within this run are spread {:.1} % apart, \
                 wider than its bound",
                spread * 100.0
            );
        }
        let extra = vec![
            ("host_jitter_share", Json::Num(r.host_jitter_share)),
            ("unresolved", Json::Arr(r.unresolved.iter().map(|(n, _)| Json::str(*n)).collect())),
            ("measured_iterations", Json::Int(r.iter_ms.count as i64)),
            ("window_iterations", Json::Int(workload.window as i64)),
            ("raw_iter_ms_p50", Json::Num(r.raw_iter_ms_p50)),
            ("host_speed_p50", Json::Num(r.host_speed_p50)),
            ("setups_s", Json::nums(&r.setups_s)),
            ("block_p50_ms", Json::nums(&r.block_p50_ms)),
            ("block_tokens_per_s", Json::nums(&r.block_tokens_per_s)),
        ];
        (r.attempted, r.metrics, r.failures, extra)
    };
    let declared: &[spec::MetricSpec] =
        if args.trace { &spec::PER_LAYER } else { &spec::END_TO_END };
    check_complete(declared, &metrics, &mut failures);
    let outcome = Outcome { attempted, failed: failures.len() as u64, metrics };
    print_metrics(&outcome.metrics);
    for f in &failures {
        println!("   FAILED: {f}");
    }
    println!("   failed {} of {} attempted", outcome.failed, outcome.attempted);

    let mut record = vec![("workload", Json::str(workload.name)), ("env", env)];
    record.extend(extra);
    record.push(("failures", Json::Arr(failures.iter().map(Json::str).collect())));
    record.push(("result", outcome.json()));
    let file = out.join(format!(
        "result-{}-{}.json",
        workload.name,
        if args.trace { "trace" } else { "e2e" }
    ));
    std::fs::write(&file, Json::obj(record).render() + "\n")
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("{}", outcome.json().render());
    Ok(outcome)
}

/// Runs every workload, both passes, one child process per pass (so
/// `peak_rss_mib` belongs to one workload), and writes `out/result.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = out_dir();
    let mut all_ok = true;
    let mut per_workload = Vec::new();
    for w in &WORKLOADS {
        let mut passes = Vec::new();
        for (pass, trace) in [("e2e", "0"), ("trace", "1")] {
            let seed = args.seed.to_string();
            let seconds = args.seconds.to_string();
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name, "--seed", &seed, "--seconds", &seconds])
                .args(["--trace", trace])
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            all_ok &= status.success();
            let file = out.join(format!("result-{}-{pass}.json", w.name));
            let text = std::fs::read_to_string(&file).unwrap_or_else(|_| "null".into());
            passes.push((pass, Json::Raw(text.trim().to_string())));
        }
        per_workload.push((w.name.to_string(), Json::obj(passes)));
    }
    let exact =
        spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()).filter(|m| m.exact).map(|m| m.name);
    let result = Json::obj(vec![
        ("env", environment(args.seed, args.seconds)),
        ("correct", Json::Bool(all_ok)),
        ("exact_metrics", Json::Arr(exact.map(Json::str).collect())),
        ("workloads", Json::Obj(per_workload)),
    ]);
    let file = out.join("result.json");
    std::fs::write(&file, result.render() + "\n")
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("== wrote {}", file.display());
    Ok(all_ok)
}

/// Runs both passes of every workload twice with one seed, one episode
/// each (`--seconds 0`), and compares. A metric marked *exact* must be
/// bit-identical whatever its bound: a bound is what a change that
/// declares a virtual-clock or numerical move may cost, not a tolerance
/// for one that does not. Bounded host metrics should agree within
/// their bound, and are reported as unresolved when the host is too
/// noisy for that, not as a failure.
fn selfcheck(seed: u64) -> Result<bool, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut broken = Vec::new();
    for w in &WORKLOADS {
        let mut twice = Vec::new();
        for _ in 0..2 {
            let e = e2e::run(w, seed, 0.0, &out).map_err(|e| e.to_string())?;
            let t = layers::run(w, seed, 0.0, &out).map_err(|e| e.to_string())?;
            for f in e.failures.iter().chain(&t.failures) {
                broken.push(format!("{}: {f}", w.name));
            }
            twice.push(e.metrics.into_iter().chain(t.metrics).collect::<Vec<_>>());
        }
        let (first, second) = (&twice[0], &twice[1]);
        let (mut exact_ok, mut host_ok, mut unresolved) = (0, 0, 0);
        for ((name, a), (_, b)) in first.iter().zip(second) {
            let m = spec::find(name).expect("declared");
            if m.exact {
                if a.to_bits() == b.to_bits() {
                    exact_ok += 1;
                } else {
                    broken.push(format!("{}: exact metric {name} differs: {a:?} vs {b:?}", w.name));
                }
            } else if m.bound > 0.0 && *name != "peak_rss_mib" {
                // Within one process the second run inherits the first
                // one's high-water mark, so RSS is not compared.
                if (a - b).abs() <= m.bound * a.abs().min(b.abs()) {
                    host_ok += 1;
                } else {
                    unresolved += 1;
                    println!(
                        "   UNRESOLVED {}: {name} {a:.4} vs {b:.4} differ by more than {:.0} % (host noise)",
                        w.name,
                        m.bound * 100.0
                    );
                }
            }
        }
        println!(
            "== selfcheck {}: {exact_ok} exact metrics identical, {host_ok} host metrics within \
             bound, {unresolved} unresolved",
            w.name
        );
    }
    for b in &broken {
        println!("   BROKEN {b}");
    }
    println!("== selfcheck {}", if broken.is_empty() { "passed" } else { "FAILED" });
    Ok(broken.is_empty())
}

fn main() -> ExitCode {
    // Before any thread is spawned, so that every thread inherits it.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    HOST.get_or_init(|| (nproc, calibrate::pin_to_one_cpu()));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("run", &[][..]),
    };
    let done = match command {
        "manifest" => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        "run" => parse_args(rest).and_then(|args| match args.workload {
            Some(w) => run_one(w, &args).map(|o| o.failed == 0),
            None => run_all(&args),
        }),
        "selfcheck" => parse_args(rest).and_then(|args| selfcheck(args.seed)),
        other => Err(format!("unknown command {other}; use run, selfcheck or manifest")),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
