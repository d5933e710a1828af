//! `hf-bench`: the one runner over the experiment registry
//! (`hf-bench list | <name>… | all [--fast] [--json] [--check]`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(hf_bench::registry::main(&args));
}
