//! `mqa-benchmark`: see `mqa_benchmark::cli` for the command line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(mqa_benchmark::cli::main_with(&args));
}
