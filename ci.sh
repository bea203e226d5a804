#!/usr/bin/env sh
# The CI gate: the one fail-fast sequence, run locally and by the GitHub
# workflow's `gate` job (which only installs the toolchain and calls this).
# Everything is offline — the workspace has no external dependencies.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo clippy (library and binary source rules)"
# No `.unwrap()` / `.expect(` / `panic!` / `todo!` / `unimplemented!` in
# non-test code, no float `==` / `!=`, no `unsafe` block without a
# `// SAFETY:` comment. A justified site carries
# `#[expect(clippy::…, reason = "…")]`, and the step above fails an
# expectation that no longer fires. The fail-fast binaries under
# crates/bench/src/bin and src/bin allow unwrap / expect at their roots.
cargo clippy --offline --workspace --lib --bins -- \
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
    -D clippy::todo -D clippy::unimplemented -D clippy::float_cmp \
    -D clippy::undocumented_unsafe_blocks

echo "==> cargo clippy (no ad-hoc Instant::now())"
# `clippy.toml` disallows `Instant::now()`; instrumented code times through
# mqa-obs. Excluded: mqa-bench (experiment drivers time raw iterations),
# mqa-obs (the timing API itself) and mqa-benchmark (the benchmark times
# layers from outside the program). `--no-deps` keeps the `-D` off the
# excluded crates where other members depend on them.
cargo clippy --offline --no-deps --workspace --exclude mqa-bench \
    --exclude mqa-obs --exclude mqa-benchmark --lib --bins -- \
    -D clippy::disallowed_methods

echo "==> mqa-xtask conc (static concurrency analysis)"
cargo run -q --offline -p mqa-xtask -- conc

echo "==> mqa-xtask flow (panic cone, serving-crate arithmetic, wildcard error arms)"
cargo run -q --offline -p mqa-xtask -- flow

echo "==> mqa-xtask alloc (allocation-freedom reachability)"
cargo run -q --offline -p mqa-xtask -- alloc

echo "==> cargo doc (intra-doc links)"
# A doc link to a renamed or deleted item fails here instead of rotting
# into plain text, and so does a public doc linking a private item (the
# rendered page shows it as dead text). mqa-benchmark is held to broken
# links only: its `engine_probes` doc still links the private `BURST`.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --workspace --exclude mqa-benchmark --offline
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps -p mqa-benchmark --offline

echo "==> mqa-xtask trace (per-query tracing gate)"
cargo run -q --release --offline -p mqa-xtask -- trace --out results/trace

echo "==> mqa-xtask mutate (online-mutation gate)"
cargo run -q --release --offline -p mqa-xtask -- mutate --out results/mutate

echo "==> mqa-xtask sched (admission-control overload gate)"
cargo run -q --release --offline -p mqa-xtask -- sched --out results/sched

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> examples (release)"
# Clippy above only compiles the examples; each one also runs to
# completion here (`custom_index` asserts that a restored snapshot answers
# like the index it was taken from). The list is the directory's.
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "--> $name"
    cargo run -q --release --offline --example "$name" >/dev/null
done

echo "==> mqa-xtask counts (exact counts against BENCH_counts.json)"
# Runs every workload's full plan, traced and untraced, and fails on an
# incorrect run or on a count: a change that reads one page more,
# evaluates one vertex more or gets one cache verdict differently moves a
# last digit here. (Each workload's `--quick` run and the driver's
# one-line verdict are held by `crates/benchmark/tests/contract.rs`.)
cargo run -q --release --offline -p mqa-xtask -- counts

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> search-instrumentation overhead guard (release)"
# The guard compares the per-search recording bundle with an optimized
# flat search; the debug run above slows the search more than the bundle
# and so cannot see a bundle that got expensive.
cargo test -q --offline --release -p mqa-graph --test obs_overhead

echo "==> walk equivalence (release)"
# The pool's key mapping is shifts and sign tricks: the debug run above
# checks them with overflow detection on, this one in the build that ships.
cargo test -q --offline --release -p mqa-graph --test walk_golden
cargo test -q --offline --release -p mqa-graph --lib -- pool:: walk_oracle::
# The selection routine's run checks, and its cross-check against the
# prune from scratch at every overflow of the HNSW, MQA-graph, Vamana and
# NSG unit-test builds, in the build that ships. The forged-snapshot tests
# (`persist::`) feed the validators hostile counts and ids; a release build
# has no overflow checks, so they run in the shipped profile too.
cargo test -q --offline --release -p mqa-graph --lib -- prune:: hnsw:: pipeline:: persist::
# The pinned construction edge hashes and evaluation counts, in the
# profile the benchmark builds its graphs with.
cargo test -q --offline --release -p mqa-graph --test construction_work

echo "==> exp_cache smoke (E13, quick)"
# E13 and E12 share mqa_bench::paged's fixture and pool pass; each exits
# non-zero if any query of a pass went unanswered.
cargo run -q --release --offline -p mqa-bench --bin exp_cache -- --quick

echo "==> exp_concurrent smoke (E12, quick)"
cargo run -q --release --offline -p mqa-bench --bin exp_concurrent -- --quick

echo "==> exp_pruning smoke (E8, quick)"
# Exits non-zero if a pruned search's results (ids and distance bits)
# differ from the unpruned search's at any ef.
cargo run -q --release --offline -p mqa-bench --bin exp_pruning -- --quick

echo "ci: all gates passed"
