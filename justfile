# Developer shortcuts. `just verify` is the tier-1 gate CI enforces.

# Build + test exactly as CI's test steps do. The release runs of `-p nde-ml`
# (KNN kernel and selection), `uncertain_soa` with the `certain_knn` lib
# tests (SoA interval kernel oracles) and `-p nde-uncertain` with
# `possible_worlds` (possible worlds) check that the exact panel kernel's
# baseline and AVX2 instantiations give bit-identical distances: the debug
# `cargo test` does not vectorize.
verify:
    cargo build --release --offline
    cargo test -q --offline
    cargo test -q --release --offline -p nde-ml
    cargo test -q --release --offline -p nde-importance
    cargo test -q --release --offline -p nde-tests --test knn_shapley_exact
    cargo test -q --release --offline -p nde-tests --test parallel_substrate
    cargo test -q --release --offline -p nde-data
    cargo test -q --release --offline -p nde-tests --test pool_lifecycle
    cargo test -q --release --offline -p nde-tests --test columnar_backend
    test -f tests/src/table.rs && ! grep -nwE 'Plane|I64Plane|F64Plane|StrPlane|BoolPlane|NullBitmap|col_i64|col_f64|col_str|col_bool|plane|planes' tests/src/table.rs
    cargo test -q --release --offline -p nde-tests --test uncertain_soa
    cargo test -q --release --offline -p nde-tests --lib certain_knn
    cargo test -q --release --offline -p nde-uncertain
    cargo test -q --release --offline -p nde-tests --test possible_worlds
    cargo test -q --release --offline -p nde-tests --test provenance_arena
    cargo test -q --release --offline -p nde-tests --test prop_semiring
    cargo test -q --release --offline -p nde-tests --test durability
    cargo test -q --release --offline -p nde-tests --test tmc_chain
    cargo test -q --release --offline -p nde-tests --test incremental_delta
    cargo test -q --release --offline -p nde-pipeline
    cargo test -q --release --offline -p nde-cleaning
    cargo test -q --release --offline -p nde-tests --lib chaos
    cargo run --release --offline -p nde-tests --example fault_tolerance | tee /tmp/nde_fault_tolerance.txt
    grep -q 'resume bit-identical to uninterrupted: true' /tmp/nde_fault_tolerance.txt
    cargo tree -p nde-robust -e normal --depth 1 --offline --prefix none | awk 'NR == 1 && /^nde-robust / {ok = 1} NR > 1 && !/^nde-data / {bad = 1} {print} END {exit !(ok && !bad)}'

# Format and lint.
lint:
    cargo fmt --all
    cargo clippy --workspace --all-targets --offline -- -D warnings

# Docs must build warning-free (broken intra-doc links fail CI).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

# Non-test line count of crates/*/src: the lines before each file's first
# `#[cfg(test)]`, summed.
loc:
    @find crates/*/src -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ {exit} {n++} END {print n+0}' {} \; | awk '{s += $1} END {print s}'

# Run every figure/table experiment binary.
experiments:
    cargo build --release -p nde-bench --bins
    ./target/release/run_all_experiments

# Timing benches (in-tree harness, no criterion).
bench:
    cargo bench --workspace --offline
