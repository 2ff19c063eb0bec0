# Developer shortcuts. `just verify` is the tier-1 gate CI enforces.

# Build + test exactly as CI's test steps do (the bench smokes are the
# `bench-*` recipes).
verify:
    cargo build --release --offline
    cargo test -q --offline
    cargo test -q --release --offline -p nde-ml
    cargo test -q --release --offline -p nde-importance
    cargo test -q --release --offline -p nde-tests --test parallel_substrate
    cargo test -q --release --offline -p nde-data
    cargo test -q --release --offline -p nde-tests --test pool_lifecycle
    cargo test -q --release --offline -p nde-tests --test columnar_backend
    cargo test -q --release --offline -p nde-tests --test durability
    cargo test -q --release --offline -p nde-tests --test incremental_delta
    cargo run --release --offline --example fault_tolerance | tee /tmp/nde_fault_tolerance.txt
    grep -q 'resume bit-identical to uninterrupted: true' /tmp/nde_fault_tolerance.txt

# Pipeline-engine smoke: arena + parallel operators vs the sequential tree
# path, appended to the BENCH_pipeline.json trajectory (prints the
# last-vs-previous delta when history exists).
bench-pipeline:
    cargo build --release --offline -p nde-bench --bin exp_pipeline_scaling
    ./target/release/exp_pipeline_scaling --smoke --threads=1,4 --check=40
    grep -q '"end_to_end_speedup"' BENCH_pipeline.json
    grep -q '"git_commit"' BENCH_pipeline.json

# Storage-backend smoke: typed columnar planes vs the Value-per-cell
# reference backend on the E13 pipeline workload. The bench verifies
# bit-identical output/lineage, gates on columnar winning exec
# ms/output-row, and appends both timings to BENCH_pipeline.json; the
# differential property suite re-proves operation-level equivalence.
bench-columnar:
    cargo build --release --offline -p nde-bench --bin exp_pipeline_scaling
    ./target/release/exp_pipeline_scaling --smoke --threads=1,4 | tee /tmp/nde_backend_e13.txt
    grep -q 'backend gate OK' /tmp/nde_backend_e13.txt
    grep -q '"backend_speedup"' BENCH_pipeline.json
    cargo test -q --release --offline -p nde-tests --test columnar_backend

# Learn-pillar engine smoke: SoA interval kernels vs the AoS reference
# (Zorro fit, certain-KNN, possible worlds), appended to the
# BENCH_uncertain.json trajectory with the regression gate armed.
bench-uncertain:
    cargo build --release --offline -p nde-bench --bin exp_uncertain_scaling
    ./target/release/exp_uncertain_scaling --smoke --threads=1,4 --check=40
    grep -q '"end_to_end_speedup"' BENCH_uncertain.json
    grep -q '"runner"' BENCH_uncertain.json

# Thread-scaling gate (E13 pipeline exec + E14 Zorro fit): at the largest
# smoke size, max-threads must strictly beat one thread on multi-core
# hardware; on a single-core runner the gate degrades to a bounded
# pool-overhead check. Both binaries exit non-zero when the gate fails;
# the greps double-check the gate actually ran.
bench-scaling:
    cargo build --release --offline -p nde-bench --bin exp_pipeline_scaling --bin exp_uncertain_scaling
    ./target/release/exp_pipeline_scaling --smoke --threads=1,4 --check=40 | tee /tmp/nde_scaling_e13.txt
    grep -q 'scaling gate OK' /tmp/nde_scaling_e13.txt
    ./target/release/exp_uncertain_scaling --smoke --threads=1,4 --check=40 | tee /tmp/nde_scaling_e14.txt
    grep -q 'scaling gate OK' /tmp/nde_scaling_e14.txt
    cargo test -q --release --offline -p nde-tests --test pool_lifecycle

# Format and lint.
lint:
    cargo fmt --all
    cargo clippy --workspace --all-targets --offline -- -D warnings

# Docs must build warning-free (broken intra-doc links fail CI).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

# Run every figure/table experiment binary.
experiments:
    cargo build --release -p nde-bench --bins
    ./target/release/run_all_experiments

# Timing benches (in-tree harness, no criterion).
bench:
    cargo bench --workspace --offline
