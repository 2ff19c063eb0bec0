//! One workload process of the workflow benchmark.
//!
//! ```text
//! wfbench <identify|debug|learn> --seed N --threads T --scratch DIR
//!         [--trace SPANS.json] [--stop-after-first-answer 1] [--gate 0]
//! ```
//!
//! The process sets its workload up from `--seed`, runs the workflow once
//! with the clock on, runs the workload's correctness gate untimed (unless
//! `--gate 0`: `run.py` gates each data set once per run and checks that
//! later processes reproduce the gated answers bit for bit), and
//! prints one JSON object on stdout. With `--trace` it records spans around
//! every call into a library layer, replays the calls that hide several
//! layers through those layers' public functions, and writes the spans to
//! the given file. `run.py` drives these processes and aggregates them.

mod debug;
mod identify;
mod learn;
mod trace;

use nde_data::json::Json;
use nde_data::pool::{PoolStats, WorkerPool};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Settings shared by every workload.
pub struct Ctx {
    /// Process start (taken first thing in `main`).
    pub t0: Instant,
    pub seed: u64,
    /// Thread count passed to every API that takes one.
    pub threads: usize,
    /// Explicit pool passed to every API that takes one.
    pub pool: Arc<WorkerPool>,
    /// Directory this process may write temporary files under.
    pub scratch: PathBuf,
    /// Stop once the first answer is back (set-up and first-answer samples).
    pub short: bool,
    /// Run the correctness gate after the workflow.
    pub gate: bool,
}

impl Ctx {
    /// Exact digest of a first answer, so processes of one seed can be
    /// compared: a 32-bit hash of the values' bits, exact in an `f64`.
    pub fn digest(values: impl IntoIterator<Item = u64>) -> f64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for v in values {
            v.hash(&mut h);
        }
        (h.finish() as u32) as f64
    }

    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Job/chunk/park counters summed over the explicit and the shared pool.
    pub fn pool_stats(&self) -> PoolStats {
        let (a, b) = (self.pool.stats(), WorkerPool::shared().stats());
        PoolStats {
            jobs: a.jobs + b.jobs,
            chunks: a.chunks + b.chunks,
            parks: a.parks + b.parks,
            wakes: a.wakes + b.wakes,
        }
    }
}

/// What one workload process measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub first_answer_s: f64,
    pub workflow_s: f64,
    /// `VmHWM` when the workflow ended (before the untimed gate).
    pub peak_rss_mb: f64,
    /// Latency of every closed-loop round, in order.
    pub rounds_ms: Vec<f64>,
    /// Per round, which propagation paths (or which level) it took.
    pub round_paths: Vec<String>,
    /// The answer after each round; the traced replay must reproduce it.
    pub answers: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Exact work counts and informational values.
    pub counts: BTreeMap<String, f64>,
    /// Gate mismatches and operation errors, one line each.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a gate check: one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn count(&mut self, name: &str, v: f64) {
        self.counts.insert(name.to_string(), v);
    }
}

/// Convert any library error into the benchmark's error string.
pub trait Ctxt<T> {
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Ctxt<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num(v: f64) -> Json {
    Json::Float(v)
}

fn arr(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| num(x)).collect())
}

fn obj<'a>(m: impl IntoIterator<Item = (&'a str, f64)>) -> Json {
    Json::Obj(
        m.into_iter()
            .map(|(k, v)| (k.to_string(), num(v)))
            .collect(),
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: wfbench <identify|debug|learn> --seed N --threads T --scratch DIR \\
         [--trace SPANS.json] [--stop-after-first-answer 1] [--gate 0]"
    );
    std::process::exit(2)
}

fn main() {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = args.first().cloned() else {
        usage()
    };
    let mut seed = None;
    let mut threads = None;
    let mut scratch = None;
    let mut trace_out = None;
    let mut short = false;
    let mut gate = true;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => seed = value.parse::<u64>().ok(),
            "--threads" => threads = value.parse::<usize>().ok().filter(|&t| t >= 1),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--trace" => trace_out = Some(PathBuf::from(value)),
            "--stop-after-first-answer" => short = value == "1",
            "--gate" => gate = value != "0",
            _ => usage(),
        }
    }
    let (Some(seed), Some(threads), Some(scratch)) = (seed, threads, scratch) else {
        usage()
    };
    if trace_out.is_some() {
        trace::enable(t0, seed);
    }
    let ctx = Ctx {
        t0,
        seed,
        threads,
        pool: Arc::new(WorkerPool::new(threads - 1)),
        scratch,
        short,
        gate,
    };
    let result = match workload.as_str() {
        "identify" => identify::run(&ctx),
        "debug" => debug::run(&ctx),
        "learn" => learn::run(&ctx),
        _ => usage(),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("wfbench {workload}: operation failed: {e}");
            std::process::exit(1);
        }
    };
    let recording = trace::finish();
    let (self_ms, total_ms) = match &recording {
        Some(rec) => (rec.self_ms(), rec.total_ms()),
        None => Default::default(),
    };
    if let (Some(path), Some(rec)) = (&trace_out, &recording) {
        if let Err(e) = std::fs::write(path, rec.spans_json()) {
            eprintln!("wfbench: cannot write spans to {}: {e}", path.display());
            std::process::exit(1);
        }
        for (k, v) in &rec.counts {
            out.counts.insert((*k).to_string(), *v);
        }
    }
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(workload.clone())),
        ("seed".into(), Json::UInt(seed)),
        ("threads".into(), Json::UInt(threads as u64)),
        (
            "pool_workers".into(),
            Json::UInt(WorkerPool::shared().workers() as u64),
        ),
        ("traced".into(), Json::Bool(trace_out.is_some())),
        ("setup_s".into(), num(out.setup_s)),
        ("first_answer_s".into(), num(out.first_answer_s)),
        ("workflow_s".into(), num(out.workflow_s)),
        ("peak_rss_mb".into(), num(out.peak_rss_mb)),
        ("rounds_ms".into(), arr(&out.rounds_ms)),
        (
            "round_paths".into(),
            Json::Arr(out.round_paths.iter().cloned().map(Json::Str).collect()),
        ),
        ("answers".into(), arr(&out.answers)),
        ("attempted".into(), Json::UInt(out.attempted)),
        ("failed".into(), Json::UInt(out.failed)),
        (
            "failures".into(),
            Json::Arr(out.failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "counts".into(),
            obj(out.counts.iter().map(|(k, v)| (k.as_str(), *v))),
        ),
        ("self_ms".into(), obj(self_ms.iter().map(|(k, v)| (*k, *v)))),
        (
            "total_ms".into(),
            obj(total_ms.iter().map(|(k, v)| (*k, *v))),
        ),
    ]);
    println!("{doc}");
    if out.failed > 0 {
        for f in &out.failures {
            eprintln!("wfbench {workload}: gate failed: {f}");
        }
        std::process::exit(1);
    }
}
