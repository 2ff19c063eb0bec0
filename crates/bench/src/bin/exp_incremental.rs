//! E16 driver — incremental maintenance vs full re-execution.
//!
//! Times single-tuple fix propagation through a `PipelineSession` per
//! propagation path (cell patch, rerun) against fresh
//! provenance-tracked runs, and the prioritized-cleaning loop under
//! `MaintenanceMode::Incremental` vs `Rerun`. Bit-identity of tables,
//! lineage and score traces is asserted inside the experiment before any
//! timing. Results append to the `BENCH_incremental.json` trajectory;
//! `--check=<pct>` arms the same-runner regression gate.
//!
//! Flags: `--smoke`, `--rows=N`, `--fixes=N`, `--rounds=N`, `--reps=N`,
//! `--out=FILE`, `--check=PCT`.

use nde_bench::experiments::incremental;
use nde_bench::report::{append_trajectory, check_trajectory, trajectory_delta, TextTable};

struct Args {
    smoke: bool,
    rows: usize,
    fixes: usize,
    rounds: usize,
    reps: usize,
    out: String,
    check_pct: Option<f64>,
}

fn parse_args() -> Args {
    let mut smoke = false;
    let mut rows = None;
    let mut fixes = None;
    let mut rounds = None;
    // Best-of-5 by default: the smoke assert needs a stable floor.
    let mut reps = 5usize;
    let mut out = "BENCH_incremental.json".to_string();
    let mut check_pct = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
            continue;
        }
        let Some((flag, value)) = arg.split_once('=') else {
            panic!("unknown flag {arg} (expected --flag=value)");
        };
        match flag {
            "--rows" => rows = Some(value.parse().expect("--rows takes an integer")),
            "--fixes" => fixes = Some(value.parse().expect("--fixes takes an integer")),
            "--rounds" => rounds = Some(value.parse().expect("--rounds takes an integer")),
            "--reps" => reps = value.parse().expect("--reps takes an integer"),
            "--out" => out = value.to_string(),
            "--check" => check_pct = Some(value.parse().expect("--check takes a percentage")),
            other => panic!("unknown flag {other}"),
        }
    }
    Args {
        smoke,
        rows: rows.unwrap_or(if smoke { 60 } else { 200 }),
        fixes: fixes.unwrap_or(if smoke { 6 } else { 16 }),
        rounds: rounds.unwrap_or(if smoke { 6 } else { 10 }),
        reps: reps.max(1),
        out,
        check_pct,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    println!(
        "E16 — incremental maintenance: {} rows/table, {} fixes/path, {} cleaning rounds, best of {}",
        args.rows, args.fixes, args.rounds, args.reps
    );
    let r = incremental::run(args.rows, args.fixes, args.rounds, args.reps, 16)?;

    let mut t = TextTable::new(&["path", "fixes", "apply µs/fix", "rerun µs/fix", "speedup"]);
    for p in &r.fix_paths {
        t.row(vec![
            p.path.clone(),
            p.fixes.to_string(),
            format!("{:.1}", p.incremental_us),
            format!("{:.1}", p.rerun_us),
            format!("{:.2}x", p.speedup),
        ]);
    }
    println!(
        "\nper-fix propagation (session apply vs full re-execution, bit-identical):\n{}",
        t.render()
    );

    let c = &r.cleaning;
    let mut t = TextTable::new(&["rows", "rounds", "rerun ms", "incremental ms", "speedup"]);
    t.row(vec![
        c.rows.to_string(),
        c.rounds.to_string(),
        format!("{:.3}", c.rerun_ms),
        format!("{:.3}", c.incremental_ms),
        format!("{:.2}x", c.speedup),
    ]);
    println!(
        "cleaning loop (MaintenanceMode::Rerun vs Incremental, bit-identical traces):\n{}",
        t.render()
    );

    if args.smoke {
        // CI criterion: incremental maintenance must win where it claims
        // to — cell patches beat full re-execution per fix, and
        // incremental cleaning beats rerun cleaning end-to-end. The rerun
        // path is full re-execution plus bookkeeping, so it is only
        // required to stay in the same ballpark.
        for p in &r.fix_paths {
            match p.path.as_str() {
                "rerun" => assert!(p.speedup > 0.2, "rerun path pathologically slow: {p:?}"),
                _ => assert!(p.speedup > 1.0, "incremental lost on {p:?}"),
            }
        }
        assert!(
            c.speedup > 1.0,
            "incremental cleaning lost: {:.3} ms vs {:.3} ms rerun",
            c.incremental_ms,
            c.rerun_ms
        );
        println!(
            "smoke criterion OK: patch {:.1}x, cleaning {:.2}x, all bit-identical",
            r.fix_paths[0].speedup, c.speedup
        );
    }

    let records = append_trajectory(&args.out, &r)?;
    println!("\nappended record {} to {}", records.len(), args.out);
    if let Some(delta) = trajectory_delta(&records) {
        println!("{delta}");
    }
    if let Some(pct) = args.check_pct {
        match check_trajectory(&records, &["incremental_us", "incremental_ms"], pct) {
            Ok(Some(summary)) => println!("{summary}"),
            Ok(None) => println!("bench gate: no comparable prior record, nothing to check"),
            Err(report) => {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
    }
    Ok(())
}
