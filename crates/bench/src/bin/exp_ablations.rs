//! E17 — ablations: text-embedding width, KNN-Shapley k, TMC truncation.
use nde_bench::experiments::ablations;
use nde_bench::report::{f, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let r = ablations::run(400, 15)?;
    println!("E17 — ablations\n");
    println!("Text-embedding width (accuracy / detection):");
    let mut t = TextTable::new(&["dims", "accuracy", "detection precision"]);
    for p in &r.text_dims {
        t.row(vec![
            p.dims.to_string(),
            f(p.accuracy),
            f(p.detection_precision),
        ]);
    }
    println!("{}", t.render());
    println!("KNN-Shapley neighborhood size:");
    let mut t = TextTable::new(&["k", "detection precision"]);
    for p in &r.shapley_k {
        t.row(vec![p.k.to_string(), f(p.detection_precision)]);
    }
    println!("{}", t.render());
    println!("TMC truncation tolerance (speed vs fidelity):");
    let mut t = TextTable::new(&["tolerance", "seconds", "rank corr vs exact"]);
    for p in &r.truncation {
        t.row(vec![
            format!("{}", p.tolerance),
            format!("{:.4}", p.secs),
            f(p.rank_corr_vs_exact),
        ]);
    }
    println!("{}", t.render());
    println!("{}", nde_bench::report::to_json(&r));
    Ok(())
}
