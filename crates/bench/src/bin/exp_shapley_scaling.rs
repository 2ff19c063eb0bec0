//! E6 — runtime scaling of Shapley computation + Monte-Carlo convergence.
use nde_bench::experiments::shapley_scaling;
use nde_bench::report::{f, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let r = shapley_scaling::run(&[50, 100, 200, 400], 50, 6)?;
    println!(
        "E6 — Shapley runtime scaling ({} TMC permutations)\n",
        r.permutations
    );
    let mut t = TextTable::new(&["n", "knn-shapley s", "loo s", "tmc s", "tmc~exact corr"]);
    for p in &r.points {
        t.row(vec![
            p.n.to_string(),
            format!("{:.5}", p.knn_shapley_secs),
            format!("{:.5}", p.loo_secs),
            format!("{:.5}", p.tmc_secs),
            f(p.tmc_vs_exact_rank_corr),
        ]);
    }
    println!("{}", t.render());

    let curve = shapley_scaling::convergence(100, &[5, 10, 25, 50, 100, 200], 7)?;
    println!("Monte-Carlo convergence at n=100 (rank correlation with exact):");
    let mut t = TextTable::new(&["permutations", "rank corr"]);
    for (b, c) in &curve {
        t.row(vec![b.to_string(), f(*c)]);
    }
    println!("{}", t.render());
    println!("{}", nde_bench::report::to_json(&r));
    Ok(())
}
