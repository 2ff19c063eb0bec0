//! Run every experiment binary (E1–E12, E17) back to back; used to
//! regenerate EXPERIMENTS.md numbers in one go. Prefer `--release`.
use std::process::Command;

/// Every `src/bin/exp_*.rs` binary, in run order.
const EXPERIMENTS: [&str; 13] = [
    "exp_fig1_metrics",
    "exp_fig2_identify",
    "exp_fig3_pipeline",
    "exp_fig4_zorro",
    "exp_importance_compare",
    "exp_shapley_scaling",
    "exp_cleaning_challenge",
    "exp_certain_predictions",
    "exp_multiplicity",
    "exp_certain_models",
    "exp_zorro_vs_imputation",
    "exp_provenance_overhead",
    "exp_ablations",
];

fn main() {
    let me = std::env::current_exe().expect("current exe resolvable");
    let dir = me.parent().expect("exe has a parent dir");
    for exp in EXPERIMENTS {
        println!("\n=== {exp} ===============================================\n");
        let status = Command::new(dir.join(exp))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        assert!(status.success(), "{exp} failed");
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn runs_every_experiment_binary_exactly_once() {
        let bin = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut on_disk: Vec<String> = std::fs::read_dir(bin)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                let stem = name.strip_suffix(".rs")?;
                stem.starts_with("exp_").then(|| stem.to_string())
            })
            .collect();
        on_disk.sort();
        let mut listed: Vec<String> = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
        listed.sort();
        assert_eq!(listed, on_disk);
    }
}
