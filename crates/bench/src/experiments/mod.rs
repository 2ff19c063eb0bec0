//! One module per experiment in the DESIGN.md index (E1–E12 and E17).

pub mod ablations;
pub mod certain_models;
pub mod certain_predictions;
pub mod cleaning;
pub mod fig1_metrics;
pub mod fig2_identify;
pub mod fig3_pipeline;
pub mod fig4_zorro;
pub mod importance_compare;
pub mod multiplicity;
pub mod provenance_overhead;
pub mod shapley_scaling;
pub mod zorro_vs_imputation;
