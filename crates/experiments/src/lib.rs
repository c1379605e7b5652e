//! # arest-experiments
//!
//! The experiment harness: one runner per table and figure of the
//! paper's evaluation (see `DESIGN.md` §4 for the full index), all
//! fed by a shared measurement [`pipeline`] that chains the substrate
//! crates end to end:
//!
//! ```text
//! arest-netgen  → synthetic Internet (60 ASes, 50 VPs, ground truth)
//! arest-mapping → Anaximander target lists from the BGP view
//! arest-tnt     → Paris/TNT campaign from every VP
//! arest-fingerprint → SNMPv3 + TTL vendor evidence
//! arest-mapping → bdrmapIT-style AS restriction (+ alias clusters)
//! arest-core    → AReST segments, areas, interworking, validation
//! ```
//!
//! Experiments are pure functions over the resulting [`pipeline::Dataset`],
//! each returning a [`Report`] that renders the same rows/series the
//! paper's table or figure shows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod delta_report;
pub mod exp_audit;
pub mod exp_background;
pub mod exp_characterization;
pub mod exp_dataset;
pub mod exp_detection;
pub mod exp_longitudinal;
pub mod exp_validation;
pub mod ledger_io;
pub mod pipeline;
pub mod provenance;
pub mod render;
pub mod run_report;

pub use pipeline::{AsResult, Dataset, PipelineConfig, SliceSpec};
pub use render::{Report, Table};

/// Every experiment id, in paper order (plus the future-work sweep
/// and the substrate audit).
pub const ALL_EXPERIMENTS: [&str; 21] = [
    "fig1",
    "table1",
    "table2_fig5",
    "fig6",
    "fig7",
    "table3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table5",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "headline",
    "ablation",
    "longitudinal",
    "audit",
];

/// Runs one experiment by id against a built dataset.
pub fn run_experiment(id: &str, dataset: &Dataset) -> Option<Report> {
    let report = match id {
        "fig1" => exp_background::fig01_publications(),
        "table1" => exp_background::table1_vendor_ranges(),
        "table2_fig5" => exp_background::fig05_survey(),
        "fig6" => exp_validation::fig06_flags_walkthrough(),
        "fig7" => exp_background::fig07_stack_evolution(),
        "table3" => exp_validation::table3_ground_truth(dataset),
        "fig8" => exp_detection::fig08_flags_per_as(dataset),
        "fig9" => exp_detection::fig09_stack_sizes(dataset),
        "fig10" => exp_characterization::fig10_deployment(dataset),
        "fig11" => exp_characterization::fig11_interworking_modes(dataset),
        "fig12" => exp_characterization::fig12_cloud_sizes(dataset),
        "table5" => exp_dataset::table5_dataset(dataset),
        "fig13" => exp_dataset::fig13_tunnel_types(dataset),
        "fig14" => exp_dataset::fig14_fingerprint_sources(dataset),
        "fig15" => exp_dataset::fig15_vendor_heatmap(dataset),
        "fig16" => exp_dataset::fig16_label_ranges(dataset),
        "fig17" => exp_dataset::fig17_vp_cdf(dataset),
        "headline" => exp_validation::headline_detection(dataset),
        "ablation" => exp_validation::ablation_flags(dataset),
        "longitudinal" => exp_longitudinal::longitudinal_adoption(dataset),
        "audit" => exp_audit::audit_substrate(dataset),
        _ => return None,
    };
    Some(report)
}
