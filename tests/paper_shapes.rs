//! Integration tests asserting the paper's headline result shapes at
//! reduced scale (`repro --experiments` runs them at paper scale).

use perf_bench::experiments;

fn value(out: &experiments::ExperimentOutput, key: &str) -> f64 {
    out.values
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no measured value `{key}`"))
        .1
}

#[test]
fn fig1_all_nl_claims_hold() {
    let out = experiments::e1_nl_interfaces().expect("e1 runs");
    for (k, v) in &out.values {
        assert_eq!(*v, 1.0, "{k}");
    }
}

#[test]
fn fig2_jpeg_program_interface_accuracy_band() {
    let out = experiments::e2_jpeg_program(100).expect("e2 runs");
    // Paper: 2.1% (10.3%). Shape: single-digit average, max below 30%.
    assert!(value(&out, "e2_lat_avg") < 0.08);
    assert!(value(&out, "e2_lat_max") < 0.30);
    assert!(value(&out, "e2_tput_avg") < 0.08);
}

#[test]
fn fig3_protoacc_bounds_always_hold() {
    let out = experiments::e3_protoacc_program(10).expect("e3 runs");
    assert_eq!(value(&out, "e3_bounds_coverage"), 1.0);
    // Paper: 5.9% (13.3%) throughput error.
    assert!(value(&out, "e3_tput_avg") < 0.12);
}

#[test]
fn table1_petri_bands() {
    let out = experiments::e4_table1(12, 40).expect("e4 runs");
    // JPEG: sub-1% average (paper 0.09%).
    assert!(value(&out, "e4_jpeg_lat_avg") < 0.01);
    // VTA: low-single-digit average (paper 1.49%).
    assert!(value(&out, "e4_vta_lat_avg") < 0.05);
    // Both interfaces are a small fraction of the implementation.
    assert!(value(&out, "e4_jpeg_complexity") < 0.10);
    assert!(value(&out, "e4_vta_complexity") < 0.12);
}

#[test]
fn e5_petri_always_faster_than_cycle_sim() {
    let out = experiments::e5_profiling_speedup(8).expect("e5 runs");
    assert!(value(&out, "e5_min_speedup") > 1.0);
    assert!(value(&out, "e5_max_speedup") >= value(&out, "e5_mean_speedup"));
}

#[test]
fn e6_crossover_claims() {
    let out = experiments::e6_crossover().expect("e6 runs");
    assert_eq!(value(&out, "e6_small_pa_loses_to_cpu"), 1.0);
    assert!(value(&out, "e6_peak_over_eff") > 1.5);
}

#[test]
fn e10_petri_tuning_matches_ground_truth() {
    let out = experiments::e10_autotune_quality().expect("e10 runs");
    assert!(value(&out, "e10_spearman") > 0.95);
    assert!(value(&out, "e10_regret") < 0.05);
}

#[test]
fn e11_composition_reveals_interconnect_bound_regime() {
    let out = experiments::e11_noc_composition().expect("e11 runs");
    assert!(value(&out, "e11_small_optimism") < 1.1);
    assert!(value(&out, "e11_large_optimism") > 2.0);
}
