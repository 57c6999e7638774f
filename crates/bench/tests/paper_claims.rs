//! The paper's claims, asserted on the rows of the reproduction tables at
//! the toy scale CI runs the binaries at.

use saber_bench::{fig9, table4, BenchArgs};

/// `--scale 2000 --iters 2`, the CI smoke scale.
const CI_SCALE: BenchArgs = BenchArgs {
    scale: Some(2000),
    iters: Some(2),
    part: None,
};

/// Fig. 9: each optimisation level G0 → G4 models a run no slower than the
/// level before it.
#[test]
fn fig9_modelled_totals_do_not_rise_from_g0_to_g4() {
    let table = fig9::ablation(&CI_SCALE);
    assert_eq!(table.rows.len(), 5);
    for (from, to) in table.rows.iter().zip(table.rows.iter().skip(1)) {
        let (before, after) = (from.simulated.total(), to.simulated.total());
        assert!(
            after <= before,
            "{} -> {}: modelled total {before} s -> {after} s\n{table}",
            from.level,
            to.level
        );
    }
}

/// Table 4: no memory level's throughput exceeds the peak the cost model
/// charges its traffic against.
#[test]
fn table4_utilisation_stays_within_the_modelled_peaks() {
    let table = table4::bandwidth(&CI_SCALE);
    assert_eq!(table.rows.len(), 3);
    for row in &table.rows {
        assert!(
            row.utilisation() <= 1.0,
            "{}: {:.1} GB/s of a {:.1} GB/s peak\n{table}",
            row.level,
            row.gb_s,
            row.peak_gb_s
        );
    }
}
