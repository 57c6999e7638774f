//! Fig. 11: convergence over time, SaberLDA vs. the dense GPU baseline and
//! the three CPU baselines (see [`saber_bench::fig11`]).

use saber_bench::{fig11, BenchArgs};

fn main() {
    print!("{}", fig11::convergence(&BenchArgs::from_env()));
}
