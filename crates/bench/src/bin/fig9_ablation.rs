//! Fig. 9: impact of the optimisations G0 → G4 (see [`saber_bench::fig9`]).

use saber_bench::{fig9, BenchArgs};

fn main() {
    print!("{}", fig9::ablation(&BenchArgs::from_env()));
}
