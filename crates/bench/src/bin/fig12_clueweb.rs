//! Fig. 12: SaberLDA on the ClueWeb subset on two devices (see
//! [`saber_bench::fig12`]).

use saber_bench::{fig12, BenchArgs};

fn main() {
    print!("{}", fig12::clueweb(&BenchArgs::from_env()));
}
