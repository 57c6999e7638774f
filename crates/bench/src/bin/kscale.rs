//! The K-scaling table: throughput from K = 1 000 to 10 000 (see
//! [`saber_bench::kscale`]).

use saber_bench::{kscale, BenchArgs};

fn main() {
    print!("{}", kscale::scaling(&BenchArgs::from_env()));
}
