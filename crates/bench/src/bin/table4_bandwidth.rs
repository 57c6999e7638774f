//! Table 4: memory bandwidth utilisation of the sampling kernel (see
//! [`saber_bench::table4`]).

use saber_bench::{table4, BenchArgs};

fn main() {
    print!("{}", table4::bandwidth(&BenchArgs::from_env()));
}
