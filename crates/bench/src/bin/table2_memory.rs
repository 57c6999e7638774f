//! Table 2: memory consumption of the PubMed data structures (see
//! [`saber_bench::table2`]).

use saber_bench::table2;

fn main() {
    print!("{}", table2::memory());
}
