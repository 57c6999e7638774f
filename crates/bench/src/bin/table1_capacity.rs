//! Table 1: maximum problem sizes of GPU-based LDA systems (see
//! [`saber_bench::table1`]).

use saber_bench::table1;

fn main() {
    print!("{}", table1::capacity());
}
