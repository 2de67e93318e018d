//! Regenerates Table VIII (area overheads). Takes no arguments.

use pmo_experiments::cli::{from_env, parse};
use pmo_experiments::table8::table8;
use pmo_simarch::SimConfig;

fn main() {
    from_env(|argv| parse(argv, &[]));
    println!("{}", table8(&SimConfig::isca2020()));
}
