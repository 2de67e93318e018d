//! Prints Table II: the simulation parameters. Takes no arguments.

use pmo_experiments::cli::{from_env, parse};
use pmo_simarch::SimConfig;

fn main() {
    from_env(|argv| parse(argv, &[]));
    println!("Table II: simulation parameters\n");
    println!("{}", SimConfig::isca2020());
}
