//! Regenerates Table VII (overhead breakdown at the maximum PMO count).
//! Pass --full for the paper's scale.

use pmo_experiments::cli::{from_env, parse, TABLES};
use pmo_experiments::table7::table7;
use pmo_simarch::SimConfig;

fn main() {
    let (cli, _) = from_env(|argv| parse(argv, TABLES));
    println!("(scale: {:?})\n{}", cli.scale, table7(cli.scale, &SimConfig::isca2020(), cli.opts));
}
