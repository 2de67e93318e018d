//! Regenerates Table VI (multi-PMO lowerbound overheads and switch
//! frequencies). Pass --full for the paper's scale.

use pmo_experiments::cli::{from_env, parse, TABLES};
use pmo_experiments::table6::table6;
use pmo_simarch::SimConfig;

fn main() {
    let (cli, _) = from_env(|argv| parse(argv, TABLES));
    println!("(scale: {:?})\n{}", cli.scale, table6(cli.scale, &SimConfig::isca2020(), cli.opts));
}
