//! Runs every experiment in sequence (the full evaluation). Pass --full
//! for the paper's scale.

use pmo_experiments::cli::{from_env, parse, Cli, TABLES};
use pmo_experiments::{fig6, fig7, table5, table6, table7, table8};
use pmo_simarch::SimConfig;

fn main() {
    let (Cli { scale, opts, .. }, _) = from_env(|argv| parse(argv, TABLES));
    let sim = SimConfig::isca2020();
    println!("=== Reproduction run (scale: {scale:?}) ===\n");
    println!("Table II: simulation parameters\n\n{sim}\n");
    println!("{}\n", table5::table5(scale, &sim, opts));
    println!("{}\n", table6::table6(scale, &sim, opts));
    let f6 = fig6::fig6(scale, &sim, opts);
    println!("{f6}");
    println!("{}\n", fig7::fig7(&f6));
    println!("{}\n", table7::table7(scale, &sim, opts));
    println!("{}", table8::table8(&sim));
}
