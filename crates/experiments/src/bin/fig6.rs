//! Regenerates Figure 6 (overhead vs number of PMOs, per benchmark).
//! Pass --full for the paper's scale.

use std::process::ExitCode;

use pmo_experiments::cli::{from_env, parse, write_csv, FIGURES};
use pmo_experiments::fig6::fig6;
use pmo_simarch::SimConfig;

fn main() -> ExitCode {
    let (cli, _) = from_env(|argv| parse(argv, FIGURES));
    let f6 = fig6(cli.scale, &SimConfig::isca2020(), cli.opts);
    println!("(scale: {:?})\n{f6}", cli.scale);
    write_csv(&cli, &[("fig6", f6.to_csv())])
}
