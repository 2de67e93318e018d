//! Regenerates Figure 7 (average overheads and libmpk speedup factors).
//! Pass --full for the paper's scale.

use std::process::ExitCode;

use pmo_experiments::cli::{from_env, parse, write_csv, FIGURES};
use pmo_experiments::{fig6::fig6, fig7::fig7};
use pmo_simarch::SimConfig;

fn main() -> ExitCode {
    let (cli, _) = from_env(|argv| parse(argv, FIGURES));
    let f6 = fig6(cli.scale, &SimConfig::isca2020(), cli.opts);
    let f7 = fig7(&f6);
    println!("(scale: {:?})\n{f7}", cli.scale);
    write_csv(&cli, &[("fig6", f6.to_csv()), ("fig7", f7.to_csv())])
}
