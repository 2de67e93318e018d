//! Runs the design-choice ablations (buffer capacity, thread scaling,
//! context-switch quantum, MLP sensitivity). Pass --full for the paper's
//! scale on the workload-driven sweeps.

use pmo_experiments::ablations;
use pmo_experiments::cli::{from_env, parse, ABLATIONS};
use pmo_simarch::SimConfig;

fn main() {
    let scale = from_env(|argv| parse(argv, ABLATIONS)).0.scale;
    let sim = SimConfig::isca2020();
    println!("(scale: {scale:?})\n");
    println!("{}\n", ablations::buffer_capacity(scale, &sim));
    println!("{}\n", ablations::thread_scaling(scale, &sim));
    println!("{}\n", ablations::context_switch_quantum(&sim));
    println!("{}\n", ablations::mlp_sensitivity(scale, &sim));
    println!("{}\n", ablations::switch_granularity(&sim));
    let (libmpk_size, mpkvirt_size) = ablations::domain_size(&sim);
    println!("{libmpk_size}\n");
    println!("{mpkvirt_size}");
}
