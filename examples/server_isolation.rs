//! The paper's motivating scenario (§I, §IV.B): a server keeps each
//! client's private data in its own PMO, one domain per client, one
//! handler thread per connection. A Heartbleed-style compromised handler
//! tries to read other clients' data.
//!
//! With stock MPK, only 15 clients get a protection key — the 16th
//! client's data is silently unprotected. With the paper's domain
//! virtualization, every client keeps its own enforced domain.
//!
//! Run with: `cargo run --example server_isolation`

use pmo_repro::protect::scheme::{ProtectionScheme, SchemeKind};
use pmo_repro::simarch::SimConfig;
use pmo_repro::trace::{AccessKind, Perm, PmoId};

const CLIENTS: u32 = 64;
const GB1: u64 = 1 << 30;

/// Attaches one 8MB PMO per client and grants each handler thread
/// read-write on its *own* client's domain only.
fn provision(scheme: &mut dyn ProtectionScheme) {
    for client in 1..=CLIENTS {
        scheme
            .attach(PmoId::new(client), u64::from(client) * GB1, 8 << 20, true)
            .expect("each client gets its own region");
    }
    for client in 1..=CLIENTS {
        scheme.context_switch(pmo_repro::trace::ThreadId::new(client));
        scheme.set_perm(PmoId::new(client), Perm::ReadWrite);
    }
}

/// Thread `attacker` sweeps every client's PMO; returns how many leak.
fn heartbleed_sweep(scheme: &mut dyn ProtectionScheme, attacker: u32) -> Vec<u32> {
    scheme.context_switch(pmo_repro::trace::ThreadId::new(attacker));
    let mut leaked = Vec::new();
    for client in 1..=CLIENTS {
        let va = u64::from(client) * GB1 + 0x40; // a "private key" field
        if scheme.access(va, AccessKind::Read).allowed() {
            leaked.push(client);
        }
    }
    leaked
}

fn main() {
    let config = SimConfig::isca2020();

    for kind in [SchemeKind::DefaultMpk, SchemeKind::MpkVirt, SchemeKind::DomainVirt] {
        let mut scheme = kind.build_any(&config);
        provision(&mut scheme);

        // Handler thread 7 is compromised and sweeps all client PMOs.
        let leaked = heartbleed_sweep(&mut scheme, 7);
        println!("[{kind}] compromised handler 7 reads {CLIENTS} client PMOs:");
        println!("    leaked {} client(s): {:?}", leaked.len(), leaked);
        match kind {
            SchemeKind::DefaultMpk => {
                // 15 usable keys: clients 16.. fell back to domainless and
                // leak to any thread; client 7's own data is fair game too.
                assert!(
                    leaked.len() as u32 == CLIENTS - 15 + 1,
                    "stock MPK leaks every client beyond the 15 keyed ones"
                );
                println!("    -> stock MPK ran out of keys: every client past 15 is exposed\n");
            }
            _ => {
                assert_eq!(leaked, vec![7], "only the handler's own client");
                println!("    -> only its own client: intra-process isolation holds\n");
            }
        }
    }

    println!("domain virtualization scales per-client isolation beyond 16 domains");
}
