//! Bounded small-world program enumeration: *every* canonical
//! multi-threaded protection program up to `N` total operations over `M`
//! threads and `K` domains.
//!
//! The op alphabet has 7 symbols per domain — attach, detach,
//! SETPERM(None/RO/RW), load, store — so a world has `7K` symbols and
//! `Σ_{n≤N} C(n+M-1, M-1) · (7K)^n` raw programs (ordered thread
//! sequences summing to at most `N` ops). Two programs that differ only
//! by renaming threads or domains explore isomorphic state spaces, so the
//! enumerator emits exactly one representative per orbit of the symmetry
//! group `S_M × S_K`: a program is *canonical* iff it equals the minimum,
//! over all domain relabelings, of its lexicographically sorted thread
//! tuple. The orbit count has a closed form by Burnside's lemma
//! ([`orbit_count`]), which the campaign asserts against the enumerated
//! count — a disagreement means the enumerator dropped or duplicated an
//! equivalence class.

use pmo_trace::{AccessKind, Perm, PmoId};

use crate::program::{Op, Program, Scenario};

/// Op-alphabet symbols per domain (attach, detach, 3 SETPERMs, load,
/// store).
pub const OPS_PER_DOMAIN: usize = 7;

/// Bounds of one enumerated world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorldBounds {
    /// Maximum total operations across all threads (`N`).
    pub ops: usize,
    /// Thread count (`M`).
    pub threads: usize,
    /// Domain count (`K`); domains are `P1..=PK`.
    pub domains: usize,
}

impl WorldBounds {
    /// Alphabet size: `7K`.
    #[must_use]
    pub fn alphabet(&self) -> usize {
        OPS_PER_DOMAIN * self.domains
    }

    /// The domains of this world, `P1..=PK`.
    #[must_use]
    pub fn domain_ids(&self) -> Vec<PmoId> {
        (1..=self.domains as u32).map(PmoId::new).collect()
    }
}

/// Decodes an alphabet symbol (`0..7K`) into an [`Op`].
#[must_use]
pub fn decode(code: u16) -> Op {
    let pmo = PmoId::new(u32::from(code) / OPS_PER_DOMAIN as u32 + 1);
    match code as usize % OPS_PER_DOMAIN {
        0 => Op::Attach { pmo },
        1 => Op::Detach { pmo },
        2 => Op::SetPerm { pmo, perm: Perm::None },
        3 => Op::SetPerm { pmo, perm: Perm::ReadOnly },
        4 => Op::SetPerm { pmo, perm: Perm::ReadWrite },
        5 => Op::Access { pmo, offset: 0, kind: AccessKind::Read },
        _ => Op::Access { pmo, offset: 0, kind: AccessKind::Write },
    }
}

/// A program in symbol form: one code sequence per thread.
pub type Codes = Vec<Vec<u16>>;

/// Relabels one symbol under a domain permutation (`perm[d-1]` is the
/// new 1-based ID of domain `d`).
fn relabel(code: u16, perm: &[usize]) -> u16 {
    let d = code as usize / OPS_PER_DOMAIN;
    let c = code as usize % OPS_PER_DOMAIN;
    ((perm[d] - 1) * OPS_PER_DOMAIN + c) as u16
}

/// All permutations of `1..=n` in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(remaining: &mut Vec<usize>, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..remaining.len() {
            let v = remaining.remove(i);
            prefix.push(v);
            rec(remaining, prefix, out);
            prefix.pop();
            remaining.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut (1..=n).collect(), &mut Vec::new(), &mut out);
    out
}

/// Canonicalization for one world: the domain relabelings are computed
/// once, and every relabeled candidate is built in one reused buffer.
struct Canonicalizer {
    /// Every domain relabeling, the identity first.
    relabelings: Vec<Vec<usize>>,
    candidate: Codes,
}

impl Canonicalizer {
    fn new(bounds: &WorldBounds) -> Self {
        Canonicalizer { relabelings: permutations(bounds.domains), candidate: Vec::new() }
    }

    /// `codes` under relabeling `sigma`, its threads lex-sorted (sorting is
    /// the lex-minimal thread arrangement, so minimizing these over every
    /// relabeling minimizes over the full `S_M × S_K` orbit).
    fn candidate(&mut self, codes: &Codes, sigma: usize) -> &Codes {
        let sigma = &self.relabelings[sigma];
        self.candidate.resize_with(codes.len(), Vec::new);
        for (slot, thread) in self.candidate.iter_mut().zip(codes) {
            slot.clear();
            slot.extend(thread.iter().map(|&c| relabel(c, sigma)));
        }
        self.candidate.sort_unstable();
        &self.candidate
    }

    fn canonicalize(&mut self, codes: &Codes) -> Codes {
        let mut best: Option<Codes> = None;
        for sigma in 0..self.relabelings.len() {
            let candidate = self.candidate(codes, sigma);
            if best.as_ref().is_none_or(|b| candidate < b) {
                best = Some(candidate.clone());
            }
        }
        best.unwrap_or_default()
    }

    /// Whether no candidate sorts below `codes`: the identity's candidate
    /// is `codes` sorted, so `codes` is then the orbit's minimum.
    fn is_canonical(&mut self, codes: &Codes) -> bool {
        (0..self.relabelings.len()).all(|sigma| self.candidate(codes, sigma) >= codes)
    }
}

/// The canonical representative of `codes`'s symmetry orbit: the minimum,
/// over every domain relabeling, of the lex-sorted thread tuple (sorting
/// is the lex-minimal thread arrangement, so this minimizes over the full
/// `S_M × S_K` orbit).
#[must_use]
pub fn canonicalize(codes: &Codes, bounds: &WorldBounds) -> Codes {
    Canonicalizer::new(bounds).canonicalize(codes)
}

/// Whether `codes` is its own orbit representative.
#[must_use]
pub fn is_canonical(codes: &Codes, bounds: &WorldBounds) -> bool {
    Canonicalizer::new(bounds).is_canonical(codes)
}

/// The raw (pre-symmetry-reduction) program count:
/// `Σ_{n=0}^{N} C(n+M-1, M-1) · (7K)^n`.
#[must_use]
pub fn raw_count(bounds: &WorldBounds) -> u128 {
    let a = bounds.alphabet() as u128;
    (0..=bounds.ops)
        .map(|n| binomial(n + bounds.threads - 1, bounds.threads - 1) * a.pow(n as u32))
        .sum()
}

fn binomial(n: usize, k: usize) -> u128 {
    let k = k.min(n - k);
    let mut out = 1u128;
    for i in 0..k {
        out = out * (n - i) as u128 / (i + 1) as u128;
    }
    out
}

/// The symmetry-reduced program count by Burnside's lemma:
/// `|orbits| = (1 / M!K!) Σ_{(π,σ)} |Fix(π,σ)|`, where a program is fixed
/// by `(π, σ)` iff along every length-`ℓ` cycle of π the thread sequences
/// are σ-shifted copies of each other and every symbol of the generating
/// sequence is fixed by `σ^ℓ` — so each cycle contributes
/// `Σ_m f(σ^ℓ)^m x^{ℓm}` ops, with `f(τ) = 7 · |fixed domains of τ|`.
///
/// # Panics
///
/// Panics if the fixed-point total is not divisible by `|S_M × S_K|`
/// (impossible for a group action; a failure means an arithmetic bug).
#[must_use]
pub fn orbit_count(bounds: &WorldBounds) -> u128 {
    let (m, k, n) = (bounds.threads, bounds.domains, bounds.ops);
    let mut total = 0u128;
    for pi in permutations(m) {
        let cycles = cycle_lengths(&pi);
        for sigma in permutations(k) {
            // Polynomial in x (ops used), truncated at degree N.
            let mut poly = vec![0u128; n + 1];
            poly[0] = 1;
            for &len in &cycles {
                let fixed = (OPS_PER_DOMAIN * fixed_domains(&sigma, len)) as u128;
                let mut next = vec![0u128; n + 1];
                for (j, &coeff) in poly.iter().enumerate() {
                    if coeff == 0 {
                        continue;
                    }
                    let mut weight = 1u128;
                    let mut used = 0;
                    while j + used <= n {
                        next[j + used] += coeff * weight;
                        used += len;
                        weight *= fixed;
                    }
                }
                poly = next;
            }
            total += poly.iter().sum::<u128>();
        }
    }
    let order = (factorial(m) * factorial(k)) as u128;
    assert_eq!(total % order, 0, "Burnside sum must divide the group order");
    total / order
}

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product::<u64>().max(1)
}

/// Cycle lengths of a permutation of `1..=n` (one entry per cycle).
fn cycle_lengths(perm: &[usize]) -> Vec<usize> {
    let mut seen = vec![false; perm.len()];
    let mut out = Vec::new();
    for start in 0..perm.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            len += 1;
            i = perm[i] - 1;
        }
        out.push(len);
    }
    out
}

/// Number of domains fixed by `sigma` iterated `power` times.
fn fixed_domains(sigma: &[usize], power: usize) -> usize {
    (0..sigma.len())
        .filter(|&d| {
            let mut i = d;
            for _ in 0..power {
                i = sigma[i] - 1;
            }
            i == d
        })
        .count()
}

/// Enumerates every canonical program of the world, in deterministic
/// order: total op count ascending, then thread-length composition in lex
/// order, then symbol assignment in mixed-radix order.
#[must_use]
pub fn enumerate_canonical(bounds: &WorldBounds) -> Vec<Codes> {
    let alphabet = bounds.alphabet() as u64;
    let mut canon = Canonicalizer::new(bounds);
    let mut codes: Codes = vec![Vec::new(); bounds.threads];
    let mut out = Vec::new();
    for n in 0..=bounds.ops {
        for comp in compositions(n, bounds.threads) {
            let mut digits = vec![0u16; n];
            loop {
                // Split the digit string into per-thread sequences.
                let mut at = 0;
                for (thread, &len) in codes.iter_mut().zip(&comp) {
                    thread.clear();
                    thread.extend_from_slice(&digits[at..at + len]);
                    at += len;
                }
                if canon.is_canonical(&codes) {
                    out.push(codes.clone());
                }
                // Mixed-radix increment; most-significant digit first.
                let mut i = n;
                loop {
                    if i == 0 {
                        break;
                    }
                    i -= 1;
                    digits[i] += 1;
                    if u64::from(digits[i]) < alphabet {
                        break;
                    }
                    digits[i] = 0;
                }
                if digits.iter().all(|&d| d == 0) {
                    break;
                }
            }
        }
    }
    out
}

/// Ordered compositions of `n` into `m` non-negative parts, lex order.
fn compositions(n: usize, m: usize) -> Vec<Vec<usize>> {
    fn rec(n: usize, m: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if m == 1 {
            prefix.push(n);
            out.push(prefix.clone());
            prefix.pop();
            return;
        }
        for first in 0..=n {
            prefix.push(first);
            rec(n - first, m - 1, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(n, m, &mut Vec::new(), &mut out);
    out
}

/// Materializes one enumerated program as a [`Scenario`] named
/// `world@index` (the refine campaign's replay key). All `K` domains are
/// attached before the program runs, so detach/re-attach sequences are
/// reachable within the op budget.
#[must_use]
pub fn to_scenario(
    world: &str,
    index: usize,
    codes: &Codes,
    bounds: &WorldBounds,
    config: pmo_simarch::SimConfig,
) -> Scenario {
    let usable_keys = config.pkeys.saturating_sub(1) as usize;
    Scenario {
        name: format!("{world}@{index}"),
        about: "enumerated small-world program",
        setup: bounds.domain_ids(),
        program: Program {
            threads: codes.iter().map(|t| t.iter().map(|&c| decode(c)).collect()).collect(),
        },
        config,
        key_pressure: bounds.domains > usable_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_covers_the_alphabet() {
        assert_eq!(decode(0), Op::Attach { pmo: PmoId::new(1) });
        assert_eq!(
            decode(6),
            Op::Access { pmo: PmoId::new(1), offset: 0, kind: AccessKind::Write }
        );
        assert_eq!(decode(7), Op::Attach { pmo: PmoId::new(2) });
        assert_eq!(decode(10), Op::SetPerm { pmo: PmoId::new(2), perm: Perm::ReadOnly });
    }

    #[test]
    fn raw_count_matches_hand_computation() {
        // N=4, M=2, K=2: Σ C(n+1,1)·14^n = 1+28+588+10976+192080.
        let w = WorldBounds { ops: 4, threads: 2, domains: 2 };
        assert_eq!(raw_count(&w), 203_673);
        let tiny = WorldBounds { ops: 1, threads: 1, domains: 1 };
        assert_eq!(raw_count(&tiny), 8, "empty program + 7 one-op programs");
    }

    #[test]
    fn enumerated_count_equals_burnside_orbit_count() {
        for (n, m, k) in [(2, 2, 2), (3, 2, 1), (2, 3, 2), (3, 1, 2)] {
            let w = WorldBounds { ops: n, threads: m, domains: k };
            let programs = enumerate_canonical(&w);
            assert_eq!(
                programs.len() as u128,
                orbit_count(&w),
                "N={n} M={m} K={k}: enumerated vs Burnside"
            );
        }
    }

    #[test]
    fn single_thread_single_domain_has_no_symmetry() {
        let w = WorldBounds { ops: 2, threads: 1, domains: 1 };
        // No nontrivial symmetry: canonical count == raw count.
        assert_eq!(enumerate_canonical(&w).len() as u128, raw_count(&w));
    }

    #[test]
    fn every_emitted_program_is_canonical_and_distinct() {
        let w = WorldBounds { ops: 3, threads: 2, domains: 2 };
        let programs = enumerate_canonical(&w);
        let mut seen = std::collections::BTreeSet::new();
        for p in &programs {
            assert!(is_canonical(p, &w), "{p:?} not canonical");
            assert!(seen.insert(p.clone()), "{p:?} duplicated");
        }
        // No two emitted programs are permutation-equivalent: canonical
        // forms are orbit representatives, and all are distinct.
        for p in &programs {
            assert!(seen.contains(&canonicalize(p, &w)));
        }
    }

    #[test]
    fn swapped_threads_and_domains_canonicalize_back() {
        let w = WorldBounds { ops: 4, threads: 2, domains: 2 };
        // Thread 0 acts on P2, thread 1 on P1 — the mirror image of a
        // canonical program.
        let mirrored: Codes = vec![vec![7, 11], vec![0, 4]];
        let canon = canonicalize(&mirrored, &w);
        assert_ne!(canon, mirrored);
        assert!(is_canonical(&canon, &w));
        assert_eq!(canon, vec![vec![0, 4], vec![7, 11]]);
    }

    #[test]
    fn scenario_conversion_names_and_attaches_every_domain() {
        let w = WorldBounds { ops: 2, threads: 2, domains: 2 };
        let codes: Codes = vec![vec![4], vec![5]];
        let s = to_scenario("w1", 17, &codes, &w, crate::program::model_config(8, 4, 4));
        assert_eq!(s.name, "w1@17");
        assert_eq!(s.setup, vec![PmoId::new(1), PmoId::new(2)]);
        assert_eq!(s.program.total_ops(), 2);
        assert!(!s.key_pressure);
        let pressured = to_scenario("w2", 0, &codes, &w, crate::program::model_config(2, 2, 2));
        assert!(pressured.key_pressure, "2 domains over 1 usable key");
    }
}
