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
//!
//! [`enumerate_canonical`] writes the canonical programs into one flat
//! buffer ([`Programs`]) that campaigns borrow programs from, and tests
//! each raw program where it lies in the enumerator's digit string: the
//! identity relabeling is a sortedness check on the thread slices, and
//! every other relabeling is compared through a stack buffer. The
//! candidate-building `Canonicalizer` stays behind [`is_canonical`] and
//! [`canonicalize`] as the reference the enumerator is tested against.

use std::cmp::Ordering;
use std::fmt::Write as _;

use pmo_trace::{AccessKind, Perm, PmoId};

use crate::program::{Op, Program, Scenario};

/// Op-alphabet symbols per domain (attach, detach, 3 SETPERMs, load,
/// store).
pub const OPS_PER_DOMAIN: usize = 7;

/// Bounds of one enumerated world.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// The largest total op count and thread count [`enumerate_canonical`]
/// accepts (its canonical test works in stack buffers of these sizes).
const MAX_ENUMERATED: usize = 16;

/// The copy-free canonical test of one world: a program in the
/// enumerator's digit string is canonical iff its thread slices are
/// sorted (the identity relabeling) and no other relabeling's sorted
/// thread tuple sorts below it.
struct CanonicalTest {
    /// Per non-identity domain relabeling, every alphabet symbol's image.
    images: Vec<Vec<u16>>,
}

impl CanonicalTest {
    fn new(bounds: &WorldBounds) -> Self {
        let symbols = 0..bounds.alphabet() as u16;
        let images = permutations(bounds.domains)
            .iter()
            .skip(1)
            .map(|sigma| symbols.clone().map(|c| relabel(c, sigma)).collect())
            .collect();
        CanonicalTest { images }
    }

    /// Whether the program whose threads are `codes` split at `ends`
    /// (each thread's end offset) is its orbit's representative.
    fn is_canonical(&self, ends: &[usize], codes: &[u16]) -> bool {
        if (1..ends.len()).any(|t| thread(codes, ends, t - 1) > thread(codes, ends, t)) {
            return false;
        }
        let mut relabeled = [0u16; MAX_ENUMERATED];
        let mut order = [0usize; MAX_ENUMERATED];
        let relabeled = &mut relabeled[..codes.len()];
        let order = &mut order[..ends.len()];
        for image in &self.images {
            for (slot, &c) in relabeled.iter_mut().zip(codes) {
                *slot = image[usize::from(c)];
            }
            for (t, slot) in order.iter_mut().enumerate() {
                *slot = t;
            }
            order.sort_unstable_by(|&a, &b| {
                thread(relabeled, ends, a).cmp(thread(relabeled, ends, b))
            });
            for (t, &from) in order.iter().enumerate() {
                match thread(relabeled, ends, from).cmp(thread(codes, ends, t)) {
                    Ordering::Less => return false,
                    Ordering::Greater => break,
                    Ordering::Equal => {}
                }
            }
        }
        true
    }
}

/// Thread `t` of a program whose threads, laid out one after another in
/// `codes`, end at the offsets `ends`.
fn thread<'a>(codes: &'a [u16], ends: &[usize], t: usize) -> &'a [u16] {
    let start = if t == 0 { 0 } else { ends[t - 1] };
    &codes[start..ends[t]]
}

/// Every canonical program of one world in enumeration order, held in one
/// flat buffer: campaigns borrow each program from it as a
/// [`ProgramRef`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Programs {
    threads: usize,
    /// Per program, the offset of its first op in `codes`, plus one final
    /// entry that ends the last program.
    starts: Vec<u32>,
    /// Per program, each thread's op count.
    lens: Vec<u8>,
    /// Every program's ops, thread after thread.
    codes: Vec<u16>,
}

impl Programs {
    fn new(threads: usize) -> Self {
        Programs { threads, starts: vec![0], lens: Vec::new(), codes: Vec::new() }
    }

    /// Appends the program whose threads have `lens` ops, laid out one
    /// after another in `codes`.
    fn push(&mut self, lens: &[usize], codes: &[u16]) {
        self.lens.extend(lens.iter().map(|&len| len as u8));
        self.codes.extend_from_slice(codes);
        self.starts.push(u32::try_from(self.codes.len()).expect("fewer than 2^32 enumerated ops"));
    }

    /// The number of programs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there are none (never, for a world: the empty program is
    /// always canonical).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Program `index`, if there is one.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<ProgramRef<'_>> {
        let (&start, &end) = (self.starts.get(index)?, self.starts.get(index + 1)?);
        Some(ProgramRef {
            lens: &self.lens[index * self.threads..(index + 1) * self.threads],
            codes: &self.codes[start as usize..end as usize],
        })
    }

    /// Every program, in enumeration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ProgramRef<'_>> {
        (0..self.len()).map(|index| self.get(index).expect("index below len"))
    }
}

/// One program borrowed from [`Programs`]; iterating it yields each
/// thread's symbols, thread 0 first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgramRef<'a> {
    lens: &'a [u8],
    codes: &'a [u16],
}

impl ProgramRef<'_> {
    /// The program as one owned symbol sequence per thread.
    #[must_use]
    pub fn to_codes(self) -> Codes {
        self.into_iter().map(<[u16]>::to_vec).collect()
    }
}

impl<'a> IntoIterator for ProgramRef<'a> {
    type Item = &'a [u16];
    type IntoIter = ProgramThreads<'a>;

    fn into_iter(self) -> ProgramThreads<'a> {
        ProgramThreads { lens: self.lens.iter(), codes: self.codes }
    }
}

/// The thread slices of a [`ProgramRef`].
#[derive(Clone, Debug)]
pub struct ProgramThreads<'a> {
    lens: std::slice::Iter<'a, u8>,
    codes: &'a [u16],
}

impl<'a> Iterator for ProgramThreads<'a> {
    type Item = &'a [u16];

    fn next(&mut self) -> Option<&'a [u16]> {
        let (thread, rest) = self.codes.split_at(usize::from(*self.lens.next()?));
        self.codes = rest;
        Some(thread)
    }
}

/// Enumerates every canonical program of the world, in deterministic
/// order: total op count ascending, then thread-length composition in lex
/// order, then symbol assignment in mixed-radix order. Each raw program is
/// tested where it lies in the digit string, so only canonical programs
/// are ever copied, into the returned buffer.
///
/// # Panics
///
/// Panics if the world has more than 16 ops or 16 threads.
#[must_use]
pub fn enumerate_canonical(bounds: &WorldBounds) -> Programs {
    assert!(
        bounds.ops <= MAX_ENUMERATED && bounds.threads <= MAX_ENUMERATED,
        "enumeration covers at most {MAX_ENUMERATED} ops and threads"
    );
    let alphabet = bounds.alphabet() as u64;
    let test = CanonicalTest::new(bounds);
    let mut out = Programs::new(bounds.threads);
    let mut digits = Vec::with_capacity(bounds.ops);
    let mut ends = Vec::with_capacity(bounds.threads);
    for n in 0..=bounds.ops {
        for comp in compositions(n, bounds.threads) {
            ends.clear();
            ends.extend(comp.iter().scan(0, |at, &len| {
                *at += len;
                Some(*at)
            }));
            digits.clear();
            digits.resize(n, 0u16);
            loop {
                if test.is_canonical(&ends, &digits) {
                    out.push(&comp, &digits);
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

/// Materializes one enumerated program, given as its thread symbol
/// sequences, as a [`Scenario`] named `world@index` (the refine
/// campaign's replay key). All `K` domains are attached before the
/// program runs, so detach/re-attach sequences are reachable within the op
/// budget.
#[must_use]
pub fn to_scenario<'a>(
    world: &str,
    index: usize,
    program: impl IntoIterator<Item = &'a [u16]>,
    bounds: &WorldBounds,
    config: pmo_simarch::SimConfig,
) -> Scenario {
    let usable_keys = config.pkeys.saturating_sub(1) as usize;
    let mut scenario = Scenario {
        name: String::new(),
        about: "enumerated small-world program",
        setup: bounds.domain_ids(),
        program: Program { threads: Vec::new() },
        config,
        key_pressure: bounds.domains > usable_keys,
    };
    load_scenario(&mut scenario, world, index, program);
    scenario
}

/// Loads another program of the same world into a scenario
/// [`to_scenario`] built, in place: its name and per-thread op vectors
/// are rewritten in the buffers they already own, so a campaign chunk
/// runs every program through one scenario without an allocator call once
/// they have grown.
pub fn load_scenario<'a>(
    scenario: &mut Scenario,
    world: &str,
    index: usize,
    program: impl IntoIterator<Item = &'a [u16]>,
) {
    scenario.name.clear();
    write!(scenario.name, "{world}@{index}").expect("writing to a String cannot fail");
    let threads = &mut scenario.program.threads;
    let mut used = 0;
    for codes in program {
        if used == threads.len() {
            threads.push(Vec::new());
        }
        let ops = &mut threads[used];
        ops.clear();
        ops.extend(codes.iter().map(|&c| decode(c)));
        used += 1;
    }
    threads.truncate(used);
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
        let programs: Vec<Codes> =
            enumerate_canonical(&w).iter().map(ProgramRef::to_codes).collect();
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
        let threads = || codes.iter().map(Vec::as_slice);
        let s = to_scenario("w1", 17, threads(), &w, crate::program::model_config(8, 4, 4));
        assert_eq!(s.name, "w1@17");
        assert_eq!(s.setup, vec![PmoId::new(1), PmoId::new(2)]);
        assert_eq!(s.program.total_ops(), 2);
        assert!(!s.key_pressure);
        let pressured = to_scenario("w2", 0, threads(), &w, crate::program::model_config(2, 2, 2));
        assert!(pressured.key_pressure, "2 domains over 1 usable key");
    }

    #[test]
    fn a_loaded_scenario_equals_a_built_one() {
        let w = WorldBounds { ops: 3, threads: 2, domains: 2 };
        let programs = enumerate_canonical(&w);
        let config = crate::program::model_config(8, 4, 4);
        let mut loaded = to_scenario("w1", 0, programs.get(0).unwrap(), &w, config.clone());
        for (index, program) in programs.iter().enumerate() {
            load_scenario(&mut loaded, "w1", index, program);
            let built = to_scenario(
                "w1",
                index,
                program.to_codes().iter().map(Vec::as_slice),
                &w,
                config.clone(),
            );
            assert_eq!(loaded.name, built.name);
            assert_eq!(loaded.program.threads, built.program.threads, "{}", built.name);
        }
        assert_eq!(programs.get(programs.len()), None);
    }
}
