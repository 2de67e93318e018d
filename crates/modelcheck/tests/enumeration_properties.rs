//! Property-based validation of the small-world enumerator: for random
//! bounds the emitted canonical set must match the Burnside closed form
//! exactly, contain only canonical programs with no duplicates, be closed
//! under the thread/domain symmetry group (any relabeling of an emitted
//! program canonicalizes back to it), and equal, program for program, the
//! reference enumeration: every raw program in enumeration order, kept
//! when the candidate-building [`is_canonical`] accepts it. The reference
//! equality is also checked on the quick worlds and on w3.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pmo_modelcheck::enumerate::{canonicalize, is_canonical, Codes, ProgramRef, OPS_PER_DOMAIN};
use pmo_modelcheck::{enumerate_canonical, orbit_count, raw_count, WorldBounds};

/// Every canonical program of `bounds` the reference way: total op count
/// ascending, then thread-length composition in lex order, then symbol
/// assignment in lex order, kept when [`is_canonical`] accepts it.
fn reference(bounds: &WorldBounds) -> Vec<Codes> {
    fn compositions(n: usize, m: usize) -> Vec<Vec<usize>> {
        if m == 1 {
            return vec![vec![n]];
        }
        (0..=n)
            .flat_map(|first| {
                compositions(n - first, m - 1).into_iter().map(move |mut rest| {
                    rest.insert(0, first);
                    rest
                })
            })
            .collect()
    }
    let alphabet = bounds.alphabet();
    let mut out = Vec::new();
    for n in 0..=bounds.ops {
        for comp in compositions(n, bounds.threads) {
            for raw in 0..alphabet.pow(n as u32) {
                // The symbols of raw program `raw`, most significant first.
                let mut digits = vec![0u16; n];
                let mut rest = raw;
                for digit in digits.iter_mut().rev() {
                    *digit = (rest % alphabet) as u16;
                    rest /= alphabet;
                }
                let mut at = 0;
                let codes: Codes = comp
                    .iter()
                    .map(|&len| {
                        at += len;
                        digits[at - len..at].to_vec()
                    })
                    .collect();
                if is_canonical(&codes, bounds) {
                    out.push(codes);
                }
            }
        }
    }
    out
}

/// The enumerator's programs as owned symbol sequences.
fn enumerated(bounds: &WorldBounds) -> Vec<Codes> {
    enumerate_canonical(bounds).iter().map(ProgramRef::to_codes).collect()
}

/// The first index at which two program sequences differ, if any.
fn first_difference(got: &[Codes], want: &[Codes]) -> Option<usize> {
    (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))
}

#[test]
fn the_enumeration_equals_the_reference_on_w1_w2_and_w3() {
    for (world, bounds, programs) in [
        ("w1", WorldBounds { ops: 3, threads: 2, domains: 2 }, 2_906),
        ("w2", WorldBounds { ops: 4, threads: 2, domains: 2 }, 51_024),
        ("w3", WorldBounds { ops: 4, threads: 3, domains: 2 }, 61_594),
    ] {
        let got = enumerated(&bounds);
        let want = reference(&bounds);
        assert_eq!(want.len(), programs, "{world}: reference count");
        if let Some(i) = first_difference(&got, &want) {
            panic!("{world}: program {i} is {:?}, the reference's {:?}", got.get(i), want.get(i));
        }
    }
}

/// All permutations of `1..=n` (n is at most 3 here, so this is tiny).
fn perms(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (1..=n).collect();
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap(items.len(), &mut items, &mut out);
    out.sort();
    out
}

/// Applies a thread permutation and a domain relabeling to a program.
/// `tperm[i]` says which original thread lands in slot `i`;
/// `dperm[d-1]` is the new id of domain `d`.
fn relabel(codes: &Codes, tperm: &[usize], dperm: &[usize]) -> Codes {
    tperm
        .iter()
        .map(|&src| {
            codes[src - 1]
                .iter()
                .map(|&code| {
                    let c = code as usize % OPS_PER_DOMAIN;
                    let d = code as usize / OPS_PER_DOMAIN + 1;
                    ((dperm[d - 1] - 1) * OPS_PER_DOMAIN + c) as u16
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The enumerator emits exactly one representative per symmetry
    /// orbit: its count equals the Burnside closed form, its programs are
    /// the reference enumeration's in the same order, every program is
    /// canonical, and no two are equal.
    #[test]
    fn enumerator_matches_closed_form(
        ops in 1usize..=3,
        threads in 1usize..=3,
        domains in 1usize..=2,
    ) {
        let bounds = WorldBounds { ops, threads, domains };
        let worlds = enumerated(&bounds);

        prop_assert_eq!(worlds.len() as u128, orbit_count(&bounds));
        prop_assert!(orbit_count(&bounds) <= raw_count(&bounds));
        prop_assert_eq!(first_difference(&worlds, &reference(&bounds)), None);

        let mut seen: BTreeSet<Codes> = BTreeSet::new();
        for w in &worlds {
            prop_assert!(is_canonical(w, &bounds), "non-canonical {w:?}");
            prop_assert!(seen.insert(w.clone()), "duplicate {w:?}");
        }
    }

    /// No two emitted programs are permutation-equivalent, and every
    /// relabeling of an emitted program canonicalizes back to it: the
    /// emitted set is a transversal of the S_M x S_K group action.
    #[test]
    fn emitted_programs_are_orbit_representatives(
        ops in 1usize..=3,
        threads in 1usize..=3,
        domains in 1usize..=2,
        pick in 0u64..,
        tsel in 0u64..,
        dsel in 0u64..,
    ) {
        let bounds = WorldBounds { ops, threads, domains };
        let worlds = enumerated(&bounds);
        let tperms = perms(threads);
        let dperms = perms(domains);

        // Every relabeling of a randomly chosen program canonicalizes
        // back to the program itself...
        let w = &worlds[pick as usize % worlds.len()];
        let tperm = &tperms[tsel as usize % tperms.len()];
        let dperm = &dperms[dsel as usize % dperms.len()];
        let shuffled = relabel(w, tperm, dperm);
        prop_assert_eq!(&canonicalize(&shuffled, &bounds), w);

        // ...so two distinct emitted programs can never share an orbit
        // (each is its own canonical form). Spot-check the full orbit of
        // the chosen program against every other emitted program.
        for tp in &tperms {
            for dp in &dperms {
                let variant = relabel(w, tp, dp);
                for other in &worlds {
                    if other != w {
                        prop_assert_ne!(other, &variant);
                    }
                }
            }
        }
    }
}
