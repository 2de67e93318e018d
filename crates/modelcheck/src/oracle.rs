//! Ground-truth oracle for the predictive-analysis certification.
//!
//! The `predict` campaign takes *one* observed schedule per enumerated
//! program and asks the predictive pass what other schedules could have
//! manifested. This module supplies both sides of the certificate:
//!
//! * [`all_schedules`] — the exhaustive feasible set: every maximal
//!   interleaving of the program's per-thread op sequences, in
//!   deterministic lexicographic order (tractable at enumerator scale,
//!   where programs have a handful of ops — exactly the worlds DPOR
//!   covers);
//! * [`sample_schedule`] — the single observed schedule, a pure
//!   function of the scenario name (SplitMix64 over an FNV-1a seed, no
//!   RNG state anywhere): byte-identical across runs and job counts;
//! * [`crate::Explorer::schedule_trace`] — runs one schedule from the
//!   explorer's restored post-setup [`crate::World`] and hands back the
//!   raw event trace the analyzer consumes.

/// FNV-1a over the scenario name: the whole sampling seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: a tiny, stateless-friendly mixer (the same choice
/// the workloads use for deterministic pseudo-randomness).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Every maximal interleaving of per-thread op counts, lexicographic by
/// thread index, capped at `cap` schedules. Returns the schedules and
/// whether the cap truncated the enumeration.
#[must_use]
pub fn all_schedules(op_counts: &[usize], cap: usize) -> (Vec<Vec<u32>>, bool) {
    fn rec(
        rem: &mut [usize],
        prefix: &mut Vec<u32>,
        out: &mut Vec<Vec<u32>>,
        cap: usize,
        truncated: &mut bool,
    ) {
        if out.len() == cap {
            *truncated = true;
            return;
        }
        if rem.iter().all(|&r| r == 0) {
            out.push(prefix.clone());
            return;
        }
        for t in 0..rem.len() {
            if rem[t] > 0 {
                rem[t] -= 1;
                prefix.push(t as u32);
                rec(rem, prefix, out, cap, truncated);
                prefix.pop();
                rem[t] += 1;
            }
        }
    }
    let mut out = Vec::new();
    let mut truncated = false;
    rec(&mut op_counts.to_vec(), &mut Vec::new(), &mut out, cap, &mut truncated);
    (out, truncated)
}

/// The one observed schedule the predict campaign analyzes per program:
/// a maximal schedule chosen by hashing the scenario name — a pure
/// function of its input, with no RNG and no global state, so any job
/// count and any run produce the identical schedule.
#[must_use]
pub fn sample_schedule(name: &str, op_counts: &[usize]) -> Vec<u32> {
    let mut state = fnv1a(name);
    let mut rem = op_counts.to_vec();
    let total: usize = rem.iter().sum();
    let mut out = Vec::with_capacity(total);
    loop {
        let enabled: Vec<u32> = (0..rem.len()).filter(|&t| rem[t] > 0).map(|t| t as u32).collect();
        if enabled.is_empty() {
            break;
        }
        let pick = enabled[(splitmix64(&mut state) % enabled.len() as u64) as usize];
        rem[pick as usize] -= 1;
        out.push(pick);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::naive_schedules;

    #[test]
    fn all_schedules_match_the_multinomial_count() {
        let (s, truncated) = all_schedules(&[2, 2], 1 << 20);
        assert!(!truncated);
        assert_eq!(s.len() as u128, naive_schedules(&[2, 2], usize::MAX));
        assert_eq!(s.len(), 6);
        // Lexicographic and duplicate-free.
        let mut sorted = s.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(s, sorted);
    }

    #[test]
    fn all_schedules_cap_is_loud() {
        let (s, truncated) = all_schedules(&[3, 3], 4);
        assert_eq!(s.len(), 4);
        assert!(truncated);
    }

    #[test]
    fn sample_schedule_is_a_pure_function_of_the_name() {
        let a = sample_schedule("w1@17", &[3, 2]);
        let b = sample_schedule("w1@17", &[3, 2]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5, "maximal schedule consumes every op");
        assert_eq!(a.iter().filter(|&&t| t == 0).count(), 3);
        assert_eq!(a.iter().filter(|&&t| t == 1).count(), 2);
        // Different names may differ (and these do, witnessing that the
        // name actually feeds the choice).
        assert_ne!(sample_schedule("w1@17", &[4, 4]), sample_schedule("w1@18", &[4, 4]));
    }
}
