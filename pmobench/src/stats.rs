//! Sample statistics, the report digest, and process-level readings.

use std::time::Instant;

/// Quartiles of `samples` the way Python's `statistics.quantiles(data,
/// n=4)` computes them (the default "exclusive" method), as
/// `(q1, median, q3)`. A single sample is its own quartiles; no samples
/// read as zero.
#[must_use]
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (data[0], data[0], data[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Streaming 64-bit FNV-1a hash: the `sim_digest` over every windowed
/// report's JSON, which must repeat exactly across reps, across the
/// traced and untraced paths, and across any host-speed change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one record, terminated so adjacent records cannot alias.
    pub fn record(&mut self, json: &str) {
        self.write(json.as_bytes());
        self.write(b"\n");
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What [`probe`] takes on the reference host: the speed the benchmark's
/// host times are rescaled to.
pub const PROBE_REF_S: f64 = 0.050;

/// Times a fixed integer-hash kernel over an L1-resident table on `jobs`
/// threads at once and returns the makespan in seconds.
///
/// Shared VMs change speed by up to 2x over tens of seconds as
/// neighbours come and go, which buries any code change. The probe runs
/// no repository code, so its time moves with the host only; host times
/// are multiplied by [`PROBE_REF_S`] over the probes taken around them.
#[must_use]
pub fn probe(jobs: usize) -> f64 {
    fn kernel(seed: u64) -> u64 {
        let mut table = [0u64; 512];
        let (mut x, mut acc) = (seed, 0u64);
        for _ in 0..5_000_000u32 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let slot = &mut table[(z as usize) & 511];
            acc = acc.wrapping_add(*slot);
            if acc & 1 == 0 {
                *slot = acc ^ z;
            }
        }
        acc
    }
    let started = Instant::now();
    std::thread::scope(|scope| {
        for seed in 0..jobs as u64 {
            scope.spawn(move || std::hint::black_box(kernel(std::hint::black_box(seed))));
        }
    });
    started.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit being measured, read from `.git` in the working directory
/// without running git; `"unknown"` outside a git checkout.
#[must_use]
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 5.5, 8.25));
        // Python extrapolates past the ends of short samples:
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn fnv_separates_records() {
        let mut a = Fnv::default();
        a.record("ab");
        a.record("c");
        let mut b = Fnv::default();
        b.record("a");
        b.record("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
