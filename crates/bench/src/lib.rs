//! # revmatch-bench — experiment harness
//!
//! Regenerates every table and figure of the paper as a measured artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — query complexity of every tractable equivalence |
//! | `figure1` | Fig. 1 — domination lattice with empirical edge checks |
//! | `theorem1` | Thm. 1 / Eq. 2 — classical `2^{n/2}` vs quantum `O(n)` |
//! | `eq1` | Eq. 1 — randomized I-P success probability vs `k` |
//! | `figure3` | Fig. 3 — swap-test outcome statistics vs overlap |
//! | `alg1_confidence` | Algorithm 1 — failure rate `≤ 2^{-k}` |
//! | `hardness` | Fig. 5 / Thms. 2–3 — UNIQUE-SAT reduction round trips |
//!
//! Criterion benches (`cargo bench -p revmatch-bench`) cover the same
//! algorithms for wall-clock numbers.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic RNG used across harness binaries so printed rows are
/// reproducible run to run.
pub fn harness_rng() -> StdRng {
    StdRng::seed_from_u64(0x0DAC_2024)
}

/// Minimal `--key value` / `--key=value` flag parser shared by the bench
/// binaries (no external CLI crate in the build container).
///
/// Unknown flags abort with the binary's usage string, so typos fail loud
/// instead of silently running defaults.
#[derive(Debug)]
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `std::env::args`, validating every flag against `known`.
    /// Exits the process with `usage` on an unknown flag or a flag with a
    /// missing value.
    pub fn parse(known: &[&str], usage: &str) -> Self {
        match Self::parse_iter(std::env::args().skip(1), known) {
            Ok(flags) => flags,
            Err(msg) => {
                eprintln!("{msg}\n{usage}");
                std::process::exit(2);
            }
        }
    }

    /// Testable core of [`Flags::parse`].
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag, missing value, or stray
    /// positional argument.
    pub fn parse_iter(
        args: impl IntoIterator<Item = String>,
        known: &[&str],
    ) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(stripped) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument: {arg}"));
            };
            let (key, value) = match stripped.split_once('=') {
                Some((k, v)) => (k.to_owned(), v.to_owned()),
                None => match args.next() {
                    Some(v) => (stripped.to_owned(), v),
                    None => return Err(format!("flag --{stripped} needs a value")),
                },
            };
            if !known.contains(&key.as_str()) {
                return Err(format!("unknown flag: --{key}"));
            }
            pairs.push((key, value));
        }
        Ok(Self { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the flag was given at all.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The flag as `usize`, or `default` when absent.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name}: not a number: {v}"))
            })
            .unwrap_or(default)
    }

    /// The flag as `u64`, or `default` when absent.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name}: not a number: {v}"))
            })
            .unwrap_or(default)
    }

    /// The flag as `f64`, or `default` when absent.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name}: not a number: {v}"))
            })
            .unwrap_or(default)
    }

    /// The flag as a string, or `default` when absent.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.get(name).unwrap_or(default).to_owned()
    }
}

/// Names of the serving-layer flags shared by the bench binaries
/// (`--shards`, `--queue-capacity`).
pub const SERVICE_FLAGS: [&str; 2] = ["shards", "queue-capacity"];

/// Reads the shared serving-layer flags: worker-shard count (default:
/// available parallelism) and per-lane queue capacity (default 64).
pub fn service_flags(flags: &Flags) -> (usize, usize) {
    let default_shards = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    (
        flags.get_usize("shards", default_shards),
        flags.get_usize("queue-capacity", 64),
    )
}

/// Median of a sample (sorts a copy).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[u64]) -> u64 {
    assert!(!samples.is_empty());
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[s.len() / 2]
}

/// Arithmetic mean of a sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn mean(samples: &[u64]) -> f64 {
    assert!(!samples.is_empty());
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[4, 1, 2, 3]), 3);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[2, 4]), 3.0);
    }

    #[test]
    fn rng_is_deterministic() {
        use rand::Rng;
        let a: u64 = harness_rng().gen();
        let b: u64 = harness_rng().gen();
        assert_eq!(a, b);
    }

    fn flags_of(args: &[&str], known: &[&str]) -> Result<Flags, String> {
        Flags::parse_iter(args.iter().map(|s| (*s).to_owned()), known)
    }

    #[test]
    fn flags_parse_both_syntaxes_last_wins() {
        let f = flags_of(
            &["--shards", "4", "--shards=8", "--rate=2.5"],
            &["shards", "rate"],
        )
        .unwrap();
        assert_eq!(f.get_usize("shards", 1), 8);
        assert_eq!(f.get_f64("rate", 1.0), 2.5);
        assert_eq!(f.get_u64("seed", 7), 7, "absent flag falls back");
        assert_eq!(f.get_str("mix", "NP-I"), "NP-I");
    }

    #[test]
    fn flags_reject_unknown_and_dangling() {
        assert!(flags_of(&["--bogus", "1"], &["shards"]).is_err());
        assert!(flags_of(&["--shards"], &["shards"]).is_err());
        assert!(flags_of(&["positional"], &["shards"]).is_err());
    }

    #[test]
    fn service_flag_defaults() {
        let f = flags_of(&["--queue-capacity", "16"], &SERVICE_FLAGS).unwrap();
        let (shards, capacity) = service_flags(&f);
        assert!(shards >= 1);
        assert_eq!(capacity, 16);
    }
}
