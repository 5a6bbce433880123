//! Feature knobs for the CDCL core — the `Kernel`/`QuantumBackend`
//! dispatch idiom applied to solver internals.
//!
//! [`SatOptions`] selects which of the industrial-core features a
//! [`crate::CdclSolver`] runs with:
//!
//! * `lbd` — literal-block-distance clause management: glue clauses
//!   (LBD ≤ 2) survive every DB reduction, mid-tier clauses are demoted
//!   by LBD before activity, and restarts follow a Glucose-style
//!   recent-LBD EMA with the Luby schedule as a fallback;
//! * `xor` — XOR extraction from CNF into a Gaussian-elimination layer
//!   with watched columns that propagates and explains like a clause.
//!
//! Resolution order, mirroring `REVMATCH_KERNEL` / `REVMATCH_QBACKEND`:
//! an explicit pin ([`set_sat_opts_override`], or
//! [`crate::CdclSolver::with_options`] per solver) wins, then the
//! `REVMATCH_SAT_OPTS` environment variable (read once; a comma list of
//! `lbd`, `xor`, or the words `all` / `none`), then the default of
//! **all features on**.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::error::SatError;

/// Which industrial-core features the CDCL solver runs with — see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatOptions {
    /// LBD-tiered clause management and Glucose-style restarts.
    pub lbd: bool,
    /// XOR extraction + Gauss layer with watched columns.
    pub xor: bool,
}

impl Default for SatOptions {
    /// Everything on — the production configuration.
    fn default() -> Self {
        Self::ALL
    }
}

impl SatOptions {
    /// Every feature enabled (the default).
    pub const ALL: SatOptions = SatOptions {
        lbd: true,
        xor: true,
    };

    /// Every feature disabled — the plain PR 3 core, kept addressable
    /// for differential testing and A/B benchmarks.
    pub const NONE: SatOptions = SatOptions {
        lbd: false,
        xor: false,
    };

    /// The active options: a process-wide [`set_sat_opts_override`] pin
    /// wins, then the `REVMATCH_SAT_OPTS` environment variable (read
    /// once), then [`SatOptions::ALL`].
    pub fn active() -> Self {
        match unpack(SAT_OPTS_OVERRIDE.load(Ordering::Relaxed)) {
            Some(opts) => opts,
            None => env_sat_opts().unwrap_or(Self::ALL),
        }
    }

    /// The stable label used in flags, logs and the metrics info gauge:
    /// a comma list of the enabled features, or `none`.
    pub fn label(self) -> String {
        let mut parts = Vec::new();
        if self.lbd {
            parts.push("lbd");
        }
        if self.xor {
            parts.push("xor");
        }
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join(",")
        }
    }
}

impl fmt::Display for SatOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl FromStr for SatOptions {
    type Err = SatError;

    /// Parses a comma list of `lbd` / `xor` (in any order),
    /// or the words `all` / `none`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim().to_ascii_lowercase();
        match trimmed.as_str() {
            "all" => return Ok(Self::ALL),
            "none" => return Ok(Self::NONE),
            _ => {}
        }
        let mut opts = Self::NONE;
        for part in trimmed.split(',') {
            match part.trim() {
                "lbd" => opts.lbd = true,
                "xor" => opts.xor = true,
                other => {
                    return Err(SatError::UnknownSatOption {
                        name: other.to_owned(),
                    })
                }
            }
        }
        Ok(opts)
    }
}

/// Packed override slot: 0 = none, else `0b100 | lbd | xor<<1` so the
/// all-off pin is distinguishable from "no pin".
static SAT_OPTS_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn pack(opts: Option<SatOptions>) -> u8 {
    match opts {
        None => 0,
        Some(o) => 0b100 | u8::from(o.lbd) | u8::from(o.xor) << 1,
    }
}

fn unpack(slot: u8) -> Option<SatOptions> {
    (slot & 0b100 != 0).then_some(SatOptions {
        lbd: slot & 1 != 0,
        xor: slot & 2 != 0,
    })
}

/// Pins (or with `None` releases) the process-wide solver-feature
/// override — the programmatic twin of `REVMATCH_SAT_OPTS`, used by the
/// load generator's `--sat-opts` flag and A/B benchmarks.
pub fn set_sat_opts_override(opts: Option<SatOptions>) {
    SAT_OPTS_OVERRIDE.store(pack(opts), Ordering::Relaxed);
}

fn env_sat_opts() -> Option<SatOptions> {
    static ENV: OnceLock<Option<SatOptions>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("REVMATCH_SAT_OPTS") {
        Ok(v) if !v.trim().is_empty() => match v.parse() {
            Ok(opts) => Some(opts),
            Err(e) => panic!("REVMATCH_SAT_OPTS: {e}"),
        },
        _ => None,
    })
}

/// The label of the options currently in force (override > env >
/// default), for log lines and info gauges.
pub fn active_sat_opts_label() -> String {
    SatOptions::active().label()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for opts in [
            SatOptions::ALL,
            SatOptions::NONE,
            SatOptions {
                lbd: false,
                xor: true,
            },
        ] {
            let parsed: SatOptions = opts.label().parse().unwrap();
            assert_eq!(parsed, opts);
        }
        assert_eq!("all".parse::<SatOptions>().unwrap(), SatOptions::ALL);
        assert_eq!("none".parse::<SatOptions>().unwrap(), SatOptions::NONE);
        assert_eq!(
            " XOR , lbd ".parse::<SatOptions>().unwrap(),
            SatOptions::ALL
        );
        assert!("glucose".parse::<SatOptions>().is_err());
        assert_eq!(SatOptions::default(), SatOptions::ALL);
    }

    #[test]
    fn override_wins_and_releases() {
        // Serialized with any other override users by being the only
        // test in this binary touching the slot.
        set_sat_opts_override(Some(SatOptions::NONE));
        assert_eq!(SatOptions::active(), SatOptions::NONE);
        set_sat_opts_override(None);
        assert_eq!(SatOptions::active(), SatOptions::ALL);
    }

    #[test]
    fn pack_round_trips_every_combination() {
        for bits in 0..4u8 {
            let opts = SatOptions {
                lbd: bits & 1 != 0,
                xor: bits & 2 != 0,
            };
            assert_eq!(unpack(pack(Some(opts))), Some(opts));
        }
        assert_eq!(unpack(pack(None)), None);
    }
}
