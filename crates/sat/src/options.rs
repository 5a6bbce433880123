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
//! A [`crate::CdclSolver`] starts with **all features on**
//! ([`SatOptions::ALL`]); [`crate::CdclSolver::with_options`] pins
//! another set per solver. The text form (flags, logs, info gauges) is
//! a comma list of `lbd`, `xor`, or the words `all` / `none`.

use std::fmt;
use std::str::FromStr;

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
}
