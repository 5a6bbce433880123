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
//! another set per solver. The text form (logs, info gauges) is
//! [`SatOptions::label`]: a comma list of `lbd` and `xor`, or `none`.

use std::fmt;

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

    /// The stable label used in logs and the metrics info gauge: a comma
    /// list of the enabled features, or `none`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_name_the_enabled_features() {
        assert_eq!(SatOptions::ALL.label(), "lbd,xor");
        assert_eq!(SatOptions::NONE.label(), "none");
        let xor_only = SatOptions {
            lbd: false,
            xor: true,
        };
        assert_eq!(xor_only.to_string(), "xor");
        assert_eq!(SatOptions::default(), SatOptions::ALL);
    }
}
