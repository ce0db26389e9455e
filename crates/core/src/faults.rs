//! Deterministic fault injection for the GEF pipeline (only compiled
//! with the `fault-injection` cargo feature).
//!
//! This is the `gef-core` facade over [`gef_trace::fault`]: the named
//! injection sites threaded through the pipeline's dependencies, plus a
//! `GEF_FAULTS` environment activation syntax so experiment binaries
//! can inject faults without code changes.
//!
//! ## Injection sites
//!
//! | site | location | effect when fired |
//! |------|----------|-------------------|
//! | [`CHOL_FACTOR`] | `gef_linalg::Cholesky::factor` | returns `NotPositiveDefinite` |
//! | [`PIRLS_ITER`] | `gef_gam` PIRLS iteration | corrupts the candidate β to NaN |
//! | [`PIRLS_STEP`] | `gef_gam` PIRLS iteration | finite overshoot (recoverable by step-halving) |
//! | [`PIRLS_STALL`] | `gef_gam` PIRLS iteration | sleeps 5 ms (no numeric effect) — exists to prove deadline enforcement |
//! | [`FOREST_PREDICT_NAN`] | `gef_forest::Forest::predict_raw` | returns NaN |
//! | [`SAMPLING_DOMAIN_COLLAPSE`] | pipeline sampling stage | truncates a selected feature's domain to one point |
//! | [`STORE_TORN_WRITE`] | `gef_store` publish | staged file gets half its bytes, no fsync (torn artifact) |
//! | [`STORE_BIT_FLIP`] | `gef_store` publish | one payload bit flipped (silent media corruption) |
//! | [`STORE_TRUNCATE`] | `gef_store` read | read buffer cut to half length (lost tail) |
//! | [`STORE_ENOSPC`] | `gef_store` publish | write fails with injected out-of-space |
//!
//! ## `GEF_FAULTS` syntax
//!
//! Comma-separated `site=trigger` entries:
//!
//! ```text
//! GEF_FAULTS="chol.factor=stage<2,forest.predict_nan=first:50"
//! ```
//!
//! Triggers: `always`, `first:N`, `hits:I|J|K` (0-based hit indices),
//! `stage<N`, `seeded:SEED:PROB`.

pub use gef_trace::fault::{
    any_armed, arm, armed, armed_counts, disarm, fired_count, fires, hit_count, reset, set_stage,
    stage, Trigger,
};
// The four `gef_store` disk-fault sites, defined once in gef-store.
pub use gef_store::{
    BIT_FLIP as STORE_BIT_FLIP, ENOSPC as STORE_ENOSPC, TORN_WRITE as STORE_TORN_WRITE,
    TRUNCATE as STORE_TRUNCATE,
};

/// `gef_linalg::Cholesky::factor` fails with `NotPositiveDefinite`.
pub const CHOL_FACTOR: &str = "chol.factor";
/// A PIRLS iteration's solved coefficients become NaN.
pub const PIRLS_ITER: &str = "pirls.iter";
/// A PIRLS iteration's solved coefficients overshoot (finitely).
pub const PIRLS_STEP: &str = "pirls.step";
/// A PIRLS iteration stalls (sleeps 5 ms per fire, no numeric effect).
/// Exists so deadline enforcement can be proven: an `always`-stalled
/// PIRLS loop under `GEF_DEADLINE_MS` must return `DeadlineExceeded`,
/// never hang.
pub const PIRLS_STALL: &str = "pirls.stall";
/// `Forest::predict_raw` returns NaN.
pub const FOREST_PREDICT_NAN: &str = "forest.predict_nan";
/// A selected feature's sampling domain collapses to a single point.
pub const SAMPLING_DOMAIN_COLLAPSE: &str = "sampling.domain_collapse";

/// All known injection sites.
pub const ALL_SITES: [&str; 10] = [
    CHOL_FACTOR,
    PIRLS_ITER,
    PIRLS_STEP,
    PIRLS_STALL,
    FOREST_PREDICT_NAN,
    SAMPLING_DOMAIN_COLLAPSE,
    STORE_TORN_WRITE,
    STORE_BIT_FLIP,
    STORE_TRUNCATE,
    STORE_ENOSPC,
];

/// A malformed or unknown `GEF_FAULTS` specification.
///
/// The `Display` form of [`FaultSpecError::UnknownSite`] lists every
/// registered site so a typo in a chaos schedule is self-diagnosing.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpecError {
    /// An entry had no `site=trigger` shape.
    MissingEquals {
        /// The offending entry.
        entry: String,
    },
    /// The named site is not in [`ALL_SITES`].
    UnknownSite {
        /// The unrecognized site name.
        site: String,
    },
    /// The trigger half of an entry did not parse.
    MalformedTrigger {
        /// The offending trigger text.
        trigger: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::MissingEquals { entry } => {
                write!(f, "bad GEF_FAULTS entry (no '='): {entry:?}")
            }
            FaultSpecError::UnknownSite { site } => {
                write!(
                    f,
                    "unknown GEF_FAULTS site {site:?}; valid sites: {}",
                    ALL_SITES.join(", ")
                )
            }
            FaultSpecError::MalformedTrigger { trigger, reason } => {
                write!(f, "bad GEF_FAULTS trigger {trigger:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// Parse a `GEF_FAULTS`-style activation string into `(site, trigger)`
/// pairs, rejecting unknown sites and malformed triggers with a typed
/// [`FaultSpecError`]. See the module docs for the syntax.
pub fn parse_spec(spec: &str) -> Result<Vec<(String, Trigger)>, FaultSpecError> {
    let mut out = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (site, trig) = entry
            .split_once('=')
            .ok_or_else(|| FaultSpecError::MissingEquals {
                entry: entry.to_string(),
            })?;
        let site = site.trim();
        if !ALL_SITES.contains(&site) {
            return Err(FaultSpecError::UnknownSite {
                site: site.to_string(),
            });
        }
        let trigger = parse_trigger(trig.trim())?;
        out.push((site.to_string(), trigger));
    }
    Ok(out)
}

fn malformed(t: &str, reason: impl Into<String>) -> FaultSpecError {
    FaultSpecError::MalformedTrigger {
        trigger: t.to_string(),
        reason: reason.into(),
    }
}

fn parse_trigger(t: &str) -> Result<Trigger, FaultSpecError> {
    if t == "always" {
        return Ok(Trigger::Always);
    }
    if let Some(n) = t.strip_prefix("first:") {
        return n
            .parse()
            .map(Trigger::FirstN)
            .map_err(|_| malformed(t, "expected first:N with integer N"));
    }
    if let Some(list) = t.strip_prefix("hits:") {
        let hits: Result<Vec<u64>, _> = list.split('|').map(str::parse).collect();
        return hits
            .map(Trigger::Hits)
            .map_err(|_| malformed(t, "expected hits:I|J|K with integer hit indices"));
    }
    if let Some(n) = t.strip_prefix("stage<") {
        return n
            .parse()
            .map(Trigger::StageBelow)
            .map_err(|_| malformed(t, "expected stage<N with integer N"));
    }
    if let Some(rest) = t.strip_prefix("seeded:") {
        let (seed, prob) = rest
            .split_once(':')
            .ok_or_else(|| malformed(t, "expected seeded:SEED:PROB"))?;
        let seed = seed
            .parse()
            .map_err(|_| malformed(t, "seed is not an integer"))?;
        let prob: f64 = prob
            .parse()
            .map_err(|_| malformed(t, "probability is not a number"))?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(malformed(t, "probability out of [0,1]"));
        }
        return Ok(Trigger::Seeded { seed, prob });
    }
    Err(malformed(
        t,
        "expected always, first:N, hits:I|J, stage<N, or seeded:SEED:PROB",
    ))
}

/// Arm every site listed in the `GEF_FAULTS` environment variable.
/// Returns how many sites were armed; a malformed spec is an error.
pub fn arm_from_env() -> Result<usize, FaultSpecError> {
    let Ok(spec) = std::env::var("GEF_FAULTS") else {
        return Ok(0);
    };
    let entries = parse_spec(&spec)?;
    let n = entries.len();
    for (site, trigger) in entries {
        arm(&site, trigger);
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_trigger_form() {
        let parsed = parse_spec(
            "chol.factor=always, pirls.iter=first:3,forest.predict_nan=hits:0|4|9,\
             sampling.domain_collapse=stage<2,pirls.step=seeded:42:0.25",
        )
        .unwrap();
        assert_eq!(parsed.len(), 5);
        assert_eq!(parsed[0], (CHOL_FACTOR.to_string(), Trigger::Always));
        assert_eq!(parsed[1].1, Trigger::FirstN(3));
        assert_eq!(parsed[2].1, Trigger::Hits(vec![0, 4, 9]));
        assert_eq!(parsed[3].1, Trigger::StageBelow(2));
        assert_eq!(
            parsed[4].1,
            Trigger::Seeded {
                seed: 42,
                prob: 0.25
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(matches!(
            parse_spec("no_equals_sign"),
            Err(FaultSpecError::MissingEquals { .. })
        ));
        assert!(matches!(
            parse_spec("chol.factor=never"),
            Err(FaultSpecError::MalformedTrigger { .. })
        ));
        assert!(matches!(
            parse_spec("chol.factor=first:x"),
            Err(FaultSpecError::MalformedTrigger { .. })
        ));
        assert!(matches!(
            parse_spec("chol.factor=seeded:1:1.5"),
            Err(FaultSpecError::MalformedTrigger { .. })
        ));
        // Empty spec is fine (nothing armed).
        assert_eq!(parse_spec("").unwrap().len(), 0);
    }

    #[test]
    fn unknown_site_error_lists_valid_sites() {
        let err = parse_spec("chol.faktor=always").unwrap_err();
        assert_eq!(
            err,
            FaultSpecError::UnknownSite {
                site: "chol.faktor".into()
            }
        );
        let msg = err.to_string();
        for site in ALL_SITES {
            assert!(msg.contains(site), "{msg:?} should list {site}");
        }
    }

    #[test]
    fn every_registered_site_parses() {
        for site in ALL_SITES {
            let parsed = parse_spec(&format!("{site}=first:1")).unwrap();
            assert_eq!(parsed, vec![(site.to_string(), Trigger::FirstN(1))]);
        }
    }
}
