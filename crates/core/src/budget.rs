//! Run budgets: wall-clock deadlines for one pipeline run.
//!
//! [`RunBudget`] is the `gef-core` facade over the always-compiled
//! primitive in [`gef_trace::budget`]. It reads the deadline knobs, and
//! [`RunBudget::enter`] arms a **fresh scoped
//! [`gef_trace::budget::Budget`]** on the calling thread for the
//! returned guard's lifetime — concurrent runs each hold their own
//! deadline, which is how `gef-serve` gives every request an
//! independent budget.
//!
//! ## Environment knobs
//!
//! | variable | meaning |
//! |----------|---------|
//! | `GEF_DEADLINE_MS` | hard wall-clock deadline for the run; once passed, every cooperative checkpoint returns [`GefError::DeadlineExceeded`] |
//! | `GEF_SOFT_DEADLINE_MS` | soft deadline (budget pressure); the GAM recovery ladder descends one rung preemptively, recorded as a degradation. Defaults to 80% of the hard deadline when only that is set |
//! | `GEF_MAX_BOOST_ROUNDS` | process cap on forest boosting rounds (0 = unlimited) |
//! | `GEF_MAX_PIRLS_ITERS` | process cap on PIRLS iterations per GAM fit (0 = unlimited) |
//! | `GEF_MAX_DSTAR_ROWS` | process cap on `D*` rows; a tighter-than-requested cap is recorded as a degradation, a cap below the fitting minimum (16) fails with [`GefError::BudgetExceeded`] |
//!
//! The deadlines are per run: [`RunBudget::from_env`] reads them for
//! each explain that was not started under a budget already. The three
//! `GEF_MAX_*` caps are process configuration, read once by
//! [`gef_trace::budget`] and applied to every run, budgeted or not.
//!
//! Invalid (unparseable) values are never fatal: the knob is ignored
//! through the shared [`gef_trace::env`] path — a warn-once stderr line
//! naming the raw value, an `env.invalid` flight-recorder note, and —
//! when telemetry is enabled — an `env.invalid` event.
//!
//! [`GefError::DeadlineExceeded`]: crate::GefError::DeadlineExceeded
//! [`GefError::BudgetExceeded`]: crate::GefError::BudgetExceeded

use std::time::Duration;

use gef_trace::budget::Budget;
use gef_trace::ctx::ScopeGuard;

/// Declarative deadlines for one [`crate::GefExplainer::explain`] run.
///
/// Construct with [`RunBudget::from_env`] (production: driven by the
/// `GEF_*` variables above) or build one programmatically; then
/// [`RunBudget::enter`] it around the work it should bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Hard wall-clock deadline (None = unbounded).
    pub hard_deadline: Option<Duration>,
    /// Soft deadline: budget pressure, not an abort (None = unarmed).
    pub soft_deadline: Option<Duration>,
}

use gef_trace::env::u64_var as env_u64;

impl RunBudget {
    /// Read the deadlines from the `GEF_*` environment knobs (see the
    /// module docs). Unset or invalid variables leave that limit off.
    pub fn from_env() -> Self {
        let hard_ms = env_u64("GEF_DEADLINE_MS").filter(|&ms| ms > 0);
        let soft_ms = env_u64("GEF_SOFT_DEADLINE_MS")
            .filter(|&ms| ms > 0)
            // With only a hard deadline set, arm soft pressure at 80%
            // of it so the ladder starts cutting cost before the abort.
            .or(hard_ms.map(|ms| ms.saturating_mul(4) / 5));
        RunBudget {
            hard_deadline: hard_ms.map(Duration::from_millis),
            soft_deadline: soft_ms.map(Duration::from_millis),
        }
    }

    /// Arm a **fresh scoped budget** on the calling thread: the
    /// deadlines bind this thread (and any gef-par regions it
    /// dispatches) only, leaving other threads untouched. Dropping the
    /// guard leaves the scope — including on early-error paths, so a
    /// failed phase can never leak a stale deadline into the next one.
    #[must_use = "the budget leaves scope when this guard drops"]
    pub fn enter(&self) -> ScopedBudget {
        let budget = Budget::armed(self.hard_deadline, self.soft_deadline);
        let scope = budget.enter();
        ScopedBudget {
            budget,
            _scope: scope,
        }
    }
}

/// RAII scope from [`RunBudget::enter`]: while held, every cooperative
/// checkpoint on this thread resolves to this run's own budget. The
/// scope pops on drop; [`ScopedBudget::budget`] exposes the underlying
/// clonable handle.
#[must_use = "the budget leaves scope when this guard drops"]
pub struct ScopedBudget {
    budget: Budget,
    _scope: ScopeGuard,
}

impl ScopedBudget {
    /// The underlying budget handle; clones share state, so a clone
    /// handed to another thread observes this run's trips.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Env vars are process-wide; serialise.
    static LOCK: Mutex<()> = Mutex::new(());

    const VARS: [&str; 2] = ["GEF_DEADLINE_MS", "GEF_SOFT_DEADLINE_MS"];

    fn with_env<T>(pairs: &[(&str, &str)], f: impl FnOnce() -> T) -> T {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for v in VARS {
            std::env::remove_var(v);
        }
        for (k, v) in pairs {
            std::env::set_var(k, v);
        }
        let out = f();
        for v in VARS {
            std::env::remove_var(v);
        }
        out
    }

    #[test]
    fn empty_env_is_unlimited() {
        with_env(&[], || {
            let b = RunBudget::from_env();
            assert_eq!(b, RunBudget::default());
            let _guard = b.enter();
            assert!(!gef_trace::budget::hard_exceeded());
            assert!(!gef_trace::budget::soft_exceeded());
        });
    }

    #[test]
    fn soft_deadline_defaults_to_fraction_of_hard() {
        with_env(&[("GEF_DEADLINE_MS", "1000")], || {
            let b = RunBudget::from_env();
            assert_eq!(b.hard_deadline, Some(Duration::from_millis(1000)));
            assert_eq!(b.soft_deadline, Some(Duration::from_millis(800)));
        });
    }

    #[test]
    fn explicit_soft_deadline_wins() {
        with_env(
            &[("GEF_DEADLINE_MS", "1000"), ("GEF_SOFT_DEADLINE_MS", "100")],
            || {
                let b = RunBudget::from_env();
                assert_eq!(b.soft_deadline, Some(Duration::from_millis(100)));
            },
        );
    }

    #[test]
    fn invalid_values_are_ignored_not_fatal() {
        with_env(
            &[("GEF_DEADLINE_MS", "soon"), ("GEF_SOFT_DEADLINE_MS", "7")],
            || {
                let b = RunBudget::from_env();
                assert_eq!(b.hard_deadline, None);
                assert_eq!(b.soft_deadline, Some(Duration::from_millis(7)));
                // The rejection leaves a flight-recorder note naming
                // the raw value, so incident dumps show what the
                // operator actually typed.
                let notes: Vec<String> = gef_trace::recorder::snapshot_last(usize::MAX)
                    .into_iter()
                    .filter(|r| r.name == "env.invalid")
                    .filter_map(|r| r.detail)
                    .collect();
                assert!(
                    notes
                        .iter()
                        .any(|d| d.contains("GEF_DEADLINE_MS") && d.contains("soon")),
                    "no recorder note names the rejected value: {notes:?}"
                );
            },
        );
    }

    #[test]
    fn enter_arms_deadlines_until_dropped() {
        let b = RunBudget {
            hard_deadline: Some(Duration::from_secs(3600)),
            soft_deadline: None,
        };
        {
            let _guard = b.enter();
            assert!(gef_trace::budget::active());
            assert!(!gef_trace::budget::hard_exceeded());
        }
        assert!(!gef_trace::budget::active(), "guard drop disarms");
    }

    #[test]
    fn enter_scopes_budget_to_this_thread_only() {
        let b = RunBudget {
            hard_deadline: Some(Duration::ZERO),
            soft_deadline: None,
        };
        {
            let scope = b.enter();
            assert!(gef_trace::budget::hard_exceeded(), "own deadline trips");
            assert!(scope.budget().hard_tripped());
            // Another thread saw none of it.
            let other_clean = std::thread::spawn(|| {
                !gef_trace::budget::active() && !gef_trace::budget::hard_exceeded()
            })
            .join()
            .unwrap();
            assert!(other_clean, "other threads stay unarmed");
        }
        assert!(!gef_trace::budget::active(), "scope drop disarms");
    }
}
