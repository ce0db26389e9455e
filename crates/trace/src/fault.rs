//! Deterministic fault injection for robustness testing.
//!
//! A process-wide registry of named **injection sites**. Production code
//! guards a failure path with [`fires`]:
//!
//! ```ignore
//! if gef_trace::fault::fires("chol.factor") {
//!     return Err(LinalgError::NotPositiveDefinite { pivot: 0, value: f64::NAN });
//! }
//! ```
//!
//! Without the `fault-injection` cargo feature every function here is an
//! inlined no-op (`fires` is a constant `false`), so instrumented hot paths
//! carry zero cost in normal builds. With the feature enabled, tests [`arm`]
//! sites with a [`Trigger`] that decides deterministically — from the site
//! name, a per-site hit counter, and an optional seed or pipeline *stage* —
//! whether a given invocation fails.
//!
//! Triggers:
//!
//! * [`Trigger::Always`] — every hit fires.
//! * [`Trigger::Hits`] — fire on an explicit list of 0-based hit indices.
//! * [`Trigger::FirstN`] — fire on the first `n` hits.
//! * [`Trigger::StageBelow`] — fire while the global stage (see
//!   [`set_stage`]) is below `n`. The recovery ladder publishes its attempt
//!   index as the stage, so `StageBelow(r)` makes exactly the first `r`
//!   ladder attempts fail and lets attempt `r` succeed.
//! * [`Trigger::Seeded`] — fire pseudo-randomly with probability `prob`,
//!   derived deterministically from `seed ^ hash(site) ^ hit_index`.
//!
//! The registry is shared process state: tests that arm sites must
//! serialise (e.g. behind a mutex) and call [`reset`] when done.

/// Decides whether an armed site fires on a given hit.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on these 0-based hit indices.
    Hits(Vec<u64>),
    /// Fire on the first `n` hits.
    FirstN(u64),
    /// Fire while the global stage (see [`set_stage`]) is `< n`.
    StageBelow(u32),
    /// Fire with probability `prob`, deterministically derived from
    /// `seed`, the site name, and the hit index.
    Seeded {
        /// Seed mixed into the per-hit decision.
        seed: u64,
        /// Probability in `[0, 1]` that a hit fires.
        prob: f64,
    },
}

impl Trigger {
    /// Render this trigger in the `GEF_FAULTS` spec grammar
    /// (`always` / `first:N` / `hits:I|J` / `stage<N` /
    /// `seeded:SEED:PROB`), so an armed schedule can be serialized into
    /// a replayable `site=trigger` string ([`armed_spec`] does exactly
    /// that).
    pub fn to_spec(&self) -> String {
        match self {
            Trigger::Always => "always".to_string(),
            Trigger::Hits(hits) => {
                let parts: Vec<String> = hits.iter().map(u64::to_string).collect();
                format!("hits:{}", parts.join("|"))
            }
            Trigger::FirstN(n) => format!("first:{n}"),
            Trigger::StageBelow(n) => format!("stage<{n}"),
            Trigger::Seeded { seed, prob } => format!("seeded:{seed}:{prob}"),
        }
    }
}

#[cfg(feature = "fault-injection")]
mod imp {
    use super::Trigger;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::{Mutex, OnceLock};

    struct SiteState {
        trigger: Trigger,
        hits: u64,
        fired: u64,
    }

    static ANY_ARMED: AtomicBool = AtomicBool::new(false);
    static STAGE: AtomicU32 = AtomicU32::new(0);
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();

    fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock() -> std::sync::MutexGuard<'static, HashMap<String, SiteState>> {
        registry().lock().unwrap_or_else(|e| e.into_inner())
    }

    // Seeded decisions mix via the workspace's canonical hashers.
    use crate::hash::{fnv1a, splitmix64};

    /// Arm `site` with `trigger`, resetting its hit/fired counters.
    pub fn arm(site: &str, trigger: Trigger) {
        let mut map = lock();
        map.insert(
            site.to_string(),
            SiteState {
                trigger,
                hits: 0,
                fired: 0,
            },
        );
        ANY_ARMED.store(true, Ordering::Release);
    }

    /// Disarm `site`; subsequent hits never fire and are not counted.
    pub fn disarm(site: &str) {
        let mut map = lock();
        map.remove(site);
        if map.is_empty() {
            ANY_ARMED.store(false, Ordering::Release);
        }
    }

    /// Disarm every site and reset the stage to 0.
    pub fn reset() {
        lock().clear();
        ANY_ARMED.store(false, Ordering::Release);
        STAGE.store(0, Ordering::Release);
    }

    /// Publish the current pipeline stage (used by [`Trigger::StageBelow`]).
    pub fn set_stage(stage: u32) {
        STAGE.store(stage, Ordering::Release);
    }

    /// The currently published stage.
    pub fn stage() -> u32 {
        STAGE.load(Ordering::Acquire)
    }

    /// Should this invocation of `site` fail? Counts a hit when armed.
    pub fn fires(site: &str) -> bool {
        // Fast path: nothing armed anywhere.
        if !ANY_ARMED.load(Ordering::Acquire) {
            return false;
        }
        let mut map = lock();
        let Some(state) = map.get_mut(site) else {
            return false;
        };
        let hit = state.hits;
        state.hits += 1;
        let fire = match &state.trigger {
            Trigger::Always => true,
            Trigger::Hits(hits) => hits.contains(&hit),
            Trigger::FirstN(n) => hit < *n,
            Trigger::StageBelow(n) => STAGE.load(Ordering::Acquire) < *n,
            Trigger::Seeded { seed, prob } => {
                let z = splitmix64(seed ^ fnv1a(site) ^ hit);
                // Map to [0, 1) using the top 53 bits.
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                u < *prob
            }
        };
        if fire {
            state.fired += 1;
            // Leave a breadcrumb in the always-on flight recorder so an
            // incident dump shows which injected fault tripped the run.
            crate::recorder::record(crate::recorder::Kind::Fault, site, &[("hit", hit as f64)]);
        }
        fire
    }

    /// Total hits recorded against `site` since it was armed.
    pub fn hit_count(site: &str) -> u64 {
        lock().get(site).map(|s| s.hits).unwrap_or(0)
    }

    /// Total times `site` actually fired since it was armed.
    pub fn fired_count(site: &str) -> u64 {
        lock().get(site).map(|s| s.fired).unwrap_or(0)
    }

    /// Whether *any* site is currently armed (one atomic load).
    ///
    /// Parallel runtimes check this at dispatch time and fall back to
    /// serial execution while faults are armed, so hit counters advance
    /// in a thread-count-invariant order.
    pub fn any_armed() -> bool {
        ANY_ARMED.load(Ordering::Acquire)
    }

    /// Snapshot of every currently armed site with its trigger, sorted
    /// by site name — the raw material for a replayable `GEF_FAULTS`
    /// string in incident dumps.
    pub fn armed() -> Vec<(String, Trigger)> {
        let map = lock();
        let mut out: Vec<(String, Trigger)> = map
            .iter()
            .map(|(site, state)| (site.clone(), state.trigger.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Per-site `(site, hits, fired)` counters for every armed site,
    /// sorted by site name.
    pub fn armed_counts() -> Vec<(String, u64, u64)> {
        let map = lock();
        let mut out: Vec<(String, u64, u64)> = map
            .iter()
            .map(|(site, state)| (site.clone(), state.hits, state.fired))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(not(feature = "fault-injection"))]
mod imp {
    use super::Trigger;

    /// No-op without the `fault-injection` feature.
    #[inline(always)]
    pub fn arm(_site: &str, _trigger: Trigger) {}

    /// No-op without the `fault-injection` feature.
    #[inline(always)]
    pub fn disarm(_site: &str) {}

    /// No-op without the `fault-injection` feature.
    #[inline(always)]
    pub fn reset() {}

    /// No-op without the `fault-injection` feature.
    #[inline(always)]
    pub fn set_stage(_stage: u32) {}

    /// Always 0 without the `fault-injection` feature.
    #[inline(always)]
    pub fn stage() -> u32 {
        0
    }

    /// Constant `false` without the `fault-injection` feature — guarded
    /// failure paths compile away entirely.
    #[inline(always)]
    pub fn fires(_site: &str) -> bool {
        false
    }

    /// Always 0 without the `fault-injection` feature.
    #[inline(always)]
    pub fn hit_count(_site: &str) -> u64 {
        0
    }

    /// Always 0 without the `fault-injection` feature.
    #[inline(always)]
    pub fn fired_count(_site: &str) -> u64 {
        0
    }

    /// Constant `false` without the `fault-injection` feature.
    #[inline(always)]
    pub fn any_armed() -> bool {
        false
    }

    /// Always empty without the `fault-injection` feature.
    #[inline(always)]
    pub fn armed() -> Vec<(String, Trigger)> {
        Vec::new()
    }

    /// Always empty without the `fault-injection` feature.
    #[inline(always)]
    pub fn armed_counts() -> Vec<(String, u64, u64)> {
        Vec::new()
    }
}

pub use imp::{
    any_armed, arm, armed, armed_counts, disarm, fired_count, fires, hit_count, reset, set_stage,
    stage,
};

/// The armed schedule as a replayable `GEF_FAULTS` string: `site=trigger`
/// entries sorted by site, comma-separated; empty when nothing is armed.
/// Incident dumps and store quarantine side-cars record it.
pub fn armed_spec() -> String {
    armed()
        .iter()
        .map(|(site, trig)| format!("{site}={}", trig.to_spec()))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global; serialise tests touching it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_registry<T>(f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let out = f();
        reset();
        out
    }

    #[test]
    fn unarmed_sites_never_fire() {
        with_registry(|| {
            assert!(!fires("nope"));
            assert_eq!(hit_count("nope"), 0);
        });
    }

    #[test]
    fn always_fires_every_hit() {
        with_registry(|| {
            arm("t.always", Trigger::Always);
            assert!(fires("t.always"));
            assert!(fires("t.always"));
            assert_eq!(hit_count("t.always"), 2);
            assert_eq!(fired_count("t.always"), 2);
        });
    }

    #[test]
    fn hits_trigger_selects_exact_indices() {
        with_registry(|| {
            arm("t.hits", Trigger::Hits(vec![1, 3]));
            let pattern: Vec<bool> = (0..5).map(|_| fires("t.hits")).collect();
            assert_eq!(pattern, vec![false, true, false, true, false]);
            assert_eq!(fired_count("t.hits"), 2);
        });
    }

    #[test]
    fn first_n_fires_then_stops() {
        with_registry(|| {
            arm("t.first", Trigger::FirstN(2));
            let pattern: Vec<bool> = (0..4).map(|_| fires("t.first")).collect();
            assert_eq!(pattern, vec![true, true, false, false]);
        });
    }

    #[test]
    fn stage_below_tracks_published_stage() {
        with_registry(|| {
            arm("t.stage", Trigger::StageBelow(2));
            set_stage(0);
            assert!(fires("t.stage"));
            set_stage(1);
            assert!(fires("t.stage"));
            set_stage(2);
            assert!(!fires("t.stage"));
        });
    }

    #[test]
    fn seeded_is_deterministic_and_roughly_calibrated() {
        with_registry(|| {
            arm(
                "t.seed",
                Trigger::Seeded {
                    seed: 42,
                    prob: 0.5,
                },
            );
            let run1: Vec<bool> = (0..64).map(|_| fires("t.seed")).collect();
            // Re-arming resets the hit counter → identical sequence.
            arm(
                "t.seed",
                Trigger::Seeded {
                    seed: 42,
                    prob: 0.5,
                },
            );
            let run2: Vec<bool> = (0..64).map(|_| fires("t.seed")).collect();
            assert_eq!(run1, run2);
            let fired = run1.iter().filter(|&&b| b).count();
            assert!((10..=54).contains(&fired), "p=0.5 over 64 hits: {fired}");
        });
    }

    #[test]
    fn armed_snapshot_is_sorted_and_specs_render() {
        with_registry(|| {
            arm("b.site", Trigger::FirstN(2));
            arm("a.site", Trigger::Hits(vec![1, 3]));
            let snap = armed();
            assert_eq!(snap.len(), 2);
            assert_eq!(snap[0], ("a.site".to_string(), Trigger::Hits(vec![1, 3])));
            assert_eq!(snap[0].1.to_spec(), "hits:1|3");
            assert_eq!(snap[1].1.to_spec(), "first:2");
            assert_eq!(armed_spec(), "a.site=hits:1|3,b.site=first:2");
            assert_eq!(Trigger::Always.to_spec(), "always");
            assert_eq!(Trigger::StageBelow(3).to_spec(), "stage<3");
            assert_eq!(
                Trigger::Seeded {
                    seed: 9,
                    prob: 0.25
                }
                .to_spec(),
                "seeded:9:0.25"
            );
        });
    }

    #[test]
    fn disarm_stops_counting() {
        with_registry(|| {
            arm("t.disarm", Trigger::Always);
            assert!(fires("t.disarm"));
            disarm("t.disarm");
            assert!(!fires("t.disarm"));
            assert_eq!(hit_count("t.disarm"), 0);
        });
    }
}
