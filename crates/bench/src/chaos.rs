//! Deterministic fault-schedule generation, shared by the chaos sweep
//! (`xp_chaos`) and the serve load sweep (`xp_serve`).
//!
//! Both harnesses draw random `GEF_FAULTS` schedules from the same
//! generator so a violation found by either reproduces with the printed
//! schedule string; the generator itself is seeded and allocation-light.

/// SplitMix64: tiny, seedable, and good enough to spread schedules
/// across the space deterministically.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next raw 64-bit draw: the SplitMix64 output at the current
    /// state, then the state advances by the golden-ratio increment.
    pub fn next_u64(&mut self) -> u64 {
        let z = gef_trace::hash::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Uniform draw in `0..n` (`n` clamped to at least 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One random `site=trigger` entry in `GEF_FAULTS` syntax, drawn from
/// the given site list and all four env-expressible trigger families.
/// The site-restricted harnesses (`xp_store` sweeps only the four
/// `store.*` disk-fault sites) share the generator with the full-space
/// sweeps so every printed schedule replays with `GEF_FAULTS`.
pub fn random_entry_from(rng: &mut SplitMix, sites: &[&str]) -> String {
    let site = sites[rng.below(sites.len() as u64) as usize];
    let trigger = match rng.below(4) {
        0 => "always".to_string(),
        1 => format!("first:{}", 1 + rng.below(8)),
        2 => {
            let k = 1 + rng.below(3);
            let hits: Vec<String> = (0..k).map(|_| rng.below(16).to_string()).collect();
            format!("hits:{}", hits.join("|"))
        }
        _ => format!(
            "seeded:{}:{:.2}",
            rng.below(1_000_000),
            0.05 + 0.85 * rng.unit()
        ),
    };
    format!("{site}={trigger}")
}

/// A full schedule over the given site list: 1–3 distinct-site entries,
/// rendered as the exact string `GEF_FAULTS` would accept (the replay
/// handle).
pub fn random_schedule_from(rng: &mut SplitMix, sites: &[&str]) -> String {
    let k = 1 + rng.below(3);
    let mut entries: Vec<String> = Vec::new();
    for _ in 0..k {
        let e = random_entry_from(rng, sites);
        let site = e.split('=').next().unwrap_or("");
        if !entries.iter().any(|p| p.starts_with(site)) {
            entries.push(e);
        }
    }
    entries.join(",")
}

/// [`random_schedule_from`] over every registered injection site.
#[cfg(feature = "fault-injection")]
pub fn random_schedule(rng: &mut SplitMix) -> String {
    random_schedule_from(rng, &gef_core::faults::ALL_SITES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix(9);
        let mut b = SplitMix(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix(3);
        for _ in 0..100 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn site_restricted_schedules_stay_on_the_given_sites() {
        let sites = ["store.torn_write", "store.bit_flip"];
        let mut rng = SplitMix(5);
        for _ in 0..50 {
            let s = random_schedule_from(&mut rng, &sites);
            for entry in s.split(',') {
                let site = entry.split('=').next().unwrap();
                assert!(sites.contains(&site), "foreign site in {s}");
            }
        }
    }

    /// The committed `CHAOS_report.json` (`xp_chaos --seed 7`) opens
    /// with these schedules; a generator change would orphan every
    /// printed replay string.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn seed_7_schedules_are_pinned() {
        let mut rng = SplitMix(7);
        let first: Vec<String> = (0..4).map(|_| random_schedule(&mut rng)).collect();
        assert_eq!(
            first,
            [
                "forest.predict_nan=hits:10",
                "store.truncate=hits:9|11|12",
                "forest.predict_nan=hits:15",
                "store.bit_flip=always,pirls.stall=first:6,sampling.domain_collapse=always",
            ]
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn schedules_parse_and_have_distinct_sites() {
        let mut rng = SplitMix(42);
        for _ in 0..50 {
            let s = random_schedule(&mut rng);
            let entries = gef_core::faults::parse_spec(&s).expect("generated schedule parses");
            let mut sites: Vec<&str> = entries.iter().map(|(site, _)| site.as_str()).collect();
            sites.sort_unstable();
            sites.dedup();
            assert_eq!(sites.len(), entries.len(), "duplicate site in {s}");
        }
    }
}
