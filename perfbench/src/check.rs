//! The output check every run of an invocation goes through.

use std::collections::BTreeMap;

use crate::fingerprint::{Fingerprint, Pinned};

/// What one scenario seed must reproduce.
#[derive(Default)]
struct Slot {
    pinned: Option<Pinned>,
    first: Option<Fingerprint>,
}

/// Compares each run's fingerprint with the one pinned for its
/// scenario seed (when pinned) and with the first run of the same
/// scenario in this invocation, so an unpinned seed is still checked
/// for exact repeatability across runs and instrumentation modes.
pub struct OutputCheck {
    slots: BTreeMap<u64, Slot>,
    /// Loads each run must start: clients × loads per client.
    expected_loads: usize,
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed the check.
    pub failed: u64,
    /// One line per failed run.
    pub problems: Vec<String>,
}

impl OutputCheck {
    /// `pins` maps each scenario seed of the invocation to its pinned
    /// fingerprint, if any.
    pub fn new(
        pins: impl IntoIterator<Item = (u64, Option<Pinned>)>,
        expected_loads: usize,
    ) -> Self {
        let slots = pins
            .into_iter()
            .map(|(seed, pinned)| {
                (
                    seed,
                    Slot {
                        pinned,
                        first: None,
                    },
                )
            })
            .collect();
        OutputCheck {
            slots,
            expected_loads,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Roles of the pinned scenario seeds, e.g. `["primary"]`; empty
    /// when none is pinned.
    pub fn pinned_roles(&self) -> Vec<&str> {
        self.slots
            .values()
            .filter_map(|s| s.pinned.as_ref().map(|p| p.role.as_str()))
            .collect()
    }

    /// Checks one run of scenario `seed`; `extra` holds any further
    /// mismatches the caller found (e.g. registry counters that
    /// disagree with the loads).
    pub fn record(&mut self, label: &str, seed: u64, fp: &Fingerprint, mut extra: Vec<String>) {
        self.attempted += 1;
        if fp.attempted != self.expected_loads {
            extra.push(format!(
                "attempted: expected {} loads (clients x loads), got {}",
                self.expected_loads, fp.attempted
            ));
        }
        let slot = self.slots.entry(seed).or_default();
        if let Some(p) = &slot.pinned {
            extra.extend(
                fp.mismatches(&p.fingerprint)
                    .into_iter()
                    .map(|m| format!("pinned {m}")),
            );
        }
        match &slot.first {
            Some(first) => extra.extend(
                fp.mismatches(first)
                    .into_iter()
                    .map(|m| format!("first run {m}")),
            ),
            None => slot.first = Some(fp.clone()),
        }
        if !extra.is_empty() {
            self.failed += 1;
            self.problems.push(format!(
                "{label} (scenario seed {seed}): {}",
                extra.join("; ")
            ));
        }
    }

    /// Counts a run that could not produce a fingerprint at all.
    pub fn record_error(&mut self, label: &str, err: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(format!("{label}: {err}"));
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::LoadTally;

    fn fp(events: u64) -> Fingerprint {
        let tally = LoadTally::from_loads((0..300).map(|i| (i % 10 == 0, Some(i as f64 / 50.0))));
        Fingerprint::of(events, &tally, 0.01).unwrap()
    }

    #[test]
    fn unpinned_runs_must_repeat_the_first_of_their_scenario() {
        let mut c = OutputCheck::new([(1, None), (2, None)], 300);
        c.record("plain 1", 1, &fp(10), vec![]);
        c.record("plain 2", 2, &fp(20), vec![]); // another scenario may differ
        c.record("plain 3", 1, &fp(10), vec![]);
        assert!(c.correct());
        assert!(c.pinned_roles().is_empty());
        c.record("prof 1", 1, &fp(11), vec![]);
        assert_eq!((c.attempted, c.failed), (4, 1));
        assert!(
            c.problems[0].starts_with("prof 1 (scenario seed 1): first run events"),
            "{:?}",
            c.problems
        );
        assert!(!c.correct());
    }

    #[test]
    fn pinned_mismatch_fails_even_the_first_run() {
        let pinned = Pinned {
            role: "primary".into(),
            fingerprint: fp(10),
        };
        let mut c = OutputCheck::new([(1, Some(pinned))], 300);
        assert_eq!(c.pinned_roles(), ["primary"]);
        c.record("plain 1", 1, &fp(12), vec![]);
        assert_eq!(c.failed, 1);
        assert!(
            c.problems[0].contains("pinned events: expected 10, got 12"),
            "{:?}",
            c.problems
        );
    }

    #[test]
    fn wrong_load_count_and_extra_problems_fail() {
        let mut c = OutputCheck::new([(1, None)], 301);
        c.record("plain 1", 1, &fp(10), vec!["web.loads_ok: 1 != 2".into()]);
        assert_eq!(c.failed, 1);
        assert!(c.problems[0].contains("web.loads_ok") && c.problems[0].contains("expected 301"));
        c.record_error("plain 2", "p95 refused");
        assert_eq!((c.attempted, c.failed), (2, 2));
    }
}
