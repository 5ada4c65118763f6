//! The output check: a run's behavioural fingerprint, compared exactly
//! with the fingerprint pinned for its workload and seed in
//! `fingerprints.tsv`, and with every other run of the same invocation.
//!
//! The simulator is deterministic per seed, so every field repeats
//! exactly; a difference means the program's behaviour changed. Floats
//! are written with Rust's shortest round-trip formatting, so a pinned
//! value parses back to the identical `f64`.

use crate::stats::{percentile, LoadTally};

/// The pinned fingerprints, one line per `(workload, seed)`.
pub const PINNED: &str = include_str!("../fingerprints.tsv");

/// Column order of `fingerprints.tsv` after `workload seed role`.
const COLUMNS: [&str; 9] = [
    "events",
    "attempted",
    "succeeded",
    "failed",
    "plt_p50_s",
    "plt_p95_s",
    "load_failure_rate",
    "slo_attainment",
    "plr",
];

/// What one seeded run of a workload must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub events: u64,
    pub attempted: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub plt_p50_s: f64,
    pub plt_p95_s: f64,
    pub load_failure_rate: f64,
    pub slo_attainment: f64,
    pub plr: f64,
}

impl Fingerprint {
    /// The fingerprint of a finished run; fails when a PLT percentile
    /// has too few samples beyond it to be reported.
    pub fn of(events: u64, tally: &LoadTally, plr: f64) -> Result<Fingerprint, String> {
        Ok(Fingerprint {
            events,
            attempted: tally.attempted,
            succeeded: tally.succeeded(),
            failed: tally.failed(),
            plt_p50_s: percentile(&tally.ok_plts, 0.50)?.value,
            plt_p95_s: percentile(&tally.ok_plts, 0.95)?.value,
            load_failure_rate: tally.failure_rate(),
            slo_attainment: tally.slo_attainment(),
            plr,
        })
    }

    fn fields(&self) -> [String; 9] {
        [
            self.events.to_string(),
            self.attempted.to_string(),
            self.succeeded.to_string(),
            self.failed.to_string(),
            format!("{:?}", self.plt_p50_s),
            format!("{:?}", self.plt_p95_s),
            format!("{:?}", self.load_failure_rate),
            format!("{:?}", self.slo_attainment),
            format!("{:?}", self.plr),
        ]
    }

    /// One `fingerprints.tsv` line.
    pub fn to_line(&self, workload: &str, seed: u64, role: &str) -> String {
        format!("{workload}\t{seed}\t{role}\t{}", self.fields().join("\t"))
    }

    /// Parses the columns after `workload seed role`.
    fn parse(cols: &[&str]) -> Result<Fingerprint, String> {
        if cols.len() != COLUMNS.len() {
            return Err(format!(
                "expected {} columns, got {}",
                COLUMNS.len(),
                cols.len()
            ));
        }
        fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("bad number {s:?}"))
        }
        Ok(Fingerprint {
            events: num(cols[0])?,
            attempted: num(cols[1])?,
            succeeded: num(cols[2])?,
            failed: num(cols[3])?,
            plt_p50_s: num(cols[4])?,
            plt_p95_s: num(cols[5])?,
            load_failure_rate: num(cols[6])?,
            slo_attainment: num(cols[7])?,
            plr: num(cols[8])?,
        })
    }

    /// Every field that differs from `expected`, as `name: expected
    /// X, got Y`. Empty when the two match exactly.
    pub fn mismatches(&self, expected: &Fingerprint) -> Vec<String> {
        COLUMNS
            .iter()
            .zip(expected.fields().iter().zip(self.fields().iter()))
            .filter(|(_, (want, got))| want != got)
            .map(|(name, (want, got))| format!("{name}: expected {want}, got {got}"))
            .collect()
    }
}

/// A pinned fingerprint with the role its seed plays.
#[derive(Debug, Clone, PartialEq)]
pub struct Pinned {
    /// `primary` (the development seed), `held_out` (not looked at
    /// while a change is written) or `sweep`.
    pub role: String,
    pub fingerprint: Fingerprint,
}

/// Looks up the fingerprint pinned for `(workload, seed)` in `table`
/// (the format of `fingerprints.tsv`; `#` starts a comment line).
pub fn pinned(table: &str, workload: &str, seed: u64) -> Result<Option<Pinned>, String> {
    for (i, line) in table.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let bad = |e: String| format!("fingerprints.tsv line {}: {e}", i + 1);
        if cols.len() < 3 {
            return Err(bad("too few columns".into()));
        }
        let line_seed: u64 = cols[1]
            .parse()
            .map_err(|_| bad(format!("bad seed {:?}", cols[1])))?;
        if cols[0] == workload && line_seed == seed {
            let fingerprint = Fingerprint::parse(&cols[3..]).map_err(bad)?;
            return Ok(Some(Pinned {
                role: cols[2].to_string(),
                fingerprint,
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint {
            events: 806_586,
            attempted: 1440,
            succeeded: 1438,
            failed: 2,
            plt_p50_s: 2.345678,
            plt_p95_s: 4.1,
            load_failure_rate: 2.0 / 1440.0,
            slo_attainment: 0.99,
            plr: 0.000_341_2,
        }
    }

    #[test]
    fn line_round_trips_exactly() {
        let fp = sample();
        let table = format!("# header\n\n{}\n", fp.to_line("w", 7, "primary"));
        let got = pinned(&table, "w", 7).unwrap().unwrap();
        assert_eq!(got.role, "primary");
        assert_eq!(got.fingerprint, fp);
        assert!(got.fingerprint.mismatches(&fp).is_empty());
    }

    #[test]
    fn unpinned_seed_or_workload_is_none() {
        let table = sample().to_line("w", 7, "primary");
        assert_eq!(pinned(&table, "w", 8).unwrap(), None);
        assert_eq!(pinned(&table, "v", 7).unwrap(), None);
    }

    #[test]
    fn any_difference_is_a_mismatch() {
        let want = sample();
        let mut got = sample();
        got.events += 1;
        got.plr = f64::from_bits(want.plr.to_bits() + 1); // one ulp
        let m = got.mismatches(&want);
        assert_eq!(m.len(), 2, "{m:?}");
        assert!(
            m[0].starts_with("events: expected 806586, got 806587"),
            "{m:?}"
        );
        assert!(m[1].starts_with("plr: "), "{m:?}");
    }

    #[test]
    fn malformed_pin_is_an_error() {
        assert!(pinned("w\t7\tprimary\t1\t2", "w", 7).is_err());
        assert!(pinned("w\tseven\tprimary", "w", 7).is_err());
    }

    #[test]
    fn refused_percentile_has_no_fingerprint() {
        let tally = LoadTally::from_loads((0..50).map(|i| (false, Some(i as f64))));
        assert!(Fingerprint::of(1, &tally, 0.0).is_err());
    }
}
