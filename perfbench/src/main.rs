//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --pin --workload NAME --seed N [--role ROLE]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics from untraced runs
//! (profiler off, no obs dispatcher). `--trace 1` measures the
//! per-layer metrics from traced runs of the same workload and seed.
//! Every run passes the output check (`check.rs`). The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted`
//! counts scenario runs and `failed` the runs that failed the check.
//!
//! `--pin` prints the workload's `fingerprints.tsv` line for a seed.
//! See `README.md` for the workloads and the metric map.

mod check;
mod fingerprint;
mod host;
mod measure;
mod micro;
mod run;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Duration;

use sc_obs::prof;

use crate::check::OutputCheck;
use crate::measure::{END_TO_END, PER_LAYER};

/// Peak heap and bytes per event come from counting every allocation.
#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       perfbench --pin --workload NAME --seed N [--role ROLE]";

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut pin) = (None, None, None, None, None);
    let mut role = "sweep".to_string();
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = Some(());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--role" => role = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if pin.is_some() {
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: false,
            pin: Some(role),
        });
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = trace.ok_or("--trace is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pin: None,
    })
}

/// `nproc`, the compiler that built this binary, and the commit of the
/// working directory (`unknown` outside a git checkout).
fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "nproc={nproc} rustc=\"{}\" commit={commit}",
        env!("PERFBENCH_RUSTC")
    )
}

/// The result line: every expected metric, in `expected` order.
fn result_json(
    check: &OutputCheck,
    rows: &[(&str, f64, &str)],
    expected: &[(&str, &str)],
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in expected {
        let matching: Vec<_> = rows.iter().filter(|r| r.0 == name).collect();
        let [&(_, value, got_unit)] = matching[..] else {
            return Err(format!("metric {name} reported {} times", matching.len()));
        };
        if got_unit != unit || !value.is_finite() {
            return Err(format!(
                "metric {name} = {value} {got_unit}, expected a finite value in {unit}"
            ));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if rows.len() != expected.len() {
        return Err(format!(
            "{} metrics measured, {} expected",
            rows.len(),
            expected.len()
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.correct(),
        check.attempted,
        check.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cfgs = w.configs(args.seed);

    if let Some(role) = args.pin {
        for cfg in &cfgs {
            match run::run_once(cfg, run::Mode::Plain) {
                Ok(r) => println!("{}", r.fingerprint.to_line(w.name, cfg.seed, &role)),
                Err(e) => {
                    eprintln!("perfbench: {} scenario seed {}: {e}", w.name, cfg.seed);
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let pins: Result<Vec<_>, String> = cfgs
        .iter()
        .map(|c| {
            Ok((
                c.seed,
                fingerprint::pinned(fingerprint::PINNED, w.name, c.seed)?,
            ))
        })
        .collect();
    let check = match pins {
        Ok(pins) => OutputCheck::new(pins, cfgs[0].clients * cfgs[0].loads),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} trace={} {}",
        w.name,
        args.seed,
        args.trace as u8,
        provenance()
    );
    println!("workload: {}", w.why);
    let roles = check.pinned_roles();
    println!(
        "output check: {} of {} scenario seeds pinned ({}); every run must also repeat its scenario's first run exactly",
        roles.len(),
        cfgs.len(),
        if roles.is_empty() { "none".to_string() } else { roles.join(", ") }
    );
    let seconds = Duration::from_secs(args.seconds);
    let (outcome, expected) = if args.trace {
        (measure::traced(&cfgs, seconds, check), &PER_LAYER[..])
    } else {
        (measure::untraced(&cfgs, seconds, check), &END_TO_END[..])
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in &outcome.check.problems {
        println!("OUTPUT CHECK FAILED {problem}");
    }
    for (name, value, unit) in &outcome.rows {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    match result_json(&outcome.check, &outcome.rows, expected) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::Rows;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_measure_and_pin_invocations() {
        let a = args("--workload ss_knee_240 --seed 3 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("ss_knee_240", 3, 20, true)
        );
        assert!(a.pin.is_none());
        let p = args("--pin --workload tor_meek_120 --seed 9 --role held_out").unwrap();
        assert_eq!(p.pin.as_deref(), Some("held_out"));
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload ss_knee_240 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload ss_knee_240 --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload ss_knee_240 --seed 1 --trace 0").is_err());
    }

    /// `BENCHMARK.json` must declare exactly the metrics the code emits.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        for w in &workloads::WORKLOADS {
            let decl = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why);
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + workloads::WORKLOADS.len()
        );
    }

    #[test]
    fn result_line_requires_every_metric_once() {
        let mut check = OutputCheck::new([], 0);
        check.attempted = 1;
        let rows: Rows = vec![("a", 1.5, "s"), ("b", 2.0, "count")];
        let line = result_json(&check, &rows, &[("a", "s"), ("b", "count")]).unwrap();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1.5, "unit": "s"}, "b": {"value": 2, "unit": "count"}}}"#
        );
        assert!(result_json(&check, &rows, &[("a", "s")]).is_err());
        assert!(result_json(&check, &rows[..1], &[("a", "s"), ("b", "count")]).is_err());
        assert!(result_json(&check, &[("a", f64::NAN, "s")], &[("a", "s")]).is_err());
    }
}
