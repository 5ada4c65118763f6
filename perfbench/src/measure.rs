//! The two kinds of invocation: an untraced run that gives the
//! end-to-end metrics, and a traced run of the same workload and seed
//! that gives the per-layer metrics.

use std::time::{Duration, Instant};

use sc_metrics::ScenarioConfig;
use sc_obs::prof::{ProfReport, Subsystem};
use sc_obs::Registry;

use crate::check::OutputCheck;
use crate::host;
use crate::micro::{self, Rows};
use crate::run::{run_once, time_setup, Mode, Run};
use crate::stats::{median, percentile, LoadTally, SLO_PLT_S};

/// End-to-end metrics, `(name, unit)`, in output order. A change to
/// this list must be mirrored in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("events_per_s", "1/s"),
    ("sim_speed", "s/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("plt_p50_s", "s"),
    ("plt_p95_s", "s"),
    ("load_success_rate", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, in output order. A change to
/// this list must be mirrored in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("simnet.events", "count"),
    ("simnet.timers_fired", "count"),
    ("simnet.queue_depth_hwm", "count"),
    ("simnet.alloc_bytes_per_event", "B"),
    ("simnet.allocs_per_event", "count"),
    ("simnet.dispatch_share", "ratio"),
    ("simnet.bare_ns_per_hop", "ns"),
    ("simnet.bare_ns_per_timer", "ns"),
    ("tcp.ns_per_segment", "ns"),
    ("tcp.share", "ratio"),
    ("tcp.retransmits", "count"),
    ("simnet.packets_dropped", "count"),
    ("simnet.link_queue_wait_p50_us", "us"),
    ("simnet.link_queue_wait_p99_us", "us"),
    ("gfw.ns_per_classify", "ns"),
    ("gfw.classify_share", "ratio"),
    ("gfw.observe_ns_per_packet", "ns"),
    ("gfw.forwarded", "count"),
    ("gfw.drops", "count"),
    ("gfw.rst_injected", "count"),
    ("crypto.aes256_cfb_ns_per_byte", "ns/B"),
    ("crypto.aes256_ctr_ns_per_byte", "ns/B"),
    ("crypto.aes256_key_expand_ns", "ns"),
    ("crypto.hmac_sha256_ns_per_byte", "ns/B"),
    ("crypto.bytemap_ns_per_byte", "ns/B"),
    ("scholarcloud.stream_codec_ns_per_byte", "ns/B"),
    ("scholarcloud.proxy_ns_per_call", "ns"),
    ("scholarcloud.proxy_share", "ratio"),
    ("scholarcloud.tunnels_opened", "count"),
    ("scholarcloud.queued", "count"),
    ("scholarcloud.shed", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.lookups", "count"),
    ("cache.upstream_fetches", "count"),
    ("cache.lookup_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.share", "ratio"),
    ("netproto.http_parse_ns_per_msg", "ns"),
    ("netproto.tls_handshake_us", "us"),
    ("web.loads_started", "count"),
    ("web.loads_ok", "count"),
    ("web.loads_failed", "count"),
    ("web.connections_opened", "count"),
    ("obs.prof_overhead_pct", "%"),
    ("obs.dispatch_overhead_pct", "%"),
    ("obs.traced_rounds", "count"),
];

/// Untraced runs at least this many times, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// `build_scenario` timings taken before the measured runs, on top of
/// the one each run contributes: at least this many, and more until
/// [`SETUP_SHARE`] of the run's seconds are spent.
const SETUP_SAMPLES: usize = 15;
const SETUP_SHARE: f64 = 0.05;
/// Share of each run's wall time spent timing the host reference
/// kernel before the next run.
const REF_SHARE: f64 = 0.1;
/// Wall time a traced invocation keeps for the micro-measurements.
const MICRO_RESERVE: Duration = Duration::from_millis(1500);

/// What an invocation reports: metric rows, human-readable notes, and
/// the output check.
pub struct Outcome {
    pub rows: Rows,
    pub notes: Vec<String>,
    pub check: OutputCheck,
}

/// Runs `cfg` once and feeds it to the output check; `None` when it
/// failed to produce a fingerprint.
fn checked(
    cfg: &ScenarioConfig,
    mode: Mode,
    label: String,
    check: &mut OutputCheck,
) -> Option<Run> {
    match run_once(cfg, mode) {
        Ok(run) => {
            let extra = run
                .registry
                .as_ref()
                .map(|r| registry_mismatches(r, &run))
                .unwrap_or_default();
            check.record(&label, cfg.seed, &run.fingerprint, extra);
            Some(run)
        }
        Err(e) => {
            check.record_error(&label, &e);
            None
        }
    }
}

/// The web layer's own load counters must agree with the loads the
/// scenario returned.
fn registry_mismatches(reg: &Registry, run: &Run) -> Vec<String> {
    let fp = &run.fingerprint;
    [
        ("web.loads_started", fp.attempted),
        ("web.loads_ok", fp.succeeded),
        ("web.loads_failed", fp.failed),
    ]
    .into_iter()
    .filter(|&(name, want)| reg.counter(name) != want as u64)
    .map(|(name, want)| format!("{name}: counter {} != {want} loads", reg.counter(name)))
    .collect()
}

/// Repeats untraced runs, cycling through the workload's scenarios,
/// for `seconds` (and at least once per scenario). Host metrics are
/// medians over runs; simulated metrics pool the loads of one run of
/// each scenario.
pub fn untraced(cfgs: &[ScenarioConfig], seconds: Duration, mut check: OutputCheck) -> Outcome {
    let start = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < SETUP_SAMPLES || start.elapsed() < seconds.mul_f64(SETUP_SHARE) {
        setups.push(time_setup(&cfgs[setups.len() % cfgs.len()]));
    }
    let mut runs = Vec::new();
    let mut refs = Vec::new();
    loop {
        let label = format!("untraced run {}", runs.len() + 1);
        let cfg = &cfgs[runs.len() % cfgs.len()];
        // Time the host reference kernel for a tenth of the previous
        // run's length, so long runs get as many passes as short ones.
        let ref_start = Instant::now();
        let last_run = runs.last().map_or(0.0, |r: &Run| r.run_s);
        loop {
            refs.push(host::reference_s());
            if ref_start.elapsed().as_secs_f64() >= REF_SHARE * last_run {
                break;
            }
        }
        let Some(run) = checked(cfg, Mode::Plain, label, &mut check) else {
            break;
        };
        let last = Duration::from_secs_f64(run.setup_s + run.run_s);
        runs.push(run);
        if runs.len() >= MIN_RUNS.max(cfgs.len()) && start.elapsed() + last > seconds {
            break;
        }
    }
    if runs.len() < cfgs.len() {
        return Outcome {
            rows: Vec::new(),
            notes: Vec::new(),
            check,
        };
    }
    setups.extend(runs.iter().map(|r| r.setup_s));
    let per_run = |f: &dyn Fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    // Host timings are scaled to the reference host speed (see host.rs).
    let speed = median(&refs) / host::REFERENCE_S;
    let events_per_s = per_run(&|r| r.events() as f64 / r.run_s);
    let sim_speed = per_run(&|r| r.sim_s / r.run_s);
    let setup_s = median(&setups);
    let mut t = LoadTally::default();
    for r in &runs[..cfgs.len()] {
        t.merge(&r.tally);
    }
    let pooled =
        |f: &dyn Fn(&Run) -> f64| runs[..cfgs.len()].iter().map(f).sum::<f64>() / cfgs.len() as f64;
    let p50 = percentile(&t.ok_plts, 0.50).expect("fingerprinted runs have a p50");
    let p95 = percentile(&t.ok_plts, 0.95).expect("fingerprinted runs have a p95");
    let rows = vec![
        ("events_per_s", events_per_s * speed, "1/s"),
        ("sim_speed", sim_speed * speed, "s/s"),
        ("setup_s", setup_s / speed, "s"),
        (
            "peak_heap_mb",
            per_run(&|r| r.peak_heap_bytes as f64 / 1e6),
            "MB",
        ),
        ("plt_p50_s", p50.value, "s"),
        ("plt_p95_s", p95.value, "s"),
        ("load_success_rate", t.success_rate(), "ratio"),
    ];
    let notes = vec![
        format!(
            "untraced: {} runs of {} scenario(s) in {:.1} s (host metrics: median of runs), setup_s median of {} builds",
            runs.len(),
            cfgs.len(),
            start.elapsed().as_secs_f64(),
            setups.len()
        ),
        format!(
            "host reference kernel: median {:.4} s over {} passes, scale {speed:.4}; unscaled events_per_s = {events_per_s}, sim_speed = {sim_speed}, setup_s = {setup_s}",
            median(&refs),
            refs.len()
        ),
        format!(
            "loads: {} attempted, {} succeeded, {} failed; load_failure_rate = {} ({} / {})",
            t.attempted,
            t.succeeded(),
            t.failed(),
            t.failure_rate(),
            t.failed(),
            t.attempted
        ),
        format!("plt_p50_s over {} successful loads, {} beyond it", p50.samples, p50.beyond),
        format!("plt_p95_s over {} successful loads, {} beyond it", p95.samples, p95.beyond),
        format!("slo_attainment = {} (loads within the {SLO_PLT_S} s plt-p95 SLO over attempted loads)", t.slo_attainment()),
        format!("plr = {} (Figure 5c loss rate, mean over scenarios)", pooled(&|r| r.fingerprint.plr)),
        format!("per-run finish wall s: {:?}", runs.iter().map(|r| r.run_s).collect::<Vec<_>>()),
        format!("events_processed per scenario: {:?}", runs[..cfgs.len()].iter().map(Run::events).collect::<Vec<_>>()),
    ];
    Outcome { rows, notes, check }
}

/// The profiler layers, as `(layer label, subsystem)`. `event_loop` is
/// what remains after every nested scope: pure simnet dispatch plus
/// whatever app code no scope claims.
const LAYERS: [(&str, Subsystem); 5] = [
    ("simnet.dispatch", Subsystem::EventLoop),
    ("tcp", Subsystem::Tcp),
    ("gfw.classify", Subsystem::GfwClassify),
    ("scholarcloud.proxy", Subsystem::Proxy),
    ("cache", Subsystem::Cache),
];

fn share(p: &ProfReport, sub: Subsystem) -> f64 {
    p.self_ns(sub) as f64 / p.total_ns().max(1) as f64
}

fn ns_per_scope(p: &ProfReport, sub: Subsystem) -> f64 {
    p.self_ns(sub) as f64 / p.scopes(sub).max(1) as f64
}

/// Repeats rounds of (untraced, profiled, dispatcher-installed) runs,
/// cycling through the workload's scenarios, for `seconds` minus the
/// micro-measurement reserve, then times each layer's public functions
/// directly. Counts come from the first round (scenario 0).
pub fn traced(cfgs: &[ScenarioConfig], seconds: Duration, mut check: OutputCheck) -> Outcome {
    let start = Instant::now();
    let budget = seconds.saturating_sub(MICRO_RESERVE);
    let (mut plain, mut profd, mut disp) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let round_start = Instant::now();
        let n = plain.len() + 1;
        let cfg = &cfgs[plain.len() % cfgs.len()];
        let runs = [Mode::Plain, Mode::Prof, Mode::Dispatch]
            .map(|mode| checked(cfg, mode, format!("traced round {n} {mode:?}"), &mut check));
        let [Some(a), Some(b), Some(c)] = runs else {
            break;
        };
        plain.push(a);
        profd.push(b);
        disp.push(c);
        if start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    if plain.is_empty() {
        return Outcome {
            rows: Vec::new(),
            notes: Vec::new(),
            check,
        };
    }
    let reports: Vec<ProfReport> = profd.iter().filter_map(|r| r.prof).collect();
    let prof_med =
        |f: &dyn Fn(&ProfReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    let wall = |runs: &[Run]| median(&runs.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let overhead = |runs: &[Run]| (wall(runs) / wall(&plain) - 1.0) * 100.0;
    let base = &plain[0];
    let events = base.events() as f64;
    let reg = disp[0]
        .registry
        .as_ref()
        .expect("dispatch runs carry a registry");
    let count = |name: &str| reg.counter(name) as f64;
    let queue_us = |q: f64| {
        reg.histogram("simnet.link_queue_us")
            .map_or(0, |h| h.quantile(q)) as f64
    };
    let lookups = base.cache.served + base.cache.misses;

    let mut rows: Rows = vec![
        ("simnet.events", events, "count"),
        ("simnet.timers_fired", base.timers_fired as f64, "count"),
        (
            "simnet.queue_depth_hwm",
            base.queue_depth_hwm as f64,
            "count",
        ),
        (
            "simnet.alloc_bytes_per_event",
            base.alloc_bytes as f64 / events,
            "B",
        ),
        (
            "simnet.allocs_per_event",
            base.allocs as f64 / events,
            "count",
        ),
        (
            "simnet.dispatch_share",
            prof_med(&|p| share(p, Subsystem::EventLoop)),
            "ratio",
        ),
        (
            "tcp.ns_per_segment",
            prof_med(&|p| ns_per_scope(p, Subsystem::Tcp)),
            "ns",
        ),
        (
            "tcp.share",
            prof_med(&|p| share(p, Subsystem::Tcp)),
            "ratio",
        ),
        ("tcp.retransmits", count("simnet.tcp_retransmits"), "count"),
        (
            "simnet.packets_dropped",
            count("simnet.packets_dropped"),
            "count",
        ),
        ("simnet.link_queue_wait_p50_us", queue_us(0.50), "us"),
        ("simnet.link_queue_wait_p99_us", queue_us(0.99), "us"),
        (
            "gfw.ns_per_classify",
            prof_med(&|p| ns_per_scope(p, Subsystem::GfwClassify)),
            "ns",
        ),
        (
            "gfw.classify_share",
            prof_med(&|p| share(p, Subsystem::GfwClassify)),
            "ratio",
        ),
        ("gfw.forwarded", count("gfw.forwarded"), "count"),
        ("gfw.drops", count("gfw.drops"), "count"),
        ("gfw.rst_injected", count("gfw.rst_injected"), "count"),
        (
            "scholarcloud.proxy_ns_per_call",
            prof_med(&|p| ns_per_scope(p, Subsystem::Proxy)),
            "ns",
        ),
        (
            "scholarcloud.proxy_share",
            prof_med(&|p| share(p, Subsystem::Proxy)),
            "ratio",
        ),
        (
            "scholarcloud.tunnels_opened",
            count("scholarcloud.tunnels_opened"),
            "count",
        ),
        ("scholarcloud.queued", count("scholarcloud.queued"), "count"),
        ("scholarcloud.shed", count("scholarcloud.shed"), "count"),
        (
            "cache.hit_rate",
            base.cache.served as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        ("cache.lookups", lookups as f64, "count"),
        (
            "cache.upstream_fetches",
            base.cache.upstream_fetches as f64,
            "count",
        ),
        (
            "cache.share",
            prof_med(&|p| share(p, Subsystem::Cache)),
            "ratio",
        ),
        ("web.loads_started", count("web.loads_started"), "count"),
        ("web.loads_ok", count("web.loads_ok"), "count"),
        ("web.loads_failed", count("web.loads_failed"), "count"),
        (
            "web.connections_opened",
            count("web.connections_opened"),
            "count",
        ),
        ("obs.prof_overhead_pct", overhead(&profd), "%"),
        ("obs.dispatch_overhead_pct", overhead(&disp), "%"),
        ("obs.traced_rounds", plain.len() as f64, "count"),
    ];
    let seed = cfgs[0].seed;
    rows.extend(micro::crypto(seed));
    rows.extend(micro::gfw(seed));
    rows.extend(micro::cache(seed));
    rows.extend(micro::netproto(seed));
    rows.extend(micro::bare_sim(seed));

    let mut shares: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&(name, sub)| (name, prof_med(&|p| share(p, sub))))
        .collect();
    let listed = |s: &[(&str, f64)]| {
        s.iter()
            .map(|(n, v)| format!("{n} {:.1}%", v * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut notes = vec![
        format!(
            "traced: {} rounds of (untraced, prof, dispatcher) runs; untraced run {:.3} s, prof {:.3} s, dispatcher {:.3} s (medians)",
            plain.len(),
            wall(&plain),
            wall(&profd),
            wall(&disp)
        ),
        format!("layer shares of profiled time: {}", listed(&shares)),
    ];
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!("top three layers: {}", listed(&shares[..3])));
    Outcome { rows, notes, check }
}
