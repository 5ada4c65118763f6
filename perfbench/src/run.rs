//! One seeded scenario run, built and finished through the public
//! `sc_metrics` API, in one of three instrumentation modes.

use std::time::Instant;

use sc_metrics::{build_scenario, ScenarioConfig};
use sc_obs::prof::{self, ProfReport};
use sc_obs::{Dispatcher, Registry};

use crate::fingerprint::Fingerprint;
use crate::stats::LoadTally;

/// How a run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Profiler off, no obs dispatcher: the end-to-end measurement.
    Plain,
    /// `sc_obs::prof` switched on.
    Prof,
    /// An `sc_obs::Dispatcher` without sinks installed, so the
    /// registry collects every counter and histogram.
    Dispatch,
}

/// Summed `CacheStats` over every cache shard of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Requests answered from cache state (hits, coalesced waiters,
    /// 304-refreshed entries).
    pub served: u64,
    /// Cacheable requests that needed a full upstream body.
    pub misses: u64,
    /// Upstream fetches the caches recorded.
    pub upstream_fetches: u64,
}

/// Everything one run yields.
pub struct Run {
    /// Wall time of `build_scenario`.
    pub setup_s: f64,
    /// Wall time of `BuiltScenario::finish`.
    pub run_s: f64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    pub timers_fired: u64,
    pub queue_depth_hwm: u64,
    /// Bytes and calls the counting allocator saw during the run.
    pub alloc_bytes: u64,
    pub allocs: u64,
    /// Live-heap high-water mark above the level before the build.
    pub peak_heap_bytes: u64,
    pub tally: LoadTally,
    pub fingerprint: Fingerprint,
    pub cache: CacheTotals,
    /// Set in [`Mode::Prof`].
    pub prof: Option<ProfReport>,
    /// Set in [`Mode::Dispatch`].
    pub registry: Option<Registry>,
}

impl Run {
    pub fn events(&self) -> u64 {
        self.fingerprint.events
    }
}

/// Builds and finishes `cfg` once under `mode`.
pub fn run_once(cfg: &ScenarioConfig, mode: Mode) -> Result<Run, String> {
    let guard = (mode == Mode::Dispatch).then(|| Dispatcher::new().install());
    if mode == Mode::Prof {
        prof::reset();
        prof::set_enabled(true);
    }
    prof::reset_alloc_peak();
    let before = prof::alloc_stats();

    let t0 = Instant::now();
    let built = build_scenario(cfg);
    let t1 = Instant::now();
    let caches = if built.sc_fleet_caches.is_empty() {
        built.sc_cache.iter().cloned().collect()
    } else {
        built.sc_fleet_caches.clone()
    };
    let out = built.finish();
    let t2 = Instant::now();

    let after = prof::alloc_stats();
    let prof_report = (mode == Mode::Prof).then(|| {
        prof::set_enabled(false);
        prof::report()
    });
    let registry = guard.map(|g| g.uninstall().into_registry());

    let mut cache = CacheTotals::default();
    for c in &caches {
        let s = c.stats();
        cache.served += s.served_from_cache();
        cache.misses += s.misses;
        cache.upstream_fetches += s.upstream_fetches.len() as u64;
    }
    let tally = LoadTally::from_loads(
        out.loads
            .iter()
            .flatten()
            .map(|r| (r.failed, r.plt.map(|d| d.as_secs_f64()))),
    );
    let fingerprint = Fingerprint::of(out.events_processed, &tally, out.plr)?;
    Ok(Run {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        sim_s: out.sim_end.as_secs_f64(),
        timers_fired: out.timers_fired,
        queue_depth_hwm: out.queue_depth_hwm,
        alloc_bytes: after.allocated_bytes - before.allocated_bytes,
        allocs: after.allocations - before.allocations,
        peak_heap_bytes: after.peak_bytes.saturating_sub(before.in_use_bytes),
        tally,
        fingerprint,
        cache,
        prof: prof_report,
        registry,
    })
}

/// Wall time of `build_scenario` alone (the scenario is dropped
/// unrun).
pub fn time_setup(cfg: &ScenarioConfig) -> f64 {
    let t0 = Instant::now();
    let built = build_scenario(cfg);
    let dt = t0.elapsed().as_secs_f64();
    drop(built);
    dt
}
