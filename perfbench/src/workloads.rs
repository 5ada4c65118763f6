//! The four seeded workloads. Each is a closed loop per simulated
//! client: the next page load starts one interval after the previous
//! start, or 1 ms after the previous load ends if it overran.

use sc_metrics::{Method, ScenarioConfig};
use sc_simnet::time::SimDuration;

/// One benchmark workload: a name, the reason it is in the set, the
/// scenario it builds for a seed, and how many independent scenarios
/// (each with its own seed) one invocation pools its simulated metrics
/// over.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub config: fn(u64) -> ScenarioConfig,
    pub scenarios: usize,
}

impl Workload {
    /// The scenarios of one invocation with `--seed seed`: scenario `i`
    /// runs with seed `seed ^ (i << 32)`, so scenario 0 runs `seed`
    /// itself.
    pub fn configs(&self, seed: u64) -> Vec<ScenarioConfig> {
        (0..self.scenarios as u64)
            .map(|i| (self.config)(seed ^ (i << 32)))
            .collect()
    }
}

/// The Figure-7 shape of `sc_metrics::fig7_method`: 3 loads, 12 s
/// interval, 30 s timeout, HTTPS page, cache off.
fn fig7(method: Method, clients: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(method, seed);
    cfg.clients = clients;
    cfg.loads = 3;
    cfg.interval = SimDuration::from_secs(12);
    cfg.timeout = SimDuration::from_secs(30);
    cfg
}

fn sc_tunnel_480(seed: u64) -> ScenarioConfig {
    fig7(Method::ScholarCloud, 480, seed)
}

fn sc_gateway_cache_480(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
    cfg.clients = 480;
    cfg.loads = 3;
    cfg.interval = SimDuration::from_secs(30);
    cfg.timeout = SimDuration::from_secs(25);
    cfg.sc_http_page = true;
    cfg.sc_fleet = 3;
    cfg.sc_cache_bytes = Some(256 * 1024);
    cfg.origin_max_age = Some(20);
    cfg
}

fn ss_knee_240(seed: u64) -> ScenarioConfig {
    fig7(Method::Shadowsocks, 240, seed)
}

fn tor_meek_120(seed: u64) -> ScenarioConfig {
    fig7(Method::Tor, 120, seed)
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sc_tunnel_480",
        why: "ScholarCloud at 480 clients over the blinded tunnel: the paper's system at target scale (ByteMap, GFW classify, proxy tunnel path)",
        config: sc_tunnel_480,
        scenarios: 1,
    },
    Workload {
        name: "sc_gateway_cache_480",
        why: "ScholarCloud gateway mode, 3-member fleet, 256 KiB shared cache: HTTP-aware proxying, cache lookups, fills, revalidations, peer fetches",
        config: sc_gateway_cache_480,
        scenarios: 1,
    },
    Workload {
        name: "ss_knee_240",
        why: "Shadowsocks past its Figure-7 knee, 12 seeds pooled: AES-256-CFB, TCP and link queues under loss; bypasses the ScholarCloud proxy, cache and blinding",
        config: ss_knee_240,
        // Past the knee a single run's PLT percentiles and success rate
        // swing by about 20% from seed to seed; pooling twelve runs
        // narrows that to a spread a 20% bound can gate.
        scenarios: 12,
    },
    Workload {
        name: "tor_meek_120",
        why: "Tor over meek at 120 clients: the densest event load, Tor cells and TLS/AES-CTR traffic no other workload reaches",
        config: tor_meek_120,
        scenarios: 1,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
