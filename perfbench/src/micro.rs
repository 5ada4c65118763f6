//! Per-layer costs the benchmark measures itself, by calling each
//! layer's public functions on seeded inputs: crypto primitives, the
//! ScholarCloud stream codec, GFW flow classification, the content
//! cache, HTTP parsing, the TLS handshake, and a bare simulator.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use sc_cache::{CacheConfig, CachedResponse, ContentCache};
use sc_core::{Hello, StreamCodec};
use sc_crypto::blinding::{Blinder, ByteMap};
use sc_crypto::hmac::hmac_sha256;
use sc_crypto::modes::{Cfb, Ctr};
use sc_crypto::{Aes, BlindingScheme, KeySize};
use sc_gfw::{FlowTable, GfwConfig};
use sc_netproto::http::{HttpParser, HttpRequest, HttpResponse};
use sc_netproto::tls::{TlsClient, TlsServer};
use sc_simnet::prelude::*;

/// Wall time each micro-measurement gets.
const BUDGET: Duration = Duration::from_millis(120);
/// Target length of one timed batch.
const BATCH: Duration = Duration::from_millis(2);
/// The buffer sizes crypto is timed on: a small control message and a
/// full segment.
const SIZES: [usize; 2] = [64, 1400];

/// SplitMix64: the benchmark's seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_ba5e_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    fn key(&mut self) -> [u8; 32] {
        self.bytes(32).try_into().expect("32 bytes")
    }
}

/// Median nanoseconds per unit of work: `f` does `units` units per
/// call; calls are grouped into batches of about [`BATCH`] and
/// batches repeat for [`BUDGET`].
fn ns_per_unit(units: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().max(Duration::from_nanos(50));
    let calls = (BATCH.as_nanos() / one.as_nanos()).max(1) as u32;
    median_over_budget(|| {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        t.elapsed().as_nanos() as f64 / (calls as f64 * units)
    })
}

/// Median of `sample()` repeated for [`BUDGET`] (at least 5 times).
fn median_over_budget(mut sample: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < BUDGET {
        samples.push(sample());
    }
    crate::stats::median(&samples)
}

/// Per-byte cost of `apply` over one buffer of each of [`SIZES`].
fn ns_per_byte(rng: &mut Rng, mut apply: impl FnMut(&mut [u8])) -> f64 {
    let mut bufs: Vec<Vec<u8>> = SIZES.iter().map(|&n| rng.bytes(n)).collect();
    let total: usize = SIZES.iter().sum();
    ns_per_unit(total as f64, || {
        for b in bufs.iter_mut() {
            apply(black_box(b));
        }
    })
}

/// `(name, value, unit)` rows, in report order.
pub type Rows = Vec<(&'static str, f64, &'static str)>;

pub fn crypto(seed: u64) -> Rows {
    let mut rng = Rng::new(seed);
    let key = rng.key();
    let iv: [u8; 16] = rng.bytes(16).try_into().expect("16 bytes");
    let aes = || Aes::new(KeySize::Aes256, &key).expect("32-byte key");

    let mut cfb = Cfb::new(aes(), iv);
    let cfb_ns = ns_per_byte(&mut rng, |b| cfb.encrypt(b));
    let mut ctr = Ctr::new(aes(), iv);
    let ctr_ns = ns_per_byte(&mut rng, |b| ctr.apply(b));
    let expand_ns = ns_per_unit(1.0, || {
        black_box(Aes::new(KeySize::Aes256, black_box(&key)).expect("32-byte key"));
    });
    let hmac_ns = ns_per_byte(&mut rng, |b| {
        black_box(hmac_sha256(&key, b));
    });
    let bytemap = ByteMap::from_key(&key);
    let mut pos = 0u64;
    let bytemap_ns = ns_per_byte(&mut rng, |b| {
        bytemap.encode(b, pos);
        pos += b.len() as u64;
    });
    // The tunnel path carries HTTPS, so the codec blinds without
    // re-encrypting (`encrypt = false`), as `DomesticProxy` does.
    let hello = Hello {
        scheme: BlindingScheme::ByteMap,
        nonce: rng.next_u64(),
        generation: 0,
    };
    let mut codec = StreamCodec::new(&key, &hello, false, 0);
    let codec_ns = ns_per_byte(&mut rng, |b| codec.encode(b));
    vec![
        ("crypto.aes256_cfb_ns_per_byte", cfb_ns, "ns/B"),
        ("crypto.aes256_ctr_ns_per_byte", ctr_ns, "ns/B"),
        ("crypto.aes256_key_expand_ns", expand_ns, "ns"),
        ("crypto.hmac_sha256_ns_per_byte", hmac_ns, "ns/B"),
        ("crypto.bytemap_ns_per_byte", bytemap_ns, "ns/B"),
        ("scholarcloud.stream_codec_ns_per_byte", codec_ns, "ns/B"),
    ]
}

/// First client→server payloads of the four traffic kinds the GFW
/// sees in the workloads: a TLS ClientHello, a ScholarCloud blinded
/// preamble, a Shadowsocks stream head, and a meek ClientHello to the
/// CDN front.
fn preamble_corpus(rng: &mut Rng) -> Vec<(u16, Vec<u8>)> {
    let tls = TlsClient::new("scholar.google.com", rng.next_u64()).start_handshake();
    let key = rng.key();
    let hello = Hello {
        scheme: BlindingScheme::ByteMap,
        nonce: rng.next_u64(),
        generation: 0,
    };
    let mut blinded = hello.encode(&key, "api.example-cover.com");
    let mut body = TlsClient::new("scholar.google.com", rng.next_u64()).start_handshake();
    StreamCodec::new(&key, &hello, false, 0).encode(&mut body);
    blinded.extend(body);
    let mut ss = rng.bytes(16); // IV, then the encrypted target and request
    let mut head = rng.bytes(300);
    Cfb::new(
        Aes::new(KeySize::Aes256, &key).expect("32-byte key"),
        [7; 16],
    )
    .encrypt(&mut head);
    ss.extend(head);
    let meek = TlsClient::new("ajax.cdn-front.example", rng.next_u64()).start_handshake();
    vec![
        (443, tls),
        (sc_core::REMOTE_PORT, blinded),
        (sc_tunnels::SS_PORT, ss),
        (443, meek),
    ]
}

pub fn gfw(seed: u64) -> Rows {
    let mut rng = Rng::new(seed);
    let corpus = preamble_corpus(&mut rng);
    let config = GfwConfig::china_2017((Addr::new(99, 2, 0, 0), 16));
    // Eight flows per traffic kind, each a handshake ACK then the
    // preamble, as the middlebox sees them.
    let mut packets = Vec::new();
    for (i, (port, payload)) in corpus.iter().enumerate() {
        for f in 0..8u16 {
            let src = SocketAddr::new(Addr::new(10, 0, 1, 1 + i as u8), 40_000 + f);
            let dst = SocketAddr::new(Addr::new(99, 0, 0, 40), *port);
            for (seq, body) in [(1, Bytes::new()), (1, Bytes::from(payload.clone()))] {
                let seg = TcpSegmentBody {
                    seq,
                    ack: 1,
                    flags: TcpFlags::ACK,
                    window: 65535,
                    payload: body,
                };
                packets.push(Packet::tcp(src, dst, seg));
            }
        }
    }
    let n = packets.len() as f64;
    let observe_ns = ns_per_unit(n, || {
        let mut table = FlowTable::new();
        for (i, p) in packets.iter().enumerate() {
            black_box(table.observe(p, SimTime::from_micros(i as u64 * 50), &config));
        }
    });
    vec![("gfw.observe_ns_per_packet", observe_ns, "ns")]
}

pub fn cache(seed: u64) -> Rows {
    let mut rng = Rng::new(seed);
    // A working set about twice the 256 KiB budget, so inserts evict.
    let entries: Vec<((String, String), CachedResponse)> = (0..64)
        .map(|i| {
            let len = 2048 + (rng.next_u64() % 14_000) as usize;
            let key = ("scholar.google.com".to_string(), format!("/scholar?q={i}"));
            let resp = CachedResponse {
                status: 200,
                content_type: "text/html".into(),
                etag: format!("\"{:016x}\"", rng.next_u64()),
                max_age: Some(20),
                body: rng.bytes(len),
            };
            (key, resp)
        })
        .collect();
    let ttl = SimDuration::from_secs(20);
    let mut cache = ContentCache::new(CacheConfig::default());
    let mut i = 0usize;
    let insert_ns = ns_per_unit(1.0, || {
        let (k, r) = &entries[i % entries.len()];
        i += 1;
        black_box(cache.insert(k.clone(), r.clone(), ttl, SimTime::ZERO));
    });
    let keys: Vec<_> = entries.iter().map(|(k, _)| k.clone()).collect();
    let mut j = 0usize;
    let lookup_ns = ns_per_unit(1.0, || {
        j += 1;
        black_box(matches!(
            cache.lookup(&keys[j % keys.len()], SimTime::from_secs(1)),
            sc_cache::Lookup::Fresh(_)
        ));
    });
    vec![
        ("cache.lookup_ns", lookup_ns, "ns"),
        ("cache.insert_ns", insert_ns, "ns"),
    ]
}

pub fn netproto(seed: u64) -> Rows {
    let mut rng = Rng::new(seed);
    // A gateway-mode exchange: requests with the headers browsers send,
    // and cacheable responses.
    let mut wire = Vec::new();
    let mut msgs = 0;
    for i in 0..8 {
        let req = HttpRequest::get(
            "scholar.google.com",
            &format!("/scholar?q={}", rng.next_u64()),
        )
        .header("If-None-Match", &format!("\"{i:016x}\""));
        wire.extend(req.encode());
        let resp = HttpResponse::new(200, rng.bytes(512))
            .header("Cache-Control", "max-age=20")
            .header("ETag", &format!("\"{:016x}\"", rng.next_u64()));
        wire.extend(resp.encode());
        msgs += 2;
    }
    let parsed = HttpParser::new()
        .push(&wire)
        .expect("generated HTTP parses");
    assert_eq!(parsed.len(), msgs, "every generated message parses");
    let parse_ns = ns_per_unit(msgs as f64, || {
        let mut p = HttpParser::new();
        black_box(p.push(&wire).expect("generated HTTP parses"));
    });
    let handshake_ns = ns_per_unit(1.0, || {
        let mut client = TlsClient::new("scholar.google.com", rng.next_u64());
        let mut server = TlsServer::new(rng.next_u64());
        let s1 = server
            .on_bytes(&client.start_handshake())
            .expect("ClientHello");
        let c1 = client.on_bytes(&s1.wire).expect("ServerHello");
        let s2 = server.on_bytes(&c1.wire).expect("client Finished");
        let c2 = client.on_bytes(&s2.wire).expect("server Finished");
        assert!(c2.handshake_complete && server.is_connected());
    });
    vec![
        ("netproto.http_parse_ns_per_msg", parse_ns, "ns"),
        ("netproto.tls_handshake_us", handshake_ns / 1000.0, "us"),
    ]
}

/// Keeps `inflight` empty UDP datagrams bouncing off an echo server.
struct Pinger {
    peer: SocketAddr,
    inflight: usize,
    echoes: Rc<Cell<u64>>,
}

impl App for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let sock = ctx.udp_bind(9000).expect("port free");
        for _ in 0..self.inflight {
            ctx.udp_send(sock, self.peer, Bytes::new());
        }
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        if let AppEvent::Udp {
            socket,
            from,
            payload,
        } = ev
        {
            self.echoes.set(self.echoes.get() + 1);
            ctx.udp_send(socket, from, payload);
        }
    }
}

struct Echo;

impl App for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.udp_bind(7);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        if let AppEvent::Udp {
            socket,
            from,
            payload,
        } = ev
        {
            ctx.udp_send(socket, from, payload);
        }
    }
}

/// Re-arms a 1 µs timer forever.
struct Ticker(Rc<Cell<u64>>);

impl App for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_micros(1), 0);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        if let AppEvent::TimerFired(t) = ev {
            self.0.set(self.0.get() + 1);
            ctx.set_timer(SimDuration::from_micros(1), t);
        }
    }
}

/// Links between pinger and echo server in the bare simulator.
const BARE_HOPS: u64 = 3;

pub fn bare_sim(seed: u64) -> Rows {
    let hop_ns = median_over_budget(|| {
        let echoes = Rc::new(Cell::new(0));
        let mut sim = Sim::new(seed);
        let nodes: Vec<NodeId> = ["pinger", "r1", "r2", "echo"]
            .iter()
            .enumerate()
            .map(|(i, n)| sim.add_node(*n, Addr::new(10, 9, 0, 1 + i as u8)))
            .collect();
        for w in nodes.windows(2) {
            sim.add_link(
                w[0],
                w[1],
                LinkConfig::with_delay(SimDuration::from_millis(1)),
            );
        }
        sim.compute_routes();
        let peer = SocketAddr::new(sim.addr_of(nodes[3]), 7);
        sim.install_app(nodes[3], Box::new(Echo));
        sim.install_app(
            nodes[0],
            Box::new(Pinger {
                peer,
                inflight: 8,
                echoes: echoes.clone(),
            }),
        );
        let t = Instant::now();
        sim.run_for(SimDuration::from_secs(2));
        t.elapsed().as_nanos() as f64 / (echoes.get() * 2 * BARE_HOPS) as f64
    });
    let timer_ns = median_over_budget(|| {
        let fired = Rc::new(Cell::new(0));
        let mut sim = Sim::new(seed);
        let node = sim.add_node("ticker", Addr::new(10, 9, 1, 1));
        sim.install_app(node, Box::new(Ticker(fired.clone())));
        let t = Instant::now();
        sim.run_for(SimDuration::from_millis(20));
        t.elapsed().as_nanos() as f64 / fired.get() as f64
    });
    vec![
        ("simnet.bare_ns_per_hop", hop_ns, "ns"),
        ("simnet.bare_ns_per_timer", timer_ns, "ns"),
    ]
}
