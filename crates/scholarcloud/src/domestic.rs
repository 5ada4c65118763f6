//! The domestic proxy: the only thing users ever talk to. It terminates
//! browser HTTP-proxy connections (CONNECT for HTTPS, absolute-form for
//! plain HTTP), enforces the whitelist, and forwards whitelisted traffic
//! to a pool of remote proxies under the cover + blinding protocol.
//!
//! # Connection table
//!
//! Every live TCP connection the proxy holds is one entry in a single
//! table keyed by its handle, tagged with its role; `on_event` does one
//! lookup and one `match` per event:
//!
//! * **Browser** — accepted on the proxy port (a browser, or a fleet
//!   peer's hop). Owns the request phase and client address, plus the
//!   optional per-request state: the pending tunnel (with the handle of
//!   its in-flight connect attempt), the gateway fetch it leads, its
//!   coalesce wait on another leader's fetch, and its `If-None-Match`
//!   validator.
//! * **Remote** — one tunnel leg to a remote proxy (one per connect
//!   attempt), pointing back at its browser.
//! * **Peer** — one intra-fleet peering hop to a key's owner shard.
//! * **Probe** — one bare health-probe connect.
//!
//! An entry leaves the table when its connection is finished: when
//! either side closes or resets it, when the proxy answers and closes
//! it (refusals, sheds, failures, decoys), or when its job is done (a
//! probe that connected, a hop that got its response, a fetch leg whose
//! response arrived). Late events on a finished handle find no entry:
//! stray bytes are drained, everything else is ignored.
//!
//! # Resilience
//!
//! The censor's cheapest countermeasure is blacklisting remote VM IPs
//! (§4.2 of the paper), so tunnel origination is built around a
//! [`RemotePool`] rather than a single upstream:
//!
//! * every connect attempt runs under a deadline
//!   ([`ResilienceConfig::connect_timeout`]) — a blackholed remote costs
//!   seconds, not a full TCP SYN-retry cycle;
//! * failed attempts retry with deterministic exponential backoff,
//!   preferring a *different* remote (failover);
//! * consecutive failures open a per-remote circuit breaker, and active
//!   probes (plus half-open trials) detect recovery;
//! * when **every** remote is dark, whitelisted requests park briefly and
//!   then fail fast with `503` — a distinct, browser-visible signal —
//!   while non-whitelisted traffic is untouched (it never transits the
//!   proxy: the PAC file sends it DIRECT);
//! * the CONNECT `200` is only sent once the tunnel is actually
//!   established, so browsers cannot start a TLS handshake into a void.
//!
//! # Overload control
//!
//! The client-facing side is guarded by an [`AdmissionController`]
//! (see [`admission`](crate::admission)): concurrent tunnels are
//! capped, excess whitelisted requests wait in a bounded deadline-aware
//! queue, per-client token buckets and stream caps keep one hot client
//! from starving the rest, and the resilience layer's retries are
//! gated by a global retry budget. Shed work fails fast with
//! `503`/`429 + Retry-After` instead of queueing to die.
//!
//! Error surface seen by browsers: `403` off-whitelist, `429`
//! throttled (per-client rate or stream cap), `502` retries exhausted
//! or retry budget spent, `503` parked too long with no remote
//! available, shed by the admission queue, or deadline-shed.

use std::collections::HashMap;

use rand::Rng;
use sc_cache::{CacheKey, CachedResponse, Lookup, Role, Singleflight};
use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
use sc_netproto::socks::TargetAddr;
use sc_obs::{Level, Value};
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::sim::Ctx;
use sc_simnet::time::{SimDuration, SimTime};

use crate::admission::{AdmissionController, Decision, Dequeued};
use crate::config::{ScConfig, REMOTE_PORT};
use crate::elastic::{ElasticAction, ElasticHandle};
use crate::fleet::FleetMember;
use crate::frame::{decoy_response, Hello, StreamCodec, StreamHeader};
use crate::resilience::{BreakerState, BreakerTransition, RemotePool};

/// How often a parked request re-checks the pool for a recovered remote
/// (probes also drain the parked set immediately on success).
const PARK_RECHECK: SimDuration = SimDuration::from_millis(250);

/// Loop-guard header on intra-fleet peering hops: carries the
/// requesting shard's index, and its presence means "answer locally,
/// never forward again" — a peering hop is one hop, by construction.
pub const FLEET_HEADER: &str = "Sc-Fleet";

/// Fleet-wide admission pressure floor: the sickest-shard-first shed
/// only engages once the fleet's published queue depths sum to at least
/// this many waiting requests (nominal traffic never queues, so the
/// fleet path costs nothing until a real overload).
const FLEET_PRESSURE_QUEUE: usize = 4;

/// How often the admission queue is re-checked for deadline sheds while
/// non-empty (slot releases also drain it immediately).
const QUEUE_TICK: SimDuration = SimDuration::from_millis(100);

/// Elastic autoscaler control-loop period. Half the smallest default
/// cold start, so a scale-out decision is never more than one tick
/// stale relative to the capacity it produces.
const ELASTIC_TICK: SimDuration = SimDuration::from_millis(500);

/// Client address of a connection that is no longer in the table.
const NO_CLIENT: Addr = Addr::new(0, 0, 0, 0);

/// One live TCP connection of the proxy, by role (see the module docs).
enum Conn {
    /// Accepted on the proxy port: a browser, or a fleet peer's hop.
    Browser(Box<BrowserConn>),
    /// A tunnel leg to a remote proxy (one per connect attempt).
    Remote(Box<RemoteConn>),
    /// An intra-fleet peering hop to a key's owner shard.
    Peer(Box<PeerFetch>),
    /// A health probe of a remote.
    Probe(Probe),
}

impl Conn {
    fn browser(&mut self) -> Option<&mut BrowserConn> {
        match self {
            Conn::Browser(b) => Some(b),
            _ => None,
        }
    }

    fn pending(&mut self) -> Option<&mut PendingTunnel> {
        self.browser()?.pending.as_deref_mut()
    }

    fn remote(&mut self) -> Option<&mut RemoteConn> {
        match self {
            Conn::Remote(c) => Some(c),
            _ => None,
        }
    }

    fn peer(&mut self) -> Option<&mut PeerFetch> {
        match self {
            Conn::Peer(p) => Some(p),
            _ => None,
        }
    }
}

/// A connection accepted on the proxy port, with all state keyed by it.
struct BrowserConn {
    phase: Phase,
    /// Client address (the admission controller's fairness key).
    client: Addr,
    /// Whitelisted request between "accepted" and "tunnel established".
    pending: Option<Box<PendingTunnel>>,
    /// The gateway fetch this conn leads (upstream or via a peer hop).
    fetch: Option<Box<GatewayFetch>>,
    /// Parked on another leader's in-flight fetch of the same key.
    wait: Option<Box<CoalesceWait>>,
    /// `If-None-Match` validator of the current gateway request,
    /// consulted when answering from the cache (match → bodyless 304).
    inm: Option<String>,
}

enum Phase {
    AwaitRequest(HttpParser),
    /// Whitelisted request accepted; tunnel establishment in progress
    /// (state lives in [`BrowserConn::pending`]).
    Pending,
    Tunneling {
        remote: TcpHandle,
    },
    /// Plain-HTTP gateway mode: the proxy terminates HTTP on this conn
    /// (one request at a time, keep-alive across requests) and answers
    /// from the shared content cache, a coalesced in-flight fetch, or a
    /// per-request upstream tunnel. Unlike CONNECT, these requests
    /// expose their HTTP semantics — the only place caching can apply.
    Gateway(HttpParser),
}

/// A gateway request's in-flight fetch, held by the leader's browser
/// entry. The upstream leg runs through the normal admission +
/// resilience machinery; the response is reassembled here instead of
/// being piped through.
struct GatewayFetch {
    /// `(host, path)` — the shared cache's key.
    key: CacheKey,
    /// Origin port of the upstream leg.
    port: u16,
    /// Origin-form request (replayed if the flight's leadership moves).
    request: HttpRequest,
    /// Store a `200` under `key` and fan it out to coalesced waiters.
    cacheable: bool,
    /// Carries our stored validator: an upstream `304` renews the entry.
    revalidating: bool,
    /// Reassembles the upstream response stream.
    parser: HttpParser,
}

/// A gateway requester coalesced onto another leader's fetch.
struct CoalesceWait {
    /// The key whose flight it waits on.
    key: CacheKey,
    /// Open "coalesce_wait" span.
    span: sc_obs::SpanId,
    /// The waiter's own trace context (used if it is promoted to leader).
    tctx: sc_obs::TraceCtx,
}

/// An in-flight intra-fleet peering hop: a non-owner's cacheable miss
/// forwarded to the key's owner shard instead of upstream. The fetch
/// bookkeeping stays in the leader's browser entry so a failed hop can
/// fall back to a normal upstream fetch.
struct PeerFetch {
    /// The gateway leader whose request this hop serves.
    leader: TcpHandle,
    /// Owner shard index the hop targets.
    owner: usize,
    /// Pre-encoded request, sent once the peer TCP connects.
    wire: Vec<u8>,
    connected: bool,
    /// Reassembles the owner's response.
    parser: HttpParser,
    /// Open "peer_fetch" span.
    span: sc_obs::SpanId,
    /// Leader's trace context (a fallback replay parents into it).
    tctx: sc_obs::TraceCtx,
}

/// A browser request between "accepted" and "tunnel established":
/// everything needed to (re)build an attempt from scratch.
struct PendingTunnel {
    header: StreamHeader,
    /// Plaintext to replay at the start of the stream (origin-form
    /// request for absolute-form HTTP, plus anything the browser sent
    /// while we were still connecting).
    initial_plain: Vec<u8>,
    /// Attempts started so far.
    attempts: u32,
    /// Pool index of the most recent attempt's remote.
    last_remote: Option<usize>,
    /// Send `200 Connection established` on success (CONNECT only).
    is_connect: bool,
    /// Rebuilt from a mid-stream death ([`StreamReplay`]): the browser
    /// already got its `200` the first time around, so establishment
    /// must complete silently.
    resumed: bool,
    /// When this request started waiting for *any* remote to come back.
    parked_since: Option<SimTime>,
    /// The remote leg of the outstanding connect attempt, if any.
    inflight: Option<TcpHandle>,
    /// A retry/park-recheck timer is currently armed.
    retry_armed: bool,
    /// Still waiting in the admission queue (no attempt may start and
    /// no active slot is held until the controller dequeues it).
    queued: bool,
    /// When the admission controller granted this request its slot
    /// (service-time EWMA: admit → tunnel established).
    admitted_at: SimTime,
    /// Trace context of the originating browser request (from its
    /// `Sc-Trace` header); every proxy span for this request parents
    /// into it.
    tctx: sc_obs::TraceCtx,
    /// Open "admission" span: arrival → admit/dequeue/shed verdict
    /// (its duration is the queue wait).
    admission_span: sc_obs::SpanId,
    /// Open "establish" span: first attempt → tunnel up or failure.
    establish_span: sc_obs::SpanId,
    /// Open "backoff"/"park" span while waiting between attempts.
    wait_span: sc_obs::SpanId,
}

impl PendingTunnel {
    /// Ends the spans a request still holds open when it is given up.
    fn end_spans(
        &self,
        now_us: u64,
        verdict: Vec<(&'static str, Value)>,
        establish: Vec<(&'static str, Value)>,
    ) {
        sc_obs::span_end(now_us, self.admission_span, verdict);
        sc_obs::span_end(now_us, self.wait_span, Vec::new());
        sc_obs::span_end(now_us, self.establish_span, establish);
    }
}

/// Everything needed to transparently rebuild an established tunnel
/// whose remote leg died before delivering a single downstream byte.
/// The browser has observed nothing yet, so replaying the buffered
/// plaintext through a fresh tunnel (under whatever blinding scheme is
/// in force *now*) is indistinguishable from a slow first attempt.
/// This is the stream-level half of the rotation defense: a learned
/// signature RSTs the preamble after the connect succeeds, past the
/// establish-phase retry budget, and would otherwise kill every stream
/// in flight at the moment of detection.
struct StreamReplay {
    header: StreamHeader,
    is_connect: bool,
    /// Plaintext sent upstream so far (origin-form request plus every
    /// tunneled byte); capped at [`REPLAY_CAP`].
    sent_plain: Vec<u8>,
    /// Establish attempts already consumed by this browser request.
    attempts: u32,
    tctx: sc_obs::TraceCtx,
}

/// Upper bound on buffered upstream plaintext per stream: past this the
/// replay state is dropped and a mid-stream death is final, as before.
const REPLAY_CAP: usize = 16 * 1024;

struct RemoteConn {
    browser: TcpHandle,
    /// The browser's client address: the admission slot this stream
    /// holds is released under it, even after the browser conn is gone.
    client: Addr,
    /// Index into the remote pool (health/breaker bookkeeping).
    remote_idx: usize,
    /// When the connect was issued (RTT measurement).
    started: SimTime,
    connected: bool,
    /// Wire bytes queued until the remote TCP connects (hello + header
    /// are pre-encoded here).
    pending: Vec<u8>,
    /// Outbound (domestic→remote) codec.
    tx: StreamCodec,
    /// Inbound (remote→domestic) codec.
    rx: StreamCodec,
    /// Plaintext bytes relayed browser→remote on this stream.
    up_bytes: u64,
    /// Plaintext bytes relayed remote→browser on this stream.
    down_bytes: u64,
    /// Open "attempt" span for this connect attempt.
    attempt_span: sc_obs::SpanId,
    /// Open "tunnel_stream"/"upstream_fetch" span once established.
    stream_span: sc_obs::SpanId,
    /// Armed while a mid-stream death is still transparently
    /// recoverable (see [`StreamReplay`]); cleared by the first
    /// downstream byte or a buffer overflow.
    replay: Option<StreamReplay>,
}

/// An active health probe: a bare TCP connect to a remote, closed (and
/// dropped from the table) as soon as it succeeds. (The remote proxy
/// sees a connection that dies before sending a preamble —
/// indistinguishable from a web crawler timing out, so probes do not
/// burn the cover story.)
struct Probe {
    remote_idx: usize,
    started: SimTime,
}

/// What an armed timer token means when it fires. Simnet timers cannot
/// be cancelled, so every fired token is looked up here and stale ones
/// (purpose already resolved) are ignored.
enum TimerPurpose {
    /// Recurring probe round.
    ProbeTick,
    /// Deadline for a tunnel connect attempt (remote-side handle).
    ConnectDeadline(TcpHandle),
    /// Deadline for a probe connect (probe handle).
    ProbeDeadline(TcpHandle),
    /// Retry backoff elapsed / parked request re-check (browser handle).
    Retry(TcpHandle),
    /// Periodic admission-queue re-check (deadline sheds).
    QueueTick,
    /// Recurring elastic autoscaler tick.
    ElasticTick,
    /// Deadline for a whole intra-fleet peering hop (peer handle).
    PeerDeadline(TcpHandle),
}

/// Emits one `scholarcloud/<target>` event. `fields` only runs when the
/// event is enabled, so untraced runs never format a field.
fn emit<I>(
    ctx: &Ctx<'_>,
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: impl FnOnce() -> I,
) where
    I: IntoIterator<Item = (&'static str, Value)>,
{
    if sc_obs::is_enabled(level, "scholarcloud") {
        let mut ev = sc_obs::Event::new(ctx.now().as_micros(), level, "scholarcloud", target, name);
        for (k, v) in fields() {
            ev = ev.field(k, v);
        }
        sc_obs::emit(ev);
    }
}

/// The domestic proxy app. Install on the domestic VM node.
pub struct DomesticProxy {
    config: ScConfig,
    pool: RemotePool,
    admission: AdmissionController<TcpHandle>,
    /// Every live TCP connection, by role (see the module docs).
    conns: HashMap<TcpHandle, Conn>,
    /// This proxy's fleet membership (None = the paper's single-proxy
    /// deployment; every fleet path is inert then).
    fleet: Option<FleetMember>,
    /// The elastic remote tier this proxy drives (None = the paper's
    /// static VM pool; every elastic path is inert then).
    elastic: Option<ElasticHandle>,
    /// Coalescing table for cacheable gateway fetches.
    singleflight: Singleflight<TcpHandle>,
    timers: HashMap<u64, TimerPurpose>,
    next_timer: u64,
    /// A [`QUEUE_TICK`] timer is currently armed.
    queue_tick_armed: bool,
    /// Breaker openings observed (rotation-policy evidence).
    breaker_opens: u64,
    /// Interference units already consumed by past rotations.
    evidence_consumed: u64,
    /// When the scheme last rotated (cooldown bookkeeping).
    last_rotation: Option<SimTime>,
}

impl DomesticProxy {
    /// Creates the proxy with one circuit breaker per configured remote.
    pub fn new(config: ScConfig) -> Self {
        let pool = RemotePool::new(
            config.remotes.clone(),
            config.resilience.breaker_threshold,
            config.resilience.breaker_cooldown,
        );
        let admission = AdmissionController::new(config.admission.clone());
        DomesticProxy {
            config,
            pool,
            admission,
            conns: HashMap::new(),
            fleet: None,
            elastic: None,
            singleflight: Singleflight::new(),
            timers: HashMap::new(),
            next_timer: 1,
            queue_tick_armed: false,
            breaker_opens: 0,
            evidence_consumed: 0,
            last_rotation: None,
        }
    }

    /// Joins a fleet: this proxy becomes shard `member.self_idx`, its
    /// cacheable misses route to each key's owner shard, and its
    /// admission pressure is published to the shared sickness board.
    pub fn with_fleet(mut self, member: FleetMember) -> Self {
        self.fleet = Some(member);
        self
    }

    /// This proxy's fleet membership, if any (tests and dashboards).
    pub fn fleet(&self) -> Option<&FleetMember> {
        self.fleet.as_ref()
    }

    /// Attaches an elastic remote tier: the proxy ticks its autoscaler,
    /// meters invocations/egress into its cost model, executes its
    /// provision/retire actions against the remote pool and node
    /// lifecycle, and churns instances whose breaker opens.
    pub fn with_elastic(mut self, handle: ElasticHandle) -> Self {
        self.elastic = Some(handle);
        self
    }

    /// The attached elastic tier, if any (tests and dashboards).
    pub fn elastic(&self) -> Option<&ElasticHandle> {
        self.elastic.as_ref()
    }

    /// Read access to the remote pool (tests and dashboards).
    pub fn pool(&self) -> &RemotePool {
        &self.pool
    }

    /// Read access to the admission controller (tests and dashboards).
    pub fn admission(&self) -> &AdmissionController<TcpHandle> {
        &self.admission
    }

    fn arm(&mut self, delay: SimDuration, purpose: TimerPurpose, ctx: &mut Ctx<'_>) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, purpose);
        ctx.set_timer(delay, token);
    }

    fn browser_mut(&mut self, h: TcpHandle) -> Option<&mut BrowserConn> {
        self.conns.get_mut(&h).and_then(Conn::browser)
    }

    /// The client address behind a browser connection (fairness key).
    fn client_of(&self, browser: TcpHandle) -> Addr {
        match self.conns.get(&browser) {
            Some(Conn::Browser(b)) => b.client,
            _ => NO_CLIENT,
        }
    }

    /// Drops a finished browser conn from the table, with whatever
    /// per-request state it still held; returns its client address.
    fn forget_browser(&mut self, h: TcpHandle) -> Addr {
        match self.conns.remove(&h) {
            Some(Conn::Browser(b)) => b.client,
            _ => NO_CLIENT,
        }
    }

    /// This shard's index as an event field (fleet runs only, so
    /// single-proxy traces stay byte-identical with pre-fleet builds).
    fn shard_field(&self) -> Option<(&'static str, Value)> {
        self.fleet.as_ref().map(|f| ("shard", Value::U64(f.self_idx as u64)))
    }

    /// Fields of a `scholarcloud/cache` event about `key`.
    fn cache_fields<'a>(
        &'a self,
        key: &'a CacheKey,
    ) -> impl Iterator<Item = (&'static str, Value)> + 'a {
        [("host", key.0.clone().into()), ("path", key.1.clone().into())]
            .into_iter()
            .chain(self.shard_field())
    }

    fn emit_breaker(&self, idx: usize, t: BreakerTransition, ctx: &mut Ctx<'_>) {
        sc_obs::counter_add("scholarcloud.breaker_transitions", 1);
        let now_us = ctx.now().as_micros();
        match t.to {
            BreakerState::Open => sc_obs::ts_bump(now_us, "scholarcloud.breaker_opens", 1),
            BreakerState::Closed => sc_obs::ts_bump(now_us, "scholarcloud.breaker_closes", 1),
            BreakerState::HalfOpen => {}
        }
        emit(ctx, Level::Warn, "resilience", "breaker", || {
            [
                ("remote", self.pool.entry(idx).addr.to_string().into()),
                ("from", t.from.name().into()),
                ("to", t.to.name().into()),
            ]
        });
    }

    /// Publishes this shard's admission pressure to the fleet's shared
    /// sickness board (no-op outside a fleet).
    fn publish_sickness(&self) {
        if let Some(f) = &self.fleet {
            f.handle.publish(
                f.self_idx,
                self.admission.queue_depth(),
                self.admission.service_estimate(),
            );
        }
    }

    /// Bumps a cache counter and its timeline series together.
    fn count_cache(&self, name: &'static str, n: u64, ctx: &Ctx<'_>) {
        sc_obs::counter_add(name, n);
        sc_obs::ts_bump(ctx.now().as_micros(), name, n);
    }

    fn sample_queue_depth(&self, ctx: &Ctx<'_>) {
        sc_obs::ts_record(
            ctx.now().as_micros(),
            "scholarcloud.queue_depth",
            self.admission.queue_depth() as u64,
        );
    }

    /// Answers a shed/throttled request with its status and a
    /// `Retry-After` hint, then closes the connection — the fast
    /// failure path that keeps an overloaded proxy responsive.
    fn shed_browser(&mut self, browser: TcpHandle, code: u16, reason: &str, ctx: &mut Ctx<'_>) {
        self.fail_gateway_waiters(browser, code, ctx);
        if let Some(pt) = self.browser_mut(browser).and_then(|b| b.pending.take()) {
            pt.end_spans(
                ctx.now().as_micros(),
                vec![
                    ("verdict", Value::String(reason.to_string())),
                    ("code", u64::from(code).into()),
                ],
                vec![("ok", false.into())],
            );
        }
        let retry_after = self.admission.retry_after();
        let secs = (retry_after.as_micros() + 999_999) / 1_000_000;
        let resp =
            HttpResponse::new(code, Vec::new()).header("Retry-After", &secs.max(1).to_string());
        ctx.tcp_send(browser, &resp.encode());
        ctx.tcp_close(browser);
        self.forget_browser(browser);
        let now_us = ctx.now().as_micros();
        let (counter, name) = if code == 429 {
            ("scholarcloud.throttled", "throttle")
        } else {
            ("scholarcloud.shed", "shed")
        };
        sc_obs::counter_add(counter, 1);
        sc_obs::ts_bump(now_us, counter, 1);
        emit(ctx, Level::Warn, "admission", name, || {
            [
                ("code", code.to_string().into()),
                ("reason", reason.to_string().into()),
                ("retry_after_us", retry_after.as_micros().to_string().into()),
            ]
        });
    }

    /// Arms the queue re-check tick if the queue is non-empty and no
    /// tick is outstanding (nominal traffic never queues, so nominal
    /// runs never pay for the timer).
    fn ensure_queue_tick(&mut self, ctx: &mut Ctx<'_>) {
        if !self.queue_tick_armed && self.admission.queue_depth() > 0 {
            self.queue_tick_armed = true;
            self.arm(QUEUE_TICK, TimerPurpose::QueueTick, ctx);
        }
    }

    /// Releases `client`'s active slot and lets queued work advance
    /// into the freed capacity.
    fn release_slot(&mut self, client: Addr, ctx: &mut Ctx<'_>) {
        self.admission.release(client, ctx.now(), None);
        self.drain_queue(ctx);
        self.publish_sickness();
    }

    /// Dequeues as much as capacity allows: deadline-expired entries
    /// are shed with 503, admissible ones start their first attempt.
    fn drain_queue(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let actions = self.admission.drain(now);
        if actions.is_empty() {
            return;
        }
        for action in actions {
            match action {
                Dequeued::Shed { token } => {
                    self.shed_browser(token, 503, "deadline_shed", ctx);
                }
                Dequeued::Admit { token, waited } => {
                    sc_obs::counter_add("scholarcloud.admitted", 1);
                    match self.conns.get_mut(&token).and_then(Conn::pending) {
                        Some(pt) => {
                            pt.queued = false;
                            pt.admitted_at = now;
                            let sp =
                                std::mem::replace(&mut pt.admission_span, sc_obs::SpanId::NONE);
                            sc_obs::span_end(
                                now.as_micros(),
                                sp,
                                vec![
                                    ("verdict", "admit".into()),
                                    ("waited_us", waited.as_micros().into()),
                                ],
                            );
                            emit(ctx, Level::Debug, "admission", "dequeue", || {
                                [("waited_us", waited.as_micros().to_string().into())]
                            });
                            self.try_attempt(token, ctx);
                        }
                        // The browser vanished without the queue entry
                        // being removed; hand the slot straight back.
                        None => {
                            let client = self.client_of(token);
                            self.admission.release(client, now, None);
                        }
                    }
                }
            }
        }
        self.sample_queue_depth(ctx);
        self.ensure_queue_tick(ctx);
        self.publish_sickness();
    }

    fn record_remote_success(&mut self, idx: usize, rtt: SimDuration, ctx: &mut Ctx<'_>) {
        if let Some(t) = self.pool.record_success(idx, rtt) {
            self.emit_breaker(idx, t, ctx);
        }
    }

    fn record_remote_failure(&mut self, idx: usize, ctx: &mut Ctx<'_>) {
        if let Some(t) = self.pool.record_failure(idx, ctx.now()) {
            self.emit_breaker(idx, t, ctx);
            // An elastic instance whose breaker opens is presumed
            // blacklisted: churn it — retire at this IP, replace at a
            // fresh one — instead of waiting out probe recovery that
            // will never come.
            if t.to == BreakerState::Open {
                self.elastic_churn(idx, ctx);
                self.breaker_opens += 1;
                // Rotate *now*, not at the next tick: this request's own
                // retry already picks up the new scheme (the attempt
                // re-reads the live handle).
                self.maybe_rotate(ctx);
            }
        }
    }

    /// Evaluates the detection-driven scheme-rotation policy: breaker
    /// openings (tunnels dying at the censor's hands) plus remote-side
    /// probe sightings are the interference evidence; enough *new*
    /// evidence since the last rotation — outside the cooldown — rotates
    /// the blinding scheme, changing the cover traffic's on-wire shape
    /// and starving whatever signature the censor had learned. No timer
    /// is involved: an undetected scheme never rotates.
    fn maybe_rotate(&mut self, ctx: &mut Ctx<'_>) {
        let Some(policy) = self.config.rotation else { return };
        let now = ctx.now();
        let evidence = self.breaker_opens + self.config.interference.probe_sightings();
        let fresh = evidence.saturating_sub(self.evidence_consumed);
        if fresh < policy.threshold {
            return;
        }
        if let Some(last) = self.last_rotation {
            if now.saturating_since(last) < policy.cooldown {
                return;
            }
        }
        self.evidence_consumed = evidence;
        self.last_rotation = Some(now);
        let from = self.config.scheme.get();
        // A fresh cover generation with the new codec: the censor's
        // classifier has never seen the rotated deployment's preamble,
        // so every learned signature starves from here on out.
        let to = self.config.scheme.rotate_fresh_at(now.as_micros());
        sc_obs::counter_add("scholarcloud.adaptive_rotations", 1);
        emit(ctx, Level::Info, "adaptive", "rotate", || {
            [
                ("from", format!("{from:?}").into()),
                ("to", format!("{to:?}").into()),
                ("evidence", fresh.into()),
            ]
        });
        // Breaker amnesty: the opens that drove this rotation were the
        // censor killing the *scheme*, not the remotes. Forgive every
        // live breaker so the very next attempt tries the rotated
        // scheme immediately instead of waiting out a cooldown against
        // an endpoint that was never actually sick.
        for idx in 0..self.pool.len() {
            if self.pool.entry(idx).retired {
                continue;
            }
            if let Some(t) = self.pool.forgive(idx) {
                self.emit_breaker(idx, t, ctx);
            }
        }
    }

    /// Marks the instance behind pool entry `idx` as blacklisted, if it
    /// is an elastic one; the next autoscaler tick drains and replaces
    /// it.
    fn elastic_churn(&mut self, idx: usize, ctx: &mut Ctx<'_>) {
        let Some(handle) = self.elastic.clone() else { return };
        let addr = self.pool.entry(idx).addr.addr;
        if handle.with(|p| p.churn(addr)) {
            sc_obs::counter_add("scholarcloud.elastic_churns", 1);
            emit(ctx, Level::Info, "elastic", "churn", || [("instance", addr.to_string().into())]);
        }
    }

    /// Accounts a finished established stream: elastic idle bookkeeping,
    /// the per-stream byte histograms, and its stream span.
    fn end_stream(&mut self, conn: &RemoteConn, ok: bool, ctx: &Ctx<'_>) {
        self.elastic_stream_end(conn.remote_idx, ctx.now());
        sc_obs::observe("scholarcloud.stream_bytes_up", conn.up_bytes);
        sc_obs::observe("scholarcloud.stream_bytes_down", conn.down_bytes);
        sc_obs::span_end(
            ctx.now().as_micros(),
            conn.stream_span,
            vec![("ok", ok.into()), ("bytes_down", conn.down_bytes.into())],
        );
    }

    /// Notes the end of a stream on pool entry `idx` for elastic idle
    /// accounting (no-op for static remotes).
    fn elastic_stream_end(&mut self, idx: usize, now: SimTime) {
        if let Some(handle) = &self.elastic {
            let addr = self.pool.entry(idx).addr.addr;
            handle.with(|p| p.note_stream_end(addr, now));
        }
    }

    /// One autoscaler control-loop tick: feed the admission queue depth
    /// into the elastic pool, execute the actions it returns against
    /// the remote pool and the node lifecycle, and publish the cost and
    /// capacity telemetry.
    fn elastic_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(handle) = self.elastic.clone() else { return };
        let now = ctx.now();
        let queue_depth = self.admission.queue_depth();
        // SLO burn-rate input: a latency or availability objective
        // actively burning budget is demand the queue cannot see yet, so
        // it surges capacity ahead of the backlog. Outside an SLO-guarded
        // run there is no engine and the signal is simply false.
        let burning = sc_obs::with_slo_engine(|e| e.any_fired()).unwrap_or(false);
        let actions = handle.with(|p| p.tick(now, queue_depth, burning, || ctx.rng().gen()));
        for act in actions {
            match act {
                ElasticAction::Provision { addr, cold_start } => {
                    sc_obs::counter_add("scholarcloud.elastic_provisions", 1);
                    emit(ctx, Level::Info, "elastic", "provision", || {
                        [
                            ("instance", addr.to_string().into()),
                            ("cold_start_us", cold_start.as_micros().to_string().into()),
                        ]
                    });
                }
                ElasticAction::Warm { addr, cold_start } => {
                    // The instance's node comes up and its pool entry
                    // starts taking weighted dispatch.
                    ctx.node_power(addr, true);
                    let sock = SocketAddr::new(addr, REMOTE_PORT);
                    if self.pool.index_of(sock).is_none() {
                        self.pool.add_remote(sock);
                    }
                    sc_obs::observe("scholarcloud.elastic_cold_start_us", cold_start.as_micros());
                    emit(ctx, Level::Info, "elastic", "warm", || {
                        [
                            ("instance", addr.to_string().into()),
                            ("cold_start_us", cold_start.as_micros().to_string().into()),
                        ]
                    });
                }
                ElasticAction::Drain { addr, reason } => {
                    if let Some(idx) = self.pool.index_of(SocketAddr::new(addr, REMOTE_PORT)) {
                        self.pool.retire(idx);
                    }
                    emit(ctx, Level::Info, "elastic", "drain", || {
                        [
                            ("instance", addr.to_string().into()),
                            ("reason", reason.name().to_string().into()),
                        ]
                    });
                }
                ElasticAction::Retire { addr } => {
                    // In-flight streams drained; the husk powers off.
                    ctx.node_power(addr, false);
                    sc_obs::counter_add("scholarcloud.elastic_retires", 1);
                    emit(ctx, Level::Info, "elastic", "retire", || {
                        [("instance", addr.to_string().into())]
                    });
                }
            }
        }
        let (warm, live, cost_inv, cost_eg, cost_warm, total) = handle.with(|p| {
            (
                p.warm_count(),
                p.live_count(),
                p.cost_invocation_micro(),
                p.cost_egress_micro(),
                p.cost_warm_micro(),
                p.total_cost_micro(),
            )
        });
        sc_obs::ts_record(now.as_micros(), "scholarcloud.elastic_instances", live as u64);
        emit(ctx, Level::Info, "elastic", "cost", || {
            [
                ("warm", (warm as u64).into()),
                ("live", (live as u64).into()),
                ("invocation_micro", cost_inv.into()),
                ("egress_micro", cost_eg.into()),
                ("warm_micro", cost_warm.into()),
                ("total_micro", total.into()),
            ]
        });
        self.arm(ELASTIC_TICK, TimerPurpose::ElasticTick, ctx);
    }

    /// Fails a pending browser request with a distinct, visible status.
    fn fail_browser(&mut self, browser: TcpHandle, code: u16, reason: &str, ctx: &mut Ctx<'_>) {
        self.fail_gateway_waiters(browser, code, ctx);
        let (target, held_slot) = match self.browser_mut(browser).and_then(|b| b.pending.take()) {
            Some(pt) => {
                pt.end_spans(
                    ctx.now().as_micros(),
                    vec![("verdict", Value::String(reason.to_string()))],
                    vec![
                        ("ok", false.into()),
                        ("code", u64::from(code).into()),
                        ("reason", Value::String(reason.to_string())),
                    ],
                );
                (target_label(&pt.header), !pt.queued)
            }
            None => (String::new(), false),
        };
        ctx.tcp_send(browser, &HttpResponse::new(code, Vec::new()).encode());
        ctx.tcp_close(browser);
        let client = self.forget_browser(browser);
        let counter = match code {
            503 => "scholarcloud.fail_fast",
            _ => "scholarcloud.tunnel_failures",
        };
        sc_obs::counter_add(counter, 1);
        sc_obs::ts_bump(ctx.now().as_micros(), counter, 1);
        emit(ctx, Level::Warn, "resilience", "tunnel_failed", || {
            [
                ("code", code.to_string().into()),
                ("reason", reason.to_string().into()),
                ("target", target.into()),
            ]
        });
        if held_slot {
            self.release_slot(client, ctx);
        }
    }

    /// Runs a whitelisted request through the admission pipeline:
    /// admitted work starts its first attempt, saturated work queues,
    /// everything else is answered immediately with `429`/`503`.
    fn admit_request(
        &mut self,
        browser: TcpHandle,
        header: StreamHeader,
        initial_plain: Vec<u8>,
        is_connect: bool,
        tctx: sc_obs::TraceCtx,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        let client = self.client_of(browser);
        // Fleet-wide admission: under fleet-wide pressure the sickest
        // shard sheds first — PAC failover then re-spreads its clients
        // across healthier shards instead of every shard browning out
        // in lockstep. Engages only when this shard IS the sickest and
        // already has queued work of its own.
        self.publish_sickness();
        if let Some(f) = &self.fleet {
            if f.handle.total_queue_depth() >= FLEET_PRESSURE_QUEUE
                && f.handle.sickest() == f.self_idx
                && self.admission.queue_depth() > 0
            {
                self.count_cache("scholarcloud.fleet_shed", 1, ctx);
                emit(ctx, Level::Warn, "fleet", "fleet_shed", || {
                    self.shard_field().into_iter().chain([
                        ("queue_depth", self.admission.queue_depth().to_string().into()),
                        ("fleet_queue", f.handle.total_queue_depth().to_string().into()),
                    ])
                });
                self.shed_browser(browser, 503, "fleet_shed", ctx);
                return;
            }
        }
        // The admission span covers arrival → verdict: for queued work
        // its duration is exactly the queue wait.
        let admission_span = sc_obs::span_start_ctx(
            now.as_micros(),
            Level::Debug,
            "scholarcloud",
            "admission",
            "admission",
            tctx,
            vec![("target", Value::String(target_label(&header)))],
        );
        let decision = self.admission.on_request(browser, client, now);
        match decision {
            Decision::Admit => {
                sc_obs::counter_add("scholarcloud.admitted", 1);
                sc_obs::span_end(
                    now.as_micros(),
                    admission_span,
                    vec![("verdict", "admit".into()), ("waited_us", 0u64.into())],
                );
                emit(ctx, Level::Debug, "admission", "admit", || {
                    [
                        ("target", target_label(&header).into()),
                        ("active", self.admission.active().to_string().into()),
                    ]
                });
                self.start_tunnel(
                    browser,
                    header,
                    initial_plain,
                    is_connect,
                    false,
                    tctx,
                    sc_obs::SpanId::NONE,
                    ctx,
                );
            }
            Decision::Enqueue => {
                sc_obs::counter_add("scholarcloud.queued", 1);
                emit(ctx, Level::Debug, "admission", "enqueue", || {
                    [
                        ("target", target_label(&header).into()),
                        ("depth", self.admission.queue_depth().to_string().into()),
                    ]
                });
                self.start_tunnel(
                    browser,
                    header,
                    initial_plain,
                    is_connect,
                    true,
                    tctx,
                    admission_span,
                    ctx,
                );
                self.sample_queue_depth(ctx);
                self.ensure_queue_tick(ctx);
            }
            _ => {
                let code = decision.status().expect("refusals carry a status");
                sc_obs::span_end(
                    now.as_micros(),
                    admission_span,
                    vec![
                        ("verdict", Value::String(decision.name().to_string())),
                        ("code", u64::from(code).into()),
                    ],
                );
                self.shed_browser(browser, code, decision.name(), ctx);
            }
        }
    }

    /// Registers a whitelisted request; unless still `queued`, starts
    /// its first attempt.
    #[allow(clippy::too_many_arguments)]
    fn start_tunnel(
        &mut self,
        browser: TcpHandle,
        header: StreamHeader,
        initial_plain: Vec<u8>,
        is_connect: bool,
        queued: bool,
        tctx: sc_obs::TraceCtx,
        admission_span: sc_obs::SpanId,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        let Some(b) = self.browser_mut(browser) else { return };
        // Gateway conns keep their request parser: the conn outlives the
        // per-request fetch.
        if b.fetch.is_none() {
            b.phase = Phase::Pending;
        }
        b.pending = Some(Box::new(PendingTunnel {
            header,
            initial_plain,
            attempts: 0,
            last_remote: None,
            is_connect,
            resumed: false,
            parked_since: None,
            inflight: None,
            retry_armed: false,
            queued,
            admitted_at: now,
            tctx,
            admission_span,
            establish_span: sc_obs::SpanId::NONE,
            wait_span: sc_obs::SpanId::NONE,
        }));
        if !queued {
            self.try_attempt(browser, ctx);
        }
    }

    /// Parked requests — waiting for *any* remote to come back — as
    /// `(parked_since, handle id)`, oldest first (handle id breaks ties
    /// deterministically).
    fn parked_requests(&self) -> Vec<(SimTime, usize)> {
        let mut parked: Vec<(SimTime, usize)> = self
            .conns
            .iter()
            .filter_map(|(&h, c)| match c {
                Conn::Browser(b) => b.pending.as_ref()?.parked_since.map(|s| (s, h.0)),
                _ => None,
            })
            .collect();
        parked.sort_unstable();
        parked
    }

    /// Starts (or parks) the next connect attempt for a pending request.
    /// Callers must ensure no attempt is currently in flight.
    fn try_attempt(&mut self, browser: TcpHandle, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(pt) = self.conns.get_mut(&browser).and_then(Conn::pending) else { return };
        debug_assert!(pt.inflight.is_none(), "attempt already outstanding");
        // The establish span opens with the first attempt and stays open
        // across retries/backoffs/parks until the tunnel is up or the
        // request fails.
        if pt.establish_span.is_none() {
            pt.establish_span = sc_obs::span_start_ctx(
                now.as_micros(),
                Level::Debug,
                "scholarcloud",
                "resilience",
                "establish",
                pt.tctx,
                vec![("target", Value::String(target_label(&pt.header)))],
            );
        }
        let exclude = if pt.attempts > 0 { pt.last_remote } else { None };
        let Some(idx) = self.pool.pick(now, exclude) else {
            // Every breaker refuses: park and wait for recovery (probes
            // drain us early), failing fast once the window elapses.
            let newly_parked = pt.parked_since.is_none();
            let since = *pt.parked_since.get_or_insert(now);
            let expired = now.saturating_since(since) >= self.config.resilience.queue_fail_after;
            let arm_recheck = !expired && !pt.retry_armed;
            if arm_recheck {
                pt.retry_armed = true;
            }
            if newly_parked {
                pt.wait_span = sc_obs::span_start_ctx(
                    now.as_micros(),
                    Level::Debug,
                    "scholarcloud",
                    "resilience",
                    "park",
                    pt.tctx.with_parent(pt.establish_span),
                    Vec::new(),
                );
                sc_obs::counter_add("scholarcloud.parked", 1);
                emit(ctx, Level::Warn, "resilience", "parked", || {
                    [("target", target_label(&pt.header).into())]
                });
                // The parked set is bounded by the admission queue
                // limit: an all-remotes-dark flash crowd must not park
                // unboundedly. Overflow sheds the oldest parked
                // requests (FIFO by park time, handle id as the
                // deterministic tie-break).
                let cap = self.admission.queue_len().max(1);
                let parked = self.parked_requests();
                if parked.len() > cap {
                    for &(_, b) in &parked[..parked.len() - cap] {
                        self.fail_browser(TcpHandle(b), 503, "parked_overflow", ctx);
                    }
                    // A same-instant park burst can shed this very
                    // request; it has already been answered then.
                    if !self.conns.contains_key(&browser) {
                        return;
                    }
                }
            }
            if expired {
                self.fail_browser(browser, 503, "all_remotes_dark", ctx);
            } else if arm_recheck {
                self.arm(PARK_RECHECK, TimerPurpose::Retry(browser), ctx);
            }
            return;
        };

        let prev = pt.last_remote;
        pt.last_remote = Some(idx);
        pt.attempts += 1;
        pt.parked_since = None;
        let attempt = pt.attempts;
        // Any backoff/park wait ends the moment an attempt starts.
        let ws = std::mem::replace(&mut pt.wait_span, sc_obs::SpanId::NONE);
        sc_obs::span_end(now.as_micros(), ws, Vec::new());
        let attempt_span = sc_obs::span_start_ctx(
            now.as_micros(),
            Level::Debug,
            "scholarcloud",
            "resilience",
            "attempt",
            pt.tctx.with_parent(pt.establish_span),
            vec![
                ("remote", Value::String(self.pool.entry(idx).addr.to_string())),
                ("attempt", u64::from(attempt).into()),
            ],
        );
        let mut header = pt.header.clone();
        // The stream header carries this attempt's span as the remote
        // side's parent, so the relay span stitches under the attempt
        // that actually carried the traffic.
        header.parent = attempt_span.0;
        let initial_plain = pt.initial_plain.clone();

        if let Some(p) = prev {
            if p != idx {
                sc_obs::counter_add("scholarcloud.failovers", 1);
                sc_obs::ts_bump(now.as_micros(), "scholarcloud.failovers", 1);
                emit(ctx, Level::Info, "resilience", "failover", || {
                    [
                        ("from", self.pool.entry(p).addr.to_string().into()),
                        ("to", self.pool.entry(idx).addr.to_string().into()),
                        ("attempt", attempt.to_string().into()),
                    ]
                });
            }
        }

        // Fresh preamble + codecs per attempt: the remote treats every
        // TCP connection as a new session.
        let scheme = self.config.scheme.get();
        let nonce: u64 = ctx.rng().gen();
        let hello = Hello { scheme, nonce, generation: self.config.scheme.generation() };
        let encrypt = !header.is_tls;
        let mut tx = StreamCodec::new(&self.config.secret, &hello, encrypt, 0);
        let rx = StreamCodec::new(&self.config.secret, &hello, encrypt, 1);
        let mut pending_wire = hello.encode(&self.config.secret, &self.config.front_host);
        let mut head = header.encode();
        tx.encode(&mut head);
        pending_wire.extend_from_slice(&head);
        if !initial_plain.is_empty() {
            let mut body = initial_plain;
            tx.encode(&mut body);
            pending_wire.extend_from_slice(&body);
        }
        let addr = self.pool.entry(idx).addr;
        // Every connection to an elastic instance is one billable
        // invocation (the cloud function spins per connection).
        if let Some(handle) = &self.elastic {
            if handle.with(|p| p.note_stream_start(addr.addr)) {
                sc_obs::counter_add("scholarcloud.elastic_invocations", 1);
            }
        }
        let remote = ctx.tcp_connect(addr);
        let client = match self.conns.get_mut(&browser).and_then(Conn::browser) {
            Some(b) => {
                if let Some(pt) = b.pending.as_deref_mut() {
                    pt.inflight = Some(remote);
                }
                b.client
            }
            None => NO_CLIENT,
        };
        self.conns.insert(
            remote,
            Conn::Remote(Box::new(RemoteConn {
                browser,
                client,
                remote_idx: idx,
                started: now,
                connected: false,
                pending: pending_wire,
                tx,
                rx,
                up_bytes: 0,
                down_bytes: 0,
                attempt_span,
                stream_span: sc_obs::SpanId::NONE,
                replay: None,
            })),
        );
        self.arm(
            self.config.resilience.connect_timeout,
            TimerPurpose::ConnectDeadline(remote),
            ctx,
        );
        sc_obs::counter_add("scholarcloud.connect_attempts", 1);
    }

    /// Rebuilds a pending request from an established tunnel's replay
    /// buffer after a recoverable mid-stream death and starts the next
    /// attempt immediately. The browser keeps its admission slot and
    /// notices nothing: no downstream byte was ever delivered, and the
    /// rebuilt tunnel replays every plaintext byte the browser sent.
    fn resume_tunnel(
        &mut self,
        browser: TcpHandle,
        last_remote: usize,
        rep: StreamReplay,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        sc_obs::counter_add("scholarcloud.stream_resumes", 1);
        emit(ctx, Level::Info, "domestic", "stream_resume", || {
            [
                ("target", target_label(&rep.header).into()),
                ("buffered", (rep.sent_plain.len() as u64).into()),
                ("attempt", u64::from(rep.attempts).into()),
            ]
        });
        let establish_span = sc_obs::span_start_ctx(
            now.as_micros(),
            Level::Debug,
            "scholarcloud",
            "resilience",
            "establish",
            rep.tctx,
            vec![("target", Value::String(target_label(&rep.header))), ("resumed", true.into())],
        );
        let Some(b) = self.browser_mut(browser) else { return };
        b.phase = Phase::Pending;
        b.pending = Some(Box::new(PendingTunnel {
            header: rep.header,
            initial_plain: rep.sent_plain,
            attempts: rep.attempts,
            last_remote: Some(last_remote),
            is_connect: rep.is_connect,
            resumed: true,
            parked_since: None,
            inflight: None,
            retry_armed: false,
            queued: false,
            admitted_at: now,
            tctx: rep.tctx,
            admission_span: sc_obs::SpanId::NONE,
            establish_span,
            wait_span: sc_obs::SpanId::NONE,
        }));
        self.try_attempt(browser, ctx);
    }

    /// A tunnel connect attempt died before establishment: record the
    /// failure and schedule a retry (or give up with 502).
    fn attempt_failed(&mut self, remote_h: TcpHandle, reason: &'static str, ctx: &mut Ctx<'_>) {
        let Some(Conn::Remote(conn)) = self.conns.remove(&remote_h) else { return };
        self.elastic_stream_end(conn.remote_idx, ctx.now());
        let browser = conn.browser;
        sc_obs::span_end(
            ctx.now().as_micros(),
            conn.attempt_span,
            vec![("ok", false.into()), ("reason", reason.into())],
        );
        self.record_remote_failure(conn.remote_idx, ctx);
        let (exhausted, attempts) = match self.conns.get_mut(&browser).and_then(Conn::pending) {
            Some(pt) => {
                pt.inflight = None;
                (pt.attempts >= self.config.resilience.max_attempts, pt.attempts)
            }
            // Browser gave up (or was refused) while we were connecting.
            None => return,
        };
        if exhausted {
            self.fail_browser(browser, 502, reason, ctx);
            return;
        }
        // The global retry budget caps brownout amplification: without
        // a token this request fails now instead of retrying.
        if !self.admission.retry_budget.try_retry() {
            sc_obs::counter_add("scholarcloud.retry_denied", 1);
            emit(ctx, Level::Warn, "admission", "retry_denied", || {
                [("reason", reason.into()), ("attempt", attempts.to_string().into())]
            });
            self.fail_browser(browser, 502, "retry_budget_exhausted", ctx);
            return;
        }
        let draw: f64 = ctx.rng().gen();
        let delay = self.config.resilience.backoff.delay(attempts - 1, draw);
        if let Some(pt) = self.conns.get_mut(&browser).and_then(Conn::pending) {
            pt.retry_armed = true;
            pt.wait_span = sc_obs::span_start_ctx(
                ctx.now().as_micros(),
                Level::Debug,
                "scholarcloud",
                "resilience",
                "backoff",
                pt.tctx.with_parent(pt.establish_span),
                vec![("delay_us", delay.as_micros().into())],
            );
        }
        sc_obs::counter_add("scholarcloud.retries", 1);
        emit(ctx, Level::Info, "resilience", "retry", || {
            [
                ("reason", reason.into()),
                ("attempt", attempts.to_string().into()),
                ("delay_us", delay.as_micros().to_string().into()),
            ]
        });
        self.arm(delay, TimerPurpose::Retry(browser), ctx);
    }

    /// A probe (or trial) just proved a remote healthy: retry every
    /// parked request immediately instead of waiting for its re-check,
    /// oldest first.
    fn drain_parked(&mut self, ctx: &mut Ctx<'_>) {
        for (_, b) in self.parked_requests() {
            self.try_attempt(TcpHandle(b), ctx);
        }
    }

    /// Launches one probe round (unproven or unhealthy remotes only) and
    /// re-arms the next tick.
    fn probe_round(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Probe sightings accrue on the remote side between our own
        // failure events; re-evaluate rotation on the same cadence as
        // health probing so they are picked up without a dedicated timer.
        self.maybe_rotate(ctx);
        // Pool entries with a probe still connecting (a probe leaves the
        // table the moment it succeeds).
        let probing: Vec<usize> = self
            .conns
            .values()
            .filter_map(|c| match c {
                Conn::Probe(p) => Some(p.remote_idx),
                _ => None,
            })
            .collect();
        for idx in 0..self.pool.len() {
            let e = self.pool.entry(idx);
            // Retired entries (drained elastic instances) are gone for
            // good — probing them would just re-open their breakers.
            if e.retired {
                continue;
            }
            let needs_probe = e.health.rtt_ewma.is_none()
                || e.health.consecutive_failures > 0
                || e.breaker.state() != BreakerState::Closed;
            if !needs_probe || probing.contains(&idx) {
                continue;
            }
            let addr = e.addr;
            let h = ctx.tcp_connect(addr);
            self.conns.insert(h, Conn::Probe(Probe { remote_idx: idx, started: now }));
            self.arm(self.config.resilience.connect_timeout, TimerPurpose::ProbeDeadline(h), ctx);
            sc_obs::counter_add("scholarcloud.probes", 1);
        }
        self.arm(self.config.resilience.probe_interval, TimerPurpose::ProbeTick, ctx);
    }

    fn on_timer(&mut self, purpose: TimerPurpose, ctx: &mut Ctx<'_>) {
        match purpose {
            TimerPurpose::ProbeTick => self.probe_round(ctx),
            TimerPurpose::ConnectDeadline(rh) => {
                if matches!(self.conns.get(&rh), Some(Conn::Remote(c)) if !c.connected) {
                    ctx.tcp_abort(rh);
                    sc_obs::counter_add("scholarcloud.connect_timeouts", 1);
                    self.attempt_failed(rh, "connect_timeout", ctx);
                }
            }
            TimerPurpose::ProbeDeadline(ph) => {
                if let Some(Conn::Probe(p)) = self.conns.get(&ph) {
                    let idx = p.remote_idx;
                    ctx.tcp_abort(ph);
                    self.conns.remove(&ph);
                    sc_obs::counter_add("scholarcloud.probe_timeouts", 1);
                    self.record_remote_failure(idx, ctx);
                }
            }
            TimerPurpose::Retry(browser) => {
                let ready = match self.conns.get_mut(&browser).and_then(Conn::pending) {
                    Some(pt) => {
                        pt.retry_armed = false;
                        pt.inflight.is_none() && !pt.queued
                    }
                    None => false,
                };
                if ready {
                    self.try_attempt(browser, ctx);
                }
            }
            TimerPurpose::QueueTick => {
                self.queue_tick_armed = false;
                self.drain_queue(ctx);
                self.ensure_queue_tick(ctx);
            }
            TimerPurpose::ElasticTick => self.elastic_tick(ctx),
            TimerPurpose::PeerDeadline(ph) => {
                if let Some(Conn::Peer(p)) = self.conns.get(&ph) {
                    let reason =
                        if p.connected { "peer_response_timeout" } else { "peer_connect_timeout" };
                    ctx.tcp_abort(ph);
                    sc_obs::counter_add("scholarcloud.peer_timeouts", 1);
                    self.peer_fetch_failed(ph, reason, ctx);
                }
            }
        }
    }

    fn on_probe_event(&mut self, h: TcpHandle, tcp_ev: TcpEvent, ctx: &mut Ctx<'_>) {
        match tcp_ev {
            TcpEvent::Connected => {
                let Some(Conn::Probe(p)) = self.conns.remove(&h) else { return };
                let rtt = ctx.now().saturating_since(p.started);
                ctx.tcp_close(h);
                sc_obs::observe("scholarcloud.probe_rtt_us", rtt.as_micros());
                self.record_remote_success(p.remote_idx, rtt, ctx);
                self.drain_parked(ctx);
            }
            TcpEvent::ConnectFailed | TcpEvent::Reset | TcpEvent::PeerClosed => {
                if let Some(Conn::Probe(p)) = self.conns.remove(&h) {
                    self.record_remote_failure(p.remote_idx, ctx);
                }
            }
            _ => {}
        }
    }

    /// One parsed request on a gateway-mode browser conn: resolve the
    /// target (absolute-form, or origin-form via the Host header — the
    /// browser's RTT probes arrive that way), enforce the whitelist, and
    /// serve from the shared cache, an in-flight coalesced fetch, or
    /// upstream.
    fn gateway_request(&mut self, browser: TcpHandle, req: HttpRequest, ctx: &mut Ctx<'_>) {
        let (host, port, path) = if let Some(rest) = req.target.strip_prefix("http://") {
            let (hostport, path) = match rest.find('/') {
                Some(i) => (&rest[..i], &rest[i..]),
                None => (rest, "/"),
            };
            let (host, port) = match hostport.rsplit_once(':') {
                Some((h, p)) => (h, p.parse().unwrap_or(80)),
                None => (hostport, 80),
            };
            (host.to_string(), port, path.to_string())
        } else if req.target.starts_with('/') {
            match req.host() {
                Some(h) => (h.to_string(), 80, req.target.clone()),
                None => {
                    ctx.tcp_send(browser, &HttpResponse::new(400, Vec::new()).encode());
                    return;
                }
            }
        } else {
            ctx.tcp_send(browser, &HttpResponse::new(400, Vec::new()).encode());
            return;
        };
        if !self.config.whitelisted(&host) {
            self.refuse(browser, &host, ctx);
            return;
        }
        let now = ctx.now();
        // Trace context arrives on the request itself; the proxy's
        // cache/admission/resilience spans all parent into it.
        let tctx = req
            .header_value(sc_obs::TRACE_HEADER)
            .and_then(sc_obs::TraceCtx::parse)
            .unwrap_or(sc_obs::TraceCtx::NONE);
        let key: CacheKey = (host.clone(), path.clone());
        if let Some(b) = self.browser_mut(browser) {
            b.inm = req.header_value("If-None-Match").map(str::to_string);
        }
        let cacheable = req.method == "GET" && self.config.cache.borrow().enabled();
        // An intra-fleet peering hop announces itself with the
        // loop-guard header: the owner answers locally (cache,
        // coalesced flight, or its own upstream fetch) and never
        // re-forwards — one hop, by construction.
        let peer_hop = req.header_value(FLEET_HEADER).and_then(|v| v.parse::<usize>().ok());
        if let Some(from) = peer_hop {
            self.config.cache.borrow_mut().note_peer_serve();
            self.count_cache("scholarcloud.peer_serves", 1, ctx);
            emit(ctx, Level::Debug, "fleet", "peer_serve", || {
                self.shard_field()
                    .into_iter()
                    .chain([("from", from.to_string().into()), ("path", path.clone().into())])
            });
        }

        // Upstream leg is origin-form.
        let mut origin_req = req;
        origin_req.target = path;
        origin_req.headers.retain(|(n, _)| !n.eq_ignore_ascii_case(FLEET_HEADER));

        if !cacheable {
            // Non-GET (the HEAD RTT probe) or cache disabled: a plain
            // uncoalesced pass-through fetch.
            self.gateway_fetch(browser, port, key, origin_req, false, false, tctx, ctx);
            return;
        }
        // The client's validator is answered from the cache, not
        // forwarded: the shared cache needs the full body for its other
        // readers, so only *its own* validator may go upstream.
        origin_req.headers.retain(|(n, _)| !n.eq_ignore_ascii_case("If-None-Match"));

        enum Plan {
            Hit(CachedResponse),
            Fetch { stored_etag: Option<String> },
        }
        let plan = {
            let _prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Cache);
            let mut cache = self.config.cache.borrow_mut();
            match cache.lookup(&key, now) {
                Lookup::Fresh(r) => {
                    let r = r.clone();
                    cache.note_hit(r.body.len());
                    Plan::Hit(r)
                }
                Lookup::Stale(_) => Plan::Fetch {
                    stored_etag: cache.etag_of(&key).filter(|e| !e.is_empty()).map(str::to_string),
                },
                Lookup::Miss => Plan::Fetch { stored_etag: None },
            }
        };
        // An instant "cache_lookup" span records the verdict in the
        // trace tree (and marks the request as having reached the cache
        // tier even when it never goes upstream).
        let verdict = match &plan {
            Plan::Hit(_) => "hit",
            Plan::Fetch { stored_etag: Some(_) } => "stale",
            Plan::Fetch { stored_etag: None } => "miss",
        };
        let lookup_span = sc_obs::span_start_ctx(
            now.as_micros(),
            Level::Debug,
            "scholarcloud",
            "cache",
            "cache_lookup",
            tctx,
            vec![("verdict", verdict.into())],
        );
        sc_obs::span_end(now.as_micros(), lookup_span, Vec::new());
        match plan {
            Plan::Hit(r) => {
                self.count_cache("scholarcloud.cache_hits", 1, ctx);
                self.count_cache("scholarcloud.cache_bytes_saved", r.body.len() as u64, ctx);
                emit(ctx, Level::Debug, "cache", "hit", || self.cache_fields(&key));
                self.serve_from_cache(browser, &r, ctx);
            }
            Plan::Fetch { stored_etag } => match self.singleflight.begin(&key, browser) {
                Role::Waiter => {
                    // No admission slot, no tunnel: park on the leader's
                    // in-flight fetch.
                    let span = sc_obs::span_start_ctx(
                        now.as_micros(),
                        Level::Debug,
                        "scholarcloud",
                        "cache",
                        "coalesce_wait",
                        tctx,
                        vec![("path", Value::String(key.1.clone()))],
                    );
                    if let Some(b) = self.browser_mut(browser) {
                        b.wait = Some(Box::new(CoalesceWait { key: key.clone(), span, tctx }));
                    }
                    self.config.cache.borrow_mut().note_coalesced();
                    self.count_cache("scholarcloud.cache_coalesced", 1, ctx);
                    emit(ctx, Level::Debug, "cache", "coalesced", || self.cache_fields(&key));
                }
                Role::Leader => {
                    let revalidating = stored_etag.is_some();
                    // A non-owner's miss takes one intra-fleet hop to
                    // the key's owner (whose singleflight coalesces the
                    // whole fleet's demand) instead of a cross-border
                    // fetch — unless this request already IS such a hop.
                    if peer_hop.is_none() {
                        if let Some(owner) = self.peer_owner_of(&key, now) {
                            self.start_peer_fetch(
                                browser,
                                owner,
                                port,
                                key,
                                origin_req,
                                stored_etag,
                                tctx,
                                ctx,
                            );
                            return;
                        }
                    }
                    let origin_req = match stored_etag {
                        Some(etag) => origin_req.header("If-None-Match", &etag),
                        None => origin_req,
                    };
                    self.gateway_fetch(
                        browser,
                        port,
                        key,
                        origin_req,
                        true,
                        revalidating,
                        tctx,
                        ctx,
                    );
                }
            },
        }
    }

    /// The peer shard owning `key` right now, or `None` when the hop
    /// should not happen: no fleet, a one-member fleet, or this shard
    /// owns the key itself (possibly by inheritance from a dead peer).
    fn peer_owner_of(&self, key: &CacheKey, now: SimTime) -> Option<usize> {
        let f = self.fleet.as_ref()?;
        if f.handle.len() < 2 {
            return None;
        }
        let owner = f.owner_for(key, now);
        (owner != f.self_idx).then_some(owner)
    }

    /// Launches an intra-fleet peering hop: one absolute-form GET to
    /// the key's owner shard, marked with the loop-guard header and
    /// carrying *our* stored validator (the owner's `304` renews our
    /// entry). The fetch bookkeeping is registered under the leader as
    /// usual so waiters coalesce locally too; a failed hop dead-marks
    /// the peer and falls back to a normal upstream fetch.
    #[allow(clippy::too_many_arguments)]
    fn start_peer_fetch(
        &mut self,
        leader: TcpHandle,
        owner: usize,
        port: u16,
        key: CacheKey,
        request: HttpRequest,
        stored_etag: Option<String>,
        tctx: sc_obs::TraceCtx,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        let (self_idx, addr) = {
            let f = self.fleet.as_ref().expect("caller checked");
            (f.self_idx, f.handle.member_addr(owner))
        };
        let revalidating = stored_etag.is_some();
        self.config.cache.borrow_mut().note_peer_fetch();
        self.count_cache("scholarcloud.peer_fetches", 1, ctx);
        emit(ctx, Level::Debug, "fleet", "peer_fetch", || {
            self.shard_field().into_iter().chain([
                ("owner", owner.to_string().into()),
                ("host", key.0.clone().into()),
                ("path", key.1.clone().into()),
            ])
        });
        let span = sc_obs::span_start_ctx(
            now.as_micros(),
            Level::Debug,
            "scholarcloud",
            "fleet",
            "peer_fetch",
            tctx,
            vec![("owner", (owner as u64).into())],
        );
        let target = if port == 80 {
            format!("http://{}{}", key.0, key.1)
        } else {
            format!("http://{}:{}{}", key.0, port, key.1)
        };
        let mut hop = HttpRequest::get(&key.0, &target)
            .header(FLEET_HEADER, &self_idx.to_string())
            .header(sc_obs::TRACE_HEADER, &tctx.with_parent(span).header_value());
        if let Some(etag) = &stored_etag {
            hop = hop.header("If-None-Match", etag);
        }
        if let Some(b) = self.browser_mut(leader) {
            b.fetch = Some(Box::new(GatewayFetch {
                key,
                port,
                request,
                cacheable: true,
                revalidating,
                parser: HttpParser::new(),
            }));
        }
        let h = ctx.tcp_connect(addr);
        self.conns.insert(
            h,
            Conn::Peer(Box::new(PeerFetch {
                leader,
                owner,
                wire: hop.encode(),
                connected: false,
                parser: HttpParser::new(),
                span,
                tctx,
            })),
        );
        // One deadline covers the whole hop (connect + response): a
        // crashed or wedged owner must cost one bounded wait, then the
        // fallback goes upstream.
        self.arm(
            self.config.resilience.connect_timeout.saturating_mul(2),
            TimerPurpose::PeerDeadline(h),
            ctx,
        );
    }

    /// The owner shard answered an intra-fleet hop. A `200`/`304`
    /// settles exactly like an upstream response (the `200` body is
    /// stored locally too — a deliberate hot-key replica, so repeat
    /// traffic at this shard stops paying the hop); no admission slot
    /// was held, so nothing is released. Anything else means the owner
    /// is alive but refusing (shedding under fleet pressure): not a
    /// liveness failure — no dead-mark, fall back upstream.
    fn peer_fetch_done(&mut self, h: TcpHandle, resp: HttpResponse, ctx: &mut Ctx<'_>) {
        let Some(Conn::Peer(pf)) = self.conns.remove(&h) else { return };
        let ok = resp.status == 200 || resp.status == 304;
        ctx.tcp_close(h);
        sc_obs::span_end(
            ctx.now().as_micros(),
            pf.span,
            vec![("ok", ok.into()), ("status", u64::from(resp.status).into())],
        );
        let owner = pf.owner;
        if !ok {
            self.count_cache("scholarcloud.peer_refusals", 1, ctx);
            emit(ctx, Level::Info, "fleet", "peer_refused", || {
                self.shard_field().into_iter().chain([
                    ("owner", owner.to_string().into()),
                    ("status", resp.status.to_string().into()),
                ])
            });
            self.peer_fallback_upstream(pf.leader, pf.tctx, ctx);
            return;
        }
        let was_dead = self.fleet.as_mut().map_or(false, |f| f.mark_peer_up(owner));
        if was_dead {
            self.count_cache("scholarcloud.peer_recoveries", 1, ctx);
            emit(ctx, Level::Info, "fleet", "peer_up", || {
                self.shard_field().into_iter().chain([("peer", owner.to_string().into())])
            });
        }
        let Some(fetch) = self.browser_mut(pf.leader).and_then(|b| b.fetch.take()) else { return };
        self.settle_fetch(pf.leader, *fetch, resp, true, ctx);
    }

    /// An intra-fleet hop died (connect failure, deadline, reset):
    /// dead-mark the owner with exponential re-probe backoff — misses
    /// on its keyspace re-route to each key's next-highest scorer until
    /// the backoff elapses — and fall back upstream for this request.
    fn peer_fetch_failed(&mut self, h: TcpHandle, reason: &'static str, ctx: &mut Ctx<'_>) {
        let Some(Conn::Peer(pf)) = self.conns.remove(&h) else { return };
        let now = ctx.now();
        sc_obs::span_end(
            now.as_micros(),
            pf.span,
            vec![("ok", false.into()), ("reason", reason.into())],
        );
        let backoff = self.fleet.as_mut().map(|f| f.mark_peer_dead(pf.owner, now));
        self.count_cache("scholarcloud.peer_dead_marks", 1, ctx);
        emit(ctx, Level::Warn, "fleet", "peer_dead", || {
            self.shard_field().into_iter().chain([
                ("peer", pf.owner.to_string().into()),
                ("reason", reason.into()),
                ("backoff_us", backoff.map_or(0, |b| b.as_micros()).to_string().into()),
            ])
        });
        self.peer_fallback_upstream(pf.leader, pf.tctx, ctx);
    }

    /// Replays a failed hop's request through the normal upstream
    /// machinery. One hop max: even if another peer now owns the key,
    /// the fallback goes straight upstream — bounded worst-case
    /// latency per request, by construction.
    fn peer_fallback_upstream(
        &mut self,
        leader: TcpHandle,
        tctx: sc_obs::TraceCtx,
        ctx: &mut Ctx<'_>,
    ) {
        // The browser may have vanished while the hop was in flight.
        let Some(fetch) = self.browser_mut(leader).and_then(|b| b.fetch.take()) else { return };
        let request = match self.config.cache.borrow().etag_of(&fetch.key) {
            Some(etag) if fetch.revalidating && !etag.is_empty() => {
                fetch.request.header("If-None-Match", etag)
            }
            _ => fetch.request,
        };
        self.gateway_fetch(
            leader,
            fetch.port,
            fetch.key,
            request,
            true,
            fetch.revalidating,
            tctx,
            ctx,
        );
    }

    fn on_peer_event(&mut self, h: TcpHandle, tcp_ev: TcpEvent, ctx: &mut Ctx<'_>) {
        match tcp_ev {
            TcpEvent::Connected => {
                let Some(pf) = self.conns.get_mut(&h).and_then(Conn::peer) else { return };
                pf.connected = true;
                let wire = std::mem::take(&mut pf.wire);
                ctx.tcp_send(h, &wire);
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                let Some(pf) = self.conns.get_mut(&h).and_then(Conn::peer) else { return };
                match pf.parser.push(&data) {
                    Err(_) => {
                        ctx.tcp_abort(h);
                        self.peer_fetch_failed(h, "bad_peer_response", ctx);
                    }
                    Ok(msgs) => {
                        let resp = msgs.into_iter().find_map(|m| match m {
                            HttpMessage::Response(r) => Some(r),
                            _ => None,
                        });
                        if let Some(resp) = resp {
                            self.peer_fetch_done(h, resp, ctx);
                        }
                    }
                }
            }
            TcpEvent::ConnectFailed | TcpEvent::Reset | TcpEvent::PeerClosed => {
                let reason = match tcp_ev {
                    TcpEvent::ConnectFailed => "peer_connect_failed",
                    TcpEvent::Reset => "peer_reset",
                    _ => "peer_closed",
                };
                self.peer_fetch_failed(h, reason, ctx);
            }
            _ => {}
        }
    }

    /// Launches a gateway request's upstream fetch through the normal
    /// admission + tunnel machinery (one tunnel per fetch).
    #[allow(clippy::too_many_arguments)]
    fn gateway_fetch(
        &mut self,
        browser: TcpHandle,
        port: u16,
        key: CacheKey,
        request: HttpRequest,
        cacheable: bool,
        revalidating: bool,
        tctx: sc_obs::TraceCtx,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        if cacheable {
            self.config.cache.borrow_mut().note_upstream_fetch(&key, now);
            if !revalidating {
                self.config.cache.borrow_mut().note_miss();
                self.count_cache("scholarcloud.cache_misses", 1, ctx);
                emit(ctx, Level::Debug, "cache", "miss", || self.cache_fields(&key));
            }
        }
        let header = StreamHeader {
            is_tls: false,
            trace: tctx.trace.0,
            parent: 0,
            target: TargetAddr::Domain(key.0.clone(), port),
        };
        let wire = request.encode();
        if let Some(b) = self.browser_mut(browser) {
            b.fetch = Some(Box::new(GatewayFetch {
                key,
                port,
                request,
                cacheable,
                revalidating,
                parser: HttpParser::new(),
            }));
        }
        self.admit_request(browser, header, wire, false, tctx, ctx);
    }

    /// A gateway upstream fetch completed: update the cache, answer the
    /// leader and every coalesced waiter, and tear the tunnel down.
    fn gateway_fetch_done(
        &mut self,
        remote_h: TcpHandle,
        leader: TcpHandle,
        resp: HttpResponse,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(fetch) = self.browser_mut(leader).and_then(|b| b.fetch.take()) else { return };
        let client = self.client_of(leader);
        // One fetch per tunnel: close the upstream leg and free the slot.
        ctx.tcp_close(remote_h);
        if let Some(Conn::Remote(conn)) = self.conns.remove(&remote_h) {
            self.end_stream(&conn, true, ctx);
        }
        self.settle_fetch(leader, *fetch, resp, false, ctx);
        self.release_slot(client, ctx);
    }

    /// Settles a completed fetch: update the cache, answer the leader
    /// and every coalesced waiter. Shared between the upstream path
    /// (which then releases its admission slot) and the intra-fleet
    /// peering path (which held none). `via_peer` bodies came from a
    /// peer's cache over the LAN, so a changed representation there is
    /// not a local miss.
    fn settle_fetch(
        &mut self,
        leader: TcpHandle,
        fetch: GatewayFetch,
        resp: HttpResponse,
        via_peer: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        let cache_prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Cache);
        let served: Option<CachedResponse> = if !fetch.cacheable {
            None
        } else if resp.status == 304 && fetch.revalidating {
            // Our validator held: a cheap bodyless exchange renewed the
            // entry for everyone.
            let renewed = {
                let mut cache = self.config.cache.borrow_mut();
                let ttl = cache.ttl_for(&fetch.key.0, resp.max_age_secs());
                cache.revalidate(&fetch.key, ttl, now, resp.header_value("ETag")).cloned()
            };
            if let Some(r) = &renewed {
                self.config.cache.borrow_mut().note_bytes_saved(r.body.len());
                self.count_cache("scholarcloud.cache_revalidated", 1, ctx);
                self.count_cache("scholarcloud.cache_bytes_saved", r.body.len() as u64, ctx);
                emit(ctx, Level::Debug, "cache", "revalidated", || self.cache_fields(&fetch.key));
            }
            renewed
        } else if resp.status == 200 {
            let entry = CachedResponse {
                status: 200,
                content_type: resp
                    .header_value("Content-Type")
                    .unwrap_or("application/octet-stream")
                    .to_string(),
                etag: resp.header_value("ETag").unwrap_or_default().to_string(),
                max_age: resp.max_age_secs(),
                body: resp.body.clone(),
            };
            let evicted = {
                let mut cache = self.config.cache.borrow_mut();
                let ttl = cache.ttl_for(&fetch.key.0, entry.max_age);
                if fetch.revalidating && !via_peer {
                    // The representation changed upstream: the stale
                    // entry did not help after all.
                    cache.note_miss();
                }
                cache.insert(fetch.key.clone(), entry.clone(), ttl, now).evicted
            };
            if fetch.revalidating && !via_peer {
                self.count_cache("scholarcloud.cache_misses", 1, ctx);
                emit(ctx, Level::Debug, "cache", "miss", || self.cache_fields(&fetch.key));
            }
            for victim in &evicted {
                self.count_cache("scholarcloud.cache_evicted", 1, ctx);
                emit(ctx, Level::Debug, "cache", "evicted", || self.cache_fields(victim));
            }
            Some(entry)
        } else {
            None
        };
        drop(cache_prof);
        match served {
            Some(entry) => {
                self.serve_from_cache(leader, &entry, ctx);
                if let Some(flight) = self.singleflight.complete(&fetch.key) {
                    for w in flight.waiters {
                        self.end_wait(w, vec![("ok", true.into())], ctx);
                        self.config.cache.borrow_mut().note_bytes_saved(entry.body.len());
                        self.count_cache(
                            "scholarcloud.cache_bytes_saved",
                            entry.body.len() as u64,
                            ctx,
                        );
                        self.serve_from_cache(w, &entry, ctx);
                    }
                }
            }
            None => {
                // Pass-through (non-GET, cache off, or an uncacheable
                // status): every coalesced requester gets the same
                // answer.
                let wire = resp.encode();
                ctx.tcp_send(leader, &wire);
                if fetch.cacheable {
                    if let Some(flight) = self.singleflight.complete(&fetch.key) {
                        for w in flight.waiters {
                            self.end_wait(w, vec![("ok", true.into())], ctx);
                            ctx.tcp_send(w, &wire);
                        }
                    }
                }
            }
        }
    }

    /// Ends `browser`'s coalesce wait, if it has one, returning the
    /// waiter's own trace context.
    fn end_wait(
        &mut self,
        browser: TcpHandle,
        fields: Vec<(&'static str, Value)>,
        ctx: &Ctx<'_>,
    ) -> Option<sc_obs::TraceCtx> {
        let wait = self.browser_mut(browser)?.wait.take()?;
        sc_obs::span_end(ctx.now().as_micros(), wait.span, fields);
        Some(wait.tctx)
    }

    /// Answers a gateway requester from a cache entry: `304` when its own
    /// validator still matches, the full `200` otherwise. Validators and
    /// freshness are forwarded so browser caches layer on top.
    fn serve_from_cache(&mut self, browser: TcpHandle, entry: &CachedResponse, ctx: &mut Ctx<'_>) {
        let inm = self.browser_mut(browser).and_then(|b| b.inm.take());
        let not_modified = !entry.etag.is_empty() && inm.as_deref() == Some(entry.etag.as_str());
        let mut resp = if not_modified {
            HttpResponse::new(304, Vec::new())
        } else {
            HttpResponse::new(entry.status, entry.body.clone())
                .header("Content-Type", &entry.content_type)
        };
        if !entry.etag.is_empty() {
            resp = resp.header("ETag", &entry.etag);
        }
        if let Some(max_age) = entry.max_age {
            resp = resp.header("Cache-Control", &format!("public, max-age={max_age}"));
        }
        ctx.tcp_send(browser, &resp.encode());
    }

    /// A gateway leader's request failed (shed, retries exhausted, or
    /// upstream death): its coalesced waiters get the same answer —
    /// without this they would hang until their browsers time out.
    fn fail_gateway_waiters(&mut self, leader: TcpHandle, code: u16, ctx: &mut Ctx<'_>) {
        let Some(fetch) = self.browser_mut(leader).and_then(|b| b.fetch.take()) else { return };
        if !fetch.cacheable {
            return;
        }
        let Some(flight) = self.singleflight.complete(&fetch.key) else { return };
        let wire = HttpResponse::new(code, Vec::new()).encode();
        for w in flight.waiters {
            self.end_wait(w, vec![("ok", false.into()), ("code", u64::from(code).into())], ctx);
            ctx.tcp_send(w, &wire);
            ctx.tcp_close(w);
            self.forget_browser(w);
        }
    }

    /// A gateway browser conn went away: drop it from any coalesced
    /// flight. A departing waiter is simply removed; a departing leader
    /// hands the fetch to its first waiter, whose replayed request goes
    /// back through admission under its own slot.
    fn gateway_browser_gone(&mut self, browser: TcpHandle, ctx: &mut Ctx<'_>) {
        let Some(b) = self.browser_mut(browser) else { return };
        if let Some(wait) = b.wait.take() {
            sc_obs::span_end(ctx.now().as_micros(), wait.span, vec![("ok", false.into())]);
            self.singleflight.forget(&wait.key, browser);
            return;
        }
        let Some(fetch) = b.fetch.take() else { return };
        if !fetch.cacheable {
            return;
        }
        if let Some(promoted) = self.singleflight.forget(&fetch.key, browser) {
            // The dead leader's attempt is torn down by the caller; the
            // promoted waiter restarts the fetch (stats already counted
            // this as one miss — a replay is not a second one). Its
            // coalesce wait ends here; the replayed fetch runs under the
            // promoted waiter's own trace context.
            let promoted_ctx = self
                .end_wait(promoted, vec![("promoted", true.into())], ctx)
                .unwrap_or(sc_obs::TraceCtx::NONE);
            self.config.cache.borrow_mut().note_upstream_fetch(&fetch.key, ctx.now());
            let header = StreamHeader {
                is_tls: false,
                trace: promoted_ctx.trace.0,
                parent: 0,
                target: TargetAddr::Domain(fetch.key.0.clone(), fetch.port),
            };
            let wire = fetch.request.encode();
            if let Some(p) = self.browser_mut(promoted) {
                p.fetch = Some(Box::new(GatewayFetch { parser: HttpParser::new(), ..*fetch }));
            }
            self.admit_request(promoted, header, wire, false, promoted_ctx, ctx);
        }
    }

    fn handle_request(&mut self, browser: TcpHandle, req: HttpRequest, ctx: &mut Ctx<'_>) {
        if req.method == "CONNECT" {
            let Some((host, port_str)) = req.target.rsplit_once(':') else {
                ctx.tcp_send(browser, &HttpResponse::new(400, Vec::new()).encode());
                return;
            };
            let port: u16 = port_str.parse().unwrap_or(443);
            if !self.config.whitelisted(host) {
                self.refuse(browser, host, ctx);
                return;
            }
            // The 200 is deferred until the tunnel actually connects —
            // see `TcpEvent::Connected` on the remote side.
            let tctx = req
                .header_value(sc_obs::TRACE_HEADER)
                .and_then(sc_obs::TraceCtx::parse)
                .unwrap_or(sc_obs::TraceCtx::NONE);
            let header = StreamHeader {
                is_tls: port == 443,
                trace: tctx.trace.0,
                parent: 0,
                target: TargetAddr::Domain(host.to_string(), port),
            };
            self.admit_request(browser, header, Vec::new(), true, tctx, ctx);
        } else if req.target.starts_with("http://") || req.target.starts_with('/') {
            // Plain HTTP (absolute-form, or origin-form with a Host
            // header): gateway mode. The conn stays in gateway mode for
            // keep-alive follow-ups; each request runs through the
            // shared content cache.
            if let Some(b) = self.browser_mut(browser) {
                b.phase = Phase::Gateway(HttpParser::new());
            }
            self.gateway_request(browser, req, ctx);
        } else {
            ctx.tcp_send(browser, &HttpResponse::new(400, Vec::new()).encode());
        }
    }

    /// Answers an off-whitelist request with `403` and closes the conn.
    fn refuse(&mut self, browser: TcpHandle, host: &str, ctx: &mut Ctx<'_>) {
        sc_obs::counter_add("scholarcloud.whitelist_refusals", 1);
        emit(ctx, Level::Warn, "domestic", "whitelist_refused", || {
            [("host", host.to_string().into())]
        });
        ctx.tcp_send(browser, &HttpResponse::new(403, Vec::new()).encode());
        ctx.tcp_close(browser);
        self.forget_browser(browser);
    }

    fn on_remote_event(&mut self, h: TcpHandle, tcp_ev: TcpEvent, ctx: &mut Ctx<'_>) {
        match tcp_ev {
            TcpEvent::Connected => self.remote_connected(h, ctx),
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                let Some(conn) = self.conns.get_mut(&h).and_then(Conn::remote) else { return };
                let mut plain = data.to_vec();
                conn.rx.decode(&mut plain);
                conn.down_bytes += plain.len() as u64;
                // The browser has now observed upstream state: a
                // later death can no longer be replayed from zero.
                conn.replay = None;
                sc_obs::counter_add("scholarcloud.bytes_down", plain.len() as u64);
                let browser = conn.browser;
                let ridx = conn.remote_idx;
                // Relayed plaintext is the instance's billable
                // egress under the elastic cost model.
                if let Some(handle) = &self.elastic {
                    let addr = self.pool.entry(ridx).addr.addr;
                    handle.with(|p| p.note_egress(addr, plain.len() as u64));
                }
                let fetch = self.browser_mut(browser).and_then(|b| b.fetch.as_deref_mut());
                let Some(fetch) = fetch else {
                    ctx.tcp_send(browser, &plain);
                    return;
                };
                // Gateway fetch: reassemble the upstream response
                // instead of piping bytes through.
                let Ok(msgs) = fetch.parser.push(&plain) else {
                    ctx.tcp_abort(h);
                    if let Some(Conn::Remote(conn)) = self.conns.remove(&h) {
                        self.elastic_stream_end(conn.remote_idx, ctx.now());
                        sc_obs::span_end(
                            ctx.now().as_micros(),
                            conn.stream_span,
                            vec![("ok", false.into())],
                        );
                    }
                    self.fail_browser(browser, 502, "bad_upstream_response", ctx);
                    return;
                };
                for m in msgs {
                    if let HttpMessage::Response(resp) = m {
                        self.gateway_fetch_done(h, browser, resp, ctx);
                        break;
                    }
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                let connected = matches!(self.conns.get(&h), Some(Conn::Remote(c)) if c.connected);
                if !connected {
                    let reason = match tcp_ev {
                        TcpEvent::ConnectFailed => "connect_failed",
                        TcpEvent::Reset => "reset",
                        _ => "peer_closed",
                    };
                    self.attempt_failed(h, reason, ctx);
                } else if let Some(Conn::Remote(conn)) = self.conns.remove(&h) {
                    self.stream_ended(*conn, matches!(tcp_ev, TcpEvent::Reset), ctx);
                }
            }
            _ => {}
        }
    }

    /// A tunnel connect attempt succeeded: flush the queued preamble and
    /// turn the browser's pending request into an established stream.
    fn remote_connected(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(conn) = self.conns.get_mut(&h).and_then(Conn::remote) else { return };
        conn.connected = true;
        let browser = conn.browser;
        let idx = conn.remote_idx;
        let rtt = now.saturating_since(conn.started);
        let wire = std::mem::take(&mut conn.pending);
        let attempt_span = std::mem::replace(&mut conn.attempt_span, sc_obs::SpanId::NONE);
        ctx.tcp_send(h, &wire);
        sc_obs::span_end(now.as_micros(), attempt_span, vec![("ok", true.into())]);
        sc_obs::observe("scholarcloud.connect_rtt_us", rtt.as_micros());
        self.record_remote_success(idx, rtt, ctx);
        let Some(b) = self.browser_mut(browser) else { return };
        let Some(pt) = b.pending.take() else { return };
        // A gateway leader's conn stays in gateway mode (the conn
        // outlives its per-request fetch); only opaque tunnels switch
        // to piping.
        let gateway = b.fetch.is_some();
        if !gateway {
            b.phase = Phase::Tunneling { remote: h };
        }
        sc_obs::span_end(
            now.as_micros(),
            pt.establish_span,
            vec![("ok", true.into()), ("attempts", u64::from(pt.attempts).into())],
        );
        // The transfer span covers the tunnel's lifetime: established →
        // torn down, parented on the browser-side span that requested it.
        let stream_span = sc_obs::span_start_ctx(
            now.as_micros(),
            Level::Debug,
            "scholarcloud",
            "domestic",
            if pt.is_connect { "tunnel_stream" } else { "upstream_fetch" },
            pt.tctx,
            vec![("target", Value::String(target_label(&pt.header)))],
        );
        let arm_replay = self.config.resilience.stream_resume
            && !gateway
            && pt.initial_plain.len() <= REPLAY_CAP;
        if let Some(conn) = self.conns.get_mut(&h).and_then(Conn::remote) {
            conn.stream_span = stream_span;
            if arm_replay {
                conn.replay = Some(StreamReplay {
                    header: pt.header.clone(),
                    is_connect: pt.is_connect,
                    sent_plain: pt.initial_plain.clone(),
                    attempts: pt.attempts,
                    tctx: pt.tctx,
                });
            }
        }
        self.admission.record_service(now.saturating_since(pt.admitted_at));
        if pt.is_connect && !pt.resumed {
            ctx.tcp_send(browser, b"HTTP/1.1 200 Connection established\r\n\r\n");
        }
        sc_obs::counter_add("scholarcloud.tunnels_opened", 1);
        emit(ctx, Level::Info, "domestic", "tunnel_open", || {
            [
                ("target", target_label(&pt.header).into()),
                ("encrypted", (!pt.header.is_tls).into()),
                ("remote", self.pool.entry(idx).addr.to_string().into()),
                ("attempt", (pt.attempts as u64).into()),
            ]
        });
    }

    /// An established stream's remote leg closed or reset. A reset
    /// before any downstream byte is transparently resumed when the
    /// replay buffer allows; otherwise the browser conn is closed too.
    fn stream_ended(&mut self, mut conn: RemoteConn, reset: bool, ctx: &mut Ctx<'_>) {
        // A mid-stream RST before any downstream byte is the adaptive
        // censor's learned-signature RESET landing on the preamble, past
        // the establish retry budget. Record the failure *first* so the
        // breaker/rotation evidence is current (a detection-driven
        // rotation fires right here), then rebuild the request from its
        // replay buffer and retry under the rotated scheme.
        if reset && conn.down_bytes == 0 {
            if let Some(rep) = conn.replay.take() {
                if rep.attempts < self.config.resilience.max_attempts {
                    self.elastic_stream_end(conn.remote_idx, ctx.now());
                    self.record_remote_failure(conn.remote_idx, ctx);
                    sc_obs::observe("scholarcloud.stream_bytes_up", conn.up_bytes);
                    sc_obs::observe("scholarcloud.stream_bytes_down", 0);
                    sc_obs::span_end(
                        ctx.now().as_micros(),
                        conn.stream_span,
                        vec![
                            ("ok", false.into()),
                            ("bytes_down", 0u64.into()),
                            ("resumed", true.into()),
                        ],
                    );
                    self.resume_tunnel(conn.browser, conn.remote_idx, rep, ctx);
                    return;
                }
            }
        }
        self.end_stream(&conn, !reset, ctx);
        if reset {
            // A mid-stream RST is a health signal (GFW interference or a
            // dying VM), not a normal end-of-stream.
            self.record_remote_failure(conn.remote_idx, ctx);
        }
        // A gateway fetch dying mid-response takes its coalesced waiters
        // down with the same status.
        self.fail_gateway_waiters(conn.browser, 502, ctx);
        ctx.tcp_close(conn.browser);
        self.forget_browser(conn.browser);
        self.release_slot(conn.client, ctx);
    }

    fn on_browser_event(&mut self, h: TcpHandle, tcp_ev: TcpEvent, ctx: &mut Ctx<'_>) {
        match tcp_ev {
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                let Some(b) = self.browser_mut(h) else { return };
                match &mut b.phase {
                    Phase::AwaitRequest(parser) => {
                        let Ok(msgs) = parser.push(&data) else {
                            self.serve_decoy(h, ctx);
                            return;
                        };
                        for msg in msgs {
                            if let HttpMessage::Request(req) = msg {
                                self.handle_request(h, req, ctx);
                                break; // one request per proxy connection
                            }
                        }
                    }
                    Phase::Gateway(parser) => {
                        let Ok(msgs) = parser.push(&data) else {
                            ctx.tcp_abort(h);
                            self.browser_gone(h, ctx);
                            return;
                        };
                        for msg in msgs {
                            // A refusal finishes the conn; nothing after
                            // it is answered.
                            if !self.conns.contains_key(&h) {
                                break;
                            }
                            if let HttpMessage::Request(req) = msg {
                                self.gateway_request(h, req, ctx);
                            }
                        }
                    }
                    Phase::Pending => {
                        // Early bytes while the tunnel is still
                        // connecting: remember them for any retry, and
                        // queue them on the in-flight attempt so the
                        // established stream stays in order.
                        let inflight = b.pending.as_deref_mut().and_then(|pt| {
                            pt.initial_plain.extend_from_slice(&data);
                            pt.inflight
                        });
                        sc_obs::counter_add("scholarcloud.bytes_up", data.len() as u64);
                        let conn = inflight.and_then(|rh| self.conns.get_mut(&rh));
                        if let Some(conn) = conn.and_then(Conn::remote) {
                            let mut wire = data.to_vec();
                            conn.up_bytes += wire.len() as u64;
                            conn.tx.encode(&mut wire);
                            conn.pending.extend_from_slice(&wire);
                        }
                    }
                    Phase::Tunneling { remote } => {
                        let remote = *remote;
                        let Some(conn) = self.conns.get_mut(&remote).and_then(Conn::remote) else {
                            return;
                        };
                        match conn.replay.as_mut() {
                            Some(rep) if rep.sent_plain.len() + data.len() <= REPLAY_CAP => {
                                rep.sent_plain.extend_from_slice(&data);
                            }
                            Some(_) => conn.replay = None,
                            None => {}
                        }
                        let mut wire = data.to_vec();
                        conn.up_bytes += wire.len() as u64;
                        sc_obs::counter_add("scholarcloud.bytes_up", wire.len() as u64);
                        conn.tx.encode(&mut wire);
                        if conn.connected {
                            ctx.tcp_send(remote, &wire);
                        } else {
                            conn.pending.extend_from_slice(&wire);
                        }
                    }
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => self.browser_gone(h, ctx),
            _ => {}
        }
    }

    /// Bytes that never parse as HTTP are not a browser — they are a
    /// scanner or an active probe. Aborting would answer garbage with an
    /// RST, the exact silent-proxy signature probing looks for; serve the
    /// same boring decoy as the remote side and close cleanly. No
    /// admission slot is held: admission only engages after a parsed
    /// request is whitelisted.
    fn serve_decoy(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        ctx.tcp_send(h, &decoy_response());
        ctx.tcp_close(h);
        self.forget_browser(h);
        sc_obs::counter_add("scholarcloud.decoys_served", 1);
        self.config.interference.note_probe();
        emit(ctx, Level::Info, "domestic", "decoy", || [("reason", "not_http".into())]);
    }

    /// A browser conn is finished (closed, reset, or aborted by us):
    /// leave any coalesced flight, tear down whatever its request still
    /// holds — queue entry, in-flight attempt, established tunnel — and
    /// drop its entry.
    fn browser_gone(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        self.gateway_browser_gone(h, ctx);
        let Some(Conn::Browser(b)) = self.conns.remove(&h) else { return };
        if let Some(pt) = b.pending {
            let now_us = ctx.now().as_micros();
            pt.end_spans(now_us, vec![("verdict", "abandoned".into())], vec![("ok", false.into())]);
            if pt.queued {
                // Browser gave up while still in the admission queue: no
                // slot was held yet.
                self.admission.remove_queued(h);
                self.sample_queue_depth(ctx);
                return;
            }
            // Browser gave up mid-establishment: abort the outstanding
            // attempt without blaming the remote.
            if let Some(rh) = pt.inflight {
                ctx.tcp_abort(rh);
                if let Some(Conn::Remote(conn)) = self.conns.remove(&rh) {
                    self.elastic_stream_end(conn.remote_idx, ctx.now());
                    sc_obs::span_end(
                        now_us,
                        conn.attempt_span,
                        vec![("ok", false.into()), ("reason", "browser_gone".into())],
                    );
                    sc_obs::span_end(now_us, conn.stream_span, Vec::new());
                }
            }
            self.release_slot(b.client, ctx);
            return;
        }
        if let Phase::Tunneling { remote } = b.phase {
            ctx.tcp_close(remote);
            if let Some(Conn::Remote(conn)) = self.conns.remove(&remote) {
                self.end_stream(&conn, true, ctx);
            }
            self.release_slot(b.client, ctx);
        }
    }
}

impl App for DomesticProxy {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(self.config.domestic.port);
        self.arm(self.config.resilience.probe_interval, TimerPurpose::ProbeTick, ctx);
        if self.elastic.is_some() {
            self.arm(ELASTIC_TICK, TimerPurpose::ElasticTick, ctx);
        }
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        // Wall-clock attribution for scholar-bench; inert unless the
        // profiler is enabled, never read by proxy logic.
        let _prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Proxy);
        let (h, tcp_ev) = match ev {
            AppEvent::TimerFired(token) => {
                if let Some(purpose) = self.timers.remove(&token) {
                    self.on_timer(purpose, ctx);
                }
                return;
            }
            AppEvent::Tcp(h, tcp_ev) => (h, tcp_ev),
            _ => return,
        };
        match self.conns.get(&h) {
            Some(Conn::Browser(_)) => self.on_browser_event(h, tcp_ev, ctx),
            Some(Conn::Remote(_)) => self.on_remote_event(h, tcp_ev, ctx),
            Some(Conn::Peer(_)) => self.on_peer_event(h, tcp_ev, ctx),
            Some(Conn::Probe(_)) => self.on_probe_event(h, tcp_ev, ctx),
            None => match tcp_ev {
                TcpEvent::Accepted { peer } => {
                    self.conns.insert(
                        h,
                        Conn::Browser(Box::new(BrowserConn {
                            phase: Phase::AwaitRequest(HttpParser::new()),
                            client: peer.addr,
                            pending: None,
                            fetch: None,
                            wait: None,
                            inm: None,
                        })),
                    );
                    sc_obs::counter_add("scholarcloud.domestic_accepts", 1);
                }
                // A finished connection: drain late bytes, ignore the rest.
                TcpEvent::DataReceived => {
                    ctx.tcp_recv_all(h);
                }
                _ => {}
            },
        }
    }
}

fn target_label(header: &StreamHeader) -> String {
    match &header.target {
        TargetAddr::Domain(host, port) => format!("{host}:{port}"),
        other => format!("{other:?}"),
    }
}
