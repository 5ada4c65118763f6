//! The remote proxy: authenticates the cover preamble, deblinds the
//! stream, dials the whitelisted target (resolving names outside the
//! wall), and relays. Anything that fails authentication — garbage, web
//! crawlers, the GFW's active prober — gets an nginx-style 400 decoy.

use std::collections::{HashMap, HashSet};

use sc_netproto::socks::TargetAddr;
use sc_simnet::addr::SocketAddr;
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::sim::Ctx;
use sc_tunnels::names::NameMap;

use crate::config::ScConfig;
use crate::frame::{could_be_preamble, decoy_response, Hello, StreamCodec, StreamHeader};

/// One live TCP connection of the proxy, by role. A connection that got
/// the decoy is finished and has no entry.
enum Conn {
    /// A client (domestic proxy or prober) whose preamble is incomplete.
    AwaitHello { buf: Vec<u8> },
    /// An authenticated client relaying through its upstream.
    Relaying(Box<Relay>),
    /// Our leg to a whitelisted target, on behalf of `client`.
    Upstream { client: TcpHandle },
}

struct Relay {
    rx: StreamCodec,
    tx: StreamCodec,
    upstream: TcpHandle,
    /// Deblinded bytes held until `upstream` connects (`None` once it
    /// has).
    upstream_pending: Option<Vec<u8>>,
    span: sc_obs::SpanId,
}

/// The remote proxy app. Install on the foreign VM node.
pub struct RemoteProxy {
    config: ScConfig,
    names: NameMap,
    conns: HashMap<TcpHandle, Conn>,
    /// Session nonces already accepted. A valid preamble whose nonce was
    /// seen before is a *replay* — the adaptive censor capturing and
    /// re-sending a real client's bytes to see whether we authenticate
    /// them. Replays get the decoy, so a replayed preamble looks exactly
    /// like garbage and the probe concludes "innocent web server".
    seen_nonces: HashSet<u64>,
}

impl RemoteProxy {
    /// Creates the proxy; `names` is the uncensored DNS view.
    pub fn new(config: ScConfig, names: NameMap) -> Self {
        RemoteProxy { config, names, conns: HashMap::new(), seen_nonces: HashSet::new() }
    }

    fn serve_decoy(&mut self, h: TcpHandle, reason: &'static str, ctx: &mut Ctx<'_>) {
        ctx.tcp_send(h, &decoy_response());
        ctx.tcp_close(h);
        self.conns.remove(&h);
        // Decoys served to hostile-looking connections (garbage, bad
        // MACs, replays) are probe sightings the operator's domestic side
        // can act on; decoys to authenticated-but-misdirected tunnels
        // (off-whitelist targets) are not.
        if matches!(reason, "not_preamble" | "bad_preamble_auth" | "replayed_preamble") {
            self.config.interference.note_probe();
        }
        sc_obs::counter_add("scholarcloud.decoys_served", 1);
        if sc_obs::is_enabled(sc_obs::Level::Info, "scholarcloud") {
            sc_obs::emit(
                sc_obs::Event::new(
                    ctx.now().as_micros(),
                    sc_obs::Level::Info,
                    "scholarcloud",
                    "remote",
                    "auth_fail",
                )
                .field("reason", reason),
            );
        }
    }

    fn advance(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        if let Some(Conn::AwaitHello { buf }) = self.conns.get_mut(&h) {
            let snapshot = std::mem::take(buf);
            match Hello::parse(&self.config.secret, self.config.scheme.generation(), &snapshot) {
                Ok(None) => {
                    if !could_be_preamble(&snapshot) {
                        self.serve_decoy(h, "not_preamble", ctx);
                        return;
                    }
                    if let Some(Conn::AwaitHello { buf }) = self.conns.get_mut(&h) {
                        *buf = snapshot;
                    }
                    return;
                }
                Err(()) => {
                    self.serve_decoy(h, "bad_preamble_auth", ctx);
                    return;
                }
                Ok(Some((hello, used))) => {
                    if !self.seen_nonces.insert(hello.nonce) {
                        self.serve_decoy(h, "replayed_preamble", ctx);
                        return;
                    }
                    // The domestic side constructed its codec with
                    // encrypt = !is_tls, but is_tls is only known after
                    // decoding the header. Break the circularity by
                    // trying both codec variants on the header bytes; the
                    // header's strict framing disambiguates.
                    let mut rest = snapshot[used..].to_vec();
                    // First try: encrypt=false (TLS pass-through).
                    let mut rx0 = StreamCodec::new(&self.config.secret, &hello, false, 0);
                    let mut attempt = rest.clone();
                    rx0.decode(&mut attempt);
                    if let Some((header, consumed)) = StreamHeader::decode(&attempt) {
                        if header.is_tls {
                            let tx = StreamCodec::new(&self.config.secret, &hello, false, 1);
                            let leftover = attempt[consumed..].to_vec();
                            self.begin_relay(h, header, rx0, tx, leftover, ctx);
                            return;
                        }
                    }
                    // Second try: encrypt=true (plain-HTTP payloads).
                    let mut rx1 = StreamCodec::new(&self.config.secret, &hello, true, 0);
                    rx1.decode(&mut rest);
                    if let Some((header, consumed)) = StreamHeader::decode(&rest) {
                        if !header.is_tls {
                            let tx = StreamCodec::new(&self.config.secret, &hello, true, 1);
                            let leftover = rest[consumed..].to_vec();
                            self.begin_relay(h, header, rx1, tx, leftover, ctx);
                            return;
                        }
                    }
                    // Header incomplete: stash raw bytes and wait. We must
                    // re-run from scratch next time, so keep hello + rest.
                    let mut restored = snapshot;
                    self.conns.insert(h, Conn::AwaitHello { buf: Vec::new() });
                    if let Some(Conn::AwaitHello { buf }) = self.conns.get_mut(&h) {
                        buf.append(&mut restored);
                    }
                }
            }
        }
    }

    fn begin_relay(
        &mut self,
        h: TcpHandle,
        header: StreamHeader,
        rx: StreamCodec,
        tx: StreamCodec,
        leftover: Vec<u8>,
        ctx: &mut Ctx<'_>,
    ) {
        // Whitelist enforcement happens here too: the remote proxy only
        // dials whitelisted hosts, so a compromised domestic proxy cannot
        // widen the service's scope.
        let dest = match &header.target {
            TargetAddr::Domain(name, port) => {
                if !self.config.whitelisted(name) {
                    self.serve_decoy(h, "off_whitelist", ctx);
                    return;
                }
                match self.names.resolve(name) {
                    Some(a) => SocketAddr::new(a, *port),
                    None => {
                        self.serve_decoy(h, "unresolvable", ctx);
                        return;
                    }
                }
            }
            // Literal addresses cannot be whitelist-checked; refuse them.
            TargetAddr::Ip(_, _) => {
                self.serve_decoy(h, "ip_literal", ctx);
                return;
            }
        };
        let upstream = ctx.tcp_connect(dest);
        self.conns.insert(upstream, Conn::Upstream { client: h });
        // Parent the relay span into the originating request's trace via
        // the in-band ids carried on the stream header.
        let span = sc_obs::span_start_ctx(
            ctx.now().as_micros(),
            sc_obs::Level::Debug,
            "scholarcloud",
            "remote",
            "relay",
            sc_obs::TraceCtx::new(sc_obs::TraceId(header.trace), sc_obs::SpanId(header.parent)),
            vec![("dest", sc_obs::Value::String(dest.to_string()))],
        );
        let relay = Relay { rx, tx, upstream, upstream_pending: Some(leftover), span };
        self.conns.insert(h, Conn::Relaying(Box::new(relay)));
        sc_obs::counter_add("scholarcloud.remote_tunnels", 1);
        if sc_obs::is_enabled(sc_obs::Level::Info, "scholarcloud") {
            sc_obs::emit(
                sc_obs::Event::new(
                    ctx.now().as_micros(),
                    sc_obs::Level::Info,
                    "scholarcloud",
                    "remote",
                    "auth_ok",
                )
                .field("dest", dest.to_string()),
            );
        }
    }
}

impl App for RemoteProxy {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(self.config.remote.port);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let AppEvent::Tcp(h, tcp_ev) = ev else { return };

        // Upstream side.
        if let Some(&Conn::Upstream { client }) = self.conns.get(&h) {
            match tcp_ev {
                TcpEvent::Connected => {
                    let pending = match self.conns.get_mut(&client) {
                        Some(Conn::Relaying(r)) => r.upstream_pending.take(),
                        _ => None,
                    };
                    if let Some(pending) = pending.filter(|p| !p.is_empty()) {
                        ctx.tcp_send(h, &pending);
                    }
                }
                TcpEvent::DataReceived => {
                    let data = ctx.tcp_recv_all(h);
                    if let Some(Conn::Relaying(r)) = self.conns.get_mut(&client) {
                        let mut wire = data.to_vec();
                        r.tx.encode(&mut wire);
                        ctx.tcp_send(client, &wire);
                    }
                }
                TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                    ctx.tcp_close(client);
                    self.conns.remove(&h);
                    if let Some(Conn::Relaying(r)) = self.conns.get_mut(&client) {
                        let ok = !matches!(tcp_ev, TcpEvent::ConnectFailed);
                        sc_obs::span_end(ctx.now().as_micros(), r.span, vec![("ok", ok.into())]);
                        r.span = sc_obs::SpanId::NONE;
                    }
                }
                _ => {}
            }
            return;
        }

        // Client (domestic proxy or prober) side.
        match tcp_ev {
            TcpEvent::Accepted { .. } => {
                self.conns.insert(h, Conn::AwaitHello { buf: Vec::new() });
                sc_obs::counter_add("scholarcloud.remote_accepts", 1);
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                match self.conns.get_mut(&h) {
                    Some(Conn::AwaitHello { buf }) => {
                        buf.extend_from_slice(&data);
                        self.advance(h, ctx);
                    }
                    Some(Conn::Relaying(r)) => {
                        let mut plain = data.to_vec();
                        r.rx.decode(&mut plain);
                        match &mut r.upstream_pending {
                            Some(pending) => pending.extend_from_slice(&plain),
                            None => {
                                ctx.tcp_send(r.upstream, &plain);
                            }
                        }
                    }
                    _ => {}
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => {
                if let Some(Conn::Relaying(r)) = self.conns.remove(&h) {
                    ctx.tcp_close(r.upstream);
                    self.conns.remove(&r.upstream);
                    sc_obs::span_end(ctx.now().as_micros(), r.span, vec![("ok", true.into())]);
                }
            }
            _ => {}
        }
    }
}
