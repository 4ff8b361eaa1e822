//! The serving phase: the resident daemon with two single-replica tenants
//! behind the HTTP gateway on loopback, driven open-loop over keep-alive
//! connections.
//!
//! A seeded pre-run (`TenantRegistry` advanced directly) writes each
//! tenant's snapshot log; the timed phase relaunches the daemon on a copy
//! of those logs, which replays them, and binds the gateway.

use crate::openloop::{self, LoopReport};
use crate::report::{Report, SplitMix};
use crate::stats;
use crate::trace::{now_ns, SpanLog};
use selfheal_core::harness::FaultChoice;
use selfheal_core::snapshot::SynopsisSnapshot;
use selfheal_daemon::{send_command, Daemon, DaemonConfig, DaemonOptions, TenantRegistry};
use selfheal_faults::ServiceProfile;
use selfheal_gateway::auth::{AuthConfig, Scope, Token};
use selfheal_gateway::router;
use selfheal_gateway::server::{Gateway, GatewayOptions};
use std::collections::HashSet;
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The two tenants the daemon serves.
pub const TENANTS: [&str; 2] = ["alpha", "beta"];
/// Bearer secret of the benchmark's admin token.
pub const SECRET: &str = "bench-admin-secret";
/// Keep-alive connections the load generator holds.
pub const CONNECTIONS: usize = 2;
/// Latency charged to a failed request.
pub const FAIL_MS: f64 = 10_000.0;
/// Epochs the pre-run advances each tenant.
pub const PRE_EPOCHS: usize = 150;
/// Per-request timeout.
const TIMEOUT: Duration = Duration::from_secs(10);

/// The daemon configuration every launch uses: the daemon's defaults with
/// the workload's fault rate, the run's seed and a snapshot log.
pub fn daemon_config(seed: u64, fault_rate: f64, store: &Path) -> DaemonConfig {
    let mut config = DaemonConfig::default();
    config.base_seed = seed;
    config.default_faults =
        FaultChoice::mix_for(ServiceProfile::Online, fault_rate, &config.service);
    config.store_path = Some(store.to_path_buf());
    config
}

/// Writes the tenants' snapshot logs into `dir`: both tenants learn for
/// [`PRE_EPOCHS`] epochs, then the registry shuts down cleanly.
pub fn prerun(dir: &Path, seed: u64, fault_rate: f64) -> Result<(), String> {
    let mut registry = TenantRegistry::new(daemon_config(seed, fault_rate, &dir.join("s.jsonl")))?;
    for tenant in TENANTS {
        registry.create(tenant, false)?;
        registry
            .supervisor_mut(tenant)
            .expect("tenant just created")
            .add_replica("default")?;
    }
    for _ in 0..PRE_EPOCHS {
        registry.advance_all();
    }
    registry.shutdown();
    Ok(())
}

/// Copies every regular file of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// A running daemon plus gateway.
pub struct Stack {
    /// Gateway address.
    pub addr: String,
    /// Daemon control socket.
    pub socket: PathBuf,
    /// Working directory (logs, snapshots).
    pub dir: PathBuf,
    gateway: Option<Gateway>,
    daemon: Option<JoinHandle<Result<(), String>>>,
}

impl Stack {
    /// Relaunches the daemon on a fresh copy of the pre-run logs in `dir`
    /// (replaying them), adds one replica per tenant and binds the gateway.
    /// Returns the stack and its set-up seconds.
    pub fn launch(
        pristine: &Path,
        dir: &Path,
        seed: u64,
        fault_rate: f64,
    ) -> Result<(Stack, f64), String> {
        copy_dir(pristine, dir).map_err(|e| format!("copy logs: {e}"))?;
        let socket = dir.join("d.sock");
        let start = Instant::now();
        let config = daemon_config(seed, fault_rate, &dir.join("s.jsonl"));
        let mut options = DaemonOptions::new(&socket);
        options.replicas = 0;
        let daemon = Daemon::launch(config, options)?;
        let handle = thread::spawn(move || daemon.run());
        let mut stack = Stack {
            addr: String::new(),
            socket,
            dir: dir.to_path_buf(),
            gateway: None,
            daemon: Some(handle),
        };
        for tenant in TENANTS {
            let reply = stack.command(&format!("@{tenant} ADD default"))?;
            if !reply.ends_with("OK\n") {
                return Err(format!("ADD for {tenant} failed: {reply}"));
            }
        }
        let auth = AuthConfig::new(vec![Token::new("bench", SECRET, "*", Scope::Admin)]);
        let gateway = Gateway::launch(GatewayOptions::new("127.0.0.1:0", &stack.socket, auth))?;
        stack.addr = gateway.addr().to_string();
        stack.gateway = Some(gateway);
        Ok((stack, start.elapsed().as_secs_f64()))
    }

    /// Sends one line-protocol command straight to the daemon socket.
    pub fn command(&self, line: &str) -> Result<String, String> {
        send_command(&self.socket, line, TIMEOUT).map_err(|e| format!("{line}: {e}"))
    }

    /// Sum of the tenants' simulated ticks and the `alpha` tenant's uptime
    /// in milliseconds, read from `STATUS`.
    pub fn ticks_and_uptime(&self) -> Result<(u64, u64), String> {
        let mut ticks = 0;
        let mut uptime = 0;
        for tenant in TENANTS {
            let reply = self.command(&format!("@{tenant} STATUS"))?;
            ticks += field(&reply, "ticks_total=").ok_or("STATUS without ticks_total")?;
            if tenant == TENANTS[0] {
                uptime = field(&reply, "uptime_ms=").ok_or("STATUS without uptime_ms")?;
            }
        }
        Ok((ticks, uptime))
    }

    /// Shuts the daemon down over its socket and stops the gateway,
    /// waiting for every thread of both.
    pub fn stop(mut self) -> Result<(), String> {
        let reply = self.command("SHUTDOWN");
        let joined = self.daemon.take().map(|h| h.join());
        drop(self.gateway.take());
        reply?;
        match joined {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon exited with {e}")),
            Some(Err(_)) => Err("daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(handle) = self.daemon.take() {
            let _ = send_command(&self.socket, "SHUTDOWN", TIMEOUT);
            let _ = handle.join();
        }
        drop(self.gateway.take());
    }
}

fn field(reply: &str, key: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
}

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    addr: String,
}

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            addr: addr.to_string(),
        })
    }

    /// Sends one request in a single write and reads the fixed-length
    /// reply: `(status, body)`.
    pub fn call(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let mut request = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\nAuthorization: Bearer {SECRET}\r\n",
            self.addr
        );
        if let Some(body) = body {
            request.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        } else {
            request.push_str("\r\n");
        }
        self.writer.write_all(request.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("status line {line:?}"))
            })?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-head",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// One gateway operation of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `GET /v1/tenants/<t>/status`.
    Status(&'static str),
    /// `GET /v1/tenants/<t>/fixes`.
    Fixes(&'static str),
    /// `GET /v1/tenants/<t>/metrics`.
    Metrics(&'static str),
    /// `POST /v1/tenants/<t>/snapshot` to a numbered file.
    Snapshot(&'static str, usize),
    /// `POST /v1/tenants` creating an empty scratch tenant.
    Create(String),
    /// `DELETE /v1/tenants/<scratch>` of a tenant created earlier.
    Drop(String),
}

impl Op {
    /// Whether the operation writes.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Snapshot(..) | Op::Create(_) | Op::Drop(_))
    }

    /// `(method, target, body)` of the request.
    pub fn request(&self, dir: &Path) -> (&'static str, String, Option<String>) {
        match self {
            Op::Status(t) => ("GET", format!("/v1/tenants/{t}/status"), None),
            Op::Fixes(t) => ("GET", format!("/v1/tenants/{t}/fixes"), None),
            Op::Metrics(t) => ("GET", format!("/v1/tenants/{t}/metrics"), None),
            Op::Snapshot(t, k) => (
                "POST",
                format!("/v1/tenants/{t}/snapshot"),
                Some(format!(
                    "{{\"path\":\"{}\"}}",
                    snapshot_path(dir, *k).display()
                )),
            ),
            Op::Create(name) => (
                "POST",
                "/v1/tenants".to_string(),
                Some(format!("{{\"name\":\"{name}\"}}")),
            ),
            Op::Drop(name) => ("DELETE", format!("/v1/tenants/{name}"), None),
        }
    }
}

fn snapshot_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("snap{k}.jsonl"))
}

/// The reference mix's share of reads: 40% status, 20% fixes and 20%
/// metrics, leaving 20% writes.
pub const READS: f64 = 0.8;

/// Draws `n` operations: a `reads` share of reads, split between status,
/// fixes and metrics as 2:1:1, and writes.  Writes cycle snapshot, create,
/// snapshot, drop, so every scratch tenant created is dropped again.  `tag`
/// keeps scratch names unique per rung.
pub fn draw_ops(n: usize, tag: usize, reads: f64, rng: &mut SplitMix) -> Vec<Op> {
    let mut writes = 0usize;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let tenant = TENANTS[(rng.next_u64() % 2) as usize];
        let u = rng.next_f64() / reads;
        let op = if u < 0.5 {
            Op::Status(tenant)
        } else if u < 0.75 {
            Op::Fixes(tenant)
        } else if u < 1.0 {
            Op::Metrics(tenant)
        } else {
            writes += 1;
            let pair = writes / 4;
            match writes % 4 {
                1 | 3 => Op::Snapshot(tenant, i),
                2 => Op::Create(format!("scratch{tag}x{pair}")),
                _ => Op::Drop(format!("scratch{tag}x{}", pair - 1)),
            }
        };
        ops.push(op);
    }
    // A final create without its drop is dropped by an extra operation.
    if writes % 4 >= 2 {
        ops.push(Op::Drop(format!("scratch{tag}x{}", writes / 4)));
    }
    ops
}

/// Scratch tenants created so far, so a drop waits for its create.
#[derive(Default)]
pub struct Created {
    names: Mutex<HashSet<String>>,
    changed: Condvar,
}

impl Created {
    fn add(&self, name: &str) {
        self.names
            .lock()
            .expect("created set")
            .insert(name.to_string());
        self.changed.notify_all();
    }

    fn wait(&self, name: &str) -> bool {
        let deadline = Instant::now() + TIMEOUT;
        let mut names = self.names.lock().expect("created set");
        while !names.contains(name) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            names = self
                .changed
                .wait_timeout(names, left)
                .expect("created set")
                .0;
        }
        names.remove(name);
        true
    }
}

/// Executes one operation on `conn` and checks its reply.
pub fn execute(conn: &mut Conn, op: &Op, dir: &Path, created: &Created) -> Result<(), String> {
    if let Op::Drop(name) = op {
        if !created.wait(name) {
            return Err(format!("{name} was never created"));
        }
    }
    let (method, target, body) = op.request(dir);
    let (status, reply) = conn
        .call(method, &target, body.as_deref())
        .map_err(|e| format!("{method} {target}: {e}"))?;
    if !(200..300).contains(&status) || !reply.contains("\"ok\":true") {
        return Err(format!("{method} {target}: {status} {reply}"));
    }
    let expected = match op {
        Op::Status(_) => Some("epoch="),
        Op::Metrics(_) => Some("epoch"),
        _ => None,
    };
    if let Some(field) = expected {
        if !reply.contains(field) {
            return Err(format!("{method} {target}: reply lacks {field}: {reply}"));
        }
    }
    match op {
        Op::Create(name) => created.add(name),
        Op::Snapshot(_, k) => {
            let path = snapshot_path(dir, *k);
            let loaded = SynopsisSnapshot::load(&path);
            let _ = fs::remove_file(&path);
            loaded.map_err(|e| format!("snapshot {} rejected: {e}", path.display()))?;
        }
        _ => {}
    }
    Ok(())
}

/// One open-loop rung: requests at a fixed offered rate.
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// The operations, in schedule order.
    pub ops: Vec<Op>,
    /// What the open loop measured.
    pub report: LoopReport,
    /// Problems found in replies.
    pub problems: Vec<String>,
}

impl Rung {
    /// Latencies of every operation (failures charged [`FAIL_MS`]).
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.report.latencies_ms(FAIL_MS)
    }

    /// Latencies of the write operations.
    pub fn write_latencies_ms(&self) -> Vec<f64> {
        self.report
            .samples
            .iter()
            .filter(|s| self.ops[s.index].is_write())
            .map(|s| {
                if s.ok {
                    s.latency.as_secs_f64() * 1e3
                } else {
                    FAIL_MS
                }
            })
            .collect()
    }

    /// Completed requests per second over the rung, from its start to
    /// its last completion.
    pub fn achieved_rps(&self) -> f64 {
        self.report.samples.len() as f64 / self.report.wall.as_secs_f64()
    }
}

/// Runs one rung at `rate` for `duration` against `stack`, with a `reads`
/// share of reads (see [`draw_ops`]).  With `spans`, every request is
/// recorded as a span carrying its request id.
pub fn run_rung(
    stack: &Stack,
    rate: f64,
    duration: Duration,
    tag: usize,
    reads: f64,
    rng: &mut SplitMix,
    spans: Option<&SpanLog>,
) -> Rung {
    let mut due = openloop::arrival_schedule(rate, duration, rng);
    let ops = draw_ops(due.len(), tag, reads, rng);
    // A trailing drop, when the mix added one, falls due one mean gap later.
    if ops.len() > due.len() {
        let last = due.last().copied().unwrap_or_default();
        due.push(last + Duration::from_secs_f64(1.0 / rate));
    }
    let created = Created::default();
    let problems = Mutex::new(Vec::new());
    let report = openloop::run(&due, &ops, CONNECTIONS, |_| {
        let mut conn = Conn::open(&stack.addr);
        let (created, problems, dir) = (&created, &problems, &stack.dir);
        move |index: usize, op: &Op| {
            let start = now_ns();
            let outcome = match conn.as_mut() {
                Ok(conn) => execute(conn, op, dir, created),
                Err(e) => Err(format!("connect: {e}")),
            };
            if let Some(spans) = spans {
                spans.record(
                    0,
                    "gateway.request",
                    start,
                    (tag * 1_000_000 + index + 1) as u64,
                );
            }
            match outcome {
                Ok(()) => true,
                Err(problem) => {
                    problems.lock().expect("problems").push(problem);
                    false
                }
            }
        }
    });
    Rung {
        rate,
        ops,
        report,
        problems: problems.into_inner().expect("problems"),
    }
}

/// Closed-loop probes of the same `STATUS` command over HTTP and straight
/// over the daemon socket, interleaved: `(http_ms, protocol_ms)`.
pub fn rtt_probe(
    stack: &Stack,
    rounds: usize,
    spans: Option<&SpanLog>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut conn = Conn::open(&stack.addr).map_err(|e| format!("connect: {e}"))?;
    let (mut http, mut protocol) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let request = (round + 1) as u64;
        let (t0, s0) = (Instant::now(), now_ns());
        let (status, body) = conn
            .call("GET", "/v1/tenants/alpha/status", None)
            .map_err(|e| format!("GET status: {e}"))?;
        http.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(spans) = spans {
            spans.record(0, "gateway.http_status", s0, request);
        }
        if status != 200 || !body.contains("epoch=") {
            return Err(format!("GET status: {status} {body}"));
        }
        let (t1, s1) = (Instant::now(), now_ns());
        let reply = stack.command("@alpha STATUS")?;
        protocol.push(t1.elapsed().as_secs_f64() * 1e3);
        if let Some(spans) = spans {
            spans.record(0, "daemon.protocol_status", s1, request);
        }
        if !reply.contains("epoch=") {
            return Err(format!("STATUS: {reply}"));
        }
    }
    Ok((http, protocol))
}

/// Microseconds per `router::route` and per `AuthConfig::authorize` call
/// over the operations of a drawn mix.
pub fn route_and_auth_us(ops: &[Op], dir: &Path) -> (f64, f64) {
    let auth = AuthConfig::new(vec![Token::new("bench", SECRET, "*", Scope::Admin)]);
    let requests: Vec<_> = ops.iter().map(|op| op.request(dir)).collect();
    let rounds = 200;
    let start = Instant::now();
    let mut lowered = Vec::with_capacity(requests.len());
    for _ in 0..rounds {
        lowered.clear();
        for (method, target, body) in &requests {
            let body = body.as_deref().unwrap_or("").as_bytes();
            lowered.push(router::route(method, target, None, body));
        }
    }
    let route_us = start.elapsed().as_secs_f64() * 1e6 / (rounds * requests.len()).max(1) as f64;
    let start = Instant::now();
    let mut granted = 0usize;
    for _ in 0..rounds {
        for routed in lowered.iter().flatten() {
            granted += auth
                .authorize(Some(SECRET), routed.tenant.as_deref(), routed.scope)
                .is_ok() as usize;
        }
    }
    let auth_us = start.elapsed().as_secs_f64() * 1e6 / (rounds * lowered.len()).max(1) as f64;
    std::hint::black_box(granted);
    (route_us, auth_us)
}

/// Per-layer timings of the daemon's own calls, made on a registry
/// rebuilt from a copy of the pre-run logs: `(replay_s, epoch_ms,
/// fix_stats_ms, snapshot_ms)`, each a median.
pub fn daemon_layers(
    pristine: &Path,
    dir: &Path,
    seed: u64,
    fault_rate: f64,
    epochs: usize,
) -> Result<(f64, f64, f64, f64), String> {
    copy_dir(pristine, dir).map_err(|e| format!("copy logs: {e}"))?;
    let start = Instant::now();
    let mut registry = TenantRegistry::new(daemon_config(seed, fault_rate, &dir.join("s.jsonl")))?;
    let replay_s = start.elapsed().as_secs_f64();
    for tenant in TENANTS {
        registry
            .supervisor_mut(tenant)
            .ok_or("a pre-run tenant was not restored")?
            .add_replica("default")?;
    }
    let (mut epoch, mut fix_stats, mut snapshot) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..epochs {
        let t = Instant::now();
        registry.advance_all();
        epoch.push(t.elapsed().as_secs_f64() * 1e3);
        if i % 10 == 0 {
            for tenant in TENANTS {
                let supervisor = registry.supervisor(tenant).expect("restored tenant");
                let t = Instant::now();
                let _ = supervisor.fix_stats();
                fix_stats.push(t.elapsed().as_secs_f64() * 1e3);
                let path = dir.join("layer-snap.jsonl");
                let t = Instant::now();
                supervisor
                    .snapshot_to(&path)
                    .map_err(|e| format!("snapshot_to: {e}"))?;
                snapshot.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    registry.shutdown();
    Ok((
        replay_s,
        stats::median_or_nan(&epoch),
        stats::median_or_nan(&fix_stats),
        stats::median_or_nan(&snapshot),
    ))
}

/// Records a rung's output problems in the report.
pub fn check_rung(rung: &Rung, report: &mut Report) {
    report.attempted += rung.report.samples.len() as u64;
    report.failed += rung.report.failures() as u64;
    report.problems.extend(rung.problems.iter().cloned());
}
