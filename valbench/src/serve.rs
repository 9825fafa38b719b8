//! The daemon phase: one `valmod_serve::serve` daemon, driven through
//! `valmod_serve::Client` connections exactly as `valmod serve` is.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use valmod_core::{Query, QueryOutcome, ValmodOutput};
use valmod_mp::WorkerPool;
use valmod_serve::{serve, snapshot_checksum, Bind, BoundAddr, Client, ServerHandle};
use valmod_stream::TenantPolicy;

use crate::check::{sample_rows, Checker, Pair, Valmap};
use crate::inputs::{ServeShape, K, THREADS};
use crate::json;
use crate::trace;
use crate::Tally;

/// One tenant: its whole generated stream and how much of it was sent.
pub struct Tenant {
    /// Tenant name on the wire.
    pub name: String,
    /// The generated stream.
    pub stream: Vec<f64>,
    /// Samples the daemon accepted so far.
    pub fed: usize,
}

/// Everything one daemon phase measured.
#[derive(Default)]
pub struct Measured {
    /// Seconds per set-up: start, connect, open and warm every tenant.
    pub setup_s: Vec<f64>,
    /// Append latency, ms, from when each append was due.
    pub append_ms: Vec<f64>,
    /// `valmap` read latency, ms, from when each read was due.
    pub valmap_ms: Vec<f64>,
    /// How late the generator sent requests whose connection was free, ms.
    pub late_ms: Vec<f64>,
    /// Response sizes, bytes.
    pub append_bytes: Vec<f64>,
    /// See `append_bytes`.
    pub valmap_bytes: Vec<f64>,
    /// Samples accepted per second in the closed-loop burst.
    pub ingest_per_s: f64,
    /// `stats` round trips, ms.
    pub rtt_ms: Vec<f64>,
    /// `certify` round trips (an exact VALMOD run in the daemon), s.
    pub certify_s: Vec<f64>,
    /// In-process exact runs over each tenant's samples, s.
    pub reference_s: Vec<f64>,
    /// Tenant 0's in-process exact output, for the per-layer figures.
    pub reference: Option<ValmodOutput>,
}

/// Process-wide serve request id (every request carries one in the trace).
fn next_request() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Sends one request line, recording its span; returns the response
/// lines and their size in bytes.
fn request(
    client: &mut Client,
    verb: &'static str,
    line: &str,
) -> Result<(Vec<String>, usize), String> {
    let _span = trace::request("serve", verb, next_request());
    let lines = client.request(line).map_err(|e| format!("{verb}: {e}"))?;
    let bytes = lines.iter().map(String::len).sum::<usize>() + lines.len().saturating_sub(1);
    Ok((lines, bytes))
}

/// The first response line parsed, refusing protocol errors.
fn head(lines: &[String], event: &str) -> Result<json::Value, String> {
    let first = lines.first().ok_or("empty response")?;
    let v = json::parse(first)?;
    match v.str_at("event") {
        Some(e) if e == event => Ok(v),
        _ => Err(format!("expected a {event} event, got {first}")),
    }
}

/// One append of `tenant.stream[fed..fed + count]`, checked: every sample
/// accepted, the tenant live at the expected length.
fn append(client: &mut Client, t: &mut Tenant, count: usize) -> Result<usize, String> {
    let values = &t.stream[t.fed..t.fed + count];
    let _span = trace::request("serve", "Client::append", next_request());
    let lines = client.append(&t.name, values).map_err(|e| format!("append: {e}"))?;
    let bytes = lines.iter().map(String::len).sum::<usize>() + lines.len().saturating_sub(1);
    let v = head(&lines, "append")?;
    t.fed += count;
    let accepted = v.num_at("accepted").unwrap_or(-1.0);
    let len = v.num_at("len").unwrap_or(-1.0);
    if accepted != count as f64
        || len != t.fed as f64
        || v.get("live") != Some(&json::Value::Bool(true))
    {
        return Err(format!("append to {}: {}", t.name, lines[0]));
    }
    Ok(bytes)
}

/// A `valmap` read, checked for shape; returns the response and its size.
fn valmap(client: &mut Client, t: &Tenant, l_min: usize) -> Result<(Vec<String>, usize), String> {
    let (lines, bytes) = request(client, "valmap", &format!("valmap {}", t.name))?;
    let v = head(&lines, "valmap")?;
    let entries = t.fed + 1 - l_min;
    if v.num_at("points") != Some(t.fed as f64)
        || v.num_at("entries") != Some(entries as f64)
        || lines.len() != entries + 1
    {
        return Err(format!("valmap of {}: {} with {} lines", t.name, lines[0], lines.len()));
    }
    Ok((lines, bytes))
}

fn connect(addr: &BoundAddr) -> Result<Client, String> {
    let _span = trace::span("serve", "Client::connect");
    match addr {
        BoundAddr::Tcp(a) => Client::connect_tcp(&a.to_string()),
        BoundAddr::Unix(p) => Client::connect_unix(p),
    }
    .map_err(|e| format!("connect: {e}"))
}

/// A running daemon with its client connections.
struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
    checkpoints: PathBuf,
}

/// Starts a daemon the way `valmod serve` does, connects, opens every
/// tenant and feeds its warm-up (which bootstraps it). Each connection
/// warms its own tenants from its own client thread.
fn set_up(
    shape: &ServeShape,
    dir: &Path,
    k: usize,
    tenants: &mut [Tenant],
    tally: &mut Tally,
) -> Result<Daemon, String> {
    let checkpoints = dir.join(format!("checkpoints-{k}"));
    let config = Query::new(shape.l_min, shape.l_max).k(K).threads(shape.threads).into_config();
    let policy = TenantPolicy {
        warmup: Some(shape.warmup),
        checkpoint_root: shape.durable.then(|| checkpoints.clone()),
        checkpoint_every: shape.checkpoint_every,
        ..TenantPolicy::default()
    };
    let bind = if shape.tcp {
        Bind::Tcp("127.0.0.1:0".into())
    } else {
        Bind::Unix(dir.join(format!("d{k}.sock")))
    };
    let handle = {
        let _span = trace::span("serve", "serve");
        serve(&bind, Arc::new(WorkerPool::new()), config, policy)
            .map_err(|e| format!("serve: {e}"))?
    };
    let mut clients = (0..shape.connections)
        .map(|_| connect(handle.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;
    for t in tenants.iter_mut() {
        t.fed = 0;
    }
    let mut groups = split(tenants, shape.connections);
    let results: Vec<(u64, Result<(), String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(groups.iter_mut())
            .map(|(client, group)| {
                s.spawn(move || {
                    let mut ops = 0;
                    let r = (|| {
                        for t in group.iter_mut() {
                            ops += 1;
                            let (lines, _) = request(client, "open", &format!("open {}", t.name))?;
                            head(&lines, "open")?;
                            ops += 1;
                            append(client, t, shape.warmup)?;
                        }
                        Ok(())
                    })();
                    (ops, r)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    for (ops, r) in results {
        tally.attempted += ops;
        r?;
    }
    Ok(Daemon { handle, clients, checkpoints })
}

/// `tenants` split round-robin over `connections` groups (tenant `j` on
/// connection `j mod connections`).
fn split(tenants: &mut [Tenant], connections: usize) -> Vec<Vec<&mut Tenant>> {
    let mut groups: Vec<Vec<&mut Tenant>> = (0..connections).map(|_| Vec::new()).collect();
    for (j, t) in tenants.iter_mut().enumerate() {
        groups[j % connections].push(t);
    }
    groups
}

/// `shutdown`: one checkpoint per tenant (none without durability),
/// then the daemon stops.
fn shut_down(mut d: Daemon, tenants: usize, tally: &mut Tally) {
    tally.attempted += 1;
    let r = (|| {
        let (lines, _) = request(&mut d.clients[0], "shutdown", "shutdown")?;
        let checkpoints = lines
            .iter()
            .filter_map(|l| json::parse(l).ok())
            .filter(|v| v.str_at("event") == Some("checkpoint"))
            .count();
        let last = json::parse(lines.last().ok_or("empty shutdown response")?)?;
        if checkpoints != tenants || last.str_at("event") != Some("shutdown") {
            return Err(format!("shutdown reported {checkpoints} checkpoints, expected {tenants}"));
        }
        Ok(())
    })();
    tally.record(r);
    drop(d.clients);
    d.handle.join();
    let _ = std::fs::remove_dir_all(&d.checkpoints);
}

#[derive(Clone, Copy)]
enum Op {
    Append(usize),
    Valmap(usize),
}

/// The first phase's requests per connection, each with its due time as
/// an offset from the phase start: an open loop over `seconds` (at least
/// `min_appends` appends), or, without a period, a closed loop of
/// `appends` appends (`None`: due when the previous request returned).
fn schedule(shape: &ServeShape, seconds: f64, appends: usize) -> Vec<Vec<(Option<Duration>, Op)>> {
    let t = shape.tenants;
    let mut per_conn: Vec<Vec<(Option<Duration>, Op)>> = vec![Vec::new(); shape.connections];
    match shape.period_s {
        Some(period) => {
            // Tenant j is a fixed-rate sensor with phase j·period/t. A read
            // falls mid-slot once every `appends_per_read` slots, of tenant
            // (s / appends_per_read) mod t, so the reads go round every
            // tenant and both connections.
            let wanted = ((seconds / period) * t as f64).ceil() as usize;
            let slots = wanted.max(shape.min_appends).div_ceil(t) * t;
            let slot = period / t as f64;
            for s in 0..slots {
                let j = s % t;
                per_conn[j % shape.connections]
                    .push((Some(Duration::from_secs_f64(s as f64 * slot)), Op::Append(j)));
                if s % shape.appends_per_read == shape.appends_per_read / 2 {
                    let r = (s / shape.appends_per_read) % t;
                    let due = Duration::from_secs_f64((s as f64 + 0.5) * slot);
                    per_conn[r % shape.connections].push((Some(due), Op::Valmap(r)));
                }
            }
            for c in &mut per_conn {
                c.sort_by_key(|e| e.0);
            }
        }
        None => {
            for s in 0..appends {
                let j = s % t;
                per_conn[j % shape.connections].push((None, Op::Append(j)));
                if (s + 1) % shape.appends_per_read == 0 {
                    let r = (s / shape.appends_per_read) % t;
                    per_conn[r % shape.connections].push((None, Op::Valmap(r)));
                }
            }
        }
    }
    per_conn
}

/// Per-connection results of a load phase.
#[derive(Default)]
struct Lane {
    attempted: u64,
    errors: Vec<String>,
    append_ms: Vec<f64>,
    valmap_ms: Vec<f64>,
    late_ms: Vec<f64>,
    append_bytes: Vec<f64>,
    valmap_bytes: Vec<f64>,
}

/// Phase 1 on one connection: its requests in due order.
fn drive(
    client: &mut Client,
    group: &mut [&mut Tenant],
    ops: &[(Option<Duration>, Op)],
    shape: &ServeShape,
    start: Instant,
) -> Lane {
    let mut lane = Lane::default();
    let mut prev_done = start;
    // Tenant j is at index j / connections of this connection's group.
    let index = |j: usize| j / shape.connections;
    for &(offset, op) in ops {
        let due = offset.map_or(prev_done, |o| start + o);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if prev_done <= due {
            lane.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        }
        lane.attempted += 1;
        let r = match op {
            Op::Append(j) => append(client, group[index(j)], shape.batch).map(|b| {
                lane.append_bytes.push(b as f64);
                true
            }),
            Op::Valmap(j) => valmap(client, group[index(j)], shape.l_min).map(|(_, b)| {
                lane.valmap_bytes.push(b as f64);
                false
            }),
        };
        let done = Instant::now();
        let ms = done.duration_since(due).as_secs_f64() * 1e3;
        match r {
            Ok(true) => lane.append_ms.push(ms),
            Ok(false) => lane.valmap_ms.push(ms),
            Err(e) => lane.errors.push(e),
        }
        prev_done = done;
    }
    lane
}

/// Phase 2 on one connection: back-to-back appends round-robin over its
/// tenants until `samples` samples went out.
fn burst(
    client: &mut Client,
    group: &mut [&mut Tenant],
    shape: &ServeShape,
    samples: usize,
) -> Lane {
    let mut lane = Lane::default();
    let mut sent = 0;
    let mut j = 0;
    while sent < samples {
        let count = shape.batch.min(samples - sent);
        lane.attempted += 1;
        if let Err(e) = append(client, group[j % group.len()], count) {
            lane.errors.push(e);
        }
        sent += count;
        j += 1;
    }
    lane
}

/// Runs `f` for every connection on its own client thread and gathers
/// the lanes.
fn on_connections(
    d: &mut Daemon,
    tenants: &mut [Tenant],
    connections: usize,
    f: impl Fn(&mut Client, &mut [&mut Tenant], usize) -> Lane + Sync,
) -> Vec<Lane> {
    let mut groups = split(tenants, connections);
    std::thread::scope(|s| {
        let f = &f;
        let workers: Vec<_> = d
            .clients
            .iter_mut()
            .zip(groups.iter_mut())
            .enumerate()
            .map(|(c, (client, group))| s.spawn(move || f(client, group, c)))
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    })
}

/// A set-up daemon; each phase adds to its measurements.
pub struct Session {
    d: Daemon,
    shape: ServeShape,
    m: Measured,
    burst_samples: usize,
    burst_s: f64,
}

impl Session {
    /// `setups` set-ups, timed; all but the last are shut down at once.
    /// `None` (with the failure counted) when a set-up fails.
    pub fn start(
        shape: &ServeShape,
        dir: &Path,
        tenants: &mut [Tenant],
        setups: usize,
        tally: &mut Tally,
    ) -> Option<Self> {
        let mut m = Measured::default();
        for k in 0..setups {
            let started = Instant::now();
            let d = set_up(shape, dir, k, tenants, tally);
            let d = tally.record(d)?;
            m.setup_s.push(started.elapsed().as_secs_f64());
            if k + 1 < setups {
                shut_down(d, checkpointed(shape, tenants), tally);
            } else {
                return Some(Self { d, shape: *shape, m, burst_samples: 0, burst_s: 0.0 });
            }
        }
        None
    }

    /// Phase 1: appends with interleaved reads, each connection on its
    /// own client thread. Open loop over `seconds` when the shape has a
    /// period, else a closed loop of `appends` appends.
    pub fn load(
        &mut self,
        tenants: &mut [Tenant],
        seconds: f64,
        appends: usize,
        tally: &mut Tally,
    ) {
        let shape = self.shape;
        let plan = schedule(&shape, seconds, appends);
        let start = Instant::now() + Duration::from_millis(20);
        let lanes = on_connections(&mut self.d, tenants, shape.connections, |client, group, c| {
            drive(client, group, &plan[c], &shape, start)
        });
        for mut lane in lanes {
            tally.absorb(lane.attempted, std::mem::take(&mut lane.errors));
            self.m.append_ms.extend(lane.append_ms);
            self.m.valmap_ms.extend(lane.valmap_ms);
            self.m.late_ms.extend(lane.late_ms);
            self.m.append_bytes.extend(lane.append_bytes);
            self.m.valmap_bytes.extend(lane.valmap_bytes);
        }
    }

    /// Phase 2: back-to-back appends of `per_connection` samples on every
    /// connection at once.
    pub fn burst(&mut self, tenants: &mut [Tenant], per_connection: usize, tally: &mut Tally) {
        let shape = self.shape;
        let started = Instant::now();
        let lanes = on_connections(&mut self.d, tenants, shape.connections, |client, group, _| {
            burst(client, group, &shape, per_connection)
        });
        self.burst_s += started.elapsed().as_secs_f64();
        self.burst_samples += per_connection * shape.connections;
        for lane in lanes {
            tally.absorb(lane.attempted, lane.errors);
        }
    }

    /// The request floor, the answer checks (certify against an in-process
    /// exact run over the same samples, the final VALMAP re-derived from
    /// the raw samples), then shutdown. Each tenant is certified `reps`
    /// times in rounds over the tenants, later answers checked against the
    /// first; `after_certify` runs after each request.
    #[allow(clippy::too_many_lines)]
    pub fn finish(
        mut self,
        tenants: &[Tenant],
        seed: u64,
        pool: &Arc<WorkerPool>,
        reps: usize,
        tally: &mut Tally,
        after_certify: &mut dyn FnMut(usize, &Tenant, &mut Tally),
    ) -> Measured {
        let (shape, d, m) = (self.shape, &mut self.d, &mut self.m);
        m.ingest_per_s = self.burst_samples as f64 / self.burst_s;
        for _ in 0..10 {
            tally.attempted += 1;
            let started = Instant::now();
            let r = request(&mut d.clients[0], "stats", "stats").and_then(|(lines, _)| {
                let v = head(&lines, "stats")?;
                (v.num_at("tenants") == Some(tenants.len() as f64))
                    .then_some(())
                    .ok_or_else(|| lines[0].clone())
            });
            m.rtt_ms.push(started.elapsed().as_secs_f64() * 1e3);
            tally.record(r);
        }
        let mut checksums: Vec<Option<String>> = vec![None; tenants.len()];
        for (rep, (j, t)) in
            (0..reps.max(1)).flat_map(|rep| tenants.iter().enumerate().map(move |jt| (rep, jt)))
        {
            let c = j % shape.connections;
            tally.attempted += 1;
            let started = Instant::now();
            let certified = request(&mut d.clients[c], "certify", &format!("certify {}", t.name))
                .and_then(|(lines, _)| {
                    head(&lines, "certify")?
                        .str_at("checksum")
                        .map(str::to_string)
                        .ok_or_else(|| lines[0].clone())
                });
            m.certify_s.push(started.elapsed().as_secs_f64());
            if rep > 0 {
                tally.record(certified.and_then(|sum| {
                    (checksums[j].as_ref() == Some(&sum))
                        .then_some(())
                        .ok_or_else(|| format!("tenant {}: a repeated certify changed", t.name))
                }));
                after_certify(j, t, tally);
                continue;
            }
            let r = certified.and_then(|sum| {
                checksums[j] = Some(sum.clone());
                let samples = &t.stream[..t.fed];
                let query = Query::new(shape.l_min, shape.l_max)
                    .k(K)
                    .threads(THREADS)
                    .pool(Arc::clone(pool));
                let started = Instant::now();
                let out = {
                    let _span = trace::span("valmod", "Query::run");
                    query.run(samples)
                };
                m.reference_s.push(started.elapsed().as_secs_f64());
                let Ok(QueryOutcome::Exact(out)) = out else {
                    return Err("in-process exact run failed".into());
                };
                let expected = snapshot_checksum(&out);
                if sum != expected {
                    return Err(format!(
                        "tenant {}: certify {sum}, in-process run {expected}",
                        t.name
                    ));
                }
                let mut checker = Checker::new(samples, shape.l_min, shape.l_max);
                let rows = sample_rows(seed ^ j as u64, samples.len() + 1 - shape.l_max, 12);
                let lengths: Vec<Vec<Pair>> = out
                    .per_length
                    .iter()
                    .map(|r| {
                        r.pairs
                            .iter()
                            .map(|p| Pair {
                                length: p.length,
                                a: p.a,
                                b: p.b,
                                distance: p.distance,
                            })
                            .collect()
                    })
                    .collect();
                checker.lengths(&lengths, &rows)?;
                let (lines, _) = valmap(&mut d.clients[c], t, shape.l_min)?;
                check_wire_valmap(&mut checker, &lines, &lengths, &rows)?;
                if j == 0 {
                    m.reference = Some(out);
                }
                Ok(())
            });
            tally.record(r);
            after_certify(j, t, tally);
        }
        shut_down(self.d, checkpointed(&shape, tenants), tally);
        self.m
    }
}

/// Checkpoints `shutdown` must report.
fn checkpointed(shape: &ServeShape, tenants: &[Tenant]) -> usize {
    if shape.durable {
        tenants.len()
    } else {
        0
    }
}

/// Parses a `valmap` response's entry lines and checks them.
fn check_wire_valmap(
    checker: &mut Checker,
    lines: &[String],
    lengths: &[Vec<Pair>],
    rows: &[usize],
) -> Result<(), String> {
    let (mut mpn, mut ip, mut lp) = (Vec::new(), Vec::new(), Vec::new());
    for (i, line) in lines[1..].iter().enumerate() {
        let v = json::parse(line)?;
        if v.num_at("offset") != Some(i as f64) {
            return Err(format!("valmap entry {i} out of order: {line}"));
        }
        mpn.push(v.num_at("mpn").unwrap_or(f64::INFINITY));
        ip.push(v.num_at("ip").map(|x| x as usize));
        lp.push(v.num_at("lp").ok_or_else(|| format!("valmap entry without lp: {line}"))? as usize);
    }
    let pairs: Vec<Pair> = lengths.iter().flatten().copied().collect();
    checker.valmap(&Valmap { mpn: &mpn, ip: &ip, lp: &lp }, &pairs, rows)
}
