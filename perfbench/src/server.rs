//! The `spp serve` process under test and the closed-loop clients that
//! drive it over HTTP.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use spp_serve::http::{Conn, Response};

use crate::stats::{median, quantile, Sample};
use crate::trace::Trace;
use crate::Layers;

/// A running `spp serve` with default settings. Dropping it kills the
/// process and waits for it to exit, so no server outlives the run (a
/// panic unwinds through this too).
pub struct ServerProc {
    child: Child,
    authority: String,
}

impl ServerProc {
    /// Start `spp serve --cache-dir <dir>` on a free local port and wait
    /// until it is listening.
    pub fn start(spp: &Path, cache_dir: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(spp)
            .args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", spp.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let authority = line
            .trim()
            .strip_prefix("listening on http://")
            .map(str::to_string);
        let mut server = ServerProc {
            child,
            authority: String::new(),
        };
        match (read, authority) {
            (Ok(_), Some(a)) => {
                server.authority = a;
                Ok(server)
            }
            _ => Err(format!("spp serve did not start (said {line:?})")),
        }
    }

    pub fn authority(&self) -> &str {
        &self.authority
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// `GET /stats` as parsed JSON.
    pub fn stats(&self) -> Result<spp_core::json::JsonValue, String> {
        let mut conn = Conn::connect(&self.authority).map_err(|e| e.to_string())?;
        let resp = conn.call("GET", "/stats", "").map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!("GET /stats answered {}", resp.status));
        }
        spp_core::json::parse(&resp.body).map_err(|e| e.to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request of a closed-loop run.
pub struct Op<'a> {
    pub path: String,
    pub body: &'a str,
}

/// What a closed-loop run measured.
pub struct LoopResult {
    /// Every operation, in operation order. `end_s` counts from the
    /// start of this loop, `wall_s` from the caller's `origin`.
    pub samples: Vec<Sample>,
    /// Wall time of the loop, s.
    pub elapsed_s: f64,
    pub failed: u64,
}

/// Keep-alive connection that reconnects when the server closes it.
struct Client<'a> {
    authority: &'a str,
    conn: Option<Conn>,
}

impl Client<'_> {
    fn call(&mut self, path: &str, body: &str) -> Result<Response, String> {
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => Conn::connect(self.authority).map_err(|e| e.to_string())?,
        };
        let resp = conn.call("POST", path, body).map_err(|e| e.to_string())?;
        if !resp.close {
            self.conn = Some(conn);
        }
        Ok(resp)
    }
}

/// Send `ops` from `clients` closed-loop keep-alive clients. Each client
/// takes the next unsent operation as soon as its previous reply is in,
/// so all of them stay busy until the list is done. `ops[j]` is
/// operation `base + j` of the run: `check(base + j, response, latency)`
/// decides whether it answered correctly, and with `trace` its round
/// trip is recorded under that id as a span named `serve.request`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    authority: &str,
    clients: usize,
    ops: &[Op],
    base: usize,
    check: &(dyn Fn(usize, &Response, Duration) -> bool + Sync),
    trace: Option<&mut Trace>,
    epoch: Instant,
    origin: Instant,
) -> LoopResult {
    let traced = trace.is_some();
    let next = AtomicUsize::new(0);
    let next = &next;
    let started = Instant::now();
    // Per client: its (operation, sample) pairs, failures and spans.
    type ClientOut = (Vec<(usize, Sample)>, u64, Trace);
    let per_client: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client {
                        authority,
                        conn: None,
                    };
                    let mut trace = Trace::new(epoch);
                    let mut lat = Vec::with_capacity(ops.len() / clients + 1);
                    let mut failed = 0u64;
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= ops.len() {
                            break;
                        }
                        let t0 = Instant::now();
                        let resp = client.call(&ops[j].path, ops[j].body);
                        let t1 = Instant::now();
                        if traced {
                            trace.record((base + j) as u64, "serve.request", t0, t1);
                        }
                        let ok = match &resp {
                            Ok(r) => check(base + j, r, t1 - t0),
                            Err(_) => false,
                        };
                        if !ok {
                            failed += 1;
                        }
                        lat.push((
                            j,
                            Sample {
                                end_s: (t1 - started).as_secs_f64(),
                                wall_s: (t1 - origin).as_secs_f64(),
                                latency_ms: (t1 - t0).as_secs_f64() * 1e3,
                            },
                        ));
                    }
                    (lat, failed, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut samples = vec![
        Sample {
            end_s: 0.0,
            wall_s: 0.0,
            latency_ms: 0.0
        };
        ops.len()
    ];
    let mut failed = 0;
    let mut merged = trace;
    for (lat, f, t) in per_client {
        for (j, sample) in lat {
            samples[j] = sample;
        }
        failed += f;
        if let Some(m) = merged.as_deref_mut() {
            m.absorb(t);
        }
    }
    LoopResult {
        samples,
        elapsed_s,
        failed,
    }
}

/// Send `ops` one after another on one connection, failing on the first
/// error or non-200 reply; returns the reply bodies (set-up traffic).
pub fn send_all(authority: &str, ops: &[Op]) -> Result<Vec<String>, String> {
    let mut client = Client {
        authority,
        conn: None,
    };
    ops.iter()
        .map(|op| {
            let resp = client.call(&op.path, op.body)?;
            if resp.status != 200 {
                return Err(format!(
                    "{} answered {}: {}",
                    op.path, resp.status, resp.body
                ));
            }
            Ok(resp.body)
        })
        .collect()
}

/// The `makespan`, `lb` and `improved_from` fields of a solve reply.
pub struct SolveReply {
    pub makespan: f64,
    pub lb: f64,
    pub improved_from: Option<f64>,
    pub cached: bool,
    pub solved: bool,
}

pub fn parse_solve_reply(body: &str) -> Result<SolveReply, String> {
    use spp_core::json;
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    let obj = json::as_obj(&doc, "$").map_err(|e| e.to_string())?;
    let field = |name: &str| json::get_field(obj, &doc, name).map_err(|e| e.to_string());
    let num = |name: &str| json::as_num(field(name)?, name).map_err(|e| e.to_string());
    let cached = match &field("cached")?.json {
        json::Json::Bool(b) => *b,
        _ => return Err("cached is not a boolean".into()),
    };
    Ok(SolveReply {
        makespan: num("makespan")?,
        lb: num("lb")?,
        improved_from: json::get_field(obj, &doc, "improved_from")
            .ok()
            .and_then(|v| json::as_num(v, "improved_from").ok()),
        cached,
        solved: json::as_str(field("status")?, "status").map_err(|e| e.to_string())? == "solved",
    })
}

/// The `spp-serve` layer metrics of a run's timed requests, and the
/// run's cache hit ratio; stops the server. `server` served the last
/// round, the requests from `samples[last_start..]`, whose client-side
/// p50 its handler p50 is set against.
pub fn serve_layers(
    server: ServerProc,
    samples: &[Sample],
    last_start: usize,
    hits: u64,
) -> Result<Layers, String> {
    let stats = server.stats()?;
    drop(server);
    let handler_p50_us = stats_num(&stats, "latency_us.p50")?;
    let reuse = stats_num(&stats, "keepalive_reuses")? / stats_num(&stats, "requests")?;
    let latency_ms: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let ops = latency_ms.len() as f64;
    let mut layers = Layers::new();
    layers.insert("serve.handler_p50_us".into(), (handler_p50_us, "us"));
    layers.insert(
        "serve.transport_p50_us".into(),
        (
            median(&latency_ms[last_start..]) * 1e3 - handler_p50_us,
            "us",
        ),
    );
    layers.insert("serve.p99_ms".into(), (quantile(&latency_ms, 0.99), "ms"));
    layers.insert("serve.keepalive_reuse_ratio".into(), (reuse, "ratio"));
    layers.insert("cache.hit_ratio".into(), (hits as f64 / ops, "ratio"));
    Ok(layers)
}

/// Numeric field `path` (dotted) of a `GET /stats` document.
fn stats_num(doc: &spp_core::json::JsonValue, path: &str) -> Result<f64, String> {
    use spp_core::json;
    let mut v = doc;
    for key in path.split('.') {
        let obj = json::as_obj(v, key).map_err(|e| e.to_string())?;
        v = json::get_field(obj, v, key).map_err(|e| e.to_string())?;
    }
    json::as_num(v, path).map_err(|e| e.to_string())
}
