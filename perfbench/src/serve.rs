//! The real `mps-serve` binary over loopback TCP, driven by an open-loop
//! generator: requests are sent on a fixed schedule whatever the server
//! does, and each is timed from when it was due.
//!
//! Traffic runs on `max(1, nproc / 2)` pipelined connections, each with
//! one sender and one receiver thread, so the generator never has more
//! traffic threads than cores; the coordinating main thread doubles as
//! the writer connection that sends `reload`. Request lines are rendered
//! before a phase starts and answers are checked after it ends, so the
//! generator spends its time on the schedule rather than on JSON.
//!
//! The single-request mix and the hot sets follow the synthesis-loop
//! pattern `loadgen` documents for its `hotspot` scenario: half `query`,
//! half `instantiate`; 90% of hot-spot probes cycle a 16-vector hot set,
//! covered sizings preferred. The job length, the batch share and the
//! reload period have no such source; each constant says what it is
//! chosen to exercise.

use crate::corpus::Item;
use crate::inproc::dims_json;
use crate::stats::{due_ns, percentile, OpenLoopTimes};
use mps_bench::random_dims;
use mps_geom::Dims;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Vectors per `batch_query`.
pub const BATCH_LEN: usize = 512;
/// One request in this many is a `batch_query` (an assumption). A batch
/// blocks its connection for milliseconds, so batches stay rare enough
/// that the requests queued behind them fall well inside the slowest 1%,
/// yet every round of the nominal rate sends some.
const BATCH_ONE_IN: u64 = 4_000;
/// Share of single-vector requests that are `instantiate` (loadgen's
/// synthesis-loop mix).
const INSTANTIATE_SHARE: f64 = 0.5;
/// Requests per simulated sizing job (an assumption): each hot vector is
/// probed about three times per job, and jobs turn over tens of times
/// between two reloads, so the cache sees hits, first misses and
/// invalidated entries all at once.
const JOB_LEN: usize = 64;
/// Exact sizings each hot-spot job re-probes (loadgen's hot-set size).
const HOT_SET: usize = 16;
/// Share of hot-spot probes drawn from the job's hot set; the rest are
/// fresh sizings (loadgen's default `--hot`).
const HOT_SHARE: f64 = 0.9;
/// Draws tried per hot set while looking for covered sizings.
const HOT_DRAWS: usize = 4_096;
/// How long a receiver waits for the next answer before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Which traffic a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Uniform sizings that never repeat: the answer cache is bypassed.
    Uniform,
    /// Each sizing job re-probes its own small hot set: the cache works.
    Hotspot,
}

/// A spawned `mps-serve --tcp 0`, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    _stdin: ChildStdin,
}

impl ServerProc {
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the server and waits for it to exit.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts the server on `dir` and waits for the answer to `first_line`;
/// returns the server and the time from spawn to that answer.
pub fn spawn(bin: &Path, dir: &Path, first_line: &str) -> Result<(ServerProc, Duration), String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .arg(dir)
        .args(["--tcp", "0", "--refine", "off"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut announce = String::new();
    stdout
        .read_line(&mut announce)
        .map_err(|e| format!("no announce line: {e}"))?;
    let value = serde_json::parse(announce.trim()).map_err(|e| format!("bad announce: {e}"))?;
    let addr = value
        .get("addr")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("announce without addr: {announce}"))?
        .to_owned();
    let server = ServerProc {
        child,
        addr,
        _stdin: stdin,
    };
    let answer = one_shot_line(&server.addr, first_line)?;
    if answer.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("first request refused: {first_line}"));
    }
    Ok((server, start.elapsed()))
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One request on a fresh connection.
pub fn one_shot_line(addr: &str, line: &str) -> Result<Value, String> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    writeln!(writer, "{line}").map_err(|e| e.to_string())?;
    let mut answer = String::new();
    reader.read_line(&mut answer).map_err(|e| e.to_string())?;
    serde_json::parse(answer.trim_end()).map_err(|e| format!("bad answer {e}: {answer}"))
}

/// One planned request.
pub struct Req {
    /// The full line, id tag included, newline-terminated.
    pub line: String,
    pub kind: Kind,
    pub item: usize,
    pub dims: Vec<Dims>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Instantiate,
    Batch,
}

impl Kind {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Instantiate => "instantiate",
            Kind::Batch => "batch_query",
        }
    }
}

/// Renders the request line (without id tag and newline).
#[must_use]
pub fn body(kind: Kind, name: &str, dims: &[Dims]) -> String {
    match kind {
        Kind::Batch => {
            let list: Vec<String> = dims.iter().map(dims_json).collect();
            format!(
                r#""kind":"batch_query","structure":"{name}","dims_list":[{}]}}"#,
                list.join(",")
            )
        }
        _ => format!(
            r#""kind":"{}","structure":"{name}","dims":{}}}"#,
            kind.name(),
            dims_json(&dims[0])
        ),
    }
}

/// What planning carries across the phases of a run.
#[derive(Default)]
pub struct PlanState {
    /// Every sizing sent so far: a uniform stream never repeats one.
    seen: HashSet<(usize, Dims)>,
    /// Requests planned so far.
    planned: u64,
    /// Batches planned so far: batches visit the structures in turn.
    batches: usize,
}

/// Plans one connection's requests of one phase; uniform sizings are
/// drawn from a per-connection seed.
pub fn plan(
    stream: Stream,
    items: &[Item],
    seed: u64,
    count: usize,
    state: &mut PlanState,
) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed);
    // A sizing never sent before; `seen` also takes the hot sets.
    let fresh = |seen: &mut HashSet<(usize, Dims)>, rng: &mut StdRng, item: usize| loop {
        let dims = random_dims(&items[item].circuit, rng);
        if seen.insert((item, dims.clone())) {
            return dims;
        }
    };
    let PlanState {
        seen,
        planned,
        batches,
    } = state;
    let mut reqs = Vec::with_capacity(count);
    let mut item = 0;
    let mut hot: Vec<Dims> = Vec::new();
    for k in 0..count {
        if k % JOB_LEN == 0 {
            item = rng.random_range(0..items.len());
            if stream == Stream::Hotspot {
                // Covered sizings preferred: a synthesis loop hammers
                // neighbourhoods that exist.
                hot.clear();
                for _ in 0..HOT_DRAWS {
                    if hot.len() == HOT_SET {
                        break;
                    }
                    let dims = random_dims(&items[item].circuit, &mut rng);
                    if items[item].mps.query(&dims).is_some() && seen.insert((item, dims.clone())) {
                        hot.push(dims);
                    }
                }
                while hot.len() < HOT_SET {
                    hot.push(fresh(seen, &mut rng, item));
                }
            }
        }
        // Batches visit the structures in turn, with fresh sizings, so
        // every run sends the same mix of batch sizes.
        *planned += 1;
        let batch = (*planned + BATCH_ONE_IN / 2).is_multiple_of(BATCH_ONE_IN);
        let (kind, target, dims) = if batch {
            let target = *batches % items.len();
            *batches += 1;
            let dims = (0..BATCH_LEN)
                .map(|_| fresh(seen, &mut rng, target))
                .collect();
            (Kind::Batch, target, dims)
        } else {
            let kind = if rng.random_bool(INSTANTIATE_SHARE) {
                Kind::Instantiate
            } else {
                Kind::Query
            };
            let dims = match stream {
                Stream::Hotspot if rng.random_bool(HOT_SHARE) => {
                    hot[rng.random_range(0..HOT_SET)].clone()
                }
                _ => fresh(seen, &mut rng, item),
            };
            (kind, item, vec![dims])
        };
        let line = format!("{{\"id\":{k},{}\n", body(kind, &items[target].name, &dims));
        reqs.push(Req {
            line,
            kind,
            item: target,
            dims,
        });
    }
    reqs
}

/// What one connection's receiver saw in one phase.
struct Received {
    /// `(request index, receive time)` per answered request.
    recv: Vec<(usize, u64)>,
    /// Answer lines by request index (`None` = never answered).
    answers: Vec<Option<String>>,
}

/// What a phase measured.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// When the schedule started.
    pub start: Option<Instant>,
    /// `(request id, times)` of every answered request, times in
    /// nanoseconds after `start`.
    pub requests: Vec<(u64, OpenLoopTimes)>,
    /// Due-time latency of `query` and `instantiate`.
    pub single_ns: Vec<u64>,
    /// Due-time latency of `batch_query`.
    pub batch_ns: Vec<u64>,
    /// How late each request was sent.
    pub late_ns: Vec<u64>,
    /// `reload` round trips on the writer connection.
    pub reload_ns: Vec<u64>,
    /// Reloads sent while requests were still due.
    pub reloads_in_traffic: u64,
    pub attempted: u64,
    /// Errors, refusals, missing answers and divergences.
    pub failed: u64,
    /// Median latency of the last tenth of the schedule.
    pub tail_median_ns: u64,
    /// First request due to last answer received.
    pub span: Duration,
    /// `query` and `instantiate` requests answered.
    pub answered: u64,
}

impl PhaseOutcome {
    /// Pools another phase's samples and counts into this one (its own
    /// request timeline is dropped).
    pub fn absorb(&mut self, other: PhaseOutcome) {
        self.single_ns.extend(other.single_ns);
        self.batch_ns.extend(other.batch_ns);
        self.late_ns.extend(other.late_ns);
        self.reload_ns.extend(other.reload_ns);
        self.reloads_in_traffic += other.reloads_in_traffic;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.answered += other.answered;
        self.span += other.span;
        self.tail_median_ns = self.tail_median_ns.max(other.tail_median_ns);
    }

    /// p99 of single-request latency, in microseconds.
    #[must_use]
    pub fn p99_us(&self) -> f64 {
        us_percentile(&self.single_ns, 99.0)
    }

    /// Requests answered per second, from the first due time to the
    /// last answer: below the offered rate once a backlog builds.
    #[must_use]
    pub fn sustained_rps(&self) -> f64 {
        (self.answered + self.batch_ns.len() as u64) as f64 / self.span.as_secs_f64()
    }

    /// p50 of single-request latency, in microseconds.
    #[must_use]
    pub fn p50_us(&self) -> f64 {
        us_percentile(&self.single_ns, 50.0)
    }
}

#[must_use]
pub fn us_percentile(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Sends `plans[c]` on connection `c` at `rate` requests per second in
/// total and checks every answer with `check`. With `reload_every`, the
/// writer connection sends `reload` on its own schedule meanwhile, at
/// the middle of each such period after the first request is due, so
/// every reload lands while requests are flowing.
pub fn run_phase(
    addr: &str,
    rate: f64,
    plans: Vec<Vec<Req>>,
    reload_every: Option<Duration>,
    check: &(dyn Fn(&Req, &Value) -> bool + Sync),
) -> Result<PhaseOutcome, String> {
    let conns = plans.len();
    let total: usize = plans.iter().map(Vec::len).sum();
    let per_conn_rate = rate / conns as f64;
    let plans: Vec<Arc<Vec<Req>>> = plans.into_iter().map(Arc::new).collect();
    let finished = Arc::new(AtomicUsize::new(0));
    let mut writer = connect(addr)?;
    let mut writer_reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut outcome = PhaseOutcome {
        start: Some(t0),
        ..PhaseOutcome::default()
    };

    let conn_outcomes: Vec<(Vec<(u64, u64)>, Received)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, stream) in streams.into_iter().enumerate() {
            let plan = Arc::clone(&plans[c]);
            let finished = Arc::clone(&finished);
            // Connections interleave: connection c is offset by c/rate.
            let offset = Duration::from_secs_f64(c as f64 / rate);
            let read_half = stream.try_clone().expect("clone stream");
            let sender_plan = Arc::clone(&plan);
            let sender =
                scope.spawn(move || send_loop(stream, &sender_plan, t0 + offset, per_conn_rate));
            let receiver = scope.spawn(move || {
                let out = recv_loop(read_half, &plan, t0 + offset);
                finished.fetch_add(1, Ordering::SeqCst);
                out
            });
            handles.push((sender, receiver));
        }
        // The writer: reload on schedule until every receiver is done.
        let last_due = t0 + Duration::from_secs_f64(total as f64 / rate);
        let mut reloads = 0u32;
        while finished.load(Ordering::SeqCst) < conns {
            let due = reload_every.map(|every| t0 + every.mul_f64(f64::from(reloads) + 0.5));
            if let Some(due) = due.filter(|&due| Instant::now() >= due) {
                let (ns, ok) = reload_once(&mut writer, &mut writer_reader);
                outcome.reload_ns.push(ns);
                outcome.reloads_in_traffic += u64::from(due < last_due);
                outcome.attempted += 1;
                outcome.failed += u64::from(!ok);
                reloads += 1;
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        handles
            .into_iter()
            .map(|(s, r)| {
                (
                    s.join().expect("sender thread"),
                    r.join().expect("receiver thread"),
                )
            })
            .collect()
    });

    let mut tail: Vec<u64> = Vec::new();
    let mut last_recv = 0u64;
    for (c, (sent, received)) in conn_outcomes.iter().enumerate() {
        let plan = &plans[c];
        let tail_from = plan.len() - plan.len() / 10;
        for (req, answer) in plan.iter().zip(&received.answers) {
            outcome.attempted += 1;
            let ok = answer
                .as_deref()
                .and_then(|line| serde_json::parse(line.trim_end()).ok())
                .is_some_and(|v| {
                    v.get("ok").and_then(Value::as_bool) == Some(true) && check(req, &v)
                });
            outcome.failed += u64::from(!ok);
        }
        for &(k, recv) in &received.recv {
            let offset = (c as f64 * 1e9 / rate) as u64;
            let (ready, sent_at) = sent[k];
            let t = OpenLoopTimes {
                due: due_ns(k as u64, per_conn_rate),
                ready,
                sent: sent_at,
                recv,
            };
            outcome.requests.push((
                k as u64,
                OpenLoopTimes {
                    due: t.due + offset,
                    ready: t.ready + offset,
                    sent: t.sent + offset,
                    recv: t.recv + offset,
                },
            ));
            last_recv = last_recv.max(recv);
            outcome.late_ns.push(t.late_ns());
            let lat = t.latency_ns();
            if plan[k].kind == Kind::Batch {
                outcome.batch_ns.push(lat);
            } else {
                outcome.single_ns.push(lat);
                outcome.answered += 1;
                if k >= tail_from {
                    tail.push(lat);
                }
            }
        }
    }
    tail.sort_unstable();
    outcome.tail_median_ns = tail.get(tail.len() / 2).copied().unwrap_or(u64::MAX);
    outcome.span = Duration::from_nanos(last_recv);
    Ok(outcome)
}

/// One `reload` round trip on the writer connection.
fn reload_once(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> (u64, bool) {
    let t = Instant::now();
    let ok = writeln!(writer, r#"{{"kind":"reload"}}"#).is_ok() && {
        let mut line = String::new();
        reader.read_line(&mut line).is_ok() && line.starts_with(r#"{"ok":true"#)
    };
    (t.elapsed().as_nanos() as u64, ok)
}

/// `n` reloads on an otherwise idle server; returns their round trips
/// and how many failed.
pub fn idle_reloads(addr: &str, n: usize) -> Result<(Vec<u64>, u64), String> {
    let mut writer = connect(addr)?;
    let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    let mut times = Vec::with_capacity(n);
    let mut failed = 0;
    for _ in 0..n {
        let (ns, ok) = reload_once(&mut writer, &mut reader);
        times.push(ns);
        failed += u64::from(!ok);
    }
    Ok((times, failed))
}

/// Sends `plan` on schedule; returns, per request, when the generator
/// was free to send it and when it did, in nanoseconds after the
/// connection's start (see [`OpenLoopTimes`]).
fn send_loop(mut stream: TcpStream, plan: &[Req], start: Instant, rate: f64) -> Vec<(u64, u64)> {
    let mut sent = vec![(0, 0); plan.len()];
    let mut buf = Vec::with_capacity(1 << 16);
    // When the last write returned: time spent blocked in a write is the
    // server's backpressure, not the generator running late.
    let mut unblocked = 0u64;
    let mut k = 0;
    while k < plan.len() {
        let due = start + Duration::from_nanos(due_ns(k as u64, rate));
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
            continue;
        }
        // Everything already due goes out in one write.
        let now_ns = now.saturating_duration_since(start).as_nanos() as u64;
        buf.clear();
        while k < plan.len() && due_ns(k as u64, rate) <= now_ns {
            buf.extend_from_slice(plan[k].line.as_bytes());
            sent[k] = (due_ns(k as u64, rate).max(unblocked), now_ns);
            k += 1;
        }
        if stream.write_all(&buf).is_err() {
            break;
        }
        unblocked = start.elapsed().as_nanos() as u64;
    }
    sent
}

/// Reads answers until every request of `plan` is answered or the
/// connection fails; records each answer's receive time.
fn recv_loop(stream: TcpStream, plan: &[Req], start: Instant) -> Received {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut out = Received {
        recv: Vec::with_capacity(plan.len()),
        answers: vec![None; plan.len()],
    };
    let mut left = plan.len();
    while left > 0 {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let recv = Instant::now().saturating_duration_since(start).as_nanos() as u64;
        let Some(k) = req_tag(&line).filter(|&k| k < plan.len()) else {
            continue;
        };
        if out.answers[k].is_none() {
            left -= 1;
            out.recv.push((k, recv));
            out.answers[k] = Some(line);
        }
    }
    out
}

/// The `"req"` tag of an answer line, read without parsing the JSON.
#[must_use]
pub fn req_tag(line: &str) -> Option<usize> {
    let at = line.find("\"req\":")? + 6;
    let digits: &str = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// User plus system CPU time of a process, from `/proc/<pid>/stat`.
#[must_use]
pub fn cpu_time(pid: &str) -> Duration {
    // USER_HZ is 100 on every Linux target.
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    // After the command name: state is field 3, utime 14, stime 15.
    let ticks: f64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<f64>().ok()))
        .sum();
    Duration::from_secs_f64(ticks / TICKS_PER_SEC)
}

/// Peak resident set of a process in MiB, from `/proc/<pid>/status`.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_tag_reads_the_echoed_id() {
        assert_eq!(
            req_tag(r#"{"ok":true,"kind":"query","req":17,"id":3}"#),
            Some(17)
        );
        assert_eq!(req_tag(r#"{"ok":true,"kind":"query","id":3}"#), None);
    }

    #[test]
    fn cpu_time_of_self_is_readable() {
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(peak_rss_mb("self") > 0.0);
        assert!(cpu_time("self") >= Duration::ZERO);
    }
}
