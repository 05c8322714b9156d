//! Runs against a live `tcq::Server` through its public API: set-up,
//! the paced open loop and the flood, each with one generator thread and
//! one drainer thread.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use tcq::{QueryHandle, Server};
use tcq_common::{Tuple, Value};
use tcq_wrappers::Source;

use crate::oracle::{Expected, Pacing, Tally, Verifier};
use crate::stats::LogHist;
use crate::sys;
use crate::workload::{Rec, Workload};

/// Time spans recorded around calls into the server, kept in memory.
#[derive(Debug, Default, Clone)]
pub struct SpanLog {
    /// `(duration ns, tuples or rows moved)` per call.
    pub calls: Vec<(u64, u64)>,
}

impl SpanLog {
    pub fn record(&mut self, start: Instant, n: u64) {
        self.calls.push((start.elapsed().as_nanos() as u64, n));
    }

    pub fn total_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.0).sum()
    }

    pub fn total_n(&self) -> u64 {
        self.calls.iter().map(|c| c.1).sum()
    }
}

/// Rows handed from the generator thread to the Wrapper. The
/// pre-generated rows stay put; the generator releases a prefix of them
/// and the source hands the Wrapper copies, so the server's memory
/// excludes the benchmark's input.
#[derive(Default)]
pub struct Feed {
    rows: OnceLock<Arc<Vec<Tuple>>>,
    released: AtomicUsize,
    done: AtomicBool,
    /// Source poll calls, and spans of the ones that returned rows
    /// (recorded only on traced runs).
    polls: AtomicU64,
    poll_spans: Mutex<Option<SpanLog>>,
}

impl Feed {
    /// Offer every row before index `upto`.
    fn release(&self, upto: usize) {
        self.released.store(upto, Ordering::Release);
    }

    fn finish(&self) {
        self.done.store(true, Ordering::Release);
    }
}

/// A Wrapper-polled source over a [`Feed`]. For windowed workloads it
/// also promises a watermark at the last tick it handed out: its rows
/// arrive in tick order, so window instants close without waiting for
/// the next row.
struct FeedSource {
    feed: Arc<Feed>,
    taken: usize,
    watermark: bool,
    last_tick: Option<i64>,
}

impl Source for FeedSource {
    fn poll(&mut self, max: usize) -> Vec<Tuple> {
        self.feed.polls.fetch_add(1, Ordering::Relaxed);
        let Some(rows) = self.feed.rows.get() else {
            return Vec::new();
        };
        let end = self
            .feed
            .released
            .load(Ordering::Acquire)
            .min(self.taken + max);
        if end <= self.taken {
            return Vec::new();
        }
        let start = Instant::now();
        let out = rows[self.taken..end].to_vec();
        self.taken = end;
        self.last_tick = out.last().map(|t| t.ts().ticks());
        if let Some(log) = self.feed.poll_spans.lock().expect("span lock").as_mut() {
            log.record(start, out.len() as u64);
        }
        out
    }

    fn is_exhausted(&self) -> bool {
        self.feed.done.load(Ordering::Acquire)
            && self.feed.rows.get().is_some_and(|r| self.taken == r.len())
    }

    fn watermark(&self) -> Option<i64> {
        self.last_tick.filter(|_| self.watermark)
    }

    fn name(&self) -> &str {
        "perfbench-feed"
    }
}

/// On the push path a flood keeps at most this many rows ahead of the
/// client: the tap delivers one result set per push, and a co-located
/// client that falls `result_buffer` sets behind loses sets to egress
/// shedding. Half the result buffer keeps the client inside it without
/// resizing it.
const CLIENT_WINDOW: i64 = 512;

/// The client's shortest nap after a sweep that found nothing.
const MIN_NAP: Duration = Duration::from_micros(50);

/// With pinned threads the Execution Object runs alone on `EO_CPU`, and
/// the Wrapper, the spooler, the generator and the client share
/// `SHARED_CPU`. Left to the scheduler, where those threads land moves
/// from flood to flood, and with it the EO's cache misses and wake-ups.
/// On a 2-core host, six interleaved pairs of `alerts` runs gave flood
/// throughput medians from 273k to 317k tuples/s unpinned and from 321k
/// to 337k pinned.
const EO_CPU: usize = 1;
const SHARED_CPU: usize = 0;

/// Pin every server thread of `threads` to its CPU (see [`EO_CPU`]). On
/// a host with one core the pin to `EO_CPU` fails and the EO stays
/// where the scheduler puts it.
fn pin_server(threads: &sys::ThreadCpu) {
    for (tid, (name, _)) in threads {
        if name.starts_with("tcq-eo-") {
            sys::pin(*tid, EO_CPU);
        } else if sys::is_server_thread(name) {
            sys::pin(*tid, SHARED_CPU);
        }
    }
}

/// How long a phase waits for the server to process what was offered.
const DRAIN_WAIT: Duration = Duration::from_secs(60);

/// Fresh per-server archive directories inside the working directory.
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    pub fn new(root: &Path) -> Scratch {
        Scratch {
            root: root.to_path_buf(),
            next: 0,
        }
    }

    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root
            .join(format!("{}-{}", std::process::id(), self.next))
    }

    pub fn remove_all(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A server with the workload's stream registered and queries admitted.
pub struct Running {
    pub server: Server,
    pub handles: Vec<QueryHandle>,
    feed: Option<Arc<Feed>>,
    dir: PathBuf,
    /// `Server::start` + registration + every `submit`, seconds.
    pub setup_s: f64,
    /// One span per `submit`.
    pub submits: SpanLog,
}

impl Running {
    /// Shut the server down, join its threads, remove its directory and
    /// hand freed heap back to the OS, so the next phase's memory
    /// baseline starts clean.
    pub fn stop(self) {
        self.server.shutdown();
        drop(self.handles);
        drop(self.server);
        let _ = std::fs::remove_dir_all(&self.dir);
        sys::trim_heap();
    }
}

pub fn setup(w: &Workload, scratch: &mut Scratch) -> Running {
    let dir = scratch.fresh();
    let config = w.config(&dir);
    let start = Instant::now();
    let server = Server::start(config).expect("server starts");
    server
        .register_stream(w.stream, w.schema())
        .expect("stream registers");
    let feed = w.source_fed().then(|| {
        let feed = Arc::new(Feed::default());
        server
            .attach_source(
                w.stream,
                Box::new(FeedSource {
                    feed: feed.clone(),
                    taken: 0,
                    watermark: w.kind == crate::workload::Kind::Windows,
                    last_tick: None,
                }),
            )
            .expect("source attaches");
        feed
    });
    let mut submits = SpanLog::default();
    let handles = w
        .queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            let h = server.submit(&q.sql).expect("workload query admits");
            submits.record(t, 1);
            h
        })
        .collect();
    Running {
        server,
        handles,
        feed,
        dir,
        setup_s: start.elapsed().as_secs_f64(),
        submits,
    }
}

/// Pre-built input of one phase, in the form the feed path takes. It
/// lives until the phase ends; the server gets copies.
pub enum Input {
    Tuples(Arc<Vec<Tuple>>),
    Fields(Vec<Vec<Value>>),
}

impl Input {
    pub fn build(w: &Workload, rows: &[Rec]) -> Input {
        if w.source_fed() {
            Input::Tuples(Arc::new(rows.iter().map(|r| w.tuple(r)).collect()))
        } else {
            Input::Fields(rows.iter().map(|r| w.values(r)).collect())
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    /// `(query index, failures)` for every query with failures.
    pub failing_queries: Vec<(usize, u64)>,
    pub pushes: u64,
    pub push_errors: u64,
    pub shed: u64,
    /// First offer to the last verified row.
    pub elapsed_s: f64,
    /// CPU ns per thread name over the phase, server threads plus the
    /// generator (on the push path the generator thread runs the
    /// server's ingest code).
    pub cpu: BTreeMap<String, u64>,
    /// Latency histograms per pacing segment (paced phases).
    pub latency: Vec<LogHist>,
    /// How late the generator offered each row, ns.
    pub lateness: LogHist,
    /// Rows per second actually offered.
    pub offered_rate: f64,
    /// Peak RSS over the phase minus RSS just before `Server::start`.
    pub mem_peak_bytes: u64,
    /// Deepest EO input queue seen (messages).
    pub depth_max: u64,
    pub sets: u64,
    pub rows_in: u64,
    /// CPU time of the client (drainer) thread, ns.
    pub client_cpu_ns: u64,
    pub fjord: Vec<tcq_fjords::FjordStats>,
    pub partitions: Vec<(u64, u64, u64)>,
    pub snapshot: Option<tcq_metrics::Snapshot>,
    pub setup_s: f64,
    pub submits: SpanLog,
    /// Spans around `push_at`, source polls that returned rows and
    /// result dequeues (traced phases only).
    pub push_spans: SpanLog,
    pub poll_spans: SpanLog,
    pub poll_calls: u64,
    pub dequeue_spans: SpanLog,
}

impl Phase {
    pub fn server_cpu_ns(&self) -> u64 {
        self.cpu.values().sum()
    }
}

/// How a phase offers its rows.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop at a fixed rate; latency is timed from each row's due
    /// time, samples kept per segment of this many seconds.
    Paced { rate: f64, segment_secs: f64 },
    /// Every row offered at once.
    Flood,
}

/// Run one phase on a freshly set-up server and check every answer.
pub fn run_phase(
    w: &Workload,
    scratch: &mut Scratch,
    rows: &[Rec],
    exp: &Expected,
    load: Load,
    traced: bool,
) -> Phase {
    let input = Input::build(w, rows);
    let n = rows.len();
    let rss_before = sys::rss_bytes();
    let mut rss_peak = rss_before;
    let run = setup(w, scratch);
    if let (Some(feed), Input::Tuples(rows)) = (&run.feed, &input) {
        assert!(feed.rows.set(rows.clone()).is_ok(), "one input per feed");
    }
    if traced {
        if let Some(f) = &run.feed {
            *f.poll_spans.lock().expect("span lock") = Some(SpanLog::default());
        }
    }
    let stop = AtomicBool::new(false);
    let gen_done = AtomicBool::new(false);
    let tap_seen = AtomicI64::new(0);
    let tap = w.client_blocks();
    let cpu_before = sys::threads();
    let pinned = w.pins_threads();
    if pinned {
        pin_server(&cpu_before);
    }
    let base = Instant::now() + Duration::from_millis(20);
    let pacing = match load {
        Load::Paced { rate, segment_secs } => Some(Pacing {
            base,
            rate,
            segment_secs,
        }),
        Load::Flood => None,
    };
    let mut depth_max = 0u64;
    let (gen, verifier, dequeue_spans) = std::thread::scope(|s| {
        let gen = std::thread::Builder::new()
            .name("perfbench-gen".into())
            .spawn_scoped(s, || {
                if pinned {
                    sys::pin(0, SHARED_CPU);
                }
                let g = generate(&run, w, &input, n, base, load, traced, &tap_seen);
                gen_done.store(true, Ordering::Release);
                g
            })
            .expect("generator thread starts");
        let drainer = std::thread::Builder::new()
            .name("perfbench-drain".into())
            .spawn_scoped(s, || {
                if pinned {
                    sys::pin(0, SHARED_CPU);
                }
                drain(
                    &run.handles,
                    exp,
                    rows,
                    pacing,
                    tap,
                    &stop,
                    traced,
                    &tap_seen,
                )
            })
            .expect("drainer thread starts");
        // Sample memory and queue depth while the load runs.
        let mut sample = || {
            rss_peak = rss_peak.max(sys::rss_bytes());
            for st in run.server.eo_input_stats() {
                depth_max = depth_max.max(st.in_flight());
            }
        };
        while !gen_done.load(Ordering::Acquire) {
            sample();
            std::thread::sleep(Duration::from_millis(5));
        }
        let gen = gen.join().expect("generator thread");
        // Everything offered: keep sampling until the Wrapper took every
        // row and the EO input queues ran dry, then wait at the server's
        // own barrier. A server that never drains fails the barrier below.
        let deadline = Instant::now() + DRAIN_WAIT;
        while Instant::now() < deadline {
            sample();
            let taken = !w.source_fed() || run.server.wrapper_ingested() >= n as u64;
            let dry = run
                .server
                .eo_input_stats()
                .iter()
                .all(|st| st.in_flight() == 0);
            if taken && dry {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let drained = if w.source_fed() {
            run.server.drain_sources(DRAIN_WAIT)
        } else {
            run.server.sync();
            true
        };
        sample();
        // Stop the client before reporting a stuck server, so the scope
        // can join it.
        if tap {
            run.server
                .stop_query(run.handles[0].id)
                .expect("the tap is running");
        } else {
            stop.store(true, Ordering::Release);
        }
        let (verifier, spans) = drainer.join().expect("drainer thread");
        assert!(drained, "the server drains its source");
        (gen, verifier, spans)
    });
    let cpu_after = sys::threads();
    let mut cpu: BTreeMap<String, u64> = sys::cpu_delta(&cpu_before, &cpu_after)
        .into_iter()
        .filter(|(name, _)| sys::is_server_thread(name))
        .collect();
    if !w.source_fed() {
        cpu.insert("perfbench-gen".into(), gen.cpu_ns);
    }
    let mut verifier = verifier;
    let tally = verifier.finish();
    let shed = run
        .server
        .shed_stats(w.stream)
        .map(|s| s.shed + s.spilled)
        .unwrap_or(0);
    let elapsed_s = verifier.last_ok.map_or(f64::NAN, |t| {
        t.saturating_duration_since(base).as_secs_f64()
    });
    let (poll_spans, poll_calls) = match &run.feed {
        Some(f) => (
            f.poll_spans
                .lock()
                .expect("span lock")
                .take()
                .unwrap_or_default(),
            f.polls.load(Ordering::Relaxed),
        ),
        None => (SpanLog::default(), 0),
    };
    let failing_queries = verifier
        .failed_by_query
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(q, &f)| (q, f))
        .collect();
    let phase = Phase {
        tally,
        failing_queries,
        pushes: n as u64,
        push_errors: gen.errors,
        shed,
        elapsed_s,
        cpu,
        latency: verifier.latency,
        lateness: gen.lateness,
        offered_rate: gen.offered_rate,
        mem_peak_bytes: rss_peak.saturating_sub(rss_before),
        depth_max,
        sets: verifier.sets,
        rows_in: verifier.rows_in,
        client_cpu_ns: verifier.client_cpu_ns,
        fjord: run.server.eo_input_stats(),
        partitions: run.server.partition_stats(),
        snapshot: run.server.metrics().map(|m| m.snapshot()),
        setup_s: run.setup_s,
        submits: run.submits.clone(),
        push_spans: gen.push_spans,
        poll_spans,
        poll_calls,
        dequeue_spans,
    };
    run.stop();
    phase
}

/// Make this thread's short sleeps precise (the default timer slack is
/// 50 µs), so pacing and the client's naps do not round up.
fn set_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes the slack in ns by value and
    // touches no memory; a failure leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

struct GenOut {
    errors: u64,
    lateness: LogHist,
    offered_rate: f64,
    cpu_ns: u64,
    push_spans: SpanLog,
}

#[allow(clippy::too_many_arguments)]
fn generate(
    run: &Running,
    w: &Workload,
    input: &Input,
    n: usize,
    base: Instant,
    load: Load,
    traced: bool,
    tap_seen: &AtomicI64,
) -> GenOut {
    let cpu0 = sys::self_cpu_ns();
    let mut out = GenOut {
        errors: 0,
        lateness: LogHist::default(),
        offered_rate: 0.0,
        cpu_ns: 0,
        push_spans: SpanLog::default(),
    };
    let push = |fields: Vec<Value>, tick: i64, out: &mut GenOut| {
        let t = Instant::now();
        if run.server.push_at(w.stream, fields, tick).is_err() {
            out.errors += 1;
        }
        if traced {
            out.push_spans.record(t, 1);
        }
    };
    let fields = match input {
        Input::Fields(f) => f.as_slice(),
        Input::Tuples(_) => &[],
    };
    set_timer_slack();
    let now = Instant::now();
    if now < base {
        std::thread::sleep(base - now);
    }
    match load {
        Load::Flood => match &run.feed {
            Some(feed) => feed.release(n),
            None => {
                for (i, f) in fields.iter().enumerate() {
                    let seq = i as i64 + 1;
                    while seq - tap_seen.load(Ordering::Acquire) > CLIENT_WINDOW {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    push(f.clone(), seq, &mut out);
                }
            }
        },
        Load::Paced { rate, .. } => {
            let due = |i: usize| base + Duration::from_secs_f64(i as f64 / rate);
            let mut i = 0usize;
            while i < n {
                let now = Instant::now();
                let next = due(i);
                if now < next {
                    std::thread::sleep(next - now);
                    continue;
                }
                // Offer every row due by now.
                let elapsed = now.saturating_duration_since(base).as_secs_f64();
                let upto = ((elapsed * rate) as usize + 1).clamp(i + 1, n);
                match &run.feed {
                    Some(feed) => {
                        for k in i..upto {
                            let late = now.saturating_duration_since(due(k));
                            out.lateness.record(late.as_nanos() as u64);
                        }
                        feed.release(upto);
                    }
                    None => {
                        for (k, f) in fields.iter().enumerate().take(upto).skip(i) {
                            let late = Instant::now().saturating_duration_since(due(k));
                            out.lateness.record(late.as_nanos() as u64);
                            push(f.clone(), k as i64 + 1, &mut out);
                        }
                    }
                }
                i = upto;
            }
        }
    }
    // The stream is complete: a source says so by finishing, the push
    // path by punctuating at the last tick, which closes the last
    // window instants.
    match &run.feed {
        Some(feed) => feed.finish(),
        None => {
            if run.server.punctuate(w.stream, n as i64).is_err() {
                out.errors += 1;
            }
        }
    }
    let span = base.elapsed().as_secs_f64();
    out.offered_rate = n as f64 / span.max(1e-9);
    out.cpu_ns = sys::self_cpu_ns().saturating_sub(cpu0);
    out
}

/// The client's state: the answer check, dequeue spans, and the newest
/// `seq` seen on query 0 (the tap, on the push path) for the
/// generator's client window.
struct Client<'a, 'b> {
    v: Verifier<'a>,
    spans: SpanLog,
    traced: bool,
    tap_seen: &'b AtomicI64,
}

impl Client<'_, '_> {
    fn take(&mut self, q: usize, rs: &tcq::ResultSet, at: Instant) {
        self.v.on_set(q, rs, at);
        if q == 0 {
            if let Some(Value::Int(seq)) = rs.rows.last().and_then(|r| r.fields().first()) {
                self.tap_seen.fetch_max(*seq, Ordering::Release);
            }
        }
    }

    /// Dequeue everything buffered on every handle; whether any set came.
    fn sweep(&mut self, handles: &[QueryHandle]) -> bool {
        let mut got = false;
        for (q, h) in handles.iter().enumerate() {
            loop {
                let t = Instant::now();
                let Some(rs) = h.try_next() else { break };
                let at = Instant::now();
                if self.traced {
                    self.spans
                        .calls
                        .push(((at - t).as_nanos() as u64, rs.rows.len() as u64));
                }
                got = true;
                self.take(q, &rs, at);
            }
        }
        got
    }
}

/// The client thread. With `tap` (query 0 gets a set for every admitted
/// batch) the client blocks on query 0 and sweeps every handle each time
/// it wakes, until query 0 is stopped. Otherwise it sweeps every handle
/// and naps when a sweep finds nothing, until `stop` is set.
#[allow(clippy::too_many_arguments)]
fn drain<'a>(
    handles: &[QueryHandle],
    exp: &'a Expected,
    rows: &'a [Rec],
    pacing: Option<Pacing>,
    tap: bool,
    stop: &AtomicBool,
    traced: bool,
    tap_seen: &AtomicI64,
) -> (Verifier<'a>, SpanLog) {
    let mut c = Client {
        v: Verifier::new(exp, rows, pacing),
        spans: SpanLog::default(),
        traced,
        tap_seen,
    };
    set_timer_slack();
    let cpu0 = sys::self_cpu_ns();
    loop {
        if tap {
            let Some(rs) = handles[0].next_blocking() else {
                c.sweep(handles);
                break;
            };
            c.take(0, &rs, Instant::now());
            c.sweep(handles);
            continue;
        }
        // Read the stop flag before the sweep: a sweep that starts after
        // the server quiesced sees every delivered set.
        let stopping = stop.load(Ordering::Acquire);
        let sweep = Instant::now();
        if !c.sweep(handles) {
            if stopping {
                break;
            }
            // Keep polling empty queues to about a tenth of the client's
            // time: on 2 cores a busier client takes CPU from the server.
            std::thread::sleep(MIN_NAP.max(sweep.elapsed() * 9));
        }
    }
    c.v.client_cpu_ns = sys::self_cpu_ns().saturating_sub(cpu0);
    (c.v, c.spans)
}

/// Offer `rows` to a fresh server and return every result set it
/// delivered, as `(query index, set)`. The push path quiesces and drains
/// every `CLIENT_WINDOW` rows, so no set is shed while collecting.
#[cfg(test)]
pub fn collect(w: &Workload, scratch: &mut Scratch, rows: &[Rec]) -> Vec<(usize, tcq::ResultSet)> {
    let run = setup(w, scratch);
    let mut out = Vec::new();
    let drain_all = |out: &mut Vec<(usize, tcq::ResultSet)>| {
        for (q, h) in run.handles.iter().enumerate() {
            out.extend(h.drain().into_iter().map(|rs| (q, rs)));
        }
    };
    match (&run.feed, Input::build(w, rows)) {
        (Some(feed), Input::Tuples(t)) => {
            assert!(feed.rows.set(t).is_ok(), "one input per feed");
            feed.release(rows.len());
            feed.finish();
            assert!(
                run.server.drain_sources(Duration::from_secs(60)),
                "source drains"
            );
        }
        (None, Input::Fields(fields)) => {
            for (i, f) in fields.into_iter().enumerate() {
                run.server.push_at(w.stream, f, i as i64 + 1).expect("push");
                if (i as i64 + 1) % CLIENT_WINDOW == 0 {
                    run.server.sync();
                    drain_all(&mut out);
                }
            }
            run.server
                .punctuate(w.stream, rows.len() as i64)
                .expect("punctuate");
            run.server.sync();
        }
        _ => unreachable!("the input matches the feed path"),
    }
    drain_all(&mut out);
    run.stop();
    out
}
