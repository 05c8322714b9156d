//! The traced run: per-layer metrics.
//!
//! Two sources feed it. The live server, run untraced and traced in
//! alternation, gives the counts the engine publishes (registry
//! histograms, EO input-queue stats, Flux partition counters, per-thread
//! CPU) and the spans recorded around the public `Server` calls:
//! `submit`, `push_at`, the source's `poll` and the client's dequeue.
//! Then the same generated rows and the same planned queries are
//! replayed, single-threaded, through each layer crate's public API with
//! one span around each call, which gives each layer's time and counts.
//! Spans are kept in memory. They sit side by side, never nested, so each
//! span's self time is its duration.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tcq::executor::{aggregate_rows, aggregate_rows_columnar, make_policy};
use tcq_cacq::{CacqEngine, QueryId, QuerySpec, Selection};
use tcq_common::{Catalog, ColumnBatch, Expr, Timestamp, Tuple};
use tcq_eddy::Eddy;
use tcq_fjords::{DequeueResult, Fjord};
use tcq_flux::{Exchange, OrderedMerge};
use tcq_metrics::{SampleValue, Snapshot};
use tcq_planner::{CoreKind, CqPlanner};
use tcq_sql::QueryPlan;
use tcq_stems::SteM;
use tcq_storage::{BufferPool, Replacement, Spooler, StreamArchive, WalWriter};

use crate::live::{self, Load, Phase, Scratch};
use crate::oracle::Expected;
use crate::stats::{median, quantile};
use crate::workload::{Kind, Rec, Spec, Win, Workload};
use crate::{metric, report_phase, Args, Metric, Outcome};

/// Untraced/traced flood pairs in a traced run.
const PAIRS: usize = 3;

/// One recorded span: a call into a layer crate.
struct Span {
    name: &'static str,
    ns: u64,
    /// Tuples (or rows) the call handled.
    n: u64,
}

/// An in-memory span recorder. Replay spans never nest, so a span's self
/// time is its whole duration.
#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Run `f` inside a span named `name`; `f` reports the tuples it
    /// handled.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let start = Instant::now();
        let (out, n) = f();
        self.spans.push(Span {
            name,
            ns: start.elapsed().as_nanos() as u64,
            n,
        });
        out
    }

    /// Per span name: calls, tuples and total ns.
    fn summary(&self) -> BTreeMap<&'static str, Layer> {
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for s in &self.spans {
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.n += s.n;
            l.ns += s.ns;
        }
        out
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Layer {
    calls: u64,
    n: u64,
    ns: u64,
}

impl Layer {
    fn ns_per_n(&self) -> f64 {
        ratio(self.ns as f64, self.n as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Spans that re-measure work another span already covers; they are
/// reported but not added to the replay's total.
const DETAIL_SPANS: &[&str] = &["stems.build_probe"];
/// Spans outside the flood's data path (admission).
const SETUP_SPANS: &[&str] = &["planner.plan_sql"];

/// What the replay counted besides span times.
#[derive(Default)]
struct Counts {
    cacq_tuples: u64,
    cacq_lookups: u64,
    cacq_delivered: u64,
    residual_evaluated: u64,
    residual_passed: u64,
    eddy_submitted: u64,
    eddy_decisions: u64,
    eddy_emitted: u64,
    scanned_rows: u64,
    instants: u64,
    window_bytes_max: u64,
    stem_bytes_max: u64,
}

fn add_eddy_stats(c: &mut Counts, e: &Eddy) {
    let s = e.stats();
    c.eddy_submitted += s.submitted;
    c.eddy_decisions += s.decisions;
    c.eddy_emitted += s.emitted;
}

fn add_cacq_stats(c: &mut Counts, e: &CacqEngine) {
    let s = e.stats();
    c.cacq_tuples += s.tuples;
    c.cacq_lookups += s.filter_lookups;
    c.cacq_delivered += s.delivered;
}

/// The indexable factors of a plan as a CACQ spec, plus the residual
/// rest — the executor's sharing rule, applied to the same plan.
fn split_filters(plan: &QueryPlan) -> (Vec<Selection>, Vec<Expr>) {
    let mut selections = Vec::new();
    let mut residual = Vec::new();
    for f in &plan.filters {
        match f.as_single_column_cmp() {
            Some((col, op, value)) => selections.push(Selection {
                stream: 0,
                col,
                op,
                value,
            }),
            None => residual.push(f.clone()),
        }
    }
    (selections, residual)
}

/// A selection's runtime shape in the executor: folded into the shared
/// CACQ engine with residuals, or a per-query eddy (the tap).
enum Selector {
    Shared { id: QueryId, residual: Vec<Expr> },
    Eddy(Box<Eddy>),
}

fn selectors(
    w: &Workload,
    plans: &[QueryPlan],
    engine: &mut CacqEngine,
    salt: u64,
) -> Vec<(usize, Selector)> {
    let config = w.config(std::path::Path::new("."));
    plans
        .iter()
        .enumerate()
        .filter(|(_, p)| p.window.is_none())
        .map(|(q, p)| {
            let (selections, residual) = split_filters(p);
            let sel = if selections.is_empty() {
                Selector::Eddy(Box::new(
                    p.build_eddy_vectorized(
                        make_policy(&config, salt ^ q as u64),
                        config.batch_size,
                        config.columnar,
                    )
                    .expect("planned queries compile"),
                ))
            } else {
                let id = engine
                    .add_query(QuerySpec {
                        selections,
                        join: None,
                    })
                    .expect("indexable specs are valid");
                Selector::Shared { id, residual }
            };
            (q, sel)
        })
        .collect()
}

/// The shared filter pass of one batch plus residuals, taps and
/// projection; returns the result rows per query index.
fn run_selectors(
    tr: &mut Tracer,
    c: &mut Counts,
    engine: &mut CacqEngine,
    sels: &mut [(usize, Selector)],
    plans: &[QueryPlan],
    batch: &[Tuple],
) -> HashMap<usize, Vec<(usize, Tuple)>> {
    let matched = tr.span("cacq.push", || {
        let cb = ColumnBatch::from_tuples(batch.to_vec());
        (engine.push_batch_columnar(0, &cb), batch.len() as u64)
    });
    let mut by_id: HashMap<QueryId, Vec<(usize, Tuple)>> = HashMap::new();
    for (idx, id, t) in matched {
        by_id.entry(id).or_default().push((idx, t));
    }
    let mut out: HashMap<usize, Vec<(usize, Tuple)>> = HashMap::new();
    for (q, sel) in sels.iter_mut() {
        let rows: Vec<(usize, Tuple)> = match sel {
            Selector::Shared { id, residual } => {
                let cand = by_id.remove(id).unwrap_or_default();
                if residual.is_empty() {
                    cand
                } else {
                    tr.span("core.residual", || {
                        let n = cand.len() as u64;
                        c.residual_evaluated += n;
                        let kept: Vec<(usize, Tuple)> = cand
                            .into_iter()
                            .filter(|(_, t)| {
                                residual.iter().all(|e| e.eval_pred(t).unwrap_or(false))
                            })
                            .collect();
                        c.residual_passed += kept.len() as u64;
                        (kept, n)
                    })
                }
            }
            Selector::Eddy(eddy) => tr.span("eddy.push", || {
                let n = batch.len() as u64;
                let rows = eddy.push_batch_attributed(0, batch.to_vec());
                (rows.into_iter().map(|(i, t)| (i as usize, t)).collect(), n)
            }),
        };
        let plan = &plans[*q];
        let projected = tr.span("core.project", || {
            let n = rows.len() as u64;
            let p: Vec<(usize, Tuple)> = rows
                .into_iter()
                .filter_map(|(i, t)| plan.project(&t).ok().map(|t| (i, t)))
                .collect();
            (p, n)
        });
        out.insert(*q, projected);
    }
    out
}

/// The storage pieces a replay writes through.
struct Store {
    archive: StreamArchive,
    /// Declared after the archive so it drops after it: the spooler's
    /// thread exits once every archive sender is gone.
    _spooler: Spooler,
}

impl Store {
    fn new(dir: &std::path::Path, w: &Workload) -> Store {
        let config = w.config(dir);
        let spooler = Spooler::start().expect("spooler starts");
        let pool = Arc::new(Mutex::new(BufferPool::new(
            config.buffer_pool_segments,
            Replacement::Clock,
        )));
        Store {
            archive: StreamArchive::new(
                0,
                dir.join("archive"),
                config.segment_tuples,
                pool,
                Some(&spooler),
            ),
            _spooler: spooler,
        }
    }

    fn append(&mut self, tr: &mut Tracer, batch: &[Tuple]) {
        tr.span("storage.archive.append", || {
            for t in batch {
                self.archive.append(t.clone()).expect("archive append");
            }
            ((), batch.len() as u64)
        });
    }

    fn scan(&self, tr: &mut Tracer, c: &mut Counts, win: Win, t: i64) -> Vec<Tuple> {
        let rows = tr.span("storage.archive.scan", || {
            let rows = self
                .archive
                .scan(Timestamp::logical(t - win.width + 1), Timestamp::logical(t))
                .expect("archive scan");
            let n = rows.len() as u64;
            (rows, n)
        });
        c.scanned_rows += rows.len() as u64;
        let bytes: u64 = rows.iter().map(|r| r.approx_bytes() as u64).sum();
        c.window_bytes_max = c.window_bytes_max.max(bytes);
        rows
    }
}

/// One hop of the EO input queue: enqueue the batch message, dequeue it.
fn fjord_hop<T>(tr: &mut Tracer, q: &Fjord<T>, msg: T, n: u64) -> T {
    tr.span("fjords.enqueue", || {
        assert!(q.enqueue_many(vec![msg]).is_ok(), "replay queue has room");
        ((), n)
    });
    tr.span("fjords.dequeue", || match q.dequeue_up_to(64) {
        DequeueResult::Item(mut v) => (v.pop().expect("one message"), n),
        _ => unreachable!("the message was just enqueued"),
    })
}

struct Replay {
    layers: BTreeMap<&'static str, Layer>,
    counts: Counts,
    inputs: u64,
    queries: u64,
}

impl Replay {
    fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Time of every data-path span, ns.
    fn covered_ns(&self) -> u64 {
        self.layers
            .iter()
            .filter(|(n, _)| !DETAIL_SPANS.contains(n) && !SETUP_SPANS.contains(n))
            .map(|(_, l)| l.ns)
            .sum()
    }
}

fn replay(w: &Workload, rows: &[Rec], dir: &std::path::Path) -> Replay {
    let mut tr = Tracer::default();
    let mut c = Counts::default();
    let catalog = Catalog::new();
    catalog
        .register_stream(w.stream, w.schema())
        .expect("stream registers");
    let planner = CqPlanner::new(catalog);
    let planned: Vec<tcq_planner::PlannedQuery> = w
        .queries
        .iter()
        .map(|q| {
            tr.span("planner.plan_sql", || {
                (planner.plan_sql(&q.sql).expect("workload query plans"), 1)
            })
        })
        .collect();
    let plans: Vec<QueryPlan> = planned.iter().map(|p| p.physical.clone()).collect();
    let tuples: Vec<Tuple> = rows.iter().map(|r| w.tuple(r)).collect();
    let mut store = Store::new(dir, w);
    match w.kind {
        Kind::Alerts => replay_alerts(&mut tr, &mut c, w, &plans, &tuples, &mut store),
        Kind::Windows => replay_windows(&mut tr, &mut c, w, &planned, &plans, &tuples, &mut store),
        Kind::Ingest => replay_ingest(
            &mut tr, &mut c, w, &planned, &plans, &tuples, &mut store, dir,
        ),
    }
    drop(store);
    Replay {
        layers: tr.summary(),
        counts: c,
        inputs: rows.len() as u64,
        queries: w.queries.len() as u64,
    }
}

fn replay_alerts(
    tr: &mut Tracer,
    c: &mut Counts,
    w: &Workload,
    plans: &[QueryPlan],
    tuples: &[Tuple],
    store: &mut Store,
) {
    let config = w.config(std::path::Path::new("."));
    let mut engine = CacqEngine::new();
    let mut sels = selectors(w, plans, &mut engine, 0);
    let input: Fjord<Vec<Tuple>> = Fjord::with_capacity(config.input_queue);
    for chunk in tuples.chunks(config.batch_size) {
        store.append(tr, chunk);
        let batch = fjord_hop(tr, &input, chunk.to_vec(), chunk.len() as u64);
        run_selectors(tr, c, &mut engine, &mut sels, plans, &batch);
    }
    add_cacq_stats(c, &engine);
    for (_, s) in &sels {
        if let Selector::Eddy(e) = s {
            add_eddy_stats(c, e);
        }
    }
}

/// The windowed queries of a workload, driven the way the executor
/// drives them: families that share a scan and a grouped-filter pass,
/// and unshared queries with a fresh eddy per instant.
struct WindowDriver {
    families: Vec<Family>,
    solo: Vec<(usize, Win)>,
    /// Stream head already evaluated up to.
    last: i64,
}

impl WindowDriver {
    fn new(
        w: &Workload,
        planned: &[tcq_planner::PlannedQuery],
        plans: &[QueryPlan],
    ) -> WindowDriver {
        let consistency = w.config(std::path::Path::new(".")).consistency;
        // Families are keyed by the planner's core signature, exactly as
        // the executor groups them.
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        let mut solo = Vec::new();
        for (q, query) in w.queries.iter().enumerate() {
            let win = match &query.spec {
                Spec::WinSelect { win, .. }
                | Spec::WinAgg { win, .. }
                | Spec::WinSelfJoin { win } => *win,
                Spec::Select { .. } => continue,
            };
            match planned[q].core_signature(consistency) {
                Some(core) if core.kind == CoreKind::Window => {
                    let fam = families.entry(core.key).or_insert_with(|| Family {
                        win,
                        engine: CacqEngine::new(),
                        members: Vec::new(),
                    });
                    let (selections, residual) = split_filters(&plans[q]);
                    let slot = (!selections.is_empty()).then(|| {
                        fam.engine
                            .add_query(QuerySpec {
                                selections,
                                join: None,
                            })
                            .expect("indexable specs are valid")
                    });
                    fam.members.push((q, slot, residual));
                }
                _ => solo.push((q, win)),
            }
        }
        println!(
            "# replay: {} window families (members {:?}), {} unshared windowed queries",
            families.len(),
            families
                .values()
                .map(|f| f.members.len())
                .collect::<Vec<_>>(),
            solo.len()
        );
        WindowDriver {
            families: families.into_values().collect(),
            solo,
            last: 0,
        }
    }

    /// Evaluate every instant the stream head `head` releases.
    fn advance(
        &mut self,
        tr: &mut Tracer,
        c: &mut Counts,
        w: &Workload,
        plans: &[QueryPlan],
        store: &Store,
        head: i64,
    ) {
        let last = self.last;
        for fam in &mut self.families {
            for t in fam.win.instants(head).filter(|&t| t > last) {
                c.instants += 1;
                evaluate_family_instant(tr, c, plans, store, fam, t);
            }
        }
        for &(q, win) in &self.solo {
            for t in win.instants(head).filter(|&t| t > last) {
                c.instants += 1;
                evaluate_instant(tr, c, w, &plans[q], store, win, t, q);
            }
        }
        self.last = head;
    }

    fn add_stats(&self, c: &mut Counts) {
        for fam in &self.families {
            add_cacq_stats(c, &fam.engine);
        }
    }
}

fn replay_windows(
    tr: &mut Tracer,
    c: &mut Counts,
    w: &Workload,
    planned: &[tcq_planner::PlannedQuery],
    plans: &[QueryPlan],
    tuples: &[Tuple],
    store: &mut Store,
) {
    let config = w.config(std::path::Path::new("."));
    let input: Fjord<Vec<Tuple>> = Fjord::with_capacity(config.input_queue);
    let mut windows = WindowDriver::new(w, planned, plans);
    for chunk in tuples.chunks(config.batch_size) {
        store.append(tr, chunk);
        let batch = fjord_hop(tr, &input, chunk.to_vec(), chunk.len() as u64);
        let head = batch.last().map_or(windows.last, |t| t.ts().ticks());
        windows.advance(tr, c, w, plans, store, head);
    }
    windows.add_stats(c);
}

/// Windowed queries sharing one scan and grouped-filter pass.
struct Family {
    win: Win,
    engine: CacqEngine,
    /// `(query index, engine slot, residual factors)`.
    members: Vec<(usize, Option<QueryId>, Vec<Expr>)>,
}

/// One instant of a window family: the shared scan and filter pass,
/// then each member's residual and its fold (or projection).
fn evaluate_family_instant(
    tr: &mut Tracer,
    c: &mut Counts,
    plans: &[QueryPlan],
    store: &Store,
    fam: &mut Family,
    t: i64,
) {
    let scan = store.scan(tr, c, fam.win, t);
    let mut matches: HashMap<QueryId, Vec<usize>> = HashMap::new();
    if fam.engine.query_count() > 0 && !scan.is_empty() {
        let hits = tr.span("cacq.push", || {
            let n = scan.len() as u64;
            let cb = ColumnBatch::from_tuples(scan.clone());
            (fam.engine.push_batch_columnar(0, &cb), n)
        });
        for (idx, id, _) in hits {
            matches.entry(id).or_default().push(idx);
        }
    }
    for (q, slot, residual) in &fam.members {
        let plan = &plans[*q];
        let mut rows: Vec<Tuple> = match slot {
            Some(id) => matches
                .get(id)
                .map(|ix| ix.iter().map(|&i| scan[i].clone()).collect())
                .unwrap_or_default(),
            None => scan.clone(),
        };
        if !residual.is_empty() {
            rows = tr.span("core.residual", || {
                let n = rows.len() as u64;
                c.residual_evaluated += n;
                let kept: Vec<Tuple> = rows
                    .into_iter()
                    .filter(|r| residual.iter().all(|e| e.eval_pred(r).unwrap_or(false)))
                    .collect();
                c.residual_passed += kept.len() as u64;
                (kept, n)
            });
        }
        finish_instant(tr, plan, rows);
    }
}

/// Fold an instant's surviving rows (aggregating plans) or project them.
fn finish_instant(tr: &mut Tracer, plan: &QueryPlan, rows: Vec<Tuple>) {
    if plan.is_aggregating() {
        tr.span("windows.fold", || {
            let n = rows.len() as u64;
            let out =
                aggregate_rows_columnar(plan, &rows).unwrap_or_else(|| aggregate_rows(plan, &rows));
            (std::hint::black_box(out), n)
        });
    } else {
        tr.span("core.project", || {
            let n = rows.len() as u64;
            let out: Vec<Tuple> = rows.iter().filter_map(|r| plan.project(r).ok()).collect();
            (std::hint::black_box(out), n)
        });
    }
}

/// One instant of an unshared windowed query: scan, a fresh eddy, and
/// the aggregate fold (or projection).
#[allow(clippy::too_many_arguments)]
fn evaluate_instant(
    tr: &mut Tracer,
    c: &mut Counts,
    w: &Workload,
    plan: &QueryPlan,
    store: &Store,
    win: Win,
    t: i64,
    q: usize,
) {
    let config = w.config(std::path::Path::new("."));
    let policy = make_policy(&config, q as u64 ^ t as u64);
    if plan.streams.len() == 1 {
        let scan = store.scan(tr, c, win, t);
        let mut eddy = plan
            .build_eddy_vectorized(policy, config.batch_size, config.columnar)
            .expect("planned queries compile");
        let rows = tr.span("eddy.push", || {
            let n = scan.len() as u64;
            let mut out = Vec::new();
            for chunk in scan.chunks(config.batch_size) {
                out.extend(eddy.push_batch(0, chunk.to_vec()));
            }
            (out, n)
        });
        add_eddy_stats(c, &eddy);
        finish_instant(tr, plan, rows);
        return;
    }
    // The self-join: both sides scan the same window; the eddy joins
    // them row by row through its SteMs.
    let left = store.scan(tr, c, win, t);
    let right = store.scan(tr, c, win, t);
    let mut eddy = plan
        .build_eddy_vectorized(policy, 1, false)
        .expect("planned queries compile");
    let joined = tr.span("eddy.push", || {
        let mut out = Vec::new();
        for (l, r) in left.iter().zip(&right) {
            out.extend(eddy.push(0, l.clone()));
            out.extend(eddy.push(1, r.clone()));
        }
        (out, (left.len() + right.len()) as u64)
    });
    add_eddy_stats(c, &eddy);
    tr.span("core.project", || {
        let n = joined.len() as u64;
        let out: Vec<Tuple> = joined.iter().filter_map(|r| plan.project(r).ok()).collect();
        (std::hint::black_box(out), n)
    });
    // The same join's SteM work on its own: build one side on the join
    // key (`sym`, column 1), probe with the other.
    tr.span("stems.build_probe", || {
        let mut stem = SteM::new("a", vec![1]);
        stem.build_batch(&left);
        let mut matches = 0usize;
        for r in &right {
            matches += stem.probe_tuple(r, &[1]).len();
        }
        c.stem_bytes_max = c.stem_bytes_max.max(stem.approx_bytes() as u64);
        (
            std::hint::black_box(matches),
            (left.len() + right.len()) as u64,
        )
    });
}

#[allow(clippy::too_many_arguments)]
fn replay_ingest(
    tr: &mut Tracer,
    c: &mut Counts,
    w: &Workload,
    planned: &[tcq_planner::PlannedQuery],
    plans: &[QueryPlan],
    tuples: &[Tuple],
    store: &mut Store,
    dir: &std::path::Path,
) {
    let config = w.config(dir);
    let parts = config.partitions;
    let mut wal =
        WalWriter::open(&dir.join("wal"), false, config.wal_segment_bytes).expect("wal opens");
    let mut exchange = Exchange::new(parts);
    let inputs: Vec<Fjord<Vec<(u32, Tuple)>>> = (0..parts)
        .map(|_| Fjord::with_capacity(config.input_queue))
        .collect();
    let mut engines: Vec<CacqEngine> = (0..parts).map(|_| CacqEngine::new()).collect();
    let mut sels: Vec<Vec<(usize, Selector)>> = engines
        .iter_mut()
        .enumerate()
        .map(|(p, e)| selectors(w, plans, e, p as u64))
        .collect();
    // One egress merge per partitioned (unwindowed) query.
    let mut merges: Vec<(usize, OrderedMerge<Tuple>)> = sels[0]
        .iter()
        .map(|(q, _)| (*q, OrderedMerge::new(parts)))
        .collect();
    // Windowed queries stay resident on one partition and see every row.
    let mut windows = WindowDriver::new(w, planned, plans);
    // Every push is a batch of one.
    for (b, t) in tuples.iter().enumerate() {
        let batch = std::slice::from_ref(t);
        store.append(tr, batch);
        tr.span("storage.wal.append_commit", || {
            wal.append_batch(0, batch);
            wal.commit().expect("wal commit");
            ((), 1)
        });
        let shares = tr.span("flux.partition", || (exchange.partition_batch(0, batch), 1));
        for (p, share) in shares.into_iter().enumerate() {
            let n = share.len() as u64;
            let share = fjord_hop(tr, &inputs[p], share, n);
            let (offsets, rows): (Vec<u32>, Vec<Tuple>) = share.into_iter().unzip();
            let results = if rows.is_empty() {
                HashMap::new()
            } else {
                run_selectors(tr, c, &mut engines[p], &mut sels[p], plans, &rows)
            };
            for (q, merge) in merges.iter_mut() {
                let offered: Vec<(u32, Tuple)> = results
                    .get(q)
                    .map(|r| r.iter().map(|(i, t)| (offsets[*i], t.clone())).collect())
                    .unwrap_or_default();
                tr.span("flux.merge", || {
                    let n = offered.len() as u64;
                    (merge.offer(p, b as u64, t.ts().ticks(), offered), n)
                });
            }
        }
        windows.advance(tr, c, w, plans, store, t.ts().ticks());
    }
    windows.add_stats(c);
    for e in &engines {
        add_cacq_stats(c, e);
    }
    for s in sels.iter().flatten() {
        if let (_, Selector::Eddy(e)) = s {
            add_eddy_stats(c, e);
        }
    }
}

/// Interpolated quantile of a registry histogram family (all instances
/// merged), in the histogram's unit. `None` when absent or empty.
fn hist_quantile(
    snap: &Snapshot,
    family: &str,
    instance_prefix: &str,
    name: &str,
    q: f64,
) -> Option<f64> {
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    for s in snap.family(family) {
        if s.name != name || !s.instance.starts_with(instance_prefix) {
            continue;
        }
        if let SampleValue::Histogram { buckets, .. } = &s.value {
            for (bound, n) in buckets {
                *merged.entry(*bound).or_insert(0) += n;
            }
        }
    }
    let total: u64 = merged.values().sum();
    if total == 0 {
        return None;
    }
    let target = q * total as f64;
    let mut cum = 0.0;
    let mut lower = 0.0;
    for (&bound, &n) in &merged {
        let upper = if bound == u64::MAX {
            lower * 2.0
        } else {
            bound as f64
        };
        if n > 0 && cum + n as f64 >= target {
            let frac = (target - cum) / n as f64;
            return Some(lower + frac * (upper - lower));
        }
        cum += n as f64;
        lower = upper;
    }
    Some(lower)
}

fn counter(snap: &Snapshot, family: &str, name: &str) -> f64 {
    snap.sum(family, name) as f64
}

pub fn run(w: &Workload, args: &Args, scratch: &mut Scratch) -> (Outcome, Vec<Metric>) {
    let rows = w.generate(args.seed, 2, w.flood_n);
    let exp = Expected::compute(w, &rows);
    let n = rows.len() as f64;
    let mut outcome = Outcome {
        valid: true,
        ..Outcome::default()
    };
    let mut plain: Vec<Phase> = Vec::new();
    let mut traced: Vec<Phase> = Vec::new();
    for i in 0..PAIRS {
        // Alternate which side runs first.
        for tracing in [i % 2 == 1, i % 2 == 0] {
            let p = live::run_phase(w, scratch, &rows, &exp, Load::Flood, tracing);
            report_phase(if tracing { "traced flood" } else { "flood" }, &p);
            outcome.add(&p);
            if tracing {
                traced.push(p);
            } else {
                plain.push(p);
            }
        }
    }
    let tps = |ps: &[Phase]| median(&ps.iter().map(|p| n / p.elapsed_s).collect::<Vec<_>>());
    let plain_tps = tps(&plain);
    let traced_tps = tps(&traced);
    let server_cpu = median(
        &plain
            .iter()
            .map(|p| p.server_cpu_ns() as f64)
            .collect::<Vec<_>>(),
    );

    let dir = scratch.fresh();
    let rep = replay(w, &rows, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    for (name, l) in &rep.layers {
        println!(
            "# replay span {name}: calls {} tuples {} ns {} ({:.1} ns/tuple)",
            l.calls,
            l.n,
            l.ns,
            l.ns_per_n()
        );
    }

    // Live-server readings, medians over the untraced floods.
    let med = |f: &dyn Fn(&Phase) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let snap_q = |p: &Phase, family: &str, inst: &str, name: &str, q: f64| {
        p.snapshot
            .as_ref()
            .and_then(|s| hist_quantile(s, family, inst, name, q))
            .unwrap_or(0.0)
    };
    let share = |p: &Phase, thread: &str| {
        ratio(
            p.cpu.get(thread).copied().unwrap_or(0) as f64,
            p.elapsed_s * 1e9,
        )
    };
    let fjord_sum = |p: &Phase, f: &dyn Fn(&tcq_fjords::FjordStats) -> u64| {
        p.fjord.iter().map(f).sum::<u64>() as f64
    };
    let all_traced = |f: &dyn Fn(&Phase) -> &live::SpanLog| {
        let mut log = live::SpanLog::default();
        for p in &traced {
            log.calls.extend_from_slice(&f(p).calls);
        }
        log
    };
    let pushes = all_traced(&|p| &p.push_spans);
    let polls = all_traced(&|p| &p.poll_spans);
    let dequeues = all_traced(&|p| &p.dequeue_spans);
    let submits = all_traced(&|p| &p.submits);
    let push_ns: Vec<f64> = pushes.calls.iter().map(|c| c.0 as f64).collect();
    // Source-fed workloads make no `push_at` calls: 0, like every metric
    // of a layer off the workload's path.
    let push_q = |q: f64| {
        if push_ns.is_empty() {
            0.0
        } else {
            quantile(&push_ns, q)
        }
    };
    let (admits, admitted) = if w.source_fed() {
        (polls.calls.len() as f64, polls.total_n() as f64)
    } else {
        (pushes.calls.len() as f64, pushes.total_n() as f64)
    };
    if w.source_fed() {
        println!(
            "# source polls: {} calls, {} returned rows ({} rows)",
            traced.iter().map(|p| p.poll_calls).sum::<u64>(),
            polls.calls.len(),
            polls.total_n()
        );
    }
    let sets: f64 = traced.iter().map(|p| p.sets as f64).sum();
    let rows_out: f64 = traced.iter().map(|p| p.rows_in as f64).sum();

    let r = &rep;
    let k = &r.counts;
    let inputs = r.inputs as f64;
    let layer = |name: &str| r.layer(name);
    let cacq = layer("cacq.push");
    let eddy = layer("eddy.push");
    let merge = layer("flux.merge");
    let covered = r.covered_ns() as f64;
    let metrics = vec![
        metric(
            "wrappers.poll.tuples_per_call",
            ratio(admitted, admits),
            "tuples",
        ),
        metric(
            "wrappers.ingest_batch_us.p50",
            med(&|p| snap_q(p, "wrapper", "ingest", "batch_us", 0.5)),
            "us",
        ),
        metric("core.push_at.ns.p50", push_q(0.5), "ns"),
        metric("core.push_at.ns.p99", push_q(0.99), "ns"),
        metric(
            "core.submit.us_per_query",
            ratio(submits.total_ns() as f64 / 1e3, submits.calls.len() as f64),
            "us",
        ),
        metric(
            "core.egress.dequeue_ns_per_row",
            ratio(dequeues.total_ns() as f64, dequeues.total_n() as f64),
            "ns",
        ),
        metric("core.egress.rows_per_set", ratio(rows_out, sets), "rows"),
        metric(
            "core.eo_batch_us.p50",
            med(&|p| snap_q(p, "executor", "eo", "batch_us", 0.5)),
            "us",
        ),
        metric(
            "core.eo_batch_us.p99",
            med(&|p| snap_q(p, "executor", "eo", "batch_us", 0.99)),
            "us",
        ),
        metric(
            "core.thread_cpu_share.wrapper",
            med(&|p| share(p, "tcq-wrapper")),
            "fraction",
        ),
        metric(
            "core.thread_cpu_share.eo-0",
            med(&|p| share(p, "tcq-eo-0")),
            "fraction",
        ),
        metric(
            "core.thread_cpu_share.eo-1",
            med(&|p| share(p, "tcq-eo-1")),
            "fraction",
        ),
        metric(
            "core.thread_cpu_share.frontend",
            med(&|p| share(p, "perfbench-gen")),
            "fraction",
        ),
        metric(
            "storage.archive.append_ns_per_tuple",
            layer("storage.archive.append").ns_per_n(),
            "ns",
        ),
        metric(
            "storage.archive.scan_rows_per_input",
            ratio(k.scanned_rows as f64, inputs),
            "rows",
        ),
        metric(
            "storage.archive.scan_ns_per_row",
            layer("storage.archive.scan").ns_per_n(),
            "ns",
        ),
        metric(
            "storage.wal.bytes_per_tuple",
            med(&|p| {
                p.snapshot
                    .as_ref()
                    .map_or(0.0, |s| counter(s, "wal", "appended_bytes"))
                    / n
            }),
            "bytes",
        ),
        metric(
            "storage.wal.append_commit_ns_per_tuple",
            layer("storage.wal.append_commit").ns_per_n(),
            "ns",
        ),
        metric(
            "fjords.eo_input.tuples_per_enq_lock",
            med(&|p| ratio(n, fjord_sum(p, &|s| s.enq_locks))),
            "tuples",
        ),
        metric(
            "fjords.eo_input.tuples_per_deq_lock",
            med(&|p| ratio(n, fjord_sum(p, &|s| s.deq_locks))),
            "tuples",
        ),
        metric(
            "fjords.eo_input.depth_max",
            med(&|p| p.depth_max as f64),
            "messages",
        ),
        metric(
            "flux.partition_ns_per_tuple",
            layer("flux.partition").ns_per_n(),
            "ns",
        ),
        metric(
            "flux.merge_ns_per_offer",
            ratio(merge.ns as f64, merge.calls as f64),
            "ns",
        ),
        metric(
            "flux.skew_max_over_mean",
            med(&|p| {
                let routed: Vec<f64> = p.partitions.iter().map(|x| x.0 as f64).collect();
                let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
                ratio(routed.iter().cloned().fold(0.0, f64::max), mean)
            }),
            "ratio",
        ),
        metric("cacq.ns_per_tuple", cacq.ns_per_n(), "ns"),
        metric(
            "cacq.filter_lookups_per_tuple",
            ratio(k.cacq_lookups as f64, k.cacq_tuples as f64),
            "lookups",
        ),
        metric(
            "cacq.delivered_per_tuple",
            ratio(k.cacq_delivered as f64, k.cacq_tuples as f64),
            "rows",
        ),
        metric(
            "cacq.residual_pass_ratio",
            ratio(k.residual_passed as f64, k.residual_evaluated as f64),
            "fraction",
        ),
        metric("eddy.ns_per_tuple", eddy.ns_per_n(), "ns"),
        metric(
            "eddy.decisions_per_tuple",
            ratio(k.eddy_decisions as f64, k.eddy_submitted as f64),
            "decisions",
        ),
        metric(
            "eddy.visits_per_output",
            ratio(k.eddy_decisions as f64, k.eddy_emitted as f64),
            "decisions",
        ),
        metric(
            "stems.build_probe_ns_per_tuple",
            layer("stems.build_probe").ns_per_n(),
            "ns",
        ),
        metric("stems.state_bytes", k.stem_bytes_max as f64, "bytes"),
        metric(
            "windows.fold_ns_per_row",
            layer("windows.fold").ns_per_n(),
            "ns",
        ),
        metric(
            "windows.instants_per_ktuple",
            ratio(k.instants as f64 * 1000.0, inputs),
            "instants",
        ),
        metric("windows.state_bytes", k.window_bytes_max as f64, "bytes"),
        metric(
            "planner.plan_us_per_query",
            ratio(layer("planner.plan_sql").ns as f64 / 1e3, r.queries as f64),
            "us",
        ),
        metric(
            "trace.unexplained_frac",
            1.0 - ratio(covered, server_cpu),
            "fraction",
        ),
        metric(
            "trace.overhead_frac",
            1.0 - ratio(traced_tps, plain_tps),
            "fraction",
        ),
    ];
    println!(
        "# untraced flood {plain_tps:.0} tuples/s, traced {traced_tps:.0} tuples/s; \
         server cpu {:.1}ms, replay data-path time {:.1}ms",
        server_cpu / 1e6,
        covered / 1e6
    );
    (outcome, metrics)
}
