//! The three workloads: their server configuration, query sets and
//! seeded input generators.
//!
//! Every constant a run's numbers depend on lives here, and none of them
//! is derived at run time: the paced rate, the flood size and the query
//! parameters are fixed per workload. The `--seed` argument only picks
//! the generated rows and the query thresholds.

use std::path::Path;

use tcq::config::PolicyKind;
use tcq::{Config, Durability, OnStorageError, ShedPolicy};
use tcq_common::{Consistency, DataType, Field, Schema, Timestamp, Tuple, Value};

/// Symbols of the `packets` and `quotes` streams.
pub const SYMS: [&str; 8] = [
    "aapl", "amzn", "goog", "ibm", "intc", "msft", "nvda", "orcl",
];

/// Prices and quantities are uniform in `[0, VALUE_RANGE)`.
pub const VALUE_RANGE: i64 = 100_000;

/// Distinct keys of the `ingest` workload's Zipf-skewed key column.
const ZIPF_KEYS: usize = 1000;
const ZIPF_S: f64 = 1.1;

/// SplitMix64: the benchmark's own generator, independent of the
/// engine's.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of draws under `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Alerts,
    Windows,
    Ingest,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "alerts" => Some(Kind::Alerts),
            "windows" => Some(Kind::Windows),
            "ingest" => Some(Kind::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Alerts => "alerts",
            Kind::Windows => "windows",
            Kind::Ingest => "ingest",
        }
    }
}

/// One generated input row. `key` is the symbol index on `packets` and
/// `quotes`, and the Zipf-skewed key on `events`. `seq` doubles as the
/// row's logical tick and is 1-based within each phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    pub seq: i64,
    pub key: i64,
    pub price: i64,
    pub qty: i64,
}

/// A column of the input schema, in schema order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    Seq,
    Key,
    Price,
    Qty,
}

impl Col {
    pub fn of(self, r: &Rec) -> i64 {
        match self {
            Col::Seq => r.seq,
            Col::Key => r.key,
            Col::Price => r.price,
            Col::Qty => r.qty,
        }
    }
}

/// A row predicate, spelled once as SQL and once as plain Rust (the
/// answer check evaluates the Rust form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    All,
    /// `lo <= price < hi`.
    PriceIn {
        lo: i64,
        hi: i64,
    },
    /// `lo <= price < hi AND price > qty` (the last factor is not
    /// indexable: it becomes a plan-sharing residual).
    PriceInAboveQty {
        lo: i64,
        hi: i64,
    },
    /// `price > x`.
    PriceAbove(i64),
    /// `key = k`.
    KeyIs(i64),
}

/// An aggregate of a windowed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Count,
    Sum(Col),
    Min(Col),
    Max(Col),
    Avg(Col),
}

/// A for-loop window `WindowIs(s, t - width + 1, t)` for
/// `t = width, width + hop, ...`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Win {
    pub width: i64,
    pub hop: i64,
}

impl Win {
    /// The window instants whose right end is at or before `last`.
    pub fn instants(self, last: i64) -> impl Iterator<Item = i64> {
        (self.width..=last).step_by(self.hop as usize)
    }
}

/// What a query computes, as the answer check understands it.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// Unwindowed selection projecting `proj` (always led by `seq`).
    Select { pred: Pred, proj: Vec<Col> },
    /// Windowed selection.
    WinSelect {
        win: Win,
        pred: Pred,
        proj: Vec<Col>,
    },
    /// Windowed aggregates, optionally grouped by the key column.
    WinAgg {
        win: Win,
        pred: Pred,
        by_key: bool,
        aggs: Vec<Agg>,
    },
    /// Windowed self-join: pairs `(a.seq, b.seq)` of rows in the same
    /// window with equal keys and `a.seq < b.seq`.
    WinSelfJoin { win: Win },
}

#[derive(Debug, Clone)]
pub struct Query {
    pub sql: String,
    pub spec: Spec,
}

/// A workload definition.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub stream: &'static str,
    pub queries: Vec<Query>,
    /// Paced phase offered rate, tuples per second.
    pub rate: f64,
    /// Flood phase input size.
    pub flood_n: usize,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed, 0x51);
        // Paced rates sit at a tenth to a fifth of the flood throughput
        // on a 2-core host, so a host running at half speed slows the
        // server without turning the paced latency into queueing.
        let (stream, queries, rate, flood_n) = match kind {
            Kind::Alerts => ("packets", alerts_queries(&mut rng), 20_000.0, 200_000),
            Kind::Windows => ("quotes", windows_queries(), 10_000.0, 40_000),
            Kind::Ingest => ("events", ingest_queries(), 20_000.0, 200_000),
        };
        Workload {
            kind,
            stream,
            queries,
            rate,
            flood_n,
        }
    }

    /// Whether the client blocks on query 0 instead of polling. Only
    /// `alerts` does: its query 0 is a tap that gets a set for every
    /// admitted batch, and polling its 257 handles would take a fifth of
    /// a core from the server. Elsewhere polling costs little, and
    /// blocking would put thread wake-up jitter into `latency_p50_ms`.
    pub fn client_blocks(&self) -> bool {
        self.kind == Kind::Alerts
    }

    /// Whether the run pins the server's threads to CPUs (see
    /// `live::EO_CPU`). The source-fed workloads do: they have one
    /// Execution Object, which the flood keeps busy. `ingest`, with two
    /// EOs and the generator running the server's ingest code, is left
    /// to the scheduler.
    pub fn pins_threads(&self) -> bool {
        self.source_fed()
    }

    /// Whether rows enter through a Wrapper-polled source (`true`) or
    /// through `Server::push_at` (`false`).
    pub fn source_fed(&self) -> bool {
        self.kind != Kind::Ingest
    }

    pub fn schema(&self) -> Schema {
        let key_type = if self.kind == Kind::Ingest {
            DataType::Int
        } else {
            DataType::Str
        };
        let key_name = if self.kind == Kind::Ingest {
            "key"
        } else {
            "sym"
        };
        Schema::qualified(
            self.stream,
            vec![
                Field::new("seq", DataType::Int),
                Field::new(key_name, key_type),
                Field::new("price", DataType::Int),
                Field::new("qty", DataType::Int),
            ],
        )
    }

    /// The full server configuration. Every field is set here, so no
    /// `TCQ_*` environment variable can change what is measured.
    pub fn config(&self, archive_dir: &Path) -> Config {
        let (partitions, durability) = match self.kind {
            Kind::Ingest => (2, Durability::Buffered),
            Kind::Alerts | Kind::Windows => (1, Durability::Off),
        };
        Config {
            executor_threads: 1,
            buffer_pool_segments: 64,
            segment_tuples: 1024,
            archive_dir: Some(archive_dir.to_path_buf()),
            policy: PolicyKind::Lottery,
            batch_size: 256,
            result_buffer: 1024,
            input_queue: 4096,
            seed: 0x7e1e_6ca9,
            metrics: true,
            introspect_tick: None,
            shed_policy: ShedPolicy::Block,
            shed_high_frac: 0.875,
            shed_low_frac: 0.25,
            source_retry_max: 5,
            eo_batch_delay: None,
            partitions,
            columnar: true,
            durability,
            wal_segment_bytes: 4 << 20,
            checkpoint_bytes: 4 << 20,
            on_storage_error: OnStorageError::Degrade,
            mem_budget_bytes: None,
            mem_budget_stream_bytes: None,
            plan_sharing: true,
            consistency: Consistency::Watermark,
            step_mode: false,
        }
    }

    /// `n` input rows for one phase; `phase` separates the paced and
    /// flood draws of one seed.
    pub fn generate(&self, seed: u64, phase: u64, n: usize) -> Vec<Rec> {
        let mut rng = Rng::new(seed, 0x100 + phase);
        let zipf = (self.kind == Kind::Ingest).then(zipf_cdf);
        (0..n)
            .map(|i| {
                let key = match &zipf {
                    Some(cdf) => {
                        let u = rng.unit();
                        cdf.partition_point(|&c| c < u).min(ZIPF_KEYS - 1) as i64 + 1
                    }
                    None => rng.below(SYMS.len() as u64) as i64,
                };
                Rec {
                    seq: i as i64 + 1,
                    key,
                    price: rng.below(VALUE_RANGE as u64) as i64,
                    qty: rng.below(VALUE_RANGE as u64) as i64,
                }
            })
            .collect()
    }

    /// The engine-facing field values of a row.
    pub fn values(&self, r: &Rec) -> Vec<Value> {
        let key = if self.kind == Kind::Ingest {
            Value::Int(r.key)
        } else {
            Value::str(SYMS[r.key as usize])
        };
        vec![
            Value::Int(r.seq),
            key,
            Value::Int(r.price),
            Value::Int(r.qty),
        ]
    }

    pub fn tuple(&self, r: &Rec) -> Tuple {
        Tuple::new(self.values(r), Timestamp::logical(r.seq))
    }
}

fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (1..=ZIPF_KEYS)
        .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn pred_sql(p: Pred) -> String {
    match p {
        Pred::All => String::new(),
        Pred::PriceIn { lo, hi } => format!(" WHERE price >= {lo} AND price < {hi}"),
        Pred::PriceInAboveQty { lo, hi } => {
            format!(" WHERE price >= {lo} AND price < {hi} AND price > qty")
        }
        Pred::PriceAbove(x) => format!(" WHERE price > {x}"),
        Pred::KeyIs(k) => format!(" WHERE key = {k}"),
    }
}

fn col_sql(c: Col, kind_key: &str) -> String {
    match c {
        Col::Seq => "seq".into(),
        Col::Key => kind_key.into(),
        Col::Price => "price".into(),
        Col::Qty => "qty".into(),
    }
}

fn proj_sql(proj: &[Col], key: &str) -> String {
    proj.iter()
        .map(|&c| col_sql(c, key))
        .collect::<Vec<_>>()
        .join(", ")
}

fn window_sql(win: Win, aliases: &[&str]) -> String {
    let body: String = aliases
        .iter()
        .map(|a| format!("WindowIs({a}, t - {}, t); ", win.width - 1))
        .collect();
    format!(" for (t = {}; ; t += {}) {{ {body}}}", win.width, win.hop)
}

fn select(stream: &str, key: &str, pred: Pred, proj: Vec<Col>) -> Query {
    Query {
        sql: format!(
            "SELECT {} FROM {stream}{}",
            proj_sql(&proj, key),
            pred_sql(pred)
        ),
        spec: Spec::Select { pred, proj },
    }
}

/// 128 pure price ranges (CACQ grouped filters) and 128 ranges with a
/// `price > qty` residual, each matching ~1/128 of the rows after its
/// residual, plus one always-true tap: about two alerts per row.
fn alerts_queries(rng: &mut Rng) -> Vec<Query> {
    const PER_HALF: i64 = 128;
    let narrow = VALUE_RANGE / PER_HALF;
    let wide = 2 * narrow;
    let mut out = vec![select(
        "packets",
        "sym",
        Pred::All,
        vec![Col::Seq, Col::Key, Col::Price, Col::Qty],
    )];
    for _ in 0..PER_HALF {
        let lo = rng.below((VALUE_RANGE - narrow) as u64) as i64;
        out.push(select(
            "packets",
            "sym",
            Pred::PriceIn {
                lo,
                hi: lo + narrow,
            },
            vec![Col::Seq, Col::Price],
        ));
        let lo = rng.below((VALUE_RANGE - wide) as u64) as i64;
        out.push(select(
            "packets",
            "sym",
            Pred::PriceInAboveQty { lo, hi: lo + wide },
            vec![Col::Seq, Col::Qty],
        ));
    }
    out
}

fn agg_sql(a: Agg) -> String {
    match a {
        Agg::Count => "COUNT(*) AS n".into(),
        Agg::Sum(c) => format!("SUM({0}) AS sum_{0}", col_sql(c, "sym")),
        Agg::Min(c) => format!("MIN({0}) AS min_{0}", col_sql(c, "sym")),
        Agg::Max(c) => format!("MAX({0}) AS max_{0}", col_sql(c, "sym")),
        Agg::Avg(c) => format!("AVG({0}) AS avg_{0}", col_sql(c, "sym")),
    }
}

fn win_agg(stream: &str, key: &str, win: Win, pred: Pred, by_key: bool, aggs: Vec<Agg>) -> Query {
    let mut items: Vec<String> = Vec::new();
    if by_key {
        items.push(key.into());
    }
    items.extend(aggs.iter().map(|&a| agg_sql(a)));
    let group = if by_key {
        format!(" GROUP BY {key}")
    } else {
        String::new()
    };
    Query {
        sql: format!(
            "SELECT {} FROM {stream}{}{group}{}",
            items.join(", "),
            pred_sql(pred),
            window_sql(win, &[stream])
        ),
        spec: Spec::WinAgg {
            win,
            pred,
            by_key,
            aggs,
        },
    }
}

fn win_self_join(stream: &str, key: &str, win: Win) -> Query {
    Query {
        sql: format!(
            "SELECT a.seq, b.seq FROM {stream} a, {stream} b \
             WHERE a.{key} = b.{key} AND a.seq < b.seq{}",
            window_sql(win, &["a", "b"])
        ),
        spec: Spec::WinSelfJoin { win },
    }
}

/// Grouped AVG/MAX and a filtered COUNT/SUM over one wide hopping
/// window, a narrower MIN, a windowed self-join and an 8-member window
/// family that plan sharing folds into one scan.
fn windows_queries() -> Vec<Query> {
    let wide = Win {
        width: 1024,
        hop: 128,
    };
    let mut out = vec![
        win_agg(
            "quotes",
            "sym",
            wide,
            Pred::All,
            true,
            vec![Agg::Avg(Col::Price), Agg::Max(Col::Price)],
        ),
        win_agg(
            "quotes",
            "sym",
            wide,
            Pred::PriceAbove(VALUE_RANGE / 2),
            false,
            vec![Agg::Count, Agg::Sum(Col::Qty)],
        ),
        win_agg(
            "quotes",
            "sym",
            Win {
                width: 256,
                hop: 64,
            },
            Pred::All,
            false,
            vec![Agg::Min(Col::Price)],
        ),
        win_self_join("quotes", "sym", Win { width: 32, hop: 16 }),
    ];
    let family = Win {
        width: 512,
        hop: 256,
    };
    for i in 0..8 {
        let pred = Pred::PriceAbove(VALUE_RANGE * 9 / 10 + i * 1000);
        let proj = vec![Col::Seq, Col::Price];
        out.push(Query {
            sql: format!(
                "SELECT seq, price FROM quotes{}{}",
                pred_sql(pred),
                window_sql(family, &["quotes"])
            ),
            spec: Spec::WinSelect {
                win: family,
                pred,
                proj,
            },
        });
    }
    out
}

/// One tap and four selective key filters over the Zipf-skewed keys,
/// plus a light windowed tail: a per-key COUNT/MAX over 1024 rows and a
/// self-join over 64 rows, each evaluated once per 4096 rows. The tail
/// keeps the archive-scan, window-fold, eddy-join and SteM layers
/// measured on a gated workload while the write path stays the bulk of
/// the work.
fn ingest_queries() -> Vec<Query> {
    let mut out = vec![select(
        "events",
        "key",
        Pred::All,
        vec![Col::Seq, Col::Key, Col::Price, Col::Qty],
    )];
    for k in [3, 10, 30, 100] {
        out.push(select(
            "events",
            "key",
            Pred::KeyIs(k),
            vec![Col::Seq, Col::Price],
        ));
    }
    out.push(win_agg(
        "events",
        "key",
        Win {
            width: 1024,
            hop: 4096,
        },
        Pred::All,
        true,
        vec![Agg::Count, Agg::Max(Col::Price)],
    ));
    out.push(win_self_join(
        "events",
        "key",
        Win {
            width: 64,
            hop: 4096,
        },
    ));
    out
}
