//! The answer check.
//!
//! Expected answers are computed here in plain Rust from the generated
//! rows — comparisons, window sums, counts, min/max and join pairs — and
//! share no code with the engine: no `tcq_common::Expr`, no
//! `tcq_windows`, no planner. The engine's output is read only to
//! convert its `Value`s for comparison.
//!
//! Every expected row is an attempt. A row the engine never delivered is
//! missing, a delivered row the check cannot pair with an expected one
//! is extra, and a row whose key matches but whose values differ is
//! wrong; each counts as one failure. A result set the server shed
//! because the client lagged therefore shows up as missing rows.

use std::collections::BTreeMap;
use std::time::Instant;

use tcq::ResultSet;
use tcq_common::Value;

use crate::stats::LogHist;
use crate::workload::{Agg, Col, Pred, Rec, Spec, Win, Workload, SYMS};

/// A value as the check computes it.
#[derive(Debug, Clone, PartialEq)]
pub enum OVal {
    Int(i64),
    Float(f64),
    Str(&'static str),
}

impl OVal {
    fn from_engine(v: &Value) -> Option<OVal> {
        match v {
            Value::Int(i) => Some(OVal::Int(*i)),
            Value::Float(f) => Some(OVal::Float(*f)),
            Value::Str(s) => SYMS
                .iter()
                .find(|&&sym| sym == &**s)
                .map(|&sym| OVal::Str(sym)),
            _ => None,
        }
    }

    /// Integers and symbols compare exactly; a float compares to within
    /// a relative 1e-9, since the engine may sum in another order.
    fn matches(&self, other: &OVal) -> bool {
        match (self, other) {
            (OVal::Int(a), OVal::Int(b)) => a == b,
            (OVal::Str(a), OVal::Str(b)) => a == b,
            (OVal::Float(a), OVal::Float(b)) => (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            _ => false,
        }
    }
}

pub fn pred_holds(p: Pred, r: &Rec) -> bool {
    match p {
        Pred::All => true,
        Pred::PriceIn { lo, hi } => r.price >= lo && r.price < hi,
        Pred::PriceInAboveQty { lo, hi } => r.price >= lo && r.price < hi && r.price > r.qty,
        Pred::PriceAbove(x) => r.price > x,
        Pred::KeyIs(k) => r.key == k,
    }
}

fn col_val(c: Col, r: &Rec, key_is_sym: bool) -> OVal {
    match c {
        Col::Key if key_is_sym => OVal::Str(SYMS[r.key as usize]),
        _ => OVal::Int(c.of(r)),
    }
}

/// Expected answers of one query.
#[derive(Debug, Clone)]
pub enum QueryExpect {
    /// Indices (0-based) of the input rows that pass, in input order.
    Stream { matches: Vec<u32>, proj: Vec<Col> },
    /// One expected row set per window instant `first + i * hop`.
    Windowed {
        first: i64,
        hop: i64,
        sets: Vec<Vec<Vec<OVal>>>,
    },
}

/// Expected answers of every query of a workload over one phase's rows.
#[derive(Debug, Clone)]
pub struct Expected {
    pub queries: Vec<QueryExpect>,
    key_is_sym: bool,
}

impl Expected {
    pub fn compute(w: &Workload, rows: &[Rec]) -> Expected {
        let key_is_sym = w.source_fed();
        let last = rows.len() as i64;
        let queries = w
            .queries
            .iter()
            .map(|q| match &q.spec {
                Spec::Select { pred, proj } => QueryExpect::Stream {
                    matches: rows
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| pred_holds(*pred, r))
                        .map(|(i, _)| i as u32)
                        .collect(),
                    proj: proj.clone(),
                },
                Spec::WinSelect { win, pred, proj } => windowed(
                    *win,
                    last,
                    |window| {
                        window
                            .iter()
                            .filter(|r| pred_holds(*pred, r))
                            .map(|r| proj.iter().map(|&c| col_val(c, r, key_is_sym)).collect())
                            .collect()
                    },
                    rows,
                ),
                Spec::WinAgg {
                    win,
                    pred,
                    by_key,
                    aggs,
                } => windowed(
                    *win,
                    last,
                    |window| {
                        let passing: Vec<&Rec> =
                            window.iter().filter(|r| pred_holds(*pred, r)).collect();
                        if *by_key {
                            let mut groups: BTreeMap<i64, Vec<&Rec>> = BTreeMap::new();
                            for r in passing {
                                groups.entry(r.key).or_default().push(r);
                            }
                            groups
                                .values()
                                .map(|group| {
                                    let mut row = vec![col_val(Col::Key, group[0], key_is_sym)];
                                    row.extend(aggs.iter().map(|&a| fold(a, group)));
                                    row
                                })
                                .collect()
                        } else {
                            vec![aggs.iter().map(|&a| fold(a, &passing)).collect()]
                        }
                    },
                    rows,
                ),
                Spec::WinSelfJoin { win } => windowed(
                    *win,
                    last,
                    |window| {
                        let mut out = Vec::new();
                        for a in window {
                            for b in window {
                                if a.key == b.key && a.seq < b.seq {
                                    out.push(vec![OVal::Int(a.seq), OVal::Int(b.seq)]);
                                }
                            }
                        }
                        out
                    },
                    rows,
                ),
            })
            .collect();
        Expected {
            queries,
            key_is_sym,
        }
    }

    /// Expected result rows over all queries.
    pub fn rows(&self) -> u64 {
        self.queries
            .iter()
            .map(|q| match q {
                QueryExpect::Stream { matches, .. } => matches.len() as u64,
                QueryExpect::Windowed { sets, .. } => sets.iter().map(|s| s.len() as u64).sum(),
            })
            .sum()
    }
}

/// Rows are 1 tick apart from tick 1, so instant `t`'s window
/// `[t - width + 1, t]` is the slice `rows[t - width .. t]`.
fn windowed(
    win: Win,
    last: i64,
    eval: impl Fn(&[Rec]) -> Vec<Vec<OVal>>,
    rows: &[Rec],
) -> QueryExpect {
    QueryExpect::Windowed {
        first: win.width,
        hop: win.hop,
        sets: win
            .instants(last)
            .map(|t| eval(&rows[(t - win.width) as usize..t as usize]))
            .collect(),
    }
}

/// One aggregate over the rows of a window (or group). The server's
/// SQL types COUNT as an integer and every other aggregate as a float,
/// so the check does too; the sums themselves are exact integers here.
fn fold(a: Agg, rows: &[&Rec]) -> OVal {
    let vals = |c: Col| rows.iter().map(move |r| c.of(r));
    match a {
        Agg::Count => OVal::Int(rows.len() as i64),
        Agg::Sum(c) => OVal::Float(vals(c).sum::<i64>() as f64),
        Agg::Min(c) => OVal::Float(vals(c).min().unwrap_or(0) as f64),
        Agg::Max(c) => OVal::Float(vals(c).max().unwrap_or(0) as f64),
        Agg::Avg(c) => OVal::Float(vals(c).sum::<i64>() as f64 / rows.len().max(1) as f64),
    }
}

/// When rows were due: `base + (seq - 1) / rate`, for latency samples.
/// Samples are kept per segment of `segment_secs` of due time.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    pub base: Instant,
    pub rate: f64,
    pub segment_secs: f64,
}

impl Pacing {
    fn offset_secs(&self, seq: i64) -> f64 {
        (seq - 1) as f64 / self.rate
    }

    pub fn due(&self, seq: i64) -> Instant {
        self.base + std::time::Duration::from_secs_f64(self.offset_secs(seq))
    }

    fn segment(&self, seq: i64) -> usize {
        (self.offset_secs(seq) / self.segment_secs) as usize
    }
}

/// Outcome counts of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub expected: u64,
    pub ok: u64,
    pub missing: u64,
    pub extra: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.missing + self.extra + self.wrong
    }
}

/// Checks result sets as the client dequeues them.
pub struct Verifier<'a> {
    exp: &'a Expected,
    rows: &'a [Rec],
    pacing: Option<Pacing>,
    cursors: Vec<usize>,
    seen: Vec<Vec<bool>>,
    pub tally: Tally,
    /// Failures per query.
    pub failed_by_query: Vec<u64>,
    /// Result sets and rows dequeued.
    pub sets: u64,
    pub rows_in: u64,
    /// CPU time the client spent dequeuing and checking, ns.
    pub client_cpu_ns: u64,
    /// Dequeue time of the last row that checked out.
    pub last_ok: Option<Instant>,
    /// Due-to-dequeue latency of every correct row (paced phases), one
    /// histogram per pacing segment.
    pub latency: Vec<LogHist>,
}

impl<'a> Verifier<'a> {
    pub fn new(exp: &'a Expected, rows: &'a [Rec], pacing: Option<Pacing>) -> Verifier<'a> {
        let seen = exp
            .queries
            .iter()
            .map(|q| match q {
                QueryExpect::Stream { .. } => Vec::new(),
                QueryExpect::Windowed { sets, .. } => vec![false; sets.len()],
            })
            .collect();
        Verifier {
            exp,
            rows,
            pacing,
            cursors: vec![0; exp.queries.len()],
            seen,
            tally: Tally {
                expected: exp.rows(),
                ..Tally::default()
            },
            failed_by_query: vec![0; exp.queries.len()],
            sets: 0,
            rows_in: 0,
            client_cpu_ns: 0,
            last_ok: None,
            latency: Vec::new(),
        }
    }

    fn record_ok(&mut self, n: u64, seq: i64, at: Instant) {
        self.tally.ok += n;
        self.last_ok = Some(self.last_ok.map_or(at, |l| l.max(at)));
        if let Some(p) = self.pacing {
            let lat = at.saturating_duration_since(p.due(seq)).as_nanos() as u64;
            let seg = p.segment(seq);
            if self.latency.len() <= seg {
                self.latency.resize_with(seg + 1, LogHist::default);
            }
            self.latency[seg].record_n(lat, n);
        }
    }

    /// Check one result set of query `q`, dequeued at `at`.
    pub fn on_set(&mut self, q: usize, rs: &ResultSet, at: Instant) {
        let before = self.tally.failed();
        self.check_set(q, rs, at);
        self.failed_by_query[q] += self.tally.failed() - before;
    }

    fn check_set(&mut self, q: usize, rs: &ResultSet, at: Instant) {
        self.sets += 1;
        self.rows_in += rs.rows.len() as u64;
        match &self.exp.queries[q] {
            QueryExpect::Stream { matches, proj } => {
                for row in &rs.rows {
                    let Some(Value::Int(seq)) = row.fields().first() else {
                        self.tally.extra += 1;
                        continue;
                    };
                    let idx = seq - 1;
                    let cur = &mut self.cursors[q];
                    while *cur < matches.len() && (matches[*cur] as i64) < idx {
                        self.tally.missing += 1;
                        *cur += 1;
                    }
                    if *cur < matches.len() && matches[*cur] as i64 == idx {
                        *cur += 1;
                        let input = &self.rows[idx as usize];
                        let good = row.fields().len() == proj.len()
                            && row.fields().iter().zip(proj).all(|(v, &c)| {
                                OVal::from_engine(v).is_some_and(|o| {
                                    o.matches(&col_val(c, input, self.exp.key_is_sym))
                                })
                            });
                        if good {
                            self.record_ok(1, *seq, at);
                        } else {
                            self.tally.wrong += 1;
                        }
                    } else {
                        self.tally.extra += 1;
                    }
                }
            }
            QueryExpect::Windowed { first, hop, sets } => {
                let slot = rs
                    .window_t
                    .filter(|t| *t >= *first && (t - first) % hop == 0)
                    .map(|t| ((t - first) / hop) as usize)
                    .filter(|&i| i < sets.len() && !self.seen[q][i]);
                let Some(i) = slot else {
                    self.tally.extra += rs.rows.len() as u64;
                    return;
                };
                self.seen[q][i] = true;
                let expected = &sets[i];
                let mut paired = vec![false; expected.len()];
                let mut extra = 0u64;
                for row in &rs.rows {
                    let got: Option<Vec<OVal>> =
                        row.fields().iter().map(OVal::from_engine).collect();
                    let hit = got.and_then(|got| {
                        (0..expected.len()).find(|&j| {
                            !paired[j]
                                && expected[j].len() == got.len()
                                && expected[j].iter().zip(&got).all(|(e, g)| e.matches(g))
                        })
                    });
                    match hit {
                        Some(j) => paired[j] = true,
                        None => extra += 1,
                    }
                }
                let ok = paired.iter().filter(|&&p| p).count() as u64;
                let missing = expected.len() as u64 - ok;
                let wrong = missing.min(extra);
                self.tally.wrong += wrong;
                self.tally.missing += missing - wrong;
                self.tally.extra += extra - wrong;
                let t = rs.window_t.expect("slot implies an instant");
                self.record_ok(ok, t, at);
            }
        }
    }

    /// Close the phase: whatever was expected and never seen is missing.
    pub fn finish(&mut self) -> Tally {
        for (q, exp) in self.exp.queries.iter().enumerate() {
            match exp {
                QueryExpect::Stream { matches, .. } => {
                    let left = (matches.len() - self.cursors[q]) as u64;
                    self.tally.missing += left;
                    self.failed_by_query[q] += left;
                    self.cursors[q] = matches.len();
                }
                QueryExpect::Windowed { sets, .. } => {
                    for (i, set) in sets.iter().enumerate() {
                        if !self.seen[q][i] {
                            self.tally.missing += set.len() as u64;
                            self.failed_by_query[q] += set.len() as u64;
                            self.seen[q][i] = true;
                        }
                    }
                }
            }
        }
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{collect, Scratch};
    use crate::workload::Kind;

    fn check(exp: &Expected, rows: &[Rec], sets: &[(usize, ResultSet)]) -> Tally {
        let mut v = Verifier::new(exp, rows, None);
        let now = Instant::now();
        for (q, rs) in sets {
            v.on_set(*q, rs, now);
        }
        v.finish()
    }

    /// Runs each workload's queries on a small input through a real
    /// server: the check passes, and fails once the expectation is
    /// perturbed or a delivered set goes missing.
    #[test]
    fn check_passes_on_the_server_and_fails_when_perturbed() {
        for kind in [Kind::Alerts, Kind::Windows, Kind::Ingest] {
            let w = Workload::new(kind, 7);
            let rows = w.generate(7, 9, 3000);
            let exp = Expected::compute(&w, &rows);
            let mut scratch = Scratch::new(std::path::Path::new(".perfbench-tmp"));
            let sets = collect(&w, &mut scratch, &rows);
            scratch.remove_all();

            let clean = check(&exp, &rows, &sets);
            assert_eq!(clean.failed(), 0, "{kind:?}: {clean:?}");
            assert_eq!(clean.ok, clean.expected, "{kind:?}");
            assert!(clean.expected > 0, "{kind:?} expects rows");

            // One expected value off by one: a wrong row.
            let mut wrong = exp.clone();
            let bumped = wrong.queries.iter_mut().any(|q| match q {
                QueryExpect::Windowed { sets, .. } => sets
                    .iter_mut()
                    .flat_map(|s| s.iter_mut())
                    .flat_map(|r| r.iter_mut())
                    .find_map(|v| match v {
                        OVal::Int(i) => {
                            *i += 1;
                            Some(())
                        }
                        OVal::Float(f) => {
                            *f += 1.0;
                            Some(())
                        }
                        OVal::Str(_) => None,
                    })
                    .is_some(),
                QueryExpect::Stream { matches, .. } => {
                    // Expect a row that does not pass instead of one that
                    // does: one missing and one extra.
                    matches.first_mut().map(|m| *m += 1).is_some()
                        && matches.windows(2).all(|p| p[0] < p[1])
                }
            });
            assert!(bumped, "{kind:?}: something to perturb");
            assert!(
                check(&wrong, &rows, &sets).failed() > 0,
                "{kind:?}: perturbed"
            );

            // A result set the client never saw (egress shedding).
            let shed: Vec<(usize, ResultSet)> = sets
                .iter()
                .filter(|(_, rs)| !rs.rows.is_empty())
                .skip(1)
                .cloned()
                .collect();
            let t = check(&exp, &rows, &shed);
            assert!(t.missing > 0, "{kind:?}: a shed set is missing rows");
        }
    }

    #[test]
    fn predicates_and_folds_match_hand_computed_values() {
        let r = Rec {
            seq: 1,
            key: 2,
            price: 500,
            qty: 400,
        };
        assert!(pred_holds(Pred::PriceIn { lo: 500, hi: 501 }, &r));
        assert!(!pred_holds(Pred::PriceIn { lo: 501, hi: 600 }, &r));
        assert!(pred_holds(Pred::PriceInAboveQty { lo: 0, hi: 1000 }, &r));
        assert!(!pred_holds(Pred::KeyIs(3), &r));
        let s = Rec { price: 100, ..r };
        let rows = [&r, &s];
        assert_eq!(fold(Agg::Count, &rows), OVal::Int(2));
        assert_eq!(fold(Agg::Sum(Col::Price), &rows), OVal::Float(600.0));
        assert_eq!(fold(Agg::Min(Col::Price), &rows), OVal::Float(100.0));
        assert_eq!(fold(Agg::Avg(Col::Price), &rows), OVal::Float(300.0));
    }
}
