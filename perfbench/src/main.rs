//! perfbench: the TelegraphCQ server benchmark.
//!
//! ```text
//! perfbench --workload <alerts|windows|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the workload's queries up several times, runs a paced
//! open loop at the workload's fixed rate, then floods a fixed number of
//! rows several times, checking every answer against an independent
//! computation. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! adds spans around the server calls and replays the same rows and
//! plans through each layer crate, and prints the per-layer metrics.
//! Lines starting with `#` are the human-readable report; the last line
//! is the machine-readable result.

mod live;
mod oracle;
mod stats;
mod sys;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use live::{Load, Phase, Scratch};
use oracle::Expected;
use stats::{median, quantile, LogHist};
use workload::{Kind, Workload};

/// Set-ups per run that `setup_s` is the median of. They run before
/// any phase, so each starts from the same process state; the phases'
/// own set-ups are printed but not counted.
const SETUP_REPS: usize = 60;
/// At least this many flood repetitions per untraced run.
const MIN_FLOODS: usize = 3;
const MAX_FLOODS: usize = 25;
/// Shares of `--seconds` for the paced phase and the floods.
const PACED_SHARE: f64 = 0.4;
const FLOOD_SHARE: f64 = 0.45;
/// Latency samples are grouped into segments of this many seconds of
/// due time; the latency metrics are medians of per-segment quantiles,
/// so a few host stalls do not decide a run.
const SEGMENT_SECS: f64 = 0.1;
/// A paced phase whose generator offered less than this share of the
/// stated rate is invalid.
const MIN_OFFERED_SHARE: f64 = 0.97;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(50),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The run's tally of attempts and failures over every phase.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    valid: bool,
}

impl Outcome {
    fn add(&mut self, p: &Phase) {
        self.attempted += p.tally.expected + p.pushes;
        self.failed += p.tally.failed() + p.push_errors + p.shed;
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_result(out: &Outcome, metrics: &[Metric]) {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            json_num(x.value),
            x.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        out.valid && out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
}

fn report_phase(label: &str, p: &Phase) {
    let t = &p.tally;
    println!(
        "# {label}: setup {:.4}s, rows expected {} ok {} missing {} extra {} wrong {}, \
         pushes {} push_errors {} shed {}, sets {} rows {}, elapsed {:.4}s, \
         server cpu {:.1}ms {:?}, client cpu {:.1}ms, mem peak {:.2}MB, eo queue depth max {}",
        p.setup_s,
        t.expected,
        t.ok,
        t.missing,
        t.extra,
        t.wrong,
        p.pushes,
        p.push_errors,
        p.shed,
        p.sets,
        p.rows_in,
        p.elapsed_s,
        p.server_cpu_ns() as f64 / 1e6,
        p.cpu,
        p.client_cpu_ns as f64 / 1e6,
        p.mem_peak_bytes as f64 / 1e6,
        p.depth_max,
    );
    if !p.failing_queries.is_empty() {
        println!(
            "# {label}: failures by query (index, count) {:?}",
            p.failing_queries
        );
    }
}

fn ms(ns: Option<f64>) -> f64 {
    ns.map_or(f64::NAN, |v| v / 1e6)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <alerts|windows|ingest> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = Workload::new(args.kind, args.seed);
    let scratch_dir = Path::new(".perfbench-tmp");
    let mut scratch = Scratch::new(scratch_dir);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} cores={} git={} rustc=\"{}\"",
        w.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::cores(),
        sys::git_rev(),
        sys::rustc()
    );
    println!("# config {:?}", w.config(&scratch_dir.join("<run>")));
    println!(
        "# queries {}, paced rate {} rows/s, flood {} rows",
        w.queries.len(),
        w.rate,
        w.flood_n
    );
    let (outcome, metrics) = if args.trace {
        trace::run(&w, &args, &mut scratch)
    } else {
        run_untraced(&w, &args, &mut scratch)
    };
    scratch.remove_all();
    print_result(&outcome, &metrics);
}

fn setups(w: &Workload, scratch: &mut Scratch, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let r = live::setup(w, scratch);
            let s = r.setup_s;
            r.stop();
            s
        })
        .collect()
}

/// Floods the same rows until the time budget is spent, at least
/// `min` times and at most `max` times.
fn floods(
    w: &Workload,
    scratch: &mut Scratch,
    rows: &[workload::Rec],
    exp: &Expected,
    budget: Duration,
    min: usize,
    max: usize,
) -> Vec<Phase> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed() < budget) {
        out.push(live::run_phase(w, scratch, rows, exp, Load::Flood, false));
    }
    out
}

fn run_untraced(w: &Workload, args: &Args, scratch: &mut Scratch) -> (Outcome, Vec<Metric>) {
    let secs = args.seconds as f64;
    let paced_rows = w.generate(args.seed, 1, (w.rate * secs * PACED_SHARE) as usize);
    let flood_rows = w.generate(args.seed, 2, w.flood_n);
    let paced_exp = Expected::compute(w, &paced_rows);
    let flood_exp = Expected::compute(w, &flood_rows);
    let mut outcome = Outcome {
        valid: true,
        ..Outcome::default()
    };

    let setup_s = setups(w, scratch, SETUP_REPS);
    let mut phase_setup_s = Vec::new();

    let paced = live::run_phase(
        w,
        scratch,
        &paced_rows,
        &paced_exp,
        Load::Paced {
            rate: w.rate,
            segment_secs: SEGMENT_SECS,
        },
        false,
    );
    report_phase("paced", &paced);
    outcome.add(&paced);
    phase_setup_s.push(paced.setup_s);
    let mut lat = LogHist::default();
    for seg in &paced.latency {
        lat.merge(seg);
    }
    let segments: Vec<&LogHist> = paced.latency.iter().filter(|h| h.count() > 0).collect();
    let seg_p50: Vec<f64> = segments.iter().map(|h| ms(h.quantile(0.5))).collect();
    let seg_p99: Vec<f64> = segments.iter().map(|h| ms(h.quantile(0.99))).collect();
    let offered_share = paced.offered_rate / w.rate;
    if offered_share < MIN_OFFERED_SHARE {
        outcome.valid = false;
        println!(
            "# INVALID: the generator offered {:.0} rows/s, under {:.0}% of the stated {} rows/s",
            paced.offered_rate,
            MIN_OFFERED_SHARE * 100.0,
            w.rate
        );
    }
    println!(
        "# paced latency over the whole phase: samples {}, p50 {:.4}ms, p99 {:.4}ms \
         ({} samples beyond), max {:.3}ms",
        lat.count(),
        ms(lat.quantile(0.5)),
        ms(lat.quantile(0.99)),
        lat.beyond(0.99),
        lat.max() as f64 / 1e6,
    );
    println!(
        "# paced latency per {SEGMENT_SECS}s segment: {} segments, min {} samples each; \
         p50 median {:.4} ms; p99 quartiles {:.4} / {:.4} / {:.4} ms, max {:.4} ms",
        segments.len(),
        segments.iter().map(|h| h.count()).min().unwrap_or(0),
        median(&seg_p50),
        quantile(&seg_p99, 0.25),
        quantile(&seg_p99, 0.5),
        quantile(&seg_p99, 0.75),
        quantile(&seg_p99, 1.0),
    );
    println!(
        "# generator lateness: p99 {:.4}ms, max {:.4}ms, offered {:.0} rows/s ({:.2}% of stated)",
        ms(paced.lateness.quantile(0.99)),
        paced.lateness.max() as f64 / 1e6,
        paced.offered_rate,
        offered_share * 100.0
    );

    let floods = floods(
        w,
        scratch,
        &flood_rows,
        &flood_exp,
        Duration::from_secs_f64(secs * FLOOD_SHARE),
        MIN_FLOODS,
        MAX_FLOODS,
    );
    let n = flood_rows.len() as f64;
    let mut tps = Vec::new();
    let mut cpu = Vec::new();
    let mut mem_floods = Vec::new();
    for (i, f) in floods.iter().enumerate() {
        report_phase(&format!("flood {i}"), f);
        outcome.add(f);
        phase_setup_s.push(f.setup_s);
        tps.push(n / f.elapsed_s);
        cpu.push(f.server_cpu_ns() as f64 / n);
        mem_floods.push(f.mem_peak_bytes as f64 / 1e6);
    }
    println!("# flood throughput tuples/s {tps:?}");
    println!("# flood cpu ns/tuple {cpu:?}");
    println!(
        "# mem peak MB: paced {:.3}, floods {mem_floods:.3?}",
        paced.mem_peak_bytes as f64 / 1e6
    );
    println!("# setup seconds {setup_s:?}; in phases {phase_setup_s:?}");
    println!(
        "# error_rate {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    // The paced p99 is printed above but is not a metric: on a shared
    // 2-core host its run-to-run spread (IQR/median 0.2-0.45 over five
    // runs, even as a median of 100 ms segments) exceeds any bound a
    // regression gate can use.
    let metrics = vec![
        metric("throughput_tps", median(&tps), "tuples/s"),
        metric("cpu_ns_per_tuple", median(&cpu), "ns"),
        metric("latency_p50_ms", median(&seg_p50), "ms"),
        metric("setup_s", median(&setup_s), "s"),
        metric("mem_peak_mb", paced.mem_peak_bytes as f64 / 1e6, "MB"),
    ];
    (outcome, metrics)
}
