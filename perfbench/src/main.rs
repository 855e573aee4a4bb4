//! The repository benchmark: one command, three workloads, every metric
//! printed by name and unit, answers checked in the same run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-opt|fixpoint|serve-mixed --seed <n> --seconds <s> --trace 0|1 [--record]
//! ```
//!
//! * `paper-opt` runs the paper's programs through the `xdl run` pipeline
//!   (parse, optimize, evaluate, render); parsing and the optimizer carry
//!   most of the time.
//! * `fixpoint` runs the same pipeline on recursive queries that need every
//!   column, where evaluation carries most of the time.
//! * `serve-mixed` serves an org chart from `Server::spawn` with the WAL on,
//!   under an open-loop FACT writer and a closed-loop query reader.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer ones, with the benchmark's spans around each call into a
//! crate, the evaluator's profile on and one `METRICS JSON` scrape. A
//! traced run alternates traced and untraced slices and reports the
//! difference as the tracing overhead. Every run also prints the exact
//! optimizer, engine and storage counts at the record seed and how many of
//! them drifted from `record.json`; `--record` rewrites those.
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and the metrics. The lines before it are a readable table and
//! a `report` JSON line with the run's metadata. A failed output check
//! exits with code 1.

mod batch;
mod calib;
mod inputs;
mod jsonread;
mod loadgen;
mod metrics;
mod procfs;
mod record;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use datalog_trace::Json;

use crate::metrics::{Values, E2E, EXTRA, PER_LAYER};
use crate::stats::{Groups, Sample};
use crate::trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["paper-opt", "fixpoint", "serve-mixed"];

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub record: bool,
    /// Evaluation threads: the machine's parallelism.
    pub threads: usize,
    pub origin: Instant,
}

fn parse_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut record) = (None, None, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        record,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        origin: Instant::now(),
    })
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub values: Values,
    /// End-to-end values before scaling to the reference host speed.
    pub raw: Values,
    pub meta: Json,
    pub overhead: Json,
    pub counters: BTreeMap<String, u64>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn new(args: &RunArgs) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            values: Values::default(),
            raw: Values::default(),
            meta: Json::obj(),
            overhead: Json::obj(),
            counters: BTreeMap::new(),
            tracer: Tracer::new(false, args.origin),
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    /// `setup_s`: the median set-up, at reference host speed.
    pub fn set_setup(&mut self, setup: &Sample, scale: f64) {
        self.values.set("setup_s", setup.pct(50.0) * scale);
        self.raw.set("setup_s", setup.pct(50.0));
        self.meta.set("setup_repeats", setup.len() as u64);
    }

    /// The end-to-end metrics of the untraced operations.
    pub fn set_e2e(&mut self, scaled: &E2e, raw: &E2e, tails: Tails) {
        scaled.values(tails, &mut self.values);
        raw.values(tails, &mut self.raw);
        self.meta.set("samples", scaled.describe(tails));
    }

    /// Tracing overhead: each end-to-end metric of the traced operations
    /// minus the same metric of the untraced ones.
    pub fn set_overhead(&mut self, traced: &E2e, tails: Tails) {
        let mut tv = Values::default();
        traced.values(tails, &mut tv);
        for (name, _) in E2E {
            if let (Some(t), Some(p)) = (tv.get(name), self.values.get(name)) {
                self.overhead.set(name, t - p);
            }
        }
    }

    pub fn set_host_speed(&mut self, speed: &calib::HostSpeed) {
        let (lo, hi) = speed.range_ms();
        self.meta.set(
            "host_speed",
            Json::obj()
                .with("kernel_reference_ms", calib::REFERENCE_MS)
                .with("kernel_median_ms", speed.median_ms())
                .with("kernel_min_ms", lo)
                .with("kernel_max_ms", hi)
                .with("samples", speed.len() as u64),
        );
    }
}

/// The percentile each `.tail` metric reports, within each group.
#[derive(Debug, Clone, Copy)]
pub struct Tails {
    pub query: f64,
    pub fact: f64,
}

impl Tails {
    pub const fn same(p: f64) -> Tails {
        Tails { query: p, fact: p }
    }
}

/// End-to-end samples of one side of a run (traced or untraced
/// operations, scaled or raw).
#[derive(Default)]
pub struct E2e {
    pub pass_ms: Sample,
    pub query_ms: Groups,
    pub fact_ms: Groups,
    /// Queries answered, over `wall_s` seconds of passes.
    pub ops: u64,
    pub wall_s: f64,
}

impl E2e {
    pub fn values(&self, tails: Tails, v: &mut Values) {
        v.set("pass_ms.p50", self.pass_ms.pct(50.0));
        v.set("query_ms.p50", self.query_ms.pooled_pct(50.0));
        v.set("query_ms.tail", self.query_ms.tail(tails.query));
        v.set("queries_per_s", self.ops as f64 / self.wall_s);
        v.set("fact_ms.p50", self.fact_ms.pooled_pct(50.0));
        v.set("fact_ms.tail", self.fact_ms.tail(tails.fact));
        if stats::tail_level(self.pass_ms.len(), 90.0) == Some(90.0) {
            v.set("pass_ms.p90", self.pass_ms.pct(90.0));
        }
        if tails.fact < 99.0 && stats::tail_level(self.fact_ms.min_group_len(), 99.0) == Some(99.0)
        {
            v.set("fact_ms.p99", self.fact_ms.tail(99.0));
        }
    }

    /// Sample count, tail percentile and samples beyond it, per timing;
    /// for a grouped timing, beyond the tail of its smallest group.
    pub fn describe(&self, tails: Tails) -> Json {
        let one = |samples: usize, smallest: usize, p: f64| {
            Json::obj()
                .with("samples", samples as u64)
                .with("tail_percentile", p)
                .with("beyond_tail", stats::beyond(smallest, p) as u64)
                .with("tail_supported", stats::tail_level(smallest, p) == Some(p))
        };
        let groups = |g: &Groups, p: f64| one(g.len(), g.min_group_len(), p);
        Json::obj()
            .with("pass_ms", one(self.pass_ms.len(), self.pass_ms.len(), 90.0))
            .with("query_ms", groups(&self.query_ms, tails.query))
            .with("fact_ms", groups(&self.fact_ms, tails.fact))
    }
}

/// FNV-1a, 64-bit: answer digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Scratch space for WAL directories and trace files, inside the checkout.
pub fn work_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// The checkout's commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
                    .ok_or(std::io::ErrorKind::NotFound.into())
            })
            .unwrap_or_else(|_: std::io::Error| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Every measured, finite value with its unit.
fn values_json(values: &Values) -> Json {
    let mut all = Json::obj();
    for (name, unit) in E2E.iter().chain(PER_LAYER).chain(EXTRA) {
        if let Some(v) = values.get(name).filter(|v| v.is_finite()) {
            all.set(name, Json::obj().with("value", v).with("unit", *unit));
        }
    }
    all
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu_start = procfs::cpu_ticks();
    let mut out = match args.workload.as_str() {
        "paper-opt" => batch::run(&args, inputs::paper_deck, Tails::same(95.0)),
        "fixpoint" => batch::run(&args, inputs::fixpoint_deck, Tails::same(75.0)),
        _ => serve::run(&args),
    };
    let wall_s = args.origin.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_ticks().saturating_sub(cpu_start) as f64 / procfs::TICKS_PER_SEC;

    // Deterministic counter block and its drift from the record.
    let drift = record::recorded(&args.workload).map(|rec| record::drift(&rec, &out.counters));
    println!("counters (seed {}):", record::RECORD_SEED);
    for (k, v) in &out.counters {
        println!("  {k:<40} {v}");
    }
    match &drift {
        Some(d) if d.is_empty() => println!(
            "counter drift: 0 of {} (matches record.json)",
            out.counters.len()
        ),
        Some(d) => println!(
            "counter drift: {} of {}: {}",
            d.len(),
            out.counters.len(),
            d.join(", ")
        ),
        None => println!("counter drift: no record for {}", args.workload),
    }

    // Which metrics this run owes the final line.
    let declared: &[(&str, &str)] = if args.trace { PER_LAYER } else { E2E };
    let mut final_metrics = Json::obj();
    for (name, unit) in declared {
        let v = match out.values.get(name) {
            Some(v) if v.is_finite() => v,
            // A layer this workload does not reach reads 0.
            None if args.trace => 0.0,
            _ => {
                out.fail(format!("metric {name} was not measured"));
                continue;
            }
        };
        final_metrics.set(name, Json::obj().with("value", v).with("unit", *unit));
    }
    println!(
        "metrics ({}; end-to-end times at reference host speed, raw beside):",
        if args.trace { "traced" } else { "untraced" }
    );
    for (name, unit) in E2E.iter().chain(PER_LAYER).chain(EXTRA) {
        if let Some(v) = out.values.get(name) {
            match out.raw.get(name) {
                Some(r) => println!("  {name:<34} {v:>16.6} {unit:<6} raw {r:.6}"),
                None => println!("  {name:<34} {v:>16.6} {unit}"),
            }
        }
    }
    if args.trace {
        let path = work_dir()
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match out.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                out.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let all = values_json(&out.values);
    let report = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("nproc", args.threads as u64)
        .with("eval_threads", args.threads as u64)
        .with("commit", commit())
        .with("rustc", env!("PERFBENCH_RUSTC"))
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .with("duration_s", wall_s)
        .with(
            "process_cpu_util",
            metrics::share(cpu_s, wall_s * args.threads as f64),
        )
        .with(
            "error_rate",
            metrics::share(out.failed as f64, out.attempted as f64),
        )
        .with(
            "errors",
            Json::Arr(out.errors.iter().map(|e| Json::from(e.as_str())).collect()),
        )
        .with(
            "counter_drift",
            drift
                .as_ref()
                .map_or(Json::Null, |d| Json::UInt(d.len() as u64)),
        )
        .with("trace_overhead", out.overhead.clone())
        .with("raw_e2e", values_json(&out.raw))
        .with("run", out.meta.clone())
        .with("metrics", all);
    println!("report {report}");

    if args.record {
        let layers = args
            .trace
            .then(|| report.get("metrics").cloned().unwrap_or(Json::Null));
        if let Err(e) = record::write(&args.workload, &out.counters, layers) {
            eprintln!("perfbench: cannot write {}: {e}", record::path().display());
        }
    }

    let correct = out.failed == 0;
    let last = Json::obj()
        .with("correct", correct)
        .with("attempted", out.attempted.max(1))
        .with("failed", out.failed)
        .with("metrics", final_metrics);
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload fixpoint --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fixpoint", 7, 20.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload fixpoint --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fixpoint --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
