//! The `paper-opt` and `fixpoint` workloads: a deck of programs, each run
//! through the `xdl run` pipeline (parse, optimize, evaluate, render) once
//! per pass, for as many passes as fit in the run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use datalog_ast::{parse_program, Program};
use datalog_engine::{
    query_answers, query_answers_full, storage_counters, take_consolidation_ns, EvalOptions,
    EvalStats, StorageCounters,
};
use datalog_opt::{optimize, OptimizerConfig};
use datalog_server::render_answers;
use datalog_trace::Json;

use crate::calib::HostSpeed;
use crate::inputs::Entry;
use crate::metrics::{share, Values};
use crate::stats::Sample;
use crate::trace::Tracer;
use crate::{fnv64, E2e, Outcome, RunArgs, Tails};

/// What one program's pipeline produced, beyond its timings.
struct Answer {
    digest: u64,
    bytes: usize,
    rules: (usize, usize),
    idb_arity: (usize, usize),
    stats: EvalStats,
    /// Σ enumeration ns, Σ merge ns, Σ iteration wall ns, tasks per iteration.
    timeline: Option<(u64, u64, u64, Vec<u64>)>,
}

/// Stage boundaries of one program run.
struct Stamps([Instant; 5]);

impl Stamps {
    fn ms(&self, from: usize, to: usize) -> f64 {
        (self.0[to] - self.0[from]).as_secs_f64() * 1e3
    }
}

/// Σ arity of the program's derived predicates.
fn idb_arity(p: &Program) -> usize {
    let arities = p.arities().unwrap_or_default();
    p.idb_preds().iter().filter_map(|q| arities.get(q)).sum()
}

/// Run one program through the `xdl run` pipeline: parse the text and read
/// its facts, optimize, evaluate with the §3.1 cut on, render.
fn pipeline(
    entry: &Entry,
    threads: usize,
    profile: bool,
    tracer: &mut Tracer,
    parent: Option<crate::trace::SpanId>,
    req: u64,
) -> Result<(Stamps, Answer), String> {
    let t0 = Instant::now();
    let span = tracer.begin("parse", parent, req);
    let parsed = parse_program(&entry.text).map_err(|e| e.to_string())?;
    parsed.program.validate().map_err(|e| e.to_string())?;
    let facts = datalog_engine::FactSet::from_parsed(&parsed.facts);
    tracer.end(span);
    let t1 = Instant::now();
    let span = tracer.begin("optimize", parent, req);
    let opt = optimize(&parsed.program, &OptimizerConfig::default()).map_err(|e| e.to_string())?;
    tracer.end(span);
    let t2 = Instant::now();
    let opts = EvalOptions {
        boolean_cut: true,
        threads,
        profile,
        ..EvalOptions::default()
    };
    let span = tracer.begin("eval", parent, req);
    let (answers, out) =
        query_answers_full(&opt.program, &facts, &opts).map_err(|e| e.to_string())?;
    tracer.end(span);
    let t3 = Instant::now();
    let span = tracer.begin("render", parent, req);
    let text = black_box(render_answers(&answers));
    tracer.end(span);
    let t4 = Instant::now();
    let timeline = out.profile.as_ref().map(|p| {
        p.timeline
            .iter()
            .fold((0, 0, 0, Vec::new()), |(e, m, w, mut tasks), it| {
                tasks.push(it.tasks);
                (e + it.parallel_ns, m + it.merge_ns, w + it.wall_ns, tasks)
            })
    });
    let answer = Answer {
        digest: fnv64(text.as_bytes()),
        bytes: text.len(),
        rules: (opt.report.rules_before, opt.report.rules_after),
        idb_arity: (idb_arity(&parsed.program), idb_arity(&opt.program)),
        stats: out.stats,
        timeline,
    };
    Ok((Stamps([t0, t1, t2, t3, t4]), answer))
}

/// Digest of the serial, unoptimized reference answers: the program as
/// written, one thread, no cut.
fn reference_digest(entry: &Entry) -> Result<u64, String> {
    let parsed = parse_program(&entry.text).map_err(|e| e.to_string())?;
    let facts = datalog_engine::FactSet::from_parsed(&parsed.facts);
    let (answers, _) = query_answers(&parsed.program, &facts, &EvalOptions::default())
        .map_err(|e| e.to_string())?;
    Ok(fnv64(render_answers(&answers).as_bytes()))
}

fn storage_delta(before: StorageCounters, after: StorageCounters) -> StorageCounters {
    StorageCounters {
        bloom_probes: after.bloom_probes - before.bloom_probes,
        bloom_skips: after.bloom_skips - before.bloom_skips,
        consolidations: after.consolidations - before.consolidations,
        index_rebuilds: after.index_rebuilds - before.index_rebuilds,
    }
}

/// The exact counts one pass over the deck produces: optimizer, engine and
/// storage. They do not depend on timing or thread count.
pub fn counter_block(deck: &[Entry], threads: usize) -> Result<BTreeMap<String, u64>, String> {
    let mut block = BTreeMap::new();
    let mut off = Tracer::new(false, Instant::now());
    for e in deck {
        let before = storage_counters();
        let (_, a) = pipeline(e, threads, true, &mut off, None, 0)?;
        let s = storage_delta(before, storage_counters());
        let st = a.stats;
        let tasks = a.timeline.map(|t| t.3).unwrap_or_default();
        for (k, v) in [
            ("rules_before", a.rules.0 as u64),
            ("rules_after", a.rules.1 as u64),
            ("idb_arity_before", a.idb_arity.0 as u64),
            ("idb_arity_after", a.idb_arity.1 as u64),
            ("iterations", st.iterations as u64),
            ("facts_derived", st.facts_derived),
            ("derivations", st.derivations),
            ("duplicates", st.duplicates),
            ("tuples_scanned", st.tuples_scanned),
            ("index_probes", st.index_probes),
            ("rules_retired", st.rules_retired),
            ("tasks", tasks.iter().sum()),
            (
                "tasks_per_iter_max",
                tasks.iter().copied().max().unwrap_or(0),
            ),
            ("answer_bytes", a.bytes as u64),
            ("bloom_probes", s.bloom_probes),
            ("bloom_skips", s.bloom_skips),
            ("consolidations", s.consolidations),
            ("index_rebuilds", s.index_rebuilds),
        ] {
            block.insert(format!("{}.{k}", e.name), v);
        }
    }
    Ok(block)
}

/// Per-layer sums over the traced passes.
#[derive(Default)]
struct Layers {
    passes: u64,
    pass_ms: f64,
    stage_ms: [f64; 4],
    parsed_bytes: usize,
    enum_ns: u64,
    merge_ns: u64,
    iter_ns: u64,
    tasks: Vec<u64>,
    rules: (usize, usize),
    idb_arity: (usize, usize),
    stats: EvalStats,
    render_bytes: usize,
    storage: Option<StorageCounters>,
    consolidation_ns: u64,
}

/// One timed pass: when it started, whether it was traced, and each
/// program's deck index, full-pipeline and fact-loading times.
struct PassRec {
    at: Instant,
    traced: bool,
    programs: Vec<(usize, f64, f64)>,
    wall_s: f64,
}

/// End-to-end samples of the traced or untraced passes, each time scaled
/// by `scale` (host speed, or 1 for raw times).
fn e2e(recs: &[PassRec], traced: bool, scale: impl Fn(Instant) -> f64) -> E2e {
    let mut e = E2e::default();
    for r in recs.iter().filter(|r| r.traced == traced) {
        let k = scale(r.at);
        e.pass_ms
            .push(r.programs.iter().map(|p| p.1).sum::<f64>() * k);
        for &(program, q, f) in &r.programs {
            e.query_ms.push(program, q * k);
            e.fact_ms.push(program, f * k);
        }
        e.ops += r.programs.len() as u64;
        e.wall_s += r.wall_s * k;
    }
    e
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// `peak_rss_mib` is read after this many timed passes: set-up, warm-up
/// and one pass, the memory one `xdl run` of each program needs. Later
/// passes would add memory that grows per pass (fresh symbols stay
/// interned), so the figure would grow with host speed and run length.
const RSS_AFTER_PASSES: u64 = 1;

pub fn run(args: &RunArgs, make_deck: fn(u64) -> Vec<Entry>, tails: Tails) -> Outcome {
    let mut out = Outcome::new(args);
    let threads = args.threads;

    // Set-up: generate the seeded deck, several times; keep the last.
    let mut speed = HostSpeed::default();
    speed.sample_n(5);
    let mut setup = Sample::default();
    let mut deck = Vec::new();
    let setup_at = Instant::now();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        deck = black_box(make_deck(args.seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    speed.sample_n(5);
    out.set_setup(&setup, speed.scale_at(setup_at));
    out.meta.set(
        "deck",
        Json::Arr(
            deck.iter()
                .map(|e| {
                    Json::obj()
                        .with("name", e.name)
                        .with("text_bytes", e.text.len() as u64)
                })
                .collect(),
        ),
    );

    // Warm-up pass: not timed, but its answers are checked like the rest.
    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); deck.len()];
    let mut off = Tracer::new(false, args.origin);
    for (i, e) in deck.iter().enumerate() {
        out.attempted += 1;
        match pipeline(e, threads, false, &mut off, None, 0) {
            Ok((_, a)) => digests[i].push(a.digest),
            Err(err) => out.fail(format!("{}: warm-up: {err}", e.name)),
        }
    }

    // Timed passes. In a traced run every second pass is traced, so the
    // same run yields both sides of the tracing overhead.
    let mut tracer = Tracer::new(args.trace, args.origin);
    let mut recs: Vec<PassRec> = Vec::new();
    let mut layers = Layers::default();
    take_consolidation_ns();
    let start = Instant::now();
    let mut pass: u64 = 0;
    let mut peak_rss = None;
    while start.elapsed().as_secs_f64() < args.seconds || pass == 0 {
        let trace_this = args.trace && pass % 2 == 1;
        let mut no_trace = Tracer::new(false, args.origin);
        let tr = if trace_this {
            &mut tracer
        } else {
            &mut no_trace
        };
        let pass_started = Instant::now();
        let storage_before = trace_this.then(storage_counters);
        let pass_span = tr.begin("pass", None, pass);
        let mut pass_ms = 0.0;
        let mut results = Vec::with_capacity(deck.len());
        for e in &deck {
            let span = tr.begin("program", pass_span, pass);
            let r = pipeline(e, threads, trace_this, tr, span, pass);
            tr.end(span);
            results.push(r);
        }
        tr.end(pass_span);
        let wall_s = pass_started.elapsed().as_secs_f64();
        speed.sample();
        let mut rec = PassRec {
            at: pass_started,
            traced: trace_this,
            programs: Vec::with_capacity(deck.len()),
            wall_s,
        };
        // Bookkeeping and checks below are outside every timed interval.
        for (i, (e, r)) in deck.iter().zip(results).enumerate() {
            out.attempted += 1;
            let (stamps, a) = match r {
                Ok(ok) => ok,
                Err(err) => {
                    out.fail(format!("{}: pass {pass}: {err}", e.name));
                    continue;
                }
            };
            digests[i].push(a.digest);
            let q = stamps.ms(0, 4);
            pass_ms += q;
            rec.programs.push((i, q, stamps.ms(0, 1)));
            if trace_this {
                for (k, stage) in layers.stage_ms.iter_mut().enumerate() {
                    *stage += stamps.ms(k, k + 1);
                }
                layers.parsed_bytes += e.text.len();
                layers.rules.0 += a.rules.0;
                layers.rules.1 += a.rules.1;
                layers.idb_arity.0 += a.idb_arity.0;
                layers.idb_arity.1 += a.idb_arity.1;
                layers.stats += a.stats;
                layers.render_bytes += a.bytes;
                if let Some((en, me, it, tasks)) = a.timeline {
                    layers.enum_ns += en;
                    layers.merge_ns += me;
                    layers.iter_ns += it;
                    layers.tasks.extend(tasks);
                }
            }
        }
        recs.push(rec);
        if let Some(before) = storage_before {
            let d = storage_delta(before, storage_counters());
            let acc = layers.storage.get_or_insert_with(StorageCounters::default);
            acc.bloom_probes += d.bloom_probes;
            acc.bloom_skips += d.bloom_skips;
            acc.consolidations += d.consolidations;
            acc.index_rebuilds += d.index_rebuilds;
            layers.consolidation_ns += take_consolidation_ns().iter().sum::<u64>();
            layers.passes += 1;
            layers.pass_ms += pass_ms;
        } else {
            take_consolidation_ns();
        }
        pass += 1;
        if pass == RSS_AFTER_PASSES {
            peak_rss = crate::procfs::peak_rss_mib();
        }
    }
    if let Some(rss) = peak_rss.or_else(crate::procfs::peak_rss_mib) {
        out.values.set("peak_rss_mib", rss);
    }
    out.meta.set("measured_s", start.elapsed().as_secs_f64());
    out.meta.set("passes", pass);

    let at_speed = |t| speed.scale_at(t);
    out.set_e2e(
        &e2e(&recs, false, at_speed),
        &e2e(&recs, false, |_| 1.0),
        tails,
    );
    out.set_host_speed(&speed);
    if args.trace {
        out.set_overhead(&e2e(&recs, true, at_speed), tails);
        layer_values(&layers, &tracer, threads, &mut out.values);
    }
    out.tracer = tracer;

    // Output checks: every pass's answers against the serial, unoptimized
    // reference on the same facts.
    for (e, seen) in deck.iter().zip(&digests) {
        out.attempted += 1;
        match reference_digest(e) {
            Ok(want) => {
                let wrong = seen.iter().filter(|&&d| d != want).count();
                if wrong > 0 {
                    out.fail(format!(
                        "{}: {wrong} of {} passes differ from the reference",
                        e.name,
                        seen.len()
                    ));
                }
            }
            Err(err) => out.fail(format!("{}: reference: {err}", e.name)),
        }
    }
    match counter_block(&make_deck(crate::record::RECORD_SEED), threads) {
        Ok(block) => out.counters = block,
        Err(err) => out.fail(format!("counter block: {err}")),
    }
    out
}

fn layer_values(l: &Layers, tracer: &Tracer, threads: usize, v: &mut Values) {
    let n = l.passes.max(1) as f64;
    let [parse_ms, opt_ms, eval_ms, render_ms] = l.stage_ms;
    v.set("parser.ms", parse_ms / n);
    v.set("opt.ms", opt_ms / n);
    v.set("eval.ms", eval_ms / n);
    v.set("render.ms", render_ms / n);
    v.set("parser.share", share(parse_ms, l.pass_ms));
    v.set("opt.share", share(opt_ms, l.pass_ms));
    v.set("eval.share", share(eval_ms, l.pass_ms));
    v.set("render.share", share(render_ms, l.pass_ms));
    v.set(
        "parser.mb_per_s",
        share(l.parsed_bytes as f64 / 1e6, parse_ms / 1e3),
    );
    v.set("opt.rules_before", l.rules.0 as f64 / n);
    v.set("opt.rules_after", l.rules.1 as f64 / n);
    v.set("opt.idb_arity_before", l.idb_arity.0 as f64 / n);
    v.set("opt.idb_arity_after", l.idb_arity.1 as f64 / n);
    let (eval_span_ms, eval_ticks) = tracer.total("eval");
    let eval_cpu_s = eval_ticks as f64 / crate::procfs::TICKS_PER_SEC;
    v.set(
        "eval.cpu_util",
        share(eval_cpu_s, eval_span_ms / 1e3 * threads as f64),
    );
    let (enum_ms, merge_ms, iter_ms) = (
        l.enum_ns as f64 / 1e6,
        l.merge_ns as f64 / 1e6,
        l.iter_ns as f64 / 1e6,
    );
    let outside_ms = (eval_ms - iter_ms).max(0.0);
    v.set("eval.enum_ms", enum_ms / n);
    v.set("eval.merge_ms", merge_ms / n);
    v.set("eval.outside_iter_ms", outside_ms / n);
    v.set("eval.enum_share", share(enum_ms, eval_ms));
    v.set("eval.merge_share", share(merge_ms, eval_ms));
    v.set("eval.outside_iter_share", share(outside_ms, eval_ms));
    let tasks = &l.tasks;
    v.set(
        "eval.tasks_per_iter.max",
        tasks.iter().copied().max().unwrap_or(0) as f64,
    );
    v.set(
        "eval.tasks_per_iter.mean",
        share(tasks.iter().sum::<u64>() as f64, tasks.len() as f64),
    );
    let s = &l.stats;
    v.set("eval.iterations", tasks.len() as f64 / n);
    v.set("eval.facts_derived", s.facts_derived as f64 / n);
    v.set("eval.derivations", s.derivations as f64 / n);
    v.set("eval.duplicates", s.duplicates as f64 / n);
    v.set(
        "eval.useful_ratio",
        share(s.facts_derived as f64, s.derivations as f64),
    );
    v.set("eval.tuples_scanned", s.tuples_scanned as f64 / n);
    v.set("eval.index_probes", s.index_probes as f64 / n);
    let st = l.storage.unwrap_or_default();
    v.set("storage.bloom_probes", st.bloom_probes as f64 / n);
    v.set(
        "storage.bloom_skip_ratio",
        share(st.bloom_skips as f64, st.bloom_probes as f64),
    );
    v.set("storage.consolidations", st.consolidations as f64 / n);
    v.set("storage.index_rebuilds", st.index_rebuilds as f64 / n);
    v.set(
        "storage.consolidation_ms",
        l.consolidation_ns as f64 / 1e6 / n,
    );
    v.set("render.bytes", l.render_bytes as f64 / n);
}
