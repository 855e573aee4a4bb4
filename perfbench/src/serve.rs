//! The `serve-mixed` workload: `Server::spawn` with the WAL on, an org
//! chart LOADed, one open-loop writer sending `FACT reports(m, new).` at a
//! fixed rate and one closed-loop reader sending fresh `above` queries.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datalog_ast::parse_program;
use datalog_engine::{
    query_answers, storage_counters, take_consolidation_ns, EvalOptions, FactSet,
};
use datalog_server::{
    render_answers, Client, FsyncPolicy, Request, Response, Server, ServerConfig, ServerState,
};
use datalog_trace::Json;

use crate::calib::HostSpeed;
use crate::inputs::{self, Org, Rng, Skewed};
use crate::loadgen::{OpenLoop, Timing};
use crate::metrics::share;
use crate::stats::Sample;
use crate::trace::Tracer;
use crate::{E2e, Outcome, RunArgs, Tails};

/// FACTs per second the writer schedules; well below saturation.
pub const WRITE_RATE: f64 = 50.0;
/// WAL records between compactions: several compactions per run.
pub const COMPACT_EVERY: u64 = 200;
/// `--fsync batch`.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(64);
/// Reader queries per pass: three `above(m, Y)`, then one `above(X, m)`.
pub const PASS_QUERIES: usize = 4;
/// Tail percentiles of query and FACT latency. A run has ~1800 FACTs, so
/// a FACT p99 rests on the slowest 18, which short bursts of load from
/// other tenants of a shared host decide: over ten runs of the same code
/// its spread reached half its median. The p90 rests on the slowest 180.
pub const TAILS: Tails = Tails {
    query: 99.0,
    fact: 90.0,
};
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// The reader times the host-speed kernel this often, between passes.
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);
/// Ids of written nodes start here, above every relabelled tree node.
const NEW_ID_BASE: i64 = 10_000_000;

/// Depth mixes (depth, weight) of the constants the reader picks; within a
/// depth the node is a Zipf(1) pick, so hot nodes differ per seed while
/// answer sizes do not.
const FORWARD_DEPTHS: &[(usize, f64)] = &[(1, 0.1), (2, 0.3), (3, 0.3), (4, 0.3)];
const REVERSE_DEPTHS: &[(usize, f64)] = &[(3, 0.2), (4, 0.4), (5, 0.4)];
/// The writer adds reports under nodes of these depths, picked uniformly so
/// the tree grows evenly whatever the seed.
const WRITE_DEPTHS: [usize; 2] = [4, 5];

struct Picker(Vec<(f64, Vec<i64>, Skewed)>);

impl Picker {
    fn new(org: &Org, depths: &[(usize, f64)], rng: &mut Rng) -> Picker {
        let total: f64 = depths.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        Picker(
            depths
                .iter()
                .map(|&(d, w)| {
                    acc += w / total;
                    let nodes = org.levels[d].clone();
                    let skew = Skewed::new(nodes.len(), rng);
                    (acc, nodes, skew)
                })
                .collect(),
        )
    }

    fn pick(&self, rng: &mut Rng) -> i64 {
        let u = rng.unit();
        let (_, nodes, skew) = self
            .0
            .iter()
            .find(|(c, _, _)| u < *c)
            .unwrap_or(&self.0[self.0.len() - 1]);
        nodes[skew.pick(rng)]
    }
}

fn forward(c: i64) -> String {
    format!("?- above({c}, Y).")
}

fn reverse(c: i64) -> String {
    format!("?- above(X, {c}).")
}

fn config(dir: &Path, eval_threads: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // One worker per load connection (reader, writer).
        threads: 2,
        eval_threads,
        wal_dir: Some(dir.to_path_buf()),
        fsync: FSYNC,
        compact_every: COMPACT_EVERY,
        grace_ms: 100,
        ..ServerConfig::default()
    }
}

fn ok(resp: std::io::Result<Response>, what: &str) -> Result<Response, String> {
    match resp {
        Ok(r) if r.ok => Ok(r),
        Ok(r) => Err(format!("{what}: ERR {}", r.error)),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Spawn, LOAD the org chart, and ask the first query of each form.
fn start(cfg: &ServerConfig, org_file: &Path, first: &[String]) -> Result<Server, String> {
    let server = Server::spawn(cfg).map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    ok(client.load(&org_file.display().to_string()), "LOAD")?;
    for q in first {
        ok(client.query(q), q)?;
    }
    Ok(server)
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Whether an operation that starts at `t` falls in a traced slice: a
/// traced run alternates untraced and traced seconds.
#[derive(Clone, Copy)]
struct Slices {
    start: Instant,
    trace: bool,
}

impl Slices {
    fn traced(&self, t: Instant) -> bool {
        self.trace && t.saturating_duration_since(self.start).as_secs() % 2 == 1
    }
}

#[derive(Default)]
struct WriterLog {
    /// Due time, timing and whether it fell in a traced slice.
    timings: Vec<(Instant, Timing, bool)>,
    service_ms: Sample,
    acked: Vec<String>,
    acked_bytes: usize,
    attempted: u64,
    failures: Vec<String>,
    tracer: Option<Tracer>,
}

fn writer(
    addr: std::net::SocketAddr,
    org: &Org,
    seed: u64,
    schedule: OpenLoop,
    until: Instant,
    slices: Slices,
    origin: Instant,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut tracer = Tracer::new(slices.trace, origin);
    let mut rng = Rng::new(seed ^ 0x77);
    let parents: Vec<i64> = WRITE_DEPTHS
        .iter()
        .flat_map(|&d| org.levels[d].iter().copied())
        .collect();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted = 1;
            log.failures.push(format!("writer connect: {e}"));
            return log;
        }
    };
    for k in 0u64.. {
        let due = schedule.wait(k);
        if due >= until {
            break;
        }
        let fact = format!(
            "reports({}, {}).",
            parents[rng.below(parents.len() as u64) as usize],
            NEW_ID_BASE + k as i64
        );
        let sent = Instant::now();
        let resp = client.fact(&fact);
        let done = Instant::now();
        log.attempted += 1;
        let timing = Timing::new(due, sent, done);
        let traced = slices.traced(due);
        if traced {
            tracer.record("fact", sent, done, k);
        }
        match ok(resp, "FACT") {
            Ok(_) => {
                log.timings.push((due, timing, traced));
                log.service_ms.push((done - sent).as_secs_f64() * 1e3);
                log.acked_bytes += fact.len();
                log.acked.push(fact);
            }
            Err(e) => log.failures.push(e),
        }
    }
    log.tracer = Some(tracer);
    log
}

/// A timed reader interval: start, ms, and whether it was traced.
type Timed = (Instant, f64, bool);

#[derive(Default)]
struct ReaderLog {
    /// Socket round trips.
    queries: Vec<Timed>,
    /// Passes sent over the socket.
    passes: Vec<Timed>,
    handle_us: Sample,
    speed: HostSpeed,
    cache_tags: std::collections::BTreeMap<String, u64>,
    payload_bytes: u64,
    query_ms_all: f64,
    attempted: u64,
    failures: Vec<String>,
    tracer: Option<Tracer>,
}

fn reader(
    addr: std::net::SocketAddr,
    state: &Arc<ServerState>,
    org: &Org,
    seed: u64,
    until: Instant,
    slices: Slices,
    origin: Instant,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut tracer = Tracer::new(slices.trace, origin);
    let mut rng = Rng::new(seed ^ 0x99);
    let fwd = Picker::new(org, FORWARD_DEPTHS, &mut rng);
    let rev = Picker::new(org, REVERSE_DEPTHS, &mut rng);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted = 1;
            log.failures.push(format!("reader connect: {e}"));
            return log;
        }
    };
    let mut pass = 0u64;
    while Instant::now() < until {
        let t_pass = Instant::now();
        let traced = slices.traced(t_pass);
        // Every other traced pass goes straight to `ServerState::handle`,
        // which splits a round trip into handling and wire.
        let in_process = traced && pass % 2 == 1;
        for j in 0..PASS_QUERIES {
            let text = if j + 1 < PASS_QUERIES {
                forward(fwd.pick(&mut rng))
            } else {
                reverse(rev.pick(&mut rng))
            };
            let req = pass * PASS_QUERIES as u64 + j as u64;
            let t0 = Instant::now();
            let resp = if in_process {
                Ok(state.handle(&Request::query(text.as_str())))
            } else {
                client.query(&text)
            };
            let t1 = Instant::now();
            log.attempted += 1;
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            log.query_ms_all += ms;
            if in_process {
                log.handle_us.push(ms * 1e3);
                tracer.record("handle", t0, t1, req);
            } else {
                log.queries.push((t0, ms, traced));
                if traced {
                    tracer.record("query", t0, t1, req);
                }
            }
            match ok(resp, &text) {
                Ok(r) => {
                    *log.cache_tags
                        .entry(r.get("cache").unwrap_or("none").to_string())
                        .or_default() += 1;
                    log.payload_bytes += r.payload.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
                }
                Err(e) => log.failures.push(e),
            }
        }
        if !in_process {
            log.passes
                .push((t_pass, t_pass.elapsed().as_secs_f64() * 1e3, traced));
        }
        if log
            .speed
            .last_at()
            .is_none_or(|t| t.elapsed() >= CALIBRATE_EVERY)
        {
            log.speed.sample();
        }
        pass += 1;
    }
    log.tracer = Some(tracer);
    log
}

/// End-to-end samples of the traced or untraced slices, each time scaled
/// by `scale` (host speed, or 1 for raw times).
fn e2e(r: &ReaderLog, w: &WriterLog, traced: bool, scale: impl Fn(Instant) -> f64) -> E2e {
    let mut e = E2e::default();
    for &(t, ms, _) in r.queries.iter().filter(|q| q.2 == traced) {
        e.query_ms.push(0, ms * scale(t));
        e.ops += 1;
    }
    for &(t, ms, _) in r.passes.iter().filter(|p| p.2 == traced) {
        let ms = ms * scale(t);
        e.pass_ms.push(ms);
        e.wall_s += ms / 1e3;
    }
    for (due, timing, _) in w.timings.iter().filter(|f| f.2 == traced) {
        e.fact_ms.push(0, timing.latency_ms * scale(*due));
    }
    e
}

/// The queries whose final answers are checked, against the reference and
/// again after recovery: one node per depth each way, every written-to
/// parent's subtree, and the whole `reports` relation (every acknowledged
/// FACT must be in it).
fn check_queries(org: &Org, acked: &[String]) -> Vec<String> {
    let mut qs = vec!["?- reports(X, Y).".to_string()];
    for level in &org.levels {
        qs.push(forward(level[0]));
        qs.push(reverse(level[level.len() - 1]));
    }
    let mut parents: Vec<&str> = acked
        .iter()
        .filter_map(|f| f.strip_prefix("reports(")?.split(',').next())
        .collect();
    parents.sort_unstable();
    parents.dedup();
    qs.extend(parents.iter().take(8).map(|p| format!("?- above({p}, Y).")));
    qs
}

/// Serial reference answers over the loaded plus acknowledged facts.
fn reference(org: &Org, acked: &[String], queries: &[String]) -> Result<Vec<String>, String> {
    let mut text = org.text.clone();
    for f in acked {
        text.push_str(f);
        text.push('\n');
    }
    let parsed = parse_program(&text).map_err(|e| e.to_string())?;
    let facts = FactSet::from_parsed(&parsed.facts);
    queries
        .iter()
        .map(|q| {
            let query = parse_program(q).map_err(|e| e.to_string())?.program.query;
            let mut program = parsed.program.clone();
            program.query = query;
            let (answers, _) = query_answers(&program, &facts, &EvalOptions::default())
                .map_err(|e| e.to_string())?;
            Ok(render_answers(&answers))
        })
        .collect()
}

/// One histogram or counter series out of a `METRICS JSON` scrape.
fn series<'a>(scrape: &'a Json, name: &str, label: Option<(&str, &str)>) -> Option<&'a Json> {
    let Some(Json::Arr(families)) = scrape.get("metrics") else {
        return None;
    };
    let fam = families
        .iter()
        .find(|f| matches!(f.get("name"), Some(Json::Str(n)) if n == name))?;
    let Some(Json::Arr(list)) = fam.get("series") else {
        return None;
    };
    list.iter().find(|s| match label {
        None => true,
        Some((k, v)) => {
            matches!(s.get("labels").and_then(|l| l.get(k)), Some(Json::Str(x)) if x == v)
        }
    })
}

fn field(s: Option<&Json>, key: &str) -> f64 {
    s.and_then(|s| s.get(key))
        .and_then(crate::jsonread::num)
        .unwrap_or(0.0)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new(args);
    let work = crate::work_dir().join(format!("serve-{}-{}", args.seed, std::process::id()));
    let result = run_in(args, &work, &mut out);
    if let Err(e) = result {
        out.fail(e);
    }
    let _ = std::fs::remove_dir_all(&work);
    out
}

fn run_in(args: &RunArgs, work: &Path, out: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("work dir: {e}"))?;
    let org = inputs::org(args.seed);
    let org_file = work.join("org.dl");
    std::fs::write(&org_file, &org.text).map_err(|e| format!("write org: {e}"))?;
    let first = vec![forward(org.levels[0][0]), reverse(org.levels[0][0])];
    let wal_dir = |i: usize| -> PathBuf { work.join(format!("wal-{i}")) };

    // Set-up: spawn + LOAD + first query per form, several times; the
    // last server stays up for the measurement.
    let mut speed = HostSpeed::default();
    speed.sample_n(5);
    let setup_at = Instant::now();
    let mut setup = Sample::default();
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            stop(s);
        }
        let t = Instant::now();
        server = Some(start(
            &config(&wal_dir(i), args.threads),
            &org_file,
            &first,
        )?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("set-up ran");
    let cfg = config(&wal_dir(SETUP_REPEATS - 1), args.threads);
    speed.sample_n(5);
    out.set_setup(&setup, speed.scale_at(setup_at));
    out.meta.set("write_rate_per_s", WRITE_RATE);
    out.meta.set("compact_every", COMPACT_EVERY);
    out.meta
        .set("org_facts", (org.text.lines().count() - 2) as u64);
    out.attempted += 3 * SETUP_REPEATS as u64;

    // Measurement.
    let storage_before = storage_counters();
    take_consolidation_ns();
    let cpu_before = crate::procfs::cpu_ticks();
    let start_t = Instant::now();
    let until = start_t + Duration::from_secs_f64(args.seconds);
    let slices = Slices {
        start: start_t,
        trace: args.trace,
    };
    let schedule = OpenLoop::new(start_t, WRITE_RATE);
    let addr = server.addr();
    let state = Arc::clone(server.state());
    let (wlog, rlog) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(addr, &org, args.seed, schedule, until, slices, args.origin));
        let r = s.spawn(|| reader(addr, &state, &org, args.seed, until, slices, args.origin));
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    });
    let window_s = start_t.elapsed().as_secs_f64();
    let cpu_s =
        crate::procfs::cpu_ticks().saturating_sub(cpu_before) as f64 / crate::procfs::TICKS_PER_SEC;
    let consolidation_ns: u64 = take_consolidation_ns().iter().sum();
    let storage_after = storage_counters();
    if let Some(rss) = crate::procfs::peak_rss_mib() {
        out.values.set("peak_rss_mib", rss);
    }
    out.meta.set("measured_s", window_s);
    out.attempted += wlog.attempted + rlog.attempted;
    for f in wlog.failures.iter().chain(&rlog.failures) {
        out.fail(f.clone());
    }

    // End-to-end figures come from untraced slices only.
    let at_speed = |t| rlog.speed.scale_at(t);
    out.set_e2e(
        &e2e(&rlog, &wlog, false, at_speed),
        &e2e(&rlog, &wlog, false, |_| 1.0),
        TAILS,
    );
    out.set_host_speed(&rlog.speed);
    let mut scrape = None;
    if args.trace {
        out.set_overhead(&e2e(&rlog, &wlog, true, at_speed), TAILS);
        let mut client = Client::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
        let resp = ok(client.metrics(true), "METRICS JSON")?;
        scrape = Some(
            crate::jsonread::parse(&resp.payload_text())
                .map_err(|e| format!("METRICS JSON: {e}"))?,
        );
    }

    // Output checks, outside the window: final fresh answers against the
    // reference over loaded + acknowledged facts.
    let checks = check_queries(&org, &wlog.acked);
    let want = reference(&org, &wlog.acked, &checks)?;
    {
        let mut client = Client::connect(addr).map_err(|e| format!("check connect: {e}"))?;
        for (q, w) in checks.iter().zip(&want) {
            out.attempted += 1;
            match ok(client.query(q), q) {
                Ok(r) if r.payload_text() == *w => {}
                Ok(_) => out.fail(format!("final answers differ from the reference: {q}")),
                Err(e) => out.fail(e),
            }
        }
    }
    drop(state);
    stop(server);
    let wal_bytes = dir_bytes(cfg.wal_dir.as_deref().expect("WAL configured"));

    // Restart from the run's WAL: every acknowledged FACT, identical answers.
    let t = Instant::now();
    let recovered = ServerState::from_config(&cfg).map_err(|e| format!("recovery: {e}"))?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    for (q, w) in checks.iter().zip(&want) {
        out.attempted += 1;
        let r = recovered.handle(&Request::query(q.as_str()));
        if !r.ok || r.payload_text() != *w {
            out.fail(format!("recovered answers differ: {q}"));
        }
    }
    drop(recovered);
    out.meta.set("acked_facts", wlog.acked.len() as u64);

    if let Some(scrape) = scrape {
        let v = &mut out.values;
        let lateness = {
            let mut s = Sample::default();
            wlog.timings.iter().for_each(|(_, t, _)| s.push(t.late_ms));
            s
        };
        let late = wlog.timings.iter().filter(|(_, t, _)| t.is_late()).count();
        v.set(
            "loadgen.late_share",
            share(late as f64, wlog.timings.len() as f64),
        );
        v.set("loadgen.late_ms.p99", lateness.pct(99.0));
        let fact_ms_total = wlog.service_ms.sum();
        let request_ms_total = rlog.query_ms_all + fact_ms_total;
        let phase = |p: &str| series(&scrape, "xdl_query_phase_seconds", Some(("phase", p)));
        for (p, share_name, ms_name) in [
            ("parse", "server.phase.parse_share", "server.phase.parse_ms"),
            ("cache", "server.phase.cache_share", "server.phase.cache_ms"),
            ("eval", "server.phase.eval_share", "server.phase.eval_ms"),
            (
                "serialize",
                "server.phase.serialize_share",
                "server.phase.serialize_ms",
            ),
        ] {
            let ms = field(phase(p), "sum_ns") / 1e6;
            v.set(share_name, share(ms, rlog.query_ms_all));
            v.set(ms_name, ms);
        }
        let tags: u64 = rlog.cache_tags.values().sum();
        for (tag, name) in [
            ("resident", "server.cache.resident_share"),
            ("answers", "server.cache.answers_share"),
            ("hit", "server.cache.hit_share"),
            ("miss", "server.cache.miss_share"),
        ] {
            let n = rlog.cache_tags.get(tag).copied().unwrap_or(0);
            v.set(name, share(n as f64, tags as f64));
        }
        out.meta.set(
            "cache_tags",
            Json::Obj(
                rlog.cache_tags
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::UInt(*n)))
                    .collect(),
            ),
        );
        v.set("server.handle_us.p50", rlog.handle_us.pct(50.0));
        v.set("server.handle_us.p99", rlog.handle_us.pct(99.0));
        let rtt_us = {
            let mut traced = Sample::default();
            rlog.queries
                .iter()
                .filter(|q| q.2)
                .for_each(|q| traced.push(q.1));
            traced.pct(50.0) * 1e3
        };
        let wire_us = rtt_us - rlog.handle_us.pct(50.0);
        v.set("wire.overhead_us.p50", wire_us);
        v.set("wire.overhead_share", share(wire_us, rtt_us));
        let prop = series(&scrape, "xdl_incremental_propagation_seconds", None);
        v.set(
            "incremental.propagation_us.p50",
            field(prop, "p50_ns") / 1e3,
        );
        v.set(
            "incremental.propagation_us.p99",
            field(prop, "p99_ns") / 1e3,
        );
        v.set(
            "incremental.share",
            share(field(prop, "sum_ns") / 1e6, request_ms_total),
        );
        v.set(
            "incremental.applied_facts",
            field(
                series(&scrape, "xdl_incremental_applied_facts_total", None),
                "value",
            ),
        );
        let append = series(&scrape, "xdl_wal_append_seconds", None);
        let fsync = series(&scrape, "xdl_wal_fsync_seconds", None);
        let compaction = series(&scrape, "xdl_compaction_seconds", None);
        v.set("wal.append_us.p50", field(append, "p50_ns") / 1e3);
        v.set("wal.append_us.p99", field(append, "p99_ns") / 1e3);
        v.set(
            "wal.append_share",
            share(field(append, "sum_ns") / 1e6, fact_ms_total),
        );
        v.set("wal.fsync_us.p99", field(fsync, "p99_ns") / 1e3);
        v.set("wal.fsyncs", field(fsync, "count"));
        v.set("wal.compactions", field(compaction, "count"));
        v.set("wal.compaction_ms", field(compaction, "sum_ns") / 1e6);
        v.set(
            "wal.bytes_per_fact",
            share(wal_bytes as f64, wlog.acked_bytes as f64),
        );
        v.set("wal.recover_ms", recover_ms);
        v.set(
            "eval.cpu_util",
            share(cpu_s, window_s * args.threads as f64),
        );
        let probes = storage_after.bloom_probes - storage_before.bloom_probes;
        let skips = storage_after.bloom_skips - storage_before.bloom_skips;
        v.set("storage.bloom_probes", probes as f64);
        v.set(
            "storage.bloom_skip_ratio",
            share(skips as f64, probes as f64),
        );
        v.set(
            "storage.consolidations",
            (storage_after.consolidations - storage_before.consolidations) as f64,
        );
        v.set(
            "storage.index_rebuilds",
            (storage_after.index_rebuilds - storage_before.index_rebuilds) as f64,
        );
        v.set("storage.consolidation_ms", consolidation_ns as f64 / 1e6);
        v.set(
            "render.bytes",
            share(rlog.payload_bytes as f64, rlog.attempted as f64),
        );
        let mut tracer = Tracer::new(true, args.origin);
        for t in [wlog.tracer, rlog.tracer].into_iter().flatten() {
            tracer.absorb(t);
        }
        out.tracer = tracer;
    }

    match crate::batch::counter_block(&counter_deck(crate::record::RECORD_SEED), args.threads) {
        Ok(block) => out.counters = block,
        Err(e) => out.fail(format!("counter block: {e}")),
    }
    Ok(())
}

/// The exact counts behind serve-mixed: the org chart through the batch
/// pipeline, once for the whole `above` relation and once per form.
fn counter_deck(seed: u64) -> Vec<inputs::Entry> {
    let org = inputs::org(seed);
    let root = org.levels[0][0];
    let leaf = org.levels[org.levels.len() - 1][0];
    [
        ("org_all", "?- above(X, Y).".to_string()),
        ("org_forward", forward(root)),
        ("org_reverse", reverse(leaf)),
    ]
    .into_iter()
    .map(|(name, q)| inputs::Entry {
        name,
        text: format!("{}{q}\n", org.text),
    })
    .collect()
}
