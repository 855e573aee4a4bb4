//! Differential fuzzing: random safe programs × random instances, evaluated
//! under every engine/optimizer configuration; any disagreement is a bug.
//!
//! The logic lives here (not in the `fuzz` binary) so the test suite can run
//! a small fixed-seed smoke round on every `cargo test`, keeping the
//! differential oracle exercised without a separate manual step.

use datalog_engine::incremental::{DeltaLimits, Fact, ResidentEval};
use datalog_engine::{evaluate, extract_answers, query_answers, EvalOptions, Strategy};
use datalog_opt::{optimize, OptimizerConfig};

use crate::workloads::{edb_for, random_program};

/// Parallel determinism arm: evaluate one program at 1, 2 and 8 threads —
/// profiled and unprofiled — and require *byte* identity: every relation's
/// rows in insertion order (not just the answer set), the full stats
/// partition, provenance, and (walls aside, which legitimately vary) the
/// profile counters. Returns the number of disagreements found.
fn thread_differential(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    mut complain: impl FnMut(&str),
) -> u64 {
    let mut failures = 0u64;
    for profile in [false, true] {
        let opts = |threads: usize| EvalOptions {
            threads,
            profile,
            record_provenance: true,
            ..EvalOptions::default()
        };
        let serial = evaluate(program, instance, &opts(1)).expect("serial evaluates");
        for threads in [2usize, 8] {
            let label = format!("threads={threads} profile={profile}");
            let par = match evaluate(program, instance, &opts(threads)) {
                Ok(out) => out,
                Err(e) => {
                    complain(&format!("{label}: evaluation failed: {e}"));
                    failures += 1;
                    continue;
                }
            };
            if par.stats != serial.stats {
                complain(&format!(
                    "{label}: stats diverge\n serial: {:?}\n parallel: {:?}",
                    serial.stats, par.stats
                ));
                failures += 1;
            }
            if par.provenance != serial.provenance {
                complain(&format!("{label}: provenance diverges"));
                failures += 1;
            }
            let rows_match = (0..serial.database.pred_count()).all(|p| {
                let id = datalog_engine::PredId(p as u32);
                serial
                    .database
                    .relation(id)
                    .iter()
                    .eq(par.database.relation(id).iter())
            });
            if serial.database.pred_count() != par.database.pred_count() || !rows_match {
                complain(&format!("{label}: databases diverge (row-id order)"));
                failures += 1;
            }
            let sp = serial.profile.as_ref().map(|p| p.counters_only());
            let pp = par.profile.as_ref().map(|p| p.counters_only());
            if sp != pp {
                complain(&format!("{label}: profile counters diverge"));
                failures += 1;
            }
        }
    }
    failures
}

/// Incremental maintenance arm: load half the instance cold into resident
/// semi-naive state at 1 and 4 threads, then ingest the rest in batches.
/// After every batch the two resident frontiers must be *byte* identical
/// (rows in insertion order, provenance, per-batch reports modulo wall
/// time, cumulative stats), and the 1-thread frontier must match a cold
/// full fixpoint over everything applied so far — set-identical database
/// dump and byte-identical query answers. Returns disagreements found.
fn incremental_differential(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    mut complain: impl FnMut(&str),
) -> u64 {
    if !ResidentEval::supports(program) {
        return 0; // non-monotone programs fall outside the resident path
    }
    let mut failures = 0u64;
    let opts = |threads: usize| EvalOptions {
        threads,
        record_provenance: true,
        ..EvalOptions::default()
    };
    // FactSet iteration is BTreeMap-ordered, so the split is deterministic.
    let facts: Vec<Fact> = instance
        .iter()
        .map(|(pred, tuple)| Fact::new(pred.clone(), tuple.clone()))
        .collect();
    let split = facts.len() / 2;
    let mut loaded = datalog_engine::FactSet::new();
    for f in &facts[..split] {
        loaded.insert(f.pred.clone(), f.tuple.clone());
    }
    let mut residents = Vec::new();
    for threads in [1usize, 4] {
        match ResidentEval::new(program, &loaded, &opts(threads)) {
            Ok(r) => residents.push(r),
            Err(e) => {
                complain(&format!("incremental: construction@{threads} failed: {e}"));
                return failures + 1;
            }
        }
    }
    let [ref mut r1, ref mut r4] = residents[..] else {
        unreachable!()
    };
    for batch in facts[split..].chunks(3) {
        let limits = DeltaLimits::default();
        let (rep1, rep4) = match (
            r1.apply_deltas(batch, &limits),
            r4.apply_deltas(batch, &limits),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                complain(&format!("incremental: propagation failed: {a:?} / {b:?}"));
                return failures + 1;
            }
        };
        // Thread identity: reports agree field-for-field (walls aside).
        let strip = |r: &datalog_engine::incremental::DeltaReport| {
            let mut r = *r;
            r.wall_ns = 0;
            r
        };
        if strip(&rep1) != strip(&rep4) {
            complain(&format!(
                "incremental: batch reports diverge across threads\n 1: {rep1:?}\n 4: {rep4:?}"
            ));
            failures += 1;
        }
        if r1.cumulative_stats() != r4.cumulative_stats() {
            complain("incremental: cumulative stats diverge across threads");
            failures += 1;
        }
        if r1.provenance() != r4.provenance() {
            complain("incremental: provenance diverges across threads");
            failures += 1;
        }
        let rows_match = (0..r1.database().pred_count()).all(|p| {
            let id = datalog_engine::PredId(p as u32);
            r1.database()
                .relation(id)
                .iter()
                .eq(r4.database().relation(id).iter())
        });
        if r1.database().pred_count() != r4.database().pred_count() || !rows_match {
            complain("incremental: resident databases diverge (row-id order)");
            failures += 1;
        }
        // Cold identity: a from-scratch fixpoint over everything applied so
        // far must reach the same model and the same rendered answers.
        for f in batch {
            loaded.insert(f.pred.clone(), f.tuple.clone());
        }
        let cold = match evaluate(program, &loaded, &opts(1)) {
            Ok(out) => out,
            Err(e) => {
                complain(&format!("incremental: cold reference failed: {e}"));
                return failures + 1;
            }
        };
        if cold.database.dump() != r1.dump() {
            complain("incremental: resident frontier diverges from cold fixpoint");
            failures += 1;
        }
        if let Some(q) = &program.query {
            if extract_answers(&q.atom, &cold.database) != r1.answers(&q.atom) {
                complain("incremental: resident answers diverge from cold answers");
                failures += 1;
            }
        }
    }
    failures
}

/// Bound-soundness arm: the static size-bound analysis must never
/// under-approximate. Analyze the program, evaluate its bounds at the
/// instance's *true* EDB cardinalities, run the full fixpoint, and require
/// every derived predicate's actual fact count to sit at or under its
/// certified bound. Also checks the admission contract: a form the
/// analysis classifies unbounded must never be admitted to resident
/// incremental state. Returns the number of violations found.
fn bounds_soundness(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    mut complain: impl FnMut(&str),
) -> u64 {
    let report = match datalog_lint::analyze_bounds(program) {
        Ok(r) => r,
        Err(e) => {
            complain(&format!("bounds: analysis failed on a valid program: {e}"));
            return 1;
        }
    };
    let cards: std::collections::BTreeMap<String, u64> = report
        .edb
        .iter()
        .map(|p| (p.to_string(), instance.count(p) as u64))
        .collect();
    let out = match evaluate(program, instance, &EvalOptions::default()) {
        Ok(o) => o,
        // The reference arm already complained about the failure.
        Err(_) => return 0,
    };
    let mut failures = 0;
    for pred in &report.idb {
        let actual = out
            .database
            .pred_id(pred)
            .map_or(0, |id| out.database.relation(id).len()) as u64;
        let Some(bound) = report.eval_count(pred, &cards) else {
            complain(&format!("bounds: derived predicate {pred} has no verdict"));
            failures += 1;
            continue;
        };
        if actual > bound {
            complain(&format!(
                "bounds: {pred} derived {actual} facts, certified bound is {bound}"
            ));
            failures += 1;
        }
        if report.class_of(pred) == datalog_trace::BoundClass::Unbounded
            && ResidentEval::admits_bound_class(report.class_of(pred))
        {
            complain(&format!(
                "bounds: unbounded-classified {pred} admitted to resident state"
            ));
            failures += 1;
        }
    }
    failures
}

/// Rounds and base seed of the fixed `--smoke` configuration. Small enough
/// for a debug-profile test run, deterministic so failures reproduce.
pub const SMOKE_ROUNDS: u64 = 25;
/// Base seed used by `--smoke`.
pub const SMOKE_BASE_SEED: u64 = 1;

/// Run `rounds` differential rounds starting at `base` seed; returns the
/// number of failures. When `verbose` is false, per-failure diagnostics are
/// suppressed (the caller only wants the count).
pub fn run_rounds(rounds: u64, base: u64, verbose: bool) -> u64 {
    let mut failures = 0u64;
    macro_rules! complain {
        ($($arg:tt)*) => {
            if verbose {
                eprintln!($($arg)*);
            }
        };
    }
    for round in 0..rounds {
        let seed = base.wrapping_add(round);
        let program = random_program(seed);
        if program.validate().is_err() {
            complain!("seed {seed}: generator produced an invalid program");
            failures += 1;
            continue;
        }
        let instance = edb_for(&program, 4, 12, seed ^ 0xabcdef);
        let reference = match query_answers(&program, &instance, &EvalOptions::default()) {
            Ok((a, _)) => a.rows,
            Err(e) => {
                complain!("seed {seed}: reference evaluation failed: {e}");
                failures += 1;
                continue;
            }
        };
        let check =
            |label: &str, rows: &std::collections::BTreeSet<Vec<datalog_ast::Value>>| -> u64 {
                if *rows != reference {
                    complain!(
                        "seed {seed}: {label} disagrees with reference\nprogram:\n{}",
                        program.to_text()
                    );
                    1
                } else {
                    0
                }
            };
        // Naive strategy.
        let (a, _) = query_answers(
            &program,
            &instance,
            &EvalOptions {
                strategy: Strategy::Naive,
                ..EvalOptions::default()
            },
        )
        .expect("naive evaluates");
        failures += check("naive", &a.rows);
        // Reordered joins.
        let (a, _) = query_answers(
            &program,
            &instance,
            &EvalOptions {
                reorder_joins: true,
                ..EvalOptions::default()
            },
        )
        .expect("reordered evaluates");
        failures += check("reorder_joins", &a.rows);
        // Profiled evaluation must not change answers (and partitions the
        // global counters — checked in depth by the engine's tests).
        let (a, _) = query_answers(
            &program,
            &instance,
            &EvalOptions {
                profile: true,
                ..EvalOptions::default()
            },
        )
        .expect("profiled evaluates");
        failures += check("profiled", &a.rows);
        // Parallel determinism: byte-identical databases, stats partitions,
        // provenance, and profile counters at 1 vs 2 vs 8 threads.
        failures += thread_differential(&program, &instance, |msg| {
            complain!("seed {seed}: {msg}");
        });
        // Incremental maintenance: resident frontier vs cold fixpoint, at
        // 1 and 4 threads, after every ingested batch.
        failures += incremental_differential(&program, &instance, |msg| {
            complain!("seed {seed}: {msg}");
        });
        // Static size bounds: actual derived counts never exceed the
        // certified bound at the instance's true cardinalities.
        failures += bounds_soundness(&program, &instance, |msg| {
            complain!("seed {seed}: {msg}");
        });
        // Full optimizer (+ cut).
        match optimize(&program, &OptimizerConfig::default()) {
            Ok(out) => {
                let (a, _) = query_answers(
                    &out.program,
                    &instance,
                    &EvalOptions {
                        boolean_cut: true,
                        ..EvalOptions::default()
                    },
                )
                .expect("optimized evaluates");
                failures += check("optimizer", &a.rows);
            }
            Err(e) => {
                complain!("seed {seed}: optimizer failed: {e}");
                failures += 1;
            }
        }
        // Aggressive optimizer (auto-fold).
        match optimize(&program, &OptimizerConfig::aggressive()) {
            Ok(out) => {
                let (a, _) = query_answers(
                    &out.program,
                    &instance,
                    &EvalOptions {
                        boolean_cut: true,
                        ..EvalOptions::default()
                    },
                )
                .expect("aggressive evaluates");
                failures += check("aggressive-optimizer", &a.rows);
            }
            Err(e) => {
                complain!("seed {seed}: aggressive optimizer failed: {e}");
                failures += 1;
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixed-seed smoke configuration must stay green: it is the same
    /// oracle the `fuzz --smoke` binary invocation runs.
    #[test]
    fn smoke_rounds_find_no_disagreements() {
        assert_eq!(run_rounds(SMOKE_ROUNDS, SMOKE_BASE_SEED, true), 0);
    }
}
