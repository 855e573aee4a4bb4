//! Seeded inputs. Every workload's program text is generated here from
//! `--seed`, through the repository's own generators
//! (`datalog_bench::workloads`) and the paper's programs
//! (`datalog_opt::paper`); the measured code sees only the resulting text.
//!
//! Generators that take no seed (chains, trees, bill-of-materials DAGs)
//! are relabelled through a seeded bijection on their integer constants,
//! so the shape (and the work) stays fixed while the constants change.

use datalog_ast::{parse_program, Atom, Value};
use datalog_bench::workloads;
use datalog_engine::FactSet;
use datalog_opt::paper;

/// One program of a batch deck: rules, facts and a query, as `.dl` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub name: &'static str,
    pub text: String,
}

// Sizes. `record.json` repeats them next to the counts they produce.
pub const E1_CHAIN: i64 = 512;
pub const E2_BOM: (i64, i64, i64) = (256, 2, 10_000);
pub const E3_CHAIN: i64 = 512;
pub const EX12_UPDOWN: (i64, i64, f64) = (16, 16, 0.5);
pub const EX_EDB: (i64, usize) = (64, 512);
pub const TC_GRAPH: (i64, usize) = (384, 1536);
pub const SG_EDB: (i64, usize) = (128, 384);
pub const BOM_REACH: (i64, i64) = (16384, 4);
pub const ORG_TREE: (i64, u32) = (4, 5);

const E2_RULES: &str = "q(X, Y) :- sub(X, Z), q(Z, Y), certified(W).\n\
                        q(X, Y) :- sub(X, Y), certified(W).\n\
                        ?- q(X, _).";
const E3_RULES: &str = "a(X, Y) :- a(X, Z), p(Z, Y).\n\
                        a(X, Y) :- p(X, Y).\n\
                        ?- a(X, _).";
const TC_RULES: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                        a(X, Y) :- p(X, Y).\n\
                        ?- a(X, Y).";
const SG_RULES: &str = "sg(X, Y) :- flat(X, Y).\n\
                        sg(X, Y) :- up(X, U), sg(U, V), dn(V, Y).\n\
                        ?- sg(X, Y).";
const REACH_RULES: &str = "reach(X, Y) :- sub(X, Y).\n\
                           reach(X, Y) :- sub(X, Z), reach(Z, Y).\n\
                           ?- reach(X, Y).";
pub const ORG_RULES: &str = "above(X, Y) :- reports(X, Y).\n\
                             above(X, Z) :- reports(X, Y), above(Y, Z).\n";

/// SplitMix64: a small, well-mixed seeded stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Constants are relabelled modulo this prime, above every generated id.
const PRIME: i64 = 1_000_003;

/// A seeded bijection `v -> (a*v + b) mod PRIME` on `[0, PRIME)`.
#[derive(Debug, Clone, Copy)]
pub struct Relabel {
    a: i64,
    b: i64,
}

impl Relabel {
    pub fn new(seed: u64) -> Relabel {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
        Relabel {
            a: 1 + rng.below(PRIME as u64 - 1) as i64,
            b: rng.below(PRIME as u64) as i64,
        }
    }

    pub fn map(&self, v: i64) -> i64 {
        (self.a * v.rem_euclid(PRIME) + self.b) % PRIME
    }

    pub fn facts(&self, fs: &FactSet) -> FactSet {
        let mut out = FactSet::new();
        for (pred, tuple) in fs.iter() {
            let t = tuple
                .iter()
                .map(|v| match v {
                    Value::Int(i) => Value::int(self.map(*i)),
                    other => *other,
                })
                .collect();
            out.insert(pred.clone(), t);
        }
        out
    }
}

/// `.dl` text: the rules and query, then one fact per line.
pub fn program_text(rules: &str, facts: &FactSet) -> String {
    let mut text = String::with_capacity(rules.len() + 24 * facts.len());
    text.push_str(rules);
    text.push('\n');
    for (pred, tuple) in facts.iter() {
        text.push_str(&Atom::fact(pred.clone(), tuple.clone()).to_string());
        text.push_str(".\n");
    }
    text
}

fn entry(name: &'static str, rules: &str, facts: &FactSet) -> Entry {
    Entry {
        name,
        text: program_text(rules, facts),
    }
}

/// The `paper-opt` deck: the paper's programs, on inputs where the
/// optimizer shrinks evaluation to little more than reading the facts.
pub fn paper_deck(seed: u64) -> Vec<Entry> {
    let relabel = Relabel::new(seed);
    let (parts, fanout, certified) = E2_BOM;
    let (levels, width, sel) = EX12_UPDOWN;
    let mut deck = vec![
        entry(
            "e1_chain",
            paper::EXAMPLE_1,
            &relabel.facts(&workloads::chain("p", E1_CHAIN)),
        ),
        entry(
            "e2_bom_cut",
            E2_RULES,
            &relabel.facts(&workloads::bom(parts, fanout, certified)),
        ),
        entry(
            "e3_left_tc",
            E3_RULES,
            &relabel.facts(&workloads::chain("p", E3_CHAIN)),
        ),
        entry(
            "ex12_updown",
            paper::EXAMPLE_12_ADORNED,
            &workloads::updown(levels, width, sel, seed),
        ),
    ];
    for (name, text) in [
        ("ex7", paper::EXAMPLE_7),
        ("ex8", paper::EXAMPLE_8),
        ("ex10", paper::EXAMPLE_10),
    ] {
        let program = parse_program(text).expect("paper example parses").program;
        let (n, per) = EX_EDB;
        deck.push(entry(
            name,
            text,
            &workloads::edb_for(&program, n, per, seed),
        ));
    }
    deck
}

/// The `fixpoint` deck: recursive queries that need every column.
pub fn fixpoint_deck(seed: u64) -> Vec<Entry> {
    let relabel = Relabel::new(seed);
    let (n, m) = TC_GRAPH;
    let sg = parse_program(SG_RULES).expect("sg parses").program;
    let (sg_n, sg_per) = SG_EDB;
    let (parts, fanout) = BOM_REACH;
    vec![
        entry("tc", TC_RULES, &workloads::random_digraph("p", n, m, seed)),
        entry("sg", SG_RULES, &workloads::edb_for(&sg, sg_n, sg_per, seed)),
        entry(
            "bom_reach",
            REACH_RULES,
            &relabel.facts(&workloads::bom(parts, fanout, 0)),
        ),
    ]
}

/// The `serve-mixed` org chart: a complete `reports` tree, relabelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Org {
    /// Rules and facts, no query (the server LOADs this file).
    pub text: String,
    /// Relabelled node ids by depth (root at depth 0).
    pub levels: Vec<Vec<i64>>,
}

pub fn org(seed: u64) -> Org {
    let (arity, depth) = ORG_TREE;
    let relabel = Relabel::new(seed);
    let facts = relabel.facts(&workloads::tree("reports", arity, depth));
    // `workloads::tree` numbers nodes breadth-first from the root.
    let mut levels = Vec::new();
    let (mut first, mut width) = (0i64, 1i64);
    for _ in 0..=depth {
        levels.push((first..first + width).map(|v| relabel.map(v)).collect());
        first += width;
        width *= arity;
    }
    Org {
        text: program_text(ORG_RULES, &facts),
        levels,
    }
}

/// Zipf(1) choice among `n` items presented in a seeded order: a few hot
/// items, a long cold tail, and a hot set that differs per seed.
#[derive(Debug, Clone)]
pub struct Skewed {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Skewed {
    pub fn new(n: usize, rng: &mut Rng) -> Skewed {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Skewed { cdf, order }
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(paper_deck(3), paper_deck(3));
        assert_eq!(fixpoint_deck(3), fixpoint_deck(3));
        assert_eq!(org(3), org(3));
    }

    #[test]
    fn other_seed_other_constants_same_shape() {
        for (a, b) in paper_deck(3).iter().zip(paper_deck(4).iter()) {
            assert_eq!(a.name, b.name);
            assert_ne!(a.text, b.text, "{} ignores the seed", a.name);
        }
        for (a, b) in fixpoint_deck(3).iter().zip(fixpoint_deck(4).iter()) {
            assert_ne!(a.text, b.text, "{} ignores the seed", a.name);
        }
        let (x, y) = (org(3), org(4));
        assert_ne!(x.text, y.text);
        assert_eq!(x.text.lines().count(), y.text.lines().count());
    }

    #[test]
    fn decks_parse_and_keep_their_sizes() {
        for e in paper_deck(1).iter().chain(fixpoint_deck(1).iter()) {
            let parsed = parse_program(&e.text).unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert!(parsed.program.query.is_some(), "{} has no query", e.name);
        }
        let chain = &paper_deck(9)[0];
        let facts = FactSet::from_parsed(&parse_program(&chain.text).unwrap().facts);
        assert_eq!(facts.len(), E1_CHAIN as usize);
    }

    #[test]
    fn relabel_is_a_bijection_on_small_ids() {
        let r = Relabel::new(11);
        let mut seen: Vec<i64> = (0..50_000).map(|v| r.map(v)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 50_000);
    }

    #[test]
    fn org_levels_match_the_tree() {
        let o = org(2);
        let sizes: Vec<usize> = o.levels.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![1, 4, 16, 64, 256, 1024]);
        let root = o.levels[0][0];
        assert!(o
            .text
            .contains(&format!("reports({root}, {})", o.levels[1][0])));
    }

    #[test]
    fn skew_is_seeded_and_concentrated() {
        let mut rng = Rng::new(5);
        let s = Skewed::new(1000, &mut rng);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[s.pick(&mut rng)] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        assert!(
            hottest > 1000,
            "Zipf(1) over 1000 puts ~13% on the top item"
        );
        let mut again = Rng::new(5);
        let t = Skewed::new(1000, &mut again);
        assert_eq!(s.order, t.order);
    }
}
