//! Tuple storage for one predicate: append-only rows, duplicate
//! elimination, and composite indices over column sets.
//!
//! Rows are append-only and keep insertion order, which is what lets
//! semi-naive evaluation address "the delta" as a contiguous row-id range.
//! Beside the rows sits a bounded mutable tail plus immutable sorted runs
//! (see [`crate::storage`]). Dedup is a bloom-gated binary search over
//! flat `(hash, id)` pairs (no duplicate copy of any tuple — the row store
//! is only consulted to verify a hash match); probes binary-search each
//! run's materialized key array and emit per-run slices whose
//! concatenation is ascending. Runs are sealed at the freeze barrier (see
//! [`Relation::seal`]) and when a fixpoint merge appends an iteration's new
//! rows ([`Relation::append_new`]), and consolidated geometrically.
//!
//! Indices are *planned up front* (from the compiled join plans) via
//! [`Relation::ensure_index`] and maintained incrementally by
//! [`Relation::insert`] and [`Relation::append_new`] from then on. Probing is a `&self` operation
//! ([`Relation::probe_range`]), which is what lets one frozen relation be
//! shared across worker threads during a parallel fixpoint iteration.

use std::collections::HashMap;

use datalog_ast::Value;

use crate::storage::{self, BloomTally, IndexRuns, ProbeHits, TupleRuns, TAIL_LIMIT};

/// A stored relation. See the module docs for the storage contract.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: usize,
    rows: Vec<Box<[Value]>>,
    dedup: TupleRuns,
    indices: HashMap<Box<[usize]>, IndexRuns>,
}

impl Relation {
    /// New empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            ..Relation::default()
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics (debug) on arity mismatch; callers validate arities upfront.
    pub fn insert(&mut self, tuple: &[Value]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity, "relation arity mismatch");
        if self.dedup.contains(&self.rows, tuple) {
            return false;
        }
        let boxed: Box<[Value]> = tuple.into();
        let row_id = self.rows.len() as u32;
        for (cols, index) in self.indices.iter_mut() {
            index.tail_insert(cols, &boxed, row_id);
        }
        self.dedup.note_insert(boxed.clone());
        self.rows.push(boxed);
        if self.dedup.tail_len() >= TAIL_LIMIT {
            self.seal();
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.dedup.contains(&self.rows, tuple)
    }

    /// Membership among the rows with id below `below`, all of which must
    /// be sealed. `hash` is [`storage::hash_key`] of `tuple`. Only the
    /// immutable runs are read and bloom counts go to `tally`, so workers
    /// can test candidates against a frozen relation concurrently.
    pub fn contains_below(
        &self,
        tuple: &[Value],
        hash: u64,
        below: usize,
        tally: &mut BloomTally,
    ) -> bool {
        debug_assert!(
            below <= self.dedup.sealed(),
            "rows below {below} not sealed"
        );
        self.dedup
            .contains_sealed(&self.rows, tuple, hash, below, tally)
    }

    /// Append rows known to be absent and pairwise distinct: `flat` holds
    /// them at arity stride, `hashes` their [`storage::hash_key`]s. The new
    /// rows take the next ids in order and are sealed as one dedup run and
    /// one run per index; consolidation is left to the next
    /// [`Relation::seal`].
    pub fn append_new(&mut self, flat: &[Value], hashes: &[u64]) {
        let n = hashes.len();
        debug_assert_eq!(flat.len(), n * self.arity, "flat rows off stride");
        debug_assert!(
            self.absent_and_distinct(flat, hashes),
            "append_new of a known row"
        );
        if n == 0 {
            return;
        }
        self.seal_tail();
        let start = self.rows.len();
        if self.arity == 0 {
            self.rows.push(Box::default());
        } else {
            self.rows.extend(flat.chunks(self.arity).map(Box::from));
        }
        self.dedup.seal_hashed(hashes);
        for (cols, index) in self.indices.iter_mut() {
            index.seal_range(&self.rows, cols, start, start + n);
        }
    }

    /// The check behind [`Relation::append_new`]'s debug assertion: every
    /// hash is right, no row is stored yet, and no two rows are equal. It
    /// leaves the process-wide bloom counters alone.
    fn absent_and_distinct(&self, flat: &[Value], hashes: &[u64]) -> bool {
        let row = |i: usize| &flat[i * self.arity..(i + 1) * self.arity];
        let sealed = self.dedup.sealed();
        let mut tally = BloomTally::default();
        let absent = (0..hashes.len()).all(|i| {
            hashes[i] == storage::hash_key(row(i).iter().copied())
                && !self.rows[sealed..].iter().any(|r| **r == *row(i))
                && !self
                    .dedup
                    .contains_sealed(&self.rows, row(i), hashes[i], sealed, &mut tally)
        });
        // Equal rows have equal hashes: compare rows within hash groups.
        let mut order: Vec<(u64, usize)> = hashes.iter().copied().zip(0..).collect();
        order.sort_unstable();
        absent
            && (0..order.len()).all(|a| {
                order[a + 1..]
                    .iter()
                    .take_while(|b| b.0 == order[a].0)
                    .all(|b| row(b.1) != row(order[a].1))
            })
    }

    /// Row by id.
    pub fn row(&self, id: usize) -> &[Value] {
        &self.rows[id]
    }

    /// Iterate rows in the id range `[start, end)`.
    pub fn rows_in(&self, start: usize, end: usize) -> impl Iterator<Item = (usize, &[Value])> {
        self.rows[start..end]
            .iter()
            .enumerate()
            .map(move |(i, r)| (start + i, &**r))
    }

    /// Seal the mutable tail into a sorted run and consolidate runs
    /// geometrically. Safe at any point: sealing changes only the
    /// acceleration structures, never the rows or their ids. The evaluator
    /// calls this at every freeze barrier so each iteration's probes run
    /// against consolidated runs; inserts also seal automatically past
    /// [`TAIL_LIMIT`] to bound tail memory.
    pub fn seal(&mut self) {
        self.seal_tail();
        if !self.dedup.wants_merge() {
            return;
        }
        let t0 = std::time::Instant::now();
        while self.dedup.wants_merge() {
            self.dedup.merge_last_two();
            for (cols, index) in self.indices.iter_mut() {
                index.merge_last_two(cols);
            }
        }
        storage::note_consolidation(t0.elapsed().as_nanos() as u64);
    }

    /// Seal the mutable tail into one new run, without consolidating.
    fn seal_tail(&mut self) {
        let (start, end) = (self.dedup.sealed(), self.rows.len());
        if end > start {
            self.dedup.seal_to(&self.rows, end);
            for (cols, index) in self.indices.iter_mut() {
                index.seal_range(&self.rows, cols, start, end);
            }
        }
    }

    /// Seal and merge every run into one. The geometric policy in
    /// [`Relation::seal`] bounds amortized ingest cost; this is the
    /// read-optimized endpoint for idle or maintenance compaction:
    /// afterwards every probe pays one bloom check and one binary search
    /// instead of one per run. Like sealing, it changes only the
    /// acceleration structures — rows, ids, and probe results are
    /// untouched.
    pub fn consolidate(&mut self) {
        self.seal();
        if self.dedup.run_count() <= 1 {
            return;
        }
        let t0 = std::time::Instant::now();
        self.dedup.consolidate();
        for (cols, index) in self.indices.iter_mut() {
            index.consolidate(cols);
        }
        storage::note_consolidation(t0.elapsed().as_nanos() as u64);
    }

    /// Number of sealed sorted runs.
    pub fn run_count(&self) -> usize {
        self.dedup.run_count()
    }

    /// Estimated heap bytes spent on acceleration structures (dedup +
    /// indices) beyond the row store itself.
    pub fn overhead_bytes_estimate(&self) -> usize {
        let indices: usize = self.indices.values().map(IndexRuns::bytes_estimate).sum();
        self.dedup.bytes_estimate(self.arity) + indices
    }

    /// Build the index over the column set `cols` if it does not exist yet.
    /// `cols` must be non-empty, strictly ascending, and within the arity.
    /// Once built, the index is maintained incrementally by `insert`.
    ///
    /// A late-planned index is built from the sealed dedup-run bounds —
    /// contiguous range scans, one sort per run — rather than a full-table
    /// hash build, and the rebuild is counted in the process-wide storage
    /// telemetry.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty(), "index over the empty column set");
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns not sorted");
        debug_assert!(cols.iter().all(|&c| c < self.arity), "column out of range");
        if self.indices.contains_key(cols) {
            return;
        }
        let index = IndexRuns::build(&self.rows, cols, &self.dedup.bounds(), self.dedup.sealed());
        self.indices.insert(cols.into(), index);
    }

    /// Ids of rows in `[start, end)` whose projection onto `cols` equals
    /// `key`. Row ids within each run group are ascending, so the
    /// `[start, end)` bounds are found by binary search instead of a linear
    /// filter — the caller gets exactly the delta range's hits with no
    /// copying, in ascending id order.
    ///
    /// The index over `cols` must have been built with
    /// [`Relation::ensure_index`]; probing is read-only so a frozen
    /// relation can be shared across threads.
    ///
    /// # Panics
    /// Panics if no index over `cols` exists.
    pub fn probe_range(
        &self,
        cols: &[usize],
        key: &[Value],
        start: usize,
        end: usize,
    ) -> ProbeHits<'_> {
        let index = self
            .indices
            .get(cols)
            .unwrap_or_else(|| panic!("probe_range over unplanned index {cols:?}"));
        let mut out = ProbeHits::new();
        index.probe(key, start, end, &mut out);
        out
    }

    /// Whether an index over the column set `cols` has been materialized.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.indices.contains_key(cols)
    }

    /// Iterate all rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| &**r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        assert!(r.insert(&t(&[1, 2])));
        assert!(!r.insert(&t(&[1, 2])));
        assert!(r.insert(&t(&[2, 1])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[1, 2])));
        assert!(!r.contains(&t(&[3, 3])));
    }

    #[test]
    fn rows_keep_insertion_order() {
        let mut r = Relation::new(1);
        for i in 0..5 {
            r.insert(&t(&[i]));
        }
        let ids: Vec<usize> = r.rows_in(2, 5).map(|(i, _)| i).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(r.row(3), &t(&[3])[..]);
    }

    #[test]
    fn ensure_index_builds_then_insert_maintains() {
        let mut r = Relation::new(2);
        r.insert(&t(&[1, 10]));
        r.insert(&t(&[2, 20]));
        r.insert(&t(&[1, 30]));
        assert!(!r.has_index(&[0]));
        r.ensure_index(&[0]);
        assert!(r.has_index(&[0]));
        let hits = r.probe_range(&[0], &t(&[1]), 0, 3);
        assert_eq!(hits.to_vec(), vec![0, 2]);
        // Insert after index creation: index must stay in sync.
        r.insert(&t(&[1, 40]));
        let hits = r.probe_range(&[0], &t(&[1]), 0, 4);
        assert_eq!(hits.to_vec(), vec![0, 2, 3]);
        // Probing a missing value yields nothing.
        assert!(r.probe_range(&[0], &t(&[9]), 0, 4).is_empty());
    }

    #[test]
    fn probe_range_binary_searches_the_bounds() {
        let mut r = Relation::new(2);
        // Rows 0..8; even row ids carry key 7.
        for i in 0..8 {
            r.insert(&t(&[if i % 2 == 0 { 7 } else { 1 }, i]));
        }
        r.ensure_index(&[0]);
        let key = t(&[7]);
        // Full range: all even ids.
        assert_eq!(r.probe_range(&[0], &key, 0, 8).to_vec(), vec![0, 2, 4, 6]);
        // A delta range strictly inside: only the hits within it.
        assert_eq!(r.probe_range(&[0], &key, 2, 6).to_vec(), vec![2, 4]);
        // Boundaries are half-open: start is inclusive, end exclusive.
        assert_eq!(r.probe_range(&[0], &key, 2, 7).to_vec(), vec![2, 4, 6]);
        assert_eq!(r.probe_range(&[0], &key, 3, 6).to_vec(), vec![4]);
        // Ranges touching the ends and empty ranges.
        assert_eq!(r.probe_range(&[0], &key, 6, 8).to_vec(), vec![6]);
        assert!(r.probe_range(&[0], &key, 7, 8).is_empty());
        assert!(r.probe_range(&[0], &key, 4, 4).is_empty());
    }

    #[test]
    fn composite_index_probes_all_bound_columns() {
        let mut r = Relation::new(3);
        r.insert(&t(&[1, 5, 9]));
        r.insert(&t(&[1, 6, 9]));
        r.insert(&t(&[1, 5, 8]));
        r.insert(&t(&[2, 5, 9]));
        r.ensure_index(&[0, 2]);
        assert!(r.has_index(&[0, 2]));
        assert!(!r.has_index(&[0]));
        assert_eq!(
            r.probe_range(&[0, 2], &t(&[1, 9]), 0, 4).to_vec(),
            vec![0, 1]
        );
        assert_eq!(r.probe_range(&[0, 2], &t(&[2, 9]), 0, 4).to_vec(), vec![3]);
        assert!(r.probe_range(&[0, 2], &t(&[2, 8]), 0, 4).is_empty());
        // The composite index stays fresh across inserts too.
        r.insert(&t(&[1, 7, 9]));
        assert_eq!(
            r.probe_range(&[0, 2], &t(&[1, 9]), 0, 5).to_vec(),
            vec![0, 1, 4]
        );
    }

    #[test]
    fn zero_arity_relation_holds_one_row() {
        let mut r = Relation::new(0);
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
    }

    #[test]
    fn sealing_preserves_probe_results_and_order() {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        let mut expect: Vec<u32> = Vec::new();
        // Interleave inserts with seals so hits span several runs + tail.
        for i in 0..300i64 {
            if r.insert(&t(&[i % 5, i])) && i % 5 == 2 {
                expect.push(i as u32);
            }
            if i % 37 == 0 {
                r.seal();
            }
        }
        assert!(r.run_count() >= 1, "seals produced no runs");
        let key = t(&[2]);
        assert_eq!(r.probe_range(&[0], &key, 0, 300).to_vec(), expect);
        // Delta subranges stay exact across run boundaries.
        let sub: Vec<u32> = expect
            .iter()
            .copied()
            .filter(|&i| (40..200).contains(&(i as usize)))
            .collect();
        assert_eq!(r.probe_range(&[0], &key, 40, 200).to_vec(), sub);
        // Full seal + consolidation: identical again.
        r.seal();
        assert_eq!(r.probe_range(&[0], &key, 0, 300).to_vec(), expect);
        for i in 0..300i64 {
            assert!(r.contains(&t(&[i % 5, i])));
        }
        assert!(!r.contains(&t(&[7, 7])));
    }

    #[test]
    fn consolidate_collapses_runs_and_preserves_results() {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        for i in 0..400i64 {
            r.insert(&t(&[i % 7, i]));
            if i % 31 == 0 {
                r.seal();
            }
        }
        r.seal();
        assert!(
            r.run_count() >= 2,
            "workload produced {} runs",
            r.run_count()
        );
        let before: Vec<u32> = r.probe_range(&[0], &t(&[3]), 0, 400).to_vec();
        r.consolidate();
        assert_eq!(r.run_count(), 1);
        assert_eq!(r.probe_range(&[0], &t(&[3]), 0, 400).to_vec(), before);
        assert_eq!(
            r.probe_range(&[0], &t(&[3]), 50, 200).to_vec(),
            before
                .iter()
                .copied()
                .filter(|&i| (50..200).contains(&(i as usize)))
                .collect::<Vec<u32>>()
        );
        for i in 0..400i64 {
            assert!(r.contains(&t(&[i % 7, i])));
        }
        assert!(!r.contains(&t(&[8, 8])));
    }

    /// Brute-force reference for the storage contract: membership is a
    /// linear scan of the rows, and a probe filters `rows[start..end]` on
    /// the projected key, which yields ascending ids by construction.
    #[derive(Default)]
    struct Model {
        rows: Vec<Vec<Value>>,
    }

    impl Model {
        fn insert(&mut self, tuple: &[Value]) -> bool {
            if self.contains(tuple) {
                return false;
            }
            self.rows.push(tuple.to_vec());
            true
        }

        fn contains(&self, tuple: &[Value]) -> bool {
            self.rows.iter().any(|r| r[..] == *tuple)
        }

        fn probe(&self, cols: &[usize], key: &[Value], start: usize, end: usize) -> Vec<u32> {
            (start..end)
                .filter(|&i| cols.iter().zip(key).all(|(&c, v)| self.rows[i][c] == *v))
                .map(|i| i as u32)
                .collect()
        }
    }

    #[test]
    fn relation_matches_brute_force_model() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let mut rel = Relation::new(3);
        let mut model = Model::default();
        let mut planned: Vec<&[usize]> = vec![&[0], &[0, 1]];
        let mut late: Vec<&[usize]> = vec![&[2], &[1, 2], &[0, 2], &[0, 1, 2]];
        for cols in &planned {
            rel.ensure_index(cols);
        }
        let (mut inserts, mut auto_seals, mut merges) = (0usize, 0usize, 0usize);
        for step in 0..12_000usize {
            // Quiet epochs leave sealing to the tail limit alone.
            let explicit_seals = (step / 3000) % 2 == 1;
            // Late-planned indices are built over sealed runs plus a tail.
            if step % 2500 == 2000 {
                assert!(rel.run_count() > 0, "step {step}: no sealed runs yet");
                let cols = late.remove(0);
                rel.ensure_index(cols);
                planned.push(cols);
            }
            let runs_before = rel.run_count();
            let tail_before = rel.len() - rel.dedup.sealed();
            let op = rng(1000);
            if op < 600 {
                let tuple = t(&[rng(64) as i64, rng(48) as i64, rng(6) as i64]);
                let new = rel.insert(&tuple);
                assert_eq!(new, model.insert(&tuple), "step {step}: insert {tuple:?}");
                inserts += 1;
                if new && rel.dedup.sealed() == rel.len() {
                    auto_seals += 1;
                    merges += usize::from(rel.run_count() <= runs_before);
                }
            } else if op < 800 {
                let tuple = if op % 2 == 0 && !model.rows.is_empty() {
                    model.rows[rng(model.rows.len())].clone()
                } else {
                    t(&[rng(64) as i64, rng(48) as i64, rng(6) as i64])
                };
                assert_eq!(
                    rel.contains(&tuple),
                    model.contains(&tuple),
                    "step {step}: contains {tuple:?}"
                );
            } else if op < 980 {
                let cols = planned[rng(planned.len())];
                let key: Vec<Value> = if op % 3 != 0 && !model.rows.is_empty() {
                    let row = &model.rows[rng(model.rows.len())];
                    cols.iter().map(|&c| row[c]).collect()
                } else {
                    cols.iter().map(|_| Value::int(rng(70) as i64)).collect()
                };
                let len = rel.len();
                let (start, end) = if op % 5 == 0 {
                    (0, len)
                } else {
                    let a = rng(len + 1);
                    (a, a + rng(len - a + 1))
                };
                assert_eq!(
                    rel.probe_range(cols, &key, start, end).to_vec(),
                    model.probe(cols, &key, start, end),
                    "step {step}: probe {cols:?} {key:?} in {start}..{end}"
                );
            } else if op < 986 && explicit_seals {
                if op < 984 {
                    rel.seal();
                    let fresh = usize::from(tail_before > 0);
                    merges += usize::from(rel.run_count() < runs_before + fresh);
                } else {
                    rel.consolidate();
                    assert!(rel.run_count() <= 1, "step {step}: consolidate left runs");
                }
            }
            assert_eq!(rel.len(), model.rows.len(), "step {step}: len");
        }
        assert!(inserts > TAIL_LIMIT, "only {inserts} inserts");
        assert!(auto_seals >= 2, "tail limit sealed {auto_seals} times");
        assert!(merges >= 1, "geometric merge never ran");
        assert!(rel.iter().eq(model.rows.iter().map(|r| &r[..])));
    }

    #[test]
    fn sorted_overhead_is_smaller_than_legacy() {
        let (rows, keys) = (5000usize, 100usize);
        let mut sorted = Relation::new(3);
        sorted.ensure_index(&[0]);
        for i in 0..rows as i64 {
            sorted.insert(&t(&[i % keys as i64, i, i * 7]));
        }
        sorted.seal();
        // The estimate the removed hash-postings backend reported for this
        // workload: one `seen` set entry per row, plus one posting list per
        // distinct one-column key (`16 + key + ids + 16` bytes each) and
        // the column-set key of the single index.
        let seen = rows * storage::tail_entry_bytes(3);
        let postings = keys * (16 + std::mem::size_of::<Value>() + 16) + rows * 4 + 1;
        let legacy = seen + postings;
        assert!(
            sorted.overhead_bytes_estimate() * 2 < legacy,
            "sorted {} vs legacy {legacy}",
            sorted.overhead_bytes_estimate()
        );
    }
}
