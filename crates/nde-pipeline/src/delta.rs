//! Incremental view maintenance for executed pipelines.
//!
//! Prioritized cleaning (paper §3) applies one small fix at a time — flip a
//! label, correct a rating, drop a duplicate — and re-evaluates the model
//! after each. Re-running the whole pipeline per fix costs milliseconds for
//! work whose footprint is a handful of rows. A [`PipelineSession`] keeps
//! the executed run alive (every operator's table, row maps, and
//! provenance) and applies a single-tuple [`Delta`] on one of three paths:
//!
//! - **Cell patch** ([`DeltaPath::CellPatch`]): an [`Delta::Update`] that
//!   cannot change any routing decision patches the changed cells of
//!   affected rows in place. Provenance is untouched — routing is identical
//!   by construction.
//! - **Splice** ([`DeltaPath::Splice`]): a [`Delta::Delete`] whose rows
//!   can be dropped along the row maps all the way to the root removes
//!   them from every node it reaches; no operator runs.
//! - **Rerun** ([`DeltaPath::Rerun`]): everything else resumes the
//!   executor at one node of the evaluation order. The nodes before it
//!   keep their (patched or row-removed) tables, provenance and traces;
//!   that node and every later one are re-executed. It needs no
//!   per-operator code: the executor is the only definition of routing and
//!   provenance interning.
//!
//! Every path leaves the session in exactly the state a fresh run over the
//! mutated inputs would produce. The differential test suite
//! (`tests/tests/incremental_delta.rs`) holds the session to that
//! contract: identical output table, identical lineage (same arena node
//! ids), at every thread count.
//!
//! The cell patch is one walk over the nodes in evaluation order that
//! never matches on the operator kind. Each node reads two things:
//!
//! - the executor's row maps ([`NodeTrace::RowMap`]): for each input and
//!   each output row, the input row that output row was built from;
//! - the declarations on its [`crate::plan::PlanNode`]: the routing
//!   columns of each input (join keys, filter predicate columns, the
//!   distinct key), the output column each carried input column becomes
//!   (a join's `_right` rename, a select's dropped columns) and a derived
//!   column (a projection).
//!
//! A tainted routing column ends the walk: the rerun resumes at that node.
//! Otherwise an output row is affected when a row map points it at an
//! affected input row, and its carried and derived cells are patched.
//!
//! # Deletes follow the row maps
//!
//! A node declares, per input, whether deleting a row of that input
//! removes exactly the output rows built from it and keeps every other
//! output row unchanged and in order
//! (`PlanNode::deletes_rows_locally`): filter, projection,
//! selection and concat on every input, an inner join on both sides, a
//! left or fuzzy join on its left side only. A delete walks the evaluation
//! order from the source: a node that loses input rows drops the output
//! rows its row maps build from them, and renumbers the row maps of the
//! rows it keeps. The walk stops at the first node that loses rows on an
//! input without the declaration (the right side of a left join, a
//! `Distinct`) or whose input would become empty (a projection over zero
//! rows types its column `Bool`); the rerun resumes there.
//!
//! The arena needs no re-interning either. Source variables are interned
//! at the scan, so a delete shifts every later arena id; the arena instead
//! drops every node whose polynomial contains the deleted tuple and
//! renumbers the rest
//! ([`crate::provenance::ProvArena::remove_tuple`]). That is the arena a
//! fresh run interns: every interning request returns the requesting row's
//! own polynomial, the rows the walk removed are exactly the rows whose
//! polynomial contains the tuple, and the surviving rows make the same
//! requests in the same order, so each surviving node is first requested
//! by the same row as before.
//!
//! # Why inserts resume
//!
//! A new source row is interned at its source scan, in the middle of the
//! arena, and it can match rows anywhere downstream. Its rerun resumes at
//! the source node: the nodes before it in the evaluation order do not
//! read that source, and the arena is cut back to its length there (each
//! node's start is in the trace, [`crate::exec::ExecTrace::arena_starts`]),
//! so the re-executed nodes intern exactly what a fresh run interns after
//! that point. A full rerun is the same resume from the first node.
//!
//! # Row identity across a rerun
//!
//! A rerun renumbers the root rows, but most of them are the same rows as
//! before: a `social_df` delete turns one row into a left-join pad, a
//! filter-column fix moves one key's rows in or out.
//! [`DeltaOutcome::row_map`] says which, so the layers downstream (encoded
//! features, model evaluators) can keep what they computed for those rows.
//! A root row's *identity* is, for each path from the root down to a
//! source, the source row it was built from (none where a left-join pad or
//! the other side of a concat breaks the path) — the identity Datascope
//! (Karlaš et al., arXiv:2204.11131) gives pipeline output rows. It is
//! composed from the traced row maps of the run before and of the run
//! after, with no per-operator code. The old identities are renumbered for
//! the delta's own shift (a delete moves that source's later rows down by
//! one). A new row whose identity an old row had is built from the same
//! source tuples by the same operators, so its cells are equal; a row with
//! a new identity, or one that names the source row an update changed, is
//! *fresh*. A splice needs no matching: its row map lists the kept rows.

use crate::exec::{Executor, NodeResult, NodeTrace, PanicPolicy, RunState};
use crate::plan::{NodeId, Plan};
use crate::provenance::{Lineage, TupleId};
use crate::{PipelineError, Result};
use nde_data::fxhash::FxHashMap;
use nde_data::par::catch_quiet;
use nde_data::{Table, Value};

/// One single-tuple change to a named source table.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Overwrite one cell of one source row.
    Update {
        /// Source table name (as registered in the plan).
        source: String,
        /// Row index within the source table.
        row: usize,
        /// Column to overwrite.
        column: String,
        /// The new value (type-checked against the column).
        value: Value,
    },
    /// Append one row to a source table.
    Insert {
        /// Source table name.
        source: String,
        /// The new row, one value per column.
        values: Vec<Value>,
    },
    /// Remove one row from a source table (later rows shift down).
    Delete {
        /// Source table name.
        source: String,
        /// Row index to remove.
        row: usize,
    },
}

impl Delta {
    /// The source table this delta targets.
    pub fn source(&self) -> &str {
        match self {
            Delta::Update { source, .. }
            | Delta::Insert { source, .. }
            | Delta::Delete { source, .. } => source,
        }
    }
}

/// Which propagation path an [`PipelineSession::apply`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPath {
    /// Cells patched in place; routing and provenance untouched.
    CellPatch,
    /// A delete's rows dropped along the row maps up to the root, and its
    /// tuple removed from the arena; no operator re-executed.
    Splice,
    /// Re-execution resumed at one node of the evaluation order: an
    /// insert, a routing-relevant update, a delete that reaches a node
    /// without a local-delete declaration or empties a node's input, or a
    /// cell patch that could not complete.
    Rerun,
}

/// Counters over a session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Deltas applied successfully.
    pub applied: usize,
    /// Applies that took [`DeltaPath::CellPatch`].
    pub cell_patches: usize,
    /// Applies that took [`DeltaPath::Splice`].
    pub splices: usize,
    /// Applies that took [`DeltaPath::Rerun`].
    pub reruns: usize,
    /// Root output rows patched in place, summed over all cell patches.
    pub rows_patched: usize,
    /// Plan nodes re-executed, summed over all applies (0 for a cell patch
    /// or a splice). The same at every thread count.
    pub nodes_rerun: usize,
}

/// What one [`PipelineSession::apply`] did to the root output.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaOutcome {
    /// The propagation path taken.
    pub path: DeltaPath,
    /// Root output rows whose content may differ from the row `row_map`
    /// names, ascending: after a cell patch, the patched rows; after a
    /// splice or a rerun, the fresh rows (those whose `row_map` entry is
    /// `None`; a splice has none).
    pub affected_rows: Vec<usize>,
    /// For every current root row, the root row it was before this apply,
    /// or `None` for a *fresh* row. A cell patch keeps every row in place
    /// (`row_map[r] == Some(r)`); a splice lists the rows it kept. After a
    /// rerun, a row maps to the old row with the same identity (see the
    /// module docs), and such a pair is equal cell for cell; old rows no
    /// entry names were removed.
    pub row_map: Vec<Option<usize>>,
}

/// No source row on this path: a left-join pad or the other side of a
/// concat.
const NO_ROW: usize = usize::MAX;

/// The identity of every root row: for each path from the root down to a
/// source, the source row the output row was built from ([`NO_ROW`] where
/// the path breaks). Row `r`'s identity is
/// `keys[r * sources.len()..(r + 1) * sources.len()]`, and `sources[p]` is
/// the source index that path `p` ends at.
struct RowKeys {
    sources: Vec<usize>,
    keys: Vec<usize>,
}

/// Affected-row/tainted-column state one node contributes during a cell
/// patch walk. Nodes without state are untouched by the update.
#[derive(Debug, Clone, Default)]
struct PatchState {
    /// Output rows whose content changed, ascending.
    affected: Vec<usize>,
    /// Columns (in this node's output schema) whose values may differ.
    tainted: Vec<String>,
}

/// How a cell-patch walk ended.
enum PatchWalk {
    /// Every node the update reached was patched; the root's affected rows.
    Done(Vec<usize>),
    /// The node at this position of the evaluation order could not be
    /// patched (a tainted routing column or a failed derived column); the
    /// nodes before it are patched, and the rerun resumes there.
    StopAt(usize),
}

/// What one node does with a cell update during the walk.
enum NodePatch {
    /// The update does not reach the node's output.
    Untouched,
    /// The `(row, column, value)` cells to write and the node's patch state.
    Patched(Vec<(usize, String, Value)>, PatchState),
    /// A tainted column decides routing here.
    Reroute,
}

/// Run `f` under the executor's panic guard, mapping a panic to a typed
/// error (the caller falls back to a rerun, which reproduces the
/// executor's own report for the same failure).
fn guarded<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_quiet(f) {
        Ok(r) => r,
        Err(msg) => Err(PipelineError::Delta(format!(
            "operator panicked during delta propagation: {msg}"
        ))),
    }
}

/// A live, incrementally maintainable pipeline run.
///
/// [`PipelineSession::build`] executes the plan once (with provenance and
/// row maps); [`PipelineSession::apply`] then folds single-tuple
/// source changes into the run. After every apply — whichever
/// [`DeltaPath`] it takes — [`PipelineSession::table`] and
/// [`PipelineSession::lineage`] are bit-identical to a fresh
/// [`Executor::run`] over the mutated inputs.
#[derive(Debug, Clone)]
pub struct PipelineSession {
    executor: Executor,
    plan: Plan,
    root: NodeId,
    source_names: Vec<String>,
    /// Current source tables, indexed like `source_names`.
    inputs: Vec<Table>,
    /// The maintained run: every node's table, provenance and trace, the
    /// evaluation order, and the arena.
    run: RunState,
    stats: DeltaStats,
    /// Set when a rerun failed: the cached state no longer matches
    /// the mutated inputs, so further applies are refused.
    poisoned: bool,
}

impl PipelineSession {
    /// Execute `root` of `plan` over `inputs` and capture the run for
    /// incremental maintenance. Provenance tracking is forced on (the
    /// session maintains lineage); the executor must use
    /// [`PanicPolicy::FailFast`] — quarantining rewrites routing per policy,
    /// which the cell-patch walk does not model.
    pub fn build(
        executor: &Executor,
        plan: &Plan,
        root: NodeId,
        inputs: &[(&str, &Table)],
    ) -> Result<PipelineSession> {
        if executor.panic_policy() != PanicPolicy::FailFast {
            return Err(PipelineError::Delta(
                "incremental maintenance requires PanicPolicy::FailFast".into(),
            ));
        }
        let executor = executor.clone().with_provenance(true);
        let source_names: Vec<String> =
            plan.source_names().into_iter().map(str::to_owned).collect();
        let mut by_name: FxHashMap<&str, &Table> = FxHashMap::default();
        for (name, table) in inputs {
            by_name.insert(name, table);
        }
        let owned: Vec<Table> = source_names
            .iter()
            .map(|n| {
                by_name
                    .get(n.as_str())
                    .map(|t| (*t).clone())
                    .ok_or_else(|| PipelineError::MissingInput(n.clone()))
            })
            .collect::<Result<_>>()?;
        let refs: Vec<(&str, &Table)> = source_names
            .iter()
            .map(String::as_str)
            .zip(&owned)
            .collect();
        let run = executor.run_traced(plan, root, &refs)?;
        Ok(PipelineSession {
            executor,
            plan: plan.clone(),
            root,
            source_names,
            inputs: owned,
            run,
            stats: DeltaStats::default(),
            poisoned: false,
        })
    }

    /// The maintained table of plan node `idx`.
    fn node_table(&self, idx: usize) -> &Table {
        &self.run.memo[&idx].0
    }

    /// The root output table, as maintained.
    pub fn table(&self) -> &Table {
        self.node_table(self.root.index())
    }

    /// The root lineage, assembled from the maintained arena and row ids.
    /// Bit-identical (same arena nodes, same ids) to a fresh traced run
    /// over the current inputs.
    pub fn lineage(&self) -> Lineage {
        Lineage::new(
            self.source_names.clone(),
            self.run.arena.clone(),
            self.run.memo[&self.root.index()]
                .1
                .clone()
                .expect("provenance forced on"),
        )
    }

    /// The current (maintained) copy of a source table.
    pub fn input(&self, name: &str) -> Option<&Table> {
        let i = self.source_names.iter().position(|s| s == name)?;
        Some(&self.inputs[i])
    }

    /// Source names in [`crate::provenance::TupleId::source`] order.
    pub fn source_names(&self) -> &[String] {
        &self.source_names
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }

    fn source_index(&self, name: &str) -> Result<usize> {
        self.source_names
            .iter()
            .position(|s| s == name)
            .ok_or_else(|| PipelineError::Delta(format!("unknown source table `{name}`")))
    }

    /// Fold one source change into the run. Validation failures (unknown
    /// source/column, out-of-bounds row, type mismatch) leave the session
    /// untouched; after a successful apply the session state matches a
    /// fresh run over the mutated inputs exactly.
    pub fn apply(&mut self, delta: &Delta) -> Result<DeltaOutcome> {
        if self.poisoned {
            return Err(PipelineError::Delta(
                "session poisoned by an earlier failed rerun; rebuild it".into(),
            ));
        }
        let src = self.source_index(delta.source())?;
        match delta {
            Delta::Update {
                row, column, value, ..
            } => {
                if *row >= self.inputs[src].n_rows() {
                    return Err(PipelineError::Delta(format!(
                        "update row {row} out of bounds for `{}` ({} rows)",
                        delta.source(),
                        self.inputs[src].n_rows()
                    )));
                }
                // `set` validates column and type before mutating.
                self.inputs[src].set(*row, column, value.clone())?;
                match self.cell_patch_walk(src, *row, column, value) {
                    PatchWalk::Done(affected) => Ok(self.commit_cell_patch(affected)),
                    // A routing change or an operator failure on the new
                    // value: re-executing from that node reproduces rerun
                    // semantics (including the error report) exactly.
                    PatchWalk::StopAt(at) => {
                        let old = self.row_keys();
                        self.rerun_from(at, old, src, delta)
                    }
                }
            }
            Delta::Insert { values, .. } => {
                // `push_row` validates arity and types atomically.
                self.inputs[src].push_row(values.clone())?;
                let order = &self.run.trace.order;
                let at = order
                    .iter()
                    .position(|idx| {
                        self.run.trace.nodes[idx] == NodeTrace::Source { source: src as u32 }
                    })
                    .unwrap_or(order.len());
                let old = self.row_keys();
                self.rerun_from(at, old, src, delta)
            }
            Delta::Delete { row, .. } => {
                let n = self.inputs[src].n_rows();
                if *row >= n {
                    return Err(PipelineError::Delta(format!(
                        "delete row {row} out of bounds for `{}` ({n} rows)",
                        delta.source(),
                    )));
                }
                let survivors: Vec<usize> = (0..n).filter(|&i| i != *row).collect();
                self.inputs[src] = self.inputs[src].take(&survivors)?;
                self.delete(src, *row, delta)
            }
        }
    }

    fn node_mut(&mut self, idx: usize) -> &mut NodeResult {
        self.run
            .memo
            .get_mut(&idx)
            .expect("every traced node is memoized")
    }

    /// Drop the nodes from position `at` of the evaluation order on: their
    /// results and traces, and the arena nodes they interned.
    fn cut(&mut self, at: usize) {
        let run = &mut self.run;
        if let Some(&len) = run.trace.arena_starts.get(at) {
            run.arena.truncate(len);
        }
        for idx in run.trace.order.drain(at..) {
            run.memo.remove(&idx);
            run.trace.nodes.remove(&idx);
        }
        run.trace.arena_starts.truncate(at);
    }

    /// Re-execute the nodes from position `at` of the evaluation order on
    /// over the mutated inputs, keeping every earlier node's maintained
    /// table, provenance and trace. A failure here (e.g. the new value
    /// makes an operator error) poisons the session — the cached state no
    /// longer matches the inputs. `old` are the root row identities before
    /// the delta, which `delta` (already applied to the inputs) renumbers.
    fn rerun_from(
        &mut self,
        at: usize,
        old: RowKeys,
        src: usize,
        delta: &Delta,
    ) -> Result<DeltaOutcome> {
        self.cut(at);
        let inputs: Vec<(&str, &Table)> = self
            .source_names
            .iter()
            .map(String::as_str)
            .zip(&self.inputs)
            .collect();
        if let Err(e) = self
            .executor
            .resume(&self.plan, self.root, &inputs, &mut self.run)
        {
            self.poisoned = true;
            return Err(e);
        }
        let row_map = match_rows(old, &self.row_keys(), src, delta);
        self.stats.applied += 1;
        self.stats.reruns += 1;
        self.stats.nodes_rerun += self.run.trace.order.len() - at;
        Ok(DeltaOutcome {
            path: DeltaPath::Rerun,
            affected_rows: (0..row_map.len())
                .filter(|&r| row_map[r].is_none())
                .collect(),
            row_map,
        })
    }

    /// Delete source row `row` of source `src` (already removed from the
    /// input): drop its rows along the row maps, and splice when that
    /// reaches the root or rerun from where it stops.
    fn delete(&mut self, src: usize, row: usize, delta: &Delta) -> Result<DeltaOutcome> {
        let (kept, at) = self.removal_walk(src, row);
        let reaches_root = at == self.run.trace.order.len();
        let old = (!reaches_root).then(|| self.row_keys());
        self.cut(at);
        if let Err(e) = self.remove_rows(&kept, TupleId::new(src as u32, row as u32)) {
            self.poisoned = true;
            return Err(e);
        }
        if let Some(old) = old {
            return self.rerun_from(at, old, src, delta);
        }
        self.stats.applied += 1;
        self.stats.splices += 1;
        let row_map = match kept.get(&self.root.index()) {
            Some(rows) => rows.iter().copied().map(Some).collect(),
            None => (0..self.table().n_rows()).map(Some).collect(),
        };
        Ok(DeltaOutcome {
            path: DeltaPath::Splice,
            affected_rows: Vec::new(),
            row_map,
        })
    }

    /// Follow a delete of row `row` of source `src` through the evaluation
    /// order. Returns the surviving rows (old indices, ascending) of every
    /// node that loses rows, and the position where the rerun has to take
    /// over: the first node that loses input rows on an input without the
    /// local-delete declaration, or whose input would become empty — or
    /// the order's length when the removal reaches the root.
    fn removal_walk(&self, src: usize, row: usize) -> (FxHashMap<usize, Vec<usize>>, usize) {
        let mut kept: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for (at, &idx) in self.run.trace.order.iter().enumerate() {
            let n = self.node_table(idx).n_rows();
            let from = match &self.run.trace.nodes[&idx] {
                NodeTrace::Source { source } => {
                    if *source as usize == src {
                        kept.insert(idx, (0..n).filter(|&r| r != row).collect());
                    }
                    continue;
                }
                NodeTrace::RowMap { from } => from,
            };
            let id = NodeId(idx);
            let node = self.plan.node(id).expect("a traced node is in the plan");
            let children = self
                .plan
                .children(id)
                .expect("a traced node is in the plan");
            let mut lost: Option<Vec<bool>> = None;
            for (i, child) in children.iter().enumerate() {
                let Some(survivors) = kept.get(&child.index()) else {
                    continue;
                };
                if survivors.is_empty() || !node.deletes_rows_locally(i) {
                    return (kept, at);
                }
                let mut gone = vec![true; self.node_table(child.index()).n_rows()];
                for &r in survivors {
                    gone[r] = false;
                }
                let lost = lost.get_or_insert_with(|| vec![false; n]);
                for (out, r) in from[i].iter().enumerate() {
                    lost[out] |= r.is_some_and(|r| gone[r]);
                }
            }
            if let Some(lost) = lost.filter(|l| l.contains(&true)) {
                kept.insert(idx, (0..n).filter(|&r| !lost[r]).collect());
            }
        }
        (kept, self.run.trace.order.len())
    }

    /// Apply a removal walk to every node of the (cut) run: keep only the
    /// `kept` rows of the nodes that lose rows — tables, provenance and
    /// row maps — renumber the row maps into inputs that lost rows, and
    /// remove tuple `t` from the arena.
    fn remove_rows(&mut self, kept: &FxHashMap<usize, Vec<usize>>, t: TupleId) -> Result<()> {
        // The new index of every surviving row of each node that lost rows.
        let renumber: FxHashMap<usize, Vec<usize>> = kept
            .iter()
            .map(|(&idx, rows)| {
                let mut new = vec![NO_ROW; self.node_table(idx).n_rows()];
                for (j, &r) in rows.iter().enumerate() {
                    new[r] = j;
                }
                (idx, new)
            })
            .collect();
        let run = &mut self.run;
        let ids = run.arena.remove_tuple(t);
        for &idx in &run.trace.order {
            let (table, prov) = run
                .memo
                .get_mut(&idx)
                .expect("every traced node is memoized");
            let rows = kept.get(&idx);
            if let Some(rows) = rows {
                *table = table.take(rows)?;
            }
            if let Some(p) = prov.as_mut() {
                let remap = |r: usize| {
                    ids[p[r].index()].expect("a surviving row's provenance lacks the deleted tuple")
                };
                *p = match rows {
                    Some(rows) => rows.iter().map(|&r| remap(r)).collect(),
                    None => (0..p.len()).map(remap).collect(),
                };
            }
            let Some(NodeTrace::RowMap { from }) = run.trace.nodes.get_mut(&idx) else {
                continue;
            };
            for (map, child) in from.iter_mut().zip(self.plan.children(NodeId(idx))?) {
                if let Some(rows) = rows {
                    *map = rows.iter().map(|&r| map[r]).collect();
                }
                if let Some(new) = renumber.get(&child.index()) {
                    for r in map.iter_mut().flatten() {
                        *r = new[*r];
                    }
                }
            }
        }
        // A node's new arena start is the number of surviving arena nodes
        // below its old start (starts ascend along the order).
        let starts = &mut run.trace.arena_starts;
        let (mut below, mut next) = (0, 0);
        for (old, id) in ids.iter().enumerate() {
            while next < starts.len() && starts[next] == old {
                starts[next] = below;
                next += 1;
            }
            below += usize::from(id.is_some());
        }
        for s in &mut starts[next..] {
            *s = below;
        }
        Ok(())
    }

    /// The identity of every root row, read from the traced row maps.
    fn row_keys(&self) -> RowKeys {
        let n = self.table().n_rows();
        let mut paths: Vec<(usize, Vec<usize>)> = Vec::new();
        self.descend(self.root, (0..n).collect(), &mut paths);
        let mut keys = vec![NO_ROW; n * paths.len()];
        for (p, (_, rows)) in paths.iter().enumerate() {
            for (r, &row) in rows.iter().enumerate() {
                keys[r * paths.len() + p] = row;
            }
        }
        RowKeys {
            sources: paths.into_iter().map(|(s, _)| s).collect(),
            keys,
        }
    }

    /// Follow `rows` (rows of `node`'s output) down every path to a source,
    /// depth first in [`Plan::children`] order, pushing one
    /// `(source, source rows)` column per path.
    fn descend(&self, node: NodeId, rows: Vec<usize>, paths: &mut Vec<(usize, Vec<usize>)>) {
        match &self.run.trace.nodes[&node.index()] {
            NodeTrace::Source { source } => paths.push((*source as usize, rows)),
            NodeTrace::RowMap { from } => {
                let children = self
                    .plan
                    .children(node)
                    .expect("a traced node is in the plan");
                for (child, map) in children.into_iter().zip(from) {
                    let below = rows
                        .iter()
                        .map(|&r| map.get(r).copied().flatten().unwrap_or(NO_ROW))
                        .collect();
                    self.descend(child, below, paths);
                }
            }
        }
    }

    fn commit_cell_patch(&mut self, root_affected: Vec<usize>) -> DeltaOutcome {
        self.stats.applied += 1;
        self.stats.cell_patches += 1;
        self.stats.rows_patched += root_affected.len();
        DeltaOutcome {
            path: DeltaPath::CellPatch,
            affected_rows: root_affected,
            row_map: (0..self.table().n_rows()).map(Some).collect(),
        }
    }

    /// The cell-patch walk: propagate `(source, row, column)` taint through
    /// the DAG without re-deciding any routing, writing the new `value`
    /// into the maintained tables in place. Every node reads the same two
    /// things: the declarations on its [`crate::plan::PlanNode`] (routing
    /// columns, the output name of each carried column, a derived column)
    /// and its traced row maps. An output row is affected when it was built
    /// from an affected input row; its carried columns are copied from that
    /// row, and a derived column whose expression reads a tainted column is
    /// re-evaluated. The walk stops at the first node where a tainted
    /// column feeds a routing decision or patching fails; the nodes before
    /// it hold what a fresh run computes for them, and the rerun resumes
    /// there (and reproduces any error).
    fn cell_patch_walk(
        &mut self,
        src: usize,
        row: usize,
        column: &str,
        value: &Value,
    ) -> PatchWalk {
        let mut states: FxHashMap<usize, PatchState> = FxHashMap::default();
        for at in 0..self.run.trace.order.len() {
            let idx = self.run.trace.order[at];
            let patch = match &self.run.trace.nodes[&idx] {
                NodeTrace::Source { source } if *source as usize == src => {
                    let cells = vec![(row, column.to_string(), value.clone())];
                    let tainted = vec![column.to_string()];
                    let affected = vec![row];
                    Ok(NodePatch::Patched(cells, PatchState { affected, tainted }))
                }
                NodeTrace::Source { .. } => continue,
                NodeTrace::RowMap { from } => self.patch_node(idx, from, &states),
            };
            match patch {
                Ok(NodePatch::Untouched) => {}
                Ok(NodePatch::Patched(cells, state)) => {
                    let table = &mut self.node_mut(idx).0;
                    for (r, c, v) in cells {
                        if table.set(r, &c, v).is_err() {
                            return PatchWalk::StopAt(at);
                        }
                    }
                    states.insert(idx, state);
                }
                Ok(NodePatch::Reroute) | Err(_) => return PatchWalk::StopAt(at),
            }
        }
        let root_affected = states
            .remove(&self.root.index())
            .map(|s| s.affected)
            .unwrap_or_default();
        PatchWalk::Done(root_affected)
    }

    /// One node of the cell-patch walk: the cells to write, read from its
    /// inputs' (already patched) tables and their patch `states`.
    fn patch_node(
        &self,
        idx: usize,
        from: &[Vec<Option<usize>>],
        states: &FxHashMap<usize, PatchState>,
    ) -> Result<NodePatch> {
        let id = NodeId(idx);
        let node = self.plan.node(id)?;
        let children = self.plan.children(id)?;
        let first = self.node_table(children[0].index());
        // Read phase: the inputs the update reached, and the cell values
        // to copy from their (already patched) tables.
        let mut live: Vec<LiveInput> = Vec::new();
        let mut tainted: Vec<String> = Vec::new();
        for (i, child) in children.iter().enumerate() {
            let Some(cs) = states.get(&child.index()) else {
                continue;
            };
            let routing = node.routing_columns(i);
            if cs.tainted.iter().any(|c| routing.contains(&c.as_str())) {
                return Ok(NodePatch::Reroute);
            }
            let table = self.node_table(child.index());
            let carried: Vec<(&str, String)> = cs
                .tainted
                .iter()
                .filter_map(|c| Some((c.as_str(), node.output_column(i, c, first)?)))
                .collect();
            for (_, out) in &carried {
                if !tainted.contains(out) {
                    tainted.push(out.clone());
                }
            }
            live.push(LiveInput {
                rows: &from[i],
                hit: affected_mask(cs, table.n_rows()),
                table,
                carried,
            });
        }
        // A derived column is computed from the first input's row.
        let recompute = node.derived_column().filter(|(_, expr)| {
            let reads = expr.columns();
            states
                .get(&children[0].index())
                .is_some_and(|s| s.tainted.iter().any(|t| reads.contains(&t.as_str())))
        });
        if let Some((derived, _)) = recompute {
            tainted.push(derived.to_string());
        }
        if tainted.is_empty() {
            return Ok(NodePatch::Untouched); // every changed column is dropped
        }
        let mut affected = Vec::new();
        let mut patches: Vec<(usize, String, Value)> = Vec::new();
        for (out, first_row) in from[0].iter().enumerate() {
            let mut hit = false;
            for input in &live {
                let Some(r) = input.rows[out].filter(|&r| input.hit[r]) else {
                    continue;
                };
                hit = true;
                for (c, oc) in &input.carried {
                    patches.push((out, oc.clone(), input.table.get(r, c)?));
                }
            }
            if !hit {
                continue;
            }
            affected.push(out);
            if let Some((derived, expr)) = recompute {
                let r = first_row.expect("derived from an input row");
                patches.push((out, derived.to_string(), guarded(|| expr.eval(first, r))?));
            }
        }
        if affected.is_empty() {
            return Ok(NodePatch::Untouched);
        }
        Ok(NodePatch::Patched(
            patches,
            PatchState { affected, tainted },
        ))
    }
}

/// Map every new root row to the old root row with the same identity.
///
/// The old identities are first renumbered for the delta's own shift: a
/// `Delete` of source row `d` moves that source's later rows down by one
/// and removes the old rows built from `d` (an `Insert` appends, so it
/// moves nothing). A new row is fresh (`None`) when no old row has its
/// identity, when its identity names the row an `Update` changed, or when
/// two old rows share its identity; each old row is matched at most once.
fn match_rows(mut old: RowKeys, new: &RowKeys, src: usize, delta: &Delta) -> Vec<Option<usize>> {
    let width = new.sources.len();
    let on_src = |p: usize, row: usize| new.sources[p] == src && row != NO_ROW;
    let mut removed = vec![false; old.keys.len() / width];
    if let Delta::Delete { row: d, .. } = *delta {
        for (r, key) in old.keys.chunks_exact_mut(width).enumerate() {
            for (p, row) in key.iter_mut().enumerate() {
                if on_src(p, *row) {
                    removed[r] |= *row == d;
                    *row -= usize::from(*row > d);
                }
            }
        }
    }
    // Old row by identity; `NO_ROW` marks an identity two old rows share,
    // or one a new row already took.
    let mut by_key: FxHashMap<&[usize], usize> = FxHashMap::default();
    for (r, key) in old.keys.chunks_exact(width).enumerate() {
        if !removed[r] {
            by_key.entry(key).and_modify(|o| *o = NO_ROW).or_insert(r);
        }
    }
    let changed = match *delta {
        Delta::Update { row, .. } => Some(row),
        _ => None,
    };
    new.keys
        .chunks_exact(width)
        .map(|key| {
            let touched = key
                .iter()
                .enumerate()
                .any(|(p, &row)| on_src(p, row) && Some(row) == changed);
            if touched {
                return None;
            }
            let slot = by_key.get_mut(key)?;
            Some(std::mem::replace(slot, NO_ROW)).filter(|&o| o != NO_ROW)
        })
        .collect()
}

/// One input of a node that the update reached.
struct LiveInput<'a> {
    /// The node's row map for this input.
    rows: &'a [Option<usize>],
    /// `hit[row]` = the input row is affected.
    hit: Vec<bool>,
    /// The input's (patched) table.
    table: &'a Table,
    /// Tainted input columns the node keeps, with their output names.
    carried: Vec<(&'a str, String)>,
}

/// `mask[row]` = the row is affected.
fn affected_mask(state: &PatchState, len: usize) -> Vec<bool> {
    let mut mask = vec![false; len];
    for &r in &state.affected {
        mask[r] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use nde_data::generate::hiring::HiringScenario;
    use nde_data::{DataType, Field, Schema};

    fn hiring_inputs(s: &HiringScenario) -> Vec<(&'static str, &Table)> {
        vec![
            ("train_df", &s.letters),
            ("jobdetail_df", &s.job_details),
            ("social_df", &s.social),
        ]
    }

    /// Assert the session state is bit-identical to a fresh traced run over
    /// the session's current inputs — table, lineage (same arena ids), and
    /// every intermediate.
    fn assert_matches_fresh(session: &PipelineSession) {
        let inputs: Vec<(&str, &Table)> = session
            .source_names
            .iter()
            .map(String::as_str)
            .zip(session.inputs.iter())
            .collect();
        let fresh = session
            .executor
            .run_traced(&session.plan, session.root, &inputs)
            .expect("fresh run succeeds");
        let root = &fresh.memo[&session.root.index()];
        assert_eq!(session.table(), &root.0, "root table diverged");
        let lineage = Lineage::new(
            session.source_names.clone(),
            fresh.arena.clone(),
            root.1.clone().expect("provenance on"),
        );
        assert_eq!(session.lineage(), lineage, "lineage diverged");
        assert_eq!(
            session.run.trace.order, fresh.trace.order,
            "evaluation order diverged"
        );
        assert_eq!(
            session.run.trace.arena_starts, fresh.trace.arena_starts,
            "arena starts diverged"
        );
        assert_eq!(session.run.memo.len(), fresh.memo.len());
        for (idx, tr) in &fresh.trace.nodes {
            assert_eq!(
                session.run.trace.nodes.get(idx),
                Some(tr),
                "trace diverged at node {idx}"
            );
        }
        for (idx, (table, prov)) in &fresh.memo {
            let (kept_table, kept_prov) = &session.run.memo[idx];
            assert_eq!(kept_table, table, "table diverged at node {idx}");
            assert_eq!(kept_prov, prov, "provenance ids diverged at node {idx}");
        }
    }

    /// Apply `delta` and hold the outcome to the maintenance contract: the
    /// expected path, a state identical to a fresh traced run, every root
    /// row whose cells changed listed in `affected_rows`, and every row the
    /// row map keeps equal to the old row it names.
    fn apply_checked(session: &mut PipelineSession, delta: &Delta, path: DeltaPath) -> Vec<usize> {
        apply_mapped(session, delta, path).affected_rows
    }

    /// [`apply_checked`], returning the whole outcome.
    fn apply_mapped(session: &mut PipelineSession, delta: &Delta, path: DeltaPath) -> DeltaOutcome {
        let before = session.table().clone();
        let outcome = session.apply(delta).unwrap();
        assert_eq!(outcome.path, path, "{delta:?}");
        assert_matches_fresh(session);
        let after = session.table();
        assert_eq!(outcome.row_map.len(), after.n_rows(), "{delta:?}");
        let mut named = vec![false; before.n_rows()];
        for (r, from) in outcome.row_map.iter().enumerate() {
            match *from {
                Some(o) => {
                    assert!(!named[o], "{delta:?}: old row {o} named twice");
                    named[o] = true;
                    let changed = after.row(r).unwrap() != before.row(o).unwrap();
                    assert!(
                        !changed || outcome.affected_rows.contains(&r),
                        "{delta:?}: row {r} (was {o}) changed but is not listed"
                    );
                }
                None => assert!(
                    outcome.affected_rows.contains(&r),
                    "{delta:?}: fresh row {r} is not listed"
                ),
            }
        }
        if path == DeltaPath::CellPatch {
            assert!(outcome
                .row_map
                .iter()
                .enumerate()
                .all(|(r, &o)| o == Some(r)));
        } else {
            let fresh: Vec<usize> = (0..after.n_rows())
                .filter(|&r| outcome.row_map[r].is_none())
                .collect();
            assert_eq!(outcome.affected_rows, fresh, "{delta:?}");
        }
        outcome
    }

    #[test]
    fn build_captures_a_run() {
        let s = HiringScenario::generate(60, 3);
        let (plan, root) = Plan::hiring_pipeline();
        let session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        assert!(session.table().n_rows() > 0);
        assert_eq!(session.lineage().n_rows(), session.table().n_rows());
        assert_matches_fresh(&session);
    }

    #[test]
    fn build_rejects_skip_and_record() {
        let s = HiringScenario::generate(20, 3);
        let (plan, root) = Plan::hiring_pipeline();
        let err = PipelineSession::build(
            &Executor::new().with_panic_policy(PanicPolicy::SkipAndRecord),
            &plan,
            root,
            &hiring_inputs(&s),
        );
        assert!(matches!(err, Err(PipelineError::Delta(_))));
    }

    #[test]
    fn update_takes_cell_patch_and_matches_fresh() {
        let s = HiringScenario::generate(80, 7);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        let outcome = session
            .apply(&Delta::Update {
                source: "train_df".into(),
                row: 5,
                column: "employer_rating".into(),
                value: Value::Float(9.5),
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::CellPatch);
        assert_matches_fresh(&session);
        assert_eq!(session.stats().cell_patches, 1);
        // The patched value is visible wherever source row 5 reached.
        for &out in &outcome.affected_rows {
            assert_eq!(
                session.table().get(out, "employer_rating").unwrap(),
                Value::Float(9.5)
            );
        }
    }

    #[test]
    fn right_input_patch_recomputes_the_projection() {
        let s = HiringScenario::generate(80, 7);
        let (plan, root) = Plan::hiring_pipeline();
        for threads in [1, 2, 4, 7] {
            let mut session = PipelineSession::build(
                &Executor::new().with_threads(threads),
                &plan,
                root,
                &hiring_inputs(&s),
            )
            .unwrap();
            // An output row whose person has a twitter handle: its social row
            // reaches the output through the left join's right input.
            let out = (0..session.table().n_rows())
                .find(|&r| session.table().get(r, "has_twitter").unwrap() == Value::Bool(true))
                .expect("some output row has twitter");
            let person = session.table().get(out, "person_id").unwrap();
            let social_row = (0..s.social.n_rows())
                .find(|&r| s.social.get(r, "person_id").unwrap() == person)
                .unwrap();
            let handle = s.social.get(social_row, "twitter").unwrap();
            for (value, has) in [(Value::Null, false), (handle, true)] {
                let fix = Delta::Update {
                    source: "social_df".into(),
                    row: social_row,
                    column: "twitter".into(),
                    value,
                };
                // Each person has one letter and one social row.
                let affected = apply_checked(&mut session, &fix, DeltaPath::CellPatch);
                assert_eq!(affected, vec![out]);
                for &r in &affected {
                    assert_eq!(
                        session.table().get(r, "has_twitter").unwrap(),
                        Value::Bool(has)
                    );
                }
            }
        }
    }

    #[test]
    fn right_input_patch_follows_the_join_rename() {
        let schema = || {
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("score", DataType::Float),
            ])
            .unwrap()
        };
        let mut left = Table::empty("left", schema());
        for (id, score) in [(1, 0.5), (2, 0.7), (3, 0.9), (2, 0.1)] {
            left.push_row(vec![Value::Int(id), score.into()]).unwrap();
        }
        let mut right = Table::empty("right", schema());
        for (id, score) in [(1, 10.0), (2, 20.0)] {
            right.push_row(vec![Value::Int(id), score.into()]).unwrap();
        }
        let mut plan = Plan::new();
        let l = plan.source("left");
        let r = plan.source("right");
        let root = plan.join(l, r, "id", "id", crate::plan::JoinType::Left);
        let inputs: Vec<(&str, &Table)> = vec![("left", &left), ("right", &right)];
        for threads in [1, 2, 4, 7] {
            let mut session = PipelineSession::build(
                &Executor::new().with_threads(threads),
                &plan,
                root,
                &inputs,
            )
            .unwrap();
            let fix = Delta::Update {
                source: "right".into(),
                row: 1,
                column: "score".into(),
                value: Value::Float(25.0),
            };
            let affected = apply_checked(&mut session, &fix, DeltaPath::CellPatch);
            assert_eq!(affected, vec![1, 3]);
            for r in affected {
                assert_eq!(
                    session.table().get(r, "score_right").unwrap(),
                    Value::Float(25.0)
                );
            }
        }
    }

    #[test]
    fn routing_update_falls_back_to_rerun() {
        let s = HiringScenario::generate(60, 11);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        // `sector` feeds the healthcare filter: structural.
        let outcome = session
            .apply(&Delta::Update {
                source: "jobdetail_df".into(),
                row: 0,
                column: "sector".into(),
                value: Value::Str("healthcare".into()),
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Rerun);
        assert_matches_fresh(&session);
        // `job_id` is a join key: structural too.
        let outcome = session
            .apply(&Delta::Update {
                source: "train_df".into(),
                row: 2,
                column: "job_id".into(),
                value: Value::Int(1),
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Rerun);
        assert_matches_fresh(&session);
        assert_eq!(session.stats().reruns, 2);
    }

    #[test]
    fn insert_and_delete_rerun_and_match_fresh() {
        let s = HiringScenario::generate(80, 13);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        // Append a social row for a person that exists (left join gains a
        // real match) — rerun.
        let person = s.letters.get(0, "person_id").unwrap();
        let outcome = session
            .apply(&Delta::Insert {
                source: "social_df".into(),
                values: vec![person, Value::Str("@new".into()), Value::Int(10)],
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Rerun);
        assert_matches_fresh(&session);
        // Delete a letters row: its rows are dropped along the row maps.
        let outcome = session
            .apply(&Delta::Delete {
                source: "train_df".into(),
                row: 3,
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Splice);
        assert_matches_fresh(&session);
        assert_eq!(session.stats().reruns, 1);
        assert_eq!(session.stats().splices, 1);
    }

    /// `(fresh rows, surviving rows, removed old rows)` of a rerun outcome.
    fn census(outcome: &DeltaOutcome, old_rows: usize) -> (usize, usize, usize) {
        let fresh = outcome.affected_rows.len();
        let kept = outcome.row_map.len() - fresh;
        (fresh, kept, old_rows - kept)
    }

    #[test]
    fn rerun_maps_surviving_rows_to_their_old_rows() {
        let s = HiringScenario::generate(120, 19);
        let (plan, root) = Plan::hiring_pipeline();
        for threads in [1, 2, 4, 7] {
            let mut session = PipelineSession::build(
                &Executor::new().with_threads(threads),
                &plan,
                root,
                &hiring_inputs(&s),
            )
            .unwrap();
            let letter_of = |session: &PipelineSession, out: usize| {
                let pid = session.table().get(out, "person_id").unwrap();
                let letters = session.input("train_df").unwrap();
                (0..letters.n_rows())
                    .find(|&r| letters.get(r, "person_id").unwrap() == pid)
                    .unwrap()
            };
            // How many plan nodes the last apply re-executed.
            let mut nodes_before = 0;
            let mut rerun_nodes = |session: &PipelineSession| {
                let nodes = session.stats().nodes_rerun;
                nodes - std::mem::replace(&mut nodes_before, nodes)
            };
            // Deleting a letter that reaches the output removes exactly its
            // row; every later row survives one position down. No node
            // runs: the letters side of both joins declares local deletes.
            let n = session.table().n_rows();
            let row = letter_of(&session, 3);
            let delete = Delta::Delete {
                source: "train_df".into(),
                row,
            };
            let outcome = apply_mapped(&mut session, &delete, DeltaPath::Splice);
            assert_eq!(census(&outcome, n), (0, n - 1, 1));
            let expect: Vec<Option<usize>> = (0..n).filter(|&o| o != 3).map(Some).collect();
            assert_eq!(outcome.row_map, expect);
            assert_eq!(rerun_nodes(&session), 0);

            // Re-inserting it appends one fresh row and keeps the rest; the
            // letters scan is the first node, so all seven re-execute.
            let values = s.letters.row(row).unwrap();
            let n = session.table().n_rows();
            let insert = Delta::Insert {
                source: "train_df".into(),
                values,
            };
            let outcome = apply_mapped(&mut session, &insert, DeltaPath::Rerun);
            assert_eq!(census(&outcome, n), (1, n, 0));
            assert_eq!(rerun_nodes(&session), 7);

            // A `sector` fix moves one job's letters out of the filter, then
            // back in: removed rows, then as many fresh ones.
            let job = session.table().get(0, "job_id").unwrap();
            let jobs = session.input("jobdetail_df").unwrap();
            let job_row = (0..jobs.n_rows())
                .find(|&r| jobs.get(r, "job_id").unwrap() == job)
                .unwrap();
            let n = session.table().n_rows();
            let out_of = Delta::Update {
                source: "jobdetail_df".into(),
                row: job_row,
                column: "sector".into(),
                value: Value::Str("tech".into()),
            };
            // The joins are patched; the filter and the projection rerun.
            let outcome = apply_mapped(&mut session, &out_of, DeltaPath::Rerun);
            let (fresh, kept, removed) = census(&outcome, n);
            assert_eq!((fresh, kept), (0, n - removed));
            assert!(removed >= 1);
            assert_eq!(rerun_nodes(&session), 2);
            let into = Delta::Update {
                source: "jobdetail_df".into(),
                row: job_row,
                column: "sector".into(),
                value: Value::Str("healthcare".into()),
            };
            let outcome = apply_mapped(&mut session, &into, DeltaPath::Rerun);
            assert_eq!(census(&outcome, n - removed), (removed, n - removed, 0));
            assert_eq!(rerun_nodes(&session), 2);

            // Deleting a social row turns its letter's row into a left-join
            // pad: a new identity, so one fresh row for one removed.
            let person = session.table().get(0, "person_id").unwrap();
            let social = session.input("social_df").unwrap();
            let social_row = (0..social.n_rows())
                .find(|&r| social.get(r, "person_id").unwrap() == person)
                .unwrap();
            let n = session.table().n_rows();
            let outcome = apply_mapped(
                &mut session,
                &Delta::Delete {
                    source: "social_df".into(),
                    row: social_row,
                },
                DeltaPath::Rerun,
            );
            assert_eq!(census(&outcome, n), (1, n - 1, 1));
            assert_eq!(outcome.affected_rows, vec![0]);
            // The social side of the left join has no local-delete
            // declaration: the rerun resumes at the left join.
            assert_eq!(rerun_nodes(&session), 3);
            let stats = session.stats();
            assert_eq!((stats.splices, stats.reruns, stats.nodes_rerun), (1, 4, 14));
        }
    }

    #[test]
    fn insert_and_delete_cover_distinct_concat_select_fuzzy() {
        // A plan exercising every remaining operator: fuzzy join, distinct,
        // concat (sharing a subtree), and a column selection.
        let mut companies = Table::empty(
            "companies",
            Schema::new(vec![
                Field::new("name", DataType::Str),
                Field::new("rating", DataType::Float),
            ])
            .unwrap(),
        );
        for (n, r) in [("Acme Corp", 4.5), ("Globex", 3.2), ("Initech", 2.8)] {
            companies.push_row(vec![n.into(), r.into()]).unwrap();
        }
        let mut mentions = Table::empty(
            "mentions",
            Schema::new(vec![
                Field::new("employer", DataType::Str),
                Field::new("person", DataType::Int),
                Field::new("channel", DataType::Str),
            ])
            .unwrap(),
        );
        // The last mention repeats person 2: `distinct` absorbs it.
        for (e, p) in [
            ("acme corp.", 1),
            ("GLOBEX", 2),
            ("acme  corp", 3),
            ("umbrella", 4),
            ("Globex", 2),
        ] {
            mentions
                .push_row(vec![e.into(), (p as i64).into(), "press".into()])
                .unwrap();
        }
        let mut plan = Plan::new();
        let m = plan.source("mentions");
        let c = plan.source("companies");
        let fj = plan.fuzzy_join(m, c, "employer", "name", 0.75);
        let both = plan.concat(fj, fj);
        let d = plan.distinct(both, "person");
        let root = plan.select(d, &["person", "rating"]);
        let inputs: Vec<(&str, &Table)> = vec![("mentions", &mentions), ("companies", &companies)];
        for threads in [1, 2, 4, 7] {
            let mut session = PipelineSession::build(
                &Executor::new().with_threads(threads),
                &plan,
                root,
                &inputs,
            )
            .unwrap();
            assert_matches_fresh(&session);

            // Cell patches through fuzzy join, concat, distinct and select.
            let update = |source: &str, row: usize, column: &str, value: Value| Delta::Update {
                source: source.into(),
                row,
                column: column.into(),
                value,
            };
            // Acme's rating reaches persons 1 and 3 (root rows 0 and 2).
            let fix = update("companies", 0, "rating", Value::Float(4.9));
            assert_eq!(
                apply_checked(&mut session, &fix, DeltaPath::CellPatch),
                vec![0, 2]
            );
            // `channel` is dropped by the final select.
            let fix = update("mentions", 1, "channel", "radio".into());
            assert!(apply_checked(&mut session, &fix, DeltaPath::CellPatch).is_empty());
            // The same column on the duplicate `distinct` absorbs.
            let fix = update("mentions", 4, "channel", "radio".into());
            assert!(apply_checked(&mut session, &fix, DeltaPath::CellPatch).is_empty());
            // The fuzzy key and the distinct key route rows: structural.
            let fix = update("companies", 1, "name", "Globex Inc".into());
            apply_checked(&mut session, &fix, DeltaPath::Rerun);
            let fix = update("mentions", 2, "person", Value::Int(7));
            apply_checked(&mut session, &fix, DeltaPath::Rerun);

            // Insert a mention that fuzzy-matches and survives distinct.
            let insert = Delta::Insert {
                source: "mentions".into(),
                values: vec!["initech inc".into(), Value::Int(9), "press".into()],
            };
            apply_mapped(&mut session, &insert, DeltaPath::Rerun);

            // Insert a company that steals an existing best match (exact
            // normalized form beats the typo match).
            let insert = Delta::Insert {
                source: "companies".into(),
                values: vec!["acme corp.".into(), Value::Float(9.9)],
            };
            apply_mapped(&mut session, &insert, DeltaPath::Rerun);

            // Delete the stolen-match company again: its old winners rematch.
            let delete = Delta::Delete {
                source: "companies".into(),
                row: 3,
            };
            apply_mapped(&mut session, &delete, DeltaPath::Rerun);

            // Delete a mention absorbed by distinct.
            let delete = Delta::Delete {
                source: "mentions".into(),
                row: 2,
            };
            apply_mapped(&mut session, &delete, DeltaPath::Rerun);

            // Every row of both sources, each from a fresh session: the
            // first and last rows, an unmatched mention (`umbrella`) and
            // company (`Initech`), and companies two mentions match. A
            // mention reaches `distinct` through both sides of the concat,
            // a company the fuzzy join's right side: neither declares
            // local deletes, so each reruns from there — except the
            // unmatched mention, whose removal ends at the fuzzy join.
            for (source, rows) in [("mentions", mentions.n_rows()), ("companies", 3)] {
                for row in 0..rows {
                    let mut fresh =
                        PipelineSession::build(&session.executor, &plan, root, &inputs).unwrap();
                    let delete = Delta::Delete {
                        source: source.into(),
                        row,
                    };
                    let path = if (source, row) == ("mentions", 3) {
                        DeltaPath::Splice
                    } else {
                        DeltaPath::Rerun
                    };
                    apply_mapped(&mut fresh, &delete, path);
                }
            }
        }
    }

    /// Sources `a(id, k, x)`, `b(k, y)` and `c(id, z)` under an inner join
    /// on `k`, a left join on `id`, a filter on `x`, a projection, a
    /// selection and a concat of the selection with itself.
    fn every_side_plan() -> (Plan, NodeId, Vec<Table>) {
        let table = |name: &str, fields: Vec<Field>, rows: Vec<Vec<Value>>| {
            let mut t = Table::empty(name, Schema::new(fields).unwrap());
            for r in rows {
                t.push_row(r).unwrap();
            }
            t
        };
        let (int, float) = (DataType::Int, DataType::Float);
        // a: row 0 matches two `b` rows, row 2 none, row 3 fails the filter.
        let a = table(
            "a",
            vec![
                Field::new("id", int),
                Field::new("k", int),
                Field::new("x", float),
            ],
            [
                (1, 10, 1.0),
                (2, 20, 2.0),
                (3, 99, 3.0),
                (4, 10, -1.0),
                (5, 20, 5.0),
            ]
            .into_iter()
            .map(|(i, k, x)| vec![Value::Int(i), Value::Int(k), Value::Float(x)])
            .collect(),
        );
        // b: row 0 matches two `a` rows, row 3 none.
        let b = table(
            "b",
            vec![Field::new("k", int), Field::new("y", DataType::Str)],
            [(10, "p"), (20, "q"), (10, "r"), (30, "s"), (20, "t")]
                .into_iter()
                .map(|(k, y)| vec![Value::Int(k), y.into()])
                .collect(),
        );
        // c: row 0 matches two join rows, row 1 none, row 2 has a null.
        let c = table(
            "c",
            vec![Field::new("id", int), Field::new("z", float)],
            [
                (1, Some(0.5)),
                (7, Some(0.1)),
                (2, None),
                (1, Some(0.7)),
                (5, Some(0.9)),
            ]
            .into_iter()
            .map(|(i, z)| vec![Value::Int(i), z.map_or(Value::Null, Value::Float)])
            .collect(),
        );
        let mut plan = Plan::new();
        let (sa, sb, sc) = (plan.source("a"), plan.source("b"), plan.source("c"));
        let j = plan.join(sa, sb, "k", "k", crate::plan::JoinType::Inner);
        let l = plan.join(j, sc, "id", "id", crate::plan::JoinType::Left);
        let f = plan.filter(l, Expr::col("x").gt(Expr::float(0.0)));
        let p = plan.project(f, "has_z", Expr::col("z").is_not_null());
        let s = plan.select(p, &["id", "y", "z", "has_z"]);
        let root = plan.concat(s, s);
        (plan, root, vec![a, b, c])
    }

    #[test]
    fn deletes_on_every_side_of_every_operator_match_a_fresh_run() {
        let (plan, root, tables) = every_side_plan();
        let inputs: Vec<(&str, &Table)> = ["a", "b", "c"].into_iter().zip(&tables).collect();
        let mut nodes: Vec<Vec<usize>> = Vec::new();
        for threads in [1, 2, 4, 7] {
            let executor = Executor::new().with_threads(threads);
            let build = || PipelineSession::build(&executor, &plan, root, &inputs).unwrap();
            let mut counts = Vec::new();
            // Every row of every source (first, last, unmatched and
            // multiply matched among them), each from a fresh session.
            // `a` and `b` reach only sides that declare local deletes and
            // splice; `c` is the left join's right side and reruns the five
            // nodes from the left join on.
            for (source, path) in [
                ("a", DeltaPath::Splice),
                ("b", DeltaPath::Splice),
                ("c", DeltaPath::Rerun),
            ] {
                for row in 0..5 {
                    let mut session = build();
                    let delete = Delta::Delete {
                        source: source.into(),
                        row,
                    };
                    apply_mapped(&mut session, &delete, path);
                    counts.push(session.stats().nodes_rerun);
                }
            }
            // Deleting the `a` rows that pass the filter (ids 1, 2, 5) and
            // then the rest. The third delete empties the filter's output
            // while its input keeps id 4's rows: the projection, whose
            // column over zero rows is typed `Bool`, reruns with the two
            // nodes after it. The last one empties `a`, so the inner join
            // and every node after it in the evaluation order rerun: seven
            // with the `c` scan.
            let mut session = build();
            let (s, r) = (DeltaPath::Splice, DeltaPath::Rerun);
            for (row, path, rerun) in [(0, s, 0), (0, s, 0), (2, r, 3), (0, s, 0), (0, r, 7)] {
                let delete = Delta::Delete {
                    source: "a".into(),
                    row,
                };
                let before = session.stats().nodes_rerun;
                apply_mapped(&mut session, &delete, path);
                assert_eq!(session.stats().nodes_rerun - before, rerun, "{delete:?}");
                if rerun == 3 {
                    let has_z = session.table().schema().field("has_z").unwrap();
                    assert_eq!(has_z.dtype, DataType::Bool);
                }
            }
            assert_eq!(session.table().n_rows(), 0);
            nodes.push(counts);
        }
        assert_eq!(nodes[0], [[0; 10].as_slice(), &[5; 5]].concat());
        assert!(nodes.iter().all(|n| n == &nodes[0]), "{nodes:?}");
    }

    #[test]
    fn structural_fixes_are_identical_across_thread_counts() {
        let s = HiringScenario::generate(120, 17);
        let (plan, root) = Plan::hiring_pipeline();
        let person = s.letters.get(1, "person_id").unwrap();
        let deltas = [
            Delta::Insert {
                source: "social_df".into(),
                values: vec![person, Value::Null, Value::Int(0)],
            },
            Delta::Delete {
                source: "jobdetail_df".into(),
                row: 2,
            },
            Delta::Update {
                source: "train_df".into(),
                row: 7,
                column: "years_experience".into(),
                value: Value::Float(40.0),
            },
        ];
        let run = |threads: usize| {
            let mut session = PipelineSession::build(
                &Executor::new().with_threads(threads),
                &plan,
                root,
                &hiring_inputs(&s),
            )
            .unwrap();
            for d in &deltas {
                session.apply(d).unwrap();
            }
            (session.table().clone(), session.lineage())
        };
        let (seq_table, seq_lineage) = run(1);
        for threads in [2, 4, 7] {
            let (t, l) = run(threads);
            assert_eq!(t, seq_table, "threads={threads}");
            assert_eq!(l, seq_lineage, "threads={threads}");
        }
    }

    #[test]
    fn operator_panic_on_spliced_row_reruns_with_typed_error() {
        let s = HiringScenario::generate(30, 5);
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        let boom = Expr::udf(
            "boom_on_neg",
            DataType::Bool,
            &["employer_rating"],
            |t, row| {
                let v = t.get(row, "employer_rating").unwrap();
                if matches!(v, Value::Float(f) if f < 0.0) {
                    panic!("negative rating");
                }
                Ok(Value::Bool(true))
            },
        );
        let f = plan.filter(a, boom);
        let inputs: Vec<(&str, &Table)> = vec![("train_df", &s.letters)];
        let mut session = PipelineSession::build(&Executor::new(), &plan, f, &inputs).unwrap();
        // Insert a row the predicate panics on: the rerun fails with the
        // executor's typed report, and the session poisons.
        let mut values = s.letters.row(0).unwrap();
        values[4] = Value::Float(-1.0); // employer_rating
        let err = session
            .apply(&Delta::Insert {
                source: "train_df".into(),
                values,
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::OperatorPanic { .. }));
        let err = session
            .apply(&Delta::Delete {
                source: "train_df".into(),
                row: 0,
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::Delta(_)), "poisoned session");
    }

    #[test]
    fn validation_failures_leave_session_untouched() {
        let s = HiringScenario::generate(30, 5);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        let before = session.table().clone();
        assert!(session
            .apply(&Delta::Update {
                source: "no_such".into(),
                row: 0,
                column: "x".into(),
                value: Value::Int(0),
            })
            .is_err());
        assert!(session
            .apply(&Delta::Update {
                source: "train_df".into(),
                row: 99_999,
                column: "employer_rating".into(),
                value: Value::Float(1.0),
            })
            .is_err());
        assert!(session
            .apply(&Delta::Delete {
                source: "train_df".into(),
                row: 99_999,
            })
            .is_err());
        assert_eq!(session.table(), &before);
        assert_eq!(session.stats().applied, 0);
        assert_matches_fresh(&session);
    }
}
