//! Incremental view maintenance for executed pipelines.
//!
//! Prioritized cleaning (paper §3) applies one small fix at a time — flip a
//! label, correct a rating, drop a duplicate — and re-evaluates the model
//! after each. Re-running the whole pipeline per fix costs milliseconds for
//! work whose footprint is a handful of rows. A [`PipelineSession`] keeps
//! the executed run alive (every operator's table, row maps, and
//! provenance) and applies a single-tuple [`Delta`] on one of two paths:
//!
//! - **Cell patch** ([`DeltaPath::CellPatch`]): an [`Delta::Update`] that
//!   cannot change any routing decision patches the changed cells of
//!   affected rows in place. Provenance is untouched — routing is identical
//!   by construction.
//! - **Rerun** ([`DeltaPath::Rerun`]): everything else — every
//!   [`Delta::Insert`] and [`Delta::Delete`], a routing-relevant update, an
//!   operator error while patching — re-executes the plan over the mutated
//!   inputs. It needs no per-operator code: the executor is the only
//!   definition of routing and provenance interning.
//!
//! Either way an apply leaves the session in exactly the state a fresh run
//! over the mutated inputs would produce. The differential test suite
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
//! A tainted routing column ends the walk with a rerun. Otherwise an output
//! row is affected when a row map points it at an affected input row, and
//! its carried and derived cells are patched.
//!
//! # Row identity across a rerun
//!
//! A rerun renumbers the root rows, but most of them are the same rows as
//! before: a duplicate delete removes one output row, a filter-column fix
//! moves one key's rows in or out. [`DeltaOutcome::row_map`] says which,
//! so the layers downstream (encoded features, model evaluators) can keep
//! what they computed for those rows. A root row's *identity* is, for each
//! path from the root down to a source, the source row it was built from
//! (none where a left-join pad or the other side of a concat breaks the
//! path) — the identity Datascope (Karlaš et al., arXiv:2204.11131) gives
//! pipeline output rows. It is composed from the traced row maps of the
//! run before and of the run after, with no per-operator code. The old
//! identities are renumbered for the delta's own shift (a delete moves
//! that source's later rows down by one). A new row whose identity an old
//! row had is built from the same source tuples by the same operators, so
//! its cells are equal; a row with a new identity, or one that names the
//! source row an update changed, is *fresh*.
//!
//! Why only two paths: inserts and deletes once had a third, *splice*
//! path that re-decided join, filter, distinct and concat routing around
//! the changed tuple and replayed arena interning. It kept a second copy
//! of the executor's operator semantics, and it saved about 3 ms of a
//! structural fix's rerun in the `debug` workflow benchmark (`wfbench/`)
//! while the downstream rebuild after every structural fix cost far more.
//! That downstream cost is what the row map removes.
//! [`DeltaPath::Splice`] and [`DeltaStats::splices`] remain in the API but
//! are never produced.

use crate::exec::{Executor, NodeTrace, PanicPolicy};
use crate::plan::{NodeId, Plan};
use crate::provenance::{Lineage, ProvArena, ProvId};
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
    /// Never produced: inserts and deletes take [`DeltaPath::Rerun`] (see
    /// the module docs). Kept so existing matches keep compiling.
    Splice,
    /// Full re-execution (insert, delete, routing-relevant update, or a
    /// cell patch that could not complete).
    Rerun,
}

/// Counters over a session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Deltas applied successfully.
    pub applied: usize,
    /// Applies that took [`DeltaPath::CellPatch`].
    pub cell_patches: usize,
    /// Always 0: no apply takes [`DeltaPath::Splice`] any more.
    pub splices: usize,
    /// Applies that fell back to [`DeltaPath::Rerun`].
    pub reruns: usize,
    /// Root output rows patched in place, summed over all cell patches.
    pub rows_patched: usize,
}

/// What one [`PipelineSession::apply`] did to the root output.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaOutcome {
    /// The propagation path taken.
    pub path: DeltaPath,
    /// Root output rows whose content may differ from the row `row_map`
    /// names, ascending: after a cell patch, the patched rows; after a
    /// rerun, the fresh rows (those whose `row_map` entry is `None`).
    pub affected_rows: Vec<usize>,
    /// For every current root row, the root row it was before this apply,
    /// or `None` for a *fresh* row. A cell patch keeps every row in place
    /// (`row_map[r] == Some(r)`). After a rerun, a row maps to the old row
    /// with the same identity (see the module docs), and such a pair is
    /// equal cell for cell; old rows no entry names were removed.
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

/// Everything a successful cell-patch walk produced, staged for commit.
struct CellPatchPlan {
    new_tables: FxHashMap<usize, Table>,
    root_affected: Vec<usize>,
}

/// Run `f` under the executor's panic guard, mapping a panic to a typed
/// error (the caller falls back to a full rerun, which reproduces the
/// executor's own report for the same failure).
fn guarded<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_quiet(f) {
        Ok(r) => r,
        Err(msg) => Err(PipelineError::Delta(format!(
            "operator panicked during delta propagation: {msg}"
        ))),
    }
}

fn table_of<'a>(
    staged: &'a FxHashMap<usize, Table>,
    base: &'a FxHashMap<usize, Table>,
    idx: usize,
) -> &'a Table {
    staged
        .get(&idx)
        .unwrap_or_else(|| base.get(&idx).expect("node table present"))
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
    /// Node ids in first-evaluation order (children before parents).
    order: Vec<usize>,
    traces: FxHashMap<usize, NodeTrace>,
    tables: FxHashMap<usize, Table>,
    provs: FxHashMap<usize, Vec<ProvId>>,
    arena: ProvArena,
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
        let mut session = PipelineSession {
            executor,
            plan: plan.clone(),
            root,
            source_names,
            inputs: owned,
            order: Vec::new(),
            traces: FxHashMap::default(),
            tables: FxHashMap::default(),
            provs: FxHashMap::default(),
            arena: ProvArena::new(),
            stats: DeltaStats::default(),
            poisoned: false,
        };
        session.execute()?;
        Ok(session)
    }

    /// Run the plan over the current inputs and capture every node's
    /// table, row maps and provenance, replacing the cached state.
    fn execute(&mut self) -> Result<()> {
        let refs: Vec<(&str, &Table)> = self
            .source_names
            .iter()
            .map(String::as_str)
            .zip(self.inputs.iter())
            .collect();
        let (out, trace, memo) = self.executor.run_traced(&self.plan, self.root, &refs)?;
        self.order = trace.order;
        self.traces = trace.nodes;
        self.tables.clear();
        self.provs.clear();
        for (idx, (table, prov)) in memo {
            self.tables.insert(idx, table);
            self.provs.insert(idx, prov.expect("provenance forced on"));
        }
        self.arena = out.provenance.expect("provenance forced on").arena;
        Ok(())
    }

    /// The root output table, as maintained.
    pub fn table(&self) -> &Table {
        self.tables.get(&self.root.index()).expect("root present")
    }

    /// The root lineage, assembled from the maintained arena and row ids.
    /// Bit-identical (same arena nodes, same ids) to a fresh traced run
    /// over the current inputs.
    pub fn lineage(&self) -> Lineage {
        Lineage::new(
            self.source_names.clone(),
            self.arena.clone(),
            self.provs
                .get(&self.root.index())
                .expect("root present")
                .clone(),
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
                match self.cell_patch_walk(src, *row, column) {
                    Ok(Some(plan)) => Ok(self.commit_cell_patch(plan)),
                    // Structural change or an operator failure on the new
                    // value: a full rerun reproduces rerun semantics
                    // (including the error report) exactly.
                    Ok(None) | Err(_) => self.rerun(src, delta),
                }
            }
            Delta::Insert { values, .. } => {
                // `push_row` validates arity and types atomically.
                self.inputs[src].push_row(values.clone())?;
                self.rerun(src, delta)
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
                self.rerun(src, delta)
            }
        }
    }

    /// Full re-execution over the mutated inputs: the generic path for
    /// every change the cell-patch walk does not cover. A failure here
    /// (e.g. the new value makes an operator error) poisons the session —
    /// the cached state no longer matches the inputs. `delta` (already
    /// applied to the inputs) renumbers the old row identities.
    fn rerun(&mut self, src: usize, delta: &Delta) -> Result<DeltaOutcome> {
        let old = self.row_keys();
        if let Err(e) = self.execute() {
            self.poisoned = true;
            return Err(e);
        }
        let row_map = match_rows(old, &self.row_keys(), src, delta);
        self.stats.applied += 1;
        self.stats.reruns += 1;
        Ok(DeltaOutcome {
            path: DeltaPath::Rerun,
            affected_rows: (0..row_map.len())
                .filter(|&r| row_map[r].is_none())
                .collect(),
            row_map,
        })
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
        match &self.traces[&node.index()] {
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

    fn commit_cell_patch(&mut self, plan: CellPatchPlan) -> DeltaOutcome {
        for (idx, t) in plan.new_tables {
            self.tables.insert(idx, t);
        }
        self.stats.applied += 1;
        self.stats.cell_patches += 1;
        self.stats.rows_patched += plan.root_affected.len();
        DeltaOutcome {
            path: DeltaPath::CellPatch,
            affected_rows: plan.root_affected,
            row_map: (0..self.table().n_rows()).map(Some).collect(),
        }
    }

    /// The cell-patch walk: propagate `(source, row, column)` taint through
    /// the DAG without re-deciding any routing. Every node reads the same
    /// two things: the declarations on its [`crate::plan::PlanNode`]
    /// (routing columns, the output name of each carried column, a derived
    /// column) and its traced row maps. An output row is affected when it
    /// was built from an affected input row; its carried columns are copied
    /// from that row, and a derived column whose expression reads a tainted
    /// column is re-evaluated. `Ok(None)` means a tainted column feeds a
    /// routing decision — the caller falls back to a rerun. `Err` means
    /// re-evaluating a derived column failed (rerun reproduces the report).
    fn cell_patch_walk(
        &self,
        src: usize,
        row: usize,
        column: &str,
    ) -> Result<Option<CellPatchPlan>> {
        let mut states: FxHashMap<usize, PatchState> = FxHashMap::default();
        let mut new_tables: FxHashMap<usize, Table> = FxHashMap::default();
        for &idx in &self.order {
            let from = match &self.traces[&idx] {
                NodeTrace::Source { source } => {
                    if *source as usize == src {
                        let mut t = self.inputs[src].clone();
                        t.set_name(self.tables[&idx].name());
                        new_tables.insert(idx, t);
                        let tainted = vec![column.to_string()];
                        let affected = vec![row];
                        states.insert(idx, PatchState { affected, tainted });
                    }
                    continue;
                }
                NodeTrace::RowMap { from } => from,
            };
            let id = NodeId(idx);
            let node = self.plan.node(id)?;
            let children = self.plan.children(id)?;
            let first = table_of(&new_tables, &self.tables, children[0].index());
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
                    return Ok(None);
                }
                let table = table_of(&new_tables, &self.tables, child.index());
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
                continue; // untouched, or every changed column is dropped
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
                continue;
            }
            // Write phase: patch a copy of this node's table.
            let mut t = self.tables[&idx].clone();
            for (r, c, v) in patches {
                t.set(r, &c, v)?;
            }
            new_tables.insert(idx, t);
            states.insert(idx, PatchState { affected, tainted });
        }
        let root_affected = states
            .remove(&self.root.index())
            .map(|s| s.affected)
            .unwrap_or_default();
        Ok(Some(CellPatchPlan {
            new_tables,
            root_affected,
        }))
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
        let (out, trace, memo) = fresh;
        assert_eq!(session.table(), &out.table, "root table diverged");
        let lineage = out.provenance.expect("provenance on");
        assert_eq!(session.lineage(), lineage, "lineage diverged");
        assert_eq!(session.order, trace.order, "evaluation order diverged");
        for (idx, tr) in &trace.nodes {
            assert_eq!(
                session.traces.get(idx),
                Some(tr),
                "trace diverged at node {idx}"
            );
        }
        for (idx, (table, prov)) in &memo {
            assert_eq!(
                session.tables.get(idx),
                Some(table),
                "table diverged at node {idx}"
            );
            assert_eq!(
                session.provs.get(idx).cloned(),
                prov.clone(),
                "provenance ids diverged at node {idx}"
            );
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
        // Delete a letters row — rerun again.
        let outcome = session
            .apply(&Delta::Delete {
                source: "train_df".into(),
                row: 3,
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Rerun);
        assert_matches_fresh(&session);
        assert_eq!(session.stats().reruns, 2);
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
            // Deleting a letter that reaches the output removes exactly its
            // row; every later row survives one position down.
            let n = session.table().n_rows();
            let row = letter_of(&session, 3);
            let delete = Delta::Delete {
                source: "train_df".into(),
                row,
            };
            let outcome = apply_mapped(&mut session, &delete, DeltaPath::Rerun);
            assert_eq!(census(&outcome, n), (0, n - 1, 1));
            let expect: Vec<Option<usize>> = (0..n).filter(|&o| o != 3).map(Some).collect();
            assert_eq!(outcome.row_map, expect);

            // Re-inserting it appends one fresh row and keeps the rest.
            let values = s.letters.row(row).unwrap();
            let n = session.table().n_rows();
            let insert = Delta::Insert {
                source: "train_df".into(),
                values,
            };
            let outcome = apply_mapped(&mut session, &insert, DeltaPath::Rerun);
            assert_eq!(census(&outcome, n), (1, n, 0));

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
            let outcome = apply_mapped(&mut session, &out_of, DeltaPath::Rerun);
            let (fresh, kept, removed) = census(&outcome, n);
            assert_eq!((fresh, kept), (0, n - removed));
            assert!(removed >= 1);
            let into = Delta::Update {
                source: "jobdetail_df".into(),
                row: job_row,
                column: "sector".into(),
                value: Value::Str("healthcare".into()),
            };
            let outcome = apply_mapped(&mut session, &into, DeltaPath::Rerun);
            assert_eq!(census(&outcome, n - removed), (removed, n - removed, 0));

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
        }
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
