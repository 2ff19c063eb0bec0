//! Plan execution with optional provenance tracking and panic isolation.
//!
//! User-defined expressions (most notably [`crate::expr::Expr::Udf`]) run
//! arbitrary code per tuple. The executor wraps per-row evaluation of
//! `Filter` and `Project` operators in `catch_unwind`, so a panicking
//! operator never aborts the process. What happens next is governed by
//! [`PanicPolicy`]: fail fast with a typed
//! [`PipelineError::OperatorPanic`] carrying the operator id and offending
//! tuple, or skip the tuple and record it in
//! [`ExecOutput::quarantined`] (with source-tuple provenance when tracking
//! is enabled) while the rest of the pipeline completes.
//!
//! Per-row evaluation is chunk-parallel when [`Executor::with_threads`]
//! raises the worker count; the output table, provenance, quarantine
//! records, and fail-fast errors are identical for every thread count.

use crate::plan::{JoinType, NodeId, Plan, PlanNode};
use crate::provenance::{Lineage, ProvArena, ProvId, TupleId};
use crate::{PipelineError, Result};
use nde_data::fxhash::FxHashMap;
use nde_data::par::{catch_quiet, WorkerFailure};
use nde_data::planes::{BoolPlane, Plane};
use nde_data::pool::WorkerPool;
use nde_data::{DataType, Field, Table};
use std::iter::repeat_n;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Rows are evaluated in fixed-size chunks whose outcomes are merged in
/// chunk order — the chunking is independent of the thread count, so the
/// output table, provenance, and quarantine list are identical for every
/// `threads` value (including 1).
const ROW_CHUNK: usize = 64;

/// What the executor does when an operator panics on a tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PanicPolicy {
    /// Abort the run with a typed [`PipelineError::OperatorPanic`]
    /// identifying the operator and the offending tuple (default).
    #[default]
    FailFast,
    /// Drop the offending tuple from the operator's output, record it in
    /// [`ExecOutput::quarantined`], and keep going.
    SkipAndRecord,
}

/// A tuple dropped by [`PanicPolicy::SkipAndRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedTuple {
    /// Plan node id of the panicking operator.
    pub node: usize,
    /// Operator description (e.g. `filter(parse_salary(...))` for a UDF predicate).
    pub operator: String,
    /// Input row index at the panicking operator.
    pub row: usize,
    /// Source tuples the row derived from (empty unless provenance
    /// tracking is enabled).
    pub sources: Vec<TupleId>,
    /// The panic payload, stringified.
    pub message: String,
}

/// Result of executing a plan: the output table, optional row provenance,
/// and any tuples quarantined by panic isolation.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The materialized output table.
    pub table: Table,
    /// Row provenance, present iff tracking was enabled.
    pub provenance: Option<Lineage>,
    /// Tuples dropped under [`PanicPolicy::SkipAndRecord`] (always empty
    /// under [`PanicPolicy::FailFast`]).
    pub quarantined: Vec<QuarantinedTuple>,
}

/// Evaluates plans over named input tables.
#[derive(Debug, Clone)]
pub struct Executor {
    track_provenance: bool,
    panic_policy: PanicPolicy,
    threads: usize,
    /// Resident workers for chunk-parallel row evaluation — spawned once
    /// (shared process-wide by default), reused by every `run` call.
    pool: Arc<WorkerPool>,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor {
            track_provenance: false,
            panic_policy: PanicPolicy::default(),
            threads: 1,
            pool: WorkerPool::shared(),
        }
    }
}

/// Per-node result: the table plus (when tracking) one arena node id per
/// row. Polynomials live in the run's shared [`ProvArena`]; cloning a memo
/// entry clones 4-byte ids, not trees.
pub(crate) type NodeResult = (Table, Option<Vec<ProvId>>);

/// What one operator did to its inputs' rows during a traced run.
/// [`crate::delta::PipelineSession`] reads these maps, together with the
/// column declarations on [`PlanNode`], to patch changed cells in place
/// without re-executing the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTrace {
    /// Source node: index into the run's source-name table.
    Source {
        /// Position in [`crate::provenance::Lineage::sources`].
        source: u32,
    },
    /// Any other operator: one row map per input, in [`Plan::children`]
    /// order.
    RowMap {
        /// `from[i][out]` is the row of input `i` that output row `out` was
        /// built from: `None` for a left-join null pad or for the other
        /// input of a concat.
        from: Vec<Vec<Option<usize>>>,
    },
}

/// Everything a traced run records beyond its output: per-node row maps,
/// the order nodes were first evaluated in (children before parents), and
/// where each node's provenance begins in the arena.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecTrace {
    /// Node ids in first-evaluation order.
    pub order: Vec<usize>,
    /// `arena_starts[p]`: the arena length when node `order[p]` began
    /// interning, after its inputs were evaluated. The nodes before `p` in
    /// the order interned exactly the arena's first `arena_starts[p]`
    /// nodes.
    pub arena_starts: Vec<usize>,
    /// What each node did to its inputs' rows, per node id.
    pub nodes: FxHashMap<usize, NodeTrace>,
}

/// A traced run's complete state: its trace, every node's result, and the
/// provenance arena. [`Executor::resume`] continues it after some nodes
/// were removed from it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunState {
    pub(crate) trace: ExecTrace,
    pub(crate) memo: FxHashMap<usize, NodeResult>,
    pub(crate) arena: ProvArena,
}

impl Executor {
    /// A new executor (provenance off, fail-fast panic policy).
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Enable or disable provenance tracking.
    pub fn with_provenance(mut self, on: bool) -> Executor {
        self.track_provenance = on;
        self
    }

    /// Choose what happens when an operator panics on a tuple.
    pub fn with_panic_policy(mut self, policy: PanicPolicy) -> Executor {
        self.panic_policy = policy;
        self
    }

    /// Worker threads for per-tuple operator evaluation (`Filter`,
    /// `Project`), the probe phase of hash/left joins, fuzzy-join matching,
    /// and distinct key extraction. Output tables, provenance (down to the
    /// arena node ids), quarantine records, and fail-fast errors are
    /// identical for every thread count.
    pub fn with_threads(mut self, threads: usize) -> Executor {
        self.threads = threads.max(1);
        self
    }

    /// Run parallel regions on a dedicated [`WorkerPool`] instead of the
    /// process-wide shared one. The pool only affects scheduling; outputs
    /// are identical for any pool.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Executor {
        self.pool = pool;
        self
    }

    /// Worker-thread count this executor evaluates with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured panic policy.
    pub fn panic_policy(&self) -> PanicPolicy {
        self.panic_policy
    }

    /// Execute `root` of `plan` over the named `inputs`.
    pub fn run(&self, plan: &Plan, root: NodeId, inputs: &[(&str, &Table)]) -> Result<ExecOutput> {
        let mut memo = FxHashMap::default();
        let mut arena = ProvArena::new();
        let mut quarantined = Vec::new();
        let (table, prov) = self.run_impl(
            plan,
            root,
            inputs,
            &mut memo,
            &mut arena,
            &mut quarantined,
            &mut None,
        )?;
        Ok(ExecOutput {
            table,
            provenance: prov.map(|rows| Lineage::new(plan_sources(plan), arena, rows)),
            quarantined,
        })
    }

    /// Execute like [`Executor::run`] while recording every operator's
    /// row maps, the node evaluation order, and each node's
    /// intermediate table/provenance — the starting state for incremental
    /// maintenance via [`crate::delta::PipelineSession`].
    pub(crate) fn run_traced(
        &self,
        plan: &Plan,
        root: NodeId,
        inputs: &[(&str, &Table)],
    ) -> Result<RunState> {
        let mut state = RunState::default();
        self.resume(plan, root, inputs, &mut state)?;
        Ok(state)
    }

    /// Continue a traced run: evaluate every node below `root` that
    /// `state.memo` lacks, reusing the memoized results of the others.
    ///
    /// When `state` is a traced run cut back to its first `p` nodes in
    /// evaluation order (their memo entries, traces and
    /// `trace.arena_starts[p]` arena nodes), the nodes evaluated are exactly
    /// the old run's `order[p..]`, in that order: the depth-first walk
    /// meets the kept nodes as memo hits where the old walk had evaluated
    /// them. The result is then the state a fresh traced run over the same
    /// inputs reaches, provided the kept state is what that fresh run
    /// would have computed for the first `p` nodes.
    pub(crate) fn resume(
        &self,
        plan: &Plan,
        root: NodeId,
        inputs: &[(&str, &Table)],
        state: &mut RunState,
    ) -> Result<()> {
        let mut trace = Some(std::mem::take(&mut state.trace));
        let mut quarantined = Vec::new();
        let result = self.run_impl(
            plan,
            root,
            inputs,
            &mut state.memo,
            &mut state.arena,
            &mut quarantined,
            &mut trace,
        );
        state.trace = trace.expect("trace present");
        result.map(drop)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_impl(
        &self,
        plan: &Plan,
        root: NodeId,
        inputs: &[(&str, &Table)],
        memo: &mut FxHashMap<usize, NodeResult>,
        arena: &mut ProvArena,
        quarantined: &mut Vec<QuarantinedTuple>,
        trace: &mut Option<ExecTrace>,
    ) -> Result<NodeResult> {
        let source_names = plan_sources(plan);
        let mut input_map: FxHashMap<&str, &Table> = FxHashMap::default();
        for (name, table) in inputs {
            input_map.insert(name, table);
        }
        for name in &source_names {
            if !input_map.contains_key(name.as_str()) {
                return Err(PipelineError::MissingInput(name.clone()));
            }
        }
        self.eval(
            plan,
            root,
            &source_names,
            &input_map,
            arena,
            memo,
            quarantined,
            trace,
        )
    }

    /// Evaluate `eval(row)` for every row under the panic guard, in
    /// [`ROW_CHUNK`]-sized chunks spread over the executor's worker threads.
    ///
    /// Returns the surviving `(row, value)` pairs in row order and appends
    /// quarantined rows (skip-and-record policy) to `quarantined`, also in
    /// row order. Under fail-fast, the error returned is always the one a
    /// sequential scan would hit first: workers claim chunks in ascending
    /// order and stop at their chunk's first failure, and the substrate
    /// reports the smallest failing chunk.
    #[allow(clippy::too_many_arguments)]
    fn guarded_rows<T: Send>(
        &self,
        node: usize,
        operator: &str,
        n_rows: usize,
        prov: Option<(&ProvArena, &[ProvId])>,
        quarantined: &mut Vec<QuarantinedTuple>,
        eval: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<Vec<(usize, T)>> {
        let chunks = n_rows.div_ceil(ROW_CHUNK) as u64;
        let stop = AtomicBool::new(false);
        let outcomes = self
            .pool
            .map_indexed(self.threads, 0..chunks, &stop, |c| {
                let start = c as usize * ROW_CHUNK;
                let end = (start + ROW_CHUNK).min(n_rows);
                let mut kept = Vec::with_capacity(end - start);
                let mut quarantine: Vec<(usize, String)> = Vec::new();
                for row in start..end {
                    match catch_quiet(|| eval(row)) {
                        Ok(value) => kept.push((row, value?)),
                        Err(message) => match self.panic_policy {
                            PanicPolicy::FailFast => {
                                return Err(PipelineError::OperatorPanic {
                                    node,
                                    operator: operator.to_string(),
                                    row,
                                    message,
                                })
                            }
                            PanicPolicy::SkipAndRecord => quarantine.push((row, message)),
                        },
                    }
                }
                Ok((kept, quarantine))
            })
            .map_err(|fail| match fail {
                WorkerFailure::Err(_, e) => e,
                // Unreachable in practice: row evaluation is guarded above, and
                // the merge bookkeeping does not panic.
                WorkerFailure::Panic(_, message) => PipelineError::OperatorPanic {
                    node,
                    operator: operator.to_string(),
                    row: 0,
                    message,
                },
            })?;
        let mut all_kept = Vec::with_capacity(n_rows);
        for (_, (kept, quarantine)) in outcomes {
            all_kept.extend(kept);
            for (row, message) in quarantine {
                quarantined.push(QuarantinedTuple {
                    node,
                    operator: operator.to_string(),
                    row,
                    sources: prov
                        .map(|(arena, p)| arena.tuples_of(p[row]))
                        .unwrap_or_default(),
                    message,
                });
            }
        }
        Ok(all_kept)
    }

    #[allow(clippy::too_many_arguments)]
    fn eval(
        &self,
        plan: &Plan,
        id: NodeId,
        source_names: &[String],
        inputs: &FxHashMap<&str, &Table>,
        arena: &mut ProvArena,
        memo: &mut FxHashMap<usize, NodeResult>,
        quarantined: &mut Vec<QuarantinedTuple>,
        trace: &mut Option<ExecTrace>,
    ) -> Result<NodeResult> {
        if let Some(cached) = memo.get(&id.index()) {
            return Ok(cached.clone());
        }
        let mut args = Vec::with_capacity(2);
        for child in plan.children(id)? {
            args.push(self.eval(
                plan,
                child,
                source_names,
                inputs,
                arena,
                memo,
                quarantined,
                trace,
            )?);
        }
        let arena_start = arena.len();
        let mut args = args.into_iter();
        let mut arg = || args.next().expect("one result per child");
        // Row maps are built only for traced runs (memo hits above never
        // re-record).
        let tracing = trace.is_some();
        let (result, node_trace): (NodeResult, NodeTrace) = match plan.node(id)? {
            PlanNode::Source { name } => {
                let table = (*inputs
                    .get(name.as_str())
                    .ok_or_else(|| PipelineError::MissingInput(name.clone()))?)
                .clone();
                let src = source_names
                    .iter()
                    .position(|s| s == name)
                    .ok_or_else(|| PipelineError::MissingInput(name.clone()))?
                    as u32;
                let prov = if self.track_provenance {
                    Some(
                        (0..table.n_rows())
                            .map(|r| arena.var(TupleId::new(src, r as u32)))
                            .collect(),
                    )
                } else {
                    None
                };
                ((table, prov), NodeTrace::Source { source: src })
            }
            PlanNode::Join {
                left_key,
                right_key,
                how,
                ..
            } => {
                let ((lt, lp), (rt, rp)) = (arg(), arg());
                // Chunk-parallel probe; lineage comes back in index order,
                // so the provenance ids interned below are identical for
                // every thread count.
                let (table, pairs) = match how {
                    JoinType::Inner => {
                        let (t, pairs) =
                            lt.hash_join_par(&rt, left_key, right_key, self.threads)?;
                        (t, pairs.into_iter().map(|(l, r)| (l, Some(r))).collect())
                    }
                    JoinType::Left => lt.left_join_par(&rt, left_key, right_key, self.threads)?,
                };
                joined(arena, table, lp, rp, &pairs, tracing)
            }
            PlanNode::FuzzyJoin {
                left_key,
                right_key,
                threshold,
                ..
            } => {
                let ((lt, lp), (rt, rp)) = (arg(), arg());
                let (table, pairs) = crate::fuzzy::fuzzy_join_par(
                    &lt,
                    &rt,
                    left_key,
                    right_key,
                    *threshold,
                    self.threads,
                )?;
                let pairs: Vec<_> = pairs.into_iter().map(|(l, r)| (l, Some(r))).collect();
                joined(arena, table, lp, rp, &pairs, tracing)
            }
            PlanNode::Filter { predicate, .. } => {
                let (t, p) = arg();
                let operator = format!("filter({})", crate::render::expr_label(predicate));
                // Vectorized fast path: a `col == literal` predicate over an
                // existing column runs as one columnar scan with the exact
                // semantics of the per-row evaluator (nulls never match,
                // numeric cross-type equality), and these expressions cannot
                // error or panic per row — so guard, policy, and quarantine
                // behavior are unaffected. Anything else (including a
                // missing column, whose error the per-row path must report)
                // falls through to the guarded evaluator.
                let kept: Vec<usize> = match filter_eq_fast_path(&t, predicate) {
                    Some(rows) => rows,
                    None => {
                        // Evaluate the predicate once per row
                        // (chunk-parallel), propagating errors and isolating
                        // panics per the executor's policy.
                        let verdicts = self.guarded_rows(
                            id.index(),
                            &operator,
                            t.n_rows(),
                            p.as_deref().map(|ids| (&*arena, ids)),
                            quarantined,
                            |row| predicate.eval_predicate(&t, row),
                        )?;
                        verdicts
                            .into_iter()
                            .filter(|&(_, keep)| keep)
                            .map(|(row, _)| row)
                            .collect()
                    }
                };
                let table = t.take(&kept)?;
                let prov = p.map(|p| kept.iter().map(|&r| p[r]).collect());
                let from = vec![row_map(tracing, kept.iter().copied())];
                ((table, prov), NodeTrace::RowMap { from })
            }
            PlanNode::Project { column, expr, .. } => {
                let (t, p) = arg();
                let operator =
                    format!("project({} := {})", column, crate::render::expr_label(expr));
                let dtype = if t.n_rows() == 0 {
                    DataType::Bool
                } else {
                    expr.output_type(&t)?
                };
                // Vectorized fast path: `col IS [NOT] NULL` over an existing
                // column reads the null bitmap directly — no per-row
                // expression walk, no guard needed (these expressions keep
                // every row and cannot error or panic).
                let (kept, mut t, col) = if let Some(col) = null_test_fast_path(&t, expr) {
                    ((0..t.n_rows()).collect(), t, col)
                } else {
                    // Evaluate per row under the panic guard
                    // (chunk-parallel); rows whose evaluation panics are
                    // quarantined (skip-and-record) and dropped from the
                    // output.
                    let rows = self.guarded_rows(
                        id.index(),
                        &operator,
                        t.n_rows(),
                        p.as_deref().map(|ids| (&*arena, ids)),
                        quarantined,
                        |row| expr.eval(&t, row),
                    )?;
                    let mut kept = Vec::with_capacity(rows.len());
                    let mut col = Plane::empty(dtype);
                    for (row, v) in rows {
                        kept.push(row);
                        col.push_value(v)
                            .map_err(|e| PipelineError::Expr(e.to_string()))?;
                    }
                    let t = if kept.len() == t.n_rows() {
                        t
                    } else {
                        t.take(&kept)?
                    };
                    (kept, t, col)
                };
                t.add_column(Field::new(column.clone(), col.data_type()), col)?;
                let prov = p.map(|p| kept.iter().map(|&r| p[r]).collect::<Vec<_>>());
                let from = vec![row_map(tracing, kept.iter().copied())];
                ((t, prov), NodeTrace::RowMap { from })
            }
            PlanNode::SelectColumns { columns, .. } => {
                let (t, p) = arg();
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                let from = vec![row_map(tracing, 0..t.n_rows())];
                ((t.select(&cols)?, p), NodeTrace::RowMap { from })
            }
            PlanNode::Distinct { key, .. } => {
                let (t, p) = arg();
                // First occurrence of each key value survives; its provenance
                // absorbs the duplicates as Plus alternatives.
                let (first_of, owner) = t.distinct_by(key)?;
                let table = t.take(&first_of)?;
                let prov = p.map(|p| {
                    let mut alts: Vec<Vec<ProvId>> = vec![Vec::new(); first_of.len()];
                    for (row, &slot) in owner.iter().enumerate() {
                        alts[slot].push(p[row]);
                    }
                    alts.into_iter().map(|a| arena.plus(&a)).collect::<Vec<_>>()
                });
                let from = vec![row_map(tracing, first_of.iter().copied())];
                ((table, prov), NodeTrace::RowMap { from })
            }
            PlanNode::Concat { .. } => {
                let ((mut lt, lp), (rt, rp)) = (arg(), arg());
                let (l, r) = (lt.n_rows(), rt.n_rows());
                lt.append(&rt)?;
                let prov = match (lp, rp) {
                    (Some(mut lp), Some(rp)) => {
                        lp.extend(rp);
                        Some(lp)
                    }
                    _ => None,
                };
                let from = if tracing {
                    vec![
                        (0..l).map(Some).chain(repeat_n(None, r)).collect(),
                        repeat_n(None, l).chain((0..r).map(Some)).collect(),
                    ]
                } else {
                    Vec::new()
                };
                ((lt, prov), NodeTrace::RowMap { from })
            }
        };
        if let Some(tr) = trace {
            tr.order.push(id.index());
            tr.arena_starts.push(arena_start);
            tr.nodes.insert(id.index(), node_trace);
        }
        memo.insert(id.index(), result.clone());
        Ok(result)
    }
}

/// The plan's source names, in [`TupleId::source`] order.
fn plan_sources(plan: &Plan) -> Vec<String> {
    plan.source_names().into_iter().map(str::to_owned).collect()
}

/// One input's row map from the input rows the output rows were built
/// from, in output order (empty for an untraced run).
fn row_map(tracing: bool, rows: impl Iterator<Item = usize>) -> Vec<Option<usize>> {
    if tracing {
        rows.map(Some).collect()
    } else {
        Vec::new()
    }
}

/// A join's result and row maps from its `(left_row, right_row)` pairs (a
/// `None` right row is a left-join null pad). Provenance ids are interned
/// in pair order.
fn joined(
    arena: &mut ProvArena,
    table: Table,
    lp: Option<Vec<ProvId>>,
    rp: Option<Vec<ProvId>>,
    pairs: &[(usize, Option<usize>)],
    tracing: bool,
) -> (NodeResult, NodeTrace) {
    let prov = match (lp, rp) {
        (Some(lp), Some(rp)) => Some(
            pairs
                .iter()
                .map(|&(l, r)| match r {
                    Some(r) => arena.times(lp[l], rp[r]),
                    None => lp[l],
                })
                .collect(),
        ),
        _ => None,
    };
    let from = if tracing {
        vec![
            pairs.iter().map(|&(l, _)| Some(l)).collect(),
            pairs.iter().map(|&(_, r)| r).collect(),
        ]
    } else {
        Vec::new()
    };
    ((table, prov), NodeTrace::RowMap { from })
}

/// Kept rows for a `col == literal` filter via the table's vectorized
/// equality scan. `None` (another predicate shape, or an unknown column)
/// means "use the per-row evaluator", which owns the unknown-column error
/// report.
fn filter_eq_fast_path(t: &Table, predicate: &crate::expr::Expr) -> Option<Vec<usize>> {
    let (col, lit) = predicate.as_col_eq_lit()?;
    t.filter_eq_rows(col, lit).ok()
}

/// A `col IS [NOT] NULL` projection read straight off the column's null
/// bitmap. `None` falls back to per-row evaluation.
fn null_test_fast_path(t: &Table, expr: &crate::expr::Expr) -> Option<Plane> {
    let (name, not_null) = expr.as_null_test()?;
    let nulls = t.plane(name).ok()?.nulls();
    let mut out = BoolPlane::with_capacity(nulls.len());
    for row in 0..nulls.len() {
        out.push(nulls.get(row) != not_null);
    }
    Some(Plane::Bool(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use nde_data::generate::hiring::HiringScenario;
    use nde_data::Value;

    fn scenario() -> HiringScenario {
        HiringScenario::generate(80, 7)
    }

    fn run_hiring(track: bool) -> ExecOutput {
        let s = scenario();
        let (plan, root) = Plan::hiring_pipeline();
        Executor::new()
            .with_provenance(track)
            .run(
                &plan,
                root,
                &[
                    ("train_df", &s.letters),
                    ("jobdetail_df", &s.job_details),
                    ("social_df", &s.social),
                ],
            )
            .unwrap()
    }

    #[test]
    fn hiring_pipeline_executes() {
        let out = run_hiring(false);
        assert!(out.provenance.is_none());
        assert!(out.table.n_rows() > 0);
        assert!(out.table.schema().contains("has_twitter"));
        assert!(out.table.schema().contains("sector"));
        // Filter kept only healthcare rows.
        for row in 0..out.table.n_rows() {
            assert_eq!(
                out.table.get(row, "sector").unwrap(),
                Value::Str("healthcare".into())
            );
        }
    }

    #[test]
    fn provenance_matches_rows_and_sources() {
        let out = run_hiring(true);
        let lineage = out.provenance.unwrap();
        assert_eq!(lineage.rows.len(), out.table.n_rows());
        assert_eq!(
            lineage.sources,
            vec!["train_df", "jobdetail_df", "social_df"]
        );
        // Every output row depends on exactly one letters row and one jobs row.
        for row in 0..lineage.n_rows() {
            let tuples = lineage.row_tuples(row);
            let letters: Vec<_> = tuples.iter().filter(|t| t.source == 0).collect();
            let jobs: Vec<_> = tuples.iter().filter(|t| t.source == 1).collect();
            assert_eq!(letters.len(), 1, "row {row}");
            assert_eq!(jobs.len(), 1, "row {row}");
            // Social is a left join: 0 or 1 tuples.
            let social = tuples.iter().filter(|t| t.source == 2).count();
            assert!(social <= 1);
        }
    }

    #[test]
    fn provenance_points_to_correct_source_rows() {
        let s = scenario();
        let (plan, root) = Plan::hiring_pipeline();
        let out = Executor::new()
            .with_provenance(true)
            .run(
                &plan,
                root,
                &[
                    ("train_df", &s.letters),
                    ("jobdetail_df", &s.job_details),
                    ("social_df", &s.social),
                ],
            )
            .unwrap();
        let lineage = out.provenance.unwrap();
        for row in 0..out.table.n_rows() {
            let person = out.table.get(row, "person_id").unwrap();
            let tuples = lineage.row_tuples(row);
            let letter_row = tuples.iter().find(|t| t.source == 0).unwrap().row as usize;
            assert_eq!(s.letters.get(letter_row, "person_id").unwrap(), person);
        }
    }

    #[test]
    fn missing_input_rejected() {
        let s = scenario();
        let (plan, root) = Plan::hiring_pipeline();
        let err = Executor::new().run(&plan, root, &[("train_df", &s.letters)]);
        assert!(matches!(err, Err(PipelineError::MissingInput(_))));
    }

    #[test]
    fn select_and_concat_track_provenance() {
        let s = scenario();
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        let sel = plan.select(a, &["person_id", "sentiment"]);
        let both = plan.concat(sel, sel);
        let out = Executor::new()
            .with_provenance(true)
            .run(&plan, both, &[("train_df", &s.letters)])
            .unwrap();
        assert_eq!(out.table.n_rows(), 2 * s.letters.n_rows());
        assert_eq!(out.table.n_cols(), 2);
        let lineage = out.provenance.unwrap();
        // Row i and row i+n share the same provenance tuple.
        let n = s.letters.n_rows();
        assert_eq!(lineage.rows[0], lineage.rows[n]);
    }

    #[test]
    fn memoization_reuses_shared_subplans() {
        // The concat of a node with itself must not duplicate sources in
        // provenance, and must execute the shared subtree once (observable
        // through identical results; timing not asserted).
        let s = scenario();
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        let f = plan.filter(a, Expr::col("employer_rating").gt(Expr::float(5.0)));
        let c = plan.concat(f, f);
        let out = Executor::new()
            .with_provenance(true)
            .run(&plan, c, &[("train_df", &s.letters)])
            .unwrap();
        assert_eq!(out.table.n_rows() % 2, 0);
    }

    #[test]
    fn filter_propagates_expression_errors() {
        let s = scenario();
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        let f = plan.filter(a, Expr::col("no_such_column").is_null());
        let err = Executor::new().run(&plan, f, &[("train_df", &s.letters)]);
        assert!(matches!(err, Err(PipelineError::Expr(_))));
    }

    #[test]
    fn distinct_merges_duplicates_with_plus_provenance() {
        use crate::semiring::BoolSemiring;
        let s = scenario();
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        let doubled = plan.concat(a, a); // every row appears twice
        let d = plan.distinct(doubled, "person_id");
        let out = Executor::new()
            .with_provenance(true)
            .run(&plan, d, &[("train_df", &s.letters)])
            .unwrap();
        assert_eq!(out.table.n_rows(), s.letters.n_rows());
        let lineage = out.provenance.unwrap();
        // Each surviving row has two alternative derivations of the same
        // source tuple: a Plus whose why-provenance still names one tuple.
        let node = lineage.arena.node(lineage.rows[0]);
        assert!(matches!(node, crate::provenance::ProvNodeRef::Plus(alts) if alts.len() == 2));
        assert_eq!(lineage.row_tuples(0).len(), 1);
        // Boolean semantics: deleting the source tuple kills the row even
        // though it had two derivations.
        assert!(lineage.eval_rows::<BoolSemiring>(&|_| true)[0]);
        assert!(!lineage.eval_rows::<BoolSemiring>(&|_| false)[0]);
    }

    #[test]
    fn distinct_keeps_first_occurrence() {
        use nde_data::{DataType, Field, Schema};
        let mut t = Table::empty(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Str),
            ])
            .unwrap(),
        );
        t.push_row(vec![1.into(), "first".into()]).unwrap();
        t.push_row(vec![2.into(), "second".into()]).unwrap();
        t.push_row(vec![1.into(), "dup".into()]).unwrap();
        let mut plan = Plan::new();
        let a = plan.source("t");
        let d = plan.distinct(a, "k");
        let out = Executor::new().run(&plan, d, &[("t", &t)]).unwrap();
        assert_eq!(out.table.n_rows(), 2);
        assert_eq!(out.table.get(0, "v").unwrap(), Value::Str("first".into()));
        assert_eq!(out.table.get(1, "v").unwrap(), Value::Str("second".into()));
    }

    #[test]
    fn fuzzy_join_node_tracks_provenance() {
        use nde_data::{DataType, Field, Schema};
        let mut letters = Table::empty(
            "letters",
            Schema::new(vec![
                Field::new("employer", DataType::Str),
                Field::new("id", DataType::Int),
            ])
            .unwrap(),
        );
        letters
            .push_row(vec!["acme corp.".into(), 1.into()])
            .unwrap();
        letters.push_row(vec!["nomatch".into(), 2.into()]).unwrap();
        let mut companies = Table::empty(
            "companies",
            Schema::new(vec![
                Field::new("name", DataType::Str),
                Field::new("rating", DataType::Float),
            ])
            .unwrap(),
        );
        companies
            .push_row(vec!["Acme Corp".into(), 4.5.into()])
            .unwrap();

        let mut plan = Plan::new();
        let l = plan.source("letters");
        let c = plan.source("companies");
        let fj = plan.fuzzy_join(l, c, "employer", "name", 0.8);
        let out = Executor::new()
            .with_provenance(true)
            .run(
                &plan,
                fj,
                &[("letters", &letters), ("companies", &companies)],
            )
            .unwrap();
        assert_eq!(out.table.n_rows(), 1);
        assert_eq!(out.table.get(0, "rating").unwrap(), Value::Float(4.5));
        let lineage = out.provenance.unwrap();
        let tuples = lineage.row_tuples(0);
        assert_eq!(tuples.len(), 2); // one letters tuple, one companies tuple
        assert!(tuples.iter().any(|t| t.source == 0 && t.row == 0));
        assert!(tuples.iter().any(|t| t.source == 1 && t.row == 0));
    }

    fn panicking_udf(panic_row: usize) -> Expr {
        Expr::udf(
            format!("boom_row_{panic_row}"),
            DataType::Bool,
            &[],
            move |_t, row| {
                if row == panic_row {
                    panic!("boom on row {row}");
                }
                Ok(Value::Bool(true))
            },
        )
    }

    #[test]
    fn fail_fast_panic_is_a_typed_error() {
        let s = scenario();
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        let f = plan.filter(a, panicking_udf(3));
        let err = Executor::new()
            .run(&plan, f, &[("train_df", &s.letters)])
            .unwrap_err();
        match err {
            PipelineError::OperatorPanic {
                node,
                operator,
                row,
                message,
            } => {
                assert_eq!(node, f.index());
                assert!(operator.contains("boom_row_3"), "{operator}");
                assert_eq!(row, 3);
                assert!(message.contains("boom on row 3"), "{message}");
            }
            other => panic!("expected OperatorPanic, got {other:?}"),
        }
    }

    #[test]
    fn skip_and_record_quarantines_and_completes() {
        let s = scenario();
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        let f = plan.filter(a, panicking_udf(5));
        let out = Executor::new()
            .with_provenance(true)
            .with_panic_policy(PanicPolicy::SkipAndRecord)
            .run(&plan, f, &[("train_df", &s.letters)])
            .unwrap();
        // Exactly the panicking row is missing.
        assert_eq!(out.table.n_rows(), s.letters.n_rows() - 1);
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(q.row, 5);
        assert_eq!(q.node, f.index());
        assert_eq!(q.sources, vec![TupleId::new(0, 5)]);
        // The provenance of surviving rows skips the quarantined tuple.
        let lineage = out.provenance.unwrap();
        assert_eq!(lineage.n_rows(), out.table.n_rows());
        assert!(
            (0..lineage.n_rows()).all(|row| !lineage.row_tuples(row).contains(&TupleId::new(0, 5)))
        );
    }

    fn multi_panic_udf(panic_rows: &[usize]) -> Expr {
        let rows: Vec<usize> = panic_rows.to_vec();
        Expr::udf(
            format!("boom_rows_{rows:?}"),
            DataType::Bool,
            &[],
            move |_t, row| {
                if rows.contains(&row) {
                    panic!("boom on row {row}");
                }
                Ok(Value::Bool(true))
            },
        )
    }

    #[test]
    fn parallel_execution_is_identical_to_sequential() {
        // Enough rows for several chunks; panics land in different chunks.
        let s = HiringScenario::generate(300, 7);
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        let f = plan.filter(a, multi_panic_udf(&[5, 70, 199, 250]));
        let run = |threads| {
            Executor::new()
                .with_provenance(true)
                .with_panic_policy(PanicPolicy::SkipAndRecord)
                .with_threads(threads)
                .run(&plan, f, &[("train_df", &s.letters)])
                .unwrap()
        };
        let seq = run(1);
        assert_eq!(seq.table.n_rows(), s.letters.n_rows() - 4);
        let rows: Vec<usize> = seq.quarantined.iter().map(|q| q.row).collect();
        assert_eq!(rows, vec![5, 70, 199, 250]);
        for threads in [2, 4, 7] {
            let par = run(threads);
            assert_eq!(par.table, seq.table, "threads={threads}");
            assert_eq!(par.quarantined, seq.quarantined, "threads={threads}");
            assert_eq!(par.provenance, seq.provenance, "threads={threads}");
        }
    }

    #[test]
    fn parallel_fail_fast_reports_first_failing_row() {
        let s = HiringScenario::generate(300, 7);
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        // The later row sits in an earlier-claimed chunk only sometimes;
        // the reported failure must always be the sequential-first row 30.
        let f = plan.filter(a, multi_panic_udf(&[230, 30]));
        for threads in [1, 4] {
            let err = Executor::new()
                .with_threads(threads)
                .run(&plan, f, &[("train_df", &s.letters)])
                .unwrap_err();
            match err {
                PipelineError::OperatorPanic { row, .. } => {
                    assert_eq!(row, 30, "threads={threads}")
                }
                other => panic!("expected OperatorPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn project_adds_typed_column() {
        let s = scenario();
        let mut plan = Plan::new();
        let a = plan.source("social_df");
        let p = plan.project(a, "has_twitter", Expr::col("twitter").is_not_null());
        let out = Executor::new()
            .run(&plan, p, &[("social_df", &s.social)])
            .unwrap();
        let has: Vec<bool> = (0..out.table.n_rows())
            .map(|r| out.table.get(r, "has_twitter").unwrap().as_bool().unwrap())
            .collect();
        let nulls = s.social.plane("twitter").unwrap().null_count();
        assert_eq!(has.iter().filter(|&&b| !b).count(), nulls);
    }
}
