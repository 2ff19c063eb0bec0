//! Logical pipeline plans: an arena-allocated operator DAG.

use crate::expr::Expr;
use crate::{PipelineError, Result};
use nde_data::Table;

/// Handle to a node within a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Join variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join: unmatched rows dropped.
    Inner,
    /// Left outer join: unmatched left rows kept with nulls.
    Left,
}

/// One operator of the pipeline DAG.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// A named input table.
    Source {
        /// Name used to look up the table at execution time.
        name: String,
    },
    /// Fuzzy string join: each left row pairs with its best right match at
    /// or above a similarity threshold (see [`crate::fuzzy::fuzzy_join`]).
    FuzzyJoin {
        /// Left input.
        left: NodeId,
        /// Right input.
        right: NodeId,
        /// String join key on the left.
        left_key: String,
        /// String join key on the right.
        right_key: String,
        /// Normalized-similarity threshold in `[0, 1]`.
        threshold: f64,
    },
    /// Equi-join of two upstream nodes.
    Join {
        /// Left input.
        left: NodeId,
        /// Right input.
        right: NodeId,
        /// Join key on the left.
        left_key: String,
        /// Join key on the right.
        right_key: String,
        /// Inner or left-outer.
        how: JoinType,
    },
    /// Keep rows satisfying a predicate.
    Filter {
        /// Input node.
        input: NodeId,
        /// Row predicate.
        predicate: Expr,
    },
    /// Add a derived column computed by an expression (a projection UDF,
    /// like Fig. 3's `has_twitter = twitter.notnull()`).
    Project {
        /// Input node.
        input: NodeId,
        /// Name of the derived column.
        column: String,
        /// Defining expression.
        expr: Expr,
    },
    /// Keep only the named columns.
    SelectColumns {
        /// Input node.
        input: NodeId,
        /// Columns to keep, in order.
        columns: Vec<String>,
    },
    /// Deduplicate rows by a key column, keeping the first occurrence.
    /// With provenance on, a surviving row's polynomial is the `Plus`
    /// (alternative derivations) of all duplicates it absorbed.
    Distinct {
        /// Input node.
        input: NodeId,
        /// Key column defining duplicates.
        key: String,
    },
    /// Row-wise union of two conformant inputs.
    Concat {
        /// First input.
        left: NodeId,
        /// Second input.
        right: NodeId,
    },
}

/// What each operator does to its inputs' columns and rows, in the terms
/// the cell-patch and delete walks of [`crate::delta::PipelineSession`]
/// read. Inputs are numbered in [`Plan::children`] order; which rows reach
/// which output rows is the executor's row map
/// ([`crate::exec::NodeTrace::RowMap`]).
impl PlanNode {
    /// Columns of input `input` whose values decide which rows reach the
    /// output: join keys, filter predicate columns and the distinct key.
    pub(crate) fn routing_columns(&self, input: usize) -> Vec<&str> {
        match self {
            PlanNode::Join {
                left_key,
                right_key,
                ..
            }
            | PlanNode::FuzzyJoin {
                left_key,
                right_key,
                ..
            } => vec![if input == 0 { left_key } else { right_key }],
            PlanNode::Filter { predicate, .. } => predicate.columns(),
            PlanNode::Distinct { key, .. } => vec![key],
            _ => Vec::new(),
        }
    }

    /// Whether deleting a row of input `input` removes exactly the output
    /// rows built from it and keeps every other output row unchanged and
    /// in order. Filter, projection, selection and concat decide each
    /// output row from one input row; an inner join pairs rows
    /// independently on both sides; a left or fuzzy join decides a left
    /// row's matches without looking at the other left rows, but a deleted
    /// right row can turn a match into a pad or a different best match.
    /// `Distinct` keeps the first of each key, which a delete can move.
    pub(crate) fn deletes_rows_locally(&self, input: usize) -> bool {
        match self {
            PlanNode::Filter { .. }
            | PlanNode::Project { .. }
            | PlanNode::SelectColumns { .. }
            | PlanNode::Concat { .. }
            | PlanNode::Join {
                how: JoinType::Inner,
                ..
            } => true,
            PlanNode::Join {
                how: JoinType::Left,
                ..
            }
            | PlanNode::FuzzyJoin { .. } => input == 0,
            PlanNode::Source { .. } | PlanNode::Distinct { .. } => false,
        }
    }

    /// The output column that column `name` of input `input` becomes, or
    /// `None` when the operator drops it. A join renames right columns by
    /// [`Table::join_right_name`] over its `left` input.
    pub(crate) fn output_column(&self, input: usize, name: &str, left: &Table) -> Option<String> {
        match self {
            PlanNode::Join { right_key, .. } | PlanNode::FuzzyJoin { right_key, .. }
                if input == 1 =>
            {
                (name != right_key).then(|| left.join_right_name(name))
            }
            PlanNode::SelectColumns { columns, .. } if !columns.iter().any(|c| c == name) => None,
            _ => Some(name.to_string()),
        }
    }

    /// The column this operator derives and its defining expression.
    pub(crate) fn derived_column(&self) -> Option<(&str, &Expr)> {
        match self {
            PlanNode::Project { column, expr, .. } => Some((column, expr)),
            _ => None,
        }
    }
}

/// An arena of plan nodes forming a DAG (children always precede parents).
#[derive(Debug, Clone, Default)]
pub struct Plan {
    nodes: Vec<PlanNode>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Plan {
        Plan::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> Result<&PlanNode> {
        self.nodes.get(id.0).ok_or(PipelineError::UnknownNode(id.0))
    }

    fn push(&mut self, node: PlanNode) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    fn check(&self, id: NodeId) -> NodeId {
        debug_assert!(id.0 < self.nodes.len(), "node id from another plan");
        id
    }

    /// Add a source node reading the input table registered under `name`.
    pub fn source(&mut self, name: impl Into<String>) -> NodeId {
        self.push(PlanNode::Source { name: name.into() })
    }

    /// Add an equi-join node.
    pub fn join(
        &mut self,
        left: NodeId,
        right: NodeId,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
        how: JoinType,
    ) -> NodeId {
        let (left, right) = (self.check(left), self.check(right));
        self.push(PlanNode::Join {
            left,
            right,
            left_key: left_key.into(),
            right_key: right_key.into(),
            how,
        })
    }

    /// Add a fuzzy-join node.
    pub fn fuzzy_join(
        &mut self,
        left: NodeId,
        right: NodeId,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
        threshold: f64,
    ) -> NodeId {
        let (left, right) = (self.check(left), self.check(right));
        self.push(PlanNode::FuzzyJoin {
            left,
            right,
            left_key: left_key.into(),
            right_key: right_key.into(),
            threshold,
        })
    }

    /// Add a filter node.
    pub fn filter(&mut self, input: NodeId, predicate: Expr) -> NodeId {
        let input = self.check(input);
        self.push(PlanNode::Filter { input, predicate })
    }

    /// Add a derived-column projection node.
    pub fn project(&mut self, input: NodeId, column: impl Into<String>, expr: Expr) -> NodeId {
        let input = self.check(input);
        self.push(PlanNode::Project {
            input,
            column: column.into(),
            expr,
        })
    }

    /// Add a column-selection node.
    pub fn select(&mut self, input: NodeId, columns: &[&str]) -> NodeId {
        let input = self.check(input);
        self.push(PlanNode::SelectColumns {
            input,
            columns: columns.iter().map(|c| c.to_string()).collect(),
        })
    }

    /// Add a distinct-by-key node.
    pub fn distinct(&mut self, input: NodeId, key: impl Into<String>) -> NodeId {
        let input = self.check(input);
        self.push(PlanNode::Distinct {
            input,
            key: key.into(),
        })
    }

    /// Add a row-wise concat node.
    pub fn concat(&mut self, left: NodeId, right: NodeId) -> NodeId {
        let (left, right) = (self.check(left), self.check(right));
        self.push(PlanNode::Concat { left, right })
    }

    /// Names of all source tables referenced by the plan, in first-use order.
    pub fn source_names(&self) -> Vec<&str> {
        let mut names = Vec::new();
        for node in &self.nodes {
            if let PlanNode::Source { name } = node {
                if !names.contains(&name.as_str()) {
                    names.push(name.as_str());
                }
            }
        }
        names
    }

    /// The children of a node (upstream inputs).
    pub fn children(&self, id: NodeId) -> Result<Vec<NodeId>> {
        Ok(match self.node(id)? {
            PlanNode::Source { .. } => vec![],
            PlanNode::Join { left, right, .. }
            | PlanNode::FuzzyJoin { left, right, .. }
            | PlanNode::Concat { left, right } => {
                vec![*left, *right]
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Distinct { input, .. }
            | PlanNode::SelectColumns { input, .. } => vec![*input],
        })
    }

    /// Build the standard Fig. 3 hiring pipeline over sources
    /// `train_df`, `jobdetail_df`, `social_df`. Returns the plan and its root.
    pub fn hiring_pipeline() -> (Plan, NodeId) {
        let mut plan = Plan::new();
        let letters = plan.source("train_df");
        let jobs = plan.source("jobdetail_df");
        let social = plan.source("social_df");
        let j1 = plan.join(letters, jobs, "job_id", "job_id", JoinType::Inner);
        let j2 = plan.join(j1, social, "person_id", "person_id", JoinType::Left);
        let filtered = plan.filter(j2, Expr::col("sector").eq(Expr::str("healthcare")));
        let projected = plan.project(filtered, "has_twitter", Expr::col("twitter").is_not_null());
        (plan, projected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_dag() {
        let mut p = Plan::new();
        let a = p.source("a");
        let b = p.source("b");
        let j = p.join(a, b, "k", "k", JoinType::Inner);
        let f = p.filter(j, Expr::col("x").is_not_null());
        assert_eq!(p.len(), 4);
        assert_eq!(p.children(f).unwrap(), vec![j]);
        assert_eq!(p.children(j).unwrap(), vec![a, b]);
        assert!(p.children(a).unwrap().is_empty());
        assert!(matches!(p.node(f).unwrap(), PlanNode::Filter { .. }));
        assert!(p.node(NodeId(99)).is_err());
    }

    #[test]
    fn source_names_deduped_in_order() {
        let mut p = Plan::new();
        let a = p.source("train");
        let b = p.source("side");
        let _ = p.source("train");
        let _ = p.join(a, b, "k", "k", JoinType::Inner);
        assert_eq!(p.source_names(), vec!["train", "side"]);
    }

    #[test]
    fn hiring_pipeline_shape() {
        let (plan, root) = Plan::hiring_pipeline();
        assert_eq!(
            plan.source_names(),
            vec!["train_df", "jobdetail_df", "social_df"]
        );
        assert!(matches!(plan.node(root).unwrap(), PlanNode::Project { .. }));
        // Root chains back to all three sources.
        let mut stack = vec![root];
        let mut sources = 0;
        while let Some(id) = stack.pop() {
            if plan.children(id).unwrap().is_empty() {
                sources += 1;
            }
            stack.extend(plan.children(id).unwrap());
        }
        assert_eq!(sources, 3);
    }
}
