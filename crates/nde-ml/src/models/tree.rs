//! CART-style decision tree with Gini impurity.

use crate::dataset::Dataset;
use crate::model::Classifier;
use crate::{MlError, Result};

/// A binary decision tree classifier (axis-aligned splits, Gini impurity).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum examples required to attempt a split.
    pub min_split: usize,
    nodes: Vec<Node>,
    n_classes: usize,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        class: usize,
        /// Class distribution at the leaf (for probabilities).
        dist: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child (`<= threshold`); right child follows it.
        left: usize,
        right: usize,
    },
}

impl DecisionTree {
    /// Create an unfitted tree.
    pub fn new(max_depth: usize, min_split: usize) -> DecisionTree {
        DecisionTree {
            max_depth: max_depth.max(1),
            min_split: min_split.max(2),
            nodes: Vec::new(),
            n_classes: 0,
        }
    }

    /// Number of nodes in the fitted tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn gini(counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        1.0 - counts
            .iter()
            .map(|&c| {
                let p = c as f64 / t;
                p * p
            })
            .sum::<f64>()
    }

    fn class_counts(&self, data: &Dataset, indices: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &i in indices {
            counts[data.y[i]] += 1;
        }
        counts
    }

    /// Find the best (feature, threshold) split of `indices` by Gini gain.
    fn best_split(&self, data: &Dataset, indices: &[usize]) -> Option<(usize, f64, f64)> {
        let parent_counts = self.class_counts(data, indices);
        let n = indices.len();
        let parent_gini = Self::gini(&parent_counts, n);
        let mut best: Option<(usize, f64, f64)> = None;

        let mut sorted = indices.to_vec();
        for f in 0..data.dim() {
            sorted.sort_by(|&a, &b| {
                data.x
                    .get(a, f)
                    .partial_cmp(&data.x.get(b, f))
                    .expect("finite features")
            });
            let mut left_counts = vec![0usize; self.n_classes];
            for w in 0..n - 1 {
                let i = sorted[w];
                left_counts[data.y[i]] += 1;
                let x_cur = data.x.get(i, f);
                let x_next = data.x.get(sorted[w + 1], f);
                if x_cur == x_next {
                    continue; // can't split between equal values
                }
                let left_n = w + 1;
                let right_n = n - left_n;
                let right_counts: Vec<usize> = parent_counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(&p, &l)| p - l)
                    .collect();
                let weighted = (left_n as f64 * Self::gini(&left_counts, left_n)
                    + right_n as f64 * Self::gini(&right_counts, right_n))
                    / n as f64;
                let gain = parent_gini - weighted;
                let threshold = 0.5 * (x_cur + x_next);
                // Accept zero-gain splits (gain >= 0): greedy Gini gain is 0 for
                // XOR-like patterns at the root, yet deeper splits resolve them.
                // Recursion stays bounded by purity, max_depth and min_split.
                if gain >= 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }

    fn build(&mut self, data: &Dataset, indices: &[usize], depth: usize) -> usize {
        let counts = self.class_counts(data, indices);
        let total: usize = counts.iter().sum();
        let make_leaf = |counts: &[usize]| {
            let class = counts
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(c, _)| c)
                .unwrap_or(0);
            let dist = counts
                .iter()
                .map(|&c| c as f64 / total.max(1) as f64)
                .collect();
            Node::Leaf { class, dist }
        };

        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if depth >= self.max_depth || indices.len() < self.min_split || pure {
            self.nodes.push(make_leaf(&counts));
            return self.nodes.len() - 1;
        }
        match self.best_split(data, indices) {
            None => {
                self.nodes.push(make_leaf(&counts));
                self.nodes.len() - 1
            }
            Some((feature, threshold, _gain)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| data.x.get(i, feature) <= threshold);
                // Reserve our slot before recursing so child indices are known.
                let my_slot = self.nodes.len();
                self.nodes.push(Node::Leaf {
                    class: 0,
                    dist: vec![],
                }); // placeholder
                let left = self.build(data, &left_idx, depth + 1);
                let right = self.build(data, &right_idx, depth + 1);
                self.nodes[my_slot] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                my_slot
            }
        }
    }

    fn leaf_for(&self, x: &[f64]) -> &Node {
        debug_assert!(!self.nodes.is_empty(), "model must be fitted");
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { .. } => return &self.nodes[idx],
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn config_tag(&self) -> String {
        format!(
            "decision-tree(max_depth={};min_split={})",
            self.max_depth, self.min_split
        )
    }

    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        self.nodes.clear();
        self.n_classes = data.n_classes;
        let all: Vec<usize> = (0..data.len()).collect();
        self.build(data, &all, 0);
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        match self.leaf_for(x) {
            Node::Leaf { class, .. } => *class,
            Node::Split { .. } => unreachable!("leaf_for returns leaves"),
        }
    }

    fn predict_proba_one(&self, x: &[f64]) -> Vec<f64> {
        match self.leaf_for(x) {
            Node::Leaf { dist, .. } => dist.clone(),
            Node::Split { .. } => unreachable!("leaf_for returns leaves"),
        }
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn is_fitted(&self) -> bool {
        !self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;

    #[test]
    fn learns_axis_aligned_boundary() {
        let data = Dataset::from_rows(
            vec![
                vec![0.0],
                vec![1.0],
                vec![2.0],
                vec![10.0],
                vec![11.0],
                vec![12.0],
            ],
            vec![0, 0, 0, 1, 1, 1],
            2,
        )
        .unwrap();
        let mut tree = DecisionTree::new(3, 2);
        tree.fit(&data).unwrap();
        assert_eq!(tree.accuracy(&data), 1.0);
        assert_eq!(tree.predict_one(&[-5.0]), 0);
        assert_eq!(tree.predict_one(&[20.0]), 1);
    }

    #[test]
    fn xor_needs_depth_two() {
        let data = Dataset::from_rows(
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![0, 1, 1, 0],
            2,
        )
        .unwrap();
        let mut shallow = DecisionTree::new(1, 2);
        shallow.fit(&data).unwrap();
        assert!(shallow.accuracy(&data) <= 0.75);
        let mut deep = DecisionTree::new(3, 2);
        deep.fit(&data).unwrap();
        assert_eq!(deep.accuracy(&data), 1.0);
    }

    #[test]
    fn pure_node_stops_early() {
        let data =
            Dataset::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1], 2).unwrap();
        let mut tree = DecisionTree::new(10, 2);
        tree.fit(&data).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_one(&[99.0]), 1);
    }

    #[test]
    fn leaf_probabilities_match_distribution() {
        // Depth 0 effectively: a single leaf with a 2:1 class mix.
        let data =
            Dataset::from_rows(vec![vec![1.0], vec![1.0], vec![1.0]], vec![0, 0, 1], 2).unwrap();
        let mut tree = DecisionTree::new(3, 2);
        tree.fit(&data).unwrap();
        let p = tree.predict_proba_one(&[1.0]);
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn blobs_accuracy_reasonable() {
        let nd = two_gaussians(400, 2, 4.0, 8);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..300).collect::<Vec<_>>());
        let test = all.subset(&(300..400).collect::<Vec<_>>());
        let mut tree = DecisionTree::new(5, 4);
        tree.fit(&train).unwrap();
        assert!(tree.accuracy(&test) > 0.9);
    }

    #[test]
    fn refit_resets_nodes() {
        let d1 = Dataset::from_rows(vec![vec![0.0], vec![1.0]], vec![0, 1], 2).unwrap();
        let mut tree = DecisionTree::new(3, 2);
        tree.fit(&d1).unwrap();
        let n1 = tree.n_nodes();
        tree.fit(&d1).unwrap();
        assert_eq!(tree.n_nodes(), n1);
    }
}
