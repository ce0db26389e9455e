//! Flattened binary decision tree.
//!
//! Nodes live in one contiguous `Vec`; index 0 is the root. Internal
//! nodes test `x[feature] <= threshold` (LightGBM's default predicate,
//! and the one assumed throughout the GEF paper): on success traversal
//! goes left, otherwise right. Every node records the training-time
//! loss reduction (`gain`) and the number of training rows that reached
//! it (`count`) — the two statistics GEF's feature-selection and
//! interaction heuristics consume, and TreeSHAP's cover weights.

/// Sentinel feature index marking a leaf node.
pub const LEAF: i32 = -1;

/// One node of a [`Tree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Feature index tested at this node, or [`LEAF`] for leaves.
    pub feature: i32,
    /// Split threshold; traversal goes left when `x[feature] <= threshold`.
    pub threshold: f64,
    /// Index of the left child (`x <= t`). Unused for leaves.
    pub left: u32,
    /// Index of the right child (`x > t`). Unused for leaves.
    pub right: u32,
    /// Output value (meaningful only for leaves).
    pub value: f64,
    /// Loss reduction achieved by this split at training time
    /// (0 for leaves).
    pub gain: f64,
    /// Number of training instances routed through this node ("cover").
    pub count: u32,
}

impl Node {
    /// Construct a leaf node.
    pub fn leaf(value: f64, count: u32) -> Self {
        Node {
            feature: LEAF,
            threshold: 0.0,
            left: 0,
            right: 0,
            value,
            gain: 0.0,
            count,
        }
    }

    /// Construct an internal split node.
    pub fn split(
        feature: usize,
        threshold: f64,
        left: u32,
        right: u32,
        gain: f64,
        count: u32,
    ) -> Self {
        Node {
            feature: feature as i32,
            threshold,
            left,
            right,
            value: 0.0,
            gain,
            count,
        }
    }

    /// Whether this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.feature == LEAF
    }
}

/// A binary decision tree stored as a flat node array (root at index 0).
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    /// Flattened nodes; index 0 is the root.
    pub nodes: Vec<Node>,
}

impl Tree {
    /// A tree consisting of a single leaf (constant prediction).
    pub fn constant(value: f64, count: u32) -> Self {
        Tree {
            nodes: vec![Node::leaf(value, count)],
        }
    }

    /// Evaluate the tree on an instance.
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            let n = &self.nodes[idx];
            if n.is_leaf() {
                return n.value;
            }
            idx = if x[n.feature as usize] <= n.threshold {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }

    /// Evaluate the tree and also report how many nodes the traversal
    /// visited (root and leaf included). Used by telemetry to count
    /// forest work during synthetic-dataset labeling.
    #[inline]
    pub fn predict_counted(&self, x: &[f64]) -> (f64, u64) {
        let mut idx = 0usize;
        let mut visited = 0u64;
        loop {
            let n = &self.nodes[idx];
            visited += 1;
            if n.is_leaf() {
                return (n.value, visited);
            }
            idx = if x[n.feature as usize] <= n.threshold {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum root-to-leaf depth (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(t: &Tree, idx: usize) -> usize {
            let n = &t.nodes[idx];
            if n.is_leaf() {
                0
            } else {
                1 + rec(t, n.left as usize).max(rec(t, n.right as usize))
            }
        }
        rec(self, 0)
    }

    /// Validate structural invariants: child indices in range, every
    /// non-root node referenced exactly once, no cycles (indices of
    /// children strictly greater than the parent is NOT required, only
    /// reachability-consistency), and counts consistent
    /// (`parent.count == left.count + right.count` when counts are set).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if n == 0 {
            return Err("empty tree".into());
        }
        let mut refs = vec![0u32; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if node.is_leaf() {
                continue;
            }
            let (l, r) = (node.left as usize, node.right as usize);
            if l >= n || r >= n {
                return Err(format!("node {i}: child index out of range"));
            }
            if l == i || r == i {
                return Err(format!("node {i}: self-referencing child"));
            }
            refs[l] += 1;
            refs[r] += 1;
            if node.count > 0
                && self.nodes[l].count > 0
                && self.nodes[r].count > 0
                && node.count != self.nodes[l].count + self.nodes[r].count
            {
                return Err(format!(
                    "node {i}: count {} != children {} + {}",
                    node.count, self.nodes[l].count, self.nodes[r].count
                ));
            }
        }
        if refs[0] != 0 {
            return Err("root is referenced as a child".into());
        }
        for (i, &c) in refs.iter().enumerate().skip(1) {
            if c != 1 {
                return Err(format!("node {i} referenced {c} times (expected 1)"));
            }
        }
        // Reachability: every node must be visited exactly once from root.
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        let mut visited = 0usize;
        while let Some(i) = stack.pop() {
            if seen[i] {
                return Err(format!("cycle detected at node {i}"));
            }
            seen[i] = true;
            visited += 1;
            let node = &self.nodes[i];
            if !node.is_leaf() {
                stack.push(node.left as usize);
                stack.push(node.right as usize);
            }
        }
        if visited != n {
            return Err(format!("{} unreachable nodes", n - visited));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tree:      [0] x0 <= 0.5
    ///            /            \
    ///      [1] x1 <= 0.3    [2] leaf 3.0
    ///        /      \
    ///  [3] leaf 1.0  [4] leaf 2.0
    fn sample_tree() -> Tree {
        Tree {
            nodes: vec![
                Node::split(0, 0.5, 1, 2, 5.0, 100),
                Node::split(1, 0.3, 3, 4, 2.0, 60),
                Node::leaf(3.0, 40),
                Node::leaf(1.0, 25),
                Node::leaf(2.0, 35),
            ],
        }
    }

    #[test]
    fn predict_routes_correctly() {
        let t = sample_tree();
        assert_eq!(t.predict(&[0.4, 0.2]), 1.0);
        assert_eq!(t.predict(&[0.4, 0.8]), 2.0);
        assert_eq!(t.predict(&[0.9, 0.0]), 3.0);
        // Boundary: x <= t goes left.
        assert_eq!(t.predict(&[0.5, 0.3]), 1.0);
    }

    #[test]
    fn structural_accessors() {
        let t = sample_tree();
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.depth(), 2);
        let c = Tree::constant(7.5, 10);
        assert_eq!(c.predict(&[1.0]), 7.5);
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn validate_accepts_good_tree() {
        assert!(sample_tree().validate().is_ok());
        assert!(Tree::constant(0.0, 1).validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_counts() {
        let mut t = sample_tree();
        t.nodes[1].count = 61; // != 25 + 35
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_child() {
        let mut t = sample_tree();
        t.nodes[0].right = 99;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_cycle() {
        let t = Tree {
            nodes: vec![
                Node::split(0, 0.5, 1, 2, 0.0, 0),
                Node::split(1, 0.5, 0, 2, 0.0, 0), // points back to root
                Node::leaf(1.0, 0),
            ],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty() {
        let t = Tree { nodes: vec![] };
        assert!(t.validate().is_err());
    }
}
