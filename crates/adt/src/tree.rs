//! The alternating decision tree structure and its scorer.

use crate::condition::Condition;

/// Where a splitter attaches: the root prediction node or one of the two
/// prediction nodes of an earlier splitter. Several splitters may share an
/// anchor — that is what makes the tree *alternating* (Figure 6 of the
/// paper shows a prediction node with two splitter children).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    Root,
    /// `(splitter index, branch)` — `branch` is `true` for the
    /// condition-satisfied prediction node.
    Node(usize, bool),
}

/// One splitter with its two prediction nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Splitter {
    pub anchor: Anchor,
    pub condition: Condition,
    /// Prediction value when the condition holds.
    pub yes_value: f64,
    /// Prediction value when it does not.
    pub no_value: f64,
}

/// An alternating decision tree: a root prediction value plus an ordered
/// list of splitters whose anchors always point at earlier splitters.
#[derive(Debug, Clone, PartialEq)]
pub struct AdTree {
    pub root_value: f64,
    pub splitters: Vec<Splitter>,
}

impl AdTree {
    /// A trivial tree that scores every instance with the prior.
    #[must_use]
    pub fn prior(root_value: f64) -> Self {
        AdTree { root_value, splitters: Vec::new() }
    }

    /// Number of splitter nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.splitters.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.splitters.is_empty()
    }

    /// The confidence score of an instance: the sum of the prediction
    /// values on every reachable path. Splitters whose feature is missing
    /// contribute nothing and block their subtrees.
    #[must_use]
    pub fn score(&self, row: &[Option<f64>]) -> f64 {
        let mut score = self.root_value;
        // reachable[i] = Some(branch outcome) if splitter i's condition was
        // evaluated (anchor active), None otherwise.
        let mut outcome: Vec<Option<bool>> = vec![None; self.splitters.len()];
        for (i, s) in self.splitters.iter().enumerate() {
            let anchored = match s.anchor {
                Anchor::Root => true,
                Anchor::Node(j, branch) => {
                    debug_assert!(j < i, "anchors must reference earlier splitters");
                    outcome[j] == Some(branch)
                }
            };
            if anchored {
                if let Some(satisfied) = s.condition.eval(row) {
                    outcome[i] = Some(satisfied);
                    score += if satisfied { s.yes_value } else { s.no_value };
                }
            }
        }
        score
    }

    /// Binary classification: scores above zero are matches (the paper's
    /// default decision rule, Section 5.2).
    #[must_use]
    pub fn classify(&self, row: &[Option<f64>]) -> bool {
        self.score(row) > 0.0
    }

    /// The distinct features used by the tree's splitters (the paper
    /// reports its models use 8–10 of the 48 features).
    #[must_use]
    pub fn features_used(&self) -> Vec<usize> {
        let mut f: Vec<usize> = self.splitters.iter().map(|s| s.condition.feature).collect();
        f.sort_unstable();
        f.dedup();
        f
    }

    /// Append a splitter; used by the trainer. Panics when the anchor
    /// references a not-yet-existing splitter.
    pub fn push(&mut self, splitter: Splitter) {
        if let Anchor::Node(j, _) = splitter.anchor {
            assert!(j < self.splitters.len(), "dangling anchor {j}");
        }
        self.splitters.push(splitter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Figure 5(b): root +0.5, splitter `a < 4.5`
    /// (yes: -0.7, no: +0.2 — encoded to reproduce sign(+0.5-0.7-0.2)=-1
    /// for (a,b)=(3.9,0.9)), nested splitter `b < 1.0` under the yes branch
    /// (yes: -0.2, no: +0.4).
    fn figure5_tree() -> AdTree {
        let mut t = AdTree::prior(0.5);
        t.push(Splitter {
            anchor: Anchor::Root,
            condition: Condition::new(0, 4.5),
            yes_value: -0.7,
            no_value: 0.2,
        });
        t.push(Splitter {
            anchor: Anchor::Node(0, true),
            condition: Condition::new(1, 1.0),
            yes_value: -0.2,
            no_value: 0.4,
        });
        t
    }

    #[test]
    fn figure5_example_scores() {
        let t = figure5_tree();
        // (a, b) = (3.9, 0.9): +0.5 - 0.7 - 0.2 = -0.4 => class -1.
        let row = [Some(3.9), Some(0.9)];
        assert!((t.score(&row) - (-0.4)).abs() < 1e-12);
        assert!(!t.classify(&row));
        // (a, b) = (5.0, 0.9): the nested splitter is unreachable.
        let row2 = [Some(5.0), Some(0.9)];
        assert!((t.score(&row2) - 0.7).abs() < 1e-12);
        assert!(t.classify(&row2));
    }

    #[test]
    fn figure6_multiple_splitters_per_prediction_node() {
        // Add a second splitter anchored at the root (the "alternating"
        // case): contributions accumulate across sibling splitters.
        let mut t = figure5_tree();
        t.push(Splitter {
            anchor: Anchor::Root,
            condition: Condition::new(1, 2.0),
            yes_value: 0.3,
            no_value: -0.1,
        });
        let row = [Some(3.9), Some(0.9)];
        // 0.5 - 0.7 - 0.2 + 0.3 = -0.1.
        assert!((t.score(&row) - (-0.1)).abs() < 1e-12);
    }

    #[test]
    fn missing_feature_blocks_subtree() {
        let t = figure5_tree();
        // `a` missing: only the root contributes.
        let row = [None, Some(0.9)];
        assert!((t.score(&row) - 0.5).abs() < 1e-12);
        // `b` missing: root + first splitter contribute.
        let row2 = [Some(3.9), None];
        assert!((t.score(&row2) - (0.5 - 0.7)).abs() < 1e-12);
    }

    #[test]
    fn features_used_dedups() {
        let t = figure5_tree();
        assert_eq!(t.features_used(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "dangling anchor")]
    fn dangling_anchor_panics() {
        let mut t = AdTree::prior(0.0);
        t.push(Splitter {
            anchor: Anchor::Node(3, true),
            condition: Condition::new(0, 0.0),
            yes_value: 0.0,
            no_value: 0.0,
        });
    }

    #[test]
    fn prior_tree_scores_constant() {
        let t = AdTree::prior(-0.29);
        assert!((t.score(&[None, None]) - (-0.29)).abs() < 1e-12);
        assert!(!t.classify(&[Some(1.0)]));
    }
}
