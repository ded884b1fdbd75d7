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
        self.score_with(|feature| row[feature])
    }

    /// [`AdTree::score`] over feature values produced on demand:
    /// `value(feature)` is asked only for the features of splitters whose
    /// anchor is active for this instance, in splitter order, so a caller
    /// that computes features lazily pays only for the paths the instance
    /// actually takes. A feature shared by several reachable splitters is
    /// asked for once per splitter; memoize in the closure if it is
    /// expensive.
    #[must_use]
    pub fn score_with(&self, mut value: impl FnMut(usize) -> Option<f64>) -> f64 {
        // Which splitters the instance reached the no / yes prediction node
        // of, one bit each: on the stack for the usual small tree, on the
        // heap beyond 64 splitters.
        let words = self.splitters.len().div_ceil(64).max(1);
        let mut stack = [0u64; 2];
        let mut heap;
        let masks: &mut [u64] = if words == 1 {
            &mut stack
        } else {
            heap = vec![0u64; 2 * words];
            &mut heap
        };
        let (no, yes) = masks.split_at_mut(words);
        // Indexed by branch: `reached[1]` holds the yes nodes.
        let reached = [no, yes];

        let mut score = self.root_value;
        for (i, s) in self.splitters.iter().enumerate() {
            let anchored = match s.anchor {
                Anchor::Root => true,
                Anchor::Node(j, branch) => {
                    debug_assert!(j < i, "anchors must reference earlier splitters");
                    reached[usize::from(branch)][j / 64] >> (j % 64) & 1 == 1
                }
            };
            if !anchored {
                continue;
            }
            if let Some(v) = value(s.condition.feature) {
                let satisfied = s.condition.holds(v);
                reached[usize::from(satisfied)][i / 64] |= 1 << (i % 64);
                score += if satisfied { s.yes_value } else { s.no_value };
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The eager scorer `score_with` replaced — one `Option<bool>` outcome
    /// per splitter on the heap, every condition read off a full row —
    /// returning the score and the features of the splitters it found
    /// anchored, in order.
    fn score_reference(t: &AdTree, row: &[Option<f64>]) -> (f64, Vec<usize>) {
        let mut score = t.root_value;
        let mut anchored_features = Vec::new();
        let mut outcome: Vec<Option<bool>> = vec![None; t.splitters.len()];
        for (i, s) in t.splitters.iter().enumerate() {
            let anchored = match s.anchor {
                Anchor::Root => true,
                Anchor::Node(j, branch) => outcome[j] == Some(branch),
            };
            if anchored {
                anchored_features.push(s.condition.feature);
                if let Some(satisfied) = s.condition.eval(row) {
                    outcome[i] = Some(satisfied);
                    score += if satisfied { s.yes_value } else { s.no_value };
                }
            }
        }
        (score, anchored_features)
    }

    /// A random tree over `features` features: each splitter anchors at
    /// the root or at a random branch of an earlier splitter.
    fn random_tree(rng: &mut StdRng, splitters: usize, features: usize) -> AdTree {
        let mut t = AdTree::prior(rng.gen_range(-1.0..1.0));
        for i in 0..splitters {
            let anchor = if i == 0 || rng.gen_range(0..4) == 0 {
                Anchor::Root
            } else {
                Anchor::Node(rng.gen_range(0..i), rng.gen_range(0..2) == 0)
            };
            t.push(Splitter {
                anchor,
                condition: Condition::new(rng.gen_range(0..features), rng.gen_range(0.0..1.0)),
                yes_value: rng.gen_range(-1.0..1.0),
                no_value: rng.gen_range(-1.0..1.0),
            });
        }
        t
    }

    #[test]
    fn score_with_is_score_and_asks_only_behind_active_anchors() {
        let mut rng = StdRng::seed_from_u64(17);
        // Sizes on both sides of the 64-splitter mask word, and of two.
        for splitters in [0, 1, 5, 20, 63, 64, 65, 128, 129, 200] {
            for _ in 0..40 {
                let features = rng.gen_range(1..12);
                let t = random_tree(&mut rng, splitters, features);
                let row: Vec<Option<f64>> = (0..features)
                    .map(|_| (rng.gen_range(0..3) != 0).then(|| rng.gen_range(0.0..1.0)))
                    .collect();
                let (expected, due) = score_reference(&t, &row);
                assert_eq!(t.score(&row).to_bits(), expected.to_bits());

                // The k-th request is for the k-th splitter whose anchor
                // the reference finds active — nothing behind an inactive
                // anchor or a missing feature.
                let mut asked = Vec::new();
                let lazily = t.score_with(|f| {
                    asked.push(f);
                    row[f]
                });
                assert_eq!(lazily.to_bits(), expected.to_bits());
                assert_eq!(asked, due, "{splitters} splitters");

                // Behind a memo, each feature is computed at most once.
                let mut memo: Vec<Option<Option<f64>>> = vec![None; features];
                let mut computed = vec![0u32; features];
                let memoized = t.score_with(|f| {
                    *memo[f].get_or_insert_with(|| {
                        computed[f] += 1;
                        row[f]
                    })
                });
                assert_eq!(memoized.to_bits(), expected.to_bits());
                assert!(computed.iter().all(|&n| n <= 1));
                for (f, &n) in computed.iter().enumerate() {
                    assert_eq!(n == 1, due.contains(&f));
                }
            }
        }
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
