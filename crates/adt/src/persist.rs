//! Plain-text persistence for trained models.
//!
//! The deployed system trains once and scores at run time (Figure 9's
//! "ADT model" box); a model therefore needs to survive process restarts.
//! The format is a line-oriented text file — human-diffable, versioned,
//! dependency-free:
//!
//! ```text
//! yv-adt v1
//! root 0.123456789
//! splitter root 3 0.5 0.25 -0.75
//! splitter 0 true 7 0.728 1.5 -0.2
//! ```
//!
//! Each `splitter` line is: anchor (`root` or `<index> <branch>`), feature
//! index, threshold, yes-value, no-value.

#![deny(clippy::cast_possible_truncation)]

use crate::condition::Condition;
use crate::tree::{AdTree, Anchor, Splitter};

/// Errors produced while reading a persisted model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    BadHeader,
    MissingRoot,
    BadLine(usize),
    DanglingAnchor(usize),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "not a yv-adt v1 model file"),
            PersistError::MissingRoot => write!(f, "missing root line"),
            PersistError::BadLine(n) => write!(f, "malformed line {n}"),
            PersistError::DanglingAnchor(n) => {
                write!(f, "line {n}: anchor references a later splitter")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialize a tree to the v1 text format.
#[must_use]
pub fn to_text(tree: &AdTree) -> String {
    let mut out = String::from("yv-adt v1\n");
    // `{:?}` prints the shortest decimal that parses back to the exact
    // f64; fixed precision (`{:.17}`) drops significant digits on values
    // with leading zeros and breaks the exact round-trip.
    out.push_str(&format!("root {:?}\n", tree.root_value));
    for s in &tree.splitters {
        let anchor = match s.anchor {
            Anchor::Root => "root".to_owned(),
            Anchor::Node(idx, branch) => format!("{idx} {branch}"),
        };
        out.push_str(&format!(
            "splitter {anchor} {} {:?} {:?} {:?}\n",
            s.condition.feature, s.condition.threshold, s.yes_value, s.no_value
        ));
    }
    out
}

/// Parse the v1 text format back into a tree.
pub fn from_text(text: &str) -> Result<AdTree, PersistError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(PersistError::BadHeader)?;
    if header.trim() != "yv-adt v1" {
        return Err(PersistError::BadHeader);
    }
    let (root_no, root_line) = lines.next().ok_or(PersistError::MissingRoot)?;
    let root_value = root_line
        .trim()
        .strip_prefix("root ")
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or(PersistError::BadLine(root_no + 1))?;
    let mut tree = AdTree::prior(root_value);
    for (no, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let bad = || PersistError::BadLine(no + 1);
        let splitter = match parts.as_slice() {
            ["splitter", "root", feature, threshold, yes, no_value] => Splitter {
                anchor: Anchor::Root,
                condition: Condition::new(
                    feature.parse().map_err(|_| bad())?,
                    threshold.parse().map_err(|_| bad())?,
                ),
                yes_value: yes.parse().map_err(|_| bad())?,
                no_value: no_value.parse().map_err(|_| bad())?,
            },
            ["splitter", idx, branch, feature, threshold, yes, no_value] => {
                let idx: usize = idx.parse().map_err(|_| bad())?;
                if idx >= tree.len() {
                    return Err(PersistError::DanglingAnchor(no + 1));
                }
                Splitter {
                    anchor: Anchor::Node(idx, branch.parse().map_err(|_| bad())?),
                    condition: Condition::new(
                        feature.parse().map_err(|_| bad())?,
                        threshold.parse().map_err(|_| bad())?,
                    ),
                    yes_value: yes.parse().map_err(|_| bad())?,
                    no_value: no_value.parse().map_err(|_| bad())?,
                }
            }
            _ => return Err(bad()),
        };
        tree.push(splitter);
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TrainSet;
    use crate::train::{train, TrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_tree() -> AdTree {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ts = TrainSet::new(3);
        for _ in 0..300 {
            let x: f64 = rng.gen();
            let y: f64 = rng.gen();
            let label = if x > 0.5 && y < 0.4 { 1 } else { -1 };
            let x_val = if rng.gen_bool(0.2) { None } else { Some(x) };
            ts.push(vec![x_val, Some(y), None], label);
        }
        train(&ts, &TrainConfig::default())
    }

    #[test]
    fn round_trip_preserves_scores_exactly() {
        let tree = trained_tree();
        let text = to_text(&tree);
        let loaded = from_text(&text).expect("round trip");
        assert_eq!(loaded.len(), tree.len());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let row = vec![
                if rng.gen_bool(0.8) { Some(rng.gen::<f64>()) } else { None },
                Some(rng.gen::<f64>()),
                None,
            ];
            assert_eq!(tree.score(&row), loaded.score(&row));
        }
    }

    #[test]
    fn header_is_validated() {
        assert_eq!(from_text(""), Err(PersistError::BadHeader));
        assert_eq!(from_text("something else\nroot 0.0\n"), Err(PersistError::BadHeader));
        assert_eq!(from_text("yv-adt v1\n"), Err(PersistError::MissingRoot));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let text = "yv-adt v1\nroot 0.5\nsplitter root nonsense 0.1 0.2 0.3\n";
        assert!(matches!(from_text(text), Err(PersistError::BadLine(3))));
        let dangling = "yv-adt v1\nroot 0.5\nsplitter 4 true 0 0.1 0.2 0.3\n";
        assert!(matches!(from_text(dangling), Err(PersistError::DanglingAnchor(3))));
    }

    #[test]
    fn prior_only_model_round_trips() {
        let tree = AdTree::prior(-0.125);
        let loaded = from_text(&to_text(&tree)).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.root_value, -0.125);
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let tree = trained_tree();
        let mut text = to_text(&tree);
        text.push_str("\n\n");
        assert!(from_text(&text).is_ok());
    }
}
