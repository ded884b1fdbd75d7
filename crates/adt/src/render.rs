//! Text rendering of ADTree models in the style of Tables 7–8 of the
//! paper (which follow Weka's ADTree printout).
//!
//! ```text
//! : -0.289
//! |  (1)sameFFN < 0.25: -1.314
//! |  |  (6)MFNdist < 0.728: -0.718
//! |  |  (6)MFNdist >= 0.728: 1.528
//! ...
//! ```

use crate::tree::{AdTree, Anchor};

/// Render a tree with feature names resolved through `name_of`.
#[must_use]
pub fn render(tree: &AdTree, name_of: &dyn Fn(usize) -> String) -> String {
    let mut out = format!(": {:.3}\n", tree.root_value);
    render_children(tree, Anchor::Root, 1, name_of, &mut out);
    out
}

fn render_children(
    tree: &AdTree,
    anchor: Anchor,
    depth: usize,
    name_of: &dyn Fn(usize) -> String,
    out: &mut String,
) {
    for (idx, s) in tree.splitters.iter().enumerate() {
        if s.anchor != anchor {
            continue;
        }
        let indent = "|  ".repeat(depth);
        let name = name_of(s.condition.feature);
        let order = idx + 1;
        out.push_str(&format!(
            "{indent}({order}){name} < {:.3}: {:.3}\n",
            s.condition.threshold, s.yes_value
        ));
        render_children(tree, Anchor::Node(idx, true), depth + 1, name_of, out);
        out.push_str(&format!(
            "{indent}({order}){name} >= {:.3}: {:.3}\n",
            s.condition.threshold, s.no_value
        ));
        render_children(tree, Anchor::Node(idx, false), depth + 1, name_of, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::tree::Splitter;

    #[test]
    fn renders_nested_structure() {
        let mut t = AdTree::prior(-0.289);
        t.push(Splitter {
            anchor: Anchor::Root,
            condition: Condition::new(0, 0.25),
            yes_value: -1.314,
            no_value: 0.539,
        });
        t.push(Splitter {
            anchor: Anchor::Node(0, true),
            condition: Condition::new(1, 0.728),
            yes_value: -0.718,
            no_value: 1.528,
        });
        let text = render(&t, &|f| ["sameFFN", "MFNdist"][f].to_owned());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], ": -0.289");
        assert_eq!(lines[1], "|  (1)sameFFN < 0.250: -1.314");
        assert_eq!(lines[2], "|  |  (2)MFNdist < 0.728: -0.718");
        assert_eq!(lines[3], "|  |  (2)MFNdist >= 0.728: 1.528");
        assert_eq!(lines[4], "|  (1)sameFFN >= 0.250: 0.539");
    }

    #[test]
    fn prior_only_tree() {
        let t = AdTree::prior(0.5);
        assert_eq!(render(&t, &|i| format!("f{i}")), ": 0.500\n");
    }
}
