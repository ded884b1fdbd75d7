//! Ranked resolution with query-time certainty.
//!
//! The uncertain-ER outcome is not a partition but a ranked match list;
//! "entities are disambiguated only at query time, depending on the query
//! at hand" (Section 1). A person searching for relatives can loosen the
//! certainty knob to see more candidates; an app counting victims needs a
//! single deterministic answer and takes the default threshold.

use crate::model::RankedMatch;
use std::collections::HashMap;
use yv_records::RecordId;

/// The result of resolving a dataset: scored matches, descending.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    /// All scored candidate matches, sorted by score descending.
    pub matches: Vec<RankedMatch>,
}

impl Resolution {
    /// Build from an unsorted match list.
    #[must_use]
    pub fn new(mut matches: Vec<RankedMatch>) -> Self {
        matches.sort_by(|a, b| {
            b.score.total_cmp(&a.score).then_with(|| (a.a, a.b).cmp(&(b.a, b.b)))
        });
        Resolution { matches }
    }

    /// Matches at or above a certainty threshold, best first.
    pub fn at_certainty(&self, threshold: f64) -> impl Iterator<Item = RankedMatch> + '_ {
        self.matches.iter().take_while(move |m| m.score >= threshold).copied()
    }

    /// The default deterministic answer: positive-score matches
    /// (Section 5.2's sign rule).
    pub fn crisp_matches(&self) -> impl Iterator<Item = RankedMatch> + '_ {
        self.matches.iter().filter(|m| m.is_match()).copied()
    }

    /// Resolve entities at a certainty threshold: connected components of
    /// the match graph restricted to scores ≥ `threshold`. Records with no
    /// surviving match resolve to singleton entities and are omitted.
    #[must_use]
    pub fn entities(&self, threshold: f64) -> Vec<Vec<RecordId>> {
        let mut parent: HashMap<RecordId, RecordId> = HashMap::new();
        fn find(parent: &mut HashMap<RecordId, RecordId>, x: RecordId) -> RecordId {
            let p = *parent.entry(x).or_insert(x);
            if p == x {
                return x;
            }
            let root = find(parent, p);
            parent.insert(x, root);
            root
        }
        for m in self.at_certainty(threshold) {
            let (ra, rb) = (find(&mut parent, m.a), find(&mut parent, m.b));
            if ra != rb {
                parent.insert(ra, rb);
            }
        }
        let keys: Vec<RecordId> = parent.keys().copied().collect();
        let mut components: HashMap<RecordId, Vec<RecordId>> = HashMap::new();
        for r in keys {
            let root = find(&mut parent, r);
            components.entry(root).or_default().push(r);
        }
        let mut out: Vec<Vec<RecordId>> = components
            .into_values()
            .filter(|c| c.len() >= 2)
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        out.sort();
        out
    }

    /// All matches touching a record, best first.
    #[must_use]
    pub fn matches_of(&self, r: RecordId) -> Vec<RankedMatch> {
        self.matches.iter().filter(|m| m.a == r || m.b == r).copied().collect()
    }

    /// Materialize the entities at a threshold together with a
    /// record→entity lookup — one O(matches) pass instead of the
    /// O(records × entities × entity-size) scan a per-record
    /// `entities.iter().find(...)` would cost.
    #[must_use]
    pub fn entity_map(&self, threshold: f64) -> EntityMap {
        EntityMap::new(self.entities(threshold))
    }
}

/// Entities at one certainty threshold plus a constant-time record→entity
/// index. This is what query serving materializes per threshold.
#[derive(Debug, Clone, Default)]
pub struct EntityMap {
    entities: Vec<Vec<RecordId>>,
    of: HashMap<RecordId, usize>,
}

impl EntityMap {
    /// Index a set of entities (each a sorted record list).
    #[must_use]
    pub fn new(entities: Vec<Vec<RecordId>>) -> Self {
        let mut of = HashMap::new();
        for (i, entity) in entities.iter().enumerate() {
            for &r in entity {
                of.insert(r, i);
            }
        }
        EntityMap { entities, of }
    }

    /// The entity containing a record, or `None` for singletons.
    #[must_use]
    pub fn entity_of(&self, r: RecordId) -> Option<&[RecordId]> {
        self.of.get(&r).map(|&i| self.entities[i].as_slice())
    }

    /// All non-singleton entities.
    #[must_use]
    pub fn entities(&self) -> &[Vec<RecordId>] {
        &self.entities
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(a: u32, b: u32, s: f64) -> RankedMatch {
        RankedMatch::new(RecordId(a), RecordId(b), s)
    }

    fn resolution() -> Resolution {
        Resolution::new(vec![rm(0, 1, 2.0), rm(1, 2, 0.5), rm(3, 4, -1.0), rm(5, 6, 1.2)])
    }

    #[test]
    fn matches_sorted_descending() {
        let r = resolution();
        let scores: Vec<f64> = r.matches.iter().map(|m| m.score).collect();
        assert_eq!(scores, vec![2.0, 1.2, 0.5, -1.0]);
    }

    #[test]
    fn certainty_threshold_truncates() {
        let r = resolution();
        assert_eq!(r.at_certainty(1.0).count(), 2);
        assert_eq!(r.at_certainty(0.0).count(), 3);
        assert_eq!(r.at_certainty(-10.0).count(), 4);
        assert_eq!(r.at_certainty(10.0).count(), 0);
    }

    #[test]
    fn crisp_matches_use_sign() {
        let r = resolution();
        assert_eq!(r.crisp_matches().count(), 3);
    }

    #[test]
    fn entities_are_transitive_closures() {
        let r = resolution();
        // At certainty 0.4: edges (0,1), (1,2), (5,6) => {0,1,2}, {5,6}.
        let entities = r.entities(0.4);
        assert_eq!(entities.len(), 2);
        assert!(entities.contains(&vec![RecordId(0), RecordId(1), RecordId(2)]));
        assert!(entities.contains(&vec![RecordId(5), RecordId(6)]));
        // At certainty 1.5: only (0,1) survives.
        let strict = r.entities(1.5);
        assert_eq!(strict, vec![vec![RecordId(0), RecordId(1)]]);
    }

    #[test]
    fn tighter_certainty_never_merges_more() {
        let r = resolution();
        let loose: usize = r.entities(0.0).iter().map(Vec::len).sum();
        let strict: usize = r.entities(1.0).iter().map(Vec::len).sum();
        assert!(strict <= loose);
    }

    #[test]
    fn matches_of_record() {
        let r = resolution();
        let of1 = r.matches_of(RecordId(1));
        assert_eq!(of1.len(), 2);
        assert!(of1[0].score >= of1[1].score);
        assert!(r.matches_of(RecordId(9)).is_empty());
    }
}
