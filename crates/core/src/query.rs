//! Query-time entity resolution: the Web-query interface of Section 4.2
//! ("a person searching for perished relatives can control the size of the
//! response by tuning a certainty parameter in a Web-query interface").

use crate::resolution::{EntityMap, Resolution};
use yv_records::{Dataset, Record, RecordId};
use yv_similarity::jaro_winkler;

/// A relative-search query: fuzzy name match plus a certainty knob.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonQuery {
    pub first_name: Option<String>,
    pub last_name: Option<String>,
    /// Minimum Jaro-Winkler similarity for a name to count as matching
    /// the query.
    pub name_similarity: f64,
    /// Certainty threshold for expanding a hit into its entity.
    pub certainty: f64,
}

impl Default for PersonQuery {
    fn default() -> Self {
        PersonQuery {
            first_name: None,
            last_name: None,
            name_similarity: 0.88,
            certainty: 0.0,
        }
    }
}

/// One query hit: a seed record plus the entity (all records resolved to
/// the same person at the query's certainty) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHit {
    pub seed: RecordId,
    /// The full entity, including the seed; singleton when nothing else
    /// resolves to it.
    pub entity: Vec<RecordId>,
}

impl PersonQuery {
    /// The query's name constraints, lowercased once — `name_matches`
    /// compares every candidate against these instead of re-lowercasing
    /// the query per candidate.
    fn lowered(&self) -> (Option<String>, Option<String>) {
        (
            self.first_name.as_deref().map(str::to_lowercase),
            self.last_name.as_deref().map(str::to_lowercase),
        )
    }

    fn name_matches(&self, candidates: &[String], query_lower: Option<&str>) -> bool {
        match query_lower {
            None => true,
            Some(q) => candidates
                .iter()
                .any(|c| jaro_winkler(&c.to_lowercase(), q) >= self.name_similarity),
        }
    }

    /// True when a record's names satisfy both (lowercased) constraints.
    /// Exposed so index layers (e.g. `yv-store`) can reuse the exact
    /// matching semantics on pre-filtered candidates.
    #[must_use]
    pub fn matches_record(&self, record: &Record) -> bool {
        let (first, last) = self.lowered();
        self.name_matches(&record.first_names, first.as_deref())
            && self.name_matches(&record.last_names, last.as_deref())
    }

    /// Run the query: find seed records by fuzzy name, then expand each to
    /// its entity at the query's certainty threshold. The fuzzy expansion
    /// is what finds the `Foy` record a crisp `first=Guido AND last=Foa`
    /// query would miss (Section 1).
    #[must_use]
    pub fn run(&self, ds: &Dataset, resolution: &Resolution) -> Vec<QueryHit> {
        let entity_map = resolution.entity_map(self.certainty);
        let (first, last) = self.lowered();
        let mut hits = Vec::new();
        for rid in ds.record_ids() {
            let record = ds.record(rid);
            if self.name_matches(&record.first_names, first.as_deref())
                && self.name_matches(&record.last_names, last.as_deref())
            {
                hits.push(QueryHit { seed: rid, entity: expand(&entity_map, rid) });
            }
        }
        hits
    }
}

/// A record's entity at the map's threshold, falling back to a singleton.
pub(crate) fn expand(entity_map: &EntityMap, rid: RecordId) -> Vec<RecordId> {
    entity_map.entity_of(rid).map_or_else(|| vec![rid], <[RecordId]>::to_vec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RankedMatch;
    use yv_records::{RecordBuilder, Source, SourceId};

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let s = ds.add_source(Source::list(SourceId(0), "l"));
        ds.add_record(RecordBuilder::new(0, s).first_name("Guido").last_name("Foa").build());
        ds.add_record(RecordBuilder::new(1, s).first_name("Guido").last_name("Foy").build());
        ds.add_record(RecordBuilder::new(2, s).first_name("Moshe").last_name("Postel").build());
        ds
    }

    fn resolution() -> Resolution {
        Resolution::new(vec![RankedMatch::new(RecordId(0), RecordId(1), 1.5)])
    }

    #[test]
    fn fuzzy_query_finds_spelling_variants() {
        // The paper's motivating example: a crisp "last = Foa" query misses
        // the Foy record, but its entity surfaces it.
        let ds = dataset();
        let res = resolution();
        let q = PersonQuery {
            first_name: Some("Guido".to_owned()),
            last_name: Some("Foa".to_owned()),
            ..PersonQuery::default()
        };
        let hits = q.run(&ds, &res);
        // Seed 0 matches crisply; its entity includes the Foy record.
        let hit = hits.iter().find(|h| h.seed == RecordId(0)).expect("hit");
        assert!(hit.entity.contains(&RecordId(1)));
    }

    #[test]
    fn certainty_controls_entity_expansion() {
        let ds = dataset();
        let res = resolution();
        let strict = PersonQuery {
            last_name: Some("Foa".to_owned()),
            certainty: 2.0,
            ..PersonQuery::default()
        };
        let hit = &strict.run(&ds, &res)[0];
        assert_eq!(hit.entity, vec![hit.seed], "no match survives certainty 2.0");
    }

    #[test]
    fn unconstrained_query_returns_everyone() {
        let ds = dataset();
        let hits = PersonQuery::default().run(&ds, &resolution());
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn name_similarity_knob() {
        let ds = dataset();
        let res = resolution();
        // "Foy" vs "Foa" at JW ~0.87: a looser knob matches both records
        // directly.
        let loose = PersonQuery {
            last_name: Some("Foa".to_owned()),
            name_similarity: 0.8,
            ..PersonQuery::default()
        };
        assert_eq!(loose.run(&ds, &res).len(), 2);
        let tight = PersonQuery {
            last_name: Some("Foa".to_owned()),
            name_similarity: 0.999,
            ..PersonQuery::default()
        };
        assert_eq!(tight.run(&ds, &res).len(), 1);
    }
}
