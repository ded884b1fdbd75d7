//! The ranked scorer: blend candidate-name similarity with entity-level
//! evidence and emit a deterministic global ranking.
//!
//! Ranking runs on *entities* — the resolved people of the incremental
//! resolver — not on raw candidate names. Every record posted under a
//! surviving candidate name is mapped to its entity (records the
//! resolver left unmatched stand as singleton entities), the entity is
//! keyed by its smallest member record id, and four signals are blended:
//!
//! - **Jaro-Winkler** between the query and the entity's best candidate
//!   name — the prefix-weighted edit similarity the paper's feature set
//!   already uses;
//! - **q-gram Jaccard** of that same name, computed exactly by the
//!   candidate filter;
//! - a **log report-count prior**: entities reported by many sources are
//!   a priori likelier referents (squashed so dossier size never swamps
//!   name evidence);
//! - the resolution's **certainty**: the best incident match score among
//!   the entity's members, i.e. how confident the resolver itself is
//!   that this dossier is one person.
//!
//! Determinism is load-bearing — the store must serve the same ranking
//! for the same logical state regardless of shard count, thread
//! interleaving, or restarts — so every aggregation step here iterates
//! in a sorted order (`BTreeMap`), name ties break toward the
//! lexicographically smaller name, and the final order is score
//! `total_cmp` descending then entity id ascending.

use std::collections::BTreeMap;
use yv_records::RecordId;
use yv_similarity::jaro_winkler;

/// Weights of the four ranking signals. The name signals (Jaro-Winkler
/// and q-gram Jaccard) dominate by default; the prior and certainty act
/// as tie-breakers between entities whose names match equally well —
/// the blend the `yv-eval` sweep measures against datagen gold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBlend {
    /// Weight of Jaro-Winkler(query, best name).
    pub name_weight: f64,
    /// Weight of the q-gram Jaccard from candidate generation.
    pub qgram_weight: f64,
    /// Weight of the squashed log report-count prior.
    pub prior_weight: f64,
    /// Weight of the squashed resolver certainty.
    pub certainty_weight: f64,
}

impl Default for ScoreBlend {
    fn default() -> ScoreBlend {
        ScoreBlend {
            name_weight: 0.5,
            qgram_weight: 0.25,
            prior_weight: 0.1,
            certainty_weight: 0.15,
        }
    }
}

impl ScoreBlend {
    /// The name-similarity part of the score (per candidate name).
    #[must_use]
    pub fn name_part(&self, jw: f64, qgram_jaccard: f64) -> f64 {
        self.name_weight * jw + self.qgram_weight * qgram_jaccard
    }

    /// The entity-evidence part of the score (independent of which
    /// candidate name matched).
    #[must_use]
    pub fn entity_part(&self, reports: usize, certainty: f64) -> f64 {
        self.prior_weight * squash((1.0 + reports as f64).ln())
            + self.certainty_weight * squash(certainty.max(0.0))
    }
}

/// Map `[0, ∞)` into `[0, 1)` monotonically: `x / (1 + x)`.
fn squash(x: f64) -> f64 {
    x / (1.0 + x)
}

/// One ranked entity in a `RESOLVE` answer.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedEntity {
    /// Entity id: the smallest member record id.
    pub entity: RecordId,
    /// Blended score.
    pub score: f64,
    /// The candidate name that scored best for this entity.
    pub name: String,
    /// Every member record, ascending.
    pub members: Vec<RecordId>,
}

/// Rank the merged candidate names of a fuzzy scan into a deterministic
/// entity ranking.
///
/// `names` is the surviving candidates, possibly the union of several
/// scans: `(lowercased name, exact q-gram Jaccard, records posting it)`.
/// A name may appear more than once; occurrences are merged here, so
/// the output depends only on the union. `entity_of` maps a record to its entity's full,
/// ascending member list (callers return `vec![rid]` for singletons);
/// `certainty_of` returns the resolver's best incident match score for
/// a record (≤ 0 meaning "no evidence").
///
/// `query` must already be lowercased — the index lowercases at both
/// build and scan time, and Jaro-Winkler is case-sensitive.
#[must_use]
pub fn rank_entities<'a>(
    query: &str,
    names: impl IntoIterator<Item = (&'a str, f64, &'a [RecordId])>,
    entity_of: impl Fn(RecordId) -> Vec<RecordId>,
    certainty_of: impl Fn(RecordId) -> f64,
    blend: &ScoreBlend,
    k: usize,
    min_score: f64,
) -> Vec<RankedEntity> {
    // Merge repeated occurrences of the same name. The Jaccard is a
    // pure function of (query, name) so occurrences agree on it exactly.
    let mut merged: BTreeMap<&str, (f64, Vec<RecordId>)> = BTreeMap::new();
    for (name, jaccard, records) in names {
        let entry = merged.entry(name).or_insert((jaccard, Vec::new()));
        entry.1.extend_from_slice(records);
    }

    // Fold names into entities, keeping each entity's best name part.
    // Names iterate ascending, and only a strictly better part replaces
    // the incumbent, so equal-scoring names resolve to the smaller one.
    struct Agg<'n> {
        name_part: f64,
        name: &'n str,
        members: Vec<RecordId>,
    }
    let mut entities: BTreeMap<RecordId, Agg<'_>> = BTreeMap::new();
    for (name, (jaccard, records)) in &merged {
        let part = blend.name_part(jaro_winkler(query, name), *jaccard);
        for &rid in records {
            let members = entity_of(rid);
            let rep = members.first().copied().unwrap_or(rid);
            let agg = entities.entry(rep).or_insert(Agg { name_part: f64::NEG_INFINITY, name, members });
            if part > agg.name_part {
                agg.name_part = part;
                agg.name = name;
            }
        }
    }

    let mut out: Vec<RankedEntity> = entities
        .into_iter()
        .map(|(rep, agg)| {
            let certainty =
                agg.members.iter().map(|&r| certainty_of(r)).fold(0.0_f64, f64::max);
            let score = agg.name_part + blend.entity_part(agg.members.len(), certainty);
            RankedEntity { entity: rep, score, name: agg.name.to_owned(), members: agg.members }
        })
        .filter(|hit| hit.score >= min_score)
        .collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.entity.cmp(&b.entity)));
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u32) -> RecordId {
        RecordId(n)
    }

    type NameRow = (&'static str, f64, Vec<RecordId>);

    /// A tiny fixed world: entity {0,1} named levi/lewi, singleton 5
    /// named levi, singleton 9 named roth.
    fn world() -> (Vec<NameRow>, impl Fn(RecordId) -> Vec<RecordId>) {
        let names = vec![
            ("levi", 0.8, vec![rid(0), rid(5)]),
            ("lewi", 0.5, vec![rid(1)]),
            ("roth", 0.3, vec![rid(9)]),
        ];
        let entity_of = |r: RecordId| match r.0 {
            0 | 1 => vec![rid(0), rid(1)],
            other => vec![rid(other)],
        };
        (names, entity_of)
    }

    fn rank(
        blend: &ScoreBlend,
        k: usize,
        min: f64,
        certainty: impl Fn(RecordId) -> f64,
    ) -> Vec<RankedEntity> {
        let (names, entity_of) = world();
        rank_entities(
            "levi",
            names.iter().map(|(n, j, rs)| (*n, *j, rs.as_slice())),
            entity_of,
            certainty,
            blend,
            k,
            min,
        )
    }

    #[test]
    fn entities_merge_records_and_keep_the_best_name() {
        let hits = rank(&ScoreBlend::default(), 10, f64::NEG_INFINITY, |_| 0.0);
        assert_eq!(hits.len(), 3);
        // Entity {0,1} was reachable through both "levi" and "lewi"; the
        // exact name wins as its display name.
        let merged = hits.iter().find(|h| h.entity == rid(0)).expect("merged entity");
        assert_eq!(merged.name, "levi");
        assert_eq!(merged.members, vec![rid(0), rid(1)]);
        // The exact-match entities outrank "roth".
        assert_eq!(hits.last().map(|h| h.entity), Some(rid(9)));
    }

    #[test]
    fn prior_and_certainty_break_name_ties() {
        // With pure name weights the merged entity and singleton 5 tie
        // exactly (both best-name "levi") — the id breaks the tie.
        let name_only = ScoreBlend {
            name_weight: 1.0,
            qgram_weight: 0.0,
            prior_weight: 0.0,
            certainty_weight: 0.0,
        };
        let hits = rank(&name_only, 2, f64::NEG_INFINITY, |_| 0.0);
        assert_eq!(hits[0].entity, rid(0));
        assert_eq!(hits[1].entity, rid(5));
        assert_eq!(hits[0].score, hits[1].score);

        // A report-count prior promotes the two-report entity strictly.
        let with_prior = ScoreBlend { prior_weight: 0.2, ..name_only };
        let hits = rank(&with_prior, 2, f64::NEG_INFINITY, |_| 0.0);
        assert!(hits[0].score > hits[1].score);
        assert_eq!(hits[0].entity, rid(0));

        // Certainty on the singleton's record promotes *it* instead.
        let with_certainty = ScoreBlend { certainty_weight: 0.3, ..name_only };
        let certain_five = |r: RecordId| if r == rid(5) { 2.0 } else { 0.0 };
        let hits = rank(&with_certainty, 2, f64::NEG_INFINITY, certain_five);
        assert_eq!(hits[0].entity, rid(5));
    }

    #[test]
    fn k_truncates_and_min_filters() {
        let hits = rank(&ScoreBlend::default(), 1, f64::NEG_INFINITY, |_| 0.0);
        assert_eq!(hits.len(), 1);
        let all = rank(&ScoreBlend::default(), 10, f64::NEG_INFINITY, |_| 0.0);
        let cutoff = all[1].score;
        let filtered = rank(&ScoreBlend::default(), 10, cutoff, |_| 0.0);
        assert_eq!(filtered.len(), 2, "min is inclusive");
    }

    #[test]
    fn shard_duplicated_names_rank_identically() {
        // The same name arriving from two "shards" with split postings
        // must rank exactly like one shard holding the union.
        let split = [
            ("levi", 0.8, vec![rid(0)]),
            ("levi", 0.8, vec![rid(5)]),
            ("roth", 0.3, vec![rid(9)]),
        ];
        let (union, entity_of) = world();
        let union_named: Vec<_> =
            union.iter().filter(|(n, _, _)| *n != "lewi").cloned().collect();
        let blend = ScoreBlend::default();
        let a = rank_entities(
            "levi",
            split.iter().map(|(n, j, rs)| (*n, *j, rs.as_slice())),
            &entity_of,
            |_| 0.0,
            &blend,
            10,
            f64::NEG_INFINITY,
        );
        let b = rank_entities(
            "levi",
            union_named.iter().map(|(n, j, rs)| (*n, *j, rs.as_slice())),
            &entity_of,
            |_| 0.0,
            &blend,
            10,
            f64::NEG_INFINITY,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn negative_certainty_is_clamped_to_zero_evidence() {
        let blend = ScoreBlend::default();
        assert_eq!(blend.entity_part(1, -5.0), blend.entity_part(1, 0.0));
        assert!(blend.entity_part(1, 1.0) > blend.entity_part(1, 0.0));
        assert!(blend.entity_part(50, 0.0) > blend.entity_part(1, 0.0));
    }
}
