//! Submitter resolution — the open problem of Section 2 and Section 7.
//!
//! Pages-of-Testimony submitters carry no unique id; grouping them by
//! first name, last name and city yields 514,251 "different" submitters,
//! many of which are obvious duplicates ("misspellings of names and city
//! names, usage of a nickname, or a different transliteration"). The paper
//! leaves submitter ER as future work ("How can we exploit implicit and
//! explicit knowledge about record sources in the multi-source setting?");
//! this module implements the natural first step: fuzzy clustering of
//! submitters, which both deduplicates the source catalogue and makes the
//! `SameSrc` filter stronger (two testimonies by the *resolved* submitter
//! are unlikely to describe the same victim twice).

use std::collections::HashMap;
use yv_records::{Dataset, SourceId, SourceKind};
use yv_similarity::jaro_winkler;

/// A resolved submitter: the testimony sources believed to be the same
/// person.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitterCluster {
    pub sources: Vec<SourceId>,
}

/// Configuration for submitter resolution.
#[derive(Debug, Clone, Copy)]
pub struct SubmitterResolutionConfig {
    /// Minimum Jaro-Winkler similarity between first names.
    pub first_name_threshold: f64,
    /// Minimum Jaro-Winkler similarity between last names.
    pub last_name_threshold: f64,
    /// Minimum Jaro-Winkler similarity between cities.
    pub city_threshold: f64,
}

impl Default for SubmitterResolutionConfig {
    fn default() -> Self {
        SubmitterResolutionConfig {
            first_name_threshold: 0.85,
            last_name_threshold: 0.90,
            city_threshold: 0.85,
        }
    }
}

/// Resolve testimony submitters: block by the first letter of the last
/// name (cheap, high recall on the name noise model), then merge pairs
/// whose first/last/city all clear their thresholds. Returns clusters
/// covering every testimony source (singletons included).
#[must_use]
pub fn resolve_submitters(
    ds: &Dataset,
    config: &SubmitterResolutionConfig,
) -> Vec<SubmitterCluster> {
    // Collect testimony sources with their normalized identity fields.
    let mut submitters: Vec<(SourceId, String, String, String)> = Vec::new();
    for source in ds.sources() {
        if let SourceKind::Testimony { first_name, last_name, city } = &source.kind {
            submitters.push((
                source.id,
                first_name.to_lowercase(),
                last_name.to_lowercase(),
                city.to_lowercase(),
            ));
        }
    }
    // Block on the last-name initial.
    let mut blocks: HashMap<char, Vec<usize>> = HashMap::new();
    for (i, (_, _, last, _)) in submitters.iter().enumerate() {
        let key = last.chars().next().unwrap_or('?');
        blocks.entry(key).or_default().push(i);
    }
    // Union-find over submitters.
    let mut parent: Vec<usize> = (0..submitters.len()).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    #[allow(
        clippy::iter_over_hash_type,
        reason = "union-find: the components are the same in any visit order, and the clusters are sorted below"
    )]
    for members in blocks.values() {
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let (_, fa, la, ca) = &submitters[a];
                let (_, fb, lb, cb) = &submitters[b];
                if jaro_winkler(fa, fb) >= config.first_name_threshold
                    && jaro_winkler(la, lb) >= config.last_name_threshold
                    && jaro_winkler(ca, cb) >= config.city_threshold
                {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
    }
    let mut clusters: HashMap<usize, Vec<SourceId>> = HashMap::new();
    for (i, (source, ..)) in submitters.iter().enumerate() {
        let root = find(&mut parent, i);
        clusters.entry(root).or_default().push(*source);
    }
    let mut out: Vec<SubmitterCluster> = clusters
        .into_values()
        .map(|mut sources| {
            sources.sort_unstable();
            SubmitterCluster { sources }
        })
        .collect();
    out.sort_by(|a, b| a.sources.cmp(&b.sources));
    out
}

/// A map from every testimony source to its resolved-submitter index,
/// usable as a drop-in strengthening of the `SameSrc` filter.
#[must_use]
pub fn resolved_source_map(clusters: &[SubmitterCluster]) -> HashMap<SourceId, usize> {
    let mut map = HashMap::new();
    for (idx, cluster) in clusters.iter().enumerate() {
        for &s in &cluster.sources {
            map.insert(s, idx);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::{Source, SourceId};

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        // Two spellings of the same submitter, one clearly different.
        ds.add_source(Source::testimony(SourceId(0), "Massimo", "Foa", "Cuorgne"));
        ds.add_source(Source::testimony(SourceId(0), "Masimo", "Foa", "Cuorgne"));
        ds.add_source(Source::testimony(SourceId(0), "Rivka", "Goldberg", "Warszawa"));
        ds.add_source(Source::list(SourceId(0), "a transport list"));
        ds
    }

    #[test]
    fn near_duplicate_submitters_merge() {
        let ds = dataset();
        let clusters = resolve_submitters(&ds, &SubmitterResolutionConfig::default());
        // Massimo/Masimo merge; Rivka stays alone; the list is ignored.
        assert_eq!(clusters.len(), 2);
        let sizes: Vec<usize> = clusters.iter().map(|c| c.sources.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn strict_thresholds_keep_everyone_apart() {
        let ds = dataset();
        let strict = SubmitterResolutionConfig {
            first_name_threshold: 1.0,
            last_name_threshold: 1.0,
            city_threshold: 1.0,
        };
        let clusters = resolve_submitters(&ds, &strict);
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn source_map_covers_all_testimonies() {
        let ds = dataset();
        let clusters = resolve_submitters(&ds, &SubmitterResolutionConfig::default());
        let map = resolved_source_map(&clusters);
        assert_eq!(map.len(), 3);
        // The two spellings map to the same resolved submitter.
        assert_eq!(map[&SourceId(0)], map[&SourceId(1)]);
        assert_ne!(map[&SourceId(0)], map[&SourceId(2)]);
    }

    #[test]
    fn lists_are_never_clustered() {
        let ds = dataset();
        let clusters = resolve_submitters(&ds, &SubmitterResolutionConfig::default());
        for c in &clusters {
            for &s in &c.sources {
                assert!(ds.source(s).is_testimony());
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new();
        assert!(resolve_submitters(&ds, &SubmitterResolutionConfig::default()).is_empty());
    }
}
