// Known-clean fixture: sorted BTree iteration, debug float formatting.
// Mentions of {:.17} in comments and strings must not fire.
use std::collections::BTreeMap;

pub fn emit(clusters: &BTreeMap<u32, Vec<u32>>) -> Vec<u32> {
    let mut out = Vec::new();
    for (id, _members) in clusters {
        out.push(*id);
    }
    out
}

pub fn head(values: &[u32]) -> Option<u32> {
    values.first().copied()
}

pub fn persist_score(score: f64) -> String {
    let _prose = "never format with {:.17} here";
    format!("{score:?}")
}
