//! Compressed sparse rows (`starts` into one flat `values` array): the layout
//! of posting lists, candidate blocks and record → block memberships.

/// Group `(key, value)` pairs by key into CSR form: the values of key `k`,
/// in iteration order, are `values[starts[k]..starts[k + 1]]`.
pub(crate) fn group_by_key(
    n_keys: usize,
    pairs: impl Iterator<Item = (usize, u32)> + Clone,
) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; n_keys + 1];
    for (key, _) in pairs.clone() {
        starts[key + 1] += 1;
    }
    for k in 0..n_keys {
        starts[k + 1] += starts[k];
    }
    let mut values = vec![0u32; starts[n_keys] as usize];
    let mut next = starts.clone();
    for (key, value) in pairs {
        values[next[key] as usize] = value;
        next[key] += 1;
    }
    (starts, values)
}

/// Row `k` of a CSR pair: `values[starts[k]..starts[k + 1]]`.
pub(crate) fn row<'a, T>(values: &'a [T], starts: &[u32], k: usize) -> &'a [T] {
    &values[starts[k] as usize..starts[k + 1] as usize]
}
