//! Splitter conditions: threshold tests over a single feature with
//! three-valued evaluation (true / false / missing).


/// A threshold condition `value(feature) < threshold`.
///
/// Trinary and binary features are handled by the same mechanism: e.g. the
/// paper's `sameFFN = no` corresponds to `sameFFN < 0.25` over our encoding
/// (no = 0, partial = 0.5, yes = 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Condition {
    pub feature: usize,
    pub threshold: f64,
}

impl Condition {
    #[must_use]
    pub fn new(feature: usize, threshold: f64) -> Self {
        Condition { feature, threshold }
    }

    /// Evaluate against a row of optional feature values: `None` when the
    /// feature is missing (the instance then reaches neither branch —
    /// Freund & Mason's graceful missing-value handling).
    #[must_use]
    pub fn eval(&self, row: &[Option<f64>]) -> Option<bool> {
        row[self.feature].map(|v| self.holds(v))
    }

    /// Whether a present feature value satisfies the condition.
    #[must_use]
    pub fn holds(&self, value: f64) -> bool {
        value < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_three_ways() {
        let c = Condition::new(1, 0.5);
        assert_eq!(c.eval(&[None, Some(0.3)]), Some(true));
        assert_eq!(c.eval(&[None, Some(0.7)]), Some(false));
        assert_eq!(c.eval(&[Some(0.0), None]), None);
    }

    #[test]
    fn boundary_is_exclusive() {
        let c = Condition::new(0, 1.0);
        assert_eq!(c.eval(&[Some(1.0)]), Some(false));
        assert_eq!(c.eval(&[Some(0.999_999)]), Some(true));
    }
}
