//! The uncertain-ER data model: ranked matches.
//!
//! Section 3.2: the output of uncertain ER is "a ranked list of results,
//! associating a similarity value for each match, rather than a binary
//! match/non-match decision", over a set of possibly overlapping clusters
//! where "a tuple may be simultaneously associated with multiple entities".
//! Those clusters are blocking's output, `yv_blocking::BlockingResult`'s
//! `blocks`.

use yv_records::RecordId;

/// One scored candidate match. Scores come from the ADTree and are
/// unbounded reals; the sign is the default match decision and the
/// magnitude the confidence (Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedMatch {
    pub a: RecordId,
    pub b: RecordId,
    pub score: f64,
}

impl RankedMatch {
    /// Normalized constructor (`a < b`).
    #[must_use]
    pub fn new(a: RecordId, b: RecordId, score: f64) -> Self {
        if a <= b {
            RankedMatch { a, b, score }
        } else {
            RankedMatch { a: b, b: a, score }
        }
    }

    /// The default crisp decision: positive scores match.
    #[must_use]
    pub fn is_match(&self) -> bool {
        self.score > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_match_normalizes_order() {
        let m = RankedMatch::new(RecordId(5), RecordId(2), 1.0);
        assert_eq!(m.a, RecordId(2));
        assert_eq!(m.b, RecordId(5));
    }

    #[test]
    fn sign_is_the_default_decision() {
        assert!(RankedMatch::new(RecordId(0), RecordId(1), 0.01).is_match());
        assert!(!RankedMatch::new(RecordId(0), RecordId(1), 0.0).is_match());
        assert!(!RankedMatch::new(RecordId(0), RecordId(1), -2.0).is_match());
    }
}
