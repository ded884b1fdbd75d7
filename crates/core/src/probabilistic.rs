//! Match probabilities for ranked matches (Section 3.2).
//!
//! "Several recent works have advocated for the use of probabilistic
//! databases to represent the multiple views of the outcome of entity
//! resolution … pairwise comparisons can be reasoned about and stored in a
//! probabilistic database, thus effectively retaining all matching
//! information, and adding a *same-as* uncertain semantic relation between
//! entities."
//!
//! This module holds the first step of that representation: ADT confidence
//! scores are calibrated into match probabilities with a Platt-style
//! logistic fit.

/// A Platt-style calibration `P(match | score) = σ(a·score + b)`, fitted
/// by Newton-Raphson on labelled scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlattCalibration {
    pub a: f64,
    pub b: f64,
}

impl Default for PlattCalibration {
    /// An uncalibrated fallback: the raw sigmoid of the score.
    fn default() -> Self {
        PlattCalibration { a: 1.0, b: 0.0 }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl PlattCalibration {
    /// Fit on `(score, is_match)` pairs by Newton-Raphson over the
    /// two-parameter logistic log-likelihood (falls back to the default
    /// when fewer than two classes are present).
    #[must_use]
    pub fn fit(samples: &[(f64, bool)]) -> PlattCalibration {
        let positives = samples.iter().filter(|&&(_, y)| y).count();
        if positives == 0 || positives == samples.len() || samples.len() < 4 {
            return PlattCalibration::default();
        }
        let mut a = 1.0f64;
        let mut b = 0.0f64;
        for _ in 0..50 {
            // Gradient and Hessian of the negative log-likelihood.
            let (mut ga, mut gb) = (0.0, 0.0);
            let (mut haa, mut hab, mut hbb) = (0.0, 0.0, 0.0);
            for &(s, y) in samples {
                let p = sigmoid(a * s + b);
                let err = p - f64::from(y);
                ga += err * s;
                gb += err;
                let w = p * (1.0 - p);
                haa += w * s * s;
                hab += w * s;
                hbb += w;
            }
            // Levenberg damping keeps the 2x2 solve stable.
            haa += 1e-6;
            hbb += 1e-6;
            let det = haa * hbb - hab * hab;
            if det.abs() < 1e-12 {
                break;
            }
            let da = (gb * hab - ga * hbb) / det;
            let db = (ga * hab - gb * haa) / det;
            a += da;
            b += db;
            if da.abs() < 1e-9 && db.abs() < 1e-9 {
                break;
            }
        }
        PlattCalibration { a, b }
    }

    /// Match probability for a raw ADT score.
    #[must_use]
    pub fn probability(&self, score: f64) -> f64 {
        sigmoid(self.a * score + self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_monotone_and_bounded() {
        let samples: Vec<(f64, bool)> = (0..200)
            .map(|i| {
                let s = (i as f64 - 100.0) / 20.0;
                (s, s > 0.3)
            })
            .collect();
        let cal = PlattCalibration::fit(&samples);
        let mut last = 0.0;
        for i in -10..=10 {
            let p = cal.probability(f64::from(i) / 2.0);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= last - 1e-12, "calibration must be monotone");
            last = p;
        }
        // The decision boundary sits near the true threshold.
        assert!(cal.probability(0.0) < 0.5);
        assert!(cal.probability(1.0) > 0.5);
    }

    #[test]
    fn degenerate_fits_fall_back() {
        assert_eq!(PlattCalibration::fit(&[]), PlattCalibration::default());
        let all_pos: Vec<(f64, bool)> = (0..10).map(|i| (f64::from(i), true)).collect();
        assert_eq!(PlattCalibration::fit(&all_pos), PlattCalibration::default());
    }
}
