//! Date-component distances.
//!
//! The paper's `BXDist` features measure per-component distance between
//! birth dates, "normalized by a maximal distance (31 for days, 12 for
//! months, 100 for years)". Months are compared cyclically (`monthDiff`),
//! matching the Eq. 1 formulation.

/// Absolute day-of-month difference.
#[must_use]
pub fn day_diff(a: u8, b: u8) -> u8 {
    a.abs_diff(b)
}

/// Cyclic month difference (December and January are 1 apart).
#[must_use]
pub fn month_diff(a: u8, b: u8) -> u8 {
    let d = a.abs_diff(b);
    d.min(12 - d.min(12))
}

/// Absolute year difference.
#[must_use]
pub fn year_diff(a: i32, b: i32) -> u32 {
    a.abs_diff(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn day_distance() {
        assert_eq!(day_diff(2, 18), 16);
    }

    #[test]
    fn month_distance_is_cyclic() {
        assert_eq!(month_diff(1, 12), 1);
        assert_eq!(month_diff(12, 1), 1);
        assert_eq!(month_diff(3, 9), 6);
        assert_eq!(month_diff(6, 6), 0);
    }

    #[test]
    fn year_distance() {
        assert_eq!(year_diff(1920, 1936), 16);
    }

    proptest! {
        #[test]
        fn month_diff_at_most_6(m1 in 1u8..=12, m2 in 1u8..=12) {
            prop_assert!(month_diff(m1, m2) <= 6);
        }

        #[test]
        fn diffs_symmetric(m1 in 1u8..=12, m2 in 1u8..=12, y1 in 1850i32..1950, y2 in 1850i32..1950) {
            prop_assert_eq!(month_diff(m1, m2), month_diff(m2, m1));
            prop_assert_eq!(year_diff(y1, y2), year_diff(y2, y1));
        }
    }
}
