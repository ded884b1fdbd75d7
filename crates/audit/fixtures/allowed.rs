// Suppression fixture: the same F1 cast as bad_f1.rs, discharged by an
// audit:allow marker — once inline, once on the preceding line.

pub fn narrow(score: f64) -> f32 {
    score as f32 // audit:allow(F1) fixture demonstrates inline suppression
}

pub fn narrow_again(score: f64) -> f32 {
    // audit:allow(F1) fixture demonstrates preceding-line suppression
    score as f32
}
