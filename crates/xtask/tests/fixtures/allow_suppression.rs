// Fixture: every violation here carries an allow directive, so the lint
// pass must report nothing — and every directive fires, so the
// unused-suppression audit must stay quiet too.

pub fn checked_sentinel(x: f64) -> bool {
    // finrad-lint: allow(float-discipline)
    x == 0.0
}

pub fn head(pair_lut: &[f64]) -> f64 {
    pair_lut[0] // finrad-lint: allow(panic-freedom)
}
