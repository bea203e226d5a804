//! Fixture: flow's per-file rules (`no-index-panic`, `no-lossy-cast`,
//! `no-raw-div`). One violation of each rule at a pinned line; everything
//! else is a decoy that must NOT fire (INVARIANT-discharged indexing,
//! literal divisors, float division, widening casts, `#[cfg(test)]`).

pub fn index_site(v: &[f32], i: usize) -> f32 {
    v[i]
}

pub fn invariant_site(v: &[f32], i: usize) -> f32 {
    // INVARIANT: callers clamp i to v.len() - 1.
    v[i]
}

pub fn lossy_site(x: usize) -> u8 {
    x as u8
}

pub fn widening_is_fine(x: u8) -> u64 {
    x as u64
}

pub fn fitting_literal_is_fine() -> u8 {
    200usize as u8
}

pub fn raw_div_site(a: u32, b: u32) -> u32 {
    a / b
}

pub fn literal_divisor_is_fine(a: u32) -> u32 {
    a / 4
}

pub fn float_division_is_fine(fx: f32, fy: f32) -> f32 {
    fx / fy
}

#[cfg(test)]
mod tests {
    pub fn test_code_is_masked(v: &[u32], i: usize) -> u32 {
        v[i] % (i as u32)
    }
}
