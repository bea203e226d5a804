//! Fixture: one wildcard arm on an error match (`flow`), on line 13.

pub fn plain_match_ok(n: u32) -> &'static str {
    match n {
        0 => "zero",
        _ => "many",
    }
}

pub fn bad(r: Result<u32, ParseError>) -> u32 {
    match r.map_err(ParseError::normalize) {
        Ok(v) => v,
        _ => 0,
    }
}
