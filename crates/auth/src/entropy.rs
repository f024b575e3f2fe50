//! Operating-system entropy for session tokens and password salts.
//!
//! Nothing here is seeded: two portals started from the same configuration
//! must never issue the same token or salt.

use std::fs::File;
use std::io::Read;

/// Fill `buf` from the operating system's entropy source (`/dev/urandom`).
///
/// Panics when the source cannot be read, as std's `RandomState` does: a
/// portal that cannot draw unpredictable tokens must not issue predictable
/// ones.
pub(crate) fn fill(buf: &mut [u8]) {
    File::open("/dev/urandom")
        .and_then(|mut f| f.read_exact(buf))
        .unwrap_or_else(|e| panic!("cannot read OS entropy from /dev/urandom: {e}"));
}

#[cfg(test)]
mod tests {
    #[test]
    fn draws_differ() {
        let (mut a, mut b) = ([0u8; 32], [0u8; 32]);
        super::fill(&mut a);
        super::fill(&mut b);
        assert_ne!(a, b);
    }
}
