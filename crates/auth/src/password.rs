//! Salted, iterated password hashing with constant-time verification.
//!
//! Scheme: `h_0 = SHA256(salt || password)`, `h_i = SHA256(h_{i-1} || salt)`,
//! stored as `(salt, iterations, h_n)`. Iteration stretching makes offline
//! guessing proportionally expensive; the per-user salt, drawn from OS
//! entropy, defeats rainbow tables. This is a teaching-cluster portal, not
//! a bank — the scheme is deliberately simple but structurally sound.

use crate::entropy;
use crate::sha256::Sha256;

/// Tunable hashing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PasswordPolicy {
    /// Hash-stretching iterations (>= 1).
    pub iterations: u32,
    /// Minimum accepted password length.
    pub min_length: usize,
}

impl Default for PasswordPolicy {
    fn default() -> Self {
        PasswordPolicy {
            iterations: 10_000,
            min_length: 8,
        }
    }
}

/// A stored password verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PasswordHash {
    salt: [u8; 16],
    iterations: u32,
    hash: [u8; 32],
}

impl PasswordHash {
    /// Hash `password` under `policy` with a fresh salt from OS entropy.
    pub fn create(password: &str, policy: PasswordPolicy) -> PasswordHash {
        let mut salt = [0u8; 16];
        entropy::fill(&mut salt);
        let hash = stretch(password.as_bytes(), &salt, policy.iterations.max(1));
        PasswordHash {
            salt,
            iterations: policy.iterations.max(1),
            hash,
        }
    }

    /// Constant-time verification of a candidate password.
    pub fn verify(&self, candidate: &str) -> bool {
        let got = stretch(candidate.as_bytes(), &self.salt, self.iterations);
        constant_time_eq(&got, &self.hash)
    }
}

fn stretch(password: &[u8], salt: &[u8; 16], iterations: u32) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(salt);
    h.update(password);
    let mut cur = h.finalize();
    for _ in 1..iterations {
        let mut h = Sha256::new();
        h.update(&cur);
        h.update(salt);
        cur = h.finalize();
    }
    cur
}

/// Compare digests without early exit so timing does not leak the prefix
/// length of a near-match.
fn constant_time_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for i in 0..32 {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> PasswordPolicy {
        PasswordPolicy {
            iterations: 100,
            min_length: 8,
        }
    }

    #[test]
    fn verify_accepts_correct_password() {
        let h = PasswordHash::create("open sesame", policy());
        assert!(h.verify("open sesame"));
    }

    #[test]
    fn verify_rejects_wrong_password() {
        let h = PasswordHash::create("open sesame", policy());
        assert!(!h.verify("open sesam"));
        assert!(!h.verify(""));
        assert!(!h.verify("open sesame "));
    }

    #[test]
    fn same_password_different_salts_differ() {
        let a = PasswordHash::create("hunter22", policy());
        let b = PasswordHash::create("hunter22", policy());
        assert_ne!(a, b, "consecutive salts must differ");
        assert!(a.verify("hunter22") && b.verify("hunter22"));
    }

    #[test]
    fn iterations_floor_at_one() {
        let p = PasswordPolicy {
            iterations: 0,
            min_length: 1,
        };
        let h = PasswordHash::create("x", p);
        assert_eq!(h.iterations, 1);
        assert!(h.verify("x"));
    }

    #[test]
    fn constant_time_eq_basic() {
        let a = [1u8; 32];
        let mut b = a;
        assert!(constant_time_eq(&a, &b));
        b[31] ^= 1;
        assert!(!constant_time_eq(&a, &b));
    }
}
