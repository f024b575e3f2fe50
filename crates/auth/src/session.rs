//! Expiring bearer-token sessions for the web portal.
//!
//! Time is a logical `u64` supplied by the caller (the portal passes wall
//! seconds; tests pass a counter). Token bytes come from OS entropy, so no
//! two managers ever issue the same token.

use crate::entropy;
use crate::sha256::Sha256;
use std::collections::HashMap;
use std::fmt;

/// An opaque session token (64 hex chars).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token(String);

impl Token {
    /// The token text (what goes into the cookie).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Wrap a client-presented token string for lookup.
    pub fn from_string(s: impl Into<String>) -> Token {
        Token(s.into())
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A live session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Authenticated username.
    pub username: String,
    /// Creation time (caller clock).
    pub created_at: u64,
    /// Expiry time (caller clock).
    pub expires_at: u64,
    /// Issue-order stamp, unique across the manager's lifetime. A
    /// long-running operation records this at start and compares at
    /// finish: a mismatch (or a missing token) proves the session was
    /// revoked — and possibly re-issued — mid-flight, so the result must
    /// be dropped rather than applied.
    pub generation: u64,
}

/// Session errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// No such token (never issued, expired-and-purged, or logged out).
    InvalidToken,
    /// Token exists but expired.
    Expired {
        /// When it expired (caller clock).
        expired_at: u64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::InvalidToken => f.write_str("invalid session token"),
            SessionError::Expired { expired_at } => write!(f, "session expired at {expired_at}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Issues, validates and revokes session tokens.
#[derive(Debug)]
pub struct SessionManager {
    sessions: HashMap<String, Session>,
    ttl: u64,
    issued: u64,
}

impl SessionManager {
    /// A manager whose tokens live `ttl` clock units.
    pub fn new(ttl: u64) -> SessionManager {
        SessionManager {
            sessions: HashMap::new(),
            ttl,
            issued: 0,
        }
    }

    /// Issue a token for `username` at time `now`, first dropping every
    /// session already expired at `now`, so sessions that never log out
    /// do not accumulate.
    pub fn issue(&mut self, username: &str, now: u64) -> Token {
        self.purge_expired(now);
        let mut bytes = [0u8; 32];
        entropy::fill(&mut bytes);
        self.issued += 1;
        let tok = Token(Sha256::to_hex(&bytes));
        self.sessions.insert(
            tok.0.clone(),
            Session {
                username: username.to_string(),
                created_at: now,
                expires_at: now.saturating_add(self.ttl),
                generation: self.issued,
            },
        );
        tok
    }

    /// Validate a token at time `now`, returning its session.
    pub fn validate(&self, token: &Token, now: u64) -> Result<&Session, SessionError> {
        let s = self
            .sessions
            .get(&token.0)
            .ok_or(SessionError::InvalidToken)?;
        if now >= s.expires_at {
            return Err(SessionError::Expired {
                expired_at: s.expires_at,
            });
        }
        Ok(s)
    }

    /// Extend a valid token's expiry to `now + ttl` (sliding sessions).
    pub fn touch(&mut self, token: &Token, now: u64) -> Result<(), SessionError> {
        let ttl = self.ttl;
        let s = self
            .sessions
            .get_mut(&token.0)
            .ok_or(SessionError::InvalidToken)?;
        if now >= s.expires_at {
            return Err(SessionError::Expired {
                expired_at: s.expires_at,
            });
        }
        s.expires_at = now.saturating_add(ttl);
        Ok(())
    }

    /// Revoke (log out) a token. Idempotent.
    pub fn revoke(&mut self, token: &Token) -> bool {
        self.sessions.remove(&token.0).is_some()
    }

    /// Drop every expired session; returns how many were purged.
    pub(crate) fn purge_expired(&mut self, now: u64) -> usize {
        let before = self.sessions.len();
        self.sessions.retain(|_, s| now < s.expires_at);
        before - self.sessions.len()
    }

    /// Number of live (unpurged) sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no sessions are held.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_validate_roundtrip() {
        let mut m = SessionManager::new(100);
        let t = m.issue("alice", 0);
        let s = m.validate(&t, 50).unwrap();
        assert_eq!(s.username, "alice");
        assert_eq!(s.expires_at, 100);
    }

    #[test]
    fn tokens_are_unique_and_hex() {
        let mut m = SessionManager::new(100);
        let a = m.issue("alice", 0);
        let b = m.issue("alice", 0);
        assert_ne!(a, b);
        assert_eq!(a.as_str().len(), 64);
        assert!(a.as_str().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn expiry_enforced() {
        let mut m = SessionManager::new(10);
        let t = m.issue("alice", 0);
        assert!(m.validate(&t, 9).is_ok());
        assert_eq!(
            m.validate(&t, 10),
            Err(SessionError::Expired { expired_at: 10 })
        );
    }

    #[test]
    fn touch_slides_expiry() {
        let mut m = SessionManager::new(10);
        let t = m.issue("alice", 0);
        m.touch(&t, 9).unwrap();
        assert!(m.validate(&t, 15).is_ok());
        assert!(m.validate(&t, 19).is_err());
    }

    #[test]
    fn generations_are_unique_and_monotonic() {
        let mut m = SessionManager::new(100);
        let a = m.issue("alice", 0);
        let b = m.issue("alice", 0);
        let ga = m.validate(&a, 1).unwrap().generation;
        let gb = m.validate(&b, 1).unwrap().generation;
        assert!(gb > ga, "second issue must get a later generation");
    }

    #[test]
    fn revoke_and_unknown_token() {
        let mut m = SessionManager::new(10);
        let t = m.issue("alice", 0);
        assert!(m.revoke(&t));
        assert!(!m.revoke(&t));
        assert_eq!(m.validate(&t, 1), Err(SessionError::InvalidToken));
        let fake = Token::from_string("feedbeef".repeat(8));
        assert_eq!(m.validate(&fake, 0), Err(SessionError::InvalidToken));
    }

    #[test]
    fn purge_removes_only_expired() {
        let mut m = SessionManager::new(10);
        let _a = m.issue("alice", 0);
        let b = m.issue("bob", 5);
        assert_eq!(m.purge_expired(12), 1);
        assert_eq!(m.len(), 1);
        assert!(m.validate(&b, 12).is_ok());
    }

    #[test]
    fn issuing_purges_expired_sessions() {
        let mut m = SessionManager::new(10);
        let stale = m.issue("alice", 0);
        let fresh = m.issue("bob", 20);
        assert_eq!(m.len(), 1);
        assert_eq!(m.validate(&stale, 20), Err(SessionError::InvalidToken));
        assert!(m.validate(&fresh, 20).is_ok());
    }
}
