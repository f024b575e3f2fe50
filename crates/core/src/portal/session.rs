//! Session facade: authentication, token lifecycle, account
//! administration — and the [`SessionStamp`] that lets heavy operations
//! prove, at commit time, that the session that started them still exists.
//!
//! A login is phased like the heavy operations: the credential is read
//! under the read guard, the password is stretched with no portal lock,
//! and the attempt is counted under a brief write guard.

use super::Portal;
use crate::error::PortalError;
use auth::{CheckedLogin, LoginAttempt, Role, SessionError, Token};
use vfs::VfsError;

/// Quota in bytes for each account created through the admin API.
const USER_QUOTA: u64 = 16 << 20;

/// Everything a long-running operation needs to remember about the
/// session that started it. Captured under the portal lock by the
/// `*_begin` methods, carried through the unlocked middle phase, and
/// re-validated by `Portal::check_stamp` before any result is applied.
///
/// The `generation` is the session's issue-order stamp: tokens are never
/// reused, so a matching token with a different generation (or no session
/// at all) proves the session was revoked — and possibly re-issued —
/// while the operation ran, and its result must be dropped.
#[derive(Debug, Clone)]
pub struct SessionStamp {
    /// The token the operation was started with.
    pub token: Token,
    /// Resolved username at begin time.
    pub user: String,
    /// Resolved role at begin time.
    pub role: Role,
    /// The session's unique issue-order stamp.
    pub generation: u64,
}

impl Portal {
    // ---- sessions ----------------------------------------------------------

    /// Authenticate and mint a session token. One call, all three phases:
    /// [`Portal::login_begin`], [`LoginAttempt::check`],
    /// [`Portal::login_commit`].
    pub fn login(&mut self, name: &str, password: &str, now: u64) -> Result<Token, PortalError> {
        let checked = self.login_begin(name)?.check(password);
        self.login_commit(checked, now)
    }

    /// Phase 1 of a login (read guard): capture the account's credential
    /// record. An unknown user or a locked account is refused here, with
    /// no password stretch. Phase 2, [`LoginAttempt::check`], stretches the
    /// password with no portal lock held.
    pub fn login_begin(&self, name: &str) -> Result<LoginAttempt, PortalError> {
        Ok(self.users.begin_login(name)?)
    }

    /// Phase 3 of a login (brief write guard): count the attempt, and
    /// issue a session only if the password matched a credential record
    /// that is unchanged and not locked since the attempt began.
    pub fn login_commit(&mut self, checked: CheckedLogin, now: u64) -> Result<Token, PortalError> {
        let user = self.users.settle_login(checked)?;
        Ok(self.sessions.issue(&user.username, now))
    }

    /// Invalidate a token. Idempotent.
    pub fn logout(&mut self, token: &Token) {
        self.sessions.revoke(token);
    }

    /// Resolve a token to `(username, role)`.
    pub fn whoami(&self, token: &Token, now: u64) -> Result<(String, Role), PortalError> {
        let s = self.sessions.validate(token, now)?;
        let user = self
            .users
            .get(&s.username)
            .ok_or(PortalError::Forbidden("account removed"))?;
        Ok((user.username.clone(), user.role))
    }

    /// Capture who the caller is *right now*, for an operation that will
    /// keep running after the portal lock is released.
    pub fn stamp(&self, token: &Token, now: u64) -> Result<SessionStamp, PortalError> {
        let s = self.sessions.validate(token, now)?;
        let generation = s.generation;
        let username = s.username.clone();
        let user = self
            .users
            .get(&username)
            .ok_or(PortalError::Forbidden("account removed"))?;
        Ok(SessionStamp {
            token: token.clone(),
            user: user.username.clone(),
            role: user.role,
            generation,
        })
    }

    /// Re-validate a [`SessionStamp`] before committing a heavy
    /// operation's result. Fails exactly when the stamped session no
    /// longer exists: expired, logged out, or revoked and re-issued
    /// mid-flight (the generation check catches the last case even
    /// though tokens are never reused — belt and braces).
    pub(crate) fn check_stamp(&self, stamp: &SessionStamp, now: u64) -> Result<(), PortalError> {
        let s = self.sessions.validate(&stamp.token, now)?;
        if s.generation != stamp.generation || s.username != stamp.user {
            return Err(PortalError::Session(SessionError::InvalidToken));
        }
        Ok(())
    }

    // ---- admin -------------------------------------------------------------

    /// Create an account (admin only). Also creates the vfs home.
    pub fn create_user(
        &mut self,
        admin: &Token,
        name: &str,
        password: &str,
        role: Role,
        now: u64,
    ) -> Result<(), PortalError> {
        let (_, caller_role) = self.whoami(admin, now)?;
        if !caller_role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("user creation requires admin"));
        }
        self.users.register(name, password, role)?;
        // After a crash recovery the home directory may already exist
        // (the vfs is journaled; the credential store is not).
        match self.vfs_op(|fs| fs.add_user(name, USER_QUOTA)) {
            Ok(()) | Err(PortalError::Vfs(VfsError::UserExists(_))) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// All usernames (admin only).
    pub fn list_users(&self, admin: &Token, now: u64) -> Result<Vec<String>, PortalError> {
        let (_, role) = self.whoami(admin, now)?;
        if !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("user listing requires admin"));
        }
        Ok(self.users.usernames())
    }

    // ---- path resolution ---------------------------------------------------

    /// Resolve a client-supplied path for `user` with `role`: relative paths
    /// anchor at the home directory; students may not escape their home.
    pub(super) fn resolve(
        &self,
        user: &str,
        role: Role,
        path: &str,
    ) -> Result<String, PortalError> {
        let home = format!("/home/{user}");
        let full = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("{home}/{path}")
        };
        // Normalize through VPath to fold any `..`.
        let normalized = vfs::VPath::parse(&full)?.to_string();
        if role == Role::Student && !normalized.starts_with(&home) {
            return Err(PortalError::OutsideHome { path: normalized });
        }
        Ok(normalized)
    }
}
