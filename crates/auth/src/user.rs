//! The user store: accounts, roles, login verification and lockout.
//!
//! Roles mirror the paper's audience: "faculty members, research personnel,
//! and students" (§I), plus an administrator role for portal management.

use crate::password::{PasswordHash, PasswordPolicy};
use std::collections::HashMap;
use std::fmt;

/// Authorization role of an account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Course students: own files, submit jobs.
    Student,
    /// Faculty/research staff: students' powers plus lab management.
    Faculty,
    /// Portal administrators: everything, including user management.
    Admin,
}

impl Role {
    /// Whether this role subsumes `other`'s privileges.
    pub fn at_least(self, other: Role) -> bool {
        self.rank() >= other.rank()
    }

    fn rank(self) -> u8 {
        match self {
            Role::Student => 0,
            Role::Faculty => 1,
            Role::Admin => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Role::Student => "student",
            Role::Faculty => "faculty",
            Role::Admin => "admin",
        }
    }
}

/// Authentication failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// Username not registered.
    UnknownUser(String),
    /// Username already registered.
    UserExists(String),
    /// Wrong password.
    BadCredentials,
    /// Too many consecutive failures; account must be unlocked by an admin.
    AccountLocked {
        /// Username affected.
        user: String,
        /// Consecutive failures recorded.
        failures: u32,
    },
    /// Password violates the policy.
    WeakPassword {
        /// Required minimum length.
        min_length: usize,
    },
    /// Caller's role is insufficient.
    Forbidden {
        /// Role required.
        required: Role,
        /// Role held.
        held: Role,
    },
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownUser(u) => write!(f, "unknown user {u}"),
            AuthError::UserExists(u) => write!(f, "user {u} already exists"),
            AuthError::BadCredentials => write!(f, "bad credentials"),
            AuthError::AccountLocked { user, failures } => {
                write!(f, "account {user} locked after {failures} failures")
            }
            AuthError::WeakPassword { min_length } => {
                write!(f, "password too weak (minimum {min_length} characters)")
            }
            AuthError::Forbidden { required, held } => {
                write!(
                    f,
                    "requires {} role, caller is {}",
                    required.name(),
                    held.name()
                )
            }
        }
    }
}

impl std::error::Error for AuthError {}

/// One account.
#[derive(Debug, Clone)]
pub struct User {
    /// Login name.
    pub username: String,
    /// Authorization role.
    pub role: Role,
    hash: PasswordHash,
    consecutive_failures: u32,
    locked: bool,
}

impl User {
    fn locked_error(&self) -> AuthError {
        AuthError::AccountLocked {
            user: self.username.clone(),
            failures: self.consecutive_failures,
        }
    }
}

/// Maximum consecutive failures before lockout.
pub(crate) const LOCKOUT_THRESHOLD: u32 = 5;

/// A login in flight: the account's credential record, captured by
/// [`UserStore::begin_login`] so that the password stretch needs no access
/// to the store.
#[derive(Debug)]
pub struct LoginAttempt {
    username: String,
    hash: PasswordHash,
}

impl LoginAttempt {
    /// Stretch `password` against the captured credential: the expensive
    /// part of a login, which holds no lock.
    pub fn check(self, password: &str) -> CheckedLogin {
        let matched = self.hash.verify(password);
        CheckedLogin {
            attempt: self,
            matched,
        }
    }
}

/// A [`LoginAttempt`] whose password was checked, for
/// [`UserStore::settle_login`] to count.
#[derive(Debug)]
pub struct CheckedLogin {
    attempt: LoginAttempt,
    matched: bool,
}

/// The account database.
#[derive(Debug, Default)]
pub struct UserStore {
    users: HashMap<String, User>,
    policy: PasswordPolicy,
}

impl UserStore {
    /// An empty store under the default [`PasswordPolicy`]; salts come from
    /// OS entropy.
    pub fn new() -> UserStore {
        UserStore::default()
    }

    /// Register a new account.
    pub fn register(
        &mut self,
        username: &str,
        password: &str,
        role: Role,
    ) -> Result<(), AuthError> {
        if self.users.contains_key(username) {
            return Err(AuthError::UserExists(username.to_string()));
        }
        if password.chars().count() < self.policy.min_length {
            return Err(AuthError::WeakPassword {
                min_length: self.policy.min_length,
            });
        }
        let hash = PasswordHash::create(password, self.policy);
        self.users.insert(
            username.to_string(),
            User {
                username: username.to_string(),
                role,
                hash,
                consecutive_failures: 0,
                locked: false,
            },
        );
        Ok(())
    }

    /// Verify a login attempt: [`UserStore::begin_login`], then
    /// [`LoginAttempt::check`], then [`UserStore::settle_login`].
    pub fn verify(&mut self, username: &str, password: &str) -> Result<&User, AuthError> {
        let checked = self.begin_login(username)?.check(password);
        self.settle_login(checked)
    }

    /// Start a login: capture the account's credential record, so the
    /// password can be stretched against it with no lock on the store. An
    /// unknown user or a locked account is refused here, before any
    /// stretching, and the refusal counts no attempt.
    pub fn begin_login(&self, username: &str) -> Result<LoginAttempt, AuthError> {
        let user = self
            .users
            .get(username)
            .ok_or_else(|| AuthError::UnknownUser(username.to_string()))?;
        if user.locked {
            return Err(user.locked_error());
        }
        Ok(LoginAttempt {
            username: user.username.clone(),
            hash: user.hash.clone(),
        })
    }

    /// Count a checked login attempt. Success resets the failure counter;
    /// failure increments it and locks the account at
    /// `LOCKOUT_THRESHOLD`, so attempts checked concurrently lock it
    /// exactly as serialized ones do. An account locked since the attempt
    /// began refuses even a matching password. A credential record that
    /// changed since then is not the one the password was checked
    /// against, so the attempt is refused and not counted.
    pub fn settle_login(&mut self, checked: CheckedLogin) -> Result<&User, AuthError> {
        let LoginAttempt { username, hash } = checked.attempt;
        let user = self
            .users
            .get_mut(&username)
            .ok_or(AuthError::UnknownUser(username))?;
        if user.hash != hash {
            return Err(AuthError::BadCredentials);
        }
        if user.locked {
            return Err(user.locked_error());
        }
        if checked.matched {
            user.consecutive_failures = 0;
            return Ok(user);
        }
        user.consecutive_failures += 1;
        if user.consecutive_failures >= LOCKOUT_THRESHOLD {
            user.locked = true;
            return Err(user.locked_error());
        }
        Err(AuthError::BadCredentials)
    }

    /// Admin operation: clear a lockout.
    pub fn unlock(&mut self, admin_role: Role, username: &str) -> Result<(), AuthError> {
        if !admin_role.at_least(Role::Admin) {
            return Err(AuthError::Forbidden {
                required: Role::Admin,
                held: admin_role,
            });
        }
        let user = self
            .users
            .get_mut(username)
            .ok_or_else(|| AuthError::UnknownUser(username.to_string()))?;
        user.locked = false;
        user.consecutive_failures = 0;
        Ok(())
    }

    /// Look an account up without authenticating.
    pub fn get(&self, username: &str) -> Option<&User> {
        self.users.get(username)
    }

    /// All usernames, sorted.
    pub fn usernames(&self) -> Vec<String> {
        let mut v: Vec<String> = self.users.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of accounts.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store hashing with 10 rounds instead of 10,000, so the tests run
    /// fast in debug builds.
    fn store() -> UserStore {
        UserStore {
            users: HashMap::new(),
            policy: PasswordPolicy {
                iterations: 10,
                min_length: 8,
            },
        }
    }

    #[test]
    fn register_and_login() {
        let mut s = store();
        s.register("alice", "p4ssword!", Role::Student).unwrap();
        let u = s.verify("alice", "p4ssword!").unwrap();
        assert_eq!(u.role, Role::Student);
    }

    #[test]
    fn duplicate_and_weak_rejected() {
        let mut s = store();
        s.register("alice", "p4ssword!", Role::Student).unwrap();
        assert_eq!(
            s.register("alice", "password2", Role::Student),
            Err(AuthError::UserExists("alice".into()))
        );
        assert_eq!(
            s.register("bob", "short", Role::Student),
            Err(AuthError::WeakPassword { min_length: 8 })
        );
    }

    #[test]
    fn unknown_user_distinct_error() {
        let mut s = store();
        assert!(
            matches!(s.verify("ghost", "whatever1"), Err(AuthError::UnknownUser(u)) if u == "ghost")
        );
    }

    #[test]
    fn lockout_after_threshold() {
        let mut s = store();
        s.register("alice", "p4ssword!", Role::Student).unwrap();
        for i in 0..LOCKOUT_THRESHOLD - 1 {
            assert!(
                matches!(
                    s.verify("alice", "nope-nope"),
                    Err(AuthError::BadCredentials)
                ),
                "attempt {i}"
            );
        }
        assert!(matches!(
            s.verify("alice", "nope-nope"),
            Err(AuthError::AccountLocked { .. })
        ));
        // Even the right password fails while locked.
        assert!(matches!(
            s.verify("alice", "p4ssword!"),
            Err(AuthError::AccountLocked { .. })
        ));
    }

    #[test]
    fn success_resets_failure_count() {
        let mut s = store();
        s.register("alice", "p4ssword!", Role::Student).unwrap();
        for _ in 0..LOCKOUT_THRESHOLD - 1 {
            let _ = s.verify("alice", "wrong-pass");
        }
        s.verify("alice", "p4ssword!").unwrap();
        // Counter reset: more failures allowed before lockout again.
        assert!(matches!(
            s.verify("alice", "wrong-pass"),
            Err(AuthError::BadCredentials)
        ));
    }

    #[test]
    fn attempts_checked_concurrently_lock_at_the_threshold() {
        let mut s = store();
        s.register("alice", "p4ssword!", Role::Student).unwrap();
        // Every attempt begins before any settles, as when logins stretch
        // side by side; the right password is among them.
        let right = s.begin_login("alice").unwrap();
        let wrong: Vec<LoginAttempt> = (0..LOCKOUT_THRESHOLD)
            .map(|_| s.begin_login("alice").unwrap())
            .collect();
        let right = right.check("p4ssword!");
        let wrong: Vec<CheckedLogin> = wrong.into_iter().map(|a| a.check("nope-nope")).collect();
        let results: Vec<_> = wrong
            .into_iter()
            .map(|c| s.settle_login(c).map(|_| ()))
            .collect();
        for r in &results[..results.len() - 1] {
            assert_eq!(r, &Err(AuthError::BadCredentials));
        }
        assert!(matches!(
            results.last().unwrap(),
            Err(AuthError::AccountLocked { failures, .. }) if *failures == LOCKOUT_THRESHOLD
        ));
        // The matching password settles after the lock: no login.
        assert!(matches!(
            s.settle_login(right),
            Err(AuthError::AccountLocked { .. })
        ));
        // A locked account is refused before any stretching.
        assert!(matches!(
            s.begin_login("alice"),
            Err(AuthError::AccountLocked { .. })
        ));
    }

    #[test]
    fn an_attempt_checked_against_a_replaced_credential_is_not_counted() {
        let mut s = store();
        s.register("alice", "p4ssword!", Role::Student).unwrap();
        let attempt = s.begin_login("alice").unwrap().check("p4ssword!");
        s.users.get_mut("alice").unwrap().hash = PasswordHash::create("new-secret!", s.policy);
        assert_eq!(
            s.settle_login(attempt).map(|_| ()),
            Err(AuthError::BadCredentials)
        );
        assert_eq!(s.get("alice").unwrap().consecutive_failures, 0);
        assert!(s.verify("alice", "new-secret!").is_ok());
    }

    #[test]
    fn unlock_requires_admin() {
        let mut s = store();
        s.register("alice", "p4ssword!", Role::Student).unwrap();
        for _ in 0..LOCKOUT_THRESHOLD {
            let _ = s.verify("alice", "wrong-pass");
        }
        assert!(matches!(
            s.unlock(Role::Faculty, "alice"),
            Err(AuthError::Forbidden { .. })
        ));
        s.unlock(Role::Admin, "alice").unwrap();
        assert!(s.verify("alice", "p4ssword!").is_ok());
    }

    #[test]
    fn role_ordering() {
        assert!(Role::Admin.at_least(Role::Faculty));
        assert!(Role::Faculty.at_least(Role::Student));
        assert!(!Role::Student.at_least(Role::Faculty));
        assert!(Role::Student.at_least(Role::Student));
    }

    #[test]
    fn usernames_sorted() {
        let mut s = store();
        s.register("zed", "p4ssword!", Role::Student).unwrap();
        s.register("amy", "p4ssword!", Role::Faculty).unwrap();
        assert_eq!(s.usernames(), vec!["amy", "zed"]);
        assert_eq!(s.len(), 2);
    }
}
