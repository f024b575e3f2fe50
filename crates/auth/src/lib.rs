//! # auth — the portal's authentication substrate
//!
//! The portal requirements begin with "provide means of user distinction,
//! through the method of user authentication" (§II). This crate implements
//! that from first principles:
//!
//! * [`sha256`] — a from-scratch FIPS 180-4 SHA-256 (no external crypto);
//! * [`password`] — salted, iterated password hashing with constant-time
//!   verification;
//! * [`user`] — the user store: roles (student/faculty/admin), registration,
//!   login with failure lockout;
//! * [`session`] — expiring bearer tokens for the web portal.
//!
//! Salts and token entropy come from the operating system, never from a
//! seed, so no two deployments share them.
//!
//! ```
//! use auth::{UserStore, Role};
//!
//! let mut store = UserStore::new();
//! store.register("hlin", "correct horse battery", Role::Faculty).unwrap();
//! assert!(store.verify("hlin", "correct horse battery").is_ok());
//! assert!(store.verify("hlin", "wrong").is_err());
//! ```

mod entropy;
pub mod password;
pub mod session;
pub mod sha256;
pub mod user;

pub use password::{PasswordHash, PasswordPolicy};
pub use session::{Session, SessionError, SessionManager, Token};
pub use sha256::Sha256;
pub use user::{AuthError, CheckedLogin, LoginAttempt, Role, User, UserStore};
