//! Normalized virtual paths.
//!
//! A [`VPath`] is always absolute, `/`-separated, with no `.`/`..`/empty
//! components after parsing — `..` is resolved at parse time (clamped at the
//! root), which makes directory-traversal attacks against the portal's file
//! manager structurally impossible.

use crate::error::VfsError;
use std::fmt;

/// A normalized absolute path inside the virtual filesystem.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VPath {
    components: Vec<String>,
}

impl VPath {
    /// The root directory `/`.
    pub fn root() -> VPath {
        VPath {
            components: Vec::new(),
        }
    }

    /// Parse and normalize. Accepts relative input by anchoring at `/`.
    ///
    /// Rejects components containing NUL and components longer than 255
    /// bytes. `.` is dropped, `..` pops (clamped at root).
    pub fn parse(raw: &str) -> Result<VPath, VfsError> {
        let mut components: Vec<String> = Vec::new();
        for comp in raw.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    components.pop();
                }
                c => {
                    if c.contains('\0') {
                        return Err(VfsError::InvalidPath {
                            path: raw.to_string(),
                            reason: "NUL in component",
                        });
                    }
                    if c.len() > 255 {
                        return Err(VfsError::InvalidPath {
                            path: raw.to_string(),
                            reason: "component too long",
                        });
                    }
                    components.push(c.to_string());
                }
            }
        }
        Ok(VPath { components })
    }

    /// The normalized components, root first.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// True for the root directory.
    pub(crate) fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// Final component (`None` at the root).
    pub fn file_name(&self) -> Option<&str> {
        self.components.last().map(String::as_str)
    }

    /// Parent directory (`None` at the root).
    pub fn parent(&self) -> Option<VPath> {
        if self.components.is_empty() {
            None
        } else {
            Some(VPath {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// This path extended by a relative path; `.` and `..` in `component`
    /// resolve against `self` (clamped at the root).
    pub fn join(&self, component: &str) -> Result<VPath, VfsError> {
        VPath::parse(&format!("{}/{}", self, component))
    }

    /// True when `self` equals or lies beneath `ancestor`.
    pub fn starts_with(&self, ancestor: &VPath) -> bool {
        self.components.len() >= ancestor.components.len()
            && self.components[..ancestor.components.len()] == ancestor.components[..]
    }

    /// Number of components (0 at root).
    pub fn depth(&self) -> usize {
        self.components.len()
    }
}

impl fmt::Display for VPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return f.write_str("/");
        }
        for c in &self.components {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalizes() {
        assert_eq!(VPath::parse("/a/b/c").unwrap().to_string(), "/a/b/c");
        assert_eq!(VPath::parse("a//b/./c/").unwrap().to_string(), "/a/b/c");
        assert_eq!(VPath::parse("/").unwrap().to_string(), "/");
        assert_eq!(VPath::parse("").unwrap().to_string(), "/");
    }

    #[test]
    fn dotdot_clamps_at_root() {
        assert_eq!(VPath::parse("/a/../b").unwrap().to_string(), "/b");
        assert_eq!(
            VPath::parse("/../../etc/passwd").unwrap().to_string(),
            "/etc/passwd"
        );
        assert_eq!(VPath::parse("/a/b/../..").unwrap().to_string(), "/");
    }

    #[test]
    fn traversal_cannot_escape_home() {
        // What the portal does: join user input onto the home dir and check
        // the result is still under the home dir.
        let home = VPath::parse("/home/alice").unwrap();
        let input = home.join("../bob/secret.txt").unwrap();
        assert!(!input.starts_with(&home));
        assert!(input.starts_with(&VPath::parse("/home").unwrap()));
    }

    #[test]
    fn invalid_components_rejected() {
        assert!(VPath::parse("/a\0b").is_err());
        let long = "x".repeat(256);
        assert!(VPath::parse(&long).is_err());
    }

    #[test]
    fn parent_and_file_name() {
        let p = VPath::parse("/a/b/c").unwrap();
        assert_eq!(p.file_name(), Some("c"));
        assert_eq!(p.parent().unwrap().to_string(), "/a/b");
        assert_eq!(VPath::root().parent(), None);
        assert_eq!(VPath::root().file_name(), None);
    }

    #[test]
    fn join_multi_component() {
        let p = VPath::parse("/home").unwrap().join("alice/src").unwrap();
        assert_eq!(p.to_string(), "/home/alice/src");
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn starts_with_exact_match() {
        let a = VPath::parse("/x/y").unwrap();
        assert!(a.starts_with(&a));
        assert!(a.starts_with(&VPath::root()));
        assert!(!VPath::parse("/x/yz").unwrap().starts_with(&a));
    }
}
