//! The filesystem proper: a tree of named entries with owners, permission
//! bits, per-user quotas and a logical modification clock.
//!
//! Layout convention (mirroring the portal): every registered user gets a
//! home directory `/home/<user>` that only they (and `root`) can touch.

use crate::error::VfsError;
use crate::journal::{decode_mode, encode_mode, VfsRecord};
use crate::path::VPath;
use std::collections::{BTreeMap, HashMap};
use wal::{Dec, Enc, Stream};

/// Simplified POSIX-style permission bits: owner and world, read and write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Owner may read.
    pub owner_read: bool,
    /// Owner may write.
    pub owner_write: bool,
    /// Everyone may read.
    pub world_read: bool,
    /// Everyone may write.
    pub world_write: bool,
}

impl Default for Mode {
    /// `rw-r--`: owner read/write, world read.
    fn default() -> Self {
        Mode {
            owner_read: true,
            owner_write: true,
            world_read: true,
            world_write: false,
        }
    }
}

impl Mode {
    /// `rw----`: private to the owner (home directories).
    pub fn private() -> Mode {
        Mode {
            owner_read: true,
            owner_write: true,
            world_read: false,
            world_write: false,
        }
    }

    /// `rw-rw-`: shared scratch space.
    pub fn shared() -> Mode {
        Mode {
            owner_read: true,
            owner_write: true,
            world_read: true,
            world_write: true,
        }
    }
}

/// Whether an entry is a file or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// Metadata returned by [`Vfs::stat`] and [`Vfs::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    /// File or directory.
    pub kind: EntryKind,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Owning user.
    pub owner: String,
    /// Permission bits.
    pub mode: Mode,
    /// Logical modification stamp (monotonic per filesystem).
    pub mtime: u64,
}

/// One row of a directory listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name within the directory.
    pub name: String,
    /// Its metadata.
    pub stat: Stat,
}

#[derive(Debug, Clone)]
struct Meta {
    owner: String,
    mode: Mode,
    mtime: u64,
}

#[derive(Debug, Clone)]
enum Node {
    File {
        meta: Meta,
        data: Vec<u8>,
    },
    Dir {
        meta: Meta,
        children: BTreeMap<String, Node>,
    },
}

impl Node {
    fn meta(&self) -> &Meta {
        match self {
            Node::File { meta, .. } | Node::Dir { meta, .. } => meta,
        }
    }

    fn meta_mut(&mut self) -> &mut Meta {
        match self {
            Node::File { meta, .. } | Node::Dir { meta, .. } => meta,
        }
    }

    fn kind(&self) -> EntryKind {
        match self {
            Node::File { .. } => EntryKind::File,
            Node::Dir { .. } => EntryKind::Dir,
        }
    }

    fn size(&self) -> u64 {
        match self {
            Node::File { data, .. } => data.len() as u64,
            Node::Dir { .. } => 0,
        }
    }

    fn stat(&self) -> Stat {
        let m = self.meta();
        Stat {
            kind: self.kind(),
            size: self.size(),
            owner: m.owner.clone(),
            mode: m.mode,
            mtime: m.mtime,
        }
    }

    /// Total bytes of all files in this subtree, grouped by owner.
    fn usage_by_owner(&self, acc: &mut HashMap<String, u64>) {
        match self {
            Node::File { meta, data } => {
                *acc.entry(meta.owner.clone()).or_insert(0) += data.len() as u64;
            }
            Node::Dir { children, .. } => {
                for c in children.values() {
                    c.usage_by_owner(acc);
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct UserAccount {
    quota_limit: u64,
    quota_used: u64,
}

/// The superuser name; bypasses permission checks (but not quotas — root has
/// an unlimited quota instead).
pub(crate) const ROOT_USER: &str = "root";

/// The in-memory virtual filesystem.
#[derive(Debug)]
pub struct Vfs {
    root: Node,
    users: HashMap<String, UserAccount>,
    clock: u64,
    /// This filesystem's stream on the portal's journal; `None` runs fully
    /// in memory (the default).
    wal: Option<Stream>,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// An empty filesystem containing `/` and `/home`, owned by root.
    pub fn new() -> Vfs {
        let meta = Meta {
            owner: ROOT_USER.to_string(),
            mode: Mode::default(),
            mtime: 0,
        };
        let mut root_children = BTreeMap::new();
        root_children.insert(
            "home".to_string(),
            Node::Dir {
                meta: meta.clone(),
                children: BTreeMap::new(),
            },
        );
        let mut users = HashMap::new();
        users.insert(
            ROOT_USER.to_string(),
            UserAccount {
                quota_limit: u64::MAX,
                quota_used: 0,
            },
        );
        Vfs {
            root: Node::Dir {
                meta,
                children: root_children,
            },
            users,
            clock: 1,
            wal: None,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Register a user with a byte quota and create `/home/<user>` (private).
    pub fn add_user(&mut self, user: &str, quota_bytes: u64) -> Result<(), VfsError> {
        self.add_user_inner(user, quota_bytes)?;
        self.log(|| VfsRecord::AddUser {
            user: user.to_string(),
            quota: quota_bytes,
        })
    }

    fn add_user_inner(&mut self, user: &str, quota_bytes: u64) -> Result<(), VfsError> {
        if self.users.contains_key(user) {
            return Err(VfsError::UserExists(user.to_string()));
        }
        if user.is_empty() || user.contains('/') || user.contains('\0') {
            return Err(VfsError::InvalidPath {
                path: user.to_string(),
                reason: "bad user name",
            });
        }
        self.users.insert(
            user.to_string(),
            UserAccount {
                quota_limit: quota_bytes,
                quota_used: 0,
            },
        );
        let home = VPath::parse("/home")?.join(user)?;
        self.mkdir_as(ROOT_USER, &home)?;
        // Hand the home dir to the user, private.
        let t = self.tick();
        let node = self.node_mut(&home)?;
        let m = node.meta_mut();
        m.owner = user.to_string();
        m.mode = Mode::private();
        m.mtime = t;
        Ok(())
    }

    /// `(used, limit)` quota bytes for `user`.
    pub fn quota(&self, user: &str) -> Result<(u64, u64), VfsError> {
        self.users
            .get(user)
            .map(|a| (a.quota_used, a.quota_limit))
            .ok_or_else(|| VfsError::NoSuchUser(user.to_string()))
    }

    // ---- node navigation -------------------------------------------------

    fn node(&self, path: &VPath) -> Result<&Node, VfsError> {
        let mut cur = &self.root;
        for comp in path.components() {
            match cur {
                Node::Dir { children, .. } => {
                    cur = children
                        .get(comp)
                        .ok_or_else(|| VfsError::NotFound(path.to_string()))?;
                }
                Node::File { .. } => return Err(VfsError::NotADirectory(path.to_string())),
            }
        }
        Ok(cur)
    }

    fn node_mut(&mut self, path: &VPath) -> Result<&mut Node, VfsError> {
        let mut cur = &mut self.root;
        for comp in path.components() {
            match cur {
                Node::Dir { children, .. } => {
                    cur = children
                        .get_mut(comp)
                        .ok_or_else(|| VfsError::NotFound(path.to_string()))?;
                }
                Node::File { .. } => return Err(VfsError::NotADirectory(path.to_string())),
            }
        }
        Ok(cur)
    }

    fn exists_node(&self, path: &VPath) -> bool {
        self.node(path).is_ok()
    }

    // ---- permissions -----------------------------------------------------

    fn can_read(&self, user: &str, node: &Node) -> bool {
        if user == ROOT_USER {
            return true;
        }
        let m = node.meta();
        if m.owner == user {
            m.mode.owner_read
        } else {
            m.mode.world_read
        }
    }

    fn can_write(&self, user: &str, node: &Node) -> bool {
        if user == ROOT_USER {
            return true;
        }
        let m = node.meta();
        if m.owner == user {
            m.mode.owner_write
        } else {
            m.mode.world_write
        }
    }

    /// Require read ("traverse") permission on every proper ancestor
    /// directory of `path` — the POSIX execute-bit analogue that keeps a
    /// private home private even when files inside default to world-read.
    fn check_traverse(&self, user: &str, path: &VPath) -> Result<(), VfsError> {
        let mut cur = VPath::root();
        let comps = path.components();
        for comp in comps.iter().take(comps.len().saturating_sub(1)) {
            let node = self.node(&cur)?;
            if !self.can_read(user, node) {
                return Err(VfsError::PermissionDenied {
                    user: user.to_string(),
                    path: cur.to_string(),
                    op: "traverse",
                });
            }
            cur = cur.join(comp)?;
        }
        if !path.is_root() {
            let node = self.node(&cur)?;
            if !self.can_read(user, node) {
                return Err(VfsError::PermissionDenied {
                    user: user.to_string(),
                    path: cur.to_string(),
                    op: "traverse",
                });
            }
        }
        Ok(())
    }

    fn require_user(&self, user: &str) -> Result<(), VfsError> {
        if self.users.contains_key(user) {
            Ok(())
        } else {
            Err(VfsError::NoSuchUser(user.to_string()))
        }
    }

    /// Check the acting user can traverse into and modify `dir` (used for
    /// create/delete/move within a directory).
    fn check_dir_writable(&self, user: &str, dir: &VPath) -> Result<(), VfsError> {
        let node = self.node(dir)?;
        if node.kind() != EntryKind::Dir {
            return Err(VfsError::NotADirectory(dir.to_string()));
        }
        if !self.can_write(user, node) {
            return Err(VfsError::PermissionDenied {
                user: user.to_string(),
                path: dir.to_string(),
                op: "write",
            });
        }
        Ok(())
    }

    // ---- quota -----------------------------------------------------------

    fn charge(&mut self, user: &str, delta_new: u64, delta_freed: u64) -> Result<(), VfsError> {
        let acct = self
            .users
            .get_mut(user)
            .ok_or_else(|| VfsError::NoSuchUser(user.to_string()))?;
        let after_free = acct.quota_used.saturating_sub(delta_freed);
        if delta_new > 0 && after_free.saturating_add(delta_new) > acct.quota_limit {
            return Err(VfsError::QuotaExceeded {
                user: user.to_string(),
                used: after_free,
                limit: acct.quota_limit,
                requested: delta_new,
            });
        }
        acct.quota_used = after_free.saturating_add(delta_new);
        Ok(())
    }

    fn refund_subtree(&mut self, node: &Node) {
        let mut usage = HashMap::new();
        node.usage_by_owner(&mut usage);
        for (owner, bytes) in usage {
            if let Some(acct) = self.users.get_mut(&owner) {
                acct.quota_used = acct.quota_used.saturating_sub(bytes);
            }
        }
    }

    // ---- operations ------------------------------------------------------

    /// Create a directory (parent must exist and be writable by `user`).
    pub fn mkdir(&mut self, user: &str, path: &str) -> Result<(), VfsError> {
        let p = VPath::parse(path)?;
        self.mkdir_as(user, &p)?;
        self.log(|| VfsRecord::Mkdir {
            user: user.to_string(),
            path: path.to_string(),
        })
    }

    fn mkdir_as(&mut self, user: &str, p: &VPath) -> Result<(), VfsError> {
        self.require_user(user)?;
        self.check_traverse(user, p)?;
        let parent = p.parent().ok_or(VfsError::AlreadyExists("/".to_string()))?;
        self.check_dir_writable(user, &parent)?;
        if self.exists_node(p) {
            return Err(VfsError::AlreadyExists(p.to_string()));
        }
        let name = leaf_name(p)?;
        let t = self.tick();
        let meta = Meta {
            owner: user.to_string(),
            mode: Mode::default(),
            mtime: t,
        };
        match self.node_mut(&parent)? {
            Node::Dir { children, .. } => {
                children.insert(
                    name,
                    Node::Dir {
                        meta,
                        children: BTreeMap::new(),
                    },
                );
                Ok(())
            }
            Node::File { .. } => Err(VfsError::NotADirectory(parent.to_string())),
        }
    }

    /// Create all missing directories along `path`.
    pub fn mkdir_p(&mut self, user: &str, path: &str) -> Result<(), VfsError> {
        self.mkdir_p_inner(user, path)?;
        self.log(|| VfsRecord::MkdirP {
            user: user.to_string(),
            path: path.to_string(),
        })
    }

    fn mkdir_p_inner(&mut self, user: &str, path: &str) -> Result<(), VfsError> {
        let p = VPath::parse(path)?;
        let mut cur = VPath::root();
        for comp in p.components() {
            cur = cur.join(comp)?;
            if !self.exists_node(&cur) {
                self.mkdir_as(user, &cur)?;
            }
        }
        Ok(())
    }

    /// Write (create or overwrite) a file with `data`. Quota is charged to
    /// the *file owner* (the acting user for new files; unchanged for
    /// overwrites of files they can write).
    pub fn write(&mut self, user: &str, path: &str, data: Vec<u8>) -> Result<(), VfsError> {
        let payload = self.wal.is_some().then(|| {
            VfsRecord::Write {
                user: user.to_string(),
                path: path.to_string(),
                data: data.clone(),
            }
            .encode()
        });
        self.write_inner(user, path, data)?;
        match payload {
            Some(p) => self.log_payload(&p),
            None => Ok(()),
        }
    }

    fn write_inner(&mut self, user: &str, path: &str, data: Vec<u8>) -> Result<(), VfsError> {
        let p = VPath::parse(path)?;
        self.require_user(user)?;
        self.check_traverse(user, &p)?;
        let parent = p.parent().ok_or(VfsError::IsADirectory("/".to_string()))?;
        match self.node(&p) {
            Ok(Node::Dir { .. }) => Err(VfsError::IsADirectory(p.to_string())),
            Ok(node @ Node::File { .. }) => {
                if !self.can_write(user, node) {
                    return Err(VfsError::PermissionDenied {
                        user: user.to_string(),
                        path: p.to_string(),
                        op: "write",
                    });
                }
                let (owner, old_len) = (node.meta().owner.clone(), node.size());
                self.charge(&owner, data.len() as u64, old_len)?;
                let t = self.tick();
                if let Node::File { meta, data: d } = self.node_mut(&p)? {
                    *d = data;
                    meta.mtime = t;
                }
                Ok(())
            }
            Err(VfsError::NotFound(_)) => {
                self.check_dir_writable(user, &parent)?;
                let name = leaf_name(&p)?;
                self.charge(user, data.len() as u64, 0)?;
                let t = self.tick();
                let meta = Meta {
                    owner: user.to_string(),
                    mode: Mode::default(),
                    mtime: t,
                };
                match self.node_mut(&parent)? {
                    Node::Dir { children, .. } => {
                        children.insert(name, Node::File { meta, data });
                        Ok(())
                    }
                    Node::File { .. } => Err(VfsError::NotADirectory(parent.to_string())),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Append to an existing file (creating it if absent).
    pub fn append(&mut self, user: &str, path: &str, extra: &[u8]) -> Result<(), VfsError> {
        self.append_inner(user, path, extra)?;
        self.log(|| VfsRecord::Append {
            user: user.to_string(),
            path: path.to_string(),
            data: extra.to_vec(),
        })
    }

    fn append_inner(&mut self, user: &str, path: &str, extra: &[u8]) -> Result<(), VfsError> {
        let p = VPath::parse(path)?;
        match self.node(&p) {
            Ok(Node::File { data, .. }) => {
                let mut combined = data.clone();
                combined.extend_from_slice(extra);
                self.write_inner(user, path, combined)
            }
            Ok(Node::Dir { .. }) => Err(VfsError::IsADirectory(p.to_string())),
            Err(VfsError::NotFound(_)) => self.write_inner(user, path, extra.to_vec()),
            Err(e) => Err(e),
        }
    }

    /// Read a file's contents.
    pub fn read(&self, user: &str, path: &str) -> Result<Vec<u8>, VfsError> {
        let p = VPath::parse(path)?;
        self.require_user(user)?;
        self.check_traverse(user, &p)?;
        let node = self.node(&p)?;
        if !self.can_read(user, node) {
            return Err(VfsError::PermissionDenied {
                user: user.to_string(),
                path: p.to_string(),
                op: "read",
            });
        }
        match node {
            Node::File { data, .. } => Ok(data.clone()),
            Node::Dir { .. } => Err(VfsError::IsADirectory(p.to_string())),
        }
    }

    /// List a directory's entries (sorted by name).
    pub fn list(&self, user: &str, path: &str) -> Result<Vec<DirEntry>, VfsError> {
        let p = VPath::parse(path)?;
        self.require_user(user)?;
        self.check_traverse(user, &p)?;
        let node = self.node(&p)?;
        if !self.can_read(user, node) {
            return Err(VfsError::PermissionDenied {
                user: user.to_string(),
                path: p.to_string(),
                op: "read",
            });
        }
        match node {
            Node::Dir { children, .. } => Ok(children
                .iter()
                .map(|(name, n)| DirEntry {
                    name: name.clone(),
                    stat: n.stat(),
                })
                .collect()),
            Node::File { .. } => Err(VfsError::NotADirectory(p.to_string())),
        }
    }

    /// Metadata for a path.
    pub fn stat(&self, user: &str, path: &str) -> Result<Stat, VfsError> {
        let p = VPath::parse(path)?;
        self.require_user(user)?;
        self.check_traverse(user, &p)?;
        // stat requires read on the *parent* directory (or the node itself at root).
        if let Some(parent) = p.parent() {
            let pn = self.node(&parent)?;
            if !self.can_read(user, pn) {
                return Err(VfsError::PermissionDenied {
                    user: user.to_string(),
                    path: parent.to_string(),
                    op: "read",
                });
            }
        }
        Ok(self.node(&p)?.stat())
    }

    /// True when the path exists (no permission check; used internally by
    /// the portal for existence probes within the caller's own home).
    pub fn exists(&self, path: &str) -> bool {
        VPath::parse(path)
            .map(|p| self.exists_node(&p))
            .unwrap_or(false)
    }

    /// Change an entry's permission bits (owner or root only).
    pub fn chmod(&mut self, user: &str, path: &str, mode: Mode) -> Result<(), VfsError> {
        self.chmod_inner(user, path, mode)?;
        self.log(|| VfsRecord::Chmod {
            user: user.to_string(),
            path: path.to_string(),
            mode,
        })
    }

    fn chmod_inner(&mut self, user: &str, path: &str, mode: Mode) -> Result<(), VfsError> {
        let p = VPath::parse(path)?;
        self.require_user(user)?;
        self.check_traverse(user, &p)?;
        let node = self.node(&p)?;
        if user != ROOT_USER && node.meta().owner != user {
            return Err(VfsError::PermissionDenied {
                user: user.to_string(),
                path: p.to_string(),
                op: "chmod",
            });
        }
        let t = self.tick();
        let m = self.node_mut(&p)?.meta_mut();
        m.mode = mode;
        m.mtime = t;
        Ok(())
    }

    /// Remove a file or *empty* directory.
    pub fn remove(&mut self, user: &str, path: &str) -> Result<(), VfsError> {
        self.remove_inner(user, path, false)?;
        self.log(|| VfsRecord::Remove {
            user: user.to_string(),
            path: path.to_string(),
        })
    }

    /// Remove a file or directory subtree.
    pub fn remove_recursive(&mut self, user: &str, path: &str) -> Result<(), VfsError> {
        self.remove_inner(user, path, true)?;
        self.log(|| VfsRecord::RemoveRecursive {
            user: user.to_string(),
            path: path.to_string(),
        })
    }

    fn remove_inner(&mut self, user: &str, path: &str, recursive: bool) -> Result<(), VfsError> {
        let p = VPath::parse(path)?;
        self.require_user(user)?;
        self.check_traverse(user, &p)?;
        let parent = p.parent().ok_or(VfsError::PermissionDenied {
            user: user.to_string(),
            path: "/".to_string(),
            op: "remove",
        })?;
        self.check_dir_writable(user, &parent)?;
        let node = self.node(&p)?;
        if let Node::Dir { children, .. } = node {
            if !children.is_empty() && !recursive {
                return Err(VfsError::DirectoryNotEmpty(p.to_string()));
            }
        }
        let name = leaf_name(&p)?;
        let removed = match self.node_mut(&parent)? {
            Node::Dir { children, .. } => children
                .remove(&name)
                .ok_or_else(|| VfsError::NotFound(p.to_string()))?,
            Node::File { .. } => return Err(VfsError::NotADirectory(parent.to_string())),
        };
        self.refund_subtree(&removed);
        let t = self.tick();
        self.node_mut(&parent)?.meta_mut().mtime = t;
        Ok(())
    }

    /// Copy a file or directory subtree. The copy is owned by `user` and
    /// charged to their quota.
    pub fn copy(&mut self, user: &str, from: &str, to: &str) -> Result<(), VfsError> {
        self.copy_inner(user, from, to)?;
        self.log(|| VfsRecord::Copy {
            user: user.to_string(),
            from: from.to_string(),
            to: to.to_string(),
        })
    }

    fn copy_inner(&mut self, user: &str, from: &str, to: &str) -> Result<(), VfsError> {
        let pf = VPath::parse(from)?;
        let pt = VPath::parse(to)?;
        self.require_user(user)?;
        self.check_traverse(user, &pf)?;
        self.check_traverse(user, &pt)?;
        let src = self.node(&pf)?;
        if !self.can_read(user, src) {
            return Err(VfsError::PermissionDenied {
                user: user.to_string(),
                path: pf.to_string(),
                op: "read",
            });
        }
        if pt.starts_with(&pf) && src.kind() == EntryKind::Dir {
            return Err(VfsError::MoveIntoSelf {
                from: pf.to_string(),
                to: pt.to_string(),
            });
        }
        if self.exists_node(&pt) {
            return Err(VfsError::AlreadyExists(pt.to_string()));
        }
        let dest_parent = pt
            .parent()
            .ok_or(VfsError::AlreadyExists("/".to_string()))?;
        self.check_dir_writable(user, &dest_parent)?;
        // Charge the full subtree size to the copier before mutating.
        let mut usage = HashMap::new();
        src.usage_by_owner(&mut usage);
        let total: u64 = usage.values().sum();
        self.charge(user, total, 0)?;
        let name = leaf_name(&pt)?;
        let t = self.tick();
        let mut clone = self.node(&pf)?.clone();
        rebrand(&mut clone, user, t);
        match self.node_mut(&dest_parent)? {
            Node::Dir { children, .. } => {
                children.insert(name, clone);
                Ok(())
            }
            Node::File { .. } => Err(VfsError::NotADirectory(dest_parent.to_string())),
        }
    }

    /// Move/rename a file or directory. Ownership and quota charges follow
    /// the entry unchanged.
    pub fn rename(&mut self, user: &str, from: &str, to: &str) -> Result<(), VfsError> {
        self.rename_inner(user, from, to)?;
        self.log(|| VfsRecord::Rename {
            user: user.to_string(),
            from: from.to_string(),
            to: to.to_string(),
        })
    }

    fn rename_inner(&mut self, user: &str, from: &str, to: &str) -> Result<(), VfsError> {
        let pf = VPath::parse(from)?;
        let pt = VPath::parse(to)?;
        self.require_user(user)?;
        self.check_traverse(user, &pf)?;
        self.check_traverse(user, &pt)?;
        if pt.starts_with(&pf) && pf != pt {
            return Err(VfsError::MoveIntoSelf {
                from: pf.to_string(),
                to: pt.to_string(),
            });
        }
        if self.exists_node(&pt) {
            return Err(VfsError::AlreadyExists(pt.to_string()));
        }
        let src_parent = pf.parent().ok_or(VfsError::PermissionDenied {
            user: user.to_string(),
            path: "/".to_string(),
            op: "move",
        })?;
        let dst_parent = pt
            .parent()
            .ok_or(VfsError::AlreadyExists("/".to_string()))?;
        self.node(&pf)?; // existence check before any mutation
        self.check_dir_writable(user, &src_parent)?;
        self.check_dir_writable(user, &dst_parent)?;
        let name_from = leaf_name(&pf)?;
        let name_to = leaf_name(&pt)?;
        let taken = match self.node_mut(&src_parent)? {
            Node::Dir { children, .. } => children
                .remove(&name_from)
                .ok_or_else(|| VfsError::NotFound(pf.to_string()))?,
            Node::File { .. } => return Err(VfsError::NotADirectory(src_parent.to_string())),
        };
        let t = self.tick();
        match self.node_mut(&dst_parent)? {
            Node::Dir { children, .. } => {
                children.insert(name_to, taken);
            }
            Node::File { .. } => return Err(VfsError::NotADirectory(dst_parent.to_string())),
        }
        self.node_mut(&src_parent)?.meta_mut().mtime = t;
        self.node_mut(&dst_parent)?.meta_mut().mtime = t;
        Ok(())
    }

    /// Recursively walk a subtree, yielding `(path, stat)` pairs depth-first.
    pub fn walk(&self, user: &str, path: &str) -> Result<Vec<(String, Stat)>, VfsError> {
        let p = VPath::parse(path)?;
        self.require_user(user)?;
        self.check_traverse(user, &p)?;
        let node = self.node(&p)?;
        if !self.can_read(user, node) {
            return Err(VfsError::PermissionDenied {
                user: user.to_string(),
                path: p.to_string(),
                op: "read",
            });
        }
        let mut out = Vec::new();
        walk_inner(node, &p.to_string(), &mut out);
        Ok(out)
    }

    // ---- durability ------------------------------------------------------

    /// Log every later mutation to `wal`. Restore the state the journal
    /// recovered (via [`Vfs::from_snapshot`] and [`Vfs::replay`]) *before*
    /// attaching.
    pub fn attach_wal(&mut self, wal: Stream) {
        self.wal = Some(wal);
    }

    fn log(&self, make: impl FnOnce() -> VfsRecord) -> Result<(), VfsError> {
        if self.wal.is_none() {
            return Ok(());
        }
        self.log_payload(&make().encode())
    }

    fn log_payload(&self, payload: &[u8]) -> Result<(), VfsError> {
        if let Some(wal) = &self.wal {
            wal.append(payload)
                .map_err(|e| VfsError::Wal(e.to_string()))?;
        }
        Ok(())
    }

    /// Decode one logged record and re-execute it (replay path; nothing is
    /// re-logged).
    pub fn replay(&mut self, payload: &[u8]) -> Result<(), VfsError> {
        let rec = VfsRecord::decode(payload).map_err(|e| VfsError::Wal(e.to_string()))?;
        self.apply(&rec)
    }

    /// Re-execute one logged record (replay path; nothing is re-logged).
    pub fn apply(&mut self, rec: &VfsRecord) -> Result<(), VfsError> {
        match rec {
            VfsRecord::AddUser { user, quota } => self.add_user_inner(user, *quota),
            VfsRecord::Mkdir { user, path } => {
                let p = VPath::parse(path)?;
                self.mkdir_as(user, &p)
            }
            VfsRecord::MkdirP { user, path } => self.mkdir_p_inner(user, path),
            VfsRecord::Write { user, path, data } => self.write_inner(user, path, data.clone()),
            VfsRecord::Append { user, path, data } => self.append_inner(user, path, data),
            VfsRecord::Chmod { user, path, mode } => self.chmod_inner(user, path, *mode),
            VfsRecord::Remove { user, path } => self.remove_inner(user, path, false),
            VfsRecord::RemoveRecursive { user, path } => self.remove_inner(user, path, true),
            VfsRecord::Copy { user, from, to } => self.copy_inner(user, from, to),
            VfsRecord::Rename { user, from, to } => self.rename_inner(user, from, to),
        }
    }

    /// Canonical byte serialization of the entire filesystem (the snapshot
    /// payload). Deterministic: equal filesystems encode identically, which
    /// is what the crash-recovery property test compares.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(SNAP_VERSION).u64(self.clock);
        let mut names: Vec<&String> = self.users.keys().collect();
        names.sort();
        e.u32(names.len() as u32);
        for name in names {
            let a = &self.users[name];
            e.str(name).u64(a.quota_limit).u64(a.quota_used);
        }
        encode_node(&mut e, &self.root);
        e.into_bytes()
    }

    /// Rebuild a filesystem from a [`Vfs::snapshot_bytes`] payload.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Vfs, VfsError> {
        let mut d = Dec::new(bytes);
        if d.u32().map_err(bad_snap)? != SNAP_VERSION {
            return Err(VfsError::Wal(
                "unsupported vfs snapshot version".to_string(),
            ));
        }
        let clock = d.u64().map_err(bad_snap)?;
        let n_users = d.u32().map_err(bad_snap)?;
        let mut users = HashMap::new();
        for _ in 0..n_users {
            let name = d.str().map_err(bad_snap)?;
            let quota_limit = d.u64().map_err(bad_snap)?;
            let quota_used = d.u64().map_err(bad_snap)?;
            users.insert(
                name,
                UserAccount {
                    quota_limit,
                    quota_used,
                },
            );
        }
        let root = decode_node(&mut d, 0).map_err(bad_snap)?;
        d.finish().map_err(bad_snap)?;
        Ok(Vfs {
            root,
            users,
            clock,
            wal: None,
        })
    }
}

const SNAP_VERSION: u32 = 1;

/// Guard against stack exhaustion on adversarial snapshot bytes.
const MAX_SNAP_DEPTH: u32 = 512;

fn bad_snap(_: wal::CodecError) -> VfsError {
    VfsError::Wal("truncated or malformed vfs snapshot".to_string())
}

/// The final path component; a typed error for `/`, which has no name and
/// can never be created, removed, copied onto, or renamed.
fn leaf_name(p: &VPath) -> Result<String, VfsError> {
    p.file_name()
        .map(str::to_string)
        .ok_or(VfsError::InvalidPath {
            path: "/".to_string(),
            reason: "the root directory has no name",
        })
}

fn encode_node(e: &mut Enc, node: &Node) {
    let m = node.meta();
    match node {
        Node::File { data, .. } => {
            e.u8(0)
                .str(&m.owner)
                .u8(encode_mode(m.mode))
                .u64(m.mtime)
                .bytes(data);
        }
        Node::Dir { children, .. } => {
            e.u8(1)
                .str(&m.owner)
                .u8(encode_mode(m.mode))
                .u64(m.mtime)
                .u32(children.len() as u32);
            for (name, child) in children {
                e.str(name);
                encode_node(e, child);
            }
        }
    }
}

fn decode_node(d: &mut Dec, depth: u32) -> Result<Node, wal::CodecError> {
    if depth > MAX_SNAP_DEPTH {
        return Err(wal::CodecError("vfs snapshot nests too deep"));
    }
    let tag = d.u8()?;
    let meta = Meta {
        owner: d.str()?,
        mode: decode_mode(d.u8()?),
        mtime: d.u64()?,
    };
    match tag {
        0 => Ok(Node::File {
            meta,
            data: d.bytes()?.to_vec(),
        }),
        1 => {
            let n = d.u32()?;
            let mut children = BTreeMap::new();
            for _ in 0..n {
                let name = d.str()?;
                children.insert(name, decode_node(d, depth + 1)?);
            }
            Ok(Node::Dir { meta, children })
        }
        _ => Err(wal::CodecError("bad node tag in vfs snapshot")),
    }
}

fn walk_inner(node: &Node, path: &str, out: &mut Vec<(String, Stat)>) {
    out.push((path.to_string(), node.stat()));
    if let Node::Dir { children, .. } = node {
        for (name, child) in children {
            let child_path = if path == "/" {
                format!("/{name}")
            } else {
                format!("{path}/{name}")
            };
            walk_inner(child, &child_path, out);
        }
    }
}

fn rebrand(node: &mut Node, owner: &str, mtime: u64) {
    let m = node.meta_mut();
    m.owner = owner.to_string();
    m.mtime = mtime;
    if let Node::Dir { children, .. } = node {
        for c in children.values_mut() {
            rebrand(c, owner, mtime);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with_alice() -> Vfs {
        let mut fs = Vfs::new();
        fs.add_user("alice", 10_000).unwrap();
        fs
    }

    #[test]
    fn new_fs_has_home() {
        let fs = Vfs::new();
        assert!(fs.exists("/home"));
        assert!(!fs.exists("/tmp"));
    }

    #[test]
    fn add_user_creates_private_home() {
        let fs = fs_with_alice();
        let st = fs.stat("root", "/home/alice").unwrap();
        assert_eq!(st.kind, EntryKind::Dir);
        assert_eq!(st.owner, "alice");
        assert!(!st.mode.world_read);
    }

    #[test]
    fn duplicate_user_rejected() {
        let mut fs = fs_with_alice();
        assert_eq!(
            fs.add_user("alice", 1),
            Err(VfsError::UserExists("alice".into()))
        );
        assert!(fs.add_user("bad/name", 1).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let mut fs = fs_with_alice();
        fs.write("alice", "/home/alice/a.txt", b"hello".to_vec())
            .unwrap();
        assert_eq!(fs.read("alice", "/home/alice/a.txt").unwrap(), b"hello");
        let (used, _) = fs.quota("alice").unwrap();
        assert_eq!(used, 5);
    }

    #[test]
    fn overwrite_adjusts_quota_by_delta() {
        let mut fs = fs_with_alice();
        fs.write("alice", "/home/alice/a", vec![0; 100]).unwrap();
        fs.write("alice", "/home/alice/a", vec![0; 40]).unwrap();
        assert_eq!(fs.quota("alice").unwrap().0, 40);
    }

    #[test]
    fn quota_enforced() {
        let mut fs = Vfs::new();
        fs.add_user("bob", 10).unwrap();
        assert!(fs.write("bob", "/home/bob/a", vec![0; 10]).is_ok());
        let err = fs.write("bob", "/home/bob/b", vec![0; 1]).unwrap_err();
        assert!(matches!(err, VfsError::QuotaExceeded { .. }));
        // Overwriting within budget still works (delta accounting).
        assert!(fs.write("bob", "/home/bob/a", vec![0; 5]).is_ok());
    }

    #[test]
    fn remove_refunds_quota() {
        let mut fs = fs_with_alice();
        fs.write("alice", "/home/alice/a", vec![0; 100]).unwrap();
        fs.remove("alice", "/home/alice/a").unwrap();
        assert_eq!(fs.quota("alice").unwrap().0, 0);
    }

    #[test]
    fn other_users_cannot_enter_private_home() {
        let mut fs = fs_with_alice();
        fs.add_user("bob", 1_000).unwrap();
        fs.write("alice", "/home/alice/secret", b"x".to_vec())
            .unwrap();
        assert!(matches!(
            fs.read("bob", "/home/alice/secret"),
            Err(VfsError::PermissionDenied { .. })
        ));
        assert!(matches!(
            fs.write("bob", "/home/alice/drop.txt", vec![]),
            Err(VfsError::PermissionDenied { .. })
        ));
        assert!(matches!(
            fs.list("bob", "/home/alice"),
            Err(VfsError::PermissionDenied { .. })
        ));
        // Root can.
        assert_eq!(fs.read("root", "/home/alice/secret").unwrap(), b"x");
    }

    #[test]
    fn chmod_shares_a_file() {
        let mut fs = fs_with_alice();
        fs.add_user("bob", 1_000).unwrap();
        fs.write("alice", "/home/alice/paper.txt", b"draft".to_vec())
            .unwrap();
        fs.chmod("alice", "/home/alice", Mode::default()).unwrap(); // world can traverse listing
        assert_eq!(fs.read("bob", "/home/alice/paper.txt").unwrap(), b"draft");
        assert!(matches!(
            fs.chmod("bob", "/home/alice/paper.txt", Mode::shared()),
            Err(VfsError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn mkdir_and_listing() {
        let mut fs = fs_with_alice();
        fs.mkdir("alice", "/home/alice/src").unwrap();
        fs.write("alice", "/home/alice/src/main.c", b"x".to_vec())
            .unwrap();
        fs.write("alice", "/home/alice/readme", b"y".to_vec())
            .unwrap();
        let names: Vec<_> = fs
            .list("alice", "/home/alice")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["readme", "src"]);
    }

    #[test]
    fn mkdir_p_creates_chain() {
        let mut fs = fs_with_alice();
        fs.mkdir_p("alice", "/home/alice/a/b/c").unwrap();
        assert!(fs.exists("/home/alice/a/b/c"));
        // Idempotent.
        fs.mkdir_p("alice", "/home/alice/a/b/c").unwrap();
    }

    #[test]
    fn remove_nonempty_dir_needs_recursive() {
        let mut fs = fs_with_alice();
        fs.mkdir("alice", "/home/alice/d").unwrap();
        fs.write("alice", "/home/alice/d/f", vec![0; 7]).unwrap();
        assert!(matches!(
            fs.remove("alice", "/home/alice/d"),
            Err(VfsError::DirectoryNotEmpty(_))
        ));
        fs.remove_recursive("alice", "/home/alice/d").unwrap();
        assert!(!fs.exists("/home/alice/d"));
        assert_eq!(fs.quota("alice").unwrap().0, 0);
    }

    #[test]
    fn rename_moves_subtree() {
        let mut fs = fs_with_alice();
        fs.mkdir("alice", "/home/alice/old").unwrap();
        fs.write("alice", "/home/alice/old/f", b"data".to_vec())
            .unwrap();
        fs.rename("alice", "/home/alice/old", "/home/alice/new")
            .unwrap();
        assert!(!fs.exists("/home/alice/old"));
        assert_eq!(fs.read("alice", "/home/alice/new/f").unwrap(), b"data");
        assert_eq!(fs.quota("alice").unwrap().0, 4);
    }

    #[test]
    fn rename_into_own_subtree_rejected() {
        let mut fs = fs_with_alice();
        fs.mkdir("alice", "/home/alice/d").unwrap();
        assert!(matches!(
            fs.rename("alice", "/home/alice/d", "/home/alice/d/inner"),
            Err(VfsError::MoveIntoSelf { .. })
        ));
    }

    #[test]
    fn rename_onto_existing_rejected() {
        let mut fs = fs_with_alice();
        fs.write("alice", "/home/alice/a", vec![]).unwrap();
        fs.write("alice", "/home/alice/b", vec![]).unwrap();
        assert!(matches!(
            fs.rename("alice", "/home/alice/a", "/home/alice/b"),
            Err(VfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn copy_file_charges_copier() {
        let mut fs = fs_with_alice();
        fs.add_user("bob", 1_000).unwrap();
        fs.write("alice", "/home/alice/pub.txt", vec![0; 50])
            .unwrap();
        fs.chmod("alice", "/home/alice", Mode::default()).unwrap();
        fs.copy("bob", "/home/alice/pub.txt", "/home/bob/mine.txt")
            .unwrap();
        assert_eq!(fs.quota("bob").unwrap().0, 50);
        assert_eq!(fs.quota("alice").unwrap().0, 50);
        assert_eq!(fs.stat("bob", "/home/bob/mine.txt").unwrap().owner, "bob");
    }

    #[test]
    fn copy_directory_recursive() {
        let mut fs = fs_with_alice();
        fs.mkdir("alice", "/home/alice/proj").unwrap();
        fs.write("alice", "/home/alice/proj/a", vec![1; 3]).unwrap();
        fs.mkdir("alice", "/home/alice/proj/sub").unwrap();
        fs.write("alice", "/home/alice/proj/sub/b", vec![2; 4])
            .unwrap();
        fs.copy("alice", "/home/alice/proj", "/home/alice/proj2")
            .unwrap();
        assert_eq!(
            fs.read("alice", "/home/alice/proj2/sub/b").unwrap(),
            vec![2; 4]
        );
        assert_eq!(fs.quota("alice").unwrap().0, 14);
    }

    #[test]
    fn copy_dir_into_itself_rejected() {
        let mut fs = fs_with_alice();
        fs.mkdir("alice", "/home/alice/d").unwrap();
        assert!(matches!(
            fs.copy("alice", "/home/alice/d", "/home/alice/d/copy"),
            Err(VfsError::MoveIntoSelf { .. })
        ));
    }

    #[test]
    fn append_extends_and_creates() {
        let mut fs = fs_with_alice();
        fs.append("alice", "/home/alice/log", b"one\n").unwrap();
        fs.append("alice", "/home/alice/log", b"two\n").unwrap();
        assert_eq!(fs.read("alice", "/home/alice/log").unwrap(), b"one\ntwo\n");
        assert_eq!(fs.quota("alice").unwrap().0, 8);
    }

    #[test]
    fn walk_lists_subtree() {
        let mut fs = fs_with_alice();
        fs.mkdir("alice", "/home/alice/x").unwrap();
        fs.write("alice", "/home/alice/x/f", vec![]).unwrap();
        let paths: Vec<_> = fs
            .walk("alice", "/home/alice")
            .unwrap()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(
            paths,
            vec!["/home/alice", "/home/alice/x", "/home/alice/x/f"]
        );
    }

    #[test]
    fn read_dir_as_file_errors() {
        let fs = fs_with_alice();
        assert!(matches!(
            fs.read("alice", "/home/alice"),
            Err(VfsError::IsADirectory(_))
        ));
        assert!(fs.list("root", "/home/alice/../..").is_ok());
    }

    #[test]
    fn path_through_file_is_not_a_directory() {
        let mut fs = fs_with_alice();
        fs.write("alice", "/home/alice/f", vec![]).unwrap();
        assert!(matches!(
            fs.read("alice", "/home/alice/f/deeper"),
            Err(VfsError::NotADirectory(_))
        ));
    }

    #[test]
    fn unknown_user_rejected_everywhere() {
        let mut fs = Vfs::new();
        assert!(matches!(
            fs.write("ghost", "/x", vec![]),
            Err(VfsError::NoSuchUser(_))
        ));
        assert!(matches!(
            fs.read("ghost", "/home"),
            Err(VfsError::NoSuchUser(_))
        ));
    }

    #[test]
    fn mtime_advances_on_modification() {
        let mut fs = fs_with_alice();
        fs.write("alice", "/home/alice/f", b"1".to_vec()).unwrap();
        let t1 = fs.stat("alice", "/home/alice/f").unwrap().mtime;
        fs.write("alice", "/home/alice/f", b"2".to_vec()).unwrap();
        let t2 = fs.stat("alice", "/home/alice/f").unwrap().mtime;
        assert!(t2 > t1);
    }

    #[test]
    fn root_path_mutations_return_typed_errors() {
        let mut fs = fs_with_alice();
        assert!(fs.remove("root", "/").is_err());
        assert!(fs.copy("root", "/home/alice", "/").is_err());
        assert!(fs.rename("root", "/home", "/").is_err());
        assert!(fs.mkdir("root", "/").is_err());
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let mut fs = fs_with_alice();
        fs.mkdir("alice", "/home/alice/src").unwrap();
        fs.write("alice", "/home/alice/src/a.c", b"int main(){}".to_vec())
            .unwrap();
        fs.chmod("alice", "/home/alice/src", Mode::shared())
            .unwrap();
        let snap = fs.snapshot_bytes();
        let restored = Vfs::from_snapshot(&snap).unwrap();
        assert_eq!(restored.snapshot_bytes(), snap);
        assert_eq!(restored.quota("alice").unwrap(), fs.quota("alice").unwrap());
    }

    #[test]
    fn corrupt_snapshot_bytes_rejected_not_panic() {
        assert!(matches!(Vfs::from_snapshot(&[]), Err(VfsError::Wal(_))));
        let mut snap = fs_with_alice().snapshot_bytes();
        snap.truncate(snap.len() / 2);
        assert!(matches!(Vfs::from_snapshot(&snap), Err(VfsError::Wal(_))));
    }

    /// A filesystem logging to a fresh in-memory journal.
    fn journaled() -> (Vfs, wal::MemStorage) {
        use std::sync::{Arc, Mutex};
        use wal::{FsyncPolicy, Journal, MemStorage, Stream};
        let storage = MemStorage::new();
        let (j, _) = Journal::open(Box::new(storage.clone()), FsyncPolicy::Always, 0).unwrap();
        let mut fs = Vfs::new();
        fs.attach_wal(Stream::new(Arc::new(Mutex::new(j)), 0));
        (fs, storage)
    }

    /// Replay every record the journal over `storage` recovered into a
    /// fresh filesystem.
    fn replayed(storage: wal::MemStorage) -> (Vfs, usize) {
        use wal::{FsyncPolicy, Journal};
        let (_, rec) = Journal::open(Box::new(storage), FsyncPolicy::Always, 0).unwrap();
        let mut fs = Vfs::new();
        for (_, _, payload) in &rec.records {
            fs.replay(payload).unwrap();
        }
        (fs, rec.records.len())
    }

    #[test]
    fn journaled_history_replays_to_identical_state() {
        let (mut fs, storage) = journaled();
        fs.add_user("alice", 10_000).unwrap();
        fs.add_user("bob", 1_000).unwrap();
        fs.mkdir("alice", "/home/alice/src").unwrap();
        fs.write("alice", "/home/alice/src/main.c", b"int main(){}".to_vec())
            .unwrap();
        fs.append("alice", "/home/alice/src/main.c", b"\n").unwrap();
        fs.chmod("alice", "/home/alice", Mode::default()).unwrap();
        fs.copy("bob", "/home/alice/src/main.c", "/home/bob/copy.c")
            .unwrap();
        fs.rename("alice", "/home/alice/src/main.c", "/home/alice/src/app.c")
            .unwrap();
        fs.mkdir_p("alice", "/home/alice/a/b/c").unwrap();
        fs.remove_recursive("alice", "/home/alice/a").unwrap();
        let want = fs.snapshot_bytes();
        drop(fs); // "crash"

        let (recovered, _) = replayed(storage);
        assert_eq!(recovered.snapshot_bytes(), want);
    }

    #[test]
    fn failed_operations_are_not_logged() {
        let (mut fs, storage) = journaled();
        fs.add_user("bob", 10).unwrap();
        fs.write("bob", "/home/bob/a", vec![0; 10]).unwrap();
        // Over quota: fails in memory, must leave no record behind.
        assert!(fs.write("bob", "/home/bob/b", vec![0; 1]).is_err());
        assert!(fs.read("bob", "/home/bob/missing").is_err());
        let want = fs.snapshot_bytes();
        drop(fs);

        let (recovered, records) = replayed(storage);
        assert_eq!(records, 2); // add_user + one successful write
        assert_eq!(recovered.snapshot_bytes(), want);
    }

    #[test]
    fn replay_rejects_a_garbled_record() {
        let mut fs = Vfs::new();
        assert!(matches!(fs.replay(&[0xff]), Err(VfsError::Wal(_))));
    }
}
