//! Runtime values.
//!
//! The VM runs all green threads on one OS thread, but compiled programs
//! (and their constant pools) travel across OS threads — the portal stores
//! them and bench harnesses fan them out — so shared structures use
//! `Arc<Mutex<..>>`. Inside a VM run the locks are never contended. Handles
//! (thread, mutex, semaphore, channel ids) are carried as dedicated
//! variants to catch misuse (e.g. `lock()` on a number that is not a mutex).

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock an array's contents, recovering the guard if a panicking holder
/// poisoned the lock.
pub(crate) fn lock_array(a: &Mutex<Vec<Value>>) -> MutexGuard<'_, Vec<Value>> {
    a.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A minilang runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Immutable string.
    Str(Arc<String>),
    /// Mutable shared array.
    Array(Arc<Mutex<Vec<Value>>>),
    /// Thread handle returned by `spawn`.
    Thread(usize),
    /// Mutex handle returned by `mutex()`.
    Mutex(usize),
    /// Semaphore handle returned by `semaphore(n)`.
    Semaphore(usize),
    /// Channel handle returned by `channel(cap)`.
    Channel(usize),
    /// Condition-variable handle returned by `condvar()`.
    Cond(usize),
    /// The unit value (statements, functions without return).
    Unit,
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Arc::new(s.into()))
    }

    /// Build an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Arc::new(Mutex::new(items)))
    }

    /// Truthiness: `false`, `0`, and `unit` are falsy; everything else truthy.
    pub(crate) fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Unit => false,
            Value::Str(s) => !s.is_empty(),
            Value::Array(a) => !lock_array(a).is_empty(),
            Value::Thread(_)
            | Value::Mutex(_)
            | Value::Semaphore(_)
            | Value::Channel(_)
            | Value::Cond(_) => true,
        }
    }

    /// Type name for diagnostics.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Thread(_) => "thread",
            Value::Mutex(_) => "mutex",
            Value::Semaphore(_) => "semaphore",
            Value::Channel(_) => "channel",
            Value::Cond(_) => "condvar",
            Value::Unit => "unit",
        }
    }

    /// Structural equality (used by `==`). Arrays compare element-wise.
    pub(crate) fn eq_value(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Array(a), Value::Array(b)) => arrays_eq(a, b),
            (a, b) => scalars_eq(a, b),
        }
    }
}

/// `==` on anything but two arrays.
fn scalars_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Unit, Value::Unit) => true,
        (Value::Thread(a), Value::Thread(b)) => a == b,
        (Value::Mutex(a), Value::Mutex(b)) => a == b,
        (Value::Semaphore(a), Value::Semaphore(b)) => a == b,
        (Value::Channel(a), Value::Channel(b)) => a == b,
        (Value::Cond(a), Value::Cond(b)) => a == b,
        _ => false,
    }
}

/// An array's identity: the address of its shared contents.
fn array_id(a: &Arc<Mutex<Vec<Value>>>) -> usize {
    Arc::as_ptr(a) as usize
}

/// Element-wise `==` on two arrays, depth first. The walk keeps its own
/// stack and holds one array lock at a time, cloning the elements out
/// (the lock is not reentrant, and an array may contain itself); a pair
/// already being compared further up the path counts as equal, so cyclic
/// arrays compare in finite time.
fn arrays_eq(a: &Arc<Mutex<Vec<Value>>>, b: &Arc<Mutex<Vec<Value>>>) -> bool {
    struct Pair {
        ids: (usize, usize),
        left: Vec<Value>,
        right: Vec<Value>,
        next: usize,
    }
    let open = |a: &Arc<Mutex<Vec<Value>>>, b: &Arc<Mutex<Vec<Value>>>| {
        let left = lock_array(a).clone();
        let right = lock_array(b).clone();
        (left.len() == right.len()).then(|| Pair {
            ids: (array_id(a), array_id(b)),
            left,
            right,
            next: 0,
        })
    };
    if Arc::ptr_eq(a, b) {
        return true;
    }
    let Some(root) = open(a, b) else {
        return false;
    };
    let mut on_path = HashSet::from([root.ids]);
    let mut path = vec![root];
    while let Some(top) = path.last_mut() {
        let Some((x, y)) = top.left.get(top.next).zip(top.right.get(top.next)) else {
            on_path.remove(&top.ids);
            path.pop();
            continue;
        };
        top.next += 1;
        match (x, y) {
            (Value::Array(x), Value::Array(y)) => {
                if Arc::ptr_eq(x, y) || on_path.contains(&(array_id(x), array_id(y))) {
                    continue;
                }
                let Some(pair) = open(x, y) else {
                    return false;
                };
                on_path.insert(pair.ids);
                path.push(pair);
            }
            (x, y) => {
                if !scalars_eq(x, y) {
                    return false;
                }
            }
        }
    }
    true
}

impl PartialEq for Value {
    /// Structural equality, identical to `Value::eq_value`. Arrays compare
    /// element-wise (by reference first, as a fast path).
    fn eq(&self, other: &Self) -> bool {
        self.eq_value(other)
    }
}

impl fmt::Display for Value {
    /// Arrays print element by element with the walk `arrays_eq` uses:
    /// one lock at a time, elements cloned out. An array already being
    /// printed further up the path prints as `[...]`; an array that is
    /// merely shared prints in full each time.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Open {
            id: usize,
            items: Vec<Value>,
            next: usize,
        }
        let open = |a: &Arc<Mutex<Vec<Value>>>| Open {
            id: array_id(a),
            items: lock_array(a).clone(),
            next: 0,
        };
        let root = match self {
            Value::Array(a) => open(a),
            scalar => return fmt_scalar(scalar, f),
        };
        write!(f, "[")?;
        let mut on_path = HashSet::from([root.id]);
        let mut path = vec![root];
        while let Some(top) = path.last_mut() {
            let Some(item) = top.items.get(top.next) else {
                on_path.remove(&top.id);
                path.pop();
                write!(f, "]")?;
                continue;
            };
            if top.next > 0 {
                write!(f, ", ")?;
            }
            top.next += 1;
            match item {
                Value::Array(a) if on_path.contains(&array_id(a)) => write!(f, "[...]")?,
                Value::Array(a) => {
                    let inner = open(a);
                    on_path.insert(inner.id);
                    path.push(inner);
                    write!(f, "[")?;
                }
                scalar => fmt_scalar(scalar, f)?,
            }
        }
        Ok(())
    }
}

/// Print anything but an array.
fn fmt_scalar(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Value::Int(v) => write!(f, "{v}"),
        Value::Bool(b) => write!(f, "{b}"),
        Value::Str(s) => write!(f, "{s}"),
        Value::Array(_) => unreachable!("arrays print through `Display`"),
        Value::Thread(t) => write!(f, "<thread {t}>"),
        Value::Mutex(m) => write!(f, "<mutex {m}>"),
        Value::Semaphore(s) => write!(f, "<semaphore {s}>"),
        Value::Channel(c) => write!(f, "<channel {c}>"),
        Value::Cond(c) => write!(f, "<condvar {c}>"),
        Value::Unit => write!(f, "()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Unit.truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::array(vec![]).truthy());
        assert!(Value::Thread(0).truthy());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(
            Value::array(vec![Value::Int(1), Value::str("a")]).to_string(),
            "[1, a]"
        );
        assert_eq!(Value::Unit.to_string(), "()");
    }

    #[test]
    fn equality_structural_and_by_ref() {
        let a = Value::array(vec![Value::Int(1)]);
        let b = Value::array(vec![Value::Int(1)]);
        assert!(a.eq_value(&b));
        assert!(a.eq_value(&a.clone()));
        assert!(!Value::Int(1).eq_value(&Value::Bool(true)));
        assert!(!Value::Mutex(0).eq_value(&Value::Semaphore(0)));
    }

    #[test]
    fn array_shared_mutation_visible() {
        let a = Value::array(vec![Value::Int(1)]);
        let b = a.clone();
        if let Value::Array(arr) = &a {
            lock_array(arr).push(Value::Int(2));
        }
        if let Value::Array(arr) = &b {
            assert_eq!(lock_array(arr).len(), 2);
        }
    }
}
