//! String interning for constant symbols.
//!
//! Constants in queries, constraints and instances are strings (`"12345"`,
//! `"alice"`, ...). Interning maps each distinct string to a dense `u32`
//! identifier so that equality checks, hashing and joins operate on machine
//! words. The interner is append-only: identifiers are never invalidated.
//!
//! An interner has two layers. The *base* is frozen and shared behind an
//! `Arc`; the *local* layer is private to one interner and receives every
//! newly interned string. Base ids come first and local ids continue after
//! them, so [`Interner::freeze`] (which moves the local layer into the
//! base) changes no id. Cloning copies only the local layer: a catalog's
//! constants are frozen once at registration, and every request factory
//! derived from it is a cheap overlay.

use std::hash::BuildHasher;
use std::sync::Arc;

use rustc_hash::{FxBuildHasher, FxHashMap};

use crate::value::ConstId;

/// Hash of a name, used as the id-keyed lookup key.
fn name_hash(name: &str) -> u64 {
    FxBuildHasher::default().hash_one(name)
}

/// One layer of an [`Interner`]: its strings plus the hash-keyed lookup.
///
/// Ids are global: the string of id `i` is `names[i - offset]`, where
/// `offset` is the number of ids in the layers below.
#[derive(Debug, Default, Clone)]
struct Layer {
    names: Vec<String>,
    lookup: FxHashMap<u64, Vec<ConstId>>,
}

impl Layer {
    fn find(&self, hash: u64, name: &str, offset: usize) -> Option<ConstId> {
        self.lookup
            .get(&hash)?
            .iter()
            .copied()
            .find(|id| self.names[id.index() - offset] == name)
    }
}

/// Append-only string interner producing [`ConstId`]s.
///
/// Each distinct string is stored exactly once; the lookup maps the
/// string's hash to the ids carrying it (a collision bucket compared
/// against the stored names), so interning a new string costs a single
/// allocation instead of one for the storage and one for a string-keyed
/// map. See the module docs for the frozen base / local layer split.
///
/// ```
/// use rbqa_common::Interner;
/// let mut interner = Interner::new();
/// let a = interner.intern("alice");
/// let b = interner.intern("bob");
/// assert_ne!(a, b);
/// assert_eq!(a, interner.intern("alice"));
/// assert_eq!(interner.resolve(a), "alice");
///
/// // Freezing keeps every id; clones then share the frozen strings.
/// interner.freeze();
/// let mut overlay = interner.clone();
/// overlay.intern("carol");
/// assert_eq!(overlay.resolve(a), "alice");
/// assert_eq!(overlay.len(), 3);
/// assert!(interner.get("carol").is_none());
/// assert!(std::ptr::eq(interner.resolve(b), overlay.resolve(b)));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    base: Arc<Layer>,
    local: Layer,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing id when the string was seen
    /// before and a fresh id otherwise.
    pub fn intern(&mut self, name: &str) -> ConstId {
        let hash = name_hash(name);
        if let Some(id) = self.find(hash, name) {
            return id;
        }
        let id = ConstId::from_index(self.len());
        self.local.names.push(name.to_owned());
        self.local.lookup.entry(hash).or_default().push(id);
        id
    }

    /// Returns the id of `name` if it has already been interned.
    pub fn get(&self, name: &str) -> Option<ConstId> {
        self.find(name_hash(name), name)
    }

    fn find(&self, hash: u64, name: &str) -> Option<ConstId> {
        self.base
            .find(hash, name, 0)
            .or_else(|| self.local.find(hash, name, self.base.names.len()))
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: ConstId) -> &str {
        let offset = self.base.names.len();
        match id.index().checked_sub(offset) {
            None => &self.base.names[id.index()],
            Some(local) => &self.local.names[local],
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.base.names.len() + self.local.names.len()
    }

    /// Whether no strings have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (ConstId, &str)> {
        self.base
            .names
            .iter()
            .chain(&self.local.names)
            .enumerate()
            .map(|(i, s)| (ConstId::from_index(i), s.as_str()))
    }

    /// Moves the local layer into the shared base, keeping every id.
    ///
    /// Afterwards clones of this interner share all its strings and copy
    /// nothing but what they intern themselves. The base is copied only
    /// if another interner still shares it, and then only once.
    pub fn freeze(&mut self) {
        if self.local.names.is_empty() {
            return;
        }
        let local = std::mem::take(&mut self.local);
        let base = Arc::make_mut(&mut self.base);
        base.names.extend(local.names);
        for (hash, ids) in local.lookup {
            base.lookup.entry(hash).or_default().extend(ids);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("x");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let mut i = Interner::new();
        let ids: Vec<_> = (0..100).map(|k| i.intern(&format!("c{k}"))).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert_eq!(i.len(), 100);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        for k in 0..50 {
            let name = format!("v{k}");
            let id = i.intern(&name);
            assert_eq!(i.resolve(id), name);
        }
    }

    #[test]
    fn get_returns_none_for_unseen() {
        let mut i = Interner::new();
        i.intern("a");
        assert!(i.get("b").is_none());
        assert!(i.get("a").is_some());
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        i.intern("first");
        i.intern("second");
        let names: Vec<_> = i.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
