//! Domain values: interned constants and labelled nulls.
//!
//! The paper distinguishes ordinary domain elements (constants of the
//! instance / query) from *nulls*, the fresh elements introduced when the
//! chase fires a tuple-generating dependency with existentially quantified
//! head variables. Both are represented by the [`Value`] enum; nulls carry a
//! monotonically increasing [`NullId`] handed out by a [`ValueFactory`].

use std::fmt;

/// Identifier of an interned constant symbol (see [`crate::Interner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(u32);

impl ConstId {
    /// Builds a `ConstId` from a dense index.
    pub fn from_index(index: usize) -> Self {
        ConstId(u32::try_from(index).expect("more than u32::MAX constants interned"))
    }

    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a labelled null created during the chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullId(u64);

impl NullId {
    /// Builds a `NullId` from a raw counter value.
    pub fn from_raw(raw: u64) -> Self {
        NullId(raw)
    }

    /// The raw counter value backing this id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A domain value: either a named constant or a labelled null.
///
/// Ordering is defined (constants before nulls, then by id) so that tuples
/// of values can be sorted deterministically, which keeps chase runs and
/// benchmark workloads reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An interned constant symbol.
    Const(ConstId),
    /// A labelled null introduced by a chase step.
    Null(NullId),
}

impl Value {
    /// Whether the value is a constant.
    pub fn is_const(self) -> bool {
        matches!(self, Value::Const(_))
    }

    /// Whether the value is a labelled null.
    pub fn is_null(self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Returns the constant id if the value is a constant.
    pub fn as_const(self) -> Option<ConstId> {
        match self {
            Value::Const(c) => Some(c),
            Value::Null(_) => None,
        }
    }

    /// Returns the null id if the value is a null.
    pub fn as_null(self) -> Option<NullId> {
        match self {
            Value::Null(n) => Some(n),
            Value::Const(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "c{}", c.index()),
            Value::Null(n) => write!(f, "_n{}", n.raw()),
        }
    }
}

/// Factory for fresh values: owns the constant [`crate::Interner`] and the
/// null counter.
///
/// A single factory is shared by a whole reasoning task (query, constraints,
/// instances, chase) so that constant identity is global and nulls are never
/// reused. After [`ValueFactory::freeze`], clones share the frozen
/// constants and copy only what they intern themselves.
#[derive(Debug, Default, Clone)]
pub struct ValueFactory {
    interner: crate::Interner,
    next_null: u64,
}

impl ValueFactory {
    /// Creates a factory with no interned constants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a constant symbol and returns it as a [`Value`].
    pub fn constant(&mut self, name: &str) -> Value {
        Value::Const(self.interner.intern(name))
    }

    /// Returns the already-interned constant for `name`, if any.
    pub fn lookup_constant(&self, name: &str) -> Option<Value> {
        self.interner.get(name).map(Value::Const)
    }

    /// Creates a fresh labelled null, never equal to any previously created
    /// value.
    pub fn fresh_null(&mut self) -> Value {
        let id = NullId::from_raw(self.next_null);
        self.next_null += 1;
        Value::Null(id)
    }

    /// Number of nulls created so far.
    pub fn nulls_created(&self) -> u64 {
        self.next_null
    }

    /// Renders a value for human consumption (constants by their original
    /// string, nulls as `_nK`).
    pub fn display(&self, value: Value) -> String {
        match value {
            Value::Const(c) => self.interner.resolve(c).to_owned(),
            Value::Null(n) => format!("_n{}", n.raw()),
        }
    }

    /// Freezes the constants interned so far into the interner's shared
    /// base ([`crate::Interner::freeze`]); no id changes.
    pub fn freeze(&mut self) {
        self.interner.freeze();
    }

    /// Access to the underlying interner.
    pub fn interner(&self) -> &crate::Interner {
        &self.interner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_deduplicated() {
        let mut f = ValueFactory::new();
        let a = f.constant("alice");
        let b = f.constant("alice");
        assert_eq!(a, b);
        assert!(a.is_const());
    }

    #[test]
    fn nulls_are_always_fresh() {
        let mut f = ValueFactory::new();
        let n1 = f.fresh_null();
        let n2 = f.fresh_null();
        assert_ne!(n1, n2);
        assert!(n1.is_null());
        assert_eq!(f.nulls_created(), 2);
    }

    #[test]
    fn constants_and_nulls_never_collide() {
        let mut f = ValueFactory::new();
        let c = f.constant("x");
        let n = f.fresh_null();
        assert_ne!(c, n);
        assert!(c.as_const().is_some());
        assert!(c.as_null().is_none());
        assert!(n.as_null().is_some());
        assert!(n.as_const().is_none());
    }

    #[test]
    fn display_resolves_original_names() {
        let mut f = ValueFactory::new();
        let c = f.constant("12345");
        let n = f.fresh_null();
        assert_eq!(f.display(c), "12345");
        assert_eq!(f.display(n), "_n0");
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut f = ValueFactory::new();
        let c0 = f.constant("a");
        let c1 = f.constant("b");
        let n0 = f.fresh_null();
        let mut values = vec![n0, c1, c0];
        values.sort();
        assert_eq!(values, vec![c0, c1, n0]);
    }

    #[test]
    fn lookup_constant_does_not_intern() {
        let mut f = ValueFactory::new();
        assert!(f.lookup_constant("zzz").is_none());
        f.constant("zzz");
        assert!(f.lookup_constant("zzz").is_some());
    }
}
