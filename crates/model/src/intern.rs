//! A small string interner.
//!
//! Callstacks repeat the same function names millions of times across a
//! data set; the analyses compare signatures constantly. Interning turns
//! every comparison into a `u32` compare and every set of signatures into
//! a set of integers.

use std::collections::HashMap;
use std::fmt;

/// An interned string handle. Cheap to copy, compare, and hash.
///
/// Symbols are only meaningful relative to the [`Interner`] (or
/// [`crate::StackTable`]) that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Deduplicating store of strings.
///
/// ```
/// use tracelens_model::Interner;
/// let mut i = Interner::new();
/// let a = i.intern("fs.sys!AcquireMDU");
/// let b = i.intern("fs.sys!AcquireMDU");
/// assert_eq!(a, b);
/// assert_eq!(i.resolve(a), Some("fs.sys!AcquireMDU"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    strings: Vec<String>,
    index: HashMap<String, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing symbol if already present.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.index.get(s) {
            return sym;
        }
        let sym = Symbol(self.strings.len() as u32);
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), sym);
        sym
    }

    /// Looks up a string without interning it.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.index.get(s).copied()
    }

    /// Resolves a symbol back to its string; `None` for a symbol this
    /// interner did not produce.
    pub fn resolve(&self, sym: Symbol) -> Option<&str> {
        self.strings.get(sym.0 as usize).map(String::as_str)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over all `(Symbol, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), s.as_str()))
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
        let c = i.intern("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let a = i.intern("fv.sys!QueryFileTable");
        assert_eq!(i.resolve(a), Some("fv.sys!QueryFileTable"));
        assert_eq!(i.lookup("fv.sys!QueryFileTable"), Some(a));
        assert_eq!(i.lookup("missing"), None);
    }

    #[test]
    fn try_resolve_reports_foreign_symbols() {
        let mut i = Interner::new();
        i.intern("a");
        assert_eq!(i.resolve(Symbol(9)), None);
        assert_eq!(format!("{:?}", Symbol(9)), "sym#9");
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let all: Vec<_> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(all, ["a", "b"]);
        assert!(!i.is_empty());
    }
}
