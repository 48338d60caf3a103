//! Interned callstacks.
//!
//! Every tracing event carries a callstack (`e.S` in the paper). Stacks
//! repeat heavily within and across traces, so they are deduplicated in a
//! [`StackTable`]: a stack becomes a [`StackId`], each frame a
//! [`Symbol`] over its `module!function` signature text.
//!
//! Frame order convention: **index 0 is the outermost caller** (stack
//! bottom, e.g. the thread entry point) and the **last index is the
//! innermost frame** (the function executing when the event fired).

use crate::component::ComponentFilter;
use crate::intern::{Interner, Symbol};
use crate::signature::Signature;
use std::collections::HashMap;
use std::fmt;

/// Handle to an interned callstack in a [`StackTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StackId(pub u32);

impl fmt::Debug for StackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stack#{}", self.0)
    }
}

/// Deduplicating store of callstacks and their frame signatures.
///
/// ```
/// use tracelens_model::{ComponentFilter, StackTable};
/// let mut t = StackTable::new();
/// let id = t.intern_symbols(&["kernel!OpenFile", "fv.sys!QueryFileTable", "kernel!AcquireLock"]);
/// let drivers = ComponentFilter::suffix(".sys");
/// let top = t.top_component_symbol(id, &drivers).expect("a driver frame");
/// assert_eq!(t.symbols().resolve(top), Some("fv.sys!QueryFileTable"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct StackTable {
    symbols: Interner,
    stacks: Vec<Vec<Symbol>>,
    /// Frame-hash → candidate stack ids. Keying by hash instead of by
    /// an owned `Vec<Symbol>` means interning a new stack materializes
    /// its frame vector exactly once (in `stacks`); hash collisions
    /// resolve by comparing candidates against the stored vectors.
    index: HashMap<u64, Vec<StackId>>,
}

/// FNV-1a over the little-endian frame-symbol ids.
fn hash_frames(frames: &[Symbol]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for s in frames {
        for b in s.0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

impl StackTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a stack given as frame symbols (outermost first).
    ///
    /// A hit allocates nothing; a miss copies `frames` exactly once.
    pub fn intern(&mut self, frames: &[Symbol]) -> StackId {
        let candidates = self.index.entry(hash_frames(frames)).or_default();
        if let Some(&id) = candidates
            .iter()
            .find(|&&id| self.stacks[id.0 as usize].as_slice() == frames)
        {
            return id;
        }
        let id = StackId(self.stacks.len() as u32);
        self.stacks.push(frames.to_vec());
        candidates.push(id);
        id
    }

    /// Interns a stack given as raw signature strings (outermost first),
    /// interning each frame string along the way.
    pub fn intern_symbols(&mut self, frames: &[&str]) -> StackId {
        let syms: Vec<Symbol> = frames.iter().map(|f| self.symbols.intern(f)).collect();
        self.intern(&syms)
    }

    /// Interns a single frame string, without creating a stack.
    pub fn intern_frame(&mut self, frame: &str) -> Symbol {
        self.symbols.intern(frame)
    }

    /// The frames of `id`, outermost first. Empty slice for unknown ids.
    pub fn frames(&self, id: StackId) -> &[Symbol] {
        self.stacks
            .get(id.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The frame-symbol interner (for resolving [`Symbol`]s to text).
    pub fn symbols(&self) -> &Interner {
        &self.symbols
    }

    /// Resolves all frames of `id` to text, outermost first.
    pub fn resolve_frames(&self, id: StackId) -> Vec<&str> {
        self.frames(id)
            .iter()
            .filter_map(|&s| self.symbols.resolve(s))
            .collect()
    }

    /// The innermost ("topmost") frame of `id` whose module matches
    /// `filter` — the paper's *signature of an event with respect to the
    /// chosen components*. `None` if no frame matches.
    pub fn top_component_symbol(&self, id: StackId, filter: &ComponentFilter) -> Option<Symbol> {
        self.frames(id)
            .iter()
            .rev()
            .find(|&&sym| self.symbol_matches(sym, filter))
            .copied()
    }

    /// Whether any frame of `id` matches `filter`.
    pub fn contains_component(&self, id: StackId, filter: &ComponentFilter) -> bool {
        self.frames(id)
            .iter()
            .any(|&sym| self.symbol_matches(sym, filter))
    }

    /// Whether a single frame symbol's module matches `filter`.
    pub fn symbol_matches(&self, sym: Symbol, filter: &ComponentFilter) -> bool {
        self.symbols
            .resolve(sym)
            .and_then(Signature::module_of)
            .is_some_and(|m| filter.matches(m))
    }

    /// Number of distinct stacks interned.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// Whether no stacks have been interned.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Precomputes the per-stack answers of [`Self::top_component_symbol`]
    /// and [`Self::contains_component`] for one filter.
    ///
    /// The glob/name matching runs once per distinct *frame symbol* (and
    /// once per distinct stack to fold frames), after which every hot-path
    /// query is an array index. Build one view per analysis pass; the view
    /// is immutable and snapshot-consistent with the table at build time.
    pub fn filter_view(&self, filter: &ComponentFilter) -> FilterView {
        let mut symbol_matches = vec![false; self.symbols.len()];
        for (sym, _) in self.symbols.iter() {
            symbol_matches[sym.0 as usize] = self.symbol_matches(sym, filter);
        }
        let mut top = Vec::with_capacity(self.stacks.len());
        let mut contains = Vec::with_capacity(self.stacks.len());
        for frames in &self.stacks {
            let t = frames
                .iter()
                .rev()
                .find(|&&sym| symbol_matches[sym.0 as usize])
                .copied();
            top.push(t);
            contains.push(t.is_some());
        }
        FilterView { top, contains }
    }
}

/// Precomputed filter-match cache over the stacks of one [`StackTable`].
///
/// Answers the two questions the analysis hot paths ask about every wait
/// node — "which is the innermost matching frame?" and "does any frame
/// match?" — in O(1), replacing per-node string resolution and glob
/// matching. Produced by [`StackTable::filter_view`]; only valid for
/// [`StackId`]s from the table it was built from (stacks interned after
/// the view was built fall back to the miss answers `None`/`false`).
#[derive(Debug, Clone)]
pub struct FilterView {
    top: Vec<Option<Symbol>>,
    contains: Vec<bool>,
}

impl FilterView {
    /// The innermost frame of `id` matching the view's filter — the
    /// cached answer of [`StackTable::top_component_symbol`].
    pub fn top_component_symbol(&self, id: StackId) -> Option<Symbol> {
        self.top.get(id.0 as usize).copied().flatten()
    }

    /// Whether any frame of `id` matches the view's filter — the cached
    /// answer of [`StackTable::contains_component`].
    pub fn contains_component(&self, id: StackId) -> bool {
        self.contains.get(id.0 as usize).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> StackTable {
        StackTable::new()
    }

    #[test]
    fn intern_deduplicates() {
        let mut t = table();
        let a = t.intern_symbols(&["kernel!A", "fs.sys!B"]);
        let b = t.intern_symbols(&["kernel!A", "fs.sys!B"]);
        let c = t.intern_symbols(&["kernel!A"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn intern_bucket_index_stays_consistent_at_scale() {
        let mut t = table();
        let mut ids = Vec::new();
        for i in 0..500 {
            let frames = [
                t.intern_frame(&format!("m{}!f", i % 7)),
                t.intern_frame(&format!("m!f{i}")),
            ];
            ids.push(t.intern(&frames));
        }
        assert_eq!(t.len(), 500);
        // Every stack re-interns to its original id.
        for (i, &id) in ids.iter().enumerate() {
            let frames = [
                t.intern_frame(&format!("m{}!f", i % 7)),
                t.intern_frame(&format!("m!f{i}")),
            ];
            assert_eq!(t.intern(&frames), id);
        }
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn frames_resolve_in_order() {
        let mut t = table();
        let id = t.intern_symbols(&["kernel!A", "fs.sys!B"]);
        assert_eq!(t.resolve_frames(id), ["kernel!A", "fs.sys!B"]);
    }

    #[test]
    fn unknown_stack_is_empty() {
        let t = table();
        assert!(t.frames(StackId(99)).is_empty());
    }

    #[test]
    fn top_component_symbol_prefers_innermost() {
        let mut t = table();
        let id = t.intern_symbols(&[
            "app!Main",
            "fv.sys!QueryFileTable",
            "kernel!CallDriver",
            "fs.sys!AcquireMDU",
        ]);
        let f = ComponentFilter::suffix(".sys");
        let top = t.top_component_symbol(id, &f).unwrap();
        assert_eq!(t.symbols().resolve(top), Some("fs.sys!AcquireMDU"));
    }

    #[test]
    fn component_containment() {
        let mut t = table();
        let with = t.intern_symbols(&["app!Main", "net.sys!Send"]);
        let without = t.intern_symbols(&["app!Main", "kernel!Sleep"]);
        let f = ComponentFilter::suffix(".sys");
        assert!(t.contains_component(with, &f));
        assert!(!t.contains_component(without, &f));
    }

    #[test]
    fn empty_stack_has_no_component() {
        let mut t = table();
        let id = t.intern(&[]);
        let f = ComponentFilter::suffix(".sys");
        assert_eq!(t.top_component_symbol(id, &f), None);
    }

    #[test]
    fn filter_view_agrees_with_direct_queries() {
        let mut t = table();
        let ids = [
            t.intern_symbols(&["app!Main", "fv.sys!Query", "kernel!Call", "fs.sys!Acquire"]),
            t.intern_symbols(&["app!Main", "kernel!Sleep"]),
            t.intern(&[]),
            t.intern_symbols(&["net.sys!Send"]),
        ];
        let f = ComponentFilter::suffix(".sys");
        let view = t.filter_view(&f);
        for id in ids {
            assert_eq!(
                view.top_component_symbol(id),
                t.top_component_symbol(id, &f)
            );
            assert_eq!(view.contains_component(id), t.contains_component(id, &f));
        }
        // Ids beyond the snapshot answer as misses.
        assert_eq!(view.top_component_symbol(StackId(999)), None);
        assert!(!view.contains_component(StackId(999)));
    }
}
