//! The Aggregated Wait Graph (Definitions 2 and 3).

use std::fmt;
use tracelens_model::{StackTable, Symbol, ThreadId, TimeNs, TraceId};

/// Identity of a scenario instance that contributed to an aggregated
/// node: its trace and initiating thread.
pub type InstanceTag = (TraceId, ThreadId);

/// How many example instances each aggregated node retains.
pub const MAX_EXAMPLES: usize = 3;

/// Handle to a node within an [`AggregatedWaitGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AwgId(pub u32);

impl fmt::Debug for AwgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The signature key of an aggregated node: two Wait-Graph nodes merge
/// into the same aggregated node exactly when their keys — and their
/// ancestors' key sequences — are equal (common-signature-prefix merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AwgKey {
    /// A waiting node: merged wait/unwait pair with wait signature `w`
    /// and unwait signature `u` (`None` when the unwait was unobserved).
    Waiting {
        /// Wait signature (`v.w`).
        w: Symbol,
        /// Paired unwait signature (`v.u`).
        u: Option<Symbol>,
    },
    /// A running node with signature `v.r`.
    Running {
        /// Running signature.
        r: Symbol,
    },
    /// A hardware-service node with dummy signature `v.h`.
    Hardware {
        /// Hardware dummy signature.
        h: Symbol,
    },
}

impl AwgKey {
    /// Whether this is a waiting node key.
    pub fn is_waiting(&self) -> bool {
        matches!(self, AwgKey::Waiting { .. })
    }

    /// Whether this is a hardware node key.
    pub fn is_hardware(&self) -> bool {
        matches!(self, AwgKey::Hardware { .. })
    }
}

/// One aggregated node (Definition 3): a signature key plus the
/// performance metric `v.C` (total duration), occurrence counter `v.N`,
/// and — an extension used by the high-impact rule of §5.2.1 — the
/// maximum single-execution duration `v.Cmax`.
#[derive(Debug, Clone)]
pub struct AwgNode {
    /// Signature key.
    pub key: AwgKey,
    /// Parent node (`None` for roots).
    pub parent: Option<AwgId>,
    /// Child nodes.
    pub children: Vec<AwgId>,
    /// Total duration over all merged source nodes (`v.C`).
    pub c: TimeNs,
    /// Number of merged source nodes (`v.N`).
    pub n: u64,
    /// Maximum single source-node duration.
    pub c_max: TimeNs,
    /// Up to [`MAX_EXAMPLES`] example instances that contributed to this
    /// node — direct pointers for drill-down.
    pub examples: Vec<InstanceTag>,
}

impl AwgNode {
    /// Average duration per occurrence, `v.C / v.N`.
    pub fn avg(&self) -> TimeNs {
        if self.n == 0 {
            TimeNs::ZERO
        } else {
            self.c / self.n
        }
    }

    /// Whether the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An Aggregated Wait Graph: a forest (trie keyed by [`AwgKey`]) whose
/// inner nodes are waiting nodes and whose leaves are running or
/// hardware nodes (Definition 2). Built by [`crate::Aggregator`].
#[derive(Debug, Clone, Default)]
pub struct AggregatedWaitGraph {
    pub(crate) nodes: Vec<AwgNode>,
    pub(crate) roots: Vec<AwgId>,
    pub(crate) reduced_time: TimeNs,
    pub(crate) source_graphs: usize,
}

impl AggregatedWaitGraph {
    /// Root node ids.
    pub fn roots(&self) -> &[AwgId] {
        &self.roots
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: AwgId) -> &AwgNode {
        &self.nodes[id.0 as usize]
    }

    /// All live node ids, in pre-order from the roots.
    pub fn preorder(&self) -> Vec<AwgId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<AwgId> = self.roots.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.node(id).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Number of live (reachable) nodes.
    pub fn node_count(&self) -> usize {
        self.preorder().len()
    }

    /// Whether the graph has no roots.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Number of Wait Graphs aggregated into this AWG.
    pub fn source_graphs(&self) -> usize {
        self.source_graphs
    }

    /// Total duration pruned by the non-optimizable reduction (the direct
    /// wait→hardware roots; the paper's §5.2.2 reports 66.6 % of
    /// BrowserTabSwitch driver cost removed this way).
    pub fn reduced_time(&self) -> TimeNs {
        self.reduced_time
    }

    /// Total duration of the current roots — the scope the mined patterns
    /// can cover (post-reduction).
    pub fn total_root_time(&self) -> TimeNs {
        self.roots.iter().map(|&r| self.node(r).c).sum()
    }

    /// The key sequence from the root down to `id` (inclusive).
    pub fn path_to(&self, id: AwgId) -> Vec<AwgId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Renders the graph in Graphviz DOT syntax: waiting nodes as
    /// ellipses (`w → u`), running nodes as boxes, hardware nodes as
    /// hexagons, each annotated with `C` and `N`.
    pub fn to_dot(&self, stacks: &StackTable) -> String {
        use std::fmt::Write as _;
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let resolve = |s: Symbol| stacks.symbols().resolve(s).unwrap_or("?").to_owned();
        let mut out = String::from("digraph awg {\n  rankdir=TB;\n  node [fontsize=10];\n");
        for id in self.preorder() {
            let node = self.node(id);
            let (label, shape) = match node.key {
                AwgKey::Waiting { w, u } => (
                    format!(
                        "{} →\\n{}",
                        esc(&resolve(w)),
                        u.map(|u| esc(&resolve(u)))
                            .unwrap_or_else(|| "<unpaired>".to_owned())
                    ),
                    "ellipse",
                ),
                AwgKey::Running { r } => (esc(&resolve(r)), "box"),
                AwgKey::Hardware { h } => (esc(&resolve(h)), "hexagon"),
            };
            let _ = writeln!(
                out,
                "  a{} [label=\"{}\\nC={} N={}\",shape={}];",
                id.0, label, node.c, node.n, shape
            );
            for &c in &node.children {
                let _ = writeln!(out, "  a{} -> a{};", id.0, c.0);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders a human-readable outline of the graph (for examples and
    /// the Figure-2 reproduction): one line per node, indented by depth,
    /// showing the key signatures, total cost, and occurrence count.
    pub fn render(&self, stacks: &StackTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut stack: Vec<(usize, AwgId)> = self.roots.iter().rev().map(|&r| (0, r)).collect();
        while let Some((depth, id)) = stack.pop() {
            let node = self.node(id);
            let resolve = |s: Symbol| stacks.symbols().resolve(s).unwrap_or("?").to_owned();
            let label = match node.key {
                AwgKey::Waiting { w, u } => format!(
                    "wait {} -> {}",
                    resolve(w),
                    u.map(resolve).unwrap_or_else(|| "<unpaired>".to_owned())
                ),
                AwgKey::Running { r } => format!("run  {}", resolve(r)),
                AwgKey::Hardware { h } => format!("hw   {}", resolve(h)),
            };
            let _ = writeln!(
                out,
                "{}{} [C={} N={}]",
                "  ".repeat(depth),
                label,
                node.c,
                node.n
            );
            for &c in node.children.iter().rev() {
                stack.push((depth + 1, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(key: AwgKey, parent: Option<AwgId>, c: u64, n: u64) -> AwgNode {
        AwgNode {
            key,
            parent,
            children: Vec::new(),
            c: TimeNs(c),
            n,
            c_max: TimeNs(c),
            examples: Vec::new(),
        }
    }

    #[test]
    fn path_and_preorder() {
        let mut g = AggregatedWaitGraph::default();
        let w = AwgKey::Waiting {
            w: Symbol(0),
            u: Some(Symbol(1)),
        };
        let r = AwgKey::Running { r: Symbol(2) };
        g.nodes.push(node(w, None, 100, 2)); // a0
        g.nodes.push(node(r, Some(AwgId(0)), 40, 2)); // a1
        g.nodes[0].children.push(AwgId(1));
        g.roots.push(AwgId(0));
        assert_eq!(g.preorder(), vec![AwgId(0), AwgId(1)]);
        assert_eq!(g.path_to(AwgId(1)), vec![AwgId(0), AwgId(1)]);
        assert_eq!(g.node(AwgId(0)).avg(), TimeNs(50));
        assert!(g.node(AwgId(1)).is_leaf());
        assert_eq!(g.total_root_time(), TimeNs(100));
        assert_eq!(g.node_count(), 2);
        assert!(!g.is_empty());
        assert!(w.is_waiting() && !w.is_hardware());
    }

    #[test]
    fn avg_of_zero_occurrences_is_zero() {
        let n = node(AwgKey::Running { r: Symbol(0) }, None, 10, 0);
        assert_eq!(n.avg(), TimeNs::ZERO);
    }

    #[test]
    fn dot_export_is_wellformed() {
        let mut stacks = tracelens_model::StackTable::new();
        let w = stacks.intern_frame("fv.sys!QueryFileTable");
        let u = stacks.intern_frame("fs.sys!AcquireMDU");
        let r = stacks.intern_frame("se.sys!ReadDecrypt");
        let mut g = AggregatedWaitGraph::default();
        g.nodes
            .push(node(AwgKey::Waiting { w, u: Some(u) }, None, 100, 2));
        g.nodes
            .push(node(AwgKey::Running { r }, Some(AwgId(0)), 40, 2));
        g.nodes[0].children.push(AwgId(1));
        g.roots.push(AwgId(0));
        let dot = g.to_dot(&stacks);
        assert!(dot.starts_with("digraph awg {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("fv.sys!QueryFileTable"));
        assert!(dot.contains("se.sys!ReadDecrypt"));
        assert!(dot.contains("a0 -> a1;"));
        assert!(dot.contains("N=2"));
    }
}
