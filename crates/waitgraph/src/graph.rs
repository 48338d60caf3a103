//! The Wait Graph structure (Definition 1).

use std::fmt;
use tracelens_model::{EventId, StackId, ThreadId, TimeNs, TraceId};

/// Handle to a node within a [`WaitGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a Wait-Graph node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A running (CPU sample) event.
    Running,
    /// A wait event, already paired with its unwait event: `unwait_*`
    /// describe the signalling side, used later when the Aggregated Wait
    /// Graph merges the pair into a single waiting node.
    Wait {
        /// The paired unwait event in the source stream.
        unwait: EventId,
        /// Callstack of the unwait event.
        unwait_stack: StackId,
        /// Thread that signalled.
        unwait_tid: ThreadId,
    },
    /// A wait event whose unwait was never observed (truncated trace);
    /// its duration is clipped to the instance end.
    UnpairedWait,
    /// A hardware-service event.
    Hardware,
}

impl NodeKind {
    /// Whether this node is a (paired or unpaired) wait.
    pub fn is_wait(&self) -> bool {
        matches!(self, NodeKind::Wait { .. } | NodeKind::UnpairedWait)
    }
}

/// One node: a tracing event, or in a [`StreamGraph`] a run of
/// consecutive running siblings with one stack. Its propagation children
/// are read through the graph that holds it ([`GraphView::children_of`]).
#[derive(Debug, Clone)]
pub struct Node {
    /// The source event's id within its trace stream (a run's first
    /// sample).
    pub event: EventId,
    /// Kind and pairing information.
    pub kind: NodeKind,
    /// Thread that emitted the event.
    pub tid: ThreadId,
    /// Event callstack.
    pub stack: StackId,
    /// Event start time (a run's first sample's).
    pub t: TimeNs,
    /// Event duration; for wait nodes this is the *restored* duration
    /// (unwait timestamp minus wait timestamp), for a run of samples the
    /// sum of their costs.
    pub duration: TimeNs,
    /// The events the node stands for: a run's samples in a
    /// [`StreamGraph`]; 1 on every other node, and on every node of a
    /// [`WaitGraph`].
    pub samples: u32,
    /// Where the children sit in the arena's edge array.
    pub(crate) children: Edges,
}

/// A node's children: `edges[start..end]` of the arena that holds it.
/// Children are the nodes whose operations execute within the node's
/// wait interval (only wait nodes have children).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Edges {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Edges {
    /// This node's children in the arena edge array `edges`.
    #[inline]
    fn of(self, edges: &[NodeId]) -> &[NodeId] {
        &edges[self.start as usize..self.end as usize]
    }
}

/// A Wait Graph for a single scenario instance (Definition 1), built on
/// its own by [`WaitGraph::build`].
///
/// Nodes form a forest: roots are the top-level events of the initiating
/// thread within the instance window; every edge starts at a wait node.
/// The same source *event* may back multiple nodes (two waits can be
/// signalled through the same thread), which is how cost propagation
/// across instances manifests. A [`StreamGraph`] builds the graphs of
/// all of a stream's instances at once and shares such subtrees; both
/// are read through a [`GraphView`].
#[derive(Debug, Clone)]
pub struct WaitGraph {
    trace: TraceId,
    nodes: Vec<Node>,
    /// Every node's children, one node's after another.
    edges: Vec<NodeId>,
    roots: Vec<NodeId>,
}

impl WaitGraph {
    pub(crate) fn from_parts(
        trace: TraceId,
        nodes: Vec<Node>,
        edges: Vec<NodeId>,
        roots: Vec<NodeId>,
    ) -> Self {
        WaitGraph {
            trace,
            nodes,
            edges,
            roots,
        }
    }

    /// The trace stream this graph was built from.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Root node ids (top-level events of the initiating thread).
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The children of node `id`: nodes whose operations execute within
    /// its wait interval (only wait nodes have children).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.node(id).children.of(&self.edges)
    }

    /// All nodes in creation order (parents before their children).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The graph as a [`GraphView`], the form accounting and aggregation
    /// read.
    pub fn view(&self) -> GraphView<'_> {
        GraphView {
            nodes: &self.nodes,
            edges: &self.edges,
            roots: &self.roots,
        }
    }

    /// Iterates nodes in depth-first pre-order from the roots, yielding
    /// `(depth, NodeId)`.
    pub fn dfs(&self) -> Dfs<'_> {
        self.view().dfs()
    }

    /// The *dominant path* of the instance: starting from the
    /// longest-duration root wait, repeatedly descend into the child
    /// with the largest duration — the operation that explains the bulk
    /// of each wait. Empty if the graph has no wait roots.
    ///
    /// This is the chain an analyst walks in Figure 1: UI wait → worker
    /// wait → … → the disk service at the bottom.
    pub fn dominant_path(&self) -> Vec<NodeId> {
        let Some(&root) = self
            .roots
            .iter()
            .filter(|&&r| self.node(r).kind.is_wait())
            .max_by_key(|&&r| self.node(r).duration)
        else {
            return Vec::new();
        };
        let mut path = vec![root];
        let mut cur = root;
        loop {
            let children = self.children(cur);
            let Some(&next) = children.iter().max_by_key(|&&c| self.node(c).duration) else {
                break;
            };
            path.push(next);
            cur = next;
        }
        path
    }
}

/// The Wait Graphs of a stream's scenario instances, built together by
/// [`StreamGraph::build`]: one node arena, one edge array, plus each
/// instance's root list.
///
/// A paired wait's subtree is built once and shared by every later
/// instance or parent that reaches the same wait event, so the arena is
/// a DAG. Each run of consecutive running siblings with one stack is one
/// node whose [`Node::samples`] counts the run (the paper's "aggregated
/// running", applied at build time). Read through
/// [`StreamGraph::instance`], each instance is the tree
/// [`WaitGraph::build`] gives it with those runs merged.
#[derive(Debug, Clone)]
pub struct StreamGraph {
    nodes: Vec<Node>,
    /// Every node's children, one node's after another.
    edges: Vec<NodeId>,
    roots: Vec<NodeId>,
    /// Instance `k`'s roots are `roots[ends[k - 1]..ends[k]]`.
    ends: Vec<usize>,
}

impl StreamGraph {
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        edges: Vec<NodeId>,
        roots: Vec<NodeId>,
        ends: Vec<usize>,
    ) -> Self {
        StreamGraph {
            nodes,
            edges,
            roots,
            ends,
        }
    }

    /// The Wait Graph of the `k`-th instance given to
    /// [`StreamGraph::build`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is not below the number of instances built.
    pub fn instance(&self, k: usize) -> GraphView<'_> {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        GraphView {
            nodes: &self.nodes,
            edges: &self.edges,
            roots: &self.roots[start..self.ends[k]],
        }
    }

    /// Number of nodes in the arena: each shared subtree counts once,
    /// each run of samples once.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// One instance's Wait Graph as borrowed nodes and edges plus its
/// roots: a whole [`WaitGraph`] ([`WaitGraph::view`]) or one instance
/// of a [`StreamGraph`] ([`StreamGraph::instance`]).
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'a> {
    nodes: &'a [Node],
    edges: &'a [NodeId],
    roots: &'a [NodeId],
}

impl<'a> GraphView<'a> {
    /// Root node ids (top-level events of the initiating thread).
    pub fn roots(&self) -> &'a [NodeId] {
        self.roots
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the underlying graph.
    #[inline]
    pub fn node(&self, id: NodeId) -> &'a Node {
        &self.nodes[id.0 as usize]
    }

    /// The children of node `id`: nodes whose operations execute within
    /// its wait interval (only wait nodes have children). A reader that
    /// already holds the node should call [`GraphView::children_of`],
    /// which skips the second lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the underlying graph.
    #[inline]
    pub fn children(&self, id: NodeId) -> &'a [NodeId] {
        self.children_of(self.node(id))
    }

    /// The children of `node`, a node of this view's graph.
    ///
    /// # Panics
    ///
    /// May panic, or return another node's children, if `node` belongs
    /// to another graph.
    #[inline]
    pub fn children_of(&self, node: &Node) -> &'a [NodeId] {
        node.children.of(self.edges)
    }

    /// Iterates nodes in depth-first pre-order from the roots, yielding
    /// `(depth, NodeId)`. A shared node is yielded once per use.
    pub fn dfs(&self) -> Dfs<'a> {
        Dfs {
            view: *self,
            stack: self.roots.iter().rev().map(|&r| (0, r)).collect(),
        }
    }
}

/// Depth-first pre-order traversal over a [`GraphView`].
#[derive(Debug)]
pub struct Dfs<'a> {
    view: GraphView<'a>,
    stack: Vec<(usize, NodeId)>,
}

impl Iterator for Dfs<'_> {
    type Item = (usize, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let (depth, id) = self.stack.pop()?;
        for &c in self.view.children(id).iter().rev() {
            self.stack.push((depth + 1, c));
        }
        Some((depth, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelens_model::StackId;

    /// A graph over `nodes`, each given with its children.
    fn graph(nodes: Vec<(Node, Vec<NodeId>)>, roots: Vec<NodeId>) -> WaitGraph {
        let mut edges = Vec::new();
        let nodes = nodes
            .into_iter()
            .map(|(mut node, children)| {
                let start = u32::try_from(edges.len()).unwrap();
                edges.extend(children);
                let end = u32::try_from(edges.len()).unwrap();
                node.children = Edges { start, end };
                node
            })
            .collect();
        WaitGraph::from_parts(TraceId(0), nodes, edges, roots)
    }

    fn leaf(event: u32, t: u64, dur: u64) -> (Node, Vec<NodeId>) {
        let node = Node {
            event: EventId(event),
            kind: NodeKind::Running,
            tid: ThreadId(1),
            stack: StackId(0),
            t: TimeNs(t),
            duration: TimeNs(dur),
            samples: 1,
            children: Edges::default(),
        };
        (node, Vec::new())
    }

    #[test]
    fn dfs_preorder() {
        // root wait -> [leaf a, leaf b]
        let root = Node {
            event: EventId(0),
            kind: NodeKind::Wait {
                unwait: EventId(9),
                unwait_stack: StackId(0),
                unwait_tid: ThreadId(2),
            },
            tid: ThreadId(1),
            stack: StackId(0),
            t: TimeNs(0),
            duration: TimeNs(10),
            samples: 1,
            children: Edges::default(),
        };
        let g = graph(
            vec![
                (root, vec![NodeId(1), NodeId(2)]),
                leaf(1, 1, 2),
                leaf(2, 3, 2),
            ],
            vec![NodeId(0)],
        );
        let order: Vec<(usize, u32)> = g.dfs().map(|(d, n)| (d, n.0)).collect();
        assert_eq!(order, [(0, 0), (1, 1), (1, 2)]);
        assert_eq!(g.node_count(), 3);
        assert!(!g.is_empty());
        assert!(g.node(NodeId(0)).kind.is_wait());
        assert!(!g.node(NodeId(1)).kind.is_wait());
        assert_eq!(g.children(NodeId(0)), [NodeId(1), NodeId(2)]);
        assert!(g.children(NodeId(1)).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = WaitGraph::from_parts(TraceId(3), Vec::new(), Vec::new(), Vec::new());
        assert!(g.is_empty());
        assert_eq!(g.dfs().count(), 0);
        assert_eq!(g.trace(), TraceId(3));
        assert!(g.dominant_path().is_empty());
    }

    fn wait(event: u32, t: u64, dur: u64, children: Vec<NodeId>) -> (Node, Vec<NodeId>) {
        let node = Node {
            event: EventId(event),
            kind: NodeKind::Wait {
                unwait: EventId(99),
                unwait_stack: StackId(0),
                unwait_tid: ThreadId(2),
            },
            tid: ThreadId(1),
            stack: StackId(0),
            t: TimeNs(t),
            duration: TimeNs(dur),
            samples: 1,
            children: Edges::default(),
        };
        (node, children)
    }

    #[test]
    fn dominant_path_follows_largest_children() {
        // Root wait [0,100); children: a short leaf and a nested wait
        // carrying most of the time, whose own child is the disk op.
        let nodes = vec![
            wait(0, 0, 100, vec![NodeId(1), NodeId(2)]), // n0 root
            leaf(1, 20, 20),                             // n1 ends 40
            wait(2, 10, 85, vec![NodeId(3)]),            // n2 ends 95
            leaf(3, 30, 60),                             // n3 ends 90
        ];
        let g = graph(nodes, vec![NodeId(0)]);
        let path: Vec<u32> = g.dominant_path().iter().map(|n| n.0).collect();
        assert_eq!(path, [0, 2, 3]);
    }

    #[test]
    fn dominant_path_picks_longest_wait_root() {
        let nodes = vec![
            wait(0, 0, 10, vec![]),
            wait(1, 20, 50, vec![]),
            leaf(2, 80, 100), // running roots are not chain starts
        ];
        let g = graph(nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(g.dominant_path(), vec![NodeId(1)]);
    }
}
