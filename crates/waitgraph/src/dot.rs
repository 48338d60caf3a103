//! Graphviz (DOT) rendering of Wait Graphs, for inspection and examples.

use crate::graph::{NodeKind, WaitGraph};
use std::fmt::Write as _;
use tracelens_model::StackTable;

impl WaitGraph {
    /// Renders the graph in Graphviz DOT syntax. Node labels show the
    /// event kind, the innermost callstack frame, and the duration.
    pub fn to_dot(&self, stacks: &StackTable) -> String {
        let mut out =
            String::from("digraph waitgraph {\n  rankdir=TB;\n  node [shape=box,fontsize=10];\n");
        let view = self.view();
        for (_, id) in view.dfs() {
            let n = view.node(id);
            let frame = stacks
                .frames(n.stack)
                .last()
                .and_then(|&s| stacks.symbols().resolve(s))
                .unwrap_or("?");
            let (kind, shape) = match n.kind {
                NodeKind::Running => ("run", "box"),
                NodeKind::Wait { .. } => ("wait", "ellipse"),
                NodeKind::UnpairedWait => ("wait?", "ellipse"),
                NodeKind::Hardware => ("hw", "hexagon"),
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{} {}\\n{} {}\",shape={}];",
                id.0,
                kind,
                n.tid,
                escape(frame),
                n.duration,
                shape
            );
            for &c in view.children_of(n) {
                let _ = writeln!(out, "  n{} -> n{};", id.0, c.0);
            }
        }
        out.push_str("}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use crate::index::StreamIndex;
    use crate::WaitGraph;
    use tracelens_model::{
        ScenarioInstance, ScenarioName, StackTable, ThreadId, TimeNs, TraceId, TraceStreamBuilder,
    };

    #[test]
    fn dot_output_is_wellformed() {
        let mut stacks = StackTable::new();
        let s0 = stacks.intern_symbols(&["app!Main", "fs.sys!Read"]);
        let mut b = TraceStreamBuilder::new(0);
        b.push_wait(ThreadId(1), TimeNs(0), TimeNs::ZERO, s0);
        b.push_running(ThreadId(2), TimeNs(0), TimeNs(5), s0);
        b.push_unwait(ThreadId(2), ThreadId(1), TimeNs(5), s0);
        let stream = b.finish().unwrap();
        let idx = StreamIndex::new(&stream);
        let wg = WaitGraph::build(
            &stream,
            &idx,
            &ScenarioInstance {
                trace: TraceId(0),
                scenario: ScenarioName::new("T"),
                tid: ThreadId(1),
                t0: TimeNs(0),
                t1: TimeNs(10),
            },
        );
        let dot = wg.to_dot(&stacks);
        assert!(dot.starts_with("digraph waitgraph {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("fs.sys!Read"));
        assert!(dot.contains("->"));
    }
}
