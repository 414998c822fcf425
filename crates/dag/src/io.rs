//! Plain-text serialization of DAGs.
//!
//! A deliberately simple line format so experiment fixtures stay
//! hand-editable and diffable:
//!
//! ```text
//! # optional comment lines
//! dag <name>
//! nodes <n>
//! label <id> <text>      (optional, any number)
//! edge <u> <v>           (one per edge)
//! end
//! ```

use std::fmt::Write as _;

use crate::{Dag, DagBuilder, DagError, NodeId};

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be understood.
    Syntax {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// The edge list failed DAG validation.
    Invalid(DagError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ParseError::Invalid(e) => write!(f, "invalid DAG: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a DAG to the text format.
#[must_use]
pub fn to_text(dag: &Dag) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "dag {}", dag.name());
    let _ = writeln!(out, "nodes {}", dag.n());
    for v in dag.nodes() {
        let l = dag.label(v);
        if !l.is_empty() {
            let _ = writeln!(out, "label {} {}", v.0, l);
        }
    }
    for (u, v) in dag.edges() {
        let _ = writeln!(out, "edge {} {}", u.0, v.0);
    }
    out.push_str("end\n");
    out
}

/// Parses the text format back into a DAG.
pub fn parse(text: &str) -> Result<Dag, ParseError> {
    let mut name = String::new();
    let mut n: Option<usize> = None;
    let mut labels: Vec<(usize, String)> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut saw_end = false;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if saw_end {
            return Err(ParseError::Syntax {
                line: lineno,
                msg: "content after 'end'".into(),
            });
        }
        let mut parts = line.splitn(2, ' ');
        let kw = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("").trim();
        match kw {
            "dag" => name = rest.to_string(),
            "nodes" => {
                n = Some(rest.parse().map_err(|_| ParseError::Syntax {
                    line: lineno,
                    msg: format!("bad node count '{rest}'"),
                })?);
            }
            "label" => {
                let mut p = rest.splitn(2, ' ');
                let id: usize = p
                    .next()
                    .unwrap_or("")
                    .parse()
                    .map_err(|_| ParseError::Syntax {
                        line: lineno,
                        msg: "bad label id".into(),
                    })?;
                labels.push((id, p.next().unwrap_or("").to_string()));
            }
            "edge" => {
                let nums: Vec<&str> = rest.split_whitespace().collect();
                if nums.len() != 2 {
                    return Err(ParseError::Syntax {
                        line: lineno,
                        msg: "edge needs two endpoints".into(),
                    });
                }
                let u = nums[0].parse().map_err(|_| ParseError::Syntax {
                    line: lineno,
                    msg: "bad edge source".into(),
                })?;
                let v = nums[1].parse().map_err(|_| ParseError::Syntax {
                    line: lineno,
                    msg: "bad edge target".into(),
                })?;
                edges.push((u, v));
            }
            "end" => saw_end = true,
            other => {
                return Err(ParseError::Syntax {
                    line: lineno,
                    msg: format!("unknown keyword '{other}'"),
                });
            }
        }
    }
    if !saw_end {
        return Err(ParseError::Syntax {
            line: text.lines().count(),
            msg: "missing 'end'".into(),
        });
    }
    let n = n.ok_or(ParseError::Syntax {
        line: 0,
        msg: "missing 'nodes' line".into(),
    })?;
    // The first label for an id wins (the sort is stable), and ids
    // outside `0..n` are never reached.
    labels.sort_by_key(|&(id, _)| id);
    labels.dedup_by_key(|(id, _)| *id);
    let mut labels = labels.into_iter().peekable();
    let mut b = DagBuilder::with_nodes(0);
    b.name(name);
    for i in 0..n {
        match labels.next_if(|&(id, _)| id == i) {
            Some((_, l)) => b.add_labeled_node(l),
            None => b.add_node(),
        };
    }
    for (u, v) in edges {
        if u >= n || v >= n {
            return Err(ParseError::Invalid(DagError::NodeOutOfRange {
                node: NodeId::new(u.max(v)),
                n,
            }));
        }
        b.add_edge(NodeId::new(u), NodeId::new(v));
    }
    b.build().map_err(ParseError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::dag_from_edges;

    #[test]
    fn round_trip_plain() {
        let d = dag_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let text = to_text(&d);
        let d2 = parse(&text).unwrap();
        assert_eq!(d2.n(), 4);
        assert_eq!(d2.m(), 4);
        assert_eq!(
            d.edges().collect::<Vec<_>>(),
            d2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn round_trip_labels_and_name() {
        let mut b = DagBuilder::new();
        let a = b.add_labeled_node("alpha");
        let c = b.add_node();
        b.add_edge(a, c);
        b.name("zipper(d=2)");
        let d = b.build().unwrap();
        let d2 = parse(&to_text(&d)).unwrap();
        assert_eq!(d2.name(), "zipper(d=2)");
        assert_eq!(d2.label(a), "alpha");
        assert_eq!(d2.label(c), "");
    }

    #[test]
    fn first_label_wins_and_out_of_range_labels_are_ignored() {
        let text = "nodes 2\nlabel 1 first\nlabel 1 second\nlabel 2 gone\nlabel 0 a b\nend\n";
        let d = parse(text).unwrap();
        assert_eq!(d.n(), 2);
        assert_eq!(d.label(NodeId::new(0)), "a b");
        assert_eq!(d.label(NodeId::new(1)), "first");
    }

    #[test]
    fn round_trip_large_labeled_dag() {
        let n = 4_000;
        let mut b = DagBuilder::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    b.add_node()
                } else {
                    b.add_labeled_node(format!("v{i}"))
                }
            })
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.name("chain4000");
        let d = b.build().unwrap();
        let d2 = parse(&to_text(&d)).unwrap();
        assert_eq!(d2.n(), n);
        assert_eq!(d2.name(), "chain4000");
        assert_eq!(
            d.edges().collect::<Vec<_>>(),
            d2.edges().collect::<Vec<_>>()
        );
        for v in d.nodes() {
            assert_eq!(d.label(v), d2.label(v));
        }
        assert_eq!(to_text(&d2), to_text(&d));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\ndag t\nnodes 2\n# mid\nedge 0 1\nend\n";
        let d = parse(text).unwrap();
        assert_eq!(d.n(), 2);
        assert_eq!(d.m(), 1);
    }

    #[test]
    fn rejects_missing_end() {
        let text = "dag t\nnodes 1\n";
        assert!(matches!(parse(text), Err(ParseError::Syntax { .. })));
    }

    #[test]
    fn rejects_unknown_keyword() {
        let text = "dag t\nnodes 1\nfrob 1\nend\n";
        assert!(matches!(parse(text), Err(ParseError::Syntax { .. })));
    }

    #[test]
    fn rejects_cycle_as_invalid() {
        let text = "nodes 2\nedge 0 1\nedge 1 0\nend\n";
        assert_eq!(
            parse(text).unwrap_err(),
            ParseError::Invalid(DagError::Cycle)
        );
    }

    #[test]
    fn rejects_out_of_range_edge() {
        let text = "nodes 2\nedge 0 5\nend\n";
        assert!(matches!(parse(text), Err(ParseError::Invalid(_))));
    }

    #[test]
    fn rejects_content_after_end() {
        let text = "nodes 1\nend\nedge 0 0\n";
        assert!(matches!(parse(text), Err(ParseError::Syntax { .. })));
    }
}
