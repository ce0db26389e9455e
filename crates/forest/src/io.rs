//! Forest model (de)serialization: a **LightGBM-style text format**
//! ([`to_text`] / [`from_text`]) with per-tree blocks of parallel arrays
//! (`split_feature`, `threshold`, `left_child`, `right_child`,
//! `leaf_value`, `split_gain`, `count`), so models trained elsewhere can
//! be imported by writing this simple dump, and our models can be
//! inspected with a pager. The format round-trips exactly (shortest
//! round-trip float formatting). The checksummed binary form is
//! [`crate::codec`]; both decode paths share one structural validation.
//!
//! The GEF scenario assumes the explainer is a third party with full
//! access to the forest *structure* — this module is exactly that
//! interchange point.

use crate::tree::{Node, Tree, LEAF};
use crate::{Forest, ForestError, Objective, Result};
use gef_trace::json::{JsonValue, JsonWriter, ReadJson, WriteJson};
use std::fmt::Write as _;

impl WriteJson for Objective {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_str(match self {
            Objective::RegressionL2 => "RegressionL2",
            Objective::BinaryLogistic => "BinaryLogistic",
        });
    }
}

impl ReadJson for Objective {
    fn read_json(v: &JsonValue) -> std::result::Result<Objective, String> {
        match v.variant()?.0 {
            "RegressionL2" => Ok(Objective::RegressionL2),
            "BinaryLogistic" => Ok(Objective::BinaryLogistic),
            other => Err(format!("unknown objective `{other}`")),
        }
    }
}

/// Serialize a forest to the LightGBM-style text format.
pub fn to_text(forest: &Forest) -> String {
    let mut out = String::new();
    out.push_str("gef_forest_v1\n");
    let obj = match forest.objective {
        Objective::RegressionL2 => "regression",
        Objective::BinaryLogistic => "binary",
    };
    // String writes are infallible; `let _ =` keeps the no-panic lint
    // satisfied without pretending an error path exists.
    let _ = writeln!(out, "objective={obj}");
    let _ = writeln!(out, "num_features={}", forest.num_features);
    let _ = writeln!(out, "base_score={}", forest.base_score);
    let _ = writeln!(out, "scale={}", forest.scale);
    let _ = writeln!(out, "num_trees={}", forest.trees.len());
    for (i, tree) in forest.trees.iter().enumerate() {
        let _ = writeln!(out, "\nTree={i}");
        let _ = writeln!(out, "num_nodes={}", tree.nodes.len());
        write_field(
            &mut out,
            "split_feature",
            tree.nodes.iter().map(|n| n.feature.to_string()),
        );
        write_field(
            &mut out,
            "threshold",
            tree.nodes.iter().map(|n| format!("{}", n.threshold)),
        );
        write_field(
            &mut out,
            "left_child",
            tree.nodes.iter().map(|n| n.left.to_string()),
        );
        write_field(
            &mut out,
            "right_child",
            tree.nodes.iter().map(|n| n.right.to_string()),
        );
        write_field(
            &mut out,
            "leaf_value",
            tree.nodes.iter().map(|n| format!("{}", n.value)),
        );
        write_field(
            &mut out,
            "split_gain",
            tree.nodes.iter().map(|n| format!("{}", n.gain)),
        );
        write_field(
            &mut out,
            "count",
            tree.nodes.iter().map(|n| n.count.to_string()),
        );
    }
    out
}

fn write_field(out: &mut String, name: &str, vals: impl Iterator<Item = String>) {
    out.push_str(name);
    out.push('=');
    let mut first = true;
    for v in vals {
        if !first {
            out.push(' ');
        }
        out.push_str(&v);
        first = false;
    }
    out.push('\n');
}

/// Parse a forest from the LightGBM-style text format.
///
/// Parse errors carry the 1-based line number of the offending line;
/// structural problems (duplicate or out-of-order `Tree=` blocks,
/// truncated field arrays, out-of-range child indices, non-finite split
/// thresholds) are rejected with a description instead of panicking
/// downstream.
pub fn from_text(s: &str) -> Result<Forest> {
    let mut lines = s
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty());
    let (header_line, header) = lines
        .next()
        .ok_or_else(|| ForestError::Parse("empty model text".into()))?;
    if header != "gef_forest_v1" {
        return Err(ForestError::Parse(format!(
            "line {header_line}: unknown format header: {header:?}"
        )));
    }
    let mut objective = None;
    let mut num_features = None;
    let mut base_score = None;
    let mut scale = None;
    let mut num_trees = None;
    let mut trees: Vec<Tree> = Vec::new();
    let mut pending: Option<TreeFields> = None;

    for (lineno, line) in lines {
        let (key, val) = line.split_once('=').ok_or_else(|| {
            ForestError::Parse(format!("line {lineno}: bad line (no '='): {line:?}"))
        })?;
        let res: Result<()> = (|| {
            match key {
                "objective" => {
                    objective = Some(match val {
                        "regression" => Objective::RegressionL2,
                        "binary" => Objective::BinaryLogistic,
                        other => {
                            return Err(ForestError::Parse(format!("unknown objective {other:?}")))
                        }
                    })
                }
                "num_features" => num_features = Some(parse_num::<usize>(key, val)?),
                "base_score" => base_score = Some(parse_num::<f64>(key, val)?),
                "scale" => scale = Some(parse_num::<f64>(key, val)?),
                "num_trees" => num_trees = Some(parse_num::<usize>(key, val)?),
                "Tree" => {
                    if let Some(p) = pending.take() {
                        trees.push(p.finish()?);
                    }
                    // Tree blocks must appear exactly once each, in
                    // order: a duplicated or shuffled block would
                    // silently reassemble a different ensemble.
                    let idx = parse_num::<usize>(key, val)?;
                    if idx != trees.len() {
                        return Err(ForestError::Parse(format!(
                            "Tree={idx} out of order (expected Tree={}; duplicate or \
                             missing block?)",
                            trees.len()
                        )));
                    }
                    pending = Some(TreeFields::default());
                }
                "num_nodes" => {
                    let p = expect_tree(&mut pending, key)?;
                    p.num_nodes = Some(parse_num::<usize>(key, val)?);
                }
                "split_feature" => expect_tree(&mut pending, key)?.feature = parse_vec(key, val)?,
                "threshold" => expect_tree(&mut pending, key)?.threshold = parse_vec(key, val)?,
                "left_child" => expect_tree(&mut pending, key)?.left = parse_vec(key, val)?,
                "right_child" => expect_tree(&mut pending, key)?.right = parse_vec(key, val)?,
                "leaf_value" => expect_tree(&mut pending, key)?.value = parse_vec(key, val)?,
                "split_gain" => expect_tree(&mut pending, key)?.gain = parse_vec(key, val)?,
                "count" => expect_tree(&mut pending, key)?.count = parse_vec(key, val)?,
                other => return Err(ForestError::Parse(format!("unknown key {other:?}"))),
            }
            Ok(())
        })();
        res.map_err(|e| match e {
            ForestError::Parse(msg) => ForestError::Parse(format!("line {lineno}: {msg}")),
            other => other,
        })?;
    }
    if let Some(p) = pending.take() {
        trees.push(p.finish().map_err(|e| match e {
            ForestError::Parse(msg) => {
                ForestError::Parse(format!("tree {} (last block): {msg}", trees.len()))
            }
            other => other,
        })?);
    }
    let forest = Forest::new(
        trees,
        base_score.ok_or_else(|| missing("base_score"))?,
        scale.ok_or_else(|| missing("scale"))?,
        objective.ok_or_else(|| missing("objective"))?,
        num_features.ok_or_else(|| missing("num_features"))?,
    );
    let expected = num_trees.ok_or_else(|| missing("num_trees"))?;
    if forest.trees.len() != expected {
        return Err(ForestError::Parse(format!(
            "num_trees={expected} but found {} tree blocks",
            forest.trees.len()
        )));
    }
    validate(&forest)?;
    Ok(forest)
}

fn missing(key: &str) -> ForestError {
    ForestError::Parse(format!("missing required key {key:?}"))
}

fn expect_tree<'a>(pending: &'a mut Option<TreeFields>, key: &str) -> Result<&'a mut TreeFields> {
    pending
        .as_mut()
        .ok_or_else(|| ForestError::Parse(format!("{key} outside of a Tree block")))
}

fn parse_num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T> {
    val.parse()
        .map_err(|_| ForestError::Parse(format!("bad value for {key}: {val:?}")))
}

fn parse_vec<T: std::str::FromStr>(key: &str, val: &str) -> Result<Vec<T>> {
    val.split_whitespace()
        .map(|t| parse_num::<T>(key, t))
        .collect()
}

#[derive(Default)]
struct TreeFields {
    num_nodes: Option<usize>,
    feature: Vec<i32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    value: Vec<f64>,
    gain: Vec<f64>,
    count: Vec<u32>,
}

impl TreeFields {
    fn finish(self) -> Result<Tree> {
        let n = self.num_nodes.ok_or_else(|| missing("num_nodes"))?;
        for (name, len) in [
            ("split_feature", self.feature.len()),
            ("threshold", self.threshold.len()),
            ("left_child", self.left.len()),
            ("right_child", self.right.len()),
            ("leaf_value", self.value.len()),
            ("split_gain", self.gain.len()),
            ("count", self.count.len()),
        ] {
            if len != n {
                return Err(ForestError::Parse(format!(
                    "{name} has {len} entries, expected {n}"
                )));
            }
        }
        let nodes = (0..n)
            .map(|i| Node {
                feature: self.feature[i],
                threshold: self.threshold[i],
                left: self.left[i],
                right: self.right[i],
                value: self.value[i],
                gain: self.gain[i],
                count: self.count[i],
            })
            .collect();
        Ok(Tree { nodes })
    }
}

/// Structural validation of a parsed forest (shared with the binary
/// codec: both decode paths enforce identical invariants).
pub(crate) fn validate(forest: &Forest) -> Result<()> {
    for (i, tree) in forest.trees.iter().enumerate() {
        tree.validate()
            .map_err(|e| ForestError::Parse(format!("tree {i}: {e}")))?;
        for node in &tree.nodes {
            if !node.is_leaf() {
                if node.feature != LEAF && node.feature as usize >= forest.num_features {
                    return Err(ForestError::Parse(format!(
                        "tree {i}: feature index {} out of range (num_features={})",
                        node.feature, forest.num_features
                    )));
                }
                if !node.threshold.is_finite() {
                    return Err(ForestError::Parse(format!(
                        "tree {i}: non-finite threshold"
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GbdtParams, GbdtTrainer};

    fn small_forest() -> Forest {
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 17) as f64 / 17.0, (i % 7) as f64 / 7.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 - x[1]).collect();
        GbdtTrainer::new(GbdtParams {
            num_trees: 8,
            num_leaves: 6,
            min_data_in_leaf: 5,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap()
    }

    #[test]
    fn text_round_trip_exact() {
        let f = small_forest();
        let s = to_text(&f);
        let g = from_text(&s).unwrap();
        assert_eq!(f.trees.len(), g.trees.len());
        assert_eq!(f.base_score, g.base_score);
        for (a, b) in f.trees.iter().zip(&g.trees) {
            assert_eq!(a.nodes.len(), b.nodes.len());
            for (na, nb) in a.nodes.iter().zip(&b.nodes) {
                assert_eq!(na, nb);
            }
        }
        // Predictions match bit-for-bit (shortest round-trip formatting).
        for x in [[0.1, 0.9], [0.5, 0.5], [0.77, 0.01]] {
            assert_eq!(f.predict(&x), g.predict(&x));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_text("").is_err());
        assert!(from_text("not_a_model\n").is_err());
        assert!(from_text("gef_forest_v1\nobjective=martian\n").is_err());
    }

    #[test]
    fn rejects_wrong_tree_count() {
        let f = small_forest();
        let s = to_text(&f).replace(&format!("num_trees={}", f.trees.len()), "num_trees=99");
        assert!(from_text(&s).is_err());
    }

    #[test]
    fn rejects_field_length_mismatch() {
        let mut f = small_forest();
        f.trees.truncate(1);
        let s = to_text(&f);
        // Drop one entry from the count field.
        let s = s
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("count=") {
                    let mut parts: Vec<&str> = rest.split_whitespace().collect();
                    parts.pop();
                    format!("count={}", parts.join(" "))
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(from_text(&s).is_err());
    }

    #[test]
    fn rejects_out_of_range_feature() {
        let mut f = small_forest();
        f.num_features = 1; // tree nodes still reference feature 1
        let err = from_text(&to_text(&f)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn rejects_truncated_text() {
        let f = small_forest();
        let s = to_text(&f);
        // Cutting the dump anywhere after the header must fail cleanly
        // (missing keys, short field arrays, or a wrong tree count) —
        // never panic or silently accept a partial ensemble.
        for frac in [1, 2, 3] {
            let cut = s.len() * frac / 4;
            let truncated = &s[..cut];
            assert!(from_text(truncated).is_err(), "cut at {cut} bytes");
        }
    }

    #[test]
    fn rejects_duplicate_tree_block() {
        let f = small_forest();
        let s = to_text(&f);
        // Duplicate the first tree block verbatim: same Tree=0 header
        // twice. The parser must flag the out-of-order index.
        let start = s.find("Tree=0").unwrap();
        let end = s.find("Tree=1").unwrap();
        let block = &s[start..end];
        let dup = format!("{}{}{}", &s[..end], block, &s[end..]);
        let err = from_text(&dup).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("out of order"), "unexpected error: {msg}");
        assert!(msg.contains("line "), "error lacks line number: {msg}");
    }

    #[test]
    fn rejects_out_of_range_child_in_text() {
        let mut f = small_forest();
        f.trees.truncate(1);
        let s = to_text(&f).replace("num_trees=8", "num_trees=1");
        // Point every left child at node 999.
        let s = s
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("left_child=") {
                    let n = rest.split_whitespace().count();
                    format!("left_child={}", vec!["999"; n].join(" "))
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = from_text(&s).unwrap_err();
        assert!(err.to_string().contains("child index out of range"));
    }

    #[test]
    fn rejects_non_finite_threshold_in_text() {
        let mut f = small_forest();
        f.trees.truncate(1);
        let s = to_text(&f).replace("num_trees=8", "num_trees=1");
        let s = s
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("threshold=") {
                    let n = rest.split_whitespace().count();
                    format!("threshold={}", vec!["NaN"; n].join(" "))
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = from_text(&s).unwrap_err();
        assert!(err.to_string().contains("non-finite threshold"));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = from_text("gef_forest_v1\nnum_features=oops\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = from_text("gef_forest_v1\nnot a key value line\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn binary_objective_round_trips() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| f64::from(x[0] > 0.5)).collect();
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 5,
            num_leaves: 4,
            min_data_in_leaf: 5,
            objective: Objective::BinaryLogistic,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        let g = from_text(&to_text(&f)).unwrap();
        assert_eq!(g.objective, Objective::BinaryLogistic);
        assert_eq!(f.predict(&[0.9]), g.predict(&[0.9]));
    }
}
