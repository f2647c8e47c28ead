//! Result structures and table printing for the figure harnesses.

use std::fmt::Write as _;

/// One bar of a grouped bar chart: a label, a total, and stacked parts.
#[derive(Clone, Debug)]
pub struct Bar {
    /// Bar label (e.g. `"M3"`, `"Lx"`, `"Lx-$"`).
    pub label: String,
    /// Total cycles.
    pub total: u64,
    /// Stacked components, e.g. `[("Xfers", x), ("Other", y)]`.
    pub parts: Vec<(String, u64)>,
    /// Optional annotation printed after the parts (e.g. a per-PE metrics
    /// summary from [`m3_sim::Metrics::summary_line`]).
    pub note: Option<String>,
}

impl Bar {
    /// Creates a bar whose final "Other" part absorbs the remainder.
    pub fn with_remainder(
        label: impl Into<String>,
        total: u64,
        mut parts: Vec<(String, u64)>,
        remainder_name: &str,
    ) -> Bar {
        let accounted: u64 = parts.iter().map(|(_, v)| *v).sum();
        parts.push((remainder_name.to_string(), total.saturating_sub(accounted)));
        Bar {
            label: label.into(),
            total,
            parts,
            note: None,
        }
    }

    /// Attaches an annotation shown next to the rendered row.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Bar {
        self.note = Some(note.into());
        self
    }
}

/// A group of bars under one heading (e.g. one benchmark).
#[derive(Clone, Debug)]
pub struct Group {
    /// Group name (e.g. `"read"`).
    pub name: String,
    /// The bars of the group.
    pub bars: Vec<Bar>,
}

/// One reproduced figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Title, including the paper figure number.
    pub title: String,
    /// Bar groups.
    pub groups: Vec<Group>,
}

impl Figure {
    /// Renders the figure as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        for group in &self.groups {
            let _ = writeln!(out, "[{}]", group.name);
            for bar in &group.bars {
                let parts: Vec<String> =
                    bar.parts.iter().map(|(n, v)| format!("{n}={v}")).collect();
                let _ = write!(
                    out,
                    "  {:<8} total={:>12} cycles   {}",
                    bar.label,
                    bar.total,
                    parts.join("  ")
                );
                if let Some(note) = &bar.note {
                    let _ = write!(out, "   [{note}]");
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Sums the simulated cycles of every bar.
    pub fn total_cycles(&self) -> u64 {
        self.groups
            .iter()
            .flat_map(|g| &g.bars)
            .map(|b| b.total)
            .sum()
    }

    /// Finds a bar by group and label (for assertions).
    ///
    /// # Panics
    ///
    /// Panics if the group/label pair does not exist.
    pub fn bar(&self, group: &str, label: &str) -> &Bar {
        self.groups
            .iter()
            .find(|g| g.name == group)
            .unwrap_or_else(|| panic!("no group {group}"))
            .bars
            .iter()
            .find(|b| b.label == label)
            .unwrap_or_else(|| panic!("no bar {label} in {group}"))
    }
}

/// A numeric series over a swept parameter (Figure 4 and 6).
#[derive(Clone, Debug)]
pub struct Series {
    /// Title, including the paper figure number.
    pub title: String,
    /// Name of the swept parameter.
    pub param: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows: parameter value plus one value per column.
    pub rows: Vec<(u64, Vec<f64>)>,
}

impl Series {
    /// Renders the series as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:>16}", self.param);
        for c in &self.columns {
            let _ = write!(out, "{c:>16}");
        }
        let _ = writeln!(out);
        for (p, vals) in &self.rows {
            let _ = write!(out, "{p:>16}");
            for v in vals {
                let _ = write!(out, "{v:>16.2}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Sums every value, truncating each to an integer (cycles or ratios,
    /// depending on the figure): a cheap checksum of the table.
    pub fn value_sum(&self) -> u64 {
        self.rows
            .iter()
            .flat_map(|(_, vals)| vals)
            .map(|v| *v as u64)
            .sum()
    }

    /// Looks up a value by parameter and column name.
    ///
    /// # Panics
    ///
    /// Panics if the row or column does not exist.
    pub fn value(&self, param: u64, column: &str) -> f64 {
        let col = self
            .columns
            .iter()
            .position(|c| c == column)
            .unwrap_or_else(|| panic!("no column {column}"));
        self.rows
            .iter()
            .find(|(p, _)| *p == param)
            .unwrap_or_else(|| panic!("no row {param}"))
            .1[col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_remainder() {
        let bar = Bar::with_remainder("M3", 100, vec![("Xfers".into(), 30)], "Other");
        assert_eq!(bar.parts[1], ("Other".to_string(), 70));
    }

    #[test]
    fn bar_note_renders_after_parts() {
        let fig = Figure {
            title: "Fig X".into(),
            groups: vec![Group {
                name: "read".into(),
                bars: vec![
                    Bar::with_remainder("M3", 100, vec![], "Other").with_note("util(PE1)=0.42")
                ],
            }],
        };
        assert!(fig.render().contains("[util(PE1)=0.42]"));
    }

    #[test]
    fn figure_lookup_and_render() {
        let fig = Figure {
            title: "Fig X".into(),
            groups: vec![Group {
                name: "read".into(),
                bars: vec![Bar {
                    label: "M3".into(),
                    total: 42,
                    parts: vec![],
                    note: None,
                }],
            }],
        };
        assert_eq!(fig.bar("read", "M3").total, 42);
        assert_eq!(fig.total_cycles(), 42);
        assert!(fig.render().contains("Fig X"));
        assert!(fig.render().contains("total="));
    }

    #[test]
    fn series_lookup() {
        let s = Series {
            title: "Fig 4".into(),
            param: "bpe".into(),
            columns: vec!["read".into(), "write".into()],
            rows: vec![(16, vec![1.0, 2.0]), (32, vec![3.0, 4.0])],
        };
        assert_eq!(s.value(32, "write"), 4.0);
        assert_eq!(s.value_sum(), 10);
        assert!(s.render().contains("bpe"));
    }
}
