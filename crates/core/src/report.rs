//! Rendered comparisons: the Section 5 criteria table and the Figure 2
//! coverage matrix.
//!
//! The paper's closing advice is that "since HW/SW co-design can mean
//! many things, it is important to determine characteristics of a given
//! approach before evaluating it or comparing it to some other example".
//! These renderers produce exactly that characterization for any set of
//! [`Methodology`] records — experiment E1 feeds them the surveyed
//! approaches, E2 the flows implemented here.

use std::fmt::Write as _;

use crate::taxonomy::{DesignTask, Methodology, PartitioningFactor};

/// Renders the Section 5 comparison: one row per methodology, one column
/// per comparison point, as a Markdown table.
#[must_use]
pub fn comparison_table(methodologies: &[Methodology]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| approach | reference | system class | type | tasks | co-sim level | partition factors |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for m in methodologies {
        let tasks = join(m.tasks.iter());
        let level = m
            .cosim_level
            .map_or_else(|| "—".to_string(), |l| l.to_string());
        let factors = if m.partition_factors.is_empty() {
            "—".to_string()
        } else {
            join(m.partition_factors.iter())
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            m.name, m.reference, m.system_class, m.system_type, tasks, level, factors
        );
    }
    out
}

/// Renders the Figure 2 coverage matrix: flows × design tasks.
#[must_use]
pub fn coverage_matrix(methodologies: &[Methodology]) -> String {
    let tasks = [
        DesignTask::CoSimulation,
        DesignTask::CoSynthesis,
        DesignTask::Partitioning,
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| flow | co-simulation | co-synthesis | partitioning |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    for m in methodologies {
        let marks: Vec<&str> = tasks
            .iter()
            .map(|t| if m.tasks.contains(t) { "x" } else { " " })
            .collect();
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            m.name, marks[0], marks[1], marks[2]
        );
    }
    out
}

/// Renders the factor coverage: flows × the six Section 3.3
/// considerations.
#[must_use]
pub fn factor_matrix(methodologies: &[Methodology]) -> String {
    let mut out = String::new();
    let header: Vec<String> = PartitioningFactor::ALL
        .iter()
        .map(ToString::to_string)
        .collect();
    let _ = writeln!(out, "| flow | {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|---|{}|",
        "---|".repeat(PartitioningFactor::ALL.len())
    );
    for m in methodologies {
        if m.partition_factors.is_empty() {
            continue;
        }
        let marks: Vec<&str> = PartitioningFactor::ALL
            .iter()
            .map(|f| {
                if m.partition_factors.contains(f) {
                    "x"
                } else {
                    " "
                }
            })
            .collect();
        let _ = writeln!(out, "| {} | {} |", m.name, marks.join(" | "));
    }
    out
}

fn join<T: ToString>(items: impl Iterator<Item = T>) -> String {
    items.map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn comparison_table_has_one_row_per_methodology() {
        let survey = registry::surveyed_methodologies();
        let table = comparison_table(&survey);
        let rows = table.lines().count();
        assert_eq!(rows, survey.len() + 2, "header + divider + rows");
        for m in &survey {
            assert!(table.contains(&m.name), "{} missing", m.name);
        }
    }

    #[test]
    fn coverage_matrix_marks_tasks() {
        let flows = registry::implemented_flows();
        let matrix = coverage_matrix(&flows);
        // The multiprocessor flow does co-synthesis but not partitioning.
        let row = matrix
            .lines()
            .find(|l| l.contains("multiprocessor co-synthesis"))
            .unwrap();
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        assert_eq!(cells[2], "", "no co-simulation");
        assert_eq!(cells[3], "x", "co-synthesis");
        assert_eq!(cells[4], "", "no partitioning");
    }

    #[test]
    fn factor_matrix_skips_non_partitioning_flows() {
        let flows = registry::implemented_flows();
        let matrix = factor_matrix(&flows);
        assert!(!matrix.contains("multiprocessor co-synthesis"));
        assert!(matrix.contains("ASIP extension"));
    }

    #[test]
    fn tables_are_valid_markdown_shape() {
        let survey = registry::surveyed_methodologies();
        for table in [
            comparison_table(&survey),
            coverage_matrix(&survey),
            factor_matrix(&survey),
        ] {
            let mut lines = table.lines();
            let header = lines.next().unwrap();
            let divider = lines.next().unwrap();
            let cols = header.matches('|').count();
            assert!(divider.matches('|').count() >= 2);
            for l in lines {
                assert_eq!(l.matches('|').count(), cols, "ragged row: {l}");
            }
        }
    }
}
