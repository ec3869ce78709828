//! The metric catalogue. `BENCHMARK.json` at the repository root lists
//! exactly these names, units and bounds; a unit test holds the two
//! together.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, reported by every workload's untraced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Largest worsening of the median, as a share of the baseline
    /// median, before a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics. On a shared 2-vCPU host, other tenants shift
/// the speed of whole runs by 15–25% for minutes at a time, so every
/// timing bound sits at the 25% ceiling, `setup_s` among them; memory
/// does not drift and keeps 10%.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// Per-layer metrics, reported by every workload's traced run: name,
/// unit, and improvement direction. A layer a workload does not exercise
/// reads 0. Shares are of the workload's measured time (see the crate
/// docs); counts are per op over the first pass through the inputs.
pub const PER_LAYER: [(&str, &str, Better); 41] = [
    ("ir.share", "%", Better::Lower),
    ("sim.share", "%", Better::Lower),
    ("conform.share", "%", Better::Lower),
    ("fault.share", "%", Better::Lower),
    ("replay.share", "%", Better::Lower),
    ("explore.share", "%", Better::Lower),
    ("partition.share", "%", Better::Lower),
    ("serve.share", "%", Better::Lower),
    ("bench.share", "%", Better::Lower),
    ("span_coverage", "%", Better::Higher),
    ("traced_op_p50_ms", "ms", Better::Lower),
    ("sim.ladder.pin.share", "%", Better::Lower),
    ("sim.ladder.register.share", "%", Better::Lower),
    ("sim.ladder.driver.share", "%", Better::Lower),
    ("sim.ladder.message.share", "%", Better::Lower),
    ("sim.ladder.pin.events", "count", Better::Lower),
    ("sim.ladder.register.events", "count", Better::Lower),
    ("sim.ladder.driver.events", "count", Better::Lower),
    ("sim.ladder.message.events", "count", Better::Lower),
    ("conform.events.pin", "count", Better::Lower),
    ("conform.events.register", "count", Better::Lower),
    ("conform.events.driver", "count", Better::Lower),
    ("conform.events.message", "count", Better::Lower),
    ("sim.coordinator.rounds", "count", Better::Lower),
    ("sim.coordinator.rounds_skipped", "count", Better::Higher),
    ("replay.bisect_probes", "count", Better::Lower),
    ("replay.linear_probes", "count", Better::Lower),
    ("explore.unique_points", "count", Better::Higher),
    ("explore.evaluations", "count", Better::Lower),
    ("explore.gated", "count", Better::Higher),
    ("explore.dedup_skips", "count", Better::Lower),
    ("explore.delta_hit_rate", "ratio", Better::Higher),
    ("explore.revisit_rate", "ratio", Better::Lower),
    ("explore.front_size", "count", Better::Higher),
    ("explore.stage2_share", "%", Better::Lower),
    ("explore.warm_hits", "count", Better::Higher),
    ("serve.queue_depth_p99", "count", Better::Lower),
    ("serve.shed", "count", Better::Lower),
    ("serve.retried", "count", Better::Lower),
    ("serve.store_entries", "count", Better::Higher),
    ("serve.worker_busy_share", "%", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn field<'a>(m: &'a Json, k: &str) -> &'a str {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no `{k}` in {m:?}"))
    }

    #[test]
    fn the_catalogue_matches_benchmark_json_exactly() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, d) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(m, "name"), d.name);
            assert_eq!(field(m, "unit"), d.unit);
            assert_eq!(field(m, "better"), d.better.as_str());
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(d.bound),
                "{}",
                d.name
            );
            assert_eq!(m.as_obj().unwrap().len(), 4);
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "name"), *name);
            assert_eq!(field(m, "unit"), *unit);
            assert_eq!(field(m, "better"), better.as_str());
            assert_eq!(m.as_obj().unwrap().len(), 3);
        }
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name `{n}`");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
        for u in END_TO_END
            .iter()
            .map(|d| d.unit)
            .chain(PER_LAYER.iter().map(|(_, u, _)| *u))
        {
            assert!(valid_unit(u), "bad unit `{u}`");
        }
        // `setup_s` keeps the largest bound, and no bound exceeds 25%.
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound <= setup.bound && d.bound <= 0.25));
    }
}
