//! Field-programmable fabric model for run-time reconfigurable
//! functional units.
//!
//! The paper's Section 4.4 observes that with "field programmable hardware
//! to implement the special-purpose functional units … the HW/SW partition
//! need not be static and could be adapted on the fly to suit a wide
//! variety of circumstances" (after Athanas & Silverman's instruction-set
//! metamorphosis). This module models the two quantities that decide when
//! that adaptation pays off: the **LUT budget** of each region and the
//! **reconfiguration latency**, proportional to the bitstream size.
//!
//! Timing is expressed in absolute cycle timestamps supplied by the
//! caller, so the model composes with any of the co-simulation engines.

use serde::{Deserialize, Serialize};

use crate::error::RtlError;

/// A configuration that can be loaded into a region: a named functional
/// unit with its area and per-invocation latency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitstream {
    /// Functional-unit name (e.g. `"fir8"`).
    pub name: String,
    /// Area in LUTs; must fit the region.
    pub luts: u32,
    /// Latency of one invocation, in cycles.
    pub latency: u64,
}

/// Result of an [`FpgaFabric::invoke`]: when the unit could start and when
/// it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// Cycle at which the region was available (after any in-progress
    /// reconfiguration).
    pub started_at: u64,
    /// Cycle at which the result is ready.
    pub finished_at: u64,
}

#[derive(Debug, Clone)]
struct Region {
    loaded: Option<Bitstream>,
    ready_at: u64,
}

/// Cumulative fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpgaStats {
    /// Completed reconfigurations.
    pub reconfigurations: u64,
    /// Total cycles spent reconfiguring.
    pub reconfig_cycles: u64,
    /// Completed invocations.
    pub invocations: u64,
}

/// A fabric of identical reconfigurable regions.
#[derive(Debug, Clone)]
pub struct FpgaFabric {
    luts_per_region: u32,
    reconfig_cycles_per_lut: u64,
    regions: Vec<Region>,
    stats: FpgaStats,
}

impl FpgaFabric {
    /// Creates a fabric of `regions` regions, each `luts_per_region` LUTs,
    /// with reconfiguration costing `reconfig_cycles_per_lut` cycles per
    /// LUT of the incoming bitstream.
    ///
    /// # Panics
    ///
    /// Panics if `regions == 0`.
    #[must_use]
    pub fn new(regions: usize, luts_per_region: u32, reconfig_cycles_per_lut: u64) -> Self {
        assert!(regions > 0, "fabric needs at least one region");
        FpgaFabric {
            luts_per_region,
            reconfig_cycles_per_lut,
            regions: vec![
                Region {
                    loaded: None,
                    ready_at: 0,
                };
                regions
            ],
            stats: FpgaStats::default(),
        }
    }

    /// Number of regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// LUT capacity of each region.
    #[must_use]
    pub fn luts_per_region(&self) -> u32 {
        self.luts_per_region
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> FpgaStats {
        self.stats
    }

    /// The reconfiguration latency a bitstream of `luts` LUTs would incur.
    #[must_use]
    pub fn reconfig_latency(&self, luts: u32) -> u64 {
        u64::from(luts) * self.reconfig_cycles_per_lut
    }

    /// Name of the unit currently loaded in a region, if any.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    #[must_use]
    pub fn loaded(&self, region: usize) -> Option<&str> {
        self.regions[region]
            .loaded
            .as_ref()
            .map(|b| b.name.as_str())
    }

    /// Begins reconfiguring `region` with `bitstream` at cycle `now`;
    /// returns the cycle at which the region becomes usable. Loading the
    /// already-loaded unit is free and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::Fpga`] if the region index is out of range or
    /// the bitstream exceeds the region's LUT budget.
    pub fn load(&mut self, region: usize, bitstream: Bitstream, now: u64) -> Result<u64, RtlError> {
        if region >= self.regions.len() {
            return Err(RtlError::Fpga {
                reason: format!("region {region} out of range"),
            });
        }
        if bitstream.luts > self.luts_per_region {
            return Err(RtlError::Fpga {
                reason: format!(
                    "bitstream {} needs {} luts, region has {}",
                    bitstream.name, bitstream.luts, self.luts_per_region
                ),
            });
        }
        let latency = self.reconfig_latency(bitstream.luts);
        let r = &mut self.regions[region];
        if r.loaded.as_ref() == Some(&bitstream) {
            return Ok(now.max(r.ready_at));
        }
        let start = now.max(r.ready_at);
        r.ready_at = start + latency;
        r.loaded = Some(bitstream);
        self.stats.reconfigurations += 1;
        self.stats.reconfig_cycles += latency;
        Ok(r.ready_at)
    }

    /// Invokes the unit named `unit` in `region` at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::Fpga`] if the region index is out of range or a
    /// different (or no) unit is loaded.
    pub fn invoke(&mut self, region: usize, unit: &str, now: u64) -> Result<Invocation, RtlError> {
        if region >= self.regions.len() {
            return Err(RtlError::Fpga {
                reason: format!("region {region} out of range"),
            });
        }
        let r = &mut self.regions[region];
        let Some(loaded) = &r.loaded else {
            return Err(RtlError::Fpga {
                reason: format!("region {region} is empty"),
            });
        };
        if loaded.name != unit {
            return Err(RtlError::Fpga {
                reason: format!("region {region} holds {}, not {unit}", loaded.name),
            });
        }
        let started_at = now.max(r.ready_at);
        let finished_at = started_at + loaded.latency;
        r.ready_at = finished_at;
        self.stats.invocations += 1;
        Ok(Invocation {
            started_at,
            finished_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fir() -> Bitstream {
        Bitstream {
            name: "fir8".to_string(),
            luts: 100,
            latency: 4,
        }
    }

    fn dct() -> Bitstream {
        Bitstream {
            name: "dct8".to_string(),
            luts: 200,
            latency: 6,
        }
    }

    #[test]
    fn load_then_invoke() {
        let mut fab = FpgaFabric::new(1, 512, 10);
        let ready = fab.load(0, fir(), 0).unwrap();
        assert_eq!(ready, 1000, "100 luts * 10 cycles");
        let inv = fab.invoke(0, "fir8", 0).unwrap();
        assert_eq!(inv.started_at, 1000, "waits for reconfiguration");
        assert_eq!(inv.finished_at, 1004);
    }

    #[test]
    fn invocations_serialize_within_region() {
        let mut fab = FpgaFabric::new(1, 512, 0);
        fab.load(0, fir(), 0).unwrap();
        let a = fab.invoke(0, "fir8", 0).unwrap();
        let b = fab.invoke(0, "fir8", 0).unwrap();
        assert_eq!(a.finished_at, 4);
        assert_eq!(b.started_at, 4, "second call queues behind the first");
    }

    #[test]
    fn reload_same_unit_is_free() {
        let mut fab = FpgaFabric::new(1, 512, 10);
        fab.load(0, fir(), 0).unwrap();
        let ready = fab.load(0, fir(), 2000).unwrap();
        assert_eq!(ready, 2000);
        assert_eq!(fab.stats().reconfigurations, 1);
    }

    #[test]
    fn swapping_units_costs_reconfiguration() {
        let mut fab = FpgaFabric::new(1, 512, 10);
        fab.load(0, fir(), 0).unwrap();
        let ready = fab.load(0, dct(), 1000).unwrap();
        assert_eq!(ready, 1000 + 2000);
        assert_eq!(fab.loaded(0), Some("dct8"));
        assert!(matches!(
            fab.invoke(0, "fir8", 5000),
            Err(RtlError::Fpga { .. })
        ));
    }

    #[test]
    fn oversized_bitstream_rejected() {
        let mut fab = FpgaFabric::new(1, 64, 1);
        assert!(matches!(fab.load(0, fir(), 0), Err(RtlError::Fpga { .. })));
    }

    #[test]
    fn empty_region_cannot_be_invoked() {
        let mut fab = FpgaFabric::new(2, 512, 1);
        assert!(matches!(
            fab.invoke(1, "fir8", 0),
            Err(RtlError::Fpga { .. })
        ));
        assert!(matches!(
            fab.invoke(7, "fir8", 0),
            Err(RtlError::Fpga { .. })
        ));
    }

    #[test]
    fn regions_are_independent() {
        let mut fab = FpgaFabric::new(2, 512, 10);
        fab.load(0, fir(), 0).unwrap();
        fab.load(1, dct(), 0).unwrap();
        let a = fab.invoke(0, "fir8", 1000).unwrap();
        let b = fab.invoke(1, "dct8", 2000).unwrap();
        assert_eq!(a.started_at, 1000);
        assert_eq!(b.started_at, 2000);
        assert_eq!(fab.stats().invocations, 2);
    }

    #[test]
    fn stats_track_reconfig_cost() {
        let mut fab = FpgaFabric::new(1, 512, 5);
        fab.load(0, fir(), 0).unwrap();
        fab.load(0, dct(), 0).unwrap();
        let s = fab.stats();
        assert_eq!(s.reconfigurations, 2);
        assert_eq!(s.reconfig_cycles, 100 * 5 + 200 * 5);
    }
}
