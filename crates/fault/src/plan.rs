//! Fault plans and the deterministic injector behind every fault model.
//!
//! A [`FaultPlan`] is pure data: per-ladder-level fault *rates*. A
//! [`FaultInjector`] turns a plan into decisions, drawing from one
//! deterministic substream per injection *site* (a site is a string like
//! `"reg:fifo"` or `"msg:0"`). Substream seeds are derived as
//! `seed ^ fnv1a(site)` and fed through the vendored `StdRng`
//! (xoshiro256++ seeded via SplitMix64), so:
//!
//! * identical seeds yield bit-identical campaigns — no wall clock or
//!   global RNG anywhere;
//! * sites are independent: adding a fault site (or reordering two
//!   sites' interleaved draws) never perturbs another site's stream;
//! * a zero rate consumes no randomness at all, which is what makes an
//!   empty plan provably bit-identical to the unwrapped baseline.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use codesign_trace::hash::fnv1a;
use codesign_trace::{Arg, Tracer, TrackId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bus-level fault rates (pin/transaction rung of the ladder).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BusRates {
    /// Probability a bus read or write has one data bit flipped.
    pub bit_flip: f64,
    /// Probability a bus transaction sticks and takes extra cycles.
    pub stuck: f64,
    /// Extra cycles a stuck transaction occupies the bus.
    pub stuck_cycles: u64,
}

/// Register-level fault rates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegisterRates {
    /// Probability a register read returns a forged word.
    pub corrupt_read: f64,
    /// Probability a register write stores a forged word.
    pub corrupt_write: f64,
}

/// Interrupt-level fault rates, applied per IRQ-line sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IrqRates {
    /// Probability a pending interrupt is masked for one sample.
    pub drop: f64,
    /// Probability an idle line asserts a spurious interrupt.
    pub spurious: f64,
    /// Probability a just-cleared interrupt is re-asserted for one
    /// extra sample (a duplicated delivery).
    pub duplicate: f64,
}

/// Message-level fault rates, applied per `send`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MessageRates {
    /// Probability a send is lost.
    pub drop: f64,
    /// Probability a send is delivered twice.
    pub duplicate: f64,
    /// Probability a send is delayed by [`MessageRates::delay_cycles`].
    pub delay: f64,
    /// Extra transfer cycles added to a delayed send.
    pub delay_cycles: u64,
}

/// Fault rates for every rung of the abstraction ladder. Pure data; a
/// [`FaultInjector`] turns it into decisions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Bus-level rates.
    pub bus: BusRates,
    /// Register-level rates.
    pub register: RegisterRates,
    /// Interrupt-level rates.
    pub irq: IrqRates,
    /// Message-level rates.
    pub message: MessageRates,
}

impl FaultPlan {
    /// A plan that injects nothing. Wrappers driven by a quiet plan are
    /// bit-identical to the unwrapped baseline (and consume no
    /// randomness, so they cannot perturb anything else either).
    #[must_use]
    pub fn quiet() -> Self {
        FaultPlan::default()
    }

    /// The standard campaign plan: rates low enough that many runs stay
    /// fault-free (exercising the *masked* class) but high enough that a
    /// 32-seed campaign reliably populates the other classes too.
    #[must_use]
    pub fn standard() -> Self {
        FaultPlan {
            bus: BusRates {
                bit_flip: 0.0005,
                stuck: 0.001,
                stuck_cycles: 40,
            },
            register: RegisterRates {
                corrupt_read: 0.0005,
                corrupt_write: 0.0005,
            },
            irq: IrqRates {
                drop: 0.02,
                spurious: 0.0001,
                duplicate: 0.02,
            },
            message: MessageRates {
                drop: 0.02,
                duplicate: 0.02,
                delay: 0.05,
                delay_cycles: 64,
            },
        }
    }

    /// Whether every rate is zero (the plan injects nothing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bus.bit_flip == 0.0
            && self.bus.stuck == 0.0
            && self.register.corrupt_read == 0.0
            && self.register.corrupt_write == 0.0
            && self.irq.drop == 0.0
            && self.irq.spurious == 0.0
            && self.irq.duplicate == 0.0
            && self.message.drop == 0.0
            && self.message.duplicate == 0.0
            && self.message.delay == 0.0
    }
}

/// The kind of one injected fault, for records and trace instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// One data bit flipped on a bus read.
    BitFlipRead,
    /// One data bit flipped on a bus write.
    BitFlipWrite,
    /// A bus transaction stuck for extra cycles.
    StuckTransaction,
    /// A register read returned a forged word.
    CorruptRead,
    /// A register write stored a forged word.
    CorruptWrite,
    /// A pending interrupt masked for one sample.
    IrqDropped,
    /// A spurious interrupt asserted on an idle line.
    IrqSpurious,
    /// A just-cleared interrupt re-asserted for one extra sample.
    IrqDuplicated,
    /// A message send lost.
    MsgDropped,
    /// A message send delivered twice.
    MsgDuplicated,
    /// A message send delayed.
    MsgDelayed,
    /// A transient engine-level hardware fault (retried by the
    /// coordinator when a retry policy is installed).
    TransientFault,
    /// An engine wedged permanently (caught by the watchdog).
    PermanentStall,
}

impl FaultKind {
    /// Stable label, used as the trace-instant name and in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BitFlipRead => "bit-flip-read",
            FaultKind::BitFlipWrite => "bit-flip-write",
            FaultKind::StuckTransaction => "stuck-transaction",
            FaultKind::CorruptRead => "corrupt-read",
            FaultKind::CorruptWrite => "corrupt-write",
            FaultKind::IrqDropped => "irq-dropped",
            FaultKind::IrqSpurious => "irq-spurious",
            FaultKind::IrqDuplicated => "irq-duplicated",
            FaultKind::MsgDropped => "msg-dropped",
            FaultKind::MsgDuplicated => "msg-duplicated",
            FaultKind::MsgDelayed => "msg-delayed",
            FaultKind::TransientFault => "transient-fault",
            FaultKind::PermanentStall => "permanent-stall",
        }
    }
}

/// One injected fault: what, where, and when (site-local time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Site-local time of the injection (device cycles, engine local
    /// time, or message-engine time, depending on the site).
    pub time: u64,
    /// The injection site (e.g. `"reg:fifo"`, `"msg:0"`).
    pub site: String,
    /// What was injected.
    pub kind: FaultKind,
    /// Human-readable specifics (`"offset 0x4: 0x5a5a -> 0x1234"`).
    pub detail: String,
}

/// The seeded decision engine shared by every fault wrapper of one run.
///
/// Each injection site draws from its own substream (created lazily,
/// seeded `seed ^ fnv1a(site)`), every decision against a zero rate is
/// answered without consuming randomness, and every injected fault is
/// appended to an in-order [`FaultRecord`] log — optionally mirrored as
/// trace instants on a `faults` track.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    streams: HashMap<String, StdRng>,
    records: Vec<FaultRecord>,
    tracer: Tracer,
    track: TrackId,
}

impl FaultInjector {
    /// Creates an injector for one run of a campaign.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let tracer = Tracer::off();
        let track = tracer.track("faults");
        FaultInjector {
            seed,
            streams: HashMap::new(),
            records: Vec::new(),
            tracer,
            track,
        }
    }

    /// The campaign seed this injector was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mirrors every injected fault as an instant on `track_name` of
    /// `tracer`, timestamped with the fault's site-local time. Tracing
    /// is observational only.
    pub fn set_tracer(&mut self, tracer: &Tracer, track_name: &str) {
        self.tracer = tracer.clone();
        self.track = self.tracer.track(track_name);
    }

    fn stream(&mut self, site: &str) -> &mut StdRng {
        if !self.streams.contains_key(site) {
            self.streams.insert(
                site.to_string(),
                StdRng::seed_from_u64(self.seed ^ fnv1a(site.as_bytes())),
            );
        }
        self.streams.get_mut(site).expect("substream just inserted")
    }

    /// Decides whether a fault with probability `rate` strikes at
    /// `site`. A zero (or negative) rate returns `false` without
    /// touching the site's substream.
    pub fn decide(&mut self, site: &str, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        self.stream(site).gen_bool(rate)
    }

    /// A forged 32-bit word from `site`'s substream.
    pub fn rand_word(&mut self, site: &str) -> u32 {
        self.stream(site).gen::<u32>()
    }

    /// A bit index in `0..32` from `site`'s substream.
    pub fn rand_bit(&mut self, site: &str) -> u32 {
        self.stream(site).gen_range(0u32..32)
    }

    /// Logs one injected fault (and emits a trace instant if a tracer is
    /// installed).
    pub fn record(&mut self, time: u64, site: &str, kind: FaultKind, detail: String) {
        if self.tracer.is_on() {
            self.tracer.instant(
                self.track,
                kind.label(),
                time,
                &[("site", Arg::from(site)), ("detail", Arg::from(&*detail))],
            );
        }
        self.records.push(FaultRecord {
            time,
            site: site.to_string(),
            kind,
            detail,
        });
    }

    /// Every fault injected so far, in injection order.
    #[must_use]
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.records.len() as u64
    }

    /// Serializes the injector's mutable state (substream positions and
    /// the fault log) for checkpointing. The seed is included so a
    /// restore can cross-check it; the tracer is observational and not
    /// serialized. Sites go out in sorted order so identical logical
    /// state always yields identical bytes.
    pub fn save_state(&self, w: &mut codesign_rtl::state::StateWriter) {
        w.u64(self.seed);
        let mut sites: Vec<&String> = self.streams.keys().collect();
        sites.sort();
        w.seq(sites.len());
        for site in sites {
            w.str(site);
            for limb in self.streams[site].state() {
                w.u64(limb);
            }
        }
        w.seq(self.records.len());
        for rec in &self.records {
            w.u64(rec.time);
            w.str(&rec.site);
            w.u8(fault_kind_tag(rec.kind));
            w.str(&rec.detail);
        }
    }

    /// Restores the injector's mutable state from a checkpoint taken by
    /// [`FaultInjector::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`codesign_rtl::RtlError::State`] on truncated or
    /// mismatched bytes (including a seed that differs from this
    /// injector's — a checkpoint only restores the run it was taken in).
    pub fn restore_state(
        &mut self,
        r: &mut codesign_rtl::state::StateReader<'_>,
    ) -> Result<(), codesign_rtl::RtlError> {
        let seed = r.u64()?;
        if seed != self.seed {
            return Err(codesign_rtl::RtlError::State {
                reason: format!(
                    "injector seed mismatch: checkpoint {seed}, run {}",
                    self.seed
                ),
            });
        }
        let n = r.seq(None)?;
        self.streams.clear();
        for _ in 0..n {
            let site = r.str()?.to_string();
            let mut limbs = [0u64; 4];
            for limb in &mut limbs {
                *limb = r.u64()?;
            }
            self.streams.insert(site, StdRng::from_state(limbs));
        }
        let n = r.seq(None)?;
        self.records.clear();
        for _ in 0..n {
            let time = r.u64()?;
            let site = r.str()?.to_string();
            let kind = fault_kind_from_tag(r.u8()?)?;
            let detail = r.str()?.to_string();
            self.records.push(FaultRecord {
                time,
                site,
                kind,
                detail,
            });
        }
        Ok(())
    }
}

/// Stable serialization tag for a [`FaultKind`].
fn fault_kind_tag(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::BitFlipRead => 0,
        FaultKind::BitFlipWrite => 1,
        FaultKind::StuckTransaction => 2,
        FaultKind::CorruptRead => 3,
        FaultKind::CorruptWrite => 4,
        FaultKind::IrqDropped => 5,
        FaultKind::IrqSpurious => 6,
        FaultKind::IrqDuplicated => 7,
        FaultKind::MsgDropped => 8,
        FaultKind::MsgDuplicated => 9,
        FaultKind::MsgDelayed => 10,
        FaultKind::TransientFault => 11,
        FaultKind::PermanentStall => 12,
    }
}

fn fault_kind_from_tag(tag: u8) -> Result<FaultKind, codesign_rtl::RtlError> {
    Ok(match tag {
        0 => FaultKind::BitFlipRead,
        1 => FaultKind::BitFlipWrite,
        2 => FaultKind::StuckTransaction,
        3 => FaultKind::CorruptRead,
        4 => FaultKind::CorruptWrite,
        5 => FaultKind::IrqDropped,
        6 => FaultKind::IrqSpurious,
        7 => FaultKind::IrqDuplicated,
        8 => FaultKind::MsgDropped,
        9 => FaultKind::MsgDuplicated,
        10 => FaultKind::MsgDelayed,
        11 => FaultKind::TransientFault,
        12 => FaultKind::PermanentStall,
        other => {
            return Err(codesign_rtl::RtlError::State {
                reason: format!("unknown fault kind tag {other}"),
            })
        }
    })
}

/// A [`FaultInjector`] shared by every wrapper of one run. Simulation is
/// single-threaded, so `Rc<RefCell<..>>` suffices; wrappers borrow it
/// only for the duration of one decision.
pub type SharedInjector = Rc<RefCell<FaultInjector>>;

/// Creates a [`SharedInjector`] for one seeded run.
#[must_use]
pub fn shared(seed: u64) -> SharedInjector {
    Rc::new(RefCell::new(FaultInjector::new(seed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_empty_and_standard_is_not() {
        assert!(FaultPlan::quiet().is_empty());
        assert!(!FaultPlan::standard().is_empty());
    }

    #[test]
    fn zero_rate_decisions_consume_no_randomness() {
        let mut a = FaultInjector::new(7);
        let mut b = FaultInjector::new(7);
        // `a` answers a thousand zero-rate queries first; its stream
        // must be untouched, so the next real draws agree with `b`'s.
        for _ in 0..1000 {
            assert!(!a.decide("site", 0.0));
        }
        for _ in 0..64 {
            assert_eq!(a.rand_word("site"), b.rand_word("site"));
        }
    }

    #[test]
    fn sites_draw_from_independent_substreams() {
        let mut a = FaultInjector::new(7);
        let mut b = FaultInjector::new(7);
        // Interleave draws on `noise` in one injector only; `site`'s
        // stream must not shift.
        let x: Vec<u32> = (0..16)
            .map(|_| {
                a.rand_word("noise");
                a.rand_word("site")
            })
            .collect();
        let y: Vec<u32> = (0..16).map(|_| b.rand_word("site")).collect();
        assert_eq!(x, y);
    }

    #[test]
    fn identical_seeds_yield_identical_decisions() {
        let mut a = FaultInjector::new(42);
        let mut b = FaultInjector::new(42);
        let da: Vec<bool> = (0..256).map(|_| a.decide("s", 0.3)).collect();
        let db: Vec<bool> = (0..256).map(|_| b.decide("s", 0.3)).collect();
        assert_eq!(da, db);
        let mut c = FaultInjector::new(43);
        let dc: Vec<bool> = (0..256).map(|_| c.decide("s", 0.3)).collect();
        assert_ne!(da, dc, "different seeds should differ somewhere");
    }

    #[test]
    fn records_are_kept_in_order_and_counted() {
        let mut inj = FaultInjector::new(1);
        inj.record(5, "a", FaultKind::BitFlipRead, "bit 3".into());
        inj.record(9, "b", FaultKind::MsgDropped, "64 bytes".into());
        assert_eq!(inj.count(), 2);
        assert_eq!(inj.records()[0].kind, FaultKind::BitFlipRead);
        assert_eq!(inj.records()[1].site, "b");
    }

    #[test]
    fn recorded_faults_become_trace_instants() {
        let tracer = Tracer::on();
        let mut inj = FaultInjector::new(1);
        inj.set_tracer(&tracer, "faults");
        inj.record(5, "a", FaultKind::CorruptRead, String::new());
        assert_eq!(tracer.event_count(), 1);
        codesign_trace::validate_chrome_trace(&tracer.to_chrome_json()).unwrap();
    }

    #[test]
    fn rand_bit_stays_in_word_range() {
        let mut inj = FaultInjector::new(3);
        for _ in 0..256 {
            assert!(inj.rand_bit("s") < 32);
        }
    }
}
