//! Engine-level faults: the wrapper that exercises the coordinator's
//! retry policy and no-progress watchdog.
//!
//! [`FaultyEngine`] wraps any [`SimEngine`] and injects two failure
//! shapes:
//!
//! * **transient faults** — with probability `transient` per
//!   `advance_to`, the call fails with
//!   [`SimError::Hardware`]`(`[`RtlError::BusFault`]`)` *before*
//!   touching the wrapped engine. A coordinator with a
//!   [`RetryPolicy`](codesign_sim::engine::RetryPolicy) absorbs these
//!   with bounded backoff (the *recovered* campaign class); without
//!   one they propagate (*detected*).
//! * **permanent stalls** — with probability `stall` per `advance_to`
//!   (or deterministically at [`FaultyEngine::with_stall_at`]), the
//!   engine wedges: its local clock freezes, it never reports done,
//!   and it withdraws its lookahead hint. The coordinator's watchdog
//!   converts the would-be infinite loop into a structured
//!   [`SimError::Watchdog`](codesign_sim::error::SimError::Watchdog)
//!   (the *hang-caught* class).
//!
//! With both rates zero the wrapper is an exact pass-through (it even
//! forwards `as_any`, so typed downcasts reach the wrapped engine).

use codesign_rtl::state::{StateReader, StateWriter};
use codesign_rtl::RtlError;
use codesign_sim::engine::SimEngine;
use codesign_sim::error::SimError;

use crate::plan::{FaultKind, SharedInjector};

/// Bus address reported by injected transient faults; recognizable in
/// diagnostics and distinct from any mapped device.
pub const TRANSIENT_FAULT_ADDR: u32 = 0xFA17_0000;

/// A [`SimEngine`] wrapper injecting transient hardware faults and
/// permanent stalls.
#[derive(Debug)]
pub struct FaultyEngine {
    inner: Box<dyn SimEngine>,
    injector: SharedInjector,
    site: String,
    transient: f64,
    stall: f64,
    stall_at: Option<u64>,
    stalled: bool,
}

impl FaultyEngine {
    /// Wraps `inner`; `transient` and `stall` are per-`advance_to`
    /// probabilities (zero disables the respective model).
    #[must_use]
    pub fn new(
        inner: Box<dyn SimEngine>,
        injector: SharedInjector,
        transient: f64,
        stall: f64,
    ) -> Self {
        let site = format!("engine:{}", inner.name());
        FaultyEngine {
            inner,
            injector,
            site,
            transient,
            stall,
            stall_at: None,
            stalled: false,
        }
    }

    /// Additionally wedges the engine permanently once a horizon at or
    /// beyond `t` is requested (deterministic, for tests).
    #[must_use]
    pub fn with_stall_at(mut self, t: u64) -> Self {
        self.stall_at = Some(t);
        self
    }

    /// The wrapped engine.
    #[must_use]
    pub fn inner(&self) -> &dyn SimEngine {
        self.inner.as_ref()
    }

    fn wedge(&mut self) {
        self.stalled = true;
        self.injector.borrow_mut().record(
            self.inner.local_time(),
            &self.site,
            FaultKind::PermanentStall,
            "engine wedged; clock frozen".into(),
        );
    }
}

impl SimEngine for FaultyEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn local_time(&self) -> u64 {
        self.inner.local_time()
    }

    fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
        if self.stalled {
            return Ok(());
        }
        if let Some(at) = self.stall_at {
            if t >= at {
                self.inner.advance_to(at.max(self.inner.local_time()))?;
                self.wedge();
                return Ok(());
            }
        }
        let (stall, transient) = {
            let mut inj = self.injector.borrow_mut();
            let stall = inj.decide(&self.site, self.stall);
            let transient = !stall && inj.decide(&self.site, self.transient);
            (stall, transient)
        };
        if stall {
            self.wedge();
            return Ok(());
        }
        if transient {
            self.injector.borrow_mut().record(
                self.inner.local_time(),
                &self.site,
                FaultKind::TransientFault,
                format!("advance to {t} failed transiently"),
            );
            return Err(SimError::Hardware(RtlError::BusFault {
                addr: TRANSIENT_FAULT_ADDR,
            }));
        }
        self.inner.advance_to(t)
    }

    fn is_done(&self) -> bool {
        // A wedged engine never finishes: the watchdog, not completion,
        // ends the run.
        !self.stalled && self.inner.is_done()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn next_event_hint(&self) -> Option<u64> {
        if self.stalled || self.transient > 0.0 || self.stall > 0.0 {
            // A wrapper that can fault on any call can make no quiet
            // promise; stay fully conservative.
            return None;
        }
        match self.stall_at {
            Some(at) => Some(self.inner.next_event_hint()?.min(at)),
            None => self.inner.next_event_hint(),
        }
    }

    fn diagnostics(&self) -> String {
        if self.stalled {
            format!(
                "wedged by injected permanent stall at {}",
                self.local_time()
            )
        } else {
            self.inner.diagnostics()
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }

    fn supports_snapshot(&self) -> bool {
        self.inner.supports_snapshot()
    }

    fn save_state(&self, w: &mut StateWriter) {
        // Wrapper latch first, then the wrapped engine. The injector's
        // substreams are shared state, checkpointed by the run harness.
        w.bool(self.stalled);
        self.inner.save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SimError> {
        self.stalled = r.bool()?;
        self.inner.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_sim::engine::{Coordinator, RetryPolicy};

    use crate::plan::shared;

    /// Work until `work`, clock follows the horizon (floor convention).
    #[derive(Debug)]
    struct Worker {
        name: &'static str,
        time: u64,
        work: u64,
    }

    impl SimEngine for Worker {
        fn name(&self) -> &str {
            self.name
        }
        fn local_time(&self) -> u64 {
            self.time
        }
        fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
            self.time = t;
            Ok(())
        }
        fn is_done(&self) -> bool {
            self.time >= self.work
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn next_event_hint(&self) -> Option<u64> {
            Some(if self.is_done() { u64::MAX } else { self.work })
        }
    }

    fn worker(name: &'static str, work: u64) -> Box<dyn SimEngine> {
        Box::new(Worker {
            name,
            time: 0,
            work,
        })
    }

    #[test]
    fn quiet_wrapper_is_a_pass_through() {
        let mut baseline = Coordinator::new(16);
        baseline.add_engine(worker("w", 100));
        let expected = baseline.run(10_000).unwrap();

        let injector = shared(1);
        let mut coord = Coordinator::new(16);
        coord.add_engine(Box::new(FaultyEngine::new(
            worker("w", 100),
            injector.clone(),
            0.0,
            0.0,
        )));
        let stats = coord.run(10_000).unwrap();
        assert_eq!(stats, expected);
        assert_eq!(injector.borrow().count(), 0);
    }

    #[test]
    fn deterministic_stall_is_caught_by_the_watchdog() {
        let injector = shared(1);
        let mut coord = Coordinator::new(16);
        coord.add_engine(worker("healthy", 100));
        coord.add_engine(Box::new(
            FaultyEngine::new(worker("victim", 10_000), injector.clone(), 0.0, 0.0)
                .with_stall_at(48),
        ));
        let err = coord.run(u64::MAX).unwrap_err();
        let SimError::Watchdog { snapshot } = err else {
            panic!("expected watchdog, got {err:?}");
        };
        assert_eq!(snapshot.stuck(), vec!["victim"]);
        let stuck = &snapshot.engines[1];
        assert_eq!(stuck.local_time, 48);
        assert!(stuck.detail.contains("injected permanent stall"));
        assert_eq!(
            injector.borrow().records()[0].kind,
            FaultKind::PermanentStall
        );
    }

    #[test]
    fn transient_faults_are_absorbed_by_the_retry_policy() {
        let injector = shared(2);
        let mut coord = Coordinator::new(16);
        coord.set_retry(Some(RetryPolicy::default()));
        coord.add_engine(Box::new(FaultyEngine::new(
            worker("w", 4_000),
            injector.clone(),
            0.05,
            0.0,
        )));
        let stats = coord.run(u64::MAX).unwrap();
        assert_eq!(stats.time, 4_000, "retries must not change simulated time");
        assert!(stats.retries > 0, "a 5% rate over 250 rounds should fault");
        assert_eq!(injector.borrow().count(), stats.retries);
    }

    #[test]
    fn transient_faults_propagate_without_a_retry_policy() {
        let injector = shared(2);
        let mut coord = Coordinator::new(16);
        coord.add_engine(Box::new(FaultyEngine::new(
            worker("w", 4_000),
            injector,
            0.05,
            0.0,
        )));
        assert!(matches!(
            coord.run(u64::MAX),
            Err(SimError::Hardware(RtlError::BusFault {
                addr: TRANSIENT_FAULT_ADDR
            }))
        ));
    }

    #[test]
    fn downcasts_reach_the_wrapped_engine() {
        let injector = shared(1);
        let eng = FaultyEngine::new(worker("w", 10), injector, 0.0, 0.0);
        assert!(eng.as_any().downcast_ref::<Worker>().is_some());
    }
}
