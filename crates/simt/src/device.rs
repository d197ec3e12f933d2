//! The simulated device: arena + clock + launch front-end.
//!
//! A [`Device`] owns its memory arena and a simulated wall clock. Every
//! operation — context creation, host↔device copies, primitive calls,
//! kernel launches — advances the clock by the modeled cost and appends to
//! a time log, which is how the end-to-end pipeline reproduces the paper's
//! measurement protocol ("we started each measurement just before the edge
//! array is copied … finished right after the final result was copied back
//! and the GPU memory was freed", §IV).

use crate::arena::{Arena, DeviceBuffer, DeviceScalar};
use crate::config::DeviceConfig;
use crate::error::SimtError;
use crate::executor::{simulate, simulate_hooked, KernelStats, LaunchConfig};
use crate::kernel::Kernel;
use crate::profiler::{Counters, OpenSpan, ProfileReport, Span};
use crate::sanitizer::{self, Finding, Lint, SanitizerMode, SanitizerReport, SmCheck};
use crate::verifier::{self, Interval, VerifierFinding, VerifierReport};

/// One entry of the device time log.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedOp {
    pub label: String,
    /// Device-clock start of the op, seconds (real timestamp, so traces
    /// and spans nest correctly).
    pub start_s: f64,
    pub seconds: f64,
}

impl TimedOp {
    /// Convenience constructor for tests and synthetic logs: an op that
    /// starts at `start_s` and lasts `seconds`.
    pub fn new(label: impl Into<String>, start_s: f64, seconds: f64) -> Self {
        TimedOp {
            label: label.into(),
            start_s,
            seconds,
        }
    }

    #[inline]
    pub fn end_s(&self) -> f64 {
        self.start_s + self.seconds
    }
}

/// A simulated GPU.
///
/// ```
/// use tc_simt::{Device, DeviceConfig};
/// let mut dev = Device::new(DeviceConfig::gtx_980());
/// dev.preinit_context();           // the paper's cudaFree(NULL) trick
/// dev.reset_clock();
/// let buf = dev.htod_copy(&[1u32, 2, 3]).unwrap();
/// assert_eq!(dev.dtoh(&buf), vec![1, 2, 3]);
/// assert!(dev.elapsed() > 0.0);    // PCIe transfers cost simulated time
/// ```
#[derive(Debug)]
pub struct Device {
    cfg: DeviceConfig,
    arena: Arena,
    now_s: f64,
    context_ready: bool,
    log: Vec<TimedOp>,
    counters: Counters,
    span_stack: Vec<OpenSpan>,
    spans: Vec<Span>,
    findings: Vec<Finding>,
    lints: Vec<Lint>,
    /// Static launch verifier on/off (host-side only — never charges
    /// modeled time).
    verifier: bool,
    vfindings: Vec<VerifierFinding>,
    launches_checked: u64,
    launches_proven: u64,
    racechecks_skipped: u64,
    passes_checked: u64,
}

impl Device {
    pub fn new(cfg: DeviceConfig) -> Self {
        let mut arena = Arena::new(cfg.memory_capacity);
        arena.set_sanitizer(cfg.sanitizer);
        Device {
            verifier: cfg.verifier,
            cfg,
            arena,
            now_s: 0.0,
            context_ready: false,
            log: Vec::new(),
            counters: Counters::default(),
            span_stack: Vec::new(),
            spans: Vec::new(),
            findings: Vec::new(),
            lints: Vec::new(),
            vfindings: Vec::new(),
            launches_checked: 0,
            launches_proven: 0,
            racechecks_skipped: 0,
            passes_checked: 0,
        }
    }

    /// Switch the sanitizer on or off for this device's next session.
    /// Installing a shadow adopts live allocations (contents treated as
    /// initialized); any previously accumulated findings and lints are
    /// discarded either way.
    pub fn set_sanitizer_mode(&mut self, mode: SanitizerMode) {
        self.arena.set_sanitizer(mode);
        self.findings.clear();
        self.lints.clear();
    }

    /// The sanitizer mode currently active on this device.
    #[inline]
    pub fn sanitizer_mode(&self) -> SanitizerMode {
        self.arena.sanitizer_mode()
    }

    /// Switch the static launch verifier on or off. Any accumulated
    /// verifier findings and counters are discarded either way. The
    /// verifier is purely host-side: it never charges modeled time.
    pub fn set_verifier(&mut self, on: bool) {
        self.verifier = on;
        self.vfindings.clear();
        self.launches_checked = 0;
        self.launches_proven = 0;
        self.racechecks_skipped = 0;
        self.passes_checked = 0;
    }

    /// Whether the static launch verifier is currently active.
    #[inline]
    pub fn verifier_enabled(&self) -> bool {
        self.verifier
    }

    /// Snapshot the static verifier's report so far. `None` when the
    /// verifier is off.
    pub fn verifier_report(&self) -> Option<VerifierReport> {
        if !self.verifier {
            return None;
        }
        Some(VerifierReport {
            device: self.cfg.name.to_string(),
            launches_checked: self.launches_checked,
            launches_proven: self.launches_proven,
            racechecks_skipped: self.racechecks_skipped,
            passes_checked: self.passes_checked,
            findings: self.vfindings.clone(),
        })
    }

    /// Statically check an analytic host pass (the primitives family peeks,
    /// computes on the host, and pokes results back) against the live
    /// allocation map. Declared read intervals tolerate the arena's guard
    /// bytes; write intervals do not. Infallible: findings are recorded in
    /// the verifier report rather than failing the pass, because analytic
    /// passes have already modeled their cost when this runs. No-op when
    /// the verifier is off.
    pub fn verify_pass(&mut self, label: &str, reads: &[Interval], writes: &[Interval]) {
        if !self.verifier {
            return;
        }
        self.passes_checked += 1;
        let phase = self.current_phase();
        self.vfindings.extend(verifier::check_host_pass(
            &self.arena,
            label,
            &phase,
            reads,
            writes,
        ));
    }

    /// Snapshot the sanitizer's findings and lints so far. `None` when the
    /// sanitizer is off. Violations recorded by untimed host reads
    /// ([`Device::peek`]) that no timed op has attributed yet are included
    /// under the op label `"host"`.
    pub fn sanitizer_report(&self) -> Option<SanitizerReport> {
        let mode = self.arena.sanitizer_mode();
        if !mode.is_on() {
            return None;
        }
        let mut findings = self.findings.clone();
        let phase = self.current_phase();
        findings.extend(
            self.arena
                .pending_violations()
                .into_iter()
                .map(|r| r.into_finding("host", &phase)),
        );
        Some(SanitizerReport {
            mode,
            device: self.cfg.name.to_string(),
            findings,
            lints: self.lints.clone(),
        })
    }

    fn current_phase(&self) -> String {
        self.span_stack
            .last()
            .map(|s| s.path.clone())
            .unwrap_or_default()
    }

    /// Attribute raw violations queued by host-side arena ops to the op
    /// label that produced them and the currently open phase.
    fn drain_violations(&mut self, label: &str) {
        if self.arena.sanitizer_mode().is_on() {
            let raws = self.arena.take_violations();
            if !raws.is_empty() {
                let phase = self.current_phase();
                self.findings
                    .extend(raws.into_iter().map(|r| r.into_finding(label, &phase)));
            }
        }
    }

    #[inline]
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Simulated seconds elapsed since construction or the last
    /// [`Device::reset_clock`].
    #[inline]
    pub fn elapsed(&self) -> f64 {
        self.now_s
    }

    /// Zero the clock, the time log, the counters, and the recorded spans
    /// (the paper resets its stopwatch after pre-initializing the context).
    pub fn reset_clock(&mut self) {
        self.now_s = 0.0;
        self.log.clear();
        self.counters = Counters::default();
        self.span_stack.clear();
        self.spans.clear();
    }

    /// Prepare a (warm) device for a fresh measured session: zero the clock
    /// and profiler state like [`Device::reset_clock`], and — when no
    /// allocations are live — rewind the arena so the session allocates the
    /// same addresses a cold device would. The context stays warm, which is
    /// the point of recycling. Returns whether the arena rewind happened.
    pub fn recycle(&mut self) -> bool {
        self.reset_clock();
        self.arena.reset_unused()
    }

    /// The operations charged so far.
    pub fn time_log(&self) -> &[TimedOp] {
        &self.log
    }

    /// Whole-run hardware-counter totals since the last reset.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Closed profiling spans, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a named profiling phase. Phases nest: a push while another
    /// phase is open records a child span whose path is
    /// `"parent/child"`. Every charged op between push and pop — copies,
    /// primitive passes, kernel launches — is attributed to the phase via
    /// counter snapshot-and-delta.
    pub fn push_phase(&mut self, name: &str) {
        let path = match self.span_stack.last() {
            Some(parent) => format!("{}/{}", parent.path, name),
            None => name.to_string(),
        };
        self.span_stack.push(OpenSpan {
            path,
            depth: self.span_stack.len(),
            start_s: self.now_s,
            first_op: self.log.len(),
            snapshot: self.counters,
        });
    }

    /// Close the innermost open phase, recording its [`Span`].
    ///
    /// # Panics
    /// Panics if no phase is open (push/pop mismatch is a programming
    /// error in the pipeline, not a runtime condition).
    pub fn pop_phase(&mut self) {
        let open = self.span_stack.pop().expect("pop_phase with no open phase");
        self.spans.push(Span {
            path: open.path,
            depth: open.depth,
            start_s: open.start_s,
            end_s: self.now_s,
            first_op: open.first_op,
            end_op: self.log.len(),
            counters: self.counters.delta(&open.snapshot),
        });
    }

    /// Run `f` inside a named phase (push/pop bracketed even on early
    /// return of a value).
    pub fn with_phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_phase(name);
        let out = f(self);
        self.pop_phase();
        out
    }

    /// Snapshot the run so far as a [`ProfileReport`].
    pub fn profile(&self) -> ProfileReport {
        ProfileReport {
            device: self.cfg.name.to_string(),
            peak_bandwidth_gbs: self.cfg.dram_bandwidth_gbs,
            devices: 1,
            total_s: self.now_s,
            totals: self.counters,
            spans: self.spans.clone(),
        }
    }

    /// Pre-create the CUDA context (the paper's `cudaFree(NULL)` trick):
    /// pays the ~100 ms once, so the first real allocation doesn't.
    pub fn preinit_context(&mut self) {
        if !self.context_ready {
            let cost = self.cfg.context_init_ms * 1e-3;
            self.advance("context-init", cost);
            self.context_ready = true;
        }
    }

    fn ensure_context(&mut self) {
        if !self.context_ready {
            let cost = self.cfg.context_init_ms * 1e-3;
            self.advance("context-init (lazy, first malloc)", cost);
            self.context_ready = true;
        }
    }

    pub(crate) fn advance(&mut self, label: &str, seconds: f64) {
        self.drain_violations(label);
        self.log.push(TimedOp {
            label: label.to_string(),
            start_s: self.now_s,
            seconds,
        });
        self.now_s += seconds;
    }

    /// Charge an analytic streaming pass and attribute its counters
    /// (used by the Thrust-style primitives).
    pub(crate) fn charge_stream_pass(
        &mut self,
        label: &str,
        seconds: f64,
        read_bytes: u64,
        write_bytes: u64,
    ) {
        self.counters
            .absorb_stream_pass(seconds, read_bytes, write_bytes, self.cfg.line_bytes);
        self.advance(label, seconds);
    }

    /// Allocate a typed device buffer (`cudaMalloc`).
    pub fn alloc<T: DeviceScalar>(&mut self, len: usize) -> Result<DeviceBuffer<T>, SimtError> {
        self.ensure_context();
        let addr = self.arena.alloc((len * T::BYTES) as u64)?;
        Ok(DeviceBuffer::new(addr, len))
    }

    /// Free a buffer (`cudaFree`).
    pub fn free<T: DeviceScalar>(&mut self, buf: DeviceBuffer<T>) -> Result<(), SimtError> {
        let out = self.arena.free(buf.addr());
        self.drain_violations("free");
        out
    }

    /// Allocate and fill from host data, charging the PCIe transfer.
    pub fn htod_copy<T: DeviceScalar>(&mut self, src: &[T]) -> Result<DeviceBuffer<T>, SimtError> {
        let buf = self.alloc::<T>(src.len())?;
        self.htod_write(&buf, src)?;
        Ok(buf)
    }

    /// Overwrite an existing buffer from host data, charging PCIe time.
    pub fn htod_write<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        src: &[T],
    ) -> Result<(), SimtError> {
        if src.len() != buf.len() {
            return Err(SimtError::LengthMismatch {
                expected: buf.len(),
                got: src.len(),
            });
        }
        self.arena.write_slice(buf, src);
        let secs = buf.byte_len() as f64 / (self.cfg.pcie_bandwidth_gbs * 1e9);
        self.counters.htod_bytes += buf.byte_len();
        self.advance("htod", secs);
        Ok(())
    }

    /// Copy a buffer back to the host, charging PCIe time.
    pub fn dtoh<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) -> Vec<T> {
        let out = self.arena.read_slice(buf);
        let secs = buf.byte_len() as f64 / (self.cfg.pcie_bandwidth_gbs * 1e9);
        self.counters.dtoh_bytes += buf.byte_len();
        self.advance("dtoh", secs);
        out
    }

    /// Host-side debug read without timing (not part of the measured
    /// protocol; tests use it to inspect device state).
    pub fn peek<T: DeviceScalar>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        self.arena.read_slice(buf)
    }

    /// Host-side debug write without timing.
    pub fn poke<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, src: &[T]) {
        self.arena.write_slice(buf, src);
        self.drain_violations("poke");
    }

    /// Launch a kernel under cycle simulation; commits its stores and
    /// advances the clock by the simulated kernel time. With the sanitizer
    /// on, each SM checks its lane accesses as it issues them (memcheck,
    /// initcheck), and the launch is racechecked and linted before the
    /// stores commit; stores the shadow rejects are skipped so the run
    /// survives to report them.
    pub fn launch<K: Kernel>(
        &mut self,
        label: &str,
        lc: LaunchConfig,
        kernel: &K,
    ) -> Result<KernelStats, SimtError> {
        self.ensure_context();
        // Pre-launch static verification: prove the declared footprint
        // in-bounds and race-free against the live allocation map before
        // any lane runs. Host-side only — charges no modeled time.
        let mut contract = None;
        let mut proven_race_free = false;
        if self.verifier {
            let total = lc.active_threads(self.cfg.warp_size);
            contract = kernel.contract(lc, total);
            let phase = self.current_phase();
            let check = verifier::check_launch_static(
                contract.as_ref(),
                lc,
                &self.cfg,
                &self.arena,
                label,
                &phase,
            );
            self.launches_checked += 1;
            if !check.findings.is_empty() {
                let n = check.findings.len();
                self.vfindings.extend(check.findings);
                return Err(SimtError::VerifierRejected { findings: n });
            }
            proven_race_free = check.race_free;
            if proven_race_free {
                self.launches_proven += 1;
            }
        }
        let mode = self.arena.sanitizer_mode();
        if mode.is_on() {
            // A statically proven launch needs no dynamic race sweep in
            // Check mode; Paranoid still sweeps, and with the verifier on
            // keeps the whole access log to cross-validate the contract
            // against the observed trace below.
            let racecheck = !(proven_race_free && mode == SanitizerMode::Check);
            if !racecheck {
                self.racechecks_skipped += 1;
            }
            let contained = contract
                .as_ref()
                .filter(|_| self.verifier && mode >= SanitizerMode::Paranoid);
            let log = contained.is_some();
            let view = self.arena.shadow().expect("sanitizer is on").view();
            let (stats, writes, sms) = simulate_hooked(&self.cfg, &self.arena, lc, kernel, || {
                SmCheck::new(view, racecheck && !log, log)
            })?;
            let phase = self.current_phase();
            let checked = sanitizer::finish_launch(view, sms, &stats, label, &phase, racecheck);
            if let Some(c) = contained {
                let total = lc.active_threads(self.cfg.warp_size);
                self.vfindings.extend(verifier::check_trace_containment(
                    c,
                    checked.logs.iter().flatten(),
                    lc,
                    total,
                    label,
                    &phase,
                ));
            }
            self.findings.extend(checked.findings);
            self.lints.extend(checked.lints);
            for w in writes {
                self.arena.commit_store(w.addr, w.bytes, w.value);
            }
            self.counters.absorb_kernel(&stats);
            self.advance(label, stats.time_s);
            return Ok(stats);
        }
        let (stats, writes) = simulate(&self.cfg, &self.arena, lc, kernel)?;
        for w in writes {
            self.arena.commit_store(w.addr, w.bytes, w.value);
        }
        self.counters.absorb_kernel(&stats);
        self.advance(label, stats.time_s);
        Ok(stats)
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> u64 {
        self.arena.used()
    }

    /// Peak allocation high-water mark.
    pub fn mem_peak(&self) -> u64 {
        self.arena.peak()
    }

    pub fn mem_capacity(&self) -> u64 {
        self.arena.capacity()
    }

    /// Would `bytes` more fit right now? (§III-D6 capacity planning.)
    pub fn fits(&self, bytes: u64) -> bool {
        self.arena.fits(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_roundtrip_and_charge_time() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        dev.preinit_context();
        dev.reset_clock();
        let data: Vec<u32> = (0..1000).collect();
        let buf = dev.htod_copy(&data).unwrap();
        let t_after_up = dev.elapsed();
        assert!(t_after_up > 0.0);
        let back = dev.dtoh(&buf);
        assert_eq!(back, data);
        assert!(dev.elapsed() > t_after_up);
        assert_eq!(dev.time_log().len(), 2);
    }

    #[test]
    fn lazy_context_init_charges_100ms_once() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        let _ = dev.alloc::<u32>(16).unwrap();
        assert!(dev.elapsed() >= 0.1, "first malloc must pay context init");
        let t = dev.elapsed();
        let _ = dev.alloc::<u32>(16).unwrap();
        assert_eq!(dev.elapsed(), t, "second malloc is free of context cost");
    }

    #[test]
    fn preinit_moves_cost_out_of_the_measured_window() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        dev.preinit_context();
        dev.reset_clock();
        let _ = dev.alloc::<u32>(16).unwrap();
        assert!(dev.elapsed() < 1e-3);
    }

    #[test]
    fn capacity_is_enforced() {
        let cfg = DeviceConfig::gtx_980().with_memory_capacity(1024);
        let mut dev = Device::new(cfg);
        assert!(dev.alloc::<u32>(200).is_ok());
        assert!(matches!(
            dev.alloc::<u32>(200),
            Err(SimtError::OutOfMemory { .. })
        ));
        assert!(dev.fits(100));
        assert!(!dev.fits(1000));
    }

    #[test]
    fn free_returns_budget() {
        let cfg = DeviceConfig::gtx_980().with_memory_capacity(1024);
        let mut dev = Device::new(cfg);
        let b = dev.alloc::<u32>(200).unwrap();
        dev.free(b).unwrap();
        assert!(dev.alloc::<u32>(200).is_ok());
        assert_eq!(dev.mem_peak(), 800);
    }

    #[test]
    fn mismatched_write_is_rejected() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        let buf = dev.alloc::<u32>(4).unwrap();
        assert!(matches!(
            dev.htod_write(&buf, &[1, 2, 3]),
            Err(SimtError::LengthMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn peek_and_poke_do_not_advance_clock() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        dev.preinit_context();
        dev.reset_clock();
        let buf = dev.alloc::<u32>(4).unwrap();
        dev.poke(&buf, &[9, 8, 7, 6]);
        assert_eq!(dev.peek(&buf), vec![9, 8, 7, 6]);
        assert_eq!(dev.elapsed(), 0.0);
    }
}
