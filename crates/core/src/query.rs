//! The performance-query abstraction served by `perf-service`.
//!
//! The paper's pitch is that a performance interface is cheap enough to
//! query *at scale*: a design-space explorer or an admission controller
//! can ask "what would this workload cost?" thousands of times per
//! second, which a cycle-accurate simulator cannot sustain. This module
//! defines the vocabulary of that query path:
//!
//! * a [`WorkloadSpec`] — an accelerator-agnostic, wire-friendly
//!   description of one workload (a spec kind plus named numeric
//!   fields), cheap to hash and to ship as JSON;
//! * a [`QueryBackend`] — the adapter each accelerator crate implements
//!   to realize specs into workloads and answer predictions from any of
//!   the three interface representations, including the coarse
//!   natural-language closed-form bound used as the last rung of the
//!   service's degradation ladder.
//!
//! The trait lives here (not in `perf-service`) so accelerator crates
//! can implement it without depending on the server, mirroring how
//! [`crate::iface::PerfInterface`] keeps interfaces independent of the
//! validation harness.

use crate::budget::Budget;
use crate::iface::{InterfaceKind, Metric};
use crate::predict::{Observation, Prediction};
use crate::trace::json_escape;
use crate::CoreError;
use std::fmt::Write;
use std::ops::RangeInclusive;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher used for workload-spec fingerprints.
///
/// Deliberately tiny and dependency-free (the workspace carries no
/// hashing crates); the same construction fingerprints VTA instruction
/// streams (`accel_vta::isa::Program::fingerprint`) and Petri-net
/// markings (`perf_petri::Net::fingerprint`).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by its bit pattern (distinguishes `-0.0` from
    /// `0.0`, which is fine for fingerprinting: equal bits hash equal).
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// A wire-friendly description of one workload: a spec `kind` chosen
/// from the backend's [`QueryBackend::spec_kinds`] plus named numeric
/// fields.
///
/// Specs are generator-level (the conformance harness's case specs
/// are `WorkloadSpec`s too): the backend deterministically realizes
/// them into concrete workloads, so a spec is both small on the wire
/// and a stable cache key.
///
/// # Examples
///
/// ```
/// use perf_core::query::WorkloadSpec;
///
/// let spec = WorkloadSpec::new("sized")
///     .with("width", 128.0)
///     .with("height", 64.0)
///     .with("quality", 75.0);
/// assert_eq!(spec.get("width"), Some(128.0));
/// assert_eq!(spec.get_or("seed", 1.0), 1.0);
/// // Field order does not change the fingerprint.
/// let reordered = WorkloadSpec::new("sized")
///     .with("quality", 75.0)
///     .with("height", 64.0)
///     .with("width", 128.0);
/// assert_eq!(spec.fingerprint(), reordered.fingerprint());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Which of the backend's spec shapes this is (e.g. `"sized"`,
    /// `"flat"` for the JPEG decoder).
    pub kind: String,
    /// Named numeric parameters, in insertion order.
    pub fields: Vec<(String, f64)>,
}

impl WorkloadSpec {
    /// Creates a spec of the given kind with no fields.
    pub fn new(kind: impl Into<String>) -> WorkloadSpec {
        WorkloadSpec {
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Adds (or overwrites) a field; returns `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, value: f64) -> WorkloadSpec {
        let name = name.into();
        if let Some(f) = self.fields.iter_mut().find(|(n, _)| *n == name) {
            f.1 = value;
        } else {
            self.fields.push((name, value));
        }
        self
    }

    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a field, falling back to `default` when absent.
    pub fn get_or(&self, name: &str, default: f64) -> f64 {
        self.get(name).unwrap_or(default)
    }

    /// A field interpreted as a non-negative integer (floored); errors
    /// when absent, negative, or non-finite.
    pub fn get_uint(&self, name: &str) -> Result<u64, CoreError> {
        let v = self.get(name).ok_or_else(|| {
            CoreError::Artifact(format!("spec `{}` lacks field `{name}`", self.kind))
        })?;
        if !v.is_finite() || v < 0.0 {
            return Err(CoreError::Artifact(format!(
                "spec `{}` field `{name}` is not a non-negative integer: {v}",
                self.kind
            )));
        }
        Ok(v as u64)
    }

    /// A field as by [`Self::get_uint`] that must also lie in `range`;
    /// the error names the field, the value sent and the range.
    pub fn get_uint_in(&self, name: &str, range: RangeInclusive<u64>) -> Result<u64, CoreError> {
        let v = self.get_uint(name)?;
        if range.contains(&v) {
            return Ok(v);
        }
        Err(CoreError::Artifact(format!(
            "spec `{}` field `{name}` = {} is outside {}..={}",
            self.kind,
            self.get_or(name, f64::NAN),
            range.start(),
            range.end()
        )))
    }

    /// Appends the spec as the line protocol's `spec` object, fields
    /// in insertion order: `{"kind":"sized","width":128.0}`. Integral
    /// values keep one decimal place; other values print in full.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"kind\":\"{}\"", json_escape(&self.kind));
        for (name, v) in &self.fields {
            let _ = if *v == v.trunc() && v.abs() < 1e15 {
                write!(out, ",\"{}\":{v:.1}", json_escape(name))
            } else {
                write!(out, ",\"{}\":{v}", json_escape(name))
            };
        }
        out.push('}');
    }

    /// A 64-bit content fingerprint: FNV-1a over the kind and the
    /// fields in name-sorted order, so field insertion order does not
    /// matter. Used as the service's cache key component.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.kind.as_bytes());
        h.write(&[0xff]);
        let mut sorted: Vec<&(String, f64)> = self.fields.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, value) in sorted {
            h.write(name.as_bytes());
            h.write(&[0xfe]);
            h.write_f64(*value);
        }
        h.finish()
    }
}

/// The adapter one accelerator ships to join the performance-query
/// service: realizes [`WorkloadSpec`]s and answers predictions from
/// each interface representation.
///
/// Implementations live next to the interface bundles in the
/// `accel-*` crates (module `interface::service`). Backends must be
/// cheap to construct — each service worker thread builds its own
/// instances (the interpreter state inside interfaces is not `Send`,
/// so backends never cross threads; only their constructors do) — and
/// `predict` must not run the cycle-accurate simulator;
/// [`QueryBackend::measure`] exists for calibration and tests only.
pub trait QueryBackend {
    /// Accelerator name, matching the conformance report (e.g.
    /// `"jpeg-decoder"`).
    fn accel(&self) -> &'static str;

    /// The spec kinds [`QueryBackend::predict`] accepts, for error
    /// messages and service discovery.
    fn spec_kinds(&self) -> &'static [&'static str];

    /// Predicts `metric` for the workload described by `spec` using
    /// representation `repr`.
    ///
    /// `InterfaceKind::NaturalLanguage` must be answered with the
    /// closed-form bound (an interval wide enough to contain the true
    /// value), never by silently upgrading to a costlier
    /// representation: the service's degradation ladder relies on each
    /// rung honestly reporting its own precision.
    fn predict(
        &mut self,
        spec: &WorkloadSpec,
        repr: InterfaceKind,
        metric: Metric,
    ) -> Result<Prediction, CoreError>;

    /// The conformance error budget for one (representation, metric)
    /// channel — what a response served from that representation is
    /// accountable to.
    fn budget(&self, repr: InterfaceKind, metric: Metric) -> Budget;

    /// A cache fingerprint for `spec` as evaluated by `repr`.
    ///
    /// Defaults to the spec's own content fingerprint mixed with the
    /// accelerator name and representation. Backends override this
    /// when a deeper key canonicalizes better — VTA hashes the
    /// realized instruction stream (`Program::fingerprint`), the JPEG
    /// Petri tier hashes the net structure plus the injected marking —
    /// so distinct specs that evaluate identically share a cache slot.
    fn fingerprint(&mut self, spec: &WorkloadSpec, repr: InterfaceKind) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.accel().as_bytes());
        h.write(&[repr as u8]);
        h.write_u64(spec.fingerprint());
        h.finish()
    }

    /// Ground truth: realizes the spec and runs the cycle-accurate
    /// simulator. For conformance spot-checks and service tests only —
    /// never on the serving hot path.
    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_insensitive_and_content_sensitive() {
        let a = WorkloadSpec::new("k").with("x", 1.0).with("y", 2.0);
        let b = WorkloadSpec::new("k").with("y", 2.0).with("x", 1.0);
        let c = WorkloadSpec::new("k").with("x", 1.0).with("y", 3.0);
        let d = WorkloadSpec::new("other").with("x", 1.0).with("y", 2.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn with_overwrites_existing_field() {
        let s = WorkloadSpec::new("k").with("x", 1.0).with("x", 5.0);
        assert_eq!(s.fields.len(), 1);
        assert_eq!(s.get("x"), Some(5.0));
    }

    #[test]
    fn get_uint_validates() {
        let s = WorkloadSpec::new("k").with("n", 3.9).with("neg", -1.0);
        assert_eq!(s.get_uint("n").unwrap(), 3);
        assert!(s.get_uint("neg").is_err());
        assert!(s.get_uint("missing").is_err());
    }

    #[test]
    fn get_uint_in_names_field_value_and_range() {
        let s = WorkloadSpec::new("k").with("n", 9.5).with("big", 1e9);
        assert_eq!(s.get_uint_in("n", 1..=9).unwrap(), 9);
        let e = s.get_uint_in("big", 0..=63).unwrap_err();
        let want = "spec `k` field `big` = 1000000000 is outside 0..=63";
        assert_eq!(e, CoreError::Artifact(want.into()));
        assert!(s.get_uint_in("n", 10..=20).is_err());
        assert!(s.get_uint_in("missing", 0..=1).is_err());
    }

    #[test]
    fn write_json_renders_the_protocol_spec_object() {
        let s = WorkloadSpec::new("k\"q")
            .with("n", 3.0)
            .with("x", 0.25)
            .with("big", 1e15)
            .with("neg", -2.0);
        let mut out = String::from("spec=");
        s.write_json(&mut out);
        let want = r#"spec={"kind":"k\"q","n":3.0,"x":0.25,"big":1000000000000000,"neg":-2.0}"#;
        assert_eq!(out, want);
    }

    #[test]
    fn fnv_distinguishes_field_boundaries() {
        // ("ab", "c") must not collide with ("a", "bc").
        let a = WorkloadSpec::new("k").with("ab", 0.0);
        let b = WorkloadSpec::new("k").with("a", 0.0).with("b", 0.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
