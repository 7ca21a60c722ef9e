//! Wire types of the query protocol.
//!
//! One JSON value per line in each direction. A request line is either
//! a single request object or an array of them (a batch); every
//! request produces exactly one response line. Requests look like:
//!
//! ```json
//! {"id": 1, "accel": "jpeg-decoder", "metric": "latency",
//!  "repr": "auto", "deadline_us": 2000,
//!  "spec": {"kind": "sized", "width": 128, "height": 64, "quality": 60}}
//! ```
//!
//! and responses like:
//!
//! ```json
//! {"id": 1, "accel": "jpeg-decoder", "metric": "latency", "status": "ok",
//!  "repr_used": "petri", "degraded": false, "cache_hit": false,
//!  "prediction": {"lo": 12733.0, "hi": 12733.0},
//!  "budget": {"avg": 0.01, "max": 0.05, "atol": 8.0},
//!  "queue_us": 13.0, "service_us": 480.0}
//! ```
//!
//! Every `spec` key other than `"kind"` is a numeric workload field,
//! passed through verbatim to the accelerator backend.

use crate::json::Json;
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::WorkloadSpec;
use perf_core::trace::json_escape;
use perf_core::{Budget, Prediction};
use std::fmt::Write;

/// Which representation the client wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReprChoice {
    /// Most precise representation the deadline affords (the service
    /// may degrade down the ladder).
    Auto,
    /// Exactly this representation — still subject to degradation
    /// below it when the deadline is short.
    Ceiling(InterfaceKind),
}

/// One performance query.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Accelerator name: a row of [`perf_compose::ACCELS`] or a
    /// `pipe:<chain>` composite (see [`crate::registry::backend`]).
    pub accel: String,
    /// The workload description.
    pub spec: WorkloadSpec,
    /// Which metric to predict.
    pub metric: Metric,
    /// Representation ceiling.
    pub repr: ReprChoice,
    /// Per-request deadline in microseconds from admission, if any.
    pub deadline_us: Option<u64>,
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Answered.
    Answer {
        /// The predicted value or interval.
        prediction: Prediction,
        /// The representation that actually produced the answer.
        repr_used: InterfaceKind,
        /// Whether the service degraded below the requested ceiling.
        degraded: bool,
        /// The conformance budget the answer is accountable to.
        budget: Budget,
        /// Whether the answer came from the result cache.
        cache_hit: bool,
        /// Microseconds spent queued before a worker picked it up.
        queue_us: f64,
        /// Microseconds of evaluation (0 for cache hits).
        service_us: f64,
    },
    /// Dropped at admission: the queue was full.
    Rejected,
    /// The deadline expired before a worker could serve it.
    Expired,
    /// The backend failed (unknown accelerator, malformed spec, ...).
    Error(String),
}

/// One response, correlated to its request by `id`.
#[derive(Clone, Debug)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Echo of the accelerator name.
    pub accel: String,
    /// Echo of the metric.
    pub metric: Metric,
    /// The result.
    pub outcome: Outcome,
}

/// Short wire name of a representation.
pub fn repr_name(kind: InterfaceKind) -> &'static str {
    match kind {
        InterfaceKind::NaturalLanguage => "nl",
        InterfaceKind::Program => "program",
        InterfaceKind::PetriNet => "petri",
    }
}

fn parse_repr(s: &str) -> Result<ReprChoice, String> {
    match s {
        "auto" => Ok(ReprChoice::Auto),
        "nl" => Ok(ReprChoice::Ceiling(InterfaceKind::NaturalLanguage)),
        "program" => Ok(ReprChoice::Ceiling(InterfaceKind::Program)),
        "petri" => Ok(ReprChoice::Ceiling(InterfaceKind::PetriNet)),
        other => Err(format!(
            "unknown repr `{other}` (expected auto|nl|program|petri)"
        )),
    }
}

fn parse_metric(s: &str) -> Result<Metric, String> {
    match s {
        "latency" => Ok(Metric::Latency),
        "throughput" => Ok(Metric::Throughput),
        other => Err(format!(
            "unknown metric `{other}` (expected latency|throughput)"
        )),
    }
}

impl Request {
    /// Decodes one request from a parsed JSON object.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let obj = v.as_obj().ok_or("request must be a JSON object")?;
        let id = v.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let accel = v
            .get("accel")
            .and_then(Json::as_str)
            .ok_or("missing string field `accel`")?
            .to_string();
        let metric = parse_metric(
            v.get("metric")
                .and_then(Json::as_str)
                .ok_or("missing string field `metric`")?,
        )?;
        let repr = match v.get("repr").and_then(Json::as_str) {
            Some(s) => parse_repr(s)?,
            None => ReprChoice::Auto,
        };
        let deadline_us = v.get("deadline_us").and_then(Json::as_f64).map(|d| {
            if d.is_finite() && d > 0.0 {
                d as u64
            } else {
                0
            }
        });
        let spec_v = v.get("spec").ok_or("missing object field `spec`")?;
        let spec_obj = spec_v.as_obj().ok_or("`spec` must be a JSON object")?;
        let kind = spec_v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("`spec` lacks string field `kind`")?;
        let mut spec = WorkloadSpec::new(kind);
        for (k, val) in spec_obj {
            if k == "kind" {
                continue;
            }
            let n = val
                .as_f64()
                .ok_or_else(|| format!("spec field `{k}` must be a number"))?;
            spec = spec.with(k.clone(), n);
        }
        let _ = obj;
        Ok(Request {
            id,
            accel,
            spec,
            metric,
            repr,
            deadline_us,
        })
    }

    /// Decodes a request line: a single object or an array (batch).
    pub fn batch_from_line(line: &str) -> Result<Vec<Request>, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        match &v {
            Json::Arr(items) => items.iter().map(Request::from_json).collect(),
            _ => Ok(vec![Request::from_json(&v)?]),
        }
    }

    /// Encodes the request as one JSON line (used by the load
    /// generator and the protocol doc-tests).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(192);
        let _ = write!(
            s,
            "{{\"id\":{},\"accel\":\"{}\",\"metric\":\"{}\",\"repr\":\"{}\"",
            self.id,
            json_escape(&self.accel),
            match self.metric {
                Metric::Latency => "latency",
                Metric::Throughput => "throughput",
            },
            match self.repr {
                ReprChoice::Auto => "auto",
                ReprChoice::Ceiling(k) => repr_name(k),
            }
        );
        if let Some(d) = self.deadline_us {
            let _ = write!(s, ",\"deadline_us\":{d}");
        }
        s.push_str(",\"spec\":");
        self.spec.write_json(&mut s);
        s.push('}');
        s
    }
}

impl Response {
    /// Encodes the response as one JSON line.
    pub fn to_json(&self) -> String {
        let metric = match self.metric {
            Metric::Latency => "latency",
            Metric::Throughput => "throughput",
        };
        let head = format!(
            "{{\"id\":{},\"accel\":\"{}\",\"metric\":\"{metric}\"",
            self.id,
            json_escape(&self.accel)
        );
        match &self.outcome {
            Outcome::Answer {
                prediction,
                repr_used,
                degraded,
                budget,
                cache_hit,
                queue_us,
                service_us,
            } => {
                let (lo, hi) = match prediction {
                    Prediction::Point(v) => (*v, *v),
                    Prediction::Bounds { min, max } => (*min, *max),
                };
                format!(
                    "{head},\"status\":\"ok\",\"repr_used\":\"{}\",\"degraded\":{degraded},\
                     \"cache_hit\":{cache_hit},\
                     \"prediction\":{{\"lo\":{lo},\"hi\":{hi}}},\
                     \"budget\":{{\"avg\":{},\"max\":{},\"atol\":{}}},\
                     \"queue_us\":{queue_us:.1},\"service_us\":{service_us:.1}}}",
                    repr_name(*repr_used),
                    budget.avg,
                    budget.max,
                    budget.atol,
                )
            }
            Outcome::Rejected => format!("{head},\"status\":\"rejected\"}}"),
            Outcome::Expired => format!("{head},\"status\":\"expired\"}}"),
            Outcome::Error(msg) => format!(
                "{head},\"status\":\"error\",\"message\":\"{}\"}}",
                json_escape(msg)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let line = r#"{"id": 3, "accel": "vta", "metric": "throughput", "repr": "petri",
                       "deadline_us": 1500, "spec": {"kind": "random", "seed": 4, "max_blocks": 24}}"#;
        let reqs = Request::batch_from_line(line).unwrap();
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert_eq!(r.id, 3);
        assert_eq!(r.accel, "vta");
        assert_eq!(r.metric, Metric::Throughput);
        assert_eq!(r.repr, ReprChoice::Ceiling(InterfaceKind::PetriNet));
        assert_eq!(r.deadline_us, Some(1500));
        assert_eq!(r.spec.get("seed"), Some(4.0));
        // Re-encode and re-parse: same content.
        let again = Request::batch_from_line(&r.to_json()).unwrap();
        assert_eq!(again[0].spec.fingerprint(), r.spec.fingerprint());
    }

    #[test]
    fn request_json_bytes_are_pinned() {
        let spec = WorkloadSpec::new("sized")
            .with("width", 128.0)
            .with("quality", 60.0)
            .with("seed", 0.5)
            .with("big", 1e15);
        let mut r = Request {
            id: 7,
            accel: "jpeg-decoder".into(),
            spec,
            metric: Metric::Latency,
            repr: ReprChoice::Ceiling(InterfaceKind::PetriNet),
            deadline_us: Some(1500),
        };
        assert_eq!(
            r.to_json(),
            r#"{"id":7,"accel":"jpeg-decoder","metric":"latency","repr":"petri","deadline_us":1500,"spec":{"kind":"sized","width":128.0,"quality":60.0,"seed":0.5,"big":1000000000000000}}"#
        );
        (r.repr, r.deadline_us, r.metric) = (ReprChoice::Auto, None, Metric::Throughput);
        r.spec = WorkloadSpec::new("finish_only");
        assert_eq!(
            r.to_json(),
            r#"{"id":7,"accel":"jpeg-decoder","metric":"throughput","repr":"auto","spec":{"kind":"finish_only"}}"#
        );
    }

    #[test]
    fn batch_lines_parse_to_many_requests() {
        let line = r#"[{"id":1,"accel":"vta","metric":"latency","spec":{"kind":"finish_only"}},
                      {"id":2,"accel":"vta","metric":"latency","spec":{"kind":"single","seed":1}}]"#;
        let reqs = Request::batch_from_line(line).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].id, 2);
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        assert!(Request::batch_from_line("{}").is_err());
        assert!(
            Request::batch_from_line(r#"{"accel":"vta","metric":"nope","spec":{"kind":"x"}}"#)
                .is_err()
        );
        assert!(Request::batch_from_line(
            r#"{"accel":"vta","metric":"latency","spec":{"kind":"x","bad":"str"}}"#
        )
        .is_err());
    }

    #[test]
    fn deeply_nested_lines_are_errors() {
        // Regression: one line of 200,000 `[` used to overflow the
        // parser's stack and abort the server.
        let err = Request::batch_from_line(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn response_json_mentions_budget_and_repr() {
        let r = Response {
            id: 9,
            accel: "jpeg-decoder".into(),
            metric: Metric::Latency,
            outcome: Outcome::Answer {
                prediction: Prediction::bounds(10.0, 20.0),
                repr_used: InterfaceKind::NaturalLanguage,
                degraded: true,
                budget: Budget::new(0.8, 3.0).with_atol(32.0),
                cache_hit: false,
                queue_us: 5.0,
                service_us: 1.0,
            },
        };
        let s = r.to_json();
        assert!(s.contains("\"repr_used\":\"nl\""));
        assert!(s.contains("\"degraded\":true"));
        assert!(s.contains("\"atol\":32"));
        // The line must itself be valid JSON.
        assert!(crate::json::Json::parse(&s).is_ok());
    }
}
