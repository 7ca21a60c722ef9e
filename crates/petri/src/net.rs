//! Net structure and builder.

use crate::behavior::Behavior;
use crate::token::Token;
use crate::PetriError;
use perf_iface_lang::Value;

/// The largest capacity or server count a net may declare, and the most
/// tokens one firing may consume or produce (its summed input or output
/// arc weights). The compiled stepper keeps these as `u32` and adds a
/// place's queue length, its reservations and one firing's output
/// weights in `u32`, which this bound keeps far from overflow; it is
/// also the most tokens `pnet run` injects.
pub const MAX_PARAM: usize = 1 << 24;

/// Identifier of a place within its net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) usize);

impl PlaceId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a transition within its net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransId(pub(crate) usize);

impl TransId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A place: a token queue modeling a hardware buffer.
#[derive(Clone, Debug)]
pub struct Place {
    /// Name, unique within the net.
    pub name: String,
    /// Maximum tokens the place can hold; `None` = unbounded (used for
    /// workload sources and sinks).
    pub capacity: Option<usize>,
    /// Sink places collect completed tokens; they must not feed any
    /// transition.
    pub is_sink: bool,
}

/// A transition: a processing element with a timed, data-dependent
/// behavior.
pub struct Transition {
    /// Name, unique within the net.
    pub name: String,
    /// Input arcs `(place, weight)`; `weight` tokens are consumed.
    pub inputs: Vec<(PlaceId, usize)>,
    /// Output arcs `(place, weight)`; `weight` copies are produced.
    pub outputs: Vec<(PlaceId, usize)>,
    /// Delay/guard/transform behavior.
    pub behavior: Behavior,
    /// Number of concurrent firings allowed; 0 means unlimited
    /// (infinite-server semantics). A pipelined unit that accepts one
    /// item per completion is `servers: 1` (the default).
    pub servers: usize,
    /// Conflict-resolution priority; higher fires first.
    pub priority: i32,
}

/// A complete timed Petri net.
///
/// Besides the structure itself, a net carries adjacency indices
/// computed once at assembly and shared by every evaluator bound to
/// it: which transitions consume from / produce into each place, and
/// the deterministic conflict-resolution order (priority descending,
/// then declaration order). [`crate::CompiledNet`] uses these to
/// re-try only the transitions an event could have enabled.
pub struct Net {
    /// Net name.
    pub name: String,
    pub(crate) places: Vec<Place>,
    pub(crate) transitions: Vec<Transition>,
    /// Per place: transitions with an input arc from it (ascending).
    pub(crate) consumers: Vec<Vec<usize>>,
    /// Per place: transitions with an output arc into it (ascending).
    pub(crate) producers: Vec<Vec<usize>>,
    /// Transition indices sorted by `(-priority, index)`.
    pub(crate) order: Vec<usize>,
    /// Inverse of `order`: transition index → position in `order`.
    pub(crate) rank: Vec<usize>,
}

impl core::fmt::Debug for Net {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Net")
            .field("name", &self.name)
            .field("places", &self.places.len())
            .field("transitions", &self.transitions.len())
            .finish()
    }
}

impl Net {
    /// The places of the net.
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// The transitions of the net.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Looks up a place id by name.
    pub fn place_id(&self, name: &str) -> Option<PlaceId> {
        self.places.iter().position(|p| p.name == name).map(PlaceId)
    }

    /// Looks up a transition id by name.
    pub fn trans_id(&self, name: &str) -> Option<TransId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(TransId)
    }

    /// A 64-bit structural fingerprint: FNV-1a over the net name,
    /// every place (name, capacity, sink flag) and every transition
    /// (name, arcs with weights, server count, priority, constant
    /// delay/guard folds when the behavior exposes them).
    ///
    /// Two nets with the same structure fingerprint evaluate workloads
    /// identically for all shipped `.pnet` artifacts, whose behaviors
    /// are pure functions of the structure — so the value serves as
    /// the net half of the jpeg adapter's Petri-tier `perf-service`
    /// cache key (the other half hashes the realized block stream),
    /// and [`crate::CompiledNet::stepper`] checks it in debug builds.
    /// Native-closure behaviors contribute only their constant folds;
    /// nets built from distinct closures with identical structure can
    /// collide, which is why a cache key must always hash the workload
    /// too.
    pub fn fingerprint(&self) -> u64 {
        let mut h = perf_core::query::Fnv1a::new();
        h.write(self.name.as_bytes());
        h.write(&[0xff]);
        for p in &self.places {
            h.write(p.name.as_bytes());
            h.write_u64(p.capacity.map(|c| c as u64 + 1).unwrap_or(0));
            h.write(&[u8::from(p.is_sink)]);
        }
        h.write(&[0xfe]);
        for t in &self.transitions {
            h.write(t.name.as_bytes());
            for &(p, w) in &t.inputs {
                h.write_u64(p.0 as u64);
                h.write_u64(w as u64);
            }
            h.write(&[0xfd]);
            for &(p, w) in &t.outputs {
                h.write_u64(p.0 as u64);
                h.write_u64(w as u64);
            }
            h.write_u64(t.servers as u64);
            h.write_u64(t.priority as u64);
            h.write(&[u8::from(t.behavior.has_guard())]);
            if let Some(d) = t.behavior.const_delay() {
                h.write_f64(d);
            }
            if let Some(g) = t.behavior.const_guard() {
                h.write(&[2 + u8::from(g)]);
            }
        }
        h.finish()
    }

    /// Assembles a net from parts, computing the adjacency indices.
    /// Every construction path (builder, composition) must go through
    /// here so the indices stay consistent with the structure.
    pub(crate) fn assemble(name: String, places: Vec<Place>, transitions: Vec<Transition>) -> Net {
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); places.len()];
        let mut producers: Vec<Vec<usize>> = vec![Vec::new(); places.len()];
        for (ti, t) in transitions.iter().enumerate() {
            for &(p, _) in &t.inputs {
                if consumers[p.0].last() != Some(&ti) {
                    consumers[p.0].push(ti);
                }
            }
            for &(p, _) in &t.outputs {
                if producers[p.0].last() != Some(&ti) {
                    producers[p.0].push(ti);
                }
            }
        }
        let mut order: Vec<usize> = (0..transitions.len()).collect();
        order.sort_by_key(|&i| (-transitions[i].priority, i));
        let mut rank = vec![0usize; transitions.len()];
        for (r, &ti) in order.iter().enumerate() {
            rank[ti] = r;
        }
        Net {
            name,
            places,
            transitions,
            consumers,
            producers,
            order,
            rank,
        }
    }
}

/// Builder for [`Net`].
pub struct NetBuilder {
    name: String,
    places: Vec<Place>,
    transitions: Vec<Transition>,
}

impl NetBuilder {
    /// Starts a net named `name`.
    pub fn new(name: impl Into<String>) -> NetBuilder {
        NetBuilder {
            name: name.into(),
            places: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Adds a place with optional capacity.
    pub fn place(&mut self, name: impl Into<String>, capacity: Option<usize>) -> PlaceId {
        self.places.push(Place {
            name: name.into(),
            capacity,
            is_sink: false,
        });
        PlaceId(self.places.len() - 1)
    }

    /// Adds an unbounded sink place that records completions.
    pub fn sink(&mut self, name: impl Into<String>) -> PlaceId {
        self.places.push(Place {
            name: name.into(),
            capacity: None,
            is_sink: true,
        });
        PlaceId(self.places.len() - 1)
    }

    /// Adds a single-server transition with weight-1 arcs, a delay
    /// closure and a transform closure (one payload per output arc).
    pub fn transition(
        &mut self,
        name: impl Into<String>,
        inputs: &[PlaceId],
        outputs: &[PlaceId],
        delay: impl Fn(&[Token]) -> u64 + 'static,
        transform: impl Fn(&[Token]) -> Vec<Value> + 'static,
    ) -> TransId {
        self.add_transition(Transition {
            name: name.into(),
            inputs: inputs.iter().map(|&p| (p, 1)).collect(),
            outputs: outputs.iter().map(|&p| (p, 1)).collect(),
            behavior: Behavior::Native {
                guard: None,
                delay: Box::new(delay),
                transform: Box::new(transform),
            },
            servers: 1,
            priority: 0,
        })
    }

    /// Adds a fully-specified transition.
    pub fn add_transition(&mut self, t: Transition) -> TransId {
        self.transitions.push(t);
        TransId(self.transitions.len() - 1)
    }

    /// Validates and finishes the net.
    pub fn build(self) -> Result<Net, PetriError> {
        let net = Net::assemble(self.name, self.places, self.transitions);
        validate(&net)?;
        Ok(net)
    }
}

fn validate(net: &Net) -> Result<(), PetriError> {
    if net.places.is_empty() {
        return Err(PetriError::Structure("net has no places".into()));
    }
    let mut names = std::collections::HashSet::new();
    for p in &net.places {
        if !names.insert(&p.name) {
            return Err(PetriError::Structure(format!(
                "duplicate place name `{}`",
                p.name
            )));
        }
        if p.capacity == Some(0) {
            return Err(PetriError::Structure(format!(
                "place `{}` has zero capacity",
                p.name
            )));
        }
        if let Some(c) = p.capacity.filter(|&c| c > MAX_PARAM) {
            return Err(PetriError::Structure(format!(
                "place `{}` has capacity {c} (more than {MAX_PARAM})",
                p.name
            )));
        }
    }
    let mut tnames = std::collections::HashSet::new();
    for t in &net.transitions {
        if !tnames.insert(&t.name) {
            return Err(PetriError::Structure(format!(
                "duplicate transition name `{}`",
                t.name
            )));
        }
        if t.inputs.is_empty() {
            return Err(PetriError::Structure(format!(
                "transition `{}` has no input arcs",
                t.name
            )));
        }
        for &(p, w) in t.inputs.iter().chain(&t.outputs) {
            if p.0 >= net.places.len() {
                return Err(PetriError::Structure(format!(
                    "transition `{}` references unknown place #{}",
                    t.name, p.0
                )));
            }
            if w == 0 {
                return Err(PetriError::Structure(format!(
                    "transition `{}` has a zero-weight arc",
                    t.name
                )));
            }
        }
        if t.servers > MAX_PARAM {
            return Err(PetriError::Structure(format!(
                "transition `{}` has {} servers (more than {MAX_PARAM})",
                t.name, t.servers
            )));
        }
        let weight =
            |arcs: &[(PlaceId, usize)]| arcs.iter().fold(0usize, |n, &(_, w)| n.saturating_add(w));
        for (verb, n) in [
            ("consumes", weight(&t.inputs)),
            ("produces", weight(&t.outputs)),
        ] {
            if n > MAX_PARAM {
                return Err(PetriError::Structure(format!(
                    "transition `{}` {verb} {n} tokens per firing (more than {MAX_PARAM})",
                    t.name
                )));
            }
        }
        let mut in_places = std::collections::HashSet::new();
        for &(p, _) in &t.inputs {
            if net.places[p.0].is_sink {
                return Err(PetriError::Structure(format!(
                    "transition `{}` consumes from sink place `{}`",
                    t.name, net.places[p.0].name
                )));
            }
            // Two arcs from one place would select overlapping FIFO
            // heads; multi-token consumption must use the arc weight.
            if !in_places.insert(p.0) {
                return Err(PetriError::Structure(format!(
                    "transition `{}` has duplicate input arcs from place `{}` (use arc weight instead)",
                    t.name, net.places[p.0].name
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::fixed_delay;

    #[test]
    fn fingerprint_tracks_structure() {
        // A distinct transition name shifts the fingerprint. Native
        // closure *bodies* are opaque and intentionally do not
        // contribute.
        let build = |t: &str| {
            let mut b = NetBuilder::new("n");
            let a = b.place("a", None);
            let z = b.sink("z");
            b.transition(t, &[a], &[z], |_| 7, |ts| vec![ts[0].data.clone()]);
            b.build().unwrap()
        };
        assert_eq!(build("t").fingerprint(), build("t").fingerprint());
        assert_ne!(build("t").fingerprint(), build("u").fingerprint());
    }

    #[test]
    fn build_minimal_net() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", Some(4));
        let z = b.sink("z");
        b.transition("t", &[a], &[z], |_| 1, |ts| vec![ts[0].data.clone()]);
        let net = b.build().unwrap();
        assert_eq!(net.places().len(), 2);
        assert_eq!(net.place_id("a"), Some(a));
        assert_eq!(net.place_id("z"), Some(z));
        assert!(net.trans_id("t").is_some());
        assert!(net.trans_id("nope").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetBuilder::new("n");
        b.place("a", None);
        b.place("a", None);
        assert!(b.build().is_err());
    }

    #[test]
    fn zero_capacity_rejected() {
        let mut b = NetBuilder::new("n");
        b.place("a", Some(0));
        assert!(b.build().is_err());
    }

    #[test]
    fn transition_needs_inputs() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![],
            outputs: vec![(a, 1)],
            behavior: fixed_delay(1, 1),
            servers: 1,
            priority: 0,
        });
        assert!(b.build().is_err());
    }

    #[test]
    fn sink_cannot_feed_transitions() {
        let mut b = NetBuilder::new("n");
        let s = b.sink("s");
        let a = b.place("a", None);
        b.transition("t", &[s], &[a], |_| 1, |ts| vec![ts[0].data.clone()]);
        assert!(b.build().is_err());
    }

    #[test]
    fn duplicate_input_arcs_rejected() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![(a, 1), (a, 1)],
            outputs: vec![(z, 1)],
            behavior: fixed_delay(1, 1),
            servers: 1,
            priority: 0,
        });
        assert!(b.build().is_err());
    }

    #[test]
    fn adjacency_indices_match_structure() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let m = b.place("m", Some(2));
        let z = b.sink("z");
        let t0 = b.transition("t0", &[a], &[m], |_| 1, |ts| vec![ts[0].data.clone()]);
        let t1 = b.transition("t1", &[m], &[z], |_| 1, |ts| vec![ts[0].data.clone()]);
        let mut hi = b.transition("hi", &[a], &[z], |_| 1, |ts| vec![ts[0].data.clone()]);
        // Raise priority via direct access to check ordering.
        let net = {
            let mut net = b;
            net.transitions[hi.index()].priority = 5;
            net.build().unwrap()
        };
        hi = net.trans_id("hi").unwrap();
        assert_eq!(net.consumers[a.index()], vec![t0.index(), hi.index()]);
        assert_eq!(net.consumers[m.index()], vec![t1.index()]);
        assert_eq!(net.producers[m.index()], vec![t0.index()]);
        assert_eq!(net.producers[z.index()], vec![t1.index(), hi.index()]);
        // `hi` (priority 5) ranks first, then t0, t1 by index.
        assert_eq!(net.order, vec![hi.index(), t0.index(), t1.index()]);
        assert_eq!(net.rank[hi.index()], 0);
        assert_eq!(net.rank[t0.index()], 1);
        assert_eq!(net.rank[t1.index()], 2);
    }

    #[test]
    fn zero_weight_arc_rejected() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![(a, 0)],
            outputs: vec![(z, 1)],
            behavior: fixed_delay(1, 1),
            servers: 1,
            priority: 0,
        });
        assert!(b.build().is_err());
    }
}
