//! The composite pipeline model.
//!
//! A [`Composite`] realizes a [`Topology`] — a linear chain or a
//! fan-out/fan-in DAG — on both substrates:
//!
//! * **Ground truth** — cycle-accurate simulation whose per-stage,
//!   per-item cost is the stage accelerator's *measured* latency for
//!   that item's workload, coupled through bounded FIFOs: a
//!   [`perf_sim::Pipeline`] for chains, a [`perf_sim::DagPipeline`]
//!   for branched topologies. This is "the SoC": independent
//!   accelerator models coupled only by queues and backpressure.
//! * **Composite Petri net** — per-stage component nets folded through
//!   [`perf_petri::compose`] in topological order, gluing each
//!   producer's `out` sink onto its consumer's bounded `in` place. The
//!   fused place keeps the tighter capacity and loses sink-ness (only
//!   one side is a sink), so backpressure emerges from net structure
//!   rather than per-stage modeling — exactly the fused-place
//!   semantics `compose` guarantees. Fan-out and fan-in are explicit
//!   structure, never place aliasing (which [`perf_petri::compose`]
//!   rejects): round-robin fan-out is a guarded router transition per
//!   out-edge reading the token's precomputed route field, broadcast
//!   is one serve transition with an output arc per out-edge, and
//!   fan-in is a capacity-1 latch place per in-edge merged into the
//!   stage's bounded input queue by zero-delay transitions.
//!
//! The Petri, program, and NL tiers all predict from the *stage
//! interfaces* (never from the composite simulator), composing
//! per-stage predictions structurally: the Petri tier runs the
//! composite net, the program tier evaluates a bounded-buffer schedule
//! recurrence ([`pipeline_makespan`] on chains, [`dag_makespan`] on
//! DAGs), and the NL tier combines closed-form per-stage bounds
//! (busiest-stage / longest-path lower, serialization upper).
//!
//! Routing is *static*: a [`DagPlan`] computed once per stream decides
//! which out-edge every item takes at every round-robin fan-out
//! (by the item's rank among that stage's visitors, modulo fan-out) and
//! what jobs each stage therefore processes. All three predictive tiers
//! and the ground truth share that plan, so they predict the same
//! traffic rather than guessing at each other's arbitration.

use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::units::{Cycles, Throughput};
use perf_core::{CoreError, Observation};
use perf_iface_lang::Value;
use perf_petri::behavior::Behavior;
use perf_petri::lint::lint;
use perf_petri::net::Transition;
use perf_petri::{reference, CompiledNet, Net, NetBuilder, Options, SimResult, Token};
use perf_sim::{DagNodeSpec, DagPipeline, FaultPlan, Pipeline, Route, StageSpec};
use std::collections::HashMap;

use crate::accels::accel;
use crate::topology::{Policy, Topology, MAX_ITEMS};

/// Parameters of one `stream` workload: `items` independent workloads
/// flowing through the pipeline, derived from `seed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamParams {
    /// Number of items pushed through the pipeline.
    pub items: usize,
    /// Base seed; each item and stage derives its own spec from it.
    pub seed: u64,
}

impl StreamParams {
    /// Extracts stream parameters from a `stream` workload spec.
    pub fn from_spec(spec: &WorkloadSpec) -> Result<StreamParams, CoreError> {
        if spec.kind != "stream" {
            return Err(CoreError::Artifact(format!(
                "composite pipelines accept spec kind `stream`, got `{}`",
                spec.kind
            )));
        }
        let items = spec.get_or("items", 8.0);
        if !items.is_finite() || items < 1.0 {
            return Err(CoreError::Artifact(format!(
                "stream `items` must be ≥ 1, got {items}"
            )));
        }
        // Reject oversize streams instead of silently clamping: a
        // caller asking for 10k items used to get a 4096-item answer
        // labeled as if it covered the full request.
        if items > MAX_ITEMS as f64 {
            return Err(CoreError::Artifact(format!(
                "stream `items` must be ≤ {MAX_ITEMS}, got {items}"
            )));
        }
        Ok(StreamParams {
            items: items as usize,
            seed: spec.get_or("seed", 1.0) as u64,
        })
    }
}

/// Per-item, per-stage cost bounds: `costs[item][stage] = (lo, hi)`.
/// Point predictions collapse to `lo == hi`.
type CostBounds = Vec<Vec<(f64, f64)>>;

/// A topology realized against live accelerator backends.
pub struct Composite {
    topo: Topology,
    backends: Vec<Box<dyn QueryBackend>>,
    /// Fault injection for ground-truth measurement: the plan applies
    /// to one stage of the composite pipeline (`set_fault`).
    fault: Option<(usize, FaultPlan)>,
    /// Predicted cost matrices keyed by (repr, items, seed); per-stage
    /// predictions are deterministic so this never goes stale.
    pred_cache: HashMap<(u8, usize, u64), CostBounds>,
    /// Measured (clean) cost matrices keyed by (items, seed). Faults
    /// are injected at the composite level, not into per-item costs,
    /// so the cache stays valid across `set_fault`.
    meas_cache: HashMap<(usize, u64), Vec<Vec<f64>>>,
}

impl Composite {
    /// Realizes `topo`: constructs each stage's backend and checks the
    /// stage templates against what the backends accept.
    pub fn new(topo: Topology) -> Result<Composite, CoreError> {
        topo.validate()?;
        let mut backends = Vec::new();
        for st in &topo.stages {
            let b = (accel(&st.accel)?.backend)()?;
            if !b.spec_kinds().contains(&st.kind.as_str()) {
                return Err(CoreError::Artifact(format!(
                    "stage `{}`: accelerator `{}` does not accept spec kind `{}` (accepts: {})",
                    st.instance,
                    st.accel,
                    st.kind,
                    b.spec_kinds().join(", ")
                )));
            }
            backends.push(b);
        }
        Ok(Composite {
            topo,
            backends,
            fault: None,
            pred_cache: HashMap::new(),
            meas_cache: HashMap::new(),
        })
    }

    /// The realized topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.topo.stages.len()
    }

    /// Arms (or disarms) fault injection on one stage of the composite
    /// ground-truth pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn set_fault(&mut self, stage: usize, plan: Option<FaultPlan>) {
        assert!(stage < self.stages(), "fault stage out of range");
        self.fault = plan.map(|p| (stage, p));
    }

    /// The workload spec submitted to `stage` for stream item `item`:
    /// the stage template with its `vary` field perturbed by the stream
    /// seed and item index (deterministic, collision-spread).
    pub fn item_spec(&self, stage: usize, stream: &StreamParams, item: usize) -> WorkloadSpec {
        let st = &self.topo.stages[stage];
        let mut spec = WorkloadSpec::new(st.kind.clone());
        for (k, v) in &st.fields {
            spec = spec.with(k.clone(), *v);
        }
        let base = spec.get_or(&st.vary, 1.0);
        spec.with(
            st.vary.clone(),
            base + (stream.seed % 1024) as f64 + (item as f64) * 7.0,
        )
    }

    /// Ground-truth per-item, per-stage latency matrix: each stage's
    /// cycle-accurate simulator measured on that item's workload.
    fn measured_costs(&mut self, stream: &StreamParams) -> Result<Vec<Vec<f64>>, CoreError> {
        let key = (stream.items, stream.seed);
        if let Some(m) = self.meas_cache.get(&key) {
            return Ok(m.clone());
        }
        let specs = self.all_item_specs(stream);
        let mut m = vec![vec![0.0; self.stages()]; stream.items];
        for (j, backend) in self.backends.iter_mut().enumerate() {
            for (i, row) in specs.iter().enumerate() {
                let obs = backend.measure(&row[j])?;
                m[i][j] = Metric::Latency.of(&obs);
            }
        }
        self.meas_cache.insert(key, m.clone());
        Ok(m)
    }

    /// Per-item, per-stage predicted latency bounds from one interface
    /// representation of each stage.
    pub fn predicted_costs(
        &mut self,
        stream: &StreamParams,
        repr: InterfaceKind,
    ) -> Result<CostBounds, CoreError> {
        let key = (repr as u8, stream.items, stream.seed);
        if let Some(m) = self.pred_cache.get(&key) {
            return Ok(m.clone());
        }
        let specs = self.all_item_specs(stream);
        let mut m = vec![vec![(0.0, 0.0); self.stages()]; stream.items];
        for (j, backend) in self.backends.iter_mut().enumerate() {
            for (i, row) in specs.iter().enumerate() {
                let p = backend.predict(&row[j], repr, Metric::Latency)?;
                m[i][j] = match p {
                    perf_core::Prediction::Point(v) => (v, v),
                    perf_core::Prediction::Bounds { min, max } => (min, max),
                };
            }
        }
        self.pred_cache.insert(key, m.clone());
        Ok(m)
    }

    fn all_item_specs(&self, stream: &StreamParams) -> Vec<Vec<WorkloadSpec>> {
        (0..stream.items)
            .map(|i| {
                (0..self.stages())
                    .map(|j| self.item_spec(j, stream, i))
                    .collect()
            })
            .collect()
    }

    /// Inter-stage buffer capacities as seen by the schedule
    /// recurrence: `buffers[j]` bounds the queue *after* stage `j`
    /// (the last stage drains into an unbounded output).
    fn buffers(&self) -> Vec<usize> {
        let k = self.stages();
        (0..k)
            .map(|j| {
                if j + 1 < k {
                    self.topo.stages[j + 1].queue
                } else {
                    usize::MAX
                }
            })
            .collect()
    }

    /// Runs the composite cycle-accurate system on a stream and
    /// returns the ground-truth observation (latency = stream
    /// makespan, throughput = items per cycle). Applies the armed
    /// fault plan to its target stage.
    pub fn measure_stream(&mut self, stream: &StreamParams) -> Result<Observation, CoreError> {
        let costs = self.measured_costs(stream)?;
        let makespan = self.simulate(&costs);
        Ok(observation(makespan, stream.items))
    }

    /// Runs `crates/sim` FIFO stages with the topology's queue depths
    /// and the given per-item costs; returns the elapsed cycles. Chains
    /// keep the original single-pipeline model; branched or replicated
    /// topologies run the DAG pipeline with the shared route plan.
    fn simulate(&self, costs: &[Vec<f64>]) -> u64 {
        if !self.topo.is_chain() {
            return self.simulate_dag(costs);
        }
        let k = self.stages();
        let n = costs.len();
        let specs: Vec<StageSpec<usize>> = (0..k)
            .map(|j| {
                let col: Vec<u64> = costs.iter().map(|row| row[j].max(1.0) as u64).collect();
                let out_cap = if j + 1 < k {
                    self.topo.stages[j + 1].queue
                } else {
                    n.max(1)
                };
                StageSpec::new(
                    self.topo.stages[j].instance.clone(),
                    out_cap,
                    move |i: &usize| col[*i],
                )
            })
            .collect();
        let mut pipe = Pipeline::new(self.topo.stages[0].queue, specs);
        if let Some((stage, plan)) = self.fault {
            pipe.set_fault_on(stage, Some(plan));
        }
        let (elapsed, out) = pipe.run_to_completion((0..n).collect());
        debug_assert_eq!(out.len(), n, "composite pipeline dropped items");
        elapsed
    }

    /// Ground truth for branched/replicated topologies: a
    /// [`perf_sim::DagPipeline`] wired per the edge graph, routing by
    /// the stream's static [`DagPlan`].
    fn simulate_dag(&self, costs: &[Vec<f64>]) -> u64 {
        let n = costs.len();
        let plan = DagPlan::new(&self.topo, n);
        let specs: Vec<DagNodeSpec<usize>> = (0..self.stages())
            .map(|u| {
                let st = &self.topo.stages[u];
                let col: Vec<u64> = costs.iter().map(|row| row[u].max(1.0) as u64).collect();
                let mut spec =
                    DagNodeSpec::new(st.instance.clone(), st.queue, move |i: &usize| col[*i])
                        .replicas(st.replicas);
                let outs = self.topo.out_edges(u);
                if !outs.is_empty() {
                    let targets: Vec<usize> = outs
                        .iter()
                        .map(|&e| {
                            self.topo
                                .stage_index(&self.topo.edges[e].to)
                                .expect("validated topology")
                        })
                        .collect();
                    let route = if outs.len() > 1 && self.topo.policy_of(u) == Policy::Broadcast {
                        Route::Broadcast
                    } else {
                        let slots: Vec<usize> =
                            (0..n).map(|i| plan.route[u][i].unwrap_or(0)).collect();
                        Route::Pick(Box::new(move |i: &usize| slots[*i]))
                    };
                    spec = spec.targets(targets, route);
                }
                spec
            })
            .collect();
        let mut pipe = DagPipeline::new(specs);
        if let Some((stage, fault)) = self.fault {
            pipe.set_fault_on(stage, Some(fault));
        }
        let terminal_jobs: usize = (0..self.stages())
            .filter(|&u| self.topo.out_edges(u).is_empty())
            .map(|u| plan.jobs[u].len())
            .sum();
        let (elapsed, out) = pipe.run_to_completion((0..n).collect());
        debug_assert_eq!(out.len(), terminal_jobs, "composite DAG dropped items");
        elapsed
    }

    /// Builds the composite Petri net by folding per-stage component
    /// nets through [`perf_petri::compose`]. Structure only — token
    /// payloads carry the per-item costs (see [`Self::stream_tokens`]).
    ///
    /// Stage `j`'s component is `in ──serve──▶ out` where `out` is that
    /// component's sink; gluing `out` onto stage `j+1`'s bounded `in`
    /// yields one shared place per boundary that (a) keeps the
    /// downstream queue depth as its capacity and (b) stops being a
    /// sink — tokens flow on, and a full boundary place blocks the
    /// upstream `serve`, which is backpressure by construction.
    pub fn build_net(&self) -> Result<Net, CoreError> {
        if !self.topo.is_chain() {
            return self.build_dag_net();
        }
        let k = self.stages();
        let mut net = self.stage_net(0)?;
        // The boundary place's name in the accumulated net: stage 0's
        // own `out` keeps its unprefixed name; later stages' out places
        // are prefixed by their component (instance) name.
        let mut boundary = "out".to_string();
        for j in 1..k {
            let part = self.stage_net(j)?;
            let name = self.topo.name.clone();
            net = perf_petri::compose::compose(net, part, &[(boundary.as_str(), "in")], &name)?;
            boundary = format!("{}.out", self.topo.stages[j].instance);
        }
        Ok(net)
    }

    /// Folds per-stage component nets into the composite DAG net, in
    /// topological order so every producer's boundary place exists
    /// (with a known name) before its consumer is glued on.
    ///
    /// Per-stage shape: a fan-out of one is the chain's
    /// `in → serve → out`; a round-robin fan-out of `k` serves into a
    /// `mid` place drained by `k` zero-delay router transitions (one
    /// per out-edge, guarded on the token's `r<stage>` route field, so
    /// routing is deterministic head-of-line); a broadcast fan-out
    /// gives `serve` one output arc per out-edge, cloning the payload.
    /// A fan-in of `m` presents `m` capacity-1 latch places (`in0…`),
    /// each merged into the stage's bounded `in` queue by a zero-delay
    /// transition — every glue pair stays a distinct 1-to-1 fusion,
    /// which is exactly what [`perf_petri::compose`]'s aliasing checks
    /// require of well-formed composition.
    fn build_dag_net(&self) -> Result<Net, CoreError> {
        let order = self.topo.topo_order();
        let source = self.topo.source();
        debug_assert_eq!(order[0], source, "validated topology starts at its source");
        // The boundary-place name of (stage, out-slot) in the
        // accumulated net: the first-folded component keeps unprefixed
        // names, later ones are prefixed by instance.
        let out_name = |u: usize, slot: usize| -> String {
            let base = if self.topo.out_edges(u).len() <= 1 {
                "out".to_string()
            } else {
                format!("out{slot}")
            };
            if u == source {
                base
            } else {
                format!("{}.{base}", self.topo.stages[u].instance)
            }
        };
        let mut net = self.dag_stage_net(source)?;
        for &v in &order[1..] {
            let part = self.dag_stage_net(v)?;
            let ins = self.topo.in_edges(v);
            let pairs: Vec<(String, String)> = ins
                .iter()
                .enumerate()
                .map(|(slot, &e)| {
                    let u = self
                        .topo
                        .stage_index(&self.topo.edges[e].from)
                        .expect("validated topology");
                    let uslot = self
                        .topo
                        .out_edges(u)
                        .iter()
                        .position(|&x| x == e)
                        .expect("edge is an out-edge of its producer");
                    let b_name = if ins.len() == 1 {
                        "in".to_string()
                    } else {
                        format!("in{slot}")
                    };
                    (out_name(u, uslot), b_name)
                })
                .collect();
            let refs: Vec<(&str, &str)> = pairs
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            net = perf_petri::compose::compose(net, part, &refs, &self.topo.name)?;
        }
        Ok(net)
    }

    /// One DAG stage as a standalone component net (see
    /// [`Self::build_dag_net`] for the shapes).
    fn dag_stage_net(&self, u: usize) -> Result<Net, CoreError> {
        let st = &self.topo.stages[u];
        let mut b = NetBuilder::new(st.instance.clone());
        let m = self.topo.in_edges(u).len();
        let inp = if m == 0 {
            // The source's input is the injection point and stays
            // unbounded (the workload is fully known up front).
            b.place("in", None)
        } else {
            let inp = b.place("in", Some(st.queue));
            if m > 1 {
                for slot in 0..m {
                    let latch = b.place(format!("in{slot}"), Some(1));
                    b.transition(
                        format!("merge{slot}"),
                        &[latch],
                        &[inp],
                        |_| 0,
                        |ts| vec![ts[0].data.clone()],
                    );
                }
            }
            inp
        };
        let key = format!("c{u}");
        let delay: perf_petri::behavior::DelayFn = Box::new(move |ts: &[Token]| {
            ts[0]
                .data
                .field(&key)
                .and_then(Value::as_num)
                .map(|c| c.max(1.0) as u64)
                .unwrap_or(1)
        });
        let outs = self.topo.out_edges(u);
        let fan = outs.len();
        if fan <= 1 {
            let out = b.sink("out");
            b.add_transition(Transition {
                name: "serve".to_string(),
                inputs: vec![(inp, 1)],
                outputs: vec![(out, 1)],
                behavior: Behavior::Native {
                    guard: None,
                    delay,
                    transform: Box::new(|ts| vec![ts[0].data.clone()]),
                },
                servers: st.replicas.max(1),
                priority: 0,
            });
        } else if self.topo.policy_of(u) == Policy::Broadcast {
            let out_ids: Vec<_> = (0..fan).map(|s| b.sink(format!("out{s}"))).collect();
            b.add_transition(Transition {
                name: "serve".to_string(),
                inputs: vec![(inp, 1)],
                outputs: out_ids.iter().map(|&o| (o, 1)).collect(),
                behavior: Behavior::Native {
                    guard: None,
                    delay,
                    transform: Box::new(move |ts| vec![ts[0].data.clone(); fan]),
                },
                servers: st.replicas.max(1),
                priority: 0,
            });
        } else {
            // Round-robin: serve lands in `mid` (capacity = replicas,
            // so the output-capacity reservation never throttles the
            // servers), then one guarded zero-delay router per
            // out-edge moves the token to its planned branch.
            let mid = b.place("mid", Some(st.replicas.max(1)));
            b.add_transition(Transition {
                name: "serve".to_string(),
                inputs: vec![(inp, 1)],
                outputs: vec![(mid, 1)],
                behavior: Behavior::Native {
                    guard: None,
                    delay,
                    transform: Box::new(|ts| vec![ts[0].data.clone()]),
                },
                servers: st.replicas.max(1),
                priority: 0,
            });
            let rkey = format!("r{u}");
            for s in 0..fan {
                let out = b.sink(format!("out{s}"));
                let rk = rkey.clone();
                b.add_transition(Transition {
                    name: format!("route{s}"),
                    inputs: vec![(mid, 1)],
                    outputs: vec![(out, 1)],
                    behavior: Behavior::Native {
                        guard: Some(Box::new(move |ts: &[Token]| {
                            ts[0]
                                .data
                                .field(&rk)
                                .and_then(Value::as_num)
                                .map(|v| v as usize == s)
                                .unwrap_or(false)
                        })),
                        delay: Box::new(|_| 0),
                        transform: Box::new(|ts| vec![ts[0].data.clone()]),
                    },
                    servers: 1,
                    priority: 0,
                });
            }
        }
        Ok(b.build()?)
    }

    /// One stage as a standalone component net.
    fn stage_net(&self, j: usize) -> Result<Net, CoreError> {
        let st = &self.topo.stages[j];
        let mut b = NetBuilder::new(st.instance.clone());
        // Stage 0's input is the injection point and stays unbounded
        // (the workload is fully known up front); later stages bound
        // their input to the configured queue depth.
        let cap = if j == 0 { None } else { Some(st.queue) };
        let inp = b.place("in", cap);
        let out = b.sink("out");
        let key = format!("c{j}");
        b.transition(
            "serve",
            &[inp],
            &[out],
            move |ts: &[Token]| {
                ts[0]
                    .data
                    .field(&key)
                    .and_then(Value::as_num)
                    .map(|c| c.max(1.0) as u64)
                    .unwrap_or(1)
            },
            |ts| vec![ts[0].data.clone()],
        );
        Ok(b.build()?)
    }

    /// The stream's tokens for the composite net: one record per item
    /// carrying every stage's Petri-tier predicted cost (`c0..ck`), all
    /// available at time 0. On DAG topologies each token also carries
    /// its planned route slot `r<stage>` for every round-robin fan-out
    /// stage — the router transitions' guards read these fields.
    pub fn stream_tokens(&mut self, stream: &StreamParams) -> Result<Vec<Token>, CoreError> {
        let costs = self.predicted_costs(stream, InterfaceKind::PetriNet)?;
        let routes: Vec<(usize, Vec<Option<usize>>)> = if self.topo.is_chain() {
            Vec::new()
        } else {
            let plan = DagPlan::new(&self.topo, stream.items);
            (0..self.stages())
                .filter(|&u| {
                    self.topo.out_edges(u).len() > 1 && self.topo.policy_of(u) == Policy::RoundRobin
                })
                .map(|u| (u, plan.route[u].clone()))
                .collect()
        };
        Ok(costs
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let cost_fields = row
                    .iter()
                    .enumerate()
                    .map(|(j, &(lo, hi))| (format!("c{j}"), Value::num((lo + hi) / 2.0)));
                let route_fields = routes
                    .iter()
                    .map(|(u, slots)| (format!("r{u}"), Value::num(slots[i].unwrap_or(0) as f64)));
                Token::at(Value::record_owned(cost_fields.chain(route_fields)), 0)
            })
            .collect())
    }

    /// Runs the composite net on the compiled stepper and rejects runs
    /// that strand tokens.
    fn run_net(net: &Net, tokens: &[Token], opts: Options) -> Result<SimResult, CoreError> {
        let entry = net
            .place_id("in")
            .ok_or_else(|| CoreError::Artifact("composite net lost its `in` place".into()))?;
        let plan = CompiledNet::compile(net);
        let mut s = plan.stepper(net, opts);
        for t in tokens {
            s.inject(entry, t.clone());
        }
        let res = s.run()?;
        if !res.stranded.is_empty() {
            return Err(CoreError::Artifact(format!(
                "composite net stranded tokens: {:?}",
                res.stranded
            )));
        }
        Ok(res)
    }

    /// Petri-tier composite prediction: the net's makespan.
    pub fn petri_makespan(&mut self, stream: &StreamParams) -> Result<u64, CoreError> {
        let tokens = self.stream_tokens(stream)?;
        let res = Self::run_net(&self.build_net()?, &tokens, Options::default())?;
        Ok(res.makespan)
    }

    /// Runs the composite net with firing-trace recording enabled and
    /// returns the net together with the traced [`SimResult`] — the
    /// input to [`perf_petri::critical_path`] and the Chrome-trace
    /// exporter.
    pub fn petri_traced(&mut self, stream: &StreamParams) -> Result<(Net, SimResult), CoreError> {
        let tokens = self.stream_tokens(stream)?;
        let net = self.build_net()?;
        let opts = Options {
            trace: Some(perf_petri::trace::DEFAULT_TRACE_CAPACITY),
            ..Options::default()
        };
        let res = Self::run_net(&net, &tokens, opts)?;
        Ok((net, res))
    }

    /// Runs the composite net on the [`perf_petri::reference`] spec
    /// and on the compiled stepper and returns both makespans
    /// `(reference, stepper)`; the differential harness asserts they
    /// agree.
    pub fn petri_makespan_both(&mut self, stream: &StreamParams) -> Result<(u64, u64), CoreError> {
        let tokens = self.stream_tokens(stream)?;
        let net = self.build_net()?;
        let stepper = Self::run_net(&net, &tokens, Options::default())?;
        let entry = net.place_id("in").expect("run_net found the entry place");
        let injects = tokens.into_iter().map(|t| (entry, t));
        let refr = reference::run(&net, injects, Options::default())?;
        Ok((refr.makespan, stepper.makespan))
    }

    /// Lints the composite net structure (entry = the stream injection
    /// place), as `pnet lint` would.
    pub fn lint_net(&self) -> Result<perf_core::diag::Diagnostics, CoreError> {
        let net = self.build_net()?;
        let entry = net
            .place_id("in")
            .ok_or_else(|| CoreError::Artifact("composite net lost its `in` place".into()))?;
        Ok(lint(&net, Some(&[entry])))
    }

    /// Program-tier composite prediction: bounded-buffer schedule
    /// recurrence over per-stage program-tier cost midpoints —
    /// [`pipeline_makespan`] on chains, [`dag_makespan`] on DAGs.
    pub fn program_makespan(&mut self, stream: &StreamParams) -> Result<f64, CoreError> {
        let bounds = self.predicted_costs(stream, InterfaceKind::Program)?;
        let costs: Vec<Vec<f64>> = bounds
            .iter()
            .map(|row| row.iter().map(|&(lo, hi)| (lo + hi) / 2.0).collect())
            .collect();
        if self.topo.is_chain() {
            return Ok(pipeline_makespan(&costs, &self.buffers()));
        }
        let plan = DagPlan::new(&self.topo, stream.items);
        let replicas: Vec<usize> = self.topo.stages.iter().map(|s| s.replicas).collect();
        let queues: Vec<usize> = self.topo.stages.iter().map(|s| s.queue).collect();
        Ok(dag_makespan(&costs, &plan, &replicas, &queues))
    }

    /// NL-tier composite bounds on stream makespan, composed from the
    /// per-stage NL bounds over the stream's job plan: the pipeline can
    /// go no faster than its busiest stage (that stage's job-cost sum
    /// spread over its replicas) or any single job's critical path
    /// through the DAG, and no slower than full serialization of every
    /// job (plus one hand-off cycle per job, item and stage). On a
    /// chain — one job per item per stage, one server each — this is
    /// exactly the busiest-stage / slowest-item formula the linear
    /// composition used.
    pub fn nl_bounds(&mut self, stream: &StreamParams) -> Result<(f64, f64), CoreError> {
        let bounds = self.predicted_costs(stream, InterfaceKind::NaturalLanguage)?;
        let n = stream.items;
        let k = self.stages();
        let plan = DagPlan::new(&self.topo, n);
        let mut lower = 0.0_f64;
        let mut total_hi = 0.0_f64;
        // path[u][p]: longest lower-bound path ending at job p of
        // stage u, swept in topological order.
        let mut path: Vec<Vec<f64>> = plan.jobs.iter().map(|j| vec![0.0; j.len()]).collect();
        for &u in &plan.order {
            let mut stage_lo = 0.0;
            for p in 0..plan.jobs[u].len() {
                let job = plan.jobs[u][p];
                let (lo, hi) = bounds[job.item][u];
                stage_lo += lo;
                total_hi += hi;
                let upstream = match job.src {
                    None => 0.0,
                    Some((su, sp)) => path[su][sp],
                };
                path[u][p] = upstream + lo;
                lower = lower.max(path[u][p]);
            }
            lower = lower.max(stage_lo / self.topo.stages[u].replicas.max(1) as f64);
        }
        let upper = total_hi + (plan.total_jobs() + n + k) as f64;
        Ok((lower, upper.max(lower)))
    }
}

/// Bounded-buffer pipeline schedule: the earliest feasible start/exit
/// times of each (item, stage) under single-server stages and finite
/// inter-stage buffers, O(items × stages).
///
/// `buffers[j]` is the capacity of the buffer after stage `j`
/// (`usize::MAX` = unbounded). Item `i` may leave stage `j` only once
/// item `i - buffers[j]` has *started* stage `j+1` (freeing a slot);
/// until then it blocks the stage — the recurrence form of the
/// simulator's "finished item keeps occupying its stage".
pub fn pipeline_makespan(costs: &[Vec<f64>], buffers: &[usize]) -> f64 {
    let n = costs.len();
    if n == 0 {
        return 0.0;
    }
    let k = costs[0].len();
    let mut start = vec![vec![0.0_f64; k]; n];
    let mut exit = vec![vec![0.0_f64; k]; n];
    for i in 0..n {
        for j in 0..k {
            let ready = if j == 0 { 0.0 } else { exit[i][j - 1] };
            let free = if i == 0 { 0.0 } else { exit[i - 1][j] };
            start[i][j] = ready.max(free);
            let finish = start[i][j] + costs[i][j].max(1.0);
            exit[i][j] = if j + 1 < k && buffers[j] != usize::MAX && i >= buffers[j] {
                finish.max(start[i - buffers[j]][j + 1])
            } else {
                finish
            };
        }
    }
    exit[n - 1][k - 1]
}

/// One unit of work at one stage: which stream item it carries and
/// which upstream job produced it (`None` at the source). Broadcast
/// fan-in means a stage can process several jobs for the same item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Stream item index.
    pub item: usize,
    /// Producing `(stage, job index)`; `None` for source injections.
    pub src: Option<(usize, usize)>,
}

/// The static routing and job plan of an `n`-item stream through a
/// topology: which out-edge each item takes at every round-robin
/// fan-out, and consequently which jobs every stage processes, in
/// assumed FIFO order (by item, then by in-edge slot).
///
/// The plan is shared by the ground-truth simulator, the composite
/// Petri net (as token route fields guarded by router transitions),
/// the schedule recurrence and the NL bound algebra, so every tier
/// predicts the same traffic.
pub struct DagPlan {
    /// Stage indices in topological order.
    pub order: Vec<usize>,
    /// `route[u][i]`: the out-edge *slot* (index into
    /// `Topology::out_edges(u)`) item `i` takes leaving stage `u`.
    /// `None` when the item never visits `u` or `u` does not
    /// round-robin (single out-edge, broadcast, or terminal).
    pub route: Vec<Vec<Option<usize>>>,
    /// `jobs[v]`: the jobs stage `v` processes, in FIFO order.
    pub jobs: Vec<Vec<Job>>,
}

impl DagPlan {
    /// Plans an `n`-item stream through a validated topology.
    ///
    /// Round-robin slots rotate by each item's *rank* among the
    /// distinct items visiting that stage (not the raw item index), so
    /// nested fan-outs keep balancing instead of aliasing onto one
    /// edge. Broadcast copies of an item inherit the item's route at
    /// every later fan-out (item-affinity): copies take the same path.
    pub fn new(topo: &Topology, n: usize) -> DagPlan {
        let k = topo.stages.len();
        let order = topo.topo_order();
        let source = topo.source();
        let mut route: Vec<Vec<Option<usize>>> = vec![vec![None; n]; k];
        let mut jobs: Vec<Vec<Job>> = vec![Vec::new(); k];
        // (item, in_slot, src_stage, src_job) deliveries, per consumer.
        let mut deliveries: Vec<Vec<(usize, usize, usize, usize)>> = vec![Vec::new(); k];
        for &u in &order {
            if u == source {
                jobs[u] = (0..n).map(|item| Job { item, src: None }).collect();
            } else {
                deliveries[u].sort_by_key(|&(item, slot, _, _)| (item, slot));
                jobs[u] = deliveries[u]
                    .iter()
                    .map(|&(item, _, su, sp)| Job {
                        item,
                        src: Some((su, sp)),
                    })
                    .collect();
            }
            let outs = topo.out_edges(u);
            if outs.is_empty() {
                continue;
            }
            let round_robin = outs.len() > 1 && topo.policy_of(u) == Policy::RoundRobin;
            if round_robin {
                let mut visitors: Vec<usize> = jobs[u].iter().map(|j| j.item).collect();
                visitors.sort_unstable();
                visitors.dedup();
                for (rank, &i) in visitors.iter().enumerate() {
                    route[u][i] = Some(rank % outs.len());
                }
            }
            for (p, job) in jobs[u].iter().enumerate() {
                for (s, &e) in outs.iter().enumerate() {
                    if round_robin && route[u][job.item] != Some(s) {
                        continue;
                    }
                    let v = topo
                        .stage_index(&topo.edges[e].to)
                        .expect("validated topology");
                    let slot = topo
                        .in_edges(v)
                        .iter()
                        .position(|&x| x == e)
                        .expect("edge is an in-edge of its consumer");
                    deliveries[v].push((job.item, slot, u, p));
                }
            }
        }
        DagPlan { order, route, jobs }
    }

    /// Total jobs across all stages (`items × stages` on a chain;
    /// broadcast fan-out adds copies).
    pub fn total_jobs(&self) -> usize {
        self.jobs.iter().map(Vec::len).sum()
    }
}

/// Bounded-buffer schedule recurrence generalized to DAG topologies:
/// the earliest feasible start/departure of every [`Job`] under
/// `replicas[u]`-server stages and finite per-stage input queues
/// (`queues[v]` slots ahead of stage `v`; the source's own queue never
/// binds because its items are all available at time 0).
///
/// The laws mirror [`pipeline_makespan`], per job instead of per item:
/// a job starts once it has arrived (its producer *departed*), its
/// stage's queue discipline admits it (FIFO by plan order), and a
/// server is free (the `replicas`-th previous job departed). It
/// departs when finished *and* its consumer's queue has a slot — a
/// job may leave only once the job `queues[w]` positions ahead of its
/// delivery has started at `w`, the recurrence form of "a finished
/// item keeps occupying its server while downstream is full". Credits
/// against jobs not yet scheduled (same-item positions later in the
/// topological sweep) are skipped optimistically. On a chain this
/// reduces exactly to [`pipeline_makespan`].
///
/// `costs[i][u]` is item `i`'s cost at stage `u`; every job of an item
/// at a stage costs the same. Returns the latest departure.
pub fn dag_makespan(
    costs: &[Vec<f64>],
    plan: &DagPlan,
    replicas: &[usize],
    queues: &[usize],
) -> f64 {
    let n = costs.len();
    if n == 0 {
        return 0.0;
    }
    let k = plan.jobs.len();
    // Reverse map: consumers[u][p] = the (stage, job) deliveries fed by
    // job p of stage u.
    let mut consumers: Vec<Vec<Vec<(usize, usize)>>> = plan
        .jobs
        .iter()
        .map(|j| vec![Vec::new(); j.len()])
        .collect();
    for (w, jobs) in plan.jobs.iter().enumerate() {
        for (q, job) in jobs.iter().enumerate() {
            if let Some((u, p)) = job.src {
                consumers[u][p].push((w, q));
            }
        }
    }
    let mut start: Vec<Vec<f64>> = plan.jobs.iter().map(|j| vec![0.0; j.len()]).collect();
    let mut dep: Vec<Vec<f64>> = start.clone();
    let mut done: Vec<Vec<bool>> = plan.jobs.iter().map(|j| vec![false; j.len()]).collect();
    let mut ptr = vec![0usize; k];
    let mut makespan = 0.0_f64;
    for (i, item_costs) in costs.iter().enumerate() {
        for &u in &plan.order {
            while ptr[u] < plan.jobs[u].len() && plan.jobs[u][ptr[u]].item == i {
                let p = ptr[u];
                ptr[u] += 1;
                let job = plan.jobs[u][p];
                let arrival = match job.src {
                    None => 0.0,
                    Some((su, sp)) => dep[su][sp],
                };
                let fifo = if p == 0 { 0.0 } else { start[u][p - 1] };
                let r = replicas[u].max(1);
                let server = if p >= r { dep[u][p - r] } else { 0.0 };
                start[u][p] = arrival.max(fifo).max(server);
                let finish = start[u][p] + item_costs[u].max(1.0);
                let mut d = finish;
                for &(w, q) in &consumers[u][p] {
                    let cap = queues[w];
                    if cap != usize::MAX && q >= cap && done[w][q - cap] {
                        d = d.max(start[w][q - cap]);
                    }
                }
                dep[u][p] = d;
                done[u][p] = true;
                makespan = makespan.max(d);
            }
        }
    }
    makespan
}

/// Packages a composite makespan as an [`Observation`].
pub fn observation(makespan: u64, items: usize) -> Observation {
    let cycles = Cycles(makespan.max(1));
    Observation::new(cycles, Throughput::of(items as u64, cycles))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(c: &str) -> Composite {
        Composite::new(Topology::parse_chain(c).unwrap()).unwrap()
    }

    const STREAM: StreamParams = StreamParams { items: 6, seed: 3 };

    #[test]
    fn composite_net_round_trips_both_evaluators_and_lints() {
        let mut c = chain("jpeg-decoder:2>protoacc:4");
        let (refr, stepper) = c.petri_makespan_both(&STREAM).unwrap();
        assert_eq!(refr, stepper, "evaluators must agree on the composite net");
        assert!(refr > 0);
        let diags = c.lint_net().unwrap();
        assert!(!diags.has_errors(), "{}", diags.render());
    }

    #[test]
    fn boundary_places_keep_queue_capacity_and_lose_sinkness() {
        let c = chain("vta:2>bitcoin-miner:3>protoacc:5");
        let net = c.build_net().unwrap();
        // Boundaries: stage0.out ∪ stage1.in (cap 3), stage1.out ∪
        // stage2.in (cap 5); only the final out remains a sink.
        let places = net.places();
        let find = |name: &str| {
            places
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("no place `{name}` in {places:?}"))
        };
        assert_eq!(find("in").capacity, None);
        assert_eq!(find("out").capacity, Some(3));
        assert!(!find("out").is_sink);
        let mid = find("s1_bitcoin_miner.out");
        assert_eq!(mid.capacity, Some(5));
        assert!(!mid.is_sink);
        let last = find("s2_protoacc.out");
        assert_eq!(last.capacity, None);
        assert!(last.is_sink);
    }

    #[test]
    fn measure_matches_program_recurrence_shape() {
        // The analytic recurrence on the *measured* costs must track
        // the tick simulator closely (they model the same blocking
        // law; the sim adds ~1 hand-off cycle per hop).
        let mut c = chain("vta:2>protoacc:2");
        let costs = c.measured_costs(&STREAM).unwrap();
        let sim = c.simulate(&costs) as f64;
        let analytic = pipeline_makespan(&costs, &c.buffers());
        let slack = (STREAM.items * c.stages() + 8) as f64;
        assert!(
            (sim - analytic).abs() <= slack,
            "sim {sim} vs recurrence {analytic} (slack {slack})"
        );
    }

    #[test]
    fn recurrence_respects_buffer_blocking() {
        // Fast stage feeding a slow stage through a 1-deep buffer: the
        // fast stage must block, so makespan ≈ n * slow.
        let n = 10;
        let costs: Vec<Vec<f64>> = (0..n).map(|_| vec![1.0, 100.0]).collect();
        let bounded = pipeline_makespan(&costs, &[1, usize::MAX]);
        assert!(bounded >= 1000.0, "bounded {bounded}");
        // Unbounded buffers don't change the bottleneck here (stage 2
        // is the bottleneck either way), but the first stage finishes
        // early; makespan identical.
        let unbounded = pipeline_makespan(&costs, &[usize::MAX, usize::MAX]);
        assert!((bounded - unbounded).abs() < 1e-9);
        // Single stage degenerates to a serial sum.
        let serial: Vec<Vec<f64>> = (0..4).map(|_| vec![3.0]).collect();
        assert_eq!(pipeline_makespan(&serial, &[usize::MAX]), 12.0);
        assert_eq!(pipeline_makespan(&[], &[]), 0.0);
    }

    #[test]
    fn nl_bounds_contain_ground_truth() {
        let mut c = chain("vta:2>protoacc:4");
        let (lo, hi) = c.nl_bounds(&STREAM).unwrap();
        let obs = c.measure_stream(&STREAM).unwrap();
        let actual = Metric::Latency.of(&obs);
        assert!(lo <= hi);
        assert!(
            actual <= hi * 1.05,
            "actual {actual} should be ≤ NL upper {hi}"
        );
        assert!(lo > 0.0);
    }

    #[test]
    fn fault_on_one_stage_slows_the_stream() {
        let mut c = chain("vta:2>protoacc:2");
        let clean = Metric::Latency.of(&c.measure_stream(&STREAM).unwrap());
        c.set_fault(1, Some(FaultPlan::backpressure(3, 900, 500)));
        let faulted = Metric::Latency.of(&c.measure_stream(&STREAM).unwrap());
        assert!(
            faulted > clean,
            "faulted {faulted} should exceed clean {clean}"
        );
        c.set_fault(1, None);
        let back = Metric::Latency.of(&c.measure_stream(&STREAM).unwrap());
        assert_eq!(back, clean, "disarming restores the clean measurement");
    }

    #[test]
    fn oversize_streams_are_rejected_not_clamped() {
        // `items = 10000` used to be silently clamped to MAX_ITEMS and
        // answered as if the full stream had been modeled.
        let spec = WorkloadSpec::new("stream").with("items", 10_000.0);
        let err = StreamParams::from_spec(&spec).unwrap_err();
        assert!(err.to_string().contains("4096"), "{err}");
        assert!(err.to_string().contains("10000"), "{err}");
        // The boundary itself is accepted.
        let spec = WorkloadSpec::new("stream").with("items", 4096.0);
        assert_eq!(StreamParams::from_spec(&spec).unwrap().items, 4096);
    }

    #[test]
    fn dag_plan_round_robins_by_rank_with_item_affinity() {
        let topo = Topology::parse_chain("vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3").unwrap();
        let plan = DagPlan::new(&topo, 6);
        // Items alternate between the two middle stages…
        for i in 0..6 {
            assert_eq!(plan.route[0][i], Some(i % 2));
        }
        // …so each branch serves half the stream, and the join sees
        // every item exactly once.
        assert_eq!(plan.jobs[1].len(), 3);
        assert_eq!(plan.jobs[2].len(), 3);
        assert_eq!(plan.jobs[3].len(), 6);
        assert_eq!(plan.total_jobs(), 6 + 3 + 3 + 6);
        // Join jobs arrive in item order.
        let items: Vec<usize> = plan.jobs[3].iter().map(|j| j.item).collect();
        assert_eq!(items, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn dag_makespan_reduces_to_pipeline_makespan_on_chains() {
        let topo = Topology::parse_chain("vta:2>protoacc:3>bitcoin-miner:2").unwrap();
        let n = 9;
        let costs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i * 7 % 13 + 1) as f64, (i * 5 % 11 + 2) as f64, 4.0])
            .collect();
        let buffers = [3usize, 2, usize::MAX];
        let chain = pipeline_makespan(&costs, &buffers);
        let plan = DagPlan::new(&topo, n);
        let dag = dag_makespan(&costs, &plan, &[1, 1, 1], &[2, 3, 2]);
        assert_eq!(chain, dag, "DAG recurrence must reduce exactly on chains");
    }

    #[test]
    fn dag_composite_round_trips_both_evaluators_and_lints() {
        let topo = Topology::parse_chain("vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3").unwrap();
        let mut c = Composite::new(topo).unwrap();
        let (refr, stepper) = c.petri_makespan_both(&STREAM).unwrap();
        assert_eq!(refr, stepper, "evaluators must agree on the branched net");
        assert!(refr > 0);
        let diags = c.lint_net().unwrap();
        assert!(!diags.has_errors(), "{}", diags.render());
    }

    #[test]
    fn dag_tiers_track_ground_truth() {
        let topo = Topology::parse_chain("vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3").unwrap();
        let mut c = Composite::new(topo).unwrap();
        let actual = Metric::Latency.of(&c.measure_stream(&STREAM).unwrap());
        assert!(actual > 0.0);
        // NL bounds contain the measurement (same tolerance as the
        // chain test: the upper bound is intentionally loose).
        let (lo, hi) = c.nl_bounds(&STREAM).unwrap();
        assert!(lo <= hi);
        assert!(lo > 0.0);
        assert!(actual <= hi * 1.05, "actual {actual} vs NL upper {hi}");
        // The program recurrence models the same blocking law as the
        // DAG simulator; allow hand-off slack per job plus headroom for
        // merge arbitration differences.
        let costs = c.measured_costs(&STREAM).unwrap();
        let sim = c.simulate(&costs) as f64;
        let plan = DagPlan::new(c.topology(), STREAM.items);
        let replicas: Vec<usize> = c.topology().stages.iter().map(|s| s.replicas).collect();
        let queues: Vec<usize> = c.topology().stages.iter().map(|s| s.queue).collect();
        let analytic = dag_makespan(&costs, &plan, &replicas, &queues);
        let slack = (plan.total_jobs() * 4 + 64) as f64;
        assert!(
            (sim - analytic).abs() <= slack,
            "sim {sim} vs recurrence {analytic} (slack {slack})"
        );
    }

    #[test]
    fn broadcast_topology_copies_the_stream() {
        let toml = r#"
            name = "bcast"
            [[stage]]
            instance = "dec"
            accel = "vta"
            queue = 2
            [[stage]]
            instance = "a"
            accel = "protoacc"
            queue = 2
            [[stage]]
            instance = "b"
            accel = "protoacc"
            queue = 2
            [[edge]]
            from = "dec"
            to = "a"
            policy = "broadcast"
            [[edge]]
            from = "dec"
            to = "b"
            policy = "broadcast"
        "#;
        let topo = Topology::parse_toml(toml).unwrap();
        let plan = DagPlan::new(&topo, 4);
        assert_eq!(plan.jobs[1].len(), 4, "each branch sees every item");
        assert_eq!(plan.jobs[2].len(), 4);
        let mut c = Composite::new(topo).unwrap();
        let stream = StreamParams { items: 4, seed: 1 };
        let actual = Metric::Latency.of(&c.measure_stream(&stream).unwrap());
        assert!(actual > 0.0);
        let (refr, stepper) = c.petri_makespan_both(&stream).unwrap();
        assert_eq!(refr, stepper);
        let (lo, hi) = c.nl_bounds(&stream).unwrap();
        assert!(lo > 0.0 && actual <= hi * 1.05, "{lo}..{hi} vs {actual}");
    }

    #[test]
    fn replicas_speed_up_the_bottleneck_stage() {
        // vta dominates this chain by ~2 orders of magnitude, so
        // doubling *its* servers must show up in every tier.
        let single = Topology::parse_chain("vta:2>bitcoin-miner:4>protoacc:2").unwrap();
        let doubled = Topology::parse_chain("vta*2:2>bitcoin-miner:4>protoacc:2").unwrap();
        let stream = StreamParams { items: 8, seed: 3 };
        let mut c1 = Composite::new(single).unwrap();
        let mut c2 = Composite::new(doubled).unwrap();
        let t1 = Metric::Latency.of(&c1.measure_stream(&stream).unwrap());
        let t2 = Metric::Latency.of(&c2.measure_stream(&stream).unwrap());
        assert!(
            t2 < t1,
            "doubling the bottleneck's servers must cut the makespan ({t2} vs {t1})"
        );
        // The Petri realization agrees (serve transition gets the
        // replica count as its server count).
        let p1 = c1.petri_makespan(&stream).unwrap();
        let p2 = c2.petri_makespan(&stream).unwrap();
        assert!(p2 < p1, "petri replicas must help too ({p2} vs {p1})");
        // And the recurrence's lower tiers see the speedup as well.
        let g1 = c1.program_makespan(&stream).unwrap();
        let g2 = c2.program_makespan(&stream).unwrap();
        assert!(g2 < g1, "recurrence replicas must help ({g2} vs {g1})");
    }

    #[test]
    fn fault_on_a_dag_stage_slows_the_stream() {
        let topo = Topology::parse_chain("vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3").unwrap();
        let mut c = Composite::new(topo).unwrap();
        let clean = Metric::Latency.of(&c.measure_stream(&STREAM).unwrap());
        c.set_fault(3, Some(FaultPlan::backpressure(2, 900, 500)));
        let faulted = Metric::Latency.of(&c.measure_stream(&STREAM).unwrap());
        assert!(faulted > clean, "faulted {faulted} vs clean {clean}");
        c.set_fault(3, None);
        assert_eq!(
            Metric::Latency.of(&c.measure_stream(&STREAM).unwrap()),
            clean
        );
    }

    #[test]
    fn unknown_spec_kind_is_rejected_at_construction() {
        let mut topo = Topology::parse_chain("vta:2>protoacc:2").unwrap();
        topo.stages[0].kind = "no-such-kind".to_string();
        let err = match Composite::new(topo) {
            Err(e) => e,
            Ok(_) => panic!("bad spec kind must be rejected"),
        };
        assert!(err.to_string().contains("no-such-kind"), "{err}");
    }
}
