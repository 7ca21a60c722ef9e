//! Structural and dynamic analyses of performance nets.

use crate::net::Net;
use crate::SimResult;

/// Structural facts about a net, computed without simulating it.
#[derive(Clone, Debug, PartialEq)]
pub struct Structure {
    /// Places with no incoming arcs (workload entry points).
    pub sources: Vec<String>,
    /// Sink places.
    pub sinks: Vec<String>,
    /// Places from which no sink is reachable — tokens entering them
    /// can never complete; almost always a modeling bug.
    pub dead_ends: Vec<String>,
    /// Whether every transition preserves token count (sum of input
    /// weights equals sum of output weights). Conservative nets cannot
    /// create or destroy work items.
    pub conservative: bool,
}

/// Computes structural facts for `net`.
pub fn structure(net: &Net) -> Structure {
    let n = net.places().len();
    let mut has_in = vec![false; n];
    // Adjacency place -> places reachable in one transition hop.
    let mut next: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut conservative = true;
    for t in net.transitions() {
        let win: usize = t.inputs.iter().map(|&(_, w)| w).sum();
        let wout: usize = t.outputs.iter().map(|&(_, w)| w).sum();
        if win != wout {
            conservative = false;
        }
        for &(o, _) in &t.outputs {
            has_in[o.index()] = true;
        }
        for &(i, _) in &t.inputs {
            for &(o, _) in &t.outputs {
                next[i.index()].push(o.index());
            }
        }
    }
    let sources = net
        .places()
        .iter()
        .enumerate()
        .filter(|&(i, p)| !has_in[i] && !p.is_sink)
        .map(|(_, p)| p.name.clone())
        .collect();
    let sinks: Vec<String> = net
        .places()
        .iter()
        .filter(|p| p.is_sink)
        .map(|p| p.name.clone())
        .collect();
    // Reverse reachability from sinks.
    let mut reaches_sink: Vec<bool> = net.places().iter().map(|p| p.is_sink).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if !reaches_sink[i] && next[i].iter().any(|&j| reaches_sink[j]) {
                reaches_sink[i] = true;
                changed = true;
            }
        }
    }
    let dead_ends = net
        .places()
        .iter()
        .enumerate()
        .filter(|&(i, p)| !p.is_sink && !reaches_sink[i])
        .map(|(_, p)| p.name.clone())
        .collect();
    Structure {
        sources,
        sinks,
        dead_ends,
        conservative,
    }
}

/// Dynamic utilization summary extracted from a [`SimResult`].
#[derive(Clone, Debug)]
pub struct Utilization {
    /// `(transition name, firings, busy fraction of makespan)`.
    pub transitions: Vec<(String, u64, f64)>,
    /// `(place name, peak occupancy)`.
    pub places: Vec<(String, usize)>,
    /// The transition with the highest busy fraction (the bottleneck).
    pub bottleneck: Option<String>,
}

/// Summarizes where time was spent in a run.
pub fn utilization(net: &Net, res: &SimResult) -> Utilization {
    let makespan = res.makespan.max(1) as f64;
    let transitions: Vec<(String, u64, f64)> = net
        .transitions()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            (
                t.name.clone(),
                res.firings[i],
                res.busy[i] as f64 / makespan,
            )
        })
        .collect();
    let bottleneck = transitions
        .iter()
        .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(core::cmp::Ordering::Equal))
        .filter(|t| t.2 > 0.0)
        .map(|t| t.0.clone());
    let places = net
        .places()
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), res.high_water[i]))
        .collect();
    Utilization {
        transitions,
        places,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use crate::token::Token;
    use crate::{CompiledNet, Options};
    use perf_iface_lang::Value;

    fn pipe() -> Net {
        let mut b = NetBuilder::new("pipe");
        let src = b.place("src", None);
        let mid = b.place("mid", Some(2));
        let z = b.sink("z");
        b.transition("fast", &[src], &[mid], |_| 1, |ts| vec![ts[0].data.clone()]);
        b.transition("slow", &[mid], &[z], |_| 9, |ts| vec![ts[0].data.clone()]);
        b.build().unwrap()
    }

    #[test]
    fn structure_of_pipeline() {
        let net = pipe();
        let s = structure(&net);
        assert_eq!(s.sources, vec!["src"]);
        assert_eq!(s.sinks, vec!["z"]);
        assert!(s.dead_ends.is_empty());
        assert!(s.conservative);
    }

    #[test]
    fn dead_end_detected() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let trap = b.place("trap", None);
        let z = b.sink("z");
        b.transition("t1", &[a], &[trap], |_| 1, |ts| vec![ts[0].data.clone()]);
        // `trap` has no outgoing transitions; z is fed by nothing.
        let _ = z;
        let net = b.build().unwrap();
        let s = structure(&net);
        assert!(s.dead_ends.contains(&"trap".to_string()));
        // `a` can only reach `trap`, so it is a dead end too.
        assert!(s.dead_ends.contains(&"a".to_string()));
    }

    #[test]
    fn non_conservative_flagged() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z1 = b.sink("z1");
        let z2 = b.sink("z2");
        b.transition(
            "fork",
            &[a],
            &[z1, z2],
            |_| 1,
            |ts| vec![ts[0].data.clone(), ts[0].data.clone()],
        );
        let net = b.build().unwrap();
        assert!(!structure(&net).conservative);
    }

    #[test]
    fn utilization_finds_bottleneck() {
        let net = pipe();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, Options::default());
        for _ in 0..20 {
            e.inject(net.place_id("src").unwrap(), Token::at(Value::num(0.0), 0));
        }
        let r = e.run().unwrap();
        let u = utilization(&net, &r);
        assert_eq!(u.bottleneck.as_deref(), Some("slow"));
        let slow = u.transitions.iter().find(|t| t.0 == "slow").unwrap();
        assert_eq!(slow.1, 20);
        assert!(slow.2 > 0.9, "slow stage should be nearly saturated");
    }
}
