//! Natural-language interface for Protoacc (paper Fig. 1, bottom).

use perf_core::nl::{Claim, Direction, NlInterface, Quantity};

/// The Fig. 1 prose: throughput decreases as message nesting
/// increases, because each nesting level costs a pointer chase.
pub fn interface() -> NlInterface {
    NlInterface::new(
        "protoacc",
        "Throughput decreases as the degree of nesting in a message increases.",
    )
    .with_claim(Claim::Monotone {
        metric: Quantity::Throughput,
        axis: "nesting_depth".into(),
        direction: Direction::Decreasing,
    })
    .with_claim(Claim::Monotone {
        metric: Quantity::Latency,
        axis: "nesting_depth".into(),
        direction: Direction::Increasing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::service::nested;
    use crate::simx::{ProtoWorkload, ProtoaccSim};
    use perf_core::iface::Metric;
    use perf_core::GroundTruth;

    #[test]
    fn nesting_claims_hold() {
        let nl = interface();
        let mut tput_samples = Vec::new();
        let mut lat_samples = Vec::new();
        for depth in [0usize, 1, 2, 4, 6] {
            let mut sim = ProtoaccSim::default();
            let w = ProtoWorkload::of_format(&nested(depth), 30, 7);
            let obs = sim.measure(&w).unwrap();
            tput_samples.push((depth as f64, Metric::Throughput.of(&obs)));
            lat_samples.push((depth as f64, Metric::Latency.of(&obs)));
        }
        assert!(nl.claims[0].check(&tput_samples).unwrap().holds);
        assert!(nl.claims[1].check(&lat_samples).unwrap().holds);
    }
}
