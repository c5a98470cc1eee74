//! The frag-aware placement score.
//!
//! Round-robin needs no score: it is the governor's counter. Frag-aware
//! is a pure function of each device's spec and live load, so same-seed
//! runs place identically. Float scores break ties with `total_cmp` and
//! then the lowest device index — no ambient randomness anywhere.

use crate::config::DeviceSpec;

/// Fragmentation gradient of binding one more context to `spec` while it
/// runs `live`: the increase in SM-weighted `u·(1−u)` (u =
/// live/capacity), the classic fragmentation potential that peaks at
/// half-utilized devices. Concavity makes the busiest card the cheapest
/// move, so minimizing the gradient *packs* contexts and keeps spare
/// cards whole — the scoring shape of arXiv 2412.17484.
/// Oversubscription gets a load-proportional penalty instead.
fn frag_delta(spec: &DeviceSpec, live: u32) -> f64 {
    let cap = f64::from(spec.capacity());
    let live = f64::from(live);
    if live + 1.0 > cap {
        return 1.0 + live;
    }
    let frag = |l: f64| (l / cap) * (1.0 - l / cap);
    (frag(live + 1.0) - frag(live)) * f64::from(spec.gpu.num_sms)
}

/// The device whose fragmentation gradient grows least; ties break to
/// the lowest index (strict `<` keeps the first minimum).
pub(crate) fn frag_aware(specs: &[DeviceSpec], live: &[u32]) -> usize {
    let mut best = 0;
    let mut best_score = f64::INFINITY;
    for (d, (spec, &l)) in specs.iter().zip(live).enumerate() {
        let s = frag_delta(spec, l);
        if s.total_cmp(&best_score).is_lt() {
            best = d;
            best_score = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::ResiliencePolicy;
    use crate::config::FleetConfig;
    use crate::governor::FleetGovernor;
    use ewc_exec::VirtualClock;

    fn specs(n: usize) -> Vec<DeviceSpec> {
        FleetConfig::heterogeneous(n).devices
    }

    #[test]
    fn round_robin_cycles_regardless_of_load() {
        let clk = VirtualClock::new();
        let mut g =
            FleetGovernor::new(&FleetConfig::heterogeneous(3), &ResiliencePolicy::default());
        for ctx in 0..5 {
            let d = g.place(ctx, &clk).device as usize;
            g.rebind(ctx, d, 0);
        }
        assert_eq!(g.live(0), 5);
        let placed: Vec<u32> = (5..9).map(|ctx| g.place(ctx, &clk).device).collect();
        assert_eq!(placed, [2, 0, 1, 2]);
    }

    #[test]
    fn frag_aware_packs_the_busiest_card() {
        let specs = specs(3);
        let empty = frag_aware(&specs, &[0, 0, 0]);
        // Wherever the first context lands, the second follows it.
        let mut live = [0u32, 0, 0];
        live[empty] = 1;
        assert_eq!(frag_aware(&specs, &live), empty);
    }

    #[test]
    fn frag_aware_avoids_oversubscription() {
        let specs = specs(3);
        let full = [specs[0].capacity(), specs[1].capacity(), 0];
        assert_eq!(frag_aware(&specs, &full), 2, "only device 2 has room");
    }
}
