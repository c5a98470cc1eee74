//! Leader-frontend coordination for homogeneous groups (Section IV).
//!
//! "The framework randomly selects a leader frontend for homogeneous
//! workloads. Then only the leader frontend communicates with the
//! backend." We model the coordination cost of assembling a
//! consolidation group: without a leader every participating frontend
//! exchanges a round of messages with the backend; with a leader (only
//! possible when all members run the same workload) the followers check
//! in with the leader cheaply and one round trip hits the backend.

use crate::config::RuntimeConfig;
use crate::protocol::KernelRequest;

/// Result of planning a group's coordination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coordination {
    /// Elected leader context, if leader election applied.
    pub leader_ctx: Option<u64>,
    /// Wall-clock cost of assembling the group, seconds.
    pub cost_s: f64,
    /// Backend messages exchanged for coordination.
    pub messages: u64,
}

/// Plans coordination for consolidation groups.
#[derive(Debug, Clone)]
pub struct LeaderCoordinator {
    channel_latency_s: f64,
    coordination_s: f64,
    enabled: bool,
}

impl LeaderCoordinator {
    /// Build from the runtime configuration.
    pub fn new(cfg: &RuntimeConfig) -> Self {
        LeaderCoordinator {
            channel_latency_s: cfg.channel_latency_s,
            coordination_s: cfg.coordination_s,
            enabled: cfg.leader_election,
        }
    }

    /// Is the group homogeneous (all the same workload)?
    pub fn is_homogeneous(group: &[&KernelRequest]) -> bool {
        group
            .windows(2)
            .all(|w| w[0].kernel.name == w[1].kernel.name)
    }

    /// Plan the coordination of `group`.
    ///
    /// The "random" leader selection of the paper is made deterministic
    /// (lowest context id) so simulations are reproducible.
    pub fn plan(&self, group: &[&KernelRequest]) -> Coordination {
        let k = group.len() as u64;
        if k <= 1 {
            return Coordination {
                leader_ctx: None,
                cost_s: 0.0,
                messages: 0,
            };
        }
        if self.enabled && Self::is_homogeneous(group) {
            let leader = group.iter().map(|r| r.ctx).min().expect("non-empty group");
            // Followers synchronise with the leader (cheap, off the
            // backend channel); the leader pays one coordination round
            // with the backend.
            Coordination {
                leader_ctx: Some(leader),
                cost_s: self.coordination_s
                    + self.channel_latency_s * 2.0
                    + 0.05 * self.coordination_s * (k - 1) as f64,
                messages: 2,
            }
        } else {
            // Every frontend synchronises with the backend directly.
            Coordination {
                leader_ctx: None,
                cost_s: self.coordination_s * k as f64 + self.channel_latency_s * 2.0 * k as f64,
                messages: 2 * k,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::fixture::req;

    fn coordinator(enabled: bool) -> LeaderCoordinator {
        let cfg = RuntimeConfig {
            leader_election: enabled,
            coordination_s: 0.04,
            channel_latency_s: 0.001,
            ..RuntimeConfig::default()
        };
        LeaderCoordinator::new(&cfg)
    }

    #[test]
    fn homogeneous_group_elects_lowest_ctx() {
        let c = coordinator(true);
        let rs = [req("enc", 7), req("enc", 3), req("enc", 9)];
        let refs: Vec<&KernelRequest> = rs.iter().collect();
        let plan = c.plan(&refs);
        assert_eq!(plan.leader_ctx, Some(3));
        assert_eq!(plan.messages, 2);
    }

    #[test]
    fn leader_cuts_cost_versus_no_leader() {
        let with = coordinator(true);
        let without = coordinator(false);
        let rs: Vec<KernelRequest> = (0..9).map(|i| req("enc", i)).collect();
        let refs: Vec<&KernelRequest> = rs.iter().collect();
        let a = with.plan(&refs);
        let b = without.plan(&refs);
        assert!(
            a.cost_s < b.cost_s / 3.0,
            "leader {} vs none {}",
            a.cost_s,
            b.cost_s
        );
        assert!(a.messages < b.messages);
    }

    #[test]
    fn heterogeneous_group_has_no_leader() {
        let c = coordinator(true);
        let rs = [req("enc", 0), req("mc", 1)];
        let refs: Vec<&KernelRequest> = rs.iter().collect();
        let plan = c.plan(&refs);
        assert_eq!(plan.leader_ctx, None);
        assert_eq!(plan.messages, 4);
    }

    #[test]
    fn singleton_group_is_free() {
        let c = coordinator(true);
        let rs = [req("enc", 0)];
        let refs: Vec<&KernelRequest> = rs.iter().collect();
        assert_eq!(c.plan(&refs).cost_s, 0.0);
    }

    #[test]
    fn leader_cost_grows_mildly_with_group_size() {
        let c = coordinator(true);
        let grp = |k: u64| {
            let rs: Vec<KernelRequest> = (0..k).map(|i| req("enc", i)).collect();
            let refs: Vec<&KernelRequest> = rs.iter().collect();
            c.plan(&refs).cost_s
        };
        assert!(grp(16) < 2.0 * grp(2), "leader cost must grow sub-linearly");
    }
}
