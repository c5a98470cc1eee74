//! Precompiled consolidated-kernel templates (Section IV).
//!
//! "A precompiled template is a CUDA kernel that implements a set of
//! consolidated workloads... parameterized to run multiple instances...
//! independent of block partitioning." Here a [`Template`] names the
//! workload combination it can merge and fixes the **member layout
//! order** — the order member kernels' blocks occupy the consolidated
//! grid, which (Section V) decides which SMs become critical. The paper's
//! observed layouts put the smaller kernel first, which is the default
//! [`Template::heterogeneous`] builds.

use std::collections::BTreeSet;

use crate::protocol::KernelRequest;

/// One precompiled template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Template name (for records).
    pub name: String,
    /// Workload names this template can merge, in layout order.
    pub members: Vec<String>,
    /// Minimum number of kernel instances worth merging.
    pub min_instances: usize,
}

impl Template {
    /// A homogeneous template: any number (≥ 2) of instances of one
    /// workload.
    pub fn homogeneous(workload: &str) -> Self {
        Template {
            name: format!("{workload}*N"),
            members: vec![workload.to_string()],
            min_instances: 2,
        }
    }

    /// A heterogeneous template over the given workloads; layout order is
    /// as passed (put the smaller kernel first to match the paper's
    /// observed placements).
    pub fn heterogeneous(name: &str, members: &[&str]) -> Self {
        Template {
            name: name.to_string(),
            members: members.iter().map(|s| s.to_string()).collect(),
            min_instances: 2,
        }
    }

    /// Does this template cover the workload `name`?
    pub fn covers(&self, name: &str) -> bool {
        self.members.iter().any(|m| m == name)
    }

    /// Indices of `pending` kernels this template would merge, in
    /// **layout order**: member order first, arrival order within a
    /// member. Returns `None` if fewer than `min_instances` match or the
    /// match does not span at least one instance of *every* member (a
    /// heterogeneous template without one of its parts is just the
    /// homogeneous case and should not shadow it).
    pub fn match_pending(&self, pending: &[&KernelRequest]) -> Option<Vec<usize>> {
        let mut picked = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for member in &self.members {
            for (i, req) in pending.iter().enumerate() {
                if *req.kernel.name == **member {
                    picked.push(i);
                    seen.insert(member.as_str());
                }
            }
        }
        if picked.len() >= self.min_instances && seen.len() == self.members.len() {
            Some(picked)
        } else {
            None
        }
    }
}

/// The backend's set of available templates, tried in registration order.
#[derive(Debug, Clone, Default)]
pub struct TemplateRegistry {
    templates: Vec<Template>,
}

impl TemplateRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a template; earlier registrations are preferred.
    pub fn register(&mut self, t: Template) {
        self.templates.push(t);
    }

    /// Registered templates in preference order.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Find the first template matching the pending set, with its
    /// matched indices.
    pub fn best_match(&self, pending: &[&KernelRequest]) -> Option<(&Template, Vec<usize>)> {
        for t in &self.templates {
            if let Some(idx) = t.match_pending(pending) {
                return Some((t, idx));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RegisteredKernel;
    use ewc_cpu::CpuTask;
    use ewc_gpu::kernel::{BlockFn, KernelArg};
    use ewc_gpu::{GpuError, KernelDesc};
    use ewc_workloads::registry::DeviceBuffers;
    use ewc_workloads::Workload;
    use std::sync::Arc;

    struct Dummy(&'static str);
    impl Workload for Dummy {
        fn name(&self) -> &'static str {
            self.0
        }
        fn desc(&self) -> KernelDesc {
            KernelDesc::builder(self.0).threads_per_block(32).build()
        }
        fn blocks(&self) -> u32 {
            1
        }
        fn cpu_task(&self) -> CpuTask {
            CpuTask::new(self.0, 1.0, 1, 0)
        }
        fn h2d_bytes(&self) -> u64 {
            0
        }
        fn d2h_bytes(&self) -> u64 {
            0
        }
        fn body(&self) -> BlockFn {
            Arc::new(|_, _| {})
        }
        fn build_args(
            &self,
            _gpu: &mut dyn ewc_gpu::DeviceAlloc,
            _seed: u64,
        ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
            unimplemented!("not needed in template tests")
        }
        fn expected_output(&self, _seed: u64) -> Vec<u8> {
            Vec::new()
        }
    }

    fn req(name: &'static str, seq: u64) -> KernelRequest {
        KernelRequest {
            ctx: seq,
            seq,
            kernel: Arc::new(RegisteredKernel::resolve(name, &Dummy(name))),
            args: Vec::new(),
            submitted_at_s: 0.0,
            priority: crate::admission::Priority::Normal,
        }
    }

    fn refs(v: &[KernelRequest]) -> Vec<&KernelRequest> {
        v.iter().collect()
    }

    #[test]
    fn homogeneous_matching_needs_two() {
        let t = Template::homogeneous("encryption");
        assert!(t.match_pending(&refs(&[req("encryption", 0)])).is_none());
        let pending = [req("encryption", 0), req("search", 1), req("encryption", 2)];
        assert_eq!(t.match_pending(&refs(&pending)), Some(vec![0, 2]));
    }

    #[test]
    fn heterogeneous_requires_every_member() {
        let t = Template::heterogeneous("s+b", &["search", "blackscholes"]);
        let only_bs = [req("blackscholes", 0), req("blackscholes", 1)];
        assert!(
            t.match_pending(&refs(&only_bs)).is_none(),
            "missing search member"
        );
        let mixed = [
            req("blackscholes", 0),
            req("search", 1),
            req("blackscholes", 2),
        ];
        // Layout order: search first (member order), then BS by arrival.
        assert_eq!(t.match_pending(&refs(&mixed)), Some(vec![1, 0, 2]));
    }

    #[test]
    fn registry_prefers_registration_order() {
        let mut reg = TemplateRegistry::new();
        reg.register(Template::heterogeneous(
            "e+m",
            &["encryption", "montecarlo"],
        ));
        reg.register(Template::homogeneous("encryption"));
        let pending = [req("encryption", 0), req("encryption", 1)];
        let (t, idx) = reg.best_match(&refs(&pending)).unwrap();
        assert_eq!(
            t.name, "encryption*N",
            "hetero template must not match without MC"
        );
        assert_eq!(idx, vec![0, 1]);

        let pending = [
            req("encryption", 0),
            req("montecarlo", 1),
            req("encryption", 2),
        ];
        let (t, idx) = reg.best_match(&refs(&pending)).unwrap();
        assert_eq!(t.name, "e+m");
        assert_eq!(idx, vec![0, 2, 1], "layout: all enc first, then mc");
    }

    #[test]
    fn no_match_on_unknown_or_single() {
        let mut reg = TemplateRegistry::new();
        reg.register(Template::homogeneous("sorting"));
        assert!(reg.best_match(&refs(&[req("sorting", 0)])).is_none());
        assert!(reg
            .best_match(&refs(&[req("bfs", 0), req("bfs", 1)]))
            .is_none());
    }
}
