//! Drain/migrate: moving a context — the buffers and constants its
//! record lists, and the record's device — off a card whose breaker is
//! open onto a healthy one.

use ewc_gpu::{DevicePtr, GpuError};
use ewc_telemetry::Verdict;

use super::Backend;
use crate::protocol::KernelRequest;

impl Backend {
    /// Drain every context of a dispatching group off tripped device
    /// `from` onto healthy device `to`. All-or-nothing per context;
    /// returns `false` (and leaves bindings untouched) when any context
    /// could not move, in which case the caller falls back to the CPU.
    pub(super) fn migrate_group(
        &mut self,
        group: &[KernelRequest],
        from: usize,
        to: usize,
    ) -> bool {
        let mut ctxs: Vec<u64> = group.iter().map(|r| r.ctx).collect();
        ctxs.sort_unstable();
        ctxs.dedup();
        for ctx in ctxs {
            if !self.migrate_ctx(ctx, from, to) {
                return false;
            }
        }
        true
    }

    /// Move one context's device state from `from` to `to`: copy every
    /// allocation across (raw memory ops — the staging happens inside
    /// the backend, not through the injected-fault transfer path),
    /// re-load its constants, install frontend-pointer remaps, charge
    /// deterministic PCIe time for both legs on the host clock, and
    /// rebind the context in the governor. All-or-nothing: a failure
    /// (e.g. the destination card is full) rolls back and returns
    /// `false` with the context still bound to `from`.
    fn migrate_ctx(&mut self, ctx: u64, from: usize, to: usize) -> bool {
        // Every member of a dispatched group has a record (its launch
        // made one); a context without one has nothing to move.
        let Some(record) = self.contexts.get(&ctx) else {
            return false;
        };
        // Stage every buffer onto the destination first, then the
        // constants: hit the destination's cache or re-load the data
        // kept from registration (`load_constant` stores the bytes).
        let mut staged: Vec<(DevicePtr, DevicePtr)> = Vec::new();
        let mut const_remaps: Vec<(DevicePtr, DevicePtr)> = Vec::new();
        let mut moved = 0u64;
        let mut stage = || -> Result<(), GpuError> {
            for &(fe_ptr, len) in &record.allocs {
                let actual = record.resolve(fe_ptr);
                let bytes = self.gpus[from].memory().read(actual, 0, len)?.to_vec();
                let new_ptr = self.gpus[to].memory_mut().alloc(len)?;
                staged.push((fe_ptr, new_ptr));
                self.gpus[to].memory_mut().write(new_ptr, 0, &bytes)?;
                moved += len;
            }
            for (key, fe_ptr, data) in &record.constants {
                let ptr = match self.constants[to].lookup(key) {
                    Some(p) => p,
                    None => {
                        let p = self.gpus[to].load_constant(data)?;
                        self.constants[to].seed(key, p);
                        moved += data.len() as u64;
                        p
                    }
                };
                const_remaps.push((*fe_ptr, ptr));
            }
            Ok(())
        };
        if stage().is_err() {
            for (_, new_ptr) in staged {
                let _ = self.gpus[to].memory_mut().free(new_ptr);
            }
            return false;
        }
        // Commit: free the source copies, install the remaps and move
        // the record to its new device.
        for (fe_ptr, _) in &staged {
            let _ = self.gpus[from].memory_mut().free(record.resolve(*fe_ptr));
        }
        let (buffers, constants) = (staged.len(), const_remaps.len());
        let record = self.context(ctx);
        record.remap.extend(staged);
        record.remap.extend(const_remaps);
        record.device = Some(to);
        // Its launches still queued now wait on `to`.
        let queued = record.queued;
        self.queued_on[from] -= queued;
        self.queued_on[to] += queued;
        // The bytes cross PCIe twice (device→host staging, host→device):
        // one latency + bandwidth charge per leg, on the host clock —
        // the backend orchestrates the drain synchronously.
        let leg = |bw: f64, lat: f64| moved as f64 / bw + lat;
        let out_cfg = self.gpus[from].config();
        let t_out = leg(out_cfg.pcie_bandwidth, out_cfg.pcie_latency_s);
        let in_cfg = self.gpus[to].config();
        let t_in = leg(in_cfg.pcie_bandwidth, in_cfg.pcie_latency_s);
        self.clock.advance_by(t_out + t_in);
        self.fleet.rebind(ctx, from, to);
        self.stats.migrations += 1;
        self.stats.migrated_bytes += moved;
        self.audit_event(Verdict::Placed, &[], || {
            format!(
                "ctx {ctx} drained off gpu{from} (breaker open) to gpu{to}: \
                 {buffers} buffer(s), {constants} constant(s), {moved} bytes"
            )
        });
        true
    }
}
