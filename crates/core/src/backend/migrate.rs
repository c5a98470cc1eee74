//! Drain/migrate: moving a context's buffers and constants off a
//! device whose breaker is open onto a healthy one.

use ewc_gpu::DevicePtr;
use ewc_telemetry::{DecisionRecord, Verdict};

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
        let allocs = self.ctx_allocs.get(&ctx).cloned().unwrap_or_default();
        let consts = self.ctx_constants.get(&ctx).cloned().unwrap_or_default();
        // Stage every buffer onto the destination first.
        let mut staged: Vec<(DevicePtr, DevicePtr)> = Vec::new();
        let mut moved = 0u64;
        let mut ok = true;
        for (fe_ptr, len) in &allocs {
            let actual = self.resolve(ctx, *fe_ptr);
            let bytes = match self.gpus[from].memory().read(actual, 0, *len) {
                Ok(b) => b.to_vec(),
                Err(_) => {
                    ok = false;
                    break;
                }
            };
            let new_ptr = match self.gpus[to].memory_mut().alloc(*len) {
                Ok(p) => p,
                Err(_) => {
                    ok = false;
                    break;
                }
            };
            if self.gpus[to]
                .memory_mut()
                .write(new_ptr, 0, &bytes)
                .is_err()
            {
                let _ = self.gpus[to].memory_mut().free(new_ptr);
                ok = false;
                break;
            }
            staged.push((*fe_ptr, new_ptr));
            moved += len;
        }
        // Constants: hit the destination's cache or re-load the data
        // kept from registration (`load_constant` stores the bytes).
        let mut const_remaps: Vec<(DevicePtr, DevicePtr)> = Vec::new();
        if ok {
            for (key, fe_ptr, data) in &consts {
                let ptr = match self.constants[to].lookup(key) {
                    Some(p) => p,
                    None => match self.gpus[to].load_constant(data) {
                        Ok(p) => {
                            self.constants[to].seed(key, p);
                            moved += data.len() as u64;
                            p
                        }
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    },
                };
                const_remaps.push((*fe_ptr, ptr));
            }
        }
        if !ok {
            for (_, new_ptr) in staged {
                let _ = self.gpus[to].memory_mut().free(new_ptr);
            }
            return false;
        }
        // Commit: free the source copies and install the remaps.
        for (fe_ptr, new_ptr) in &staged {
            let actual = self.resolve(ctx, *fe_ptr);
            let _ = self.gpus[from].memory_mut().free(actual);
            self.remap.entry(ctx).or_default().insert(*fe_ptr, *new_ptr);
        }
        for (fe_ptr, ptr) in const_remaps {
            self.remap.entry(ctx).or_default().insert(fe_ptr, ptr);
        }
        // The bytes cross PCIe twice (device→host staging, host→device):
        // one latency + bandwidth charge per leg, on the host clock —
        // the backend orchestrates the drain synchronously.
        let leg = |bw: f64, lat: f64| moved as f64 / bw + lat;
        let out_cfg = self.gpus[from].config();
        let t_out = leg(out_cfg.pcie_bandwidth, out_cfg.pcie_latency_s);
        let in_cfg = self.gpus[to].config();
        let t_in = leg(in_cfg.pcie_bandwidth, in_cfg.pcie_latency_s);
        self.clock.advance_by(t_out + t_in);
        self.fleet.rebind(ctx, to);
        self.stats.migrations += 1;
        self.stats.migrated_bytes += moved;
        if let Some(mut rec) = self.sink.lock() {
            rec.counter_add("migrations", 1.0);
            rec.counter_add(&self.device_counters[to].migrations, 1.0);
            rec.audit(DecisionRecord {
                time_s: self.clock.now_s(),
                kernels: Vec::new(),
                verdict: Verdict::Placed,
                consolidated: None,
                serial: None,
                cpu: None,
                reason: format!(
                    "ctx {ctx} drained off gpu{from} (breaker open) to gpu{to}: \
                     {} buffer(s), {} constant(s), {moved} bytes",
                    staged.len(),
                    consts.len()
                ),
            });
        }
        true
    }
}
