//! Drain/migrate: moving a context — the buffers and constants its
//! record lists, and the record's device — off a card whose breaker is
//! open onto a healthy one.

use ewc_gpu::DevicePtr;
use ewc_telemetry::Verdict;

use super::Backend;
use crate::protocol::KernelRequest;

/// One context's device state copied onto the destination card but not
/// yet committed: the source still holds it and the context is still
/// bound there.
#[derive(Default)]
struct Staged {
    /// Per buffer: its frontend pointer, source on `from`, copy on `to`.
    buffers: Vec<(DevicePtr, DevicePtr, DevicePtr)>,
    /// Per constant: its frontend pointer and load on `to`.
    constants: Vec<(DevicePtr, DevicePtr)>,
    /// Bytes that cross PCIe.
    moved: u64,
}

impl Backend {
    /// Drain every context of a dispatching group off tripped device
    /// `from` onto healthy device `to`. All-or-nothing per group: every
    /// context is staged on `to` before any is committed, so when one
    /// cannot move, everything staged is freed, every binding stays on
    /// `from`, and this returns `false` (the caller falls back to the
    /// CPU on `from`).
    pub(super) fn migrate_group(
        &mut self,
        group: &[KernelRequest],
        from: usize,
        to: usize,
    ) -> bool {
        let mut ctxs: Vec<u64> = group.iter().map(|r| r.ctx).collect();
        ctxs.sort_unstable();
        ctxs.dedup();
        let mut staged = Vec::with_capacity(ctxs.len());
        for ctx in ctxs {
            let mut s = Staged::default();
            let complete = self.stage_ctx(ctx, &mut s, from, to).is_some();
            staged.push((ctx, s));
            if !complete {
                for &(_, _, copy) in staged.iter().flat_map(|(_, s)| &s.buffers) {
                    let _ = self.gpus[to].memory_mut().free(copy);
                }
                return false;
            }
        }
        for (ctx, s) in staged {
            self.commit_ctx(ctx, s, from, to);
        }
        true
    }

    /// Copy context `ctx`'s device state from `from` to `to` into `s`:
    /// every allocation (raw memory ops — the staging happens inside the
    /// backend, not through the injected-fault transfer path), then its
    /// constants, which hit the destination's cache or re-load the data
    /// kept from registration. `None` when something does not fit (e.g.
    /// the destination card is full); `s` then lists what was staged.
    fn stage_ctx(&mut self, ctx: u64, s: &mut Staged, from: usize, to: usize) -> Option<()> {
        // Every member of a dispatched group has a record (its launch
        // made one); a context without one has nothing to move.
        let record = self.contexts.get(&ctx)?;
        for &(fe_ptr, len) in &record.allocs {
            let source = record.resolve(fe_ptr);
            let bytes = self.gpus[from].memory().read(source, 0, len).ok()?.to_vec();
            let copy = self.gpus[to].memory_mut().alloc(len).ok()?;
            s.buffers.push((fe_ptr, source, copy));
            self.gpus[to].memory_mut().write(copy, 0, &bytes).ok()?;
            s.moved += len;
        }
        for (key, fe_ptr, data) in &record.constants {
            let ptr = match self.constants[to].lookup(key) {
                Some(p) => p,
                None => {
                    let p = self.gpus[to].load_constant(data).ok()?;
                    self.constants[to].seed(key, p);
                    s.moved += data.len() as u64;
                    p
                }
            };
            s.constants.push((*fe_ptr, ptr));
        }
        Some(())
    }

    /// Commit staged context `ctx`: free the source copies, install the
    /// frontend-pointer remaps, move the record to `to`, charge
    /// deterministic PCIe time for both legs on the host clock, and
    /// rebind the context in the governor.
    fn commit_ctx(&mut self, ctx: u64, s: Staged, from: usize, to: usize) {
        for &(_, source, _) in &s.buffers {
            let _ = self.gpus[from].memory_mut().free(source);
        }
        let record = self.context(ctx);
        let copies = s.buffers.iter().map(|&(fe_ptr, _, copy)| (fe_ptr, copy));
        record
            .remap
            .extend(copies.chain(s.constants.iter().copied()));
        record.device = Some(to);
        // Its launches still queued now wait on `to`.
        let queued = record.queued;
        self.queued_on[from] -= queued;
        self.queued_on[to] += queued;
        // The bytes cross PCIe twice (device→host staging, host→device):
        // one latency + bandwidth charge per leg, on the host clock —
        // the backend orchestrates the drain synchronously.
        let moved = s.moved;
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
                 {} buffer(s), {} constant(s), {moved} bytes",
                s.buffers.len(),
                s.constants.len()
            )
        });
    }
}
