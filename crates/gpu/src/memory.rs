//! Device global and constant memory.
//!
//! A first-fit allocator over a flat address space, with bounds-checked
//! reads and writes. The memory is *real*: functional kernel bodies
//! compute into it, so tests can assert that a consolidated launch
//! produces byte-identical results to serial launches. Constant memory is
//! a separate small region used by the backend's constant-data-reuse
//! optimisation (the AES T-tables of Section IV).

use std::collections::BTreeMap;

use crate::error::GpuError;

/// An address in device global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// The null device pointer.
    pub fn null() -> Self {
        DevicePtr(0)
    }

    /// Is this the null pointer?
    pub fn is_null(&self) -> bool {
        self.0 == 0
    }
}

/// Allocation alignment (CUDA guarantees 256-byte alignment).
const ALIGN: u64 = 256;
/// Lowest address handed out (0 stays null).
const BASE: u64 = 0x1000;

#[derive(Debug)]
struct Alloc {
    data: Vec<u8>,
}

impl Alloc {
    /// The bounds check every access goes through: `len` bytes at
    /// `offset` as an index range into `data`.
    fn range(
        &self,
        ptr: DevicePtr,
        offset: u64,
        len: u64,
    ) -> Result<std::ops::Range<usize>, GpuError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.data.len() as u64 => Ok(offset as usize..end as usize),
            _ => Err(GpuError::OutOfBounds {
                addr: ptr.0.wrapping_add(offset),
                len,
                alloc: self.data.len() as u64,
            }),
        }
    }
}

/// Device global memory: allocator + backing store.
#[derive(Debug)]
pub struct GlobalMemory {
    capacity: u64,
    constant_capacity: u64,
    constant_used: u64,
    allocs: BTreeMap<u64, Alloc>,
    used: u64,
}

impl GlobalMemory {
    /// Create a memory of `capacity` bytes plus a `constant_capacity`
    /// constant region.
    pub fn new(capacity: u64, constant_capacity: u64) -> Self {
        GlobalMemory {
            capacity,
            constant_capacity,
            constant_used: 0,
            allocs: BTreeMap::new(),
            used: 0,
        }
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes available (ignoring fragmentation).
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Bytes used in the constant region.
    pub fn constant_used(&self) -> u64 {
        self.constant_used
    }

    /// Allocate `len` bytes (zero-initialised), first-fit.
    pub fn alloc(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        if len == 0 || len > self.free_bytes() {
            return Err(GpuError::OutOfMemory {
                requested: len,
                free: self.free_bytes(),
            });
        }
        let padded = len.div_ceil(ALIGN) * ALIGN;
        let mut cursor = BASE;
        for (&base, a) in &self.allocs {
            if base.saturating_sub(cursor) >= padded {
                break;
            }
            cursor = base + (a.data.len() as u64).div_ceil(ALIGN) * ALIGN;
        }
        if cursor + len > BASE + self.capacity {
            return Err(GpuError::OutOfMemory {
                requested: len,
                free: self.free_bytes(),
            });
        }
        self.allocs.insert(
            cursor,
            Alloc {
                data: vec![0u8; len as usize],
            },
        );
        self.used += len;
        Ok(DevicePtr(cursor))
    }

    /// Reserve `len` bytes of constant memory and store `data` there.
    /// Constant memory is never freed (it lives for the device lifetime),
    /// matching its use for load-once lookup tables.
    pub fn alloc_constant(&mut self, data: &[u8]) -> Result<DevicePtr, GpuError> {
        let len = data.len() as u64;
        if self.constant_used + len > self.constant_capacity {
            return Err(GpuError::ConstantOverflow {
                requested: len,
                capacity: self.constant_capacity,
            });
        }
        self.constant_used += len;
        // Constant data is backed by the same store but does not count
        // against global capacity.
        let ptr = self.alloc_raw(len)?;
        self.write(ptr, 0, data)?;
        Ok(ptr)
    }

    fn alloc_raw(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        // Same as alloc but exempt from the capacity check (constant
        // region is separate silicon).
        let padded = len.div_ceil(ALIGN) * ALIGN;
        let mut cursor = BASE;
        for (&base, a) in &self.allocs {
            if base.saturating_sub(cursor) >= padded {
                break;
            }
            cursor = base + (a.data.len() as u64).div_ceil(ALIGN) * ALIGN;
        }
        self.allocs.insert(
            cursor,
            Alloc {
                data: vec![0u8; len as usize],
            },
        );
        Ok(DevicePtr(cursor))
    }

    /// Free an allocation.
    pub fn free(&mut self, ptr: DevicePtr) -> Result<(), GpuError> {
        match self.allocs.remove(&ptr.0) {
            Some(a) => {
                self.used -= a.data.len() as u64;
                Ok(())
            }
            None => Err(GpuError::InvalidPointer(ptr.0)),
        }
    }

    fn alloc_of(&self, ptr: DevicePtr) -> Result<&Alloc, GpuError> {
        self.allocs
            .get(&ptr.0)
            .ok_or(GpuError::InvalidPointer(ptr.0))
    }

    fn alloc_of_mut(&mut self, ptr: DevicePtr) -> Result<&mut Alloc, GpuError> {
        self.allocs
            .get_mut(&ptr.0)
            .ok_or(GpuError::InvalidPointer(ptr.0))
    }

    /// Size of the allocation behind `ptr`.
    pub fn len_of(&self, ptr: DevicePtr) -> Result<u64, GpuError> {
        Ok(self.alloc_of(ptr)?.data.len() as u64)
    }

    /// The `len` bytes at `offset` within the allocation at `ptr`,
    /// writable in place.
    fn range_mut(&mut self, ptr: DevicePtr, offset: u64, len: u64) -> Result<&mut [u8], GpuError> {
        let a = self.alloc_of_mut(ptr)?;
        let range = a.range(ptr, offset, len)?;
        Ok(&mut a.data[range])
    }

    /// Write `data` at `offset` within the allocation at `ptr`.
    pub fn write(&mut self, ptr: DevicePtr, offset: u64, data: &[u8]) -> Result<(), GpuError> {
        self.range_mut(ptr, offset, data.len() as u64)?
            .copy_from_slice(data);
        Ok(())
    }

    /// Read `len` bytes at `offset` within the allocation at `ptr`.
    pub fn read(&self, ptr: DevicePtr, offset: u64, len: u64) -> Result<&[u8], GpuError> {
        let a = self.alloc_of(ptr)?;
        Ok(&a.data[a.range(ptr, offset, len)?])
    }

    /// Write a slice of `f32` starting at element `elem_offset`,
    /// encoded straight into the allocation.
    pub fn write_f32s(
        &mut self,
        ptr: DevicePtr,
        elem_offset: u64,
        vals: &[f32],
    ) -> Result<(), GpuError> {
        let dst = self.range_mut(ptr, elem_offset * 4, vals.len() as u64 * 4)?;
        for (d, v) in dst.chunks_exact_mut(4).zip(vals) {
            d.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// The `n` `f32` values starting at element `elem_offset`, decoded
    /// as they are read: the iterator borrows the allocation, so a
    /// kernel body needs no temporary for its inputs.
    pub fn iter_f32s(
        &self,
        ptr: DevicePtr,
        elem_offset: u64,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = f32> + '_, GpuError> {
        let raw = self.read(ptr, elem_offset * 4, n as u64 * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])))
    }

    /// Read `n` `f32` values starting at element `elem_offset`.
    pub fn read_f32s(
        &self,
        ptr: DevicePtr,
        elem_offset: u64,
        n: usize,
    ) -> Result<Vec<f32>, GpuError> {
        Ok(self.iter_f32s(ptr, elem_offset, n)?.collect())
    }

    /// Write a slice of `u32` starting at element `elem_offset`,
    /// encoded straight into the allocation.
    pub fn write_u32s(
        &mut self,
        ptr: DevicePtr,
        elem_offset: u64,
        vals: &[u32],
    ) -> Result<(), GpuError> {
        let dst = self.range_mut(ptr, elem_offset * 4, vals.len() as u64 * 4)?;
        for (d, v) in dst.chunks_exact_mut(4).zip(vals) {
            d.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// The `n` `u32` values starting at element `elem_offset`, decoded
    /// as they are read (see [`GlobalMemory::iter_f32s`]).
    pub fn iter_u32s(
        &self,
        ptr: DevicePtr,
        elem_offset: u64,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = u32> + '_, GpuError> {
        let raw = self.read(ptr, elem_offset * 4, n as u64 * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
    }

    /// Read `n` `u32` values starting at element `elem_offset`.
    pub fn read_u32s(
        &self,
        ptr: DevicePtr,
        elem_offset: u64,
        n: usize,
    ) -> Result<Vec<u32>, GpuError> {
        Ok(self.iter_u32s(ptr, elem_offset, n)?.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> GlobalMemory {
        GlobalMemory::new(1 << 20, 4 << 10)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = mem();
        let p = m.alloc(1000).unwrap();
        assert!(!p.is_null());
        assert_eq!(m.used_bytes(), 1000);
        assert_eq!(m.len_of(p).unwrap(), 1000);
        m.free(p).unwrap();
        assert_eq!(m.used_bytes(), 0);
        assert_eq!(m.free(p), Err(GpuError::InvalidPointer(p.0)));
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = mem();
        let p = m.alloc(16).unwrap();
        m.write(p, 4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read(p, 4, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(m.read(p, 0, 4).unwrap(), &[0, 0, 0, 0]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = mem();
        let p = m.alloc(8).unwrap();
        assert!(matches!(
            m.write(p, 4, &[0; 8]),
            Err(GpuError::OutOfBounds { .. })
        ));
        assert!(matches!(m.read(p, 0, 9), Err(GpuError::OutOfBounds { .. })));
        assert!(matches!(
            m.read(p, u64::MAX, 2),
            Err(GpuError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn exhaustion_reported() {
        let mut m = GlobalMemory::new(1024, 0);
        let _a = m.alloc(512).unwrap();
        assert!(matches!(m.alloc(600), Err(GpuError::OutOfMemory { .. })));
        assert!(matches!(m.alloc(0), Err(GpuError::OutOfMemory { .. })));
    }

    #[test]
    fn first_fit_reuses_freed_holes() {
        let mut m = mem();
        let a = m.alloc(512).unwrap();
        let _b = m.alloc(512).unwrap();
        m.free(a).unwrap();
        let c = m.alloc(256).unwrap();
        assert_eq!(c, a, "hole should be reused first-fit");
    }

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut m = mem();
        let mut ptrs = Vec::new();
        for i in 1..20u64 {
            ptrs.push((m.alloc(i * 37).unwrap(), i * 37));
        }
        for (p, _) in &ptrs {
            assert_eq!(p.0 % ALIGN, 0);
        }
        for w in ptrs.windows(2) {
            let (p0, l0) = w[0];
            let (p1, _) = w[1];
            assert!(p0.0 + l0 <= p1.0);
        }
    }

    #[test]
    fn constant_memory_capacity_enforced() {
        let mut m = GlobalMemory::new(1 << 20, 64);
        let p = m.alloc_constant(&[7u8; 32]).unwrap();
        assert_eq!(m.read(p, 0, 32).unwrap(), &[7u8; 32]);
        assert_eq!(m.constant_used(), 32);
        assert!(matches!(
            m.alloc_constant(&[0u8; 64]),
            Err(GpuError::ConstantOverflow { .. })
        ));
    }

    #[test]
    fn typed_helpers_roundtrip() {
        let mut m = mem();
        let p = m.alloc(64).unwrap();
        m.write_f32s(p, 2, &[1.5, -2.25]).unwrap();
        assert_eq!(m.read_f32s(p, 2, 2).unwrap(), vec![1.5, -2.25]);
        m.write_u32s(p, 0, &[42, 7]).unwrap();
        assert_eq!(m.read_u32s(p, 0, 2).unwrap(), vec![42, 7]);
        assert_eq!(m.iter_f32s(p, 2, 2).unwrap().sum::<f32>(), -0.75);
        assert_eq!(m.iter_u32s(p, 0, 2).unwrap().len(), 2);
    }

    #[test]
    fn typed_helpers_are_bounds_checked() {
        let mut m = mem();
        let p = m.alloc(8).unwrap();
        assert!(matches!(
            m.write_u32s(p, 1, &[1, 2]),
            Err(GpuError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.write_f32s(p, 2, &[1.0]),
            Err(GpuError::OutOfBounds { .. })
        ));
        assert!(m.iter_u32s(p, 1, 2).is_err());
        assert!(m.iter_f32s(p, 0, 3).is_err());
        assert_eq!(m.read(p, 0, 8).unwrap(), &[0u8; 8], "nothing written");
    }
}
