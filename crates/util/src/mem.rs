//! Cache-control primitives for the simulation hot loops.

/// Hint the CPU to pull the cache line containing `p` into all cache
/// levels ahead of an upcoming read.
///
/// The cycle kernel visits nodes in a per-tick random order (the paper's
/// shuffled-sweep discipline), so large networks pay a cache miss per
/// node; issuing this a few nodes ahead of the sweep position overlaps
/// those misses with useful work. Purely a performance hint: it never
/// faults (invalid addresses are ignored by the hardware) and has no
/// architectural effect, so callers need no safety obligations and
/// results cannot depend on it. Compiles to nothing on architectures
/// without a prefetch intrinsic.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is architecturally a no-op hint; it cannot fault
    // even on unmapped addresses.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM PLDL1KEEP is likewise a non-faulting hint.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Best-effort request that the kernel back `[ptr, ptr+len)` with huge
/// pages (`madvise(MADV_HUGEPAGE)` on Linux; no-op elsewhere).
///
/// The simulation arenas are a few large flat buffers walked in a random
/// per-tick order; under 4 KiB pages a 10k-node network already touches
/// more pages per tick than the second-level TLB holds, so every slot
/// visit pays a page walk on top of the cache miss. 2 MiB pages collapse
/// the arenas to a handful of TLB entries. Purely advisory: alignment is
/// rounded inward to page boundaries, errors are ignored, and memory
/// *contents* are unaffected, so behavior cannot depend on it.
pub fn advise_hugepages<T>(ptr: *const T, len_bytes: usize) {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const PAGE: usize = 4096;
        const SYS_MADVISE: i64 = 28;
        const MADV_HUGEPAGE: i64 = 14;
        let start = (ptr as usize).next_multiple_of(PAGE);
        let end = (ptr as usize + len_bytes) & !(PAGE - 1);
        if end <= start {
            return;
        }
        // SAFETY: madvise(MADV_HUGEPAGE) is an advisory syscall — it never
        // alters memory contents and fails harmlessly on unmapped ranges.
        // Raw syscall keeps the workspace libc-free.
        unsafe {
            let ret: i64;
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MADVISE => ret,
                in("rdi") start,
                in("rsi") end - start,
                in("rdx") MADV_HUGEPAGE,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
            let _ = ret;
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = (ptr, len_bytes);
    }
}

/// A heap slice with 64-byte (cache-line) alignment, for the arena
/// columns and eval scratch buffers the lane kernels walk: a 64-byte
/// start guarantees every 4-lane group of a row laid out at an
/// 8-multiple stride sits inside one cache line. Huge pages are advised
/// on the allocation before first touch (see [`advise_hugepages`]).
///
/// Restricted to element types without drop glue (`needs_drop::<T>()`
/// must be false — asserted at construction): `Drop` only frees the
/// allocation, it never runs element destructors. That covers every
/// user in this workspace (`f64`, `UnsafeCell<f64>`, `u8` flags).
pub struct AlignedBox<T> {
    ptr: std::ptr::NonNull<T>,
    len: usize,
}

/// Alignment of every [`AlignedBox`] allocation, in bytes.
pub const ALIGN: usize = 64;

impl<T> AlignedBox<T> {
    /// Allocate `len` elements at 64-byte alignment, initializing slot
    /// `i` with `fill(i)`.
    pub fn new_with(len: usize, mut fill: impl FnMut(usize) -> T) -> Self {
        assert!(
            !std::mem::needs_drop::<T>(),
            "AlignedBox only holds drop-free element types"
        );
        if len == 0 {
            return AlignedBox {
                ptr: std::ptr::NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, and zero-sized T is
        // excluded by Layout::array only when the total rounds to zero —
        // pad_to_align keeps at least ALIGN bytes).
        let raw = unsafe { std::alloc::alloc(layout) } as *mut T;
        let Some(ptr) = std::ptr::NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout)
        };
        // Advise before first touch so faults populate huge pages.
        advise_hugepages(ptr.as_ptr(), len * std::mem::size_of::<T>());
        for i in 0..len {
            // SAFETY: i < len, within the fresh allocation.
            unsafe { ptr.as_ptr().add(i).write(fill(i)) };
        }
        AlignedBox { ptr, len }
    }

    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::array::<T>(len)
            .and_then(|l| l.align_to(ALIGN))
            .expect("AlignedBox layout overflow")
            .pad_to_align()
    }

    /// Base pointer of the allocation (64-byte aligned for `len > 0`).
    #[inline(always)]
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }

    /// Number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the box holds zero elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> std::ops::Deref for AlignedBox<T> {
    type Target = [T];
    #[inline(always)]
    fn deref(&self) -> &[T] {
        // SAFETY: ptr/len describe our initialized allocation (or a
        // dangling-but-valid empty slice when len == 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> std::ops::DerefMut for AlignedBox<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as for Deref, and &mut self gives unique access.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

// SAFETY: AlignedBox owns its allocation exactly like Box<[T]>.
unsafe impl<T: Send> Send for AlignedBox<T> {}
// SAFETY: shared access only hands out &[T] (or interior-mutable cells
// whose own Sync bound gates this).
unsafe impl<T: Sync> Sync for AlignedBox<T> {}

impl<T> Drop for AlignedBox<T> {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        // Elements are drop-free (asserted at construction): freeing the
        // allocation is the whole teardown.
        // SAFETY: same layout as the allocation in new_with.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.len)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advise_hugepages_is_harmless() {
        let v = vec![7u8; 4 << 20];
        advise_hugepages(v.as_ptr(), v.len());
        // Sub-page and empty ranges round inward to nothing.
        advise_hugepages(v.as_ptr(), 100);
        advise_hugepages(std::ptr::null::<u8>(), 0);
        assert!(v.iter().all(|&b| b == 7), "contents must be untouched");
    }

    #[test]
    fn prefetch_is_inert() {
        // A hint must not fault, not even on dangling or null addresses.
        let v = [1u8; 64];
        prefetch_read(v.as_ptr());
        prefetch_read(std::ptr::null::<u64>());
        prefetch_read(usize::MAX as *const u8);
        assert_eq!(v[0], 1);
    }

    #[test]
    fn aligned_box_is_cache_line_aligned_and_ordered() {
        let b = AlignedBox::new_with(37, |i| i as f64 * 0.5);
        assert_eq!(b.as_ptr() as usize % ALIGN, 0);
        assert_eq!(b.len(), 37);
        for (i, v) in b.iter().enumerate() {
            assert_eq!(*v, i as f64 * 0.5);
        }
        let mut b = b;
        b[36] = -1.0;
        assert_eq!(b[36], -1.0);
    }

    #[test]
    fn aligned_box_zero_len() {
        let b: AlignedBox<u64> = AlignedBox::new_with(0, |_| 0);
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }
}
