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
/// The simulator's slot buffer and row table are large flat buffers
/// walked in a random per-tick order; under 4 KiB pages a 10k-node network
/// already touches more pages per tick than the second-level TLB holds,
/// so every slot visit pays a page walk on top of the cache miss. 2 MiB
/// pages collapse them to a handful of TLB entries. Purely advisory: alignment is
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
}
