//! Peak resident set size (`getrusage(2)`) and CPU pinning (`sched_setaffinity(2)`).

/// `struct rusage` of Linux and the BSDs: two `timeval`s followed by
/// fourteen `long` fields, the first of which is `ru_maxrss`.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    fields: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `RUSAGE_SELF`.
const RUSAGE_SELF: i32 = 0;

/// Restrict this process, and the processes it starts from now on, to the
/// CPU it is running on. Returns whether the affinity was set.
pub fn pin_to_current_cpu() -> bool {
    // SAFETY: `sched_getcpu` takes no arguments and only reads kernel state.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else { return false };
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else { return false };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable `cpu_set_t` of `size_of_val(&mask)` bytes
    // (1024 CPUs, the C library's default size) and pid 0 names this thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Peak resident set size of this process so far, in KiB (0 if unknown).
pub fn peak_rss_kb() -> u64 {
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], fields: [0; 14] };
    // SAFETY: `usage` is a writable, properly aligned `struct rusage` of the
    // size the C library expects on 64-bit Linux, and `RUSAGE_SELF` is a
    // valid `who`; the call only writes into `usage`.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return 0;
    }
    u64::try_from(usage.fields[0]).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_grows_with_touched_memory() {
        let before = super::peak_rss_kb();
        assert!(before > 0);
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(super::peak_rss_kb() >= before + 32 * 1024);
    }
}
