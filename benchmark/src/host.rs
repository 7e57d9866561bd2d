//! What the benchmark needs from the host: CPU pinning, process CPU time,
//! peak memory and context-switch counts.
//!
//! The container has no `libc` crate, so the two system calls `/proc`
//! cannot replace are declared here; this module holds the only `unsafe`
//! code of the benchmark.

use std::time::Duration;

/// Words in the affinity mask handed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;
/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

fn status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .map(|value| value.trim().to_string())
}

/// The CPUs this thread may run on, ascending (`Cpus_allowed_list`, e.g.
/// `0-1,4`). Empty when `/proc` is not readable.
pub fn allowed_cpus() -> Vec<usize> {
    let Some(list) = status_field("Cpus_allowed_list") else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(first), Ok(last)) = (first.parse::<usize>(), last.parse::<usize>()) {
            cpus.extend(first..=last);
        }
    }
    cpus
}

/// Restrict the calling thread, and every thread it spawns afterwards, to
/// `cpus`. Returns whether the kernel accepted the mask.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu < MASK_WORDS * 64 {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
    }
    if mask.iter().all(|&word| word == 0) {
        return false;
    }
    // SAFETY: `mask` is a live, initialised array of exactly the byte
    // length passed, the kernel only reads it, and pid 0 names the calling
    // thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pin the calling thread to the highest-numbered CPU it may use: the
/// live overlay's ten-odd threads cost more in cross-core wake-ups than
/// they gain from a second core, so one core gives numbers that repeat.
/// Returns the CPU, or `None` when pinning is impossible.
pub fn pin_to_last_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    set_affinity(&[cpu]).then_some(cpu)
}

fn cpu_clock(clock: i32) -> Duration {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a valid, writable `timespec` of the layout the
    // 64-bit Linux ABI defines, and both callers pass a clock id of that ABI.
    let ok = unsafe { clock_gettime(clock, &mut time) == 0 };
    if ok {
        Duration::new(
            time.sec.max(0) as u64,
            time.nsec.clamp(0, 999_999_999) as u32,
        )
    } else {
        Duration::ZERO
    }
}

/// User plus system CPU time of the whole process so far.
pub fn process_cpu_time() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far: unlike wall time it does not
/// grow while the thread is preempted.
pub fn thread_cpu_time() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM")
        .and_then(|value| value.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Voluntary plus involuntary context switches, summed over every thread
/// of the process.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if line.starts_with("voluntary_ctxt_switches")
                || line.starts_with("nonvoluntary_ctxt_switches")
            {
                if let Some(count) = line.split_whitespace().nth(1) {
                    total += count.parse::<u64>().unwrap_or(0);
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mib() > 0.0);
        let before = process_cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_time() > before);
    }
}
