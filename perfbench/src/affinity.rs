//! Pins the object workloads' worker threads to distinct CPUs.
//!
//! Left to the OS, two busy workers on a 2-vCPU machine sometimes share one
//! CPU and take turns: each then runs uncontended for a whole time slice and
//! `objects_churn` reads about three times its cross-core throughput. Pinning
//! worker `i` to the `i`-th allowed CPU makes every run measure the same
//! thing: both workers running at once, contending across cores. With one
//! allowed CPU, both workers share it.

/// CPUs the process may run on, ascending; empty where unknown.
pub fn allowed_cpus() -> Vec<usize> {
    sys::allowed_cpus()
}

/// Pins the calling thread to `cpu`; returns whether the OS accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    sys::pin_current_thread(cpu)
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` of glibc: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    pub fn pin_current_thread(cpu: usize) -> bool {
        if cpu >= WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_can_be_pinned_to_an_allowed_cpu() {
        let cpus = allowed_cpus();
        if cfg!(target_os = "linux") {
            assert!(!cpus.is_empty());
            let last = *cpus.last().expect("non-empty");
            // A fresh thread, so the test runner's thread keeps its mask.
            let pinned = std::thread::spawn(move || {
                pin_current_thread(last) && allowed_cpus() == vec![last]
            })
            .join()
            .expect("no panic");
            assert!(pinned);
        }
        assert!(!pin_current_thread(usize::MAX));
    }
}
