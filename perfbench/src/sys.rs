//! Process and host readings: per-thread CPU time, resident memory and
//! the facts every run echoes (cores, git revision, compiler).

use std::collections::BTreeMap;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Return free heap pages to the OS (glibc), so RSS readings after a
/// server is dropped start from what is still live.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only releases memory the allocator holds
    // free; it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// CPU time of thread `tid` of this process, in ns. Linux encodes a
/// thread's scheduler CPU clock as `(!tid << 3) | 6` (per-thread,
/// `CPUCLOCK_SCHED`), which is nanosecond-exact where `/proc` ticks
/// are 10 ms.
fn thread_cpu_ns(tid: i32) -> Option<u64> {
    let clock = ((!tid) << 3) | 6;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for), and
    // `clock_gettime` writes nothing else. An invalid clock id (a thread
    // that already exited) returns -1 and leaves `ts` untouched.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// CPU time of the calling thread, ns.
pub fn self_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: as in `thread_cpu_ns`: `ts` is a valid, writable
    // `struct timespec`, the only memory `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    } else {
        0
    }
}

/// One reading of every live thread: tid → (name, CPU ns).
pub type ThreadCpu = BTreeMap<i32, (String, u64)>;

pub fn threads() -> ThreadCpu {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        let name = std::fs::read_to_string(entry.path().join("comm"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        if let Some(ns) = thread_cpu_ns(tid) {
            out.insert(tid, (name, ns));
        }
    }
    out
}

/// CPU ns each thread alive in both readings spent between them, by
/// thread name (threads sharing a name are summed).
pub fn cpu_delta(before: &ThreadCpu, after: &ThreadCpu) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (tid, (name, ns)) in after {
        let start = before.get(tid).map_or(0, |(_, b)| *b);
        *out.entry(name.clone()).or_insert(0) += ns.saturating_sub(start);
    }
    out
}

/// Whether a thread belongs to the server (the Wrapper, the Execution
/// Objects and the archive spooler).
pub fn is_server_thread(name: &str) -> bool {
    name.starts_with("tcq-")
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident set size, bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:") * 1024
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` when the working directory
/// is a git checkout; "unknown" otherwise.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}

pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// Restrict thread `tid` of this process (0: the calling thread) to CPU
/// `cpu`. Returns whether the kernel accepted the mask.
pub fn pin(tid: i32, cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64 % 16] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable cpu_set_t-sized bitmask of
    // `size_of_val(&mask)` bytes; the call reads it and nothing else.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
