//! What the ledger reads from the host: process CPU time and peak memory
//! from `/proc`, the core count that pins the engine's worker count, and
//! the metadata recorded beside every run.

use std::fs;
use std::sync::OnceLock;

/// Linux reports process times in clock ticks of 1/100 s (`USER_HZ`).
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Names of every `ICSAD_*` variable in the environment. `Engine::try_start*`
/// honours `ICSAD_INGEST_MODE`, `ICSAD_INGEST_WORKERS` and
/// `ICSAD_SPLIT_THRESHOLD`, and the kernel layer `ICSAD_KERNEL_BACKEND` /
/// `ICSAD_KERNEL_FMA`; any of them would silently change what a run
/// measures, so the harness refuses to start while one is set.
pub fn icsad_overrides() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("ICSAD_"))
        .collect();
    names.sort();
    names
}

/// Cores available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The pinned engine worker (and shard, and trainer thread) count:
/// one core is left to the load generator.
pub fn workers_for(nproc: usize) -> usize {
    nproc.saturating_sub(1).clamp(1, 4)
}

/// Which CPU each thread of a run is confined to. Left to itself the
/// scheduler sometimes keeps the generator and the worker it wakes on one
/// CPU, where they take turns, and sometimes on two, where they overlap:
/// two regimes 10 % apart in `pkg_s` and 12 % in `cpu_us_per_pkg` that
/// flip between runs and within them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Cores available before anything was pinned.
    pub nproc: usize,
    /// The load generator, set-up and the isolated probes run here.
    pub generator: usize,
    /// The engine's pool threads share these.
    pub workers: Vec<usize>,
}

impl Placement {
    /// The generator gets the first allowed CPU and the workers the next
    /// `workers_for(nproc)`; on a host too small for that the workers take
    /// what is left, and on one CPU everything shares it.
    fn plan(nproc: usize, allowed: &[usize]) -> Self {
        let rest = &allowed[1..];
        let workers = match rest.len() {
            0 => allowed.to_vec(),
            n => rest[..n.min(workers_for(nproc))].to_vec(),
        };
        Placement {
            nproc,
            generator: allowed[0],
            workers,
        }
    }
}

/// The run's placement, planned the first time it is asked for — pinning a
/// thread shrinks what `available_parallelism` and the affinity mask say
/// afterwards.
pub fn placement() -> &'static Placement {
    static PLACEMENT: OnceLock<Placement> = OnceLock::new();
    PLACEMENT.get_or_init(|| Placement::plan(nproc(), &allowed_cpus()))
}

/// `cpu_set_t` of glibc and musl: 1,024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed; pid 0
    // is the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    assert_eq!(status, 0, "the affinity mask is readable");
    (0..1_024)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread, and every thread it starts from now on, to
/// `cpus`.
pub fn pin_to(cpus: &[usize]) {
    let mut mask: CpuSet = [0; 16];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the
    // calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    assert_eq!(status, 0, "CPUs {cpus:?} are among the allowed ones");
}

/// Process CPU time so far (user + system, every thread including ones
/// that already exited), in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from after its closing parenthesis, where field 3 comes first.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (ticks() + ticks()) / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

/// The commit the working directory is at, read from `.git` without
/// running git; `unknown` in an exported checkout.
pub fn git_sha() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}"))
            .map(|sha| sha.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// `rustc --version` of the toolchain on the path, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_core_is_left_to_the_generator() {
        assert_eq!(workers_for(1), 1);
        assert_eq!(workers_for(2), 1);
        assert_eq!(workers_for(4), 3);
        assert_eq!(workers_for(5), 4);
        assert_eq!(workers_for(64), 4);
    }

    #[test]
    fn workers_never_share_the_generators_cpu_unless_there_is_only_one() {
        let plan = Placement::plan(2, &[0, 1]);
        assert_eq!((plan.generator, plan.workers), (0, vec![1]));
        let plan = Placement::plan(8, &[2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!((plan.generator, plan.workers), (2, vec![3, 4, 5, 6]));
        // A quota below the mask: three workers want three CPUs.
        let plan = Placement::plan(4, &[0, 1, 2]);
        assert_eq!((plan.generator, plan.workers), (0, vec![1, 2]));
        let plan = Placement::plan(1, &[5]);
        assert_eq!((plan.generator, plan.workers), (5, vec![5]));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
