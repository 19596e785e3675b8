//! What the harness reads from `/proc` and the environment: CPU time,
//! peak memory, run-queue waiting, and the fingerprint of the machine a
//! result was taken on.

use std::ffi::{c_int, c_long};
use std::process::Command;

use crate::json::Json;

extern "C" {
    fn sysconf(name: c_int) -> c_long;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Words of a CPU mask: room for 1024 CPUs, the kernel's default limit.
const CPU_MASK_WORDS: usize = 16;

/// Binds the calling thread to the `slot`-th CPU it is allowed to run on
/// (the last one when there are fewer) — the `mpirun --bind-to core` of this
/// harness. Without it the two rank threads start on their parent's core
/// and are spread over the cores whenever the load balancer gets to it,
/// up to a second into the run; with it every run has the placement a
/// settled run has. Returns whether the binding took.
pub fn pin_to_cpu(slot: usize) -> bool {
    let mut allowed = [0u64; CPU_MASK_WORDS];
    // SAFETY: the kernel writes at most `cpusetsize` bytes into `allowed`,
    // which is exactly that large; pid 0 is the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..CPU_MASK_WORDS * 64)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[slot.min(cpus.len() - 1)];
    let mut one = [0u64; CPU_MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable mask of the size passed; pid 0 is the
    // calling thread, so no other thread's placement changes.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

const SC_CLK_TCK: c_int = 2;
const SIGKILL: c_int = 9;

/// Sends SIGKILL to every process of process group `pgid`.
pub fn kill_group(pgid: u32) {
    // SAFETY: `kill` takes two plain integers and touches no memory of
    // ours; a negative pid addresses the process group, and the only
    // groups passed here are ones this harness created for its workers.
    unsafe {
        kill(-(pgid as c_int), SIGKILL);
    }
}

fn clock_ticks_per_s() -> f64 {
    // SAFETY: `sysconf` with a constant name reads a system constant.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// User + system CPU seconds of this process (all threads, dead ones
/// included), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / clock_ticks_per_s()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (on-CPU ns, runnable-but-waiting ns) summed over the live threads of
/// this process, from `/proc/self/task/*/schedstat`.
pub fn sched_run_wait_ns() -> (f64, f64) {
    let mut run = 0.0;
    let mut wait = 0.0;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0.0, 0.0);
    };
    for task in tasks.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            let mut f = text
                .split_whitespace()
                .map(|v| v.parse::<f64>().unwrap_or(0.0));
            run += f.next().unwrap_or(0.0);
            wait += f.next().unwrap_or(0.0);
        }
    }
    (run, wait)
}

/// Removes every inherited `KAMPING_*` variable: the library parses 31 of
/// them at their point of use, and a stray `KAMPING_CHAOS` or
/// `KAMPING_COLL_STRATEGY` from the caller's shell would silently change
/// what is measured. Returns the names removed, for the record.
pub fn scrub_kamping_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("KAMPING_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn file_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Where a result was taken: enough to tell two machines (or two
/// toolchains) apart when their numbers disagree.
pub fn env_fingerprint(scrubbed: &[String]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .with("nproc", Json::Num(nproc as f64))
        .with("kernel", Json::Str(file_line("/proc/sys/kernel/osrelease")))
        .with("rustc", Json::Str(command_line("rustc", &["--version"])))
        .with(
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        )
        .with(
            "clock_source",
            Json::Str(file_line(
                "/sys/devices/system/clocksource/clocksource0/current_clocksource",
            )),
        )
        .with(
            "scrubbed_env",
            Json::Arr(scrubbed.iter().cloned().map(Json::Str).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        // Burn a little CPU so the tick counter is not zero on a fresh
        // test process.
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.5);
        let (run, _wait) = sched_run_wait_ns();
        assert!(run > 0.0);
    }
}
