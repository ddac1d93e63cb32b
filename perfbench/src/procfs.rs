//! CPU time read from outside the program under test: `/proc/self/stat`
//! for the process and `/proc/self/task/*/{comm,stat}` per thread,
//! attributed by the names the service gives its threads.

use std::fs;

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, fixed at 100 per
/// second for user space on every architecture the service builds for.
const TICKS_PER_S: f64 = 100.0;

/// The CPU consumers a window's time is split between.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuSplit {
    /// The whole process (user + system), in seconds.
    pub process_s: f64,
    /// `dbi-shard-*` engine workers.
    pub shard_s: f64,
    /// `dbi-io-*` connection-plane threads plus `dbi-accept`.
    pub conn_s: f64,
    /// The benchmark's own driver thread.
    pub driver_s: f64,
}

impl CpuSplit {
    /// Reads the current totals; `None` where `/proc` is unavailable.
    #[must_use]
    pub fn read(driver_tid: u32) -> Option<CpuSplit> {
        let process_s = process_cpu_s()?;
        let mut split = CpuSplit {
            process_s,
            ..CpuSplit::default()
        };
        for entry in fs::read_dir("/proc/self/task").ok()? {
            let path = entry.ok()?.path();
            // A thread can exit between the listing and the reads; it
            // then no longer belongs to any window.
            let (Ok(comm), Ok(stat)) = (
                fs::read_to_string(path.join("comm")),
                fs::read_to_string(path.join("stat")),
            ) else {
                continue;
            };
            let Some(ticks) = parse_stat(&stat) else {
                continue;
            };
            let seconds = ticks_to_s(ticks);
            let tid: Option<u32> = path.file_name()?.to_str()?.parse().ok();
            match comm.trim_end() {
                name if name.starts_with("dbi-shard-") => split.shard_s += seconds,
                name if name.starts_with("dbi-io-") || name == "dbi-accept" => {
                    split.conn_s += seconds;
                }
                _ if tid == Some(driver_tid) => split.driver_s += seconds,
                _ => {}
            }
        }
        Some(split)
    }

    /// CPU each consumer spent between `before` and `self`.
    #[must_use]
    pub fn since(&self, before: &CpuSplit) -> CpuSplit {
        CpuSplit {
            process_s: self.process_s - before.process_s,
            shard_s: self.shard_s - before.shard_s,
            conn_s: self.conn_s - before.conn_s,
            driver_s: self.driver_s - before.driver_s,
        }
    }
}

/// The whole process's CPU time so far (user + system), in seconds;
/// `None` where `/proc` is unavailable.
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    Some(ticks_to_s(parse_stat(
        &fs::read_to_string("/proc/self/stat").ok()?,
    )?))
}

/// The calling thread's kernel id, read from `/proc/thread-self`.
#[must_use]
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// `utime + stime` in ticks from one `stat` line. The command name sits
/// in parentheses and may itself hold spaces or parentheses, so fields
/// are counted from the last `)`: state is field 3, utime 14, stime 15.
#[must_use]
pub fn parse_stat(line: &str) -> Option<u64> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn ticks_to_s(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let line = "4242 (dbi-shard-0) S 1 4242 4242 0 -1 4194368 120 0 0 0 \
                    731 25 0 0 20 0 3 0 12345 0 0";
        assert_eq!(parse_stat(line), Some(756));
        // A command name with spaces and a closing paren of its own.
        let odd = "7 (a) b) c) R 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 9 0 0";
        assert_eq!(parse_stat(odd), Some(11));
        assert_eq!(parse_stat("7 (truncated) R 1 2"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn live_proc_attributes_the_calling_thread() {
        let Some(tid) = current_tid() else {
            return; // no /proc: nothing to attribute
        };
        // Burn a few ticks on this thread so it shows up as the driver.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let split = CpuSplit::read(tid).expect("/proc/self is readable");
        assert!(split.driver_s > 0.0, "{split:?}");
        assert!(split.process_s >= split.driver_s, "{split:?}");
        assert_eq!(split.since(&split).process_s, 0.0);
    }
}
