//! Host fingerprint: what the numbers were measured on.

use std::fs;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of cpu0's highest-level cache as sysfs reports it, or
/// `None` where sysfs has no cache directory (containers, non-Linux).
pub fn llc_bytes() -> Option<u64> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, u64)> = None;
    for entry in fs::read_dir(dir).ok()?.flatten() {
        let read = |leaf: &str| fs::read_to_string(entry.path().join(leaf)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, unit) = size.split_at(size.trim_end_matches(['K', 'M', 'G']).len());
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        if let Ok(n) = digits.parse::<u64>() {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, n * scale));
            }
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// A `kB` field of a `/proc` status file, in bytes.
fn proc_kb(path: &str, field: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set of this process so far (`VmHWM`), in MB (1e6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    proc_kb("/proc/self/status", "VmHWM:").map(|b| b as f64 / 1e6)
}

/// Reset `VmHWM` to the current resident set (`clear_refs` code 5), so the
/// next [`peak_rss_mb`] covers only what ran in between. `false` where the
/// kernel refuses; the peak then stays the process's lifetime peak.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Memory the kernel estimates is available for new allocations, bytes.
pub fn mem_available_bytes() -> Option<u64> {
    proc_kb("/proc/meminfo", "MemAvailable:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_reads_are_sane_on_linux() {
        assert!(nproc() >= 1);
        let rss = peak_rss_mb().expect("VmHWM in /proc/self/status");
        assert!(rss > 0.1 && rss < 1e6, "{rss}");
        assert!(mem_available_bytes().expect("MemAvailable") > 1 << 20);
        if reset_peak_rss() {
            let block = vec![1u8; 64 << 20];
            let grown = peak_rss_mb().unwrap();
            drop(std::hint::black_box(block));
            assert!(reset_peak_rss());
            assert!(
                peak_rss_mb().unwrap() < grown - 32.0,
                "reset forgets the 64 MB block"
            );
        }
        if let Some(llc) = llc_bytes() {
            assert!(llc >= 1 << 14, "{llc}");
        }
    }
}
