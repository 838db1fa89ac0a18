//! What the kernel reports about this process, and file-system helpers.

use std::path::Path;

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`, ...), in MB.
/// 0 where the field (or procfs) is unavailable.
pub fn status_mb(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

pub fn hwm_mb() -> f64 {
    status_mb("VmHWM")
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Copy a directory tree of regular files.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Remove a directory tree, ignoring one that is already gone.
pub fn remove_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_memory() {
        if Path::new("/proc/self/status").exists() {
            let rss = rss_mb();
            assert!(rss > 0.0);
            // Read after the RSS: other tests' threads may grow the process
            // in between, and the high-water mark never falls.
            assert!(hwm_mb() >= rss);
        }
        assert_eq!(status_mb("NoSuchField"), 0.0);
    }
}
