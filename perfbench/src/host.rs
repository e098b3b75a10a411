//! Host-speed normalization of end-to-end times.
//!
//! The shared host this benchmark runs on changes speed by more than 2×
//! within minutes: a fixed loop of benchmark code took 9.8 ms in one run
//! and 23.3 ms a minute later, and `gpd detect` passes moved with it.
//! A median over one run cannot remove drift that slow, so every
//! end-to-end time is reported at a nominal host speed: each sample is
//! scaled by [`NOMINAL_MS`] over the time of a fixed reference loop run
//! right next to it. The loop is the benchmark's own std-only code, so
//! no change to the program can move it, while a slower host moves
//! both. The raw reference times are printed on standard error and
//! reported by the traced run as `host.ref_ms`. Serve times, which also
//! wait on `fdatasync`, are scaled by a blend of this and a disk
//! reference (see [`mixed_factor`]), reported as `host.disk_ref_ms`.

use std::time::Instant;

/// The reference loop's time on the host at its fast state, in
/// milliseconds: the speed every end-to-end time is reported at.
pub const NOMINAL_MS: f64 = 10.0;

/// A fixed piece of work touching memory the way the engines do:
/// hash-set inserts and probes, then a sort.
pub fn reference_work() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut set = std::collections::HashSet::with_capacity(1 << 16);
    let mut keys = Vec::with_capacity(1 << 17);
    for _ in 0..(1 << 17) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push(x);
        set.insert(x >> 44);
    }
    let hits = keys.iter().filter(|k| set.contains(&(*k >> 43))).count() as u64;
    keys.sort_unstable();
    hits ^ keys[keys.len() / 2]
}

/// Times one run of [`reference_work`], in milliseconds.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(reference_work());
    start.elapsed().as_secs_f64() * 1e3
}

/// Times one `fdatasync` of a small append to a file in `dir`, the
/// median of 16 tries, in milliseconds.
pub fn disk_reference_ms(dir: &std::path::Path) -> f64 {
    const TRIES: usize = 16;
    use std::io::Write;
    let path = dir.join("disk-reference");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("reference file");
    let mut times: Vec<f64> = (0..TRIES)
        .map(|_| {
            let start = Instant::now();
            file.write_all(&[7u8; 64]).expect("reference write");
            file.sync_data().expect("reference sync");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[TRIES / 2]
}

/// The factor that rescales a time measured next to a reference run of
/// `ref_ms` to the nominal host speed (rates divide by it).
pub fn factor(ref_ms: f64) -> f64 {
    NOMINAL_MS / ref_ms
}

/// [`disk_reference_ms`] on the host's disk at its fast state.
pub const NOMINAL_DISK_MS: f64 = 0.1;

/// Share of a saturated `fsync group` server's time spent waiting on
/// `fdatasync`: `vfs.sync_ms_share` of the traced run read 0.62.
const DISK_SHARE: f64 = 0.6;

/// The factor for work that waits on the disk for [`DISK_SHARE`] of its
/// time and computes for the rest: its slowdown is the blend of the
/// disk and the CPU slowdowns in that proportion.
pub fn mixed_factor(ref_ms: f64, disk_ms: f64) -> f64 {
    1.0 / ((1.0 - DISK_SHARE) * ref_ms / NOMINAL_MS + DISK_SHARE * disk_ms / NOMINAL_DISK_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(reference_work(), reference_work());
        assert!(reference_ms() > 0.0);
        assert_eq!(factor(NOMINAL_MS), 1.0);
        // A host twice as slow halves the times it reports.
        assert_eq!(factor(2.0 * NOMINAL_MS), 0.5);
        assert_eq!(mixed_factor(NOMINAL_MS, NOMINAL_DISK_MS), 1.0);
        let slower_disk = mixed_factor(NOMINAL_MS, 2.0 * NOMINAL_DISK_MS);
        assert!((slower_disk - 1.0 / 1.6).abs() < 1e-12);
    }
}
