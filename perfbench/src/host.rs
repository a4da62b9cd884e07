//! Host speed, measured beside every host-clock end-to-end figure.
//!
//! On a shared host the speed of one core drifts by up to a factor of two
//! over seconds, as neighbours load the machine: the same simulator round
//! takes 5 ms in one second and 9 ms in the next. A fixed reference kernel
//! that calls no repository code — random lookups in an 8192-entry hash
//! map, the kind of work the simulator's modelled TLBs and caches do —
//! slows down with it. Each timed interval is therefore probed before and
//! after, and its seconds are scaled to the nominal host speed, at which
//! one reference lookup takes [`NOMINAL_LOOKUP_NS`]. A change to the
//! simulator cannot move the kernel, so the scaled time still moves with
//! every change to the program. The scaling is partial: under some host
//! states the simulator slows by more than the kernel, so scaled figures
//! still drift, by far less than raw ones.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the reference table: 128 KiB of pairs, resident in L2.
const ENTRIES: u64 = 8192;
/// Lookups per probe: about 0.5 ms.
const LOOKUPS: u32 = 16384;
/// Host nanoseconds of one reference lookup at nominal speed, close to an
/// unloaded 2.1 GHz Xeon core.
pub const NOMINAL_LOOKUP_NS: f64 = 25.0;

/// The reference kernel.
pub struct Reference {
    /// A fixed-key hasher, so every run builds the same table layout.
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    state: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: (0..ENTRIES).map(|k| (key(k), k)).collect(),
            state: 1,
        }
    }
}

fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl Reference {
    /// How many times slower than nominal the host runs now: one probe's
    /// time over its nominal time. The table is read once untimed first,
    /// so what the measured interval left in the caches does not count.
    pub fn slowdown(&mut self) -> f64 {
        black_box(self.table.values().sum::<u64>());
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = self.table[&key((self.state >> 33) % ENTRIES)];
            acc = if v & 3 == 1 {
                acc.wrapping_add(v)
            } else {
                acc ^ (v << 1)
            };
        }
        black_box(acc);
        let ns = start.elapsed().as_secs_f64() * 1e9;
        ns / (f64::from(LOOKUPS) * NOMINAL_LOOKUP_NS)
    }

    /// Runs `interval` and returns its result and the mean of the
    /// slowdowns probed before and after it.
    pub fn around<T>(&mut self, interval: impl FnOnce() -> T) -> (T, f64) {
        let before = self.slowdown();
        let out = interval();
        (out, (before + self.slowdown()) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetupTime;

    #[test]
    fn around_returns_the_interval_result() {
        let mut host = Reference::default();
        let (out, slowdown) = host.around(|| 6 * 7);
        assert_eq!(out, 42);
        assert!(slowdown > 0.0);
    }

    #[test]
    fn setup_times_scale_to_nominal_speed() {
        let t = SetupTime {
            boot_s: 0.2,
            map_s: 0.4,
        }
        .scaled(2.0);
        assert_eq!((t.boot_s, t.map_s), (0.1, 0.2));
    }
}
