//! A fixed host-speed probe.
//!
//! The host this benchmark runs on changes speed by up to half again for
//! seconds at a time, so the median of one run depends on how long the
//! host spent slow. The probe is a small discrete-event loop of its own,
//! a binary heap of pending events whose deliveries read and write a
//! 4 MiB table, which shares no code with the simulator, so a change to
//! the program cannot move it. Runs alternate each repetition with one
//! probe and scale their host times by the probe's median: slow stretches
//! slow both, and the ratio stays.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The probe's duration on the host the nominal times refer to, s.
pub const NOMINAL_S: f64 = 0.1;

const TABLE_WORDS: usize = 1 << 19;
const PENDING: u32 = 1024;
const EVENTS: u32 = 1_200_000;

/// The probe's state, allocated and touched once so that no probe pays
/// for page faults.
pub struct Probe {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            table: vec![1; TABLE_WORDS],
            heap: BinaryHeap::with_capacity(PENDING as usize + 1),
        }
    }

    /// Runs the probe once and returns its host duration, s.
    pub fn run(&mut self) -> f64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.heap.clear();
        for c in 0..PENDING {
            self.heap.push(Reverse((next() & 0xFFFF, c)));
        }
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((t, c)) = self.heap.pop().expect("the probe keeps PENDING events");
            let r = next();
            let i = (u64::from(c) * 4099 + r) as usize & (TABLE_WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(t);
            acc ^= self.table[(r >> 24) as usize & (TABLE_WORDS - 1)];
            self.heap.push(Reverse((t + (r & 0xFFF) + 1, c)));
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_fixed_work_without_allocating() {
        let mut p = Probe::new();
        let a0 = crate::alloc::allocs();
        let t = p.run();
        assert!(t > 0.0);
        assert_eq!(crate::alloc::allocs(), a0, "the probe reuses its state");
        assert_eq!(p.heap.len(), PENDING as usize);
    }
}
