//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared virtual machine the simulator's speed drifts by ±20%
//! over minutes as other tenants load the memory system: all four
//! workloads slow down and speed up together, while the benchmark runs
//! the same code. A fixed kernel owned by the benchmark, as allocation-
//! and cache-heavy as the simulator's event loop, slows down with them:
//! its time correlated at 0.76–0.90 with the simulator's throughput
//! across invocations, where a pure ALU loop or a DRAM pointer chase did
//! not track it. Scaling host timings by the kernel's time removes most
//! of the drift. The kernel uses only `std`, so no change to the
//! simulator changes it.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the host the benchmark was written on
/// (2-vCPU VM, Intel Xeon at 2.1 GHz). It only sets the scale of the
/// normalised figures: they read as measured on that host at that
/// speed.
pub const REFERENCE_S: f64 = 0.1;

/// Times one pass of the reference kernel: a 20k-entry priority queue
/// and a 40k-key hash map of 100–1500 B boxed buffers, churned 150k
/// times.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, Box<[u8]>> = HashMap::new();
    let mut sum = 0u64;
    for i in 0..150_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push((x % 1_000_000, i));
        if heap.len() > 20_000 {
            sum = sum.wrapping_add(heap.pop().map_or(0, |e| e.0));
        }
        let key = x % 40_000;
        if let Some(v) = map.get(&key) {
            sum = sum.wrapping_add(v.len() as u64);
        }
        map.insert(
            key,
            vec![x as u8; 100 + (x % 1400) as usize].into_boxed_slice(),
        );
    }
    black_box(sum);
    drop(black_box(map));
    t.elapsed().as_secs_f64()
}
