//! Order statistics over per-batch readings, and the fixed-work batch
//! loop every stage measures with.

use std::collections::BTreeMap;
use std::time::Instant;

/// A metric's reading over the batches of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// A count that is the same in every batch (checked by the caller).
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            min: value,
            n: 1,
        }
    }

    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no readings");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted[0],
            n: sorted.len(),
        }
    }
}

/// The `p`-quantile of ascending `sorted`, interpolating linearly between
/// neighbouring ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts `samples` and returns its `p`-quantile.
pub fn quantile_of(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(samples, p)
}

/// What a single-threaded batch is charged in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Elapsed time: what spans are in, so what a traced run compares with.
    Wall,
    /// Time the thread was on a CPU, by the scheduler's account, at the
    /// reference speed. Elapsed time on a shared machine includes
    /// run-queue waits and time the hypervisor gave to other guests, and
    /// the machine this was written on also runs at two clock speeds a
    /// quarter apart, for seconds to minutes at a stretch. Neither is the
    /// program's cost, so CPU time is scaled by how long a fixed
    /// calibration kernel took right before and right after the batch.
    OnCpu,
}

/// Nanoseconds the calling thread has spent on a CPU. The kernel brings
/// the figure up to date when the thread passes through the scheduler
/// (otherwise only at the 4 ms tick), hence the yield.
fn thread_on_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Rounds of the calibration kernel, about 3 ms together.
const CALIBRATION_ROUNDS: u32 = 60;
/// What the kernel takes at the reference speed (about what it takes on
/// the slower of this machine's two speeds, left alone).
const CALIBRATION_REFERENCE_NS: f64 = 3_450_000.0;

/// How many times slower than the reference speed the CPU is running
/// now; `None` without scheduler statistics.
///
/// The kernel is made of what the library's hot paths are made of —
/// heap allocation, copying, sorting, building a `BTreeMap` — but shares
/// no code with the library, so no change under test can move it. A
/// chain of dependent shifts tracked the clock speed just as well but
/// not whatever else slows this machine for minutes at a time (a busy
/// sibling hyperthread is one cause that could be reproduced): over eight
/// runs through such a stretch, a stage's median batch ranged over 25-45%
/// unscaled, 23-33% scaled by the shift chain, 6-9% scaled by this.
fn slowdown_now() -> Option<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let input: Vec<u64> = (0..4096)
        .map(|_| {
            state = state.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
            state >> 11
        })
        .collect();
    let start = thread_on_cpu_ns()?;
    for _ in 0..CALIBRATION_ROUNDS {
        let mut sorted = std::hint::black_box(&input).clone();
        sorted.sort_unstable();
        let map: BTreeMap<u64, u64> = sorted.iter().take(2000).map(|&x| (x, x)).collect();
        std::hint::black_box(map);
    }
    Some((thread_on_cpu_ns()? - start) as f64 / CALIBRATION_REFERENCE_NS)
}

/// Times one batch on the chosen clock. Without scheduler statistics
/// `Clock::OnCpu` falls back to elapsed time.
pub struct Stopwatch {
    wall: Instant,
    /// Slowdown before the batch and CPU time at its start.
    on_cpu: Option<(f64, u64)>,
}

impl Stopwatch {
    pub fn start(clock: Clock) -> Stopwatch {
        let on_cpu = (clock == Clock::OnCpu)
            .then(|| Some((slowdown_now()?, thread_on_cpu_ns()?)))
            .flatten();
        Stopwatch {
            on_cpu,
            wall: Instant::now(),
        }
    }

    pub fn seconds(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        let on_cpu = self.on_cpu.and_then(|(slowdown_before, start)| {
            let ns = thread_on_cpu_ns()?.saturating_sub(start);
            let slowdown = (slowdown_before + slowdown_now()?) / 2.0;
            Some(ns as f64 / 1e9 / slowdown)
        });
        on_cpu.unwrap_or(wall)
    }
}

/// How long a stage measures: batches of fixed work repeat until both the
/// time and the batch count are reached. The *work per batch* never
/// depends on the clock, so counts stay bit-identical between batches.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub min_batches: usize,
}

impl Budget {
    /// This budget for a loop whose every turn runs two batches, a plain
    /// and a traced one.
    pub fn paired(&self) -> Budget {
        Budget {
            seconds: self.seconds,
            min_batches: self.min_batches.div_ceil(2),
        }
    }

    /// Runs `batch(i)` for `i = 0, 1, …` under this budget and returns how
    /// long the loop took.
    pub fn run(&self, mut batch: impl FnMut(usize)) -> f64 {
        let start = Instant::now();
        let mut i = 0;
        while i < self.min_batches || start.elapsed().as_secs_f64() < self.seconds {
            batch(i);
            i += 1;
        }
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 4.0, 5));
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
    }

    #[test]
    fn sleeping_costs_elapsed_time_but_no_cpu_time() {
        let (wall, on_cpu) = (
            Stopwatch::start(Clock::Wall),
            Stopwatch::start(Clock::OnCpu),
        );
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(wall.seconds() >= 0.03);
        assert!(on_cpu.seconds() < 0.02, "on-CPU clock counted a sleep");
    }

    #[test]
    fn budget_honours_both_limits() {
        let mut ran = 0;
        Budget {
            seconds: 0.0,
            min_batches: 3,
        }
        .run(|_| ran += 1);
        assert_eq!(ran, 3);
        let took = Budget {
            seconds: 0.02,
            min_batches: 0,
        }
        .run(|_| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(took >= 0.02);
    }
}
