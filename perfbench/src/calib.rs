//! Host-speed calibration. On a shared host the speed of the same code
//! drifts by up to 2× over minutes (other tenants share the cores), far more
//! than a code change moves the program. Each run therefore times a fixed
//! reference kernel — the benchmark's own code, so no program change touches
//! it — right after its operations, in proportion to their wall time, on as
//! many threads as the operations keep busy. It states its end-to-end times
//! at the reference speed: a time measured while the kernel ran `k` times
//! slower than [`REFERENCE_TICK_S`] is divided by `k`, a rate multiplied by
//! it. The raw figures and `k` are printed as detail lines.

use std::hint::black_box;
use std::time::Instant;

/// Matrix side at which a tick runs [`UPDATES_AT_64`] updates; larger sides
/// run proportionally fewer, so a tick does about the same arithmetic.
const BASE_SIDE: usize = 64;
/// Matrix-vector products and rank-1 updates per tick at [`BASE_SIDE`].
const UPDATES_AT_64: usize = 100;
/// Ticks per burst: the unit in which the kernel is timed, long enough that
/// starting the burst's threads costs little of it.
const TICKS_PER_BURST: usize = 4;
/// Wall seconds of one tick at the reference speed.
pub const REFERENCE_TICK_S: f64 = 250e-6;
/// Share of a run's measured time spent on calibration.
pub const CALIBRATION_SHARE: f64 = 0.03;

/// One thread's kernel state: `v = P u`, then `P -= c v vᵀ`, on a
/// `side`×`side` f64 matrix.
struct Kernel {
    side: usize,
    p: Vec<f64>,
    u: Vec<f64>,
    v: Vec<f64>,
}

impl Kernel {
    fn new(side: usize) -> Self {
        Self {
            side,
            p: (0..side * side).map(|k| ((k % 7) as f64) * 0.125).collect(),
            u: (0..side).map(|k| 1.0 + (k % 5) as f64 * 0.25).collect(),
            v: vec![0.0; side],
        }
    }

    /// Run `ticks` ticks; returns their wall seconds.
    fn run(&mut self, ticks: usize) -> f64 {
        let n = self.side;
        let updates = (UPDATES_AT_64 * BASE_SIDE * BASE_SIDE / (n * n)).max(1);
        let start = Instant::now();
        for _ in 0..ticks * updates {
            for (i, vi) in self.v.iter_mut().enumerate() {
                let row = &self.p[i * n..(i + 1) * n];
                *vi = row.iter().zip(&self.u).map(|(a, b)| a * b).sum();
            }
            // Kept bounded: `c` is tiny once `P` grows.
            let c = 1e-6 / (1.0 + self.v.iter().sum::<f64>().abs());
            for (i, &vi) in self.v.iter().enumerate() {
                let row = &mut self.p[i * n..(i + 1) * n];
                for (a, &vj) in row.iter_mut().zip(&self.v) {
                    *a -= c * vi * vj;
                }
            }
            black_box(&mut self.p);
        }
        start.elapsed().as_secs_f64()
    }
}

/// Times bursts of the reference kernel on a fixed number of threads at
/// once, each thread on a matrix of its own. A tick's time is the mean over
/// the threads of their own tick times.
pub struct Calibrator {
    kernels: Vec<Kernel>,
    seconds: f64,
    ticks: u64,
    owed_s: f64,
}

impl Calibrator {
    /// A calibrator whose bursts run on `threads` threads (at least one),
    /// each on a `side`×`side` matrix: the side of the matrix the measured
    /// operations work on, so that the kernel shares their cache level.
    pub fn new(threads: usize, side: usize) -> Self {
        Self {
            kernels: (0..threads.max(1)).map(|_| Kernel::new(side)).collect(),
            seconds: 0.0,
            ticks: 0,
            owed_s: 0.0,
        }
    }

    /// Run one burst; returns its wall seconds and its mean per-thread
    /// seconds.
    fn burst(&mut self) -> (f64, f64) {
        let start = Instant::now();
        let busy: f64 = match self.kernels.as_mut_slice() {
            [one] => one.run(TICKS_PER_BURST),
            many => std::thread::scope(|scope| {
                let runs: Vec<_> = many
                    .iter_mut()
                    .map(|kernel| scope.spawn(move || kernel.run(TICKS_PER_BURST)))
                    .collect();
                runs.into_iter()
                    .map(|run| run.join().expect("calibration thread panicked"))
                    .sum()
            }),
        };
        let mean = busy / self.kernels.len() as f64;
        self.seconds += mean;
        self.ticks += TICKS_PER_BURST as u64;
        (start.elapsed().as_secs_f64(), mean)
    }

    /// Account `wall_s` seconds of measured work: run bursts until the
    /// kernel has run for `share` of all the work accounted so far, so that
    /// it samples the host's speed evenly over the measured time.
    pub fn follow(&mut self, share: f64, wall_s: f64) {
        self.owed_s += share * wall_s;
        while self.owed_s > 0.0 {
            self.owed_s -= self.burst().0;
        }
    }

    /// Scale one operation's `wall_s` to the reference speed by the bursts
    /// that follow it: at least one, and `share` of `wall_s` in all.
    pub fn scale(&mut self, share: f64, wall_s: f64) -> f64 {
        let (mut spent, mut busy, mut bursts) = (0.0, 0.0, 0);
        while bursts == 0 || spent < share * wall_s {
            let (wall, mean) = self.burst();
            spent += wall;
            busy += mean;
            bursts += 1;
        }
        let ticks = (bursts * TICKS_PER_BURST) as f64;
        wall_s * REFERENCE_TICK_S * ticks / busy
    }

    /// How many times slower than the reference the kernel ran, on average
    /// over its ticks; `None` before the first burst.
    pub fn slowdown(&self) -> Option<f64> {
        (self.ticks > 0).then(|| self.seconds / self.ticks as f64 / REFERENCE_TICK_S)
    }

    /// Ticks timed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

/// Run `setup` `repeats` times, each followed by calibration bursts of
/// `cal` for as long as it took, and return the median set-up time at the
/// reference speed, the median raw time, and the slowdown over all those
/// bursts.
pub fn timed_setups(
    repeats: usize,
    mut cal: Calibrator,
    mut setup: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let (mut scaled, mut raw) = (Vec::new(), Vec::new());
    for _ in 0..repeats {
        let wall = setup();
        scaled.push(cal.scale(1.0, wall));
        raw.push(wall);
    }
    let median = |v: &[f64]| crate::stats::median(v).expect("at least one set-up");
    let slowdown = cal.slowdown().expect("at least one set-up");
    (median(&scaled), median(&raw), slowdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_measured_slowdown() {
        for (threads, side) in [(1, 64), (2, 64), (2, 256)] {
            let mut cal = Calibrator::new(threads, side);
            assert_eq!(cal.slowdown(), None);
            let scaled = cal.scale(0.5, 0.01);
            let k = cal.slowdown().expect("ticked");
            assert!(k > 0.0 && scaled > 0.0);
            // One operation's scale uses exactly the bursts that followed it.
            assert!((scaled - 0.01 / k).abs() < 1e-12 * scaled.max(1.0));
            let before = cal.ticks();
            cal.follow(0.5, 0.01);
            assert!(cal.ticks() > before);
        }
    }
}
