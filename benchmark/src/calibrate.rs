//! Calibrated host time: what keeps the `host_*` metrics steady on a
//! shared host.
//!
//! The sandbox is a small guest on a shared machine. Its cores change
//! speed from one millisecond to the next (a fixed loop takes between 1×
//! and 2.5× its best time, with no steal time reported), and the second
//! core comes and goes for minutes at a time. Two measures answer that:
//!
//! * [`pin_to_one_cpu`] — the whole process runs on one CPU, so the
//!   figures are the program's total CPU cost on one core and do not
//!   depend on how many cores the host lends at the moment;
//! * [`Calibrator`] — a fixed reference kernel runs in a short burst
//!   before and after every timed call, on the same thread and core. Its
//!   time against [`REFERENCE_US`] is the host's speed at that moment, and
//!   the call's host time is divided by it. A program that gets slower
//!   does not slow the kernel, so a regression still shows in full;
//! * [`RefClock`] — for the traced run, whose timings are taken in many
//!   places and on the program's own threads: a clock that a sampler
//!   thread makes tick in reference time, slower while the host is slow.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one kernel run takes on the reference sandbox (Xeon at 2.1 GHz)
/// while nothing contends for the core, in µs. A calibrated time is the
/// host time the call would have taken at that speed.
pub const REFERENCE_US: f64 = 28.0;

/// Kernel runs in the shortest burst; the median of a burst ignores the
/// run a thread switch or a cold cache hit.
const BURST_RUNS: usize = 5;

/// A burst lasts at least this share of the call it follows, so a long
/// call is calibrated over more of the host's speed changes.
const BURST_SHARE: f64 = 0.04;

/// Bursts older than this do not vouch for the host's speed any more.
const STALE_S: f64 = 200e-6;

/// Side of the kernel's square matrices (three of them: 27 KiB, so the
/// kernel lives in the L1 cache and measures the core, not the memory).
const N: usize = 48;

/// The reference kernel: a fixed count of multiply-adds over small
/// matrices, like the model code that dominates every workload.
struct Kernel {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Kernel {
    fn new() -> Kernel {
        let a = (0..N * N).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.01).collect();
        let b = (0..N * N).map(|i| ((i * 5 % 11) as f32 - 5.0) * 0.01).collect();
        Kernel { a, b, c: vec![0.0; N * N] }
    }

    /// One run; its host time in µs.
    fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..2 {
            for i in 0..N {
                for k in 0..N {
                    let x = self.a[i * N + k];
                    let row = &self.b[k * N..(k + 1) * N];
                    let out = &mut self.c[i * N..(i + 1) * N];
                    for j in 0..N {
                        out[j] = out[j] * 0.5 + x * row[j];
                    }
                }
            }
            black_box(&mut self.c);
        }
        t0.elapsed().as_secs_f64() * 1e6
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host time as the clock read it (s).
    pub raw_s: f64,
    /// Host time at the reference speed (s): `raw_s` ÷ `speed`.
    pub s: f64,
    /// The host's slowness around the call: kernel time ÷
    /// [`REFERENCE_US`], 1 on the quiet reference sandbox.
    pub speed: f64,
}

/// Times calls in calibrated host time.
pub struct Calibrator {
    kernel: Kernel,
    /// Median kernel time of the latest burst (µs) and when it ended.
    last: (f64, Instant),
}

impl Calibrator {
    /// A calibrator that has taken its first burst.
    pub fn new() -> Calibrator {
        let mut c = Calibrator { kernel: Kernel::new(), last: (REFERENCE_US, Instant::now()) };
        c.burst(0.0);
        c
    }

    /// Runs the kernel for at least `seconds` and [`BURST_RUNS`] runs and
    /// records the median run.
    fn burst(&mut self, seconds: f64) {
        let start = Instant::now();
        let mut runs = Vec::with_capacity(BURST_RUNS);
        while runs.len() < BURST_RUNS || start.elapsed().as_secs_f64() < seconds {
            runs.push(self.kernel.run());
        }
        self.last = (crate::stats::median(&runs), Instant::now());
    }

    /// Times `f` between two bursts; the burst that ended the previous
    /// call serves as the first when it is recent enough.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        if self.last.1.elapsed().as_secs_f64() > STALE_S {
            self.burst(0.0);
        }
        let before = self.last.0;
        let t0 = Instant::now();
        let value = f();
        let raw_s = t0.elapsed().as_secs_f64();
        self.burst(raw_s * BURST_SHARE);
        let speed = (before + self.last.0) / 2.0 / REFERENCE_US;
        (value, Timed { raw_s, s: raw_s / speed, speed })
    }
}

/// How long the sampler sleeps between bursts: with [`BURST_RUNS`] runs a
/// burst it takes about 7 % of the core.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// The reference clock's last tick.
struct Tick {
    /// Host time of the tick.
    wall: Instant,
    /// Reference time at the tick (s).
    reference_s: f64,
    /// The host's slowness measured at the tick; it holds until the next.
    speed: f64,
}

/// A clock that reads calibrated host time: seconds at the reference
/// speed since the sampler started. Any thread may read it.
#[derive(Clone)]
pub struct RefClock {
    tick: Arc<Mutex<Tick>>,
}

impl RefClock {
    /// Reference time now (s).
    pub fn now(&self) -> f64 {
        let tick = self.tick.lock().expect("no reader panics holding the tick");
        tick.reference_s + tick.wall.elapsed().as_secs_f64() / tick.speed
    }
}

/// The thread that keeps a [`RefClock`] ticking: every [`SAMPLE_EVERY`]
/// it runs a burst of the kernel and sets the clock's speed to the median
/// run. Stopped and joined on drop.
pub struct Sampler {
    clock: RefClock,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts the sampler; the clock reads 0 now.
    pub fn start() -> Sampler {
        let mut kernel = Kernel::new();
        let mut burst = move || {
            let runs: Vec<f64> = (0..BURST_RUNS).map(|_| kernel.run()).collect();
            crate::stats::median(&runs) / REFERENCE_US
        };
        let tick = Tick { speed: burst(), wall: Instant::now(), reference_s: 0.0 };
        let clock = RefClock { tick: Arc::new(Mutex::new(tick)) };
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (clock, stop) = (clock.clone(), stop.clone());
            std::thread::spawn(move || {
                // The flag publishes no data: relaxed.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_EVERY);
                    let speed = burst();
                    let mut tick = clock.tick.lock().expect("no reader panics holding the tick");
                    // Readers extrapolate with the old speed up to this
                    // instant, so the clock never steps back.
                    let now = Instant::now();
                    tick.reference_s += (now - tick.wall).as_secs_f64() / tick.speed;
                    tick.wall = now;
                    tick.speed = speed;
                }
            })
        };
        Sampler { clock, stop, thread: Some(thread) }
    }

    /// A handle on the clock this sampler drives.
    pub fn clock(&self) -> RefClock {
        self.clock.clone()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // A sampler that panicked leaves the clock at its last speed;
            // nothing to recover here.
            let _ = thread.join();
        }
    }
}

/// Pins this thread, and with it every thread and process started
/// later, to the highest-numbered CPU it may run on (the lowest one
/// serves the guest's interrupts). Returns that CPU, or `None` where the
/// affinity cannot be set; the run then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // `cpu_set_t`: 1024 bits.
        let mut allowed = [0u64; 16];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a writable buffer of `size` bytes that
        // outlives the call; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = allowed.iter().enumerate().rev().find(|(_, bits)| **bits != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a readable buffer of `size` bytes; the call
        // changes scheduling only, no memory of this process.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_time_is_raw_time_over_speed() {
        let mut cal = Calibrator::new();
        let (value, t) = cal.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(value, 7);
        assert!(t.raw_s >= 2e-3, "slept 2 ms, timed {}", t.raw_s);
        assert!(t.speed > 0.0 && t.speed.is_finite());
        assert_eq!(t.s, t.raw_s / t.speed);
    }

    #[test]
    fn the_reference_clock_never_steps_back() {
        let sampler = Sampler::start();
        let clock = sampler.clock();
        let mut last = clock.now();
        let end = Instant::now() + Duration::from_millis(20);
        while Instant::now() < end {
            let now = clock.now();
            assert!(now >= last, "{now} after {last}");
            last = now;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_run() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        for _ in 0..3 {
            a.run();
            b.run();
        }
        assert_eq!(a.c, b.c);
        assert!(a.c.iter().any(|x| *x != 0.0) && a.c.iter().all(|x| x.is_finite()));
    }
}
