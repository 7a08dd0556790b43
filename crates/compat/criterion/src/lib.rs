//! Offline vendored subset of the `criterion` benchmark harness.
//!
//! The build environment cannot download crates, so this crate supplies
//! the minimal API surface the workspace's benches use: [`Criterion`],
//! benchmark groups, `b.iter(..)`, [`black_box`], and the
//! `criterion_group!`/`criterion_main!` macros. Measurement is a simple
//! warm-up + timed-batch loop reporting the mean wall-clock time per
//! iteration; there is no statistical analysis or HTML report.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo)]
#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark harness measures wall time; clippy.toml's clock rule is for simulation code"
)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Harness configuration and entry point.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the target total measurement time.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up time before sampling.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            result: None,
        };
        f(&mut b);
        match b.result {
            Some(per_iter) => println!("{name:40} {}", fmt_duration(per_iter)),
            None => println!("{name:40} (no measurement)"),
        }
        self
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            parent: self,
            prefix: name.to_string(),
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    prefix: String,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.parent.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{}", self.prefix, name);
        self.parent.bench_function(&full, f);
        self
    }

    /// Finishes the group.
    pub fn finish(self) {}
}

/// Passed to each benchmark body; `iter` performs the measurement.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    result: Option<Duration>,
}

impl Bencher {
    /// Measures `routine`, storing the mean wall-clock time per call.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm-up: run until the warm-up budget elapses, counting calls
        // to size the timed batches.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
            if warm_iters >= 1_000_000 && warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let per_iter_est = warm_start.elapsed() / warm_iters.max(1) as u32;
        let batch = (self.measurement_time.as_nanos()
            / (per_iter_est.as_nanos().max(1) * self.sample_size as u128).max(1))
        .clamp(1, 10_000_000) as u64;
        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            total += start.elapsed();
            iters += batch;
            if total >= self.measurement_time {
                break;
            }
        }
        self.result = Some(total / iters.max(1) as u32);
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s/iter", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms/iter", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us/iter", ns as f64 / 1e3)
    } else {
        format!("{ns} ns/iter")
    }
}

/// Declares a benchmark group, in either criterion syntax.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $config;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_something() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5));
        let mut ran = false;
        c.bench_function("noop", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }
}
