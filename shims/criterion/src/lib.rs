#![warn(missing_docs)]

//! Vendored, dependency-free stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the slice of criterion's API its benches use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`] with
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId::from_parameter`],
//! [`Bencher::iter`]/[`Bencher::iter_batched`], and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is deliberately simple: a short warm-up, then a timed loop,
//! reporting mean nanoseconds per iteration to stdout. There is no
//! statistical analysis, outlier rejection, or HTML report — enough to
//! compare relative costs by eye, which is all the repo's benches need.

use std::fmt::Display;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(200);
const MEASURE: Duration = Duration::from_millis(600);

/// How `iter_batched` amortizes setup cost; only a sizing hint here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// Re-run setup for every routine call.
    PerIteration,
}

/// Times the body of one benchmark.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Run `routine` repeatedly and record the mean time per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm up untimed, then measure for a fixed wall-clock budget.
        let warm_until = Instant::now() + WARMUP;
        while Instant::now() < warm_until {
            std::hint::black_box(routine());
        }
        let start = Instant::now();
        let stop = start + MEASURE;
        let mut iters = 0u64;
        while Instant::now() < stop {
            std::hint::black_box(routine());
            iters += 1;
        }
        self.elapsed = start.elapsed();
        self.iters = iters;
    }

    /// Run `routine` over fresh values from `setup`, timing only `routine`.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let warm_until = Instant::now() + WARMUP;
        while Instant::now() < warm_until {
            std::hint::black_box(routine(setup()));
        }
        let deadline = Instant::now() + MEASURE;
        let mut iters = 0u64;
        let mut spent = Duration::ZERO;
        while Instant::now() < deadline {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            spent += start.elapsed();
            iters += 1;
        }
        self.elapsed = spent;
        self.iters = iters;
    }

    fn report(&self, name: &str) {
        if self.iters == 0 {
            println!("{name:<50} no iterations completed");
            return;
        }
        let ns = self.elapsed.as_nanos() as f64 / self.iters as f64;
        println!("{name:<50} {ns:>14.1} ns/iter ({} iters)", self.iters);
    }
}

/// A parameterized benchmark name within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    parameter: String,
}

impl BenchmarkId {
    /// A name distinguished only by its parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            parameter: parameter.to_string(),
        }
    }
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; sampling here is time-budgeted.
    pub fn sample_size(&mut self, _size: usize) -> &mut Self {
        self
    }

    /// Benchmark `routine` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::default();
        routine(&mut bencher);
        bencher.report(&format!("{}/{}", self.name, id));
        self
    }

    /// Benchmark `routine` over a borrowed input.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::default();
        routine(&mut bencher, input);
        bencher.report(&format!("{}/{}", self.name, id.parameter));
        self
    }

    /// Finish the group (no-op; results are printed as they complete).
    pub fn finish(self) {}
}

/// The top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Benchmark `routine` under `name`.
    pub fn bench_function<F>(&mut self, name: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::default();
        routine(&mut bencher);
        bencher.report(name);
        self
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            _criterion: self,
        }
    }
}

/// Define a benchmark group function that runs each listed bench.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($bench(&mut criterion);)+
        }
    };
}

/// Define `main` to run the listed benchmark groups.
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
    fn bencher_reports_nonzero_iterations() {
        let mut b = Bencher::default();
        b.iter(|| std::hint::black_box(1 + 1));
        assert!(b.iters > 0);
    }

    #[test]
    fn iter_batched_times_only_routine() {
        let mut b = Bencher::default();
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.iters > 0);
        assert!(b.elapsed <= MEASURE + WARMUP);
    }
}
