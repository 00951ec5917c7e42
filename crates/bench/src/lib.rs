//! Reproduction harness for the DC-MBQC paper's evaluation section.
//!
//! Every table and figure has a generator in [`experiments`]; the
//! `repro` binary dispatches to them by name (`repro --quick all` runs
//! each at its smallest sizes). `tests/paper_shapes.rs` at the
//! repository root asserts the paper's qualitative claims, and
//! `perfbench/README.md` describes the benchmark that times the
//! compiler end to end.
//!
//! # Examples
//!
//! ```no_run
//! // Regenerate Table III (this compiles every benchmark; slow):
//! let table = mbqc_bench::experiments::table3(mbqc_bench::Scale::Quick);
//! println!("{}", table.render());
//! ```

pub mod experiments;
pub mod runner;

/// Experiment scale: `Full` uses every program size from Table II,
/// `Quick` restricts each family to its two smallest sizes (useful in
/// CI and integration tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Two smallest sizes per family.
    Quick,
    /// All paper sizes.
    Full,
}

impl Scale {
    /// Restricts a size list according to the scale.
    #[must_use]
    pub fn limit<'a>(&self, sizes: &'a [usize]) -> &'a [usize] {
        match self {
            Scale::Quick => &sizes[..sizes.len().min(2)],
            Scale::Full => sizes,
        }
    }
}
