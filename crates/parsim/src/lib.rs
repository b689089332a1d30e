//! # alchemist-parsim
//!
//! Profile-guided parallel-execution simulation for the Alchemist
//! reproduction (CGO 2009).
//!
//! The paper's Table V reports wall-clock speedups of hand-parallelized
//! pthread programs on a 4-core machine. This crate reproduces that
//! experiment without real threads: it re-runs the sequential program,
//! turns each instance of a *marked* construct into a task (the paper's
//! futures model), converts the dynamically detected dependences into
//! schedule constraints, and computes the makespan of a deterministic
//! list schedule on `K` workers.
//!
//! The privatization/reduction transformations the paper applies by hand
//! (thread-local `BZFILE` structures, per-thread `ivec`, local `errors`
//! flags, hoisted file closes) are modeled by
//! [`ExtractConfig::privatized`]: conflicts on those variables are assumed
//! transformed away.
//!
//! ## Example
//!
//! ```
//! use alchemist_parsim::{extract_tasks, simulate, ExtractConfig, SimConfig};
//! use alchemist_vm::{compile_source, ExecConfig};
//!
//! let m = compile_source(
//!     "int out[8];
//!      void work(int i) {
//!          int j; int acc = 0;
//!          for (j = 0; j < 500; j++) acc += j * i;
//!          out[i] = acc;
//!      }
//!      int main() { int i; for (i = 0; i < 8; i++) work(i); return out[7]; }",
//! )?;
//! let head = m.func_by_name("work").unwrap().1.entry;
//! let trace = extract_tasks(
//!     &m,
//!     &ExecConfig::default(),
//!     ExtractConfig::default().mark(head),
//! ).unwrap();
//! let result = simulate(&trace, &SimConfig::with_threads(4));
//! assert!(result.speedup > 2.0, "independent workers scale");
//! # Ok::<(), alchemist_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod advisor;
pub mod extract;
pub mod render;
pub mod sim;
pub mod task;

pub use advisor::{suggest_candidates, Candidate};
pub use extract::{
    construct_at_line, extract_tasks, extract_tasks_from_batches_par, extract_tasks_from_events,
    ExtractConfig, TaskExtractor,
};
pub use render::{render_timeline, schedule, ScheduledTask};
pub use sim::{simulate, SimConfig, SimResult};
pub use task::{TaskId, TaskInstance, TaskTrace};
