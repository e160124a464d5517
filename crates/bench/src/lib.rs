//! # s2g-bench
//!
//! Experiment harness regenerating every table and figure of the
//! Series2Graph paper's evaluation (Section 5), plus Criterion
//! micro-benchmarks of the individual pipeline stages.
//!
//! The harness is organised around two building blocks:
//!
//! * [`roster`] — the detectors of Table 3 and Figure 9 as
//!   [`s2g_eval::Detector`]s: the `s2g eval` gauntlet's six baselines
//!   (GrammarViz, STOMP, DAD, LOF, Isolation Forest, LSTM-AD stand-in)
//!   plus [`roster::PaperS2g`], Series2Graph under the paper's fixed
//!   `ℓ = 50` trained on the full series or its first half;
//! * [`runner`] — the command-line helpers shared by the binaries
//!   (`--scale`, `--seed`, `--methods`).
//!
//! Every experiment binary (`table3`, `fig4` … `fig9`, `all_experiments`)
//! accepts a `--scale` argument that shrinks the dataset lengths of Table 2
//! proportionally (default 0.2, i.e. 20K-point versions of the 100K-point
//! datasets) so the full suite completes in minutes on a laptop; pass
//! `--scale 1.0` to reproduce the paper-sized runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod roster;
pub mod runner;
