//! End-to-end benchmark of the finrad SER flow.
//!
//! Three seeded workloads drive the public API of `finrad-core`
//! (`VddSweep`, `SerPipeline`, `CampaignService`); the binary times them,
//! checks every result ([`check`]) and, in a separate traced run, reports
//! a per-layer table ([`trace`]). See `README.md` in this directory.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod check;
pub mod measure;
pub mod trace;
pub mod workload;
