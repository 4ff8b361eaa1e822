//! End-to-end and per-layer benchmark of the self-healing stack.
//!
//! `src/main.rs` is the command; these modules are its phases and helpers.

#![forbid(unsafe_code)]

pub mod calib;
pub mod fleet;
pub mod learn;
pub mod openloop;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
