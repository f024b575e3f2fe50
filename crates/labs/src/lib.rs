//! # labs — the seven PDC course modules (§III.B)
//!
//! Each lab from the paper is implemented on the portal's VM: minilang
//! sources (a buggy version students start from and a fixed version they
//! must reach), executed under the seeded scheduler so the pathology (lost
//! update, deadlock, wrong balance) reproduces on demand. Lab 2 adds MESI
//! trace experiments over [`cluster::CacheSystem`] and lab 3 the NUMA cost
//! model.
//!
//! | Module | Paper lab |
//! |---|---|
//! | [`lab1_sync`] | Multicore Lab 1 — Synchronization with Java |
//! | [`lab2_spinlock`] | Multicore Lab 2 — Spin Lock and Cache Coherence |
//! | [`lab3_numa`] | Multicore Lab 3 — UMA and NUMA Access |
//! | [`lab4_procthread`] | Lab for Process and Thread Management (Ch. 6) |
//! | [`lab5_bank`] | Lab for Basic Synchronization Methods (Ch. 8) |
//! | [`lab6_philosophers`] | Lab for Deadlock (Ch. 10) |
//! | [`lab7_boundedbuffer`] | Programming Assignment 3 — Bounded Buffer |
//!
//! [`grading`] holds the autograder used by the course-session example and
//! the Table 1 reproduction.

pub mod grading;
pub mod lab1_sync;
pub mod lab2_spinlock;
pub mod lab3_numa;
pub mod lab4_procthread;
pub mod lab5_bank;
pub mod lab6_philosophers;
pub mod lab7_boundedbuffer;

pub use grading::{grade, grade_batch, GradeReport, LabId};
