//! # nws-linalg — the workspace's vector type
//!
//! One dynamically-sized column vector of `f64` ([`Vector`]), shared by the
//! solver, the placement formulation and the benchmarks. The solver needs
//! no matrices: the projection onto the active constraints (clamped bounds
//! plus the one budget equality) has a closed form, and the Newton step on
//! the free face is matrix-free (see `nws-solver`).
//!
//! ## Quick example
//!
//! ```
//! use nws_linalg::Vector;
//!
//! let mut p = Vector::from(vec![0.25, 0.5]);
//! let s = Vector::from(vec![1.0, -1.0]);
//! p.axpy(0.25, &s);
//! assert_eq!(p.as_slice(), &[0.5, 0.25]);
//! assert!((s.norm2() - 2f64.sqrt()).abs() < 1e-15);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod vector;

pub use vector::Vector;
