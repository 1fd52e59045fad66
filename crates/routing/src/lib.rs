//! # nws-routing — IS-IS-like shortest-path routing substrate
//!
//! The monitor-placement formulation consumes a *routing matrix* `R` whose
//! entry `r_{k,i}` says which fraction of OD pair `k`'s traffic traverses
//! link `i` (binary when shortest paths are unique, fractional under ECMP).
//! This crate computes it from an [`nws_topo::Topology`] the same way an
//! IS-IS/OSPF control plane would:
//!
//! * [`Spf`] — single-source shortest-path-first (Dijkstra) over IGP weights,
//!   retaining the full equal-cost DAG, with path extraction and the ECMP
//!   walk that splits a unit of traffic over it;
//! * [`RoutingMatrix`] — the `|F| × |E|` matrix as sparse per-OD rows
//!   (CSR), built with one SPF per OD source, plus link-load accumulation.
//!
//! A link failure — the re-routing event that motivates dynamic monitor
//! placement (paper §I) — is routed on
//! [`Topology::without_links`](nws_topo::Topology::without_links), whose cut
//! links keep their ids: SPF never takes them, and rows and loads come out
//! in the ids of the uncut topology.
//!
//! ```
//! use nws_topo::geant;
//! use nws_routing::{OdPair, RoutingMatrix, Spf};
//!
//! let topo = geant();
//! let uk = topo.require_node("UK").unwrap();
//! let sk = topo.require_node("SK").unwrap();
//! let spf = Spf::compute(&topo, uk);
//! let path = spf.path_to(&topo, sk).unwrap();
//! let labels: Vec<String> = path.iter().map(|&l| topo.link_label(l)).collect();
//! assert_eq!(labels, ["UK-NL", "NL-DE", "DE-CZ", "CZ-SK"]);
//! assert_eq!(spf.distance(sk), Some(35.0));
//!
//! // The path is unique, so UK->SK's row carries all of it on each link.
//! let routing = RoutingMatrix::build(&topo, &[OdPair::new(uk, sk)]);
//! assert_eq!(routing.links_of_od(0), path);
//! assert!(routing.row(0).iter().all(|&(_, f)| f == 1.0));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod matrix;
mod path;
mod spf;

pub use matrix::RoutingMatrix;
pub use path::OdPair;
pub use spf::Spf;
