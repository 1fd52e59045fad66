//! # nws-topo — network topology substrate
//!
//! A directed-multigraph model of an IP backbone, shaped after the needs of
//! the monitor-placement problem from Cantieni et al. (CoNEXT 2006):
//!
//! * [`Topology`] — PoP nodes and unidirectional capacitated links with IGP
//!   weights, constant-time adjacency queries, and name-based lookup;
//!   [`Topology::without_links`] models a fibre cut (paper §I) as a copy
//!   whose cut links keep their ids but leave the adjacency lists, so one
//!   link-id space serves every failure epoch.
//! * [`TopologyBuilder`] — fluent construction, including bidirectional link
//!   pairs as found in real backbones.
//! * [`geant`] — a GEANT-2004-like reference backbone (22 PoPs + one external
//!   customer node, 72 unidirectional backbone links) used throughout the
//!   paper reproduction.
//! * [`abilene`] — the Abilene/Internet2 backbone (11 PoPs, 28 unidirectional
//!   links), a second network for generality experiments.
//! * [`random`] — random topology generators for stress and convergence
//!   experiments.
//! * [`format`](mod@format) — a small plain-text serialization format (no external
//!   serialization crates required).
//!
//! Links carry a [`LinkKind`] so that customer *access* links (which the
//! paper excludes from the monitorable set, §V-C) can be distinguished from
//! *backbone* links.
//!
//! ```
//! use nws_topo::{LinkKind, TopologyBuilder};
//!
//! let mut b = TopologyBuilder::new();
//! let a = b.node("A");
//! let z = b.node("Z");
//! b.bidirectional(a, z, 2_500.0, 10.0, LinkKind::Backbone);
//! let topo = b.build().unwrap();
//! assert_eq!(topo.num_links(), 2);
//! assert_eq!(topo.out_links(a).count(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod abilene;
mod builder;
mod error;
pub mod format;
mod geant;
mod graph;
mod ids;
mod link;
mod node;
pub mod random;

pub use abilene::{abilene, abilene_access_link, ABILENE_CUSTOMER, ABILENE_POPS};
pub use builder::TopologyBuilder;
pub use error::TopologyError;
pub use geant::{geant, janet_access_link, GeantPop, JANET_NODE};
pub use graph::Topology;
pub use ids::{LinkId, NodeId};
pub use link::{Link, LinkKind};
pub use node::Node;

/// Convenience result alias for topology operations.
pub type Result<T> = std::result::Result<T, TopologyError>;
