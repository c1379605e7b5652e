//! # arest-core
//!
//! **AReST — Advanced Revelation of Segment Routing Tunnels.**
//!
//! The paper's contribution: a post-processing methodology that takes
//! traceroute paths augmented with MPLS label stacks (TNT output) and
//! hardware-vendor fingerprints, and highlights contiguous portions —
//! *segments* — exhibiting signals of SR-MPLS. Five detection flags,
//! ordered by signal strength (§4):
//!
//! | flag | trigger | strength |
//! |------|---------|----------|
//! | CVR  | consecutive identical labels + vendor SR range match | ★★★★★ |
//! | CO   | consecutive identical labels only                    | ★★★★ |
//! | LSVR | stack ≥ 2 LSEs, top label in vendor SR range         | ★★★★ |
//! | LVR  | single LSE in vendor SR range                        | ★★★ |
//! | LSO  | stack ≥ 2 LSEs, nothing else                         | ★ |
//!
//! # Example
//!
//! ```
//! use arest_core::detect::{detect_segments, DetectorConfig};
//! use arest_core::model::{AugmentedHop, AugmentedTrace};
//! use arest_core::flags::Flag;
//! use arest_wire::mpls::{Label, LabelStack};
//! use std::net::Ipv4Addr;
//!
//! // Two consecutive hops quoting the same label: the CO signature.
//! let stack = |v| LabelStack::from_labels(&[Label::new(v).unwrap()], 1);
//! let trace = AugmentedTrace::new(
//!     "vp1",
//!     Ipv4Addr::new(203, 0, 113, 9),
//!     vec![
//!         AugmentedHop::labeled(Ipv4Addr::new(10, 0, 0, 1), stack(17_005)),
//!         AugmentedHop::labeled(Ipv4Addr::new(10, 0, 0, 2), stack(17_005)),
//!     ],
//! );
//! let segments = detect_segments(&trace, &DetectorConfig::default());
//! assert_eq!(segments[0].flag, Flag::Co);
//! assert_eq!(segments[0].flag.signal_strength(), 4);
//! ```
//!
//! Modules:
//! * [`model`] — the augmented-trace input format.
//! * [`flags`] — the flag vocabulary and signal strengths.
//! * [`ranges`] — vendor-evidence × SR-label-range matching,
//!   including the Cisco/Huawei intersection rule for TTL evidence.
//! * [`detect`] — the segment detector (the heart of AReST).
//! * [`classify`] — per-hop SR / classic-MPLS / IP area
//!   characterization (§7.1), conservative by default (LSO excluded,
//!   §6.3).
//! * [`interworking`] — SR↔LDP interworking chains and cloud sizes
//!   (§7.2).
//! * [`metrics`] — ground-truth validation (Table 3's TP/FP/FN
//!   computation).
//! * [`baseline`] — the Marechal et al. (IMC'22 poster) comparator:
//!   Cisco-SRGB matching on fingerprinted hops, no label sequences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod classify;
pub mod detect;
pub mod flags;
pub mod interworking;
pub mod metrics;
pub mod model;
pub mod ranges;

pub use classify::{classify_areas, Area, AreaConfig};
pub use detect::{detect_segments, DetectedSegment, DetectorConfig};
pub use flags::Flag;
pub use interworking::{analyze_interworking, Cloud, CloudKind, InterworkingMode};
pub use metrics::{validate, Validation};
pub use model::{AugmentedHop, AugmentedTrace};
