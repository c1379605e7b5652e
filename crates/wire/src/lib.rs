//! # arest-wire
//!
//! Wire formats used throughout the AReST reproduction.
//!
//! This crate provides smoltcp-style *views* over byte buffers for the
//! protocols that matter to MPLS-aware traceroute measurement:
//!
//! * [`mpls`] — the 4-byte MPLS label stack entry (RFC 3032) and label
//!   stacks, including the 20-bit label arithmetic AReST's detection
//!   flags reason about.
//! * [`ipv4`] — a minimal IPv4 header codec (no options) sufficient for
//!   probe packets and ICMP quoting.
//! * [`udp`] — the UDP header used by Paris-traceroute-style probes.
//! * [`icmp`] — ICMP messages, including the RFC 4884 extension
//!   structure and the RFC 4950 MPLS Label Stack object through which
//!   real routers expose LSEs to traceroute.
//!
//! Each protocol offers two layers, following the idiom of smoltcp:
//! a `Packet<T: AsRef<[u8]>>` wrapper giving checked field access over
//! raw bytes, and an owned `Repr` struct for parse/emit round trips.
//! All multi-byte fields are big-endian (network order).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod icmp;
pub mod ipv4;
pub mod mpls;
pub mod udp;

pub use error::{WireError, WireResult};
pub use icmp::{IcmpMessage, IcmpPacket, IcmpType, MplsExtension};
pub use ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
pub use mpls::{Label, LabelStack, Lse};
pub use udp::{UdpPacket, UdpRepr};
