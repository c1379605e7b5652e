//! MPLS label stack entries (RFC 3032) and label stacks.
//!
//! The 4-byte label stack entry is the pivot of the whole AReST
//! methodology: routers quote these entries in ICMP time-exceeded
//! messages (RFC 4950), and AReST's detection flags reason about the
//! 20-bit label values they carry.
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                Label                  | TC  |S|      TTL      |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! # Example
//!
//! ```
//! use arest_wire::mpls::{Label, LabelStack};
//!
//! // The Fig. 3 stack: node SID 104, adjacency SID 3001, node SID 108.
//! let labels: Vec<Label> =
//!     [104, 3_001, 108].iter().map(|&v| Label::new(v).unwrap()).collect();
//! let mut stack = LabelStack::from_labels(&labels, 255);
//! assert_eq!(stack.depth(), 3);
//!
//! // Wire round trip, bottom-of-stack bit on the last entry only.
//! let bytes = stack.to_bytes().unwrap();
//! assert_eq!(LabelStack::parse(&bytes).unwrap(), stack);
//!
//! // Pop the active segment, as router D does on receipt.
//! assert_eq!(stack.pop().unwrap().label.value(), 104);
//! assert_eq!(stack.top().unwrap().label.value(), 3_001);
//! ```

use crate::error::{WireError, WireResult};
use core::fmt;

/// Maximum representable 20-bit label value.
pub const MAX_LABEL: u32 = (1 << 20) - 1;

/// Size in bytes of one label stack entry on the wire.
pub const LSE_LEN: usize = 4;

/// Labels 0–15 are special-purpose (RFC 3032 / RFC 7274); 16–255 are
/// reserved. Dynamic allocation and SR blocks live above this value.
pub const FIRST_UNRESERVED_LABEL: u32 = 256;

/// A 20-bit MPLS label value.
///
/// The inner value is guaranteed to fit in 20 bits; construction via
/// [`Label::new`] enforces the bound.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

impl Label {
    /// IPv4 Explicit NULL (RFC 3032 §2.1).
    pub const IPV4_EXPLICIT_NULL: Label = Label(0);
    /// Router Alert (RFC 3032 §2.1).
    pub const ROUTER_ALERT: Label = Label(1);
    /// IPv6 Explicit NULL (RFC 3032 §2.1).
    pub const IPV6_EXPLICIT_NULL: Label = Label(2);
    /// Implicit NULL — advertised for penultimate hop popping, never
    /// seen on the wire (RFC 3032 §2.1).
    pub const IMPLICIT_NULL: Label = Label(3);
    /// Entropy Label Indicator (RFC 6790).
    pub const ENTROPY_INDICATOR: Label = Label(7);
    /// Generic Associated Channel Label (RFC 5586).
    pub const GAL: Label = Label(13);
    /// OAM Alert (RFC 3429).
    pub const OAM_ALERT: Label = Label(14);

    /// Creates a label, checking the 20-bit bound.
    pub fn new(value: u32) -> WireResult<Label> {
        if value > MAX_LABEL {
            Err(WireError::Malformed)
        } else {
            Ok(Label(value))
        }
    }

    /// Creates a label, truncating `value` to 20 bits.
    ///
    /// Useful for generators; prefer [`Label::new`] when the input is
    /// untrusted.
    pub const fn new_truncated(value: u32) -> Label {
        Label(value & MAX_LABEL)
    }

    /// The raw 20-bit value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Whether this is a special-purpose label (0–15).
    pub const fn is_special_purpose(self) -> bool {
        self.0 < 16
    }

    /// Whether this label lies in the reserved range 0–255 that no
    /// dynamic pool nor SR block may allocate from.
    pub const fn is_reserved(self) -> bool {
        self.0 < FIRST_UNRESERVED_LABEL
    }

    /// Decimal suffix of the label, used by AReST's suffix-based
    /// sequence matching across differing SRGB bases (§2.3 / §4.1 of
    /// the paper: `16,005 → 13,005` share the suffix `005`).
    ///
    /// The suffix is defined as the label value modulo 10^3 — the SID
    /// index portion for SRGB blocks aligned on thousands, which is how
    /// the paper's example behaves.
    pub const fn suffix(self) -> u32 {
        self.0 % 1_000
    }

    /// Whether two labels "suffix-match": equal last three decimal
    /// digits but different values, the signature of the same SID index
    /// mapped through two different SRGB bases.
    pub const fn suffix_matches(self, other: Label) -> bool {
        self.0 != other.0 && self.suffix() == other.suffix()
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({})", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<u32> for Label {
    type Error = WireError;
    fn try_from(value: u32) -> WireResult<Label> {
        Label::new(value)
    }
}

impl From<Label> for u32 {
    fn from(label: Label) -> u32 {
        label.value()
    }
}

/// One decoded MPLS label stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lse {
    /// The 20-bit forwarding label.
    pub label: Label,
    /// The 3-bit Traffic Class field (RFC 5462).
    pub tc: u8,
    /// Bottom-of-stack flag: set on the last entry of the stack.
    pub bottom: bool,
    /// The 8-bit LSE TTL.
    pub ttl: u8,
}

impl Lse {
    /// Creates an LSE with TC 0, convenient for tests and generators.
    pub fn new(label: Label, bottom: bool, ttl: u8) -> Lse {
        Lse { label, tc: 0, bottom, ttl }
    }

    /// Parses one LSE from the first four bytes of `buf`.
    pub fn parse(buf: &[u8]) -> WireResult<Lse> {
        if buf.len() < LSE_LEN {
            return Err(WireError::Truncated);
        }
        let word = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        Ok(Lse {
            label: Label(word >> 12),
            tc: ((word >> 9) & 0x7) as u8,
            bottom: (word >> 8) & 0x1 == 1,
            ttl: (word & 0xff) as u8,
        })
    }

    /// Emits this LSE into the first four bytes of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> WireResult<()> {
        if buf.len() < LSE_LEN {
            return Err(WireError::Truncated);
        }
        if self.tc > 0x7 {
            return Err(WireError::Malformed);
        }
        let word = (self.label.value() << 12)
            | (u32::from(self.tc) << 9)
            | (u32::from(self.bottom) << 8)
            | u32::from(self.ttl);
        buf[..LSE_LEN].copy_from_slice(&word.to_be_bytes());
        Ok(())
    }

    /// Returns the 4-byte wire encoding. Fails like [`Lse::emit`]
    /// when the traffic-class field exceeds its 3 bits.
    pub fn to_bytes(&self) -> WireResult<[u8; LSE_LEN]> {
        let mut buf = [0u8; LSE_LEN];
        self.emit(&mut buf)?;
        Ok(buf)
    }
}

impl fmt::Display for Lse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}{}[ttl={}]",
            self.label,
            self.tc,
            if self.bottom { "*" } else { "" },
            self.ttl
        )
    }
}

/// An ordered MPLS label stack; index 0 is the top (active) entry.
///
/// Invariant maintained by every mutator: the bottom-of-stack bit is
/// set on exactly the last entry (and the stack may be empty).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LabelStack {
    entries: Vec<Lse>,
}

impl LabelStack {
    /// Creates an empty stack.
    pub fn new() -> LabelStack {
        LabelStack::default()
    }

    /// Builds a stack from top-to-bottom labels, all with the given TTL.
    ///
    /// Bottom-of-stack bits are fixed up automatically.
    pub fn from_labels(labels: &[Label], ttl: u8) -> LabelStack {
        let mut stack = LabelStack::new();
        for (i, &label) in labels.iter().enumerate() {
            stack.entries.push(Lse { label, tc: 0, bottom: i + 1 == labels.len(), ttl });
        }
        stack
    }

    /// Number of entries in the stack.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stack has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The top (active) entry, if any.
    pub fn top(&self) -> Option<&Lse> {
        self.entries.first()
    }

    /// Mutable access to the top entry, if any.
    pub fn top_mut(&mut self) -> Option<&mut Lse> {
        self.entries.first_mut()
    }

    /// The bottom entry, if any.
    pub fn bottom(&self) -> Option<&Lse> {
        self.entries.last()
    }

    /// All entries from top to bottom.
    pub fn entries(&self) -> &[Lse] {
        &self.entries
    }

    /// Pushes a new entry on top of the stack (MPLS PUSH).
    pub fn push(&mut self, label: Label, ttl: u8) {
        let bottom = self.entries.is_empty();
        self.entries.insert(0, Lse { label, tc: 0, bottom, ttl });
    }

    /// Pops the top entry (MPLS POP), returning it.
    pub fn pop(&mut self) -> Option<Lse> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0))
        }
    }

    /// Swaps the top label in place (MPLS SWAP), preserving TTL/TC.
    ///
    /// Returns the outgoing (previous) label, or `None` on an empty
    /// stack.
    pub fn swap(&mut self, new_label: Label) -> Option<Label> {
        let top = self.entries.first_mut()?;
        let old = top.label;
        top.label = new_label;
        Some(old)
    }

    /// Decrements the TTL of the top entry.
    ///
    /// Returns the new TTL, or `None` on an empty stack. A result of 0
    /// means the packet must be dropped and ICMP time-exceeded emitted.
    pub fn decrement_ttl(&mut self) -> Option<u8> {
        let top = self.entries.first_mut()?;
        top.ttl = top.ttl.saturating_sub(1);
        Some(top.ttl)
    }

    /// Parses a full stack: entries until (and including) the first one
    /// with the bottom-of-stack bit set.
    pub fn parse(buf: &[u8]) -> WireResult<LabelStack> {
        let mut entries = Vec::new();
        let mut offset = 0;
        loop {
            let lse = Lse::parse(&buf[offset..])?;
            offset += LSE_LEN;
            let bottom = lse.bottom;
            entries.push(lse);
            if bottom {
                return Ok(LabelStack { entries });
            }
            if offset >= buf.len() {
                return Err(WireError::Truncated);
            }
        }
    }

    /// Total wire length in bytes.
    pub fn wire_len(&self) -> usize {
        self.entries.len() * LSE_LEN
    }

    /// Emits the stack to `buf`, fixing bottom-of-stack bits so that
    /// only the final entry carries the flag.
    pub fn emit(&self, buf: &mut [u8]) -> WireResult<()> {
        if buf.len() < self.wire_len() {
            return Err(WireError::Truncated);
        }
        for (i, lse) in self.entries.iter().enumerate() {
            let fixed = Lse { bottom: i + 1 == self.entries.len(), ..*lse };
            fixed.emit(&mut buf[i * LSE_LEN..])?;
        }
        Ok(())
    }

    /// Returns the wire encoding as an owned vector. Fails like
    /// [`LabelStack::emit`] when an entry cannot be encoded.
    pub fn to_bytes(&self) -> WireResult<Vec<u8>> {
        let mut buf = vec![0u8; self.wire_len()];
        self.emit(&mut buf)?;
        Ok(buf)
    }
}

impl fmt::Display for LabelStack {
    /// Formats the stack as `[top|…|bottom]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, lse) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            write!(f, "{}", lse.label)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn label_bounds() {
        assert!(Label::new(MAX_LABEL).is_ok());
        assert_eq!(Label::new(MAX_LABEL + 1), Err(WireError::Malformed));
        assert_eq!(Label::new_truncated(MAX_LABEL + 1).value(), 0);
    }

    #[test]
    fn special_purpose_labels() {
        assert!(Label::IMPLICIT_NULL.is_special_purpose());
        assert!(Label::new(15).unwrap().is_special_purpose());
        assert!(!Label::new(16).unwrap().is_special_purpose());
        assert!(Label::new(255).unwrap().is_reserved());
        assert!(!Label::new(256).unwrap().is_reserved());
    }

    #[test]
    fn suffix_matching_follows_paper_example() {
        // §4.1 footnote: 16,005 → 13,005 are considered a sequence.
        let a = Label::new(16_005).unwrap();
        let b = Label::new(13_005).unwrap();
        assert!(a.suffix_matches(b));
        // Identical labels are not a *suffix* match (they are an exact one).
        assert!(!a.suffix_matches(a));
        // Different suffixes never match.
        assert!(!a.suffix_matches(Label::new(16_006).unwrap()));
    }

    #[test]
    fn lse_round_trip() {
        let lse = Lse { label: Label::new(16_005).unwrap(), tc: 5, bottom: true, ttl: 253 };
        let bytes = lse.to_bytes().unwrap();
        assert_eq!(Lse::parse(&bytes).unwrap(), lse);
    }

    #[test]
    fn lse_wire_layout_matches_rfc3032() {
        // label=1 (occupies top 20 bits), tc=0, s=1, ttl=255
        let lse = Lse { label: Label::ROUTER_ALERT, tc: 0, bottom: true, ttl: 255 };
        assert_eq!(lse.to_bytes().unwrap(), [0x00, 0x00, 0x11, 0xff]);
    }

    #[test]
    fn lse_parse_truncated() {
        assert_eq!(Lse::parse(&[0, 0, 0]), Err(WireError::Truncated));
    }

    #[test]
    fn lse_emit_rejects_bad_tc() {
        let lse = Lse { label: Label::GAL, tc: 8, bottom: false, ttl: 0 };
        let mut buf = [0u8; 4];
        assert_eq!(lse.emit(&mut buf), Err(WireError::Malformed));
    }

    #[test]
    fn stack_push_pop_swap() {
        let mut stack = LabelStack::new();
        stack.push(Label::new(108).unwrap(), 255);
        stack.push(Label::new(3_001).unwrap(), 255);
        stack.push(Label::new(104).unwrap(), 255);
        assert_eq!(stack.depth(), 3);
        assert_eq!(stack.top().unwrap().label.value(), 104);
        assert!(stack.bottom().unwrap().bottom);
        assert!(!stack.top().unwrap().bottom);

        assert_eq!(stack.swap(Label::new(204).unwrap()).unwrap().value(), 104);
        assert_eq!(stack.top().unwrap().label.value(), 204);

        assert_eq!(stack.pop().unwrap().label.value(), 204);
        assert_eq!(stack.pop().unwrap().label.value(), 3_001);
        assert_eq!(stack.top().unwrap().label.value(), 108);
        assert!(stack.top().unwrap().bottom);
        assert_eq!(stack.pop().unwrap().label.value(), 108);
        assert!(stack.pop().is_none());
        assert!(stack.swap(Label::GAL).is_none());
    }

    #[test]
    fn stack_ttl_decrement() {
        let mut stack = LabelStack::from_labels(&[Label::new(16_000).unwrap()], 2);
        assert_eq!(stack.decrement_ttl(), Some(1));
        assert_eq!(stack.decrement_ttl(), Some(0));
        assert_eq!(stack.decrement_ttl(), Some(0), "TTL saturates at zero");
        assert_eq!(LabelStack::new().decrement_ttl(), None);
    }

    #[test]
    fn stack_parse_stops_at_bottom() {
        let stack = LabelStack::from_labels(
            &[Label::new(20_000).unwrap(), Label::new(37_000).unwrap()],
            255,
        );
        let mut bytes = stack.to_bytes().unwrap();
        // Append garbage after the bottom entry; parsing must ignore it.
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let parsed = LabelStack::parse(&bytes).unwrap();
        assert_eq!(parsed, stack);
    }

    #[test]
    fn stack_parse_missing_bottom_is_truncated() {
        let lse = Lse { label: Label::GAL, tc: 0, bottom: false, ttl: 9 };
        assert_eq!(LabelStack::parse(&lse.to_bytes().unwrap()), Err(WireError::Truncated));
    }

    #[test]
    fn empty_stack_emits_nothing() {
        let stack = LabelStack::new();
        assert_eq!(stack.wire_len(), 0);
        assert!(stack.to_bytes().unwrap().is_empty());
    }

    #[test]
    fn display_formats() {
        let stack =
            LabelStack::from_labels(&[Label::new(104).unwrap(), Label::new(3_001).unwrap()], 255);
        assert_eq!(format!("{stack}"), "[104|3001]");
        assert_eq!(format!("{}", stack.entries()[1]), "3001/0*[ttl=255]");
    }

    proptest! {
        #[test]
        fn prop_lse_round_trip(label in 0u32..=MAX_LABEL, tc in 0u8..8, bottom: bool, ttl: u8) {
            let lse = Lse { label: Label::new(label).unwrap(), tc, bottom, ttl };
            prop_assert_eq!(Lse::parse(&lse.to_bytes().unwrap()).unwrap(), lse);
        }

        #[test]
        fn prop_stack_round_trip(labels in prop::collection::vec(0u32..=MAX_LABEL, 1..10), ttl: u8) {
            let labels: Vec<Label> = labels.into_iter().map(|l| Label::new(l).unwrap()).collect();
            let stack = LabelStack::from_labels(&labels, ttl);
            let parsed = LabelStack::parse(&stack.to_bytes().unwrap()).unwrap();
            prop_assert_eq!(parsed, stack);
        }

        #[test]
        fn prop_bottom_bit_only_on_last(labels in prop::collection::vec(0u32..=MAX_LABEL, 1..10)) {
            let labels: Vec<Label> = labels.into_iter().map(|l| Label::new(l).unwrap()).collect();
            let stack = LabelStack::from_labels(&labels, 64);
            for (i, lse) in stack.entries().iter().enumerate() {
                prop_assert_eq!(lse.bottom, i + 1 == stack.depth());
            }
        }

        #[test]
        fn prop_push_then_pop_is_identity(base in prop::collection::vec(0u32..=MAX_LABEL, 0..6), extra in 0u32..=MAX_LABEL) {
            let labels: Vec<Label> = base.into_iter().map(|l| Label::new(l).unwrap()).collect();
            let mut stack = LabelStack::from_labels(&labels, 255);
            let before = stack.clone();
            stack.push(Label::new(extra).unwrap(), 255);
            let popped = stack.pop().unwrap();
            prop_assert_eq!(popped.label.value(), extra);
            prop_assert_eq!(stack, before);
        }

        #[test]
        fn prop_suffix_match_symmetric(a in 0u32..=MAX_LABEL, b in 0u32..=MAX_LABEL) {
            let (a, b) = (Label::new(a).unwrap(), Label::new(b).unwrap());
            prop_assert_eq!(a.suffix_matches(b), b.suffix_matches(a));
        }
    }
}
