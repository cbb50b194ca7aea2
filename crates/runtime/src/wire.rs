//! The beacon wire format: how a node's state crosses a shard boundary.
//!
//! In the paper's system model every node periodically broadcasts a beacon
//! carrying its current state; a synchronous round ends once every node has
//! heard every neighbor. Inside one process the executors share a state
//! vector instead — the sharded runtime restores the message: boundary
//! states travel between shard workers as encoded [`Beacon`] frames.
//!
//! Frame layout, all integers little-endian:
//!
//! ```text
//! offset  size  field
//! 0       1     version        (== WIRE_VERSION)
//! 1       4     round tag      (round the carried state belongs to)
//! 5       4     node id
//! 9       2     payload length L
//! 11      L     state payload  (the node's WireState encoding)
//! ```
//!
//! Decoding is strict: wrong version, short buffer, trailing bytes after
//! the payload, or a payload the state doesn't consume exactly are all
//! errors — a malformed frame must never silently become a state.

use selfstab_engine::protocol::{WireError, WireState};
use selfstab_graph::Node;

/// Version byte of the frame layout.
pub const WIRE_VERSION: u8 = 1;

/// Fixed header size preceding the payload.
pub const HEADER_LEN: usize = 11;

/// One beacon: node `node`'s state as of synchronous round `round`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Beacon<S> {
    /// Round tag: the number of rounds applied to produce `state`.
    pub round: u32,
    /// The broadcasting node.
    pub node: Node,
    /// The broadcast state.
    pub state: S,
}

impl<S: WireState> Beacon<S> {
    /// Encode the frame into a fresh buffer. Errors (leaving nothing
    /// observable) if the state encoding overflows the u16 payload field.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::with_capacity(HEADER_LEN + 8);
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Append the frame to `buf` — frames concatenate into batch messages
    /// (one per neighbor shard per round) and split back out with
    /// [`Beacon::decode_prefix`].
    ///
    /// A state encoding longer than the u16 payload field can express is
    /// reported as [`WireError::PayloadTooLarge`]; `buf` is rolled back to
    /// its prior length, so a batch under construction stays valid.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        let start = buf.len();
        buf.push(WIRE_VERSION);
        buf.extend_from_slice(&self.round.to_le_bytes());
        buf.extend_from_slice(&self.node.0.to_le_bytes());
        let len_at = buf.len();
        buf.extend_from_slice(&0u16.to_le_bytes());
        self.state.encode(buf);
        let payload = buf.len() - len_at - 2;
        let Ok(payload) = u16::try_from(payload) else {
            buf.truncate(start);
            return Err(WireError::PayloadTooLarge(payload));
        };
        buf[len_at..len_at + 2].copy_from_slice(&payload.to_le_bytes());
        Ok(())
    }

    /// Decode a frame that must span `bytes` exactly.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (beacon, used) = Self::decode_prefix(bytes)?;
        if used < bytes.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(beacon)
    }

    /// Decode one frame from the front of `bytes`, returning it and the
    /// number of bytes consumed (for walking a batch of concatenated
    /// frames).
    pub fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if bytes[0] != WIRE_VERSION {
            return Err(WireError::Header("version"));
        }
        let round = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes"));
        let node = Node(u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes")));
        let len = u16::from_le_bytes(bytes[9..11].try_into().expect("2 bytes")) as usize;
        if bytes.len() < HEADER_LEN + len {
            return Err(WireError::Truncated);
        }
        let state = S::decode(&bytes[HEADER_LEN..HEADER_LEN + len])?;
        Ok((Beacon { round, node, state }, HEADER_LEN + len))
    }
}

/// The total extent (header + declared payload length) of the frame at the
/// front of `bytes`, if the buffer holds at least that many bytes — without
/// validating the version byte or decoding the payload.
///
/// This is the chaos-tolerant receiver's skip rule: a bit-corrupted frame
/// fails [`Beacon::decode_prefix`] (strict decoding is the detection
/// mechanism), but the injector never touches the length field, so the
/// receiver can discard exactly the corrupted frame and keep walking the
/// batch. Returns `None` when even the claimed extent is not present, in
/// which case the batch is unrecoverable.
pub fn frame_extent(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let len = u16::from_le_bytes(bytes[9..11].try_into().expect("2 bytes")) as usize;
    let extent = HEADER_LEN + len;
    (bytes.len() >= extent).then_some(extent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use selfstab_core::smm::Pointer;

    #[test]
    fn roundtrips_losslessly() {
        let frames = [
            Beacon {
                round: 0,
                node: Node(0),
                state: Pointer::NULL,
            },
            Beacon {
                round: 7,
                node: Node(3),
                state: Pointer(Some(Node(12))),
            },
            Beacon {
                round: u32::MAX,
                node: Node(u32::MAX),
                state: Pointer(Some(Node(u32::MAX))),
            },
        ];
        for f in frames {
            let bytes = f.encode().unwrap();
            assert_eq!(Beacon::<Pointer>::decode(&bytes), Ok(f));
        }
        // And for the other protocol state types the runtime carries.
        let smi = Beacon {
            round: 3,
            node: Node(9),
            state: true,
        };
        assert_eq!(Beacon::<bool>::decode(&smi.encode().unwrap()), Ok(smi));
        let coloring = Beacon {
            round: 1,
            node: Node(2),
            state: 0xDEAD_BEEFu32,
        };
        assert_eq!(
            Beacon::<u32>::decode(&coloring.encode().unwrap()),
            Ok(coloring)
        );
    }

    #[test]
    fn concatenated_frames_split_back_out() {
        let frames = [
            Beacon {
                round: 4,
                node: Node(0),
                state: Pointer::NULL,
            },
            Beacon {
                round: 4,
                node: Node(17),
                state: Pointer(Some(Node(2))),
            },
            Beacon {
                round: 4,
                node: Node(3),
                state: Pointer(Some(Node(17))),
            },
        ];
        let mut batch = Vec::new();
        for f in &frames {
            f.encode_into(&mut batch).unwrap();
        }
        let mut rest = &batch[..];
        let mut decoded = Vec::new();
        while !rest.is_empty() {
            let (f, used) = Beacon::<Pointer>::decode_prefix(rest).expect("valid prefix");
            decoded.push(f);
            rest = &rest[used..];
        }
        assert_eq!(decoded, frames);
        // A batch is not a single frame: exact decode rejects it.
        assert_eq!(
            Beacon::<Pointer>::decode(&batch),
            Err(WireError::TrailingBytes)
        );
    }

    #[test]
    fn layout_is_stable_little_endian() {
        let f = Beacon {
            round: 0x0102_0304,
            node: Node(0x0A0B_0C0D),
            state: Pointer(Some(Node(5))),
        };
        let bytes = f.encode().unwrap();
        assert_eq!(
            bytes,
            vec![
                WIRE_VERSION, // version
                0x04,
                0x03,
                0x02,
                0x01, // round, LE
                0x0D,
                0x0C,
                0x0B,
                0x0A, // node, LE
                0x05,
                0x00, // payload length = 5, LE
                0x01,
                0x05,
                0x00,
                0x00,
                0x00, // Some tag + pointee 5, LE
            ]
        );
    }

    #[test]
    fn rejects_malformed_frames() {
        let good = Beacon {
            round: 2,
            node: Node(1),
            state: Pointer(Some(Node(4))),
        }
        .encode()
        .unwrap();

        // Wrong version byte.
        let mut bad = good.clone();
        bad[0] = 9;
        assert_eq!(
            Beacon::<Pointer>::decode(&bad),
            Err(WireError::Header("version"))
        );

        // Every truncation of the frame fails.
        for cut in 0..good.len() {
            assert!(
                Beacon::<Pointer>::decode(&good[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }

        // Trailing garbage after the declared payload.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(
            Beacon::<Pointer>::decode(&long),
            Err(WireError::TrailingBytes)
        );

        // Declared length longer than the state's encoding: the state
        // decode must reject the leftover bytes.
        let mut padded = good.clone();
        padded[9] += 1; // claim one extra payload byte
        padded.push(0);
        assert_eq!(
            Beacon::<Pointer>::decode(&padded),
            Err(WireError::TrailingBytes)
        );

        // Undefined option tag inside the payload.
        let mut badtag = good;
        badtag[HEADER_LEN] = 7;
        assert_eq!(
            Beacon::<Pointer>::decode(&badtag),
            Err(WireError::BadTag(7))
        );
    }

    /// A state whose encoding is wider than the u16 payload field.
    struct Oversized;
    impl WireState for Oversized {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.resize(buf.len() + 70_000, 0xAB);
        }
        fn decode_prefix(_: &[u8]) -> Result<(Self, usize), WireError> {
            Err(WireError::Truncated)
        }
    }

    #[test]
    fn frame_extent_reads_the_length_field_only() {
        let good = Beacon {
            round: 2,
            node: Node(1),
            state: Pointer(Some(Node(4))),
        }
        .encode()
        .unwrap();
        assert_eq!(frame_extent(&good), Some(good.len()));
        // A frame with a mangled version byte still reports its extent.
        let mut bad = good.clone();
        bad[0] ^= 0xA5;
        assert_eq!(frame_extent(&bad), Some(good.len()));
        // Short buffers and truncated payloads do not.
        assert_eq!(frame_extent(&good[..HEADER_LEN - 1]), None);
        assert_eq!(frame_extent(&good[..good.len() - 1]), None);
        // Extra bytes after the frame are a batch, not an error.
        let mut batch = good.clone();
        batch.extend_from_slice(&good);
        assert_eq!(frame_extent(&batch), Some(good.len()));
    }

    #[test]
    fn oversized_payload_is_an_error_not_a_panic() {
        let frame = Beacon {
            round: 1,
            node: Node(0),
            state: Oversized,
        };
        assert_eq!(frame.encode(), Err(WireError::PayloadTooLarge(70_000)));
        // A batch under construction is rolled back, not corrupted.
        let mut batch = Beacon {
            round: 1,
            node: Node(1),
            state: 5u32,
        }
        .encode()
        .unwrap();
        let before = batch.clone();
        assert_eq!(
            frame.encode_into(&mut batch),
            Err(WireError::PayloadTooLarge(70_000))
        );
        assert_eq!(batch, before, "failed append leaves the batch intact");
    }

    /// Bytes near a frame: one case in four is pure noise; otherwise a
    /// header (version byte usually right, small declared length) and a
    /// payload whose first byte is a valid or near-valid option tag, which
    /// may be shorter or longer than declared.
    fn near_frames() -> impl Strategy<Value = Vec<u8>> {
        let parts = (
            0u8..4,
            any::<u64>(),
            0u16..8,
            collection::vec(any::<u8>(), 0..24),
        );
        parts.prop_map(|(mode, head, len, mut tail)| {
            if mode == 0 {
                return tail;
            }
            let version = if mode == 1 { head as u8 } else { WIRE_VERSION };
            let mut bytes = vec![version];
            bytes.extend_from_slice(&head.to_le_bytes());
            bytes.extend_from_slice(&len.to_le_bytes());
            if let Some(tag) = tail.first_mut() {
                *tag %= 3;
            }
            bytes.extend_from_slice(&tail);
            bytes
        })
    }

    /// Every decoder outcome on `bytes` for one state type: an error or a
    /// frame whose extent agrees with [`frame_extent`], never a panic.
    fn decodes_agree<S: WireState>(bytes: &[u8]) -> Result<(), TestCaseError> {
        let extent = frame_extent(bytes);
        if let Ok((_, used)) = Beacon::<S>::decode_prefix(bytes) {
            prop_assert_eq!(Some(used), extent);
        }
        if Beacon::<S>::decode(bytes).is_ok() {
            prop_assert_eq!(extent, Some(bytes.len()));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hostile bytes give `Err` or `None`, never a panic, and every
        /// successful decode consumed exactly the frame's extent.
        #[test]
        fn hostile_bytes_decode_to_errors_or_agree_with_the_extent(bytes in near_frames()) {
            if let Some(extent) = frame_extent(&bytes) {
                prop_assert!((HEADER_LEN..=bytes.len()).contains(&extent));
            }
            decodes_agree::<Pointer>(&bytes)?;
            decodes_agree::<bool>(&bytes)?;
        }

        /// The exchange's skip rule under a fault plan — decode a frame, or
        /// step over its extent when it fails — yields exactly the frames
        /// whose version byte was left alone.
        #[test]
        fn skip_rule_keeps_exactly_the_intact_frames(
            frames in collection::vec((any::<u32>(), any::<u32>(), 0u8..3, any::<u8>()), 0..12),
        ) {
            let mut batch = Vec::new();
            let mut intact = Vec::new();
            for (node, pointee, kind, flip) in frames {
                let beacon = Beacon {
                    round: 5,
                    node: Node(node),
                    state: if kind == 0 { Pointer::NULL } else { Pointer(Some(Node(pointee))) },
                };
                let start = batch.len();
                beacon.encode_into(&mut batch).unwrap();
                // A quarter of the frames get a nonzero mask on the version.
                if flip % 4 == 0 {
                    batch[start] ^= flip | 1;
                } else {
                    intact.push(beacon);
                }
            }
            let mut rest = &batch[..];
            let mut kept = Vec::new();
            while !rest.is_empty() {
                match Beacon::<Pointer>::decode_prefix(rest) {
                    Ok((beacon, used)) => {
                        kept.push(beacon);
                        rest = &rest[used..];
                    }
                    Err(_) => {
                        let extent = frame_extent(rest);
                        prop_assert!(extent.is_some(), "a flipped frame keeps its extent");
                        rest = &rest[extent.unwrap_or(rest.len())..];
                    }
                }
            }
            prop_assert_eq!(kept, intact);
        }
    }
}
