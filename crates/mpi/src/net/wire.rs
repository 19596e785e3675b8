//! Length-prefixed framed wire protocol for the socket backend.
//!
//! Every frame is `u32` little-endian body length followed by the body; the
//! body is a `kamping-serial` archive starting with a one-byte frame kind.
//! Integers travel as fixed-width little-endian words, byte strings as a
//! `u64` length prefix plus the raw bytes — the same conventions as the
//! serialization layer the bindings use for user payloads (Cereal-style,
//! paper §III-D3), so the wire format needs no second codec.
//!
//! Frame inventory:
//!
//! | kind | frame      | plane       | direction                         |
//! |------|------------|-------------|-----------------------------------|
//! | 1    | `Hello`    | data        | first frame of every connection   |
//! | 2    | `Data`     | data        | an [`crate::transport::Envelope`] |
//! | 3    | `Ack`      | data        | ssend matched (wire ack)          |
//! | 4    | `Control`  | data        | fault/barrier event broadcast     |
//! | 5    | `Join`     | rendezvous  | rank → rank 0                     |
//! | 6    | `Table`    | rendezvous  | rank 0 → rank                     |
//! | 7    | `Bye`      | rendezvous  | clean-exit notice to the monitor  |
//! | 8    | `Ping`     | data        | heartbeat from an idle writer     |
//! | 10   | `JoinElastic` | rendezvous | late joiner → rank 0 (no rank yet) |
//! | 11   | `Admit`    | rendezvous  | rank 0 → joiner (rank + epoch + table) |
//! | 12   | `Grow`     | data        | epoched membership update to survivors |
//!
//! `Data.ack_id` is 0 for standard-mode sends; synchronous-mode sends carry
//! the sender's ack-registry key, and the receiver returns it in an `Ack`
//! frame when the message is *matched* (not when it is received — NBX
//! completion semantics).
//!
//! # Reading the data plane
//!
//! A `Data` frame starts with `DATA_HEAD` fixed bytes — length prefix,
//! kind, source, tag, context, ack id, payload length — and everything
//! after them is payload. `FrameReader`, one per inbound ring or
//! connection, is the only reader of the data plane and has two states:
//!
//! * **header** — bytes collect in a small buffer until it holds a whole
//!   control frame (decoded with [`Frame::decode`]) or the fixed part of a
//!   data frame; the reader then asks where the payload goes;
//! * **body** — the remaining bytes move from the ring or the socket
//!   straight into that destination, however many reads it takes.
//!
//! The buffer never sees a payload byte: a read in the header state asks
//! for at most `DATA_HEAD` bytes past the last known frame boundary, and
//! a data frame's payload starts exactly that far behind its own start.

use std::io::{self, Read, Write};
use std::mem::MaybeUninit;

use kamping_serial::{Reader, SerialError, Writer};

use crate::tag::Tag;
use crate::transport::{ControlMsg, Dest, MatchKey};

/// Refuse frames larger than this (a corrupt length prefix must not
/// trigger a giant allocation).
pub(crate) const MAX_FRAME: usize = 1 << 30;

/// Bytes of a `Data` frame before its payload, length prefix included.
pub(crate) const DATA_HEAD: usize = 45;

/// Largest payload a `Data` frame can carry under [`MAX_FRAME`].
pub(crate) const MAX_PAYLOAD: usize = MAX_FRAME - (DATA_HEAD - 4);

/// Most bytes one header-state read asks for (control frames are read as
/// they come, not allocated for on the word of their length prefix).
const HEAD_CHUNK: usize = 64 * 1024;

const KIND_HELLO: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_ACK: u8 = 3;
const KIND_CONTROL: u8 = 4;
const KIND_JOIN: u8 = 5;
const KIND_TABLE: u8 = 6;
const KIND_BYE: u8 = 7;
const KIND_PING: u8 = 8;
const KIND_PONG: u8 = 9;
const KIND_JOIN_ELASTIC: u8 = 10;
const KIND_ADMIT: u8 = 11;
const KIND_GROW: u8 = 12;

/// One unit of the socket backend's wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Identifies the connecting rank; first frame on every data
    /// connection (connections are unidirectional: the connector writes,
    /// the acceptor reads).
    Hello {
        /// Global rank of the connector.
        rank: usize,
    },
    /// A message envelope.
    Data {
        /// Global source rank.
        src: usize,
        /// Message tag.
        tag: Tag,
        /// Communicator context id.
        ctx: u64,
        /// Sender's ack-registry key for synchronous-mode sends; 0 = none.
        ack_id: u64,
        /// The payload bytes (re-packed into a
        /// [`crate::transport::Payload`] on arrival).
        payload: Vec<u8>,
    },
    /// A synchronous-mode send with this registry key has been matched.
    Ack {
        /// The `ack_id` the matching `Data` frame carried.
        ack_id: u64,
    },
    /// A fault/barrier control event (applied, never re-broadcast).
    Control(ControlMsg),
    /// Rendezvous: `rank` is up and its data listener is at `data_addr`.
    Join {
        /// Global rank of the joiner.
        rank: usize,
        /// String form of the joiner's data-plane `super::Addr`.
        data_addr: String,
    },
    /// Rendezvous: the full rank table, indexed by global rank.
    Table {
        /// String forms of every rank's data-plane address.
        addrs: Vec<String>,
    },
    /// Clean exit notice on the rendezvous plane; an EOF *without* a
    /// preceding `Bye` is how the monitor detects a crashed rank.
    Bye {
        /// Global rank that is exiting cleanly.
        rank: usize,
    },
    /// Heartbeat written by an idle writer thread. Carries nothing; its
    /// purpose is to make a dead peer's socket *fail the write* within one
    /// heartbeat interval instead of staying silently wedged.
    Ping,
    /// Echo of a received `Ping`, sent on the receiver's own outbound
    /// link. Closes the round trip the metrics plane records as
    /// heartbeat RTT. Carries nothing: the pinger keeps the send
    /// timestamp per peer.
    Pong,
    /// Rendezvous: a late-arriving process asks to join the running job.
    /// Unlike `Join` it carries no rank — rank 0 assigns a fresh one.
    JoinElastic {
        /// String form of the joiner's data-plane `super::Addr`.
        data_addr: String,
    },
    /// Rendezvous: rank 0 admits a late joiner, assigning its fresh global
    /// rank and the membership epoch its admission creates. `members` and
    /// `addrs` are aligned: the current member set (joiner included) and
    /// each member's data-plane address.
    Admit {
        /// The joiner's freshly assigned global rank (never reused).
        rank: usize,
        /// The membership epoch created by this admission.
        epoch: u64,
        /// Global ranks of every member at this epoch, joiner included.
        members: Vec<usize>,
        /// Data-plane addresses aligned with `members`.
        addrs: Vec<String>,
    },
    /// Data plane: an epoched membership update broadcast by rank 0 when a
    /// joiner is admitted. Carries the joiner's address so survivors can
    /// wire up the new peer before any traffic flows to it.
    Grow {
        /// The membership epoch created by this admission.
        epoch: u64,
        /// The admitted rank.
        joiner: usize,
        /// String form of the joiner's data-plane address.
        addr: String,
        /// Global ranks of every member at this epoch, joiner included.
        members: Vec<usize>,
    },
}

fn put_u64(w: &mut Writer, v: u64) {
    w.put_bytes(&v.to_le_bytes());
}

fn put_str(w: &mut Writer, s: &str) {
    w.put_len(s.len());
    w.put_bytes(s.as_bytes());
}

fn take_u64(r: &mut Reader<'_>) -> Result<u64, SerialError> {
    Ok(u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes")))
}

fn take_str(r: &mut Reader<'_>) -> Result<String, SerialError> {
    let n = r.take_len(1)?;
    String::from_utf8(r.take(n)?.to_vec()).map_err(|_| SerialError::Invalid("address is not utf-8"))
}

impl Frame {
    /// Serializes the frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Frame::Hello { rank } => {
                w.put_u8(KIND_HELLO);
                put_u64(&mut w, *rank as u64);
            }
            Frame::Data {
                src,
                tag,
                ctx,
                ack_id,
                payload,
            } => {
                w.put_u8(KIND_DATA);
                put_u64(&mut w, *src as u64);
                put_u64(&mut w, *tag as u64);
                put_u64(&mut w, *ctx);
                put_u64(&mut w, *ack_id);
                w.put_len(payload.len());
                w.put_bytes(payload);
            }
            Frame::Ack { ack_id } => {
                w.put_u8(KIND_ACK);
                put_u64(&mut w, *ack_id);
            }
            Frame::Control(msg) => {
                w.put_u8(KIND_CONTROL);
                match msg {
                    ControlMsg::Failed { rank } => {
                        w.put_u8(0);
                        put_u64(&mut w, *rank as u64);
                    }
                    ControlMsg::Finished { rank } => {
                        w.put_u8(1);
                        put_u64(&mut w, *rank as u64);
                    }
                    ControlMsg::Revoked { ctx } => {
                        w.put_u8(2);
                        put_u64(&mut w, *ctx);
                    }
                    ControlMsg::Grow {
                        epoch,
                        joiner,
                        members,
                    } => {
                        w.put_u8(3);
                        put_u64(&mut w, *epoch);
                        put_u64(&mut w, *joiner as u64);
                        put_u64(&mut w, *members);
                    }
                }
            }
            Frame::Join { rank, data_addr } => {
                w.put_u8(KIND_JOIN);
                put_u64(&mut w, *rank as u64);
                put_str(&mut w, data_addr);
            }
            Frame::Table { addrs } => {
                w.put_u8(KIND_TABLE);
                w.put_len(addrs.len());
                for a in addrs {
                    put_str(&mut w, a);
                }
            }
            Frame::Bye { rank } => {
                w.put_u8(KIND_BYE);
                put_u64(&mut w, *rank as u64);
            }
            Frame::Ping => {
                w.put_u8(KIND_PING);
            }
            Frame::Pong => {
                w.put_u8(KIND_PONG);
            }
            Frame::JoinElastic { data_addr } => {
                w.put_u8(KIND_JOIN_ELASTIC);
                put_str(&mut w, data_addr);
            }
            Frame::Admit {
                rank,
                epoch,
                members,
                addrs,
            } => {
                w.put_u8(KIND_ADMIT);
                put_u64(&mut w, *rank as u64);
                put_u64(&mut w, *epoch);
                w.put_len(members.len());
                for m in members {
                    put_u64(&mut w, *m as u64);
                }
                w.put_len(addrs.len());
                for a in addrs {
                    put_str(&mut w, a);
                }
            }
            Frame::Grow {
                epoch,
                joiner,
                addr,
                members,
            } => {
                w.put_u8(KIND_GROW);
                put_u64(&mut w, *epoch);
                put_u64(&mut w, *joiner as u64);
                put_str(&mut w, addr);
                w.put_len(members.len());
                for m in members {
                    put_u64(&mut w, *m as u64);
                }
            }
        }
        w.into_bytes()
    }

    /// Deserializes a frame body produced by [`Frame::encode`].
    pub fn decode(body: &[u8]) -> Result<Self, SerialError> {
        let mut r = Reader::new(body);
        let frame = match r.take_u8()? {
            KIND_HELLO => Frame::Hello {
                rank: take_u64(&mut r)? as usize,
            },
            KIND_DATA => {
                let src = take_u64(&mut r)? as usize;
                let tag = take_u64(&mut r)? as Tag;
                let ctx = take_u64(&mut r)?;
                let ack_id = take_u64(&mut r)?;
                let n = r.take_len(1)?;
                let payload = r.take(n)?.to_vec();
                Frame::Data {
                    src,
                    tag,
                    ctx,
                    ack_id,
                    payload,
                }
            }
            KIND_ACK => Frame::Ack {
                ack_id: take_u64(&mut r)?,
            },
            KIND_CONTROL => {
                let msg = match r.take_u8()? {
                    0 => ControlMsg::Failed {
                        rank: take_u64(&mut r)? as usize,
                    },
                    1 => ControlMsg::Finished {
                        rank: take_u64(&mut r)? as usize,
                    },
                    2 => ControlMsg::Revoked {
                        ctx: take_u64(&mut r)?,
                    },
                    3 => ControlMsg::Grow {
                        epoch: take_u64(&mut r)?,
                        joiner: take_u64(&mut r)? as usize,
                        members: take_u64(&mut r)?,
                    },
                    _ => return Err(SerialError::Invalid("unknown control kind")),
                };
                Frame::Control(msg)
            }
            KIND_JOIN => Frame::Join {
                rank: take_u64(&mut r)? as usize,
                data_addr: take_str(&mut r)?,
            },
            KIND_TABLE => {
                let n = r.take_len(8)?;
                let addrs = (0..n).map(|_| take_str(&mut r)).collect::<Result<_, _>>()?;
                Frame::Table { addrs }
            }
            KIND_BYE => Frame::Bye {
                rank: take_u64(&mut r)? as usize,
            },
            KIND_PING => Frame::Ping,
            KIND_PONG => Frame::Pong,
            KIND_JOIN_ELASTIC => Frame::JoinElastic {
                data_addr: take_str(&mut r)?,
            },
            KIND_ADMIT => {
                let rank = take_u64(&mut r)? as usize;
                let epoch = take_u64(&mut r)?;
                let n = r.take_len(8)?;
                let members = (0..n)
                    .map(|_| take_u64(&mut r).map(|v| v as usize))
                    .collect::<Result<_, _>>()?;
                let n = r.take_len(1)?;
                let addrs = (0..n).map(|_| take_str(&mut r)).collect::<Result<_, _>>()?;
                Frame::Admit {
                    rank,
                    epoch,
                    members,
                    addrs,
                }
            }
            KIND_GROW => {
                let epoch = take_u64(&mut r)?;
                let joiner = take_u64(&mut r)? as usize;
                let addr = take_str(&mut r)?;
                let n = r.take_len(8)?;
                let members = (0..n)
                    .map(|_| take_u64(&mut r).map(|v| v as usize))
                    .collect::<Result<_, _>>()?;
                Frame::Grow {
                    epoch,
                    joiner,
                    addr,
                    members,
                }
            }
            _ => return Err(SerialError::Invalid("unknown frame kind")),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Writes one length-prefixed frame. Does not flush — batching is the
/// writer thread's call.
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let body = frame.encode();
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)
}

/// Encodes one frame *with* its length prefix into a fresh buffer — the
/// unit the progress engine stages for `writev`.
pub(crate) fn encode_prefixed(frame: &Frame) -> Vec<u8> {
    let body = frame.encode();
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&body);
    buf
}

/// Length-prefix + body-header bytes of a `Data` frame, *excluding* the
/// payload — so that header and payload go out as two parts of one frame
/// (ring write, `writev`) and the payload is never copied into an encode
/// buffer. Byte-identical to `encode_prefixed(&Frame::Data { .. })`.
///
/// # Panics
/// Panics if `payload_len` exceeds [`MAX_PAYLOAD`]; the send calls reject
/// such a message with a typed error before it gets here.
pub(crate) fn data_frame_header(
    src: usize,
    tag: Tag,
    ctx: u64,
    ack_id: u64,
    payload_len: usize,
) -> [u8; DATA_HEAD] {
    assert!(payload_len <= MAX_PAYLOAD, "payload exceeds the frame cap");
    let mut h = [0u8; DATA_HEAD];
    let body_len = (DATA_HEAD - 4 + payload_len) as u32;
    h[0..4].copy_from_slice(&body_len.to_le_bytes());
    h[4] = KIND_DATA;
    h[5..13].copy_from_slice(&(src as u64).to_le_bytes());
    h[13..21].copy_from_slice(&(tag as u64).to_le_bytes());
    h[21..29].copy_from_slice(&ctx.to_le_bytes());
    h[29..37].copy_from_slice(&ack_id.to_le_bytes());
    h[37..45].copy_from_slice(&(payload_len as u64).to_le_bytes());
    h
}

/// Where a [`FrameReader`] gets its bytes: one inbound ring, or one
/// non-blocking socket.
///
/// # Safety
/// `read` returning `Ok(n)` must have written the first `n` bytes of `dst`.
pub(crate) unsafe trait ByteSource {
    /// Moves up to `dst.len()` bytes into `dst`. `Ok(0)` means nothing is
    /// there right now; a closed or broken source is an error.
    fn read(&mut self, dst: &mut [MaybeUninit<u8>]) -> io::Result<usize>;
}

/// What a [`FrameReader`] hands over.
pub(crate) enum Arrival {
    /// A whole non-data frame.
    Control(Frame),
    /// The message `msg` with its whole payload written to `dest`.
    Data {
        msg: MatchKey,
        ack_id: u64,
        dest: Dest,
    },
}

/// The incremental reader of one inbound byte stream of the data plane;
/// see the [module docs](self).
#[derive(Default)]
pub(crate) struct FrameReader {
    /// Control frames and data-frame headers under assembly.
    head: Vec<u8>,
    /// The data frame (message, ack id) whose payload is on its way into
    /// its destination.
    body: Option<(MatchKey, u64, Dest)>,
}

pub(crate) fn corrupt(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl FrameReader {
    /// Reads on until a frame is complete (`Some`) or there is nothing to
    /// do for now (`None`): `io` ran dry, or `dest_for` — asked as soon as
    /// a data frame's header is in where the `len` payload bytes of `msg`
    /// go — answered `Ok(None)`, "not yet", and will be asked again by the
    /// next call. Its error, like every malformed frame
    /// ([`io::ErrorKind::InvalidData`]), means the stream cannot be
    /// resynchronised: the caller gives the peer up.
    pub(crate) fn next(
        &mut self,
        io: &mut impl ByteSource,
        dest_for: impl Fn(MatchKey, usize) -> io::Result<Option<Dest>>,
    ) -> io::Result<Option<Arrival>> {
        loop {
            if let Some((_, _, dest)) = &mut self.body {
                while !dest.rest().is_empty() {
                    let n = io.read(dest.rest())?;
                    if n == 0 {
                        return Ok(None);
                    }
                    // SAFETY: `ByteSource::read` wrote the first `n` bytes.
                    unsafe { dest.advance(n) };
                }
                let done = self.body.take();
                return Ok(done.map(|(msg, ack_id, dest)| Arrival::Data { msg, ack_id, dest }));
            }
            let have = self.head.len();
            let mut want = DATA_HEAD;
            if have > 4 {
                let word = |at: usize| {
                    u64::from_le_bytes(self.head[at..at + 8].try_into().expect("8 bytes"))
                };
                let len = u32::from_le_bytes(self.head[..4].try_into().expect("4 bytes")) as usize;
                if len == 0 || len > MAX_FRAME {
                    return Err(corrupt("frame length out of range"));
                }
                if self.head[4] != KIND_DATA {
                    let end = 4 + len;
                    if have >= end {
                        let frame = Frame::decode(&self.head[4..end])
                            .map_err(|_| corrupt("undecodable control frame"))?;
                        self.head.drain(..end);
                        return Ok(Some(Arrival::Control(frame)));
                    }
                    want = end + DATA_HEAD;
                } else if have >= DATA_HEAD {
                    let payload = word(37);
                    if payload != (len as u64).wrapping_sub(DATA_HEAD as u64 - 4) {
                        return Err(corrupt("data frame lengths disagree"));
                    }
                    let (src, tag, ctx) = (word(5) as usize, word(13) as Tag, word(21));
                    let msg = MatchKey { src, tag, ctx };
                    let Some(dest) = dest_for(msg, payload as usize)? else {
                        return Ok(None);
                    };
                    self.body = Some((msg, word(29), dest));
                    debug_assert_eq!(have, DATA_HEAD, "payload bytes in the header buffer");
                    self.head.clear();
                    continue;
                }
            }
            let room = (want - have).min(HEAD_CHUNK);
            self.head.reserve(room);
            let n = io.read(&mut self.head.spare_capacity_mut()[..room])?;
            if n == 0 {
                return Ok(None);
            }
            // SAFETY: `ByteSource::read` wrote the first `n` spare bytes.
            unsafe { self.head.set_len(have + n) };
        }
    }
}

/// Reads one length-prefixed frame. EOF at a frame boundary surfaces as
/// [`io::ErrorKind::UnexpectedEof`].
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Frame::decode(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        let mut cursor = buf.as_slice();
        assert_eq!(read_frame(&mut cursor).unwrap(), f);
        assert!(cursor.is_empty(), "frame must consume exactly its bytes");
    }

    #[test]
    fn all_frame_kinds_roundtrip() {
        roundtrip(Frame::Hello { rank: 3 });
        roundtrip(Frame::Data {
            src: 1,
            tag: 42,
            ctx: 7,
            ack_id: 0,
            payload: vec![1, 2, 3],
        });
        roundtrip(Frame::Data {
            src: 0,
            tag: crate::tag::ANY_TAG,
            ctx: u64::MAX,
            ack_id: 99,
            payload: vec![0xab; 100_000],
        });
        roundtrip(Frame::Ack { ack_id: 17 });
        roundtrip(Frame::Control(ControlMsg::Failed { rank: 2 }));
        roundtrip(Frame::Control(ControlMsg::Finished { rank: 0 }));
        roundtrip(Frame::Control(ControlMsg::Revoked { ctx: 0xdead }));
        roundtrip(Frame::Join {
            rank: 2,
            data_addr: "unix:/tmp/data-2.sock".into(),
        });
        roundtrip(Frame::Table {
            addrs: vec!["unix:/a".into(), "tcp:127.0.0.1:1234".into()],
        });
        roundtrip(Frame::Bye { rank: 1 });
        roundtrip(Frame::Ping);
        roundtrip(Frame::Control(ControlMsg::Grow {
            epoch: 3,
            joiner: 4,
            members: 0b10111,
        }));
        roundtrip(Frame::JoinElastic {
            data_addr: "unix:/tmp/data-join.sock".into(),
        });
        roundtrip(Frame::Admit {
            rank: 4,
            epoch: 2,
            members: vec![0, 1, 3, 4],
            addrs: vec![
                "unix:/a".into(),
                "unix:/b".into(),
                "unix:/c".into(),
                "unix:/d".into(),
            ],
        });
        roundtrip(Frame::Grow {
            epoch: 2,
            joiner: 4,
            addr: "tcp:127.0.0.1:9999".into(),
            members: vec![0, 1, 3, 4],
        });
    }

    #[test]
    fn frames_are_self_delimiting_in_a_stream() {
        let frames = [
            Frame::Hello { rank: 0 },
            Frame::Data {
                src: 0,
                tag: 1,
                ctx: 0,
                ack_id: 0,
                payload: b"hello".to_vec(),
            },
            Frame::Bye { rank: 0 },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = buf.as_slice();
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn data_frame_header_matches_the_encoder() {
        for (src, tag, ctx, ack, payload) in [
            (0usize, 0u32, 0u64, 0u64, &b""[..]),
            (3, crate::tag::ANY_TAG, u64::MAX, 99, &b"some payload"[..]),
        ] {
            let frame = Frame::Data {
                src,
                tag,
                ctx,
                ack_id: ack,
                payload: payload.to_vec(),
            };
            let mut hand = data_frame_header(src, tag, ctx, ack, payload.len()).to_vec();
            hand.extend_from_slice(payload);
            assert_eq!(hand, encode_prefixed(&frame));
        }
    }

    /// A byte stream that hands out at most `step` bytes per read and runs
    /// dry (once) at every offset in `dry`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        at: usize,
        step: usize,
        dry: Vec<usize>,
        /// Most bytes ever asked for in one read.
        widest: usize,
    }

    // SAFETY: `read` writes exactly the `n` leading bytes it reports.
    unsafe impl ByteSource for Trickle<'_> {
        fn read(&mut self, dst: &mut [MaybeUninit<u8>]) -> io::Result<usize> {
            self.widest = self.widest.max(dst.len());
            if self.dry.first() == Some(&self.at) {
                self.dry.remove(0);
                return Ok(0);
            }
            let stop = self.dry.first().copied().unwrap_or(usize::MAX);
            let n = dst
                .len()
                .min(self.step)
                .min(self.bytes.len() - self.at)
                .min(stop - self.at);
            for (slot, byte) in dst.iter_mut().zip(&self.bytes[self.at..self.at + n]) {
                slot.write(*byte);
            }
            self.at += n;
            Ok(n)
        }
    }

    fn mailbox() -> crate::transport::Mailbox {
        use crate::transport::{Hub, Mailbox};
        Mailbox::new(
            0,
            4,
            std::sync::Arc::new(Hub::new()),
            crate::trace::TraceCtx::disabled(4),
        )
    }

    /// Everything `reader` yields from `io` until it runs dry for good,
    /// data frames rebuilt as the `Frame::Data` their sender encoded.
    fn read_all(reader: &mut FrameReader, io: &mut Trickle<'_>) -> io::Result<Vec<Frame>> {
        let mb = mailbox();
        let mut frames = Vec::new();
        loop {
            match reader.next(io, |msg, len| {
                Ok(Some(mb.dest_for(msg, len, false).unwrap()))
            })? {
                Some(Arrival::Control(frame)) => frames.push(frame),
                Some(Arrival::Data { msg, ack_id, dest }) => {
                    mb.land(msg, dest, None);
                    let payload = mb.try_take(msg).unwrap().payload.into_vec();
                    let (src, tag, ctx) = (msg.src, msg.tag, msg.ctx);
                    frames.push(Frame::Data {
                        src,
                        tag,
                        ctx,
                        ack_id,
                        payload,
                    });
                }
                None if io.at == io.bytes.len() => return Ok(frames),
                None => {}
            }
        }
    }

    fn data(tag: Tag, ack_id: u64, payload: Vec<u8>) -> Frame {
        Frame::Data {
            src: 3,
            tag,
            ctx: 9,
            ack_id,
            payload,
        }
    }

    #[test]
    fn reader_reassembles_any_chunking_without_buffering_payload() {
        let frames = vec![
            Frame::Ping,
            data(1, 0, vec![]),
            Frame::Ack { ack_id: 4 },
            data(2, 77, (0..100_000u32).map(|i| i as u8).collect()),
            Frame::Pong,
            Frame::Ping,
            data(3, 0, vec![5; 33]),
            Frame::Control(ControlMsg::Finished { rank: 3 }),
            Frame::Grow {
                epoch: 1,
                joiner: 2,
                addr: "unix:/some/where/far/longer/than/a/data/frame/header.sock".into(),
                members: vec![0, 1, 2],
            },
            data(4, 0, vec![6; 1]),
        ];
        let stream: Vec<u8> = frames.iter().flat_map(encode_prefixed).collect();
        for step in [1, 3, 44, 45, 46, 4096, usize::MAX] {
            let dry = vec![0, 2, 5, 44, 45, 46, 50, 1000, stream.len() - 1];
            let mut io = Trickle {
                bytes: &stream,
                at: 0,
                step,
                dry,
                widest: 0,
            };
            let mut reader = FrameReader::default();
            assert_eq!(
                read_all(&mut reader, &mut io).unwrap(),
                frames,
                "step {step}"
            );
            assert!(reader.head.is_empty() && reader.body.is_none());
            // Header-state reads are small; only a payload read may be as
            // wide as its payload — the 100 000 bytes went straight to
            // their destination.
            assert_eq!(io.widest, 100_000);
            assert!(
                reader.head.capacity() < 1024,
                "header buffer held a payload"
            );
        }
    }

    #[test]
    fn reader_asks_again_after_not_yet() {
        let frame = data(1, 0, vec![8; 64]);
        let stream = encode_prefixed(&frame);
        let mut io = Trickle {
            bytes: &stream,
            at: 0,
            step: usize::MAX,
            dry: Vec::new(),
            widest: 0,
        };
        let mut reader = FrameReader::default();
        let asked = std::cell::Cell::new(0);
        let not_yet = |_, _| {
            asked.set(asked.get() + 1);
            Ok(None)
        };
        assert!(reader.next(&mut io, not_yet).unwrap().is_none());
        assert!(reader.next(&mut io, not_yet).unwrap().is_none());
        // The header is in and kept, the payload still on the wire.
        assert_eq!((asked.get(), io.at), (2, DATA_HEAD));
        assert_eq!(read_all(&mut reader, &mut io).unwrap(), vec![frame]);
    }

    #[test]
    fn reader_gives_up_on_streams_it_cannot_follow() {
        let good = encode_prefixed(&Frame::Ack { ack_id: 1 });
        let oversized = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        let empty = 0u32.to_le_bytes().to_vec();
        let mut unknown_kind = good.clone();
        unknown_kind[4] = 0xee;
        let mut trailing = good.clone();
        trailing[0] += 1;
        trailing.push(0);
        let mut disagreeing = data_frame_header(1, 2, 3, 0, 64).to_vec();
        disagreeing[37] += 1;
        let mut short_data = data_frame_header(1, 2, 3, 0, 0).to_vec();
        short_data[0] -= 1;
        for (what, mut stream) in [
            ("oversized", oversized),
            ("empty", empty),
            ("unknown kind", unknown_kind),
            ("trailing byte", trailing),
            ("payload length", disagreeing),
            ("short data frame", short_data),
        ] {
            // Enough bytes behind the bad frame for any read it asks for.
            stream.extend_from_slice(&[0; 2 * DATA_HEAD]);
            let mut io = Trickle {
                bytes: &stream,
                at: 0,
                step: usize::MAX,
                dry: Vec::new(),
                widest: 0,
            };
            let err = read_all(&mut FrameReader::default(), &mut io).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
        // A source the caller does not know is the caller's verdict.
        let stream = encode_prefixed(&data(1, 0, vec![1; 8]));
        let mut io = Trickle {
            bytes: &stream,
            at: 0,
            step: usize::MAX,
            dry: Vec::new(),
            widest: 0,
        };
        let unknown = |_, _| Err(corrupt("unknown source"));
        assert!(FrameReader::default().next(&mut io, unknown).is_err());
    }

    #[test]
    fn oversized_payloads_cannot_be_framed() {
        assert_eq!(MAX_PAYLOAD + DATA_HEAD - 4, MAX_FRAME);
        let at_cap = data_frame_header(0, 0, 0, 0, MAX_PAYLOAD);
        assert_eq!(
            u32::from_le_bytes(at_cap[..4].try_into().unwrap()) as usize,
            MAX_FRAME
        );
        let over = std::panic::catch_unwind(|| data_frame_header(0, 0, 0, 0, MAX_PAYLOAD + 1));
        assert!(
            over.is_err(),
            "a wrapped length prefix must never reach the wire"
        );
    }

    #[test]
    fn corrupt_length_prefix_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = bytes.as_slice();
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_body_rejected() {
        let body = Frame::Ack { ack_id: 1 }.encode();
        assert!(Frame::decode(&body[..body.len() - 1]).is_err());
        // Trailing garbage is also rejected.
        let mut long = body.clone();
        long.push(0);
        assert!(Frame::decode(&long).is_err());
    }
}
