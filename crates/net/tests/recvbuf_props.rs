//! Property tests of [`RecvBuf`], the receive buffer behind every socket
//! reader: a stream of peer frames, client frames and opaque frames up to
//! `wire::MAX_FRAME`, fed through `read_from` at random split points
//! (1-byte reads included), must decode to exactly what a one-shot decode
//! of the whole stream yields — with frames straddling the buffer end and
//! frames larger than the initial capacity. A length prefix above
//! `MAX_FRAME` must be rejected without growing the buffer.

use std::io::Read;

use kite::api::{Completion, Op, OpOutput};
use kite::wire::{self, ClientFrame};
use kite::Msg;
use kite_common::{Key, Lc, NodeId, OpId, SessionId, Val};
use kite_net::RecvBuf;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// How a frame's body decodes.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Peer,
    Client,
    /// Length-validated only; compared by length and content hash.
    Opaque,
}

/// A reader that hands out `data` in the chunk sizes `split` draws.
struct Chunked<'a, F: FnMut() -> usize> {
    data: &'a [u8],
    split: F,
}

impl<F: FnMut() -> usize> Read for Chunked<'_, F> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (self.split)().max(1).min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn peer_frame(rng: &mut TestRng, out: &mut Vec<u8>) {
    let n = 1 + rng.below(12);
    let msgs: Vec<Msg> = (0..n)
        .map(|i| {
            let x = rng.next_u64();
            Msg::EsWrite {
                rid: x,
                key: Key(x >> 7),
                val: Val::from_u64(x ^ i),
                lc: Lc::new(i + 1, NodeId(1)),
            }
        })
        .collect();
    wire::encode_frame(NodeId(1), rng.below(4) as u32, &msgs, out);
}

fn client_frame(rng: &mut TestRng, out: &mut Vec<u8>) {
    let key = Key(rng.below(1 << 20));
    let op = Op::Write { key, val: Val::from_u64(rng.next_u64()) };
    let frame = if rng.below(2) == 0 {
        ClientFrame::Submit(op)
    } else {
        ClientFrame::Completion(Completion {
            op_id: OpId::new(SessionId::new(NodeId(0), 2), rng.next_u64() >> 1),
            op,
            output: OpOutput::Done,
            invoked_at: rng.next_u64() >> 8,
            completed_at: rng.next_u64() >> 8,
        })
    };
    wire::encode_client_frame(&frame, out);
}

fn opaque_frame(rng: &mut TestRng, body_len: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let fill = rng.next_u64() as u8;
    out.extend((0..body_len).map(|i| fill.wrapping_add(i as u8)));
}

/// Decode one body as `kind`; the string form makes peer batches,
/// client frames and raw bodies comparable.
fn decode(kind: Kind, body: &[u8]) -> Result<String, String> {
    match kind {
        Kind::Peer => {
            let mut msgs = Vec::new();
            let (src, mepoch) =
                wire::decode_frame_body(body, &mut msgs).map_err(|e| e.to_string())?;
            Ok(format!("{src:?} {mepoch} {msgs:?}"))
        }
        Kind::Client => {
            wire::decode_client_frame(body).map(|f| format!("{f:?}")).map_err(|e| e.to_string())
        }
        Kind::Opaque => {
            let fnv = body.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            });
            Ok(format!("opaque {} {fnv:x}", body.len()))
        }
    }
}

/// The readers' decode loop: every complete frame in `rb`, in order;
/// a partial frame reserves room for itself.
fn drain(rb: &mut RecvBuf, kinds: &[Kind], out: &mut Vec<String>) -> Result<(), String> {
    loop {
        let filled = rb.filled();
        if filled.len() < 4 {
            return Ok(());
        }
        let prefix = [filled[0], filled[1], filled[2], filled[3]];
        let blen = wire::frame_body_len(prefix).map_err(|e| e.to_string())?;
        if filled.len() < 4 + blen {
            rb.reserve_frame(4 + blen);
            return Ok(());
        }
        let kind = *kinds.get(out.len()).ok_or("more frames than sent")?;
        out.push(decode(kind, &filled[4..4 + blen])?);
        rb.consume(4 + blen);
    }
}

/// Decode the whole stream from one slice.
fn one_shot(stream: &[u8], kinds: &[Kind]) -> Vec<String> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < stream.len() {
        let prefix = [stream[pos], stream[pos + 1], stream[pos + 2], stream[pos + 3]];
        let blen = wire::frame_body_len(prefix).expect("own frame");
        out.push(decode(kinds[out.len()], &stream[pos + 4..pos + 4 + blen]).expect("own frame"));
        pos += 4 + blen;
    }
    out
}

/// Feed `stream` through a `cap`-byte `RecvBuf` in chunks drawn by
/// `split`; returns the decoded frames and the final capacity.
fn streamed(
    stream: &[u8],
    kinds: &[Kind],
    cap: usize,
    split: impl FnMut() -> usize,
) -> Result<(Vec<String>, usize), String> {
    let mut rb = RecvBuf::with_capacity(cap);
    let mut src = Chunked { data: stream, split };
    let mut out = Vec::new();
    loop {
        let n = rb.read_from(&mut src).map_err(|e| e.to_string())?;
        drain(&mut rb, kinds, &mut out)?;
        if n == 0 {
            break;
        }
    }
    if !rb.filled().is_empty() {
        return Err(format!("{} bytes left undecoded", rb.filled().len()));
    }
    Ok((out, rb.capacity()))
}

/// A split-size drawer for `mode`: 0 = 1-byte reads, 1 = small, 2 = up to
/// twice the buffer, 3 = a mix of all three.
fn splitter(seed: u64, mode: u8, cap: usize) -> impl FnMut() -> usize {
    let mut rng = TestRng::from_seed(seed);
    move || {
        let m = if mode == 3 { rng.below(3) as u8 } else { mode };
        match m {
            0 => 1,
            1 => 1 + rng.below(16) as usize,
            _ => 1 + rng.below(2 * cap as u64) as usize,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random peer, client and opaque frames (some larger than the initial
    /// capacity) at random split points decode exactly as one-shot, and the
    /// buffer grows no further than its largest frame.
    #[test]
    fn streamed_decode_matches_one_shot(
        seed in any::<u64>(),
        cap in 16usize..512,
        mode in 0u8..4,
        n_frames in 1usize..48,
    ) {
        let mut rng = TestRng::from_seed(seed);
        let mut stream = Vec::new();
        let mut kinds = Vec::with_capacity(n_frames);
        let mut largest = 0;
        for _ in 0..n_frames {
            let at = stream.len();
            let kind = match rng.below(3) {
                0 => Kind::Peer,
                1 => Kind::Client,
                _ => Kind::Opaque,
            };
            match kind {
                Kind::Peer => peer_frame(&mut rng, &mut stream),
                Kind::Client => client_frame(&mut rng, &mut stream),
                Kind::Opaque => {
                    let body = 5 + rng.below(4 * cap as u64) as usize;
                    opaque_frame(&mut rng, body, &mut stream)
                }
            }
            kinds.push(kind);
            largest = largest.max(stream.len() - at);
        }
        let want = one_shot(&stream, &kinds);
        prop_assert_eq!(want.len(), n_frames);
        let (got, final_cap) =
            streamed(&stream, &kinds, cap, splitter(seed ^ 0x5eed, mode, cap)).unwrap();
        prop_assert_eq!(got, want);
        prop_assert!(final_cap <= cap.max(largest), "grew to {final_cap} (cap {cap}, largest {largest})");
    }

    /// A prefix above `MAX_FRAME` after valid frames is rejected when the
    /// decoder reaches it, every frame before it is delivered, and the
    /// buffer never grows.
    #[test]
    fn oversized_prefix_is_rejected_without_growth(
        seed in any::<u64>(),
        mode in 0u8..4,
        n_frames in 0usize..16,
        excess in 1u64..(u32::MAX as u64 - wire::MAX_FRAME as u64),
    ) {
        let cap = 512;
        let mut rng = TestRng::from_seed(seed);
        let mut stream = Vec::new();
        let mut kinds = Vec::with_capacity(n_frames);
        for _ in 0..n_frames {
            if rng.below(2) == 0 {
                client_frame(&mut rng, &mut stream);
                kinds.push(Kind::Client);
            } else {
                let body = 5 + rng.below(200) as usize;
                opaque_frame(&mut rng, body, &mut stream);
                kinds.push(Kind::Opaque);
            }
        }
        let want = one_shot(&stream, &kinds);
        stream.extend_from_slice(&((wire::MAX_FRAME as u64 + excess) as u32).to_le_bytes());
        stream.extend_from_slice(&[0xAB; 64]);

        let mut rb = RecvBuf::with_capacity(cap);
        let mut src = Chunked { data: &stream, split: splitter(seed, mode, cap) };
        let mut got = Vec::new();
        let err = loop {
            let n = rb.read_from(&mut src).unwrap();
            if let Err(e) = drain(&mut rb, &kinds, &mut got) {
                break Some(e);
            }
            if n == 0 {
                break None;
            }
        };
        prop_assert!(err.is_some(), "oversized prefix accepted");
        prop_assert_eq!(got, want);
        prop_assert_eq!(rb.capacity(), cap);
    }
}

/// The largest legal frame, `MAX_FRAME` bytes of body, streams through a
/// default-sized buffer (which must grow to exactly prefix + body once)
/// between ordinary frames.
#[test]
fn max_frame_streams_through_default_buffer() {
    let mut rng = TestRng::from_seed(7);
    let mut stream = Vec::new();
    peer_frame(&mut rng, &mut stream);
    opaque_frame(&mut rng, wire::MAX_FRAME, &mut stream);
    client_frame(&mut rng, &mut stream);
    let kinds = [Kind::Peer, Kind::Opaque, Kind::Client];
    let want = one_shot(&stream, &kinds);
    let cap = kite_net::recvbuf::READ_CHUNK;
    for mode in [1, 2, 3] {
        let (got, final_cap) = streamed(&stream, &kinds, cap, splitter(mode as u64, mode, cap))
            .expect("stream decodes");
        assert_eq!(got, want, "split mode {mode}");
        assert_eq!(final_cap, 4 + wire::MAX_FRAME, "split mode {mode}");
    }
}
